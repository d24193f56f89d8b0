"""Exception taxonomy shared by all cohdist modules."""


class CohdistError(Exception):
    """Base class for all errors raised by this package."""


class NonHermitian(CohdistError):
    """Matrix violates Hermitian symmetry beyond tolerance."""


class NotPSD(CohdistError):
    """Matrix has an eigenvalue below the allowed negative tolerance."""


class DimMismatch(CohdistError):
    """Operands have incompatible dimensions."""


class CapExceeded(CohdistError):
    """Requested size exceeds one of the package's fixed bounds."""


class NotDistribution(CohdistError):
    """Vector is not a probability distribution within tolerance."""


class BadM(CohdistError):
    """Target dimension parameter m is outside its valid range."""


class DimTooLarge(CohdistError):
    """Operation only supports dimensions 2 and 3."""


class NumericalFailure(CohdistError):
    """Numerical routine failed to meet its residual target after restarts."""


class NotAPurification(CohdistError):
    """Joint vector is not a valid purification over the given factors."""


class IncompatibleEnsemble(CohdistError):
    """Ensemble average does not match the reduced state it should steer to."""


class ParseError(CohdistError):
    """Input file is malformed or fails its validity gates."""
