"""Dense complex-Hermitian linear algebra primitives.

All higher-level quantities in the package reduce to the handful of
operations here: validation of density matrices, Hermitian
eigendecomposition (LAPACK through ``numpy.linalg.eigh``) with its PSD
gate, Shannon entropy and random density matrices.  Nothing here forms a
tensor power: the closed forms read n copies from the base diagonal.

Matrices and vectors are plain ``numpy`` arrays (complex128).  Validators
raise the typed errors from :mod:`cohdist.errors`.  The validation gates
live here and nowhere else: a validated matrix is Hermitian to 1e-12
entrywise with trace 1 to 1e-10, the eigensolver rejects a Hermitian
defect above 1e-9, a probability vector sums to 1 to 1e-9, and the PSD
floor is -1e-10: ``eig_psd`` is the one check of it, and eigenvalues in
``[-1e-10, 0)`` count as zero.
"""

import numpy as np

from .errors import (
    DimMismatch,
    NonHermitian,
    NotDistribution,
    NotPSD,
    NumericalFailure,
)

__all__ = [
    "eig_hermitian",
    "eig_psd",
    "hermitian_defect",
    "random_density",
    "require_density",
    "shannon_entropy",
]

_HERMITIAN_ENTRY = 1e-12   # |a_ij - conj(a_ji)| for validated matrices
_HERMITIAN_OP = 1e-9       # eigensolver rejects beyond this defect
_PSD_EIG_FLOOR = -1e-10    # eigenvalues above this are clamped to 0
_TRACE_ONE = 1e-10
_DISTRIBUTION = 1e-9


def _as_complex_matrix(a) -> np.ndarray:
    mat = np.asarray(a, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {mat.shape}")
    return mat


def _adjoint_and_defect(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """The adjoint of a square complex matrix and its Hermitian defect;
    ``NumericalFailure`` on a non-finite entry.  The difference is taken
    of quarters, whose parts and modulus stay finite for any finite
    entries, and scaled back as a Python float, so a defect past the
    largest double is inf, with no numpy overflow."""
    if not np.all(np.isfinite(mat)):
        raise NumericalFailure("matrix has non-finite entries")
    adj = mat.conj().T
    return adj, 4.0 * float(np.max(np.abs(0.25 * mat - 0.25 * adj))) if mat.size else 0.0


def hermitian_defect(a) -> float:
    """Largest entrywise deviation |a_ij - conj(a_ji)|.

    A non-finite entry raises ``NumericalFailure``, since a NaN defect
    would pass every ``defect > tol`` gate.
    """
    return _adjoint_and_defect(_as_complex_matrix(a))[1]


def require_density(rho, *, check_psd: bool = True) -> np.ndarray:
    """Validate a density matrix and return it as complex128.

    Checks finiteness and Hermiticity entrywise (``hermitian_defect``), unit
    trace, and (optionally, since it costs an eigendecomposition) positive
    semidefiniteness through ``eig_psd``.  A non-finite entry raises
    ``NumericalFailure``.
    """
    mat = _as_complex_matrix(rho)
    defect = hermitian_defect(mat)
    if defect > _HERMITIAN_ENTRY:
        raise NonHermitian(f"Hermitian defect {defect:.3e} exceeds {_HERMITIAN_ENTRY:.0e}")
    tr = np.trace(mat)
    if abs(tr - 1.0) > _TRACE_ONE:
        raise NotDistribution(f"trace {tr} is not 1 within {_TRACE_ONE:.0e}")
    if check_psd:
        eig_psd(mat)
    return mat


def eig_hermitian(mat):
    """Eigendecomposition of a Hermitian matrix by LAPACK (``numpy.linalg.eigh``).

    The matrix is symmetrized as ``0.5 * (a + a^dag)`` before the solve.
    Returns ``(w, v)`` with eigenvalues ``w`` ascending and unitary ``v``
    such that ``mat = v @ diag(w) @ v.conj().T``.  No ordering guarantee
    among numerically equal eigenvalues.

    Raises
    ------
    NumericalFailure
        if the matrix has a non-finite entry, or LAPACK fails to converge.
    NonHermitian
        if the entrywise symmetry defect exceeds 1e-9.
    """
    a = _as_complex_matrix(mat)
    adj, defect = _adjoint_and_defect(a)
    if defect > _HERMITIAN_OP:
        raise NonHermitian(f"Hermitian defect {defect:.3e} exceeds {_HERMITIAN_OP:.0e}")
    try:
        return np.linalg.eigh(0.5 * (a + adj))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition did not converge: {exc}") from exc


def eig_psd(mat):
    """``eig_hermitian`` followed by the PSD gate, the package's one check of
    the floor: raises ``NotPSD`` if the smallest eigenvalue is below -1e-10.
    Eigenvalues in ``[-1e-10, 0)`` are returned as computed; callers clamp
    them to zero."""
    w, v = eig_hermitian(mat)
    if w[0] < _PSD_EIG_FLOOR:
        raise NotPSD(f"minimum eigenvalue {w[0]:.3e} below {_PSD_EIG_FLOOR:.0e}")
    return w, v


def shannon_entropy(diagonal):
    """Base-2 Shannon entropy of a probability vector; 0 log 0 = 0.

    A stack of vectors along the last axis gives one entropy per row, and
    every row must pass the distribution check.
    """
    tol = _DISTRIBUTION
    p = np.atleast_1d(np.asarray(diagonal, dtype=float))
    if (p.shape[-1] == 0 or np.any(np.min(p, axis=-1) < -tol)
            or np.any(np.abs(p.sum(axis=-1) - 1.0) > tol)):
        raise NotDistribution(f"not a probability vector within {tol:.0e}")
    pos = p > 0.0
    h = -np.sum(np.where(pos, p * np.log2(np.where(pos, p, 1.0)), 0.0), axis=-1)
    return float(h) if p.ndim == 1 else h


def random_density(dim: int, rng: "np.random.Generator", rank: int | None = None) -> np.ndarray:
    """Random density matrix from a normalized Ginibre product G G^dag."""
    r = dim if rank is None else rank
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)
