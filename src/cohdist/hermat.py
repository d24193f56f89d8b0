"""Dense complex-Hermitian linear algebra primitives.

All higher-level quantities in the package reduce to the handful of
operations here: validation of density matrices, Hermitian
eigendecomposition (LAPACK through ``numpy.linalg.eigh``) with its PSD
gate, Shannon entropy and random density matrices.  Uhlmann fidelity and
tensor powers are the materialized references the closed forms are
tested against.

Matrices and vectors are plain ``numpy`` arrays (complex128).  Validators
raise the typed errors from :mod:`cohdist.errors`.  The validation gates
live here and nowhere else: a validated matrix is Hermitian to 1e-12
entrywise with trace 1 to 1e-10, the eigensolver rejects a Hermitian
defect above 1e-9, a probability vector sums to 1 to 1e-9, and the PSD
floor is -1e-10: ``eig_psd`` is the one check of it, and eigenvalues in
``[-1e-10, 0)`` count as zero.  ``TENSOR_DIM_CAP`` (1024) is the fixed
bound on a materialized tensor-power dimension.
"""

import numpy as np

from .errors import (
    CapExceeded,
    DimMismatch,
    NonHermitian,
    NotDistribution,
    NotPSD,
    NumericalFailure,
)

__all__ = [
    "TENSOR_DIM_CAP",
    "eig_hermitian",
    "eig_psd",
    "fidelity",
    "hermitian_defect",
    "random_density",
    "require_density",
    "shannon_entropy",
    "tensor_power",
]

_HERMITIAN_ENTRY = 1e-12   # |a_ij - conj(a_ji)| for validated matrices
_HERMITIAN_OP = 1e-9       # eigensolver rejects beyond this defect
_PSD_EIG_FLOOR = -1e-10    # eigenvalues above this are clamped to 0
_TRACE_ONE = 1e-10
_DISTRIBUTION = 1e-9

TENSOR_DIM_CAP = 1024      # largest materialized tensor-power dimension


def _as_complex_matrix(a) -> np.ndarray:
    mat = np.asarray(a, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {mat.shape}")
    return mat


def _adjoint_and_defect(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """The adjoint of a square complex matrix and its Hermitian defect;
    ``NumericalFailure`` on a non-finite entry."""
    if not np.all(np.isfinite(mat)):
        raise NumericalFailure("matrix has non-finite entries")
    adj = mat.conj().T
    return adj, float(np.max(np.abs(mat - adj))) if mat.size else 0.0


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


def fidelity(rho, sigma) -> float:
    """Squared Uhlmann fidelity ``||sqrt(rho) sqrt(sigma)||_1^2``.

    The trace norm is evaluated through the Hermitian product
    ``sqrt(rho) sigma sqrt(rho)``: its eigenvalues are the squared
    singular values of ``sqrt(rho) sqrt(sigma)``, so the trace norm is
    the sum of their square roots.  ``sqrt(rho)`` is the PSD square root
    from ``eig_psd``, so a ``rho`` below the PSD floor raises ``NotPSD``.
    Tiny negative eigenvalues (above the floor -1e-10) are clamped to zero,
    and so is rounding above 1 up to 1e-9; a larger excess (unnormalized
    input) raises ``NumericalFailure``.
    """
    a = _as_complex_matrix(rho)
    b = _as_complex_matrix(sigma)
    if a.shape != b.shape:
        raise DimMismatch(f"dimension mismatch: {a.shape} vs {b.shape}")
    w, v = eig_psd(a)
    ra = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    ra = 0.5 * (ra + ra.conj().T)
    prod = ra @ b @ ra
    w, _ = eig_hermitian(0.5 * (prod + prod.conj().T))
    # rounding noise below 1e-13 of the top eigenvalue is an exact zero of
    # the product; sqrt would otherwise amplify it to ~1e-7
    w[w < 1e-13 * max(float(w[-1]), 1e-30)] = 0.0
    val = float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)
    if val > 1.0 + 1e-9:
        raise NumericalFailure(f"fidelity {val!r} exceeds 1 by more than rounding")
    return min(max(val, 0.0), 1.0)


def tensor_power(rho, n: int) -> np.ndarray:
    """n-fold Kronecker power of a matrix, at most ``TENSOR_DIM_CAP`` in
    total dimension."""
    mat = _as_complex_matrix(rho)
    if n < 1 or int(n) != n:
        raise ValueError(f"copies must be a positive integer, got {n}")
    if mat.shape[0] ** n > TENSOR_DIM_CAP:
        raise CapExceeded(
            f"dim {mat.shape[0]}^{n} = {mat.shape[0] ** n} exceeds cap {TENSOR_DIM_CAP}"
        )
    out = mat
    for _ in range(int(n) - 1):
        out = np.kron(out, mat)
    return out


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
