"""Dense complex-Hermitian linear algebra primitives.

All higher-level quantities in the package reduce to the handful of
operations here: dephasing, Hermitian eigendecomposition (LAPACK through
``numpy.linalg.eigh``), PSD square roots, Uhlmann fidelity, tensor powers,
Shannon entropy and the diagonal-root vector.

Matrices and vectors are plain ``numpy`` arrays (complex128).  Validators
raise the typed errors from :mod:`cohdist.errors`.  The validation gates
live here and nowhere else: a validated matrix is Hermitian to 1e-12
entrywise with trace 1 to 1e-10, the eigensolver rejects a Hermitian
defect above 1e-9, a probability vector sums to 1 to 1e-9, and the PSD
floor is -1e-10: ``eig_psd`` is the one check of it, and eigenvalues in
``[-1e-10, 0)`` count as zero.  ``TENSOR_DIM_CAP`` (1024) is the default
cap on a materialized tensor-power dimension.
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
    "dephase",
    "delta_vector",
    "eig_hermitian",
    "eig_psd",
    "fidelity",
    "hermitian_defect",
    "maximally_coherent",
    "random_density",
    "random_statevector",
    "require_density",
    "shannon_entropy",
    "sqrtm_psd",
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


def hermitian_defect(a) -> float:
    """Largest entrywise deviation |a_ij - conj(a_ji)|.

    A non-finite entry raises ``NumericalFailure``, since a NaN defect
    would pass every ``defect > tol`` gate.
    """
    mat = _as_complex_matrix(a)
    if not np.all(np.isfinite(mat)):
        raise NumericalFailure("matrix has non-finite entries")
    return float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0


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


def dephase(rho) -> np.ndarray:
    """Zero all off-diagonal entries (the fully dephasing channel)."""
    mat = _as_complex_matrix(rho)
    return np.diag(np.diag(mat).real).astype(np.complex128)


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
    defect = hermitian_defect(a)
    if defect > _HERMITIAN_OP:
        raise NonHermitian(f"Hermitian defect {defect:.3e} exceeds {_HERMITIAN_OP:.0e}")
    try:
        return np.linalg.eigh(0.5 * (a + a.conj().T))
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


def sqrtm_psd(mat) -> np.ndarray:
    """Hermitian PSD square root.

    Eigenvalues inside ``[-1e-10, 0)`` are clamped to zero; anything more
    negative raises ``NotPSD`` (``eig_psd``).
    """
    w, v = eig_psd(mat)
    root = np.sqrt(np.clip(w, 0.0, None))
    s = (v * root) @ v.conj().T
    return 0.5 * (s + s.conj().T)


def fidelity(rho, sigma) -> float:
    """Squared Uhlmann fidelity ``||sqrt(rho) sqrt(sigma)||_1^2``.

    The trace norm is evaluated through the Hermitian product
    ``sqrt(rho) sigma sqrt(rho)``: its eigenvalues are the squared
    singular values of ``sqrt(rho) sqrt(sigma)``, so the trace norm is
    the sum of their square roots.  Tiny negative eigenvalues (above the
    PSD floor -1e-10) are clamped to zero, and so is rounding above 1
    up to 1e-9; a larger excess (unnormalized input) raises
    ``NumericalFailure``.
    """
    a = _as_complex_matrix(rho)
    b = _as_complex_matrix(sigma)
    if a.shape != b.shape:
        raise DimMismatch(f"dimension mismatch: {a.shape} vs {b.shape}")
    ra = sqrtm_psd(a)
    prod = ra @ b @ ra
    w, _ = eig_hermitian(0.5 * (prod + prod.conj().T))
    # rounding noise below 1e-13 of the top eigenvalue is an exact zero of
    # the product; sqrt would otherwise amplify it to ~1e-7
    w[w < 1e-13 * max(float(w[-1]), 1e-30)] = 0.0
    val = float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)
    if val > 1.0 + 1e-9:
        raise NumericalFailure(f"fidelity {val!r} exceeds 1 by more than rounding")
    return min(max(val, 0.0), 1.0)


def tensor_power(rho, n: int, *, cap: int | None = None) -> np.ndarray:
    """n-fold Kronecker power of a matrix, capped at ``cap`` total dimension
    (default ``TENSOR_DIM_CAP``)."""
    mat = _as_complex_matrix(rho)
    if n < 1 or int(n) != n:
        raise ValueError(f"copies must be a positive integer, got {n}")
    limit = TENSOR_DIM_CAP if cap is None else cap
    if mat.shape[0] ** n > limit:
        raise CapExceeded(
            f"dim {mat.shape[0]}^{n} = {mat.shape[0] ** n} exceeds cap {limit}"
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


def delta_vector(rho) -> np.ndarray:
    """Entrywise square roots of the diagonal; real nonnegative, unit l2 norm."""
    mat = _as_complex_matrix(rho)
    d = np.clip(np.diag(mat).real, 0.0, None)
    return np.sqrt(d)


def maximally_coherent(m: int, dim: int | None = None) -> np.ndarray:
    """Uniform superposition of the first ``m`` basis states (dimension ``dim``)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    d = m if dim is None else dim
    if d < m:
        raise DimMismatch(f"dim {d} smaller than m {m}")
    vec = np.zeros(d, dtype=np.complex128)
    vec[:m] = 1.0 / np.sqrt(m)
    return vec


def random_statevector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state vector."""
    g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return g / np.linalg.norm(g)


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random density matrix from a normalized Ginibre product G G^dag."""
    r = dim if rank is None else rank
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)
