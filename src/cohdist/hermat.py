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
floor is -1e-10: one gate, in ``_psd_eig``, checks it, and rejects a NaN
eigenvalue too, and eigenvalues in ``[-1e-10, 0)`` count as zero.

A matrix is scanned once per validation: one pass checks its entries are
finite and forms the adjoint and the Hermitian defect, and the
eigensolver takes the Hermitian part 0.5 a + 0.5 a^dag from that same
adjoint.  Halves cannot overflow on finite entries, where 0.5 (a + a^dag)
can past about 9e307, and they give the same doubles above the subnormal
range.  ``require_density`` runs the density gates.  The callers that
also need the eigenpairs take them from the same scan: the same-diagonal
decomposition, the ensemble search and ``purify`` through
``_density_eig``, and the fidelity certificate through its two halves,
``_unit_trace`` and ``_psd_eig``, with its m-range check between them.
``stateio.parse_state`` runs its looser file gates on the same pieces.  So
no caller validates a matrix and then rescans it for the eigensolve.
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
    if not np.isfinite(mat).all():
        raise NumericalFailure("matrix has non-finite entries")
    adj = mat.conj().T
    return adj, 4.0 * float(np.abs(0.25 * mat - 0.25 * adj).max()) if mat.size else 0.0


def hermitian_defect(a) -> float:
    """Largest entrywise deviation |a_ij - conj(a_ji)|.

    A non-finite entry raises ``NumericalFailure``, since a NaN defect
    would pass every ``defect > tol`` gate.
    """
    return _adjoint_and_defect(_as_complex_matrix(a))[1]


def _hermitian(a, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``a`` as a square complex128 matrix and its adjoint, from the one
    scan of its entries: ``NumericalFailure`` on a non-finite entry,
    ``NonHermitian`` on a defect above ``tol``."""
    mat = _as_complex_matrix(a)
    adj, defect = _adjoint_and_defect(mat)
    if defect > tol:
        raise NonHermitian(f"Hermitian defect {defect:.3e} exceeds {tol:.0e}")
    return mat, adj


def _eigh(mat: np.ndarray, adj: np.ndarray):
    """LAPACK's eigenpairs of the Hermitian part 0.5 a + 0.5 a^dag, whose
    halves, unlike 0.5 (a + a^dag), cannot overflow on finite entries;
    ``NumericalFailure`` if the solver does not converge."""
    try:
        return np.linalg.eigh(0.5 * mat + 0.5 * adj)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition did not converge: {exc}") from exc


def _psd_eig(mat: np.ndarray, adj: np.ndarray):
    """``_eigh`` behind the PSD gate, the package's one check of the floor:
    ``NotPSD`` unless the smallest eigenvalue is at least -1e-10, so a NaN
    eigenvalue fails it too."""
    w, v = _eigh(mat, adj)
    if not w[0] >= _PSD_EIG_FLOOR:
        raise NotPSD(f"minimum eigenvalue {w[0]:.3e} below {_PSD_EIG_FLOOR:.0e}")
    return w, v


def _unit_trace(rho) -> tuple[np.ndarray, np.ndarray]:
    """``rho`` as a complex128 matrix and its adjoint, through the one scan
    of its entries (Hermitian to 1e-12 entrywise) and the trace gate."""
    mat, adj = _hermitian(rho, _HERMITIAN_ENTRY)
    tr = mat.trace()
    if abs(tr - 1.0) > _TRACE_ONE:
        raise NotDistribution(f"trace {tr} is not 1 within {_TRACE_ONE:.0e}")
    return mat, adj


def _density_eig(rho):
    """``require_density`` with its PSD check, returning ``(rho, w, v)``:
    the validated matrix and the eigenpairs ``eig_psd`` would give, from
    the same one scan of the entries."""
    mat, adj = _unit_trace(rho)
    return (mat, *_psd_eig(mat, adj))


def require_density(rho, *, check_psd: bool = True) -> np.ndarray:
    """Validate a density matrix and return it as complex128.

    One scan of the entries checks finiteness and Hermiticity to 1e-12
    entrywise (a non-finite entry raises ``NumericalFailure``), then unit
    trace, and (optionally, since it costs an eigendecomposition) positive
    semidefiniteness: the eigensolve of 0.5 rho + 0.5 rho^dag reuses the
    scan's adjoint, and its smallest eigenvalue must pass the PSD floor.
    Callers that need the eigenpairs take them from ``_density_eig``, which
    runs the same gates once.
    """
    return _density_eig(rho)[0] if check_psd else _unit_trace(rho)[0]


def eig_hermitian(mat):
    """Eigendecomposition of a Hermitian matrix by LAPACK (``numpy.linalg.eigh``).

    The matrix is symmetrized as ``0.5 * a + 0.5 * a^dag`` before the
    solve, which stays finite for any finite entries.  Returns ``(w, v)``
    with eigenvalues ``w`` ascending and unitary ``v`` such that
    ``mat = v @ diag(w) @ v.conj().T``.  No ordering guarantee among
    numerically equal eigenvalues.

    Raises
    ------
    NumericalFailure
        if the matrix has a non-finite entry, or LAPACK fails to converge.
    NonHermitian
        if the entrywise symmetry defect exceeds 1e-9.
    """
    return _eigh(*_hermitian(mat, _HERMITIAN_OP))


def eig_psd(mat):
    """``eig_hermitian`` followed by the PSD gate: raises ``NotPSD`` if the
    smallest eigenvalue is below -1e-10 or is NaN.  Eigenvalues in
    ``[-1e-10, 0)`` are returned as computed; callers clamp them to zero."""
    return _psd_eig(*_hermitian(mat, _HERMITIAN_OP))


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
