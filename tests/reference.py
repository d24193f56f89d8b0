"""Materialized references the closed forms are tested against: the
Uhlmann fidelity of two density matrices and the n-fold Kronecker power of
a matrix.  Neither is part of the package, which reads n copies from the
base diagonal and never needs a fidelity of two general states."""

from functools import reduce

import numpy as np

from cohdist.errors import DimMismatch, NumericalFailure
from cohdist.hermat import eig_hermitian, eig_psd


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
    a = np.asarray(rho, dtype=np.complex128)
    b = np.asarray(sigma, dtype=np.complex128)
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
    """n-fold Kronecker power of a matrix, folded left to right,
    ((rho (x) rho) (x) rho) ..., the order whose diagonal products
    ``distill`` reproduces bit for bit."""
    return reduce(np.kron, [np.asarray(rho, dtype=np.complex128)] * n)
