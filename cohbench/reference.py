"""Reference values computed apart from the package under test.

Nothing here imports ``cohdist``: every check in the benchmark compares the
program's output with these plain formulas, so a fault in a shared helper
of the package cannot make a wrong answer look right.
"""

import math

import numpy as np


def mnorm_split(v, m: int) -> float:
    """m-distillation norm of |v| by brute force over the split index.

    For each split k (head of m-k entries at weight 1, tail weighted in
    proportion to its entries with squared budget k) the weight vector is
    admissible when no tail weight exceeds 1; the norm is the largest value
    over the admissible splits.
    """
    a = np.sort(np.abs(np.asarray(v, dtype=complex).ravel()))[::-1]
    if a.size < m:
        a = np.concatenate([a, np.zeros(m - a.size)])
    best = -math.inf
    for k in range(1, m + 1):
        j = m - k
        tail = a[j:]
        tail_l2 = math.sqrt(float(np.dot(tail, tail)))
        if math.sqrt(k) * float(a[j]) <= tail_l2 * (1.0 + 1e-12):
            best = max(best, float(np.sum(a[:j])) + math.sqrt(k) * tail_l2)
    return best


def fidelity_closed_form(diag, m: int) -> float:
    """Assisted fidelity (1/m) ||sqrt(diag)||_(m)^2; for m = 2 the formula
    1 if q <= 1/2 else 1/2 + sqrt(q (1 - q)) in the largest entry q."""
    p = np.clip(np.asarray(diag, dtype=float).ravel(), 0.0, None)
    if m == 1:
        return 1.0
    if m == 2:
        q = float(np.max(p))
        return 1.0 if q <= 0.5 else 0.5 + math.sqrt(q * (1.0 - q))
    val = mnorm_split(np.sqrt(p), m)
    return min(max(val * val / m, 0.0), 1.0)


def m_star(diag, eps: float) -> int:
    """Largest target dimension whose closed-form fidelity reaches 1 - eps."""
    best = 1
    for m in range(1, len(diag) + 1):
        if fidelity_closed_form(diag, m) >= 1.0 - eps - 1e-9:
            best = m
        else:
            break
    return best


def entropy_bits(p) -> float:
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def mixture(weights, atoms) -> np.ndarray:
    """sum_i w_i |a_i><a_i| from plain arrays."""
    a = np.asarray(atoms, dtype=complex)
    w = np.asarray(weights, dtype=float)
    return (a.T * w) @ a.conj()


def kron_power(mat, n: int) -> np.ndarray:
    out = mat
    for _ in range(n - 1):
        out = np.kron(out, mat)
    return out
