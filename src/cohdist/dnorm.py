"""The m-distillation norm in three independent forms.

``mnorm`` evaluates the semi-analytic formula (sort, scan the split index
k, combine head l1 with tail l2).  Two oracles check it from opposite
directions without sharing any code path with the scan:

* ``mnorm_dual_oracle`` maximizes ``<v, w>`` over the capped sphere
  ``linf(w) <= 1, l2(w) = sqrt(m)`` by bisecting the water-filling level.
* ``mnorm_primal_oracle`` minimizes ``l1(v - x) + sqrt(m) l2(x)`` by
  Douglas-Rachford splitting on the two proximable terms.

The scan works on the rows of a stack at once (sort along the last axis,
suffix sums of squares, an argmin over the split index); ``mnorm`` is its
one-row case, and ``pure_distillation_fidelity`` scores a whole stack of
states with one call.  ``class_distillation_fidelity`` runs the same scan
on a vector given as classes of equal entries (magnitude and multiplicity,
both in log space), in O(classes + m) whatever the vector's length.  For
non-integer ``m`` the scan's indexing is undefined, so ``mnorm`` evaluates
the dual characterization directly and reports no split index.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadM, ConvergenceFailure

__all__ = [
    "MNormResult",
    "class_distillation_fidelity",
    "mnorm",
    "mnorm_dual_oracle",
    "mnorm_primal_oracle",
    "pure_distillation_fidelity",
]

_INTEGER_TOL = 1e-9


@dataclass(frozen=True)
class MNormResult:
    """Value of the m-distillation norm together with the scan diagnostics.

    ``k_star`` is the minimizing split index (None when m is not an
    integer); ``sorted_vector`` holds the entry magnitudes in descending
    order, zero-padded to ceil(m) entries when m exceeds the dimension.
    """

    value: float
    k_star: int | None
    sorted_vector: np.ndarray


def _sorted_rows(mags: np.ndarray, m) -> np.ndarray:
    """Magnitudes sorted in descending order along the last axis, zero-padded
    to ceil(m) entries when m exceeds the row length."""
    if mags.shape[-1] == 0:
        raise BadM("empty vector")
    target = int(np.ceil(m - _INTEGER_TOL))
    if target > mags.shape[-1]:
        pad = np.zeros(mags.shape[:-1] + (target - mags.shape[-1],))
        mags = np.concatenate([mags, pad], axis=-1)
    return np.sort(mags, axis=-1)[..., ::-1]


def _prepared(v, m) -> np.ndarray:
    if not np.isfinite(m) or m < 1.0:
        raise BadM(f"m must be >= 1, got {m}")
    return _sorted_rows(np.abs(np.asarray(v, dtype=np.complex128).ravel()), m)


def _scan_integer(sorted_desc: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Split-index scan over the rows (last axis) of a descending stack.

    For each split k in 1..m the candidate is head l1 of the first m - k
    entries plus sqrt(k) times the l2 norm of the rest; k_star minimizes
    tail_l2 / sqrt(k).  Returns the values and k_star, one per row.
    """
    rows = sorted_desc.reshape(-1, sorted_desc.shape[-1])
    r = np.arange(rows.shape[0])
    # suffix_sq[:, i] = sum of squares of entries i..end, summed from the end
    sq = rows * rows
    suffix_sq = np.cumsum(sq[:, ::-1], axis=1)[:, ::-1]
    ks = np.arange(1, m + 1)
    tail_l2 = np.sqrt(np.maximum(suffix_sq[:, m - ks], 0.0))
    j = np.argmin(tail_l2 / np.sqrt(ks), axis=1)
    k_star = ks[j]
    # head_l1 = sum of the first m - k_star entries, summed in order (none at k_star = m)
    head = np.cumsum(rows[:, :m], axis=1)
    head_l1 = np.where(k_star < m, head[r, m - k_star - 1], 0.0)
    value = head_l1 + np.sqrt(k_star) * tail_l2[r, j]
    shape = sorted_desc.shape[:-1]
    return value.reshape(shape), k_star.reshape(shape)


def _waterfill_value(sorted_desc: np.ndarray, m: float) -> float:
    """Exact maximum of <v, w> over 0 <= w <= 1, ||w||_2^2 = m.

    The optimizer is w_i = min(1, v_i / lam) on the support of v, with the
    level lam fixed by the budget; coordinates with v_i = 0 absorb any
    remaining budget without affecting the value.
    """
    v = sorted_desc
    pos = v[v > 0.0]
    if pos.size <= m + _INTEGER_TOL:
        return float(np.sum(pos))  # every supported coordinate pins at 1

    def budget(lam: float) -> float:
        w = np.minimum(1.0, pos / lam)
        return float(np.sum(w * w))

    lo = 0.0
    hi = float(np.max(pos))
    while budget(hi) > m:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= 0.0:
            break
        if budget(mid) > m:
            lo = mid
        else:
            hi = mid
    lam = hi
    w = np.minimum(1.0, pos / lam)
    return float(np.dot(pos, w))


def mnorm(v, m: float) -> MNormResult:
    """m-distillation norm of the entrywise magnitudes of ``v``.

    Integer ``m`` uses the semi-analytic split-index scan; non-integer
    ``m`` is evaluated through the dual characterization (water filling)
    and carries ``k_star=None``.
    """
    sorted_desc = _prepared(v, m)
    m_round = round(m)
    if abs(m - m_round) <= _INTEGER_TOL * max(1.0, abs(m)):
        value, k_star = _scan_integer(sorted_desc, int(m_round))
        return MNormResult(value=float(value), k_star=int(k_star), sorted_vector=sorted_desc)
    value = _waterfill_value(sorted_desc, float(m))
    return MNormResult(value=value, k_star=None, sorted_vector=sorted_desc)


def mnorm_dual_oracle(v, m: float) -> float:
    """Dual evaluation: max <v, w> s.t. linf(w) <= 1, l2(w) = sqrt(m)."""
    sorted_desc = _prepared(v, m)
    return _waterfill_value(sorted_desc, float(m))


def _douglas_rachford(v, sqrt_m, z0, iters, step):
    """DR splitting on f(x) = l1(v - x) + sqrt_m * l2(x) + indicator(x >= 0).

    Returns ``(best_value, best_x, converged)``; a converged run has hit
    its fixed point, which for this convex objective is the global minimum.
    """
    z = z0.copy()
    zero = np.zeros_like(v)
    best_x = zero
    best = float(np.abs(v).sum())
    converged = False
    shrink = step * sqrt_m
    for _ in range(iters):
        # x = prox of sqrt_m * l2 + indicator(x >= 0) at z
        zp = np.maximum(z, 0.0)
        nz = math.sqrt(zp @ zp)
        x = zero if nz <= shrink else (1.0 - shrink / nz) * zp
        # y = prox of l1(v - .) at the reflection 2x - z: soft threshold around v
        u = v - (2.0 * x - z)
        y = v - np.copysign(np.maximum(np.abs(u) - step, 0.0), u)
        r = y - x
        z += r
        fx = float(np.abs(v - x).sum()) + sqrt_m * math.sqrt(x @ x)
        if fx < best:
            best = fx
            best_x = x
        if np.abs(r).max() < 1e-15:
            converged = True
            break
    return best, best_x, converged


def mnorm_primal_oracle(v, m: float, *, restarts: int = 5, iters: int = 4000,
                        seed: int = 0) -> float:
    """Primal evaluation: min over x >= 0 of l1(v - x) + sqrt(m) l2(x).

    Runs Douglas-Rachford splitting from a deterministic start plus a few
    random restarts.  Raises ``ConvergenceFailure`` if the gap to the
    semi-analytic value is still above 1e-5 afterwards.
    """
    sorted_desc = _prepared(v, m)
    sqrt_m = float(np.sqrt(m))
    # the splitting converges for any step, at a geometry-dependent rate; a
    # small ladder of steps covers the slow regimes
    scale = max(1.0, float(np.max(sorted_desc)))
    steps = (0.05 * scale, 0.2 * scale, 0.8 * scale)
    rng = np.random.Generator(np.random.Philox(key=seed))
    best = np.inf
    done = False
    for step in steps:
        val, _, done = _douglas_rachford(sorted_desc, sqrt_m, sorted_desc.copy(), iters, step)
        best = min(best, val)
        if done:
            break
    if not done:
        for i in range(max(0, restarts - 1)):
            z0 = np.abs(rng.standard_normal(sorted_desc.size)) * scale
            val, _, done = _douglas_rachford(sorted_desc, sqrt_m, z0, iters, steps[i % len(steps)])
            best = min(best, val)
            if done:
                break
    reference = mnorm(sorted_desc, m).value
    if abs(best - reference) > 1e-5:
        raise ConvergenceFailure(
            f"primal minimization gap {abs(best - reference):.3e} above 1e-5 "
            f"after {restarts} restarts"
        )
    return best


def _integer_m(m) -> int:
    if m < 1 or abs(m - round(m)) > _INTEGER_TOL:
        raise BadM(f"m must be a positive integer, got {m}")
    return int(round(m))


def _snapped_fidelity(value, m: int):
    fid = value * value / m
    return np.where(np.abs(fid - 1.0) <= 1e-12, 1.0, np.minimum(np.maximum(fid, 0.0), 1.0))


def pure_distillation_fidelity(psi, m: int):
    """Best fidelity for distilling an m-level maximally coherent state
    from the pure state ``psi``: (1/m) * mnorm(|psi|, m)^2, in [0, 1].

    ``psi`` may also be a stack of states along the last axis; the result
    is then one fidelity per state, from one row-batched scan.
    """
    m = _integer_m(m)
    # the magnitudes go straight into the sort, so no copy of them stays
    # alive through the scan
    sorted_desc = _sorted_rows(np.atleast_1d(np.abs(np.asarray(psi, dtype=np.complex128))), m)
    value, _ = _scan_integer(sorted_desc, m)
    fid = _snapped_fidelity(value, m)
    return float(fid) if np.ndim(psi) <= 1 else fid


def class_distillation_fidelity(log_mags, log_counts, m: int) -> float:
    """``pure_distillation_fidelity`` of a vector given by classes of equal
    entries: class j holds exp(log_counts[j]) entries of magnitude
    exp(log_mags[j]), with ``log_mags`` descending; the vector is
    zero-padded to m entries.

    The scan of ``_scan_integer`` needs only the first m sorted entries and
    the sum of squares from each of them to the end.  The class of each of
    those positions gives the head l1 sums; the squares are summed in log
    space, class by class from the smallest up, so counts and magnitudes
    far outside the float range (n in the thousands for a tensor power's
    diagonal) neither overflow nor underflow.  O(classes + m).
    """
    m = _integer_m(m)
    mags = np.asarray(log_mags, dtype=float)
    logc = np.asarray(log_counts, dtype=float)
    if mags.size == 0:
        return 0.0
    # log of the squared mass in each class, and in all the classes after it
    mass = logc + 2.0 * mags
    after = np.append(np.logaddexp.accumulate(mass[::-1])[::-1][1:], -np.inf)
    # only the first m positions are scanned, so counts above m are capped;
    # counts up to m are integers, recovered exactly from their logs
    capped = np.exp(np.minimum(logc, math.log(m) + 1.0))
    big = capped > m
    counts = np.where(big, m, np.rint(capped)).astype(np.int64)
    ends = np.cumsum(counts)
    pos = np.arange(m)
    cls = np.searchsorted(ends, pos, side="right")
    inside = cls < mags.size   # positions past every class are zero padding
    cls[~inside] = mags.size - 1
    offset = pos - (ends[cls] - counts[cls])
    # log of the number of entries of the position's class from it onwards
    log_left = np.log(np.maximum(counts[cls] - offset, 1))
    b = big[cls]
    lc = logc[cls][b]
    log_left[b] = lc + np.log1p(-offset[b] * np.exp(-lc))
    log_suffix = np.where(inside, np.logaddexp(2.0 * mags[cls] + log_left, after[cls]), -np.inf)
    ks = np.arange(1, m + 1)
    k_star = int(np.argmin(0.5 * (log_suffix[m - ks] - np.log(ks)))) + 1
    head = slice(0, m - k_star)
    head_l1 = float(np.sum(np.exp(mags[cls[head]]), where=inside[head]))
    value = head_l1 + math.sqrt(k_star) * math.exp(0.5 * log_suffix[m - k_star])
    return float(_snapped_fidelity(value, m))
