"""The m-distillation norm: a semi-analytic scan and a checked bracket.

``mnorm`` evaluates the semi-analytic formula (sort, scan the split index
k, combine head l1 with tail l2).  Two oracles bracket it from opposite
sides, sharing only the sort with the scan; both read one exact
water-filling level (``waterfill_level``, a segment formula, no search):

* ``mnorm_dual_oracle`` is ``<v, w>`` at the feasible point
  ``w = min(1, v / l)`` of ``max <v, w> s.t. linf(w) <= 1, l2(w) = sqrt(m)``,
  a lower bound on the norm.
* ``mnorm_primal_oracle`` is ``l1(v - x) + sqrt(m) l2(x)`` at the point
  ``x = min(v, l)`` of its minimization over ``x >= 0``, an upper bound.

By weak duality the norm lies between the two; they meet to rounding,
which certifies both the level and the scan.

The scan works on the rows of a stack at once (sort along the last axis,
suffix sums of squares, an argmin over the split index); ``mnorm`` is its
one-row case, and ``pure_distillation_fidelity`` scores a whole stack of
states with one call.  ``class_distillation_fidelity`` runs the same scan
on a vector given as classes of equal entries (magnitude and multiplicity,
both in log space), in O(classes + m) whatever the vector's length.  For
non-integer ``m`` the scan's indexing is undefined, so ``mnorm`` returns
the dual oracle's value and reports no split index.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadM

__all__ = [
    "MNormResult",
    "class_distillation_fidelity",
    "mnorm",
    "mnorm_dual_oracle",
    "mnorm_primal_oracle",
    "pure_distillation_fidelity",
    "waterfill_level",
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


def _level(sorted_desc: np.ndarray, m: float) -> float:
    """Water-filling level of a descending vector; see ``waterfill_level``."""
    pos = sorted_desc[sorted_desc > 0.0]
    if pos.size <= m + _INTEGER_TOL:
        return 0.0  # every supported coordinate pins at 1
    # capped counts K < m; the last always qualifies, as m - K <= 1 there
    k = np.arange(math.ceil(m))
    suffix_sq = np.cumsum((pos * pos)[::-1])[::-1]
    levels = np.sqrt(suffix_sq[k] / (m - k))
    return float(levels[np.argmax(pos[k] <= levels)])


def waterfill_level(v, m: float) -> float:
    """Exact water-filling level l of the m-norm's dual for real m >= 1.

    The dual optimizer is w = min(1, |v| / l), with ||w||_2^2 = m.  If the
    K largest entries are capped, the rest give l = sqrt(S_K / (m - K)),
    S_K the sum of squares past them, and the norm is
    H_K + sqrt(S_K (m - K)), H_K their sum.  K is the first split whose
    next entry lies at or below its level.  When the support has at most
    m entries every supported weight pins at 1, and l is 0.
    """
    return _level(_prepared(v, m), float(m))


def _waterfill_value(sorted_desc: np.ndarray, m: float) -> float:
    """<v, w> at the dual point w = min(1, v / l), a lower bound on the norm."""
    pos = sorted_desc[sorted_desc > 0.0]
    lam = _level(sorted_desc, m)
    if lam == 0.0:
        return float(np.sum(pos))
    return float(np.dot(pos, np.minimum(1.0, pos / lam)))


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
    """Lower side of the bracket: <|v|, w> at the feasible dual point
    w = min(1, |v| / l) of max <|v|, w> s.t. linf(w) <= 1, l2(w) = sqrt(m)."""
    return _waterfill_value(_prepared(v, m), float(m))


def mnorm_primal_oracle(v, m: float) -> float:
    """Upper side of the bracket: l1(|v| - x) + sqrt(m) l2(x) at the point
    x = min(|v|, l) of its minimization over x >= 0, l the water-filling
    level.  It equals H_K + sqrt(S_K (m - K)) (see ``waterfill_level``)."""
    sorted_desc = _prepared(v, m)
    x = np.minimum(sorted_desc, _level(sorted_desc, float(m)))
    return float(np.sum(sorted_desc - x)) + math.sqrt(m) * math.sqrt(float(x @ x))


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
