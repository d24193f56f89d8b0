"""The m-distillation norm: one water-filling evaluator and a checked bracket.

Every value of the norm here comes from one evaluator, ``_waterfill``,
whatever its input: a vector, a stack of vectors or a vector given by
classes of equal entries.  It reads rows of classes in descending order
of magnitude a_j, each by its l1 mass c_j a_j and squared mass c_j a_j^2,
with the multiplicities c_j, and solves the norm's dual

    max <|v|, w>  s.t.  linf(w) <= 1,  l2(w) = sqrt(m)

by water filling.  With K_j the number of entries before class j, H_j
their l1 sum and S_j the squared mass from class j onwards, the optimum
caps the entries before the first class with a_j^2 (m - K_j) <= S_j at
w = 1 and sets the rest to w = a / l at the level l = sqrt(S_j / (m - K_j));
the norm is H_j + sqrt(S_j (m - K_j)).  Within a class of magnitude a the
test reads a^2 (m - K_j - c_j) <= S_(j+1) however many of its entries are
capped, so the split falls on a class boundary.  A zero class after the
last covers a support of at most m entries (then S_j = 0 and the norm is
the l1 norm), so nothing is padded to m entries and the cost is
O(classes) per row for any real m >= 1.  The evaluator reads m as a
double: an m below 1, past the largest double (about 1.8e308) or not a
number raises ``BadM``.

A plain vector is the case c_j = 1 and a stack is more rows: ``mnorm``,
``waterfill_level`` and ``pure_distillation_fidelity`` sort magnitudes
and call the evaluator with one row of counts shared by every row.
``_class_fidelity`` hands it rows of classes with counts of their own,
capped at m: the stack ``distill`` builds of tensor powers' type classes
and plain vectors, rows of fewer classes ending in zero classes, which
change no row's value.

The same classes give the level, the largest integer m whose fidelity
F(m) = norm^2 / m reaches a threshold t, with no search over m.  Split j
holds for m up to B_j = K_(j+1) + S_(j+1) / a_j^2, so the m axis falls
into segments on which F(m) = (H_j + sqrt(S_j (m - K_j)))^2 / m (the
fidelity of Regula, Fang, Wang and Adesso, PRL 121, 010401 (2018)).  F
does not increase with m, so the crossing lies in the first segment whose
end fails t, and there F(m) = t is a quadratic in sqrt(m - K_j).
``_class_level`` tests every segment end of one row in one pass, from
the prefix sums, and returns the floor of that root.

Two oracles bracket the norm from opposite sides:

* ``mnorm_dual_oracle`` is ``<v, w>`` at the feasible dual point
  ``w = min(1, v / l)``, that is H_j + S_j / l, the evaluator's value: a
  lower bound on the norm.
* ``mnorm_primal_oracle`` is ``l1(v - x) + sqrt(m) l2(x)`` at the point
  ``x = min(v, l)`` of its minimization over ``x >= 0``, summed apart from
  the evaluator: an upper bound.

By weak duality the norm lies between the two; they meet to rounding,
which certifies the level and the value.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BadM

__all__ = [
    "MNormResult",
    "mnorm",
    "mnorm_dual_oracle",
    "mnorm_primal_oracle",
    "pure_distillation_fidelity",
    "waterfill_level",
]

_INTEGER_TOL = 1e-9


@dataclass(frozen=True)
class MNormResult:
    """Value of the m-distillation norm."""

    value: float


def _waterfill(l1, masses, counts, m):
    """Water filling over the rows (last axis) of a stack of classes.

    Each row lists its classes in descending order of magnitude a, by l1
    mass c a in ``l1`` and squared mass c a^2 in ``masses``; ``counts``
    holds the multiplicities c, either shared by every row (one axis) or
    one row of them per row (the shape of ``l1``).  Returns, per row, the
    norm H + sqrt(m - K) sqrt(S) at the first class boundary K with
    a^2 (m - K) <= S, the squared mass S past it and the room m - K > 0.
    Zero-mass classes after a row's last class change none of the three:
    the split stops at the first of them, as at the zero class the
    evaluator appends.
    """
    shape, c = l1.shape[:-1], l1.shape[-1]
    starts = np.zeros(counts.shape[:-1] + (c + 1,))
    np.add.accumulate(counts, axis=-1, out=starts[..., 1:])
    # squared mass from each boundary on and l1 sum before it, for the c
    # classes and the zero class after them
    tail, head = cols = np.zeros((2,) + shape + (c + 1,))
    np.add.accumulate(masses[..., ::-1], axis=-1, out=tail[..., -2::-1])
    np.add.accumulate(l1, axis=-1, out=head[..., 1:])
    # the test at class j's start, in its equivalent form at the class's
    # end, a_j^2 (m - K_(j+1)) <= S_(j+1): for the class that reaches m the
    # left side is <= 0, so the split never passes it, whatever the rounding
    split = np.ones(shape + (c + 1,), dtype=bool)
    np.less_equal(masses * ((m - starts[..., 1:]) / counts), tail[..., 1:], out=split[..., :c])
    j = split.argmax(axis=-1)
    at = j.ravel() + np.arange(0, j.size * (c + 1), c + 1)
    tail, head = cols.reshape(2, -1)[:, at]
    start = starts[j] if starts.ndim == 1 else starts.reshape(-1)[at].reshape(shape)
    tail, room = tail.reshape(shape), m - start
    return head.reshape(shape) + np.sqrt(room) * np.sqrt(tail), tail, room


def _vector_waterfill(v, m):
    """Magnitudes of ``v`` sorted in descending order along the last axis,
    and the evaluator's value, tail mass and room on each row.  Real input
    skips the complex copy: |x + 0i| = |x|."""
    v = np.asarray(v)
    a = np.abs(v.astype(np.complex128 if np.iscomplexobj(v) else float, copy=False))
    if a.shape[-1] == 0:
        raise BadM("empty vector")
    a.sort(axis=-1)
    a = a[..., ::-1]
    return (a, *_waterfill(a, a * a, np.ones(a.shape[-1]), m))


def _bad_m(kind: str, m) -> BadM:
    # an m past the largest double is not printed: str() of an int of more
    # than 4300 digits raises ValueError
    got = "a value past it" if m > sys.float_info.max else m
    return BadM(f"m must be {kind} from 1 to the largest double, got {got}")


def _real_m(m) -> float:
    """``m`` as a double; ``BadM`` unless 1 <= m <= the largest double."""
    if not 1.0 <= m <= sys.float_info.max:
        raise _bad_m("a real number", m)
    return float(m)


def _dual_level(v, m):
    """Sorted magnitudes of ``v`` and the water-filling level; see
    ``waterfill_level``."""
    a, _, tail, room = _vector_waterfill(np.ravel(v), _real_m(m))
    # a support of at most m entries is pinned at 1 by any level up to its
    # smallest entry; the evaluator may split at such an entry on a tie
    return a, 0.0 if np.count_nonzero(a) <= m + _INTEGER_TOL else math.sqrt(tail / room)


def waterfill_level(v, m: float) -> float:
    """Exact water-filling level l of the m-norm's dual for real m >= 1.

    The dual optimizer is w = min(1, |v| / l), with ||w||_2^2 = m.  If the
    K largest entries are capped, the rest give l = sqrt(S_K / (m - K)),
    S_K the sum of squares past them, and the norm is
    H_K + sqrt(S_K (m - K)), H_K their sum.  K is the first split whose
    next entry lies at or below its level.  When the support has at most
    m entries every supported weight pins at 1, and l is 0.
    """
    return _dual_level(v, m)[1]


def mnorm(v, m: float) -> MNormResult:
    """m-distillation norm of the entrywise magnitudes of ``v``, from the
    water-filling evaluator at any real m >= 1 (an ``m`` within 1e-9 of an
    integer counts as that integer)."""
    m = _real_m(m)
    if abs(m - round(m)) <= _INTEGER_TOL * max(1.0, m):
        m = round(m)
    return MNormResult(value=float(_vector_waterfill(np.ravel(v), m)[1]))


def mnorm_dual_oracle(v, m: float) -> float:
    """Lower side of the bracket: <|v|, w> at the feasible dual point
    w = min(1, |v| / l) of max <|v|, w> s.t. linf(w) <= 1, l2(w) = sqrt(m),
    which is H_K + S_K / l = H_K + sqrt(S_K (m - K)) (see
    ``waterfill_level``)."""
    return float(_vector_waterfill(np.ravel(v), _real_m(m))[1])


def mnorm_primal_oracle(v, m: float) -> float:
    """Upper side of the bracket: l1(|v| - x) + sqrt(m) l2(x) at the point
    x = min(|v|, l) of its minimization over x >= 0, l the water-filling
    level.  It equals H_K + sqrt(S_K (m - K)) (see ``waterfill_level``)."""
    sorted_desc, level = _dual_level(v, m)
    x = np.minimum(sorted_desc, level)
    return float(np.sum(sorted_desc - x)) + math.sqrt(m) * math.sqrt(float(x @ x))


def _integer_m(m) -> int:
    """``m`` as an int; ``BadM`` unless it is within 1e-9 of an integer
    from 1 to the largest double."""
    if not 1 <= m <= sys.float_info.max or abs(m - round(m)) > _INTEGER_TOL:
        raise _bad_m("an integer", m)
    return int(round(m))


def _snapped_fidelity(value, m: int):
    fid = value * value / m
    return np.where(np.abs(fid - 1.0) <= 1e-12, 1.0, np.minimum(np.maximum(fid, 0.0), 1.0))


def pure_distillation_fidelity(psi, m: int):
    """Best fidelity for distilling an m-level maximally coherent state
    from the pure state ``psi``: (1/m) * mnorm(|psi|, m)^2, in [0, 1].

    ``psi`` may also be a stack of states along the last axis; the result
    is then one fidelity per state, from one call of the evaluator.
    """
    m = _integer_m(m)
    fid = _snapped_fidelity(_vector_waterfill(np.atleast_1d(psi), m)[1], m)
    return float(fid) if np.ndim(psi) <= 1 else fid


def _class_fidelity(mags, masses, log_counts, m):
    """Fidelity of each row of a stack of classes, descending per row:
    class j of a row holds exp(log_counts[j]) entries of magnitude
    mags[j], with squared mass masses[j] (their count times the square).

    Counts are capped at m before they are recovered from their logs by
    rounding: the split comes before m entries, so larger counts only
    place boundaries that are never reached.  O(classes) per row, whatever
    m is.  Rows may end in zero classes (zero magnitude, zero mass, any
    count) to share one width.
    """
    m = _integer_m(m)
    counts = np.rint(np.exp(np.minimum(log_counts, math.log(m))))
    return _snapped_fidelity(_waterfill(counts * mags, masses, counts, m)[0], m)


def _class_level(mags, masses, log_counts, dim: int, t: float) -> int:
    """The largest integer m <= ``dim`` whose ``_class_fidelity`` on one row
    of classes reaches ``t``, in one pass over the classes.

    Split j holds for every m up to B_j = K_(j+1) + S_(j+1) / a_j^2 (a zero
    class for every m), and the B_j do not decrease with j, so on segment j
    of the m axis, from B_(j-1) to B_j, F(m) = (H_j + sqrt(S_j (m - K_j)))^2 / m.
    F does not increase with m, so the level lies in the first segment
    whose end fails t or reaches ``dim``.  Neither test divides:
    a_j^2 B_j = a_j^2 K_(j+1) + S_(j+1), and segment j + 1's form at its
    start gives a_j^2 B_j F(B_j) = (a_j H_(j+1) + S_(j+1))^2.  The level is
    ``dim`` if segment j's form passes at ``dim`` (past a failing end that
    form stays below t).  Otherwise F(m) = t is a quadratic in
    x = sqrt(m - K_j) with the root
    x = (H sqrt(S) + sqrt(t (H^2 - (t - S) K))) / (t - S), where t > S since
    F exceeds S inside segment j, and the level is floor(K + x^2).
    """
    counts = np.rint(np.exp(log_counts))
    # K_j and H_j before class j and S_j from it on, for the classes and the
    # zero class after them
    starts, head, tail = np.zeros((3, mags.size + 1))
    np.cumsum(counts, out=starts[1:])
    np.cumsum(counts * mags, out=head[1:])
    np.cumsum(masses[::-1], out=tail[-2::-1])
    # F(B_j) < t and B_j >= dim, each multiplied through by a_j^2
    square, k1, h1, s1 = mags * mags, starts[1:], head[1:], tail[1:]
    stop = ((mags * h1 + s1) ** 2 < t * (square * k1 + s1)) | (square * (dim - k1) <= s1)
    j = int(np.argmax(stop)) if stop.any() else mags.size
    k, h, s = float(starts[j]), float(head[j]), float(tail[j])
    if (h + math.sqrt(s * (dim - k))) ** 2 >= t * dim:
        return dim
    x = (h * math.sqrt(s) + math.sqrt(max(t * (h * h - (t - s) * k), 0.0))) / (t - s)
    return math.floor(k + x * x)
