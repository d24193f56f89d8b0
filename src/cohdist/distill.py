"""Distillation quantities assembled from the norm and ensemble layers.

Everything here quantifies how well a maximally coherent state of a target
dimension ``m`` can be extracted from a state with the help of a party
holding a purification: the closed-form fidelity bound (exact in dimension
2 and 3, and for tensor powers of such states), which equals its SDP
counterpart over diagonal-capped states in every dimension, the
one-shot / zero-error rates it induces, the convex-roof quantity governing
the exact rate, and the coherence of assistance.  The SDP is not solved
iteratively: ``fidelity_certificate`` writes down its optimal primal and
dual points and checks their residuals and gap to 1e-12, an independent
check of the closed form (``assisted_fidelity_sdp`` returns its value).

The closed forms read a state only through its diagonal, and n copies
only through the n-fold power of that diagonal.  They take the base state
and a ``copies`` count and never form the d^n x d^n matrix.  One builder,
``_power_classes``, turns the powers of a stack of diagonals, each with
its own n, into rows of classes of equal entries: a single state is a
stack of one, and a ``figure`` curve is one stack of all its (n, p)
points.  ``dnorm._class_fidelity`` evaluates those rows at any m, all
rows in one water-filling call, and ``dnorm._class_level`` reads a row's
level m* off them in one pass; nothing built grows with m.  At n = 1 a
row holds the diagonal itself, which reproduces the matrix path bit for
bit, and a single entry p holds p^n at any n.  At every other n >= 2 it
holds the power's types: the C(n+d-1, d-1) distinct products
prod_i p_i^k_i with their multinomial multiplicities (sums of logs of
exact binomials, so no large logs cancel), formed in log space for every
such row at once.  That costs O(classes)
instead of O(d^n), whatever m is, so n in the thousands and m in the
billions are cheap.  It agrees with the Kronecker power of the diagonal
(the materialized matrix path) within 1e-12 and gives the same level m*;
its sums run over classes, not entries, so it does not share the
Kronecker vector's rounding drift over 2^19 entries (3e-12 at 19 qubit
copies).  A row's value does not depend on the other rows of its stack.

Two fixed bounds, not options, limit the copies a call may take; past
either one it raises ``CapExceeded``:

* the entry points that take a state and ``copies`` accept d^n up to 2^53,
  where d^n, the level m* <= d^n and floor(1/q^n) <= d^n are still exact
  integers in a double;
* the type-class route builds a table of C(n+d-1, d-1) types of d counts
  each, at most 2^17 entries: 65535 qubit copies, 294 qutrit copies, 56
  copies at d = 4 and 8 at d = 9.  The qubits take the longest, about 1 s
  and a peak resident memory of 39 MB for a whole ``figure`` process
  (Python 3.11, numpy 2.4), for the O(n^2) big-integer work of their
  exact binomials; memory and that work would otherwise grow without
  limit.  ``figure`` evaluates a curve in chunks of at most 2^17 class
  entries (``_curve_fidelity``), so a curve never holds more than its
  largest point's table: 32 points at 65535 qubit copies peak at 38 MB.

Rates are reported in bits as log2 of an integer, since the achievable
target dimension is one: the one-shot rate is log2 of the level m*, the
zero-error rate log2 of floor(1/q^n), q the largest diagonal entry.  A
guard of 1e-9 inside that floor, and on the fidelity threshold 1 - eps
whose crossing defines m*, keeps rounding noise on exactly-integer
reciprocals from losing a whole level.

A one-dimensional state has d^n = 1 at every n, so neither bound limits
its copies; its one-entry power p^n is taken by ``pow``, in O(log n)
steps.  Every entry point takes n as a double there, so a count past the
largest double (about 1.8e308) raises ``CapExceeded`` too, as do the
zero-error rates of a p^n below 1 / (largest double), whose floor(1/p^n)
is no double.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, repeat

import numpy as np

from . import ensembles
from .dnorm import _class_fidelity, _class_level, _real_m, _snapped_fidelity, waterfill_level
from .errors import BadM, CapExceeded, DimMismatch, NumericalFailure
from .hermat import _psd_eig, _unit_trace, require_density, shannon_entropy

__all__ = [
    "AssistanceBound",
    "FidelityCertificate",
    "RateReport",
    "ThetaBound",
    "ZeroErrorRate",
    "assisted_fidelity_bound",
    "assisted_fidelity_from_probs",
    "assisted_fidelity_sdp",
    "coherence_of_assistance",
    "fidelity_certificate",
    "one_shot_rate",
    "theta_upper",
    "zero_error_rate",
]

_FLOOR_GUARD = 1e-9


@dataclass(frozen=True)
class RateReport:
    """One-shot quantities for a state at a given error tolerance.

    ``one_shot_rate_bits`` is log2 of the closed-form level ``m_requested``:
    the exact one-shot rate when ``exact_flag`` holds (copies of a state of
    dimension <= 3, or a declared tensor power of such a base) and the
    diagonal-ball relaxation's upper bound otherwise.  The zero-error fields
    are those of ``zero_error_rate`` on the same copies.
    """

    m_requested: int
    fidelity_bound: float
    one_shot_rate_bits: float
    zero_error_bits: float
    exact_flag: bool
    asymptotic_zero_error_bits_per_copy: float


@dataclass(frozen=True)
class ZeroErrorRate:
    one_shot_bits: float
    asymptotic_bits_per_copy: float
    exact: bool


@dataclass(frozen=True)
class ThetaBound:
    """Upper bound on the convex-roof max-squared-amplitude quantity.

    ``diag_lower`` is the matching lower bound, the largest diagonal entry;
    the two coincide (``exact=True``) in dimension <= 3.
    """

    value: float
    exact: bool
    diag_lower: float


@dataclass(frozen=True)
class AssistanceBound:
    """Coherence of assistance in bits.

    ``value_bits`` is exact for dimension <= 3 and otherwise the best
    ensemble-search lower bound; ``diag_entropy_bits`` is the diagonal
    entropy, which upper-bounds the quantity in every dimension.
    """

    value_bits: float
    exact: bool
    diag_entropy_bits: float


def _check_copies(copies, d: int = 1) -> int:
    """The copies count n as an int; ``CapExceeded`` past the largest count
    a double holds (about 1.8e308), since p^n and per-copy rates take n as
    a double, and past d^n = 2^53 for n copies of a d-dimensional state."""
    if copies > sys.float_info.max:
        raise CapExceeded(f"copies exceed the largest double, {sys.float_info.max:.6g}")
    if copies < 1 or int(copies) != copies:
        raise ValueError(f"copies must be a positive integer, got {copies}")
    if d ** min(int(copies), 54) > 2 ** 53:  # any d >= 2 passes 2^53 by n = 54
        raise CapExceeded(f"{copies} copies of dimension {d} exceed dimension 2^53")
    return int(copies)


@lru_cache(maxsize=16)
def _types(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Every way of splitting n copies among d outcomes, one count vector
    (k_1, ..., k_d) with sum n per row: the C(n+d-1, d-1) types, and the
    log of each type's multinomial coefficient n! / prod_j k_j!.

    The log multinomial is the sum over j >= 2 of log C(s_j, k_j), with
    s_j = k_1 + ... + k_j.  Each log C(s, k) is the log of an exact integer
    from a row of Pascal's triangle, C(s, k + 1) = C(s, k) (s - k) / (k + 1),
    so it is rounded once; a difference of log-factorials would lose the
    rounding of log n! (about 1e-11 at n = 5000) to cancellation.  With
    two outcomes only the row s = n is built.  Both arrays are read-only
    and cached, since a figure's curve asks for the same n at every point
    of its grid.
    """
    rows = np.zeros((1, 0), dtype=np.int64)
    for _ in range(d - 1):
        reps = n + 1 - rows.sum(axis=1)
        starts = np.cumsum(reps) - reps
        rows = np.column_stack([np.repeat(rows, reps, axis=0),
                                np.arange(reps.sum()) - np.repeat(starts, reps)])
    k = np.column_stack([rows, n - rows.sum(axis=1)])
    prefix = np.cumsum(k, axis=1)[:, 1:]
    offset = np.zeros(n + 1, dtype=np.int64)
    log_binomials = []
    for s in np.flatnonzero(np.bincount(prefix.ravel())).tolist():
        offset[s] = len(log_binomials)
        c = 1
        log_binomials.append(0.0)
        for j in range(s):
            c = c * (s - j) // (j + 1)
            log_binomials.append(math.log(c))
    log_mult = np.array(log_binomials)[offset[prefix] + k[:, 1:]].sum(axis=1)
    k.flags.writeable = log_mult.flags.writeable = False
    return k, log_mult


def _class_count(n: int, d: int) -> int:
    """Classes in a row of the n-fold power of a d-outcome diagonal: the
    C(n+d-1, d-1) types at n >= 2 with d >= 2, the d entries otherwise."""
    return math.comb(n + d - 1, d - 1) if n > 1 and d > 1 else d


def _type_classes(probs: np.ndarray, copies) -> tuple[np.ndarray, np.ndarray]:
    """Log magnitudes and log multiplicities of the entries of
    sqrt(clip(p^(kron n))) for each row p of a stack ``probs`` (R, d) and
    its count n = copies[i] >= 2: one class per type of ``_types(n, d)``,
    each row in descending order of magnitude (a stable sort of the
    table's order).

    A product is clipped to zero when it has a zero factor or an odd number
    of negative ones; an even number of negative factors leaves it
    positive, as clipping the Kronecker power's diagonal after powering
    does.  A clipped class keeps its place in the table with log magnitude
    -inf, so it sorts after the row's other classes, and rows of fewer
    types are padded with such classes, so every row has the width of the
    largest table.  A class's log magnitude is half the product of its
    counts with the row's log |p_i| (log 1 for a zero p_i, whose classes
    are clipped): one matrix-vector product per row, the one a row alone
    gets.
    """
    d = probs.shape[-1]
    runs = [(_types(n, d), len(list(run))) for n, run in groupby(copies)]
    width = max(len(types) for (types, _), _ in runs)
    k = np.zeros((len(probs), width, d))
    log_mult = np.zeros((len(probs), width))
    padding = np.ones((len(probs), width), dtype=bool)
    lo = 0
    for (types, mult), count in runs:
        k[lo:lo + count, :len(types)] = types
        log_mult[lo:lo + count, :len(types)] = mult
        padding[lo:lo + count, :len(types)] = False
        lo += count
    logs = np.log(np.abs(np.where(probs == 0.0, 1.0, probs)))
    log_mags = 0.5 * np.matmul(k, logs[..., None])[..., 0]
    log_mags[padding | (np.matmul(k, (probs == 0.0)[..., None])[..., 0] > 0)
             | (np.matmul(k, (probs < 0.0)[..., None])[..., 0] % 2 == 1)] = -np.inf
    order = np.argsort(-log_mags, axis=-1, kind="stable")
    rows = np.arange(len(order))[:, None]
    return log_mags[rows, order], log_mult[rows, order]


def assisted_fidelity_bound(rho, m: int, copies: int = 1) -> float:
    """Closed-form assisted-fidelity value (1/m) * mnorm(delta, m)^2, where
    delta holds the square roots of the diagonal of rho's ``copies``-fold
    tensor power.

    Upper-bounds the best average fidelity of assisted distillation into an
    m-level maximally coherent state, with equality for dimension <= 3 and
    for tensor powers of such states.  Only the diagonal is read, so the
    power is never formed: this is ``assisted_fidelity_from_probs`` on the
    validated diagonal of rho, and past d^n = 2^53 it raises
    ``CapExceeded``.

    In every dimension it equals the SDP over diagonal-capped states
    (``fidelity_certificate`` builds the optimal pair this argument gives).
    Write rho = V V^dag: the block matrix
    [[rho, X], [X^dag, omega]] is PSD iff X = V C with omega >= C^dag C, and
    Re tr X = sum_j Re(v_j . c_j) <= sum_j sqrt(rho_jj) |c_j| (Cauchy-Schwarz,
    tight for c_j along v_j), while the caps and the trace bind only the
    |c_j|.  So the root fidelity is max{a.t : 0 <= t <= 1/sqrt(m), |t|_2 <= 1}
    with a = sqrt(diag rho), the dual form of mnorm(a, m) / sqrt(m).  Without
    the cap on t, the same argument gives the diagonal-ball SDP
    min {max_j omega_jj : F(rho, omega) >= 1 - eps}: its value theta has
    1/theta the largest real m with (1/m) mnorm(a, m)^2 >= 1 - eps.
    """
    rho = require_density(rho, check_psd=False)
    n = _check_copies(copies, rho.shape[0])
    return float(_class_fidelity(*_power_classes(rho.diagonal().real, n), m))


def _power_classes(probs, copies):
    """The class planes (magnitudes, squared masses, log counts; see
    ``dnorm._class_fidelity``) of the n-fold power of each diagonal in
    ``probs`` (..., d), one row of classes per diagonal, in descending order
    of magnitude.  ``_class_fidelity`` reads the powers' fidelities off them
    at any m, and ``dnorm._class_level`` a row's level m*, so they are
    built once per call and nothing built grows with m.  ``copies`` holds
    n: an int for a single diagonal, else one n per diagonal of the stack,
    in row order.

    The rows fall into two parts.  Every diagonal with n >= 2 and d >= 2
    is read by its types, all of them in one ``_type_classes`` build, in
    O(C(n+d-1, d-1)) each and within 1e-12 of the Kronecker power; a type
    table of more than 2^17 entries raises ``CapExceeded`` before anything
    is built.  The rest, diagonals at n = 1 and single entries at any n,
    are one vector part: each row is raised to its own n by a column of
    exponents, clipped at zero and square-rooted, and each entry is a
    class of one.  At n = 1 that is the matrix path bit for bit.  Rows of
    fewer classes end in zero classes, which change no value, so one
    water-filling call evaluates all diagonals at an m, and each value is
    the one its diagonal gets alone.
    """
    shape, d = probs.shape[:-1], probs.shape[-1]
    if d == 0:
        raise BadM("empty vector")
    copies = [_check_copies(n) for n in (copies if shape else [copies])]
    probs = probs.reshape(-1, d)
    typed = [i for i, n in enumerate(copies) if n > 1 and d > 1]
    vector = [i for i, n in enumerate(copies) if n == 1 or d == 1]
    for n in (copies[i] for i in typed):
        if _class_count(n, d) * d > 2 ** 17:
            raise CapExceeded(f"{n} copies of {d} outcomes need over 2^17 type-table entries")
    parts = []
    if typed:
        log_mags, log_counts = _type_classes(probs.take(typed, axis=0), [copies[i] for i in typed])
        parts.append((typed, np.exp(log_mags), np.exp(log_counts + 2.0 * log_mags), log_counts))
    if vector:
        # at d >= 2 these are the rows at n = 1, read as they are; a single
        # entry is raised to its own n, a double, since n may pass what
        # _types can index (numpy 1.x makes an int past 2^64 an object array)
        a = probs.take(vector, axis=0)
        if d == 1:
            a = a ** np.array([[float(copies[i])] for i in vector])
        a = np.sort(np.sqrt(np.maximum(a, 0.0)), axis=-1)[..., ::-1]
        parts.append((vector, a, a * a, np.zeros(a.shape)))
    if len(parts) == 1:  # its rows are all rows, in order
        planes = parts[0][1:]
    else:  # the typed rows are the widest; zero classes pad the vector rows
        planes = np.zeros((3, len(copies), parts[0][1].shape[-1]))
        for rows, *part in parts:
            planes[:, rows, :part[0].shape[-1]] = part
    # back to the leading axes of probs: one diagonal is a vector of classes
    return [x.reshape(shape + x.shape[-1:]) for x in planes]


def _curve_fidelity(probs, copies, m: int) -> np.ndarray:
    """The fidelities of a stack's powers at one m, evaluated in consecutive
    chunks of rows.  A chunk holds at most 2^17 class entries (its rows
    times the widest row's classes times d), the bound on one type table,
    so a curve's memory is that of its largest point: 65535 qubit copies
    take one row at a time."""
    d, bounds, widest = probs.shape[-1], [0], 0
    for i, n in enumerate(copies):
        width = _class_count(n, d) * d
        widest = max(widest, width)
        if i > bounds[-1] and (i + 1 - bounds[-1]) * widest > 2 ** 17:
            bounds.append(i)
            widest = width
    bounds.append(len(copies))
    return np.concatenate([_class_fidelity(*_power_classes(probs[lo:hi], copies[lo:hi]), m)
                           for lo, hi in zip(bounds, bounds[1:])])


def assisted_fidelity_from_probs(probs, n: int, m: int) -> float:
    """``assisted_fidelity_bound`` of the n-fold tensor power of a state with
    diagonal ``probs``, computed from the probabilities alone.

    Every closed-form fidelity in the package, this one included, comes
    from the class planes ``_power_classes`` builds, here for one diagonal:
    the type classes of the power at every n >= 2 with d >= 2, the
    diagonal itself at n = 1.  A ``probs`` that is not one-dimensional
    raises ``DimMismatch``; its entries are not validated.  An ``m`` that
    is not a positive integer or passes the largest double raises
    ``BadM``, an ``n`` that is not a positive integer raises
    ``ValueError``, and a type table past 2^17 entries (more than 65535
    qubit copies) raises ``CapExceeded``; d^n itself is not bounded here.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1:
        raise DimMismatch(f"probs must be a vector, got shape {probs.shape}")
    return float(_class_fidelity(*_power_classes(probs, n), m))


@dataclass(frozen=True)
class FidelityCertificate:
    """Checked optimal primal/dual pair of the fidelity SDP at one m.

    The SDP maximizes Re tr X over G = [[rho, X], [X^dag, omega]] PSD with
    tr omega = 1 and omega_jj <= 1/m; its optimum is the root fidelity.
    ``primal`` is Re tr X at G = F F^dag, F = [V; C^dag], so omega = C^dag C
    and X = V C: a lower bound on the optimum.  ``dual`` is the weak-duality
    upper bound tr(rho D^-1) / 4 + mu + sum_j (D_j - mu) / m from the PSD
    matrix W = [[D^-1 / 4, -I / 2], [-I / 2, D]] = L L^dag,
    L = [-D^(-1/2) / 2; D^(1/2)], with D = diag(``dual_diag``) >= ``mu``.
    """

    primal: float
    dual: float
    v: np.ndarray
    c: np.ndarray
    dual_diag: np.ndarray
    mu: float


_CERT_TOL = 1e-12


def fidelity_certificate(rho, m) -> FidelityCertificate:
    """The fidelity SDP's optimal pair at real m in [1, d], in closed form.

    V is the square root of rho's PSD part and a_j = |v_j| the norms of its
    rows, so a = sqrt(diag rho).  With l the water-filling level of a
    (``dnorm.waterfill_level``) the primal columns are
    c_j = t_j conj(v_j) / a_j, t_j = min(1, a_j / l) / sqrt(m) (t_j e_j on
    a zero row, where rows outside the support take up the trace left
    over when l = 0); the dual is D_j = max(mu, a_j sqrt(m) / 2) with
    mu = l sqrt(m) / 2, or a tiny positive mu when l = 0.  Both sides then
    equal mnorm(a, m) / sqrt(m) (see ``assisted_fidelity_bound``).

    Raises ``NumericalFailure`` unless V V^dag reconstructs rho to 1e-12
    (beyond the negative eigenvalues the PSD floor clamps), tr omega is 1
    and every omega_jj is at most 1/m to 1e-12, and the two sides meet
    within 1e-12.  ``BadM`` if m is outside [1, d].
    """
    rho, adj = _unit_trace(rho)
    d = rho.shape[0]
    if _real_m(m) > d * (1.0 + 1e-12):
        raise BadM(f"no {d}-dimensional state has all diagonal entries <= 1/{m}")
    w, u = _psd_eig(rho, adj)
    v = (u * np.sqrt(np.maximum(w, 0.0))) @ u.conj().T
    a = np.sqrt((v.conj() * v).real.sum(axis=1))  # the rows' 2-norms
    level = waterfill_level(a, m)
    root_m = math.sqrt(m)
    support = a > 0.0
    k = int(np.count_nonzero(support))
    if level > 0.0:
        t = np.minimum(1.0, a / level) / root_m
        mu = level * root_m / 2.0
    else:
        t = np.where(support, 1.0 / root_m, 0.0)
        if k < d:
            t[~support] = math.sqrt(max(1.0 - k / m, 0.0) / (d - k))
        mu = min(1e-16, float(a[support].min()) * root_m / 2.0)
    c = v.conj().T * np.divide(t, a, out=np.zeros(d), where=support)
    if k < d:
        off = np.flatnonzero(~support)
        c[off, off] = t[off]
    dual_diag = np.maximum(mu, a * root_m / 2.0)
    primal = float(np.einsum("ij,ji->", v, c).real)
    dual = float((a * a / (4.0 * dual_diag)).sum() + mu + (dual_diag - mu).sum() / m)
    omega_diag = (np.abs(c) ** 2).sum(axis=0)
    checks = {
        "reconstruction": float(np.linalg.norm(v @ v.conj().T - rho)
                                - np.linalg.norm(np.minimum(w, 0.0))),
        "trace": abs(float(omega_diag.sum()) - 1.0),
        "cap": float(omega_diag.max()) - 1.0 / m,
        "gap": abs(dual - primal),
    }
    failed = {name: val for name, val in checks.items() if not val <= _CERT_TOL}
    if failed:
        raise NumericalFailure("fidelity certificate fails its checks: " + ", ".join(
            f"{name} {val:.2e}" for name, val in failed.items()))
    return FidelityCertificate(primal=primal, dual=dual, v=v, c=c, dual_diag=dual_diag, mu=mu)


def assisted_fidelity_sdp(rho, m) -> float:
    """Maximum fidelity between ``rho`` and the states with all diagonal
    entries at most 1/m: the square of the primal side of
    ``fidelity_certificate``, whose checked dual meets it within 1e-12."""
    return float(_snapped_fidelity(fidelity_certificate(rho, m).primal, 1))


def one_shot_rate(rho, eps: float, declared_base_dim: int | None = None,
                  copies: int = 1) -> RateReport:
    """One-shot assisted distillation report for ``copies`` copies of
    ``rho`` at error tolerance ``eps``.

    The level m* is the largest integer m with closed-form fidelity
    ``assisted_fidelity_bound(rho, m, copies) >= 1 - eps``.  That fidelity
    is non-increasing in real m, so m* is also floor(1/theta) of the
    diagonal-ball SDP (see ``assisted_fidelity_bound``); no SDP is solved.
    m* is read in one pass (``dnorm._class_level``) off the water-filling
    segments of the classes ``assisted_fidelity_from_probs`` evaluates, the
    type classes of the power at every n >= 2: the first segment whose end
    fails 1 - eps - 1e-9 holds the crossing, where the fidelity meets that
    threshold at the root of a quadratic.  That pass runs in doubles, and
    from about m* = 2^21 at eps = 0 the level it finds can be a few levels
    off (ROADMAP item 2).  The level is exact when ``zero_error_rate``'s
    flag holds and an upper bound otherwise; the zero-error fields are that
    function's too, from the same validation.
    Tensor-power structure is never detected, only declared, by ``copies``
    or by ``declared_base_dim``.  Past d^n = 2^53, or past the type-class
    route's table of 2^17 entries, ``CapExceeded`` is raised.

    Only the diagonal of the tensor power is read, and ``rho`` itself is
    PSD-checked: a tensor power's smallest eigenvalue is a product of the
    base's, so that check is at least as strict as one on the power.
    """
    rho = require_density(rho)
    if not (0.0 <= eps < 1.0):
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    probs = rho.diagonal().real
    n = _check_copies(copies, probs.size)
    planes = _power_classes(probs, n)
    m_star = _class_level(*planes, probs.size ** n, 1.0 - eps - _FLOOR_GUARD)
    zero = _zero_error(probs, n, declared_base_dim)
    return RateReport(
        m_requested=m_star,
        fidelity_bound=float(_class_fidelity(*planes, m_star)),
        one_shot_rate_bits=math.log2(m_star),
        zero_error_bits=zero.one_shot_bits,
        exact_flag=zero.exact,
        asymptotic_zero_error_bits_per_copy=zero.asymptotic_bits_per_copy,
    )


def _zero_error(probs, n: int, declared_base_dim: int | None) -> ZeroErrorRate:
    # q^n as the left-to-right product q * q * ... * q: the products of the
    # Kronecker power's diagonal, folded left to right, are formed in that
    # order and rounding is monotone, so this is its largest entry bit for
    # bit, with no vector built.  A single entry is raised by pow, as in
    # _power_classes
    q = float(np.max(probs))
    q_n = q ** n if probs.size == 1 else math.prod(repeat(q, n))
    # only a one-entry power gets here: d^n <= 2^53 keeps q^n >= 2^-53
    if q_n == 0.0 or 1.0 / q_n == math.inf:
        raise CapExceeded(f"q^n = {q_n!r} at {n} copies: 1/q^n is past the largest double")
    return ZeroErrorRate(
        one_shot_bits=math.log2(max(1, math.floor(1.0 / q_n + _FLOOR_GUARD))),
        asymptotic_bits_per_copy=0.0 - math.log2(q_n),  # +0.0, not -0.0, at q^n = 1
        exact=probs.size <= 3 or (declared_base_dim is not None and declared_base_dim <= 3),
    )


def zero_error_rate(rho, declared_base_dim: int | None = None,
                    copies: int = 1) -> ZeroErrorRate:
    """Zero-error rates of ``copies`` copies of ``rho`` from the largest
    diagonal entry q^n of their tensor power, q the largest diagonal entry
    of ``rho``: one-shot log2(floor(1/q^n)) bits and asymptotically
    -log2(q^n) bits per copy of that power.  q^n is taken as a product of
    n factors; no power is formed, and past d^n = 2^53, or where 1/q^n
    passes the largest double (a one-entry power only), ``CapExceeded`` is
    raised.  Exact when ``rho`` has dimension <= 3 or is a declared power
    of such a base (``declared_base_dim``); upper bounds otherwise."""
    rho = require_density(rho, check_psd=False)
    return _zero_error(rho.diagonal().real, _check_copies(copies, rho.shape[0]), declared_base_dim)


def _roof_search(rho, objective, seed: int, restarts: int, max_evals: int):
    """Validate ``rho`` once and return it with the ensemble-search value of
    ``objective`` over decompositions into d + 1 atoms, or with None for
    d <= 3, where the roof quantity has a closed form.  Dimension d >= 4 is
    validated by ``ensemble_search``, whose eigendecomposition also checks
    PSD (before any diagonal entropy sees a negative entry)."""
    mat = np.asarray(rho, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] <= 3:
        return require_density(mat), None
    _, val = ensembles.ensemble_search(mat, objective, mat.shape[0] + 1, seed=seed,
                                       restarts=restarts, max_evals=max_evals)
    return mat, val


def theta_upper(omega, *, seed: int = 0, restarts: int = 8,
                max_evals: int = 4000) -> ThetaBound:
    """Convex-roof minimum (over decompositions) of the largest squared
    amplitude.  Exact in dimension <= 3, where it equals the largest
    diagonal entry; otherwise the best decomposition into d + 1 atoms found
    by ``ensemble_search`` upper-bounds it while the diagonal entry
    lower-bounds it."""
    omega, val = _roof_search(omega, ensembles.MinMaxInfNormSq(), seed, restarts, max_evals)
    q = float(np.max(np.diag(omega).real))
    if val is None:
        return ThetaBound(value=q, exact=True, diag_lower=q)
    return ThetaBound(value=max(val, q), exact=False, diag_lower=q)


def coherence_of_assistance(rho, *, seed: int = 0, restarts: int = 8,
                            max_evals: int = 4000) -> AssistanceBound:
    """Coherence of assistance: the convex-roof maximum of the diagonal
    entropy.  Equals the diagonal entropy itself for d <= 3; for larger
    dimensions returns the best ensemble-search lower bound over
    decompositions into d + 1 atoms alongside that entropy as the upper
    bound."""
    rho, val = _roof_search(rho, ensembles.MaxAvgDiagEntropy(), seed, restarts, max_evals)
    diag_bits = shannon_entropy(np.clip(np.diag(rho).real, 0.0, None)
                                / float(np.sum(np.diag(rho).real)))
    if val is None:
        return AssistanceBound(value_bits=diag_bits, exact=True, diag_entropy_bits=diag_bits)
    return AssistanceBound(value_bits=min(val, diag_bits), exact=False,
                           diag_entropy_bits=diag_bits)
