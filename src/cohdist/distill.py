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
and a ``copies`` count and never form the d^n x d^n matrix.  One evaluator
of the power's fidelity, ``_power_fidelity``, is built once per call and
serves every m the call asks for.  Up to ``hermat.TENSOR_DIM_CAP`` entries
(and at n = 1) it holds the Kronecker product of the diagonal, which
reproduces the materialized matrix path bit for bit.  Above it, it reads
the power by its types: the C(n+d-1, d-1) distinct products
prod_i p_i^k_i with their multinomial multiplicities (sums of logs of
exact binomials, so no large logs cancel), formed in log space and handed
to ``dnorm.class_distillation_fidelity`` as classes of equal entries for
the norm's water-filling evaluator.  That costs O(classes) instead of
O(d^n), whatever m is, so n in the thousands and m in the billions are
cheap, and agrees with the Kronecker route within 1e-12; its sums run over
classes, not entries, so it does not share that route's rounding drift
over 2^19 entries (3e-12 at 19 qubit copies).

Two fixed bounds, not options, limit the copies a call may take; past
either one it raises ``CapExceeded``:

* the entry points that take a state and ``copies`` accept d^n up to 2^53,
  where d^n, the level m* <= d^n and floor(1/q^n) <= d^n are still exact
  integers in a double;
* the type-class route builds a table of C(n+d-1, d-1) types of d counts
  each, at most 2^17 entries: 65535 qubit copies, 294 qutrit copies, 56
  copies at d = 4 and 8 at d = 9.  The qubits take the longest, about 1 s
  and 43 MB, for the O(n^2) big-integer work of their exact binomials;
  memory and that work would otherwise grow without limit.

Rates are reported in bits as log2 of an integer, since the achievable
target dimension is one: the one-shot rate is log2 of the level m*, the
zero-error rate log2 of floor(1/q^n), q the largest diagonal entry.  A
guard of 1e-9 inside that floor, and on the fidelity threshold 1 - eps
that m* is bisected against, keeps rounding noise on exactly-integer
reciprocals from losing a whole level.

A one-dimensional state has d^n = 1 at every n, so neither bound limits
its copies; its one-entry power p^n is taken by ``pow``, in O(log n)
steps.  Every entry point takes n as a double there, so a count past the
largest double (about 1.8e308) raises ``CapExceeded`` too.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import repeat

import numpy as np

from . import ensembles
from .dnorm import (_snapped_fidelity, class_distillation_fidelity, pure_distillation_fidelity,
                    waterfill_level)
from .errors import BadM, CapExceeded, DimMismatch, NumericalFailure
from .hermat import TENSOR_DIM_CAP, eig_psd, require_density, shannon_entropy

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


def _floor_guarded(x: float) -> int:
    return max(1, math.floor(x + _FLOOR_GUARD))


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


def _check_copies(copies) -> int:
    """The copies count as an int; ``CapExceeded`` past the largest count a
    double holds (about 1.8e308), since p^n and per-copy rates take n as a
    double."""
    if copies > sys.float_info.max:
        raise CapExceeded(f"copies exceed the largest double, {sys.float_info.max:.6g}")
    if copies < 1 or int(copies) != copies:
        raise ValueError(f"copies must be a positive integer, got {copies}")
    return int(copies)


def _copies_dim(d: int, copies) -> tuple[int, int]:
    """The checked copies count n and the dimension d^n of n copies of a
    d-dimensional state; ``CapExceeded`` past d^n = 2^53 or past the
    largest count a double holds."""
    n = _check_copies(copies)
    if d ** min(n, 54) > 2 ** 53:  # any d >= 2 passes 2^53 by n = 54
        raise CapExceeded(f"{n} copies of dimension {d} exceed dimension 2^53")
    return n, d ** n


def _kron_power(probs, copies: int) -> np.ndarray:
    # the diagonal of a copies-fold tensor power is the Kronecker power of the
    # base diagonal; on vectors the flattened outer product forms the same
    # products in the same order as np.kron, bit for bit, without its
    # per-call set-up.  Clipping afterwards matches clipping the power's own
    # diagonal.  copies is a checked count; a single entry is raised by pow
    # (see the module docstring on one-dimensional states), with copies as
    # the double numpy 2 converts it to, since numpy 1.x makes an int past
    # 2^64 an object array
    if probs.size == 1:
        return np.clip(probs ** float(copies), 0.0, None)
    power = reduce(lambda a, b: np.multiply.outer(a, b).ravel(), repeat(probs, copies))
    return np.clip(power, 0.0, None)


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


def _type_classes(probs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Log magnitudes, descending, and log multiplicities of the distinct
    nonzero entries of sqrt(clip(probs^(kron n))).  A product is clipped to
    zero when it has a zero factor or an odd number of negative ones; an
    even number of negative factors leaves it positive, as in the Kronecker
    route, which clips after powering."""
    k, log_mult = _types(n, probs.size)
    keep = ~((k[:, probs == 0] > 0).any(axis=1) | (k[:, probs < 0].sum(axis=1) % 2 == 1))
    k = k[keep]
    nonzero = probs != 0
    log_mags = 0.5 * (k[:, nonzero] @ np.log(np.abs(probs[nonzero])))
    order = np.argsort(-log_mags, kind="stable")
    return log_mags[order], log_mult[keep][order]


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
    n, _ = _copies_dim(rho.shape[0], copies)
    return _power_fidelity(np.diag(rho).real, n)(m)


def _power_fidelity(probs, n: int):
    """The assisted fidelity of the n-fold power of a diagonal ``probs`` as
    a function of m, built once: the route is chosen and the power or its
    types are formed here, not at each m.

    Up to d^n = ``TENSOR_DIM_CAP`` entries (and at n = 1) the probabilities
    are Kronecker-powered, clipped at zero and only then square-rooted,
    which reproduces the materialized tensor-power path bit for bit in
    O(d^n) memory.  Above that size the power is read by its types
    (``_type_classes``) in O(C(n+d-1, d-1)), within 1e-12 of the Kronecker
    route; a type table of more than 2^17 entries raises ``CapExceeded``
    before it is built.  Neither route builds an array that grows with m.
    """
    n = _check_copies(n)
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1:
        raise DimMismatch(f"probs must be a vector, got shape {probs.shape}")
    d = probs.size
    if n > 1:
        if math.comb(n + d - 1, d - 1) * d > 2 ** 17:
            raise CapExceeded(f"{n} copies of {d} outcomes need over 2^17 type-table entries")
        if d ** n > TENSOR_DIM_CAP:
            return partial(class_distillation_fidelity, *_type_classes(probs, n))
    return partial(pure_distillation_fidelity, np.sqrt(_kron_power(probs, n)))


def assisted_fidelity_from_probs(probs, n: int, m: int) -> float:
    """``assisted_fidelity_bound`` of the n-fold tensor power of a state with
    diagonal ``probs``, computed from the probabilities alone.

    Every closed-form fidelity in the package, this one included, comes
    from the evaluator ``_power_fidelity`` builds (see it for its two
    routes).  A ``probs`` that is not one-dimensional raises
    ``DimMismatch``; its entries are not validated.  An ``m`` that is not a
    positive integer raises ``BadM``, a ``n`` that is not a positive
    integer raises ``ValueError``, and a type table past 2^17 entries (more
    than 65535 qubit copies) raises ``CapExceeded``; d^n itself is not
    bounded here.
    """
    return _power_fidelity(probs, n)(m)


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
    rho = require_density(rho, check_psd=False)
    d = rho.shape[0]
    if not np.isfinite(m) or m < 1.0:
        raise BadM(f"m must be >= 1, got {m}")
    if m > d * (1.0 + 1e-12):
        raise BadM(f"no {d}-dimensional state has all diagonal entries <= 1/{m}")
    w, u = eig_psd(rho)
    v = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    a = np.linalg.norm(v, axis=1)
    level = waterfill_level(a, m)
    root_m = math.sqrt(m)
    support = a > 0.0
    if level > 0.0:
        t = np.minimum(1.0, a / level) / root_m
        mu = level * root_m / 2.0
    else:
        t = np.where(support, 1.0 / root_m, 0.0)
        k = int(np.count_nonzero(support))
        if k < d:
            t[~support] = math.sqrt(max(1.0 - k / m, 0.0) / (d - k))
        mu = min(1e-16, float(np.min(a[support])) * root_m / 2.0)
    c = v.conj().T * np.divide(t, a, out=np.zeros(d), where=support)
    off = np.flatnonzero(~support)
    c[off, off] = t[off]
    dual_diag = np.maximum(mu, a * root_m / 2.0)
    primal = float(np.einsum("ij,ji->", v, c).real)
    dual = float(np.sum(a * a / (4.0 * dual_diag)) + mu + np.sum(dual_diag - mu) / m)
    omega_diag = np.sum(np.abs(c) ** 2, axis=0)
    checks = {
        "reconstruction": float(np.linalg.norm(v @ v.conj().T - rho)
                                - np.linalg.norm(np.minimum(w, 0.0))),
        "trace": abs(float(np.sum(omega_diag)) - 1.0),
        "cap": float(np.max(omega_diag)) - 1.0 / m,
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


def _max_m_by_fidelity(fidelity, dim: int, eps: float) -> int:
    # F(1) = 1 always passes and F does not increase with m, so bisect on lo
    # passing, hi failing (or past the dim levels)
    lo, hi = 1, dim + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fidelity(mid) >= 1.0 - eps - _FLOOR_GUARD:
            lo = mid
        else:
            hi = mid
    return lo


def one_shot_rate(rho, eps: float, declared_base_dim: int | None = None,
                  copies: int = 1) -> RateReport:
    """One-shot assisted distillation report for ``copies`` copies of
    ``rho`` at error tolerance ``eps``.

    The level m* is the largest integer m with closed-form fidelity
    ``assisted_fidelity_bound(rho, m, copies) >= 1 - eps``.  That fidelity
    is non-increasing in real m, so m* is also floor(1/theta) of the
    diagonal-ball SDP (see ``assisted_fidelity_bound``); no SDP is solved.
    m* is found by bisection over [1, d^n] on one n-copy evaluator, the
    one ``assisted_fidelity_from_probs`` uses: the Kronecker power up to
    1024 entries, the type classes above.  The level is exact when
    ``zero_error_rate``'s flag holds and an upper bound otherwise; the
    zero-error fields are that function's too, from the same validation.
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
    probs = np.diag(rho).real
    n, dim = _copies_dim(probs.size, copies)
    fidelity = _power_fidelity(probs, n)
    m_star = _max_m_by_fidelity(fidelity, dim, eps)
    zero = _zero_error(probs, n, declared_base_dim)
    return RateReport(
        m_requested=m_star,
        fidelity_bound=fidelity(m_star),
        one_shot_rate_bits=math.log2(m_star),
        zero_error_bits=zero.one_shot_bits,
        exact_flag=zero.exact,
        asymptotic_zero_error_bits_per_copy=zero.asymptotic_bits_per_copy,
    )


def _zero_error(probs, n: int, declared_base_dim: int | None) -> ZeroErrorRate:
    # q^n as the left-to-right product q * q * ... * q: the products of the
    # Kronecker power are formed in that order and rounding is monotone, so
    # this is its largest entry bit for bit, with no vector built.  A single
    # entry is raised by pow, as in _kron_power
    q = float(np.max(probs))
    q_n = q ** n if probs.size == 1 else math.prod(repeat(q, n))
    return ZeroErrorRate(
        one_shot_bits=math.log2(_floor_guarded(1.0 / q_n)),
        asymptotic_bits_per_copy=0.0 - math.log2(q_n),  # +0.0, not -0.0, at q^n = 1
        exact=probs.size <= 3 or (declared_base_dim is not None and declared_base_dim <= 3),
    )


def zero_error_rate(rho, declared_base_dim: int | None = None,
                    copies: int = 1) -> ZeroErrorRate:
    """Zero-error rates of ``copies`` copies of ``rho`` from the largest
    diagonal entry q^n of their tensor power, q the largest diagonal entry
    of ``rho``: one-shot log2(floor(1/q^n)) bits and asymptotically
    -log2(q^n) bits per copy of that power.  q^n is taken as a product of
    n factors; no power is formed, and past d^n = 2^53 ``CapExceeded`` is
    raised.  Exact when ``rho`` has dimension <= 3 or is a declared power
    of such a base (``declared_base_dim``); upper bounds otherwise."""
    rho = require_density(rho, check_psd=False)
    n, _ = _copies_dim(rho.shape[0], copies)
    return _zero_error(np.diag(rho).real, n, declared_base_dim)


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
