"""Distillation quantities assembled from the norm, SDP and ensemble layers.

Everything here quantifies how well a maximally coherent state of a target
dimension ``m`` can be extracted from a state with the help of a party
holding a purification: the closed-form fidelity bound (exact in dimension
2 and 3, and for tensor powers of such states), which equals its SDP
counterpart over diagonal-capped states in every dimension, the
one-shot / zero-error rates it induces, the convex-roof quantity governing
the exact rate, and the coherence of assistance.  The SDP forms
(``assisted_fidelity_sdp``, ``min_diag_over_ball``) are kept as an
independent oracle for the closed form; no other function here solves one.

The closed forms read a state only through its diagonal, and n copies
only through the n-fold Kronecker power of that diagonal.  They take the
base state and a ``copies`` count and never form the d^n x d^n matrix.

Rates are reported in bits and quantized through ``logfloor``: the
achievable target dimension is an integer, so every rate has the form
``log2(floor(2^x))``.  A guard of 1e-9 inside the floor keeps solver noise
on exactly-integer reciprocals from losing a whole level.
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import ensembles
from .dnorm import mnorm
from .errors import BadM, NumericalFailure
from .hermat import require_density, shannon_entropy
from .sdpsolve import build_fidelity_over_Mm, build_min_diag_over_ball, solve

__all__ = [
    "AssistanceBound",
    "RateReport",
    "ThetaBound",
    "ZeroErrorRate",
    "assisted_fidelity_bound",
    "assisted_fidelity_from_probs",
    "assisted_fidelity_sdp",
    "coherence_of_assistance",
    "logfloor",
    "min_diag_over_ball",
    "one_shot_rate",
    "theta_upper",
    "zero_error_rate",
]

_FLOOR_GUARD = 1e-9


def logfloor(x: float) -> float:
    """log2 of the floor of 2^x (with the anti-noise guard inside the floor)."""
    return math.log2(max(1, math.floor(2.0 ** x + _FLOOR_GUARD)))


def _floor_guarded(x: float) -> int:
    return max(1, math.floor(x + _FLOOR_GUARD))


@dataclass(frozen=True)
class RateReport:
    """One-shot quantities for a state at a given error tolerance.

    ``one_shot_rate_bits`` is log2 of the closed-form level ``m_requested``:
    the exact one-shot rate when ``exact_flag`` holds (copies of a state of
    dimension <= 3, or a declared tensor power of such a base) and the
    diagonal-ball relaxation's upper bound otherwise.
    """

    m_requested: int
    fidelity_bound: float
    one_shot_rate_bits: float
    zero_error_bits: float
    exact_flag: bool


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


def _check_m(m) -> int:
    if m < 1 or abs(m - round(m)) > 1e-9:
        raise BadM(f"m must be a positive integer, got {m}")
    return int(round(m))


def _snap_unit(f: float) -> float:
    if abs(f - 1.0) <= 1e-12:
        return 1.0
    return min(max(f, 0.0), 1.0)


def _kron_power(probs, copies: int) -> np.ndarray:
    # the diagonal of a copies-fold tensor power is the Kronecker power of the
    # base diagonal; clipping it afterwards matches clipping the power's own
    if copies < 1 or int(copies) != copies:
        raise ValueError(f"copies must be a positive integer, got {copies}")
    return np.clip(reduce(np.kron, [probs] * int(copies)), 0.0, None)


def assisted_fidelity_bound(rho, m: int, copies: int = 1) -> float:
    """Closed-form assisted-fidelity value (1/m) * mnorm(delta, m)^2, where
    delta holds the square roots of the diagonal of rho's ``copies``-fold
    tensor power.

    Upper-bounds the best average fidelity of assisted distillation into an
    m-level maximally coherent state, with equality for dimension <= 3 and
    for tensor powers of such states.  Only the diagonal is read, so the
    power is never formed: this is ``assisted_fidelity_from_probs`` on the
    validated diagonal of rho.

    In every dimension it equals the SDP over diagonal-capped states
    (``assisted_fidelity_sdp``).  Write rho = V V^dag: the block matrix
    [[rho, X], [X^dag, omega]] is PSD iff X = V C with omega >= C^dag C, and
    Re tr X = sum_j Re(v_j . c_j) <= sum_j sqrt(rho_jj) |c_j| (Cauchy-Schwarz,
    tight for c_j along v_j), while the caps and the trace bind only the
    |c_j|.  So the root fidelity is max{a.t : 0 <= t <= 1/sqrt(m), |t|_2 <= 1}
    with a = sqrt(diag rho), the dual form of mnorm(a, m) / sqrt(m).  Without
    the cap on t, the same argument gives the diagonal-ball SDP
    (``min_diag_over_ball``): 1/theta is the largest real m with
    (1/m) mnorm(a, m)^2 >= 1 - eps.
    """
    m = _check_m(m)
    rho = require_density(rho, check_psd=False)
    return assisted_fidelity_from_probs(np.diag(rho).real, copies, m)


def assisted_fidelity_from_probs(probs, n: int, m: int) -> float:
    """``assisted_fidelity_bound`` of the n-fold tensor power of a state with
    diagonal ``probs``, computed from the probabilities alone.

    Every closed-form fidelity in the package goes through here.  The
    probabilities are Kronecker-powered, clipped at zero and only then
    square-rooted, which reproduces the materialized tensor-power path bit
    for bit while staying O(d^n) in memory instead of O(d^(2n)).  Neither
    ``probs`` nor ``m`` is validated.
    """
    val = mnorm(np.sqrt(_kron_power(probs, n)), m).value
    return _snap_unit(val * val / m)


def assisted_fidelity_sdp(rho, m, *, max_iter: int = 300) -> float:
    """Maximum fidelity between ``rho`` and the states with all diagonal
    entries at most 1/m, computed by SDP (the solver returns the root
    fidelity, squared here, which doubles its tolerance)."""
    rho = require_density(rho)
    sol = solve(build_fidelity_over_Mm(rho, m), max_iter=max_iter)
    if sol.status != "optimal":
        raise NumericalFailure(
            f"fidelity SDP ended with status {sol.status!r} ({sol.exit_reason})")
    root = min(max(sol.primal_value, 0.0), 1.0)
    return _snap_unit(root * root)


def min_diag_over_ball(rho, eps: float, *, max_iter: int = 300) -> float:
    """Smallest max-diagonal-entry among states with fidelity >= 1 - eps
    to ``rho``.  Reports the dual (lower) side of the certified pair so
    that downstream floors never lose an exactly attained integer level."""
    rho = require_density(rho)
    sol = solve(build_min_diag_over_ball(rho, eps), max_iter=max_iter)
    if sol.status != "optimal":
        raise NumericalFailure(
            f"diagonal-ball SDP ended with status {sol.status!r} ({sol.exit_reason})")
    return min(max(sol.dual_value, 1e-12), 1.0)


def _max_m_by_fidelity(probs, eps: float) -> int:
    # probs is a clipped diagonal; each level costs one O(N log N) scan
    best = 1
    for m in range(1, probs.size + 1):
        if assisted_fidelity_from_probs(probs, 1, m) >= 1.0 - eps - _FLOOR_GUARD:
            best = m
        else:
            break
    return best


def one_shot_rate(rho, eps: float, declared_base_dim: int | None = None,
                  copies: int = 1) -> RateReport:
    """One-shot assisted distillation report for ``copies`` copies of
    ``rho`` at error tolerance ``eps``.

    The level m* is the largest integer m with closed-form fidelity
    ``assisted_fidelity_bound(rho, m, copies) >= 1 - eps``.  That fidelity
    is non-increasing in real m, so m* is also floor(1/theta) of the
    diagonal-ball SDP (see ``assisted_fidelity_bound``); no SDP is solved.
    The level is exact when ``zero_error_rate``'s flag holds and an upper
    bound otherwise; the zero-error bits are that function's too.
    Tensor-power structure is never detected, only declared, by ``copies``
    or by ``declared_base_dim``.

    Only the diagonal of the tensor power is formed, and ``rho`` itself is
    PSD-checked: a tensor power's smallest eigenvalue is a product of the
    base's, so that check is at least as strict as one on the power.
    """
    rho = require_density(rho)
    if not (0.0 <= eps < 1.0):
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    zero = zero_error_rate(rho, declared_base_dim, copies)
    probs = _kron_power(np.diag(rho).real, copies)
    m_star = _max_m_by_fidelity(probs, eps)
    return RateReport(
        m_requested=m_star,
        fidelity_bound=assisted_fidelity_from_probs(probs, 1, m_star),
        one_shot_rate_bits=math.log2(m_star),
        zero_error_bits=zero.one_shot_bits,
        exact_flag=zero.exact,
    )


def zero_error_rate(rho, declared_base_dim: int | None = None,
                    copies: int = 1) -> ZeroErrorRate:
    """Zero-error rates of ``copies`` copies of ``rho`` from the largest
    diagonal entry q of their tensor power: one-shot log2(floor(1/q)) bits
    and asymptotically -log2(q) bits per copy of that power.  Exact when
    ``rho`` has dimension <= 3 or is a declared power of such a base
    (``declared_base_dim``); upper bounds otherwise."""
    rho = require_density(rho, check_psd=False)
    q = float(np.max(_kron_power(np.diag(rho).real, copies)))
    return ZeroErrorRate(
        one_shot_bits=math.log2(_floor_guarded(1.0 / q)),
        asymptotic_bits_per_copy=-math.log2(q),
        exact=rho.shape[0] <= 3 or (declared_base_dim is not None and declared_base_dim <= 3),
    )


def theta_upper(omega, *, atoms_cap: int | None = None, seed: int = 0,
                restarts: int = 8, max_evals: int = 4000) -> ThetaBound:
    """Convex-roof minimum (over decompositions) of the largest squared
    amplitude.  Exact in dimension <= 3, where it equals the largest
    diagonal entry; otherwise the best decomposition found upper-bounds it
    while the diagonal entry lower-bounds it."""
    # ensemble_search checks PSD from the eigendecomposition it needs anyway
    omega = require_density(omega, check_psd=False)
    d = omega.shape[0]
    q = float(np.max(np.diag(omega).real))
    if d <= 3:
        require_density(omega)
        return ThetaBound(value=q, exact=True, diag_lower=q)
    cap = atoms_cap if atoms_cap is not None else d + 1
    _, val = ensembles.ensemble_search(
        omega, ensembles.MinMaxInfNormSq(), cap,
        seed=seed, restarts=restarts, max_evals=max_evals,
    )
    return ThetaBound(value=max(val, q), exact=False, diag_lower=q)


def coherence_of_assistance(rho, *, atoms_cap: int | None = None, seed: int = 0,
                            restarts: int = 8, max_evals: int = 4000) -> AssistanceBound:
    """Coherence of assistance: the convex-roof maximum of the diagonal
    entropy.  Equals the diagonal entropy itself for d <= 3; for larger
    dimensions returns the best ensemble-search lower bound alongside that
    entropy as the upper bound."""
    # as in theta_upper, ensemble_search checks PSD itself (before the
    # entropy, which would reject a negative diagonal first)
    rho = require_density(rho, check_psd=False)
    d = rho.shape[0]
    if d <= 3:
        require_density(rho)
    else:
        cap = atoms_cap if atoms_cap is not None else d + 1
        _, val = ensembles.ensemble_search(
            rho, ensembles.MaxAvgDiagEntropy(), cap,
            seed=seed, restarts=restarts, max_evals=max_evals,
        )
    diag_bits = shannon_entropy(np.clip(np.diag(rho).real, 0.0, None)
                                / float(np.sum(np.diag(rho).real)))
    if d <= 3:
        return AssistanceBound(value_bits=diag_bits, exact=True, diag_entropy_bits=diag_bits)
    return AssistanceBound(value_bits=min(val, diag_bits), exact=False,
                           diag_entropy_bits=diag_bits)
