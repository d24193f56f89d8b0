"""Distillation quantities assembled from the norm, SDP and ensemble layers.

Everything here quantifies how well a maximally coherent state of a target
dimension ``m`` can be extracted from a state with the help of a party
holding a purification: the closed-form fidelity bound (exact in dimension
2 and 3, and for declared tensor powers of such states), its SDP
counterpart over diagonal-capped states, the one-shot / zero-error rates
they induce, the convex-roof quantity governing the exact rate, and the
coherence of assistance.

Rates are reported in bits and quantized through ``logfloor``: the
achievable target dimension is an integer, so every rate has the form
``log2(floor(2^x))``.  A guard of 1e-9 inside the floor keeps solver noise
on exactly-integer reciprocals from losing a whole level.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import ensembles
from .config import DEFAULT_CAPS
from .dnorm import mnorm
from .errors import BadM, NumericalFailure
from .hermat import delta_vector, require_density, shannon_entropy
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

    ``one_shot_rate_bits`` equals ``relaxed_rate_bits``; it is the exact
    one-shot rate when ``exact_flag`` holds (dimension <= 3, or a declared
    tensor power of such a base) and an upper bound otherwise.
    """

    m_requested: int
    fidelity_bound: float
    fidelity_sdp: float
    one_shot_rate_bits: float
    relaxed_rate_bits: float
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


def assisted_fidelity_bound(rho, m: int) -> float:
    """Closed-form assisted-fidelity value (1/m) * mnorm(delta(rho), m)^2.

    Upper-bounds the best average fidelity of assisted distillation into an
    m-level maximally coherent state, with equality for dimension <= 3 and
    for tensor powers of such states.
    """
    m = _check_m(m)
    rho = require_density(rho, check_psd=False)
    val = mnorm(delta_vector(rho), m).value
    return _snap_unit(val * val / m)


def assisted_fidelity_from_probs(probs, n: int, m: int) -> float:
    """``assisted_fidelity_bound`` of the n-fold tensor power of a state with
    diagonal ``probs``, computed from the probabilities alone.

    Kronecker-powers the probabilities and takes square roots afterwards,
    which reproduces the materialized tensor-power path bit for bit while
    staying O(d^n) in memory instead of O(d^(2n)).
    """
    pn = probs
    for _ in range(n - 1):
        pn = np.kron(pn, probs)
    val = mnorm(np.sqrt(pn), m).value
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


def _max_m_by_fidelity(rho, eps: float) -> int:
    d = rho.shape[0]
    best = 1
    for m in range(1, d + 1):
        if assisted_fidelity_bound(rho, m) >= 1.0 - eps - _FLOOR_GUARD:
            best = m
        else:
            break
    return best


def one_shot_rate(rho, eps: float, declared_base_dim: int | None = None,
                  *, max_iter: int = 300) -> RateReport:
    """One-shot assisted distillation report at error tolerance ``eps``.

    When the exactness flag holds (d <= 3 or a declared tensor power of a
    base with dimension <= 3) the level comes from the closed-form fidelity
    search, which is exact there, and no diagonal-ball SDP is solved.
    Otherwise the relaxed level comes from the diagonal-ball SDP.
    Tensor-power structure is never detected, only declared.
    """
    rho = require_density(rho)
    if not (0.0 <= eps < 1.0):
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    d = rho.shape[0]
    exact = d <= 3 or (declared_base_dim is not None and declared_base_dim <= 3)

    if exact:
        m_star = _max_m_by_fidelity(rho, eps)
    else:
        theta = min_diag_over_ball(rho, eps, max_iter=max_iter)
        m_star = min(_floor_guarded(1.0 / theta), d)
    relaxed_bits = math.log2(m_star)

    q = float(np.max(np.diag(rho).real))
    zero_bits = math.log2(_floor_guarded(1.0 / q))

    fid_bound = assisted_fidelity_bound(rho, m_star)
    if 2 * d <= DEFAULT_CAPS.sdp_block_dim:
        fid_sdp = assisted_fidelity_sdp(rho, m_star, max_iter=max_iter)
    else:
        fid_sdp = float("nan")

    return RateReport(
        m_requested=m_star,
        fidelity_bound=fid_bound,
        fidelity_sdp=fid_sdp,
        one_shot_rate_bits=relaxed_bits,
        relaxed_rate_bits=relaxed_bits,
        zero_error_bits=zero_bits,
        exact_flag=exact,
    )


def zero_error_rate(rho, declared_base_dim: int | None = None) -> ZeroErrorRate:
    """Zero-error rates from the largest diagonal entry q: one-shot
    log2(floor(1/q)) bits and asymptotically -log2(q) bits per copy.
    Exact for d <= 3 (or declared powers of such); upper bounds otherwise."""
    rho = require_density(rho, check_psd=False)
    d = rho.shape[0]
    q = float(np.max(np.diag(rho).real))
    exact = d <= 3 or (declared_base_dim is not None and declared_base_dim <= 3)
    return ZeroErrorRate(
        one_shot_bits=math.log2(_floor_guarded(1.0 / q)),
        asymptotic_bits_per_copy=-math.log2(q),
        exact=exact,
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
