"""Assisted fidelities, rates, and convex-roof bounds."""

import math

import numpy as np
import pytest

from cohdist.distill import (
    assisted_fidelity_bound,
    assisted_fidelity_sdp,
    coherence_of_assistance,
    logfloor,
    min_diag_over_ball,
    one_shot_rate,
    theta_upper,
    zero_error_rate,
)
from cohdist import dnorm
from cohdist.dnorm import mnorm
from cohdist.ensembles import (
    MaxAvgPureFidelity,
    ensemble_search,
    purify,
    random_decomposition,
    same_diagonal_decomposition,
)
from cohdist.errors import BadM, NotPSD, NumericalFailure, ParseError
from cohdist.hermat import (
    maximally_coherent,
    random_density,
    random_statevector,
    require_density,
    shannon_entropy,
    sqrtm_psd,
    tensor_power,
)
from cohdist.stateio import parse_state, state_to_dict


def m2_closed_form(q):
    return 1.0 if q <= 0.5 else 0.5 + np.sqrt(q * (1.0 - q))


class TestFidelityBound:
    def test_maximally_mixed_qubit(self):
        assert assisted_fidelity_bound(np.eye(2, dtype=complex) / 2, 2) == 1.0

    def test_m2_closed_form(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 7))
            rho = random_density(d, rng)
            q = float(np.max(np.diag(rho).real))
            assert abs(assisted_fidelity_bound(rho, 2) - m2_closed_form(q)) <= 1e-9

    def test_qutrit_m3_value(self):
        rho = np.diag([0.5, 0.25, 0.25]).astype(complex)
        got = assisted_fidelity_bound(rho, 3)
        assert abs(got - 0.9714045207910317) < 1e-12
        assert abs(got - (np.sqrt(0.5) + 1.0) ** 2 / 3.0) < 1e-12

    def test_offdiagonals_do_not_matter(self, rng):
        rho = random_density(3, rng)
        diag = np.diag(np.diag(rho))
        for m in (2, 3):
            assert abs(assisted_fidelity_bound(rho, m)
                       - assisted_fidelity_bound(diag, m)) < 1e-12

    def test_rejects_non_integer_m(self, rng):
        with pytest.raises(BadM):
            assisted_fidelity_bound(random_density(2, rng), 1.5)

    def test_tensor_power_consistency(self, rng):
        # the bound of a tensor power can be computed from the Kronecker
        # power of the base diagonal-root vector without materializing it
        from cohdist.hermat import delta_vector

        for _ in range(5):
            d = int(rng.integers(2, 4))
            sigma = random_density(d, rng)
            delta = delta_vector(sigma)
            for n in (2, 3):
                big = tensor_power(sigma, n)
                direct = assisted_fidelity_bound(big, 2)
                delta_n = delta
                for _ in range(n - 1):
                    delta_n = np.kron(delta_n, delta)
                via_delta = mnorm(delta_n, 2).value ** 2 / 2
                via_delta = 1.0 if abs(via_delta - 1.0) <= 1e-12 else via_delta
                assert abs(direct - via_delta) <= 1e-9


class TestFidelitySdp:
    def test_member_state(self, rng):
        rho = random_density(4, rng)
        m = 1.0 / float(np.max(np.diag(rho).real))
        m_int = int(m)  # any integer m below keeps rho feasible
        if m_int >= 2:
            assert assisted_fidelity_sdp(rho, m_int) >= 1.0 - 1e-6

    def test_matches_bound_low_dim(self, rng):
        for trial in range(10):
            d = 2 if trial % 2 == 0 else 3
            rho = random_density(d, rng)
            for m in range(2, d + 1):
                gap = abs(assisted_fidelity_sdp(rho, m) - assisted_fidelity_bound(rho, m))
                assert gap <= 1e-6

    def test_bound_chain_dim_four(self, rng):
        # search lower bound <= SDP value <= closed-form norm bound
        for trial in range(3):
            rho = random_density(4, rng)
            m = 2
            f_sdp = assisted_fidelity_sdp(rho, m)
            f_bound = assisted_fidelity_bound(rho, m)
            _, f_search = ensemble_search(rho, MaxAvgPureFidelity(m), atoms_cap=5,
                                          seed=trial, restarts=3, max_evals=800)
            assert f_search <= f_sdp + 1e-5
            assert f_sdp <= f_bound + 1e-6

    def test_failure_names_exit_reason(self, rng):
        rho = random_density(3, rng)
        with pytest.raises(NumericalFailure, match=r"'max_iter' \(max_iter\)"):
            assisted_fidelity_sdp(rho, 2, max_iter=2)
        with pytest.raises(NumericalFailure, match=r"'max_iter' \(max_iter\)"):
            min_diag_over_ball(rho, 0.05, max_iter=2)


class TestRates:
    def test_maximally_coherent_qutrit(self):
        psi = maximally_coherent(3)
        rep = one_shot_rate(np.outer(psi, psi.conj()), 0.0)
        assert rep.m_requested == 3
        assert abs(rep.one_shot_rate_bits - math.log2(3)) < 1e-12
        assert rep.exact_flag

    def test_qubit_anchor(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        rep = one_shot_rate(rho, 0.0)
        assert rep.m_requested == 1
        assert rep.one_shot_rate_bits == 0.0
        assert rep.zero_error_bits == 0.0

    def test_three_copies(self):
        rho = tensor_power(np.diag([0.6, 0.4]).astype(complex), 3)
        rep = one_shot_rate(rho, 0.0, declared_base_dim=2)
        assert rep.m_requested == 4
        assert rep.one_shot_rate_bits == 2.0
        assert rep.exact_flag
        rep_undeclared = one_shot_rate(rho, 0.0)
        assert not rep_undeclared.exact_flag
        assert rep_undeclared.one_shot_rate_bits == 2.0

    def test_rejects_bad_eps(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        for eps in (-0.1, 1.0, 1.5, float("nan")):
            with pytest.raises(ValueError):
                one_shot_rate(rho, eps)

    def test_rates_are_logfloor_values(self, rng):
        for _ in range(5):
            d = int(rng.integers(2, 5))
            rho = random_density(d, rng)
            eps = float(rng.uniform(0.0, 0.2))
            rep = one_shot_rate(rho, eps)
            for bits in (rep.one_shot_rate_bits, rep.zero_error_bits):
                assert abs(2.0 ** bits - round(2.0 ** bits)) < 1e-9

    def test_monotone_in_eps(self, rng):
        rho = random_density(3, rng)
        rates = [one_shot_rate(rho, eps).one_shot_rate_bits for eps in (0.0, 0.03, 0.06, 0.1)]
        assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_zero_error_examples(self):
        z = zero_error_rate(np.outer(maximally_coherent(2), maximally_coherent(2)))
        assert z.one_shot_bits == 1.0
        assert abs(z.asymptotic_bits_per_copy - 1.0) < 1e-12
        assert z.exact
        z = zero_error_rate(np.diag([0.6, 0.4]).astype(complex))
        assert z.one_shot_bits == 0.0
        assert abs(z.asymptotic_bits_per_copy - 0.7369655941662062) < 1e-9
        z = zero_error_rate(np.diag([0.5, 0.25, 0.25]).astype(complex))
        assert (z.one_shot_bits, z.asymptotic_bits_per_copy, z.exact) == (1.0, 1.0, True)

    def test_level_matches_diagonal_ball_oracle(self, rng):
        # the closed-form level equals floor(1/theta) of the diagonal-ball
        # SDP, at eps = 0 and at an eps halfway between two adjacent levels
        for d in range(4, 9):
            for rank in range(1, d + 1):
                rho = random_density(d, rng, rank=rank)
                fid = [assisted_fidelity_bound(rho, m) for m in range(1, d + 1)] + [0.0]
                between = [0.5 * (max(1.0 - fid[m - 1], 0.0) + min(1.0 - fid[m], 0.999))
                           for m in range(1, d + 1)
                           if fid[m - 1] - fid[m] > 1e-4 and 1.0 - fid[m] > 1e-4]
                for eps in (0.0, between[int(rng.integers(len(between)))]):
                    theta = min_diag_over_ball(rho, eps)
                    oracle = min(math.floor(1.0 / theta + 1e-9), d)
                    assert one_shot_rate(rho, eps).m_requested == oracle, (d, rank, eps)

    def test_level_search_is_logarithmic(self, monkeypatch):
        # m* = 854 of 1024 levels; a level-by-level scan makes 856 scans
        calls = []
        scan = dnorm._scan_integer
        monkeypatch.setattr(dnorm, "_scan_integer", lambda *a: calls.append(1) or scan(*a))
        rep = one_shot_rate(np.diag([0.6, 0.4]).astype(complex), 0.05, copies=10)
        assert rep.m_requested == 854
        assert len(calls) <= 12

    def test_level_matches_linear_scan(self, rng):
        def linear(rho, eps, copies):
            best = 1
            for m in range(1, rho.shape[0] ** copies + 1):
                if assisted_fidelity_bound(rho, m, copies=copies) < 1.0 - eps - 1e-9:
                    break
                best = m
            return best

        for d, max_copies in ((2, 5), (3, 3), (4, 2)):
            for rank in range(1, d + 1):
                rho = random_density(d, rng, rank=rank)
                for copies in range(1, max_copies + 1):
                    for eps in (0.0, 0.01, 0.05, 0.2, 0.5):
                        assert (one_shot_rate(rho, eps, copies=copies).m_requested
                                == linear(rho, eps, copies)), (d, rank, copies, eps)

    def test_ball_minimum_anchor(self, rng):
        rho = random_density(3, rng)
        got = min_diag_over_ball(rho, 0.0)
        assert abs(got - np.max(np.diag(rho).real)) <= 1e-7

    def test_logfloor(self):
        assert logfloor(math.log2(3)) == math.log2(3)
        assert logfloor(1.9) == math.log2(3)  # 2^1.9 ~ 3.73 floors to 3
        assert logfloor(0.3) == 0.0
        assert logfloor(2.0) == 2.0


class TestThetaUpper:
    def test_pure_state(self, rng):
        psi = random_statevector(3, rng)
        t = theta_upper(np.outer(psi, psi.conj()))
        assert t.exact
        assert abs(t.value - np.max(np.abs(psi) ** 2)) < 1e-12

    def test_qubit_equals_max_diagonal(self, rng):
        rho = random_density(2, rng)
        t = theta_upper(rho)
        assert t.exact
        assert t.value == np.max(np.diag(rho).real)

    def test_dim_four_is_relaxation_upper_bound(self, rng):
        rho = random_density(4, rng)
        t = theta_upper(rho, restarts=3, max_evals=800, seed=0)
        assert not t.exact
        assert t.value >= t.diag_lower - 1e-12
        assert t.diag_lower == np.max(np.diag(rho).real)


class TestCoherenceOfAssistance:
    def test_uniform_qubit(self):
        ca = coherence_of_assistance(np.eye(2, dtype=complex) / 2)
        assert ca.exact and ca.value_bits == 1.0

    def test_pure_state(self, rng):
        psi = random_statevector(3, rng)
        ca = coherence_of_assistance(np.outer(psi, psi.conj()))
        assert abs(ca.value_bits - shannon_entropy(np.abs(psi) ** 2)) < 1e-9

    def test_qutrit_with_offdiagonals(self, rng):
        # diagonal (1/2, 1/4, 1/4) plus generic coherences: still 1.5 bits
        rho = random_density(3, rng)
        d = np.diag([0.5, 0.25, 0.25])
        scale = np.sqrt(np.outer(np.diag(d), np.diag(d)) / np.outer(np.diag(rho).real, np.diag(rho).real))
        rho = 0.5 * (rho * scale + (rho * scale).conj().T)
        assert np.allclose(np.diag(rho).real, [0.5, 0.25, 0.25], atol=1e-12)
        w = np.linalg.eigvalsh(rho)
        if w[0] < 0:  # rescaling can break positivity; mix toward the diagonal
            t = float(-w[0] / (-w[0] + np.min([0.5, 0.25, 0.25])))
            rho = (1 - t) * rho + t * d.astype(complex)
        ca = coherence_of_assistance(rho)
        assert ca.exact
        assert abs(ca.value_bits - 1.5) < 1e-12

    def test_dim_four_bracket(self, rng):
        rho = random_density(4, rng)
        ca = coherence_of_assistance(rho, restarts=3, max_evals=800)
        assert not ca.exact
        assert ca.value_bits <= ca.diag_entropy_bits + 1e-12
        assert ca.value_bits >= 0.0


class TestCopies:
    """``copies`` reads the tensor power through the Kronecker power of the
    base diagonal; the materialized ``tensor_power`` is the reference."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_tensor_power_bitwise(self, d, rng):
        for rank in range(1, d + 1):
            rho = random_density(d, rng, rank=rank)
            for n in (1, 2, 3):
                big = tensor_power(rho, n)
                for m in (2, 3):
                    assert (assisted_fidelity_bound(rho, m, copies=n)
                            == assisted_fidelity_bound(big, m))
                for eps in (0.0, 0.05):
                    assert (one_shot_rate(rho, eps, copies=n)
                            == one_shot_rate(big, eps, declared_base_dim=d))
                assert zero_error_rate(rho, copies=n) == zero_error_rate(big, declared_base_dim=d)

    def test_exactness_follows_the_base(self, rng):
        assert one_shot_rate(random_density(2, rng), 0.0, copies=4).exact_flag
        assert not zero_error_rate(random_density(4, rng), copies=2).exact
        assert zero_error_rate(random_density(4, rng), declared_base_dim=2, copies=2).exact

    def test_base_is_psd_checked(self):
        with pytest.raises(NotPSD):
            one_shot_rate(_not_psd(3, False), 0.0, copies=2)

    @pytest.mark.parametrize("copies", [0, -1, 1.5])
    def test_rejects_bad_copies(self, copies):
        rho = np.diag([0.6, 0.4]).astype(complex)
        for call in (lambda: assisted_fidelity_bound(rho, 2, copies=copies),
                     lambda: one_shot_rate(rho, 0.0, copies=copies),
                     lambda: zero_error_rate(rho, copies=copies)):
            with pytest.raises(ValueError):
                call()


_NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda: assisted_fidelity_bound([[0.5, _NAN], [_NAN, 0.5]], 2),
    lambda: zero_error_rate(np.array([[0.5, _NAN], [_NAN, 0.5]])),
    lambda: assisted_fidelity_bound(np.diag([_NAN, 1.0]), 2),
    lambda: zero_error_rate(np.diag([_NAN, 1.0])),
], ids=["bound-offdiagonal", "zero-error-offdiagonal", "bound-diagonal", "zero-error-diagonal"])
def test_non_finite_input_raises(call):
    # NaN fails every tolerance comparison, so only an explicit check stops it
    with pytest.raises(NumericalFailure, match="non-finite"):
        call()


def _not_psd(d, negative_diagonal):
    """Hermitian, unit trace, one negative eigenvalue."""
    if negative_diagonal:
        diag = np.full(d, 1.2 / (d - 1))
        diag[-1] = -0.2
        return np.diag(diag).astype(complex)
    rho = np.eye(d, dtype=complex) / d
    rho[0, 1] = rho[1, 0] = 0.4  # eigenvalue 1/d - 0.4 < 0
    return rho


def _min_eigenvalue(d, lam):
    """Unit-trace state with smallest eigenvalue ``lam``, in a fixed random
    basis."""
    rng = np.random.Generator(np.random.Philox(key=d))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    w = np.arange(1.0, d + 1.0)
    w[0] = 0.0
    w *= (1.0 - lam) / w.sum()
    w[0] = lam
    rho = (q * w) @ q.conj().T
    return 0.5 * (rho + rho.conj().T)


_SEARCH = {"restarts": 1, "max_evals": 64}


class TestRoofInputValidation:
    """The roof searches check PSD once, from the eigendecomposition the
    search needs; non-PSD input must still raise NotPSD on every path.
    Every entry point shares the -1e-10 PSD floor: a smallest eigenvalue of
    -5e-10 is rejected, one of -5e-11 is accepted."""

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("negative_diagonal", [False, True])
    @pytest.mark.parametrize("call", [
        lambda rho: coherence_of_assistance(rho, restarts=1, max_evals=64),
        lambda rho: theta_upper(rho, restarts=1, max_evals=64),
        lambda rho: ensemble_search(rho, MaxAvgPureFidelity(2), rho.shape[0] + 1,
                                    restarts=1, max_evals=64),
    ], ids=["coherence_of_assistance", "theta_upper", "ensemble_search"])
    def test_not_psd_raises(self, call, d, negative_diagonal):
        with pytest.raises(NotPSD):
            call(_not_psd(d, negative_diagonal))

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("call", [
        require_density,
        sqrtm_psd,
        purify,
        lambda rho: random_decomposition(rho, rho.shape[0] + 1),
        lambda rho: ensemble_search(rho, MaxAvgPureFidelity(2), rho.shape[0] + 1, **_SEARCH),
        lambda rho: theta_upper(rho, **_SEARCH),
        lambda rho: coherence_of_assistance(rho, **_SEARCH),
    ], ids=["require_density", "sqrtm_psd", "purify", "random_decomposition",
            "ensemble_search", "theta_upper", "coherence_of_assistance"])
    def test_floor_boundary(self, call, d):
        with pytest.raises(NotPSD, match="below -1e-10"):
            call(_min_eigenvalue(d, -5e-10))
        call(_min_eigenvalue(d, -5e-11))

    def test_floor_boundary_same_diagonal(self):
        with pytest.raises(NotPSD, match="below -1e-10"):
            same_diagonal_decomposition(_min_eigenvalue(3, -5e-10))
        same_diagonal_decomposition(_min_eigenvalue(3, -5e-11))

    @pytest.mark.parametrize("d", [3, 4])
    def test_floor_boundary_parse_state(self, d):
        with pytest.raises(ParseError, match="below -1e-10"):
            parse_state(state_to_dict(_min_eigenvalue(d, -5e-10)))
        parse_state(state_to_dict(_min_eigenvalue(d, -5e-11)))
