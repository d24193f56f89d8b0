"""Assisted fidelities, rates, and convex-roof bounds."""

import decimal
import math
import sys
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest

from cohdist import distill
from cohdist.distill import (
    assisted_fidelity_bound,
    assisted_fidelity_from_probs,
    assisted_fidelity_sdp,
    coherence_of_assistance,
    fidelity_certificate,
    one_shot_rate,
    theta_upper,
    zero_error_rate,
)
from cohdist import dnorm
from cohdist.dnorm import mnorm, pure_distillation_fidelity
from cohdist.ensembles import (
    MaxAvgPureFidelity,
    ensemble_search,
    purify,
    same_diagonal_decomposition,
)
from cohdist.errors import BadM, CapExceeded, DimMismatch, NotPSD, NumericalFailure, ParseError
from cohdist.hermat import random_density, require_density, shannon_entropy
from cohdist.stateio import parse_state, state_to_dict

from reference import fidelity, tensor_power


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
        with pytest.raises(BadM):  # on the type-class route too
            assisted_fidelity_bound(random_density(2, rng), 1.5, copies=20)

    @pytest.mark.parametrize("m", [10 ** 400, math.inf, math.nan], ids=["1e400", "inf", "nan"])
    def test_m_past_the_largest_double(self, m):
        rho = np.diag([0.6, 0.4]).astype(complex)
        calls = (lambda: assisted_fidelity_from_probs([0.6, 0.4], 1, m),
                 lambda: assisted_fidelity_from_probs([0.6, 0.4], 3, m),
                 lambda: assisted_fidelity_bound(rho, m, copies=2),
                 lambda: fidelity_certificate(rho, m))
        for call in calls:
            with pytest.raises(BadM):
                call()

    def test_largest_double_m(self):
        # every class is capped: the fidelity is the squared l1 norm over m
        m = int(sys.float_info.max)
        for n in (1, 3):
            l1 = (math.sqrt(0.6) + math.sqrt(0.4)) ** n
            got = assisted_fidelity_from_probs([0.6, 0.4], n, m)
            assert abs(got - l1 * l1 / m) <= 1e-12 * l1 * l1 / m, n

    def test_tensor_power_consistency(self, rng):
        # the bound of a tensor power can be computed from the Kronecker
        # power of the base diagonal-root vector without materializing it
        for _ in range(5):
            d = int(rng.integers(2, 4))
            sigma = random_density(d, rng)
            delta = np.sqrt(np.diag(sigma).real)
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
        assert assisted_fidelity_sdp(rho, m) >= 1.0 - 1e-12
        if m_int >= 2:
            assert assisted_fidelity_sdp(rho, m_int) >= 1.0 - 1e-12

    def test_matches_bound_low_dim(self, rng):
        for trial in range(10):
            d = 2 if trial % 2 == 0 else 3
            rho = random_density(d, rng)
            for m in range(2, d + 1):
                gap = abs(assisted_fidelity_sdp(rho, m) - assisted_fidelity_bound(rho, m))
                assert gap <= 1e-12

    def test_bound_chain_dim_four(self, rng):
        # search lower bound <= SDP value <= closed-form norm bound
        for trial in range(3):
            rho = random_density(4, rng)
            m = 2
            f_sdp = assisted_fidelity_sdp(rho, m)
            f_bound = assisted_fidelity_bound(rho, m)
            _, f_search = ensemble_search(rho, MaxAvgPureFidelity(m), atoms_cap=5,
                                          seed=trial, restarts=3, max_evals=800)
            assert f_search <= f_sdp + 1e-12
            assert f_sdp <= f_bound + 1e-12

    def test_failure_names_exit_reason(self, rng, monkeypatch):
        # a pair that misses a check raises NumericalFailure naming the check
        rho = random_density(3, rng)
        level, eig = distill.waterfill_level, distill._psd_eig
        monkeypatch.setattr(distill, "waterfill_level", lambda a, m: 1.01 * level(a, m))
        with pytest.raises(NumericalFailure, match=r"trace .*, gap "):
            assisted_fidelity_sdp(rho, 2)
        monkeypatch.setattr(distill, "waterfill_level", level)
        monkeypatch.setattr(distill, "_psd_eig", lambda *a: (1.001 * eig(*a)[0], eig(*a)[1]))
        with pytest.raises(NumericalFailure, match=r"reconstruction "):
            assisted_fidelity_sdp(rho, 2)


class TestRates:
    def test_maximally_coherent_qutrit(self):
        psi = np.full(3, 1 / np.sqrt(3))
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

    def test_rates_are_log2_of_integers(self, rng):
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
        psi = np.full(2, 1 / np.sqrt(2))
        z = zero_error_rate(np.outer(psi, psi))
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
        # SDP, at eps = 0 and at an eps halfway between two adjacent levels.
        # The capped-diagonal fidelity does not increase with m, so two
        # certified points fix that floor: the primal side at m* reaches
        # 1 - eps and the dual side at m* + 1 stays below it (with the
        # rate's 1e-9 guard)
        for d in range(4, 9):
            for rank in range(1, d + 1):
                rho = random_density(d, rng, rank=rank)
                fid = [assisted_fidelity_bound(rho, m) for m in range(1, d + 1)] + [0.0]
                between = [0.5 * (max(1.0 - fid[m - 1], 0.0) + min(1.0 - fid[m], 0.999))
                           for m in range(1, d + 1)
                           if fid[m - 1] - fid[m] > 1e-4 and 1.0 - fid[m] > 1e-4]
                for eps in (0.0, between[int(rng.integers(len(between)))]):
                    m_star = one_shot_rate(rho, eps).m_requested
                    target = 1.0 - eps - 1e-9
                    assert fidelity_certificate(rho, m_star).primal ** 2 >= target
                    if m_star < d:
                        assert fidelity_certificate(rho, m_star + 1).dual ** 2 < target, (
                            d, rank, eps)

    def test_level_search_is_logarithmic(self, monkeypatch):
        # m* = 854 of 1024 levels; a level-by-level scan makes 856 evaluations.
        # The level is read off the water-filling segments with no search, so
        # the one evaluator call is the fidelity at the level
        calls = []
        evaluate = dnorm._waterfill
        monkeypatch.setattr(dnorm, "_waterfill", lambda *a: calls.append(1) or evaluate(*a))
        rep = one_shot_rate(np.diag([0.6, 0.4]).astype(complex), 0.05, copies=10)
        assert rep.m_requested == 854
        assert len(calls) == 1

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

    def test_ball_minimum_anchor(self, rng, ball_theta):
        rho = random_density(3, rng)
        got = ball_theta(rho, 0.0)
        assert abs(got - np.max(np.diag(rho).real)) <= 1e-7


class TestThetaUpper:
    def test_pure_state(self, rng):
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
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
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
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
    """``copies`` reads the tensor power through the base diagonal: itself
    at n = 1, its type classes at n >= 2.  The materialized
    ``tensor_power`` is the reference."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_tensor_power_bitwise(self, d, rng):
        # bit for bit at n = 1; at n >= 2 the classes sum in another order
        # than the d^n entries, so fidelities agree within 1e-12 while the
        # level m* and the fields read from it or from q^n stay equal
        for rank in range(1, d + 1):
            rho = random_density(d, rng, rank=rank)
            for n in (1, 2, 3):
                big = tensor_power(rho, n)
                tol = 0.0 if n == 1 else 1e-12
                for m in (2, 3):
                    assert (abs(assisted_fidelity_bound(rho, m, copies=n)
                                - assisted_fidelity_bound(big, m)) <= tol)
                for eps in (0.0, 0.05):
                    got = one_shot_rate(rho, eps, copies=n)
                    want = one_shot_rate(big, eps, declared_base_dim=d)
                    assert got.m_requested == want.m_requested
                    assert abs(got.fidelity_bound - want.fidelity_bound) <= tol
                    assert got.one_shot_rate_bits == want.one_shot_rate_bits
                    assert got.zero_error_bits == want.zero_error_bits
                    assert got.exact_flag == want.exact_flag
                    assert (got.asymptotic_zero_error_bits_per_copy
                            == want.asymptotic_zero_error_bits_per_copy)
                assert zero_error_rate(rho, copies=n) == zero_error_rate(big, declared_base_dim=d)

    def test_exactness_follows_the_base(self, rng):
        assert one_shot_rate(random_density(2, rng), 0.0, copies=4).exact_flag
        assert not zero_error_rate(random_density(4, rng), copies=2).exact
        assert zero_error_rate(random_density(4, rng), declared_base_dim=2, copies=2).exact

    def test_base_is_psd_checked(self):
        with pytest.raises(NotPSD):
            one_shot_rate(_not_psd(3, False), 0.0, copies=2)

    @pytest.mark.parametrize("probs", [np.float64(0.6), np.array([[0.6, 0.4]])],
                             ids=["0-d", "2-d"])
    @pytest.mark.parametrize("n", [1, 12])
    def test_probs_must_be_a_vector(self, probs, n):
        # n = 1 reads the vector itself and n = 12 its type classes
        with pytest.raises(DimMismatch):
            assisted_fidelity_from_probs(probs, n, 2)

    @pytest.mark.parametrize("copies", [0, -1, 1.5, 20.5])
    def test_rejects_bad_copies(self, copies):
        rho = np.diag([0.6, 0.4]).astype(complex)
        for call in (lambda: assisted_fidelity_bound(rho, 2, copies=copies),
                     lambda: one_shot_rate(rho, 0.0, copies=copies),
                     lambda: zero_error_rate(rho, copies=copies)):
            with pytest.raises(ValueError):
                call()


def _kronecker_fidelity(probs, n, m):
    power = np.clip(reduce(np.kron, [np.asarray(probs, dtype=float)] * n), 0.0, None)
    return pure_distillation_fidelity(np.sqrt(power), m)


def _decimal_fidelity(probs, n, m):
    """Qubit reference in 50-digit decimal arithmetic: exact multiplicities
    from math.comb, then the split-index scan on the first m sorted entries.
    The tail sums of squares are total minus head, which loses at most a
    few of the 50 digits for these inputs."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        p0, p1 = (decimal.Decimal(float(x)) for x in probs)
        classes = sorted((((p0 ** k) * (p1 ** (n - k))).sqrt(), math.comb(n, k))
                         for k in range(n + 1))[::-1]
        head = []
        for mag, count in classes:
            head += [mag] * min(count, m - len(head))
        head += [decimal.Decimal(0)] * (m - len(head))
        total = sum(mag * mag * count for mag, count in classes)
        suffix = [total - sum(x * x for x in head[:i]) for i in range(m)]
        best = None
        for k in range(1, m + 1):
            tail = max(suffix[m - k], decimal.Decimal(0)).sqrt()
            crit = tail / decimal.Decimal(k).sqrt()
            if best is None or crit < best[0]:
                best = (crit, sum(head[:m - k]) + decimal.Decimal(k).sqrt() * tail)
        fid = float(best[1] * best[1] / m)
    return 1.0 if abs(fid - 1.0) <= 1e-12 else min(max(fid, 0.0), 1.0)


class TestTypeClasses:
    """At every n >= 2 the n-copy fidelity is read from the types of the
    power; the Kronecker power of the diagonal is the reference."""

    # each diagonal from two copies to a few past d^n = 1024 entries
    CASES = [
        ([0.6, 0.4], range(2, 19)),
        ([0.9, 0.1], range(2, 19)),
        ([1.0, 0.0], range(2, 19)),
        ([0.5, 0.5], range(2, 19)),
        ([1.0 + 5e-11, -5e-11], range(2, 19)),
        ([0.5, 0.3, 0.2], range(2, 11)),
        ([0.7, 0.3, 0.0], range(2, 11)),
        ([0.6, 0.4 + 5e-11, -5e-11], range(2, 11)),
        ([0.4, 0.3, 0.2, 0.1], range(2, 8)),
        ([0.4, 0.3, 0.3, 0.0], range(2, 8)),
    ]

    @pytest.mark.parametrize("probs, copies", CASES, ids=[str(c[0]) for c in CASES])
    def test_matches_kronecker_route_above_the_cap(self, probs, copies):
        # a negative entry stays in the power where an even number of its
        # factors meet (clip after powering): clipping the base first moves
        # the m = 17 values here by ~1e-10
        d = len(probs)
        for n in copies:
            for m in (1, 2, 3, 5, 17):
                assert (abs(assisted_fidelity_from_probs(probs, n, m)
                            - _kronecker_fidelity(probs, n, m)) <= 1e-12), (n, m)
            # m > d^n pads with zeros, so the value is the l1 norm of the
            # magnitudes: with a and b the sums of sqrt|p_i| over the
            # nonnegative and the negative entries, the products with an
            # even number of negative factors sum to ((a+b)^n + (a-b)^n) / 2.
            # The Kronecker route's sequential head sum over d^n entries
            # drifts from it by up to ~3e-12 at 2^18 entries, so it is the
            # reference only up to 2^14
            m = d ** n + 1
            got = assisted_fidelity_from_probs(probs, n, m)
            a = math.fsum(math.sqrt(p) for p in probs if p >= 0.0)
            b = math.fsum(math.sqrt(-p) for p in probs if p < 0.0)
            l1 = 0.5 * ((a + b) ** n + (a - b) ** n)
            assert abs(got - min(l1 * l1 / m, 1.0)) <= 1e-12, (n, m)
            if d ** n <= 2 ** 14:
                assert abs(got - _kronecker_fidelity(probs, n, m)) <= 1e-12, (n, m)

    # single entries, which take the vector part at every n
    ONE_ENTRY = [[0.7], [1.0], [0.3], [1.0 + 5e-11], [-5e-11]]

    @pytest.mark.parametrize("d", [1, 3, 4])
    def test_stack_matches_rows_alone(self, d):
        # one type-class build and one water filling for a stack whose rows
        # clip different classes (zero and negative entries in different
        # places), and for rows of several n padded to one width: each
        # value is the one the row gets alone, and the Kronecker power's.
        # Single entries of several n in one stack are each raised to their
        # own n
        rows = self.ONE_ENTRY if d == 1 else [probs for probs, _ in self.CASES if len(probs) == d]
        rows += [probs[::-1] for probs in rows]
        stack = np.array(rows)
        for m in (1, 2, 3, 5, 17):
            for n in (2, 3, 7):
                got = dnorm._class_fidelity(*distill._power_classes(stack, [n] * len(rows)), m)
                assert got.tolist() == [assisted_fidelity_from_probs(p, n, m) for p in rows]
                assert max(abs(f - _kronecker_fidelity(p, n, m))
                           for f, p in zip(got, rows)) <= 1e-12, (n, m)
            copies = [7, 1, 2, 3, 2, 7, 1, 3, 7, 2][:len(rows)]
            got = dnorm._class_fidelity(*distill._power_classes(stack, copies), m)
            assert got.tolist() == [assisted_fidelity_from_probs(p, n, m)
                                    for p, n in zip(rows, copies)], m

    def test_route_follows_n_and_d(self, monkeypatch):
        # the vector probs^n at n = 1 and for a single entry at any n, the
        # type classes at every other n >= 2, whatever d^n is
        built = []
        type_classes = distill._type_classes
        monkeypatch.setattr(distill, "_type_classes",
                            lambda probs, n: built.append(n) or type_classes(probs, n))
        cases = [
            ([0.6, 0.4], 1, "vector"),
            ([0.5, 0.3, 0.2], 1, "vector"),
            ([0.7], 1, "vector"),
            ([0.7], 10 ** 6, "vector"),
            ([0.6, 0.4], 2, "classes"),
            ([0.6, 0.4], 10, "classes"),
            ([0.6, 0.4], 11, "classes"),
            ([0.5, 0.3, 0.2], 2, "classes"),
            ([0.5, 0.3, 0.2], 6, "classes"),
            ([0.4, 0.3, 0.2, 0.1], 2, "classes"),
        ]
        for probs, n, route in cases:
            assisted_fidelity_from_probs(probs, n, 2)
            assert ("classes" if built else "vector") == route, (probs, n)
            built.clear()

    @pytest.mark.parametrize("n", [50, 300])
    @pytest.mark.parametrize("p", [0.99, 0.999, 0.9999])
    def test_matches_decimal_reference(self, n, p):
        for m in (1, 2, 3, 5, 17):
            assert (abs(assisted_fidelity_from_probs([p, 1.0 - p], n, m)
                        - _decimal_fidelity([p, 1.0 - p], n, m)) <= 1e-12), m

    @pytest.mark.parametrize("m", [2, 5])
    def test_exact_multiplicities_at_thousands_of_copies(self, m):
        # log C(5000, k) as a difference of log-factorials carries the
        # ~1e-11 rounding of log 5000!, which was 3e-12 off here; from exact
        # integers it is rounded once
        probs = [0.9999, 1.0 - 0.9999]
        assert (abs(assisted_fidelity_from_probs(probs, 5000, m)
                    - _decimal_fidelity(probs, 5000, m)) <= 1e-14)

    def test_thousands_of_copies(self):
        ms = (1, 2, 3, 5, 17, 100, 1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for probs in ([0.9999, 0.0001], [0.6, 0.4], [1.0, 0.0]):
                fids = [assisted_fidelity_from_probs(probs, 5000, m) for m in ms]
                assert all(math.isfinite(f) and 0.0 <= f <= 1.0 for f in fids), probs
                assert all(b <= a for a, b in zip(fids, fids[1:])), probs
        # 0.9999^5000 = e^-0.5 > 1/2, so m = 2 is not reached exactly
        assert fids[0] == 1.0 and fids[1] == 0.5
        assert 0.9 < assisted_fidelity_from_probs([0.9999, 0.0001], 5000, 2) < 1.0

    @pytest.mark.parametrize("n", [1, 20])
    def test_memory_does_not_grow_with_m(self, n):
        # the norm is evaluated on classes, so no array has m entries: a
        # zero-padded sort of 10^6 entries alone would take 8 MB
        tracemalloc.start()
        try:
            assisted_fidelity_from_probs([0.6, 0.4], n, 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6

    @pytest.mark.parametrize("n", [1, 20])
    def test_every_entry_capped_at_a_billion_levels(self, n):
        # m = 10^9 exceeds the 2^n entries, so the norm is the l1 norm
        m = 10 ** 9
        l1_sq = (math.sqrt(0.6) + math.sqrt(0.4)) ** (2 * n)
        assert abs(assisted_fidelity_from_probs([0.6, 0.4], n, m) - l1_sq / m) <= 1e-12 * l1_sq / m


def _fsum_fidelity(amps, m):
    """The fidelity of a vector by water filling, each sum exactly rounded
    (math.fsum): the split K is the first index with a_K^2 (m - K) <= S_K,
    S_K the squared mass from K on, and the norm is
    sum(a[:K]) + sqrt(S_K (m - K))."""
    a = np.sort(amps)[::-1]
    sq = a * a
    tail = np.cumsum(sq[::-1])[::-1][:m]
    split = np.flatnonzero(sq[:m] * (m - np.arange(tail.size)) <= tail)
    k = int(split[0]) if split.size else a.size
    value = math.fsum(a[:k]) + math.sqrt(math.fsum(sq[k:]) * (m - k))
    return value * value / m


def _kronecker_level(amps, eps):
    """The largest m in [1, amps.size] whose fidelity on the vector ``amps``
    reaches 1 - eps - 1e-9, by bisection."""
    lo, hi = 1, amps.size + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pure_distillation_fidelity(amps, mid) >= 1.0 - eps - 1e-9:
            lo = mid
        else:
            hi = mid
    return lo


def _decimal_margin(p, n, m, threshold):
    """F(m) - threshold for the n-fold power of the qubit diagonal
    (p, 1 - p), in 90-digit decimal arithmetic over its n + 1 type classes
    with exact counts from math.comb, the doubles p, 1 - p and threshold
    read exactly.  Water filling stops at the first class j with
    p_j (m - K_(j+1)) <= S_(j+1), and the norm there is
    H_j + sqrt(S_j (m - K_j)), K_j the entries before class j, H_j their
    sum and S_j the squared mass from class j on."""
    with decimal.localcontext() as ctx:
        ctx.prec = 90
        p0, p1 = decimal.Decimal(p), decimal.Decimal(1.0 - p)
        classes = sorted(((p0 ** k * p1 ** (n - k), math.comb(n, k)) for k in range(n + 1)),
                         reverse=True) + [(decimal.Decimal(0), 0)]
        tails = [decimal.Decimal(0)]
        for square, count in classes[::-1]:
            tails.insert(0, tails[0] + square * count)
        start, head = 0, decimal.Decimal(0)
        for j, (square, count) in enumerate(classes):
            if count == 0 or square * (m - start - count) <= tails[j + 1]:
                value = head + (tails[j] * (m - start)).sqrt()
                return value * value / m - decimal.Decimal(threshold)
            start, head = start + count, head + square.sqrt() * count


class TestRateAboveTheCap:
    """rate's level m* is read off the water-filling segments of the type
    classes of the power at every n >= 2, with no search over m; a
    bisection on the Kronecker vector is the reference."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_level_matches_kronecker_bisection_up_to_1024_entries(self, d):
        # every power of at most 1024 entries: the Kronecker vector's
        # sequential sums are short enough that the type classes must give
        # its m* exactly, with no tie to break
        rng = np.random.default_rng(100 + d)
        for _ in range(25):
            probs = rng.dirichlet(np.ones(d))
            rho = np.diag(probs).astype(complex)
            n = 2
            while d ** n <= 1024:
                amps = np.sqrt(np.clip(reduce(np.kron, [probs] * n), 0.0, None))
                for eps in (0.0, 0.05, 0.2, 0.5):
                    assert (one_shot_rate(rho, eps, copies=n).m_requested
                            == _kronecker_level(amps, eps)), (probs, n, eps)
                n += 1

    @pytest.mark.parametrize("d, copies", [(2, range(11, 19)), (3, range(7, 11)), (4, (6, 7))],
                             ids=["qubit", "qutrit", "d4"])
    def test_level_matches_kronecker_bisection(self, d, copies):
        rng = np.random.default_rng(d)
        for _ in range(3):
            rho = random_density(d, rng)
            probs = np.diag(rho).real
            for n in copies:
                amps = np.sqrt(np.clip(reduce(np.kron, [probs] * n), 0.0, None))
                for eps in (0.0, 0.05, 0.2):
                    lo = _kronecker_level(amps, eps)
                    got = one_shot_rate(rho, eps, copies=n).m_requested
                    if got != lo:
                        # a tie closer than the sequential sums' drift over
                        # 2^18 entries (~1e-12): exactly rounded sums decide
                        target = 1.0 - eps - 1e-9
                        assert (_fsum_fidelity(amps, got) >= target
                                > _fsum_fidelity(amps, got + 1)), (n, eps, got, lo)

    @pytest.mark.parametrize("p", [0.99, 0.98, 0.97, 0.96])
    def test_level_at_fifty_copies_matches_decimal_reference(self, p):
        # m* runs from 2 to 758 here; the fidelity is non-increasing in m,
        # so m* passes and m* + 1 fails in 50-digit arithmetic
        rho = np.diag([p, 1.0 - p]).astype(complex)
        for eps in (0.05, 0.2):
            m = one_shot_rate(rho, eps, copies=50).m_requested
            assert (_decimal_fidelity([p, 1.0 - p], 50, m) >= 1.0 - eps - 1e-9
                    > _decimal_fidelity([p, 1.0 - p], 50, m + 1)), eps

    @pytest.mark.xfail(strict=True, reason="the float level goes wrong from about 2^21 at "
                       "eps = 0; ROADMAP item 2's exact pass decides it")
    def test_level_decisions_past_two_to_the_21(self):
        # m* passes 1 - eps - 1e-9 and m* + 1 fails, decided in 90 digits:
        # 2472467 for (0.7, 1 - 0.7) at 41 copies (F - thr = +1.1e-15 there,
        # -7.0e-15 one level up) and 15937690 for (0.6, 0.4) at 32 copies.
        # The float pass returns 2472466 and 15937692
        threshold = 1.0 - 0.0 - 1e-9
        for p, n in ((0.7, 41), (0.6, 32)):
            m = one_shot_rate(np.diag([p, 1.0 - p]).astype(complex), 0.0, copies=n).m_requested
            assert (_decimal_margin(p, n, m, threshold) >= 0
                    > _decimal_margin(p, n, m + 1, threshold)), (p, n, m)


class TestCopyBounds:
    @pytest.mark.parametrize("d, copies", [(2, 53), (3, 33)])
    def test_dimension_up_to_two_to_the_53(self, d, copies):
        rho = random_density(d, np.random.default_rng(d))
        calls = (lambda n: assisted_fidelity_bound(rho, 2, copies=n),
                 lambda n: one_shot_rate(rho, 0.05, copies=n),
                 lambda n: zero_error_rate(rho, copies=n))
        for call in calls:
            call(copies)
            with pytest.raises(CapExceeded):
                call(copies + 1)
            with pytest.raises(CapExceeded):
                call(10 ** 18)

    @pytest.mark.parametrize("d, copies", [(2, 65535), (3, 294), (4, 56), (9, 8)])
    def test_type_table_up_to_two_to_the_17(self, d, copies):
        # the largest powers whose C(n+d-1, d-1) types of d counts fit in
        # 2^17 entries
        probs = np.arange(d, 0, -1) / (d * (d + 1) / 2)
        assert 0.0 <= assisted_fidelity_from_probs(probs, copies, 2) <= 1.0
        with pytest.raises(CapExceeded):
            assisted_fidelity_from_probs(probs, copies + 1, 2)

    def test_one_dimensional_copies_are_unbounded(self):
        # d^n = 1 at every n: the one entry p^n is a single pow, so 10^18
        # copies cost what one does.  A p off 1 inside the 1e-10 trace gate
        # tells pow from a product of n factors
        p, n = 1.0 - 1e-11, 10 ** 6
        rho = np.full((1, 1), p, dtype=complex)
        assert zero_error_rate(rho, copies=n).asymptotic_bits_per_copy == -math.log2(p ** n)
        assert (assisted_fidelity_bound(rho, 1, copies=n)
                == pure_distillation_fidelity(np.sqrt([p ** n]), 1))
        one, n = np.ones((1, 1), dtype=complex), 10 ** 18
        assert assisted_fidelity_bound(one, 1, copies=n) == 1.0
        assert assisted_fidelity_from_probs([1.0], n, 2) == assisted_fidelity_bound(one, 2)
        assert one_shot_rate(one, 0.05, copies=n) == one_shot_rate(one, 0.05)
        assert zero_error_rate(one, copies=n) == zero_error_rate(one)

    @pytest.mark.parametrize("n", [72 * 10 ** 12, 10 ** 14], ids=["subnormal", "zero"])
    def test_one_dimensional_power_past_the_smallest_double(self, n):
        # (1 - 1e-11)^n is about e^-720, below 1 / (largest double), and
        # e^-1000, which is 0.0: floor(1/q^n) is then no double, a capacity
        # error as for copies past the largest double.  The fidelity has no
        # such quotient and keeps its value
        rho = np.full((1, 1), 1.0 - 1e-11, dtype=complex)
        with pytest.raises(CapExceeded):
            zero_error_rate(rho, copies=n)
        with pytest.raises(CapExceeded):
            one_shot_rate(rho, 0.05, copies=n)
        assert 0.0 <= assisted_fidelity_bound(rho, 1, copies=n) < 1e-300
        if n == 10 ** 14:
            assert assisted_fidelity_bound(rho, 1, copies=n) == 0.0

    def test_copies_past_the_largest_double(self):
        one = np.ones((1, 1), dtype=complex)
        calls = (lambda n: assisted_fidelity_bound(one, 2, copies=n),
                 lambda n: one_shot_rate(one, 0.05, copies=n),
                 lambda n: zero_error_rate(one, copies=n),
                 lambda n: assisted_fidelity_from_probs([1.0], n, 2))
        for call in calls:
            assert call(int(sys.float_info.max)) == call(1)
            for n in (int(sys.float_info.max) + 1, 10 ** 400, math.inf):
                with pytest.raises(CapExceeded):
                    call(n)

    @pytest.mark.parametrize("diag", [[1.0], [1.0, 0.0], [0.0, 0.0, 1.0]])
    def test_certain_state_has_positive_zero_rate(self, diag):
        rho = np.diag(diag).astype(complex)
        for n in (1, 2, 5):
            rate = zero_error_rate(rho, copies=n).asymptotic_bits_per_copy
            assert rate == 0.0 and math.copysign(1.0, rate) == 1.0


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
        lambda rho: fidelity(rho, rho),
        purify,
        lambda rho: ensemble_search(rho, MaxAvgPureFidelity(2), rho.shape[0] + 1, **_SEARCH),
        lambda rho: theta_upper(rho, **_SEARCH),
        lambda rho: coherence_of_assistance(rho, **_SEARCH),
    ], ids=["require_density", "fidelity", "purify", "ensemble_search", "theta_upper",
            "coherence_of_assistance"])
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
