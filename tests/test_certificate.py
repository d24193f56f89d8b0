"""The fidelity SDP solved by its explicit optimal pair, and the
diagonal-ball SDP it induces.

The SDP maximizes Re tr X over G = [[rho, X], [X^dag, omega]] PSD with
tr omega = 1 and omega_jj <= 1/m.  ``fidelity_certificate`` writes down a
primal point G = F F^dag and a dual point W = L L^dag; these tests rebuild
both matrices and check them from outside, independently of the checks the
function makes itself.
"""

import numpy as np
import pytest

from cohdist.distill import (
    assisted_fidelity_bound,
    assisted_fidelity_sdp,
    fidelity_certificate,
    one_shot_rate,
)
from cohdist.dnorm import mnorm, pure_distillation_fidelity
from cohdist.errors import BadM, NonHermitian, NumericalFailure
from cohdist.hermat import random_density

from reference import fidelity


def gram(cert):
    """Primal point G = F F^dag, F = [V; C^dag]."""
    f = np.vstack([cert.v, cert.c.conj().T])
    return f @ f.conj().T


def dual_matrix(cert):
    """Dual point W = [[D^-1 / 4, -I / 2], [-I / 2, D]]."""
    dd = cert.dual_diag
    eye = np.eye(dd.size)
    return np.block([[np.diag(0.25 / dd), -0.5 * eye], [-0.5 * eye, np.diag(dd)]])


def root_closed_form(rho, m):
    return mnorm(np.sqrt(np.diag(rho).real), m).value / np.sqrt(m)


class TestSolver:
    def test_pure_state_optimum(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 7))
            psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            psi /= np.linalg.norm(psi)
            rho = np.outer(psi, psi.conj())
            for m in range(1, d + 1):
                assert abs(assisted_fidelity_sdp(rho, m)
                           - pure_distillation_fidelity(psi, m)) <= 1e-12

    def test_certificates(self, rng):
        # d = 2..8, every rank, every integer m and two real m: the pair is
        # feasible on both sides and brackets the closed form within 1e-12
        for d in range(2, 9):
            for rank in range(1, d + 1):
                rho = random_density(d, rng, rank=rank)
                for m in [*range(1, d + 1), *rng.uniform(1.0, d, 2)]:
                    cert = fidelity_certificate(rho, m)
                    g = gram(cert)
                    omega = g[d:, d:]
                    assert np.linalg.norm(g[:d, :d] - rho) <= 1e-12
                    assert np.min(np.linalg.eigvalsh(g)) >= -1e-12
                    assert abs(np.trace(omega).real - 1.0) <= 1e-12
                    assert np.max(np.diag(omega).real) <= 1.0 / m + 1e-12
                    assert abs(np.trace(g[:d, d:]).real - cert.primal) <= 1e-12
                    w = dual_matrix(cert)
                    assert np.min(np.linalg.eigvalsh(w)) >= -1e-12 * np.max(np.abs(w))
                    assert np.all(cert.dual_diag >= cert.mu)
                    # complementary slackness: <W, G> = 0 at an optimal pair
                    assert abs(np.vdot(w, g).real) <= 1e-12 * (1.0 + np.max(np.abs(w)))
                    want = root_closed_form(rho, m)
                    assert cert.primal <= cert.dual + 1e-12
                    assert abs(cert.primal - want) <= 1e-12, (d, rank, m)
                    assert abs(cert.dual - want) <= 1e-12, (d, rank, m)

    def test_fidelity_sdp_self(self, rng):
        # at m = 1 the caps are void, so omega = rho is optimal at every rank
        for d in range(2, 7):
            for rank in (1, d):
                assert assisted_fidelity_sdp(random_density(d, rng, rank=rank), 1) == 1.0

    def test_fidelity_sdp_vs_eig_route(self, rng):
        # the primal omega is a capped state whose Uhlmann fidelity with rho,
        # computed through eigendecompositions, is the certified value
        for _ in range(30):
            d = int(rng.integers(2, 7))
            rho = random_density(d, rng, rank=int(rng.integers(1, d + 1)))
            m = int(rng.integers(1, d + 1))
            cert = fidelity_certificate(rho, m)
            omega = cert.c.conj().T @ cert.c
            assert abs(fidelity(rho, omega) - cert.primal ** 2) <= 1e-10

    @pytest.mark.parametrize("m", [3, 2.5])
    def test_rows_outside_a_small_support(self, m, rng):
        # a support of k = 2 <= m rows sets the water level to 0, and the
        # row outside it takes the trace left over: omega_jj = (1 - k/m) / (d - k)
        embedded = np.zeros((3, 3), dtype=complex)
        embedded[:2, :2] = random_density(2, rng)
        for rho in (np.diag([0.5, 0.5, 0.0]).astype(complex), embedded):
            cert = fidelity_certificate(rho, m)
            assert np.linalg.norm(cert.v, axis=1)[2] == 0.0
            g = gram(cert)
            omega = g[3:, 3:]
            assert np.min(np.linalg.eigvalsh(g)) >= -1e-12
            assert abs(np.trace(omega).real - 1.0) <= 1e-12
            assert np.max(np.diag(omega).real) <= 1.0 / m + 1e-12
            assert abs(omega[2, 2].real - (1.0 - 2 / m) / (3 - 2)) <= 1e-12
            if m == 3:
                bound = assisted_fidelity_bound(rho, m)
                assert abs(cert.primal ** 2 - bound) <= 1e-12
                assert abs(cert.dual ** 2 - bound) <= 1e-12

    def test_infeasible_certificate(self, rng):
        # no d-dimensional state has every diagonal entry below 1/d
        rho = random_density(3, rng)
        with pytest.raises(BadM, match="no 3-dimensional state"):
            fidelity_certificate(rho, 3.5)

    def test_block_cap(self, rng):
        # the certificate has no block cap: the former interior-point solver
        # refused blocks above 256, and d = 130 makes a 260 x 260 G
        rho = random_density(130, rng, rank=40)
        for m in (2, 50, 129.5):
            cert = fidelity_certificate(rho, m)
            assert abs(cert.primal - root_closed_form(rho, m)) <= 1e-12

    def test_problem_rejects_non_hermitian_data(self):
        skew = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NonHermitian):
            fidelity_certificate(skew, 2)


class TestExitReasons:
    """A certificate either closes within 1e-12 or raises."""

    def test_converged(self):
        # eigenvalues 0.5 +- c with the smaller at -5e-11, inside the PSD
        # floor: the pair certifies rho's PSD part (trace 1 + 5e-11), which
        # the reconstruction check allows for
        c = 0.5 + 5e-11
        rho = np.array([[0.5, c], [c, 0.5]], dtype=complex)
        cert = fidelity_certificate(rho, 2)
        assert abs(cert.primal - np.sqrt(1.0 + 5e-11)) <= 1e-12
        assert abs(cert.dual - cert.primal) <= 1e-12

    def test_fallback_needs_the_dual_residual(self, rng):
        # the dual side is an upper bound for every feasible point, not only
        # for the primal point it was built beside: capped states mixed from
        # the primal omega and uniform-diagonal states never exceed it
        for _ in range(10):
            d = int(rng.integers(2, 6))
            rho = random_density(d, rng)
            m = float(rng.uniform(1.0, d))
            cert = fidelity_certificate(rho, m)
            omega = cert.c.conj().T @ cert.c
            for _ in range(5):
                phases = np.exp(2j * np.pi * rng.random(d)) / np.sqrt(d)
                flat = np.outer(phases, phases.conj())  # diagonal 1/d <= 1/m
                s = float(rng.random())
                other = s * omega + (1.0 - s) * flat
                assert fidelity(rho, other) <= cert.dual ** 2 + 1e-10

    def test_infeasible(self, rng):
        rho = random_density(2, rng)
        for m in (0.5, 2.5, float("nan")):
            with pytest.raises(BadM):
                fidelity_certificate(rho, m)

    def test_non_finite_data(self):
        rho = np.array([[0.5, np.nan], [np.nan, 0.5]], dtype=complex)
        with pytest.raises(NumericalFailure):
            fidelity_certificate(rho, 2)


class TestFidelityOverMm:
    def test_member_state_scores_one(self, rng):
        # any state with max diagonal <= 1/m is itself feasible
        rho = random_density(4, rng)
        m = 1.0 / np.max(np.diag(rho).real)
        assert m > 1
        assert assisted_fidelity_sdp(rho, m) >= 1.0 - 1e-12

    def test_qubit_closed_form(self):
        got = assisted_fidelity_sdp(np.diag([0.75, 0.25]).astype(complex), 2)
        assert abs(got - (2 + np.sqrt(3)) / 4) < 1e-12

    def test_qutrit_m3_closed_form(self, rng):
        for _ in range(5):
            rho = random_density(3, rng)
            expect = float(np.sum(np.sqrt(np.diag(rho).real)) ** 2) / 3.0
            assert abs(assisted_fidelity_sdp(rho, 3) - expect) < 1e-12

    def test_low_dim_equals_norm_bound(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 4))
            rho = random_density(d, rng)
            for m in range(2, d + 1):
                bound = mnorm(np.sqrt(np.diag(rho).real), m).value ** 2 / m
                assert abs(assisted_fidelity_sdp(rho, m) - bound) < 1e-12

    def test_continuous_m(self, rng):
        rho = random_density(3, rng)
        vals = [fidelity_certificate(rho, m).primal for m in (1.0, 1.5, 2.0, 2.5, 3.0)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_bad_m(self, rng):
        rho = random_density(3, rng)
        with pytest.raises(BadM):
            assisted_fidelity_sdp(rho, 0.5)
        with pytest.raises(BadM):
            assisted_fidelity_sdp(rho, 3.5)


class TestMinDiagOverBall:
    """theta(eps) = min {max_j omega_jj : F(rho, omega) >= 1 - eps}, through
    the certified capped-diagonal fidelity (the ``ball_theta`` fixture)."""

    def test_eps_zero_anchor(self, rng, ball_theta):
        for _ in range(5):
            d = int(rng.integers(2, 5))
            rho = random_density(d, rng)
            assert abs(ball_theta(rho, 0.0) - np.max(np.diag(rho).real)) < 1e-7

    def test_maximally_coherent_half(self, ball_theta):
        psi = np.full(2, 1 / np.sqrt(2))
        assert abs(ball_theta(np.outer(psi, psi.conj()), 0.0) - 0.5) < 1e-9

    def test_qubit_grid_oracle(self, ball_theta):
        # diag(0.6, 0.4); qubit fidelity closed form tr(rho sigma) + 2 sqrt(det det)
        rho = np.diag([0.6, 0.4]).astype(complex)
        eps = 0.02

        def best_fid(t):
            return 0.6 * t + 0.4 * (1 - t) + 2 * np.sqrt(0.24 * t * (1 - t))

        ts = np.linspace(0.0, 1.0, 400001)
        feas = best_fid(ts) >= 1 - eps
        oracle = float(np.min(np.maximum(ts[feas], 1 - ts[feas])))
        theta = ball_theta(rho, eps)
        assert 0.4 <= theta < 0.6
        assert abs(theta - oracle) < 1e-5

    def test_monotone_in_eps(self, rng, ball_theta):
        for _ in range(3):
            d = int(rng.integers(2, 5))
            rho = random_density(d, rng)
            vals = [ball_theta(rho, eps) for eps in (0.0, 0.02, 0.05, 0.1)]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_eps(self, rng):
        # the ball's level floor(1/theta) is reported by one_shot_rate
        rho = random_density(2, rng)
        for eps in (1.0, -0.1):
            with pytest.raises(ValueError):
                one_shot_rate(rho, eps)
