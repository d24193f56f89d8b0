"""SDP solver certificates and the two problem builders."""

import numpy as np
import pytest

from cohdist.dnorm import mnorm
from cohdist import sdpsolve
from cohdist.errors import BadM, CapExceeded, DimMismatch, IllPosed, NonHermitian, NumericalFailure
from cohdist.hermat import delta_vector, fidelity, maximally_coherent, random_density
from cohdist.sdpsolve import (
    SdpProblem,
    build_fidelity,
    build_fidelity_over_Mm,
    build_min_diag_over_ball,
    solve,
)


def one():
    return np.ones((1, 1), dtype=complex)


class TestSolver:
    def test_pure_state_optimum(self):
        prob = SdpProblem(
            block_dims=[2],
            objective=[np.diag([1.0, 0.0]).astype(complex)],
            constraints=[{0: np.eye(2, dtype=complex)}],
            rhs=np.array([1.0]),
        )
        sol = solve(prob)
        assert sol.status == "optimal"
        assert abs(sol.primal_value - 1.0) < 1e-7

    def test_certificates(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 4))
            prob = build_fidelity(random_density(d, rng), random_density(d, rng))
            sol = solve(prob)
            assert sol.status == "optimal"
            assert sol.gap <= 1e-7 * (1.0 + abs(sol.primal_value))
            assert sol.primal_residual <= 1e-8 * (1.0 + np.max(np.abs(prob.rhs)))
            for blk in sol.primal_blocks:
                assert np.min(np.linalg.eigvalsh(blk)) >= -1e-9
            # weak duality in max form: dual >= primal
            assert sol.dual_value >= sol.primal_value - 1e-9

    def test_fidelity_sdp_self(self, rng):
        rho = random_density(3, rng)
        sol = solve(build_fidelity(rho, rho))
        assert abs(sol.primal_value ** 2 - 1.0) < 1e-6

    def test_fidelity_sdp_vs_eig_route(self, rng):
        for _ in range(50):
            d = 2 if rng.random() < 0.5 else 3
            r, s = random_density(d, rng), random_density(d, rng)
            sol = solve(build_fidelity(r, s))
            assert sol.status == "optimal"
            assert abs(sol.primal_value ** 2 - fidelity(r, s)) <= 1e-6

    def test_ill_posed_duplicate_constraint(self):
        con = {0: np.eye(2, dtype=complex)}
        prob = SdpProblem(
            block_dims=[2],
            objective=[np.eye(2, dtype=complex)],
            constraints=[con, {0: con[0].copy()}],
            rhs=np.array([1.0, 1.0]),
        )
        with pytest.raises(IllPosed):
            solve(prob)

    def test_infeasible_certificate(self):
        prob = SdpProblem(
            block_dims=[1],
            objective=[None],
            constraints=[{0: one()}],
            rhs=np.array([-1.0]),
        )
        assert solve(prob).status == "infeasible"

    def test_block_cap(self):
        with pytest.raises(CapExceeded):
            solve(SdpProblem(block_dims=[300], objective=[None], constraints=[], rhs=np.array([])))

    def test_problem_rejects_non_hermitian_data(self):
        skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NonHermitian):
            SdpProblem(block_dims=[2], objective=[skew],
                       constraints=[{0: np.eye(2, dtype=complex)}], rhs=np.array([1.0]))
        with pytest.raises(NonHermitian):
            SdpProblem(block_dims=[2], objective=[None],
                       constraints=[{0: skew}], rhs=np.array([1.0]))


def _herm_rand(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g + g.conj().T


def _multi_block_problem(rng, dims=(3, 1, 4, 1, 2), k=14):
    """Random constraints over 1x1 and larger blocks: each touches the 4x4
    block (which keeps them independent) and up to two others."""
    cons = []
    for _ in range(k):
        others = rng.choice([0, 1, 3, 4], size=int(rng.integers(0, 3)), replace=False)
        cons.append({int(b): _herm_rand(dims[b], rng) for b in [2, *others]})
    return SdpProblem(block_dims=list(dims), objective=[None] * len(dims),
                      constraints=cons, rhs=rng.standard_normal(k))


def _inner(a, b):
    return float(np.vdot(a, b).real)


class TestStackedOperator:
    """The stacked constraint operator against per-constraint loops."""

    def test_apply_and_adjointness(self, rng):
        for _ in range(5):
            prob = _multi_block_problem(rng)
            ops, k = sdpsolve._stack(prob), prob.rhs.size
            xs = [_herm_rand(d, rng) for d in prob.block_dims]
            y = rng.standard_normal(k)
            ax = sdpsolve._apply(ops, xs, k)
            expect = [sum(_inner(m, xs[b]) for b, m in con.items()) for con in prob.constraints]
            assert np.allclose(ax, expect, rtol=1e-13, atol=1e-12)
            aty = sdpsolve._adjoint(ops, y, prob.block_dims)
            lhs = float(ax @ y)
            rhs = sum(_inner(xl, al) for xl, al in zip(xs, aty))
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    def test_schur_matches_reference(self, rng):
        for _ in range(5):
            prob = _multi_block_problem(rng)
            ops, k = sdpsolve._stack(prob), prob.rhs.size
            ws = []
            for d in prob.block_dims:
                g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                ws.append(g @ g.conj().T + np.eye(d))
            ref = np.zeros((k, k))
            for i, ci in enumerate(prob.constraints):
                for j, cj in enumerate(prob.constraints):
                    ref[i, j] = sum(_inner(a, ws[b] @ cj[b] @ ws[b])
                                    for b, a in ci.items() if b in cj)
            got = sdpsolve._schur(ops, ws, k)
            assert np.array_equal(got, got.T)
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))

    def test_dependent_multi_block_constraints_ill_posed(self, rng):
        prob = _multi_block_problem(rng)
        first, second = prob.constraints[0], prob.constraints[1]
        combo = {b: first.get(b, 0) + 2.0 * second.get(b, 0) for b in {*first, *second}}
        for extra in ({b: m.copy() for b, m in first.items()}, combo):
            dup = SdpProblem(block_dims=prob.block_dims, objective=prob.objective,
                             constraints=prob.constraints + [extra],
                             rhs=np.append(prob.rhs, 1.0))
            with pytest.raises(IllPosed):
                solve(dup)

    def test_validation_names_the_offending_constraint(self, rng):
        prob = _multi_block_problem(rng)
        cons = [dict(c) for c in prob.constraints]
        cons[5][2] = cons[5][2] + np.triu(np.ones((4, 4)), 1)
        with pytest.raises(NonHermitian, match="constraint 5 block 2 "):
            SdpProblem(block_dims=prob.block_dims, objective=prob.objective,
                       constraints=cons, rhs=prob.rhs)
        cons[5][2] = np.eye(5, dtype=complex)
        with pytest.raises(DimMismatch):
            SdpProblem(block_dims=prob.block_dims, objective=prob.objective,
                       constraints=cons, rhs=prob.rhs)

    def test_multi_block_solve_certifies(self, rng):
        # feasible at a positive-definite point, bounded by a total-trace constraint
        base = _multi_block_problem(rng, k=10)
        dims = base.block_dims
        cons = base.constraints + [{b: np.eye(d, dtype=complex) for b, d in enumerate(dims)}]
        prob = SdpProblem(block_dims=dims, objective=[_herm_rand(d, rng) for d in dims],
                          constraints=cons, rhs=np.zeros(len(cons)))
        point = [np.eye(d) + 0.1 * _herm_rand(d, rng) / d for d in dims]
        prob.rhs = sdpsolve._apply(sdpsolve._stack(prob), point, len(cons))
        sol = solve(prob)
        assert sol.status == "optimal" and sol.exit_reason == "converged"
        assert sol.gap <= 1e-7 * (1.0 + abs(sol.primal_value))
        for blk in sol.primal_blocks:
            assert np.min(np.linalg.eigvalsh(blk)) >= -1e-9


def _trace_only(max_iter):
    """max 0 s.t. tr X = 2: the identity start is primal feasible with gap 0,
    so only the dual residual is wrong until the run moves."""
    prob = SdpProblem(block_dims=[2], objective=[None],
                      constraints=[{0: np.eye(2, dtype=complex)}], rhs=np.array([2.0]))
    return solve(prob, max_iter=max_iter)


class TestExitReasons:
    def test_converged(self, rng):
        sol = solve(build_fidelity(random_density(2, rng), random_density(2, rng)))
        assert (sol.status, sol.exit_reason) == ("optimal", "converged")

    def test_max_iter(self, rng):
        sol = solve(build_fidelity(random_density(3, rng), random_density(3, rng)), max_iter=3)
        assert (sol.status, sol.exit_reason, sol.iterations) == ("max_iter", "max_iter", 3)

    def test_certified_from_best_iterate(self, rng):
        # cut the run one iterate short: the last evaluated iterate meets the
        # looser contract though not the stopping target
        for _ in range(3):
            prob = build_fidelity(random_density(3, rng), random_density(3, rng))
            full = solve(prob)
            sol = solve(prob, max_iter=full.iterations)
            assert (sol.status, sol.exit_reason) == ("optimal", "certified_from_best_iterate")
            assert sol.primal_residual <= 1e-8 * (1.0 + np.max(np.abs(prob.rhs)))
            assert sol.dual_residual <= 1e-8 * (1.0 + 0.5)
            assert sol.gap <= 1e-7 * (1.0 + abs(sol.primal_value))
            assert abs(sol.primal_value - full.primal_value) <= 1e-7

    def test_fallback_needs_the_dual_residual(self):
        # the best iterate has zero primal residual and zero gap but dual
        # residual 1: it must not be certified
        sol = _trace_only(max_iter=1)
        assert sol.dual_residual == 1.0
        assert (sol.status, sol.exit_reason) == ("max_iter", "max_iter")
        assert _trace_only(max_iter=300).exit_reason == "converged"

    def test_stalled(self):
        # weakly infeasible: X_11 = 0 and 2 Re X_12 = 2 admit no PSD X, and
        # no improving ray proves it
        e11 = np.diag([1.0, 0.0]).astype(complex)
        e12 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        prob = SdpProblem(block_dims=[2], objective=[None], constraints=[{0: e11}, {0: e12}],
                          rhs=np.array([0.0, 2.0]))
        sol = solve(prob)
        assert (sol.status, sol.exit_reason) == ("max_iter", "stalled")
        assert sol.iterations < 300

    def test_nonfinite_direction(self):
        # unbounded: max tr X s.t. X_11 = X_22; the iterates overflow
        prob = SdpProblem(block_dims=[2], objective=[np.eye(2, dtype=complex)],
                          constraints=[{0: np.diag([1.0, -1.0]).astype(complex)}],
                          rhs=np.array([0.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve(prob)
        assert (sol.status, sol.exit_reason) == ("max_iter", "nonfinite_direction")

    def test_infeasible(self):
        prob = SdpProblem(block_dims=[1], objective=[None], constraints=[{0: one()}],
                          rhs=np.array([-1.0]))
        sol = solve(prob)
        assert (sol.status, sol.exit_reason) == ("infeasible", "infeasible")

    def test_non_finite_data(self):
        prob = SdpProblem(block_dims=[2], objective=[None],
                          constraints=[{0: np.eye(2, dtype=complex)}], rhs=np.array([np.nan]))
        with pytest.raises(NumericalFailure):
            solve(prob)


class TestFidelityOverMm:
    def test_member_state_scores_one(self, rng):
        # any state with max diagonal <= 1/m is itself feasible
        rho = random_density(4, rng)
        m = 1.0 / np.max(np.diag(rho).real) - 1e-6
        assert m > 1
        sol = solve(build_fidelity_over_Mm(rho, m))
        assert abs(sol.primal_value ** 2 - 1.0) < 1e-6

    def test_qubit_closed_form(self):
        sol = solve(build_fidelity_over_Mm(np.diag([0.75, 0.25]).astype(complex), 2))
        assert abs(sol.primal_value ** 2 - (2 + np.sqrt(3)) / 4) < 1e-7

    def test_qutrit_m3_closed_form(self, rng):
        for _ in range(5):
            rho = random_density(3, rng)
            sol = solve(build_fidelity_over_Mm(rho, 3))
            expect = float(np.sum(np.sqrt(np.diag(rho).real)) ** 2) / 3.0
            assert abs(sol.primal_value ** 2 - expect) < 1e-6

    def test_low_dim_equals_norm_bound(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 4))
            rho = random_density(d, rng)
            for m in range(2, d + 1):
                sol = solve(build_fidelity_over_Mm(rho, m))
                bound = mnorm(delta_vector(rho), m).value ** 2 / m
                assert abs(sol.primal_value ** 2 - bound) < 1e-6

    def test_continuous_m(self, rng):
        rho = random_density(3, rng)
        vals = []
        for m in (1.0, 1.5, 2.0, 2.5, 3.0):
            sol = solve(build_fidelity_over_Mm(rho, m))
            assert sol.status == "optimal"
            vals.append(sol.primal_value)
        assert all(b <= a + 1e-7 for a, b in zip(vals, vals[1:]))

    def test_bad_m(self, rng):
        rho = random_density(3, rng)
        with pytest.raises(BadM):
            build_fidelity_over_Mm(rho, 0.5)
        with pytest.raises(BadM):
            build_fidelity_over_Mm(rho, 3.5)


class TestMinDiagOverBall:
    def test_eps_zero_anchor(self, rng):
        for _ in range(5):
            d = int(rng.integers(2, 5))
            rho = random_density(d, rng)
            sol = solve(build_min_diag_over_ball(rho, 0.0))
            assert abs(sol.primal_value - np.max(np.diag(rho).real)) < 1e-7

    def test_maximally_coherent_half(self):
        psi = maximally_coherent(2)
        sol = solve(build_min_diag_over_ball(np.outer(psi, psi.conj()), 0.0))
        assert abs(sol.primal_value - 0.5) < 1e-9

    def test_qubit_grid_oracle(self):
        # diag(0.6, 0.4); qubit fidelity closed form tr(rho sigma) + 2 sqrt(det det)
        rho = np.diag([0.6, 0.4]).astype(complex)
        eps = 0.02

        def best_fid(t):
            return 0.6 * t + 0.4 * (1 - t) + 2 * np.sqrt(0.24 * t * (1 - t))

        ts = np.linspace(0.0, 1.0, 400001)
        feas = best_fid(ts) >= 1 - eps
        oracle = float(np.min(np.maximum(ts[feas], 1 - ts[feas])))
        sol = solve(build_min_diag_over_ball(rho, eps))
        assert sol.status == "optimal"
        assert 0.4 <= sol.primal_value < 0.6
        assert abs(sol.primal_value - oracle) < 1e-5

    def test_monotone_in_eps(self, rng):
        for _ in range(3):
            d = int(rng.integers(2, 5))
            rho = random_density(d, rng)
            vals = []
            for eps in (0.0, 0.02, 0.05, 0.1):
                sol = solve(build_min_diag_over_ball(rho, eps))
                assert sol.status == "optimal"
                vals.append(sol.primal_value)
            assert all(b <= a + 1e-7 for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_eps(self, rng):
        rho = random_density(2, rng)
        with pytest.raises(ValueError):
            build_min_diag_over_ball(rho, 1.0)
        with pytest.raises(ValueError):
            build_min_diag_over_ball(rho, -0.1)
