"""Decompositions, search, steering, and the protocol Monte Carlo."""

import numpy as np
import pytest

from cohdist.distill import assisted_fidelity_sdp
from cohdist.dnorm import mnorm, pure_distillation_fidelity
from cohdist.ensembles import (
    _POLL_CHUNK,
    _WEIGHT_FLOOR,
    Ensemble,
    MaxAvgDiagEntropy,
    MaxAvgPureFidelity,
    MinMaxInfNormSq,
    _eigen_basis,
    _ensemble_from_theta,
    _pattern_search,
    ensemble_search,
    purify,
    random_decomposition,
    same_diagonal_decomposition,
    simulate_protocol,
    steering_measurement,
)
from cohdist.errors import DimTooLarge, IncompatibleEnsemble, NotAPurification
from cohdist.hermat import delta_vector, random_density, shannon_entropy


def diag_residual(ens, rho):
    diag = np.diag(rho).real
    return max(float(np.max(np.abs(np.abs(a) ** 2 - diag))) for a in ens.atoms)


class TestSameDiagonalDecomposition:
    def test_maximally_mixed_qubit(self):
        ens = same_diagonal_decomposition(np.eye(2, dtype=complex) / 2)
        assert np.allclose(np.sort(ens.weights), [0.5, 0.5])
        plus = np.full(2, 1 / np.sqrt(2))
        overlaps = np.abs(ens.atoms @ plus) ** 2
        assert np.allclose(np.sort(overlaps), [0.0, 1.0], atol=1e-12)

    def test_pure_state_single_atom(self, rng):
        psi = np.array([0.6, 0.8j, 0.0])
        rho = np.outer(psi, psi.conj())
        ens = same_diagonal_decomposition(rho)
        assert len(ens.weights) == 1
        assert ens.reconstruction_residual(rho) < 1e-10

    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_residuals(self, dim, rng):
        for trial in range(40):
            rho = random_density(dim, rng)
            ens = same_diagonal_decomposition(rho, seed=trial)
            assert ens.reconstruction_residual(rho) <= 1e-8
            assert diag_residual(ens, rho) <= 1e-8
            assert len(ens.weights) <= 9
            assert abs(ens.weights.sum() - 1.0) < 1e-10
            assert np.min(ens.weights) >= 1e-12

    def test_zero_diagonal_support_reduction(self, rng):
        rho = np.zeros((3, 3), dtype=complex)
        rho[:2, :2] = random_density(2, rng)
        ens = same_diagonal_decomposition(rho)
        assert ens.reconstruction_residual(rho) <= 1e-8
        assert diag_residual(ens, rho) <= 1e-8
        assert np.all(np.abs(ens.atoms[:, 2]) < 1e-12)

    def test_rank_deficient_qutrit(self, rng):
        rho = random_density(3, rng, rank=2)
        ens = same_diagonal_decomposition(rho)
        assert ens.reconstruction_residual(rho) <= 1e-8
        assert diag_residual(ens, rho) <= 1e-8

    def test_dim_four_rejected(self, rng):
        with pytest.raises(DimTooLarge):
            same_diagonal_decomposition(random_density(4, rng))


class TestEnsembleSearch:
    def test_pure_input_single_atom(self, rng):
        psi = np.array([0.8, 0.6j])
        rho = np.outer(psi, psi.conj())
        ens, val = ensemble_search(rho, MaxAvgPureFidelity(2), atoms_cap=2,
                                   restarts=2, max_evals=200)
        assert abs(val - pure_distillation_fidelity(psi, 2)) < 1e-9
        scores = [pure_distillation_fidelity(a, 2) for a in ens.atoms]
        assert np.allclose(scores, scores[0])

    def test_low_dim_reaches_norm_bound(self, rng):
        for trial in range(8):
            d = 2 if trial % 2 == 0 else 3
            rho = random_density(d, rng)
            m = 2
            _, val = ensemble_search(rho, MaxAvgPureFidelity(m), atoms_cap=d + 1,
                                     seed=trial, restarts=3, max_evals=400)
            bound = mnorm(delta_vector(rho), m).value ** 2 / m
            assert val <= bound + 1e-9
            assert bound - val <= 1e-5

    def test_diag_entropy_reaches_diagonal_entropy(self, rng):
        rho = np.diag([0.75, 0.25]).astype(complex)
        _, val = ensemble_search(rho, MaxAvgDiagEntropy(), atoms_cap=3,
                                 restarts=3, max_evals=400)
        expect = shannon_entropy([0.75, 0.25])
        assert abs(expect - 0.8112781244591328) < 1e-12
        assert abs(val - expect) <= 1e-4

    def test_min_objective_is_upper_bound(self, rng):
        rho = random_density(4, rng)
        ens, val = ensemble_search(rho, MinMaxInfNormSq(), atoms_cap=5,
                                   restarts=3, max_evals=600)
        assert val >= np.max(np.diag(rho).real) - 1e-9
        worst = max(float(np.max(np.abs(a) ** 2)) for a in ens.atoms)
        assert abs(worst - val) < 1e-12

    def test_reconstruction_invariant(self, rng):
        for trial in range(6):
            d = int(rng.integers(2, 5))
            rho = random_density(d, rng)
            ens, _ = ensemble_search(rho, MinMaxInfNormSq(), atoms_cap=d + 1,
                                     seed=trial, restarts=2, max_evals=150)
            assert ens.reconstruction_residual(rho) <= 1e-8

    def test_decomposition_optimum_matches_sdp(self, rng):
        # averaging pure-state fidelities over the best decomposition equals
        # maximizing fidelity over the capped set (d <= 3), so the ensemble
        # search and the SDP must meet
        for trial in range(50):
            d = 2 if trial % 2 == 0 else 3
            rho = random_density(d, rng)
            m = int(rng.integers(2, d + 1))
            _, val = ensemble_search(rho, MaxAvgPureFidelity(m), atoms_cap=d + 1,
                                     seed=trial, restarts=2, max_evals=250)
            assert abs(val - assisted_fidelity_sdp(rho, m)) <= 1e-5

    def test_atoms_cap_below_rank_rejected(self, rng):
        with pytest.raises(ValueError):
            ensemble_search(random_density(3, rng), MinMaxInfNormSq(), atoms_cap=2)


OBJECTIVES = [MaxAvgPureFidelity(2), MaxAvgPureFidelity(3), MinMaxInfNormSq(), MaxAvgDiagEntropy()]


def loop_evaluate(objective, weights, atoms):
    """Per-atom reference: atoms above the weight floor, taken in order."""
    total = 0.0
    for w, a in zip(weights, atoms):
        if w <= _WEIGHT_FLOOR:
            continue
        if isinstance(objective, MaxAvgPureFidelity):
            total += w * pure_distillation_fidelity(a, objective.m)
        elif isinstance(objective, MinMaxInfNormSq):
            total = max(total, float(np.max(np.abs(a) ** 2)))
        else:
            p = np.abs(a) ** 2
            total += w * shannon_entropy(p / p.sum())
    return total


def sequential_pattern_search(cost, theta0, budget, step0=0.3, step_min=1e-7):
    """The poll one candidate per cost call, which the chunked poll must match."""
    theta = theta0.astype(float).copy()
    best = cost(theta[None, :])[0]
    evals = 1
    step = step0
    n = theta.size
    while evals < budget and step > step_min:
        improved = False
        for idx in range(n):
            if evals >= budget:
                break
            for sgn in (1.0, -1.0):
                cand = theta.copy()
                cand[idx] += sgn * step
                c = cost(cand[None, :])[0]
                evals += 1
                if c < best - 1e-15:
                    theta, best = cand, c
                    improved = True
                    break
                if evals >= budget:
                    break
        if not improved:
            step *= 0.5
    return theta, best


def random_stack(rng, d, batch):
    """(batch, d + 1) weights and atoms of random exact decompositions of one
    state, with atoms at or below the weight floor in some ensembles."""
    basis, _, _ = _eigen_basis(random_density(d, rng))
    thetas = rng.standard_normal((batch, 2 * (d + 1) * basis.shape[1]))
    weights, atoms = _ensemble_from_theta(thetas, d + 1, basis)
    weights[0, 1] = 0.0                     # a masked atom left unnormalized
    weights[1, 2] = _WEIGHT_FLOOR            # at the floor, atom zeroed
    atoms[1, 2] = 0.0
    weights[2, :] = _WEIGHT_FLOOR / 2        # nothing above the floor
    return basis, thetas, weights, atoms


class TestStackedEvaluation:
    @pytest.mark.parametrize("d", [4, 6])
    def test_builder_rows_match_single(self, rng, d):
        basis, thetas, _, _ = random_stack(rng, d, 6)
        weights, atoms = _ensemble_from_theta(thetas, d + 1, basis)
        for b in range(thetas.shape[0]):
            w1, a1 = _ensemble_from_theta(thetas[b : b + 1], d + 1, basis)
            assert np.array_equal(w1[0], weights[b]) and np.array_equal(a1[0], atoms[b])

    @pytest.mark.filterwarnings("error")  # masked zero atoms must not divide 0 by 0
    @pytest.mark.parametrize("objective", OBJECTIVES, ids=repr)
    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_stack_matches_each_ensemble(self, rng, objective, d):
        _, _, weights, atoms = random_stack(rng, d, 6)
        values = objective.evaluate(weights, atoms)
        assert values.shape == (6,)
        nested = objective.evaluate(weights.reshape(2, 3, -1), atoms.reshape(2, 3, d + 1, d))
        assert np.array_equal(nested.ravel(), values)
        assert values[2] == 0.0
        for b in range(6):
            assert objective.evaluate(weights[b], atoms[b]) == values[b]
            # fewer than 8 atoms: numpy sums them in order, as the loop does
            assert loop_evaluate(objective, weights[b], atoms[b]) == values[b]


class TestChunkedPoll:
    @pytest.mark.parametrize("objective", OBJECTIVES[1:], ids=repr)
    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_matches_sequential_poll(self, rng, objective, d):
        basis, _, _ = _eigen_basis(random_density(d, rng))
        sense = 1.0 if objective.sense == "min" else -1.0
        sizes = []

        def cost(thetas):
            sizes.append(thetas.shape[0])
            weights, atoms = _ensemble_from_theta(thetas, d + 1, basis)
            return sense * objective.evaluate(weights, atoms)

        theta0 = rng.standard_normal(2 * (d + 1) * basis.shape[1])
        for budget in (77, 400):
            sizes.clear()
            theta, best = _pattern_search(cost, theta0, budget)
            if budget == 77:
                assert sizes[-1] < _POLL_CHUNK  # the budget ends inside a chunk
            ref_theta, ref_best = sequential_pattern_search(cost, theta0, budget)
            assert np.array_equal(theta, ref_theta)
            assert best == ref_best

    def test_step_halving_to_the_floor(self, rng):
        target = rng.standard_normal(11)

        def cost(thetas):
            return np.sum((thetas - target) ** 2, axis=1)

        theta0 = np.zeros(11)
        for budget in (5, 83, 20_000):
            theta, best = _pattern_search(cost, theta0, budget)
            ref_theta, ref_best = sequential_pattern_search(cost, theta0, budget)
            assert np.array_equal(theta, ref_theta)
            assert best == ref_best
        assert best < 1e-12


class TestSteering:
    def test_two_qubit_conjugate_basis(self):
        # purification of I/2 is the uniform joint state; steering to the
        # |+>/|-> ensemble measures the assisting side in the same basis
        rho = np.eye(2, dtype=complex) / 2
        target = same_diagonal_decomposition(rho)
        pur = purify(rho)
        sm = steering_measurement(pur, target)
        assert sm.remainder is None
        assert np.max(np.abs(sm.total() - np.eye(2))) < 1e-9
        c = pur.reshape(2, 2)
        for i, op in enumerate(sm.operators):
            w, u = np.linalg.eigh(op)
            mvec = u[:, -1] * np.sqrt(max(w[-1], 0.0))
            chi = mvec.conj() @ c
            branch = np.outer(chi, chi.conj())
            expect = target.weights[i] * np.outer(target.atoms[i], target.atoms[i].conj())
            assert np.linalg.norm(branch - expect) <= 1e-8
            # conjugate-basis projector: equal weights on both basis states
            assert np.allclose(np.diag(op).real, [0.5, 0.5], atol=1e-9)

    def test_eigen_ensemble_schmidt_basis(self, rng):
        rho = random_density(3, rng)
        w, u = np.linalg.eigh(rho)
        target = Ensemble(weights=w, atoms=u.T)
        pur = purify(rho)
        sm = steering_measurement(pur, target)
        assert np.max(np.abs(sm.total() - np.eye(3))) < 1e-9
        for op in sm.operators:
            evals = np.linalg.eigvalsh(op)
            assert evals[-1] > 1 - 1e-8  # projectors onto the Schmidt basis
            assert np.all(evals[:-1] < 1e-8)

    def test_random_qutrit_same_diagonal(self, rng):
        for trial in range(5):
            rho = random_density(3, rng)
            target = same_diagonal_decomposition(rho, seed=trial)
            pur = purify(rho)
            sm = steering_measurement(pur, target)
            assert np.max(np.abs(sm.total() - np.eye(3))) <= 1e-9
            c = pur.reshape(3, 3)
            for i, op in enumerate(sm.operators):
                w, u = np.linalg.eigh(op)
                mvec = u[:, -1] * np.sqrt(max(w[-1], 0.0))
                chi = mvec.conj() @ c
                expect = target.weights[i] * np.outer(target.atoms[i], target.atoms[i].conj())
                assert np.linalg.norm(np.outer(chi, chi.conj()) - expect) <= 1e-8

    def test_rejects_unnormalized(self, rng):
        rho = random_density(2, rng)
        target = same_diagonal_decomposition(rho)
        with pytest.raises(NotAPurification):
            steering_measurement(np.ones(4), target)

    def test_rejects_wrong_reduced_state(self, rng):
        rho = random_density(2, rng)
        other = random_density(2, rng)
        target = same_diagonal_decomposition(other)
        with pytest.raises(IncompatibleEnsemble):
            steering_measurement(purify(rho), target)


class TestSimulateProtocol:
    def test_single_atom_exact(self):
        psi = np.array([0.8, 0.6])
        ens = Ensemble(weights=np.array([1.0]), atoms=psi[None, :])
        mean, se = simulate_protocol(np.outer(psi, psi.conj()), ens, 2, 1000, seed=1)
        assert mean == pure_distillation_fidelity(psi, 2)
        assert se == 0.0

    def test_maximally_mixed_scores_one(self):
        rho = np.eye(2, dtype=complex) / 2
        ens = same_diagonal_decomposition(rho)
        mean, se = simulate_protocol(rho, ens, 2, 10 ** 5, seed=3)
        assert mean == 1.0
        assert se == 0.0

    def test_same_diagonal_matches_closed_form(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        ens = same_diagonal_decomposition(rho)
        mean, se = simulate_protocol(rho, ens, 2, 10 ** 5, seed=5)
        assert abs(mean - (2 + np.sqrt(3)) / 4) <= max(3 * se, 1e-12)

    def test_seed_determinism(self, rng):
        rho = random_density(3, rng)
        ens = random_decomposition(rho, 4, seed=2)
        a = simulate_protocol(rho, ens, 2, 10 ** 4, seed=11)
        b = simulate_protocol(rho, ens, 2, 10 ** 4, seed=11)
        assert a == b

    def test_converges_to_ensemble_average(self, rng):
        for trial in range(4):
            d = 2 if trial % 2 == 0 else 3
            rho = random_density(d, rng)
            ens = random_decomposition(rho, d + 1, seed=trial)
            analytic = sum(
                w * pure_distillation_fidelity(a, 2)
                for w, a in zip(ens.weights, ens.atoms)
            )
            mean, se = simulate_protocol(rho, ens, 2, 10 ** 6, seed=trial)
            assert abs(mean - analytic) <= max(4 * se, 1e-12)

    def test_rejects_mismatched_ensemble(self, rng):
        rho = random_density(2, rng)
        ens = same_diagonal_decomposition(random_density(2, rng))
        with pytest.raises(IncompatibleEnsemble):
            simulate_protocol(rho, ens, 2, 100, seed=0)
