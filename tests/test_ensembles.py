"""Decompositions, search, steering, and the protocol Monte Carlo."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from cohdist import ensembles
from cohdist.distill import assisted_fidelity_sdp, fidelity_certificate
from cohdist.dnorm import mnorm, pure_distillation_fidelity
from cohdist.ensembles import (
    _POLL_CHUNK,
    _WEIGHT_FLOOR,
    Ensemble,
    MaxAvgDiagEntropy,
    MaxAvgPureFidelity,
    MinMaxInfNormSq,
    _amplitudes,
    _eigen_basis,
    _ensemble,
    _rotation_search,
    _squared,
    ensemble_search,
    purify,
    random_decomposition,
    same_diagonal_decomposition,
    simulate_protocol,
    steering_measurement,
)
from cohdist.errors import (
    DimTooLarge,
    IncompatibleEnsemble,
    NotAPurification,
    NotDistribution,
    NumericalFailure,
)
from cohdist.hermat import random_density, shannon_entropy


def diag_residual(ens, rho):
    diag = np.diag(rho).real
    return max(float(np.max(np.abs(np.abs(a) ** 2 - diag))) for a in ens.atoms)


def kernel_projector(kernel):
    """Normalized rank-2 projector onto the complement of ``kernel``."""
    k = np.asarray(kernel, dtype=complex)
    k /= np.linalg.norm(k)
    return (np.eye(3) - np.outer(k, k.conj())) / 2


def real_rank2_correlation():
    g = np.random.default_rng(0).standard_normal((3, 2))
    c = g @ g.T
    root = np.sqrt(np.diag(c))
    return (c / np.outer(root, root) / 3).astype(complex)


QUTRIT_EDGE_CASES = {
    "real-rank2-correlation": real_rank2_correlation(),
    "kernel-0,1,-1": kernel_projector([0, 1, -1]),
    "kernel-1,0,-i": kernel_projector([1, 0, -1j]),
    "kernel-1,1,0": kernel_projector([1, 1, 0]),
    "maximally-mixed": np.eye(3, dtype=complex) / 3,
}


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
        states = [random_density(dim, rng) for _ in range(40)]
        if dim == 3:
            # a third diagonal entry near 1e-14: the off-diagonals beside it
            # reach 1e-7, so dropping it from the support misses the target
            tiny = np.diag([1.0, 1.0, np.sqrt(1e-13)])
            stream = np.random.default_rng(0)
            for i in range(600):
                rho = tiny @ random_density(3, stream, rank=1 + i % 3) @ tiny
                states.append(rho / np.trace(rho).real)
        for rho in states:
            ens = same_diagonal_decomposition(rho)
            assert ens.reconstruction_residual(rho) <= 1e-8
            assert diag_residual(ens, rho) <= 1e-8
            assert len(ens.weights) <= dim
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

    @pytest.mark.parametrize("name", list(QUTRIT_EDGE_CASES))
    def test_qutrit_edge_cases(self, name):
        rho = QUTRIT_EDGE_CASES[name]
        ens = same_diagonal_decomposition(rho)
        assert ens.reconstruction_residual(rho) <= 1e-8
        assert diag_residual(ens, rho) <= 1e-8
        assert len(ens.weights) <= np.linalg.matrix_rank(rho, tol=1e-9)

    @pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7])
    def test_near_rank_two_qutrits(self, eps):
        # full rank but close to rank 2: peeling the largest piece first
        # leaves a tiny remainder that loses the diagonal when rescaled
        rng = np.random.default_rng(0)
        for _ in range(20):
            rho = (1 - eps) * random_density(3, rng, rank=2) + eps * random_density(3, rng)
            ens = same_diagonal_decomposition(rho)
            assert ens.reconstruction_residual(rho) <= 1e-8
            assert diag_residual(ens, rho) <= 1e-8
            assert len(ens.weights) <= 3

    def test_deterministic(self, rng):
        for rho in (random_density(3, rng), random_density(3, rng, rank=2),
                    QUTRIT_EDGE_CASES["maximally-mixed"]):
            a = same_diagonal_decomposition(rho)
            b = same_diagonal_decomposition(rho)
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.atoms, b.atoms)

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
            bound = mnorm(np.sqrt(np.diag(rho).real), m).value ** 2 / m
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

    def test_search_never_exceeds_certified_upper_side(self, rng):
        # an exact decomposition's average fidelity is feasible for the
        # capped-diagonal SDP, so no search can pass the dual side of its
        # checked optimal pair; small budgets, every m, d = 4..8
        for d in range(4, 9):
            rho = random_density(d, rng, rank=int(rng.integers(1, d + 1)))
            for m in range(1, d + 1):
                _, val = ensemble_search(rho, MaxAvgPureFidelity(m), atoms_cap=d + 1,
                                         seed=m, restarts=1, max_evals=64)
                assert val <= fidelity_certificate(rho, m).dual ** 2 + 1e-12, (d, m)

    def test_atoms_cap_below_rank_rejected(self, rng):
        with pytest.raises(ValueError):
            ensemble_search(random_density(3, rng), MinMaxInfNormSq(), atoms_cap=2)


OBJECTIVES = [MaxAvgPureFidelity(2), MaxAvgPureFidelity(3), MinMaxInfNormSq(), MaxAvgDiagEntropy()]


def loop_evaluate(objective, probs):
    """Per-atom reference on the squared amplitudes: atoms above the weight
    floor, taken in order."""
    total = 0.0
    for p in probs:
        w = p.sum()
        if w <= _WEIGHT_FLOOR:
            continue
        if isinstance(objective, MaxAvgPureFidelity):
            total += pure_distillation_fidelity(np.sqrt(p), objective.m)
        elif isinstance(objective, MinMaxInfNormSq):
            total = max(total, float(np.max(p) / w))
        else:
            pos = p[p > 0]
            total += w * np.log2(w) - np.sum(pos * np.log2(pos))
    return total


def atom_loop_evaluate(objective, amps):
    """Independent reference on normalized atoms: weight w = ||amps_i||^2 and
    atom amps_i / sqrt(w), atoms at or below the weight floor skipped."""
    total = 0.0
    for u in amps:
        w = float(np.sum(np.abs(u) ** 2))
        if w <= _WEIGHT_FLOOR:
            continue
        a = u / np.sqrt(w)
        if isinstance(objective, MaxAvgPureFidelity):
            total += w * pure_distillation_fidelity(a, objective.m)
        elif isinstance(objective, MinMaxInfNormSq):
            total = max(total, float(np.max(np.abs(a) ** 2)))
        else:
            p = np.abs(a) ** 2
            total += w * shannon_entropy(p / p.sum())
    return total


def random_stack(rng, d, batch, *, normalized=False):
    """Random exact decompositions of one state into d + 1 atoms: the
    (batch, d + 1, d) amplitudes and their squares.

    Ensemble 0 has a zero atom and ensemble 1 an atom exactly at the weight
    floor, with the weight they lose moved onto atom 0, so every weight sum
    stays 1.  In ensemble 2 no atom is above the floor, or, if
    ``normalized``, one basis-state atom has all the weight, so that the
    whole stack passes the entropy objective's check.  Either way each
    objective scores ensemble 2 as 0.
    """
    basis = _eigen_basis(random_density(d, rng))
    thetas = rng.standard_normal((batch, 2 * (d + 1) * basis.shape[1]))
    amps = _amplitudes(thetas, d + 1, basis)
    weights = _squared(amps).sum(axis=-1)
    amps[0, 1] = 0.0
    amps[0, 0] *= np.sqrt((weights[0, 0] + weights[0, 1]) / weights[0, 0])
    amps[1, 2] = 0.0
    amps[1, 2, 0] = np.sqrt(_WEIGHT_FLOOR)   # squares to the floor exactly
    amps[1, 0] *= np.sqrt((weights[1, 0] + weights[1, 2] - _WEIGHT_FLOOR) / weights[1, 0])
    if normalized:
        amps[2] = 0.0
        amps[2, 0, 0] = 1.0
    else:
        amps[2] *= np.sqrt(_WEIGHT_FLOOR / 2 / weights[2])[:, None]
    probs = _squared(amps)
    assert probs[1, 2].sum() == _WEIGHT_FLOOR
    return amps, probs


class TestStackedEvaluation:
    @pytest.mark.parametrize("d", [4, 6])
    def test_builder_rows_match_single(self, rng, d):
        basis = _eigen_basis(random_density(d, rng))
        thetas = rng.standard_normal((6, 2 * (d + 1) * basis.shape[1]))
        amps = _amplitudes(thetas, d + 1, basis)
        for b in range(thetas.shape[0]):
            assert np.array_equal(_amplitudes(thetas[b : b + 1], d + 1, basis)[0], amps[b])

    @pytest.mark.filterwarnings("error")  # masked zero atoms must not divide 0 by 0
    @pytest.mark.parametrize("objective", OBJECTIVES, ids=repr)
    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_stack_matches_each_ensemble(self, rng, objective, d):
        amps, probs = random_stack(rng, d, 6,
                                   normalized=isinstance(objective, MaxAvgDiagEntropy))
        values = objective.evaluate(probs)
        assert values.shape == (6,)
        nested = objective.evaluate(probs.reshape(2, 3, d + 1, d))
        assert np.array_equal(nested.ravel(), values)
        assert values[2] == 0.0
        for b in range(6):
            assert objective.evaluate(probs[b]) == values[b]
            # fewer than 8 atoms: numpy sums them in order, as the loop does
            assert loop_evaluate(objective, probs[b]) == values[b]
            assert abs(atom_loop_evaluate(objective, amps[b]) - values[b]) <= 1e-14

    def test_entropy_check_covers_the_stack(self, rng):
        objective = MaxAvgDiagEntropy()
        _, probs = random_stack(rng, 5, 6, normalized=True)
        objective.evaluate(probs)
        slack = probs.copy()
        slack[4] *= 1.0 + 1e-10
        objective.evaluate(slack)
        off = probs.copy()
        off[4] *= 1.0 + 1e-8
        nan = probs.copy()
        nan[3, 1, 2] = np.nan
        _, below = random_stack(rng, 5, 6)  # ensemble 2 has no atom above the floor
        for bad in (off, nan, below):
            with pytest.raises(NotDistribution):
                objective.evaluate(bad)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("objective", OBJECTIVES, ids=repr)
    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_row_terms_match_the_full_stack(self, rng, objective, d):
        """An atom's term depends on its own row alone: the terms of every
        (B, 2, d) slice of rotated-row pairs, as the search scores them,
        are the matching columns of the full stack's terms, masked zero
        and floor atoms and the all-floor ensemble included."""
        _, probs = random_stack(rng, d, 6, normalized=isinstance(objective, MaxAvgDiagEntropy))
        full = objective.terms(probs)
        assert full.shape == (6, d + 1)
        assert full[0, 1] == full[1, 2] == 0.0 and np.all(full[2] == 0.0)
        pairs = np.transpose(np.triu_indices(d + 1, 1))
        stack = np.arange(6)[:, None]
        for i in range(pairs.shape[0]):
            rows = pairs[(i + np.arange(6)) % pairs.shape[0]]  # each ensemble meets every pair
            assert np.array_equal(objective.terms(probs[stack, rows]), full[stack, rows])

    @pytest.mark.parametrize("objective", OBJECTIVES, ids=repr)
    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_evaluate_is_combined_terms(self, rng, objective, d):
        _, probs = random_stack(rng, d, 6, normalized=isinstance(objective, MaxAvgDiagEntropy))
        for stack in (probs, probs.reshape(2, 3, d + 1, d), probs[4]):
            terms, weights = objective.terms(stack), stack.sum(axis=-1)
            combined = objective.combine(terms, weights)
            assert np.array_equal(objective.evaluate(stack), combined)
            assert np.shape(combined) == np.shape(stack)[:-2]

    def test_entropy_combine_checks_every_ensemble(self, rng):
        objective = MaxAvgDiagEntropy()
        _, probs = random_stack(rng, 5, 6, normalized=True)
        terms, weights = objective.terms(probs), probs.sum(axis=-1)
        objective.combine(terms, weights)
        for scale in (1.0 + 1e-8, 1.0 - 1e-8):
            off = weights.copy()
            off[3] *= scale
            with pytest.raises(NotDistribution):
                objective.combine(terms, off)

    @pytest.mark.parametrize("objective", OBJECTIVES, ids=repr)
    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_search_value_is_the_returned_ensembles(self, rng, objective, d):
        rho = random_density(d, rng)
        ens, value = ensemble_search(rho, objective, d + 1, seed=d, restarts=2, max_evals=300)
        probs = ens.weights[:, None] * np.abs(ens.atoms) ** 2
        assert abs(objective.evaluate(probs) - value) <= 1e-12
        assert value == returned_value(objective, ens)  # re-evaluated, not the tracked cost


class Counted:
    """An objective that records, per call of its row scorer ``terms``, how
    many ensembles it scores and how many rows each ensemble passes."""

    def __init__(self, objective):
        self.objective, self.sense, self.sizes, self.rows = objective, objective.sense, [], []

    def terms(self, probs):
        self.sizes.append(math.prod(np.shape(probs)[:-2]))
        self.rows.append(np.shape(probs)[-2])
        return self.objective.terms(probs)

    def combine(self, terms, weights):
        return self.objective.combine(terms, weights)

    def evaluate(self, probs):
        return self.combine(self.terms(probs), np.sum(probs, axis=-1))


@dataclass(frozen=True)
class Target:
    """Sum over the atoms of the squared distance from an atom's squared
    amplitudes to the nearest row of a fixed (k, d) array: 0 exactly when
    every atom is one of those rows, whatever the order."""

    probs: np.ndarray
    sense: str = "min"

    def terms(self, probs):
        return np.min(np.sum((probs[..., :, None, :] - self.probs) ** 2, axis=-1), axis=-1)

    def combine(self, terms, weights):
        return np.sum(terms, axis=-1)

    def evaluate(self, probs):
        return self.combine(self.terms(probs), np.sum(probs, axis=-1))


def sequential_rotation_poll(objective, amps0, budget, step0=0.3, step_min=1e-7):
    """The rotation poll one candidate per evaluate call, which the lockstep
    poll must match: pairs j < l in row-major order, phi = 0 then pi/2, the
    angle +step then -step; the first improvement by 1e-15 is taken and the
    poll resumes at the next (pair, phi); a sweep with no move halves the
    step."""
    sense = 1.0 if objective.sense == "min" else -1.0
    amps = np.array(amps0, dtype=complex)
    probs = _squared(amps)
    best = sense * objective.evaluate(probs[None])[0]
    evals, step = 1, step0
    moves = [(j, l, turn) for j, l in zip(*np.triu_indices(amps.shape[0], 1))
             for turn in (1.0, 1j)]
    while moves and evals < budget and step > step_min:
        c, s = math.cos(step), math.sin(step)
        improved = False
        for j, l, turn in moves:
            if evals >= budget:
                break
            for sgn in (1.0, -1.0):
                t = sgn * s * turn
                new_j = c * amps[j] + t * amps[l]
                new_l = c * amps[l] - np.conj(t) * amps[j]
                cand = probs.copy()
                cand[j], cand[l] = _squared(new_j), _squared(new_l)
                value = sense * objective.evaluate(cand[None])[0]
                evals += 1
                if value < best - 1e-15:
                    amps[j], amps[l] = new_j, new_l
                    probs, best, improved = cand, value, True
                    break
                if evals >= budget:
                    break
        if not improved:
            step *= 0.5
    return amps, best


def random_amplitudes(rng, rho, n_atoms, n_starts):
    """(n_starts, n_atoms, d) exact decompositions of ``rho``."""
    basis = _eigen_basis(rho)
    return _amplitudes(rng.standard_normal((n_starts, 2 * n_atoms * basis.shape[1])),
                       n_atoms, basis)


def warm_amplitudes(rho, n_atoms):
    """The same-diagonal ensemble's unnormalized atoms, padded with zero rows."""
    warm = same_diagonal_decomposition(rho)
    amps = np.zeros((n_atoms, rho.shape[0]), dtype=complex)
    amps[: warm.atoms.shape[0]] = warm.atoms * np.sqrt(warm.weights)[:, None]
    return amps


def returned_value(objective, ens):
    return objective.evaluate(ens.weights[:, None] * _squared(ens.atoms))


class TestRotationPoll:
    @pytest.mark.parametrize("objective", OBJECTIVES, ids=repr)
    @pytest.mark.parametrize("d", [4, 5, 6])
    def test_lockstep_matches_one_start_at_a_time(self, rng, objective, d):
        rho = random_density(d, rng)
        starts = random_amplitudes(rng, rho, d + 1, 3)
        for budget in (77, 400):
            amps, costs = _rotation_search(objective, starts, budget)
            for s in range(3):
                ref_amps, ref_cost = sequential_rotation_poll(objective, starts[s], budget)
                assert np.array_equal(amps[s], ref_amps)
                assert costs[s] == ref_cost
            # rotations keep the reconstruction: A^dag A = rho^T
            assert np.max(np.abs(np.einsum("sij,sik->sjk", amps.conj(), amps) - rho.T)) <= 1e-14

    @pytest.mark.parametrize("objective", OBJECTIVES, ids=repr)
    @pytest.mark.parametrize("d", [4, 6])
    def test_rounds_score_two_rows_per_candidate(self, rng, objective, d):
        """The row scorer sees every row of the starts once, then at most
        the two rotated rows of each candidate; the moves are those of the
        unwrapped objective."""
        rho = random_density(d, rng)
        starts = random_amplitudes(rng, rho, d + 1, 3)
        counted = Counted(objective)
        amps, costs = _rotation_search(counted, starts, 400)
        assert (counted.sizes[0], counted.rows[0]) == (3, d + 1)
        assert len(counted.rows) > 1 and max(counted.rows[1:]) <= 2
        ref_amps, ref_costs = _rotation_search(objective, starts, 400)
        assert np.array_equal(amps, ref_amps) and np.array_equal(costs, ref_costs)

    def test_step_halving_to_the_floor(self, rng):
        rho = random_density(2, rng)
        start, goal = random_amplitudes(rng, rho, 3, 2)
        objective = Target(_squared(goal))
        for budget in (5, 83, 20_000):
            amps, costs = _rotation_search(objective, start[None], budget)
            counted = Counted(objective)
            ref_amps, ref_cost = sequential_rotation_poll(counted, start, budget)
            assert np.array_equal(amps[0], ref_amps)
            assert costs[0] == ref_cost
        # the step fell below 1e-7 before the budget ran out, at the goal
        assert len(counted.sizes) < 20_000
        assert costs[0] < 1e-12

    def test_starts_stopping_in_different_rounds(self, rng):
        """Start 1 sits at the minimum: no candidate improves on it, so its
        five steps above the floor 1e-2 take 1 + 5 * 12 = 61 evaluations,
        while the far starts run out of budget inside a chunk; every row
        equals the poll of that start alone."""
        rho = random_density(3, rng)
        starts = random_amplitudes(rng, rho, 3, 3)
        objective = Target(_squared(starts[1]))
        counted = Counted(objective)
        amps, costs = _rotation_search(counted, starts, 77, step_min=1e-2)
        assert counted.sizes[0] == 3 and counted.sizes[-1] < _POLL_CHUNK
        lockstep_calls = len(counted.sizes)
        lone_calls = []
        for s, start in enumerate(starts):
            lone = Counted(objective)
            ref_amps, ref_cost = sequential_rotation_poll(lone, start, 77, step_min=1e-2)
            assert len(lone.sizes) == (61 if s == 1 else 77)  # one call per evaluation
            assert np.array_equal(amps[s], ref_amps)
            assert costs[s] == ref_cost
            lone = Counted(objective)
            _rotation_search(lone, start[None], 77, step_min=1e-2)
            lone_calls.append(len(lone.sizes))
        assert np.array_equal(amps[1], starts[1])
        assert lone_calls[1] < min(lone_calls[0], lone_calls[2])
        assert lockstep_calls == max(lone_calls)

    @pytest.mark.parametrize("objective", OBJECTIVES, ids=repr)
    def test_qutrit_search_matches_each_start_alone(self, rng, objective):
        """d = 3: the warm start and the random starts, searched in lockstep,
        give the ensemble a loop of one-at-a-time polls picks, in no more
        evaluate calls than the longest start makes alone."""
        rho = random_density(3, rng)
        seed, restarts, max_evals = 11, 4, 600
        rng_s = np.random.Generator(np.random.Philox(key=seed))
        starts = np.concatenate([warm_amplitudes(rho, 4)[None],
                                 random_amplitudes(rng_s, rho, 4, restarts - 1)])
        best_amps, best_cost, longest = None, np.inf, 0
        for start in starts:
            lone = Counted(objective)
            _rotation_search(lone, start[None], max_evals // restarts)
            longest = max(longest, len(lone.sizes))
            amps, cost = sequential_rotation_poll(objective, start, max_evals // restarts)
            if cost < best_cost:
                best_amps, best_cost = amps, cost

        counted = Counted(objective)
        ens, value = ensemble_search(rho, counted, 4, seed=seed, restarts=restarts,
                                     max_evals=max_evals)
        assert len(counted.sizes) <= longest + 1  # plus the returned ensemble's evaluation
        best = _ensemble(best_amps)
        assert np.array_equal(ens.weights, best.weights)
        assert np.array_equal(ens.atoms, best.atoms)
        assert value == returned_value(objective, best)
        assert abs(value - (best_cost if objective.sense == "min" else -best_cost)) <= 1e-14

    def test_ties_go_to_the_first_start(self, rng):
        """Under a constant objective no start moves and every start ties;
        the warm start, which comes first, is returned."""

        class Flat:
            sense = "min"

            def terms(self, probs):
                return np.zeros(np.shape(probs)[:-1])

            def combine(self, terms, weights):
                return np.sum(terms, axis=-1)

            def evaluate(self, probs):
                return self.combine(self.terms(probs), np.sum(probs, axis=-1))

        rho = random_density(3, rng)
        first = _ensemble(warm_amplitudes(rho, 4))
        ens, value = ensemble_search(rho, Flat(), 4, restarts=4, max_evals=256)
        assert value == 0.0
        assert np.array_equal(ens.weights, first.weights)
        assert np.array_equal(ens.atoms, first.atoms)

    def test_single_atom_has_nothing_to_rotate(self):
        psi = np.array([0.6, 0.8j, 0.0])
        rho = np.outer(psi, psi.conj())
        counted = Counted(MinMaxInfNormSq())
        ens, value = ensemble_search(rho, counted, 1, restarts=2, max_evals=200)
        assert counted.sizes == [2, 1]  # the starts, then the returned ensemble
        assert abs(value - 0.64) <= 1e-15
        assert ens.reconstruction_residual(rho) <= 1e-15

    def test_residual_is_checked(self, rng, monkeypatch):
        search = ensembles._rotation_search

        def drifting(objective, amps0, budget):
            amps, costs = search(objective, amps0, budget)
            return amps * (1.0 + 1e-8), costs

        rho = random_density(4, rng)
        ensemble_search(rho, MinMaxInfNormSq(), 5, restarts=2, max_evals=200)
        monkeypatch.setattr(ensembles, "_rotation_search", drifting)
        with pytest.raises(NumericalFailure):
            ensemble_search(rho, MinMaxInfNormSq(), 5, restarts=2, max_evals=200)


class TestSearchInvariants:
    def test_long_search_keeps_the_reconstruction(self, rng):
        rho = random_density(6, rng)
        counted = Counted(MaxAvgDiagEntropy())
        ens, _ = ensemble_search(rho, counted, 7, seed=1, restarts=2, max_evals=100_000)
        assert sum(counted.sizes) >= 50_000  # candidates scored, including discarded ones
        assert ens.reconstruction_residual(rho) <= 1e-12

    @pytest.mark.parametrize("objective", OBJECTIVES[1:], ids=repr)
    @pytest.mark.parametrize("d", [4, 5])
    def test_more_evaluations_never_worse(self, rng, objective, d):
        """Each start's path does not depend on its budget, which only cuts
        it short, and its cost only falls along the path; so with the same
        seed and restarts the best start cannot get worse."""
        rho = random_density(d, rng, rank=int(rng.integers(2, d + 1)))
        sense = 1.0 if objective.sense == "min" else -1.0
        values = [ensemble_search(rho, objective, d + 1, seed=5, restarts=3, max_evals=n)[1]
                  for n in (200, 600, 2000, 6000, 20_000)]
        assert all(sense * (b - a) <= 0.0 for a, b in zip(values, values[1:])), values


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
            target = same_diagonal_decomposition(rho)
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
