"""Acceptance battery.

One test per acceptance criterion, at the stated tolerance and runtime
budget, each printing a single pass/fail line (visible with ``pytest -s``
or on failure).  The SDP over diagonal-capped states equals the
closed-form bound in every dimension; the last test asserts that equality
against both sides of the SDP's checked optimal pair in dimensions 4 to 8,
at every rank.
"""

import json
import time

import numpy as np

from cohdist.cli import main
from cohdist.distill import (
    assisted_fidelity_bound,
    assisted_fidelity_sdp,
    fidelity_certificate,
    zero_error_rate,
)
from cohdist.dnorm import (
    mnorm,
    mnorm_dual_oracle,
    mnorm_primal_oracle,
)
from cohdist.ensembles import (
    MaxAvgDiagEntropy,
    MaxAvgPureFidelity,
    ensemble_search,
    same_diagonal_decomposition,
)
from cohdist.hermat import random_density, shannon_entropy

from reference import tensor_power


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{status}] {self.name}  ({elapsed:.2f}s / budget {self.seconds:.0f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name}: {elapsed:.1f}s over budget"
        return False


def _norm_corpus():
    rng = np.random.default_rng(20240817)
    corpus = []
    for _ in range(200):
        d = int(rng.integers(2, 9))
        v = np.abs(rng.standard_normal(d)) + 1e-3
        corpus.append(v / np.linalg.norm(v))
    return corpus


def test_norm_special_cases():
    with _Budget("norm special cases (m=1 -> l2, m=d -> l1)", 1.0):
        for v in _norm_corpus():
            assert abs(mnorm(v, 1).value - 1.0) <= 1e-9
            assert abs(mnorm(v, v.size).value - float(np.sum(v))) <= 1e-9


def test_three_way_norm_agreement():
    with _Budget("three-way norm agreement (water-filling evaluator inside the dual/primal bracket)", 30.0):
        for v in _norm_corpus():
            for m in range(1, v.size + 1):
                semi = mnorm(v, m).value
                lower, upper = mnorm_dual_oracle(v, m), mnorm_primal_oracle(v, m)
                assert lower - 1e-12 <= semi <= upper + 1e-12
                assert upper - lower <= 1e-12


def test_m2_closed_form():
    rng = np.random.default_rng(7)
    with _Budget("m=2 closed form on 100 random states", 5.0):
        for _ in range(100):
            d = int(rng.integers(2, 7))
            rho = random_density(d, rng)
            q = float(np.max(np.diag(rho).real))
            expect = 1.0 if q <= 0.5 else 0.5 + np.sqrt(q * (1.0 - q))
            assert abs(assisted_fidelity_bound(rho, 2) - expect) <= 1e-9


def test_qutrit_m3_closed_form():
    rng = np.random.default_rng(8)
    with _Budget("d=3, m=3 closed form on 100 random qutrits", 5.0):
        for _ in range(100):
            rho = random_density(3, rng)
            expect = float(np.sum(np.sqrt(np.diag(rho).real)) ** 2) / 3.0
            assert abs(assisted_fidelity_bound(rho, 3) - expect) <= 1e-9


def test_low_dim_tightness():
    rng = np.random.default_rng(9)
    with _Budget("SDP/bound/ensemble tightness for d in {2,3}", 300.0):
        for trial in range(100):
            d = 2 if trial % 2 == 0 else 3
            rho = random_density(d, rng)
            for m in range(2, d + 1):
                bound = assisted_fidelity_bound(rho, m)
                sdp = assisted_fidelity_sdp(rho, m)
                assert abs(sdp - bound) <= 1e-12
                _, found = ensemble_search(
                    rho, MaxAvgPureFidelity(m), atoms_cap=d + 1,
                    seed=trial, restarts=2, max_evals=250,
                )
                assert abs(found - bound) <= 1e-5


def test_decomposition_correctness():
    rng = np.random.default_rng(10)
    with _Budget("same-diagonal decompositions on 200 random states", 120.0):
        for trial in range(200):
            d = 2 if trial % 2 == 0 else 3
            rho = random_density(d, rng)
            ens = same_diagonal_decomposition(rho)
            assert ens.reconstruction_residual(rho) <= 1e-8
            diag = np.diag(rho).real
            for atom in ens.atoms:
                assert np.max(np.abs(np.abs(atom) ** 2 - diag)) <= 1e-8


def test_zero_error_rates():
    with _Budget("zero-error rates for diag(0.6, 0.4)", 1.0):
        rho = np.diag([0.6, 0.4]).astype(complex)
        assert zero_error_rate(rho).one_shot_bits == 0.0
        rho3 = tensor_power(rho, 3)
        assert zero_error_rate(rho3, declared_base_dim=2).one_shot_bits == 2.0
        assert abs(zero_error_rate(rho).asymptotic_bits_per_copy
                   - (-np.log2(0.6))) <= 1e-9
        assert abs(-np.log2(0.6) - 0.736966) < 5e-7


def test_ball_anchor_and_monotonicity(ball_theta):
    rng = np.random.default_rng(11)
    with _Budget("diagonal-ball SDP: eps=0 anchor and eps-monotonicity", 120.0):
        eps_grid = [round(0.01 * k, 2) for k in range(11)]
        for trial in range(20):
            d = int(rng.integers(2, 5))
            rho = random_density(d, rng)
            vals = [ball_theta(rho, eps) for eps in eps_grid]
            assert abs(vals[0] - float(np.max(np.diag(rho).real))) <= 1e-7
            assert all(b <= a + 1e-7 for a, b in zip(vals, vals[1:]))


def test_coherence_of_assistance_low_dim():
    rng = np.random.default_rng(12)
    with _Budget("assistance entropy reached by ensemble search (d <= 3)", 300.0):
        for trial in range(50):
            d = 2 if trial % 2 == 0 else 3
            rho = random_density(d, rng)
            _, val = ensemble_search(
                rho, MaxAvgDiagEntropy(), atoms_cap=d + 1,
                seed=trial, restarts=2, max_evals=250,
            )
            target = shannon_entropy(np.diag(rho).real)
            assert abs(val - target) <= 1e-4


def test_figure_reproduction(tmp_path):
    with _Budget("figure curves: spot values and shape", 10.0):
        spec = tmp_path / "curves.json"
        p_grid = [round(0.05 * k, 2) for k in range(21)]
        spec.write_text(json.dumps({"curves": [
            {"family": "diag", "p_grid": p_grid, "copies": [1, 2, 3, 4], "m": 2},
            {"family": "offdiag", "p_grid": p_grid, "copies": [1, 2, 3, 4], "m": 2},
            {"family": "depolarized", "p_grid": p_grid, "copies": [1, 2, 3, 4], "m": 2},
        ]}))
        out = tmp_path / "curves.csv"
        assert main(["figure", str(spec), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "family,p,n,m,F_assisted"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3 * 4 * len(p_grid)

        table = {}
        pairs = []
        for fam, p, n, m, f in rows:
            p, n, f = float(p), int(n), float(f)
            table[(fam, p, n)] = f
            base_q = 0.5 if fam == "depolarized" else max(p, 1.0 - p)
            q = base_q ** n
            pairs.append((q, f))
            if q <= 0.5:
                assert f == 1.0

        assert abs(table[("diag", 0.9, 1)] - 0.8) <= 1e-9
        for p in p_grid:
            assert table[("depolarized", p, 1)] == 1.0
        pairs.sort()
        for (q1, f1), (q2, f2) in zip(pairs, pairs[1:]):
            assert f2 <= f1 + 1e-12


def _bracket_gap(rho, m, bound):
    """Largest distance from both squared sides of the certified pair to ``bound``."""
    cert = fidelity_certificate(rho, m)
    return max(abs(cert.primal ** 2 - bound), abs(cert.dual ** 2 - bound))


def test_tensor_power_tightness():
    # the SDP meets the closed-form bound on tensor powers of qubits and
    # qutrits, where the bound is exact
    rng = np.random.default_rng(15)
    with _Budget("SDP = closed-form bound on 2x2x2 and 3x3, every m", 60.0):
        for base_dim, copies in ((2, 3), (3, 2)):
            for _ in range(2):
                rho = tensor_power(random_density(base_dim, rng), copies)
                for m in range(2, rho.shape[0] + 1):
                    bound = assisted_fidelity_bound(rho, m)
                    assert abs(assisted_fidelity_sdp(rho, m) - bound) <= 1e-12
                    assert _bracket_gap(rho, m, bound) <= 1e-12


def test_sdp_equals_closed_form_d4to8():
    # the relaxation's closed form holds in every dimension (the derivation
    # is in assisted_fidelity_bound); the SDP's checked optimal pair is the
    # oracle, at every integer m and at two real m (water filling)
    rng = np.random.default_rng(14)
    with _Budget("SDP = closed-form bound for d in {4..8}, every rank and m", 120.0):
        for d in range(4, 9):
            for rank in range(1, d + 1):
                rho = random_density(d, rng, rank=rank)
                for m in range(2, d + 1):
                    bound = assisted_fidelity_bound(rho, m)
                    assert _bracket_gap(rho, m, bound) <= 1e-12, (d, rank, m)
                delta = np.sqrt(np.diag(rho).real)
                for m in rng.uniform(1.0, d, 2):
                    bound = mnorm(delta, m).value ** 2 / m
                    assert _bracket_gap(rho, m, bound) <= 1e-12, (d, rank, m)
