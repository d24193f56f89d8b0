"""CLI surfaces: commands, exit codes, file formats, determinism."""

import json

import numpy as np
import pytest

from cohdist.cli import main
from cohdist.distill import assisted_fidelity_bound, assisted_fidelity_from_probs
from cohdist.hermat import maximally_coherent, random_density, tensor_power
from cohdist.stateio import dump_state, load_state


@pytest.fixture
def qubit34(tmp_path):
    path = tmp_path / "qubit34.json"
    dump_state(np.diag([0.75, 0.25]).astype(complex), path)
    return path


@pytest.fixture
def qubit64(tmp_path):
    path = tmp_path / "qubit64.json"
    dump_state(np.diag([0.6, 0.4]).astype(complex), path)
    return path


@pytest.fixture
def curves_spec(tmp_path):
    path = tmp_path / "curves.json"
    spec = {
        "curves": [
            {"family": "diag", "p_grid": [0.5, 0.7, 0.9], "copies": [1, 2, 3, 4], "m": 2},
            {"family": "offdiag", "p_grid": [0.5, 0.9], "copies": [1, 2, 3, 4], "m": 2},
            {"family": "depolarized", "p_grid": [0.0, 0.5, 1.0], "copies": [1, 2, 3, 4], "m": 2},
        ]
    }
    path.write_text(json.dumps(spec))
    return path


class TestFidelityCommand:
    def test_maximally_mixed_scores_one(self, tmp_path, capsys):
        path = tmp_path / "mm.json"
        dump_state(np.eye(2, dtype=complex) / 2, path)
        assert main(["fidelity", str(path), "--m", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fidelity_bound"] == 1.0
        assert abs(payload["fidelity_sdp"] - 1.0) < 1e-6
        assert payload["exact"]

    def test_qubit_value(self, qubit34, capsys):
        assert main(["fidelity", str(qubit34), "--m", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["fidelity_bound"] - 0.933013) < 1e-6

    def test_maximally_coherent_qutrit(self, tmp_path, capsys):
        psi = maximally_coherent(3)
        path = tmp_path / "psi3.json"
        dump_state(np.outer(psi, psi.conj()), path)
        assert main(["fidelity", str(path), "--m", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fidelity_bound"] == 1.0

    def test_dump_state_roundtrip(self, qubit64, tmp_path, capsys):
        out = tmp_path / "dumped.json"
        assert main(["fidelity", str(qubit64), "--dump-state", str(out)]) == 0
        a, _ = load_state(qubit64)
        b, _ = load_state(out)
        assert np.max(np.abs(a - b)) <= 1e-12


class TestRateCommand:
    def test_anchors(self, qubit64, capsys):
        assert main(["rate", str(qubit64), "--eps", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["one_shot_rate_bits"] == 0.0
        assert abs(payload["asymptotic_zero_error_bits_per_copy"] - 0.736966) < 1e-6

    def test_three_copies(self, qubit64, capsys):
        assert main(["rate", str(qubit64), "--eps", "0", "--copies", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["one_shot_rate_bits"] == 2.0
        assert payload["exact"]
        assert abs(payload["asymptotic_zero_error_bits_per_base_copy"] - 0.736966) < 1e-6


class TestDecomposeCommand:
    def test_qubit(self, qubit34, capsys):
        assert main(["decompose", str(qubit34), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["weights"]) == 2
        assert payload["reconstruction_residual"] <= 1e-8
        assert payload["diagonal_residual"] <= 1e-8

    def test_dim_four_exit_code(self, tmp_path, capsys):
        rho = random_density(4, np.random.default_rng(0))
        path = tmp_path / "d4.json"
        dump_state(rho, path)
        assert main(["decompose", str(path)]) == 3


class TestFigureCommand:
    def test_csv_contents(self, curves_spec, tmp_path, capsys):
        out = tmp_path / "fig.csv"
        assert main(["figure", str(curves_spec), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "family,p,n,m,F_assisted"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 12 + 8 + 12
        keys = [(r[0], int(r[2]), float(r[1])) for r in rows]
        assert keys == sorted(keys)
        table = {(r[0], float(r[1]), int(r[2])): float(r[4]) for r in rows}
        assert abs(table[("diag", 0.9, 1)] - 0.8) <= 1e-9
        for p in (0.0, 0.5, 1.0):
            assert table[("depolarized", p, 1)] == 1.0
        assert table[("diag", 0.5, 4)] == 1.0

    def test_determinism(self, curves_spec, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["figure", str(curves_spec), "--out", str(out1)]) == 0
        assert main(["figure", str(curves_spec), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_delta_route_matches_matrix_route_bitwise(self):
        for p in (0.3, 0.6, 0.9):
            for fam_probs in (np.array([p, 1 - p]), np.array([0.5, 0.5])):
                rho = np.diag(fam_probs).astype(complex)
                for n in (1, 2, 3, 4):
                    via_matrix = assisted_fidelity_bound(tensor_power(rho, n), 2)
                    via_probs = assisted_fidelity_from_probs(fam_probs, n, 2)
                    assert via_matrix == via_probs

    def test_many_copies_stay_cheap(self):
        # the probability route never materializes the 2^n x 2^n matrix
        f = assisted_fidelity_from_probs(np.array([0.9, 0.1]), 20, 2)
        assert f == 1.0  # 0.9^20 ~ 0.12 <= 1/2
        f = assisted_fidelity_from_probs(np.array([0.99, 0.01]), 20, 2)
        q = 0.99 ** 20
        assert abs(f - (0.5 + np.sqrt(q * (1 - q)))) <= 1e-9

    def test_rejects_bad_family(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"family": "nope", "p_grid": [0.5], "copies": [1]}))
        assert main(["figure", str(spec), "--out", str(tmp_path / "x.csv")]) == 2

    def test_accepts_bare_object_and_list_specs(self, tmp_path, capsys):
        single = {"family": "diag", "p_grid": [0.9], "copies": [1], "m": 2}
        for payload in (single, [single]):
            spec = tmp_path / "one.json"
            spec.write_text(json.dumps(payload))
            out = tmp_path / "one.csv"
            assert main(["figure", str(spec), "--out", str(out)]) == 0
            lines = out.read_text().strip().split("\n")
            assert len(lines) == 2
            assert abs(float(lines[1].split(",")[4]) - 0.8) <= 1e-9


class TestExitCodes:
    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["fidelity", str(bad)]) == 2

    def test_not_a_state(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 2, "entries": [[[2.0, 0], [0, 0]], [[0, 0], [-1.0, 0]]]}))
        assert main(["fidelity", str(bad)]) == 2

    def test_non_finite_entries(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        bad.write_text('{"dim": 2, "entries": [[[0.5, 0], [NaN, 0]], [[NaN, 0], [0.5, 0]]]}')
        assert main(["decompose", str(bad)]) == 2
        assert main(["fidelity", str(bad)]) == 2

    def test_eigensolver_failure(self, qubit64, capsys, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        assert main(["fidelity", str(qubit64)]) == 4

    def test_cap_exceeded(self, qubit64, capsys):
        assert main(["rate", str(qubit64), "--copies", "20"]) == 3

    def test_env_cap_and_flag_priority(self, qubit64, capsys, monkeypatch):
        monkeypatch.setenv("COHDIST_CAP", "4")
        assert main(["rate", str(qubit64), "--copies", "3"]) == 3
        # explicit flag wins over the environment
        assert main(["rate", str(qubit64), "--copies", "3", "--cap", "1024"]) == 0


class TestSelftest:
    def test_green(self, capsys):
        assert main(["selftest", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out
