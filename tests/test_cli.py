"""CLI surfaces: commands, exit codes, file formats, determinism."""

import json
import math
import sys
import threading
import time

import numpy as np
import pytest

from cohdist import cli
from cohdist.cli import main
from cohdist.distill import (
    assisted_fidelity_bound,
    assisted_fidelity_from_probs,
    one_shot_rate,
    zero_error_rate,
)
from cohdist.hermat import random_density
from cohdist.stateio import dump_state, load_state

from reference import tensor_power


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
        psi = np.full(3, 1 / np.sqrt(3))
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

    def test_one_validation_and_one_power(self, qubit64, capsys, monkeypatch):
        import cohdist.distill as distill

        calls, powers = [], []
        require, power = distill.require_density, distill._type_classes
        monkeypatch.setattr(distill, "require_density",
                            lambda *a, **k: calls.append(1) or require(*a, **k))
        monkeypatch.setattr(distill, "_type_classes",
                            lambda probs, n: powers.append(n) or power(probs, n))
        assert main(["rate", str(qubit64), "--eps", "0.05", "--copies", "10"]) == 0
        assert len(calls) == 1
        assert powers == [[10]]

    def test_three_copies(self, qubit64, capsys):
        assert main(["rate", str(qubit64), "--eps", "0", "--copies", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["one_shot_rate_bits"] == 2.0
        assert payload["exact"]
        assert abs(payload["asymptotic_zero_error_bits_per_base_copy"] - 0.736966) < 1e-6

    @pytest.mark.parametrize("state", ["one", "basis"])
    def test_zero_error_of_a_certain_state_is_positive_zero(self, state, tmp_path, capsys):
        # q = 1: the asymptotic rate is log2(1) negated, printed and carried
        # as 0, never -0
        path = tmp_path / f"{state}.json"
        if state == "one":
            path.write_text(json.dumps({"dim": 1, "entries": [[[1.0, 0.0]]]}))
        else:
            dump_state(np.diag([1.0, 0.0]).astype(complex), path)
        for copies in ("1", "3"):
            assert main(["rate", str(path), "--copies", copies]) == 0
            text = capsys.readouterr().out
            tail = "  (0 per base copy)" if copies == "3" else ""
            assert text.endswith(f"asymptotic zero-error = 0 bits/copy{tail}\n")
            assert main(["rate", str(path), "--copies", copies, "--json"]) == 0
            raw = capsys.readouterr().out
            assert ": -0.0" not in raw
            payload = json.loads(raw)
            for key in ("asymptotic_zero_error_bits_per_copy",
                        "asymptotic_zero_error_bits_per_base_copy"):
                assert payload[key] == 0.0 and math.copysign(1.0, payload[key]) == 1.0


FIDELITY_KEYS = {"state", "dim", "copies", "expanded_dim", "m", "fidelity_bound",
                 "fidelity_sdp", "exact"}
RATE_KEYS = {"state", "dim", "copies", "eps", "m_star", "fidelity_bound", "fidelity_sdp",
             "one_shot_rate_bits", "zero_error_bits",
             "asymptotic_zero_error_bits_per_copy",
             "asymptotic_zero_error_bits_per_base_copy", "exact"}


class TestNoSdpSolve:
    """fidelity and rate report closed forms; the SDP's certified optimal
    pair is only an oracle for them."""

    @pytest.fixture(autouse=True)
    def forbid_solver(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("SDP certificate on a production path")

        monkeypatch.setattr("cohdist.distill.fidelity_certificate", fail)
        monkeypatch.setattr("cohdist.distill.assisted_fidelity_sdp", fail)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_fidelity_and_rate(self, d, tmp_path, capsys):
        rho = random_density(d, np.random.default_rng(d))
        path = tmp_path / f"d{d}.json"
        dump_state(rho, path)
        for m in range(2, d + 1):
            assert main(["fidelity", str(path), "--m", str(m), "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert set(payload) == FIDELITY_KEYS
            assert payload["fidelity_sdp"] == assisted_fidelity_bound(rho, m)
        for eps in ("0", "0.05"):
            assert main(["rate", str(path), "--eps", eps, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert set(payload) == RATE_KEYS
            assert payload["fidelity_sdp"] == payload["fidelity_bound"]

    def test_rate_on_eight_qubit_copies(self, qubit64, capsys):
        assert main(["rate", str(qubit64), "--eps", "0.05", "--copies", "8", "--json"]) == 0
        assert set(json.loads(capsys.readouterr().out)) == RATE_KEYS


class TestCopies:
    """fidelity and rate read n copies from the base diagonal; the matrix
    route on the materialized tensor power is the reference."""

    @pytest.mark.parametrize("d, rank", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    def test_matches_matrix_route_bitwise(self, d, rank, tmp_path, capsys):
        # n = 1 reads the diagonal itself, bit for bit.  At n >= 2 the type
        # classes sum in another order than the d^n entries of the matrix
        # route, so their fidelities agree within 1e-12, while the level m*
        # and every field derived from it or from q^n stay equal
        path = tmp_path / "base.json"
        dump_state(random_density(d, np.random.default_rng(10 * d + rank), rank=rank), path)
        base, _ = load_state(path)
        max_copies = {2: 10, 3: 6}[d]  # the largest d^n of at most 1024 entries
        for n in range(1, max_copies + 1):
            big = tensor_power(base, n)
            tol = 0.0 if n == 1 else 1e-12
            for m in (2, 3):
                argv = ["fidelity", str(path), "--m", str(m), "--copies", str(n), "--json"]
                assert main(argv) == 0
                payload = json.loads(capsys.readouterr().out)
                assert payload["expanded_dim"] == d ** n
                assert abs(payload["fidelity_bound"] - assisted_fidelity_bound(big, m)) <= tol
            for eps in (0.0, 0.05):
                argv = ["rate", str(path), "--eps", str(eps), "--copies", str(n), "--json"]
                assert main(argv) == 0
                payload = json.loads(capsys.readouterr().out)
                report = one_shot_rate(big, eps, declared_base_dim=d)
                zero = zero_error_rate(big, declared_base_dim=d)
                assert payload["m_star"] == report.m_requested
                assert abs(payload["fidelity_bound"] - report.fidelity_bound) <= tol
                assert payload["one_shot_rate_bits"] == report.one_shot_rate_bits
                assert payload["zero_error_bits"] == report.zero_error_bits
                assert (payload["asymptotic_zero_error_bits_per_copy"]
                        == zero.asymptotic_bits_per_copy)
                assert payload["exact"] == report.exact_flag

    def test_no_matrix_beyond_the_base(self, qubit64, capsys, monkeypatch):
        shapes = []
        eigh = np.linalg.eigh

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording)
        assert main(["rate", str(qubit64), "--eps", "0.05", "--copies", "10"]) == 0
        assert main(["fidelity", str(qubit64), "--copies", "10"]) == 0
        assert shapes and max(shape[0] for shape in shapes) <= 2

    @pytest.mark.parametrize("cmd", ["fidelity", "rate"])
    def test_one_dimensional_state_in_constant_time(self, cmd, tmp_path, capsys):
        # d^n = 1 never reaches the 2^53 bound, so the copies are unbounded:
        # 10^7 of them cost no step each and report what one copy reports
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"dim": 1, "entries": [[[1.0, 0.0]]]}))
        assert main([cmd, str(path), "--json"]) == 0
        one = json.loads(capsys.readouterr().out)
        start = time.perf_counter()
        assert main([cmd, str(path), "--copies", "10000000", "--json"]) == 0
        assert time.perf_counter() - start < 0.5
        many = json.loads(capsys.readouterr().out)
        assert many.pop("copies") == 10 ** 7
        one.pop("copies")
        assert many == one

    @pytest.mark.parametrize("cmd", ["fidelity", "rate"])
    def test_copies_past_the_largest_double(self, cmd, tmp_path, capsys):
        # p^n and the per-copy rate take n as a double, so a count past the
        # largest double is a capacity error (exit 3), not an OverflowError
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"dim": 1, "entries": [[[1.0, 0.0]]]}))
        assert main([cmd, str(path), "--copies", str(10 ** 400)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("capacity error: ") and "Traceback" not in err
        # the largest count a double holds, and one past 2^64, still run
        for n in (int(sys.float_info.max), 10 ** 30):
            assert main([cmd, str(path), "--copies", str(n), "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["copies"] == n


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

    def test_near_rank_two_qutrit(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rho = (1 - 1e-6) * random_density(3, rng, rank=2) + 1e-6 * random_density(3, rng)
        path = tmp_path / "near2.json"
        dump_state(rho, path)
        assert main(["decompose", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["weights"]) <= 3
        assert payload["reconstruction_residual"] <= 1e-8
        assert payload["diagonal_residual"] <= 1e-8


    def test_zero_diagonal_at_the_psd_floor(self, tmp_path, capsys):
        # minimum eigenvalue -8.1e-11 passes the floor; beside the zero
        # diagonal entry sits an off-diagonal of 9e-6, far above
        # sqrt(1e-18), so only the PSD part has a same-diagonal decomposition
        rho = np.array([[1.0, 9e-6], [9e-6, 0.0]], dtype=complex)
        path = tmp_path / "floor.json"
        dump_state(rho, path)
        for cmd in ("fidelity", "rate"):
            assert main([cmd, str(path)]) == 0, cmd
        capsys.readouterr()
        assert main(["decompose", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        ens = np.array([[complex(*z) for z in atom] for atom in payload["atoms"]])
        avg = (ens.T * np.array(payload["weights"])) @ ens.conj()
        assert np.linalg.norm(avg - rho) <= 1e-8
        assert payload["reconstruction_residual"] <= 1e-8
        assert payload["diagonal_residual"] <= 1e-8


    @pytest.mark.parametrize("off", [5e-8, 1e-7])
    def test_zero_diagonal_above_the_rounding_floor(self, tmp_path, capsys, off):
        # minimum eigenvalue -off^2 (-2.5e-15, -1e-14) is at eigensolver
        # rounding, yet the off-diagonal beside the zero entry is above 1e-9
        rho = np.array([[1.0, off], [off, 0.0]], dtype=complex)
        path = tmp_path / "floor.json"
        dump_state(rho, path)
        for cmd in ("fidelity", "rate"):
            assert main([cmd, str(path)]) == 0, cmd
        capsys.readouterr()
        assert main(["decompose", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        ens = np.array([[complex(*z) for z in atom] for atom in payload["atoms"]])
        avg = (ens.T * np.array(payload["weights"])) @ ens.conj()
        assert np.linalg.norm(avg - rho) <= 1e-8
        assert payload["reconstruction_residual"] <= 1e-8
        assert payload["diagonal_residual"] <= 1e-8


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
        # up to n = 10, a materialized qubit power of 1024 entries;
        # n = 1 is bit for bit, the type classes at n >= 2 within 1e-12
        for p in (0.3, 0.6, 0.9):
            for fam_probs in (np.array([p, 1 - p]), np.array([0.5, 0.5])):
                rho = np.diag(fam_probs).astype(complex)
                for n in range(1, 11):
                    big = tensor_power(rho, n)
                    for m in (2, 3):
                        via_matrix = assisted_fidelity_bound(big, m)
                        via_probs = assisted_fidelity_from_probs(fam_probs, n, m)
                        tol = 0.0 if n == 1 else 1e-12
                        assert abs(via_matrix - via_probs) <= tol, (p, n, m)

    def test_many_copies_stay_cheap(self):
        # the probability route never materializes the 2^n x 2^n matrix
        f = assisted_fidelity_from_probs(np.array([0.9, 0.1]), 20, 2)
        assert f == 1.0  # 0.9^20 ~ 0.12 <= 1/2
        f = assisted_fidelity_from_probs(np.array([0.99, 0.01]), 20, 2)
        q = 0.99 ** 20
        assert abs(f - (0.5 + np.sqrt(q * (1 - q)))) <= 1e-9

    @pytest.mark.parametrize("copies, code", [(20, 0), (5000, 0), (65536, 3)])
    def test_copies_bound(self, copies, code, tmp_path, capsys):
        # only the type-class route bounds the copies: a table of 2^17
        # entries, 65535 qubit copies
        spec = tmp_path / "many.json"
        spec.write_text(json.dumps({"family": "diag", "p_grid": [0.9], "copies": [copies]}))
        assert main(["figure", str(spec), "--out", str(tmp_path / "many.csv")]) == code

    def test_every_point_equals_the_one_point_evaluator(self, tmp_path, capsys):
        # a curve is evaluated as one stack of its (n, p) points, with rows
        # of smaller n padded to the widest; each value must still be the
        # one assisted_fidelity_from_probs gives the point alone, bit for bit
        p_grid, copies = [0, 0.05, 0.5, 0.95, 1], [1, 2, 3, 10, 17, 1000]
        curves = [{"family": family, "p_grid": p_grid, "copies": copies, "m": m}
                  for family in ("diag", "offdiag", "depolarized")
                  for m in (1, 2, 3, 7, 10 ** 9)]
        spec, out = tmp_path / "all.json", tmp_path / "all.csv"
        spec.write_text(json.dumps({"curves": curves}))
        assert main(["figure", str(spec), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        assert len(rows) == len(curves) * len(p_grid) * len(copies)
        for family, p, n, m, fid in rows:
            p, n, m = float(p), int(n), int(m)
            probs = [0.5, 0.5] if family == "depolarized" else [p, 1.0 - p]
            assert float(fid) == assisted_fidelity_from_probs(probs, n, m), (family, p, n, m)

    @pytest.mark.parametrize("field", ["p_grid", "copies"])
    def test_empty_grid_writes_header_only(self, field, tmp_path, capsys, monkeypatch):
        # a curve with no points adds no rows and calls no evaluator
        import cohdist.dnorm as dnorm

        calls = []
        evaluate = dnorm._waterfill
        monkeypatch.setattr(dnorm, "_waterfill", lambda *a: calls.append(1) or evaluate(*a))
        empty = {"family": "diag", "p_grid": [0.9], "copies": [2], field: []}
        spec, out = tmp_path / "empty.json", tmp_path / "empty.csv"
        spec.write_text(json.dumps(empty))
        assert main(["figure", str(spec), "--out", str(out)]) == 0
        assert out.read_text() == "family,p,n,m,F_assisted\n"
        assert calls == []
        spec.write_text(json.dumps([empty, {"family": "offdiag", "p_grid": [0.9], "copies": [2]}]))
        assert main(["figure", str(spec), "--out", str(out)]) == 0
        assert out.read_text().split("\n")[1:] == [
            f"offdiag,0.9,2,2,{assisted_fidelity_from_probs([0.9, 1.0 - 0.9], 2, 2)!r}", ""]

    def test_curve_past_the_table_bound_among_valid_curves(self, tmp_path, capsys):
        curves = [{"family": "diag", "p_grid": [0.5, 0.9], "copies": [1, 2, 20]},
                  {"family": "offdiag", "p_grid": [0.3], "copies": [3, 65536, 4]},
                  {"family": "depolarized", "p_grid": [0.1], "copies": [2]}]
        spec, out = tmp_path / "past.json", tmp_path / "past.csv"
        spec.write_text(json.dumps(curves))
        assert main(["figure", str(spec), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("capacity error: 65536 copies")
        assert not out.exists()

    @pytest.mark.parametrize("content, message", [(None, "cannot read"),
                                                  ("{not json", "invalid JSON in")],
                             ids=["missing", "invalid"])
    def test_unreadable_spec(self, content, message, tmp_path, capsys):
        # the spec file is read as state files are, with the same messages
        spec = tmp_path / "spec.json"
        if content is not None:
            spec.write_text(content)
        assert main(["figure", str(spec), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {message} {spec}")

    @pytest.mark.parametrize("field, bad", [("copies", [2.9]), ("copies", [True]),
                                            ("copies", ["2"]), ("copies", "2"),
                                            ("m", 2.5), ("m", True), ("m", "2")])
    def test_rejects_non_integer_fields(self, field, bad, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"family": "diag", "p_grid": [0.9], "copies": [2], field: bad}))
        assert main(["figure", str(spec), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {field} must be an integer")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("bad", [True, "0.5"], ids=["bool", "string"])
    def test_rejects_non_real_p_grid(self, bad, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"family": "diag", "p_grid": [bad, 0.5], "copies": [2]}))
        assert main(["figure", str(spec), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("input error: p_grid must be a number")
        assert not (tmp_path / "x.csv").exists()

    def test_integer_and_float_p_grid(self, tmp_path, capsys):
        spec = tmp_path / "mixed.json"
        spec.write_text(json.dumps({"family": "diag", "p_grid": [0, 0.5, 1], "copies": [2]}))
        out = tmp_path / "mixed.csv"
        assert main(["figure", str(spec), "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert [row.split(",")[1] for row in rows] == ["0.0", "0.5", "1.0"]

    def test_integral_float_fields(self, tmp_path, capsys):
        spec = tmp_path / "floats.json"
        spec.write_text(json.dumps({"family": "diag", "p_grid": [0.9], "copies": [2.0], "m": 3.0}))
        out = tmp_path / "floats.csv"
        assert main(["figure", str(spec), "--out", str(out)]) == 0
        assert out.read_text().split("\n")[1].startswith("diag,0.9,2,3,")

    @pytest.mark.parametrize("payload, message", [
        ([], "curve spec must be an object or non-empty list"),
        ([{"family": "diag", "p_grid": [0.5], "copies": [1]}, 3],
         "each curve spec must be an object"),
        ({"p_grid": [0.5], "copies": [1]}, "malformed curve spec: 'family'"),
        ({"family": "diag", "copies": [1]}, "malformed curve spec: 'p_grid'"),
        ({"family": "diag", "p_grid": [0.5]}, "malformed curve spec: 'copies'"),
        ({"family": "diag", "p_grid": [0.5, 1.5], "copies": [1]},
         "p_grid values must lie in [0, 1]"),
        ({"family": "diag", "p_grid": [-0.1], "copies": [1]}, "p_grid values must lie in [0, 1]"),
        ({"family": "diag", "p_grid": [0.5], "copies": [2, 0]}, "copies must be positive"),
        ({"family": "diag", "p_grid": [0.5], "copies": [1], "m": 0},
         "m must be a positive integer"),
    ], ids=["empty", "not-an-object", "no-family", "no-p_grid", "no-copies", "p-above-one",
            "p-below-zero", "zero-copies", "zero-m"])
    def test_rejects_malformed_curves(self, payload, message, tmp_path, capsys):
        spec, out = tmp_path / "bad.json", tmp_path / "x.csv"
        spec.write_text(json.dumps(payload))
        assert main(["figure", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {message}")
        assert not out.exists()

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

    @pytest.mark.parametrize("doc", [
        '{"dim": 2, "entries": [[["0.75", 0], [0, 0]], [[0, 0], [0.25, 0]]]}',
        '{"dim": 2, "entries": [[[true, 0], [0, 0]], [[0, 0], [false, 0]]]}',
        '{"dim": 2, "entries": [[[1.5, 0], [0, 0]], [[0, 0], [0.5, 0]]], "renormalize": "false"}',
    ], ids=["string-entry", "boolean-entries", "string-renormalize"])
    def test_non_numeric_values(self, doc, tmp_path, capsys):
        # each loaded (exit 0) when its values were converted
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        for cmd in ("fidelity", "rate", "decompose"):
            assert main([cmd, str(bad)]) == 2, cmd
        assert "input error: " in capsys.readouterr().err

    def test_eigensolver_failure(self, qubit64, capsys, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        assert main(["fidelity", str(qubit64)]) == 4

    def test_m_past_the_largest_double(self, qubit64, tmp_path, capsys):
        # an m no double holds is an input error, not an OverflowError, and
        # figure writes no CSV; the largest m a double holds still evaluates
        spec, out = tmp_path / "m.json", tmp_path / "m.csv"
        curve = {"family": "diag", "p_grid": [0.6], "copies": [1, 3]}
        spec.write_text(json.dumps({**curve, "m": 10 ** 400}))
        assert main(["fidelity", str(qubit64), "--m", str(10 ** 400)]) == 2
        assert main(["figure", str(spec), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("input error: m must be") == 2 and "Traceback" not in err
        m = int(sys.float_info.max)
        spec.write_text(json.dumps({**curve, "m": m}))
        assert main(["fidelity", str(qubit64), "--m", str(m), "--json"]) == 0
        bound = json.loads(capsys.readouterr().out)["fidelity_bound"]
        assert bound == assisted_fidelity_from_probs([0.6, 0.4], 1, m) > 0.0
        assert main(["figure", str(spec), "--out", str(out)]) == 0
        assert [row.split(",")[-1] for row in out.read_text().split()[1:]] == [
            repr(assisted_fidelity_from_probs([0.6, 0.4], n, m)) for n in (1, 3)]

    def test_nonpositive_copies(self, qubit64, capsys):
        for cmd in ("fidelity", "rate"):
            assert main([cmd, str(qubit64), "--copies", "0"]) == 2
            assert main([cmd, str(qubit64), "--copies", "-1"]) == 2

    @pytest.mark.parametrize("min_eig, code", [(-5e-10, 2), (-5e-11, 0)])
    def test_one_psd_floor_for_every_command(self, min_eig, code, tmp_path, capsys):
        # eigenvalues 0.5 +- c: a file is accepted by all commands or by none
        c = 0.5 - min_eig
        path = tmp_path / "edge.json"
        dump_state(np.array([[0.5, c], [c, 0.5]], dtype=complex), path)
        for cmd in ("fidelity", "rate", "decompose"):
            assert main([cmd, str(path)]) == code, cmd

    @pytest.mark.parametrize("d, copies", [(2, 53), (3, 33)])
    def test_copies_bound(self, d, copies, tmp_path, capsys):
        # d^n up to 2^53, where m* and floor(1/q^n) are exact doubles
        path = tmp_path / "base.json"
        dump_state(random_density(d, np.random.default_rng(d)), path)
        for cmd in ("fidelity", "rate"):
            assert main([cmd, str(path), "--copies", str(copies)]) == 0, cmd
            assert main([cmd, str(path), "--copies", str(copies + 1)]) == 3, cmd
        assert main(["rate", str(path), "--eps", "0.05", "--copies", str(copies)]) == 0

    def test_fractional_declared_base(self, tmp_path, capsys):
        # dim_sigma 3.9 must not load as base 3, which would make 9 = 3^2
        # and label the rate exact
        path = tmp_path / "nine.json"
        dump_state(random_density(9, np.random.default_rng(9)), path,
                   declared_base={"dim_sigma": 3.9, "copies": 2})
        assert main(["rate", str(path), "--json"]) == 2
        assert "dim_sigma must be an integer" in capsys.readouterr().err

    def test_nonpositive_declared_copies(self, tmp_path, capsys):
        # 1 ** -3 == 1, so a one-dimensional state passed the power check
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"dim": 1, "entries": [[[1.0, 0.0]]],
                                    "declared_base": {"dim_sigma": 1, "copies": -3}}))
        assert main(["rate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("input error: declared_base")

    def test_huge_declared_copies_rejected_at_once(self, tmp_path, capsys):
        # 3 ** (3 * 10^7) has 14 million digits; the check stops at 3 > 1
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"dim": 1, "entries": [[[1.0, 0.0]]],
                                    "declared_base": {"dim_sigma": 3, "copies": 30_000_000}}))
        start = time.perf_counter()
        assert main(["rate", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "inconsistent with dim 1" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd, flag, target", [
        ("fidelity", "--out", "missing"),
        ("fidelity", "--dump-state", "missing"),
        ("figure", "--out", "missing"),
        ("figure", "--out", "directory"),
    ])
    def test_unwritable_output_path(self, cmd, flag, target, qubit64, curves_spec,
                                    tmp_path, capsys):
        # a file in a missing directory, or a directory in place of a file,
        # cannot be opened for writing: an input error, not a traceback
        path = str(tmp_path / "missing" / "x.json" if target == "missing" else tmp_path)
        source = curves_spec if cmd == "figure" else qubit64
        assert main([cmd, str(source), flag, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and path in err
        assert "Traceback" not in err

    def test_no_cap_option(self, qubit64, capsys, monkeypatch):
        monkeypatch.setenv("COHDIST_CAP", "4")
        assert main(["rate", str(qubit64), "--copies", "3"]) == 0
        for cmd in ("fidelity", "rate"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, str(qubit64), "--cap", "1024"])
            assert exc.value.code == 2


class TestSelftest:
    def test_green(self, capsys):
        assert main(["selftest", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out


class TestSharedParser:
    """One parser serves every ``main`` call in a process; a call's output
    must not depend on the calls made before it."""

    @staticmethod
    def run(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_calls_leave_nothing_behind(self, qubit64, capsys):
        state = str(qubit64)
        sequence = [
            ["fidelity", state, "--copies", "3", "--m", "3", "--json"],
            ["fidelity", state],
            ["rate", state, "--eps", "0.05", "--copies", "2"],
            ["rate", state],
            ["fidelity", "f", "--m", "x"],
            ["fidelity", state, "--m", "3"],
        ]
        fresh = []
        for argv in sequence:
            cli._build_parser.cache_clear()
            fresh.append(self.run(argv, capsys))
        assert fresh[4][0] == ("exit", 2) and "invalid int value" in fresh[4][2]
        cli._build_parser.cache_clear()
        assert [self.run(argv, capsys) for argv in sequence] == fresh

    def test_threads_write_what_sequential_runs_write(self, qubit64, curves_spec,
                                                      tmp_path, capsys):
        commands = [
            ["fidelity", str(qubit64), "--copies", "2", "--m", "3", "--json"],
            ["rate", str(qubit64), "--eps", "0.05", "--copies", "3", "--json"],
            ["decompose", str(qubit64), "--json"],
            ["figure", str(curves_spec)],
        ]

        def run_all(tag, barrier=None):
            if barrier is not None:
                barrier.wait()
            for rep in range(5):
                for i, argv in enumerate(commands):
                    assert main(argv + ["--out", str(tmp_path / f"{tag}-{i}-{rep}")]) == 0

        cli._build_parser.cache_clear()
        run_all("seq")
        # the four threads also race to build the parser
        cli._build_parser.cache_clear()
        barrier, errors = threading.Barrier(4), []

        def worker(k):
            try:
                run_all(f"t{k}", barrier)
            except Exception as exc:  # surfaced in the main thread below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for k in range(4):
            for i in range(len(commands)):
                for rep in range(5):
                    assert ((tmp_path / f"t{k}-{i}-{rep}").read_bytes()
                            == (tmp_path / f"seq-{i}-{rep}").read_bytes())
