"""State-file schema gates and round trips."""

import json
import warnings

import numpy as np
import pytest

from cohdist.errors import ParseError
from cohdist.hermat import random_density
from cohdist.stateio import dump_state, load_state, parse_state, state_to_dict

from reference import hermitian_defect


def doc_for(rho, **extra):
    doc = state_to_dict(rho)
    doc.update(extra)
    return doc


class TestParse:
    def test_roundtrip_exact(self, tmp_path, rng):
        rho = random_density(3, rng)
        path = tmp_path / "s.json"
        dump_state(rho, path)
        back, declared = load_state(path)
        assert declared is None
        assert np.max(np.abs(back - rho)) <= 1e-15

    def test_declared_base_roundtrip(self, tmp_path, rng):
        rho = np.kron(random_density(2, rng), random_density(2, rng))
        path = tmp_path / "s.json"
        dump_state(rho, path, declared_base={"dim_sigma": 2, "copies": 2})
        _, declared = load_state(path)
        assert declared == {"dim_sigma": 2, "copies": 2}

    def test_declared_base_must_match_dim(self, rng):
        doc = doc_for(random_density(3, rng), declared_base={"dim_sigma": 2, "copies": 2})
        with pytest.raises(ParseError):
            parse_state(doc)

    @pytest.mark.parametrize("dim_sigma, copies", [(1, -3), (1, 0), (0, 2), (-2, 2)])
    def test_declared_base_below_one(self, dim_sigma, copies):
        # (-2) ** 2 == 4 and 1 ** -3 == 1: the power alone would pass these
        size = 1 if dim_sigma == 1 else 4
        doc = doc_for(np.eye(size) / size, declared_base={"dim_sigma": dim_sigma, "copies": copies})
        with pytest.raises(ParseError, match="must have dim_sigma and copies >= 1"):
            parse_state(doc)

    @pytest.mark.parametrize("dim_sigma, copies, dim, ok", [
        (1, 1, 1, True), (1, 10 ** 6, 1, True), (2, 3, 8, True), (3, 2, 9, True),
        (2, 2, 8, False), (2, 4, 8, False), (3, 10 ** 6, 1, False), (2, 10 ** 6, 8, False),
        (9, 1, 9, True), (1, 5, 2, False)])
    def test_declared_power(self, dim_sigma, copies, dim, ok):
        doc = doc_for(np.eye(dim) / dim, declared_base={"dim_sigma": dim_sigma, "copies": copies})
        if ok:
            assert parse_state(doc)[1] == {"dim_sigma": dim_sigma, "copies": copies}
        else:
            with pytest.raises(ParseError, match="inconsistent with dim"):
                parse_state(doc)

    def test_renormalize_flag(self, rng):
        rho = random_density(2, rng)
        doc = doc_for(1.7 * rho)
        with pytest.raises(ParseError):
            parse_state(doc)  # trace way off without the flag
        doc["renormalize"] = True
        back, _ = parse_state(doc)
        assert np.max(np.abs(back - rho)) <= 1e-12

    def test_hermiticity_gate(self, rng):
        rho = random_density(2, rng).copy()
        rho[0, 1] += 1e-6
        with pytest.raises(ParseError):
            parse_state(doc_for(rho))

    def test_psd_gate(self):
        with pytest.raises(ParseError):
            parse_state(doc_for(np.diag([1.5, -0.5]).astype(complex)))

    def test_small_noise_is_cleaned(self, rng):
        rho = random_density(2, rng).copy()
        rho[0, 1] += 1e-11  # inside the 1e-9 file gate
        back, _ = parse_state(doc_for(rho))
        assert np.max(np.abs(back - back.conj().T)) == 0.0
        assert abs(np.trace(back).real - 1.0) < 1e-15

    @pytest.mark.parametrize("renormalize", [False, True])
    def test_overflowing_trace(self, renormalize):
        # each entry is finite, their sum is not: no trace to compare with 1
        # or to divide by, and no numpy overflow warning on the way
        doc = doc_for(np.diag([1e308, 1e308]).astype(complex), renormalize=renormalize)
        with pytest.raises(ParseError, match="trace is not finite"):
            parse_state(doc)

    @pytest.mark.parametrize("rho", [np.array([[0.5, 1e308], [-1e308, 0.5]], dtype=complex),
                                     np.diag([0.5 + 1e308j, 0.5])],
                             ids=["off-diagonal", "imaginary-diagonal"])
    def test_overflowing_hermitian_defect(self, rho):
        # finite entries whose defect, 2e308, is past the largest double: the
        # defect is inf and the file a ParseError, with no numpy overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hermitian_defect(rho) == np.inf
            with pytest.raises(ParseError, match="Hermitian defect inf"):
                parse_state(doc_for(rho))

    def test_entries_past_half_the_largest_double(self):
        # diagonal (1e308, -1e308, 1): trace 1 and Hermitian, so it reaches
        # the symmetrization, whose halves stay finite; the PSD gate rejects
        # it as a ParseError, with no numpy warning
        rho = np.diag([1e308, -1e308, 1.0]).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="minimum eigenvalue -1.000e[+]308"):
                parse_state(doc_for(rho))

    def test_renormalization_past_the_largest_double(self):
        # diagonal (1e300, -1e300, 1e-11): the trace 1e-11 passes the 1e-12
        # floor, and dividing by it overflows the first two entries; the file
        # is a ParseError, with no numpy warning
        rho = np.diag([1e300, -1e300, 1e-11]).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="renormalized entries are not finite"):
                parse_state(doc_for(rho, renormalize=True))

    def test_shape_gate(self):
        with pytest.raises(ParseError):
            parse_state({"dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0]]})

    def test_not_an_object(self):
        with pytest.raises(ParseError):
            parse_state([1, 2, 3])


class TestIntegerFields:
    """Integer fields take integers and integral floats; a boolean, a string
    or a fraction is an error, never truncated."""

    # each bad value, truncated by int(), would match the entries' dimension

    @pytest.mark.parametrize("dim, size", [(2.7, 2), ("2", 2), (True, 1)])
    def test_dim(self, dim, size, rng):
        with pytest.raises(ParseError, match="dim must be an integer"):
            parse_state(doc_for(random_density(size, rng), dim=dim))

    @pytest.mark.parametrize("dim_sigma, copies, size", [(3.9, 2, 9), ("3", 2, 9), (True, 5, 1)])
    def test_declared_dim_sigma(self, dim_sigma, copies, size, rng):
        doc = doc_for(random_density(size, rng),
                      declared_base={"dim_sigma": dim_sigma, "copies": copies})
        with pytest.raises(ParseError, match="dim_sigma must be an integer"):
            parse_state(doc)

    @pytest.mark.parametrize("dim_sigma, copies, size", [(3, 2.5, 9), (3, "2", 9), (2, True, 2)])
    def test_declared_copies(self, dim_sigma, copies, size, rng):
        doc = doc_for(random_density(size, rng),
                      declared_base={"dim_sigma": dim_sigma, "copies": copies})
        with pytest.raises(ParseError, match="copies must be an integer"):
            parse_state(doc)

    def test_integral_floats_load(self, rng):
        rho = random_density(4, rng)
        back, declared = parse_state(doc_for(rho, dim=4.0,
                                             declared_base={"dim_sigma": 2.0, "copies": 2.0}))
        assert np.max(np.abs(back - rho)) <= 1e-15
        assert declared == {"dim_sigma": 2, "copies": 2}
        assert all(type(v) is int for v in declared.values())



class TestStrictValues:
    """Each entry part is a JSON integer or float and ``renormalize`` a JSON
    boolean; any other value is an error, never converted.  Converted, each
    bad document below would load as a valid state."""

    @pytest.mark.parametrize("diag, replace", [
        ([0.75, 0.25], {(0, 0, 0): "0.75"}),
        ([0.75, 0.25], {(0, 1, 1): "0"}),
        ([1.0, 0.0], {(0, 0, 0): True, (1, 1, 0): False}),
        ([1.0, 0.0], {(1, 0, 1): False}),
    ], ids=["numeric-string", "string-zero", "booleans", "false-imaginary-part"])
    def test_entries_must_be_numbers(self, diag, replace):
        doc = doc_for(np.diag(diag).astype(complex))
        for (i, j, part), value in replace.items():
            doc["entries"][i][j][part] = value
        with pytest.raises(ParseError, match="entries must be a number"):
            parse_state(doc)

    @pytest.mark.parametrize("part", [0, 1])
    def test_integer_past_the_largest_double(self, part):
        # an integer no float holds is a ParseError, like the literal 1e999,
        # never an OverflowError
        doc = doc_for(np.diag([1.0, 0.0]).astype(complex))
        doc["entries"][1][1][part] = 10 ** 400
        with pytest.raises(ParseError, match="entries must be finite, got an integer past"):
            parse_state(json.loads(json.dumps(doc)))

    def test_integer_entries_load(self):
        back, _ = parse_state({"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]})
        assert np.array_equal(back, np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("flag, renormalized", [
        ("false", False), ("true", True), (0, False), (1, True), (None, False)])
    def test_renormalize_must_be_boolean(self, flag, renormalized):
        # a trace-2 state: renormalized it loads, as given it does not
        doc = doc_for(np.diag([1.5, 0.5]).astype(complex), renormalize=flag)
        with pytest.raises(ParseError, match="renormalize must be true or false"):
            parse_state(doc)
        doc["renormalize"] = renormalized
        if renormalized:
            assert np.array_equal(parse_state(doc)[0], np.diag([0.75, 0.25]))
        else:
            with pytest.raises(ParseError, match="trace 2.0 differs from 1"):
                parse_state(doc)
