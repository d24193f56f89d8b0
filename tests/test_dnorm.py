"""m-distillation norm: the water-filling evaluator on vectors, stacks and
classes, against a brute-force split-index reference and the primal/dual
bracket."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from cohdist.dnorm import (
    _class_fidelity,
    _vector_waterfill,
    mnorm,
    mnorm_dual_oracle,
    mnorm_primal_oracle,
    pure_distillation_fidelity,
    waterfill_level,
)
from cohdist.errors import BadM


def normalized_abs(rng, d):
    v = np.abs(rng.standard_normal(d)) + 1e-3
    return v / np.linalg.norm(v)


def split_reference(v, m):
    """The norm by brute force over the split index k: the first m - k
    sorted entries at weight 1 and the rest weighted in proportion, kept
    when no weight there exceeds 1; the norm is the largest kept value."""
    a = np.sort(np.abs(np.ravel(v)))[::-1]
    a = np.concatenate([a, np.zeros(max(m - a.size, 0))])
    kept = [np.sum(a[:m - k]) + np.sqrt(k) * np.linalg.norm(a[m - k:]) for k in range(1, m + 1)
            if np.sqrt(k) * a[m - k] <= np.linalg.norm(a[m - k:]) * (1.0 + 1e-12)]
    return max(kept)


class TestMnorm:
    def test_m1_is_l2(self, rng):
        for _ in range(20):
            v = normalized_abs(rng, int(rng.integers(2, 9)))
            assert abs(mnorm(v, 1).value - 1.0) < 1e-12

    def test_md_is_l1(self, rng):
        for _ in range(20):
            v = normalized_abs(rng, int(rng.integers(2, 9)))
            assert abs(mnorm(v, v.size).value - np.sum(v)) < 1e-12

    def test_hand_example(self):
        res = mnorm([np.sqrt(3) / 2, 0.5], 2)
        assert abs(res.value - (np.sqrt(3) + 1) / 2) < 1e-15

    def test_padding_beyond_dim(self):
        # more target levels than entries: the norm collapses to l1
        res = mnorm([0.8, 0.6], 5)
        assert abs(res.value - 1.4) < 1e-12

    def test_memory_does_not_grow_with_m(self):
        # the evaluator reads the input's entries only: zero-padded to m
        # entries and copied once, they would take 160 MB here.  m stays at
        # 10^7 so that such a regression fails without asking for the 16 GB
        # it would take at m = 10^9
        tracemalloc.start()
        try:
            res = mnorm([0.8, 0.6], 10 ** 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(res.value - 1.4) < 1e-12
        assert peak < 10 ** 6

    def test_magnitudes_only(self, rng):
        v = normalized_abs(rng, 5)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        assert abs(mnorm(v * phases, 3).value - mnorm(v, 3).value) < 1e-14

    def test_permutation_invariance(self, rng):
        v = normalized_abs(rng, 6)
        for _ in range(5):
            assert mnorm(rng.permutation(v), 3).value == mnorm(v, 3).value

    def test_monotone_in_m(self, rng):
        v = normalized_abs(rng, 6)
        vals = [mnorm(v, m).value for m in range(1, 7)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_sandwich(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 9))
            v = normalized_abs(rng, d)
            m = int(rng.integers(1, d + 1))
            val = mnorm(v, m).value
            assert np.linalg.norm(v) - 1e-12 <= val
            assert val <= min(np.sum(v), np.sqrt(m)) + 1e-12

    def test_value_m_iff_flat_enough(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 7))
            m = int(rng.integers(1, d + 1))
            v = normalized_abs(rng, d)
            if abs(np.max(v) ** 2 - 1.0 / m) < 1e-8:
                continue  # knife-edge
            saturated = abs(mnorm(v, m).value ** 2 - m) < 1e-9
            flat = np.max(v) ** 2 <= 1.0 / m
            assert saturated == flat

    def test_non_integer_m_uses_dual(self, rng):
        v = normalized_abs(rng, 5)
        res = mnorm(v, 2.7)
        assert abs(res.value - mnorm_dual_oracle(v, 2.7)) < 1e-12
        # and sits between the neighboring integer values
        assert mnorm(v, 2).value - 1e-12 <= res.value <= mnorm(v, 3).value + 1e-12

    def test_bad_m(self):
        with pytest.raises(BadM):
            mnorm([1.0], 0.5)
        with pytest.raises(BadM):
            mnorm_dual_oracle([1.0], 0.0)

    @pytest.mark.parametrize("m", [10 ** 400, 10 ** 5000, math.inf, math.nan],
                             ids=["1e400", "1e5000", "inf", "nan"])
    def test_m_past_the_largest_double(self, m):
        # the evaluator takes m as a double, so an m no double holds is BadM,
        # not a TypeError or OverflowError from the conversion, and the
        # message does not print an int too long for str()
        for call in (mnorm, mnorm_dual_oracle, mnorm_primal_oracle, waterfill_level,
                     pure_distillation_fidelity):
            with pytest.raises(BadM):
                call([0.6, 0.8], m)

    def test_largest_double_m(self):
        # every entry is capped: the norm is the l1 norm
        m = int(sys.float_info.max)
        assert mnorm([0.6, 0.8], m).value == mnorm_dual_oracle([0.6, 0.8], m) == 0.6 + 0.8
        assert pure_distillation_fidelity([0.6, 0.8], m) == (0.6 + 0.8) ** 2 / m


class TestRowBatchedScan:
    @staticmethod
    def stack(rng, shape):
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        v[(0,) * (len(shape) - 1)] = 0.0  # a zero row
        return v

    @pytest.mark.parametrize("shape", [(7, 4), (3, 5, 6)])
    def test_matches_mnorm_bitwise(self, rng, shape):
        v = self.stack(rng, shape)
        d = shape[-1]
        for m in (1, 2, d - 1, d, d + 2):
            _, value, tail, room = _vector_waterfill(v, m)
            assert value.shape == tail.shape == room.shape == shape[:-1]
            for idx in np.ndindex(*shape[:-1]):
                assert value[idx] == mnorm(v[idx], m).value
            assert value[(0,) * (len(shape) - 1)] == 0.0

    @pytest.mark.parametrize("shape", [(7, 4), (3, 5, 6)])
    def test_real_stack_matches_its_complex_copy(self, rng, shape):
        # |x + 0i| = |x|, so real input skipping the complex copy changes nothing
        v = rng.standard_normal(shape)
        v[(0,) * (len(shape) - 1)] = 0.0
        kept = v.copy()
        d = shape[-1]
        for m in (1, 2, d - 1, d, d + 2):
            real = _vector_waterfill(v, m)
            assert np.array_equal(v, kept)  # sorted on a copy
            copy = _vector_waterfill(v.astype(complex), m)
            for got, want in zip(real, copy):
                assert np.array_equal(got, want)
            assert np.array_equal(pure_distillation_fidelity(v, m),
                                  pure_distillation_fidelity(v.astype(complex), m))

    def test_one_row_reads_its_split_as_a_stack_does(self, rng):
        # a row alone indexes its split directly, a stack through one flat
        # index per row: value, tail mass and room agree bit for bit
        v = self.stack(rng, (6, 5))
        for m in (1, 2, 3.5, 5, 7):
            stacked = _vector_waterfill(v, m)
            for row in range(6):
                for alone, rows in zip(_vector_waterfill(v[row], m), stacked):
                    assert np.array_equal(alone, rows[row])

    def test_pure_fidelity_rows(self, rng):
        v = self.stack(rng, (2, 6, 5))
        v[1, 2] = np.sqrt(0.2)  # maximally coherent: snaps to 1 at m = 5
        for m in (1, 3, 5, 7):
            fid = pure_distillation_fidelity(v, m)
            assert fid.shape == (2, 6)
            for idx in np.ndindex(2, 6):
                assert fid[idx] == pure_distillation_fidelity(v[idx], m)
        assert pure_distillation_fidelity(v, 5)[1, 2] == 1.0

    def test_non_integer_m_is_water_filling(self, rng):
        v = normalized_abs(rng, 5)
        for m in (1.5, 2.7, 6.5):
            assert mnorm(v, m).value == mnorm_dual_oracle(v, m)


class TestAgainstSplitReference:
    @staticmethod
    def sparse(rng, shape):
        v = np.abs(rng.standard_normal(shape)) * (rng.random(shape) > 0.25)
        v[..., 0] += 1e-3  # at least one nonzero entry
        return v / np.linalg.norm(v, axis=-1, keepdims=True)

    def test_vectors_with_zero_entries(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            d = int(rng.integers(1, 14))
            v = self.sparse(rng, d)
            for m in range(1, d + 3):
                ref = split_reference(v, m)
                assert abs(mnorm(v, m).value - ref) <= 1e-12, (d, m)
                assert abs(mnorm_dual_oracle(v, m) - ref) <= 1e-12, (d, m)
                assert abs(pure_distillation_fidelity(v, m) - min(ref * ref / m, 1.0)) <= 1e-12

    @pytest.mark.parametrize("shape", [(5, 3, 4), (2, 6, 7), (4, 1, 1)])
    def test_stacks(self, shape):
        rng = np.random.default_rng(78)
        v = self.sparse(rng, shape)
        for m in range(1, shape[-1] + 3):
            fid = pure_distillation_fidelity(v, m)
            for idx in np.ndindex(*shape[:-1]):
                ref = split_reference(v[idx], m)
                assert abs(fid[idx] - min(ref * ref / m, 1.0)) <= 1e-12, (idx, m)

    def test_classes_from_repeated_entries(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            n_classes = int(rng.integers(1, 7))
            mags = np.sort(rng.random(n_classes) + 1e-3)[::-1]
            counts = rng.integers(1, 6, n_classes)
            v = np.repeat(mags, counts)
            mags, v = mags / np.linalg.norm(v), v / np.linalg.norm(v)
            for m in range(1, v.size + 3):
                ref = split_reference(v, m)
                got = _class_fidelity(mags, counts * mags ** 2, np.log(counts), m)
                assert abs(got - min(ref * ref / m, 1.0)) <= 1e-12, (counts, m)

    def test_class_stacks_match_rows_alone(self):
        # rows of classes with counts of their own, padded with zero classes
        # to one width: one call gives each row's value alone, bit for bit
        rng = np.random.default_rng(80)
        mags, counts = np.zeros((6, 5)), np.ones((6, 5))
        for row in range(6):
            k = int(rng.integers(1, 6))
            mags[row, :k] = np.sort(rng.random(k) + 1e-3)[::-1]
            counts[row, :k] = rng.integers(1, 6, k)
        masses, log_counts = counts * mags ** 2, np.log(counts)
        for m in (1, 2, 3, 7, 40):
            got = _class_fidelity(mags, masses, log_counts, m)
            alone = [float(_class_fidelity(mags[row, :k], masses[row, :k], log_counts[row, :k], m))
                     for row, k in enumerate(np.count_nonzero(mags, axis=1))]
            assert got.tolist() == alone, m


class TestOracles:
    def test_dual_uniform_vector(self):
        for d in (2, 4, 6):
            psi = np.full(d, 1 / np.sqrt(d))
            for m in range(1, d + 1):
                assert abs(mnorm_dual_oracle(psi, m) - np.sqrt(m)) < 1e-12

    def test_dual_basis_vector(self):
        for m in (1, 2, 5):
            assert abs(mnorm_dual_oracle([1.0, 0.0], m) - 1.0) < 1e-12

    def test_three_way_agreement(self, rng):
        # the dual point gives a lower bound and the primal point an upper
        # one; the scan lies between them and they meet
        for _ in range(40):
            d = int(rng.integers(2, 9))
            v = normalized_abs(rng, d)
            for m in range(1, d + 1):
                semi = mnorm(v, m).value
                lower, upper = mnorm_dual_oracle(v, m), mnorm_primal_oracle(v, m)
                assert lower - 1e-12 <= semi <= upper + 1e-12
                assert upper - lower <= 1e-12

    def test_bracket_with_zero_entries_and_large_m(self):
        rng = np.random.default_rng(2024)
        for _ in range(600):
            d = int(rng.integers(1, 14))
            v = np.abs(rng.standard_normal(d)) * (rng.random(d) > 0.25)
            v[0] = max(v[0], 1e-3)  # at least one nonzero entry
            v = v / np.linalg.norm(v)
            for m in [*range(1, d + 3), *rng.uniform(1.0, d + 2.0, 2)]:
                lower, upper = mnorm_dual_oracle(v, m), mnorm_primal_oracle(v, m)
                assert abs(upper - lower) <= 1e-12, (d, m)
                assert abs(mnorm(v, m).value - lower) <= 1e-12, (d, m)

    def test_level_spends_the_budget(self, rng):
        # w = min(1, v / l) is the dual point: its squared norm is m, or the
        # support size (l = 0) when that is at most m
        for _ in range(200):
            d = int(rng.integers(1, 10))
            v = normalized_abs(rng, d) * (rng.random(d) > 0.3)
            if not v.any():
                continue
            for m in (1.0, 1.7, 2.0, float(d), d + 1.5):
                lam = waterfill_level(v, m)
                support = np.count_nonzero(v)
                if support <= m:
                    assert lam == 0.0
                else:
                    w = np.minimum(1.0, v / lam)
                    assert abs(float(w @ w) - m) <= 1e-12 * m

    def test_primal_below_trivial_upper_bounds(self, rng):
        v = normalized_abs(rng, 5)
        for m in (1, 2, 4):
            val = mnorm_primal_oracle(v, m)
            assert val <= np.sum(v) + 1e-12        # x = 0 feasible
            assert val <= np.sqrt(m) + 1e-12       # x = v feasible


class TestPureFidelity:
    def test_maximally_coherent_hits_one(self):
        for m in (2, 3, 5):
            assert pure_distillation_fidelity(np.full(m, 1 / np.sqrt(m)), m) == 1.0

    def test_basis_state(self):
        assert abs(pure_distillation_fidelity([1.0, 0.0], 2) - 0.5) < 1e-15

    def test_hand_example(self):
        f = pure_distillation_fidelity([np.sqrt(3) / 2, 0.5], 2)
        assert abs(f - (2 + np.sqrt(3)) / 4) < 1e-15

    def test_monotone_in_m(self, rng):
        v = normalized_abs(rng, 5)
        vals = [pure_distillation_fidelity(v, m) for m in range(1, 6)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rejects_non_integer(self):
        with pytest.raises(BadM):
            pure_distillation_fidelity([1.0, 0.0], 1.5)
