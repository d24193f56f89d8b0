"""m-distillation norm: semi-analytic scan vs the two oracles."""

import numpy as np
import pytest

from cohdist.dnorm import (
    _scan_integer,
    _sorted_rows,
    mnorm,
    mnorm_dual_oracle,
    mnorm_primal_oracle,
    pure_distillation_fidelity,
)
from cohdist.errors import BadM
from cohdist.hermat import maximally_coherent


def normalized_abs(rng, d):
    v = np.abs(rng.standard_normal(d)) + 1e-3
    return v / np.linalg.norm(v)


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
        assert res.k_star == 1

    def test_padding_beyond_dim(self):
        # more target levels than entries: the norm collapses to l1
        res = mnorm([0.8, 0.6], 5)
        assert abs(res.value - 1.4) < 1e-12
        assert res.sorted_vector.size == 5

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
        assert res.k_star is None
        assert abs(res.value - mnorm_dual_oracle(v, 2.7)) < 1e-12
        # and sits between the neighboring integer values
        assert mnorm(v, 2).value - 1e-12 <= res.value <= mnorm(v, 3).value + 1e-12

    def test_bad_m(self):
        with pytest.raises(BadM):
            mnorm([1.0], 0.5)
        with pytest.raises(BadM):
            mnorm_dual_oracle([1.0], 0.0)


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
            value, k_star = _scan_integer(_sorted_rows(np.abs(v), m), m)
            assert value.shape == k_star.shape == shape[:-1]
            for idx in np.ndindex(*shape[:-1]):
                res = mnorm(v[idx], m)
                assert value[idx] == res.value
                assert k_star[idx] == res.k_star
            assert value[(0,) * (len(shape) - 1)] == 0.0

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
            res = mnorm(v, m)
            assert res.k_star is None
            assert res.value == mnorm_dual_oracle(v, m)
        assert mnorm(v, 6.5).sorted_vector.size == 7


class TestOracles:
    def test_dual_uniform_vector(self):
        for d in (2, 4, 6):
            psi = np.abs(maximally_coherent(d))
            for m in range(1, d + 1):
                assert abs(mnorm_dual_oracle(psi, m) - np.sqrt(m)) < 1e-12

    def test_dual_basis_vector(self):
        for m in (1, 2, 5):
            assert abs(mnorm_dual_oracle([1.0, 0.0], m) - 1.0) < 1e-12

    def test_three_way_agreement(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 9))
            v = normalized_abs(rng, d)
            for m in range(1, d + 1):
                semi = mnorm(v, m).value
                assert abs(semi - mnorm_dual_oracle(v, m)) <= 1e-6
                assert abs(semi - mnorm_primal_oracle(v, m, restarts=2)) <= 1e-5

    def test_primal_below_trivial_upper_bounds(self, rng):
        v = normalized_abs(rng, 5)
        for m in (1, 2, 4):
            val = mnorm_primal_oracle(v, m)
            assert val <= np.sum(v) + 1e-12        # x = 0 feasible
            assert val <= np.sqrt(m) + 1e-12       # x = v feasible


class TestPureFidelity:
    def test_maximally_coherent_hits_one(self):
        for m in (2, 3, 5):
            assert pure_distillation_fidelity(maximally_coherent(m), m) == 1.0

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
