"""Matrix-kernel operations against independent oracles."""

import numpy as np
import pytest

from cohdist.errors import DimMismatch, NotDistribution, NotPSD, NumericalFailure
from cohdist.hermat import random_density, require_density, shannon_entropy

from reference import fidelity, tensor_power


class TestFidelity:
    def test_self_fidelity(self, rng):
        rho = random_density(4, rng)
        assert abs(fidelity(rho, rho) - 1.0) < 1e-12

    def test_commuting_oracle(self, rng):
        assert abs(fidelity(np.diag([1.0, 0.0]).astype(complex),
                            np.diag([0.5, 0.5]).astype(complex)) - 0.5) < 1e-12
        for _ in range(20):
            d = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(d))
            q = rng.dirichlet(np.ones(d))
            expect = float(np.sum(np.sqrt(p * q)) ** 2)
            got = fidelity(np.diag(p).astype(complex), np.diag(q).astype(complex))
            assert abs(got - expect) < 1e-9

    def test_pure_overlap_oracle(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            g = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
            psi, phi = g / np.linalg.norm(g, axis=1, keepdims=True)
            got = fidelity(np.outer(psi, psi.conj()), np.outer(phi, phi.conj()))
            assert abs(got - abs(np.vdot(psi, phi)) ** 2) < 1e-9

    def test_symmetry(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            r, s = random_density(d, rng), random_density(d, rng)
            assert abs(fidelity(r, s) - fidelity(s, r)) < 1e-9

    def test_dephasing_monotone(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            r, s = random_density(d, rng), random_density(d, rng)
            dephased = fidelity(np.diag(np.diag(r)), np.diag(np.diag(s)))
            assert dephased >= fidelity(r, s) - 1e-9

    def test_rejects_negative(self):
        # the PSD square root of the first argument gates the PSD floor
        with pytest.raises(NotPSD):
            fidelity(np.diag([1.0, -0.5]).astype(complex), np.eye(2, dtype=complex) / 2)

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimMismatch):
            fidelity(random_density(2, rng), random_density(3, rng))

    def test_excess_over_one_raises(self, rng):
        # unnormalized input: the value 2 is no fidelity and no rounding error
        rho = random_density(3, rng)
        with pytest.raises(NumericalFailure):
            fidelity(2.0 * rho, rho)
        # rounding above 1 still clamps
        assert fidelity((1.0 + 1e-10) * rho, rho) == 1.0


class TestTensorPower:
    def test_single_copy(self, rng):
        rho = random_density(3, rng)
        assert np.array_equal(tensor_power(rho, 1), rho)

    def test_two_qubit_diagonal(self):
        p = 0.3
        rho = np.diag([p, 1 - p]).astype(complex)
        out = tensor_power(rho, 2)
        assert np.allclose(np.diag(out).real, [p * p, p * (1 - p), (1 - p) * p, (1 - p) ** 2])

    def test_inf_norm_multiplicativity(self, rng):
        for _ in range(10):
            rho = random_density(2, rng)
            q = np.max(np.diag(rho).real)
            for n in (2, 3):
                qn = np.max(np.diag(tensor_power(rho, n)).real)
                assert abs(qn - q ** n) < 1e-12


class TestEntropy:
    def test_anchors(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0
        assert abs(shannon_entropy([0.5, 0.5]) - 1.0) < 1e-15
        assert abs(shannon_entropy([0.5, 0.25, 0.25]) - 1.5) < 1e-15

    def test_rejects_non_distribution(self):
        with pytest.raises(NotDistribution):
            shannon_entropy([0.5, 0.6])
        with pytest.raises(NotDistribution):
            shannon_entropy([1.5, -0.5])

    def test_rows(self, rng):
        p = rng.random((3, 4, 5))
        p[0, 1, 2:] = 0.0
        p /= p.sum(axis=-1, keepdims=True)
        h = shannon_entropy(p)
        assert h.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            assert h[idx] == shannon_entropy(p[idx])
        p[2, 3] = [0.5, 0.6, 0.0, 0.0, 0.0]
        with pytest.raises(NotDistribution):
            shannon_entropy(p)


class TestValidators:
    def test_require_density_accepts(self, rng):
        require_density(random_density(3, rng))

    def test_require_density_rejects_trace(self):
        with pytest.raises(NotDistribution):
            require_density(np.diag([0.5, 0.6]).astype(complex))

    def test_require_density_rejects_negative(self):
        with pytest.raises(NotPSD):
            require_density(np.diag([1.5, -0.5]).astype(complex))


class TestTolerancePlumbing:
    def test_tightened_hermitian_gate(self, rng):
        from cohdist.hermat import eig_hermitian

        a = random_density(3, rng).copy()
        a[0, 1] += 1e-12  # inside the default 1e-9 gate
        eig_hermitian(a)
