"""Matrix-kernel operations against independent oracles."""

import numpy as np
import pytest

from cohdist.errors import CapExceeded, DimMismatch, NotDistribution, NotPSD, NumericalFailure
from cohdist.hermat import (
    dephase,
    delta_vector,
    fidelity,
    maximally_coherent,
    random_density,
    random_statevector,
    require_density,
    shannon_entropy,
    sqrtm_psd,
    tensor_power,
)


class TestDephase:
    def test_uniform_pure(self):
        plus = np.full(2, 1 / np.sqrt(2), dtype=complex)
        out = dephase(np.outer(plus, plus.conj()))
        assert np.allclose(out, np.diag([0.5, 0.5]))

    def test_diagonal_fixed_point(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        assert np.allclose(dephase(rho), rho)

    def test_tensor_factorization(self, rng):
        for _ in range(10):
            r, s = random_density(2, rng), random_density(2, rng)
            lhs = dephase(np.kron(r, s))
            rhs = np.kron(dephase(r), dephase(s))
            assert np.allclose(lhs, rhs, atol=1e-14)


class TestSqrtm:
    def test_diag(self):
        assert np.allclose(sqrtm_psd(np.diag([4.0, 1.0]).astype(complex)), np.diag([2.0, 1.0]))

    def test_identity(self):
        assert np.allclose(sqrtm_psd(np.eye(3, dtype=complex)), np.eye(3))

    def test_square_residual(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 7))
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            psd = g @ g.conj().T / d
            s = sqrtm_psd(psd)
            assert np.linalg.norm(s @ s - psd) < 1e-9

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            sqrtm_psd(np.diag([1.0, -0.5]).astype(complex))


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
            psi, phi = random_statevector(d, rng), random_statevector(d, rng)
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
            assert fidelity(dephase(r), dephase(s)) >= fidelity(r, s) - 1e-9

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

    def test_cap(self, rng):
        with pytest.raises(CapExceeded):
            tensor_power(random_density(2, rng), 11)  # 2048 > 1024
        tensor_power(random_density(2, rng), 11, cap=4096)


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


class TestDeltaVector:
    def test_anchor(self):
        out = delta_vector(np.diag([0.25, 0.75]).astype(complex))
        assert np.allclose(out, [0.5, np.sqrt(3) / 2])

    def test_maximally_coherent(self):
        psi = maximally_coherent(4)
        out = delta_vector(np.outer(psi, psi.conj()))
        assert np.allclose(out, np.full(4, 0.5))

    def test_kronecker_identity(self, rng):
        r, s = random_density(2, rng), random_density(3, rng)
        lhs = delta_vector(np.kron(r, s))
        rhs = np.kron(delta_vector(r), delta_vector(s))
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_unit_norm(self, rng):
        for d in (2, 5):
            assert abs(np.linalg.norm(delta_vector(random_density(d, rng))) - 1.0) < 1e-10


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
        from cohdist.config import Tolerances
        from cohdist.errors import NonHermitian
        from cohdist.hermat import eig_hermitian

        a = random_density(3, rng).copy()
        a[0, 1] += 1e-12  # inside the default 1e-9 gate
        eig_hermitian(a)
        with pytest.raises(NonHermitian):
            eig_hermitian(a, tols=Tolerances(hermitian_op=1e-14))
