"""Eigensolver contracts."""

import numpy as np
import pytest

from cohdist.errors import NonHermitian, NumericalFailure
from cohdist.hermat import eig_hermitian, random_density


def random_hermitian(n, rng, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.conj().T)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_reconstruction_and_lapack_parity(n, rng):
    for _ in range(5):
        a = random_hermitian(n, rng)
        w, v = eig_hermitian(a)
        assert np.all(np.diff(w) >= 0)
        recon = (v * w) @ v.conj().T
        assert np.linalg.norm(recon - a) <= 1e-10 * n
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-12
        assert np.allclose(w, np.linalg.eigvalsh(a), atol=1e-11)


@pytest.mark.parametrize("n", range(2, 9))
def test_symmetrized_solve_is_the_documented_formula(n, rng):
    # the adjoint is formed once for the gate and the symmetrization; the
    # eigenpairs stay those of eigh(0.5 * (a + a^dag)) exactly, also with a
    # defect inside the 1e-9 gate
    for defect in (0.0, 1e-12):
        a = random_hermitian(n, rng)
        a = a + defect * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        w, v = eig_hermitian(a)
        w_ref, v_ref = np.linalg.eigh(0.5 * (a + a.conj().T))
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


def test_known_spectra():
    w, _ = eig_hermitian(np.eye(3, dtype=complex))
    assert np.allclose(w, [1, 1, 1])
    w, _ = eig_hermitian(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(w, [-1, 1], atol=1e-13)


def test_density_eigs_sum_to_one(rng):
    for d in (2, 3, 5, 8):
        w, _ = eig_hermitian(random_density(d, rng))
        assert abs(w.sum() - 1.0) < 1e-9


def test_scale_invariance(rng):
    a = random_hermitian(6, rng, scale=1e6)
    w, v = eig_hermitian(a)
    assert np.linalg.norm((v * w) @ v.conj().T - a) <= 1e-7  # relative 1e-13


def test_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NonHermitian):
        eig_hermitian(bad)


def test_rejects_non_finite():
    bad = np.array([[0.5, np.nan], [np.nan, 0.5]], dtype=complex)
    with pytest.raises(NumericalFailure):
        eig_hermitian(bad)


def test_lapack_failure_is_numerical_failure(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalFailure):
        eig_hermitian(np.eye(2, dtype=complex))
