"""Matrix-kernel operations against independent oracles."""

import warnings

import numpy as np
import pytest

from cohdist import distill, ensembles
from cohdist.errors import (
    BadM,
    DimMismatch,
    NonHermitian,
    NotDistribution,
    NotPSD,
    NumericalFailure,
    ParseError,
)
from cohdist.hermat import eig_psd, random_density, require_density, shannon_entropy
from cohdist.stateio import parse_state, state_to_dict

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

    def test_entries_past_half_the_largest_double(self):
        # finite Hermitian entries whose sum a_ij + conj(a_ji) overflows: the
        # Hermitian part is taken of halves, so the smallest eigenvalue is
        # -1e308 and the PSD gate rejects it, with no numpy warning
        rho = np.diag([1e308, -1e308, 1.0]).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (require_density, eig_psd, lambda r: distill.one_shot_rate(r, 0.0)):
                with pytest.raises(NotPSD, match="-1.000e[+]308"):
                    call(rho)

    def test_psd_gate_rejects_nan_eigenvalues(self, rng, monkeypatch):
        # a NaN smallest eigenvalue fails the gate instead of passing
        # ``w[0] < floor``
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.full(len(a), np.nan), eigh(a)[1]))
        rho = random_density(3, rng)
        for call in (require_density, eig_psd, lambda r: distill.assisted_fidelity_sdp(r, 2)):
            with pytest.raises(NotPSD, match="nan"):
                call(rho)


class TestTolerancePlumbing:
    def test_tightened_hermitian_gate(self, rng):
        from cohdist.hermat import eig_hermitian

        a = random_density(3, rng).copy()
        a[0, 1] += 1e-12  # inside the default 1e-9 gate
        eig_hermitian(a)


def _min_eigenvalue(d, lam, rng):
    """A unit-trace Hermitian d x d matrix whose smallest eigenvalue is lam."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    w = np.linspace(1.0, 2.0, d)
    w[0], w[1:] = lam, w[1:] * (1.0 - lam) / w[1:].sum()
    rho = (q * w) @ q.conj().T
    return 0.5 * (rho + rho.conj().T)


def _bad_input(kind, rng):
    rho = random_density(3, rng)
    if kind == "non-square":
        return rho[:, :2]
    if kind in ("nan", "inf"):
        rho[0, 1] = np.nan if kind == "nan" else np.inf
    elif kind == "defect-5e-11":   # inside the file gate, outside 1e-12
        rho[0, 1] += 5e-11
    elif kind == "defect-1e-8":    # outside both
        rho[0, 1] += 1e-8
    elif kind == "trace+1e-9":     # inside the file gate, outside 1e-10
        rho[0, 0] += 1e-9
    elif kind == "min-eig-1e-9":
        rho = _min_eigenvalue(3, -1e-9, rng)
    return rho


def _parse(rho):
    doc = state_to_dict(rho)
    doc["entries"] = [[[float(z.real), float(z.imag)] for z in row] for row in rho]
    return parse_state(doc)


_CALLERS = {
    "assisted_fidelity_bound": lambda rho: distill.assisted_fidelity_bound(rho, 2),
    "assisted_fidelity_sdp": lambda rho: distill.assisted_fidelity_sdp(rho, 2),
    "one_shot_rate": lambda rho: distill.one_shot_rate(rho, 0.05),
    "same_diagonal_decomposition": ensembles.same_diagonal_decomposition,
    "ensemble_search": lambda rho: ensembles.ensemble_search(
        rho, ensembles.MaxAvgPureFidelity(2), 4, restarts=1, max_evals=64),
    "parse_state": _parse,
}
# the class each caller raised before the gates shared one scan; None: accepted
_LIBRARY = {"non-square": DimMismatch, "nan": NumericalFailure, "inf": NumericalFailure,
            "defect-5e-11": NonHermitian, "defect-1e-8": NonHermitian,
            "trace+1e-9": NotDistribution, "min-eig-1e-9": NotPSD}
_FILE = {"non-square": ParseError, "nan": ParseError, "inf": ParseError,
         "defect-5e-11": None, "defect-1e-8": ParseError, "trace+1e-9": None,
         "min-eig-1e-9": ParseError}


class TestOneValidationScan:
    """Every caller of the merged scan keeps each gate and its error class."""

    @pytest.mark.parametrize("kind", list(_LIBRARY))
    @pytest.mark.parametrize("caller", list(_CALLERS))
    def test_error_class(self, caller, kind):
        rng = np.random.default_rng(5)
        want = _FILE[kind] if caller == "parse_state" else _LIBRARY[kind]
        if caller == "assisted_fidelity_bound" and kind == "min-eig-1e-9":
            want = None  # the bound reads the diagonal and checks no PSD
        rho = _bad_input(kind, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if want is None:
                _CALLERS[caller](rho)
            else:
                with pytest.raises(want):
                    _CALLERS[caller](rho)

    def test_m_range_before_psd_in_the_certificate(self, rng):
        # a non-PSD state at an m past d is a BadM, as before the merge, and
        # a malformed state at such an m is the state's error
        with pytest.raises(BadM):
            distill.fidelity_certificate(_min_eigenvalue(3, -1e-9, rng), 4)
        with pytest.raises(NonHermitian):
            distill.fidelity_certificate(_bad_input("defect-1e-8", rng), 4)
