"""Pure-state decompositions: same-diagonal constructions, ensemble search,
steering measurements from a purification, and Monte Carlo protocol runs.

The constructive heart is ``same_diagonal_decomposition``: for dimensions
2 and 3 every state admits a pure-state ensemble whose atoms all share the
state's diagonal.  Dimension 2 is a closed form; dimension 3 rescales the
state to a correlation matrix (unit diagonal) and repeatedly splits off
rank-one pieces with unimodular entries.

``ensemble_search`` explores general decompositions.  Atoms and weights
are parametrized through an isometry applied to the eigen-ensemble, so
every candidate reconstructs the state exactly by construction; a
coordinate-wise pattern search then optimizes the chosen objective.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS
from .dnorm import pure_distillation_fidelity
from .errors import (
    DimMismatch,
    DimTooLarge,
    IncompatibleEnsemble,
    NotAPurification,
    NotPSD,
    NumericalFailure,
)
from .hermat import eig_hermitian, require_density, shannon_entropy

__all__ = [
    "Ensemble",
    "MaxAvgDiagEntropy",
    "MaxAvgPureFidelity",
    "MinMaxInfNormSq",
    "SteeringMeasurement",
    "ensemble_search",
    "purify",
    "random_decomposition",
    "same_diagonal_decomposition",
    "simulate_protocol",
    "steering_measurement",
]

_WEIGHT_FLOOR = 1e-12
_RANK_EIG_TOL = 1e-9


def _herm(a):
    return 0.5 * (a + a.conj().T)


@dataclass(frozen=True)
class Ensemble:
    """Convex mixture of pure states: ``sum_i weights[i] |atoms[i]><atoms[i]|``."""

    weights: np.ndarray          # (k,), positive, sums to 1
    atoms: np.ndarray            # (k, d), rows are unit vectors

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float).ravel())
        object.__setattr__(self, "atoms", np.asarray(self.atoms, dtype=np.complex128))
        if self.atoms.ndim != 2 or self.weights.size != self.atoms.shape[0]:
            raise DimMismatch("one weight per atom required")

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    def average(self) -> np.ndarray:
        return _herm(np.einsum("i,ij,ik->jk", self.weights, self.atoms, self.atoms.conj()))

    def reconstruction_residual(self, rho) -> float:
        return float(np.linalg.norm(self.average() - np.asarray(rho, dtype=np.complex128)))


@dataclass(frozen=True)
class SteeringMeasurement:
    """Rank-one POVM on the assisting system realizing a target ensemble.

    ``operators[i]`` steers the other party to ``atom i`` with probability
    ``weight i``; ``remainder`` completes the POVM on the part of the
    assisting space the purification never populates (it fires with
    probability zero).
    """

    operators: list[np.ndarray]
    remainder: np.ndarray | None

    def total(self) -> np.ndarray:
        out = sum(self.operators)
        if self.remainder is not None:
            out = out + self.remainder
        return out


# ---------------------------------------------------------------------------
# same-diagonal decompositions (d <= 3)


def _pinv_hermitian(x, tol=_RANK_EIG_TOL):
    w, u = eig_hermitian(x)
    inv = np.where(w > tol, 1.0 / np.where(w > tol, w, 1.0), 0.0)
    return _herm((u * inv) @ u.conj().T)


def _quad(mat, v) -> float:
    return float(np.real(np.vdot(v, mat @ v)))


def _golden_min(f, lo, hi, iters=40):
    g = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - g * (b - a)
    d = a + g * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _extract_full_rank3(x, jitter=0.0, grid=64):
    """Best unimodular (1, e^{ia}, e^{ib}) by grid scan + golden polish."""
    xinv = _pinv_hermitian(x)
    angles = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False) + jitter
    ea = np.exp(1j * angles)
    t0 = float(np.real(np.trace(xinv)))
    qa = 2.0 * np.real(xinv[0, 1] * ea)
    qb = 2.0 * np.real(xinv[0, 2] * ea)
    cross = 2.0 * np.real(xinv[1, 2] * np.exp(1j * (angles[None, :] - angles[:, None])))
    q = t0 + qa[:, None] + qb[None, :] + cross
    i, j = np.unravel_index(np.argmin(q), q.shape)
    a, b = angles[i], angles[j]

    step = 2.0 * np.pi / grid

    def qf(aa, bb):
        return _quad(xinv, np.array([1.0, np.exp(1j * aa), np.exp(1j * bb)]))

    for _ in range(3):
        a = _golden_min(lambda t: qf(t, b), a - step, a + step)
        b = _golden_min(lambda t: qf(a, t), b - step, b + step)
    v = np.array([1.0, np.exp(1j * a), np.exp(1j * b)])
    return v, 1.0 / qf(a, b)


def _extract_rank2(x):
    """Unimodular vector in the range of a rank-2 unit-diagonal 3x3 PSD matrix.

    Range membership means orthogonality to the kernel vector n:
    conj(n0) + conj(n1) e^{ia} + conj(n2) e^{ib} = 0, a triangle condition
    on the moduli of n with an explicit phase solution (two mirror
    branches; one-parameter families when a component of n vanishes).
    """
    w, u = eig_hermitian(x)
    n = u[:, 0]
    c = n.conj()
    a0, b0, c0 = abs(c[0]), abs(c[1]), abs(c[2])
    xp = _pinv_hermitian(x)
    cands = []
    phases = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False))
    if a0 < 1e-12:
        if abs(b0 - c0) > 1e-8:
            return None
        for p in phases:
            b = -c[1] * p / c[2]
            cands.append(np.array([1.0, p, b / abs(b)]))
    elif b0 < 1e-12:
        if abs(a0 - c0) > 1e-8:
            return None
        b = -c[0] / c[2]
        b /= abs(b)
        for p in phases:
            cands.append(np.array([1.0, p, b]))
    elif c0 < 1e-12:
        if abs(a0 - b0) > 1e-8:
            return None
        a = -c[0] / c[1]
        a /= abs(a)
        for p in phases:
            cands.append(np.array([1.0, a, p]))
    else:
        target = -c[0]
        theta = np.angle(target)
        cosg = np.clip((a0 * a0 + b0 * b0 - c0 * c0) / (2.0 * a0 * b0), -1.0, 1.0)
        gamma = np.arccos(cosg)
        for sgn in (1.0, -1.0):
            c1a = b0 * np.exp(1j * (theta + sgn * gamma))
            a = c1a / c[1]
            c2b = target - c1a
            if abs(c2b) < 1e-15:
                return None
            b = c2b / c[2]
            cands.append(np.array([1.0, a / abs(a), b / abs(b)]))
    best = None
    for v in cands:
        if abs(np.vdot(n, v)) > 1e-6:
            continue
        q = _quad(xp, v)
        if q <= 1e-12:
            continue
        lam = 1.0 / q
        if best is None or lam > best[1]:
            best = (v, lam)
    return best


def _decompose_correlation(x, jitter=0.0):
    """Split a unit-diagonal PSD 3x3 matrix into unimodular rank-one pieces."""
    atoms = []
    remaining = 1.0
    x = x.copy()
    for _ in range(9):
        w, u = eig_hermitian(x)
        rank = int(np.sum(w > _RANK_EIG_TOL))
        if rank <= 1:
            lam = max(float(w[-1]), 0.0)
            atoms.append((remaining, u[:, -1] * np.sqrt(lam)))
            return atoms
        if rank == 3:
            v, lam = _extract_full_rank3(x, jitter=jitter)
        else:
            got = _extract_rank2(x)
            if got is None:
                return None
            v, lam = got
        lam = min(float(lam), 1.0)
        if lam >= 1.0 - 1e-12:
            atoms.append((remaining, v))
            return atoms
        atoms.append((remaining * lam, v))
        x = _herm((x - lam * np.outer(v, v.conj())) / (1.0 - lam))
        remaining *= 1.0 - lam
    return None


def _qubit_same_diagonal(x):
    """Closed form on the 2x2 correlation matrix [[1, c], [cbar, 1]]."""
    c = x[0, 1]
    mag = min(abs(c), 1.0)
    theta = np.angle(c) if mag > 1e-15 else 0.0
    plus = np.array([1.0, np.exp(-1j * theta)]) / np.sqrt(2.0)
    minus = np.array([1.0, -np.exp(-1j * theta)]) / np.sqrt(2.0)
    # atoms carry sqrt(2) so their entries are unimodular like in d=3
    return [((1.0 + mag) / 2.0, plus * np.sqrt(2.0)), ((1.0 - mag) / 2.0, minus * np.sqrt(2.0))]


def same_diagonal_decomposition(rho, *, seed: int = 0, restarts: int = 10) -> Ensemble:
    """Pure-state decomposition whose every atom has the diagonal of ``rho``.

    Supports dimensions 2 and 3 (guaranteed to exist there); zero diagonal
    entries are handled by restricting to the support and embedding back.

    Raises
    ------
    DimTooLarge
        for dimension 4 and up.
    NumericalFailure
        if the residual targets are not met after ``restarts`` attempts.
    """
    rho = require_density(rho)
    d = rho.shape[0]
    if d > 3:
        raise DimTooLarge(f"same-diagonal decompositions are constructed only for d <= 3, got {d}")

    diag = np.clip(np.diag(rho).real, 0.0, None)
    support = np.flatnonzero(diag > 1e-14)
    ds = support.size
    rho_s = rho[np.ix_(support, support)]
    droot = np.sqrt(diag[support])

    if ds == 1:
        atoms_s = [(1.0, np.array([1.0 + 0.0j]))]
    else:
        x = _herm(rho_s / np.outer(droot, droot))
        np.fill_diagonal(x, 1.0)
        if ds == 2:
            atoms_s = _qubit_same_diagonal(x)
        else:
            rng = np.random.Generator(np.random.Philox(key=seed))
            atoms_s = None
            for attempt in range(max(1, restarts)):
                jitter = 0.0 if attempt == 0 else float(rng.uniform(0.0, 2.0 * np.pi / 64.0))
                atoms_s = _decompose_correlation(x, jitter=jitter)
                if atoms_s is not None:
                    break
            if atoms_s is None:
                raise NumericalFailure("correlation-matrix extraction failed after restarts")

    weights = []
    atoms = []
    for w, v in atoms_s:
        if w < _WEIGHT_FLOOR:
            continue
        full = np.zeros(d, dtype=np.complex128)
        full[support] = droot * v
        nrm = np.linalg.norm(full)
        if nrm <= 0.0:
            continue
        weights.append(w * nrm * nrm)
        atoms.append(full / nrm)
    ens = Ensemble(weights=np.array(weights), atoms=np.array(atoms))

    recon = ens.reconstruction_residual(rho)
    diag_dev = max(
        float(np.max(np.abs(np.abs(a) ** 2 - diag))) for a in ens.atoms
    )
    if recon > 1e-8 or diag_dev > 1e-8:
        raise NumericalFailure(
            f"residual targets missed: reconstruction {recon:.2e}, diagonal {diag_dev:.2e}"
        )
    return ens


# ---------------------------------------------------------------------------
# general ensemble search


@dataclass(frozen=True)
class MaxAvgPureFidelity:
    """Maximize the weighted average pure-state distillation fidelity at m."""

    m: int
    sense: str = "max"

    def evaluate(self, weights, atoms) -> float:
        total = 0.0
        for w, a in zip(weights, atoms):
            if w > _WEIGHT_FLOOR:
                total += w * pure_distillation_fidelity(a, self.m)
        return total


@dataclass(frozen=True)
class MinMaxInfNormSq:
    """Minimize the largest squared amplitude over the atoms."""

    sense: str = "min"

    def evaluate(self, weights, atoms) -> float:
        worst = 0.0
        for w, a in zip(weights, atoms):
            if w > _WEIGHT_FLOOR:
                worst = max(worst, float(np.max(np.abs(a) ** 2)))
        return worst


@dataclass(frozen=True)
class MaxAvgDiagEntropy:
    """Maximize the weighted average entropy of the atoms' diagonals."""

    sense: str = "max"

    def evaluate(self, weights, atoms) -> float:
        total = 0.0
        for w, a in zip(weights, atoms):
            if w > _WEIGHT_FLOOR:
                p = np.abs(a) ** 2
                total += w * shannon_entropy(p / p.sum())
        return total


def _eigen_basis(rho):
    """Eigen-ensemble of a Hermitian unit-trace ``rho``; raises ``NotPSD`` from
    the same eigenvalues, so callers validate with ``check_psd=False``."""
    w, u = eig_hermitian(rho)
    if w[0] < DEFAULT_TOLS.psd_eig_floor:
        raise NotPSD(f"minimum eigenvalue {w[0]:.3e} below {DEFAULT_TOLS.psd_eig_floor:.0e}")
    keep = w > 1e-12
    lam = w[keep]
    phi = u[:, keep]
    return phi * np.sqrt(lam), phi, lam  # basis columns sqrt(lam_j) phi_j


def _ensemble_from_theta(theta, n_atoms, basis):
    r = basis.shape[1]
    m = (theta[: n_atoms * r] + 1j * theta[n_atoms * r :]).reshape(n_atoms, r)
    q, rr = np.linalg.qr(m)
    # pin the column phases (diag of R real positive) so that an already
    # orthonormal M maps to itself; column phases change the ensemble
    dr = np.diag(rr)
    phases = np.where(np.abs(dr) > 0, dr / np.where(np.abs(dr) > 0, np.abs(dr), 1.0), 1.0)
    q = q * phases[None, :]
    unnorm = q @ basis.T  # rows are unnormalized atoms sqrt(w_i) psi_i
    weights = np.sum(np.abs(unnorm) ** 2, axis=1)
    atoms = np.where(
        weights[:, None] > _WEIGHT_FLOOR, unnorm / np.sqrt(np.maximum(weights, 1e-300))[:, None], 0.0
    )
    return weights, atoms


def _theta_from_ensemble(ens: Ensemble, phi, lam, n_atoms):
    unnorm = ens.atoms * np.sqrt(ens.weights)[:, None]
    u0 = (unnorm @ phi.conj()) / np.sqrt(lam)[None, :]
    if u0.shape[0] < n_atoms:
        u0 = np.vstack([u0, np.zeros((n_atoms - u0.shape[0], u0.shape[1]), dtype=np.complex128)])
    return np.concatenate([u0.real.ravel(), u0.imag.ravel()])


def ensemble_search(
    rho,
    objective,
    atoms_cap: int,
    *,
    seed: int = 0,
    restarts: int = 20,
    max_evals: int = 10_000,
    warm_start: Ensemble | str | None = "auto",
) -> tuple[Ensemble, float]:
    """Locally optimal pure-state decomposition for the given objective.

    Decompositions are parametrized by an isometry mixing the eigen-
    ensemble, so every candidate reconstructs ``rho`` exactly; a
    coordinate-wise pattern search (shared evaluation budget across
    ``restarts`` starts) optimizes the objective.  The returned value is a
    one-sided bound on the corresponding convex-roof quantity: a lower
    bound for "max" objectives, an upper bound for "min" ones.

    ``warm_start="auto"`` seeds the search with the same-diagonal
    decomposition in dimensions 2 and 3, which the theory makes optimal
    for all three shipped objectives.
    """
    rho = require_density(rho, check_psd=False)
    d = rho.shape[0]
    basis, phi, lam = _eigen_basis(rho)
    rank = basis.shape[1]
    if atoms_cap < rank:
        raise ValueError(f"atoms_cap {atoms_cap} below rank {rank}")

    sense = 1.0 if objective.sense == "min" else -1.0

    def cost(theta):
        weights, atoms = _ensemble_from_theta(theta, atoms_cap, basis)
        return sense * objective.evaluate(weights, atoms)

    starts: list[np.ndarray] = []
    if warm_start == "auto":
        warm_start = None
        if d <= 3:
            try:
                warm_start = same_diagonal_decomposition(rho)
            except NumericalFailure:
                warm_start = None
    if isinstance(warm_start, Ensemble):
        if warm_start.atoms.shape[0] > atoms_cap:
            raise ValueError("warm start has more atoms than atoms_cap")
        starts.append(_theta_from_ensemble(warm_start, phi, lam, atoms_cap))

    rng = np.random.Generator(np.random.Philox(key=seed))
    npar = 2 * atoms_cap * rank
    while len(starts) < max(1, restarts):
        starts.append(rng.standard_normal(npar))

    budget_each = max(64, max_evals // len(starts))
    best_theta = None
    best_cost = np.inf
    for theta0 in starts:
        theta, c = _pattern_search(cost, theta0, budget_each)
        if c < best_cost:
            best_cost, best_theta = c, theta

    weights, atoms = _ensemble_from_theta(best_theta, atoms_cap, basis)
    keep = weights > _WEIGHT_FLOOR
    ens = Ensemble(weights=weights[keep], atoms=atoms[keep])
    return ens, sense * best_cost


def _pattern_search(cost, theta0, budget, step0=0.3, step_min=1e-7):
    theta = theta0.astype(float).copy()
    best = cost(theta)
    evals = 1
    step = step0
    n = theta.size
    while evals < budget and step > step_min:
        improved = False
        for idx in range(n):
            if evals >= budget:
                break
            for sgn in (1.0, -1.0):
                cand = theta.copy()
                cand[idx] += sgn * step
                c = cost(cand)
                evals += 1
                if c < best - 1e-15:
                    theta, best = cand, c
                    improved = True
                    break
                if evals >= budget:
                    break
        if not improved:
            step *= 0.5
    return theta, best


def random_decomposition(rho, n_atoms: int, seed: int = 0) -> Ensemble:
    """Random exact pure-state decomposition with ``n_atoms`` atoms."""
    rho = require_density(rho, check_psd=False)
    basis, _, _ = _eigen_basis(rho)
    rank = basis.shape[1]
    if n_atoms < rank:
        raise ValueError(f"n_atoms {n_atoms} below rank {rank}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    theta = rng.standard_normal(2 * n_atoms * rank)
    weights, atoms = _ensemble_from_theta(theta, n_atoms, basis)
    keep = weights > _WEIGHT_FLOOR
    return Ensemble(weights=weights[keep], atoms=atoms[keep])


# ---------------------------------------------------------------------------
# steering


def purify(rho) -> np.ndarray:
    """Canonical purification: assisting system first, same dimension."""
    rho = require_density(rho)
    w, u = eig_hermitian(rho)
    w = np.clip(w, 0.0, None)
    d = rho.shape[0]
    vec = np.zeros(d * d, dtype=np.complex128)
    for j in range(d):
        if w[j] > 0.0:
            vec[j * d : (j + 1) * d] += np.sqrt(w[j]) * u[:, j]
    return vec / np.linalg.norm(vec)


def steering_measurement(purification, target: Ensemble) -> SteeringMeasurement:
    """POVM on the assisting factor steering to the target ensemble.

    The joint vector is indexed assisting-system-first: entry ``a * dB + b``.
    Outcome ``i`` leaves the remote side in ``target.atoms[i]`` with
    probability ``target.weights[i]``.
    """
    vec = np.asarray(purification, dtype=np.complex128).ravel()
    db = target.dim
    if vec.size % db != 0:
        raise NotAPurification(f"joint dimension {vec.size} not divisible by {db}")
    da = vec.size // db
    if abs(np.linalg.norm(vec) - 1.0) > 1e-9:
        raise NotAPurification("purification is not normalized")
    c = vec.reshape(da, db)
    rho_b = _herm(c.T @ c.conj())
    if float(np.linalg.norm(rho_b - target.average())) > 1e-8:
        raise IncompatibleEnsemble("ensemble average does not match the reduced state")

    w, u = eig_hermitian(rho_b)
    keep = w > 1e-12
    lam = w[keep]
    phi = u[:, keep]
    alice = (c @ phi.conj()) / np.sqrt(lam)[None, :]   # (da, r), orthonormal columns

    unnorm = target.atoms * np.sqrt(target.weights)[:, None]
    coeff = (unnorm @ phi.conj())                      # <phi_j | psi_i> per column j
    resid = unnorm - coeff @ phi.T
    if float(np.max(np.abs(resid))) > 1e-8:
        raise IncompatibleEnsemble("an atom leaves the support of the reduced state")
    u_iso = coeff / np.sqrt(lam)[None, :]

    operators = []
    for i in range(u_iso.shape[0]):
        m_vec = alice @ u_iso[i].conj()
        operators.append(np.outer(m_vec, m_vec.conj()))
    remainder = np.eye(da, dtype=np.complex128) - sum(operators)
    remainder = _herm(remainder)
    if float(np.max(np.abs(remainder))) < 1e-12:
        remainder = None
    return SteeringMeasurement(operators=operators, remainder=remainder)


# ---------------------------------------------------------------------------
# Monte Carlo


def simulate_protocol(rho, target: Ensemble, m: int, shots: int, seed: int):
    """Sample the assisted protocol: draw an atom, score its distillation
    fidelity at ``m``.  Returns ``(mean, standard_error)``; deterministic
    for a fixed seed (counter-based generator)."""
    rho = require_density(rho, check_psd=False)
    if target.reconstruction_residual(rho) > 1e-8:
        raise IncompatibleEnsemble("ensemble does not reconstruct the state")
    if shots < 1:
        raise ValueError("shots must be positive")
    scores = np.array([pure_distillation_fidelity(a, m) for a in target.atoms])
    weights = target.weights / target.weights.sum()
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = rng.multinomial(shots, weights)
    mean = float(counts @ scores) / shots
    if shots > 1:
        var = float(counts @ (scores - mean) ** 2) / (shots - 1)
    else:
        var = 0.0
    return mean, float(np.sqrt(max(var, 0.0) / shots))
