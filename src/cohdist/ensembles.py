"""Pure-state decompositions: same-diagonal constructions, ensemble search,
steering measurements from a purification, and Monte Carlo protocol runs.

The constructive heart is ``same_diagonal_decomposition``: for dimensions
2 and 3 every state admits a pure-state ensemble whose atoms all share the
state's diagonal.  Dimension 2 is a closed form.  Dimension 3 rescales the
state to a correlation matrix (unit diagonal) and builds the ensemble
exactly and deterministically, with at most 3 atoms: a complex correlation
matrix of rank r can be extreme only if r^2 <= n (Li and Tam, SIAM J.
Matrix Anal. Appl. 15, 1994), so walking inside a face of the elliptope
ends at rank-one unimodular points, and these are peeled off one rank at a
time.

``ensemble_search`` explores general decompositions.  Atoms and weights
are parametrized through an isometry applied to the eigen-ensemble, so
every candidate reconstructs the state exactly by construction; a
coordinate-wise pattern search then optimizes the chosen objective.  The
search works on stacks: each poll builds up to eight candidate ensembles
with one batched QR, and the objectives score a whole stack of ensembles
in one call, masking atoms below the weight floor instead of dropping them.
"""

from dataclasses import dataclass

import numpy as np

from .dnorm import pure_distillation_fidelity
from .errors import (
    DimMismatch,
    DimTooLarge,
    IncompatibleEnsemble,
    NotAPurification,
    NumericalFailure,
)
from .hermat import eig_hermitian, eig_psd, require_density, shannon_entropy

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
_POLL_CHUNK = 8   # pattern-search candidates evaluated per stacked call
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


def _face_points(basis, w):
    """Unimodular vectors v whose v v^dag lie in the elliptope face through
    the correlation matrix ``basis @ M @ basis^dag``, M = diag(w), with
    orthonormal columns and positive ``w``.

    A Hermitian A with diag(basis A basis^dag) = 0 exists while r^2 exceeds
    the row count n, so M lies between the PSD-boundary points M + t A,
    t = -1 / (an extreme eigenvalue of M^-1/2 A M^-1/2), one on each side and
    each of lower rank; the walk recurses on both down to rank one.
    """
    r = w.size
    if r == 1:
        return [basis[:, 0] * np.sqrt(w[0])]
    # diag(basis A basis^dag) as a linear map of the real r x r matrix g with
    # A = sym(g) + i antisym(g); its last right singular vector is in the kernel
    p = np.einsum("ki,kj->kij", basis, basis.conj())
    lin = ((1 + 1j) * p + (1 - 1j) * p.transpose(0, 2, 1)).real.reshape(-1, r * r)
    g = np.linalg.svd(lin)[2][-1].reshape(r, r)
    a = 0.5 * (g + g.T) + 0.5j * (g - g.T)
    s = 1.0 / np.sqrt(w)
    beta = eig_hermitian(a * np.outer(s, s))[0]
    points = []
    for t in (-1.0 / beta[0], -1.0 / beta[-1]):
        wt, u = eig_hermitian(np.diag(w) + t * a)
        keep = wt > _RANK_EIG_TOL
        keep[0] = False  # the boundary point is singular by construction
        points += _face_points(basis @ u[:, keep], wt[keep])
    return points


def _correlation_atoms(x):
    """Split a unit-diagonal PSD matrix into at most rank-many weighted
    unimodular rank-one pieces.

    In range coordinates (x = basis @ M @ basis^dag, M = diag(w)), each step
    peels off the face point v v^dag with the smallest extractable weight
    1 / (c^dag M^-1 c), c = basis^dag v.  The remainder has one rank less and
    is never a tiny piece rescaled back up to unit diagonal.
    """
    w, u = eig_hermitian(x)
    keep = w > _RANK_EIG_TOL
    basis, w = u[:, keep], w[keep]
    atoms = []
    remaining = 1.0
    while w.size > 1:
        points = np.array(_face_points(basis, w))
        c = points @ basis.conj()
        q = np.sum(np.abs(c) ** 2 / w, axis=1)
        i = int(np.argmax(q))
        lam = 1.0 / q[i]
        atoms.append((remaining * lam, points[i]))
        w, u = eig_hermitian((np.diag(w) - lam * np.outer(c[i], c[i].conj())) / (1.0 - lam))
        basis, w = basis @ u[:, 1:], w[1:]
        remaining *= 1.0 - lam
    atoms.append((remaining, basis[:, 0] * np.sqrt(w[0])))
    return atoms


def _qubit_same_diagonal(x):
    """Closed form on the 2x2 correlation matrix [[1, c], [cbar, 1]]."""
    c = x[0, 1]
    mag = min(abs(c), 1.0)
    theta = np.angle(c) if mag > 1e-15 else 0.0
    plus = np.array([1.0, np.exp(-1j * theta)]) / np.sqrt(2.0)
    minus = np.array([1.0, -np.exp(-1j * theta)]) / np.sqrt(2.0)
    # atoms carry sqrt(2) so their entries are unimodular like in d=3
    return [((1.0 + mag) / 2.0, plus * np.sqrt(2.0)), ((1.0 - mag) / 2.0, minus * np.sqrt(2.0))]


def same_diagonal_decomposition(rho) -> Ensemble:
    """Pure-state decomposition whose every atom has the diagonal of ``rho``.

    Supports dimensions 2 and 3, where such a decomposition always exists.
    Diagonal entries at or below 1e-18 are handled by restricting to the
    support and embedding back.  Dimension 2 is a closed form.  Dimension 3
    is an exact, deterministic construction on the correlation matrix (the
    state rescaled to unit diagonal): a complex correlation matrix of rank r
    can be extreme only if r^2 <= n, so in n <= 3 every face of the
    elliptope walks down to rank-one unimodular points, which are peeled off
    one rank at a time.  The result has at most d atoms.

    Raises
    ------
    DimTooLarge
        for dimension 4 and up.
    NumericalFailure
        if the reconstruction or an atom's diagonal misses the 1e-8 target.
    """
    rho = require_density(rho)
    d = rho.shape[0]
    if d > 3:
        raise DimTooLarge(f"same-diagonal decompositions are constructed only for d <= 3, got {d}")

    diag = np.clip(np.diag(rho).real, 0.0, None)
    # for PSD rho an off-diagonal beside a dropped entry is at most
    # sqrt(1e-18 * rho_jj) <= 1e-9, within the 1e-8 residual targets
    support = np.flatnonzero(diag > 1e-18)
    droot = np.sqrt(diag[support])
    x = _herm(rho[np.ix_(support, support)] / np.outer(droot, droot))
    np.fill_diagonal(x, 1.0)
    atoms_s = _qubit_same_diagonal(x) if support.size == 2 else _correlation_atoms(x)

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


# Objectives take ``weights`` of shape (..., k) and ``atoms`` of shape
# (..., k, d), any leading batch axes, and return one value per ensemble.
# Atoms at or below the weight floor are masked out, never dropped, so a
# stack keeps its shape.


@dataclass(frozen=True)
class MaxAvgPureFidelity:
    """Maximize the weighted average pure-state distillation fidelity at m."""

    m: int
    sense: str = "max"

    def evaluate(self, weights, atoms):
        weights = np.asarray(weights, dtype=float)
        scores = pure_distillation_fidelity(atoms, self.m)
        return np.sum(np.where(weights > _WEIGHT_FLOOR, weights * scores, 0.0), axis=-1)


@dataclass(frozen=True)
class MinMaxInfNormSq:
    """Minimize the largest squared amplitude over the atoms."""

    sense: str = "min"

    def evaluate(self, weights, atoms):
        peak = np.max(np.abs(atoms) ** 2, axis=-1)
        return np.max(np.where(np.asarray(weights) > _WEIGHT_FLOOR, peak, 0.0), axis=-1)


@dataclass(frozen=True)
class MaxAvgDiagEntropy:
    """Maximize the weighted average entropy of the atoms' diagonals."""

    sense: str = "max"

    def evaluate(self, weights, atoms):
        weights = np.asarray(weights, dtype=float)
        live = weights > _WEIGHT_FLOOR
        # masked atoms get a stand-in distribution so the gate sees only live ones
        p = np.where(live[..., None], np.abs(atoms) ** 2, 1.0)
        entropy = shannon_entropy(p / p.sum(axis=-1, keepdims=True))
        return np.sum(np.where(live, weights * entropy, 0.0), axis=-1)


def _eigen_basis(rho):
    """Eigen-ensemble of a Hermitian unit-trace ``rho``; raises ``NotPSD`` from
    the same eigenvalues (``eig_psd``), so callers validate with
    ``check_psd=False``."""
    w, u = eig_psd(rho)
    keep = w > 1e-12
    lam = w[keep]
    phi = u[:, keep]
    return phi * np.sqrt(lam), phi, lam  # basis columns sqrt(lam_j) phi_j


def _ensemble_from_theta(thetas, n_atoms, basis):
    """Ensembles from a (B, npar) stack of parameter vectors: (B, k) weights
    and (B, k, d) atoms, atoms below the weight floor set to zero."""
    r = basis.shape[1]
    half = n_atoms * r
    m = (thetas[:, :half] + 1j * thetas[:, half:]).reshape(-1, n_atoms, r)
    q, rr = np.linalg.qr(m)
    # pin the column phases (diag of R real positive) so that an already
    # orthonormal M maps to itself; column phases change the ensemble
    dr = np.diagonal(rr, axis1=-2, axis2=-1)
    phases = np.where(np.abs(dr) > 0, dr / np.where(np.abs(dr) > 0, np.abs(dr), 1.0), 1.0)
    q = q * phases[:, None, :]
    unnorm = q @ basis.T  # rows are unnormalized atoms sqrt(w_i) psi_i
    weights = np.sum(np.abs(unnorm) ** 2, axis=-1)
    atoms = np.where(
        weights[..., None] > _WEIGHT_FLOOR,
        unnorm / np.sqrt(np.maximum(weights, 1e-300))[..., None],
        0.0,
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
) -> tuple[Ensemble, float]:
    """Locally optimal pure-state decomposition for the given objective.

    Decompositions are parametrized by an isometry mixing the eigen-
    ensemble, so every candidate reconstructs ``rho`` exactly; a
    coordinate-wise pattern search (shared evaluation budget across
    ``restarts`` starts) optimizes the objective.  The returned value is a
    one-sided bound on the corresponding convex-roof quantity: a lower
    bound for "max" objectives, an upper bound for "min" ones.

    In dimensions 2 and 3 the first start is the same-diagonal
    decomposition, which the theory makes optimal for all three shipped
    objectives.

    ``objective`` has a ``sense`` ("max" or "min") and an
    ``evaluate(weights, atoms)`` that must accept leading batch axes:
    weights of shape (..., k) and atoms of shape (..., k, d), returning
    one value per ensemble.  The search scores its candidates in stacks.
    """
    rho = require_density(rho, check_psd=False)
    d = rho.shape[0]
    basis, phi, lam = _eigen_basis(rho)
    rank = basis.shape[1]
    if atoms_cap < rank:
        raise ValueError(f"atoms_cap {atoms_cap} below rank {rank}")

    sense = 1.0 if objective.sense == "min" else -1.0

    def cost(thetas):
        weights, atoms = _ensemble_from_theta(thetas, atoms_cap, basis)
        return sense * objective.evaluate(weights, atoms)

    starts: list[np.ndarray] = []
    if d <= 3:
        try:
            warm = same_diagonal_decomposition(rho)
        except NumericalFailure:
            pass
        else:
            if warm.atoms.shape[0] > atoms_cap:
                raise ValueError("warm start has more atoms than atoms_cap")
            starts.append(_theta_from_ensemble(warm, phi, lam, atoms_cap))

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

    weights, atoms = _ensemble_from_theta(best_theta[None, :], atoms_cap, basis)
    keep = weights[0] > _WEIGHT_FLOOR
    ens = Ensemble(weights=weights[0][keep], atoms=atoms[0][keep])
    return ens, sense * best_cost


def _pattern_search(cost, theta0, budget, step0=0.3, step_min=1e-7):
    """First-improvement coordinate search with step halving.

    The poll order is (coordinate 0, +step), (0, -step), (1, +step), ...;
    the first candidate better than the current point by 1e-15 is taken
    and the poll resumes at the next coordinate, and a sweep with no move
    halves the step.  ``cost`` maps a (B, n) stack to B values, and the
    poll evaluates up to ``_POLL_CHUNK`` candidates per call.  Only the
    candidates up to and including the accepted one are charged to
    ``budget``, so moves, halvings and the budget match a one-at-a-time poll.
    """
    theta = theta0.astype(float).copy()
    best = cost(theta[None, :])[0]
    evals = 1
    step = step0
    n = theta.size
    while evals < budget and step > step_min:
        improved = False
        pos = 0  # position in the sweep's poll order, 2 * coordinate + sign
        while pos < 2 * n and evals < budget:
            order = np.arange(pos, min(pos + _POLL_CHUNK, 2 * n, pos + budget - evals))
            idx = order // 2
            cands = np.repeat(theta[None, :], order.size, axis=0)
            cands[np.arange(order.size), idx] += np.where(order % 2 == 0, step, -step)
            costs = cost(cands)
            better = np.flatnonzero(costs < best - 1e-15)
            if better.size:
                j = int(better[0])
                theta, best = cands[j], costs[j]
                improved = True
                evals += j + 1
                pos = 2 * (int(idx[j]) + 1)
            else:
                evals += order.size
                pos += order.size
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
    theta = rng.standard_normal((1, 2 * n_atoms * rank))
    weights, atoms = _ensemble_from_theta(theta, n_atoms, basis)
    keep = weights[0] > _WEIGHT_FLOOR
    return Ensemble(weights=weights[0][keep], atoms=atoms[0][keep])


# ---------------------------------------------------------------------------
# steering


def purify(rho) -> np.ndarray:
    """Canonical purification: assisting system first, same dimension.

    Entry ``j * d + b`` is ``sqrt(w_j) u_bj`` for the eigenpairs of ``rho``.
    """
    w, u = eig_psd(require_density(rho, check_psd=False))
    vec = (u * np.sqrt(np.clip(w, 0.0, None))).T.ravel()
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
    scores = pure_distillation_fidelity(target.atoms, m)
    weights = target.weights / target.weights.sum()
    rng = np.random.Generator(np.random.Philox(key=seed))
    counts = rng.multinomial(shots, weights)
    mean = float(counts @ scores) / shots
    if shots > 1:
        var = float(counts @ (scores - mean) ** 2) / (shots - 1)
    else:
        var = 0.0
    return mean, float(np.sqrt(max(var, 0.0) / shots))
