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

``ensemble_search`` explores general decompositions.  A decomposition
into k atoms is a k x d amplitude matrix A, rows sqrt(w_i) psi_i, with
A^dag A = rho^T, and any two are related by a k x k unitary acting on the
left (Hughston, Jozsa and Wootters).  Each start moves along that orbit:
a poll move rotates two rows of A by +-step, with a real or an imaginary
generator, so the reconstruction stays exact up to rounding (checked on
the returned ensemble) and a candidate differs from its start in two rows
only; one evaluation scores one rotated pair.  Random starts are random
isometries applied to the eigen-ensemble, one QR each.  The search works
on stacks: all restarts run in lockstep and each round adds up to sixteen
candidates per live start.  An objective is a sum or a maximum of
per-atom terms, each read from one atom's row alone and masked to 0 below
the weight floor instead of dropped, so one call scores the two rotated
rows of every candidate of a round, and each candidate reuses its start's
terms for the other rows.  Diagonal phases are free in this resource
theory, so every shipped objective reads an ensemble only through its
squared amplitudes w_i |psi_ij|^2: the search scores these real arrays
and forms the complex ``Ensemble`` for the returned decomposition alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dnorm import pure_distillation_fidelity
from .errors import (
    DimMismatch,
    DimTooLarge,
    IncompatibleEnsemble,
    NotAPurification,
    NotDistribution,
    NumericalFailure,
)
from .hermat import _DISTRIBUTION, eig_hermitian, eig_psd, require_density

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
_POLL_CHUNK = 16   # poll positions a start adds to each stacked call
_RANK_EIG_TOL = 1e-9
_ROUNDING_EIG = 1e-14   # negative eigenvalues above this are eigensolver rounding


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
    What is decomposed is rho's PSD part: the PSD gate's eigenvalues in
    [-1e-10, -1e-14) are taken out, since beside a zero diagonal entry they
    leave off-diagonals up to 1e-5.  Above -1e-14 a negative eigenvalue is
    rounding, and taking it out would only add noise to tiny diagonal
    entries, which the rescaling to unit diagonal amplifies; it is taken out
    only when an off-diagonal above 1e-9 sits beside a diagonal entry at or
    below 1e-18 ([[1, 5e-8], [5e-8, 0]] has eigenvalue -2.5e-15).  For
    every other state this step changes nothing.  Diagonal entries at or
    below 1e-18 are handled by restricting to the support and embedding
    back.
    Dimension 2 is a closed form.  Dimension 3
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
    rho = require_density(rho, check_psd=False)
    w, v = eig_psd(rho)
    dropped = np.diag(rho).real <= 1e-18
    # beside a dropped entry of a PSD state an off-diagonal is at most 1e-9;
    # a larger one is rounding-level negativity that must be taken out too
    beside = np.abs(rho[dropped]) > 1e-9
    neg = w < (0.0 if beside.any() else -_ROUNDING_EIG)
    if neg.any():
        rho = rho - (v[:, neg] * w[neg]) @ v[:, neg].conj().T
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


# An objective scores an ensemble atom by atom.  ``terms(probs)`` takes
# ``probs`` of shape (..., k, d), any leading batch axes, with
# probs[..., i, j] = w_i |psi_ij|^2, and returns the (..., k) per-atom
# terms, each computed from its atom's row alone and 0 for atoms at or
# below the weight floor: masked, never dropped, so a stack keeps its
# shape.  ``combine(terms, weights)`` reduces (..., k) terms and weights
# w_i to one value per ensemble, and ``evaluate(probs)`` is
# combine(terms(probs), probs.sum(-1)).  Every shipped objective measures
# the coherence of a pure state, which diagonal phases leave unchanged, so
# it reads atom i only through these squared amplitudes.


def _evaluate(objective, probs):
    # each objective class defines its own ``evaluate`` calling this, so
    # that cohbench's tracer, which wraps the method in the class's own
    # namespace, finds it
    probs = np.asarray(probs, dtype=float)
    return objective.combine(objective.terms(probs), probs.sum(axis=-1))


@dataclass(frozen=True)
class MaxAvgPureFidelity:
    """Maximize the weighted average pure-state distillation fidelity at m.

    The m-norm is 1-homogeneous, so w_i F(psi_i) is the fidelity of the
    unnormalized row sqrt(probs_i): ||sqrt(probs_i)||_(m)^2 / m.  The
    terms are summed.
    """

    m: int
    sense: str = "max"

    def terms(self, probs):
        probs = np.asarray(probs, dtype=float)
        scores = pure_distillation_fidelity(np.sqrt(probs), self.m)
        return np.where(probs.sum(axis=-1) > _WEIGHT_FLOOR, scores, 0.0)

    def combine(self, terms, weights):
        return np.sum(terms, axis=-1)

    def evaluate(self, probs):
        return _evaluate(self, probs)


@dataclass(frozen=True)
class MinMaxInfNormSq:
    """Minimize the largest squared amplitude over the atoms: each atom's
    term is the largest |psi_ij|^2 of its normalized atom, and the terms'
    maximum is taken."""

    sense: str = "min"

    def terms(self, probs):
        probs = np.asarray(probs, dtype=float)
        weights = probs.sum(axis=-1)
        return np.divide(np.max(probs, axis=-1), weights, out=np.zeros_like(weights),
                         where=weights > _WEIGHT_FLOOR)

    def combine(self, terms, weights):
        return np.max(terms, axis=-1)

    def evaluate(self, probs):
        return _evaluate(self, probs)


def _xlog2x(p):
    pos = p > 0.0
    return np.where(pos, p * np.log2(np.where(pos, p, 1.0)), 0.0)


@dataclass(frozen=True)
class MaxAvgDiagEntropy:
    """Maximize the weighted average entropy of the atoms' diagonals,
    sum_i w_i H(|psi_i|^2) = sum_i (w_i log2 w_i - sum_j P_ij log2 P_ij)
    with P = ``probs``; the terms are summed.

    ``combine`` (and so ``evaluate``) raises ``NotDistribution`` unless the
    weights of every ensemble in the stack sum to 1 within 1e-9 (NaN fails).
    """

    sense: str = "max"

    def terms(self, probs):
        probs = np.asarray(probs, dtype=float)
        weights = probs.sum(axis=-1)
        terms = _xlog2x(weights) - np.sum(_xlog2x(probs), axis=-1)
        return np.where(weights > _WEIGHT_FLOOR, terms, 0.0)

    def combine(self, terms, weights):
        if not np.all(np.abs(np.sum(weights, axis=-1) - 1.0) <= _DISTRIBUTION):
            raise NotDistribution(f"ensemble weights do not sum to 1 within {_DISTRIBUTION:.0e}")
        return np.sum(terms, axis=-1)

    def evaluate(self, probs):
        return _evaluate(self, probs)


def _eigen_basis(rho):
    """Columns sqrt(lam_j) phi_j of the eigen-ensemble of a Hermitian
    unit-trace ``rho``; raises ``NotPSD`` from the same eigenvalues
    (``eig_psd``), so callers validate with ``check_psd=False``."""
    w, u = eig_psd(rho)
    keep = w > 1e-12
    return u[:, keep] * np.sqrt(w[keep])


def _amplitudes(thetas, n_atoms, basis):
    """Unnormalized atoms sqrt(w_i) psi_i, shape (B, k, d), of the ensembles
    of a (B, npar) stack of parameter vectors: the rows of Q basis^T, Q the
    isometry from the QR factorization of the parameter matrix."""
    r = basis.shape[1]
    half = n_atoms * r
    m = np.empty((thetas.shape[0], half), dtype=np.complex128)
    m.real, m.imag = thetas[:, :half], thetas[:, half:]
    q, rr = np.linalg.qr(m.reshape(-1, n_atoms, r))
    # pin the column phases (diag of R real positive) so that an already
    # orthonormal M maps to itself; column phases change the ensemble
    dr = np.diagonal(rr, axis1=-2, axis2=-1)
    mag = np.abs(dr)
    phases = np.divide(dr, mag, out=np.ones_like(dr), where=mag > 0)
    return (q * phases[:, None, :]) @ basis.T


def _squared(amps):
    return amps.real ** 2 + amps.imag ** 2


def _ensemble(amps):
    """The ``Ensemble`` of one (k, d) amplitude matrix, with the atoms at or
    below the weight floor dropped."""
    weights = _squared(amps).sum(axis=-1)
    keep = weights > _WEIGHT_FLOOR
    return Ensemble(weights=weights[keep], atoms=amps[keep] / np.sqrt(weights[keep])[:, None])


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

    Each start is an amplitude matrix A (``atoms_cap`` x d, rows
    sqrt(w_i) psi_i) with A^dag A = rho^T, and a poll move rotates two of
    its rows, (a_j, a_l) -> (c a_j + s e^{i phi} a_l, c a_l - s e^{-i phi} a_j)
    with c, s the cosine and sine of +-step and phi in {0, pi/2}, so every
    candidate reconstructs ``rho`` and one evaluation scores one rotated
    pair.  The poll is a first-improvement search from ``restarts`` starts,
    run in lockstep (see ``_rotation_search``); the step starts at 0.3 rad
    and halves after each sweep without a move, down to 1e-7, and the first
    best start wins.  Random starts are random isometries applied to the
    eigen-ensemble.  Each start may spend max(64, max_evals // restarts)
    evaluations, so the total exceeds ``max_evals`` when
    64 * restarts > max_evals.  The returned ensemble's reconstruction
    residual is checked against 1e-8 (``NumericalFailure``), and the
    returned value is the objective evaluated on that ensemble: a one-sided
    bound on the corresponding convex-roof quantity, a lower bound for
    "max" objectives and an upper bound for "min" ones.

    In dimensions 2 and 3 the first start is the same-diagonal
    decomposition, which the theory makes optimal for all three shipped
    objectives, padded with zero rows up to ``atoms_cap``.

    ``objective`` has a ``sense`` ("max" or "min") and two pieces, both
    accepting leading batch axes.  ``terms(probs)`` maps ``probs`` of
    shape (..., k, d), the squared amplitudes w_i |psi_ij|^2 of each
    ensemble, to (..., k) per-atom terms; each must be computed from its
    atom's row alone, and atoms at or below the weight floor 1e-12 must
    get 0.  ``combine(terms, weights)`` reduces (..., k) terms and weights
    w_i = ``probs.sum(-1)`` to one value per ensemble.  The search calls
    ``terms`` on (B, 2, d) stacks of rotated rows, so a term that looked
    at other rows would be scored wrongly.  The returned value is
    ``objective.evaluate`` on the returned ensemble, which the shipped
    objectives define as combine(terms(probs), probs.sum(-1)).  The
    objective is thereby blind to the phases of the atoms' entries, as the
    shipped coherence measures are.
    """
    rho = require_density(rho, check_psd=False)
    d = rho.shape[0]
    basis = _eigen_basis(rho)
    rank = basis.shape[1]
    if atoms_cap < rank:
        raise ValueError(f"atoms_cap {atoms_cap} below rank {rank}")

    starts = []
    if d <= 3:
        try:
            warm = same_diagonal_decomposition(rho)
        except NumericalFailure:
            pass
        else:
            if warm.atoms.shape[0] > atoms_cap:
                raise ValueError("warm start has more atoms than atoms_cap")
            starts.append(np.zeros((atoms_cap, d), dtype=np.complex128))
            starts[0][: warm.atoms.shape[0]] = warm.atoms * np.sqrt(warm.weights)[:, None]

    rng = np.random.Generator(np.random.Philox(key=seed))
    if max(1, restarts) > len(starts):
        thetas = rng.standard_normal((max(1, restarts) - len(starts), 2 * atoms_cap * rank))
        starts += list(_amplitudes(thetas, atoms_cap, basis))

    amps, costs = _rotation_search(objective, starts, max(64, max_evals // len(starts)))
    ens = _ensemble(amps[np.argmin(costs)])  # the first minimum, as a strict scan keeps
    if not (residual := ens.reconstruction_residual(rho)) <= 1e-8:
        raise NumericalFailure(f"searched ensemble misses rho by {residual:.2e}")
    return ens, float(objective.evaluate(ens.weights[:, None] * _squared(ens.atoms)))


def _rotation_search(objective, amps0, budget, step0=0.3, step_min=1e-7):
    """First-improvement poll over pair rotations with step halving, run on
    an (S, k, d) stack of amplitude matrices in lockstep; returns the (S, k, d)
    amplitudes and their S costs (the objective's value, negated for "max").

    A sweep polls the 4 C(k, 2) positions (pair j < l in row-major order,
    then phi = 0, pi/2, then +step, -step) of the rotation described in
    ``ensemble_search``.  Each start takes its first candidate better than
    its current point by 1e-15 and resumes its poll at the next (pair, phi);
    a sweep with no move halves its step.  The first ``objective.terms``
    call scores every row of every start, and each start keeps its (k,)
    terms and weights.  Then each round, every live start (evaluations
    below ``budget``, step above ``step_min``) adds its next
    ``_POLL_CHUNK`` positions, clipped at the sweep's end and at its
    remaining budget, and one ``terms`` call scores the (B, 2, d) squared
    rotated rows of all B of them.  A candidate's terms and weights are its
    start's with those two columns replaced, and ``objective.combine``
    gives its value, the same reduction over the same k values as on the
    full stack, so bit for bit the same.  A move updates the two amplitude
    rows and the start's terms and weights.  Each start is charged only the
    candidates up to and including the one it accepts, so its moves,
    halvings and budget match a one-at-a-time poll of that start alone, and
    the calls number no more than its longest start would make.
    """
    sense = 1.0 if objective.sense == "min" else -1.0
    amps = np.array(amps0, dtype=np.complex128)
    probs = _squared(amps)
    # each start's per-atom terms and weights, kept up to date on its moves
    terms, weights = objective.terms(probs), probs.sum(axis=-1)
    best = sense * objective.combine(terms, weights)
    # per poll position, four per pair: the rotated rows (j, l) and the
    # factors of sin(step) that multiply a_l in row j and a_j in row l,
    # +-e^{i phi} and -+e^{-i phi} for phi = 0, pi/2 and the signs +, -
    pos_rows = np.repeat(np.transpose(np.triu_indices(amps.shape[1], 1)), 4, axis=0)
    n_pos = pos_rows.shape[0]
    pos_turn = np.tile([[1.0, -1.0], [-1.0, 1.0], [1j, 1j], [-1j, -1j]], (n_pos // 4, 1))
    # the steps step0 / 2^level above step_min; per level, cos(step), cast to
    # complex as numpy would cast it, and per level and poll position the
    # two factors times sin(step)
    steps, step = [], float(step0)
    while step > step_min:
        steps.append(step)
        step *= 0.5
    cos = np.array([math.cos(t) for t in steps], dtype=np.complex128)
    turns = np.array([math.sin(t) for t in steps])[:, None, None] * pos_turn
    evals = np.ones(best.size, dtype=np.int64)
    level, pos = np.zeros((2, best.size), dtype=np.int64)
    swept = best.copy()  # each start's cost when its sweep began
    chunk = np.arange(_POLL_CHUNK)
    slots = np.arange(best.size * _POLL_CHUNK)[:, None]  # a round's candidates
    while True:
        live = (evals < budget) & (level < len(steps))
        if n_pos == 0 or not live.any():
            return amps, best
        count = np.where(live, np.minimum(np.minimum(_POLL_CHUNK, n_pos - pos), budget - evals), 0)
        # the start polling each row and the row's place in that start's chunk
        owner, offset = np.nonzero(chunk < count[:, None])
        p, lev = pos[owner] + offset, level[owner]
        rows = pos_rows[p]
        ajl = amps[owner[:, None], rows]  # (B, 2, d): a_j, a_l
        # each factor has one exactly zero part, so every product rounds once
        new = cos[lev, None, None] * ajl + turns[lev, p][..., None] * ajl[:, ::-1]
        sq = _squared(new)
        # a candidate's terms and weights are its start's with two columns replaced
        cand = slots[: owner.size]
        cand_terms, cand_weights = terms[owner], weights[owner]
        cand_terms[cand, rows] = objective.terms(sq)
        cand_weights[cand, rows] = sq.sum(axis=-1)
        costs = sense * objective.combine(cand_terms, cand_weights)
        hits = np.flatnonzero(costs < best[owner] - 1e-15)
        # each start's first improvement: owners are sorted, so a hit leads
        # its start's hits when the hit before it has another owner
        hit_owner = owner[hits]
        lead = np.ones(hits.size, dtype=bool)
        np.not_equal(hit_owner[1:], hit_owner[:-1], out=lead[1:])
        first = hits[lead]
        moved = owner[first]
        evals += count
        evals[moved] += offset[first] + 1 - count[moved]
        pos += count
        pos[moved] = p[first] // 2 * 2 + 2  # the next pair or phase
        amps[moved[:, None], rows[first]] = new[first]
        terms[moved], weights[moved] = cand_terms[first], cand_weights[first]
        best[moved] = costs[first]
        done = live & ((pos >= n_pos) | (evals >= budget))
        level[done & ~(best < swept)] += 1  # no move lowered the cost
        pos[done] = 0
        swept[done] = best[done]


def random_decomposition(rho, n_atoms: int, seed: int = 0) -> Ensemble:
    """Random exact pure-state decomposition with ``n_atoms`` atoms."""
    rho = require_density(rho, check_psd=False)
    basis = _eigen_basis(rho)
    rank = basis.shape[1]
    if n_atoms < rank:
        raise ValueError(f"n_atoms {n_atoms} below rank {rank}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    theta = rng.standard_normal((1, 2 * n_atoms * rank))
    return _ensemble(_amplitudes(theta, n_atoms, basis)[0])


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
