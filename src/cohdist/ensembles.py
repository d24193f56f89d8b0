"""Pure-state decompositions: same-diagonal constructions, ensemble search
and steering measurements from a purification.

The constructive heart is ``same_diagonal_decomposition``: for dimensions
2 and 3 every state admits a pure-state ensemble whose atoms all share the
state's diagonal.  It rescales the state to a correlation matrix x (unit
diagonal) and splits x in closed form into at most 3 weighted unimodular
rank-one pieces, on one code path for both dimensions.  A full-rank x
sheds the largest multiple of one unimodular v v^dag that keeps it PSD,
which leaves unit diagonal and rank 2.  A rank-2 Gram factor with unit
rows g_j in C^2 is rotated by the 2 x 2 unitary whose Bloch axis is
orthogonal to every difference of the rows' Bloch vectors, so that each
rotated column has entries of one magnitude; at most three rows always
admit such an axis.

``ensemble_search`` explores general decompositions.  A decomposition
into k atoms is a k x d amplitude matrix A, rows sqrt(w_i) psi_i, with
A^dag A = rho^T, and any two are related by a k x k unitary acting on
the left (Hughston, Jozsa and Wootters).  Each start moves along that
orbit: a poll move rotates two rows of A by +-step, with a real or an
imaginary generator, so the reconstruction stays exact up to rounding
(checked on the returned ensemble) and a candidate differs from its
start in two rows only; one evaluation scores one rotated pair.  Random
starts are random isometries applied to the eigen-ensemble, one QR each.
The search works on stacks: all restarts run in lockstep and each round
adds up to sixteen candidates per live start.  Each start's control
state (evaluations used, poll position, step level, costs) is a few
Python scalars, while the candidates of a round, of every start at once,
are gathered, rotated and scored in one stacked numpy pass.  The poll's
rotated rows and rotation factors are read-only tables, built once per
atom count and step range and indexed by one flat (step level, poll
position) index, so a round reads them, its candidates' row pairs and
their starts' terms and weights with one ``take`` each.  An objective is
a sum or a maximum of per-atom terms, each read from one atom's row
alone and masked to 0 below the weight floor instead of dropped, so one
call scores the two rotated rows of every candidate of a round, and each
candidate reuses its start's terms for the other rows.  Diagonal phases
are free in this resource theory, so every shipped objective reads an
ensemble only through its squared amplitudes w_i |psi_ij|^2: the search
scores these real arrays and forms the complex ``Ensemble`` for the
returned decomposition alone.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

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
from .hermat import _DISTRIBUTION, _density_eig, eig_hermitian

__all__ = [
    "Ensemble",
    "MaxAvgDiagEntropy",
    "MaxAvgPureFidelity",
    "MinMaxInfNormSq",
    "SteeringMeasurement",
    "ensemble_search",
    "evaluate",
    "purify",
    "same_diagonal_decomposition",
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


def _unimodular_atoms(x):
    """Weights p (k,) and unimodular vectors V (k, s) with
    x = sum_k p_k V_k V_k^dag, for a PSD unit-diagonal x of order s <= 3.

    A full-rank x first sheds the unimodular v = e^{i arg u_min}, u_min its
    eigenvector of the smallest eigenvalue, with the largest weight x
    allows, lam = 1 / (v^dag x^-1 v) <= w_min: the remainder
    (x - lam v v^dag) / (1 - lam) has unit diagonal and rank 2.  Otherwise
    lam = 0, and ``_ensemble``'s weight floor drops that first atom.  A
    rank-2 matrix g g^dag with unit rows g_j in C^2 splits by a 2 x 2
    unitary E whose first column has Bloch vector n:
    |(g E)_jk|^2 = (1 +- b_j . n) / 2, b_j the Bloch vector of conj(g_j),
    which is the same for every j when n is orthogonal to every b_j - b_1.
    Such an n exists for up to three rows, so each column of g E is a
    unimodular vector times one magnitude.  For two rows the SVD's last
    vector of the kernel plane is e_z when the difference has no z part,
    as for the eigenvectors of a 2 x 2 correlation matrix, so E = I and a
    qubit splits into weights (1 +- |x_01|) / 2.
    """
    w, u = eig_hermitian(x)
    lam, v = 0.0, np.ones(x.shape[0])
    if np.count_nonzero(w > _RANK_EIG_TOL) > 2:
        v = np.exp(1j * np.angle(u[:, 0]))
        lam = 1.0 / np.sum(_squared(v @ u.conj()) / w)
        # by interlacing the remainder's two largest eigenvalues pass the
        # rank tolerance, so only its third, zero in exact arithmetic, drops
        w, u = eig_hermitian((x - lam * np.outer(v, v.conj())) / (1.0 - lam))
    # Gram factor of the two largest eigenpairs, largest first, with rows
    # renormalized to unit length so that every diagonal entry stays exact
    top = w[:-3:-1]
    g = np.zeros((x.shape[0], 2), dtype=np.complex128)
    g[:, : top.size] = u[:, :-3:-1] * np.sqrt(np.where(top > _RANK_EIG_TOL, top, 0.0))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    # b_z = 1 - 2 |g_j1|^2 is exactly 1 on every row of a rank-1 x, whose
    # differences then vanish and leave n on the z axis: one atom
    cross = g[:, 0] * g[:, 1].conj()
    b = np.column_stack([2.0 * cross.real, 2.0 * cross.imag, 1.0 - 2.0 * _squared(g[:, 1])])
    n = np.linalg.svd(b[1:] - b[0])[2][-1]
    n = -n if n[2] < 0.0 else n
    z, c = n[0] + 1j * n[1], 1.0 + n[2]
    a = g @ np.array([[c, -z.conjugate()], [z, c]]) / np.sqrt(2.0 * c)
    weights = np.append(lam, (1.0 - lam) * np.mean(_squared(a), axis=0))
    return weights, np.vstack([v, np.exp(1j * np.angle(a)).T])


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
    The construction works on the correlation matrix x (the state rescaled
    to unit diagonal) and is closed-form, with one code path for qubits and
    qutrits: a full-rank x sheds one unimodular rank-one piece, and the
    rank-2 rest splits along a Bloch axis into two (see
    ``_unimodular_atoms``).  Atom k is sqrt(rho_jj) e^{i phi_jk} for
    unimodular columns e^{i phi_k} of x's split, so every atom's diagonal
    is exact, and the result has at most d atoms.  Eigenvalues of x at or
    below 1e-9 count as zero, which can cost up to about 1e-9 of
    reconstruction.

    Raises
    ------
    DimTooLarge
        for dimension 4 and up.
    NumericalFailure
        if the reconstruction or an atom's diagonal misses the 1e-8 target.
    """
    rho, w, v = _density_eig(rho)
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
    weights, phases = _unimodular_atoms(x)
    amps = np.zeros((weights.size, d), dtype=np.complex128)
    amps[:, support] = np.sqrt(weights)[:, None] * droot * phases
    ens = _ensemble(amps)

    recon = ens.reconstruction_residual(rho)
    diag_dev = float(np.max(np.abs(_squared(ens.atoms) - diag)))
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
# w_i to one value per ensemble.  Every shipped objective measures the
# coherence of a pure state, which diagonal phases leave unchanged, so it
# reads atom i only through these squared amplitudes.


def evaluate(objective, probs):
    """An objective's value on ``probs`` of shape (..., k, d), one value per
    ensemble: ``combine(terms(probs), probs.sum(-1))``."""
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
    sense = "max"

    def terms(self, probs):
        probs = np.asarray(probs, dtype=float)
        scores = pure_distillation_fidelity(np.sqrt(probs), self.m)
        return np.where(np.add.reduce(probs, axis=-1) > _WEIGHT_FLOOR, scores, 0.0)

    def combine(self, terms, weights):
        return np.add.reduce(terms, axis=-1)


@dataclass(frozen=True)
class MinMaxInfNormSq:
    """Minimize the largest squared amplitude over the atoms: each atom's
    term is the largest |psi_ij|^2 of its normalized atom, and the terms'
    maximum is taken."""

    sense = "min"

    def terms(self, probs):
        probs = np.asarray(probs, dtype=float)
        weights = np.add.reduce(probs, axis=-1)
        return np.divide(np.maximum.reduce(probs, axis=-1), weights, out=np.zeros(weights.shape),
                         where=weights > _WEIGHT_FLOOR)

    def combine(self, terms, weights):
        return np.maximum.reduce(terms, axis=-1)


def _xlog2x(p):
    pos = p > 0.0
    out = np.log2(p, out=np.zeros(p.shape), where=pos)
    return np.multiply(out, p, out=out, where=pos)


@dataclass(frozen=True)
class MaxAvgDiagEntropy:
    """Maximize the weighted average entropy of the atoms' diagonals,
    sum_i w_i H(|psi_i|^2) = sum_i (w_i log2 w_i - sum_j P_ij log2 P_ij)
    with P = ``probs``; the terms are summed.

    ``combine`` (and so ``evaluate``) raises ``NotDistribution`` unless the
    weights of every ensemble in the stack sum to 1 within 1e-9 (NaN fails).
    """

    sense = "max"

    def terms(self, probs):
        probs = np.asarray(probs, dtype=float)
        weights = np.add.reduce(probs, axis=-1)
        terms = _xlog2x(weights)
        terms -= np.add.reduce(_xlog2x(probs), axis=-1)
        terms[~(weights > _WEIGHT_FLOOR)] = 0.0  # NaN weights too
        return terms

    def combine(self, terms, weights):
        if not (abs(np.add.reduce(weights, axis=-1) - 1.0) <= _DISTRIBUTION).all():
            raise NotDistribution(f"ensemble weights do not sum to 1 within {_DISTRIBUTION:.0e}")
        return np.add.reduce(terms, axis=-1)


def _eigen_basis(w, u):
    """Columns sqrt(lam_j) phi_j of the eigen-ensemble of a state with
    PSD-gated eigenpairs ``w``, ``u``."""
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

    ``objective`` has a ``sense``, "max" or "min" (any other value is a
    ``ValueError``), and two pieces, both accepting leading batch axes.
    ``terms(probs)`` maps ``probs`` of shape (..., k, d), the squared
    amplitudes w_i |psi_ij|^2 of each ensemble, to (..., k) per-atom
    terms; each must be computed from its atom's row alone, and atoms at or
    below the weight floor 1e-12 must get 0.  ``combine(terms, weights)``
    reduces (..., k) terms and weights w_i = ``probs.sum(-1)`` to one value
    per ensemble.  The search calls ``terms`` on (B, 2, d) stacks of
    rotated rows, so a term that looked at other rows would be scored
    wrongly.  The returned value is ``evaluate(objective, probs)``,
    combine(terms(probs), probs.sum(-1)), on the returned ensemble, so
    ``sense``, ``terms`` and ``combine`` are the whole contract.  Reading
    only squared amplitudes, the objective is blind to the phases of the
    atoms' entries, as the shipped coherence measures are.
    """
    rho, w, u = _density_eig(rho)
    d = rho.shape[0]
    basis = _eigen_basis(w, u)
    rank = basis.shape[1]
    if atoms_cap < rank:
        raise ValueError(f"atoms_cap {atoms_cap} below rank {rank}")
    if objective.sense not in ("max", "min"):
        raise ValueError(f"objective sense must be 'max' or 'min', got {objective.sense!r}")

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
    return ens, float(evaluate(objective, ens.weights[:, None] * _squared(ens.atoms)))


@lru_cache(maxsize=16)
def _poll_tables(n_atoms, step0, step_min):
    """The rotation poll on k = ``n_atoms`` rows, built once per (k,
    ``step0``, ``step_min``): the number n_pos = 4 C(k, 2) of poll
    positions, the number of step levels, and per flat index
    q = level * n_pos + p two read-only tables, the rotated rows (j, l) of
    position p, shape (q, 2), and the factors (cos, t_j, t_l) of its
    rotation at that level's step, shape (q, 3).

    The steps are step0 / 2^level above step_min.  cos(step) is cast to
    complex as numpy would cast it, and t_j, t_l are the factors of
    sin(step) that multiply a_l in row j and a_j in row l: +-e^{i phi} and
    -+e^{-i phi} for phi = 0, pi/2 and the signs +, -, four positions per
    pair j < l in row-major order.
    """
    pos_rows = np.repeat(np.transpose(np.triu_indices(n_atoms, 1)), 4, axis=0)
    n_pos = pos_rows.shape[0]
    pos_turn = np.tile([[1.0, -1.0], [-1.0, 1.0], [1j, 1j], [-1j, -1j]], (n_pos // 4, 1))
    steps, step = [], float(step0)
    while step > step_min:
        steps.append(step)
        step *= 0.5
    factors = np.empty((len(steps), n_pos, 3), dtype=np.complex128)
    factors[..., 0] = np.array([math.cos(t) for t in steps])[:, None]
    factors[..., 1:] = np.array([math.sin(t) for t in steps])[:, None, None] * pos_turn
    rows = np.tile(pos_rows, (len(steps), 1))
    factors = factors.reshape(-1, 3)
    rows.flags.writeable = factors.flags.writeable = False
    return n_pos, len(steps), rows, factors


def _rotation_search(objective, amps0, budget, step0=0.3, step_min=1e-7):
    """First-improvement poll over pair rotations with step halving, run on
    an (S, k, d) stack of amplitude matrices in lockstep; returns the (S, k, d)
    amplitudes and their S costs (the objective's value, negated for "max").

    A sweep polls the 4 C(k, 2) positions (pair j < l in row-major order,
    then phi = 0, pi/2, then +step, -step) of the rotation described in
    ``ensemble_search``.  Each start takes its first candidate better than
    its current point by 1e-15 and resumes its poll at the next (pair, phi);
    a sweep with no move halves its step.

    Each start's control state is Python scalars, one list entry per start:
    evaluations used, poll position, step level, current cost and the cost
    when its sweep began.  Everything of candidate scale is stacked numpy.
    The poll's rows and rotation factors come from ``_poll_tables``, built
    once per (k, ``step0``, ``step_min``) and indexed by the flat (level,
    position) index q.  The first ``objective.terms`` call scores every row
    of every start, and each start keeps its (k,) terms and weights in one
    (S, 2, k) array.  Then each round, every live start (evaluations below
    ``budget``, step above ``step_min``) adds its next ``_POLL_CHUNK``
    positions, clipped at the sweep's end and at its remaining budget: a
    run of consecutive q, so a slice of the flat (start, q) index.  One
    ``concatenate`` of those slices and one ``divmod`` give the round's
    owners and q.  One ``take`` each reads the candidates' rotated rows,
    their rotation factors, their (B, 2, d) row pairs and their starts'
    terms and weights.  The pairs are rotated and squared, one ``terms``
    call scores them, and their terms and weights replace those two
    columns of the candidates' copies.  One ``objective.combine`` over the
    two halves gives every candidate's value, the same reduction over the
    same k values as on the full stack, so bit for bit the same.  A start's
    move is the first candidate of its slice that beats its cost by 1e-15,
    compared as Python floats; it updates the two amplitude rows and the
    start's terms and weights.  Each start is charged only the candidates
    up to and including the one it accepts, so its moves, halvings and
    budget match a one-at-a-time poll of that start alone, and the calls
    number no more than its longest start would make.  The Python loop
    runs over the starts, for this control alone.
    """
    sense = 1.0 if objective.sense == "min" else -1.0
    amps = np.array(amps0, dtype=np.complex128)
    n_starts, k, d = amps.shape
    n_pos, n_levels, pos_rows, factors = _poll_tables(k, step0, step_min)
    probs = _squared(amps)
    # each start's per-atom terms and weights, kept up to date on its moves
    tw = np.stack((objective.terms(probs), np.add.reduce(probs, axis=-1)), axis=1)
    cost = (sense * objective.combine(tw[:, 0], tw[:, 1])).tolist()
    evals, pos, level, swept = [1] * n_starts, [0] * n_starts, [0] * n_starts, list(cost)
    flat_amps = amps.reshape(-1, d)
    n_q = n_levels * n_pos
    flat_q = np.arange(n_starts * n_q)  # start s at poll index q is s * n_q + q
    # where candidate b's terms begin in a round's (B, 2, k) terms and weights
    slots = np.arange(0, n_starts * _POLL_CHUNK * 2 * k, 2 * k)[:, None]
    while True:
        # per live start (pos < n_pos fails only when there is no pair):
        # its place in the round, its count and its slice of the flat index
        spans, pieces, size = [], [], 0
        for s in range(n_starts):
            if evals[s] < budget and level[s] < n_levels and pos[s] < n_pos:
                count = min(_POLL_CHUNK, n_pos - pos[s], budget - evals[s])
                spans.append((s, size, count))
                size += count
                q0 = s * n_q + level[s] * n_pos + pos[s]
                pieces.append(flat_q[q0:q0 + count])
        if not spans:
            return amps, np.array(cost)
        owner, q = np.divmod(np.concatenate(pieces), n_q)
        rows, f = pos_rows.take(q, axis=0), factors.take(q, axis=0)
        at = rows + k * owner[:, None]  # the rotated rows of the flat amplitudes
        ajl = flat_amps.take(at, axis=0)  # (B, 2, d): a_j, a_l
        # each factor has one exactly zero part, so every product rounds once
        new = f[:, :1, None] * ajl + f[:, 1:, None] * ajl[:, ::-1]
        sq = _squared(new)
        # a candidate's terms and weights are its start's with two columns replaced
        cand = tw.take(owner, axis=0)
        cols, flat = slots[: owner.size] + rows, cand.reshape(-1)
        flat[cols] = objective.terms(sq)
        flat[cols + k] = np.add.reduce(sq, axis=-1)
        costs = (sense * objective.combine(cand[:, 0], cand[:, 1])).tolist()
        for s, i0, count in spans:
            bar = cost[s] - 1e-15
            for i in range(i0, i0 + count):
                if costs[i] < bar:  # the start's first improvement
                    evals[s] += i - i0 + 1
                    pos[s] = (pos[s] + i - i0) // 2 * 2 + 2  # the next pair or phase
                    flat_amps[at[i]] = new[i]
                    tw[s] = cand[i]
                    cost[s] = costs[i]
                    break
            else:
                evals[s] += count
                pos[s] += count
            if pos[s] >= n_pos or evals[s] >= budget:
                if not cost[s] < swept[s]:  # no move lowered the cost
                    level[s] += 1
                pos[s], swept[s] = 0, cost[s]


# ---------------------------------------------------------------------------
# steering


def purify(rho) -> np.ndarray:
    """Canonical purification: assisting system first, same dimension.

    Entry ``j * d + b`` is ``sqrt(w_j) u_bj`` for the eigenpairs of ``rho``.
    """
    _, w, u = _density_eig(rho)
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

    # row i is alice @ conj(u_iso[i]), the measurement vector of outcome i
    operators = [np.outer(v, v.conj()) for v in u_iso.conj() @ alice.T]
    remainder = _herm(np.eye(da, dtype=np.complex128) - sum(operators))
    if float(np.max(np.abs(remainder))) < 1e-12:
        remainder = None
    return SteeringMeasurement(operators=operators, remainder=remainder)
