"""Small dense semidefinite-program solver and problem builders.

Canonical problem form (``sense="max"``):

    maximize    sum_l <C_l, X_l>
    subject to  sum_l <A_kl, X_l> = b_k      (k = 1..K)
                X_l Hermitian PSD            (one block per entry of block_dims)

with the real inner product ``<A, B> = Re tr(A^dag B)``.  Inequalities are
encoded by the builders as 1x1 slack blocks.  ``sense="min"`` problems are
negated internally and reported in their own sense.

The solver is an infeasible-start primal-dual path-following method with
Nesterov-Todd scaling, started at the identity, stepping fraction 0.98 of
the way to the cone boundary, with the centering parameter adapted in
[0.1, 0.9] from an affine predictor.  Complex Hermitian blocks are handled
natively; the scaling points come from ``hermat.eig_hermitian``.

The constraints form a stacked operator, built once per solve: per block
l, ``rows_l`` lists the constraints touching it and ``A_l`` holds their
coefficients as a ``(k_l, n_l^2)`` array.  Then ``A(X)[rows_l] +=
Re(conj(A_l) @ vec X_l)``, ``A*(y)_l = y[rows_l] @ A_l``, and the Schur
matrix ``sum_l Re(conj(A_l) @ vec(W_l A_l W_l)^T)`` is scattered into
``rows_l x rows_l`` (the SDPT3/SDPA assembly).  It is Cholesky-factored
once per iteration, and so is each iterate, for both step lengths.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BadM, CapExceeded, DimMismatch, IllPosed, NonHermitian, NumericalFailure
from .hermat import eig_hermitian, hermitian_defect, require_density

__all__ = [
    "SdpProblem",
    "SdpSolution",
    "build_fidelity",
    "build_fidelity_over_Mm",
    "build_min_diag_over_ball",
    "solve",
]

_BLOCK_DIM_CAP = 256   # largest PSD block the solver accepts


@dataclass
class SdpProblem:
    """Dense SDP data: PSD block sizes, Hermitian objective and equality
    coefficients (per block, sparse over blocks), right-hand sides."""

    block_dims: list[int]
    objective: list[np.ndarray | None]
    constraints: list[dict[int, np.ndarray]]
    rhs: np.ndarray
    sense: str = "max"

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {self.sense!r}")
        self.rhs = np.asarray(self.rhs, dtype=float).ravel()
        if len(self.constraints) != self.rhs.size:
            raise DimMismatch("one right-hand side per constraint required")
        for blk, dim in enumerate(self.block_dims):
            obj = self.objective[blk]
            if obj is None:
                continue
            if obj.shape != (dim, dim):
                raise DimMismatch(f"objective block {blk} has wrong shape")
            if hermitian_defect(obj) > 1e-9:
                raise NonHermitian(f"objective block {blk} is not Hermitian")
        for blk, ((rows, a), dim) in enumerate(zip(_stack(self), self.block_dims)):
            a = a.reshape(-1, dim, dim)
            bad = np.flatnonzero(np.abs(a - a.conj().transpose(0, 2, 1)).max(axis=(1, 2)) > 1e-9)
            if bad.size:
                raise NonHermitian(f"constraint {rows[bad[0]]} block {blk} is not Hermitian")


@dataclass
class SdpSolution:
    """Certified primal-dual answer, reported in the problem's sense.

    ``exit_reason``: "converged", "certified_from_best_iterate" (an early
    end whose best iterate meets the contract, so status "optimal"),
    "stalled", "nonfinite_direction", "max_iter" (these three with status
    "max_iter") or "infeasible"."""

    status: str                       # "optimal" | "max_iter" | "infeasible"
    primal_value: float
    dual_value: float
    primal_blocks: list[np.ndarray] = field(repr=False)
    dual_y: np.ndarray = field(repr=False)
    gap: float = 0.0
    primal_residual: float = 0.0
    dual_residual: float = 0.0
    iterations: int = 0
    exit_reason: str = "converged"


def _herm(a):
    return 0.5 * (a + a.conj().T)


def _stack(problem):
    """Per block l, ``(rows_l, A_l)``: the indices of the constraints that
    touch block l and their coefficients as a ``(k_l, n_l^2)`` array."""
    dims = problem.block_dims
    rows, mats = [[] for _ in dims], [[] for _ in dims]
    for k, con in enumerate(problem.constraints):
        for blk, mat in con.items():
            if not 0 <= blk < len(dims) or mat.shape != (dims[blk],) * 2:
                raise DimMismatch(f"constraint {k} block {blk} has wrong shape")
            rows[blk].append(k)
            mats[blk].append(mat)
    return [
        (np.array(r, dtype=np.intp), np.array(m, dtype=np.complex128).reshape(len(r), d * d))
        for r, m, d in zip(rows, mats, dims)
    ]


def _apply(ops, blocks, k) -> np.ndarray:
    out = np.zeros(k)
    for (rows, a), x in zip(ops, blocks):
        out[rows] += (a @ x.conj().ravel()).real
    return out


def _adjoint(ops, y, dims):
    return [(y[rows] @ a).reshape(d, d) for (rows, a), d in zip(ops, dims)]


def _schur(ops, w, k) -> np.ndarray:
    """M_ij = sum_l <A_il, W_l A_jl W_l>, assembled from the upper triangle."""
    m = np.zeros((k, k))
    for (rows, a), wl in zip(ops, w):
        n = wl.shape[0]
        t = wl @ a.reshape(-1, n, n) @ wl
        m[np.ix_(rows, rows)] += (a.conj() @ t.reshape(-1, n * n).T).real
    return np.triu(m) + np.triu(m, 1).T


def _check_rank(ops, k):
    if k == 0:
        return
    gram = np.zeros((k, k))
    for rows, a in ops:
        gram[np.ix_(rows, rows)] += (a.conj() @ a.T).real
    w = np.linalg.eigvalsh(gram)
    top = max(float(w[-1]), 0.0)
    if top <= 0.0 or float(w[0]) < 1e-10 * top:
        raise IllPosed(
            f"equality constraints are rank-deficient (gram eigenvalues span "
            f"[{float(w[0]):.3e}, {top:.3e}])"
        )


def _eig_floor(w) -> np.ndarray:
    # relative floor: boundary iterates otherwise produce 1e300-scale
    # scaling points whose products overflow
    return np.clip(w, 1e-14 * max(float(w[-1]), 1e-100), None)


def _nt_scaling(x, z):
    """Return (W, Zinv) with W the Nesterov-Todd point: W Z W = X."""
    if x.shape[0] == 1:
        xv = max(x[0, 0].real, 1e-30)
        zv = max(z[0, 0].real, 1e-30)
        return (
            np.array([[np.sqrt(xv / zv)]], dtype=np.complex128),
            np.array([[1.0 / zv]], dtype=np.complex128),
        )
    wz, uz = eig_hermitian(z)
    wz = _eig_floor(wz)
    zh = (uz * np.sqrt(wz)) @ uz.conj().T
    zmh = (uz * (1.0 / np.sqrt(wz))) @ uz.conj().T
    zinv = (uz * (1.0 / wz)) @ uz.conj().T
    q = _herm(zh @ x @ zh)
    wq, uq = eig_hermitian(q)
    wq = _eig_floor(wq)
    qh = (uq * np.sqrt(wq)) @ uq.conj().T
    return _herm(zmh @ qh @ zmh), _herm(zinv)


def _inv_chol(m):
    """Inverse Cholesky factor ``L^-1`` of a positive-definite ``m = L L^dag``,
    with a small trace-relative jitter against rounding if needed."""
    scale = max(float(np.trace(m).real) / max(m.shape[0], 1), 1e-12)
    eye = np.eye(m.shape[0])
    for jitter in (0.0, 1e-14, 1e-11, 1e-8):
        try:
            return np.linalg.inv(np.linalg.cholesky(m + jitter * scale * eye))
        except np.linalg.LinAlgError:
            continue
    raise NumericalFailure("Cholesky factorization failed: matrix is not positive definite")


def _max_step(s, li, ds) -> float:
    """Largest alpha with s + alpha * ds PSD, from li = inverse Cholesky factor of s."""
    if s.shape[0] == 1:
        dv = ds[0, 0].real
        if dv >= -1e-300:
            return np.inf
        return max(s[0, 0].real, 0.0) / (-dv)
    try:
        lam_min = float(np.linalg.eigvalsh(_herm(li @ ds @ li.conj().T))[0])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"step-length eigensolve did not converge: {exc}") from exc
    if lam_min >= -1e-14:
        return np.inf
    return 1.0 / (-lam_min)


def _solve_spd(linv, m, rhs):
    x = linv.T @ (linv @ rhs)
    # one round of iterative refinement keeps the Schur solve crisp
    return x + linv.T @ (linv @ (rhs - m @ x))


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(a)) for a in arrays)


def solve(problem: SdpProblem, *, max_iter: int = 300) -> SdpSolution:
    """Solve a dense Hermitian SDP to high accuracy.

    On ``status == "optimal"`` the solution satisfies: duality gap
    <= 1e-7 * (1 + |primal|), primal equality residual <= 1e-8 * (1 +
    max|b|), dual residual <= 1e-8 * (1 + max|C|), and every primal block
    has minimum eigenvalue >= -1e-9.  ``status == "infeasible"`` carries a
    dual improving-ray certificate; otherwise the result is ``"max_iter"``.
    ``exit_reason`` tells the ways a run ends apart (see ``SdpSolution``).

    Raises ``NumericalFailure`` on non-finite data or a LAPACK failure.
    """
    dims = list(problem.block_dims)
    for d in dims:
        if d > _BLOCK_DIM_CAP:
            raise CapExceeded(f"block dim {d} exceeds cap {_BLOCK_DIM_CAP}")
    sgn = 1.0 if problem.sense == "max" else -1.0
    cmats = [np.zeros((d, d), dtype=np.complex128) if c is None else sgn * c
             for c, d in zip(problem.objective, dims)]
    ops = _stack(problem)
    b = problem.rhs
    k = b.size
    if not _finite(b, *cmats, *(a for _, a in ops)):
        raise NumericalFailure("SDP data has non-finite entries")
    _check_rank(ops, k)

    n_total = sum(dims)
    x = [np.eye(d, dtype=np.complex128) for d in dims]
    z = [np.eye(d, dtype=np.complex128) for d in dims]
    y = np.zeros(k)

    b_scale = 1.0 + float(np.max(np.abs(b))) if k else 1.0
    c_scale = 1.0 + max((float(np.max(np.abs(c))) if c.size else 0.0) for c in cmats)
    tau_step = 0.98

    def step(blocks, factors, dirs):
        return min(1.0, tau_step * min(map(_max_step, blocks, factors, dirs)))

    best = None
    mu_hist: list[float] = []
    status = reason = "max_iter"
    iterations = 0

    for it in range(max_iter):
        iterations = it
        rp = b - _apply(ops, x, k)
        rd = [c - a + zl for c, a, zl in zip(cmats, _adjoint(ops, y, dims), z)]
        pval = sum(np.vdot(c, xl).real for c, xl in zip(cmats, x))
        dval = float(b @ y)
        gap = abs(pval - dval)
        pinf = float(np.max(np.abs(rp))) if k else 0.0
        dinf = max(float(np.max(np.abs(r))) for r in rd)
        mu = sum(np.vdot(xl, zl).real for xl, zl in zip(x, z)) / n_total

        score = max(pinf / b_scale, dinf / c_scale, gap / (1.0 + abs(pval)))
        if best is None or score < best[0]:
            best = (score, pval, dval, [xi.copy() for xi in x], y.copy(), gap, pinf, dinf)

        if (
            pinf <= 1e-10 * b_scale
            and dinf <= 1e-10 * c_scale
            and gap <= 1e-9 * (1.0 + abs(pval))
        ):
            status, reason = "optimal", "converged"
            break

        # dual improving ray => primal infeasible (defensive path)
        ynorm = float(np.max(np.abs(y))) if k else 0.0
        if ynorm > 1e5:
            yhat = y / ynorm
            lam_min = min(float(eig_hermitian(_herm(r))[0][0]) for r in _adjoint(ops, yhat, dims))
            if lam_min >= -1e-8 and float(b @ yhat) < -1e-8:
                status = reason = "infeasible"
                break

        mu_hist.append(mu)
        if len(mu_hist) > 30 and mu > 0.9995 * mu_hist[-30]:
            reason = "stalled"
            break  # fall through to the contract check

        w, zinv = zip(*map(_nt_scaling, x, z))
        m_schur = _schur(ops, w, k)
        lfac = _inv_chol(m_schur)
        fx, fz = ([_inv_chol(s) if s.shape[0] > 1 else None for s in v] for v in (x, z))
        wrdw = [_herm(wl @ r @ wl) for wl, r in zip(w, rd)]

        def direction(rc):
            rhs = _apply(ops, [r + t for r, t in zip(rc, wrdw)], k) - rp
            dy = _solve_spd(lfac, m_schur, rhs)
            dz = [a - r for a, r in zip(_adjoint(ops, dy, dims), rd)]
            dx = [_herm(r - wl @ d @ wl) for r, wl, d in zip(rc, w, dz)]
            return dy, dx, dz

        # affine predictor fixes the centering parameter
        dy, dx, dz = direction([-xl for xl in x])
        if not _finite(dy, *dx):
            reason = "nonfinite_direction"
            break  # scaling broke down at the boundary; keep the best iterate
        ap, ad = step(x, fx, dx), step(z, fz, dz)
        mu_aff = sum(np.vdot(xl + ap * dxl, zl + ad * dzl).real
                     for xl, dxl, zl, dzl in zip(x, dx, z, dz)) / n_total
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 0.1, 0.9))

        dy, dx, dz = direction([sigma * mu * zi - xl for zi, xl in zip(zinv, x)])
        if not _finite(dy, *dx):
            reason = "nonfinite_direction"
            break
        ap, ad = step(x, fx, dx), step(z, fz, dz)

        x = [_herm(xl + ap * dxl) for xl, dxl in zip(x, dx)]
        z = [_herm(zl + ad * dzl) for zl, dzl in zip(z, dz)]
        y = y + ad * dy
    else:
        iterations = max_iter

    if status != "infeasible" and best is not None:
        _, pval, dval, xbest, ybest, gap, pinf, dinf = best
        # the contract is looser than the stopping target; a run that ended
        # early may still certify, on both sides of the bracket
        if (
            status != "optimal"
            and pinf <= 1e-8 * b_scale
            and dinf <= 1e-8 * c_scale
            and gap <= 1e-7 * (1.0 + abs(pval))
        ):
            status, reason = "optimal", "certified_from_best_iterate"
        x, y = xbest, ybest
    else:
        pval = sum(np.vdot(c, xl).real for c, xl in zip(cmats, x))
        dval = float(b @ y)
        gap = abs(pval - dval)
        pinf = float(np.max(np.abs(b - _apply(ops, x, k)))) if k else 0.0
        dinf = 0.0

    return SdpSolution(
        status=status,
        primal_value=sgn * pval,
        dual_value=sgn * dval,
        primal_blocks=x,
        dual_y=y,
        gap=gap,
        primal_residual=pinf,
        dual_residual=dinf,
        iterations=iterations,
        exit_reason=reason,
    )


# ---------------------------------------------------------------------------
# problem builders


def _entry_fix_constraints(blk: int, dim: int, offset: int, target, big_dim: int):
    """Equalities pinning a Hermitian sub-block of a larger block."""
    out = []
    for i in range(dim):
        a = np.zeros((big_dim, big_dim), dtype=np.complex128)
        a[offset + i, offset + i] = 1.0
        out.append(({blk: a}, float(target[i, i].real)))
    for i in range(dim):
        for j in range(i + 1, dim):
            a = np.zeros((big_dim, big_dim), dtype=np.complex128)
            a[offset + i, offset + j] = 1.0
            a[offset + j, offset + i] = 1.0
            out.append(({blk: a}, 2.0 * float(target[i, j].real)))
            a = np.zeros((big_dim, big_dim), dtype=np.complex128)
            a[offset + i, offset + j] = 1.0j
            a[offset + j, offset + i] = -1.0j
            out.append(({blk: a}, 2.0 * float(target[i, j].imag)))
    return out


def _fidelity_objective(d: int) -> np.ndarray:
    """<C, G> = Re tr of the off-diagonal block of G = [[rho, X], [X^dag, omega]]."""
    c = np.zeros((2 * d, 2 * d), dtype=np.complex128)
    for i in range(d):
        c[i, d + i] = 0.5
        c[d + i, i] = 0.5
    return c


def build_fidelity(rho, sigma) -> SdpProblem:
    """Root-fidelity program: optimum is ||sqrt(rho) sqrt(sigma)||_1."""
    rho = require_density(rho, check_psd=False)
    sigma = require_density(sigma, check_psd=False)
    if rho.shape != sigma.shape:
        raise DimMismatch(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    d = rho.shape[0]
    items = _entry_fix_constraints(0, d, 0, rho, 2 * d)
    items += _entry_fix_constraints(0, d, d, sigma, 2 * d)
    return SdpProblem(
        block_dims=[2 * d],
        objective=[_fidelity_objective(d)],
        constraints=[c for c, _ in items],
        rhs=np.array([v for _, v in items]),
        sense="max",
    )


def build_fidelity_over_Mm(rho, m: float) -> SdpProblem:
    """Maximum root-fidelity between ``rho`` and the diagonal-capped states.

    Encodes max (1/2) tr(X + X^dag) over [[rho, X], [X^dag, omega]] PSD with
    omega PSD, tr(omega) = 1, omega_ii <= 1/m.  The optimum is the square
    root of the relaxed assisted fidelity; callers square it (which doubles
    their tolerance).  At m = dim the caps meet the trace constraint only
    with equality, so they are encoded as diagonal equalities and the then
    redundant trace constraint is dropped.
    """
    rho = require_density(rho, check_psd=False)
    d = rho.shape[0]
    if not np.isfinite(m) or m < 1.0:
        raise BadM(f"m must be >= 1, got {m}")
    if m > d * (1.0 + 1e-12):
        raise BadM(f"no {d}-dimensional state has all diagonal entries <= 1/{m}")

    big = 2 * d
    items = _entry_fix_constraints(0, d, 0, rho, big)
    if m >= d * (1.0 - 1e-12):
        for i in range(d):
            a = np.zeros((big, big), dtype=np.complex128)
            a[d + i, d + i] = 1.0
            items.append(({0: a}, 1.0 / m))
        block_dims = [big]
    else:
        block_dims = [big] + [1] * d
        a = np.zeros((big, big), dtype=np.complex128)
        for i in range(d):
            a[d + i, d + i] = 1.0
        items.append(({0: a}, 1.0))
        for i in range(d):
            a = np.zeros((big, big), dtype=np.complex128)
            a[d + i, d + i] = 1.0
            items.append(({0: a, 1 + i: np.ones((1, 1), dtype=np.complex128)}, 1.0 / m))

    objective: list[np.ndarray | None] = [None] * len(block_dims)
    objective[0] = _fidelity_objective(d)
    return SdpProblem(
        block_dims=block_dims,
        objective=objective,
        constraints=[c for c, _ in items],
        rhs=np.array([v for _, v in items]),
        sense="max",
    )


def build_min_diag_over_ball(rho, eps: float) -> SdpProblem:
    """Smallest achievable max diagonal entry over the fidelity eps-ball.

    Encodes min t s.t. omega PSD, tr(omega) = 1, omega_ii <= t, and
    (1/2) tr(X + X^dag) >= sqrt(1 - eps) under the root-fidelity block
    [[rho, X], [X^dag, omega]].  At eps = 0 the ball degenerates to {rho}
    (unit fidelity forces omega = rho), so the builder emits the equivalent
    program min t s.t. rho_ii <= t, which keeps a strictly feasible
    interior.
    """
    rho = require_density(rho, check_psd=False)
    d = rho.shape[0]
    if not (0.0 <= eps < 1.0):
        raise ValueError(f"eps must lie in [0, 1), got {eps}")

    if eps == 0.0:
        # blocks: [t, v_1..v_d]; constraints v_i - t = -rho_ii
        block_dims = [1] * (d + 1)
        constraints = []
        rhs = []
        one = np.ones((1, 1), dtype=np.complex128)
        for i in range(d):
            constraints.append({0: -one, 1 + i: one.copy()})
            rhs.append(-float(rho[i, i].real))
        objective: list[np.ndarray | None] = [None] * len(block_dims)
        objective[0] = one.copy()
        return SdpProblem(
            block_dims=block_dims,
            objective=objective,
            constraints=constraints,
            rhs=np.array(rhs),
            sense="min",
        )

    big = 2 * d
    # blocks: [G, t, u, v_1..v_d]
    block_dims = [big, 1, 1] + [1] * d
    one = np.ones((1, 1), dtype=np.complex128)
    items = _entry_fix_constraints(0, d, 0, rho, big)
    a = np.zeros((big, big), dtype=np.complex128)
    for i in range(d):
        a[d + i, d + i] = 1.0
    items.append(({0: a}, 1.0))
    for i in range(d):
        a = np.zeros((big, big), dtype=np.complex128)
        a[d + i, d + i] = 1.0
        items.append(({0: a, 1: -one, 3 + i: one.copy()}, 0.0))
    items.append(({0: _fidelity_objective(d), 2: -one}, float(np.sqrt(1.0 - eps))))

    objective = [None] * len(block_dims)
    objective[1] = one.copy()
    return SdpProblem(
        block_dims=block_dims,
        objective=objective,
        constraints=[c for c, _ in items],
        rhs=np.array([v for _, v in items]),
        sense="min",
    )
