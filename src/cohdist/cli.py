"""Command-line front end.

Subcommands: ``fidelity``, ``rate``, ``decompose``, ``figure``,
``selftest``.  States are read from JSON files (see :mod:`cohdist.stateio`);
``figure`` turns a curve-specification file into a CSV of assisted-fidelity
curves over (family, p, n) grids.  Each curve is one stack of its points'
diagonals, evaluated with one water-filling call per chunk of at most 2^17
class entries (points times the largest point's classes times d), so 64
points to 1023 qubit copies are one call and 65535 copies one point a
call; each value is the one ``distill.assisted_fidelity_from_probs``
gives the point alone.

Exit codes: 0 success, 2 input error, 3 capacity, 4 numerical failure.
Human tables print 6 significant digits; CSV and JSON carry full doubles.
How many copies a command may take is decided in ``distill`` (see its
module docstring), not here, and no option moves it: past a bound
``distill`` raises ``CapExceeded``, which exits 3.  An ``m`` past the
largest double is ``BadM`` from ``dnorm``, an input error.

``fidelity`` and ``rate`` report closed-form values only; their
``fidelity_sdp`` fields carry the closed form, which equals the SDP value in
every dimension (see ``distill.assisted_fidelity_bound``).  Like ``figure``,
they read n copies through the power of the base state's diagonal (the
classes behind ``distill.assisted_fidelity_from_probs``, off whose
water-filling segments ``rate`` also reads m*) and never form the
d^n x d^n matrix.

``import cohdist`` does not load this module; the first read of
``cohdist.cli`` does, and ``python -m cohdist.cli`` runs it once, as
``__main__``.  The argument parser is built once per process, on the first
``main`` call (importing the module builds nothing), and every later call
parses with it.  Parsing does not mutate an argparse parser and every
default is an immutable scalar, so ``main`` may run from several threads
at once.
"""

import argparse
import json
import sys
from functools import cache, reduce

import numpy as np

from . import distill, ensembles
from .dnorm import mnorm, mnorm_dual_oracle, mnorm_primal_oracle, pure_distillation_fidelity
from .errors import (
    BadM,
    CapExceeded,
    CohdistError,
    DimMismatch,
    DimTooLarge,
    NonHermitian,
    NotDistribution,
    NotPSD,
    NumericalFailure,
    ParseError,
)
from .hermat import random_density, shannon_entropy
from .stateio import _integer, _read_json, _real, dump_state, load_state

__all__ = ["main"]

_EXIT_INPUT = 2
_EXIT_CAPACITY = 3
_EXIT_NUMERICAL = 4

_FAMILIES = ("depolarized", "diag", "offdiag")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _emit(args, payload: dict, text: str) -> None:
    out = json.dumps(payload, indent=1) + "\n" if args.json else text
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _load_base(args):
    rho, declared = load_state(args.state)
    if args.dump_state:
        dump_state(rho, args.dump_state, declared)
    return rho, declared["dim_sigma"] if declared else rho.shape[0]


def cmd_fidelity(args) -> int:
    rho, base_dim = _load_base(args)
    exact = base_dim <= 3
    bound = distill.assisted_fidelity_bound(rho, args.m, copies=args.copies)
    expanded_dim = rho.shape[0] ** args.copies  # at most 2^53, or distill raised

    payload = {
        "state": str(args.state),
        "dim": int(rho.shape[0]),
        "copies": int(args.copies),
        "expanded_dim": int(expanded_dim),
        "m": int(args.m),
        "fidelity_bound": bound,
        "fidelity_sdp": bound,
        "exact": exact,
    }
    lines = [
        f"state {args.state}  dim {rho.shape[0]}  copies {args.copies}"
        f"  expanded dim {expanded_dim}",
        f"m = {args.m}",
        f"F_assisted_bound = {_fmt(bound)}  ({'exact' if exact else 'upper bound'})",
        f"F_assisted_sdp   = {_fmt(bound)}",
    ]
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def cmd_rate(args) -> int:
    rho, base_dim = _load_base(args)
    report = distill.one_shot_rate(rho, args.eps, base_dim, args.copies)
    expanded_dim = rho.shape[0] ** args.copies  # at most 2^53, or distill raised
    asymptotic = report.asymptotic_zero_error_bits_per_copy
    per_base = asymptotic / args.copies

    payload = {
        "state": str(args.state),
        "dim": int(rho.shape[0]),
        "copies": int(args.copies),
        "eps": args.eps,
        "m_star": report.m_requested,
        "fidelity_bound": report.fidelity_bound,
        "fidelity_sdp": report.fidelity_bound,
        "one_shot_rate_bits": report.one_shot_rate_bits,
        "zero_error_bits": report.zero_error_bits,
        "asymptotic_zero_error_bits_per_copy": asymptotic,
        "asymptotic_zero_error_bits_per_base_copy": per_base,
        "exact": report.exact_flag,
    }
    tag = "exact" if report.exact_flag else "upper bound"
    lines = [
        f"state {args.state}  dim {rho.shape[0]}  copies {args.copies}"
        f"  expanded dim {expanded_dim}  eps = {_fmt(args.eps)}",
        f"m* = {report.m_requested}",
        f"fidelity_bound at m* = {_fmt(report.fidelity_bound)}",
        f"one_shot_rate_bits = {_fmt(report.one_shot_rate_bits)}  ({tag})",
        f"zero_error_bits    = {_fmt(report.zero_error_bits)}  ({tag})",
        f"asymptotic zero-error = {_fmt(asymptotic)} bits/copy"
        + (f"  ({_fmt(per_base)} per base copy)" if args.copies > 1 else ""),
    ]
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def cmd_decompose(args) -> int:
    rho, declared = load_state(args.state)
    ens = ensembles.same_diagonal_decomposition(rho)
    recon = ens.reconstruction_residual(rho)
    diag_res = float(np.max(np.abs(np.abs(ens.atoms) ** 2 - np.diag(rho).real)))

    payload = {
        "state": str(args.state),
        "weights": [float(w) for w in ens.weights],
        "atoms": [
            [[float(z.real), float(z.imag)] for z in atom] for atom in ens.atoms
        ],
        "reconstruction_residual": recon,
        "diagonal_residual": diag_res,
    }
    lines = [f"state {args.state}  dim {rho.shape[0]}  atoms {len(ens.weights)}"]
    for i, (w, atom) in enumerate(zip(ens.weights, ens.atoms)):
        amps = ", ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in atom)
        lines.append(f"  atom {i}: weight {_fmt(w)}  [{amps}]")
    lines.append(f"reconstruction residual = {recon:.3e}")
    lines.append(f"diagonal residual       = {diag_res:.3e}")
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0




def _parse_curve_specs(obj) -> list[dict]:
    if isinstance(obj, dict) and "curves" in obj:
        obj = obj["curves"]
    if isinstance(obj, dict):
        obj = [obj]
    if not isinstance(obj, list) or not obj:
        raise ParseError("curve spec must be an object or non-empty list")
    specs = []
    for raw in obj:
        if not isinstance(raw, dict):
            raise ParseError("each curve spec must be an object")
        try:
            family = str(raw["family"])
            p_grid = [_real(p, "p_grid") for p in raw["p_grid"]]
            copies = [_integer(n, "copies") for n in raw["copies"]]
            m = _integer(raw.get("m", 2), "m")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed curve spec: {exc}") from exc
        if family not in _FAMILIES:
            raise ParseError(f"unknown family {family!r}; expected one of {_FAMILIES}")
        if any(not (0.0 <= p <= 1.0) for p in p_grid):
            raise ParseError("p_grid values must lie in [0, 1]")
        if any(n < 1 for n in copies):
            raise ParseError("copies must be positive")
        if m < 1:
            raise ParseError("m must be a positive integer")
        specs.append({"family": family, "p_grid": p_grid, "copies": copies, "m": m})
    return specs


def cmd_figure(args) -> int:
    """Write each curve's F(n, p) over its copies x p_grid points, sorted by
    family, n and p.  A curve's points are one stack of qubit diagonals
    (p, 1 - p), or (1/2, 1/2) for ``depolarized``, evaluated by
    ``distill._curve_fidelity``: one type-class build and one
    water-filling call per chunk of at most 2^17 class entries.  A curve
    with no points adds no rows and evaluates nothing."""
    specs = _parse_curve_specs(_read_json(args.spec))

    rows = []
    for spec in specs:
        family, m = spec["family"], spec["m"]
        points = [(n, p) for n in spec["copies"] for p in spec["p_grid"]]
        if not points:
            continue
        probs = np.array([[0.5, 0.5] if family == "depolarized" else [p, 1.0 - p]
                          for _, p in points])
        fids = distill._curve_fidelity(probs, [n for n, _ in points], m)
        rows += [(family, p, n, m, f) for (n, p), f in zip(points, fids.tolist())]
    rows.sort(key=lambda r: (r[0], r[2], r[1]))

    out_lines = ["family,p,n,m,F_assisted"]
    out_lines += [f"{fam},{float(p)!r},{n},{m},{float(f)!r}" for fam, p, n, m, f in rows]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out_lines) + "\n")
    sys.stdout.write(f"wrote {len(rows)} rows to {args.out}\n")
    return 0


def _selftest_checks(seed: int):
    rng = np.random.Generator(np.random.Philox(key=seed))

    def norm_special_cases():
        worst = 0.0
        for _ in range(20):
            d = int(rng.integers(2, 9))
            v = np.abs(rng.standard_normal(d))
            v /= np.linalg.norm(v)
            worst = max(worst, abs(mnorm(v, 1).value - 1.0))
            worst = max(worst, abs(mnorm(v, d).value - float(np.sum(v))))
        return worst, 1e-9

    def norm_bracket():
        # the dual and primal points bracket the norm; the scan must lie
        # inside, and the two sides must meet
        worst = 0.0
        for _ in range(5):
            d = int(rng.integers(2, 7))
            v = np.abs(rng.standard_normal(d)) + 0.01
            v /= np.linalg.norm(v)
            for m in range(1, d + 1):
                semi = mnorm(v, m).value
                lower, upper = mnorm_dual_oracle(v, m), mnorm_primal_oracle(v, m)
                worst = max(worst, upper - lower, lower - semi, semi - upper)
        return worst, 1e-12

    def closed_form_m2():
        worst = 0.0
        for _ in range(10):
            d = int(rng.integers(2, 6))
            rho = random_density(d, rng)
            q = float(np.max(np.diag(rho).real))
            expect = 1.0 if q <= 0.5 else 0.5 + np.sqrt(q * (1.0 - q))
            worst = max(worst, abs(distill.assisted_fidelity_bound(rho, 2) - expect))
        return worst, 1e-9

    def sdp_bracket():
        # both sides of the fidelity SDP's checked optimal pair, squared,
        # against the closed form
        worst = 0.0
        for _ in range(4):
            d = int(rng.integers(2, 7))
            rho = random_density(d, rng)
            for m in range(2, d + 1):
                cert = distill.fidelity_certificate(rho, m)
                bound = distill.assisted_fidelity_bound(rho, m)
                worst = max(worst, abs(cert.primal ** 2 - bound), abs(cert.dual ** 2 - bound))
        return worst, 1e-12

    def decomposition_residuals():
        worst = 0.0
        for i in range(6):
            d = 2 if i % 2 == 0 else 3
            rho = random_density(d, rng)
            ens = ensembles.same_diagonal_decomposition(rho)
            worst = max(worst, ens.reconstruction_residual(rho))
        return worst, 1e-8

    # random qubits and qutrits and near-rank-two qutrits, drawn from a
    # stream of their own so that every other check draws what it drew
    # before; their decompositions are exact in weight and diagonal
    own = np.random.Generator(np.random.Philox(key=seed + 2 ** 64))
    exact_battery = [random_density(2 + i % 2, own) for i in range(6)] + [
        (1.0 - eps) * random_density(3, own, rank=2) + eps * random_density(3, own)
        for eps in (1e-8, 1e-9, 1e-10, 1e-11)]

    def same_diagonal_exactness(deviation):
        def check():
            worst = 0.0
            for rho in exact_battery:
                worst = max(worst, deviation(rho, ensembles.same_diagonal_decomposition(rho)))
            return worst, 1e-12
        return check

    def zero_error_anchors():
        z = distill.zero_error_rate(np.diag([0.6, 0.4]).astype(complex))
        worst = abs(z.one_shot_bits - 0.0)
        worst = max(worst, abs(z.asymptotic_bits_per_copy + np.log2(0.6)))
        z3 = distill.zero_error_rate(np.diag([0.6, 0.4]).astype(complex), copies=3)
        worst = max(worst, abs(z3.one_shot_bits - 2.0))
        return worst, 1e-9

    def figure_spots():
        f = distill.assisted_fidelity_from_probs(np.array([0.9, 0.1]), 1, 2)
        worst = abs(f - 0.8)
        f = distill.assisted_fidelity_from_probs(np.array([0.5, 0.5]), 1, 2)
        worst = max(worst, abs(f - 1.0))
        return worst, 1e-9

    def type_classes():
        # at n >= 2 the fidelity, and rate's level m* with it, come from the
        # types of the power; the Kronecker power of the diagonal, built
        # here with np.kron, is the reference: m* passes 1 - eps - 1e-9 on
        # it and m* + 1 fails.  A largest entry q with q^n > 1/2 keeps
        # every m short of fidelity 1
        worst = 0.0
        for d, n in ((2, 11), (3, 7)):
            q = float(rng.uniform(0.94, 0.99))
            probs = np.concatenate([[q], (1.0 - q) * rng.dirichlet(np.ones(d - 1))])
            amps = np.sqrt(np.clip(reduce(np.kron, [probs] * n), 0, None))
            for m in (2, 3, 5):
                worst = max(worst, abs(distill.assisted_fidelity_from_probs(probs, n, m)
                                       - pure_distillation_fidelity(amps, m)))
            for eps in (0.05, 0.2, 0.5):
                level = distill.one_shot_rate(np.diag(probs), eps, copies=n).m_requested
                fids = [pure_distillation_fidelity(amps, m) for m in (level, level + 1)]
                if not fids[0] >= 1.0 - eps - 1e-9 > fids[1]:
                    worst = np.inf
        return worst, 1e-12

    def roof_search():
        # the searched ensemble reconstructs rho, and its entropy value is a
        # convex-roof lower bound that cannot pass S(Delta rho)
        rho = random_density(5, rng)
        ens, value = ensembles.ensemble_search(rho, ensembles.MaxAvgDiagEntropy(), 6,
                                               seed=seed, restarts=4, max_evals=1500)
        ceiling = shannon_entropy(np.diag(rho).real)
        worst = max(ens.reconstruction_residual(rho), value - ceiling)
        return (worst if value >= 0.0 else np.inf), 1e-12

    return [
        ("norm special cases", norm_special_cases),
        ("norm bracket = scan", norm_bracket),
        ("m=2 closed form", closed_form_m2),
        ("sdp bracket = closed form d<=6", sdp_bracket),
        ("same-diagonal residuals", decomposition_residuals),
        ("same-diagonal weight sums", same_diagonal_exactness(
            lambda rho, ens: abs(float(ens.weights.sum()) - 1.0))),
        ("same-diagonal atom diagonals", same_diagonal_exactness(
            lambda rho, ens: float(np.max(np.abs(np.abs(ens.atoms) ** 2 - np.diag(rho).real))))),
        ("zero-error anchors", zero_error_anchors),
        ("figure spot values", figure_spots),
        ("type classes = Kronecker", type_classes),
        ("roof search", roof_search),
    ]


def cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftest_checks(args.seed):
        try:
            worst, tol = check()
        except CohdistError as exc:
            sys.stdout.write(f"FAIL {name}: {exc}\n")
            failures += 1
            continue
        ok = worst <= tol
        sys.stdout.write(
            f"{'ok  ' if ok else 'FAIL'} {name}: worst {worst:.3e} (tol {tol:.0e})\n"
        )
        failures += 0 if ok else 1
    sys.stdout.write(f"selftest: {failures} failure(s)\n")
    return 0 if failures == 0 else _EXIT_NUMERICAL


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohdist",
        description="assisted coherence distillation: fidelities, rates, "
        "decompositions, figure curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("state", help="path to a state JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("fidelity", help="assisted fidelity of distillation")
    add_common(p)
    p.add_argument("--m", type=int, default=2, help="target coherence level (default 2)")
    p.add_argument("--copies", type=int, default=1, help="tensor copies to expand (default 1)")
    p.add_argument("--dump-state", help="re-serialize the parsed state to this path")
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("rate", help="one-shot and zero-error rates")
    add_common(p)
    p.add_argument("--eps", type=float, default=0.0, help="error tolerance in [0, 1)")
    p.add_argument("--copies", type=int, default=1)
    p.add_argument("--dump-state", help="re-serialize the parsed state to this path")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("decompose", help="same-diagonal pure-state decomposition (d <= 3)")
    add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("figure", help="assisted-fidelity curves to CSV")
    p.add_argument("spec", help="path to a curve-spec JSON file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("selftest", help="run a quick numerical battery")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, BadM, NotDistribution, DimMismatch, NonHermitian, NotPSD) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return _EXIT_INPUT
    except (CapExceeded, DimTooLarge) as exc:
        sys.stderr.write(f"capacity error: {exc}\n")
        return _EXIT_CAPACITY
    except NumericalFailure as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return _EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        # OSError: a path given for --out or --dump-state that cannot be written
        sys.stderr.write(f"input error: {exc}\n")
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
