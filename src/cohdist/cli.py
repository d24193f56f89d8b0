"""Command-line front end.

Subcommands: ``fidelity``, ``rate``, ``decompose``, ``figure``,
``selftest``.  States are read from JSON files (see :mod:`cohdist.stateio`);
``figure`` turns a curve-specification file into a CSV of assisted-fidelity
curves over (family, p, n) grids.

Exit codes: 0 success, 2 input error, 3 capacity, 4 numerical failure.
Human tables print 6 significant digits; CSV and JSON carry full doubles.
The cap on the expanded dimension d^n of ``--copies`` n is ``--cap`` if
given, else the ``COHDIST_CAP`` environment variable, else 1024.
``figure`` holds at most cap^2 probabilities, the entry count of the
largest matrix the cap allows.

``fidelity`` and ``rate`` report closed-form values only; their
``fidelity_sdp`` fields carry the closed form, which equals the SDP value in
every dimension (see ``distill.assisted_fidelity_bound``).  Like ``figure``,
they read n copies through the Kronecker power of the base state's
diagonal and never form the d^n x d^n matrix.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import distill, ensembles
from .dnorm import mnorm, mnorm_dual_oracle, mnorm_primal_oracle
from .errors import (
    BadM,
    CapExceeded,
    CohdistError,
    ConvergenceFailure,
    DimMismatch,
    DimTooLarge,
    IllPosed,
    NonHermitian,
    NotDistribution,
    NotPSD,
    NumericalFailure,
    ParseError,
)
from .hermat import TENSOR_DIM_CAP, random_density
from .stateio import dump_state, load_state

__all__ = ["main"]

_EXIT_INPUT = 2
_EXIT_CAPACITY = 3
_EXIT_NUMERICAL = 4

_FAMILIES = ("depolarized", "diag", "offdiag")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _resolve_cap(args) -> int:
    if getattr(args, "cap", None) is not None:
        return args.cap
    env = os.environ.get("COHDIST_CAP")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise ParseError(f"COHDIST_CAP={env!r} is not an integer") from exc
    return TENSOR_DIM_CAP


def _emit(args, payload: dict, text: str) -> None:
    out = json.dumps(payload, indent=1) + "\n" if args.json else text
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)


def _load_base(args, cap: int):
    rho, declared = load_state(args.state)
    d = rho.shape[0]
    expanded_dim = d ** args.copies
    if expanded_dim > cap:
        raise CapExceeded(f"dim {d}^{args.copies} = {expanded_dim} exceeds cap {cap}")
    base_dim = declared["dim_sigma"] if declared else d
    if args.dump_state:
        dump_state(rho, args.dump_state, declared)
    return rho, expanded_dim, base_dim


def cmd_fidelity(args) -> int:
    cap = _resolve_cap(args)
    rho, expanded_dim, base_dim = _load_base(args, cap)
    exact = base_dim <= 3
    bound = distill.assisted_fidelity_bound(rho, args.m, copies=args.copies)

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
    cap = _resolve_cap(args)
    rho, expanded_dim, base_dim = _load_base(args, cap)
    report = distill.one_shot_rate(rho, args.eps, base_dim, args.copies)
    zero = distill.zero_error_rate(rho, base_dim, args.copies)
    per_base = zero.asymptotic_bits_per_copy / args.copies

    payload = {
        "state": str(args.state),
        "dim": int(rho.shape[0]),
        "copies": int(args.copies),
        "eps": args.eps,
        "m_star": report.m_requested,
        "fidelity_bound": report.fidelity_bound,
        "fidelity_sdp": report.fidelity_bound,
        "one_shot_rate_bits": report.one_shot_rate_bits,
        "relaxed_rate_bits": report.one_shot_rate_bits,
        "zero_error_bits": report.zero_error_bits,
        "asymptotic_zero_error_bits_per_copy": zero.asymptotic_bits_per_copy,
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
        f"relaxed_rate_bits  = {_fmt(report.one_shot_rate_bits)}",
        f"zero_error_bits    = {_fmt(report.zero_error_bits)}  ({tag})",
        f"asymptotic zero-error = {_fmt(zero.asymptotic_bits_per_copy)} bits/copy"
        + (f"  ({_fmt(per_base)} per base copy)" if args.copies > 1 else ""),
    ]
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def cmd_decompose(args) -> int:
    rho, declared = load_state(args.state)
    ens = ensembles.same_diagonal_decomposition(rho)
    recon = ens.reconstruction_residual(rho)
    diag = np.diag(rho).real
    diag_res = max(float(np.max(np.abs(np.abs(a) ** 2 - diag))) for a in ens.atoms)

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


def _family_probs(family: str, p: float) -> np.ndarray:
    if family in ("diag", "offdiag"):
        return np.array([p, 1.0 - p])
    if family == "depolarized":
        return np.array([0.5, 0.5])
    raise ParseError(f"unknown family {family!r}; expected one of {_FAMILIES}")


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
            p_grid = [float(p) for p in raw["p_grid"]]
            copies = [int(n) for n in raw["copies"]]
            m = int(raw.get("m", 2))
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
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {args.spec}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {args.spec}: {exc}") from exc
    specs = _parse_curve_specs(obj)
    cap = _resolve_cap(args)
    for spec in specs:
        n = max(spec["copies"])
        entries = len(_family_probs(spec["family"], 0.5)) ** n
        if entries > cap * cap:
            raise CapExceeded(f"{spec['family']} at {n} copies holds {entries} "
                              f"probabilities, above cap^2 = {cap * cap}")

    rows = []
    for spec in specs:
        for n in spec["copies"]:
            for p in spec["p_grid"]:
                probs = _family_probs(spec["family"], p)
                f = distill.assisted_fidelity_from_probs(probs, n, spec["m"])
                rows.append((spec["family"], p, n, spec["m"], f))
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

    def three_way():
        worst = 0.0
        for _ in range(5):
            d = int(rng.integers(2, 7))
            v = np.abs(rng.standard_normal(d)) + 0.01
            v /= np.linalg.norm(v)
            for m in range(1, d + 1):
                semi = mnorm(v, m).value
                worst = max(worst, abs(semi - mnorm_dual_oracle(v, m)))
                worst = max(worst, abs(semi - mnorm_primal_oracle(v, m, restarts=2)))
        return worst, 1e-5

    def closed_form_m2():
        worst = 0.0
        for _ in range(10):
            d = int(rng.integers(2, 6))
            rho = random_density(d, rng)
            q = float(np.max(np.diag(rho).real))
            expect = 1.0 if q <= 0.5 else 0.5 + np.sqrt(q * (1.0 - q))
            worst = max(worst, abs(distill.assisted_fidelity_bound(rho, 2) - expect))
        return worst, 1e-9

    def sdp_equals_closed_form():
        worst = 0.0
        for _ in range(4):
            d = int(rng.integers(2, 7))
            rho = random_density(d, rng)
            for m in range(2, d + 1):
                gap = abs(
                    distill.assisted_fidelity_sdp(rho, m)
                    - distill.assisted_fidelity_bound(rho, m)
                )
                worst = max(worst, gap)
        return worst, 1e-6

    def decomposition_residuals():
        worst = 0.0
        for i in range(6):
            d = 2 if i % 2 == 0 else 3
            rho = random_density(d, rng)
            ens = ensembles.same_diagonal_decomposition(rho)
            worst = max(worst, ens.reconstruction_residual(rho))
        return worst, 1e-8

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

    return [
        ("norm special cases", norm_special_cases),
        ("three-way norm agreement", three_way),
        ("m=2 closed form", closed_form_m2),
        ("sdp = closed form d<=6", sdp_equals_closed_form),
        ("same-diagonal residuals", decomposition_residuals),
        ("zero-error anchors", zero_error_anchors),
        ("figure spot values", figure_spots),
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohdist",
        description="assisted coherence distillation: fidelities, rates, "
        "decompositions, figure curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, state=True):
        if state:
            p.add_argument("state", help="path to a state JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--out", help="write output to this path instead of stdout")

    p = sub.add_parser("fidelity", help="assisted fidelity of distillation")
    add_common(p)
    p.add_argument("--m", type=int, default=2, help="target coherence level (default 2)")
    p.add_argument("--copies", type=int, default=1, help="tensor copies to expand (default 1)")
    p.add_argument("--cap", type=int, help="expanded-dimension cap (overrides COHDIST_CAP)")
    p.add_argument("--dump-state", help="re-serialize the parsed state to this path")
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("rate", help="one-shot and zero-error rates")
    add_common(p)
    p.add_argument("--eps", type=float, default=0.0, help="error tolerance in [0, 1)")
    p.add_argument("--copies", type=int, default=1)
    p.add_argument("--cap", type=int, help="expanded-dimension cap (overrides COHDIST_CAP)")
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, BadM, NotDistribution, DimMismatch, NonHermitian, NotPSD) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return _EXIT_INPUT
    except (CapExceeded, DimTooLarge) as exc:
        sys.stderr.write(f"capacity error: {exc}\n")
        return _EXIT_CAPACITY
    except (NumericalFailure, ConvergenceFailure, IllPosed) as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return _EXIT_NUMERICAL
    except ValueError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
