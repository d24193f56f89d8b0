"""The three workloads: seeded task lists with their output checks.

A task is one call into the program (``run``) and a check of what it
returned (``check``), which yields a list of problems, empty when the
output is right.  Only ``run`` is timed.  Checks compare with
``reference`` and never with another function of the package, except
where the workload's point is that the package's forms agree (the
three-way m-norm task).

Tasks reach the package through module attributes at call time
(``distill.assisted_fidelity_sdp``, not an imported name), so the traced
run sees every call.
"""

import csv
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import inputs
from reference import entropy_bits, fidelity_closed_form, m_star, mixture, mnorm_split

SDP_TOL = 1e-6        # SDP values against the closed form
EXACT_TOL = 1e-9      # closed-form values the program evaluates directly
ENSEMBLE_TOL = 1e-8   # reconstruction of a state from an ensemble
ORACLE_TOL = 1e-5     # agreement of the three m-norm forms


@dataclass
class Task:
    name: str
    cls: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], list]


def _near(problems, label, got, want, tol):
    if got is None or not math.isfinite(got) or abs(got - want) > tol:
        problems.append(f"{label}: got {got!r}, want {want!r} within {tol:g}")


def _at_most(problems, label, got, limit, tol):
    if got is None or not math.isfinite(got) or got > limit + tol:
        problems.append(f"{label}: {got!r} above {limit!r} (+{tol:g})")


def _non_increasing(problems, ctx, key, m, value):
    """Record value at m; complain if it rises above the value at a smaller m."""
    seen = ctx.setdefault(key, {})
    for m_prev, v_prev in seen.items():
        if m_prev < m and value > v_prev + SDP_TOL:
            problems.append(f"{key}: value at m={m} ({value}) above m={m_prev} ({v_prev})")
    seen[m] = value


# --------------------------------------------------------------------------
# cli_d23


def cli_tasks(cohdist, seed: int, workdir) -> list:
    cli = cohdist.cli
    inp = inputs.cli_inputs(seed, workdir)
    out_json = str(workdir / "out.json")
    out_csv = str(workdir / "curves.csv")

    def run_cli(*argv):
        return lambda: cli.main(list(argv))

    def read_json(rc, problems):
        if rc != 0:
            problems.append(f"exit code {rc}")
            return None
        with open(out_json, encoding="utf-8") as fh:
            return json.load(fh)

    tasks = []
    for name, path, rho, eps in inp.states:
        d = rho.shape[0]
        diag = np.diag(rho).real

        for m in range(2, d + 1):
            def check_fid(rc, ctx, m=m, diag=diag, name=name):
                problems = []
                doc = read_json(rc, problems)
                if doc is None:
                    return problems
                want = fidelity_closed_form(diag, m)
                _near(problems, "fidelity_bound", doc["fidelity_bound"], want, EXACT_TOL)
                _near(problems, "fidelity_sdp", doc["fidelity_sdp"], want, SDP_TOL)
                if doc["exact"] is not True:
                    problems.append("d <= 3 result not labelled exact")
                if doc["fidelity_sdp"] is not None:
                    _non_increasing(problems, ctx, f"{name} fidelity_sdp", m, doc["fidelity_sdp"])
                return problems

            tasks.append(Task(f"{name} fidelity m={m}", f"fidelity d={d}",
                              run_cli("fidelity", path, "--m", str(m), "--json", "--out", out_json),
                              check_fid))

        for e in (0.0, eps):
            def check_rate(rc, ctx, e=e, diag=diag):
                problems = []
                doc = read_json(rc, problems)
                if doc is None:
                    return problems
                q = float(np.max(diag))
                ms = m_star(diag, e)
                if doc["m_star"] != ms:
                    problems.append(f"m_star {doc['m_star']} != {ms}")
                _near(problems, "one_shot_rate_bits", doc["one_shot_rate_bits"], math.log2(ms), EXACT_TOL)
                _near(problems, "fidelity_bound", doc["fidelity_bound"],
                      fidelity_closed_form(diag, ms), EXACT_TOL)
                _near(problems, "fidelity_sdp", doc["fidelity_sdp"],
                      fidelity_closed_form(diag, ms), SDP_TOL)
                _near(problems, "zero_error_bits", doc["zero_error_bits"],
                      math.log2(math.floor(1.0 / q + 1e-9)), EXACT_TOL)
                _near(problems, "asymptotic_zero_error_bits_per_copy",
                      doc["asymptotic_zero_error_bits_per_copy"], -math.log2(q), EXACT_TOL)
                return problems

            tasks.append(Task(f"{name} rate eps={e:.4g}", f"rate d={d}",
                              run_cli("rate", path, "--eps", repr(e), "--json", "--out", out_json),
                              check_rate))

        def check_decompose(rc, ctx, rho=rho, diag=diag):
            problems = []
            doc = read_json(rc, problems)
            if doc is None:
                return problems
            atoms = np.array([[complex(re, im) for re, im in atom] for atom in doc["atoms"]])
            weights = np.array(doc["weights"], dtype=float)
            _near(problems, "state reconstruction",
                  float(np.linalg.norm(mixture(weights, atoms) - rho)), 0.0, ENSEMBLE_TOL)
            _near(problems, "atom diagonals",
                  float(np.max(np.abs(np.abs(atoms) ** 2 - diag[None, :]))), 0.0, ENSEMBLE_TOL)
            return problems

        tasks.append(Task(f"{name} decompose", f"decompose d={d}",
                          run_cli("decompose", path, "--json", "--out", out_json),
                          check_decompose))

    def check_figure(rc, ctx):
        if rc != 0:
            return [f"exit code {rc}"]
        with open(out_csv, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        problems = []
        if rows[0] != ["family", "p", "n", "m", "F_assisted"]:
            problems.append(f"header {rows[0]}")
        want_keys = sorted(
            (c["family"], n, p, c["m"]) for c in inp.curves for n in c["copies"] for p in c["p_grid"]
        )
        got_keys = [(r[0], int(r[2]), float(r[1]), int(r[3])) for r in rows[1:]]
        if got_keys != sorted(got_keys, key=lambda k: k[:3]) or sorted(got_keys) != want_keys:
            problems.append("rows do not match the spec or are out of order")
            return problems
        for (fam, n, p, m), row in zip(got_keys, rows[1:]):
            base = np.array([0.5, 0.5]) if fam == "depolarized" else np.array([p, 1.0 - p])
            if m == 2:  # only the largest entry, max(p, 1 - p)^n, matters
                want = fidelity_closed_form([float(np.max(base)) ** n, 0.0], 2)
            else:
                probs = base
                for _ in range(n - 1):
                    probs = np.kron(probs, base)
                want = fidelity_closed_form(probs, m)
            _near(problems, f"{fam} p={p} n={n} m={m}", float(row[4]), want, EXACT_TOL)
        return problems

    tasks.insert(len(tasks) // 2, Task("figure", "figure",
                                       run_cli("figure", inp.spec_path, "--out", out_csv),
                                       check_figure))
    return tasks


# --------------------------------------------------------------------------
# sdp_d4to9


def sdp_tasks(cohdist, seed: int, workdir) -> list:
    distill = cohdist.distill
    tasks = []
    for name, rho, ms, tensor_power in inputs.sdp_inputs(seed):
        diag = np.diag(rho).real
        d = rho.shape[0]
        for m in ms:
            def run(rho=rho, m=m):
                return distill.assisted_fidelity_bound(rho, m), distill.assisted_fidelity_sdp(rho, m)

            def check(out, ctx, diag=diag, m=m, name=name, tensor_power=tensor_power):
                bound, sdp = out
                problems = []
                want = fidelity_closed_form(diag, m)
                _near(problems, "bound", bound, want, EXACT_TOL)
                _at_most(problems, "sdp over bound", sdp, want, SDP_TOL)
                if tensor_power:
                    _near(problems, "sdp on a tensor power", sdp, want, SDP_TOL)
                if not 0.0 <= sdp <= 1.0:
                    problems.append(f"sdp {sdp} outside [0, 1]")
                _non_increasing(problems, ctx, name, m, sdp)
                return problems

            tasks.append(Task(f"{name} m={m}", f"sdp d={d}", run, check))
    return tasks


# --------------------------------------------------------------------------
# roof_search


def roof_tasks(cohdist, seed: int, workdir) -> list:
    distill, ensembles, dnorm = cohdist.distill, cohdist.ensembles, cohdist.dnorm
    tasks = []
    for name, rho, m, search_seed in inputs.roof_inputs(seed):
        d = rho.shape[0]
        diag = np.diag(rho).real
        q = float(np.max(diag))
        h_diag = entropy_bits(diag)
        delta = np.sqrt(diag)

        def run_norms(delta=delta, d=d):
            return [
                (dnorm.mnorm(delta, k).value, dnorm.mnorm_dual_oracle(delta, k),
                 dnorm.mnorm_primal_oracle(delta, k))
                for k in range(1, d + 1)
            ]

        def check_norms(out, ctx, delta=delta):
            problems = []
            for k, (scan, dual, primal) in enumerate(out, start=1):
                _near(problems, f"scan m={k}", scan, mnorm_split(delta, k), EXACT_TOL)
                _near(problems, f"dual m={k}", dual, scan, ORACLE_TOL)
                _near(problems, f"primal m={k}", primal, scan, ORACLE_TOL)
            _near(problems, "m=1 is l2", out[0][0], float(np.linalg.norm(delta)), EXACT_TOL)
            _near(problems, "m=d is l1", out[-1][0], float(np.sum(delta)), EXACT_TOL)
            return problems

        def run_assistance(rho=rho, s=search_seed):
            return distill.coherence_of_assistance(rho, seed=s, restarts=4, max_evals=1500)

        def check_assistance(out, ctx, h_diag=h_diag):
            problems = []
            _near(problems, "diag_entropy_bits", out.diag_entropy_bits, h_diag, EXACT_TOL)
            _at_most(problems, "assistance over diagonal entropy", out.value_bits, h_diag, EXACT_TOL)
            if not out.value_bits > 0.0 or out.exact:
                problems.append(f"value {out.value_bits} not a positive search bound")
            return problems

        def run_theta(rho=rho, s=search_seed):
            return distill.theta_upper(rho, seed=s, restarts=4, max_evals=2000)

        def check_theta(out, ctx, q=q):
            problems = []
            _near(problems, "diag_lower", out.diag_lower, q, EXACT_TOL)
            _at_most(problems, "max diagonal over theta", q, out.value, EXACT_TOL)
            _at_most(problems, "theta over 1", out.value, 1.0, EXACT_TOL)
            if out.exact:
                problems.append("search bound labelled exact")
            return problems

        def run_search(rho=rho, m=m, d=d, s=search_seed):
            return ensembles.ensemble_search(
                rho, ensembles.MaxAvgPureFidelity(m), d + 1, seed=s, restarts=3, max_evals=1000
            )

        def check_search(out, ctx, rho=rho, m=m, diag=diag):
            ens, value = out
            problems = []
            w = np.asarray(ens.weights, dtype=float)
            a = np.asarray(ens.atoms, dtype=complex)
            _near(problems, "reconstruction", float(np.linalg.norm(mixture(w, a) - rho)), 0.0,
                  ENSEMBLE_TOL)
            _near(problems, "atom norms", float(np.max(np.abs(np.linalg.norm(a, axis=1) - 1.0))),
                  0.0, ENSEMBLE_TOL)
            recomputed = sum(wi * mnorm_split(ai, m) ** 2 / m for wi, ai in zip(w, a))
            _near(problems, "value re-evaluated on the ensemble", value, recomputed, EXACT_TOL)
            _at_most(problems, "search over closed-form bound", value,
                     fidelity_closed_form(diag, m), EXACT_TOL)
            _at_most(problems, "1/m over search", 1.0 / m, value, EXACT_TOL)
            return problems

        tasks += [
            Task(f"{name} three-way mnorm", "mnorm", run_norms, check_norms),
            Task(f"{name} coherence_of_assistance", f"search d={d}", run_assistance, check_assistance),
            Task(f"{name} theta_upper", f"search d={d}", run_theta, check_theta),
            Task(f"{name} ensemble_search m={m}", f"search d={d}", run_search, check_search),
        ]
    return tasks


WORKLOADS = {"cli_d23": cli_tasks, "sdp_d4to9": sdp_tasks, "roof_search": roof_tasks}


def warm_up(cohdist, workdir) -> None:
    """One small call per layer, on fixed inputs, before anything is timed."""
    rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    cohdist.distill.assisted_fidelity_sdp(rho, 2)
    cohdist.dnorm.mnorm_primal_oracle(np.sqrt([0.7, 0.3]), 2)
    cohdist.ensembles.ensemble_search(rho, cohdist.ensembles.MaxAvgPureFidelity(2), 3,
                                      restarts=1, max_evals=64)
    path = str(workdir / "warm.json")
    inputs.write_state(path, rho)
    cohdist.cli.main(["decompose", path, "--json", "--out", str(workdir / "warm.out")])
