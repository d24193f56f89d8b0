"""Span tracing from outside the package, and the per-layer split.

A ``Tracer`` wraps public functions of each module at every place they
are bound in the package (``sdpsolve.eig_hermitian`` as well as
``hermat.eig_hermitian``), plus the ``evaluate`` method of the ensemble
objectives, while ``enabled()`` is active; outside it the package runs
untouched.  Names missing from the package are skipped, so the same
benchmark runs before and after a layer is rewritten.  Spans (name, start,
end, parent) stay in flat in-memory arrays until ``save`` writes them out;
``layer_metrics`` derives counts, busy times and self times from them.
"""

import contextlib
import functools
import sys
import time

import numpy as np

LAYERS = {
    "hermat": ["eig_hermitian"],
    "sdpsolve": ["solve", "build_fidelity", "build_fidelity_over_Mm", "build_min_diag_over_ball"],
    "distill": ["assisted_fidelity_bound", "assisted_fidelity_sdp", "min_diag_over_ball",
                "one_shot_rate", "zero_error_rate", "theta_upper", "coherence_of_assistance"],
    "dnorm": ["mnorm", "mnorm_dual_oracle", "mnorm_primal_oracle"],
    "ensembles": ["ensemble_search", "same_diagonal_decomposition"],
    "stateio": ["load_state"],
    "cli": ["main"],
}
OBJECTIVES = ["MaxAvgPureFidelity", "MinMaxInfNormSq", "MaxAvgDiagEntropy"]
TASK = "task"


class Tracer:
    def __init__(self, cohdist):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.solve_info: dict[int, tuple[int, int]] = {}   # span -> (iterations, K)
        self.eig_max_dim = 0
        self._patches: list[tuple[object, str, object, object]] = []  # owner, attr, original, wrapper
        self._find_patches(cohdist)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.span_name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(idx, args, result)
            return result

        return traced

    # -- hooks that record what a span's result says about the work done

    def _eig_before(self, args):
        shape = getattr(args[0], "shape", None) if args else None
        if shape:
            self.eig_max_dim = max(self.eig_max_dim, int(shape[0]))

    def _solve_after(self, idx, args, result):
        iterations = getattr(result, "iterations", None)
        problem = args[0] if args else None
        rhs = getattr(problem, "rhs", None)
        if iterations is not None and rhs is not None:
            self.solve_info[idx] = (int(iterations), int(np.size(rhs)))

    def _find_patches(self, cohdist) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "cohdist" or n.startswith("cohdist.")) and m is not None]
        for layer, names in LAYERS.items():
            home = getattr(cohdist, layer, None)
            for name in names:
                fn = getattr(home, name, None)
                if not callable(fn):
                    continue
                hooks = {}
                if (layer, name) == ("hermat", "eig_hermitian"):
                    hooks["before"] = self._eig_before
                if (layer, name) == ("sdpsolve", "solve"):
                    hooks["after"] = self._solve_after
                traced = self.wrap(f"{layer}.{name}", fn, **hooks)
                for mod in modules:
                    for attr, val in vars(mod).items():
                        if val is fn:
                            self._patches.append((mod, attr, fn, traced))
        for cls_name in OBJECTIVES:
            cls = getattr(getattr(cohdist, "ensembles", None), cls_name, None)
            fn = getattr(cls, "__dict__", {}).get("evaluate")
            if callable(fn):
                self._patches.append((cls, "evaluate", fn, self.wrap("ensembles.evaluate", fn)))

    @contextlib.contextmanager
    def enabled(self):
        """Wrappers in place inside the block, originals back after it."""
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)
        try:
            yield self
        finally:
            for owner, attr, fn, _ in self._patches:
                setattr(owner, attr, fn)

    def arrays(self):
        return (np.array(self.span_name, dtype=np.int64), np.array(self.start),
                np.array(self.end), np.array(self.parent, dtype=np.int64))

    def save(self, path) -> None:
        ids, start, end, parent = self.arrays()
        t0 = float(start.min()) if start.size else 0.0
        np.savez_compressed(path, names=np.array(self.names), name=ids, parent=parent,
                            start_s=start - t0, end_s=end - t0)

    def layer_metrics(self, passes: int, untraced_task_s: float) -> dict:
        """Per-layer metrics per pass of the task list, from the spans;
        ``untraced_task_s`` is the summed time of the same tasks untraced."""
        ids, start, end, parent = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        by = {name: ids == i for i, name in enumerate(self.names)}
        none = np.zeros(dur.size, dtype=bool)

        def sel(name):
            return by.get(name, none)

        def layer(prefix):
            mask = none.copy()
            for name, m in by.items():
                if name.startswith(prefix + "."):
                    mask |= m
            return mask

        def count(mask):
            return float(np.count_nonzero(mask)) / passes

        def ms(values, mask):
            return float(np.sum(values[mask])) * 1e3 / passes

        # spans with an sdpsolve.solve ancestor (a parent always precedes its child)
        solve_id = self._ids.get("sdpsolve.solve", -2)
        in_solve = np.zeros(dur.size, dtype=bool)
        for i in np.flatnonzero(has_parent):
            p = parent[i]
            in_solve[i] = in_solve[p] or ids[p] == solve_id
        info = list(self.solve_info.values())
        iterations = float(sum(it for it, _ in info))
        schur_pairs = float(sum(k * (k + 1) // 2 * it for it, k in info))
        eig = sel("hermat.eig_hermitian")
        solve = sel("sdpsolve.solve")
        search = sel("ensembles.ensemble_search")
        builders = sel("sdpsolve.build_fidelity") | sel("sdpsolve.build_fidelity_over_Mm") \
            | sel("sdpsolve.build_min_diag_over_ball")
        tasks = sel(TASK)
        task_s = float(np.sum(dur[tasks]))
        accounted_s = float(np.sum(dur[has_parent & tasks[np.where(has_parent, parent, 0)]]))
        n_solves = float(np.count_nonzero(solve))
        n_eig = float(np.count_nonzero(eig))
        return {
            "hermat.eig_calls": (count(eig), "count"),
            "hermat.eig_ms": (ms(dur, eig), "ms"),
            "hermat.eig_us_per_call": (float(np.sum(dur[eig])) * 1e6 / n_eig if n_eig else 0.0, "us"),
            "hermat.eig_max_dim": (float(self.eig_max_dim), "count"),
            "sdpsolve.solves": (count(solve), "count"),
            "sdpsolve.iterations": (iterations / passes, "count"),
            "sdpsolve.iterations_per_solve": (iterations / n_solves if n_solves else 0.0, "count"),
            "sdpsolve.solve_ms": (ms(dur, solve), "ms"),
            "sdpsolve.self_ms": (ms(self_t, solve), "ms"),
            "sdpsolve.schur_pairs": (schur_pairs / passes, "count"),
            "sdpsolve.eig_calls_per_iteration": (
                float(np.count_nonzero(eig & in_solve)) / iterations if iterations else 0.0, "count"),
            "sdpsolve.build_ms": (ms(dur, builders), "ms"),
            "distill.fidelity_sdp_calls": (count(sel("distill.assisted_fidelity_sdp")), "count"),
            "distill.min_diag_calls": (count(sel("distill.min_diag_over_ball")), "count"),
            "distill.self_ms": (ms(self_t, layer("distill")), "ms"),
            "dnorm.mnorm_calls": (count(sel("dnorm.mnorm")), "count"),
            "dnorm.mnorm_ms": (ms(dur, sel("dnorm.mnorm")), "ms"),
            "dnorm.dual_oracle_ms": (ms(dur, sel("dnorm.mnorm_dual_oracle")), "ms"),
            "dnorm.primal_oracle_ms": (ms(dur, sel("dnorm.mnorm_primal_oracle")), "ms"),
            "ensembles.searches": (count(search), "count"),
            "ensembles.objective_evals": (count(sel("ensembles.evaluate")), "count"),
            "ensembles.evaluate_ms": (ms(dur, sel("ensembles.evaluate")), "ms"),
            "ensembles.search_self_ms": (ms(self_t, search), "ms"),
            "ensembles.same_diagonal_ms": (ms(dur, sel("ensembles.same_diagonal_decomposition")), "ms"),
            "stateio.loads": (count(sel("stateio.load_state")), "count"),
            "stateio.load_ms": (ms(dur, sel("stateio.load_state")), "ms"),
            "cli.commands": (count(sel("cli.main")), "count"),
            "cli.main_ms": (ms(dur, sel("cli.main")), "ms"),
            "cli.self_ms": (ms(self_t, sel("cli.main")), "ms"),
            "trace.task_ms": (task_s * 1e3 / passes, "ms"),
            "trace.unaccounted_pct": (100.0 * (task_s - accounted_s) / task_s if task_s else 0.0, "%"),
            "trace.overhead_pct": (
                100.0 * (task_s / untraced_task_s - 1.0) if untraced_task_s else 0.0, "%"),
        }
