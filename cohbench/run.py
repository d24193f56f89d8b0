#!/usr/bin/env python3
"""Benchmark of the cohdist package, run from the root of a source checkout.

    python3 cohbench/run.py --workload cli_d23 --seed 1 --seconds 20 --trace 0

Runs one workload (``cli_d23``, ``sdp_d4to9`` or ``roof_search``, see
README.md) in this process, on one thread, against ``src/`` as it is: no
build step and no compiled kernel.  The seeded task list is run in whole
passes until ``--seconds`` have gone by; every output is checked against
values computed in ``reference.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones: set-up time, tasks per second and
median task time, all at the host's reference speed (``calibrate.py``),
and peak memory.  With ``--trace 1`` every task also runs a second time
with the package's public functions wrapped, and the run reports the
per-layer split.  Per-task records, wall-clock figures, machine facts and
the span trace go to ``cohbench/out/``.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib.util
import json
import platform
import resource
import shutil
import statistics
import subprocess
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402  (these three need the path entry above)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def import_package():
    """Import cohdist from this checkout's src/, and nowhere else."""
    if not (SRC / "cohdist" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {SRC / 'cohdist'}")
    sys.path.insert(0, str(SRC))
    import cohdist

    if not Path(cohdist.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"cohdist imported from {cohdist.__file__}, not from {SRC}")
    return cohdist


def set_up(workload: str, seed: int, workdir: Path):
    """Everything before the first timed task: import, inputs, warm-up."""
    cohdist = import_package()
    workdir.mkdir(parents=True, exist_ok=True)
    tasks = workloads.WORKLOADS[workload](cohdist, seed, workdir)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        workloads.warm_up(cohdist, workdir)
    return cohdist, tasks


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Wall time of a fresh process that does the set-up and exits, and the
    same at the reference speed of the host (see ``calibrate``)."""
    before = [calibrate.sample() for _ in range(calibrate.SETUP_WINDOW)]
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        stdout=subprocess.DEVNULL, check=True,
    )
    wall = time.perf_counter() - t0
    after = [calibrate.sample() for _ in range(calibrate.SETUP_WINDOW)]
    return wall, wall * calibrate.REFERENCE_MS / statistics.median(before + after)


class Stats:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.records = []       # (pass, task name, task class, seconds, ok, calibration index)
        self.calibration = []   # calibration samples, ms; one before each task and one at the end


def run_task(task, ctx: dict, stats: Stats, p: int, tracer=None) -> float:
    """Run and check one task; returns the seconds its call took.

    Only ``task.run`` is timed.  A task that raises, or whose check finds
    a problem, counts as failed; a problem found by a check also makes the
    run incorrect.
    """
    stats.attempted += 1
    stats.calibration.append(calibrate.sample())
    span = tracer.open(tracing.TASK) if tracer else None
    t0 = time.perf_counter()
    try:
        out = task.run()
        error = None
    except Exception:  # the run goes on; the task counts as failed
        error = traceback.format_exc()
    elapsed = time.perf_counter() - t0
    if tracer:
        tracer.close(span)
    problems = [error] if error else task.check(out, ctx)
    if problems:
        stats.failed += 1
        if not error:
            stats.correct = False
        sys.stderr.write(f"FAILED {task.name}: {'; '.join(problems)}\n")
    stats.records.append((p, task.name, task.cls, elapsed, not problems, len(stats.calibration)))
    return elapsed


def run_passes(tasks, seconds: float, stats: Stats, tracer=None,
               between=None) -> tuple[int, float, float]:
    """Whole passes of the task list: at least one, and another only while
    it is expected to end within ``seconds``, so a run's length stays
    within its budget whatever the speed of the program.  ``between(p)``
    runs after pass ``p``; its time counts neither in the budget nor in
    the tasks' times.

    With a tracer, each task runs untraced and traced, back to back, so
    that both see the same machine and the difference is the tracing
    overhead; which of the two goes first alternates from task to task,
    because a repeated call runs a little faster than the first.  Returns
    (passes, untraced seconds, traced seconds).
    """
    start = time.perf_counter()
    paused = 0.0
    passes, busy = 0, [0.0, 0.0]  # untraced, traced
    while passes == 0 or (time.perf_counter() - start - paused) * (passes + 1) / passes <= seconds:
        ctx: dict = {}
        for i, task in enumerate(tasks):
            modes = [False, True] if tracer else [False]
            if (i + passes) % 2:
                modes.reverse()
            for traced in modes:
                with tracer.enabled() if traced else contextlib.nullcontext():
                    busy[traced] += run_task(task, ctx, stats, passes, tracer if traced else None)
        if between is not None:
            t0 = time.perf_counter()
            between(passes)
            paused += time.perf_counter() - t0
        passes += 1
    stats.calibration.append(calibrate.sample())
    return passes, busy[0], busy[1]


def task_times(stats: Stats) -> dict:
    """Each task's median time over the passes, in seconds at the host's
    reference speed (see ``calibrate``), with its class."""
    times: dict = {}
    for _, name, cls, t, _, j in stats.records:
        times.setdefault(name, (cls, []))[1].append(t * calibrate.scale(stats.calibration, j))
    return {name: (cls, statistics.median(ts)) for name, (cls, ts) in times.items()}


def machine_facts(cohdist) -> dict:
    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        facts["blas"] = "unknown"
    if importlib.util.find_spec("cohdist.backend") is not None:
        facts["eigen_backend"] = importlib.import_module("cohdist.backend").active_backend()
    else:
        facts["eigen_backend"] = "numpy.linalg"
    return facts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the whole run: on a shared host the CPUs can differ in
        # speed by a fifth, and a run that migrates between them mixes the two
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_probe:
            set_up(args.workload, args.seed, workdir)
            return 0
        cohdist, tasks = set_up(args.workload, args.seed, workdir)
        setup = []

        def probe(p):
            # spread over the run, so the median sees the run's mix of
            # fast and slow stretches of the host, not one of them
            if not args.trace and p < SETUP_PROBES:
                setup.append(setup_probe(args.workload, args.seed))

        stats = Stats()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracer = tracing.Tracer(cohdist) if args.trace else None
            passes, busy, traced_busy = run_passes(tasks, args.seconds, stats, tracer, probe)
        while not args.trace and len(setup) < SETUP_PROBES:
            setup.append(setup_probe(args.workload, args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    per_task = task_times(stats)
    if args.trace:
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
        layer = tracer.layer_metrics(passes, busy)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        completed_per_pass = sum(r[4] for r in stats.records) / passes
        metrics = {
            "setup_s": {"value": statistics.median(s for _, s in setup), "unit": "s"},
            "tasks_per_s": {"value": completed_per_pass / sum(t for _, t in per_task.values()),
                            "unit": "1/s"},
            "task_p50_ms": {"value": statistics.median(t for _, t in per_task.values()) * 1e3,
                            "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    result = {"correct": stats.correct, "attempted": stats.attempted, "failed": stats.failed,
              "metrics": metrics}
    classes = {}
    for cls, t in per_task.values():
        classes.setdefault(cls, []).append(t * 1e3)
    completed = sum(r[4] for r in stats.records)
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, passes=passes, traced_s=traced_busy,
                  wall=dict(tasks_per_s=completed / busy,
                            task_p50_ms=statistics.median(r[3] for r in stats.records) * 1e3,
                            setup_s=statistics.median(w for w, _ in setup) if setup else None),
                  calibration_ms=dict(zip(("q1", "median", "q3"),
                                          statistics.quantiles(stats.calibration, n=4))),
                  setup_samples_s=setup, machine=machine_facts(cohdist),
                  class_p50_ms={c: statistics.median(v) for c, v in sorted(classes.items())},
                  tasks=[{"pass": p, "task": n, "ms": t * 1e3, "ok": ok,
                          "scale": calibrate.scale(stats.calibration, j)}
                         for p, n, _, t, ok, j in stats.records])
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
