"""mfg-lab benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload picard_1d --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout and from nowhere else.  Load model: one client in one process,
closed loop; each task starts when the previous one has finished, and tasks
keep starting until ``--seconds`` of wall time have passed.  BLAS/OpenMP run
one thread, so the process computes on one core at a time and its CPU clock
counts exactly the time it computes.

Times in the end-to-end metrics are CPU seconds of the process
(``time.process_time``) at reference host speed.  On a shared host the wall
time of the same task swings with the load of other guests (time the
hypervisor steals, time slices lost to other processes); the CPU clock
leaves that time out.  How much work a CPU second does drifts as well, so a
timed run also times a fixed kernel between tasks (calibration.py) and
scales task times by the host speed it measures.  Raw CPU and wall times
are printed and stored next to the metrics.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one untimed
warm-up task, then every task once untraced and once traced on the same
inputs, and reports the per-layer metrics (see tracing.py) and the tracing
overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full record (environment,
per-task times, every metric) goes to ``.perfbench_out/`` in the checkout,
next to the span file of a traced run.

Exit codes: 0 with a result, 2 when the package cannot be imported from the
checkout, 1 on any other error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# a run starts at most this many tasks; each task's generator is one of
# spawn_rngs(seed, MAX_TASKS), so task i sees the same inputs in every run
MAX_TASKS = 1000
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# one thread: the process's CPU clock then counts exactly the time it computes
BLAS_THREADS = 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "task_s_p50": "s",
    "tasks_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _threads() -> int:
    """Pin BLAS/OpenMP to one thread; must run before numpy loads."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def _import_workloads():
    """The workload module, with mfg_lab taken from this checkout's src/."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import mfg_lab
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import mfg_lab from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(mfg_lab.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: mfg_lab came from {mfg_lab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return workloads


def setup(workload_name: str):
    """Imports plus model and grid construction: everything before task 1."""
    workloads = _import_workloads()
    return workloads, workloads.WORKLOADS[workload_name]()


def measure_setup(args) -> tuple[list[float], list[float]]:
    """CPU seconds a fresh process spends from its start until the first task
    could start, and the wall seconds of the whole child, for SETUP_REPEATS
    fresh processes run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    cpu, wall = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                              check=False)
        wall.append(time.perf_counter() - t0)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(done.returncode)
        cpu.append(float(done.stdout.split()[-1]))
    return cpu, wall


def run_tasks(wl, rngs, seconds, tracer=None, callers=(), gauge=None):
    """Closed loop over tasks until `seconds` have passed.

    Returns one record per task.  A task that raises or fails its check is
    counted and the loop goes on.  A gauge, if given, runs before every task
    and after the last one.
    """
    records = []
    last_s = 0.0  # CPU seconds of the task before, which sizes the gauge's share
    if tracer is not None:
        # untimed warm-up, so that the first plain execution does not pay for
        # lazy imports and caches and skew trace.overhead_s
        _run_one(wl, wl.make_inputs(rngs[0], 0))
    deadline = time.perf_counter() + seconds
    for i, rng in enumerate(rngs):
        if records and time.perf_counter() >= deadline:
            break
        inputs = wl.make_inputs(rng, i)
        if gauge is not None:
            gauge.run(last_s)
        rec = {"task": i, **_run_one(wl, inputs)}
        last_s = rec["s"] or 0.0
        if tracer is not None:
            tracer.begin_task(i)
            tracer.install(callers)
            try:
                traced = {k: tracer.instrument_model(v) if _is_model(v) else v
                          for k, v in inputs.items()}
                t = _run_one(wl, traced)
            finally:
                tracer.uninstall()
            rec["traced_s"], rec["traced_ok"] = t["s"], t["ok"]
            if t["s"] is not None:
                # spans are timed on the wall clock, so coverage is too
                rec["layers"] = tracer.end_task(t["wall_s"])
        if "variant" in inputs:
            rec["variant"] = inputs["variant"]
        records.append(rec)
    if gauge is not None:
        gauge.run(last_s)
    return records


def _is_model(value) -> bool:
    from mfg_lab.models import MfgModel

    return isinstance(value, MfgModel)


def _run_one(wl, inputs) -> dict:
    """One task: its CPU seconds ("s"), wall seconds and check outcome."""
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        out = wl.run(inputs)
    except Exception as exc:  # a failed task is data: count it and go on
        return {"s": None, "wall_s": None, "ok": False,
                "error": f"{type(exc).__name__}: {exc}"}
    times = {"s": time.process_time() - c0, "wall_s": time.perf_counter() - t0}
    try:
        ok = bool(wl.check(inputs, out))
    except Exception as exc:
        return {**times, "ok": False, "error": f"check raised {type(exc).__name__}: {exc}"}
    return {**times, "ok": ok}


def end_to_end(records, setup_samples) -> dict:
    """Task times are CPU seconds scaled to reference host speed."""
    times = [r["s"] * r["scale"] for r in records if r["s"] is not None]
    done = sum(1 for r in records if r["ok"])
    return {
        "setup_s": statistics.median(setup_samples),
        "task_s_p50": statistics.median(times) if times else 0.0,
        "tasks_per_s": done / sum(times) if times else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(records, tracer) -> dict:
    from tracing import PER_LAYER

    traced = [r for r in records if "layers" in r and r["s"] is not None]
    if not traced:
        return dict.fromkeys(PER_LAYER, 0.0)
    out = {n: statistics.fmean(r["layers"].get(n, 0.0) for r in traced) for n in PER_LAYER}
    out["fictitious_play.round_s_p50"] = tracer.round_s_p50()
    out["trace.overhead_s"] = (statistics.median(r["traced_s"] for r in traced)
                               - statistics.median(r["s"] for r in traced))
    return out


def environment(wl, threads) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "machine": platform.machine(),
        "shapes": wl.shapes(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    threads = _threads()
    if args.setup_only:
        setup(args.workload)
        # CPU seconds of this process since it started, interpreter start included
        print(repr(time.process_time()))
        return 0

    setup_samples, setup_wall = [], []
    if args.trace == 0:
        setup_samples, setup_wall = measure_setup(args)
    workloads, wl = setup(args.workload)
    from mfg_lab.perturb import spawn_rngs

    rngs = spawn_rngs(args.seed, MAX_TASKS)
    tracer = gauge = None
    if args.trace:
        from tracing import PER_LAYER, Tracer

        tracer = Tracer()
    else:
        from calibration import Gauge

        gauge = Gauge()
    t_run = time.perf_counter()
    records = run_tasks(wl, rngs, args.seconds, tracer, callers=[workloads], gauge=gauge)
    run_s = time.perf_counter() - t_run

    failed = sum(1 for r in records if not r["ok"] or r.get("traced_ok") is False)
    walls = [r["wall_s"] for r in records if r["wall_s"] is not None]
    cpus = [r["s"] for r in records if r["s"] is not None]
    speed = None
    if gauge is not None:
        speed = gauge.speed()
        for rec, scale in zip(records, gauge.task_scales(wl.host_sensitivity), strict=True):
            rec["scale"] = scale
    if tracer is None:
        metrics = end_to_end(records, setup_samples)
        units = END_TO_END_UNITS
    else:
        metrics = per_layer(records, tracer)
        units = PER_LAYER
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_s": run_s,
        "tasks": len(records),
        "failed_fraction": failed / len(records),
        "setup_samples_s": setup_samples,
        "setup_wall_s": setup_wall,
        "task_wall_s_p50": statistics.median(walls) if walls else None,
        "task_cpu_s_p50": statistics.median(cpus) if cpus else None,
        "host_speed": speed,
        "gauge_gaps_s": gauge.gaps if gauge is not None else [],
        "environment": environment(wl, threads),
        "metrics": metrics,
        "records": records,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (OUT_DIR / f"result_{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.save(OUT_DIR / f"spans_{stem}.npz")

    env = record["environment"]
    timed = sum(1 for r in records if r["s"] is not None)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"tasks {len(records)} in {run_s:.1f} s  ({timed} timed samples)")
    print(f"numpy {env['numpy']}  scipy {env['scipy']}  nproc {env['nproc']}  "
          f"blas_threads {threads}  shapes {json.dumps(env['shapes'])}")
    if gauge is not None:
        print(f"host speed {speed!r} of reference ({len(gauge.samples)} gauge units), "
              f"task times scaled to it per task; "
              f"raw task medians: CPU {record['task_cpu_s_p50']!r} s, "
              f"wall {record['task_wall_s_p50']!r} s; set-up wall {setup_wall!r} s")
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]}")
    print(f"  failed_fraction = {record['failed_fraction']!r} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
