"""optstab benchmark: one workload per run, in a closed loop with one caller.

    python3 perfbench/run.py --workload stability-coupled --seed 0 --seconds 20 --trace 0

Run from the repository root.  The workload's operations run back to back,
the next pass starting only when the previous one has finished, for at least
``--seconds`` seconds and at least two passes.  Every pass's outputs are
checked (see ``workloads.py``), and the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json, with
tracing off.  Untraced passes and set-up run under ``speed.SpeedProbe``, and
their times are reported at the reference CPU speed it defines.  ``--trace 1`` alternates untraced and traced passes, reports
the per-layer metrics, and writes the traced passes' spans to
``.perfbench_out/``.  BLAS threads are capped at the number of CPUs this
process may run on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 9


@dataclass(frozen=True)
class Timed:
    """One untraced pass: its raw seconds less the speed probe's, the same
    scaled to the reference speed (see ``speed.py``), and that speed."""

    it: object
    raw_s: float
    ref_s: float
    speed: float


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def time_setup(workload: str, seed: int) -> float:
    """Set-up time (import, configs, data) measured in a fresh interpreter."""
    done = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                           "--workload", workload, "--seed", str(seed)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _cache_bytes(level: int):
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level"), encoding="ascii") as fh:
                if int(fh.read()) != level:
                    continue
            with open(os.path.join(base, index, "size"), encoding="ascii") as fh:
                size = fh.read().strip()
            scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
            return int(size.rstrip("KM")) * scale
    except (OSError, ValueError):
        return None
    return None


def _git_commit():
    """HEAD of the checkout's git metadata, or None where there is none."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def environment(seed: int, blas_threads: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads,
            "l2_bytes": _cache_bytes(2), "l3_bytes": _cache_bytes(3),
            "commit": _git_commit(), "seed": seed}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    blas_threads = cap_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "optstab", "__init__.py")):
        print(f"error: no optstab sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path[:0] = [SRC, ROOT]
    from perfbench import layers, spans, speed, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    ops = workload.setup(args.seed)

    run_dir = os.path.join(OUT, f"{workload.name}-{os.getpid()}")
    tally = workloads.Tally()
    setup_times = []

    def after_pass(it):
        tally.add(ops, it)
        # Set-up probes run between passes, outside the timed region, so that
        # they sample the same stretch of machine load as the passes do.
        if not args.trace and len(setup_times) < SETUP_REPS:
            setup_times.append(time_setup(workload.name, args.seed))

    # The warm-up pass fills caches and finishes lazy imports; it is checked
    # and is the reference the later passes must reproduce, but is not timed.
    after_pass(workloads.run_iteration(ops, run_dir))
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        shutil.rmtree(run_dir, ignore_errors=True)
        if args.trace and len(plain) > len(traced):
            tracer = spans.Tracer(layers.COUNTERS)
            with spans.traced_package(tracer, "optstab"):
                it = workloads.run_iteration(ops, run_dir)
            traced.append((it, tracer))
        else:
            with speed.SpeedProbe(workload.probe) as probe:
                it = workloads.run_iteration(ops, run_dir)
            plain.append(Timed(it, it.wall_s - probe.probe_s,
                               probe.reference_seconds(it.wall_s), probe.speed))
        after_pass(it)
        if (time.perf_counter() - start >= args.seconds and len(plain) >= 2
                and (not args.trace or len(traced) >= 2)):
            break
    shutil.rmtree(run_dir, ignore_errors=True)
    while not args.trace and len(setup_times) < SETUP_REPS:
        setup_times.append(time_setup(workload.name, args.seed))

    median = statistics.median
    run_problems = []

    def work(it, key):
        return sum(c.get(key, 0) for c in it.counts.values())

    if args.trace:
        rates = [work(p.it, workload.work_key) / p.ref_s for p in plain]
        per_pass = [layers.layer_metrics(tracer, it.wall_s) for it, tracer in traced]
        counts = per_pass[0][1]
        if any(c != counts for _, c in per_pass):
            run_problems.append("per-layer counts differ between traced passes")
        values = {k: median(times[k] for times, _ in per_pass) for k in per_pass[0][0]}
        values.update(counts)
        values["raw.wall_s"] = median(p.raw_s for p in plain)
        values["raw.speed"] = median(p.speed for p in plain)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["raw.wall_s"]
        for key in ("opt_steps", "envelope_checks"):
            values[f"{key}_per_s"] = median(rates) if key == workload.work_key else 0.0
        for m in workloads.STABILITY_METHODS:
            values[f"stability_lab.bound_violations.{m}"] = work(
                plain[0].it, f"bound_violations.{m}")
        values["failed_share"] = tally.failed_share
        kind = "per_layer"
    else:
        values = {"ref_wall_s": median(p.ref_s for p in plain),
                  "setup_s": median(setup_times),
                  "ref_work_per_s": median(work(p.it, workload.work_key) / p.ref_s
                                       for p in plain),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        kind = "end_to_end"

    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(values):
        raise RuntimeError(f"metrics {sorted(set(units) ^ set(values))} do not match "
                           f"BENCHMARK.json {kind}")
    env = environment(args.seed, blas_threads)
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{workload.name}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"env": env, "workload": workload.name, "passes": [
                {"wall_s": it.wall_s,
                 "spans": [[sid, parent, name, s - start, e - start]
                           for sid, parent, name, s, e in sorted(tracer.spans)]}
                for it, tracer in traced]}, fh)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    for message in tally.messages + run_problems:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{workload.name}: {len(plain)} untraced and {len(traced)} traced passes; "
          f"untraced raw median {median(p.raw_s for p in plain)!r} s "
          f"at median speed {median(p.speed for p in plain)!r}")
    for name in units:
        print(f"  {name} = {values[name]!r} {units[name]}")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": tally.failed == 0 and not run_problems,
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
