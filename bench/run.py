"""diffgraph benchmark runner.

Run from the root of a checkout:

    python3 bench/run.py --workload verdict-sweep --seed 1 --seconds 30

It imports diffgraph from ``src/`` of the checkout this file sits in and
never from an installed copy, builds the workload's inputs from ``--seed``,
measures for about ``--seconds`` seconds, checks every output, and prints
two lines: ``REPORT {...}`` with every named metric, the environment and
any failure messages, then the result object as the last line.  With
``--trace 0`` the result holds the end-to-end metrics; with ``--trace 1``
the run is split into an untraced and a traced half doing the same work,
and the result holds the per-layer metrics and the tracing overhead.

Scratch files go to ``.bench_work/`` in the checkout and are removed on
exit.  Without ``src/diffgraph`` next to it the runner exits with an error
before measuring anything.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One caller, no extra threads: pin BLAS before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import tracing  # noqa: E402  (numpy loads after the pin)
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-up samples: SETUP_BEFORE before the workload, the rest after it, so
# they span the run
SETUP_REPEATS = 15
SETUP_BEFORE = 8

END_TO_END = ("setup_s", "peak_rss_mb", "stage1_per_s", "stage1_ms",
              "stage2_per_s", "stage3_per_s")
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "stage1_per_s": "1/s",
         "stage1_ms": "ms", "stage2_per_s": "1/s", "stage3_per_s": "1/s"}


def import_program():
    """Import diffgraph from this checkout's src/, or exit with an error."""
    if not (SRC / "diffgraph" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'diffgraph'} not found; run from a full "
                 f"checkout of the repository")
    sys.path.insert(0, str(SRC))
    import diffgraph
    import diffgraph.cli  # noqa: F401  (not imported by the package)
    if Path(diffgraph.__file__).resolve().parent != SRC / "diffgraph":
        sys.exit(f"bench: imported diffgraph from {diffgraph.__file__}, "
                 f"not from {SRC}")
    return diffgraph


def setup_samples(count):
    """Seconds from spawning a fresh interpreter until ``import diffgraph``
    returns in it, ``count`` times, as measured and scaled to the reference
    host by calibration runs just before and after each.  The child reads
    the same monotonic clock as the parent."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import diffgraph, time; print(repr(time.perf_counter()))"
    samples, scaled = [], []
    for _ in range(count):
        before = workloads.calibration_s()
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(float(done.stdout.strip()) - start)
        after = workloads.calibration_s()
        scaled.append(samples[-1] * workloads.CALIBRATION_REFERENCE_S * 2
                      / (before + after))
    return samples, scaled


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "blas_threads": int(BLAS_THREADS)}


def peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(tracer, untraced, traced, declared_strata):
    """The per-layer metric dict from a traced half, plus absent counters.
    The package caches must have been emptied when the traced half began."""
    raw = tracer.metrics()
    absent = list(tracer.absent)
    out = {}

    def get(key):
        return raw.get(key, 0)

    for name, _, _ in tracing.PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "busy_s"):
            out[name] = get(name)
        elif field == "self_s":
            out[name] = raw.get(f"{layer}.self_s", 0.0)
        elif field in ("rows", "bytes"):
            out[name] = get(f"{layer}.extra")
    out["identify.refuted"] = traced.refuted
    out["oracle.compatible_dags"] = get("oracle.compatible.extra")
    # the strata each call covers are fixed by the input, so not counted
    out["estimate.adjustment_total.strata"] = (
        get("estimate.adjustment_total.calls") * declared_strata)

    stats = dict(traced.cache_stats)
    tracing.collect_cache_stats(stats)
    caches = tracing.oracle_caches()
    memo = stats.get("diffgraph.oracle._admissible_w_bits")
    if memo is None:
        absent.append("oracle._admissible_w_bits.cache_info")
        out["oracle.admissible_cache.hit_ratio"] = 0.0
        out["oracle.admissible_cache.lookups"] = 0
    else:
        hits, misses = memo
        out["oracle.admissible_cache.lookups"] = hits + misses
        out["oracle.admissible_cache.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
    if not caches:
        absent.append("oracle functools caches")
    out["oracle.cache_entries"] = sum(c.cache_info().currsize
                                      for c in caches.values())
    # both halves time the same operations; compare them scaled, like the
    # timing metrics, since the host's speed drifts between the halves
    plain, busy = untraced.scaled_total_s(), traced.scaled_total_s()
    out["trace.overhead_s"] = busy - plain
    out["trace.overhead_ratio"] = (busy - plain) / plain
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    return {name: {"value": out[name], "unit": units[name]}
            for name, _, _ in tracing.PER_LAYER}, absent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    dg = import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        sys.exit("bench: --seconds must be positive")

    setup_samples(1)  # compiles bytecode; not timed
    setup, setup_scaled = setup_samples(SETUP_BEFORE)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t0 = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](dg, args.seed,
                                                      str(workdir))
        input_s = time.perf_counter() - t0
        tally = workloads.Tally()
        plan = workload.execute(tally, args.seconds / (1 + args.trace))
        tallies = [tally]
        if args.trace:
            tracing.clear_package_caches()
            tracer = tracing.Tracer()
            traced = workloads.Tally()
            tracer.install()
            try:
                workload.execute(traced, args.seconds / 2, plan)
            finally:
                tracer.uninstall()
            tallies.append(traced)
            metrics, absent = per_layer(tracer, tally, traced,
                                        workload.inputs.get("strata", 0))
        slots, named = workload.summarize(tally)
        _, unscaled = workload.summarize(tally, scaled=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    more, more_scaled = setup_samples(SETUP_REPEATS - SETUP_BEFORE)
    setup += more
    setup_scaled += more_scaled
    setup_s = statistics.median(setup_scaled)
    if not args.trace:
        slots.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb())
        metrics = {name: {"value": slots[name], "unit": UNITS[name]}
                   for name in END_TO_END}
        absent = []
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "inputs": workload.inputs,
        "input_build_s": input_s, "plan": plan,
        "setup_s": setup_s, "setup_samples_s": setup,
        "setup_unscaled_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "unscaled": {k: {"value": v, "unit": u}
                     for k, (v, u) in unscaled.items()},
        "host_slowdown": tally.host_slowdown(),
        "calibration_runs": len(tally.calibrations),
        "ops_attempted": attempted, "ops_failed": failed,
        "closed_form_refuted": tallies[-1].refuted,
        "absent": absent,
        "failures": [m for t in tallies for m in t.messages],
    }
    print("REPORT " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
