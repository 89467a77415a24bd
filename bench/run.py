"""Run one benchmark workload in this process and print its result.

    python3 bench/run.py --workload reduce-fullrank --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from its
`src/` directory and nowhere else.  BLAS threads are pinned to one before
numpy loads.  The workload is a closed loop: one client calls the library
(or the CLI's main()) one instance after another.

--trace 0 measures the end-to-end metrics.  Passes over the workload's
instances repeat until --seconds is used up, each after a fresh set-up (a
fresh-process import of qmarginal plus generating every input).  A fixed
reference kernel (bench/reference.py) is timed before the first call of a
pass and after every call.  wall_ref sums, over the workload's instances,
the median over passes of the instance's call time divided by the mean of
the two kernel times beside it: call time in units of the kernel, which
cancels the host's speed drift.  The median pass time in seconds, wall_s,
goes to the detail record only.
Checks run outside the timed calls.  peak_rss_mb is this process's peak
resident set, and setup_s the median set-up time (at least five).

--trace 1 measures the per-layer metrics: one untraced pass, then two
traced passes; the metrics come from the traced set-up plus the first
traced pass, and the iteration, step and map-call counts must repeat
exactly across all three passes.

Every output is checked independently (bench/check.py).  The last line of
standard output is the result object; the line before it is a detail record
with the environment, per-instance verdicts and counts.  Both, and the spans
of a traced run, are also written under bench/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_REPEATS = 5

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import qmarginal; "
                 "print(time.perf_counter() - t)")


def _import_package():
    """Import qmarginal from this checkout's src/ or exit 2 without a result."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    try:
        import qmarginal
    except ImportError as err:
        sys.exit(f"bench: cannot import qmarginal from {SRC}: {err}")
    where = os.path.realpath(os.path.dirname(qmarginal.__file__))
    if where != os.path.realpath(os.path.join(SRC, "qmarginal")):
        sys.exit(f"bench: qmarginal imported from {where}, not from {SRC}")


def _fresh_import_seconds() -> float:
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


def _environment() -> dict:
    import numpy as np

    def first(path, key):
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in range(8):
        try:
            with open(f"{base}/index{idx}/level") as fh:
                level = fh.read().strip()
            with open(f"{base}/index{idx}/type") as fh:
                kind = fh.read().strip()
            with open(f"{base}/index{idx}/size") as fh:
                size = fh.read().strip()
        except OSError:
            break
        if kind != "Instruction":
            caches[f"L{level}"] = size
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpu": first("/proc/cpuinfo", "model name"),
            "caches": caches,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def _run_pass(cases, tracer=None):
    """Call every case once; return (per-case call seconds, verdicts)."""
    times, verdicts = [], []
    for case in cases:
        case.reset()
        with contextlib.nullcontext() if tracer is None else tracer.span("bench.case"):
            t0 = time.perf_counter()
            result = case.run()
            times.append(time.perf_counter() - t0)
        verdicts.append(case.check(result))
    return times, verdicts


def _reference_pass(cases, reference):
    """Call every case once, timing the reference kernel before the first
    call and after each one.  Return per-case call seconds, per-case call
    time in units of the mean of the two kernel times beside it, and the
    verdicts."""
    times, rel, verdicts = [], [], []
    before = reference.seconds()
    for case in cases:
        case.reset()
        t0 = time.perf_counter()
        result = case.run()
        times.append(time.perf_counter() - t0)
        after = reference.seconds()
        rel.append(2 * times[-1] / (before + after))
        before = after
        verdicts.append(case.check(result))
    return times, rel, verdicts


def _rank_over_bound(verdicts) -> float:
    solved = [v for v in verdicts if v.rank is not None]
    bound = sum(v.bound for v in solved)
    return sum(v.rank for v in solved) / bound if bound else 0.0


def _determinism_errors(labels, untraced, counts_a, counts_b) -> list[str]:
    errors = []
    for label, v, a, b in zip(labels, untraced, counts_a, counts_b):
        if a != b:
            errors.append(f"{label}: traced counts differ between passes: {a} vs {b}")
        for key, seen in (("iters", v.iters), ("steps", v.steps)):
            if seen is not None and seen != a[key]:
                errors.append(f"{label}: untraced {key} {seen} but traced {a[key]}")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from workloads import BUILDERS

    if args.workload not in BUILDERS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(BUILDERS)}")
    build = BUILDERS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        detail, metrics, verdicts, errors = (_traced if args.trace else _untraced)(
            build, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(verdicts)
    failed = sum(v.failed for v in verdicts)
    wrong = [f"{v.reason}" for v in verdicts if v.wrong]
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": _environment(),
        "fail_frac": failed / attempted,
        "rank_over_bound": _rank_over_bound(verdicts),
        "errors": errors + wrong,
    })
    result = {"correct": not (errors or wrong), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def _set_up(build, args, workdir):
    """Import qmarginal in a fresh process and generate every input; return
    the seconds both took and the cases."""
    t_import = _fresh_import_seconds()
    t0 = time.perf_counter()
    cases = build(args.seed, workdir)
    return t_import + time.perf_counter() - t0, cases


def _untraced(build, args, workdir):
    import reference

    reference.kernel()
    setups, walls, case_times, case_rels, verdicts, spent = [], [], [], [], [], []
    start = time.perf_counter()
    while not spent or (time.perf_counter() - start
                        + statistics.fmean(spent) <= args.seconds):
        t0 = time.perf_counter()
        setup, cases = _set_up(build, args, workdir)
        setups.append(setup)
        times, rel, vs = _reference_pass(cases, reference)
        spent.append(time.perf_counter() - t0)
        walls.append(sum(times))
        case_times.append(times)
        case_rels.append(rel)
        verdicts += vs
    while len(setups) < SETUP_REPEATS:
        setups.append(_set_up(build, args, workdir)[0])
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_ref = sum(statistics.median(c) for c in zip(*case_rels))
    metrics = {"wall_ref": {"value": wall_ref, "unit": "ref"},
               "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
               "setup_s": {"value": statistics.median(setups), "unit": "s"}}
    detail = {"wall_s": statistics.median(walls), "pass_walls_s": walls,
              "case_s": case_times, "case_ref": case_rels, "setups_s": setups,
              "instances": [c.label for c in cases],
              "verdicts": [v.__dict__ for v in verdicts[:len(cases)]]}
    return detail, metrics, verdicts, []


def _traced(build, args, workdir):
    import spans as tracing

    first = tracing.Tracer()
    with first.install(), first.span(tracing.SETUP):
        cases = build(args.seed, workdir)
    times_u, untraced = _run_pass(cases)
    with first.install():
        times_t, traced = _run_pass(cases, first)
    wall_u, wall_t = sum(times_u), sum(times_t)
    second = tracing.Tracer()
    with second.install():
        _, again = _run_pass(cases, second)
    counts_a, counts_b = tracing.case_counts(first), tracing.case_counts(second)
    labels = [c.label for c in cases]
    errors = _determinism_errors(labels, untraced, counts_a, counts_b)
    layer = tracing.layer_metrics(first)
    layer["trace.overhead_s"] = wall_t - wall_u
    layer["result.rank_over_bound"] = _rank_over_bound(untraced)
    units = _per_layer_units()
    metrics = {name: {"value": layer[name], "unit": unit}
               for name, unit in units.items()}
    first.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"))
    detail = {"untraced_wall_s": wall_u, "traced_wall_s": wall_t,
              "instances": labels, "case_counts": counts_a,
              "verdicts": [v.__dict__ for v in untraced]}
    return detail, metrics, untraced + traced + again, errors


def _per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    raise SystemExit(main())
