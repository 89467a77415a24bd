"""Record, per benchmark case, the verdict and a digest of every output, so
that two source trees can be compared bit for bit.

    python3 tools/census.py -o change.jsonl
    python3 tools/census.py --root ../parent -o parent.jsonl
    python3 tools/census.py --compare parent.jsonl change.jsonl

The cases are those of bench/workloads.py, built and run in this process,
one after another, from the src/ and bench/ directories of --root (by
default the checkout that holds this file); nothing under bench/ is
written.  BLAS threads are pinned to one before numpy loads, as the
benchmark pins them.  --cases WORKLOADS=SEEDS picks a comma-separated list
of workloads ("all" for the four) and a seed range such as 1-8; it may be
given more than once.  Without it the standard census runs: seeds 1-8 on
all four workloads, and seeds 9-300 on reduce-fullrank, feasible-lowrank
and sector-channel-cli, 3,624 cases.

Each output line is one case: its workload, seed and label, the bench
check's (failed, wrong, rank, steps, iters), and a SHA-256 digest.  For a
library case the digest covers the solver's state, residual history,
iterations, width and message, and the reduced state with its steps (or
the reduction's error).  For a CLI case it covers the exit code, the
standard error and the bytes of the output document.  --compare reads two
such files, prints every case whose line differs or that only one of them
holds, and exits 1 if there is any; on standard error it gives the
count of differing cases per workload and label, with how many of them
differ in a verdict field (or are held by one file only), then each
workload's failed count in both files, marking a failed share that rose,
and the totals.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from collections import Counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STANDARD = ["all=1-8", "reduce-fullrank,feasible-lowrank,sector-channel-cli=9-300"]
VERDICT = ("failed", "wrong", "rank", "steps", "iters")


def _spec(text: str) -> tuple[list[str] | None, range]:
    names, _, seeds = text.partition("=")
    lo, _, hi = seeds.partition("-")
    return (None if names == "all" else names.split(",")), range(int(lo), int(hi or lo) + 1)


def _digest(result, out_path: str) -> str:
    """SHA-256 of a case's outputs: a library case's (found, reduced, err),
    or a CLI case's (code, stderr) and its output document."""
    h = hashlib.sha256()

    def add(*items):
        for item in items:
            h.update(item.tobytes() if hasattr(item, "tobytes") else repr(item).encode())

    if isinstance(result[0], int):
        code, stderr = result
        add(code, stderr)
        if os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()
    # a float's repr round-trips, so the reprs of the history and steps
    # hold every bit
    found, reduced, err = result
    add(found.state, found.residual_history, found.iterations, found.factor_rank,
        found.converged, found.message)
    if reduced is not None:
        state, trace = reduced
        add(state, trace.final_rank, trace.bound, trace.null_space_exhausted, trace.steps)
    add(str(err))
    return h.hexdigest()


def run(root: str, specs: list[str], out) -> int:
    """Run the cases of specs from root's src/ and bench/; one line each."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    from workloads import BUILDERS

    count = 0
    for spec in specs:
        names, seeds = _spec(spec)
        for name in names or list(BUILDERS):
            for seed in seeds:
                with tempfile.TemporaryDirectory() as workdir:
                    for case in BUILDERS[name](seed, workdir):
                        case.reset()
                        result = case.run()
                        verdict = case.check(result)
                        line = {"workload": name, "seed": seed, "label": case.label}
                        line.update((k, getattr(verdict, k)) for k in VERDICT)
                        line["digest"] = _digest(
                            result, os.path.join(workdir, f"{case.label}.out.json"))
                        out.write(json.dumps(line) + "\n")
                        count += 1
    return count


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(text) for text in fh if text.strip()]
    return {(d["workload"], d["seed"], d["label"]): d for d in lines}


def compare(path_a: str, path_b: str) -> list[str]:
    """One message per case that differs between the two files."""
    a, b = _load(path_a), _load(path_b)
    out = []
    cases, differing, verdicts = Counter(), Counter(), Counter()
    for key in sorted(a.keys() | b.keys(), key=repr):
        cases[key[0], key[2]] += 1
        if key not in a or key not in b:
            out.append(f"{key}: only in {path_a if key in a else path_b}")
        elif a[key] != b[key]:
            fields = [k for k in a[key] if a[key][k] != b[key].get(k)]
            out.append(f"{key}: {', '.join(f'{k} {a[key][k]!r} != {b[key][k]!r}' for k in fields)}")
        else:
            continue
        differing[key[0], key[2]] += 1
        verdicts[key[0], key[2]] += key not in a or key not in b or any(
            a[key][k] != b[key][k] for k in VERDICT)
    for (name, label), count in sorted(differing.items()):
        print(f"{name} {label}: {count}/{cases[name, label]} differ, "
              f"{verdicts[name, label]} in a verdict", file=sys.stderr)
    for name in sorted({key[0] for key in a.keys() | b.keys()}):
        (fa, na), (fb, nb) = ((sum(d["failed"] for k, d in r.items() if k[0] == name),
                               sum(k[0] == name for k in r)) for r in (a, b))
        rose = "  (failed share rose)" if fb * na > fa * nb else ""
        print(f"{name}: failed {fa}/{na} -> {fb}/{nb}{rose}", file=sys.stderr)
    print(f"{len(a.keys() | b.keys())} cases, {len(out)} differences, "
          f"{sum(verdicts.values())} verdict differences", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=ROOT)
    parser.add_argument("--cases", action="append", metavar="WORKLOADS=SEEDS")
    parser.add_argument("-o", "--output")
    parser.add_argument("--compare", nargs=2, metavar="FILE")
    args = parser.parse_args(argv)
    if args.compare:
        differences = compare(*args.compare)
        for line in differences:
            print(line)
        return 1 if differences else 0
    if not args.output:
        parser.error("-o is required unless --compare is given")
    with open(args.output, "w", encoding="utf-8") as out:
        count = run(os.path.abspath(args.root), args.cases or STANDARD, out)
    print(f"{count} cases", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
