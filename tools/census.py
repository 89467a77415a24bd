"""Record, per benchmark case, the verdict and a digest of every output, so
that two source trees can be compared bit for bit.

    python3 tools/census.py -o change.jsonl
    python3 tools/census.py --root ../parent -o parent.jsonl
    python3 tools/census.py --compare parent.jsonl change.jsonl

The cases are those of bench/workloads.py, plus one family of this file's
own, built and run in this process, one after another, from the src/ and
bench/ directories of --root (by default the checkout that holds this
file); nothing under bench/ is written.  The family, walk-above-bound,
runs reduce_rank from two full-rank starts whose rank r has r^2 above the
m descent rows, a path that no benchmark workload takes: a full-rank
all-pairs 5-qubit witness and a full-rank fermionic (3,6,2) state, drawn
from the seed.  BLAS threads are pinned to one before numpy loads, as the
benchmark pins them.  --cases WORKLOADS=SEEDS picks a comma-separated list
of workloads ("all" for the four of the benchmark) and a seed range such
as 1-8; it may be given more than once.  Without it the standard census
runs: seeds 1-8 on the four benchmark workloads, seeds 9-300 on
reduce-fullrank, feasible-lowrank and sector-channel-cli, and seeds 1-100
on walk-above-bound, 3,624 benchmark cases and 200 walk cases.

Each output line is one case: its workload, seed and label, the bench
check's (failed, wrong, rank, steps, iters), and a SHA-256 digest.  For a
library case the digest covers the solver's state, residual history,
iterations, width and message (a walk case has no solver run), and the
reduced state with its steps (or the reduction's error); the line also
holds the solver's residual history, whose floats JSON writes as their
repr, which round-trips.  For a CLI case it covers the exit code, the
standard error and the bytes of the output document; a second digest,
content, covers the same with the document parsed and re-encoded
canonically (sorted keys, compact separators), so it holds across layouts
of one document.  --compare reads two such files, prints every case whose
line differs or that only one of them holds, and exits 1 if there is any.
For a library case whose digest differs it names the first iteration at
which the two residual histories part, or says that they agree, so that
only the reduction differs, in place of the two lists; on standard error
it gives the count of differing cases per workload and label, with how
many of them differ in a verdict field (or are held by one file only) and,
for CLI cases held by both files, how many are equal in content, then each
workload's failed count in both files, followed by the same count for each
of its labels that fails a case in either file, marking every failed share
that rose, and the totals.  So a label whose share rose shows even when
another label's fall hides it in its workload's count.
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
STANDARD = ["all=1-8", "reduce-fullrank,feasible-lowrank,sector-channel-cli=9-300",
            "walk-above-bound=1-100"]
VERDICT = ("failed", "wrong", "rank", "steps", "iters")


def _spec(text: str) -> tuple[list[str] | None, range]:
    names, _, seeds = text.partition("=")
    lo, _, hi = seeds.partition("-")
    return (None if names == "all" else names.split(",")), range(int(lo), int(hi or lo) + 1)


def _sha256(*items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item if isinstance(item, bytes) else
                 item.tobytes() if hasattr(item, "tobytes") else repr(item).encode())
    return h.hexdigest()


def _digests(result, out_path: str) -> dict:
    """{"digest": SHA-256 of a case's outputs}: a library case's (found,
    reduced, err), or a CLI case's (code, stderr) and the bytes of its
    output document.  A CLI case also gets "content", the same over the
    document parsed and re-encoded canonically, so two layouts of one
    document share it; a library case with a solver run gets "history",
    its residual history."""
    if isinstance(result[0], int):
        code, stderr = result
        text = canonical = b""
        if os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                text = fh.read()
            canonical = json.dumps(json.loads(text), sort_keys=True,
                                   separators=(",", ":")).encode()
        return {"digest": _sha256(code, stderr, text),
                "content": _sha256(code, stderr, canonical)}
    # a float's repr round-trips, so the reprs of the history and steps
    # hold every bit
    found, reduced, err = result
    items = []
    if found is not None:
        items += [found.state, found.residual_history, found.iterations, found.factor_rank,
                  found.converged, found.message]
    if reduced is not None:
        state, trace = reduced
        items += [state, trace.final_rank, trace.bound, trace.null_space_exhausted, trace.steps]
    digests = {"digest": _sha256(*items, str(err))}
    if found is not None:
        digests["history"] = list(found.residual_history)
    return digests


def walk_above_bound(seed: int, workdir: str) -> list:
    """reduce_rank from two full-rank starts above the walk's bound, judged
    as library cases are: a full-rank witness of all pairs of 5 qubits
    (gallery seed = seed; rank 32, m = 161) and a full-rank fermionic
    (3,6,2) state from default_rng(seed) with its 2-particle marginal as
    the target (rank 20, m = 226)."""
    from itertools import combinations

    import numpy as np

    import check
    from qmarginal import gallery, reduction, sector
    from qmarginal._engine import ReductionError
    from workloads import Case

    def case(label, inst, start, residual, bound):
        def run():
            try:
                return None, reduction.reduce_rank(start, inst, seed=0), None
            except ReductionError as err:
                return None, None, err

        def judge(result):
            _, reduced, err = result
            if reduced is None:
                return check.gave_up_verdict(f"reduction aborted: {err}")
            state, trace = reduced
            return check.state_verdict(state, residual(state), bound,
                                       steps=len(trace.steps))

        return Case(label, run, judge)

    qudit, witness = gallery.random_feasible_instance(
        (2,) * 5, list(combinations(range(5), 2)), 32, seed=seed)
    cons = [(c.subsystems, c.target) for c in qudit.constraints]
    n, d, k = 3, 6, 2
    wn, wk = (sector.sector_isometry("fermionic", p, d).isometry for p in (n, k))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((wn.shape[1],) * 2) + 1j * rng.standard_normal((wn.shape[1],) * 2)
    sigma = g @ g.conj().T / np.trace(g @ g.conj().T).real
    target = check.sector_marginal(sigma, wn, wk, d, n, k)
    target = (target + target.conj().T) / 2
    return [
        case("fullrank-allpairs-n5", qudit, witness,
             lambda x: check.qudit_residual(x, qudit.dims, cons),
             check.square_sum_bound(t for _, t in cons)),
        case("fermionic-N3-d6-k2", sector.SectorInstance("fermionic", n, d, k, target),
             sigma, lambda x: float(np.linalg.norm(
                 check.sector_marginal(x, wn, wk, d, n, k) - target)),
             check.numerical_rank(target)),
    ]


def run(root: str, specs: list[str], out) -> int:
    """Run the cases of specs from root's src/ and bench/; one line each."""
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    from workloads import BUILDERS

    builders = {**BUILDERS, "walk-above-bound": walk_above_bound}
    count = 0
    for spec in specs:
        names, seeds = _spec(spec)
        for name in names or list(BUILDERS):
            for seed in seeds:
                with tempfile.TemporaryDirectory() as workdir:
                    for case in builders[name](seed, workdir):
                        case.reset()
                        result = case.run()
                        verdict = case.check(result)
                        line = {"workload": name, "seed": seed, "label": case.label}
                        line.update((k, getattr(verdict, k)) for k in VERDICT)
                        line.update(_digests(
                            result, os.path.join(workdir, f"{case.label}.out.json")))
                        out.write(json.dumps(line) + "\n")
                        count += 1
    return count


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(text) for text in fh if text.strip()]
    return {(d["workload"], d["seed"], d["label"]): d for d in lines}


def _parting(a: list[float], b: list[float]) -> str:
    """Where two residual histories part: entry i is iteration i + 1."""
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return ("histories agree" if i == len(a) == len(b)
            else f"histories part at iteration {i + 1}")


def compare(path_a: str, path_b: str) -> list[str]:
    """One message per case that differs between the two files."""
    a, b = _load(path_a), _load(path_b)
    out = []
    cases, differing, verdicts, content = Counter(), Counter(), Counter(), {}
    for key in sorted(a.keys() | b.keys(), key=repr):
        cases[key[0], key[2]] += 1
        if key not in a or key not in b:
            out.append(f"{key}: only in {path_a if key in a else path_b}")
        elif a[key] != b[key]:
            fields = [k for k in a[key] if k != "history" and a[key][k] != b[key].get(k)]
            if not fields:  # a record without histories, from before they were kept
                continue
            parts = [f"{k} {a[key][k]!r} != {b[key].get(k)!r}" for k in fields]
            if "digest" in fields and "history" in a[key] and "history" in b[key]:
                parts.append(_parting(a[key]["history"], b[key]["history"]))
            out.append(f"{key}: {', '.join(parts)}")
        else:
            continue
        differing[key[0], key[2]] += 1
        verdicts[key[0], key[2]] += key not in a or key not in b or any(
            a[key][k] != b[key][k] for k in VERDICT)
        if "content" in a.get(key, {}) and "content" in b.get(key, {}):
            content[key[0], key[2]] = content.get((key[0], key[2]), 0) + (
                a[key]["content"] == b[key]["content"])
    for (name, label), count in sorted(differing.items()):
        same = "" if (name, label) not in content else \
            f", {content[name, label]} equal in content"
        print(f"{name} {label}: {count}/{cases[name, label]} differ, "
              f"{verdicts[name, label]} in a verdict{same}", file=sys.stderr)

    def failed(title, match):
        (fa, na), (fb, nb) = ((sum(d["failed"] for k, d in r.items() if match(k)),
                               sum(map(match, r))) for r in (a, b))
        rose = "  (failed share rose)" if fb * na > fa * nb else ""
        print(f"{title}: failed {fa}/{na} -> {fb}/{nb}{rose}", file=sys.stderr)

    for name in sorted({key[0] for key in a.keys() | b.keys()}):
        failed(name, lambda k: k[0] == name)
        for label in sorted({k[2] for r in (a, b) for k, d in r.items()
                             if k[0] == name and d["failed"]}):
            failed(f"{name} {label}", lambda k: (k[0], k[2]) == (name, label))
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
