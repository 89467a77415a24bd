"""tools/census.py records one line per benchmark case and compares two
records; a smoke run on one seed of the infeasible-cli workload and of the
census's own walk-above-bound family, and a comparison of hand-made
records that counts differences per label."""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CENSUS = os.path.join(ROOT, "tools", "census.py")


def census(*args):
    return subprocess.run([sys.executable, CENSUS, *args], capture_output=True,
                          text=True, timeout=300)


def test_census_records_and_compares_one_seed(tmp_path):
    record = tmp_path / "a.jsonl"
    done = census("--cases", "infeasible-cli=1", "-o", str(record))
    assert done.returncode == 0, done.stderr
    assert done.stderr.strip() == "3 cases"
    lines = [json.loads(text) for text in record.read_text().splitlines()]
    assert [d["label"] for d in lines] == ["contradictory", "monogamy", "channel-clash"]
    for d in lines:
        assert (d["workload"], d["seed"]) == ("infeasible-cli", 1)
        assert d["failed"] is False and d["wrong"] is False
        assert len(d["digest"]) == 64 and int(d["digest"], 16) >= 0
        # no document is written, so the content digest is the byte digest
        assert d["content"] == d["digest"]

    again = tmp_path / "b.jsonl"
    assert census("--cases", "infeasible-cli=1", "-o", str(again)).returncode == 0
    same = census("--compare", str(record), str(again))
    assert same.returncode == 0 and same.stdout == ""
    assert same.stderr.splitlines() == ["infeasible-cli: failed 0/3 -> 0/3",
                                        "3 cases, 0 differences, 0 verdict differences"]

    lines[1]["digest"] = "0" * 64
    lines[0]["failed"] = True
    again.write_text("".join(json.dumps(d) + "\n" for d in lines[:2]))
    differ = census("--compare", str(record), str(again))
    assert differ.returncode == 1
    assert differ.stderr.splitlines() == [
        "infeasible-cli channel-clash: 1/1 differ, 1 in a verdict",
        "infeasible-cli contradictory: 1/1 differ, 1 in a verdict, 1 equal in content",
        "infeasible-cli monogamy: 1/1 differ, 0 in a verdict, 1 equal in content",
        "infeasible-cli: failed 0/3 -> 1/2  (failed share rose)",
        "infeasible-cli contradictory: failed 0/1 -> 1/1  (failed share rose)",
        "3 cases, 3 differences, 2 verdict differences"]
    assert "'contradictory'): failed False != True" in differ.stdout
    assert "'monogamy'): digest" in differ.stdout
    assert "'channel-clash'): only in" in differ.stdout


def test_walk_above_bound_cases_are_judged_as_library_cases(tmp_path):
    """One seed of walk-above-bound: two reductions from full-rank starts
    above the bound, each passing the bench check at a rank within the
    bound after at least one step, with no solver run."""
    record = tmp_path / "walk.jsonl"
    done = census("--cases", "walk-above-bound=1", "-o", str(record))
    assert done.returncode == 0, done.stderr
    assert done.stderr.strip() == "2 cases"
    lines = [json.loads(text) for text in record.read_text().splitlines()]
    assert [d["label"] for d in lines] == ["fullrank-allpairs-n5", "fermionic-N3-d6-k2"]
    for d, bound in zip(lines, (12, 15)):
        assert (d["workload"], d["seed"]) == ("walk-above-bound", 1)
        assert d["failed"] is False and d["wrong"] is False
        assert d["rank"] <= bound and d["steps"] >= 1 and d["iters"] is None
        assert len(d["digest"]) == 64


def test_compare_counts_differing_cases_per_label(tmp_path):
    """Two of three seeds of one label differ: the count reads 2/3 for that
    label, and a label whose cases all agree gets no line.  Each verdict
    field (failed, wrong, rank, steps, iters) counts as a verdict
    difference, as does a case held by one file only; a digest alone does
    not."""
    def record(path, cases):
        path.write_text("".join(json.dumps(
            {"workload": "w", "seed": seed, "label": label, "failed": False,
             "wrong": False, "rank": 1, "steps": 0, "iters": 1, **fields}) + "\n"
            for (seed, label), fields in cases.items()))
        return str(path)

    base = {(seed, label): {"digest": "0" * 64} for seed in (1, 2, 3) for label in "ab"}
    changed = {**base, (1, "a"): {"digest": "1" * 64}, (3, "a"): {"digest": "1" * 64}}
    done = census("--compare", record(tmp_path / "a.jsonl", base),
                  record(tmp_path / "b.jsonl", changed))
    assert done.returncode == 1 and len(done.stdout.splitlines()) == 2
    assert done.stderr.splitlines() == ["w a: 2/3 differ, 0 in a verdict",
                                        "w: failed 0/6 -> 0/6",
                                        "6 cases, 2 differences, 0 verdict differences"]

    flipped = {"failed": True, "wrong": True, "rank": 2, "steps": 1, "iters": 2}
    verdicts = {(seed, "b"): {"digest": "0" * 64, field: value}
                for seed, (field, value) in enumerate(flipped.items(), 1)}
    done = census("--compare", record(tmp_path / "a.jsonl", base),
                  record(tmp_path / "c.jsonl", {**changed, **verdicts}))
    assert done.returncode == 1 and len(done.stdout.splitlines()) == 7
    assert done.stderr.splitlines() == ["w a: 2/3 differ, 0 in a verdict",
                                        "w b: 5/5 differ, 5 in a verdict",
                                        "w: failed 0/6 -> 1/8  (failed share rose)",
                                        "w b: failed 0/3 -> 1/5  (failed share rose)",
                                        "8 cases, 7 differences, 5 verdict differences"]


def test_compare_marks_a_label_whose_failed_share_rose(tmp_path):
    """One label's failed share rises while another's falls by as much: the
    workload's count stays 3/6 and is not marked, but the label that rose
    is, on a line of its own; a label that fails nothing in either file
    gets no line."""
    def record(path, failed):
        path.write_text("".join(json.dumps(
            {"workload": "w", "seed": seed, "label": label, "failed": (seed, label) in failed,
             "wrong": False, "rank": 1, "steps": 0, "iters": 1, "digest": "0" * 64}) + "\n"
            for seed in (1, 2) for label in "abc"))
        return str(path)

    done = census("--compare", record(tmp_path / "a.jsonl", {(1, "a"), (1, "b"), (2, "b")}),
                  record(tmp_path / "b.jsonl", {(1, "a"), (2, "a"), (1, "b")}))
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "w a: 1/2 differ, 1 in a verdict",
        "w b: 1/2 differ, 1 in a verdict",
        "w: failed 3/6 -> 3/6",
        "w a: failed 1/2 -> 2/2  (failed share rose)",
        "w b: failed 2/2 -> 1/2",
        "6 cases, 2 differences, 2 verdict differences"]


def test_compare_counts_cases_equal_in_content(tmp_path):
    """CLI cases carry a content digest beside the byte digest: of three
    differing cases of one label, the two whose content digests agree (a
    document in another layout) count as equal in content, the third does
    not; a label without content digests keeps its line as it was."""
    def record(path, cases):
        path.write_text("".join(json.dumps(
            {"workload": "w", "seed": seed, "label": label, "failed": False,
             "wrong": False, "rank": 1, "steps": 0, "iters": 1, **fields}) + "\n"
            for (seed, label), fields in cases.items()))
        return str(path)

    base = {(seed, "cli"): {"digest": "0" * 64, "content": "a" * 64} for seed in (1, 2, 3, 4)}
    base.update({(seed, "lib"): {"digest": "0" * 64} for seed in (1, 2)})
    changed = {**base, **{(seed, "cli"): {"digest": "1" * 64, "content": "a" * 64}
                          for seed in (1, 2)},
               (3, "cli"): {"digest": "1" * 64, "content": "b" * 64},
               (1, "lib"): {"digest": "1" * 64}}
    done = census("--compare", record(tmp_path / "a.jsonl", base),
                  record(tmp_path / "b.jsonl", changed))
    assert done.returncode == 1 and len(done.stdout.splitlines()) == 4
    assert done.stderr.splitlines() == [
        "w cli: 3/4 differ, 0 in a verdict, 2 equal in content",
        "w lib: 1/2 differ, 0 in a verdict",
        "w: failed 0/6 -> 0/6",
        "6 cases, 4 differences, 0 verdict differences"]
    assert "content 'aaaa" in done.stdout
