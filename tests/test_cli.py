"""Command-line behavior: exit codes, printed summaries, emitted documents."""
import json
from functools import cached_property
from itertools import combinations

import numpy as np
import pytest

from qmarginal.channels import (choi_from_kraus, reduce_kraus_rank, sub_channel,
                                LocalChannel, ChannelInstance)
from qmarginal import _engine, channels, cli
from qmarginal.cli import build_parser, main
from qmarginal.documents import (channel_instance_to_doc, channel_to_doc,
                                 dump_document, instance_from_doc,
                                 instance_to_doc, load_document, state_to_doc)
from qmarginal.gallery import (maximally_mixed_klocal_instance,
                               random_feasible_instance, ring_graph_state)
from qmarginal.hilbert import partial_trace
from qmarginal.marginal import (ConsistencyInstance, MarginalConstraint,
                                find_feasible)
from qmarginal.numerics import numerical_rank
from qmarginal.reduction import reduce_rank


def write_instance(path, instance):
    dump_document(instance_to_doc(instance), str(path))
    return str(path)


def ket0_instance():
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    return ConsistencyInstance((2, 2), (MarginalConstraint((0,), ket0),))


def two_qubit_channel_instance(seed=42, kraus_count=16):
    rng = np.random.default_rng(seed)
    g = (rng.standard_normal((kraus_count * 4, 4))
         + 1j * rng.standard_normal((kraus_count * 4, 4)))
    q, _ = np.linalg.qr(g)
    ks = [q[j * 4:(j + 1) * 4, :] for j in range(kraus_count)]
    full = choi_from_kraus(ks, (2, 2), (2, 2))
    return ChannelInstance(
        (2, 2), (2, 2),
        (LocalChannel((0,), (0,), sub_channel(full, (0,), (0,))),
         LocalChannel((1,), (1,), sub_channel(full, (1,), (1,)))))


def test_bounds_output_line(tmp_path, capsys):
    path = write_instance(tmp_path / "mm.json",
                          maximally_mixed_klocal_instance(5, 2))
    assert main(["bounds", path]) == 0
    assert capsys.readouterr().out.strip() == "theorem1: 12, barvinok: 17, face: 32"


def test_bounds_rank_one_target(tmp_path, capsys):
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    inst = ConsistencyInstance(
        (2, 2), (MarginalConstraint((0, 1), np.outer(v, v.conj())),))
    path = write_instance(tmp_path / "pure.json", inst)
    assert main(["bounds", path]) == 0
    assert capsys.readouterr().out.strip() == "theorem1: 1, barvinok: 5, face: 1"


def test_bounds_face_of_a_ring_graph_state(tmp_path, capsys):
    """The ring graph state on five qubits pinned by its 3-local windows:
    the face its pure-state marginals force is the state alone, so no
    solution has a rank above 1, far below theorem1."""
    n = 5
    rho = ring_graph_state(n)
    windows = [tuple(sorted({i, (i + 1) % n, (i + 2) % n})) for i in range(n)]
    inst = ConsistencyInstance((2,) * n, tuple(
        MarginalConstraint(w, partial_trace(rho, (2,) * n, w)) for w in windows))
    assert main(["bounds", write_instance(tmp_path / "ring.json", inst)]) == 0
    assert capsys.readouterr().out.strip() == "theorem1: 8, barvinok: 25, face: 1"


def test_solve_rank_tol_sets_the_factor_width(tmp_path, capsys):
    """--rank-tol reaches the solver: a target eigenvalue of 5e-9, which
    rank_tol 1e-6 drops and whose loss tol 1e-6 forgives, counts neither in
    theorem1 nor in the width of the feasibility factor."""
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    target = (1 - 5e-9) * np.outer(q[:, 0], q[:, 0].conj()) + 5e-9 * np.outer(
        q[:, 1], q[:, 1].conj())
    inst_path = write_instance(tmp_path / "tiny.json", ConsistencyInstance(
        (2, 2, 2), (MarginalConstraint((0, 1), target),)))
    out_path = tmp_path / "sol.json"
    assert main(["solve", inst_path, "--tol", "1e-6", "--rank-tol", "1e-6",
                 "-o", str(out_path)]) == 0
    assert "theorem1 bound 1," in capsys.readouterr().out
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["bounds"]["theorem1"] == 1
    assert 1 <= doc["feasibility"]["factor_rank"] <= 1


def test_bounds_degenerate(tmp_path, capsys):
    path = write_instance(tmp_path / "empty.json", ConsistencyInstance((2, 2), ()))
    assert main(["bounds", path]) == 0
    assert capsys.readouterr().out.strip() == "theorem1: 0 (degenerate), barvinok: 0, face: 4"


def test_bounds_does_not_trust_an_empty_face_that_fails_its_check(tmp_path, capsys):
    """At rank_tol 0.3 the 2-local maximally mixed targets on 3 qubits lose
    every eigenvalue, so their face is empty; its certificate fails the
    check and solve_feasible solves in the full space, where it finds a
    state of rank 8, so bounds prints the dimension 8, not 0."""
    path = str(tmp_path / "mm.json")
    assert main(["example", "mm-klocal", "--n", "3", "--k", "2", "-o", path]) == 0
    capsys.readouterr()
    assert main(["bounds", path, "--rank-tol", "0.3"]) == 0
    assert capsys.readouterr().out.strip() == "theorem1: 0, barvinok: 9, face: 8"


def test_check_consistent_state(tmp_path, capsys):
    inst_path = write_instance(tmp_path / "mm.json",
                               maximally_mixed_klocal_instance(5, 2))
    state_path = tmp_path / "ring.json"
    dump_document(state_to_doc(ring_graph_state(5), (2,) * 5), str(state_path))
    assert main(["check", inst_path, str(state_path)]) == 0
    out = capsys.readouterr().out
    assert "consistent within tol" in out


def test_check_inconsistent_state(tmp_path, capsys):
    inst_path = write_instance(tmp_path / "ket0.json", ket0_instance())
    state_path = tmp_path / "mixed.json"
    dump_document(state_to_doc(np.eye(4, dtype=complex) / 4, (2, 2)),
                  str(state_path))
    assert main(["check", inst_path, str(state_path)]) == 1
    out = capsys.readouterr().out
    assert "7.071e-01" in out
    assert "inconsistent" in out


def test_check_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dims": [2,', encoding="utf-8")
    assert main(["check", str(bad), str(bad)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_solve_writes_solution(tmp_path, capsys):
    inst_path = write_instance(tmp_path / "mm4.json",
                               maximally_mixed_klocal_instance(4, 2))
    out_path = tmp_path / "sol.json"
    assert main(["solve", inst_path, "-o", str(out_path)]) == 0
    printed = capsys.readouterr().out
    assert "theorem1 bound 9" in printed
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["rank"] <= 9
    assert doc["bounds"]["achieved"] == doc["rank"]
    assert max(doc["residuals"]) <= 1e-7
    assert doc["options"]["seed"] == 0
    m = np.array(doc["matrix"]["re"]) + 1j * np.array(doc["matrix"]["im"])
    assert numerical_rank(m) == doc["rank"]
    assert all(e["rank_after"] < e["rank_before"] for e in doc["trace"])


def test_solve_prints_one_document_line_and_its_summary_on_stderr(tmp_path, capsys):
    """Without -o the document is the whole of stdout, on one line, and the
    summary goes to stderr."""
    inst_path = write_instance(tmp_path / "mm3.json",
                               maximally_mixed_klocal_instance(3, 2))
    assert main(["solve", inst_path]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("\n") and captured.out.count("\n") == 1
    doc = json.loads(captured.out)
    assert doc["rank"] <= 6 and max(doc["residuals"]) <= 1e-7
    assert captured.err.startswith(f"rank: {doc['rank']} (theorem1 bound 6,")
    assert "max residual:" in captured.err


def test_solve_document_holds_the_feasibility_run(tmp_path):
    """The solution document carries the feasibility search that found the
    start: the same iterations, factor width, message and history as a
    library call on the instance read back from its file."""
    inst_path = write_instance(tmp_path / "mm4.json",
                               maximally_mixed_klocal_instance(4, 2))
    out_path = tmp_path / "sol.json"
    assert main(["solve", inst_path, "-o", str(out_path)]) == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    found = find_feasible(instance_from_doc(load_document(inst_path)))
    assert doc["feasibility"] == {
        "iterations": found.iterations, "factor_rank": found.factor_rank,
        "message": found.message,
        "residual_history": list(found.residual_history)}
    assert found.converged and found.factor_rank == 9
    assert len(doc["feasibility"]["residual_history"]) == found.iterations


def test_solve_no_reduce(tmp_path):
    inst_path = write_instance(tmp_path / "mm3.json",
                               maximally_mixed_klocal_instance(3, 2))
    out_path = tmp_path / "sol.json"
    assert main(["solve", inst_path, "--no-reduce", "-o", str(out_path)]) == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["trace"] == []
    assert max(doc["residuals"]) <= 1e-8


def test_solve_infeasible_instance(tmp_path, capsys):
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    inst = ConsistencyInstance(
        (2, 2), (MarginalConstraint((0,), ket0),
                 MarginalConstraint((0, 1), np.eye(4) / 4)))
    inst_path = write_instance(tmp_path / "bad.json", inst)
    out_path = tmp_path / "sol.json"
    assert main(["solve", inst_path, "-o", str(out_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("certified infeasible after ")
    assert "from consistent ones" in err
    assert "best iterate" in err
    assert not out_path.exists()


def test_solve_sector_instance(tmp_path, capsys):
    from qmarginal.sector import SectorInstance
    inst = SectorInstance("bosonic", 4, 2, 2, np.eye(3, dtype=complex) / 3)
    inst_path = write_instance(tmp_path / "sector.json", inst)
    out_path = tmp_path / "sol.json"
    assert main(["solve", inst_path, "-o", str(out_path)]) == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["rank"] <= 3
    assert max(doc["residuals"]) <= 1e-7


def boson_mm_path(tmp_path):
    """Four bosons in two levels, maximally mixed two-particle target."""
    from qmarginal.sector import SectorInstance
    inst = SectorInstance("bosonic", 4, 2, 2, np.eye(3, dtype=complex) / 3)
    return write_instance(tmp_path / "sector.json", inst)


def test_bounds_sector_instance(tmp_path, capsys):
    assert main(["bounds", boson_mm_path(tmp_path)]) == 0
    assert capsys.readouterr().out.strip() == "theorem1: 3, barvinok: 4, face: 5"


def test_sector_bounds_build_no_isometry(tmp_path, capsys, monkeypatch):
    """Both bounds read the target only; building W_N would cost d^N rows."""
    from qmarginal import sector
    from qmarginal.marginal import barvinok_bound, theorem1_bound
    calls = []
    real = sector.sector_isometry

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sector, "sector_isometry", spy)
    inst = sector.SectorInstance("fermionic", 4, 8, 2, np.eye(28) / 28)
    assert (theorem1_bound(inst), barvinok_bound(inst)) == (28, 39)
    assert main(["bounds", write_instance(tmp_path / "f.json", inst)]) == 0
    assert capsys.readouterr().out.strip() == "theorem1: 28, barvinok: 39, face: 70"
    assert calls == []


def test_each_entry_point_builds_one_system(tmp_path, monkeypatch):
    """find_feasible then reduce_rank, reduce_kraus_rank, `solve` and `check`
    each build one engine system: its groups and target spectra once per
    instance, counted where a system stacks its groups."""
    builds = []
    groups = _engine.ConstraintSystem.groups

    def counted(system):
        builds.append(system)
        return groups.func(system)

    spy = cached_property(counted)
    spy.__set_name__(_engine.ConstraintSystem, "groups")
    monkeypatch.setattr(_engine.ConstraintSystem, "groups", spy)

    def count(run) -> int:
        builds.clear()
        run()
        return len(builds)

    inst, witness = random_feasible_instance((2,) * 3, list(combinations(range(3), 2)),
                                             8, seed=3)
    inst_path = write_instance(tmp_path / "inst.json", inst)
    state_path = str(tmp_path / "witness.json")
    dump_document(state_to_doc(witness, inst.dims), state_path)

    def library():
        fresh = ConsistencyInstance(inst.dims, inst.constraints)
        reduce_rank(find_feasible(fresh).state, fresh)

    assert count(library) == 1
    assert count(lambda: reduce_kraus_rank(two_qubit_channel_instance())) == 1
    assert count(lambda: main(["solve", inst_path, "-o", str(tmp_path / "o.json")])) == 1
    assert count(lambda: main(["check", inst_path, state_path])) == 1


def test_solve_rejects_a_boolean_particle_count(tmp_path, capsys):
    doc = {"kind": "fermionic", "N": True, "d": 2, "k": True,
           "constraints": [{"matrix": {"re": [[0.5, 0], [0, 0.5]],
                                       "im": [[0, 0], [0, 0]]}}]}
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out_path = tmp_path / "sol.json"
    assert main(["solve", str(path), "-o", str(out_path)]) == 2
    assert "field 'N' has type bool" in capsys.readouterr().err
    assert not out_path.exists()


def test_check_sector_solution(tmp_path, capsys):
    inst_path = boson_mm_path(tmp_path)
    out_path = tmp_path / "sol.json"
    assert main(["solve", inst_path, "-o", str(out_path)]) == 0
    capsys.readouterr()
    assert main(["check", inst_path, str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "constraint (2-particle marginal): residual " in out
    assert "consistent within tol" in out


def test_check_sector_wrong_shape(tmp_path, capsys):
    inst_path = boson_mm_path(tmp_path)
    state_path = tmp_path / "wrong.json"
    dump_document(state_to_doc(np.eye(4, dtype=complex) / 4, (4,)),
                  str(state_path))
    assert main(["check", inst_path, str(state_path)]) == 2
    assert "does not match" in capsys.readouterr().err


def test_example_ring_graph(tmp_path, capsys):
    out_path = tmp_path / "ring.json"
    assert main(["example", "ring-graph", "--n", "5", "-o", str(out_path)]) == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["rank"] == 1
    assert doc["dims"] == [2, 2, 2, 2, 2]


def test_example_boson_sigma(tmp_path, capsys):
    out_path = tmp_path / "sigma.json"
    assert main(["example", "boson-sigma", "--N", "7", "--p", "2",
                 "-o", str(out_path)]) == 0
    assert "rank 2" in capsys.readouterr().out
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    m = np.array(doc["matrix"]["re"]) + 1j * np.array(doc["matrix"]["im"])
    assert numerical_rank(m) == 2


def test_example_boson_sigma_out_of_range(capsys):
    assert main(["example", "boson-sigma", "--N", "6", "--p", "0"]) == 2
    assert "admissible range" in capsys.readouterr().err


def test_example_random_feasible_with_state(tmp_path):
    inst_path = tmp_path / "inst.json"
    state_path = tmp_path / "wit.json"
    assert main(["example", "random-feasible", "--n", "3", "--k", "2",
                 "--rank", "4", "--seed", "7", "-o", str(inst_path),
                 "--state-out", str(state_path)]) == 0
    assert main(["check", str(inst_path), str(state_path)]) == 0


def test_example_random_feasible_rejects_k_outside_1_to_n(tmp_path, capsys):
    """--k above n would pin no subset and --k 0 only the empty one: both
    exit 2 and write nothing, as mm-klocal does; k = n pins the whole
    state."""
    out_path = tmp_path / "inst.json"
    for k in ("4", "0", "-1"):
        assert main(["example", "random-feasible", "--n", "3", "--k", k,
                     "-o", str(out_path)]) == 2
        assert f"local size must be in 1..3, got {k}" in capsys.readouterr().err
        assert not out_path.exists()
    assert main(["example", "random-feasible", "--n", "3", "--k", "3",
                 "-o", str(out_path)]) == 0
    assert len(json.loads(out_path.read_text(encoding="utf-8"))["constraints"]) == 1
    assert main(["example", "mm-klocal", "--n", "3", "--k", "4"]) == 2


def test_example_mm_klocal_roundtrip(tmp_path, capsys):
    inst_path = tmp_path / "mm.json"
    assert main(["example", "mm-klocal", "--n", "4", "--k", "2",
                 "-o", str(inst_path)]) == 0
    assert main(["bounds", str(inst_path)]) == 0
    assert "theorem1: 9" in capsys.readouterr().out


def test_channel_kraus_identity(tmp_path, capsys):
    ch_path = tmp_path / "ident.json"
    dump_document(channel_to_doc(
        choi_from_kraus([np.eye(2, dtype=complex)], (2,), (2,))), str(ch_path))
    out_path = tmp_path / "kraus.json"
    assert main(["channel", "kraus", str(ch_path), "-o", str(out_path)]) == 0
    assert "kraus operators: 1" in capsys.readouterr().out
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert len(doc["kraus"]) == 1


def test_channel_kraus_rejects_non_cp(tmp_path, capsys):
    from qmarginal.channels import ChannelRepr
    bad = ChannelRepr((2,), (2,), np.diag([0.5, 0.5, 0.5, -0.5]).astype(complex))
    ch_path = tmp_path / "bad.json"
    dump_document(channel_to_doc(bad), str(ch_path))
    assert main(["channel", "kraus", str(ch_path)]) == 1


def test_channel_subchannel_swap(tmp_path, capsys):
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    ch_path = tmp_path / "swap.json"
    dump_document(channel_to_doc(choi_from_kraus([swap], (2, 2), (2, 2))),
                  str(ch_path))
    out_path = tmp_path / "sub.json"
    assert main(["channel", "subchannel", str(ch_path), "--in-keep", "0",
                 "--out-keep", "0", "-o", str(out_path)]) == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    m = np.array(doc["choi"]["re"]) + 1j * np.array(doc["choi"]["im"])
    assert np.allclose(m, np.eye(4) / 4)


def test_channel_reduce_pipeline(tmp_path, capsys):
    inst_path = tmp_path / "chinst.json"
    dump_document(channel_instance_to_doc(two_qubit_channel_instance()),
                  str(inst_path))
    out_path = tmp_path / "red.json"
    assert main(["channel", "reduce", str(inst_path), "-o", str(out_path)]) == 0
    printed = capsys.readouterr().out
    assert "paper bound 5" in printed
    assert "tp-augmented bound 6" in printed
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["kraus_count"] <= 6
    assert doc["bounds"]["achieved"] == doc["kraus_count"]


def failing_repair(*args, **kwargs):
    raise _engine.ReductionError("repair stopped")


def test_solve_aborted_reduction_exits_one(tmp_path, capsys, monkeypatch):
    """A reduction that raises ReductionError ends the run with exit 1 and
    writes no document."""
    inst_path = write_instance(tmp_path / "mm3.json",
                               maximally_mixed_klocal_instance(3, 2))
    out_path = tmp_path / "sol.json"
    monkeypatch.setattr(_engine, "_repair", failing_repair)
    assert main(["solve", inst_path, "-o", str(out_path)]) == 1
    assert capsys.readouterr().err.strip() == "rank reduction aborted: repair stopped"
    assert not out_path.exists()


def test_solve_at_a_rank_tol_that_drops_every_target_eigenvalue(tmp_path, capsys):
    """At --rank-tol 0.3 every target eigenvalue 1/4 counts as zero: the
    search still converges, so --no-reduce writes a solution, while the
    reduction's entry truncation leaves no state and exits 1."""
    inst_path = write_instance(tmp_path / "mm3.json", maximally_mixed_klocal_instance(3, 2))
    out_path = tmp_path / "sol.json"
    assert main(["solve", inst_path, "--rank-tol", "0.3", "--no-reduce",
                 "-o", str(out_path)]) == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["feasibility"]["message"].startswith("converged in")
    assert doc["feasibility"]["factor_rank"] == 8 and max(doc["residuals"]) <= 1e-8
    capsys.readouterr()
    assert main(["solve", inst_path, "--rank-tol", "0.3"]) == 1
    assert capsys.readouterr().err.strip() == (
        "rank reduction aborted: state vanished after eigenvalue truncation")


def test_channel_reduce_aborted_reduction_exits_one(tmp_path, capsys, monkeypatch):
    inst_path = tmp_path / "chinst.json"
    dump_document(channel_instance_to_doc(two_qubit_channel_instance()),
                  str(inst_path))
    out_path = tmp_path / "red.json"
    monkeypatch.setattr(_engine, "_repair", failing_repair)
    assert main(["channel", "reduce", str(inst_path), "-o", str(out_path)]) == 1
    assert capsys.readouterr().err.strip() == "rank reduction aborted: repair stopped"
    assert not out_path.exists()


def test_channel_reduce_clashing_subchannels_exits_one(tmp_path, capsys):
    """The identity and the completely depolarising channel pinned to the
    same qubit: no joint channel exists, the search ends on a dual
    certificate and no document is written."""
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.diag([1.0, -1.0])]
    ident = choi_from_kraus([np.eye(2, dtype=complex)], (2,), (2,))
    noise = choi_from_kraus([p.astype(complex) / 2 for p in paulis], (2,), (2,))
    clash = ChannelInstance((2,), (2,), (LocalChannel((0,), (0,), ident),
                                         LocalChannel((0,), (0,), noise)))
    inst_path = tmp_path / "clash.json"
    dump_document(channel_instance_to_doc(clash), str(inst_path))
    out_path = tmp_path / "red.json"
    assert main(["channel", "reduce", str(inst_path), "-o", str(out_path)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("certified infeasible after ")
    assert err.endswith("from consistent ones")
    assert not out_path.exists()


def test_channel_subchannel_rejects_a_non_integer_list(tmp_path, capsys):
    swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    ch_path = tmp_path / "swap.json"
    dump_document(channel_to_doc(choi_from_kraus([swap], (2, 2), (2, 2))),
                  str(ch_path))
    assert main(["channel", "subchannel", str(ch_path), "--in-keep", "a",
                 "--out-keep", "0"]) == 2
    assert "expected comma-separated integers, got 'a'" in capsys.readouterr().err


def test_unknown_flag_exits_two(tmp_path):
    assert main(["bounds", "nope.json", "--wat"]) == 2


def test_missing_file_exits_two(capsys):
    assert main(["bounds", "no_such_file.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_state_doc_where_instance_expected(tmp_path, capsys):
    state_path = tmp_path / "state.json"
    dump_document(state_to_doc(np.eye(4, dtype=complex) / 4, (2, 2)),
                  str(state_path))
    assert main(["bounds", str(state_path)]) == 2
    assert "missing field" in capsys.readouterr().err


def test_main_reuses_one_parser_across_calls(tmp_path, capsys, monkeypatch):
    """main builds its parser once per process.  Calls with different
    subcommands and a bad flag, one after another, give the exit codes and
    output of a parser built afresh for every call."""
    inst = write_instance(tmp_path / "inst.json", maximally_mixed_klocal_instance(3, 2))
    state = str(tmp_path / "state.json")
    dump_document(state_to_doc(np.eye(8, dtype=complex) / 8, (2, 2, 2)), state)
    calls = [["bounds", inst], ["check", inst, state], ["bounds", inst, "--wat"],
             ["example", "ring-graph", "--n", "4"], ["solve", inst, "--no-reduce"],
             ["check", inst], ["bounds", inst]]

    def run():
        out = []
        for argv in calls:
            code = main(argv)
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    cached = run()
    assert cli._parser() is cli._parser()
    assert [code for code, _, _ in cached] == [0, 0, 2, 0, 0, 2, 0]
    monkeypatch.setattr(cli, "_parser", build_parser)
    assert run() == cached


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "qmarginal" in capsys.readouterr().out


def test_parser_defaults_are_the_engine_defaults():
    """Every tolerance and budget default of the parser is the engine's
    constant, except channel reduce's tighter tolerance, which is the
    channels module's."""
    parse = build_parser().parse_args
    tol, rank_tol = _engine.DEFAULT_TOL, _engine.DEFAULT_RANK_TOL
    max_iters = _engine.DEFAULT_MAX_ITERS
    solve = parse(["solve", "i.json"])
    assert (solve.tol, solve.rank_tol, solve.max_iters) == (tol, rank_tol, max_iters)
    reduce = parse(["channel", "reduce", "i.json"])
    assert (reduce.tol, reduce.rank_tol, reduce.max_iters) == (
        channels.DEFAULT_CHANNEL_TOL, rank_tol, max_iters)
    assert reduce_kraus_rank.__kwdefaults__["tol"] == channels.DEFAULT_CHANNEL_TOL
    assert parse(["check", "i.json", "s.json"]).tol == tol
    assert parse(["bounds", "i.json"]).rank_tol == rank_tol
    assert parse(["example", "boson-sigma"]).rank_tol == rank_tol


def test_solve_output_passes_check_at_a_tight_tol(tmp_path, capsys):
    """--tol holds for the whole run: all pairs of 5 qubits with a rank-1
    witness, solved and reduced at --tol 1e-11, gives a state that check
    accepts at the same tol, because the walk's repairs keep it too."""
    inst, _ = random_feasible_instance((2,) * 5, list(combinations(range(5), 2)),
                                       1, seed=0)
    inst_path = write_instance(tmp_path / "inst.json", inst)
    out_path = str(tmp_path / "sol.json")
    assert main(["solve", inst_path, "--tol", "1e-11", "-o", out_path]) == 0
    capsys.readouterr()
    assert main(["check", inst_path, out_path, "--tol", "1e-11"]) == 0
    assert "consistent within tol 1.0e-11" in capsys.readouterr().out


def test_channel_reduce_tol_drives_search_and_repair(tmp_path, capsys, monkeypatch):
    """channel reduce --tol reaches both stages: the search runs at that
    tol and the reduction repairs to it.  At 1e-6 the Choi state meets the
    tol, and its Kraus set is checked at dim_in tol, which that tol on the
    trace-preservation row implies (it used to be checked at the fixed
    TP_TOL, and a Kraus defect of 1.9e-8 here failed the run)."""
    inst_path = tmp_path / "chinst.json"
    dump_document(channel_instance_to_doc(two_qubit_channel_instance()),
                  str(inst_path))
    seen = {}
    find, reduce = channels.find_feasible, channels.reduce_rank

    def find_spy(instance, **kwargs):
        seen["find"] = kwargs["tol"]
        return find(instance, **kwargs)

    def reduce_spy(rho, instance, **kwargs):
        seen["repair"] = kwargs["repair_tol"]
        return reduce(rho, instance, **kwargs)

    monkeypatch.setattr(channels, "find_feasible", find_spy)
    monkeypatch.setattr(channels, "reduce_rank", reduce_spy)
    out_path = tmp_path / "red.json"
    assert main(["channel", "reduce", str(inst_path), "--tol", "1e-6",
                 "-o", str(out_path)]) == 0
    assert seen == {"find": 1e-6, "repair": 1e-6}
    assert capsys.readouterr().err == ""
    assert out_path.exists()


def test_channel_reduce_at_a_loose_tol_passes_an_independent_check(tmp_path, capsys):
    """At --tol 1e-6 the emitted document, read as plain arrays, holds a
    Choi state whose local sub-channels and input marginal meet their
    targets within 1e-6 (partial traces of the state) and a Kraus set whose
    trace-preservation defect ||sum K^dag K - I|| is within dim_in tol =
    4e-6."""
    instance = two_qubit_channel_instance()
    inst_path = tmp_path / "chinst.json"
    dump_document(channel_instance_to_doc(instance), str(inst_path))
    out_path = tmp_path / "red.json"
    assert main(["channel", "reduce", str(inst_path), "--tol", "1e-6",
                 "-o", str(out_path)]) == 0
    capsys.readouterr()
    doc = json.loads(out_path.read_text(encoding="utf-8"))

    def matrix(obj):
        return np.array(obj["re"]) + 1j * np.array(obj["im"])

    choi = matrix(doc["channel"]["choi"])
    dims = (2, 2, 2, 2)  # in0, in1, out0, out1
    residuals = [np.linalg.norm(partial_trace(choi, dims, (0, 1)) - np.eye(4) / 4)]
    residuals += [np.linalg.norm(partial_trace(choi, dims, (i, 2 + i)) - local.channel.choi)
                  for i, local in enumerate(instance.locals)]
    assert max(residuals) <= 1e-6
    kraus = [matrix(k) for k in doc["kraus"]]
    assert len(kraus) == doc["kraus_count"]
    assert np.linalg.norm(sum(k.conj().T @ k for k in kraus) - np.eye(4)) <= 4e-6


@pytest.mark.parametrize("argv", [["example", "ring-graph", "--p", "2"],
                                  ["example", "ring-graph", "--state-out", "w.json"],
                                  ["example", "mm-klocal", "--seed", "3"]])
def test_example_rejects_flags_it_does_not_read(argv, capsys):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["check", "i.json", "s.json"], ["solve", "i.json"],
                                  ["channel", "reduce", "i.json"]])
@pytest.mark.parametrize("tol", ["0", "-1e-8", "nan"])
def test_non_positive_tol_exits_two(argv, tol, capsys):
    """The parser refuses the tolerance before any file is read."""
    assert main(argv + [f"--tol={tol}"]) == 2
    assert f"expected a positive number, got '{tol}'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["solve", "i.json"], ["channel", "reduce", "i.json"],
                                  ["bounds", "i.json"], ["example", "boson-sigma"]])
@pytest.mark.parametrize("rank_tol", ["nan", "inf", "1", "-1e-9"])
def test_rank_tol_outside_zero_to_one_exits_two(argv, rank_tol, capsys):
    """From rank_tol 1 on every state has rank 0, so the parser refuses it,
    a negative or non-finite one too, before any file is read."""
    assert main(argv + [f"--rank-tol={rank_tol}"]) == 2
    assert f"expected a number in [0, 1), got '{rank_tol}'" in capsys.readouterr().err
