"""JSON document encoding: matrices, instances, states, channels, solutions."""
import json

import numpy as np
import pytest

from qmarginal.channels import (ChannelInstance, ChannelRepr, LocalChannel,
                                choi_from_kraus, sub_channel)
from qmarginal.documents import (DocumentError, channel_from_doc,
                                 channel_instance_from_doc,
                                 channel_instance_to_doc, channel_to_doc,
                                 dump_document, instance_from_doc,
                                 instance_to_doc, load_document,
                                 loads_document, matrix_from_doc,
                                 matrix_to_doc, solution_to_doc, state_from_doc,
                                 state_to_doc)
from qmarginal.marginal import (ConsistencyInstance, MarginalConstraint,
                                check_consistency)
from qmarginal.sector import SectorInstance


def random_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def small_instance():
    return ConsistencyInstance(
        (2, 2), (MarginalConstraint((0,), np.eye(2) / 2),
                 MarginalConstraint((1,), np.diag([0.25, 0.75])),))


def test_matrix_roundtrip_bit_exact():
    rng = np.random.default_rng(0)
    m = random_complex(rng, 5)
    back = matrix_from_doc(matrix_to_doc(m))
    assert np.array_equal(back, m)


def test_matrix_doc_validation():
    with pytest.raises(DocumentError):
        matrix_from_doc({"re": [[1.0]]})
    with pytest.raises(DocumentError):
        matrix_from_doc({"re": [[1.0, 0.0]], "im": [[0.0, 0.0]]})
    with pytest.raises(DocumentError):
        matrix_from_doc({"re": [[1.0]], "im": [[0.0, 0.0]]})
    with pytest.raises(DocumentError):
        matrix_from_doc({"re": [["x"]], "im": [[0.0]]})


def test_instance_roundtrip():
    inst = small_instance()
    doc = instance_to_doc(inst)
    assert doc["kind"] == "qudit"
    back = instance_from_doc(doc)
    assert back.dims == inst.dims
    assert len(back.constraints) == 2
    for a, b in zip(back.constraints, inst.constraints):
        assert a.subsystems == b.subsystems
        assert np.array_equal(a.target, b.target)


def test_instance_doc_text_roundtrip_stable():
    """Serializing twice produces identical bytes."""
    inst = small_instance()
    t1 = dump_document(instance_to_doc(inst), None)
    t2 = dump_document(instance_to_doc(instance_from_doc(loads_document(t1))), None)
    assert t1 == t2


def test_sector_instance_roundtrip():
    inst = SectorInstance("bosonic", 4, 2, 2, np.eye(3, dtype=complex) / 3)
    doc = instance_to_doc(inst)
    assert doc["kind"] == "bosonic"
    assert (doc["N"], doc["d"], doc["k"]) == (4, 2, 2)
    back = instance_from_doc(doc)
    assert isinstance(back, SectorInstance)
    assert back.statistics == "bosonic"
    assert np.array_equal(back.target, inst.target)


def test_instance_doc_validation():
    with pytest.raises(DocumentError):
        instance_from_doc({"dims": [2, 2]})
    with pytest.raises(DocumentError):
        instance_from_doc({"kind": "braided", "dims": [2], "constraints": []})
    with pytest.raises(DocumentError):
        instance_from_doc({"dims": [2, True], "constraints": []})
    with pytest.raises(DocumentError):
        instance_from_doc({"kind": "bosonic", "N": 2, "d": 2, "k": 1,
                           "constraints": []})
    # inconsistent payload surfaces the library error with context
    bad = {"dims": [2, 2],
           "constraints": [{"subsystems": [0],
                            "matrix": matrix_to_doc(np.eye(4) / 4)}]}
    with pytest.raises(DocumentError):
        instance_from_doc(bad)


def test_sector_instance_doc_rejects_booleans():
    """JSON true loads as a Python bool, an int subclass; N, d and k refuse
    it as dims does, so no document turns true into a 1-particle sector."""
    good = instance_to_doc(SectorInstance("fermionic", 1, 2, 1, np.eye(2) / 2))
    assert isinstance(instance_from_doc(good), SectorInstance)
    for key in ("N", "d", "k"):
        with pytest.raises(DocumentError, match=f"field '{key}' has type bool"):
            instance_from_doc({**good, key: True})


def test_state_doc_roundtrip():
    rng = np.random.default_rng(1)
    rho = random_complex(rng, 4)
    doc = state_to_doc(rho, (2, 2), rank=4)
    assert doc["rank"] == 4
    assert np.array_equal(state_from_doc(doc), rho)


def test_loads_document_reports_position():
    with pytest.raises(DocumentError, match="line 1 column"):
        loads_document('{"dims": [2,')
    with pytest.raises(DocumentError, match="top-level"):
        loads_document("[1, 2]")


def test_load_document_missing_file(tmp_path):
    with pytest.raises(DocumentError, match="cannot read"):
        load_document(str(tmp_path / "nope.json"))


def test_dump_document_writes_file(tmp_path):
    path = tmp_path / "doc.json"
    text = dump_document({"a": 1}, str(path))
    assert path.read_text(encoding="utf-8") == text
    assert text.endswith("\n")


def test_dump_document_writes_one_line_with_sorted_keys():
    text = dump_document({"b": [1.5, -0.0], "a": {"z": 1, "y": "x"}}, None)
    assert text == '{"a":{"y":"x","z":1},"b":[1.5,-0.0]}\n'


def test_dump_document_refuses_a_non_finite_float(tmp_path):
    """JSON has no NaN or infinity, so no document holds one."""
    path = tmp_path / "doc.json"
    for x in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            dump_document({"tol": x}, str(path))
    assert not path.exists()


def test_matrix_roundtrip_through_text_bit_exact():
    """A complex matrix keeps every bit through dump_document and
    loads_document, subnormals, signed zeros and exponents of either sign
    included."""
    rng = np.random.default_rng(11)
    m = random_complex(rng, 7) * 10.0 ** rng.integers(-300, 300, (7, 7))
    m[0, 0] = 5e-324 - 5e-324j
    m[0, 1], m[1, 0], m[1, 1] = complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0)
    back = matrix_from_doc(loads_document(dump_document(matrix_to_doc(m), None)))
    assert back.tobytes() == m.tobytes()


def test_documents_in_the_indented_layout_still_load():
    """Readers accept any layout: a document written with indent=2, as
    earlier versions wrote them, loads to the same instance and state."""
    inst = small_instance()
    rng = np.random.default_rng(2)
    rho = random_complex(rng, 4)
    for doc in (instance_to_doc(inst), state_to_doc(rho, (2, 2), rank=4)):
        indented = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert indented.count("\n") > 1
        assert loads_document(indented) == loads_document(dump_document(doc, None))
    back = instance_from_doc(loads_document(json.dumps(instance_to_doc(inst), indent=2)))
    assert back.dims == inst.dims
    for a, b in zip(back.constraints, inst.constraints):
        assert a.subsystems == b.subsystems
        assert np.array_equal(a.target, b.target)
    state = state_from_doc(loads_document(json.dumps(state_to_doc(rho, (2, 2)), indent=2)))
    assert state.tobytes() == rho.tobytes()


def test_solution_doc_fields():
    inst = small_instance()
    rho = np.kron(np.eye(2) / 2, np.diag([0.25, 0.75])).astype(complex)
    report = check_consistency(inst, rho)
    bounds = {"theorem1": 2, "barvinok": 3, "achieved": 4}
    doc = solution_to_doc(rho, report, bounds, {"tol": 1e-8})
    assert doc["rank"] == 4
    assert doc["bounds"]["achieved"] == doc["rank"]
    assert doc["trace"] == []
    assert len(doc["eigenvalues"]) == 4
    assert len(doc["residuals"]) == 2
    assert doc["options"]["tol"] == 1e-8


def test_solution_doc_records_steps():
    from qmarginal.gallery import random_feasible_instance
    from qmarginal.reduction import reduce_rank
    inst, witness = random_feasible_instance(
        (2, 2, 2), [(0, 1), (1, 2)], 8, seed=3)
    state, trace = reduce_rank(witness, inst)
    report = check_consistency(inst, state)
    doc = solution_to_doc(state, report, {"theorem1": 5, "barvinok": 7,
                                          "achieved": trace.final_rank},
                          {}, trace)
    assert len(doc["trace"]) == len(trace.steps)
    for entry, step in zip(doc["trace"], trace.steps):
        assert entry["rank_before"] == step.rank_before
        assert entry["rank_after"] == step.rank_after
        assert entry["lambda"] == step.step_length
    assert doc["null_space_exhausted"] == trace.null_space_exhausted


def test_channel_doc_roundtrip():
    ch = choi_from_kraus([np.eye(2, dtype=complex)], (2,), (2,))
    doc = channel_to_doc(ch)
    back = channel_from_doc(doc)
    assert back.in_dims == (2,)
    assert back.out_dims == (2,)
    assert np.array_equal(back.choi, ch.choi)
    with pytest.raises(DocumentError):
        channel_from_doc({"in_dims": [2], "out_dims": [2],
                          "choi": matrix_to_doc(np.eye(3))})


def test_channel_instance_doc_roundtrip():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    q, _ = np.linalg.qr(g)
    ks = [q[j * 4:(j + 1) * 4, :] for j in range(2)]
    full = choi_from_kraus(ks, (2, 2), (2, 2))
    inst = ChannelInstance(
        (2, 2), (2, 2),
        (LocalChannel((0,), (0,), sub_channel(full, (0,), (0,))),
         LocalChannel((1,), (1,), sub_channel(full, (1,), (1,)))))
    back = channel_instance_from_doc(channel_instance_to_doc(inst))
    assert back.in_dims == (2, 2)
    assert len(back.locals) == 2
    for a, b in zip(back.locals, inst.locals):
        assert a.in_subsystems == b.in_subsystems
        assert np.array_equal(a.channel.choi, b.channel.choi)
