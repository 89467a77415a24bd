"""Rank reduction: descent directions, boundary steps, and the greedy loop."""
import numpy as np
import pytest

from qmarginal import _engine
from qmarginal._engine import ReductionError
from qmarginal.gallery import random_feasible_instance
from qmarginal.hilbert import partial_trace
from qmarginal.marginal import (ConsistencyInstance, MarginalConstraint,
                                check_consistency, find_feasible,
                                theorem1_bound)
from qmarginal.numerics import numerical_rank
from qmarginal.reduction import descent_direction, reduce_rank, step_length


def all_pairs(n):
    from itertools import combinations
    return list(combinations(range(n), 2))


def pair_instance(n, rank, seed):
    inst, witness = random_feasible_instance((2,) * n, all_pairs(n), rank, seed)
    return inst, witness


def random_traceless_direction(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2
    h -= np.trace(h).real / d * np.eye(d)
    return h / np.linalg.norm(h)


def test_step_length_balanced_qubit():
    """diag(1/2, 1/2) along diag(1, -1)/sqrt(2) hits the boundary at 1/sqrt(2)."""
    rho = np.diag([0.5, 0.5]).astype(complex)
    h = np.diag([1.0, -1.0]).astype(complex) / np.sqrt(2)
    lam, sign = step_length(rho, h)
    assert sign == 1
    assert abs(lam - 1 / np.sqrt(2)) <= 1e-12
    stepped = rho - sign * lam * h
    assert np.allclose(stepped, np.diag([0.0, 1.0]), atol=1e-12)


def test_step_length_tilted_qubit():
    rho = np.diag([0.75, 0.25]).astype(complex)
    h = np.diag([1.0, -1.0]).astype(complex) / np.sqrt(2)
    lam, sign = step_length(rho, h)
    assert sign == 1
    assert abs(lam - 3 * np.sqrt(2) / 4) <= 1e-12
    assert np.allclose(rho - sign * lam * h, np.diag([0.0, 1.0]), atol=1e-12)


def test_step_length_multiplicity_picks_sign():
    """The side with more extremal directions is eliminated, dropping rank by 2."""
    rho = np.eye(3, dtype=complex) / 3
    h = np.diag([2.0, -1.0, -1.0]).astype(complex) / np.sqrt(6)
    lam, sign = step_length(rho, h)
    assert sign == -1
    assert abs(lam - np.sqrt(6) / 3) <= 1e-12
    stepped = rho - sign * lam * h
    assert np.allclose(stepped, np.diag([1.0, 0.0, 0.0]), atol=1e-12)
    assert numerical_rank(stepped) == 1


def test_step_length_boundary_oracle():
    """The returned step is PSD-feasible while any longer step is not."""
    rng = np.random.default_rng(17)
    for trial in range(12):
        d = int(rng.integers(2, 7))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        h = random_traceless_direction(rng, d)
        lam, sign = step_length(rho, h)
        assert lam > 0
        assert sign in (-1, 1)
        stepped = rho - sign * lam * h
        w = np.linalg.eigvalsh(stepped)
        assert w.min() >= -1e-10
        assert numerical_rank(stepped, rank_tol=1e-8) < d
        overshoot = rho - sign * (1.05 * lam) * h
        assert np.linalg.eigvalsh(overshoot).min() < -1e-12


def test_step_length_rejects_bad_directions():
    rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        step_length(rho, np.zeros((3, 3), dtype=complex))
    traced = np.diag([1.0, 1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        step_length(rho, traced)  # nonzero trace
    leak = np.zeros((3, 3), dtype=complex)
    leak[2, 2] = 1.0
    leak[0, 0] = -1.0
    with pytest.raises(ValueError):
        step_length(rho, leak)  # supported outside supp(rho)


def test_step_length_rejects_an_empty_support():
    h = np.diag([1.0, -1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="^state has empty support$"):
        step_length(np.zeros((3, 3), dtype=complex), h)


def test_descent_direction_posts():
    """Each direction is unit, Hermitian, traceless, support-confined, and
    kills every marginal to 1e-9."""
    for seed in range(5):
        inst, witness = pair_instance(3, 8, seed)
        h = descent_direction(witness, inst, seed=seed)
        assert h is not None
        assert abs(np.linalg.norm(h) - 1.0) <= 1e-10
        assert np.linalg.norm(h - h.conj().T) <= 1e-10
        assert abs(np.trace(h)) <= 1e-9
        for c in inst.constraints:
            assert np.linalg.norm(
                partial_trace(h, inst.dims, c.subsystems)) <= 1e-9


def test_descent_direction_none_for_pure_state():
    inst, _ = pair_instance(2, 1, 0)
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    h = descent_direction(np.outer(v, v.conj()), inst, seed=0)
    assert h is None


def test_descent_direction_none_when_fully_pinned():
    """On 2 qubits the single pair constraint covers the whole system, so a
    direction would need a vanishing full marginal, which forces H = 0."""
    inst, witness = pair_instance(2, 2, 3)
    h = descent_direction(witness, inst, seed=1)
    assert h is None


def test_reduce_rank_reaches_bound():
    for seed, n in ((0, 3), (1, 4)):
        inst, witness = pair_instance(n, 2 ** n, seed)
        found = find_feasible(inst)
        assert found.converged
        state, trace = reduce_rank(found.state, inst, seed=seed)
        bound = theorem1_bound(inst)
        assert trace.bound == bound
        assert numerical_rank(state) <= bound
        assert trace.final_rank == numerical_rank(state)
        report = check_consistency(inst, state)
        assert report.max_residual <= 1e-7
        assert report.psd_violation <= 1e-9


def test_reduce_rank_trace_is_strictly_monotone():
    inst, witness = pair_instance(4, 16, 5)
    state, trace = reduce_rank(witness, inst, seed=2)
    assert len(trace.steps) >= 1
    for step in trace.steps:
        assert step.rank_after < step.rank_before
        assert step.step_length > 0
        assert step.sign in (-1, 1)
        assert step.residual_after <= 1e-7
    ranks = [s.rank_before for s in trace.steps] + [trace.steps[-1].rank_after]
    assert all(b < a for a, b in zip(ranks, ranks[1:]))
    assert trace.final_rank == ranks[-1]


def test_reduce_rank_purification_witness():
    """A single one-qubit target always admits a rank-1 purification, so the
    reducer must land at or below the rank bound 2 and may find rank 1."""
    q = np.diag([0.3, 0.7]).astype(complex)
    inst = ConsistencyInstance((2, 2), (MarginalConstraint((1,), q),))
    found = find_feasible(inst)
    assert found.converged
    state, trace = reduce_rank(found.state, inst)
    assert numerical_rank(state) <= 2
    report = check_consistency(inst, state)
    assert report.max_residual <= 1e-9
    # independent existence witness for rank 1: the purification
    v = np.zeros(4, dtype=complex)
    v[0 * 2 + 0] = np.sqrt(0.3)
    v[1 * 2 + 1] = np.sqrt(0.7)
    pure = np.outer(v, v.conj())
    assert np.linalg.norm(
        partial_trace(pure, (2, 2), (1,)) - q) <= 1e-12


def test_reduce_rank_keeps_feasibility_throughout():
    """Residuals recorded before each repair stay within the drift budget."""
    inst, witness = pair_instance(3, 8, 9)
    state, trace = reduce_rank(witness, inst, seed=4)
    for step in trace.steps:
        assert step.residual_before_repair <= 1e-5
        assert step.residual_after <= 1e-7


def test_reduce_rank_step_residuals_are_the_checked_ones():
    """The residual a step records after its repair is the residual the
    independent check reports for the returned state, to the last bit.  The
    tight repair_tol, a few rounding units, makes every step run a repair
    round, so the residual before the repair differs from the one after it."""
    for n, rank, seed in ((3, 8, 0), (4, 16, 1)):
        inst, witness = pair_instance(n, rank, seed)
        state, trace = reduce_rank(witness, inst, seed=seed, repair_tol=2e-15)
        last = trace.steps[-1]
        assert last.residual_before_repair != last.residual_after
        assert last.residual_after == check_consistency(inst, state).max_residual


def test_reduce_rank_rejects_infeasible_start():
    inst, _ = pair_instance(3, 8, 11)
    with pytest.raises(ValueError):
        reduce_rank(np.eye(8, dtype=complex) / 8, inst)


def test_reduce_rank_rejects_a_wrong_sized_state():
    inst, _ = pair_instance(3, 8, 11)
    with pytest.raises(ValueError, match="does not match dimension 8"):
        reduce_rank(np.eye(4, dtype=complex) / 4, inst)


def test_reduce_rank_aborts_a_step_that_keeps_the_rank(monkeypatch):
    """A step of half the boundary length stays inside the cone, so the
    rank does not drop; the walk aborts with the trace of the start."""
    inst, witness = pair_instance(3, 8, 13)
    step = _engine.step_length_core

    def half(*args, **kwargs):
        lam, sign = step(*args, **kwargs)
        return lam / 2, sign

    monkeypatch.setattr(_engine, "step_length_core", half)
    with pytest.raises(ReductionError, match=r"^step did not reduce rank \(8 -> 8\)$"
                       ) as info:
        reduce_rank(witness, inst)
    trace = info.value.trace
    assert trace.steps == [] and trace.final_rank == 8
    assert trace.bound == theorem1_bound(inst) and not trace.null_space_exhausted


def test_reduce_rank_rejects_a_state_with_nothing_above_rank_tol():
    """At rank_tol = 1 no eigenvalue of a mixed state counts: the entry's
    truncation leaves no support, and the walk aborts before any step with
    a trace of rank 0."""
    inst, witness = pair_instance(3, 8, 13)
    with pytest.raises(ReductionError,
                       match="^state vanished after eigenvalue truncation$") as info:
        reduce_rank(witness, inst, rank_tol=1.0)
    assert info.value.trace.steps == [] and info.value.trace.final_rank == 0


def test_reduce_rank_max_steps_zero():
    inst, witness = pair_instance(3, 8, 13)
    state, trace = reduce_rank(witness, inst, max_steps=0)
    assert trace.steps == []
    assert numerical_rank(state) == 8
    assert check_consistency(inst, state).max_residual <= 1e-8


def test_reduce_rank_rank_one_witness_is_terminal():
    inst, witness = pair_instance(3, 1, 15)
    state, trace = reduce_rank(witness, inst)
    assert numerical_rank(state) == 1
    assert trace.null_space_exhausted
    assert trace.steps == []
