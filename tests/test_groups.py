"""Constraint groups: a system stacks its constraints of one index shape, and
every map, row, nonzero and target-spectrum build runs once per group.  The
groups must give exactly what the same formulas give one constraint at a
time, which this file keeps as the reference, on systems whose constraints
fall into several groups, in the engine's group order; the factor's
products, gathered rather than formed from the rows, agree to rounding."""
import math
from itertools import combinations

import numpy as np
import pytest

from qmarginal import _engine
from qmarginal.channels import (ChannelInstance, LocalChannel,
                                channel_instance_to_marginal, choi_from_kraus,
                                sub_channel)
from qmarginal.gallery import random_feasible_instance
from qmarginal.hilbert import (partial_trace, partial_trace_index,
                               sector_isometry, sector_marginal_index,
                               sector_partial_trace, sector_size)
from qmarginal.marginal import ConsistencyInstance, MarginalConstraint
from qmarginal.numerics import hermitian_part, numerical_rank, rank_counts, support_mask


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_state(rng, d, r):
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def subsets(n):
    return [keep for k in range(1, n + 1) for keep in combinations(range(n), k)]


def test_group_gather_is_the_running_sum_of_the_partial_trace():
    """Every subsystem set of a ladder of dimensions, mixed and
    non-contiguous ones included, as the constraints of one system: each
    group's one gather equals hilbert.partial_trace bit for bit on a random
    complex matrix, because both sum the traced factors in order."""
    rng = np.random.default_rng(71)
    cases = 0
    for dims in ((2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2),
                 (2, 2, 3), (3, 3, 2), (2, 2, 2, 2), (2, 3, 2, 2),
                 (3, 2, 2, 3), (2,) * 5, (2, 2, 3, 2, 2)):
        keeps = subsets(len(dims))
        d = math.prod(dims)
        system = _engine.ConstraintSystem(d, tuple(
            _engine.Constraint(np.zeros((i.shape[0],) * 2), i)
            for i in (partial_trace_index(dims, keep) for keep in keeps)))
        x = random_matrix(rng, d)
        for g in system.groups:
            got = _engine._apply_maps(x, g.index, g.weight)
            for p, m in zip(g.positions, got):
                assert np.array_equal(m, partial_trace(x, dims, keeps[p])), (dims, keeps[p])
                cases += 1
    assert cases == 151


def test_sector_gather_is_the_running_sum_over_occupations():
    """Fermionic and bosonic marginals with k = 1 and 2: the gather equals a
    plain running sum of w[i,e] w[j,e] x[index[i,e], index[j,e]] over e bit
    for bit, and sector_partial_trace, which rounds through the d^N
    isometry, to 1e-12."""
    rng = np.random.default_rng(73)
    for statistics, n, d, k in (("fermionic", 3, 6, 1), ("fermionic", 3, 6, 2),
                                ("fermionic", 4, 5, 2), ("bosonic", 4, 3, 1),
                                ("bosonic", 4, 3, 2), ("bosonic", 3, 4, 2)):
        index, weight = sector_marginal_index(statistics, n, d, k)
        x = random_matrix(rng, sector_size(statistics, n, d))
        got = _engine._apply_maps(x, index[None], weight[None])[0]
        want = np.empty_like(got)
        for i, j in np.ndindex(got.shape):
            terms = (complex(x[index[i, e], index[j, e]]) * float(weight[i, e] * weight[j, e])
                     for e in range(index.shape[1]))
            total = next(terms)
            for t in terms:
                total = total + t
            want[i, j] = total
        assert np.array_equal(got, want), (statistics, n, d, k)
        dense = sector_partial_trace(x, sector_isometry(statistics, n, d), k)
        assert np.abs(got - dense).max() <= 1e-12


# ---------------------------------------------------------------------------
# The per-constraint formulas, one constraint at a time: the reference.
# ---------------------------------------------------------------------------

def reference_apply(c, x):
    ix = c.index.T
    y = x[ix[:, :, None], ix[:, None, :]]
    if c.weight is not None:
        w = c.weight.T
        y = y * (w[:, :, None] * w[:, None, :])
    return np.add.accumulate(y)[-1]


def reference_rows(c, v):
    w = v[c.index]
    if c.weight is not None:
        w = w * c.weight[:, :, None]
    rc = w.shape[0]
    wh = w.conj().transpose(0, 2, 1)
    _, a, b = _engine._coord_index(rc)
    g = wh[a] @ w[b]
    gh = g.conj().swapaxes(-1, -2)
    return np.concatenate([_engine._herm_coords(wh @ w),
                           _engine._herm_coords((g + gh) / math.sqrt(2)),
                           _engine._herm_coords(1j * (g - gh) / math.sqrt(2))])


def reference_affine_rows(system, v):
    """The trace row, then the rows of every constraint in the engine's row
    order, each group's constraints in turn."""
    return np.vstack([_engine._herm_coords(np.eye(v.shape[1]))] + [
        reference_rows(system.constraints[p], v) for g in system.groups for p in g.positions])


# ---------------------------------------------------------------------------
# Mixed systems
# ---------------------------------------------------------------------------

def contradictory_system():
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    return ConsistencyInstance((2, 2), (MarginalConstraint((0,), ket0),
                                        MarginalConstraint((0, 1), np.eye(4) / 4))
                               ).system


def channel_system():
    """Three sub-channels of a random two-qubit channel and the TP row: the
    4 x 4 locals and the TP row share a shape, the 8 x 8 one does not."""
    rng = np.random.default_rng(79)
    kraus = [random_matrix(rng, 4) for _ in range(2)]
    w, u = np.linalg.eigh(sum(k.conj().T @ k for k in kraus))
    inv_sqrt = (u / np.sqrt(w)) @ u.conj().T
    joint = choi_from_kraus([k @ inv_sqrt for k in kraus], (2, 2), (2, 2))
    locs = tuple(LocalChannel(ins, outs, sub_channel(joint, ins, outs))
                 for ins, outs in (((0,), (0,)), ((1,), (0, 1)), ((0,), (1,))))
    return channel_instance_to_marginal(ChannelInstance((2, 2), (2, 2), locs)).system


def weighted_sector_system():
    """The fermionic (3,6,2) marginal map with two targets, around an
    unweighted map of the same index shape: two groups whose positions
    interleave."""
    rng = np.random.default_rng(83)
    index, weight = sector_marginal_index("fermionic", 3, 6, 2)
    sigma = random_state(rng, 20, 3)
    marginal = _engine.Constraint(np.eye(15), index, weight).apply(sigma)
    return _engine.ConstraintSystem(20, (
        _engine.Constraint(marginal, index, weight, "sector"),
        _engine.Constraint(random_state(rng, 15, 4), index, None, "plain"),
        _engine.Constraint(random_state(rng, 15, 15), index, weight, "sector again")))


def mixed_rank_system():
    """All pairs of 4 qubits with targets of rank 1, 2 and 4: one group whose
    targets have three support widths."""
    rng = np.random.default_rng(89)
    pairs = list(combinations(range(4), 2))
    return ConsistencyInstance((2,) * 4, tuple(
        MarginalConstraint(keep, random_state(rng, 4, r))
        for keep, r in zip(pairs, (1, 2, 4, 2, 1, 2)))).system


def mixed_systems():
    return [("contradictory", contradictory_system(), [1, 1]),
            ("channel with tp row", channel_system(), [3, 1]),
            ("weighted sector", weighted_sector_system(), [2, 1]),
            ("mixed ranks", mixed_rank_system(), [6])]


def test_groups_stack_the_constraints_of_one_shape():
    for name, system, sizes in mixed_systems():
        assert [len(g.positions) for g in system.groups] == sizes, name
        assert sorted(p for g in system.groups for p in g.positions) == list(
            range(len(system.constraints)))
        for g in system.groups:
            for p, index, target in zip(g.positions, g.index, g.target):
                c = system.constraints[p]
                assert np.array_equal(index, c.index) and np.array_equal(target, c.target)
                assert (g.weight is None) == (c.weight is None)


def test_groups_give_the_per_constraint_results_bit_for_bit():
    """Residuals, the rows on span(V) at four widths and the square-sum
    bound at two rank tolerances equal the per-constraint formulas exactly;
    the factor applies as the per-constraint rows on the full space do, row
    i within 1e-14 ||A_i|| ||x||."""
    rng = np.random.default_rng(97)
    for name, system, _ in mixed_systems():
        d = system.dim
        targets = [c.target for c in system.constraints]
        x = random_matrix(rng, d)
        x = x + x.conj().T
        want = tuple(float(np.linalg.norm(reference_apply(c, x) - c.target))
                     for c in system.constraints)
        assert _engine.residual_report(system, x).residuals == want, name
        rows = reference_affine_rows(system, np.eye(d, dtype=complex))
        err = np.abs(system.affine.apply(x) - rows @ _engine._herm_coords(x))
        assert (err <= 1e-14 * np.linalg.norm(rows, axis=1) * np.linalg.norm(x)).all(), name
        for rank_tol in (1e-9, 0.05):
            bound = math.isqrt(sum(numerical_rank(t, rank_tol) ** 2 for t in targets))
            assert system.square_sum_bound(rank_tol) == bound, name
        for r in (1, 2, d // 2 + 1, d - 1, d):
            v = np.linalg.qr(random_matrix(rng, d)[:, :r])[0]
            assert np.array_equal(_engine._affine_rows(system, v),
                                  reference_affine_rows(system, v)), (name, r)


def test_solver_on_interleaved_groups_returns_results_in_constraint_order():
    """Two systems whose groups interleave, solved end to end: the channel
    converges to a state that residual_report passes, and the weighted
    sector system ends on a certificate whose duals, back in constraint
    order, pass a check made one constraint at a time."""
    found = _engine.solve_feasible(channel_system())
    assert found.converged
    assert _engine.residual_report(channel_system(), found.state).is_consistent(1e-8)

    system = weighted_sector_system()
    found = _engine.solve_feasible(system)
    cert = found.certificate
    assert not found.converged and cert is not None
    cons = system.constraints
    assert [y.shape for y in cert.duals] == [c.target.shape for c in cons]
    z = cert.trace_dual * np.eye(system.dim) + sum(
        _engine._adjoint_maps(y, c.index, c.weight, system.dim) for y, c in zip(cert.duals, cons))
    gap = cert.trace_dual + sum(np.vdot(y, c.target).real for y, c in zip(cert.duals, cons))
    norm = math.sqrt(cert.trace_dual ** 2 + sum(np.linalg.norm(y) ** 2 for y in cert.duals))
    assert np.linalg.eigvalsh(z)[0] >= 0 and gap < 0
    assert math.isclose(cert.lower, -gap / norm, rel_tol=1e-12)
    residuals = [np.linalg.norm(reference_apply(c, found.state) - c.target) for c in cons]
    assert found.report.residuals == pytest.approx(residuals, rel=1e-12)
    assert cert.upper == pytest.approx(np.linalg.norm(residuals), rel=1e-12)


def test_one_constraint_is_a_group_of_one():
    """A sector system is one group of one constraint; Constraint.apply is
    the group's gather with C = 1."""
    inst, rho = random_feasible_instance((2, 2, 2), [(0, 1)], 3, seed=5)
    system = inst.system
    (g,) = system.groups
    assert g.index.shape == (1, 4, 2) and g.positions.tolist() == [0]
    c = system.constraints[0]
    assert np.array_equal(c.apply(rho), _engine._apply_maps(rho, g.index, g.weight)[0])
    assert np.array_equal(c.apply(rho), reference_apply(c, rho))


def test_stacked_helpers_match_one_matrix_at_a_time():
    """The batched Frobenius norm equals np.linalg.norm of each matrix bit
    for bit, contiguous or not, and the stacked hermitian_part, rank rule
    and support rule equal their one-matrix results."""
    rng = np.random.default_rng(5)
    for c, d in ((1, 1), (3, 2), (10, 4), (2, 9), (4, 16)):
        m = rng.standard_normal((c, d, d)) + 1j * rng.standard_normal((c, d, d))
        for stack in (m, m[:, ::-1], m * 1e-9):
            want = np.array([np.linalg.norm(a) for a in stack])
            assert np.array_equal(_engine._frobenius(stack), want), (c, d)
        h = hermitian_part(m)
        assert all(np.array_equal(a, hermitian_part(b)) for a, b in zip(h, m))
        w = np.linalg.eigvalsh(h) * np.where(rng.random((c, d)) < 0.5, 1e-12, 1.0)
        for rank_tol in (0.0, 1e-9, 0.3):
            assert rank_counts(w, rank_tol).tolist() == [
                int(rank_counts(s, rank_tol)) for s in w]
            assert all(np.array_equal(a, support_mask(s, rank_tol))
                       for a, s in zip(support_mask(w, rank_tol), w))
