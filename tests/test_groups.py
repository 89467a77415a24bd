"""Constraint groups: a system stacks its constraints of one index shape, and
every map, row, nonzero and target-spectrum build runs once per group.  The
groups must give exactly what the same formulas give one constraint at a
time, which this file keeps as the reference, on systems whose constraints
fall into several groups."""
import math
from itertools import combinations

import numpy as np

from qmarginal import _engine
from qmarginal.channels import (ChannelInstance, LocalChannel,
                                channel_instance_to_marginal, choi_from_kraus,
                                sub_channel)
from qmarginal.gallery import random_feasible_instance
from qmarginal.hilbert import (partial_trace, partial_trace_index,
                               sector_isometry, sector_marginal_index,
                               sector_partial_trace, sector_size, support_basis)
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


def reference_rows(c, v, vc):
    u = v[c.index]
    if c.weight is not None:
        u = u * c.weight[:, :, None]
    r, rc = v.shape[1], vc.shape[1]
    w = (vc.conj().T @ u.reshape(u.shape[0], -1)).reshape(rc, -1, r)
    wh = w.conj().transpose(0, 2, 1)
    _, a, b = _engine._coord_index(rc)
    g = wh[a] @ w[b]
    gh = g.conj().swapaxes(-1, -2)
    return np.concatenate([_engine._herm_coords(wh @ w),
                           _engine._herm_coords((g + gh) / math.sqrt(2)),
                           _engine._herm_coords(1j * (g - gh) / math.sqrt(2))])


def reference_nonzeros(system):
    d = system.dim
    parts = [(np.zeros(d, dtype=np.intp), 2 * (d + 1) * np.arange(d), np.ones(d))]
    start = 1
    for c in system.constraints:
        p = c.index
        w = np.ones(p.shape) if c.weight is None else c.weight
        rc, n_rest = p.shape
        _, a, b = _engine._coord_index(rc)
        pa, pb = p[a], p[b]
        re = 2 * (np.minimum(pa, pb) * d + np.maximum(pa, pb)).ravel()
        s2 = math.sqrt(2)
        pair = s2 * ((w[a] * w[b]).ravel().astype(complex) / s2).real * s2
        row = np.repeat(np.arange(rc + 2 * a.size), n_rest)
        col = np.concatenate([2 * (d + 1) * p.ravel(), re, re + 1])
        val = np.concatenate([(w * w).ravel(), pair,
                              np.where((pa < pb).ravel(), pair, -pair)])
        nz = val != 0
        parts.append((row[nz] + start, col[nz], val[nz]))
        start += rc ** 2
    return tuple(np.concatenate(a) for a in zip(*parts))


def reference_affine_rows(system, v, bases):
    return np.vstack([_engine._herm_coords(np.eye(v.shape[1]))] + [
        reference_rows(c, v, vc) for c, vc in zip(system.constraints, bases)])


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
    return channel_instance_to_marginal(ChannelInstance((2, 2), (2, 2), locs),
                                        include_tp=True).system


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
    compressed rows split by the width of the target supports."""
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


def test_compressed_rows_split_by_support_width():
    """One group, three support widths: three stacks of bases, whose
    constraints cover the group once."""
    bases = mixed_rank_system().target_bases()
    assert sorted((vc.shape[-1], g.positions.tolist()) for g, vc in bases) == [
        (1, [0, 4]), (2, [1, 3, 5]), (4, [2])]


def test_groups_give_the_per_constraint_results_bit_for_bit():
    """Residuals, compressed and full rows, the factor's nonzeros, the
    square-sum bound and the target supports, at two rank tolerances, equal
    the per-constraint formulas exactly."""
    rng = np.random.default_rng(97)
    for name, system, _ in mixed_systems():
        d = system.dim
        targets = [c.target for c in system.constraints]
        x = random_matrix(rng, d)
        x = x + x.conj().T
        want = tuple(float(np.linalg.norm(reference_apply(c, x) - c.target))
                     for c in system.constraints)
        assert _engine.residual_report(system, x).residuals == want, name
        for key, ref in zip(("row", "col", "val"), reference_nonzeros(system)):
            assert np.array_equal(getattr(system.affine, key), ref), (name, key)
        for rank_tol in (1e-9, 0.05):
            bound = math.isqrt(sum(numerical_rank(t, rank_tol) ** 2 for t in targets))
            assert system.square_sum_bound(rank_tol) == bound, name
            supports = [support_basis(t, rank_tol)[0] for t in targets]
            bases = system.target_bases(rank_tol)
            got = system.in_order(bases)
            assert all(np.array_equal(a, b) for a, b in zip(got, supports)), name
            for r in (1, 2, d // 2 + 1, d):
                v = np.linalg.qr(random_matrix(rng, d)[:, :r])[0]
                assert np.array_equal(_engine._affine_rows(system, v, bases),
                                      reference_affine_rows(system, v, supports)), (name, r)
        full = [np.eye(t.shape[0]) for t in targets]
        v = np.linalg.qr(random_matrix(rng, d)[:, :d - 1])[0]
        assert np.array_equal(_engine._affine_rows(system, v),
                              reference_affine_rows(system, v, full)), name


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
