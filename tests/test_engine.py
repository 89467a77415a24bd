"""The engine's linear algebra on the constraint map: batched constraint rows,
the null space of the descent and its walk, the exact affine projection of
the repair, and the factored feasibility solver on the same sparse rows."""
import math
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from qmarginal import _engine
from qmarginal.channels import (ChannelInstance, LocalChannel,
                                channel_instance_to_marginal, choi_from_kraus,
                                sub_channel)
from qmarginal.gallery import (maximally_mixed_klocal_instance,
                               random_feasible_instance, ring_graph_state)
from qmarginal.hilbert import (embed_with_identity, partial_trace,
                               partial_trace_index, sector_isometry,
                               sector_partial_trace, sector_size,
                               support_basis)
from qmarginal.marginal import (ConsistencyInstance, MarginalConstraint,
                                check_consistency, find_feasible,
                                theorem1_bound)
from qmarginal.numerics import numerical_rank, support_mask
from qmarginal.reduction import reduce_rank
from qmarginal.sector import SectorInstance


def herm_basis(r):
    """The Hermitian basis behind the engine's real coordinates, in order:
    e_ii, then (e_ij + e_ji)/sqrt(2) and (i e_ij - i e_ji)/sqrt(2) over the
    strict upper triangle in row-major order."""
    out = []
    for i in range(r):
        e = np.zeros((r, r), dtype=complex)
        e[i, i] = 1.0
        out.append(e)
    pairs = list(zip(*np.triu_indices(r, 1)))
    for coef in (1.0, 1j):
        for i, j in pairs:
            e = np.zeros((r, r), dtype=complex)
            e[i, j] = coef / np.sqrt(2)
            e[j, i] = np.conj(coef) / np.sqrt(2)
            out.append(e)
    return out


def reference_maps(instance):
    """(M, M*) of every constraint, from hilbert alone and not from the
    engine: the partial trace and embed_with_identity for a qudit instance;
    sector_partial_trace and W_N^dag ((W_k F W_k^dag) (x) I) W_N for a
    sector instance."""
    if isinstance(instance, SectorInstance):
        n, d, k = instance.particles, instance.levels, instance.marginal_particles
        emb = sector_isometry(instance.statistics, n, d)
        wn, wk = emb.isometry, sector_isometry(instance.statistics, k, d).isometry
        return [(lambda x: sector_partial_trace(x, emb, k),
                 lambda f: wn.conj().T @ embed_with_identity(
                     wk @ f @ wk.conj().T, (d,) * n, range(k)) @ wn)]
    return [(lambda x, s=c.subsystems: partial_trace(x, instance.dims, s),
             lambda f, s=c.subsystems: embed_with_identity(f, instance.dims, s))
            for c in instance.constraints]


def reference_rows(adjoint, v, dc):
    """One adjoint call per basis element F of the d_c x d_c Hermitian
    matrices: the row is the coordinate vector of V^dag M*(F) V."""
    state_basis = herm_basis(v.shape[1])
    rows = []
    for f in herm_basis(dc):
        z = v.conj().T @ adjoint(f) @ v
        rows.append([np.vdot(e, z).real for e in state_basis])
    return np.array(rows)


def assert_rows_match(instance, rho):
    """Every group's batched rows against one adjoint call per target basis
    element of each of its constraints."""
    system = instance.system
    v, _ = support_basis(rho)
    assert 1 < v.shape[1] < system.dim
    adjoints = [adjoint for _, adjoint in reference_maps(instance)]
    for g in system.groups:
        got = _engine.constraint_rows(g, v)
        dc = g.target.shape[-1]
        assert got.shape == (len(g.positions), dc ** 2, v.shape[1] ** 2)
        for p, rows in zip(g.positions, got):
            assert np.abs(rows - reference_rows(adjoints[p], v, dc)).max() <= 1e-12


def low_rank_state(rng, d, r):
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def sector_pair(rng, statistics, n, d, k, rank):
    """A sector instance whose target is the k-particle marginal of a
    random rank-`rank` sector state, and that state."""
    dk = sector_size(statistics, k, d)
    probe = SectorInstance(statistics, n, d, k, np.eye(dk) / dk)
    sigma = low_rank_state(rng, probe.sector_dim, rank)
    target = probe.system.constraints[0].apply(sigma)
    return SectorInstance(statistics, n, d, k, target), sigma


def test_rows_match_reference_qudit():
    """Mixed local dimensions, non-adjacent kept factors, and targets of
    less than full rank."""
    inst, rho = random_feasible_instance((2, 3, 2), [(0, 1), (1, 2), (0, 2)], 2,
                                         seed=7)
    assert any(np.linalg.matrix_rank(c.target) < c.target.shape[0]
               for c in inst.constraints)
    assert_rows_match(inst, rho)


def test_rows_match_reference_sectors():
    rng = np.random.default_rng(11)
    for statistics, n, d, k, rank in (("fermionic", 3, 5, 2, 4),
                                      ("fermionic", 3, 4, 1, 3),
                                      ("bosonic", 4, 2, 2, 2),
                                      ("bosonic", 3, 3, 2, 5),
                                      ("bosonic", 3, 2, 3, 2)):
        inst, sigma = sector_pair(rng, statistics, n, d, k, rank)
        assert_rows_match(inst, sigma)


def channel_pair():
    """A two-qubit channel instance with its trace-preservation row, and the
    Choi state of the joint channel it was cut from."""
    rng = np.random.default_rng(5)
    kraus = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
             for _ in range(2)]
    w, u = np.linalg.eigh(sum(k.conj().T @ k for k in kraus))
    inv_sqrt = (u / np.sqrt(w)) @ u.conj().T
    joint = choi_from_kraus([k @ inv_sqrt for k in kraus], (2, 2), (2, 2))
    locs = tuple(LocalChannel(ins, outs, sub_channel(joint, ins, outs))
                 for ins, outs in (((0,), (0,)), ((1,), (0, 1))))
    inst = channel_instance_to_marginal(ChannelInstance((2, 2), (2, 2), locs))
    assert inst.constraints[-1].subsystems == (0, 1)
    return inst, joint.choi


def test_rows_match_reference_channel_with_tp_row():
    inst, choi = channel_pair()
    assert_rows_match(inst, choi)


def test_null_space_matches_svd_with_duplicate_rows():
    """The same constraint listed twice makes exactly dependent rows, with
    fewer columns than rows: the null basis from the coordinate-side Gram
    matrix equals the SVD's null space."""
    inst, rho = random_feasible_instance((2, 2, 2), [(0, 1), (1, 2)], 6, seed=3)
    v, _ = support_basis(rho)
    (group,) = inst.system.groups
    first, second = _engine.constraint_rows(group, v)
    a = np.vstack([first, second, first])
    assert a.shape[0] > a.shape[1]
    n = _engine._null_space(a)
    _, s, vt = np.linalg.svd(a)
    vn = vt[s <= 1e-6 * s[0]].T
    assert 0 < n.shape[1] == vn.shape[1]
    assert np.abs(n.T @ n - np.eye(n.shape[1])).max() <= 1e-12
    assert np.abs(n @ n.T - vn @ vn.T).max() <= 1e-12


def test_restricted_null_space_equals_a_fresh_build():
    """The null basis on span(V0) restricted to span(V0 W), W an isometry
    dropping one or two columns, spans the null space built afresh on
    span(V0 W): on all pairs of 4 qubits, fermionic (3,6,2) and a channel
    instance with its TP row.  V0 is wider than a walk's first support
    (r0^2 above the row count), so the restricted spaces are not empty."""
    rng = np.random.default_rng(53)
    inst, _ = random_feasible_instance((2,) * 4, list(combinations(range(4), 2)),
                                       16, seed=2)
    sector, _ = sector_pair(rng, "fermionic", 3, 6, 2, 20)
    channel, _ = channel_pair()
    for instance, r0 in ((inst, 12), (sector, 17), (channel, 12)):
        system = instance.system
        v0 = random_isometry(rng, system.dim, r0)
        n0 = _engine._null_space(_engine._affine_rows(system, v0))
        for drop in (1, 2):
            v = v0 @ random_isometry(rng, r0, r0 - drop)
            got = _engine._restricted_null_space(v0, n0, v)
            fresh = _engine._null_space(_engine._affine_rows(system, v))
            assert 0 < got.shape[1] == fresh.shape[1] < n0.shape[1]
            assert np.abs(got.T @ got - np.eye(got.shape[1])).max() <= 1e-10
            assert np.abs(got @ got.T - fresh @ fresh.T).max() <= 1e-10


def test_restricted_null_space_embeds_a_smaller_span():
    """For span(V0) inside span(V), the null basis on span(V0) embeds into
    V's coordinates with nothing lost: an orthonormal basis of as many
    directions, each the same D x D operator as before, with zero row
    image on span(V).  Above the bound, _null_basis takes the first
    isqrt(m) + 1 columns of V and its embedded basis is not empty."""
    rng = np.random.default_rng(59)
    inst, _ = random_feasible_instance((2,) * 4, list(combinations(range(4), 2)),
                                       16, seed=2)
    sector, _ = sector_pair(rng, "fermionic", 3, 6, 2, 20)
    channel, _ = channel_pair()
    for instance, r0, r in ((inst, 11, 14), (sector, 16, 19), (channel, 11, 14)):
        system = instance.system
        v = random_isometry(rng, system.dim, r)
        v0 = v @ random_isometry(rng, r, r0)
        n0 = _engine._null_space(_engine._affine_rows(system, v0))
        got = _engine._restricted_null_space(v0, n0, v)
        assert 0 < got.shape[1] == n0.shape[1]
        assert np.abs(got.T @ got - np.eye(got.shape[1])).max() <= 1e-10
        rows = _engine._affine_rows(system, v)
        assert np.abs(rows @ got).max() <= 1e-10 * np.abs(rows).max()
        for y0, y in zip(n0.T, got.T):
            h0 = _engine._coords_to_herm(y0, r0)
            h = _engine._coords_to_herm(y, r)
            assert np.abs(lift(v, h) - lift(v0, h0)).max() <= 1e-12
        m = system.rhs[0].size
        assert r * r > m
        w0, n = _engine._null_basis(system, v)
        assert w0.shape[1] == math.isqrt(m) + 1 and np.array_equal(w0, v[:, :w0.shape[1]])
        assert _engine._restricted_null_space(w0, n, v).shape[1] == n.shape[1] > 0


def lift(v, h):
    """The D x D operator V h V^dag of a direction h on span(v)."""
    return v @ h @ v.conj().T


def draw(v, system, rng):
    """A walk's draw on span(v): the null basis of _null_basis restricted to
    span(v), then descent_direction_core."""
    q = _engine._restricted_null_space(*_engine._null_basis(system, v), v)
    return _engine.descent_direction_core(v, q, system, rng)


def test_duplicated_constraint_still_gives_a_direction():
    inst, rho = random_feasible_instance((2, 2, 2), [(0, 1), (1, 2)], 6, seed=4)
    twice = ConsistencyInstance(inst.dims, inst.constraints + inst.constraints[:1])
    system = twice.system
    v = support_basis(rho)[0]
    h = draw(v, system, np.random.default_rng(0))
    assert h is not None and h.shape == (6, 6)
    assert abs(np.trace(lift(v, h))) <= 1e-9
    for c in system.constraints:
        assert np.linalg.norm(c.apply(lift(v, h))) <= 1e-9


def assert_none_without_draws(rho, system):
    """An empty null space is detected from the row rank alone, as an empty
    basis, before any random seed is drawn."""
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    v = support_basis(rho)[0]
    assert _engine._restricted_null_space(*_engine._null_basis(system, v), v).shape[1] == 0
    assert draw(v, system, rng) is None
    assert rng.bit_generator.state == before


def test_empty_null_space_pure_state():
    rng = np.random.default_rng(2)
    inst, sigma = sector_pair(rng, "fermionic", 3, 5, 2, 1)
    assert_none_without_draws(sigma, inst.system)


def test_empty_null_space_fully_pinned():
    """A constraint on every factor pins the whole state: on qubits, and as
    a sector marginal with k == N."""
    inst, rho = random_feasible_instance((2, 2), [(0, 1)], 3, seed=1)
    assert_none_without_draws(rho, inst.system)
    inst, sigma = sector_pair(np.random.default_rng(3), "bosonic", 3, 3, 3, 4)
    assert_none_without_draws(sigma, inst.system)


def test_trace_half_of_the_posts_check_rejects_a_non_orthonormal_support():
    """The trace half of the posts check, driven alone.  With no
    constraints the constraint half holds vacuously, and q spans the
    traceless directions on span(v).  The candidate h is traceless, so on
    an orthonormal V, H = V h V^dag is traceless too and the draw returns
    h.  With V's columns scaled by (1, 2, 3, 4), Tr H = sum_i i^2 h_ii is
    of order 1, so the same draw (same seed) comes back None."""
    r, system = 4, _engine.ConstraintSystem(6, ())
    q = _engine._null_space(_engine._herm_coords(np.eye(r))[None, :])
    assert q.shape == (r * r, r * r - 1)
    v = np.eye(system.dim, r, dtype=complex)
    h = _engine.descent_direction_core(v, q, system, np.random.default_rng(62))
    assert h is not None and abs(np.trace(lift(v, h))) <= 1e-12
    scaled = v * np.arange(1, r + 1)
    assert abs(np.trace(lift(scaled, h))) > 1e-3
    assert _engine.descent_direction_core(scaled, q, system, np.random.default_rng(62)) is None


def test_stale_walk_basis_is_caught_by_the_posts_check(monkeypatch):
    """A walk basis whose span does not hold the support gives candidates
    that move the constraints.  The posts check rejects the one candidate,
    so the descent returns None, and a walk drawing from such a basis ends
    at once with a nonempty basis: null_space_exhausted is False.  A walk
    basis built on the support itself gives a unit traceless direction that
    moves no constraint."""
    inst, _ = random_feasible_instance((2,) * 5, list(combinations(range(5), 2)),
                                       32, seed=0)
    system = inst.system
    found = find_feasible(inst)
    v, _ = support_basis(found.state)
    assert v.shape[1] ** 2 <= system.rhs[0].size
    rng = np.random.default_rng(61)
    other = random_isometry(rng, system.dim, v.shape[1])
    stale = other, _engine._null_space(_engine._affine_rows(system, other))
    q = _engine._restricted_null_space(*stale, v)
    assert q.shape[1] > 0
    assert _engine.descent_direction_core(v, q, system, rng) is None
    monkeypatch.setattr(_engine, "_null_basis", lambda *args: stale)
    _, trace = _engine.reduce_core(found.state, system)
    assert trace.steps == [] and not trace.null_space_exhausted
    monkeypatch.undo()
    h = draw(v, system, rng)
    assert h is not None and h.shape == (v.shape[1],) * 2
    assert abs(np.linalg.norm(h) - 1.0) <= 1e-12
    assert abs(np.trace(lift(v, h))) <= 1e-9
    for c in system.constraints:
        assert np.linalg.norm(c.apply(lift(v, h))) <= 1e-9


def coords(m):
    """Coordinates of a Hermitian matrix in the herm_basis order."""
    return np.array([np.vdot(e, m).real for e in herm_basis(m.shape[0])])


def reference_correction(instance, x, v):
    """y - x of the least-squares projection with corrections on span(v),
    from a dense pinv of the trace row and the per-basis adjoint rows of
    reference_maps."""
    r = v.shape[1]
    maps = reference_maps(instance)
    a = np.vstack([coords(np.eye(r))] + [
        reference_rows(adjoint, v, t.shape[0])
        for t, (_, adjoint) in zip(instance.targets, maps)])
    res = np.concatenate([[1.0 - np.trace(x).real]] + [
        coords(t - forward(x)) for t, (forward, _) in zip(instance.targets, maps)])
    delta = np.linalg.pinv(a, rcond=1e-10) @ res
    return v @ sum(d * e for d, e in zip(delta, herm_basis(r))) @ v.conj().T


def random_matrix(rng, d, k=None):
    shape = (d, d if k is None else k)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, d):
    g = random_matrix(rng, d)
    return (g + g.conj().T) / 2


def random_isometry(rng, d, r):
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    return np.linalg.qr(g)[0]


def projection_cases():
    inst, _ = random_feasible_instance((2, 3, 2), [(0, 1), (1, 2), (0, 2)], 2,
                                       seed=7)
    sector, _ = sector_pair(np.random.default_rng(13), "fermionic", 3, 5, 2, 4)
    channel, _ = channel_pair()
    return [inst, sector, channel]


def test_projection_lands_on_the_slice_with_the_least_norm_correction():
    """On a qudit, a sector and a channel instance with its TP row: every
    constraint and the trace hold exactly, and the correction is the
    minimum-norm one of the dense reference."""
    rng = np.random.default_rng(17)
    for instance in projection_cases():
        system = instance.system
        x = random_hermitian(rng, system.dim)
        eye = np.eye(system.dim, dtype=complex)
        y = _engine.project_affine(system, eye, x)
        for c in system.constraints:
            assert np.abs(c.apply(y) - c.target).max() <= 1e-12
        assert abs(np.trace(y) - 1.0) <= 1e-12
        assert np.abs((y - x) - reference_correction(instance, x, eye)).max() <= 1e-10


def test_projection_confined_to_a_support():
    """With a support V and a state x = V m V^dag, the projection of m lifts
    to x plus the reference correction with the rows restricted to V."""
    rng = np.random.default_rng(19)
    for instance in projection_cases() + [contradictory_instance()]:
        system = instance.system
        v = random_isometry(rng, system.dim, system.dim - 3)
        m = random_hermitian(rng, system.dim - 3)
        x = lift(v, m)
        y = lift(v, _engine.project_affine(system, v, m))
        p = v @ v.conj().T
        assert np.abs(p @ (y - x) @ p - (y - x)).max() <= 1e-12
        assert np.abs((y - x) - reference_correction(instance, x, v)).max() <= 1e-10


def test_projection_on_a_contradictory_instance_is_least_squares():
    """A pure single-qubit marginal against a maximally mixed pair: no state
    meets both, and the projection is the reference least-squares point."""
    inst = contradictory_instance()
    system = inst.system
    x = random_hermitian(np.random.default_rng(23), 4)
    y = _engine.project_affine(system, np.eye(4), x)
    assert max(np.linalg.norm(c.apply(y) - c.target) for c in system.constraints) > 0.1
    assert np.abs((y - x) - reference_correction(inst, x, np.eye(4))).max() <= 1e-10


def group_order(system):
    """The constraints' positions in the engine's row order: each group's
    constraints in turn."""
    return np.concatenate([g.positions for g in system.groups]).tolist()


def test_row_residuals_match_the_maps():
    """The norms of the blocks of A coords(x) - b, split at the factor's
    offsets, are the trace defect and the Frobenius residual of every
    constraint map, matched by position in group order, and the
    feasibility solver's residual is the largest.  The channel's TP row
    shares its shape with the first local but not the second, so its
    groups interleave."""
    rng = np.random.default_rng(29)
    for instance in projection_cases():
        system = instance.system
        x = random_hermitian(rng, system.dim)
        f = system.affine
        dev = f.apply(x) - f.target
        got = np.sqrt(np.add.reduceat(dev * dev, f.offsets))
        cons = [system.constraints[p] for p in group_order(system)]
        want = [abs(np.trace(x) - 1.0)] + [np.linalg.norm(c.apply(x) - c.target) for c in cons]
        assert got.shape == (len(want),)
        assert np.abs(got - want).max() <= 1e-12
        assert f.max_block_norm(dev) == got.max()


def contradictory_instance():
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    return ConsistencyInstance((2, 2), (MarginalConstraint((0,), ket0),
                                        MarginalConstraint((0, 1), np.eye(4) / 4)))


def contradictory_system():
    return contradictory_instance().system


def test_full_space_rows_keep_only_their_nonzeros():
    """Six qubits with every pair pinned: each of a pair's d_c^2 rows has
    d_rest nonzeros, so A keeps D (1 + sum d_c) of its 241 x 4096 entries."""
    inst, _ = random_feasible_instance((2,) * 6, list(combinations(range(6), 2)),
                                       1, seed=0)
    f = inst.system.affine
    assert f.row.size == f.col.size == f.val.size == 64 * (1 + 15 * 4) == 3904


def weighted_system():
    """Partial-trace index maps on dims (2, 3, 2) with random real weights,
    about a fifth of them exactly 0, so the factor's gathered values meet
    products other than the unit, fermionic and bosonic ones."""
    rng = np.random.default_rng(67)
    constraints = []
    for keep in ((0, 2), (1,), (0, 1)):
        index = partial_trace_index((2, 3, 2), keep)
        weight = rng.standard_normal(index.shape) * rng.choice([1e-3, 1.0, 30.0],
                                                             index.shape)
        weight[rng.random(index.shape) < 0.2] = 0.0
        constraints.append(_engine.Constraint(
            random_hermitian(rng, index.shape[0]), index, weight))
    return _engine.ConstraintSystem(12, tuple(constraints))


def factor_cases():
    """All pairs on 3-6 qubits, mixed dimensions with a constraint that keeps
    every factor, the contradictory instance, a channel with its
    trace-preservation row, three sectors, and index maps with arbitrary
    weights."""
    for n in range(3, 7):
        inst, _ = random_feasible_instance((2,) * n, list(combinations(range(n), 2)),
                                           2, seed=n)
        yield f"all pairs n={n}", inst.system
    inst, _ = random_feasible_instance((2, 3, 2), [(0, 1), (1, 2), (0, 2), (0, 1, 2)],
                                       3, seed=7)
    yield "dims (2,3,2) with keep-everything", inst.system
    yield "contradictory", contradictory_system()
    yield "channel with tp row", channel_pair()[0].system
    for statistics, n, d in (("fermionic", 3, 6), ("bosonic", 5, 3), ("fermionic", 4, 8)):
        dk = sector_size(statistics, 2, d)
        yield (f"{statistics} ({n},{d},2)",
               SectorInstance(statistics, n, d, 2, np.eye(dk) / dk).system)
    yield "random weights with zeros", weighted_system()


def test_factor_applies_the_dense_rows():
    """The factor is gathered from the maps, never from the dense rows
    _affine_rows(system, I), yet it keeps exactly their nonzeros and applies
    as they do, to one Hermitian matrix and to a stack of two: row i within
    1e-14 ||A_i|| ||x||, which is 1e-14 ||x|| for a unit row and scales
    with the weights (up to 2 x 10^3 here); its target is the right-hand
    side b in the same row order."""
    rng = np.random.default_rng(31)
    for name, system in factor_cases():
        d, f = system.dim, system.affine
        rows = _engine._affine_rows(system, np.eye(d, dtype=complex))
        assert f.row.size == f.col.size == f.val.size == np.count_nonzero(rows), name
        assert np.array_equal(f.target, system.rhs[0]), name
        x = np.stack([random_hermitian(rng, d) for _ in range(2)])
        want = _engine._herm_coords(x) @ rows.T
        scale = 1e-14 * np.linalg.norm(rows, axis=1)
        for got, xs, ys in ((f.apply(x[0]), x[0], want[0]), (f.apply(x), x, want)):
            assert (np.abs(got - ys) <= scale * np.linalg.norm(xs)).all(), name


def build_peak(system):
    """Peak traced memory, in bytes, of building system's factor."""
    tracemalloc.start()
    try:
        system.affine
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_factor_build_forms_no_dense_rows():
    """All pairs on 8 qubits: the dense rows are 449 x 65536 float64
    (235 MB), the factor's nonzeros under 1 MB.  Fermionic (4,8,2): the
    dense rows are 31 MB, and the unsliced pair products 180 MB.
    Fermionic (4,12,2): the dense rows are 4357 x 245025 float64 (8.5 GB),
    the factor's 134,145 nonzeros about 3 MB."""
    inst, _ = random_feasible_instance((2,) * 8, list(combinations(range(8), 2)),
                                       2, seed=1)
    assert build_peak(inst.system) <= 20e6
    sector = SectorInstance("fermionic", 4, 8, 2, np.eye(28) / 28).system
    assert build_peak(sector) <= 40e6
    sector = SectorInstance("fermionic", 4, 12, 2, np.eye(66) / 66).system
    assert build_peak(sector) <= 100e6


def map_calls(monkeypatch, run):
    """Calls of the engine's constraint maps, the one gather that every
    group and Constraint.apply go through, during run()."""
    counts = {"apply": 0}
    apply = _engine._apply_maps

    def spy(*args, **kwargs):
        counts["apply"] += 1
        return apply(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(_engine, "_apply_maps", spy)
        run()
    return counts


def test_feasibility_iterations_call_no_constraint_map(monkeypatch):
    """A rank-1 four-qubit witness with every pair pinned does not converge
    in 40 iterations; doubling the budget must not add a single map call."""
    inst, _ = random_feasible_instance((2,) * 4, list(combinations(range(4), 2)),
                                       1, seed=0)

    def run(max_iters):
        fresh = _engine.ConstraintSystem(inst.system.dim, inst.system.constraints)
        found = _engine.solve_feasible(fresh, max_iters=max_iters)
        assert not found.converged and found.iterations == max_iters

    short = map_calls(monkeypatch, lambda: run(20))
    assert short == map_calls(monkeypatch, lambda: run(40))


def test_confined_projection_calls_no_constraint_map(monkeypatch):
    """The support-confined projection of the repair takes its residual and
    its correction from the rows, built once, not from the maps."""
    rng = np.random.default_rng(37)
    for instance in projection_cases():
        system = instance.system
        v = random_isometry(rng, system.dim, system.dim - 2)
        m = random_hermitian(rng, system.dim - 2)
        calls = map_calls(monkeypatch,
                          lambda: _engine.project_affine(system, v, m))
        assert calls == {"apply": 0}


def test_solver_rejects_a_bad_tolerance_or_budget():
    system = contradictory_system()
    with pytest.raises(ValueError, match="^tol must be positive$"):
        _engine.solve_feasible(system, tol=0.0)
    with pytest.raises(ValueError, match="^max_iters must be >= 1$"):
        _engine.solve_feasible(system, max_iters=0)


def test_ascent_direction_falls_back_to_the_gradient(monkeypatch):
    """An L-BFGS direction that climbs is replaced by the steepest descent,
    with the memory cleared, and the run still converges."""
    inst, _ = random_feasible_instance((2, 2, 2), [(0, 1), (1, 2)], 3, seed=2)
    lbfgs = _engine._lbfgs_direction
    calls = []

    def climb_once(q, *args):
        calls.append(len(args[-1]))
        if len(calls) == 3:
            return q.copy()
        return lbfgs(q, *args)

    monkeypatch.setattr(_engine, "_lbfgs_direction", climb_once)
    found = _engine.solve_feasible(inst.system)
    assert found.converged and len(calls) > 4
    # the memory held two pairs, then restarts from the fallback step's pair
    assert calls[2] == 2 and calls[3] == 1


def assert_history(found):
    history = found.residual_history
    assert len(history) == found.iterations
    assert all(type(h) is float for h in history)
    assert all(b <= a for a, b in zip(history, history[1:]))


def test_residual_history_of_a_converged_run():
    inst, _ = random_feasible_instance((2, 2, 2), [(0, 1), (1, 2)], 3, seed=2)
    found = _engine.solve_feasible(inst.system)
    assert found.converged
    assert_history(found)
    assert found.residual_history[-1] <= _engine.DEFAULT_TOL


def no_screen(monkeypatch):
    """Switch the certificate screen off, so that an infeasible instance
    drives the pad, stationary and memory paths as it did before the screen
    ended such runs."""
    monkeypatch.setattr(_engine, "_screen", lambda *args: None)


def no_face(monkeypatch):
    """Switch the face off, as if every target had full rank, so that a
    rank-deficient instance drives the solver in the full space as it did
    before the face restricted such runs."""
    monkeypatch.setattr(_engine.ConstraintSystem, "face", lambda self, rank_tol=0: None)


def test_residual_history_of_a_plateau(monkeypatch):
    """The contradictory two-qubit instance has its square-sum bound at
    D = 4, so without the screen and the face the search stops at a
    stationary point of the full-rank least squares; its history ends at
    the best residual the report recomputes."""
    no_screen(monkeypatch)
    no_face(monkeypatch)
    found = _engine.solve_feasible(contradictory_system())
    assert not found.converged and "plateau" in found.message
    assert "stationary point of the rank-4 least squares" in found.message
    assert found.factor_rank == 4
    assert_history(found)
    assert found.residual_history[-1] == pytest.approx(found.report.max_residual,
                                                       rel=1e-9)


def monogamy_instance():
    """Two Bell pairs sharing a qubit: infeasible, with square-sum bound 1."""
    bell = np.zeros((4, 4), dtype=complex)
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    return ConsistencyInstance((2, 2, 2), (MarginalConstraint((0, 1), bell),
                                           MarginalConstraint((1, 2), bell)))


def monogamy_system():
    return monogamy_instance().system


def clashing_pairs_instance():
    """All pairs of three qubits, each pinned to the marginal of a different
    random witness: infeasible, with square-sum bound 6 < D = 8."""
    pairs = list(combinations(range(3), 2))
    return ConsistencyInstance((2,) * 3, tuple(
        random_feasible_instance((2,) * 3, pairs, rank, seed=seed)[0].constraints[i]
        for i, (rank, seed) in enumerate(((4, 269), (3, 307), (3, 40)))))


def clashing_pairs_system():
    return clashing_pairs_instance().system


def test_plateau_below_full_width_pads_to_d(monkeypatch):
    """With the screen switched off, the clashing pairs (bound 6 < D = 8)
    reach a stationary point at width 6 after 61 iterations.  That is no
    verdict: the factor is padded to D there, once, and the run goes on
    until the rank-8 stationary point."""
    no_screen(monkeypatch)
    lbfgs = _engine._lbfgs_direction
    widths = []

    def spy(q, g, *args):
        widths.append(g.shape[1])
        return lbfgs(q, g, *args)

    monkeypatch.setattr(_engine, "_lbfgs_direction", spy)
    found = _engine.solve_feasible(clashing_pairs_system())
    pad = widths.index(8)
    assert pad == 61 and set(widths[:pad]) == {6} and set(widths[pad:]) == {8}
    assert len(widths) == found.iterations > pad
    assert not found.converged and "possibly infeasible" in found.message
    assert "stationary point of the rank-8 least squares" in found.message
    assert_history(found)


def test_factor_rank_is_the_width_of_the_best_iterate(monkeypatch):
    """factor_rank is the width of the factor behind the returned state, the
    best iterate.  Without the screen, both runs end at the rank-8
    stationary point.  On the monogamy instance an iterate after the pad to
    D beats the best residual at k = 1, so the width is 8; on the clashing
    pairs none does, so it stays the bound, 6.  The face is switched off,
    since the monogamy targets force an empty one."""
    no_screen(monkeypatch)
    no_face(monkeypatch)
    padded = _engine.solve_feasible(monogamy_system())
    assert padded.factor_rank == 8
    assert "stationary point of the rank-8 least squares" in padded.message
    system = clashing_pairs_system()
    found = _engine.solve_feasible(system)
    assert "stationary point of the rank-8 least squares" in found.message
    assert found.factor_rank == 6
    assert system.square_sum_bound() == 6
    assert np.linalg.matrix_rank(found.state, tol=1e-12) <= 6
    assert found.residual_history[-1] == pytest.approx(found.report.max_residual,
                                                       rel=1e-9)


def test_a_bound_of_zero_still_gives_the_factor_a_column():
    """At rank_tol 0.3 every eigenvalue 1/4 of the 2-local maximally mixed
    targets on 3 qubits counts as zero, so every rank and the square-sum
    bound are 0 and the face is empty; its certificate fails, because the
    instance is feasible.  The run goes on in the full space from one
    column, not zero, and converges after the pad to D = 8."""
    inst = maximally_mixed_klocal_instance(3, 2)
    assert inst.system.square_sum_bound(0.3) == 0 and inst.system.face(0.3).dim == 0
    found = find_feasible(inst, rank_tol=0.3)
    assert found.converged and found.certificate is None
    assert found.factor_rank == 8 and found.report.max_residual <= 1e-8


def test_stationary_point_below_full_rank_is_never_reported(monkeypatch):
    """At k = 1 the monogamy instance has a stationary point far above tol;
    without the screen and the face, the factor is padded to D = 8 and the
    verdict comes from the full-rank least squares."""
    no_screen(monkeypatch)
    no_face(monkeypatch)
    system = monogamy_system()
    assert system.square_sum_bound() == 1
    found = _engine.solve_feasible(system)
    assert not found.converged and found.factor_rank == 8
    assert "stationary point of the rank-8 least squares" in found.message
    assert "possibly infeasible" in found.message
    assert found.report.max_residual > 0.1


def test_adjoint_maps_match_embed_with_identity():
    """On qudit groups, the scatter of one constraint's dual is
    embed_with_identity's adjoint of its partial trace, and the scatter of a
    group's stack is the sum over its constraints."""
    rng = np.random.default_rng(43)
    for dims, subsets in (((2, 3, 2), [(0, 1), (1, 2), (0, 2), (1,)]),
                          ((2,) * 4, list(combinations(range(4), 2)))):
        inst, _ = random_feasible_instance(dims, subsets, 2, seed=5)
        system = inst.system
        assert len(system.groups) < len(system.constraints)
        for g in system.groups:
            ys = np.stack([random_hermitian(rng, g.target.shape[-1]) for _ in g.positions])
            want = [embed_with_identity(y, dims, inst.constraints[p].subsystems)
                    for y, p in zip(ys, g.positions)]
            for c, (y, w) in enumerate(zip(ys, want)):
                got = _engine._adjoint_maps(y, g.index[c], None, system.dim)
                assert np.abs(got - w).max() <= 1e-12
            got = _engine._adjoint_maps(ys, g.index, g.weight, system.dim)
            assert np.abs(got - sum(want)).max() <= 1e-12


def test_adjoint_maps_are_the_adjoint_of_the_maps():
    """<Y, M(X)> = Tr(M*(Y)^dag X) for every group of a weighted sector
    system and of a channel with its TP row, for complex X and Y; and the
    2 S that the solver's gradient returns for a deviation y is twice
    y_0 I + sum_c M_c*(Y_c), Y_c its constraint blocks as matrices, read in
    group order and sent back by hilbert's adjoints, not the engine's."""
    rng = np.random.default_rng(47)
    sector, _ = sector_pair(rng, "fermionic", 3, 5, 2, 4)
    channel, _ = channel_pair()
    assert sector.system.groups[0].weight is not None
    assert len(channel.system.constraints) == 3
    for instance in (sector, channel):
        system, d = instance.system, instance.system.dim
        for g in system.groups:
            x = random_matrix(rng, d)
            y = rng.standard_normal(g.target.shape) + 1j * rng.standard_normal(g.target.shape)
            lhs = np.vdot(y, _engine._apply_maps(x, g.index, g.weight))
            rhs = np.vdot(_engine._adjoint_maps(y, g.index, g.weight, d), x)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
        f = system.affine
        dev = rng.standard_normal(f.target.size)
        blocks = dict(zip(group_order(system), np.split(dev, f.offsets[1:])[1:]))
        s = dev[0] * np.eye(d) + sum(
            adjoint(_engine._coords_to_herm(blocks[p], c.target.shape[0]))
            for p, (c, (_, adjoint)) in enumerate(zip(system.constraints,
                                                      reference_maps(instance))))
        two_s = f.gradient(dev, np.empty((d, 0)))[1]
        assert np.abs(two_s / 2 - s).max() <= 1e-12 * np.abs(s).max()


def assert_checked_certificate(inst, found):
    """found ends on a certificate that a check from hilbert's partial trace
    and its adjoint, not the engine's maps, confirms: y_0 I + sum_c
    embed(Y_c) is PSD, y_0 + sum_c <Y_c, T_c> < 0, and lower is minus that
    over the norm of (y_0, Y_c); upper is the norm of the residuals."""
    cert = found.certificate
    assert not found.converged and cert is not None
    z = cert.trace_dual * np.eye(inst.system.dim) + sum(
        embed_with_identity(y, inst.dims, c.subsystems)
        for y, c in zip(cert.duals, inst.constraints))
    assert np.linalg.eigvalsh(z)[0] >= 0
    gap = cert.trace_dual + sum(np.vdot(y, c.target).real
                                for y, c in zip(cert.duals, inst.constraints))
    norm = math.sqrt(cert.trace_dual ** 2 + sum(np.linalg.norm(y) ** 2 for y in cert.duals))
    assert gap < 0 and cert.lower == pytest.approx(-gap / norm, rel=1e-12)
    residuals = [np.linalg.norm(partial_trace(found.state, inst.dims, c.subsystems)
                                - c.target) for c in inst.constraints]
    assert cert.upper == pytest.approx(np.linalg.norm(residuals), rel=1e-9)
    return cert


def test_infeasible_systems_end_on_a_checked_certificate():
    """The contradictory, monogamy and clashing-pairs systems each end on a
    certificate within eight iterations, with 0 < lower <= upper, and the
    message carries the bracket."""
    for inst in (contradictory_instance(), monogamy_instance(), clashing_pairs_instance()):
        found = _engine.solve_feasible(inst.system)
        cert = assert_checked_certificate(inst, found)
        assert 0 < cert.lower <= cert.upper and found.iterations <= 8
        assert found.message == (
            f"certified infeasible after {found.iterations} iterations: the targets "
            f"lie at a distance in [{cert.lower:.3e}, {cert.upper:.3e}] from "
            f"consistent ones")
        assert_history(found)


def test_lower_end_never_exceeds_a_known_distance():
    """Targets T_c + eps E_c, E_c random traceless Hermitian drawn apart
    from the solver's start, lie at distance eps (sum_c ||E_c||^2)^(1/2)
    from the consistent T_c, so no lower end may exceed that.  Rank-1 and
    rank-2 witnesses, eps from 1e-1 to 1e-5: every rung is certified."""
    for rank, seed in ((1, 0), (2, 1)):
        inst, _ = random_feasible_instance((2,) * 3, list(combinations(range(3), 2)),
                                           rank, seed=seed)
        rng = np.random.default_rng(1234)
        noise = []
        for c in inst.system.constraints:
            e = random_hermitian(rng, len(c.target))
            noise.append(e - np.trace(e).real / len(e) * np.eye(len(e)))
        size = math.sqrt(sum(np.linalg.norm(e) ** 2 for e in noise))
        for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
            system = _engine.ConstraintSystem(inst.system.dim, tuple(
                _engine.Constraint(c.target + eps * e, c.index, c.weight, c.label)
                for c, e in zip(inst.system.constraints, noise)))
            cert = _engine.solve_feasible(system).certificate
            assert cert is not None and 0 < cert.lower <= cert.upper
            assert cert.lower <= eps * size


def test_no_certificate_for_consistent_targets(monkeypatch):
    """Weak duality: for targets b = A(X*) of a state X*, every dual y has
    <y', b> = Tr(A^T y' X*) >= 0.  On random qudit, sector and channel
    instances, random deviations with <y, b> < 0 are screened with the
    Cholesky filter forced to pass, so the check alone must reject them.
    Where the targets force a face, the screen on it must reject them too."""
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: a)
    rng = np.random.default_rng(53)
    cases = [random_feasible_instance((2,) * 3, list(combinations(range(3), 2)), r,
                                      seed=r) for r in (1, 2, 8)]
    cases += [sector_pair(rng, "bosonic", 4, 2, 2, 1), channel_pair()]
    screened = faced = 0
    for instance, witness in cases:
        system = instance.system
        f, face = system.affine, system.face()
        for noise in (0.0, 1e-3, 1e-1, 10.0):
            for scale in (1e-6, 1e-3, 1.0):
                # Y_c near -M_c(X*): X* then lies near the bottom of A^T y
                dev = scale * np.concatenate([[0.0]] + [_engine._herm_coords(
                    noise * random_hermitian(rng, len(c.target)) - c.apply(witness))
                    for c in system.constraints])
                dev[0] -= dev @ f.target + scale * rng.uniform(0, 1)
                two_s = f.gradient(dev, np.empty((system.dim, 0)))[1]
                screened += two_s.diagonal().real.min() / 2 > dev @ f.target
                assert _engine._screen(system, dev, two_s, 1e-300) is None
                if face is not None:
                    faced += 1
                    assert _engine._screen(system, dev, two_s, 1e-300, face) is None
    assert screened >= 30 and faced == 24


def test_screens_are_scheduled_and_filtered(monkeypatch):
    """A feasible five-qubit run with a 100-iteration budget screens at
    iterations 0, 1, 2, 4, ... while its best residual is above 10 tol: at
    most 7 screens, as these runs get below that before iteration 64.  The
    two free filters spare the Cholesky of most of them, of all of them on
    the full-rank witness, and no Cholesky succeeds."""
    screen, cholesky = _engine._screen, np.linalg.cholesky
    screens, factored = [], []

    def spy_screen(*args):
        screens.append(True)
        return screen(*args)

    def spy_cholesky(a):
        factored.append(True)
        cholesky(a)
        raise AssertionError("a feasible run passed the Cholesky filter")

    monkeypatch.setattr(_engine, "_screen", spy_screen)
    monkeypatch.setattr(np.linalg, "cholesky", spy_cholesky)
    for rank, seed in ((32, 0), (2, 0), (2, 1), (2, 2)):
        screens.clear()
        inst, _ = random_feasible_instance((2,) * 5, list(combinations(range(5), 2)),
                                           rank, seed=seed)
        found = _engine.solve_feasible(inst.system, max_iters=100)
        assert found.converged and found.certificate is None
        best = (math.inf,) + found.residual_history  # the best residual at each iteration
        due = [it for it in range(found.iterations + 1)
               if not it & (it - 1) and best[it] > 10 * _engine.DEFAULT_TOL]
        assert len(screens) == len(due) <= 7
        if rank == 32:
            assert not factored
    assert len(factored) <= 2


def test_the_screen_changes_no_iterate(monkeypatch):
    """The screen reads the solver's state and writes none of it: a run
    stopped by its budget (rank 1) and one that converges (rank 2, at 88
    iterations) keep their state, history and message bit for bit when the
    screen is switched off."""
    cases = [random_feasible_instance((2,) * 4, list(combinations(range(4), 2)),
                                      rank, seed=0)[0] for rank in (1, 2)]
    runs = [_engine.solve_feasible(inst.system, max_iters=100) for inst in cases]
    assert [found.converged for found in runs] == [False, True]
    no_screen(monkeypatch)
    for inst, found in zip(cases, runs):
        again = _engine.solve_feasible(inst.system, max_iters=100)
        assert np.array_equal(found.state, again.state)
        assert found.residual_history == again.residual_history
        assert (found.message, found.certificate) == (again.message, None)


def test_feasible_state_has_rank_at_most_the_bound():
    """A rank-1 witness on three qubits with every pair pinned: the factor
    has min(D', square-sum bound) as its width, D' = 2 the dimension of the
    face its rank-2 targets force, so the state's rank is at most that, and
    it is handed over well inside the repair's inner tolerance."""
    inst, _ = random_feasible_instance((2,) * 3, list(combinations(range(3), 2)),
                                       1, seed=0)
    system = inst.system
    found = _engine.solve_feasible(system)
    bound = min(system.face().dim, system.square_sum_bound())
    assert found.converged and found.factor_rank == bound == 2
    assert np.linalg.matrix_rank(found.state, tol=1e-12) <= bound
    assert found.report.max_residual <= _engine.DEFAULT_TOL / 10


def ring_windows_instance(n):
    """The ring graph state on n qubits pinned by its 3-local windows."""
    rho = ring_graph_state(n)
    windows = [tuple(sorted({i, (i + 1) % n, (i + 2) % n})) for i in range(n)]
    return ConsistencyInstance((2,) * n, tuple(
        MarginalConstraint(w, partial_trace(rho, (2,) * n, w)) for w in windows))


def identity_subchannels_instance():
    """Both qubits of a two-qubit channel pinned to the identity channel."""
    ident = choi_from_kraus([np.eye(2, dtype=complex)], (2,), (2,))
    return channel_instance_to_marginal(ChannelInstance((2, 2), (2, 2), (
        LocalChannel((0,), (0,), ident), LocalChannel((1,), (1,), ident))))


def clashing_channels_instance():
    """Two different random two-Kraus qubit channels pinned to the same
    input and output: infeasible, and their rank-2 Choi states' supports
    meet only in 0."""
    rng = np.random.default_rng(59)
    chans = []
    for _ in range(2):
        q, _ = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        chans.append(choi_from_kraus([q[:2], q[2:]], (2,), (2,)))
    return channel_instance_to_marginal(ChannelInstance((2,), (2,), tuple(
        LocalChannel((0,), (0,), ch) for ch in chans)))


def face_operator(system, rank_tol=1e-9):
    """Q = sum_c M_c*(P_c), P_c the projector off supp(T_c) by
    support_mask, from numpy's eigh of each target and one map at a time,
    not from the system's kept spectra and groups."""
    q = np.zeros((system.dim, system.dim), dtype=complex)
    for c in system.constraints:
        w, v = np.linalg.eigh(c.target)
        off = v[:, ~support_mask(w, rank_tol)]
        q += _engine._adjoint_maps(off @ off.conj().T, c.index, c.weight, system.dim)
    return q


def test_empty_face_is_certified_before_any_iteration():
    """Monogamy and the clashing channels force an empty face, D' = 0.
    Y_c = P_c and y_0 = -lambda_min(Q) certify them at iteration 0, with
    the state I/D giving the upper end, and the run builds no affine
    factor."""
    for inst in (monogamy_instance(), clashing_channels_instance()):
        system = inst.system
        assert system.face().dim == 0
        found = _engine.solve_feasible(system)
        cert = assert_checked_certificate(inst, found)
        assert 0 < cert.lower <= cert.upper
        assert found.iterations == 0 and found.residual_history == ()
        assert found.message.startswith("certified infeasible after 0 iterations")
        assert np.array_equal(found.state, np.eye(system.dim) / system.dim)
        assert "affine" not in vars(system)


def test_one_dimensional_face_converges_at_iteration_0():
    """The ring graph state on six qubits pinned by its 3-local windows
    (5,000 iterations in the full space) and the identity sub-channels
    (3,589 at tol 1e-9) force a face of dimension 1.  Its one candidate,
    V V^dag, is the solution, so both converge at iteration 0, at width 1."""
    for system, tol in ((ring_windows_instance(6).system, _engine.DEFAULT_TOL),
                        (identity_subchannels_instance().system, 1e-9)):
        assert system.face().dim == 1
        found = _engine.solve_feasible(system, tol=tol)
        assert found.converged and found.iterations == 0 and found.factor_rank == 1
        assert found.report.max_residual <= 1e-12


def test_iterates_stay_on_the_face(monkeypatch):
    """The rank-1 three-qubit witness with every pair pinned (D' = 2 of 8)
    and a fermionic (3,6,2) rank-1 target (D' = 2 of 20): every iterate G
    has ||Q G|| <= 1e-12 ||G||, at width min(D', bound) = 2, and both
    runs converge."""
    lbfgs = _engine._lbfgs_direction
    factors = []

    def spy(q, g, *args):
        factors.append(g)
        return lbfgs(q, g, *args)

    monkeypatch.setattr(_engine, "_lbfgs_direction", spy)
    n3, _ = random_feasible_instance((2,) * 3, list(combinations(range(3), 2)), 1, seed=0)
    fermionic, _ = sector_pair(np.random.default_rng(3), "fermionic", 3, 6, 2, 1)
    for inst in (n3, fermionic):
        factors.clear()
        system = inst.system
        q = face_operator(system)
        width = min(system.face().dim, system.square_sum_bound())
        found = _engine.solve_feasible(system)
        assert found.converged and found.factor_rank == width == 2
        assert factors and all(g.shape[1] == width for g in factors)
        assert max(np.linalg.norm(q @ g) / np.linalg.norm(g) for g in factors) <= 1e-12
        assert np.linalg.norm(q @ found.state) <= 1e-12


def test_certificate_on_a_face_is_lifted_off_it(monkeypatch):
    """The contradictory instance forces a face of dimension 2 of 4, qubit 0
    in |0>, on which no state is consistent.  The screen's dual is positive
    only on the face; adding tau P_c lifts it to a certificate that hilbert's
    maps confirm, after one iteration."""
    screen = _engine._screen
    faces = []

    def spy(*args):
        faces.append(args[4])
        return screen(*args)

    monkeypatch.setattr(_engine, "_screen", spy)
    inst = contradictory_instance()
    assert inst.system.face().dim == 2
    found = _engine.solve_feasible(inst.system)
    cert = assert_checked_certificate(inst, found)
    assert 0 < cert.lower <= cert.upper
    assert found.iterations == 1 and found.factor_rank == 2
    assert len(faces) == 2 and all(f is not None and f.dim == 2 for f in faces)


def test_eigenvalues_straddling_rank_tol_never_mislead():
    """Targets of (1 - eps) rho_1 + eps rho_2, rho_1 the rank-1 three-qubit
    witness and rho_2 full rank, are consistent for every eps.  For eps up
    to about rank_tol the support rule drops the eps eigenvalues, and the
    run goes on a face that misses part of every consistent state; above,
    every target has full rank.  No run gives a certificate, and every
    converged state meets the targets, checked with hilbert's partial
    trace.  On a face that dropped eps eigenvalues above tol / 100 the
    polish stalls at a zero step, which ends the run before its budget.
    The walk from the mixed witness and from the solver's state, on target
    supports misjudged or not, returns states that meet the targets too,
    and every step drops the rank (the witness at eps = 1e-7 goes 8 -> 5
    in three steps)."""
    inst, w1 = random_feasible_instance((2,) * 3, list(combinations(range(3), 2)), 1, seed=0)
    w2 = low_rank_state(np.random.default_rng(5), 8, 8)
    faces, walks = [], []
    for eps in (1e-11, 1e-10, 1e-9, 2e-9, 5e-9, 1e-8, 1e-7):
        x = (1 - eps) * w1 + eps * w2
        mixed = ConsistencyInstance(inst.dims, tuple(
            MarginalConstraint(c.subsystems, partial_trace(x, inst.dims, c.subsystems))
            for c in inst.constraints))
        faces.append(mixed.system.face() is not None)
        found = _engine.solve_feasible(mixed.system, max_iters=300)
        assert found.certificate is None and found.iterations < 300
        assert_history(found)
        starts = [x]
        if found.converged:
            assert max(np.linalg.norm(partial_trace(found.state, inst.dims, c.subsystems)
                                      - c.target) for c in mixed.constraints) <= 1e-8
            starts.append(found.state)
        for start in starts:
            state, trace = reduce_rank(start, mixed)
            assert max(np.linalg.norm(partial_trace(state, inst.dims, c.subsystems)
                                      - c.target) for c in mixed.constraints) <= 1e-8
            ranks = [s.rank_before for s in trace.steps] + [trace.final_rank]
            assert [s.rank_after for s in trace.steps] == ranks[1:]
            assert all(a > b for a, b in zip(ranks, ranks[1:]))
            walks.append([(s.rank_before, s.rank_after) for s in trace.steps])
    assert faces == [True] * 5 + [False] * 2
    assert len(walks) == 14 and [(8, 7), (7, 6), (6, 5)] in walks


def test_empty_face_that_fails_the_check_solves_in_the_full_space(monkeypatch):
    """Bell pairs mixed half and half with white noise on qubits (0, 1) and
    (1, 2) are consistent, since that mixture is 2-extendible.  At rank_tol
    0.2 each target's support is the Bell state alone, which forces an
    empty face, as monogamy's does.  Its certificate fails the check with
    the true targets (by weak duality its gap is positive), so the run goes
    on in the full space and converges."""
    checked = []
    check = _engine._checked_dual

    def spy(*args):
        checked.append(check(*args))
        return checked[-1]

    monkeypatch.setattr(_engine, "_checked_dual", spy)
    bell = np.zeros((4, 4), dtype=complex)
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    noisy = bell / 2 + np.eye(4) / 8
    inst = ConsistencyInstance((2, 2, 2), (MarginalConstraint((0, 1), noisy),
                                           MarginalConstraint((1, 2), noisy)))
    assert inst.system.face(0.2).dim == 0
    found = _engine.solve_feasible(inst.system, rank_tol=0.2)
    assert checked[0] is None
    assert found.converged and found.certificate is None
    assert max(np.linalg.norm(partial_trace(found.state, inst.dims, c.subsystems)
                              - c.target) for c in inst.constraints) <= 1e-8


def test_feasibility_iterations_decompose_no_state(monkeypatch):
    """The solver's iterations are products with A, A^T and the factor: the
    eigendecompositions of a run are those of the bound's target ranks and
    of the final residual_report, whatever the budget, and the one LAPACK
    call of an iteration is the k x k inverse of its metric.  The L-BFGS
    memory and the line search's cubic add none.  The screens, at
    iterations 0, 1, 2, 4, 8, 16 and, in the longer run, 32, add a
    Cholesky of the D x D dual matrix where both free filters pass: at four
    of the first six and not at 32.  None succeeds, so no screen reaches
    its eigvalsh."""
    inst, _ = random_feasible_instance((2,) * 4, list(combinations(range(4), 2)),
                                       1, seed=0)
    system = inst.system
    k = system.square_sum_bound()
    calls = []
    for name in ("eigh", "eigvalsh", "eigvals", "inv", "cholesky"):
        def spy(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    screen = _engine._screen

    def spy_screen(*args):
        calls.append(("screen", ()))
        return screen(*args)

    monkeypatch.setattr(_engine, "_screen", spy_screen)

    def run(max_iters):
        calls.clear()
        fresh = _engine.ConstraintSystem(system.dim, system.constraints)
        found = _engine.solve_feasible(fresh, max_iters=max_iters)
        assert not found.converged and found.iterations == max_iters
        return list(calls)

    short, long = run(20), run(40)
    assert short.count(("screen", ())) == 6 and long.count(("screen", ())) == 7
    assert short.count(("cholesky", (16, 16))) == long.count(("cholesky", (16, 16))) == 4
    iteration_calls = ("inv", "screen")
    assert ([c for c in short if c[0] not in iteration_calls]
            == [c for c in long if c[0] not in iteration_calls])
    assert short.count(("eigvalsh", (16, 16))) == 1
    assert Counter(long) - Counter(short) == Counter({("inv", (k, k)): 20, ("screen", ()): 1})
    assert not Counter(short) - Counter(long)
    assert k < 16 and not any(name == "eigvals" for name, _ in long)


def reference_step(c3, c2, c1, c0):
    """The least-cost rule on np.roots: the positive real parts of the
    companion matrix's eigenvalues, the one of least quartic cost."""
    def cost(t):
        return t * (2 * c0 + t * (c1 + t * (2 * c2 / 3 + t * c3 / 2)))
    return min((t for t in np.roots([c3, c2, c1, c0]).real if t > 0), key=cost,
               default=0.0)


def cubic(roots, lead=1.0):
    """Coefficients (c3, c2, c1, c0) of lead * prod(t - root), as floats."""
    return tuple(float(c) for c in lead * np.poly(roots).real)


def test_line_search_cubic_matches_companion_roots():
    """The closed-form roots pick the step that np.roots picks, to 1e-12
    relative, on random cubics of a descent direction (c3 > 0 > c0) and on
    adversarial ones: roots from 1e-12 to 1e8, a double root, one real root
    with a complex pair (whose real part the companion rule also weighs),
    and c0 within rounding of 0."""
    rng = np.random.default_rng(11)
    cases = []
    while len(cases) < 300:
        c = rng.standard_normal(4) * 10.0 ** rng.uniform(-3, 3, 4)
        if c[0] != 0 and c[3] != 0:
            cases.append(tuple(map(float, (abs(c[0]), c[1], c[2], -abs(c[3])))))
    cases += [cubic([1e-12, 1e-2, 1e8]), cubic([1e-12, 1e4, 1e8], 1e-6),
              cubic([1e-12, 1e8, 1.001e8]),  # the 1e-12 root costs least
              cubic([1e-12, 1e8j, -1e8j]), cubic([-1e8, -1e-2, 1e-12]),
              cubic([-1e8, -1e-12, 1e-4], 1e3),
              cubic([3.0, 1.0, 1.0]), cubic([0.5, 2.0, 2.0]),
              cubic([0.3, -1 + 2j, -1 - 2j]), cubic([0.3, 1 + 2j, 1 - 2j], 7.0),
              # a nearly real complex pair: Newton steps from it end near the root
              (1.0, -111.55406671873874, 3541.2388228008263, -23095.034988687552),
              (1.0, -427.8974202328104, 45935.10480025155, -34426.984107574914),
              (1.0, 1.0, 1.0, -1e-17), (1.0, -5.0, 4.0, -1e-16),
              (2.0, 3.0, 1.0, -2.2e-16), (1.0, -3.0, 2.0, -1e-300)]
    for c in cases:
        t, expected = _engine._least_cost_root(*c), reference_step(*c)
        assert type(t) is float and expected > 0
        assert abs(t - expected) <= 1e-12 * expected, (c, t, expected)


def test_line_search_never_steps_backwards():
    """Where c0 > 0, which a descent direction shows only at rounding level,
    Newton's polish of a positive candidate can walk to a negative root.
    The step is then 0: on coefficients recorded from a solver iterate,
    whose one real root is -0.07 (the polish used to give t = -19.9), and
    on 300 random cubics with c3 > 0 < c0."""
    recorded = (1.4e-44, -4.7e-38, 2.3e-31, 1.6e-32)
    assert [r.real < 0 for r in np.roots(recorded) if r.imag == 0] == [True]
    assert _engine._least_cost_root(*recorded) == 0.0
    rng = np.random.default_rng(13)
    for _ in range(300):
        c = rng.standard_normal(4) * 10.0 ** rng.uniform(-3, 3, 4)
        c = tuple(map(float, (abs(c[0]), c[1], c[2], abs(c[3]))))
        assert _engine._least_cost_root(*c) >= 0, c


def test_line_search_step_is_a_positive_root_or_zero():
    """The contract on 2,000 random cubics of each sign of c0 (c3 > 0,
    coefficient scales 1e-3 to 1e3): for c0 < 0 the step is within 1e-6 of
    a positive real root that np.roots finds; for c0 >= 0, where t = 0 is
    no descent, the step is 0, not a t > 0 off every root, as the Newton
    polish of a candidate could give."""
    rng = np.random.default_rng(0)
    for sign in (-1, 1):
        for _ in range(2000):
            c = rng.standard_normal(4) * 10.0 ** rng.uniform(-3, 3, 4)
            c = tuple(map(float, (abs(c[0]), c[1], c[2], sign * abs(c[3]))))
            t = _engine._least_cost_root(*c)
            if sign > 0:
                assert t == 0.0, c
                continue
            roots = [z.real for z in np.roots(c)
                     if abs(z.imag) <= 1e-8 * abs(z) and z.real > 0]
            assert any(abs(t - z) <= 1e-6 * max(1.0, z) for z in roots), (c, t, roots)
    assert _engine._least_cost_root(1.0, -3.0, 2.0, 0.0) == 0.0


def test_line_search_cubic_triple_root():
    """A triple root is fixed by its coefficients only to about the cube
    root of the rounding unit, np.roots included, so the step is compared
    with the exact root at that accuracy and its cost with the least cost
    to 1e-12."""
    for root, lead in ((2.0, 1.0), (1.0, 3.0), (1e-3, 1e6)):
        c = cubic([root] * 3, lead)
        t = _engine._least_cost_root(*c)
        assert abs(t - root) <= 1e-4 * root
        cost = t * (2 * c[3] + t * (c[2] + t * (2 * c[1] / 3 + t * c[0] / 2)))
        least = root * (2 * c[3] + root * (c[2] + root * (2 * c[1] / 3 + root * c[0] / 2)))
        assert abs(cost - least) <= 1e-12 * abs(least)


def reference_least_cost_root(c3, c2, c1, c0):
    """The line search's root as it was first written, with a closure for
    the Newton polish and min/max over generators with key functions: the
    arithmetic that _least_cost_root keeps to the last bit."""
    if c0 >= 0:
        return 0.0
    a, b, c = c2 / c3, c1 / c3, c0 / c3
    p, q = b - a * a / 3, (2 * a * a / 27 - b / 3) * a + c
    disc = q * q / 4 + p * p * p / 27
    if disc < 0:
        r = 2 * math.sqrt(-p / 3)
        phi = math.acos(max(-1.0, min(1.0, 3 * q / (p * r))))
        t = max((r * math.cos((phi - 2 * math.pi * j) / 3) - a / 3 for j in range(3)), key=abs)
    else:
        w = -math.copysign((abs(q) / 2 + math.sqrt(disc)) ** (1 / 3), q)
        t = (w - p / (3 * w) if w else 0.0) - a / 3
    # x^2 + e x + f = cubic / (x - t), from the end that does not cancel
    f = -c / t if abs(t * t * t) > abs(c) else b + (a + t) * t
    e = (f - b) / t if abs(t * t * t) > abs(c) else a + t
    h = -(e + math.copysign(math.sqrt(max(e * e - 4 * f, 0.0)), e)) / 2
    def newton(t: float) -> float:  # three steps, none where the slope vanishes
        for _ in range(3):
            t -= (((t + a) * t + b) * t + c) / ((3 * t + 2 * a) * t + b or math.inf)
        return t
    t = min((t for t in map(newton, [t, h, f / h] if h else [t]) if t > 0), default=0.0,
            key=lambda t: t * (2 * c0 + t * (c1 + t * (2 * c2 / 3 + t * c3 / 2))))
    return max(newton(t), 0.0) if t else 0.0


def root_branches(c3, c2, c1, c0):
    """The branches of the root's closed form that coefficients take:
    c0 >= 0, disc < 0 or disc >= 0, the quotient from |t^3| <= |c|, and
    h = 0 (a single candidate)."""
    if c0 >= 0:
        return {"c0 >= 0"}
    a, b, c = c2 / c3, c1 / c3, c0 / c3
    p, q = b - a * a / 3, (2 * a * a / 27 - b / 3) * a + c
    disc = q * q / 4 + p * p * p / 27
    if disc < 0:
        r = 2 * math.sqrt(-p / 3)
        phi = math.acos(max(-1.0, min(1.0, 3 * q / (p * r))))
        t = max((r * math.cos((phi - 2 * math.pi * j) / 3) - a / 3 for j in range(3)), key=abs)
    else:
        w = -math.copysign((abs(q) / 2 + math.sqrt(disc)) ** (1 / 3), q)
        t = (w - p / (3 * w) if w else 0.0) - a / 3
    out = {"disc < 0" if disc < 0 else "disc >= 0"}
    if abs(t * t * t) <= abs(c):
        out.add("quotient")
        f, e = b + (a + t) * t, a + t
    else:
        f = -c / t
        e = (f - b) / t
    if not -(e + math.copysign(math.sqrt(max(e * e - 4 * f, 0.0)), e)) / 2:
        out.add("h = 0")
    return out


def same_float(a, b):
    """Equal to the last bit, the sign of zero included."""
    return type(a) is type(b) is float and np.float64(a).view(np.int64) == np.float64(b).view(
        np.int64)


def test_line_search_root_equals_its_first_form_bit_for_bit():
    """_least_cost_root against its first form on 10,000 random coefficient
    sets (c3 > 0, either sign of c0, scales 1e-8 to 1e8) and on one case of
    every branch: c0 >= 0, disc < 0 (three real roots), disc >= 0, the
    quotient taken from |t^3| <= |c| (a small real root beside a large
    complex pair), h = 0 ((x - 1/2)(x^2 + 1/4), and c underflowing to -0),
    and a triple root."""
    rng = np.random.default_rng(31)
    cases = []
    for _ in range(10000):
        c = rng.standard_normal(4) * 10.0 ** rng.uniform(-8, 8, 4)
        cases.append((abs(float(c[0])), float(c[1]), float(c[2]), float(c[3])))
    branchy = {"c0 >= 0": (1.0, -3.0, 2.0, 0.0), "disc < 0": cubic([0.5, 2.0, 3.0]),
               "disc >= 0": cubic([0.3, 1 + 2j, 1 - 2j], 7.0),
               "quotient": cubic([0.1, 10j, -10j]), "h = 0": (1.0, -0.5, 0.25, -0.125),
               "h = 0, c = -0": (1e300, 0.0, 0.0, -1e-300)}
    for name, c in branchy.items():
        assert name.split(",")[0] in root_branches(*c), (name, root_branches(*c))
    seen = set()
    for c in cases + list(branchy.values()) + [cubic([2.0] * 3), cubic([1e-3] * 3, 1e6)]:
        seen |= root_branches(*c)
        t, expected = _engine._least_cost_root(*c), reference_least_cost_root(*c)
        assert same_float(t, expected), (c, t, expected)
    assert seen == {"c0 >= 0", "disc < 0", "disc >= 0", "quotient", "h = 0"}


def reference_remember(pairs, mats, lo, m, s, y):
    """The L-BFGS memory update as it was first written, on views of the
    window: the arithmetic and the writes that _remember keeps."""
    if m == _engine.LBFGS_MEMORY:  # drop the oldest pair
        lo, m = lo + 1, m - 1
    if lo + m == len(pairs[0]):
        pairs[:, :m], mats[:, :m, :m], lo = pairs[:, lo:], mats[:, lo:, lo:], 0
    (ss, ys), (sy, rinv) = pairs[:, lo:], mats[:, lo:, lo:]
    ss[m], ys[m] = s, y
    col = ss[:m + 1] @ y
    sy[:m + 1, m], sy[m, :m] = col, ys[:m] @ s
    rinv[:m, m], rinv[m, m] = rinv[:m, :m] @ col[:m] / -col[m], 1 / col[m]
    return lo, m + 1


def test_lbfgs_memory_equals_its_first_form_bit_for_bit():
    """_remember against its first form on the same 150 pairs: appends past
    LBFGS_MEMORY, a window that reaches the buffers' end and moves to their
    front four times, and two resets to an empty memory (as an ascent
    fallback makes), at the widths of a 3-qubit and a 5-qubit factor.
    Both buffers, S and Y, S Y^T and R^-1, and the window agree to the last
    bit after every append."""
    rng = np.random.default_rng(32)
    for size in (2 * 8 * 3, 2 * 32 * 12):
        bufs = [(np.zeros((2, 2 * _engine.LBFGS_MEMORY, size)),
                 np.zeros((2, 2 * _engine.LBFGS_MEMORY, 2 * _engine.LBFGS_MEMORY)))
                for _ in range(2)]
        windows = [(0, 0), (0, 0)]
        moves = 0
        for i in range(150):
            s = rng.standard_normal(size)
            y = s + 0.1 * rng.standard_normal(size)
            if i in (57, 120):
                windows = [(lo, 0) for lo, _ in windows]
            new = _engine._remember(*bufs[0], *windows[0], s, y)
            ref = reference_remember(*bufs[1], *windows[1], s, y)
            assert new == ref
            moves += new[0] < windows[0][0]
            windows = [new, ref]
            for a, b in zip(*bufs):
                assert np.array_equal(a.view(np.int64), b.view(np.int64))
        assert moves == 4


def assert_fresh_memory(s, y, sy, rinv):
    """S Y^T and R^-1 as kept equal s @ y.T and inv(triu(.)) of the pairs,
    to 1e-12 of their largest entry."""
    fresh = s @ y.T
    assert np.abs(sy - fresh).max() <= 1e-12 * np.abs(fresh).max()
    inverse = np.linalg.inv(np.triu(fresh))
    assert np.abs(rinv - inverse).max() <= 1e-12 * np.abs(inverse).max()


def test_lbfgs_memory_matches_a_fresh_build(monkeypatch):
    """Kept incrementally, S Y^T and R^-1 equal fresh builds of the pairs
    handed to the direction: through the monogamy instance's pad from k = 1
    to 8 (with the screen switched off), appends past LBFGS_MEMORY and a
    forced ascent fallback that empties the memory."""
    no_screen(monkeypatch)
    no_face(monkeypatch)
    lbfgs = _engine._lbfgs_direction
    seen = []

    def spy(q, g, eta, s, y, sy, rinv):
        seen.append((g.shape[1], len(s)))
        if len(s):
            assert_fresh_memory(s, y, sy, rinv)
        if seen.count((8, _engine.LBFGS_MEMORY)) == 3:
            return q.copy()
        return lbfgs(q, g, eta, s, y, sy, rinv)

    monkeypatch.setattr(_engine, "_lbfgs_direction", spy)
    found = _engine.solve_feasible(monogamy_system())
    assert found.factor_rank == 8 and "rank-8" in found.message
    widths = [w for w, _ in seen]
    assert widths[0] == 1 and widths[-1] == 8
    fallback = seen.index((8, _engine.LBFGS_MEMORY)) + 2
    assert seen[fallback + 1] == (8, 1) and len(seen) > fallback + 3


def test_lbfgs_memory_window_moves_to_the_front(monkeypatch):
    """The memory is a window on buffers of 2 LBFGS_MEMORY rows.  The rank-1
    three-qubit witness appends a pair at each of 100 iterations with no
    reset, so the window reaches the end of the buffers and moves to their
    front at appends 40, 61 and 82; every direction still gets the last
    pairs appended, oldest first, with S Y^T and R^-1 equal to fresh
    builds.  (Nearer its convergence, at 227 iterations, R^-1 holds entries
    of 1e18 and the two builds part by more than 1e-12 of that through
    rounding alone, so the run is cut at 100.)  The face is switched off:
    on it the run converges in 44 iterations."""
    no_face(monkeypatch)
    inst, _ = random_feasible_instance((2,) * 3, list(combinations(range(3), 2)),
                                       1, seed=0)
    remember, lbfgs = _engine._remember, _engine._lbfgs_direction
    appended, moves, kept = [], [], []

    def spy_remember(pairs, mats, lo, m, s, y):
        appended.append((s.copy(), y.copy()))
        out = remember(pairs, mats, lo, m, s, y)
        moves.append(out[0] < lo)
        return out

    def spy_direction(q, g, eta, s, y, sy, rinv):
        kept.append(len(s))
        if len(s):
            last = appended[-len(s):]
            assert np.array_equal(s, [a for a, _ in last])
            assert np.array_equal(y, [b for _, b in last])
            assert_fresh_memory(s, y, sy, rinv)
        return lbfgs(q, g, eta, s, y, sy, rinv)

    monkeypatch.setattr(_engine, "_remember", spy_remember)
    monkeypatch.setattr(_engine, "_lbfgs_direction", spy_direction)
    found = _engine.solve_feasible(inst.system, max_iters=100)
    assert found.iterations == len(appended) == 100
    assert 0 not in kept[1:] and max(kept) == _engine.LBFGS_MEMORY
    assert [i for i, moved in enumerate(moves) if moved] == [40, 61, 82]


def reference_line_search(f, g, p, dev):
    """The line search's a1 and a2 from two products and two single applies,
    and its step and next deviation from them."""
    m1 = g @ p.conj().T
    a1 = f.apply(m1 + m1.conj().T)
    a2 = f.apply(p @ p.conj().T)
    t = _engine._least_cost_root(2 * float(a2 @ a2), 3 * float(a1 @ a2),
                                 float(a1 @ a1 + 2 * (dev @ a2)), float(dev @ a1))
    return t, dev + t * a1 + (t * t) * a2


def reference_direction(q, g, eta, s, y, sy, rinv):
    """The compact L-BFGS direction with the metric applied to one vector
    at a time."""
    gram = g.conj().T @ g
    gram.flat[::gram.shape[0] + 1] += eta
    minv = np.linalg.inv(gram)

    def metric(v):
        return (v.view(np.complex128).reshape(g.shape) @ minv).view(np.float64).ravel()

    h0q = metric(q)
    gamma = sy[-1, -1] / (y[-1] @ metric(y[-1]))
    ra = rinv @ (s @ q)
    h0y_ra = gamma * metric(ra @ y)
    c = (sy.diagonal() * ra + y @ h0y_ra - gamma * (y @ h0q)) @ rinv
    return -(gamma * h0q - h0y_ra + c @ s)


def test_stacked_iteration_products_match_single_ones_bit_for_bit():
    """On a qudit, a weighted sector and a channel system with its TP row:
    A applied to a stack of two matrices is A applied to each; the line
    search's step and deviation, the gradient, the residual and the L-BFGS
    direction equal their one-matrix forms to the last bit, and the
    gradient is 4 S G for the 2 S that comes with it."""
    rng = np.random.default_rng(41)
    for instance in projection_cases():
        f = instance.system.affine
        d = f.dim
        x = np.stack([random_hermitian(rng, d), random_matrix(rng, d)])
        assert np.array_equal(f.apply(x), np.stack([f.apply(x[0]), f.apply(x[1])]))
        k = max(2, d // 2)
        g, p = random_matrix(rng, d, k), random_matrix(rng, d, k)
        dev = f.apply(g @ g.conj().T) - f.target
        t, nxt = _engine._exact_step(f, g, p, dev)
        t_ref, nxt_ref = reference_line_search(f, g, p, dev)
        assert t == t_ref and np.array_equal(nxt, nxt_ref)
        grad, two_s = f.gradient(dev, g)
        assert np.array_equal(grad, 4 * (two_s / 2) @ g)
        assert f.max_block_norm(dev) == np.sqrt(np.add.reduceat(dev * dev, f.offsets)).max()
        s = rng.standard_normal((5, 2 * d * k))
        y = s + 0.1 * rng.standard_normal(s.shape)
        sy = s @ y.T
        args = (random_matrix(rng, d, k).view(np.float64).ravel(), g, 0.3, s, y, sy,
                np.linalg.inv(np.triu(sy)))
        assert np.array_equal(_engine._lbfgs_direction(*args), reference_direction(*args))


def haar_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_low_rank_witnesses_converge_within_a_short_budget():
    """A floor on the solver at max_iters=100, the budget of the benchmark's
    feasible-lowrank workload: the all-pairs rank-1 and rank-2 witnesses on
    3, 4 and 5 qubits, each turned by 8 fixed Haar local unitaries.  16 of
    the 48 converge: every n4 r2 and n5 r2 rotation.  The other 32 miss the
    budget; that is the known defect of the solver's width at the
    square-sum bound (ROADMAP items 5 and 7), not a regression, and a
    change that fixes some of them raises the count.  Fewer than 16 fails."""
    rng = np.random.default_rng(0)
    converged = Counter()
    for n in (3, 4, 5):
        for r in (1, 2):
            inst, _ = random_feasible_instance((2,) * n, list(combinations(range(n), 2)),
                                               r, seed=0)
            for _ in range(8):
                us = [haar_unitary(rng, 2) for _ in range(n)]
                turned = []
                for c in inst.constraints:
                    u = np.kron(us[c.subsystems[0]], us[c.subsystems[1]])
                    turned.append(MarginalConstraint(c.subsystems,
                                                     u @ c.target @ u.conj().T))
                found = find_feasible(ConsistencyInstance(inst.dims, tuple(turned)),
                                      max_iters=100)
                converged[f"n{n} r{r}"] += found.converged
    assert sum(converged.values()) >= 16, dict(converged)


def test_repair_fails_after_four_confined_projections(monkeypatch):
    """|00><00| against two maximally mixed qubit marginals: no state on its
    support is feasible, so all four confined rounds run, none of them
    projects in the full space, and the repair fails."""
    half = np.eye(2) / 2
    system = ConsistencyInstance((2, 2), (MarginalConstraint((0,), half),
                                          MarginalConstraint((1,), half))
                                 ).system
    full_space = []
    project = _engine.project_affine

    def spy(system, v, m):
        full_space.append(v.shape[1] == system.dim)
        return project(system, v, m)

    monkeypatch.setattr(_engine, "project_affine", spy)
    with pytest.raises(_engine.ReductionError, match="^feasibility repair failed: "):
        _engine._repair(system, np.eye(4)[:, :1], np.ones(1), tol=1e-8, rank_tol=1e-9)
    assert full_space == [False] * 4


def test_budget_stopped_start_is_repaired_on_its_support(monkeypatch):
    """All pairs of 4 qubits, rank-2 witness: 82 iterations stop the solver
    converged at 2.7e-9, above the repair's inner tolerance of 1e-9.  The
    start's repair runs a confined round, on a support narrower than D,
    and the reduced state stays within repair_tol.  Reduced on a fresh
    instance, whose system the solver never touched, the repair reads b
    alone and builds none of the solver's nonzeros."""
    inst, _ = random_feasible_instance((2,) * 4, list(combinations(range(4), 2)),
                                       2, seed=0)
    found = find_feasible(inst, max_iters=82)
    assert found.converged and found.report.max_residual > 1e-9
    inst = ConsistencyInstance(inst.dims, inst.constraints)
    repair, project = _engine._repair, _engine.project_affine
    nonzeros = _engine._affine_nonzeros
    changed, supports, nonzero_builds = [], [], []

    def repair_spy(system, v, p, **kwargs):
        out = repair(system, v, p, **kwargs)
        changed.append(out[1] is not p)
        return out

    def project_spy(system, v, m):
        supports.append(v.shape[1])
        return project(system, v, m)

    def nonzeros_spy(system):
        nonzero_builds.append(system)
        return nonzeros(system)

    monkeypatch.setattr(_engine, "_repair", repair_spy)
    monkeypatch.setattr(_engine, "project_affine", project_spy)
    monkeypatch.setattr(_engine, "_affine_nonzeros", nonzeros_spy)
    state, _ = reduce_rank(found.state, inst)
    assert any(changed)
    assert supports and all(s < 16 for s in supports)
    assert nonzero_builds == []
    assert check_consistency(inst, state).max_residual <= _engine.DEFAULT_TOL


def test_later_repair_rounds_rescue_budget_stopped_starts(monkeypatch):
    """All pairs of 5 qubits, rank-1 witness: budgets 669-672 stop the
    solver converged at 8.4e-9 to 2.8e-9.  The entry's truncation moves
    such a start off the slice, and one confined round leaves it above tol
    (5.5e-8 at 669), so the entry's repair runs all four rounds, and the
    reduced state ends within repair_tol."""
    inst, _ = random_feasible_instance((2,) * 5, list(combinations(range(5), 2)),
                                       1, seed=0)
    repair, project = _engine._repair, _engine.project_affine
    projections, rounds = [], []

    def project_spy(*args):
        projections.append(None)
        return project(*args)

    def repair_spy(*args, **kwargs):
        before = len(projections)
        out = repair(*args, **kwargs)
        rounds.append(len(projections) - before)
        return out

    monkeypatch.setattr(_engine, "project_affine", project_spy)
    monkeypatch.setattr(_engine, "_repair", repair_spy)
    for budget in (669, 670, 671, 672):
        found = find_feasible(inst, max_iters=budget)
        assert found.converged and found.iterations == budget
        assert 2e-9 < found.report.max_residual <= _engine.DEFAULT_TOL
        rounds.clear()
        state, _ = reduce_rank(found.state, inst)
        assert rounds[0] == 4
        assert check_consistency(inst, state).max_residual <= _engine.DEFAULT_TOL


def test_reduction_error_carries_the_partial_trace(monkeypatch):
    """A repair that fails, at the start or after some steps, aborts the
    reduction with a trace of the steps taken so far."""
    inst, rho = random_feasible_instance((2, 2, 2), [(0, 1), (1, 2)], 8, seed=1)
    system = inst.system
    repair = _engine._repair
    for fail_at in (1, 3):
        calls = []

        def failing(*args, _fail_at=fail_at, **kwargs):
            calls.append(None)
            if len(calls) == _fail_at:
                raise _engine.ReductionError("repair stopped")
            return repair(*args, **kwargs)

        monkeypatch.setattr(_engine, "_repair", failing)
        with pytest.raises(_engine.ReductionError, match="^repair stopped$") as info:
            _engine.reduce_core(rho, system)
        trace = info.value.trace
        assert isinstance(trace, _engine.ReductionTrace)
        assert not trace.null_space_exhausted
        assert trace.bound == theorem1_bound(inst) == 5
        if fail_at == 1:
            assert trace.steps == [] and trace.final_rank == 8
        else:
            assert 1 <= len(trace.steps) <= 2
            assert trace.final_rank <= trace.steps[-1].rank_after


def test_reduction_factors_the_state_once_per_step(monkeypatch):
    """The walk decomposes the D x D state once, at its entry: every later
    truncation is r x r on the support factor, and the only D x D
    decomposition of a step is the eigvalsh of its independent check.  On a
    rank-15 witness for all pairs of 4 qubits the support stays below D and
    no repair round runs, so the call sequence is exact: the feasibility
    check, the entry's support_basis and the initial repair's residual, then
    one residual per step, and numerical_rank never runs on the state."""
    inst, rho = random_feasible_instance((2,) * 4, list(combinations(range(4), 2)),
                                         15, seed=0)
    system = inst.system
    events = []
    for name in ("residual_report", "support_basis", "numerical_rank",
                 "project_affine"):
        def spy(*args, _fn=getattr(_engine, name), _name=name, **kwargs):
            x = args[1] if _name in ("residual_report", "project_affine") else args[0]
            if x.shape[0] == system.dim:  # state-sized, not a target support
                events.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(_engine, name, spy)
    decompositions = []
    for name in ("eigh", "eigvalsh"):
        def spy(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            if np.shape(a) == (system.dim, system.dim):
                decompositions.append(_name)
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    _, trace = _engine.reduce_core(rho, system)
    steps = len(trace.steps)
    assert steps >= 5 and trace.null_space_exhausted
    assert events == (["residual_report", "support_basis"]
                      + ["residual_report"] * (1 + steps))
    assert decompositions == ["eigvalsh", "eigh"] + ["eigvalsh"] * (1 + steps)


def test_walk_builds_the_descent_rows_once(monkeypatch):
    """From find_feasible's state on a full-rank 5-qubit all-pairs instance,
    the walk builds its null basis once and restricts it at every later
    step: the ten pair constraints are one group, so constraint_rows runs
    once per walk for the descent, for all ten at once, not once per step
    or per constraint; every other build is a repair's projection."""
    inst, _ = random_feasible_instance((2,) * 5, list(combinations(range(5), 2)),
                                       32, seed=0)
    found = find_feasible(inst)
    groups, projections = [], []
    rows, project = _engine.constraint_rows, _engine.project_affine

    def rows_spy(g, v):
        groups.append(g)
        return rows(g, v)

    def project_spy(*args):
        projections.append(len(groups))
        return project(*args)

    monkeypatch.setattr(_engine, "constraint_rows", rows_spy)
    monkeypatch.setattr(_engine, "project_affine", project_spy)
    _, trace = reduce_rank(found.state, inst)
    assert len(trace.steps) >= 2 and trace.null_space_exhausted
    assert len(inst.system.groups) == 1 and len(groups) == 1 + len(projections)
    assert all(g.positions.tolist() == list(range(len(inst.constraints))) for g in groups)


def eigh_sizes(monkeypatch):
    """A list that gathers the size of every np.linalg.eigh call from now on."""
    sizes, eigh = [], np.linalg.eigh

    def spy(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return sizes


def test_walk_above_the_rows_decomposes_no_larger_gram(monkeypatch):
    """Criterion 3's walk starts at rank 32, where r^2 = 1024 exceeds the
    m = 161 descent rows.  It draws from null bases on 13 = isqrt(161) + 1
    support vectors there, so its largest eigh is the 169 x 169 Gram
    matrix of their rows: the r^2 x r^2 side is never formed."""
    inst = maximally_mixed_klocal_instance(5, 2)
    sizes = eigh_sizes(monkeypatch)
    state, trace = reduce_rank(np.eye(32, dtype=complex) / 32, inst, seed=0)
    assert trace.steps[0].rank_before == 32
    assert 169 in sizes and max(sizes) == 169
    assert numerical_rank(state) <= trace.bound == 12


def test_six_qubit_walk_from_the_maximally_mixed_state(monkeypatch):
    """All pairs of 6 qubits from I/64: m = 241 descent rows, so the walk
    draws from null bases on 16 support vectors while r^2 > m, and no eigh
    is above 256 = 16^2, although r^2 starts at 4096.  It reaches rank 12, below the bound 15, in 52 steps, and ends on
    an empty basis."""
    inst = maximally_mixed_klocal_instance(6, 2)
    assert inst.system.rhs[0].size == 241
    sizes = eigh_sizes(monkeypatch)
    state, trace = reduce_rank(np.eye(64, dtype=complex) / 64, inst, seed=0)
    assert max(sizes) == 256
    assert (trace.final_rank, len(trace.steps), trace.bound) == (12, 52, 15)
    assert trace.null_space_exhausted and numerical_rank(state) == 12
    assert check_consistency(inst, state).max_residual <= _engine.DEFAULT_TOL


def test_a_walk_that_ends_on_an_empty_basis_is_exhausted(monkeypatch):
    """The walk reads its restricted basis before it draws: from a rank-15
    witness of all pairs of 4 qubits it ends where that basis is empty, and
    only there does the trace record null_space_exhausted."""
    inst, rho = random_feasible_instance((2,) * 4, list(combinations(range(4), 2)),
                                         15, seed=0)
    bases, restrict = [], _engine._restricted_null_space

    def spy(*args):
        bases.append(restrict(*args))
        return bases[-1]

    monkeypatch.setattr(_engine, "_restricted_null_space", spy)
    _, trace = _engine.reduce_core(rho, inst.system)
    assert trace.null_space_exhausted and len(bases) == len(trace.steps) + 1
    assert bases[-1].shape[1] == 0 and all(q.shape[1] > 0 for q in bases[:-1])


def test_each_support_lies_in_the_one_before(monkeypatch):
    """Criterion 9's walks on all pairs of 5 qubits, rank-1 and rank-2
    witnesses: the solver's state keeps eigenvalues just above rank_tol, yet
    every support the walk descends from lies in the span of the one before
    to 1e-12, so the walk builds the null basis of its m = 161 descent rows
    once and only restricts it, and every draw gets a nonempty basis on the
    support it draws on but the last."""
    descent, null_space = _engine.descent_direction_core, _engine._null_space
    for rank in (1, 2):
        inst, _ = random_feasible_instance((2,) * 5, list(combinations(range(5), 2)),
                                           rank, seed=0)
        found = find_feasible(inst)
        assert found.converged
        supports, builds = [], []

        def descent_spy(v, q, system, rng):
            supports.append(v)
            assert q.shape[0] == v.shape[1] ** 2
            return descent(v, q, system, rng)

        def null_spy(a):
            builds.append(a.shape[0] == 161)
            return null_space(a)

        monkeypatch.setattr(_engine, "descent_direction_core", descent_spy)
        monkeypatch.setattr(_engine, "_null_space", null_spy)
        _, trace = reduce_rank(found.state, inst)
        assert len(trace.steps) >= 1 and trace.null_space_exhausted
        assert len(supports) == len(trace.steps) + 1
        for before, after in zip(supports, supports[1:]):
            assert np.linalg.norm(after - before @ (before.conj().T @ after)) <= 1e-12
        assert sum(builds) == 1


def test_a_solver_start_builds_one_null_basis_at_the_entry(monkeypatch):
    """find_feasible's state has rank at most the square-sum bound, and
    bound^2 <= m - 1 for m = 1 + sum_c rank(T_c)^2 descent rows, so the walk
    builds its one null basis at the entry, on its whole support, and only
    restricts it: on all pairs of 4 qubits and on a fermionic sector.  A
    full-rank witness, and I/32 on all pairs of 5 qubits, start above the
    bound: the walk builds a basis on isqrt(m) + 1 support vectors at every
    step while r^2 > m, then one on the whole support that it keeps."""
    null_basis, calls = _engine._null_basis, []

    def spy(system, v):
        calls.append(v.shape[1])
        return null_basis(system, v)

    monkeypatch.setattr(_engine, "_null_basis", spy)
    qudit, witness = random_feasible_instance((2,) * 4, list(combinations(range(4), 2)),
                                              16, seed=1)
    sector, sigma = sector_pair(np.random.default_rng(47), "fermionic", 3, 6, 2, 20)
    mixed = maximally_mixed_klocal_instance(5, 2)
    for instance, full, bound in ((qudit, witness, 9), (sector, sigma, 15),
                                  (mixed, np.eye(32) / 32, 12)):
        system = instance.system
        m = system.rhs[0].size
        assert system.square_sum_bound() == bound and bound ** 2 < m
        if instance is not mixed:
            found = find_feasible(instance)
            assert found.converged and numerical_rank(found.state) <= bound
            calls.clear()
            _, trace = reduce_rank(found.state, instance)
            assert len(trace.steps) >= 1 and calls == [numerical_rank(found.state)]
        assert numerical_rank(full) == system.dim > bound
        calls.clear()
        _, trace = reduce_rank(full, instance)
        above = [s.rank_before for s in trace.steps if s.rank_before ** 2 > m]
        assert above and calls[:-1] == above and calls[-1] ** 2 <= m
        assert trace.final_rank <= bound


def test_non_finite_states_are_rejected():
    """The engine's maps skip hilbert's input checks; a state with a NaN
    entry is still refused by check_consistency and reduce_rank, on a
    qudit, a sector and a channel-marginal instance."""
    inst, rho = random_feasible_instance((2, 2, 2), [(0, 1), (1, 2)], 3, seed=5)
    sector, sigma = sector_pair(np.random.default_rng(47), "fermionic", 3, 5, 2, 3)
    channel, choi = channel_pair()
    for instance, state in ((inst, rho), (sector, sigma), (channel, choi)):
        bad = np.array(state, dtype=complex)
        bad[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            check_consistency(instance, bad)
        with pytest.raises(ValueError, match="non-finite"):
            reduce_rank(bad, instance)


def test_sector_map_matches_the_dense_lift():
    """The sector map is an index map over occupations; it equals
    sector_partial_trace, which forms the lift W_N x W_N^dag, on both
    statistics, k = 1 and k = N, fermions filling every level (N = d) and
    two-level bosons."""
    rng = np.random.default_rng(41)
    for statistics, n, d, k in (("fermionic", 3, 6, 2), ("fermionic", 2, 2, 1),
                                ("fermionic", 3, 3, 1), ("fermionic", 4, 4, 2),
                                ("fermionic", 3, 5, 1), ("fermionic", 3, 5, 3),
                                ("fermionic", 4, 6, 3), ("bosonic", 5, 3, 2),
                                ("bosonic", 2, 2, 1), ("bosonic", 5, 2, 1),
                                ("bosonic", 5, 2, 3), ("bosonic", 4, 2, 4),
                                ("bosonic", 3, 3, 1), ("bosonic", 3, 3, 3),
                                ("bosonic", 3, 4, 2)):
        dk = sector_size(statistics, k, d)
        system = SectorInstance(statistics, n, d, k, np.eye(dk) / dk).system
        x = random_hermitian(rng, system.dim)
        dense = sector_partial_trace(x, sector_isometry(statistics, n, d), k)
        assert np.abs(system.constraints[0].apply(x) - dense).max() <= 1e-12, (
            statistics, n, d, k)


def test_sector_map_never_forms_the_lifted_state():
    """On fermionic (4,8,2) the lifted state is a 4096 x 4096 complex matrix,
    268 MB; one application of the map stays well below that."""
    system = SectorInstance("fermionic", 4, 8, 2, np.eye(28) / 28).system
    c = system.constraints[0]
    x = random_hermitian(np.random.default_rng(43), system.dim)
    tracemalloc.start()
    try:
        c.apply(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096 ** 2 * 16
