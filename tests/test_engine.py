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
                               random_feasible_instance)
from qmarginal.hilbert import (embed_with_identity, partial_trace,
                               partial_trace_index, sector_isometry,
                               sector_partial_trace, sector_size,
                               support_basis)
from qmarginal.marginal import (ConsistencyInstance, MarginalConstraint,
                                check_consistency, find_feasible,
                                theorem1_bound)
from qmarginal.numerics import numerical_rank
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


def reference_rows(adjoint, v, vc):
    """One adjoint call per target basis element F: the row is the
    coordinate vector of V^dag M*(vc F vc^dag) V."""
    state_basis = herm_basis(v.shape[1])
    rows = []
    for f in herm_basis(vc.shape[1]):
        z = v.conj().T @ adjoint(vc @ f @ vc.conj().T) @ v
        rows.append([np.vdot(e, z).real for e in state_basis])
    return np.array(rows)


def full_bases(system):
    """Identity target bases for every group: the full rows."""
    return [(g, np.broadcast_to(np.eye(g.target.shape[-1]), g.target.shape))
            for g in system.groups]


def assert_rows_match(instance, rho):
    """Every group's batched rows, compressed and full, against one adjoint
    call per target basis element of each of its constraints."""
    system = instance.system
    v, _ = support_basis(rho)
    assert 1 < v.shape[1] < system.dim
    adjoints = [adjoint for _, adjoint in reference_maps(instance)]
    for bases in (system.target_bases(), full_bases(system)):
        for g, vc in bases:
            got = _engine.constraint_rows(g, v, vc)
            assert got.shape == (len(g.positions), vc.shape[-1] ** 2, v.shape[1] ** 2)
            for p, rows, basis in zip(g.positions, got, vc):
                assert np.abs(rows - reference_rows(adjoints[p], v, basis)).max() <= 1e-12


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
    less than full rank, so the compressed rows differ from the full ones."""
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
    inst = channel_instance_to_marginal(
        ChannelInstance((2, 2), (2, 2), locs), include_tp=True)
    assert inst.constraints[-1].subsystems == (0, 1)
    return inst, joint.choi


def test_rows_match_reference_channel_with_tp_row():
    inst, choi = channel_pair()
    assert_rows_match(inst, choi)


def test_row_space_projector_matches_svd_with_duplicate_rows():
    """The same constraint listed twice makes exactly dependent rows; the
    Gram projector must still equal the SVD one and find the same rank."""
    inst, rho = random_feasible_instance((2, 2, 2), [(0, 1), (1, 2)], 6, seed=3)
    v, _ = support_basis(rho)
    (group, bases), = inst.system.target_bases()
    first, second = _engine.constraint_rows(group, v, bases)
    a = np.vstack([first, second, first])
    q = _engine._row_space(a)
    _, s, vt = np.linalg.svd(a)
    vk = vt[s > 1e-6 * s[0]].T
    assert q.shape[1] == vk.shape[1] < a.shape[1]
    assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-12
    eye = np.eye(a.shape[1])
    assert np.abs((eye - q @ q.T) - (eye - vk @ vk.T)).max() <= 1e-12


def test_null_space_matches_svd_with_duplicate_rows():
    """The same rows as above, with fewer columns than rows: the null basis
    from the coordinate-side Gram matrix equals the SVD's null space and
    complements the row space of _row_space."""
    inst, rho = random_feasible_instance((2, 2, 2), [(0, 1), (1, 2)], 6, seed=3)
    v, _ = support_basis(rho)
    (group, bases), = inst.system.target_bases()
    first, second = _engine.constraint_rows(group, v, bases)
    a = np.vstack([first, second, first])
    assert a.shape[0] > a.shape[1]
    n = _engine._null_space(a)
    _, s, vt = np.linalg.svd(a)
    vn = vt[s <= 1e-6 * s[0]].T
    assert 0 < n.shape[1] == vn.shape[1]
    assert np.abs(n.T @ n - np.eye(n.shape[1])).max() <= 1e-12
    assert np.abs(n @ n.T - vn @ vn.T).max() <= 1e-12
    q = _engine._row_space(a)
    assert np.abs(q @ q.T + n @ n.T - np.eye(a.shape[1])).max() <= 1e-12


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
        bases = system.target_bases()
        v0 = random_isometry(rng, system.dim, r0)
        n0 = _engine._null_space(_engine._affine_rows(system, v0, bases))
        for drop in (1, 2):
            v = v0 @ random_isometry(rng, r0, r0 - drop)
            got = _engine._restricted_null_space(v0, n0, v)
            fresh = _engine._null_space(_engine._affine_rows(system, v, bases))
            assert 0 < got.shape[1] == fresh.shape[1] < n0.shape[1]
            assert np.abs(got.T @ got - np.eye(got.shape[1])).max() <= 1e-10
            assert np.abs(got @ got.T - fresh @ fresh.T).max() <= 1e-10


def lift(v, h):
    """The D x D operator V h V^dag of a direction h on span(v)."""
    return v @ h @ v.conj().T


def test_duplicated_constraint_still_gives_a_direction():
    inst, rho = random_feasible_instance((2, 2, 2), [(0, 1), (1, 2)], 6, seed=4)
    twice = ConsistencyInstance(inst.dims, inst.constraints + inst.constraints[:1])
    system = twice.system
    v = support_basis(rho)[0]
    h = _engine.descent_direction_core(v, system, np.random.default_rng(0))
    assert h is not None and h.shape == (6, 6)
    assert abs(np.trace(lift(v, h))) <= 1e-9
    for c in system.constraints:
        assert np.linalg.norm(c.apply(lift(v, h))) <= 1e-9


def assert_none_without_draws(rho, system):
    """An empty null space is detected from the row rank alone, before any
    random seed is drawn."""
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert _engine.descent_direction_core(support_basis(rho)[0], system, rng) is None
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


def test_full_rows_retry_when_compressed_rows_miss_an_image():
    """Target bases that miss part of a target's support leave the compressed
    rows blind to it; the posts check fails and the full rows take over."""
    inst, rho = random_feasible_instance((2, 2, 2), [(0, 1), (1, 2)], 8, seed=6)
    system = inst.system
    narrow = [(g, vc[..., :1]) for g, vc in system.target_bases()]
    v = support_basis(rho)[0]
    h = _engine.descent_direction_core(v, system, np.random.default_rng(0),
                                       target_bases=narrow)
    assert h is not None
    for c in system.constraints:
        assert np.linalg.norm(c.apply(lift(v, h))) <= 1e-9


def test_stale_walk_basis_is_caught_by_the_posts_check():
    """A walk basis whose span does not hold the support gives candidates
    that move the constraints.  The posts check rejects them, and the
    full-row retry finds a direction from the rows on the support itself,
    in the support's coordinates."""
    inst, _ = random_feasible_instance((2,) * 5, list(combinations(range(5), 2)),
                                       32, seed=0)
    system = inst.system
    v, _ = support_basis(find_feasible(inst).state)
    bases = system.target_bases()
    assert v.shape[1] ** 2 <= 1 + sum(vc.shape[0] * vc.shape[2] ** 2 for _, vc in bases)
    rng = np.random.default_rng(61)
    other = random_isometry(rng, system.dim, v.shape[1])
    stale = other, _engine._null_space(_engine._affine_rows(system, other, bases))
    h = _engine.descent_direction_core(v, system, rng, target_bases=bases,
                                       walk_basis=stale)
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
        reference_rows(adjoint, v, np.eye(t.shape[0]))
        for t, (_, adjoint) in zip(instance.targets, maps)])
    res = np.concatenate([[1.0 - np.trace(x).real]] + [
        coords(t - forward(x)) for t, (forward, _) in zip(instance.targets, maps)])
    delta = np.linalg.pinv(a, rcond=1e-10) @ res
    return v @ sum(d * e for d, e in zip(delta, herm_basis(r))) @ v.conj().T


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
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


def test_row_residuals_match_the_maps():
    """The feasibility solver's residuals, block norms of A coords(x) - b,
    are the trace defect and the Frobenius residual of every constraint
    map."""
    rng = np.random.default_rng(29)
    for instance in projection_cases():
        system = instance.system
        x = random_hermitian(rng, system.dim)
        f = system.affine
        got = f.block_norms(f.apply(x) - f.target)
        want = [abs(np.trace(x) - 1.0)] + [np.linalg.norm(c.apply(x) - c.target)
                                           for c in system.constraints]
        assert got.shape == (len(want),)
        assert np.abs(got - want).max() <= 1e-12


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


def dense_factor(system):
    """The factor's arrays from the dense rows _affine_rows(system, I): their
    nonzeros in np.nonzero's order, moved onto the entries of the real view
    of the D x D matrix, and the targets' coordinates with block offsets."""
    d = system.dim
    rows = _engine._affine_rows(system, np.eye(d, dtype=complex))
    row, coord = np.nonzero(rows)
    diag, iu, ju = _engine._coord_index(d)
    upper = 2 * (iu * d + ju)
    entry = np.concatenate([2 * (diag * d + diag), upper, upper + 1])
    scale = np.repeat([1.0, math.sqrt(2)], [d, 2 * iu.size])
    blocks = [[1.0]] + [_engine._herm_coords(c.target) for c in system.constraints]
    return {"row": row, "col": entry[coord], "val": rows[row, coord] * scale[coord],
            "target": np.concatenate(blocks),
            "offsets": np.cumsum([0] + [len(b) for b in blocks[:-1]])}


def weighted_system():
    """Partial-trace index maps on dims (2, 3, 2) with random real weights,
    about a fifth of them exactly 0, so the factor's closed-form values meet
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


def test_factor_equals_the_dense_rows_bit_for_bit():
    """The factor is built from the maps' structure, but its arrays are
    those of the dense rows exactly: same order, dtypes and float64 values,
    so the solver's iterates do not move."""
    for name, system in factor_cases():
        f = system.affine
        for key, want in dense_factor(system).items():
            got = getattr(f, key)
            assert got.dtype == want.dtype, (name, key)
            assert np.array_equal(got, want), (name, key)


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

    def climb_once(grad, *args):
        calls.append(len(args[-1]))
        if len(calls) == 3:
            return grad.view(np.float64).ravel().copy()
        return lbfgs(grad, *args)

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


def test_residual_history_of_a_plateau():
    """The contradictory two-qubit instance has its square-sum bound at
    D = 4, so the search stops at a stationary point of the full-rank least
    squares, well before the plateau window; its history ends at the best
    residual the report recomputes."""
    found = _engine.solve_feasible(contradictory_system())
    assert not found.converged and "plateau" in found.message
    assert "stationary point of the rank-4 least squares" in found.message
    assert found.iterations < _engine.PLATEAU_WINDOW and found.factor_rank == 4
    assert_history(found)
    assert found.residual_history[-1] == pytest.approx(found.report.max_residual,
                                                       rel=1e-9)


def test_plateau_rule_stops_a_run_without_a_stationary_exit(monkeypatch):
    """With the stationary exit switched off, the contradictory instance
    stops on the unchanged plateau rule after the window."""
    monkeypatch.setattr(_engine, "STATIONARY_RTOL", 0.0)
    found = _engine.solve_feasible(contradictory_system())
    assert not found.converged and "plateau" in found.message
    assert f"improvement over the last {_engine.PLATEAU_WINDOW}" in found.message
    assert found.iterations > _engine.PLATEAU_WINDOW
    assert_history(found)


def monogamy_system():
    """Two Bell pairs sharing a qubit: infeasible, with square-sum bound 1."""
    bell = np.zeros((4, 4), dtype=complex)
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    return ConsistencyInstance((2, 2, 2), (MarginalConstraint((0, 1), bell),
                                           MarginalConstraint((1, 2), bell))
                               ).system


def clashing_pairs_system():
    """All pairs of three qubits, each pinned to the marginal of a different
    random witness: infeasible, with square-sum bound 6 < D = 8."""
    pairs = list(combinations(range(3), 2))
    return ConsistencyInstance((2,) * 3, tuple(
        random_feasible_instance((2,) * 3, pairs, rank, seed=seed)[0].constraints[i]
        for i, (rank, seed) in enumerate(((4, 269), (3, 307), (3, 40))))
    ).system


def test_factor_rank_is_the_width_of_the_best_iterate(monkeypatch):
    """factor_rank is the width of the factor behind the returned state, the
    best iterate.  Both runs end at the rank-8 stationary point, with the
    plateau rule out of reach.  On the monogamy instance an iterate after
    the pad to D beats the best residual at k = 1, so the width is 8; on the
    clashing pairs none does, so it stays the bound, 6."""
    monkeypatch.setattr(_engine, "PLATEAU_WINDOW", 10 ** 9)
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


def test_stationary_point_below_full_rank_is_never_reported():
    """At k = 1 the monogamy instance has a stationary point far above tol;
    the factor is padded to D = 8 and the verdict comes from the full-rank
    least squares."""
    system = monogamy_system()
    assert system.square_sum_bound() == 1
    found = _engine.solve_feasible(system)
    assert not found.converged and found.factor_rank == 8
    assert "stationary point of the rank-8 least squares" in found.message
    assert "possibly infeasible" in found.message
    assert found.report.max_residual > 0.1


def test_feasible_state_has_rank_at_most_the_bound():
    """A rank-1 witness on three qubits with every pair pinned: the factor
    has the square-sum bound as its width, so the state's rank is at most
    that, and it is handed over well inside the repair's inner tolerance."""
    inst, _ = random_feasible_instance((2,) * 3, list(combinations(range(3), 2)),
                                       1, seed=0)
    system = inst.system
    found = _engine.solve_feasible(system)
    bound = system.square_sum_bound()
    assert found.converged and found.factor_rank == bound == 3
    assert np.linalg.matrix_rank(found.state, tol=1e-12) <= bound
    assert found.report.max_residual <= _engine.DEFAULT_TOL / 10


def test_feasibility_iterations_decompose_no_state(monkeypatch):
    """The solver's iterations are products with A, A^T and the factor: the
    eigendecompositions of a run are those of the bound's target ranks and
    of the final residual_report, whatever the budget, and the one LAPACK
    call of an iteration is the k x k inverse of its metric.  The L-BFGS
    memory and the line search's cubic add none."""
    inst, _ = random_feasible_instance((2,) * 4, list(combinations(range(4), 2)),
                                       1, seed=0)
    system = inst.system
    k = system.square_sum_bound()
    calls = []
    for name in ("eigh", "eigvalsh", "eigvals", "inv"):
        def spy(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)

    def run(max_iters):
        calls.clear()
        fresh = _engine.ConstraintSystem(system.dim, system.constraints)
        found = _engine.solve_feasible(fresh, max_iters=max_iters)
        assert not found.converged and found.iterations == max_iters
        return list(calls)

    short, long = run(20), run(40)
    assert [c for c in short if c[0] != "inv"] == [c for c in long if c[0] != "inv"]
    assert short.count(("eigvalsh", (16, 16))) == 1
    assert Counter(long) - Counter(short) == Counter({("inv", (k, k)): 20})
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


def test_lbfgs_memory_matches_a_fresh_build(monkeypatch):
    """Kept incrementally, S Y^T and R^-1 equal s @ y.T and inv(triu(.)) of
    the pairs handed to the direction, to 1e-12 of their largest entry:
    through the monogamy instance's pad from k = 1 to 8, appends past
    LBFGS_MEMORY and a forced ascent fallback that empties the memory."""
    lbfgs = _engine._lbfgs_direction
    seen = []

    def spy(grad, g, eta, s, y, sy, rinv):
        seen.append((g.shape[1], len(s)))
        if len(s):
            fresh = s @ y.T
            assert np.abs(sy - fresh).max() <= 1e-12 * np.abs(fresh).max()
            inverse = np.linalg.inv(np.triu(fresh))
            assert np.abs(rinv - inverse).max() <= 1e-12 * np.abs(inverse).max()
        if seen.count((8, _engine.LBFGS_MEMORY)) == 3:
            return grad.view(np.float64).ravel().copy()
        return lbfgs(grad, g, eta, s, y, sy, rinv)

    monkeypatch.setattr(_engine, "_lbfgs_direction", spy)
    found = _engine.solve_feasible(monogamy_system())
    assert found.factor_rank == 8 and "rank-8" in found.message
    widths = [w for w, _ in seen]
    assert widths[0] == 1 and widths[-1] == 8
    fallback = seen.index((8, _engine.LBFGS_MEMORY)) + 2
    assert seen[fallback + 1] == (8, 1) and len(seen) > fallback + 3


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
        _engine._repair(system, np.eye(4)[:, :1], np.ones(1), inner_tol=1e-9,
                        hard_tol=1e-8, rank_tol=1e-9)
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
    assert check_consistency(inst, state).max_residual <= _engine.DEFAULT_REPAIR_TOL


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


def test_walk_builds_the_compressed_rows_once(monkeypatch):
    """From find_feasible's state on a full-rank 5-qubit all-pairs instance,
    the walk builds its null basis once and restricts it at every later
    step: the ten pair constraints are one group with full-rank targets, so
    constraint_rows runs with target bases once per walk, for all ten at
    once, not once per step or per constraint."""
    inst, _ = random_feasible_instance((2,) * 5, list(combinations(range(5), 2)),
                                       32, seed=0)
    found = find_feasible(inst)
    compressed = []
    rows = _engine.constraint_rows

    def spy(g, v, vc):
        if not (vc.shape[-1] == vc.shape[-2] and (vc == np.eye(vc.shape[-1])).all()):
            compressed.append(g)
        return rows(g, v, vc)

    monkeypatch.setattr(_engine, "constraint_rows", spy)
    _, trace = reduce_rank(found.state, inst)
    assert len(trace.steps) >= 2 and trace.null_space_exhausted
    assert len(inst.system.groups) == len(compressed) == 1
    assert compressed[0].positions.tolist() == list(range(len(inst.constraints)))


def test_walk_above_the_rows_decomposes_no_larger_gram(monkeypatch):
    """Criterion 3's walk starts at rank 32, where r^2 = 1024 exceeds the
    m = 161 descent rows.  Its Gram matrices stay m x m there, and no
    eigh of the walk is larger: the r^2 x r^2 side is never formed."""
    inst = maximally_mixed_klocal_instance(5, 2)
    sizes = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        sizes.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    state, trace = reduce_rank(np.eye(32, dtype=complex) / 32, inst, seed=0)
    assert trace.steps[0].rank_before == 32
    assert 161 in sizes and max(sizes) <= 161
    assert numerical_rank(state) <= trace.bound == 12


def test_each_support_lies_in_the_one_before(monkeypatch):
    """Criterion 9's walks on all pairs of 5 qubits, rank-1 and rank-2
    witnesses: the solver's state keeps eigenvalues just above rank_tol, yet
    every support the walk descends from lies in the span of the one before
    to 1e-12, so the walk builds the null basis of its m = 161 descent rows
    once and only restricts it."""
    descent, null_space = _engine.descent_direction_core, _engine._null_space
    for rank in (1, 2):
        inst, _ = random_feasible_instance((2,) * 5, list(combinations(range(5), 2)),
                                           rank, seed=0)
        found = find_feasible(inst)
        assert found.converged
        supports, builds = [], []

        def descent_spy(v, *args, **kwargs):
            supports.append(v)
            return descent(v, *args, **kwargs)

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
