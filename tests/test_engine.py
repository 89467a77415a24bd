"""The engine's linear algebra on the constraint map: batched constraint rows,
the Gram null-space projector of the descent and the exact affine projection."""
import numpy as np

from qmarginal import _engine
from qmarginal.channels import (ChannelInstance, LocalChannel,
                                channel_instance_to_marginal, choi_from_kraus,
                                sub_channel)
from qmarginal.gallery import random_feasible_instance
from qmarginal.hilbert import sector_size, support_basis
from qmarginal.marginal import ConsistencyInstance, MarginalConstraint
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


def reference_rows(c, v, vc):
    """One adjoint call per target basis element F: the row is the
    coordinate vector of V^dag M*(vc F vc^dag) V."""
    state_basis = herm_basis(v.shape[1])
    rows = []
    for f in herm_basis(vc.shape[1]):
        z = v.conj().T @ c.adjoint(vc @ f @ vc.conj().T) @ v
        rows.append([np.vdot(e, z).real for e in state_basis])
    return np.array(rows)


def assert_rows_match(system, rho):
    v, _ = support_basis(rho)
    assert 1 < v.shape[1] < system.dim
    for c in system.constraints:
        compressed, _ = support_basis(c.target)
        full = np.eye(c.target.shape[0], dtype=complex)
        for vc in (compressed, full):
            got = _engine.constraint_rows(c, v, vc)
            assert got.shape == (vc.shape[1] ** 2, v.shape[1] ** 2)
            assert np.abs(got - reference_rows(c, v, vc)).max() <= 1e-12


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
    target = probe.engine_system().constraints[0].apply(sigma)
    return SectorInstance(statistics, n, d, k, target), sigma


def test_rows_match_reference_qudit():
    """Mixed local dimensions, non-adjacent kept factors, and targets of
    less than full rank, so the compressed rows differ from the full ones."""
    inst, rho = random_feasible_instance((2, 3, 2), [(0, 1), (1, 2), (0, 2)], 2,
                                         seed=7)
    assert any(np.linalg.matrix_rank(c.target) < c.target.shape[0]
               for c in inst.constraints)
    assert_rows_match(inst.engine_system(), rho)


def test_rows_match_reference_sectors():
    rng = np.random.default_rng(11)
    for statistics, n, d, k, rank in (("fermionic", 3, 5, 2, 4),
                                      ("fermionic", 3, 4, 1, 3),
                                      ("bosonic", 4, 2, 2, 2),
                                      ("bosonic", 3, 3, 2, 5),
                                      ("bosonic", 3, 2, 3, 2)):
        inst, sigma = sector_pair(rng, statistics, n, d, k, rank)
        assert_rows_match(inst.engine_system(), sigma)


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
    assert_rows_match(inst.engine_system(), choi)


def test_row_space_projector_matches_svd_with_duplicate_rows():
    """The same constraint listed twice makes exactly dependent rows; the
    Gram projector must still equal the SVD one and find the same rank."""
    inst, rho = random_feasible_instance((2, 2, 2), [(0, 1), (1, 2)], 6, seed=3)
    v, _ = support_basis(rho)
    first, second = (_engine.constraint_rows(c, v, support_basis(c.target)[0])
                     for c in inst.engine_system().constraints)
    a = np.vstack([first, second, first])
    q = _engine._row_space(a)
    _, s, vt = np.linalg.svd(a)
    vk = vt[s > 1e-6 * s[0]].T
    assert q.shape[1] == vk.shape[1] < a.shape[1]
    assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-12
    eye = np.eye(a.shape[1])
    assert np.abs((eye - q @ q.T) - (eye - vk @ vk.T)).max() <= 1e-12


def test_duplicated_constraint_still_gives_a_direction():
    inst, rho = random_feasible_instance((2, 2, 2), [(0, 1), (1, 2)], 6, seed=4)
    twice = ConsistencyInstance(inst.dims, inst.constraints + inst.constraints[:1])
    system = twice.engine_system()
    h = _engine.descent_direction_core(rho, system, np.random.default_rng(0))
    assert h is not None
    assert abs(np.trace(h)) <= 1e-9
    for c in system.constraints:
        assert np.linalg.norm(c.apply(h)) <= 1e-9


def assert_none_without_draws(rho, system):
    """An empty null space is detected from the row rank alone, before any
    random seed is drawn."""
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert _engine.descent_direction_core(rho, system, rng) is None
    assert rng.bit_generator.state == before


def test_empty_null_space_pure_state():
    rng = np.random.default_rng(2)
    inst, sigma = sector_pair(rng, "fermionic", 3, 5, 2, 1)
    assert_none_without_draws(sigma, inst.engine_system())


def test_empty_null_space_fully_pinned():
    """A constraint on every factor pins the whole state: on qubits, and as
    a sector marginal with k == N."""
    inst, rho = random_feasible_instance((2, 2), [(0, 1)], 3, seed=1)
    assert_none_without_draws(rho, inst.engine_system())
    inst, sigma = sector_pair(np.random.default_rng(3), "bosonic", 3, 3, 3, 4)
    assert_none_without_draws(sigma, inst.engine_system())


def test_full_rows_retry_when_compressed_rows_miss_an_image():
    """Target bases that miss part of a target's support leave the compressed
    rows blind to it; the posts check fails and the full rows take over."""
    inst, rho = random_feasible_instance((2, 2, 2), [(0, 1), (1, 2)], 8, seed=6)
    system = inst.engine_system()
    narrow = [support_basis(c.target)[0][:, :1] for c in system.constraints]
    h = _engine.descent_direction_core(rho, system, np.random.default_rng(0),
                                       target_bases=narrow)
    assert h is not None
    for c in system.constraints:
        assert np.linalg.norm(c.apply(h)) <= 1e-9


def coords(m):
    """Coordinates of a Hermitian matrix in the herm_basis order."""
    return np.array([np.vdot(e, m).real for e in herm_basis(m.shape[0])])


def reference_correction(system, x, v):
    """y - x of the least-squares projection with corrections on span(v),
    from a dense pinv of the trace row and the per-basis adjoint rows."""
    r = v.shape[1]
    a = np.vstack([coords(np.eye(r))] + [
        reference_rows(c, v, np.eye(c.target.shape[0])) for c in system.constraints])
    res = np.concatenate([[1.0 - np.trace(x).real]] + [
        coords(c.target - c.apply(x)) for c in system.constraints])
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
    return [inst.engine_system(), sector.engine_system(), channel.engine_system()]


def test_projection_lands_on_the_slice_with_the_least_norm_correction():
    """On a qudit, a sector and a channel instance with its TP row: every
    constraint and the trace hold exactly, and the correction is the
    minimum-norm one of the dense reference."""
    rng = np.random.default_rng(17)
    for system in projection_cases():
        x = random_hermitian(rng, system.dim)
        y = _engine.project_affine(system, x)
        for c in system.constraints:
            assert np.abs(c.apply(y) - c.target).max() <= 1e-12
        assert abs(np.trace(y) - 1.0) <= 1e-12
        eye = np.eye(system.dim, dtype=complex)
        assert np.abs((y - x) - reference_correction(system, x, eye)).max() <= 1e-10


def test_projection_confined_to_a_support():
    """With a support V the correction lies on span(V) and is the reference
    correction with the rows restricted to V."""
    rng = np.random.default_rng(19)
    for system in projection_cases():
        v = random_isometry(rng, system.dim, system.dim - 3)
        x = random_hermitian(rng, system.dim)
        y = _engine.project_affine(system, x, support=v)
        p = v @ v.conj().T
        assert np.abs(p @ (y - x) @ p - (y - x)).max() <= 1e-12
        assert np.abs((y - x) - reference_correction(system, x, v)).max() <= 1e-10


def test_projection_on_a_contradictory_instance_is_least_squares():
    """A pure single-qubit marginal against a maximally mixed pair: no state
    meets both, and the projection is the reference least-squares point."""
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    inst = ConsistencyInstance((2, 2), (MarginalConstraint((0,), ket0),
                                        MarginalConstraint((0, 1), np.eye(4) / 4)))
    system = inst.engine_system()
    x = random_hermitian(np.random.default_rng(23), 4)
    y = _engine.project_affine(system, x)
    assert max(np.linalg.norm(c.apply(y) - c.target) for c in system.constraints) > 0.1
    assert np.abs((y - x) - reference_correction(system, x, np.eye(4))).max() <= 1e-10
