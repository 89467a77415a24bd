"""The descent linear system: batched constraint rows and the Gram projection."""
import numpy as np

from qmarginal import _engine
from qmarginal.channels import (ChannelInstance, LocalChannel,
                                channel_instance_to_marginal, choi_from_kraus,
                                sub_channel)
from qmarginal.gallery import random_feasible_instance
from qmarginal.hilbert import sector_size, support_basis
from qmarginal.marginal import ConsistencyInstance, MarginalConstraint
from qmarginal.marginal import engine_system as marginal_system
from qmarginal.sector import SectorInstance
from qmarginal.sector import engine_system as sector_system


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
    target = sector_system(probe).constraints[0].apply(sigma)
    return SectorInstance(statistics, n, d, k, target), sigma


def test_rows_match_reference_qudit():
    """Mixed local dimensions, non-adjacent kept factors, and targets of
    less than full rank, so the compressed rows differ from the full ones."""
    inst, rho = random_feasible_instance((2, 3, 2), [(0, 1), (1, 2), (0, 2)], 2,
                                         seed=7)
    assert any(np.linalg.matrix_rank(c.target) < c.target.shape[0]
               for c in inst.constraints)
    assert_rows_match(marginal_system(inst), rho)


def test_rows_match_reference_sectors():
    rng = np.random.default_rng(11)
    for statistics, n, d, k, rank in (("fermionic", 3, 5, 2, 4),
                                      ("fermionic", 3, 4, 1, 3),
                                      ("bosonic", 4, 2, 2, 2),
                                      ("bosonic", 3, 3, 2, 5),
                                      ("bosonic", 3, 2, 3, 2)):
        inst, sigma = sector_pair(rng, statistics, n, d, k, rank)
        assert_rows_match(sector_system(inst), sigma)


def test_rows_match_reference_channel_with_tp_row():
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
    assert_rows_match(marginal_system(inst), joint.choi)


def test_row_space_projector_matches_svd_with_duplicate_rows():
    """The same constraint listed twice makes exactly dependent rows; the
    Gram projector must still equal the SVD one and find the same rank."""
    inst, rho = random_feasible_instance((2, 2, 2), [(0, 1), (1, 2)], 6, seed=3)
    v, _ = support_basis(rho)
    first, second = (_engine.constraint_rows(c, v, support_basis(c.target)[0])
                     for c in marginal_system(inst).constraints)
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
    system = marginal_system(twice)
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
    assert_none_without_draws(sigma, sector_system(inst))


def test_empty_null_space_fully_pinned():
    """A constraint on every factor pins the whole state: on qubits, and as
    a sector marginal with k == N."""
    inst, rho = random_feasible_instance((2, 2), [(0, 1)], 3, seed=1)
    assert_none_without_draws(rho, marginal_system(inst))
    inst, sigma = sector_pair(np.random.default_rng(3), "bosonic", 3, 3, 3, 4)
    assert_none_without_draws(sigma, sector_system(inst))


def test_full_rows_retry_when_compressed_rows_miss_an_image():
    """Target bases that miss part of a target's support leave the compressed
    rows blind to it; the posts check fails and the full rows take over."""
    inst, rho = random_feasible_instance((2, 2, 2), [(0, 1), (1, 2)], 8, seed=6)
    system = marginal_system(inst)
    narrow = [support_basis(c.target)[0][:, :1] for c in system.constraints]
    h = _engine.descent_direction_core(rho, system, np.random.default_rng(0),
                                       target_bases=narrow)
    assert h is not None
    for c in system.constraints:
        assert np.linalg.norm(c.apply(h)) <= 1e-9
