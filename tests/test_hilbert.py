"""Tensor-factor plumbing: partial traces, embeddings, sector isometries."""
import numpy as np
import pytest

from qmarginal import _engine
from qmarginal.hilbert import (PauliExclusionError, embed_with_identity,
                               partial_trace, sector_isometry,
                               sector_partial_trace, support_basis,
                               support_projector)
from qmarginal.sector import SectorInstance


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_hermitian(rng, d):
    a = random_matrix(rng, d)
    return (a + a.conj().T) / 2


def test_partial_trace_basis_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # |00><00|
    m = partial_trace(rho, (2, 2), (0,))
    assert np.allclose(m, np.diag([1.0, 0.0]))


def test_partial_trace_bell_pair():
    """Tracing either qubit of a Bell pair leaves the maximally mixed state."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    rho = np.outer(v, v.conj())
    for keep in ((0,), (1,)):
        m = partial_trace(rho, (2, 2), keep)
        assert np.allclose(m, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_composes():
    """Tracing in two stages agrees with tracing in one."""
    rng = np.random.default_rng(14)
    x = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    dims = (2, 3, 2, 2)
    step1 = partial_trace(x, dims, (0, 1, 3))  # drop subsystem 2
    step2 = partial_trace(step1, (2, 3, 2), (0, 1))  # then drop the last
    direct = partial_trace(x, dims, (0, 1))
    assert np.linalg.norm(step2 - direct) <= 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(1)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 3)
    c = random_hermitian(rng, 2)
    full = np.kron(np.kron(a, b), c)
    tb, tc = np.trace(b), np.trace(c)
    assert np.allclose(partial_trace(full, (2, 3, 2), (0,)), a * tb * tc)
    assert np.allclose(partial_trace(full, (2, 3, 2), (1,)), b * np.trace(a) * tc)
    assert np.allclose(partial_trace(full, (2, 3, 2), (0, 2)),
                       np.kron(a, c) * tb)


def test_partial_trace_keep_all_is_identity_map():
    rng = np.random.default_rng(2)
    x = random_matrix(rng, 12)
    assert np.allclose(partial_trace(x, (3, 4), (0, 1)), x)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(3)
    x = random_matrix(rng, 8)
    m = partial_trace(x, (2, 2, 2), (1,))
    assert abs(np.trace(m) - np.trace(x)) <= 1e-12


def test_partial_trace_rejects_bad_subsystems():
    x = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        partial_trace(x, (2, 2), (1, 0))
    with pytest.raises(ValueError):
        partial_trace(x, (2, 2), (0, 0))
    with pytest.raises(ValueError):
        partial_trace(x, (2, 2), (2,))


def test_embed_with_identity_orderings():
    rng = np.random.default_rng(4)
    y = random_hermitian(rng, 3)
    assert np.allclose(embed_with_identity(y, (2, 3), (1,)), np.kron(np.eye(2), y))
    assert np.allclose(embed_with_identity(y, (3, 2), (0,)), np.kron(y, np.eye(2)))
    # middle factor of three
    z = random_hermitian(rng, 2)
    want = np.kron(np.kron(np.eye(2), z), np.eye(3))
    assert np.allclose(embed_with_identity(z, (2, 2, 3), (1,)), want)
    # embedding the identity gives the identity
    full = embed_with_identity(np.eye(2), (2, 2), (1,))
    assert np.allclose(full, np.eye(4))


def test_partial_trace_adjoint_identity():
    """Tr((Tr_B X) Y) equals Tr(X (Y embedded with identity)) to 1e-12."""
    rng = np.random.default_rng(5)
    dims = (2, 3, 2)
    for keep in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
        dk = int(np.prod([dims[i] for i in keep]))
        for _ in range(5):
            x = random_matrix(rng, 12)
            y = random_matrix(rng, dk)
            lhs = np.trace(partial_trace(x, dims, keep) @ y)
            rhs = np.trace(x @ embed_with_identity(y, dims, keep))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_support_projector_rank_deficient():
    rho = np.diag([0.5, 0.5, 0.0]).astype(complex)
    p = support_projector(rho)
    assert np.allclose(p, np.diag([1.0, 1.0, 0.0]))
    assert np.allclose(p @ p, p)


def test_support_projector_full_and_pure():
    assert np.allclose(support_projector(np.eye(2) / 2), np.eye(2))
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    assert np.allclose(support_projector(ket0), ket0)
    # a full-rank qubit mixture supports the whole space
    plus = np.full((2, 2), 0.5)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.allclose(support_projector(0.7 * plus + 0.3 * minus), np.eye(2))


def test_support_projector_rejects_indefinite():
    with pytest.raises(ValueError):
        support_projector(np.diag([1.0, -0.5]))


def test_support_basis_spans_range():
    rng = np.random.default_rng(6)
    g = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    rho = g @ g.conj().T
    v, w = support_basis(rho)
    assert v.shape == (5, 2)
    assert np.all(w > 0)
    assert np.linalg.norm(v.conj().T @ v - np.eye(2)) <= 1e-12
    # compressing and re-expanding is the identity on the support
    assert np.allclose(v @ (v.conj().T @ rho @ v) @ v.conj().T, rho)


def test_fermionic_isometry_two_levels():
    """Two fermions in two levels leave the singlet column only."""
    emb = sector_isometry("fermionic", 2, 2)
    assert emb.occupations == ((0, 1),)
    col = emb.isometry[:, 0]
    want = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert np.allclose(col, want)


def test_bosonic_isometry_two_levels():
    emb = sector_isometry("bosonic", 2, 2)
    assert emb.occupations == ((0, 0), (0, 1), (1, 1))
    w = emb.isometry
    s = 1 / np.sqrt(2)
    assert np.allclose(w[:, 0], [1, 0, 0, 0])
    assert np.allclose(w[:, 1], [0, s, s, 0])
    assert np.allclose(w[:, 2], [0, 0, 0, 1])


def test_fermionic_isometry_four_levels():
    """Two fermions in four levels span a six dimensional sector."""
    emb = sector_isometry("fermionic", 2, 4)
    assert emb.sector_dim == 6
    assert len(emb.occupations) == 6
    w = emb.isometry
    assert w.shape == (16, 6)
    assert np.linalg.norm(w.conj().T @ w - np.eye(6)) <= 1e-12


def test_sector_isometry_orthonormal_columns():
    for stat, n, d in (("fermionic", 2, 3), ("fermionic", 3, 4),
                       ("bosonic", 2, 2), ("bosonic", 4, 2), ("bosonic", 3, 3)):
        emb = sector_isometry(stat, n, d)
        w = emb.isometry
        assert np.linalg.norm(w.conj().T @ w - np.eye(emb.sector_dim)) <= 1e-12


def test_fermionic_isometry_needs_enough_levels():
    with pytest.raises(PauliExclusionError):
        sector_isometry("fermionic", 3, 2)


def test_sector_isometry_rejects_unknown_statistics():
    with pytest.raises(ValueError):
        sector_isometry("anyonic", 2, 2)


def test_sector_partial_trace_full_keep():
    rng = np.random.default_rng(7)
    emb = sector_isometry("bosonic", 3, 2)
    sigma = random_hermitian(rng, emb.sector_dim)
    assert np.allclose(sector_partial_trace(sigma, emb, 3), sigma)


def test_sector_partial_trace_matches_full_space():
    """Compressing the ordinary partial trace reproduces the sector marginal."""
    rng = np.random.default_rng(8)
    for stat, n, d, k in (("fermionic", 3, 4, 2), ("bosonic", 4, 2, 2),
                          ("fermionic", 2, 3, 1), ("bosonic", 3, 3, 2)):
        emb_n = sector_isometry(stat, n, d)
        emb_k = sector_isometry(stat, k, d)
        sigma = random_hermitian(rng, emb_n.sector_dim)
        got = sector_partial_trace(sigma, emb_n, k)
        lifted = emb_n.isometry @ sigma @ emb_n.isometry.conj().T
        traced = partial_trace(lifted, (d,) * n, tuple(range(k)))
        want = emb_k.isometry.conj().T @ traced @ emb_k.isometry
        assert np.linalg.norm(got - want) <= 1e-12


def test_sector_partial_trace_known_values():
    # the two-level singlet reduces to the maximally mixed single particle
    emb_f = sector_isometry("fermionic", 2, 2)
    singlet = np.array([[1.0]], dtype=complex)
    m = sector_partial_trace(singlet, emb_f, 1)
    assert np.allclose(m, np.eye(2) / 2, atol=1e-14)
    # two bosons both in the first level reduce to a single boson there
    emb_b = sector_isometry("bosonic", 2, 2)
    idx = emb_b.occupations.index((0, 0))
    sigma = np.zeros((3, 3), dtype=complex)
    sigma[idx, idx] = 1.0
    m = sector_partial_trace(sigma, emb_b, 1)
    assert np.allclose(m, np.diag([1.0, 0.0]), atol=1e-14)


def test_sector_maximally_mixed_marginals():
    """The sector maximally mixed state has sector maximally mixed marginals."""
    for stat, n, d, k in (("fermionic", 3, 4, 2), ("bosonic", 4, 2, 2)):
        emb_n = sector_isometry(stat, n, d)
        emb_k = sector_isometry(stat, k, d)
        mixed = np.eye(emb_n.sector_dim, dtype=complex) / emb_n.sector_dim
        m = sector_partial_trace(mixed, emb_n, k)
        assert np.linalg.norm(m - np.eye(emb_k.sector_dim) / emb_k.sector_dim) <= 1e-12


def test_sector_marginal_adjoint_identity():
    """<M(X), Y> == <X, M*(Y)> for the engine's sector marginal map, with
    M*(Y) from the system's affine rows (A^T on the coordinates of Y in the
    constraint's block), and M agrees with the independent
    sector_partial_trace."""
    rng = np.random.default_rng(9)
    for stat, n, d, k in (("fermionic", 3, 4, 2), ("bosonic", 4, 2, 2),
                          ("bosonic", 3, 3, 1)):
        emb_n = sector_isometry(stat, n, d)
        emb_k = sector_isometry(stat, k, d)
        dk = emb_k.sector_dim
        inst = SectorInstance(stat, n, d, k, np.eye(dk, dtype=complex) / dk)
        system = inst.system
        con, f = system.constraints[0], system.affine
        for _ in range(5):
            x = random_hermitian(rng, emb_n.sector_dim)
            y = random_hermitian(rng, dk)
            z = np.zeros(f.target.size)
            z[f.offsets[1]:] = _engine._herm_coords(y)
            lhs = np.trace(con.apply(x) @ y)
            rhs = np.trace(x @ f.adjoint(z))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
            sigma = random_matrix(rng, emb_n.sector_dim)
            assert np.linalg.norm(con.apply(sigma)
                                  - sector_partial_trace(sigma, emb_n, k)) <= 1e-12
