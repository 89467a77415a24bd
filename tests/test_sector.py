"""Fermionic and bosonic sector instances, the sigma family, sector reduction."""
import math

import numpy as np
import pytest

from qmarginal import _engine, hilbert, sector
from qmarginal.hilbert import sector_isometry, sector_partial_trace, sector_size
from qmarginal.marginal import check_consistency, find_feasible
from qmarginal.numerics import numerical_rank
from qmarginal.reduction import reduce_rank
from qmarginal.sector import (SectorInstance, admissible_sigma_range,
                              bosonic_maximally_mixed_2, bosonic_sigma_p,
                              find_feasible_sector, reduce_rank_sector)


def dicke_overlap(n, m, j):
    """Amplitude of the two-particle block with j excitations inside an
    n-particle two-level Dicke state carrying m excitations."""
    if not 0 <= j <= 2 or not 0 <= m - j <= n - 2:
        return 0.0
    return math.sqrt(math.comb(2, j) * math.comb(n - 2, m - j) / math.comb(n, m))


def two_particle_marginal_oracle(sigma, n):
    """Combinatorial two-boson marginal of an (n+1)-dimensional occupation
    state, bypassing the isometry machinery entirely."""
    out = np.zeros((3, 3), dtype=complex)
    for m in range(n + 1):
        for mp in range(n + 1):
            if sigma[m, mp] == 0:
                continue
            for j in range(3):
                jp = j - (m - mp)
                if not 0 <= jp <= 2:
                    continue
                out[j, jp] += (sigma[m, mp] * dicke_overlap(n, m, j)
                               * dicke_overlap(n, mp, jp))
    return out


def test_admissible_range_values():
    assert admissible_sigma_range(4) == (1, 3)
    assert admissible_sigma_range(5) == (2, 3)
    assert admissible_sigma_range(6) == (2, 4)
    assert admissible_sigma_range(7) == (2, 5)
    assert admissible_sigma_range(9) == (3, 6)


def test_sigma_p_out_of_range():
    with pytest.raises(ValueError, match="admissible range"):
        bosonic_sigma_p(6, 0)
    with pytest.raises(ValueError, match="admissible range"):
        bosonic_sigma_p(6, 5)


def test_sigma_p_is_a_state_with_fixed_marginal():
    """Every admissible member has unit trace, is PSD, has rank at most 3,
    and shares the maximally mixed two-particle marginal."""
    target = bosonic_maximally_mixed_2()
    assert np.allclose(target, np.eye(3) / 3)
    for n in range(4, 10):
        lo, hi = admissible_sigma_range(n)
        emb = sector_isometry("bosonic", n, 2)
        for p in range(lo, hi + 1):
            sigma = bosonic_sigma_p(n, p)
            assert abs(np.trace(sigma).real - 1.0) <= 1e-14
            assert np.linalg.eigvalsh(sigma).min() >= -1e-15
            assert numerical_rank(sigma) <= 3
            marg = sector_partial_trace(sigma, emb, 2)
            assert np.linalg.norm(marg - target) <= 1e-12


def test_sigma_p_rank_two_members():
    """The boundary weight vanishes when 3p+1 = n or 2n+1 = 3p."""
    assert numerical_rank(bosonic_sigma_p(4, 1)) == 2
    assert numerical_rank(bosonic_sigma_p(7, 2)) == 2
    assert numerical_rank(bosonic_sigma_p(5, 2)) == 3
    assert numerical_rank(bosonic_sigma_p(6, 3)) == 3


def test_bosonic_marginal_matches_combinatorial_oracle():
    rng = np.random.default_rng(23)
    for n in (4, 5, 6):
        emb = sector_isometry("bosonic", n, 2)
        g = (rng.standard_normal((n + 1, n + 1))
             + 1j * rng.standard_normal((n + 1, n + 1)))
        sigma = g @ g.conj().T
        sigma /= np.trace(sigma).real
        got = sector_partial_trace(sigma, emb, 2)
        want = two_particle_marginal_oracle(sigma, n)
        assert np.linalg.norm(got - want) <= 1e-12


def test_sigma_p_marginal_via_oracle():
    for n, p in ((4, 2), (7, 3), (9, 4)):
        sigma = bosonic_sigma_p(n, p)
        assert np.linalg.norm(
            two_particle_marginal_oracle(sigma, n) - np.eye(3) / 3) <= 1e-12


def test_sector_instance_validation():
    eye6 = np.eye(6, dtype=complex) / 6
    inst = SectorInstance("fermionic", 3, 4, 2, eye6)
    assert inst.sector_dim == 4
    with pytest.raises(ValueError):
        SectorInstance("fermionic", 3, 4, 2, np.eye(4) / 4)  # wrong target dim
    with pytest.raises(ValueError):
        SectorInstance("fermionic", 3, 4, 4, eye6)  # k > N
    with pytest.raises(ValueError):
        SectorInstance("spin", 3, 4, 2, eye6)
    with pytest.raises(ValueError):
        SectorInstance("fermionic", 3, 4, 2, np.eye(6))  # trace 6


def test_sector_target_checks():
    """The shared target checks: unit trace, then positivity."""
    with pytest.raises(ValueError, match="unit trace"):
        SectorInstance("bosonic", 4, 2, 2, 2 * np.eye(3) / 3)
    with pytest.raises(ValueError, match="positive semidefinite"):
        SectorInstance("bosonic", 4, 2, 2, np.diag([1.5, -0.5, 0.0]))


def test_sector_sizes_match_isometry_columns():
    for statistics, n, d in (("fermionic", 1, 2), ("fermionic", 3, 4),
                             ("fermionic", 4, 4), ("fermionic", 2, 6),
                             ("bosonic", 1, 3), ("bosonic", 4, 2),
                             ("bosonic", 3, 3), ("bosonic", 2, 5)):
        want = sector_isometry(statistics, n, d).sector_dim
        assert sector_size(statistics, n, d) == want
        dk = sector_size(statistics, 1, d)
        inst = SectorInstance(statistics, n, d, 1, np.eye(dk) / dk)
        assert inst.sector_dim == want
    with pytest.raises(ValueError):
        sector_size("fermionic", 5, 4)
    with pytest.raises(ValueError):
        sector_size("spin", 2, 4)


def test_sector_engine_adjoint_identity():
    """<M(X), Y> == <X, M*(Y)>, M*(Y) from the system's affine rows (half
    the 2 S that gradient returns), and M equals sector_partial_trace."""
    rng = np.random.default_rng(29)
    inst = SectorInstance("bosonic", 4, 2, 2, np.eye(3, dtype=complex) / 3)
    system = inst.system
    con, f = system.constraints[0], system.affine
    emb = sector_isometry("bosonic", 4, 2)
    for _ in range(5):
        x = (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        y = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        x, y = (x + x.conj().T) / 2, (y + y.conj().T) / 2
        z = np.zeros(f.target.size)
        z[f.offsets[1]:] = _engine._herm_coords(y)
        lhs = np.trace(con.apply(x) @ y)
        rhs = np.trace(x @ f.gradient(z, np.empty((f.dim, 0)))[1]) / 2
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        assert np.linalg.norm(con.apply(x) - sector_partial_trace(x, emb, 2)) <= 1e-12


def test_sector_solve_reduce_and_check_build_no_isometry(monkeypatch):
    """find_feasible, reduce_rank and check_consistency on a sector instance
    work from the occupation index map; none builds a sector isometry."""
    calls = []
    real = hilbert.sector_isometry

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hilbert, "sector_isometry", spy)
    monkeypatch.setattr(sector, "sector_isometry", spy)
    inst = SectorInstance("fermionic", 3, 5, 2, np.eye(10, dtype=complex) / 10)
    found = find_feasible(inst)
    assert found.converged
    state, trace = reduce_rank(found.state, inst)
    assert trace.final_rank <= trace.bound
    assert check_consistency(inst, state).max_residual <= 1e-8
    assert calls == []


def test_fermionic_sector_reduction():
    """Three fermions in four levels with the maximally mixed two-particle
    target reduce to at most the target rank 6."""
    target = np.eye(6, dtype=complex) / 6
    inst = SectorInstance("fermionic", 3, 4, 2, target)
    found = find_feasible_sector(inst)
    assert found.converged
    state, trace = reduce_rank_sector(found.state, inst)
    assert trace.bound == 6
    assert numerical_rank(state) <= 6
    emb = sector_isometry("fermionic", 3, 4)
    assert np.linalg.norm(sector_partial_trace(state, emb, 2) - target) <= 1e-7
    assert np.linalg.eigvalsh(state).min() >= -1e-9


def test_bosonic_sector_reduction():
    """Four bosons in two levels against the maximally mixed pair target
    reduce to at most rank 3."""
    target = np.eye(3, dtype=complex) / 3
    inst = SectorInstance("bosonic", 4, 2, 2, target)
    found = find_feasible_sector(inst)
    assert found.converged
    state, trace = reduce_rank_sector(found.state, inst)
    assert trace.bound == 3
    assert numerical_rank(state) <= 3
    for step in trace.steps:
        assert step.rank_after < step.rank_before
    emb = sector_isometry("bosonic", 4, 2)
    assert np.linalg.norm(sector_partial_trace(state, emb, 2) - target) <= 1e-7


def test_generic_entry_points_take_a_sector_instance():
    """find_feasible_sector and reduce_rank_sector are find_feasible and
    reduce_rank, and a second run on a sector instance, with its system
    already built, returns exactly what the first did.  The reductions start
    from the maximally mixed sector state, which meets these targets and
    lies above the rank bound, so both walks take steps."""
    assert find_feasible_sector is find_feasible
    assert reduce_rank_sector is reduce_rank
    for inst in (SectorInstance("fermionic", 3, 6, 2, np.eye(15, dtype=complex) / 15),
                 SectorInstance("bosonic", 5, 2, 2, np.eye(3, dtype=complex) / 3)):
        found, found_sector = find_feasible(inst), find_feasible_sector(inst)
        assert found.converged and found.iterations == found_sector.iterations
        assert np.array_equal(found.state, found_sector.state)
        mixed = np.eye(inst.sector_dim, dtype=complex) / inst.sector_dim
        state, trace = reduce_rank(mixed, inst)
        state_sector, trace_sector = reduce_rank_sector(mixed, inst)
        assert trace.steps and trace == trace_sector
        assert np.array_equal(state, state_sector)


def test_sigma_p_solves_its_own_instance():
    """sigma_p members are feasible points of the maximally mixed pair target."""
    inst = SectorInstance("bosonic", 7, 2, 2, np.eye(3, dtype=complex) / 3)
    system = inst.system
    for p in range(2, 6):
        sigma = bosonic_sigma_p(7, p)
        res = np.linalg.norm(system.constraints[0].apply(sigma) - inst.target)
        assert res <= 1e-12
