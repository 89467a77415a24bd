"""Instance records, residual reports, rank bounds, and the feasibility search."""
import numpy as np
import pytest

from qmarginal.hilbert import partial_trace
from qmarginal.marginal import (ConsistencyInstance, MarginalConstraint,
                                barvinok_bound, check_consistency,
                                find_feasible, theorem1_bound)


def bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


def mm_instance(n, k):
    from itertools import combinations
    eye = np.eye(2 ** k) / 2 ** k
    cons = tuple(MarginalConstraint(s, eye) for s in combinations(range(n), k))
    return ConsistencyInstance((2,) * n, cons)


def test_constraint_validation():
    good = MarginalConstraint((0,), np.eye(2) / 2)
    assert good.subsystems == (0,)
    with pytest.raises(ValueError):
        MarginalConstraint((0,), np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        MarginalConstraint((0,), np.diag([1.5, -0.5]))  # not PSD
    with pytest.raises(ValueError):
        MarginalConstraint((1, 0), np.eye(4) / 4)  # not increasing
    with pytest.raises(ValueError):
        MarginalConstraint((0,), np.array([[0.5, 1.0], [0.0, 0.5]]))  # not hermitian


def test_instance_validation():
    with pytest.raises(ValueError):
        ConsistencyInstance((2, 1), (MarginalConstraint((0,), np.eye(2) / 2),))
    with pytest.raises(ValueError):
        # target dimension does not match the named subsystems
        ConsistencyInstance((2, 2), (MarginalConstraint((0, 1), np.eye(2) / 2),))
    with pytest.raises(ValueError):
        ConsistencyInstance((2, 2), (MarginalConstraint((2,), np.eye(2) / 2),))
    inst = mm_instance(3, 2)
    assert inst.dim == 8
    assert len(inst.constraints) == 3


def test_check_consistency_exact_witness():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    cons = tuple(MarginalConstraint((i,), partial_trace(rho, (2, 2, 2), (i,)))
                 for i in range(3))
    inst = ConsistencyInstance((2, 2, 2), cons)
    report = check_consistency(inst, rho)
    assert report.is_consistent(1e-10)
    assert report.max_residual <= 1e-13
    assert report.trace_error <= 1e-13
    assert report.psd_violation <= 1e-13


def test_check_consistency_known_distance():
    """Marginal of I/4 on one qubit misses |0><0| by exactly 1/sqrt(2)."""
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    inst = ConsistencyInstance((2, 2), (MarginalConstraint((0,), ket0),))
    report = check_consistency(inst, np.eye(4, dtype=complex) / 4)
    assert abs(report.residuals[0] - 1 / np.sqrt(2)) <= 1e-12
    assert not report.is_consistent(1e-8)


def test_check_consistency_flags_psd_and_trace():
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    inst = ConsistencyInstance((2,), (MarginalConstraint((0,), ket0),))
    bad = np.diag([1.5, -0.5]).astype(complex)
    report = check_consistency(inst, bad)
    assert report.psd_violation >= 0.5 - 1e-12
    assert report.trace_error <= 1e-12


def test_theorem1_bound_values():
    # ten rank-4 targets: isqrt(160) = 12
    assert theorem1_bound(mm_instance(5, 2)) == 12
    # fifteen rank-4 targets: isqrt(240) = 15
    assert theorem1_bound(mm_instance(6, 2)) == 15
    # three rank-4 targets: isqrt(48) = 6
    assert theorem1_bound(mm_instance(3, 2)) == 6


def test_barvinok_bound_values():
    # dimension-square sums, ignoring target ranks
    assert barvinok_bound(mm_instance(5, 2)) == 17  # isqrt(320)
    assert barvinok_bound(mm_instance(6, 2)) == 21  # isqrt(480)


def test_bounds_rank_one_target():
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0
    inst = ConsistencyInstance(
        (2, 2), (MarginalConstraint((0, 1), np.outer(v, v.conj())),))
    assert theorem1_bound(inst) == 1
    assert barvinok_bound(inst) == 5  # isqrt(32)


def test_bounds_ordering_property():
    """Rank bound never exceeds the dimension-count bound."""
    rng = np.random.default_rng(13)
    from qmarginal.gallery import random_feasible_instance
    for trial in range(6):
        n = 3 + trial % 2
        rank = int(rng.integers(1, 2 ** n + 1))
        subsets = [(i, (i + 1) % n) for i in range(n - 1)]
        subsets = [tuple(sorted(s)) for s in subsets]
        inst, _ = random_feasible_instance((2,) * n, subsets, rank, seed=trial)
        assert theorem1_bound(inst) <= barvinok_bound(inst)


def test_bounds_degenerate_instance():
    inst = ConsistencyInstance((2, 2), ())
    assert theorem1_bound(inst) == 0
    assert barvinok_bound(inst) == 0


def test_find_feasible_exact_instance():
    inst = mm_instance(3, 2)
    found = find_feasible(inst)
    assert found.converged
    assert found.report.max_residual <= 1e-8
    w = np.linalg.eigvalsh(found.state)
    assert w.min() >= -1e-10
    assert abs(np.trace(found.state).real - 1) <= 1e-10


def test_find_feasible_degenerate_instance():
    inst = ConsistencyInstance((2, 2), ())
    found = find_feasible(inst)
    assert found.converged
    assert np.allclose(found.state, np.eye(4) / 4)


def test_find_feasible_random_targets():
    rng = np.random.default_rng(21)
    from qmarginal.gallery import random_feasible_instance
    for trial in range(3):
        subsets = [(0, 1), (1, 2), (0, 2)]
        inst, _ = random_feasible_instance((2, 2, 2), subsets, 8, seed=trial)
        found = find_feasible(inst)
        assert found.converged, found.message
        assert found.report.max_residual <= 1e-8


def assert_certified(found):
    """A non-converged run that ends on a checked dual certificate, whose
    bracket [lower, upper] the message carries, with 0 < lower <= upper and
    upper the root square sum of the returned state's residuals."""
    cert = found.certificate
    assert not found.converged and cert is not None
    assert found.message.startswith(
        f"certified infeasible after {found.iterations} iterations: ")
    assert f"[{cert.lower:.3e}, {cert.upper:.3e}]" in found.message
    assert 0 < cert.lower <= cert.upper
    assert cert.upper == pytest.approx(np.linalg.norm(found.report.residuals), rel=1e-12)
    assert found.report.max_residual > 0.1


def test_find_feasible_contradictory_is_certified():
    """Conflicting single-qubit and pair targets end on a certificate."""
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    inst = ConsistencyInstance(
        (2, 2), (MarginalConstraint((0,), ket0),
                 MarginalConstraint((0, 1), np.eye(4) / 4)))
    assert_certified(find_feasible(inst))


def test_find_feasible_monogamy_is_certified():
    bell = bell_state()
    inst = ConsistencyInstance(
        (2, 2, 2), (MarginalConstraint((0, 1), bell),
                    MarginalConstraint((1, 2), bell)))
    assert_certified(find_feasible(inst))
