"""Tests of the benchmark's independent output checker.

    python3 -m pytest bench/test_check.py

A corrupted state and wrong infeasibility verdicts must count as failed;
the checker's own maps must agree with the package's where both exist.
"""
import os
import sys
from itertools import combinations

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import check  # noqa: E402
import workloads  # noqa: E402
from qmarginal import (choi_from_kraus, partial_trace,  # noqa: E402
                       random_feasible_instance, sector_isometry)


def _witness_case():
    inst, witness = random_feasible_instance(
        (2, 2, 2), list(combinations(range(3), 2)), 2, seed=3)
    cons = [(c.subsystems, c.target) for c in inst.constraints]
    return inst, witness, cons, check.square_sum_bound(t for _, t in cons)


def test_partial_trace_matches_package():
    rng = np.random.default_rng(0)
    dims = (2, 3, 2)
    x = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    for keep in ((0,), (1,), (2,), (0, 2), (1, 2), (0, 1, 2)):
        assert np.allclose(check.partial_trace(x, dims, keep),
                           partial_trace(x, dims, keep), atol=1e-12)


def test_sector_marginal_of_mixed_state_is_mixed():
    for stat, n, d, k in (("fermionic", 3, 4, 2), ("bosonic", 4, 2, 2)):
        wn = sector_isometry(stat, n, d).isometry
        wk = sector_isometry(stat, k, d).isometry
        sigma = np.eye(wn.shape[1]) / wn.shape[1]
        got = check.sector_marginal(sigma, wn, wk, d, n, k)
        assert np.allclose(got, np.eye(wk.shape[1]) / wk.shape[1], atol=1e-12)


def test_exact_witness_passes():
    inst, witness, cons, bound = _witness_case()
    v = check.state_verdict(witness, check.qudit_residual(witness, inst.dims, cons),
                            bound)
    assert not v.failed and not v.wrong
    assert v.rank == 2


def test_corrupted_state_counts_as_failed():
    inst, witness, cons, bound = _witness_case()
    bad = witness.copy()
    bad[0, 1] += 1e-3
    bad[1, 0] += 1e-3
    v = check.state_verdict(bad, check.qudit_residual(bad, inst.dims, cons), bound)
    assert v.failed and v.wrong and "residual" in v.reason
    # a state of too high rank is wrong even with exact marginals
    v = check.state_verdict(witness, 0.0, 1)
    assert v.failed and v.wrong and "rank" in v.reason


def test_wrong_infeasibility_verdicts_count_as_failed():
    # an infeasible instance answered with a solution
    v = check.infeasible_verdict(0, True)
    assert v.failed and v.wrong
    # exit 1 but a document was still written
    assert check.infeasible_verdict(1, True).failed
    assert not check.infeasible_verdict(1, False).failed
    # a feasible instance given up on
    v = check.gave_up_verdict("residual plateau; instance possibly infeasible")
    assert v.failed and not v.wrong


def test_cli_case_flags_a_solution_to_an_infeasible_instance(tmp_path):
    cases = workloads.infeasible_cli(0, str(tmp_path))
    case = cases[0]
    out = tmp_path / f"{case.label}.out.json"
    out.write_text("{}")
    v = case.check((0, ""))
    assert v.failed and v.wrong
    case.reset()
    assert not out.exists()
    assert not case.check((1, "after 501 iterations")).failed


def test_kraus_checks_catch_a_non_trace_preserving_set():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    q, _ = np.linalg.qr(g)
    ks = [q[:2], q[2:]]
    choi = choi_from_kraus(ks, (2,), (2,)).choi
    assert max(check.kraus_defects(ks, choi, 2)) < 1e-12
    tp, rebuild = check.kraus_defects([1.01 * k for k in ks], choi, 2)
    assert tp > check.TP_TOL and rebuild > check.RESIDUAL_TOL
