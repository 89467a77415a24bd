"""Acceptance gate: every headline claim, checked at its stated tolerance.

Each test prints exactly one PASS/FAIL line through the capture so the
verdicts are visible in the terminal run log.
"""
import json
import time
from itertools import combinations

import numpy as np

from qmarginal._engine import DEFAULT_MAX_ITERS
from qmarginal.channels import (ChannelInstance, LocalChannel, choi_from_kraus,
                                kraus_from_choi, reduce_kraus_rank, sub_channel)
from qmarginal.cli import main
from qmarginal.documents import dump_document, instance_to_doc
from qmarginal.gallery import (maximally_mixed_klocal_instance,
                               random_feasible_instance, ring_graph_state)
from qmarginal.hilbert import (embed_with_identity, partial_trace,
                               sector_isometry, sector_partial_trace)
from qmarginal.marginal import (ConsistencyInstance, MarginalConstraint,
                                check_consistency, find_feasible,
                                theorem1_bound)
from qmarginal.numerics import eig_hermitian, numerical_rank
from qmarginal.reduction import descent_direction, reduce_rank
from qmarginal.sector import (SectorInstance, admissible_sigma_range,
                              bosonic_sigma_p, find_feasible_sector,
                              reduce_rank_sector)


def report(capsys, num, label, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_bound_attainment(capsys):
    """Fifty seeded 2-local instances land at or under the rank bound."""
    hits, worst_res, slowest = 0, 0.0, 0.0
    runs = 50
    for i in range(runs):
        n = 3 + i % 3
        subsets = list(combinations(range(n), 2))
        inst, _ = random_feasible_instance((2,) * n, subsets, 2 ** n, seed=i)
        t0 = time.perf_counter()
        found = find_feasible(inst)
        state, trace = reduce_rank(found.state, inst, seed=i)
        dt = time.perf_counter() - t0
        res = check_consistency(inst, state).max_residual
        bound = theorem1_bound(inst)
        if (found.converged and numerical_rank(state) <= bound
                and res <= 1e-7 and dt < 60.0):
            hits += 1
        worst_res = max(worst_res, res)
        slowest = max(slowest, dt)
    report(capsys, 1, "rank bound attainment", hits == runs,
           f"{hits}/{runs} runs, worst residual {worst_res:.1e}, "
           f"slowest {slowest:.1f}s")


def test_criterion_2_ring_graph_marginals(capsys):
    """Rings of five or more hide all pair information; the ring of four
    leaks an XX correlation."""
    ok = True
    for n in (5, 6, 7, 8):
        rho = ring_graph_state(n)
        ok = ok and numerical_rank(rho) == 1
        for pair in combinations(range(n), 2):
            m = partial_trace(rho, (2,) * n, pair)
            ok = ok and np.linalg.norm(m - np.eye(4) / 4) <= 1e-12
    rho4 = ring_graph_state(4)
    defect = max(
        np.linalg.norm(partial_trace(rho4, (2,) * 4, pair) - np.eye(4) / 4)
        for pair in combinations(range(4), 2))
    ok = ok and numerical_rank(rho4) == 1 and defect >= 0.2
    report(capsys, 2, "ring graph marginals", ok,
           f"n=5..8 uniform to 1e-12, n=4 defect {defect:.2f}")


def test_criterion_3_reduction_from_maximally_mixed(capsys):
    inst = maximally_mixed_klocal_instance(5, 2)
    t0 = time.perf_counter()
    state, trace = reduce_rank(np.eye(32, dtype=complex) / 32, inst, seed=0)
    dt = time.perf_counter() - t0
    rank = numerical_rank(state)
    res = check_consistency(inst, state).max_residual
    ok = rank <= 12 and res <= 1e-7 and dt < 120.0
    report(capsys, 3, "reduction from maximally mixed", ok,
           f"rank 32 -> {rank} (bound 12), residual {res:.1e}, {dt:.1f}s")


def test_criterion_4_sigma_family(capsys):
    ok = True
    checked = 0
    for n in range(4, 10):
        lo, hi = admissible_sigma_range(n)
        emb = sector_isometry("bosonic", n, 2)
        for p in range(lo, hi + 1):
            sigma = bosonic_sigma_p(n, p)
            ok = ok and abs(np.trace(sigma).real - 1.0) <= 1e-14
            marg = sector_partial_trace(sigma, emb, 2)
            ok = ok and np.linalg.norm(marg - np.eye(3) / 3) <= 1e-12
            ok = ok and numerical_rank(sigma) <= 3
            checked += 1
    ok = ok and numerical_rank(bosonic_sigma_p(4, 1)) == 2
    ok = ok and numerical_rank(bosonic_sigma_p(7, 2)) == 2
    report(capsys, 4, "sigma family regression", ok,
           f"{checked} members, rank 2 at (4,1) and (7,2)")


def test_criterion_5_sector_reductions(capsys):
    details = []
    ok = True
    for stat, n, d, k, sector_bound in (("fermionic", 3, 4, 2, 6),
                                        ("bosonic", 4, 2, 2, 3)):
        dim_k = sector_isometry(stat, k, d).sector_dim
        assert dim_k == sector_bound
        target = np.eye(dim_k, dtype=complex) / dim_k
        inst = SectorInstance(stat, n, d, k, target)
        found = find_feasible_sector(inst)
        state, trace = reduce_rank_sector(found.state, inst)
        emb = sector_isometry(stat, n, d)
        res = np.linalg.norm(sector_partial_trace(state, emb, k) - target)
        rank = numerical_rank(state)
        ok = (ok and found.converged and rank <= numerical_rank(target)
              and numerical_rank(target) <= sector_bound and res <= 1e-7)
        details.append(f"{stat} rank {rank} residual {res:.1e}")
    report(capsys, 5, "sector reductions", ok, "; ".join(details))


def test_criterion_6_channel_reduction(capsys):
    rng = np.random.default_rng(42)
    g = rng.standard_normal((64, 4)) + 1j * rng.standard_normal((64, 4))
    q, _ = np.linalg.qr(g)
    ks = [q[j * 4:(j + 1) * 4, :] for j in range(16)]
    full = choi_from_kraus(ks, (2, 2), (2, 2))
    targets = [sub_channel(full, (i,), (i,)) for i in (0, 1)]
    inst = ChannelInstance(
        (2, 2), (2, 2),
        (LocalChannel((0,), (0,), targets[0]),
         LocalChannel((1,), (1,), targets[1])))
    channel, trace = reduce_kraus_rank(inst, seed=0)
    kraus = kraus_from_choi(channel)
    sub_res = max(
        np.linalg.norm(sub_channel(channel, (i,), (i,)).choi - targets[i].choi)
        for i in (0, 1))
    tp_res = np.linalg.norm(
        sum(k.conj().T @ k for k in kraus) - np.eye(4))
    ok = (len(kraus) <= 6 and trace.notes["paper"] == 5
          and sub_res <= 1e-7 and tp_res <= 1e-8)
    report(capsys, 6, "channel reduction", ok,
           f"{len(kraus)} kraus (paper bound {trace.notes['paper']}), "
           f"sub residual {sub_res:.1e}, tp residual {tp_res:.1e}")


def test_criterion_7_property_suites(capsys):
    rng = np.random.default_rng(0)
    ok = True

    # partial-trace adjoint identity at 1e-12
    dims = (2, 3, 2)
    for keep in ((0,), (1,), (0, 2), (1, 2)):
        dk = int(np.prod([dims[i] for i in keep]))
        for _ in range(5):
            x = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
            y = rng.standard_normal((dk, dk)) + 1j * rng.standard_normal((dk, dk))
            lhs = np.trace(partial_trace(x, dims, keep) @ y)
            rhs = np.trace(x @ embed_with_identity(y, dims, keep))
            ok = ok and abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    # eigendecomposition reconstruction at 1e-10 relative
    for d in (2, 5, 9, 16):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = (g + g.conj().T) / 2
        w, v = eig_hermitian(a)
        err = np.linalg.norm(v @ np.diag(w) @ v.conj().T - a)
        ok = ok and err <= 1e-10 * max(1.0, np.linalg.norm(a))

    # sector isometry orthonormality at 1e-12
    for stat, n, d in (("fermionic", 2, 4), ("fermionic", 3, 4),
                       ("bosonic", 4, 2), ("bosonic", 2, 3)):
        w = sector_isometry(stat, n, d).isometry
        ok = ok and np.linalg.norm(
            w.conj().T @ w - np.eye(w.shape[1])) <= 1e-12

    # Choi/Kraus roundtrip action equality at 1e-10
    for din, dout, ind, outd in ((2, 2, (2,), (2,)), (4, 2, (2, 2), (2,))):
        g = rng.standard_normal((3 * dout, din)) + 1j * rng.standard_normal(
            (3 * dout, din))
        q, _ = np.linalg.qr(g)
        ks = [q[j * dout:(j + 1) * dout, :] for j in range(3)]
        back = kraus_from_choi(choi_from_kraus(ks, ind, outd))
        for _ in range(3):
            gs = rng.standard_normal((din, din)) + 1j * rng.standard_normal(
                (din, din))
            rho = gs @ gs.conj().T
            rho /= np.trace(rho).real
            a = sum(k @ rho @ k.conj().T for k in ks)
            b = sum(k @ rho @ k.conj().T for k in back)
            ok = ok and np.linalg.norm(a - b) <= 1e-10

    # descent posts on every accepted step, and strict rank monotonicity
    subsets = list(combinations(range(4), 2))
    inst, witness = random_feasible_instance((2,) * 4, subsets, 16, seed=5)
    state = witness
    ranks = [numerical_rank(state)]
    while True:
        h = descent_direction(state, inst, seed=0)
        if h is None:
            break
        ok = ok and abs(np.trace(h)) <= 1e-9
        for c in inst.constraints:
            ok = ok and np.linalg.norm(
                partial_trace(h, inst.dims, c.subsystems)) <= 1e-9
        state, tr = reduce_rank(state, inst, seed=0, max_steps=1)
        if not tr.steps:
            break
        ranks.append(numerical_rank(state))
    ok = ok and all(b < a for a, b in zip(ranks, ranks[1:]))
    ok = ok and len(ranks) >= 2

    report(capsys, 7, "property suites", ok,
           f"ranks along greedy path {ranks}")


def test_criterion_8_infeasibility_handling(capsys, tmp_path):
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    contradictory = ConsistencyInstance(
        (2, 2), (MarginalConstraint((0,), ket0),
                 MarginalConstraint((0, 1), np.eye(4) / 4)))
    bell = np.zeros((4, 4), dtype=complex)
    for a in (0, 3):
        for b in (0, 3):
            bell[a, b] = 0.5
    monogamy = ConsistencyInstance(
        (2, 2, 2), (MarginalConstraint((0, 1), bell),
                    MarginalConstraint((1, 2), bell)))
    ok = True
    details = []
    for name, inst in (("contradictory", contradictory),
                       ("monogamy", monogamy)):
        inst_path = tmp_path / f"{name}.json"
        out_path = tmp_path / f"{name}_sol.json"
        dump_document(instance_to_doc(inst), str(inst_path))
        code = main(["solve", str(inst_path), "-o", str(out_path)])
        err = capsys.readouterr().err
        ok = (ok and code == 1 and err.startswith("certified infeasible after ")
              and not out_path.exists())
        details.append(f"{name} exit {code}")
    report(capsys, 8, "infeasibility handling", ok, "; ".join(details))


def test_criterion_9_low_rank_witnesses(capsys):
    """Rank-1 and rank-2 witnesses with every pair pinned, n = 3, 4, 5: the
    feasible set touches the boundary of the cone, and each instance is
    solved at the default budget and reduced to at most the rank bound."""
    ok = True
    details = []
    for n in (3, 4, 5):
        for r in (1, 2):
            inst, _ = random_feasible_instance(
                (2,) * n, list(combinations(range(n), 2)), r, seed=0)
            found = find_feasible(inst, max_iters=DEFAULT_MAX_ITERS)
            res = check_consistency(inst, found.state).max_residual
            state, _ = reduce_rank(found.state, inst)
            rank, bound = numerical_rank(state), theorem1_bound(inst)
            reduced_res = check_consistency(inst, state).max_residual
            ok = (ok and found.converged and res <= 1e-8 and reduced_res <= 1e-8
                  and rank <= bound)
            details.append(f"n{n} r{r}: {found.iterations} it, rank {rank}/{bound}")
    report(capsys, 9, "low-rank witnesses", ok, "; ".join(details))
