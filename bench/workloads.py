"""The benchmark's four workloads: inputs from a seed, calls, checks.

Each workload is a list of cases.  A case's run() is the only timed part:
one library call chain or one in-process `cli.main` call.  Its check()
judges the result with bench/check.py, outside the timed region.  Every
package function is looked up through its module at call time, so the
tracer's rebinding of module attributes reaches the calls made here.

Low-rank, infeasible, sector and channel instances are built once from
fixed canonical seeds and then conjugated by random local unitaries drawn
from the workload seed.  Marginal maps commute with local unitaries and the
solvers start from the maximally mixed state, so every seed poses a
different input of the same difficulty: the known non-convergence and CG
stall defects show on every seed, and wall time does not depend on which
instances happen to be easy.  The infeasible instances take random local
Paulis, which only permute and negate entries: CG on their inconsistent
Gram systems stalls at points that depend on rounding, and Haar rotations
moved the hilbert map-call count of one instance between 34k and 125k.  The
others take Haar-random unitaries (one single-particle unitary for a
sector).  Full-rank witnesses are drawn fresh per seed: their descent takes
the same number of steps every time.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import re
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

import check
from qmarginal import channels, cli, documents, gallery, marginal, reduction
from qmarginal import sector as sector_mod
from qmarginal._engine import ReductionError

# Every call is kept to about 2 s or less so that a run holds enough passes
# for a steady median: on a shared 2-core host the speed of identical work
# swings by up to 1.7x over a few seconds.
#
# Dykstra iteration budget of feasible-lowrank.  No instance of the
# canonical low-rank set converges within it at the seed commit (ROADMAP
# item 1): the nearest, n=5 at rank 2, needs ~400 iterations, the others
# thousands.
LOWRANK_MAX_ITERS = 100
# Dykstra budget of the clashing-channel case.  With the default budget the
# plateau exit fires after 501 iterations, 8-12 s of CG that stalls at every
# step; the stall shows per projection either way, and the plateau exit is
# still reached by the two `solve` cases.
CLASH_MAX_ITERS = 100

_ITERS_RE = re.compile(r"after (\d+) iterations")


@dataclass
class Case:
    label: str
    run: Callable[[], object]
    check: Callable[[object], check.Verdict]
    reset: Callable[[], None] = lambda: None


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


_PAULIS = (np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex),
           np.array([[0, -1j], [1j, 0]]), np.diag([1.0 + 0j, -1.0]))


def _haar_unitaries(dims, rng) -> list[np.ndarray]:
    return [_haar_unitary(d, rng) for d in dims]


def _pauli_unitaries(dims, rng) -> list[np.ndarray]:
    return [_PAULIS[rng.integers(4)] for _ in dims]


def _conjugate(target: np.ndarray, unitaries, subs) -> np.ndarray:
    u = np.eye(1, dtype=complex)
    for i in subs:
        u = np.kron(u, unitaries[i])
    return u @ target @ u.conj().T


def _rotated_instance(inst, us):
    return marginal.ConsistencyInstance(inst.dims, tuple(
        marginal.MarginalConstraint(c.subsystems,
                                    _conjugate(c.target, us, c.subsystems))
        for c in inst.constraints))


def _pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


# ---------------------------------------------------------------------------
# Library workloads
# ---------------------------------------------------------------------------

def _library_case(label: str, inst, max_iters: int | None) -> Case:
    cons = [(c.subsystems, c.target) for c in inst.constraints]
    bound = check.square_sum_bound(t for _, t in cons)
    kwargs = {} if max_iters is None else {"max_iters": max_iters}

    def run():
        found = marginal.find_feasible(inst, **kwargs)
        if not found.converged:
            return found, None, None
        try:
            state, trace = reduction.reduce_rank(found.state, inst, seed=0)
        except ReductionError as err:
            return found, None, err
        return found, (state, trace), None

    def judge(result) -> check.Verdict:
        found, reduced, err = result
        if reduced is None:
            why = found.message if err is None else f"reduction aborted: {err}"
            return check.gave_up_verdict(why, iters=found.iterations)
        state, trace = reduced
        return check.state_verdict(
            state, check.qudit_residual(state, inst.dims, cons), bound,
            iters=found.iterations, steps=len(trace.steps))

    return Case(label, run, judge)


def reduce_fullrank(seed: int, workdir: str) -> list[Case]:
    """Two full-rank 2-local 5-qubit witnesses: rank descent only."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(2):
        inst, _ = gallery.random_feasible_instance(
            (2,) * 5, _pairs(5), 2 ** 5, seed=int(rng.integers(2 ** 31)))
        cases.append(_library_case(f"fullrank-n5-{i}", inst, None))
    return cases


def feasible_lowrank(seed: int, workdir: str) -> list[Case]:
    """Rank-1/2 2-local witnesses, n=3..5, at a fixed Dykstra budget."""
    rng = np.random.default_rng(seed)
    cases = []
    for n in (3, 4, 5):
        for r in (1, 2):
            canon, _ = gallery.random_feasible_instance(
                (2,) * n, _pairs(n), r, seed=0)
            inst = _rotated_instance(canon, _haar_unitaries(canon.dims, rng))
            cases.append(_library_case(f"lowrank-n{n}-r{r}", inst,
                                       LOWRANK_MAX_ITERS))
    return cases


# ---------------------------------------------------------------------------
# CLI workloads: documents in, documents out, through cli.main in-process
# ---------------------------------------------------------------------------

def _cli_call(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _iters_from(stderr: str) -> int | None:
    m = _ITERS_RE.search(stderr)
    return int(m.group(1)) if m else None


def _remove(path: str) -> Callable[[], None]:
    def reset():
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    return reset


def _cli_case(label: str, workdir: str, command: list[str], doc: dict,
              judge_doc: Callable[[dict, int | None], check.Verdict] | None) -> Case:
    """judge_doc None marks an infeasible instance."""
    in_path = os.path.join(workdir, f"{label}.json")
    out_path = os.path.join(workdir, f"{label}.out.json")
    documents.dump_document(doc, in_path)
    argv = command + [in_path, "-o", out_path]

    def run():
        return _cli_call(argv)

    def judge(result) -> check.Verdict:
        code, stderr = result
        wrote = os.path.exists(out_path)
        iters = _iters_from(stderr)
        if judge_doc is None:
            return check.infeasible_verdict(code, wrote, iters=iters)
        if code == 1 and not wrote:
            return check.gave_up_verdict(stderr.strip(), iters=iters)
        if code != 0 or not wrote:
            return check.Verdict(True, True, iters=iters,
                                 reason=f"exit {code}, output written: {wrote}")
        with open(out_path, encoding="utf-8") as fh:
            return judge_doc(json.load(fh), iters)

    return Case(label, run, judge, _remove(out_path))


def _matrix(obj: dict) -> np.ndarray:
    return np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)


def _bell() -> np.ndarray:
    b = np.zeros((4, 4), dtype=complex)
    for a in (0, 3):
        for c in (0, 3):
            b[a, c] = 0.5
    return b


def _random_channel(rng, din: int, dout: int, kraus_count: int, in_dims, out_dims):
    """Channel from a Haar-random isometry cut into Kraus blocks."""
    g = (rng.standard_normal((kraus_count * dout, din))
         + 1j * rng.standard_normal((kraus_count * dout, din)))
    q, _ = np.linalg.qr(g)
    ks = [q[j * dout:(j + 1) * dout, :] for j in range(kraus_count)]
    return channels.choi_from_kraus(ks, in_dims, out_dims)


def _rotated_channel_instance(inst, us):
    n_in = len(inst.in_dims)
    locs = []
    for lc in inst.locals:
        subs = lc.in_subsystems + tuple(n_in + o for o in lc.out_subsystems)
        ch = lc.channel
        locs.append(channels.LocalChannel(
            lc.in_subsystems, lc.out_subsystems,
            channels.ChannelRepr(ch.in_dims, ch.out_dims,
                                 _conjugate(ch.choi, us, subs))))
    return channels.ChannelInstance(inst.in_dims, inst.out_dims, tuple(locs))


def infeasible_cli(seed: int, workdir: str) -> list[Case]:
    """Contradictory and monogamy `solve`, contradictory `channel reduce`."""
    rng = np.random.default_rng(seed)
    ket0 = np.zeros((2, 2), dtype=complex)
    ket0[0, 0] = 1.0
    contradictory = marginal.ConsistencyInstance(
        (2, 2), (marginal.MarginalConstraint((0,), ket0),
                 marginal.MarginalConstraint((0, 1), np.eye(4) / 4)))
    monogamy = marginal.ConsistencyInstance(
        (2, 2, 2), (marginal.MarginalConstraint((0, 1), _bell()),
                    marginal.MarginalConstraint((1, 2), _bell())))
    # two different channels pinned to the same factor pair (the pair of
    # the package's own infeasible-channel test)
    crng = np.random.default_rng(59)
    ch_a = _random_channel(crng, 2, 2, 2, (2,), (2,))
    ch_b = _random_channel(crng, 2, 2, 2, (2,), (2,))
    clash = channels.ChannelInstance((2,), (2,), (
        channels.LocalChannel((0,), (0,), ch_a),
        channels.LocalChannel((0,), (0,), ch_b)))
    return [
        _cli_case("contradictory", workdir, ["solve"], documents.instance_to_doc(
            _rotated_instance(contradictory, _pauli_unitaries((2, 2), rng))), None),
        _cli_case("monogamy", workdir, ["solve"], documents.instance_to_doc(
            _rotated_instance(monogamy, _pauli_unitaries((2, 2, 2), rng))), None),
        _cli_case("channel-clash", workdir,
                  ["channel", "reduce", "--max-iters", str(CLASH_MAX_ITERS)],
                  documents.channel_instance_to_doc(_rotated_channel_instance(
                      clash, _pauli_unitaries((2, 2), rng))), None),
    ]


def _sector_case(label: str, workdir: str, statistics: str, particles: int,
                 levels: int, k: int, rng) -> Case:
    """Target: the k-particle marginal of a canonical random full-rank sector
    state, turned by a single-particle Haar unitary u (u^{(x)k} on the
    k-particle sector)."""
    wn = sector_mod.sector_isometry(statistics, particles, levels).isometry
    wk = sector_mod.sector_isometry(statistics, k, levels).isometry
    d = wn.shape[1]
    canon = np.random.default_rng(0)
    g = canon.standard_normal((d, d)) + 1j * canon.standard_normal((d, d))
    sigma = g @ g.conj().T
    sigma /= np.trace(sigma).real
    uk = functools.reduce(np.kron, [_haar_unitary(levels, rng)] * k)
    rot = wk.conj().T @ uk @ wk
    target = rot @ check.sector_marginal(sigma, wn, wk, levels, particles, k) \
        @ rot.conj().T
    target = (target + target.conj().T) / 2
    inst = sector_mod.SectorInstance(statistics, particles, levels, k, target)
    bound = check.numerical_rank(target)

    def judge_doc(doc: dict, iters) -> check.Verdict:
        state = _matrix(doc["matrix"])
        res = float(np.linalg.norm(
            check.sector_marginal(state, wn, wk, levels, particles, k) - target))
        return check.state_verdict(state, res, bound, iters=iters,
                                   steps=len(doc["trace"]))

    return _cli_case(label, workdir, ["solve"], documents.instance_to_doc(inst),
                     judge_doc)


def _channel_case(label: str, workdir: str, rng) -> Case:
    """Two local sub-channels of a canonical random 8-Kraus channel, turned by
    Haar unitaries on every input and output factor."""
    in_dims, out_dims = (2, 2, 2), (2, 2)
    full = _random_channel(np.random.default_rng(0), 8, 4, 8, in_dims, out_dims)
    n_in = len(in_dims)
    dims = in_dims + out_dims
    locs = []
    for ins, outs in (((0, 1), (0,)), ((1, 2), (1,))):
        choi = check.partial_trace(full.choi, dims, ins + tuple(n_in + o for o in outs))
        locs.append(channels.LocalChannel(ins, outs, channels.ChannelRepr(
            tuple(in_dims[i] for i in ins), tuple(out_dims[o] for o in outs),
            (choi + choi.conj().T) / 2)))
    inst = _rotated_channel_instance(
        channels.ChannelInstance(in_dims, out_dims, tuple(locs)),
        _haar_unitaries(dims, rng))
    targets = [(lc.in_subsystems, lc.out_subsystems, lc.channel.choi)
               for lc in inst.locals]
    din = math.prod(in_dims)
    bound = math.isqrt(sum(t.shape[0] ** 2 for *_, t in targets) + din * din)

    def judge_doc(doc: dict, iters) -> check.Verdict:
        choi = _matrix(doc["channel"]["choi"])
        kraus = [_matrix(k) for k in doc["kraus"]]
        tp, rebuild = check.kraus_defects(kraus, choi, din)
        extra = []
        if tp > check.TP_TOL:
            extra.append(f"trace preservation defect {tp:.2e}")
        if rebuild > check.RESIDUAL_TOL:
            extra.append(f"Kraus set does not rebuild the Choi state ({rebuild:.2e})")
        if doc["kraus_count"] != len(kraus):
            extra.append("kraus_count disagrees with the Kraus list")
        res = check.channel_residual(choi, in_dims, out_dims, targets)
        return check.state_verdict(choi, res, bound, iters=iters,
                                   steps=len(doc["trace"]),
                                   extra_defect="; ".join(extra))

    return _cli_case(label, workdir, ["channel", "reduce"],
                     documents.channel_instance_to_doc(inst), judge_doc)


def sector_channel_cli(seed: int, workdir: str) -> list[Case]:
    """Sector `solve` (fermionic and bosonic) and feasible `channel reduce`."""
    rng = np.random.default_rng(seed)
    return [
        _sector_case("fermionic-N4-d5-k2", workdir, "fermionic", 4, 5, 2, rng),
        _sector_case("fermionic-N3-d6-k2", workdir, "fermionic", 3, 6, 2, rng),
        _sector_case("bosonic-N5-d3-k2", workdir, "bosonic", 5, 3, 2, rng),
        _channel_case("channel-in222-out22", workdir, rng),
    ]


BUILDERS = {
    "reduce-fullrank": reduce_fullrank,
    "feasible-lowrank": feasible_lowrank,
    "infeasible-cli": infeasible_cli,
    "sector-channel-cli": sector_channel_cli,
}
