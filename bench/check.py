"""Independent output checks for the benchmark.

Nothing here calls the solver's own maps: partial traces, sector
compressions, sub-channels and Kraus trace preservation are recomputed with
plain numpy, so a defect in the package's constraint maps cannot hide in the
check that judges it.  Every function is pure and runs outside the timed
region.
"""
from __future__ import annotations

import math
import string
from dataclasses import dataclass

import numpy as np

RESIDUAL_TOL = 1e-7
PSD_TOL = 1e-8
TRACE_TOL = 1e-8
HERM_TOL = 1e-8
TP_TOL = 1e-8
RANK_TOL = 1e-9


@dataclass(frozen=True)
class Verdict:
    """Outcome of one attempted instance.

    failed: the instance does not count as solved (a non-converged feasible
    instance, a state that fails a check, a wrong infeasibility verdict).
    wrong: the program claimed an answer and the answer is wrong; a
    benchmark run with any wrong verdict reports correct = false.
    """

    failed: bool
    wrong: bool
    rank: int | None = None
    bound: int | None = None
    iters: int | None = None
    steps: int | None = None
    reason: str = ""


def partial_trace(x: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every factor not in keep (factor 0 most significant)."""
    dims = tuple(int(d) for d in dims)
    keep = tuple(int(i) for i in keep)
    n = len(dims)
    rows = string.ascii_letters[:n]
    cols = "".join(rows[i] if i not in keep else string.ascii_letters[n + i]
                   for i in range(n))
    out = "".join(rows[i] for i in keep) + "".join(cols[i] for i in keep)
    dk = math.prod(dims[i] for i in keep)
    return np.einsum(f"{rows}{cols}->{out}", x.reshape(dims + dims)).reshape(dk, dk)


def numerical_rank(a: np.ndarray, rank_tol: float = RANK_TOL) -> int:
    w = np.linalg.eigvalsh((a + a.conj().T) / 2)
    scale = max(1.0, float(np.abs(w).max()))
    return int(np.count_nonzero(np.abs(w) > rank_tol * scale))


def square_sum_bound(targets) -> int:
    """isqrt of the summed squared target ranks (the paper's rank bound)."""
    return math.isqrt(sum(numerical_rank(t) ** 2 for t in targets))


def qudit_residual(rho: np.ndarray, dims, constraints) -> float:
    """Largest Frobenius residual over (subsystems, target) pairs."""
    return max(float(np.linalg.norm(partial_trace(rho, dims, subs) - target))
               for subs, target in constraints)


def sector_marginal(sigma: np.ndarray, wn: np.ndarray, wk: np.ndarray,
                    levels: int, particles: int, k: int) -> np.ndarray:
    """k-particle marginal of a sector state, in the k-sector basis.

    wn and wk are the N- and k-particle sector isometries (occupation basis
    columns in the full tensor space).
    """
    if k == particles:
        return sigma
    full = wn @ sigma @ wn.conj().T
    return wk.conj().T @ partial_trace(full, (levels,) * particles, range(k)) @ wk


def channel_residual(choi: np.ndarray, in_dims, out_dims, locals_) -> float:
    """Largest residual of the sub-channels (in_keep, out_keep, target choi)."""
    n_in = len(in_dims)
    dims = tuple(in_dims) + tuple(out_dims)
    return max(float(np.linalg.norm(
        partial_trace(choi, dims, tuple(ins) + tuple(n_in + o for o in outs))
        - target)) for ins, outs, target in locals_)


def kraus_defects(kraus, choi: np.ndarray, dim_in: int) -> tuple[float, float]:
    """(||sum K^dag K - I||, ||Choi rebuilt from the Kraus set - choi||)."""
    tp = sum(k.conj().T @ k for k in kraus) - np.eye(dim_in)
    rebuilt = sum(np.outer(k.T.reshape(-1), k.T.reshape(-1).conj())
                  for k in kraus) / dim_in
    return float(np.linalg.norm(tp)), float(np.linalg.norm(rebuilt - choi))


def state_verdict(rho: np.ndarray, residual: float, bound: int, *,
                  iters: int | None = None, steps: int | None = None,
                  extra_defect: str = "") -> Verdict:
    """Judge a state the program returned as a solution."""
    herm = float(np.linalg.norm(rho - rho.conj().T))
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    scale = max(1.0, float(np.abs(w).max()))
    psd = max(0.0, -float(w.min()))
    tr = abs(complex(np.trace(rho)) - 1.0)
    rank = int(np.count_nonzero(np.abs(w) > RANK_TOL * scale))
    problems = []
    if residual > RESIDUAL_TOL:
        problems.append(f"residual {residual:.2e}")
    if herm > HERM_TOL:
        problems.append(f"hermiticity defect {herm:.2e}")
    if psd > PSD_TOL * scale:
        problems.append(f"psd defect {psd:.2e}")
    if tr > TRACE_TOL:
        problems.append(f"trace defect {tr:.2e}")
    if rank > bound:
        problems.append(f"rank {rank} above bound {bound}")
    if extra_defect:
        problems.append(extra_defect)
    bad = bool(problems)
    return Verdict(bad, bad, rank, bound, iters, steps, "; ".join(problems))


def gave_up_verdict(reason: str, *, iters: int | None = None,
                    steps: int | None = None) -> Verdict:
    """A feasible instance the program did not solve: failed, not wrong."""
    return Verdict(True, False, iters=iters, steps=steps, reason=reason)


def infeasible_verdict(exit_code: int, wrote_output: bool, *,
                       iters: int | None = None) -> Verdict:
    """An infeasible instance passes only on exit 1 with no document written."""
    if exit_code == 1 and not wrote_output:
        return Verdict(False, False, iters=iters)
    return Verdict(True, True, iters=iters,
                   reason=f"infeasible instance: exit {exit_code}, "
                          f"output written: {wrote_output}")
