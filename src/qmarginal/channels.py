"""Quantum channels as unit-trace Choi states, with Kraus-rank reduction.

The Choi state of a channel Psi from H_in to H_out lives on H_in (x) H_out
(input factor first) and is (1/dim_in) * sum_{pq} |p><q| (x) Psi(|p><q|).
Trace preservation makes its input marginal maximally mixed, so channel
consistency problems are marginal consistency problems on the joint space,
and the number of Kraus operators is the rank of the Choi state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._engine import DEFAULT_MAX_ITERS, DEFAULT_RANK_TOL, ReductionTrace
from .hilbert import check_dims, check_subsystems, partial_trace, total_dim
from .marginal import (ConsistencyInstance, FeasibilityResult,
                       MarginalConstraint, find_feasible)
from .numerics import as_hermitian
from .reduction import reduce_rank

DEFAULT_CP_TOL = 1e-8
DEFAULT_TP_TOL = 1e-8

__all__ = ["ChannelRepr", "LocalChannel", "ChannelInstance",
           "ChannelFeasibilityError", "choi_from_kraus", "kraus_from_choi",
           "apply_channel", "sub_channel", "channel_instance_to_marginal",
           "reduce_kraus_rank"]


@dataclass
class ChannelRepr:
    """A channel held as its unit-trace Choi state on in (x) out factors."""

    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]
    choi: np.ndarray

    def __post_init__(self):
        self.in_dims = check_dims(self.in_dims)
        self.out_dims = check_dims(self.out_dims)
        self.choi = as_hermitian(self.choi)
        d = self.dim_in * self.dim_out
        if self.choi.shape != (d, d):
            raise ValueError(f"Choi state must be {d}x{d}, got {self.choi.shape}")

    @property
    def dim_in(self) -> int:
        return total_dim(self.in_dims)

    @property
    def dim_out(self) -> int:
        return total_dim(self.out_dims)


@dataclass
class LocalChannel:
    """A prescribed sub-channel on chosen input and output factors."""

    in_subsystems: tuple[int, ...]
    out_subsystems: tuple[int, ...]
    channel: ChannelRepr

    def __post_init__(self):
        self.in_subsystems = tuple(int(i) for i in self.in_subsystems)
        self.out_subsystems = tuple(int(i) for i in self.out_subsystems)


@dataclass
class ChannelInstance:
    """Global in/out factor dimensions plus the sub-channels to match."""

    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]
    locals: tuple[LocalChannel, ...] = field(default_factory=tuple)

    def __post_init__(self):
        self.in_dims = check_dims(self.in_dims)
        self.out_dims = check_dims(self.out_dims)
        self.locals = tuple(self.locals)
        for lc in self.locals:
            ins = check_subsystems(lc.in_subsystems, len(self.in_dims))
            outs = check_subsystems(lc.out_subsystems, len(self.out_dims))
            want_in = tuple(self.in_dims[i] for i in ins)
            want_out = tuple(self.out_dims[i] for i in outs)
            if lc.channel.in_dims != want_in or lc.channel.out_dims != want_out:
                raise ValueError(
                    f"sub-channel on in={ins}, out={outs} must map dims "
                    f"{want_in} -> {want_out}, got "
                    f"{lc.channel.in_dims} -> {lc.channel.out_dims}")


class ChannelFeasibilityError(RuntimeError):
    """No joint channel matched the prescribed sub-channels; holds the report."""

    def __init__(self, result: FeasibilityResult):
        super().__init__(result.message)
        self.result = result


def _vec(k: np.ndarray) -> np.ndarray:
    # row-major over (input index, output index)
    return k.T.reshape(-1)


def check_kraus(kraus, dim_in: int, dim_out: int,
                tp_tol: float = DEFAULT_TP_TOL) -> list[np.ndarray]:
    kraus = [np.asarray(k, dtype=complex) for k in kraus]
    if not kraus:
        raise ValueError("need at least one Kraus operator")
    for k in kraus:
        if k.shape != (dim_out, dim_in):
            raise ValueError(
                f"Kraus operators must be {dim_out}x{dim_in}, got {k.shape}")
        if not np.all(np.isfinite(k)):
            raise ValueError("Kraus operator has non-finite entries")
    total = sum(k.conj().T @ k for k in kraus)
    defect = float(np.linalg.norm(total - np.eye(dim_in)))
    if defect > tp_tol:
        raise ValueError(
            f"Kraus set is not trace preserving: ||sum K^dag K - I|| = {defect:.3e}")
    return kraus


def choi_from_kraus(kraus, in_dims, out_dims,
                    tp_tol: float = DEFAULT_TP_TOL) -> ChannelRepr:
    """Unit-trace Choi state of the channel with the given Kraus operators."""
    in_dims = check_dims(in_dims)
    out_dims = check_dims(out_dims)
    din, dout = total_dim(in_dims), total_dim(out_dims)
    kraus = check_kraus(kraus, din, dout, tp_tol)
    choi = np.zeros((din * dout, din * dout), dtype=complex)
    for k in kraus:
        w = _vec(k)
        choi += np.outer(w, w.conj())
    return ChannelRepr(in_dims, out_dims, choi / din)


def kraus_from_choi(channel: ChannelRepr, *, cp_tol: float = DEFAULT_CP_TOL,
                    tp_tol: float = DEFAULT_TP_TOL,
                    rank_tol: float = DEFAULT_RANK_TOL) -> list[np.ndarray]:
    """Kraus operators from the Choi eigendecomposition.

    Raises ValueError when the Choi state is not positive semidefinite
    within cp_tol (not completely positive) or when the extracted set is not
    trace preserving within tp_tol.
    """
    din, dout = channel.dim_in, channel.dim_out
    w, v = np.linalg.eigh(channel.choi)
    scale = max(1.0, float(np.abs(w).max()))
    if w.min() < -cp_tol * scale:
        raise ValueError(
            f"channel is not completely positive: min Choi eigenvalue {w.min():.3e}")
    kraus = []
    for wi, vi in zip(w, v.T):
        if wi <= rank_tol * scale:
            continue
        kraus.append(math.sqrt(din * wi) * vi.reshape(din, dout).T)
    return check_kraus(kraus, din, dout, tp_tol)


def apply_channel(channel: ChannelRepr, rho: np.ndarray) -> np.ndarray:
    """Channel action via Choi contraction: dim_in * Tr_in[(rho^T (x) I) choi]."""
    din, dout = channel.dim_in, channel.dim_out
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (din, din):
        raise ValueError(f"input state must be {din}x{din}, got {rho.shape}")
    choi4 = channel.choi.reshape(din, dout, din, dout)
    return din * np.einsum('qp,qjps->js', rho, choi4)


def sub_channel(channel: ChannelRepr, in_keep, out_keep) -> ChannelRepr:
    """Restriction to chosen factors: feed the dropped inputs the maximally
    mixed state and trace out the dropped outputs.

    Equals the partial trace of the Choi state onto the kept in/out factors.
    """
    n_in = len(channel.in_dims)
    in_keep = check_subsystems(in_keep, n_in)
    out_keep = check_subsystems(out_keep, len(channel.out_dims))
    if not in_keep or not out_keep:
        raise ValueError("sub-channel must keep at least one input and one output factor")
    dims = channel.in_dims + channel.out_dims
    keep = in_keep + tuple(n_in + o for o in out_keep)
    reduced = partial_trace(channel.choi, dims, keep)
    return ChannelRepr(tuple(channel.in_dims[i] for i in in_keep),
                       tuple(channel.out_dims[o] for o in out_keep), reduced)


def channel_instance_to_marginal(instance: ChannelInstance, *,
                                 include_tp: bool = True) -> ConsistencyInstance:
    """Rewrite sub-channel constraints as marginal constraints on in (x) out.

    Each local channel pins the joint-state marginal on its input factors
    plus its output factors; include_tp adds the trace-preservation row (the
    marginal on all input factors is maximally mixed).
    """
    n_in = len(instance.in_dims)
    dims = instance.in_dims + instance.out_dims
    constraints = []
    for lc in instance.locals:
        subs = lc.in_subsystems + tuple(n_in + o for o in lc.out_subsystems)
        constraints.append(MarginalConstraint(subs, lc.channel.choi))
    if include_tp:
        din = total_dim(instance.in_dims)
        constraints.append(MarginalConstraint(
            tuple(range(n_in)), np.eye(din, dtype=complex) / din))
    return ConsistencyInstance(dims, tuple(constraints))


def kraus_count_bounds(instance: ChannelInstance) -> dict[str, int]:
    """Square-sum Kraus bounds: from sub-channel dimensions alone, and with
    the trace-preservation constraint counted as well."""
    base = 0
    for lc in instance.locals:
        d = math.prod(instance.in_dims[i] for i in lc.in_subsystems)
        d *= math.prod(instance.out_dims[o] for o in lc.out_subsystems)
        base += d * d
    din = total_dim(instance.in_dims)
    return {"paper": math.isqrt(base),
            "tp_augmented": math.isqrt(base + din * din)}


def reduce_kraus_rank(instance: ChannelInstance, *, tol: float = 1e-9,
                      max_iters: int = DEFAULT_MAX_ITERS,
                      rank_tol: float = DEFAULT_RANK_TOL,
                      repair_tol: float = 1e-9,
                      seed: int = 0) -> tuple[ChannelRepr, ReductionTrace]:
    """Find a joint channel matching every sub-channel, then shrink its
    Kraus count by rank-reducing the Choi state.

    The marginal instance keeps the trace-preservation row, so the result is
    a channel, not just a consistent state.  Raises ChannelFeasibilityError
    when no joint channel is found.
    """
    marginal_instance = channel_instance_to_marginal(instance, include_tp=True)
    found = find_feasible(marginal_instance, tol=min(tol, repair_tol),
                          max_iters=max_iters)
    if not found.converged:
        raise ChannelFeasibilityError(found)
    reduced, trace = reduce_rank(found.state, marginal_instance,
                                 rank_tol=rank_tol, repair_tol=repair_tol,
                                 seed=seed)
    channel = ChannelRepr(instance.in_dims, instance.out_dims, reduced)
    trace.notes.update(kraus_count_bounds(instance))
    trace.notes["kraus_count"] = trace.final_rank
    return channel, trace
