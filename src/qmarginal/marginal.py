"""Local-consistency instances: a list of prescribed reduced states.

An instance asks for a global density matrix whose partial trace onto each
listed subsystem set equals the given target.  This module holds the data
model, the consistency check, the two rank bounds, and the feasibility
solver; the actual projection machinery lives in _engine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _engine
from ._engine import (DEFAULT_MAX_ITERS, DEFAULT_TOL, FeasibilityResult,
                      ResidualReport)
from .hilbert import (check_dims, check_subsystems, embed_with_identity,
                      partial_trace, total_dim)
from .numerics import DEFAULT_RANK_TOL, as_hermitian, numerical_rank

TARGET_TRACE_TOL = 1e-9
TARGET_PSD_TOL = 1e-8

__all__ = ["MarginalConstraint", "ConsistencyInstance", "ResidualReport",
           "FeasibilityResult", "check_consistency", "theorem1_bound",
           "barvinok_bound", "find_feasible"]


@dataclass
class MarginalConstraint:
    """A target reduced state on a strictly increasing tuple of subsystems."""

    subsystems: tuple[int, ...]
    target: np.ndarray

    def __post_init__(self):
        self.subsystems = tuple(int(i) for i in self.subsystems)
        if not self.subsystems:
            raise ValueError("constraint needs at least one subsystem")
        if any(b <= a for a, b in zip(self.subsystems, self.subsystems[1:])):
            raise ValueError(
                f"subsystems must be strictly increasing, got {self.subsystems}")
        if self.subsystems[0] < 0:
            raise ValueError("subsystem indices must be nonnegative")
        self.target = as_hermitian(self.target)
        tr = np.trace(self.target)
        if abs(tr - 1.0) > TARGET_TRACE_TOL:
            raise ValueError(f"constraint target must have unit trace, got {tr:.12g}")
        w = np.linalg.eigvalsh(self.target)
        scale = max(1.0, float(np.abs(w).max()))
        if w.min() < -TARGET_PSD_TOL * scale:
            raise ValueError(
                f"constraint target is not positive semidefinite "
                f"(min eigenvalue {w.min():.3e})")


@dataclass
class ConsistencyInstance:
    """Subsystem dimensions plus the marginal constraints to satisfy."""

    dims: tuple[int, ...]
    constraints: tuple[MarginalConstraint, ...] = field(default_factory=tuple)

    def __post_init__(self):
        self.dims = check_dims(self.dims)
        self.constraints = tuple(self.constraints)
        for c in self.constraints:
            subs = check_subsystems(c.subsystems, len(self.dims))
            want = math.prod(self.dims[i] for i in subs)
            if c.target.shape != (want, want):
                raise ValueError(
                    f"constraint on {subs} needs a {want}x{want} target, "
                    f"got {c.target.shape}")

    @property
    def dim(self) -> int:
        return total_dim(self.dims)


def engine_system(instance: ConsistencyInstance) -> _engine.ConstraintSystem:
    """Wire an instance into the generic constraint engine."""
    dims = instance.dims
    cons = []
    for mc in instance.constraints:
        cons.append(_engine.Constraint(
            target=mc.target,
            apply=lambda x, s=mc.subsystems: partial_trace(x, dims, s),
            adjoint=lambda y, s=mc.subsystems: embed_with_identity(y, dims, s),
            dims=dims, keep=mc.subsystems,
            label=",".join(map(str, mc.subsystems))))
    return _engine.ConstraintSystem(instance.dim, tuple(cons))


def check_consistency(instance: ConsistencyInstance, rho: np.ndarray,
                      tol: float = DEFAULT_TOL) -> ResidualReport:
    """Residuals of rho against the instance; consistent iff all are <= tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (instance.dim, instance.dim):
        raise ValueError(f"state shape {rho.shape} does not match dimension {instance.dim}")
    return _engine.residual_report(engine_system(instance), rho)


def theorem1_bound(instance: ConsistencyInstance,
                   rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """floor(sqrt(sum of squared numerical target ranks)).

    Whenever the instance is satisfiable at all, it is satisfiable by a state
    of at most this rank; 0 for the degenerate empty instance.
    """
    total = sum(numerical_rank(c.target, rank_tol) ** 2 for c in instance.constraints)
    return math.isqrt(total)


def barvinok_bound(instance: ConsistencyInstance) -> int:
    """floor(sqrt(2 * sum of squared constraint dimensions)).

    Rank bound from counting scalar equations only, ignoring target ranks;
    never tighter than theorem1_bound.
    """
    total = 0
    for c in instance.constraints:
        total += c.target.shape[0] ** 2
    return math.isqrt(2 * total)


def find_feasible(instance: ConsistencyInstance, *, tol: float = DEFAULT_TOL,
                  max_iters: int = DEFAULT_MAX_ITERS,
                  seed: int = 0) -> FeasibilityResult:
    """Search for a state meeting every constraint within tol.

    Alternating projections from the maximally mixed state.  The run is
    deterministic; seed is accepted for interface uniformity with the
    reduction options but not consumed.  A non-converged result carries the
    best iterate and a plateau or iteration-budget message.
    """
    del seed
    return _engine.solve_feasible(engine_system(instance), tol=tol,
                                  max_iters=max_iters)
