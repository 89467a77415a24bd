"""Local-consistency instances: a list of prescribed reduced states.

An instance asks for a global density matrix whose partial trace onto each
listed subsystem set equals the given target.  This module holds the data
model, the consistency check, the two rank bounds, and the feasibility
solver; the factored least-squares search itself lives in _engine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import _engine
from ._engine import (DEFAULT_MAX_ITERS, DEFAULT_TOL, FeasibilityResult,
                      ResidualReport)
from .hilbert import (check_dims, check_subsystems, partial_trace_index,
                      total_dim)
# unused here; kept as module attributes because bench/spans.py wraps them
from .hilbert import embed_with_identity, partial_trace  # noqa: F401
from .numerics import DEFAULT_RANK_TOL, check_target

if TYPE_CHECKING:
    from .sector import SectorInstance

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
        self.target = check_target(self.target)


@dataclass
class ConsistencyInstance:
    """Subsystem dimensions plus the marginal constraints to satisfy.

    An instance is a value once constructed: its engine system is built on
    first use and shared by every call on the instance, so changing a
    target in place is not supported.
    """

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

    @property
    def targets(self) -> tuple[np.ndarray, ...]:
        return tuple(c.target for c in self.constraints)

    @cached_property
    def system(self) -> _engine.ConstraintSystem:
        """The instance as engine constraints: one partial trace each."""
        return _engine.ConstraintSystem(self.dim, tuple(
            _engine.Constraint(c.target, partial_trace_index(self.dims, c.subsystems),
                               label="subsystems " + ",".join(map(str, c.subsystems)))
            for c in self.constraints))


def check_consistency(instance: ConsistencyInstance | SectorInstance,
                      rho: np.ndarray, tol: float = DEFAULT_TOL) -> ResidualReport:
    """Residuals of rho against the instance; consistent iff all are <= tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    system = instance.system
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (system.dim, system.dim):
        raise ValueError(f"state shape {rho.shape} does not match dimension {system.dim}")
    return _engine.residual_report(system, rho)


def theorem1_bound(instance: ConsistencyInstance | SectorInstance,
                   rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """floor(sqrt(sum of squared numerical target ranks)).

    Whenever the instance is satisfiable at all, it is satisfiable by a state
    of at most this rank; 0 for the degenerate empty instance.  A sector
    instance has one constraint, so its bound is the target rank.  It is the
    factor width of find_feasible, read from the spectra the instance's
    system keeps (ConstraintSystem.square_sum_bound).
    """
    return instance.system.square_sum_bound(rank_tol)


def barvinok_bound(instance: ConsistencyInstance | SectorInstance) -> int:
    """floor(sqrt(2 * sum of squared constraint dimensions)).

    Rank bound from counting scalar equations only, ignoring target ranks;
    never tighter than theorem1_bound.
    """
    return math.isqrt(2 * sum(t.shape[0] ** 2 for t in instance.targets))


def find_feasible(instance: ConsistencyInstance | SectorInstance, *,
                  tol: float = DEFAULT_TOL,
                  max_iters: int = DEFAULT_MAX_ITERS) -> FeasibilityResult:
    """Search for a state meeting every constraint within tol.

    Takes a qudit or a sector instance.  Least squares over factors
    rho = G G^dag / Tr with G of width theorem1_bound(instance) (at most the
    dimension), by L-BFGS from a fixed-seed start, so the run is
    deterministic and the state's rank is at most that bound.  A
    non-converged result carries the best iterate and a plateau or
    iteration-budget message; see _engine.solve_feasible.  The run uses the
    instance's system, so a reduce_rank of the same instance reuses its
    groups and target spectra.
    """
    return _engine.solve_feasible(instance.system, tol=tol, max_iters=max_iters)
