"""Constructive rank reduction of feasible states.

Given a feasible density matrix, walk along directions that change no
constraint until the positivity boundary, dropping at least one eigenvalue
per step.  The final rank is at most floor(sqrt(sum of squared target
ranks)) whenever steps remain available, and the walk continues greedily
below that bound while the null space stays nonempty.
"""
from __future__ import annotations

import numpy as np

from . import _engine
from ._engine import (DEFAULT_DERIV_TOL, DEFAULT_RANK_TOL, DEFAULT_REPAIR_TOL,
                      ReductionError, ReductionStep, ReductionTrace)
from .marginal import ConsistencyInstance, theorem1_bound

__all__ = ["ReductionStep", "ReductionTrace", "ReductionError",
           "descent_direction", "step_length", "reduce_rank"]


def descent_direction(rho: np.ndarray, instance: ConsistencyInstance, *,
                      seed: int = 0, rank_tol: float = DEFAULT_RANK_TOL,
                      deriv_tol: float = DEFAULT_DERIV_TOL) -> np.ndarray | None:
    """Unit-norm traceless Hermitian H on supp(rho) with vanishing marginals.

    Returns None when no such direction exists numerically (the null space
    of the constraint rows on the support is empty, e.g. for pure states).
    """
    rng = np.random.default_rng(seed)
    return _engine.descent_direction_core(
        np.asarray(rho, dtype=complex), instance.engine_system(), rng,
        rank_tol=rank_tol, deriv_tol=deriv_tol)


def step_length(rho: np.ndarray, h: np.ndarray, *,
                rank_tol: float = DEFAULT_RANK_TOL) -> tuple[float, int]:
    """Boundary step (lambda, sign) so that rho - sign*lambda*h is PSD and
    loses at least one unit of rank."""
    return _engine.step_length_core(rho, h, rank_tol=rank_tol)


def reduce_rank(rho0: np.ndarray, instance: ConsistencyInstance, *,
                rank_tol: float = DEFAULT_RANK_TOL,
                repair_tol: float = DEFAULT_REPAIR_TOL,
                seed: int = 0,
                max_steps: int | None = None) -> tuple[np.ndarray, ReductionTrace]:
    """Greedy rank reduction of a feasible state.

    Raises ValueError when rho0 is not feasible for the instance, and
    ReductionError (with a partial trace attached) if a repair fails.
    """
    return _engine.reduce_core(
        np.asarray(rho0, dtype=complex), instance.engine_system(),
        bound=theorem1_bound(instance, rank_tol), rank_tol=rank_tol,
        repair_tol=repair_tol, seed=seed, max_steps=max_steps)
