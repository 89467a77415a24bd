"""Constructive rank reduction of feasible states.

Given a feasible density matrix, walk along directions that change no
constraint until the positivity boundary, dropping at least one eigenvalue
per step.  The final rank is at most floor(sqrt(sum of squared target
ranks)) whenever steps remain available, and the walk continues greedily
below that bound while the null space stays nonempty.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import _engine
from ._engine import (DEFAULT_RANK_TOL, DEFAULT_TOL, ReductionError,
                      ReductionStep, ReductionTrace)
from .hilbert import support_basis
from .marginal import ConsistencyInstance
from .numerics import hermitian_part

if TYPE_CHECKING:
    from .sector import SectorInstance

__all__ = ["ReductionStep", "ReductionTrace", "ReductionError",
           "descent_direction", "step_length", "reduce_rank"]


def descent_direction(rho: np.ndarray, instance: ConsistencyInstance, *,
                      seed: int = 0, rank_tol: float = DEFAULT_RANK_TOL
                      ) -> np.ndarray | None:
    """Unit-norm traceless Hermitian H on supp(rho) with vanishing marginals.

    Drawn as a walk step draws it: from the null basis of the constraint
    rows on the first isqrt(m) + 1 support vectors (the whole support when
    it is narrower), m the number of rows, embedded into the support.
    Returns None when no such direction exists numerically (the null space
    of the rows on the support is empty, e.g. for pure states) or the one
    candidate fails its check.
    """
    rng = np.random.default_rng(seed)
    v = support_basis(rho, rank_tol)[0]
    q = _engine._restricted_null_space(*_engine._null_basis(instance.system, v), v)
    h = _engine.descent_direction_core(v, q, instance.system, rng)
    return None if h is None else hermitian_part(v @ h @ v.conj().T)


def step_length(rho: np.ndarray, h: np.ndarray, *,
                rank_tol: float = DEFAULT_RANK_TOL) -> tuple[float, int]:
    """Boundary step (lambda, sign) so that rho - sign*lambda*h is PSD and
    loses at least one unit of rank.  Raises ValueError when h is zero, has
    a nonzero trace or leaves supp(rho), or when rho has an empty support."""
    v, p = support_basis(rho, rank_tol)
    h = hermitian_part(np.asarray(h, dtype=complex))
    hn = float(np.linalg.norm(h))
    if hn == 0.0:
        raise ValueError("direction must be nonzero")
    if abs(np.trace(h)) > 1e-8 * hn:
        raise ValueError(f"direction has nonzero trace {np.trace(h):.3e}")
    if v.shape[1] == 0:
        raise ValueError("state has empty support")
    hr = v.conj().T @ h @ v
    leak = float(np.linalg.norm(h - v @ hr @ v.conj().T))
    if leak > 1e-8 * hn:
        raise ValueError(f"direction leaves the support of the state (leak {leak:.3e})")
    return _engine.step_length_core(p, hr)


def reduce_rank(rho0: np.ndarray, instance: ConsistencyInstance | SectorInstance, *,
                rank_tol: float = DEFAULT_RANK_TOL,
                repair_tol: float = DEFAULT_TOL,
                seed: int = 0,
                max_steps: int | None = None) -> tuple[np.ndarray, ReductionTrace]:
    """Greedy rank reduction of a feasible state of a qudit or sector instance.

    Every repair of the walk must end within repair_tol, so the returned
    state meets it; pass the tol that find_feasible met.  The trace records
    theorem1_bound(instance) as its bound.  Raises ValueError when rho0's
    residual exceeds max(1e-6, repair_tol), and ReductionError (with a
    partial trace attached) if a repair fails.
    """
    return _engine.reduce_core(
        np.asarray(rho0, dtype=complex), instance.system,
        rank_tol=rank_tol, repair_tol=repair_tol, seed=seed,
        max_steps=max_steps)
