"""Fixed-statistics particle sectors: instances, reduction, special states.

States live in the antisymmetric (fermionic) or symmetric (bosonic)
N-particle sector of (C^d)^{tensor N}, expressed in the occupation basis of
hilbert.sector_isometry.  The single constraint of a sector instance pins
the k-particle reduced state; the engine sees it as an index map over the
occupations (hilbert.sector_marginal_index), so no solve, reduction or
check builds the d^N-row isometry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _engine
from ._engine import (DEFAULT_MAX_ITERS, DEFAULT_RANK_TOL, DEFAULT_REPAIR_TOL,
                      DEFAULT_TOL, FeasibilityResult, ReductionTrace)
from .hilbert import sector_marginal_index, sector_size
# unused here; kept as module attributes because bench/spans.py wraps them
from .hilbert import embed_with_identity, partial_trace, sector_isometry  # noqa: F401
from .numerics import check_target

__all__ = ["SectorInstance", "reduce_rank_sector", "find_feasible_sector",
           "bosonic_sigma_p", "bosonic_maximally_mixed_2",
           "admissible_sigma_range"]


@dataclass
class SectorInstance:
    """Prescribed k-particle reduced state inside an N-particle sector."""

    statistics: str
    particles: int
    levels: int
    marginal_particles: int
    target: np.ndarray

    def __post_init__(self):
        self.particles = int(self.particles)
        self.levels = int(self.levels)
        self.marginal_particles = int(self.marginal_particles)
        if not 1 <= self.marginal_particles <= self.particles:
            raise ValueError(
                f"marginal particle count must be in 1..{self.particles}, "
                f"got {self.marginal_particles}")
        want = sector_size(self.statistics, self.marginal_particles, self.levels)
        self.target = check_target(self.target)
        if self.target.shape != (want, want):
            raise ValueError(
                f"target for a {self.marginal_particles}-particle "
                f"{self.statistics} sector over {self.levels} levels must be "
                f"{want}x{want}, got {self.target.shape}")

    @property
    def sector_dim(self) -> int:
        return sector_size(self.statistics, self.particles, self.levels)

    @property
    def targets(self) -> tuple[np.ndarray, ...]:
        return (self.target,)

    def engine_system(self) -> _engine.ConstraintSystem:
        """The k-particle marginal map, as the index map over occupations of
        hilbert.sector_marginal_index."""
        k = self.marginal_particles
        index, weight = sector_marginal_index(self.statistics, self.particles,
                                              self.levels, k)
        con = _engine.Constraint(self.target, index, weight,
                                 label=f"{k}-particle marginal")
        return _engine.ConstraintSystem(self.sector_dim, (con,))


def find_feasible_sector(instance: SectorInstance, *, tol: float = DEFAULT_TOL,
                         max_iters: int = DEFAULT_MAX_ITERS) -> FeasibilityResult:
    """Factored least-squares search inside the sector, at a factor width of
    the target's rank; the same run as find_feasible(instance)."""
    return _engine.solve_feasible(instance.engine_system(), tol=tol,
                                  max_iters=max_iters)


def reduce_rank_sector(sigma0: np.ndarray, instance: SectorInstance, *,
                       rank_tol: float = DEFAULT_RANK_TOL,
                       repair_tol: float = DEFAULT_REPAIR_TOL,
                       seed: int = 0,
                       max_steps: int | None = None) -> tuple[np.ndarray, ReductionTrace]:
    """Rank reduction with the marginal map replaced by the sector version.

    The bound is the numerical rank of the target (the single-constraint
    value of the general square-sum bound).
    """
    return _engine.reduce_core(
        np.asarray(sigma0, dtype=complex), instance.engine_system(),
        rank_tol=rank_tol, repair_tol=repair_tol, seed=seed,
        max_steps=max_steps)


def admissible_sigma_range(particles: int) -> tuple[int, int]:
    """Inclusive excitation range (lo, hi) where bosonic_sigma_p is a state."""
    n = int(particles)
    if n < 2:
        raise ValueError("particle number must be >= 2")
    lo = max(1, math.ceil((n - 1) / 3))
    hi = min(n - 1, (2 * n + 1) // 3)
    return lo, hi


def bosonic_sigma_p(particles: int, p: int) -> np.ndarray:
    """Three-term diagonal family in the two-level bosonic occupation basis.

    sigma_p mixes the all-zeros state, the all-ones state, and the p-excitation
    Dicke state with weights (3p+1-N)/(6p), (2N-3p+1)/(6(N-p)), and
    N(N-1)/(6p(N-p)); every admissible member shares the same two-particle
    reduced state, the maximally mixed one.
    """
    n, p = int(particles), int(p)
    lo, hi = admissible_sigma_range(n)
    if not lo <= p <= hi:
        raise ValueError(
            f"excitation number {p} outside the admissible range "
            f"{lo}..{hi} for {n} particles")
    a = (3 * p + 1 - n) / (6 * p)
    b = (2 * n - 3 * p + 1) / (6 * (n - p))
    dicke = n * (n - 1) / (6 * p * (n - p))
    sigma = np.zeros((n + 1, n + 1), dtype=complex)
    sigma[0, 0] = a
    sigma[n, n] = b
    sigma[p, p] += dicke
    return sigma


def bosonic_maximally_mixed_2() -> np.ndarray:
    """Two-particle, two-level bosonic maximally mixed state (occupation basis)."""
    return np.eye(3, dtype=complex) / 3
