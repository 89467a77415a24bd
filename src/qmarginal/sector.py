"""Fixed-statistics particle sectors: instances, reduction, special states.

States live in the antisymmetric (fermionic) or symmetric (bosonic)
N-particle sector of (C^d)^{tensor N}, expressed in the occupation basis of
hilbert.sector_isometry.  The single constraint of a sector instance pins
the k-particle reduced state; the engine sees it as an index map over the
occupations (hilbert.sector_marginal_index), so no solve, reduction or
check builds the d^N-row isometry.  A sector instance goes through the same
find_feasible, reduce_rank and check_consistency as a qudit instance;
find_feasible_sector and reduce_rank_sector are other names for the first
two.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _engine
from .hilbert import sector_marginal_index, sector_size
# unused here; kept as module attributes because bench/spans.py wraps them
from .hilbert import embed_with_identity, partial_trace, sector_isometry  # noqa: F401
from .marginal import find_feasible
from .numerics import check_target
from .reduction import reduce_rank

__all__ = ["SectorInstance", "reduce_rank_sector", "find_feasible_sector",
           "bosonic_sigma_p", "bosonic_maximally_mixed_2",
           "admissible_sigma_range"]


@dataclass
class SectorInstance:
    """Prescribed k-particle reduced state inside an N-particle sector; a
    value once constructed, like a ConsistencyInstance."""

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

    @cached_property
    def system(self) -> _engine.ConstraintSystem:
        """The k-particle marginal map, as the index map over occupations of
        hilbert.sector_marginal_index."""
        k = self.marginal_particles
        index, weight = sector_marginal_index(self.statistics, self.particles,
                                              self.levels, k)
        con = _engine.Constraint(self.target, index, weight,
                                 label=f"{k}-particle marginal")
        return _engine.ConstraintSystem(self.sector_dim, (con,))


find_feasible_sector = find_feasible
reduce_rank_sector = reduce_rank


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
