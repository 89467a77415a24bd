"""Multipartite tensor-product structure and symmetry-sector embeddings.

Subsystem 0 is the most significant tensor factor: the composite basis index
of (i_0, ..., i_{n-1}) is i_0 * d_1*...*d_{n-1} + ... + i_{n-1}, matching the
row-major convention of numpy.kron.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from typing import NamedTuple

import numpy as np

from .numerics import (DEFAULT_RANK_TOL, as_hermitian, eigenvalue_scale,
                       hermitian_part)


class PauliExclusionError(ValueError):
    """Raised when a fermionic sector would need more particles than levels."""


def check_dims(dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ValueError("dims must be non-empty")
    if any(d < 2 for d in dims):
        raise ValueError(f"every subsystem dimension must be >= 2, got {dims}")
    return dims


def total_dim(dims) -> int:
    return math.prod(check_dims(dims))


def check_subsystems(keep, n: int) -> tuple[int, ...]:
    keep = tuple(int(i) for i in keep)
    if any(i < 0 or i >= n for i in keep):
        raise ValueError(f"subsystem indices {keep} out of range for {n} subsystems")
    if any(a >= b for a, b in zip(keep, keep[1:])):
        raise ValueError(f"subsystem indices must be strictly increasing, got {keep}")
    return keep


def _as_operator(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.shape != (dim, dim):
        raise ValueError(f"operator shape {x.shape} does not match dimension {dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("operator has non-finite entries")
    return x


class PartialTraceSpec(NamedTuple):
    """partial_trace and embed_with_identity for one (dims, keep), with no
    input checks: the operator as a tensor, the einsum sublists of the trace,
    and the axis order that puts the identity factors of the embedding in
    place."""

    tensor: tuple[int, ...]
    trace_in: tuple[int, ...]
    trace_out: tuple[int, ...]
    d_keep: int
    d_rest: int
    embedded: tuple[int, ...]
    axes: tuple[int, ...]

    def trace(self, x: np.ndarray) -> np.ndarray:
        """Tr_rest(x) for a complex array x of the full dimension."""
        if len(self.trace_out) == len(self.tensor):
            return x.copy()  # einsum would return a view of x
        out = np.einsum(x.reshape(self.tensor), self.trace_in, self.trace_out)
        return out.reshape(self.d_keep, self.d_keep)

    def embed(self, y: np.ndarray) -> np.ndarray:
        """y (x) I_rest with the factors back in their order, for y of size
        d_keep."""
        d = self.d_keep * self.d_rest
        z = np.kron(y, np.eye(self.d_rest, dtype=complex))
        return z.reshape(self.embedded).transpose(self.axes).reshape(d, d)


@lru_cache(maxsize=4096)
def partial_trace_spec(dims: tuple[int, ...], keep: tuple[int, ...]) -> PartialTraceSpec:
    """The shared PartialTraceSpec of (dims, keep); the caller has checked
    both (check_dims, check_subsystems).

    Cached because a constraint's maps run with the same dims and keep on
    every call.  An entry is a few small tuples, so a full cache holds a few
    MB at most.
    """
    n = len(dims)
    rest = tuple(i for i in range(n) if i not in keep)
    col = tuple(n + i if i in keep else i for i in range(n))
    order = keep + rest
    perm = tuple(order.index(i) for i in range(n))
    return PartialTraceSpec(
        dims + dims, tuple(range(n)) + col, keep + tuple(n + i for i in keep),
        math.prod(dims[i] for i in keep), math.prod(dims[i] for i in rest),
        tuple(dims[i] for i in order) * 2, perm + tuple(p + n for p in perm))


def partial_trace(x, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in keep.

    Returns the operator on the kept factors, ordered as in keep.
    """
    dims = check_dims(dims)
    keep = check_subsystems(keep, len(dims))
    return partial_trace_spec(dims, keep).trace(_as_operator(x, math.prod(dims)))


def embed_with_identity(y, dims, on) -> np.ndarray:
    """Tensor y (acting on the subsystems in `on`) with identity elsewhere.

    Adjoint of partial_trace under the Frobenius inner product:
    <partial_trace(X, dims, on), Y> == <X, embed_with_identity(Y, dims, on)>.
    """
    dims = check_dims(dims)
    spec = partial_trace_spec(dims, check_subsystems(on, len(dims)))
    return spec.embed(_as_operator(y, spec.d_keep))


def support_projector(rho, rank_tol: float = DEFAULT_RANK_TOL,
                      psd_tol: float = 1e-8) -> np.ndarray:
    """Orthogonal projector onto the span of eigenvectors with w > rank_tol * scale."""
    rho = as_hermitian(rho)
    w, v = np.linalg.eigh(rho)
    scale = eigenvalue_scale(w)
    if w.size and w.min() < -psd_tol * scale:
        raise ValueError(f"state is not positive semidefinite: min eigenvalue {w.min():.3e}")
    cols = v[:, w > rank_tol * scale]
    return hermitian_part(cols @ cols.conj().T)


def support_basis(rho, rank_tol: float = DEFAULT_RANK_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenbasis (columns) and eigenvalues of the support of rho.

    No positivity check; intended for states kept PSD by construction.
    """
    rho = hermitian_part(rho)
    w, v = np.linalg.eigh(rho)
    scale = eigenvalue_scale(w)
    sel = w > rank_tol * scale
    return v[:, sel], w[sel]


def _parity_sign(t) -> int:
    inv = sum(1 for i in range(len(t)) for j in range(i + 1, len(t)) if t[i] > t[j])
    return -1 if inv % 2 else 1


@dataclass
class SectorEmbedding:
    """Isometry from a fixed-statistics N-particle sector into (C^d)^{tensor N}.

    Columns are indexed by occupation tuples in lexicographic order: strictly
    increasing level tuples for fermions, non-decreasing for bosons.
    """

    statistics: str
    particles: int
    levels: int
    occupations: tuple[tuple[int, ...], ...]
    isometry: np.ndarray

    @property
    def sector_dim(self) -> int:
        return len(self.occupations)


def sector_size(statistics: str, particles: int, levels: int) -> int:
    """Dimension of the N-particle sector: C(d, N) fermionic, C(d+N-1, N) bosonic.

    Equals sector_isometry(...).sector_dim without building the d^N-row
    isometry, and rejects the same arguments.
    """
    if statistics not in ("fermionic", "bosonic"):
        raise ValueError(f"statistics must be 'fermionic' or 'bosonic', got {statistics!r}")
    n, d = int(particles), int(levels)
    if n < 1:
        raise ValueError("particle number must be >= 1")
    if d < 2:
        raise ValueError("level count must be >= 2")
    if statistics == "fermionic":
        if n > d:
            raise PauliExclusionError(
                f"cannot antisymmetrize {n} fermions over {d} levels")
        return math.comb(d, n)
    return math.comb(d + n - 1, n)


def sector_isometry(statistics: str, particles: int, levels: int) -> SectorEmbedding:
    """Build the isometry whose columns are normalized (anti)symmetrized basis states.

    Fermionic column for levels k_1 < ... < k_N is the normalized wedge product
    (1/sqrt(N!)) sum_P sign(P) |k_{P(1)} ... k_{P(N)}>; the bosonic column for a
    non-decreasing tuple is the uniform superposition of its distinct
    arrangements, normalized.
    """
    sector_size(statistics, particles, levels)
    n, d = int(particles), int(levels)
    if statistics == "fermionic":
        occs = tuple(combinations(range(d), n))
    else:
        occs = tuple(combinations_with_replacement(range(d), n))
    col_of = {occ: c for c, occ in enumerate(occs)}
    w = np.zeros((d ** n, len(occs)), dtype=complex)
    if statistics == "fermionic":
        amp = 1.0 / math.sqrt(math.factorial(n))
        for row, t in enumerate(product(range(d), repeat=n)):
            if len(set(t)) < n:
                continue
            w[row, col_of[tuple(sorted(t))]] = _parity_sign(t) * amp
    else:
        # amplitude per distinct arrangement of occ is 1/sqrt(#arrangements)
        amps = []
        for occ in occs:
            arrangements = math.factorial(n)
            for lvl in set(occ):
                arrangements //= math.factorial(occ.count(lvl))
            amps.append(1.0 / math.sqrt(arrangements))
        for row, t in enumerate(product(range(d), repeat=n)):
            c = col_of[tuple(sorted(t))]
            w[row, c] = amps[c]
    return SectorEmbedding(statistics, n, d, occs, w)


def sector_partial_trace(sigma, embedding: SectorEmbedding, k: int) -> np.ndarray:
    """k-particle reduced state of a sector state, expressed in the k-sector basis.

    Embeds sigma into the full tensor space, traces out particles k..N-1, and
    compresses onto the k-particle sector of the same statistics.
    """
    n, d = embedding.particles, embedding.levels
    k = int(k)
    if not 1 <= k <= n:
        raise ValueError(f"marginal particle count must be in 1..{n}, got {k}")
    sigma = _as_operator(sigma, embedding.sector_dim)
    if k == n:
        return sigma.copy()
    wn = embedding.isometry
    full = wn @ sigma @ wn.conj().T
    t = partial_trace(full, (d,) * n, range(k))
    wk = sector_isometry(embedding.statistics, k, d).isometry
    return wk.conj().T @ t @ wk

