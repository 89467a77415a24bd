"""Multipartite tensor-product structure and symmetry-sector embeddings.

Subsystem 0 is the most significant tensor factor: the composite basis index
of (i_0, ..., i_{n-1}) is i_0 * d_1*...*d_{n-1} + ... + i_{n-1}, matching the
row-major convention of numpy.kron.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product

import numpy as np

from .numerics import DEFAULT_RANK_TOL, as_hermitian, hermitian_part


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


def partial_trace(x, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in keep.

    Returns the operator on the kept factors, ordered as in keep.
    """
    dims = check_dims(dims)
    n = len(dims)
    keep = check_subsystems(keep, n)
    x = _as_operator(x, total_dim(dims))
    if len(keep) == n:
        return x.copy()
    t = x.reshape(dims + dims)
    kept = set(keep)
    row = list(range(n))
    col = [n + i if i in kept else i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    dk = math.prod(dims[i] for i in keep) if keep else 1
    return np.einsum(t, row + col, out).reshape(dk, dk)


def embed_with_identity(y, dims, on) -> np.ndarray:
    """Tensor y (acting on the subsystems in `on`) with identity elsewhere.

    Adjoint of partial_trace under the Frobenius inner product:
    <partial_trace(X, dims, on), Y> == <X, embed_with_identity(Y, dims, on)>.
    """
    dims = check_dims(dims)
    n = len(dims)
    on = check_subsystems(on, n)
    comp = [i for i in range(n) if i not in set(on)]
    don = math.prod(dims[i] for i in on) if on else 1
    dc = math.prod(dims[i] for i in comp) if comp else 1
    y = _as_operator(y, don)
    z = np.kron(y, np.eye(dc, dtype=complex))
    order = list(on) + comp
    perm = [order.index(i) for i in range(n)]
    shaped = z.reshape(tuple(dims[i] for i in order) * 2)
    d = total_dim(dims)
    return shaped.transpose(perm + [p + n for p in perm]).reshape(d, d)


def support_projector(rho, rank_tol: float = DEFAULT_RANK_TOL,
                      psd_tol: float = 1e-8) -> np.ndarray:
    """Orthogonal projector onto the span of eigenvectors with w > rank_tol * scale."""
    rho = as_hermitian(rho)
    w, v = np.linalg.eigh(rho)
    scale = max(1.0, float(np.abs(w).max())) if w.size else 1.0
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
    scale = max(1.0, float(np.abs(w).max())) if w.size else 1.0
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

