"""Multipartite tensor-product structure and symmetry-sector embeddings.

Subsystem 0 is the most significant tensor factor: the composite basis index
of (i_0, ..., i_{n-1}) is i_0 * d_1*...*d_{n-1} + ... + i_{n-1}, matching the
row-major convention of numpy.kron.

Both kinds of marginal also come as index maps, the form the engine's
constraints take: partial_trace_index for a partial trace, and
sector_marginal_index for a k-particle sector marginal, which sums over
occupations and never builds the d^N-row isometry.  sector_isometry and
sector_partial_trace stay as the independent reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product

import numpy as np

from .numerics import (DEFAULT_RANK_TOL, as_hermitian, eigenvalue_scale,
                       hermitian_part, support_mask)


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
    keep = check_subsystems(keep, len(dims))
    n = len(dims)
    x = _as_operator(x, math.prod(dims))
    if len(keep) == n:
        return x.copy()  # einsum would return a view of x
    col = tuple(n + i if i in keep else i for i in range(n))
    d_keep = math.prod(dims[i] for i in keep)
    out = np.einsum(x.reshape(dims + dims), tuple(range(n)) + col,
                    keep + tuple(n + i for i in keep))
    return out.reshape(d_keep, d_keep)


def embed_with_identity(y, dims, on) -> np.ndarray:
    """Tensor y (acting on the subsystems in `on`) with identity elsewhere.

    Adjoint of partial_trace under the Frobenius inner product:
    <partial_trace(X, dims, on), Y> == <X, embed_with_identity(Y, dims, on)>.
    """
    dims = check_dims(dims)
    on = check_subsystems(on, len(dims))
    n = len(dims)
    rest = tuple(i for i in range(n) if i not in on)
    order = on + rest
    perm = tuple(order.index(i) for i in range(n))
    d_keep = math.prod(dims[i] for i in on)
    z = np.kron(_as_operator(y, d_keep), np.eye(math.prod(dims) // d_keep, dtype=complex))
    return z.reshape(tuple(dims[i] for i in order) * 2).transpose(
        perm + tuple(p + n for p in perm)).reshape(z.shape)


def partial_trace_index(dims, keep) -> np.ndarray:
    """The index map of the partial trace onto keep: entry (i, e) is the
    basis state with kept factors i and traced factors e, so that
    partial_trace(x, dims, keep)[i, j] = sum_e x[index[i, e], index[j, e]].
    The caller has checked dims and keep (check_dims, check_subsystems)."""
    n = len(dims)
    rest = tuple(i for i in range(n) if i not in keep)
    d_keep = math.prod(dims[i] for i in keep)
    return np.arange(math.prod(dims)).reshape(dims).transpose(keep + rest).reshape(d_keep, -1)


def support_projector(rho, rank_tol: float = DEFAULT_RANK_TOL,
                      psd_tol: float = 1e-8) -> np.ndarray:
    """Orthogonal projector onto the span of eigenvectors with w > rank_tol * scale."""
    rho = as_hermitian(rho)
    w, v = np.linalg.eigh(rho)
    scale = eigenvalue_scale(w)
    if w.size and w.min() < -psd_tol * scale:
        raise ValueError(f"state is not positive semidefinite: min eigenvalue {w.min():.3e}")
    cols = v[:, support_mask(w, rank_tol)]
    return hermitian_part(cols @ cols.conj().T)


def support_basis(rho, rank_tol: float = DEFAULT_RANK_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenbasis (columns) and eigenvalues of the support of rho.

    No positivity check; intended for states kept PSD by construction.
    """
    rho = hermitian_part(rho)
    w, v = np.linalg.eigh(rho)
    sel = support_mask(w, rank_tol)
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


def _occupations(statistics: str, n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The occupation tuples of n particles over d levels, in lexicographic
    order: strictly increasing for fermions, non-decreasing for bosons."""
    pick = combinations if statistics == "fermionic" else combinations_with_replacement
    return tuple(pick(range(d), n))


def _arrangements(occ: tuple[int, ...]) -> int:
    """The number of distinct orderings of the levels in occ."""
    count = math.factorial(len(occ))
    for lvl in set(occ):
        count //= math.factorial(occ.count(lvl))
    return count


def sector_isometry(statistics: str, particles: int, levels: int) -> SectorEmbedding:
    """Build the isometry whose columns are normalized (anti)symmetrized basis states.

    Fermionic column for levels k_1 < ... < k_N is the normalized wedge product
    (1/sqrt(N!)) sum_P sign(P) |k_{P(1)} ... k_{P(N)}>; the bosonic column for a
    non-decreasing tuple is the uniform superposition of its distinct
    arrangements, normalized.
    """
    sector_size(statistics, particles, levels)
    n, d = int(particles), int(levels)
    occs = _occupations(statistics, n, d)
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
        amps = [1.0 / math.sqrt(_arrangements(occ)) for occ in occs]
        for row, t in enumerate(product(range(d), repeat=n)):
            c = col_of[tuple(sorted(t))]
            w[row, c] = amps[c]
    return SectorEmbedding(statistics, n, d, occs, w)


def sector_marginal_index(statistics: str, particles: int, levels: int,
                          k: int) -> tuple[np.ndarray, np.ndarray]:
    """The index map of the k-particle marginal of an N-particle sector state.

    Returns (index, weight), both of shape (k-sector dim, (N-k)-sector dim),
    with sector_partial_trace(sigma, ., k)[i, j] =
    sum_e weight[i, e] weight[j, e] sigma[index[i, e], index[j, e]]: i runs
    over the k-particle occupations, e over the (N-k)-particle ones, both in
    sector_isometry's order, and index[i, e] is the position of the
    occupation i + e.  The weight is the sign of the permutation that sorts
    i + e over sqrt(C(N, k)) for fermions, and 0 (index 0) when i and e
    share a level; sqrt(arr(i) arr(e) / arr(i + e)) for bosons, arr counting
    distinct orderings.  No d^N isometry is built (Coleman, Rev. Mod. Phys.
    35, 668, 1963).
    """
    sector_size(statistics, particles, levels)
    n, d, k = int(particles), int(levels), int(k)
    if not 1 <= k <= n:
        raise ValueError(f"marginal particle count must be in 1..{n}, got {k}")
    pos = {occ: p for p, occ in enumerate(_occupations(statistics, n, d))}
    kept, rest = _occupations(statistics, k, d), _occupations(statistics, n - k, d)
    index = np.zeros((len(kept), len(rest)), dtype=np.intp)
    weight = np.zeros(index.shape)
    norm = 1.0 / math.sqrt(math.comb(n, k))
    for a, i in enumerate(kept):
        for e, t in enumerate(rest):
            s = tuple(sorted(i + t))
            if statistics == "fermionic":
                if len(set(s)) < n:
                    continue
                weight[a, e] = _parity_sign(i + t) * norm
            else:
                weight[a, e] = math.sqrt(
                    _arrangements(i) * _arrangements(t) / _arrangements(s))
            index[a, e] = pos[s]
    return index, weight


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

