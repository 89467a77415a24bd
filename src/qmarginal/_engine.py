"""Shared feasibility and rank-reduction engine.

Everything here is phrased against a list of linear constraints, each given
by an index map and a target: M(x)[i, j] = sum_e w[i, e] w[j, e]
x[index[i, e], index[j, e]].  A plain partial trace (qudit and channel
instances) has unit weights; a sector marginal runs over occupations with
signed or arrangement weights.  A system stacks its constraints of one
index shape (all weighted or all not) into a group, so the maps, the
constraint rows, their nonzeros and the targets' eigendecompositions are
one batched operation per group, never a loop over constraints.  Inside
the engine everything per constraint (rows, right-hand side, duals, face
projectors) runs in group order, each group's constraints in turn;
constraint order is restored only where a result leaves the engine
(residual_report, InfeasibilityCertificate).  The forward map and the
constraint rows are both derived from the map, so the same code serves
every instance.  The full-space rows A (the unit-trace row and every
constraint's rows) are sparse, and the system keeps their nonzeros, one
gather per group on the same map against the entries of the state's real
view, without forming the dense rows.
Feasibility is a least-squares problem over factors: minimise
||A coords(G G^dag) - b||^2 for G of size D x k, k the paper's square-sum
rank bound, with G on the face that rank-deficient targets force (an
empty face is a certificate at once), so an iteration is one sparse product with A (for both
line-search terms), one with A^T, dense products with G and an L-BFGS
memory on a sliding window, without calling the maps or decomposing a
state; at iterations 0, 1, 2, 4, ... a screen seeks in the residual a dual
certificate of infeasibility, checked with the maps, which ends the run.
Rank reduction (the paper's Theorem 1, walked on the support of a
feasible state) holds the state as its support factor x = V diag(p) V^dag:
one eigendecomposition of the D x D start, then r x r ones that rotate V
inside its own span.  The rows on span(V), from one builder (_affine_rows),
serve the affine projection of its repair (residual and correction on the
support alone, one eigendecomposition of the rows' Gram matrix) and the
descent null space, from which every direction is drawn: one orthonormal
null basis per walk, built at the first support V0 with r0^2 <= m (m the
number of rows) and restricted to each later support, which lies in
span(V0) by construction; above that, a basis on isqrt(m) + 1 vectors of
the support, embedded into it.  State-space operators are dense complex
Hermitian matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .hilbert import support_basis
from .numerics import DEFAULT_RANK_TOL, hermitian_part, rank_counts, support_mask
# unused here; kept as module attributes because bench/spans.py wraps them
from .numerics import numerical_rank, psd_project  # noqa: F401

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 5000
DEFAULT_DERIV_TOL = 1e-9
LBFGS_MEMORY = 20
STATIONARY_RTOL = 1e-9


def _apply_maps(x: np.ndarray, index: np.ndarray,
                weight: np.ndarray | None) -> np.ndarray:
    """M(x) for index maps stacked along leading axes (index and weight of
    shape (..., d_c, n_e)), one gather of x[index[..., i, e],
    index[..., j, e]] for all of them.  The terms are summed over e in
    order, a running sum, so a partial trace rounds as the einsum of
    hilbert.partial_trace does."""
    ix = index.swapaxes(-1, -2)
    y = x[ix[..., :, None], ix[..., None, :]]
    if weight is not None:
        w = weight.swapaxes(-1, -2)
        y = y * (w[..., :, None] * w[..., None, :])
    return np.add.accumulate(y, axis=-3)[..., -1, :, :]


def _adjoint_maps(y: np.ndarray, index: np.ndarray, weight: np.ndarray | None,
                  dim: int) -> np.ndarray:
    """The sum of M*(y) over index maps stacked as _apply_maps takes them,
    y of shape (..., d_c, d_c): the D x D scatter of w[i, e] w[j, e]
    y[..., i, j] onto [index[..., i, e], index[..., j, e]], the twin of
    _apply_maps's gather, so <y, M(x)> = Tr(M*(y) x)."""
    ix = index.swapaxes(-1, -2)
    v = np.broadcast_to(y[..., None, :, :], ix.shape + ix.shape[-1:])
    if weight is not None:
        w = weight.swapaxes(-1, -2)
        v = v * (w[..., :, None] * w[..., None, :])
    at = (ix[..., :, None] * dim + ix[..., None, :]).ravel()
    out = (np.bincount(at, v.real.ravel(), dim * dim)
           + 1j * np.bincount(at, v.imag.ravel(), dim * dim))
    return out.reshape(dim, dim)


def _frobenius(m: np.ndarray) -> np.ndarray:
    """Frobenius norms of matrices stacked along leading axes, each summed
    as np.linalg.norm sums one matrix: a dot of its real parts plus a dot
    of its imaginary parts."""
    f = m.reshape(m.shape[:-2] + (1, -1))
    re, im = f.real, f.imag
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


@dataclass(frozen=True)
class Constraint:
    """One affine equality M(X) == target, with M given as an index map.

    M(x)[i, j] = sum_e w[i, e] w[j, e] x[index[i, e], index[j, e]]: i and j
    run over the target's basis, e over what M sums out, and the weights w
    are real, all ones when weight is None.  A partial trace has
    index[i, e] the basis state with kept factors i and traced factors e
    (hilbert.partial_trace_index); a sector marginal has the position of the
    occupation i + e, weighted by its sign or arrangement count
    (hilbert.sector_marginal_index).  A ConstraintSystem stacks the
    constraints of one shape into a ConstraintGroup, and the engine works
    on the groups; apply is the groups' map for this one constraint.
    label names the constraint in reports.  A state is checked where it
    enters the engine (hermitian_part), not here.
    """

    target: np.ndarray
    index: np.ndarray
    weight: np.ndarray | None = None
    label: str = ""

    def apply(self, x: np.ndarray) -> np.ndarray:
        """M(x), by _apply_maps."""
        return _apply_maps(x, self.index, self.weight)


@dataclass(frozen=True, eq=False)
class ConstraintGroup:
    """The constraints of a system that share an index shape and are all
    weighted or all unweighted, stacked: index and weight (None when
    unweighted) of shape (C, d_c, n_e), target (C, d_c, d_c), and positions,
    their places in the system's constraint list.  The targets'
    eigendecompositions are computed once, batched, on first use."""

    positions: np.ndarray
    index: np.ndarray
    weight: np.ndarray | None
    target: np.ndarray

    @cached_property
    def target_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs of every target, by eigh as support_basis takes them:
        the spectra of square_sum_bound and face."""
        return np.linalg.eigh(hermitian_part(self.target))


@dataclass(frozen=True, eq=False)
class AffineFactor:
    """The full-space affine rows, as the feasibility solver and the
    projection use them.

    A, the unit-trace row then the full rows of every constraint in group
    order, acts on the real coordinates of a Hermitian matrix, and each
    coordinate is a fixed multiple of the real or imaginary part of an
    entry, read on either side of the diagonal.  So A is kept as its
    nonzeros against the real view of the D x D matrix itself:
    (A coords(x))[row[i]] sums val[i] * x.view(float).ravel()[col[i]], and
    no product with A or A^T converts to coordinates.  target is b, the
    right-hand side of A coords(y) = b in the same row order; offsets are
    the first rows of the trace block and of each constraint's block.
    """

    dim: int
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    target: np.ndarray
    offsets: np.ndarray

    @cached_property
    def _pair(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzeros for a stack of two: the second's rows and entries follow."""
        return (np.concatenate([self.row, self.row + self.target.size]),
                np.concatenate([self.col, self.col + 2 * self.dim ** 2]),
                np.concatenate([self.val, self.val]))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A coords(x) for Hermitian x, or for each of a stack of two, by one
        bincount that sums every row in the same order."""
        xr = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64).ravel()
        if x.ndim == 2:
            return np.bincount(self.row, self.val * xr[self.col], minlength=self.target.size)
        row, col, val = self._pair
        return np.bincount(row, val * xr[col], minlength=2 * self.target.size).reshape(2, -1)

    def gradient(self, dev: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """4 S G, the gradient of ||dev||^2 at the factor G, and 2 S, for
        S = coords^-1(A^T dev), the Hermitian S with <dev, A coords(x)> =
        Tr(S x).  A^T dev, scattered onto the real view, is a matrix W
        with <dev, A coords(x)> = Re Tr(W^dag x), so 2 S = W + W^dag; the
        gradient is 2 ((2 S) G)."""
        d = self.dim
        w = np.bincount(self.col, self.val * dev[self.row], minlength=2 * d * d)
        w = w.view(np.complex128).reshape(d, d)
        two_s = w + w.conj().T
        return 2 * (two_s @ g), two_s

    def max_block_norm(self, dev: np.ndarray) -> float:
        """The largest norm of the trace block and the constraint blocks of
        dev, the root of their largest square sum: for dev = A coords(x) - b,
        the largest of the trace defect and the Frobenius residuals at x,
        because the coordinates are an isometry."""
        return math.sqrt(np.add.reduceat(dev * dev, self.offsets).max())


class Face(NamedTuple):
    """ConstraintSystem.face: the projectors P_c off the targets' supports,
    one stack per group, the eigenvalues (ascending) and eigenvectors of
    Q = sum_c M_c*(P_c), and dim, the dimension D' of ker Q, whose basis is
    the first dim eigenvectors."""

    projectors: tuple[np.ndarray, ...]
    values: np.ndarray
    vectors: np.ndarray
    dim: int


@dataclass(frozen=True)
class ConstraintSystem:
    """The state dimension and the constraints, as given and as groups.

    groups stacks the constraints of one shape (see ConstraintGroup), so
    every map, row and nonzero build runs once per group, in group order;
    results go back to the constraints' positions as they leave the
    engine, so reports keep one residual per constraint, in order.  The
    full-space affine factor and the targets' eigendecompositions are built
    on first use and kept with the system.
    """

    dim: int
    constraints: tuple[Constraint, ...]

    @cached_property
    def groups(self) -> tuple[ConstraintGroup, ...]:
        """The constraints stacked by (index shape, weighted or not), in
        order of each group's first constraint."""
        members: dict[tuple, list[int]] = {}
        for p, c in enumerate(self.constraints):
            members.setdefault((c.index.shape, c.weight is None), []).append(p)
        return tuple(ConstraintGroup(
            np.array(ps), np.stack([self.constraints[p].index for p in ps]),
            None if unweighted else np.stack([self.constraints[p].weight for p in ps]),
            np.stack([self.constraints[p].target for p in ps]))
            for (_, unweighted), ps in members.items())

    def in_order(self, stacks) -> list:
        """The slices of per-group stacks, (group, stack) pairs with one
        slice per constraint of the group, in the system's constraint order:
        a certificate's duals as it leaves the engine."""
        out = [None] * len(self.constraints)
        for g, stack in stacks:
            for p, item in zip(g.positions.tolist(), stack):
                out[p] = item
        return out

    def square_sum_bound(self, rank_tol: float = DEFAULT_RANK_TOL) -> int:
        """floor(sqrt(sum of squared numerical target ranks)), from the
        groups' kept spectra: the paper's bound on the rank of some solution
        of any satisfiable instance."""
        return math.isqrt(sum(int((rank_counts(g.target_eigh[0], rank_tol) ** 2).sum())
                              for g in self.groups))

    def face(self, rank_tol: float = DEFAULT_RANK_TOL) -> Face | None:
        """The face that rank-deficient targets force, or None when every
        target has full rank at rank_tol, so that no Q is formed.  P_c, the
        projector off supp(T_c), comes from the kept spectra by support_mask,
        the walk's support rule, and Q = sum_c M_c*(P_c) from one
        _adjoint_maps call per group.  A state meeting every target has
        Tr(Q rho) = sum_c <P_c, T_c> = 0 with Q PSD, so it lives on ker Q;
        the kernel is the first eigenvectors of Q, those whose eigenvalues
        support_mask rejects."""
        spectra = [g.target_eigh for g in self.groups]
        masks = [~support_mask(w, rank_tol) for w, _ in spectra]
        if not any(m.any() for m in masks):
            return None
        perps = tuple((v * m[..., None, :]) @ v.conj().swapaxes(-1, -2)
                      for (_, v), m in zip(spectra, masks))
        w, u = np.linalg.eigh(sum(_adjoint_maps(p, g.index, g.weight, self.dim)
                                  for g, p in zip(self.groups, perps)))
        return Face(perps, w, u, int(np.count_nonzero(~support_mask(w, rank_tol))))

    def trusted_face(self, rank_tol: float = DEFAULT_RANK_TOL, tol: float = DEFAULT_TOL
                     ) -> tuple[Face | None, tuple[float, tuple[np.ndarray, ...], float] | None]:
        """(face, dual): the face solve_feasible searches, None for the
        full space, and the checked certificate an empty face gives.  An
        empty face offers Y_c = P_c and y0 = -lambda_min(Q) plus a rounding
        margin; when the check at tol rejects them, the face is not trusted
        and the full space is searched, as when every target has full rank."""
        face = self.face(rank_tol)
        if face is None or face.dim > 0:
            return face, None
        w = face.values
        dual = _checked_dual(self, -w[0] + _margin(w), face.projectors, tol)
        return (None if dual is None else face), dual

    @cached_property
    def rhs(self) -> tuple[np.ndarray, np.ndarray]:
        """b, the right-hand side of A coords(y) = b (the trace row's 1,
        then every target's coordinates, group by group), and the first rows
        of its trace block and of each constraint's block.  Kept apart from
        affine, so the repair's projection reads b without the nonzeros."""
        sizes = [1] + [g.target.shape[-1] ** 2 for g in self.groups for _ in g.positions]
        b = [_herm_coords(g.target).ravel() for g in self.groups]
        return np.concatenate([[1.0]] + b), np.cumsum([0] + sizes[:-1])

    @cached_property
    def affine(self) -> AffineFactor:
        """The full-space affine factor of the solver, built on first use
        and then kept with the system: the rows of _affine_rows(self, I),
        in the same order, as nonzeros gathered from the index maps
        (_constraint_nonzeros) without forming the rows; its target and
        offsets are rhs."""
        row, col, val = _affine_nonzeros(self)
        return AffineFactor(self.dim, row, col, val, *self.rhs)


@dataclass(frozen=True)
class ResidualReport:
    """Frobenius residual per constraint plus positivity and trace defects."""

    residuals: tuple[float, ...]
    psd_violation: float
    trace_error: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals + (self.psd_violation, self.trace_error))

    def is_consistent(self, tol: float) -> bool:
        return self.max_residual <= tol


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Proof that no state meets every target (weak conic duality, Farkas'
    lemma for the PSD cone): Z = trace_dual I + sum_c M_c*(duals[c]), duals
    in constraint order, is PSD, so every state rho has Tr(Z rho) =
    trace_dual + sum_c <duals[c], M_c(rho)> >= 0, while the targets give
    that sum < 0.  So every rho has (sum_c ||M_c(rho) - T_c||^2)^(1/2) at
    least lower, and upper is that distance for the state returned."""

    trace_dual: float
    duals: tuple[np.ndarray, ...]
    lower: float
    upper: float


@dataclass
class FeasibilityResult:
    """Outcome of the factored least-squares solver.

    state is G G^dag / Tr for the solver's best iterate G; when converged is
    False, it is a diagnostic, not a solution.  residual_history holds, per
    iteration, the best residual reached so far, so it never increases.
    factor_rank is the width of that G: max(1, min(D', square-sum bound)),
    D' the dimension of the face that rank-deficient targets force (D when
    every target has full rank; a bound of 0, every target eigenvalue at or
    below rank_tol, still gives one column), or D' if an iterate after the
    pad to D' columns is the best, so a run whose pad never improves
    reports the smaller width even when its message names rank D'.  An
    empty face certified before any iteration reports D, for its state I/D.
    certificate is set when the run ended on a proof that no state exists.
    """

    state: np.ndarray
    report: ResidualReport
    converged: bool
    iterations: int
    message: str
    residual_history: tuple[float, ...]
    factor_rank: int
    certificate: InfeasibilityCertificate | None = None


@dataclass(frozen=True)
class ReductionStep:
    rank_before: int
    rank_after: int
    step_length: float
    sign: int
    residual_before_repair: float
    residual_after: float


@dataclass
class ReductionTrace:
    steps: list[ReductionStep]
    final_rank: int
    bound: int
    null_space_exhausted: bool
    notes: dict = field(default_factory=dict)


class ReductionError(RuntimeError):
    """Rank reduction aborted; carries the partial trace for diagnostics."""

    def __init__(self, message: str, trace: ReductionTrace | None = None):
        super().__init__(message)
        self.trace = trace


def residual_report(system: ConstraintSystem, x: np.ndarray) -> ResidualReport:
    """The Frobenius residual of every constraint at x, in the system's
    order, from one gather per group, plus the PSD and trace defects."""
    res = np.empty(len(system.constraints))
    for g in system.groups:
        res[g.positions] = _frobenius(_apply_maps(x, g.index, g.weight) - g.target)
    res = tuple(res.tolist())
    w = np.linalg.eigvalsh(hermitian_part(x))
    psd = float(max(0.0, -w.min())) if w.size else 0.0
    tr = float(abs(np.trace(x) - 1.0))
    return ResidualReport(res, psd, tr)


# ---------------------------------------------------------------------------
# The affine rows A: the unit-trace row plus every constraint's rows,
# constraint_rows(group, V) for each group, in the coordinates of
# corrections V herm(y) V^dag.  A group's rows are one batched build, and
# the rows, like b, run in group order: each group's constraints in turn.
# The trace row rides along even though the marginal rows imply it; this
# keeps a projected point exactly on the trace-one slice regardless of
# rounding in the other rows.  A row of a constraint has at most one
# nonzero per summed index e among its D^2 entries, so the full-space A
# (V = I) is kept as its nonzeros, against the entries of the D x D matrix
# (AffineFactor), and each product with A or A^T is one bincount over them.
# The nonzeros are one gather per group on its stacked index maps, never
# the dense m x D^2 rows; they agree with those rows to rounding.
#
# The feasibility solver uses the full-space products.  The rank reduction
# keeps its state on span(V), x = V m V^dag, and its repair projects with
# corrections confined there.  V's rows R_V are A's rows on span(V)
# (R_V = A C_V for the linear map C_V from coordinates on span(V) to
# coordinates on the full space), so R_V coords(m) = A coords(x): the
# projection reads its residual and solves for its correction with R_V
# alone.  The descent takes the null space of the same rows.  A feasible
# state's support lies in ker Q (ConstraintSystem.face), so H = V h V^dag
# has P_c M_c(H) = 0, P_c the projector off supp(T_c): M_c(H) lives on
# supp(T_c), and the full rows have the null space of the rows compressed
# onto the target supports.
# ---------------------------------------------------------------------------

def _affine_rows(system: ConstraintSystem, v: np.ndarray) -> np.ndarray:
    """The dense affine rows on span(v): the trace row, then every
    constraint's full rows, group by group."""
    r2 = v.shape[1] ** 2
    return np.vstack([_herm_coords(np.eye(v.shape[1]))] + [
        constraint_rows(g, v).reshape(-1, r2) for g in system.groups])


def _affine_nonzeros(system: ConstraintSystem
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, real-view entry and value of every nonzero of
    _affine_rows(system, I): the trace row, a one at every diagonal entry,
    then each group's nonzeros, its rows starting where the last group's
    ended."""
    d = system.dim
    parts = [(np.zeros(d, dtype=np.intp), 2 * (d + 1) * np.arange(d), np.ones(d))]
    start = 1
    for g in system.groups:
        parts.append(_constraint_nonzeros(g, d, start))
        start += g.target.size
    return tuple(np.concatenate(a) for a in zip(*parts))


def _constraint_nonzeros(g: ConstraintGroup, d: int, start: int
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros of constraint_rows(g, I), rows numbered from start, by
    one gather on the index map P with weights w: the coordinate of target
    basis pair (a, b), a <= b in _coord_index's order, reads
    sum_e w[a,e] w[b,e] x[P[a,e], P[b,e]], the real part at real-view
    entry 2 (P[a,e] D + P[b,e]) and, off the diagonal, the imaginary part
    at the next one, each scaled by sqrt(2) off the diagonal.  Zero weights
    are dropped."""
    p = g.index
    w = np.ones(p.shape) if g.weight is None else g.weight
    diag, a, b = _coord_index(p.shape[1])
    sizes = [diag.size, a.size, a.size]
    i, j = np.concatenate([diag, a, a]), np.concatenate([diag, b, b])
    col = 2 * (p[:, i] * d + p[:, j]) + np.repeat([0, 0, 1], sizes)[:, None]
    val = w[:, i] * w[:, j] * np.repeat([1.0, math.sqrt(2), math.sqrt(2)], sizes)[:, None]
    row = np.broadcast_to(start + np.arange(col.shape[0] * i.size).reshape(-1, i.size, 1),
                          col.shape)
    nz = val != 0
    return row[nz], col[nz], val[nz]


def project_affine(system: ConstraintSystem, v: np.ndarray,
                   m: np.ndarray) -> np.ndarray:
    """Least-squares projection of the state V m V^dag onto the affine
    constraint slice, with the correction confined to operators on span(V);
    returns m plus the correction, in the coordinates of span(V) again.

    With R_V the rows on span(V) for the isometry V = v, and
    r = b - R_V coords(m) the residual of the trace row and of every
    constraint at V m V^dag, the correction is coords^-1(R_V^T G_V^+ r),
    G_V^+ the pseudo-inverse of the Gram matrix R_V R_V^T from its
    eigenpairs that count as nonzero: the minimum-norm least-squares
    solution among corrections on span(V).  On a contradictory system that
    is the least-squares point; V = I projects in the full space.  No
    constraint map is called and V m V^dag is never formed.
    """
    rows = _affine_rows(system, v)
    lam, u = _gram_eig(rows @ rows.T)
    res = system.rhs[0] - rows @ _herm_coords(m)
    return m + _coords_to_herm(rows.T @ (u @ ((u.T @ res) / lam)), v.shape[1])


# ---------------------------------------------------------------------------
# Feasibility: least squares over factors rho = G G^dag (Burer-Monteiro).
# The paper guarantees a solution of rank at most the square-sum bound
# whenever one exists, so G is D x k with k = max(1, min(D', bound)) and its
# columns on the face ker Q of dimension D' (ConstraintSystem.face; D' = D
# without one).  With r = A coords(G G^dag) - b, f(G) = ||r||^2 has
# gradient 4 S G for S = coords^-1(A^T r).  Along a direction P, r(t) = r + t a1 + t^2 a2 with
# a1 = A coords(G P^dag + P G^dag) and a2 = A coords(P P^dag), both from one
# product [G; P] P^dag and one bincount, so f is a quartic in t, and the line
# search takes a root of its cubic derivative (_least_cost_root).  Directions
# come from L-BFGS, its memory a sliding window (_remember), whose initial
# metric is (G^dag G + ||r|| I)^-1 on the right; without it, convergence to a
# solution of rank below k is sublinear (spare columns shrink like f^(1/4)).
# Products with a vector are ndarray.dot: the BLAS call of @, less dispatch.
# ---------------------------------------------------------------------------

def _remember(pairs: np.ndarray, mats: np.ndarray, lo: int, m: int,
              s: np.ndarray, y: np.ndarray) -> tuple[int, int]:
    """Append (s, y) to the L-BFGS memory [lo, lo + m) of buffers of
    2 LBFGS_MEMORY rows (S, Y in pairs, oldest first; S Y^T and R^-1 in mats,
    R its upper triangle); return the new window.  R^-1 grows by
    [[R^-1, -R^-1 r / rho], [0, 1 / rho]], r the new column of R above
    rho = s^T y; dropping the oldest pair, at LBFGS_MEMORY, moves lo on and
    keeps R^-1[1:, 1:].  At the buffers' end the window moves to the front."""
    if m == LBFGS_MEMORY:  # drop the oldest pair
        lo, m = lo + 1, m - 1
    if lo + m == pairs.shape[1]:
        pairs[:, :m], mats[:, :m, :m], lo = pairs[:, lo:], mats[:, lo:, lo:], 0
    hi = lo + m
    pairs[0, hi], pairs[1, hi] = s, y
    col = pairs[0, lo:hi + 1].dot(y)
    mats[0, lo:hi + 1, hi], mats[0, hi, lo:hi] = col, pairs[1, lo:hi].dot(s)
    mats[1, lo:hi, hi], mats[1, hi, hi] = mats[1, lo:hi, lo:hi].dot(col[:m]) / -col[m], 1 / col[m]
    return lo, m + 1


def _lbfgs_direction(q: np.ndarray, g: np.ndarray, eta: float, s: np.ndarray,
                     y: np.ndarray, sy: np.ndarray, rinv: np.ndarray) -> np.ndarray:
    """-H q for the L-BFGS inverse Hessian H of the pairs (s_i, y_i), the
    rows of s and y (oldest first), with q the gradient and the result as
    real views.  H0(q) = gamma q (G^dag G + eta I)^-1, gamma fitted to the newest
    pair, is the initial metric, applied to q, Y^T R^-1 S^T q and the newest
    y as one stacked product.  H is applied in the compact form of Byrd,
    Nocedal and Schnabel (Math. Program. 1994), the two-loop recursion in a
    fixed number of array operations for any memory length:
    H q = H0 q + S R^-T ((D + Y^T H0 Y) R^-1 S^T q - Y^T H0 q) - H0 Y R^-1 S^T q,
    R the upper triangle of sy = S^T Y, rinv = R^-1 and D the diagonal."""
    gram = g.conj().T @ g
    gram.reshape(-1)[::len(gram) + 1] += eta  # a strided view of the diagonal
    minv = np.linalg.inv(gram)
    if len(s) == 0:
        return -(q.view(np.complex128).reshape(-1, len(minv)) @ minv).view(np.float64).ravel()
    ra = rinv.dot(s.dot(q))
    v = np.concatenate((q, ra.dot(y), y[-1])).view(np.complex128).reshape(-1, len(minv)) @ minv
    h0q, h0y_ra, h0y = v.view(np.float64).reshape(3, -1)
    gamma = sy[-1, -1] / y[-1].dot(h0y)
    h0y_ra *= gamma
    c = (sy.diagonal() * ra + y.dot(h0y_ra) - gamma * y.dot(h0q)).dot(rinv)
    return -(gamma * h0q - h0y_ra + c.dot(s))


def _least_cost_root(c3: float, c2: float, c1: float, c0: float) -> float:
    """For c0 < 0, the real root t > 0 of c3 t^3 + c2 t^2 + c1 t + c0
    (c3 > 0) of least cost 2 c0 t + c1 t^2 + 2 c2 t^3 / 3 + c3 t^4 / 2,
    twice the integral of the cubic from 0; for c0 >= 0, where t = 0 is no descent
    direction, 0.  Roots: one in closed form (the largest in size if three
    are real), the others from the quotient quadratic.  Newton steps polish
    each, then the cheapest, which for c0 < 0 no t > 0 undercuts, so no
    candidate off a root does; a polish that ends at t <= 0 gives 0."""
    if c0 >= 0:
        return 0.0
    a, b, c = c2 / c3, c1 / c3, c0 / c3
    p, q = b - a * a / 3, (2 * a * a / 27 - b / 3) * a + c
    disc = q * q / 4 + p * p * p / 27
    if disc < 0:
        r = 2 * math.sqrt(-p / 3)
        phi = math.acos(max(-1.0, min(1.0, 3 * q / (p * r))))
        t = max((r * math.cos((phi - 2 * math.pi * j) / 3) - a / 3 for j in range(3)), key=abs)
    else:
        w = -math.copysign((abs(q) / 2 + math.sqrt(disc)) ** (1 / 3), q)
        t = (w - p / (3 * w) if w else 0.0) - a / 3
    # x^2 + e x + f = cubic / (x - t), from the end that does not cancel
    f = -c / t if abs(t * t * t) > abs(c) else b + (a + t) * t
    e = (f - b) / t if abs(t * t * t) > abs(c) else a + t
    h = -(e + math.copysign(math.sqrt(max(e * e - 4 * f, 0.0)), e)) / 2
    step, cost = 0.0, math.inf  # the first t > 0 of least cost, 0 while none
    for t in (t, h, f / h) if h else (t,):
        for _ in range(3):  # Newton steps, none where the slope vanishes
            t -= (((t + a) * t + b) * t + c) / ((3 * t + 2 * a) * t + b or math.inf)
        if t > 0 and ((u := t * (2 * c0 + t * (c1 + t * (2 * c2 / 3 + t * c3 / 2)))) < cost
                      or not step):
            step, cost = t, u
    for _ in range(3 if step else 0):
        step -= (((step + a) * step + b) * step + c) / ((3 * step + 2 * a) * step + b or math.inf)
    return max(step, 0.0)


def _exact_step(f: AffineFactor, g: np.ndarray, p: np.ndarray,
                dev: np.ndarray) -> tuple[float, np.ndarray]:
    """The t > 0 minimising ||dev + t a1 + t^2 a2||^2 along direction p, and
    dev + t a1 + t^2 a2, the deviation at G + t P.  The quartic's derivative
    has a positive root: its leading coefficient is positive (a2 holds
    Tr(P P^dag) > 0), its constant term negative for a descent direction."""
    x = (np.concatenate([g, p]) @ p.conj().T).reshape(2, len(g), -1)  # G P^dag, P P^dag
    gp = x[0]
    gp += gp.conj().T  # G P^dag + P G^dag
    a1, a2 = f.apply(x)
    t = _least_cost_root(2 * float(a2.dot(a2)), 3 * float(a1.dot(a2)),
                         float(a1.dot(a1) + 2 * dev.dot(a2)), float(dev.dot(a1)))
    return t, dev + t * a1 + (t * t) * a2


def _checked_dual(system: ConstraintSystem, y0: float, duals: tuple[np.ndarray, ...],
                  tol: float) -> tuple[float, tuple[np.ndarray, ...], float] | None:
    """(y0, duals, lower) of a checked InfeasibilityCertificate, or None,
    duals one stack per group.  The check uses the maps and the true
    targets, not A or a face:
    lambda_min(y0 I + sum_c M_c*(duals[c])) >= 0 and, for gap = y0 +
    sum_c <duals[c], T_c>, lower = -gap / ||(y0, duals)|| > tol sqrt(C) for
    C constraints, so gap < 0 and no state meets every target within tol."""
    d = system.dim
    z = y0 * np.eye(d) + sum(_adjoint_maps(ys, g.index, g.weight, d)
                             for ys, g in zip(duals, system.groups))
    gap = y0 + sum(np.vdot(y, t).real for ys, g in zip(duals, system.groups)
                   for y, t in zip(ys, g.target))
    lower = -gap / math.sqrt(y0 * y0 + sum(np.vdot(y, y).real for ys in duals for y in ys))
    if lower <= tol * math.sqrt(len(system.constraints)) or np.linalg.eigvalsh(z)[0] < 0:
        return None
    return y0, duals, lower


def _margin(w: np.ndarray) -> float:
    """The rounding margin of a shift by -min(w): eigvalsh errs by a few d
    eps ||S|| on the d eigenvalues w of S."""
    return 8 * w.size * np.finfo(float).eps * abs(w).max()


def _screen(system: ConstraintSystem, dev: np.ndarray, two_s: np.ndarray,
            tol: float, face: Face | None = None
            ) -> tuple[float, tuple[np.ndarray, ...], float] | None:
    """_checked_dual of a certificate from y = dev, or None.  two_s is 2 S,
    S = coords^-1(A^T y); the trace row adds I, so y' = y + t e_trace has
    A^T y' = S + t I.  The filter <y, b> < 0 is free, and <y', b> =
    <y, b> + t < -tol sqrt(C) ||y|| is needed.  In the full space t =
    max(0, -lambda_min(S)) plus a rounding margin makes S + t I PSD; a
    second free filter, min diag(S) > <y, b>, and a Cholesky of S + t_s I,
    t_s = -<y, b> - tol sqrt(C) ||y||, come before its eigvalsh.  On a face
    of dimension D' < D, t need only make V^dag (S + t I) V positive
    definite, V = ker Q; t splits the room that <y, b> leaves above
    lambda_min(V^dag S V) in half, so s, that half, is left on both sides.
    Then the Y_c gain tau P_c, which adds tau Q and moves <y', b> by only
    tau sum_c <P_c, T_c>: in Q's eigenbasis, tau Lambda needs to cover the
    Schur complement C - B^dag A^-1 B of S + t I against its kernel block
    A, plus s, so that it too is left at least s."""
    f, d = system.affine, system.dim
    yb = float(dev @ f.target)
    bar = tol * math.sqrt(len(system.constraints)) * math.sqrt(dev @ dev)
    if yb >= 0:
        return None
    if face is None:
        if two_s.diagonal().real.min() / 2 <= yb:
            return None
        try:
            np.linalg.cholesky(two_s + 2 * (-yb - bar) * np.eye(d))
        except np.linalg.LinAlgError:
            return None
        w = np.linalg.eigvalsh(two_s) / 2
        y0 = float(dev[0]) + max(0.0, -w[0]) + _margin(w)
    else:
        n, u = face.dim, face.vectors
        w = np.linalg.eigvalsh(u[:, :n].conj().T @ two_s @ u[:, :n]) / 2
        slack = (-yb - bar - max(0.0, -w[0]) - _margin(w)) / 2
        if slack <= 0:
            return None
        t = -yb - bar - slack
        m = u.conj().T @ (two_s / 2) @ u + t * np.eye(d)  # S + t I in Q's eigenbasis
        b, lam = m[:n, n:], face.values[n:]
        schur = (m[n:, n:] - b.conj().T @ np.linalg.solve(m[:n, :n], b)) / np.sqrt(
            np.outer(lam, lam))
        lift = max(0.0, -np.linalg.eigvalsh(schur)[0]) + slack / lam[0]
        y0 = float(dev[0]) + t
    ends = np.cumsum([g.target.size for g in system.groups])
    duals = tuple(_coords_to_herm(z.reshape(len(g.positions), -1), g.target.shape[-1])
                  for z, g in zip(np.split(dev[1:], ends[:-1]), system.groups))
    if face is not None:
        duals = tuple(y + lift * p for y, p in zip(duals, face.projectors))
    return _checked_dual(system, y0, duals, tol)


def solve_feasible(system: ConstraintSystem, *, tol: float = DEFAULT_TOL,
                   max_iters: int = DEFAULT_MAX_ITERS,
                   rank_tol: float = DEFAULT_RANK_TOL) -> FeasibilityResult:
    """Find a state satisfying every constraint, certify that none does, or
    report failure.

    A presolve takes the face that rank-deficient targets force
    (ConstraintSystem.trusted_face at rank_tol; none when every target has
    full rank), ker Q of dimension D'.  At D' = 0, Y_c = P_c and y_0 =
    -lambda_min(Q) plus a rounding margin give a certificate before any
    iteration, with the state I/D; if the check rejects it, the run goes
    on in the full space.  Otherwise it minimises ||A coords(G G^dag) -
    b||^2 over G = V H of size D x k, V a basis of ker Q (V = I and D' = D
    without a face) and k = max(1, min(D', square-sum bound at rank_tol)), by
    L-BFGS with exact line searches from a fixed-seed Gaussian G on the
    face, each gradient projected onto it, so runs are deterministic and
    stay on the face.  Each step is one iteration of max_iters.  The
    residual of an iterate is the largest block norm of A coords(rho) - b
    at rho = G G^dag / Tr, the state it stands for; the run is converged
    when that is at most tol.  It keeps polishing to tol / 100, or until
    the budget ends: the rank reduction truncates the state's eigenvalues
    below rank_tol before its first step, and a state handed over just
    under tol would then sit above the inner tolerance (its tol / 10) of
    its repair and pay confined repair rounds that cannot reach it.  A
    zero step that leaves the L-BFGS memory as it was also ends the run,
    after the screen that every later iteration would repeat: a face that
    drops target eigenvalues above tol / 100 floors the residual there.
    Above 10 tol, _screen seeks a dual
    certificate at iterations 0, 1, 2, 4, 8, ... and at every stationary
    point, lifted off the face when there is one; one that passes its
    check ends the run, not converged, with the certificate.  The screen
    writes nothing, so no iterate changes.  A stationary point above
    10 tol that the screen does not certify is never reported at k < D':
    G gains D' - k small random columns inside the face and the search
    goes on at k = D', where every stationary point is a global
    least-squares minimum on the face.  There it stops the run with a
    residual plateau: evidence of infeasibility, not a proof.  No step
    calls a constraint map or decomposes a state but a screen past its
    first filters.  The returned state is checked by residual_report, a
    certificate by the maps and the true targets, so a support misjudged at
    rank_tol can fail a run but not return a wrong state or certificate.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    d = system.dim
    if not system.constraints:  # every state is feasible; keep the most mixed
        x = np.eye(d, dtype=complex) / d
        return FeasibilityResult(x, residual_report(system, x), True, 0,
                                 "converged in 0 iterations", (), d)
    it, history = 0, []

    def result(converged: bool, message: str = "", dual=None) -> FeasibilityResult:
        x = best_g @ best_g.conj().T
        x = x / np.trace(x).real
        report, cert = residual_report(system, x), None
        if dual is not None:
            y0, duals, lower = dual
            duals = tuple(system.in_order(zip(system.groups, duals)))
            cert = InfeasibilityCertificate(y0, duals, lower, math.hypot(*report.residuals))
            message = (f"certified infeasible after {it} iterations: the targets lie at "
                       f"a distance in [{cert.lower:.3e}, {cert.upper:.3e}] from "
                       f"consistent ones")
        return FeasibilityResult(x, report, converged, it, message,
                                 tuple(history), best_g.shape[1], cert)

    face, dual = system.trusted_face(rank_tol, tol)
    if dual is not None:
        best_g = np.eye(d)
        return result(False, dual=dual)
    v = None if face is None else face.vectors[:, :face.dim]
    width = d if v is None else face.dim
    f = system.affine
    b = f.target
    k = max(1, min(width, system.square_sum_bound(rank_tol)))
    rng = np.random.default_rng(0)
    g = rng.standard_normal((width, k)) + 1j * rng.standard_normal((width, k))
    if v is not None:
        g = v @ g
    g /= np.linalg.norm(g)

    def evaluate(g: np.ndarray, dev: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Deviation (from G unless given), gradient on the face, 2 S and
        residual at G."""
        if dev is None:
            dev = f.apply(g @ g.conj().T) - b
        # A coords(rho / t) = (dev + b) / t, and the first row is the trace
        scaled = (dev + b) / (dev[0] + b[0]) - b
        grad, two_s = f.gradient(dev, g)
        if v is not None:
            grad = v @ (v.conj().T @ grad)
        return dev, grad, two_s, f.max_block_norm(scaled)

    dev, grad, two_s, res = evaluate(g)
    best_res, best_g = res, g
    pairs, lo, kept = np.empty((2, 2 * LBFGS_MEMORY, 2 * g.size)), 0, 0  # see _remember
    mats = np.zeros((2, 2 * LBFGS_MEMORY, 2 * LBFGS_MEMORY))
    while True:
        if res <= tol / 100:
            # steps carry dev forward; confirm it on G itself
            dev, grad, two_s, res = evaluate(g)
            if res <= tol / 100:
                return result(True, f"converged in {it} iterations")
        rnorm = math.sqrt(dev.dot(dev))
        # ||G||^2 = Tr G G^dag, which the trace row of dev holds
        gnorm = math.sqrt(dev[0] + b[0])
        stationary = np.vdot(grad, grad).real <= (STATIONARY_RTOL * rnorm * gnorm) ** 2
        if best_res > 10 * tol and (stationary or not it & (it - 1)):
            dual = _screen(system, dev, two_s, tol, face)
            if dual is not None:
                return result(False, dual=dual)
            if stationary and g.shape[1] == width:
                return result(False, f"residual plateau at {best_res:.3e} after {it} "
                                     f"iterations (stationary point of the rank-{width} "
                                     f"least squares); instance possibly infeasible")
            if stationary:  # small random columns move G off where rank k stalled
                pad = (rng.standard_normal((width, width - g.shape[1]))
                       + 1j * rng.standard_normal((width, width - g.shape[1])))
                if v is not None:
                    pad = v @ pad
                g = np.hstack([g, 1e-3 * np.linalg.norm(g) / np.linalg.norm(pad) * pad])
                dev, grad, two_s, res = evaluate(g)
                rnorm = math.sqrt(dev @ dev)
                pairs, lo, kept = np.empty((2, 2 * LBFGS_MEMORY, 2 * g.size)), 0, 0
        if it == max_iters:
            break
        it += 1
        q = grad.view(np.float64).ravel()
        hi = lo + kept
        p = _lbfgs_direction(q, g, rnorm, pairs[0, lo:hi], pairs[1, lo:hi],
                             mats[0, lo:hi, lo:hi], mats[1, lo:hi, lo:hi])
        if p.dot(q) >= 0:
            kept, p = 0, -q
        p = p.view(np.complex128).reshape(g.shape)
        t, dev = _exact_step(f, g, p, dev)
        if t == 0 and kept == hi - lo:  # nothing moves: every later iteration is this one
            history.append(best_res)
            dual = _screen(system, dev, two_s, tol, face) if best_res > 10 * tol else None
            if dual is not None:  # the one screen that later iterations would repeat
                return result(False, dual=dual)
            break
        g_next = g + t * p
        dev, grad_next, two_s, res = evaluate(g_next, dev)
        s = (g_next - g).view(np.float64).ravel()
        y = (grad_next - grad).view(np.float64).ravel()
        if s.dot(y) > 0:
            lo, kept = _remember(pairs, mats, lo, kept, s, y)
        g, grad = g_next, grad_next
        if res < best_res:
            best_res, best_g = res, g
        history.append(best_res)
    if best_res <= tol:
        return result(True, f"converged in {it} iterations")
    return result(False, f"no convergence after {it} iterations; "
                         f"best residual {best_res:.3e}")


# ---------------------------------------------------------------------------
# Real coordinates on the Hermitian matrices: diagonal entries, then sqrt(2)
# times the real and imaginary parts of the strict upper triangle.  The map
# is a linear isometry between (R^{r^2}, l2) and (Herm(r), Frobenius).
#
# The rows of the affine projection and of the descent system are built in
# these coordinates without a loop over basis elements.  The adjoint of a
# constraint's map sends |i><j| to sum_e w[i,e] w[j,e] |P[i,e]><P[j,e]|,
# P its index.  So with support basis V of rho, the image of |a><b| on
# span(V) is G_ab = w_a^dag w_b, where row e of w_a is w[a,e] V[P[a,e], :].
# G_ba = G_ab^dag, so the products for a <= b give the image of every
# target basis element: G_aa, then
# (G_ab + G_ab^dag)/sqrt(2) and i(G_ab - G_ab^dag)/sqrt(2) for a < b.  Their
# coordinates are the constraint's rows.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _coord_index(r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal and strict-upper-triangle index arrays of an r x r matrix.

    Cached because every projection and descent step needs them; a run uses
    only a handful of sizes at a time (the state, its support, the targets
    and their supports).  The arrays are shared, so they are read-only.
    """
    diag = np.arange(r)
    iu, ju = np.triu_indices(r, 1)
    for a in (diag, iu, ju):
        a.flags.writeable = False
    return diag, iu, ju


def _herm_coords(m: np.ndarray) -> np.ndarray:
    """Coordinates of Hermitian matrices stacked along the leading axes."""
    diag, iu, ju = _coord_index(m.shape[-1])
    off = m[..., iu, ju]
    return np.concatenate([m[..., diag, diag].real,
                           math.sqrt(2) * off.real, math.sqrt(2) * off.imag],
                          axis=-1)


def _coords_to_herm(y: np.ndarray, r: int) -> np.ndarray:
    diag, iu, ju = _coord_index(r)
    noff = iu.size
    out = np.zeros(y.shape[:-1] + (r, r), dtype=complex)
    out[..., iu, ju] = (y[..., r:r + noff] + 1j * y[..., r + noff:]) / math.sqrt(2)
    out = out + out.conj().swapaxes(-1, -2)
    out[..., diag, diag] = y[..., :r]
    return out


def _row_factors(g: ConstraintGroup, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w with w[c, a] = w_a of constraint c, of shape (C, rc, n_e, r): the
    rows of v at the group's index, scaled by the weights, and their
    conjugate transposes w_a^dag, so that G_ab = wh[c, a] @ w[c, b]."""
    w = v[g.index]
    if g.weight is not None:
        w = w * g.weight[..., None]
    return w, w.conj().swapaxes(-1, -2)


def _pair_rows(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of target basis pairs with products G_ab stacked in g: the
    coordinates of (G + G^dag)/sqrt(2), then of i(G - G^dag)/sqrt(2)."""
    gh = g.conj().swapaxes(-1, -2)
    return (_herm_coords((g + gh) / math.sqrt(2)),
            _herm_coords(1j * (g - gh) / math.sqrt(2)))


def constraint_rows(g: ConstraintGroup, v: np.ndarray) -> np.ndarray:
    """Rows of every constraint of a group in the engine's linear systems,
    one batched build, shape (C, rc^2, r^2).

    Row a of constraint c is the coordinate vector of V^dag M_c*(F_a) V,
    the Riesz vector of the scalar equality <F_a, M_c(H)> = 0 for
    H = V herm(y) V^dag, where F_a runs over the Hermitian basis of
    operators on the target's space.  A single constraint is a group of
    one.
    """
    w, wh = _row_factors(g, v)
    _, a, b = _coord_index(w.shape[1])
    return np.concatenate([_herm_coords(wh @ w), *_pair_rows(wh[:, a] @ w[:, b])],
                          axis=-2)


def _gram_eig(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a row Gram matrix g = a a^T that count as nonzero.

    Eigenvalues at or below 1e-12 * lambda_max count as zero, i.e. singular
    values of a below 1e-6 * sigma_max.  The cutoff is not the square of an
    SVD rcond such as 1e-8: squaring puts rounding-level singular values near
    1e-16 * lambda_max, where a 1e-16 cutoff admits them as row directions.
    The rows' singular values sit either near sigma_max or at rounding level
    (on 5 qubits they fall from 0.27 sigma_max straight to 7e-16 sigma_max),
    so the wide cutoff loses no real row.
    """
    lam, u = np.linalg.eigh(g)
    keep = lam > 1e-12 * lam[-1]
    return lam[keep], u[:, keep]


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of a, from eigh(a^T a),
    with _gram_eig's rule for a zero eigenvalue."""
    lam, u = np.linalg.eigh(a.T @ a)
    return u[:, lam <= 1e-12 * lam[-1]]


def _null_basis(system: ConstraintSystem, v: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """(v0, n0): v0 the first s = isqrt(m) + 1 columns of v (all of v when
    it has no more), m the number of affine rows, and n0 the null basis of
    the rows on span(v0), from one eigh of their Gram matrix on its
    coordinates.  With s columns, span(v0) has s^2 > m coordinates, so n0
    is never empty, and no Gram matrix exceeds s^2 on a side."""
    v0 = v[:, :math.isqrt(system.rhs[0].size) + 1]
    return v0, _null_space(_affine_rows(system, v0))


def _restricted_null_space(v0: np.ndarray, n0: np.ndarray,
                           v: np.ndarray) -> np.ndarray:
    """Orthonormal basis, in v's coordinates, of the part of the null space
    n0 (coordinates on span(v0)) that lives on span(v): the combinations h
    with C^dag h = 0, C the complement of U = v0^dag v, mapped as U^dag h U.
    For span(v) inside span(v0) it is exactly the null space of the descent
    rows on span(v), since the rows are fixed functionals of the D x D
    operator; for span(v0) inside span(v), U^dag h U embeds every null
    direction on span(v0) into span(v), isometrically, with the same image.
    """
    r0, r = v0.shape[1], v.shape[1]
    u = v0.conj().T @ v
    h = _coords_to_herm(n0.T, r0)
    if r < r0 and n0.shape[1]:
        c = np.linalg.qr(u, mode="complete")[0][:, r:]
        e = (c.conj().T @ h).reshape(len(h), -1)
        h = np.tensordot(_null_space(np.hstack([e.real, e.imag]).T), h, (0, 0))
    return _herm_coords(u.conj().T @ h @ u).T


def descent_direction_core(v: np.ndarray, q: np.ndarray, system: ConstraintSystem,
                           rng: np.random.Generator) -> np.ndarray | None:
    """Random unit-norm traceless Hermitian h on span(v), in v's coordinates
    (r x r), such that the direction H = V h V^dag moves no constraint.

    q is an orthonormal basis (columns) of directions on span(v) that the
    affine rows (the trace row and every constraint's full rows) annihilate,
    in v's coordinates, as _restricted_null_space gives it from _null_basis.
    The direction is a normal combination of q's columns, cleared of its
    rounding-level trace.  One candidate is drawn and verified on H: |Tr H|
    and every constraint image must stay below DEFAULT_DERIV_TOL.  Returns
    None, before any draw, when r <= 1 or q is empty, and None when the
    candidate fails the check, as one from a stale basis, built on a span
    unrelated to span(v), does.
    """
    r = v.shape[1]
    if r <= 1 or not q.shape[1]:
        return None
    trace_row = _herm_coords(np.eye(r))
    id_dir = trace_row / np.linalg.norm(trace_row)
    y = q @ rng.standard_normal(q.shape[1])
    y -= (y @ id_dir) * id_dir
    h = _coords_to_herm(y / np.linalg.norm(y), r)  # coordinates are an isometry
    x = v @ h @ v.conj().T
    holds = abs(np.trace(x)) <= DEFAULT_DERIV_TOL and all(
        bool((_frobenius(_apply_maps(x, g.index, g.weight)) <= DEFAULT_DERIV_TOL).all())
        for g in system.groups)
    return h if holds else None


def step_length_core(p: np.ndarray, h: np.ndarray) -> tuple[float, int]:
    """Largest step along -sign*h that keeps diag(p) - sign*lambda*h PSD, for
    weights p > 0 and a direction h in the coordinates of the support.

    B = diag(p)^{-1/2} h diag(p)^{-1/2} collects the constraint-free
    curvature: diag(p) - lambda*h stays PSD up to lambda = 1/mu_plus (largest
    eigenvalue of B) and diag(p) + lambda*h up to 1/mu_minus.  Both are
    positive for a nonzero Hermitian h of near-zero trace, as the descent
    gives and reduction.step_length checks: h has eigenvalues of both signs,
    and B keeps their signs (Sylvester's law of inertia).  The sign follows
    the larger extremal multiplicity (ties go to +1), so a degenerate
    crossing zeroes several eigenvalues in one step.
    """
    scale = 1.0 / np.sqrt(p)
    b = hermitian_part(h * scale[:, None] * scale[None, :])
    w = np.linalg.eigvalsh(b)
    mu_plus, mu_minus = float(w[-1]), float(-w[0])
    mtol = 1e-8 * max(mu_plus, mu_minus)
    mult_plus = int(np.count_nonzero(w >= mu_plus - mtol))
    mult_minus = int(np.count_nonzero(w <= -mu_minus + mtol))
    sign = 1 if mult_plus >= mult_minus else -1
    mu = mu_plus if sign == 1 else mu_minus
    return 1.0 / mu, sign


# ---------------------------------------------------------------------------
# Rank reduction: take boundary steps along null-space directions, truncate
# the spent eigenvalues, and repair the tiny feasibility drift without ever
# leaving the current support (a full-space correction could resurrect
# truncated eigenvalues above rank_tol and break monotonicity).  A drift the
# confined repair cannot clear aborts the walk.  The state is its support
# factor (V, p) throughout: a step truncates diag(p) - sign*lambda*h, h the
# direction on the support, and a repair round truncates its projection of
# diag(p); either is one r x r eigh whose eigenvectors u give the new
# support V u, inside span(V).  Only residual_report sees the D x D state.
# ---------------------------------------------------------------------------

def _truncate(v: np.ndarray, m: np.ndarray, rank_tol: float
              ) -> tuple[np.ndarray, np.ndarray]:
    """The support factor of V m V^dag / Tr for Hermitian m on span(V):
    (V u, w / sum(w)) for the eigenpairs (u, w) of m that support_basis
    keeps, so eigenvalues at or below rank_tol, negative ones included, are
    dropped.  V u is orthonormalised, in the same span: products of
    eigenvector bases drift from orthonormal, and the repair's trace row,
    Tr(V m V^dag) = Tr(m), holds only for an orthonormal V."""
    u, w = support_basis(m, rank_tol)
    if w.size == 0:
        raise ReductionError("state vanished after eigenvalue truncation")
    return np.linalg.qr(v @ u)[0], w / w.sum()


def _repair(system: ConstraintSystem, v: np.ndarray, p: np.ndarray, *,
            tol: float, rank_tol: float
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """Restore the feasibility of V diag(p) V^dag after a truncation,
    confined to span(V).  Returns the repaired factor, the state x it lifts
    to, which residual_report checked last, and the max residual before and
    after.

    Up to four rounds, until the residual is at most tol / 10, each an
    affine projection of diag(p) confined to the current support followed by
    a truncation; the factor comes back as it was when it needs no round.
    The later rounds serve starts that the solver's budget stopped near its
    tolerance: the entry's truncation at rank_tol moves such a start off the
    slice, and the first round's projection is truncated in turn, which can
    leave it further off than it began (all pairs of 5 qubits, rank-1
    witness, stopped at 8.4e-9: 5.5e-8 after one round), while each later
    round projects from a nearer point on the support the last one left.
    A residual above tol after the rounds aborts the reduction.
    """
    x = hermitian_part((v * p) @ v.conj().T)
    before = cur = residual_report(system, x).max_residual
    for _ in range(4):
        if cur <= tol / 10:
            break
        v, p = _truncate(v, project_affine(system, v, np.diag(p)), rank_tol)
        x = hermitian_part((v * p) @ v.conj().T)
        cur = residual_report(system, x).max_residual
    if cur > tol:
        raise ReductionError(
            f"feasibility repair failed: residual {cur:.3e} exceeds {tol:.1e}")
    return v, p, x, before, cur


def reduce_core(rho0: np.ndarray, system: ConstraintSystem, *,
                rank_tol: float = DEFAULT_RANK_TOL,
                repair_tol: float = DEFAULT_TOL,
                seed: int = 0,
                max_steps: int | None = None) -> tuple[np.ndarray, ReductionTrace]:
    """Greedy boundary-step loop; stops when no null-space direction remains.

    The walk holds the state as its support factor (V, p).  It enters by
    truncating rho0 at rank_tol, the walk's one D x D eigh, and repairing.
    Each step then multiplies out to: direction h on span(V), boundary step
    length, truncation of diag(p) - sign*lambda*h (an r x r eigh),
    support-confined feasibility repair, and a strict rank comparison.
    Continues below the paper's bound, the square-sum bound of the targets
    that the trace records, while directions exist.
    Every direction comes from an explicit null basis (_null_basis),
    restricted to the support before the draw.  Every support lies in the
    span of the one before, so the first support V0 with r0^2 <= m, m the
    number of descent rows, gets the walk's one null basis of the rows
    (eigh of the r0^2 x r0^2 Gram matrix), which each later step restricts.
    While r^2 > m, a step builds a basis on the first isqrt(m) + 1 columns
    of its support, whose (isqrt(m) + 1)^2 > m coordinates hold a null
    direction, and embeds it: no Gram matrix is larger.  A solve_feasible
    state has rank at most its factor's width, the square-sum bound unless
    a stationary point padded it, and the bound's square is at most m - 1,
    so its walk builds its one basis at the entry; the sub-support bases
    serve states that a caller passes in above the bound.  The walk ends
    with null_space_exhausted True when the restricted basis is empty (or
    r <= 1), the exit that the paper's counting argument covers, and False
    when max_steps ends it or the one candidate drawn fails its check.  The
    returned state is the lift V diag(p) V^dag that the last repair
    checked, and the trace's final rank is the size of p.  Small eigenvalues
    are not truncated above rank_tol: a boundary step removes them without
    moving any constraint.
    """
    rng = np.random.default_rng(seed)
    x = hermitian_part(np.asarray(rho0, dtype=complex))
    if x.shape != (system.dim, system.dim):
        raise ValueError(f"state shape {x.shape} does not match dimension {system.dim}")
    start_res = residual_report(system, x).max_residual
    if start_res > 1e-6:
        raise ValueError(
            f"starting state is not feasible: residual {start_res:.3e} exceeds 1.0e-06")
    steps: list[ReductionStep] = []
    m = system.rhs[0].size  # the descent rows: the trace row and d_c^2 per constraint
    bound = system.square_sum_bound(rank_tol)
    walk_basis, p = None, np.empty(0)  # rank 0 until the entry truncates

    def record(exhausted: bool = False) -> ReductionTrace:
        return ReductionTrace(steps, p.size, bound, exhausted)

    limit = system.dim if max_steps is None else int(max_steps)
    try:
        v, p = _truncate(np.eye(system.dim), x, rank_tol)
        v, p, x, _, _ = _repair(system, v, p, tol=repair_tol, rank_tol=rank_tol)
        while len(steps) < limit:
            basis = walk_basis or _null_basis(system, v)
            if p.size ** 2 <= m:
                walk_basis = basis
            q = _restricted_null_space(*basis, v)
            h = descent_direction_core(v, q, system, rng)
            if h is None:  # an empty basis, or a candidate that failed its check
                return x, record(p.size <= 1 or not q.shape[1])
            lam, sign = step_length_core(p, h)
            v_next, p_next, y, pre, after = _repair(
                system, *_truncate(v, np.diag(p) - sign * lam * h, rank_tol),
                tol=repair_tol, rank_tol=rank_tol)
            if p_next.size >= p.size:
                raise ReductionError(
                    f"step did not reduce rank ({p.size} -> {p_next.size})",
                    record())
            steps.append(ReductionStep(p.size, p_next.size, lam, sign, pre, after))
            x, v, p = y, v_next, p_next
    except ReductionError as err:
        if err.trace is None:
            err.trace = record()
        raise
    return x, record()
