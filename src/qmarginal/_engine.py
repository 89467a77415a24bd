"""Shared feasibility and rank-reduction engine.

Everything here is phrased against a list of linear constraints, each given
by an index map and a target: M(x)[i, j] = sum_e w[i, e] w[j, e]
x[index[i, e], index[j, e]].  A plain partial trace (qudit and channel
instances) has unit weights; a sector marginal runs over occupations with
signed or arrangement weights.  The forward map and the constraint rows are
both derived from the map, so the same code serves every instance.  The
full-space rows A (the unit-trace row and every constraint's rows) are
sparse, and the system keeps their nonzeros, built in closed form by index
arithmetic on the same map, against the entries of the state's real view,
without forming the dense rows.
Feasibility is a least-squares problem over factors: minimise
||A coords(G G^dag) - b||^2 for G of size D x k, k the paper's square-sum
rank bound, so every iteration is sparse products with A and A^T and dense
products with G, without calling the maps or decomposing a state.  Rank
reduction (the paper's Theorem 1, walked on the support of a feasible
state) builds the rows on the state's support densely, with one builder
(_affine_rows), for two more uses: the affine projection of its repair,
which reads its residual from A and solves for its correction on the
support alone (one eigendecomposition of the Gram matrix of the rows), and
the descent null space.  That is one orthonormal null basis per walk,
built at the first support V0 from one eigendecomposition and restricted
to each later support inside span(V0).  State-space operators are dense
complex Hermitian matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .hilbert import support_basis
from .numerics import (eigenvalue_scale, hermitian_part, numerical_rank,
                       psd_project)

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 5000
DEFAULT_RANK_TOL = 1e-9
DEFAULT_REPAIR_TOL = 1e-8
DEFAULT_DERIV_TOL = 1e-9
PLATEAU_WINDOW = 500
PLATEAU_RTOL = 5e-3
LBFGS_MEMORY = 20
STATIONARY_RTOL = 1e-9


@dataclass(frozen=True)
class Constraint:
    """One affine equality M(X) == target, with M given as an index map.

    M(x)[i, j] = sum_e w[i, e] w[j, e] x[index[i, e], index[j, e]]: i and j
    run over the target's basis, e over what M sums out, and the weights w
    are real, all ones when weight is None.  A partial trace has
    index[i, e] the basis state with kept factors i and traced factors e
    (hilbert.partial_trace_index); a sector marginal has the position of the
    occupation i + e, weighted by its sign or arrangement count
    (hilbert.sector_marginal_index).  apply and the constraint rows both
    derive from the map.  label names the constraint in reports.  A state is
    checked where it enters the engine (hermitian_part), not here.
    """

    target: np.ndarray
    index: np.ndarray
    weight: np.ndarray | None = None
    label: str = ""

    def apply(self, x: np.ndarray) -> np.ndarray:
        """M(x), one gather of x[index[i, e], index[j, e]].  The terms are
        summed over e in order, a running sum, so a partial trace rounds as
        the einsum of hilbert.partial_trace does."""
        ix = self.index.T
        y = x[ix[:, :, None], ix[:, None, :]]
        if self.weight is not None:
            w = self.weight.T
            y = y * (w[:, :, None] * w[:, None, :])
        return np.add.accumulate(y)[-1]


class AffineFactor(NamedTuple):
    """The full-space affine rows, as the feasibility solver and the
    projection use them.

    A, the unit-trace row then the full rows of every constraint, acts on
    the real coordinates of a Hermitian matrix, and each coordinate is a
    fixed multiple of one real or imaginary part of an entry on or above
    the diagonal.  So A is kept as its nonzeros against the real view of
    the D x D matrix itself: (A coords(x))[row[i]] sums
    val[i] * x.view(float).ravel()[col[i]], and no product with A or A^T
    converts to coordinates.  target is b, the right-hand side of
    A coords(y) = b in the same row order; offsets are the first rows of
    the trace block and of each constraint's block.
    """

    dim: int
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    target: np.ndarray
    offsets: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A coords(x) for Hermitian x; only its upper triangle is read."""
        xr = np.ascontiguousarray(x, dtype=np.complex128).view(np.float64)
        return np.bincount(self.row, self.val * xr.ravel()[self.col],
                           minlength=self.target.size)

    def adjoint(self, z: np.ndarray) -> np.ndarray:
        """coords^-1(A^T z), the Hermitian S with <z, A coords(x)> = Tr(S x).

        A^T z puts half of each off-diagonal entry of S above the diagonal
        and none below it, so S is the Hermitian part of that matrix.
        """
        d = self.dim
        w = np.bincount(self.col, self.val * z[self.row], minlength=2 * d * d)
        w = w.view(np.complex128).reshape(d, d)
        return (w + w.conj().T) / 2

    def block_norms(self, dev: np.ndarray) -> np.ndarray:
        """Norms of the trace block and of each constraint block of dev.

        For dev = A coords(x) - b these are the trace defect and the
        Frobenius residual of every constraint at x, because the coordinates
        are an isometry.
        """
        return np.sqrt(np.add.reduceat(dev * dev, self.offsets))


@dataclass(frozen=True)
class ConstraintSystem:
    dim: int
    constraints: tuple[Constraint, ...]

    @cached_property
    def affine(self) -> AffineFactor:
        """The full-space affine factor, built on first use and then kept
        with the system (see solve_feasible and project_affine).  Its
        nonzeros are those of the dense rows _affine_rows(self, I), in the
        same order, each moved onto its entry of the real view and scaled
        with it, without forming the rows."""
        row, col, val = _affine_nonzeros(self)
        blocks = [[1.0]] + [_herm_coords(c.target) for c in self.constraints]
        return AffineFactor(self.dim, row, col, val, np.concatenate(blocks),
                            np.cumsum([0] + [len(b) for b in blocks[:-1]]))


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


@dataclass
class FeasibilityResult:
    """Outcome of the factored least-squares solver.

    state is G G^dag / Tr for the solver's best iterate G; when converged is
    False, it is a diagnostic, not a solution.  residual_history holds, per
    iteration, the best residual reached so far, so it never increases.
    factor_rank is the width of that G: the square-sum bound (at most D), or
    D if an iterate after the pad to D columns is the best, so a run whose
    pad never improves reports the bound even when its message names rank D.
    """

    state: np.ndarray
    report: ResidualReport
    converged: bool
    iterations: int
    message: str
    residual_history: tuple[float, ...]
    factor_rank: int


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
    res = tuple(float(np.linalg.norm(c.apply(x) - c.target)) for c in system.constraints)
    w = np.linalg.eigvalsh(hermitian_part(x))
    psd = float(max(0.0, -w.min())) if w.size else 0.0
    tr = float(abs(np.trace(x) - 1.0))
    return ResidualReport(res, psd, tr)


# ---------------------------------------------------------------------------
# The affine rows A: the unit-trace row plus constraint_rows(c, V, I) for
# every constraint, in the coordinates of corrections V herm(y) V^dag (the
# descent compresses each constraint's rows to its target support).  The
# trace row rides along even though the marginal rows imply it; this keeps a
# projected point exactly on the trace-one slice regardless of rounding in
# the other rows.  A row of a constraint has at most one nonzero per summed
# index e among its D^2 entries, so the full-space A (V = I) is kept as its
# nonzeros, against the entries of the D x D matrix (AffineFactor), and each
# product with A or A^T is one bincount over them.  The nonzeros come in
# closed form from each constraint's index map, never from the dense
# m x D^2 rows.
#
# The feasibility solver uses the full-space products.  The repair of the
# rank reduction projects with corrections confined to the state's support
# V.  V's rows R_V are A's rows on span(V) (R_V = A C_V for the linear map
# C_V from coordinates on span(V) to coordinates on the full space), so the
# projection takes only its residual from A and solves for the correction
# with R_V alone.  It reads the residual at all of x because x may carry
# weight off span(V) that V's rows cannot see.
# ---------------------------------------------------------------------------

def _affine_rows(system: ConstraintSystem, v: np.ndarray,
                 target_bases: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """The dense affine rows on span(v): the trace row, then every
    constraint's rows, compressed to target_bases when given and full
    otherwise."""
    if target_bases is None:
        target_bases = [np.eye(c.target.shape[0]) for c in system.constraints]
    return np.vstack([_herm_coords(np.eye(v.shape[1]))] + [
        constraint_rows(c, v, vc) for c, vc in zip(system.constraints, target_bases)])


def _affine_nonzeros(system: ConstraintSystem
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, real-view entry and value of every nonzero of
    _affine_rows(system, I), in np.nonzero's order of rows and coordinates.
    The trace row is a one at every diagonal entry."""
    d = system.dim
    parts = [(np.zeros(d, dtype=np.intp), 2 * (d + 1) * np.arange(d), np.ones(d))]
    start = 1
    for c in system.constraints:
        row, col, val = _constraint_nonzeros(c, d)
        parts.append((row + start, col, val))
        start += c.target.shape[0] ** 2
    return tuple(np.concatenate(a) for a in zip(*parts))


def _constraint_nonzeros(c: Constraint, d: int
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros of constraint_rows(c, I, I), by index arithmetic, each
    at its entry of the real view of the D x D matrix.

    With P = c.index and w its weights, target basis element a pins
    sum_e w[a,e]^2 |P[a,e]><P[a,e]|: w[a,e]^2 at the diagonal entries
    P[a, :], real view entry 2 (P D + P).  The pair (a, b) pins
    G = sum_e w[a,e] w[b,e] |P[a,e]><P[b,e]| through the real and imaginary
    parts of the upper-triangle entries (lo, hi) of (P[a,e], P[b,e]), real
    view entries 2 (lo D + hi) and one more.  Where w is nonzero, P[a, :]
    ascends in e (a partial trace's factors count up, and adding a fixed
    occupation a keeps the order of the occupations e), and
    P[a,e] != P[b,e].  So every entry is one product p, off the diagonal,
    and each row's coordinates ascend in e.  Its value is the coordinate's
    value sqrt(2) Re((p + 0j) / sqrt(2)) times sqrt(2), the coordinate's
    scale, computed as the dense rows compute it: numpy's complex division
    multiplies by the reciprocal, and p / sqrt(2) rounds differently.  The
    imaginary row negates it for an entry below the diagonal.  Zero weights
    are dropped.
    """
    p = c.index
    w = np.ones(p.shape) if c.weight is None else c.weight
    rc, n_rest = p.shape
    _, a, b = _coord_index(rc)
    pa, pb = p[a], p[b]
    re = 2 * (np.minimum(pa, pb) * d + np.maximum(pa, pb)).ravel()
    s2 = math.sqrt(2)
    pair = s2 * ((w[a] * w[b]).ravel().astype(complex) / s2).real * s2
    row = np.repeat(np.arange(rc + 2 * a.size), n_rest)
    col = np.concatenate([2 * (d + 1) * p.ravel(), re, re + 1])
    val = np.concatenate([(w * w).ravel(), pair,
                          np.where((pa < pb).ravel(), pair, -pair)])
    nz = val != 0
    return row[nz], col[nz], val[nz]


def project_affine(system: ConstraintSystem, x: np.ndarray, *,
                   support: np.ndarray) -> np.ndarray:
    """Least-squares projection of Hermitian x onto the affine constraint
    slice, with the correction confined to operators on span(support).

    With r = b - A coords(x) the residual of the trace row and of every
    constraint at x, and R_V the rows on span(V) for the isometry
    V = support, the correction is H = V coords^-1(R_V^T G_V^+ r) V^dag,
    G_V^+ the pseudo-inverse of the Gram matrix R_V R_V^T from its
    eigenpairs that count as nonzero: the minimum-norm least-squares
    solution among corrections on span(V).  On a contradictory system that
    is the least-squares point; V = I projects in the full space.  r reads
    all of x through A, so weight off span(V) counts, and no constraint map
    is called.
    """
    f = system.affine
    rows = _affine_rows(system, support)
    lam, u = _gram_eig(rows @ rows.T)
    y = rows.T @ (u @ ((u.T @ (f.target - f.apply(x))) / lam))
    h = support @ _coords_to_herm(y, support.shape[1]) @ support.conj().T
    return hermitian_part(x + h)


# ---------------------------------------------------------------------------
# Feasibility: least squares over factors rho = G G^dag (Burer-Monteiro).
# The paper guarantees a solution of rank at most the square-sum bound
# whenever one exists, so G is D x k with k = min(D, bound).  With
# r = A coords(G G^dag) - b, f(G) = ||r||^2 has gradient 4 S G for
# S = coords^-1(A^T r).  Along a direction P, r(t) = r + t a1 + t^2 a2 with
# a1 = A coords(G P^dag + P G^dag) and a2 = A coords(P P^dag), so f is a
# quartic in t, and the line search takes a root of its cubic derivative
# (_least_cost_root).  Directions come from L-BFGS (_remember) whose initial
# metric is (G^dag G + ||r|| I)^-1 on the right; without it, convergence to a
# solution of rank below k is sublinear (spare columns shrink like f^(1/4)).
# ---------------------------------------------------------------------------

def square_sum_bound(targets: Sequence[np.ndarray],
                     rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """floor(sqrt(sum of squared numerical target ranks)): the paper's bound
    on the rank of some solution of any satisfiable instance."""
    return math.isqrt(sum(numerical_rank(t, rank_tol) ** 2 for t in targets))


def _remember(pairs: np.ndarray, mats: np.ndarray, m: int,
              s: np.ndarray, y: np.ndarray) -> int:
    """Append (s, y) to an L-BFGS memory of m pairs (S, Y in pairs, oldest
    first; S Y^T and R^-1 in mats, R its upper triangle); return its length.
    R^-1 grows by [[R^-1, -R^-1 r / rho], [0, 1 / rho]], r the new column of R
    above rho = s^T y; dropping the oldest pair keeps R^-1[1:, 1:]."""
    if m == LBFGS_MEMORY:  # drop the oldest pair
        pairs[:, :-1], mats[:, :-1, :-1] = pairs[:, 1:], mats[:, 1:, 1:]
        m -= 1
    (ss, ys), (sy, rinv) = pairs, mats
    ss[m], ys[m] = s, y
    col = ss[:m + 1] @ y
    sy[:m + 1, m], sy[m, :m] = col, ys[:m] @ s
    rinv[:m, m], rinv[m, m] = rinv[:m, :m] @ col[:m] / -col[m], 1 / col[m]
    return m + 1


def _lbfgs_direction(grad: np.ndarray, g: np.ndarray, eta: float, s: np.ndarray,
                     y: np.ndarray, sy: np.ndarray, rinv: np.ndarray) -> np.ndarray:
    """-H grad for the L-BFGS inverse Hessian H of the pairs (s_i, y_i), the
    rows of s and y (oldest first), with grad, g and the result as real
    views.  H0(q) = gamma q (G^dag G + eta I)^-1, gamma fitted to the newest
    pair, is the initial metric.  H is applied in the compact form of Byrd,
    Nocedal and Schnabel (Math. Program. 1994), the two-loop recursion in a
    fixed number of array operations for any memory length:
    H q = H0 q + S R^-T ((D + Y^T H0 Y) R^-1 S^T q - Y^T H0 q) - H0 Y R^-1 S^T q,
    R the upper triangle of sy = S^T Y, rinv = R^-1 and D the diagonal."""
    gram = g.conj().T @ g
    gram.flat[::gram.shape[0] + 1] += eta
    minv = np.linalg.inv(gram)

    def metric(v: np.ndarray) -> np.ndarray:
        return (v.view(np.complex128).reshape(g.shape) @ minv).view(np.float64).ravel()

    q = grad.view(np.float64).ravel()
    h0q = metric(q)
    if len(s) == 0:
        return -h0q
    gamma = sy[-1, -1] / (y[-1] @ metric(y[-1]))
    ra = rinv @ (s @ q)
    h0y_ra = gamma * metric(ra @ y)
    c = (sy.diagonal() * ra + y @ h0y_ra - gamma * (y @ h0q)) @ rinv
    return -(gamma * h0q - h0y_ra + c @ s)


def _least_cost_root(c3: float, c2: float, c1: float, c0: float) -> float:
    """The real root t > 0 of c3 t^3 + c2 t^2 + c1 t + c0 (c3 > 0) of least
    cost 2 c0 t + c1 t^2 + 2 c2 t^3 / 3 + c3 t^4 / 2, or 0 if there is none:
    one in closed form (the largest in size if three are real), the others
    from the quotient quadratic.  Newton steps polish each, then the cheapest,
    which for c0 < 0 no t > 0 undercuts, so no candidate off a root does."""
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
    def newton(t: float) -> float:  # three steps, none where the slope vanishes
        for _ in range(3):
            t -= (((t + a) * t + b) * t + c) / ((3 * t + 2 * a) * t + b or math.inf)
        return t
    t = min((t for t in map(newton, [t, h, f / h] if h else [t]) if t > 0), default=0.0,
            key=lambda t: t * (2 * c0 + t * (c1 + t * (2 * c2 / 3 + t * c3 / 2))))
    return newton(t) if t else 0.0


def _exact_step(f: AffineFactor, g: np.ndarray, p: np.ndarray,
                dev: np.ndarray) -> tuple[float, np.ndarray]:
    """The t > 0 minimising ||dev + t a1 + t^2 a2||^2 along direction p, and
    dev + t a1 + t^2 a2, the deviation at G + t P.  The quartic's derivative
    has a positive root: its leading coefficient is positive (a2 holds
    Tr(P P^dag) > 0), its constant term negative for a descent direction."""
    m1 = g @ p.conj().T
    a1 = f.apply(m1 + m1.conj().T)
    a2 = f.apply(p @ p.conj().T)
    t = _least_cost_root(2 * float(a2 @ a2), 3 * float(a1 @ a2),
                         float(a1 @ a1 + 2 * (dev @ a2)), float(dev @ a1))
    return t, dev + t * a1 + (t * t) * a2


def solve_feasible(system: ConstraintSystem, *, tol: float = DEFAULT_TOL,
                   max_iters: int = DEFAULT_MAX_ITERS) -> FeasibilityResult:
    """Find a state satisfying every constraint, or report failure.

    Minimises ||A coords(G G^dag) - b||^2 over G of size D x k, k the
    square-sum bound of the targets (at most D), by L-BFGS with exact line
    searches from a fixed-seed Gaussian G, so runs are deterministic.  Each
    step is one iteration of max_iters.  The residual of an iterate is the
    largest block norm of A coords(rho) - b at rho = G G^dag / Tr, the state
    it stands for; the run is converged when that is at most tol.  It keeps
    polishing to tol / 100, or until the budget ends: the rank reduction
    truncates the state's eigenvalues below rank_tol before its first step,
    and a state handed over just under tol would then sit above the inner
    tolerance (repair_tol / 10) of its repair and pay confined repair
    rounds that cannot reach it.  A stationary point above 10 tol at k < D
    is never reported: G gains D - k small random columns and the search
    goes on at k = D, where every stationary point is a global least-squares
    minimum.  There, or when the best residual improved by less than
    PLATEAU_RTOL over the last PLATEAU_WINDOW iterations, the run stops with
    a residual plateau: evidence of infeasibility, never a certificate.  No
    step calls a constraint map or decomposes a state; the returned state
    is checked by residual_report.
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
    f = system.affine
    b = f.target
    k = min(d, square_sum_bound([c.target for c in system.constraints]))
    rng = np.random.default_rng(0)
    g = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    g /= np.linalg.norm(g)

    def evaluate(g: np.ndarray, dev: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray, float]:
        """Deviation (from G unless given), gradient and residual at G."""
        if dev is None:
            dev = f.apply(g @ g.conj().T) - b
        grad = 4 * f.adjoint(dev) @ g
        # A coords(rho / t) = (dev + b) / t, and the first row is the trace
        scaled = (dev + b) / (dev[0] + b[0]) - b
        return dev, grad, float(f.block_norms(scaled).max())

    def result(converged: bool, message: str) -> FeasibilityResult:
        x = best_g @ best_g.conj().T
        x = x / np.trace(x).real
        return FeasibilityResult(x, residual_report(system, x), converged, it,
                                 message, tuple(history), best_g.shape[1])

    dev, grad, res = evaluate(g)
    best_res, best_g = res, g
    history: list[float] = []
    pairs, kept = np.empty((2, LBFGS_MEMORY, 2 * g.size)), 0  # see _remember
    mats = np.zeros((2, LBFGS_MEMORY, LBFGS_MEMORY))
    it = 0
    while True:
        if res <= tol / 100:
            # steps carry dev forward; confirm it on G itself
            dev, grad, res = evaluate(g)
            if res <= tol / 100:
                return result(True, f"converged in {it} iterations")
        rnorm = math.sqrt(dev @ dev)
        # ||G||^2 = Tr G G^dag, which the trace row of dev holds
        gnorm = math.sqrt(dev[0] + b[0])
        if (np.vdot(grad, grad).real <= (STATIONARY_RTOL * rnorm * gnorm) ** 2
                and best_res > 10 * tol):
            if g.shape[1] == d:
                return result(False, (
                    f"residual plateau at {best_res:.3e} after {it} iterations "
                    f"(stationary point of the rank-{d} least squares); "
                    "instance possibly infeasible"))
            # small random columns move the factor off the rank-k stationary point
            pad = (rng.standard_normal((d, d - g.shape[1]))
                   + 1j * rng.standard_normal((d, d - g.shape[1])))
            g = np.hstack([g, 1e-3 * np.linalg.norm(g) / np.linalg.norm(pad) * pad])
            dev, grad, res = evaluate(g)
            rnorm = math.sqrt(dev @ dev)
            pairs, kept = np.empty((2, LBFGS_MEMORY, 2 * g.size)), 0
        if it > PLATEAU_WINDOW and best_res > 10 * tol:
            prev = history[it - PLATEAU_WINDOW - 1]
            if prev - best_res < PLATEAU_RTOL * prev:
                return result(False, (
                    f"residual plateau at {best_res:.3e} after {it} iterations "
                    f"(< {PLATEAU_RTOL:.1%} improvement over the last "
                    f"{PLATEAU_WINDOW}); instance possibly infeasible"))
        if it == max_iters:
            break
        it += 1
        q = grad.view(np.float64).ravel()
        p = _lbfgs_direction(grad, g, rnorm, *pairs[:, :kept], *mats[:, :kept, :kept])
        if p @ q >= 0:
            kept = 0
            p = -q
        p = p.view(np.complex128).reshape(g.shape)
        t, dev = _exact_step(f, g, p, dev)
        g_next = g + t * p
        dev, grad_next, res = evaluate(g_next, dev)
        s = (g_next - g).view(np.float64).ravel()
        y = (grad_next - grad).view(np.float64).ravel()
        if s @ y > 0:
            kept = _remember(pairs, mats, kept, s, y)
        g, grad = g_next, grad_next
        if res < best_res:
            best_res, best_g = res, g
        history.append(best_res)
    if best_res <= tol:
        return result(True, f"converged in {it} iterations")
    return result(False, f"no convergence after {max_iters} iterations; "
                         f"best residual {best_res:.3e}")


# ---------------------------------------------------------------------------
# Real coordinates on the Hermitian matrices: diagonal entries, then sqrt(2)
# times the real and imaginary parts of the strict upper triangle.  The map
# is a linear isometry between (R^{r^2}, l2) and (Herm(r), Frobenius).
#
# The rows of the affine projection and of the descent system are built in
# these coordinates without a loop over basis elements.  The adjoint of a
# constraint's map sends |i><j| to sum_e w[i,e] w[j,e] |P[i,e]><P[j,e]|,
# P its index.  So with support basis V of rho and target support basis
# V_c, the compressed adjoint image of V_c|a><b|V_c^dag is
# G_ab = w_a^dag w_b, where row e of w_a is sum_i conj(V_c[i,a]) w[i,e]
# V[P[i,e], :].  G_ba = G_ab^dag, so the products for a <= b give the
# image of every target basis element: G_aa, then
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


def _row_factors(c: Constraint, v: np.ndarray, vc: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """w with w[a] = w_a, of shape (rc, n_e, r): the rows of v at c.index,
    scaled by the weights and compressed by vc^dag, and their conjugate
    transposes w_a^dag, so that G_ab = wh[a] @ w[b]."""
    u = v[c.index]
    if c.weight is not None:
        u = u * c.weight[:, :, None]
    r, rc = v.shape[1], vc.shape[1]
    w = (vc.conj().T @ u.reshape(u.shape[0], -1)).reshape(rc, -1, r)
    return w, w.conj().transpose(0, 2, 1)


def _pair_rows(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of target basis pairs with products G_ab stacked in g: the
    coordinates of (G + G^dag)/sqrt(2), then of i(G - G^dag)/sqrt(2)."""
    gh = g.conj().swapaxes(-1, -2)
    return (_herm_coords((g + gh) / math.sqrt(2)),
            _herm_coords(1j * (g - gh) / math.sqrt(2)))


def constraint_rows(c: Constraint, v: np.ndarray, vc: np.ndarray) -> np.ndarray:
    """Rows of one constraint in the engine's linear systems, shape (rc^2, r^2).

    Row a is the coordinate vector of V^dag M*(F_a) V, the Riesz vector of
    the scalar equality <F_a, M(H)> = 0 for H = V herm(y) V^dag, where F_a
    runs over the Hermitian basis of operators on span(vc): vc is the target
    support basis for the compressed rows, the identity for the full ones.
    """
    w, wh = _row_factors(c, v, vc)
    _, a, b = _coord_index(w.shape[0])
    return np.concatenate([_herm_coords(wh @ w), *_pair_rows(wh[a] @ w[b])])


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


def _row_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the row space of a, from eigh(a a^T)."""
    lam, u = _gram_eig(a @ a.T)
    q = a.T @ u
    q /= np.sqrt(lam)
    return q


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of a, from eigh(a^T a),
    with _gram_eig's rule for a zero eigenvalue."""
    lam, u = np.linalg.eigh(a.T @ a)
    return u[:, lam <= 1e-12 * lam[-1]]


def _restricted_null_space(v0: np.ndarray, n0: np.ndarray,
                           v: np.ndarray) -> np.ndarray:
    """Orthonormal basis, in v's coordinates, of the part of the null space
    n0 (coordinates on span(v0)) that lives on span(v): the combinations h
    with C^dag h = 0, C the complement of U = v0^dag v, mapped as U^dag h U.
    For span(v) inside span(v0) it is exactly the null space of the descent
    rows on span(v), since the compressed rows are fixed functionals of the
    D x D operator.
    """
    r0, r = v0.shape[1], v.shape[1]
    u = v0.conj().T @ v
    h = _coords_to_herm(n0.T, r0)
    if r < r0 and n0.shape[1]:
        c = np.linalg.qr(u, mode="complete")[0][:, r:]
        e = (c.conj().T @ h).reshape(len(h), -1)
        h = np.tensordot(_null_space(np.hstack([e.real, e.imag]).T), h, (0, 0))
    return _herm_coords(u.conj().T @ h @ u).T


def descent_direction_core(v: np.ndarray, system: ConstraintSystem,
                           rng: np.random.Generator, *,
                           rank_tol: float = DEFAULT_RANK_TOL,
                           deriv_tol: float = DEFAULT_DERIV_TOL,
                           target_bases: Sequence[np.ndarray] | None = None,
                           walk_basis: tuple[np.ndarray, np.ndarray] | None = None
                           ) -> np.ndarray | None:
    """Random unit-norm traceless Hermitian direction that moves no constraint.

    Parametrizes candidates on span(v), v the state's support_basis, and
    builds the linear system they must satisfy: an explicit trace row plus,
    per constraint, the rows of its map compressed onto the target support
    (constraint_rows; target_bases holds those supports, computed here when
    not given).  The null space of the rows is the orthogonal complement of
    their row space, which comes from one eigendecomposition of the m x m
    Gram matrix (_row_space); a random seed is projected onto it.
    walk_basis = (v0, n0), a null basis of the rows on a span(v0) that holds
    span(v), replaces the rows: the direction is a normal combination of its
    restriction to span(v).  One candidate is drawn and verified: |Tr H| and
    every full constraint image must stay below deriv_tol.  If it fails (the
    compressed rows miss part of a full image because a target support was
    misjudged at rank_tol, or the walk basis is stale), one more is drawn
    from the row space of the full rows on span(v), which span the
    compressed ones.  Returns None when the null space is (numerically)
    empty or that candidate fails too.
    """
    r = v.shape[1]
    if r <= 1:
        return None
    if target_bases is None:
        target_bases = [support_basis(c.target, rank_tol)[0]
                        for c in system.constraints]
    if walk_basis is not None:
        q, null = _restricted_null_space(*walk_basis, v), True
    else:
        q, null = _row_space(_affine_rows(system, v, target_bases)), False
    if (q.shape[1] if null else r * r - q.shape[1]) == 0:
        return None
    trace_row = _herm_coords(np.eye(r))
    id_dir = trace_row / np.linalg.norm(trace_row)

    def attempt(q: np.ndarray, null: bool, y0: np.ndarray) -> np.ndarray | None:
        y = q @ y0 if null else y0 - q @ (q.T @ y0)
        y -= (y @ id_dir) * id_dir
        nrm = np.linalg.norm(y)
        if nrm < 1e-10 * np.linalg.norm(y0):
            return None
        h = hermitian_part(v @ _coords_to_herm(y / nrm, r) @ v.conj().T)
        return h / np.linalg.norm(h)

    def posts_hold(h: np.ndarray) -> bool:
        if abs(np.trace(h)) > deriv_tol:
            return False
        return all(np.linalg.norm(c.apply(h)) <= deriv_tol
                   for c in system.constraints)

    y0 = rng.standard_normal(q.shape[1] if null else r * r)
    h = attempt(q, null, y0)
    if h is not None and posts_hold(h):
        return h
    q_full = _row_space(_affine_rows(system, v))
    h = attempt(q_full, False, rng.standard_normal(r * r) if null else y0)
    return h if h is not None and posts_hold(h) else None


def step_length_core(v: np.ndarray, p: np.ndarray, h: np.ndarray) -> tuple[float, int]:
    """Largest step along -sign*H that keeps rho on the cone boundary.

    rho enters as its support factor (v, p) = support_basis(rho).
    In the support eigenbasis of rho, B = diag(p)^{-1/2} H diag(p)^{-1/2}
    collects the constraint-free curvature: rho - lambda*H stays PSD up to
    lambda = 1/mu_plus (largest eigenvalue of B) and rho + lambda*H up to
    1/mu_minus.  Both are positive: once the trace and leak checks pass,
    V^dag H V is a nonzero Hermitian matrix of near-zero trace, so it has
    eigenvalues of both signs, and B keeps their signs (Sylvester's law of
    inertia).  The sign follows the larger extremal multiplicity (ties go
    to +1), so a degenerate crossing zeroes several eigenvalues in one step.
    """
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
    scale = 1.0 / np.sqrt(p)
    b = hermitian_part(hr * scale[:, None] * scale[None, :])
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
# confined repair cannot clear aborts the walk.
# ---------------------------------------------------------------------------

def _truncate(x: np.ndarray, rank_tol: float
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zero the eigenvalues that support_basis(x, rank_tol) drops and
    renormalize.  Returns the state with its support factor (v, p), read off
    the same eigenpairs with support_basis's rule, so the caller need not
    decompose the state again."""
    w, v = np.linalg.eigh(hermitian_part(x))
    w = np.where(w > rank_tol * eigenvalue_scale(w), w, 0.0)
    t = w.sum()
    if t <= 0:
        raise ReductionError("state vanished after eigenvalue truncation")
    w = w / t
    sel = w > rank_tol * eigenvalue_scale(w)
    return hermitian_part((v * w) @ v.conj().T), v[:, sel], w[sel]


def _repair(x: np.ndarray, system: ConstraintSystem, *, inner_tol: float,
            hard_tol: float, rank_tol: float) -> tuple[np.ndarray, float, float]:
    """Restore feasibility after a truncation, confined to supp(x); returns
    the repaired state and the max residual before (at x) and after.

    Up to four rounds, until the residual is at most inner_tol, each an
    affine projection confined to the state's current support, a PSD
    projection and a renormalisation; x itself comes back when it needs no
    round.  More than one round is needed on starts that the solver's budget
    stopped near its tolerance.  A residual above hard_tol after the rounds
    aborts the reduction.
    """
    before = cur = residual_report(system, x).max_residual
    y = x
    for _ in range(4):
        if cur <= inner_tol:
            break
        y = project_affine(system, y, support=support_basis(y, rank_tol)[0])
        y = psd_project(y)
        t = float(np.trace(y).real)
        if t <= 0:
            raise ReductionError("repair produced a traceless state")
        y = y / t
        cur = residual_report(system, y).max_residual
    if cur > hard_tol:
        raise ReductionError(
            f"feasibility repair failed: residual {cur:.3e} exceeds {hard_tol:.1e}")
    return y, before, cur


def reduce_core(rho0: np.ndarray, system: ConstraintSystem, *,
                rank_tol: float = DEFAULT_RANK_TOL,
                repair_tol: float = DEFAULT_REPAIR_TOL,
                seed: int = 0,
                max_steps: int | None = None) -> tuple[np.ndarray, ReductionTrace]:
    """Greedy boundary-step loop; stops when no null-space direction remains.

    Each step multiplies out to: direction, boundary step length, eigenvalue
    truncation at rank_tol, support-confined feasibility repair, and a
    strict rank comparison.  Continues below the paper's bound, the
    square-sum bound of the targets that the trace records, while
    directions exist.
    The first support V0 with r0^2 <= m, m the number of descent rows, gets
    one null basis of the rows (eigh of the r0^2 x r0^2 Gram matrix), which
    each later step restricts; a support that leaves span(V0) by more than
    DEFAULT_DERIV_TOL gets a new one.  While r^2 > m no r^2 x r^2 Gram is
    formed.
    The loop carries (v, p), the support factor of x with support_basis's
    rule, from the eigh of the truncation: one state decomposition per step
    gives the direction's support, the step length and both ranks, and only
    a repair round that changes the state costs a second one.  Small
    eigenvalues are not truncated above rank_tol: a boundary step removes
    them without moving any constraint.
    """
    rng = np.random.default_rng(seed)
    x = hermitian_part(np.asarray(rho0, dtype=complex))
    if x.shape != (system.dim, system.dim):
        raise ValueError(f"state shape {x.shape} does not match dimension {system.dim}")
    start_res = residual_report(system, x).max_residual
    if start_res > 1e-6:
        raise ValueError(
            f"starting state is not feasible: residual {start_res:.3e} exceeds 1.0e-06")
    repair_kwargs = dict(inner_tol=repair_tol / 10, hard_tol=repair_tol,
                         rank_tol=rank_tol)
    steps: list[ReductionStep] = []
    # targets are fixed, so their supports are computed once per reduction
    target_bases = [support_basis(c.target, rank_tol)[0] for c in system.constraints]
    # the descent rows: the trace row and rank(T_c)^2 per constraint
    m = 1 + sum(vc.shape[1] ** 2 for vc in target_bases)
    bound = square_sum_bound([c.target for c in system.constraints], rank_tol)
    walk_basis = None

    def record(exhausted: bool = False) -> ReductionTrace:
        return ReductionTrace(steps, numerical_rank(x, rank_tol), bound, exhausted)

    def settle(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                       float, float]:
        """Truncate y at rank_tol and repair it, with the result's support
        factor: the truncation's unless a repair round changed the state."""
        y, v, p = _truncate(y, rank_tol)
        z, pre, after = _repair(y, system, **repair_kwargs)
        if z is not y:
            v, p = support_basis(z, rank_tol)
        return z, v, p, pre, after

    limit = system.dim if max_steps is None else int(max_steps)
    try:
        x, v, p, _, _ = settle(x)
        while len(steps) < limit:
            if p.size ** 2 <= m and (walk_basis is None or np.linalg.norm(
                    v - walk_basis[0] @ (walk_basis[0].conj().T @ v))
                    > DEFAULT_DERIV_TOL):
                walk_basis = v, _null_space(_affine_rows(system, v, target_bases))
            h = descent_direction_core(v, system, rng, rank_tol=rank_tol,
                                       target_bases=target_bases, walk_basis=walk_basis)
            if h is None:
                return x, record(True)
            lam, sign = step_length_core(v, p, h)
            y, v_next, p_next, pre, after = settle(x - sign * lam * h)
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
