"""Shared feasibility and rank-reduction engine.

Everything here is phrased against a list of linear constraints, each given
by the structure of its map (an optional isometry in, a partial trace onto
kept tensor factors, an optional isometry out) and a target.  The forward
map, its adjoint and the constraint rows are all derived from that
structure, so the same code serves plain marginal instances, symmetry-sector
instances, and channel instances.  The rows feed both exact linear solves:
the affine projection (a pseudo-inverse of their Gram matrix) and the descent
null space (a basis of their row space), each from one eigendecomposition.
The full-space rows are sparse, and their nonzeros are kept with the system
together with the pseudo-inverse: the feasibility loop projects and measures
its residual by sparse products in real Hermitian coordinates, without
calling the maps.
State-space operators are dense complex Hermitian matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .hilbert import embed_with_identity, partial_trace, support_basis
from .numerics import hermitian_part, numerical_rank, psd_project

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 5000
DEFAULT_RANK_TOL = 1e-9
DEFAULT_REPAIR_TOL = 1e-8
DEFAULT_DERIV_TOL = 1e-9
PLATEAU_WINDOW = 500
PLATEAU_RTOL = 5e-3


@dataclass(frozen=True)
class Constraint:
    """One affine equality M(X) == target, with M given by its structure.

    M lifts X to lift @ X @ lift^dag when lift is given, traces it down to
    the factors `keep` of the tensor product with factor dimensions `dims`,
    and compresses the result to lower^dag @ Y @ lower when lower is given.
    apply, adjoint and the batched descent rows (constraint_rows) all derive
    from this one description.  label names the constraint in reports.
    """

    target: np.ndarray
    dims: tuple[int, ...]
    keep: tuple[int, ...]
    lift: np.ndarray | None = None
    lower: np.ndarray | None = None
    label: str = ""

    def apply(self, x: np.ndarray) -> np.ndarray:
        """M(x) = lower^dag Tr_rest(lift x lift^dag) lower."""
        if self.lift is not None:
            x = self.lift @ x @ self.lift.conj().T
        y = partial_trace(x, self.dims, self.keep)
        if self.lower is not None:
            y = self.lower.conj().T @ y @ self.lower
        return y

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """M*(y) = lift^dag ((lower y lower^dag) (x) I_rest) lift."""
        if self.lower is not None:
            y = self.lower @ y @ self.lower.conj().T
        x = embed_with_identity(y, self.dims, self.keep)
        if self.lift is not None:
            x = self.lift.conj().T @ x @ self.lift
        return x


class AffineFactor(NamedTuple):
    """The full-space affine rows and what the projection needs with them.

    A, the unit-trace row then the full rows of every constraint, is kept as
    its nonzeros: A[row[i], col[i]] == val[i].  pinv is G^+ for G = A A^T;
    target is b, the right-hand side of A y = b in the same row order;
    offsets are the first rows of the trace block and of each constraint's
    block.
    """

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    pinv: np.ndarray
    target: np.ndarray
    offsets: np.ndarray

    def matvec(self, xc: np.ndarray) -> np.ndarray:
        """A xc for a coordinate vector xc."""
        return np.bincount(self.row, self.val * xc[self.col],
                           minlength=self.target.size)

    def rmatvec(self, z: np.ndarray, n: int) -> np.ndarray:
        """A^T z, a coordinate vector of length n."""
        return np.bincount(self.col, self.val * z[self.row], minlength=n)


@dataclass(frozen=True)
class ConstraintSystem:
    dim: int
    constraints: tuple[Constraint, ...]

    @cached_property
    def affine(self) -> AffineFactor:
        """The full-space affine factor, built on first use and then kept
        with the system (see project_affine)."""
        rows = _affine_rows(self, np.eye(self.dim, dtype=complex))
        g = rows @ rows.T
        row, col = np.nonzero(rows)
        val = rows[row, col]
        del rows  # G is factored without the dense rows held
        blocks = [[1.0]] + [_herm_coords(c.target) for c in self.constraints]
        return AffineFactor(row, col, val, _gram_pinv(g), np.concatenate(blocks),
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
    """Outcome of the alternating-projection solver.

    When converged is False, state holds the best iterate found; it is a
    diagnostic, not a solution.  residual_history holds, per iteration, the
    best residual reached so far, so it never increases.
    """

    state: np.ndarray
    report: ResidualReport
    converged: bool
    iterations: int
    message: str
    residual_history: tuple[float, ...]


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
# Affine projection: one exact least-squares solve on the constraint rows.
# The rows A are the unit-trace row plus constraint_rows(c, V, I) for every
# constraint, in the coordinates of corrections V herm(y) V^dag.  The trace
# row rides along even though the marginal rows imply it; this keeps the
# projected point exactly on the trace-one slice regardless of rounding in
# the other rows.  A row of a partial-trace constraint has d_rest nonzeros
# among its D^2 entries, so the full-space A (V = I) is kept as its
# nonzeros with the pseudo-inverse of G = A A^T, and each product with A or
# A^T is one bincount over them.  V's rows are A's rows compressed to
# span(V), so a confined projection (V != I) takes its residual and A^T z
# from the full-space A as well and needs only its own G_V^+; it reads the
# residual at all of x because x may carry weight off span(V) that V's rows
# cannot see.
# ---------------------------------------------------------------------------

def _affine_rows(system: ConstraintSystem, v: np.ndarray) -> np.ndarray:
    """The dense affine rows on span(v): the trace row, then every
    constraint's full rows."""
    r = v.shape[1]
    sizes = [1] + [c.target.shape[0] ** 2 for c in system.constraints]
    rows = np.empty((sum(sizes), r * r))
    rows[0] = _herm_coords(np.eye(r))
    start = 1
    for c, size in zip(system.constraints, sizes[1:]):
        rows[start:start + size] = constraint_rows(c, v, np.eye(c.target.shape[0]))
        start += size
    return rows


def _gram_pinv(g: np.ndarray) -> np.ndarray:
    """G^+ of a row Gram matrix, from its eigenpairs that count as nonzero."""
    lam, u = _gram_eig(g)
    u /= np.sqrt(lam)
    return u @ u.T


def _confined_pinv(system: ConstraintSystem, v: np.ndarray) -> np.ndarray:
    """G_V^+ of the affine rows on span(v)."""
    rows = _affine_rows(system, v)
    return _gram_pinv(rows @ rows.T)


def _affine_residuals(system: ConstraintSystem, x: np.ndarray) -> np.ndarray:
    """Block norms of A coords(x) - b: the trace defect, then the Frobenius
    residual of every constraint (the coordinates are an isometry, so these
    are the norms of M(x) - target)."""
    f = system.affine
    dev = f.matvec(_herm_coords(x)) - f.target
    return np.sqrt(np.add.reduceat(dev * dev, f.offsets))


def project_affine(system: ConstraintSystem, x: np.ndarray, *,
                   support: np.ndarray | None = None) -> np.ndarray:
    """Least-squares projection of Hermitian x onto the affine constraint slice.

    With r = b - A coords(x) the residual of the trace row and of every
    constraint at x, the correction is the minimum-norm solution of
    A delta = r in the least-squares sense, A^T G^+ r; on a contradictory
    system that is the least-squares point.  Without `support` G^+ is the
    system's full-space one.  When `support` (an isometry V) is given, the
    correction is confined to operators on span(V): G_V^+ is built for V's
    rows, and the correction H = coords^-1(A^T G_V^+ r) is compressed to
    V (V^dag H V) V^dag.  r still reads all of x, so weight off span(V)
    counts.  No constraint map is called.
    """
    f = system.affine
    pinv = f.pinv if support is None else _confined_pinv(system, support)
    xc = _herm_coords(x)
    delta = f.rmatvec(pinv @ (f.target - f.matvec(xc)), xc.size)
    if support is not None:
        h = _coords_to_herm(delta, system.dim)
        delta = _herm_coords(support @ (support.conj().T @ h @ support)
                             @ support.conj().T)
    return _coords_to_herm(xc + delta, system.dim)


# ---------------------------------------------------------------------------
# Feasibility: alternating projections with Dykstra corrections between the
# affine slice and the positive semidefinite cone.
# ---------------------------------------------------------------------------

def solve_feasible(system: ConstraintSystem, *, tol: float = DEFAULT_TOL,
                   max_iters: int = DEFAULT_MAX_ITERS) -> FeasibilityResult:
    """Find a state satisfying every constraint, or report failure.

    Dykstra's alternating projections between the affine slice and the PSD
    cone, starting from the maximally mixed state.  Every affine step is one
    exact solve against the system's Gram factor, which is built once, and
    the same factor gives each iteration's residuals.  Convergence is
    declared when the trace-normalized PSD iterate meets every constraint
    within tol.  No more than PLATEAU_RTOL relative improvement over the last
    PLATEAU_WINDOW iterations is reported as a plateau; that is evidence of
    infeasibility, never a certificate.  The result carries the best
    residual after every iteration.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    x = np.eye(system.dim, dtype=complex) / system.dim
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    best_res = math.inf
    best_x = x.copy()
    history: list[float] = []
    iterations = 0
    for it in range(1, max_iters + 1):
        iterations = it
        y = project_affine(system, x + p)
        p = x + p - y
        w = y + q
        x = psd_project(w)
        q = w - x
        t = float(np.trace(x).real)
        cand = x / t if t > 0.5 else x
        res = float(_affine_residuals(system, cand).max())
        if res < best_res:
            best_res = res
            best_x = cand.copy()
        history.append(best_res)
        if res <= tol:
            return FeasibilityResult(cand, residual_report(system, cand), True, it,
                                     f"converged in {it} iterations", tuple(history))
        if it > PLATEAU_WINDOW and best_res > 10 * tol:
            prev = history[it - PLATEAU_WINDOW - 1]
            if prev - best_res < PLATEAU_RTOL * prev:
                msg = (f"residual plateau at {best_res:.3e} after {it} iterations "
                       f"(< {PLATEAU_RTOL:.1%} improvement over the last "
                       f"{PLATEAU_WINDOW}); instance possibly infeasible")
                return FeasibilityResult(best_x, residual_report(system, best_x),
                                         False, it, msg, tuple(history))
    msg = (f"no convergence after {max_iters} iterations; "
           f"best residual {best_res:.3e}")
    return FeasibilityResult(best_x, residual_report(system, best_x),
                             False, iterations, msg, tuple(history))


# ---------------------------------------------------------------------------
# Real coordinates on the Hermitian matrices: diagonal entries, then sqrt(2)
# times the real and imaginary parts of the strict upper triangle.  The map
# is a linear isometry between (R^{r^2}, l2) and (Herm(r), Frobenius).
#
# The rows of the affine projection and of the descent system are built in
# these coordinates without a loop over basis elements.  For a constraint
# that traces a state down to its kept factors, with support basis V of rho
# and target support basis V_c, the compressed adjoint image of |a><b| is
# G_ab = V^dag (|a><b| (x) I) V = w_a^dag w_b, where w_a holds <a|V with the
# traced-out factors as rows.  G_ba = G_ab^dag, so the products for a <= b
# give the image of every target basis element: G_aa, then
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
    out = np.zeros((r, r), dtype=complex)
    out[iu, ju] = (y[r:r + noff] + 1j * y[r + noff:]) / math.sqrt(2)
    out = out + out.conj().T
    out[diag, diag] = y[:r]
    return out


def constraint_rows(c: Constraint, v: np.ndarray, vc: np.ndarray) -> np.ndarray:
    """Rows of one constraint in the engine's linear systems, shape (rc^2, r^2).

    Row a is the coordinate vector of V^dag M*(F_a) V, the Riesz vector of
    the scalar equality <F_a, M(H)> = 0 for H = V herm(y) V^dag, where F_a
    runs over the Hermitian basis of operators on span(vc): vc is the target
    support basis for the compressed rows, the identity for the full ones.
    """
    if c.lift is not None:
        v = c.lift @ v
    if c.lower is not None:
        vc = c.lower @ vc
    n, r, rc = len(c.dims), v.shape[1], vc.shape[1]
    rest = tuple(i for i in range(n) if i not in c.keep)
    d_rest = math.prod(c.dims[i] for i in rest)
    t = v.reshape(c.dims + (r,)).transpose(c.keep + rest + (n,))
    w = (vc.conj().T @ t.reshape(vc.shape[0], d_rest * r)).reshape(rc, d_rest, r)
    wh = w.conj().transpose(0, 2, 1)
    _, a, b = _coord_index(rc)
    g = wh[a] @ w[b]
    gh = g.conj().transpose(0, 2, 1)
    return np.concatenate([_herm_coords(wh @ w),
                           _herm_coords((g + gh) / math.sqrt(2)),
                           _herm_coords(1j * (g - gh) / math.sqrt(2))])


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


def descent_direction_core(v: np.ndarray, system: ConstraintSystem,
                           rng: np.random.Generator, *,
                           rank_tol: float = DEFAULT_RANK_TOL,
                           deriv_tol: float = DEFAULT_DERIV_TOL,
                           target_bases: Sequence[np.ndarray] | None = None
                           ) -> np.ndarray | None:
    """Random unit-norm traceless Hermitian direction that moves no constraint.

    Parametrizes candidates on span(v), v the state's support_basis, and
    builds the linear system they must satisfy: an explicit trace row plus,
    per constraint, the rows of its map compressed onto the target support
    (constraint_rows; target_bases holds those supports, computed here when
    not given).  The null space of the rows is the orthogonal complement of
    their row space, which comes from one eigendecomposition of the m x m
    Gram matrix (_row_space); a random seed is projected onto it.  The
    result is verified: |Tr H| and every full constraint image must stay
    below deriv_tol.  If the compressed rows are not enough to control a
    full image, the full rows are appended and the projection is repeated.
    Returns None when the null space is (numerically) empty.
    """
    r = v.shape[1]
    if r <= 1:
        return None
    if target_bases is None:
        target_bases = [support_basis(c.target, rank_tol)[0]
                        for c in system.constraints]
    trace_row = _herm_coords(np.eye(r))
    base = np.vstack([trace_row] + [constraint_rows(c, v, vc) for c, vc
                                    in zip(system.constraints, target_bases)])
    q_base = _row_space(base)
    if q_base.shape[1] >= r * r:
        return None
    q_full = None
    id_dir = trace_row / np.linalg.norm(trace_row)

    def attempt(q: np.ndarray, y0: np.ndarray) -> np.ndarray | None:
        y = y0 - q @ (q.T @ y0)
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

    for _ in range(3):
        y0 = rng.standard_normal(r * r)
        h = attempt(q_base, y0)
        if h is None:
            continue
        if posts_hold(h):
            return h
        if q_full is None:
            q_full = _row_space(np.vstack([base] + [
                constraint_rows(c, v, np.eye(c.target.shape[0]))
                for c in system.constraints]))
        h = attempt(q_full, y0)
        if h is not None and posts_hold(h):
            return h
    return None


def step_length_core(v: np.ndarray, p: np.ndarray, h: np.ndarray) -> tuple[float, int]:
    """Largest step along -sign*H that keeps rho on the cone boundary.

    rho enters as its support factor (v, p) = support_basis(rho).
    In the support eigenbasis of rho, B = diag(p)^{-1/2} H diag(p)^{-1/2}
    collects the constraint-free curvature: rho - lambda*H stays PSD up to
    lambda = 1/mu_plus (largest eigenvalue of B) and rho + lambda*H up to
    1/mu_minus.  Both extremes exist because H is traceless on the support.
    The sign follows the larger extremal multiplicity (ties go to +1), so a
    degenerate crossing zeroes several eigenvalues in one step.
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
    if mu_plus <= 0.0 or mu_minus <= 0.0:
        raise ValueError("direction does not reach the cone boundary on both sides")
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
# truncated eigenvalues above rank_tol and break monotonicity).
# ---------------------------------------------------------------------------

def _truncate(x: np.ndarray, floor: float) -> np.ndarray:
    """Zero the eigenvalues that support_basis(x, floor) drops, renormalize."""
    w, v = np.linalg.eigh(hermitian_part(x))
    scale = max(1.0, float(np.abs(w).max())) if w.size else 1.0
    w = np.where(w > floor * scale, w, 0.0)
    t = w.sum()
    if t <= 0:
        raise ReductionError("state vanished after eigenvalue truncation")
    return hermitian_part((v * (w / t)) @ v.conj().T)


def _truncate_to_rank(x: np.ndarray, rank: int) -> np.ndarray:
    w, v = np.linalg.eigh(hermitian_part(x))
    w[:-rank] = 0.0
    w = np.clip(w, 0.0, None)
    t = w.sum()
    if t <= 0:
        raise ReductionError("state vanished after rank truncation")
    return hermitian_part((v * (w / t)) @ v.conj().T)


def _repair(x: np.ndarray, system: ConstraintSystem, *, inner_tol: float,
            hard_tol: float, rank_tol: float) -> tuple[np.ndarray, float, float]:
    """Restore feasibility after a truncation, confined to supp(x); returns
    the repaired state and the max residual before (at x) and after."""

    def confined_rounds(y: np.ndarray, cur: float,
                        rounds: int) -> tuple[np.ndarray, float]:
        for _ in range(rounds):
            if cur <= inner_tol:
                break
            vsup, _ = support_basis(y, rank_tol)
            y = project_affine(system, y, support=vsup)
            y = psd_project(y)
            t = float(np.trace(y).real)
            if t <= 0:
                raise ReductionError("repair produced a traceless state")
            y = y / t
            cur = residual_report(system, y).max_residual
        return y, cur

    before = residual_report(system, x).max_residual
    y, cur = confined_rounds(x, before, 4)
    if cur <= hard_tol:
        return y, before, cur
    # fallback: one unconstrained affine polish, clamp the rank back, retry
    y2 = _truncate_to_rank(project_affine(system, y), numerical_rank(y, rank_tol))
    y2, cur2 = confined_rounds(y2, residual_report(system, y2).max_residual, 3)
    if cur2 <= hard_tol:
        return y2, before, cur2
    raise ReductionError(
        f"feasibility repair failed: residual {min(cur, cur2):.3e} exceeds {hard_tol:.1e}")


def reduce_core(rho0: np.ndarray, system: ConstraintSystem, *, bound: int,
                rank_tol: float = DEFAULT_RANK_TOL,
                repair_tol: float = DEFAULT_REPAIR_TOL,
                deriv_tol: float = DEFAULT_DERIV_TOL,
                seed: int = 0,
                max_steps: int | None = None) -> tuple[np.ndarray, ReductionTrace]:
    """Greedy boundary-step loop; stops when no null-space direction remains.

    Each step multiplies out to: direction, boundary step length, eigenvalue
    truncation at rank_tol (and at 1000*rank_tol when the support becomes
    ill-conditioned), support-confined feasibility repair, and a strict rank
    comparison.  Continues below `bound` while directions exist.  The loop
    carries (v, p) = support_basis(x, rank_tol), one eigh per step that gives
    the direction's support, the step length and both ranks.
    """
    rng = np.random.default_rng(seed)
    x = hermitian_part(np.asarray(rho0, dtype=complex))
    if x.shape != (system.dim, system.dim):
        raise ValueError(f"state shape {x.shape} does not match dimension {system.dim}")
    start_res = residual_report(system, x).max_residual
    if start_res > 1e-6:
        raise ValueError(
            f"starting state is not feasible: residual {start_res:.3e} exceeds 1.0e-06")
    guard_floor = 1e3 * rank_tol
    repair_kwargs = dict(inner_tol=repair_tol / 10, hard_tol=repair_tol,
                         rank_tol=rank_tol)
    steps: list[ReductionStep] = []
    # targets are fixed, so their supports are computed once per reduction
    target_bases = [support_basis(c.target, rank_tol)[0] for c in system.constraints]

    def record(exhausted: bool = False) -> ReductionTrace:
        return ReductionTrace(steps, numerical_rank(x, rank_tol), bound, exhausted)

    limit = system.dim if max_steps is None else int(max_steps)
    try:
        x, _, _ = _repair(_truncate(x, rank_tol), system, **repair_kwargs)
        v, p = support_basis(x, rank_tol)
        while len(steps) < limit:
            if p.size and p.min() < guard_floor * max(1.0, p.max()):
                x, _, _ = _repair(_truncate(x, guard_floor), system, **repair_kwargs)
                v, p = support_basis(x, rank_tol)
            h = descent_direction_core(v, system, rng, rank_tol=rank_tol,
                                       deriv_tol=deriv_tol, target_bases=target_bases)
            if h is None:
                return x, record(True)
            lam, sign = step_length_core(v, p, h)
            y, pre, after = _repair(_truncate(x - sign * lam * h, rank_tol), system,
                                    **repair_kwargs)
            v_next, p_next = support_basis(y, rank_tol)
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
