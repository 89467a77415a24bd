"""Shared feasibility and rank-reduction engine.

Everything here is phrased against an abstract list of linear constraints
(forward map, adjoint map, target), so the same code serves plain marginal
instances, symmetry-sector instances, and channel instances.  State-space
operators are dense complex Hermitian matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .hilbert import support_basis
from .numerics import hermitian_part, numerical_rank, psd_project

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 5000
DEFAULT_RANK_TOL = 1e-9
DEFAULT_REPAIR_TOL = 1e-8
DEFAULT_DERIV_TOL = 1e-9
CG_TOL = 1e-12
CG_MAX_ITERS = 500
PLATEAU_WINDOW = 500
PLATEAU_RTOL = 5e-3


@dataclass(frozen=True)
class Constraint:
    """One affine equality: apply(X) == target, with adjoint of the map.

    The map's structure drives the batched descent rows (constraint_rows):
    X is lifted to lift @ X @ lift^dag when lift is given, traced down to
    the factors `keep` of the tensor product with factor dimensions `dims`,
    and compressed to lower^dag @ Y @ lower when lower is given.  apply and
    adjoint compute the same map and its adjoint.
    """

    target: np.ndarray
    apply: Callable[[np.ndarray], np.ndarray]
    adjoint: Callable[[np.ndarray], np.ndarray]
    dims: tuple[int, ...]
    keep: tuple[int, ...]
    lift: np.ndarray | None = None
    lower: np.ndarray | None = None
    label: str = ""


@dataclass(frozen=True)
class ConstraintSystem:
    dim: int
    constraints: tuple[Constraint, ...]


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
    diagnostic, not a solution.
    """

    state: np.ndarray
    report: ResidualReport
    converged: bool
    iterations: int
    message: str


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
# Affine projection: conjugate gradient on the constraint Gram system.
# The unit-trace condition rides along as an explicit 1x1 block even though
# the marginal rows imply it; this keeps the projected point exactly on the
# trace-one slice regardless of rounding in the other blocks.
# ---------------------------------------------------------------------------

def _bdot(za, zb) -> float:
    return float(sum(np.vdot(a, b).real for a, b in zip(za, zb)))


def _residual_blocks(system: ConstraintSystem, x: np.ndarray) -> list[np.ndarray]:
    out = [c.target - c.apply(x) for c in system.constraints]
    out.append(np.array([[1.0 - np.trace(x)]], dtype=complex))
    return out


def _lift(system: ConstraintSystem, z) -> np.ndarray:
    y = z[-1][0, 0] * np.eye(system.dim, dtype=complex)
    for c, zb in zip(system.constraints, z):
        y = y + c.adjoint(zb)
    return y


def _forward_blocks(system: ConstraintSystem, y: np.ndarray) -> list[np.ndarray]:
    out = [c.apply(y) for c in system.constraints]
    out.append(np.array([[np.trace(y)]], dtype=complex))
    return out


def project_affine(system: ConstraintSystem, x: np.ndarray, *,
                   warm=None, support: np.ndarray | None = None,
                   cg_tol: float = CG_TOL, cg_max_iters: int = CG_MAX_ITERS):
    """Least-squares projection of x onto the affine constraint slice.

    Solves the Gram system G z = (targets - forward(x)) by conjugate gradient
    and returns (x + adjoint(z), z).  When `support` (an isometry) is given,
    the correction is confined to operators on that subspace, i.e. the Gram
    map becomes L P L* with P the support compression.
    """
    b = _residual_blocks(system, x)
    bnorm = math.sqrt(_bdot(b, b))

    def gram(z):
        y = _lift(system, z)
        if support is not None:
            y = support @ (support.conj().T @ y @ support) @ support.conj().T
        return _forward_blocks(system, y)

    if warm is not None:
        z = [zb.copy() for zb in warm]
        r = [rb - gb for rb, gb in zip(b, gram(z))]
    else:
        z = [np.zeros_like(rb) for rb in b]
        r = [rb.copy() for rb in b]
    rs = _bdot(r, r)
    best_rs, best_z = rs, [zb.copy() for zb in z]
    threshold = (cg_tol * max(1.0, bnorm)) ** 2
    d = [rb.copy() for rb in r]
    stalled = 0
    for _ in range(cg_max_iters):
        if rs <= threshold:
            break
        gd = gram(d)
        dgd = _bdot(d, gd)
        if dgd <= 0.0:
            break
        alpha = rs / dgd
        for zb, db in zip(z, d):
            zb += alpha * db
        for rb, gb in zip(r, gd):
            rb -= alpha * gb
        rs_new = _bdot(r, r)
        if rs_new < best_rs * (1.0 - 1e-3):
            best_rs, best_z = rs_new, [zb.copy() for zb in z]
            stalled = 0
        else:
            # mutually inconsistent rows leave an unreachable residual
            # component; give up once progress stops instead of burning
            # the full budget on it
            stalled += 1
            if rs_new < best_rs:
                best_rs, best_z = rs_new, [zb.copy() for zb in z]
            if stalled >= 60:
                break
        beta = rs_new / rs
        rs = rs_new
        d = [rb + beta * db for rb, db in zip(r, d)]
    correction = _lift(system, best_z)
    if support is not None:
        correction = support @ (support.conj().T @ correction @ support) @ support.conj().T
    return hermitian_part(x + correction), best_z


# ---------------------------------------------------------------------------
# Feasibility: alternating projections with Dykstra corrections between the
# affine slice and the positive semidefinite cone.
# ---------------------------------------------------------------------------

def solve_feasible(system: ConstraintSystem, *, start: np.ndarray | None = None,
                   tol: float = DEFAULT_TOL, max_iters: int = DEFAULT_MAX_ITERS,
                   cg_tol: float = CG_TOL, cg_max_iters: int = CG_MAX_ITERS,
                   plateau_window: int = PLATEAU_WINDOW,
                   plateau_rtol: float = PLATEAU_RTOL) -> FeasibilityResult:
    """Find a state satisfying every constraint, or report failure.

    Dykstra's alternating projections between the affine slice and the PSD
    cone, starting from the maximally mixed state.  Convergence is declared
    when the trace-normalized PSD iterate meets every constraint within tol.
    A long stretch without residual improvement is reported as a plateau;
    that is evidence of infeasibility, never a certificate.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    dim = system.dim
    x = np.eye(dim, dtype=complex) / dim if start is None else hermitian_part(start)
    if x.shape != (dim, dim):
        raise ValueError(f"start shape {x.shape} does not match dimension {dim}")
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    warm = None
    best_res = math.inf
    best_x = x.copy()
    history: list[float] = []
    iterations = 0
    for it in range(1, max_iters + 1):
        iterations = it
        y, warm = project_affine(system, x + p, warm=warm,
                                 cg_tol=cg_tol, cg_max_iters=cg_max_iters)
        p = x + p - y
        w = y + q
        x = psd_project(w)
        q = w - x
        t = float(np.trace(x).real)
        cand = x / t if t > 0.5 else x
        res = max((float(np.linalg.norm(c.apply(cand) - c.target))
                   for c in system.constraints), default=0.0)
        res = max(res, float(abs(np.trace(cand) - 1.0)))
        if res < best_res:
            best_res = res
            best_x = cand.copy()
        history.append(best_res)
        if res <= tol:
            return FeasibilityResult(cand, residual_report(system, cand), True, it,
                                     f"converged in {it} iterations")
        if it > plateau_window and best_res > 10 * tol:
            prev = history[it - plateau_window - 1]
            if prev - best_res < plateau_rtol * prev:
                msg = (f"residual plateau at {best_res:.3e} after {it} iterations "
                       f"(< {plateau_rtol:.1%} improvement over the last "
                       f"{plateau_window}); instance possibly infeasible")
                return FeasibilityResult(best_x, residual_report(system, best_x),
                                         False, it, msg)
    msg = (f"no convergence after {max_iters} iterations; "
           f"best residual {best_res:.3e}")
    return FeasibilityResult(best_x, residual_report(system, best_x),
                             False, iterations, msg)


# ---------------------------------------------------------------------------
# Real coordinates on the Hermitian matrices: diagonal entries, then sqrt(2)
# times the real and imaginary parts of the strict upper triangle.  The map
# is a linear isometry between (R^{r^2}, l2) and (Herm(r), Frobenius).
#
# The descent system's rows are built in these coordinates without a loop
# over basis elements.  For a constraint that traces a state down to its
# kept factors, with support basis V of rho and target support basis V_c,
# the compressed adjoint image of |a><b| is
# G_ab = V^dag (|a><b| (x) I) V = w_a^dag w_b, where w_a holds <a|V with the
# traced-out factors as rows.  G_ba = G_ab^dag, so the products for a <= b
# give the image of every target basis element: G_aa, then
# (G_ab + G_ab^dag)/sqrt(2) and i(G_ab - G_ab^dag)/sqrt(2) for a < b.  Their
# coordinates are the constraint's rows.
# ---------------------------------------------------------------------------

def _herm_coords(m: np.ndarray) -> np.ndarray:
    """Coordinates of Hermitian matrices stacked along the leading axes."""
    r = m.shape[-1]
    iu, ju = np.triu_indices(r, 1)
    off = m[..., iu, ju]
    return np.concatenate([m[..., np.arange(r), np.arange(r)].real,
                           math.sqrt(2) * off.real, math.sqrt(2) * off.imag],
                          axis=-1)


def _coords_to_herm(y: np.ndarray, r: int) -> np.ndarray:
    iu = np.triu_indices(r, 1)
    noff = iu[0].size
    out = np.zeros((r, r), dtype=complex)
    out[iu] = (y[r:r + noff] + 1j * y[r + noff:]) / math.sqrt(2)
    out = out + out.conj().T
    out[np.diag_indices(r)] = y[:r]
    return out


def constraint_rows(c: Constraint, v: np.ndarray, vc: np.ndarray) -> np.ndarray:
    """Rows of one constraint in the descent linear system, shape (rc^2, r^2).

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
    a, b = np.triu_indices(rc, 1)
    g = wh[a] @ w[b]
    gh = g.conj().transpose(0, 2, 1)
    return np.concatenate([_herm_coords(wh @ w),
                           _herm_coords((g + gh) / math.sqrt(2)),
                           _herm_coords(1j * (g - gh) / math.sqrt(2))])


def _row_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the row space of a, from eigh(a a^T).

    Eigenvalues at or below 1e-12 * lambda_max count as zero, i.e. singular
    values below 1e-6 * sigma_max.  The cutoff is not the square of an SVD
    rcond such as 1e-8: squaring puts rounding-level singular values near
    1e-16 * lambda_max, where a 1e-16 cutoff admits them as row directions.
    The rows' singular values sit either near sigma_max or at rounding level
    (on 5 qubits they fall from 0.27 sigma_max straight to 7e-16 sigma_max),
    so the wide cutoff loses no real row.
    """
    lam, u = np.linalg.eigh(a @ a.T)
    keep = lam > 1e-12 * lam[-1]
    q = a.T @ u[:, keep]
    q /= np.sqrt(lam[keep])
    return q


def descent_direction_core(rho: np.ndarray, system: ConstraintSystem,
                           rng: np.random.Generator, *,
                           rank_tol: float = DEFAULT_RANK_TOL,
                           deriv_tol: float = DEFAULT_DERIV_TOL,
                           max_tries: int = 3,
                           target_bases: Sequence[np.ndarray] | None = None
                           ) -> np.ndarray | None:
    """Random unit-norm traceless Hermitian direction that moves no constraint.

    Parametrizes candidates on the support of rho and builds the linear
    system they must satisfy: an explicit trace row plus, per constraint,
    the rows of its map compressed onto the target support (constraint_rows;
    target_bases holds those supports, computed here when not given).  The
    null space of the rows is the orthogonal complement of their row space,
    which comes from one eigendecomposition of the m x m Gram matrix
    (_row_space); a random seed is projected onto it.  The result is
    verified: |Tr H| and every full constraint image must stay below
    deriv_tol.  If the compressed rows are not enough to control a full
    image, the full rows are appended and the projection is repeated.
    Returns None when the null space is (numerically) empty.
    """
    v, _ = support_basis(rho, rank_tol)
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

    for _ in range(max_tries):
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


def step_length_core(rho: np.ndarray, h: np.ndarray, *,
                     rank_tol: float = DEFAULT_RANK_TOL,
                     pre_tol: float = 1e-8) -> tuple[float, int]:
    """Largest step along -sign*H that keeps rho on the cone boundary.

    In the support eigenbasis of rho, B = diag(p)^{-1/2} H diag(p)^{-1/2}
    collects the constraint-free curvature: rho - lambda*H stays PSD up to
    lambda = 1/mu_plus (largest eigenvalue of B) and rho + lambda*H up to
    1/mu_minus.  Both extremes exist because H is traceless on the support.
    The sign follows the larger extremal multiplicity (ties go to +1), so a
    degenerate crossing zeroes several eigenvalues in one step.
    """
    rho = hermitian_part(np.asarray(rho, dtype=complex))
    h = hermitian_part(np.asarray(h, dtype=complex))
    hn = float(np.linalg.norm(h))
    if hn == 0.0:
        raise ValueError("direction must be nonzero")
    if abs(np.trace(h)) > pre_tol * hn:
        raise ValueError(f"direction has nonzero trace {np.trace(h):.3e}")
    v, p = support_basis(rho, rank_tol)
    if v.shape[1] == 0:
        raise ValueError("state has empty support")
    hr = v.conj().T @ h @ v
    leak = float(np.linalg.norm(h - v @ hr @ v.conj().T))
    if leak > pre_tol * hn:
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
    w, v = np.linalg.eigh(hermitian_part(x))
    scale = max(1.0, float(np.abs(w).max())) if w.size else 1.0
    w = np.where(w > floor * scale, w, 0.0)
    t = w.sum()
    if t <= 0:
        raise ReductionError("state vanished after eigenvalue truncation")
    return hermitian_part((v * (w / t)) @ v.conj().T)


def _truncate_to_rank(x: np.ndarray, rank: int) -> np.ndarray:
    w, v = np.linalg.eigh(hermitian_part(x))
    w = w.copy()
    w[:-rank] = 0.0
    w = np.clip(w, 0.0, None)
    t = w.sum()
    if t <= 0:
        raise ReductionError("state vanished after rank truncation")
    return hermitian_part((v * (w / t)) @ v.conj().T)


def _repair(x: np.ndarray, system: ConstraintSystem, *, inner_tol: float,
            hard_tol: float, rank_tol: float, cg_tol: float,
            cg_max_iters: int) -> np.ndarray:
    """Restore feasibility after a truncation, confined to supp(x)."""

    def confined_rounds(y: np.ndarray, rounds: int) -> tuple[np.ndarray, float]:
        cur = residual_report(system, y).max_residual
        for _ in range(rounds):
            if cur <= inner_tol:
                break
            vsup, _ = support_basis(y, rank_tol)
            y, _ = project_affine(system, y, support=vsup,
                                  cg_tol=cg_tol, cg_max_iters=cg_max_iters)
            y = psd_project(y)
            t = float(np.trace(y).real)
            if t <= 0:
                raise ReductionError("repair produced a traceless state")
            y = y / t
            cur = residual_report(system, y).max_residual
        return y, cur

    y, cur = confined_rounds(x, 4)
    if cur <= hard_tol:
        return y
    # fallback: one unconstrained affine polish, clamp the rank back, retry
    rank = numerical_rank(y, rank_tol)
    y2, _ = project_affine(system, y, cg_tol=cg_tol, cg_max_iters=cg_max_iters)
    y2 = _truncate_to_rank(psd_project(y2), rank)
    y2, cur2 = confined_rounds(y2, 3)
    if cur2 <= hard_tol:
        return y2
    raise ReductionError(
        f"feasibility repair failed: residual {min(cur, cur2):.3e} exceeds {hard_tol:.1e}")


def reduce_core(rho0: np.ndarray, system: ConstraintSystem, *, bound: int,
                rank_tol: float = DEFAULT_RANK_TOL,
                repair_tol: float = DEFAULT_REPAIR_TOL,
                deriv_tol: float = DEFAULT_DERIV_TOL,
                seed: int = 0, max_steps: int | None = None,
                feas_tol: float = 1e-6,
                cg_tol: float = CG_TOL,
                cg_max_iters: int = CG_MAX_ITERS) -> tuple[np.ndarray, ReductionTrace]:
    """Greedy boundary-step loop; stops when no null-space direction remains.

    Each step multiplies out to: direction, boundary step length, eigenvalue
    truncation at rank_tol (and at 1000*rank_tol when the support becomes
    ill-conditioned), support-confined feasibility repair, and a strict rank
    comparison.  Continues below `bound` while directions exist.
    """
    rng = np.random.default_rng(seed)
    x = hermitian_part(np.asarray(rho0, dtype=complex))
    if x.shape != (system.dim, system.dim):
        raise ValueError(f"state shape {x.shape} does not match dimension {system.dim}")
    rep0 = residual_report(system, x)
    if rep0.max_residual > feas_tol:
        raise ValueError(
            f"starting state is not feasible: residual {rep0.max_residual:.3e} "
            f"exceeds {feas_tol:.1e}")
    inner_tol = repair_tol / 10
    guard_floor = 1e3 * rank_tol
    repair_kwargs = dict(inner_tol=inner_tol, hard_tol=repair_tol,
                         rank_tol=rank_tol, cg_tol=cg_tol,
                         cg_max_iters=cg_max_iters)
    steps: list[ReductionStep] = []
    # targets are fixed, so their supports are computed once per reduction
    target_bases = [support_basis(c.target, rank_tol)[0] for c in system.constraints]

    def finish(exhausted: bool) -> tuple[np.ndarray, ReductionTrace]:
        trace = ReductionTrace(steps, numerical_rank(x, rank_tol), bound, exhausted)
        return x, trace

    def partial_trace_record() -> ReductionTrace:
        return ReductionTrace(steps, numerical_rank(x, rank_tol), bound, False)

    try:
        x = _truncate(x, rank_tol)
        x = _repair(x, system, **repair_kwargs)
    except ReductionError as err:
        raise ReductionError(str(err), partial_trace_record()) from None
    limit = system.dim if max_steps is None else int(max_steps)
    while len(steps) < limit:
        _, p = support_basis(x, rank_tol)
        if p.size and p.min() < guard_floor * max(1.0, p.max()):
            try:
                x = _repair(_truncate(x, guard_floor), system, **repair_kwargs)
            except ReductionError as err:
                raise ReductionError(str(err), partial_trace_record()) from None
        rank_before = numerical_rank(x, rank_tol)
        h = descent_direction_core(x, system, rng, rank_tol=rank_tol,
                                   deriv_tol=deriv_tol, target_bases=target_bases)
        if h is None:
            return finish(True)
        lam, sign = step_length_core(x, h, rank_tol=rank_tol)
        y = _truncate(x - sign * lam * h, rank_tol)
        pre = residual_report(system, y).max_residual
        try:
            y = _repair(y, system, **repair_kwargs)
        except ReductionError as err:
            raise ReductionError(str(err), partial_trace_record()) from None
        rank_after = numerical_rank(y, rank_tol)
        if rank_after >= rank_before:
            raise ReductionError(
                f"step did not reduce rank ({rank_before} -> {rank_after})",
                partial_trace_record())
        after = residual_report(system, y).max_residual
        steps.append(ReductionStep(rank_before, rank_after, lam, sign, pre, after))
        x = y
    return finish(False)
