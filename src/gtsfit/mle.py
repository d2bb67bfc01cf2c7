"""Maximum likelihood fitting through the spectral density tables.

The log likelihood, its score and its observed Hessian are all read off a
single batch of inverse-transform tables: the density row, the 7 parameter
gradient rows and the 28 second-derivative rows, interpolated at the data
points with a 4-point cubic stencil.  With f_i the density at observation i,

    score_j   = sum_i  df_j(x_i) / f_i
    hessian_kj = sum_i [ d2f_kj(x_i) / f_i - df_k(x_i) df_j(x_i) / f_i^2 ]

The optimizer is a damped Newton ascent run in two phases.  While the score
is large the curvature metric is the score outer product (the expected
information estimate), which needs only the density and gradient rows and
keeps each iteration cheap even when an intermediate iterate forces a very
large transform grid.  Once the score norm falls below 1e-2 the transform
grid is frozen at a 2-fold refined resolution and the exact observed
Hessian takes over, so the convergence certificate (score norm and largest
eigenvalue) always comes from the true second derivatives on a fixed
quadrature.  In both phases the metric is shifted past its largest
eigenvalue when it is not safely negative definite, steps are capped
relative to the parameter scale, and trial points must strictly increase
the log likelihood inside the open parameter box; line-search probes
evaluate only the likelihood row.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .gts_model import BOUND_EPS, GtsParams, cumulants
from .risk import _quantile_clamped
from .special_linalg import SingularMatrixError, SymMatrix7, eigen_sym, gamma_fn, solve_sym
from .spectral import FourierGrid, SpanError, choose_grid, density_table, spectral_tables

_DENSITY_FLOOR = 1e-300
_FREEZE_GNORM = 1e-2
_FREEZE_REFINE = 2
_COVERAGE = 40.0


class FitStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITER = "MaxIter"


class SingularHessianError(RuntimeError):
    """Newton system could not be solved; carries the trace so far."""

    def __init__(self, message: str, trace: "FitTrace") -> None:
        super().__init__(message)
        self.trace = trace


class NonFiniteLikelihoodError(RuntimeError):
    """Log likelihood evaluated to a non-finite value."""

    def __init__(self, message: str, trace: "FitTrace") -> None:
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class FitOptions:
    max_iter: int = 100
    grad_tol: float = 1e-6
    step_damping: int = 50
    grid_m: int = 8192


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    params: GtsParams
    log_ml: float
    grad_norm: float
    max_eigenvalue: float
    damping: int


@dataclass
class FitTrace:
    rows: list = field(default_factory=list)

    def append(self, row: TraceRow) -> None:
        self.rows.append(row)

    def __len__(self) -> int:
        return len(self.rows)


_TRACE_HEADER = (
    "iteration,mu,beta_plus,beta_minus,alpha_plus,alpha_minus,"
    "lambda_plus,lambda_minus,log_ml,grad_norm,max_eigenvalue"
)


def write_trace_csv(trace: FitTrace, path) -> None:
    """Trace CSV: iteration, the seven parameters, log ML, gradient norm,
    largest Hessian eigenvalue.  17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_TRACE_HEADER + "\n")
        for r in trace.rows:
            vals = list(r.params.to_vector()) + [r.log_ml, r.grad_norm, r.max_eigenvalue]
            fh.write(str(r.iteration) + "," + ",".join(f"{v:.17g}" for v in vals) + "\n")


def _interp4(x: np.ndarray, rows: np.ndarray, pts: np.ndarray) -> np.ndarray:
    # cubic Lagrange on the 4 nodes around each point; stencil kept interior
    gamma = x[1] - x[0]
    idx = np.clip(((pts - x[0]) / gamma).astype(int), 1, x.size - 3)
    t = (pts - x[idx]) / gamma
    w0 = -t * (t - 1.0) * (t - 2.0) / 6.0
    w1 = (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0
    w2 = -(t + 1.0) * t * (t - 2.0) / 2.0
    w3 = (t + 1.0) * t * (t - 1.0) / 6.0
    return w0 * rows[..., idx - 1] + w1 * rows[..., idx] + w2 * rows[..., idx + 1] + w3 * rows[..., idx + 2]


def _grid_for(params: GtsParams, data: np.ndarray, grid_m: int, refine: int = 1) -> FourierGrid:
    # One automatic coverage enlargement when the sample leaves the window.
    grid = choose_grid(params, grid_m, _COVERAGE, refine)
    lo = grid.center - grid.m / 2.0 * grid.gamma_step
    hi = grid.center + grid.m / 2.0 * grid.gamma_step
    if data.min() < lo or data.max() > hi:
        grid = choose_grid(params, grid_m, 2.0 * _COVERAGE, refine)
        lo = grid.center - grid.m / 2.0 * grid.gamma_step
        hi = grid.center + grid.m / 2.0 * grid.gamma_step
        if data.min() < lo or data.max() > hi:
            raise SpanError(
                f"sample range [{data.min():.4g}, {data.max():.4g}] exceeds "
                f"the doubled table span [{lo:.4g}, {hi:.4g}]"
            )
    return grid


def _objective(
    params: GtsParams,
    data: np.ndarray,
    grid_m: int,
    order: int,
    grid: Optional[FourierGrid] = None,
):
    if grid is None:
        grid = _grid_for(params, data, grid_m)
    x, rows = spectral_tables(params, grid, order)
    vals = _interp4(x, rows, data)
    f = np.maximum(vals[0], _DENSITY_FLOOR)
    ll = float(np.sum(np.log(f)))
    if order == 0:
        return ll, None, None, grid
    u = vals[1:8] / f
    score = u.sum(axis=1)
    if order == 1:
        # score outer product: the search-phase curvature surrogate
        return ll, score, -(u @ u.T), grid
    hess = np.zeros((7, 7))
    r = 8
    for k in range(7):
        for j in range(k, 7):
            hkj = float(np.sum(vals[r] / f)) - float(np.dot(u[k], u[j]))
            hess[k, j] = hess[j, k] = hkj
            r += 1
    return ll, score, hess, grid


def loglik(returns, params: GtsParams, grid_m: int = 8192) -> float:
    """Sample log likelihood from the tabulated density.

    Densities are floored at 1e-300 before the log; observations outside the
    doubled table span raise :class:`~gtsfit.spectral.SpanError`.
    """
    data = np.asarray(returns, dtype=float)
    ll, _, _, _ = _objective(params, data, grid_m, order=0)
    return ll


def score(returns, params: GtsParams, grid_m: int = 8192) -> np.ndarray:
    """Gradient of the log likelihood in the canonical parameter order."""
    data = np.asarray(returns, dtype=float)
    _, g, _, _ = _objective(params, data, grid_m, order=1)
    return g


def observed_hessian(returns, params: GtsParams, grid_m: int = 8192) -> SymMatrix7:
    """Observed-information Hessian of the log likelihood."""
    data = np.asarray(returns, dtype=float)
    _, _, h, _ = _objective(params, data, grid_m, order=2)
    return SymMatrix7(h)


def default_init(returns) -> GtsParams:
    """Moment-matched starting point: sample mean drift, tail indices 1/2,
    tempering at 2/std, intensities splitting the variance evenly."""
    y = np.asarray(returns, dtype=float)
    s = float(y.std(ddof=1))
    b = 0.5
    lam = 2.0 / s
    a = s * s / 2.0 * lam ** (2.0 - b) / gamma_fn(2.0 - b)
    return GtsParams(
        mu=float(y.mean()),
        beta_plus=b,
        beta_minus=b,
        alpha_plus=a,
        alpha_minus=a,
        lambda_plus=lam,
        lambda_minus=lam,
    )


def _in_bounds(v: np.ndarray) -> bool:
    mu, bp, bm, ap, am, lp, lm = v
    if not all(math.isfinite(c) for c in v):
        return False
    for b in (bp, bm):
        if not BOUND_EPS < b < 1.0 - BOUND_EPS:
            return False
    return all(c > BOUND_EPS for c in (ap, am, lp, lm))


def fit(returns, init: Optional[GtsParams] = None, options: Optional[FitOptions] = None):
    """Newton ascent of the log likelihood.

    Returns ``(params, trace, status)``; status is ``CONVERGED`` when the
    score norm is at most ``grad_tol`` with a negative semidefinite Hessian,
    ``MAX_ITER`` otherwise.  Accepted steps never decrease the log
    likelihood beyond rounding: the search phase requires a strict increase,
    the frozen endgame tolerates ties at the 1e-11 relative level.
    """
    opts = options or FitOptions()
    data = np.asarray(returns, dtype=float)
    if data.size < 8:
        raise ValueError(f"need at least 8 observations to fit, got {data.size}")
    params = init if init is not None else default_init(data)
    params.validate()

    trace = FitTrace()
    v = params.to_vector()
    frozen: Optional[FourierGrid] = None
    damping_used = 0

    def evaluate(vec: np.ndarray, grid: Optional[FourierGrid], order: int = 2):
        # search phase runs on the gradient rows only; the frozen endgame
        # pays for the full second-derivative batch
        if order == 2 and grid is None:
            order = 1
        return _objective(GtsParams.from_vector(vec), data, opts.grid_m, order, grid)

    ll, g, hess, _ = evaluate(v, frozen)
    status = FitStatus.MAX_ITER
    for it in range(1, opts.max_iter + 1):
        gnorm = float(np.linalg.norm(g))
        if frozen is None and gnorm <= _FREEZE_GNORM:
            frozen = _grid_for(GtsParams.from_vector(v), data, opts.grid_m, _FREEZE_REFINE)
            ll, g, hess, _ = evaluate(v, frozen)
            gnorm = float(np.linalg.norm(g))
        if not math.isfinite(ll):
            raise NonFiniteLikelihoodError(f"log likelihood {ll} at iteration {it}", trace)
        eigs = eigen_sym(hess)
        emax = float(eigs[0])
        trace.append(
            TraceRow(
                iteration=it,
                params=GtsParams.from_vector(v),
                log_ml=ll,
                grad_norm=gnorm,
                max_eigenvalue=emax,
                damping=damping_used,
            )
        )
        if gnorm <= opts.grad_tol and emax <= 0.0:
            status = FitStatus.CONVERGED
            break
        if it == opts.max_iter:
            break

        hmod = hess
        if emax > -1e-10:
            shift = emax + max(1e-3 * float(np.abs(eigs).max()), 1e-3)
            hmod = hess - shift * np.eye(7)
        try:
            step = solve_sym(hmod, g)
        except SingularMatrixError as exc:
            raise SingularHessianError(f"newton system singular at iteration {it}: {exc}", trace) from exc
        cap = np.maximum(0.5, 0.5 * np.abs(v))

        def capped(direction: np.ndarray) -> np.ndarray:
            over = float((np.abs(direction) / cap).max())
            return direction / over if over > 1.0 else direction

        accepted = False
        # steepest ascent is the fallback when the quasi-Newton direction
        # cannot produce an uphill point at any damping level
        for cand in (capped(step), capped(-g)):
            for d in range(opts.step_damping + 1):
                vn = v - cand * 0.5**d
                if not _in_bounds(vn):
                    continue
                try:
                    lln, _, _, _ = evaluate(vn, frozen, order=0)
                except SpanError:
                    continue
                # near the optimum the true gain underflows the comparison,
                # so the frozen endgame tolerates ties within rounding
                floor = ll - 1e-11 * (1.0 + abs(ll)) if frozen is not None else ll
                if math.isfinite(lln) and lln > floor:
                    ll, g, hess, _ = evaluate(vn, frozen)
                    v = vn
                    damping_used = d
                    accepted = True
                    break
            if accepted:
                break
        if not accepted:
            if frozen is None:
                # the cheap search surface has run out of resolution;
                # switch to the refined grid and exact curvature
                frozen = _grid_for(GtsParams.from_vector(v), data, opts.grid_m, _FREEZE_REFINE)
                ll, g, hess, _ = evaluate(v, frozen)
                continue
            break

    return GtsParams.from_vector(v), trace, status


def sample_inverse_cdf(params: GtsParams, n: int, seed: int, grid_m: int = 8192) -> np.ndarray:
    """Seeded synthetic sample by inverse-CDF transform of uniform draws."""
    if n < 1:
        raise ValueError(f"sample size must be positive, got {n}")
    grid = choose_grid(params, grid_m)
    table = density_table(params, grid)
    u = np.random.default_rng(seed).random(n)
    return np.array([_quantile_clamped(table, ui) for ui in u])
