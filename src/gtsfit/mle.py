"""Maximum likelihood fitting through the spectral density tables.

The log likelihood and its score are read off one batch of inverse-transform
tables, the density row and the 7 parameter gradient rows, interpolated at
the data points with spectral's 4-point cubic.  With f_i the density at
observation i,

    score_j   = sum_i  df_j(x_i) / f_i
    hessian_kj = sum_i [ d2f_kj(x_i) / f_i - df_k(x_i) df_j(x_i) / f_i^2 ]

The second-derivative sum is linear in the characteristic-function row
r_kj = F (g_k g_j + h_kj) that the inversion and the stencil map to
d2f_kj(x_i).  So it equals Re sum_q r_kj(xi_q) d_q, where d is the transpose
of that map applied to 1/f: the stencil weights scattered onto the output
nodes, then one pull-back transform to the xi >= 0 nodes.  The 28
second-derivative rows are never built or inverted; the Hessian is one
contraction of F d with the analytic derivatives g and h of the exponent.
F and g are shared with the inversion: the objective evaluates them once on
the xi >= 0 half, with the power terms from which h is built, one (beta,
alpha, lambda) block per jump side (h has no mu row and no cross-side
terms), and hands the same arrays to the order-1 table and the contraction.

Every evaluation inverts only the output nodes the sample reads.  The grid
of ``_grid_for`` carries an output-node range: the nodes of the 4-point
stencils of the sample's extremes, plus 2 nodes either side, so each data
point's stencil is the one the full table gives it.  That is about a
quarter of the window, which is sized for the CDF tables, so every transform
of a fit runs on about a third of the full window's padded FFT length (the
frequency half, h+1 nodes, is about a twelfth of the m+1 output nodes);
the log likelihood agrees with the full-window one to rounding (1e-14
relative).

The optimizer is one damped Newton ascent on the exact observed Hessian.
The transform grid is chosen once at the starting point and is replaced only
when the grid chosen at an accepted point has more output or frequency
nodes; the accepted point is then evaluated again on the new grid, so the
log likelihood comparison restarts there.  The Hessian is shifted past its
largest eigenvalue when it is not safely negative definite, steps are
capped relative to the parameter scale, and a trial point is accepted when
it passes ``GtsParams.validate`` and does not lower the log likelihood
beyond rounding (1e-11 relative); line-search probes evaluate only the
likelihood row on the current grid.
The convergence certificate (score norm and largest eigenvalue) therefore
always comes from the true second derivatives.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import DegenerateSampleError, write_csv
from .gts_model import _SIDE_INDEX, DomainError, GtsParams, _char_terms, _side_hess
from .risk import _quantile_clamped
from .special_linalg import NumericError, SingularMatrixError, SymMatrix7, eigen_sym, gamma_fn, solve_sym
from .spectral import DEFAULT_GRID_M, FourierGrid, GridError, SpanError, _half_xi, _interp4, _output_points
from .spectral import _pull_back, _stencil, choose_grid, density_table, spectral_tables

_DENSITY_FLOOR = 1e-300
_COVERAGE = 40.0
_SAMPLE_BLOCK = 8192  # levels per quantile call in sample_inverse_cdf
_STEP_DAMPING = 50  # deepest damping level d of a trial step, scaled by 0.5**d


class FitStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITER = "MaxIter"


class _FitError(NumericError, RuntimeError):
    """A fit stopped on a numeric failure; carries the trace so far."""

    def __init__(self, message: str, trace: "FitTrace") -> None:
        super().__init__(message)
        self.trace = trace


class SingularHessianError(_FitError):
    """Newton system could not be solved."""


class NonFiniteLikelihoodError(_FitError):
    """Log likelihood evaluated to a non-finite value."""


@dataclass(frozen=True)
class FitOptions:
    max_iter: int = 100
    grad_tol: float = 1e-6
    grid_m: int = DEFAULT_GRID_M


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
    rows = trace.rows
    vals = [(*r.params.to_vector(), r.log_ml, r.grad_norm, r.max_eigenvalue) for r in rows]
    cols = [[r.iteration for r in rows], *zip(*vals)]
    write_csv(path, _TRACE_HEADER, "%d" + ",%.17g" * 10, cols)


def _scatter4(x: np.ndarray, pts: np.ndarray, vals: np.ndarray) -> np.ndarray:
    # transpose of _interp4 for one row: c with c @ row == vals @ _interp4(x, row, pts)
    idx, weights = _stencil(x, pts)
    return sum(np.bincount(idx + o, w * vals, x.size) for o, w in zip((-1, 0, 1, 2), weights))


def _finite(data: np.ndarray) -> np.ndarray:
    # the sample enters the likelihood (_grid_for) and the moment-matched
    # start here; a non-finite observation would turn every density or
    # moment into NaN, so it is refused by index before any arithmetic
    bad = np.flatnonzero(~np.isfinite(data))
    if bad.size:
        raise ValueError(f"observation {bad[0]} is {data[bad[0]]}: the sample must be finite")
    return data


def _grid_for(params: GtsParams, data: np.ndarray, grid_m: int) -> FourierGrid:
    # One automatic coverage enlargement when the sample leaves the window.
    # The grid carries the output nodes the sample reads: the 4 stencil
    # nodes of its extremes on the full table, plus 2 nodes either side, so
    # rounding in the ranged table's first node and step can neither move
    # a stencil out of the range nor clip it where the full table does not.
    # A range that reaches both table edges is the full grid.
    _finite(data)
    ends = np.array([data.min(), data.max()])
    for coverage in (_COVERAGE, 2.0 * _COVERAGE):
        grid = choose_grid(params, grid_m, coverage)
        lo = grid.center - grid.m / 2.0 * grid.gamma_step
        hi = grid.center + grid.m / 2.0 * grid.gamma_step
        if not (ends[0] < lo or ends[1] > hi):
            (i_lo, i_hi), _ = _stencil(_output_points(grid), ends)
            return dataclasses.replace(grid, k_lo=max(i_lo - 3, 0), k_hi=min(i_hi + 5, grid.m + 1))
    raise SpanError(
        f"sample range [{ends[0]:.4g}, {ends[1]:.4g}] exceeds "
        f"the doubled table span [{lo:.4g}, {hi:.4g}]"
    )


def _objective(params: GtsParams, data: np.ndarray, grid: FourierGrid, order: int):
    # (log L, score, Hessian) at params, None beyond order; from order 1 on,
    # F, dPsi and the side parts are evaluated once and serve both the
    # order-1 table and the Hessian contraction
    if order == 0:
        x, rows = spectral_tables(params, grid, 0)
    else:
        terms = _char_terms(params, _half_xi(grid), True)
        x, rows = spectral_tables(params, grid, 1, terms=terms)
    vals = _interp4(x, rows, data)
    f = np.maximum(vals[0], _DENSITY_FLOOR)
    ll = float(np.sum(np.log(f)))
    if order == 0:
        return ll, None, None
    u = vals[1:8] / f
    score = u.sum(axis=1)
    if order == 1:
        return ll, score, None
    # adjoint Hessian (module docstring): Re sum_q F (g_k g_j + h_kj) d_q, xi >= 0,
    # with the F and g the order-1 inversion above transformed
    d = _pull_back(_scatter4(x, data, 1.0 / f), grid)
    f, g, s = terms
    fd = f * d
    curv = (g * fd) @ g.T
    for key, ix in _SIDE_INDEX.items():
        curv[np.ix_(ix, ix)] += np.einsum("kjq,q->kj", _side_hess(s[key]), fd)
    return ll, score, curv.real - u @ u.T


def loglik(returns, params: GtsParams, grid_m: int = DEFAULT_GRID_M) -> float:
    """Sample log likelihood from the tabulated density.

    Densities are floored at 1e-300 before the log; observations outside the
    doubled table span raise :class:`~gtsfit.spectral.SpanError`.
    """
    data = np.asarray(returns, dtype=float)
    return _objective(params, data, _grid_for(params, data, grid_m), 0)[0]


def score(returns, params: GtsParams, grid_m: int = DEFAULT_GRID_M) -> np.ndarray:
    """Gradient of the log likelihood in the canonical parameter order."""
    data = np.asarray(returns, dtype=float)
    return _objective(params, data, _grid_for(params, data, grid_m), 1)[1]


def observed_hessian(returns, params: GtsParams, grid_m: int = DEFAULT_GRID_M) -> SymMatrix7:
    """Observed-information Hessian of the log likelihood."""
    data = np.asarray(returns, dtype=float)
    return SymMatrix7(_objective(params, data, _grid_for(params, data, grid_m), 2)[2])


def default_init(returns) -> GtsParams:
    """Moment-matched starting point: sample mean drift, tail indices 1/2,
    tempering at 2/std, intensities splitting the variance evenly."""
    y = _finite(np.asarray(returns, dtype=float))
    s = float(y.std(ddof=1))
    if not s > 0.0:
        raise DegenerateSampleError(f"sample standard deviation {s:.6g}: a fit needs a positive one")
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


def fit(returns, init: Optional[GtsParams] = None, options: Optional[FitOptions] = None):
    """Newton ascent of the log likelihood.

    Returns ``(params, trace, status)``; status is ``CONVERGED`` when the
    score norm is at most ``grad_tol`` with a negative semidefinite Hessian,
    ``MAX_ITER`` when the iteration cap is reached or no trial point along
    the Newton or steepest-ascent direction is acceptable.  Accepted steps
    never decrease the log likelihood by more than 1e-11 relative, the
    rounding level at which the true gain near the optimum is lost.
    """
    opts = options or FitOptions()
    data = np.asarray(returns, dtype=float)
    if data.size < 8:
        raise ValueError(f"need at least 8 observations to fit, got {data.size}")
    params = init if init is not None else default_init(data)
    params.validate()

    trace = FitTrace()
    v = params.to_vector()
    try:
        grid = _grid_for(params, data, opts.grid_m)
    except GridError as exc:
        scale = f"n = {data.size}, standard deviation {data.std(ddof=1):.3e}"
        raise GridError(f"starting grid for a sample of {scale}: {exc}") from exc
    damping_used = 0
    ll, g, hess = _objective(params, data, grid, 2)
    status = FitStatus.MAX_ITER
    for it in range(1, opts.max_iter + 1):
        if not math.isfinite(ll):
            raise NonFiniteLikelihoodError(f"log likelihood {ll} at iteration {it}", trace)
        gnorm = float(np.linalg.norm(g))
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

        # near the optimum the true gain underflows the comparison, so ties
        # within rounding are accepted; steepest ascent is the fallback when
        # the Newton direction finds no acceptable point at any damping level
        floor = ll - 1e-11 * (1.0 + abs(ll))
        for cand, d in itertools.product((capped(step), capped(-g)), range(_STEP_DAMPING + 1)):
            vn = v - cand * 0.5**d
            try:
                trial = GtsParams.from_vector(vn)
                trial.validate()
                lln = _objective(trial, data, grid, 0)[0]
            except (DomainError, SpanError):
                continue
            if math.isfinite(lln) and lln > floor:
                break
        else:
            break
        v, params, damping_used = vn, trial, d
        wider = _grid_for(params, data, opts.grid_m)
        if wider.m > grid.m or wider.h > grid.h:
            grid = wider
        ll, g, hess = _objective(params, data, grid, 2)

    return GtsParams.from_vector(v), trace, status


def sample_inverse_cdf(params: GtsParams, n: int, seed: int, grid_m: int = DEFAULT_GRID_M) -> np.ndarray:
    """Seeded synthetic sample by inverse-CDF transform of uniform draws.

    The n uniform levels come from one ``default_rng(seed)`` call.  They are
    inverted by the cubic solve behind :func:`~gtsfit.risk.var`,
    :func:`~gtsfit.risk._quantile_clamped`, a block of ``_SAMPLE_BLOCK``
    levels at a time, each block of draws overwriting its levels, so the
    solver's workspace stays O(block) beside the output.
    """
    if n < 1:
        raise ValueError(f"sample size must be positive, got {n}")
    grid = choose_grid(params, grid_m)
    table = density_table(params, grid)
    u = np.random.default_rng(seed).random(n)
    for lo in range(0, n, _SAMPLE_BLOCK):
        u[lo : lo + _SAMPLE_BLOCK] = _quantile_clamped(table, u[lo : lo + _SAMPLE_BLOCK])
    return u
