"""Tail risk measures: VaR by quantile inversion, AVaR by contour integration.

Quantiles are signed (losses are negative returns), so the lower tail holds
the loss quantiles.  VaR solves the cubic coefficients that
:func:`~gtsfit.spectral.cdf_at` evaluates, so it is that function's exact
inverse; the sampler runs the same solve on whole arrays of levels.  AVaR adds
the expected shortfall beyond VaR, evaluated as a Fourier integral of the
characteristic function along a contour shifted off the real axis by a fixed
offset: 0.45 lambda of the relevant tail's tempering rate.  By Cauchy's
theorem the integral does not depend on the offset anywhere inside the
tempering strip (Lewis 2001), so no offset is searched for; the
payoff-reconstruction error and its grid search :func:`optimize_q` remain as
a diagnostic of the damped quadrature, its payoff sum one fractional DFT per
strike and offset on spectral's Bluestein plan.

The contour sum is the trapezoid rule.  The integrand e^{izk + Psi(-z)}/z^2
is analytic in a strip of half-width d = min(q, lambda - q) around the
contour (the double pole at 0 lies q away, the branch point at +-i lambda
lies lambda - q away), and there the trapezoid sum at step h converges like
exp(-2 pi d / h) (Trefethen & Weideman, SIAM Review 2014).  The step is
2 pi d / ``_CONTOUR_NODES``: it sits at the offset's strip and not at the
strike.  This departs from the paper's composite 12-point Newton-Cotes rule,
which needed about 5 times the nodes for a 100 times larger error on the
AVaR ladders (``scripts/contour_rule_scan.py``).

With the offset fixed, the strikes of one tail share a contour, so
:func:`avar` sums a ladder's payoffs in one pass: one solve for its VaRs, one
radius search at the strike with the largest envelope factor e^{-+qk}, one
Psi(-z) on ``_contour``'s nodes, then each strike's own e^{izk}/z^2 in a
loop, so memory stays one contour whatever the ladder.  Nothing is cached.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import write_csv
from .gts_model import GtsParams, char_exponent
from .special_linalg import NumericError
from .spectral import _WINDOW_TOL, DensityTable, _bluestein, _composite_weights, _cubic_diffs, cdf_at


class TailSide(enum.Enum):
    LOWER_TAIL = "LowerTail"
    UPPER_TAIL = "UpperTail"


class PayoffSide(enum.Enum):
    CALL = "Call"
    PUT = "Put"


class EmptySampleError(ValueError):
    pass


class NoBracketError(NumericError, ValueError):
    """Polynomial has no sign change on [0, 1]."""


class BracketEdgeError(NumericError, ValueError):
    """CDF bracket sits too close to the table edge for the cubic stencil."""


class ContourError(NumericError, RuntimeError):
    """Contour quadrature failed its accuracy contract."""


class DivergentContourError(ContourError):
    """Integrand fails to decay along the shifted contour."""


@dataclass(frozen=True)
class RiskReport:
    level: float
    side: TailSide
    var: float
    avar: float
    q_used: float
    empirical_var: Optional[float] = None
    empirical_avar: Optional[float] = None


def _sorted_sample(sample) -> np.ndarray:
    arr = np.sort(np.asarray(sample, dtype=float))
    if arr.size == 0:
        raise EmptySampleError("empty sample")
    return arr


def _ceil_index(n: int, alpha: float) -> int:
    # ceil(n alpha) with protection against float fuzz at integer products
    return max(1, math.ceil(n * alpha - 1e-9))


def empirical_var(sample, alpha: float) -> float:
    """Order statistic x_(ceil(n alpha)), 1-indexed in the ascending sort.

    Side-free: ``alpha`` is the CDF level of the quantile, so pass the tail
    probability for the lower tail and the confidence level (one minus the
    tail probability) for the upper tail, as :func:`var` does.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    arr = _sorted_sample(sample)
    return float(arr[_ceil_index(arr.size, alpha) - 1])


def empirical_avar(sample, alpha: float, side: TailSide) -> float:
    """Empirical mean of the ``alpha`` tail (Acerbi & Tasche).

    ``alpha`` is the tail probability on both sides, as in :func:`avar`: the
    lower tail averages the bottom fraction ``alpha`` of the sample, the
    upper tail the top fraction ``alpha``.  The observation straddling the
    fraction boundary enters with its fractional weight.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    arr = _sorted_sample(sample)
    if side is TailSide.UPPER_TAIL:
        # the upper tail of x is the lower tail of -x
        arr = -arr[::-1]
    n = arr.size
    k = _ceil_index(n, alpha)
    head = arr[: k - 1].sum() / n
    mean = (head + (alpha - (k - 1) / n) * arr[k - 1]) / alpha
    return float(-mean if side is TailSide.UPPER_TAIL else mean)


def _poly4(b, y):
    return b[0] + y * (b[1] + y * (b[2] + y * (b[3] + y * b[4])))


def _quartic_roots(b: np.ndarray):
    """Roots on [0, 1] of the quartics whose coefficients are the rows of ``b``.

    ``b`` has shape (5, n), lowest degree first.  Returns ``(y, bracketed)``:
    ``y`` holds the roots and is NaN where ``bracketed`` is False, that is
    where the endpoint values agree in sign.  Every element runs the same
    Newton iteration bracketed with bisection, seeded at the linear estimate
    -b0/b1; an element leaves the loop once its residual is below
    1e-12 * max|b_i|, so the result does not depend on its neighbours.
    """
    tol = 1e-12 * np.maximum(np.abs(b).max(axis=0), 1e-300)
    v0 = b[0]
    v1 = _poly4(b, 1.0)
    at0 = np.abs(v0) <= tol
    at1 = ~at0 & (np.abs(v1) <= tol)
    bracketed = at0 | at1 | ~(v0 * v1 > 0.0)
    y_out = np.full(v0.shape, np.nan)
    y_out[at0] = 0.0
    y_out[at1] = 1.0
    act = np.flatnonzero(bracketed & ~at0 & ~at1)
    c, tol, neg0 = b[:, act], tol[act], v0[act] < 0.0
    lo, hi = np.zeros(act.size), np.ones(act.size)
    # min(max(-b0/b1, 0), 1) with Python's min/max tie rules, 0.5 when b1 = 0
    has_b1 = c[1] != 0.0
    y = -c[0] / np.where(has_b1, c[1], 1.0)
    y = np.where(0.0 > y, 0.0, y)
    y = np.where(y > 1.0, 1.0, y)
    y = np.where(has_b1, y, 0.5)
    for _ in range(100):
        py = _poly4(c, y)
        done = np.abs(py) <= tol
        if done.any():
            y_out[act[done]] = y[done]
            keep = ~done
            act, c, tol, neg0 = act[keep], c[:, keep], tol[keep], neg0[keep]
            y, py, lo, hi = y[keep], py[keep], lo[keep], hi[keep]
            if act.size == 0:
                break
        same = (py < 0.0) == neg0
        lo = np.where(same, y, lo)
        hi = np.where(same, hi, y)
        dp = c[1] + y * (2.0 * c[2] + y * (3.0 * c[3] + y * 4.0 * c[4]))
        mid = 0.5 * (lo + hi)
        has_dp = dp != 0.0
        yn = np.where(has_dp, y - py / np.where(has_dp, dp, 1.0), mid)
        y = np.where((lo < yn) & (yn < hi), yn, mid)
    y_out[act] = y
    return y_out, bracketed


def quartic_root_unit(b0: float, b1: float, b2: float, b3: float, b4: float) -> float:
    """Root of b0 + b1 y + b2 y^2 + b3 y^3 + b4 y^4 on [0, 1].

    Requires a sign change between the endpoints; solved by Newton iteration
    bracketed with bisection, seeded at the linear estimate -b0/b1.  The
    residual at the returned root is below 1e-12 * max|b_i|.  The scalar
    entry to the same loop the sampler runs on whole arrays.
    """
    y, bracketed = _quartic_roots(np.array([[b0], [b1], [b2], [b3], [b4]], dtype=float))
    if not bracketed[0]:
        raise NoBracketError("no sign change of the quartic on [0, 1]")
    return float(y[0])


def var(table: DensityTable, alpha: float) -> float:
    """Quantile of the tabulated distribution at level ``alpha``.

    The exact inverse of :func:`~gtsfit.spectral.cdf_at`: locates the CDF
    bracket F_i < alpha <= F_{i+1} and solves, on that cell, the 4-point cubic
    through F_{i-1}..F_{i+2} from the coefficients ``cdf_at`` evaluates; it
    changes sign there because it interpolates F_i and F_{i+1}.  A level
    within 1e-9 of 0 or 1, the tail mass the table's window may leave out
    (:func:`~gtsfit.spectral.choose_grid`), and brackets within two nodes of
    the table edge raise :class:`BracketEdgeError`.

    The table's CDF is 0 at the window's left edge, where the true CDF is
    the mass eps_L the window leaves out (about 2e-11 on the SP and BTC
    tables), so ``var(alpha)`` is the true quantile at alpha + eps_L, and at
    1 - t - eps_R for an upper level 1 - t (eps_R < 1e-12).  ``risk.csv``'s
    lower-tail 4 decimals hold down to levels of about 1e-6 (SP; 1e-5 for
    BTC's wider tails).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return float(_quantiles(table, [alpha])[0])


def _quantiles(table: DensityTable, levels: list) -> np.ndarray:
    # var at every level of a list in (0, 1): its two checks on each, one solve
    if bad := [lv for lv in levels if not _WINDOW_TOL <= lv <= 1.0 - _WINDOW_TOL]:
        raise BracketEdgeError(
            f"level {bad[0]!r} lies within {_WINDOW_TOL:g} of 0 or 1, beyond the tail mass the table's window resolves"
        )
    u, m = np.array(levels, dtype=float), table.F.size
    i = np.searchsorted(table.F, u, side="left") - 1
    if (edge := (i < 2) | (i > m - 4)).any():
        raise BracketEdgeError(f"quantile bracket {i[edge][0]} at table edge (m={m})")
    return _quantile_clamped(table, u)


def _quantile_clamped(table: DensityTable, u: np.ndarray) -> np.ndarray:
    # var's cubic solved on whole arrays of levels (b4 = 0).  The bracket
    # F_i < u <= F_{i+1} is clamped into the stencil's cells 1 <= i <= m - 3
    # instead of raising, and a level the clamped cell cannot bracket takes the
    # cell's nearer node, so every draw lies on the table.
    big_f = table.F
    i = np.clip(np.searchsorted(big_f, u, side="left") - 1, 1, big_f.size - 3)
    y, bracketed = _quartic_roots(np.stack((big_f[i] - u, *_cubic_diffs(big_f, i), np.zeros(i.shape))))
    y = np.where(bracketed, y, u > big_f[i])
    return table.x[i] + y * (table.x[i + 1] - table.x[i])


# the contour's trapezoid step is 2 pi d / _CONTOUR_NODES on a strip of
# half-width d, so the sum's error falls like exp(-_CONTOUR_NODES); 40 puts
# the AVaR ladders within 5e-13 of a 6x-node sum (scripts/contour_rule_scan.py)
_CONTOUR_NODES = 40


def _contour(params: GtsParams, offset: float, radius: float, n: int):
    # Nodes z = t + i offset, t at n + 1 equispaced points on [-radius, radius],
    # with Psi(-z) and the trapezoid weights: shared by every strike of a
    # call.  t = h (j - n/2) is exact at 0, so the nodes near the pole, which
    # carry the sum, round relative to t; rounding relative to the radius
    # puts a 5e-12 floor on the ladder payoffs
    h = 2.0 * radius / n
    z = h * (np.arange(n + 1) - 0.5 * n) + 1j * offset
    wt = np.ones(n + 1)
    wt[0] = wt[-1] = 0.5
    return z, char_exponent(params, -z), wt


def tail_payoff_fourier(params: GtsParams, k, q: float, side: PayoffSide):
    """Expected one-sided payoff by contour integration.

    Call side: E[(X-k)^+] along Im z = +q with q inside (0, lambda_plus);
    put side: E[(k-X)^+] along Im z = -q with q inside (0, lambda_minus).
    Both are nonnegative and satisfy call - put = E[X] - k.  The integrand
    is -e^{izk + Psi(-z)} / z^2 on either contour; the half width R doubles
    until the envelope at +-R is below 1e-14, and the trapezoid step is
    2 pi min(q, lambda - q) / ``_CONTOUR_NODES``, set by the integrand's
    strip of analyticity (module docstring).  An array of strikes returns
    an array, summed on one contour whose R serves the strike with the
    largest envelope factor e^{-+qk}: the lowest call or the highest put.
    """
    strikes = np.asarray(k, dtype=float)
    if not np.isfinite(strikes).all():
        raise ValueError(f"strike k must be finite, got {strikes[~np.isfinite(strikes)].flat[0]}")
    sgn = 1.0 if side is PayoffSide.CALL else -1.0
    lam = params.lambda_plus if side is PayoffSide.CALL else params.lambda_minus
    if not 0.0 < q < lam:
        raise DivergentContourError(
            f"offset q={q} outside the admissible strip (0, {lam}) for {side.value}"
        )
    k_env = float(strikes.min() if side is PayoffSide.CALL else strikes.max())

    def envelope(t: float) -> float:
        z = t + 1j * sgn * q
        re_psi = char_exponent(params, -z).real
        return math.exp(-sgn * q * k_env + re_psi) / (abs(z) ** 2 * 2.0 * math.pi)

    radius = 50.0
    while (env := max(envelope(radius), envelope(-radius))) >= 1e-14:
        if radius * 2.0 > 1e5:
            raise DivergentContourError(
                f"contour integrand failed to decay below 1e-14 within R = 1e5 (q={q}): "
                f"envelope {env:.3e} at R = {radius:g}"
            )
        radius *= 2.0
    n = math.ceil(radius * _CONTOUR_NODES / (math.pi * min(q, lam - q)))
    h = 2.0 * radius / n
    z, psi, wt = _contour(params, sgn * q, radius, n)
    out = []
    for kk in strikes.flat:
        vals = np.exp(1j * z * kk + psi) / (z * z)
        # einsum, not @: OpenBLAS's dot would change the sum's rounding
        acc = -h * np.einsum("q,q->", wt, vals) / (2.0 * math.pi)
        if abs(acc.imag) > (limit := 1e-7 * (1.0 + abs(acc.real))):
            raise ContourError(
                f"imaginary residue {acc.imag:.3e} in contour quadrature exceeds 1e-7 (1 + |real|) = {limit:.3e}"
            )
        out.append(float(acc.real))
    return np.reshape(out, strikes.shape) if strikes.ndim else out[0]


_ER_STEP = 1.0 / 150.0
_ER_RADIUS = 100.0
_ER_WINDOW = 15.0
_ER_LATTICE = 0.1


def _reconstruction_errors(k: float, q_values: np.ndarray) -> np.ndarray:
    # With t_j = -R + h j and x_l = L (j_lo + l), sum_j kern_j e^{i x_l t_j}
    # is e^{-i x_l R} times the fractional DFT of the kernel row with
    # delta = -L h/(2 pi) and shift j_lo: one plan per strike.
    if not math.isfinite(k):
        raise ValueError(f"strike k must be finite, got {k}")
    if not (np.isfinite(q_values).all() and q_values.all()):
        bad = q_values[~np.isfinite(q_values) | (q_values == 0.0)][0]
        raise ValueError(f"offset q must be finite and nonzero, got {bad}")
    nodes = int(round(2.0 * _ER_RADIUS / _ER_STEP)) + 1
    t = -_ER_RADIUS + _ER_STEP * np.arange(nodes)
    base = _composite_weights((nodes - 1) // 12) * (-np.exp(-1j * t * k))
    kernels = base[None, :] / ((t[None, :] + 1j * q_values[:, None]) ** 2)
    j_lo = math.ceil((k - _ER_WINDOW) / _ER_LATTICE)
    j_hi = math.floor((k + _ER_WINDOW) / _ER_LATTICE)
    xs = _ER_LATTICE * np.arange(j_lo, j_hi + 1)
    plan = _bluestein(nodes, xs.size, -_ER_LATTICE * _ER_STEP / (2.0 * math.pi), j_lo)
    raw = (plan(kernels) * np.exp(-1j * _ER_RADIUS * xs)).real.T
    recon = np.exp(-np.outer(xs - k, q_values)) * raw * (_ER_STEP / (2.0 * math.pi))
    return np.sqrt(np.mean((np.maximum(xs - k, 0.0)[:, None] - recon) ** 2, axis=0))


def reconstruction_error(params: GtsParams, k: float, q: float) -> float:
    """RMS error of the Fourier payoff reconstruction at strike ``k``.

    The call payoff (x-k)^+ is rebuilt from its damped transform
    -e^{-itk}/(t+iq)^2 on a fixed quadrature grid and compared against the
    exact payoff on a lattice window around the kink; the root mean square
    difference measures how well the offset ``q`` conditions the quadrature.
    The distribution itself does not enter, so the error is a property of the
    strike and offset alone.
    """
    return float(_reconstruction_errors(k, np.array([float(q)]))[0])


def default_q_grid() -> np.ndarray:
    """40 log-spaced offset magnitudes in [1e-3, 0.5], both signs."""
    mags = np.logspace(math.log10(1e-3), math.log10(0.5), 40)
    return np.concatenate((-mags[::-1], mags))


def optimize_q(params: GtsParams, k: float, q_grid=None) -> float:
    """Grid-search the contour offset minimizing the reconstruction error."""
    grid = default_q_grid() if q_grid is None else np.asarray(q_grid, dtype=float)
    return float(grid[int(np.argmin(_reconstruction_errors(k, grid)))])


# share of the tail's tempering rate lambda used as the contour offset: the
# widest pole 1/z^2 (fewest quadrature nodes) with margin to the strip edge
_OFFSET_SHARE = 0.45


def avar(params: GtsParams, table: DensityTable, alpha, side: TailSide):
    """Average value at risk at tail probability ``alpha``.

    Lower tail: AVaR = VaR_alpha - E[(VaR - X)^+] / alpha, the mean of the
    worst lower fraction, with the put payoff on the contour at offset
    0.45 lambda_minus.  Upper tail: the quantile level is the confidence
    1 - alpha and AVaR = VaR + E[(X - VaR)^+] / alpha, with the call payoff
    at offset 0.45 lambda_plus.  The payoff is the same for every offset in
    the tail's strip (0, lambda); ``q_used`` records the offset signed by the
    contour side (negative for the lower tail).  A sequence of levels returns
    a list of reports, their payoffs summed on one contour.
    """
    alphas = list(alpha) if np.ndim(alpha) else [alpha]
    if bad := [a for a in alphas if not 0.0 < a < 0.5]:
        raise ValueError(f"tail probability must lie in (0, 0.5), got {bad[0]}")
    if side is TailSide.LOWER_TAIL:
        levels, lam, payoff_side, sign = alphas, params.lambda_minus, PayoffSide.PUT, -1.0
    else:
        levels, lam, payoff_side, sign = [1.0 - a for a in alphas], params.lambda_plus, PayoffSide.CALL, 1.0
    vs = _quantiles(table, levels).tolist()
    q = _OFFSET_SHARE * lam
    payoffs = tail_payoff_fourier(params, np.array(vs), q, payoff_side).tolist()
    reports = [RiskReport(lv, side, v, v + sign * p / a, sign * q) for lv, v, p, a in zip(levels, vs, payoffs, alphas)]
    return reports if np.ndim(alpha) else reports[0]


def prob_interval(table: DensityTable, lo: float, hi: float) -> float:
    """P(lo < X <= hi) from the tabulated CDF, the endpoints clamped into its span."""
    if not lo < hi:
        raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
    lo, hi = (min(max(v, table.x[0]), table.x[-1]) for v in (lo, hi))
    return max(0.0, cdf_at(table, hi) - cdf_at(table, lo))


def write_risk_csv(reports, path) -> None:
    """One row per report: side, level, empirical and theoretical columns.

    Values are percent units at 4 decimal places; missing empirical entries
    stay blank.
    """

    def cells(vals) -> list:
        return ["" if v is None else f"{v:.4f}" for v in vals]

    write_csv(
        path,
        "side,level,empirical_var,theoretical_var,empirical_avar,theoretical_avar",
        "%s,%.4f,%s,%.4f,%s,%.4f",
        [
            [r.side.value for r in reports],
            [r.level for r in reports],
            cells(r.empirical_var for r in reports),
            [r.var for r in reports],
            cells(r.empirical_avar for r in reports),
            [r.avar for r in reports],
        ],
    )
