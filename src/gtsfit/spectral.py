"""Density recovery from the characteristic function on fractional FFT grids.

The density f and its parameter derivatives are obtained by discretizing the
inverse Fourier integral with the trapezoid rule in frequency and evaluating
the resulting sums with fractional FFTs.  Frequency spacing ``beta_step`` and
output spacing ``gamma_step`` are decoupled through the transform parameter
``delta = beta_step * gamma_step / (2 pi)``, so the output window can track
the distribution's own scale instead of the FFT reciprocal grid, and the
frequency side has its own node count: 2h+1 nodes xi_q = (q - h) a/(2h)
against the m+1 output nodes.

The trapezoid rule on the frequency side departs from the paper, which names
the composite 12-point Newton-Cotes rule.  On a characteristic function that
is analytic in a strip and below 1e-12 at +-a/2 the trapezoid sum converges
geometrically, and its only aliased images of the density sit a whole
quadrature period 4 pi h / a away; the Newton-Cotes weights repeat every 12
nodes and put images at 1/12 of that period, so they need up to 12 times the
frequency nodes for the same error (``scripts/xi_rule_scan.py`` measures
both rules against a reference sum and against ``bench/oracle.py``).

This module defines the package's two remaining discretisation rules once
each.  The composite Newton-Cotes weights (``_composite_weights``,
``_partial_panel_weights``) serve the CDF's panel sums on the output nodes
and ``risk``'s payoff-reconstruction diagnostic; the AVaR contour sums with
the trapezoid rule, as the frequency side does.  The 4-point cubic (``_CUBIC``)
interpolates the fitter's rows (``_interp4``); ``cdf_at`` evaluates and
``risk``'s quantile solve (behind ``var`` and the sampler) solves one set of
its coefficients (``_cubic_diffs``), so VaR and the draws invert the CDF
exactly.

The sums are evaluated in one shot.  Every row is Hermitian (F(-xi) =
conj F(xi), for the derivative rows too), so the characteristic function
and its derivatives are evaluated on the h+1 samples with xi >= 0 only.
The weights are folded into those samples, one fractional FFT per row,
padded to a 5-smooth length, takes them and the result is twice its real
part.  ``_char_rows`` mirrors the half onto the whole symmetric grid for the
tests, and ``_invert_rows`` checks the symmetry of rows a caller supplies
before it transforms their xi >= 0 half.  A direct evaluation of the
trapezoid sum is the cross-check in the tests.
The exact transpose of that map, the pull-back, takes weights on the output
points back to the xi >= 0 samples by running the inversion's own plan
transposed; the fitter's observed Hessian uses it instead of inverting
second-derivative rows.

Because the fractional FFT decouples the output grid from the frequency
grid, a :class:`FourierGrid` may carry an output-node range
``[k_lo, k_hi)``: the inversion then computes only those nodes of the m+1,
with the plan ``(h+1, k_hi-k_lo, -delta, k_lo - m/2)``, and the
pull-back, that plan transposed, takes its weights on those nodes only.
The fitter's grid carries the range its sample reads; ``choose_grid``
never sets one, and a range covering all m+1 nodes is stored as the
default, so full-grid callers build the same plan as without ranges.
``density_table`` refuses a ranged grid.

Grid selection sizes the output window from the slower tempering rate,
doubles the frequency span until the characteristic function tail is
negligible, then sizes the frequency count h from the distance the aliased
images of the density, damped at the tempering rate, must keep from the
output window: h puts the trapezoid period that far out with the margin
``_XI_MARGIN``.  The output count m does not move a node's value; it sets
the step at which the 4-point cubic behind ``cdf_at``, ``var``, the sampler
and ``_interp4`` reads the nodes, and m keeps that cubic's error on the CDF
below ``_CDF_TOL`` by an a-priori bound.

Work that depends only on the grid lives on the frozen :class:`FourierGrid`
as two ``functools.cached_property`` members, built on first use and freed
with the grid: the folded half-spectrum weights (``half_weights``) and the
fractional-FFT plan (``inversion_plan``), which the inversion applies
forward and the pull-back transposed.  A fit's iterations and line-search
probes reuse one grid object, so each is built once per grid.  Their
arrays are read-only.
``_bluestein`` keeps no plan, and a plan allocates the padded buffer it
transforms rows in on each call.  The only ``lru_cache`` members here are
the argument-free constant tables, and the package caches nothing under a
value anywhere.  A caller that needs the characteristic-function
terms again after an inversion (the fitter's Hessian) evaluates them itself
and hands them to :func:`spectral_tables`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .data import write_csv
from .gts_model import GtsParams, _char_terms, _psi_hess, char_fn, cumulants
from .special_linalg import NumericError

_TAIL_TOL = 1e-12
_IMG_TOL = 1e-11
_MASS_TOL = 1e-4
_WINDOW_TOL = 1e-9
_CDF_TOL = 1e-10  # the 4-point cubic's error on the CDF, bounded a priori
_DENSITY_TOL = 1e-10  # the most negative density, and the exponent's rounding on f
_NODE_CAP = 2**21  # 5x the largest regular grid (BTC, refine 2, coverage 80)
# the trapezoid period over the distance the images must clear: the SP and
# BTC order-1 tables are 5e-13 and 2e-15 off a sum on 3x the nodes at 1.25,
# 1.2e-12 and 2.5e-12 at 1.0, 2e-8 and 4e-8 at 0.8 (scripts/xi_rule_scan.py)
_XI_MARGIN = 1.25
DEFAULT_GRID_M = 8196  # the library's and the command line's default transform size


class GridError(NumericError, RuntimeError):
    """Grid construction or inversion failed its accuracy contract."""


class SpanError(NumericError, ValueError):
    """Requested point lies outside the table's span."""


def _read_only(*arrays):
    # arrays handed out by a cache are shared by every caller
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=1)
def _nc_exact():
    # Closed Newton-Cotes weights on a 12-subinterval panel and the partial
    # integrals int_0^r L_j(t) dt, both exact over the rationals;
    # partial[r][j] = int_0^r L_j(t) dt, full weight = partial[12].  The
    # cardinal polynomial L_j is P(t) / (t - j) / prod_{i != j} (j - i) with
    # P(t) = prod_i (t - i): one synthetic division per node, integrated
    # termwise in integers over the common denominator lcm(1..13).
    poly = [1]  # ascending coefficients of P
    for i in range(13):
        poly = [b - i * a for a, b in zip(poly + [0], [0] + poly)]
    lcm = math.lcm(*range(1, 14))
    # antiderivative of t^p at r, times lcm
    anti = [[lcm // (p + 1) * r ** (p + 1) for p in range(13)] for r in range(13)]
    partial = [[Fraction(0)] * 13 for _ in range(13)]
    for j in range(13):
        quot, carry = [0] * 13, 0
        for p in range(13, 0, -1):
            carry = poly[p] + j * carry
            quot[p - 1] = carry
        den = lcm * math.prod(j - i for i in range(13) if i != j)
        for r in range(1, 13):
            partial[r][j] = Fraction(sum(c * t for c, t in zip(quot, anti[r])), den)
    return list(partial[12]), partial


def newton_cotes_weights() -> np.ndarray:
    """The 13 closed Newton-Cotes weights for one 12-subinterval panel."""
    full, _ = _nc_exact()
    return np.array([float(w) for w in full])


@lru_cache(maxsize=1)
def _partial_panel_weights() -> np.ndarray:
    # row r: weights reproducing int_0^r of the panel interpolant
    _, partial = _nc_exact()
    return _read_only(np.array([[float(w) for w in row] for row in partial]))[0]


def _composite_weights(panels: int) -> np.ndarray:
    # Composite Newton-Cotes weights on 12 * panels + 1 unit-spaced nodes:
    # interior panel joints carry 2 W[0], the two ends W[0] and W[12]
    w = newton_cotes_weights()
    wt = np.tile(np.concatenate(([2.0 * w[0]], w[1:12])), panels + 1)[: 12 * panels + 1]
    wt[0], wt[-1] = w[0], w[12]
    return wt


@dataclass(frozen=True)
class FourierGrid:
    """Transform geometry: an output window of width ``span`` with m = 12 n
    steps and node m/2 on ``center``, and a frequency span ``a`` sampled at
    the 2h+1 nodes xi_q = (q - h) a/(2h), summed by the trapezoid rule.

    The inversion computes the output nodes ``k_lo <= k < k_hi`` of the m+1;
    ``k_hi=None`` runs to node m, and a ``k_hi`` of m+1 is stored as None,
    so a range covering every node is the default grid.  ``a``, ``span``,
    ``center`` and the derived ``delta`` must be finite; ``n`` and ``h`` are
    integers of at least 1."""

    a: float
    n: int
    span: float
    center: float
    h: int
    k_lo: int = 0
    k_hi: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", operator.index(self.n))
        object.__setattr__(self, "h", operator.index(self.h))
        for name in ("a", "span", "center"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"grid field {name} must be finite, got {value}")
        if not (self.a > 0 and self.n >= 1 and self.h >= 1 and self.span > 0):
            raise ValueError(
                f"need a > 0, n >= 1, h >= 1 and span > 0, got {self.a}, {self.n}, {self.h}, {self.span}"
            )
        if not math.isfinite(self.delta):
            raise ValueError(f"grid fields a={self.a} and span={self.span} overflow the transform step delta")
        lo = operator.index(self.k_lo)
        hi = self.m + 1 if self.k_hi is None else operator.index(self.k_hi)
        if not 0 <= lo < hi <= self.m + 1:
            raise ValueError(f"output-node range [{lo}, {hi}) not inside [0, {self.m + 1})")
        object.__setattr__(self, "k_lo", lo)
        object.__setattr__(self, "k_hi", None if hi == self.m + 1 else hi)

    @property
    def nodes(self) -> range:
        """The output nodes the inversion computes."""
        return range(self.k_lo, self.m + 1 if self.k_hi is None else self.k_hi)

    @property
    def m(self) -> int:
        return 12 * self.n

    @property
    def beta_step(self) -> float:
        return self.a / (2 * self.h)

    @property
    def gamma_step(self) -> float:
        return self.span / self.m

    @property
    def delta(self) -> float:
        return self.beta_step * self.gamma_step / (2.0 * math.pi)

    @cached_property
    def half_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Trapezoid weights W_q on xi_q = q beta_step, q = 0..h: 1/2 at xi = 0
        (whose real part is doubled with the rest) and at xi = a/2, 1 between;
        and the factor 2 beta_step/(2 pi) W_q exp(i center xi_q)."""
        wq = np.ones(self.h + 1)
        wq[0] = wq[-1] = 0.5
        scale = self.beta_step / (2.0 * math.pi)
        return _read_only(wq, 2.0 * scale * wq * np.exp(1j * self.center * self.beta_step * np.arange(self.h + 1)))

    @cached_property
    def inversion_plan(self) -> _BluesteinPlan:
        """Fractional DFT from the xi >= 0 half onto the output nodes."""
        return _bluestein(self.h + 1, len(self.nodes), -self.delta, self.k_lo - self.m // 2)


@dataclass(frozen=True)
class DensityTable:
    """Density, CDF and optional parameter-gradient rows on a uniform grid."""

    x: np.ndarray
    f: np.ndarray
    F: np.ndarray
    df: np.ndarray | None
    params: GtsParams
    grid: FourierGrid


def _fast_len(n: int) -> int:
    # smallest 5-smooth integer >= n (up to 2**39), the sizes pocketfft does fastest
    n = operator.index(n)
    odd = (3**i * 5**j for i in range(26) for j in range(18))
    return min(c << (-(-n // c) - 1).bit_length() for c in odd)


def _chirp(delta: float, t: np.ndarray) -> np.ndarray:
    # exp(i pi delta t^2), with delta t^2 reduced modulo 2 in long double:
    # in double the phase would carry an error of delta t^2 * 1e-16, which
    # reaches 1e-12 on the largest grids
    ld = np.longdouble
    return np.exp(1j * np.pi * ((ld(delta) * t.astype(ld) ** 2) % 2).astype(float))


@dataclass(frozen=True, eq=False)
class _BluesteinPlan:
    """Chirps and kernel FFT of one fractional DFT G; calling it computes G x
    and :meth:`transpose` computes G^T y, row by row in a padded buffer
    allocated per call, into a fresh array."""

    size: int
    pre: np.ndarray
    kern: np.ndarray
    post: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # post * IFFT(kern * FFT(pad(pre * x)))[:n_out]
        return self._run(x, self.pre, np.fft.fft, np.fft.ifft, self.post)

    def transpose(self, y: np.ndarray) -> np.ndarray:
        """G^T y on rows of length n_out: the factors in reverse order,
        pre * FFT(kern * IFFT(pad(post * y)))[:m].  The DFT matrices and the
        diagonal factors are symmetric, and the zero-pad is the transpose of
        the truncation."""
        return self._run(y, self.post, np.fft.ifft, np.fft.fft, self.pre)

    def _run(self, x, first, fft1, fft2, last) -> np.ndarray:
        n, n_out = first.size, last.size
        out = np.empty(x.shape[:-1] + (n_out,), dtype=complex)
        buf = np.empty(self.size, dtype=complex)
        # one row per FFT call: numpy's batched FFT allocates a scratch block
        # on every call, while a single contiguous row is transformed in place
        for row, dst in zip(x.reshape(-1, n), out.reshape(-1, n_out)):
            np.multiply(row, first, out=buf[:n])
            buf[n:] = 0.0
            fft1(buf, out=buf)
            buf *= self.kern
            fft2(buf, out=buf)
            np.multiply(buf[:n_out], last, out=dst)
        return out


def _bluestein(m: int, n_out: int, delta: float, s: float) -> _BluesteinPlan:
    # Plan for G_k = sum_j x_j exp(-2 pi i j (k+s) delta), k = 0..n_out-1, on
    # rows of length m.  Bluestein's j(k+s) = [j^2 + (k+s)^2 - (k+s-j)^2] / 2
    # makes it one convolution, padded to a 5-smooth size.  Kernel lags
    # k - j run over -(m-1)..n_out-1 and wrap modulo that size; the lags in
    # between are never read.
    size = _fast_len(m + n_out - 1)
    t = np.arange(size)
    z = _chirp(delta, np.where(t < n_out, t, t - size) + np.longdouble(s))
    pre, kern, post = _read_only(_chirp(-delta, np.arange(m)), np.fft.fft(z), np.conj(z[:n_out]))
    return _BluesteinPlan(size, pre, kern, post)


def frft(seq, delta: float, s: float = 0.0) -> np.ndarray:
    """Fractional DFT of ``seq``: sum_j seq_j exp(-2 pi i j (k+s) delta).

    Square transform (as many outputs as inputs); ``delta = 1/m`` with
    ``s = 0`` reproduces the ordinary DFT.
    """
    x = np.asarray(seq, dtype=complex)
    return _bluestein(x.shape[-1], x.shape[-1], delta, s)(x)


def choose_grid(
    params: GtsParams,
    m_target: int = DEFAULT_GRID_M,
    coverage: float = 40.0,
    refine: int = 1,
) -> FourierGrid:
    """Select a transform grid for ``params``.

    The output window is centred on the mean.  Its half-width is the larger
    of ``coverage/2`` standard deviations and ln(1e9)/lambda_min, where
    lambda_min is the slower tempering rate.  Both density tails decay at
    least like exp(-lambda_min |x - mean|), so that envelope is down to 1e-9
    at the window edges, and the mass left outside the window stays below
    about 1e-9 (2e-11 for the reference SP and BTC fits).
    The frequency span doubles until the characteristic function is below
    1e-12 at both ends.  The trapezoid sum's aliased images of the density
    repeat with the period 4 pi h / a and decay at the slower tempering
    rate; they stay below 1e-11 across the output window once the period
    exceeds a distance ``need``, and the frequency half count h puts it at
    ``_XI_MARGIN`` times ``need``.  The output count m starts at ``m_target`` points
    (rounded up to a multiple of 12) and grows to the smallest multiple of
    12 whose step gamma = span/m keeps the 4-point cubic's error on the CDF
    below 1e-10.  On the cubic's central cell that error is at most
    max|(t+1) t (t-1) (t-2)|/4! gamma^4 = 9/384 gamma^4 times the CDF's
    largest fourth derivative, which M3 = (1/2 pi) int |xi|^3 |F| dxi bounds;
    M3 takes the image bound's 4097 samples of |F|.  ``refine`` multiplies
    the final panel count and h.  More than 2**21 output or frequency nodes
    raise :class:`GridError` before anything of that size is built, and so
    does an exponent whose rounding, against |F| on the 4097 samples, moves
    the density by over 1e-10: each side's alpha Gamma(-beta) (w^beta -
    lambda^beta) carries |w^beta - lambda^beta| + beta |w|^beta (|log w| +
    |log lambda|) units of rounding, and Gamma(-beta) ~ 1/(beta - 1) near 1.
    """
    params.validate()
    if m_target < 12:
        raise ValueError(f"m_target must be at least 12, got {m_target}")
    if refine < 1:
        raise ValueError(f"refine must be a positive integer, got {refine}")
    cum = cumulants(params, 2)
    center = cum.kappa(1)
    std = math.sqrt(cum.kappa(2))
    lam_min = min(params.lambda_plus, params.lambda_minus)
    half = max(0.5 * coverage * std, math.log(1.0 / _WINDOW_TOL) / lam_min)
    span = 2.0 * half

    a = 1.0
    while (tail := max(abs(char_fn(params, a / 2.0)), abs(char_fn(params, -a / 2.0)))) >= _TAIL_TOL:
        if a * 2.0 > 1e6:
            raise GridError(
                f"characteristic function tail not covered below a = 1e6: "
                f"max |F(+-a/2)| = {tail:.3e} at a = {a:g}, bound {_TAIL_TOL:g}"
            )
        a *= 2.0

    xi_c = np.linspace(-a / 2.0, a / 2.0, 4097)
    f_c, _, sides = _char_terms(params, xi_c, False)
    abs_f = np.abs(f_c)
    ulps = sum(
        abs(d["a"] * d["g"]) * (np.abs(d["diff"]) + d["b"] * np.exp(d["b"] * d["logw"].real) * (np.abs(d["logw"]) + abs(d["llam"])))
        for d in sides.values()
    )
    f_round = np.finfo(float).eps * float(np.trapezoid(ulps * abs_f, xi_c)) / (2.0 * math.pi)
    if f_round > _DENSITY_TOL:
        raise GridError(
            f"rounding of the characteristic exponent moves the density by up to {f_round:.3e}, bound {_DENSITY_TOL:g}"
        )
    big_b = float(np.trapezoid(abs_f, xi_c)) / (2.0 * math.pi)
    m3 = float(np.trapezoid(np.abs(xi_c) ** 3 * abs_f, xi_c)) / (2.0 * math.pi)

    m_cubic = span * (9.0 / 384.0 * m3 / _CDF_TOL) ** 0.25
    n = max(math.ceil(m_target / 12.0), math.ceil(m_cubic / 12.0)) * refine
    if 12 * n > _NODE_CAP:
        raise GridError(f"grid needs m = {12 * n} nodes, above the cap of {_NODE_CAP}")
    need = half + 3.0 / lam_min + abs(center) + max(0.0, math.log(big_b / _IMG_TOL)) / lam_min
    h = math.ceil(_XI_MARGIN * need * a / (4.0 * math.pi)) * refine
    if h > _NODE_CAP:
        raise GridError(f"grid needs h = {h} frequency nodes, above the cap of {_NODE_CAP}")
    return FourierGrid(a=a, n=n, span=span, center=center, h=h)


_PAIRS = [(k, j) for k in range(7) for j in range(k, 7)]


def _half_xi(grid: FourierGrid) -> np.ndarray:
    # the xi >= 0 half of the frequency grid: xi_q = q beta_step, q = 0..h
    return np.arange(grid.h + 1) * grid.beta_step


def _half_rows(params: GtsParams, grid: FourierGrid, order: int, terms=None) -> np.ndarray:
    # Characteristic-function samples (and parameter derivative samples) on
    # the xi >= 0 half, the only half the inversion transforms, from the
    # _char_terms of params on that half (evaluated here when not given)
    if terms is None:
        terms = _char_terms(params, _half_xi(grid), order >= 1)
    f, g, s = terms
    if order == 0:
        return f[None, :]
    rows = np.empty((36 if order >= 2 else 8, f.size), dtype=complex)
    rows[0] = f
    np.multiply(f, g, out=rows[1:8])
    if order >= 2:
        h = _psi_hess(-_half_xi(grid), s)
        for row, (k_, j_) in zip(rows[8:], _PAIRS):
            np.multiply(f, g[k_] * g[j_] + h[k_, j_], out=row)
    return rows


def _char_rows(params: GtsParams, grid: FourierGrid, order: int):
    # The rows on the symmetric frequency grid xi_q = (q - h) beta_step,
    # q = 0..2h: the xi >= 0 half and its Hermitian mirror r(-xi) = conj r(xi)
    half = _half_rows(params, grid, order)
    return np.concatenate((np.conj(half[:, :0:-1]), half), axis=1)


def _transform_half(half: np.ndarray, grid: FourierGrid) -> np.ndarray:
    # f(x_k) on the grid's output nodes from rows on xi_q = q beta_step,
    # q = 0..h: twice the real part of the half-spectrum sum
    out = np.empty((half.shape[0], len(grid.nodes)))
    for row, dst in zip(half, out):
        dst[:] = grid.inversion_plan(row * grid.half_weights[1]).real
    return out


def _invert_rows(rows: np.ndarray, grid: FourierGrid) -> np.ndarray:
    """Inverse transform of char-function sample rows, one fractional FFT each.

    ``rows`` (R, 2h+1) samples Hermitian functions at xi_q = (q - h) beta_step;
    the result holds f(x_k) = beta_step/(2 pi) sum_q W_q rows[q] exp(i xi_q x_k)
    on the points of :func:`_output_points`, W the trapezoid weights, as
    twice the real part of the xi >= 0 half (xi = 0 at half weight).  A row's
    asymmetry beta_step/(2 pi) sum_{xi>=0} W |r(xi) - conj r(-xi)| bounds the
    imaginary residue of the full sum; it must stay below 1e-8 on the leading
    8 rows and below 1e-6 (1 + max|f|) on second-order rows.
    """
    h = grid.h
    scale = grid.beta_step / (2.0 * math.pi)
    wq = grid.half_weights[0]
    out = _transform_half(rows[:, h:], grid)
    for i, (r, f) in enumerate(zip(rows, out)):
        # einsum, not @: OpenBLAS's dot would change the sum's rounding
        bound = scale * np.einsum("q,q->", np.abs(r[h:] - np.conj(r[h::-1])), wq)
        limit = 1e-8 if i < 8 else 1e-6 * (1.0 + float(np.abs(f).max()))
        if not bound <= limit:
            raise GridError(f"imaginary residue {bound:.3e} in row {i} exceeds {limit:.3e}")
    return out


def _pull_back(c: np.ndarray, grid: FourierGrid) -> np.ndarray:
    """Transpose of :func:`_invert_rows` on the xi >= 0 half.

    For real ``c`` on the grid's output nodes, returns the complex ``d`` on
    xi_q = q beta_step, q = 0..h, with
    sum_k c_k _invert_rows(rows, grid)[r, k] = Re sum_q rows[r, h + q] d_q
    for every row: the inversion plan run transposed on ``c``, times the
    weights of :attr:`FourierGrid.half_weights` that the inversion folds in.
    """
    return grid.half_weights[1] * grid.inversion_plan.transpose(c)


def _output_points(grid: FourierGrid) -> np.ndarray:
    k = np.arange(grid.nodes.start, grid.nodes.stop)
    return grid.center + (k - grid.m / 2.0) * grid.gamma_step


def _cumulative(f_full: np.ndarray, grid: FourierGrid):
    # Panel-wise cumulative Newton-Cotes: exact partial integrals of each
    # panel interpolant give the CDF at every interior node.
    n, gamma = grid.n, grid.gamma_step
    w = newton_cotes_weights()
    vpart = _partial_panel_weights()
    idx = 12 * np.arange(n)[:, None] + np.arange(13)[None, :]
    panels = f_full[idx]
    full = gamma * (panels @ w)
    base = np.concatenate(([0.0], np.cumsum(full)))
    part = gamma * np.einsum("rj,pj->pr", vpart, panels)
    cdf = np.empty(grid.m + 1)
    cdf[: grid.m] = (base[:n, None] + part[:, :12]).reshape(grid.m)
    cdf[grid.m] = base[n]
    return cdf, float(base[n])


def spectral_tables(params: GtsParams, grid: FourierGrid, order: int = 0, *, terms=None):
    """Raw inversion engine: output points and function rows.

    Returns ``(x, rows)`` where ``x`` holds the grid's output nodes (all m+1
    unless the grid carries a range) and ``rows`` holds the density (order
    0), plus its 7 parameter-gradient rows (order 1), plus the 28
    upper-triangle second-derivative rows (order 2).  The fitter asks
    for orders 0 and 1 only and gets its Hessian through :func:`_pull_back`;
    order 2 is the direct path that the tests check that Hessian against.
    Only the xi >= 0 half is evaluated and transformed; its rows are
    Hermitian by construction, so no asymmetry gate applies to them.

    ``terms`` is the ``_char_terms(params, xi, grad)`` triple on that half,
    xi_q = q beta_step for q = 0..h, with ``grad`` set from order 1 on:
    F, the gradient of Psi and the side parts.  A caller that reuses them
    (the fitter's Hessian) passes them in; omitted, they are evaluated here.
    """
    vals = _transform_half(_half_rows(params, grid, order, terms), grid)
    return _output_points(grid), vals


def density_table(params: GtsParams, grid: FourierGrid, with_derivatives: bool = False) -> DensityTable:
    """Tabulate density, CDF and optionally the parameter gradient rows.

    The table exposes the first m of the m+1 computed nodes.  The CDF is the
    cumulative panel quadrature renormalized by the recovered total mass,
    clamped to [0, 1] and made nondecreasing; a total mass off by more than
    1e-4 raises :class:`GridError`.  The CDF needs every panel, so a grid
    that carries an output-node range raises ``ValueError``.
    """
    if grid.nodes != range(grid.m + 1):
        lo, hi = grid.nodes.start, grid.nodes.stop
        raise ValueError(f"density_table needs all {grid.m + 1} output nodes, the grid's range is [{lo}, {hi})")
    x_full, vals = spectral_tables(params, grid, order=1 if with_derivatives else 0)
    f_full = vals[0]
    if not f_full.min() >= -_DENSITY_TOL:
        raise GridError(f"negative density {f_full.min():.3e} below the bound {-_DENSITY_TOL:g}")
    cdf, total = _cumulative(f_full, grid)
    if not abs(total - 1.0) <= _MASS_TOL:
        raise GridError(f"grid too coarse: recovered mass {total:.9f} outside 1 +- {_MASS_TOL:g}")
    cdf = np.clip(cdf / total, 0.0, 1.0)
    np.maximum.accumulate(cdf, out=cdf)
    m = grid.m
    return DensityTable(
        x=x_full[:m],
        f=f_full[:m],
        F=cdf[:m],
        df=vals[1:8, :m] if with_derivatives else None,
        params=params,
        grid=grid,
    )


# Monomial coefficients of the four Lagrange cardinal cubics on the nodes
# -1, 0, 1, 2: row j holds L_j(t) = sum_p _CUBIC[j, p] t^p.
_CUBIC = _read_only(np.array([[0, -2, 3, -1], [6, -3, -6, 3], [0, 6, 3, -3], [0, -1, 0, 1]]) / 6.0)[0]


def _stencil(x: np.ndarray, pts: np.ndarray):
    # _CUBIC weights on the 4 nodes idx-1..idx+2 around each point, kept interior
    gamma = x[1] - x[0]
    idx = np.clip(((pts - x[0]) / gamma).astype(int), 1, x.size - 3)
    t = (pts - x[idx]) / gamma
    return idx, _CUBIC @ t ** np.arange(4)[:, None]


def _interp4(x: np.ndarray, rows: np.ndarray, pts: np.ndarray) -> np.ndarray:
    # the cubic through the 4 nodes around each point, along the last axis of rows
    idx, w = _stencil(x, pts)
    return sum(wo * rows[..., idx + o] for o, wo in zip((-1, 0, 1, 2), w))


def _cubic_diffs(fs: np.ndarray, i):
    # (c1, c2, c3) in y = (x - x_i)/gamma of the cubic through fs[i-1..i+2]
    # minus fs[i]; differences keep their accuracy where fs ~ 1.  Elementwise
    # in an index array i, so a scalar and an array index give the same bits
    d = [fs[i + o] - fs[i] for o in (-1, 1, 2)]
    return tuple(d[0] * _CUBIC[0, p] + d[1] * _CUBIC[2, p] + d[2] * _CUBIC[3, p] for p in (1, 2, 3))


def cdf_at(table: DensityTable, x: float) -> float:
    """CDF at ``x`` by cubic 4-point interpolation of the tabulated values.

    The cubic on a cell is the one :func:`~gtsfit.risk.var` solves, from the
    same coefficients (one node inward at the table edges).  The interpolant
    is clipped to the bracketing node values, which keeps it monotone between
    nodes; points outside the span raise :class:`SpanError`.
    """
    xs, fs = table.x, table.F
    if not xs[0] <= x <= xs[-1]:
        raise SpanError(f"x={x} outside table span [{xs[0]:.6g}, {xs[-1]:.6g}]")
    gamma = table.grid.gamma_step
    i = min(max(int((x - xs[0]) / gamma), 0), len(xs) - 2)
    j = min(max(i, 1), len(xs) - 3)
    c1, c2, c3 = _cubic_diffs(fs, j)
    y = (x - xs[j]) / gamma
    val = fs[j] + y * (c1 + y * (c2 + y * c3))
    return float(min(max(val, fs[i]), fs[i + 1]))


_CSV_HEADER = (
    "x,f,F,df_mu,df_beta_plus,df_beta_minus,df_alpha_plus,"
    "df_alpha_minus,df_lambda_plus,df_lambda_minus"
)


def write_density_csv(table: DensityTable, path, extra=None) -> None:
    """Write the table as CSV, 17 significant digits, LF line endings.

    The header always carries the seven derivative columns; the cells stay
    blank when the table was built without derivative rows.  ``extra``, a
    ``(name, values)`` pair with one value per table node, adds one trailing
    column (the CLI's ``normal`` reference density).
    """
    cols = [table.x, table.f, table.F]
    cols.extend(table.df if table.df is not None else [np.full(table.x.size, "")] * 7)
    header = _CSV_HEADER
    if extra is not None:
        name, values = extra
        cols.append(values)
        header += "," + name
    write_csv(path, header, cols)
