"""Density recovery from the characteristic function on fractional FFT grids.

The density f and its parameter derivatives are obtained by discretizing the
inverse Fourier integral with a composite 12-subinterval Newton-Cotes rule in
frequency and evaluating the resulting sums with fractional FFTs.  Frequency
spacing ``beta_step`` and output spacing ``gamma_step`` are decoupled through
the transform parameter ``delta = beta_step * gamma_step / (2 pi)``, so the
output window can track the distribution's own scale instead of the FFT
reciprocal grid.

The sums are evaluated in one shot.  The weights are folded into the
frequency samples; as every row is Hermitian (F(-xi) = conj F(xi), for the
derivative rows too) one fractional FFT per row, padded to a 5-smooth length,
takes the m/2+1 samples with xi >= 0 and the result is twice its real part.
A direct evaluation of the composite sum is the cross-check in the tests.

Grid selection sizes the output window from the slower tempering rate,
doubles the frequency span until the characteristic function tail is
negligible, then enlarges the panel count until the nearest aliased
images of the density, damped at the tempering rate and amplified by the
harmonic content of the periodized quadrature weights, fall below an image
tolerance inside the output window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .gts_model import GtsParams, _psi_grad, _psi_hess, char_fn, cumulants

_TAIL_TOL = 1e-12
_IMG_TOL = 1e-11
_MASS_TOL = 1e-4
_WINDOW_TOL = 1e-9
_NODE_CAP = 2**21  # 5x the largest regular grid (BTC, refine 2, coverage 80)
_ROW_BATCH = 4  # rows per transform, to keep the FFT workspace small


class GridError(RuntimeError):
    """Grid construction or inversion failed its accuracy contract."""


class SpanError(ValueError):
    """Requested point lies outside the table's span."""


@lru_cache(maxsize=1)
def _nc_exact():
    # Closed Newton-Cotes weights on a 12-subinterval panel and the partial
    # integrals int_0^r L_j(t) dt, both exact over the rationals.
    nodes = [Fraction(j) for j in range(13)]
    # Lagrange cardinal polynomials in ascending coefficients, integrated
    # termwise; partial[r][j] = int_0^r L_j(t) dt, full weight = partial[12].
    full = []
    partial = [[Fraction(0)] * 13 for _ in range(13)]
    for j in range(13):
        coeffs = [Fraction(1)]
        den = Fraction(1)
        for i in range(13):
            if i == j:
                continue
            # multiply by (t - node_i)
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for p, c in enumerate(coeffs):
                nxt[p] += c * (-nodes[i])
                nxt[p + 1] += c
            coeffs = nxt
            den *= nodes[j] - nodes[i]
        anti = [Fraction(0)] + [c / (p + 1) for p, c in enumerate(coeffs)]
        for r in range(13):
            acc = Fraction(0)
            for p in range(len(anti) - 1, -1, -1):
                acc = acc * r + anti[p]
            partial[r][j] = acc / den
        full.append(partial[12][j])
    return full, partial


def newton_cotes_weights() -> np.ndarray:
    """The 13 closed Newton-Cotes weights for one 12-subinterval panel."""
    full, _ = _nc_exact()
    return np.array([float(w) for w in full])


@lru_cache(maxsize=1)
def _partial_panel_weights() -> np.ndarray:
    # row r: weights reproducing int_0^r of the panel interpolant
    _, partial = _nc_exact()
    return np.array([[float(w) for w in row] for row in partial])


@lru_cache(maxsize=1)
def _weight_harmonics() -> np.ndarray:
    # Magnitudes of the 12-periodic harmonics of the periodized panel weights;
    # interior panel joints carry weight 2 W[0].
    w = newton_cotes_weights()
    period = np.concatenate(([2.0 * w[0]], w[1:12]))
    return np.abs(np.fft.fft(period) / 12.0)


@dataclass(frozen=True)
class FourierGrid:
    """Transform geometry: frequency span ``a``, ``n`` panels of order ``q``."""

    a: float
    q: int
    n: int
    m: int
    beta_step: float
    gamma_step: float
    delta: float
    s: float
    center: float

    def __post_init__(self) -> None:
        if self.q != 12:
            raise ValueError(f"panel order must be 12, got {self.q}")
        if self.m != self.q * self.n:
            raise ValueError(f"m must equal q*n, got m={self.m}, q*n={self.q * self.n}")
        if not (self.a > 0 and self.beta_step > 0 and self.gamma_step > 0):
            raise ValueError("grid steps must be positive")
        if not 0.0 <= self.s < 1.0:
            raise ValueError(f"fractional shift must lie in [0, 1), got {self.s}")
        ref = self.beta_step * self.gamma_step / (2.0 * math.pi)
        if abs(self.delta - ref) > 1e-12 * abs(ref):
            raise ValueError("delta inconsistent with beta_step * gamma_step / (2 pi)")


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
    odd = (3**i * 5**j for i in range(26) for j in range(18))
    return min(c << (-(-n // c) - 1).bit_length() for c in odd)


def _chirp(delta: float, t: np.ndarray) -> np.ndarray:
    # exp(i pi delta t^2), with delta t^2 reduced modulo 2 in long double:
    # in double the phase would carry an error of delta t^2 * 1e-16, which
    # reaches 1e-12 on the largest grids
    ld = np.longdouble
    return np.exp(1j * np.pi * ((ld(delta) * t.astype(ld) ** 2) % 2).astype(float))


def _bluestein(m: int, n_out: int, delta: float, s: float):
    # Plan for G_k = sum_j x_j exp(-2 pi i j (k+s) delta), k = 0..n_out-1, on
    # rows of length m.  Bluestein's j(k+s) = [j^2 + (k+s)^2 - (k+s-j)^2] / 2
    # makes it one convolution, padded to a 5-smooth size.  Kernel lags
    # k - j run over -(m-1)..n_out-1 and wrap modulo that size; the lags in
    # between are never read.
    size = _fast_len(m + n_out - 1)
    t = np.arange(size)
    z = _chirp(delta, np.where(t < n_out, t, t - size) + np.longdouble(s))
    pre, kern, post = _chirp(-delta, np.arange(m)), np.fft.fft(z), np.conj(z[:n_out])

    def apply(x: np.ndarray) -> np.ndarray:
        y = np.fft.fft(x * pre, n=size)
        y *= kern
        return np.fft.ifft(y)[..., :n_out] * post

    return apply


def frft(seq, delta: float, s: float = 0.0) -> np.ndarray:
    """Fractional DFT of ``seq``: sum_j seq_j exp(-2 pi i j (k+s) delta).

    Square transform (as many outputs as inputs); ``delta = 1/m`` with
    ``s = 0`` reproduces the ordinary DFT.
    """
    x = np.asarray(seq, dtype=complex)
    return _bluestein(x.shape[-1], x.shape[-1], delta, s)(x)


def choose_grid(
    params: GtsParams,
    m_target: int = 8192,
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
    1e-12 at both ends; the panel count starts at ``m_target`` points
    (rounded up to a multiple of 12) and grows until the aliased images of
    the density, entering at the quadrature period and decaying at the
    slower tempering rate, stay below 1e-11 across the output window.
    ``refine`` multiplies the final panel count.  A grid of more than 2**21
    nodes raises :class:`GridError` before anything of that size is built.
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
    while max(abs(char_fn(params, a / 2.0)), abs(char_fn(params, -a / 2.0))) >= _TAIL_TOL:
        a *= 2.0
        if a > 1e6:
            raise GridError("characteristic function tail not covered below a = 1e6")

    xi_c = np.linspace(-a / 2.0, a / 2.0, 4097)
    big_b = float(np.trapezoid(np.abs(char_fn(params, xi_c)), xi_c)) / (2.0 * math.pi)

    d0 = 3.0 / lam_min + abs(center)
    harm = _weight_harmonics()
    p_req = 0.0
    for r in range(1, 7):
        need = half + d0 + max(0.0, math.log(harm[r] * big_b / _IMG_TOL)) / lam_min
        p_req = max(p_req, need * 12.0 / r)
    m_img = p_req * a / (2.0 * math.pi)
    n = max(math.ceil(m_target / 12.0), math.ceil(m_img / 12.0)) * refine
    m = 12 * n
    if m > _NODE_CAP:
        raise GridError(f"grid needs m = {m} nodes, above the cap of {_NODE_CAP}")
    beta = a / m
    gamma = span / m
    return FourierGrid(
        a=a,
        q=12,
        n=n,
        m=m,
        beta_step=beta,
        gamma_step=gamma,
        delta=beta * gamma / (2.0 * math.pi),
        s=0.0,
        center=center,
    )


_PAIRS = [(k, j) for k in range(7) for j in range(k, 7)]


def _char_rows(params: GtsParams, grid: FourierGrid, order: int):
    # Characteristic-function samples (and parameter derivative samples) on
    # the symmetric frequency grid xi_q = (q - m/2) beta_step, q = 0..m.
    q = np.arange(grid.m + 1)
    xi = (q - grid.m / 2.0) * grid.beta_step
    f = char_fn(params, xi)
    rows = [f]
    if order >= 1:
        g = _psi_grad(params, -xi)
        for j in range(7):
            rows.append(f * g[j])
    if order >= 2:
        h = _psi_hess(params, -xi)
        for k_, j_ in _PAIRS:
            rows.append(f * (g[k_] * g[j_] + h[k_, j_]))
    return np.array(rows)


def _invert_rows(rows: np.ndarray, grid: FourierGrid) -> np.ndarray:
    """Inverse transform of char-function sample rows, one fractional FFT each.

    ``rows`` (R, m+1) samples Hermitian functions at xi_q = (q - m/2) beta_step;
    the result holds f(x_k) = beta_step/(2 pi) sum_q W_q rows[q] exp(i xi_q x_k)
    on the m+1 points of :func:`_output_points`, W the composite weights, as
    twice the real part of the xi >= 0 half (xi = 0 at half weight).  A row's
    asymmetry beta_step/(2 pi) sum_{xi>=0} W |r(xi) - conj r(-xi)| bounds the
    imaginary residue of the full sum; it must stay below 1e-8 on the leading
    8 rows and below 1e-6 (1 + max|f|) on second-order rows.
    """
    m, h = grid.m, grid.m // 2
    w = newton_cotes_weights()
    wq = np.tile(np.concatenate(([2.0 * w[0]], w[1:12])), grid.n + 1)[h : m + 1]
    wq[0], wq[-1] = 0.5 * wq[0], w[12]
    scale = grid.beta_step / (2.0 * math.pi)
    phase = 2.0 * scale * wq * np.exp(1j * grid.center * grid.beta_step * np.arange(h + 1))
    transform = _bluestein(h + 1, m + 1, -grid.delta, grid.s - h)
    out = np.empty((rows.shape[0], m + 1))
    for b in range(0, rows.shape[0], _ROW_BATCH):
        blk = rows[b : b + _ROW_BATCH]
        # einsum, not @: a threaded BLAS product costs more than it saves here
        bounds = scale * np.einsum("rq,q->r", np.abs(blk[:, h:] - np.conj(blk[:, h::-1])), wq)
        out[b : b + _ROW_BATCH] = transform(blk[:, h:] * phase).real
        for i, bound in enumerate(bounds, start=b):
            limit = 1e-8 if i < 8 else 1e-6 * (1.0 + float(np.abs(out[i]).max()))
            if bound > limit:
                raise GridError(f"imaginary residue {bound:.3e} in row {i} exceeds {limit:.3e}")
    return out


def _output_points(grid: FourierGrid) -> np.ndarray:
    k = np.arange(grid.m + 1)
    return grid.center + (k + grid.s - grid.m / 2.0) * grid.gamma_step


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


def spectral_tables(params: GtsParams, grid: FourierGrid, order: int = 0):
    """Raw inversion engine: output points and function rows.

    Returns ``(x, rows)`` where ``x`` has m+1 points and ``rows`` holds the
    density (order 0), plus its 7 parameter-gradient rows (order 1), plus
    the 28 upper-triangle second-derivative rows (order 2).
    """
    rows = _char_rows(params, grid, order)
    vals = _invert_rows(rows, grid)
    return _output_points(grid), vals


def density_table(params: GtsParams, grid: FourierGrid, with_derivatives: bool = False) -> DensityTable:
    """Tabulate density, CDF and optionally the parameter gradient rows.

    The table exposes the first m of the m+1 computed nodes.  The CDF is the
    cumulative panel quadrature renormalized by the recovered total mass,
    clamped to [0, 1] and made nondecreasing; a total mass off by more than
    1e-4 raises :class:`GridError`.
    """
    x_full, vals = spectral_tables(params, grid, order=1 if with_derivatives else 0)
    f_full = vals[0]
    if float(f_full.min()) < -1e-10:
        raise GridError(f"negative density {f_full.min():.3e} beyond tolerance")
    cdf, total = _cumulative(f_full, grid)
    if abs(total - 1.0) > _MASS_TOL:
        raise GridError(f"grid too coarse: recovered mass {total:.6f}")
    cdf = np.clip(cdf / total, 0.0, 1.0)
    np.maximum.accumulate(cdf, out=cdf)
    m = grid.m
    return DensityTable(
        x=x_full[:m],
        f=f_full[:m],
        F=cdf[:m],
        df=vals[1:8, :m].copy() if with_derivatives else None,
        params=params,
        grid=grid,
    )


def cdf_at(table: DensityTable, x: float) -> float:
    """CDF at ``x`` by cubic 4-point interpolation of the tabulated values.

    The interpolant is clipped to the bracketing node values, which keeps it
    monotone between nodes; points outside the span raise :class:`SpanError`.
    """
    xs, fs = table.x, table.F
    if not xs[0] <= x <= xs[-1]:
        raise SpanError(f"x={x} outside table span [{xs[0]:.6g}, {xs[-1]:.6g}]")
    gamma = table.grid.gamma_step
    i = int((x - xs[0]) / gamma)
    i = min(max(i, 0), len(xs) - 2)
    lo = min(max(i - 1, 0), len(xs) - 4)
    t = (x - xs[lo]) / gamma
    pts = fs[lo : lo + 4]
    val = (
        -pts[0] * (t - 1.0) * (t - 2.0) * (t - 3.0) / 6.0
        + pts[1] * t * (t - 2.0) * (t - 3.0) / 2.0
        - pts[2] * t * (t - 1.0) * (t - 3.0) / 2.0
        + pts[3] * t * (t - 1.0) * (t - 2.0) / 6.0
    )
    return float(min(max(val, fs[i]), fs[i + 1]))


_CSV_HEADER = (
    "x,f,F,df_mu,df_beta_plus,df_beta_minus,df_alpha_plus,"
    "df_alpha_minus,df_lambda_plus,df_lambda_minus"
)


def write_density_csv(table: DensityTable, path) -> None:
    """Write the table as CSV, 17 significant digits, LF line endings.

    The header always carries the seven derivative columns; the cells stay
    blank when the table was built without derivative rows.
    """
    cols = [table.x, table.f, table.F]
    if table.df is not None:
        cols.extend(table.df)
    pad = "" if table.df is not None else "," * 7
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_CSV_HEADER + "\n")
        for row in zip(*cols):
            fh.write(",".join(f"{v:.17g}" for v in row) + pad + "\n")
