"""Reference values computed apart from the program.

The characteristic function is written from the Levy-Khintchine formula of
the seven-parameter tempered stable law with ``scipy.special.gamma``: for the
Levy density alpha e^{-lambda|x|} |x|^{-1-beta} on each half line,

    log E[e^{i xi X}] = i mu xi
        + alpha_plus  Gamma(-beta_plus)  [(lambda_plus  - i xi)^beta_plus  - lambda_plus^beta_plus]
        + alpha_minus Gamma(-beta_minus) [(lambda_minus + i xi)^beta_minus - lambda_minus^beta_minus].

Density and CDF come from plain trapezoid sums of the inversion integrals
over a uniform frequency grid (``Quadrature``), evaluated point by point:

    f(x) = (1/pi) int_0^inf Re[e^{-i xi x} phi(xi)] d xi
    F(x) = 1/2 - (1/pi) int_0^inf Im[e^{-i xi x} phi(xi)] / xi d xi   (Gil-Pelaez).

Both integrands are smooth and even in xi, so the trapezoid sum converges
geometrically; with step h its only error, besides truncation at the last
node, is the mass of X at distance beyond 2 pi / h from x.  Cumulants come
from the moments of the Levy density, int x^k nu(dx) = alpha Gamma(k - beta)
lambda^(beta - k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gamma

_CHUNK = 2_000_000  # entries per block of the point-by-frequency product


def gts_cf(p: dict) -> Callable[[np.ndarray], np.ndarray]:
    """phi(xi) = E[exp(i xi X)] for the parameter dict ``p``."""
    mu = p["mu"]
    bp, bm = p["beta_plus"], p["beta_minus"]
    ap, am = p["alpha_plus"], p["alpha_minus"]
    lp, lm = p["lambda_plus"], p["lambda_minus"]
    cp, cm = ap * gamma(-bp), am * gamma(-bm)

    def cf(xi):
        xi = np.asarray(xi, dtype=float)
        expo = (
            1j * mu * xi
            + cp * ((lp - 1j * xi) ** bp - lp**bp)
            + cm * ((lm + 1j * xi) ** bm - lm**bm)
        )
        return np.exp(expo)

    return cf


def gts_cumulants(p: dict, k_max: int = 4) -> list:
    """kappa_1 .. kappa_kmax from the moments of the Levy density."""
    bp, bm = p["beta_plus"], p["beta_minus"]
    ap, am = p["alpha_plus"], p["alpha_minus"]
    lp, lm = p["lambda_plus"], p["lambda_minus"]
    out = []
    for k in range(1, k_max + 1):
        plus = ap * gamma(k - bp) * lp ** (bp - k)
        minus = am * gamma(k - bm) * lm ** (bm - k)
        out.append((p["mu"] if k == 1 else 0.0) + plus + (-1.0) ** k * minus)
    return out


@dataclass(frozen=True)
class Quadrature:
    """Frequency grid xi_k = k h, k = 0..n, and the CF sampled on it."""

    h: float
    xi: np.ndarray
    phi: np.ndarray
    mean: float

    @classmethod
    def build(cls, cf, mean: float, period: float, tail: float = 1e-16) -> "Quadrature":
        """Step h = 2 pi / ``period``; the grid ends where |phi| < ``tail``."""
        h = 2.0 * math.pi / period
        top = 1.0
        while abs(cf(top)) >= tail:
            top *= 1.25
            if top > 1e6:
                raise ValueError("characteristic function does not decay")
        xi = h * np.arange(int(math.ceil(top / h)) + 1)
        return cls(h=h, xi=xi, phi=cf(xi), mean=mean)

    def evaluate(self, x) -> tuple:
        """Density and CDF at the points ``x``, from one pass over the grid."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        w_re = np.full(self.xi.size, self.h / math.pi)
        w_re[0] *= 0.5
        w_im = np.zeros(self.xi.size)
        w_im[1:] = self.h / (math.pi * self.xi[1:])
        # Re[e^{-i t} phi] = cos t Re phi + sin t Im phi; Im[...] = cos t Im phi - sin t Re phi
        re, im = self.phi.real, self.phi.imag
        f = np.empty(x.size)
        big_f = np.empty(x.size)
        step = max(1, _CHUNK // self.xi.size)
        for c0 in range(0, x.size, step):
            theta = np.outer(x[c0 : c0 + step], self.xi)
            cos, sin = np.cos(theta), np.sin(theta)
            f[c0 : c0 + step] = cos @ (w_re * re) + sin @ (w_re * im)
            big_f[c0 : c0 + step] = cos @ (w_im * im) - sin @ (w_im * re)
        # the xi -> 0 limit of Im[e^{-i xi x} phi(xi)] / xi is mean - x
        big_f = 0.5 - 0.5 * self.h / math.pi * (self.mean - x) - big_f
        return f, big_f

    def density(self, x) -> np.ndarray:
        return self.evaluate(x)[0]

    def cdf(self, x) -> np.ndarray:
        return self.evaluate(x)[1]


def gts_quadrature(p: dict, reach: float) -> Quadrature:
    """Quadrature for points within ``reach`` of the mean: the period leaves
    the images at least 40 tempering lengths of the slower tail beyond them."""
    lam = min(p["lambda_plus"], p["lambda_minus"])
    mean = gts_cumulants(p, 1)[0]
    return Quadrature.build(gts_cf(p), mean, 2.0 * reach + 40.0 / lam)


def gauss_legendre_panels(lo: float, hi: float, panels: int, order: int = 16):
    """Nodes and weights of a composite Gauss-Legendre rule on [lo, hi]."""
    t, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * t[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights
