"""Seven-parameter tempered stable model for percent log returns.

The process is specified by its Levy triplet: tempering rates ``lambda_plus``
and ``lambda_minus``, tail indices ``beta_plus`` and ``beta_minus``, jump
intensities ``alpha_plus`` and ``alpha_minus``, plus a drift ``mu``.  The
characteristic exponent

    Psi(xi) = i mu xi
            + alpha_plus  Gamma(-beta_plus)  [(lambda_plus  - i xi)^beta_plus  - lambda_plus^beta_plus]
            + alpha_minus Gamma(-beta_minus) [(lambda_minus + i xi)^beta_minus - lambda_minus^beta_minus]

uses the principal branch of the complex power; the characteristic function
follows as F(xi) = exp(Psi(-xi)).  All quantities are in percent units.

The complex logs and powers of the two power arguments are the costly part
of every evaluation.  :func:`_char_terms` computes them once and returns F,
the first parameter derivatives of Psi and the per-side parts from which
:func:`_side_hess` builds the second derivatives, so the inversion rows and
the fitter's Hessian contraction pay for one pass.  The two jump sides never
mix, so the second derivatives are kept as one (beta, alpha, lambda) block
per side.  Nothing is cached in this module.

Each beta-dependent quantity has one form on the whole box 0 < beta < 1.
The bracket is formed as lambda^beta expm1(beta L), L = log(w/lambda), and
its beta derivatives split psi(-beta) = psi(1 - beta) + 1/beta so that the
1/beta cancels in closed form against h_n(beta L) = int_0^1 t^n e^{beta L t} dt.
None of them loses bits to cancellation against Gamma(-beta) ~ -1/beta as
beta approaches 0.
"""

from __future__ import annotations

import enum
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .data import write_json
from .special_linalg import digamma_fn, gamma_fn, trigamma_fn

BOUND_EPS = 1e-8

# canonical indices (beta, alpha, lambda) of each jump side's parameters
_SIDE_INDEX = {"p": (1, 3, 5), "m": (2, 4, 6)}

PARAM_NAMES = (
    "mu",
    "beta_plus",
    "beta_minus",
    "alpha_plus",
    "alpha_minus",
    "lambda_plus",
    "lambda_minus",
)


class DomainError(ValueError):
    """Parameter or argument outside the model's domain."""


class BranchCutError(ValueError):
    """Complex power argument left the principal-branch half plane."""


class ActivityClass(enum.Enum):
    FINITE_ACTIVITY = "FiniteActivity"
    INFINITE_ACTIVITY = "InfiniteActivity"


@dataclass(frozen=True)
class GtsParams:
    """Model parameter vector; field order is the canonical vector order."""

    mu: float
    beta_plus: float
    beta_minus: float
    alpha_plus: float
    alpha_minus: float
    lambda_plus: float
    lambda_minus: float

    def validate(self) -> None:
        """Raise :class:`DomainError` naming the first offending field.

        Tail indices must keep a margin of ``BOUND_EPS`` from 0 and 1, where
        Gamma(-beta) has its poles; intensities and tempering rates need only
        be strictly positive.
        """
        for f in fields(self):
            v = getattr(self, f.name)
            if not math.isfinite(v):
                raise DomainError(f"{f.name} must be finite, got {v}")
        for name in ("beta_plus", "beta_minus"):
            v = getattr(self, name)
            if not (BOUND_EPS < v < 1.0 - BOUND_EPS):
                raise DomainError(
                    f"{name} must lie in ({BOUND_EPS:g}, 1 - {BOUND_EPS:g}), got {v}"
                )
        for name in ("alpha_plus", "alpha_minus", "lambda_plus", "lambda_minus"):
            v = getattr(self, name)
            if not v > 0.0:
                raise DomainError(f"{name} must be strictly positive, got {v}")

    def to_vector(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in PARAM_NAMES])

    @classmethod
    def from_vector(cls, v) -> "GtsParams":
        v = np.asarray(v, dtype=float)
        if v.shape != (7,):
            raise ValueError(f"expected 7 components, got shape {v.shape}")
        return cls(*(float(x) for x in v))

    def to_json(self) -> dict:
        d = {n: getattr(self, n) for n in PARAM_NAMES}
        d["units"] = "percent"
        return d

    @classmethod
    def from_json(cls, obj: dict) -> "GtsParams":
        units = obj.get("units", "percent")
        if units != "percent":
            raise DomainError(f"unsupported units {units!r}, expected 'percent'")
        try:
            vals = [obj[n] for n in PARAM_NAMES]
        except KeyError as exc:
            raise DomainError(f"missing parameter key {exc.args[0]!r}") from None
        for n, v in zip(PARAM_NAMES, vals):
            if type(v) not in (int, float):  # JSON numbers only, not true, null or "0.1"
                raise DomainError(f"parameter {n!r} must be a JSON number, got {v!r}")
            if type(v) is int and abs(v) > sys.float_info.max:
                raise DomainError(f"parameter {n!r} is an integer too large for a float")
        return cls(*map(float, vals))


def save_params(params: GtsParams, path) -> None:
    write_json(path, params.to_json())


def load_params(path) -> GtsParams:
    with open(path, "r", encoding="utf-8-sig") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise DomainError("parameter file must hold a JSON object")
    return GtsParams.from_json(obj)


def levy_density(params: GtsParams, x):
    """Levy measure density; tempered power laws on each half line.

    ``x`` may be a scalar or array; raises :class:`DomainError` at x = 0
    where the density is not defined.
    """
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xv = np.atleast_1d(xa)
    if np.any(xv == 0.0):
        raise DomainError("levy density undefined at x = 0")
    out = np.empty_like(xv)
    pos = xv > 0.0
    neg = ~pos
    out[pos] = params.alpha_plus * np.exp(-params.lambda_plus * xv[pos]) * xv[pos] ** (
        -1.0 - params.beta_plus
    )
    ax = -xv[neg]
    out[neg] = params.alpha_minus * np.exp(-params.lambda_minus * ax) * ax ** (
        -1.0 - params.beta_minus
    )
    return float(out[0]) if scalar else out


def activity_class(params: GtsParams) -> ActivityClass:
    """Jump-activity classification; accepts beta < 0 for this purpose only."""
    if params.beta_plus >= 0.0 or params.beta_minus >= 0.0:
        return ActivityClass.INFINITE_ACTIVITY
    return ActivityClass.FINITE_ACTIVITY


def _side_parts(params: GtsParams, xi, with_psi: bool = False):
    # Per-side scratch values shared by the exponent and its derivatives; the
    # powers they read (w^beta - lambda^beta, w^(beta-1)) are formed here once.
    # w^beta - lambda^beta cancels as beta -> 0 while Gamma(-beta) grows like
    # 1/beta, so it is formed as lambda^beta expm1(beta L), L = log(w/lambda)
    sides = {}
    for key, b, a, lam, sgn in (
        ("p", params.beta_plus, params.alpha_plus, params.lambda_plus, -1.0),
        ("m", params.beta_minus, params.alpha_minus, params.lambda_minus, +1.0),
    ):
        w = lam + sgn * 1j * np.asarray(xi)
        if np.any(np.real(w) <= 0.0):
            raise BranchCutError(
                f"power argument off the principal branch (side {key}, lambda {lam})"
            )
        logw = np.log(w)
        llam = math.log(lam)
        pl = lam**b
        x = b * (logw - llam)
        em1 = np.expm1(x)
        parts = {
            "b": b,
            "a": a,
            "lam": lam,
            "g": gamma_fn(-b),
            "logw": logw,
            "Pl": pl,
            "llam": llam,
            "diff": pl * em1,
        }
        if with_psi:
            parts["psi0"] = digamma_fn(1.0 - b)
            parts["psi1"] = trigamma_fn(1.0 - b)
            parts["wbm1"] = np.exp((b - 1.0) * logw)
            parts["lbm1"] = lam ** (b - 1.0)
            parts["h1"], parts["h2"] = _h(x, em1)
        sides[key] = parts
    return sides


# the series coefficients 1 / ((k + n + 1) k!) of h_n(x), k < 16, n = 1, 2
_H_SERIES = np.array([[1 / ((k + n + 1) * math.factorial(k)) for k in range(16)] for n in (1, 2)])


def _h(x, em1):
    # (h_1(x), h_2(x)), h_n(x) = int_0^1 t^n e^{xt} dt elementwise, from
    # em1 = expm1(x): below |x| = 1/2 the 16 terms of
    # sum_k x^k / ((k + n + 1) k!) reach rounding, where the recurrence
    # h_n = (e^x - n h_{n-1}) / x from h_0 = expm1(x) / x loses bits
    x, em1 = np.asarray(x), np.asarray(em1)
    h1, h2 = np.empty_like(x), np.empty_like(x)
    near = np.abs(x) < 0.5
    xf, ef = x[~near], em1[~near]
    h1f = (ef + 1.0 - ef / xf) / xf
    h1[~near], h2[~near] = h1f, (ef + 1.0 - 2.0 * h1f) / xf
    h1[near], h2[near] = _H_SERIES @ np.vander(x[near], 16, increasing=True).T
    return h1, h2


def _beta_bracket(d):
    # the beta derivative of one side's term over alpha Gamma(-beta), from its
    # side parts d: psi(-beta) = psi(1 - beta) + 1/beta, and the 1/beta part
    # against w^beta log w - lambda^beta log lambda leaves
    # lambda^beta beta L^2 h_1(beta L), L = log(w/lambda), so nothing cancels
    ell = d["logw"] - d["llam"]
    return (d["llam"] - d["psi0"]) * d["diff"] + d["Pl"] * d["b"] * ell * ell * d["h1"]


def _exponent(params: GtsParams, xi, s):
    # Psi(xi) from the side parts s = _side_parts(params, xi)
    p, m = s["p"], s["m"]
    return (
        1j * params.mu * np.asarray(xi)
        + p["a"] * p["g"] * p["diff"]
        + m["a"] * m["g"] * m["diff"]
    )


def char_exponent(params: GtsParams, xi):
    """Characteristic exponent Psi(xi); complex xi allowed on the strip
    where both power arguments keep a positive real part."""
    val = _exponent(params, xi, _side_parts(params, xi))
    return val if np.ndim(xi) else complex(val)


def char_fn(params: GtsParams, xi):
    """Characteristic function F(xi) = exp(Psi(-xi))."""
    val = np.exp(char_exponent(params, -np.asarray(xi)))
    return val if np.ndim(xi) else complex(val)


def _psi_grad(xi, s) -> np.ndarray:
    """Gradient of Psi w.r.t. the parameter vector, shape (7,) + xi.shape,
    from the side parts ``s = _side_parts(params, xi, with_psi=True)``."""
    xi = np.asarray(xi)
    out = np.zeros((7,) + xi.shape, dtype=complex)
    out[0] = 1j * xi
    for key, (idx_b, idx_a, idx_l) in _SIDE_INDEX.items():
        d = s[key]
        b, a, g, diff = d["b"], d["a"], d["g"], d["diff"]
        out[idx_a] = g * diff
        out[idx_l] = a * g * b * (d["wbm1"] - d["lbm1"])
        out[idx_b] = a * g * _beta_bracket(d)
    return out


def _side_hess(d) -> np.ndarray:
    """Hessian of one side's term of Psi in that side's (beta, alpha, lambda),
    shape (3, 3) + xi.shape, from its side parts ``d = s[key]``.

    Psi is linear in alpha, so the (alpha, alpha) entry is zero.
    """
    b, a, g, psi0, psi1 = d["b"], d["a"], d["g"], d["psi0"], d["psi1"]
    logw, llam, diff, wbm1, lbm1 = d["logw"], d["llam"], d["diff"], d["wbm1"], d["lbm1"]
    wbm2 = np.exp((b - 2.0) * logw)
    lbm2 = d["lam"] ** (b - 2.0)
    out = np.zeros((3, 3) + logw.shape, dtype=complex)
    out[1, 2] = out[2, 1] = g * b * (wbm1 - lbm1)
    out[1, 0] = out[0, 1] = g * _beta_bracket(d)
    out[2, 2] = a * g * b * (b - 1.0) * (wbm2 - lbm2)
    # the 1/beta of psi(-beta) = psi(1 - beta) + 1/beta cancels in closed
    # form: with c = log lambda - psi(1 - beta) the term is
    # -alpha Gamma(1 - beta) lambda^beta L h_0(x), x = beta L, whose second
    # beta derivative brings in h_1 and h_2
    ell = logw - llam
    c, x = llam - psi0, b * ell
    out[0, 0] = a * g * ((c * c + psi1) * diff + d["Pl"] * x * ell * (2.0 * c * d["h1"] + ell * d["h2"]))
    # (lambda, beta) is _beta_bracket's form at the exponent e = beta - 1, with
    # psi(1 - beta) = psi(2 - beta) + 1/e, so nothing cancels near beta = 1
    e = b - 1.0
    em1 = np.expm1(e * ell)
    out[2, 0] = out[0, 2] = a * g * b * lbm1 * ((llam - digamma_fn(2.0 - b)) * em1 + e * ell * ell * _h(e * ell, em1)[0])
    return out


def _psi_hess(xi, s) -> np.ndarray:
    """Hessian of Psi w.r.t. the parameter vector, shape (7, 7) + xi.shape,
    from the side parts as for :func:`_psi_grad`.

    The mu row is identically zero and the two jump sides never mix, so only
    the per-side blocks of :func:`_side_hess` are populated.
    """
    xi = np.asarray(xi)
    out = np.zeros((7, 7) + xi.shape, dtype=complex)
    for key, ix in _SIDE_INDEX.items():
        out[np.ix_(ix, ix)] = _side_hess(s[key])
    return out


def _char_terms(params: GtsParams, xi, grad: bool):
    """F(xi), dPsi at -xi (``grad``, else None) and the side parts at -xi.

    All come from one :func:`_side_parts` evaluation at -xi; F equals
    ``char_fn(params, xi)`` bit for bit, and the side parts carry what
    :func:`_side_hess` needs when ``grad`` is set.
    """
    nxi = -np.asarray(xi)
    s = _side_parts(params, nxi, with_psi=grad)
    f = np.exp(_exponent(params, nxi, s))
    return f, _psi_grad(nxi, s) if grad else None, s


def char_fn_grad(params: GtsParams, xi) -> np.ndarray:
    """Parameter gradient of the characteristic function, shape (7,) + xi.shape."""
    f, g, _ = _char_terms(params, xi, True)
    return f * g


def char_fn_hess(params: GtsParams, xi) -> np.ndarray:
    """Parameter Hessian of the characteristic function, shape (7, 7) + xi.shape.

    Product structure: d2F = F (dPsi_k dPsi_j + d2Psi_kj), evaluated at -xi.
    """
    f, gp, s = _char_terms(params, xi, True)
    return f * (gp[:, None] * gp[None, :] + _psi_hess(-np.asarray(xi), s))


@dataclass(frozen=True)
class CumulantSet:
    values: tuple

    def kappa(self, k: int) -> float:
        if not 1 <= k <= len(self.values):
            raise ValueError(f"cumulant order {k} outside 1..{len(self.values)}")
        return self.values[k - 1]


@dataclass(frozen=True)
class MomentStats:
    mean: float
    std_dev: float
    cv: float
    skewness: float
    kurtosis: float


def cumulants(params: GtsParams, k_max: int = 4) -> CumulantSet:
    """First ``k_max`` cumulants in closed form (k_max <= 8)."""
    if not 1 <= k_max <= 8:
        raise ValueError(f"k_max must lie in 1..8, got {k_max}")
    bp, bm = params.beta_plus, params.beta_minus
    ap, am = params.alpha_plus, params.alpha_minus
    lp, lm = params.lambda_plus, params.lambda_minus
    vals = [
        params.mu
        + ap * gamma_fn(1.0 - bp) * lp ** (bp - 1.0)
        - am * gamma_fn(1.0 - bm) * lm ** (bm - 1.0)
    ]
    for k in range(2, k_max + 1):
        vals.append(
            ap * gamma_fn(k - bp) * lp ** (bp - k)
            + (-1.0) ** k * am * gamma_fn(k - bm) * lm ** (bm - k)
        )
    return CumulantSet(tuple(vals))


def moment_stats(params: GtsParams) -> MomentStats:
    """Mean, standard deviation, CV, skewness, kurtosis from the cumulants.

    Kurtosis is the full fourth standardized moment (3 for a Gaussian); CV is
    std/mean and is undefined when the mean vanishes.
    """
    k = cumulants(params, 4)
    k1, k2, k3, k4 = (k.kappa(i) for i in range(1, 5))
    if k1 == 0.0:
        raise DomainError("cv undefined: mean is zero")
    std = math.sqrt(k2)
    return MomentStats(
        mean=k1,
        std_dev=std,
        cv=std / k1,
        skewness=k3 / k2**1.5,
        kurtosis=3.0 + k4 / (k2 * k2),
    )
