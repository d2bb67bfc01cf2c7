"""Output checks for every workload, computed apart from the program.

Each ``check_*`` function takes the parsed output of one ``gtsfit`` command
and raises :class:`CheckFailed` naming the contract it broke and the value it
measured.  The reference values come from :mod:`oracle` and from plain numpy;
nothing here calls the program.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

import numpy as np

from oracle import Quadrature, gauss_legendre_panels, gts_cumulants, gts_quadrature

# Allowances, each with the reason it has the size it has.
TRACE_DROP_REL = 1e-11  # the fitter's own tie tolerance in its frozen endgame
LOGLIK_ABS = 1e-6  # 4000 log densities whose table and oracle values agree to ~1e-12
DENSITY_ABS = 1e-10  # the program's negative-density gate
CDF_ABS = 1e-9  # CDF renormalized by a recovered mass within ~2e-11 of 1
MASS_ABS = 1e-9
MEAN_ABS = 1e-8  # the suite's table-mean contract
VAR_REL = 1e-7  # the suite's table-variance contract
STENCIL_ABS = 1e-6  # fourth-order stencil error is ~1e-8 on the automatic grids
PRINT4 = 5e-5  # half a unit of the 4th decimal printed in risk.csv
PRINT6_REL = 5e-6  # half a unit of the 6th significant digit printed by pdf
PAPER_PROB = {"sp": 0.8005, "btc": 0.4032}
PAPER_PROB_ABS = 0.002
DKW_DELTA = 1e-6

DEFAULT_LEVELS = (0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10)
TRACE_COLUMNS = [
    "iteration", "mu", "beta_plus", "beta_minus", "alpha_plus", "alpha_minus",
    "lambda_plus", "lambda_minus", "log_ml", "grad_norm", "max_eigenvalue",
]
PARAM_ORDER = TRACE_COLUMNS[1:8]
DENSITY_COLUMNS = [
    "x", "f", "F", "df_mu", "df_beta_plus", "df_beta_minus", "df_alpha_plus",
    "df_alpha_minus", "df_lambda_plus", "df_lambda_minus", "normal",
]


class CheckFailed(AssertionError):
    """An output broke its contract."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _header(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return next(csv.reader(fh))


# ---------------------------------------------------------------- readers


def read_trace(path: Path) -> np.ndarray:
    _require(_header(path) == TRACE_COLUMNS, f"{path.name}: unexpected header")
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


def read_risk(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_density(path: Path) -> np.ndarray:
    _require(_header(path) == DENSITY_COLUMNS, f"{path.name}: unexpected header")
    return np.loadtxt(path, delimiter=",", skiprows=1)


def read_synth(path: Path) -> np.ndarray:
    _require(_header(path) == ["value"], f"{path.name}: unexpected header")
    return np.loadtxt(path, skiprows=1, ndmin=1)


# ---------------------------------------------------------------- fit


def oracle_loglik(params: dict, returns: np.ndarray) -> float:
    mean = gts_cumulants(params, 1)[0]
    quad = gts_quadrature(params, float(np.abs(returns - mean).max()))
    f = quad.density(returns)
    _require(bool(np.all(f > 0.0)), "oracle density not positive at a sample point")
    return float(np.sum(np.log(f)))


def check_fit(stdout: str, trace: np.ndarray, fitted: dict, truth: dict, returns: np.ndarray) -> None:
    """Converged certificate, monotone trace from the truth, oracle log likelihood."""
    _require("status Converged" in stdout, f"fit did not report Converged: {stdout.strip()!r}")
    last = trace[-1]
    _require(last[9] <= 1e-6, f"final score norm {last[9]:.3e} > 1e-6")
    _require(last[10] <= 0.0, f"final largest eigenvalue {last[10]:.3e} > 0")
    start = np.array([truth[k] for k in PARAM_ORDER])
    _require(
        bool(np.allclose(trace[0, 1:8], start, rtol=1e-15, atol=0.0)),
        "first trace row is not the starting point",
    )
    ll = trace[:, 8]
    drops = ll[:-1] - ll[1:] - TRACE_DROP_REL * (1.0 + np.abs(ll[:-1]))
    _require(bool(np.all(drops <= 0.0)), f"log_ml falls along the trace by {float(drops.max()):.3e} beyond ties")
    end = np.array([fitted[k] for k in PARAM_ORDER])
    _require(bool(np.array_equal(end, trace[-1, 1:8])), "params.json differs from the last trace row")
    ll_fit = oracle_loglik(fitted, returns)
    ll_truth = oracle_loglik(truth, returns)
    _require(
        abs(ll_fit - ll[-1]) <= LOGLIK_ABS,
        f"final log_ml {ll[-1]:.10f} against oracle {ll_fit:.10f} at params.json",
    )
    _require(ll[-1] >= ll_truth - LOGLIK_ABS, f"final log_ml {ll[-1]:.10f} below the truth's {ll_truth:.10f}")
    _require(ll[-1] >= ll[0], f"final log_ml {ll[-1]:.10f} below the first row's {ll[0]:.10f}")


# ---------------------------------------------------------------- risk


def _ceil_count(n: int, alpha: float) -> int:
    # ceil(n alpha) for decimal levels, exact at integer products
    return math.ceil(round(n * alpha, 6))


def empirical_reference(sample: np.ndarray, alpha: float) -> dict:
    """Order-statistic VaR and Acerbi-Tasche AVaR for both tails at tail
    probability ``alpha``, from a plain sort; the upper VaR is the order
    statistic at the confidence level 1 - alpha."""
    n = sample.size
    asc = np.sort(sample)
    k = _ceil_count(n, alpha)

    def shortfall(arr: np.ndarray) -> float:
        # mean of the lowest fraction alpha of the ascending ``arr``
        return float((arr[: k - 1].sum() + (n * alpha - (k - 1)) * arr[k - 1]) / (n * alpha))

    return {
        "LowerTail": (float(asc[k - 1]), shortfall(asc)),
        "UpperTail": (float(asc[_ceil_count(n, 1.0 - alpha) - 1]), -shortfall(-asc[::-1])),
    }


class TailMeans:
    """Partial expectations E[(v - X)^+] for v below the mean and E[(X - v)^+]
    for v above it, from the oracle density: composite Gauss-Legendre on
    panels two standard deviations wide over the tail, plus one partial panel
    ending at v.  The tails start 30 tempering lengths out, where the mass
    left is below 1e-13."""

    def __init__(self, params: dict, quad: Quadrature) -> None:
        k1, k2 = gts_cumulants(params, 2)
        width = 2.0 * math.sqrt(k2)
        self.quad = quad
        self.mean = k1
        self.sides = {}
        for sign, lam in ((-1.0, params["lambda_minus"]), (1.0, params["lambda_plus"])):
            far = k1 + sign * 30.0 / lam
            panels = int(math.ceil(30.0 / lam / width))
            edges = np.linspace(far, k1, panels + 1)
            nodes, weights = gauss_legendre_panels(min(far, k1), max(far, k1), panels)
            self.sides[sign] = (edges, nodes, weights, quad.density(nodes))

    def _partial(self, v: float, sign: float) -> float:
        _require((v - self.mean) * sign > 0.0, f"tail mean asked on the wrong side of the mean at {v}")
        edges, nodes, weights, f = self.sides[sign]
        # the partition edge between v and the far end, nearest to v
        beyond = edges[(edges - v) * sign >= 0.0]
        e = beyond[np.argmin(np.abs(beyond - v))]
        sel = (nodes - e) * sign > 0.0
        full = np.sum(weights[sel] * sign * (nodes[sel] - v) * f[sel])
        x, w = gauss_legendre_panels(min(e, v), max(e, v), 1)
        return float(full + np.sum(w * sign * (x - v) * self.quad.density(x)))

    def put(self, v: float) -> float:
        return self._partial(v, -1.0)

    def call(self, v: float) -> float:
        return self._partial(v, 1.0)


def check_risk(rows: list, params: dict, sample: np.ndarray, levels=DEFAULT_LEVELS) -> None:
    """Each printed VaR is the oracle quantile and each AVaR the oracle tail
    mean, to the printed digits; empirical columns match a plain recomputation."""
    _require(len(rows) == 2 * len(levels), f"{len(rows)} risk rows, expected {2 * len(levels)}")
    quad = gts_quadrature(params, 30.0 / min(params["lambda_plus"], params["lambda_minus"]))
    tails = TailMeans(params, quad)
    for i, alpha in enumerate(levels):
        emp = empirical_reference(sample, alpha)
        for row, side in zip(rows[2 * i : 2 * i + 2], ("LowerTail", "UpperTail")):
            tag = f"{side}@{alpha}"
            _require(row["side"] == side, f"row {row['side']} where {tag} was expected")
            level = alpha if side == "LowerTail" else 1.0 - alpha
            _require(abs(float(row["level"]) - level) < 1e-9, f"{tag}: level {row['level']}")
            v = float(row["theoretical_var"])
            f, big_f = (float(a[0]) for a in quad.evaluate(v))
            allow = 1.01 * f * PRINT4 + 1e-9
            _require(
                abs(big_f - level) <= allow,
                f"{tag}: oracle CDF at VaR {v} is {big_f:.9f}, level {level} (allowance {allow:.2e})",
            )
            if side == "LowerTail":
                ref = v - tails.put(v) / alpha
            else:
                ref = v + tails.call(v) / alpha
            got = float(row["theoretical_avar"])
            _require(abs(got - ref) <= PRINT4 + 1e-7, f"{tag}: AVaR {got} against oracle tail mean {ref:.7f}")
            evar, eavar = emp[side]
            for name, ref_e in (("empirical_var", evar), ("empirical_avar", eavar)):
                got_e = float(row[name])
                _require(abs(got_e - ref_e) <= PRINT4 + 1e-9, f"{tag}: {name} {got_e} against {ref_e:.6f}")


# ---------------------------------------------------------------- pdf


_GRID_LINE = re.compile(r"^(\d+) grid points on")
_PROB_LINE = re.compile(r"^P\((\S+) < X <= (\S+)\) = (\S+)$", re.M)


def check_density(stdout: str, table: np.ndarray, params: dict, asset: str, stride: int = 400) -> None:
    """Density table against the oracle and the closed-form cumulants, df_mu
    against the x-derivative, printed interval probability against oracle and paper."""
    head = _GRID_LINE.match(stdout)
    _require(head is not None, "pdf did not print its grid size")
    m = int(head.group(1))
    _require(table.shape == (m, len(DENSITY_COLUMNS)), f"density table {table.shape}, {m} rows printed")
    _require(m % 12 == 0, f"m = {m} is not a multiple of 12")
    x, f, big_f, df_mu = table[:, 0], table[:, 1], table[:, 2], table[:, 3]
    gamma = (x[-1] - x[0]) / (m - 1)
    _require(bool(np.allclose(np.diff(x), gamma, rtol=1e-8, atol=0.0)), "x column is not uniform")
    _require(float(f.min()) >= -DENSITY_ABS, f"negative density {f.min():.3e}")
    _require(bool(np.all(np.diff(big_f) >= 0.0)), "F column decreases")

    k1, k2 = gts_cumulants(params, 2)
    quad = gts_quadrature(params, max(abs(x[0] - k1), abs(x[-1] - k1)))
    idx = np.unique(np.concatenate((np.arange(0, m, max(1, m // stride)), [m - 1])))
    ends = quad.cdf(np.array([x[0], x[-1]]))
    f_ref, big_f_ref = quad.evaluate(x[idx])
    err_f = float(np.abs(f[idx] - f_ref).max())
    _require(err_f <= DENSITY_ABS, f"density off the oracle by {err_f:.3e}")
    err_cdf = float(np.abs(big_f[idx] - big_f_ref).max())
    _require(err_cdf <= CDF_ABS, f"CDF off the oracle by {err_cdf:.3e}")

    mass = float(f.sum() * gamma)
    mass_ref = float(ends[1] - ends[0])
    _require(abs(mass - mass_ref) <= MASS_ABS, f"table mass {mass:.12f}, oracle {mass_ref:.12f}")
    mean = float((x * f).sum() * gamma)
    _require(abs(mean - k1) <= MEAN_ABS, f"table mean {mean:.12f}, kappa_1 {k1:.12f}")
    var = float(((x - k1) ** 2 * f).sum() * gamma)
    _require(abs(var / k2 - 1.0) <= VAR_REL, f"table variance {var:.10f}, kappa_2 {k2:.10f}")

    slope = (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * gamma)
    err_mu = float(np.abs(df_mu[2:-2] + slope).max())
    _require(err_mu <= STENCIL_ABS, f"df_mu off -df/dx by {err_mu:.3e}")

    prob = _PROB_LINE.search(stdout)
    _require(prob is not None, "pdf did not print the interval probability")
    lo, hi, p = (float(g) for g in prob.groups())
    p_ref = float(np.diff(quad.cdf(np.array([lo, hi])))[0])
    _require(abs(p - p_ref) <= PRINT6_REL * p_ref + 1e-9, f"P({lo} < X <= {hi}) printed {p}, oracle {p_ref:.9f}")
    _require(
        abs(p - PAPER_PROB[asset]) <= PAPER_PROB_ABS,
        f"P({lo} < X <= {hi}) = {p} is not within {PAPER_PROB_ABS} of the paper's {PAPER_PROB[asset]}",
    )


# ---------------------------------------------------------------- synth


def check_synth(draws: np.ndarray, params: dict, n: int) -> None:
    """Empirical CDF inside the DKW band around the oracle CDF at fixed points."""
    _require(draws.size == n, f"{draws.size} draws, expected {n}")
    _require(bool(np.all(np.isfinite(draws))), "non-finite draw")
    k1, k2 = gts_cumulants(params, 2)
    pts = k1 + math.sqrt(k2) * np.linspace(-4.0, 4.0, 17)
    quad = gts_quadrature(params, 4.0 * math.sqrt(k2))
    ecdf = np.searchsorted(np.sort(draws), pts, side="right") / n
    eps = math.sqrt(math.log(2.0 / DKW_DELTA) / (2.0 * n))
    dev = float(np.abs(ecdf - quad.cdf(pts)).max())
    _require(dev <= eps, f"empirical CDF leaves the DKW band: {dev:.5f} > {eps:.5f}")
