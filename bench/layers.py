"""Per-layer metrics for the traced run.

Two sources:

* spans written by ``traced.py`` around the calls one layer makes into
  another during the traced ``gtsfit`` jobs (fit counts and shares, the pdf
  writer's time and bytes);
* timed calls into each layer's public functions, made here on the same
  inputs as the workloads.  Each figure is the median of a few repeats.

Every function used is a public name of the program.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import DEFAULT_LEVELS, read_trace
from common import PARAMS, child_env, price_returns


def _median_ms(fn, repeats: int) -> tuple:
    """Median wall milliseconds of ``repeats`` calls, and the last result."""
    times, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times), out


def _spans_under(spans: list, root: int) -> list:
    """Indices of the spans nested, at any depth, under span ``root``."""
    inside = {root}
    for i, span in enumerate(spans):
        if span[3] in inside:
            inside.add(i)
    inside.discard(root)
    return sorted(inside)


def _span(spans: list, name: str) -> int:
    hits = [i for i, s in enumerate(spans) if s[0] == name]
    if len(hits) != 1:
        raise RuntimeError(f"expected one {name} span, found {len(hits)}")
    return hits[0]


def fit_metrics(spans: list, trace_csv: Path) -> dict:
    """Counts and shares of one traced ``gtsfit fit`` process."""
    root = _span(spans, "cli.fit")
    fit_s = spans[root][2] - spans[root][1]
    inner = [spans[i] for i in _spans_under(spans, root) if spans[i][0].startswith("mle.spectral_tables")]
    calls = {o: sum(1 for s in inner if s[0] == f"mle.spectral_tables.o{o}") for o in (0, 1, 2)}
    share = sum(s[2] - s[1] for s in inner) / fit_s
    trace = read_trace(trace_csv)
    accepted = int(np.sum(np.any(trace[1:, 1:8] != trace[:-1, 1:8], axis=1)))
    trials = calls[0]
    return {
        "spectral.fit_calls.o0": (calls[0], "count"),
        "spectral.fit_calls.o1": (calls[1], "count"),
        "spectral.fit_calls.o2": (calls[2], "count"),
        "spectral.fit_share": (share, "ratio"),
        "mle.fit_s": (fit_s, "s"),
        "mle.fit_iterations": (int(trace.shape[0]), "count"),
        "mle.trial_accept_ratio": (accepted / trials if trials else 0.0, "ratio"),
        "mle.accepted_steps": (accepted, "count"),
        "mle.trial_evals": (trials, "count"),
    }


def pdf_metrics(spans: list, density_csv: Path) -> dict:
    """Time a traced ``gtsfit pdf`` spends outside ``density_table``, and its bytes."""
    main = spans[_span(spans, "cli.main")]
    table = spans[_span(spans, "cli.density_table")]
    outside = (main[2] - main[1]) - (table[2] - table[1])
    return {
        "cli.pdf_write_ms": (1e3 * outside, "ms"),
        "cli.density_csv_mb": (density_csv.stat().st_size / 1e6, "MB"),
    }


def import_ms(repeats: int = 3) -> float:
    """``import gtsfit.cli`` in a fresh interpreter, timed inside it."""
    code = "import time; t = time.perf_counter(); import gtsfit.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True, timeout=60
        )
        times.append(float(out.stdout.strip()))
    return 1e3 * statistics.median(times)


def call_metrics(inputs: dict, synth_n: int, synth_seed: int) -> dict:
    """Timed calls into each layer on the workloads' inputs (``src`` is on
    the import path: ``common.require_source`` ran first)."""
    from gtsfit import data, mle, risk, special_linalg
    from gtsfit.gts_model import GtsParams, char_fn, char_fn_grad, char_fn_hess, cumulants
    from gtsfit.spectral import choose_grid, density_table, spectral_tables

    m_target = 8192
    params = {a: GtsParams(**PARAMS[a]) for a in ("sp", "btc")}
    sp = params["sp"]
    out = {}

    # gts_model: the CF and its derivatives on the SP fit's frozen grid
    fit_grid = choose_grid(sp, m_target, refine=2)
    xi = (np.arange(fit_grid.m + 1) - fit_grid.m / 2.0) * fit_grid.beta_step
    out["gts_model.char_fn_ms"] = (_median_ms(lambda: char_fn(sp, xi), 5)[0], "ms")
    out["gts_model.char_fn_grad_ms"] = (_median_ms(lambda: char_fn_grad(sp, xi), 5)[0], "ms")
    out["gts_model.char_fn_hess_ms"] = (_median_ms(lambda: char_fn_hess(sp, xi), 3)[0], "ms")

    # spectral
    grid_ms, tables = [], {}
    for a, p in params.items():
        ms, grid = _median_ms(lambda: choose_grid(p, m_target), 5)
        grid_ms.append(ms)
        out[f"spectral.grid_m.{a}"] = (grid.m, "count")
        ms, tables[a] = _median_ms(lambda: density_table(p, grid), 5)
        out[f"spectral.table_o0_ms.{a}"] = (ms, "ms")
        ms, _ = _median_ms(lambda: density_table(p, grid, with_derivatives=True), 3 if a == "sp" else 2)
        out[f"spectral.table_o1_ms.{a}"] = (ms, "ms")
    out["spectral.choose_grid_ms"] = (statistics.mean(grid_ms), "ms")
    out["spectral.invert_o0_fit_ms"] = (_median_ms(lambda: spectral_tables(sp, fit_grid, 0), 5)[0], "ms")
    out["spectral.invert_o2_fit_ms"] = (_median_ms(lambda: spectral_tables(sp, fit_grid, 2), 3)[0], "ms")

    # mle at n = 4000 on the fit sample, at the truth
    returns = price_returns(inputs["fit_sp"])
    out["mle.loglik_ms"] = (_median_ms(lambda: mle.loglik(returns, sp, m_target), 5)[0], "ms")
    ms, grad = _median_ms(lambda: mle.score(returns, sp, m_target), 3)
    out["mle.score_ms"] = (ms, "ms")
    ms, hess = _median_ms(lambda: mle.observed_hessian(returns, sp, m_target), 3)
    out["mle.observed_hessian_ms"] = (ms, "ms")
    ms, draws = _median_ms(lambda: mle.sample_inverse_cdf(sp, synth_n, synth_seed, m_target), 1)
    out["mle.sample_ms"] = (ms, "ms")
    table_ms = out["spectral.table_o0_ms.sp"][0] + grid_ms[0]
    out["mle.sample_us_per_draw"] = (1e3 * (ms - table_ms) / draws.size, "us")

    # special_linalg on the SP fit sample's observed Hessian
    out["special_linalg.eigen_sym_us"] = (1e3 * _median_ms(lambda: special_linalg.eigen_sym(hess), 20)[0], "us")
    out["special_linalg.solve_sym_us"] = (1e3 * _median_ms(lambda: special_linalg.solve_sym(hess, grad), 50)[0], "us")

    # risk: one cold offset search per asset, then the ladders
    q_ms, payoff_ms, avar_ms = [], [], []
    for a, p in params.items():
        # the anchor strike avar optimizes its offset at: two deviations below the mean
        cum = cumulants(p, 2)
        anchor = cum.kappa(1) - 2.0 * math.sqrt(cum.kappa(2))
        q_ms.append(_median_ms(lambda: risk.optimize_q(p, anchor), 1)[0])
        reports = []
        for alpha in DEFAULT_LEVELS:
            for side in (risk.TailSide.LOWER_TAIL, risk.TailSide.UPPER_TAIL):
                ms, rep = _median_ms(lambda: risk.avar(p, tables[a], alpha, side), 1)
                if reports:  # the first call per asset also runs the offset search
                    avar_ms.append(ms)
                reports.append(rep)
        for rep in reports:
            payoff_side = risk.PayoffSide.PUT if rep.q_used < 0 else risk.PayoffSide.CALL
            payoff_ms.append(
                _median_ms(lambda: risk.tail_payoff_fourier(p, rep.var, abs(rep.q_used), payoff_side), 1)[0]
            )
    out["risk.optimize_q_ms"] = (statistics.mean(q_ms), "ms")
    out["risk.payoff_ms"] = (statistics.median(payoff_ms), "ms")
    out["risk.avar_ms"] = (statistics.median(avar_ms), "ms")
    levels = list(DEFAULT_LEVELS) + [1.0 - a for a in DEFAULT_LEVELS]
    var_ms, _ = _median_ms(lambda: [risk.var(tables["sp"], lv) for lv in levels], 5)
    out["risk.var_us"] = (1e3 * var_ms / len(levels), "us")
    sample = price_returns(inputs["emp_sp"])

    def empirical():
        for alpha in DEFAULT_LEVELS:
            risk.empirical_var(sample, alpha)
            risk.empirical_var(sample, 1.0 - alpha)
            risk.empirical_avar(sample, alpha, risk.TailSide.LOWER_TAIL)
            risk.empirical_avar(sample, alpha, risk.TailSide.UPPER_TAIL)

    out["risk.empirical_ms"] = (_median_ms(empirical, 5)[0], "ms")
    out["risk.prob_interval_us"] = (
        1e3 * _median_ms(lambda: risk.prob_interval(tables["sp"], -1.06, 1.23), 50)[0],
        "us",
    )

    # data and cli
    out["data.load_price_csv_ms"] = (_median_ms(lambda: data.load_price_csv(inputs["emp_sp"]), 3)[0], "ms")
    out["cli.import_ms"] = (import_ms(), "ms")
    return out
