"""Tests of the benchmark's oracle and output checks (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py

The checks must pass honest ``gtsfit`` outputs and reject corrupted ones.
The outputs come from one run of each SP command (about 30 s in all, most of
it the fit).
"""

from __future__ import annotations

import copy
import datetime as dt
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

import checks
from common import PARAMS, SRC, load_returns, price_returns, require_source, run_gtsfit, write_json, write_price_csv
from oracle import Quadrature, gts_cf, gts_cumulants

SYNTH_N = 20_000


def _norm_pdf(x, mean, sd):
    return np.exp(-0.5 * ((x - mean) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi))


def _norm_cdf(x, mean, sd):
    return np.array([0.5 * math.erfc(-(v - mean) / (sd * math.sqrt(2.0))) for v in x])


def test_oracle_reproduces_gaussian():
    mean, sd = 0.3, 1.7
    quad = Quadrature.build(lambda xi: np.exp(1j * mean * xi - 0.5 * (sd * xi) ** 2), mean, 60.0)
    x = np.linspace(-6.0, 6.0, 101)
    f, big_f = quad.evaluate(x)
    assert np.abs(f - _norm_pdf(x, mean, sd)).max() < 1e-14
    assert np.abs(big_f - _norm_cdf(x, mean, sd)).max() < 1e-14


@pytest.mark.parametrize("asset", ["sp", "btc"])
def test_oracle_cf_matches_cumulants(asset):
    # d/dxi log phi at 0 is i kappa_1 and d2/dxi2 is -kappa_2
    p = PARAMS[asset]
    k1, k2 = gts_cumulants(p, 2)
    h = 1e-4
    logs = np.log(gts_cf(p)(np.array([-h, 0.0, h])))
    assert abs((logs[2] - logs[0]).imag / (2 * h) - k1) < 1e-7
    assert abs((logs[2] - 2 * logs[1] + logs[0]).real / h**2 + k2) < 1e-5 * k2


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    require_source()
    base = tmp_path_factory.mktemp("bench")
    inputs = {"sp": base / "sp.json", "fit": base / "fit.csv", "emp": base / "emp.csv", "synth": base / "synth.json"}
    write_json({**PARAMS["sp"], "units": "percent"}, inputs["sp"])
    write_price_csv(load_returns("fit_sp"), inputs["fit"], 100.0, dt.date(2000, 1, 1))
    write_price_csv(load_returns("emp_sp"), inputs["emp"], 100.0, dt.date(2000, 1, 1))
    write_json({"params_path": str(inputs["sp"]), "synth_n": SYNTH_N, "seed": 11}, inputs["synth"])
    commands = {
        "fit": ["fit", "--input", inputs["fit"], "--params", inputs["sp"]],
        "risk": ["risk", "--params", inputs["sp"], "--input", inputs["emp"]],
        "pdf": ["pdf", "--params", inputs["sp"]],
        "synth": ["synth", "--config", inputs["synth"]],
    }
    out = {"inputs": inputs}
    for name, args in commands.items():
        res = run_gtsfit(args + ["--out", base / name], base / name, 170.0)
        assert res.code == 0, res.stderr
        out[name] = (base / name, res.stdout)
    yield out
    shutil.rmtree(base, ignore_errors=True)


def _fit_parts(outputs):
    path, stdout = outputs["fit"]
    fitted = json.loads((path / "params.json").read_text(encoding="utf-8"))
    return stdout, checks.read_trace(path / "trace.csv"), fitted, price_returns(outputs["inputs"]["fit"])


def test_fit_check_accepts_program_output(outputs):
    stdout, trace, fitted, returns = _fit_parts(outputs)
    checks.check_fit(stdout, trace, fitted, PARAMS["sp"], returns)


def test_fit_check_rejects_falling_log_ml(outputs):
    stdout, trace, fitted, returns = _fit_parts(outputs)
    bad = trace.copy()
    bad[len(bad) // 2, 8] -= 1e-6 * abs(bad[len(bad) // 2, 8])
    with pytest.raises(checks.CheckFailed, match="falls"):
        checks.check_fit(stdout, bad, fitted, PARAMS["sp"], returns)


def test_fit_check_rejects_uncertified_end(outputs):
    stdout, trace, fitted, returns = _fit_parts(outputs)
    bad = trace.copy()
    bad[-1, 10] = 1e-3
    with pytest.raises(checks.CheckFailed, match="eigenvalue"):
        checks.check_fit(stdout, bad, fitted, PARAMS["sp"], returns)


def test_fit_check_rejects_wrong_log_ml(outputs):
    stdout, trace, fitted, returns = _fit_parts(outputs)
    bad = trace.copy()
    bad[-1, 8] += 1e-4
    with pytest.raises(checks.CheckFailed, match="oracle"):
        checks.check_fit(stdout, bad, fitted, PARAMS["sp"], returns)


def _risk_parts(outputs):
    path, _ = outputs["risk"]
    return checks.read_risk(path / "risk.csv"), price_returns(outputs["inputs"]["emp"])


def test_risk_check_accepts_program_output(outputs):
    rows, sample = _risk_parts(outputs)
    checks.check_risk(rows, PARAMS["sp"], sample)


@pytest.mark.parametrize(
    "row, column",
    [
        (0, "theoretical_var"),
        (9, "theoretical_var"),
        (4, "theoretical_avar"),
        (21, "theoretical_avar"),
        (6, "empirical_var"),
        (13, "empirical_avar"),
    ],
)
def test_risk_check_rejects_shifted_row(outputs, row, column):
    rows, sample = _risk_parts(outputs)
    bad = copy.deepcopy(rows)
    bad[row][column] = f"{float(bad[row][column]) + 0.01:.4f}"
    with pytest.raises(checks.CheckFailed):
        checks.check_risk(bad, PARAMS["sp"], sample)


def _pdf_parts(outputs):
    path, stdout = outputs["pdf"]
    return stdout, checks.read_density(path / "density.csv")


def test_density_check_accepts_program_output(outputs):
    stdout, table = _pdf_parts(outputs)
    checks.check_density(stdout, table, PARAMS["sp"], "sp")


@pytest.mark.parametrize("column, match", [(1, "density"), (2, "CDF"), (3, "df_mu")])
def test_density_check_rejects_scaled_column(outputs, column, match):
    stdout, table = _pdf_parts(outputs)
    bad = table.copy()
    bad[:, column] *= 1.001
    with pytest.raises(checks.CheckFailed, match=match):
        checks.check_density(stdout, bad, PARAMS["sp"], "sp")


def test_density_check_rejects_wrong_probability(outputs):
    stdout, table = _pdf_parts(outputs)
    bad = stdout.replace("= 0.800249", "= 0.800259")
    assert bad != stdout
    with pytest.raises(checks.CheckFailed, match="oracle"):
        checks.check_density(bad, table, PARAMS["sp"], "sp")


def test_synth_check(outputs):
    path, _ = outputs["synth"]
    draws = checks.read_synth(path / "synth.csv")
    checks.check_synth(draws, PARAMS["sp"], SYNTH_N)
    with pytest.raises(checks.CheckFailed, match="DKW"):
        checks.check_synth(draws + 0.25, PARAMS["sp"], SYNTH_N)
    with pytest.raises(checks.CheckFailed, match="draws"):
        checks.check_synth(draws[:-1], PARAMS["sp"], SYNTH_N)


def test_source_is_the_checkout():
    require_source()
    import gtsfit

    assert Path(gtsfit.__file__).resolve().is_relative_to(SRC)
