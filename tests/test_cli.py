"""End-to-end command line runs through main(); exit codes and artifacts."""

import json

import numpy as np
import pytest

from gtsfit.cli import DEFAULT_LEVELS, EXIT_INPUT, EXIT_NO_CONVERGENCE, EXIT_NUMERIC, EXIT_OK, main
from gtsfit.gts_model import GtsParams, save_params

from conftest import SP_PARAMS


@pytest.fixture
def returns_csv(tmp_path):
    # 600 synthetic prices: enough rows to skip the small-sample warning path
    rng = np.random.default_rng(42)
    steps = rng.standard_normal(599) * 0.011
    prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
    import datetime

    start = datetime.date(2022, 1, 3)
    lines = ["Date,Adj Close"]
    for k, p in enumerate(prices):
        lines.append(f"{(start + datetime.timedelta(days=k)).isoformat()},{p:.10f}")
    path = tmp_path / "prices.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def sp_json(tmp_path):
    path = tmp_path / "sp.json"
    save_params(SP_PARAMS, path)
    return path


def test_stats_runs(returns_csv, sp_json, tmp_path, capsys):
    out = tmp_path / "o1"
    code = main([
        "stats", "--input", str(returns_csv), "--params", str(sp_json),
        "--out", str(out),
    ])
    assert code == EXIT_OK
    lines = (out / "stats.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "stat,empirical,theoretical"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == ["n", "mean", "std_dev", "cv", "skewness", "kurtosis", "minimum", "maximum"]
    assert (out / "manifest.json").exists()
    assert "kurtosis" in capsys.readouterr().out


def test_stats_without_params(returns_csv, tmp_path):
    out = tmp_path / "o2"
    code = main(["stats", "--input", str(returns_csv), "--out", str(out)])
    assert code == EXIT_OK
    header = (out / "stats.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "stat,empirical"


def test_pdf_runs(sp_json, tmp_path, capsys):
    out = tmp_path / "o3"
    code = main(["pdf", "--params", str(sp_json), "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "density.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].endswith(",normal")
    assert len(lines[1].split(",")) == 11
    assert "P(-1.06 < X <= 1.23)" in capsys.readouterr().out


def test_risk_with_empirical(returns_csv, sp_json, tmp_path):
    out = tmp_path / "o4"
    code = main([
        "risk", "--params", str(sp_json), "--input", str(returns_csv),
        "--levels", "0.05,0.01", "--out", str(out),
    ])
    assert code == EXIT_OK
    lines = (out / "risk.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 4  # two levels x two sides
    cells = lines[1].split(",")
    assert cells[0] in ("LowerTail", "UpperTail")
    assert cells[2] != ""  # empirical column populated


def test_risk_default_levels(sp_json, tmp_path):
    out = tmp_path / "o5"
    code = main(["risk", "--params", str(sp_json), "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "risk.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 2 * len(DEFAULT_LEVELS)
    cells = lines[1].split(",")
    assert cells[2] == "" and cells[4] == ""


def test_fit_max_iter_exit(returns_csv, sp_json, tmp_path, capsys):
    # a single Newton step cannot reach the optimum: exit code 3, artifacts kept
    out = tmp_path / "o6"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_iter": 1}), encoding="utf-8")
    code = main([
        "fit", "--config", str(cfg), "--input", str(returns_csv),
        "--params", str(sp_json), "--out", str(out),
    ])
    assert code == EXIT_NO_CONVERGENCE
    assert (out / "params.json").exists()
    trace_lines = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert trace_lines[0].startswith("iteration,mu,")
    assert len(trace_lines) == 2
    assert "MaxIter" in capsys.readouterr().out


def test_vol_windows(returns_csv, tmp_path):
    out = tmp_path / "o7"
    code = main(["vol", "--input", str(returns_csv), "--out", str(out)])
    assert code == EXIT_OK
    monthly = (out / "vol_monthly.csv").read_text(encoding="utf-8").splitlines()
    yearly = (out / "vol_yearly.csv").read_text(encoding="utf-8").splitlines()
    assert len(monthly) == 1 + 599 - 21
    assert len(yearly) == 1 + 599 - 252
    out2 = tmp_path / "o8"
    code = main(["vol", "--input", str(returns_csv), "--window", "10", "--out", str(out2)])
    assert code == EXIT_OK
    rows = (out2 / "vol_window10.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 1 + 599 - 10


def test_synth_deterministic(sp_json, tmp_path):
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"synth_n": 64}), encoding="utf-8")
        code = main([
            "synth", "--config", str(cfg), "--params", str(sp_json),
            "--seed", "9", "--out", str(out),
        ])
        assert code == EXIT_OK
        outs.append((out / "synth.csv").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].startswith(b"value\n")


def test_manifest_deterministic(sp_json, tmp_path):
    blobs = []
    for name in ("m1", "m2"):
        out = tmp_path / name
        code = main(["pdf", "--params", str(sp_json), "--out", str(out)])
        assert code == EXIT_OK
        blobs.append((out / "manifest.json").read_bytes())
    assert blobs[0] == blobs[1]
    manifest = json.loads(blobs[0])
    assert manifest["tool"] == "gtsfit"
    assert manifest["command"] == "pdf"
    assert set(manifest) == {"tool", "version", "command", "config_hash", "input_hash"}


def test_missing_input_is_input_error(tmp_path):
    code = main(["stats", "--input", str(tmp_path / "absent.csv"), "--out", str(tmp_path)])
    assert code == EXIT_INPUT


def test_malformed_params_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code = main(["pdf", "--params", str(bad), "--out", str(tmp_path)])
    assert code == EXIT_INPUT


def test_invalid_params_values(tmp_path):
    bad = tmp_path / "bad2.json"
    payload = GtsParams(0.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0).to_json()
    payload["beta_plus"] = 1.7
    bad.write_text(json.dumps(payload), encoding="utf-8")
    code = main(["pdf", "--params", str(bad), "--out", str(tmp_path)])
    assert code == EXIT_INPUT


def test_bad_levels_rejected(sp_json, tmp_path):
    code = main([
        "risk", "--params", str(sp_json), "--levels", "0.05,1.5", "--out", str(tmp_path)
    ])
    assert code == EXIT_INPUT


def test_grid_m_multiple_of_12(sp_json, tmp_path):
    code = main([
        "pdf", "--params", str(sp_json), "--grid-m", "8192", "--out", str(tmp_path)
    ])
    assert code == EXIT_INPUT


def test_unknown_config_key(sp_json, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"grid_n": 12}), encoding="utf-8")
    code = main(["pdf", "--config", str(cfg), "--params", str(sp_json), "--out", str(tmp_path)])
    assert code == EXIT_INPUT


def test_numeric_failure_exit(tmp_path):
    # valid parameters whose transform tail cannot be covered: numeric exit
    hard = tmp_path / "hard.json"
    save_params(GtsParams(0.0, 0.95, 0.95, 1e-8, 1e-8, 0.1, 0.1), hard)
    code = main(["pdf", "--params", str(hard), "--out", str(tmp_path)])
    assert code == EXIT_NUMERIC


def test_grid_above_node_cap_exit(sp_json, tmp_path):
    # a transform size above the node cap is refused before it is allocated
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"grid_m": 12 * (2**21 // 12 + 1)}), encoding="utf-8")
    code = main(["pdf", "--config", str(cfg), "--params", str(sp_json), "--out", str(tmp_path)])
    assert code == EXIT_NUMERIC
