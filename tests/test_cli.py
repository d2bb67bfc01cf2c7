"""End-to-end command line runs through main(); exit codes and artifacts."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gtsfit import cli, data
from gtsfit.cli import (
    _CONFIG_TYPES,
    DEFAULT_LEVELS,
    EXIT_INPUT,
    EXIT_NO_CONVERGENCE,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    RunConfig,
    main,
)
from gtsfit.data import DegenerateSampleError, EmptyDataError, ParseError
from gtsfit.gts_model import BranchCutError, DomainError, GtsParams, load_params, moment_stats, save_params
from gtsfit.mle import NonFiniteLikelihoodError, SingularHessianError, sample_inverse_cdf
from gtsfit.risk import BracketEdgeError, ContourError, DivergentContourError, EmptySampleError
from gtsfit.special_linalg import ConvergenceError, NumericError, PoleError, SingularMatrixError
from gtsfit.spectral import GridError, SpanError, choose_grid, density_table, write_density_csv

from conftest import BTC_PARAMS, SP_PARAMS


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


@pytest.mark.parametrize("with_params", [False, True])
def test_stats_csv_bytes_match_the_row_template(with_params, returns_csv, sp_json, tmp_path):
    # stats.csv is "%s,%.17g" % row, plus ",%s" of the formatted theoretical
    # value (blank where the model has none) when --params is given
    out = tmp_path / "o1"
    args = ["stats", "--input", str(returns_csv), "--out", str(out)]
    assert main(args + (["--params", str(sp_json)] if with_params else [])) == EXIT_OK
    st = data.summary_stats(data.log_returns(data.load_price_csv(returns_csv)).values)
    theo = moment_stats(SP_PARAMS)
    names = ("n", "mean", "std_dev", "cv", "skewness", "kurtosis", "minimum", "maximum")
    emps = [float(st.n)] + [getattr(st, name) for name in names[1:]]
    if with_params:
        ths = [""] + ["%.17g" % getattr(theo, name) for name in names[1:6]] + ["", ""]
        want = "stat,empirical,theoretical\n" + "".join("%s,%.17g,%s\n" % row for row in zip(names, emps, ths))
    else:
        want = "stat,empirical\n" + "".join("%s,%.17g\n" % row for row in zip(names, emps))
    assert (out / "stats.csv").read_bytes() == want.encode("utf-8")


def test_pdf_runs(sp_json, tmp_path, capsys):
    out = tmp_path / "o3"
    code = main(["pdf", "--params", str(sp_json), "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "density.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].endswith(",normal")
    assert len(lines[1].split(",")) == 11
    assert "P(-1.06 < X <= 1.23)" in capsys.readouterr().out


def test_pdf_interval_wider_than_table(sp_json, tmp_path, capsys):
    # the endpoints are clamped into the table's span, which holds all but
    # ~1e-9 of the mass, so the answer is that mass, not a SpanError
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"interval": [-100, 100]}), encoding="utf-8")
    code = main(["pdf", "--config", str(cfg), "--params", str(sp_json), "--out", str(tmp_path / "o")])
    assert code == EXIT_OK
    assert "P(-100 < X <= 100) = 1\n" in capsys.readouterr().out


def test_pdf_density_csv_is_the_table_writer(sp_json, tmp_path):
    out = tmp_path / "o3b"
    assert main(["pdf", "--params", str(sp_json), "--out", str(out)]) == EXIT_OK
    params = load_params(sp_json)
    table = density_table(params, choose_grid(params, 8196), with_derivatives=True)
    write_density_csv(table, tmp_path / "table.csv")
    cli_lines = (out / "density.csv").read_bytes().split(b"\n")
    table_lines = (tmp_path / "table.csv").read_bytes().split(b"\n")
    assert len(cli_lines) == len(table_lines) == table.x.size + 2  # header, rows, final ""
    assert [ln.rpartition(b",")[0] for ln in cli_lines[:-1]] == table_lines[:-1]
    cells = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1)
    for k, col in enumerate([table.x, table.f, table.F, *table.df]):
        assert np.array_equal(cells[:, k], col)
    ms = moment_stats(params)
    normal = np.exp(-((table.x - ms.mean) ** 2) / (2.0 * ms.std_dev**2)) / np.sqrt(
        2.0 * np.pi * ms.std_dev**2
    )
    assert np.array_equal(cells[:, 10], normal)


def test_synth_csv_round_trips_draws(sp_json, tmp_path):
    # more draws than one write block, each at 17 significant digits
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"synth_n": 5000}), encoding="utf-8")
    out = tmp_path / "s"
    code = main(["synth", "--config", str(cfg), "--params", str(sp_json), "--seed", "5", "--out", str(out)])
    assert code == EXIT_OK
    draws = sample_inverse_cdf(load_params(sp_json), 5000, 5, 8196)
    want = ["value\n"] + [f"{v:.17g}\n" for v in draws]
    assert (out / "synth.csv").read_text(encoding="utf-8").splitlines(keepends=True) == want


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


def test_risk_runs_one_contour_per_tail(sp_json, tmp_path, contour_calls):
    # each tail's ladder is one avar call on one contour; the rows stay level
    # by level, the lower tail first
    out = tmp_path / "o5"
    assert main(["risk", "--params", str(sp_json), "--levels", "0.1,0.001,0.05", "--out", str(out)]) == EXIT_OK
    assert len(contour_calls) == 2
    rows = [line.split(",")[:2] for line in (out / "risk.csv").read_text(encoding="utf-8").splitlines()[1:]]
    want = [[side, "%.10g" % lv] for a in (0.1, 0.001, 0.05) for side, lv in (("LowerTail", a), ("UpperTail", 1.0 - a))]
    assert rows == want


def test_risk_csv_tells_tiny_levels_apart(sp_json, tmp_path):
    # --levels accepts tail levels down to 1e-9; each row's level reads back
    # within 1e-9, so no two rows of the ladder print alike
    out = tmp_path / "o5"
    alphas = (1e-9, 1e-5, 4e-5)
    assert main(["risk", "--params", str(sp_json), "--levels", ",".join(map(str, alphas)), "--out", str(out)]) == EXIT_OK
    lines = (out / "risk.csv").read_text(encoding="utf-8").splitlines()[1:]
    levels = [float(line.split(",")[1]) for line in lines]
    want = [lv for a in alphas for lv in (a, 1.0 - a)]
    assert len(levels) == len(want) and all(abs(g - w) <= 1e-9 for g, w in zip(levels, want)), levels
    assert len(set(levels)) == len(set(lines)) == len(lines)


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


def test_vol_csv_bytes_match_the_row_template(returns_csv, tmp_path):
    # each vol file is "%s,%.17g" % (ISO date, volatility) per window end
    out = tmp_path / "o7"
    assert main(["vol", "--input", str(returns_csv), "--out", str(out)]) == EXIT_OK
    rets = data.log_returns(data.load_price_csv(returns_csv))
    for fname, window in (("vol_monthly.csv", 21), ("vol_yearly.csv", 252)):
        dates, vols = data.realized_vol(rets, window)
        want = "date,value\n" + "".join("%s,%.17g\n" % (d.isoformat(), v) for d, v in zip(dates, vols.tolist()))
        assert (out / fname).read_bytes() == want.encode("utf-8"), fname


def test_json_inputs_skip_byte_order_mark(sp_json, tmp_path, capsys):
    # spreadsheet tools save JSON with a UTF-8 byte-order mark; a marked
    # parameter or config file gives the unmarked file's artifacts and output
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"synth_n": 64}), encoding="utf-8")
    marked = {}
    for path in (sp_json, cfg):
        marked[path] = tmp_path / f"bom_{path.name}"
        marked[path].write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    runs = {}
    for tag, params, config in (("plain", sp_json, cfg), ("bom", marked[sp_json], marked[cfg])):
        out = tmp_path / tag
        assert main(["pdf", "--params", str(params), "--out", str(out / "pdf")]) == EXIT_OK
        synth = ["synth", "--config", str(config), "--params", str(sp_json), "--seed", "9", "--out", str(out / "s")]
        assert main(synth) == EXIT_OK
        files = (out / "pdf" / "density.csv", out / "s" / "synth.csv")
        runs[tag] = [f.read_bytes() for f in files], capsys.readouterr().out
    assert runs["bom"] == runs["plain"]


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


def test_manifest_input_hash_covers_both_files(returns_csv, tmp_path):
    # one --params path holding SP and then BTC parameters: the same paths,
    # so the same config_hash, but the runs differ and so must input_hash
    params = tmp_path / "p.json"
    manifests = []
    for name, p in (("sp", SP_PARAMS), ("btc", BTC_PARAMS)):
        save_params(p, params)
        out = tmp_path / name
        code = main(["stats", "--input", str(returns_csv), "--params", str(params), "--out", str(out)])
        assert code == EXIT_OK
        manifests.append(json.loads((out / "manifest.json").read_bytes()))
    assert manifests[0]["config_hash"] == manifests[1]["config_hash"]
    assert manifests[0]["input_hash"] != manifests[1]["input_hash"]


def test_manifest_input_hash_of_one_file(sp_json, tmp_path):
    # a run given one file keeps that file's plain SHA-256
    code = main(["pdf", "--params", str(sp_json), "--out", str(tmp_path)])
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_bytes())
    assert manifest["input_hash"] == hashlib.sha256(sp_json.read_bytes()).hexdigest()


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


@pytest.mark.parametrize("val", [None, True, "0.1", [0.1], {"value": 0.1}])
def test_params_value_must_be_json_number(val, tmp_path, capsys):
    # float() would crash on null, a list or an object, read true as 1.0 and
    # a string as its number: each is an input error that names the key
    bad = tmp_path / "bad3.json"
    payload = SP_PARAMS.to_json()
    payload["mu"] = val
    bad.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "o"
    code = main(["pdf", "--params", str(bad), "--out", str(out)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "'mu'" in err and "JSON number" in err
    assert not out.exists()


def test_params_integer_beyond_float_range(tmp_path, capsys):
    # float(10**400) overflows: an input error naming the key, not exit 4
    bad = tmp_path / "huge.json"
    payload = SP_PARAMS.to_json()
    payload["mu"] = 10**400
    bad.write_text(json.dumps(payload), encoding="utf-8")
    code = main(["pdf", "--params", str(bad), "--out", str(tmp_path / "o")])
    assert code == EXIT_INPUT
    assert "parameter 'mu' is an integer too large for a float" in capsys.readouterr().err


def test_bad_levels_rejected(sp_json, tmp_path):
    code = main([
        "risk", "--params", str(sp_json), "--levels", "0.05,1.5", "--out", str(tmp_path)
    ])
    assert code == EXIT_INPUT


def test_levels_that_are_not_numbers_are_a_usage_error(sp_json, tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["risk", "--params", str(sp_json), "--levels", "0.05,x", "--out", str(out)])
    assert exc.value.code == EXIT_INPUT
    assert "argument --levels: not a comma-separated list of numbers: '0.05,x'" in capsys.readouterr().err
    assert not out.exists()


def test_risk_level_outside_tail_range_rejected_before_work(sp_json, tmp_path, capsys, monkeypatch):
    # levels are tail probabilities: 0.6 is refused by the config check,
    # before any table or ladder rung is computed
    import gtsfit.cli

    tables = []
    monkeypatch.setattr(gtsfit.cli, "density_table", lambda *args, **kw: tables.append(args))
    out = tmp_path / "o"
    code = main(["risk", "--params", str(sp_json), "--levels", "0.05,0.6", "--out", str(out)])
    assert code == EXIT_INPUT
    assert "risk level 0.6 outside (0, 0.5)" in capsys.readouterr().err
    assert not (out / "risk.csv").exists()
    assert tables == []


def test_grid_m_multiple_of_12(sp_json, tmp_path):
    code = main([
        "pdf", "--params", str(sp_json), "--grid-m", "8192", "--out", str(tmp_path)
    ])
    assert code == EXIT_INPUT


# the flags each command reads besides --config and --out
_READS = {
    "stats": ("--input", "--params"),
    "fit": ("--input", "--params", "--grid-m"),
    "pdf": ("--params", "--grid-m"),
    "risk": ("--params", "--input", "--grid-m", "--levels"),
    "vol": ("--input", "--window"),
    "synth": ("--params", "--grid-m", "--seed"),
}
_FLAGS = ("--input", "--params", "--grid-m", "--levels", "--seed", "--window")


@pytest.mark.parametrize(
    "command, flag", [(c, f) for c, reads in _READS.items() for f in _FLAGS if f not in reads]
)
def test_flag_the_command_does_not_read_exits_2(command, flag, returns_csv, sp_json, tmp_path, capsys):
    # a run that is complete but for one flag its command would ignore is
    # refused by the parser with exit 2, naming the flag, before any output
    values = {
        "--input": str(returns_csv), "--params": str(sp_json), "--grid-m": "8196",
        "--levels": "0.01", "--seed": "3", "--window": "month",
    }
    out = tmp_path / "o"
    argv = [command, *(a for f in _READS[command] for a in (f, values[f])), flag, values[flag], "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    assert f"unrecognized arguments: {flag} {values[flag]}" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key(sp_json, tmp_path, capsys):
    # a misspelt key and retired ones (the fitter's step_damping and grad_tol,
    # now fixed) all end in exit 2 naming the key
    for key, val in (("grid_n", 12), ("step_damping", 50), ("grad_tol", 1e-6)):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: val}), encoding="utf-8")
        code = main(["pdf", "--config", str(cfg), "--params", str(sp_json), "--out", str(tmp_path)])
        assert code == EXIT_INPUT
        assert f"unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, val",
    [
        ("seed", "abc"),
        ("grid_m", "8196"),
        ("grid_m", 8196.0),
        ("max_iter", None),
        ("synth_n", True),
        ("levels", 0.05),
        ("levels", [0.05, "x"]),
        ("levels", []),
        ("interval", None),
        ("max_iter", 0),
        ("seed", -1),
    ],
)
def test_bad_config_value_names_key_and_value(key, val, sp_json, tmp_path, capsys):
    # a wrong type or a value out of range ends in exit 2 naming the key and
    # the value, before any output is written
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({key: val}), encoding="utf-8")
    out = tmp_path / "o"
    code = main(["risk", "--config", str(cfg), "--params", str(sp_json), "--out", str(out)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert key in err and repr(val).strip("'") in err
    assert not out.exists()


def test_config_types_cover_every_field():
    assert set(_CONFIG_TYPES) == {f.name for f in dataclasses.fields(RunConfig)}


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


@pytest.mark.parametrize(
    "cls, builtin",
    [
        (GridError, RuntimeError),
        (SpanError, ValueError),
        (ContourError, RuntimeError),
        (DivergentContourError, RuntimeError),
        (BracketEdgeError, ValueError),
        (SingularMatrixError, ValueError),
        (ConvergenceError, RuntimeError),
        (PoleError, ValueError),
        (SingularHessianError, RuntimeError),
        (NonFiniteLikelihoodError, RuntimeError),
    ],
)
def test_numeric_errors_share_one_base(cls, builtin):
    # exit 4 is decided by the base; the builtin base keeps old handlers working
    assert issubclass(cls, NumericError)
    assert issubclass(cls, builtin)


@pytest.mark.parametrize(
    "cls",
    [BranchCutError, DomainError, ConfigError, ParseError, EmptyDataError, DegenerateSampleError, EmptySampleError],
)
def test_input_errors_are_not_numeric(cls):
    assert issubclass(cls, ValueError)
    assert not issubclass(cls, NumericError)


def test_numeric_error_exits_4_without_manifest(sp_json, tmp_path, monkeypatch, capsys):
    def boom(cfg):
        cli._outdir(cfg)
        raise GridError("contract broken")

    monkeypatch.setitem(cli._COMMANDS, "pdf", boom)
    out = tmp_path / "o"
    assert main(["pdf", "--params", str(sp_json), "--out", str(out)]) == EXIT_NUMERIC
    assert "contract broken" in capsys.readouterr().err
    assert out.is_dir() and not (out / "manifest.json").exists()


def test_manifest_written_whatever_code_returned(sp_json, tmp_path, monkeypatch):
    # main writes the manifest once, after the command, for any exit code
    monkeypatch.setitem(cli._COMMANDS, "pdf", lambda cfg: EXIT_NO_CONVERGENCE)
    out = tmp_path / "o"
    assert main(["pdf", "--params", str(sp_json), "--out", str(out)]) == EXIT_NO_CONVERGENCE
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["command"] == "pdf"


def _price_csv(path, prices):
    import datetime

    start = datetime.date(2022, 1, 3)
    lines = ["Date,Adj Close"]
    lines += [f"{(start + datetime.timedelta(days=k)).isoformat()},{float(p)!r}" for k, p in enumerate(prices)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_fit_constant_series_is_input_error(tmp_path, capsys):
    # zero sample deviation has no moment-matched start: a typed input error
    prices = _price_csv(tmp_path / "flat.csv", np.full(600, 100.0))
    out = tmp_path / "o"
    assert main(["fit", "--input", str(prices), "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "standard deviation 0" in err and "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_fit_tiny_variance_series_is_numeric_error(tmp_path, capsys):
    # a positive but tiny deviation starts the fit, whose grid cannot cover the tail
    u = np.random.default_rng(3).random(600)
    prices = _price_csv(tmp_path / "tiny.csv", 100.0 * (1.0 + 1e-9 * u))
    out = tmp_path / "o"
    assert main(["fit", "--input", str(prices), "--out", str(out)]) == EXIT_NUMERIC
    assert "characteristic function tail not covered" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_fit_tiny_variance_error_names_sample_scale(tmp_path, capsys):
    # the starting grid's failure quotes the sample's size and scale
    u = np.random.default_rng(3).random(600)
    prices = _price_csv(tmp_path / "tiny.csv", 100.0 * (1.0 + 1e-9 * u))
    rets = data.log_returns(data.load_price_csv(prices)).values
    assert main(["fit", "--input", str(prices), "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert f"sample of n = {rets.size}, standard deviation {np.std(rets, ddof=1):.3e}: " in err


_SRC = str(Path(cli.__file__).resolve().parents[1])


def _fresh(code, **env_set):
    """Run ``code`` in a new interpreter on this tree's gtsfit; its stdout is one JSON value."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = _SRC
    env.update(env_set)
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


def test_import_gtsfit_loads_no_numpy():
    code = (
        "import json, os, sys; before = dict(os.environ); import gtsfit; "
        "print(json.dumps(['numpy' in sys.modules, dict(os.environ) == before]))"
    )
    assert _fresh(code) == [False, True]


def test_lazy_public_names_resolve():
    import gtsfit
    from gtsfit import gts_model, mle, risk, spectral

    namespace = {}
    exec("from gtsfit import *", namespace)
    assert set(gtsfit.__all__) <= set(namespace)
    for name in gtsfit.__all__:
        assert getattr(gtsfit, name) is namespace[name]
    assert gtsfit.GtsParams is gts_model.GtsParams and gtsfit.choose_grid is spectral.choose_grid
    assert gtsfit.fit is mle.fit and gtsfit.var is risk.var
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        gtsfit.nope


def test_cli_defaults_to_one_blas_thread():
    code = (
        "import json, os\n"
        "from gtsfit.cli import main\n"
        "import numpy as np\n"
        "a = np.ones((256, 256)); a @ a\n"
        "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
        "blas = np.__config__.CONFIG['Build Dependencies']['blas']['name']\n"
        "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), tasks, blas]))"
    )
    threads, tasks, blas = _fresh(code)
    assert threads == "1"
    if tasks is not None and "openblas" in blas:
        assert tasks == 1  # no worker pool beside the main thread


def test_cli_keeps_a_preset_blas_thread_count():
    code = "import json, os; import gtsfit.cli; print(json.dumps(os.environ['OPENBLAS_NUM_THREADS']))"
    assert _fresh(code, OPENBLAS_NUM_THREADS="2") == "2"


def test_cli_leaves_a_process_holding_numpy_alone():
    code = "import json, os; import numpy; import gtsfit.cli; print(json.dumps('OPENBLAS_NUM_THREADS' in os.environ))"
    assert _fresh(code) is False
