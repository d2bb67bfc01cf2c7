"""Command line interface: stats, fit, pdf, risk, vol, synth.

Each command writes its artifacts through ``data``'s writers and returns an
exit code; ``main`` then writes ``manifest.json`` whatever that code is.  A
command that raises leaves no manifest: a ``NumericError`` (or an overflow)
exits 4, an input, config or domain error exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# One BLAS thread per command: gtsfit's matrix products are small, and an
# OpenBLAS worker pool costs more CPU starting and spinning idle than it
# saves.  A caller's setting wins, and a process that already holds numpy
# (whose pool is started) is left alone.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__, data
from .gts_model import GtsParams, load_params, moment_stats, save_params
from .mle import FitOptions, FitStatus, fit, sample_inverse_cdf, write_trace_csv
from .risk import TailSide, avar, empirical_avar, empirical_var, prob_interval, write_risk_csv
from .special_linalg import NumericError
from .spectral import choose_grid, density_table, write_density_csv

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NUMERIC = 4

DEFAULT_LEVELS = (0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10)

class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    input_path: Optional[str] = None
    params_path: Optional[str] = None
    date_column: str = "Date"
    price_column: str = "Adj Close"
    grid_m: int = FitOptions.grid_m
    levels: Optional[tuple] = None
    output_dir: str = "."
    seed: int = 0
    window: Optional[str] = None
    synth_n: int = 4000
    interval: tuple = (-1.06, 1.23)
    max_iter: int = FitOptions.max_iter
    grad_tol: float = FitOptions.grad_tol

    def validate(self) -> None:
        if self.grid_m < 12 or self.grid_m % 12 != 0:
            raise ConfigError(f"grid_m must be a positive multiple of 12, got {self.grid_m}")
        if self.levels is not None:
            if not self.levels:
                raise ConfigError("levels must hold at least one tail probability, got []")
            for lv in self.levels:
                if not 0.0 < lv < 0.5:
                    raise ConfigError(f"risk level {lv} outside (0, 0.5): levels are tail probabilities")
        for name, least in (("seed", 0), ("synth_n", 1), ("max_iter", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if len(self.interval) != 2 or not self.interval[0] < self.interval[1]:
            raise ConfigError(f"interval must be an ordered pair, got {self.interval}")
        if self.window is not None and self.window not in ("month", "year"):
            try:
                w = int(self.window)
            except ValueError:
                raise ConfigError(
                    f"window must be 'month', 'year' or a positive integer, got {self.window!r}"
                ) from None
            if w < 1:
                raise ConfigError(f"window must be positive, got {w}")
        if not self.grad_tol > 0.0:
            raise ConfigError(f"grad_tol must be positive, got {self.grad_tol}")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gtsfit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    helps = {
        "stats": "summary statistics of a return series",
        "fit": "maximum likelihood parameter fit",
        "pdf": "tabulate density, CDF and derivative columns",
        "risk": "VaR and AVaR tables",
        "vol": "rolling realized volatility series",
        "synth": "seeded synthetic sample from fitted parameters",
    }
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--input", help="price CSV path")
        p.add_argument("--params", help="parameter JSON path")
        p.add_argument("--grid-m", type=int, dest="grid_m", help="transform size, multiple of 12")
        p.add_argument("--levels", help="comma-separated tail probabilities")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="RNG seed for synth")
        p.add_argument("--window", help="vol window: month, year or a day count")
    return ap


# JSON types accepted for each config key, None only for the Optional fields;
# a vol window may be a name or a day count
_CONFIG_TYPES = {
    **dict.fromkeys(("input_path", "params_path"), (str, type(None))),
    **dict.fromkeys(("date_column", "price_column", "output_dir"), str),
    **dict.fromkeys(("grid_m", "seed", "synth_n", "max_iter"), int),
    "levels": (list, type(None)),
    "interval": list,
    "window": (str, int, type(None)),
    "grad_tol": (int, float),
}


def _config_value(key: str, val):
    # a JSON true is a Python bool, an int subclass, and no count or number
    ok = isinstance(val, _CONFIG_TYPES[key]) and not isinstance(val, bool)
    if ok and isinstance(val, list):
        ok = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in val)
        val = tuple(float(x) for x in val) if ok else val
    if not ok:
        raise ConfigError(f"config key {key!r} has a value of the wrong type: {val!r}")
    return val


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            blob = json.load(fh)
        if not isinstance(blob, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, val in blob.items():
            if key not in _CONFIG_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(cfg, key, _config_value(key, val))
    if args.input is not None:
        cfg.input_path = args.input
    if args.params is not None:
        cfg.params_path = args.params
    if args.grid_m is not None:
        cfg.grid_m = args.grid_m
    if args.levels is not None:
        try:
            cfg.levels = tuple(float(tok) for tok in args.levels.split(","))
        except ValueError:
            raise ConfigError(f"bad --levels value {args.levels!r}") from None
    if args.out is not None:
        cfg.output_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    if args.window is not None:
        cfg.window = args.window
    cfg.validate()
    return cfg


def _outdir(cfg: RunConfig) -> Path:
    path = Path(cfg.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _input_sha256(cfg: RunConfig) -> Optional[str]:
    # the one input file's SHA-256; a run given both --input and --params
    # hashes the two digests, so the parameter file's content counts too
    digests = []
    for path in (cfg.input_path, cfg.params_path):
        if path is not None:
            with open(path, "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
    if len(digests) == 2:
        return hashlib.sha256(",".join(digests).encode("utf-8")).hexdigest()
    return digests[0] if digests else None


def _write_manifest(cfg: RunConfig, command: str) -> None:
    # the output location is where the run is written, not what it computes
    settings = dataclasses.asdict(cfg)
    del settings["output_dir"]
    blob = json.dumps(settings, sort_keys=True)
    manifest = {
        "tool": "gtsfit",
        "version": __version__,
        "command": command,
        "config_hash": hashlib.sha256(blob.encode("utf-8")).hexdigest(),
        "input_hash": _input_sha256(cfg),
    }
    data.write_json(_outdir(cfg) / "manifest.json", manifest)


def _load_returns(cfg: RunConfig) -> data.ReturnSeries:
    if cfg.input_path is None:
        raise ConfigError("--input is required for this command")
    cols = data.ColumnSpec(date_column=cfg.date_column, price_column=cfg.price_column)
    series = data.load_price_csv(cfg.input_path, cols)
    if series.dropped:
        print(f"note: dropped {series.dropped} unusable price rows", file=sys.stderr)
    return data.log_returns(series)


def _require_params(cfg: RunConfig) -> GtsParams:
    if cfg.params_path is None:
        raise ConfigError("--params is required for this command")
    params = load_params(cfg.params_path)
    params.validate()
    return params


def cmd_stats(cfg: RunConfig) -> int:
    rets = _load_returns(cfg)
    st = data.summary_stats(rets.values)
    theo = None
    if cfg.params_path is not None:
        theo = moment_stats(_require_params(cfg))
    outdir = _outdir(cfg)
    rows = [
        ("n", float(st.n), None),
        ("mean", st.mean, theo.mean if theo else None),
        ("std_dev", st.std_dev, theo.std_dev if theo else None),
        ("cv", st.cv, theo.cv if theo else None),
        ("skewness", st.skewness, theo.skewness if theo else None),
        ("kurtosis", st.kurtosis, theo.kurtosis if theo else None),
        ("minimum", st.minimum, None),
        ("maximum", st.maximum, None),
    ]
    names, emps, ths = zip(*rows)
    header, template, cols = "stat,empirical", "%s,%.17g", [names, emps]
    if theo:
        header, template = header + ",theoretical", template + ",%s"
        cols.append(["" if th is None else f"{th:.17g}" for th in ths])
    data.write_csv(outdir / "stats.csv", header, template, cols)
    width = 12
    print(f"{'stat':<10}{'empirical':>{width}}" + (f"{'theoretical':>{width}}" if theo else ""))
    for name, emp, th in rows:
        line = f"{name:<10}{emp:>{width}.6g}"
        if theo:
            line += f"{th:>{width}.6g}" if th is not None else " " * width
        print(line)
    return EXIT_OK


def cmd_fit(cfg: RunConfig) -> int:
    rets = _load_returns(cfg)
    if len(rets) < 500:
        print(f"warning: only {len(rets)} observations; fit may be unstable", file=sys.stderr)
    init = None
    if cfg.params_path is not None:
        init = _require_params(cfg)
    opts = FitOptions(max_iter=cfg.max_iter, grad_tol=cfg.grad_tol, grid_m=cfg.grid_m)
    params, trace, status = fit(rets.values, init, opts)
    outdir = _outdir(cfg)
    save_params(params, outdir / "params.json")
    write_trace_csv(trace, outdir / "trace.csv")
    last = trace.rows[-1]
    print(
        f"status {status.value}: {len(trace)} iterations, "
        f"log ML {last.log_ml:.6g}, grad norm {last.grad_norm:.6g}"
    )
    return EXIT_OK if status is FitStatus.CONVERGED else EXIT_NO_CONVERGENCE


def cmd_pdf(cfg: RunConfig) -> int:
    params = _require_params(cfg)
    grid = choose_grid(params, cfg.grid_m)
    table = density_table(params, grid, with_derivatives=True)
    ms = moment_stats(params)
    var_ = ms.std_dev**2
    normal = np.exp(-((table.x - ms.mean) ** 2) / (2.0 * var_)) / math.sqrt(2.0 * math.pi * var_)
    outdir = _outdir(cfg)
    write_density_csv(table, outdir / "density.csv", extra=("normal", normal))
    lo, hi = cfg.interval
    p = prob_interval(table, lo, hi)
    print(f"{table.x.size} grid points on [{table.x[0]:.6g}, {table.x[-1]:.6g}]")
    print(f"P({lo:.6g} < X <= {hi:.6g}) = {p:.6g}")
    return EXIT_OK


def cmd_risk(cfg: RunConfig) -> int:
    params = _require_params(cfg)
    levels = cfg.levels if cfg.levels is not None else DEFAULT_LEVELS
    sample = None
    if cfg.input_path is not None:
        sample = _load_returns(cfg).values
    grid = choose_grid(params, cfg.grid_m)
    table = density_table(params, grid)
    tails = [avar(params, table, levels, side) for side in TailSide]  # one contour per tail
    reports = []
    for lv, *pair in zip(levels, *tails):  # level by level, lower tail first
        for r in pair:
            if sample is not None:
                r = dataclasses.replace(
                    r, empirical_var=empirical_var(sample, r.level), empirical_avar=empirical_avar(sample, lv, r.side)
                )
            reports.append(r)
    outdir = _outdir(cfg)
    write_risk_csv(reports, outdir / "risk.csv")
    print(f"{'side':<10}{'level':>8}{'VaR':>12}{'AVaR':>12}")
    for r in reports:
        print(f"{r.side.value:<10}{r.level:>8.4g}{r.var:>12.6g}{r.avar:>12.6g}")
    return EXIT_OK


def cmd_vol(cfg: RunConfig) -> int:
    rets = _load_returns(cfg)
    outdir = _outdir(cfg)
    named = {"month": ("vol_monthly.csv", data.TRADING_DAYS_MONTH), "year": ("vol_yearly.csv", data.TRADING_DAYS_YEAR)}
    if cfg.window is None:
        jobs = tuple(named.values())
    elif cfg.window in named:
        jobs = (named[cfg.window],)
    else:
        jobs = ((f"vol_window{int(cfg.window)}.csv", int(cfg.window)),)
    for fname, w in jobs:
        dates, vols = data.realized_vol(rets, w)
        data.write_value_csv(dates, vols, outdir / fname)
        print(f"{fname}: {len(vols)} rows (window {w})")
    return EXIT_OK


def cmd_synth(cfg: RunConfig) -> int:
    params = _require_params(cfg)
    sample = sample_inverse_cdf(params, cfg.synth_n, cfg.seed, cfg.grid_m)
    outdir = _outdir(cfg)
    data.write_csv(outdir / "synth.csv", "value", "%.17g", [sample])
    print(f"wrote {sample.size} draws (seed {cfg.seed})")
    return EXIT_OK


_COMMANDS = {
    "stats": cmd_stats,
    "fit": cmd_fit,
    "pdf": cmd_pdf,
    "risk": cmd_risk,
    "vol": cmd_vol,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        code = _COMMANDS[args.command](cfg)
        _write_manifest(cfg, args.command)
        return code
    except (NumericError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
