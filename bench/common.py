"""Shared pieces of the benchmark: locations, reference parameters, fixed
inputs, price-CSV writing and timed child processes."""

from __future__ import annotations

import datetime as dt
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA_DIR = BENCH_DIR / "data"
OUT_DIR = ROOT / ".bench_out"

# The paper's daily fits, percent log-return units (the reference sets of the
# test suite and the README).
PARAMS = {
    "sp": {
        "mu": -0.693477,
        "beta_plus": 0.682290,
        "beta_minus": 0.242579,
        "alpha_plus": 0.458582,
        "alpha_minus": 0.414443,
        "lambda_plus": 0.822222,
        "lambda_minus": 0.727607,
    },
    "btc": {
        "mu": -0.736924,
        "beta_plus": 0.461378,
        "beta_minus": 0.267178,
        "alpha_plus": 0.810017,
        "alpha_minus": 0.517347,
        "lambda_plus": 0.215628,
        "lambda_minus": 0.191937,
    },
}

# Seeds of the acceptance suite's draws: the fit sample is test_08's SP draw,
# the empirical series are test_10's draws.
FIT_SEED = 1290
FIT_N = 4000
EMP_SEEDS = {"sp": 2718, "btc": 577}
EMP_N = 10_000

# Fixed returns, one value per line; regenerated by make_inputs.py.
INPUT_FILES = {
    "fit_sp": DATA_DIR / "fit_sp_1290.txt",
    "emp_sp": DATA_DIR / "emp_sp_2718.txt",
    "emp_btc": DATA_DIR / "emp_btc_577.txt",
}


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def require_source() -> None:
    """Put the checkout's ``src`` first on the import path, or raise."""
    if not (SRC / "gtsfit" / "cli.py").is_file():
        raise BenchError(f"no gtsfit source under {SRC}")
    for name in INPUT_FILES.values():
        if not name.is_file():
            raise BenchError(f"missing fixed input {name}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_returns(key: str) -> np.ndarray:
    return np.loadtxt(INPUT_FILES[key])


def write_price_csv(returns: np.ndarray, path: Path, p0: float, start: dt.date) -> None:
    """Daily price path whose percent log returns are ``returns``."""
    prices = p0 * np.exp(np.concatenate(([0.0], np.cumsum(returns))) / 100.0)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("Date,Adj Close\n")
        for k, p in enumerate(prices):
            fh.write(f"{(start + dt.timedelta(days=k)).isoformat()},{p:.17g}\n")


def price_returns(path: Path) -> np.ndarray:
    """Percent log returns of a price CSV written by :func:`write_price_csv`,
    computed the way the program computes them."""
    prices = np.loadtxt(path, delimiter=",", skiprows=1, usecols=1)
    return 100.0 * np.log(prices[1:] / prices[:-1])


def write_json(obj, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# What the ``gtsfit`` console script runs.
GTSFIT = [sys.executable, "-c", "import sys; from gtsfit.cli import main; sys.exit(main())"]


@dataclass(frozen=True)
class ProcResult:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def run_gtsfit(args, workdir: Path, timeout_s: float, spans: Path | None = None) -> ProcResult:
    """Run one ``gtsfit`` process to completion and account for it.

    Wall time spans the start of the process to its reaping; CPU time and
    peak resident set come from the child's own rusage.  A process still
    running after ``timeout_s`` is killed and reported with code -9.  With
    ``spans`` the process runs under ``traced.py``, which writes its spans there.
    """
    argv = GTSFIT if spans is None else [sys.executable, str(BENCH_DIR / "traced.py"), str(spans)]
    workdir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv + [str(a) for a in args],
            stdout=out,
            stderr=err,
            stdin=subprocess.DEVNULL,
            env=child_env(),
            cwd=str(workdir),
        )
        timer = threading.Timer(max(timeout_s, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    return ProcResult(
        code=code,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )
