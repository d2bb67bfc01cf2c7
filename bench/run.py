"""Benchmark of gtsfit's user jobs, one fresh ``gtsfit`` process per command.

    python3 bench/run.py --workload {fit-sp,risk-ladder,tables} --seed N --seconds S --trace {0,1}

A closed loop with one job in flight runs the workload's job again and again
until the next job would end after ``--seconds`` of job time (at least one
job).  A job is a fixed sequence of ``gtsfit`` processes; it fails when a
process exits non-zero or is killed, or when an output check fails.  Outputs
are checked outside the timed region; a job whose outputs are byte-identical
to an earlier job's reuses that verdict.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs every
workload's job once under ``traced.py`` and reports the per-layer metrics
(see README.md).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import datetime as dt
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from common import (
    OUT_DIR,
    PARAMS,
    BenchError,
    load_returns,
    price_returns,
    require_source,
    run_gtsfit,
    write_json,
    write_price_csv,
)

WORKLOADS = ("fit-sp", "risk-ladder", "tables")
SYNTH_N = 100_000
SETUP_REPEATS = 11
RUN_LIMIT_S = 165.0  # every process of a run ends within this many seconds


@dataclass(frozen=True)
class Step:
    """One ``gtsfit`` command of a job, the files it writes and their check."""

    name: str
    args: list
    outputs: tuple
    check: Callable[[Path, str], None]


def build_inputs(dest: Path, seed: int) -> dict:
    """Write every workload's input files into ``dest``.

    The returns are the fixed series under ``data/``; the seed picks the
    starting price and date of each price path and the synth RNG seed.
    """
    rng = np.random.default_rng(seed)
    dest.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key in ("fit_sp", "emp_sp", "emp_btc"):
        paths[key] = dest / f"{key}.csv"
        start = dt.date(1970, 1, 1) + dt.timedelta(days=int(rng.integers(0, 3650)))
        write_price_csv(load_returns(key), paths[key], float(rng.uniform(10.0, 1000.0)), start)
    synth_seed = int(rng.integers(0, 2**31 - 1))
    for asset in ("sp", "btc"):
        paths[asset] = dest / f"{asset}.json"
        write_json({**PARAMS[asset], "units": "percent"}, paths[asset])
        paths[f"synth_{asset}"] = dest / f"synth_{asset}.json"
        write_json({"params_path": str(paths[asset]), "synth_n": SYNTH_N, "seed": synth_seed}, paths[f"synth_{asset}"])
    paths["synth_seed"] = synth_seed
    return paths


def _fit_check(inputs: dict) -> Callable[[Path, str], None]:
    def check(out: Path, stdout: str) -> None:
        with open(out / "params.json", encoding="utf-8") as fh:
            fitted = json.load(fh)
        trace = checks.read_trace(out / "trace.csv")
        checks.check_fit(stdout, trace, fitted, PARAMS["sp"], price_returns(inputs["fit_sp"]))

    return check


def _risk_check(inputs: dict, asset: str) -> Callable[[Path, str], None]:
    def check(out: Path, stdout: str) -> None:
        checks.check_risk(checks.read_risk(out / "risk.csv"), PARAMS[asset], price_returns(inputs[f"emp_{asset}"]))

    return check


def _pdf_check(asset: str) -> Callable[[Path, str], None]:
    def check(out: Path, stdout: str) -> None:
        checks.check_density(stdout, checks.read_density(out / "density.csv"), PARAMS[asset], asset)

    return check


def _synth_check(asset: str) -> Callable[[Path, str], None]:
    def check(out: Path, stdout: str) -> None:
        checks.check_synth(checks.read_synth(out / "synth.csv"), PARAMS[asset], SYNTH_N)

    return check


def job_steps(workload: str, inputs: dict) -> list:
    if workload == "fit-sp":
        return [
            Step(
                "fit-sp",
                ["fit", "--input", inputs["fit_sp"], "--params", inputs["sp"]],
                ("params.json", "trace.csv"),
                _fit_check(inputs),
            )
        ]
    if workload == "risk-ladder":
        return [
            Step(
                f"risk-{a}",
                ["risk", "--params", inputs[a], "--input", inputs[f"emp_{a}"]],
                ("risk.csv",),
                _risk_check(inputs, a),
            )
            for a in ("sp", "btc")
        ]
    return [
        Step(f"pdf-{a}", ["pdf", "--params", inputs[a]], ("density.csv",), _pdf_check(a)) for a in ("sp", "btc")
    ] + [
        Step(f"synth-{a}", ["synth", "--config", inputs[f"synth_{a}"]], ("synth.csv",), _synth_check(a))
        for a in ("sp", "btc")
    ]


def _digest(out: Path, stdout: str, names: tuple) -> str:
    h = hashlib.sha256(stdout.encode("utf-8"))
    for name in names:
        path = out / name
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


class Runner:
    """Runs jobs, checks their outputs once per distinct output and keeps score."""

    def __init__(self, run_dir: Path, deadline: float) -> None:
        self.run_dir = run_dir
        self.deadline = deadline
        self.verdicts: dict = {}
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.walls: list = []
        self.cpus: list = []
        self.peak_rss_mb = 0.0

    def job(self, steps: list, traced: bool = False) -> dict:
        """Run one job; returns {step name: its output directory}."""
        self.attempted += 1
        wall = cpu = 0.0
        ok = True
        outs = {}
        for step in steps:
            out = self.run_dir / "jobs" / step.name
            shutil.rmtree(out, ignore_errors=True)
            spans = out / "spans.json" if traced else None
            res = run_gtsfit(step.args + ["--out", out], out, self.deadline - time.monotonic(), spans)
            wall += res.wall_s
            cpu += res.cpu_s
            self.peak_rss_mb = max(self.peak_rss_mb, res.maxrss_mb)
            outs[step.name] = out
            if res.code != 0:
                print(f"{step.name}: exit {res.code}: {res.stderr.strip()[-500:]}", file=sys.stderr)
                ok = False
                break
            key = _digest(out, res.stdout, step.outputs)
            if key not in self.verdicts:
                try:
                    step.check(out, res.stdout)
                    self.verdicts[key] = None
                except (checks.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
                    self.verdicts[key] = f"{type(exc).__name__}: {exc}"
            if self.verdicts[key] is not None:
                print(f"{step.name}: check failed: {self.verdicts[key]}", file=sys.stderr)
                self.incorrect += 1
                ok = False
                break
        self.walls.append(wall)
        self.cpus.append(cpu)
        if not ok:
            self.failed += 1
        print(f"job {self.attempted}: {wall:.3f} s wall, {cpu:.3f} s cpu, {'ok' if ok else 'FAILED'}", file=sys.stderr)
        return outs


def timed_setup(run_dir: Path, seed: int) -> tuple:
    """Build the inputs ``SETUP_REPEATS`` times; median seconds and the inputs."""
    times = []
    inputs = None
    for k in range(SETUP_REPEATS):
        dest = run_dir / f"inputs{k}"
        t0 = time.perf_counter()
        inputs = build_inputs(dest, seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), inputs


def end_to_end(workload: str, seed: int, seconds: float, run_dir: Path, deadline: float) -> tuple:
    setup_s, inputs = timed_setup(run_dir, seed)
    runner = Runner(run_dir, deadline)
    steps = job_steps(workload, inputs)
    while True:
        runner.job(steps)
        spent = sum(runner.walls)
        nxt = statistics.median(runner.walls)
        if spent + nxt > seconds or time.monotonic() + 1.5 * nxt > deadline:
            break
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_s": (statistics.median(runner.walls), "s"),
        "job_cpu_s": (statistics.median(runner.cpus), "s"),
        "peak_rss_mb": (runner.peak_rss_mb, "MB"),
    }
    return runner, metrics


def traced(workload: str, seed: int, run_dir: Path, deadline: float) -> tuple:
    import layers

    _, inputs = timed_setup(run_dir, seed)
    runner = Runner(run_dir, deadline)
    metrics = {}
    for name in (workload,) + tuple(w for w in WORKLOADS if w != workload):
        steps = job_steps(name, inputs)
        outs = runner.job(steps, traced=True)
        if name == workload:
            metrics["trace.job_s"] = (runner.walls[-1], "s")
        if runner.failed:
            return runner, metrics
        spans = {s: json.loads((d / "spans.json").read_text(encoding="utf-8"))["spans"] for s, d in outs.items()}
        if name == "fit-sp":
            metrics.update(layers.fit_metrics(spans["fit-sp"], outs["fit-sp"] / "trace.csv"))
        elif name == "tables":
            metrics.update(layers.pdf_metrics(spans["pdf-btc"], outs["pdf-btc"] / "density.csv"))
    metrics.update(layers.call_metrics(inputs, SYNTH_N, inputs["synth_seed"]))
    return runner, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        require_source()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    run_dir = OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    if args.trace:
        runner, metrics = traced(args.workload, args.seed, run_dir, deadline)
    else:
        runner, metrics = end_to_end(args.workload, args.seed, args.seconds, run_dir, deadline)
    if runner.failed == runner.attempted or (args.trace and runner.failed):
        print(f"bench: {runner.failed} of {runner.attempted} jobs failed; no metrics", file=sys.stderr)
        return 1
    if runner.failed == 0:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {
        "correct": runner.incorrect == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
