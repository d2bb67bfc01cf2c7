#!/usr/bin/env python3
"""Compare the trapezoid rule with the composite 12-point Newton-Cotes rule
on the AVaR contour.

Usage:
    python scripts/contour_rule_scan.py

For the SP and BTC parameter sets of ``bench/common.py`` and each tail (the
put on Im z = -q, the call on Im z = +q) the script sums the payoff of
``risk.tail_payoff_fourier`` with the trapezoid step
h = 2 pi min(q, lambda - q) / N_C for N_C in 30..60, ``risk._CONTOUR_NODES``
being the value in use, and with the Newton-Cotes rule the contour used
before, at the step min(q/32, 2 pi/(32 (|k| + 1)), 0.02) on the same
half-width.  Each sum is compared with the trapezoid sum on 6 times the
nodes of the value in use (N_C = 6 ``_CONTOUR_NODES``):
- the ladder strikes, VaR of the default table at the 11 default levels and
  at 0.001, at avar's offset 0.45 lambda: the worst relative error;
- the far strikes k = +-3, +-10, +-40 at the offsets 0.45 lambda, 0.1 lambda
  and 0.05: the worst absolute error.

Under each error row, "nodes" is the largest node count of that row's
strikes.  A last line per tail checks the one-pass ladder: the largest
|one-pass - per-strike| payoff when the VaRs are summed as one array of
strikes on one contour rather than one call each, on the default ladder
(where every strike alone takes the same contour, so 0) and on the levels
1e-8, 1e-6 and 0.1 (BTC's 1e-8 alone takes a narrower contour).  The scan
takes about 10 s on one core.
"""

import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))
sys.dont_write_bytecode = True  # the bench modules are read, not compiled in place

from common import PARAMS  # noqa: E402

from gtsfit import risk  # noqa: E402
from gtsfit.cli import DEFAULT_LEVELS  # noqa: E402
from gtsfit.gts_model import GtsParams, char_exponent  # noqa: E402
from gtsfit.risk import PayoffSide, tail_payoff_fourier, var  # noqa: E402
from gtsfit.spectral import _composite_weights, choose_grid, density_table  # noqa: E402

SWEEP = (30, 35, 40, 45, 50, 60)  # values of N_C
REF_FACTOR = 6
LADDER_LEVELS = (0.001, *DEFAULT_LEVELS)
FAR_STRIKES = (-40.0, -10.0, -3.0, 3.0, 10.0, 40.0)
FAR_OFFSETS = (("0.45 lam", 0.45), ("0.1 lam", 0.1), ("0.05", None))
SPREAD_LEVELS = (1e-8, 1e-6, 0.1)


def trapezoid(params, k, q, side, nodes):
    """tail_payoff_fourier at N_C = nodes, with its contour's half-width R
    and node count."""
    contour, seen = risk._contour, []

    def record(*args):
        seen.append(args[2:])
        return contour(*args)

    saved, risk._CONTOUR_NODES, risk._contour = risk._CONTOUR_NODES, nodes, record
    try:
        value = tail_payoff_fourier(params, k, q, side)
    finally:
        risk._CONTOUR_NODES, risk._contour = saved, contour
    radius, n = seen[0]
    return value, radius, n + 1


def newton_cotes(params, k, q, side, radius):
    """The payoff by composite 12-point Newton-Cotes panels at the contour's
    former step on the half-width R, with the node count."""
    sgn = 1.0 if side is PayoffSide.CALL else -1.0
    h_target = min(q / 32.0, 2.0 * math.pi / (32.0 * (abs(k) + 1.0)), 0.02)
    panels = math.ceil(2.0 * radius / (12.0 * h_target))
    h = 2.0 * radius / (12 * panels)
    z = -radius + h * np.arange(12 * panels + 1) + 1j * sgn * q
    vals = np.exp(1j * z * k + char_exponent(params, -z)) / (z * z)
    acc = -h * np.einsum("q,q->", _composite_weights(panels), vals) / (2.0 * math.pi)
    return float(acc.real), 12 * panels + 1


def errors(params, strikes, q, side, relative):
    """Per rule (the N_C sweep, then "NC-12"): the worst error over the
    strikes against the reference, and the largest node count."""
    worst = {rule: [0.0, 0] for rule in (*SWEEP, "NC-12")}
    for k in strikes:
        ref, radius, _ = trapezoid(params, k, q, side, REF_FACTOR * risk._CONTOUR_NODES)
        scale = abs(ref) if relative else 1.0
        runs = []
        for nc in SWEEP:
            value, _, nodes = trapezoid(params, k, q, side, nc)
            runs.append((nc, value, nodes))
        runs.append(("NC-12", *newton_cotes(params, k, q, side, radius)))
        for rule, value, nodes in runs:
            entry = worst[rule]
            entry[0] = max(entry[0], abs(value - ref) / scale)
            entry[1] = max(entry[1], nodes)
    return worst


def one_pass_gap(params, strikes, q, side):
    """The largest |one-pass - per-strike| payoff over the strikes."""
    together = tail_payoff_fourier(params, np.array(strikes), q, side)
    return max(abs(t - tail_payoff_fourier(params, k, q, side)) for t, k in zip(together, strikes))


def rows(label, worst):
    err = "".join(f"{e:>9.1e}" for e, _ in worst.values())
    nodes = "".join(f"{n:>9d}" for _, n in worst.values())
    return [f"  {label:<24}{err}", f"  {'  nodes':<24}{nodes}"]


def main() -> int:
    print(
        f"N_C in use {risk._CONTOUR_NODES}; reference: trapezoid at N_C {REF_FACTOR * risk._CONTOUR_NODES}; "
        f"ladder levels {', '.join(f'{a:g}' for a in LADDER_LEVELS)}; far strikes {', '.join(f'{k:g}' for k in FAR_STRIKES)}"
    )
    head = "".join(f"{f'N_C {nc}':>9}" for nc in SWEEP) + f"{'NC-12':>9}"
    for key in ("sp", "btc"):
        params = GtsParams(**PARAMS[key])
        table = density_table(params, choose_grid(params))
        for side in (PayoffSide.PUT, PayoffSide.CALL):
            if side is PayoffSide.PUT:
                lam, name, tail = params.lambda_minus, "lambda_minus", lambda a: a
            else:
                lam, name, tail = params.lambda_plus, "lambda_plus", lambda a: 1.0 - a
            levels = [tail(a) for a in LADDER_LEVELS]
            print(f"== {key} {side.value.lower()}, {name} {lam:g}")
            print(f"  {'strikes, error':<24}{head}")
            ladder = [var(table, a) for a in levels]
            out = rows("ladder, relative", errors(params, ladder, 0.45 * lam, side, True))
            for label, share in FAR_OFFSETS:
                q = 0.05 if share is None else share * lam
                out += rows(f"far q {label}, absolute", errors(params, FAR_STRIKES, q, side, False))
            gaps = [
                one_pass_gap(params, [var(table, tail(a)) for a in ladder_levels], 0.45 * lam, side)
                for ladder_levels in (DEFAULT_LEVELS, SPREAD_LEVELS)
            ]
            out.append(
                f"  one pass - per strike, max |payoff difference|: default ladder {gaps[0]:.1e}, "
                f"levels {', '.join(f'{a:g}' for a in SPREAD_LEVELS)} {gaps[1]:.1e}"
            )
            print("\n".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
