#!/usr/bin/env python3
"""Compare the trapezoid rule with the composite 12-point Newton-Cotes rule
on the frequency side of the density inversion.

Usage:
    python scripts/xi_rule_scan.py

For the SP and BTC parameter sets of ``bench/common.py`` the script takes two
grids: ``choose_grid``'s full table grid, and the fit's ranged grid
(``mle._grid_for`` at the parameters on a sample of that asset: the
4000-return SP fit sample, the 10 000-return BTC series).  On each it sweeps
the frequency half count h of the grid, keeping the output nodes, and sums
the same characteristic-function samples with both rules.  The count is
shown as c, the trapezoid period 4 pi h / a over the distance the aliased
images must keep from the output window, so ``choose_grid``'s own count is
c = ``spectral._XI_MARGIN``; each count is rounded up to a multiple of 6, the
Newton-Cotes rule's panel size on the 2h+1 nodes.  The sweep runs on to
c = 12, past the counts (c 6 to 10 on these grids) from which the
Newton-Cotes sum reaches its floor.

Errors, each relative to its row's maximum:
- at order 0 the density row, at order 1 the worst of the density and its
  seven gradient rows, against the trapezoid sum on 3 times the chosen count;
- f and F of the tables on about 301 output nodes against the Gil-Pelaez
  reference sums of ``bench/oracle.py`` (f only on the fit grid, whose range
  has no CDF), the trapezoid sum at the chosen count and the Newton-Cotes sum
  at the largest swept count.

For each rule, "floor" is the error at the largest swept count, and "from c"
is the smallest count from which every larger count stays within 10 times
that floor.  The scan takes about 10 s on one core.
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))
sys.dont_write_bytecode = True  # the bench modules are read, not compiled in place

from common import PARAMS, load_returns  # noqa: E402
from oracle import gts_quadrature  # noqa: E402

from gtsfit import mle  # noqa: E402
from gtsfit.gts_model import GtsParams  # noqa: E402
from gtsfit.spectral import (  # noqa: E402
    _XI_MARGIN,
    DEFAULT_GRID_M,
    _composite_weights,
    _cumulative,
    _fast_len,
    _half_rows,
    _output_points,
    _transform_half,
    choose_grid,
)

SAMPLES = {"sp": "fit_sp", "btc": "emp_btc"}
SWEEP = (0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 12.0)  # values of c
REF_FACTOR = 3
ORACLE_NODES = 301


def _count(c, h0):
    # the frequency count at c, rounded up to a multiple of 6
    return 6 * math.ceil(c / _XI_MARGIN * h0 / 6)


def _rows(params, grid, h, order):
    """Trapezoid and Newton-Cotes rows on the grid's output nodes from one set
    of samples on h+1 frequency nodes (2h a multiple of 12 for the latter)."""
    g = dataclasses.replace(grid, h=h)
    half = _half_rows(params, g, order)
    trap = _transform_half(half, g)
    if h % 6:
        return trap, None
    nc = _composite_weights(h // 6)[h:]
    nc[0] *= 0.5
    return trap, _transform_half(half * (nc / g.half_weights[0]), g)


def _worst(rows, ref):
    return float((np.abs(rows - ref).max(axis=1) / np.abs(ref).max(axis=1)).max())


def _floor(counts, errs):
    # the smallest count from which every larger count stays within 10x the
    # error at the largest count
    floor = errs[-1]
    start = len(errs) - 1
    while start > 0 and errs[start - 1] <= 10.0 * floor:
        start -= 1
    return floor, counts[start]


def scan(name, params, grid, order):
    h0 = grid.h
    ref = _rows(params, grid, REF_FACTOR * h0, order)[0]
    counts = sorted({_count(c, h0) for c in SWEEP})
    print(f"{name}, order {order}: m {grid.m}, a {grid.a:g}, chosen h {h0}, reference h {REF_FACTOR * h0}")
    print(f"  {'c':>5} {'h':>6} {'trapezoid':>10} {'NC-12':>10}")
    errs = {"trapezoid": [], "NC-12": []}
    for h in counts:
        trap, nc = _rows(params, grid, h, order)
        errs["trapezoid"].append(_worst(trap, ref))
        errs["NC-12"].append(_worst(nc, ref))
        c = _XI_MARGIN * h / h0
        print(f"  {c:>5.2f} {h:>6d} {errs['trapezoid'][-1]:>10.1e} {errs['NC-12'][-1]:>10.1e}")
    trap_at_bound = _worst(_rows(params, grid, h0, order)[0], ref)
    print(f"  trapezoid at the chosen h {h0} (c {_XI_MARGIN:g}): {trap_at_bound:.1e}")
    for rule, e in errs.items():
        floor, start = _floor(counts, e)
        print(f"  {rule:>9} floor {floor:.1e}, reached from c {_XI_MARGIN * start / h0:.2f} (h {start})")


def against_oracle(name, key, params, grid):
    """f and F of both rules' tables against the oracle on about 301 nodes."""
    x = _output_points(grid)
    idx = np.unique(np.linspace(0, x.size - 1, ORACLE_NODES).round().astype(int))
    quad = gts_quadrature(PARAMS[key], float(np.abs(x[idx] - grid.center).max()))
    f_ref, big_f_ref = quad.evaluate(x[idx])
    full = grid.nodes == range(grid.m + 1)
    out = []
    for rule, h in (("trapezoid", grid.h), ("NC-12", _count(SWEEP[-1], grid.h))):
        trap, nc = _rows(params, grid, h, 0)
        f = (trap if rule == "trapezoid" else nc)[0]
        err_f = float(np.abs(f[idx] - f_ref).max() / np.abs(f_ref).max())
        line = f"  {rule:>9} at h {h:>6d}: f {err_f:.1e}"
        if full:
            # density_table's CDF: the panel sums renormalized by the mass
            cdf, total = _cumulative(f, grid)
            cdf = np.maximum.accumulate(np.clip(cdf / total, 0.0, 1.0))
            line += f", F {float(np.abs(cdf[idx] - big_f_ref).max()):.1e} (absolute)"
        out.append(line)
    print(f"{name} against bench/oracle.py at {idx.size} nodes, f relative to its maximum:")
    print("\n".join(out))


def main() -> int:
    for key in ("sp", "btc"):
        params = GtsParams(**PARAMS[key])
        table = choose_grid(params, DEFAULT_GRID_M)
        fit = mle._grid_for(params, load_returns(SAMPLES[key]), DEFAULT_GRID_M)
        n_out = len(fit.nodes)
        print(
            f"== {key}: fit grid nodes {fit.nodes.start}..{fit.nodes.stop - 1} of {fit.m + 1}; "
            f"padded transform length {_fast_len(fit.h + n_out)} at the chosen h"
        )
        for name, grid in ((f"{key} table", table), (f"{key} fit", fit)):
            for order in (0, 1):
                scan(name, params, grid, order)
            against_oracle(name, key, params, grid)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
