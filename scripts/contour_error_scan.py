#!/usr/bin/env python3
"""Map the payoff-reconstruction error over the contour offset.

Usage:
    python scripts/contour_error_scan.py params.json [--strikes=-2.15,-1.0,1.5]

(A list that starts with a minus sign needs the ``=``: argparse would read it
as an option.)

For each strike the script sweeps the signed offset grid used by
optimize_q, prints the error minimum and its location, and shows how flat
the optimum is across strikes.  The error is a property of the quadrature
alone, so the parameter file only sets which strikes are interesting
(anchored at the fitted mean minus two standard deviations).  A strike
the diagnostic rejects (nan or inf) ends the scan with exit status 2.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gtsfit.gts_model import load_params, cumulants  # noqa: E402
from gtsfit.risk import default_q_grid, optimize_q, reconstruction_error  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("params", help="parameter JSON file")
    ap.add_argument("--strikes", help="comma-separated strikes; default: around the mean")
    args = ap.parse_args()

    params = load_params(args.params)
    params.validate()
    kap = cumulants(params, 2)
    anchor = kap.kappa(1) - 2.0 * np.sqrt(kap.kappa(2))
    if args.strikes:
        strikes = [float(tok) for tok in args.strikes.split(",")]
    else:
        strikes = [anchor - 1.0, anchor, anchor + 1.0, 0.0, -anchor]

    qs = default_q_grid()
    best = []
    print(f"{'strike':>9} {'best q':>10} {'min error':>12} {'pos-q error':>12}")
    for k in strikes:
        try:
            q = optimize_q(params, k, qs)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        pos = reconstruction_error(params, k, optimize_q(params, k, qs[qs > 0.0]))
        best.append(q)
        print(f"{k:>9.3f} {q:>10.5f} {reconstruction_error(params, k, q):>12.4e} {pos:>12.4e}")
    spread = max(best) - min(best)
    print(f"offset spread across strikes: {spread:.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
