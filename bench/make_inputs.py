"""Regenerate the benchmark's fixed return series from their seeds.

    python3 bench/make_inputs.py

Draws with the program's own ``sample_inverse_cdf`` at the acceptance seeds
(SP fit sample: n = 4000, seed 1290; empirical series: n = 10 000, seeds
2718 for SP and 577 for BTC) and writes one return per line, 17 significant
digits, into ``bench/data``.  The files are committed so that a later change
to the sampler leaves every job's input unchanged; rerunning this command
after such a change is what would move them.
"""

from __future__ import annotations

import sys

from common import EMP_N, EMP_SEEDS, FIT_N, FIT_SEED, INPUT_FILES, PARAMS, SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    from gtsfit.gts_model import GtsParams
    from gtsfit.mle import sample_inverse_cdf

    jobs = (
        ("fit_sp", "sp", FIT_N, FIT_SEED),
        ("emp_sp", "sp", EMP_N, EMP_SEEDS["sp"]),
        ("emp_btc", "btc", EMP_N, EMP_SEEDS["btc"]),
    )
    for key, asset, n, seed in jobs:
        draws = sample_inverse_cdf(GtsParams(**PARAMS[asset]), n, seed=seed)
        with open(INPUT_FILES[key], "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{v:.17g}\n" for v in draws)
        print(f"{INPUT_FILES[key].name}: {n} draws, seed {seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
