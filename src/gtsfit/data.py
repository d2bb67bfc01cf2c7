"""Price series ingestion, log returns, realized volatility, sample stats.

:func:`write_csv` and :func:`write_json` are the package's only file
writers (UTF-8, LF line endings): every artifact is a header, a row
template and its columns, or one JSON object.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

TRADING_DAYS_MONTH = 21
TRADING_DAYS_YEAR = 252
_CSV_BLOCK_ROWS = 4096  # rows formatted per write by write_csv


class ParseError(ValueError):
    pass


class EmptyDataError(ValueError):
    pass


class DegenerateSampleError(ValueError):
    pass


@dataclass(frozen=True)
class ColumnSpec:
    date_column: str = "Date"
    price_column: str = "Adj Close"


@dataclass(frozen=True)
class PriceSeries:
    dates: tuple
    prices: np.ndarray
    dropped: int = 0

    def __post_init__(self) -> None:
        if len(self.dates) != len(self.prices):
            raise ValueError("dates and prices length mismatch")
        if len(self.dates) == 0:
            raise EmptyDataError("empty price series")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing")
        if np.any(np.asarray(self.prices) <= 0.0):
            raise ValueError("prices must be positive")

    def __len__(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class ReturnSeries:
    dates: tuple
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def load_price_csv(path, columns: Optional[ColumnSpec] = None) -> PriceSeries:
    """Read a dated price CSV into a cleaned :class:`PriceSeries`.

    Rows with non-numeric or non-positive prices are dropped and counted in
    ``PriceSeries.dropped``; unparseable dates raise :class:`ParseError` with
    the line number.  Rows are sorted by date and duplicate dates keep the
    last occurrence.
    """
    cols = columns or ColumnSpec()
    rows = []
    dropped = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ParseError(f"{path}: empty file, header required")
        for name in (cols.date_column, cols.price_column):
            if name not in reader.fieldnames:
                raise ParseError(f"{path}: missing column {name!r}")
        for lineno, rec in enumerate(reader, start=2):
            raw_date = rec.get(cols.date_column)
            if raw_date is None:
                raise ParseError(f"{path}:{lineno}: missing date cell")
            try:
                when = dt.date.fromisoformat(raw_date.strip())
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad date {raw_date!r}") from None
            raw_price = rec.get(cols.price_column)
            try:
                price = float(raw_price)
            except (TypeError, ValueError):
                dropped += 1
                continue
            if not math.isfinite(price) or price <= 0.0:
                dropped += 1
                continue
            rows.append((when, price))
    if not rows:
        raise EmptyDataError(f"{path}: no usable rows after cleaning")
    rows.sort(key=lambda r: r[0])  # stable: ties keep file order
    dedup: dict = {}
    for when, price in rows:
        dedup[when] = price  # duplicate dates keep the last occurrence
    dates = tuple(sorted(dedup))
    prices = np.array([dedup[d] for d in dates])
    return PriceSeries(dates=dates, prices=prices, dropped=dropped)


def log_returns(series: PriceSeries) -> ReturnSeries:
    """Percent log returns 100 ln(S_j / S_{j-1}); dated by the later price."""
    if len(series) < 2:
        raise EmptyDataError("need at least two prices for returns")
    p = np.asarray(series.prices, dtype=float)
    return ReturnSeries(dates=series.dates[1:], values=100.0 * np.log(p[1:] / p[:-1]))


def realized_vol(returns: ReturnSeries, window_t: int):
    """Annualized rolling volatility over windows of ``window_t`` + 1 returns.

    vol_k = sqrt((252 / T) sum_{j=0..T} y_{k-j}^2) for every full window; the
    result is (dates, values) aligned to the window end dates.
    """
    if window_t < 1:
        raise ValueError(f"window must be a positive integer, got {window_t}")
    y = np.asarray(returns.values, dtype=float)
    if y.size <= window_t:
        raise EmptyDataError(
            f"need more than {window_t} returns for a window of {window_t}, got {y.size}"
        )
    sq = np.concatenate(([0.0], np.cumsum(y * y)))
    # window ending at k spans y[k-T .. k], T+1 terms
    sums = sq[window_t + 1 :] - sq[: y.size - window_t]
    vols = np.sqrt(TRADING_DAYS_YEAR / window_t * sums)
    return returns.dates[window_t:], vols


@dataclass(frozen=True)
class SummaryStats:
    n: int
    mean: float
    std_dev: float
    cv: float
    skewness: float
    kurtosis: float
    minimum: float
    maximum: float


def summary_stats(values) -> SummaryStats:
    """Sample moments: std with divisor n-1, standardized central moments
    with divisor n, kurtosis as the full fourth moment ratio.

    The sample is scaled by a power of two into [-1, 1] first, so a subnormal
    sample's mean keeps its digits.  The standardized moments are taken on
    the deviations divided by their largest magnitude, so powers of tiny
    deviations cannot underflow.  A constant sample (``min == max``) raises
    :class:`DegenerateSampleError`: its deviations from the rounded mean are
    rounding noise, not moments.
    """
    y = np.asarray(values, dtype=float)
    n = y.size
    if n < 4:
        raise ValueError(f"need at least 4 observations, got {n}")
    if y.min() == y.max():
        raise DegenerateSampleError("sample has zero variance")
    _, exp2 = math.frexp(float(np.max(np.abs(y))))
    ys = np.ldexp(y, -exp2)
    dev = ys - ys.mean()
    mean = math.ldexp(float(ys.mean()), exp2)
    # nonzero: two distinct floats cannot both equal the rounded mean
    z = dev / float(np.max(np.abs(dev)))
    m2 = float(np.mean(z**2))
    m3 = float(np.mean(z**3))
    m4 = float(np.mean(z**4))
    std = math.ldexp(float(ys.std(ddof=1)), exp2)
    return SummaryStats(
        n=n,
        mean=mean,
        std_dev=std,
        cv=std / mean if mean != 0.0 else math.inf,
        skewness=m3 / m2**1.5,
        kurtosis=m4 / (m2 * m2),
        minimum=float(y.min()),
        maximum=float(y.max()),
    )


def write_csv(path, header: str, row_template: str, cols) -> None:
    """CSV of ``header`` and one ``row_template % row`` line per row.

    ``cols`` holds one equal-length sequence per field of the template:
    numbers, or strings such as dates and blank cells.  Rows are formatted
    and written in blocks of ``_CSV_BLOCK_ROWS``, so the file is never built
    in memory.
    """
    row_template += "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(cols[0]), _CSV_BLOCK_ROWS):
            block = [np.asarray(c[lo : lo + _CSV_BLOCK_ROWS]).tolist() for c in cols]
            fh.write("".join([row_template % row for row in zip(*block)]))


def write_json(path, obj) -> None:
    """``obj`` as JSON with sorted keys, indent 2 and a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_value_csv(dates, values, path) -> None:
    """Two-column ``date,value`` CSV, ISO dates, 17 significant digits."""
    write_csv(path, "date,value", "%s,%.17g", [[d.isoformat() for d in dates], values])
