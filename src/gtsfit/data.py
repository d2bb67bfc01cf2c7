"""Price series ingestion, log returns, realized volatility, sample stats.

:func:`write_csv` and :func:`write_json` are the package's only file
writers (UTF-8, LF line endings): every artifact is a header and its
columns, numbers printed as ``%.17g`` and strings as given, or one JSON
object.

``%.17g`` cells are printed from numpy blocks, with the same bytes as
``'%.17g' % v``.  With X = floor(log10 |v|), D = |v| 10**(16 - X) is
formed in ``np.longdouble`` from a table of powers of ten that numpy's
decimal parser (the C library's ``strtold``) rounds correctly, as the tests
check entry by entry.  R = rint(D) is then the correctly rounded 17-digit
integer of v whenever |D - R| <= 1/2 - margin * D / 1e17, since the table
entry and the product each round by at most half an ulp relative, moving D
by at most D * eps / 2 each, and margin * D / 1e17 = 2 D eps is twice their
sum.  The %g text is assembled
from R's digits and X.  Any cell outside that proof (|D - R| past the
bound, D outside [1e16, 1e17), v zero, inf or nan) is printed by
``'%.17g' % v``; where the long double is no wider than a double the
margin is at least 1/4 and every cell is.  Exact ties, such as
2**50 + 0.25, always fall back, so their rounding is ``%``'s half to even.

Every cell and separator of a block is a fixed-width slot of bytes per row,
NUL in the bytes it leaves unwritten; the block's text is its nonzero bytes.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

TRADING_DAYS_MONTH = 21
TRADING_DAYS_YEAR = 252
_CSV_BLOCK_ROWS = 4096  # rows formatted per write by write_csv
_G17_SLOT = 29  # bytes of one %.17g slot: "-", "0.000", 17 digits and ".", "e+308"
# _g17_slots defers to '%.17g' % past |D - rint(D)| = 1/2 - _G17_MARGIN * D / 1e17:
# twice the D * eps / 2 roundings of a table power of ten and of one product
_G17_MARGIN = 2e17 * float(np.finfo(np.longdouble).eps)


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
    by_date: dict = {}
    dropped = 0
    # utf-8-sig drops the byte-order mark that spreadsheet exports start with
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file, header required")
        index = {name: i for i, name in enumerate(header)}  # a repeated name: its last column
        for name in (cols.date_column, cols.price_column):
            if name not in index:
                raise ParseError(f"{path}: missing column {name!r}")
        di, pi = index[cols.date_column], index[cols.price_column]
        # blank rows are skipped and not counted in the line number
        for lineno, rec in enumerate(filter(None, reader), start=2):
            if di >= len(rec):
                raise ParseError(f"{path}:{lineno}: missing date cell")
            raw_date = rec[di]
            try:
                when = dt.date.fromisoformat(raw_date.strip())
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad date {raw_date!r}") from None
            try:
                price = float(rec[pi])
            except (IndexError, ValueError):
                dropped += 1
                continue
            if not math.isfinite(price) or price <= 0.0:
                dropped += 1
                continue
            by_date[when] = price  # a repeated date keeps its last usable row
    if not by_date:
        raise EmptyDataError(f"{path}: no usable rows after cleaning")
    dates, prices = zip(*sorted(by_date.items()))
    return PriceSeries(dates=dates, prices=np.array(prices), dropped=dropped)


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


@lru_cache(maxsize=1)
def _pow10_table() -> np.ndarray:
    # 10**k for k = -292..340, each correctly rounded to np.longdouble by
    # numpy's decimal parser (the C library's strtold)
    return np.array([f"1e{k}" for k in range(-292, 341)], dtype=np.longdouble)


def _text_slots(texts, width=None) -> np.ndarray:
    # byte slots of ``width`` (default: the longest), NUL in the unused bytes
    raw = [t.encode("utf-8") for t in texts]
    width = width or max(map(len, raw), default=0)
    return np.array(raw, dtype=f"S{max(width, 1)}").view(np.uint8).reshape(len(raw), -1)


def _g17_round(v: np.ndarray) -> tuple:
    # (certified, X, R) per cell of the float64 array v: X its decimal
    # exponent and R its correctly rounded 17-digit integer, as uint64,
    # wherever the error bound certifies them (module docstring)
    fast = np.isfinite(v) & (v != 0.0)
    a = np.where(fast, np.abs(v), 1.0)
    # X in [-324, 308]; a rounded log10 next to a power of ten can be one
    # off, and then D leaves [1e16, 1e17) and the cell falls back
    x = np.floor(np.log10(a)).astype(np.int64)
    d = a.astype(np.longdouble) * _pow10_table()[16 - x + 292]
    r = np.rint(d)
    # d - r is exact and has few bits, so float64 holds it exactly
    bound = 0.5 - _G17_MARGIN * 1e-17 * d.astype(np.float64)
    fast &= (d >= 1e16) & (r < 1e17) & (np.abs((d - r).astype(np.float64)) <= bound)
    return fast, x, np.where(fast, r, 1e16).astype(np.uint64)


def _g17_slots(v: np.ndarray) -> np.ndarray:
    # ``'%.17g' % x`` for every x of the float64 array v, as NUL-padded
    # _G17_SLOT-byte slots (sign, "0.000", 17 digits with the point shifted
    # in, "e+308"); built byte-major, one row of v.size per slot byte, and
    # returned transposed
    if _G17_MARGIN >= 0.25:
        # a long double no wider than a double certifies nothing
        return _text_slots(["%.17g" % t for t in v.tolist()], _G17_SLOT)
    n = v.size
    fast, x, r = _g17_round(v)
    # the 17 digits of r, two uint32 halves, one digit row each
    hi, lo = (h.astype(np.uint32) for h in np.divmod(r, 10**9))
    dig = np.zeros((19, n), dtype=np.uint8)  # digit j in row j + 1; rows 0, 18 spare
    for half, digit_rows in ((lo, range(17, 8, -1)), (hi, range(8, 0, -1))):
        for j in digit_rows:
            nxt = half // np.uint32(10)
            dig[j] = half - nxt * np.uint32(10)
            half = nxt
    last = ((dig[1:18] != 0) * np.arange(17, dtype=np.uint8)[:, None]).max(axis=0)
    dig += ord("0")
    # %g: fixed notation for -4 <= x < 17, trailing fraction zeros dropped
    fixed = (x >= -4) & (x < 17)
    lead = np.where(fixed, np.maximum(x + 1, 0), 1).astype(np.int8)  # digits before the point
    kept = np.maximum(last + 1, lead).astype(np.int8)  # digits written
    col = np.arange(18, dtype=np.int8)[:, None]
    point = col == lead
    # each byte is its character times whether the cell writes it, so the
    # bytes a cell leaves out are NUL
    buf = np.empty((_G17_SLOT, n), dtype=np.uint8)
    buf[0] = (v < 0.0) * np.uint8(ord("-"))
    zeros = fixed & (x < 0) & (np.arange(5)[:, None] < 1 - x)
    buf[1:6] = np.frombuffer(b"0.000", dtype=np.uint8)[:, None] * zeros
    # column c shows digit c left of the point, c - 1 right of it; the
    # selects are uint8 blends b + s * (a - b), which wrap exactly
    area = dig[:-1] + (col < lead) * (dig[1:] - dig[:-1])
    shown = (col <= kept) & (~point | ((lead >= 1) & (kept > lead)))
    buf[6:24] = (area + point * (np.uint8(ord(".")) - area)) * shown
    ex = np.abs(x).astype(np.uint16)
    buf[24], buf[25] = ord("e"), np.where(x < 0, ord("-"), ord("+"))
    buf[26:29] = np.stack([ex // 100, ex // 10 % 10, ex % 10]) + ord("0")
    buf[24:29] *= ~fixed
    buf[26] *= ex >= 100
    buf = buf.T
    slow = np.flatnonzero(~fast)
    if slow.size:
        buf[slow] = _text_slots(["%.17g" % t for t in v[slow].tolist()], _G17_SLOT)
    return buf


def _block_text(block) -> np.ndarray:
    # one block of rows: each cell and separator becomes a NUL-padded slot of
    # bytes per row, and the nonzero bytes of all slots, row by row, are the
    # text; a boolean mask, unlike np.compress, builds no 8-byte index per
    # kept byte
    rows = len(block[0])
    comma, newline = (np.broadcast_to(np.uint8(ord(c)), (rows, 1)) for c in ",\n")
    slots = []
    for vals in block:
        if vals.dtype.kind == "U":
            slots.append(_text_slots(vals.tolist()))
        else:
            slots.append(_g17_slots(vals.astype(np.float64)))
        slots.append(comma)
    slots[-1] = newline
    # concatenate would lay the block out like its mostly transposed %.17g
    # slots; the mask selects fastest from a row-major copy
    width = sum(slot.shape[1] for slot in slots)
    buf = np.concatenate(slots, axis=1, out=np.empty((rows, width), np.uint8))
    return buf[buf != 0]


def write_csv(path, header: str, cols) -> None:
    """CSV of ``header`` and one row per index of the columns ``cols``.

    ``cols`` holds one equal-length sequence per field of ``header``, and
    each column is typed by the array ``np.asarray`` builds from it.  An
    integer or float array is written cell by cell as ``'%.17g' % v`` (by
    :func:`_g17_slots`); a string array, such as dates, names, blank cells
    and numbers the caller formatted, is written as given, and so is a list
    that numpy reads as strings, such as ``["x", 0.1]``; any other array
    (booleans, objects such as ``None``) is a ``TypeError`` that names the
    column.  Cells are joined by ``,`` and every row ends in a newline.
    Rows are formatted and written in blocks of ``_CSV_BLOCK_ROWS``, so the
    file is never built in memory.  No string may contain NUL, the byte
    that marks unwritten slot bytes.
    """
    names = header.split(",")
    if len(cols) != len(names):
        raise TypeError(f"header {header!r} needs one column per field, got {len(cols)}")
    cols = [np.asarray(c) for c in cols]
    for name, c in zip(names, cols):
        if c.dtype.kind not in "iufU":
            raise TypeError(f"column {name!r} holds {c.dtype} values, not numbers or strings")
    if len({c.shape for c in cols}) != 1 or cols[0].ndim != 1:
        raise ValueError(f"columns of {header!r} must be one-dimensional and of equal length")
    with open(path, "wb") as fh:
        fh.write((header + "\n").encode("utf-8"))
        for lo in range(0, cols[0].size, _CSV_BLOCK_ROWS):
            fh.write(_block_text([c[lo : lo + _CSV_BLOCK_ROWS] for c in cols]))


def write_json(path, obj) -> None:
    """``obj`` as JSON with sorted keys, indent 2 and a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
