"""CSV ingestion, return construction, realized volatility, sample summaries."""

import csv
import datetime as dt
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtsfit import data
from gtsfit.data import (
    _CSV_BLOCK_ROWS,
    ColumnSpec,
    DegenerateSampleError,
    EmptyDataError,
    ParseError,
    TRADING_DAYS_MONTH,
    TRADING_DAYS_YEAR,
    load_price_csv,
    log_returns,
    realized_vol,
    summary_stats,
    write_csv,
)


def test_load_basic(price_csv):
    path = price_csv([("2024-01-02", 100.0), ("2024-01-03", 101.5), ("2024-01-04", 99.8)])
    series = load_price_csv(path)
    assert len(series.prices) == 3
    assert series.dates[0].isoformat() == "2024-01-02"
    assert series.dropped == 0


def test_load_sorts_and_dedupes(price_csv):
    path = price_csv(
        [
            ("2024-01-05", 102.0),
            ("2024-01-02", 100.0),
            ("2024-01-05", 103.0),  # later row wins
            ("2024-01-03", 101.0),
        ]
    )
    series = load_price_csv(path)
    assert [d.isoformat() for d in series.dates] == ["2024-01-02", "2024-01-03", "2024-01-05"]
    assert series.prices[-1] == pytest.approx(103.0)


def test_load_drops_bad_prices(price_csv, capsys):
    path = price_csv(
        [
            ("2024-01-02", 100.0),
            ("2024-01-03", "null"),
            ("2024-01-04", -5.0),
            ("2024-01-05", 101.0),
        ]
    )
    series = load_price_csv(path)
    assert len(series.prices) == 2
    assert series.dropped == 2


def test_load_missing_column(price_csv):
    path = price_csv([("2024-01-02", 100.0)], header="Date,Close")
    with pytest.raises(ParseError) as exc:
        load_price_csv(path)
    assert "Adj Close" in str(exc.value)
    # custom mapping accepts the same file
    series = load_price_csv(path, ColumnSpec(price_column="Close"))
    assert len(series.prices) == 1


def test_load_skips_byte_order_mark(price_csv):
    # spreadsheet exports start with a UTF-8 BOM; it is no part of "Date"
    rows = [("2024-01-02", 100.0), ("2024-01-03", 101.5)]
    plain = load_price_csv(price_csv(rows))
    marked = price_csv(rows, header="\ufeffDate,Adj Close", name="bom.csv")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    series = load_price_csv(marked)
    assert series.dates == plain.dates and np.array_equal(series.prices, plain.prices)


def test_load_bad_date_reports_line(price_csv):
    path = price_csv([("2024-01-02", 100.0), ("02/03/2024", 101.0)])
    with pytest.raises(ParseError) as exc:
        load_price_csv(path)
    assert ":3" in str(exc.value)  # header is line 1


def test_load_empty(price_csv):
    path = price_csv([])
    with pytest.raises(EmptyDataError):
        load_price_csv(path)


def _dictreader_load(path, cols=ColumnSpec()):
    """The loader as it read rows through csv.DictReader, kept as the oracle."""
    rows, dropped = [], 0
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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
            try:
                price = float(rec.get(cols.price_column))
            except (TypeError, ValueError):
                dropped += 1
                continue
            if not math.isfinite(price) or price <= 0.0:
                dropped += 1
                continue
            rows.append((when, price))
    if not rows:
        raise EmptyDataError(f"{path}: no usable rows after cleaning")
    rows.sort(key=lambda r: r[0])
    dedup = dict(rows)
    dates = tuple(sorted(dedup))
    return dates, [dedup[d] for d in dates], dropped


def _outcome(load, path):
    try:
        out = load(path)
    except (ParseError, EmptyDataError) as exc:
        return type(exc), str(exc)
    if isinstance(out, data.PriceSeries):
        return out.dates, out.prices.tolist(), out.dropped
    return out


@pytest.mark.parametrize(
    "text",
    [
        # blank rows are skipped and do not count toward the line number
        "Date,Adj Close\n2024-01-02,100\n\n2024-01-03,101\n\n\n2024-01-04,102\n",
        "Date,Adj Close\n2024-01-02,100\n\n2024-01-03,101\n\n03/01/2024,102\n",
        # a short row: no price is a dropped row, no date cell an error
        "Date,Adj Close\n2024-01-02,100\n2024-01-03\n2024-01-04,102\n",
        "Adj Close,Date\n100,2024-01-02\n\n101\n",
        "Date,Adj Close\n2024-01-02,100\n\n,\n",
        # duplicate dates keep the last row, after a stable sort
        "Date,Adj Close\n2024-01-03,101\n2024-01-02,100\n2024-01-03,103\n2024-01-02,99\n",
        # a repeated column name reads its last column, None past a short row's end
        "Date,Adj Close,Date\n1999-01-01,100,2024-01-02\n1999-01-02,101,2024-01-03,extra\n",
        "Date,Adj Close,Date\n1999-01-01,100,2024-01-02\n1999-01-02,101\n",
        "Date,Adj Close,Adj Close\n2024-01-02,100,7\n2024-01-03,101\n",
        # blank header, empty file, header only
        "\nDate,Adj Close\n2024-01-02,100\n",
        "",
        "Date,Adj Close\n\n",
    ],
)
def test_load_matches_dictreader(tmp_path, text):
    path = tmp_path / "prices.csv"
    path.write_text(text, encoding="utf-8")
    assert _outcome(load_price_csv, path) == _outcome(_dictreader_load, path)


def test_log_returns_telescope(price_csv):
    path = price_csv(
        [("2024-01-02", 100.0), ("2024-01-03", 105.0), ("2024-01-04", 98.0)]
    )
    series = load_price_csv(path)
    rets = log_returns(series)
    assert len(rets.values) == 2
    assert rets.dates[0].isoformat() == "2024-01-03"
    # percent log returns telescope to the end-to-end ratio
    assert sum(rets.values) == pytest.approx(100.0 * math.log(98.0 / 100.0))


def test_log_returns_constant_path(geometric_prices, price_csv):
    dates, prices = geometric_prices(10, c=0.5)
    series = load_price_csv(price_csv(list(zip(dates, prices))))
    rets = log_returns(series)
    assert np.allclose(rets.values, 0.5, atol=1e-12)


def test_realized_vol_constant_returns(geometric_prices, price_csv):
    # constant return c: window of T+1 terms gives sqrt(252 (T+1)/T) |c|
    dates, prices = geometric_prices(40, c=-0.8)
    series = load_price_csv(price_csv(list(zip(dates, prices))))
    rets = log_returns(series)
    for t in (5, TRADING_DAYS_MONTH):
        vdates, vols = realized_vol(rets, t)
        want = math.sqrt(252.0 * (t + 1) / t) * 0.8
        assert np.allclose(vols, want, rtol=1e-12)
        assert len(vols) == len(rets.values) - t
        assert vdates[0] == rets.dates[t]


def test_realized_vol_brute_force(geometric_prices, price_csv):
    rng = np.random.default_rng(9)
    n = 60
    vals = rng.standard_normal(n)
    import datetime

    dates = [datetime.date(2024, 1, 1) + datetime.timedelta(days=k) for k in range(n)]
    from gtsfit.data import ReturnSeries

    rets = ReturnSeries(dates=tuple(dates), values=tuple(vals))
    t = 7
    _, vols = realized_vol(rets, t)
    for i, v in enumerate(vols):
        window = vals[i : i + t + 1]  # T+1 consecutive observations
        want = math.sqrt(252.0 / t * np.sum(window**2))
        assert v == pytest.approx(want, rel=1e-12)


def test_realized_vol_window_too_long(geometric_prices, price_csv):
    dates, prices = geometric_prices(5)
    series = load_price_csv(price_csv(list(zip(dates, prices))))
    rets = log_returns(series)
    with pytest.raises(ValueError):
        realized_vol(rets, 10)


def test_trading_day_constants():
    assert TRADING_DAYS_MONTH == 21
    assert TRADING_DAYS_YEAR == 252


def test_summary_stats_hand_values():
    stats = summary_stats([1.0, 2.0, 3.0, 4.0])
    assert stats.n == 4
    assert stats.mean == pytest.approx(2.5)
    assert stats.std_dev == pytest.approx(math.sqrt(5.0 / 3.0))
    assert stats.cv == pytest.approx(stats.std_dev / 2.5)
    assert stats.skewness == pytest.approx(0.0, abs=1e-14)
    # m4 / m2^2 with population moments: ((1.5^4)*2 + (0.5^4)*2)/4 / (1.25)^2
    assert stats.kurtosis == pytest.approx(
        ((1.5**4) * 2 + (0.5**4) * 2) / 4.0 / (1.25**2)
    )
    assert stats.minimum == 1.0
    assert stats.maximum == 4.0


@given(st.lists(st.floats(-100.0, 100.0), min_size=4, max_size=300))
@example([0.0, 0.0, 0.0, 7.7e-93])  # dev**4 underflows; exact skew 1.1547, kurt 2.3333
@example([0.1] * 7)  # the rounded mean differs from 0.1: deviations are noise
@settings(max_examples=100)
def test_summary_stats_matches_numpy(xs):
    arr = np.asarray(xs)
    if arr.min() == arr.max():
        with pytest.raises(DegenerateSampleError):
            summary_stats(xs)
        return
    stats = summary_stats(xs)
    assert stats.mean == pytest.approx(float(np.mean(arr)), rel=1e-9, abs=1e-9)
    assert stats.std_dev == pytest.approx(float(np.std(arr, ddof=1)), rel=1e-9, abs=1e-9)
    # standardized moments are scale free; scaling keeps the powers representable
    # and, by a power of two before the mean, keeps a subnormal sample's mean
    # from rounding away (the mean of [0, 0, 0, 5e-324] is 0 in float)
    low = np.ldexp(arr, -math.frexp(float(np.max(np.abs(arr))))[1])
    low_dev = low - low.mean()
    low_dev /= np.max(np.abs(low_dev))
    m2 = float(np.mean(low_dev**2))
    m3 = float(np.mean(low_dev**3))
    m4 = float(np.mean(low_dev**4))
    assert stats.skewness == pytest.approx(m3 / m2**1.5, rel=1e-7, abs=1e-7)
    assert stats.kurtosis == pytest.approx(m4 / m2**2, rel=1e-7, abs=1e-7)


def test_summary_stats_subnormal_sample():
    # one smallest subnormal among zeros: the exact skewness is 2/sqrt(3)
    # and the kurtosis 7/3, whatever the scale of the nonzero value
    stats = summary_stats([0.0, 0.0, 0.0, 5e-324])
    assert stats.skewness == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-14)
    assert stats.kurtosis == pytest.approx(7.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("value, n", [(25.642629613365997, 5), (0.1, 7)])
def test_summary_stats_constant_sample(value, n):
    # the float mean of these constant samples is not the value itself, so
    # the deviations from it are rounding noise (skewness -1 or 1, kurtosis 1)
    assert np.mean([value] * n) != value
    with pytest.raises(DegenerateSampleError):
        summary_stats([value] * n)


def test_summary_stats_minimum_size():
    with pytest.raises(ValueError):
        summary_stats([1.0, 2.0, 3.0])


# --- the %.17g writer ------------------------------------------------------


@pytest.fixture(params=["native", "all-percent"])
def g17_margin(request, monkeypatch):
    # "all-percent": a margin of 0.25 or more sends every cell through
    # '%.17g' %, the path of a platform whose long double is a double
    if request.param == "all-percent":
        monkeypatch.setattr(data, "_G17_MARGIN", 0.25)
    return request.param


def _written(path, header, cols):
    write_csv(path, header, cols)
    return path.read_bytes()


def _assert_g17(tmp_path, values):
    values = np.asarray(values, dtype=np.float64)
    got = _written(tmp_path / "g.csv", "v", [values]).decode("ascii").split("\n")
    want = ["v", *("%.17g" % v for v in values.tolist()), ""]
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def _ulps(values, steps):
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    return np.concatenate([(bits + s).view(np.float64) for s in steps])


def test_g17_powers_of_ten(tmp_path, g17_margin):
    # every 10**k a double reaches, with its 1- and 2-ulp neighbours, both signs
    p10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
    v = _ulps(p10, (-2, -1, 0, 1, 2))
    _assert_g17(tmp_path, np.concatenate([v, -v]))


def test_g17_specials_and_switch_points(tmp_path, g17_margin):
    subnormals = [5e-324, 1e-323, 2.5e-320, 1.2345678901234567e-310, 2.2250738585072009e-308]
    switches = [1e-4, 9.9999999999999991e-05, 1e16, 1e17, 99999999999999984.0, 123456789012345680.0]
    v = [0.0, -0.0, math.inf, -math.inf, math.nan, *subnormals, *switches]
    v += _ulps(switches, (-3, -2, -1, 1, 2, 3)).tolist()
    v += [0.1, 0.5, 1.0, 100.0, 1.5e300, 2.0**-1074 * 3]
    _assert_g17(tmp_path, v + [-x for x in v])


def test_g17_ties_fall_back_and_round_half_even(tmp_path, g17_margin, monkeypatch):
    # 2**50 + 0.25 j has 16 integer digits, so its 17-digit rounding is an
    # exact tie for odd j; no error bound certifies a tie, so each one must
    # reach '%.17g' %, which rounds it half to even
    texts = []
    real = data._text_slots

    def spy(t, width=None):
        texts.extend(t)
        return real(t, width)

    monkeypatch.setattr(data, "_text_slots", spy)
    v = 2.0**50 + 0.25 * np.arange(4000)
    _assert_g17(tmp_path, v)
    ties = ["%.17g" % x for x in v[1::2].tolist()]
    assert set(ties) <= set(texts)
    assert ties[:2] == ["1125899906842624.2", "1125899906842624.8"]


def test_g17_random_bit_patterns(tmp_path, g17_margin):
    # 10**6 uniformly random 64-bit patterns: every exponent, subnormals, nan
    bits = np.random.default_rng(2024).integers(0, 2**64, 10**6, dtype=np.uint64)
    _assert_g17(tmp_path, bits.view(np.float64))


def test_g17_power_table_correctly_rounded():
    table = data._pow10_table()
    for k, entry in zip(range(-292, 341), table):
        err = abs(Fraction(*entry.as_integer_ratio()) - Fraction(10) ** k)
        assert err <= Fraction(*np.spacing(entry).as_integer_ratio()) / 2, k


def test_g17_table_built_only_for_g17_fields(tmp_path):
    data._pow10_table.cache_clear()
    write_csv(tmp_path / "a.csv", "a,b", [["x", "y"], ["1.0000", "2.0000"]])
    assert data._pow10_table.cache_info().currsize == 0


def test_write_csv_typed_columns(tmp_path, g17_margin):
    # every kind of column over several blocks, against one ",".join of the
    # cells per row: integers and floats as '%.17g' % v (nan, +-inf, +-0
    # among them), ASCII, non-ASCII and blank strings as given, and a strided
    # big-endian string array
    n = 2 * _CSV_BLOCK_ROWS + 37
    rng = np.random.default_rng(7)
    f = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    f[::97], f[5::101], f[7::103], f[11::107], f[13::109] = math.nan, math.inf, -math.inf, 0.0, -0.0
    cols = [
        np.arange(n) - 5,
        [f"s{i}" if i % 3 else "é" for i in range(n)],
        f,
        [""] * n,
        ["" if i % 4 else "%.4f" % x for i, x in enumerate(rng.standard_normal(n))],
        rng.integers(-(10**6), 10**6, n).tolist(),
        tuple(rng.standard_normal(n)),
        np.array([f"t{i % 7}" * (i % 3) for i in range(2 * n)], dtype=">U4")[::2],
    ]
    rows = zip(*[np.asarray(c).tolist() for c in cols])
    want = "a,b,c,d,e,f,g,h\n" + "".join(
        ",".join(v if isinstance(v, str) else "%.17g" % v for v in row) + "\n" for row in rows
    )
    assert _written(tmp_path / "m.csv", "a,b,c,d,e,f,g,h", cols) == want.encode("utf-8")


def test_write_csv_rejects_column_count(tmp_path):
    with pytest.raises(TypeError):
        write_csv(tmp_path / "c.csv", "a,b", [["x"]])
    with pytest.raises(TypeError):
        write_csv(tmp_path / "c.csv", "a", [[1.0], [2.0]])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "c.csv", "a,b", [[1.0], [2.0, 3.0]])


def test_write_csv_rejects_a_column_of_none(tmp_path):
    with pytest.raises(TypeError, match="column 'b'"):
        write_csv(tmp_path / "c.csv", "a,b", [[1.0, 2.0], [3.0, None]])
