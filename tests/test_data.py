"""CSV ingestion, return construction, realized volatility, sample summaries."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gtsfit.data import (
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
    write_value_csv,
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


def test_load_bad_date_reports_line(price_csv):
    path = price_csv([("2024-01-02", 100.0), ("02/03/2024", 101.0)])
    with pytest.raises(ParseError) as exc:
        load_price_csv(path)
    assert ":3" in str(exc.value)  # header is line 1


def test_load_empty(price_csv):
    path = price_csv([])
    with pytest.raises(EmptyDataError):
        load_price_csv(path)


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
@settings(max_examples=100)
def test_summary_stats_matches_numpy(xs):
    arr = np.asarray(xs)
    dev = arr - arr.mean()
    scale = float(np.max(np.abs(dev)))
    if scale == 0.0:
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


def test_summary_stats_minimum_size():
    with pytest.raises(ValueError):
        summary_stats([1.0, 2.0, 3.0])


def test_write_value_csv(tmp_path):
    import datetime

    path = tmp_path / "vol.csv"
    dates = (datetime.date(2024, 2, 1), datetime.date(2024, 2, 2))
    write_value_csv(dates, (1.25, 2.5), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "date,value"
    assert lines[1] == "2024-02-01,1.25"
