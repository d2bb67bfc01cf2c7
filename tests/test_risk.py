"""Quantile inversion, tail expectations, contour offset selection."""

import dataclasses
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gtsfit import risk, spectral
from gtsfit.risk import (
    BracketEdgeError,
    ContourError,
    DivergentContourError,
    EmptySampleError,
    PayoffSide,
    RiskReport,
    TailSide,
    _contour,
    _cubic_roots,
    _quantile_clamped,
    avar,
    empirical_avar,
    empirical_var,
    optimize_q,
    prob_interval,
    reconstruction_error,
    tail_payoff_fourier,
    var,
    write_risk_csv,
)
from gtsfit.cli import DEFAULT_LEVELS
from gtsfit.gts_model import BOUND_EPS, GtsParams, save_params
from gtsfit.spectral import GridError, _composite_weights, cdf_at, choose_grid, density_table

from conftest import CONFIDENCE_LEVELS, TAIL_LEVELS


# -- empirical estimators -----------------------------------------------------


@given(
    st.lists(st.floats(-50.0, 50.0), min_size=5, max_size=200),
    st.floats(0.01, 0.45),
)
@settings(max_examples=120, deadline=None)
def test_empirical_var_is_order_statistic(sample, alpha):
    srt = np.sort(np.asarray(sample))
    n = len(sample)
    k = max(1, math.ceil(n * alpha - 1e-9))
    assert empirical_var(sample, alpha) == pytest.approx(srt[k - 1])


@given(
    st.lists(st.floats(-50.0, 50.0), min_size=5, max_size=200),
    st.floats(0.01, 0.45),
)
@settings(max_examples=120, deadline=None)
def test_empirical_avar_lower_direct_sum(sample, alpha):
    # mean of the conditional lower tail, fractional last observation
    srt = np.sort(np.asarray(sample, dtype=float))
    n = len(srt)
    k = max(1, math.ceil(n * alpha - 1e-9))
    head = srt[: k - 1].sum() / n
    frac = (alpha - (k - 1) / n) * srt[k - 1]
    want = (head + frac) / alpha
    got = empirical_avar(sample, alpha, TailSide.LOWER_TAIL)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_empirical_avar_upper_known_values():
    sample = list(range(1, 101))  # 1..100
    # worst 10% of gains: mean of 91..100
    got = empirical_avar(sample, 0.10, TailSide.UPPER_TAIL)
    assert got == pytest.approx(np.mean(np.arange(91, 101)))


def test_empirical_lower_known_values():
    sample = list(range(1, 101))
    assert empirical_var(sample, 0.05) == 5
    assert empirical_avar(sample, 0.05, TailSide.LOWER_TAIL) == pytest.approx(3.0)


def test_empirical_ordering_bounds():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(500)
    for a in (0.01, 0.05, 0.1):
        assert empirical_avar(x, a, TailSide.LOWER_TAIL) <= empirical_var(x, a)
        assert empirical_avar(x, a, TailSide.UPPER_TAIL) >= empirical_var(x, 1 - a)


def test_empirical_empty_raises():
    with pytest.raises(EmptySampleError):
        empirical_var([], 0.05)
    with pytest.raises(EmptySampleError):
        empirical_avar([], 0.05, TailSide.LOWER_TAIL)


# -- cubic solver -------------------------------------------------------------


def _cubic_root(c0, c1, c2, c3):
    y, bracketed = _cubic_roots(np.array([[c0], [c1], [c2], [c3]], dtype=float))
    return float(y[0]), bool(bracketed[0])


@given(
    root=st.floats(0.02, 0.98),
    c2=st.floats(-0.4, 0.4),
    c3=st.floats(-0.2, 0.2),
)
@settings(max_examples=150)
def test_cubic_recovers_planted_root(root, c2, c3):
    # build a cubic with a controlled sign change at the planted root
    c1 = 1.0  # dominant linear term keeps the bracket clean
    c0 = -(c1 * root + c2 * root**2 + c3 * root**3)
    # the solver's precondition: a second root in [0, 1] can cancel the sign
    # change between the endpoints (see the two-root case below)
    assume(c0 * (c0 + c1 + c2 + c3) < 0.0)
    got, bracketed = _cubic_root(c0, c1, c2, c3)
    assert bracketed
    assert abs(c0 + c1 * got + c2 * got**2 + c3 * got**3) <= 1e-10


def test_cubic_two_roots_without_bracket():
    # planted root 0.75 plus a second root in (0.75, 1]: no endpoint sign
    # change, so the cell is reported unbracketed with a NaN root
    root, c2, c3 = 0.75, -0.5, -0.125
    c0 = -(root + c2 * root**2 + c3 * root**3)
    assert c0 < 0.0 and c0 + 1.0 + c2 + c3 < 0.0
    got, bracketed = _cubic_root(c0, 1.0, c2, c3)
    assert not bracketed and math.isnan(got)


def test_cubic_endpoints():
    assert _cubic_root(0.0, 1.0, 0.0, 0.0) == (0.0, True)
    assert _cubic_root(-1.0, 1.0, 0.0, 0.0) == (1.0, True)


# -- model quantiles ----------------------------------------------------------


def test_var_round_trip(sp_table):
    for level in (0.01, 0.05, 0.5, 0.95, 0.99):
        x = var(sp_table, level)
        assert cdf_at(sp_table, x) == pytest.approx(level, abs=5e-9)


@pytest.mark.parametrize("asset", ["sp", "btc"])
def test_var_is_exact_inverse_of_cdf_at(asset, request):
    # var solves the cubic coefficients that cdf_at evaluates, so the round
    # trip is exact up to the rounding of the quantile itself
    table = request.getfixturevalue(f"{asset}_table")
    levels = [a for lv in DEFAULT_LEVELS for a in (lv, 1.0 - lv)] + [0.001, 0.5, 0.999]
    for level in levels:
        assert abs(cdf_at(table, var(table, level)) - level) <= 4.5e-16, level


def test_var_monotone_in_level(sp_table):
    levels = np.linspace(0.005, 0.995, 40)
    q = [var(sp_table, float(p)) for p in levels]
    assert np.all(np.diff(q) > 0.0)


def test_var_rejects_bad_level(sp_table):
    with pytest.raises(ValueError):
        var(sp_table, 0.0)
    with pytest.raises(ValueError):
        var(sp_table, 1.0)


def test_var_edge_bracket(sp_table):
    # far beyond tabulated mass: the bracket lands on the table edge
    with pytest.raises(BracketEdgeError):
        var(sp_table, 1e-15)


@pytest.mark.parametrize("key", ["sp", "btc"])
def test_var_refuses_levels_beyond_the_window_tail_mass(key, sp_table, btc_table):
    # the window may leave up to 1e-9 of mass outside on each side, so a
    # quantile at a smaller tail level would be read off the window's edge
    # (SP at 1e-12: -28.38 on the table against -32.36 on a 4x wider window)
    table = sp_table if key == "sp" else btc_table
    for level in (1e-10, 1e-12, 1.0 - 1e-10, 1.0 - 1e-12):
        with pytest.raises(BracketEdgeError, match=rf"level {level!r} lies within 1e-09 of 0 or 1"):
            var(table, level)
    # the bound itself, on either side, is still a quantile inside the window
    lo, hi = var(table, spectral._WINDOW_TOL), var(table, 1.0 - spectral._WINDOW_TOL)
    assert table.x[0] < lo < var(table, 0.005) < var(table, 0.995) < hi < table.x[-1]


# -- sampler quantile ---------------------------------------------------------
#
# The scalar quartic solver as it stood before it was vectorised, kept as the
# oracle: the cubic solve must reproduce it bit for bit at b4 = 0, since every
# seeded sample is drawn through it.


def _quartic_reference(b0, b1, b2, b3, b4):
    # (root, whether a step bisected), or None without a sign change
    b = (b0, b1, b2, b3, b4)

    def poly(y):
        return b[0] + y * (b[1] + y * (b[2] + y * (b[3] + y * b[4])))

    tol = 1e-12 * max(max(abs(c) for c in b), 1e-300)
    v0, v1 = b0, poly(1.0)
    if abs(v0) <= tol:
        return 0.0, False
    if abs(v1) <= tol:
        return 1.0, False
    if v0 * v1 > 0.0:
        return None
    lo, hi = 0.0, 1.0
    bisected = False
    y = min(max(-b0 / b1, 0.0), 1.0) if b1 != 0.0 else 0.5
    for _ in range(100):
        py = poly(y)
        if abs(py) <= tol:
            return float(y), bisected
        if (py < 0.0) == (v0 < 0.0):
            lo = y
        else:
            hi = y
        dp = b1 + y * (2.0 * b2 + y * (3.0 * b3 + y * 4.0 * b4))
        yn = y - py / dp if dp != 0.0 else None
        if yn is None or not lo < yn < hi:
            yn = 0.5 * (lo + hi)
            bisected = True
        y = yn
    return float(y), bisected


def test_cubic_roots_match_scalar_reference():
    # the random matrix the quartic solver was pinned on, with b4 = 0: the
    # cubic solve reproduces the scalar loop bit for bit, and the matrix
    # takes the bisection branch, which the SP and BTC draws never reach
    rng = np.random.default_rng(8)
    b = rng.standard_normal((5, 3000)) * np.array([[1.0], [1.0], [0.5], [0.3], [0.2]])
    b[4] = 0.0
    b[1, :50] = 0.0  # seed at the midpoint
    b[0, 50:60] = 0.0  # root at 0
    b[0, 60:70] = -b[1:, 60:70].sum(axis=0)  # root at 1
    y, bracketed = _cubic_roots(b[:4])
    n_bracketed = n_bisected = 0
    for k in range(b.shape[1]):
        ref = _quartic_reference(*b[:, k])
        if ref is None:
            assert not bracketed[k] and np.isnan(y[k])
            continue
        n_bracketed += 1
        assert bracketed[k] and y[k] == ref[0]
        n_bisected += ref[1]
    assert 500 < n_bracketed < b.shape[1]
    assert n_bisected >= 1


@pytest.mark.parametrize("key", ["sp", "btc"])
def test_sampler_quantile_edge_levels(key, sp_table, btc_table):
    # the clamped inverse keeps every level on the table, monotone: at the
    # extremes of the uniform draw, at and beside the nodes' own CDF values,
    # where rounding can cancel the cubic's sign change on the cell, and at
    # seeded levels
    table = sp_table if key == "sp" else btc_table
    big_f, x = table.F, table.x
    edges = [0.0, 5e-324, big_f[0], big_f[2], big_f[-1], 1.0 - 2.0**-53]
    nodes = big_f[:: big_f.size // 700]
    probes = np.concatenate((nodes, np.nextafter(nodes, 0.0), np.nextafter(nodes, 1.0)))
    rng = np.random.default_rng(31)
    levels = np.concatenate((edges, probes[probes < 1.0], rng.random(300)))
    got = _quantile_clamped(table, levels)
    assert np.all((got >= x[0]) & (got <= x[-1]))
    order = np.argsort(levels, kind="stable")
    assert np.all(np.diff(got[order]) >= 0.0)


@pytest.mark.parametrize("key", ["sp", "btc"])
def test_sampler_quantile_is_var(key, sp_table, btc_table):
    # one inverse: wherever var accepts a level the sampler's quantile is var
    # bit for bit, and the draw reproduces the level through cdf_at within
    # the root's certified residual (1e-12 times the cell cubic's largest
    # coefficient) plus the rounding of cdf_at's own evaluation
    table = sp_table if key == "sp" else btc_table
    big_f = table.F
    rng = np.random.default_rng(18)
    levels = np.concatenate((CONFIDENCE_LEVELS, TAIL_LEVELS, rng.random(10_000)))
    got = _quantile_clamped(table, levels)
    i = np.searchsorted(big_f, levels, side="left") - 1
    inside = (levels >= spectral._WINDOW_TOL) & (levels <= 1.0 - spectral._WINDOW_TOL)
    accepted = (i >= 2) & (i <= big_f.size - 4) & inside
    assert accepted.sum() >= levels.size - 2
    i = np.clip(i, 1, big_f.size - 3)
    coeffs = np.abs(np.stack((big_f[i] - levels, *spectral._cubic_diffs(big_f, i))))
    allowed = 1e-12 * coeffs.max(axis=0) + 4.5e-16
    for k in np.flatnonzero(accepted):
        assert got[k] == var(table, levels[k])
        assert abs(cdf_at(table, got[k]) - levels[k]) <= allowed[k]


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda t: 10.0**t)


# the validated box: beta log-uniform over (1e-8, 1 - 1e-8), kept strictly
# inside it, alpha log-uniform over [1e-3, 1e2], lambda over [1e-2, 1e2]
_BETAS = _log_uniform(BOUND_EPS, 1.0).map(
    lambda b: min(max(b, math.nextafter(BOUND_EPS, 1.0)), math.nextafter(1.0 - BOUND_EPS, 0.0))
)
_ALPHAS = _log_uniform(1e-3, 1e2)
_LAMBDAS = _log_uniform(1e-2, 1e2)


@given(st.floats(-3.0, 3.0), _BETAS, _BETAS, _ALPHAS, _ALPHAS, _LAMBDAS, _LAMBDAS)
@settings(max_examples=200, deadline=None)
def test_table_inverse_over_the_parameter_box(mu, beta_plus, beta_minus, alpha_plus, alpha_minus, lambda_plus, lambda_minus):
    # every point of the box either has its grid refused before anything of
    # size m is built (a few arrays of choose_grid's 4097 samples at most),
    # or tabulates past density_table's gates with var the exact inverse of
    # cdf_at and the sampler's quantile var itself
    params = GtsParams(mu, beta_plus, beta_minus, alpha_plus, alpha_minus, lambda_plus, lambda_minus)
    tracemalloc.start()
    try:
        grid = choose_grid(params)
    except GridError:
        assert tracemalloc.get_traced_memory()[1] < 4e6
        return
    finally:
        tracemalloc.stop()
    table = density_table(params, grid)
    for level in (1e-3, 0.05, 0.5, 0.95):
        x = var(table, level)
        assert abs(cdf_at(table, x) - level) <= 1e-9, level
        assert _quantile_clamped(table, np.array([level]))[0] == x, level


# -- tail payoff via contour integration --------------------------------------


def test_payoff_matches_density_quadrature(sp_params, sp_table):
    x, f = sp_table.x, sp_table.f
    for k in (-2.0, -1.0, 0.5, 1.5):
        call = tail_payoff_fourier(sp_params, k, 0.07, PayoffSide.CALL)
        put = tail_payoff_fourier(sp_params, k, 0.07, PayoffSide.PUT)
        call_ref = np.trapezoid(np.maximum(x - k, 0.0) * f, x)
        put_ref = np.trapezoid(np.maximum(k - x, 0.0) * f, x)
        assert call == pytest.approx(call_ref, rel=1e-5, abs=1e-8)
        assert put == pytest.approx(put_ref, rel=1e-5, abs=1e-8)


def test_payoff_parity(sp_params):
    # call - put telescopes to the mean minus strike
    from gtsfit.gts_model import cumulants

    k = 0.8
    call = tail_payoff_fourier(sp_params, k, 0.05, PayoffSide.CALL)
    put = tail_payoff_fourier(sp_params, k, 0.05, PayoffSide.PUT)
    mean = cumulants(sp_params, 1).kappa(1)
    assert call - put == pytest.approx(mean - k, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("key", ["sp", "btc"])
def test_payoff_parity_to_rounding(key, sp_params, btc_params):
    # at avar's offsets, 0.45 lambda of each tail
    from gtsfit.gts_model import cumulants

    params = sp_params if key == "sp" else btc_params
    mean = cumulants(params, 1).kappa(1)
    for k in (-20.0, -5.0, 0.0, 5.0, 20.0):
        call = tail_payoff_fourier(params, k, 0.45 * params.lambda_plus, PayoffSide.CALL)
        put = tail_payoff_fourier(params, k, 0.45 * params.lambda_minus, PayoffSide.PUT)
        assert abs(call - put - (mean - k)) <= 1e-12 * max(call, put), k


@pytest.mark.parametrize("key", ["sp", "btc"])
def test_ladder_payoffs_match_three_times_the_nodes(key, sp_params, btc_params, sp_table, btc_table, monkeypatch):
    # the trapezoid sum at the step 2 pi min(q, lambda - q) / _CONTOUR_NODES
    # against the same sum at a third of that step, at every ladder strike
    params, table = (sp_params, sp_table) if key == "sp" else (btc_params, btc_table)
    strikes = []
    for a in (0.001, *DEFAULT_LEVELS):
        strikes.append((var(table, a), 0.45 * params.lambda_minus, PayoffSide.PUT))
        strikes.append((var(table, 1.0 - a), 0.45 * params.lambda_plus, PayoffSide.CALL))
    got = [tail_payoff_fourier(params, *case) for case in strikes]
    monkeypatch.setattr(risk, "_CONTOUR_NODES", 3 * risk._CONTOUR_NODES)
    ref = [tail_payoff_fourier(params, *case) for case in strikes]
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


def test_payoff_far_tail_vanishes(sp_params):
    assert tail_payoff_fourier(sp_params, 40.0, 0.1, PayoffSide.CALL) < 1e-8
    assert tail_payoff_fourier(sp_params, -40.0, 0.1, PayoffSide.PUT) < 1e-8


def test_payoff_failures_quote_value_and_bound(sp_params, monkeypatch):
    # alpha ~ 0: Psi stays near 0 and the envelope only falls like 1/R^2
    flat = GtsParams(0.0, 0.95, 0.95, 1e-8, 1e-8, 0.1, 0.1)
    with pytest.raises(DivergentContourError, match=r"envelope 6\.065e-11 at R = 51200"):
        tail_payoff_fourier(flat, 0.0, 0.05, PayoffSide.CALL)
    # a constant phase of 0.5 on every node turns part of the payoff imaginary
    def rotated(*args):
        z, psi, wt = _contour(*args)
        return z, psi + 0.5j, wt

    monkeypatch.setattr(risk, "_contour", rotated)
    with pytest.raises(ContourError, match=r"imaginary residue 4\.563e-02 .* = 1\.084e-07"):
        tail_payoff_fourier(sp_params, 1.0, 0.4, PayoffSide.CALL)


@pytest.mark.parametrize("side", list(PayoffSide))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_payoff_rejects_non_finite_strike(sp_params, bad, side):
    # nan returned nan, +inf divided by zero and -inf ended in "envelope inf";
    # inside an array of strikes the same value is refused by name
    for k in (bad, np.array([-1.0, bad, 1.0])):
        with pytest.raises(ValueError, match=f"strike k must be finite, got {bad}"):
            tail_payoff_fourier(sp_params, k, 0.3, side)


def test_payoff_strip_validation(sp_params):
    with pytest.raises(DivergentContourError):
        tail_payoff_fourier(sp_params, 0.0, sp_params.lambda_plus + 0.5, PayoffSide.CALL)
    with pytest.raises(DivergentContourError):
        tail_payoff_fourier(sp_params, 0.0, -0.05, PayoffSide.CALL)
    with pytest.raises(DivergentContourError):
        tail_payoff_fourier(sp_params, 0.0, sp_params.lambda_minus + 0.5, PayoffSide.PUT)


# -- reconstruction error and offset selection --------------------------------


def test_reconstruction_error_reference(sp_params):
    # frozen optimum for the reference strike
    got = reconstruction_error(sp_params, -2.15, -0.073878)
    assert got == pytest.approx(4.9464e-05, rel=1e-3)


def test_reconstruction_error_sign_asymmetry(sp_params):
    # a positive offset damps the wrong side of the kink and fails badly
    good = reconstruction_error(sp_params, -2.15, -0.073878)
    bad = reconstruction_error(sp_params, -2.15, +0.073878)
    assert bad > 100.0 * good


def test_reconstruction_error_params_free(sp_params, btc_params):
    # the quadrature diagnostic depends on strike and offset only
    a = reconstruction_error(sp_params, -1.7, -0.05)
    b = reconstruction_error(btc_params, -1.7, -0.05)
    assert a == pytest.approx(b, rel=1e-12)


def test_optimize_q_band(sp_params):
    q = optimize_q(sp_params, -2.15)
    er = reconstruction_error(sp_params, -2.15, q)
    assert q < 0.0
    assert 1e-5 <= er <= 1e-3


def test_contour_error_scan_script(tmp_path, sp_params):
    path = tmp_path / "sp.json"
    save_params(sp_params, path)
    script = Path(__file__).resolve().parents[1] / "scripts" / "contour_error_scan.py"
    res = subprocess.run(
        [sys.executable, str(script), str(path), "--strikes", "-2.15"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
    strike, best_q = res.stdout.splitlines()[1].split()[:2]
    assert float(strike) == -2.15
    assert best_q == f"{optimize_q(sp_params, -2.15):.5f}"


def _direct_reconstruction_errors(k, q_values):
    # the diagnostic with its payoff sum taken directly over the quadrature
    # nodes, a block of lattice points at a time; returns the lattice size too
    nodes = int(round(2.0 * risk._ER_RADIUS / risk._ER_STEP)) + 1
    t = -risk._ER_RADIUS + risk._ER_STEP * np.arange(nodes)
    base = _composite_weights((nodes - 1) // 12) * (-np.exp(-1j * t * k))
    kern = (base[None, :] / (t[None, :] + 1j * q_values[:, None]) ** 2).T
    j_lo = math.ceil((k - risk._ER_WINDOW) / risk._ER_LATTICE)
    j_hi = math.floor((k + risk._ER_WINDOW) / risk._ER_LATTICE)
    xs = risk._ER_LATTICE * np.arange(j_lo, j_hi + 1)
    raw = np.concatenate([(np.exp(1j * np.outer(blk, t)) @ kern).real for blk in np.array_split(xs, 8)])
    recon = np.exp(-np.outer(xs - k, q_values)) * raw * (risk._ER_STEP / (2.0 * math.pi))
    return xs.size, np.sqrt(np.mean((np.maximum(xs - k, 0.0)[:, None] - recon) ** 2, axis=0))


@pytest.mark.parametrize("k, lattice", [(0.0, 301), (-2.15, 300), (-9.3, 300)])
def test_reconstruction_errors_match_direct_sum(k, lattice):
    # the fractional-DFT evaluation against the direct sum, on odd and even
    # lattice windows and a far strike, at the optimum, a wide and a wrong-side offset
    qs = np.array([-0.073878, -0.5, 0.01])
    size, want = _direct_reconstruction_errors(k, qs)
    assert size == lattice
    np.testing.assert_allclose(risk._reconstruction_errors(k, qs), want, rtol=1e-7, atol=0.0)


def test_optimize_q_leaves_plan_cache(sp_params):
    # the diagnostic builds its own plan and leaves a grid's plans in place
    grid = choose_grid(sp_params)
    plans = (grid.half_weights, grid.inversion_plan)
    optimize_q(sp_params, -2.15)
    assert all(a is b for a, b in zip((grid.half_weights, grid.inversion_plan), plans))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_reconstruction_error_rejects_non_finite(sp_params, bad):
    with pytest.raises(ValueError, match=f"strike k must be finite, got {bad}"):
        optimize_q(sp_params, bad)
    with pytest.raises(ValueError, match=f"offset q must be finite and nonzero, got {bad}"):
        reconstruction_error(sp_params, -2.15, bad)


@pytest.mark.parametrize("strike", ["nan", "inf"])
def test_contour_error_scan_script_rejects_non_finite(tmp_path, sp_params, strike):
    path = tmp_path / "sp.json"
    save_params(sp_params, path)
    script = Path(__file__).resolve().parents[1] / "scripts" / "contour_error_scan.py"
    res = subprocess.run(
        [sys.executable, str(script), str(path), "--strikes", strike],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert res.returncode == 2
    assert f"got {strike}" in res.stderr and "Traceback" not in res.stderr


# -- average value at risk ----------------------------------------------------

LEVELS = (0.01, 0.05, 0.10)


def test_avar_orders_around_var(sp_params, sp_table):
    for a in LEVELS:
        low = avar(sp_params, sp_table, a, TailSide.LOWER_TAIL)
        up = avar(sp_params, sp_table, a, TailSide.UPPER_TAIL)
        assert low.avar < low.var
        assert up.avar > up.var
        assert low.q_used < 0.0 < up.q_used
        assert low.level == pytest.approx(a)
        assert up.level == pytest.approx(1.0 - a)


def test_avar_matches_quantile_average(sp_params, sp_table):
    # AVaR equals the level-average of VaR over the whole tail (0, a].  In
    # u = log y the integrand VaR(e^u) e^u is smooth down to the 1e-9 of tail
    # mass the window resolves, below which var refuses levels and the tail
    # adds under 1e-6 to the average (as in test_09); starting at y = a/400
    # instead would drop 0.02 of the average.
    floor = max(float(sp_table.F[8]), spectral._WINDOW_TOL)
    for a in (0.05, 0.10):
        rep = avar(sp_params, sp_table, a, TailSide.LOWER_TAIL)
        us = np.linspace(math.log(floor), math.log(a), 400)
        vals = [var(sp_table, math.exp(u)) * math.exp(u) for u in us]
        ref = np.trapezoid(vals, us) / a
        assert rep.avar == pytest.approx(ref, abs=2e-3)


@pytest.mark.parametrize("key", ["sp", "btc"])
def test_avar_offset_invariance(key, sp_params, btc_params, sp_table, btc_table):
    # avar's contour runs at 0.45 lambda of its tail; the payoff does not
    # depend on the offset inside the strip, so 0.1 lambda gives the same AVaR
    params, table = (sp_params, sp_table) if key == "sp" else (btc_params, btc_table)
    for a in (0.005, 0.05, 0.10):
        low = avar(params, table, a, TailSide.LOWER_TAIL)
        put = tail_payoff_fourier(params, low.var, 0.1 * params.lambda_minus, PayoffSide.PUT)
        assert low.avar == pytest.approx(low.var - put / a, rel=0.0, abs=1e-9)
        assert low.q_used == -0.45 * params.lambda_minus
        up = avar(params, table, a, TailSide.UPPER_TAIL)
        call = tail_payoff_fourier(params, up.var, 0.1 * params.lambda_plus, PayoffSide.CALL)
        assert up.avar == pytest.approx(up.var + call / a, rel=0.0, abs=1e-9)
        assert up.q_used == 0.45 * params.lambda_plus


@pytest.mark.parametrize("key", ["sp", "btc"])
def test_avar_ladder_matches_per_level_calls(key, sp_params, btc_params, sp_table, btc_table, contour_calls):
    # a sequence of levels sums its payoffs on one contour per call; each
    # default-ladder strike alone lands on the same radius and nodes, so the
    # ladder equals the per-level calls bit for bit
    params, table = (sp_params, sp_table) if key == "sp" else (btc_params, btc_table)
    for side in TailSide:
        contour_calls.clear()
        ladder = avar(params, table, DEFAULT_LEVELS, side)
        assert len(contour_calls) == 1, side
        assert ladder == [avar(params, table, a, side) for a in DEFAULT_LEVELS]


@pytest.mark.parametrize("key", ["sp", "btc"])
def test_avar_ladder_solves_vars_like_var(key, sp_params, btc_params, sp_table, btc_table):
    # a tail's VaRs come from one solve, equal to var at each level bit for
    # bit, and var's two checks hold for every level of the ladder
    params, table = (sp_params, sp_table) if key == "sp" else (btc_params, btc_table)
    levels = (*DEFAULT_LEVELS, 1e-4)
    assert [r.var for r in avar(params, table, levels, TailSide.LOWER_TAIL)] == [var(table, a) for a in levels]
    assert [r.var for r in avar(params, table, levels, TailSide.UPPER_TAIL)] == [var(table, 1.0 - a) for a in levels]
    with pytest.raises(BracketEdgeError, match=r"level 1e-10 lies within 1e-09 of 0 or 1"):
        avar(params, table, (0.05, 1e-10), TailSide.LOWER_TAIL)
    with pytest.raises(BracketEdgeError, match=r"level 0\.9999999999 lies within 1e-09 of 0 or 1"):
        avar(params, table, (0.05, 1e-10), TailSide.UPPER_TAIL)
    short = dataclasses.replace(table, F=table.F[table.F >= 1e-7])
    with pytest.raises(BracketEdgeError, match=rf"quantile bracket -1 at table edge \(m={short.F.size}\)"):
        avar(params, short, (0.05, 1e-8), TailSide.LOWER_TAIL)


@pytest.mark.parametrize("key", ["sp", "btc"])
def test_ladders_match_four_times_the_output_nodes(key, sp_params, btc_params, sp_table, btc_table):
    # the output count only sets the step the cubic reads the node values
    # at: both tails' VaR and AVaR, at the default levels and at 1e-4, print
    # the same 4 decimals on a table with the same a and h and 4x the nodes
    params, table = (sp_params, sp_table) if key == "sp" else (btc_params, btc_table)
    fine = spectral.density_table(params, dataclasses.replace(table.grid, n=4 * table.grid.n))
    assert (fine.grid.a, fine.grid.h) == (table.grid.a, table.grid.h)
    levels = (*DEFAULT_LEVELS, 1e-4)
    for side in TailSide:
        for got, want in zip(avar(params, table, levels, side), avar(params, fine, levels, side)):
            assert f"{got.var:.4f} {got.avar:.4f}" == f"{want.var:.4f} {want.avar:.4f}", (side, got.level)


@pytest.mark.parametrize("side", list(PayoffSide))
def test_payoff_strikes_needing_different_radii(side, btc_params, btc_table, contour_calls):
    # alone, BTC's strike at 1e-8 of either tail takes R = 50 and those at
    # 1e-6 and 0.1 take R = 100; one pass sums all three on R = 100, which
    # moves the first by rounding only and leaves the others' bits
    levels = (1e-8, 1e-6, 0.1) if side is PayoffSide.PUT else (1.0 - 1e-8, 1.0 - 1e-6, 0.9)
    lam = btc_params.lambda_minus if side is PayoffSide.PUT else btc_params.lambda_plus
    strikes = np.array([var(btc_table, a) for a in levels])
    alone = [tail_payoff_fourier(btc_params, k, 0.45 * lam, side) for k in strikes]
    together = tail_payoff_fourier(btc_params, strikes, 0.45 * lam, side)
    assert [args[2] for args in contour_calls] == [50.0, 100.0, 100.0, 100.0]
    assert isinstance(together, np.ndarray) and together.shape == (3,)
    assert abs(together[0] - alone[0]) <= 1e-13
    assert together[1:].tolist() == alone[1:]


def test_contour_weights_are_the_trapezoid_rule(sp_params):
    # 1201 nodes centred on t = 0, half weight at both ends
    z, _, wt = _contour(sp_params, 0.3, 50.0, 1200)
    want = np.ones(1201)
    want[0] = want[-1] = 0.5
    assert np.array_equal(wt, want)
    assert z[600] == 0.3j and np.array_equal(z.real, -z.real[::-1])
    assert z[0].real == -50.0 and z[-1].real == 50.0


def test_avar_rejects_bad_alpha(sp_params, sp_table):
    for bad in (0.0, 0.5, 0.7):
        with pytest.raises(ValueError):
            avar(sp_params, sp_table, bad, TailSide.LOWER_TAIL)


# -- interval probability and reporting ---------------------------------------


def test_prob_interval_basics(sp_table):
    p = prob_interval(sp_table, -1.06, 1.23)
    assert 0.0 < p < 1.0
    assert p == pytest.approx(
        cdf_at(sp_table, 1.23) - cdf_at(sp_table, -1.06), abs=1e-15
    )
    with pytest.raises(ValueError):
        prob_interval(sp_table, 1.0, -1.0)


@pytest.mark.parametrize("key", ["sp", "btc"])
def test_prob_interval_clamps_to_table_span(key, sp_table, btc_table):
    # the window holds all but ~1e-9 of the mass, so a wider interval is the
    # table's whole mass and one beside the table is 0; cdf_at itself still
    # refuses points off the table
    table = sp_table if key == "sp" else btc_table
    x = table.x
    whole = cdf_at(table, x[-1]) - cdf_at(table, x[0])
    assert prob_interval(table, -1000.0, 1000.0) == whole
    assert prob_interval(table, -math.inf, math.inf) == whole
    assert prob_interval(table, x[-1] + 1.0, x[-1] + 2.0) == 0.0
    assert prob_interval(table, x[0] - 2.0, x[0] - 1.0) == 0.0
    assert prob_interval(table, -1000.0, 1.23) == cdf_at(table, 1.23) - cdf_at(table, x[0])
    with pytest.raises(spectral.SpanError):
        cdf_at(table, x[-1] + 1.0)


def test_risk_csv_layout(tmp_path):
    reports = [
        RiskReport(0.05, TailSide.LOWER_TAIL, -1.76, -2.79, -0.0739, -1.75, -2.80),
        RiskReport(0.95, TailSide.UPPER_TAIL, 1.67, 2.46, 0.0739, None, None),
    ]
    path = tmp_path / "risk.csv"
    write_risk_csv(reports, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "side,level,empirical_var,theoretical_var,empirical_avar,theoretical_avar"
    )
    assert lines[1].startswith("LowerTail,0.05,-1.7500,-1.7600,")
    cells = lines[2].split(",")
    assert cells[2] == "" and cells[4] == ""
