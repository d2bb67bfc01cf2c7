"""Likelihood assembly, analytic score and Hessian, Newton fit, sampling."""

import dataclasses

import numpy as np
import pytest

from gtsfit.gts_model import GtsParams, char_exponent, cumulants
from gtsfit.mle import (
    _DENSITY_FLOOR,
    _SAMPLE_BLOCK,
    FitOptions,
    FitStatus,
    FitTrace,
    TraceRow,
    _grid_for,
    _interp4,
    _objective,
    default_init,
    fit,
    loglik,
    observed_hessian,
    sample_inverse_cdf,
    score,
    write_trace_csv,
)
from gtsfit.risk import _quantile_clamped
from gtsfit.special_linalg import eigen_sym
from gtsfit.spectral import _output_points, _stencil, choose_grid, density_table, spectral_tables

from conftest import BTC_PARAMS

SP = GtsParams(-0.693477, 0.682290, 0.242579, 0.458582, 0.414443, 0.822222, 0.727607)


@pytest.fixture(scope="module")
def small_sample():
    return sample_inverse_cdf(SP, 160, seed=12)


def test_interp4_exact_on_cubics():
    x = np.linspace(0.0, 10.0, 41)
    rows = np.vstack([x**3 - 2.0 * x + 1.0, np.cos(0.3 * x)])
    pts = np.array([0.37, 4.412, 9.6])
    got = _interp4(x, rows, pts)
    want0 = pts**3 - 2.0 * pts + 1.0
    assert np.allclose(got[0], want0, rtol=1e-12)
    # smooth non-polynomial row: quartic-order local error
    assert np.allclose(got[1], np.cos(0.3 * pts), atol=5e-6)


def test_loglik_against_quadrature(small_sample):
    # direct Fourier inversion of the density, one observation at a time
    from scipy.integrate import quad

    def density(x):
        def integrand(xi):
            return np.real(
                np.exp(1j * xi * x + char_exponent(SP, -np.asarray(xi)))
            )

        total, _ = quad(integrand, 0.0, 128.0, limit=400, epsabs=1e-12, epsrel=1e-11)
        return total / np.pi

    subset = small_sample[:12]
    want = float(np.sum([np.log(density(float(v))) for v in subset]))
    got = loglik(subset, SP)
    assert got == pytest.approx(want, rel=1e-8, abs=1e-6)


def test_score_matches_finite_difference(small_sample):
    g = score(small_sample, SP)
    v0 = SP.to_vector()
    eps = 1e-5
    fd = np.zeros(7)
    for j in range(7):
        vp = v0.copy()
        vp[j] += eps
        vm = v0.copy()
        vm[j] -= eps
        fd[j] = (
            loglik(small_sample, GtsParams.from_vector(vp))
            - loglik(small_sample, GtsParams.from_vector(vm))
        ) / (2.0 * eps)
    assert np.max(np.abs(g - fd)) / (1.0 + np.max(np.abs(fd))) < 1e-6


def test_hessian_matches_finite_difference(small_sample):
    h = observed_hessian(small_sample, SP).entries
    v0 = SP.to_vector()
    eps = 1e-5
    fd = np.zeros((7, 7))
    for j in range(7):
        vp = v0.copy()
        vp[j] += eps
        vm = v0.copy()
        vm[j] -= eps
        fd[:, j] = (
            score(small_sample, GtsParams.from_vector(vp))
            - score(small_sample, GtsParams.from_vector(vm))
        ) / (2.0 * eps)
    fd = 0.5 * (fd + fd.T)
    assert np.linalg.norm(h - fd) / (1.0 + np.linalg.norm(fd)) < 1e-5


def _direct_objective(data, params, order):
    # the formula the adjoint Hessian replaced: invert every row of
    # spectral_tables(order), interpolate at the data, sum the ratios
    grid = _grid_for(params, data, 8192)
    x, rows = spectral_tables(params, grid, order)
    vals = _interp4(x, rows, data)
    f = np.maximum(vals[0], _DENSITY_FLOOR)
    ll = float(np.sum(np.log(f)))
    if order == 0:
        return ll, None, None
    u = vals[1:8] / f
    hess = np.zeros((7, 7))
    if order == 2:
        r = 8
        for k in range(7):
            for j in range(k, 7):
                hess[k, j] = hess[j, k] = float(np.sum(vals[r] / f)) - float(np.dot(u[k], u[j]))
                r += 1
    return ll, u.sum(axis=1), hess


@pytest.fixture(scope="module")
def btc_sample():
    # the first 400 draws of test_08's BTC sample
    return sample_inverse_cdf(BTC_PARAMS, 400, seed=71)


@pytest.mark.parametrize("asset", ["sp", "btc"])
def test_adjoint_hessian_matches_direct_rows(asset, small_sample, btc_sample):
    params, data = (SP, small_sample) if asset == "sp" else (BTC_PARAMS, btc_sample)
    _, _, want = _direct_objective(data, params, 2)
    got = observed_hessian(data, params).entries
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert loglik(data, params) == _direct_objective(data, params, 0)[0]
    ll1, score1, _ = _direct_objective(data, params, 1)
    assert np.array_equal(score(data, params), score1)
    # the order-2 objective reads log L and the score off the same rows
    ll2, score2, _ = _objective(params, data, _grid_for(params, data, 8192), 2)
    assert ll2 == ll1 and np.array_equal(score2, score1)


def _edge_sample(params, data, edges):
    # data plus one point a quarter step inside each named edge of the
    # coverage-40 table, where the full table's stencil is clipped
    x = _output_points(choose_grid(params, 8192))
    gamma = x[1] - x[0]
    extra = {"lo": x[0] + 0.25 * gamma, "hi": x[-1] - 0.25 * gamma}
    return np.append(data, [extra[e] for e in edges])


@pytest.mark.parametrize("asset", ["sp", "btc"])
@pytest.mark.parametrize("edges", [(), ("lo",), ("hi",)])
def test_grid_for_range_holds_every_stencil(asset, edges, small_sample, btc_sample):
    # every data point's 4 stencil nodes lie inside the grid's range, and
    # the ranged table picks the full table's stencil for each point
    params, data = (SP, small_sample) if asset == "sp" else (BTC_PARAMS, btc_sample)
    data = _edge_sample(params, data, edges)
    ranged = _grid_for(params, data, 8192)
    full = choose_grid(params, 8192)
    assert dataclasses.replace(ranged, k_lo=0, k_hi=None) == full
    lo, hi = ranged.nodes.start, ranged.nodes.stop
    assert (lo == 0) == ("lo" in edges) and (hi == full.m + 1) == ("hi" in edges)
    idx_full, w_full = _stencil(_output_points(full), data)
    idx, w = _stencil(_output_points(ranged), data)
    assert np.all(idx_full - 1 >= lo) and np.all(idx_full + 2 < hi)
    assert np.array_equal(idx + lo, idx_full)
    # _stencil's step x[1] - x[0] carries the rounding of each table's first
    # two nodes (about 1e-12 relative), and the weights with it
    assert np.allclose(w, w_full, rtol=0.0, atol=1e-11)


def test_grid_for_range_reaching_both_edges_is_the_full_grid(small_sample):
    data = _edge_sample(SP, small_sample, ("lo", "hi"))
    assert _grid_for(SP, data, 8192) == choose_grid(SP, 8192)


@pytest.mark.parametrize("asset", ["sp", "btc"])
def test_ranged_loglik_matches_full_grid(asset, small_sample, btc_sample):
    params, data = (SP, small_sample) if asset == "sp" else (BTC_PARAMS, btc_sample)
    ranged = _grid_for(params, data, 8192)
    assert len(ranged.nodes) < 0.5 * ranged.m
    full = dataclasses.replace(ranged, k_lo=0, k_hi=None)
    want = _objective(params, data, full, 0)[0]
    assert abs(_objective(params, data, ranged, 0)[0] - want) <= 1e-14 * abs(want)


def test_hessian_shares_the_inversion_char_terms(small_sample, monkeypatch):
    # the order-2 objective evaluates F and dPsi once, hands them to the
    # order-1 inversion and contracts the same arrays for its Hessian
    from gtsfit import mle, spectral

    calls = []
    real = spectral._char_terms

    def counting(params, xi, grad):
        calls.append(grad)
        return real(params, xi, grad)

    monkeypatch.setattr(spectral, "_char_terms", counting)
    monkeypatch.setattr(mle, "_char_terms", counting)
    observed_hessian(small_sample, SP)
    assert calls == [True]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("entry", ["loglik", "score", "observed_hessian", "fit", "fit_default_start"])
def test_non_finite_observation_is_named(entry, bad, small_sample):
    # a non-finite observation is refused where the sample enters, with its
    # index and value, before any arithmetic on it
    data = np.insert(small_sample, 37, bad)
    call = {
        "loglik": lambda: loglik(data, SP),
        "score": lambda: score(data, SP),
        "observed_hessian": lambda: observed_hessian(data, SP),
        "fit": lambda: fit(data, init=SP, options=FitOptions(max_iter=2)),
        "fit_default_start": lambda: fit(data, options=FitOptions(max_iter=2)),
    }[entry]
    with pytest.raises(ValueError, match=f"observation 37 is {bad}: the sample must be finite"):
        call()


def test_default_init_valid(small_sample):
    init = default_init(small_sample)
    init.validate()
    assert init.beta_plus == 0.5 and init.beta_minus == 0.5
    assert init.mu == pytest.approx(float(np.mean(small_sample)))


def test_sampler_deterministic():
    a = sample_inverse_cdf(SP, 50, seed=3)
    b = sample_inverse_cdf(SP, 50, seed=3)
    c = sample_inverse_cdf(SP, 50, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# 17-digit draws of the inverse of the cubic CDF interpolant that var and
# cdf_at share; the blocks must reproduce every seeded draw bit for bit
GOLDEN_SEED3 = {
    "sp": (
        -1.259101709676629, -0.42882417481195673, 0.70629446305722621, 0.20290405143309467,
        -1.1748063131422735, -0.034535963978351118, 0.036801906595053745, -0.72739364006709917,
    ),
    "btc": (
        -4.3804262766207813, -1.4644215620974315, 2.3853228754853402, 0.56411573882605837,
        -4.0803662615399894, -0.18014612007517941, 0.035046963728179864, -2.5015285499905815,
    ),
}


@pytest.mark.parametrize("key", ["sp", "btc"])
def test_sampler_golden_draws(key):
    params = SP if key == "sp" else BTC_PARAMS
    draws = sample_inverse_cdf(params, 8, seed=3)
    assert draws.tolist() == list(GOLDEN_SEED3[key])


def test_sampler_blocks_match_one_quantile_call():
    # a sample longer than one block equals one quantile call on all levels
    n = _SAMPLE_BLOCK + 37
    table = density_table(SP, choose_grid(SP, 8192))
    u = np.random.default_rng(7).random(n)
    assert np.array_equal(sample_inverse_cdf(SP, n, seed=7), _quantile_clamped(table, u))


def test_sampler_moments():
    draws = sample_inverse_cdf(SP, 4000, seed=1)
    kap = cumulants(SP, 2)
    se_mean = np.sqrt(kap.kappa(2) / draws.size)
    assert abs(np.mean(draws) - kap.kappa(1)) < 4.0 * se_mean
    assert np.std(draws) == pytest.approx(np.sqrt(kap.kappa(2)), rel=0.1)


def test_trace_csv_layout(tmp_path):
    rows = [
        TraceRow(1, SP, -5100.25, 12.5, -0.3, 0),
        TraceRow(2, SP, -5080.00, 1.2, -0.1, 2),
    ]
    path = tmp_path / "trace.csv"
    write_trace_csv(FitTrace(rows=tuple(rows)), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "iteration,mu,beta_plus,beta_minus,alpha_plus,alpha_minus,"
        "lambda_plus,lambda_minus,log_ml,grad_norm,max_eigenvalue"
    )
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "1"


def test_fit_from_truth_converges():
    # truth start on a modest sample: Newton should settle at a stationary
    # point with a negative-semidefinite Hessian within a few steps
    data = sample_inverse_cdf(SP, 700, seed=21, grid_m=4096)
    params, trace, status = fit(
        data, init=SP, options=FitOptions(max_iter=40, grid_m=4096)
    )
    assert status is FitStatus.CONVERGED
    last = trace.rows[-1]
    assert last.grad_norm <= 1e-6
    assert last.max_eigenvalue <= 0.0
    assert trace.rows[0].iteration == 1
    # log-likelihood must never decrease along accepted steps
    lls = [r.log_ml for r in trace.rows]
    assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))
    params.validate()


def test_fit_rows_carry_exact_hessian(small_sample):
    # every trace row's certificate is the exact observed Hessian at that
    # point, not a curvature surrogate
    _, trace, status = fit(small_sample, init=SP, options=FitOptions(max_iter=1))
    assert len(trace) == 1 and status is FitStatus.MAX_ITER
    assert trace.rows[0].max_eigenvalue == eigen_sym(observed_hessian(small_sample, SP))[0]


def test_fit_trace_monotone(small_sample):
    _, trace, _ = fit(small_sample, init=SP, options=FitOptions(max_iter=4))
    lls = [r.log_ml for r in trace.rows]
    assert all(b >= a - 1e-11 * (1.0 + abs(a)) for a, b in zip(lls, lls[1:]))
    for r in trace.rows:
        r.params.validate()


def test_fit_builds_each_plan_once_per_grid(small_sample, monkeypatch):
    # each grid of a fit needs one plan, which the inversion runs forward and
    # the pull-back transposed; it is built once and reused across iterations
    # and probes
    from gtsfit import mle, spectral

    grids, builds = set(), []
    build = spectral._bluestein

    def recording(params, grid, order=0, *, terms=None):
        grids.add(grid.m)
        return spectral_tables(params, grid, order, terms=terms)

    def counting(*key):
        builds.append(key)
        return build(*key)

    monkeypatch.setattr(mle, "spectral_tables", recording)
    monkeypatch.setattr(spectral, "_bluestein", counting)
    fit(small_sample, init=SP, options=FitOptions(max_iter=3))
    assert 0 < len(builds) <= len(grids)


def test_fit_rejects_bad_init(small_sample):
    from gtsfit.gts_model import DomainError

    bad = GtsParams(0.0, 1.4, 0.5, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        fit(small_sample, init=bad, options=FitOptions(max_iter=2))


def test_trace_csv_bytes_match_cell_formatting(tmp_path):
    # the shared CSV writer against the per-cell f-string format, on the
    # float values whose spelling is easiest to get wrong
    odd = (float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308, -1e308)
    rows = [
        TraceRow(1, GtsParams(*odd), -0.0, 5e-324, float("nan"), 3),
        TraceRow(12, SP, 1e308, float("inf"), -float("inf"), 0),
    ]
    path = tmp_path / "trace.csv"
    write_trace_csv(FitTrace(rows=rows), path)
    want = (
        "iteration,mu,beta_plus,beta_minus,alpha_plus,alpha_minus,"
        "lambda_plus,lambda_minus,log_ml,grad_norm,max_eigenvalue\n"
    )
    for r in rows:
        vals = list(r.params.to_vector()) + [r.log_ml, r.grad_norm, r.max_eigenvalue]
        want += str(r.iteration) + "," + ",".join(f"{v:.17g}" for v in vals) + "\n"
    assert path.read_bytes() == want.encode("utf-8")
