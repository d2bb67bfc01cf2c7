"""Transform engine: quadrature weights, fractional DFT, density inversion."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gtsfit.gts_model import GtsParams, char_fn, cumulants
from gtsfit.spectral import (
    FourierGrid,
    GridError,
    SpanError,
    _char_rows,
    _cumulative,
    _invert_rows,
    _nc_exact,
    _output_points,
    _partial_panel_weights,
    cdf_at,
    choose_grid,
    density_table,
    frft,
    newton_cotes_weights,
    spectral_tables,
    write_density_csv,
)

SP = GtsParams(-0.693477, 0.682290, 0.242579, 0.458582, 0.414443, 0.822222, 0.727607)


# -- quadrature weights -------------------------------------------------------


def test_panel_weights_polynomial_exactness():
    w = newton_cotes_weights()
    t = np.arange(13.0)
    for k in range(13):
        got = float(np.dot(w, t**k))
        want = 12.0 ** (k + 1) / (k + 1)
        assert got == pytest.approx(want, rel=1e-12)


def test_panel_weights_degree_13():
    # even interval count buys one extra degree
    w = newton_cotes_weights()
    t = np.arange(13.0)
    got = float(np.dot(w, t**13))
    assert got == pytest.approx(12.0**14 / 14.0, rel=1e-12)


def test_panel_weights_sum():
    assert float(np.sum(newton_cotes_weights())) == pytest.approx(12.0, rel=1e-14)


def test_partial_weights_rows():
    # Row r integrates t^k over [0, r] exactly for k <= 12.  The identities
    # are checked over the rationals: in float64 the sums cancel terms up to
    # 2e13 times the result, beyond any fixed relative tolerance.  The float
    # table must then be the correctly rounded image of the exact one.
    full, partial = _nc_exact()
    v = _partial_panel_weights()
    assert v.shape == (13, 13)
    assert np.all(v[0] == 0.0)
    for r in range(13):
        for k in range(13):
            got = sum(w * Fraction(j) ** k for j, w in enumerate(partial[r]))
            assert got == Fraction(r) ** (k + 1) / (k + 1), (r, k)
        assert [float(w) for w in partial[r]] == v[r].tolist()
    assert partial[12] == full
    assert np.array_equal(v[12], newton_cotes_weights())


# -- fractional DFT -----------------------------------------------------------


@pytest.mark.parametrize("m", [12, 24, 48])
def test_frft_matches_dft(m):
    rng = np.random.default_rng(m)
    seq = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    got = frft(seq, 1.0 / m)
    want = np.fft.fft(seq)
    assert np.max(np.abs(got - want)) < 1e-10


def test_frft_fractional_shift_brute_force():
    rng = np.random.default_rng(3)
    m = 17
    seq = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    delta, s = 0.0137, 0.31
    j = np.arange(m)
    want = np.array(
        [np.sum(seq * np.exp(-2j * np.pi * j * (k + s) * delta)) for k in range(m)]
    )
    got = frft(seq, delta, s)
    assert np.max(np.abs(got - want)) < 1e-11


def test_frft_batched_rows():
    rng = np.random.default_rng(4)
    block = rng.standard_normal((3, 20)) + 1j * rng.standard_normal((3, 20))
    got = frft(block, 0.021, 0.4)
    for r in range(3):
        assert np.allclose(got[r], frft(block[r], 0.021, 0.4), atol=1e-12)


# -- grid selection -----------------------------------------------------------


def test_grid_rounds_to_panel_multiple():
    # strong tempering keeps the alias requirement below the target
    p = GtsParams(0.0, 0.5, 0.5, 1.0, 1.0, 5.0, 5.0)
    g = choose_grid(p, m_target=8192)
    assert g.m == 8196
    assert g.m == 12 * g.n
    assert g.delta == pytest.approx(g.beta_step * g.gamma_step / (2 * math.pi))


def test_grid_refine_multiplies():
    p = GtsParams(0.0, 0.5, 0.5, 1.0, 1.0, 5.0, 5.0)
    g1 = choose_grid(p, m_target=1200)
    g8 = choose_grid(p, m_target=1200, refine=8)
    assert g8.n == 8 * g1.n
    assert g8.a == g1.a


def test_grid_centered_on_mean():
    g = choose_grid(SP, m_target=8192)
    assert g.center == pytest.approx(cumulants(SP, 1).kappa(1), rel=1e-12)
    x = _output_points(g)
    assert x.shape == (g.m + 1,)
    assert np.allclose(np.diff(x), g.gamma_step)


def test_grid_rejects_untempered_tail():
    # almost-stable density: characteristic function decays far too slowly
    p = GtsParams(0.0, 0.95, 0.95, 1e-8, 1e-8, 0.1, 0.1)
    with pytest.raises(GridError):
        choose_grid(p, m_target=96)


def test_grid_rejects_size_above_node_cap():
    with pytest.raises(GridError, match="2097152"):
        choose_grid(SP, m_target=2**21 + 12)


def test_grid_validates_arguments():
    with pytest.raises(ValueError):
        choose_grid(SP, m_target=6)
    with pytest.raises(ValueError):
        choose_grid(SP, m_target=8192, refine=0)


def test_fourier_grid_consistency_checks():
    with pytest.raises(ValueError):
        FourierGrid(
            a=64.0, q=12, n=10, m=121, beta_step=64 / 120, gamma_step=0.1,
            delta=64 / 120 * 0.1 / (2 * math.pi), s=0.0, center=0.0,
        )
    with pytest.raises(ValueError):
        FourierGrid(
            a=64.0, q=12, n=10, m=120, beta_step=64 / 120, gamma_step=0.1,
            delta=1.0, s=0.0, center=0.0,
        )


# -- inversion engine ---------------------------------------------------------


def _small_grid(params, n=24, coverage=20.0):
    a = 64.0
    m = 12 * n
    cum = cumulants(params, 2)
    span = coverage * math.sqrt(cum.kappa(2))
    beta = a / m
    gamma = span / m
    return FourierGrid(
        a=a, q=12, n=n, m=m, beta_step=beta, gamma_step=gamma,
        delta=beta * gamma / (2.0 * math.pi), s=0.0, center=cum.kappa(1),
    )


def test_two_stage_matches_direct_sum():
    # the panel-split evaluation must agree with the plain composite sum
    grid = _small_grid(SP)
    rows = _char_rows(SP, grid, order=0)
    got = _invert_rows(rows, grid)[0]

    m, beta, gamma, delta, s = grid.m, grid.beta_step, grid.gamma_step, grid.delta, grid.s
    q = np.arange(m + 1)
    xi = (q - m / 2.0) * beta
    v = rows[0] * np.exp(1j * grid.center * xi) * np.exp(-1j * np.pi * delta * m * q)
    w12 = newton_cotes_weights()
    w = np.zeros(m + 1)
    for p in range(grid.n):
        w[12 * p : 12 * p + 13] += w12
    k = np.arange(m + 1)
    phase = np.exp(2j * np.pi * delta * np.outer(q, k + s))
    S = (w * v) @ phase
    want = (
        beta / (2.0 * math.pi)
        * np.exp(1j * np.pi * delta * m * m / 2.0)
        * np.exp(-1j * np.pi * delta * m * (k + s))
        * S
    )
    assert np.max(np.abs(got - np.real(want))) < 1e-11


@pytest.mark.parametrize("order", [1, 2])
def test_derivative_rows_match_direct_sum(order):
    # every gradient and second-derivative row against the plain composite
    # sum  beta/(2 pi) sum_q W_q r(xi_q) exp(i xi_q x_k)
    grid = _small_grid(SP)
    rows = _char_rows(SP, grid, order)
    got = _invert_rows(rows, grid)
    w12 = newton_cotes_weights()
    w = np.zeros(grid.m + 1)
    for p in range(grid.n):
        w[12 * p : 12 * p + 13] += w12
    xi = (np.arange(grid.m + 1) - grid.m / 2.0) * grid.beta_step
    phase = np.exp(1j * np.outer(xi, _output_points(grid)))
    want = (grid.beta_step / (2.0 * math.pi) * ((w * rows) @ phase)).real
    assert got.shape == want.shape == (8 if order == 1 else 36, grid.m + 1)
    assert np.max(np.abs(got - want)) < 1e-11


def test_non_hermitian_leading_row_rejected():
    # an imaginary even part in a leading row (here the beta_minus gradient)
    # would leave an imaginary residue in the full sum; the half-spectrum
    # engine must refuse it
    grid = _small_grid(SP)
    rows = _char_rows(SP, grid, order=1)
    xi = (np.arange(grid.m + 1) - grid.m / 2.0) * grid.beta_step
    rows[3] += 1e-6j * np.exp(-xi * xi)
    with pytest.raises(GridError, match="imaginary residue .* in row 3"):
        _invert_rows(rows, grid)


def test_non_hermitian_second_order_row_rejected():
    grid = _small_grid(SP)
    rows = _char_rows(SP, grid, order=2)
    xi = (np.arange(grid.m + 1) - grid.m / 2.0) * grid.beta_step
    size = 1.0 + np.abs(_invert_rows(rows, grid)[20]).max()
    rows[20] += 1e-3j * size * np.exp(-xi * xi)
    with pytest.raises(GridError, match="imaginary residue .* in row 20"):
        _invert_rows(rows, grid)


def test_normal_density_round_trip():
    # Feed the engine an exact Gaussian transform; recover the pdf on [-6, 6].
    n = 150
    m = 12 * n
    a, span = 40.0, 16.0
    beta, gamma = a / m, span / m
    grid = FourierGrid(
        a=a, q=12, n=n, m=m, beta_step=beta, gamma_step=gamma,
        delta=beta * gamma / (2.0 * math.pi), s=0.0, center=0.0,
    )
    xi = (np.arange(m + 1) - m / 2.0) * beta
    mean = 0.3
    rows = np.exp(-0.5 * xi * xi - 1j * mean * xi)[None, :]
    f = _invert_rows(rows, grid)[0]
    x = _output_points(grid)
    want = np.exp(-0.5 * (x - mean) ** 2) / math.sqrt(2.0 * math.pi)
    mask = np.abs(x) <= 6.0
    assert np.max(np.abs(f[mask] - want[mask])) < 1e-10


def test_cumulative_normal():
    n = 150
    m = 12 * n
    a, span = 40.0, 16.0
    beta, gamma = a / m, span / m
    grid = FourierGrid(
        a=a, q=12, n=n, m=m, beta_step=beta, gamma_step=gamma,
        delta=beta * gamma / (2.0 * math.pi), s=0.0, center=0.0,
    )
    xi = (np.arange(m + 1) - m / 2.0) * beta
    f = _invert_rows(np.exp(-0.5 * xi * xi)[None, :], grid)[0]
    cdf, total = _cumulative(f, grid)
    assert total == pytest.approx(1.0, abs=1e-9)
    x = _output_points(grid)
    want = 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))
    mask = np.abs(x) <= 6.0
    assert np.max(np.abs(cdf[mask] - want[mask])) < 1e-9


# -- density tables -----------------------------------------------------------


def test_table_invariants(sp_table):
    t = sp_table
    m = t.grid.m
    assert t.x.shape == t.f.shape == t.F.shape == (m,)
    assert np.all(np.diff(t.x) > 0.0)
    assert np.all(t.f >= 0.0)
    assert np.all((t.F >= 0.0) & (t.F <= 1.0))
    assert np.all(np.diff(t.F) >= 0.0)
    assert t.F[0] < 1e-8
    assert t.F[-1] > 1.0 - 1e-8
    mass = np.trapezoid(t.f, t.x)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_table_mean_and_variance(sp_table):
    kap = cumulants(SP, 2)
    mean = np.trapezoid(sp_table.x * sp_table.f, sp_table.x)
    var = np.trapezoid((sp_table.x - mean) ** 2 * sp_table.f, sp_table.x)
    assert mean == pytest.approx(kap.kappa(1), abs=1e-8)
    assert var == pytest.approx(kap.kappa(2), rel=1e-7)


def test_parseval(sp_table):
    g = sp_table.grid
    xi = (np.arange(g.m + 1) - g.m / 2.0) * g.beta_step
    big_f = char_fn(SP, xi)
    lhs = np.trapezoid(sp_table.f**2, sp_table.x)
    rhs = np.trapezoid(np.abs(big_f) ** 2, xi) / (2.0 * math.pi)
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_mu_gradient_is_translation(sp_params):
    # d f / d mu = - f', checked against a fourth-order central difference
    # in x (a second-order one alone is off by 5e-5 on this grid)
    grid = choose_grid(sp_params, m_target=8192)
    table = density_table(sp_params, grid, with_derivatives=True)
    f, dmu, h = table.f, table.df[0], grid.gamma_step
    fprime = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * h)
    scale = np.max(np.abs(fprime))
    err = np.max(np.abs(dmu[2:-2] + fprime)) / scale
    assert err < 1e-5


def test_derivative_rows_against_finite_difference():
    # one spot check per parameter on a frozen small grid
    grid = _small_grid(SP, n=60)
    x, rows = spectral_tables(SP, grid, order=1)
    eps = 1e-6
    v0 = SP.to_vector()
    sel = slice(200, 520, 40)
    for j in range(7):
        vp = v0.copy()
        vp[j] += eps
        vm = v0.copy()
        vm[j] -= eps
        _, rp = spectral_tables(GtsParams.from_vector(vp), grid, order=0)
        _, rm = spectral_tables(GtsParams.from_vector(vm), grid, order=0)
        fd = (rp[0] - rm[0]) / (2.0 * eps)
        err = np.abs(rows[1 + j][sel] - fd[sel]) / (1.0 + np.abs(fd[sel]))
        assert err.max() < 1e-6, f"param {j}"


def test_cdf_at_nodes_and_between(sp_table):
    t = sp_table
    i = t.grid.m // 2
    assert cdf_at(t, float(t.x[i])) == pytest.approx(t.F[i], abs=1e-12)
    mid = 0.5 * (t.x[i] + t.x[i + 1])
    got = cdf_at(t, float(mid))
    assert t.F[i] <= got <= t.F[i + 1]


def test_cdf_at_outside_span(sp_table):
    with pytest.raises(SpanError):
        cdf_at(sp_table, float(sp_table.x[0]) - 1.0)
    with pytest.raises(SpanError):
        cdf_at(sp_table, float(sp_table.x[-1]) + 1.0)


def test_density_csv_layout(tmp_path, sp_table):
    path = tmp_path / "density.csv"
    write_density_csv(sp_table, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "x,f,F,df_mu,df_beta_plus,df_beta_minus,df_alpha_plus,"
        "df_alpha_minus,df_lambda_plus,df_lambda_minus"
    )
    assert len(lines) == 1 + sp_table.x.size
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(sp_table.x[0])
    # derivative columns blank when the table was built without them
    assert first[3:] == [""] * 7


def test_density_csv_derivatives(tmp_path):
    # an automatic grid: a hand-made one with frequency step a/m = 0.13 puts
    # the quadrature's alias images inside the window and the negative
    # density gate rightly rejects it
    grid = choose_grid(SP, m_target=480)
    table = density_table(SP, grid, with_derivatives=True)
    path = tmp_path / "d.csv"
    write_density_csv(table, path)
    row = path.read_text(encoding="utf-8").splitlines()[1].split(",")
    assert len(row) == 10
    assert float(row[3]) == pytest.approx(table.df[0][0])
