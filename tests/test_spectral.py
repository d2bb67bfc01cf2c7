"""Transform engine: quadrature weights, fractional DFT, density inversion."""

import dataclasses
import importlib
import inspect
import math
import pkgutil
from fractions import Fraction

import numpy as np
import pytest

from gtsfit import spectral
from gtsfit.data import _CSV_BLOCK_ROWS
from gtsfit.gts_model import (
    _SIDE_INDEX,
    GtsParams,
    _char_terms,
    _psi_grad,
    _psi_hess,
    _side_hess,
    _side_parts,
    char_fn,
    cumulants,
)
from gtsfit.spectral import (
    _CUBIC,
    _PAIRS,
    FourierGrid,
    GridError,
    SpanError,
    _bluestein,
    _char_rows,
    _composite_weights,
    _cumulative,
    _fast_len,
    _half_rows,
    _half_xi,
    _interp4,
    _invert_rows,
    _nc_exact,
    _output_points,
    _partial_panel_weights,
    _pull_back,
    cdf_at,
    choose_grid,
    density_table,
    frft,
    newton_cotes_weights,
    spectral_tables,
    write_density_csv,
)

SP = GtsParams(-0.693477, 0.682290, 0.242579, 0.458582, 0.414443, 0.822222, 0.727607)
BTC = GtsParams(-0.736924, 0.461378, 0.267178, 0.810017, 0.517347, 0.215628, 0.191937)


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


@pytest.mark.parametrize("panels", [1, 2, 7])
def test_composite_weights_exact_to_degree_13(panels):
    # every 12-subinterval panel is exact for degree 13, so the composite rule
    # on 12 * panels unit steps is too; ends W[0], W[12], interior joints 2 W[0]
    n = 12 * panels
    w = _composite_weights(panels)
    assert w.shape == (n + 1,)
    t = np.arange(n + 1) / n
    for k in range(14):
        assert float(w @ t**k) / n == pytest.approx(1.0 / (k + 1), rel=1e-14, abs=0.0), k


def test_half_weights_are_the_trapezoid_rule(sp_table):
    # the xi >= 0 half of the trapezoid weights on the 2h+1 frequency nodes:
    # 1/2 at xi = 0 (its real part is doubled with the rest) and at xi = a/2
    grid = sp_table.grid
    want = np.ones(grid.h + 1)
    want[0] = want[-1] = 0.5
    assert np.array_equal(grid.half_weights[0], want)


def test_cubic_rows_are_the_cardinal_cubics():
    # row j of _CUBIC is 1 at node j - 1 and 0 at the other nodes of -1..2
    nodes = np.array([-1.0, 0.0, 1.0, 2.0])
    assert np.allclose(_CUBIC @ nodes ** np.arange(4)[:, None], np.eye(4), rtol=0.0, atol=1e-15)
    assert not _CUBIC.flags.writeable


def test_cdf_at_is_the_shared_cubic_at_the_edges(sp_table):
    # one node inward at either edge: the cubic through the first (last) four
    # nodes, to a few ulp of 1 (cdf_at sums differences, _interp4 node values)
    t = sp_table
    for i in (0, t.x.size - 2):
        x = float(t.x[i] + 0.3 * t.grid.gamma_step)
        val = float(_interp4(t.x, t.F, np.array([x]))[0])
        assert cdf_at(t, x) == pytest.approx(min(max(val, t.F[i]), t.F[i + 1]), rel=0.0, abs=5e-16)


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



@pytest.mark.parametrize("m, n_out", [(150, 230), (230, 150)])
@pytest.mark.parametrize("shift", ["0", "0.3", "-m/2"])
def test_plan_transpose_is_adjoint(m, n_out, shift):
    # <y, G x> = <G^T y, x> row by row on two-row inputs, within 1e-13 of the
    # sum of |terms| |y_k G_kj x_j| (|G_kj| = 1), with fewer and with more
    # outputs than inputs, and with the output shift of a full grid (-m/2)
    s = -m / 2 if shift == "-m/2" else float(shift)
    plan = _bluestein(m, n_out, -0.0137, s)
    rng = np.random.default_rng(m)
    x = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
    y = rng.standard_normal((2, n_out)) + 1j * rng.standard_normal((2, n_out))
    gty = plan.transpose(y)
    assert gty.shape == (2, m)
    lhs = np.sum(y * plan(x), axis=1)
    rhs = np.sum(gty * x, axis=1)
    terms = np.abs(y).sum(axis=1) * np.abs(x).sum(axis=1)
    assert np.all(np.abs(lhs - rhs) <= 1e-13 * terms)


# -- grid selection -----------------------------------------------------------


def test_grid_rounds_to_panel_multiple():
    # strong tempering keeps the cubic's node requirement below the target
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
    assert g8.h == 8 * g1.h
    assert g8.a == g1.a


def test_grid_centered_on_mean():
    g = choose_grid(SP, m_target=8192)
    assert g.center == pytest.approx(cumulants(SP, 1).kappa(1), rel=1e-12)
    x = _output_points(g)
    assert x.shape == (g.m + 1,)
    assert np.allclose(np.diff(x), g.gamma_step)


@pytest.mark.parametrize("params, m", [(SP, 18840), (BTC, 36948)], ids=["sp", "btc"])
def test_grid_xi_count_is_below_half_the_output_count(params, m):
    # the output count is set by the 4-point cubic's error bound, the
    # frequency count by the trapezoid sum's images: fewer than m/2 nodes
    grid = choose_grid(params, 8192)
    assert grid.m == m
    assert grid.h < grid.m // 2



# the fit of bench/data/fit_sp_1290.txt from the SP set
_SP_FIT = GtsParams(
    -0.6774283924058273, 0.663055062538813, 0.24777344548555888, 0.491172174396413,
    0.39861736001694503, 0.8646655794747042, 0.6684093898776702,
)


def _box_params(count, seed):
    # parameter sets drawn from a box around the reference fits
    rng = np.random.default_rng(seed)
    for _ in range(count):
        beta = rng.uniform(0.05, 0.95, 2)
        alpha, lam = np.exp(rng.uniform(np.log(0.05), np.log(5.0), 2)), np.exp(rng.uniform(np.log(0.05), np.log(10.0), 2))
        yield GtsParams(rng.uniform(-1.0, 1.0), *beta, *alpha, *lam)


def _cubic_bound(params, grid, m):
    # (9/384) gamma^4 M3 at gamma = span/m: the a-priori bound on the 4-point
    # cubic's CDF error, M3 = (1/2 pi) int |xi|^3 |F| on the grid's span
    xi = np.linspace(-grid.a / 2.0, grid.a / 2.0, 4097)
    m3 = float(np.trapezoid(np.abs(xi) ** 3 * np.abs(char_fn(params, xi)), xi)) / (2.0 * math.pi)
    return 9.0 / 384.0 * (grid.span / m) ** 4 * m3


def test_output_count_is_smallest_meeting_cubic_bound(monkeypatch):
    # m is the smallest multiple of 12 that meets the a-priori bound 1e-10,
    # and the built table's own estimate (9/384) max|Delta^4 F| meets it
    # too, on the reference sets, the fitted SP set and a seeded sweep of
    # the parameter box.  A point whose tail is not covered below a = 1e6
    # has no grid; one whose m is above the node cap is checked with the cap
    # lifted and must be refused with it
    monkeypatch.setattr(spectral, "_NODE_CAP", 2**40)
    tables = over_cap = 0
    for params in (SP, BTC, _SP_FIT, *_box_params(200, 29)):
        try:
            grid = choose_grid(params, 12)
        except GridError as err:
            assert "tail not covered" in str(err), params
            continue
        assert _cubic_bound(params, grid, grid.m) <= 1e-10 < _cubic_bound(params, grid, grid.m - 12), params
        if grid.m > 2**21:
            with monkeypatch.context() as mp:
                mp.setattr(spectral, "_NODE_CAP", 2**21)
                with pytest.raises(GridError, match=f"m = {grid.m} nodes, above the cap"):
                    choose_grid(params, 12)
            over_cap += 1
            continue
        table = density_table(params, grid)
        assert 9.0 / 384.0 * np.abs(np.diff(table.F, 4)).max() <= 1e-10, params
        tables += 1
    assert (tables, over_cap) == (194, 4)


@pytest.mark.parametrize("params", [SP, BTC], ids=["sp", "btc"])
def test_table_matches_three_times_the_xi_nodes(params):
    # the chosen frequency count sits on the trapezoid sum's error floor: f, F
    # and the seven gradient rows agree with the table on three times the
    # frequency nodes within 1e-12 of each row's maximum
    grid = choose_grid(params)
    got = density_table(params, grid, with_derivatives=True)
    ref = density_table(params, dataclasses.replace(grid, h=3 * grid.h), with_derivatives=True)
    assert np.array_equal(got.x, ref.x)
    for row, want in zip((got.f, got.F, *got.df), (ref.f, ref.F, *ref.df)):
        assert np.abs(row - want).max() <= 1e-12 * np.abs(want).max()


def test_grid_rejects_untempered_tail():
    # almost-stable density: characteristic function decays far too slowly
    p = GtsParams(0.0, 0.95, 0.95, 1e-8, 1e-8, 0.1, 0.1)
    with pytest.raises(GridError, match=r"max \|F\(\+-a/2\)\| = 9\.955e-01 at a = 524288, bound 1e-12"):
        choose_grid(p, m_target=96)


def test_grid_rejects_size_above_node_cap():
    with pytest.raises(GridError, match="2097152"):
        choose_grid(SP, m_target=2**21 + 12)


def test_grid_validates_arguments():
    with pytest.raises(ValueError):
        choose_grid(SP, m_target=6)
    with pytest.raises(ValueError):
        choose_grid(SP, m_target=8192, refine=0)


def test_fourier_grid_rejects_bad_geometry():
    for bad in ({"a": 0.0}, {"n": 0}, {"span": -1.0}, {"h": 0}, {"h": -4}):
        with pytest.raises(ValueError):
            FourierGrid(**{"a": 64.0, "n": 10, "span": 8.0, "center": 0.0, "h": 60, **bad})
    with pytest.raises(TypeError):
        FourierGrid(a=64.0, n=10, span=8.0, center=0.0, h=45.0)
    # the frequency side has its own node count, which every grid names
    with pytest.raises(TypeError):
        FourierGrid(a=64.0, n=10, span=8.0, center=0.0)
    g = FourierGrid(a=64.0, n=10, span=8.0, center=0.0, h=60)
    assert (g.m, g.h, g.beta_step, g.gamma_step) == (120, 60, 64.0 / 120, 8.0 / 120)
    assert FourierGrid(a=64.0, n=10, span=8.0, center=0.0, h=np.int64(45)).beta_step == 64.0 / 90
    # the output lattice has no shift of its own: node k sits at center + (k - m/2) gamma_step
    assert [f.name for f in dataclasses.fields(g)] == ["a", "n", "span", "center", "h", "k_lo", "k_hi"]


def test_fourier_grid_rejects_bad_node_range():
    # the output-node range must satisfy 0 <= k_lo < k_hi <= m + 1 (m = 120)
    for bad in ({"k_lo": -1}, {"k_lo": 121}, {"k_lo": 5, "k_hi": 5}, {"k_hi": 0}, {"k_hi": 122}):
        with pytest.raises(ValueError, match=r"output-node range \[-?\d+, \d+\) not inside \[0, 121\)"):
            FourierGrid(**{"a": 64.0, "n": 10, "span": 8.0, "center": 0.0, "h": 60, **bad})
    g = FourierGrid(a=64.0, n=10, span=8.0, center=0.0, h=60)
    assert g.nodes == range(121)
    assert FourierGrid(a=64.0, n=10, span=8.0, center=0.0, h=60, k_hi=40).nodes == range(40)
    assert FourierGrid(a=64.0, n=10, span=8.0, center=0.0, h=60, k_lo=7).nodes == range(7, 121)
    # a range covering every node is the default grid, so it shares its caches
    full = FourierGrid(a=64.0, n=10, span=8.0, center=0.0, h=60, k_lo=0, k_hi=121)
    assert full == g and hash(full) == hash(g) and full.k_hi is None


def test_fourier_grid_sizes_are_integers():
    # numpy integers are coerced to int, floats are refused
    grid = choose_grid(SP, 8192)
    cast = dataclasses.replace(grid, n=np.int64(grid.n), k_lo=np.int64(0), k_hi=np.int64(grid.m + 1))
    assert cast == grid and type(cast.n) is int and cast.k_hi is None
    ranged = dataclasses.replace(grid, k_lo=np.int64(3), k_hi=np.int32(90))
    assert (type(ranged.k_lo), type(ranged.k_hi)) == (int, int)
    assert np.array_equal(density_table(SP, cast).f, density_table(SP, grid).f)
    for bad in ({"n": 2.5}, {"n": 10.0}, {"k_lo": 1.0}, {"k_hi": 60.5}):
        with pytest.raises(TypeError):
            FourierGrid(**{"a": 64.0, "n": 10, "span": 8.0, "center": 0.0, "h": 60, **bad})
    assert _fast_len(np.int64(1753)) == 1800
    assert type(_fast_len(np.int64(1753))) is int


# -- inversion engine ---------------------------------------------------------


def _small_grid(params, n=24, coverage=20.0):
    cum = cumulants(params, 2)
    return FourierGrid(a=64.0, n=n, span=coverage * math.sqrt(cum.kappa(2)), center=cum.kappa(1), h=6 * n)


def _trapezoid(nodes):
    # trapezoid weights on ``nodes`` unit-spaced nodes
    w = np.ones(nodes)
    w[0] = w[-1] = 0.5
    return w


def _xi_grids(params):
    # the small grid with one frequency step count on both sides (h = m/2 =
    # 144), and with fewer frequency nodes than output nodes (h = 101)
    grid = _small_grid(params)
    return grid, dataclasses.replace(grid, h=101)


def test_two_stage_matches_direct_sum():
    # the half-spectrum evaluation must agree with the plain trapezoid sum
    for grid in _xi_grids(SP):
        rows = _char_rows(SP, grid, order=0)
        got = _invert_rows(rows, grid)[0]

        m, h, beta, delta = grid.m, grid.h, grid.beta_step, grid.delta
        q = np.arange(2 * h + 1)
        xi = (q - h) * beta
        v = rows[0] * np.exp(1j * grid.center * xi) * np.exp(-1j * np.pi * delta * m * q)
        k = np.arange(m + 1)
        phase = np.exp(2j * np.pi * delta * np.outer(q, k))
        S = (_trapezoid(2 * h + 1) * v) @ phase
        want = (
            beta / (2.0 * math.pi)
            * np.exp(1j * np.pi * delta * h * m)
            * np.exp(-2j * np.pi * delta * h * k)
            * S
        )
        assert np.max(np.abs(got - np.real(want))) < 1e-11


@pytest.mark.parametrize("order", [1, 2])
def test_derivative_rows_match_direct_sum(order):
    # every gradient and second-derivative row against the plain trapezoid
    # sum  beta/(2 pi) sum_q W_q r(xi_q) exp(i xi_q x_k)
    for grid in _xi_grids(SP):
        rows = _char_rows(SP, grid, order)
        got = _invert_rows(rows, grid)
        xi = (np.arange(2 * grid.h + 1) - grid.h) * grid.beta_step
        phase = np.exp(1j * np.outer(xi, _output_points(grid)))
        want = (grid.beta_step / (2.0 * math.pi) * ((_trapezoid(2 * grid.h + 1) * rows) @ phase)).real
        assert got.shape == want.shape == (8 if order == 1 else 36, grid.m + 1)
        assert np.max(np.abs(got - want)) < 1e-11


def _shifted_grid(params, shift, **nodes):
    # the small grid with its center moved by ``shift`` output steps: a
    # fractional shift puts the output lattice off the default one
    grid = _small_grid(params)
    return dataclasses.replace(grid, center=grid.center + shift * grid.gamma_step, **nodes)


@pytest.mark.parametrize("shift", [0.0, 0.3])
def test_pull_back_is_adjoint_of_inversion(shift):
    # sum_k c_k f_r(x_k) == Re sum_q rows[r, h+q] d_q for every row, d the
    # pull-back of c, on the default lattice and one shifted by 0.3 steps,
    # with h = m/2 and with fewer frequency nodes (h = 101)
    for h in (144, 101):
        grid = _shifted_grid(SP, shift, h=h)
        rows = _char_rows(SP, grid, 2)
        assert rows.shape == (36, 2 * grid.h + 1)
        out = _invert_rows(rows, grid)
        c = np.random.default_rng(7).standard_normal(grid.m + 1)
        d = _pull_back(c, grid)
        assert d.shape == (grid.h + 1,)
        lhs = out @ c
        rhs = (rows[:, grid.h :] @ d).real
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.abs(lhs))


@pytest.mark.parametrize("shift", [0.0, 0.3])
@pytest.mark.parametrize("k_lo, k_hi", [(70, 220), (150, 289)])
def test_ranged_pull_back_is_adjoint_of_ranged_inversion(shift, k_lo, k_hi):
    # the identity of test_pull_back_is_adjoint_of_inversion on a grid that
    # inverts only the output nodes k_lo..k_hi-1 of 289, with h = m/2 and
    # with h = 101.  A sum over part of the window can cancel, so the bound
    # scales with the sum of |terms|
    for h in (144, 101):
        grid = _shifted_grid(SP, shift, k_lo=k_lo, k_hi=k_hi, h=h)
        rows = _char_rows(SP, grid, 2)
        out = _invert_rows(rows, grid)
        assert out.shape == (36, k_hi - k_lo)
        c = np.random.default_rng(7).standard_normal(k_hi - k_lo)
        d = _pull_back(c, grid)
        assert d.shape == (grid.h + 1,)
        lhs = out @ c
        rhs = (rows[:, grid.h :] @ d).real
        assert np.all(np.abs(lhs - rhs) <= 1e-13 * (np.abs(out) @ np.abs(c)))


@pytest.mark.parametrize("params", [SP, BTC], ids=["sp", "btc"])
@pytest.mark.parametrize("order", [0, 1])
def test_ranged_tables_match_the_full_table(params, order):
    # a ranged grid computes the full table's middle third: the same output
    # points bit for bit, and rows equal to within rounding of each row's scale
    full = choose_grid(params, 8192)
    ranged = dataclasses.replace(full, k_lo=full.m // 3, k_hi=2 * full.m // 3)
    x_full, rows_full = spectral_tables(params, full, order)
    x, rows = spectral_tables(params, ranged, order)
    window = slice(full.m // 3, 2 * full.m // 3)
    assert np.array_equal(x, x_full[window])
    assert np.array_equal(x, _output_points(ranged))
    scale = np.abs(rows_full).max(axis=1)
    assert np.all(np.abs(rows - rows_full[:, window]).max(axis=1) <= 5e-15 * scale)


@pytest.mark.parametrize("params", [SP, BTC], ids=["sp", "btc"])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_char_rows_share_one_exponent_evaluation(params, order):
    # the rows built from one shared power evaluation are bit for bit the
    # composition of the separate char_fn, _psi_grad and _psi_hess calls
    grid = _small_grid(params)
    xi = (np.arange(grid.m + 1) - grid.m / 2.0) * grid.beta_step
    f = char_fn(params, xi)
    s = _side_parts(params, -xi, with_psi=True)
    want = [f]
    if order >= 1:
        g = _psi_grad(-xi, s)
        want += [f * g[j] for j in range(7)]
    if order >= 2:
        h = _psi_hess(-xi, s)
        want += [f * (g[k] * g[j] + h[k, j]) for k, j in _PAIRS]
    assert np.array_equal(_char_rows(params, grid, order), np.array(want))
    # the rows the inversion transforms are the xi >= 0 half of those
    assert np.array_equal(_half_rows(params, grid, order), np.array(want)[:, grid.m // 2 :])


@pytest.mark.parametrize("params", [SP, BTC], ids=["sp", "btc"])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_spectral_tables_match_full_row_inversion(params, order):
    # transforming the half directly gives the same bits as inverting the
    # full symmetric rows through the gated path
    grid = _small_grid(params)
    x, vals = spectral_tables(params, grid, order)
    assert np.array_equal(x, _output_points(grid))
    assert np.array_equal(vals, _invert_rows(_char_rows(params, grid, order), grid))
    # terms handed in (F, dPsi and the side parts on the xi >= 0 half) give
    # the same bits as the ones spectral_tables evaluates when they are omitted
    q = grid.m // 2 + 1
    terms = _char_terms(params, _half_xi(grid), order >= 1)
    f, g, parts = terms
    assert f.shape == (q,) and (g is None if order == 0 else g.shape == (7, q))
    # per side: log w and w^beta - lambda^beta, from order 1 on w^(beta-1)
    # and h_1, h_2 of beta log(w/lambda)
    sides = [v for d in parts.values() for v in d.values() if isinstance(v, np.ndarray)]
    assert len(sides) == (10 if order >= 1 else 4) and all(v.shape == (q,) for v in sides)
    x_t, vals_t = spectral_tables(params, grid, order, terms=terms)
    assert np.array_equal(x_t, x) and np.array_equal(vals_t, vals)


@pytest.mark.parametrize("params", [SP, BTC], ids=["sp", "btc"])
def test_side_hess_contraction_matches_dense(params):
    # contracting each side's 3x3 block gives the dense (7, 7) contraction
    # over _psi_hess bit for bit
    xi = _half_xi(_small_grid(params))
    s = _side_parts(params, -xi, with_psi=True)
    rng = np.random.default_rng(5)
    fd = rng.standard_normal(xi.size) + 1j * rng.standard_normal(xi.size)
    got = np.zeros((7, 7), dtype=complex)
    for key, ix in _SIDE_INDEX.items():
        got[np.ix_(ix, ix)] += np.einsum("kjq,q->kj", _side_hess(s[key]), fd)
    assert np.array_equal(got, np.einsum("kjq,q->kj", _psi_hess(-xi, s), fd))


def test_package_caches_take_no_arguments():
    # the only lru_caches in gtsfit are constant tables: nothing is cached
    # under a parameter set, a grid or a contour, in any module
    import gtsfit

    caches = []
    for info in pkgutil.iter_modules(gtsfit.__path__):
        module = importlib.import_module(f"gtsfit.{info.name}")
        caches += [v for v in vars(module).values() if callable(v) and hasattr(v, "cache_info")]
    assert {"_nc_exact", "_partial_panel_weights", "_pow10_table"} <= {c.__name__ for c in caches}
    for c in caches:
        assert not inspect.signature(c.__wrapped__).parameters, f"{c.__module__}.{c.__name__}"


def test_transform_result_survives_workspace_reuse():
    # a plan's result is a fresh array: later transforms by the same or a
    # larger plan leave it unchanged
    rng = np.random.default_rng(9)
    small = _bluestein(200, 300, 1e-3, 0.0)
    x = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    got = small(x)
    kept = got.copy()
    again = small(rng.standard_normal(200))
    assert not np.shares_memory(got, again)
    small(rng.standard_normal(200))
    large = _bluestein(900, 1500, 1e-3, 0.0)
    large(rng.standard_normal((2, 900)))
    assert large.size > small.size
    assert np.array_equal(got, kept)


def test_plan_caches_match_cold_transforms():
    # grids that differ only in the first output node k_lo, or only in the
    # parameters, must never share a plan or a phase: every warm transform
    # equals the one computed on a cold copy of its grid
    params = [p for p in (SP, BTC) for _ in range(2)]
    grids = [dataclasses.replace(_small_grid(p), k_lo=k_lo) for p, k_lo in zip(params, (0, 5) * 2)]
    rows = [_char_rows(p, grid, 1) for p, grid in zip(params, grids)]
    rng = np.random.default_rng(3)
    cs = [rng.standard_normal(len(grid.nodes)) for grid in grids]
    cold = []
    for grid, r, c in zip(grids, rows, cs):
        fresh = dataclasses.replace(grid)
        cold.append((_invert_rows(r, fresh), _pull_back(c, fresh)))
    for _ in range(2):
        for grid, r, c, (inv, pb) in zip(grids, rows, cs, cold):
            assert np.array_equal(_invert_rows(r, grid), inv)
            assert np.array_equal(_pull_back(c, grid), pb)
    plans = [obj for g in grids for obj in (g.inversion_plan, g.half_weights[1])]
    assert len({id(obj) for obj in plans}) == len(plans)



@pytest.mark.parametrize("nodes", [{}, {"k_lo": 70, "k_hi": 220}], ids=["full", "ranged"])
def test_grid_builds_one_plan(monkeypatch, nodes):
    # the inversion runs the grid's plan forward and the pull-back runs it
    # transposed: a fresh grid calls _bluestein once across both
    calls, build = [], spectral._bluestein
    monkeypatch.setattr(spectral, "_bluestein", lambda *key: calls.append(key) or build(*key))
    grid = dataclasses.replace(_small_grid(SP), **nodes)
    rows = _char_rows(SP, grid, 1)
    _invert_rows(rows, grid)
    _pull_back(np.ones(len(grid.nodes)), grid)
    _invert_rows(rows, grid)
    assert len(calls) == 1


def test_cached_plan_arrays_are_read_only():
    grid = _small_grid(SP)
    plan = grid.inversion_plan
    cached = (plan.pre, plan.kern, plan.post, *grid.half_weights)
    for arr in cached + (_partial_panel_weights(),):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


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


@pytest.mark.parametrize("field", ["a", "span", "center"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_grid_rejects_non_finite_field(field, bad):
    # a NaN centre or an infinite span used to give a table of NaN densities
    grid = choose_grid(SP, 8192)
    with pytest.raises(ValueError, match=f"grid field {field} must be finite, got {bad}"):
        density_table(SP, dataclasses.replace(grid, **{field: bad}))


def test_grid_rejects_non_finite_delta():
    # finite a and span whose transform step overflows to inf
    grid = choose_grid(SP, 8192)
    with pytest.raises(ValueError, match="a=1e\\+200 and span=1e\\+200 overflow the transform step delta"):
        dataclasses.replace(grid, a=1e200, span=1e200)


@pytest.mark.parametrize("gate", ["negative density", "recovered mass", "imaginary residue"])
def test_gates_fail_non_finite_values(gate, monkeypatch):
    # each accuracy gate compares as "not value <= bound", so a NaN fails it
    from gtsfit import spectral

    if gate == "imaginary residue":
        grid = _small_grid(SP)
        rows = _char_rows(SP, grid, order=1)
        rows[0, grid.m // 2 + 5] = math.nan
        with pytest.raises(GridError, match="imaginary residue nan in row 0"):
            _invert_rows(rows, grid)
        return
    if gate == "negative density":
        tables = spectral.spectral_tables

        def poisoned(params, grid, order=0):
            x, vals = tables(params, grid, order)
            vals[0, 7] = math.nan
            return x, vals

        monkeypatch.setattr(spectral, "spectral_tables", poisoned)
    else:
        monkeypatch.setattr(spectral, "_cumulative", lambda f, grid: (np.zeros(grid.m + 1), math.nan))
    with pytest.raises(GridError, match=f"{gate} nan"):
        density_table(SP, choose_grid(SP, 8192))


def test_normal_density_round_trip():
    # Feed the engine an exact Gaussian transform; recover the pdf on [-6, 6].
    grid = FourierGrid(a=40.0, n=150, span=16.0, center=0.0, h=900)
    m = grid.m
    xi = (np.arange(m + 1) - m / 2.0) * grid.beta_step
    mean = 0.3
    rows = np.exp(-0.5 * xi * xi - 1j * mean * xi)[None, :]
    f = _invert_rows(rows, grid)[0]
    x = _output_points(grid)
    want = np.exp(-0.5 * (x - mean) ** 2) / math.sqrt(2.0 * math.pi)
    mask = np.abs(x) <= 6.0
    assert np.max(np.abs(f[mask] - want[mask])) < 1e-10


def test_cumulative_normal():
    grid = FourierGrid(a=40.0, n=150, span=16.0, center=0.0, h=900)
    m = grid.m
    xi = (np.arange(m + 1) - m / 2.0) * grid.beta_step
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


def test_table_failures_quote_value_and_bound():
    # a frequency span cut at |xi| = 1, long before the CF decays, rings below
    # zero; a window of 4 std loses 6 % of the mass
    with pytest.raises(GridError, match=r"negative density -4\.316e-02 below the bound -1e-10"):
        density_table(SP, dataclasses.replace(_small_grid(SP), a=2.0))
    with pytest.raises(GridError, match=r"recovered mass 0\.942396652 outside 1 \+- 0\.0001"):
        density_table(SP, _small_grid(SP, coverage=4.0))


def test_table_rejects_ranged_grid():
    # the CDF accumulates every panel, so a table needs every output node
    grid = dataclasses.replace(choose_grid(SP, 8192), k_lo=10, k_hi=200)
    with pytest.raises(ValueError, match=rf"all {grid.m + 1} output nodes, the grid's range is \[10, 200\)"):
        density_table(SP, grid)


def test_table_mean_and_variance(sp_table):
    kap = cumulants(SP, 2)
    mean = np.trapezoid(sp_table.x * sp_table.f, sp_table.x)
    var = np.trapezoid((sp_table.x - mean) ** 2 * sp_table.f, sp_table.x)
    assert mean == pytest.approx(kap.kappa(1), abs=1e-8)
    assert var == pytest.approx(kap.kappa(2), rel=1e-7)


def test_parseval(sp_table):
    g = sp_table.grid
    xi = (np.arange(2 * g.h + 1) - g.h) * g.beta_step
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


@pytest.mark.parametrize("with_derivatives", [False, True])
def test_density_csv_matches_cell_formatting(tmp_path, with_derivatives):
    # the block writer against a plain one-cell-at-a-time f-string loop, over
    # several write blocks and a trailing extra column
    table = density_table(SP, choose_grid(SP, 8192), with_derivatives=with_derivatives)
    extra = np.linspace(-1.0, 1.0, table.x.size) ** 3
    path = tmp_path / "d.csv"
    write_density_csv(table, path, extra=("cube", extra))
    cols = [table.x, table.f, table.F, *(table.df if with_derivatives else [])]
    pad = "" if with_derivatives else "," * 7
    want = [
        "x,f,F,df_mu,df_beta_plus,df_beta_minus,df_alpha_plus,"
        "df_alpha_minus,df_lambda_plus,df_lambda_minus,cube\n"
    ]
    for i in range(table.x.size):
        want.append(",".join(f"{c[i]:.17g}" for c in cols) + pad + f",{extra[i]:.17g}\n")
    assert table.x.size > _CSV_BLOCK_ROWS
    # lines, not one string: a failing comparison then reports the first
    # differing row instead of diffing megabytes
    assert path.read_text(encoding="utf-8").splitlines(keepends=True) == want


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
