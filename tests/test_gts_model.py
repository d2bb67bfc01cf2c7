"""Parameter container, characteristic exponent, analytic derivatives, moments.

Finite-difference suites below deliberately cover many frequencies so the
closed-form gradient and Hessian get exercised across the oscillatory range,
not just near the origin.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtsfit.gts_model import (
    ActivityClass,
    BranchCutError,
    DomainError,
    GtsParams,
    activity_class,
    char_exponent,
    char_fn,
    char_fn_grad,
    char_fn_hess,
    cumulants,
    levy_density,
    load_params,
    moment_stats,
    save_params,
    _psi_grad,
    _side_hess,
    _side_parts,
)

# Frozen against a 50-digit evaluation of the exponent formula.
SP_PSI_AT_1 = -0.41141735092520345 + 0.090385663062739322j

SP_KAPPA = (
    0.040133832787716268,
    1.1984698997941831,
    -0.76049983950776262,
    8.5076818888946531,
)
BTC_KAPPA = (
    0.14886532699477589,
    15.892681492436117,
    -20.264961975771817,
    1703.3994941945206,
)

SP_STATS = (
    0.040133832787716268,
    1.0947465002429481,
    27.277397253172798,
    -0.57964011011351033,
    8.9232079622040263,
)
BTC_STATS = (
    0.14886532699477589,
    3.9865626161439027,
    26.779658478053808,
    -0.31985270183610376,
    9.7440713217605508,
)


def _fd_grad(params, xi, eps=1e-6):
    v0 = params.to_vector()
    out = np.zeros(7, dtype=complex)
    for j in range(7):
        vp = v0.copy()
        vp[j] += eps
        vm = v0.copy()
        vm[j] -= eps
        out[j] = (
            char_fn(GtsParams.from_vector(vp), xi)
            - char_fn(GtsParams.from_vector(vm), xi)
        ) / (2.0 * eps)
    return out


def test_validate_accepts_reference(sp_params, btc_params):
    sp_params.validate()
    btc_params.validate()


@pytest.mark.parametrize(
    "field,value",
    [
        ("beta_plus", 0.0),
        ("beta_plus", 1.0),
        ("beta_minus", -0.2),
        ("alpha_plus", 0.0),
        ("alpha_minus", -1.0),
        ("lambda_plus", 0.0),
        ("lambda_minus", -0.5),
    ],
)
def test_validate_rejects(sp_params, field, value):
    bad = dataclasses.replace(sp_params, **{field: value})
    with pytest.raises(DomainError) as exc:
        bad.validate()
    assert field in str(exc.value)


def test_vector_round_trip(sp_params):
    v = sp_params.to_vector()
    assert v.shape == (7,)
    again = GtsParams.from_vector(v)
    assert again == sp_params


def test_json_round_trip(tmp_path, btc_params):
    path = tmp_path / "params.json"
    save_params(btc_params, path)
    text = path.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert payload["units"] == "percent"
    assert load_params(path) == btc_params


def test_char_exponent_reference(sp_params):
    got = char_exponent(sp_params, 1.0)
    assert got.real == pytest.approx(SP_PSI_AT_1.real, rel=1e-12)
    assert got.imag == pytest.approx(SP_PSI_AT_1.imag, rel=1e-12)


def test_char_exponent_zero(sp_params, btc_params):
    assert char_exponent(sp_params, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert char_exponent(btc_params, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_char_fn_hermitian(sp_params):
    xi = np.linspace(-9.0, 9.0, 61)
    f = char_fn(sp_params, xi)
    assert np.allclose(f, np.conj(f[::-1]), atol=1e-14)
    assert np.all(np.abs(f) <= 1.0 + 1e-12)


def test_char_fn_vector_shape(sp_params):
    xi = np.linspace(-3.0, 3.0, 7).reshape(7, 1)
    assert char_fn(sp_params, xi).shape == (7, 1)


def test_char_exponent_branch_cut(sp_params):
    # imaginary part beyond the tempering rate leaves the analytic strip
    with pytest.raises(BranchCutError):
        char_exponent(sp_params, 1j * (sp_params.lambda_plus + 0.1))


@pytest.mark.parametrize("beta", [0.9, 0.68, 0.5, 0.25, 0.1, 1e-2, 1e-4, 1e-6, 2e-8])
def test_exponent_term_near_the_beta_face(beta):
    # alpha Gamma(-beta) (w^beta - lambda^beta) of each side against 50
    # digits, over the box; the direct difference w^beta - lambda^beta lost
    # 4e-9 of it at beta = 2e-8 to cancellation against Gamma(-beta) ~
    # -1/beta.  Near xi = 0 the term itself vanishes: at |xi| = 1e-3 the
    # direct difference was 5.1e-13 of it off at beta = 0.1 and 8e-12 at 1e-2
    import mpmath as mp

    params = GtsParams(0.1, beta, beta, 0.46, 0.41, 0.82, 0.73)
    xi = np.array([-40.0, -1.7, -1e-3, 1e-3, 1.7, 40.0])
    s = _side_parts(params, xi)
    with mp.workdps(50):
        for key, lam, sgn in (("p", 0.82, -1.0), ("m", 0.73, 1.0)):
            got = s[key]["a"] * s[key]["g"] * s[key]["diff"]
            b, a = mp.mpf(beta), mp.mpf(s[key]["a"])
            for x, g in zip(xi, got):
                ref = a * mp.gamma(-b) * ((mp.mpf(lam) + sgn * 1j * mp.mpf(x)) ** b - mp.mpf(lam) ** b)
                assert abs(g - complex(ref)) <= 1e-14 * abs(complex(ref)), (key, x)


@pytest.mark.parametrize("beta", [0.68, 0.5, 0.25, 0.1, 0.09, 1e-2, 1e-4, 1e-6, 2e-8])
def test_beta_row_near_the_beta_face(beta):
    # the beta row of dPsi and the (alpha, beta), (beta, beta) and
    # (lambda, beta) entries of each side's Hessian block against 50-digit
    # derivatives of alpha Gamma(-beta) (w^beta - lambda^beta), on both sides;
    # they split psi(-beta) = psi(1 - beta) + 1/beta over the box (the direct
    # (beta, beta) entry was 3.3e-13 off at beta = 0.1, |xi| = 0.3), and at
    # beta >= 0.09, |xi| = 400 the h_n(beta L) take the recurrence (|beta L| > 1/2)
    import mpmath as mp

    params = GtsParams(0.1, beta, beta, 0.46, 0.41, 0.82, 0.73)
    xi = np.array([-400.0, -40.0, -1.7, -0.3, 0.3, 1.7, 40.0, 400.0])
    s = _side_parts(params, xi, with_psi=True)
    grad = _psi_grad(xi, s)
    with mp.workdps(50):
        for key, idx, lam, sgn in (("p", 1, 0.82, -1.0), ("m", 2, 0.73, 1.0)):
            a = s[key]["a"]
            hess = _side_hess(s[key])
            for x, g, c, bb, lb in zip(xi, grad[idx], hess[1, 0], hess[0, 0], hess[2, 0]):

                def term(b, l):
                    return a * mp.gamma(-b) * ((l + sgn * 1j * mp.mpf(x)) ** b - l**b)

                at = (mp.mpf(beta), mp.mpf(lam))
                ref = complex(mp.diff(term, at, (1, 0)))
                assert abs(g - ref) <= 1e-13 * abs(ref), (key, x)
                assert abs(c - ref / a) <= 1e-13 * abs(ref / a), (key, x)
                ref = complex(mp.diff(term, at, (2, 0)))
                assert abs(bb - ref) <= 1e-13 * abs(ref), ("beta, beta", key, x)
                ref = complex(mp.diff(term, at, (1, 1)))
                assert abs(lb - ref) <= 1e-13 * abs(ref), ("lambda, beta", key, x)


@pytest.mark.parametrize("beta_minus", [2e-8, 1e-7, 1e-6])
def test_density_near_the_beta_face_is_nonnegative(sp_params, beta_minus):
    # the exponent's cancellation made the SP density dip to -4.9e-11 at 2e-8
    from gtsfit.spectral import choose_grid, density_table

    params = dataclasses.replace(sp_params, beta_minus=beta_minus)
    assert density_table(params, choose_grid(params, 8196)).f.min() >= -1e-12


def test_char_fn_grad_mu_identity(sp_params):
    # d F / d mu = -i xi F at xi = 2
    f = char_fn(sp_params, 2.0)
    g = char_fn_grad(sp_params, np.asarray(2.0))
    assert g[0] == pytest.approx(-2j * f, rel=1e-12)


@pytest.mark.parametrize("params_name", ["sp", "btc"])
def test_char_fn_grad_finite_difference(request, params_name):
    params = request.getfixturevalue(f"{params_name}_params")
    xis = np.linspace(-8.0, 8.0, 27)  # 27 points x 7 components = 189 checks
    for xi in xis:
        fd = _fd_grad(params, float(xi))
        an = char_fn_grad(params, np.asarray(float(xi)))
        err = np.abs(an - fd) / (1.0 + np.abs(fd))
        assert err.max() < 5e-8, f"xi={xi}: {err}"


@pytest.mark.parametrize("params_name", ["sp", "btc"])
def test_char_fn_hess_finite_difference(request, params_name):
    params = request.getfixturevalue(f"{params_name}_params")
    eps = 1e-5
    for xi in np.linspace(-6.0, 6.0, 9):
        v0 = params.to_vector()
        fd = np.zeros((7, 7), dtype=complex)
        for j in range(7):
            vp = v0.copy()
            vp[j] += eps
            vm = v0.copy()
            vm[j] -= eps
            fd[:, j] = (
                char_fn_grad(GtsParams.from_vector(vp), np.asarray(float(xi)))
                - char_fn_grad(GtsParams.from_vector(vm), np.asarray(float(xi)))
            ) / (2.0 * eps)
        fd = 0.5 * (fd + fd.swapaxes(0, 1))
        an = char_fn_hess(params, np.asarray(float(xi)))
        err = np.abs(an - fd) / (1.0 + np.abs(fd))
        assert err.max() < 1e-5, f"xi={xi}: {err.max()}"


def test_char_fn_hess_symmetric(btc_params):
    h = char_fn_hess(btc_params, np.asarray(1.3))
    assert np.allclose(h, h.swapaxes(0, 1), atol=1e-14)


def test_cumulants_reference(sp_params, btc_params):
    sp = cumulants(sp_params, k_max=4).values
    btc = cumulants(btc_params, k_max=4).values
    for got, want in zip(sp, SP_KAPPA):
        assert got == pytest.approx(want, rel=1e-12)
    for got, want in zip(btc, BTC_KAPPA):
        assert got == pytest.approx(want, rel=1e-12)


def test_cumulants_k_max_limit(sp_params):
    assert len(cumulants(sp_params, k_max=8).values) == 8
    with pytest.raises(ValueError):
        cumulants(sp_params, k_max=9)


def test_moment_stats_reference(sp_params, btc_params):
    for params, want in ((sp_params, SP_STATS), (btc_params, BTC_STATS)):
        got = moment_stats(params)
        assert got.mean == pytest.approx(want[0], rel=1e-12)
        assert got.std_dev == pytest.approx(want[1], rel=1e-12)
        assert got.cv == pytest.approx(want[2], rel=1e-12)
        assert got.skewness == pytest.approx(want[3], rel=1e-12)
        assert got.kurtosis == pytest.approx(want[4], rel=1e-12)


def test_cumulants_match_char_fn_derivatives(sp_params):
    # kappa_k = i^{-k} d^k Psi / d xi^k at 0, via high-order FD on Psi.
    h = 1e-2
    xs = np.arange(-4, 5) * h
    vals = np.array([char_exponent(sp_params, complex(x)) for x in xs])
    # 9-point central stencils
    d1 = (
        3 * vals[0] - 32 * vals[1] + 168 * vals[2] - 672 * vals[3]
        + 672 * vals[5] - 168 * vals[6] + 32 * vals[7] - 3 * vals[8]
    ) / (840 * h)
    d2 = (
        -9 * vals[0] + 128 * vals[1] - 1008 * vals[2] + 8064 * vals[3]
        - 14350 * vals[4] + 8064 * vals[5] - 1008 * vals[6]
        + 128 * vals[7] - 9 * vals[8]
    ) / (5040 * h * h)
    kap = cumulants(sp_params, k_max=2).values
    assert (d1 / 1j).real == pytest.approx(kap[0], rel=1e-9)
    assert (d2 / (1j * 1j)).real == pytest.approx(kap[1], rel=1e-8)


def test_levy_density_signs(sp_params):
    x = np.array([-2.0, -0.5, 0.4, 3.0])
    vals = levy_density(sp_params, x)
    assert np.all(vals > 0.0)
    with pytest.raises(DomainError):
        levy_density(sp_params, 0.0)


def test_levy_density_scalar(sp_params):
    out = levy_density(sp_params, 1.5)
    assert isinstance(out, float)


def test_levy_density_tempering(sp_params):
    # ratio at two right-tail points follows exp decay dominated by lambda_plus
    r = levy_density(sp_params, 30.0) / levy_density(sp_params, 29.0)
    assert r < math.exp(-sp_params.lambda_plus) * 1.05


def test_activity_classification(sp_params):
    assert activity_class(sp_params) is ActivityClass.INFINITE_ACTIVITY
    finite = dataclasses.replace(sp_params, beta_plus=-0.3, beta_minus=-0.4)
    assert activity_class(finite) is ActivityClass.FINITE_ACTIVITY


@given(
    mu=st.floats(-5.0, 5.0),
    bp=st.floats(0.05, 0.95),
    bm=st.floats(0.05, 0.95),
    ap=st.floats(0.05, 3.0),
    am=st.floats(0.05, 3.0),
    lp=st.floats(0.1, 5.0),
    lm=st.floats(0.1, 5.0),
)
@settings(max_examples=80, deadline=None)
def test_char_fn_modulus_bounded(mu, bp, bm, ap, am, lp, lm):
    params = GtsParams(mu, bp, bm, ap, am, lp, lm)
    params.validate()
    xi = np.linspace(-20.0, 20.0, 41)
    assert np.all(np.abs(char_fn(params, xi)) <= 1.0 + 1e-10)


@given(
    bp=st.floats(0.05, 0.95),
    ap=st.floats(0.05, 3.0),
    lp=st.floats(0.1, 5.0),
)
@settings(max_examples=60, deadline=None)
def test_second_cumulant_positive(bp, ap, lp):
    params = GtsParams(0.0, bp, 0.5, ap, 1.0, lp, 1.0)
    kap = cumulants(params, k_max=4).values
    assert kap[1] > 0.0
    assert kap[3] > 0.0


def test_params_json_has_lf_line_endings(tmp_path, sp_params):
    path = tmp_path / "params.json"
    save_params(sp_params, path)
    blob = path.read_bytes()
    assert b"\r" not in blob and blob.endswith(b"}\n")
