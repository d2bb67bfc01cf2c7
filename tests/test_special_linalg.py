"""Scalar special functions and the dense symmetric 7x7 kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtsfit.special_linalg import (
    ConvergenceError,
    PoleError,
    SingularMatrixError,
    SymMatrix7,
    digamma_fn,
    eigen_sym,
    gamma_fn,
    solve_sym,
    trigamma_fn,
)

# Reference values computed with 50-digit arbitrary precision arithmetic
# and rounded to double precision.
GAMMA_CASES = [
    (4.3, 8.855343360454037),
    (-2.7, -0.93108278483896378),
    (0.1, 9.5135076986687318),
    (29.5, 1.6348125198274266e30),
    (-0.242579, -5.0114247696771719),
    (-0.682290, -4.1285338732681856),
    (0.317710, 2.8168573763921504),
]

DIGAMMA_CASES = [
    (-0.3, 2.1133097796353987),
    (6.2, 1.74174182168953),
    (0.242579, -4.3587440468256814),
    (-0.242579, 3.0552261141589801),
    (-0.682290, -1.8311610479164431),
    (23.75, 3.1463821873059029),
]

TRIGAMMA_CASES = [
    (-0.3, 13.945160267805722),
    (4.7, 0.23699183867807338),
    (-0.242579, 19.496987170108084),
    (-0.682290, 13.168446252714527),
    (0.05, 401.53235734211512),
]


@pytest.mark.parametrize("x,want", GAMMA_CASES)
def test_gamma_reference(x, want):
    assert gamma_fn(x) == pytest.approx(want, rel=1e-13)


def test_gamma_near_pole():
    # 1e-4 from the pole at -1 the reflection loses a digit to cancellation;
    # the condition number there is ~1/distance, so 1e-12 is all one can ask
    assert gamma_fn(-0.9999) == pytest.approx(-10000.422925524177, rel=1e-12)


def test_gamma_on_the_model_range():
    # Gamma(-beta) of the exponent, Gamma(1 - beta) and the cumulants'
    # Gamma(k - beta), k = 2..8, against 50 digits on a fixed set of tail
    # indices; a Lanczos sum with g = 7 was 5e-15 off on this set
    import mpmath as mp

    betas = [1e-8, 1e-4, 0.01, 0.1, 0.242579, 0.5, 0.68229, 0.9, 0.99, 1.0 - 1e-8]
    betas += list(np.linspace(0.003, 0.997, 60))
    with mp.workdps(50):
        for b in betas:
            for x in [-b, 1.0 - b] + [k - b for k in range(2, 9)]:
                ref = mp.gamma(mp.mpf(x))
                assert abs(mp.mpf(gamma_fn(x)) - ref) <= 2e-15 * abs(ref), (b, x)


@pytest.mark.parametrize("x,want", DIGAMMA_CASES)
def test_digamma_reference(x, want):
    assert digamma_fn(x) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("x,want", TRIGAMMA_CASES)
def test_trigamma_reference(x, want):
    assert trigamma_fn(x) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("fn", [gamma_fn, digamma_fn, trigamma_fn])
@pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
def test_pole_rejection(fn, x):
    with pytest.raises(PoleError):
        fn(x)


def _away_from_poles(x):
    return abs(x - round(x)) > 1e-3 or x > 0.5


@given(st.floats(min_value=-30.0, max_value=30.0).filter(_away_from_poles))
@settings(max_examples=200)
def test_gamma_recurrence(x):
    # Gamma(x+1) = x Gamma(x), in log space to dodge overflow.
    lhs = gamma_fn(x + 1.0)
    rhs = x * gamma_fn(x)
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-280)


@given(st.floats(min_value=-30.0, max_value=30.0).filter(_away_from_poles))
@settings(max_examples=200)
def test_digamma_recurrence(x):
    assert digamma_fn(x + 1.0) == pytest.approx(
        digamma_fn(x) + 1.0 / x, rel=1e-10, abs=1e-10
    )


@given(st.floats(min_value=-30.0, max_value=30.0).filter(_away_from_poles))
@settings(max_examples=200)
def test_trigamma_recurrence(x):
    assert trigamma_fn(x + 1.0) == pytest.approx(
        trigamma_fn(x) - 1.0 / (x * x), rel=1e-9, abs=1e-9
    )


def test_gamma_reflection_identity():
    # Gamma(x) Gamma(1-x) = pi / sin(pi x)
    for x in (0.3, 0.77, -1.4, -3.6, 2.2):
        lhs = gamma_fn(x) * gamma_fn(1.0 - x)
        rhs = math.pi / math.sin(math.pi * x)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_sym_matrix_symmetrizes():
    a = np.arange(49.0).reshape(7, 7)
    m = SymMatrix7(a)
    assert np.allclose(m.entries, m.entries.T)
    assert m.entries[0, 1] == pytest.approx(0.5 * (a[0, 1] + a[1, 0]))


def test_sym_matrix_shape_check():
    with pytest.raises(ValueError):
        SymMatrix7(np.eye(3))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_solve_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((7, 7))
    a = a @ a.T + 0.5 * np.eye(7)
    b = rng.standard_normal(7)
    x = solve_sym(SymMatrix7(a), b)
    assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-9, atol=1e-9)
    assert np.max(np.abs(a @ x - b)) <= 1e-8 * max(1.0, np.max(np.abs(b)))


def test_solve_indefinite():
    # LDL with diagonal pivoting handles sign-indefinite systems.
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    a = q @ np.diag([3.0, 1.0, -2.0, 0.5, -0.1, 4.0, -1.5]) @ q.T
    b = rng.standard_normal(7)
    x = solve_sym(SymMatrix7(a), b)
    assert np.allclose(a @ x, b, atol=1e-9)


def test_solve_singular_raises():
    a = np.zeros((7, 7))
    a[0, 0] = 1.0
    with pytest.raises(SingularMatrixError):
        solve_sym(SymMatrix7(a), np.ones(7))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_eigen_matches_constructed_spectrum(seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    want = np.sort(rng.uniform(-5.0, 5.0, size=7))[::-1]
    a = q @ np.diag(want) @ q.T
    vals = eigen_sym(SymMatrix7(a))
    assert np.allclose(vals, want, atol=1e-9)


def test_eigen_trace_and_det():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((7, 7))
    a = 0.5 * (a + a.T)
    vals = eigen_sym(SymMatrix7(a))
    assert np.sum(vals) == pytest.approx(np.trace(a), rel=1e-10)
    assert np.prod(vals) == pytest.approx(np.linalg.det(a), rel=1e-8)


def test_eigen_descending_order():
    vals = eigen_sym(SymMatrix7(np.diag([1.0, 5.0, -2.0, 0.0, 3.0, -4.0, 2.0])))
    assert np.all(np.diff(vals) <= 1e-12)
