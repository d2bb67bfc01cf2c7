"""Special functions and small symmetric-matrix routines.

Gamma/digamma/trigamma evaluations plus the 7x7 symmetric solve/eigenvalue
kernels used by the likelihood optimizer, which call LAPACK through numpy.
Everything here is plain double precision.  The gamma function is the
standard library's ``math.gamma`` behind the package's pole check; the psi
functions, which the standard library lacks, target 1e-10 relative.

:class:`NumericError` is the base of every numeric failure in the package;
input and domain errors do not have it.
"""

from __future__ import annotations

import math

import numpy as np


class NumericError(Exception):
    """A numerical contract failed; the command line exits 4."""


class PoleError(NumericError, ValueError):
    """Argument sits on a pole of the requested function."""


class SingularMatrixError(NumericError, ValueError):
    """Matrix is numerically rank deficient."""


class ConvergenceError(NumericError, RuntimeError):
    """Iterative kernel failed to reach its tolerance."""


def _sinpi(x: float) -> float:
    # Range-reduced sin(pi x); keeps relative accuracy near integer x.
    m = round(x)
    return (-1.0 if m % 2 else 1.0) * math.sin(math.pi * (x - m))


def _check_pole(x: float) -> None:
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma-family pole at x={x}")


def gamma_fn(x: float) -> float:
    """Gamma function; :class:`PoleError` at 0 and the negative integers."""
    x = float(x)
    _check_pole(x)
    return math.gamma(x)


# Asymptotic tail coefficients: -B_{2n}/(2n) for digamma, B_{2n} for trigamma.
_DIGAMMA_TAIL = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
)

_TRIGAMMA_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
)


def digamma_fn(x: float) -> float:
    """Digamma via reflection, upward recurrence past 6, asymptotic series."""
    x = float(x)
    _check_pole(x)
    if x < 0.5:
        # cot(pi x) is pi-periodic: reduce both factors by the same r.
        r = x - round(x)
        cot = math.cos(math.pi * r) / math.sin(math.pi * r)
        return digamma_fn(1.0 - x) - math.pi * cot
    acc = 0.0
    while x < 7.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    p = inv2
    for c in _DIGAMMA_TAIL:
        tail += c * p
        p *= inv2
    return acc + math.log(x) - 0.5 / x + tail


def trigamma_fn(x: float) -> float:
    """Trigamma, same reduction scheme as :func:`digamma_fn`."""
    x = float(x)
    _check_pole(x)
    if x < 0.5:
        s = _sinpi(x)
        return math.pi * math.pi / (s * s) - trigamma_fn(1.0 - x)
    acc = 0.0
    while x < 7.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = inv + 0.5 * inv2
    p = inv * inv2
    for c in _TRIGAMMA_TAIL:
        tail += c * p
        p *= inv2
    return acc + tail


class SymMatrix7:
    """Dense 7x7 symmetric matrix; entries are symmetrized on construction."""

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=float)
        if a.shape != (7, 7):
            raise ValueError(f"expected shape (7, 7), got {a.shape}")
        self.entries = 0.5 * (a + a.T)

    def __repr__(self) -> str:
        return f"SymMatrix7({self.entries!r})"


def _as_matrix(a) -> np.ndarray:
    if isinstance(a, SymMatrix7):
        return a.entries
    m = np.asarray(a, dtype=float)
    if m.shape != (7, 7):
        raise ValueError(f"expected shape (7, 7), got {m.shape}")
    return 0.5 * (m + m.T)


def solve_sym(a, b) -> np.ndarray:
    """Solve A x = b for symmetric 7x7 A.

    LAPACK LU solve after a rank check; raises :class:`SingularMatrixError`
    when the numerical rank of A (singular values above 7 eps times the
    largest) is below 7, or when LAPACK fails on A.
    """
    mat = _as_matrix(a)
    rhs = np.asarray(b, dtype=float)
    if rhs.shape != (7,):
        raise ValueError(f"expected rhs shape (7,), got {rhs.shape}")
    try:
        rank = np.linalg.matrix_rank(mat)
        if rank == 7:
            return np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"LAPACK failed on A: {exc}") from exc
    raise SingularMatrixError(f"numerical rank {rank} below 7")


def eigen_sym(a) -> np.ndarray:
    """Eigenvalues of symmetric 7x7 A by LAPACK, descending order.

    Raises :class:`ConvergenceError` when LAPACK's eigenvalue iteration fails.
    """
    try:
        return np.linalg.eigvalsh(_as_matrix(a))[::-1]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigenvalue iteration failed: {exc}") from exc
