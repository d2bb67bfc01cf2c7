"""Shared fixtures: reference parameter sets, quantile tables, CSV factories."""

import numpy as np
import pytest

from gtsfit.gts_model import GtsParams

# Daily fits used throughout the suite; percent log-return units.
SP_PARAMS = GtsParams(
    mu=-0.693477,
    beta_plus=0.682290,
    beta_minus=0.242579,
    alpha_plus=0.458582,
    alpha_minus=0.414443,
    lambda_plus=0.822222,
    lambda_minus=0.727607,
)

BTC_PARAMS = GtsParams(
    mu=-0.736924,
    beta_plus=0.461378,
    beta_minus=0.267178,
    alpha_plus=0.810017,
    alpha_minus=0.517347,
    lambda_plus=0.215628,
    lambda_minus=0.191937,
)

# Confidence ladder for the upper tail and probability ladder for the lower
# tail; position i of each value list below pairs with position i here.
CONFIDENCE_LEVELS = (0.90, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.98, 0.99, 0.995)
TAIL_LEVELS = (0.005, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10)

VAR_UPPER = {
    "sp": (1.1760, 1.2499, 1.3333, 1.4288, 1.5402, 1.6738,
           1.8399, 2.0583, 2.3738, 2.9334, 3.5166),
    "btc": (4.2392, 4.5379, 4.8761, 5.2647, 5.7202, 6.2679,
            6.9508, 7.8507, 9.1534, 11.4653, 13.8771),
}

# The SP 0.5% entry was quoted as -4.6199, a misprint: Gil-Pelaez inversion of
# the characteristic function with scipy quadrature (no FRFT involved) gives
# F(-4.6199) = 0.003335 and F(-4.1676) = 0.005000.  The AVaR pair below
# (-5.3096 at 0.5%, -4.5264 at 1%) implies a mean VaR of -3.7432 on
# (0.005, 0.01); the tabulated quantile function gives -3.7433 there.
VAR_LOWER = {
    "sp": (-4.1676, -3.4102, -2.6769, -2.2626, -1.9766, -1.7598,
           -1.5863, -1.4424, -1.3201, -1.2140, -1.1207),
    "btc": (-15.0205, -12.2018, -9.5086, -7.9985, -6.9609, -6.1779,
            -5.5536, -5.0377, -4.6002, -4.2220, -3.8903),
}

AVAR_UPPER = {
    "sp": (1.9278, 2.0074, 2.0971, 2.1997, 2.3193, 2.4624,
           2.6399, 2.8724, 3.2070, 3.7960, 4.4047),
    "btc": (7.3190, 7.6451, 8.0130, 8.4343, 8.9259, 9.5145,
            10.2448, 11.2015, 12.5767, 14.9924, 17.4790),
}

AVAR_LOWER = {
    "sp": (-5.3096, -4.5264, -3.7627, -3.3268, -3.0233, -2.7915,
           -2.6047, -2.4487, -2.3152, -2.1987, -2.0955),
    "btc": (-19.2164, -16.3162, -13.4993, -11.8980, -10.7862, -9.9395,
            -9.2587, -8.6914, -8.2067, -7.7845, -7.4114),
}


@pytest.fixture(scope="session")
def sp_params():
    return SP_PARAMS


@pytest.fixture(scope="session")
def btc_params():
    return BTC_PARAMS


@pytest.fixture(scope="session")
def sp_table():
    from gtsfit.spectral import choose_grid, density_table

    grid = choose_grid(SP_PARAMS, m_target=8192)
    return density_table(SP_PARAMS, grid)


@pytest.fixture(scope="session")
def btc_table():
    from gtsfit.spectral import choose_grid, density_table

    grid = choose_grid(BTC_PARAMS, m_target=8192)
    return density_table(BTC_PARAMS, grid)


@pytest.fixture
def contour_calls(monkeypatch):
    """The argument tuples of every ``risk._contour`` call the test makes."""
    from gtsfit import risk

    contour, calls = risk._contour, []

    def recorded(*args):
        calls.append(args)
        return contour(*args)

    monkeypatch.setattr(risk, "_contour", recorded)
    return calls


@pytest.fixture
def price_csv(tmp_path):
    """Factory writing a minimal price CSV and returning its path."""

    def make(rows, header="Date,Adj Close", name="prices.csv"):
        path = tmp_path / name
        lines = [header] + [",".join(str(c) for c in row) for row in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    return make


@pytest.fixture
def geometric_prices():
    """Price path with constant log-return c percent per step."""

    def make(n, c=0.5, p0=100.0):
        import datetime

        start = datetime.date(2024, 1, 1)
        dates = [(start + datetime.timedelta(days=k)).isoformat() for k in range(n)]
        prices = [p0 * np.exp(c / 100.0) ** k for k in range(n)]
        return dates, prices

    return make
