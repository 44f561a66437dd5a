"""Hand-rolled chi-square distribution against the scipy oracle."""

import numpy as np
import pytest
import scipy.stats

from corrseg.chi2 import ChiSquare, _regularized_gamma

DF_GRID = [1, 2, 3, 9, 57, 199, 999]


def x_grid(df: int) -> np.ndarray:
    # spread from deep left tail to deep right tail for this df
    center = float(df)
    spread = np.sqrt(2.0 * df)
    xs = [1e-8, 1e-3, 0.01, 0.1, 1.0, center / 2, center, center + 3 * spread,
          center + 10 * spread, center + 30 * spread]
    return np.array([x for x in xs if x > 0])


@pytest.mark.parametrize("df", DF_GRID)
def test_cdf_matches_scipy(df):
    dist = ChiSquare(df)
    for x in x_grid(df):
        ref = scipy.stats.chi2.cdf(x, df)
        got = dist.cdf(x)
        assert got == pytest.approx(ref, rel=1e-10, abs=1e-300)

@pytest.mark.parametrize("df", DF_GRID)
def test_sf_matches_scipy_into_tail(df):
    dist = ChiSquare(df)
    for x in x_grid(df):
        ref = scipy.stats.chi2.sf(x, df)
        got = dist.sf(x)
        if ref > 1e-290:
            assert got == pytest.approx(ref, rel=1e-10)
        else:
            assert got <= 1e-280

@pytest.mark.parametrize("df", DF_GRID)
def test_pdf_matches_scipy(df):
    dist = ChiSquare(df)
    for x in x_grid(df):
        assert dist.pdf(x) == pytest.approx(
            scipy.stats.chi2.pdf(x, df), rel=1e-10, abs=1e-300
        )

def test_pdf_at_zero_boundary():
    assert ChiSquare(2).pdf(0.0) == pytest.approx(0.5)
    assert ChiSquare(1).pdf(0.0) == np.inf
    assert ChiSquare(5).pdf(0.0) == 0.0

@pytest.mark.parametrize("df", [2, 9, 57, 199, 999])
def test_quantile_round_trip(df):
    # Near cdf saturation the double-precision value of cdf(x) no longer
    # determines x to 1e-8 (scipy's ppf fails the same round trip there),
    # so points with sf below 1e-7 are out of scope, as are underflows.
    dist = ChiSquare(df)
    checked = 0
    for x in np.geomspace(0.01, 200.0, 25):
        q = dist.cdf(x)
        if q <= 0.0 or dist.sf(x) < 1e-7:
            continue
        back = dist.quantile(q)
        assert back == pytest.approx(x, rel=1e-8)
        checked += 1
    # at df = 999 all but two grid points underflow (scipy agrees)
    assert checked >= (2 if df == 999 else 10)

@pytest.mark.parametrize("df", DF_GRID)
def test_quantile_matches_scipy(df):
    dist = ChiSquare(df)
    for q in [1e-6, 1e-3, 0.05, 0.5, 0.95, 0.995, 0.9995, 1 - 1e-8]:
        assert dist.quantile(q) == pytest.approx(
            scipy.stats.chi2.ppf(q, df), rel=1e-9
        )

def test_cdf_monotone_and_bounded():
    dist = ChiSquare(9)
    xs = np.linspace(0.0, 60.0, 400)
    vals = np.array([dist.cdf(x) for x in xs])
    assert vals[0] == 0.0
    assert np.all(np.diff(vals) >= 0)
    assert np.all((vals >= 0) & (vals <= 1))
    for x in xs:
        assert dist.cdf(x) + dist.sf(x) == pytest.approx(1.0, abs=1e-12)

def test_regularized_gamma_split_is_seamless():
    # the series/continued-fraction handoff is at x = a + 1
    for a in [0.5, 4.5, 28.5, 499.5]:
        lo = _regularized_gamma(a, a + 1 - 1e-9)[0]
        hi = _regularized_gamma(a, a + 1 + 1e-9)[0]
        assert abs(lo - hi) < 1e-8
        lower, upper = _regularized_gamma(a, a + 1)
        assert upper == pytest.approx(1.0 - lower, abs=1e-13)

def test_invalid_arguments():
    with pytest.raises(ValueError):
        ChiSquare(0)
    with pytest.raises(ValueError):
        ChiSquare(-3)
    dist = ChiSquare(4)
    with pytest.raises(ValueError):
        dist.quantile(0.0)
    with pytest.raises(ValueError):
        dist.quantile(1.0)
    assert dist.cdf(-1.0) == 0.0
    assert dist.sf(-1.0) == 1.0
