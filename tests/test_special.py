import numpy as np
import pytest
from scipy import special as sps
from scipy import stats

from cinestat.special import betainc, chi2_sf, f_sf, gammainc_upper


# scipy provides the independent series/continued-fraction reference here;
# the in-house implementations are what the library actually uses.

GRID_A = [0.5, 1.0, 2.5, 5.0, 17.0, 60.0]
GRID_X = [0.01, 0.3, 1.0, 4.0, 15.0, 80.0]


@pytest.mark.parametrize("a", GRID_A)
@pytest.mark.parametrize("x", GRID_X)
def test_incomplete_gamma_matches_reference(a, x):
    assert gammainc_upper(a, x) == pytest.approx(sps.gammaincc(a, x), abs=1e-12)


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0, 12.0])
@pytest.mark.parametrize("b", [0.5, 2.0, 7.5, 40.0])
@pytest.mark.parametrize("x", [0.01, 0.2, 0.5, 0.9, 0.999])
def test_incomplete_beta_matches_reference(a, b, x):
    assert betainc(a, b, x) == pytest.approx(sps.betainc(a, b, x), abs=1e-12)


# the continued fractions near the switch points, where they take the most
# steps, up to a = b = 1,000 (the error grows past that: 1.6e-12 at a = 3,000)
@pytest.mark.parametrize("a", [0.5, 3.0, 40.0, 300.0, 1000.0])
@pytest.mark.parametrize("rel", [1.0, 1.001, 1.05, 1.3])
def test_incomplete_gamma_continued_fraction(a, rel):
    x = (a + 1.0) * rel
    assert gammainc_upper(a, x) == pytest.approx(sps.gammaincc(a, x), abs=1e-12)


@pytest.mark.parametrize("a", [0.5, 4.0, 90.0, 1000.0])
@pytest.mark.parametrize("b", [0.5, 7.0, 250.0, 1000.0])
@pytest.mark.parametrize("t", [-0.02, -0.001, 0.0, 0.001, 0.02])
def test_incomplete_beta_near_the_flip(a, b, t):
    s = (a + 1.0) / (a + b + 2.0)
    x = s + t * min(s, 1.0 - s)
    assert betainc(a, b, x) == pytest.approx(sps.betainc(a, b, x), abs=1e-12)


def test_chi2_sf_grid():
    for stat in [0.1, 0.5, 1.0, 3.84, 10.0, 40.0]:
        for df in [1, 2, 5, 10, 30]:
            assert chi2_sf(stat, df) == pytest.approx(stats.chi2.sf(stat, df), abs=1e-10)


def test_f_sf_grid():
    for stat in [0.2, 1.0, 2.5, 10.0, 100.0]:
        for df1 in [1, 3, 10]:
            for df2 in [5, 20, 200]:
                assert f_sf(stat, df1, df2) == pytest.approx(
                    stats.f.sf(stat, df1, df2), abs=1e-10
                )


def test_edge_cases():
    assert chi2_sf(0.0, 3) == 1.0
    assert f_sf(0.0, 2, 10) == 1.0
    assert f_sf(float("inf"), 2, 10) == 0.0
    # a Wald statistic is infinite when a standard error is 0
    for df in (1, 2, 7.5):
        assert chi2_sf(float("inf"), df) == 0.0
        assert gammainc_upper(df, float("inf")) == 0.0
    assert betainc(2.0, 3.0, 0.0) == 0.0
    assert betainc(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        gammainc_upper(-1.0, 1.0)
    with pytest.raises(ValueError):
        gammainc_upper(1.0, -1.0)
    with pytest.raises(ValueError):
        betainc(1.0, 1.0, 1.5)
    # a NaN p-value would read as "not significant" and pass every check
    nan = float("nan")
    for args in [(nan, 1.0), (1.0, nan)]:
        with pytest.raises(ValueError):
            gammainc_upper(*args)
    for args in [(nan, 1.0, 0.5), (1.0, nan, 0.5), (1.0, 1.0, nan)]:
        with pytest.raises(ValueError):
            betainc(*args)
    with pytest.raises(ValueError):
        chi2_sf(nan, 2)
    with pytest.raises(ValueError):
        f_sf(nan, 1, 5)
