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
    assert betainc(2.0, 3.0, 0.0) == 0.0
    assert betainc(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        gammainc_upper(-1.0, 1.0)
    with pytest.raises(ValueError):
        gammainc_upper(1.0, -1.0)
    with pytest.raises(ValueError):
        betainc(1.0, 1.0, 1.5)
