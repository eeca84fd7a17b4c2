"""The p-value tails of ``feedlab._numeric`` against scipy, the reference from the
``test`` extra."""

import math
import warnings

import numpy as np
import pytest
from scipy import special

from feedlab._numeric import normal_sf_two_sided, t_sf_two_sided

REL_TOL = 1e-12
TINY = np.finfo(float).tiny  # the smallest normal float; below it p has fewer digits
# the gated range, plus both sides of the switch between the two methods at df = 30
DFS = [1, 2, 3, 10, 29, 30, 30.5, 31, 274, 1e3, 1e4, 6.7e4, 1e5, 1e6, 1e7]


def t_reference(t, df):
    if df == 1:
        # the Cauchy distribution; scipy's stdtr(1, t) loses up to 6e-11 near t = 0
        return 2.0 / np.pi * np.arctan2(1.0, np.abs(t))
    return 2.0 * special.stdtr(df, -np.abs(t))


def assert_matches(p, want):
    normal = want >= TINY
    rel = np.abs(p[normal] - want[normal]) / want[normal]
    assert rel.max() <= REL_TOL, (rel.max(), rel.argmax())
    # where the reference is subnormal or 0, so is p
    assert np.all(p[~normal] < 2 * TINY)


@pytest.mark.parametrize("df", DFS)
def test_t_tail_matches_scipy(df):
    # |t| from 0 to where p leaves the normal range, and on to where t^2 overflows
    t = np.concatenate([
        [0.0, 1e-300, 1e-10, 1e-5],
        np.linspace(1e-3, 40.0, 2001),
        np.geomspace(40.0, 1e154, 601),
    ])
    t = np.concatenate([t, -t[::7]])
    assert_matches(t_sf_two_sided(t, df), t_reference(t, df))


def test_normal_tail_matches_scipy():
    z = np.linspace(-37.0, 37.0, 20001)
    assert_matches(normal_sf_two_sided(z), 2.0 * special.ndtr(-np.abs(z)))


@pytest.mark.parametrize(
    "tail",
    [normal_sf_two_sided, *(lambda x, df=df: t_sf_two_sided(x, df) for df in (1, 10, 274, 6.7e4))],
    ids=["normal", "t1", "t10", "t274", "t67k"],
)
def test_exact_edges_without_warnings(tail):
    # regression._fit passes +-inf statistics for zero-SE terms and NaN for NaN SEs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = tail(np.array([0.0, -0.0, np.inf, -np.inf, np.nan]))
        assert [tail(x) for x in (0.0, np.inf, -np.inf)] == [1.0, 0.0, 0.0]
        assert math.isnan(tail(math.nan))
    assert p[:4].tolist() == [1.0, 1.0, 0.0, 0.0] and math.isnan(p[4])


@pytest.mark.parametrize("df", [0.0, -3.0, math.nan, math.inf])
def test_t_tail_is_nan_without_finite_positive_df(df):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(t_sf_two_sided(np.array([0.0, 1.5, np.inf]), df)).all()


@pytest.mark.parametrize("tail", [normal_sf_two_sided, lambda x: t_sf_two_sided(x, np.int64(40))])
def test_scalar_in_scalar_out_and_array_keeps_shape(tail):
    for scalar in (1.5, np.float64(1.5), np.array(1.5), 2):
        out = tail(scalar)
        assert isinstance(out, float) and np.ndim(out) == 0
    block = np.array([[0.5, -1.0, 2.0], [3.0, -4.0, 0.0]])
    out = tail(block)
    assert out.shape == (2, 3) and out.dtype == np.float64
    assert out.tolist() == [[tail(x) for x in row] for row in block.tolist()]
    assert tail(np.empty((0, 3))).shape == (0, 3)
    assert tail([0.5, 1.0]).shape == (2,)
