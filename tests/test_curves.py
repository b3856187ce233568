"""Term-structure tests: bonds, yields, spreads, implied tenor rates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

from mchjm import qe
from mchjm.curves import (
    AnalyticCurve,
    MultiCurveState,
    TenorStructure,
    bond_price,
    implied_risk_sensitive_rate,
    simple_forward_rate,
    spot_spread,
    yield_value,
)


def ns_curve(y0, y1, y2, a):
    return AnalyticCurve(qe.nelson_siegel(y0, y1, y2, a))


def test_bond_price_flat_curve():
    c = AnalyticCurve(qe.constant(0.02))
    assert bond_price(c, 10.0) == pytest.approx(math.exp(-0.2), rel=1e-14)
    assert bond_price(c, 0.0) == 1.0


def test_bond_price_ns_vs_simpson_oracle():
    # independent quadrature oracle on a dense grid
    y0, y1, y2, a = 0.02, -0.01, 0.004, 0.5
    c = ns_curve(y0, y1, y2, a)
    xs = np.linspace(0.0, 7.0, 10_001)
    vals = y0 + (y1 + y2 * xs) * np.exp(-a * xs)
    integral = simpson(vals, x=xs)
    assert bond_price(c, 7.0) == pytest.approx(math.exp(-integral), rel=1e-10)


def test_yield_of_flat_curve_is_the_rate():
    c = AnalyticCurve(qe.constant(0.03))
    for x in (0.25, 1.0, 10.0):
        assert yield_value(c, x) == pytest.approx(0.03, rel=1e-13)
    with pytest.raises(ValueError):
        yield_value(c, 0.0)


def test_yield_curve_roundtrip_by_differentiation():
    # r(x) = d/dx (x * yield(x)); rebuild the forward curve numerically
    c = ns_curve(0.025, -0.01, 0.002, 0.45)
    xs = np.linspace(0.01, 9.0, 500)
    h = 1e-3
    xy_plus = (xs + h) * yield_value(c, xs + h)
    xy_minus = (xs - h) * yield_value(c, xs - h)
    rebuilt = (xy_plus - xy_minus) / (2 * h)
    np.testing.assert_allclose(rebuilt, c.value(xs), atol=1e-6)


def test_simple_forward_rate_flat_curve():
    # flat continuous rate r: 1 + delta L = e^{r delta}
    r, delta = 0.03, 0.5
    c = AnalyticCurve(qe.constant(r))
    L = simple_forward_rate(c, 2.0, delta)
    assert L == pytest.approx((math.exp(r * delta) - 1) / delta, rel=1e-12)


def _two_tenor_state(y1=0.002, y2=0.004):
    c0 = ns_curve(0.02, -0.008, 0.003, 0.5)
    c1 = ns_curve(0.022, -0.007, 0.003, 0.55)
    c2 = ns_curve(0.024, -0.006, 0.003, 0.6)
    return MultiCurveState((c0, c1, c2), np.array([y1, y2]))


def test_implied_rate_degenerate_state_matches_risk_free():
    # r^j = r^0 and Y = 0 collapses to the one-curve forward rate
    c = ns_curve(0.02, -0.008, 0.003, 0.5)
    state = MultiCurveState((c, c, c), np.zeros(2))
    tenors = TenorStructure((0.25, 0.5))
    for j, delta in ((1, 0.25), (2, 0.5)):
        got = implied_risk_sensitive_rate(state, tenors, j, 1.5)
        want = simple_forward_rate(c, 1.5, delta)
        assert got == pytest.approx(want, rel=1e-12)


def test_implied_rate_spot_fixing_algebraic_oracle():
    # At T = 0: 1 + delta L^j = S^j / B^0(delta) = S^j (1 + delta L^0_spot)
    state = _two_tenor_state()
    tenors = TenorStructure((0.25, 0.5))
    for j in (1, 2):
        delta = tenors.tenors[j - 1]
        got = implied_risk_sensitive_rate(state, tenors, j, 0.0)
        want = (spot_spread(state, j) / bond_price(state.curves[0], delta) - 1.0) / delta
        assert got == pytest.approx(want, rel=1e-12)


def test_implied_rate_uses_fictitious_bond_ratio():
    # generic T against a hand-assembled ratio
    state = _two_tenor_state()
    tenors = TenorStructure((0.25, 0.5))
    T, j = 2.0, 1
    delta = tenors.tenors[0]
    want = (
        math.exp(state.log_spreads[0])
        * bond_price(state.curves[1], T)
        / bond_price(state.curves[0], T + delta)
        - 1.0
    ) / delta
    assert implied_risk_sensitive_rate(state, tenors, j, T) == pytest.approx(want, rel=1e-12)


def test_state_validation():
    c = ns_curve(0.02, 0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        MultiCurveState((c, c), np.array([0.1, 0.2]))
    with pytest.raises(TypeError, match="AnalyticCurve"):
        MultiCurveState((c, qe.nelson_siegel(0.02, 0.0, 0.0, 0.5)), np.array([0.1]))
    with pytest.raises(ValueError):
        TenorStructure((0.5, 0.25))


@settings(deadline=None, max_examples=40)
@given(
    st.floats(min_value=0.001, max_value=0.08),
    st.floats(min_value=-0.03, max_value=0.03),
    st.floats(min_value=-0.01, max_value=0.01),
    st.floats(min_value=0.1, max_value=1.0),
)
def test_property_bond_price_decreasing_for_positive_curves(y0, y1, y2, a):
    c = ns_curve(y0, y1, y2, a)
    xs = np.linspace(0.0, 10.0, 41)
    vals = c.value(xs)
    if np.any(vals <= 0):
        return  # only claim monotonicity for positive forward curves
    prices = np.exp(-c.integral(xs))
    assert np.all(np.diff(prices) < 0)


@settings(deadline=None, max_examples=40)
@given(st.floats(min_value=0.05, max_value=9.5), st.floats(min_value=0.05, max_value=2.0))
def test_property_forward_rate_consistent_with_bond_ratio(T, delta):
    c = ns_curve(0.02, -0.01, 0.004, 0.5)
    L = simple_forward_rate(c, T, delta)
    assert 1.0 + delta * L == pytest.approx(
        bond_price(c, T) / bond_price(c, T + delta), rel=1e-12
    )
