"""Exact-algebra tests for the quasi-exponential function class."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad, simpson

from mchjm import qe


# ---------------------------------------------------------------------------
# fixed-value oracles
# ---------------------------------------------------------------------------


def test_evaluate_simple_exponential():
    f = qe.exponential(2.0, -0.5)
    assert f(0.0) == pytest.approx(2.0)
    assert f(1.0) == pytest.approx(2.0 * math.exp(-0.5))
    x = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(f(x), 2.0 * np.exp(-0.5 * x))


def test_evaluate_trig_term():
    # e^{-x}((1 + x) cos 2x + 0.5 sin 2x), checked pointwise by arithmetic
    f = qe.trig_exp(-1.0, 2.0, (1.0, 1.0), (0.5,))
    x = 0.7
    expected = math.exp(-x) * ((1 + x) * math.cos(2 * x) + 0.5 * math.sin(2 * x))
    assert f(x) == pytest.approx(expected, rel=1e-14)


def test_derive_poly_exponential():
    # d/dx (1 + x) e^{-2x} = (-1 - 2x) e^{-2x}
    f = qe.poly_exp((1.0, 1.0), -2.0)
    g = qe.derive(f)
    assert g.isclose(qe.poly_exp((-1.0, -2.0), -2.0))


def test_derive_cosine():
    # d/dx cos(w x) = -w sin(w x)
    f = qe.trig_exp(0.0, 3.0, (1.0,))
    g = qe.derive(f)
    assert g.isclose(qe.trig_exp(0.0, 3.0, (), (-3.0,)))


def test_integrate_exponential_closed_form():
    # int_0^x sigma e^{-a s} ds = (sigma/a)(1 - e^{-a x})
    sigma, a = 0.8, 0.6
    f = qe.exponential(sigma, -a)
    F = qe.integrate_from_zero(f)
    expected = qe.constant(sigma / a) + qe.exponential(-sigma / a, -a)
    assert F.isclose(expected)
    assert qe.eval_at_zero(F) == 0.0


def test_integrate_cosine_closed_form():
    # int_0^x cos(w s) ds = sin(w x)/w
    w = 1.7
    F = qe.integrate_from_zero(qe.trig_exp(0.0, w, (1.0,)))
    assert F.isclose(qe.trig_exp(0.0, w, (), (1.0 / w,)))


def test_integrate_polynomial():
    # int_0^x (1 + 2s + 3s^2) ds = x + x^2 + x^3
    F = qe.integrate_from_zero(qe.poly_exp((1.0, 2.0, 3.0), 0.0))
    assert F.isclose(qe.poly_exp((0.0, 1.0, 1.0, 1.0), 0.0))


def test_integrate_ns_vs_simpson_oracle():
    # independent quadrature oracle on a dense grid for the x e^{-ax} term
    # of the HW3 and drift kernels; compared as a bond price exp(-int)
    y0, y1, y2, a = 0.02, -0.01, 0.004, 0.5
    F = qe.integrate_from_zero(qe.nelson_siegel(y0, y1, y2, a))
    xs = np.linspace(0.0, 7.0, 10_001)
    integral = simpson(y0 + (y1 + y2 * xs) * np.exp(-a * xs), x=xs)
    assert math.exp(-F(7.0)) == pytest.approx(math.exp(-integral), rel=1e-10)


@pytest.mark.parametrize("rate", [-2e-5, 1e-7, 1e-4, 0.05])
def test_integrate_small_rate_vs_quadrature(rate):
    # int_0^x (0.3 + 0.3 s + s^2) e^{rate s} ds against adaptive quadrature
    # out to 30 years: the series up to rate 1e-4, the closed form at 0.05.
    f = qe.poly_exp((0.3, 0.3, 1.0), rate)
    F = qe.integrate_from_zero(f)
    for x in (0.5, 3.0, 10.0, 30.0):
        expected, _ = quad(f, 0.0, x, epsabs=0.0, epsrel=1e-13)
        assert F(x) == pytest.approx(expected, rel=1e-9)


def test_multiply_exponentials_product_rule():
    # e^{-a x} * (1 - e^{-a x}) = e^{-a x} - e^{-2 a x}
    a = 0.9
    f = qe.exponential(1.0, -a)
    g = qe.constant(1.0) + qe.exponential(-1.0, -a)
    prod = qe.multiply(f, g)
    expected = qe.exponential(1.0, -a) + qe.exponential(-1.0, -2 * a)
    assert prod.isclose(expected)


def test_multiply_trig_product_to_sum():
    # cos(x) * cos(2x) = 0.5 cos(x) + 0.5 cos(3x)
    prod = qe.multiply(qe.trig_exp(0.0, 1.0, (1.0,)), qe.trig_exp(0.0, 2.0, (1.0,)))
    expected = qe.trig_exp(0.0, 1.0, (0.5,)) + qe.trig_exp(0.0, 3.0, (0.5,))
    assert prod.isclose(expected)


def test_shift_matches_translated_evaluation():
    f = qe.nelson_siegel(0.01, -0.005, 0.002, 0.5) + qe.trig_exp(-0.2, 1.5, (0.3,), (0.1,))
    xs = np.linspace(0.0, 4.0, 17)
    c = 0.37
    np.testing.assert_allclose(qe.shift(f, c)(xs), f(xs + c), rtol=1e-13, atol=1e-15)


def test_annihilator_single_exponential():
    # sigma e^{-a x} is killed by (d/dx + a): coefficients (a, 1)
    a = 0.53
    M = qe.annihilator(qe.exponential(0.3, -a))
    assert M.degree == 1
    np.testing.assert_allclose(M.coeffs, (a, 1.0), rtol=1e-14)


def test_annihilator_two_exponentials():
    # e^{-ax} - e^{-2ax}: roots -a, -2a -> gamma^2 + 3a gamma + 2a^2
    a = 0.66
    f = qe.exponential(1.0, -a) + qe.exponential(-1.0, -2 * a)
    M = qe.annihilator(f)
    assert M.degree == 2
    np.testing.assert_allclose(M.coeffs, (2 * a * a, 3 * a, 1.0), rtol=1e-13)


def test_annihilator_constant():
    M = qe.annihilator(qe.constant(4.2))
    assert M.degree == 1
    np.testing.assert_allclose(M.coeffs, (0.0, 1.0))


def test_annihilator_polynomial_multiplicity():
    # x e^{-a x} needs (gamma + a)^2 = gamma^2 + 2a gamma + a^2
    a = 1.1
    M = qe.annihilator(qe.poly_exp((0.0, 1.0), -a))
    assert M.degree == 2
    np.testing.assert_allclose(M.coeffs, (a * a, 2 * a, 1.0), rtol=1e-13)


def test_annihilator_trig_pair():
    # cos(w x): roots +-iw -> gamma^2 + w^2
    w = 2.3
    M = qe.annihilator(qe.trig_exp(0.0, w, (1.0,)))
    assert M.degree == 2
    np.testing.assert_allclose(M.coeffs, (w * w, 0.0, 1.0), rtol=1e-13)


def test_joint_annihilator_three_curve_stack():
    a = (0.53041117, 0.66253001, 0.65812121)
    sig = (0.00285941, 0.09546952, 0.09083773)
    funcs = [qe.exponential(s, -ai) for s, ai in zip(sig, a)]
    M = qe.joint_annihilator(funcs)
    assert M.degree == 3
    e0 = a[0] * a[1] * a[2]
    e1 = a[0] * a[1] + a[0] * a[2] + a[1] * a[2]
    e2 = a[0] + a[1] + a[2]
    np.testing.assert_allclose(M.coeffs, (e0, e1, e2, 1.0), rtol=1e-12)


def test_annihilator_of_zero_raises():
    with pytest.raises(ValueError):
        qe.annihilator(qe.constant(0.0))


def _gram_rank(f, n_derivs, xs):
    """Independent Krylov-dimension oracle: numerical rank of {F^k f} samples."""
    rows = []
    d = f
    for _ in range(n_derivs):
        rows.append(qe.evaluate(d, xs))
        d = qe.derive(d)
    A = np.array(rows)
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.sum(s > 1e-9 * s[0]))


def test_krylov_dimension_matches_gram_oracle():
    xs = np.linspace(0.0, 5.0, 400)
    cases = [
        qe.exponential(1.0, -0.5),                      # dim 1
        qe.poly_exp((0.0, 1.0), -0.5),                  # x e^{-x/2}: dim 2
        qe.exponential(1.0, -0.5) + qe.exponential(0.3, -1.0),  # dim 2
        qe.trig_exp(0.0, 2.0, (1.0,)),                  # cos: dim 2
        qe.trig_exp(-0.3, 2.0, (1.0, 0.5), (0.2,)),     # dim 4
    ]
    for f in cases:
        k = qe.annihilator(f).degree
        assert k == _gram_rank(f, k + 2, xs)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

_coeff = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
_rate = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
_freq = st.sampled_from([0.0, 0.7, 1.5, 2.0])


@st.composite
def qe_functions(draw, max_terms=2, max_degree=2):
    n = draw(st.integers(min_value=1, max_value=max_terms))
    terms = []
    for _ in range(n):
        deg = draw(st.integers(min_value=0, max_value=max_degree))
        cosp = tuple(draw(_coeff) for _ in range(deg + 1))
        freq = draw(_freq)
        sinp = tuple(draw(_coeff) for _ in range(deg + 1)) if freq else ()
        terms.append(qe.QETerm(draw(_rate), freq, cosp, sinp))
    return qe.QEFunction(tuple(terms))


# x^2 sin(0.7x)(e^{-2x} + e^{-x}): a degree-12 annihilator whose expanded
# coefficients times F^k f cancel from ~1e8 down to zero.
@settings(deadline=None, max_examples=60)
@given(qe_functions())
@example(
    qe.QEFunction((
        qe.QETerm(-2.0, 0.7, (), (0.0, 0.0, 1.0)),
        qe.QETerm(-1.0, 0.7, (), (0.0, 0.0, 1.0)),
    ))
)
def test_property_annihilator_kills_function(f):
    if f.is_zero:
        return
    M = qe.annihilator(f)
    residual = M.apply(f)
    xs = np.linspace(0.0, 3.0, 121)
    scale = 1.0 + np.max(np.abs(f(xs)))
    assert np.max(np.abs(residual(xs))) <= 1e-9 * scale


@settings(deadline=None, max_examples=60)
@given(qe_functions())
# Small rates: the closed-form antiderivative's coefficients reach
# m!/rate^{m+1}, and at these rates they lost the derivative to rounding.
@example(qe.QEFunction((qe.QETerm(2.0**-24, 0.0, (0.0, 0.0, 1.0)),)))
@example(qe.QEFunction((qe.QETerm(1e-5, 0.0, (0.0, 2.0625)),)))
@example(qe.QEFunction((qe.QETerm(2.0**-23, 0.0, (0.0, 0.90625)),)))
def test_property_derive_undoes_integrate(f):
    F = qe.integrate_from_zero(f)
    assert qe.derive(F).isclose(f, rtol=1e-11)
    scale = 1.0 + max((t.scale() for t in F.terms), default=0.0)
    assert abs(qe.eval_at_zero(F)) <= 1e-14 * scale


@settings(deadline=None, max_examples=40)
@given(qe_functions(), qe_functions())
# Every coefficient of this product is below 1e-14, but the product reaches
# 2.2e-11 on [0, 2]: the trim must not take it for zero.
@example(
    qe.QEFunction((qe.QETerm(1.0, 0.7, (), (0.0, 1.19e-7)),)),
    qe.QEFunction((qe.QETerm(2.0, 0.7, (), (0.0, 1.19e-7)),)),
)
def test_property_multiply_evaluates_pointwise(f, g):
    xs = np.linspace(0.0, 2.0, 41)
    scale = 1.0 + np.max(np.abs(f(xs))) * np.max(np.abs(g(xs)))
    np.testing.assert_allclose(
        qe.multiply(f, g)(xs), f(xs) * g(xs), atol=1e-11 * scale
    )


@settings(deadline=None, max_examples=40)
@given(qe_functions(), qe_functions())
def test_property_multiply_commutes(f, g):
    assert qe.multiply(f, g).isclose(qe.multiply(g, f), rtol=1e-12)


@settings(deadline=None, max_examples=40)
@given(qe_functions(), st.floats(min_value=-1.5, max_value=1.5, allow_nan=False))
def test_property_shift_consistency(f, c):
    xs = np.linspace(0.0, 2.0, 31)
    scale = 1.0 + np.max(np.abs(f(xs + c)))
    np.testing.assert_allclose(qe.shift(f, c)(xs), f(xs + c), atol=1e-11 * scale)


@settings(deadline=None, max_examples=40)
@given(qe_functions(), qe_functions())
def test_property_operators_are_linear(f, g):
    assert qe.derive(f + g).isclose(qe.derive(f) + qe.derive(g), rtol=1e-11)
    assert qe.integrate_from_zero(f + g).isclose(
        qe.integrate_from_zero(f) + qe.integrate_from_zero(g), rtol=1e-11
    )
