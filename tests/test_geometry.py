"""Brackets, span estimates, commutation checks, and family tangency."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mchjm import fdr, qe
from mchjm import geometry as geo
from mchjm.curves import DEFAULT_GRID, AnalyticCurve, MultiCurveState, TangentVector
from mchjm.dynamics import (
    ConstantDirectionVolSpec,
    ConstantVolSpec,
    ScalarField,
    hull_white_three_curve_spec,
    single_factor_spec,
)

SIG = (0.00285941, 0.09546952, 0.09083773)
A = (0.53041117, 0.66253001, 0.65812121)
BET = (0.41734616, 0.82477578)

CDV_SIG = (0.006, 0.009, 0.011)
CDV_A = (0.45, 0.61, 0.58)
CDV_BC = (0.21, 0.33)
CDV_BS = (0.55, 0.40)

# decays deliberately well separated so the implied-spread relation gives
# beta of order 0.1 and the negative control moves the residual far from
# the verdict threshold
STACK = geo.HullWhiteStackParams(
    sigma=(0.1643, 0.1590, 0.1598), a=(0.3719, 0.6, 0.9), beta=(0.48, -0.26)
)


def hw3_state():
    curves = tuple(AnalyticCurve(qe.nelson_siegel(0.025, -0.010, 0.004, a)) for a in A)
    return MultiCurveState(curves, np.array([0.0035, 0.0070]))


def cdv_state():
    curves = tuple(AnalyticCurve(qe.nelson_siegel(0.03, -0.008, 0.002, a)) for a in CDV_A)
    return MultiCurveState(curves, np.array([0.12, -0.09]))


# ---------------------------------------------------------------------------
# tangent vectors and brackets
# ---------------------------------------------------------------------------


def test_tangent_vector_arithmetic():
    u = TangentVector((qe.constant(1.0), qe.exponential(2.0, -0.5)), np.array([0.3]))
    v = TangentVector((qe.constant(-0.5), qe.constant(0.0)), np.array([1.0]))
    grid = np.linspace(0.0, 5.0, 11)
    np.testing.assert_allclose((u + v - v).values(grid), u.values(grid), atol=1e-15)
    np.testing.assert_allclose((2.0 * u).values(grid), 2.0 * u.values(grid), atol=1e-15)
    assert u.sup_norm(grid) == pytest.approx(2.0)
    w = TangentVector((qe.constant(1.0),), np.array([0.0]))
    with pytest.raises(ValueError):
        u + w


def test_bracket_with_itself_and_constants_vanish():
    spec = hull_white_three_curve_spec(SIG, A, BET)
    state = hw3_state()
    mu, _ = geo.model_fields(spec)
    assert geo.lie_bracket_numeric(mu, mu, state).sup_norm(DEFAULT_GRID) < 1e-14

    c1 = TangentVector(tuple(qe.constant(v) for v in (1.0, 2.0, -1.0)), np.array([0.5, 0.1]))
    c2 = TangentVector(tuple(qe.exponential(1.0, -a) for a in A), np.array([0.0, 1.0]))
    br = geo.lie_bracket_numeric(lambda s: c1, lambda s: c2, state)
    assert br.sup_norm(DEFAULT_GRID) < 1e-14


def test_bracket_matches_constant_vol_oracle():
    # [mu, sigma] has curve components F sigma^j and spread components
    # B sigma^0 - B sigma^j, constant across the state space
    spec = hull_white_three_curve_spec(SIG, A, BET)
    state = hw3_state()
    mu, (sig,) = geo.model_fields(spec)
    br = geo.lie_bracket_numeric(mu, sig, state)
    for j in range(3):
        assert br.curves[j].isclose(qe.derive(qe.exponential(SIG[j], -A[j])), atol=1e-12)
    np.testing.assert_allclose(
        br.spreads, [SIG[0] - SIG[1], SIG[0] - SIG[2]], atol=1e-12
    )


def test_bracket_antisymmetry():
    spec = hull_white_three_curve_spec(SIG, A, BET)
    state = hw3_state()
    mu, (sig,) = geo.model_fields(spec)
    total = geo.lie_bracket_numeric(mu, sig, state) + geo.lie_bracket_numeric(sig, mu, state)
    assert total.sup_norm(DEFAULT_GRID) < 1e-14


def test_jacobi_identity_on_smooth_fields():
    # one quadratic and two affine fields; central differences are exact for
    # quadratics, so the residual is pure rounding
    b0 = qe.exponential(1.0, -0.4)
    b1 = qe.nelson_siegel(0.5, -0.2, 0.1, 0.7)
    b2 = qe.poly_exp((0.0, 1.0), -0.3)

    def short_rate(state):
        return state.curves[0].value(0.0)

    def u(state):
        p, q = short_rate(state), float(state.log_spreads[0])
        return TangentVector((b0 * (p * q), b1, b2 * q), np.array([p, 1.0]))

    def v(state):
        return TangentVector(
            (b1 * float(state.log_spreads[0]), b2, b0), np.array([0.3, short_rate(state)])
        )

    def w(state):
        p, q = short_rate(state), float(state.log_spreads[1])
        return TangentVector((b2, b0 * p, b1 * q), np.array([q, -0.5]))

    state = hw3_state()

    def bracket(x, y):
        return lambda s: geo.lie_bracket_numeric(x, y, s)

    total = (
        geo.lie_bracket_numeric(bracket(u, v), w, state)
        + geo.lie_bracket_numeric(bracket(v, w), u, state)
        + geo.lie_bracket_numeric(bracket(w, u), v, state)
    )
    assert total.sup_norm(DEFAULT_GRID) < 1e-8


# ---------------------------------------------------------------------------
# span estimates
# ---------------------------------------------------------------------------


def test_span_ladder_constant_vol():
    spec = hull_white_three_curve_spec(SIG, A, BET)
    state = hw3_state()
    mu, sigs = geo.model_fields(spec)
    fields = [mu, *sigs]
    dims = [geo.span_dimension_estimate(fields, state, depth) for depth in range(4)]
    assert dims == [2, 3, 4, 5]


def test_span_guards_and_degenerate_inputs():
    state = hw3_state()
    zero = TangentVector(tuple(qe.QEFunction(()) for _ in range(3)), np.zeros(2))
    assert geo.span_dimension_estimate([lambda s: zero], state, 2) == 0
    assert geo.span_dimension_estimate([], state, 1) == 0
    spec = hull_white_three_curve_spec(SIG, A, BET)
    mu, sigs = geo.model_fields(spec)
    with pytest.raises(ValueError):
        geo.span_dimension_estimate([mu, *sigs], state, 4)


def test_span_cdv_example_bounded():
    spec = fdr.cdv_example_spec(CDV_SIG, CDV_A, CDV_BC, CDV_BS)
    state = cdv_state()
    mu, sigs = geo.model_fields(spec)
    dim = geo.span_dimension_estimate([mu, *sigs], state, 2)
    assert 4 <= dim <= 12


# ---------------------------------------------------------------------------
# commutation of log-spread directions
# ---------------------------------------------------------------------------


def test_commutation_constant_vol_all_commute():
    spec = hull_white_three_curve_spec(SIG, A, BET)
    res = geo.commutation_check(spec, None, hw3_state())
    assert set(res) == {1, 2}
    for r in res.values():
        assert r.commutes
        assert r.max_relative < 1e-12


def test_commutation_cdv_spread_coupling_detected():
    spec = fdr.cdv_example_spec(CDV_SIG, CDV_A, CDV_BC, CDV_BS)
    state = cdv_state()
    res = geo.commutation_check(spec, (1, 2), state)
    assert not res[1].commutes
    assert not res[2].commutes

    # hand oracle: the second diffusion field has spread loading bs1 * Y^1,
    # so its bracket with the Y^1 direction is (0 curves, (bs1, 0))
    _, sigs = geo.model_fields(spec)
    gamma1 = TangentVector(tuple(qe.QEFunction(()) for _ in range(3)), np.array([1.0, 0.0]))
    br = geo.lie_bracket_numeric(sigs[1], lambda s: gamma1, state)
    np.testing.assert_allclose(br.spreads, [CDV_BS[0], 0.0], atol=1e-9)
    for c in br.curves:
        assert c.isclose(qe.QEFunction(()), atol=1e-9)


def test_commutation_depends_only_on_listed_spread():
    # beta fields driven by Y^2 alone: the Y^1 direction commutes, Y^2 not
    zero = qe.QEFunction(())
    lam = tuple(
        tuple(qe.exponential(CDV_SIG[j], -CDV_A[j]) if i == j else zero for i in range(3))
        for j in range(3)
    )
    one = ScalarField.constant(1.0)
    null = ScalarField.constant(0.0)
    phi = tuple(tuple(one if i == j else null for i in range(3)) for j in range(3))
    beta = (
        (ScalarField.constant(CDV_BC[0]), ScalarField.affine_log_spread(0.0, CDV_BS[0], 2), null),
        (ScalarField.constant(CDV_BC[1]), null, ScalarField.affine_log_spread(0.0, CDV_BS[1], 2)),
    )
    spec = ConstantDirectionVolSpec(lam, phi, beta)
    res = geo.commutation_check(spec, (1, 2), cdv_state())
    assert res[1].commutes
    assert not res[2].commutes


def test_commutation_rejects_bad_index():
    spec = hull_white_three_curve_spec(SIG, A, BET)
    with pytest.raises(ValueError):
        geo.commutation_check(spec, (3,), hw3_state())


# ---------------------------------------------------------------------------
# parameterized families
# ---------------------------------------------------------------------------


def test_modified_ns_dimensions_and_constant_blocks():
    fam1 = geo.build_modified_ns_family(STACK, strategy=1)
    fam2 = geo.build_modified_ns_family(STACK, strategy=2)
    assert (fam1.param_dim, fam1.m) == (14, 2)
    assert (fam2.param_dim, fam2.m) == (12, 2)

    z = np.concatenate([np.repeat((0.03, 0.01, -0.02), 4) * 0, [0.0, 0.0]])
    z[0::4][:3] = (0.03, 0.01, -0.02)
    x = np.linspace(0.0, 10.0, 7)
    for fam in (fam1, fam2):
        curves = fam.curve_map(z)
        for c, level in zip(curves, (0.03, 0.01, -0.02)):
            np.testing.assert_allclose(qe.evaluate(c, x), level, atol=1e-15)

    with pytest.raises(ValueError):
        geo.build_modified_ns_family(STACK, strategy=3)
    with pytest.raises(ValueError):
        geo.build_modified_ns_family(
            geo.HullWhiteStackParams(STACK.sigma, STACK.a), strategy=2
        )


def test_strategy2_spread_map_log_domain():
    fam = geo.build_modified_ns_family(STACK, strategy=2)
    z = np.tile((0.02, -0.015, 0.5, 0.002), 3)
    bad = z.copy()
    bad[6] = -0.1  # z3 of the first tenor block
    with pytest.raises(ValueError):
        fam.embed(bad)


def test_family_values_match_embed():
    fam = geo.build_modified_ns_family(STACK, strategy=2)
    z = np.tile((0.02, -0.015, 0.5, 0.002), 3)
    grid = np.linspace(0.0, 8.0, 17)
    vals = fam.values(z, grid)
    state = fam.embed(z)
    direct = np.concatenate(
        [np.concatenate([c.value(grid) for c in state.curves]), state.log_spreads]
    )
    np.testing.assert_allclose(vals, direct, atol=1e-15)
    with pytest.raises(ValueError):
        fam.values(z[:-1], grid)


def test_generated_directions_fit_exactly():
    # anything of the form (family jacobian) @ c lies in the fitted subspace
    fam = geo.build_modified_ns_family(STACK, strategy=1)
    z = np.concatenate([np.tile((0.02, -0.015, 0.004, 0.002), 3), [0.0035, 0.0070]])
    grid = np.linspace(0.0, 8.0, 81)
    jac = geo.family_jacobian(fam, z, grid)
    rng = np.random.default_rng(5)
    for _ in range(5):
        target = jac @ rng.normal(size=fam.param_dim)
        coef, *_ = np.linalg.lstsq(jac, target, rcond=None)
        assert np.linalg.norm(jac @ coef - target) <= 1e-10 * np.linalg.norm(target)


# ---------------------------------------------------------------------------
# tangency verdicts
# ---------------------------------------------------------------------------


def test_strategy1_family_is_consistent():
    fam = geo.build_modified_ns_family(STACK, strategy=1)
    spec = single_factor_spec(STACK.sigma, STACK.a, STACK.beta)
    z = np.concatenate([np.tile((0.02, -0.015, 0.004, 0.002), 3), [0.0035, 0.0070]])
    report = geo.tangency_residual(fam, spec, z)
    assert report.verdict == "consistent"
    assert report.drift_residual < 1e-6
    assert all(r < 1e-6 for r in report.diffusion_residuals)


def test_plain_ns_inconsistent_under_single_curve_hw():
    single = geo.HullWhiteStackParams(sigma=(0.1643,), a=(0.3719,))
    fam = geo.nelson_siegel_family(single.a)
    spec = single_factor_spec(single.sigma, single.a, single.beta)
    report = geo.tangency_residual(fam, spec, np.array([0.02, -0.015, 0.004]))
    assert report.verdict == "inconsistent"
    assert report.drift_residual > 1e-2
    # the volatility itself is representable; only the squared-vol drift is not
    assert report.diffusion_residuals[0] < 1e-6


def test_zero_vol_translation_closed_family_consistent():
    spec = ConstantVolSpec(((qe.QEFunction(()),),), np.zeros((0, 1)))
    fam = geo.nelson_siegel_family((0.5,))
    report = geo.tangency_residual(fam, spec, np.array([0.02, -0.015, 0.004]))
    assert report.verdict == "consistent"
    assert report.drift_residual < 1e-8
    assert report.diffusion_residuals == (0.0,)


def test_rank_deficient_family_raises():
    fam = geo.ParamFamily(
        param_dim=2,
        m=0,
        curve_map=lambda z: (qe.constant(z[0] + z[1]),),
        spread_map=lambda z: np.zeros(0),
    )
    spec = single_factor_spec((0.1,), (0.4,), ())
    with pytest.raises(geo.ImmersionError):
        geo.tangency_residual(fam, spec, np.array([0.01, 0.01]))


def test_realization_manifold_is_invariant():
    theta = SimpleNamespace(sigma=SIG, a=A, beta=BET)
    real = fdr.build_hw3_fdr(theta, (0.025, -0.010, 0.004), (0.0035, 0.0070))
    fam = geo.family_from_realization(real)
    assert (fam.param_dim, fam.m) == (real.n, real.m)
    spec = hull_white_three_curve_spec(SIG, A, BET)
    z = np.array([0.15, 0.02, -0.01, 0.005, 0.003])
    report = geo.tangency_residual(fam, spec, z)
    assert report.verdict == "consistent"
    assert report.drift_residual < 1e-6
    assert all(r < 1e-6 for r in report.diffusion_residuals)


# ---------------------------------------------------------------------------
# implied-spread (strategy 2) verification
# ---------------------------------------------------------------------------


def test_strategy2_relation_and_control():
    report = geo.verify_strategy2_consistency(STACK)
    s0, a0 = STACK.sigma[0], STACK.a[0]
    expected = tuple(s / a - s0 / a0 for s, a in zip(STACK.sigma[1:], STACK.a[1:]))
    np.testing.assert_allclose(report.beta, expected, rtol=1e-15)
    assert report.consistent
    assert report.main.drift_residual < 1e-6
    assert all(r < 1e-6 for r in report.main.diffusion_residuals)
    # scaling beta by 1.1 breaks only the diffusion tangency: the drift
    # identity holds for arbitrary beta
    assert report.control is not None
    assert report.control.verdict == "inconsistent"
    assert max(report.control.diffusion_residuals) > 1e-4
    assert report.control.drift_residual < 1e-6


def test_strategy2_single_curve_is_vacuous():
    single = geo.HullWhiteStackParams(sigma=(0.1643,), a=(0.3719,))
    report = geo.verify_strategy2_consistency(single)
    assert report.beta == ()
    assert report.control is None
    assert report.consistent


def test_stack_params_validation():
    with pytest.raises(ValueError):
        geo.HullWhiteStackParams(sigma=(0.1, 0.2), a=(0.4,))
    with pytest.raises(ValueError):
        geo.HullWhiteStackParams(sigma=(0.1,), a=(-0.4,))
    with pytest.raises(ValueError):
        geo.HullWhiteStackParams(sigma=(0.1, 0.2), a=(0.4, 0.5), beta=(0.1, 0.2))
    no_beta = geo.HullWhiteStackParams(sigma=(0.1, 0.2), a=(0.4, 0.5))
    with pytest.raises(ValueError):
        single_factor_spec(no_beta.sigma, no_beta.a, no_beta.beta)


@settings(max_examples=15, deadline=None)
@given(
    sigmas=st.tuples(*[st.floats(0.02, 0.4) for _ in range(3)]),
    decays=st.tuples(*[st.floats(0.1, 1.2) for _ in range(3)]),
    betas=st.tuples(*[st.floats(-1.0, 1.0) for _ in range(2)]),
)
def test_strategy1_consistent_for_any_positive_parameters(sigmas, decays, betas):
    params = geo.HullWhiteStackParams(sigmas, decays, betas)
    fam = geo.build_modified_ns_family(params, strategy=1)
    spec = single_factor_spec(params.sigma, params.a, params.beta)
    z = np.concatenate([np.tile((0.02, -0.015, 0.004, 0.002), 3), [0.0035, 0.0070]])
    report = geo.tangency_residual(fam, spec, z)
    assert report.verdict == "consistent"
