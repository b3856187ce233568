"""Drift formulas, Euler simulation, martingale diagnostics."""

import math

import numpy as np
import pytest

from mchjm import dynamics, qe
from mchjm.curves import DEFAULT_GRID, AnalyticCurve, MultiCurveState
from mchjm.dynamics import (
    ConstantDirectionVolSpec,
    ConstantVolSpec,
    NonzeroConditionError,
    NumericalError,
    ScalarField,
    SimConfig,
    grid_integral,
    hull_white_three_curve_spec,
    ito_drift,
    martingale_check,
    simulate_hjm,
    stratonovich_drift,
)

THETA0 = dict(
    sigmas=(0.00285941, 0.09546952, 0.09083773),
    rates=(0.53041117, 0.66253001, 0.65812121),
    betas=(0.41734616, 0.82477578),
)


def ns_state(y=(0.02, -0.008, 0.003), rates=(0.5, 0.55, 0.6), spreads=(0.002, 0.004)):
    curves = tuple(AnalyticCurve(qe.nelson_siegel(*y, a)) for a in rates)
    return MultiCurveState(curves, np.array(spreads))


def curve_values(vector):
    """The curve components of a tangent vector on the default grid, (m+1, nx)."""
    return np.stack([qe.evaluate(f, DEFAULT_GRID) for f in vector.curves])


# ---------------------------------------------------------------------------
# drift formulas
# ---------------------------------------------------------------------------


def test_ito_drift_hull_white_closed_form():
    # alpha^j(x) = F r^j + (sigma^2/a) e^{-ax}(1 - e^{-ax}) - beta sigma e^{-ax}
    state = ns_state()
    spec = hull_white_three_curve_spec(**THETA0)
    drift = ito_drift(state, spec)
    xs = np.linspace(0.0, 8.0, 101)
    sig, a, bet = THETA0["sigmas"], THETA0["rates"], (0.0, *THETA0["betas"])
    for j in range(3):
        Fr = qe.evaluate(qe.derive(state.curves[j].func), xs)
        hjm = (sig[j] ** 2 / a[j]) * np.exp(-a[j] * xs) * (1 - np.exp(-a[j] * xs))
        want = Fr + hjm - bet[j] * sig[j] * np.exp(-a[j] * xs)
        np.testing.assert_allclose(qe.evaluate(drift.curves[j], xs), want, rtol=1e-11, atol=1e-14)


def test_spread_drift_identity_exact():
    # gamma^j = B r^0 - B r^j - |beta^j|^2 / 2, checkable to rounding
    state = ns_state()
    spec = hull_white_three_curve_spec(**THETA0)
    drift = ito_drift(state, spec)
    r0 = state.curves[0].value(0.0)
    for j in (1, 2):
        rj = state.curves[j].value(0.0)
        b2 = THETA0["betas"][j - 1] ** 2
        assert abs(drift.spreads[j - 1] - (r0 - rj - 0.5 * b2)) < 1e-14


def test_zero_volatility_drift_is_pure_transport():
    state = ns_state()
    zero = qe.QEFunction(())
    spec = ConstantVolSpec(((zero,), (zero,), (zero,)), np.zeros((2, 1)))
    drift = ito_drift(state, spec)
    xs = np.linspace(0.0, 8.0, 50)
    for j in range(3):
        np.testing.assert_allclose(
            qe.evaluate(drift.curves[j], xs),
            qe.evaluate(qe.derive(state.curves[j].func), xs),
            atol=1e-15,
        )
    r0 = state.curves[0].value(0.0)
    np.testing.assert_allclose(
        drift.spreads, [r0 - state.curves[j].value(0.0) for j in (1, 2)], atol=1e-15
    )


def test_stratonovich_equals_ito_for_constant_vol():
    state = ns_state()
    spec = hull_white_three_curve_spec(**THETA0)
    a = ito_drift(state, spec)
    b = stratonovich_drift(state, spec)
    xs = np.linspace(0.0, 9.0, 60)
    for j in range(3):
        np.testing.assert_array_equal(qe.evaluate(a.curves[j], xs), qe.evaluate(b.curves[j], xs))
    np.testing.assert_array_equal(a.spreads, b.spreads)


def _constant_loading_specs():
    """A constant-direction spec with phi = 0.7 and constant beta, and the
    constant-vol spec with sigma = 0.7 lambda that it equals."""
    zero = qe.QEFunction(())
    lam = (
        (qe.exponential(0.10, -0.5), qe.exponential(0.03, -1.2)),
        (qe.exponential(0.12, -0.7), zero),
        (qe.exponential(0.09, -0.6), qe.exponential(0.05, -0.9)),
    )
    betas = ((0.3, -0.2), (0.25, 0.1))
    cdv = ConstantDirectionVolSpec(
        lam,
        tuple(tuple(ScalarField.constant(0.7) for _ in row) for row in lam),
        tuple(tuple(ScalarField.constant(b) for b in row) for row in betas),
    )
    cv = ConstantVolSpec(tuple(tuple(f * 0.7 for f in row) for row in lam), np.array(betas))
    return cdv, cv


def test_constant_loadings_match_constant_vol_spec():
    # phi = 0.7 and constant beta: sigma = 0.7 lambda is a constant-vol model,
    # so phi^2 D - beta phi lambda must equal sigma H sigma - beta sigma.
    cdv, cv = _constant_loading_specs()
    state = ns_state()
    for drift in (ito_drift, stratonovich_drift):
        got, want = drift(state, cdv), drift(state, cv)
        got_x, want_x = curve_values(got), curve_values(want)
        assert np.max(np.abs(got_x - want_x)) <= 1e-14 * np.max(np.abs(want_x))
        np.testing.assert_allclose(got.spreads, want.spreads, rtol=1e-14, atol=0.0)


def _cdv_example_spec(sig=(0.006, 0.01, 0.009), a=(0.5, 0.66, 0.62),
                      b11=0.2, b12=0.3, b21=0.15, b23=0.25):
    """Three-factor spec: diagonal curve loadings, spread loadings
    (b11, b12 Y^1, 0) and (b21, 0, b23 Y^2)."""
    zero = qe.QEFunction(())
    lam = (
        (qe.exponential(sig[0], -a[0]), zero, zero),
        (zero, qe.exponential(sig[1], -a[1]), zero),
        (zero, zero, qe.exponential(sig[2], -a[2])),
    )
    one = ScalarField.constant(1.0)
    nil = ScalarField.constant(0.0)
    phi = ((one, nil, nil), (nil, one, nil), (nil, nil, one))
    beta = (
        (ScalarField.constant(b11), ScalarField.affine_log_spread(0.0, b12, 1), nil),
        (ScalarField.constant(b21), nil, ScalarField.affine_log_spread(0.0, b23, 2)),
    )
    return ConstantDirectionVolSpec(lam, phi, beta)


def test_cdv_ito_drift_hand_expansion():
    spec = _cdv_example_spec()
    state = ns_state()
    y1, y2 = state.log_spreads
    drift = ito_drift(state, spec)
    xs = np.linspace(0.0, 6.0, 40)
    sig, a = (0.006, 0.01, 0.009), (0.5, 0.66, 0.62)
    for j in range(3):
        Fr = qe.evaluate(qe.derive(state.curves[j].func), xs)
        D = (sig[j] ** 2 / a[j]) * (np.exp(-a[j] * xs) - np.exp(-2 * a[j] * xs))
        want = Fr + D
        if j == 1:  # - beta^1_2(Y) phi lambda^1 = - (b12 Y^1) sigma^1 e^{-a1 x}
            want = want - 0.3 * y1 * sig[1] * np.exp(-a[1] * xs)
        if j == 2:
            want = want - 0.25 * y2 * sig[2] * np.exp(-a[2] * xs)
        np.testing.assert_allclose(qe.evaluate(drift.curves[j], xs), want, rtol=1e-10, atol=1e-14)
    r0 = state.curves[0].value(0.0)
    want_1 = r0 - state.curves[1].value(0.0) - 0.5 * (0.2**2 + (0.3 * y1) ** 2)
    want_2 = r0 - state.curves[2].value(0.0) - 0.5 * (0.15**2 + (0.25 * y2) ** 2)
    np.testing.assert_allclose(drift.spreads, [want_1, want_2], atol=1e-14)


def test_cdv_stratonovich_spread_correction_hand_expansion():
    # zeta^j adds (1/2) * slope^2 * Y on top of the Ito half-square terms
    spec = _cdv_example_spec()
    state = ns_state()
    y1, y2 = state.log_spreads
    strat = stratonovich_drift(state, spec)
    r0 = state.curves[0].value(0.0)
    want_1 = r0 - state.curves[1].value(0.0) - 0.5 * (0.2**2) - 0.5 * 0.3**2 * y1 * (y1 + 1.0)
    want_2 = r0 - state.curves[2].value(0.0) - 0.5 * (0.15**2) - 0.5 * 0.25**2 * y2 * (y2 + 1.0)
    np.testing.assert_allclose(strat.spreads, [want_1, want_2], atol=1e-13)
    # constant phi: curve components get no correction
    ito = ito_drift(state, spec)
    xs = np.linspace(0.0, 6.0, 25)
    for j in range(3):
        np.testing.assert_allclose(qe.evaluate(strat.curves[j], xs), qe.evaluate(ito.curves[j], xs), atol=1e-15)


def test_one_curve_constant_direction_spec():
    # m = 0: constant loadings must not read the (empty) log-spreads
    lam = qe.exponential(0.02, -0.5)
    cdv = ConstantDirectionVolSpec(((lam,),), ((ScalarField.constant(0.7),),), ())
    cv = ConstantVolSpec(((lam * 0.7,),), np.zeros((0, 1)))
    curve = AnalyticCurve(qe.nelson_siegel(0.02, -0.008, 0.003, 0.45))
    state = MultiCurveState((curve,), np.zeros(0))
    for drift in (ito_drift, stratonovich_drift):
        got, want = drift(state, cdv), drift(state, cv)
        got_x, want_x = curve_values(got), curve_values(want)
        assert np.max(np.abs(got_x - want_x)) <= 1e-14 * np.max(np.abs(want_x))
        assert got.spreads.shape == (0,)
    cfg = SimConfig(dt=0.01, horizon=0.1, n_paths=5, seed=3, grid=np.linspace(0.0, 4.0, 41))
    got, want = simulate_hjm(state, cdv, cfg), simulate_hjm(state, cv, cfg)
    np.testing.assert_allclose(got.curves[-1], want.curves[-1], rtol=1e-14, atol=0.0)
    assert got.log_spreads[-1].shape == (5, 0)


def test_constant_direction_spec_rejects_spread_index_beyond_m():
    lam = ((qe.exponential(0.01, -0.5),), (qe.exponential(0.012, -0.6),))
    one = (ScalarField.constant(1.0),)
    with pytest.raises(ValueError, match=r"beta\[1\]\[0\] reads log-spread 2"):
        ConstantDirectionVolSpec(lam, (one, one), ((ScalarField.affine_log_spread(0.1, 0.3, 2),),))
    with pytest.raises(ValueError, match=r"phi\[1\]\[0\] reads log-spread 2"):
        ConstantDirectionVolSpec(lam, (one, (ScalarField.affine_log_spread(1.0, 0.3, 2),)),
                                 ((ScalarField.constant(0.2),),))
    ConstantDirectionVolSpec(lam, (one, one), ((ScalarField.affine_log_spread(0.1, 0.3, 1),),))


def test_nonzero_condition_raises_on_vanishing_loading():
    spec = _cdv_example_spec()
    bad = ns_state(spreads=(0.0, 0.004))  # Y^1 = 0 kills the affine loading
    with pytest.raises(NonzeroConditionError):
        ito_drift(bad, spec)
    ito_drift(ns_state(spreads=(0.002, 0.004)), spec)  # fine when nonzero


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def test_simulation_is_deterministic_under_seed():
    state = ns_state()
    spec = hull_white_three_curve_spec(**THETA0)
    cfg = SimConfig(dt=0.01, horizon=0.1, n_paths=4, seed=7, grid=np.linspace(0, 4, 81))
    a = simulate_hjm(state, spec, cfg, record_times=(0.0, 0.1))
    b = simulate_hjm(state, spec, cfg, record_times=(0.0, 0.1))
    np.testing.assert_array_equal(a.curves[-1], b.curves[-1])
    np.testing.assert_array_equal(a.log_spreads[-1], b.log_spreads[-1])
    np.testing.assert_array_equal(a.bank[-1], b.bank[-1])


def test_constant_loadings_simulate_like_constant_vol_spec():
    # the constant-direction Euler branch against the constant-vol one
    cdv, cv = _constant_loading_specs()
    state = ns_state()
    cfg = SimConfig(dt=0.01, horizon=0.2, n_paths=50, seed=5, grid=np.linspace(0.0, 5.0, 51))
    got, want = simulate_hjm(state, cdv, cfg), simulate_hjm(state, cv, cfg)
    for g, w in ((got.curves, want.curves), (got.log_spreads, want.log_spreads),
                 (got.bank, want.bank)):
        assert np.max(np.abs(g[-1] - w[-1])) <= 1e-14 * np.max(np.abs(w[-1]))


@pytest.mark.parametrize("branch", ["constant-vol", "constant-direction"])
def test_path_blocks_do_not_change_a_path(branch):
    # paths straddling a block boundary, rerun as one block of their own
    spec = _constant_loading_specs()[1] if branch == "constant-vol" else _cdv_example_spec()
    state = ns_state()
    grid = np.linspace(0.0, 5.5, 221)
    block = dynamics._paths_per_block(spec.m, grid.size)
    record = (0.0, 0.03, 0.06)
    cfg = SimConfig(dt=0.01, horizon=0.06, n_paths=2 * block + 5, seed=12, grid=grid)
    dW = cfg.brownian_increments(spec.d)
    whole = simulate_hjm(state, spec, cfg, increments=dW, record_times=record)
    lo, hi = block - 7, block + 9
    part_cfg = SimConfig(dt=0.01, horizon=0.06, n_paths=hi - lo, grid=grid)
    part = simulate_hjm(state, spec, part_cfg, increments=dW[lo:hi], record_times=record)
    for k in range(len(record)):
        np.testing.assert_array_equal(part.curves[k], whole.curves[k][lo:hi])
        np.testing.assert_array_equal(part.log_spreads[k], whole.log_spreads[k][lo:hi])
        np.testing.assert_array_equal(part.bank[k], whole.bank[k][lo:hi])


def test_euler_reports_the_earliest_failing_step_over_all_blocks():
    spec = hull_white_three_curve_spec(**THETA0)
    grid = np.linspace(0.0, 5.5, 221)
    cfg = SimConfig(dt=0.01, horizon=0.05, n_paths=dynamics._paths_per_block(2, grid.size) + 3,
                    seed=2, grid=grid)
    dW = cfg.brownian_increments(1).copy()
    dW[0, 3, 0] = np.inf  # path 0 fails at step 4
    dW[-1, 1, 0] = np.inf  # a path in the last block fails at step 2
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="at step 2$"):
        simulate_hjm(ns_state(), spec, cfg, increments=dW)


def test_affine_spread_loading_euler_step():
    # one step: dY^j = dt (r^0(0) - r^j(0) - |beta^j(Y)|^2 / 2) + beta^j(Y) . dW
    spec = _cdv_example_spec()
    state = ns_state()
    dt = 0.01
    cfg = SimConfig(dt=dt, horizon=dt, n_paths=4, seed=0, grid=np.linspace(0.0, 4.0, 41))
    dW = np.random.default_rng(8).normal(0.0, math.sqrt(dt), size=(4, 1, 3))
    paths = simulate_hjm(state, spec, cfg, increments=dW)
    y1, y2 = state.log_spreads
    beta = np.array([[0.2, 0.3 * y1, 0.0], [0.15, 0.0, 0.25 * y2]])
    r0 = state.curves[0].value(0.0)
    short = np.array([state.curves[j].value(0.0) for j in (1, 2)])
    want = dt * (r0 - short - 0.5 * np.sum(beta**2, axis=1)) + dW[:, 0, :] @ beta.T
    got = paths.log_spreads[-1] - state.log_spreads
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_zero_volatility_transport():
    # sigma = 0: r_t(x) = r_0(x + t) up to O(dt + dx) upwind error
    y, a = (0.02, -0.01, 0.004), 0.5
    curve = AnalyticCurve(qe.nelson_siegel(*y, a))
    state = MultiCurveState((curve,), np.zeros(0))
    zero = qe.QEFunction(())
    spec = ConstantVolSpec(((zero,),), np.zeros((0, 1)))
    t = 0.5
    grid = np.linspace(0.0, 10.0, 201)
    cfg = SimConfig(dt=1e-3, horizon=t, n_paths=1, seed=0, grid=grid)
    paths = simulate_hjm(state, spec, cfg, record_times=(t,))
    R_t = paths.curves[0][0, 0]
    keep = grid <= grid[-1] - t  # flat far boundary pollutes the last nodes
    exact = curve.value(grid[keep] + t)
    err = np.max(np.abs(R_t[keep] - exact))
    assert err < 3e-4


def test_single_curve_hull_white_strong_path():
    # Euler path vs the exact transport + OU response driven by the same noise
    sigma, a = 0.02, 0.6
    curve = AnalyticCurve(qe.nelson_siegel(0.02, -0.008, 0.003, 0.45))
    state = MultiCurveState((curve,), np.zeros(0))
    spec = ConstantVolSpec(((qe.exponential(sigma, -a),),), np.zeros((0, 1)))
    t, dt = 0.5, 1e-3
    grid = np.linspace(0.0, 6.0, 301)
    cfg = SimConfig(dt=dt, horizon=t, n_paths=1, seed=11, grid=grid)
    rng = np.random.default_rng(11)
    n_steps = cfg.n_steps
    increments = rng.normal(0.0, math.sqrt(dt), size=(1, n_steps, 1))
    paths = simulate_hjm(state, spec, cfg, increments=increments, record_times=(t,))
    R_t = paths.curves[0][0, 0]

    S = lambda x: (sigma / a) * (1 - np.exp(-a * x))
    keep = grid <= grid[-1] - t
    xs = grid[keep]
    det = curve.value(xs + t) + 0.5 * (S(xs + t) ** 2 - S(xs) ** 2)
    times = (np.arange(n_steps) + 1) * dt
    ou = float(np.sum(np.exp(-a * (t - times)) * increments[0, :, 0]))
    exact = det + sigma * np.exp(-a * xs) * ou
    assert np.max(np.abs(R_t[keep] - exact)) < 2e-3


def test_grid_integral_partial_cell():
    grid = np.linspace(0.0, 2.0, 21)
    vals = np.sin(grid) + 1.3
    want = np.trapezoid(np.concatenate([vals[:16], [np.interp(1.55, grid, vals)]]),
                        np.concatenate([grid[:16], [1.55]]))
    got = grid_integral(vals, grid, 1.55)
    assert got == pytest.approx(want, rel=1e-12)


def test_martingale_check_honest_and_corrupted():
    state = ns_state(y=(0.015, -0.002, 0.0005), rates=THETA0["rates"])
    spec = hull_white_three_curve_spec(**THETA0)
    t, T = 0.5, 2.0
    grid = np.linspace(0.0, 2.6, 131)
    cfg = SimConfig(dt=1 / 250, horizon=t, n_paths=1500, seed=42, grid=grid)
    paths = simulate_hjm(state, spec, cfg, record_times=(0.0, t))
    for j in range(3):
        stat = martingale_check(paths, j, t, T)
        assert abs(stat.z) < 3.5, f"curve {j}: z = {stat.z}"
    corrupted = simulate_hjm(state, spec, cfg, record_times=(0.0, t), drift_shift=0.01)
    stat0 = martingale_check(corrupted, 0, t, T)
    assert abs(stat0.z) > 5.0


def test_martingale_check_needs_enough_paths():
    state = ns_state()
    spec = hull_white_three_curve_spec(**THETA0)
    cfg = SimConfig(dt=0.01, horizon=0.1, n_paths=10, seed=1, grid=np.linspace(0, 3, 61))
    paths = simulate_hjm(state, spec, cfg, record_times=(0.0, 0.1))
    with pytest.raises(ValueError):
        martingale_check(paths, 0, 0.1, 2.0)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.01, horizon=0.105, n_paths=1)  # horizon not a multiple
    with pytest.raises(ValueError):
        SimConfig(dt=0.01, horizon=0.1, n_paths=1, grid=np.array([0.0, 0.1, 0.15]))
    for dt, horizon in ((math.nan, 0.1), (0.01, math.nan), (0.01, math.inf), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(dt=dt, horizon=horizon, n_paths=1)
    cfg = SimConfig(dt=0.01, horizon=0.1, n_paths=1)
    assert cfg.record_steps(None) == ((0.1,), [10])
    with pytest.raises(ValueError):
        cfg.record_steps((0.05, 0.05))


def test_hw3_spec_validation():
    with pytest.raises(ValueError):
        hull_white_three_curve_spec((0.01, 0.01), (0.5, 0.5), (0.4, 0.8))
