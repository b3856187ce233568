"""Variable-projection calibration: residuals, inner/outer solves, drivers."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from mchjm import calibration as cal
from mchjm import fdr
from mchjm.calibration import (
    CalibrationError,
    MarketSnapshot,
    Theta,
)

# Well-separated decays keep the per-day design matrix comfortably
# conditioned (cond ~ 1e3); the nearly equal calibrated decays push it to
# ~4e10 and are exercised separately.
SEP_THETA = Theta(a0=0.35, sigma0=0.15, a1=0.62, sigma1=0.10, a2=0.88,
                  sigma2=0.07, beta1=0.45, beta2=-0.30)
Y_NS = np.array([0.035, -0.012, 0.0045])
YM0 = (0.0035, 0.0070)


def short_dataset(days=10, seed=7, **kw):
    return cal.synthesize_market_data(SEP_THETA, Y_NS, days, seed=seed, **kw)


# ---------------------------------------------------------------------------
# parameter and snapshot containers
# ---------------------------------------------------------------------------


def test_theta_round_trip_and_views():
    vec = SEP_THETA.as_array()
    assert vec.shape == (8,)
    again = Theta.from_array(vec)
    assert again == SEP_THETA
    assert again.a == (0.35, 0.62, 0.88)
    assert again.sigma == (0.15, 0.10, 0.07)
    assert again.beta == (0.45, -0.30)


@pytest.mark.parametrize("field,value", [
    ("a0", 0.0), ("a0", 1.5), ("sigma1", 0.0), ("sigma1", 0.6),
    ("beta2", 1.5), ("beta2", -1.5),
    ("sigma0", 5e-7),  # in (0, 0.5] but below the 1e-6 calibration floor
])
def test_theta_rejects_out_of_box(field, value):
    kw = {k: getattr(SEP_THETA, k) for k in cal.PARAM_NAMES}
    kw[field] = value
    with pytest.raises(ValueError):
        Theta(**kw)


def test_theta_rejects_coincident_decays():
    with pytest.raises(ValueError):
        Theta(a0=0.5, sigma0=0.1, a1=0.5, sigma1=0.1, a2=0.9, sigma2=0.1,
              beta1=0.1, beta2=0.1)


def test_theta_allows_zero_beta():
    t = Theta(a0=0.3, sigma0=0.1, a1=0.5, sigma1=0.1, a2=0.9, sigma2=0.1,
              beta1=0.0, beta2=0.0)
    assert t.beta == (0.0, 0.0)


def test_snapshot_validation_and_vector():
    snap = short_dataset(3)[1]
    n = snap.n
    assert snap.vector().shape == (3 * n + 2,)
    np.testing.assert_allclose(
        snap.yields(), -np.log(snap.bonds) / snap.maturities)
    with pytest.raises(ValueError):
        MarketSnapshot(0, np.array([2.0, 1.0]), np.ones((3, 2)),
                       np.array([0.001, 0.002]))
    with pytest.raises(ValueError):
        MarketSnapshot(0, np.array([1.0, 2.0]), np.ones((2, 2)),
                       np.array([0.001, 0.002]))
    with pytest.raises(ValueError):
        MarketSnapshot(0, np.array([1.0, 2.0]), -np.ones((3, 2)),
                       np.array([0.001, 0.002]))


# ---------------------------------------------------------------------------
# residual map
# ---------------------------------------------------------------------------


def test_residual_vanishes_on_model_data():
    snaps, states = short_dataset(6, return_states=True)
    for d in (0, 3, 5):
        r = cal.residual(snaps[d], SEP_THETA, states[d, 1:], Y_NS,
                         base_spreads=snaps[0].log_spreads)
        assert np.max(np.abs(r)) < 1e-10


def test_residual_is_affine():
    snap = short_dataset(4)[2]
    rng = np.random.default_rng(3)
    base = np.array(YM0)
    for _ in range(100):
        u = rng.normal(size=7)
        v = rng.normal(size=7)
        alpha = rng.uniform(-2.0, 2.0)
        w = alpha * u + (1.0 - alpha) * v
        ru = cal.residual(snap, SEP_THETA, u[:4], u[4:], base_spreads=base)
        rv = cal.residual(snap, SEP_THETA, v[:4], v[4:], base_spreads=base)
        rw = cal.residual(snap, SEP_THETA, w[:4], w[4:], base_spreads=base)
        assert np.max(np.abs(rw - (alpha * ru + (1.0 - alpha) * rv))) < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(-2.0, 2.0),
    seed=st.integers(0, 2 ** 16),
)
def test_residual_affinity_property(alpha, seed):
    snap = short_dataset(3)[1]
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=7), rng.normal(size=7)
    w = alpha * u + (1.0 - alpha) * v
    base = np.array(YM0)
    ru = cal.residual(snap, SEP_THETA, u[:4], u[4:], base_spreads=base)
    rv = cal.residual(snap, SEP_THETA, v[:4], v[4:], base_spreads=base)
    rw = cal.residual(snap, SEP_THETA, w[:4], w[4:], base_spreads=base)
    scale = 1.0 + np.max(np.abs(ru)) + np.max(np.abs(rv))
    assert np.max(np.abs(rw - (alpha * ru + (1.0 - alpha) * rv))) < 1e-9 * scale


def test_spread_rows_reference_base_spreads():
    # The spread residual compares (model increment + base) to the quoted
    # log-spread, so shifting the base shifts exactly the last two rows.
    snap = short_dataset(4)[2]
    z1, y = np.zeros(4), np.zeros(3)
    r0 = cal.residual(snap, SEP_THETA, z1, y, base_spreads=np.array(YM0))
    shift = np.array([0.002, -0.001])
    r1 = cal.residual(snap, SEP_THETA, z1, y,
                      base_spreads=np.array(YM0) + shift)
    n = snap.n
    np.testing.assert_allclose(r1[:3 * n], r0[:3 * n], atol=1e-15)
    np.testing.assert_allclose(r1[3 * n:], r0[3 * n:] + shift, atol=1e-15)


# ---------------------------------------------------------------------------
# inner solve
# ---------------------------------------------------------------------------


def test_inner_solve_recovers_generated_state():
    snaps, states = short_dataset(8, return_states=True)
    base = snaps[0].log_spreads
    for d in (1, 4, 7):
        sol = cal.inner_solve(snaps[d], SEP_THETA, base_spreads=base)
        assert not sol.rank_deficient and sol.rank == 7
        assert np.max(np.abs(sol.z1 - states[d, 1:])) < 1e-8
        assert np.max(np.abs(sol.y - Y_NS)) < 1e-8
        assert sol.residual_norm < 1e-10


def test_inner_solve_noise_floor():
    snaps = short_dataset(8, noise_sd=1e-4)
    sol = cal.inner_solve(snaps[5], SEP_THETA, base_spreads=snaps[0].log_spreads)
    rows = 3 * snaps[5].n + 2
    assert 1e-7 < sol.residual_norm < 2e-4 * math.sqrt(rows)


def test_inner_solve_is_optimal():
    snap = short_dataset(6)[4]
    base = snap.log_spreads * 1.01  # deliberately inconsistent base
    sol = cal.inner_solve(snap, SEP_THETA, base_spreads=base)
    rng = np.random.default_rng(11)
    for scale in (1e-6, 1e-3, 1e-1):
        for _ in range(34):
            dz = rng.normal(size=4) * scale
            dy = rng.normal(size=3) * scale
            r = cal.residual(snap, SEP_THETA, sol.z1 + dz, sol.y + dy,
                             base_spreads=base)
            assert np.linalg.norm(r) >= sol.residual_norm - 1e-12


def test_inner_solve_flags_rank_deficiency():
    # A single maturity gives 5 residual rows for 7 unknowns.
    snap = short_dataset(3)[1]
    tiny = MarketSnapshot(snap.date, snap.maturities[:1], snap.bonds[:, :1],
                          snap.log_spreads)
    sol = cal.inner_solve(tiny, SEP_THETA, base_spreads=snap.log_spreads)
    assert sol.rank_deficient and sol.rank <= 5
    assert np.isfinite(sol.residual_norm)


def test_fast_day_system_matches_literal_assembly():
    # Oracle: the affine map assembled from eight residual evaluations (the
    # base point plus the seven unit directions).
    snaps = short_dataset(5)
    snap, base = snaps[3], snaps[0].log_spreads
    c = cal.residual(snap, SEP_THETA, np.zeros(4), np.zeros(3), base_spreads=base)
    A = np.empty((c.size, 7))
    for i in range(7):
        u = np.zeros(7)
        u[i] = 1.0
        A[:, i] = cal.residual(snap, SEP_THETA, u[:4], u[4:], base_spreads=base) - c
    u, _, rank, _ = np.linalg.lstsq(A, -c, rcond=1e-12)
    r = A @ u + c
    sol = cal.inner_solve(snap, SEP_THETA, base_spreads=base)
    assert rank == sol.rank
    assert abs(np.linalg.norm(r) - sol.residual_norm) < 1e-12
    assert np.max(np.abs(np.r_[sol.z1, sol.y] - u)) < 1e-9


def test_lstsq_gufunc_signature():
    # _solve_days calls numpy's private stacked least-squares kernel; a numpy
    # that moves or reshapes it fails here rather than inside a calibration.
    from numpy.linalg import _umath_linalg
    assert _umath_linalg.lstsq.signature == "(m,n),(m,nrhs),()->(n,nrhs),(nrhs),(),(p)"


def _design_stack():
    rng = np.random.default_rng(19)
    A = rng.normal(size=(5, 53, 7)) * np.logspace(0, -6, 7)
    c = rng.normal(size=(5, 53))
    A[3, :, 6] = A[3, :, 2]  # duplicated column: rank 6
    A[4] = 0.0               # all-zero day: rank 0
    return A, c


@pytest.mark.parametrize("days", [slice(None), slice(2, 3)], ids=["stack", "one-day"])
def test_solve_days_equals_per_day_lstsq(days):
    A, c = _design_stack()
    A, c = A[days], c[days]
    u, r, rank, cond = cal._solve_days(A, c)
    assert u.shape == A.shape[:1] + (7,) and r.shape == c.shape
    for k in range(A.shape[0]):
        uk, _, rk, sk = np.linalg.lstsq(A[k], -c[k], rcond=1e-12)
        assert np.array_equal(u[k], uk)
        assert np.array_equal(r[k], A[k] @ uk + c[k])
        assert rank[k] == rk
        assert cond[k] == (np.inf if sk[-1] == 0.0 else sk[0] / sk[-1])
    if A.shape[0] == 5:
        assert list(rank) == [7, 7, 7, 6, 0]
        assert cond[4] == np.inf


def test_solve_days_raises_on_non_finite_design():
    A, c = _design_stack()
    A[1, 4, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        cal._solve_days(A, c)


@pytest.mark.parametrize("theta,cond", [(SEP_THETA, 1.4e3), (cal.REFERENCE_THETA, 3.6e10)],
                         ids=["separated", "reference"])
def test_day_fit_condition_matches_numpy(theta, cond):
    snaps = cal.synthesize_market_data(theta, Y_NS, 6, seed=7)
    snap, base = snaps[4], snaps[0].log_spreads
    coeffs = fdr.hw3_affine_observables(theta.a, theta.sigma, theta.beta,
                                        np.array([snap.date / cal.DAYS_PER_YEAR]),
                                        snap.maturities)
    A, _ = cal._day_system(*coeffs, *cal._market([snap]), base)
    fit = cal.inner_solve(snap, theta, base_spreads=base)
    assert fit.condition == pytest.approx(np.linalg.cond(A[0]), rel=1e-9)
    assert fit.condition == pytest.approx(cond, rel=0.1)


# ---------------------------------------------------------------------------
# outer calibration
# ---------------------------------------------------------------------------


def test_outer_calibrate_recovers_parameters():
    snaps = short_dataset(8, seed=2)
    start = Theta.from_array(SEP_THETA.as_array() * 1.05)
    result = cal.outer_calibrate(snaps, start)
    assert result.diagnostics.converged
    assert result.total_sse < 1e-12
    # the optimizer's own objective and the re-solved per-day SSE agree
    assert abs(result.diagnostics.optimizer_sse - result.total_sse) < 1e-10
    got = result.theta_star
    np.testing.assert_allclose(got.a, SEP_THETA.a, rtol=1e-4)
    np.testing.assert_allclose(got.sigma, SEP_THETA.sigma, rtol=1e-4)
    assert len(result.per_day) == len(snaps)
    assert all(f.residual_norm < 1e-6 for f in result.per_day)


def test_outer_calibrate_descends_from_start():
    snaps = short_dataset(8, seed=2, noise_sd=1e-4)
    start = Theta.from_array(SEP_THETA.as_array() * 1.10)
    base = snaps[0].log_spreads

    def sse_at(theta):
        return sum(
            cal.inner_solve(s, theta, base_spreads=base).residual_norm ** 2
            for s in snaps
        )

    result = cal.outer_calibrate(snaps, start)
    assert result.total_sse <= sse_at(start) + 1e-15


def test_outer_calibrate_is_deterministic():
    snaps = short_dataset(6, seed=4)
    start = Theta.from_array(SEP_THETA.as_array() * 1.02)
    r1 = cal.outer_calibrate(snaps, start)
    r2 = cal.outer_calibrate(snaps, start)
    np.testing.assert_array_equal(r1.theta_star.as_array(),
                                  r2.theta_star.as_array())
    assert r1.total_sse == r2.total_sse


def test_outer_calibrate_warm_start_skips_continuation():
    snaps = short_dataset(6, seed=4)
    cold = cal.outer_calibrate(snaps, SEP_THETA)
    warm = cal.outer_calibrate(snaps, SEP_THETA, globalize=False)
    assert warm.diagnostics.nfev < cold.diagnostics.nfev
    assert warm.total_sse < 1e-12


def test_polish_stops_at_a_run_that_returns_its_start_point(monkeypatch):
    # a rerun from the unchanged point would repeat that run exactly
    snaps = short_dataset(6, seed=4, noise_sd=1e-4)
    first = cal.outer_calibrate(snaps, SEP_THETA, globalize=False)
    least_squares, starts = cal.scipy.optimize.least_squares, []

    def recording(fun, x0, *args, **kwargs):
        starts.append(np.array(x0))
        return least_squares(fun, x0, *args, **kwargs)

    monkeypatch.setattr(cal.scipy.optimize, "least_squares", recording)
    again = cal.outer_calibrate(snaps, first.theta_star, globalize=False)
    assert len(starts) == 1
    np.testing.assert_array_equal(again.theta_star.as_array(), first.theta_star.as_array())


def test_outer_calibrate_counts_every_objective_call(monkeypatch):
    least_squares = cal.scipy.optimize.least_squares
    calls = 0

    def counting(fun, x0, *args, **kwargs):
        def objective(x):
            nonlocal calls
            calls += 1
            return fun(x)
        return least_squares(objective, x0, *args, **kwargs)

    monkeypatch.setattr(cal.scipy.optimize, "least_squares", counting)
    snaps = short_dataset(6, seed=4, noise_sd=1e-4)
    result = cal.outer_calibrate(snaps, Theta.from_array(SEP_THETA.as_array() * 1.05))
    assert result.diagnostics.nfev == calls > 0


def test_outer_calibrate_objective_equals_per_day_loop(monkeypatch):
    # Oracle: each day assembled and solved on its own, then concatenated in
    # day order.  The batched objective must match it bit for bit, so the
    # optimizer's path cannot depend on the batching.
    least_squares = cal.scipy.optimize.least_squares
    objectives = []

    def capturing(fun, x0, *args, **kwargs):
        objectives.append(fun)
        return least_squares(fun, x0, *args, **kwargs)

    monkeypatch.setattr(cal.scipy.optimize, "least_squares", capturing)
    snaps = short_dataset(10, seed=5, noise_sd=1e-4)
    cal.outer_calibrate(snaps, Theta.from_array(SEP_THETA.as_array() * 1.05))
    stages = cal._stage_indices(len(snaps))
    assert len(objectives) >= len(stages)
    base = snaps[0].log_spreads

    def per_day_loop(vec, idx):
        a, sig, beta = cal._split(vec)
        parts = []
        for k in idx:
            snap = snaps[k]
            coeffs = fdr.hw3_affine_observables(
                a, sig, beta, np.array([snap.date / cal.DAYS_PER_YEAR]), snap.maturities)
            A, c = cal._day_system(*coeffs, *cal._market([snap]), base)
            u = np.linalg.lstsq(A[0], -c[0], rcond=1e-12)[0]
            parts.append(A[0] @ u + c[0])
        return np.concatenate(parts)

    points = [SEP_THETA.as_array(), SEP_THETA.as_array() * 1.05,
              cal.DEFAULT_THETA0.as_array(), cal.REFERENCE_THETA.as_array()]
    for fun, idx in zip(objectives, stages[:-1] + [stages[-1]] * len(objectives)):
        for vec in points:
            assert np.array_equal(fun(vec), per_day_loop(vec, idx))


def test_outer_calibrate_requires_shared_maturity_grid():
    snaps = short_dataset(4)
    last = snaps[-1]
    snaps[-1] = MarketSnapshot(last.date, last.maturities[:-1], last.bonds[:, :-1],
                               last.log_spreads)
    with pytest.raises(CalibrationError, match="maturity grid"):
        cal.outer_calibrate(snaps, SEP_THETA)


def test_post_fit_equals_per_day_inner_solve():
    # The post-fit assembles all days in one batch; each day's fit must be
    # the one inner_solve finds for that day alone, bit for bit, and its
    # fitted observables those of the residual map at its (z1, y).
    snaps = short_dataset(10, seed=5, noise_sd=1e-4)
    result = cal.outer_calibrate(snaps, Theta.from_array(SEP_THETA.as_array() * 1.05),
                                 globalize=False)
    base = snaps[0].log_spreads
    assert len(result.per_day) == len(snaps)
    for snap, fit in zip(snaps, result.per_day):
        alone = cal.inner_solve(snap, result.theta_star, base_spreads=base)
        for field in dataclasses.fields(cal.DayFit):
            assert np.array_equal(getattr(fit, field.name), getattr(alone, field.name)), field
        r = cal.residual(snap, result.theta_star, fit.z1, fit.y, base_spreads=base)
        assert np.array_equal(r, np.r_[(snap.yields() - fit.yields).ravel(),
                                       fit.spreads - snap.log_spreads])


def test_day_fits_keep_design_rank():
    snaps = short_dataset(6, seed=4)
    result = cal.outer_calibrate(snaps, SEP_THETA, globalize=False)
    assert [f.rank for f in result.per_day] == [7] * len(snaps)


def test_outer_calibrate_reports_budget_exhaustion():
    snaps = short_dataset(8, seed=4, noise_sd=1e-4)
    start = Theta.from_array(SEP_THETA.as_array() * 0.5)
    result = cal.outer_calibrate(snaps, start, max_iterations=1,
                                 globalize=False)
    assert not result.diagnostics.converged
    assert result.diagnostics.status == 0


def test_outer_calibrate_input_validation():
    snaps = short_dataset(4)
    with pytest.raises(CalibrationError):
        cal.outer_calibrate(snaps[:1], SEP_THETA)
    with pytest.raises(CalibrationError):
        cal.outer_calibrate([snaps[0], snaps[0]], SEP_THETA)


def test_stage_indices_cover_window():
    assert [list(s) for s in cal._stage_indices(2)] == [[0, 1]]
    stages = cal._stage_indices(80)
    assert list(stages[0]) == [0, 79]
    assert list(stages[-1]) == list(range(80))
    sizes = [len(s) for s in stages]
    assert sizes == sorted(sizes)


# ---------------------------------------------------------------------------
# error metrics and drivers
# ---------------------------------------------------------------------------


def test_error_metrics_near_zero_on_exact_fit():
    snaps = short_dataset(8, seed=2)
    result = cal.outer_calibrate(snaps, SEP_THETA)
    m = cal.error_metrics(result, snaps)
    assert np.all(m.yield_errors < 1e-8)
    assert np.all(m.spread_errors < 1e-8)


def test_error_metrics_rejects_mismatched_window():
    snaps = short_dataset(8, seed=2)
    result = cal.outer_calibrate(snaps, SEP_THETA)
    with pytest.raises(CalibrationError):
        cal.error_metrics(result, snaps[:-1])


def test_window_sweep_rows_and_skipping():
    days = cal.TRADING_DAYS_PER_MONTH * 2 + 1
    data = cal.synthesize_market_data(SEP_THETA, Y_NS, days, seed=5,
                                      noise_sd=1e-4)
    rows = cal.window_sweep(data, [1, 2, 4], data[-1].date, SEP_THETA)
    assert [r.months for r in rows] == [1, 2, 4]
    assert not rows[0].skipped and rows[0].yield_errors.shape == (3,)
    assert rows[0].spread_end_errors.shape == (2,)
    assert rows[2].skipped and rows[2].theta_star is None
    assert "window" in rows[2].reason
    with pytest.raises(CalibrationError):
        cal.window_sweep(data, [1], end_date=10_000, theta0=SEP_THETA)


def test_window_sweep_full_window_matches_direct_call():
    days = cal.TRADING_DAYS_PER_MONTH + 0
    data = cal.synthesize_market_data(SEP_THETA, Y_NS, days, seed=6)
    start = Theta.from_array(SEP_THETA.as_array() * 1.02)
    row = cal.window_sweep(data, [1], data[-1].date, start)[0]
    direct = cal.outer_calibrate(data, start,
                                 base_spreads=data[0].log_spreads)
    np.testing.assert_array_equal(row.theta_star.as_array(),
                                  direct.theta_star.as_array())


def test_stability_single_roll_has_zero_spread():
    days = cal.TRADING_DAYS_PER_MONTH + 1
    data = cal.synthesize_market_data(SEP_THETA, Y_NS, days, seed=8)
    rep = cal.stability_analysis(data, SEP_THETA, window_months=1, rolls=1)
    assert rep.n_used == 1 and rep.n_excluded == 0
    np.testing.assert_array_equal(rep.std, np.zeros(8))
    assert rep.parameter_names == cal.PARAM_NAMES


def test_stability_rolls_stay_put_on_stationary_data():
    days = cal.TRADING_DAYS_PER_MONTH + 4
    data = cal.synthesize_market_data(SEP_THETA, Y_NS, days, seed=8)
    rep = cal.stability_analysis(data, SEP_THETA, window_months=1, rolls=4)
    assert rep.n_used == 4
    assert np.all(rep.std < 1e-6 * (1.0 + np.abs(rep.mean)))
    assert rep.thetas.shape == (4, 8)


def test_stability_requires_enough_data():
    data = short_dataset(10)
    with pytest.raises(CalibrationError):
        cal.stability_analysis(data, SEP_THETA, window_months=1, rolls=5)


# ---------------------------------------------------------------------------
# synthetic data generation
# ---------------------------------------------------------------------------


def test_synthesize_day_zero_matches_initial_family():
    snaps = short_dataset(5)
    day0 = snaps[0]
    assert day0.date == 0
    np.testing.assert_allclose(day0.log_spreads, YM0, atol=1e-15)
    x = day0.maturities
    for j, a in enumerate(SEP_THETA.a):
        em = (1.0 - np.exp(-a * x)) / a
        emx = (1.0 - (1.0 + a * x) * np.exp(-a * x)) / a ** 2
        want = Y_NS[0] + (Y_NS[1] * em + Y_NS[2] * emx) / x
        np.testing.assert_allclose(day0.yields()[j], want, atol=1e-12)


def test_synthesize_is_deterministic_and_positive():
    a = short_dataset(12, seed=9, noise_sd=1e-3)
    b = short_dataset(12, seed=9, noise_sd=1e-3)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.bonds, sb.bonds)
        np.testing.assert_array_equal(sa.log_spreads, sb.log_spreads)
    assert [s.date for s in a] == list(range(12))
    assert all(np.all(s.bonds > 0) for s in a)


def test_synthesize_states_follow_unit_brownian_clock():
    snaps, states = short_dataset(40, seed=3, return_states=True)
    assert states.shape == (40, 5)
    np.testing.assert_allclose(states[:, 0],
                               np.arange(40) / cal.DAYS_PER_YEAR, atol=1e-15)
    # q0 is the driving Brownian motion: increments have variance ~ dt
    dq = np.diff(states[:, 1])
    assert abs(np.var(dq) * cal.DAYS_PER_YEAR - 1.0) < 0.5


def test_synthesize_parameter_drift_moves_curves():
    end = Theta.from_array(SEP_THETA.as_array() * 1.10)
    still = short_dataset(30, seed=3)
    moved = short_dataset(30, seed=3, theta_drift=end)
    gap = np.max(np.abs(still[-1].yields() - moved[-1].yields()))
    assert gap > 1e-5
    np.testing.assert_array_equal(still[0].bonds, moved[0].bonds)


def test_synthesize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        cal.synthesize_market_data(SEP_THETA, Y_NS, 0)
    with pytest.raises(ValueError):
        cal.synthesize_market_data(SEP_THETA, Y_NS, 5, noise_sd=-1.0)


# ---------------------------------------------------------------------------
# cross-route consistency with the realization embeddings
# ---------------------------------------------------------------------------


def test_model_observables_match_realization_embedding():
    # The closed-form yields are the realization's curve embedding integrated
    # over maturity; numerical quadrature of the embedding must give the
    # same yields, and the log-spreads must be the embedded ones.
    snaps, states = short_dataset(9, seed=12, return_states=True)
    d = 6
    params = SimpleNamespace(sigma=np.array(SEP_THETA.sigma),
                             a=np.array(SEP_THETA.a),
                             beta=np.array(SEP_THETA.beta))
    real = fdr.build_hw3_fdr(params, tuple(Y_NS), np.array(YM0))
    z = states[d]

    coeffs = fdr.hw3_affine_observables(SEP_THETA.a, SEP_THETA.sigma, SEP_THETA.beta,
                                        snaps[d].date / cal.DAYS_PER_YEAR, snaps[d].maturities)
    yields, spreads = fdr.hw3_observables(*coeffs, states[d, 1:], Y_NS, np.array(YM0))

    np.testing.assert_allclose(spreads, real.embed_spreads(z), atol=1e-12)
    for k in (0, 8, 16):
        x_mat = snaps[d].maturities[k]
        for j in range(3):
            integral, _ = quad(
                lambda s: real.curve_values(z, np.array([s]))[j, 0],
                0.0, x_mat, epsabs=1e-13, epsrel=1e-13)
            np.testing.assert_allclose(yields[j, k], integral / x_mat,
                                       atol=1e-10)
