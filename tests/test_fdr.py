"""Realization builders: embeddings, tangency, coupling, benchmark charts."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from mchjm import dynamics, fdr, geometry, qe
from mchjm.curves import DEFAULT_GRID, AnalyticCurve, MultiCurveState
from mchjm.dynamics import NonzeroConditionError, NumericalError, SimConfig

THETA0 = SimpleNamespace(
    sigma=np.array([0.00285941, 0.09546952, 0.09083773]),
    a=np.array([0.53041117, 0.66253001, 0.65812121]),
    beta=np.array([0.41734616, 0.82477578]),
)
Y_NS = (0.025, -0.010, 0.004)
YM0 = np.array([0.0035, 0.0070])

CDV_SIG = (0.006, 0.009, 0.011)
CDV_A = (0.45, 0.61, 0.58)
CDV_BC = (0.21, 0.33)
CDV_BS = (0.55, 0.40)


def hw3_initial() -> MultiCurveState:
    curves = tuple(
        AnalyticCurve(qe.nelson_siegel(*Y_NS, decay=a)) for a in THETA0.a
    )
    return MultiCurveState(curves, YM0)


def hw3_spec() -> dynamics.VolSpec:
    return dynamics.hull_white_three_curve_spec(THETA0.sigma, THETA0.a, THETA0.beta)


def fd_columns(real: fdr.FDRRealization, z: np.ndarray, x_eval: np.ndarray):
    """Central-difference derivative of the embedding in every coordinate."""
    cc = np.empty((real.n, real.m + 1, x_eval.size))
    cs = np.empty((real.n, real.m))
    for k in range(real.n):
        step = 1e-6 * (1.0 + abs(z[k]))
        zp, zm = z.copy(), z.copy()
        zp[k] += step
        zm[k] -= step
        cc[k] = (real.curve_values(zp, x_eval) - real.curve_values(zm, x_eval)) / (2 * step)
        cs[k] = (real.embed_spreads(zp) - real.embed_spreads(zm)) / (2 * step)
    return cc, cs


# ---------------------------------------------------------------------------
# construction and embedding
# ---------------------------------------------------------------------------


def test_hw3_dimensions_and_annihilator():
    # the factor block's drift is the companion matrix of the degree-3
    # annihilator (g + a0)(g + a1)(g + a2) = g^3 + e1 g^2 + e2 g + e3, so at
    # the unit vector of the block's last coordinate it reads -(e3, e2, e1)
    a0, a1, a2 = THETA0.a
    e1, e2, e3 = a0 + a1 + a2, a0 * a1 + a0 * a2 + a1 * a2, a0 * a1 * a2
    closed = fdr.build_hw3_fdr(THETA0, Y_NS, YM0)
    generic = fdr.build_constant_vol_fdr(hw3_initial(), hw3_spec())
    for real, rtol in ((closed, 1e-14), (generic, 1e-9)):
        assert (real.n, real.m, real.d) == (5, 2, 1)
        np.testing.assert_allclose(real.drift(np.eye(5)[4])[2:], (-e3, -e2, -e1), rtol=rtol)


def test_hw3_observables_batched_over_days_equal_scalar_calls():
    # One call over K running times returns, day by day, exactly what the
    # scalar call returns at each time: same operations, no tolerance.
    x = np.array([1 / 12, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0])
    times = np.r_[0.0, np.arange(1, 126) / 250.0]
    for a, sig, beta in ((THETA0.a, THETA0.sigma, THETA0.beta),
                         ((0.35, 0.62, 0.88), (0.15, 0.10, 0.07), (0.45, -0.30))):
        Wz, Wy, c = fdr.hw3_affine_observables(a, sig, beta, times, x)
        rows = 3 * x.size + 2
        assert (Wz.shape, Wy.shape, c.shape) == (
            (times.size, rows, 4), (times.size, rows, 3), (times.size, rows))
        for k, t in enumerate(times):
            one = fdr.hw3_affine_observables(a, sig, beta, float(t), x)
            assert one[0].shape == (rows, 4)
            for batched, scalar in zip((Wz, Wy, c), one):
                assert np.array_equal(batched[k], scalar)


def test_embed_at_origin_recovers_initial_configuration():
    x = np.linspace(0.0, 9.0, 37)
    initial = hw3_initial()
    target = np.stack([c.value(x) for c in initial.curves])
    cdv_target = np.stack([qe.evaluate(qe.nelson_siegel(*Y_NS, decay=a), x) for a in CDV_A])
    for real, tgt in (
        (fdr.build_hw3_fdr(THETA0, Y_NS, YM0), target),
        (fdr.build_constant_vol_fdr(initial, hw3_spec()), target),
        (fdr.build_cdv_example_fdr(CDV_SIG, CDV_A, CDV_BC, CDV_BS, Y_NS, YM0), cdv_target),
    ):
        z0 = np.zeros(real.n)
        np.testing.assert_allclose(real.curve_values(z0, x), tgt, atol=1e-12)
        np.testing.assert_allclose(real.embed_spreads(z0), YM0, atol=1e-14)


def test_generic_builder_matches_closed_form():
    """The annihilator-driven construction and the hand-expanded five-state
    system are independently coded routes to the same realization."""
    closed = fdr.build_hw3_fdr(THETA0, Y_NS, YM0)
    generic = fdr.build_constant_vol_fdr(hw3_initial(), hw3_spec())
    rng = np.random.default_rng(11)
    x = np.linspace(0.0, 8.0, 33)
    for _ in range(5):
        z = rng.normal(scale=0.2, size=5)
        z[0] = abs(z[0]) + 0.05
        np.testing.assert_allclose(
            generic.curve_values(z, x), closed.curve_values(z, x), rtol=1e-9, atol=1e-13
        )
        np.testing.assert_allclose(
            generic.embed_spreads(z), closed.embed_spreads(z), rtol=1e-9, atol=1e-14
        )
        np.testing.assert_allclose(generic.drift(z), closed.drift(z), rtol=1e-12, atol=0)
        np.testing.assert_allclose(generic.diffusion(z), closed.diffusion(z), atol=0)


def test_single_curve_embedding_against_quadrature():
    """One curve, one factor: check the deterministic part of the embedding
    against direct numerical quadrature of the volatility."""
    sig, a = 0.11, 0.42
    vol = qe.exponential(sig, -a)
    spec = dynamics.constant_vol_spec(((vol,),), np.zeros((0, 1)))
    r0 = qe.nelson_siegel(0.02, -0.008, 0.003, decay=0.5)
    initial = MultiCurveState((AnalyticCurve(r0),), np.zeros(0))
    real = fdr.build_constant_vol_fdr(initial, spec)
    assert real.n == 3  # time + (loading, derivative loading)

    z = np.array([0.7, 0.31, -0.18])

    def s_int(x):
        return quad(lambda u: sig * math.exp(-a * u), 0.0, x)[0]

    for x in (0.0, 0.4, 1.3, 2.9, 5.1):
        expected = (
            qe.evaluate(r0, x + z[0])
            + sig * math.exp(-a * x) * z[1]
            - a * sig * math.exp(-a * x) * z[2]
            + 0.5 * (s_int(x + z[0]) ** 2 - s_int(x) ** 2)
        )
        got = real.curve_values(z, np.array([x]))[0, 0]
        assert got == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# tangency: the realization's vector fields push forward to the dynamics
# ---------------------------------------------------------------------------


def check_tangency(real, spec, states, x_eval, atol):
    for z in states:
        cc, cs = fd_columns(real, z, x_eval)
        a = real.drift(z)
        b = real.diffusion(z)
        state = real.embed(z)

        mu = dynamics.stratonovich_drift(state, spec)
        lhs_curves = np.einsum("k,kjx->jx", a, cc)
        lhs_spreads = cs.T @ a
        mu_curves = np.stack([qe.evaluate(f, x_eval) for f in mu.curves])
        np.testing.assert_allclose(lhs_curves, mu_curves, atol=atol)
        np.testing.assert_allclose(lhs_spreads, mu.spreads, atol=atol)

        vol = spec.fields(state)
        for i in range(real.d):
            vol_curves = np.einsum("k,kjx->jx", b[:, i], cc)
            vol_spreads = cs.T @ b[:, i]
            target = np.stack([qe.evaluate(vol.sigma[j][i], x_eval) for j in range(real.m + 1)])
            np.testing.assert_allclose(vol_curves, target, atol=atol)
            np.testing.assert_allclose(vol_spreads, vol.beta[:, i], atol=atol)


def test_tangency_constant_vol():
    real = fdr.build_constant_vol_fdr(hw3_initial(), hw3_spec())
    rng = np.random.default_rng(5)
    states = []
    for _ in range(3):
        z = rng.normal(scale=0.1, size=5)
        z[0] = abs(z[0]) + 0.1
        states.append(z)
    check_tangency(real, hw3_spec(), states, np.linspace(0.0, 6.0, 25), atol=5e-9)


def test_tangency_constant_direction():
    real = fdr.build_cdv_example_fdr(CDV_SIG, CDV_A, CDV_BC, CDV_BS, Y_NS, YM0)
    spec = fdr.cdv_example_spec(CDV_SIG, CDV_A, CDV_BC, CDV_BS)
    rng = np.random.default_rng(6)
    states = []
    for _ in range(3):
        z = rng.normal(scale=0.02, size=6)
        z[0] = abs(z[0]) + 0.05
        states.append(z)
    check_tangency(real, spec, states, np.linspace(0.0, 6.0, 25), atol=5e-9)


def embedding_rank(real: fdr.FDRRealization, z: np.ndarray, step: float) -> int:
    """Numerical rank of the embedding's Jacobian at ``z`` on
    ``DEFAULT_GRID``: central differences with a fixed step, singular
    values above 1e-8 of the largest."""
    cols = []
    for k in range(real.n):
        zp, zm = z.copy(), z.copy()
        zp[k] += step
        zm[k] -= step
        curves = real.curve_values(zp, DEFAULT_GRID) - real.curve_values(zm, DEFAULT_GRID)
        spreads = real.embed_spreads(zp) - real.embed_spreads(zm)
        cols.append(np.r_[curves.ravel(), spreads] / (2 * step))
    sv = np.linalg.svd(np.stack(cols, axis=1), compute_uv=False)
    return int(np.sum(sv > 1e-8 * sv[0]))


@pytest.mark.parametrize("builder, z", [
    ("hw3", (0.0,) * 5),
    ("cdv-example", (0.0,) * 6),
    ("cdv-example", (0.3, 0.01, -0.02, 0.05, 0.1, -0.03)),
])
def test_explicit_realizations_are_minimal(builder, z):
    """A minimal realization has as many states as its embedding has rank,
    and as the Lie algebra of the model's fields has dimensions (Björk and
    Svensson, Math. Finance 11, 2001)."""
    if builder == "hw3":
        real, spec = fdr.build_hw3_fdr(THETA0, Y_NS, YM0), hw3_spec()
    else:
        real = fdr.build_cdv_example_fdr(CDV_SIG, CDV_A, CDV_BC, CDV_BS, Y_NS, YM0)
        spec = fdr.cdv_example_spec(CDV_SIG, CDV_A, CDV_BC, CDV_BS)
    z = np.array(z)
    mu, sigs = geometry.model_fields(spec)
    span = geometry.span_dimension_estimate([mu, *sigs], real.embed(z), 3)
    assert real.n == embedding_rank(real, z, 1e-3) == embedding_rank(real, z, 1e-6) == span


def test_constant_vol_builder_needs_a_state_independent_spec():
    initial = MultiCurveState(
        tuple(AnalyticCurve(qe.nelson_siegel(*Y_NS, decay=a)) for a in CDV_A), YM0
    )
    with pytest.raises(ValueError, match="loadings are all constant"):
        fdr.build_constant_vol_fdr(initial, fdr.cdv_example_spec(CDV_SIG, CDV_A, CDV_BC, CDV_BS))
    # with the slopes at 0 the same spec is state independent
    flat = fdr.cdv_example_spec(CDV_SIG, CDV_A, CDV_BC, (0.0, 0.0))
    assert fdr.build_constant_vol_fdr(initial, flat).n == 7


def test_cdv_builder_rejects_vanishing_spread():
    with pytest.raises(NonzeroConditionError):
        fdr.build_cdv_example_fdr(CDV_SIG, CDV_A, CDV_BC, CDV_BS, Y_NS, (0.0, 0.007))


# ---------------------------------------------------------------------------
# state simulation
# ---------------------------------------------------------------------------


def test_zero_noise_state_flow_is_pure_time():
    real = fdr.build_hw3_fdr(THETA0, Y_NS, YM0)
    cfg = SimConfig(dt=0.01, horizon=1.0, n_paths=2, grid=np.linspace(0, 2, 21))
    inc = np.zeros((2, cfg.n_steps, 1))
    paths = fdr.simulate_state(real, cfg, increments=inc, record_times=(0.0, 0.5, 1.0))
    assert paths.record_times == (0.0, 0.5, 1.0)
    for t in (0.0, 0.5, 1.0):
        z = paths.at(t)
        np.testing.assert_allclose(z[:, 0], t, atol=1e-13)
        np.testing.assert_allclose(z[:, 1:], 0.0, atol=1e-15)


def test_degenerate_direction_fields_couple_to_constant_vol():
    """With the spread-proportional loadings switched off, the six-state
    realization and the generic constant-volatility one describe the same
    model; coupled by the same increments their embeddings agree up to the
    discretization error of the two Heun schemes."""
    ym = YM0
    cdv = fdr.build_cdv_example_fdr(CDV_SIG, CDV_A, CDV_BC, (0.0, 0.0), Y_NS, ym)
    zero = qe.QEFunction(())
    sigma = tuple(
        tuple(qe.exponential(CDV_SIG[j], -CDV_A[j]) if i == j else zero for i in range(3))
        for j in range(3)
    )
    beta = np.array([[CDV_BC[0], 0.0, 0.0], [CDV_BC[1], 0.0, 0.0]])
    initial = MultiCurveState(
        tuple(AnalyticCurve(qe.nelson_siegel(*Y_NS, decay=a)) for a in CDV_A), ym
    )
    cv = fdr.build_constant_vol_fdr(initial, dynamics.constant_vol_spec(sigma, beta))
    assert cv.n == 7

    cfg = SimConfig(dt=1e-4, horizon=0.25, n_paths=1, seed=99, grid=np.linspace(0, 2, 21))
    rng = np.random.default_rng(17)
    inc = rng.normal(0.0, math.sqrt(cfg.dt), size=(1, cfg.n_steps, 3))
    z_cdv = fdr.simulate_state(cdv, cfg, increments=inc).at(0.25)[0]
    z_cv = fdr.simulate_state(cv, cfg, increments=inc).at(0.25)[0]

    x = np.linspace(0.0, 5.0, 21)
    np.testing.assert_allclose(cdv.curve_values(z_cdv, x), cv.curve_values(z_cv, x), atol=2e-10)
    np.testing.assert_allclose(cdv.embed_spreads(z_cdv), cv.embed_spreads(z_cv), atol=2e-9)


@pytest.mark.parametrize("builder", ["hw3", "constant-vol", "cdv-example"])
def test_batched_heun_matches_a_per_path_loop(builder):
    if builder == "hw3":
        real = fdr.build_hw3_fdr(THETA0, Y_NS, YM0)
    elif builder == "constant-vol":
        real = fdr.build_constant_vol_fdr(hw3_initial(), hw3_spec())
    else:
        real = fdr.build_cdv_example_fdr(CDV_SIG, CDV_A, CDV_BC, CDV_BS, Y_NS, YM0)
    cfg = SimConfig(dt=0.01, horizon=0.2, n_paths=6, seed=4, grid=np.linspace(0, 2, 21))
    inc = cfg.brownian_increments(real.d)
    got = fdr.simulate_state(real, cfg, increments=inc, record_times=(0.0, 0.1, 0.2)).states
    want = np.empty_like(got)
    for p in range(cfg.n_paths):
        z = np.zeros(real.n)
        want[p, 0] = z
        for step in range(cfg.n_steps):
            z = fdr.heun_step(real, z, cfg.dt, inc[p, step])
            if step + 1 == 10:
                want[p, 1] = z
        want[p, 2] = z
    np.testing.assert_array_equal(got, want)
    # one state steps as the written-out Heun step with matrix-vector products
    z, dW = want[0, 1], inc[0, 10]
    az, bz = real.drift(z), real.diffusion(z)
    z_pred = z + az * cfg.dt + bz @ dW
    heun = z + 0.5 * cfg.dt * (az + real.drift(z_pred)) + 0.5 * ((bz + real.diffusion(z_pred)) @ dW)
    np.testing.assert_array_equal(fdr.heun_step(real, z, cfg.dt, dW), heun)


def test_simulate_state_reports_the_earliest_failing_step_over_paths():
    real = fdr.build_hw3_fdr(THETA0, Y_NS, YM0)
    cfg = SimConfig(dt=0.01, horizon=0.05, n_paths=3, seed=1, grid=np.linspace(0, 2, 21))
    inc = cfg.brownian_increments(1).copy()
    inc[0, 3, 0] = np.inf  # path 0 fails at step 4
    inc[2, 1, 0] = np.inf  # the last path fails at step 2
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="at step 2$"):
        fdr.simulate_state(real, cfg, increments=inc)


def test_simulate_state_validation():
    real = fdr.build_hw3_fdr(THETA0, Y_NS, YM0)
    cfg = SimConfig(dt=0.01, horizon=0.1, n_paths=1, grid=np.linspace(0, 2, 21))
    with pytest.raises(ValueError):
        fdr.simulate_state(real, cfg, record_times=(0.005,))
    with pytest.raises(ValueError):
        fdr.simulate_state(real, cfg, record_times=(0.05, 0.05))
    with pytest.raises(ValueError):
        fdr.simulate_state(real, cfg, increments=np.zeros((1, 3, 1)))
    paths = fdr.simulate_state(real, cfg)
    with pytest.raises(KeyError):
        paths.at(0.017)


# ---------------------------------------------------------------------------
# benchmark coordinates
# ---------------------------------------------------------------------------


def test_benchmark_round_trip():
    real = fdr.build_hw3_fdr(THETA0, Y_NS, YM0)
    maturities = np.array([0.5, 1.0, 2.0, 3.0, 5.0])
    system = fdr.choose_benchmark_coefficients(real, maturities, n_candidates=64, seed=3)
    assert system.invertible

    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(20):
        z_true = rng.normal(scale=0.15, size=5)
        z_true[0] = abs(z_true[0])
        targets = fdr.benchmark_observables(real, system.weights, system.maturities, z_true)
        z_rec = fdr.state_from_observables(real, system, targets)
        worst = max(worst, float(np.max(np.abs(z_rec - z_true))))
    assert worst < 1e-8


def test_benchmark_singular_chart_detected():
    real = fdr.build_hw3_fdr(THETA0, Y_NS, YM0)
    # Two identical functionals at the same maturity: rank-deficient chart.
    maturities = np.array([1.0, 1.0, 2.0, 3.0, 5.0])
    w = np.zeros((5, 5))
    w[:, 0] = 1.0
    system = fdr.benchmark_coordinates(real, w, maturities)
    assert not system.invertible
    with pytest.raises(NumericalError):
        fdr.state_from_observables(real, system, np.zeros(5))


def test_benchmark_coefficient_search_is_deterministic():
    real = fdr.build_hw3_fdr(THETA0, Y_NS, YM0)
    maturities = np.array([0.25, 0.75, 1.5, 3.0, 6.0])
    s1 = fdr.choose_benchmark_coefficients(real, maturities, n_candidates=16, seed=12)
    s2 = fdr.choose_benchmark_coefficients(real, maturities, n_candidates=16, seed=12)
    np.testing.assert_array_equal(s1.weights, s2.weights)
    assert s1.cond == s2.cond
    # The search must return the condition-number argmin over its draws.
    rng = np.random.default_rng(12)
    conds = []
    for _ in range(16):
        w = rng.uniform(-1.0, 1.0, size=(5, 5))
        conds.append(fdr.benchmark_coordinates(real, w, maturities).cond)
    assert s1.cond == pytest.approx(min(conds), rel=1e-12)
