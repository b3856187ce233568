"""End-to-end acceptance checks, one test per headline guarantee.

Each test pins a quantitative claim the library is built around:
annihilator exactness on the three-curve volatility stack, sup-norm
agreement between the direct HJM simulation and its five-state
realization (with the right convergence rate), martingale z-scores with
a corrupted-drift control, Lie-algebra span dimensions, tangency
verdicts for the modified Nelson-Siegel families, residual affinity and
inner-solve recovery, full outer-calibration recovery on synthetic data,
rolling-window stability against a drifting negative control, benchmark
coordinate charts, and byte-level CLI determinism.

The Monte Carlo and calibration tests take a few minutes combined, which
is why they live here rather than in the per-module unit suites.
"""

from pathlib import Path

import numpy as np
import pytest
from realization_convergence import sup_gap

from mchjm import calibration as cal
from mchjm import cli, dynamics, fdr, qe
from mchjm import geometry as geo
from mchjm.curves import AnalyticCurve, MultiCurveState

NS = (0.025, -0.010, 0.004)
YM0 = (0.0035, 0.0070)

# Well-separated decays for the recovery checks: the reference calibrated
# decays are nearly coincident, which leaves the slope/hump split between
# curves ill-conditioned and is exercised separately by the full outer
# calibration below.
SEP_THETA = cal.Theta(a0=0.35, sigma0=0.15, a1=0.62, sigma1=0.10, a2=0.88,
                      sigma2=0.07, beta1=0.45, beta2=-0.30)


def _ns_state(ns, decays, spreads) -> MultiCurveState:
    curves = tuple(AnalyticCurve(qe.nelson_siegel(ns[0], ns[1], ns[2], a)) for a in decays)
    return MultiCurveState(curves, np.asarray(spreads, dtype=float))


# ---------------------------------------------------------------------------
# A1: annihilator exactness
# ---------------------------------------------------------------------------


def test_a1_annihilator_exactness():
    theta = cal.DEFAULT_THETA0
    xs = np.linspace(0.0, 10.0, 2001)

    funcs = [qe.exponential(s, -a) for s, a in zip(theta.sigma, theta.a)]
    joint = qe.joint_annihilator(funcs)
    assert joint.degree == 3
    worst = max(float(np.max(np.abs(qe.evaluate(joint.apply(f), xs)))) for f in funcs)
    assert worst <= 1e-10

    # Quadratic-variation hump (sigma^2/a^2)(e^{-ax} - e^{-2ax}) at unit
    # mean reversion: killed by the monic quadratic with roots -1, -2.
    hump = qe.exponential(1.0, -1.0) + qe.exponential(-1.0, -2.0)
    ann = qe.annihilator(hump)
    assert ann.degree == 2
    np.testing.assert_allclose(ann.coeffs, (2.0, 3.0, 1.0), rtol=0.0, atol=1e-12)
    assert float(np.max(np.abs(qe.evaluate(ann.apply(hump), xs)))) <= 1e-10


# ---------------------------------------------------------------------------
# A2: realization consistency at desk scale
# ---------------------------------------------------------------------------


def test_a2_realization_tracks_hjm_and_converges():
    coarse = sup_gap(dt=1e-3, dx=0.05)
    fine = sup_gap(dt=5e-4, dx=0.025)
    assert coarse <= 5e-3, f"sup gap {coarse:.3e}"
    # The realization is exact; the gap is pure Euler/grid error and should
    # shrink roughly linearly when both resolutions halve.
    assert 1.5 <= coarse / fine <= 3.0, f"ratio {coarse / fine:.2f}"


# ---------------------------------------------------------------------------
# A3: martingale diagnostics with a corrupted-drift control
# ---------------------------------------------------------------------------


def test_a3_martingale_z_scores_and_drift_control():
    theta = cal.DEFAULT_THETA0
    grid = np.linspace(0.0, 5.5, 221)
    spec = dynamics.hull_white_three_curve_spec(theta.sigma, theta.a, theta.beta)
    initial = _ns_state((0.025, -0.004, 0.001), theta.a, YM0)
    cfg = dynamics.SimConfig(dt=2e-3, horizon=1.0, n_paths=10_000, seed=42, grid=grid)
    record = (0.0, 1.0)

    paths = dynamics.simulate_hjm(initial, spec, cfg, record_times=record)
    for j in range(3):
        stat = dynamics.martingale_check(paths, j, 1.0, 5.0)
        assert abs(stat.z) < 3.0, f"curve {j}: z = {stat.z:+.2f}"

    corrupted = dynamics.simulate_hjm(initial, spec, cfg, record_times=record,
                                      drift_shift=0.01)
    stat0 = dynamics.martingale_check(corrupted, 0, 1.0, 5.0)
    assert abs(stat0.z) > 5.0, f"control z = {stat0.z:+.2f}"


# ---------------------------------------------------------------------------
# A4: Lie-algebra span dimensions
# ---------------------------------------------------------------------------


def test_a4_lie_algebra_dimensions():
    theta = cal.DEFAULT_THETA0
    rng = np.random.default_rng(7)

    spec = dynamics.hull_white_three_curve_spec(theta.sigma, theta.a, theta.beta)
    mu, sigs = geo.model_fields(spec)
    for _ in range(3):
        ns = np.array(NS) + rng.normal(0.0, 2e-3, 3)
        ym = np.array(YM0) + rng.normal(0.0, 1e-3, 2)
        state = _ns_state(ns, theta.a, ym)
        assert geo.span_dimension_estimate([mu, *sigs], state, 3) == 5

    cdv = fdr.cdv_example_spec((0.006, 0.009, 0.011), (0.45, 0.61, 0.58),
                               (0.21, 0.33), (0.55, 0.40))
    mu_c, sigs_c = geo.model_fields(cdv)
    for _ in range(3):
        ns = np.array([0.03, -0.008, 0.002]) + rng.normal(0.0, 2e-3, 3)
        ym = np.array([0.12, -0.09]) + rng.normal(0.0, 1e-2, 2)
        state = _ns_state(ns, (0.45, 0.61, 0.58), ym)
        assert geo.span_dimension_estimate([mu_c, *sigs_c], state, 2) <= 12


# ---------------------------------------------------------------------------
# A5: tangency verdicts for the parameterized families
# ---------------------------------------------------------------------------


def test_a5_consistency_verdicts():
    stack = geo.HullWhiteStackParams(
        sigma=(0.1643, 0.1590, 0.1598), a=(0.3719, 0.6, 0.9), beta=(0.48, -0.26)
    )

    fam1 = geo.build_modified_ns_family(stack, strategy=1)
    z1 = np.concatenate([np.tile((0.02, -0.015, 0.004, 0.002), 3), [0.0035, 0.0070]])
    spec1 = dynamics.single_factor_spec(stack.sigma, stack.a, stack.beta)
    rep1 = geo.tangency_residual(fam1, spec1, z1)
    assert rep1.verdict == "consistent"
    assert rep1.drift_residual < 1e-6
    assert all(r < 1e-6 for r in rep1.diffusion_residuals)

    # Strategy 2 is consistent exactly when the spreads inherit the implied
    # volatility ratios; the built-in control scales them by 1.1.
    rep2 = geo.verify_strategy2_consistency(
        geo.HullWhiteStackParams(stack.sigma, stack.a)
    )
    assert rep2.consistent
    assert rep2.main.drift_residual < 1e-6
    assert all(r < 1e-6 for r in rep2.main.diffusion_residuals)
    assert rep2.control is not None and rep2.control.verdict == "inconsistent"

    single = geo.HullWhiteStackParams(sigma=(0.1643,), a=(0.3719,))
    rep3 = geo.tangency_residual(
        geo.nelson_siegel_family(single.a),
        dynamics.single_factor_spec(single.sigma, single.a, single.beta),
        np.array([0.02, -0.015, 0.004]),
    )
    assert rep3.verdict == "inconsistent"
    assert rep3.drift_residual > 1e-2


# ---------------------------------------------------------------------------
# A6: residual affinity and the inner (variable-projection) solve
# ---------------------------------------------------------------------------


def test_a6_residual_affinity_and_inner_recovery():
    snaps, states = cal.synthesize_market_data(SEP_THETA, (0.035, -0.012, 0.0045),
                                               days=8, seed=7, return_states=True)
    base = snaps[0].log_spreads
    snap = snaps[3]

    rng = np.random.default_rng(3)
    for _ in range(100):
        u = rng.normal(size=7)
        v = rng.normal(size=7)
        alpha = rng.uniform(-2.0, 2.0)
        w = alpha * u + (1.0 - alpha) * v
        ru = cal.residual(snap, SEP_THETA, u[:4], u[4:], base_spreads=base)
        rv = cal.residual(snap, SEP_THETA, v[:4], v[4:], base_spreads=base)
        rw = cal.residual(snap, SEP_THETA, w[:4], w[4:], base_spreads=base)
        gap = np.max(np.abs(rw - (alpha * ru + (1.0 - alpha) * rv)))
        assert gap <= 1e-10

    for d in (1, 4, 7):
        sol = cal.inner_solve(snaps[d], SEP_THETA, base_spreads=base)
        assert not sol.rank_deficient
        assert np.max(np.abs(sol.z1 - states[d, 1:])) <= 1e-8
        assert np.max(np.abs(sol.y - np.array([0.035, -0.012, 0.0045]))) <= 1e-8


# ---------------------------------------------------------------------------
# A7: outer calibration recovery on synthetic data
# ---------------------------------------------------------------------------


def test_a7_calibration_recovery():
    ns = (0.035, -0.012, 0.0045)

    clean = cal.synthesize_market_data(cal.REFERENCE_THETA, ns, days=80, seed=1)
    result = cal.outer_calibrate(clean, cal.DEFAULT_THETA0)
    assert result.total_sse < 1e-12, f"SSE {result.total_sse:.3e}"
    metrics = cal.error_metrics(result, clean)
    assert float(np.max(metrics.yield_errors)) < 1e-6
    assert float(np.max(metrics.spread_errors)) < 1e-6

    noisy = cal.synthesize_market_data(cal.REFERENCE_THETA, ns, days=80,
                                       noise_sd=1e-3, seed=1)
    noisy_result = cal.outer_calibrate(noisy, cal.DEFAULT_THETA0)
    noisy_metrics = cal.error_metrics(noisy_result, noisy)
    assert np.all(noisy_metrics.yield_errors >= 1e-4)
    assert np.all(noisy_metrics.yield_errors <= 5e-2)


# ---------------------------------------------------------------------------
# A8: rolling-window stability with a drifting negative control
# ---------------------------------------------------------------------------


def test_a8_rolling_window_stability():
    ns = (0.035, -0.012, 0.0045)
    rolls, window_months = 50, 4
    days = 21 * window_months + rolls

    stationary = cal.synthesize_market_data(cal.REFERENCE_THETA, ns, days=days, seed=3)
    rep = cal.stability_analysis(stationary, cal.REFERENCE_THETA,
                                 window_months=window_months, rolls=rolls)
    assert rep.n_used == rolls
    assert np.all(rep.std < 1e-6 * (1.0 + np.abs(rep.mean)))

    drift_to = cal.Theta.from_array(
        cal.REFERENCE_THETA.as_array()
        + np.array([0.05, 0.02, 0.05, 0.02, 0.05, 0.02, 0.0, 0.0])
    )
    moving = cal.synthesize_market_data(cal.REFERENCE_THETA, ns, days=days, seed=3,
                                        theta_drift=drift_to)
    rep_moving = cal.stability_analysis(moving, cal.REFERENCE_THETA,
                                        window_months=window_months, rolls=rolls)
    assert rep_moving.n_used == rolls
    assert np.all(rep_moving.std >= 100.0 * rep.std)
    assert np.all(rep_moving.std > 1e-5)


# ---------------------------------------------------------------------------
# A9: benchmark coordinates form an invertible chart
# ---------------------------------------------------------------------------


def test_a9_benchmark_coordinate_chart():
    real = fdr.build_hw3_fdr(cal.DEFAULT_THETA0, NS, np.array(YM0))
    maturities = np.array([0.5, 1.0, 2.0, 5.0, 10.0])
    system = fdr.choose_benchmark_coefficients(real, maturities, n_candidates=64, seed=3)
    assert system.invertible

    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(20):
        z_true = rng.normal(scale=0.15, size=5)
        z_true[0] = abs(z_true[0])  # the first coordinate is elapsed time
        targets = fdr.benchmark_observables(real, system.weights, system.maturities, z_true)
        z_rec = fdr.state_from_observables(real, system, targets)
        worst = max(worst, float(np.max(np.abs(z_rec - z_true))))
    assert worst <= 1e-8, f"round-trip error {worst:.3e}"


# ---------------------------------------------------------------------------
# A10: CLI byte-level determinism
# ---------------------------------------------------------------------------


def _run_cli(args, out: Path) -> dict[str, bytes]:
    out.mkdir(parents=True, exist_ok=True)
    rc = cli.main([*args, "--out", str(out)])
    assert rc == 0, f"exit code {rc} for {args}"
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


def test_a10_cli_byte_determinism(tmp_path):
    dataset = tmp_path / "dataset.csv"
    rc = cli.main(["synth", "--seed", "11", "--days", "26",
                   "--dataset", str(dataset), "--out", str(tmp_path / "seed")])
    assert rc == 0

    theta0 = "0.35,0.15,0.62,0.1,0.88,0.07,0.45,-0.3"
    commands = {
        "synth": ["synth", "--seed", "11", "--days", "8",
                  "--set", "noise_sd=0.0005"],
        "calibrate": ["calibrate", "--dataset", str(dataset), "--seed", "1",
                      "--set", f"theta0={theta0}", "--max-iterations", "60"],
        "check": ["check", "--family", "ns-strategy2", "--seed", "9"],
        "stability": ["stability", "--dataset", str(dataset), "--seed", "2",
                      "--window-months", "1", "--rolls", "2",
                      "--set", f"theta0={theta0}"],
        "sweep": ["sweep", "--dataset", str(dataset), "--seed", "4",
                  "--lengths", "1", "--set", f"theta0={theta0}"],
        "simulate": ["simulate", "--seed", "7", "--paths", "120", "--dt", "0.01",
                     "--set", "horizon=0.5"],
    }
    for name, args in commands.items():
        first = _run_cli(args, tmp_path / f"{name}_a")
        second = _run_cli(args, tmp_path / f"{name}_b")
        assert first.keys() == second.keys(), name
        for fname in first:
            assert first[fname] == second[fname], f"{name}/{fname} differs between runs"
