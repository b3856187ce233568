"""Finite-dimensional realization vs direct HJM simulation.

Couples an Euler HJM path ensemble to the five-state realization through
shared Brownian increments and reports the sup-norm gap on the maturity
grid at a ladder of (dt, dx) resolutions.  The gap is pure scheme error —
the realization is exact — so it should shrink roughly linearly.
"""

import numpy as np

from mchjm import calibration as cal
from mchjm import dynamics, fdr, qe
from mchjm.curves import AnalyticCurve, MultiCurveState

NS = (0.025, -0.010, 0.004)
YM0 = (0.0035, 0.0070)
N_PATHS = 16
HORIZON = 1.0
SEED = 20


def sup_gap(dt: float, dx: float) -> float:
    """Sup over paths, record times and grid of |embedded state - HJM curve|."""
    theta = cal.DEFAULT_THETA0
    grid = np.linspace(0.0, 10.0, int(round(10.0 / dx)) + 1)
    spec = dynamics.hull_white_three_curve_spec(theta.sigma, theta.a, theta.beta)
    curves = tuple(AnalyticCurve(qe.nelson_siegel(*NS, decay=a)) for a in theta.a)
    initial = MultiCurveState(curves, np.array(YM0))
    cfg = dynamics.SimConfig(dt=dt, horizon=HORIZON, n_paths=N_PATHS,
                             seed=SEED, grid=grid)
    rng = np.random.default_rng(SEED)
    increments = rng.normal(0.0, np.sqrt(dt), size=(N_PATHS, cfg.n_steps, 1))
    record = tuple(np.round(np.linspace(0.0, HORIZON, 11), 12))

    paths = dynamics.simulate_hjm(initial, spec, cfg, increments=increments,
                                  record_times=record)
    real = fdr.build_hw3_fdr(theta, NS, np.array(YM0))
    states = fdr.simulate_state(real, cfg, increments=increments,
                                record_times=record)

    worst = 0.0
    for k, t in enumerate(record):
        curves_t, _, _ = paths.at(t)
        for p in range(N_PATHS):
            exact = real.curve_values(states.states[p, k], grid)
            worst = max(worst, float(np.max(np.abs(curves_t[p] - exact))))
    return worst


def main() -> None:
    print(f"{'dt':>8} {'dx':>8} {'sup gap':>12} {'ratio':>7}")
    prev = None
    for dt, dx in ((2e-3, 0.1), (1e-3, 0.05), (5e-4, 0.025)):
        gap = sup_gap(dt, dx)
        ratio = "" if prev is None else f"{prev / gap:7.2f}"
        print(f"{dt:8.0e} {dx:8.3f} {gap:12.3e} {ratio:>7}")
        prev = gap


if __name__ == "__main__":
    main()
