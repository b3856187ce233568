"""Correctness checks of the benchmark's workloads.

Each check compares a program output with a quantity computed apart from
the code path that produced it, or with a property the method must have,
and returns a list of problems; an empty list means the output passed.
None of them compares with a stored copy of an earlier output.
"""

from __future__ import annotations

import math

import numpy as np

# Monte Carlo: a martingale's sample mean lies within 3 standard errors of
# its time-0 value.
MARTINGALE_Z_BOUND = 3.0

# Euler (upwind, dx = 0.025) against the exact five-state realization after
# 50 steps of dt = 2e-3: the measured sup gap is 0.9e-4 to 1.2e-4, pure scheme
# error; shuffled (decoupled) increments give 0.16.
REALIZATION_GAP_BOUND = 5e-4

# Fitted yields and log-spreads recomputed through the realization embedding.
# The near-coincident decays make the per-day factor states large, so the two
# paths differ by cancellation: up to 9e-10 on the calibrate panels, 6.6e-8
# on a 126-day panel.  1e-6 is 1 % of the yield noise.
FIT_TABLE_TOLERANCE = 1e-6

# Rolling estimates of (a, sigma) must stay this close to the generator's;
# the stability workload's rolls move them by at most 0.002.
ROLL_A_BAND = 0.02
ROLL_SIGMA_BAND = 0.01


# Fitted parameters of a calibration: the linear states (z1, y) of every day
# and the outer theta.
LINEAR_STATES_PER_DAY = 7
OUTER_PARAMETERS = 8


def sse_floor_fraction(days: int, noisy_rows_per_day: int) -> float:
    """Smallest plausible SSE / sum(eps^2) for a least-squares fit.

    Each fitted parameter can remove at most one noise dimension in
    expectation, so the expected ratio is at least 1 - p / N with p the
    fitted parameters and N the noisy rows; four chi-square standard
    deviations (sqrt(2 / N)) leave room for the draw.
    """
    n_noisy = noisy_rows_per_day * days
    p = LINEAR_STATES_PER_DAY * days + OUTER_PARAMETERS
    return 1.0 - p / n_noisy - 4.0 * math.sqrt(2.0 / n_noisy)


def check_sse(sse: float, noise_sse: float, floor_fraction: float, what: str) -> list[str]:
    """The fit's SSE is at most the added noise, which the generator's own
    states attain, and not implausibly far below it."""
    if not math.isfinite(sse):
        return [f"{what}: SSE is {sse}"]
    problems = []
    if sse > noise_sse:
        problems.append(f"{what}: SSE {sse:.6e} exceeds the added noise {noise_sse:.6e}")
    if sse < floor_fraction * noise_sse:
        problems.append(f"{what}: SSE {sse:.6e} is below {floor_fraction:.3f} x the added "
                        f"noise {noise_sse:.6e}")
    return problems


def realization_observables(fdr, qe, theta, t: float, q, y, base_spreads, maturities):
    """Model yields (3, n) and log-spreads (2,) at one day, computed from
    the five-state realization embedding ``G(t, q)`` with the curve level
    ``y``, integrated over maturity with the quasi-exponential calculus."""
    real = fdr.build_hw3_fdr(theta, y, base_spreads)
    z = np.concatenate([[t], q])
    x = np.asarray(maturities, dtype=float)
    yields = np.stack([qe.evaluate(qe.integrate_from_zero(f), x) / x
                       for f in real.embed_curves(z)])
    return yields, real.embed_spreads(z)


def check_fit_tables(fdr, qe, theta, day_states: dict, last_date: int, base_spreads,
                     yields_fit, spreads_fit, days_per_year: float, what: str) -> list[str]:
    """``yields_fit`` rows are (curve, maturity, fitted yield) for the last
    day; ``spreads_fit`` rows (date, tenor, fitted log-spread) for every day;
    ``day_states`` maps a date to its fitted (q, y)."""
    problems = []
    q, y = day_states[last_date]
    maturities = sorted({row[1] for row in yields_fit})
    yields, _ = realization_observables(fdr, qe, theta, last_date / days_per_year, q, y,
                                        base_spreads, maturities)
    col = {x: k for k, x in enumerate(maturities)}
    worst = max(abs(fitted - yields[int(curve), col[x]]) for curve, x, fitted in yields_fit)
    if not worst <= FIT_TABLE_TOLERANCE:
        problems.append(f"{what}: yields_fit differs from the realization path by {worst:.3e}")
    worst = 0.0
    for date, tenor, fitted in spreads_fit:
        q, y = day_states[int(date)]
        _, spreads = realization_observables(fdr, qe, theta, int(date) / days_per_year, q, y,
                                             base_spreads, maturities[:1])
        worst = max(worst, abs(fitted - spreads[int(tenor) - 1]))
    if not worst <= FIT_TABLE_TOLERANCE:
        problems.append(f"{what}: spreads_fit differs from the realization path by {worst:.3e}")
    return problems


def check_rolls(rolls, window_noise_sse, theta_true) -> list[str]:
    """``rolls`` holds one (converged, sse, theta array) per roll;
    ``window_noise_sse`` the added noise over each roll's window."""
    problems = []
    a_true = np.array(theta_true.a)
    s_true = np.array(theta_true.sigma)
    for k, ((converged, sse, theta), noise) in enumerate(zip(rolls, window_noise_sse)):
        if not converged:
            problems.append(f"roll {k}: did not converge")
        if not sse <= noise:
            problems.append(f"roll {k}: SSE {sse:.6e} exceeds the window's added noise "
                            f"{noise:.6e}")
        a, s = np.asarray(theta)[0:6:2], np.asarray(theta)[1:6:2]
        if np.max(np.abs(a - a_true)) > ROLL_A_BAND:
            problems.append(f"roll {k}: a = {np.round(a, 4)} left the band +-{ROLL_A_BAND} "
                            f"around {a_true}")
        if np.max(np.abs(s - s_true)) > ROLL_SIGMA_BAND:
            problems.append(f"roll {k}: sigma = {np.round(s, 4)} left the band "
                            f"+-{ROLL_SIGMA_BAND} around {s_true}")
    return problems


def check_martingale(zs) -> list[str]:
    return [f"curve {j}: martingale z = {z:+.3f}" for j, z in enumerate(zs)
            if not abs(z) < MARTINGALE_Z_BOUND]


def realization_gap(curves, states, real, grid) -> float:
    """Sup over paths and grid of |Euler curve - embedded realization state|
    for curves (paths, 3, nodes) and states (paths, 5) at one time."""
    return max(float(np.max(np.abs(curves[p] - real.curve_values(states[p], grid))))
               for p in range(states.shape[0]))


def check_realization_gap(gap: float) -> list[str]:
    if not gap <= REALIZATION_GAP_BOUND:
        return [f"Euler-realization sup gap {gap:.3e} exceeds {REALIZATION_GAP_BOUND:.1e}"]
    return []


def check_report(family: str, rows, n_states: int = 1) -> list[str]:
    """Verdicts in ``check_report.csv`` rows (kind, name, value, verdict)
    against the theory's known answers."""

    def need(cond, msg):
        return [] if cond else [f"{family}: {msg}"]

    problems = []
    if family == "hw3-constant-vol":
        dims = [float(r[2]) for r in rows if r[0] == "span_dimension"]
        comm = [r[3] for r in rows if r[0] == "commutation"]
        problems += need(len(dims) == n_states and all(d == 5 for d in dims),
                         f"span dimensions {dims}, expected 5 at {n_states} states")
        problems += need(len(comm) == 2 * n_states and all(c == "commutes" for c in comm),
                         f"log-spread directions {comm}, expected all to commute")
    elif family == "cdv-example":
        dims = [float(r[2]) for r in rows if r[0] == "span_dimension"]
        problems += need(len(dims) == n_states and all(d <= 12 for d in dims),
                         f"span dimensions {dims}, expected <= 12 at {n_states} states")
    else:
        expected = {
            "ns-plain": {"plain": "inconsistent"},
            "ns-strategy1": {"strategy1": "consistent"},
            "ns-strategy2": {"strategy2": "consistent", "strategy2_control": "inconsistent"},
        }[family]
        got = {r[1]: r[3] for r in rows if r[0] == "tangency"}
        problems += need(got == expected, f"verdicts {got}, expected {expected}")
    return problems
