"""End-to-end calibration demo on synthetic three-curve data.

Generates an 80-day dataset from the calibrated-parameter table, re-fits it
cold from the initial-guess table, and prints the recovered parameters next
to the generator's, the outer-Jacobian and largest per-day design condition
numbers, and the end-of-window curve errors.
"""

import numpy as np

from mchjm import calibration as cal

DAYS = 80
SEED = 1
NS = np.array([0.035, -0.012, 0.0045])


def main() -> None:
    data = cal.synthesize_market_data(cal.REFERENCE_THETA, NS, DAYS, seed=SEED)
    result = cal.outer_calibrate(data, cal.DEFAULT_THETA0)
    metrics = cal.error_metrics(result, data)

    print(f"calibrated {DAYS} days, SSE = {result.total_sse:.3e}, "
          f"nfev = {result.diagnostics.nfev}")
    print(f"{'parameter':>10} {'generator':>12} {'fitted':>12}")
    for name, true_v, fit_v in zip(cal.PARAM_NAMES,
                                   cal.REFERENCE_THETA.as_array(),
                                   result.theta_star.as_array()):
        print(f"{name:>10} {true_v:12.6f} {fit_v:12.6f}")
    diag = result.diagnostics
    day_cond = max(f.condition for f in result.per_day)
    print(f"outer Jacobian condition {diag.jacobian_condition:.3g}, "
          f"largest per-day design condition {day_cond:.3g}, "
          f"converged {diag.converged}")
    print("note: on this noiseless panel the fit stops short of the generator")
    print("(SSE there is about 1e-28) although the outer Jacobian is well")
    print("conditioned; the per-day designs are nearly rank-deficient, so the")
    print("finite-difference Jacobian through the inner solve is noisy; see")
    print("ROADMAP open item 2.")

    print("\nend-of-window relative yield errors:",
          np.array2string(metrics.yield_errors, precision=3))
    print("whole-window relative spread errors:",
          np.array2string(metrics.spread_errors, precision=3))


if __name__ == "__main__":
    main()
