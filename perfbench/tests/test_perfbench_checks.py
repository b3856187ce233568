"""Each benchmark check passes on sound output and fails when it should.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def panel(mj):
    """A 12-day noisy history and the sum of its added squared noise."""
    snaps, noise = workloads.noisy_history(mj, 12, seed=5)
    return snaps, float(noise.sum())


def window_sse(mj, snaps, theta):
    base = snaps[0].log_spreads
    return sum(mj.cal.inner_solve(s, theta, base_spreads=base).residual_norm ** 2
               for s in snaps)


def test_sse_bound_holds_at_generator_and_breaks_for_nudged_theta(mj, panel):
    snaps, noise = panel
    floor = checks.sse_floor_fraction(len(snaps), 3 * snaps[0].n)
    truth = mj.cal.REFERENCE_THETA
    assert checks.check_sse(window_sse(mj, snaps, truth), noise, floor, "generator") == []

    vec = truth.as_array()
    vec[0] += 0.05   # a0; the per-day states absorb small moves, and beta is not identified
    nudged = mj.cal.Theta.from_array(vec)
    problems = checks.check_sse(window_sse(mj, snaps, nudged), noise, floor, "nudged")
    assert problems and "exceeds the added noise" in problems[0]


def test_sse_floor_rejects_a_fit_below_the_noise_it_could_absorb():
    floor = checks.sse_floor_fraction(63, 51)
    assert 0.7 < floor < 0.9
    assert checks.check_sse(0.91, 1.0, floor, "fit") == []
    assert checks.check_sse(0.5, 1.0, floor, "fit")
    assert checks.check_sse(float("nan"), 1.0, floor, "fit")


def fit_tables(mj, snaps, theta):
    """Program-side fitted tables at theta from the public residual: the
    yield rows are market - model, the spread rows model + base - market."""
    base = snaps[0].log_spreads
    n = snaps[0].n
    states, spreads_fit = {}, []
    for s in snaps:
        sol = mj.cal.inner_solve(s, theta, base_spreads=base)
        states[s.date] = (sol.z1, sol.y)
        res = mj.cal.residual(s, theta, sol.z1, sol.y, base_spreads=base)
        spreads_fit += [(s.date, k + 1, s.log_spreads[k] + res[3 * n + k]) for k in range(2)]
    last = snaps[-1]
    res = mj.cal.residual(last, theta, *states[last.date], base_spreads=base)
    model = last.yields() - res[:3 * n].reshape(3, n)
    yields_fit = [(j, x, model[j, k]) for j in range(3) for k, x in enumerate(last.maturities)]
    return states, yields_fit, spreads_fit


def test_fit_tables_match_the_realization_path_and_reject_a_moved_yield(mj, panel):
    snaps, _ = panel
    theta = mj.cal.REFERENCE_THETA
    states, yields_fit, spreads_fit = fit_tables(mj, snaps, theta)

    def run_check(yf, sf):
        return checks.check_fit_tables(mj.fdr, mj.qe, theta, states, snaps[-1].date,
                                       snaps[0].log_spreads, yf, sf,
                                       mj.cal.DAYS_PER_YEAR, "fit")

    assert run_check(yields_fit, spreads_fit) == []
    moved = list(yields_fit)
    moved[5] = (*moved[5][:2], moved[5][2] + 1e-5)
    assert run_check(moved, spreads_fit)
    moved = list(spreads_fit)
    moved[-1] = (*moved[-1][:2], moved[-1][2] - 1e-5)
    assert run_check(yields_fit, moved)


def test_roll_check_rejects_each_kind_of_bad_roll(mj):
    truth = mj.cal.REFERENCE_THETA
    good = (True, 0.9, truth.as_array())
    assert checks.check_rolls([good, good], [1.0, 1.0], truth) == []
    off_a = truth.as_array()
    off_a[2] += 0.05
    off_sigma = truth.as_array()
    off_sigma[5] -= 0.02
    for bad in [(False, 0.9, truth.as_array()), (True, 1.1, truth.as_array()),
                (True, 0.9, off_a), (True, 0.9, off_sigma)]:
        assert checks.check_rolls([good, bad], [1.0, 1.0], truth), bad


@pytest.fixture(scope="module")
def small_simulation(mj):
    """The simulate workload's set-up at 2 000 Euler and 200 Heun paths."""
    saved = workloads.SIM_PATHS, workloads.SIM_HEUN_PATHS
    workloads.SIM_PATHS, workloads.SIM_HEUN_PATHS = 2_000, 200
    try:
        return workloads.setup_simulate(type("Env", (), {"mj": mj, "seed": 3})())
    finally:
        workloads.SIM_PATHS, workloads.SIM_HEUN_PATHS = saved


def test_simulation_checks_pass_on_the_coupled_run(mj, small_simulation):
    assert workloads.check_simulation(small_simulation,
                                      *workloads.simulate_once(mj, small_simulation)) == []


def test_drift_shift_pushes_the_martingale_z_over_its_bound(mj, small_simulation):
    _, stats, _ = workloads.simulate_once(mj, small_simulation, drift_shift=0.01)
    assert checks.check_martingale([s.z for s in stats])


def test_shuffled_increments_break_the_realization_gap_bound(mj, small_simulation):
    inp = small_simulation
    paths, _, _ = workloads.simulate_once(mj, inp)
    shuffled = np.random.default_rng(0).permutation(inp.increments[:inp.heun_cfg.n_paths])
    states = mj.fdr.simulate_state(inp.real, inp.heun_cfg, increments=shuffled,
                                   record_times=(workloads.SIM_HORIZON,))
    curves, _, _ = paths.at(workloads.SIM_HORIZON)
    gap = checks.realization_gap(curves[:inp.heun_cfg.n_paths],
                                 states.at(workloads.SIM_HORIZON), inp.real, inp.grid)
    assert checks.check_realization_gap(gap)


@pytest.mark.parametrize("family, rows", [
    ("ns-plain", [("tangency", "plain", "0.1", "consistent")]),
    ("ns-strategy1", [("tangency", "strategy1", "0.1", "inconsistent")]),
    ("ns-strategy2", [("tangency", "strategy2", "1e-9", "consistent"),
                      ("tangency", "strategy2_control", "1e-9", "consistent")]),
    ("ns-strategy2", [("tangency", "strategy2", "1e-9", "consistent")]),
    ("hw3-constant-vol", [("span_dimension", "state_0", "4.0", ""),
                          ("commutation", "state_0_tenor_1", "0.0", "commutes"),
                          ("commutation", "state_0_tenor_2", "0.0", "commutes")]),
    ("hw3-constant-vol", [("span_dimension", "state_0", "5.0", ""),
                          ("commutation", "state_0_tenor_1", "0.0", "commutes"),
                          ("commutation", "state_0_tenor_2", "0.1", "coupled")]),
    ("cdv-example", [("span_dimension", "state_0", "13.0", "")]),
    ("cdv-example", []),
])
def test_check_report_rejects_wrong_verdicts(family, rows):
    assert checks.check_report(family, rows)


@pytest.mark.parametrize("family, rows", [
    ("ns-plain", [("tangency", "plain", "0.1", "inconsistent")]),
    ("ns-strategy1", [("tangency", "strategy1", "1e-9", "consistent")]),
    ("ns-strategy2", [("tangency", "strategy2", "1e-9", "consistent"),
                      ("tangency", "strategy2_control", "0.1", "inconsistent")]),
    ("hw3-constant-vol", [("span_dimension", "state_0", "5.0", ""),
                          ("commutation", "state_0_tenor_1", "0.0", "commutes"),
                          ("commutation", "state_0_tenor_2", "0.0", "commutes")]),
    ("cdv-example", [("span_dimension", "state_0", "12.0", "")]),
])
def test_check_report_accepts_the_theory_answers(family, rows):
    assert checks.check_report(family, rows) == []


def test_layer_metrics_use_self_time_for_nested_brackets_and_count_fd_calls():
    spans = [
        ["op", -1, 0.0, 40.0, None],
        ["geometry.lie_bracket_numeric", 0, 0.0, 10.0, None],
        ["geometry.lie_bracket_numeric", 1, 2.0, 5.0, None],
        ["calibration.least_squares", 0, 20.0, 30.0, {"jac": "2-point", "nfev": 1}],
        ["calibration.objective", 3, 21.0, 22.0, {"rows": 106}],
        ["calibration.objective", 3, 23.0, 24.0, {"rows": 106}],
        ["calibration.objective", 3, 25.0, 26.0, {"rows": 106}],
    ]
    m = tracing.layer_metrics(spans, rows_per_day=53)
    assert m["geometry.lie_bracket_numeric.calls"][0] == 2
    assert m["geometry.lie_bracket_numeric.self_s"][0] == pytest.approx(10.0)
    assert m["calibration.objective.evals"][0] == 3
    assert m["calibration.objective.day_evals"][0] == 6
    assert m["calibration.fd_evals"][0] == 2
    assert m["calibration.step_eval_share"][0] == pytest.approx(1 / 3)
    assert m["calibration.continuation.evals"][0] == 3
    assert m["calibration.polish.evals"][0] == 0
    assert m["calibration.solver_overhead.s"][0] == pytest.approx(7.0)


def test_layer_metrics_count_only_calls_under_an_operation():
    spans = [
        ["setup", -1, 0.0, 10.0, None],
        ["calibration.synthesize", 0, 1.0, 3.0, None],
        ["cli.read_dataset", 0, 4.0, 5.0, None],
        ["op", -1, 10.0, 20.0, None],
        ["cli.read_dataset", 3, 11.0, 11.5, None],
        ["qe.evaluate", 3, 12.0, 13.0, None],
        # the benchmark's own checks, between operations
        ["qe.evaluate", -1, 30.0, 31.0, None],
        ["qe.integrate_from_zero", -1, 31.0, 32.0, None],
    ]
    m = tracing.layer_metrics(spans, rows_per_day=53)
    assert m["calibration.synthesize.s"][0] == pytest.approx(2.0)
    assert m["cli.read_dataset.s"][0] == pytest.approx(0.5)
    assert m["qe.evaluate.calls"][0] == 1
    assert m["qe.integrate_from_zero.calls"][0] == 0
    assert m["qe.self_s"][0] == pytest.approx(1.0)


def test_benchmark_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "check",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
