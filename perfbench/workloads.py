"""The four workloads: inputs, timed operations and correctness checks.

Every workload is a ``setup(env)`` that builds its inputs and a
``run_round(env, inputs)`` that runs one round of operations, one at a time,
and checks each output after the operation's timer has stopped.  A run
repeats whole rounds, so the operations attempted are the same in every
round.  Every timed operation runs through ``env.op``, which the traced run
replaces by a tracer's ``op`` span.  ``calibrate`` and ``check`` run the
``mchjm`` CLI in-process through ``cli.main``; ``simulate`` calls the library.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks

NS = (0.035, -0.012, 0.0045)   # Nelson-Siegel level of the synthetic histories
NOISE_SD = 1e-4                # Gaussian noise the benchmark adds to every yield

# The calibration histories do not depend on --seed: a cold fit's objective-call
# count moves by up to 3.6x between noise draws of the same history length
# (README, "Why calibrate and stability ignore the seed").  They take the
# history seeds 1, 2 and 3 in turn, none chosen for its run time.
CALIBRATE_PANELS = ((1, 63), (2, 84))   # (history seed, days)
STABILITY_HISTORY_SEED = 3
STABILITY_WINDOW_MONTHS = 4
STABILITY_ROLLS = 10

SIM_PATHS = 10_000
SIM_HEUN_PATHS = 2_000
SIM_DT = 2e-3
SIM_HORIZON = 0.1
SIM_GRID = (0.0, 5.5, 221)
SIM_BOND_MATURITY = 5.0
# Brownian increments come from one fixed draw; see README.
SIM_INCREMENT_SEED = 42

CHECK_HW3_STATES = 6
CHECK_CDV_STATES = 3
CHECK_NS_POINTS = 40


@dataclass
class Round:
    """One round's timed seconds, operation times, counts and problems."""

    wall: float = 0.0
    op_times: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def timed(fn, *args, **kwargs):
    """(seconds, result, exception) of one operation."""
    start = time.perf_counter()
    try:
        result, error = fn(*args, **kwargs), None
    except Exception as exc:  # a program exception is a failed operation
        result, error = None, exc
    seconds = time.perf_counter() - start
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)
    return seconds, result, error


def run_cli(mj, argv) -> tuple[int, str]:
    """``mchjm <argv>`` in-process; returns the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mj.cli.main([str(a) for a in argv])
    if code != 0:
        print(f"mchjm {' '.join(map(str, argv))}: exit {code}: {err.getvalue().strip()}",
              file=sys.stderr)
    return code, out.getvalue()


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))[1:]


def noisy_history(mj, days: int, seed: int):
    """A noiseless ``synthesize_market_data`` history with the benchmark's
    own Gaussian noise added to the yields only.  Returns the snapshots and
    each day's sum of squared noise."""
    cal = mj.cal
    clean = cal.synthesize_market_data(cal.REFERENCE_THETA, NS, days, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    snapshots, noise = [], []
    for snap in clean:
        eps = rng.normal(0.0, NOISE_SD, size=snap.bonds.shape)
        yields = snap.yields() + eps
        snapshots.append(cal.MarketSnapshot(
            date=snap.date, maturities=snap.maturities,
            bonds=np.exp(-snap.maturities * yields), log_spreads=snap.log_spreads))
        noise.append(float(np.sum(eps ** 2)))
    return snapshots, np.array(noise)


def write_and_read(mj, path: Path, snapshots):
    """Write a dataset file and read it back through the CLI's reader."""
    mj.cli.write_dataset(path, snapshots)
    back = mj.cli.read_dataset(path)
    if len(back) != len(snapshots) or any(
            not np.array_equal(a.bonds, b.bonds) for a, b in zip(back, snapshots)):
        raise RuntimeError(f"{path}: dataset did not survive the write/read round trip")
    return back


# ---------------------------------------------------------------------------
# calibrate: cold `mchjm calibrate` on two histories of different lengths
# ---------------------------------------------------------------------------


def setup_calibrate(env):
    panels = []
    for history_seed, days in CALIBRATE_PANELS:
        history, noise = noisy_history(env.mj, days, history_seed)
        path = env.workdir / f"calibrate_{days}d.csv"
        snaps = write_and_read(env.mj, path, history)
        panels.append(SimpleNamespace(days=days, path=path, snapshots=snaps,
                                      noise_sse=float(noise.sum())))
    return panels


def run_calibrate(env, panels) -> Round:
    mj, rnd = env.mj, Round()
    for panel in panels:
        out = env.workdir / f"calibrate_{panel.days}d"
        seconds, result, error = timed(env.op, run_cli, mj, [
            "calibrate", "--dataset", panel.path, "--out", out])
        rnd.wall += seconds
        rnd.op_times.append(seconds)
        rnd.attempted += 1
        if error is not None or result[0] != 0 or "converged True" not in result[1]:
            rnd.failed += 1
            continue
        rnd.problems += check_calibrate_outputs(mj, panel, out)
    return rnd


def check_calibrate_outputs(mj, panel, out: Path) -> list[str]:
    cal, what = mj.cal, f"calibrate {panel.days}d"
    theta = cal.Theta.from_array([float(r[2]) for r in read_rows(out / "theta_table.csv")])
    states = {int(r[0]): (np.array(r[1:5], float), np.array(r[5:8], float))
              for r in read_rows(out / "per_day_states.csv")}
    sse = sum(float(r[8]) ** 2 for r in read_rows(out / "per_day_states.csv"))
    rows_per_day = 3 * panel.snapshots[0].n
    problems = checks.check_sse(sse, panel.noise_sse,
                                checks.sse_floor_fraction(panel.days, rows_per_day), what)
    yields_fit = [(int(r[0]), float(r[1]), float(r[3]))
                  for r in read_rows(out / "yields_fit.csv")]
    spreads_fit = [(int(r[0]), int(r[1]), float(r[3]))
                   for r in read_rows(out / "spreads_fit.csv")]
    problems += checks.check_fit_tables(
        mj.fdr, mj.qe, theta, states, panel.snapshots[-1].date,
        panel.snapshots[0].log_spreads, yields_fit, spreads_fit, cal.DAYS_PER_YEAR, what)
    return problems


# ---------------------------------------------------------------------------
# stability: warm rolling windows through `mchjm stability`
# ---------------------------------------------------------------------------


def setup_stability(env):
    wlen = env.mj.cal.TRADING_DAYS_PER_MONTH * STABILITY_WINDOW_MONTHS
    history, noise = noisy_history(env.mj, wlen + STABILITY_ROLLS, STABILITY_HISTORY_SEED)
    path = env.workdir / "stability.csv"
    write_and_read(env.mj, path, history)
    window_noise = [float(noise[k:k + wlen].sum()) for k in range(STABILITY_ROLLS)]
    return SimpleNamespace(path=path, window_noise=window_noise)


def run_stability(env, inputs) -> Round:
    mj, rnd = env.mj, Round()
    cal = mj.cal
    rolls = []
    outer = cal.outer_calibrate

    def captured(*args, **kwargs):
        # stability_analysis looks outer_calibrate up at call time; record
        # each roll's time and result at that boundary
        seconds, result, error = timed(outer, *args, **kwargs)
        rolls.append((seconds, result, error))
        if error is not None:
            raise error
        return result

    theta0 = ",".join(repr(float(v)) for v in cal.REFERENCE_THETA.as_array())
    cal.outer_calibrate = captured
    try:
        seconds, result, error = timed(env.op, run_cli, mj, [
            "stability", "--dataset", inputs.path, "--out", env.workdir / "stability",
            "--window-months", STABILITY_WINDOW_MONTHS, "--rolls", STABILITY_ROLLS,
            "--set", f"theta0={theta0}"])
    finally:
        cal.outer_calibrate = outer
    rnd.wall = seconds
    rnd.op_times = [s for s, _, _ in rolls[1:]]
    rnd.attempted = STABILITY_ROLLS
    if error is not None or result[0] != 0 or len(rolls) != STABILITY_ROLLS:
        rnd.failed = STABILITY_ROLLS
        return rnd
    done = [k for k, (_, r, e) in enumerate(rolls) if e is None and r.diagnostics.converged]
    rnd.failed = STABILITY_ROLLS - len(done)
    rnd.problems += checks.check_rolls(
        [(rolls[k][1].diagnostics.converged, rolls[k][1].total_sse,
          rolls[k][1].theta_star.as_array()) for k in done],
        [inputs.window_noise[k] for k in done], cal.REFERENCE_THETA)
    return rnd


# ---------------------------------------------------------------------------
# simulate: Euler HJM paths, martingale check, coupled Heun realization
# ---------------------------------------------------------------------------


def setup_simulate(env):
    mj = env.mj
    theta = mj.cal.DEFAULT_THETA0
    rng = np.random.default_rng(env.seed)
    ns = np.array((0.025, -0.004, 0.001)) + rng.normal(0.0, 2e-3, 3)
    spreads0 = np.array((0.0035, 0.0070)) + rng.normal(0.0, 1e-3, 2)
    grid = np.linspace(*SIM_GRID)
    spec = mj.dynamics.hull_white_three_curve_spec(theta.sigma, theta.a, theta.beta)
    curves = tuple(mj.AnalyticCurve(mj.qe.nelson_siegel(*ns, decay=a)) for a in theta.a)
    initial = mj.MultiCurveState(curves, spreads0)
    cfg = mj.dynamics.SimConfig(dt=SIM_DT, horizon=SIM_HORIZON, n_paths=SIM_PATHS, grid=grid)
    heun_cfg = mj.dynamics.SimConfig(dt=SIM_DT, horizon=SIM_HORIZON,
                                     n_paths=SIM_HEUN_PATHS, grid=grid)
    increments = np.random.default_rng(SIM_INCREMENT_SEED).normal(
        0.0, math.sqrt(SIM_DT), size=(SIM_PATHS, cfg.n_steps, 1))
    real = mj.fdr.build_hw3_fdr(theta, ns, spreads0)
    return SimpleNamespace(spec=spec, initial=initial, cfg=cfg, heun_cfg=heun_cfg,
                           increments=increments, real=real, grid=grid)


def simulate_once(mj, inp, drift_shift: float = 0.0):
    """One simulation: Euler HJM paths with their martingale statistics, and
    the Heun realization on the first paths' increments."""
    dyn = mj.dynamics
    paths = dyn.simulate_hjm(inp.initial, inp.spec, inp.cfg, increments=inp.increments,
                             record_times=(0.0, SIM_HORIZON), drift_shift=drift_shift)
    stats = [dyn.martingale_check(paths, j, SIM_HORIZON, SIM_BOND_MATURITY) for j in range(3)]
    states = mj.fdr.simulate_state(inp.real, inp.heun_cfg,
                                   increments=inp.increments[:inp.heun_cfg.n_paths],
                                   record_times=(SIM_HORIZON,))
    return paths, stats, states


def check_simulation(inp, paths, stats, states) -> list[str]:
    problems = checks.check_martingale([s.z for s in stats])
    curves, _, _ = paths.at(SIM_HORIZON)
    gap = checks.realization_gap(curves[:states.states.shape[0]], states.at(SIM_HORIZON),
                                 inp.real, inp.grid)
    return problems + checks.check_realization_gap(gap)


def run_simulate(env, inp) -> Round:
    rnd = Round(attempted=1)
    seconds, result, error = timed(env.op, simulate_once, env.mj, inp)
    rnd.wall = seconds
    rnd.op_times.append(seconds)
    if error is not None:
        rnd.failed = 1
        return rnd
    rnd.problems += check_simulation(inp, *result)
    return rnd


# ---------------------------------------------------------------------------
# check: `mchjm check` for all five families
# ---------------------------------------------------------------------------


def setup_check(env):
    """One operation per family: ``mchjm check`` runs with their expected
    state counts, at parameter points jittered by up to 5 % from the seed."""
    cli = env.mj.cli
    rng = np.random.default_rng(env.seed)

    def jitter(values):
        values = np.asarray(values) * rng.uniform(0.95, 1.05, len(values))
        return ",".join(repr(float(v)) for v in values)

    def points(build):
        return [build() for _ in range(CHECK_NS_POINTS)]

    return [
        ("hw3-constant-vol", [(CHECK_HW3_STATES, [
            "--states", CHECK_HW3_STATES, "--set", f"sigma={jitter(cli.CHECK_SIGMA)}",
            "--set", f"a={jitter(cli.CHECK_A)}", "--set", f"beta={jitter(cli.CHECK_BETA)}"])]),
        ("cdv-example", [(CHECK_CDV_STATES, ["--states", CHECK_CDV_STATES])]),
        ("ns-plain", points(lambda: (1, [
            "--set", f"sigma={jitter(cli.CHECK_SIGMA[:1])}",
            "--set", f"a={jitter(cli.CHECK_A[:1])}"]))),
        ("ns-strategy1", points(lambda: (1, [
            "--set", f"sigma={jitter(cli.CHECK_SIGMA)}", "--set", f"a={jitter(cli.CHECK_A)}",
            "--set", f"beta={jitter(cli.CHECK_BETA)}"]))),
        ("ns-strategy2", points(lambda: (1, [
            "--set", f"sigma={jitter(cli.CHECK_SIGMA)}", "--set", f"a={jitter(cli.CHECK_A)}"]))),
    ]


def run_check(env, families) -> Round:
    """One operation per family: its ``mchjm check`` runs, timed one by one;
    the reports are read and checked after the family's last run."""
    rnd = Round()
    for family, runs in families:
        seconds, reports = 0.0, []
        for k, (n_states, extra) in enumerate(runs):
            out = env.workdir / f"check_{family}_{k}"
            took, result, error = timed(env.op, run_cli, env.mj, [
                "check", "--family", family, "--seed", env.seed, "--out", out, *extra])
            seconds += took
            if error is not None or result[0] != 0:
                break
            reports.append((out, n_states))
        rnd.wall += seconds
        rnd.op_times.append(seconds)
        rnd.attempted += 1
        if len(reports) < len(runs):
            rnd.failed += 1
            continue
        for out, n_states in reports:
            rnd.problems += checks.check_report(family, read_rows(out / "check_report.csv"),
                                                n_states)
    return rnd


WORKLOADS = {
    "calibrate": (setup_calibrate, run_calibrate),
    "stability": (setup_stability, run_stability),
    "simulate": (setup_simulate, run_simulate),
    "check": (setup_check, run_check),
}
