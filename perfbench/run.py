"""Benchmark of mchjm: calibration, rolling stability, Monte Carlo simulation
and consistency checks.

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, a table
    python3 perfbench/run.py --workload all --seed 1 --trace 1   # every traced run

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the named workload runs whole rounds for at least
``--seconds`` and the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` the named workload runs one untraced
round, for the tracing overhead, and one traced round, and the JSON holds the
per-layer metrics; the spans go to
``perfbench/_out/trace-<workload>-<seed>.json``.  See README.md.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

# One BLAS thread: the load is one operation at a time, and this must be
# set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
NAMES = ("calibrate", "stability", "simulate", "check")


def process_age() -> float:
    """Seconds since the process started, at 10 ms resolution (0 if /proc
    is missing)."""
    try:
        with open("/proc/self/stat") as handle:
            start_ticks = int(handle.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as handle:
            uptime = float(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


AGE_AT_T0 = process_age() - (time.perf_counter() - T0)


def load_program():
    """Import mchjm from the checkout's ``src/`` and nowhere else."""
    if not (SRC / "mchjm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {SRC / 'mchjm'} is missing")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import mchjm
    from mchjm import calibration, cli, dynamics, fdr, geometry, qe
    from mchjm.curves import AnalyticCurve, MultiCurveState

    if Path(mchjm.__file__).resolve().parent != SRC / "mchjm":
        sys.exit(f"perfbench: imported mchjm from {mchjm.__file__}, not from {SRC}")
    return SimpleNamespace(cal=calibration, cli=cli, dynamics=dynamics, fdr=fdr,
                           geometry=geometry, qe=qe, AnalyticCurve=AnalyticCurve,
                           MultiCurveState=MultiCurveState)


def result_line(problems, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def report(workload, problems, attempted, failed, metrics) -> None:
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{workload}: attempted {attempted}, failed {failed}, "
          f"checks {'passed' if not problems else 'FAILED'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")


def outcome(rounds, metrics):
    """(problems, attempted, failed, metrics) of a run's rounds."""
    return ([p for r in rounds for p in r.problems], sum(r.attempted for r in rounds),
            sum(r.failed for r in rounds), metrics)


def call(fn, *args, **kwargs):
    """An untraced operation: just the call."""
    return fn(*args, **kwargs)


def measure(mj, workload: str, seed: int, seconds: float, workdir: Path):
    """End-to-end metrics of one workload, tracing off."""
    import workloads

    setup, run_round = workloads.WORKLOADS[workload]
    env = SimpleNamespace(mj=mj, seed=seed, workdir=workdir, op=call)
    inputs = setup(env)
    setup_s = AGE_AT_T0 + time.perf_counter() - T0
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(env, inputs))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r.wall for r in rounds), "s"),
        "op_p50_s": (statistics.median(t for r in rounds for t in r.op_times), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    return outcome(rounds, metrics)


def traced(mj, workload: str, seed: int, workdir: Path):
    """Per-layer metrics of one workload: one untraced round for the tracing
    overhead, then one traced round."""
    import tracing
    import workloads

    env = SimpleNamespace(mj=mj, seed=seed, workdir=workdir, op=call)
    setup, run_round = workloads.WORKLOADS[workload]
    untraced = run_round(env, setup(env))

    tracer = tracing.Tracer()
    tracing.install(tracer, mj)
    env.op = tracer.op
    try:
        rnd = run_round(env, tracer.call(tracing.SETUP, setup, env))
    finally:
        tracer.restore()

    rows_per_day = 3 * mj.cal.DEFAULT_MATURITIES.size + 2
    metrics = tracing.layer_metrics(tracer.spans, rows_per_day)
    overhead = rnd.wall - untraced.wall
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / untraced.wall, "ratio")
    tracer.write(OUT / f"trace-{workload}-{seed}.json",
                 {k: v for k, (v, _) in metrics.items()})
    return outcome([untraced, rnd], metrics)


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload;
    with ``--trace 1`` every workload's traced run."""
    problems, attempted, failed, metrics = [], 0, 0, {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        problems += [] if res["correct"] else [name]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": (v["value"], v["unit"])
                        for k, v in res["metrics"].items()})
    print(result_line(problems, attempted, failed, metrics))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    mj = load_program()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            result = traced(mj, args.workload, args.seed, workdir)
        else:
            result = measure(mj, args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args.workload, *result)
    print(result_line(*result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
