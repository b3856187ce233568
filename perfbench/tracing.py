"""Spans around the calls into mchjm's public functions, and the per-layer
metrics computed from them.

The tracer replaces module attributes with timing wrappers, so it sees every
call that goes through the patched name: calls made by the benchmark, by
``mchjm.cli`` and by the library's own modules, which all look these names
up at call time.  Nothing under ``src/`` changes.  Spans are kept in memory
as ``[name, parent, start, end, attrs]`` lists and written to one JSON file
when the traced run ends.  A span's self time is its duration minus the
durations of its direct children; calls run one at a time on one thread, so
children never overlap.

The workloads run each timed operation inside an ``op`` span and each
set-up inside a ``setup`` span.  The per-layer metrics count only the spans
under an ``op`` span, so the benchmark's own checks, which call some of the
same functions between operations, do not count; ``calibration.synthesize.s``
alone counts the spans under ``setup``, because input generation is set-up.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

NAME, PARENT, START, END, ATTRS = range(5)
OP, SETUP = "op", "setup"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, attrs=None, **kwargs):
        """Run ``fn`` inside a span; ``attrs(args, kwargs, result)`` may
        attach a dict of work counts to the span."""
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if attrs is not None:
            span[ATTRS] = attrs(args, kwargs, result)
        return result

    def op(self, fn, *args, **kwargs):
        """Run one timed operation of a workload inside an ``op`` span."""
        return self.call(OP, fn, *args, **kwargs)

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a traced
        wrapper until :meth:`restore`."""
        fn = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, attrs=attrs, **kwargs)

        self.patch(owner, attr, traced)

    def patch(self, owner, attr: str, new) -> None:
        """Set ``owner.attr`` (or ``owner[attr]``) to ``new`` until :meth:`restore`."""
        old = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._set(owner, attr, new)
        self._patched.append((owner, attr, old))

    @staticmethod
    def _set(owner, attr, fn) -> None:
        if isinstance(owner, dict):
            owner[attr] = fn
        else:
            setattr(owner, attr, fn)

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            self._set(owner, attr, fn)
        self._patched.clear()

    def write(self, path: Path, metrics: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"fields": ["name", "parent", "start", "end", "attrs"],
                   "spans": self.spans, "metrics": metrics}
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# what is traced
# ---------------------------------------------------------------------------


def install(tracer: Tracer, mchjm) -> None:
    """Wrap the public entry points of every mchjm layer the workloads use.

    ``mchjm`` is a namespace holding the imported modules ``cal``, ``cli``,
    ``dynamics``, ``fdr``, ``geometry`` and ``qe``.
    """
    cal, cli, dyn, fdr, geo, qe = (mchjm.cal, mchjm.cli, mchjm.dynamics,
                                   mchjm.fdr, mchjm.geometry, mchjm.qe)
    scipy_optimize = cal.scipy.optimize

    for command in ("calibrate", "stability", "check"):
        tracer.wrap(cli.HANDLERS, command, f"cli.{command}")
    tracer.wrap(cli, "read_dataset", "cli.read_dataset")
    tracer.wrap(cal, "synthesize_market_data", "calibration.synthesize")
    tracer.wrap(cal, "outer_calibrate", "calibration.outer_calibrate",
                attrs=lambda a, k, r: {"reported_nfev": r.diagnostics.nfev})
    tracer.wrap(cal, "inner_solve", "calibration.inner_solve")
    tracer.wrap(cal, "error_metrics", "calibration.error_metrics")

    least_squares = scipy_optimize.least_squares

    @functools.wraps(least_squares)
    def traced_least_squares(fun, x0, *args, **kwargs):
        def objective(x):
            return tracer.call("calibration.objective", fun, x,
                               attrs=lambda a, k, r: {"rows": len(r)})

        return tracer.call(
            "calibration.least_squares", least_squares, objective, x0, *args,
            attrs=lambda a, k, r: {"jac": str(kwargs.get("jac")), "nfev": int(r.nfev)},
            **kwargs)

    tracer.patch(scipy_optimize, "least_squares", traced_least_squares)

    def euler_attrs(args, kwargs, result):
        initial, _spec, cfg = args[:3]
        return {"paths": cfg.n_paths, "steps": cfg.n_steps,
                "curves": initial.m + 1, "nodes": int(cfg.grid.size)}

    tracer.wrap(dyn, "simulate_hjm", "dynamics.simulate_hjm", attrs=euler_attrs)
    tracer.wrap(dyn, "martingale_check", "dynamics.martingale_check")
    tracer.wrap(fdr, "simulate_state", "fdr.simulate_state",
                attrs=lambda a, k, r: {"paths": a[1].n_paths, "steps": a[1].n_steps})

    for attr in ("span_dimension_estimate", "lie_bracket_numeric", "commutation_check",
                 "tangency_residual", "family_jacobian"):
        tracer.wrap(geo, attr, f"geometry.{attr}")
    # geometry imported the drift by name, so patch it where geometry looks it up
    tracer.wrap(geo, "stratonovich_drift", "dynamics.stratonovich_drift")
    for attr in ("evaluate", "multiply", "integrate_from_zero"):
        tracer.wrap(qe, attr, f"qe.{attr}")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def scopes(spans: list[list]) -> list:
    """For each span, the name of its nearest enclosing ``op`` or ``setup``
    span, or None.  A parent is opened, and so stored, before its children."""
    scope = []
    for s in spans:
        parent = s[PARENT]
        if parent < 0:
            scope.append(None)
        elif spans[parent][NAME] in (OP, SETUP):
            scope.append(spans[parent][NAME])
        else:
            scope.append(scope[parent])
    return scope


def layer_metrics(spans: list[list], rows_per_day: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``, from the spans under
    ``op`` spans (and, for ``calibration.synthesize``, under ``setup``).

    ``rows_per_day`` is 3n + 2, the length of one day's residual block.
    """
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur[i]
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, (s, scope) in enumerate(zip(spans, scopes(spans))):
        if scope == (SETUP if s[NAME] == "calibration.synthesize" else OP):
            by_name[s[NAME]].append(i)

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(dur[i] for i in by_name[name])

    def self_time(name):
        return sum(dur[i] - child_time[i] for i in by_name[name])

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    m["cli.read_dataset.s"] = (total("cli.read_dataset"), "s")
    m["cli.write_tables.s"] = (self_time("cli.calibrate"), "s")

    m["calibration.synthesize.s"] = (total("calibration.synthesize"), "s")
    m["calibration.outer_calibrate.calls"] = (calls("calibration.outer_calibrate"), "count")
    m["calibration.outer_calibrate.s"] = (total("calibration.outer_calibrate"), "s")

    obj = by_name["calibration.objective"]
    evals = len(obj)
    obj_s = sum(dur[i] for i in obj)
    day_evals = sum(spans[i][ATTRS]["rows"] for i in obj) / rows_per_day
    m["calibration.objective.evals"] = (evals, "count")
    m["calibration.objective.s"] = (obj_s, "s")
    m["calibration.objective.ms_per_eval"] = (per(obj_s, evals, 1e3), "ms")
    m["calibration.objective.day_evals"] = (day_evals, "count")
    m["calibration.objective.us_per_day_eval"] = (per(obj_s, day_evals, 1e6), "us")

    ls = by_name["calibration.least_squares"]
    nfev = sum(spans[i][ATTRS]["nfev"] for i in ls)
    m["calibration.least_squares.calls"] = (len(ls), "count")
    m["calibration.solver_overhead.s"] = (sum(dur[i] for i in ls) - obj_s, "s")
    m["calibration.fd_evals"] = (evals - nfev, "count")
    m["calibration.step_eval_share"] = (per(nfev, evals), "ratio")
    m["calibration.reported_nfev"] = (
        sum(spans[i][ATTRS]["reported_nfev"] for i in by_name["calibration.outer_calibrate"]),
        "count")
    for stage, jac in (("continuation", "2-point"), ("polish", "3-point")):
        runs = {i for i in ls if spans[i][ATTRS]["jac"] == jac}
        m[f"calibration.{stage}.evals"] = (sum(1 for i in obj if spans[i][PARENT] in runs), "count")
        m[f"calibration.{stage}.s"] = (sum(dur[i] for i in runs), "s")

    post_fit = 0.0
    for i in by_name["calibration.outer_calibrate"]:
        fits = [j for j in ls if spans[j][PARENT] == i]
        if fits:
            post_fit += spans[i][END] - spans[fits[-1]][END]
    m["calibration.post_fit.s"] = (post_fit, "s")
    m["calibration.inner_solve.calls"] = (calls("calibration.inner_solve"), "count")
    m["calibration.inner_solve.s"] = (total("calibration.inner_solve"), "s")
    m["calibration.error_metrics.s"] = (total("calibration.error_metrics"), "s")

    euler = by_name["dynamics.simulate_hjm"]
    pns = sum(a["paths"] * a["steps"] * a["curves"] * a["nodes"]
              for a in (spans[i][ATTRS] for i in euler))
    euler_s = total("dynamics.simulate_hjm")
    m["dynamics.simulate_hjm.s"] = (euler_s, "s")
    m["dynamics.euler.path_node_steps"] = (pns, "count")
    m["dynamics.euler.ns_per_path_node_step"] = (per(euler_s, pns, 1e9), "ns")
    # one (paths, curves, nodes) float64 state array, from its shape: each
    # Euler step streams about four arrays of this size
    m["dynamics.euler.state_mb"] = (
        max((a["paths"] * a["curves"] * a["nodes"] * 8 / 1e6
             for a in (spans[i][ATTRS] for i in euler)), default=0.0), "MB-computed")
    m["dynamics.martingale_check.s"] = (total("dynamics.martingale_check"), "s")

    heun_steps = sum(spans[i][ATTRS]["paths"] * spans[i][ATTRS]["steps"]
                     for i in by_name["fdr.simulate_state"])
    heun_s = total("fdr.simulate_state")
    m["fdr.simulate_state.s"] = (heun_s, "s")
    m["fdr.heun.path_steps"] = (heun_steps, "count")
    m["fdr.heun.us_per_path_step"] = (per(heun_s, heun_steps, 1e6), "us")

    for name in ("span_dimension_estimate", "tangency_residual"):
        m[f"geometry.{name}.calls"] = (calls(f"geometry.{name}"), "count")
        m[f"geometry.{name}.s"] = (total(f"geometry.{name}"), "s")
    m["geometry.lie_bracket_numeric.calls"] = (calls("geometry.lie_bracket_numeric"), "count")
    m["geometry.lie_bracket_numeric.self_s"] = (self_time("geometry.lie_bracket_numeric"), "s")
    m["geometry.commutation_check.s"] = (total("geometry.commutation_check"), "s")
    m["geometry.family_jacobian.s"] = (total("geometry.family_jacobian"), "s")
    m["dynamics.stratonovich_drift.calls"] = (calls("dynamics.stratonovich_drift"), "count")
    m["dynamics.stratonovich_drift.self_s"] = (self_time("dynamics.stratonovich_drift"), "s")

    for name in ("evaluate", "multiply", "integrate_from_zero"):
        m[f"qe.{name}.calls"] = (calls(f"qe.{name}"), "count")
    m["qe.self_s"] = (sum(self_time(f"qe.{n}")
                          for n in ("evaluate", "multiply", "integrate_from_zero")), "s")
    return m
