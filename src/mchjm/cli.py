"""Command-line drivers: run configuration, dataset files, report emission.

Subcommands: simulate | calibrate | check | stability | sweep | synth.
Options come from a flat ``key = value`` config file (``#`` comments) and
command-line flags, flags winning.  Every output file is written atomically
and is byte-reproducible under a fixed seed; floats are serialized with
``repr`` so a dataset survives write -> read -> write unchanged.

Exit codes: 0 success, 2 config error, 3 data error (line-numbered where
possible), 4 insufficient data, 5 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import calibration as cal
from . import dynamics, fdr, geometry, qe
from .curves import AnalyticCurve, MultiCurveState

__all__ = [
    "DEFAULT_SEED",
    "ConfigError",
    "DataError",
    "InsufficientDataError",
    "NumericalFailureError",
    "RunConfig",
    "read_dataset",
    "write_dataset",
    "main",
]

DEFAULT_SEED = 1729  # fixed documented default; no significance

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INSUFFICIENT = 4
EXIT_NUMERICAL = 5

BOND_HEADER = "date_index,curve_id,maturity_years,bond_price"
SPREAD_HEADER = "date_index,tenor_id,log_spread"

# decisive defaults for the consistency checks: well-separated decays keep
# the strategy-2 relation and its negative control far from the verdict band
CHECK_SIGMA = (0.1643, 0.1590, 0.1598)
CHECK_A = (0.3719, 0.6, 0.9)
CHECK_BETA = (0.48, -0.26)


class CliError(Exception):
    """Base of the mapped failures; carries the process exit code."""

    exit_code = EXIT_CONFIG


class ConfigError(CliError):
    exit_code = EXIT_CONFIG


class DataError(CliError):
    exit_code = EXIT_DATA


class InsufficientDataError(CliError):
    exit_code = EXIT_INSUFFICIENT


class NumericalFailureError(CliError):
    exit_code = EXIT_NUMERICAL


@contextmanager
def _solver_failures():
    """Turn a failed calibration into one exit-code-5 line: a violated
    precondition (``CalibrationError``), or a ``ValueError`` raised inside
    the solvers, ``LinAlgError`` included (e.g. non-finite residuals).
    Callers run the solvers themselves under ``np.errstate(all="ignore")``,
    so numpy's floating-point warnings from a failing fit do not precede
    that line."""
    try:
        yield
    except cal.CalibrationError as exc:
        raise NumericalFailureError(str(exc)) from exc
    except ValueError as exc:
        first = (str(exc).splitlines() or [""])[0]
        raise NumericalFailureError(
            f"calibration solver failed ({type(exc).__name__}): {first}") from exc


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


def _parse_config_file(path: Path) -> dict[str, str]:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        out[key] = value
    return out


@dataclass(frozen=True)
class RunConfig:
    """Merged options for one command invocation (flags override the file)."""

    command: str
    seed: int = DEFAULT_SEED
    out: Path = Path(".")
    dataset: Optional[Path] = None
    options: dict = field(default_factory=dict)

    def get_str(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return self.options.get(key, default)

    def get_int(self, key: str, default: int) -> int:
        raw = self.options.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"option {key!r} must be an integer, got {raw!r}") from exc

    def get_float(self, key: str, default: float) -> float:
        raw = self.options.get(key)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"option {key!r} must be a number, got {raw!r}") from exc
        if not math.isfinite(value):
            raise ConfigError(f"option {key!r} must be finite, got {raw!r}")
        if (key.endswith("tol") or key.endswith("tolerance")) and value <= 0:
            raise ConfigError(f"tolerance override {key!r} must be positive")
        return value

    def get_floats(self, key: str, default: Sequence[float], length: int) -> tuple[float, ...]:
        raw = self.options.get(key)
        if raw is None:
            values = tuple(float(v) for v in default)
        else:
            try:
                values = tuple(float(tok) for tok in raw.split(","))
            except ValueError as exc:
                raise ConfigError(
                    f"option {key!r} must be comma-separated numbers, got {raw!r}"
                ) from exc
            if not all(math.isfinite(v) for v in values):
                raise ConfigError(f"option {key!r} must be finite numbers, got {raw!r}")
        if len(values) != length:
            raise ConfigError(f"option {key!r} needs exactly {length} values")
        return values

    def get_ints(self, key: str, default: Sequence[int]) -> tuple[int, ...]:
        raw = self.options.get(key)
        if raw is None:
            return tuple(int(v) for v in default)
        try:
            return tuple(int(tok) for tok in raw.split(","))
        except ValueError as exc:
            raise ConfigError(
                f"option {key!r} must be comma-separated integers, got {raw!r}"
            ) from exc


def _count(key: str, value: int) -> int:
    """The value of option ``key``, which counts something, so at least 1."""
    if value < 1:
        raise ConfigError(f"option {key!r} must be at least 1, got {value}")
    return value


def _merge_run_config(args: argparse.Namespace) -> RunConfig:
    options: dict[str, str] = {}
    if args.config is not None:
        options.update(_parse_config_file(Path(args.config)))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        options[key.strip()] = value.strip()
    # named per-command flags override both the file and --set
    for key, value in vars(args).items():
        if key in {"command", "config", "seed", "out", "dataset", "set", "func"}:
            continue
        if value is not None:
            options[key] = str(value)

    seed = args.seed
    if seed is None:
        raw = options.pop("seed", None)
        try:
            seed = DEFAULT_SEED if raw is None else int(raw)
        except ValueError as exc:
            raise ConfigError(f"seed must be an integer, got {raw!r}") from exc
    else:
        options.pop("seed", None)

    out = Path(args.out if args.out is not None else options.pop("out", "."))
    dataset = args.dataset if args.dataset is not None else options.pop("dataset", None)
    return RunConfig(
        command=args.command,
        seed=int(seed),
        out=out,
        dataset=None if dataset is None else Path(dataset),
        options=options,
    )


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def _fmt(value: float) -> str:
    return repr(float(value))


def write_dataset(path: Path, snapshots: Sequence[cal.MarketSnapshot]) -> None:
    """Serialize snapshots in the two-section dataset format."""
    lines = [BOND_HEADER]
    for snap in snapshots:
        for j in range(3):
            for k, x in enumerate(snap.maturities):
                lines.append(f"{snap.date},{j},{_fmt(x)},{_fmt(snap.bonds[j, k])}")
    lines.append("")
    lines.append(SPREAD_HEADER)
    for snap in snapshots:
        for tenor in (1, 2):
            lines.append(f"{snap.date},{tenor},{_fmt(snap.log_spreads[tenor - 1])}")
    _atomic_write(Path(path), "\n".join(lines) + "\n")


def _split_row(lineno: int, raw: str, want: int) -> list[str]:
    parts = raw.split(",")
    if len(parts) != want:
        raise DataError(f"line {lineno}: expected {want} comma-separated fields, got {len(parts)}")
    return parts


def _parse_int(lineno: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise DataError(f"line {lineno}: {what} must be an integer, got {token!r}") from exc


def _parse_float(lineno: int, token: str, what: str) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise DataError(f"line {lineno}: {what} must be a number, got {token!r}") from exc
    if not math.isfinite(value):
        raise DataError(f"line {lineno}: {what} must be finite, got {token!r}")
    return value


def read_dataset(path: Path) -> list[cal.MarketSnapshot]:
    """Parse and validate a dataset file into daily market snapshots.

    Diagnostics carry 1-based line numbers.  Every number must be finite;
    the bond section must hold the same maturity set for every (date,
    curve); dates must be contiguous integers; the spreads section must
    quote both tenors for every date.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != BOND_HEADER:
        raise DataError(f"line 1: expected header {BOND_HEADER!r}")

    bonds: dict[int, dict[int, dict[float, float]]] = {}
    spreads: dict[int, dict[int, float]] = {}
    section_break = None
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            section_break = lineno
            break
        date_tok, curve_tok, mat_tok, price_tok = _split_row(lineno, raw, 4)
        date = _parse_int(lineno, date_tok, "date_index")
        curve = _parse_int(lineno, curve_tok, "curve_id")
        if curve not in (0, 1, 2):
            raise DataError(f"line {lineno}: curve_id must be 0, 1 or 2, got {curve}")
        x = _parse_float(lineno, mat_tok, "maturity_years")
        price = _parse_float(lineno, price_tok, "bond_price")
        if x <= 0:
            raise DataError(f"line {lineno}: maturity_years must be positive")
        if price <= 0:
            raise DataError(f"line {lineno}: bond_price must be positive")
        per_curve = bonds.setdefault(date, {}).setdefault(curve, {})
        if x in per_curve:
            raise DataError(f"line {lineno}: duplicate maturity {x!r} for date {date}, curve {curve}")
        per_curve[x] = price
    if section_break is None:
        raise DataError(f"line {len(lines) + 1}: missing spreads section")

    expect = section_break + 1
    if expect > len(lines) or lines[expect - 1].strip() != SPREAD_HEADER:
        raise DataError(f"line {expect}: expected header {SPREAD_HEADER!r}")
    for lineno, raw in enumerate(lines[expect:], start=expect + 1):
        if not raw.strip():
            continue
        date_tok, tenor_tok, value_tok = _split_row(lineno, raw, 3)
        date = _parse_int(lineno, date_tok, "date_index")
        tenor = _parse_int(lineno, tenor_tok, "tenor_id")
        if tenor not in (1, 2):
            raise DataError(f"line {lineno}: tenor_id must be 1 or 2, got {tenor}")
        value = _parse_float(lineno, value_tok, "log_spread")
        per_date = spreads.setdefault(date, {})
        if tenor in per_date:
            raise DataError(f"line {lineno}: duplicate tenor {tenor} for date {date}")
        per_date[tenor] = value

    if not bonds:
        raise DataError("line 2: bond section is empty")
    dates = sorted(bonds)
    if dates != list(range(dates[0], dates[0] + len(dates))):
        raise DataError(f"dataset dates must be contiguous integers, got {dates}")

    reference: Optional[tuple[float, ...]] = None
    snapshots = []
    for date in dates:
        per_date = bonds[date]
        if sorted(per_date) != [0, 1, 2]:
            raise DataError(f"date {date}: bond rows must cover curves 0, 1 and 2")
        mats = tuple(sorted(per_date[0]))
        for curve in (1, 2):
            if tuple(sorted(per_date[curve])) != mats:
                raise DataError(
                    f"date {date}: curve {curve} maturity set differs from curve 0"
                )
        if reference is None:
            reference = mats
        elif mats != reference:
            raise DataError(f"date {date}: maturity set differs from date {dates[0]}")
        if date not in spreads or sorted(spreads[date]) != [1, 2]:
            raise DataError(f"date {date}: spreads section must quote tenors 1 and 2")
        price = np.array([[per_date[j][x] for x in mats] for j in range(3)])
        try:
            snapshots.append(cal.MarketSnapshot(
                date=date,
                maturities=np.array(mats),
                bonds=price,
                log_spreads=np.array([spreads[date][1], spreads[date][2]]),
            ))
        except ValueError as exc:
            raise DataError(f"date {date}: {exc}") from exc
    return snapshots


def _require_dataset(config: RunConfig) -> list[cal.MarketSnapshot]:
    if config.dataset is None:
        raise ConfigError(f"command {config.command!r} requires --dataset")
    return read_dataset(config.dataset)


# ---------------------------------------------------------------------------
# shared parameter parsing
# ---------------------------------------------------------------------------


def _theta_from(config: RunConfig, key: str, default: cal.Theta) -> cal.Theta:
    values = config.get_floats(key, default.as_array(), 8)
    try:
        return cal.Theta.from_array(np.array(values))
    except ValueError as exc:
        raise ConfigError(f"option {key!r}: {exc}") from exc


def _stack_params(config: RunConfig) -> geometry.HullWhiteStackParams:
    sigma = config.get_floats("sigma", CHECK_SIGMA, 3)
    a = config.get_floats("a", CHECK_A, 3)
    beta = config.get_floats("beta", CHECK_BETA, 2)
    try:
        return geometry.HullWhiteStackParams(sigma=sigma, a=a, beta=beta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(config: RunConfig) -> None:
    """Generate a synthetic dataset file from the three-curve model."""
    theta = _theta_from(config, "theta_true", cal.REFERENCE_THETA)
    ns = config.get_floats("ns", (0.035, -0.012, 0.0045), 3)
    spreads0 = config.get_floats("spreads0", (0.0035, 0.0070), 2)
    days = config.get_int("days", 84)
    noise_sd = config.get_float("noise_sd", 0.0)
    substeps = config.get_int("substeps", 1)
    drift_raw = config.get_str("drift_to")
    drift_to = None
    if drift_raw is not None:
        drift_to = _theta_from(config, "drift_to", cal.REFERENCE_THETA)
    try:
        snapshots = cal.synthesize_market_data(
            theta, np.array(ns), days, noise_sd=noise_sd, seed=config.seed,
            initial_log_spreads=spreads0, theta_drift=drift_to,
            substeps=substeps,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    target = config.dataset or (config.out / "synthetic_dataset.csv")
    write_dataset(target, snapshots)
    print(f"wrote {len(snapshots)} days x {snapshots[0].n} maturities to {target}")


def cmd_calibrate(config: RunConfig) -> None:
    """Calibrate the dataset and emit theta, state, error, plot and
    solver-diagnostics tables."""
    snapshots = _require_dataset(config)
    theta0 = _theta_from(config, "theta0", cal.DEFAULT_THETA0)
    max_iterations = _count("max_iterations", config.get_int("max_iterations", 200))
    if len(snapshots) < 2:
        raise InsufficientDataError("calibration needs at least two days of data")
    with _solver_failures():
        with np.errstate(all="ignore"):
            result = cal.outer_calibrate(snapshots, theta0,
                                         max_iterations=max_iterations)
        metrics = cal.error_metrics(result, snapshots)

    out = config.out
    theta_star = result.theta_star.as_array()
    _write_csv(out / "theta_table.csv", "parameter,initial,calibrated", [
        (name, _fmt(v0), _fmt(v1))
        for name, v0, v1 in zip(cal.PARAM_NAMES, theta0.as_array(), theta_star)
    ])
    _write_csv(
        out / "per_day_states.csv",
        "date_index,q0,q1,q2,q3,y0,y1,y2,residual_norm",
        [
            (f.date, *map(_fmt, f.z1), *map(_fmt, f.y), _fmt(f.residual_norm))
            for f in result.per_day
        ],
    )
    _write_csv(out / "error_table.csv", "quantity,value", [
        *((f"err_yield_{j}", _fmt(metrics.yield_errors[j])) for j in range(3)),
        *((f"err_spread_{i + 1}", _fmt(metrics.spread_errors[i])) for i in range(2)),
    ])

    last = snapshots[-1]
    model_y = result.per_day[-1].yields
    market_y = last.yields()
    _write_csv(
        out / "yields_fit.csv",
        "curve_id,maturity_years,market_yield,fitted_yield",
        [
            (j, _fmt(x), _fmt(market_y[j, k]), _fmt(model_y[j, k]))
            for j in range(3)
            for k, x in enumerate(last.maturities)
        ],
    )
    _write_csv(
        out / "spreads_fit.csv",
        "date_index,tenor_id,market_log_spread,fitted_log_spread",
        [
            (snap.date, tenor, _fmt(snap.log_spreads[tenor - 1]), _fmt(f.spreads[tenor - 1]))
            for snap, f in zip(snapshots, result.per_day)
            for tenor in (1, 2)
        ],
    )

    diag = result.diagnostics
    _write_csv(out / "diagnostics.csv", "key,value", sorted({
        "nfev": diag.nfev,
        "njev": diag.njev,
        "status": diag.status,
        "converged": diag.converged,
        "weakly_identified": diag.weakly_identified,
        "jacobian_condition": _fmt(diag.jacobian_condition),
        "optimizer_sse": _fmt(diag.optimizer_sse),
        "max_day_condition": _fmt(max(f.condition for f in result.per_day)),
        "min_day_rank": min(f.rank for f in result.per_day),
    }.items()))

    flag = " (weakly identified)" if diag.weakly_identified else ""
    print(f"calibrated {len(snapshots)} days: sse {result.total_sse:.6e}, "
          f"converged {diag.converged}{flag}")
    print("max yield error "
          f"{np.max(metrics.yield_errors):.6e}, max spread error "
          f"{np.max(metrics.spread_errors):.6e}; tables in {out}")


def _check_states(config: RunConfig, decays: Sequence[float], base_ns, base_spreads,
                  count: int) -> list[MultiCurveState]:
    rng = np.random.default_rng(config.seed)
    states = []
    for k in range(count):
        ns = np.array(base_ns, dtype=float)
        ym = np.array(base_spreads, dtype=float)
        if k:  # keep the documented base point first
            ns = ns + rng.normal(0.0, 2e-3, 3)
            ym = ym + rng.normal(0.0, 1e-3, ym.size)
        curves = tuple(
            AnalyticCurve(qe.nelson_siegel(ns[0], ns[1], ns[2], a)) for a in decays
        )
        states.append(MultiCurveState(curves, ym))
    return states


@contextmanager
def _geometry_failures():
    """A setting the geometry rejects (a ``ValueError``, e.g. a bracket depth
    beyond the cost guard) exits 2; a rank-deficient family jacobian exits 5."""
    try:
        yield
    except geometry.ImmersionError as exc:
        raise NumericalFailureError(str(exc)) from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_check(config: RunConfig) -> None:
    """Run the geometry checks for one named family and emit a report."""
    family = config.get_str("family")
    if family is None:
        raise ConfigError("check requires --family")
    n_states = _count("states", config.get_int("states", 1))
    with _geometry_failures():
        rows, summary = _check_family(config, family, n_states)
    _write_csv(config.out / "check_report.csv", "kind,name,value,verdict", rows)
    print(f"family {family}:")
    for line in summary:
        print(f"  {line}")


def _check_family(config: RunConfig, family: str,
                  n_states: int) -> tuple[list[tuple], list[str]]:
    """Report rows and summary lines of one family's checks."""
    rows: list[tuple] = []
    summary: list[str] = []

    if family == "hw3-constant-vol":
        params = _stack_params(config)
        depth = config.get_int("depth", 3)
        spec = dynamics.hull_white_three_curve_spec(params.sigma, params.a, params.beta)
        mu, sigs = geometry.model_fields(spec)
        for k, state in enumerate(_check_states(config, params.a, (0.025, -0.010, 0.004),
                                                (0.0035, 0.0070), n_states)):
            dim = geometry.span_dimension_estimate([mu, *sigs], state, depth)
            rows.append(("span_dimension", f"state_{k}", _fmt(dim), ""))
            summary.append(f"span dimension at state {k}: {dim}")
            verdicts = geometry.commutation_check(spec, (1, 2), state)
            for tenor, res in verdicts.items():
                word = "commutes" if res.commutes else "coupled"
                rows.append((
                    "commutation", f"state_{k}_tenor_{tenor}",
                    _fmt(res.max_relative), word,
                ))
                summary.append(
                    f"log-spread {tenor} direction {word} "
                    f"(max relative bracket {res.max_relative:.3e})"
                )
    elif family == "cdv-example":
        depth = config.get_int("depth", 2)
        spec = fdr.cdv_example_spec(
            config.get_floats("sigma", (0.006, 0.009, 0.011), 3),
            config.get_floats("a", (0.45, 0.61, 0.58), 3),
            config.get_floats("beta_const", (0.21, 0.33), 2),
            config.get_floats("beta_slope", (0.55, 0.40), 2),
        )
        mu, sigs = geometry.model_fields(spec)
        for k, state in enumerate(_check_states(config, (0.45, 0.61, 0.58),
                                                (0.03, -0.008, 0.002), (0.12, -0.09),
                                                n_states)):
            dim = geometry.span_dimension_estimate([mu, *sigs], state, depth)
            rows.append(("span_dimension", f"state_{k}", _fmt(dim), ""))
            summary.append(f"span dimension at state {k}: {dim}")
    elif family in ("ns-plain", "ns-strategy1", "ns-strategy2"):
        for key in ("depth", "states"):
            if key in config.options:
                raise ConfigError(f"family {family!r} takes no option {key!r}")
        if family == "ns-plain":
            sigma = config.get_floats("sigma", CHECK_SIGMA[:1], 1)
            a = config.get_floats("a", CHECK_A[:1], 1)
            params = geometry.HullWhiteStackParams(sigma=sigma, a=a)
            fam = geometry.nelson_siegel_family(params.a)
            spec = dynamics.single_factor_spec(params.sigma, params.a, params.beta)
            report = geometry.tangency_residual(fam, spec, np.array([0.02, -0.015, 0.004]))
            reports = [("plain", report)]
        elif family == "ns-strategy1":
            params = _stack_params(config)
            fam = geometry.build_modified_ns_family(params, strategy=1)
            z = np.concatenate([np.tile((0.02, -0.015, 0.004, 0.002), 3),
                                [0.0035, 0.0070]])
            spec = dynamics.single_factor_spec(params.sigma, params.a, params.beta)
            report = geometry.tangency_residual(fam, spec, z)
            reports = [("strategy1", report)]
        else:
            params = _stack_params(config)
            tolerance = config.get_float("tolerance", 1e-4)
            s2 = geometry.verify_strategy2_consistency(params, tolerance)
            summary.append(
                "implied spread volatilities beta = "
                + ", ".join(f"{b:.6f}" for b in s2.beta)
            )
            reports = [("strategy2", s2.main)]
            if s2.control is not None:
                reports.append(("strategy2_control", s2.control))
        for name, report in reports:
            worst = max((report.drift_residual, *report.diffusion_residuals))
            rows.append(("tangency", name, _fmt(worst), report.verdict))
            summary.append(
                f"{name}: drift residual {report.drift_residual:.3e}, "
                f"max diffusion residual {max(report.diffusion_residuals):.3e} "
                f"-> {report.verdict}"
            )
    else:
        raise ConfigError(f"unknown family {family!r}")
    return rows, summary


def cmd_stability(config: RunConfig) -> None:
    """Rolling-window calibration statistics and per-roll estimates."""
    dataset = _require_dataset(config)
    theta0 = _theta_from(config, "theta0", cal.DEFAULT_THETA0)
    window_months = _count("window_months", config.get_int("window_months", 4))
    rolls = _count("rolls", config.get_int("rolls", 50))
    needed = cal.TRADING_DAYS_PER_MONTH * window_months + rolls
    if len(dataset) < needed:
        raise InsufficientDataError(
            f"dataset has {len(dataset)} days; {rolls} rolls of a "
            f"{window_months}-month window need at least {needed}"
        )
    with _solver_failures(), np.errstate(all="ignore"):
        report = cal.stability_analysis(dataset, theta0,
                                        window_months=window_months, rolls=rolls)
    _write_csv(config.out / "stability_table.csv", "parameter,mean,std", [
        (name, _fmt(m), _fmt(s))
        for name, m, s in zip(report.parameter_names, report.mean, report.std)
    ])
    _write_csv(
        config.out / "stability_rolls.csv",
        "roll,start_date," + ",".join(report.parameter_names) + ",converged",
        [
            (k, dataset[k].date,
             *(("",) * len(theta) if np.isnan(theta).any() else map(_fmt, theta)), ok)
            for k, (theta, ok) in enumerate(zip(report.thetas, report.converged))
        ],
    )
    print(f"{report.n_used} of {rolls} rolls converged "
          f"({report.n_excluded} excluded); max std {np.max(report.std):.6e}; "
          f"table in {config.out}")


def cmd_sweep(config: RunConfig) -> None:
    """Window-length sweep ending at a fixed date."""
    dataset = _require_dataset(config)
    theta0 = _theta_from(config, "theta0", cal.DEFAULT_THETA0)
    lengths = tuple(_count("lengths", v) for v in config.get_ints("lengths", (1, 2, 3, 4, 5, 6)))
    end_date = config.get_int("end_date", dataset[-1].date)
    if not any(s.date == end_date for s in dataset):
        raise InsufficientDataError(f"dataset does not contain end_date {end_date}")
    with _solver_failures(), np.errstate(all="ignore"):
        rows = cal.window_sweep(dataset, lengths, end_date, theta0)
    table = []
    for row in rows:
        if row.skipped:
            table.append((row.months, "", row.end_date, False, True,
                          "", "", "", "", "", row.reason))
        else:
            table.append((
                row.months, row.start_date, row.end_date, row.converged, False,
                *(_fmt(v) for v in row.yield_errors),
                *(_fmt(v) for v in row.spread_end_errors),
                "",
            ))
    _write_csv(
        config.out / "sweep_table.csv",
        "months,start_date,end_date,converged,skipped,"
        "err_yield_0,err_yield_1,err_yield_2,err_spread_1,err_spread_2,reason",
        table,
    )
    done = sum(1 for r in rows if not r.skipped)
    print(f"swept {len(rows)} window lengths ending at day {end_date} "
          f"({done} calibrated, {len(rows) - done} skipped); table in {config.out}")


def _martingale_z(paths: dynamics.HJMPaths, j: int, t: float, T: float):
    """(j, statistic, z) of curve j's martingale check; a non-finite z is a
    numerical failure."""
    stat = dynamics.martingale_check(paths, j, t, T)
    # a constant sample (zero volatility) leaves an ulp-level std from
    # the mean rounding; no genuine Monte-Carlo error gets this small
    degenerate = stat.stderr <= 1e-14 * max(1.0, abs(stat.mean))
    z = 0.0 if degenerate else stat.z
    if not math.isfinite(z):
        raise NumericalFailureError(f"martingale z-score of curve {j} is {z}")
    return j, stat, z


def cmd_simulate(config: RunConfig) -> None:
    """Simulate the three-curve model and run the martingale diagnostics."""
    sigma = config.get_floats("sigma", cal.DEFAULT_THETA0.sigma, 3)
    a = config.get_floats("a", cal.DEFAULT_THETA0.a, 3)
    beta = config.get_floats("beta", cal.DEFAULT_THETA0.beta, 2)
    ns = config.get_floats("ns", (0.025, -0.010, 0.004), 3)
    spreads0 = config.get_floats("spreads0", (0.0035, 0.0070), 2)
    dt = config.get_float("dt", 1e-3)
    horizon = config.get_float("horizon", 1.0)
    n_paths = config.get_int("paths", 1000)
    bond_maturity = config.get_float("bond_maturity", 5.0)
    drift_shift = config.get_float("drift_shift", 0.0)

    if any(s < 0 for s in sigma):
        raise ConfigError("volatilities must be nonnegative")
    try:
        spec = dynamics.hull_white_three_curve_spec(sigma, a, beta)
        curves = tuple(AnalyticCurve(qe.nelson_siegel(*ns, decay=dec)) for dec in a)
        initial = MultiCurveState(curves, np.array(spreads0))
        cfg = dynamics.SimConfig(dt=dt, horizon=horizon, n_paths=n_paths,
                                 seed=config.seed)
        with np.errstate(all="ignore"):
            paths = dynamics.simulate_hjm(initial, spec, cfg,
                                          record_times=(0.0, horizon),
                                          drift_shift=drift_shift)
            stats = [_martingale_z(paths, j, horizon, bond_maturity) for j in range(3)]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except dynamics.NumericalError as exc:
        raise NumericalFailureError(str(exc)) from exc

    out = config.out
    rows = []
    for t in paths.record_times:
        curves_t, log_spreads_t, bank_t = paths.at(t)
        for p in range(n_paths):
            rows.append((
                p, _fmt(t),
                *(_fmt(curves_t[p, j, 0]) for j in range(3)),
                *(_fmt(log_spreads_t[p, i]) for i in range(2)),
                _fmt(bank_t[p] if np.ndim(bank_t) else bank_t),
            ))
    _write_csv(
        out / "rates_paths.csv",
        "path,time,short_rate_0,short_rate_1,short_rate_2,"
        "log_spread_1,log_spread_2,bank_integral",
        rows,
    )
    curves_T, _, _ = paths.at(horizon)
    _write_csv(out / "curve_final.csv", "curve_id,x,value", [
        (j, _fmt(x), _fmt(curves_T[0, j, k]))
        for j in range(3)
        for k, x in enumerate(paths.grid)
    ])
    _write_csv(out / "martingale_report.csv", "j,t,T,estimate,target,stderr,z", [
        (j, _fmt(stat.t), _fmt(stat.T), _fmt(stat.mean), _fmt(stat.target),
         _fmt(stat.stderr), _fmt(z))
        for j, stat, z in stats
    ])
    worst = max(abs(z) for _, _, z in stats)
    print(f"simulated {n_paths} paths to t={horizon}; "
          f"max martingale |z| = {worst:.3f}; tables in {out}")


HANDLERS: dict[str, Callable[[RunConfig], None]] = {
    "simulate": cmd_simulate,
    "calibrate": cmd_calibrate,
    "check": cmd_check,
    "stability": cmd_stability,
    "sweep": cmd_sweep,
    "synth": cmd_synth,
}


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="flat key = value configuration file")
    sp.add_argument("--seed", type=int, help=f"RNG seed (default {DEFAULT_SEED})")
    sp.add_argument("--out", help="output directory (default current)")
    sp.add_argument("--dataset", help="dataset CSV path")
    sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override any config key (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mchjm",
        description="Multi-curve term-structure toolkit: simulation, "
                    "calibration, consistency checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="simulate paths and martingale checks")
    _add_common(sp)
    sp.add_argument("--paths", type=int, dest="paths")
    sp.add_argument("--dt", type=float, dest="dt")
    sp.add_argument("--horizon", type=float, dest="horizon")
    sp.add_argument("--drift-shift", type=float, dest="drift_shift")

    sp = sub.add_parser("calibrate", help="calibrate a dataset")
    _add_common(sp)
    sp.add_argument("--max-iterations", type=int, dest="max_iterations")

    sp = sub.add_parser("check", help="consistency / geometry checks")
    _add_common(sp)
    sp.add_argument("--family", dest="family",
                    help="hw3-constant-vol | cdv-example | ns-plain | "
                         "ns-strategy1 | ns-strategy2")
    sp.add_argument("--depth", type=int, dest="depth")
    sp.add_argument("--states", type=int, dest="states")

    sp = sub.add_parser("stability", help="rolling-window stability table")
    _add_common(sp)
    sp.add_argument("--rolls", type=int, dest="rolls")
    sp.add_argument("--window-months", type=int, dest="window_months")

    sp = sub.add_parser("sweep", help="window-length sweep table")
    _add_common(sp)
    sp.add_argument("--lengths", dest="lengths")
    sp.add_argument("--end-date", type=int, dest="end_date")

    sp = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common(sp)
    sp.add_argument("--days", type=int, dest="days")
    sp.add_argument("--noise-sd", type=float, dest="noise_sd")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _merge_run_config(args)
        HANDLERS[config.command](config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
