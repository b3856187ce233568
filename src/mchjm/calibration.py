"""Two-stage calibration of the three-curve mean-reverting stack.

The model has eight structural parameters ``theta = (a^j, sigma^j, beta^j)``
and, per trading day, seven linear state variables: the four factor-block
coordinates ``z1`` of the five-dimensional realization plus the three
Nelson-Siegel coefficients ``y`` of the initial curve family.  Because the
model yields are affine in ``(z1, y)``, each day reduces to a linear least
squares problem ("inner solve"); the structural parameters are then found by
bounded nonlinear least squares over the stacked per-day residuals with the
inner solve nested inside (a variable-projection scheme).

Conventions used throughout:

* time is measured in years with 250 trading days per year and 21 per month;
* the running-time coordinate of the realization is anchored to the dataset
  clock, ``t = snapshot.date / 250``, and the constant log-spread offsets
  ``y^M`` are the dataset's day-0 log-spreads.  Anchoring to the enclosing
  window instead would make the deterministic drift-accumulation term
  (the ``e^{-2 a x}`` component, which lies outside the span of the per-day
  linear variables) inconsistent between rolled windows drawn from the same
  history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np
import scipy.optimize
from numpy.linalg import _umath_linalg

from . import fdr

__all__ = [
    "DAYS_PER_YEAR",
    "TRADING_DAYS_PER_MONTH",
    "DEFAULT_MATURITIES",
    "PARAM_NAMES",
    "DEFAULT_BOUNDS",
    "DEFAULT_THETA0",
    "REFERENCE_THETA",
    "CalibrationError",
    "Theta",
    "MarketSnapshot",
    "DayFit",
    "Diagnostics",
    "CalibrationResult",
    "ErrorMetrics",
    "SweepRow",
    "StabilityReport",
    "residual",
    "inner_solve",
    "outer_calibrate",
    "error_metrics",
    "window_sweep",
    "stability_analysis",
    "synthesize_market_data",
]

DAYS_PER_YEAR = 250.0
TRADING_DAYS_PER_MONTH = 21

#: Standard money-market/swap pillar grid: 1-6 and 9 months, then 1..10 years.
DEFAULT_MATURITIES = np.array(
    [1 / 12, 2 / 12, 3 / 12, 4 / 12, 5 / 12, 6 / 12, 9 / 12]
    + [float(k) for k in range(1, 11)]
)
DEFAULT_MATURITIES.setflags(write=False)

PARAM_NAMES = ("a0", "sigma0", "a1", "sigma1", "a2", "sigma2", "beta1", "beta2")

#: Calibration box, ordered as PARAM_NAMES: reversion speeds and spread
#: loadings in [1e-6, 1] resp. [-1, 1], volatilities in [1e-6, 0.5].
DEFAULT_BOUNDS = (
    np.array([1e-6, 1e-6, 1e-6, 1e-6, 1e-6, 1e-6, -1.0, -1.0]),
    np.array([1.0, 0.5, 1.0, 0.5, 1.0, 0.5, 1.0, 1.0]),
)
for _b in DEFAULT_BOUNDS:
    _b.setflags(write=False)

_MIN_A_GAP = 1e-6
_SVD_CUTOFF = 1e-12
_WEAK_ID_COND = 1e8


class CalibrationError(ValueError):
    """Raised when inputs violate a calibration precondition."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theta:
    """Structural parameters of the three-curve stack.

    ``a^j`` are the reversion speeds, ``sigma^j`` the curve volatilities and
    ``beta^j`` the log-spread loadings on the shared factor.  Validity (the
    calibration box ``DEFAULT_BOUNDS`` plus pairwise-distinct reversion
    speeds) is enforced at construction.
    """

    a0: float
    sigma0: float
    a1: float
    sigma1: float
    a2: float
    sigma2: float
    beta1: float
    beta2: float

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name, lo, hi in zip(PARAM_NAMES, *DEFAULT_BOUNDS):
            value = getattr(self, name)
            if not lo <= value <= hi:
                raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}], got {value}")
        a = self.a
        for i in range(3):
            for j in range(i + 1, 3):
                if abs(a[i] - a[j]) < _MIN_A_GAP:
                    raise ValueError(
                        "reversion speeds must be pairwise distinct by at "
                        f"least {_MIN_A_GAP:g}: a{i}={a[i]}, a{j}={a[j]}"
                    )

    @property
    def a(self) -> tuple[float, float, float]:
        return (self.a0, self.a1, self.a2)

    @property
    def sigma(self) -> tuple[float, float, float]:
        return (self.sigma0, self.sigma1, self.sigma2)

    @property
    def beta(self) -> tuple[float, float]:
        return (self.beta1, self.beta2)

    def as_array(self) -> np.ndarray:
        """Parameter vector ordered as ``PARAM_NAMES``."""
        return np.array([getattr(self, name) for name in PARAM_NAMES])

    @classmethod
    def from_array(cls, vec: Sequence[float]) -> "Theta":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (8,):
            raise ValueError("parameter vector must have shape (8,)")
        return cls(**dict(zip(PARAM_NAMES, (float(v) for v in vec))))


#: Conservative default starting point: slow mean reversion and a nearly
#: flat risk-free volatility.  Deliberately far from typical optima so that
#: convergence from it exercises the outer solver.
DEFAULT_THETA0 = Theta(
    a0=0.53041117, sigma0=0.00285941,
    a1=0.66253001, sigma1=0.09546952,
    a2=0.65812121, sigma2=0.09083773,
    beta1=0.41734616, beta2=0.82477578,
)

#: Representative calibrated parameter set for a EUR-style three-curve desk;
#: synthetic studies in the test-suite and scripts use it as ground truth.
REFERENCE_THETA = Theta(
    a0=0.3719, sigma0=0.1643,
    a1=0.3721, sigma1=0.1590,
    a2=0.3727, sigma2=0.1598,
    beta1=0.4814, beta2=0.8825,
)


@dataclass(frozen=True)
class MarketSnapshot:
    """One trading day of market data.

    ``date`` is the trading-day index within the dataset, ``bonds`` the
    (3, n) matrix of zero-coupon prices for the risk-free curve and the two
    tenor curves on the common maturity grid, ``log_spreads`` the pair
    ``(Y^1, Y^2)`` of observed log-spreads.
    """

    date: int
    maturities: np.ndarray
    bonds: np.ndarray
    log_spreads: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.maturities, dtype=float).copy()
        b = np.asarray(self.bonds, dtype=float).copy()
        s = np.asarray(self.log_spreads, dtype=float).copy()
        if not all(np.all(np.isfinite(arr)) for arr in (x, b, s)):
            raise ValueError("maturities, bond prices and log-spreads must be finite")
        if x.ndim != 1 or x.size == 0:
            raise ValueError("maturities must be a non-empty 1-d array")
        if np.any(x <= 0) or np.any(np.diff(x) <= 0):
            raise ValueError("maturities must be positive and strictly increasing")
        if b.shape != (3, x.size):
            raise ValueError(f"bonds must have shape (3, {x.size})")
        if np.any(b <= 0):
            raise ValueError("bond prices must be positive")
        if s.shape != (2,):
            raise ValueError("log_spreads must have shape (2,)")
        for arr in (x, b, s):
            arr.setflags(write=False)
        object.__setattr__(self, "date", int(self.date))
        object.__setattr__(self, "maturities", x)
        object.__setattr__(self, "bonds", b)
        object.__setattr__(self, "log_spreads", s)

    @property
    def n(self) -> int:
        return self.maturities.size

    def vector(self) -> np.ndarray:
        """Flat data vector of length 3n + 2 (prices then log-spreads)."""
        return np.concatenate([self.bonds.ravel(), self.log_spreads])

    def yields(self) -> np.ndarray:
        """Continuously compounded market yields, shape (3, n)."""
        return -np.log(self.bonds) / self.maturities


@dataclass(frozen=True)
class DayFit:
    """One day of a calibration: linear variables, residual norm, the rank
    of the day's design matrix (7 when the day is fully determined), its
    condition number s_max/s_min (``inf`` when s_min is 0) and the fitted
    model yields (3, n) and log-spreads (2,), the constant day-0 log-spread
    offsets included."""

    date: int
    z1: np.ndarray
    y: np.ndarray
    residual_norm: float
    rank: int
    condition: float
    yields: np.ndarray
    spreads: np.ndarray

    @property
    def rank_deficient(self) -> bool:
        return self.rank < 7


@dataclass(frozen=True)
class Diagnostics:
    """Outer-solver bookkeeping attached to a calibration result.

    ``nfev`` counts every evaluation of the stacked objective, those made
    for finite-difference Jacobians included; ``njev`` counts Jacobians.
    """

    nfev: int
    njev: int
    status: int
    message: str
    converged: bool
    weakly_identified: bool
    jacobian_condition: float
    optimizer_sse: float


@dataclass(frozen=True)
class CalibrationResult:
    theta_star: Theta
    per_day: tuple[DayFit, ...]
    total_sse: float
    diagnostics: Diagnostics


@dataclass(frozen=True)
class ErrorMetrics:
    """Relative fit errors: yields at the window end, spreads over the window."""

    yield_errors: np.ndarray
    spread_errors: np.ndarray


@dataclass(frozen=True)
class SweepRow:
    months: int
    start_date: Optional[int]
    end_date: int
    theta_star: Optional[Theta]
    yield_errors: Optional[np.ndarray]
    spread_end_errors: Optional[np.ndarray]
    converged: bool
    skipped: bool
    reason: str = ""


@dataclass(frozen=True)
class StabilityReport:
    parameter_names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray
    thetas: np.ndarray
    converged: np.ndarray
    n_used: int
    n_excluded: int


# ---------------------------------------------------------------------------
# per-day residual map
# ---------------------------------------------------------------------------


def _elapsed(snapshot: MarketSnapshot) -> float:
    return snapshot.date / DAYS_PER_YEAR


def _base_spreads(snapshot: MarketSnapshot, base_spreads) -> np.ndarray:
    if base_spreads is None:
        return snapshot.log_spreads
    base = np.asarray(base_spreads, dtype=float)
    if base.shape != (2,):
        raise ValueError("base_spreads must have shape (2,)")
    return base


def residual(
    snapshot: MarketSnapshot,
    theta: Theta,
    z1,
    y,
    *,
    base_spreads=None,
) -> np.ndarray:
    """Fit residual of length 3n + 2 at one trading day.

    Rows 0..3n-1 compare market and model yields curve by curve,
    ``(market - model)``; the last two rows compare model and market
    log-spreads, ``(model - market)``.  ``base_spreads`` are the constant
    day-0 log-spread offsets ``y^M`` and default to the snapshot's own
    (exact when the snapshot is the dataset head).
    """
    z1 = np.asarray(z1, dtype=float)
    y = np.asarray(y, dtype=float)
    if z1.shape != (4,):
        raise ValueError("z1 must have shape (4,)")
    if y.shape != (3,):
        raise ValueError("y must have shape (3,)")
    coeffs = fdr.hw3_affine_observables(theta.a, theta.sigma, theta.beta, _elapsed(snapshot),
                                        snapshot.maturities)
    yields, spreads = fdr.hw3_observables(*coeffs, z1, y, _base_spreads(snapshot, base_spreads))
    return np.concatenate([(snapshot.yields() - yields).ravel(), spreads - snapshot.log_spreads])


def _market(snapshots: Sequence[MarketSnapshot]):
    """Day-stacked market yields (K, 3n) and log-spreads (K, 2)."""
    return (np.array([s.yields().ravel() for s in snapshots]),
            np.array([s.log_spreads for s in snapshots]))


def _day_system(Wz, Wy, c, yields, log_spreads, base):
    """Design matrices (K, 3n+2, 7) and offsets (K, 3n+2) of K days.

    Day k's residual is ``A[k] @ u + c[k]`` for u = (z1, y); ``Wz, Wy, c``
    are the days' stacked :func:`fdr.hw3_affine_observables` and
    ``yields``, ``log_spreads`` their market data as stacked by
    :func:`_market`.
    """
    n3 = c.shape[1] - 2
    A = np.empty(Wz.shape[:2] + (7,))
    A[:, :n3, :4] = -Wz[:, :n3]
    A[:, :n3, 4:] = -Wy[:, :n3]
    A[:, n3:, :4] = Wz[:, n3:]
    A[:, n3:, 4:] = Wy[:, n3:]
    cfull = np.empty(c.shape)
    cfull[:, :n3] = yields - c[:, :n3]
    cfull[:, n3:] = c[:, n3:] + base - log_spreads
    return A, cfull


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _solve_days(A: np.ndarray, c: np.ndarray):
    """Least-squares u (K, 7) of K days, their residuals ``A @ u + c``
    (K, 3n+2), ranks (K,) and condition numbers s_max/s_min (K,), ``inf``
    where s_min is 0.

    One call of numpy's private ``lstsq`` gufunc (LAPACK ``dgelsd``, the
    kernel behind ``np.linalg.lstsq``, whose public wrapper rejects stacks)
    solves every day, with singular values below ``1e-12 * s_max`` treated
    as zero; each day's result equals ``np.linalg.lstsq(A[k], -c[k],
    rcond=1e-12)`` bit for bit.  A failed or non-finite solve raises
    ``LinAlgError`` as the public wrapper does.  The gufunc's signature is
    pinned by ``tests/test_calibration.py::test_lstsq_gufunc_signature``.
    """
    with np.errstate(call=_raise_lstsq_error, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        u, _, rank, s = _umath_linalg.lstsq(A, -c[..., None], _SVD_CUTOFF,
                                            signature="ddd->ddid")
    cond = np.full(rank.shape, np.inf)
    np.divide(s[:, 0], s[:, -1], out=cond, where=s[:, -1] > 0.0)
    return u[..., 0], np.matmul(A, u)[..., 0] + c, rank, cond


def _day_fits(snapshots: Sequence[MarketSnapshot], theta: Theta, base) -> tuple[DayFit, ...]:
    """Every day's fit under ``theta``: one batched assembly and one
    stacked solve of the days (one maturity grid)."""
    coeffs = fdr.hw3_affine_observables(theta.a, theta.sigma, theta.beta,
                                        np.array([_elapsed(s) for s in snapshots]),
                                        snapshots[0].maturities)
    A, c = _day_system(*coeffs, *_market(snapshots), base)
    u, r, rank, cond = _solve_days(A, c)
    fits = []
    for k, snap in enumerate(snapshots):
        z1, y = u[k, :4], u[k, 4:]
        yields, spreads = fdr.hw3_observables(*(w[k] for w in coeffs), z1, y, base)
        fits.append(DayFit(snap.date, z1, y, float(np.linalg.norm(r[k])), int(rank[k]),
                           float(cond[k]), yields, spreads))
    return tuple(fits)


def inner_solve(
    snapshot: MarketSnapshot,
    theta: Theta,
    *,
    base_spreads=None,
) -> DayFit:
    """Minimize the day's residual norm over the linear variables (z1, y).

    The affine map ``Res(u) = A u + c`` is solved by SVD with singular
    values below ``1e-12 * s_max`` treated as zero.  A design matrix of
    rank < 7 yields the minimal-norm solution and sets ``rank_deficient``.
    This is the one-day case of the stacked solve that ``outer_calibrate``
    runs over all days at once.
    """
    return _day_fits([snapshot], theta, _base_spreads(snapshot, base_spreads))[0]


# ---------------------------------------------------------------------------
# outer problem
# ---------------------------------------------------------------------------


def _split(vec: np.ndarray):
    return vec[0::2][:3], vec[1::2][:3], vec[6:]


def _stage_indices(n: int) -> list[np.ndarray]:
    """Coarse-to-fine day subsets: endpoints, geometric refinement, full set."""
    stages = []
    stride = n - 1
    while stride > 1:
        stages.append(np.unique(np.r_[np.arange(0, n, stride), n - 1]))
        stride //= 2
    stages.append(np.arange(n))
    return stages


def outer_calibrate(
    snapshots: Sequence[MarketSnapshot],
    theta0: Theta,
    *,
    base_spreads=None,
    max_iterations: int = 200,
    globalize: bool = True,
) -> CalibrationResult:
    """Nonlinear least squares over theta within ``DEFAULT_BOUNDS``, with
    nested inner solves.

    The objective stacks, day by day, the residual vector left after the
    optimal linear fit of (z1, y).  Because the per-day linear fit absorbs
    most of the curve shape, the full-window objective has long, nearly
    flat valleys; a cold start is therefore globalized by a deterministic
    coarse-to-fine continuation: the trust-region solver is first run on
    sparse day subsets (endpoints, then geometrically denser grids), each
    warm-starting the next, before the full window is polished with a
    central-difference Jacobian.  Each objective call assembles the
    design matrices of all its days in one batch and solves them in one
    stacked least-squares call, as does the final fit that fills
    ``per_day``, so all snapshots must share one maturity grid
    (``CalibrationError`` otherwise).  Pass ``globalize=False`` to skip the
    continuation when ``theta0`` is already a warm start (e.g. rolled
    windows); only the full-window polish runs then.  The polish is rerun
    from its result, at most three runs, until a run stops improving the
    SSE or returns its start point unchanged.  The final stage stops once
    the relative SSE improvement falls below 1e-10, the step below 1e-12,
    or the iteration budget is exhausted (in which case the best iterate
    is returned with ``converged`` unset).  A condition
    number above 1e8 of the outer Jacobian at the solution sets the
    ``weakly_identified`` flag.
    """
    snapshots = list(snapshots)
    if len(snapshots) < 2:
        raise CalibrationError("need at least two snapshots")
    dates = [s.date for s in snapshots]
    if np.any(np.diff(dates) <= 0):
        raise CalibrationError("snapshot dates must be strictly increasing")
    x = theta0.as_array()
    base = _base_spreads(snapshots[0], base_spreads)
    mats = snapshots[0].maturities
    if any(not np.array_equal(s.maturities, mats) for s in snapshots):
        raise CalibrationError("all snapshots must share one maturity grid")
    ts = np.array([_elapsed(s) for s in snapshots])
    yields, spreads = _market(snapshots)
    nfev = 0  # objective calls, finite-difference Jacobian calls included

    def stacked_for(idx):
        t, ys, ls = ts[idx], yields[idx], spreads[idx]

        def stacked(vec: np.ndarray) -> np.ndarray:
            nonlocal nfev
            nfev += 1
            a, sig, beta = _split(vec)
            A, c = _day_system(*fdr.hw3_affine_observables(a, sig, beta, t, mats), ys, ls, base)
            return _solve_days(A, c)[1].ravel()
        return stacked

    def run(idx, x, jac, cap):
        return scipy.optimize.least_squares(
            stacked_for(idx), x, bounds=DEFAULT_BOUNDS, method="trf", jac=jac,
            ftol=1e-10, xtol=1e-12, gtol=1e-14, max_nfev=cap,
        )

    stages = _stage_indices(len(snapshots))
    njev = 0
    if globalize:
        for idx in stages[:-1]:
            r = run(idx, x, "2-point", 600)
            x = r.x
            njev += r.njev or 0
    res = None
    for _ in range(3):
        r = run(stages[-1], x, "3-point", max_iterations * 9)
        njev += r.njev or 0
        if res is not None and r.cost >= res.cost * (1.0 - 1e-10):
            if r.cost < res.cost:
                res = r
            break
        res = r
        if np.array_equal(r.x, x):
            break  # a rerun from the same point would repeat this run exactly
        x = r.x

    try:
        theta_star = Theta.from_array(res.x)
    except ValueError as exc:
        raise CalibrationError(f"calibrated parameters are degenerate: {exc}") from exc

    per_day = _day_fits(snapshots, theta_star, base)
    sse = sum(f.residual_norm ** 2 for f in per_day)
    svals = np.linalg.svd(res.jac, compute_uv=False)
    cond = float("inf") if svals[-1] == 0.0 else float(svals[0] / svals[-1])
    diag = Diagnostics(
        nfev=nfev,
        njev=njev,
        status=int(res.status),
        message=str(res.message),
        converged=res.status > 0,
        weakly_identified=cond > _WEAK_ID_COND,
        jacobian_condition=cond,
        optimizer_sse=float(2.0 * res.cost),
    )
    return CalibrationResult(
        theta_star=theta_star,
        per_day=per_day,
        total_sse=float(sse),
        diagnostics=diag,
    )


# ---------------------------------------------------------------------------
# error metrics and experiment drivers
# ---------------------------------------------------------------------------


def error_metrics(result: CalibrationResult, snapshots: Sequence[MarketSnapshot]) -> ErrorMetrics:
    """Relative errors of the calibrated fit against the market data.

    Yield errors compare fitted and market yield curves at the *end* of the
    window, one relative l2 norm per curve over the maturity grid; spread
    errors compare fitted and market log-spreads over the *whole* window,
    one relative l2 norm per tenor.
    """
    snapshots = list(snapshots)
    if len(snapshots) != len(result.per_day) or any(
        s.date != f.date for s, f in zip(snapshots, result.per_day)
    ):
        raise CalibrationError("snapshots do not match the calibration result")

    model_y = result.per_day[-1].yields
    mkt_y = snapshots[-1].yields()
    yerr = np.empty(3)
    for j in range(3):
        denom = np.linalg.norm(mkt_y[j])
        if denom == 0.0:
            raise CalibrationError(f"market yield curve {j} has zero norm")
        yerr[j] = np.linalg.norm(model_y[j] - mkt_y[j]) / denom

    num = np.zeros(2)
    den = np.zeros(2)
    for snap, f in zip(snapshots, result.per_day):
        num += (f.spreads - snap.log_spreads) ** 2
        den += snap.log_spreads ** 2
    if np.any(den == 0.0):
        raise CalibrationError("market log-spread series has zero norm")
    return ErrorMetrics(yield_errors=yerr, spread_errors=np.sqrt(num / den))


def _spread_end_errors(fit: DayFit, last: MarketSnapshot) -> np.ndarray:
    if np.any(last.log_spreads == 0.0):
        raise CalibrationError("end-of-window log-spread is zero")
    return np.abs(fit.spreads - last.log_spreads) / np.abs(last.log_spreads)


def window_sweep(
    dataset: Sequence[MarketSnapshot],
    window_lengths: Sequence[int],
    end_date: int,
    theta0: Theta,
) -> tuple[SweepRow, ...]:
    """Calibrate trailing windows of several lengths ending at ``end_date``.

    Every window is calibrated from the same ``theta0``.  Each row reports
    the per-curve end-of-window yield errors and the per-tenor relative
    spread errors at the window end; windows reaching past the start of the
    dataset are skipped and flagged.
    """
    dataset = list(dataset)
    positions = {s.date: k for k, s in enumerate(dataset)}
    if end_date not in positions:
        raise CalibrationError(f"end_date {end_date} is not in the dataset")
    end_pos = positions[end_date]
    base = dataset[0].log_spreads

    rows = []
    for months in window_lengths:
        n_days = TRADING_DAYS_PER_MONTH * int(months)
        start_pos = end_pos - n_days + 1
        if start_pos < 0:
            rows.append(SweepRow(
                months=int(months), start_date=None, end_date=end_date,
                theta_star=None, yield_errors=None, spread_end_errors=None,
                converged=False, skipped=True,
                reason=f"{months}-month window extends before the dataset start",
            ))
            continue
        window = dataset[start_pos:end_pos + 1]
        result = outer_calibrate(window, theta0, base_spreads=base)
        metrics = error_metrics(result, window)
        rows.append(SweepRow(
            months=int(months), start_date=window[0].date, end_date=end_date,
            theta_star=result.theta_star, yield_errors=metrics.yield_errors,
            spread_end_errors=_spread_end_errors(result.per_day[-1], window[-1]),
            converged=result.diagnostics.converged, skipped=False,
        ))
    return tuple(rows)


def stability_analysis(
    dataset: Sequence[MarketSnapshot],
    theta0: Theta,
    window_months: int = 4,
    rolls: int = 50,
) -> StabilityReport:
    """Roll a fixed-length window one day at a time and track the estimates.

    The first window starts at the head of the dataset and is calibrated
    from ``theta0``; each subsequent roll is warm-started from the previous
    estimate (skipping the cold-start continuation).  Rolls whose outer
    iteration does not converge (or degenerates) are flagged and excluded
    from the mean/std statistics.  The next roll warm-starts from a roll's
    estimate even when that roll's ``converged`` flag is False.
    """
    dataset = list(dataset)
    wlen = TRADING_DAYS_PER_MONTH * int(window_months)
    if len(dataset) < wlen + rolls:
        raise CalibrationError(
            f"dataset has {len(dataset)} days; need at least {wlen + rolls}"
        )
    base = dataset[0].log_spreads

    thetas = np.full((rolls, 8), np.nan)
    ok = np.zeros(rolls, dtype=bool)
    guess = theta0
    for k in range(rolls):
        window = dataset[k:k + wlen]
        try:
            result = outer_calibrate(window, guess, base_spreads=base,
                                     globalize=(k == 0))
        except CalibrationError:
            continue
        thetas[k] = result.theta_star.as_array()
        ok[k] = result.diagnostics.converged
        guess = result.theta_star

    used = thetas[ok]
    if used.shape[0] == 0:
        raise CalibrationError("no calibration roll converged")
    return StabilityReport(
        parameter_names=PARAM_NAMES,
        mean=used.mean(axis=0),
        std=used.std(axis=0),
        thetas=thetas,
        converged=ok,
        n_used=int(ok.sum()),
        n_excluded=int(rolls - ok.sum()),
    )


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


def synthesize_market_data(
    theta_true: Theta,
    ns_params,
    days: int,
    noise_sd: float = 0.0,
    seed: int = 0,
    *,
    initial_log_spreads=(0.0035, 0.0070),
    theta_drift: Optional[Theta] = None,
    return_states: bool = False,
):
    """Generate daily snapshots from a simulated realization state path.

    The five-dimensional state starts at the origin (so the day-0 curves are
    exactly the Nelson-Siegel configuration ``ns_params`` and the day-0
    log-spreads equal ``initial_log_spreads``), is integrated with one Heun
    step per trading day, and is pushed through the closed-form observable
    map each day.  Gaussian noise of standard
    deviation ``noise_sd`` is added to the *yields* (and log-spreads), never
    to prices.  When ``theta_drift`` is given, the structural parameters
    migrate linearly from ``theta_true`` to it across the sample — a
    deliberately non-stationary control.
    """
    if days < 1:
        raise ValueError("need at least one day")
    if noise_sd < 0:
        raise ValueError("noise_sd must be nonnegative")
    x = DEFAULT_MATURITIES
    y = np.asarray(ns_params, dtype=float)
    if y.shape != (3,):
        raise ValueError("ns_params must have shape (3,)")
    ym = np.asarray(initial_log_spreads, dtype=float)
    if ym.shape != (2,):
        raise ValueError("initial_log_spreads must have shape (2,)")

    theta_a = theta_true.as_array()
    theta_b = theta_drift.as_array() if theta_drift is not None else theta_a

    def params_at(day: int):
        if theta_drift is None or days == 1:
            return _split(theta_a)
        w = day / (days - 1)
        return _split((1.0 - w) * theta_a + w * theta_b)

    def realization_at(day: int) -> fdr.FDRRealization:
        a, sig, beta = params_at(day)
        duck = SimpleNamespace(sigma=sig, a=a, beta=beta)
        return fdr.build_hw3_fdr(duck, y, ym)

    rng = np.random.default_rng(seed)
    dt = 1.0 / DAYS_PER_YEAR
    states = np.zeros((days, 5))
    z = np.zeros(5)
    real = realization_at(0)
    for d in range(1, days):
        if theta_drift is not None:
            real = realization_at(d - 1)
        z = fdr.heun_step(real, z, dt, rng.normal(0.0, math.sqrt(dt), size=1))
        states[d] = z

    snapshots = []
    for d in range(days):
        a, sig, beta = params_at(d)
        coeffs = fdr.hw3_affine_observables(a, sig, beta, d / DAYS_PER_YEAR, x)
        yields, spreads = fdr.hw3_observables(*coeffs, states[d, 1:], y, ym)
        if noise_sd > 0:
            yields = yields + rng.normal(0.0, noise_sd, size=(3, x.size))
            spreads = spreads + rng.normal(0.0, noise_sd, size=2)
        snapshots.append(MarketSnapshot(
            date=d, maturities=x, bonds=np.exp(-x * yields), log_spreads=spreads,
        ))
    if return_states:
        return snapshots, states
    return snapshots
