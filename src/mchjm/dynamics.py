"""Risk-neutral dynamics of the multi-curve HJM state.

State: curves r^0..r^m in Musiela parametrization plus log-spreads Y^1..Y^m.
Under the risk-neutral measure with d-dimensional Brownian motion,

    dr^j = (F r^j + sigma^j . H sigma^j - beta^j . sigma^j) dt + sigma^j . dW
    dY^j = (B r^0 - B r^j - |beta^j|^2 / 2) dt + beta^j . dW

with F = d/dx, H = int_0^x, B = evaluation at 0, and beta^0 := 0.  These
drifts make the discounted bond B^0(T)/S^0 and the spread-adjusted
fictitious bonds S^j B^j(T)/S^0 martingales (S^0 = savings account).

Two volatility specifications are supported:

* ``ConstantVolSpec`` — sigma^j_i and beta^j_i are state-independent;
  sigma^j_i are exact quasi-exponential curves.  Ito and Stratonovich drifts
  coincide.  The spec builds the whole volatility part of curve j's drift,
  sum_i sigma^j_i H sigma^j_i - beta^j_i sigma^j_i, once at construction
  (``ConstantVolSpec.vol_drift``).
* ``ConstantDirectionVolSpec`` — sigma^j_i(Y)(x) = phi^j_i(Y) lambda^j_i(x)
  with scalar loadings phi, beta of the form c + s Y^k (``ScalarField``).
  The spec builds the kernels D^j_i = lambda^j_i H lambda^j_i once at
  construction (``ConstantDirectionVolSpec.D``); at a state the volatility
  part of the drift is sum_i phi^2 D^j_i - beta phi lambda^j_i.  A loading
  c + s Y^k changes along the i-th diffusion field at the rate s beta^k_i,
  so the Stratonovich correction is exact.

``ito_drift`` and ``simulate_hjm`` both read these cached kernels.  Drifts
are ``TangentVector``s: one QE curve per tenor plus the log-spread drifts.

``simulate_hjm`` is an Euler-Maruyama scheme on a uniform maturity grid with
*upwind* differencing for the transport term F r (flat beyond the far grid
end, so the derivative there is 0).  It steps the paths in blocks whose
curve state fits in a core's L2 cache, one block through all its steps
before the next; a path's arithmetic does not depend on its block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import qe
from .curves import DEFAULT_GRID, MultiCurveState, TangentVector

__all__ = [
    "NonzeroConditionError",
    "NumericalError",
    "ScalarField",
    "ConstantVolSpec",
    "ConstantDirectionVolSpec",
    "VolSpec",
    "sigma_fields",
    "ito_drift",
    "stratonovich_drift",
    "SimConfig",
    "HJMPaths",
    "simulate_hjm",
    "MartingaleStat",
    "martingale_check",
    "single_factor_spec",
    "hull_white_three_curve_spec",
    "record_index",
]


class NonzeroConditionError(ValueError):
    """A structurally nonzero loading evaluated to zero at the current state."""


class NumericalError(RuntimeError):
    """A simulation produced non-finite values."""


# ---------------------------------------------------------------------------
# scalar loadings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """Scalar loading const + slope * Y^k of the log-spreads (k >= 1).

    ``constant(c)`` is the case slope = 0; it never reads a log-spread, so it
    also serves one-curve (m = 0) specs.
    """

    const: float = 0.0
    slope: float = 0.0
    spread_index: int = 1

    @staticmethod
    def constant(c: float) -> "ScalarField":
        return ScalarField(float(c))

    @staticmethod
    def affine_log_spread(c0: float, c1: float, k: int) -> "ScalarField":
        if k < 1:
            raise ValueError("log-spread index must be >= 1")
        return ScalarField(float(c0), float(c1), k)

    @property
    def identically_zero(self) -> bool:
        return self.const == 0.0 and self.slope == 0.0

    def __call__(self, log_spreads: np.ndarray):
        """The field at log-spreads whose last axis holds Y^1..Y^m."""
        if self.slope == 0.0:
            return self.const
        return self.const + self.slope * log_spreads[..., self.spread_index - 1]


# ---------------------------------------------------------------------------
# volatility specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantVolSpec:
    """State-independent volatilities: sigma[j][i] QE curves, beta (m, d)."""

    sigma: tuple[tuple[qe.QEFunction, ...], ...]
    beta: np.ndarray
    _vol_drift: tuple[qe.QEFunction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.beta, dtype=float))
        rows = tuple(tuple(r) for r in self.sigma)
        if not rows:
            raise ValueError("need at least the risk-free volatility row")
        d = len(rows[0])
        if any(len(r) != d for r in rows):
            raise ValueError("all volatility rows must have the same factor count")
        m = len(rows) - 1
        if m == 0:
            b = np.zeros((0, d))
        if b.shape != (m, d):
            raise ValueError(f"beta must have shape ({m}, {d}), got {b.shape}")
        b.setflags(write=False)
        object.__setattr__(self, "sigma", rows)
        object.__setattr__(self, "beta", b)
        drifts = []
        for j, row in enumerate(rows):
            acc = qe.QEFunction(())
            for i, s in enumerate(row):
                if s.is_zero:
                    continue
                acc = acc + qe.multiply(s, qe.integrate_from_zero(s))
                if j >= 1:
                    acc = acc + s * (-float(b[j - 1, i]))
            drifts.append(acc)
        object.__setattr__(self, "_vol_drift", tuple(drifts))

    def vol_drift(self, j: int) -> qe.QEFunction:
        """sum_i sigma^j_i H sigma^j_i - beta^j_i sigma^j_i (beta^0 = 0)."""
        return self._vol_drift[j]

    @property
    def m(self) -> int:
        return len(self.sigma) - 1

    @property
    def d(self) -> int:
        return len(self.sigma[0])


@dataclass(frozen=True)
class ConstantDirectionVolSpec:
    """sigma^j_i(Y)(x) = phi^j_i(Y) lambda^j_i(x), beta^j_i = beta^j_i(Y).

    ``lam[j][i]`` are QE curves, ``phi[j][i]`` and ``beta[j-1][i]`` scalar
    fields const + slope * Y^k.  Identically-zero entries mean "factor i
    does not drive component j" and are allowed; a *structurally* nonzero
    field evaluating to zero at a state raises ``NonzeroConditionError`` (it
    breaks the drift inversion of the associated realization).
    """

    lam: tuple[tuple[qe.QEFunction, ...], ...]
    phi: tuple[tuple[ScalarField, ...], ...]
    beta: tuple[tuple[ScalarField, ...], ...]
    _D: tuple[tuple[qe.QEFunction, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = tuple(tuple(r) for r in self.lam)
        phi = tuple(tuple(r) for r in self.phi)
        beta = tuple(tuple(r) for r in self.beta)
        d = len(lam[0])
        m = len(lam) - 1
        if len(phi) != m + 1 or any(len(r) != d for r in (*lam, *phi)):
            raise ValueError("lam and phi must both be (m+1) x d")
        if len(beta) != m or any(len(r) != d for r in beta):
            raise ValueError(f"beta must be m x d = {m} x {d}")
        for name, first, fields in (("phi", 0, phi), ("beta", 1, beta)):
            for j, row in enumerate(fields):
                for i, f in enumerate(row):
                    if f.slope and not 1 <= f.spread_index <= m:
                        raise ValueError(f"{name}[{j + first}][{i}] reads log-spread "
                                         f"{f.spread_index}, but the spec has m = {m}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "beta", beta)
        D = tuple(
            tuple(qe.multiply(f, qe.integrate_from_zero(f)) for f in row) for row in lam
        )
        object.__setattr__(self, "_D", D)

    @property
    def m(self) -> int:
        return len(self.lam) - 1

    @property
    def d(self) -> int:
        return len(self.lam[0])

    def D(self, j: int, i: int) -> qe.QEFunction:
        """D^j_i = lambda^j_i * H lambda^j_i (drift kernel)."""
        return self._D[j][i]

    def loadings(self, state: MultiCurveState) -> tuple[np.ndarray, np.ndarray]:
        """phi (m+1, d) and beta (m, d) at the state; ``NonzeroConditionError``
        names the first structurally nonzero field, phi before beta, that
        vanishes there."""
        y = state.log_spreads
        phi = np.array([[f(y) for f in row] for row in self.phi])
        beta = np.array([[f(y) for f in row] for row in self.beta]).reshape(self.m, self.d)
        for name, first, fields, vals in (("phi", 0, self.phi, phi), ("beta", 1, self.beta, beta)):
            for (j, i), v in np.ndenumerate(vals):
                if not fields[j][i].identically_zero and abs(v) < 1e-12:
                    raise NonzeroConditionError(f"{name}[{j + first}][{i}] vanished at the current state")
        return phi, beta


VolSpec = Union[ConstantVolSpec, ConstantDirectionVolSpec]


def single_factor_spec(sigmas: Sequence[float], rates: Sequence[float], betas: Sequence[float]) -> ConstantVolSpec:
    """Single-factor stack of m+1 curves: sigma^j e^{-a^j x}, scalar beta^j per tenor."""
    if len(sigmas) == 0 or len(sigmas) != len(rates):
        raise ValueError("need one (sigma, a) pair per curve")
    m = len(sigmas) - 1
    if len(betas) != m:
        raise ValueError("spread volatilities beta are required for every tenor")
    sigma = tuple((qe.exponential(s, -a),) for s, a in zip(sigmas, rates))
    return ConstantVolSpec(sigma, np.asarray(betas, dtype=float).reshape(m, 1))


def hull_white_three_curve_spec(sigmas: Sequence[float], rates: Sequence[float], betas: Sequence[float]) -> ConstantVolSpec:
    """Three-curve single-factor Hull-White stack: sigma^j e^{-a^j x}, scalar beta^j."""
    if not (len(sigmas) == len(rates) == 3 and len(betas) == 2):
        raise ValueError("need three (sigma, a) pairs and two betas")
    return single_factor_spec(sigmas, rates, betas)


# ---------------------------------------------------------------------------
# drifts
# ---------------------------------------------------------------------------


def sigma_fields(spec: VolSpec, state: MultiCurveState):
    """sigma^j_i at this state as QE curves, and beta values as an (m, d) array."""
    if isinstance(spec, ConstantVolSpec):
        return spec.sigma, np.array(spec.beta)
    phi, beta = spec.loadings(state)
    sig = tuple(tuple(f * p for f, p in zip(lam, ph)) for lam, ph in zip(spec.lam, phi))
    return sig, beta


def _drift_loadings(state: MultiCurveState, spec: VolSpec):
    """Check that the drift is defined at the state and return the spec's
    (phi, beta) there, or None for constant volatilities."""
    if state.m != spec.m:
        raise ValueError("state and volatility spec disagree on the number of tenors")
    return None if isinstance(spec, ConstantVolSpec) else spec.loadings(state)


def _ito_drift(state: MultiCurveState, spec: VolSpec, loadings) -> TangentVector:
    m = state.m
    if loadings is None:
        beta = spec.beta
        vol = [spec.vol_drift(j) for j in range(m + 1)]
    else:
        phi, beta = loadings
        vol = []
        for j in range(m + 1):
            acc = qe.QEFunction(())
            for i, p in enumerate(phi[j]):
                if p == 0.0 or spec.lam[j][i].is_zero:
                    continue
                acc = acc + spec.D(j, i) * (p * p)
                if j >= 1:
                    acc = acc + spec.lam[j][i] * (-(beta[j - 1, i] * p))
            vol.append(acc)
    curves_out = [qe.derive(c.func) + v for c, v in zip(state.curves, vol)]
    r0_short = state.curves[0].value(0.0)
    spread_out = np.array(
        [
            r0_short - state.curves[j].value(0.0) - 0.5 * float(beta[j - 1] @ beta[j - 1])
            for j in range(1, m + 1)
        ]
    )
    return TangentVector(tuple(curves_out), spread_out)


def ito_drift(state: MultiCurveState, spec: VolSpec) -> TangentVector:
    """Risk-neutral Ito drift of (r^0..r^m, Y^1..Y^m) at a state."""
    return _ito_drift(state, spec, _drift_loadings(state, spec))


def stratonovich_drift(state: MultiCurveState, spec: VolSpec) -> TangentVector:
    """Ito drift minus the 1/2 (d sigma_hat) sigma_hat correction.

    A loading f = c + s Y^k changes along the i-th diffusion field at the
    rate (d f)[sigma_hat_i] = s beta^k_i, so the correction is exact.  For
    constant volatilities it vanishes and this equals ``ito_drift`` exactly.
    """
    loadings = _drift_loadings(state, spec)
    base = _ito_drift(state, spec, loadings)
    if loadings is None:
        return base
    _, beta_val = loadings

    def half_dfield(f: ScalarField, i: int) -> float:
        """1/2 (d f)[sigma_hat_i]; 0 for a constant field."""
        return 0.5 * (f.slope * beta_val[f.spread_index - 1, i]) if f.slope else 0.0

    curves_out = []
    for j, c in enumerate(base.curves):
        # the beta.sigma part of the full correction already sits in the Ito
        # drift; only the d(phi) half remains to subtract here
        corr = qe.QEFunction(())
        for i, (lam, f) in enumerate(zip(spec.lam[j], spec.phi[j])):
            if f.slope and not lam.is_zero:
                corr = corr + lam * (-half_dfield(f, i))
        curves_out.append(c + corr)
    spreads_out = base.spreads - np.array(
        [sum(half_dfield(f, i) for i, f in enumerate(row)) for row in spec.beta]
    )
    return TangentVector(tuple(curves_out), spreads_out)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Euler grid for the HJM simulation."""

    dt: float
    horizon: float
    n_paths: int = 1
    seed: int = 0
    grid: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_GRID))

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if not (0 < self.dt < math.inf and 0 < self.horizon < math.inf):
            raise ValueError("dt and horizon must be positive and finite")
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise ValueError("horizon must be an integer multiple of dt")
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        dx = np.diff(g)
        if g.ndim != 1 or g.size < 3 or np.any(dx <= 0):
            raise ValueError("grid must be increasing with >= 3 nodes")
        if np.max(np.abs(dx - dx[0])) > 1e-9 * dx[0]:
            raise ValueError("simulation grid must be uniform")
        g.setflags(write=False)
        object.__setattr__(self, "grid", g)

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))

    def brownian_increments(self, d: int, increments: Optional[np.ndarray] = None) -> np.ndarray:
        """Increments of shape (n_paths, n_steps, d): ``increments`` after a
        shape check, or a fresh draw from ``seed`` when it is None."""
        shape = (self.n_paths, self.n_steps, d)
        if increments is None:
            return np.random.default_rng(self.seed).normal(0.0, math.sqrt(self.dt), size=shape)
        increments = np.asarray(increments, dtype=float)
        if increments.shape != shape:
            raise ValueError(f"increments must have shape {shape}")
        return increments

    def record_steps(self, record_times: Optional[Sequence[float]]) -> tuple[tuple[float, ...], list[int]]:
        """Sorted record times (default: the horizon) and their step numbers.

        Raises ValueError for a time that is not on the simulation clock and
        for two times on the same step, which would share one snapshot.
        """
        if record_times is None:
            record_times = (self.horizon,)
        rec = sorted(float(t) for t in record_times)
        steps = []
        for t in rec:
            k = t / self.dt
            if abs(k - round(k)) > 1e-9 * max(1.0, k) or not (0 <= t <= self.horizon + 1e-12):
                raise ValueError(f"record time {t} is not on the simulation clock")
            steps.append(int(round(k)))
        if len(set(steps)) < len(steps):
            raise ValueError(f"record times {tuple(rec)} repeat a simulation step")
        return tuple(rec), steps


def record_index(record_times: Sequence[float], t: float) -> int:
    """Position of ``t`` among the recorded times; KeyError if it is absent."""
    for k, s in enumerate(record_times):
        if abs(s - t) <= 1e-9 * max(1.0, abs(t)):
            return k
    raise KeyError(f"time {t} was not recorded (recorded: {tuple(record_times)})")


@dataclass
class HJMPaths:
    """Recorded snapshots of a simulated HJM path ensemble."""

    grid: np.ndarray
    m: int
    record_times: tuple[float, ...]
    curves: list  # per recorded time: array (n_paths, m+1, nx)
    log_spreads: list  # per recorded time: array (n_paths, m)
    bank: list  # per recorded time: array (n_paths,) of int_0^t r^0_s(0) ds

    def at(self, t: float):
        k = record_index(self.record_times, t)
        return self.curves[k], self.log_spreads[k], self.bank[k]


# Curve state held by one block of paths in ``simulate_hjm``: small enough
# that the block and its step buffers stay in a core's L2 cache for all of
# its steps (256 KiB to 1 MiB ran equally fast on a 2 MiB L2).
_BLOCK_BYTES = 512 * 1024


def _paths_per_block(m: int, nx: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * (m + 1) * nx))


def simulate_hjm(
    initial: MultiCurveState,
    spec: VolSpec,
    cfg: SimConfig,
    increments: Optional[np.ndarray] = None,
    record_times: Optional[Sequence[float]] = None,
    drift_shift: float = 0.0,
) -> HJMPaths:
    """Euler-Maruyama on the maturity grid (Ito form, upwind transport).

    ``increments``: optional pre-drawn Brownian increments of shape
    (n_paths, n_steps, d) — pass the same array to a realization simulator
    to couple the two.  ``drift_shift`` adds a constant to every *curve*
    drift; it exists to corrupt the risk-neutral drift in martingale
    diagnostics.

    Paths are independent, so they are stepped block by block: each block
    of about ``_BLOCK_BYTES`` of curve state runs all its steps in buffers
    allocated once, then its recorded snapshots are copied out.  Every
    path sees the same arithmetic whatever block it falls in.  A non-finite
    state raises ``NumericalError`` naming the earliest failing step over
    all paths.
    """
    m, d = spec.m, spec.d
    if initial.m != m:
        raise ValueError("initial state and spec disagree on the number of tenors")
    grid = cfg.grid
    nx = grid.size
    dx = float(grid[1] - grid[0])
    n_steps, n_paths, dt = cfg.n_steps, cfg.n_paths, cfg.dt

    increments = cfg.brownian_increments(d, increments)
    rec, rec_steps = cfg.record_steps(record_times)
    rec_at = {s: k for k, s in enumerate(rec_steps)}

    R_init = np.stack([c.value(grid) for c in initial.curves])
    Y_init = np.array(initial.log_spreads)

    const_vol = isinstance(spec, ConstantVolSpec)
    if const_vol:
        sig_arr = np.zeros((m + 1, d, nx))
        for j in range(m + 1):
            for i in range(d):
                sig_arr[j, i] = qe.evaluate(spec.sigma[j][i], grid)
        vol_drift = np.stack([qe.evaluate(spec.vol_drift(j), grid) for j in range(m + 1)])
        beta_arr = np.array(spec.beta)
        half_beta_sq = 0.5 * np.sum(beta_arr**2, axis=1)
    else:
        lam_arr = np.zeros((m + 1, d, nx))
        D_arr = np.zeros((m + 1, d, nx))
        for j in range(m + 1):
            for i in range(d):
                lam_arr[j, i] = qe.evaluate(spec.lam[j][i], grid)
                D_arr[j, i] = qe.evaluate(spec.D(j, i), grid)

    def cdv_loadings(Y):
        """phi (P, m+1, d) and beta (P, m, d) at the log-spreads Y (P, m)."""
        phi = np.empty((Y.shape[0], m + 1, d))
        bet = np.empty((Y.shape[0], m, d))
        for fields, vals in ((spec.phi, phi), (spec.beta, bet)):
            for j, row in enumerate(fields):
                for i, f in enumerate(row):
                    vals[:, j, i] = f(Y)
        return phi, bet

    out = HJMPaths(grid, m, rec,
                   [np.empty((n_paths, m + 1, nx)) for _ in rec],
                   [np.empty((n_paths, m)) for _ in rec],
                   [np.empty(n_paths) for _ in rec])

    def record(k, start, R, Y, bank):
        stop = start + R.shape[0]
        out.curves[k][start:stop] = R
        out.log_spreads[k][start:stop] = Y
        out.bank[k][start:stop] = bank

    # Buffers for one block, allocated once; a shorter last block uses their
    # leading rows, which are contiguous too.
    block = _paths_per_block(m, nx)
    R_buf = np.empty((block, m + 1, nx))
    A_buf = np.empty_like(R_buf)  # drift, then the whole curve increment
    E_buf = np.empty_like(R_buf)  # einsum results
    E1_buf = np.empty((block, m, nx))
    Y_buf = np.empty((block, m))
    bank_buf = np.empty(block)
    r0_buf = np.empty(block)

    failed = None  # earliest step at which some path went non-finite
    last = n_steps  # steps the next block runs: none at or after `failed`
    for start in range(0, n_paths, block):
        stop = min(start + block, n_paths)
        P = stop - start
        R, A, E, E1 = R_buf[:P], A_buf[:P], E_buf[:P], E1_buf[:P]
        Y, bank, r0_old = Y_buf[:P], bank_buf[:P], r0_buf[:P]
        R_flat, A_flat = R.reshape(-1), A.reshape(-1)
        R[:] = R_init
        Y[:] = Y_init
        bank[:] = 0.0
        if 0 in rec_at:
            record(rec_at[0], start, R, Y, bank)
        for step in range(last):
            dW = increments[start:stop, step, :]  # (P, d)
            r0_old[:] = R[:, 0, 0]
            # Upwind F r over the flat block; the differences that straddle
            # two curves land on the far node, which is flat (derivative 0).
            np.subtract(R_flat[1:], R_flat[:-1], out=A_flat[:-1])
            A[..., -1] = 0.0
            np.divide(A, dx, out=A)
            if const_vol:
                np.add(A, vol_drift, out=A)
                np.add(A, drift_shift, out=A)
                dY = dt * (
                    R[:, 0, 0][:, None] - R[:, 1:, 0] - half_beta_sq[None, :]
                ) + dW @ beta_arr.T
                np.einsum("pi,jix->pjx", dW, sig_arr, out=E)
            else:
                phi, bet = cdv_loadings(Y)
                np.add(A, np.einsum("pji,jix->pjx", phi**2, D_arr, out=E), out=A)
                np.add(A, drift_shift, out=A)
                np.einsum("pji,pji,jix->pjx", bet, phi[:, 1:, :], lam_arr[1:], out=E1)
                np.subtract(A[:, 1:, :], E1, out=A[:, 1:, :])
                dY = dt * (
                    R[:, :1, 0] - R[:, 1:, 0] - 0.5 * np.sum(bet**2, axis=2)
                ) + np.einsum("pji,pi->pj", bet, dW)
                np.einsum("pji,jix,pi->pjx", phi, lam_arr, dW, out=E)
            np.multiply(dt, A, out=A)
            np.add(A, E, out=A)
            np.add(R, A, out=R)
            Y += dY
            bank += 0.5 * (r0_old + R[:, 0, 0]) * dt
            recorded = step + 1 in rec_at
            if not np.all(np.isfinite(R[:, :, 0])) or (
                    recorded and not (np.all(np.isfinite(R)) and np.all(np.isfinite(Y)))):
                failed, last = step + 1, step
                break
            if recorded:
                record(rec_at[step + 1], start, R, Y, bank)
    if failed is not None:
        raise NumericalError(f"non-finite state at step {failed}")
    return out


# ---------------------------------------------------------------------------
# martingale diagnostics
# ---------------------------------------------------------------------------


def grid_integral(values: np.ndarray, grid: np.ndarray, upper: float) -> np.ndarray:
    """Trapezoid integral of gridded curves over [0, upper] (partial last cell)."""
    if upper < grid[0] or upper > grid[-1] + 1e-12:
        raise ValueError("integration limit outside the grid")
    idx = int(np.searchsorted(grid, upper, side="right")) - 1
    idx = min(idx, grid.size - 2)
    widths = np.diff(grid[: idx + 1])
    full = np.sum(0.5 * widths * (values[..., : idx] + values[..., 1 : idx + 1]), axis=-1)
    rest = upper - grid[idx]
    if rest > 0:
        frac = rest / (grid[idx + 1] - grid[idx])
        v_up = values[..., idx] + frac * (values[..., idx + 1] - values[..., idx])
        full = full + 0.5 * rest * (values[..., idx] + v_up)
    return full


@dataclass(frozen=True)
class MartingaleStat:
    """Monte-Carlo test of E[discounted (spread-adjusted) bond] = time-0 value."""

    j: int
    t: float
    T: float
    mean: float
    stderr: float
    target: float

    @property
    def z(self) -> float:
        return (self.mean - self.target) / self.stderr


def martingale_check(paths: HJMPaths, j: int, t: float, T: float) -> MartingaleStat:
    """z-score of E[S^j_t B^j_t(T) / S^0_t] against S^j_0 B^j_0(T).

    Time-0 values use the same grid quadrature as the paths so that
    quadrature bias cancels from the comparison.
    """
    R_t, Y_t, bank_t = paths.at(t)
    R_0, Y_0, _ = paths.at(0.0)
    n_paths = R_t.shape[0]
    if n_paths < 100:
        raise ValueError("martingale check needs at least 100 paths")
    if not 0 <= j <= paths.m:
        raise ValueError(f"curve index {j} out of range")
    x = T - t
    log_bond = -grid_integral(R_t[:, j, :], paths.grid, x)
    log_spread = Y_t[:, j - 1] if j >= 1 else 0.0
    sample = np.exp(log_spread + log_bond - bank_t)
    target = float(
        np.exp(
            (Y_0[0, j - 1] if j >= 1 else 0.0)
            - grid_integral(R_0[0, j, :], paths.grid, T)
        )
    )
    mean = float(np.mean(sample))
    stderr = float(np.std(sample, ddof=1) / math.sqrt(n_paths))
    return MartingaleStat(j, t, T, mean, stderr, target)
