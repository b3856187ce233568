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
* ``ConstantDirectionVolSpec`` — sigma^j_i(r)(x) = phi^j_i(r) lambda^j_i(x)
  with scalar state-dependent loadings phi, beta.  The spec builds the
  kernels D^j_i = lambda^j_i H lambda^j_i once at construction
  (``ConstantDirectionVolSpec.D``); at a state the volatility part of the
  drift is sum_i phi^2 D^j_i - beta phi lambda^j_i.  The Stratonovich
  correction involves the Frechet derivatives of phi and beta; for the
  built-in constant / affine-in-log-spread loadings these are exact, for
  custom callables they are central finite differences with step
  1e-6 (1 + sup-norm of the state).

``ito_drift`` and ``simulate_hjm`` both read these cached kernels.

``simulate_hjm`` is an Euler-Maruyama scheme on a uniform maturity grid with
*upwind* differencing for the transport term F r (flat beyond the far grid
end, so the derivative there is 0).  ``ito_drift``/``stratonovich_drift`` on
sampled curves use central differences instead (one-sided at the ends).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import qe
from .curves import (
    DEFAULT_GRID,
    AnalyticCurve,
    ForwardCurve,
    MultiCurveState,
    SampledCurve,
)

__all__ = [
    "NonzeroConditionError",
    "NumericalError",
    "ScalarField",
    "ConstantVolSpec",
    "ConstantDirectionVolSpec",
    "VolSpec",
    "Drift",
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
    "state_sup_norm",
]

_FD_SCALE = 1e-6  # Frechet-derivative step scale


class NonzeroConditionError(ValueError):
    """A structurally nonzero loading evaluated to zero at the current state."""


class NumericalError(RuntimeError):
    """A simulation produced non-finite values."""


# ---------------------------------------------------------------------------
# scalar loadings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """Scalar function of the multi-curve state.

    Kinds: ``constant``; ``affine`` = c0 + c1 * Y^k (log-spread k >= 1);
    ``custom`` = arbitrary callable of the state.
    """

    kind: str
    const: float = 0.0
    slope: float = 0.0
    spread_index: int = 1
    fn: Optional[Callable[[MultiCurveState], float]] = None

    @staticmethod
    def constant(c: float) -> "ScalarField":
        return ScalarField("constant", const=float(c))

    @staticmethod
    def affine_log_spread(c0: float, c1: float, k: int) -> "ScalarField":
        if k < 1:
            raise ValueError("log-spread index must be >= 1")
        return ScalarField("affine", const=float(c0), slope=float(c1), spread_index=k)

    @staticmethod
    def custom(fn: Callable[[MultiCurveState], float]) -> "ScalarField":
        return ScalarField("custom", fn=fn)

    @property
    def identically_zero(self) -> bool:
        if self.kind == "constant":
            return self.const == 0.0
        if self.kind == "affine":
            return self.const == 0.0 and self.slope == 0.0
        return False

    def __call__(self, state: MultiCurveState) -> float:
        if self.kind == "constant":
            return self.const
        if self.kind == "affine":
            return self.const + self.slope * float(state.log_spreads[self.spread_index - 1])
        return float(self.fn(state))

    # Frechet derivatives -------------------------------------------------

    def d_log_spread(self, state: MultiCurveState, k: int, step: float) -> float:
        """d field / d Y^k at the state."""
        if self.kind == "constant":
            return 0.0
        if self.kind == "affine":
            return self.slope if k == self.spread_index else 0.0
        y_plus = np.array(state.log_spreads)
        y_minus = np.array(state.log_spreads)
        y_plus[k - 1] += step
        y_minus[k - 1] -= step
        up = self.fn(MultiCurveState(state.curves, y_plus))
        dn = self.fn(MultiCurveState(state.curves, y_minus))
        return (up - dn) / (2 * step)

    def d_curve(self, state: MultiCurveState, h: int, direction: qe.QEFunction, step: float) -> float:
        """Directional derivative w.r.t. curve r^h in the given direction."""
        if self.kind in ("constant", "affine"):
            return 0.0
        up = self.fn(_perturb_curve(state, h, direction, step))
        dn = self.fn(_perturb_curve(state, h, direction, -step))
        return (up - dn) / (2 * step)


def _perturb_curve(state: MultiCurveState, h: int, direction: qe.QEFunction, eps: float) -> MultiCurveState:
    curves = list(state.curves)
    curves[h] = curves[h].plus(direction * eps)
    return MultiCurveState(tuple(curves), state.log_spreads)


def state_sup_norm(state: MultiCurveState, grid: Optional[np.ndarray] = None) -> float:
    """Sup-norm of the state: max |curve values| on the grid and |log-spreads|."""
    out = float(np.max(np.abs(state.log_spreads))) if state.m else 0.0
    for c in state.curves:
        g = c.grid if isinstance(c, SampledCurve) else (DEFAULT_GRID if grid is None else grid)
        out = max(out, float(np.max(np.abs(c.value(g)))))
    return out


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
    """sigma^j_i(r)(x) = phi^j_i(r) lambda^j_i(x), beta^j_i = beta^j_i(r).

    ``lam[j][i]`` are QE curves, ``phi[j][i]`` and ``beta[j-1][i]`` scalar
    fields.  Identically-zero entries mean "factor i does not drive
    component j" and are allowed; a *structurally* nonzero field evaluating
    to zero at a state raises ``NonzeroConditionError`` (it breaks the drift
    inversion of the associated realization).
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
        """phi (m+1, d) and beta (m, d) at the state, after ``check_nonzero``."""
        self.check_nonzero(state)
        phi = np.array([[f(state) for f in row] for row in self.phi])
        beta = np.array([[f(state) for f in row] for row in self.beta]).reshape(self.m, self.d)
        return phi, beta

    def check_nonzero(self, state: MultiCurveState) -> None:
        for j, row in enumerate(self.phi):
            for i, f in enumerate(row):
                if not f.identically_zero and abs(f(state)) < 1e-12:
                    raise NonzeroConditionError(f"phi[{j}][{i}] vanished at the current state")
        for j, row in enumerate(self.beta):
            for i, f in enumerate(row):
                if not f.identically_zero and abs(f(state)) < 1e-12:
                    raise NonzeroConditionError(f"beta[{j + 1}][{i}] vanished at the current state")


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


@dataclass(frozen=True)
class Drift:
    """Curve drifts (as curves) and log-spread drifts (scalars)."""

    curves: tuple[ForwardCurve, ...]
    spreads: np.ndarray

    def curve_values(self, grid: np.ndarray) -> np.ndarray:
        return np.stack([c.value(grid) for c in self.curves])


def _transport_term(curve: ForwardCurve) -> ForwardCurve:
    """F r as a curve: exact for analytic, central differences for sampled."""
    if isinstance(curve, AnalyticCurve):
        return AnalyticCurve(qe.derive(curve.func))
    deriv = np.gradient(curve.values, curve.grid)
    return SampledCurve(curve.grid, deriv)


def sigma_fields(spec: VolSpec, state: MultiCurveState):
    """sigma^j_i at this state as QE curves, and beta values as an (m, d) array."""
    if isinstance(spec, ConstantVolSpec):
        return spec.sigma, np.array(spec.beta)
    phi, beta = spec.loadings(state)
    sig = tuple(tuple(f * p for f, p in zip(lam, ph)) for lam, ph in zip(spec.lam, phi))
    return sig, beta


def ito_drift(state: MultiCurveState, spec: VolSpec) -> Drift:
    """Risk-neutral Ito drift of (r^0..r^m, Y^1..Y^m)."""
    if state.m != spec.m:
        raise ValueError("state and volatility spec disagree on the number of tenors")
    m = state.m
    if isinstance(spec, ConstantVolSpec):
        beta = spec.beta
        vol = [spec.vol_drift(j) for j in range(m + 1)]
    else:
        phi, beta = spec.loadings(state)
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
    curves_out = [_transport_term(c).plus(v) for c, v in zip(state.curves, vol)]
    r0_short = state.curves[0].value(0.0)
    spread_out = np.array(
        [
            r0_short - state.curves[j].value(0.0) - 0.5 * float(beta[j - 1] @ beta[j - 1])
            for j in range(1, m + 1)
        ]
    )
    return Drift(tuple(curves_out), spread_out)


def stratonovich_drift(state: MultiCurveState, spec: VolSpec) -> Drift:
    """Ito drift minus the 1/2 (d sigma_hat) sigma_hat correction.

    For constant volatilities the correction vanishes and this equals
    ``ito_drift`` exactly.
    """
    base = ito_drift(state, spec)
    if isinstance(spec, ConstantVolSpec):
        return base
    m, d = spec.m, spec.d
    step = _FD_SCALE * (1.0 + state_sup_norm(state))
    phi_val, beta_val = spec.loadings(state)

    def dfield(f: ScalarField, i: int) -> float:
        """(d f)[sigma_hat_i] — derivative of f along the i-th diffusion field."""
        out = 0.0
        for h in range(m + 1):
            if not spec.lam[h][i].is_zero and phi_val[h, i] != 0.0:
                der = f.d_curve(state, h, spec.lam[h][i], step)
                if der != 0.0:
                    out += der * phi_val[h, i]
        for h in range(1, m + 1):
            b = beta_val[h - 1, i]
            if b != 0.0:
                out += f.d_log_spread(state, h, step) * b
        return out

    curves_out = []
    for j in range(m + 1):
        corr = qe.QEFunction(())
        for i in range(d):
            f = spec.phi[j][i]
            if spec.lam[j][i].is_zero or f.identically_zero:
                continue
            # the beta.sigma part of the full kappa already sits in the Ito
            # drift; only the d(phi) half remains to subtract here
            kappa = 0.5 * dfield(f, i)
            corr = corr + spec.lam[j][i] * (-kappa)
        curves_out.append(base.curves[j].plus(corr))
    spreads_out = np.array(base.spreads)
    for j in range(1, m + 1):
        corr = 0.0
        for i in range(d):
            f = spec.beta[j - 1][i]
            if f.identically_zero:
                continue
            corr += 0.5 * dfield(f, i)
        spreads_out[j - 1] -= corr
    return Drift(tuple(curves_out), spreads_out)


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
        if self.dt <= 0 or self.horizon <= 0:
            raise ValueError("dt and horizon must be positive")
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


def _upwind(R: np.ndarray, dx: float) -> np.ndarray:
    out = np.empty_like(R)
    out[..., :-1] = (R[..., 1:] - R[..., :-1]) / dx
    out[..., -1] = 0.0  # flat extrapolation beyond the far end
    return out


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

    R = np.broadcast_to(
        np.stack([c.value(grid) for c in initial.curves]), (n_paths, m + 1, nx)
    ).copy()
    Y = np.broadcast_to(np.array(initial.log_spreads), (n_paths, m)).copy()
    bank = np.zeros(n_paths)

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

    def cdv_loadings():
        """phi (n_paths, m+1, d) and beta (n_paths, m, d) at the current states."""
        phi = np.empty((n_paths, m + 1, d))
        bet = np.empty((n_paths, m, d))
        custom_states = None
        for fields, vals in ((spec.phi, phi), (spec.beta, bet)):
            for j, row in enumerate(fields):
                for i, f in enumerate(row):
                    if f.kind == "constant":
                        vals[:, j, i] = f.const
                    elif f.kind == "affine":
                        vals[:, j, i] = f.const + f.slope * Y[:, f.spread_index - 1]
                    else:
                        if custom_states is None:
                            custom_states = [
                                MultiCurveState(
                                    tuple(SampledCurve(grid, R[p, jj]) for jj in range(m + 1)), Y[p]
                                )
                                for p in range(n_paths)
                            ]
                        vals[:, j, i] = [f(s) for s in custom_states]
        return phi, bet

    out = HJMPaths(grid, m, rec, [], [], [])

    def record():
        out.curves.append(R.copy())
        out.log_spreads.append(Y.copy())
        out.bank.append(bank.copy())

    next_rec = 0
    if rec_steps and rec_steps[0] == 0:
        record()
        next_rec = 1

    for step in range(n_steps):
        dW = increments[:, step, :]  # (n_paths, d)
        r0_old = R[:, 0, 0].copy()
        Fr = _upwind(R, dx)
        if const_vol:
            alpha = Fr + vol_drift[None, :, :] + drift_shift
            dY = dt * (
                R[:, 0, 0][:, None] - R[:, 1:, 0] - half_beta_sq[None, :]
            ) + dW @ beta_arr.T
            R += dt * alpha + np.einsum("pi,jix->pjx", dW, sig_arr)
            Y += dY
        else:
            phi, bet = cdv_loadings()
            alpha = Fr + np.einsum("pji,jix->pjx", phi**2, D_arr) + drift_shift
            alpha[:, 1:, :] -= np.einsum("pji,pji,jix->pjx", bet, phi[:, 1:, :], lam_arr[1:])
            dY = dt * (
                R[:, :1, 0] - R[:, 1:, 0] - 0.5 * np.sum(bet**2, axis=2)
            ) + np.einsum("pji,pi->pj", bet, dW)
            R += dt * alpha + np.einsum("pji,jix,pi->pjx", phi, lam_arr, dW)
            Y += dY
        bank += 0.5 * (r0_old + R[:, 0, 0]) * dt
        if not np.all(np.isfinite(R[:, :, 0])):
            raise NumericalError(f"non-finite state at step {step + 1}")
        if next_rec < len(rec_steps) and rec_steps[next_rec] == step + 1:
            if not (np.all(np.isfinite(R)) and np.all(np.isfinite(Y))):
                raise NumericalError(f"non-finite state at step {step + 1}")
            record()
            next_rec += 1
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
