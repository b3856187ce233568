"""Multi-curve term structures with multiplicative spreads.

The market state is one risk-free instantaneous forward curve r^0, one
risk-sensitive curve r^j per tenor delta_j, and the log of the spot
multiplicative spread Y^j between them.  Curves live in Musiela
parametrization: x is time to maturity, so the (fictitious) bond prices are

    B^j(x) = exp(-int_0^x r^j(s) ds),

and the spot spread is S^j = exp(Y^j).  Simple forward rates and the
tenor-j rates implied by the spread/bond system follow from

    1 + delta_j L^j(T, T+delta_j) = S^j B^j(T-t) / B^0(T-t+delta_j),

which reduces to the textbook formula when r^j = r^0 and Y^j = 0.

Curves come in two flavors: analytic (an exact quasi-exponential function,
integrals via the symbolic H operator) and sampled (values on a maturity
grid, linear interpolation, trapezoid integrals).  Sampled curves are
extended *flat* beyond their grid on both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import qe

__all__ = [
    "DEFAULT_GRID",
    "AnalyticCurve",
    "SampledCurve",
    "ForwardCurve",
    "TenorStructure",
    "MultiCurveState",
    "bond_price",
    "yield_value",
    "simple_forward_rate",
    "implied_risk_sensitive_rate",
    "spot_spread",
]

#: Default maturity grid: 0 to 10 years, 6 business-week spacing (201 nodes).
DEFAULT_GRID = np.linspace(0.0, 10.0, 201)


@dataclass(frozen=True)
class AnalyticCurve:
    """Forward curve given by an exact quasi-exponential expression."""

    func: qe.QEFunction

    def value(self, x):
        return qe.evaluate(self.func, x)

    def integral(self, x):
        """int_0^x r(s) ds, closed form."""
        return qe.evaluate(qe.integrate_from_zero(self.func), x)

    def plus(self, f: qe.QEFunction) -> "AnalyticCurve":
        """The curve r + f, exactly."""
        return AnalyticCurve(self.func + f)


@dataclass(frozen=True)
class SampledCurve:
    """Forward curve sampled on an ascending maturity grid.

    Linear interpolation between nodes; flat extrapolation outside.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if g.size < 2 or np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing with >= 2 nodes")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(v))):
            raise ValueError("grid and values must be finite")
        if g[0] < 0:
            raise ValueError("maturity grid must start at x >= 0")
        g.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    def value(self, x):
        out = np.interp(np.asarray(x, dtype=float), self.grid, self.values)
        return float(out) if np.ndim(x) == 0 else out

    def plus(self, f: qe.QEFunction) -> "SampledCurve":
        """The curve r + f, with f sampled on the same grid."""
        return SampledCurve(self.grid, self.values + qe.evaluate(f, self.grid))

    def integral(self, x):
        """int_0^x of the interpolant (flat outside the grid)."""
        g, v = self.grid, self.values
        nodes = np.concatenate(([0.0], g)) if g[0] > 0 else g
        vals = np.concatenate(([v[0]], v)) if g[0] > 0 else v
        cum = np.concatenate(([0.0], np.cumsum(np.diff(nodes) * 0.5 * (vals[:-1] + vals[1:]))))
        xarr = np.asarray(x, dtype=float)
        inside = np.clip(xarr, nodes[0], nodes[-1])
        idx = np.clip(np.searchsorted(nodes, inside, side="right") - 1, 0, len(nodes) - 2)
        x0 = nodes[idx]
        v0 = vals[idx]
        vx = v0 + (vals[idx + 1] - v0) * (inside - x0) / (nodes[idx + 1] - x0)
        out = cum[idx] + (inside - x0) * 0.5 * (v0 + vx)
        out = out + (xarr - inside) * np.where(xarr > nodes[-1], vals[-1], vals[0])
        return float(out) if np.ndim(x) == 0 else out


ForwardCurve = Union[AnalyticCurve, SampledCurve]


@dataclass(frozen=True)
class TenorStructure:
    """The tenors delta_1 < ... < delta_m of the risk-sensitive curves."""

    tenors: tuple[float, ...]

    def __post_init__(self):
        t = tuple(float(d) for d in self.tenors)
        if any(d <= 0 for d in t) or any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError("tenors must be positive and strictly increasing")
        object.__setattr__(self, "tenors", t)

    @property
    def m(self) -> int:
        return len(self.tenors)


@dataclass(frozen=True)
class MultiCurveState:
    """Curves (r^0, r^1, ..., r^m) plus log-spreads (Y^1, ..., Y^m)."""

    curves: tuple[ForwardCurve, ...]
    log_spreads: np.ndarray

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.log_spreads, dtype=float))
        if len(self.curves) != y.size + 1:
            raise ValueError(
                f"{len(self.curves)} curves need {len(self.curves) - 1} log-spreads, got {y.size}"
            )
        if not np.all(np.isfinite(y)):
            raise ValueError("log-spreads must be finite")
        y.setflags(write=False)
        object.__setattr__(self, "curves", tuple(self.curves))
        object.__setattr__(self, "log_spreads", y)

    @property
    def m(self) -> int:
        return len(self.curves) - 1


def bond_price(curve: ForwardCurve, x) -> float:
    """B(x) = exp(-int_0^x r); equals 1 at x = 0."""
    return np.exp(-curve.integral(x)) if np.ndim(x) else float(math.exp(-curve.integral(x)))


def yield_value(curve: ForwardCurve, x) -> float:
    """Continuously compounded yield int_0^x r / x (undefined at x = 0)."""
    xarr = np.asarray(x, dtype=float)
    if np.any(xarr <= 0):
        raise ValueError("yield is defined for x > 0 only")
    out = curve.integral(xarr) / xarr
    return float(out) if np.ndim(x) == 0 else out


def simple_forward_rate(curve: ForwardCurve, T: float, delta: float) -> float:
    """Simply compounded forward rate L(T, T + delta) off one curve."""
    if delta <= 0:
        raise ValueError("tenor must be positive")
    return (bond_price(curve, T) / bond_price(curve, T + delta) - 1.0) / delta


def spot_spread(state: MultiCurveState, j: int) -> float:
    """Multiplicative spot spread S^j = exp(Y^j); S^0 = 1 by convention."""
    if j == 0:
        return 1.0
    return float(math.exp(state.log_spreads[j - 1]))


def implied_risk_sensitive_rate(
    state: MultiCurveState, tenors: TenorStructure, j: int, T: float
) -> float:
    """Tenor-j simple rate L^j(T, T + delta_j) implied by the current state.

    Inverts the fictitious-bond definition: with x = time to the fixing,

        1 + delta_j L^j = S^j B^j(x) / B^0(x + delta_j).

    For j = 0 this is just the risk-free simple forward rate.
    """
    if not 0 <= j <= state.m:
        raise ValueError(f"curve index {j} out of range")
    if T < 0:
        raise ValueError("fixing time must be >= 0 (Musiela time to fixing)")
    if j == 0:
        # Any positive accrual works for the risk-free curve; use the shortest
        # tenor of the structure for symmetry with the spread definition.
        delta = tenors.tenors[0]
        return simple_forward_rate(state.curves[0], T, delta)
    delta = tenors.tenors[j - 1]
    num = spot_spread(state, j) * bond_price(state.curves[j], T)
    den = bond_price(state.curves[0], T + delta)
    return (num / den - 1.0) / delta
