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

Every curve of a state is an ``AnalyticCurve``: an exact quasi-exponential
function whose integrals come from the symbolic H operator, so drifts and
the finite-difference calculus of :mod:`mchjm.geometry` stay exact in the
curve direction.  A ``TangentVector`` is the one vector type of the state
space (drifts, diffusion fields and Lie brackets): one QE curve per tenor
plus an m-vector of log-spread components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qe

__all__ = [
    "DEFAULT_GRID",
    "AnalyticCurve",
    "TenorStructure",
    "MultiCurveState",
    "TangentVector",
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

    curves: tuple[AnalyticCurve, ...]
    log_spreads: np.ndarray

    def __post_init__(self):
        curves = tuple(self.curves)
        for c in curves:
            if not isinstance(c, AnalyticCurve):
                raise TypeError(f"state curves must be AnalyticCurve, got {type(c).__name__}")
        y = np.atleast_1d(np.asarray(self.log_spreads, dtype=float))
        if len(curves) != y.size + 1:
            raise ValueError(
                f"{len(curves)} curves need {len(curves) - 1} log-spreads, got {y.size}"
            )
        if not np.all(np.isfinite(y)):
            raise ValueError("log-spreads must be finite")
        y.setflags(write=False)
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "log_spreads", y)

    @property
    def m(self) -> int:
        return len(self.curves) - 1


@dataclass(frozen=True)
class TangentVector:
    """Direction in the state space: one QE curve per tenor plus an m-vector
    of log-spread components."""

    curves: tuple[qe.QEFunction, ...]
    spreads: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "curves", tuple(self.curves))
        s = np.asarray(self.spreads, dtype=float).reshape(-1).copy()
        s.setflags(write=False)
        object.__setattr__(self, "spreads", s)

    def _check(self, other: "TangentVector") -> None:
        if len(self.curves) != len(other.curves) or self.spreads.size != other.spreads.size:
            raise ValueError("tangent vectors live on different state spaces")

    def __add__(self, other: "TangentVector") -> "TangentVector":
        self._check(other)
        return TangentVector(
            tuple(a + b for a, b in zip(self.curves, other.curves)),
            self.spreads + other.spreads,
        )

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        return self + (other * -1.0)

    def __mul__(self, c) -> "TangentVector":
        c = float(c)
        return TangentVector(tuple(f * c for f in self.curves), self.spreads * c)

    __rmul__ = __mul__

    def values(self, grid: np.ndarray) -> np.ndarray:
        """Discretization: curve values on the grid, then the spread entries."""
        g = np.asarray(grid, dtype=float)
        blocks = [qe.evaluate(f, g) for f in self.curves]
        blocks.append(self.spreads)
        return np.concatenate(blocks)

    def sup_norm(self, grid: np.ndarray) -> float:
        return float(np.max(np.abs(self.values(grid))))


def bond_price(curve: AnalyticCurve, x) -> float:
    """B(x) = exp(-int_0^x r); equals 1 at x = 0."""
    return np.exp(-curve.integral(x)) if np.ndim(x) else float(math.exp(-curve.integral(x)))


def yield_value(curve: AnalyticCurve, x) -> float:
    """Continuously compounded yield int_0^x r / x (undefined at x = 0)."""
    xarr = np.asarray(x, dtype=float)
    if np.any(xarr <= 0):
        raise ValueError("yield is defined for x > 0 only")
    out = curve.integral(xarr) / xarr
    return float(out) if np.ndim(x) == 0 else out


def simple_forward_rate(curve: AnalyticCurve, T: float, delta: float) -> float:
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
