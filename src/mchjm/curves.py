"""Multi-curve term structures with multiplicative spreads.

The market state is one risk-free instantaneous forward curve r^0, one
risk-sensitive curve r^j per tenor delta_j, and the log of the spot
multiplicative spread Y^j between them.  Curves live in Musiela
parametrization: x is time to maturity, so the (fictitious) bond prices are

    B^j(x) = exp(-int_0^x r^j(s) ds),

and the spot spread is S^j = exp(Y^j).

Every curve of a state is an ``AnalyticCurve``: an exact quasi-exponential
function whose integrals come from the symbolic H operator, so drifts and
the finite-difference calculus of :mod:`mchjm.geometry` stay exact in the
curve direction.  A ``TangentVector`` is the one vector type of the state
space (drifts, diffusion fields and Lie brackets): one QE curve per tenor
plus an m-vector of log-spread components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qe

__all__ = [
    "DEFAULT_GRID",
    "AnalyticCurve",
    "MultiCurveState",
    "TangentVector",
]

#: Default maturity grid: 0 to 10 years, 6 business-week spacing (201 nodes).
DEFAULT_GRID = np.linspace(0.0, 10.0, 201)


@dataclass(frozen=True)
class AnalyticCurve:
    """Forward curve given by an exact quasi-exponential expression."""

    func: qe.QEFunction

    def value(self, x):
        return qe.evaluate(self.func, x)


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
