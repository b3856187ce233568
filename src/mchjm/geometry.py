"""Differential-geometric diagnostics for multi-curve HJM models.

Tools to decide, numerically, whether a parameterized family of forward
curves and log-spreads is invariant under a given model: tangency
(consistency) residuals, Lie brackets of the model vector fields together
with a span-dimension estimate for the algebra they generate, and
commutation checks that tell when a log-spread direction can be dropped
from the state of a finite-dimensional realization.

Family derivatives are exact: every :class:`ParamFamily` carries its own
Jacobian in closed form (the Nelson-Siegel curve blocks are linear in the
parameters, and the implied spreads have closed-form gradients), so a
tangency residual of a consistent family sits at rounding level.  Only the
Lie brackets use finite differences: central differences on analytic
states, with steps scaled to the size of the objects involved.  The model
fields are at most quadratic in the state for every volatility
specification in :mod:`mchjm.dynamics`, so single brackets are exact up to
rounding.  The steps, rank cutoffs and verdict tolerances are fixed module
constants, chosen so that rounding noise stays far below the rank and
verdict thresholds even for triply nested brackets; only the bracket step
(which the span estimate and the commutation check set differently) and
the tangency threshold are parameters.  Every field is discretized on
:data:`~mchjm.curves.DEFAULT_GRID`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import qe
from .curves import DEFAULT_GRID, AnalyticCurve, MultiCurveState, TangentVector
from .dynamics import VolSpec, single_factor_spec, stratonovich_drift

__all__ = [
    "ImmersionError",
    "VectorField",
    "perturbed_state",
    "model_fields",
    "lie_bracket_numeric",
    "span_dimension_estimate",
    "CommutationResult",
    "commutation_check",
    "ParamFamily",
    "family_jacobian",
    "TangencyReport",
    "tangency_residual",
    "HullWhiteStackParams",
    "spread_volatility_relation",
    "build_modified_ns_family",
    "nelson_siegel_family",
    "Strategy2Report",
    "verify_strategy2_consistency",
]


class ImmersionError(RuntimeError):
    """The family jacobian is rank deficient at the tested point."""


# Bracket steps (the largest state perturbation of one directional
# derivative): the default, which the commutation check uses, and the span
# estimate's.
_BRACKET_FD_STEP = 1e-3
_SPAN_FD_STEP = 2e-3
# Span estimate: a bracket below _PRUNE_REL_TOL times the largest norm seen
# is finite-difference noise; singular values below _SVD_REL_TOL times the
# largest do not count towards the dimension.
_PRUNE_REL_TOL = 1e-7
_SVD_REL_TOL = 1e-8
# A log-spread direction commutes when every relative bracket is below this.
_COMMUTES_REL_TOL = 1e-6
# Tangency verdict "consistent" needs every residual below this.
_CONSISTENT_TOL = 1e-6


# ---------------------------------------------------------------------------
# tangent vectors and model vector fields
# ---------------------------------------------------------------------------


VectorField = Callable[[MultiCurveState], TangentVector]


def perturbed_state(state: MultiCurveState, direction: TangentVector, eps: float) -> MultiCurveState:
    """state + eps * direction, exact in QE arithmetic so that transport
    terms of drifts evaluated at the perturbed state stay exact."""
    curves = tuple(AnalyticCurve(c.func + v * eps) for c, v in zip(state.curves, direction.curves))
    return MultiCurveState(curves, np.asarray(state.log_spreads) + eps * direction.spreads)


def model_fields(spec: VolSpec) -> tuple[VectorField, tuple[VectorField, ...]]:
    """The Stratonovich drift and the d diffusion fields of a model, as
    callables ``state -> TangentVector``."""

    def mu(state: MultiCurveState) -> TangentVector:
        return stratonovich_drift(state, spec)

    def diffusion(i: int) -> VectorField:
        def sig_i(state: MultiCurveState) -> TangentVector:
            vol = spec.fields(state)
            return TangentVector(tuple(row[i] for row in vol.sigma), vol.beta[:, i])

        return sig_i

    return mu, tuple(diffusion(i) for i in range(spec.d))


# ---------------------------------------------------------------------------
# Lie brackets and span estimates
# ---------------------------------------------------------------------------


def lie_bracket_numeric(
    v1: VectorField,
    v2: VectorField,
    state: MultiCurveState,
    fd_step: float = _BRACKET_FD_STEP,
) -> TangentVector:
    """[v1, v2] = (d v1) v2 - (d v2) v1 by symmetric finite differences.

    Each directional derivative uses a step scaled by the sup-norm of the
    direction it differentiates along, so the actual state perturbation
    never exceeds ``fd_step``.
    """
    w1 = v1(state)
    w2 = v2(state)

    def directional(f: VectorField, w: TangentVector) -> TangentVector:
        h = fd_step / (1.0 + w.sup_norm(DEFAULT_GRID))
        up = f(perturbed_state(state, w, h))
        dn = f(perturbed_state(state, w, -h))
        return (up - dn) * (0.5 / h)

    return directional(v1, w2) - directional(v2, w1)


def span_dimension_estimate(
    fields: Sequence[VectorField],
    state: MultiCurveState,
    bracket_depth: int,
) -> int:
    """Numerical dimension of the span of the fields and their iterated
    brackets at one state.

    Brackets are generated level by level: first all pairwise brackets of
    the generators, then brackets of the previous level against the
    generators.  A new bracket whose discretized norm falls below
    ``_PRUNE_REL_TOL`` times the largest norm seen so far is treated as
    finite-difference noise: it is neither counted nor bracketed further.
    Surviving columns are normalized before the SVD so that scale gaps
    between drift and diffusion directions cannot mask genuine ones.
    """
    if not 0 <= bracket_depth <= 3:
        raise ValueError("bracket depth must be between 0 and 3 (cost guard)")

    evaluated = [(f, f(state).values(DEFAULT_GRID)) for f in fields]
    max_norm = max((float(np.linalg.norm(c)) for _, c in evaluated), default=0.0)
    if max_norm == 0.0:
        return 0
    generators = [
        (f, c) for f, c in evaluated if np.linalg.norm(c) > _PRUNE_REL_TOL * max_norm
    ]
    if not generators:
        return 0
    columns = [c for _, c in generators]

    def bracket_field(x: VectorField, y: VectorField) -> VectorField:
        return lambda s: lie_bracket_numeric(x, y, s, fd_step=_SPAN_FD_STEP)

    level = generators
    for depth in range(1, bracket_depth + 1):
        if depth == 1:
            candidates = [
                bracket_field(f, h) for (f, _), (h, _) in itertools.combinations(generators, 2)
            ]
        else:
            candidates = [bracket_field(x, h) for x, _ in level for h, _ in generators]
        new_level = []
        for cand in candidates:
            col = cand(state).values(DEFAULT_GRID)
            nrm = float(np.linalg.norm(col))
            if nrm > _PRUNE_REL_TOL * max_norm:
                new_level.append((cand, col))
                columns.append(col)
                max_norm = max(max_norm, nrm)
        if not new_level:
            break
        level = new_level

    mat = np.stack([c / np.linalg.norm(c) for c in columns], axis=1)
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sv > _SVD_REL_TOL * sv[0]))


# ---------------------------------------------------------------------------
# commutation of log-spread directions with the model fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommutationResult:
    """Relative bracket norms of one log-spread direction against the model
    fields (drift first, then each diffusion field)."""

    residuals: tuple[float, ...]
    max_relative: float
    commutes: bool


def commutation_check(spec: VolSpec, state: MultiCurveState) -> dict[int, CommutationResult]:
    """For each log-spread index k = 1..m, does the coordinate direction of
    Y^k commute with the drift and diffusion fields of the model?

    When it does, the realization can carry Y^k as an autonomous extra
    coordinate instead of feeding it back into the other states.
    """
    m = spec.m
    mu, sigmas = model_fields(spec)
    fields = (mu, *sigmas)
    zero_curves = tuple(qe.QEFunction(()) for _ in range(m + 1))
    out: dict[int, CommutationResult] = {}
    for k in range(1, m + 1):
        e_k = np.zeros(m)
        e_k[k - 1] = 1.0
        gamma = TangentVector(zero_curves, e_k)

        def gamma_field(_state: MultiCurveState, _g=gamma) -> TangentVector:
            return _g

        rels = []
        for f in fields:
            br = lie_bracket_numeric(f, gamma_field, state)
            rels.append(br.sup_norm(DEFAULT_GRID) / (1.0 + f(state).sup_norm(DEFAULT_GRID)))
        worst = max(rels)
        out[k] = CommutationResult(tuple(rels), worst, worst < _COMMUTES_REL_TOL)
    return out


# ---------------------------------------------------------------------------
# parameterized families and tangency (consistency) checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamFamily:
    """Parameterized family z -> (m+1 forward curves, m log-spreads).

    ``curve_map`` returns the curves as QE functions so drifts of embedded
    states stay exact.  ``jacobian(z, grid)`` is the exact derivative of
    :meth:`values` in z, shape ``(len(grid) * (m+1) + m, param_dim)`` with
    the rows in the order of :meth:`values`.
    """

    param_dim: int
    m: int
    curve_map: Callable[[np.ndarray], tuple[qe.QEFunction, ...]]
    spread_map: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def embed(self, z: np.ndarray) -> MultiCurveState:
        z = np.asarray(z, dtype=float)
        curves = tuple(AnalyticCurve(f) for f in self.curve_map(z))
        return MultiCurveState(curves, self.spread_map(z))

    def _point(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.param_dim,):
            raise ValueError(f"parameter point must have shape ({self.param_dim},)")
        return z

    def values(self, z: np.ndarray, grid: np.ndarray) -> np.ndarray:
        """Discretized G(z): curve values on the grid, then the spreads."""
        z = self._point(z)
        g = np.asarray(grid, dtype=float)
        blocks = [qe.evaluate(f, g) for f in self.curve_map(z)]
        blocks.append(np.asarray(self.spread_map(z), dtype=float))
        return np.concatenate(blocks)


def family_jacobian(family: ParamFamily, z: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """d(discretized G)/dz at z: the family's exact ``jacobian``, checked
    against the shape of :meth:`ParamFamily.values`."""
    z = family._point(z)
    g = np.asarray(grid, dtype=float)
    jac = np.asarray(family.jacobian(z, g), dtype=float)
    rows = g.size * (family.m + 1) + family.m
    if jac.shape != (rows, family.param_dim):
        raise ValueError(f"family jacobian has shape {jac.shape}, "
                         f"expected ({rows}, {family.param_dim})")
    return jac


@dataclass(frozen=True)
class TangencyReport:
    """Relative least-squares residuals of the model fields against the
    tangent space of a family, with a three-way verdict.

    ``inconsistent`` when any residual exceeds ``threshold``;
    ``consistent`` when all stay below ``_CONSISTENT_TOL`` (1e-6); the band in
    between is ``inconclusive``.  The family Jacobian is exact, so the
    noise floor of the residual is rounding, about 1e-15, far below the
    band.
    """

    drift_residual: float
    diffusion_residuals: tuple[float, ...]
    threshold: float
    verdict: str

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent"


def _relative_lstsq_residual(jac: np.ndarray, target: np.ndarray) -> float:
    scale = float(np.linalg.norm(target))
    if scale == 0.0:
        return 0.0
    coef, *_ = np.linalg.lstsq(jac, target, rcond=None)
    return float(np.linalg.norm(jac @ coef - target)) / scale


def tangency_residual(
    family: ParamFamily,
    spec: VolSpec,
    z: np.ndarray,
    *,
    threshold: float = 1e-4,
) -> TangencyReport:
    """Least-squares tangency of the model fields to the family at G(z).

    Fits the Stratonovich drift and each diffusion field of the model,
    evaluated at the embedded state, against the columns of the family
    jacobian on the grid; residuals are relative to the field norms.
    Raises :class:`ImmersionError` when the jacobian is rank deficient
    (smallest singular value at or below 1e-10 times the largest), and
    ``ValueError`` for a ``threshold`` below ``_CONSISTENT_TOL``, which
    would call a consistent family inconsistent.
    """
    if not threshold >= _CONSISTENT_TOL:
        raise ValueError(f"tangency threshold {threshold:g} is below the consistency "
                         f"tolerance {_CONSISTENT_TOL:g}")
    z = np.asarray(z, dtype=float)
    jac = family_jacobian(family, z, DEFAULT_GRID)
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= 1e-10 * sv[0]:
        raise ImmersionError("family jacobian is rank deficient at this parameter point")

    state = family.embed(z)
    mu, sigmas = model_fields(spec)
    residuals = [_relative_lstsq_residual(jac, f(state).values(DEFAULT_GRID))
                 for f in (mu, *sigmas)]
    worst = max(residuals)
    if worst > threshold:
        verdict = "inconsistent"
    elif worst < _CONSISTENT_TOL:
        verdict = "consistent"
    else:
        verdict = "inconclusive"
    return TangencyReport(residuals[0], tuple(residuals[1:]), threshold, verdict)


# ---------------------------------------------------------------------------
# worked families: (modified) Nelson-Siegel under a single-factor stack
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HullWhiteStackParams:
    """Single-factor exponential-decay volatilities sigma^j e^{-a^j x} on a
    common Brownian motion, with scalar log-spread volatilities beta^j.
    ``beta`` may be left empty when only the curve blocks are needed."""

    sigma: tuple[float, ...]
    a: tuple[float, ...]
    beta: tuple[float, ...] = ()

    def __post_init__(self):
        sig = tuple(float(s) for s in self.sigma)
        dec = tuple(float(v) for v in self.a)
        bet = tuple(float(b) for b in self.beta)
        if not sig or len(sig) != len(dec):
            raise ValueError("need one (sigma, a) pair per curve")
        if any(s <= 0.0 for s in sig) or any(v <= 0.0 for v in dec):
            raise ValueError("sigma and a must be positive")
        if bet and len(bet) != len(dec) - 1:
            raise ValueError("need one beta per tenor")
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "a", dec)
        object.__setattr__(self, "beta", bet)

    @property
    def m(self) -> int:
        return len(self.a) - 1


def spread_volatility_relation(params: HullWhiteStackParams) -> tuple[float, ...]:
    """beta^j = sigma^j/a^j - sigma^0/a^0, the values that make the
    implied-spread family consistent."""
    s0, a0 = params.sigma[0], params.a[0]
    return tuple(s / a - s0 / a0 for s, a in zip(params.sigma[1:], params.a[1:]))


def _ns_jacobian(
    decays: Sequence[float], grid: np.ndarray, modified: bool, spread_rows: np.ndarray
) -> np.ndarray:
    """Jacobian of a (modified) Nelson-Siegel family: the curve blocks, then
    the ``spread_rows`` (m, p).  Each curve block is linear in its own
    coefficients, so its columns are the basis functions 1, e^{-ax},
    x e^{-ax} (and e^{-2ax} when ``modified``) on its grid rows."""
    n = grid.size
    k = 4 if modified else 3
    jac = np.zeros((n * len(decays), spread_rows.shape[1]))
    for j, a in enumerate(decays):
        e = np.exp(-a * grid)
        basis = [np.ones(n), e, grid * e]
        if modified:
            basis.append(np.exp(-2.0 * a * grid))
        jac[j * n : (j + 1) * n, j * k : (j + 1) * k] = np.column_stack(basis)
    return np.vstack([jac, spread_rows])


def build_modified_ns_family(params: HullWhiteStackParams, strategy: int) -> ParamFamily:
    """Curve blocks z1 + z2 e^{-ax} + z3 x e^{-ax} + z4 e^{-2ax} per tenor.

    The plain Nelson-Siegel family is not invariant under exponential-decay
    volatilities; adding the e^{-2ax} term absorbs the squared-volatility
    drift.  Log-spreads are handled one of two ways:

    * strategy 1 - one free coordinate u^j per tenor (dimension 5m+4);
      consistent for every positive parameter set.
    * strategy 2 - spreads implied from the curve blocks through a
      logarithmic expression in z3 (dimension 4(m+1)); consistent exactly
      when beta^j = sigma^j/a^j - sigma^0/a^0.

    Strategy 2 needs ``params.sigma`` and ``params.beta``; its spread map and
    jacobian raise ``ValueError`` outside the z3 > 0 log domain.
    """
    decays = params.a
    m = params.m
    n_curve = 4 * (m + 1)

    def curve_map(z: np.ndarray) -> tuple[qe.QEFunction, ...]:
        return tuple(
            qe.constant(z[4 * j])
            + qe.poly_exp((z[4 * j + 1], z[4 * j + 2]), -decays[j])
            + qe.exponential(z[4 * j + 3], -2.0 * decays[j])
            for j in range(m + 1)
        )

    if strategy == 1:

        def free_spreads(z: np.ndarray) -> np.ndarray:
            return np.asarray(z[n_curve:], dtype=float).copy()

        def free_jacobian(z: np.ndarray, grid: np.ndarray) -> np.ndarray:
            return _ns_jacobian(decays, grid, True, np.eye(m, n_curve + m, n_curve))

        return ParamFamily(n_curve + m, m, curve_map, free_spreads, free_jacobian)

    if strategy == 2:
        sig = params.sigma
        bet = params.beta
        if len(bet) != m:
            raise ValueError("the implied-spread construction needs one beta per tenor")
        s0, a0 = sig[0], decays[0]

        def tenor_parts(z: np.ndarray):
            """Per tenor j: j, its block z^j, a^j and the coefficients of
            log z3 in the base part and in the tenor part of its spread."""
            if np.any(z[2::4] <= 0.0):
                raise ValueError("implied spreads need z3 > 0 in every curve block")
            for j in range(1, m + 1):
                zj = z[4 * j : 4 * j + 4]
                sj, aj, bj = sig[j], decays[j], bet[j - 1]
                yield (
                    j, zj, aj,
                    -z[0] - s0 ** 2 / (2.0 * a0 ** 2) + 0.5 * bj ** 2,
                    zj[0] + sj ** 2 / (2.0 * aj ** 2) - bj * sj / aj,
                )

        def implied_spreads(z: np.ndarray) -> np.ndarray:
            z = np.asarray(z, dtype=float)
            out = np.empty(m)
            for j, zj, aj, base_log, tenor_log in tenor_parts(z):
                base_block = (-z[1] + base_log * math.log(z[2]) - z[2] / a0 - 0.5 * z[3]) / a0
                tenor_block = (zj[1] + tenor_log * math.log(zj[2]) + zj[2] / aj + 0.5 * zj[3]) / aj
                out[j - 1] = base_block + tenor_block
            return out

        def implied_jacobian(z: np.ndarray, grid: np.ndarray) -> np.ndarray:
            z = np.asarray(z, dtype=float)
            rows = np.zeros((m, n_curve))
            for j, zj, aj, base_log, tenor_log in tenor_parts(z):
                rows[j - 1, :4] = np.array(
                    (-math.log(z[2]), -1.0, base_log / z[2] - 1.0 / a0, -0.5)) / a0
                rows[j - 1, 4 * j : 4 * j + 4] = np.array(
                    (math.log(zj[2]), 1.0, tenor_log / zj[2] + 1.0 / aj, 0.5)) / aj
            return _ns_jacobian(decays, grid, True, rows)

        return ParamFamily(n_curve, m, curve_map, implied_spreads, implied_jacobian)

    raise ValueError("strategy must be 1 or 2")


def nelson_siegel_family(decays: Sequence[float]) -> ParamFamily:
    """Plain blocks z1 + (z2 + z3 x) e^{-ax} with free log-spread coordinates
    (the classical family; not invariant under exponential-decay
    volatilities)."""
    dec = tuple(float(v) for v in decays)
    m = len(dec) - 1
    n_curve = 3 * (m + 1)

    def curve_map(z: np.ndarray) -> tuple[qe.QEFunction, ...]:
        return tuple(
            qe.nelson_siegel(z[3 * j], z[3 * j + 1], z[3 * j + 2], dec[j]) for j in range(m + 1)
        )

    def spread_map(z: np.ndarray) -> np.ndarray:
        return np.asarray(z[n_curve:], dtype=float).copy()

    def jacobian(z: np.ndarray, grid: np.ndarray) -> np.ndarray:
        return _ns_jacobian(dec, grid, False, np.eye(m, n_curve + m, n_curve))

    return ParamFamily(n_curve + m, m, curve_map, spread_map, jacobian)


# ---------------------------------------------------------------------------
# implied-spread consistency verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Strategy2Report:
    """Tangency of the implied-spread family with beta set by the relation,
    plus a negative control with beta scaled by 1.1 (None when m = 0)."""

    beta: tuple[float, ...]
    main: TangencyReport
    control: Optional[TangencyReport]

    @property
    def consistent(self) -> bool:
        return self.main.verdict == "consistent"


def verify_strategy2_consistency(
    params: HullWhiteStackParams,
    tolerance: float = 1e-4,
) -> Strategy2Report:
    """Check the implied-spread family against the single-factor stack model.

    Sets beta^j = sigma^j/a^j - sigma^0/a^0 and runs the tangency check;
    the control scales beta by 1.1 in both the family and the model, which
    breaks the diffusion tangency whenever beta is nonzero (the drift
    identity holds for any beta, so only diffusion residuals move).  The
    parameter point keeps z3 = 0.5, well inside the log domain.
    """
    base = HullWhiteStackParams(params.sigma, params.a)
    beta = spread_volatility_relation(base)
    m = base.m
    point = np.tile((0.02, -0.015, 0.5, 0.002), m + 1)

    def run(bet: tuple[float, ...]) -> TangencyReport:
        p = HullWhiteStackParams(base.sigma, base.a, bet)
        family = build_modified_ns_family(p, strategy=2)
        spec = single_factor_spec(p.sigma, p.a, p.beta)
        return tangency_residual(family, spec, point, threshold=tolerance)

    main = run(beta)
    control = run(tuple(1.1 * b for b in beta)) if m else None
    return Strategy2Report(beta, main, control)
