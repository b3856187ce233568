"""Finite-dimensional state-space realizations of the curve dynamics.

A realization replaces the infinite-dimensional curve/spread state by a
process ``Z`` in R^n together with an embedding ``G`` such that
``(r_t, Y_t) = G(Z_t)``.  This module provides

* :func:`build_constant_vol_fdr` — the generic construction for a
  state-independent :class:`~mchjm.dynamics.VolSpec` (every loading
  constant), driven by minimal annihilators of the volatility curves;
* :func:`build_hw3_fdr` — the three-curve, single-factor mean-reverting
  stack in fully explicit closed form (five state variables);
* :func:`build_cdv_example_fdr` — a minimal six-dimensional realization
  of :func:`cdv_example_spec`, whose spread loadings depend on the state
  (three factors);
* :func:`hw3_affine_observables` — the three-curve model's yields and
  log-spreads as affine maps of its factor block and curve level, the
  closed form that calibration and data synthesis evaluate, and
  :func:`hw3_observables`, one day's yields and log-spreads from it;
* :func:`simulate_state` — a Heun (Stratonovich) integrator for the state
  process that steps all paths as one batch, couplable to
  :func:`~mchjm.dynamics.simulate_hjm` through shared Brownian increments;
* benchmark coordinates: observable linear functionals (forward rates at
  fixed maturities plus log-spreads) used as an alternative state vector,
  with the associated Jacobian test and Newton inversion.

Conventions.  State component 0 is the running-time coordinate (unit
drift); the embedding composes a time shift of the initial curves with the
volatility-generated directions, so the origin maps onto the initial
configuration; :func:`simulate_state` and the benchmark chart start there.
All drifts here are Stratonovich.  The drift and diffusion fields of
every builder take a batch of states ``(..., n)``, and each state in a
batch gets the values it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import qe
from .curves import AnalyticCurve, MultiCurveState
from .dynamics import (
    NonzeroConditionError,
    NumericalError,
    ScalarField,
    SimConfig,
    VolSpec,
    record_index,
)

__all__ = [
    "FDRRealization",
    "StatePaths",
    "build_constant_vol_fdr",
    "build_hw3_fdr",
    "build_cdv_example_fdr",
    "cdv_example_spec",
    "hw3_affine_observables",
    "hw3_observables",
    "heun_step",
    "simulate_state",
    "BenchmarkSystem",
    "benchmark_observables",
    "benchmark_coordinates",
    "state_from_observables",
    "choose_benchmark_coefficients",
]


# ---------------------------------------------------------------------------
# container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FDRRealization:
    """An n-dimensional realization ``dZ = a(Z) dt + b(Z) ∘ dW``.

    ``drift(z)`` maps states ``(..., n)`` to drifts ``(..., n)``, and
    ``diffusion(z)`` to ``(..., n, d)`` matrices; a diffusion that does not
    depend on the state may return one ``(n, d)`` matrix for any batch.
    ``embed_curves(z)`` returns the m+1 forward curves as quasi-exponential
    functions (so downstream consumers can differentiate and integrate them
    exactly); ``embed_spreads(z)`` the m log-spreads.  Every builder maps
    the origin onto the initial curve configuration.
    """

    n: int
    m: int
    d: int
    embed_curves: Callable[[np.ndarray], tuple]
    embed_spreads: Callable[[np.ndarray], np.ndarray]
    drift: Callable[[np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]

    def embed(self, z: np.ndarray) -> MultiCurveState:
        """Map a state vector to the corresponding curve configuration."""
        curves = tuple(AnalyticCurve(f) for f in self.embed_curves(np.asarray(z, dtype=float)))
        return MultiCurveState(curves, self.embed_spreads(np.asarray(z, dtype=float)))

    def curve_values(self, z: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Forward-rate values G^j(z, x), shape (m+1, len(x))."""
        x = np.asarray(x, dtype=float)
        return np.stack([qe.evaluate(f, x) for f in self.embed_curves(np.asarray(z, dtype=float))])


# ---------------------------------------------------------------------------
# generic constant-volatility builder
# ---------------------------------------------------------------------------


def build_constant_vol_fdr(initial: MultiCurveState, spec: VolSpec) -> FDRRealization:
    """Realization for a state-independent spec (``ValueError`` for a spec
    with a loading that reads a log-spread).

    The state is ``(z0, blocks)`` with one block per Brownian factor i: a
    quadrature coordinate ``z_i[0]`` (the factor's accumulated increments)
    followed by ``n_i`` derived coordinates, where ``n_i`` is the degree of
    the minimal joint annihilator of the volatility curves loaded on that
    factor.  The embedding is exact in quasi-exponential arithmetic:

        G^j(z) = r^j(. + z0) + sum_{i,k} F^k sigma^j_i z_i[k]
                 + 1/2 (|S^j|^2(. + z0) - |S^j|^2)
                 - [j >= 1] sum_i beta^j_i (S^j_i(. + z0) - S^j_i)

    with ``S^j_i`` the antiderivative of ``sigma^j_i``, and the log-spread
    components collect the evaluation-at-zero functionals of the same
    quantities.
    """
    if not spec.state_independent:
        raise ValueError("build_constant_vol_fdr needs a spec whose loadings are all constant")
    m, d = spec.m, spec.d
    if initial.m != m:
        raise ValueError("initial state and spec disagree on the number of tenors")
    r_funcs = [c.func for c in initial.curves]
    y0 = np.array(initial.log_spreads, dtype=float)
    vol = spec.fields(initial)
    sigma, beta = vol.sigma, vol.beta

    # Per-factor joint annihilators and block sizes.
    ann: list[Optional[qe.AnnihilatorPolynomial]] = []
    for i in range(d):
        loaded = [sigma[j][i] for j in range(m + 1) if not sigma[j][i].is_zero]
        ann.append(qe.joint_annihilator(loaded) if loaded else None)
    n_i = [a.degree if a is not None else 0 for a in ann]
    offsets = np.cumsum([1] + [1 + k for k in n_i])  # offsets[i] = start of block i
    n = int(offsets[-1])
    offsets = offsets[:-1]

    # Iterated derivatives F^k sigma^j_i, antiderivatives and their functionals.
    fk_sigma = [[[] for _ in range(d)] for _ in range(m + 1)]
    for j in range(m + 1):
        for i in range(d):
            f = sigma[j][i]
            fk_sigma[j][i].append(f)
            for _ in range(n_i[i]):
                f = qe.derive(f)
                fk_sigma[j][i].append(f)
    s_int = [[qe.integrate_from_zero(sigma[j][i]) for i in range(d)] for j in range(m + 1)]
    norm_sq = []
    for j in range(m + 1):
        acc = qe.QEFunction(())
        for i in range(d):
            if not s_int[j][i].is_zero:
                acc = acc + qe.multiply(s_int[j][i], s_int[j][i])
        norm_sq.append(acc)
    h_norm_sq = [qe.integrate_from_zero(f) for f in norm_sq]
    hs = [[qe.integrate_from_zero(s_int[j][i]) for i in range(d)] for j in range(m + 1)]
    hr_diff = [qe.integrate_from_zero(r_funcs[0] - r_funcs[j]) for j in range(1, m + 1)]
    # Evaluation functionals B F^{k-1} sigma^0_i - B F^{k-1} sigma^j_i.
    b_diff = np.zeros((m, d, max(n_i) if n_i else 0))
    for j in range(1, m + 1):
        for i in range(d):
            for k in range(1, n_i[i] + 1):
                b_diff[j - 1, i, k - 1] = qe.eval_at_zero(
                    fk_sigma[0][i][k - 1]
                ) - qe.eval_at_zero(fk_sigma[j][i][k - 1])
    half_beta_sq = 0.5 * np.sum(beta**2, axis=1) if m else np.zeros(0)

    def embed_curves(z: np.ndarray) -> tuple:
        t = float(z[0])
        out = []
        for j in range(m + 1):
            f = qe.shift(r_funcs[j], t)
            for i in range(d):
                off = offsets[i]
                for k in range(n_i[i] + 1):
                    g = fk_sigma[j][i][k]
                    if not g.is_zero:
                        f = f + g * float(z[off + k])
            if not norm_sq[j].is_zero:
                f = f + (qe.shift(norm_sq[j], t) - norm_sq[j]) * 0.5
            if j >= 1:
                for i in range(d):
                    b = float(beta[j - 1, i])
                    if b != 0.0 and not s_int[j][i].is_zero:
                        f = f - (qe.shift(s_int[j][i], t) - s_int[j][i]) * b
            out.append(f)
        return tuple(out)

    def embed_spreads(z: np.ndarray) -> np.ndarray:
        t = float(z[0])
        out = np.empty(m)
        for j in range(1, m + 1):
            v = y0[j - 1] + qe.evaluate(hr_diff[j - 1], t)
            v += 0.5 * (qe.evaluate(h_norm_sq[0], t) - qe.evaluate(h_norm_sq[j], t))
            v -= half_beta_sq[j - 1] * t
            for i in range(d):
                off = offsets[i]
                v += beta[j - 1, i] * (z[off] + qe.evaluate(hs[j][i], t))
                for k in range(1, n_i[i] + 1):
                    v += b_diff[j - 1, i, k - 1] * z[off + k]
            out[j - 1] = v
        return out

    alphas = [a.coeffs[:-1] if a is not None else () for a in ann]

    def drift(z: np.ndarray) -> np.ndarray:
        a = np.zeros(np.shape(z))
        zt, at = z.T, a.T  # coordinate k: a scalar for one state, a row for a batch
        at[0] = 1.0
        for i in range(d):
            off = offsets[i]
            top = zt[off + n_i[i]]
            for k in range(1, n_i[i] + 1):
                at[off + k] = zt[off + k - 1] - alphas[i][k - 1] * top
        return a

    b_mat = np.zeros((n, d))
    for i in range(d):
        b_mat[offsets[i], i] = 1.0

    def diffusion(z: np.ndarray) -> np.ndarray:
        return b_mat

    return FDRRealization(
        n=n, m=m, d=d,
        embed_curves=embed_curves, embed_spreads=embed_spreads,
        drift=drift, diffusion=diffusion,
    )


# ---------------------------------------------------------------------------
# three-curve single-factor stack, explicit closed form
# ---------------------------------------------------------------------------


def _libm_exp(u: np.ndarray) -> np.ndarray:
    """Elementwise ``math.exp``.  numpy's vectorised ``exp`` may differ
    from libm in the last bit, which would move every result that depends
    on the running time."""
    return np.fromiter(map(math.exp, u.ravel().tolist()), float, u.size).reshape(u.shape)


def _em(a, eat):
    """int_0^t e^{-a s} ds, given ``eat = e^{-a t}``."""
    return (1.0 - eat) / a


def _emx(a, t, eat):
    """int_0^t s e^{-a s} ds, given ``eat = e^{-a t}``."""
    return (1.0 - (1.0 + a * t) * eat) / (a * a)


def _em_sq(a, t, eat, e2at):
    """int_0^t (1 - e^{-a s})^2 ds, given ``e^{-a t}`` and ``e^{-2 a t}``."""
    return t - 2.0 * _em(a, eat) + _em(2.0 * a, e2at)


def _spread_level_rows(a, t: np.ndarray, ea: np.ndarray) -> np.ndarray:
    """Coefficients of the curve level ``y`` in the two log-spreads, shape
    (K, 2, 3), at the running times ``t`` (K, 1): the integrated gap
    between the initial risk-free and tenor curves.  ``ea`` (K, 3) holds
    ``e^{-a_j t}``."""
    em = _em(a, ea)
    emx = _emx(a, t, ea)
    rows = np.zeros((t.shape[0], 2, 3))
    rows[:, :, 1] = em[:, :1] - em[:, 1:]
    rows[:, :, 2] = emx[:, :1] - emx[:, 1:]
    return rows


def _hw_curve(y, aj, sj, bt, x0: float, loading: float) -> qe.QEFunction:
    """A curve with volatility ``lambda = sj e^{-aj x}`` at running time
    ``x0``: ``y0 + (y1 + y2 x) e^{-aj x}`` shifted by ``x0``, plus ``loading``
    times ``lambda``, plus its drift ``lambda H lambda - bt lambda``
    accumulated over [0, x0] (``bt``: its spread's loading, 0 for curve 0)."""
    e0 = math.exp(-aj * x0)
    ratio = sj / aj
    f = qe.constant(y[0]) + qe.poly_exp(((y[1] + y[2] * x0) * e0, y[2] * e0), -aj)
    f = f + qe.poly_exp((sj * loading,), -aj)
    f = f + qe.poly_exp((0.5 * ratio * ratio * (math.exp(-2.0 * aj * x0) - 1.0),), -2.0 * aj)
    return f + qe.poly_exp((-ratio * (ratio - bt) * (e0 - 1.0),), -aj)


def hw3_affine_observables(a, sig, beta, t, x: np.ndarray):
    """Affine coefficients of the three-curve observables in ``u = (q, y)``.

    ``q = (q0, q1, q2, q3)`` is the factor block of :func:`build_hw3_fdr`'s
    state at running time ``t`` and ``y`` the curve level.  Returns
    ``(Wz, Wy, c)`` with shapes (3n+2, 4), (3n+2, 3), (3n+2,) such that
    ``Wz @ q + Wy @ y + c`` stacks the model yields at maturities ``x`` for
    the three curves (rows 0..3n-1, curve-major) followed by the two model
    log-spreads *without* the constant initial offsets ``y^M``; the yields
    are the realization's embedded curves integrated over maturity.  For a
    1-d array ``t`` of K running times the three are stacked day by day,
    shapes (K, 3n+2, 4), (K, 3n+2, 3), (K, 3n+2); each day's entries equal
    those of the scalar call at its time, bit for bit.
    """
    a = np.asarray(a, dtype=float)
    sig = np.asarray(sig, dtype=float)
    bt = np.r_[0.0, np.asarray(beta, dtype=float)]   # curve 0 has no spread
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    tc = t.reshape(-1, 1)                              # running times, (K, 1)
    K, n = tc.shape[0], x.size
    rows = 3 * n + 2
    Wz = np.empty((K, rows, 4))
    Wy = np.empty((K, rows, 3))
    c = np.empty((K, rows))

    # Maturity-only factors, one row per curve, shape (3, n).
    ac = a[:, None]
    eax = np.exp(-ac * x)
    v = (1.0 - eax) / ac                           # int_0^x e^{-a u} du
    vv = (1.0 - np.exp(-2.0 * ac * x)) / (2.0 * ac)
    w = (1.0 - (1.0 + ac * x) * eax) / (ac * ac)   # int_0^x u e^{-a u} du
    load = sig[:, None] * v / x
    # Scalar ``**`` here and for ``ratio_sq``: numpy's array power rounds
    # differently in the last bit for some arguments.
    powers = np.array([(1.0, -aj, aj * aj, -(aj ** 3)) for aj in a])
    Wz[:, :3 * n] = (powers[:, None, :] * load[:, :, None]).reshape(3 * n, 4)

    # Per-day factors, shape (K, 3): e^{-a_j t}, e^{-2 a_j t} and the
    # deterministic drift accumulated over [0, t].
    ea = _libm_exp(-a * tc)
    e2a = _libm_exp(-2.0 * a * tc)
    ratio = sig / a
    drift2 = 0.5 * ratio * ratio * (e2a - 1.0)
    drift1 = -ratio * (ratio - bt) * (ea - 1.0)
    eat = ea[:, :, None]
    Wy[:, :3 * n, 0] = 1.0
    Wy[:, :3 * n, 1] = (eat * v / x).reshape(K, 3 * n)
    Wy[:, :3 * n, 2] = (eat * (w + tc[:, :, None] * v) / x).reshape(K, 3 * n)
    c[:, :3 * n] = ((drift2[:, :, None] * vv + drift1[:, :, None] * v) / x).reshape(K, 3 * n)

    # The two log-spreads.
    a0, s0 = a[0], sig[0]
    Wy[:, 3 * n:] = _spread_level_rows(a, tc, ea)
    Wz[:, 3 * n:] = [(bt[j], s0 - sig[j], a[j] * sig[j] - a0 * s0,
                      a0 * a0 * s0 - a[j] * a[j] * sig[j]) for j in (1, 2)]
    ratio_sq = np.array([r ** 2 for r in ratio])
    em_sq = _em_sq(a, tc, ea, e2a)
    c[:, 3 * n:] = (
        0.5 * (ratio_sq[0] * em_sq[:, :1] - ratio_sq[1:] * em_sq[:, 1:])
        + bt[1:] * ratio[1:] * (tc - _em(a[1:], ea[:, 1:]))
        - 0.5 * bt[1:] * bt[1:] * tc
    )
    if t.ndim == 0:
        return Wz[0], Wy[0], c[0]
    return Wz, Wy, c


def hw3_observables(Wz, Wy, c, q, y, initial_spreads):
    """Model yields (3, n) and log-spreads (2,) of one day.

    ``(Wz, Wy, c)`` are the day's coefficients from
    :func:`hw3_affine_observables`, ``q`` and ``y`` its factor block and
    curve level, and ``initial_spreads`` the constant offsets ``y^M``.
    """
    vals = Wz @ q + Wy @ y + c
    n3 = vals.size - 2
    return vals[:n3].reshape(3, -1), vals[n3:] + initial_spreads


def build_hw3_fdr(theta, curve_level: Sequence[float], initial_spreads: Sequence[float]) -> FDRRealization:
    """Five-dimensional realization of the three-curve mean-reverting stack.

    ``theta`` carries arrays ``sigma`` (3,), ``a`` (3,) and ``beta`` (2,):
    curve j has volatility ``sigma_j e^{-a_j x}`` on a single shared factor
    and spread j loads ``beta_j`` on it.  ``curve_level = (y0, y1, y2)``
    sets the initial curves ``r^j(x) = y0 + (y1 + y2 x) e^{-a_j x}``.

    The state is ``(x0, q0, q1, q2, q3)``: running time plus the factor
    block generated by the degree-3 joint annihilator
    ``(g + a_0)(g + a_1)(g + a_2)``.  Everything is in closed form: the
    curves are those of :func:`build_cdv_example_fdr` with a shared factor,
    and the log-spreads are the spread rows of :func:`hw3_affine_observables`.
    """
    sig = np.asarray(theta.sigma, dtype=float)
    a = np.asarray(theta.a, dtype=float)
    beta = np.asarray(theta.beta, dtype=float)
    if sig.shape != (3,) or a.shape != (3,) or beta.shape != (2,):
        raise ValueError("need sigma (3,), a (3,), beta (2,)")
    if np.any(sig <= 0) or np.any(a <= 0):
        raise ValueError("volatilities and reversion speeds must be positive")
    y = np.asarray(curve_level, dtype=float)
    ym = np.asarray(initial_spreads, dtype=float)
    if y.shape != (3,) or ym.shape != (2,):
        raise ValueError("need curve_level (3,) and initial_spreads (2,)")

    # Elementary symmetric coefficients of (g + a0)(g + a1)(g + a2).
    e1 = float(a[0] + a[1] + a[2])
    e2 = float(a[0] * a[1] + a[0] * a[2] + a[1] * a[2])
    e3 = float(a[0] * a[1] * a[2])

    def embed_curves(z: np.ndarray) -> tuple:
        x0, q0, q1, q2, q3 = (float(v) for v in z)
        # Factor block: sigma, F sigma, F^2 sigma, F^3 sigma loadings.
        return tuple(_hw_curve(y, aj, sj, bj, x0, q0 - aj * q1 + aj * aj * q2 - aj**3 * q3)
                     for aj, sj, bj in zip(a, sig, (0.0, *beta)))

    def embed_spreads(z: np.ndarray) -> np.ndarray:
        Wz, Wy, c = hw3_affine_observables(a, sig, beta, float(z[0]), np.empty(0))
        return ym + Wz @ z[1:] + Wy @ y + c

    def drift(z: np.ndarray) -> np.ndarray:
        out = np.empty(np.shape(z))
        zt, ot = z.T, out.T  # coordinate k: a scalar for one state, a row for a batch
        ot[0] = 1.0
        ot[1] = 0.0
        ot[2] = zt[1] - e3 * zt[4]
        ot[3] = zt[2] - e2 * zt[4]
        ot[4] = zt[3] - e1 * zt[4]
        return out

    b_mat = np.zeros((5, 1))
    b_mat[1, 0] = 1.0

    def diffusion(z: np.ndarray) -> np.ndarray:
        return b_mat

    return FDRRealization(
        n=5, m=2, d=1,
        embed_curves=embed_curves, embed_spreads=embed_spreads,
        drift=drift, diffusion=diffusion,
    )


# ---------------------------------------------------------------------------
# six-dimensional constant-direction example
# ---------------------------------------------------------------------------


def cdv_example_spec(
    sigmas: Sequence[float],
    rates: Sequence[float],
    beta_const: Sequence[float],
    beta_slope: Sequence[float],
) -> VolSpec:
    """Three curves, three factors, spread-coupled direction fields.

    Curve j is driven only by factor j with volatility
    ``sigma_j e^{-a_j x}``; log-spread j loads ``beta_const[j-1]`` on
    factor 0 and ``beta_slope[j-1] * Y^j`` on factor j.
    """
    sig = [float(s) for s in sigmas]
    a = [float(r) for r in rates]
    bc = [float(b) for b in beta_const]
    bs = [float(b) for b in beta_slope]
    if not (len(sig) == len(a) == 3 and len(bc) == len(bs) == 2):
        raise ValueError("need three curves and two spreads")
    zero = qe.QEFunction(())
    lam = tuple(
        tuple(qe.exponential(sig[j], -a[j]) if i == j else zero for i in range(3))
        for j in range(3)
    )
    one = ScalarField.constant(1.0)
    null = ScalarField.constant(0.0)
    phi = tuple(tuple(one if i == j else null for i in range(3)) for j in range(3))
    beta = (
        (ScalarField.constant(bc[0]), ScalarField.affine_log_spread(0.0, bs[0], 1), null),
        (ScalarField.constant(bc[1]), null, ScalarField.affine_log_spread(0.0, bs[1], 2)),
    )
    return VolSpec(lam, phi, beta)


def build_cdv_example_fdr(
    sigmas: Sequence[float],
    rates: Sequence[float],
    beta_const: Sequence[float],
    beta_slope: Sequence[float],
    curve_level: Sequence[float],
    initial_spreads: Sequence[float],
) -> FDRRealization:
    """Minimal, six-dimensional realization for :func:`cdv_example_spec`.

    State ``(x0, s1, s2, w0, w1, w2)``: running time, the stochastic parts
    of the two log-spreads, and the loadings of the curves on their
    direction curves ``lambda_j``; the drift kernels ``lambda_j H lambda_j``
    are closed-form in ``x0``.  The spread fields must not vanish at the
    initial configuration, otherwise the drift inversion behind this
    parametrization degenerates.
    """
    sig = np.asarray(sigmas, dtype=float)
    a = np.asarray(rates, dtype=float)
    bc = np.asarray(beta_const, dtype=float)
    bs = np.asarray(beta_slope, dtype=float)
    y = np.asarray(curve_level, dtype=float)
    ym = np.asarray(initial_spreads, dtype=float)
    if sig.shape != (3,) or a.shape != (3,) or bc.shape != (2,) or bs.shape != (2,):
        raise ValueError("need sigma (3,), a (3,), beta_const (2,), beta_slope (2,)")
    if y.shape != (3,) or ym.shape != (2,):
        raise ValueError("need curve_level (3,) and initial_spreads (2,)")
    for j in (1, 2):
        if bs[j - 1] != 0.0 and abs(ym[j - 1]) < 1e-12:
            raise NonzeroConditionError(
                f"log-spread {j} starts at zero but its volatility is proportional to it"
            )
    ratio_sq = (sig / a) ** 2

    def spreads(z: np.ndarray) -> np.ndarray:
        """(Y^1, Y^2) along the realization: initial value + time drift + state."""
        t = np.reshape(z[..., 0], (-1, 1))
        ea = _libm_exp(-a * t)
        em_sq = _em_sq(a, t, ea, ea * ea)
        det = (_spread_level_rows(a, t, ea) @ y
               + 0.5 * (ratio_sq[0] * em_sq[:, :1] - ratio_sq[1:] * em_sq[:, 1:]))
        return ym + np.reshape(det, np.shape(z)[:-1] + (2,)) + z[..., 1:3]

    def embed_curves(z: np.ndarray) -> tuple:
        x0 = float(z[0])
        return tuple(_hw_curve(y, a[j], sig[j], 0.0, x0, float(z[3 + j])) for j in range(3))

    def drift(z: np.ndarray) -> np.ndarray:
        out = np.empty(np.shape(z))
        zt, ot, ys = z.T, out.T, spreads(z).T  # scalars for one state, rows for a batch
        ot[0] = 1.0
        for j in (1, 2):
            yj = ys[j - 1]
            ot[j] = (sig[0] * zt[3] - sig[j] * zt[3 + j]
                     - 0.5 * bs[j - 1] ** 2 * yj * (yj + 1.0) - 0.5 * bc[j - 1] ** 2)
            ot[3 + j] = -a[j] * zt[3 + j] - bs[j - 1] * yj
        ot[3] = -a[0] * zt[3]
        return out

    def diffusion(z: np.ndarray) -> np.ndarray:
        ys = spreads(z)
        b = np.zeros(np.shape(z) + (3,))
        b[..., 1, 0] = bc[0]
        b[..., 1, 1] = bs[0] * ys[..., 0]
        b[..., 2, 0] = bc[1]
        b[..., 2, 2] = bs[1] * ys[..., 1]
        b[..., 3, 0] = b[..., 4, 1] = b[..., 5, 2] = 1.0
        return b

    return FDRRealization(
        n=6, m=2, d=3,
        embed_curves=embed_curves, embed_spreads=spreads,
        drift=drift, diffusion=diffusion,
    )


# ---------------------------------------------------------------------------
# state simulation (Stratonovich Heun)
# ---------------------------------------------------------------------------


@dataclass
class StatePaths:
    """Recorded snapshots of simulated realization states."""

    record_times: tuple[float, ...]
    states: np.ndarray  # (n_paths, n_recorded, n)

    def at(self, t: float) -> np.ndarray:
        return self.states[:, record_index(self.record_times, t), :]


def heun_step(real: FDRRealization, z: np.ndarray, dt: float, dW: np.ndarray) -> np.ndarray:
    """One Heun predictor-corrector step of ``dZ = a(Z) dt + b(Z) ∘ dW``.

    ``z`` is one state (n,) with ``dW`` (d,), or a batch (P, n) with ``dW``
    (P, d); each row of a batch steps exactly as it would alone.
    """
    dW = np.asarray(dW)[..., None]
    az = real.drift(z)
    bz = real.diffusion(z)
    z_pred = z + az * dt + np.matmul(bz, dW)[..., 0]
    return (z + 0.5 * dt * (az + real.drift(z_pred))
            + 0.5 * np.matmul(bz + real.diffusion(z_pred), dW)[..., 0])


def simulate_state(
    real: FDRRealization,
    cfg: SimConfig,
    increments: Optional[np.ndarray] = None,
    record_times: Optional[Sequence[float]] = None,
) -> StatePaths:
    """Integrate ``dZ = a(Z) dt + b(Z) ∘ dW`` from the origin with
    :func:`heun_step`.

    ``increments`` follows the same (n_paths, n_steps, d) convention as the
    curve-level simulator, so passing one array to both couples the
    realization pathwise to the infinite-dimensional dynamics.  All paths
    step together as one (n_paths, n) batch; a non-finite state raises
    ``NumericalError`` naming the earliest failing step over all paths.
    """
    n_steps, n_paths, dt = cfg.n_steps, cfg.n_paths, cfg.dt
    increments = cfg.brownian_increments(real.d, increments)
    rec, rec_steps = cfg.record_steps(record_times)
    by_step = {s: idx for idx, s in enumerate(rec_steps)}

    out = np.empty((n_paths, len(rec), real.n))
    z = np.zeros((n_paths, real.n))
    if 0 in by_step:
        out[:, by_step[0]] = z
    for step in range(n_steps):
        z = heun_step(real, z, dt, increments[:, step])
        if not np.all(np.isfinite(z)):
            raise NumericalError(f"non-finite realization state at step {step + 1}")
        if step + 1 in by_step:
            out[:, by_step[step + 1]] = z
    return StatePaths(rec, out)


# ---------------------------------------------------------------------------
# benchmark coordinates
# ---------------------------------------------------------------------------

# Newton inversion of the chart: relative residual tolerance, step budget.
_NEWTON_TOL = 1e-14
_NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class BenchmarkSystem:
    """Observable coordinates Z_h = sum_j w[h,j] r^j(x_h) + sum_j w[h,m+j] Y^j.

    ``jacobian`` is the derivative of the observables with respect to the
    realization state at the expansion point; the coordinates form a valid
    chart exactly when it is invertible.
    """

    maturities: np.ndarray  # (n,)
    weights: np.ndarray  # (n, 2m+1)
    jacobian: np.ndarray  # (n, n)
    cond: float

    @property
    def invertible(self) -> bool:
        return bool(np.isfinite(self.cond) and self.cond < 1e10)


def benchmark_observables(
    real: FDRRealization,
    weights: np.ndarray,
    maturities: np.ndarray,
    z: np.ndarray,
) -> np.ndarray:
    """Evaluate the benchmark functionals at the state ``z``."""
    w = np.asarray(weights, dtype=float)
    x = np.asarray(maturities, dtype=float)
    if w.shape != (real.n, 2 * real.m + 1) or x.shape != (real.n,):
        raise ValueError("weights must be (n, 2m+1) and maturities (n,)")
    rates = real.curve_values(z, x)  # (m+1, n)
    spreads = real.embed_spreads(np.asarray(z, dtype=float))
    vals = np.einsum("hj,jh->h", w[:, : real.m + 1], rates)
    return vals + w[:, real.m + 1:] @ spreads


def benchmark_coordinates(
    real: FDRRealization,
    weights: np.ndarray,
    maturities: np.ndarray,
    z: Optional[np.ndarray] = None,
) -> BenchmarkSystem:
    """Build the observable chart and its Jacobian at ``z`` (default: origin)."""
    z = np.zeros(real.n) if z is None else np.asarray(z, dtype=float).copy()
    K = np.empty((real.n, real.n))
    for k in range(real.n):
        step = 1e-6 * (1.0 + abs(z[k]))
        zp, zm = z.copy(), z.copy()
        zp[k] += step
        zm[k] -= step
        K[:, k] = (
            benchmark_observables(real, weights, maturities, zp)
            - benchmark_observables(real, weights, maturities, zm)
        ) / (2.0 * step)
    cond = float(np.linalg.cond(K))
    return BenchmarkSystem(
        maturities=np.asarray(maturities, dtype=float),
        weights=np.asarray(weights, dtype=float),
        jacobian=K,
        cond=cond,
    )


def state_from_observables(
    real: FDRRealization,
    system: BenchmarkSystem,
    targets: np.ndarray,
) -> np.ndarray:
    """Invert the benchmark chart by Newton iteration from the origin.

    The stopping rule is on the observable residual; it is deliberately
    tight because the state error is the residual amplified by the inverse
    Jacobian.

    Raises :class:`NumericalError` when the chart is singular at the
    expansion point or the iteration fails to converge.
    """
    if not system.invertible:
        raise NumericalError(
            f"benchmark coordinates are singular (cond = {system.cond:.3e})"
        )
    targets = np.asarray(targets, dtype=float)
    z = np.zeros(real.n)
    scale = 1.0 + float(np.max(np.abs(targets)))
    for _ in range(_NEWTON_MAX_ITER):
        resid = benchmark_observables(real, system.weights, system.maturities, z) - targets
        if np.max(np.abs(resid)) <= _NEWTON_TOL * scale:
            return z
        K = benchmark_coordinates(real, system.weights, system.maturities, z).jacobian
        try:
            delta = np.linalg.solve(K, resid)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("benchmark Jacobian became singular during inversion") from exc
        z = z - delta
        if not np.all(np.isfinite(z)):
            raise NumericalError("benchmark inversion diverged")
    raise NumericalError(
        f"benchmark inversion did not converge in {_NEWTON_MAX_ITER} iterations")


def choose_benchmark_coefficients(
    real: FDRRealization,
    maturities: np.ndarray,
    n_candidates: int = 128,
    seed: int = 7,
) -> BenchmarkSystem:
    """Search random weight matrices for the chart best conditioned at the
    origin.

    Draws ``n_candidates`` uniform matrices in [-1, 1] and keeps the one
    with the smallest Jacobian condition number; deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    best: Optional[BenchmarkSystem] = None
    for _ in range(n_candidates):
        w = rng.uniform(-1.0, 1.0, size=(real.n, 2 * real.m + 1))
        sys_k = benchmark_coordinates(real, w, maturities)
        if best is None or sys_k.cond < best.cond:
            best = sys_k
    return best
