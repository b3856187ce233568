"""Exact symbolic algebra for quasi-exponential (QE) functions.

A QE function is a finite sum of terms

    e^{rate x} (p(x) cos(freq x) + q(x) sin(freq x)),

with real polynomial coefficients p, q.  The class is closed under the three
operators that drive everything downstream —

    F f = f'          (derivative),
    H f = int_0^x f   (antiderivative pinned at zero),
    B f = f(0)        (evaluation at zero),

— as well as under products and argument shifts x -> x + c.  Keeping these
operations symbolic means volatility curves of Hull-White type, their
running integrals and their squared norms never pick up grid error: the
invariant-manifold constructions built on top stay exact to rounding.

Canonical form: terms are merged when their (rate, freq) pairs coincide up to
relative tolerance 1e-12, frequencies are normalized to be >= 0, trailing
polynomial coefficients below 1e-14 (relative to the term's largest
coefficient, floored at 1) are trimmed, and empty terms are dropped.  The
term list is sorted, so structural comparison is meaningful.

There is no cap on term count: products emit sum and difference frequencies,
so repeated multiplication can grow expressions; memory simply grows with
them.  At desk scale (a handful of exponentials per curve) this is never a
concern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "QETerm",
    "QEFunction",
    "AnnihilatorPolynomial",
    "evaluate",
    "derive",
    "integrate_from_zero",
    "eval_at_zero",
    "multiply",
    "shift",
    "annihilator",
    "krylov_dimension",
    "constant",
    "exponential",
    "poly_exp",
    "trig_exp",
    "nelson_siegel",
]

# Tolerances of the canonical form.
_MERGE_RTOL = 1e-12      # rate/freq coincidence
_COEFF_TRIM = 1e-14      # trailing-coefficient trim, relative
_ZERO_TOL = 1e-14        # zero-function detection


def _trim(coeffs: Sequence[float], scale: float) -> tuple[float, ...]:
    """Drop trailing coefficients that are negligible at the given scale."""
    tol = _COEFF_TRIM * max(1.0, scale)
    out = list(coeffs)
    while out and abs(out[-1]) <= tol:
        out.pop()
    return tuple(float(c) for c in out)


def _padd(a: Sequence[float], b: Sequence[float]) -> tuple[float, ...]:
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0.0) + (b[i] if i < len(b) else 0.0)
        for i in range(n)
    )


def _pscale(a: Sequence[float], c: float) -> tuple[float, ...]:
    return tuple(c * x for x in a)


def _pmul(a: Sequence[float], b: Sequence[float]) -> tuple[float, ...]:
    if not a or not b:
        return ()
    return tuple(np.convolve(np.asarray(a, dtype=float), np.asarray(b, dtype=float)))


def _pderive(a: Sequence[float]) -> tuple[float, ...]:
    return tuple(k * a[k] for k in range(1, len(a)))


def _ptaylor_shift(a: Sequence[float], c: float) -> tuple[float, ...]:
    """Coefficients of p(x + c) given those of p(x)."""
    if not a:
        return ()
    out = [0.0] * len(a)
    for k, ak in enumerate(a):
        # (x + c)^k = sum_j C(k, j) c^{k-j} x^j
        for j in range(k + 1):
            out[j] += ak * math.comb(k, j) * c ** (k - j)
    return tuple(out)


def _peval(a: Sequence[float], x):
    if not a:
        return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0
    return npoly.polyval(np.asarray(x, dtype=float), np.asarray(a, dtype=float))


@dataclass(frozen=True)
class QETerm:
    """One canonical summand e^{rate x}(p(x) cos(freq x) + q(x) sin(freq x)).

    ``cos_poly`` / ``sin_poly`` hold ascending coefficients of p and q; for
    freq == 0 the sin part is empty by convention.
    """

    rate: float
    freq: float
    cos_poly: tuple[float, ...]
    sin_poly: tuple[float, ...] = ()

    def scale(self) -> float:
        vals = [abs(c) for c in self.cos_poly] + [abs(c) for c in self.sin_poly]
        return max(vals) if vals else 0.0

    def degree(self) -> int:
        return max(len(self.cos_poly), len(self.sin_poly)) - 1


def _canonical_terms(raw: Iterable[QETerm]) -> tuple[QETerm, ...]:
    # Normalize frequency signs first: cos is even, sin is odd.
    pre: list[QETerm] = []
    for t in raw:
        rate, freq = float(t.rate), float(t.freq)
        cosp, sinp = tuple(map(float, t.cos_poly)), tuple(map(float, t.sin_poly))
        if abs(rate) <= _MERGE_RTOL:
            rate = 0.0
        if abs(freq) <= _MERGE_RTOL:
            freq = 0.0
        if freq < 0.0:
            freq, sinp = -freq, _pscale(sinp, -1.0)
        if freq == 0.0 and sinp:
            sinp = ()  # sin(0 x) contributes nothing
        pre.append(QETerm(rate, freq, cosp, sinp))

    # Merge terms whose (rate, freq) coincide up to relative tolerance.
    pre.sort(key=lambda t: (t.rate, t.freq))
    merged: list[QETerm] = []
    for t in pre:
        if merged:
            last = merged[-1]
            same_rate = abs(t.rate - last.rate) <= _MERGE_RTOL * max(1.0, abs(last.rate))
            same_freq = abs(t.freq - last.freq) <= _MERGE_RTOL * max(1.0, abs(last.freq))
            if same_rate and same_freq:
                merged[-1] = QETerm(
                    last.rate,
                    last.freq,
                    _padd(last.cos_poly, t.cos_poly),
                    _padd(last.sin_poly, t.sin_poly),
                )
                continue
        merged.append(t)

    out: list[QETerm] = []
    for t in merged:
        scale = t.scale()
        cosp = _trim(t.cos_poly, scale)
        sinp = _trim(t.sin_poly, scale)
        if not cosp and not sinp:
            continue
        out.append(QETerm(t.rate, t.freq, cosp, sinp))
    return tuple(out)


@dataclass(frozen=True)
class QEFunction:
    """A quasi-exponential function in canonical form (immutable)."""

    terms: tuple[QETerm, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", _canonical_terms(self.terms))

    # -- basic structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(
            abs(c) <= _ZERO_TOL
            for t in self.terms
            for c in (*t.cos_poly, *t.sin_poly)
        )

    def __add__(self, other: "QEFunction") -> "QEFunction":
        return QEFunction(self.terms + other.terms)

    def __sub__(self, other: "QEFunction") -> "QEFunction":
        return self + (other * -1.0)

    def __mul__(self, c) -> "QEFunction":
        if isinstance(c, QEFunction):
            return multiply(self, c)
        return QEFunction(
            tuple(
                QETerm(t.rate, t.freq, _pscale(t.cos_poly, float(c)), _pscale(t.sin_poly, float(c)))
                for t in self.terms
            )
        )

    __rmul__ = __mul__

    def __neg__(self) -> "QEFunction":
        return self * -1.0

    def __call__(self, x):
        return evaluate(self, x)

    def isclose(self, other: "QEFunction", rtol: float = 1e-12, atol: float = 1e-14) -> bool:
        """Canonical term-by-term comparison with coefficient tolerances."""
        diff = self - other
        scale = max(
            [1.0]
            + [t.scale() for t in self.terms]
            + [t.scale() for t in other.terms]
        )
        return all(
            abs(c) <= atol + rtol * scale
            for t in diff.terms
            for c in (*t.cos_poly, *t.sin_poly)
        )


# -- constructors ----------------------------------------------------------


def constant(c: float) -> QEFunction:
    return QEFunction((QETerm(0.0, 0.0, (float(c),)),))


def exponential(coef: float, rate: float) -> QEFunction:
    """coef * e^{rate x}."""
    return QEFunction((QETerm(float(rate), 0.0, (float(coef),)),))


def poly_exp(coeffs: Sequence[float], rate: float) -> QEFunction:
    """p(x) e^{rate x} with ascending polynomial coefficients."""
    return QEFunction((QETerm(float(rate), 0.0, tuple(map(float, coeffs))),))


def trig_exp(rate: float, freq: float, cos_coeffs: Sequence[float], sin_coeffs: Sequence[float] = ()) -> QEFunction:
    return QEFunction((QETerm(float(rate), float(freq), tuple(map(float, cos_coeffs)), tuple(map(float, sin_coeffs))),))


def nelson_siegel(y0: float, y1: float, y2: float, decay: float) -> QEFunction:
    """Forward curve y0 + (y1 + y2 x) e^{-decay x}."""
    return constant(y0) + poly_exp((y1, y2), -decay)


# -- operators -------------------------------------------------------------


def evaluate(f: QEFunction, x):
    """Evaluate f at a scalar or array argument."""
    xarr = np.asarray(x, dtype=float)
    total = np.zeros_like(xarr)
    for t in f.terms:
        val = _peval(t.cos_poly, xarr) * (np.cos(t.freq * xarr) if t.freq else 1.0)
        if t.sin_poly and t.freq:
            val = val + _peval(t.sin_poly, xarr) * np.sin(t.freq * xarr)
        total = total + np.exp(t.rate * xarr) * val
    if np.ndim(x) == 0:
        return float(total)
    return total


def derive(f: QEFunction) -> QEFunction:
    """F f = f', exactly."""
    out: list[QETerm] = []
    for t in f.terms:
        g, w = t.rate, t.freq
        p, q = t.cos_poly, t.sin_poly
        cosp = _padd(_padd(_pscale(p, g), _pderive(p)), _pscale(q, w))
        sinp = _padd(_padd(_pscale(q, g), _pderive(q)), _pscale(p, -w))
        out.append(QETerm(g, w, cosp, sinp))
    return QEFunction(tuple(out))


def _antiderivative_term(t: QETerm) -> QEFunction:
    """One antiderivative (constant of integration unspecified)."""
    g, w = t.rate, t.freq
    p, q = list(t.cos_poly), list(t.sin_poly)
    if g == 0.0 and w == 0.0:
        return QEFunction((QETerm(0.0, 0.0, (0.0, *(c / (k + 1) for k, c in enumerate(p)))),))
    # Solve d/dx e^{gx}(u cos wx + v sin wx) = e^{gx}(p cos wx + q sin wx):
    #   g u_k + (k+1) u_{k+1} + w v_k = p_k
    #   g v_k + (k+1) v_{k+1} - w u_k = q_k
    # back-substituting from the top degree; det = g^2 + w^2 != 0.
    deg = max(len(p), len(q)) - 1
    p += [0.0] * (deg + 1 - len(p))
    q += [0.0] * (deg + 1 - len(q))
    u = [0.0] * (deg + 1)
    v = [0.0] * (deg + 1)
    det = g * g + w * w
    for k in range(deg, -1, -1):
        rhs_p = p[k] - (k + 1) * (u[k + 1] if k + 1 <= deg else 0.0)
        rhs_q = q[k] - (k + 1) * (v[k + 1] if k + 1 <= deg else 0.0)
        u[k] = (g * rhs_p - w * rhs_q) / det
        v[k] = (w * rhs_p + g * rhs_q) / det
    return QEFunction((QETerm(g, w, tuple(u), tuple(v)),))


def integrate_from_zero(f: QEFunction) -> QEFunction:
    """H f = int_0^x f(s) ds, exactly."""
    anti = QEFunction(())
    for t in f.terms:
        anti = anti + _antiderivative_term(t)
    # Pin the constant so that (H f)(0) = 0; iterate the correction because
    # the constant merges into an existing rate-0 term and reassociation can
    # leave an ulp behind.
    for _ in range(3):
        at_zero = evaluate(anti, 0.0)
        if at_zero == 0.0:
            break
        anti = anti + constant(-at_zero)
    return anti


def eval_at_zero(f: QEFunction) -> float:
    """B f = f(0)."""
    return evaluate(f, 0.0)


def multiply(f: QEFunction, g: QEFunction) -> QEFunction:
    """Pointwise product, exactly (product-to-sum on the trig parts)."""
    out: list[QETerm] = []
    for s in f.terms:
        for t in g.terms:
            rate = s.rate + t.rate
            p1, q1, w1 = s.cos_poly, s.sin_poly, s.freq
            p2, q2, w2 = t.cos_poly, t.sin_poly, t.freq
            pp = _pmul(p1, p2)
            pq = _pmul(p1, q2)
            qp = _pmul(q1, p2)
            qq = _pmul(q1, q2)
            half = 0.5
            # sum frequency w1 + w2
            cos_hi = _padd(_pscale(pp, half), _pscale(qq, -half))
            sin_hi = _padd(_pscale(pq, half), _pscale(qp, half))
            out.append(QETerm(rate, w1 + w2, cos_hi, sin_hi))
            # difference frequency w1 - w2 (sign normalized in canonical form)
            cos_lo = _padd(_pscale(pp, half), _pscale(qq, half))
            sin_lo = _padd(_pscale(qp, half), _pscale(pq, -half))
            out.append(QETerm(rate, w1 - w2, cos_lo, sin_lo))
    return QEFunction(tuple(out))


def shift(f: QEFunction, c: float) -> QEFunction:
    """The translate x -> f(x + c), exactly (QE class is shift-closed)."""
    c = float(c)
    if c == 0.0:
        return f
    out: list[QETerm] = []
    for t in f.terms:
        amp = math.exp(t.rate * c)
        pc = _ptaylor_shift(t.cos_poly, c)
        qc = _ptaylor_shift(t.sin_poly, c)
        if t.freq == 0.0:
            out.append(QETerm(t.rate, 0.0, _pscale(pc, amp)))
            continue
        cw, sw = math.cos(t.freq * c), math.sin(t.freq * c)
        cosp = _padd(_pscale(pc, amp * cw), _pscale(qc, amp * sw))
        sinp = _padd(_pscale(qc, amp * cw), _pscale(pc, -amp * sw))
        out.append(QETerm(t.rate, t.freq, cosp, sinp))
    return QEFunction(tuple(out))


# -- annihilator -----------------------------------------------------------


@dataclass(frozen=True)
class AnnihilatorPolynomial:
    """Minimal monic polynomial M with M(d/dx) f = 0.

    ``coeffs`` are ascending, coeffs[-1] == 1.0.
    """

    coeffs: tuple[float, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, s):
        return _peval(self.coeffs, s)

    def apply(self, f: QEFunction) -> QEFunction:
        """M(F) f — zero (to rounding) when f generated the annihilator."""
        out = QEFunction(())
        d = f
        for c in self.coeffs:
            out = out + d * c
            d = derive(d)
        return out


def annihilator(f: QEFunction) -> AnnihilatorPolynomial:
    """Minimal monic annihilator of f, from the canonical term structure.

    Real roots ``rate`` with multiplicity deg+1 for trig-free terms; complex
    pairs rate +- i freq (quadratic factors) otherwise.  Raises on the zero
    function, which every polynomial annihilates.
    """
    if f.is_zero:
        raise ValueError("zero function has no minimal annihilator")
    return joint_annihilator([f])


def joint_annihilator(funcs: Sequence[QEFunction]) -> AnnihilatorPolynomial:
    """Minimal monic annihilator of a family (lcm of the individual ones).

    Computed from root structure: union of (rate, freq) keys with the largest
    multiplicity seen across the family.
    """
    roots: dict[tuple[float, float], int] = {}
    for f in funcs:
        for t in f.terms:
            # Identify keys up to the merge tolerance against existing ones.
            key = None
            for k in roots:
                if (
                    abs(t.rate - k[0]) <= _MERGE_RTOL * max(1.0, abs(k[0]))
                    and abs(t.freq - k[1]) <= _MERGE_RTOL * max(1.0, abs(k[1]))
                ):
                    key = k
                    break
            if key is None:
                key = (t.rate, t.freq)
                roots[key] = 0
            roots[key] = max(roots[key], t.degree() + 1)
    if not roots:
        raise ValueError("zero family has no minimal annihilator")
    poly = np.array([1.0])
    for (rate, freq), mult in sorted(roots.items()):
        if freq == 0.0:
            factor = np.array([-rate, 1.0])
        else:
            factor = np.array([rate * rate + freq * freq, -2.0 * rate, 1.0])
        for _ in range(mult):
            poly = np.convolve(poly, factor)
    return AnnihilatorPolynomial(tuple(float(c) for c in poly))


def krylov_dimension(f: QEFunction) -> int:
    """dim span{f, Ff, F^2 f, ...}; equals the annihilator degree (0 if f = 0)."""
    if f.is_zero:
        return 0
    return annihilator(f).degree
