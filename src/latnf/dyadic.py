"""Certified dyadic interval arithmetic.

Every real quantity with an infinite binary expansion is carried as a
RealBall: a dyadic midpoint plus a dyadic error radius that provably
contains the true value.  All arithmetic here is exact (Python ints and
Fractions); transcendental functions return balls whose radius accounts
for both truncation and rounding.  The hot kernels of the embedding path
(`nf_core` root balls, Horner evaluation and the |z|^2k test,
`approx_reduction.minkowski_columns_x`) compute the same balls on integer
mantissas over one denominator and return them as RealBall/ComplexBall.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import isqrt

Q = Fraction

_LN2_CACHE: dict[int, Fraction] = {}


def round_half_up(x: Fraction) -> int:
    """floor(x + 1/2): the nearest integer, halves rounded up."""
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def dyadic_round(x: Fraction, prec: int) -> Fraction:
    """Nearest multiple of 2^-prec; error at most 2^-(prec+1)."""
    return Q(round_half_up(x * (1 << prec)), 1 << prec)


def sqrt_bracket(x: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """(lo, hi) dyadics with lo <= sqrt(x) <= hi and hi-lo <= 2^(1-prec)."""
    if x < 0:
        raise ValueError("sqrt of negative rational")
    if x == 0:
        return Q(0), Q(0)
    shift = 2 * prec
    n = (x.numerator << shift) // x.denominator
    r = isqrt(n)
    lo = Q(r, 1 << prec)
    hi = Q(r + 1, 1 << prec)
    return lo, hi


def ln2(prec: int) -> Fraction:
    """Dyadic approximation of log 2 with error < 2^-prec."""
    key = prec
    if key in _LN2_CACHE:
        return _LN2_CACHE[key]
    # log 2 = 2 atanh(1/3) = 2 sum z^(2k+1)/(2k+1), z = 1/3
    work = prec + 16
    scale = 1 << work
    z_num, z_den = 1, 3
    term = scale // 3          # z * scale, floor
    total = 0
    k = 0
    while term:
        total += term // (2 * k + 1)
        term //= 9             # multiply by z^2 = 1/9
        k += 1
    val = Q(2 * total, scale)
    out = dyadic_round(val, prec)
    _LN2_CACHE[key] = out
    return out


def log_ball(x: Fraction, prec: int) -> "RealBall":
    """Ball containing log(x) for rational x > 0, radius <= 2^-prec."""
    if x <= 0:
        raise ValueError("log of non-positive rational")
    work = prec + 24
    # write x = 2^e * m with m in [1, 2)
    e = x.numerator.bit_length() - x.denominator.bit_length()
    m = x / (Q(2) ** e)
    if m < 1:
        m *= 2
        e -= 1
    # atanh series on z = (m-1)/(m+1) in [0, 1/3)
    z = (m - 1) / (m + 1)
    scale = 1 << work
    z_scaled = (z.numerator * scale) // z.denominator
    z2_num, z2_den = (z * z).numerator, (z * z).denominator
    total = 0
    term = z_scaled
    k = 0
    while term:
        total += term // (2 * k + 1)
        term = (term * z2_num) // z2_den
        k += 1
    lnm = Q(2 * total, scale)
    val = lnm + e * ln2(work)
    # truncation + floor errors are comfortably below 2^-(prec+4)
    return RealBall(dyadic_round(val, prec + 8), Q(1, 1 << prec))


def exp_ball(t: Fraction, prec: int) -> "RealBall":
    """Ball containing exp(t) for rational t, relative radius <= 2^-prec."""
    work = prec + 32
    l2 = ln2(work)
    k = math.floor(t / l2 + Q(1, 2)) if t != 0 else 0
    s = t - k * l2            # |s| <= ln2/2 + tiny
    scale = 1 << work
    s_num, s_den = s.numerator, s.denominator
    total = scale
    term = scale
    j = 1
    while term:
        term = (term * s_num) // (s_den * j) if s_num >= 0 else -((-term * s_num) // (s_den * j))
        if term == 0:
            break
        total += term
        j += 1
        if j > work:
            break
    val = Q(total, scale) * (Q(2) ** k)
    rad = abs(val) * Q(1, 1 << prec)
    return RealBall(val, rad)


class RealBall:
    """Midpoint-radius interval with exact rational endpoints."""

    __slots__ = ("mid", "rad")

    def __init__(self, mid, rad=Q(0)):
        self.mid = Q(mid)
        self.rad = Q(rad)
        if self.rad < 0:
            raise ValueError("negative radius")

    @staticmethod
    def exact(x) -> "RealBall":
        return RealBall(Q(x), Q(0))

    def lo(self) -> Fraction:
        return self.mid - self.rad

    def hi(self) -> Fraction:
        return self.mid + self.rad

    def __add__(self, other):
        other = _coerce(other)
        return RealBall(self.mid + other.mid, self.rad + other.rad)

    __radd__ = __add__

    def __neg__(self):
        return RealBall(-self.mid, self.rad)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        mid = self.mid * other.mid
        rad = (abs(self.mid) * other.rad + abs(other.mid) * self.rad
               + self.rad * other.rad)
        return RealBall(mid, rad)

    __rmul__ = __mul__

    def __abs__(self):
        if self.lo() >= 0:
            return self
        if self.hi() <= 0:
            return -self
        hi = max(-self.lo(), self.hi())
        return RealBall(hi / 2, hi / 2)

    def contains(self, x) -> bool:
        x = Q(x)
        return self.lo() <= x <= self.hi()

    def definitely_gt(self, x) -> bool:
        return self.lo() > Q(x)

    def definitely_lt(self, x) -> bool:
        return self.hi() < Q(x)

    def __float__(self):
        return float(self.mid)

    def __repr__(self):
        return f"RealBall({float(self.mid):.12g} ± {float(self.rad):.3g})"


def _coerce(x) -> RealBall:
    if isinstance(x, RealBall):
        return x
    return RealBall.exact(x)


def ball_sqrt(b: RealBall, prec: int) -> RealBall:
    """Ball containing sqrt over a nonnegative ball."""
    lo = max(Q(0), b.lo())
    hi = b.hi()
    if hi < 0:
        raise ValueError("sqrt of negative ball")
    slo, _ = sqrt_bracket(lo, prec)
    _, shi = sqrt_bracket(hi, prec)
    return RealBall((slo + shi) / 2, (shi - slo) / 2)


def ball_log(b: RealBall, prec: int) -> RealBall:
    """Ball containing log over a strictly positive ball."""
    lo, hi = b.lo(), b.hi()
    if lo <= 0:
        raise ValueError("log over ball touching zero")
    bl = log_ball(lo, prec)
    bh = log_ball(hi, prec)
    l, h = bl.lo(), bh.hi()
    return RealBall((l + h) / 2, (h - l) / 2)


def ball_exp(b: RealBall, prec: int) -> RealBall:
    el = exp_ball(b.lo(), prec)
    eh = exp_ball(b.hi(), prec)
    l, h = el.lo(), eh.hi()
    return RealBall((l + h) / 2, (h - l) / 2)


class ComplexBall:
    """Complex interval: exact rational midpoint, shared radius."""

    __slots__ = ("re", "im", "rad")

    def __init__(self, re, im, rad=Q(0)):
        self.re = Q(re)
        self.im = Q(im)
        self.rad = Q(rad)

    def __add__(self, other):
        o = _ccoerce(other)
        return ComplexBall(self.re + o.re, self.im + o.im, self.rad + o.rad)

    __radd__ = __add__

    def __neg__(self):
        return ComplexBall(-self.re, -self.im, self.rad)

    def __sub__(self, other):
        return self + (-_ccoerce(other))

    def __mul__(self, other):
        o = _ccoerce(other)
        re = self.re * o.re - self.im * o.im
        im = self.re * o.im + self.im * o.re
        # |z w - z0 w0| <= |z0| rw + |w0| rz + rz rw; use |.|_1-style bound
        a = _abs_upper(self.re, self.im)
        b = _abs_upper(o.re, o.im)
        rad = a * o.rad + b * self.rad + self.rad * o.rad
        return ComplexBall(re, im, rad)

    __rmul__ = __mul__

    def conj(self):
        return ComplexBall(self.re, -self.im, self.rad)

    def abs2(self) -> RealBall:
        """Ball containing |z|^2."""
        m = self.re * self.re + self.im * self.im
        a = _abs_upper(self.re, self.im)
        rad = 2 * a * self.rad + self.rad * self.rad
        return RealBall(m, rad)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ComplexBall({complex(self):.6g} ± {float(self.rad):.3g})"


def _abs_upper(re: Fraction, im: Fraction) -> Fraction:
    """Cheap rational upper bound on sqrt(re^2+im^2)."""
    return abs(re) + abs(im)


def _ccoerce(x) -> ComplexBall:
    if isinstance(x, ComplexBall):
        return x
    if isinstance(x, RealBall):
        return ComplexBall(x.mid, Q(0), x.rad)
    return ComplexBall(Q(x), Q(0))
