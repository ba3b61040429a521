"""Certified dyadic interval arithmetic.

Every real quantity with an infinite binary expansion on the log side
(`divisor_log`, `ideal_walk`, `relations`, `sunit_pipeline`) is carried
as a RealBall: a dyadic midpoint plus a dyadic error radius that provably
contains the true value.  All arithmetic here is exact (Python ints and
Fractions); transcendental functions return balls whose radius accounts
for both truncation and rounding.  The certified logarithm `log_ball`
and exponential `exp_ball` compute on integer mantissas and return a
RealBall; the log of a ball is one `log_ball` at its centre plus the
spread the mean value theorem bounds (`divisor_log.log_embedding`, the
one reader of a logarithm over a ball).  The embedding path
keeps its complex balls as integer mantissas and never builds a ball
object: `nf_core`'s root balls, Horner evaluation and |z|^2k test, and
`approx_reduction.minkowski_columns_x`, whose columns are integer
mantissas over one denominator per column.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import isqrt

Q = Fraction

_LN2_CACHE: dict[int, Fraction] = {}
# log_ball's series works at 2^-(prec + _LOG_WORK_BITS), and its z^2
# steps at 2^-(work + _LOG_GUARD)
_LOG_WORK_BITS = 24
_LOG_GUARD = 64


def round_ratio(num: int, den: int) -> int:
    """floor(num / den + 1/2) for den > 0: the nearest integer, halves
    rounded up."""
    return (2 * num + den) // (2 * den)


def round_half_up(x: Fraction) -> int:
    """floor(x + 1/2): the nearest integer, halves rounded up."""
    return round_ratio(x.numerator, x.denominator)


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
    """Dyadic approximation of log 2 with error < 2^-prec.

    The series below loses less than (5K + 4)·2^-work over its K steps
    (the bound `log_ball` derives, at z = 1/3, with K <= work/3 + 1), and
    the rounding to 2^-prec at most 2^15·2^-work, so the error stays
    below 2^16·2^-work = 2^-prec while 5K + 4 <= 2^15: for prec up to
    about 19,600 bits.  Beyond that, ValueError.
    """
    key = prec
    if key in _LN2_CACHE:
        return _LN2_CACHE[key]
    # log 2 = 2 atanh(1/3) = 2 sum z^(2k+1)/(2k+1), z = 1/3
    work = prec + 16
    if 5 * (work // 3 + 1) + 4 > 1 << 15:
        raise ValueError(f"ln2: {prec} bits exceed the series' guard bits")
    scale = 1 << work
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
    """Ball containing log(x) for rational x > 0, radius 2^-prec.

    Write x = 2^e·m with m = a/b in [1, 2) and z = (m - 1)/(m + 1) = p/q
    in [0, 1/3), p = a - b and q = a + b (unreduced: no floor below
    depends on how the ratio is reduced).  Then log x = e·log 2 +
    2·atanh z, and with W = work = prec + 24 the series runs on integers
    at 2^-W: t_0 = floor(z·2^W), t_{k+1} = floor(t_k·z^2), and
    S = sum_{k<K} floor(t_k/(2k+1)), stopping at the first t_K = 0.

    Error bound, with T_k = z^(2k+1)·2^W (every loss one-sided):
    - 0 <= T_k - t_k < 1 + z^2 + z^4 + ... <= 9/8 (each floor loses < 1,
      and earlier losses shrink by z^2 <= 1/9 per step);
    - each term then loses < 9/8 + 1 = 17/8 to T_k/(2k+1);
    - the tail sum_{k>=K} T_k/(2k+1) is < (9/8)·(9/8) < 2, as T_K < 9/8;
    so 2S·2^-W is below log m by less than (17K/4 + 4)·2^-W <=
    (5K + 4)·2^-W.  ln2(W) is within 2^-W of log 2, which adds
    |e|·2^-W, and rounding the midpoint to 2^-(prec+8) adds at most
    2^-(prec+9) = 2^15·2^-W.  The radius 2^-prec = 2^24·2^-W therefore
    holds whenever 5K + 4 + |e| <= 2^24 - 2^15.  Each step divides the
    term by at least 9 and t_0 < 2^W/3, so K <= W/3 + 1; the check below
    uses that cap, before the series runs, and only prec or |e| in the
    millions of bits fail it (ln2 stops prec near 19,600 bits first).
    Outside that range, ValueError.

    The step t_k·z^2 runs on zf = floor(p^2·2^g/q^2), g = W +
    _LOG_GUARD: t_k·z^2·2^g lies in [t_k·zf, t_k·zf + t_k), so when the
    two ends shifted down by g agree they give the floor exactly, and
    otherwise the step takes the exact t_k·p^2 // q^2.
    """
    if x <= 0:
        raise ValueError("log of non-positive rational")
    work = prec + _LOG_WORK_BITS
    a, b = x.numerator, x.denominator
    e = a.bit_length() - b.bit_length()
    if e >= 0:
        b <<= e
    else:
        a <<= -e
    if a < b:
        a <<= 1
        e -= 1
    k_cap = work // 3 + 1
    if 5 * k_cap + 4 + abs(e) > (1 << _LOG_WORK_BITS) - (1 << 15):
        raise ValueError(f"log_ball: the error bound at {prec} bits and "
                         f"exponent {e} exceeds the guard bits")
    l2 = ln2(work)             # a dyadic at 2^-work or coarser
    p, q = a - b, a + b
    p2, q2 = p * p, q * q
    g = work + _LOG_GUARD
    zf = (p2 << g) // q2
    term = (p << work) // q
    total = 0
    k = 0
    while term:
        total += term // (2 * k + 1)
        t = term * zf
        nxt = t >> g
        if nxt != (t + term - 1) >> g:
            nxt = term * p2 // q2
        term = nxt
        k += 1
    l2_work = l2.numerator << (work + 1 - l2.denominator.bit_length())
    val = 2 * total + e * l2_work
    # round half up from 2^-work to 2^-(prec+8)
    shift = _LOG_WORK_BITS - 8
    mid = (val + (1 << (shift - 1))) >> shift
    return RealBall(Q(mid, 1 << (prec + 8)), Q(1, 1 << prec))


def exp_ball(t: Fraction, prec: int) -> "RealBall":
    """Ball containing exp(t) for rational t, relative radius 2^-prec.

    With W = work = prec + 32 and l2 = ln2(W), within 2^-W of log 2,
    k = floor(t/l2 + 1/2) and s = t - k·l2 (exact), so |s| <= l2/2 < 0.35.
    The series runs on integers at 2^-W: t_0 = 2^W and t_j is an integer
    within 1 of t_{j-1}·s/j (a floor of its magnitude, or a ceiling when
    s < 0 and t_{j-1} < 0); total is the sum of the t_j before the first
    t_J = 0, or of t_0..t_W when j passes W first.

    Error bound, with T_j = s^j/j!·2^W and e_j = t_j - T_j:
    - e_j = e_{j-1}·s/j + (rounding < 1), and |s|/j < 1/2, so |e_j| < 2;
    - the tail sum_{j>=J} |T_j| is below 2|T_J|, as |T_{j+1}| <= |T_j|/2:
      below 4 when t_J = 0 (|T_J| = |e_J|), and below 1 after the break
      at j > W (|T_{W+1}| < 2^W·2^-(W+1));
    so |total - 2^W·e^s| < 2(J - 1) + 4 <= 2W + 4 with J <= W + 1.
    The true reduction s* = t - k·log 2 differs from s by |k|·2^-W at
    most, so exp(t) = 2^k·e^(s*) and val = 2^k·total·2^-W give
    |val - exp(t)| <= exp(t)·eps with
    eps = (2W + 4)·2^-W/e^(s*) + (e^(|k|·2^-W) - 1)
        <= (4W + 8 + 2|k|)·2^-W.
    While 4W + 8 + 2|k| <= 2^31, |k|·2^-W <= 2^30·2^-32 = 1/4, so
    |s*| < 0.35 + 1/4 and e^(s*) > e^-0.6 > 1/2, and e^x - 1 <= 2x for
    x <= 1, which is the step above; eps is then <= 2^-(prec+1), hence
    |val - exp(t)| <= eps·|val|/(1 - eps) <= |val|·2^-prec, the radius
    returned.  The check below raises ValueError outside that range (and
    for prec < 0); ln2 stops prec near 19,600 bits first.
    """
    work = prec + 32
    if prec < 0:
        raise ValueError(f"exp_ball: negative precision {prec}")
    l2 = ln2(work)
    k = math.floor(t / l2 + Q(1, 2)) if t != 0 else 0
    if 4 * work + 8 + 2 * abs(k) > 1 << 31:
        raise ValueError(f"exp_ball: the error bound at {prec} bits and "
                         f"exponent {k} exceeds the guard bits")
    s = t - k * l2            # |s| <= l2/2
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

    def __neg__(self):
        return RealBall(-self.mid, self.rad)

    def __mul__(self, other):
        other = _coerce(other)
        mid = self.mid * other.mid
        rad = (abs(self.mid) * other.rad + abs(other.mid) * self.rad
               + self.rad * other.rad)
        return RealBall(mid, rad)

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
