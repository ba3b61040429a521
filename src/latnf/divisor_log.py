"""Divisors and Log maps, S-unit log embeddings, and Kessler's
lower bound on the first minimum of the log-unit lattice.

Infinite coordinates are certified RealBalls throughout, so norms and
volumes all come with tracked error bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import intmath
from .dyadic import Q, RealBall, ball_sqrt, log_ball, sqrt_bracket
from .ideal_arith import (HnfIdeal, PrimeIdeal, factor_over, kummer_dedekind,
                          ord_at)
from .nf_core import FieldElement, NumberField, _abs2_pow, precision_ladder


class Divisor:
    """Finite support over prime ideals plus real coefficients at the
    infinite places (one per place, already weighted by nothing: the
    coefficient a_nu itself)."""

    def __init__(self, field: NumberField, finite_part=None, infinite_part=None):
        self.field = field
        self.finite_part: dict[PrimeIdeal, int] = dict(finite_part or {})
        self.finite_part = {p: int(e) for p, e in self.finite_part.items() if e != 0}
        places = field.places()
        if infinite_part is None:
            infinite_part = [RealBall(0) for _ in places]
        self.infinite_part = [v if isinstance(v, RealBall) else RealBall(Q(v))
                              for v in infinite_part]
        if len(self.infinite_part) != len(places):
            raise ValueError("one infinite coefficient per place required")

    def euclid_norm_sq(self) -> RealBall:
        acc = RealBall(Q(0))
        for e in self.finite_part.values():
            acc = acc + RealBall(Q(e * e))
        for v in self.infinite_part:
            acc = acc + v * v
        return acc

    def euclid_norm(self, prec=64) -> RealBall:
        return ball_sqrt(self.euclid_norm_sq(), prec)

    def __repr__(self):
        fin = {f"N={p.norm()}": e for p, e in self.finite_part.items()}
        return f"Divisor({fin}, {[float(v) for v in self.infinite_part]})"


def ideal_divisor(a: HnfIdeal) -> Divisor:
    """d(a): the finite divisor of a factored over its support."""
    primes = _support_primes(a)
    vals = factor_over(a, primes)
    if vals is None:
        raise ValueError("support does not factor the ideal "
                         "(index-divisor prime or incomplete support)")
    return Divisor(a.field, {p: v for p, v in zip(primes, vals) if v}, None)


def _support_primes(a: HnfIdeal) -> list[PrimeIdeal]:
    field = a.field
    nrm = a.norm()
    rationals = set(intmath.factorint(nrm.numerator or 1))
    rationals |= set(intmath.factorint(nrm.denominator))
    rationals |= set(intmath.factorint(a.denom))
    rationals.discard(1)
    out = []
    for p in sorted(rationals):
        for prime, _e in kummer_dedekind(field, p):
            out.append(prime)
    return out


def ideal_divisor_zero(a: HnfIdeal) -> Divisor:
    """d0(a): degree-zero normalization of d(a), at 64 bits."""
    field = a.field
    d = ideal_divisor(a)
    lognorm = log_ball(Q(a.norm()), 64) if a.norm() != 1 else RealBall(Q(0))
    inf = []
    for _idx, nnu in field.places():
        inf.append(lognorm * Q(-nnu, field.n))
    return Divisor(field, d.finite_part, inf)


def principal_divisor(alpha: FieldElement, prec: int = 64) -> Divisor:
    """((alpha)): ord part over the support of (alpha), infinite part
    -n_nu log|sigma_nu(alpha)| at prec bits.  Its degree is zero by the
    product formula; nothing here checks it."""
    if alpha.is_zero():
        raise ValueError("zero element has no divisor")
    field = alpha.field
    ideal = HnfIdeal.principal(field, alpha)
    fin = ideal_divisor(ideal).finite_part
    logv = log_embedding(alpha, prec)
    inf = [-v for v in logv.entries]
    return Divisor(field, fin, inf)


@dataclass
class LogVector:
    """Vector over the infinite places: entries n_nu*log|sigma_nu(.)|."""
    entries: list            # RealBall per place

    def norm_sq(self) -> RealBall:
        acc = RealBall(Q(0))
        for v in self.entries:
            acc = acc + v * v
        return acc


def log_embedding(alpha: FieldElement, prec: int = 64) -> LogVector:
    """Log(alpha) = (n_nu log|sigma_nu(alpha)|)_nu as certified balls,
    one `log_ball` series per place.

    The embedding ladder climbs from prec + 16 bits until every place's
    |sigma_nu(alpha)|^2 ball (m ± r)/den has m > r.  Its centre c = m/den
    then gets one `log_ball(c, prec + 8)`, within 2^-(prec+8) of log c.
    Any y in the ball has |y - c| <= r/den, and by the mean value theorem
    |log y - log c| = |y - c|/xi for some xi between y and c, so
    xi >= (m - r)/den and |log y - log c| <= r/(m - r).  That spread,
    rounded up on the 2^-(prec+24) grid, is added to the radius, and the
    ball is scaled by n_nu/2 exactly: it contains n_nu log|sigma_nu(alpha)|.
    """
    if alpha.is_zero():
        raise ValueError("Log of zero")
    field = alpha.field
    grid = prec + 24
    for work in precision_ladder(prec + 16, "log embedding failed to "
                                 "separate |sigma(alpha)| from 0"):
        pt = field.embed(alpha, work)
        squares = [(_abs2_pow(pt, idx, 1), nnu) for idx, nnu in field.places()]
        if all(mid > rad for (mid, rad, _den), _nnu in squares):
            out = []
            for (mid, rad, den), nnu in squares:
                centre = log_ball(Q(mid, den), prec + 8)
                spread = Q(-(-(rad << grid) // (mid - rad)), 1 << grid)
                half = Q(nnu, 2)
                out.append(RealBall(centre.mid * half,
                                    (centre.rad + spread) * half))
            return LogVector(out)


@dataclass
class LogSUnitVector:
    """(-valuations over S, Log(alpha)): a Log-S-unit lattice point."""
    val_part: list           # ints, one per prime in S (negated valuations)
    inf_part: LogVector

    def norm_sq(self) -> RealBall:
        acc = RealBall(Q(sum(v * v for v in self.val_part)))
        return acc + self.inf_part.norm_sq()


def log_s_embed(alpha: FieldElement,
                s_primes: list[PrimeIdeal]) -> LogSUnitVector:
    """Log_S(alpha) = ((-v_p)_p, Log(alpha)), Log at 64 bits; errors if
    alpha is not an S-unit (reporting the first offending prime)."""
    ideal = HnfIdeal.principal(alpha.field, alpha)
    vals = factor_over(ideal, s_primes)
    if vals is None:
        offender = next((p for p in _support_primes(ideal)
                         if p not in s_primes and ord_at(ideal, p) != 0), None)
        raise ValueError(f"element is not an S-unit; offending prime {offender}")
    return LogSUnitVector([-v for v in vals], log_embedding(alpha))


# ---------------------------------------------------------------------------
# The first minimum of the log-unit lattice


def kessler_lambda1_lower(field: NumberField, c: int = 1000) -> Fraction:
    """Certified rational lower bound on lambda_1 of the log-(S-)unit
    lattice: 1 / (c sqrt(n) log(n)^3), clamped at 1."""
    n = field.n
    # rational upper bounds for sqrt(n) and log(n)^3
    _, s_up = sqrt_bracket(Q(n), 32)
    ln = log_ball(Q(n), 32)
    l_up = ln.hi()
    denom = Q(c) * s_up * (l_up ** 3)
    if denom < 1:
        denom = Q(1)
    return Q(1) / denom
