"""Number fields with exact element arithmetic and certified embeddings.

A field is defined by a monic integer polynomial; elements carry exact
rational coordinates over a fixed integral basis.  One root certifier
(`_root_mantissas`) turns a squarefree integer polynomial into disjoint
certified root balls on integer mantissas at one exponent 2^-W, at any
requested precision; a field holds one such set in canonical order,
rounds every request from it, and embeds elements by Horner's scheme on
integers (`_horner_ball`).  Every reader works on these integer balls
(`EmbeddingPoint`): the signs at real places, |w|^2k (`_abs2_pow`) and
the irreducibility test's root-subset search.  Comparisons of algebraic values against rational thresholds
(or their k-th roots) are decided exactly: integer intervals first, then
Liouville-type separation bounds (`_abs2_pow_gt` for (|w|^2)^k > c,
`decide_root_gt_int` underneath).  Every precision-doubling loop of the
library runs on `precision_ladder`, which stops at `PRECISION_CAP_BITS`
bits with `CapExceeded`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import isqrt

import numpy as np

from . import intmath, polyq, qlinalg
from .dyadic import Q, round_half_up, round_ratio
from .intmath import CapExceeded    # re-exported: callers catch it from here

GT, LE = "GT", "LE"
# The largest precision, in bits, a precision-doubling loop may try: the
# power of two at or above 64 times the largest precision any tier-1 test
# or benchmark op reaches (4,352 bits, a refinement of a held root set
# under the tests; the benchmark ops reach 2,752).
PRECISION_CAP_BITS = 1 << 19


def precision_ladder(start: int, message: str):
    """The precisions start, 2 start, 4 start, ... of a loop that doubles
    its precision until a ball decides, up to PRECISION_CAP_BITS; past
    that, CapExceeded(message)."""
    prec = start
    while prec <= PRECISION_CAP_BITS:
        yield prec
        prec *= 2
    raise CapExceeded(message)


def liouville_separation(poly) -> Fraction:
    """Minimum distance from any non-integer real root of poly to Z."""
    n = polyq.degree(poly)
    if n < 1:
        raise ValueError("degree must be >= 1")
    height = max(abs(int(c)) for c in poly)
    return Q(1, (n + 1) ** 3 * 2 ** n * (2 + height) ** n)


def _compose_power(poly, k: int):
    """Monic polynomial whose roots are the k-th powers of poly's roots.

    Uses Newton identities: power sums of the output are the (k*j)-th
    power sums of the input.  Exact over Q.
    """
    poly = polyq.trim([Q(c) for c in poly])
    d = polyq.degree(poly)
    f = [c / poly[-1] for c in poly]
    # power sums p_1..p_{k*d} of roots of f via Newton's identity
    e = [Q(0)] * (d + 1)        # elementary symmetric functions
    for i in range(1, d + 1):
        e[i] = Q((-1) ** i) * f[d - i]
    m = k * d
    p = [Q(0)] * (m + 1)
    for j in range(1, m + 1):
        acc = Q(0)
        for i in range(1, min(j, d)):
            acc += (Q(-1) ** (i - 1)) * e[i] * p[j - i]
        if j <= d:
            acc += (Q(-1) ** (j - 1)) * j * e[j]
        p[j] = acc
    # output power sums
    q = [p[k * j] for j in range(1, d + 1)]
    # invert Newton to get elementary symmetric of output
    eo = [Q(1)] + [Q(0)] * d
    for j in range(1, d + 1):
        acc = q[j - 1]
        for i in range(1, j):
            acc += (Q(-1) ** i) * eo[i] * q[j - 1 - i]
        eo[j] = acc * (Q(-1) ** (j - 1)) / j
    out = [Q(0)] * (d + 1)
    for i in range(d + 1):
        out[d - i] = (Q(-1) ** i) * eo[i]
    return out


def _kronecker_square_charpoly(poly):
    """Integer polynomial with roots w_i * w_j for all root pairs of poly
    (poly monic integer); includes |w|^2 for conjugate pairs."""
    n = polyq.degree(poly)
    comp = [[Q(0)] * n for _ in range(n)]
    for i in range(1, n):
        comp[i][i - 1] = Q(1)
    for i in range(n):
        comp[i][n - 1] = -Q(poly[i], poly[n])
    # Kronecker product
    big = [[Q(0)] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            if comp[i][j] == 0:
                continue
            for a in range(n):
                for b in range(n):
                    if comp[a][b] != 0:
                        big[i * n + a][j * n + b] = comp[i][j] * comp[a][b]
    return polyq.primitive_z(qlinalg.charpoly(big))


def _scale_roots_to_int(poly, b: int):
    """Integer polynomial whose roots are b * (roots of poly)."""
    poly = polyq.trim([Q(c) for c in poly])
    d = polyq.degree(poly)
    return polyq.primitive_z([poly[i] * Q(b) ** (d - i) for i in range(d + 1)])


def decide_root_gt_int(int_poly, refine, c: int) -> str:
    """Decide whether a designated real root w of int_poly satisfies
    w > c (GT) or w <= c (LE), for an integer threshold c.

    `refine(prec)` must return integers (mid, rad, den), den > 0, whose
    ball mid/den +- rad/den is certified to contain w with radius
    <= 2^-prec.  Exact integer roots are snapped via the separation
    bound, to the midpoint rounded half to even; equality resolves LE.
    """
    sep = liouville_separation(int_poly)
    sn, sd = sep.numerator, sep.denominator
    for prec in precision_ladder(32, "root comparison did not decide "
                                 "within the precision cap"):
        mid, rad, den = refine(prec)
        cd = c * den
        if mid - rad > cd:
            return GT
        if mid + rad <= cd:
            return LE
        if 4 * rad * sd <= sn * den:                # radius <= sep/4
            z = round(Q(mid, den))
            if 2 * (abs(mid - z * den) + rad) * sd < sn * den:
                return GT if z > c else LE
            return GT if mid > cd else LE


def _root_mantissas(poly, prec: int, start=None):
    """(work, [(a, b, r)]): disjoint certified balls (a + bi) 2^-work +-
    r 2^-work of radius <= 2^-prec around the complex roots of a
    squarefree integer polynomial, in the order of start's balls.

    Newton's method runs on integer mantissas at the shared exponent
    2^-work from the midpoints of start = (W, [(a, b, r)]) at 2^-W, or of
    numpy's float roots, rounded half up to the grid; a ball of radius
    n|f(z)|/|f'(z)| around z holds a root, and pairwise disjoint balls
    hold distinct ones.  `work` doubles when a ball fails, up to the
    precision cap (then CapExceeded).
    """
    f = [int(c) for c in poly]
    df = [k * f[k] for k in range(1, len(f))]
    if start is None:
        start = 0, [(Q(float(z.real)).limit_denominator(10 ** 12),
                     Q(float(z.imag)).limit_denominator(10 ** 12), 0)
                    for z in np.roots([float(c) for c in reversed(poly)])]
    sw, mids = start
    for work in precision_ladder(max(64, prec + 32),
                                 "root refinement failed to certify"):
        balls, scale = [], Q(1 << work, 1 << sw)
        for a, b, _r in mids:
            z = _newton_ball(f, df, round_half_up(a * scale),
                             round_half_up(b * scale), work, prec)
            if z is None:
                break
            balls.append(z)
        else:
            if _disjoint(balls):
                return work, balls


def _newton_ball(f, df, a: int, b: int, work: int, prec: int):
    """Newton's method on f from z = (a + bi) 2^-work, z rounded half up to
    the grid after every step, until the certified radius n|f(z)|/|f'(z)|
    (its square root rounded up to the grid) is at most 2^-prec.  Returns
    the mantissas (a, b, r) of the ball z +- r 2^-work; None if that takes
    more than work.bit_length() + 60 steps or f'(z) vanishes."""
    n = len(f) - 1
    for _ in range(work.bit_length() + 60):
        fr, fi = _horner(f, a, b, work)       # f(z) 2^(n work)
        dr, di = _horner(df, a, b, work)      # f'(z) 2^((n-1) work)
        d2 = dr * dr + di * di
        if d2 == 0:
            return None
        # |f(z)/f'(z)|^2 = (fr^2 + fi^2) / d2 * 2^(-2 work)
        f2 = fr * fr + fi * fi
        r = n * (isqrt(f2 // d2) + 1) if f2 else 0
        if r << prec <= 1 << work:
            return a, b, r
        # Newton step z - f/f' = z - f(z) conj(f'(z)) / |f'(z)|^2
        a = (2 * (a * d2 - (fr * dr + fi * di)) + d2) // (2 * d2)
        b = (2 * (b * d2 - (fi * dr - fr * di)) + d2) // (2 * d2)
    return None


def _horner(poly, a: int, b: int, work: int):
    """poly((a + bi) 2^-work) * 2^(deg work) as an integer pair (re, im)."""
    deg = len(poly) - 1
    re, im = poly[deg], 0
    for k in range(deg - 1, -1, -1):
        re, im = (re * a - im * b + (poly[k] << (work * (deg - k))),
                  re * b + im * a)
    return re, im


def _disjoint(balls) -> bool:
    """Pairwise disjointness of balls given as mantissas (a, b, r) at one
    shared exponent."""
    for i, (ai, bi, ri) in enumerate(balls):
        for aj, bj, rj in balls[i + 1:]:
            if (ai - aj) ** 2 + (bi - bj) ** 2 <= (ri + rj) ** 2:
                return False
    return True


def _abs2_pow_gt(point_at, j: int, int_poly, k: int, c: Fraction) -> str:
    """Decide (|w|^2)^k > c exactly for a rational c >= 0; equality
    resolves LE.

    `point_at(prec)` returns an `EmbeddingPoint` whose value j is a ball
    around w of radius <= 2^-prec.  Intervals at 48, 128 and 320 bits
    decide most cases; otherwise `int_poly()` (called only then) gives an
    integer polynomial with root w, and the Liouville bound on the k-th
    powers of the roots of its Kronecker square (the products w_i w_j,
    |w|^2 among them) settles it.
    """
    b = c.denominator
    for prec in (48, 128, 320):
        mid, rad, den = _abs2_pow(point_at(prec), j, k)
        lhs, rhs = (mid - rad) * b, c.numerator * den
        if lhs > rhs:
            return GT
        if lhs + 2 * rad * b <= rhs:
            return LE
    kron = _kronecker_square_charpoly(int_poly())   # roots include |w|^2
    powed = _compose_power(kron, k)                  # roots (|w|^2)^k
    scaled = _scale_roots_to_int(powed, b)           # roots b*(...)

    def refine(p):
        mid, rad, den = _abs2_pow(point_at(p + k.bit_length() * 4 + 8), j, k)
        return mid * b, rad * b, den

    return decide_root_gt_int(scaled, refine, c.numerator)


def _abs2_pow(pt: EmbeddingPoint, j: int, k: int):
    """(mid, rad, den): the ball around |z|^2k for the value z of pt at
    embedding j, as integers over den.  Over the common denominator
    pt.rad_den, z = (re + i im) +- r and |z|^2 lies in (re^2 + im^2) +-
    (2 |z|_1 r + r^2), |z|_1 = |re| + |im|; `_ball_pow` raises that ball
    to the k-th power."""
    re, im, r = pt.balls[j]
    s = pt.rad_den >> pt.work
    re, im = re * s, im * s
    mid, rad = _ball_pow(re * re + im * im, 2 * (abs(re) + abs(im)) * r + r * r,
                         k)
    return mid, rad, pt.rad_den ** (2 * k)


def _ball_pow(mid: int, rad: int, k: int):
    """The ball (mid +- rad)^k by binary powering, as (mid, rad) over the
    k-th power of the input's denominator."""
    out_mid, out_rad = 1, 0
    while k:
        if k & 1:
            out_mid, out_rad = (out_mid * mid, abs(out_mid) * rad
                                + abs(mid) * out_rad + out_rad * rad)
        k >>= 1
        if k:
            mid, rad = mid * mid, 2 * abs(mid) * rad + rad * rad
    return out_mid, out_rad


def _subset_factor_test(poly_q, work: int, roots):
    """True when no product of (x - w) over at most half of the roots is
    an integer polynomial dividing poly_q, False when one is; None when a
    coefficient ball is too wide to tell (retry with tighter roots).

    `roots` are the balls (a + bi) 2^-work +- r 2^-work as mantissas
    (a, b, r).  A product over m roots has coefficient balls at
    2^-(m work); each factor (x - w) adds |c|_1 r + |w|_1 rho + rho r
    (|.|_1 = |re| + |im|) to a coefficient c +- rho.  A monic factor over
    Q of a monic integer polynomial has integer coefficients, so a subset
    whose coefficient ball excludes every integer gives no factor;
    otherwise the midpoints rounded half to even are tried by exact
    division.
    """
    n = len(roots)
    for size in range(1, n // 2 + 1):
        scale = 1 << (size * work)
        for sub in combinations(range(n), size):
            coeffs = [(1, 0, 0)]
            for i in sub:
                a, b, r = roots[i]
                zr = abs(a) + abs(b)
                # x c(x) - w c(x), x c(x) raised to the next exponent
                shifted = [(0, 0, 0)] + [(cr << work, ci << work, cq << work)
                                         for cr, ci, cq in coeffs]
                coeffs = [(sr - (cr * a - ci * b), si - (cr * b + ci * a),
                           sq + (abs(cr) + abs(ci)) * r + zr * cq + cq * r)
                          for (sr, si, sq), (cr, ci, cq)
                          in zip(shifted, coeffs + [(0, 0, 0)])]
            cand = []
            for cr, ci, cq in coeffs:
                if 4 * cq >= scale:          # radius >= 1/4
                    return None
                z = round(Q(cr, scale))
                if abs(ci) > cq or abs(cr - z * scale) > cq:
                    break       # no integer in this ball: not a factor
                cand.append(z)
            else:
                _, rem = polyq.poly_divmod(poly_q, [Q(c) for c in cand])
                if not rem:
                    return False
    return True


class EmbeddingPoint:
    """Certified complex values of an element at every embedding, on
    integers: value j is the ball (re + i im) 2^-work +- rad / rad_den
    for (re, im, rad) = balls[j], where rad_den is a multiple of 2^work."""

    __slots__ = ("balls", "work", "rad_den")

    def __init__(self, balls, work, rad_den):
        self.balls = balls
        self.work = work
        self.rad_den = rad_den


class FieldElement:
    """Element of a number field, exact coordinates in the integral basis."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = tuple(Q(c) for c in coords)
        if len(self.coords) != field.n:
            raise ValueError("coordinate length mismatch")

    # -- ring operations ---------------------------------------------------
    def __add__(self, other):
        other = self.field.coerce(other)
        return FieldElement(self.field,
                            [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        other = self.field.coerce(other)
        return FieldElement(self.field,
                            [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.coords])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.field, [a * other for a in self.coords])
        other = self.field.coerce(other)
        tensor = self.field.mul_tensor
        n = self.field.n
        out = [Q(0)] * n
        for i, xi in enumerate(self.coords):
            if xi == 0:
                continue
            for j, yj in enumerate(other.coords):
                if yj == 0:
                    continue
                c = xi * yj
                row = tensor[i][j]
                for t in range(n):
                    if row[t]:
                        out[t] += c * row[t]
        return FieldElement(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero element")
        m = self.field.mult_matrix(self)
        x = qlinalg.solve(m, list(self.field.one().coords))
        return FieldElement(self.field, x)

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            try:
                other = self.field.coerce(other)
            except Exception:
                return NotImplemented
        return self.field is other.field and self.coords == other.coords

    def __hash__(self):
        return hash((id(self.field), self.coords))

    def norm(self) -> Fraction:
        return qlinalg.mat_det(self.field.mult_matrix(self))

    def trace(self) -> Fraction:
        m = self.field.mult_matrix(self)
        return sum(m[i][i] for i in range(self.field.n))

    def charpoly(self):
        return qlinalg.charpoly(self.field.mult_matrix(self))


    def __repr__(self):
        return f"FieldElement({list(self.coords)})"


class NumberField:
    """Monic-integer-polynomial number field with a fixed integral basis.

    The integral basis defaults to the power basis, which is checked to
    be maximal by Dedekind's criterion; a supplied basis is verified to be
    closed under multiplication (maximality and LLL-reducedness are
    assumed, not verified).
    """

    def __init__(self, poly, integral_basis=None):
        poly = [int(c) for c in poly]
        if not poly or poly[-1] != 1:
            raise ValueError("defining polynomial must be monic with integer coefficients")
        n = len(poly) - 1
        if n < 2:
            raise ValueError("degree must be >= 2")
        self.poly = poly
        self.poly_q = [Q(c) for c in poly]
        self.n = n
        self._roots = 0, 0, []          # (P, W, balls): see _all_roots
        # filled by ideal_arith: splitting of rational primes, prime powers
        self._kd_cache: dict = {}
        self._prime_pow_cache: dict = {}
        if not self._is_irreducible():
            raise ValueError("reducible defining polynomial")
        self.disc_poly = polyq.discriminant(self.poly_q)
        # signature by Sturm
        self.n_real = polyq.count_real_roots(self.poly_q)
        self.n_cplx = (n - self.n_real) // 2
        # integral basis: rows basis_pb[i] = power-basis coords of b_i
        # without a supplied basis the coordinates are the power-basis
        # ones, and to_power / from_power copy them
        self.power_basis = integral_basis is None
        if self.power_basis:
            self.basis_pb = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
        else:
            self.basis_pb = [[Q(c) for c in row] for row in integral_basis]
        self._pb_matrix = qlinalg.transpose(self.basis_pb)   # columns = basis
        det = qlinalg.mat_det(self._pb_matrix)
        if det == 0:
            raise ValueError("integral basis is singular")
        self._pb_inv = qlinalg.mat_inv(self._pb_matrix)
        index2 = 1 / (det * det)
        disc_field = self.disc_poly / index2
        if disc_field.denominator != 1:
            raise ValueError("disc(poly)/[O_K:Z[theta]]^2 is not an integer")
        self.disc_field = int(disc_field)
        self.index_sq = int(index2)         # [O_K:Z[theta]]^2
        # structure constants: mul_tensor[i][j] = integer coords of b_i * b_j
        self.mul_tensor = self._integral_mul_tensor()
        if self.power_basis:
            self._check_power_basis_maximal()

    # -- construction helpers ----------------------------------------------
    def _is_irreducible(self) -> bool:
        disc = polyq.discriminant(self.poly_q)
        if disc == 0:
            return False
        dnum = abs(int(disc * disc.denominator ** 2)) or 1
        for p in intmath.primes_below(80):
            if dnum % p == 0:
                continue
            fac = polyq.factor_mod_p(self.poly, p)
            if len(fac) == 1 and fac[0][1] == 1:
                return True
        # certified subset-of-roots factor search
        for prec in precision_ladder(64, "irreducibility test did not decide "
                                     "within the precision cap"):
            result = _subset_factor_test(self.poly_q,
                                         *_root_mantissas(self.poly, prec))
            if result is not None:
                return result

    def _integral_mul_tensor(self):
        """Integer coordinates of every product b_i * b_j; ValueError when
        one is not integral, i.e. the basis is not closed under
        multiplication."""
        n = self.n
        tensor = []
        for i in range(n):
            row_i = []
            for j in range(n):
                prod = polyq.poly_divmod(
                    polyq.poly_mul(self.basis_pb[i], self.basis_pb[j]),
                    self.poly_q)[1]
                coords = self.from_power(prod).coords
                if any(c.denominator != 1 for c in coords):
                    raise ValueError(
                        "supplied basis is not closed under multiplication")
                row_i.append(tuple(int(c) for c in coords))
            tensor.append(tuple(row_i))
        return tuple(tensor)

    def _check_power_basis_maximal(self):
        """Dedekind's criterion (Cohen Thm 6.1.4) at every p with p^2 | disc:
        with f = prod g_i^e_i mod p, g = prod g_i, h = f/g mod p and
        F = (g h - f)/p, Z[theta] is p-maximal iff gcd(F, g, h) = 1 mod p."""
        disc = abs(int(self.disc_poly))
        for p, k in intmath.factorint(disc).items():
            if k < 2:
                continue
            g, h = [1], [1]
            for t, e in polyq.factor_mod_p(self.poly, p):
                g = polyq.poly_mulmod(g, t, p)
                for _ in range(e - 1):
                    h = polyq.poly_mulmod(h, t, p)
            big_f = [c // p for c in polyq.poly_add(
                polyq.poly_mul(g, h), polyq.poly_neg(self.poly))]
            common = polyq.poly_gcd_p(polyq.poly_gcd_p(g, h, p), big_f, p)
            if polyq.degree(common) > 0:
                raise ValueError(
                    f"power basis is not maximal at p = {p} (Dedekind's "
                    "criterion); supply an integral basis")

    # -- element plumbing ----------------------------------------------------
    def element(self, coords) -> FieldElement:
        return FieldElement(self, coords)

    def zero(self) -> FieldElement:
        return FieldElement(self, [Q(0)] * self.n)

    def one(self) -> FieldElement:
        return self.from_power([Q(1)])

    def coerce(self, x) -> FieldElement:
        if isinstance(x, FieldElement):
            if x.field is not self:
                raise ValueError("element from a different field")
            return x
        if isinstance(x, (int, Fraction)):
            return self.one() * Q(x)
        raise TypeError(f"cannot coerce {x!r}")

    def to_power(self, elt: FieldElement):
        """Power-basis polynomial of an element."""
        vec = list(elt.coords)
        if not self.power_basis:
            vec = qlinalg.mat_vec(self._pb_matrix, vec)
        return polyq.trim(vec)

    def from_power(self, poly) -> FieldElement:
        poly = [Q(c) for c in poly]
        if len(poly) > self.n:
            poly = polyq.poly_divmod(poly, self.poly_q)[1]
        poly = list(poly) + [Q(0)] * (self.n - len(poly))
        if not self.power_basis:
            poly = qlinalg.mat_vec(self._pb_inv, poly)
        return FieldElement(self, poly)

    def mult_matrix(self, elt: FieldElement):
        """Matrix of multiplication by elt on the integral basis (columns
        are images of basis vectors)."""
        tensor = self.mul_tensor
        n = self.n
        cols = []
        for j in range(n):
            col = [Q(0)] * n
            for i, xi in enumerate(elt.coords):
                if xi == 0:
                    continue
                row = tensor[i][j]
                for t in range(n):
                    if row[t]:
                        col[t] += xi * row[t]
            cols.append(col)
        return qlinalg.transpose(cols)

    # -- embeddings ----------------------------------------------------------
    def _all_roots(self, prec: int):
        """(w, [(a, b, r)]): certified balls (a + bi) 2^-w +- r 2^-w of
        radius <= 2^-prec for all n roots in canonical order (real roots
        ascending, then each upper-half-plane root by (re, im) followed by
        its conjugate), rounded from the one root set the field holds.

        The held set (P, W, balls) has radius <= 2^-P at 2^-W, W >= P + 32.
        When P < prec + 64, Newton refines it from its own midpoints to
        max(prec + 64, 2P).  It is rounded to w = max(64, prec + 32) < P
        (prec >= 1), s = W - w: a' = floor(a/2^s + 1/2), b' likewise, r' =
        ceil((r + |a - a' 2^s| + |b - b' 2^s|)/2^s), a ball around the held
        one (an exact root keeps radius 0).  As r/2^s <= 2^(w-P) <= 1/2,
        r' <= 2 and r' 2^-w <= 2^(1-w) < 2^-prec; if the rounded balls meet,
        the held set is the answer.  Held midpoints lie within 2^-(prec+64)
        of their roots, so two held sets round apart only for a root with a
        coordinate within 2^-(prec+61) of a half-grid point (k + 1/2) 2^-w,
        or a Gaussian-integer root (x^2 + 1's) that one of them holds with
        radius 0 and the other not.
        """
        held, work, balls = self._roots
        if held < prec + 64:
            held = max(prec + 64, 2 * held)
            work, balls = _root_mantissas(self.poly, held,
                                          (work, balls) if balls else None)
            balls = self._canonical_order(balls)
            self._roots = held, work, balls
        w = max(64, prec + 32)
        s = work - w
        out = []
        for a, b, r in balls:
            a2, b2 = round_ratio(a, 1 << s), round_ratio(b, 1 << s)
            out.append((a2, b2, -(-(r + abs(a - (a2 << s))
                                    + abs(b - (b2 << s))) >> s)))
        return (w, out) if _disjoint(out) else (work, balls)

    def _canonical_order(self, balls):
        reals, complexes = [], []
        for a, b, r in balls:
            if abs(b) <= r:
                reals.append((a, 0, r + abs(b)))
            elif b > 0:
                complexes.append((a, b, r))
        if len(reals) != self.n_real or len(complexes) != self.n_cplx:
            raise RuntimeError("signature mismatch in root certification")
        reals.sort(key=lambda z: z[0])
        complexes.sort(key=lambda z: (z[0], z[1]))
        return reals + [z for a, b, r in complexes
                        for z in ((a, b, r), (a, -b, r))]

    def places(self):
        """[(embedding index, n_nu)] — one entry per infinite place."""
        out = [(i, 1) for i in range(self.n_real)]
        for k in range(self.n_cplx):
            out.append((self.n_real + 2 * k, 2))
        return out

    def embed(self, alpha: FieldElement, precision_bits: int) -> EmbeddingPoint:
        """Certified embedding values, each radius <= 2^-precision_bits."""
        if precision_bits < 8:
            raise ValueError("precision_bits must be >= 8")
        pa = self.to_power(alpha)
        height = max((abs(c) for c in pa), default=Q(0))
        extra = max(16, int(height).bit_length() + 8 * self.n)
        (coeffs,), den = qlinalg.integral_cols([pa])
        for work in precision_ladder(precision_bits + extra,
                                     "embedding failed to certify"):
            root_work, roots = self._all_roots(work)
            balls = []
            for z in roots:
                re, im, rad, s = _horner_ball(coeffs, den, z, root_work, work)
                if rad << precision_bits > den << s:   # radius > 2^-precision_bits
                    break
                balls.append((re, im, rad))
            else:
                # s depends on the coefficients and the root exponent only,
                # so every ball has radius denominator den 2^s
                return EmbeddingPoint(balls, work, den << s)

    # -- exact comparisons ---------------------------------------------------
    def sign_at_real_place(self, alpha: FieldElement, place_idx: int) -> int:
        """Exact sign of sigma(alpha) at a real place (0 iff alpha == 0)."""
        if alpha.is_zero():
            return 0
        emb_idx, nnu = self.places()[place_idx]
        if nnu != 1:
            raise ValueError("sign only defined at real places")
        for prec in precision_ladder(32, "sign at a real place failed to "
                                     "certify"):
            pt = self.embed(alpha, prec)
            re, _im, rad = pt.balls[emb_idx]
            re *= pt.rad_den >> pt.work         # over rad_den, as rad
            if re > rad:
                return 1
            if re < -rad:
                return -1

    def abs2_pow_cmp(self, alpha: FieldElement, place_idx: int,
                     k: int, c: Fraction) -> str:
        """Decide (|sigma(alpha)|^2)^k > c exactly; equality resolves LE."""
        c = Q(c)
        if c < 0:
            return GT if not alpha.is_zero() else LE
        if alpha.is_zero():
            return LE
        emb_idx = self.places()[place_idx][0]
        return _abs2_pow_gt(lambda prec: self.embed(alpha, prec), emb_idx,
                            lambda: polyq.primitive_z(alpha.charpoly()), k, c)

    def __repr__(self):
        return f"NumberField({self.poly}, disc={self.disc_field})"


def _horner_ball(coeffs, den: int, z, zw: int, work: int):
    """(re, im, rad, s): the ball (re + i im) 2^-work +- rad/(den 2^s)
    around p(z), for p = sum coeffs[j] x^j / den and the root ball
    z = (a + bi) 2^-zw +- r 2^-zw.

    Each Horner step is the complex ball product with z (radius
    |acc|_1 r + |z|_1 rho + rho r, |.|_1 = |re| + |im|) plus the next
    coefficient, its midpoint rounded half up to 2^-work and the rounding
    error added to the radius; s grows by zw per step.
    """
    a, b, r = z
    zr = abs(a) + abs(b) + r
    dz = den << zw                  # the unrounded midpoint is n / dz 2^-work
    re = im = rad = 0
    s = work
    for c in reversed(coeffs):
        nr = (re * a - im * b) * den + (c << (work + zw))
        ni = (re * b + im * a) * den
        qr = (2 * nr + dz) // (2 * dz)
        qi = (2 * ni + dz) // (2 * dz)
        err = abs(qr * dz - nr) + abs(qi * dz - ni)
        rad = (((abs(re) + abs(im)) * r * den + err) << (s - work)) + zr * rad
        s += zw
        re, im = qr, qi
    return re, im, rad, s


# ---------------------------------------------------------------------------
# Spec-facing operation wrappers


def new_field(poly) -> NumberField:
    return NumberField(poly)


def cmp_element(alpha: FieldElement, sigma: int, scale, g, k: int) -> str:
    """Decide scale*|sigma(alpha)| > g^(1/k).  Equality resolves LE; zero
    vs zero resolves LE."""
    field = alpha.field
    scale = Q(scale)
    g = Q(g)
    if scale <= 0:
        raise ValueError("scale entry must be positive")
    if alpha.is_zero():
        return LE
    # scale*|a| > g^(1/k)  <=>  (|a|^2)^k > g^2 / scale^(2k)
    c = g * g / scale ** (2 * k)
    return field.abs2_pow_cmp(alpha, sigma, k, c)
