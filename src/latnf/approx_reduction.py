"""Reduction of lattices known only approximately: the
Buchmann-Kessler-Pohst passes on an approximate generating matrix, the
dual-exponential reduction of ideal-lattice bases, and the end-to-end
approximate BKZ with closeness guarantees.

Matrix rows are the generating vectors here (matching the underlying LLL
on [I | A-hat]).  The BKP passes run on one integer matrix over a positive
common denominator.  Their constants C, T and lambda are powers of
unreduced integer pairs and are never formed as rationals: each decision
that reads them is taken on the top 64 bits of every factor and, only
when that bracket cannot decide, on the exact products, so every
decision is the exact rational one.  Approximation errors enter only as
certified bounds.  The Minkowski columns of ideal bases
(`minkowski_columns_x`) are integer mantissas computed from `embed`'s
integer balls; no ball object is built on this path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm, prod

from . import bkz, lattice_core
from .dyadic import Q, sqrt_bracket
from .ideal_arith import HnfIdeal
from .nf_core import NumberField, precision_ladder
from .qlinalg import (combine_cols, dot, integral_cols, inverse_scaled, mat_inv,
                      mat_mul, transpose)


def rowmax_norm_sq(rows):
    """max_j ||row_j||^2 exactly."""
    return max(dot(r, r) for r in rows)


# A side (shift, [(base, exp), ...]) stands for 2^shift prod base^exp,
# with integer bases >= 0 and some exp >= 1.  BKP compares such products
# of big unreduced integers without forming the powers unless the top
# bits of the bases cannot decide.


def _bracket(side):
    """(lo, hi, s) with lo 2^s <= the value of side < hi 2^s, from the top
    64 bits t of every base: t 2^s <= base < (t + 1) 2^s."""
    shift, factors = side
    lo = hi = 1
    for base, e in factors:
        s = max(0, base.bit_length() - 64)
        t = base >> s
        lo *= t ** e
        hi *= (t + 1) ** e
        shift += s * e
    return lo, hi, shift


def _exact(side):
    shift, factors = side
    return prod(base ** e for base, e in factors), shift


def _cmp_scaled(a: int, s: int, b: int, u: int) -> int:
    """Sign of a 2^s - b 2^u, for a, b >= 0."""
    if not a or not b:
        return (a > 0) - (b > 0)
    la, lb = a.bit_length() + s, b.bit_length() + u
    if la != lb:
        return 1 if la > lb else -1
    if s >= u:
        a <<= s - u
    else:
        b <<= u - s
    return (a > b) - (a < b)


def _compare(lhs, rhs) -> int:
    """Sign of lhs - rhs for two sides: from their brackets when those do
    not overlap, else from the exact products."""
    llo, lhi, ls = _bracket(lhs)
    rlo, rhi, rs = _bracket(rhs)
    if _cmp_scaled(lhi, ls, rlo, rs) <= 0:
        return -1
    if _cmp_scaled(rhi, rs, llo, ls) <= 0:
        return 1
    return _cmp_scaled(*_exact(lhs), *_exact(rhs))


def _ilog2(n: int, d: int) -> int:
    """floor(log2(n / d)) for integers n, d > 0."""
    e = n.bit_length() - d.bit_length()
    return e if _cmp_scaled(n, 0, d, e) >= 0 else e - 1


def _floor_log2(num, den) -> int:
    """floor(log2(num / den)) for two sides of positive value: from their
    brackets when those fix it, else exactly."""
    nlo, nhi, ns = _bracket(num)
    dlo, dhi, ds = _bracket(den)
    # nlo/dhi 2^(ns-ds) < num/den < nhi/dlo 2^(ns-ds)
    q = _ilog2(nlo, dhi)
    if _cmp_scaled(nhi, 0, dlo, q + 1) <= 0:
        return q + ns - ds
    (n, s), (d, u) = _exact(num), _exact(den)
    return _ilog2(n, d) + s - u


def _below(err, bound) -> bool:
    """Whether err < bound, for err = (en, ed) an integer pair and
    bound = (num, den) a pair of sides."""
    (en, ed), ((sn, fn), (sd, fd)) = err, bound
    return _compare((sd, [(en, 1)] + fd), (sn, [(ed, 1)] + fn)) < 0


def _require_below(err, bound, what: str):
    """ValueError unless err < bound (`_below`).  The message gives the
    bound's binade, not its value."""
    if _below(err, bound):
        return
    e = _floor_log2(*bound)
    raise ValueError(f"approximation error too large for {what} (need err "
                     f"< a bound in [2^{e}, 2^{e + 1}))")


@dataclass
class ApproxGenerators:
    rows: list            # k rows, each length n2, rationals times den
    err: Fraction         # certified bound on ||A~ - A||_{2,inf}
    mu: Fraction          # certified lower bound on lambda_1(Lambda)
    r0: int               # rank upper bound
    den: int = 1          # A~ = rows / den, den > 0


@dataclass
class BkpResult:
    rank: int
    m_rows: list          # integer matrix M (rank x k): M A is a basis
    int_rows: list        # R, the generators: A~ = R / den
    den: int

    @cached_property
    def basis_rows(self):
        """B~ = M A~ (rational rows), built on first read."""
        return [[Q(x, self.den) for x in row]
                for row in mat_mul(self.m_rows, self.int_rows)]


def _int_gens(gens: ApproxGenerators):
    """(R, D, err, mu): A~ = R / D with R an integer matrix and D > 0,
    err and mu as (numerator, denominator) pairs."""
    err, mu = Q(gens.err), Q(gens.mu)
    if not gens.rows:
        raise ValueError("need k >= 1 and n2 >= 1")
    if gens.r0 < 1 or mu <= 0 or err < 0:
        raise ValueError("BKP needs r0 >= 1, mu > 0 and err >= 0")
    rows, den = integral_cols(gens.rows)
    return (rows, den * gens.den, (err.numerator, err.denominator),
            (mu.numerator, mu.denominator))


def _norm_ratio(rows, den: int, err, mu, r0: int):
    """(a, b) with a / b = r0 ||A||^ / mu, where ||A||^ = sqrt_bracket's
    upper end at 32 bits of max ||R_j||^2 / D^2, plus err: the rational
    upper bound on ||A||_{2,inf} that the BKP constants are powers of."""
    m2 = rowmax_norm_sq(rows)
    hi = isqrt((m2 << 64) // (den * den)) + 1 if m2 else 0   # 2^32 bracket
    (en, ed), (mn, md) = err, mu
    if not hi and not en:
        raise ValueError("BKP needs a nonzero generator or error bound")
    return r0 * (hi * ed + (en << 32)) * md, (ed << 32) * mn


def _bkp_pass(rows, den: int, err, mu, r0: int):
    """Single Buchmann-Kessler-Pohst pass on A~ = rows / den: the integer
    rows M with M A a basis.  Requires err < mu / (4C)."""
    k = len(rows)
    n2 = len(rows[0]) if k else 0
    if n2 < 1 or k < 1:
        raise ValueError("need k >= 1 and n2 >= 1")
    # the analysis needs 2^k >= k sqrt(n2)/2 + sqrt(k); verify with
    # certified upper brackets (k >= n2 implies it, but smaller k can too)
    _, s_n2 = sqrt_bracket(Q(n2), 32)
    _, s_k = sqrt_bracket(Q(k), 32)
    if Q(2) ** k < Q(k) * s_n2 / 2 + s_k:
        raise ValueError("too few generators for the BKP analysis")
    xa, xb = _norm_ratio(rows, den, err, mu, r0)      # x = r0 ||A||^ / mu
    mn, md = mu
    # C = 2^(4k) x^(r0+1);  need err < mu / (4C)
    _require_below(err, ((0, [(mn, 1), (xb, r0 + 1)]),
                         (4 * k + 2, [(md, 1), (xa, r0 + 1)])), "BKP")
    # q = floor(log2 T),  T = 2^(3k) x^r0 / mu
    e = _floor_log2((3 * k, [(md, 1), (xa, r0)]),
                    (0, [(mn, 1), (xb, r0)])) + 1
    # the lattice of rows [2I | 2 A-hat], 2 A-hat = round(2^(q+1) A~)
    if e >= 0:
        ahat = [[((x << (e + 1)) + den) // (2 * den) for x in row]
                for row in rows]
    else:
        d2 = den << -e
        ahat = [[(2 * x + d2) // (2 * d2) for x in row] for row in rows]
    vecs = [[2 * int(i == j) for j in range(k)] + ahat[i] for i in range(k)]
    red, _u = lattice_core.lll(vecs, Q(3, 4))
    # lambda = 2^k x^r0;  a relation has tail^2 <= 4 2^(k-1) lambda^2
    threshold = (3 * k + 1, [(xa, 2 * r0)])
    m_rows, rel_count = [], 0
    for w in red:
        tail_sq = sum(v.numerator ** 2 for v in w[k:])
        if _compare((0, [(tail_sq, 1), (xb, 2 * r0)]), threshold) <= 0:
            rel_count += 1
        else:
            m_rows.append([v.numerator // 2 for v in w[:k]])
    r = k - rel_count
    if len(m_rows) != r:
        raise RuntimeError("BKP row classification inconsistent")
    if r > r0:
        raise RuntimeError("BKP rank exceeds the supplied rank bound")
    return m_rows


def _double_budget(k: int, mu, r0: int, xa: int, xb: int):
    """mu / (4 C0) as a pair of sides, C0 = 2^(8k) (4^k x)^(2(r0+1)) the
    double pass's constant for k rows and x = xa / xb (`_norm_ratio`):
    the bound on err that `bkp_twice` needs."""
    (mn, md), e0 = mu, 2 * (r0 + 1)
    return ((0, [(mn, 1), (xb, e0)]),
            (8 * k + 2 * k * e0 + 2, [(md, 1), (xa, e0)]))


def double_bkp_budget_met(gens: ApproxGenerators) -> bool:
    """Whether gens.err < mu / (4 C0), the hypothesis `bkp_twice` checks
    before its passes (it raises ValueError exactly when this is false
    and gens is well formed).  Malformed gens raise `_int_gens`'s
    ValueError, as in `bkp_twice`."""
    rows, den, err, mu = _int_gens(gens)
    xa, xb = _norm_ratio(rows, den, err, mu, gens.r0)
    return _below(err, _double_budget(len(rows), mu, gens.r0, xa, xb))


def bkp_twice(gens: ApproxGenerators) -> BkpResult:
    """Double BKP pass: rank plus a well-conditioned basis with
    ||b_j|| <= (sqrt(r n2) + 2) 2^((r-1)/2) lambda_j.

    The second pass runs on M_1 R over the same denominator, with the
    error bound C err of the first pass's constant C."""
    rows, den, err, mu = _int_gens(gens)
    k, r0 = len(rows), gens.r0
    xa, xb = _norm_ratio(rows, den, err, mu, r0)
    _require_below(err, _double_budget(k, mu, r0, xa, xb), "double BKP")
    first = _bkp_pass(rows, den, err, mu, r0)
    r = len(first)
    err2 = ((err[0] * xa ** (r0 + 1)) << (4 * k), err[1] * xb ** (r0 + 1))
    second = _bkp_pass(mat_mul(first, rows), den, err2, mu, r)
    if len(second) != r:
        raise RuntimeError("rank changed between BKP passes")
    return BkpResult(r, mat_mul(second, first), rows, den)


# ---------------------------------------------------------------------------
# Ideal-lattice reduction


# T of the T-dually exponentially reduced bases `dual_exp_reduce` returns
DUAL_TAG = 3


@dataclass
class IdealBasisResult:
    elements: list        # exact algebraic basis (alpha_1..alpha_n) of a
    precision_bits: int


@dataclass
class MinkowskiColumns:
    """Certified balls on integers, one column per element: entry i of
    column j has midpoint mids[j][i] / mid_dens[j] and radius
    rads[j][i] / rad_dens[j], both denominators positive and mid_dens[j]
    dividing rad_dens[j]."""
    mids: list
    mid_dens: list
    rads: list
    rad_dens: list

    def max_rad(self) -> Fraction:
        """The largest radius, one `Fraction` per column."""
        return max(Q(max(r), d) for r, d in zip(self.rads, self.rad_dens))

    def abs_upper(self):
        """Per column, (|mid| + rad of every entry as integers, their
        denominator rad_dens[j])."""
        return [([abs(m) * (dr // dm) + r for m, r in zip(mids, rads)], dr)
                for mids, dm, rads, dr in zip(self.mids, self.mid_dens,
                                              self.rads, self.rad_dens)]

    def rad_exceeds(self, dens) -> bool:
        """Whether some radius of column j exceeds 1 / dens[j]."""
        return any(max(r) * den > d
                   for r, d, den in zip(self.rads, self.rad_dens, dens))


def minkowski_columns_x(field: NumberField, elements, x, prec: int):
    """Real Minkowski coordinates of x*elements as certified balls, a
    `MinkowskiColumns`.

    x is one positive rational per embedding (conjugate entries equal).
    Coordinates: real embeddings directly; complex pairs as
    (sqrt2*Re, sqrt2*Im), sqrt2 taken as the ball (t +- tr) / d of its
    dyadic bracket.  Each entry is the midpoint-radius product of the
    value ball, the factor (1 or sqrt2) and x (a +- ra times b +- rb has
    radius |a| rb + |b| ra + ra rb), read off `embed`'s integer balls:
    with the value part p 2^-W +- r / R, the midpoint is
    p t x / (2^W d) and the radius x (|p| tr (R / 2^W) + (t + tr) r) /
    (R d), put over d lcm(den x) times 2^W and R per column (2^W divides
    R).
    """
    x = [Q(v) for v in x]
    den_x = lcm(*(v.denominator for v in x))
    d = 1
    if field.n_cplx:
        lo2, hi2 = sqrt_bracket(Q(2), prec + 8)
        d = 2 * lcm(lo2.denominator, hi2.denominator)
        t, tr = int((lo2 + hi2) / 2 * d), int((hi2 - lo2) / 2 * d)
    # per coordinate: (embedding, 0 for Re or 1 for Im, then the factors
    # of the midpoint, of |p| and of r, all times d den_x)
    coords = []
    for j, nnu in field.places():
        g = x[j].numerator * (den_x // x[j].denominator)
        if nnu == 1:
            coords.append((j, 0, g * d, 0, g * d))
        else:
            coords += [(j, part, g * t, g * tr, g * (t + tr))
                       for part in (0, 1)]
    out = MinkowskiColumns([], [], [], [])
    for e in elements:
        pt = field.embed(e, prec + 8)
        q = pt.rad_den >> pt.work
        mids, rads = [], []
        for j, part, fm, fp, fr in coords:
            ball = pt.balls[j]
            p = ball[part]
            mids.append(p * fm)
            rads.append(abs(p) * fp * q + fr * ball[2])
        out.mids.append(mids)
        out.rads.append(rads)
        out.mid_dens.append((d * den_x) << pt.work)
        out.rad_dens.append(d * den_x * pt.rad_den)
    return out


def _check_x(field: NumberField, x):
    x = [Q(v) for v in x]
    if len(x) != field.n:
        raise ValueError("x needs one entry per embedding")
    if any(v <= 0 for v in x):
        raise ValueError("x entries must be positive rationals")
    for kidx in range(field.n_cplx):
        j = field.n_real + 2 * kidx
        if x[j] != x[j + 1]:
            raise ValueError("x must be equal on conjugate embeddings")
    return x


def norm_of_x(field: NumberField, x) -> Fraction:
    out = Q(1)
    for v in x:
        out *= Q(v)
    return out


def _root_prec_for(val: Fraction, n: int) -> int:
    """Precision making the n-th-root bracket of val strictly positive."""
    extra = max(0, val.denominator.bit_length() - val.numerator.bit_length())
    return 64 + extra // n + 8


def _lambda1_lower_sq(field: NumberField, x, a: HnfIdeal) -> Fraction:
    """Rational lower bound on lambda_1(x a)^2 = n N(x a)^{2/n}."""
    from .intmath import rational_root_bracket
    nx = norm_of_x(field, x) * a.norm()
    n = field.n
    val = nx * nx
    lo, _hi = rational_root_bracket(val, n, _root_prec_for(val, n))
    if lo <= 0:
        raise RuntimeError("lambda_1 lower bound underflow")
    return Q(n) * lo


def _lambda_n_upper_sq(field: NumberField, x, a: HnfIdeal) -> Fraction:
    """Rational upper bound on lambda_n(x a)^2 <= n |D|^{3/n} N(xa)^{2/n}."""
    from .intmath import rational_root_bracket
    n = field.n
    nx = norm_of_x(field, x) * a.norm()
    val = Q(abs(field.disc_field)) ** 3 * nx * nx
    _lo, hi = rational_root_bracket(val, n, _root_prec_for(val, n))
    return Q(n) * hi


def _transform_elements(elements, m):
    """The field elements sum_i elements[i] m[i][j], one per column j of
    the square matrix m."""
    field = elements[0].field
    return [field.element(c)
            for c in combine_cols([e.coords for e in elements], m)]


def dual_exp_reduce(x, a: HnfIdeal) -> IdealBasisResult:
    """Compute an exact Z-basis of the ideal a whose x-distorted Minkowski
    basis is 3-dually exponentially reduced, following the
    dual-then-BKP pipeline.  Self-certifying precision escalation."""
    field = a.field
    x = _check_x(field, x)
    n = field.n
    elements = a.basis_elements()
    # mu for the dual: lambda_1(dual) >= 1/lambda_n(primal)
    lam_n_up_sq = _lambda_n_upper_sq(field, x, a)
    mu_dual_sq = Q(1) / lam_n_up_sq
    lo, _ = sqrt_bracket(mu_dual_sq, 64)
    mu_dual = lo if lo > 0 else mu_dual_sq  # rational lower bound
    for prec in precision_ladder(128, "dual reduction failed to certify its "
                                 "precision"):
        cols = minkowski_columns_x(field, elements, x, prec)
        err_b = Q(n) * cols.max_rad()                  # ||.||_2 <= n * max entry
        try:
            # B~ = M^T diag(1 / mid_dens): rows of B~^{-1} = dual vecs,
            # times binv_den
            y, binv_den = inverse_scaled(transpose(cols.mids))
        except ZeroDivisionError:
            continue
        binv = [[dm * v for v in row] for dm, row in zip(cols.mid_dens, y)]
        # certified bound: ||B^{-1}|| <= ||B~^{-1}|| /(1 - ||B~^{-1}|| ||B-B~||)
        binv_fro_sq = Q(sum(v * v for row in binv for v in row),
                        binv_den * binv_den)
        _, binv_up = sqrt_bracket(binv_fro_sq, 64)
        if binv_up * err_b >= Q(1, 4):
            continue
        binv_true_up = binv_up / (1 - binv_up * err_b)
        err_dual = 2 * binv_true_up ** 2 * err_b
        gens = ApproxGenerators(rows=binv, err=err_dual, mu=mu_dual, r0=n,
                                den=binv_den)
        if not double_bkp_budget_met(gens):
            continue
        res = bkp_twice(gens)
        if res.rank != n:
            continue
        n_mat = res.m_rows                              # D' = N D
        n_inv = mat_inv(n_mat)
        if any(v.denominator != 1 for row in n_inv for v in row):
            raise ValueError("BKP transform is not unimodular")
        # new primal basis: B' = B N^{-1}: columns transform
        return IdealBasisResult(_transform_elements(elements, n_inv), prec)


def approx_bkz_ideal(x, a: HnfIdeal, blocksize: int) -> IdealBasisResult:
    """Z-basis (x alpha_1 .. x alpha_n) of x a with
    ||x alpha_i|| <= 2n b^(2n/b) lambda_n(x a): dual reduction, then BKZ'
    on a rational approximation good enough for the closeness lemma."""
    field = a.field
    x = _check_x(field, x)
    n = field.n
    der = dual_exp_reduce(x, a)
    mu_sq = _lambda1_lower_sq(field, x, a)
    lo, _ = sqrt_bracket(mu_sq, 64)
    lam1_lo = lo
    # closeness precondition: ||B~ - B|| <= 1/4 2^{-(T+2)n} min lambda1;
    # the re-approximated basis is (T+3)-der, use T = DUAL_TAG + 3
    t_eff = DUAL_TAG + 3
    thresh = Q(1, 4) * lam1_lo / Q(2) ** ((t_eff + 2) * n)
    for prec in precision_ladder(max(der.precision_bits, 64), "approximate "
                                 "BKZ failed to certify its precision"):
        cols = minkowski_columns_x(field, der.elements, x, prec)
        if Q(n) * cols.max_rad() <= thresh:
            break
    # the midpoints times the lcm of their reduced denominators
    reduced = []
    for col, dm in zip(cols.mids, cols.mid_dens):
        g = gcd(dm, *col)
        reduced.append(([v // g for v in col], dm // g))
    den = lcm(*(dm for _, dm in reduced))
    int_cols = [[v * (den // dm) for v in col] for col, dm in reduced]
    _, trace = bkz.bkz_full(int_cols, bkz.BkzConfig(blocksize=blocksize))
    return IdealBasisResult(_transform_elements(der.elements, trace.transform),
                            prec)
