"""Reduction of lattices known only approximately: the
Buchmann-Kessler-Pohst passes on an approximate generating matrix, the
dual-exponential reduction of ideal-lattice bases, and the end-to-end
approximate BKZ with closeness guarantees.

Matrix rows are the generating vectors here (matching the underlying LLL
on [I | A-hat]); everything is exact rational, approximation errors enter
only as certified bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import bkz, lattice_core
from .dyadic import Q, RealBall, round_half_up, sqrt_bracket
from .ideal_arith import HnfIdeal
from .nf_core import PRECISION_DOUBLINGS, CapExceeded, NumberField
from .qlinalg import dot, mat_inv, transpose


def rowmax_norm_sq(rows) -> Fraction:
    """max_j ||row_j||^2 exactly."""
    return max(dot([Q(x) for x in r], [Q(x) for x in r]) for r in rows)


def floor_log2(x: Fraction) -> int:
    if x <= 0:
        raise ValueError("floor_log2 of non-positive")
    n, d = x.numerator, x.denominator
    e = n.bit_length() - d.bit_length()
    if (n << max(0, -e)) >> max(0, e) >= d if e >= 0 else False:
        pass
    # adjust: want largest e with 2^e <= n/d
    while Q(2) ** e > x:
        e -= 1
    while Q(2) ** (e + 1) <= x:
        e += 1
    return e


@dataclass
class ApproxGenerators:
    rows: list            # k rows, each length n1 + n2, Fractions (dyadic)
    err: Fraction         # certified bound on ||A~ - A||_{2,inf}
    mu: Fraction          # certified lower bound on lambda_1(Lambda)
    r0: int               # rank upper bound
    n1: int = 0           # leading integer coordinates

    @property
    def k(self):
        return len(self.rows)

    @property
    def width(self):
        return len(self.rows[0])


@dataclass
class BkpResult:
    rank: int
    m_rows: list          # integer matrix M (rank x k): M A is a basis
    basis_rows: list      # B~ = M A~ (rational rows)
    c_constant: Fraction  # the C (or C0) used


def _norm_upper(gens: ApproxGenerators) -> Fraction:
    """Rational upper bound on ||A||_{2,inf} from the approximation."""
    m2 = rowmax_norm_sq(gens.rows)
    _, up = sqrt_bracket(m2, 32)
    return up + gens.err


def bkp_once(gens: ApproxGenerators) -> BkpResult:
    """Single Buchmann-Kessler-Pohst pass: basis + rank from approximate
    generators.  Requires err < mu / (4C)."""
    k = gens.k
    n2 = gens.width - gens.n1
    if n2 < 1 or k < 1:
        raise ValueError("need k >= 1 and n2 >= 1")
    # the analysis needs 2^k >= k sqrt(n2)/2 + sqrt(k); verify with
    # certified upper brackets (k >= n2 implies it, but smaller k can too)
    _, s_n2 = sqrt_bracket(Q(n2), 32)
    _, s_k = sqrt_bracket(Q(k), 32)
    if Q(2) ** k < Q(k) * s_n2 / 2 + s_k:
        raise ValueError("too few generators for the BKP analysis")
    norm_a = _norm_upper(gens)
    c_const = Q(2) ** (4 * k) * (Q(gens.r0) * norm_a / gens.mu) ** (gens.r0 + 1)
    if not gens.err < gens.mu / (4 * c_const):
        raise ValueError("approximation error too large for BKP "
                         f"(need err < {float(gens.mu / (4 * c_const)):.3e})")
    t_const = (Q(2) ** (3 * k) / gens.mu) * (Q(gens.r0) * norm_a / gens.mu) ** gens.r0
    q = floor_log2(t_const)
    lam = Q(2) ** k * (Q(gens.r0) * norm_a / gens.mu) ** gens.r0
    # A-hat: entries (1/2) round(2^{q+1} a)
    scale = Q(2) ** (q + 1)
    ahat = [[Q(round_half_up(scale * Q(x)), 2) for x in row] for row in gens.rows]
    # lattice of rows of [I | A-hat], doubled to be integral
    vecs = []
    for i in range(k):
        ident = [2 * int(i == j) for j in range(k)]
        vecs.append([Q(v) for v in ident] + [2 * x for x in ahat[i]])
    red, _u = lattice_core.lll(vecs, Q(3, 4))
    threshold_sq = 4 * Q(2) ** (k - 1) * lam * lam   # (2 * 2^{(k-1)/2} lam)^2
    m_rows, rel_count = [], 0
    for w in red:
        coef = [Q(x) / 2 for x in w[:k]]
        tail = w[k:]
        tail_sq = dot(tail, tail)
        if tail_sq <= threshold_sq:
            rel_count += 1
        else:
            m_rows.append([int(c) for c in coef])
    r = k - rel_count
    if len(m_rows) != r:
        raise RuntimeError("BKP row classification inconsistent")
    if r > gens.r0:
        raise RuntimeError("BKP rank exceeds the supplied rank bound")
    basis_rows = [[sum(Q(m[i]) * Q(gens.rows[i][j]) for i in range(k))
                   for j in range(gens.width)] for m in m_rows]
    return BkpResult(r, m_rows, basis_rows, c_const)


def bkp_twice(gens: ApproxGenerators) -> BkpResult:
    """Double BKP pass: rank plus a well-conditioned basis with
    ||b_j|| <= (sqrt(r n2) + 2) 2^((r-1)/2) lambda_j."""
    k = gens.k
    norm_a = _norm_upper(gens)
    c0 = Q(2) ** (8 * k) * (Q(gens.r0) * Q(4) ** k * norm_a / gens.mu) ** (2 * (gens.r0 + 1))
    if not gens.err < gens.mu / (4 * c0):
        raise ValueError("approximation error too large for double BKP "
                         f"(need err < {float(gens.mu / (4 * c0)):.3e})")
    first = bkp_once(gens)
    r = first.rank
    gens2 = ApproxGenerators(rows=first.basis_rows,
                             err=first.c_constant * gens.err,
                             mu=gens.mu, r0=r, n1=gens.n1)
    second = bkp_once(gens2)
    if second.rank != r:
        raise RuntimeError("rank changed between BKP passes")
    n_rows = [[sum(second.m_rows[i][t] * first.m_rows[t][j] for t in range(r))
               for j in range(k)] for i in range(r)]
    basis_rows = [[sum(Q(n_rows[i][t]) * Q(gens.rows[t][j]) for t in range(k))
                   for j in range(gens.width)] for i in range(r)]
    return BkpResult(r, n_rows, basis_rows, c0)


# ---------------------------------------------------------------------------
# Ideal-lattice reduction


@dataclass
class DuallyReducedTag:
    T: int


@dataclass
class IdealBasisResult:
    elements: list        # exact algebraic basis (alpha_1..alpha_n) of a
    x: list               # the per-embedding positive rational distortion
    tag: DuallyReducedTag
    precision_bits: int


def minkowski_columns_x(field: NumberField, elements, x, prec: int):
    """Real Minkowski coordinates of x*elements as certified balls.

    x is one positive rational per embedding (conjugate entries equal).
    Coordinates: real embeddings directly; complex pairs as
    (sqrt2*Re, sqrt2*Im), sqrt2 taken as the ball of its dyadic bracket.
    Each entry is the `RealBall` product of the value ball, the factor
    (1 or sqrt2) and x, computed on integers into one `Fraction` for its
    midpoint and one for its radius.
    """
    lo2, hi2 = sqrt_bracket(Q(2), prec + 8)
    d2 = 2 * lcm(lo2.denominator, hi2.denominator)
    # the factor at a place of degree n_nu as a ball (t +- tr) / d
    factor = {1: (1, 0, 1),
              2: (int((lo2 + hi2) / 2 * d2), int((hi2 - lo2) / 2 * d2), d2)}
    x = [Q(v) for v in x]
    cols = []
    for e in elements:
        pt = field.embed(e, prec + 8)
        col = []
        for j, nnu in field.places():
            v, xn, xd = pt.values[j], x[j].numerator, x[j].denominator
            rn, rd = v.rad.numerator, v.rad.denominator
            t, tr, d = factor[nnu]
            for part in (v.re, v.im)[:nnu]:
                # mid: part t x / d; rad: x (|part| tr + (t + tr) rad) / d
                pn, pd = part.numerator, part.denominator
                col.append(RealBall(
                    Q(pn * t * xn, pd * xd * d),
                    Q(xn * (abs(pn) * tr * rd + (t + tr) * rn * pd),
                      pd * rd * xd * d)))
        cols.append(col)
    return cols


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


def dual_exp_reduce(x, a: HnfIdeal) -> IdealBasisResult:
    """Compute an exact Z-basis of the ideal a whose x-distorted Minkowski
    basis is 3-dually exponentially reduced, following the
    dual-then-BKP pipeline.  Self-certifying precision escalation."""
    field = a.field
    x = _check_x(field, x)
    n = field.n
    elements = a.basis_elements()
    mu_sq = _lambda1_lower_sq(field, x, a)
    # mu for the dual: lambda_1(dual) >= 1/lambda_n(primal)
    lam_n_up_sq = _lambda_n_upper_sq(field, x, a)
    mu_dual_sq = Q(1) / lam_n_up_sq
    lo, _ = sqrt_bracket(mu_dual_sq, 64)
    mu_dual = lo if lo > 0 else mu_dual_sq  # rational lower bound
    prec = 128
    for _ in range(PRECISION_DOUBLINGS):
        cols = minkowski_columns_x(field, elements, x, prec)
        mids = [[c.mid for c in col] for col in cols]
        err_entry = max(c.rad for col in cols for c in col)
        err_b = Q(n) * err_entry                       # ||.||_2 <= n * max entry
        try:
            binv = mat_inv(transpose(mids))            # rows of B~^{-1}
        except ZeroDivisionError:
            prec *= 2
            continue
        # certified bound: ||B^{-1}|| <= ||B~^{-1}|| /(1 - ||B~^{-1}|| ||B-B~||)
        binv_fro_sq = sum(v * v for row in binv for v in row)
        _, binv_up = sqrt_bracket(binv_fro_sq, 64)
        if binv_up * err_b >= Q(1, 4):
            prec *= 2
            continue
        binv_true_up = binv_up / (1 - binv_up * err_b)
        err_dual = 2 * binv_true_up ** 2 * err_b
        dual_rows = [list(r) for r in binv]            # rows of B~^{-1} = dual vecs
        gens = ApproxGenerators(rows=dual_rows, err=err_dual,
                                mu=mu_dual, r0=n, n1=0)
        try:
            res = bkp_twice(gens)
        except ValueError:
            prec *= 2
            continue
        if res.rank != n:
            prec *= 2
            continue
        n_mat = res.m_rows                              # D' = N D
        n_inv = mat_inv(n_mat)
        if any(v.denominator != 1 for row in n_inv for v in row):
            raise ValueError("BKP transform is not unimodular")
        # new primal basis: B' = B N^{-1}: columns transform
        new_elements = []
        for j in range(n):
            acc = field.zero()
            for i in range(n):
                if n_inv[i][j]:
                    acc = acc + elements[i] * n_inv[i][j]
            new_elements.append(acc)
        return IdealBasisResult(new_elements, x, DuallyReducedTag(3), prec)
    raise CapExceeded("dual reduction failed to certify its precision")


def approx_bkz_ideal(x, a: HnfIdeal, blocksize: int) -> IdealBasisResult:
    """Z-basis (x alpha_1 .. x alpha_n) of x a with
    ||x alpha_i|| <= 2n b^(2n/b) lambda_n(x a): dual reduction, then BKZ'
    on a rational approximation good enough for the closeness lemma."""
    field = a.field
    x = _check_x(field, x)
    n = field.n
    der = dual_exp_reduce(x, a)
    t_tag = der.tag.T
    mu_sq = _lambda1_lower_sq(field, x, a)
    lo, _ = sqrt_bracket(mu_sq, 64)
    lam1_lo = lo
    # closeness precondition: ||B~ - B|| <= 1/4 2^{-(T+2)n} min lambda1;
    # the re-approximated basis is (T+3)-der, use T = der tag + 3
    t_eff = t_tag + 3
    thresh = Q(1, 4) * lam1_lo / Q(2) ** ((t_eff + 2) * n)
    prec = max(der.precision_bits, 64)
    for _ in range(PRECISION_DOUBLINGS):
        cols = minkowski_columns_x(field, der.elements, x, prec)
        err_b = Q(n) * max(c.rad for col in cols for c in col)
        if err_b <= thresh:
            break
        prec *= 2
    else:
        raise CapExceeded("approximate BKZ failed to certify its precision")
    mids = [[c.mid for c in col] for col in cols]
    den = lcm(*(v.denominator for col in mids for v in col))
    int_cols = [[int(v * den) for v in col] for col in mids]
    _, trace = bkz.bkz_full(int_cols, bkz.BkzConfig(blocksize=blocksize))
    u = trace.transform
    new_elements = []
    for j in range(n):
        acc = field.zero()
        for i in range(n):
            if u[i][j]:
                acc = acc + der.elements[i] * u[i][j]
        new_elements.append(acc)
    return IdealBasisResult(new_elements, x, DuallyReducedTag(t_eff), prec)


def lattice_point_coeff_bound(tag: DuallyReducedTag, n: int,
                              v_norm_sq_upper: Fraction,
                              lambda1_sq_lower: Fraction) -> Fraction:
    """Certified bound on ||u||^2 for v = B u over a T-dually reduced B:
    ||u||^2 <= n^3 2^(nT) ||v||^2 / lambda_1^2."""
    return (Q(n) ** 3 * Q(2) ** (n * tag.T) * Q(v_norm_sq_upper)
            / Q(lambda1_sq_lower))
