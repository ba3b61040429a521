"""Fractional ideals in Hermite Normal Form over the integral basis.

An ideal is (1/d) times the Z-span of the columns of an upper-triangular
integer matrix H; the pair (d, H) with gcd(content H, d) = 1 is unique,
so equality is literal comparison.  Products, principal ideals and
membership work on the integer columns through the field's integer
structure tensor, so no rational arithmetic is involved.

Prime splitting uses Kummer-Dedekind, which requires the rational prime
not to divide the index [O_K : Z[theta]] (a hard error otherwise; a
power basis is checked to be maximal when the field is built, so only a
supplied integral basis can have index primes).  Each prime P above p
carries an anti-uniformizer tau = (f/g)(theta), f/g taken mod p, with g
the factor of f mod p that gives P: tau is not in pO_K and tau P lies in
pO_K, so the valuation of an integral x is the number of steps
x <- tau x / p that stay integral (Cohen Alg. 4.8.17).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from . import intmath, polyq, qlinalg
from .dyadic import Q
from .nf_core import FieldElement, NumberField


class HnfIdeal:
    """Fractional ideal: (1/denom) * column-span of hnf over the basis."""

    __slots__ = ("field", "denom", "hnf", "_norm")

    def __init__(self, field: NumberField, denom: int, hnf_cols):
        self.field = field
        self.denom = int(denom)
        self.hnf = tuple(tuple(int(x) for x in col) for col in hnf_cols)
        self._norm = None
        if self.denom <= 0:
            raise ValueError("denominator must be positive")

    # -- constructors --------------------------------------------------------
    @staticmethod
    def from_generators(field: NumberField, gens: list[FieldElement]) -> "HnfIdeal":
        """Ideal generated (as an O_K-module) by the given elements."""
        den = lcm(*(c.denominator for g in gens for c in g.coords))
        cols = []
        for g in gens:
            cols += _mult_columns(field, [int(c * den) for c in g.coords])
        return HnfIdeal._from_int_columns(field, den, cols)


    @staticmethod
    def _from_int_columns(field, den, cols) -> "HnfIdeal":
        """(1/den) times the Z-span of integer columns, normalized."""
        cols = [c for c in cols if any(c)]
        if not cols:
            raise ValueError("zero module is not an ideal here")
        return HnfIdeal._normalized(field, den, qlinalg.hnf_upper(cols))

    @staticmethod
    def _normalized(field, den, hcols) -> "HnfIdeal":
        """The unique pair (d, H) with gcd(content H, d) = 1."""
        cont = 0
        for c in hcols:
            for x in c:
                cont = gcd(cont, x)
        g = gcd(cont, den)
        if g > 1:
            den //= g
            hcols = [[x // g for x in c] for c in hcols]
        return HnfIdeal(field, den, hcols)

    @staticmethod
    def ring_of_integers(field: NumberField) -> "HnfIdeal":
        return HnfIdeal(field, 1, qlinalg.int_identity(field.n))

    @staticmethod
    def principal(field: NumberField, alpha: FieldElement) -> "HnfIdeal":
        if alpha.is_zero():
            raise ValueError("zero element generates the zero ideal")
        return HnfIdeal.from_generators(field, [alpha])


    # -- basic data ------------------------------------------------------------
    def norm(self) -> Fraction:
        if self._norm is None:
            det = 1
            for j in range(len(self.hnf)):
                det *= self.hnf[j][j]
            self._norm = Q(det, self.denom ** len(self.hnf))
        return self._norm

    def is_integral(self) -> bool:
        return self.denom == 1

    def basis_elements(self) -> list[FieldElement]:
        out = []
        for col in self.hnf:
            out.append(self.field.element([Q(x, self.denom) for x in col]))
        return out

    def contains(self, alpha: FieldElement) -> bool:
        residual = []
        for c in alpha.coords:
            c *= self.denom
            if c.denominator != 1:      # the HNF columns span a sublattice of Z^n
                return False
            residual.append(int(c))
        # back-substitute against upper-triangular hnf columns
        for j in range(len(self.hnf) - 1, -1, -1):
            col = self.hnf[j]
            q, r = divmod(residual[j], col[j])
            if r:
                return False
            if q:
                for i in range(j):
                    residual[i] -= q * col[i]
        return True

    def __eq__(self, other):
        return (isinstance(other, HnfIdeal) and self.field is other.field
                and self.denom == other.denom and self.hnf == other.hnf)

    def __hash__(self):
        return hash((id(self.field), self.denom, self.hnf))

    def __repr__(self):
        return f"HnfIdeal(denom={self.denom}, N={self.norm()})"


class PrimeIdeal:
    """Prime ideal above a rational prime, with residue data and the
    integer matrix of multiplication by an anti-uniformizer tau: tau is in
    O_K but not in pO_K, and tau P lies in pO_K (Cohen Alg. 4.8.17), so an
    integral x lies in P exactly when tau x / p is integral."""

    __slots__ = ("p", "hnf", "f", "e", "tau_matrix")

    def __init__(self, p: int, hnf: HnfIdeal, f: int, e: int,
                 tau: FieldElement):
        self.p = int(p)
        self.hnf = hnf
        self.f = int(f)
        self.e = int(e)
        self.tau_matrix = tuple(tuple(int(x) for x in row)
                                for row in hnf.field.mult_matrix(tau))
        if all(int(c) % self.p == 0 for c in tau.coords):
            raise RuntimeError("anti-uniformizer lies in pO_K")
        if _tau_step(self.tau_matrix, hnf.hnf, self.p) is None:
            raise RuntimeError("anti-uniformizer does not map P into pO_K")

    @property
    def field(self):
        return self.hnf.field

    def norm(self) -> int:
        return self.p ** self.f

    def sort_key(self):
        return (self.norm(), self.p, self.hnf.hnf)

    def power(self, k: int) -> HnfIdeal:
        """p^k (k >= 0) by binary powering, cached on the field."""
        if k == 0:
            return HnfIdeal.ring_of_integers(self.field)
        if k == 1:
            return self.hnf
        cache = self.field._prime_pow_cache
        key = (self.hnf, k)
        hit = cache.get(key)
        if hit is not None:
            return hit
        half = self.power(k // 2)
        out = hnf_mul(half, half)
        if k % 2:
            out = hnf_mul(out, self.hnf)
        cache[key] = out
        return out

    def __eq__(self, other):
        return isinstance(other, PrimeIdeal) and self.hnf == other.hnf

    def __hash__(self):
        return hash(self.hnf)

    def __repr__(self):
        return f"PrimeIdeal(p={self.p}, f={self.f}, e={self.e})"


# ---------------------------------------------------------------------------
# Arithmetic


def _mult_columns(field: NumberField, x) -> list[list[int]]:
    """Columns x b_1, ..., x b_n for integer coordinates x, through the
    field's integer structure tensor."""
    n = field.n
    tensor = field.mul_tensor
    cols = []
    for j in range(n):
        col = [0] * n
        for i, xi in enumerate(x):
            if xi:
                row = tensor[i][j]
                for t in range(n):
                    col[t] += xi * row[t]
        cols.append(col)
    return cols


def hnf_mul(a: HnfIdeal, b: HnfIdeal) -> HnfIdeal:
    """(1/(d_a d_b)) times the span of the products of the integer HNF
    columns of a and b."""
    if a.field is not b.field:
        raise ValueError("ideals from different fields")
    n = a.field.n
    cols = []
    for x in a.hnf:
        mx = _mult_columns(a.field, x)
        for y in b.hnf:
            col = [0] * n
            for j, yj in enumerate(y):
                if yj:
                    for t, m in enumerate(mx[j]):
                        col[t] += yj * m
            cols.append(col)
    return HnfIdeal._from_int_columns(a.field, a.denom * b.denom, cols)


def hnf_inv(a: HnfIdeal) -> HnfIdeal:
    """Exact inverse: a * hnf_inv(a) == O_K."""
    field = a.field
    n = field.n
    nrm = 1                                 # N(b) for the numerator b = d a
    for j, col in enumerate(a.hnf):
        nrm *= col[j]
    # b^{-1} = (1/nrm) * {z in Z^n : z g / nrm integral for every HNF
    # column g of b}: the kernel of [M | nrm*I], with row j of M the
    # products g b_j for all g stacked
    prods = [_mult_columns(field, g) for g in a.hnf]
    rows = [[x for cols in prods for x in cols[j]] for j in range(n)]
    rows += [[nrm * (i == k) for k in range(n * n)] for i in range(n * n)]
    zs = [z[:n] for z in qlinalg.int_kernel(rows)]
    inv = qlinalg.hnf_upper([z for z in zs if any(z)])
    # a^{-1} = d b^{-1}, and d times an HNF is an HNF
    return HnfIdeal._normalized(field, nrm,
                                [[x * a.denom for x in col] for col in inv])


def prime_product(field: NumberField, factors) -> HnfIdeal:
    """The ideal prod P^e over (prime, exponent) pairs: the primes with
    e > 0 through their cached powers `PrimeIdeal.power`, times one
    inverse of the product of those with e < 0.  The HNF of an ideal is
    unique, so the order of the products does not show in the result."""
    factors = list(factors)
    parts = [p.power(e) for p, e in factors if e > 0]
    neg = [p.power(-e) for p, e in factors if e < 0]
    if neg:
        parts.append(hnf_inv(reduce(hnf_mul, neg)))
    return reduce(hnf_mul, parts) if parts else HnfIdeal.ring_of_integers(field)


def ord_at(a: HnfIdeal, p: PrimeIdeal) -> int:
    """Exact valuation of a at p (works for fractional a): the valuation
    of the integral numerator, the least over its HNF columns, minus e
    times the p-adic order of the denominator."""
    v = _ord_integral(a.hnf, p)
    d = a.denom
    while d % p.p == 0:
        d //= p.p
        v -= p.e
    return v


def factor_over(a: HnfIdeal, primes) -> list[int] | None:
    """The valuations of a at the primes, or None unless prod P^v
    rebuilds a (Cohen, GTM 138, §4.8).  An integral a has valuation 0
    at every P whose p does not divide N(a), so those are skipped."""
    primes = list(primes)
    # 0 for a fractional a, so that every prime is tried
    nrm = int(a.norm()) if a.is_integral() else 0
    vals = [0 if nrm % p.p else ord_at(a, p) for p in primes]
    if prime_product(a.field, zip(primes, vals)) != a:
        return None
    return vals


def _ord_integral(cols, p: PrimeIdeal) -> int:
    # v > 0 requires N(p) | N(a); and N(p)^v | N(a) caps v
    nrm = 1
    for j, col in enumerate(cols):
        nrm *= col[j]
    vmax = 0
    while nrm % p.p == 0:
        nrm //= p.p
        vmax += 1
    vmax //= p.f
    # each step tau x / p lowers v_p of every column by one
    v = 0
    while v < vmax:
        cols = _tau_step(p.tau_matrix, cols, p.p)
        if cols is None:
            break
        v += 1
    return v


def _tau_step(tau_matrix, cols, p: int):
    """tau x / p for every integer column x, or None when one of them is
    not integral."""
    out = []
    for x in cols:
        y = []
        for row in tau_matrix:
            q, r = divmod(sum(m * xi for m, xi in zip(row, x)), p)
            if r:
                return None
            y.append(q)
        out.append(y)
    return out


def kummer_dedekind(field: NumberField, p: int) -> list[tuple[PrimeIdeal, int]]:
    """Splitting of (p): [(prime, exponent)], requires p coprime to the
    index [O_K : Z[theta]].  Cached on the field."""
    cache = field._kd_cache
    if p in cache:
        return cache[p]
    out = _kummer_dedekind_uncached(field, p)
    cache[p] = out
    return out


def _kummer_dedekind_uncached(field: NumberField, p: int):
    if not intmath.is_prime(p):
        raise ValueError(f"{p} is not prime")
    if field.index_sq % p == 0:
        raise ValueError(
            f"prime {p} divides the index [O_K:Z[theta]]; supply splitting "
            "data externally (corpus fields are index-free)")
    factors = polyq.factor_mod_p(field.poly, p)
    out = []
    for g, e in factors:
        # p_i = (p, g_i(theta)); tau = (f / g_i)(theta) with f / g_i taken
        # mod p: g_i(theta) tau = f(theta) = 0 mod p
        ideal = HnfIdeal.from_generators(
            field, [field.one() * p, field.from_power(g)])
        tau = field.from_power(polyq.poly_divmod_p(field.poly, g, p)[0])
        prime = PrimeIdeal(p, ideal, f=polyq.degree(g), e=e, tau=tau)
        out.append((prime, e))
    out.sort(key=lambda t: t[0].sort_key())
    total = sum(pr.e * pr.f for pr, _ in out)
    if total != field.n:
        raise RuntimeError("Kummer-Dedekind bookkeeping failed")
    return out


def splitting_degrees(field: NumberField, p: int) -> list[tuple[int, int]]:
    """[(f_i, e_i)] for the primes above p, without building ideals.

    Quadratic fields use the Kronecker-symbol fast path; everything else
    factors the defining polynomial mod p.
    """
    if field.n == 2 and p > 2:
        b, c = field.poly[1], field.poly[0]
        disc = b * b - 4 * c
        if disc % p == 0:
            return [(1, 2)]
        return [(1, 1), (1, 1)] if intmath.jacobi(disc % p, p) == 1 else [(2, 1)]
    return [(polyq.degree(g), e) for g, e in polyq.factor_mod_p(field.poly, p)]


def primes_up_to(field: NumberField, bound: int) -> list[PrimeIdeal]:
    """All prime ideals with norm <= bound, sorted by (norm, canonical
    HNF)."""
    out = []
    for p in intmath.primes_below(bound + 1):
        for prime, _e in kummer_dedekind(field, p):
            if prime.norm() > bound:
                continue
            out.append(prime)
    out.sort(key=lambda pr: pr.sort_key())
    return out


def walk_primes(field: NumberField, bound: int,
                m0: HnfIdeal | None) -> list[PrimeIdeal]:
    """Every prime that `sample_prime_uniform(field, bound, m0, rng)` can
    draw."""
    return [prime for p in intmath.primes_below(bound + 1)
            for prime in _drawable_above(field, p, bound, m0)]


def _drawable_above(field: NumberField, p: int, bound: int,
                    m0: HnfIdeal | None) -> list[PrimeIdeal]:
    """The primes above the rational prime p of norm <= bound coprime to
    m0; none when p divides the index [O_K:Z[theta]]."""
    if field.index_sq % p == 0:
        return []
    return [prime for prime, _e in kummer_dedekind(field, p)
            if prime.norm() <= bound
            and (m0 is None or ord_at(m0, prime) == 0)]


class SampleFailure(Exception):
    """Uniform prime sampling exhausted its retry budget."""


# Draws of p in [0, B] before `sample_prime_uniform` gives up.
SAMPLE_ATTEMPTS = 200000


def sample_prime_uniform(field: NumberField, bound: int, m0: HnfIdeal | None,
                         rng) -> PrimeIdeal:
    """Uniform sample from {p prime : N(p) <= B, p coprime to m0}: draw p
    uniform in [0, B], primality-test, split, filter, accept a uniform
    candidate with probability k/n."""
    n = field.n
    for _ in range(SAMPLE_ATTEMPTS):
        p = rng.randint(0, bound)
        if p < 2 or not intmath.is_prime(p):
            continue
        cands = _drawable_above(field, p, bound, m0)
        if not cands:
            continue
        k = len(cands)
        choice = cands[rng.randrange(k)]
        if rng.random() < k / n:
            return choice
    raise SampleFailure(f"no prime accepted after {SAMPLE_ATTEMPTS} attempts")
