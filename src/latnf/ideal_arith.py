"""Fractional ideals in Hermite Normal Form over the integral basis.

An ideal is (1/d) times the Z-span of the columns of an upper-triangular
integer matrix H; the pair (d, H) is canonical, so equality is literal
comparison.  Prime splitting uses Kummer-Dedekind, which requires the
rational prime not to divide the index [O_K : Z[theta]] (a hard error
otherwise; the corpus fields are index-free).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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
        module_gens = []
        for g in gens:
            for j in range(field.n):
                bj = field.element([Q(int(k == j)) for k in range(field.n)])
                module_gens.append(list((g * bj).coords))
        return HnfIdeal.from_module_columns(field, module_gens)

    @staticmethod
    def from_module_columns(field: NumberField, cols) -> "HnfIdeal":
        """Z-module spanned by rational coordinate columns, normalized."""
        den = 1
        for c in cols:
            for x in c:
                x = Q(x)
                den = den * x.denominator // gcd(den, x.denominator)
        int_cols = [[int(Q(x) * den) for x in c] for c in cols]
        int_cols = [c for c in int_cols if any(c)]
        if not int_cols:
            raise ValueError("zero module is not an ideal here")
        h = qlinalg.hnf_upper(int_cols)
        return HnfIdeal._normalized(field, den, h)

    @staticmethod
    def _normalized(field, den, hcols) -> "HnfIdeal":
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

    @staticmethod
    def from_integer(field: NumberField, m) -> "HnfIdeal":
        m = Q(m)
        if m == 0:
            raise ValueError("zero ideal")
        return HnfIdeal.principal(field, field.one() * m)

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
        coords = [c * self.denom for c in alpha.coords]
        # back-substitute against upper-triangular hnf columns
        residual = list(coords)
        for j in range(len(self.hnf) - 1, -1, -1):
            piv = self.hnf[j][j]
            q, r = divmod(Q(residual[j]), piv)
            if r != 0 or q.denominator != 1:
                return False
            q = int(q)
            for i in range(j + 1):
                residual[i] -= q * self.hnf[j][i]
        return all(x == 0 for x in residual)

    def __eq__(self, other):
        return (isinstance(other, HnfIdeal) and self.field is other.field
                and self.denom == other.denom and self.hnf == other.hnf)

    def __hash__(self):
        return hash((id(self.field), self.denom, self.hnf))

    def __repr__(self):
        return f"HnfIdeal(denom={self.denom}, N={self.norm()})"


class PrimeIdeal:
    """Prime ideal above a rational prime, with residue data."""

    __slots__ = ("p", "hnf", "f", "e")

    def __init__(self, p: int, hnf: HnfIdeal, f: int, e: int):
        self.p = int(p)
        self.hnf = hnf
        self.f = int(f)
        self.e = int(e)

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


def hnf_mul(a: HnfIdeal, b: HnfIdeal) -> HnfIdeal:
    if a.field is not b.field:
        raise ValueError("ideals from different fields")
    field = a.field
    gens_a = a.basis_elements()
    gens_b = b.basis_elements()
    cols = []
    for x in gens_a:
        for y in gens_b:
            cols.append(list((x * y).coords))
    return HnfIdeal.from_module_columns(field, cols)


def hnf_inv(a: HnfIdeal) -> HnfIdeal:
    """Exact inverse: a * hnf_inv(a) == O_K."""
    field = a.field
    n = field.n
    num = HnfIdeal(field, 1, a.hnf)        # integral part: a = num / denom
    nrm = int(num.norm())
    # num^{-1} = (1/nrm) * {z in Z^n : z * g_j / nrm integral for all j}
    gens = num.basis_elements()
    stacked = []                            # rows of the n^2 x n map
    for g in gens:
        m = field.mult_matrix(g)
        for row in m:
            stacked.append(row)
    den = 1
    for row in stacked:
        for x in row:
            den = den * x.denominator // gcd(den, x.denominator)
    m_int = [[int(x * den) for x in row] for row in stacked]
    modulus = nrm * den
    # lattice {z in Z^n : M z = 0 mod modulus}: kernel of [M | mod*I]
    big_rows = []
    for j in range(n):
        big_rows.append([m_int[i][j] for i in range(len(m_int))])
    for i in range(len(m_int)):
        row = [0] * len(m_int)
        row[i] = modulus
        big_rows.append(row)
    ker = qlinalg.int_kernel(big_rows)
    zs = [k[:n] for k in ker]
    zs = [z for z in zs if any(z)]
    inv_int = HnfIdeal.from_module_columns(field, [[Q(x) for x in z] for z in zs])
    # result = denom * inv_int / nrm
    cols = [[Q(x * a.denom, inv_int.denom * nrm) for x in col]
            for col in inv_int.hnf]
    return HnfIdeal.from_module_columns(field, cols)


def ord_at(a: HnfIdeal, p: PrimeIdeal) -> int:
    """Exact valuation of a at p (works for fractional a)."""
    field = a.field
    num = HnfIdeal(field, 1, a.hnf)
    v = _ord_integral(num, p)
    if a.denom != 1:
        d_ideal = HnfIdeal.from_integer(field, a.denom)
        v -= _ord_integral(d_ideal, p)
    return v


def _contained_in(a: HnfIdeal, b: HnfIdeal) -> bool:
    """a subseteq b for integral ideals (denom-1 HNFs)."""
    for elt in a.basis_elements():
        if not b.contains(elt):
            return False
    return True


def _ord_integral(a: HnfIdeal, p: PrimeIdeal) -> int:
    # v > 0 requires N(p) | N(a); and N(p)^v | N(a) caps v
    nrm = int(a.norm() * Q(a.denom) ** len(a.hnf))
    if nrm % p.p:
        return 0
    vmax = 0
    m = nrm
    while m % p.p == 0:
        m //= p.p
        vmax += 1
    vmax //= p.f
    if vmax == 0:
        return 0
    # binary search for the largest v <= vmax with a subseteq p^v
    lo, hi = 0, vmax
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _contained_in(a, p.power(mid)):
            lo = mid
        else:
            hi = mid - 1
    return lo


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
    index2 = field.disc_poly / field.disc_field
    index_sq = int(index2)
    if index_sq % p == 0:
        raise ValueError(
            f"prime {p} divides the index [O_K:Z[theta]]; supply splitting "
            "data externally (corpus fields are index-free)")
    factors = polyq.factor_mod_p(field.poly, p)
    out = []
    theta = field.theta()
    for g, e in factors:
        gs = [Q(c) for c in g]
        # p_i = (p, g_i(theta))
        gt = field.from_power(gs)
        ideal = HnfIdeal.from_generators(field, [field.one() * p, gt])
        prime = PrimeIdeal(p, ideal, f=polyq.degree(g), e=e)
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


def primes_up_to(field: NumberField, bound: int,
                 avoid: HnfIdeal | None = None) -> list[PrimeIdeal]:
    """All prime ideals with norm <= bound that do not divide avoid,
    sorted by (norm, canonical HNF)."""
    out = []
    for p in intmath.primes_below(bound + 1):
        for prime, _e in kummer_dedekind(field, p):
            if prime.norm() > bound:
                continue
            if avoid is not None and ord_at(avoid, prime) != 0:
                continue
            out.append(prime)
    out.sort(key=lambda pr: pr.sort_key())
    return out


class SampleFailure(Exception):
    """Uniform prime sampling exhausted its retry budget."""

    def __init__(self, message, attempts=0, acceptance_rate=0.0):
        super().__init__(message)
        self.attempts = attempts
        self.acceptance_rate = acceptance_rate


def sample_prime_uniform(field: NumberField, bound: int, m0: HnfIdeal | None,
                         class_oracle, rng, max_attempts: int = 200000) -> PrimeIdeal:
    """Uniform sample from {p prime : N(p) <= B, p coprime to m0,
    class_oracle(p)}: draw p uniform in [0, B], primality-test, split,
    filter, accept a uniform candidate with probability k/n."""
    n = field.n
    accepted = 0
    for attempt in range(1, max_attempts + 1):
        p = rng.randint(0, bound)
        if p < 2 or not intmath.is_prime(p):
            continue
        index_sq = int(field.disc_poly / field.disc_field)
        if index_sq % p == 0:
            continue
        cands = []
        for prime, _e in kummer_dedekind(field, p):
            if prime.norm() > bound:
                continue
            if m0 is not None and ord_at(m0, prime) != 0:
                continue
            if class_oracle is not None and not class_oracle(prime):
                continue
            cands.append(prime)
        if not cands:
            continue
        k = len(cands)
        choice = cands[rng.randrange(k)]
        if rng.random() < k / n:
            return choice
    raise SampleFailure(
        f"no prime accepted after {max_attempts} attempts",
        attempts=max_attempts, acceptance_rate=accepted / max_attempts)
