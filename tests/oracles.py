"""Independent test oracles: classical invariants computed by elementary
methods that never touch the library's own code paths.

- class numbers of imaginary quadratic fields by counting reduced binary
  quadratic forms;
- fundamental units of real quadratic fields by continued fractions
  (Pell);
- brute-force ideal counting straight from prime splitting data computed
  with Legendre symbols;
- chi-square helpers (cross-checked against scipy in the tests);
- a naive LLL that recomputes the rational Gram-Schmidt data after every
  basis change, the cross-check for the library's integral LLL, with an
  exact LLL-reducedness test and a row Hermite normal form for lattice
  equality;
- the residue bracket's Euler product as the library computed it before
  its vectorised kernel: a per-prime float loop over a bytearray sieve
  (bit-for-bit reference) and an exact `Fraction` product over
  Kummer-Dedekind prime ideals.  These two take their splitting data from
  the library's per-prime `splitting_degrees` and `kummer_dedekind`.
"""

from __future__ import annotations

import math
from fractions import Fraction


def forms_class_number(disc: int) -> int:
    """h(D) for D < 0 a fundamental discriminant, by enumerating reduced
    forms ax^2+bxy+cy^2: |b| <= a <= c, b = D mod 2, b >= 0 when a == c
    or a == |b|."""
    if disc >= 0:
        raise ValueError("imaginary quadratic only")
    h = 0
    a = 1
    while a * a <= -disc / 3:
        for b in range(-a + 1, a + 1):
            if (b * b - disc) % (4 * a):
                continue
            c = (b * b - disc) // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == c or a == -b):
                continue
            h += 1
        a += 1
    return h


def pell_fundamental_unit(d: int) -> tuple[int, int]:
    """(x, y) minimal with x^2 - d y^2 = ±1, via the continued fraction
    of sqrt(d); d squarefree, not a perfect square."""
    a0 = math.isqrt(d)
    if a0 * a0 == d:
        raise ValueError("d is a perfect square")
    m, q, a = 0, 1, a0
    num1, num = 1, a0
    den1, den = 0, 1
    for _ in range(10000):
        if num * num - d * den * den in (1, -1):
            return num, den
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        num1, num = num, a * num + num1
        den1, den = den, a * den + den1
    raise RuntimeError("continued fraction did not close")


def real_quadratic_regulator(d: int) -> float:
    x, y = pell_fundamental_unit(d)
    return math.log(x + y * math.sqrt(d))


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def quadratic_prime_norms(disc_field: int, bound: int) -> list[int]:
    """Norms (with multiplicity over the primes above p) of the prime
    ideals of norm <= bound in the quadratic field of discriminant D,
    computed purely from Kronecker symbols."""
    out = []
    for p in primes_below_reference(bound + 1):
        if disc_field % p == 0:
            out.append(p)                  # ramified
        else:
            sym = legendre(disc_field % p, p) if p > 2 else _kron2(disc_field)
            if sym == 1:
                out.extend([p, p])         # split
            elif p * p <= bound:
                out.append(p * p)          # inert
    return sorted(out)


def _kron2(disc: int) -> int:
    m = disc % 8
    if m == 1:
        return 1
    if m == 5:
        return -1
    return 0


def primes_below_reference(bound: int) -> list[int]:
    """Primes p < bound by a bytearray sieve (the library's sieve before
    it moved to numpy)."""
    if bound <= 2:
        return []
    sieve = bytearray([1]) * bound
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
    return [i for i in range(bound) if sieve[i]]


def quadratic_ideal_counts(disc_field: int, up_to: int) -> list[int]:
    """count[k] = number of integral ideals of norm exactly k, 1 <= k <=
    up_to, by Euler-product expansion of the Dedekind zeta coefficients."""
    counts = [0] * (up_to + 1)
    counts[1] = 1
    for p in primes_below_reference(up_to + 1):
        if disc_field % p == 0:
            local = {p ** e: 1 for e in range(0, up_to.bit_length() * 2)
                     if p ** e <= up_to}
        else:
            sym = legendre(disc_field % p, p) if p > 2 else _kron2(disc_field)
            local = {}
            if sym == 1:
                e = 0
                while p ** e <= up_to:
                    local[p ** e] = e + 1
                    e += 1
            else:
                e = 0
                while p ** (2 * e) <= up_to:
                    local[p ** (2 * e)] = 1
                    e += 1
        new = [0] * (up_to + 1)
        for k in range(1, up_to + 1):
            if counts[k] == 0:
                continue
            for q, mult in local.items():
                if k * q > up_to:
                    break
                new[k * q] += counts[k] * mult
        counts = new
    return counts


def smooth_ideal_count(disc_field: int, up_to: int, a_cut: int,
                       b_bound: int) -> int:
    """Number of integral ideals of norm <= up_to all of whose prime
    ideal factors have norm in (a_cut, b_bound]."""
    norms = [q for q in quadratic_prime_norms(disc_field, b_bound)
             if q > a_cut]
    total = 0

    def rec(idx, value):
        nonlocal total
        total += 1          # counts the current (possibly empty) product
        for i in range(idx, len(norms)):
            if value * norms[i] > up_to:
                continue
            rec(i, value * norms[i])

    # products with repetition: iterate with multiplicity per prime ideal
    total = 0

    def rec2(idx, value):
        nonlocal total
        if idx == len(norms):
            total += 1
            return
        q = norms[idx]
        v = value
        while True:
            rec2(idx + 1, v)
            if v * q > up_to:
                break
            v *= q

    rec2(0, 1)
    return total


def chi2_uniform_stat(counts: dict, support: int, total: int) -> tuple[float, int]:
    expected = total / support
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    stat += (support - len(counts)) * expected   # unseen cells
    return stat, support - 1


def _gso_mu_norms(cols):
    """mu (lower triangular) and ||b*_i||^2 of rational columns."""
    n = len(cols)
    bstar, norms = [], []
    mu = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        v = [Fraction(x) for x in cols[j]]
        for i in range(j):
            mu[j][i] = sum(Fraction(a) * b for a, b in zip(cols[j], bstar[i])) / norms[i]
            v = [a - mu[j][i] * b for a, b in zip(v, bstar[i])]
        bstar.append(v)
        norms.append(sum(x * x for x in v))
        if norms[-1] == 0:
            raise ValueError("rank-deficient basis")
    return mu, norms


def lll_reference(cols, delta=Fraction(3, 4)):
    """Naive recompute-everything LLL; returns (columns, U) with
    columns = input * U.  Rounding is floor(mu + 1/2), so mu = 1/2 rounds
    to 1 and mu = -1/2 to 0."""
    delta = Fraction(delta)
    n = len(cols)
    b = [[Fraction(x) for x in c] for c in cols]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    mu, d = _gso_mu_norms(b)
    k = 1
    while k < n:
        for i in range(k - 1, -1, -1):
            q = math.floor(mu[k][i] + Fraction(1, 2))
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[i])]
                for r in range(n):
                    u[r][k] -= q * u[r][i]
                mu, d = _gso_mu_norms(b)
        if d[k] >= (delta - mu[k][k - 1] ** 2) * d[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            for r in range(n):
                u[r][k], u[r][k - 1] = u[r][k - 1], u[r][k]
            mu, d = _gso_mu_norms(b)
            k = max(k - 1, 1)
    return b, u


def gso_norms(cols) -> list[Fraction]:
    """||b*_i||^2; their product is det Gram(cols)."""
    return _gso_mu_norms(cols)[1]


def is_lll_reduced(cols, delta=Fraction(3, 4)) -> bool:
    """|mu_kj| <= 1/2 and the Lovasz condition, in exact rationals."""
    mu, d = _gso_mu_norms(cols)
    n = len(cols)
    for k in range(1, n):
        if any(abs(mu[k][j]) > Fraction(1, 2) for j in range(k)):
            return False
        if d[k] < (Fraction(delta) - mu[k][k - 1] ** 2) * d[k - 1]:
            return False
    return True


def hnf_rows(vectors) -> list[list[int]]:
    """Nonzero rows of the row Hermite normal form of integer vectors:
    positive pivots, entries above a pivot reduced into [0, pivot)."""
    rows = [list(v) for v in vectors]
    width = len(rows[0]) if rows else 0
    out, pivots = [], []
    for col in range(width):
        live = [r for r in rows if r[col]]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            piv = live[0]
            for r in live[1:]:
                q = r[col] // piv[col]
                r[:] = [a - q * b for a, b in zip(r, piv)]
            live = [r for r in live if r[col]]
        piv = live[0]
        rows = [r for r in rows if r is not piv]
        if piv[col] < 0:
            piv = [-x for x in piv]
        out.append(piv)
        pivots.append(col)
    for i, (row, col) in enumerate(zip(out, pivots)):
        for k in range(i):
            q = out[k][col] // row[col]
            out[k] = [a - q * b for a, b in zip(out[k], row)]
    return out


def euler_log_product_reference(field, x: int) -> float:
    """log A(x) by the per-prime loop of the old
    `sunit_pipeline.approx_rho_float`, verbatim: the bit-for-bit reference
    of `det_verify.euler_log_product`."""
    from latnf.ideal_arith import splitting_degrees
    log_a = 0.0
    index_sq = int(field.disc_poly / field.disc_field)
    for p in primes_below_reference(x):
        log_a += math.log1p(-1.0 / p)
        if index_sq % p == 0:
            raise ValueError("index-divisor prime in the Euler product")
        for f, _e in splitting_degrees(field, p):
            nrm = p ** f
            if nrm < x:
                log_a -= math.log1p(-1.0 / nrm)
    return log_a


def approx_rho_float_reference(field, x: int, mu_count: int):
    """The old `sunit_pipeline.approx_rho_float`: the bit-for-bit reference
    of the provable branch of `det_verify.approx_rho`."""
    from latnf.det_verify import RhoBracket
    log_a = euler_log_product_reference(field, x)
    err = 8 * (math.log(abs(field.disc_field))
               + field.n * math.log(x)) / math.sqrt(x) + 1e-9
    if math.exp(err) > 1.25:
        raise ValueError("truncation too small in provable mode")
    rho0 = math.exp(log_a)
    eta0 = rho0 * mu_count * math.sqrt(abs(field.disc_field)) / (
        2 ** field.n_real * (2 * math.pi) ** field.n_cplx)
    return RhoBracket(rho0, eta0, rho0 * math.exp(-err), rho0 * math.exp(err),
                      "provable", {"bach_error_log": err, "x": x})


def bach_product(field, x: int) -> Fraction:
    """A(x) = prod_{p < x} (1 - 1/p) / prod_{N(P) < x, P | p} (1 - 1/N(P)),
    exact."""
    from latnf.ideal_arith import kummer_dedekind
    out = Fraction(1)
    for p in primes_below_reference(x):
        num = 1 - Fraction(1, p)
        den = Fraction(1)
        for prime, _e in kummer_dedekind(field, p):
            if prime.norm() < x:
                den *= 1 - Fraction(1, prime.norm())
        out *= num / den
    return out
