"""Independent test oracles: classical invariants computed by elementary
methods that never touch the library's own code paths.

- class numbers of imaginary quadratic fields by counting reduced binary
  quadratic forms;
- fundamental units of real quadratic fields by continued fractions
  (Pell);
- brute-force ideal counting straight from prime splitting data computed
  with Legendre symbols;
- chi-square helpers (cross-checked against scipy in the tests);
- determinants and inverses by `Fraction` Gaussian and Gauss-Jordan
  elimination, as the library computed them before its fraction-free
  kernel;
- a naive LLL that recomputes the rational Gram-Schmidt data after every
  basis change, the cross-check for the library's integral LLL, with an
  exact LLL-reducedness test and a row Hermite normal form for lattice
  equality;
- the short vectors of a Gram matrix by searching a box that holds them
  all, with no Gram-Schmidt data: the cross-check for the library's
  Fincke-Pohst enumeration;
- the Smith invariant factors from determinantal divisors (gcds of
  minors);
- the residue bracket's Euler product as the library computed it before
  its vectorised kernel: a per-prime float loop over a bytearray sieve
  (bit-for-bit reference) and an exact `Fraction` product over
  Kummer-Dedekind prime ideals.  These two take their splitting data from
  the library's per-prime `splitting_degrees` and `kummer_dedekind`;
- the number-field kernels as `Fraction` arithmetic: ideal products and
  membership by multiplying in the power basis and a row HNF,
  valuations by searching for the largest k with a inside p^k, and root
  balls by Newton's method on rational midpoints.  They read only the
  field's polynomial and basis, and a prime's HNF and residue degree;
- the certified logarithm as an atanh series on `Fraction` ratios, and
  the prime sieve over every integer, as the library computed them
  before their integer-mantissa and odd-only kernels;
- the library's complex balls as `Fraction` `ComplexBall`s
  (`certify_roots`, `embedding_values`), and the readers it ran on them
  before they moved onto integer mantissas: the log embedding (with the
  two-ended `ball_log` it took before one series per place), the sign
  at a real place, the |sigma|^2k decision with its Liouville fallback
  and the root-subset factor search;
- Klein's sampler on the rational Gram-Schmidt basis with a `Fraction`
  residual center, as the library ran it before its integral kernel.
  It shares the library's windowed integer Gaussian and square-root
  bracket, which both paths call with equal rationals;
- the Buchmann-Kessler-Pohst passes on `Fraction` rows, with the
  constants C, T and lambda as rational powers, as the library computed
  them before its integer-row kernel.  They share the library's LLL,
  which both paths run on the same integer lattice;
- BKZ' and the recursive BKZ' as the library ran them before their
  one-state loop: the integral GSO rebuilt from the Gram after every
  block change, and each block reduced by `hkz_reduce` as its projected
  vectors.  They share the library's GSO state and HKZ reduction;
- HKZ on an integer Gram as the library ran it before its one-state
  loop: each improving step's transform applied to the Gram by the
  congruence U^T G U, and the GSO rebuilt from the new Gram.  It shares
  the library's GSO state, shortest-vector search and unimodular
  completion.

Shared by several test modules, and run by no command of the library:
the chi-square survival function (`chi2_sf`), the integer single BKP
pass (`bkp_once`, the first half of `bkp_twice`), exact lattice-point
counting in a box with the counting lemma's interval (`count_in_box`,
over Babai's covering bound on the HKZ basis, `covering_upper_sq`),
|root| > g^(1/k) for a root of an integer polynomial through the
library's |sigma|^2k decision (`abs_root_gt`), ball containment
(`ball_contains`), the degree of a divisor or Log-S-unit vector
(`divisor_degree`, the product-formula check), the exact T2 Gram of a
totally real or CM field by the conjugation-twisted trace form
(`minkowski_gram`) and the bit-length bound on log2 that the literal
full-matrix post-processing sizes its precision with (`log2_up`).
"""

from __future__ import annotations

import itertools
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


def exact_rho(field, h: int, regulator: float, roots_of_unity: int) -> float:
    """Class-number-formula value of the Dedekind residue."""
    return (2 ** field.n_real * (2 * math.pi) ** field.n_cplx * regulator * h
            / (roots_of_unity * math.sqrt(abs(field.disc_field))))


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


def prime_sieve_reference(bound: int):
    """The primes p < bound as an int64 array, sieving every integer (the
    library's numpy sieve before it sieved odd numbers only)."""
    import numpy as np
    if bound <= 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones(bound, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve).astype(np.int64, copy=False)


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


def chi2_sf(stat: float, dof: int) -> float:
    """Survival function of the chi-square distribution (regularized
    upper incomplete gamma), float precision."""
    return _gammainc_upper(dof / 2.0, stat / 2.0)


def _gammainc_upper(a: float, x: float) -> float:
    if x < 0 or a <= 0:
        raise ValueError
    if x == 0:
        return 1.0
    if x < a + 1:
        # lower series
        term = 1.0 / a
        total = term
        k = a
        for _ in range(10000):
            k += 1
            term *= x / k
            total += term
            if abs(term) < abs(total) * 1e-15:
                break
        lower = total * math.exp(-x + a * math.log(x) - math.lgamma(a))
        return max(0.0, 1.0 - lower)
    # continued fraction for upper
    tiny = 1e-300
    b = x + 1 - a
    c = 1 / tiny
    d = 1 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - a)
        b += 2
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1 / d
        delta = d * c
        h *= delta
        if abs(delta - 1) < 1e-15:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def mat_det_reference(m):
    """Determinant by Fraction Gaussian elimination."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def mat_inv_reference(m):
    """Inverse by Fraction Gauss-Jordan; ZeroDivisionError if singular."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def short_vectors_reference(g, radius2):
    """All nonzero x with x^T g x <= radius2, one per +-pair (the last
    nonzero coordinate positive), as (x, norm) sorted by (norm, x).

    Searches the box |x_i| <= isqrt(floor(radius2 (g^-1)_ii)), with g^-1
    exact: x_i = (g^-1 e_i)^T g x, so by Cauchy-Schwarz in the form g,
    x_i^2 <= (g^-1)_ii x^T g x."""
    n = len(g)
    radius2 = Fraction(radius2)
    if radius2 <= 0:
        return []
    ginv = mat_inv_reference(g)
    bounds = [math.isqrt(math.floor(radius2 * ginv[i][i])) for i in range(n)]
    out = []
    for x in itertools.product(*(range(-b, b + 1) for b in bounds)):
        last = next((v for v in reversed(x) if v), 0)
        if last <= 0:
            continue
        nrm = sum(x[i] * Fraction(g[i][j]) * x[j]
                  for i in range(n) for j in range(n) if x[i] and x[j])
        if nrm <= radius2:
            out.append((x, nrm))
    return sorted(out, key=lambda t: (t[1], t[0]))


def short_box_size(g, radius2) -> int:
    """The number of points `short_vectors_reference` searches."""
    ginv = mat_inv_reference(g)
    return math.prod(2 * math.isqrt(math.floor(Fraction(radius2) * ginv[i][i]))
                     + 1 for i in range(len(g)))


def _gso_mu_norms(cols):
    """mu (lower triangular), ||b*_i||^2 and the b*_i of rational
    columns."""
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
    return mu, norms, bstar


def klein_sample_reference(basis_cols, s, center, eps_g, rng):
    """(coeffs, vector) of `samplers.klein_sample` from the rational
    Gram-Schmidt basis of `_gso_mu_norms`: level i draws around
    <c_res, b*_i> / ||b*_i||^2 with width the midpoint of the 64-bit
    bracket of sqrt(s^2 / ||b*_i||^2), and c_res -= z_i b_i."""
    from latnf.dyadic import sqrt_bracket
    from latnf.samplers import _z_gaussian
    n = len(basis_cols)
    s = Fraction(s)
    maxn = max(math.sqrt(float(sum(Fraction(x) ** 2 for x in c)))
               for c in basis_cols)
    width = math.sqrt((math.log(1 / eps_g) + 2 * math.log(n) + 3)
                      / math.pi) * maxn
    if float(s) < width * (1 - 1e-12):
        raise ValueError("Gaussian width below the sampler's precondition")
    _mu, norms, bstar = _gso_mu_norms(basis_cols)
    delta = eps_g / (2 * n)
    t = math.sqrt(math.log(n / delta))
    c_res = [Fraction(x) for x in center]
    coeffs = [0] * n
    for i in range(n - 1, -1, -1):
        ci = sum(a * b for a, b in zip(c_res, bstar[i])) / norms[i]
        lo_s, hi_s = sqrt_bracket(s * s / norms[i], 64)
        z = _z_gaussian((lo_s + hi_s) / 2, ci, t, delta, rng)
        coeffs[i] = z
        c_res = [a - z * Fraction(b) for a, b in zip(c_res, basis_cols[i])]
    vec = [Fraction(0)] * len(basis_cols[0])
    for z, col in zip(coeffs, basis_cols):
        vec = [a + z * Fraction(b) for a, b in zip(vec, col)]
    return coeffs, vec


def lll_reference(cols, delta=Fraction(3, 4)):
    """Naive recompute-everything LLL; returns (columns, U) with
    columns = input * U.  Rounding is floor(mu + 1/2), so mu = 1/2 rounds
    to 1 and mu = -1/2 to 0."""
    delta = Fraction(delta)
    n = len(cols)
    b = [[Fraction(x) for x in c] for c in cols]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    mu, d, _ = _gso_mu_norms(b)
    k = 1
    while k < n:
        for i in range(k - 1, -1, -1):
            q = math.floor(mu[k][i] + Fraction(1, 2))
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[i])]
                for r in range(n):
                    u[r][k] -= q * u[r][i]
                mu, d, _ = _gso_mu_norms(b)
        if d[k] >= (delta - mu[k][k - 1] ** 2) * d[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            for r in range(n):
                u[r][k], u[r][k - 1] = u[r][k - 1], u[r][k]
            mu, d, _ = _gso_mu_norms(b)
            k = max(k - 1, 1)
    return b, u


def gso_norms(cols) -> list[Fraction]:
    """||b*_i||^2; their product is det Gram(cols)."""
    return _gso_mu_norms(cols)[1]


def is_lll_reduced(cols, delta=Fraction(3, 4)) -> bool:
    """|mu_kj| <= 1/2 and the Lovasz condition, in exact rationals."""
    mu, d, _ = _gso_mu_norms(cols)
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


def smith_reference(rows) -> list[int]:
    """Nonzero invariant factors of an integer matrix from its
    determinantal divisors: d_k is the gcd of the k x k minors, and the
    k-th factor is d_k / d_(k-1), until d_k = 0."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    factors, last = [], 1
    for k in range(1, min(m, n) + 1):
        d_k = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                minor = [[rows[i][j] for j in ci] for i in ri]
                d_k = math.gcd(d_k, int(mat_det_reference(minor)))
        if d_k == 0:
            break
        factors.append(d_k // last)
        last = d_k
    return factors


def euler_product_reference(field, x: int) -> float:
    """log A(x) by a per-prime loop: the exact factor F_p of each prime
    from `splitting_degrees`, rounded to float once (Python's integer
    true division rounds correctly, so it is float(Fraction(num, den))),
    multiplied left to right, then one `math.log`: the bit-for-bit
    reference of `det_verify.euler_log_product`."""
    from latnf.ideal_arith import splitting_degrees
    product = 1.0
    index_sq = int(field.disc_poly / field.disc_field)
    for p in primes_below_reference(x):
        if index_sq % p == 0:
            raise ValueError("index-divisor prime in the Euler product")
        num, den = p - 1, p
        for f, _e in splitting_degrees(field, p):
            nrm = p ** f
            if nrm < x:
                num, den = num * nrm, den * (nrm - 1)
        product *= num / den
    return math.log(product)


def approx_rho_float_reference(field, x: int, mu_count: int):
    """The bracket of the old `sunit_pipeline.approx_rho_float` around
    `euler_product_reference`'s log A(x): the bit-for-bit reference of
    `det_verify.approx_rho`."""
    from latnf.det_verify import RhoBracket
    log_a = euler_product_reference(field, x)
    err = 8 * (math.log(abs(field.disc_field))
               + field.n * math.log(x)) / math.sqrt(x) + 1e-9
    if math.exp(err) > 1.25:
        raise ValueError("truncation too small in provable mode")
    rho0 = math.exp(log_a)
    eta0 = rho0 * mu_count * math.sqrt(abs(field.disc_field)) / (
        2 ** field.n_real * (2 * math.pi) ** field.n_cplx)
    return RhoBracket(rho0, eta0, rho0 * math.exp(-err), rho0 * math.exp(err),
                      {"bach_error_log": err, "x": x})


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


# ---------------------------------------------------------------------------
# Number-field kernels in Fraction arithmetic


def _solve_upper(rows, rhs):
    """x with sum_k x_k rows[k] = rhs for rows in echelon form with
    increasing pivots, or None when rhs is outside their rational span."""
    x = [Fraction(0)] * len(rows)
    resid = [Fraction(v) for v in rhs]
    for k, row in enumerate(rows):
        piv = next(j for j, v in enumerate(row) if v)
        x[k] = resid[piv] / row[piv]
        resid = [a - x[k] * b for a, b in zip(resid, row)]
    return x if not any(resid) else None


def _basis_matrix(field):
    """Rows: power-basis coordinates of the integral basis."""
    return [[Fraction(c) for c in row] for row in field.basis_pb]


def field_product(field, x, y):
    """Integral-basis coordinates of x*y, multiplied as polynomials in
    theta modulo the defining polynomial."""
    basis = _basis_matrix(field)
    n = field.n
    px = [sum(Fraction(x[i]) * basis[i][k] for i in range(n)) for k in range(n)]
    py = [sum(Fraction(y[i]) * basis[i][k] for i in range(n)) for k in range(n)]
    prod = [Fraction(0)] * (2 * n - 1)
    for i, a in enumerate(px):
        for j, b in enumerate(py):
            prod[i + j] += a * b
    for k in range(2 * n - 2, n - 1, -1):       # reduce mod the monic poly
        c = prod[k]
        if c:
            for i in range(n + 1):
                prod[k - n + i] -= c * field.poly[i]
    return _coords_in(basis, prod[:n])


def _coords_in(rows, vec):
    """c with sum_i c_i rows[i] = vec (rows a basis of Q^n), by Gauss-Jordan
    elimination on the transposed system."""
    n = len(rows)
    aug = [[rows[i][k] for i in range(n)] + [Fraction(vec[k])]
           for k in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[k][n] for k in range(n)]


def ideal_from_module(vectors) -> tuple[int, list[list[int]]]:
    """(d, H) for the Z-module spanned by rational coordinate vectors:
    H the upper-triangular column HNF of d times the module, with
    gcd(d, content H) = 1, as `HnfIdeal` stores it."""
    den = math.lcm(*(Fraction(v).denominator for vec in vectors for v in vec))
    ints = [[int(Fraction(v) * den) for v in reversed(vec)] for vec in vectors]
    rows = hnf_rows([r for r in ints if any(r)])
    cols = [list(reversed(r)) for r in reversed(rows)]
    g = math.gcd(den, *(v for c in cols for v in c))
    return den // g, [[v // g for v in c] for c in cols]


def ideal_vectors(field, denom, hnf):
    return [[Fraction(v, denom) for v in col] for col in hnf]


def ideal_product(field, a, b):
    """(d, H) of the product of ideals given as (d, H) pairs."""
    return ideal_from_module([field_product(field, x, y)
                              for x in ideal_vectors(field, *a)
                              for y in ideal_vectors(field, *b)])


def principal_ideal(field, x):
    """(d, H) of x O_K."""
    unit = [[int(i == j) for j in range(field.n)] for i in range(field.n)]
    return ideal_from_module([field_product(field, x, e) for e in unit])


def ideal_contains(field, a, x) -> bool:
    """x in the ideal (d, H), by an exact rational solve."""
    vecs = ideal_vectors(field, *a)
    rows = hnf_rows_rational(vecs)
    coeffs = _solve_upper(rows, x)
    return coeffs is not None and all(c.denominator == 1 for c in coeffs)


def hnf_rows_rational(vecs):
    den = math.lcm(*(v.denominator for vec in vecs for v in vec))
    return [[Fraction(v, den) for v in r]
            for r in hnf_rows([[int(v * den) for v in vec] for vec in vecs])]


def valuation_by_containment(field, a, p_hnf, p_f, p) -> int:
    """v_P(a) for the prime P = (1, p_hnf) above p of residue degree p_f:
    the largest k with d a inside P^k, minus the same for d O_K, where
    d is the denominator of a; k is capped by the p-part of the norm."""
    def integral_valuation(ideal):
        nrm = math.prod(ideal[1][j][j] for j in range(field.n))
        cap = 0
        while nrm % p == 0:
            nrm //= p
            cap += 1
        cap //= p_f
        power = (1, [[int(i == j) for j in range(field.n)]
                     for i in range(field.n)])
        k = 0
        while k < cap:
            power = ideal_product(field, power, (1, p_hnf))
            if not all(ideal_contains(field, power, x)
                       for x in ideal_vectors(field, *ideal)):
                break
            k += 1
        return k

    denom, hnf = a
    scalar = [Fraction(denom)] + [Fraction(0)] * (field.n - 1)
    d_ideal = principal_ideal(field, _coords_in(_basis_matrix(field), scalar))
    return integral_valuation((1, hnf)) - integral_valuation(d_ideal)


def _ceval(poly, re, im):
    are, aim = Fraction(0), Fraction(0)
    for c in reversed(poly):
        are, aim = are * re - aim * im + c, are * im + aim * re
    return are, aim


def _round_dyadic(x: Fraction, prec: int) -> Fraction:
    return Fraction(math.floor(x * (1 << prec) + Fraction(1, 2)), 1 << prec)


def certify_roots_reference(poly, prec: int):
    """(re, im, rad) triples: Newton's method from numpy's roots on
    rational midpoints rounded half up to 2^-work, radius n|f|/|f'| with
    its square root rounded up to 2^-work, `work` doubling on a failed or
    overlapping ball; None after 40 doublings."""
    import numpy as np
    f = [Fraction(c) for c in poly]
    n = len(f) - 1
    df = [k * f[k] for k in range(1, n + 1)]
    target = Fraction(1, 1 << prec)
    approx = np.roots(list(reversed([float(c) for c in poly])))
    work = max(64, prec + 32)
    for _attempt in range(40):
        balls = []
        for z0 in approx:
            re = _round_dyadic(Fraction(float(z0.real)).limit_denominator(10 ** 12), work)
            im = _round_dyadic(Fraction(float(z0.imag)).limit_denominator(10 ** 12), work)
            ball = None
            for _ in range(work.bit_length() + 60):
                fz, dfz = _ceval(f, re, im), _ceval(df, re, im)
                d2 = dfz[0] ** 2 + dfz[1] ** 2
                if d2 == 0:
                    break
                x = (fz[0] ** 2 + fz[1] ** 2) / d2
                hi = (Fraction(math.isqrt(math.floor(x * (1 << 2 * work))) + 1,
                               1 << work) if x else Fraction(0))
                if n * hi <= target:
                    ball = (re, im, n * hi)
                    break
                re, im = (_round_dyadic(re - (fz[0] * dfz[0] + fz[1] * dfz[1]) / d2, work),
                          _round_dyadic(im - (fz[1] * dfz[0] - fz[0] * dfz[1]) / d2, work))
            if ball is None:
                break
            balls.append(ball)
        else:
            if all((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 > (a[2] + b[2]) ** 2
                   for i, a in enumerate(balls) for b in balls[i + 1:]):
                return balls
        work *= 2
    return None


# ---------------------------------------------------------------------------
# The certified-embedding path in Fraction ball arithmetic


class ComplexBall:
    """Complex interval with an exact rational midpoint and one shared
    radius, the library's complex ball before its embedding readers moved
    onto integer mantissas."""

    __slots__ = ("re", "im", "rad")

    def __init__(self, re, im, rad=0):
        self.re = Fraction(re)
        self.im = Fraction(im)
        self.rad = Fraction(rad)

    def __add__(self, other):
        return ComplexBall(self.re + other.re, self.im + other.im,
                           self.rad + other.rad)

    def __neg__(self):
        return ComplexBall(-self.re, -self.im, self.rad)

    def __mul__(self, other):
        # |z w - z0 w0| <= |z0|_1 rw + |w0|_1 rz + rz rw, |.|_1 = |re| + |im|
        a = abs(self.re) + abs(self.im)
        b = abs(other.re) + abs(other.im)
        return ComplexBall(self.re * other.re - self.im * other.im,
                           self.re * other.im + self.im * other.re,
                           a * other.rad + b * self.rad + self.rad * other.rad)

    def abs2(self):
        """RealBall containing |z|^2."""
        from latnf.dyadic import RealBall
        a = abs(self.re) + abs(self.im)
        return RealBall(self.re * self.re + self.im * self.im,
                        2 * a * self.rad + self.rad * self.rad)


def certify_roots(poly, prec: int) -> list:
    """The library's certified root balls (`nf_core._root_mantissas`) as
    `ComplexBall`s, in its order."""
    from latnf import nf_core
    work, balls = nf_core._root_mantissas(poly, prec)
    scale = 1 << work
    return [ComplexBall(Fraction(a, scale), Fraction(b, scale),
                        Fraction(r, scale)) for a, b, r in balls]


def embedding_values(pt) -> list:
    """The values of an `EmbeddingPoint` as `ComplexBall`s."""
    scale = 1 << pt.work
    return [ComplexBall(Fraction(re, scale), Fraction(im, scale),
                        Fraction(rad, pt.rad_den)) for re, im, rad in pt.balls]


def ceval_ball_reference(poly, z, work: int):
    """Ball around poly(z) for rational coefficients and a ComplexBall z:
    Horner in `ComplexBall` arithmetic, the midpoint rounded half up to
    2^-work after every step and the rounding error added to the radius."""
    acc = ComplexBall(0, 0)
    for c in reversed(poly):
        acc = acc * z + ComplexBall(Fraction(c), 0)
        re, im = _round_dyadic(acc.re, work), _round_dyadic(acc.im, work)
        acc = ComplexBall(re, im, acc.rad + abs(re - acc.re) + abs(im - acc.im))
    return acc


def abs2_pow_reference(z, k: int):
    """RealBall around (|z|^2)^k by binary powering of `z.abs2()`."""
    from latnf.dyadic import RealBall
    out, base = RealBall(Fraction(1)), z.abs2()
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


def ball_contains(ball, x) -> bool:
    """True when the rational x lies in the closed RealBall."""
    return ball.lo() <= Fraction(x) <= ball.hi()


def divisor_degree(finite, infinite, prec: int = 64):
    """RealBall around deg = sum_p a_p log N(p) + sum_nu a_nu, with
    `finite` the (prime, a_p) pairs and `infinite` the balls a_nu: exact
    up to the certified log balls at prec bits.  By the product formula
    it is 0 on a principal divisor and on a Log-S-unit vector."""
    from latnf.dyadic import RealBall, log_ball
    acc = RealBall(Fraction(0))
    for p, e in finite:
        acc = acc + log_ball(Fraction(p.norm()), prec) * Fraction(e)
    for v in infinite:
        acc = acc + v
    return acc


def ball_log(b, prec: int):
    """Ball containing log over a strictly positive RealBall: one
    `log_ball` at each end, as `divisor_log.log_embedding` took it before
    it ran one series at the centre."""
    from latnf.dyadic import RealBall, log_ball
    lo, hi = b.lo(), b.hi()
    if lo <= 0:
        raise ValueError("log over ball touching zero")
    l, h = log_ball(lo, prec).lo(), log_ball(hi, prec).hi()
    return RealBall((l + h) / 2, (h - l) / 2)


def log_embedding_reference(field, alpha, prec: int):
    """n_nu/2 times the two-ended `ball_log` of `ComplexBall.abs2` at
    each place, with the precision doubling of
    `divisor_log.log_embedding`; None where that would exceed its cap."""
    work = prec + 16
    for _ in range(40):
        values = embedding_values(field.embed(alpha, work))
        squares = [(values[idx].abs2(), nnu) for idx, nnu in field.places()]
        if all(a2.lo() > 0 for a2, _nnu in squares):
            return [ball_log(a2, prec + 8) * Fraction(nnu, 2)
                    for a2, nnu in squares]
        work *= 2
    return None


def sign_at_real_place_reference(field, alpha, place_idx: int):
    """The sign of sigma(alpha) at a real place, read off the first
    `ComplexBall` value (at 32, 64, ... bits) that excludes 0."""
    emb_idx = field.places()[place_idx][0]
    prec = 32
    for _ in range(40):
        v = embedding_values(field.embed(alpha, prec))[emb_idx]
        if v.re - v.rad > 0:
            return 1
        if v.re + v.rad < 0:
            return -1
        prec *= 2
    return None


def abs2_pow_gt_reference(ball_at, int_poly, k: int, c: Fraction):
    """(verdict, fallback): `nf_core._abs2_pow_gt` in RealBall arithmetic
    on the `ComplexBall` `ball_at(prec)`, and whether the Liouville
    fallback ran.  The fallback refines b (|w|^2)^k, b = den(c), against
    the integer num(c), snapping to the midpoint rounded half to even
    within the separation bound of its integer polynomial."""
    from latnf import nf_core
    for prec in (48, 128, 320):
        t = abs2_pow_reference(ball_at(prec), k)
        if t.lo() > c:
            return nf_core.GT, False
        if t.hi() <= c:
            return nf_core.LE, False
    b, cn = c.denominator, c.numerator
    kron = nf_core._kronecker_square_charpoly(int_poly())
    scaled = nf_core._scale_roots_to_int(nf_core._compose_power(kron, k), b)
    sep = nf_core.liouville_separation(scaled)
    prec = 32
    for _ in range(40):
        ball = abs2_pow_reference(ball_at(prec + k.bit_length() * 4 + 8), k) * b
        if ball.lo() > cn:
            return nf_core.GT, True
        if ball.hi() <= cn:
            return nf_core.LE, True
        if ball.rad <= sep / 4:
            z = round(ball.mid)
            if abs(ball.mid - z) + ball.rad < sep / 2:
                return (nf_core.GT if z > cn else nf_core.LE), True
            return (nf_core.GT if ball.mid > cn else nf_core.LE), True
        prec *= 2
    return None, True


def subset_factor_test_reference(poly_q, roots):
    """`nf_core._subset_factor_test` on `ComplexBall` roots: the products
    of (x - w) over subsets of at most half the roots in `ComplexBall`
    arithmetic, each coefficient tried at its midpoint rounded half to
    even."""
    from latnf import polyq
    n = len(roots)
    for size in range(1, n // 2 + 1):
        for sub in itertools.combinations(range(n), size):
            coeffs = [ComplexBall(1, 0)]
            for i in sub:
                z = roots[i]
                new = [ComplexBall(0, 0) for _ in range(len(coeffs) + 1)]
                for d, c in enumerate(coeffs):
                    new[d + 1] = new[d + 1] + c
                    new[d] = new[d] + c * (-z)
                coeffs = new
            cand = []
            for c in coeffs:
                if c.rad >= Fraction(1, 4):
                    return None
                z = round(c.re)
                if abs(c.im) > c.rad or abs(c.re - z) > c.rad:
                    break
                cand.append(z)
            else:
                _, rem = polyq.poly_divmod(poly_q, [Fraction(c) for c in cand])
                if not rem:
                    return False
    return True


def minkowski_columns_reference(field, elements, x, prec: int):
    """Minkowski coordinates of x*elements as RealBall products: real
    embeddings times x, complex pairs as (sqrt2 Re, sqrt2 Im) times x."""
    from latnf.dyadic import RealBall, sqrt_bracket
    lo2, hi2 = sqrt_bracket(Fraction(2), prec + 8)
    s2 = RealBall((lo2 + hi2) / 2, (hi2 - lo2) / 2)
    cols = []
    for e in elements:
        values = embedding_values(field.embed(e, prec + 8))
        col = []
        for i in range(field.n_real):
            col.append(RealBall(values[i].re, values[i].rad) * Fraction(x[i]))
        for kidx in range(field.n_cplx):
            j = field.n_real + 2 * kidx
            v = values[j]
            col.append(RealBall(v.re, v.rad) * s2 * Fraction(x[j]))
            col.append(RealBall(v.im, v.rad) * s2 * Fraction(x[j]))
        cols.append(col)
    return cols


def minkowski_gram(field, elements):
    """Exact Gram matrix of elements under T2, (x, y) -> Tr(x conj(y)),
    on a totally real or CM field, where conj is a field automorphism
    theta -> psi that realizes complex conjugation at every embedding.
    psi is taken among theta, the other root of a quadratic and 1/theta:
    it must be a root of the defining polynomial exactly and the conjugate
    of theta at each of numpy's roots within 1e-9.  The T2 reference of
    the tests on quadratic and cyclotomic fields."""
    import numpy as np
    theta = field.from_power([0, 1])
    cands = [theta] if field.n_cplx == 0 else []
    if field.n == 2:
        cands.append(-theta - field.poly[1])
    cands.append(theta.inverse())
    roots = np.roots(field.poly[::-1])
    for psi in cands:
        value = field.element([0] * field.n)
        for c in reversed(field.poly):
            value = value * psi + c
        image = [float(c) for c in reversed(field.to_power(psi))]
        if value.is_zero() and all(abs(np.polyval(image, r) - np.conj(r))
                                   < 1e-9 for r in roots):
            break
    else:
        raise ValueError("no conjugation automorphism among the candidates")
    conj = []
    for y in elements:
        acc, power = field.element([0] * field.n), field.one()
        for c in field.to_power(y):
            acc, power = acc + power * c, power * psi
        conj.append(acc)
    return [[(x * cy).trace() for cy in conj] for x in elements]


def ln2_reference(prec: int) -> Fraction:
    """log 2 = 2 atanh(1/3) by a floored series at 2^-(prec+16), rounded
    half up to 2^-prec."""
    work = prec + 16
    term, total, k = (1 << work) // 3, 0, 0
    while term:
        total += term // (2 * k + 1)
        term //= 9
        k += 1
    return _round_dyadic(Fraction(2 * total, 1 << work), prec)


def log_ball_reference(x: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """(mid, rad) of log x for rational x > 0: x = 2^e m with m in
    [1, 2), the atanh series on the reduced z = (m-1)/(m+1) and z^2 at
    2^-(prec+24) with a floor after every product, plus e·log 2, the
    midpoint rounded half up to 2^-(prec+8) and the radius 2^-prec."""
    work = prec + 24
    e = x.numerator.bit_length() - x.denominator.bit_length()
    m = x / Fraction(2) ** e
    if m < 1:
        m *= 2
        e -= 1
    z = (m - 1) / (m + 1)
    z2 = z * z
    term = (z.numerator << work) // z.denominator
    total, k = 0, 0
    while term:
        total += term // (2 * k + 1)
        term = term * z2.numerator // z2.denominator
        k += 1
    val = Fraction(2 * total, 1 << work) + e * ln2_reference(work)
    return _round_dyadic(val, prec + 8), Fraction(1, 1 << prec)


def _sqrt_upper(x: Fraction, prec: int) -> Fraction:
    """The upper end of the dyadic bracket of sqrt(x) at 2^-prec (0 at 0)."""
    if x == 0:
        return Fraction(0)
    r = math.isqrt((x.numerator << 2 * prec) // x.denominator)
    return Fraction(r + 1, 1 << prec)


def _floor_log2(x: Fraction) -> int:
    e = x.numerator.bit_length() - x.denominator.bit_length()
    while Fraction(2) ** e > x:
        e -= 1
    while Fraction(2) ** (e + 1) <= x:
        e += 1
    return e


def log2_up(x: Fraction) -> int:
    """An integer at least log2(x) (and below it + 2) for x > 0, from the
    bit lengths of its numerator and denominator."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError
    return x.numerator.bit_length() - x.denominator.bit_length() + 1


def bkp_once_reference(rows, err, mu, r0: int):
    """(rank, m_rows, basis_rows, C) of one BKP pass on the rational rows,
    every constant a `Fraction`; ValueError when err >= mu / (4C)."""
    from latnf import lattice_core
    Q = Fraction
    k = len(rows)
    width = len(rows[0])
    if width < 1 or k < 1:
        raise ValueError("need k >= 1 and n2 >= 1")
    if (Q(2) ** k
            < Q(k) * _sqrt_upper(Q(width), 32) / 2 + _sqrt_upper(Q(k), 32)):
        raise ValueError("too few generators for the BKP analysis")
    norm_a = _sqrt_upper(max(sum(Q(x) ** 2 for x in r) for r in rows), 32) + err
    c_const = Q(2) ** (4 * k) * (Q(r0) * norm_a / mu) ** (r0 + 1)
    if not err < mu / (4 * c_const):
        raise ValueError("approximation error too large for BKP")
    t_const = (Q(2) ** (3 * k) / mu) * (Q(r0) * norm_a / mu) ** r0
    scale = Q(2) ** (_floor_log2(t_const) + 1)
    lam = Q(2) ** k * (Q(r0) * norm_a / mu) ** r0
    vecs = []
    for i in range(k):
        tail = []
        for x in rows[i]:
            y = scale * Q(x)
            tail.append(Q((2 * y.numerator + y.denominator)
                          // (2 * y.denominator)))
        vecs.append([Q(2 * int(i == j)) for j in range(k)] + tail)
    red, _u = lattice_core.lll(vecs, Q(3, 4))
    threshold_sq = 4 * Q(2) ** (k - 1) * lam * lam
    m_rows = []
    for w in red:
        tail = w[k:]
        if sum(t * t for t in tail) > threshold_sq:
            m_rows.append([int(Q(x) / 2) for x in w[:k]])
    if len(m_rows) > r0:
        raise RuntimeError("BKP rank exceeds the supplied rank bound")
    basis_rows = [[sum(Q(m[i]) * Q(rows[i][j]) for i in range(k))
                   for j in range(width)] for m in m_rows]
    return len(m_rows), m_rows, basis_rows, c_const


def double_bkp_budget_reference(rows, err, mu, r0: int) -> bool:
    """Whether err < mu / (4 C0), C0 = 2^(8k) (r0 4^k ||A||^ / mu)^(2(r0+1))
    with ||A||^ the 2^-32 upper bracket of the largest row norm plus err,
    every constant a `Fraction`: the double BKP's hypothesis."""
    Q = Fraction
    k = len(rows)
    norm_a = _sqrt_upper(max(sum(Q(x) ** 2 for x in r) for r in rows), 32) + err
    c0 = Q(2) ** (8 * k) * (Q(r0) * Q(4) ** k * norm_a / mu) ** (2 * (r0 + 1))
    return err < mu / (4 * c0)


def bkp_twice_reference(rows, err, mu, r0: int):
    """(rank, m_rows, basis_rows) of the double BKP pass on `Fraction`
    rows; ValueError when err >= mu / (4 C0) or a pass refuses."""
    Q = Fraction
    k = len(rows)
    if not double_bkp_budget_reference(rows, err, mu, r0):
        raise ValueError("approximation error too large for double BKP")
    r, m1, b1, c_const = bkp_once_reference(rows, err, mu, r0)
    r2, m2, _, _ = bkp_once_reference(b1, c_const * err, mu, r)
    if r2 != r:
        raise RuntimeError("rank changed between BKP passes")
    n_rows = [[sum(m2[i][t] * m1[t][j] for t in range(r)) for j in range(k)]
              for i in range(r)]
    basis_rows = [[sum(Q(n_rows[i][t]) * Q(rows[t][j]) for t in range(k))
                   for j in range(len(rows[0]))] for i in range(r)]
    return r, n_rows, basis_rows


def bkp_once(gens):
    """Single Buchmann-Kessler-Pohst pass: basis + rank from approximate
    generators.  Requires err < mu / (4C).  The library's integer pass,
    which `bkp_twice` runs twice."""
    from latnf.approx_reduction import BkpResult, _bkp_pass, _int_gens
    rows, den, err, mu = _int_gens(gens)
    m_rows = _bkp_pass(rows, den, err, mu, gens.r0)
    return BkpResult(len(m_rows), m_rows, rows, den)


def _projected_block_reference(state, ints, den, j, count):
    """pi_j(b_j..b_{j+count-1}) of the basis ints / den as integer
    vectors over the gcd of their entries and d_j den."""
    us = state.projected(ints, j, count)
    g = math.gcd(state.d[j] * den, *(x for v in us for x in v))
    return [[x // g for x in v] for v in us]


def _rebuilt_state(vecs, m):
    from latnf.lattice_core import IntegralGSO, int_gram
    return IntegralGSO(int_gram([v[:m] for v in vecs]), vecs)


def bkz_prime_reference(cols, cfg, blocks=None):
    """(columns, transform, tours, hkz_calls) of BKZ', as the library ran
    it before its one-state loop: the integral GSO rebuilt from the Gram
    after every block change, and each block handed to `hkz_reduce` as
    its projected vectors.  Each block goes into `blocks`, when given, as
    (basis columns scaled to integers, j, projected vectors)."""
    from latnf import bkz
    from latnf.qlinalg import combine_cols, integral_cols
    n, b = len(cols), cfg.blocksize
    ints, den = integral_cols(cols)
    m = len(ints[0])
    state = _rebuilt_state([list(c) + [int(i == j) for i in range(n)]
                            for j, c in enumerate(ints)], m)
    norm_sq = Fraction(max(sum(x * x for x in c) for c in ints), den * den)
    log2_norm = max(1, norm_sq.numerator.bit_length()
                    - norm_sq.denominator.bit_length()) / 2
    detg = Fraction(state.d[n], den ** (2 * n))
    log2_det = (detg.numerator.bit_length()
                - detg.denominator.bit_length()) / (2 * n)
    log_q = max(2.0, (log2_norm - log2_det) * math.log(2))
    cap = cfg.max_tours
    if cap is None:
        base = n ** 3 / b ** 2 * (math.log(n) + math.log(
            max(2.0, math.log(max(2.0, log_q) + 2))))
        cap = max(64, math.ceil(float(cfg.tour_cap_constant) * base) * 8)
    ident = [[int(i == j) for j in range(b)] for i in range(b)]
    tours = calls = 0
    while True:
        changed = False
        for k in range(n - b + 1):
            basis = [v[:m] for v in state.vecs]
            block = _projected_block_reference(state, basis, den, k, b)
            if blocks is not None:
                blocks.append((basis, k, block))
            _, u = bkz.hkz_reduce(block)
            calls += 1
            if u != ident:
                changed = True
                state.vecs[k:k + b] = combine_cols(state.vecs[k:k + b], u)
                state = _rebuilt_state(state.vecs, m)
            shears = state.shears
            state.size_reduce()
            changed = changed or state.shears != shears
        tours += 1
        out = [[Fraction(x, den) for x in v[:m]] for v in state.vecs]
        if not changed or (tours >= cap and bkz.c1_bound_sq_ok(out, b)):
            return (out, [list(r) for r in zip(*(v[m:] for v in state.vecs))],
                    tours, calls)


def bkz_full_reference(cols, cfg, blocks=None):
    """(columns, transform, tours, hkz_calls) of the recursive BKZ' as the
    library ran it before its one-state loop (`bkz_prime_reference` on
    the basis, then on each projected tail, the GSO rebuilt after each).
    `tours` counts the first BKZ' alone, as the library's trace does."""
    from latnf import bkz
    from latnf.qlinalg import combine_cols, integral_cols
    n, b = len(cols), cfg.blocksize
    out, u, tours, calls = bkz_prime_reference(cols, cfg, blocks)
    ints, den = integral_cols(out)
    m = len(ints[0])
    state = _rebuilt_state([list(c) + [row[j] for row in u]
                            for j, c in enumerate(ints)], m)
    for j in range(1, n - b + 1):
        block = _projected_block_reference(
            state, [v[:m] for v in state.vecs], den, j, n - j)
        sub = bkz.BkzConfig(blocksize=b,
                            tour_cap_constant=cfg.tour_cap_constant,
                            max_tours=cfg.max_tours)
        _, u_sub, _, sub_calls = bkz_prime_reference(block, sub, blocks)
        state.vecs[j:] = combine_cols(state.vecs[j:], u_sub)
        state = _rebuilt_state(state.vecs, m)
        calls += sub_calls
    state.size_reduce()
    return ([[Fraction(x, den) for x in v[:m]] for v in state.vecs],
            [list(r) for r in zip(*(v[m:] for v in state.vecs))], tours, calls)


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _congruence(g, u):
    """U^T g U for integer matrices."""
    return _mat_mul([list(col) for col in zip(*u)], _mat_mul(g, u))


def hkz_int_reference(g):
    """(gram, U, d, lam) of HKZ on the integer Gram g, as the library ran
    it before its one-state loop: each improving step's unimodular U_j is
    embedded in the n x n identity, the Gram moves to U_j^T g U_j, U to U
    U_j, and the integral GSO is built again from the new Gram; the
    final size reduction's transform goes the same way."""
    from latnf.lattice_core import (IntegralGSO, _complete_unimodular,
                                    shortest_gram)
    n = len(g)
    u_total = [[int(i == j) for j in range(n)] for i in range(n)]
    state = IntegralGSO(g)
    for j in range(n - 1):
        sub = g if j == 0 else state.projected_gram(j, n - j)
        vec, lam2 = shortest_gram(sub)
        if lam2 >= sub[0][0]:
            continue
        ucol = _complete_unimodular(vec, n - j)
        u_step = [[int(r == c) for c in range(n)] for r in range(n)]
        for r in range(n - j):
            u_step[j + r][j:] = ucol[r]
        g = _congruence(g, u_step)
        u_total = _mat_mul(u_total, u_step)
        state = IntegralGSO(g)
    state.size_reduce()
    u_sr = state.transform()
    return _congruence(g, u_sr), _mat_mul(u_total, u_sr), state.d, state.lam


def covering_upper_sq(cols):
    """Babai's certified upper bound sum_i ||b*_i||^2 / 4 on the squared
    covering radius of the lattice of cols, over its HKZ-reduced basis
    (`lattice_core._hkz_int` on the Gram of the columns scaled to
    integers)."""
    from latnf.lattice_core import _hkz_int, int_gram
    from latnf.qlinalg import integral_cols
    ints, den = integral_cols(cols)
    d = _hkz_int(int_gram(ints)).d
    return (sum(Fraction(d[i + 1], d[i]) for i in range(len(ints)))
            / (4 * den * den))


def count_in_box(cols, r, shift=None, cov_upper_sq=None):
    """Exact |(L + t) cap rX| for the unit-infinity-ball X, plus the
    counting-lemma interval when certifiable.

    Returns dict with keys: count, interval (lo, hi floats) or None,
    certified (bool).
    """
    from latnf import qlinalg
    from latnf.lattice_core import DIM_CAP
    from latnf.qlinalg import mat_inv, transpose
    Q = Fraction
    m = len(cols[0])
    n = len(cols)
    r = Q(r)
    t = [Q(x) for x in (shift or [0] * m)]
    if r < 0:
        raise ValueError("negative radius")
    # per-axis bounds for v = B u:  v_i in [-r - t_i, r - t_i]
    lo = [-r - t[i] for i in range(m)]
    hi = [r - t[i] for i in range(m)]
    binv = mat_inv(transpose([list(c) for c in cols]))
    ranges = []
    for i in range(n):
        a, b = Q(0), Q(0)
        for j in range(m):
            c = binv[i][j]
            if c >= 0:
                a += c * lo[j]
                b += c * hi[j]
            else:
                a += c * hi[j]
                b += c * lo[j]
        ranges.append((math.ceil(a), math.floor(b)))
    count = 0
    u = [0] * n

    def ok(v):
        return all(lo[i] <= v[i] <= hi[i] for i in range(m))

    def rec(i):
        nonlocal count
        if i == n:
            v = [sum(cols[j][k] * u[j] for j in range(n)) for k in range(m)]
            if ok(v):
                count += 1
            return
        a, b = ranges[i]
        for z in range(a, b + 1):
            u[i] = z
            rec(i + 1)

    rec(0)
    interval = None
    certified = False
    if cov_upper_sq is None and n == m and n <= DIM_CAP:
        cov_upper_sq = covering_upper_sq(cols)
    if cov_upper_sq is not None and r > 0:
        c_val = math.sqrt(float(cov_upper_sq))
        if float(r) > 2 * c_val:
            covol = abs(float(qlinalg.mat_det(transpose([list(c) for c in cols]))))
            volx = 2.0 ** n
            mid = float(r) ** n * volx / covol
            lo_e = mid * math.exp(-2 * n * c_val / float(r))
            hi_e = mid * math.exp(2 * n * c_val / float(r))
            interval = (lo_e, hi_e)
            certified = True
    return {"count": count, "interval": interval, "certified": certified}


def abs_root_gt(poly, which_root: int, g, k: int) -> str:
    """GT when |w| > g^(1/k), LE otherwise, for the root w numbered
    `which_root` among the certified root balls of the squarefree integer
    polynomial sorted by (re, im): the library's |sigma|^2k decision
    `_abs2_pow_gt`, the core `cmp_element` runs, with c = g^2."""
    from latnf import nf_core

    def point_at(prec):
        work, balls = nf_core._root_mantissas(poly, prec)
        return nf_core.EmbeddingPoint(sorted(balls), work, 1 << work)

    return nf_core._abs2_pow_gt(point_at, which_root, lambda: poly, k,
                                Fraction(g) * Fraction(g))
