"""Univariate polynomial utilities: exact arithmetic over Q, Sturm
sequences, resultants, and factorization over prime fields.

Polynomials are coefficient lists [c0, c1, ..., cn] with cn != 0
(except for the zero polynomial []).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

from .intmath import RANDOM_TRIES, CapExceeded

Q = Fraction


def trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def degree(p) -> int:
    return len(p) - 1


def poly_add(p, q):
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                 for i in range(n)])


def poly_neg(p):
    return [-c for c in p]


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def poly_divmod(p, q):
    """Division over Q; q nonzero."""
    p = [Q(c) for c in p]
    q = [Q(c) for c in q]
    if not q:
        raise ZeroDivisionError
    quo = [Q(0)] * max(0, len(p) - len(q) + 1)
    rem = p[:]
    dq, lead = degree(q), q[-1]
    while len(rem) >= len(q) and trim(rem):
        rem = trim(rem)
        if len(rem) < len(q):
            break
        k = len(rem) - len(q)
        c = rem[-1] / lead
        quo[k] = c
        for i in range(len(q)):
            rem[k + i] -= c * q[i]
        rem = rem[:-1]
    return trim(quo), trim(rem)


def poly_eval(p, x):
    acc = Q(0) if not isinstance(x, float) else 0.0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p):
    return trim([i * c for i, c in enumerate(p)][1:])


def resultant(p, q):
    """Resultant via the Euclidean remainder sequence (exact over Q)."""
    p = trim([Q(c) for c in p])
    q = trim([Q(c) for c in q])
    if not p or not q:
        return Q(0)
    res = Q(1)
    # Ends: q becomes the remainder p mod q, so deg q falls every pass
    # until degree 0 or a zero remainder returns.
    while True:
        dp, dq = degree(p), degree(q)
        if dq == 0:
            return res * q[0] ** dp
        _, r = poly_divmod(p, q)
        if not r:
            return Q(0)
        dr = degree(r)
        res *= (Q(-1) ** (dp * dq)) * q[-1] ** (dp - dr)
        p, q = q, r


def discriminant(p):
    """disc(p) for p with rational coefficients."""
    n = degree(p)
    dp = derivative(p)
    r = resultant(p, dp)
    sign = Q(-1) ** (n * (n - 1) // 2)
    return sign * r / p[-1]


def sturm_sequence(p):
    seq = [trim([Q(c) for c in p]), derivative([Q(c) for c in p])]
    while seq[-1]:
        r = poly_divmod(seq[-2], seq[-1])[1]
        if not r:
            break
        seq.append(poly_neg(r))
    return [s for s in seq if s]


def _sign_changes(seq, x):
    signs = []
    for s in seq:
        v = poly_eval(s, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p) -> int:
    """Number of distinct real roots of the squarefree p."""
    seq = sturm_sequence(p)
    b = cauchy_bound(p)
    return _sign_changes(seq, -b - 1) - _sign_changes(seq, b + 1)


def cauchy_bound(p) -> Fraction:
    """All complex roots have |z| <= 1 + max|c_i/c_n|."""
    p = trim(p)
    lead = abs(Q(p[-1]))
    return 1 + max((abs(Q(c)) for c in p[:-1]), default=Q(0)) / lead


# ---------------------------------------------------------------------------
# Polynomials over F_p


def pmod(p, m):
    return trim([c % m for c in p])


def poly_mulmod(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % m
    return trim(out)


def poly_divmod_p(a, b, m):
    a = [c % m for c in trim(a)]
    b = trim([c % m for c in b])
    if not b:
        raise ZeroDivisionError
    inv = pow(b[-1], -1, m)
    quo = [0] * max(0, len(a) - len(b) + 1)
    rem = a[:]
    while len(trim(rem)) >= len(b):
        rem = trim(rem)
        k = len(rem) - len(b)
        c = rem[-1] * inv % m
        quo[k] = c
        for i in range(len(b)):
            rem[k + i] = (rem[k + i] - c * b[i]) % m
        rem = rem[:-1]
    return trim([c % m for c in quo]), trim([c % m for c in rem])


def poly_gcd_p(a, b, m):
    a, b = pmod(a, m), pmod(b, m)
    while b:
        a, b = b, poly_divmod_p(a, b, m)[1]
    if a:
        inv = pow(a[-1], -1, m)
        a = [c * inv % m for c in a]
    return a


def poly_powmod(a, e, mod_poly, m):
    result = [1]
    base = poly_divmod_p(a, mod_poly, m)[1]
    while e:
        if e & 1:
            result = poly_divmod_p(poly_mulmod(result, base, m), mod_poly, m)[1]
        base = poly_divmod_p(poly_mulmod(base, base, m), mod_poly, m)[1]
        e >>= 1
    return result


def factor_mod_p(f, p) -> list[tuple[list[int], int]]:
    """Full factorization of f over F_p: list of (monic irreducible, mult)."""
    rng = random.Random(20240201)
    f = pmod(f, p)
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    out: dict[tuple, int] = {}

    def record(g, mult):
        key = tuple(g)
        out[key] = out.get(key, 0) + mult

    # squarefree decomposition (char p aware, desk-scale degrees)
    def squarefree_parts(g, mult):
        if degree(g) == 0:
            return
        dg = trim([c % p for c in derivative(g)])
        if not dg:
            # g = h(x^p); take p-th root of coefficients
            h = [pow(g[i], 1, p) for i in range(0, len(g), p)]
            squarefree_parts(h, mult * p)
            return
        w = poly_gcd_p(g, dg, p)
        sqfree = poly_divmod_p(g, w, p)[0]
        i = 1
        while degree(sqfree) > 0:
            y = poly_gcd_p(sqfree, w, p)
            fac = poly_divmod_p(sqfree, y, p)[0]
            if degree(fac) > 0:
                for irr in _factor_squarefree(fac, p, rng):
                    record(irr, mult * i)
            sqfree = y
            if degree(w) > 0:
                w = poly_divmod_p(w, y, p)[0]
            i += 1
        if degree(w) > 0:
            squarefree_parts(w, mult)

    squarefree_parts(f, 1)
    return sorted([(list(k), v) for k, v in out.items()],
                  key=lambda t: (len(t[0]), t[0]))


def _factor_squarefree(f, p, rng) -> list[list[int]]:
    """Distinct-degree + Cantor-Zassenhaus split of squarefree monic f."""
    out = []
    # distinct degree
    h = [0, 1]
    rem = f
    d = 1
    groups = []
    while degree(rem) >= 2 * d:
        h = poly_powmod(h, p, rem, p)
        g = poly_gcd_p(poly_add(h, [(-0) % p, p - 1]), rem, p)
        if degree(g) > 0:
            groups.append((g, d))
            rem = poly_divmod_p(rem, g, p)[0]
            h = poly_divmod_p(h, rem, p)[1]
        d += 1
    if degree(rem) > 0:
        groups.append((rem, degree(rem)))
    # equal degree splitting
    for g, d in groups:
        stack = [g]
        while stack:
            cur = stack.pop()
            if degree(cur) == d:
                out.append(cur)
                continue
            for _ in range(RANDOM_TRIES):
                r = [rng.randrange(p) for _ in range(degree(cur))] + [1]
                if p == 2:
                    t = r
                    acc = t
                    for _ in range(d - 1):
                        t = poly_powmod(t, 2, cur, p)
                        acc = poly_divmod_p(poly_add(acc, t), cur, p)[1]
                    w = poly_gcd_p(acc, cur, p)
                else:
                    e = (p ** d - 1) // 2
                    t = poly_powmod(r, e, cur, p)
                    w = poly_gcd_p(poly_add(t, [p - 1]), cur, p)
                if 0 < degree(w) < degree(cur):
                    stack.append(w)
                    stack.append(poly_divmod_p(cur, w, p)[0])
                    break
            else:
                raise CapExceeded(f"equal-degree split failed {RANDOM_TRIES} "
                                  "times")
    return out


def primitive_z(f) -> list[int]:
    """The primitive integer multiple of a rational polynomial: f times
    the lcm of its denominators, divided by the (positive) content."""
    den = lcm(*(Q(c).denominator for c in f))
    ints = [int(c * den) for c in f]
    cont = gcd(*ints)
    return [c // cont for c in ints]
