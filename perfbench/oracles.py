"""Correctness oracles that use none of latnf's code paths.

Class numbers come from counting reduced binary quadratic forms,
regulators of real quadratic fields from the continued-fraction solution
of Pell's equation, lattice equality from an integer Hermite normal form
written here, and element norms from a Sylvester resultant.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, isqrt


def class_number_imaginary(disc: int) -> int:
    """h(D) for a negative fundamental discriminant: the number of reduced
    primitive forms (a, b, c), b^2 - 4ac = D, |b| <= a <= c, b >= 0 when
    |b| = a or a = c."""
    if disc >= 0:
        raise ValueError("discriminant must be negative")
    h = 0
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + 1, a + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if gcd(gcd(a, abs(b)), c) == 1:
                h += 1
        a += 1
    return h


def regulator_real_quadratic(disc: int) -> float:
    """log of the fundamental unit (x + y sqrt(D)) / 2 of the order of
    discriminant D > 0, from the least solution of x^2 - D y^2 = +-4."""
    if disc <= 0:
        raise ValueError("discriminant must be positive")
    y = 1
    while True:
        for sign in (-4, 4):
            x2 = disc * y * y + sign
            if x2 > 0:
                x = isqrt(x2)
                if x * x == x2:
                    return math.log((x + y * math.sqrt(disc)) / 2)
        y += 1


def hnf_rows(vectors):
    """Row Hermite normal form (positive pivots, entries above each pivot
    reduced into [0, pivot)) of the integer lattice the vectors span;
    zero rows dropped."""
    rows = [list(map(int, v)) for v in vectors if any(v)]
    out = []
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rows and col < ncols:
        live = [r for r in rows if r[col]]
        dead = [r for r in rows if not r[col]]
        if not live:
            col += 1
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            piv = live[0]
            nxt = []
            for r in live[1:]:
                q = r[col] // piv[col]
                r = [x - q * y for x, y in zip(r, piv)]
                (nxt if r[col] else dead).append(r)
            live = [piv] + nxt
        piv = live[0]
        if piv[col] < 0:
            piv = [-x for x in piv]
        for i, r in enumerate(out):
            q = r[col] // piv[col]
            out[i] = [x - q * y for x, y in zip(r, piv)]
        out.append(piv)
        rows = [r for r in dead if any(r)]
        col += 1
    return out


def integer_vectors(vectors):
    """The vectors as ints; raises ValueError on a non-integral entry."""
    out = []
    for v in vectors:
        row = []
        for x in v:
            x = Fraction(x)
            if x.denominator != 1:
                raise ValueError("non-integral lattice vector")
            row.append(int(x))
        out.append(row)
    return out


def is_lll_reduced(vectors, delta=Fraction(3, 4)) -> bool:
    """Size-reduced (|mu| <= 1/2) and Lovasz condition, exactly."""
    vecs = [[Fraction(x) for x in v] for v in vectors]
    bstar, bnorm, mu = [], [], []
    for i, v in enumerate(vecs):
        w = list(v)
        row = []
        for j in range(i):
            m = sum(a * b for a, b in zip(v, bstar[j])) / bnorm[j]
            row.append(m)
            w = [a - m * b for a, b in zip(w, bstar[j])]
        bstar.append(w)
        bnorm.append(sum(a * a for a in w))
        mu.append(row)
        if bnorm[i] == 0:
            return False
    for i in range(1, len(vecs)):
        if any(abs(m) > Fraction(1, 2) for m in mu[i]):
            return False
        if bnorm[i] < (delta - mu[i][i - 1] ** 2) * bnorm[i - 1]:
            return False
    return True


def _det(mat):
    m = [[Fraction(x) for x in row] for row in mat]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def norm_power_basis(poly, coeffs) -> Fraction:
    """N(g(theta)) = Res(f, g) for monic f (coefficients low to high) and
    g given by its power-basis coefficients."""
    g = [Fraction(c) for c in coeffs]
    while len(g) > 1 and g[-1] == 0:
        g.pop()
    n, m = len(poly) - 1, len(g) - 1
    if m == 0:
        return g[0] ** n
    f_hi = list(reversed(poly))
    g_hi = list(reversed(g))
    size = n + m
    syl = []
    for i in range(m):
        syl.append([0] * i + f_hi + [0] * (size - n - 1 - i))
    for i in range(n):
        syl.append([0] * i + g_hi + [0] * (size - m - 1 - i))
    return _det(syl)


def in_ideal(denom: int, hnf_cols, coords) -> bool:
    """coords (over the integral basis) lie in (1/denom) * span(hnf_cols);
    hnf_cols is upper triangular as columns."""
    n = len(coords)
    target = [Fraction(c) * denom for c in coords]
    if any(t.denominator != 1 for t in target):
        return False
    # solve sum_j x_j col_j = target by back substitution (col j has its
    # last nonzero entry in row j)
    x = [Fraction(0)] * n
    for j in range(n - 1, -1, -1):
        rest = target[j] - sum(x[k] * hnf_cols[k][j] for k in range(j + 1, n))
        x[j] = rest / hnf_cols[j][j]
        if x[j].denominator != 1:
            return False
    return True
