"""Exact lattice infrastructure: one integral LLL/GSO kernel and the
enumeration oracles for short vectors and successive minima.

A basis is a list of column vectors with rational entries.  All norms are
carried as squared rationals so every certified bound can be compared
exactly; enumeration works from the (rational) Gram matrix, so lattices
known only through an exact Gram (e.g. rings of integers under the
Minkowski metric) are supported too.

Every LLL, size reduction and Gram-Schmidt read-off below runs on
`IntegralGSO`, the fraction-free state of de Weger's integral LLL
(Cohen, *A Course in Computational Algebraic Number Theory*, Alg. 2.6.7):
rational inputs are scaled to integers by the lcm of their denominators
(`qlinalg.integral_cols`), and every decision is an integer comparison
that the scaling leaves unchanged, so no rational is ever normalised
inside a reduction.  `gso` orthogonalises nothing itself: its b*, mu and
potential are read off that state.  Ranks and independence tests go
through `qlinalg.pivots`.

HKZ (`_hkz_int`) runs on one state, moved in place by `IntegralGSO.apply`
after each improving step; the enumeration report walks that state for
the successive minima, the only thing `latnf reduce`, the benchmark and
`det_verify` read of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .dyadic import Q
from .qlinalg import integral_cols, pivots


def gso(cols):
    """Gram-Schmidt data: (bstar columns, mu lower-triangular, P(B)^2).

    mu[j][i] for i < j is the usual coefficient; P(B)^2 is the squared
    potential prod ||b*_j||^(2(n+1-j)), an exact rational.  All three are
    read off `IntegralGSO` on the columns scaled by den: b*_j = d_j
    pi_j(b_j) / (d_j den), mu_ji = lam_ji / d_{i+1}, and P(B)^2 = prod_i
    d_i / den^(n(n+1)) (the norms d_{j+1}/d_j telescope).
    """
    ints, den = integral_cols(cols)
    n = len(ints)
    state = IntegralGSO(int_gram(ints))
    d, lam = state.d, state.lam
    bstar = [[Q(x, d[j] * den) for x in state.projected(ints, j, 1)[0]]
             for j in range(n)]
    mu = [[Q(lam[j][i], d[i + 1]) if i < j else Q(0) for i in range(n)]
          for j in range(n)]
    return bstar, mu, Q(prod(d[1:]), den ** (n * (n + 1)))


def int_gram(cols):
    """Gram matrix of integer columns, by symmetry."""
    n = len(cols)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        ci = cols[i]
        for j in range(i + 1):
            g[i][j] = g[j][i] = sum(map(int.__mul__, ci, cols[j]))
    return g


class IntegralGSO:
    """Fraction-free Gram-Schmidt state of vectors b_0..b_{n-1}, given by
    their integer Gram matrix:

    - d[i] = det Gram(b_0..b_{i-1}), so d[0] = 1 and ||b*_i||^2 =
      d[i+1] / d[i];
    - lam[k][j] = mu_kj d[j+1] for j < k, an integer;
    - vecs[j], a tracked vector per b_j that undergoes the same column
      operations as the basis: by default column j of the unimodular U
      with current basis = input basis * U.

    `shears` counts the operations that changed the basis.  Every test is
    an integer comparison invariant under scaling the Gram matrix by a
    positive constant, so a rational basis reduces exactly like its
    integer multiple.
    """

    __slots__ = ("n", "d", "lam", "vecs", "shears")

    def __init__(self, gram, vecs=None):
        n = self.n = len(gram)
        self.d = [1] * (n + 1)
        self.lam = []
        for i in range(n):
            row = self.coefficients(gram[i][:i + 1])
            if row[i] <= 0:
                raise ValueError("rank-deficient basis")
            self.d[i + 1], row[i] = row[i], 0
            self.lam.append(row + [0] * (n - i - 1))
        self.vecs = (vecs if vecs is not None else
                     [[int(i == j) for i in range(n)] for j in range(n)])
        self.shears = 0

    def coefficients(self, dots):
        """[lam_j(v) for j < len(dots)], lam_j(v) = d[j+1] mu_j(v), of an
        integer vector v with <v, b_j> = dots[j] (Cohen, Alg. 2.6.7's
        recurrence, exact divisions).  On b_i's Gram row up to the
        diagonal, the rows before b_i known, the last entry is d[i+1]."""
        d, lam, out = self.d, self.lam, []
        for j, val in enumerate(dots):
            lj = lam[j] if j < len(lam) else out
            for k in range(j):
                val = (d[k + 1] * val - out[k] * lj[k]) // d[k]
            out.append(val)
        return out

    def reduce(self, k, l):
        """b_k -= q b_l with q the nearest integer to mu_kl, ties up."""
        dl = self.d[l + 1]
        q = (2 * self.lam[k][l] + dl) // (2 * dl)
        if q:
            self.shear(k, l, q)

    def shear(self, k, l, q):
        """b_k -= q b_l for l < k: lam[k] moves, d does not."""
        lk, ll = self.lam[k], self.lam[l]
        lk[l] -= q * self.d[l + 1]
        for i in range(l):
            lk[i] -= q * ll[i]
        vecs = self.vecs
        vecs[k] = [a - q * b for a, b in zip(vecs[k], vecs[l])]
        self.shears += 1

    def negate(self, k):
        """b_k -> -b_k: the signs of lam's row and column k flip."""
        lam = self.lam
        lk = lam[k]
        for i in range(k):
            lk[i] = -lk[i]
        for i in range(k + 1, self.n):
            lam[i][k] = -lam[i][k]
        self.vecs[k] = [-a for a in self.vecs[k]]
        self.shears += 1

    def swap(self, k):
        """Exchange b_{k-1} and b_k, updating d and lam (Cohen's SWAPI)."""
        d, lam, vecs = self.d, self.lam, self.vecs
        vecs[k], vecs[k - 1] = vecs[k - 1], vecs[k]
        lk, lk1 = lam[k], lam[k - 1]
        for j in range(k - 1):
            lk[j], lk1[j] = lk1[j], lk[j]
        lv = lk[k - 1]
        dk, dk1 = d[k], d[k + 1]
        bnew = (d[k - 1] * dk1 + lv * lv) // dk
        for i in range(k + 1, self.n):
            li = lam[i]
            t = li[k]
            li[k] = (dk1 * li[k - 1] - lv * t) // dk
            li[k - 1] = (bnew * t + lv * li[k]) // dk1
        d[k] = bnew
        self.shears += 1

    def lll(self, delta=Q(3, 4)):
        """LLL with parameter delta (Cohen, Alg. 2.6.3 order): b_k is
        size-reduced against b_{k-1}, then tested, then reduced against
        the rest.  Reducing against all earlier vectors before the test
        gives the same basis: the test reads only mu_{k,k-1}, which the
        other reductions leave alone, and a fully size-reduced vector is
        unique in its coset of the lattice of the vectors before it."""
        num, den = delta.numerator, delta.denominator
        d, lam, reduce = self.d, self.lam, self.reduce
        k = 1
        while k < self.n:
            reduce(k, k - 1)
            lv = lam[k][k - 1]
            if den * (d[k + 1] * d[k - 1] + lv * lv) >= num * d[k] * d[k]:
                for l in range(k - 2, -1, -1):
                    reduce(k, l)
                k += 1
            else:
                self.swap(k)
                k = max(k - 1, 1)

    def size_reduce(self):
        for k in range(1, self.n):
            for l in range(k - 1, -1, -1):
                self.reduce(k, l)

    def apply(self, j, u):
        """Replace b_j..b_{j+r-1} by (b_j..b_{j+r-1}) U, for U an r x r
        unimodular integer matrix, by adjacent swaps, shears of a vector
        by an earlier one and negations.  The integral GSO of a basis is
        unique, so d and lam end as a rebuild's would.

        With target = current * M, M = U at first, a column operation E
        on the basis turns M into E^-1 M, a row operation; the operations
        are chosen to bring M to the identity.  Euclid's algorithm on
        adjacent rows, column by column, makes M upper triangular; the
        signs of its diagonal go next, then the entries above it, from
        the last column back."""
        m = [list(row) for row in u]
        r = len(m)
        for c in range(r):
            for i in range(r - 1, c, -1):
                while m[i][c]:
                    a, b = m[i - 1][c], m[i][c]
                    q = (2 * a + b) // (2 * b)    # nearest to a / b
                    if q:
                        # row i-1 -= q row i  <->  b_{j+i} += q b_{j+i-1}
                        m[i - 1] = [x - q * y for x, y in zip(m[i - 1], m[i])]
                        self.shear(j + i, j + i - 1, -q)
                    m[i - 1], m[i] = m[i], m[i - 1]
                    self.swap(j + i)
        for c in range(r):
            if m[c][c] < 0:
                m[c] = [-x for x in m[c]]
                self.negate(j + c)
        # row c is e_c once the columns after c are clear
        for c in range(r - 1, 0, -1):
            for l in range(c):
                if m[l][c]:
                    self.shear(j + c, j + l, -m[l][c])

    def transform(self):
        """U, row-major, when the tracked vectors are its columns."""
        return [list(r) for r in zip(*self.vecs)]

    def copy(self):
        out = object.__new__(IntegralGSO)
        out.n, out.shears, out.d = self.n, self.shears, list(self.d)
        out.lam = [list(r) for r in self.lam]
        out.vecs = [list(v) for v in self.vecs]
        return out

    def projected_gram(self, j, count):
        """d[j] times the Gram of pi_j(b_j..b_{j+count-1}), an integer
        matrix, from d and lam alone.  For s <= t, v_k = d[k] <pi_k(b_s),
        pi_k(b_t)> starts at v_s = lam[t][s] (d[s+1] when s = t) and
        runs down to k = j by v_k = (d[k] v_{k+1} + lam[s][k] lam[t][k])
        / d[k+1], the recurrence of `coefficients` inverted (exact
        divisions)."""
        d, lam = self.d, self.lam
        out = [[0] * count for _ in range(count)]
        for a in range(count):
            lt = lam[j + a]
            for b in range(a + 1):
                s = j + b
                ls = lam[s]
                val = lt[s] if a != b else d[s + 1]
                for k in range(s - 1, j - 1, -1):
                    val = (d[k] * val + ls[k] * lt[k]) // d[k + 1]
                out[a][b] = out[b][a] = val
        return out

    def projected(self, cols, j, count):
        """d[j] pi_j(b_t) for t = j..j+count-1, integer vectors, from the
        fraction-free recurrence u_t^(k+1) = (d[k+1] u_t^(k) - lam[t][k]
        u_k^(k)) / d[k] with u_t^(k) = d[k] pi_k(b_t) (exact divisions);
        cols are the integer columns of the basis."""
        d, lam = self.d, self.lam
        us = [list(c) for c in cols[:j + count]]
        for k in range(j):
            dk, dk1, uk = d[k], d[k + 1], us[k]
            for t in range(k + 1, j + count):
                lt = lam[t][k]
                us[t] = [(dk1 * a - lt * b) // dk for a, b in zip(us[t], uk)]
        return us[j:]


def _reduce_cols(cols, run):
    """Run a kernel method on rational columns; returns (Fraction
    columns, U) with output = input * U."""
    ints, den = integral_cols(cols)
    n = len(ints)
    # tracked vectors e_j + b_j: U and the basis move together
    state = IntegralGSO(int_gram(ints), [[int(i == j) for i in range(n)] + c
                                         for j, c in enumerate(ints)])
    run(state)
    return ([[Q(x, den) for x in v[n:]] for v in state.vecs],
            [list(r) for r in zip(*(v[:n] for v in state.vecs))])


def size_reduce(cols):
    """Size reduction of b_j against b_{j-1}..b_0 for j = 1..n-1;
    returns (new_cols, U) with new = old * U (columns)."""
    return _reduce_cols(cols, IntegralGSO.size_reduce)


def lll(cols, delta=Q(3, 4)):
    """LLL-reduce columns (any rational entries); returns (reduced
    columns, U) with reduced = input * U."""
    delta = Q(delta)
    if not Q(1, 4) < delta < 1:
        raise ValueError("delta must lie in (1/4, 1)")
    return _reduce_cols(cols, lambda state: state.lll(delta))


# A level k prunes in floats while B_k = (d_{k+1}/d_k) / R lies in
# (2^-FLOAT_EXP, 2^FLOAT_EXP); outside it the level compares exactly.
FLOAT_EXP = 960


class _Radius:
    """The enumeration radius R = num / den > 0 and, per level k, the
    weight B_k = d_{k+1} / (d_k R) as a correctly rounded float, or None
    where B_k leaves (2^-FLOAT_EXP, 2^FLOAT_EXP).  `set` only ever lowers
    R, and rewrites `weights` in place so every level sees the new B_k."""

    __slots__ = ("d", "num", "den", "weights")

    def __init__(self, d, num, den):
        self.d = d
        self.weights = [None] * (len(d) - 1)
        self.set(num, den)

    def set(self, num, den):
        self.num, self.den = num, den
        d, weights = self.d, self.weights
        for k in range(len(weights)):
            a, b = d[k + 1] * den, d[k] * num
            if abs(a.bit_length() - b.bit_length()) < FLOAT_EXP:
                weights[k] = a / b
            else:
                weights[k] = None


def _fincke_pohst(g, state, radius, leaf, floor=0):
    """Depth-first Fincke-Pohst over `state`, the IntegralGSO of the
    integer Gram g: calls leaf(coeffs, x^T g x) on every nonzero x that
    the bound `radius` does not prune, x_{n-1} first.  The walk at each
    level goes from the integer nearest the centre outwards, up, then
    down.  Below level `floor` it enters only when some x_k with k >=
    floor is nonzero.

    With t_k = d_{k+1} x_k + sum_{j>k} lam_jk x_j, the squared norm of
    the projection of x orthogonal to b_0..b_{i-1} is P_i = sum_{k>=i}
    t_k^2 / (d_k d_{k+1}), and a node at level i is pruned only when
    P_i > R is proved:

    - in floats, on p = sum_{k>=i} y_k^2 B_k with y_k = t_k / d_{k+1}
      and B_k = (d_{k+1}/d_k) / R, both correctly rounded int/int
      quotients (relative error <= u = 2^-53).  A term fl(fl(y y) B)
      carries at most 5 such factors and the running sum of nonnegative
      terms at most n - 1 more, so p <= (1+u)^(n+4) P_i / R, plus the
      underflow: a subnormal result errs by at most 2^-1075, magnified
      at most by B_k < 2^960, under 2^-113 per term.  If P_i <= R, then
      p < 1 + (n+4) 2^-52 = `limit` (n < 2^40); so p > limit proves
      P_i > R.  No float overflows: a surviving p is <= limit, and |y_k|
      <= sqrt(limit / B_k) + 1 < 2^481 when B_k > 2^-960.
    - exactly, on a level whose B_k is None: e = d_i P_i is the integer
      det Gram(b_0..b_{i-1}, x), from x^T g x and the sums lam_{x,k} =
      sum_j lam_jk x_j by the fraction-free recurrence of
      `IntegralGSO`; the level goes on with p = e / (d_i R) rounded.

    A radius that falls during the walk (`_Radius.set`) leaves every
    carried p a lower bound, since P_i / R grows as R falls.

    The exact norm x^T g x travels with the path: q, the norm of the
    coefficients above level i, and h_j = (g x)_j for j <= i, so a node
    costs O(i) products of a Gram entry or lam entry by a small z.
    """
    n = state.n
    d = state.d
    lrows = [state.lam[i][:i] for i in range(n)]
    grows = [g[i][:i] for i in range(n)]
    weights = radius.weights
    limit = 1 + (n + 4) * 2.0 ** -52
    coeffs = [0] * n

    def level(i, p, q, h, sums, nonzero):
        if i < floor and not nonzero:
            return          # x_floor.. are all 0: the subtree is skipped
        di, s, wi, li, gi = d[i + 1], sums[i], weights[i], lrows[i], grows[i]
        h2, gii = 2 * h[i], g[i][i]
        base = (di - 2 * s) // (2 * di)     # nearest integer to -s/d_{i+1}
        for z, step in ((base, 1), (base - 1, -1)):
            # Ends: z walks away from base, so |t| = |d_{i+1} z + s| never
            # falls and grows past every bound; P_i grows with t^2.  A
            # float level stops once p passes `limit`, which it must: p
            # is within a factor (1+u)^(n+4) of P_i / R and cannot
            # overflow first.  An exact level stops on e > d_i R.
            while True:
                if wi is not None:
                    y = (di * z + s) / di
                    pz = p + y * y * wi
                    if pz > limit:
                        break
                    qz = q + z * (h2 + z * gii)
                    sz = None
                else:
                    qz = q + z * (h2 + z * gii)
                    sz = [a + z * b for a, b in zip(sums, li)]
                    e = qz
                    for k in range(i):
                        e = (d[k + 1] * e - sz[k] * sz[k]) // d[k]
                    if e * radius.den > radius.num * d[i]:
                        break
                    pz = e * radius.den / (d[i] * radius.num)
                coeffs[i] = z
                nz = nonzero or (z != 0 and i >= floor)
                if i == 0:
                    if nz:
                        leaf(coeffs, qz)
                elif z:
                    level(i - 1, pz, qz, [a + z * b for a, b in zip(h, gi)],
                          sz or [a + z * b for a, b in zip(sums, li)], nz)
                else:
                    level(i - 1, pz, qz, h, sums, nz)
                z += step
        coeffs[i] = 0

    level(n - 1, 0.0, 0, [0] * n, [0] * n, False)


def _short_vectors(g, state, radius2, den=1):
    """enumerate_short_gram on the integer Gram g over den, with state
    its IntegralGSO."""
    radius2 = Q(radius2) * den
    num, rden = radius2.numerator, radius2.denominator
    if num <= 0:
        return []
    out = []

    def leaf(coeffs, nrm):
        if nrm * rden <= num:
            out.append((tuple(coeffs), nrm))

    _fincke_pohst(g, state, _Radius(state.d, num, rden), leaf)
    # deduplicate +-x: keep representative with last nonzero coeff > 0
    seen = {}
    for c, nrm in out:
        firstnz = next(x for x in reversed(c) if x != 0)
        rep = c if firstnz > 0 else tuple(-x for x in c)
        if rep not in seen:
            seen[rep] = nrm
    return [(c, Q(nrm, den))
            for c, nrm in sorted(seen.items(), key=lambda t: (t[1], t[0]))]


def enumerate_short_gram(g, radius2: Fraction):
    """All nonzero (coeff, norm2) with norm2 <= radius2, one per +-pair,
    sorted by norm2 (then by coefficients).  Fincke-Pohst over the
    integral GSO of g (see `_fincke_pohst`): inner nodes are pruned on a
    rigorous float lower bound of the projected norm, or exactly where
    a GSO ratio leaves the float range, and the exact integer norm
    x^T g x decides every vector."""
    gi, den = integral_cols(g)
    try:
        state = IntegralGSO(gi)
    except ValueError:
        raise ValueError("Gram matrix not positive definite") from None
    return _short_vectors(gi, state, radius2, den)


@dataclass
class EnumerationReport:
    minima_sq: list          # exact squared successive minima


DIM_CAP = 12


def _hkz_int(g):
    """HKZ-reduce an integer Gram matrix on one IntegralGSO, which it
    returns: the state tracks U (`transform`), and the reduced Gram U^T g
    U is its `projected_gram(0, n)`.

    Step j searches the projection orthogonal to b_0..b_{j-1} for a
    shortest vector, on the projected Gram read off d and lam (scaled by
    d_j, which moves no LLL decision and no enumeration order; at step 0
    on a copy of the state itself, since d_0 = 1).  Unless b*_j attains
    that minimum already, the vector's coefficients are completed to a
    unimodular U_j and the state moves by `apply(j, U_j)`.  The integral
    GSO of a basis is unique, so d and lam end as a rebuild's would."""
    n = len(g)
    state = IntegralGSO(g)
    for j in range(n - 1):
        vec, lam2 = (shortest_gram(state.projected_gram(j, n - j)) if j
                     else _shortest(state.copy()))
        if lam2 < state.d[j + 1]:          # d_j ||b*_j||^2 = d_{j+1}
            state.apply(j, _complete_unimodular(vec, n - j))
    state.size_reduce()
    return state


def _complete_unimodular(vec, n):
    """Unimodular n x n integer matrix whose first column is vec
    (vec primitive)."""
    if gcd(*vec) != 1:
        raise ValueError("coefficient vector not primitive")
    # row operations V with V vec = e_1, by extended gcds; U = V^{-1}
    # collects the inverse column operations
    v = list(vec)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(1, n):
        a, b = v[0], v[i]
        if b == 0:
            continue
        g_, x, y = _xgcd(a, b)
        # rows (0, i) of V <- [[x, y], [-b/g, a/g]] (rows 0, i);
        # columns (0, i) of U <- (cols 0, i) [[a/g, -y], [b/g, x]]
        p, q = a // g_, b // g_
        for row in u:
            row[0], row[i] = p * row[0] + q * row[i], x * row[i] - y * row[0]
        v[0], v[i] = g_, 0
    if v[0] < 0:
        for row in u:
            row[0] = -row[0]
    return u


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def shortest_gram(g):
    """(coefficient vector, norm2) of a shortest nonzero vector."""
    gi, den = integral_cols(g)
    vec, nrm = _shortest(IntegralGSO(gi))
    return vec, nrm / den


def _shortest(state):
    """shortest_gram on state, the IntegralGSO of an integer Gram with the
    identity tracked, which it LLL-reduces in place."""
    state.lll()
    u = state.transform()
    g2 = state.projected_gram(0, state.n)      # d_0 = 1: the reduced Gram
    best_c, best_n = _short_vectors(g2, state, min(g2[i][i] for i in
                                                   range(state.n)))[0]
    # map back through u
    return [sum(map(int.__mul__, row, best_c)) for row in u], best_n


def enumerate_minima_gram(g) -> EnumerationReport:
    """Exact successive minima of a rational Gram matrix (dimension <=
    DIM_CAP), by per-index branch-and-bound over its HKZ-reduced GSO."""
    n = len(g)
    if n > DIM_CAP:
        raise ValueError(f"enumeration oracle capped at dimension {DIM_CAP}")
    gi, den = integral_cols(g)
    state = _hkz_int(gi)
    gh = state.projected_gram(0, n)
    minima, chosen = [], []

    def independent(vec):
        return len(pivots(chosen + [vec])) > len(chosen)

    for _k in range(n):
        # levels fully inside the witness span may be skipped as a whole
        t_min = 0
        for t in range(1, len(chosen) + 1):
            basis_t = [[int(i == j) for j in range(n)] for i in range(t)]
            if len(pivots(chosen + basis_t)) == len(chosen):
                t_min = t
            else:
                break
        best_norm, best_vec = None, None
        for j in range(t_min, n):
            cand = [int(i == j) for i in range(n)]
            if independent(cand):
                nrm = gh[j][j]
                if best_norm is None or nrm < best_norm:
                    best_norm, best_vec = nrm, cand
        if best_vec is None:
            raise RuntimeError("no independent basis vector found")
        best = [best_norm, best_vec]
        radius = _Radius(state.d, best_norm, 1)

        def leaf(coeffs, nrm):
            # the first strictly shorter independent vector in walk order
            # wins; the radius falls to it
            if nrm < best[0] and independent(list(coeffs)):
                best[0], best[1] = nrm, list(coeffs)
                radius.set(nrm, 1)

        _fincke_pohst(gh, state, radius, leaf, floor=t_min)
        minima.append(Q(best[0], den))
        chosen.append(best[1])
    return EnumerationReport(minima)


def enumerate_minima(cols) -> EnumerationReport:
    ints, den = integral_cols(cols)
    g = int_gram(ints)
    if den != 1:
        g = [[Q(x, den * den) for x in row] for row in g]
    return enumerate_minima_gram(g)
