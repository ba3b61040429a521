"""Exact linear algebra over Q and Z: determinants, HNF, SNF, kernels.

Matrices are lists of rows; a lattice basis is a list of column vectors
and gets transposed at the boundary where convenient.

Elimination over Q happens in one place, `_eliminate`: fraction-free
Bareiss elimination on rows scaled to integers by `integral_cols`, under
`mat_det`, `mat_inv`, `inverse_scaled`, `solve` and `pivots` (the rank
and the independent rows).  Exact results are unique, so they equal
`Fraction` elimination's.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

Q = Fraction


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def int_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(row) for row in zip(*m)]


def mat_mul(a, b):
    bt = transpose(b)
    return [[dot(row, col) for col in bt] for row in a]


def mat_vec(a, v):
    return [dot(row, v) for row in a]


def integral_cols(cols):
    """(integer columns, den): the columns times den, the lcm of the
    denominators of their entries."""
    if all(type(x) is int for c in cols for x in c):
        return [list(c) for c in cols], 1
    cols = [[x if type(x) is int else Q(x) for x in c] for c in cols]
    den = lcm(*{x.denominator for c in cols for x in c if type(x) is not int})
    return [[x * den if type(x) is int else x.numerator * (den // x.denominator)
             for x in c] for c in cols], den


def _eliminate(rows, width):
    """Fraction-free elimination (Bareiss; Cohen, GTM 138, Alg. 2.2.6) on
    the first `width` columns of the rows, each scaled by `integral_cols`.

    Per column, the first remaining row with a nonzero entry p is the pivot
    row (zero columns are skipped), and each row r below it becomes
    (p r - r[c] pivot_row) / last, exactly, last the previous pivot.  Rows
    carrying columns past `width` to solve for are eliminated above the
    pivot too (Gauss-Jordan); those columns end as last times the
    solution.  Entries left of the current column are not read again, so
    not updated.  Returns (rows, product of the row scales, pivot columns,
    sign of the row swaps, last pivot)."""
    scaled = [integral_cols([row]) for row in rows]
    a = [ints for (ints,), _ in scaled]
    den = prod(d for _, d in scaled)
    jordan = any(len(row) > width for row in a)
    cols, sign, last = [], 1, 1
    for c in range(width):
        k = len(cols)
        r = next((i for i in range(k, len(a)) if a[i][c]), None)
        if r is None:
            continue
        if r != k:
            a[k], a[r] = a[r], a[k]
            sign = -sign
        prow = a[k][c:]
        p = prow[0]
        for i in range(0 if jordan else k + 1, len(a)):
            if i == k:
                continue
            row = a[i]
            f = row[c]
            if f:
                row[c:] = [(p * x - f * y) // last
                           for x, y in zip(row[c:], prow)]
            elif p != last:
                row[c:] = [p * x // last for x in row[c:]]
        cols.append(c)
        last = p
    return a, den, cols, sign, last


def mat_det(m):
    """Determinant, exact."""
    n = len(m)
    _, den, cols, sign, last = _eliminate(m, n)
    return Q(sign * last, den) if len(cols) == n else Q(0)


def _solve_scaled(m, rhs_cols):
    """(Y, d): the integer matrix Y and the integer d > 0 with m X = the
    columns rhs_cols for X = Y / d (m square); ZeroDivisionError when m
    is singular."""
    n = len(m)
    a, _, cols, _, last = _eliminate(
        [list(row) + [c[i] for c in rhs_cols] for i, row in enumerate(m)], n)
    if len(cols) < n:
        raise ZeroDivisionError("singular matrix")
    s = -1 if last < 0 else 1
    return [[s * x for x in row[n:]] for row in a], s * last


def inverse_scaled(m):
    """(Y, d): m^-1 = Y / d with Y an integer matrix and d > 0, both read
    off the Bareiss elimination without building a `Fraction`."""
    n = len(m)
    return _solve_scaled(m, [[int(i == j) for i in range(n)] for j in range(n)])


def mat_inv(m):
    y, d = inverse_scaled(m)
    return [[Q(x, d) for x in row] for row in y]


def solve(m, rhs):
    """Solve m x = rhs exactly (m square nonsingular)."""
    y, d = _solve_scaled(m, [rhs])
    return [Q(row[0], d) for row in y]


def pivots(rows):
    """Indices of the rows that are independent of the rows before them;
    the rank of the rows is the length."""
    return _eliminate(transpose(rows), len(rows))[2]


def charpoly(m):
    """Characteristic polynomial coefficients [c0..cn] of m, monic,
    via Faddeev-LeVerrier (exact)."""
    n = len(m)
    coeffs = [Q(0)] * (n + 1)
    coeffs[n] = Q(1)
    mk = [[Q(x) for x in row] for row in m]
    ak = [row[:] for row in mk]
    for k in range(1, n + 1):
        ck = -sum(ak[i][i] for i in range(n)) / k
        coeffs[n - k] = ck
        if k < n:
            for i in range(n):
                ak[i][i] += ck
            ak = mat_mul(mk, ak)
    return coeffs


# ---------------------------------------------------------------------------
# Integer matrices: HNF / SNF / kernels


def hnf_upper(cols: list[list[int]]) -> list[list[int]]:
    """Column-style upper-triangular HNF of the lattice spanned by the
    given integer columns (full rank n assumed).

    Returns n columns h_1..h_n with h_j[i] = 0 for i > j, h_j[j] > 0 and
    0 <= h_j[i] < h_i[i] for i < j.  This is the canonical representation
    used for ideals.
    """
    n = len(cols[0])
    work = [list(c) for c in cols]
    basis: list[list[int]] = []
    # eliminate from the bottom row upward
    for row in range(n - 1, -1, -1):
        # gcd-combine all columns with nonzero entry at `row`
        live = [c for c in work if any(c[i] for i in range(row + 1))]
        carrier = None
        rest = []
        for c in live:
            if c[row] == 0:
                rest.append(c)
                continue
            if carrier is None:
                carrier = c
                continue
            # extended gcd step on (carrier, c) at position row
            a, b = carrier[row], c[row]
            g, x, y = _xgcd(a, b)
            new_car = [x * p + y * q for p, q in zip(carrier, c)]
            new_oth = [(-b // g) * p + (a // g) * q for p, q in zip(carrier, c)]
            carrier, c2 = new_car, new_oth
            rest.append(c2)
        if carrier is None:
            raise ValueError("rank-deficient generator set for HNF")
        if carrier[row] < 0:
            carrier = [-x for x in carrier]
        basis.append(carrier)
        work = rest
    basis.reverse()  # basis[j] has pivot at row j
    # reduce off-diagonal entries: 0 <= h_j[i] < h_i[i] for i < j
    for j in range(n):
        for i in range(j - 1, -1, -1):
            piv = basis[i][i]
            q = basis[j][i] // piv
            if q:
                basis[j] = [a - q * b for a, b in zip(basis[j], basis[i])]
    return basis


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def hnf_with_transform(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style HNF: returns (H, U) with U unimodular, U*rows = H,
    H in lower echelon form processed column by column (pivot cols first)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) for r in rows]
    u = int_identity(m)
    r = 0
    for col in range(n):
        piv = None
        for i in range(r, m):
            if a[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, m):
            while a[i][col] != 0:
                q = a[r][col] // a[i][col] if a[i][col] != 0 else 0
                if abs(a[i][col]) <= abs(a[r][col]):
                    q = a[r][col] // a[i][col]
                    a[r] = [x - q * y for x, y in zip(a[r], a[i])]
                    u[r] = [x - q * y for x, y in zip(u[r], u[i])]
                    a[r], a[i] = a[i], a[r]
                    u[r], u[i] = u[i], u[r]
                else:
                    q = a[i][col] // a[r][col]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        if a[r][col] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = a[i][col] // a[r][col]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
    return a, u


def int_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Z-basis of {x : x^T rows = 0} (left kernel of the row matrix)."""
    h, u = hnf_with_transform(rows)
    ker = [u[i] for i in range(len(rows)) if all(v == 0 for v in h[i])]
    return ker


def express_int_combination(gen_rows: list[list[int]], target: list[int]):
    """Integer coefficients c with sum c_i * gen_rows[i] = target, or None."""
    h, u = hnf_with_transform([list(r) for r in gen_rows])
    live = [(i, h[i]) for i in range(len(h)) if any(h[i])]
    resid = list(target)
    coeffs_h = [0] * len(h)
    for i, row in live:
        piv_col = next(j for j, v in enumerate(row) if v)
        q, r = divmod(resid[piv_col], row[piv_col])
        if r:
            return None
        coeffs_h[i] = q
        resid = [a - q * b for a, b in zip(resid, row)]
    if any(resid):
        return None
    out = [0] * len(gen_rows)
    for i, c in enumerate(coeffs_h):
        if c:
            for j in range(len(gen_rows)):
                out[j] += c * u[i][j]
    return out


def smith_normal_form(mat: list[list[int]]) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix."""
    a = [list(r) for r in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    factors = []
    top = 0
    while top < min(m, n):
        # find nonzero pivot
        piv = None
        for i in range(top, m):
            for j in range(top, n):
                if a[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        i0, j0 = piv
        a[top], a[i0] = a[i0], a[top]
        for r in a:
            r[top], r[j0] = r[j0], r[top]
        # Ends: a pass that sets `changed` swaps in a nonzero remainder as
        # the pivot, so the positive integer |a[top][top]| falls each time.
        while True:
            # clear column
            changed = False
            for i in range(top + 1, m):
                if a[i][top]:
                    q = a[i][top] // a[top][top]
                    a[i] = [x - q * y for x, y in zip(a[i], a[top])]
                    if a[i][top]:
                        a[top], a[i] = a[i], a[top]
                        changed = True
            # clear row
            for j in range(top + 1, n):
                if a[top][j]:
                    q = a[top][j] // a[top][top]
                    for i in range(m):
                        a[i][j] -= q * a[i][top]
                    if a[top][j]:
                        for i in range(m):
                            a[i][top], a[i][j] = a[i][j], a[i][top]
                        changed = True
            if not changed:
                break
        # ensure divisibility of the rest
        p = a[top][top]
        fix = False
        for i in range(top + 1, m):
            for j in range(top + 1, n):
                if a[i][j] % p:
                    a[top] = [x + y for x, y in zip(a[top], a[i])]
                    fix = True
                    break
            if fix:
                break
        if fix:
            continue
        factors.append(abs(p))
        top += 1
    return factors


def gram_matrix(vectors) -> list[list[Fraction]]:
    return [[dot(u, v) for v in vectors] for u in vectors]
