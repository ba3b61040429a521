"""Exact linear algebra over Q and Z: determinants, HNF, SNF, kernels.

Matrices are lists of rows; a lattice basis is a list of column vectors
and gets transposed at the boundary where convenient.

Elimination over Q happens in one place, `_eliminate`: fraction-free
Bareiss elimination on rows scaled to integers by `integral_cols`, under
`mat_det`, `mat_inv`, `inverse_scaled`, `solve` and `pivots` (the rank
and the independent rows).  Exact results are unique, so they equal
`Fraction` elimination's.

Elimination over Z happens in one place too, `_hermite`: the row
Hermite normal form by Euclid on row subtractions, carrying columns past
the ones it reduces through the same row operations.  `hnf_with_transform`
carries the identity to get U (and with it `int_kernel`, `kernel_rows` and
`express_int_combination`), `hnf_upper` runs it on reversed columns for
ideals, `lattice_core` asks it whether vectors generate Z^n, and
`smith_normal_form` runs its gcd steps on one row or column at a time.
The HNF and the invariant factors are unique, and U comes from the same
row operations, so every result equals that of the separate integer
eliminations the kernel replaced.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

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


def _hermite(rows, width):
    """Row Hermite normal form of the first `width` columns of integer
    rows, carrying any columns past `width` through the same row
    operations.

    Per column, the first remaining row with a nonzero entry is the
    pivot row (zero columns are skipped); Euclid by row subtraction
    clears the column below it, the pivot is made positive and the
    entries above it are reduced into [0, pivot).  Returns the rows; the
    nonzero ones (restricted to the first `width` columns) come first."""
    a = [list(row) for row in rows]
    m = len(a)
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, m) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, m):
            # Ends: each step leaves a remainder of smaller absolute
            # value in one of the two rows.
            while a[i][col]:
                if abs(a[i][col]) <= abs(a[r][col]):
                    q = a[r][col] // a[i][col]
                    a[r] = [x - q * y for x, y in zip(a[r], a[i])]
                    a[r], a[i] = a[i], a[r]
                else:
                    q = a[i][col] // a[r][col]
                    a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        if a[r][col] < 0:
            a[r] = [-x for x in a[r]]
        for i in range(r):
            q = a[i][col] // a[r][col]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
    return a


def hnf_upper(cols: list[list[int]]) -> list[list[int]]:
    """Column-style upper-triangular HNF of the lattice spanned by the
    given integer columns (full rank n assumed).

    Returns n columns h_1..h_n with h_j[i] = 0 for i > j, h_j[j] > 0 and
    0 <= h_j[i] < h_i[i] for i < j.  This is the canonical representation
    used for ideals: the row HNF of the columns with their coordinates
    reversed, read back in reverse.
    """
    n = len(cols[0])
    h = _hermite([c[::-1] for c in cols], n)
    if len(h) < n or not all(h[k][k] for k in range(n)):
        raise ValueError("rank-deficient generator set for HNF")
    return [row[::-1] for row in reversed(h[:n])]


def hnf_with_transform(rows: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style HNF: returns (H, U) with U unimodular, U*rows = H,
    H in lower echelon form processed column by column (pivot cols first)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = _hermite([list(row) + e for row, e in zip(rows, int_identity(m))], n)
    return [row[:n] for row in a], [row[n:] for row in a]


def kernel_rows(h, u):
    """The rows of U whose rows of H are zero, for (H, U) from
    `hnf_with_transform`: a Z-basis of the left kernel."""
    return [ui for hi, ui in zip(h, u) if not any(hi)]


def int_kernel(rows: list[list[int]]) -> list[list[int]]:
    """Z-basis of {x : x^T rows = 0} (left kernel of the row matrix)."""
    return kernel_rows(*hnf_with_transform(rows))


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
    """Invariant factors d_1 | d_2 | ... of an integer matrix (the nonzero
    ones, one per unit of rank).

    Diagonalises in the shape of Cohen, GTM 138, Alg. 2.4.14: the Hermite
    kernel on the first column puts its gcd p in the corner and clears
    the column; when p divides the rest of the first row, column
    subtractions clear the row and p is a diagonal entry, else the kernel
    on the first row (as a column of the transpose) leaves a smaller
    corner.  Pairs of diagonal entries then become their gcd and lcm."""
    a = mat
    diag = []
    # Ends: every pass either takes one row and one column off `a` or
    # strictly lowers the positive corner entry.
    while a and a[0]:
        cols = [c for c in transpose(a) if any(c)]
        if not cols:
            break
        a = _hermite(transpose(cols), 1)
        p = a[0][0]
        if any(x % p for x in a[0][1:]):
            a = transpose(_hermite(transpose(a), 1))
            continue
        diag.append(p)
        a = [row[1:] for row in a[1:]]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag


def gram_matrix(vectors) -> list[list[Fraction]]:
    return [[dot(u, v) for v in vectors] for u in vectors]
