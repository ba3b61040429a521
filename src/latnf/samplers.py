"""Discrete Gaussian sampling with certified statistical distance, and
perfectly uniform sampling in (shifted lattice) x (box with ray
constraints): the box sampler that the ideal walk builds on.

Exactness discipline: all membership decisions happen through exact
rational comparisons (k-th powers of the box radius stay rational), so
conditioned on success the box samplers are *perfectly* uniform; only the
Gaussian samplers carry a statistical-distance budget.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import intmath, lattice_core, qlinalg
from .approx_reduction import (_lambda1_lower_sq, approx_bkz_ideal,
                               minkowski_columns_x)
from .dyadic import Q, round_half_up, round_ratio, sqrt_bracket
from .ideal_arith import HnfIdeal, hnf_mul
from .nf_core import (GT, CapExceeded, FieldElement, NumberField,
                      cmp_element, precision_ladder)
from .qlinalg import (combine, dot, integral_cols, inverse_scaled, solve,
                      transpose)

RETRY_CAP = math.ceil(math.e ** 3 * 40)   # draws per rejection loop, then error
RADIUS_CONSTANT = 48
RADIUS_C_HALF = 24                        # the C/2 of the basis-shortness check


# ---------------------------------------------------------------------------
# Discrete Gaussians


def sample_z_gaussian(s, c, delta, rng) -> int:
    """Sample within statistical distance delta of the discrete Gaussian
    on Z with width s and center c; support hard-truncated to
    [c - s*t, c + s*t] with t = sqrt(log(2/delta) + 2).

    Small windows use exact-weight inversion; very wide ones round a
    continuous Gaussian (total variation O(t/s), far below delta there).
    """
    if float(s) <= 0 or not 0 < delta < 1:
        raise ValueError("need s > 0 and delta in (0,1)")
    t = math.sqrt(math.log(2.0 / delta) + 2.0)
    return _z_gaussian(s, c, t, delta, rng)


_WEIGHT_WINDOW_CAP = 4_000_000


def _z_gaussian(s, c, t: float, delta: float, rng) -> int:
    """Windowed integer Gaussian: |output - c| <= s*t always.

    The regime is chosen on the exact width: a width past the float range
    (Klein's levels on a fine grid reach it) counts as infinite there, so
    it takes the continuous branch, which runs on the exact s and c."""
    sf = math.inf if s > sys.float_info.max else float(s)
    span = 2 * t * sf
    if span <= 4096 or (span <= _WEIGHT_WINDOW_CAP
                        and 2 * math.pi * t / sf > delta / 4):
        cf = float(c)
        lo = math.ceil(cf - sf * t)
        hi = math.floor(cf + sf * t)
        if lo > hi:
            return round(cf)
        weights = [math.exp(-math.pi * (z - cf) ** 2 / (sf * sf))
                   for z in range(lo, hi + 1)]
        total = sum(weights)
        u = rng.random() * total
        acc = 0.0
        for z, w in zip(range(lo, hi + 1), weights):
            acc += w
            if u <= acc:
                return z
        return hi
    if 2 * math.pi * t / sf > delta / 4:
        raise ValueError("no admissible integer-Gaussian regime "
                         f"(s={sf:.3g}, delta={delta:.3g})")
    # rounded continuous Gaussian, exact big-int arithmetic on the center
    s_q = Q(s) if not isinstance(s, float) else Q(sf).limit_denominator(1 << 40)
    c_q = Q(c) if not isinstance(c, float) else Q(c).limit_denominator(1 << 40)
    sigma_cont = s_q * Q(math.floor(2 ** 40 / math.sqrt(2 * math.pi)), 2 ** 40)
    bound = s_q * Q(math.ceil(t * 2 ** 20), 2 ** 20)
    for _ in range(RETRY_CAP):
        g = rng.gauss(0.0, 1.0)
        offset = sigma_cont * Q(g).limit_denominator(1 << 48)
        z = round_half_up(c_q + offset)
        if abs(Q(z) - c_q) <= bound:
            return z
    raise CapExceeded(f"integer Gaussian rejected {RETRY_CAP} draws")


def klein_min_width(basis_cols, eps_g: float) -> float:
    """Smallest admissible s: sqrt((log(1/eps)+2 log n+3)/pi) max||b_i||,
    the norms read off the columns scaled to integers."""
    ints, den = integral_cols(basis_cols)
    n = len(ints)
    maxn = math.sqrt(max(sum(x * x for x in c) for c in ints) / (den * den))
    return math.sqrt((math.log(1 / eps_g) + 2 * math.log(n) + 3) / math.pi) * maxn


def klein_sample(basis_cols, s, center, eps_g, rng):
    """GPV/Klein sampler over the lattice spanned by the rational columns.

    Returns (coeffs, vector).  Every output satisfies the hard bound
    ||v - c|| <= s sqrt(n log(2 n^2 / eps_g)) by per-coordinate windowing.

    The columns and the center are scaled to integers B_i and C by one
    den, and `IntegralGSO` of the B_i gives d_i and lam_ji.  Level i
    draws around c_i = (lam_i(C) - sum_{j>i} z_j lam_ji) / d_{i+1} with
    width s_i, s_i^2 = s^2 d_i den^2 / d_{i+1}: the rationals
    <c, b*_i> / ||b*_i||^2 of the residual center and s^2 / ||b*_i||^2
    of the rational Gram-Schmidt basis, as integers over one
    denominator each.
    """
    n = len(basis_cols)
    s = Q(s)
    if float(s) < klein_min_width(basis_cols, eps_g) * (1 - 1e-12):
        raise ValueError("Gaussian width below the sampler's precondition")
    (*cols, c_int), den = integral_cols(list(basis_cols) + [center])
    state = lattice_core.IntegralGSO(lattice_core.int_gram(cols))
    d, lam = state.d, state.lam
    lam_c = state.coefficients([sum(map(int.__mul__, c_int, b)) for b in cols])
    s_num, s_den = s.numerator ** 2 * den * den, s.denominator ** 2
    delta = eps_g / (2 * n)
    t = math.sqrt(math.log(n / delta))
    coeffs = [0] * n
    for i in range(n - 1, -1, -1):
        c_num = lam_c[i] - sum(coeffs[j] * lam[j][i] for j in range(i + 1, n))
        lo_s, hi_s = sqrt_bracket(Q(s_num * d[i], s_den * d[i + 1]), 64)
        coeffs[i] = _z_gaussian((lo_s + hi_s) / 2, Q(c_num, d[i + 1]), t,
                                delta, rng)
    return coeffs, [Q(v, den) for v in combine(coeffs, cols)]


# ---------------------------------------------------------------------------
# Perfectly uniform sampling in box x lattice


def _cmp_powers(num: int, den: int, k: int, p: Fraction, e: int) -> int:
    """sign((num / den)^k - p^e) for integers num >= 0, den > 0 and a
    rational p >= 0: from bit lengths when they decide (a^j has between
    j (bl(a) - 1) + 1 and j bl(a) bits), else from the exact products."""
    pn, pd = p.numerator, p.denominator
    if num and pn:
        bn, bd, bpn, bpd = (num.bit_length(), den.bit_length(),
                            pn.bit_length(), pd.bit_length())
        if k * bn + e * bpd <= k * (bd - 1) + e * (bpn - 1):
            return -1
        if k * bd + e * bpn <= k * (bn - 1) + e * (bpd - 1):
            return 1
    lhs, rhs = num ** k * pd ** e, pn ** e * den ** k
    return (lhs > rhs) - (lhs < rhs)


class RadiusExpr:
    """A positive real of the form (rational)^(1/k): supports exact
    comparison with rationals, scaling by rationals, and brackets."""

    __slots__ = ("pow_value", "k")

    def __init__(self, pow_value: Fraction, k: int):
        self.pow_value = Q(pow_value)
        self.k = int(k)
        if self.pow_value < 0:
            raise ValueError("negative radius power")

    def scale(self, c) -> "RadiusExpr":
        c = Q(c)
        if c < 0:
            raise ValueError
        return RadiusExpr(self.pow_value * c ** self.k, self.k)

    def cmp_value(self, num: int, den: int = 1) -> int:
        """sign(v - r) for v = num / den, integers, den > 0."""
        if num < 0:
            return -1
        return _cmp_powers(num, den, self.k, self.pow_value, 1)

    def cmp_value_sq(self, num: int, den: int = 1) -> int:
        """sign(sqrt(v_sq) - r) for v_sq = num / den >= 0, integers."""
        return _cmp_powers(num, den, self.k, self.pow_value, 2)

    def bracket(self, prec: int = 64):
        return intmath.rational_root_bracket(self.pow_value, self.k, prec)

    def floor_times(self, c: Fraction) -> int:
        """floor(c * r) for rational c >= 0."""
        c = Q(c)
        return intmath.rational_root_floor(self.pow_value * c ** self.k, self.k)

    def __float__(self):
        lo, hi = self.bracket(53)
        return float((lo + hi) / 2)

    def __repr__(self):
        return f"RadiusExpr({float(self):.6g} = ({self.pow_value})^(1/{self.k}))"


def walk_radius(field: NumberField, modulus_norm: Fraction, blocksize: int,
                omega, constant: int = RADIUS_CONSTANT) -> RadiusExpr:
    """RADIUS(m) = const * omega * b^(2n/b) * n^(7/2) * |D|^(3/(2n)) * N(m)^(1/n),
    held exactly as a (2 b n)-th root of a rational; the constant is at
    least 1."""
    if constant < 1:
        raise ValueError(f"radius constant {constant} is below 1")
    n = field.n
    b = blocksize
    k = 2 * b * n
    val = (Q(constant * Q(omega)) ** k
           * Q(b) ** (4 * n * n)
           * Q(n) ** (7 * b * n)
           * Q(abs(field.disc_field)) ** (3 * b)
           * Q(modulus_norm) ** (2 * b))
    return RadiusExpr(val, k)


@dataclass
class GridBox:
    """Centered product of intervals and discs, RadiusExpr sizes."""
    intervals: list   # (coord, RadiusExpr halfwidth)
    discs: list       # ((coord_i, coord_j), RadiusExpr radius)

    def dim(self):
        return len(self.intervals) + 2 * len(self.discs)

    def scale(self, c) -> "GridBox":
        return GridBox([(k, hw.scale(c)) for k, hw in self.intervals],
                       [(k, rad.scale(c)) for k, rad in self.discs])


def _uniform_grid_point(box: GridBox, kmax, grid_n: int, rng):
    """N times an exactly uniform point of box intersected with
    (1/N)Z^dim, an integer vector; kmax lists floor(N r) for the box's
    half-widths r, then for its disc radii r."""
    out = [0] * box.dim()
    for (coord, _), k in zip(box.intervals, kmax):
        out[coord] = rng.randint(-k, k)
    for ((ci, cj), rad), k in zip(box.discs, kmax[len(box.intervals):]):
        for _ in range(RETRY_CAP):
            k1 = rng.randint(-k, k)
            k2 = rng.randint(-k, k)
            if rad.cmp_value_sq(k1 * k1 + k2 * k2, grid_n * grid_n) <= 0:
                out[ci], out[cj] = k1, k2
                break
        else:
            raise CapExceeded(f"disc draw rejected {RETRY_CAP} points")
    return out


def _box_member(box: GridBox, point, grid_n: int) -> bool:
    """Whether point / N lies in box, for an integer vector point."""
    for coord, hw in box.intervals:
        if hw.cmp_value(abs(point[coord]), grid_n) > 0:
            return False
    for (ci, cj), rad in box.discs:
        v_sq = point[ci] ** 2 + point[cj] ** 2
        if rad.cmp_value_sq(v_sq, grid_n * grid_n) > 0:
            return False
    return True


def prefilter_boxes(box: GridBox, eps, grid_n: int):
    """(draw, kmax, member) for `perfect_box_lattice`: the (1+4eps) draw
    box, floor(N r) for its half-widths and radii, and the (1+3eps)
    pre-filter box."""
    eps = Q(eps)
    draw, member = box.scale(1 + 4 * eps), box.scale(1 + 3 * eps)
    kmax = [r.floor_times(grid_n) for _, r in draw.intervals + draw.discs]
    return draw, kmax, member


def perfect_box_lattice(c_cols, c_inv, grid_n: int, w0, boxes,
                        membership_oracle, rng):
    """One attempt of the shifted-lattice perfect sampler.

    c_cols are the integer columns of N C~, C~ an approximation of the
    true basis B in (1/N)Z^n, and w0 = round(C~^-1 t~) for the shift t~.
    Draws u in the draw box of `boxes` (from `prefilter_boxes`) until the
    pre-filter box accepts, then makes a single call to the exact
    membership oracle on the integer vector v + w0 and returns the
    oracle's payload (or None on failure).  c_inv = (Y, det) with
    (N C~)^-1 = Y / det, as `qlinalg.inverse_scaled` gives it for the
    rows of N C~; C~^-1 u = Y (N u) / det, so every step runs on
    integers.
    """
    y, det = c_inv
    draw, kmax, member = boxes
    for _ in range(200):
        u = _uniform_grid_point(draw, kmax, grid_n, rng)
        v = [round_ratio(dot(row, u), det) for row in y]
        if _box_member(member, combine(v, c_cols), grid_n):
            cand = [vi + wi for vi, wi in zip(v, w0)]
            return membership_oracle(cand)
    return None


# ---------------------------------------------------------------------------
# Algorithm: uniform sampling in x(b cap tau K^{m,1}) cap r B_inf


@dataclass
class BoxSampleResult:
    beta: FieldElement          # the algebraic part: x*beta lies in the box
    draws: int


@dataclass
class SamplerConfig:
    radius_constant: int = RADIUS_CONSTANT


def _real_coord_layout(field: NumberField):
    """Coordinate layout of the real Minkowski space: list of
    ('real', place) or ('cplx', place, (i, j))."""
    out = []
    idx = 0
    for i in range(field.n_real):
        out.append(("real", i, idx))
        idx += 1
    for k in range(field.n_cplx):
        out.append(("cplx", field.n_real + k, (idx, idx + 1)))
        idx += 2
    return out


def instantiate_grid_n(field: NumberField, omega, constant: int) -> int:
    """The grid denominator N: n^(n/2+2) |D|^2 (2n)^n e^(2n^2/e)
    * const*omega*e^(2n/e)*n^3, rounded up with certified e-powers."""
    n = field.n
    d = abs(field.disc_field)
    e_up1 = math.exp(2 * n * n / math.e) * (1 + 1e-9) + 1
    e_up2 = math.exp(2 * n / math.e) * (1 + 1e-9) + 1
    val = (n ** (n // 2 + 2) * n * d * d * (2 * n) ** n * e_up1
           * constant * float(omega) * e_up2 * n ** 3)
    return int(math.ceil(val))


def sample_in_box(field: NumberField, m0: HnfIdeal | None, m_inf: list[int],
                  b_ideal: HnfIdeal, tau: FieldElement, blocksize: int, x,
                  omega, rng, cfg: SamplerConfig | None = None
                  ) -> BoxSampleResult:
    """Uniform sampling in x(b cap tau K^{m,1}) cap r B_inf, r =
    RADIUS(x b m0).  Returns the algebraic element beta with beta in
    b cap tau K^{m,1} and x*beta inside the box.  Each rung embeds the
    reduced basis and the shift, if any, in one call.
    """
    cfg = cfg or SamplerConfig()
    n = field.n
    ok_ring = HnfIdeal.ring_of_integers(field)
    m0 = m0 or ok_ring
    bm = hnf_mul(b_ideal, m0) if m0 != ok_ring else b_ideal
    x = [Q(v) for v in x]
    norm_total = b_ideal.norm() * m0.norm()
    for v in x:
        norm_total *= v
    radius = walk_radius(field, norm_total, blocksize, omega,
                         cfg.radius_constant)

    # (1) reduced basis of x * b * m0
    red = approx_bkz_ideal(x, bm, blocksize)

    # (2) the shift tau beta = tau mod m0, in b, reduced modulo the basis;
    # none when m0 = O_K
    shifts = [] if m0 == ok_ring else [_babai_reduce(
        field, _crt_shift(field, b_ideal, m0, tau), red.elements)]

    # (3) box: per-place halfwidths; sign-constrained real places get
    # halfwidth r/2 and center sign(tau)*r/2; complex pairs become discs
    # of radius sqrt(2) r in the isometric coordinates
    layout = _real_coord_layout(field)
    intervals, discs = [], []
    shift_centers = {}
    tau_signs = {}
    for kind, place, pos in layout:
        if kind == "real":
            if place in m_inf:
                sgn = field.sign_at_real_place(tau, place)
                if sgn == 0:
                    raise ValueError("tau vanishes at a constrained place")
                tau_signs[place] = sgn
                intervals.append((pos, radius.scale(Q(1, 2))))
                shift_centers[pos] = sgn
            else:
                intervals.append((pos, radius))
        else:
            i, j = pos
            discs.append(((i, j), _radius_times_sqrt2(radius)))
    box = GridBox(intervals, discs)

    grid_n = instantiate_grid_n(field, omega, cfg.radius_constant)
    # the instantiated N assumes a unit-scale lattice; rescale by the
    # certified lambda_1 lower bound when the ideal lattice is small
    lam1_sq = _lambda1_lower_sq(field, x, bm)
    if lam1_sq < 1:
        shift = (lam1_sq.denominator.bit_length()
                 - lam1_sq.numerator.bit_length()) // 2 + 2
        grid_n <<= max(0, shift)
    boxes = prefilter_boxes(box, Q(1, 6 * n), grid_n)

    # the shift, if any, then the reduced basis
    points = [e.coords for e in shifts + red.elements]

    def oracle(coeff_vec):
        beta0 = field.element(combine([1] * len(shifts) + coeff_vec, points))
        if _in_tau_box(field, beta0, x, radius, m_inf, tau_signs):
            return beta0
        return None

    for prec in precision_ladder(max(red.precision_bits,
                                     2 * grid_n.bit_length() + 96),
                                 "box sampler failed to certify its "
                                 "precision"):
        cols = minkowski_columns_x(field, red.elements + shifts, x, prec)
        _radius_test(cols.abs_upper()[:n], n, radius,
                     cfg.radius_constant * Q(omega))
        if cols.rad_exceeds([4 * grid_n] * n + [8 * grid_n] * len(shifts)):
            continue
        r_lo, r_hi = radius.bracket(prec)
        if r_hi - r_lo > Q(1, 4 * grid_n):
            continue
        # N C~ and N t~: the midpoints times N rounded to integers
        c_cols = [[round_ratio(m * grid_n, dm) for m in mids]
                  for mids, dm in zip(cols.mids[:n], cols.mid_dens)]
        # t~ is minus the shift, plus sign(tau) r/2 at constrained places
        half_r = (r_lo + r_hi) / 4 * grid_n
        offsets = {pos: sgn * half_r for pos, sgn in shift_centers.items()}
        gm, gd = (cols.mids[n], cols.mid_dens[n]) if shifts else ([0] * n, 1)
        t_tilde = []
        for pos, m in enumerate(gm):
            c = offsets.get(pos)
            cn, cd = (0, 1) if c is None else (c.numerator, c.denominator)
            t_tilde.append(round_ratio(cn * gd - m * grid_n * cd, gd * cd))
        c_inv = inverse_scaled(transpose(c_cols))
        # w0 = round(C~^-1 t~), the same for every draw of this rung
        w0 = [round_ratio(dot(row, t_tilde), c_inv[1]) for row in c_inv[0]]
        for draws in range(1, RETRY_CAP + 1):
            got = perfect_box_lattice(c_cols, c_inv, grid_n, w0, boxes,
                                      oracle, rng)
            if got is not None:
                return BoxSampleResult(got, draws)
        raise CapExceeded(f"box sampler failed after {RETRY_CAP} draws")


def _radius_test(col_uppers, n: int, radius: RadiusExpr, c_omega) -> None:
    """The radiusboundofD check: 24 n^2 ||x alpha_i|| <= RADIUS on the
    upper ends (`MinkowskiColumns.abs_upper`) of the reduced basis.

    With the radius constant C, C omega >= 48 = 2 * 24 makes it a proven
    bound: `approx_bkz_ideal` gives ||x alpha_i|| <= 2n b^(2n/b)
    lambda_n(x b m0), and `_lambda_n_upper_sq` lambda_n <= sqrt(n)
    |D|^(3/(2n)) N(x b m0)^(1/n), so 24 n^2 ||x alpha_i|| <= 48 b^(2n/b)
    n^(7/2) |D|^(3/(2n)) N(x b m0)^(1/n) <= RADIUS.  A failure there is a
    broken reduction (RuntimeError, exit 3), unless a column's norm lies
    within its ball radius of the bound.  Below 48 the bound is not
    proven, and the constant is the caller's choice: ValueError (exit 2).
    """
    for ups, den in col_uppers:
        # compare squares times (24 n^2)^2
        norm_sq_up = sum(v * v for v in ups) * (RADIUS_C_HALF * n * n) ** 2
        if radius.cmp_value_sq(norm_sq_up, den * den) > 0:
            if c_omega >= 2 * RADIUS_C_HALF:
                raise RuntimeError("reduced basis longer than the proven "
                                   "bound 2n b^(2n/b) lambda_n (radiusboundofD "
                                   "check failed)")
            raise ValueError("reduced basis too long for the radius at "
                             f"radius constant times omega {c_omega} < 48 "
                             "(radiusboundofD check failed)")


def _in_tau_box(field: NumberField, beta0: FieldElement, x,
                radius: RadiusExpr, m_inf, tau_signs) -> bool:
    """Exact membership: |x_s sigma(beta0)| <= r at all embeddings, and
    sign(sigma(beta0)) = sign(sigma(tau)) at constrained real places."""
    if beta0.is_zero():
        return False
    places = field.places()
    for pidx, (emb_idx, _n_nu) in enumerate(places):
        xval = Q(x[emb_idx])
        # |x sigma(beta)| > r  <=>  (|sigma|^2)^k > r^(2k)/x^(2k)
        verdict = cmp_element(beta0, pidx, xval, radius.pow_value, radius.k)
        if verdict == GT:
            return False
    for place in m_inf:
        if field.sign_at_real_place(beta0, place) != tau_signs[place]:
            return False
    return True


def _crt_shift(field: NumberField, b_ideal: HnfIdeal, m0: HnfIdeal,
               tau: FieldElement) -> FieldElement:
    """tau beta, in b and = tau mod m0, for 1 = beta + mu with beta in b
    and mu in m0."""
    if b_ideal.denom != 1 or m0.denom != 1:
        raise ValueError("CRT shift needs integral ideals")
    rows = [list(col) for col in b_ideal.hnf] + [list(col) for col in m0.hnf]
    one = []
    for c in field.one().coords:
        if Q(c).denominator != 1:
            raise ValueError("1 has non-integer coordinates in this basis")
        one.append(int(c))
    coeffs = qlinalg.express_int_combination(rows, one)
    if coeffs is None:
        raise ValueError("b and m0 are not coprime")
    return tau * field.element(combine(coeffs, b_ideal.hnf))


def _babai_reduce(field: NumberField, shift: FieldElement,
                  basis_elements) -> FieldElement:
    """shift minus its round-off in the given algebraic basis."""
    cols = [e.coords for e in basis_elements]
    t = solve(transpose(cols), list(shift.coords))
    return field.element(combine([1] + [-round_half_up(Q(ti)) for ti in t],
                                 [shift.coords] + cols))


def _radius_times_sqrt2(r: RadiusExpr) -> RadiusExpr:
    if r.k % 2 == 0:
        return RadiusExpr(r.pow_value * Q(2) ** (r.k // 2), r.k)
    return RadiusExpr(r.pow_value ** 2 * Q(2) ** r.k, 2 * r.k)
