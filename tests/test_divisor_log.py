import math
import random
from fractions import Fraction as Q

import pytest

from latnf.divisor_log import (Divisor, ideal_divisor_zero,
                               kessler_lambda1_lower, log_embedding,
                               log_s_embed, principal_divisor)
from latnf.dyadic import RealBall, ball_sqrt, exp_ball, log_ball
from latnf.ideal_arith import (HnfIdeal, hnf_inv, hnf_mul, kummer_dedekind,
                               primes_up_to)
from latnf.lattice_core import enumerate_minima_gram, enumerate_short_gram
from latnf.nf_core import NumberField, new_field
from oracles import (ball_contains, divisor_degree, embedding_values,
                     minkowski_gram)

PELL_REG = math.log(1 + math.sqrt(2))


# The paper's Exp map and volume formulas, checked here against the
# library's Log maps and lattice enumeration.

def ball_exp(b: RealBall, prec: int) -> RealBall:
    el = exp_ball(b.lo(), prec)
    eh = exp_ball(b.hi(), prec)
    l, h = el.lo(), eh.hi()
    return RealBall((l + h) / 2, (h - l) / 2)


def degree(d: Divisor, prec: int = 64) -> RealBall:
    return divisor_degree(d.finite_part.items(), d.infinite_part, prec)


def add_divisors(d1: Divisor, d2: Divisor) -> Divisor:
    fin = dict(d1.finite_part)
    for p, e in d2.finite_part.items():
        fin[p] = fin.get(p, 0) + e
    return Divisor(d1.field, fin, [a + b for a, b in zip(d1.infinite_part,
                                                         d2.infinite_part)])


def exp_divisor(d: Divisor):
    """Exp(d): returns (x, a, vol) where x is the per-embedding positive
    distortion e^(a_nu / n_nu) (balls), a = prod p^(a_p), and vol is the
    certified ball sqrt|Delta| e^(deg d); balls at 64 bits."""
    prec = 64
    field = d.field
    a = HnfIdeal.ring_of_integers(field)
    for p, e in d.finite_part.items():
        step = p.hnf if e > 0 else hnf_inv(p.hnf)
        for _ in range(abs(e)):
            a = hnf_mul(a, step)
    xs = []
    for (idx, nnu), coeff in zip(field.places(), d.infinite_part):
        scaled = coeff * Q(1, nnu)
        e_lo = ball_exp(RealBall(scaled.lo()), prec)
        e_hi = ball_exp(RealBall(scaled.hi()), prec)
        l, h = e_lo.lo(), e_hi.hi()
        ball = RealBall((l + h) / 2, (h - l) / 2)
        xs.append(ball)
        if nnu == 2:
            xs.append(ball)
    deg = degree(d, prec)
    e_lo = ball_exp(RealBall(deg.lo()), prec)
    e_hi = ball_exp(RealBall(deg.hi()), prec)
    ev = RealBall((e_lo.lo() + e_hi.hi()) / 2, (e_hi.hi() - e_lo.lo()) / 2)
    sq = ball_sqrt(RealBall(Q(abs(field.disc_field))), prec)
    return xs, a, sq * ev


def simplex_volume(field: NumberField, alpha: float) -> float:
    """vol of {b_nu <= n_nu*alpha, sum b = 0}: sqrt(r+1) (n alpha)^r / r!."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    r = field.n_real + field.n_cplx - 1
    return math.sqrt(r + 1) * (field.n * alpha) ** r / math.factorial(r)


def unit_lattice_covolume_target(field: NumberField, h: int, reg: float) -> float:
    """Product-measure covolume of the Log-S-unit lattice:
    h * R * sqrt(n_R + n_C)."""
    if h < 1 or reg <= 0:
        raise ValueError("need h >= 1 and R > 0")
    return h * reg * math.sqrt(field.n_real + field.n_cplx)


def gamma_k_bound(field: NumberField, cyclotomic: bool = False) -> float:
    """Certified upper bound on the ideal-lattice gap Gamma_K; exactly 1
    for (caller-flagged) cyclotomic fields."""
    if cyclotomic:
        return 1.0
    return abs(field.disc_field) ** (1.0 / field.n)


@pytest.fixture(scope="module")
def qi():
    return new_field([1, 0, 1])


@pytest.fixture(scope="module")
def qr2():
    return new_field([-2, 0, 1])


@pytest.fixture(scope="module")
def qs5():
    return new_field([5, 0, 1])


class TestDegree:
    def test_single_place(self, qi):
        d = Divisor(qi, {}, [Q(1)])
        assert ball_contains(degree(d), 1)

    def test_zero_normalized_prime(self, qs5):
        p2 = kummer_dedekind(qs5, 2)[0][0]
        d = ideal_divisor_zero(p2.hnf)
        deg = degree(d)
        assert abs(float(deg.mid)) < 1e-12 + float(deg.rad)

    def test_principal_product_formula(self, qi):
        pd = principal_divisor(qi.element([1, 1]))
        deg = degree(pd)
        assert abs(float(deg.mid)) <= float(deg.rad) + 1e-15


class TestPrincipalDivisor:
    def test_one(self, qi):
        pd = principal_divisor(qi.one())
        assert not pd.finite_part
        assert all(v.mid == 0 for v in pd.infinite_part)

    def test_unit_i(self, qi):
        pd = principal_divisor(qi.element([0, 1]))
        assert not pd.finite_part
        assert all(abs(float(v)) < 1e-12 for v in pd.infinite_part)

    def test_one_plus_sqrt_minus5(self, qs5):
        pd = principal_divisor(qs5.element([1, 1]))
        assert sorted(pd.finite_part.values()) == [1, 1]
        assert abs(float(pd.infinite_part[0]) + math.log(6)) < 1e-9

    def test_zero_rejected(self, qi):
        with pytest.raises(ValueError):
            principal_divisor(qi.element([0, 0]))

    def test_random_product_formula(self, qi, qr2, qs5):
        rng = random.Random(7)
        for field in (qi, qr2, qs5):
            for _ in range(30):
                coords = [rng.randrange(-9, 10) for _ in range(2)]
                alpha = field.element(coords)
                if alpha.is_zero():
                    continue
                deg = degree(principal_divisor(alpha))
                assert abs(float(deg.mid)) <= float(deg.rad) + 1e-12


class TestExpDivisor:
    def test_zero_divisor_volume(self, qi):
        xs, ideal, vol = exp_divisor(Divisor(qi))
        assert ideal == HnfIdeal.ring_of_integers(qi)
        assert ball_contains(vol, 2)

    def test_degree_zero_prime(self, qs5):
        p2 = kummer_dedekind(qs5, 2)[0][0]
        _, _, vol = exp_divisor(ideal_divisor_zero(p2.hnf))
        assert abs(float(vol) - math.sqrt(20)) < 1e-9

    def test_scaled_place(self, qr2):
        d = Divisor(qr2, {}, [log_ball(Q(2), 64), RealBall(Q(0))])
        _, _, vol = exp_divisor(d)
        assert abs(float(vol) - math.sqrt(8) * 2) < 1e-8

    def test_homomorphism_on_random_pairs(self, qs5):
        # Exp(d1+d2) = Exp(d1) * Exp(d2) as ideal lattices: the ideal
        # parts multiply, the distortions multiply coordinatewise, and
        # volumes compose as v1*v2/sqrt|D|
        rng = random.Random(3)
        primes = primes_up_to(qs5, 7)
        sq_disc = math.sqrt(20)
        for _ in range(6):
            d1 = Divisor(qs5, {rng.choice(primes): rng.randrange(-2, 3)},
                         [Q(rng.randrange(-2, 3), 4)])
            d2 = Divisor(qs5, {rng.choice(primes): rng.randrange(-2, 3)},
                         [Q(rng.randrange(-2, 3), 4)])
            xs1, a1, v1 = exp_divisor(d1)
            xs2, a2, v2 = exp_divisor(d2)
            xs12, a12, v12 = exp_divisor(add_divisors(d1, d2))
            from latnf.ideal_arith import hnf_mul
            assert a12 == hnf_mul(a1, a2)
            for x12, x1, x2 in zip(xs12, xs1, xs2):
                assert abs(float(x12) - float(x1) * float(x2)) < 1e-9
            assert abs(float(v12) - float(v1) * float(v2) / sq_disc) < 1e-7


class TestSimplexVolume:
    def test_rank_zero(self, qi):
        assert simplex_volume(qi, 1.0) == 1.0
        assert simplex_volume(qi, 5.0) == 1.0

    def test_rank_one(self, qr2):
        assert abs(simplex_volume(qr2, 1.0) - math.sqrt(2) * 2) < 1e-12
        assert abs(simplex_volume(qr2, math.log(2))
                   - math.sqrt(2) * 2 * math.log(2)) < 1e-12

    def test_positive_required(self, qi):
        with pytest.raises(ValueError):
            simplex_volume(qi, 0.0)


class TestLogSEmbed:
    def test_one_plus_i(self, qi):
        p = primes_up_to(qi, 2)[0]
        v = log_s_embed(qi.element([1, 1]), [p])
        assert v.val_part == [-1]
        assert abs(float(v.inf_part.entries[0]) - math.log(2)) < 1e-9
        assert abs(float(v.norm_sq()) - (1 + math.log(2) ** 2)) < 1e-8

    def test_root_of_unity(self, qi):
        v = log_s_embed(qi.element([0, 1]), [])
        assert v.val_part == []
        assert abs(float(v.inf_part.entries[0])) < 1e-10

    def test_pell_unit(self, qr2):
        v = log_s_embed(qr2.element([1, 1]), [])
        ents = [float(x) for x in v.inf_part.entries]
        assert abs(abs(ents[0]) - PELL_REG) < 1e-9
        assert abs(ents[0] + ents[1]) < 1e-9
        assert abs(math.sqrt(float(v.norm_sq())) - PELL_REG * math.sqrt(2)) < 1e-8

    def test_non_sunit_reports_offender(self, qi):
        p = primes_up_to(qi, 2)[0]
        with pytest.raises(ValueError, match="offending prime"):
            log_s_embed(qi.element([1, 2]), [p])

    def test_degree_zero(self, qi):
        p = primes_up_to(qi, 2)[0]
        v = log_s_embed(qi.element([1, 1]), [p])
        deg = divisor_degree(zip([p], v.val_part), v.inf_part.entries)
        assert abs(float(deg.mid)) <= float(deg.rad) + 1e-12


class TestVolumesAndBounds:
    def test_covolume_targets(self, qi, qr2, qs5):
        assert abs(unit_lattice_covolume_target(qr2, 1, PELL_REG)
                   - 1.24645) < 1e-4
        assert unit_lattice_covolume_target(qi, 1, 1.0) == 1.0
        assert unit_lattice_covolume_target(qs5, 2, 1.0) == 2.0

    def test_gamma_bounds(self, qi, qs5):
        assert gamma_k_bound(qi) == 2.0
        zeta5 = new_field([1, 1, 1, 1, 1])
        assert gamma_k_bound(zeta5, cyclotomic=True) == 1.0
        assert abs(gamma_k_bound(qs5) - 20 ** 0.5) < 1e-12

    def test_kessler_positive(self, qi):
        k = kessler_lambda1_lower(qi)
        assert 0 < k < 1

    def test_lambda1_of_ok_is_sqrt_n(self, qi, qr2, qs5):
        # lambda_1(O_K) = sqrt(n), reached by 1
        for field in (qi, qr2, qs5):
            basis = [field.element([int(i == j) for j in range(field.n)])
                     for i in range(field.n)]
            gram = minkowski_gram(field, basis)
            rep = enumerate_minima_gram(gram)
            assert rep.minima_sq[0] == field.n

    def test_lambda_n_inf_bound(self, qi, qr2, qs5):
        # lambda_n^infty(O_K) <= |D|^(1/n): infinity-norm enumeration
        for field in (qi, qr2, qs5):
            assert _lambda_n_inf_sq(field) <= \
                Q(abs(field.disc_field)) ** 2 ** 0  # placeholder, below
            bound = abs(field.disc_field) ** (2.0 / field.n)
            assert float(_lambda_n_inf_sq(field)) <= bound + 1e-9

    def test_lambda1_ideal_lattice_lower(self, qs5):
        # lambda_1(a) >= sqrt(n) N(a)^(1/n) on prime ideal lattices
        for p in primes_up_to(qs5, 11):
            gram = minkowski_gram(qs5, p.hnf.basis_elements())
            rep = enumerate_minima_gram(gram)
            assert float(rep.minima_sq[0]) >= \
                2 * float(p.norm()) ** (2 / 2) - 1e-9


def _lambda_n_inf_sq(field):
    """Exact last minimum (squared) of O_K in the infinity norm, by
    Euclidean enumeration + exact infinity-norm comparisons."""
    basis = [field.element([int(i == j) for j in range(field.n)])
             for i in range(field.n)]
    gram = minkowski_gram(field, basis)
    # every vector with ||.||_inf <= R has ||.||_2^2 <= n R^2; enumerate
    # Euclidean ball of radius sqrt(n) |D|^(1/n) and measure inf norms
    radius_sq = Q(field.n) * Q(abs(field.disc_field) ** 2)  # generous
    vecs = enumerate_short_gram(gram, radius_sq)
    best = []
    for coeffs, _n2 in vecs:
        elt = field.element([0] * field.n)
        for c, b in zip(coeffs, basis):
            if c:
                elt = elt + b * c
        pt = field.embed(elt, 48)
        inf_sq = max(float(v.abs2().hi()) for v in embedding_values(pt))
        best.append((inf_sq, coeffs))
    best.sort()
    chosen = []
    import latnf.qlinalg as ql
    out = 0.0
    for inf_sq, coeffs in best:
        cand = chosen + [list(coeffs)]
        h, _ = ql.hnf_with_transform([list(c) for c in cand])
        if sum(1 for r in h if any(r)) == len(cand):
            chosen.append(list(coeffs))
            out = inf_sq
            if len(chosen) == field.n:
                break
    return out
