import math
import random
from fractions import Fraction as Q

import pytest

from latnf.nf_core import (GT, LE, NumberField, cmp_element,
                           liouville_separation, new_field)
from oracles import abs_root_gt, embedding_values, minkowski_gram


@pytest.fixture(scope="module")
def qi():
    return new_field([1, 0, 1])


@pytest.fixture(scope="module")
def qr2():
    return new_field([-2, 0, 1])


@pytest.fixture(scope="module")
def qs5():
    return new_field([5, 0, 1])


class TestNewField:
    def test_gaussian_integers(self, qi):
        assert (qi.n, qi.n_real, qi.n_cplx) == (2, 0, 1)
        assert qi.disc_field == -4

    def test_real_quadratic(self, qr2):
        assert (qr2.n_real, qr2.n_cplx) == (2, 0)
        assert qr2.disc_field == 8

    def test_sqrt_minus_five(self, qs5):
        assert qs5.disc_field == -20

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            new_field([-1, 0, 1])     # x^2 - 1
        with pytest.raises(ValueError):
            new_field([0, 0, 1])      # x^2

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            new_field([1, 0, 2])

    def test_supplied_basis_closure_checked(self):
        # (1, theta/2) is not closed under multiplication for x^2+1
        with pytest.raises(ValueError):
            NumberField([1, 0, 1], [[1, 0], [0, Q(1, 2)]])

    @pytest.mark.parametrize("poly", [[23, 0, 1],       # disc -92, index 2
                                      [163, 0, 1],      # disc -652, index 2
                                      [-5, 0, 1],       # disc 20, index 2
                                      [-12, 0, 1],      # x^2 - 12: index 2
                                      [9, 0, 0, 1],     # x^3 + 9: index 3
                                      [-8, 0, 0, 0, 1]],  # x^4 - 8: index 2
                             ids=str)
    def test_non_maximal_power_basis_rejected(self, poly):
        with pytest.raises(ValueError, match="power basis is not maximal"):
            new_field(poly)

    def test_maximal_power_basis_with_square_in_disc_accepted(self):
        # p^2 | disc(f) but Dedekind's criterion holds at p
        assert new_field([5, 0, 1]).disc_field == -20        # p = 2
        assert new_field([-2, 0, 0, 1]).disc_field == -108   # p = 2, 3
        assert new_field([1, 0, 0, 0, 1]).disc_field == 256  # Q(zeta8)
        assert new_field([1, 1, 1, 1, 1]).disc_field == 125  # Q(zeta5)

    def test_half_integer_basis_accepted(self):
        # Q(sqrt(-23)) via x^2+23 plus the genuine (1+theta)/2 basis vector
        k = NumberField([23, 0, 1], [[1, 0], [Q(1, 2), Q(1, 2)]])
        assert k.disc_field == -23

    def test_discriminant_lower_bound(self):
        # log|D| >= 0.4 n on the corpus
        for poly in ([1, 0, 1], [-2, 0, 1], [5, 0, 1], [6, -1, 1],
                     [41, -1, 1, ], [1, 1, 1, 1, 1]):
            k = new_field(poly)
            assert math.log(abs(k.disc_field)) >= 0.4 * k.n


class TestEmbed:
    def test_one_embeds_to_one(self, qi):
        pt = qi.embed(qi.one(), 30)
        for v in embedding_values(pt):
            assert v.re - v.rad <= 1 <= v.re + v.rad
            assert abs(v.im) <= v.rad

    def test_sqrt2(self, qr2):
        pt = qr2.embed(qr2.from_power([0, 1]), 30)
        vals = sorted(float(v.re) for v in embedding_values(pt))
        assert abs(vals[0] + math.sqrt(2)) < 2 ** -29
        assert abs(vals[1] - math.sqrt(2)) < 2 ** -29
        for v in embedding_values(pt):
            assert v.rad <= Q(1, 2 ** 30)

    def test_i_embeds_to_pm_i(self, qi):
        pt = qi.embed(qi.from_power([0, 1]), 20)
        ims = sorted(float(v.im) for v in embedding_values(pt))
        assert abs(ims[0] + 1) < 1e-5 and abs(ims[1] - 1) < 1e-5

    def test_precision_floor(self, qi):
        with pytest.raises(ValueError):
            qi.embed(qi.one(), 4)

    def test_nested_intervals(self, qr2):
        alpha = qr2.element([3, 5])
        p1 = qr2.embed(alpha, 30)
        p2 = qr2.embed(alpha, 60)
        for a, b in zip(embedding_values(p1), embedding_values(p2)):
            assert abs(a.re - b.re) <= a.rad + b.rad


class TestLiouville:
    def test_x2_minus_2(self):
        assert liouville_separation([-2, 0, 1]) == Q(1, 27 * 4 * 16)

    def test_linear(self):
        assert liouville_separation([-3, 1]) == Q(1, 8 * 2 * 5)

    def test_x2_plus_1(self):
        assert liouville_separation([1, 0, 1]) == Q(1, 27 * 4 * 9)


class TestCmpRootThreshold:
    """A root against 0 at a real place (`sign_at_real_place`), and in
    absolute value against g^(1/k) (`cmp_element`,
    `oracles.abs_root_gt`)."""

    def test_pell_near_zero(self, qr2):
        # 408 sqrt(2) - 577 is about -0.0008665 at the place sqrt(2) > 0
        alpha = qr2.element([-577, 408])
        assert qr2.sign_at_real_place(alpha, 1) == -1

    def test_sqrt2_above_one(self, qr2):
        assert cmp_element(qr2.element([0, 1]), 1, 1, 1, 1) == GT

    def test_abs_i_vs_two(self):
        # |i| = 1 <= 4^(1/2)
        assert abs_root_gt([1, 0, 1], 0, 4, 2) == LE


class TestCmpElement:
    def test_one_plus_sqrt2_gt_two(self, qr2):
        alpha = qr2.element([1, 1])
        assert cmp_element(alpha, 1, 1, 2, 1) == GT

    def test_zero_le_positive(self, qr2):
        assert cmp_element(qr2.zero(), 0, 1, 5, 1) == LE

    def test_equality_resolves_le(self, qi):
        # |1+i| = sqrt(2) exactly equals 2^(1/2)
        assert cmp_element(qi.element([1, 1]), 0, 1, 2, 2) == LE

    def test_agrees_with_interval_arithmetic(self, qi, qr2):
        rng = random.Random(4)
        for field in (qi, qr2):
            for _ in range(60):
                alpha = field.element([rng.randrange(-20, 21),
                                       rng.randrange(-20, 21)])
                if alpha.is_zero():
                    continue
                g = Q(rng.randrange(1, 400), rng.randrange(1, 20))
                place = rng.randrange(len(field.places()))
                pt = field.embed(alpha, 256)
                emb_idx = field.places()[place][0]
                ball = embedding_values(pt)[emb_idx].abs2()
                verdict = cmp_element(alpha, place, 1, g, 1)
                if ball.lo() > g * g:
                    assert verdict == GT
                elif ball.hi() < g * g:
                    assert verdict == LE


class TestNorm:
    def test_examples(self, qi, qs5):
        assert qi.element([1, 1]).norm() == 2
        assert qi.one().norm() == 1
        assert qs5.element([1, 1]).norm() == 6

    def test_multiplicative(self, qi):
        rng = random.Random(1)
        for _ in range(40):
            x = qi.element([rng.randrange(-9, 10) for _ in range(2)])
            y = qi.element([rng.randrange(-9, 10) for _ in range(2)])
            assert (x * y).norm() == x.norm() * y.norm()


class TestArithmetic:
    def test_inverse(self, qr2):
        alpha = qr2.element([3, 2])
        assert (alpha * alpha.inverse()).coords == qr2.one().coords

    def test_pow(self, qi):
        a = qi.element([1, 1])
        assert (a ** 4).coords == (a * a * a * a).coords
        assert (a ** -2 * a ** 2).coords == qi.one().coords

    def test_charpoly_kills_element(self, qs5):
        from latnf import polyq
        a = qs5.element([2, 3])
        cp = a.charpoly()
        acc = qs5.zero()
        for i, c in enumerate(cp):
            acc = acc + (a ** i) * c
        assert acc.is_zero()


class TestMinkowskiGram:
    """The exact T2 Gram of `oracles.minkowski_gram`, the reference of the
    Gram tests, on known fields."""

    def test_gaussian(self, qi):
        assert minkowski_gram(qi, [qi.one(), qi.element([0, 1])]) == [
            [2, 0], [0, 2]]

    def test_real_quadratic(self, qr2):
        assert minkowski_gram(qr2, [qr2.one(), qr2.element([0, 1])]) == [
            [2, 0], [0, 4]]

    def test_cyclotomic(self):
        k = new_field([1, 1, 1, 1, 1])
        g = minkowski_gram(k, [k.one()])
        assert g == [[4]]
