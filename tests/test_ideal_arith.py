import gc
import random
import sys
import weakref
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from oracles import chi2_sf, chi2_uniform_stat, quadratic_prime_norms

from latnf import ideal_arith
from latnf.ideal_arith import (HnfIdeal, SampleFailure, hnf_inv, hnf_mul,
                               kummer_dedekind, ord_at, prime_product,
                               primes_up_to, sample_prime_uniform,
                               splitting_degrees)
from latnf.intmath import factorint
from latnf.nf_core import new_field
from latnf.relations import FactorBase, smooth_factor


@pytest.fixture(scope="module")
def qi():
    return new_field([1, 0, 1])


@pytest.fixture(scope="module")
def qs5():
    return new_field([5, 0, 1])


class TestHnfMul:
    def test_p2_squared_is_two(self, qs5):
        p2 = kummer_dedekind(qs5, 2)[0][0]
        two = HnfIdeal.principal(qs5, qs5.one() * 2)
        assert hnf_mul(p2.hnf, p2.hnf) == two

    def test_identity(self, qs5):
        ok = HnfIdeal.ring_of_integers(qs5)
        p2 = kummer_dedekind(qs5, 2)[0][0]
        assert hnf_mul(p2.hnf, ok) == p2.hnf

    def test_p3_conjugates_give_three(self, qs5):
        s3 = kummer_dedekind(qs5, 3)
        assert hnf_mul(s3[0][0].hnf, s3[1][0].hnf) == \
            HnfIdeal.principal(qs5, qs5.one() * 3)

    def test_norm_multiplicative(self, qs5):
        p2 = kummer_dedekind(qs5, 2)[0][0]
        p3 = kummer_dedekind(qs5, 3)[0][0]
        assert hnf_mul(p2.hnf, p3.hnf).norm() == 6

    def test_field_mismatch(self, qi, qs5):
        with pytest.raises(ValueError):
            hnf_mul(HnfIdeal.ring_of_integers(qi),
                    HnfIdeal.ring_of_integers(qs5))


class TestHnfInv:
    def test_principal_two(self, qi):
        two = HnfIdeal.principal(qi, qi.one() * 2)
        inv = hnf_inv(two)
        assert inv.denom == 2
        assert hnf_mul(two, inv) == HnfIdeal.ring_of_integers(qi)

    def test_prime_inverse(self, qs5):
        p2 = kummer_dedekind(qs5, 2)[0][0]
        assert hnf_mul(p2.hnf, hnf_inv(p2.hnf)) == \
            HnfIdeal.ring_of_integers(qs5)

    def test_ring_self_inverse(self, qs5):
        ok = HnfIdeal.ring_of_integers(qs5)
        assert hnf_inv(ok) == ok

    def test_group_laws_random(self, qs5):
        rng = random.Random(3)
        p2 = kummer_dedekind(qs5, 2)[0][0]
        s3 = kummer_dedekind(qs5, 3)
        pa = HnfIdeal.principal(qs5, qs5.element([1, 1]))
        ideals = [p2.hnf, s3[0][0].hnf, s3[1][0].hnf,
                  HnfIdeal.principal(qs5, qs5.one() * 2), pa]
        ok = HnfIdeal.ring_of_integers(qs5)
        for _ in range(12):
            a, b, c = (rng.choice(ideals) for _ in range(3))
            assert hnf_mul(hnf_mul(a, b), c) == hnf_mul(a, hnf_mul(b, c))
            assert hnf_mul(a, hnf_inv(a)) == ok


class TestOrd:
    def test_two_at_p2(self, qs5):
        p2 = kummer_dedekind(qs5, 2)[0][0]
        assert ord_at(HnfIdeal.principal(qs5, qs5.one() * 2), p2) == 2

    def test_ring_everywhere_zero(self, qs5):
        ok = HnfIdeal.ring_of_integers(qs5)
        for p in primes_up_to(qs5, 11):
            assert ord_at(ok, p) == 0

    def test_one_plus_sqrt_minus5(self, qs5):
        p2 = kummer_dedekind(qs5, 2)[0][0]
        pa = HnfIdeal.principal(qs5, qs5.element([1, 1]))
        assert ord_at(pa, p2) == 1

    def test_fractional(self, qi):
        half = HnfIdeal._from_int_columns(qi, 2, [[1, 0], [0, 1]])
        p = primes_up_to(qi, 2)[0]
        assert ord_at(half, p) == -2


class TestPrimeProduct:
    def test_inverts_only_the_negative_part(self, qi, monkeypatch):
        from latnf import ideal_arith
        p = primes_up_to(qi, 30)[:4]
        inverted, inv = [], ideal_arith.hnf_inv

        def rec_inv(a):
            inverted.append(a)
            return inv(a)

        monkeypatch.setattr(ideal_arith, "hnf_inv", rec_inv)
        assert prime_product(qi, zip(p, [2, 0, 1, 0])) == hnf_mul(
            p[0].power(2), p[2].hnf)
        assert inverted == []
        assert prime_product(qi, zip(p, [0, -2, 1, -1])) == hnf_mul(
            p[2].hnf, inv(hnf_mul(p[1].power(2), p[3].hnf)))
        assert inverted == [hnf_mul(p[1].power(2), p[3].hnf)]
        assert prime_product(qi, []) == HnfIdeal.ring_of_integers(qi)


class TestKummerDedekind:
    def test_two_ramified(self, qs5):
        split = kummer_dedekind(qs5, 2)
        assert len(split) == 1
        assert (split[0][0].e, split[0][0].f) == (2, 1)

    def test_three_split(self, qs5):
        split = kummer_dedekind(qs5, 3)
        assert len(split) == 2 and all(p.f == 1 for p, _ in split)

    def test_eleven_inert(self, qs5):
        split = kummer_dedekind(qs5, 11)
        assert len(split) == 1 and split[0][0].f == 2

    def test_refactorization(self, qs5):
        ok = HnfIdeal.ring_of_integers(qs5)
        for p in (2, 3, 5, 7, 11, 13):
            acc = ok
            for prime, e in kummer_dedekind(qs5, p):
                for _ in range(e):
                    acc = hnf_mul(acc, prime.hnf)
            assert acc == HnfIdeal.principal(qs5, qs5.one() * p)

    def test_sum_ef_equals_degree(self, qi, qs5):
        for field in (qi, qs5):
            for p in (2, 3, 5, 7, 13):
                assert sum(pr.e * pr.f
                           for pr, _ in kummer_dedekind(field, p)) == field.n

    def test_splitting_degrees_agree(self, qs5):
        for p in (3, 5, 7, 11, 13, 101):
            fast = sorted(splitting_degrees(qs5, p))
            slow = sorted((pr.f, pr.e) for pr, _ in kummer_dedekind(qs5, p))
            assert fast == slow


class TestPrimesUpTo:
    def test_qi_bound_5(self, qi):
        pr = primes_up_to(qi, 5)
        assert [p.norm() for p in pr] == [2, 5, 5]

    def test_bound_one_empty(self, qi):
        assert primes_up_to(qi, 1) == []

    def test_counts_match_legendre_oracle(self, qi, qs5):
        for field in (qi, qs5):
            for bound in (20, 60):
                norms = sorted(p.norm() for p in primes_up_to(field, bound))
                assert norms == quadratic_prime_norms(field.disc_field, bound)

    def test_every_output_is_prime_power_quotient(self, qs5):
        for p in primes_up_to(qs5, 20):
            nrm = int(p.hnf.norm())
            assert nrm == p.p ** p.f


class TestSamplePrimeUniform:
    def test_uniform_chi2(self, qi):
        support = primes_up_to(qi, 20)
        assert len(support) == 8   # spec example text says 7 but its own
        #                            oracle (this sweep) gives 8: the
        #                            inert prime (3) has norm 9 <= 20
        rng = random.Random(0)
        counts = {}
        n_draws = 10000
        for _ in range(n_draws):
            q = sample_prime_uniform(qi, 20, None, rng)
            counts[q.hnf] = counts.get(q.hnf, 0) + 1
        stat, dof = chi2_uniform_stat(counts, len(support), n_draws)
        assert chi2_sf(stat, dof) > 0.01

    def test_below_smallest_norm_fails(self, qi, monkeypatch):
        monkeypatch.setattr(ideal_arith, "SAMPLE_ATTEMPTS", 300)
        rng = random.Random(1)
        with pytest.raises(SampleFailure, match="after 300 attempts"):
            sample_prime_uniform(qi, 1, None, rng)


class TestFieldLifetime:
    def test_caches_die_with_the_field(self):
        field = new_field([5, 0, 1])
        ref = weakref.ref(field)
        primes = primes_up_to(field, 12)
        six = HnfIdeal.principal(field, field.one() * 6)
        for p in primes:
            ord_at(six, p)
            p.power(3)
        assert smooth_factor(six, FactorBase(primes)) is not None
        assert field._prime_pow_cache and field._kd_cache
        del field, primes, six, p
        gc.collect()
        assert ref() is None


# Q(i), Q(sqrt-5) (class number 2, 2 ramified) and x^2 - x + 2 (2 splits)
PROPERTY_POLYS = {"Q(i)": [1, 0, 1], "Q(sqrt-5)": [5, 0, 1],
                  "x^2-x+2": [2, -1, 1]}
field_names = st.sampled_from(sorted(PROPERTY_POLYS))
coords = st.tuples(st.integers(-15, 15), st.integers(-15, 15)).filter(any)
denoms = st.integers(1, 6)


@pytest.fixture(scope="module")
def property_fields():
    return {name: new_field(poly) for name, poly in PROPERTY_POLYS.items()}


def _principal(field, xy, den):
    return HnfIdeal.principal(field, field.element([Q(c, den) for c in xy]))


def _support(*ideals):
    """Every prime above a rational prime dividing a norm or denominator."""
    field = ideals[0].field
    rationals = set()
    for a in ideals:
        nrm = a.norm()
        for m in (nrm.numerator, nrm.denominator, a.denom):
            rationals |= set(factorint(m))
    rationals.discard(1)
    return [prime for q in sorted(rationals)
            for prime, _e in kummer_dedekind(field, q)]


class TestIdealProperties:
    @settings(max_examples=100, deadline=None)
    @given(name=field_names, x=coords, dx=denoms, y=coords, dy=denoms)
    def test_valuation_of_product(self, property_fields, name, x, dx, y, dy):
        field = property_fields[name]
        a, b = _principal(field, x, dx), _principal(field, y, dy)
        ab = hnf_mul(a, b)
        for p in _support(a, b) + primes_up_to(field, 7):
            assert ord_at(ab, p) == ord_at(a, p) + ord_at(b, p)

    @settings(max_examples=100, deadline=None)
    @given(name=field_names, idx=st.integers(0, 50), k=st.integers(0, 7))
    def test_prime_power_is_repeated_product(self, property_fields, name,
                                             idx, k):
        field = property_fields[name]
        primes = primes_up_to(field, 30)
        p = primes[idx % len(primes)]
        prod = HnfIdeal.ring_of_integers(field)
        for _ in range(k):
            prod = hnf_mul(prod, p.hnf)
        assert p.power(k) == prod
        if k:
            assert p.power(k) is p.power(k)
        assert ord_at(prod, p) == k

    @settings(max_examples=60, deadline=None)
    @given(name=field_names,
           exps=st.lists(st.integers(-3, 3), min_size=0, max_size=6))
    def test_prime_product_is_prime_by_prime(self, property_fields, name,
                                             exps):
        # one product of the cached powers and one inverse give the ideal
        # that a product of single primes and their inverses gives
        field = property_fields[name]
        primes = primes_up_to(field, 30)[:len(exps)]
        prod = HnfIdeal.ring_of_integers(field)
        for p, e in zip(primes, exps):
            step = p.hnf if e > 0 else hnf_inv(p.hnf)
            for _ in range(abs(e)):
                prod = hnf_mul(prod, step)
        assert prime_product(field, zip(primes, exps)) == prod

    @settings(max_examples=100, deadline=None)
    @given(name=field_names, x=coords, den=denoms, idx=st.integers(0, 50),
           k=st.integers(0, 3))
    def test_inverse(self, property_fields, name, x, den, idx, k):
        field = property_fields[name]
        primes = primes_up_to(field, 30)
        p = primes[idx % len(primes)]
        a = hnf_mul(_principal(field, x, den), p.power(k))
        assert hnf_mul(a, hnf_inv(a)) == HnfIdeal.ring_of_integers(field)
        assert hnf_mul(p.hnf, hnf_inv(p.hnf)) == \
            HnfIdeal.ring_of_integers(field)
