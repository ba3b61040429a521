"""The residue bracket's Euler-product kernel against a per-prime product
loop: bit-identical brackets, chunk boundaries, the Kronecker table, the
general (degree > 2) path, the exact product inside the rounding bound,
the guards, the least truncation and the sieve."""

import math
from fractions import Fraction as Q
from types import SimpleNamespace

import numpy as np
import pytest

from latnf import det_verify, intmath
from latnf.det_verify import approx_rho, bach_truncation, euler_log_product
from latnf.dyadic import log_ball
from latnf.ideal_arith import splitting_degrees
from latnf.nf_core import NumberField, new_field
from latnf.sunit_pipeline import (PipelineConfig, provable_d_value,
                                  roots_of_unity_count)

from oracles import (approx_rho_float_reference, bach_product,
                     euler_product_reference, prime_sieve_reference,
                     primes_below_reference)

# Q(i), Q(sqrt-5), Q(sqrt2), Q(sqrt-163), x^2-x-1, x^2-x+1
QUADRATICS = [[1, 0, 1], [5, 0, 1], [-2, 0, 1], [41, -1, 1], [-1, -1, 1],
              [1, -1, 1]]
# the least truncation that meets Bach's bound, per quadratic field
QUADRATIC_X = {(1, 0, 1): 1_096_000, (5, 0, 1): 1_240_000,
               (-2, 0, 1): 1_157_000, (41, -1, 1): 1_439_000,
               (-1, -1, 1): 1_116_000, (1, -1, 1): 1_072_000}


@pytest.fixture(scope="module", params=QUADRATICS, ids=str)
def quad_case(request):
    field = new_field(request.param)
    x = bach_truncation(field.disc_field, field.n)
    mu = roots_of_unity_count(field)
    return field, x, mu, approx_rho_float_reference(field, x, mu)


def _bracket(field, x, mu):
    return approx_rho(field, truncation=x, roots_of_unity=mu)


class TestBitIdentical:
    def test_bracket_matches_reference(self, quad_case):
        field, x, mu, ref = quad_case
        assert x == QUADRATIC_X[tuple(field.poly)]
        rb = _bracket(field, x, mu)
        assert (rb.rho0, rb.eta0, rb.lo, rb.hi) == (ref.rho0, ref.eta0,
                                                    ref.lo, ref.hi)
        assert rb.detail["bach_error_log"] == ref.detail["bach_error_log"]
        assert rb.detail["x"] == x

    def test_small_chunks_cross_boundaries(self, monkeypatch):
        monkeypatch.setattr(det_verify, "_EULER_CHUNK", 7)
        for poly in QUADRATICS + [[2, -1, 1]]:     # x^2-x+2: 2 splits
            field = new_field(poly)
            got, _bound = euler_log_product(field, 20000)
            assert got == euler_product_reference(field, 20000)

    def test_small_chunks_full_truncation(self, monkeypatch):
        field = new_field([5, 0, 1])
        ref = euler_product_reference(field, 2_048_000)
        monkeypatch.setattr(det_verify, "_EULER_CHUNK", 7)
        assert euler_log_product(field, 2_048_000)[0] == ref

    def test_inert_square_at_the_cut(self):
        # 103 is inert in Q(i); its square is a term only when 103^2 < x
        qi = new_field([1, 0, 1])
        for x in (103 ** 2, 103 ** 2 + 1):
            got, _bound = euler_log_product(qi, x)
            assert got == euler_product_reference(qi, x)

    def test_general_path_cubic(self):
        field = new_field([-1, -1, 0, 1])          # x^3 - x - 1
        got, bound = euler_log_product(field, 20000)
        assert got == euler_product_reference(field, 20000)
        assert 0 < bound < 1e-11


class TestKroneckerTable:
    def test_agrees_with_splitting_degrees(self):
        field = new_field([1009, 0, 1])
        disc = field.poly[1] ** 2 - 4 * field.poly[0]
        assert abs(disc) == 4036
        chi = det_verify._kronecker_table(disc)
        assert len(chi) == 4036
        kinds = {1: [(1, 1), (1, 1)], 0: [(1, 2)], -1: [(2, 1)]}
        for p in primes_below_reference(10 ** 5)[1:]:
            assert kinds[int(chi[p % 4036])] == splitting_degrees(field, p), p


class TestExactProduct:
    @pytest.mark.parametrize("poly", QUADRATICS + [[2, -1, 1], [-1, -1, 0, 1]],
                             ids=str)
    def test_certified_log_inside_bound(self, poly):
        # x^2-x+2 (2 splits), x^3-x-1 (the general path); 103 is inert in
        # Q(i), and 103^2 is the cut
        field = new_field(poly)
        for x in (2000, 103 ** 2, 103 ** 2 + 1, 20000):
            log_a, bound = euler_log_product(field, x)
            ball = log_ball(bach_product(field, x), 96)
            assert Q(log_a) - Q(bound) <= ball.lo(), x
            assert ball.hi() <= Q(log_a) + Q(bound), x


class TestRoundingBound:
    def test_recorded_and_inside_slack(self, quad_case):
        field, x, mu, _ref = quad_case
        rb = _bracket(field, x, mu)
        bound = rb.detail["float_rounding_log"]
        assert 1e-11 < bound <= 1e-9

    def test_past_the_old_wall(self):
        # a log-sum kernel's bound (gamma_N + 7u) sum |t_i| reads 1.67e-9
        # here, past the 1e-9 slack; the product's is gamma_2N + 4u |log A|
        field = new_field([5, 0, 1])
        rb = _bracket(field, 16_384_000, 2)
        assert 2.3e-10 < rb.detail["float_rounding_log"] < 2.4e-10

    def test_pipeline_reports_it(self):
        qi = new_field([1, 0, 1])
        _d, info = provable_d_value(qi, PipelineConfig())
        assert 0 < info["float_rounding_log"] <= 1e-9


class TestGuards:
    def test_index_divisor_prime(self):
        field = NumberField([23, 0, 1], [[1, 0], [Q(1, 2), Q(1, 2)]])
        with pytest.raises(ValueError, match="index-divisor prime"):
            provable_d_value(field, PipelineConfig())

    def test_truncation_below_two_to_the_53(self, monkeypatch):
        # p - 1, p and p + 1 must be exact in float64; the stub sieve
        # builds nothing
        qi = new_field([1, 0, 1])
        sieved = []

        def stub_sieve(x):
            sieved.append(x)
            return np.array([2, 3, 5, 7, 11], dtype=np.int64)

        monkeypatch.setattr(intmath, "prime_sieve", stub_sieve)
        with pytest.raises(ValueError, match="below 2\\^53"):
            euler_log_product(qi, 1 << 53)
        assert sieved == []
        log_a, _bound = euler_log_product(qi, (1 << 53) - 1)
        assert sieved == [(1 << 53) - 1]
        # 2 ramifies, 5 splits, 3, 7 and 11 are inert with p^2 < x
        assert log_a == math.log(1.0 * (3 / 4) * (5 / 4) * (7 / 8) * (11 / 12))


class TestLeastTruncation:
    """`bach_truncation` returns the least multiple of 1000 that
    `approx_rho`'s window test accepts: the guard passes at x and refuses
    x - 1000.  The Euler product is stubbed out, so only the guard runs;
    the two fields of degree 11 and 13 carry a discriminant of 5 n^n and
    nothing else the guard reads."""

    CASES = [(poly, QUADRATIC_X[tuple(poly)]) for poly in QUADRATICS] + [
        ([1, 1, 1, 1, 1], 5_790_000),        # Q(zeta5); doubling gave 8,192,000
        ([1, -1, 0, 1], 2_939_000),          # x^3-x+1; doubling gave 4,096,000
        (11, 65_640_000),                    # doubling gave 131,072,000
        (13, 96_465_000)]                    # doubling gave 131,072,000

    @staticmethod
    def _field(case):
        if isinstance(case, int):
            return SimpleNamespace(n=case, disc_field=5 * case ** case,
                                   n_real=1, n_cplx=(case - 1) // 2)
        return new_field(case)

    @pytest.mark.parametrize("case, want", CASES, ids=str)
    def test_guard_passes_at_x_and_not_below(self, monkeypatch, case, want):
        monkeypatch.setattr(det_verify, "euler_log_product",
                            lambda _field, _x: (0.0, 0.0))
        field = self._field(case)
        x = bach_truncation(field.disc_field, field.n)
        assert x == want
        assert approx_rho(field, x).detail["x"] == x
        with pytest.raises(ValueError, match="truncation too small"):
            approx_rho(field, x - 1000)


class TestNoLogPerPrime:
    def test_one_log_on_the_quadratic_path(self, monkeypatch):
        field = new_field([5, 0, 1])
        calls = []
        for name in ("log", "log1p"):
            real = getattr(math, name)
            monkeypatch.setattr(math, name,
                                lambda t, real=real, name=name:
                                calls.append(name) or real(t))
        euler_log_product(field, 20000)
        assert calls == ["log"]


class TestSieve:
    def test_odd_sieve_matches_full_sieve(self):
        for bound in [*range(501), 2_048_000, 2_048_001, 4_096_000]:
            got = intmath.prime_sieve(bound)
            assert got.dtype == np.int64
            assert np.array_equal(got, prime_sieve_reference(bound))

    def test_matches_bytearray_sieve(self):
        for bound in range(3001):
            assert intmath.primes_below(bound) == primes_below_reference(bound)
        assert intmath.primes_below(2) == []

    def test_large_bound_python_ints(self):
        got = intmath.primes_below(2_048_000)
        assert got == primes_below_reference(2_048_000)
        assert len(got) == 152_252
        assert all(type(p) is int for p in got)
