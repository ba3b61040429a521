import math
import random
from fractions import Fraction as Q

import pytest

from latnf import intmath
from latnf.det_verify import (approx_rho, decide_equal_lattice,
                              epsilon_threshold, gram_det_interval)
from latnf.ideal_arith import kummer_dedekind, primes_up_to
from latnf.lattice_core import enumerate_minima_gram
from latnf.nf_core import NumberField, new_field
from latnf.qlinalg import gram_matrix, mat_det, mat_inv

from oracles import bach_product, exact_rho


# The paper's modulus, Mertens and Grenie-Molteni bounds, checked here
# against the primes and residues the library computes.

def modulus_ratio(m0_factorization) -> Q:
    """N(m0)/phi(m0) = prod over distinct prime divisors of 1/(1-1/N(P))."""
    out = Q(1)
    seen = set()
    for prime in m0_factorization:
        if prime in seen:
            continue
        seen.add(prime)
        out *= Q(1) / (Q(1) - Q(1, prime.norm()))
    return out


def mertens_product(x: int) -> Q:
    """prod_{p < x} 1/(1 - 1/p), exact."""
    out = Q(1)
    for p in intmath.primes_below(x):
        out *= Q(1) / (Q(1) - Q(1, p))
    return out


def mertens_bracket(x: int):
    """(product, lo, hi) with the Mertens third-theorem bracket
    [log x, 6 log x]."""
    if x < 2:
        raise ValueError("x must be >= 2")
    prod = mertens_product(x)
    return prod, math.log(x), 6 * math.log(x)


def rho_ratio_bracket(field: NumberField, x: int, rho_exact: float):
    """Interval guaranteed to contain N(m0)/(phi(m0) rho_K) for
    m0 = prod of primes of norm < x, from the c0 in [-8,8], c1 in [0,2]
    form; returns (value, lo, hi)."""
    if x < 10:
        raise ValueError("x must be >= 10 here")
    primes = []
    for p in intmath.primes_below(x):
        for prime, _e in kummer_dedekind(field, p):
            if prime.norm() < x:
                primes.append(prime)
    value = float(modulus_ratio(primes)) / rho_exact
    spread = 8 * (math.log(abs(field.disc_field)) + field.n * math.log(x)) / math.sqrt(x)
    lo = math.log(x) * math.exp(0 - spread)
    hi = math.log(x) * math.exp(2 + spread)
    return value, lo, hi


def grenie_molteni_bound(field: NumberField, x: int) -> float:
    """ERH bound on log N(m0) for m0 = prod of primes of norm < x."""
    if x <= 100:
        raise ValueError("x must exceed 100")
    n = field.n
    ld = math.log(abs(field.disc_field))
    return x + math.sqrt(x) * ((math.log(x) / (2 * math.pi) + 2) * ld
                               + (math.log(x) ** 2 / (8 * math.pi) + 2) * n)


@pytest.fixture(scope="module")
def qi():
    return new_field([1, 0, 1])


@pytest.fixture(scope="module")
def qs5():
    return new_field([5, 0, 1])


def inv_norm_lemma(cols):
    """(bound^2, holds) for the basis with columns `cols`: bound^2 =
    n^(n+2) lambda_1^-2 prod ||b_j||^2 / lambda_j^2, the bound on
    ||B^-1||^2 that `epsilon_threshold` inlines, and whether
    ||B^-1|| < bound, that is, whether G - I / bound^2 is positive definite
    for G the Gram of the columns: every leading principal minor > 0."""
    g = gram_matrix([[Q(x) for x in c] for c in cols])
    n = len(g)
    minima_sq = enumerate_minima_gram(g).minima_sq
    bound_sq = Q(n) ** (n + 2) / minima_sq[0]
    for j in range(n):
        bound_sq *= g[j][j] / minima_sq[j]
    shifted = [[g[i][j] - Q(int(i == j)) / bound_sq for j in range(n)]
               for i in range(n)]
    return bound_sq, all(mat_det([row[:k] for row in shifted[:k]]) > 0
                         for k in range(1, n + 1))


class TestInvNormBound:
    def test_identity(self):
        assert inv_norm_lemma([[1, 0], [0, 1]]) == (16, True)  # n^(n+2)

    def test_diag(self):
        assert inv_norm_lemma([[1, 0], [0, 3]]) == (16, True)

    def test_bound_dominates_certified_value(self):
        rng = random.Random(5)
        done = 0
        while done < 8:
            cols = [[rng.randrange(-5, 6) for _ in range(3)]
                    for _ in range(3)]
            from latnf.qlinalg import transpose
            if mat_det(transpose(cols)) == 0:
                continue
            assert inv_norm_lemma(cols)[1]
            done += 1


class TestGramDetInterval:
    def test_exact_input(self):
        v = gram_det_interval([[1, 0], [0, 1]], Q(0), Q(1), Q(1), Q(1))
        assert v.status == "certified"
        assert v.det_gram == 1

    def test_small_perturbation(self):
        e = Q(1, 10 ** 6)
        v = gram_det_interval([[1 + e, 0], [0, 1 - e]], e, Q(1), Q(1), Q(2))
        assert v.status == "certified"
        assert Q(7, 8) <= v.det_gram <= Q(9, 8)

    def test_above_threshold(self):
        v0 = gram_det_interval([[1, 0], [0, 1]], Q(0), Q(1), Q(1), Q(1))
        v = gram_det_interval([[1, 0], [0, 1]], v0.threshold * 2,
                              Q(1), Q(1), Q(1))
        assert v.status == "insufficient_precision"

    def test_random_pairs_within_budget(self):
        rng = random.Random(7)
        from latnf.lattice_core import enumerate_minima
        from latnf.qlinalg import dot, transpose
        done = 0
        while done < 10:
            n = rng.randrange(2, 4)
            cols = [[rng.randrange(-4, 5) for _ in range(n)]
                    for _ in range(n)]
            if mat_det(transpose(cols)) == 0:
                continue
            rep = enumerate_minima(cols)
            cond = Q(1)
            for j in range(n):
                cond *= Q(dot(cols[j], cols[j]), rep.minima_sq[j])
            # conservative upper bounds feeding the epsilon formula
            norm_sq_up = Q(n) * max(dot(c, c) for c in cols)
            eps = epsilon_threshold(n, n, cond + 1, rep.minima_sq[0],
                                    norm_sq_up)
            pert = [[Q(x) + Q(rng.randrange(-1, 2)) * eps / 2 for x in c]
                    for c in cols]
            exact_det = mat_det([[dot(a, b) for b in
                                  [[Q(x) for x in cc] for cc in cols]]
                                 for a in [[Q(x) for x in cc] for cc in cols]])
            v = gram_det_interval(pert, eps, cond + 1, rep.minima_sq[0],
                                  norm_sq_up)
            assert v.status == "certified"
            assert Q(7, 8) * exact_det <= v.det_gram <= Q(9, 8) * exact_det
            done += 1


class TestDecideEqual:
    def test_equal(self):
        assert decide_equal_lattice([[1, 0], [0, 1]], Q(1)) == "equal"

    def test_index_two(self):
        assert decide_equal_lattice([[2, 0], [0, 1]], Q(1)) == \
            "proper_sublattice"

    def test_index_three_with_loose_d(self):
        assert decide_equal_lattice([[3, 0], [0, 1]], Q(5, 4)) == \
            "proper_sublattice"

    def test_hundred_constructed_cases(self):
        rng = random.Random(8)
        from latnf.qlinalg import transpose
        errors = 0
        for _ in range(100):
            n = rng.randrange(2, 4)
            while True:
                cols = [[rng.randrange(-4, 5) for _ in range(n)]
                        for _ in range(n)]
                d = mat_det(transpose(cols))
                if d != 0:
                    break
            covol = abs(d)
            index = rng.choice([1, 2, 3])
            sub = [list(c) for c in cols]
            sub[0] = [index * x for x in sub[0]]
            d_val = covol * Q(rng.randrange(76, 124), 100)
            verdict = decide_equal_lattice(sub, d_val)
            want = "equal" if index == 1 else "proper_sublattice"
            if verdict != want:
                errors += 1
        assert errors == 0


class TestApproxRho:
    def test_provable_too_small(self, qi):
        with pytest.raises(ValueError, match="truncation too small"):
            approx_rho(qi, truncation=100, roots_of_unity=4)

    def test_bach_product_converges(self, qi):
        ax = bach_product(qi, 2000)
        assert abs(float(ax) - math.pi / 4) < 0.05


class TestModulusRatio:
    def test_trivial(self):
        assert modulus_ratio([]) == 1

    def test_p2(self, qs5):
        p2 = kummer_dedekind(qs5, 2)[0][0]
        assert modulus_ratio([p2]) == 2

    def test_p2_p3(self, qs5):
        p2 = kummer_dedekind(qs5, 2)[0][0]
        p3 = kummer_dedekind(qs5, 3)[0][0]
        assert modulus_ratio([p2, p3]) == 3

    def test_duplicates_ignored(self, qs5):
        p2 = kummer_dedekind(qs5, 2)[0][0]
        assert modulus_ratio([p2, p2]) == 2


class TestMertens:
    def test_x10(self):
        prod, lo, hi = mertens_bracket(10)
        assert prod == Q(35, 8)
        assert lo <= float(prod) <= hi

    def test_x2_empty_product(self):
        prod, lo, hi = mertens_bracket(2)
        assert prod == 1
        assert lo <= 1.0 <= hi

    def test_x100(self):
        prod, lo, hi = mertens_bracket(100)
        assert lo <= float(prod) <= hi

    def test_rho_ratio_bracket(self, qs5):
        rho = exact_rho(qs5, 2, 1.0, 2)
        value, lo, hi = rho_ratio_bracket(qs5, 50, rho)
        assert lo <= value <= hi


class TestGrenieMolteni:
    def test_bound_holds(self, qi, qs5):
        for field in (qi, qs5):
            for x in (150, 400):
                m0_log = 0.0
                for p in primes_up_to(field, x):
                    if p.norm() < x:
                        m0_log += math.log(p.norm())
                assert m0_log <= grenie_molteni_bound(field, x)


class TestIpsenRehman:
    def test_spot_check(self):
        rng = random.Random(9)
        checked = 0
        while checked < 8:
            a = [[Q(rng.randrange(-5, 6)) for _ in range(3)]
                 for _ in range(3)]
            if mat_det(a) == 0:
                continue
            e = [[Q(rng.randrange(-1, 2), 1000) for _ in range(3)]
                 for _ in range(3)]
            ae = [[a[i][j] + e[i][j] for j in range(3)] for i in range(3)]
            n_ainv = math.sqrt(sum(float(x) ** 2 for r in mat_inv(a)
                                   for x in r))
            n_e = math.sqrt(sum(float(x) ** 2 for r in e for x in r))
            if n_ainv * n_e > 1 / 3:
                continue
            lhs = abs(float(mat_det(ae) - mat_det(a))) / abs(float(mat_det(a)))
            assert lhs <= 2 * 3 * n_ainv * n_e + 1e-9
            checked += 1
