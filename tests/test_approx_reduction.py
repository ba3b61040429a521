import random
from fractions import Fraction as Q

import pytest

from latnf import approx_reduction
from latnf.approx_reduction import (ApproxGenerators, BkpResult,
                                    approx_bkz_ideal, bkp_twice,
                                    dual_exp_reduce, rowmax_norm_sq)
from latnf.ideal_arith import HnfIdeal, hnf_mul, kummer_dedekind
from latnf.lattice_core import enumerate_minima_gram
from latnf.nf_core import new_field
from latnf.qlinalg import mat_det, mat_inv
from oracles import bkp_once, minkowski_gram


# The paper's bound on the coefficients of a lattice point over a
# T-dually reduced basis, checked here against enumeration.

def lattice_point_coeff_bound(t: int, n: int, v_norm_sq_upper: Q,
                              lambda1_sq_lower: Q) -> Q:
    """Certified bound on ||u||^2 for v = B u over a T-dually reduced B
    with T = t: ||u||^2 <= n^3 2^(nT) ||v||^2 / lambda_1^2."""
    return (Q(n) ** 3 * Q(2) ** (n * t) * Q(v_norm_sq_upper)
            / Q(lambda1_sq_lower))


class TestRowmaxNorm:
    def test_identity(self):
        assert rowmax_norm_sq([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1

    def test_rows(self):
        assert rowmax_norm_sq([[3, 4], [0, 1]]) == 25

    def test_almost_submultiplicative(self):
        rng = random.Random(2)
        for _ in range(8):
            a = [[Q(rng.randrange(-5, 6)) for _ in range(4)] for _ in range(4)]
            b = [[Q(rng.randrange(-5, 6)) for _ in range(4)] for _ in range(4)]
            ab = [[sum(a[i][k] * b[k][j] for k in range(4))
                   for j in range(4)] for i in range(4)]
            assert rowmax_norm_sq(ab) <= 4 * rowmax_norm_sq(a) * rowmax_norm_sq(b)


class TestBkpOnce:
    def test_redundant_generator(self):
        gens = ApproxGenerators(rows=[[Q(1), Q(0)], [Q(0), Q(1)], [Q(1), Q(1)]],
                                err=Q(1, 2 ** 40), mu=Q(1, 2), r0=2)
        res = bkp_once(gens)
        assert res.rank == 2
        assert abs(mat_det([[Q(x) for x in r] for r in res.basis_rows])) == 1

    def test_exact_basis_short(self):
        gens = ApproxGenerators(rows=[[Q(1), 0, 0], [0, Q(1), 0], [0, 0, Q(1)]],
                                err=Q(1, 2 ** 60), mu=Q(1, 2), r0=3)
        res = bkp_once(gens)
        assert res.rank == 3
        # ||b_j|| <= (sqrt(r n2)+2) 2^((r-1)/2) lambda_j = 10 here
        for row in res.basis_rows:
            assert sum(Q(x) ** 2 for x in row) <= 100

    def test_error_rejected(self):
        gens = ApproxGenerators(rows=[[Q(1), 0], [0, Q(1)]],
                                err=Q(1, 2), mu=Q(1, 2), r0=2)
        with pytest.raises(ValueError):
            bkp_once(gens)

    def test_perturbed_rank1(self):
        # rank-1 lattice in R^2 spanned by (R, -R) with noise at half the
        # admissible threshold
        reg = Q(88137, 100000)
        eps = Q(1, 2 ** 90)
        rows = [[reg + eps / 3, -reg + eps / 5],
                [2 * reg - eps / 4, -2 * reg + eps / 7]]
        gens = ApproxGenerators(rows=rows, err=eps, mu=Q(1, 2), r0=2)
        res = bkp_once(gens)
        assert res.rank == 1


class TestBkpTwice:
    def test_rank_and_lambda_bounds(self):
        gens = ApproxGenerators(rows=[[Q(1), 0, 0], [0, Q(1), 0], [0, 0, Q(1)]],
                                err=Q(1, 2 ** 120), mu=Q(1, 2), r0=3)
        res = bkp_twice(gens)
        assert res.rank == 3
        for row in res.basis_rows:
            assert sum(Q(x) ** 2 for x in row) <= 100

    def test_rank_deficient(self):
        gens = ApproxGenerators(rows=[[Q(2), Q(1)], [Q(2), Q(1)]],
                                err=Q(1, 2 ** 80), mu=Q(1), r0=2)
        assert bkp_twice(gens).rank == 1

    def test_synthetic_recovery(self):
        # known integer lattices with redundant perturbed generators
        rng = random.Random(9)
        hits = 0
        for _ in range(12):
            base = [[rng.randrange(-4, 5) for _ in range(3)] for _ in range(2)]
            if _rank(base) != 2:
                continue
            third = [a + b for a, b in zip(base[0], base[1])]
            eps = Q(1, 2 ** 150)
            rows = [[Q(x) + Q(rng.randrange(-1, 2)) * eps / 4 for x in r]
                    for r in (base + [third])]
            gens = ApproxGenerators(rows=rows, err=eps, mu=Q(1, 2), r0=3)
            res = bkp_twice(gens)
            assert res.rank == 2
            hits += 1
        assert hits >= 6


def _rank(rows):
    from latnf.qlinalg import hnf_with_transform
    h, _ = hnf_with_transform([list(r) for r in rows])
    return sum(1 for r in h if any(r))


@pytest.fixture(scope="module")
def qi():
    return new_field([1, 0, 1])


@pytest.fixture(scope="module")
def qs5():
    return new_field([5, 0, 1])


class TestDualExpReduce:
    def test_gaussian_ring(self, qi):
        ok = HnfIdeal.ring_of_integers(qi)
        res = dual_exp_reduce([1, 1], ok)
        g = minkowski_gram(qi, res.elements)
        rep = enumerate_minima_gram(g)
        assert rep.minima_sq == [2, 2]
        # dual rows within 2^(Tn) of the dual minima
        ginv = mat_inv(g)
        repd = enumerate_minima_gram(ginv)
        for j in range(2):
            assert ginv[j][j] <= Q(2) ** (2 * 3 * 2) * repd.minima_sq[j]

    def test_p2_tag(self, qs5):
        p2 = kummer_dedekind(qs5, 2)[0][0]
        res = dual_exp_reduce([1, 1], p2.hnf)
        g = minkowski_gram(qs5, res.elements)
        ginv = mat_inv(g)
        repd = enumerate_minima_gram(ginv)
        for j in range(2):
            assert ginv[j][j] <= Q(2) ** (2 * 3 * 2) * repd.minima_sq[j]

    def test_scaling_equivariance(self, qs5):
        p2 = kummer_dedekind(qs5, 2)[0][0]
        r1 = dual_exp_reduce([1, 1], p2.hnf)
        r2 = dual_exp_reduce([2, 2], p2.hnf)
        # same ideal module either way
        assert HnfIdeal.from_generators(qs5, r1.elements) == \
            HnfIdeal.from_generators(qs5, r2.elements) == p2.hnf

    def test_double_dual_identity(self, qi):
        ok = HnfIdeal.ring_of_integers(qi)
        res = dual_exp_reduce([1, 1], ok)
        g = minkowski_gram(qi, res.elements)
        dd = mat_inv(mat_inv(g))
        assert dd == g

    def test_non_unimodular_transform_rejected(self, qi, monkeypatch):
        monkeypatch.setattr(
            approx_reduction, "bkp_twice",
            lambda gens: BkpResult(2, [[2, 0], [0, 1]], gens.rows, gens.den))
        with pytest.raises(ValueError, match="not unimodular"):
            dual_exp_reduce([1, 1], HnfIdeal.ring_of_integers(qi))

    def test_rung_decided_by_the_budget(self, qi, monkeypatch):
        # the rung climbs only while the budget fails; any other
        # ValueError of bkp_twice reaches the caller (exit 2), where a
        # catch-all would climb to CapExceeded (exit 4)
        seen = []
        budget = approx_reduction.double_bkp_budget_met

        def spy(gens):
            seen.append(budget(gens))
            return seen[-1]

        def refuse(gens):
            raise ValueError("unrelated refusal")

        monkeypatch.setattr(approx_reduction, "double_bkp_budget_met", spy)
        monkeypatch.setattr(approx_reduction, "bkp_twice", refuse)
        with pytest.raises(ValueError, match="unrelated refusal"):
            dual_exp_reduce([1, 1], HnfIdeal.ring_of_integers(qi))
        assert seen and seen[-1] and not any(seen[:-1])


class TestApproxBkzIdeal:
    def test_gaussian_ring_bound(self, qi):
        ok = HnfIdeal.ring_of_integers(qi)
        res = approx_bkz_ideal([1, 1], ok, 2)
        g = minkowski_gram(qi, res.elements)
        rep = enumerate_minima_gram(g)
        for j in range(2):
            assert g[j][j] <= (2 * 2 * 2 ** 4) ** 2 * rep.minima_sq[-1]

    def test_principal_product(self, qs5):
        p2 = kummer_dedekind(qs5, 2)[0][0]
        p3 = kummer_dedekind(qs5, 3)[0][0]
        prod = hnf_mul(p2.hnf, p3.hnf)
        res = approx_bkz_ideal([1, 1], prod, 2)
        assert HnfIdeal.from_generators(qs5, res.elements) == prod
        g = minkowski_gram(qs5, res.elements)
        rep = enumerate_minima_gram(g)
        for j in range(2):
            assert g[j][j] <= (2 * 2 * 2 ** 4) ** 2 * rep.minima_sq[-1]
        # the principal generator 1+sqrt(-5) has norm^2 = 12; one basis
        # vector must be at least as short as the bound allows
        assert min(g[j][j] for j in range(2)) <= 12

    def test_scaling_doubles_lengths(self, qs5):
        p2 = kummer_dedekind(qs5, 2)[0][0]
        r1 = approx_bkz_ideal([1, 1], p2.hnf, 2)
        r2 = approx_bkz_ideal([2, 2], p2.hnf, 2)
        assert HnfIdeal.from_generators(qs5, r1.elements) == \
            HnfIdeal.from_generators(qs5, r2.elements)


class TestCoeffBound:
    def test_zn(self):
        assert lattice_point_coeff_bound(0, 2, Q(1), Q(1)) == 8

    def test_exact_solve(self, qi):
        # v = 3 + 4i over the basis (1, i): u = (3,4): ||u||^2 = 25
        bound = lattice_point_coeff_bound(3, 2, Q(50), Q(2))
        assert bound >= 25

    def test_random_dually_reduced(self):
        rng = random.Random(15)
        from latnf.lattice_core import enumerate_minima
        from latnf.qlinalg import dot, transpose
        done = 0
        while done < 5:
            cols = [[rng.randrange(-4, 5) for _ in range(3)] for _ in range(3)]
            if mat_det(transpose(cols)) == 0:
                continue
            from latnf.lattice_core import lll as _lll
            cols, _ = _lll(cols)
            rep = enumerate_minima(cols)
            dual = [list(r) for r in
                    zip(*mat_inv(transpose([[Q(x) for x in c] for c in cols])))]
            repd = enumerate_minima(dual)
            # find the smallest valid T tag for this basis
            t_tag = 0
            while any(dot(dual[j], dual[j]) >
                      Q(2) ** (2 * t_tag * 3) * repd.minima_sq[j]
                      for j in range(3)):
                t_tag += 1
            u = [rng.randrange(-3, 4) for _ in range(3)]
            if not any(u):
                continue
            v = [sum(cols[i][k] * u[i] for i in range(3)) for k in range(3)]
            v2 = sum(Q(x) ** 2 for x in v)
            bound = lattice_point_coeff_bound(
                t_tag, 3, v2, rep.minima_sq[0])
            assert sum(x * x for x in u) <= bound
            done += 1
