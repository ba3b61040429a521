import math
import random
from fractions import Fraction as Q

import pytest

from latnf.lattice_core import (enumerate_minima, enumerate_minima_gram, gso,
                                lll, size_reduce)
from latnf.qlinalg import dot, gram_matrix, mat_det, mat_inv, transpose
from oracles import count_in_box, lll_reference


def dual_basis(cols):
    """Columns of B^{-T} for a square exact basis: the rows of B^{-1}."""
    return mat_inv(transpose(cols))


class TestGso:
    def test_spec_example(self):
        bstar, mu, pot2 = gso([[1, 0], [1, 2]])
        assert bstar[0] == [1, 0] and bstar[1] == [0, 2]
        assert pot2 == 4          # P(B) = 1^2 * 2

    def test_identity(self):
        assert gso([[1, 0], [0, 1]])[2] == 1

    def test_gs_fraction_lemma(self):
        # covol(b_1..b_{j-1})^2 * b*_j is integral for integral bases
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randrange(2, 5)
            cols = [[rng.randrange(-9, 10) for _ in range(n)]
                    for _ in range(n)]
            if mat_det(transpose(cols)) == 0:
                continue
            bstar, mu, _ = gso(cols)
            d = Q(1)
            for j in range(n):
                if j > 0:
                    d *= dot(bstar[j - 1], bstar[j - 1])
                for x in bstar[j]:
                    assert (d * x).denominator == 1

    def test_gs_upper_bound(self):
        # ||b*_j||^2 <= P(B)^2 for integral bases
        rng = random.Random(3)
        for _ in range(10):
            cols = [[rng.randrange(-5, 6) for _ in range(3)] for _ in range(3)]
            if mat_det(transpose(cols)) == 0:
                continue
            bstar, _, pot2 = gso(cols)
            for b in bstar:
                assert dot(b, b) <= pot2

    def test_rank_deficient(self):
        with pytest.raises(ValueError):
            gso([[1, 0], [2, 0]])


class TestSizeReduce:
    def test_subtracts_multiple(self):
        red, u = size_reduce([[1, 0], [3, 1]])
        assert red[1] == [0, 1]

    def test_already_reduced(self):
        red, _ = size_reduce([[1, 0], [0, 1]])
        assert red == [[1, 0], [0, 1]]

    def test_scaled_example(self):
        red, _ = size_reduce([[10, 0], [9, 10]])
        assert red[1] == [-1, 10]

    def test_norm_bound(self):
        # ||b_j|| <= sqrt(n) max ||b*_i|| after size reduction (integral)
        rng = random.Random(4)
        for _ in range(15):
            cols = [[rng.randrange(-20, 21) for _ in range(3)]
                    for _ in range(3)]
            if mat_det(transpose(cols)) == 0:
                continue
            red, _ = size_reduce(cols)
            bstar, _, _ = gso(red)
            mx = max(dot(b, b) for b in bstar)
            for c in red:
                assert dot(c, c) <= 3 * mx


class TestLll:
    def test_two_dim(self):
        red, _ = lll([[1, 1], [1, 0]])
        assert min(dot(c, c) for c in red) == 1

    def test_orthogonal_unchanged(self):
        red, _ = lll([[2, 0], [0, 1]])
        assert sorted(dot(c, c) for c in red) == [1, 4]

    def test_hermite_bound_vs_enumeration(self):
        rng = random.Random(11)
        done = 0
        while done < 8:
            cols = [[rng.randrange(-9, 10) for _ in range(4)]
                    for _ in range(4)]
            if mat_det(transpose(cols)) == 0:
                continue
            red, u = lll(cols)
            rep = enumerate_minima(red)
            assert dot(red[0], red[0]) <= 8 * rep.minima_sq[0]
            done += 1

    def test_transform_and_reference_agree(self):
        rng = random.Random(12)
        done = 0
        while done < 10:
            n = rng.randrange(2, 5)
            cols = [[rng.randrange(-30, 31) for _ in range(n)]
                    for _ in range(n)]
            if mat_det(transpose(cols)) == 0:
                continue
            a1, u1 = lll(cols)
            a2, _ = lll_reference(cols)
            assert [[Q(x) for x in c] for c in a1] == a2
            recon = [[sum(Q(cols[i][r]) * u1[i][j] for i in range(n))
                      for r in range(n)] for j in range(n)]
            assert recon == [[Q(x) for x in c] for c in a1]
            done += 1


class TestDual:
    def test_identity(self):
        assert dual_basis([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]

    def test_diagonal(self):
        d = dual_basis([[1, 0], [0, 2]])
        assert d == [[1, 0], [0, Q(1, 2)]]

    def test_double_dual(self):
        rng = random.Random(5)
        for _ in range(10):
            cols = [[rng.randrange(-5, 6) for _ in range(3)]
                    for _ in range(3)]
            if mat_det(transpose(cols)) == 0:
                continue
            dd = dual_basis(dual_basis(cols))
            assert [[Q(x) for x in c] for c in dd] == \
                [[Q(x) for x in c] for c in cols]

    def test_singular(self):
        with pytest.raises(ZeroDivisionError):
            dual_basis([[1, 0], [2, 0]])


class TestEnumeration:
    def test_zn(self):
        rep = enumerate_minima([[1, 0], [0, 1]])
        assert rep.minima_sq == [1, 1]

    def test_gaussian_ring_gram(self):
        rep = enumerate_minima_gram([[2, 0], [0, 2]])
        assert rep.minima_sq == [2, 2]

    def test_diag_1_5(self):
        rep = enumerate_minima([[1, 0], [0, 5]])
        assert rep.minima_sq == [1, 25]

    def test_transference(self):
        rng = random.Random(7)
        done = 0
        while done < 20:
            n = rng.randrange(2, 4)
            cols = [[rng.randrange(-5, 6) for _ in range(n)]
                    for _ in range(n)]
            if mat_det(transpose(cols)) == 0:
                continue
            rep = enumerate_minima(cols)
            repd = enumerate_minima(dual_basis(cols))
            for i in range(n):
                prod_sq = rep.minima_sq[i] * repd.minima_sq[n - i - 1]
                assert 1 <= prod_sq <= n * n
            done += 1

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            enumerate_minima_gram([[Q(int(i == j)) for j in range(13)]
                                   for i in range(13)])


class TestCountInBox:
    def test_z2_radius_10(self):
        out = count_in_box([[1, 0], [0, 1]], 10, cov_upper_sq=Q(1, 4))
        assert out["count"] == 441
        assert out["certified"]
        lo, hi = out["interval"]
        # c = 1/2: [400 e^-0.2, 400 e^0.2]
        assert abs(lo - 400 * math.exp(-0.2)) < 1e-9
        assert abs(hi - 400 * math.exp(0.2)) < 1e-9
        assert lo <= 441 <= hi

    def test_radius_zero(self):
        out = count_in_box([[1, 0], [0, 1]], 0)
        assert out["count"] == 1

    def test_shifted(self):
        out = count_in_box([[1, 0], [0, 1]], 10,
                           shift=[Q(1, 2), Q(1, 2)], cov_upper_sq=Q(1, 4))
        assert out["count"] == 400
        lo, hi = out["interval"]
        assert lo <= 400 <= hi

    def test_counting_lemma_random(self):
        rng = random.Random(8)
        done = 0
        while done < 15:
            cols = [[rng.randrange(-3, 4) for _ in range(2)]
                    for _ in range(2)]
            if mat_det(transpose(cols)) == 0:
                continue
            shift = [Q(rng.randrange(-4, 5), 4) for _ in range(2)]
            r = rng.randrange(8, 16)
            out = count_in_box(cols, r, shift=shift)
            if not out["certified"]:
                continue
            lo, hi = out["interval"]
            assert lo <= out["count"] <= hi
            done += 1

    def test_average_count_property(self):
        # mean over random shifts approximates vol(S)/covol
        rng = random.Random(9)
        total = 0
        trials = 3000
        # box [0, 3.7] x [0, 2.2] encoded as radius/shift:
        # (L + c) cap S: use S = r(X + t') with r = 1, asymmetric via shift
        # simpler: count integer points in [u, u+3.7] x [v, v+2.2]
        for _ in range(trials):
            u = rng.random() * 7 - 3.5
            v = rng.random() * 7 - 3.5
            cnt = (math.floor(u + 3.7) - math.ceil(u) + 1) * \
                  (math.floor(v + 2.2) - math.ceil(v) + 1)
            total += cnt
        mean = total / trials
        vol = 3.7 * 2.2
        sigma_est = 3 * math.sqrt(vol / trials)  # generous
        assert abs(mean - vol) < 3 * 0.06 + sigma_est


class TestMinkowskiSumProperty:
    def test_box_sum_identity(self):
        # (rX) + (sX) = (r+s)X for boxes: sampled membership check
        rng = random.Random(10)
        r, s = Q(3, 2), Q(5, 3)
        for _ in range(200):
            x = [Q(rng.randrange(-12, 13), 8) for _ in range(2)]
            y = [Q(rng.randrange(-14, 15), 8) for _ in range(2)]
            if all(abs(v) <= r for v in x) and all(abs(v) <= s for v in y):
                z = [a + b for a, b in zip(x, y)]
                assert all(abs(v) <= r + s for v in z)
        # converse inclusion on sampled points of (r+s)X
        for _ in range(200):
            z = [Q(rng.randrange(-25, 26), 8) for _ in range(2)]
            if all(abs(v) <= r + s for v in z):
                x = [v * r / (r + s) for v in z]
                y = [v * s / (r + s) for v in z]
                assert all(abs(v) <= r for v in x)
                assert all(abs(v) <= s for v in y)
