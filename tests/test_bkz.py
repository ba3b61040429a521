import random
from fractions import Fraction as Q

import oracles
import pytest
from test_lattice_pinned import _dyadic

from latnf.bkz import (BkzConfig, bkz_full, bkz_prime, c1_bound_sq_ok,
                       full_bound_sq_ok, hkz_reduce)
from latnf.lattice_core import (IntegralGSO, enumerate_minima, gso, int_gram,
                                shortest_gram)
from latnf.qlinalg import dot, gram_matrix, integral_cols, mat_det, transpose


def _random_basis(rng, n, spread):
    while True:
        cols = [[rng.randrange(-spread, spread + 1) for _ in range(n)]
                for _ in range(n)]
        if mat_det(transpose(cols)) != 0:
            return cols


class TestHkz:
    def test_identity_fixed(self):
        out, u = hkz_reduce([[1, 0], [0, 1]])
        assert sum(x * x for x in out[0]) == 1

    def test_skew_two_dim(self):
        out, _ = hkz_reduce([[1, 0], [100, 1]])
        assert dot(out[0], out[0]) == 1

    def test_projected_minima(self):
        rng = random.Random(5)
        for _ in range(6):
            cols = _random_basis(rng, 3, 9)
            out, u = hkz_reduce(cols)
            assert abs(mat_det([[Q(x) for x in r] for r in u])) == 1
            bstar, _, _ = gso(out)
            ints, den = integral_cols(out)
            state = IntegralGSO(int_gram(ints))
            for j in range(3):
                # pi_j(b_j..b_2), scaled to integers by d_j den
                g = gram_matrix(state.projected(ints, j, 3 - j))
                _, lam2 = shortest_gram(g)
                scale = state.d[j] * den
                assert dot(bstar[j], bstar[j]) * scale * scale == lam2

    def test_potential_increase_bound(self):
        rng = random.Random(6)
        for _ in range(5):
            cols = _random_basis(rng, 3, 12)
            p_in = gso([[Q(x) for x in c] for c in cols])[2]
            out, _ = hkz_reduce(cols)
            p_out = gso(out)[2]
            assert p_out <= Q(3) ** (4 * 3 * 3) * p_in

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            hkz_reduce([[int(i == j) for j in range(13)] for i in range(13)])


class TestBkzPrime:
    def test_z2_trivial(self):
        out, tr = bkz_prime([[1, 0], [0, 1]], BkzConfig(blocksize=2))
        assert c1_bound_sq_ok(out, 2)
        assert tr.tours == 1

    def test_already_hkz_single_tour(self):
        cols = [[1, 0], [0, 2]]
        out, tr = bkz_prime(cols, BkzConfig(blocksize=2))
        assert tr.tours == 1
        assert [[int(x) for x in c] for c in out] == cols

    def test_six_dim_bound(self):
        rng = random.Random(11)
        cols = _random_basis(rng, 6, 50)
        out, tr = bkz_prime(cols, BkzConfig(blocksize=3))
        assert c1_bound_sq_ok(out, 3)

    def test_unimodular_transform(self):
        rng = random.Random(13)
        cols = _random_basis(rng, 4, 20)
        out, tr = bkz_prime(cols, BkzConfig(blocksize=2))
        n = 4
        recon = [[sum(Q(cols[i][r]) * tr.transform[i][j] for i in range(n))
                  for r in range(n)] for j in range(n)]
        assert recon == [[Q(x) for x in c] for c in out]
        assert abs(mat_det([[Q(x) for x in r] for r in tr.transform])) == 1

    def test_coefficient_bit_bound(self):
        # every size-reduced intermediate coefficient fits in
        # 5 log2(n P) + 3 bits: check the final basis
        rng = random.Random(15)
        cols = _random_basis(rng, 4, 30)
        out, _ = bkz_prime(cols, BkzConfig(blocksize=2))
        _, _, pot2 = gso(out)
        import math
        bound = 5 * math.log2(4 * float(pot2) ** 0.5) + 3
        for c in out:
            for x in c:
                assert abs(Q(x).numerator).bit_length() <= bound + 1


class TestBkzFull:
    def test_zn(self):
        out, _ = bkz_full([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                          BkzConfig(blocksize=2))
        assert all(dot(c, c) == 1 for c in out)

    def test_dim5_bound(self):
        rng = random.Random(16)
        cols = _random_basis(rng, 5, 30)
        out, _ = bkz_full(cols, BkzConfig(blocksize=3))
        rep = enumerate_minima(out)
        assert full_bound_sq_ok(out, 3, rep.minima_sq[-1])

    def test_diag_with_outlier(self):
        cols = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0], [0, 0, 0, 0, 1000]]
        out, _ = bkz_full(cols, BkzConfig(blocksize=2))
        assert dot(out[0], out[0]) == 1
        rep = enumerate_minima(out)
        assert full_bound_sq_ok(out, 2, rep.minima_sq[-1])

    def test_hkz_first_vector_matches_lambda1(self):
        rng = random.Random(17)
        for _ in range(4):
            cols = _random_basis(rng, 4, 15)
            out, _ = hkz_reduce(cols)
            rep = enumerate_minima(cols)
            assert dot(out[0], out[0]) == rep.minima_sq[0]


class TestAgainstReference:
    """BKZ' and the recursive BKZ' give the basis, transform, tour count
    and HKZ count of `oracles.bkz_prime_reference` and
    `bkz_full_reference`, the loops that rebuilt the GSO after every
    block change and reduced each block as projected vectors."""

    @staticmethod
    def _bases():
        rng = random.Random(18)
        bases = [(_random_basis(rng, n, spread), b)
                 for n, spread, b in ((4, 20, 2), (5, 60, 3), (6, 30, 3),
                                      (6, 255, 4), (7, 40, 3), (5, 90, 4),
                                      (4, 60, 4))]
        bases += [(_dyadic(rng, 4), 2), (_dyadic(rng, 5, 96), 3),
                  (_dyadic(rng, 6, 128), 2), (_dyadic(rng, 3, 128), 2)]
        bases.append(([[Q(rng.randrange(-40, 41), rng.randrange(1, 9))
                        for _ in range(4)] for _ in range(4)], 2))
        return bases

    @pytest.mark.parametrize("fn,ref", [
        (bkz_prime, oracles.bkz_prime_reference),
        (bkz_full, oracles.bkz_full_reference)])
    def test_seeded_bases(self, fn, ref):
        for cols, b in self._bases():
            cfg = BkzConfig(blocksize=b)
            out, tr = fn(cols, cfg)
            assert (out, tr.transform, tr.tours, tr.hkz_calls) == \
                ref(cols, cfg)

    def test_tour_cap(self):
        rng = random.Random(19)
        cols = _random_basis(rng, 6, 255)
        for tours in (1, 2):
            cfg = BkzConfig(blocksize=2, max_tours=tours)
            out, tr = bkz_full(cols, cfg)
            assert (out, tr.transform, tr.tours, tr.hkz_calls) == \
                oracles.bkz_full_reference(cols, cfg)
