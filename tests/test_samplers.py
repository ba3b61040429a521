import json
import math
import random
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from oracles import chi2_sf, chi2_uniform_stat, klein_sample_reference

from latnf import samplers
from latnf.approx_reduction import IdealBasisResult
from latnf.cli import EXIT_PRECONDITION, EXIT_VERIFICATION, main
from latnf.ideal_arith import HnfIdeal, hnf_mul, kummer_dedekind, primes_up_to
from latnf.intmath import rational_root_floor
from latnf.nf_core import CapExceeded, new_field
from latnf.dyadic import round_ratio
from latnf.qlinalg import dot, inverse_scaled, transpose
from latnf.samplers import (RETRY_CAP, GridBox, RadiusExpr, SamplerConfig,
                            _radius_times_sqrt2, _uniform_grid_point,
                            _z_gaussian, klein_min_width,
                            klein_sample, perfect_box_lattice,
                            prefilter_boxes, sample_in_box,
                            sample_z_gaussian, walk_radius)


@pytest.fixture(scope="module")
def qi():
    return new_field([1, 0, 1])


@pytest.fixture(scope="module")
def qr2():
    return new_field([-2, 0, 1])


# The smoothing-parameter and Gaussian-tail bounds of the paper, checked
# here against the library's samplers.

def smoothing_upper(minima_sq_last: Q, n: int, eps: float) -> float:
    """eta_eps(L) <= sqrt(log(2n(1+1/eps))/pi) * lambda_n."""
    return math.sqrt(math.log(2 * n * (1 + 1 / eps)) / math.pi) * math.sqrt(
        float(minima_sq_last))


def gaussian_tail_discrete(s: float, n: int, eps: float) -> float:
    """Banaszczyk-type: Pr[||x|| >= s sqrt(log(1/eps) + 2n)] <= eps."""
    return s * math.sqrt(math.log(1 / eps) + 2 * n)


def gaussian_tail_continuous(s: float, n: int, eps: float) -> float:
    """Chernoff/union: Pr[||x|| >= s sqrt(2n log(2n/eps))] <= eps."""
    return s * math.sqrt(2 * n * math.log(2 * n / eps))


class TestZGaussian:
    def test_mean_near_center(self):
        rng = random.Random(42)
        n = 20000
        vals = [sample_z_gaussian(2.0, 0.0, 0.01, rng) for _ in range(n)]
        sigma = 2.0 / math.sqrt(2 * math.pi)
        assert abs(sum(vals) / n) < 4 * sigma / math.sqrt(n) * 2

    def test_hard_window(self):
        rng = random.Random(1)
        t = math.sqrt(math.log(2 / 0.5) + 2)
        for _ in range(500):
            z = sample_z_gaussian(1000.0, 0.25, 0.5, rng)
            assert abs(z - 0.25) <= 1000.0 * t + 1

    def test_tv_against_exact_pmf(self):
        # delta = 0.5 budget: measured TV to the exact pmf stays below it
        rng = random.Random(2)
        n = 40000
        counts = {}
        for _ in range(n):
            z = sample_z_gaussian(1.0, 0.0, 0.5, rng)
            counts[z] = counts.get(z, 0) + 1
        support = range(-4, 5)
        weights = {z: math.exp(-math.pi * z * z) for z in support}
        total = sum(weights.values())
        tv = 0.5 * sum(abs(counts.get(z, 0) / n - w / total)
                       for z, w in weights.items())
        assert tv <= 0.5

    def test_parameter_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            sample_z_gaussian(0.0, 0.0, 0.1, rng)
        with pytest.raises(ValueError):
            sample_z_gaussian(1.0, 0.0, 1.5, rng)


class _NeverAccepts:
    """An rng whose draws every rejection loop refuses: Gaussians far
    outside any window, and grid coordinates in the corner of the box."""

    def __init__(self):
        self.draws = 0

    def gauss(self, mu, sigma):
        self.draws += 1
        return 1e9

    def randint(self, lo, hi):
        self.draws += 1
        return hi


class TestRejectionCaps:
    def test_rounded_gaussian_stops_at_the_cap(self):
        # s = 10^7 takes the rounded-continuous branch
        rng = _NeverAccepts()
        with pytest.raises(CapExceeded, match="integer Gaussian"):
            _z_gaussian(10 ** 7, 0, 3.0, 0.5, rng)
        assert rng.draws == RETRY_CAP

    def test_disc_draw_stops_at_the_cap(self):
        # the corner (5, 5) lies outside the disc of radius 5
        rng = _NeverAccepts()
        box = GridBox([], [((0, 1), RadiusExpr(5, 1))])
        with pytest.raises(CapExceeded, match="disc draw"):
            _uniform_grid_point(box, [5], 1, rng)
        assert rng.draws == 2 * RETRY_CAP


class TestKlein:
    def test_hard_norm_bound(self):
        rng = random.Random(3)
        eps_g = 0.01
        bound = 3 * math.sqrt(2 * math.log(2 * 4 / eps_g))
        for _ in range(400):
            _, v = klein_sample([[1, 0], [0, 1]], 3, [0, 0], eps_g, rng)
            assert math.sqrt(sum(float(x) ** 2 for x in v)) <= bound + 1e-9

    def test_mode_at_lattice_center(self):
        rng = random.Random(4)
        counts = {}
        width = klein_min_width([[1, 0], [0, 1]], 0.01) * 1.01
        for _ in range(3000):
            c, _ = klein_sample([[1, 0], [0, 1]], Q(width).limit_denominator(512),
                                [5, 7], 0.01, rng)
            counts[tuple(c)] = counts.get(tuple(c), 0) + 1
        assert max(counts, key=counts.get) == (5, 7)

    def test_precondition(self):
        rng = random.Random(5)
        with pytest.raises(ValueError):
            klein_sample([[10, 0], [0, 10]], Q(1), [0, 0], 0.01, rng)

    def test_width_past_the_float_range(self):
        """A level of width 2^1100 around the centre 2^1100/3, both past
        the float range, as `random_relation`'s fine grid makes them for
        |D| >~ 600: each draw is an integer inside its window."""
        big = 2 ** 1100
        eps_g = 0.01
        t = math.sqrt(math.log(2 / eps_g))          # n = 1, delta = eps_g/2
        rng = random.Random(8)
        for _ in range(20):
            (z,), (v,) = klein_sample([[Q(1, big)]], 1, [Q(1, 3)], eps_g, rng)
            assert type(z) is int and v == Q(z, big)
            assert abs(z - Q(big, 3)) <= big * (Q(t) + Q(1, 2 ** 19))

    def test_chi2_against_exact_pmf(self):
        rng = random.Random(6)
        s = 3.0
        n = 30000
        counts = {}
        for _ in range(n):
            c, _ = klein_sample([[1, 0], [0, 1]], 3, [0, 0], 0.01, rng)
            counts[tuple(c)] = counts.get(tuple(c), 0) + 1
        # exact pmf on the truncated support
        weights = {}
        for x in range(-12, 13):
            for y in range(-12, 13):
                weights[(x, y)] = math.exp(-math.pi * (x * x + y * y) / (s * s))
        total = sum(weights.values())
        stat = 0.0
        dof = 0
        for k, w in weights.items():
            e = n * w / total
            if e < 8:
                continue
            o = counts.get(k, 0)
            stat += (o - e) ** 2 / e
            dof += 1
        p = chi2_sf(stat, dof - 1)
        assert p > 0.001, (stat, dof, p)


class TestTails:
    def test_discrete_tail(self):
        rng = random.Random(7)
        eps = 0.05
        s = 3.0
        bound = gaussian_tail_discrete(s, 2, eps)
        n = 4000
        exceed = 0
        for _ in range(n):
            _, v = klein_sample([[1, 0], [0, 1]], 3, [0, 0], 0.001, rng)
            if math.sqrt(sum(float(x) ** 2 for x in v)) >= bound:
                exceed += 1
        sigma = math.sqrt(eps * (1 - eps) / n)
        assert exceed / n <= eps + 3 * sigma

    def test_continuous_tail(self):
        rng = random.Random(8)
        eps = 0.05
        s = 1.0
        bound = gaussian_tail_continuous(s, 2, eps)
        n = 6000
        exceed = 0
        sig_c = s / math.sqrt(2 * math.pi)
        for _ in range(n):
            x = rng.gauss(0, sig_c)
            y = rng.gauss(0, sig_c)
            if math.hypot(x, y) >= bound:
                exceed += 1
        sigma = math.sqrt(eps * (1 - eps) / n)
        assert exceed / n <= eps + 3 * sigma

    def test_smoothing_dual_sum(self):
        # at s = smoothing bound: g_{1/s}(Z^2 dual minus 0) <= eps
        eps = 0.01
        s = smoothing_upper(Q(1), 2, eps)
        total = 0.0
        for x in range(-30, 31):
            for y in range(-30, 31):
                if x == 0 and y == 0:
                    continue
                total += math.exp(-math.pi * s * s * (x * x + y * y))
        # Banaszczyk tail beyond radius 30 is far below eps/100 here
        assert total <= eps

    def test_smoothing_scaling(self):
        assert abs(smoothing_upper(Q(4), 2, 1.0)
                   - 2 * smoothing_upper(Q(1), 2, 1.0)) < 1e-12

    def test_total_gaussian_weight(self):
        # g_s(Z^2) in [1-eps, 1+eps] s^2 at s above smoothing
        eps = 0.01
        s = smoothing_upper(Q(1), 2, eps)
        total = 0.0
        for x in range(-40, 41):
            for y in range(-40, 41):
                total += math.exp(-math.pi * (x * x + y * y) / (s * s))
        assert (1 - eps) * s * s <= total <= (1 + eps) * s * s + 1e-9


_rationals = st.builds(Q, st.integers(-10 ** 6, 10 ** 6),
                       st.integers(1, 2 ** 20))


@st.composite
def klein_inputs(draw):
    """(columns, center, stretch, rng seed): n columns of length m in
    1..6 with m >= n, a random rational basis or the shape of a
    relation's basis (unit columns, the last one scaled by 1/N for N a
    power of two); a rational center; the width is stretch / 1024 times
    the minimum, stretch in [1024, 3072]."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(n, 6))
    if draw(st.booleans()):
        cols = [[Q(int(i == j)) for i in range(m)] for j in range(n)]
        cols[-1][n - 1] = Q(1, 2 ** draw(st.integers(0, 120)))
    else:
        cols = [draw(st.lists(_rationals, min_size=m, max_size=m))
                for _ in range(n)]
    center = draw(st.lists(_rationals, min_size=m, max_size=m))
    stretch = draw(st.integers(1024, 3072))
    return cols, center, stretch, draw(st.integers(0, 2 ** 32))


class TestKleinAgainstReference:
    """`klein_sample` on the integral Gram-Schmidt data draws what the
    rational Gram-Schmidt sampler draws, from one seeded rng."""

    @settings(max_examples=150, deadline=None)
    @given(klein_inputs())
    def test_same_draws(self, inputs):
        cols, center, stretch, seed = inputs
        eps_g = 1 / 100
        s = Q(math.ceil(klein_min_width(cols, eps_g) * stretch) + 1, 1024)
        results = []
        for sampler in (klein_sample, klein_sample_reference):
            rng = random.Random(seed)
            try:
                results.append([sampler(cols, s, center, eps_g, rng)
                                for _ in range(2)])
            except ValueError as exc:     # a rank-deficient basis
                results.append(str(exc))
        assert results[0] == results[1]


class TestRadiusExpr:
    def test_fourth_root(self):
        r = RadiusExpr(Q(16), 4)
        assert r.cmp_value(2) == 0
        assert r.cmp_value(3) == 1
        assert r.cmp_value(1) == -1
        assert r.floor_times(3) == 6
        lo, hi = r.bracket(40)
        assert lo <= 2 <= hi

    def test_walk_radius_value(self, qi):
        r = walk_radius(qi, Q(1), 2, 1)
        expected = 48 * 2 ** 2 * 2 ** 3.5 * 4 ** 0.75
        assert abs(float(r) - expected) / expected < 1e-9

    @pytest.mark.parametrize("constant", [0, -2])
    def test_walk_radius_rejects_a_constant_below_one(self, qi, constant):
        with pytest.raises(ValueError, match="below 1"):
            walk_radius(qi, Q(1), 2, 1, constant)

    @settings(max_examples=300, deadline=None)
    @given(num=st.integers(0, 2 ** 300), den=st.integers(1, 2 ** 300),
           k=st.integers(1, 40), pn=st.integers(0, 2 ** 600),
           pd=st.integers(1, 2 ** 600), shift=st.integers(-8, 8))
    def test_comparisons_match_fractions(self, num, den, k, pn, pd, shift):
        # v^k against pow_value and v_sq^k against pow_value^2, taken from
        # bit lengths when they decide; shift moves p next to v^k so that
        # the exact products decide too
        v = Q(num, den)
        p = Q(pn, pd) if shift % 2 else v ** k * Q(2) ** shift
        r = RadiusExpr(p, k)

        def sign(a, b):
            return (a > b) - (a < b)

        assert r.cmp_value(num, den) == sign(v ** k, p)
        assert r.cmp_value_sq(num, den) == sign(v ** k, p * p)

    @settings(max_examples=300, deadline=None)
    @given(base=st.integers(0, 2 ** 40), k=st.integers(1, 12),
           den=st.integers(1, 2 ** 64), delta=st.integers(-3, 3),
           num=st.integers(0, 2 ** 200), near_power=st.booleans())
    def test_rational_root_floor_matches_the_definition(
            self, base, k, den, delta, num, near_power):
        # x within 3/den of a perfect k-th power, or any rational
        x = (max(Q(base) ** k + Q(delta, den), Q(0)) if near_power
             else Q(num, den))
        r = rational_root_floor(x, k)
        assert r >= 0 and r ** k <= x < (r + 1) ** k

    def test_sqrt2_scaling(self):
        r = RadiusExpr(Q(16), 4)
        r2 = _radius_times_sqrt2(r)
        assert abs(float(r2) - 2 * math.sqrt(2)) < 1e-9


_EYE = [[1, 0], [0, 1]]


def _attempt(cols, t_tilde, grid_n, box, eps, oracle, rng):
    """One `perfect_box_lattice` attempt with the set-up `sample_in_box`
    makes once per call or rung: cols^-1 = Y / det, the rounded shift
    w0 = Y t / det and the boxes."""
    y, det = c_inv = inverse_scaled(transpose(cols))
    w0 = [round_ratio(dot(row, t_tilde), det) for row in y]
    return perfect_box_lattice(cols, c_inv, grid_n, w0,
                               prefilter_boxes(box, eps, grid_n), oracle, rng)


class TestPerfectBoxGrid:
    """The unshifted grid case of `perfect_box_lattice`: a zero shift and
    an oracle that accepts every candidate."""

    def test_exact_uniform_z2(self):
        rng = random.Random(9)
        box = GridBox([(0, RadiusExpr(5, 1)), (1, RadiusExpr(5, 1))], [])
        counts = {}
        n = 24000
        for _ in range(n):
            # draws on [-6, 6]^2 (1 + 4 eps = 6/5), keeps [-5, 5]^2
            w = _attempt(_EYE, [0, 0], 1, box, Q(1, 20), lambda cand: cand,
                         rng)
            assert w is not None
            counts[tuple(w)] = counts.get(tuple(w), 0) + 1
        assert len(counts) == 121
        stat, dof = chi2_uniform_stat(counts, 121, n)
        assert chi2_sf(stat, dof) > 0.001

    def test_precondition_rejection(self):
        rng = random.Random(10)
        # degenerate: box smaller than D/eps
        box = GridBox([(0, RadiusExpr(Q(1, 100), 1)),
                       (1, RadiusExpr(Q(1, 100), 1))], [])
        w = _attempt(_EYE, [0, 0], 1, box, Q(1, 10), lambda cand: cand, rng)
        assert w is None or w == [0, 0]

    def test_cell_count_identity(self):
        # (b + B[-1/2,1/2)^n) cap (1/N)Z^n has exactly N^n det(B) points
        n_grid = 2
        det_b = 4   # B = 2I
        pts = 0
        for k1 in range(-20, 21):
            for k2 in range(-20, 21):
                x, y = Q(k1, n_grid), Q(k2, n_grid)
                if -1 <= x < 1 and -1 <= y < 1:
                    pts += 1
        assert pts == n_grid ** 2 * det_b


class TestPerfectBoxLattice:
    def test_shifted_grid_uniform(self):
        rng = random.Random(11)
        box = GridBox([(0, RadiusExpr(5, 1)), (1, RadiusExpr(5, 1))], [])
        t = [Q(1, 2), Q(1, 2)]

        def oracle(v):
            ok = all(abs(Q(vi) + ti) <= 5 for vi, ti in zip(v, t))
            return tuple(v) if ok else None

        counts = {}
        n_accepted = 0
        # C~ = I and t~ = t on the grid (1/2)Z^2, passed as N C~, N t~
        cols = [[2, 0], [0, 2]]
        while n_accepted < 12000:
            got = _attempt(cols, [1, 1], 2, box, Q(1, 12), oracle, rng)
            if got is None:
                continue
            counts[got] = counts.get(got, 0) + 1
            n_accepted += 1
        assert len(counts) == 100
        stat, dof = chi2_uniform_stat(counts, 100, n_accepted)
        assert chi2_sf(stat, dof) > 0.001

    def test_reduces_to_grid_when_trivial(self):
        rng = random.Random(12)
        box = GridBox([(0, RadiusExpr(4, 1)), (1, RadiusExpr(4, 1))], [])

        def oracle(v):
            return tuple(v) if all(abs(x) <= 4 for x in v) else None

        got = _attempt(_EYE, [Q(0), Q(0)], 1, box, Q(1, 12), oracle, rng)
        assert got is not None


class TestSampleInBox:
    def test_gaussian_integers_trivial_modulus(self, qi):
        # small radius constant keeps the support enumerable; every
        # sample must satisfy the membership and box constraints exactly
        rng = random.Random(13)
        ok_ring = HnfIdeal.ring_of_integers(qi)
        cfg = SamplerConfig(radius_constant=2)
        res = sample_in_box(qi, None, [], ok_ring, qi.one(), 2,
                            [Q(1), Q(1)], 1, rng, cfg)
        assert ok_ring.contains(res.beta)
        # |sigma(beta)| <= r = RADIUS(b m0 x), b = m0 = O_K, x = (1, 1)
        radius = walk_radius(qi, Q(1), 2, 1, 2)
        from latnf.nf_core import cmp_element
        assert cmp_element(res.beta, 0, 1, radius.pow_value,
                           radius.k) == "LE"

    def test_congruence_modulus(self, qi):
        # m0 = (1+i)^2 = (2i): outputs must be = tau mod m0
        rng = random.Random(14)
        p1 = primes_up_to(qi, 2)[0]
        m0 = hnf_mul(p1.hnf, p1.hnf)
        ok_ring = HnfIdeal.ring_of_integers(qi)
        tau = qi.one()
        cfg = SamplerConfig(radius_constant=2)
        for _ in range(5):
            res = sample_in_box(qi, m0, [], ok_ring, tau, 2,
                                [Q(1), Q(1)], 1, rng, cfg)
            assert m0.contains(res.beta - tau)

    def test_totally_positive_ray(self, qr2):
        # marking both real places of Q(sqrt2) forces totally positive
        rng = random.Random(15)
        ok_ring = HnfIdeal.ring_of_integers(qr2)
        cfg = SamplerConfig(radius_constant=2)
        for _ in range(5):
            res = sample_in_box(qr2, None, [0, 1], ok_ring, qr2.one(), 2,
                                [Q(1), Q(1)], 1, rng, cfg)
            assert qr2.sign_at_real_place(res.beta, 0) == 1
            assert qr2.sign_at_real_place(res.beta, 1) == 1

    def test_uniformity_small_support(self, qi):
        # radius_constant=2: r = 2*4*2^1.5*4^(3/4) = 64: the support
        # O_K cap disc(r) is large; bin by residue class mod 3 and
        # chi-square against the exactly enumerated class sizes
        rng = random.Random(16)
        ok_ring = HnfIdeal.ring_of_integers(qi)
        cfg = SamplerConfig(radius_constant=2)
        r = walk_radius(qi, Q(1), 2, 1, 2)
        r2 = float(r) ** 2
        exact = {}
        bound = int(float(r)) + 1
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                if a == 0 and b == 0:
                    continue
                if Q(a * a + b * b) ** r.k <= r.pow_value ** 2:
                    cls = (a % 3, b % 3)
                    exact[cls] = exact.get(cls, 0) + 1
        total_pts = sum(exact.values())
        counts = {}
        n = 500
        for _ in range(n):
            res = sample_in_box(qi, None, [], ok_ring, qi.one(),
                                2, [Q(1), Q(1)], 1, rng, cfg)
            c = (int(res.beta.coords[0]) % 3, int(res.beta.coords[1]) % 3)
            counts[c] = counts.get(c, 0) + 1
        stat = 0.0
        dof = 0
        for cls, cnt in exact.items():
            e = n * cnt / total_pts
            if e < 5:
                continue
            stat += (counts.get(cls, 0) - e) ** 2 / e
            dof += 1
        assert chi2_sf(stat, dof - 1) > 0.001


class TestOneEmbeddingPerRung:
    """`sample_in_box` embeds the reduced basis, and the shift when m0 is
    nontrivial, in one `minkowski_columns_x` call per rung of its
    precision ladder, and the radius test reads that call's columns."""

    @pytest.mark.parametrize("modulus", [False, True])
    def test_one_call_per_rung(self, qi, monkeypatch, modulus):
        calls, rungs = [], []
        columns, ladder = samplers.minkowski_columns_x, samplers.precision_ladder

        def spy_columns(field, elements, x, prec):
            calls.append((tuple(tuple(e.coords) for e in elements), prec))
            assert not any(e.is_zero() for e in elements)
            return columns(field, elements, x, prec)

        def spy_ladder(start, message):
            for prec in ladder(start, message):
                rungs.append(prec)
                yield prec

        monkeypatch.setattr(samplers, "minkowski_columns_x", spy_columns)
        monkeypatch.setattr(samplers, "precision_ladder", spy_ladder)
        p1 = primes_up_to(qi, 2)[0]
        m0 = hnf_mul(p1.hnf, p1.hnf) if modulus else None
        ok_ring = HnfIdeal.ring_of_integers(qi)
        cfg = SamplerConfig(radius_constant=2)
        rng = random.Random(14)
        for _ in range(3):
            calls.clear(), rungs.clear()
            sample_in_box(qi, m0, [], ok_ring, qi.one(), 2, [Q(1), Q(1)], 1,
                          rng, cfg)
            assert len(set(calls)) == len(calls) == len(rungs) >= 1
            assert [prec for _els, prec in calls] == rungs
            # the basis, then the shift when m0 is nontrivial
            assert all(len(els) == qi.n + modulus for els, _prec in calls)


class TestRadiusTest:
    """The radiusboundofD check on a planted over-long basis: a proven
    bound at radius constant 48 (exit 3), the caller's choice below it
    (exit 2)."""

    @staticmethod
    def _run(monkeypatch, tmp_path, capsys, constant):
        def long_basis(x, a, blocksize):
            return IdealBasisResult(
                [e * (1 << 20) for e in a.basis_elements()], 128)

        monkeypatch.setattr(samplers, "approx_bkz_ideal", long_basis)
        field_file = tmp_path / "qi.json"
        field_file.write_text(json.dumps({"poly": [1, 0, 1]}))
        code = main(["sample", str(field_file), "--mode", "box",
                     "--radius-constant", str(constant)])
        return code, json.loads(capsys.readouterr().err)

    def test_proven_bound_at_48(self, monkeypatch, tmp_path, capsys):
        code, err = self._run(monkeypatch, tmp_path, capsys, 48)
        assert code == EXIT_VERIFICATION == 3
        assert err["kind"] == "verification"
        assert "proven bound" in err["error"]

    def test_precondition_below_48(self, monkeypatch, tmp_path, capsys):
        code, err = self._run(monkeypatch, tmp_path, capsys, 1)
        assert code == EXIT_PRECONDITION == 2
        assert err["kind"] == "precondition"
        assert "radius constant times omega 1 < 48" in err["error"]
