import math
import random
from fractions import Fraction as Q

import pytest

from latnf import samplers
from latnf.ideal_arith import HnfIdeal, hnf_mul, primes_up_to
from latnf.ideal_walk import (WalkParams, WalkTrace, boundedness_check,
                              check_membership, check_norm_bound, sample_beta,
                              walk_params)
from latnf.nf_core import FieldElement, NumberField, new_field
from latnf.samplers import SamplerConfig
from oracles import chi2_sf, embedding_values


@pytest.fixture(scope="module")
def qi():
    return new_field([1, 0, 1])


@pytest.fixture(scope="module")
def qr2():
    return new_field([-2, 0, 1])


FAST = SamplerConfig(radius_constant=2)


# The congruence and sign checks and the shifting experiment of the
# paper, run here on the library's sampler.

def check_congruence(trace: WalkTrace, m0: HnfIdeal | None,
                     tau: FieldElement) -> bool:
    if m0 is None:
        return True
    field = trace.beta.field
    if m0 == HnfIdeal.ring_of_integers(field):
        return True
    return m0.contains(trace.beta - tau)


def check_signs(trace: WalkTrace, m_inf, tau: FieldElement) -> bool:
    field = trace.beta.field
    for place in m_inf:
        if (field.sign_at_real_place(trace.beta, place)
                != field.sign_at_real_place(tau, place)):
            return False
    return True


def chi2_two_sample(counts_a: dict, counts_b: dict) -> tuple[float, int]:
    """Two-sample chi-square statistic and degrees of freedom over the
    union of observed categories (small categories pooled)."""
    keys = sorted(set(counts_a) | set(counts_b), key=str)
    na = sum(counts_a.values())
    nb = sum(counts_b.values())
    stat = 0.0
    used = 0
    pooled_a = pooled_b = 0
    for k in keys:
        a = counts_a.get(k, 0)
        b = counts_b.get(k, 0)
        if a + b < 10:
            pooled_a += a
            pooled_b += b
            continue
        ea = (a + b) * na / (na + nb)
        eb = (a + b) * nb / (na + nb)
        stat += (a - ea) ** 2 / ea + (b - eb) ** 2 / eb
        used += 1
    if pooled_a + pooled_b >= 10:
        ea = (pooled_a + pooled_b) * na / (na + nb)
        eb = (pooled_a + pooled_b) * nb / (na + nb)
        stat += (pooled_a - ea) ** 2 / ea + (pooled_b - eb) ** 2 / eb
        used += 1
    return stat, max(1, used - 1)


def shifting_experiment(field: NumberField, b_ideal: HnfIdeal, y,
                        alpha: FieldElement, n_samples: int, params: WalkParams,
                        rng, cfg=None):
    """Empirical check of D_{a+((alpha))}(. alpha) = D_a(.): runs the
    sampler on a and on the alpha-shifted input, pulls the second stream
    back by alpha, and chi-square-compares the two."""
    tau = field.one()
    counts_a: dict = {}
    counts_b: dict = {}
    shifted_ideal = hnf_mul(b_ideal, HnfIdeal.principal(field, alpha))
    # y' = y * |sigma(alpha)|^{-1}: rational only if the embeddings are;
    # instead fold alpha into the box by exact division of the output.
    values = embedding_values(field.embed(alpha, 64))
    y_shift = []
    for emb_idx in range(field.n):
        a2 = values[emb_idx].abs2()
        # rational approximation of |sigma(alpha)|^{-1}; statistical only
        approx = Q(1) / Q(math.sqrt(float(a2.mid))).limit_denominator(10 ** 9)
        y_shift.append(Q(y[emb_idx]) * approx)
    y_shift = _symmetrize_conj(field, y_shift)
    alpha_inv = alpha.inverse()
    for _ in range(n_samples):
        t1 = sample_beta(field, None, [], b_ideal, y, tau, params, rng, cfg)
        counts_a[t1.beta.coords] = counts_a.get(t1.beta.coords, 0) + 1
        t2 = sample_beta(field, None, [], shifted_ideal, y_shift, tau,
                         params, rng, cfg)
        pulled = t2.beta * alpha_inv
        counts_b[pulled.coords] = counts_b.get(pulled.coords, 0) + 1
    stat, dof = chi2_two_sample(counts_a, counts_b)
    return {"chi2": stat, "dof": dof, "p_value": chi2_sf(stat, dof),
            "support_a": len(counts_a), "support_b": len(counts_b)}


def _symmetrize_conj(field: NumberField, xs):
    out = list(xs)
    for k in range(field.n_cplx):
        j = field.n_real + 2 * k
        v = (out[j] + out[j + 1]) / 2
        out[j] = out[j + 1] = v
    return out


def fast_params(field, eps=Q(1, 4), b_override=40):
    return walk_params(field, None, [], eps, b_override=b_override)


class TestWalkParams:
    def test_qi_deterministic(self, qi):
        p1 = walk_params(qi, None, [], Q(1, 4))
        p2 = walk_params(qi, None, [], Q(1, 4))
        assert p1.walk_length == p2.walk_length
        # N = ceil(7n + 2 log 4 + picbound + 2) with picbound = log 4
        expect = math.ceil(14 + 2 * math.log(4) + math.log(4) + 2)
        assert p1.walk_length == expect

    def test_smaller_eps_increases_n(self, qi):
        n1 = walk_params(qi, None, [], Q(1, 4)).walk_length
        n2 = walk_params(qi, None, [], Q(1, 8)).walk_length
        assert n2 > n1

    def test_delta_positive_dyadic(self, qi):
        p = walk_params(qi, None, [], Q(1, 4), omega=1)
        assert 0 < p.delta < Q(1, 2 ** 40)
        # largest dyadic below the formula: a power of two
        assert p.delta.numerator == 1
        assert p.delta.denominator & (p.delta.denominator - 1) == 0

    def test_eps_range(self, qi):
        with pytest.raises(ValueError):
            walk_params(qi, None, [], Q(3, 2))


class TestSampleBetaHardChecks:
    def test_qi_batch(self, qi):
        rng = random.Random(20)
        ok_ring = HnfIdeal.ring_of_integers(qi)
        params = fast_params(qi)
        for _ in range(8):
            tr = sample_beta(qi, None, [], ok_ring, [1, 1], qi.one(),
                             params, rng, FAST)
            assert check_membership(tr)
            assert check_norm_bound(tr)
            assert boundedness_check(tr)
            assert not tr.beta.is_zero()

    def test_divisibility(self, qi):
        rng = random.Random(21)
        p1 = primes_up_to(qi, 2)[0]
        params = fast_params(qi)
        from latnf.ideal_arith import ord_at
        for _ in range(4):
            tr = sample_beta(qi, None, [], p1.hnf, [1, 1], qi.one(),
                             params, rng, FAST)
            ideal = HnfIdeal.principal(qi, tr.beta)
            assert ord_at(ideal, p1) >= 1

    def test_congruence_mod_three(self, qi):
        rng = random.Random(22)
        m0 = HnfIdeal.principal(qi, qi.one() * 3)
        tau = qi.element([2, 0])
        ok_ring = HnfIdeal.ring_of_integers(qi)
        params = walk_params(qi, m0, [], Q(1, 4), b_override=40)
        for _ in range(4):
            tr = sample_beta(qi, m0, [], ok_ring, [1, 1], tau, params,
                             rng, FAST)
            assert check_congruence(tr, m0, tau)
            assert check_membership(tr)

    def test_sign_pattern_real_quadratic(self, qr2):
        rng = random.Random(23)
        ok_ring = HnfIdeal.ring_of_integers(qr2)
        params = fast_params(qr2)
        for _ in range(3):
            tr = sample_beta(qr2, None, [0, 1], ok_ring, [1, 1], qr2.one(),
                             params, rng, FAST)
            assert check_signs(tr, [0, 1], qr2.one())

    def test_boundedness_negative_control(self, qi):
        rng = random.Random(24)
        ok_ring = HnfIdeal.ring_of_integers(qi)
        params = fast_params(qi)
        tr = sample_beta(qi, None, [], ok_ring, [1, 1], qi.one(), params,
                         rng, FAST)
        # tamper: pretend the walk was much shorter than it was
        tr.params = WalkParams(2, 1, tr.params.s, tr.params.eps,
                               tr.params.delta, tr.params.omega,
                               tr.params.blocksize)
        assert not check_norm_bound(tr)

    def test_checks_read_the_box_radius(self, qi, monkeypatch):
        # RADIUS(m0) in the norm and boundedness checks is taken at the
        # constant the box sampled with (2 here), not the default 48
        consts = []
        real = samplers.walk_radius

        def spy(field, norm, blocksize, omega,
                constant=samplers.RADIUS_CONSTANT):
            consts.append(constant)
            return real(field, norm, blocksize, omega, constant)

        monkeypatch.setattr(samplers, "walk_radius", spy)
        tr = sample_beta(qi, None, [], HnfIdeal.ring_of_integers(qi),
                         [1, 1], qi.one(), fast_params(qi),
                         random.Random(26), FAST)
        assert check_norm_bound(tr) and boundedness_check(tr)
        assert consts and set(consts) == {2}
        assert tr.radius.pow_value == real(qi, Q(1), tr.params.blocksize,
                                           tr.params.omega, 2).pow_value


class TestShifting:
    def test_alpha_one_identical(self, qi):
        rng = random.Random(25)
        params = fast_params(qi)
        ok_ring = HnfIdeal.ring_of_integers(qi)
        report = shifting_experiment(qi, ok_ring, [1, 1], qi.one(), 60,
                                     params, rng, FAST)
        assert report["p_value"] > 1e-3

    def test_alpha_two_pushforward(self, qi):
        rng = random.Random(26)
        params = fast_params(qi)
        ok_ring = HnfIdeal.ring_of_integers(qi)
        alpha = qi.element([2, 0])
        report = shifting_experiment(qi, ok_ring, [1, 1], alpha, 250,
                                     params, rng, FAST)
        assert report["p_value"] > 1e-3

    def test_alpha_unit_rotation(self, qi):
        rng = random.Random(27)
        params = fast_params(qi)
        ok_ring = HnfIdeal.ring_of_integers(qi)
        alpha = qi.element([0, 1])   # i
        report = shifting_experiment(qi, ok_ring, [1, 1], alpha, 250,
                                     params, rng, FAST)
        assert report["p_value"] > 1e-3


class TestNormIndependence:
    def test_scaling_y_invariance(self, qi):
        # y and 2y give statistically indistinguishable outputs: the code
        # consumes only y's ratios (structural) and the chi-square agrees
        rng = random.Random(28)
        params = fast_params(qi)
        ok_ring = HnfIdeal.ring_of_integers(qi)
        counts_a, counts_b = {}, {}
        for _ in range(250):
            t1 = sample_beta(qi, None, [], ok_ring, [1, 1], qi.one(),
                             params, rng, FAST)
            counts_a[t1.beta.coords] = counts_a.get(t1.beta.coords, 0) + 1
            t2 = sample_beta(qi, None, [], ok_ring, [2, 2], qi.one(),
                             params, rng, FAST)
            counts_b[t2.beta.coords] = counts_b.get(t2.beta.coords, 0) + 1
        stat, dof = chi2_two_sample(counts_a, counts_b)
        assert chi2_sf(stat, dof) > 1e-3


class TestChi2Helper:
    def test_sf_against_scipy(self):
        from scipy.stats import chi2 as scipy_chi2
        for stat, dof in ((3.0, 2), (10.0, 5), (25.0, 10), (120.0, 100)):
            assert abs(chi2_sf(stat, dof)
                       - float(scipy_chi2.sf(stat, dof))) < 1e-9

    def test_two_sample_identical(self):
        a = {1: 50, 2: 60, 3: 70}
        stat, dof = chi2_two_sample(a, dict(a))
        assert stat == 0
