import itertools
import json
import math
import random
import time
from fractions import Fraction as Q

import pytest

from latnf import relations, samplers
from latnf.cli import EXIT_CAP, main
from latnf.ideal_arith import (HnfIdeal, hnf_mul, kummer_dedekind,
                               prime_product, primes_up_to)
from latnf.nf_core import CapExceeded, NumberField, new_field
from latnf.relations import (FactorBase, RandomRelationConfig, RelationConfig,
                             branch_x, choose_omega, compute_one_relation,
                             default_blocksize, exceptional_unit,
                             modulus_branch, random_relation, sample_budget,
                             smooth_factor)
from latnf.samplers import SamplerConfig, walk_radius
from oracles import divisor_degree


# The paper's smooth-density lower bound and the bound B_max on the
# primes a relation may need, checked here against the library's walk.

def smooth_density_lower(field: NumberField, a_cut, b_bound, x,
                         rho_upper) -> float:
    """Lower bound (4 log B)^(1-u) u^(-u) / (rho B) on the local density
    of ideals with prime factors of norm in (A, B]; preconditions are
    reported, never clamped."""
    if b_bound < 16:
        raise ValueError(f"B = {b_bound} below the smoothness floor 16")
    if a_cut > b_bound / (4 * math.log(b_bound)):
        raise ValueError("A exceeds B/(4 log B)")
    if x < b_bound * math.e ** field.n:
        raise ValueError("x below B e^n")
    u = math.log(x) / math.log(b_bound)
    return (4 * math.log(b_bound)) ** (1 - u) * u ** (-u) / (rho_upper * b_bound)


def b_max_bound(field: NumberField, m0_norm, blocksize, omega, x,
                cfg: RelationConfig) -> float:
    """max(exp(sqrt(log r^n loglog r^n)), B_sm, B_rw, 10 x^2)."""
    r = walk_radius(field, Q(m0_norm), blocksize, omega)
    _lo, hi = r.bracket(40)
    log_rn = field.n * math.log(float(hi))
    return max(math.exp(math.sqrt(log_rn * math.log(log_rn))),
               cfg.b_sm, cfg.b_rw, 10 * x * x)


@pytest.fixture(scope="module")
def qi():
    return new_field([1, 0, 1])


@pytest.fixture(scope="module")
def qs5():
    return new_field([5, 0, 1])


FAST_CFG = RelationConfig(eps_override=Q(1, 4), walk_b_override=40,
                          sampler=SamplerConfig(radius_constant=2))


class TestSmoothFactor:
    def test_six(self, qs5):
        fb = FactorBase(primes_up_to(qs5, 3))
        v = smooth_factor(HnfIdeal.principal(qs5, qs5.one() * 6), fb)
        assert sorted(v) == [1, 1, 2]

    def test_ring(self, qs5):
        fb = FactorBase(primes_up_to(qs5, 3))
        assert smooth_factor(HnfIdeal.ring_of_integers(qs5), fb) == [0, 0, 0]

    def test_inert_not_smooth(self, qs5):
        fb = FactorBase(primes_up_to(qs5, 3))
        eleven = HnfIdeal.principal(qs5, qs5.one() * 11)
        assert smooth_factor(eleven, fb) is None

    def test_reconstruction_identity(self, qs5):
        fb = FactorBase(primes_up_to(qs5, 10))
        rng = random.Random(3)
        for _ in range(10):
            alpha = qs5.element([rng.randrange(-9, 10),
                                 rng.randrange(-9, 10)])
            if alpha.is_zero():
                continue
            ideal = HnfIdeal.principal(qs5, alpha)
            v = smooth_factor(ideal, fb)
            if v is None:
                continue
            recon = HnfIdeal.ring_of_integers(qs5)
            for p, e in zip(fb, v):
                if e:
                    recon = hnf_mul(recon, p.power(e))
            assert recon == ideal


class TestDensityFormula:
    def test_spec_example(self, qi):
        d = smooth_density_lower(qi, 1, 16, 256, 1.0)
        assert abs(d - 0.25 / (4 * math.log(16) * 16)) < 1e-12

    def test_preconditions(self, qi):
        with pytest.raises(ValueError):
            smooth_density_lower(qi, 1, 8, 1000, 1.0)     # B below floor
        with pytest.raises(ValueError):
            smooth_density_lower(qi, 10, 16, 1000, 1.0)   # A too large
        with pytest.raises(ValueError):
            smooth_density_lower(qi, 1, 16, 20, 1.0)      # x below B e^n


class TestModulusBranch:
    def test_qi_trivial(self, qi):
        x, m0, prims = modulus_branch(qi, 0.7854)
        assert int(m0.norm()) == 1 and prims == []

    def test_synthetic_x3(self, qs5):
        x, m0, prims = modulus_branch(qs5, 1e30, x_override=3.0)
        assert int(m0.norm()) == 2
        assert len(prims) == 1 and prims[0].norm() == 2

    def test_tiny_rho_trivial(self, qs5):
        _, m0, _ = modulus_branch(qs5, 1e-6)
        assert int(m0.norm()) == 1

    def test_branch_x_positive(self, qi, qs5):
        for field in (qi, qs5):
            assert branch_x(field) > 0


class TestOneRelation:
    def test_qi_identity(self, qi):
        fb = FactorBase(primes_up_to(qi, 40))
        rng = random.Random(7)
        rel = compute_one_relation(qi, HnfIdeal.ring_of_integers(qi), fb,
                                   [1, 1], rng, FAST_CFG, 0.7854)
        recon = HnfIdeal.ring_of_integers(qi)
        for p, v in zip(fb, rel.valuations):
            if v:
                recon = hnf_mul(recon, p.power(v))
        assert recon == HnfIdeal.principal(qi, rel.alpha)

    def test_output_does_not_depend_on_the_clock(self, qi, monkeypatch):
        fb = FactorBase(primes_up_to(qi, 40))

        def relation():
            rel = compute_one_relation(qi, HnfIdeal.ring_of_integers(qi), fb,
                                       [1, 1], random.Random(7), FAST_CFG,
                                       0.7854)
            return rel.alpha.coords, rel.valuations, rel.attempts

        want = relation()
        clock = itertools.count(step=3600.0)     # an hour per reading
        monkeypatch.setattr(time, "monotonic", lambda: next(clock))
        assert relation() == want

    def test_nontrivial_input_ideal(self, qs5):
        fb = FactorBase(primes_up_to(qs5, 40))
        p2 = kummer_dedekind(qs5, 2)[0][0]
        rng = random.Random(8)
        rel = compute_one_relation(qs5, p2.hnf, fb, [1, 1], rng, FAST_CFG,
                                   1.405)
        recon = p2.hnf
        for p, v in zip(fb, rel.valuations):
            if v:
                recon = hnf_mul(recon, p.power(v))
        assert recon == HnfIdeal.principal(qs5, rel.alpha)
        # total valuations describe (alpha) itself
        recon2 = HnfIdeal.ring_of_integers(qs5)
        for p, v in zip(fb, rel.total_valuations):
            if v:
                recon2 = hnf_mul(recon2, p.power(v))
        assert recon2 == HnfIdeal.principal(qs5, rel.alpha)


class TestWalkInsideTheBase:
    def test_a_walk_prime_outside_the_base_raises_before_sampling(
            self, qi, monkeypatch):
        # every walk prime divides alpha O_K a^-1, so with walk bound 40
        # over the primes of norm <= 13 an attempt that draws 17 cannot
        # be smooth
        def no_sampler(*args, **kwargs):
            pytest.fail("the sampler ran")

        monkeypatch.setattr(relations, "sample_beta", no_sampler)
        fb = FactorBase(primes_up_to(qi, 13))
        with pytest.raises(ValueError, match="factor base lacks"):
            random_relation(qi, fb, random.Random(2),
                            RandomRelationConfig(relation=FAST_CFG))


class TestRandomRelation:
    def test_output_in_lattice(self, qi):
        fb = FactorBase(primes_up_to(qi, 40))
        rng = random.Random(9)
        cfg = RandomRelationConfig(relation=FAST_CFG)
        out = random_relation(qi, fb, rng, cfg, 0.7854)
        lsv = out.relation.log_s_vector(fb)
        assert list(lsv.val_part) == out.vector
        deg = divisor_degree(zip(fb, lsv.val_part), lsv.inf_part.entries)
        assert abs(float(deg.mid)) <= float(deg.rad) + 1e-9

    def test_concentration(self, qi):
        fb = FactorBase(primes_up_to(qi, 40))
        rng = random.Random(10)
        cfg = RandomRelationConfig(relation=FAST_CFG)
        for _ in range(5):
            out = random_relation(qi, fb, rng, cfg, 0.7854)
            lsv = out.relation.log_s_vector(fb)
            assert math.sqrt(float(lsv.norm_sq().hi())) <= out.r0_bound

    def test_radius_at_the_box_constant(self, qi, monkeypatch):
        # every RADIUS the relation search and its concentration bound
        # take is at the sampler's constant (2 here), not the default 48
        consts = []

        def spy(field, norm, blocksize, omega,
                constant=samplers.RADIUS_CONSTANT):
            consts.append(constant)
            return walk_radius(field, norm, blocksize, omega, constant)

        monkeypatch.setattr(relations, "walk_radius", spy)
        monkeypatch.setattr(samplers, "walk_radius", spy)
        fb = FactorBase(primes_up_to(qi, 40))
        out = random_relation(qi, fb, random.Random(10),
                              RandomRelationConfig(relation=FAST_CFG), 0.7854)
        assert out.r0_bound > 0 and consts and set(consts) == {2}

    def test_inverts_only_negative_exponents(self, qi, monkeypatch):
        # the a-ideal prod p^{a_p} is formed from the draw's exponents with
        # one inverse, of the product of the p^{-a_p} with a_p < 0: a zero
        # or positive exponent needs no inverse
        from functools import reduce
        from latnf import ideal_arith, samplers
        fb = FactorBase(primes_up_to(qi, 40))
        draws, products = [], []
        klein, product = samplers.klein_sample, relations.prime_product
        inv = ideal_arith.hnf_inv

        def rec_klein(*args):
            out = klein(*args)
            draws.append([int(v) for v in out[1][:len(fb)]])
            return out

        def rec_product(field, factors):
            factors, inverted = list(factors), []

            def rec_inv(ideal):
                inverted.append(ideal)
                return inv(ideal)

            with monkeypatch.context() as m:
                m.setattr(ideal_arith, "hnf_inv", rec_inv)
                out = product(field, factors)
            products.append((len(draws) - 1, factors, inverted))
            return out

        monkeypatch.setattr(samplers, "klein_sample", rec_klein)
        monkeypatch.setattr(relations, "prime_product", rec_product)
        random_relation(qi, fb, random.Random(9),
                        RandomRelationConfig(relation=FAST_CFG), 0.7854)
        a_ideals = [(draws[k], factors, inverted)
                    for k, factors, inverted in products
                    if [e for _p, e in factors] == draws[k]]
        assert any(0 in a for a in draws)
        assert any(inverted for _a, _f, inverted in a_ideals)
        for a, factors, inverted in a_ideals:
            assert [p for p, _e in factors] == list(fb)
            neg = [p.power(-e) for p, e in zip(fb, a) if e < 0]
            assert inverted == ([reduce(hnf_mul, neg)] if neg else [])

    def test_corrupted_identity_detected(self, qi):
        fb = FactorBase(primes_up_to(qi, 40))
        rng = random.Random(11)
        cfg = RandomRelationConfig(relation=FAST_CFG)
        out = random_relation(qi, fb, rng, cfg, 0.7854)
        bad = list(out.vector)
        bad[0] += 1
        lsv = out.relation.log_s_vector(fb)
        assert list(lsv.val_part) != bad


class TestExceptionalUnit:
    def test_qs5_p2(self, qs5):
        # force m0 = p2 via the synthetic branch, exceptional unit at p2
        from latnf.relations import modulus_branch
        x, m0, m0_primes = modulus_branch(qs5, 1e30, x_override=3.0)
        q = m0_primes[0]
        fb = FactorBase([p for p in primes_up_to(qs5, 40)
                         if p.hnf != q.hnf])
        rng = random.Random(12)
        rel = exceptional_unit(qs5, q, fb, m0, m0_primes, rng, FAST_CFG)
        recon = q.hnf
        for p, v in zip(fb, rel.valuations):
            if v:
                recon = hnf_mul(recon, p.power(v))
        assert recon == HnfIdeal.principal(qs5, rel.alpha)

    def test_a_capped_sampler_call_is_a_failed_attempt(self, qs5,
                                                       monkeypatch):
        # the first sampler call exceeds its cap; the search goes on
        x, m0, m0_primes = modulus_branch(qs5, 1e30, x_override=3.0)
        q = m0_primes[0]
        fb = FactorBase([p for p in primes_up_to(qs5, 40)
                         if p.hnf != q.hnf])
        real, calls = relations.sample_beta, []

        def capped_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise CapExceeded("planted sampler cap")
            return real(*args, **kwargs)

        monkeypatch.setattr(relations, "sample_beta", capped_once)
        rel = exceptional_unit(qs5, q, fb, m0, m0_primes, random.Random(12),
                               FAST_CFG)
        assert rel.attempts >= 2
        assert (prime_product(qs5, [(q, 1), *zip(fb, rel.valuations)])
                == HnfIdeal.principal(qs5, rel.alpha))

    def test_the_walk_never_draws_q(self, qs5, monkeypatch):
        # the box samples through m0/q, but the walk stays coprime to m0:
        # a walk prime q would put q^2 in alpha O_K
        x, m0, m0_primes = modulus_branch(qs5, 1e30, x_override=3.0)
        q = m0_primes[0]
        fb = FactorBase([p for p in primes_up_to(qs5, 40)
                         if p.hnf != q.hnf])
        real, walks = relations.sample_beta, []

        def spy(*args, **kwargs):
            trace = real(*args, **kwargs)
            walks.append(trace.primes)
            return trace

        monkeypatch.setattr(relations, "sample_beta", spy)
        rel = exceptional_unit(qs5, q, fb, m0, m0_primes, random.Random(0),
                               FAST_CFG)
        assert len(walks) == rel.attempts > 1
        assert all(p.hnf != q.hnf for walk in walks for p in walk)

    def test_q_must_divide_m0(self, qs5):
        x, m0, m0_primes = modulus_branch(qs5, 1e30, x_override=3.0)
        other = primes_up_to(qs5, 5)[-1]
        fb = FactorBase([])
        rng = random.Random(13)
        with pytest.raises(ValueError):
            exceptional_unit(qs5, other, fb, m0, m0_primes, rng, FAST_CFG)


class TestBudgets:
    def test_formula_monotone(self, qi):
        b = sample_budget(qi, 3, 3.0, 3)
        assert sample_budget(qi, 3, 3.0, 4) - b == 6
        assert sample_budget(qi, 4, 3.0, 3) >= b
        assert sample_budget(qi, 3, 4.0, 3) >= b
        assert sample_budget(qi, 0, 3.0, 5) >= 30

    def test_bmax_consistency(self, qi):
        cfg = RelationConfig()
        x = branch_x(qi)
        omega = choose_omega(qi, 1, 2, x, cfg)
        bmax = b_max_bound(qi, 1, 2, omega, x, cfg)
        assert x < bmax / (4 * math.log(bmax))

    def test_blocksize_default(self, qi):
        assert default_blocksize(qi) == 2
        zeta5 = new_field([1, 1, 1, 1, 1])
        assert default_blocksize(zeta5) == max(2, math.ceil(4 ** (2 / 3)))


class _ZeroRng:
    """Every draw is 0, so every tau drawn is 0."""

    def __init__(self):
        self.draws = 0

    def randrange(self, _bound):
        self.draws += 1
        return 0


class TestTauCap:
    """The draw of tau, a unit mod a nontrivial m0, stops after
    `TAU_DRAW_CAP` draws with `CapExceeded` (exit 4), and under
    `random_relation` a capped tau is a failed Gaussian input."""

    def test_the_draw_stops_at_the_cap(self, qs5):
        _x, m0, m0_primes = modulus_branch(qs5, 1e30, x_override=3.0)
        rng = _ZeroRng()
        with pytest.raises(CapExceeded, match="unit mod m0"):
            relations._sample_tau(qs5, m0, m0_primes, rng)
        assert rng.draws == relations.TAU_DRAW_CAP * qs5.n

    def test_a_capped_tau_is_a_failed_gaussian_input(self, monkeypatch,
                                                     tmp_path, capsys):
        # m0 a prime of norm 41 outside the factor base (norm <= 40); the
        # walk (norm <= 20) stays inside it
        def prime_41(field, _rho):
            p = next(p for p in primes_up_to(field, 41) if p.norm() == 41)
            return 3.0, p.hnf, [p]

        real, calls = relations._sample_tau, []

        def zero_draws(field, m0, m0_primes, _rng):
            calls.append(m0)
            return real(field, m0, m0_primes, _ZeroRng())

        monkeypatch.setattr(relations, "modulus_branch", prime_41)
        monkeypatch.setattr(relations, "_sample_tau", zero_draws)
        field_file = tmp_path / "qs5.json"
        field_file.write_text(json.dumps({"poly": [5, 0, 1]}))
        code = main(["relation", str(field_file), "--primes-bound", "40",
                     "--walk-b", "20", "--radius-constant", "2"])
        assert code == EXIT_CAP == 4
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "cap-exceeded"
        assert "every Gaussian redraw" in err["error"]
        assert len(calls) >= 1
