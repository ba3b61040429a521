"""Pinned outputs of the number-field layer.

Each case runs public number-field operations on seeded inputs and
hashes what they return: ideal products and principal ideals as
(denominator, HNF) pairs, membership verdicts, valuation vectors,
certified root balls, one ideal-sampler draw and one random relation.
The digests were recorded from the `Fraction` implementation of ideal
products, of containment-search valuations and of Newton's method, so
they pin the integer kernels to exactly the same ideals, valuations,
balls, samples and relations (values, not number types: every entry is
hashed as a reduced fraction).

Property tests below compare the same kernels with the `Fraction`
references in `oracles.py`: products, principal ideals and membership,
valuations by containment search, and Newton root balls.
"""

import functools
import hashlib
import random
from fractions import Fraction as Q

import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latnf import ideal_walk, polyq, relations
from latnf.ideal_arith import (HnfIdeal, hnf_inv, hnf_mul, kummer_dedekind,
                               ord_at, primes_up_to)
from latnf.intmath import primes_below
from latnf.nf_core import CapExceeded, NumberField
from latnf.samplers import SamplerConfig

# name -> (polynomial, integral basis or None for the power basis)
FIELDS = {
    "Q(i)": ([1, 0, 1], None),
    "Q(sqrt-5)": ([5, 0, 1], None),
    "Q(sqrt-23)": ([23, 0, 1], [[1, 0], [Q(1, 2), Q(1, 2)]]),
    "x^3-x+1": ([1, -1, 0, 1], None),
    "Q(zeta5)": ([1, 1, 1, 1, 1], None),
}


def _canon(x):
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in x) + "]"
    if x is None or isinstance(x, bool):
        return str(x)
    return str(Q(x))


def _digest(*parts):
    return hashlib.sha256(_canon(list(parts)).encode()).hexdigest()[:16]


def _ideal(a):
    return [a.denom, a.hnf]


@functools.cache
def _field(name):
    poly, basis = FIELDS[name]
    return NumberField(poly, basis)


def _elements(field, rng, count, spread=20, max_den=6):
    out = []
    while len(out) < count:
        den = rng.randrange(1, max_den + 1)
        coords = [Q(rng.randrange(-spread, spread + 1), den)
                  for _ in range(field.n)]
        if any(coords):
            out.append(field.element(coords))
    return out


def _primes(field, bound=30):
    """Prime ideals of norm <= bound above the rational primes coprime to
    the index of the power basis (Kummer-Dedekind needs that)."""
    index_sq = int(field.disc_poly / field.disc_field)
    return [pr for q in primes_below(bound + 1) if index_sq % q
            for pr, _e in kummer_dedekind(field, q) if pr.norm() <= bound]


def _products(name):
    field = _field(name)
    rng = random.Random(f"nf-pinned-products-{name}")
    elts = _elements(field, rng, 6)
    principal = [HnfIdeal.principal(field, x) for x in elts]
    primes = _primes(field)
    out = [_ideal(a) for a in principal]
    for a in principal:
        for b in principal:
            out.append(_ideal(hnf_mul(a, b)))
    for a in principal[:3]:
        for p in primes:
            out.append(_ideal(hnf_mul(a, p.hnf)))
            out.append(_ideal(hnf_mul(p.hnf, hnf_inv(a))))
    gens = HnfIdeal.from_generators(field, elts[:3])
    out.append(_ideal(gens))
    members = _elements(field, rng, 12, spread=60, max_den=2)
    for a in principal + [gens]:
        out.append([a.contains(x) for x in members])
        out.append([a.contains(x * y) for x in elts[:2] for y in members[:4]])
    return _digest(out)


def _valuations(name):
    field = _field(name)
    rng = random.Random(f"nf-pinned-valuations-{name}")
    primes = _primes(field, 40)
    ideals = [HnfIdeal.principal(field, x) for x in _elements(field, rng, 8)]
    for p in primes:
        if p.e > 1:                     # ramified: high powers of p
            for k in (1, 3, 6, 9):
                ideals.append(p.power(k))
                ideals.append(hnf_mul(ideals[k % 8], p.power(k)))
    for p in primes[:4]:
        ideals.append(hnf_mul(ideals[0], hnf_inv(p.power(2))))
    ideals.append(HnfIdeal.principal(
        field, field.one() * Q(2 ** 7 * 3 ** 4 * 5 ** 5, 7)))
    return _digest([[ord_at(a, p) for p in primes] for a in ideals])


ROOT_POLYS = {"x^3-x+1": [1, -1, 0, 1], "Q(zeta5)": [1, 1, 1, 1, 1],
              "x^5-x+1": [1, -1, 0, 0, 0, 1]}


def _roots(name, prec):
    balls = sorted(oracles.certify_roots(ROOT_POLYS[name], prec),
                   key=lambda b: (b.re, b.im, b.rad))
    return _digest([[b.re, b.im, b.rad] for b in balls])


def _sample_beta_zeta5():
    field = _field("Q(zeta5)")
    params = ideal_walk.walk_params(field, None, [], Q(1, 4), b_override=40)
    rng = random.Random("nf-pinned-sample-beta")
    out = []
    for _ in range(2):
        tr = ideal_walk.sample_beta(field, None, [],
                                    HnfIdeal.ring_of_integers(field),
                                    [Q(1)] * field.n, field.one(), params,
                                    rng, SamplerConfig(radius_constant=48))
        out.append([tr.beta.coords, _ideal(tr.b_tilde), tr.draws,
                    [_ideal(p.hnf) for p in tr.primes],
                    ideal_walk.check_membership(tr),
                    ideal_walk.check_norm_bound(tr),
                    ideal_walk.boundedness_check(tr)])
    return _digest(out)


def _random_relation_qi():
    field = _field("Q(i)")
    fb = relations.FactorBase(primes_up_to(field, 60))
    cfg = relations.RelationConfig(eps_override=Q(1, 4), walk_b_override=20,
                                   sampler=SamplerConfig(radius_constant=2))
    out = relations.random_relation(field, fb, random.Random("nf-pinned-rel"),
                                    relations.RandomRelationConfig(
                                        relation=cfg))
    rel = out.relation
    return _digest(out.vector, rel.alpha.coords, rel.valuations,
                   rel.total_valuations, _ideal(rel.input_ideal),
                   rel.attempts, out.sigma, out.r0_bound)


CASES = {f"products-{name}": (_products, name) for name in FIELDS}
CASES.update({f"ord_at-{name}": (_valuations, name) for name in FIELDS})
CASES.update({f"roots-{name}-{prec}": ((lambda n, p=prec: _roots(n, p)), name)
              for name in ROOT_POLYS for prec in (100, 400, 800)})
CASES["sample_beta-Q(zeta5)"] = (lambda _n: _sample_beta_zeta5(), None)
CASES["random_relation-Q(i)"] = (lambda _n: _random_relation_qi(), None)

PINNED = {
    "ord_at-Q(i)": "3b72d3a0b6ed6ee5",
    "ord_at-Q(sqrt-23)": "2773016d673beb2d",
    "ord_at-Q(sqrt-5)": "82bfdb2cc87b68c6",
    "ord_at-Q(zeta5)": "4b4bcf3414461fb8",
    "ord_at-x^3-x+1": "ab83dba3b4fd2044",
    "products-Q(i)": "c5c2e89da8fb70da",
    "products-Q(sqrt-23)": "1f4ff48cf73823b1",
    "products-Q(sqrt-5)": "be433339475f70a4",
    "products-Q(zeta5)": "593913fe963c34bd",
    "products-x^3-x+1": "413526342f27c031",
    "random_relation-Q(i)": "14f2c046f7be808f",
    "roots-Q(zeta5)-100": "515c85f9b7e1102c",
    "roots-Q(zeta5)-400": "c834ada6d1aecce4",
    "roots-Q(zeta5)-800": "9780eab311331895",
    "roots-x^3-x+1-100": "a87dd0303848b001",
    "roots-x^3-x+1-400": "d0c865280ed11da0",
    "roots-x^3-x+1-800": "e062892aec2e6a53",
    "roots-x^5-x+1-100": "c2cbfc171fa7394f",
    "roots-x^5-x+1-400": "a4b3ff7c906c9d21",
    "roots-x^5-x+1-800": "5226e74787d3ffb2",
    "sample_beta-Q(zeta5)": "aeac50708eb50a80",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned(case):
    fn, arg = CASES[case]
    assert fn(arg) == PINNED[case]


# Hypothesis checks of the integer kernels against the Fraction references
# in oracles.py, on fields with power and non-power integral bases.
REFERENCE_FIELDS = ["Q(i)", "Q(sqrt-5)", "Q(sqrt-23)", "x^3-x+1"]
small = st.integers(-12, 12)


def _pair(a):
    return a.denom, [list(c) for c in a.hnf]


def _element(field, data, spread=12, max_den=4):
    den = data.draw(st.integers(1, max_den))
    coords = data.draw(st.lists(st.integers(-spread, spread), min_size=field.n,
                                max_size=field.n).filter(any))
    return field.element([Q(c, den) for c in coords])


class TestAgainstReferences:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(REFERENCE_FIELDS), data=st.data())
    def test_products_and_membership(self, name, data):
        field = _field(name)
        x, y, z = (_element(field, data) for _ in range(3))
        a, b = HnfIdeal.principal(field, x), HnfIdeal.principal(field, y)
        assert _pair(a) == oracles.principal_ideal(field, x.coords)
        ab = hnf_mul(a, b)
        assert _pair(ab) == oracles.ideal_product(field, _pair(a), _pair(b))
        for w in (z, x * z, x * y, y):
            assert ab.contains(w) == oracles.ideal_contains(field, _pair(ab),
                                                            w.coords)

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(REFERENCE_FIELDS), data=st.data(),
           k=st.integers(0, 4))
    def test_valuations(self, name, data, k):
        field = _field(name)
        primes = _primes(field, 13)
        p = data.draw(st.sampled_from(primes))
        a = hnf_mul(HnfIdeal.principal(field, _element(field, data)),
                    p.power(k))
        for q in primes:
            assert ord_at(a, q) == oracles.valuation_by_containment(
                field, _pair(a), q.hnf.hnf, q.f, q.p)

    @settings(max_examples=60, deadline=None)
    @given(coeffs=st.lists(small, min_size=2, max_size=5),
           lead=st.integers(1, 3), prec=st.integers(1, 300))
    def test_root_balls(self, coeffs, lead, prec):
        poly = coeffs + [lead]
        assume(polyq.discriminant([Q(c) for c in poly]) != 0)
        ref = oracles.certify_roots_reference(poly, prec)
        if ref is None:
            with pytest.raises(CapExceeded):
                oracles.certify_roots(poly, prec)
            return
        got = oracles.certify_roots(poly, prec)
        assert [(b.re, b.im, b.rad) for b in got] == ref
