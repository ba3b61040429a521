"""Pinned outputs of the certified-embedding path.

The digests hash the exact (re, im, rad) of every value `embed` returns at
8, 64 and 200 bits, and the exact (mid, rad) of every entry of
`minkowski_columns_x` at non-dyadic distortions x, on power-basis fields
(one with only real roots, one taking the real-root branch of the
canonical order next to a complex pair) and on Q(sqrt-23) with its
supplied basis, whose power coordinates have denominator 2.  They were
recorded from the `Fraction` ball Horner (now
`oracles.ceval_ball_reference`), and re-recorded on the root balls
`_all_roots` rounds from the field's one held root set (Q(i)'s, whose
roots are exact, did not move).  The `cmp_element` cases are equalities or near-ties that no
interval decides, so each reaches the Liouville fallback, and two
equalities on Q(i), whose root balls are exact, that the interval's upper
end decides.

Property tests below compare the integer Horner, the integer |z|^2k ball
and the integer Minkowski columns with their `Fraction` references in
`oracles.py`.  The columns are integer mantissas over one midpoint and
one radius denominator per column; both the pins and the property test
read each entry back as the fractions (mid, rad).  The readers of the
integer embedding balls (the sign at a real place and the |sigma|^2k
decision with its Liouville fallback) and the root-subset factor search
are compared with the `ComplexBall` readers they replaced
(`oracles.sign_at_real_place_reference` and its neighbours), which read
the same balls as fractions (`oracles.embedding_values`).  The log
embedding, one series at the centre of each ball, must contain the
two-ended reference (`oracles.log_embedding_reference`) taken 32 bits
finer, and be at most a little wider than it at the same precision; it
runs one `log_ball` per place, and post-processing one log embedding per
relation.
"""

import hashlib
import random
from fractions import Fraction as Q
from math import lcm

import oracles
import pytest
import test_linalg_pinned
from functools import lru_cache
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from latnf import divisor_log, dyadic, intmath, nf_core, polyq, sunit_pipeline
from latnf.approx_reduction import minkowski_columns_x
from latnf.divisor_log import log_embedding
from latnf.nf_core import GT, LE, NumberField, cmp_element
from oracles import ComplexBall

# name -> (polynomial, integral basis or None for the power basis)
FIELDS = {
    "Q(i)": ([1, 0, 1], None),
    "Q(sqrt-5)": ([5, 0, 1], None),
    "Q(sqrt2)": ([-2, 0, 1], None),
    "x^2-x+41": ([41, -1, 1], None),
    "Q(zeta5)": ([1, 1, 1, 1, 1], None),
    "x^3-2": ([-2, 0, 0, 1], None),
    "Q(sqrt-23)": ([23, 0, 1], [[1, 0], [Q(1, 2), Q(1, 2)]]),
}


# |theta|^2 = T^(1/root) at every place, as (T, root)
THETA_ABS2 = {"Q(i)": (1, 1), "Q(sqrt-5)": (5, 1), "Q(sqrt2)": (2, 1),
              "x^2-x+41": (41, 1), "Q(zeta5)": (1, 1), "x^3-2": (4, 3),
              "Q(sqrt-23)": (23, 1)}
# polynomial -> irreducible: each splits modulo every prime that misses
# its discriminant, so `_is_irreducible` decides it by the root subsets
SUBSET_POLYS = {(1, 0, 0, 0, 1): True,          # x^4 + 1
                (1, 0, -10, 0, 1): True,        # sqrt2 + sqrt3
                (2, 0, 3, 0, 1): False}         # (x^2 + 1)(x^2 + 2)


@lru_cache(maxsize=None)
def _field(name):
    return NumberField(*FIELDS[name])


def _digest(rows):
    h = hashlib.sha256()
    for row in rows:
        for v in row:
            v = Q(v)
            h.update(f"{v.numerator}/{v.denominator};".encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def _elements(field, name):
    """theta, a unit-size, seeded small rationals and one tall element."""
    rng = random.Random(f"embed-pinned-{name}")
    out = [field.from_power([0, 1]), field.one()]
    for spread, max_den in ((20, 6), (20, 6), (20, 6), (10 ** 9, 35)):
        den = rng.randrange(1, max_den + 1)
        out.append(field.element([Q(rng.randrange(-spread, spread + 1), den)
                                  for _ in range(field.n)]))
    return out


def _embeds(name, prec):
    field = NumberField(*FIELDS[name])
    return _digest([(v.re, v.im, v.rad)
                    for alpha in _elements(field, name)
                    for v in oracles.embedding_values(field.embed(alpha, prec))])


def _x_vectors(field):
    """x = 3/7 at every place, and a different non-dyadic value per place."""
    per_place = []
    for idx, (_emb, nnu) in enumerate(field.places()):
        per_place += [Q(3 + 2 * idx, 7 + 4 * idx)] * nnu
    return [[Q(3, 7)] * field.n, per_place]


def _balls(cols):
    """(mid, rad) of every entry of a `MinkowskiColumns`, column by
    column, as reduced fractions."""
    return [[(Q(m, dm), Q(r, dr)) for m, r in zip(mids, rads)]
            for mids, dm, rads, dr in zip(cols.mids, cols.mid_dens,
                                          cols.rads, cols.rad_dens)]


def _columns(name, prec):
    field = NumberField(*FIELDS[name])
    rows = []
    for x in _x_vectors(field):
        for col in _balls(minkowski_columns_x(field, _elements(field, name),
                                              x, prec)):
            rows += col
    return _digest(rows)


CASES = {f"embed-{name}-{prec}": (_embeds, name, prec)
         for name in FIELDS for prec in (8, 64, 200)}
CASES.update({f"columns-{name}-{prec}": (_columns, name, prec)
              for name in FIELDS for prec in (64, 136)})

PINNED = {
    "columns-Q(i)-136": "09a50d1c0d29bd06",
    "columns-Q(i)-64": "cd96902b6ab7921f",
    "columns-Q(sqrt-23)-136": "b535c835fd3bfd38",
    "columns-Q(sqrt-23)-64": "6c72ef01640fb897",
    "columns-Q(sqrt-5)-136": "d89e3be6b9eba752",
    "columns-Q(sqrt-5)-64": "6b637444869ecae6",
    "columns-Q(sqrt2)-136": "8cc2b9faf2de21c3",
    "columns-Q(sqrt2)-64": "be82819d7aa6d4c4",
    "columns-Q(zeta5)-136": "4de3d490e9fdaccd",
    "columns-Q(zeta5)-64": "379467f62db0762d",
    "columns-x^2-x+41-136": "3bc76d2ee7f73f3a",
    "columns-x^2-x+41-64": "dc02c6311e82fcef",
    "columns-x^3-2-136": "b51c0eebc1574e7e",
    "columns-x^3-2-64": "b1a15d7515fdabd1",
    "embed-Q(i)-200": "5f176522587c1b3d",
    "embed-Q(i)-64": "80b63133397677b4",
    "embed-Q(i)-8": "5c5216ae181b54ae",
    "embed-Q(sqrt-23)-200": "ee3700687ca69dd3",
    "embed-Q(sqrt-23)-64": "6e6707b6fd0eb2f2",
    "embed-Q(sqrt-23)-8": "57d410039950a8c2",
    "embed-Q(sqrt-5)-200": "f67eadda61f50ce2",
    "embed-Q(sqrt-5)-64": "e1b290ccebc94c76",
    "embed-Q(sqrt-5)-8": "ee1b16407d9d1220",
    "embed-Q(sqrt2)-200": "0fe16c44793e7183",
    "embed-Q(sqrt2)-64": "a827c641c64ac0ce",
    "embed-Q(sqrt2)-8": "e63e8e2700be7711",
    "embed-Q(zeta5)-200": "9a894ff673cbe0ec",
    "embed-Q(zeta5)-64": "1f6f098c176d3369",
    "embed-Q(zeta5)-8": "45961e6cc484dbc1",
    "embed-x^2-x+41-200": "320cf5ff8ec49fe7",
    "embed-x^2-x+41-64": "5d4745a658a77836",
    "embed-x^2-x+41-8": "e5968a6f4fda40f1",
    "embed-x^3-2-200": "269b3316ec8db4d5",
    "embed-x^3-2-64": "0baaa720756e17a0",
    "embed-x^3-2-8": "f51e9b53d8f00cfa",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned(case):
    fn, name, prec = CASES[case]
    assert fn(name, prec) == PINNED[case]


def _cmp_cases():
    """(field, power coordinates of alpha, place, scale, g, k)."""
    tiny = Q(1, 10 ** 120)          # below the 320-bit interval stage
    return [
        ("Q(sqrt-5)", [1, 1], 0, 1, 6, 2),         # |1+sqrt-5| = 6^(1/2)
        ("Q(sqrt-5)", [0, 3], 0, Q(1, 3), 25, 4),  # |3 sqrt-5|/3
        ("Q(sqrt-5)", [1, 1], 0, 1, 6 - tiny, 2),
        ("Q(sqrt-5)", [1, 1], 0, 1, 6 + tiny, 2),
        ("Q(sqrt-23)", [Q(1, 2), Q(1, 2)], 0, 1, 6, 2),
        ("Q(sqrt-5)", [0, 1], 0, 1, 5, 2),         # |sqrt-5| = 5^(1/2)
        ("Q(sqrt2)", [0, 1], 0, 1, 2, 2),
        ("Q(sqrt2)", [0, 1], 1, 1, 2, 2),
        ("Q(sqrt2)", [0, 1], 1, 1, 2 - tiny, 2),
        ("x^2-x+41", [0, 1], 0, 1, 41, 2),         # |theta|^2 = 41
        ("Q(zeta5)", [0, 1], 0, 1, 1, 1),          # |zeta5| = 1
        ("Q(zeta5)", [0, 0, 1], 1, 2, 8, 3),       # 2 |zeta5^2| = 8^(1/3)
        ("x^3-2", [0, 1], 0, 1, 2, 3),             # 2^(1/3) = 2^(1/3)
        ("x^3-2", [0, 1], 1, 1, 2, 3),
        ("x^3-2", [0, 1], 1, 1, 2 - tiny, 3),
    ]


CMP_VERDICTS = [LE, LE, GT, LE, LE, LE, LE, LE, GT, LE, LE, LE, LE, LE, GT]


def _verdicts(monkeypatch, cases):
    """cmp_element verdicts of the cases and the number of them that
    reached the Liouville fallback."""
    calls = []
    decide = nf_core.decide_root_gt_int

    def spy(int_poly, refine, c):
        calls.append(c)
        return decide(int_poly, refine, c)

    monkeypatch.setattr(nf_core, "decide_root_gt_int", spy)
    fields = {name: NumberField(*spec) for name, spec in FIELDS.items()}
    got = [cmp_element(fields[name].from_power(pw), place, scale, g, k)
           for name, pw, place, scale, g, k in cases]
    return got, len(calls)


def test_cmp_element_liouville_fallback(monkeypatch):
    assert _verdicts(monkeypatch, _cmp_cases()) == (CMP_VERDICTS,
                                                    len(CMP_VERDICTS))


def test_cmp_element_equality_on_exact_balls(monkeypatch):
    # the roots of x^2 + 1 are certified with radius 0, so these
    # equalities are decided by the interval's upper end equal to c
    cases = [("Q(i)", [1, 1], 0, 1, 4, 4),          # |1+i| = 4^(1/4)
             ("Q(i)", [0, 3], 0, Q(1, 3), 1, 5)]     # |3i|/3 = 1
    assert _verdicts(monkeypatch, cases) == ([LE, LE], 0)


rationals = st.builds(Q, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 60))


def _abs2_pow_gt_reference(field, alpha, emb_idx, k, c):
    """(verdict, fallback ran) of the `ComplexBall` reference of
    `abs2_pow_cmp` on the same embedding balls."""
    return oracles.abs2_pow_gt_reference(
        lambda p: oracles.embedding_values(field.embed(alpha, p))[emb_idx],
        lambda: polyq.primitive_z(alpha.charpoly()), k, c)


class TestAgainstReferences:
    @settings(max_examples=150, deadline=None)
    @given(poly=st.lists(rationals, max_size=6), zw=st.integers(1, 160),
           work=st.integers(8, 240), data=st.data())
    def test_horner(self, poly, zw, work, data):
        # small zw makes exact halves common, so the rounding rule shows
        bound = 1 << (zw + 4)
        a, b = (data.draw(st.integers(-bound, bound)) for _ in range(2))
        r = data.draw(st.integers(0, 1 << (zw // 2)))
        if data.draw(st.booleans()):
            b = 0                   # a real root
        den = lcm(*(c.denominator for c in poly))
        coeffs = [c.numerator * (den // c.denominator) for c in poly]
        re, im, rad, s = nf_core._horner_ball(coeffs, den, (a, b, r), zw,
                                              work)
        scale = 1 << zw
        ref = oracles.ceval_ball_reference(
            poly, ComplexBall(Q(a, scale), Q(b, scale), Q(r, scale)), work)
        assert (Q(re, 1 << work), Q(im, 1 << work), Q(rad, den << s)) == (
            ref.re, ref.im, ref.rad)

    @settings(max_examples=150, deadline=None)
    @given(re=st.integers(-10 ** 12, 10 ** 12),
           im=st.integers(-10 ** 12, 10 ** 12), rad=st.integers(0, 10 ** 8),
           work=st.integers(0, 60), shift=st.integers(0, 40),
           den=st.integers(1, 60), k=st.integers(1, 17))
    def test_abs2_pow(self, re, im, rad, work, shift, den, k):
        # an embedding ball as `embed` makes them: midpoint at 2^-work,
        # radius over a multiple of 2^work
        pt = nf_core.EmbeddingPoint([(re, im, rad)], work,
                                    den << (work + shift))
        mid, r, d = nf_core._abs2_pow(pt, 0, k)
        ref = oracles.abs2_pow_reference(oracles.embedding_values(pt)[0], k)
        assert (Q(mid, d), Q(r, d)) == (ref.mid, ref.rad)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(FIELDS)), prec=st.integers(8, 320),
           data=st.data())
    def test_log_embedding_and_sign(self, name, prec, data):
        # one series at the centre of each |sigma|^2 ball: the two-ended
        # reference ball at prec + 32 lies inside it, and its radius
        # exceeds the reference's at prec by at most 2^-(prec+16)·n_nu/2
        field = _field(name)
        coords = data.draw(st.lists(rationals, min_size=field.n,
                                    max_size=field.n).filter(any))
        alpha = field.element(coords)
        got = log_embedding(alpha, prec).entries
        fine = oracles.log_embedding_reference(field, alpha, prec + 32)
        ref = oracles.log_embedding_reference(field, alpha, prec)
        assert len(got) == len(fine) == len(ref) == len(field.places())
        for ball, f, r, (_idx, nnu) in zip(got, fine, ref, field.places()):
            assert ball.lo() <= f.lo() and f.hi() <= ball.hi()
            assert ball.rad <= r.rad + Q(nnu, 2 << (prec + 16))
        for place in range(field.n_real):
            assert field.sign_at_real_place(alpha, place) == (
                oracles.sign_at_real_place_reference(field, alpha, place))

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(sorted(FIELDS)), prec=st.integers(8, 320),
           m=st.integers(0, 2),
           q=st.builds(Q, st.integers(-30, 30).filter(bool),
                       st.integers(1, 6)),
           shift=st.sampled_from([0, 1, -1, None]), data=st.data())
    def test_abs2_pow_gt(self, name, prec, m, q, shift, data):
        # alpha = q theta^m has (|sigma(alpha)|^2)^k = q^2k T^(mk/root) at
        # every place, with |theta|^2 = T^(1/root); c is that value, or it
        # moved by a relative 10^-120 (both reach the Liouville fallback
        # unless the root balls are exact), or a ball midpoint at prec bits.
        # Small q and k keep each fallback within seconds.
        field = _field(name)
        t_num, root = THETA_ABS2[name]
        k = root * data.draw(st.integers(1, 3 if root == 1 else 2))
        alpha = field.from_power([0, 1]) ** m * q
        place = data.draw(st.integers(0, len(field.places()) - 1))
        emb_idx = field.places()[place][0]
        if shift is None:
            mid, _rad, den = nf_core._abs2_pow(field.embed(alpha, prec),
                                               emb_idx, k)
            c = Q(mid, den)
        else:
            c = q ** (2 * k) * Q(t_num) ** (m * k // root)
            c += shift * c / 10 ** 120
        decide = mock.patch.object(nf_core, "decide_root_gt_int",
                                   wraps=nf_core.decide_root_gt_int)
        with decide as spy:
            got = field.abs2_pow_cmp(alpha, place, k, c)
        assert (got, spy.call_count > 0) == _abs2_pow_gt_reference(
            field, alpha, emb_idx, k, c)

    @pytest.mark.parametrize("case", range(len(CMP_VERDICTS)))
    def test_abs2_pow_gt_fallback_cases(self, case):
        name, pw, place, scale, g, k = _cmp_cases()[case]
        field = _field(name)
        alpha = field.from_power(pw)
        emb_idx = field.places()[place][0]
        c = Q(g) * Q(g) / Q(scale) ** (2 * k)
        ref = _abs2_pow_gt_reference(field, alpha, emb_idx, k, c)
        assert ref[1]
        assert field.abs2_pow_cmp(alpha, place, k, c) == ref[0]

    @settings(max_examples=40, deadline=None)
    @given(poly=st.sampled_from(sorted(SUBSET_POLYS)),
           prec=st.integers(8, 320))
    def test_subset_factor_test(self, poly, prec):
        poly_q = [Q(c) for c in poly]
        work, balls = nf_core._root_mantissas(list(poly), prec)
        assert nf_core._subset_factor_test(poly_q, work, balls) == (
            oracles.subset_factor_test_reference(
                poly_q, oracles.certify_roots(list(poly), prec)))

    @settings(max_examples=150, deadline=None)
    @given(poly=st.sampled_from(sorted(SUBSET_POLYS)), work=st.integers(1, 12),
           data=st.data())
    def test_subset_factor_test_on_coarse_balls(self, poly, work, data):
        # the certified roots cut to 2^-work, with radii up to 2^-3, so
        # that wide coefficient balls (None), balls that exclude every
        # integer and exact factors (False) all occur
        poly_q = [Q(c) for c in poly]
        root_work, roots = nf_core._root_mantissas(list(poly), 8)
        cut = root_work - work
        balls = [(a >> cut, b >> cut,
                  data.draw(st.integers(0, max(1, (1 << work) >> 3))))
                 for a, b, _r in roots]
        scale = 1 << work
        ref = oracles.subset_factor_test_reference(
            poly_q, [ComplexBall(Q(a, scale), Q(b, scale), Q(r, scale))
                     for a, b, r in balls])
        assert nf_core._subset_factor_test(poly_q, work, balls) == ref


    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(FIELDS)), prec=st.integers(8, 160),
           data=st.data())
    def test_minkowski_columns(self, name, prec, data):
        field = NumberField(*FIELDS[name])
        coords = data.draw(st.lists(rationals, min_size=field.n,
                                    max_size=field.n).filter(any))
        x = []
        for _emb, nnu in field.places():
            x += [data.draw(rationals.filter(lambda v: v > 0))] * nnu
        elements = [field.element(coords)]
        got = minkowski_columns_x(field, elements, x, prec)
        ref = oracles.minkowski_columns_reference(field, elements, x, prec)
        assert _balls(got) == [[(c.mid, c.rad) for c in col] for col in ref]


def test_one_series_per_place():
    field = _field("Q(sqrt2)")
    alpha = field.element([Q(-7, 3), Q(5)])
    with mock.patch.object(divisor_log, "log_ball",
                           wraps=dyadic.log_ball) as spy:
        log_embedding(alpha, 895)
    assert spy.call_count == len(field.places())


@pytest.mark.parametrize("poly,label", [((-2, 0, 1), "pinned-qr2"),
                                        ((5, 0, 1), "pinned-qs5")])
def test_one_log_embedding_per_relation(poly, label):
    # Q(sqrt2)'s relations reach the unit block, Q(sqrt-5)'s do not
    field, fb, rels = test_linalg_pinned._relation_set(poly, label, 4)
    with mock.patch.object(sunit_pipeline, "log_embedding",
                           wraps=log_embedding) as spy:
        sunit_pipeline.postprocess(rels, fb, field)
    assert spy.call_count == len(rels)


@pytest.mark.parametrize("poly", sorted(SUBSET_POLYS))
def test_subset_search_verdicts(poly):
    # no prime below 80 that misses the discriminant shows the polynomial
    # irreducible, so `_is_irreducible` reaches the root-subset search
    poly_q = [Q(c) for c in poly]
    disc = polyq.discriminant(poly_q)
    for p in intmath.primes_below(80):
        if disc % p:
            fac = polyq.factor_mod_p(list(poly), p)
            assert not (len(fac) == 1 and fac[0][1] == 1)
    work, balls = nf_core._root_mantissas(list(poly), 64)
    assert nf_core._subset_factor_test(poly_q, work, balls) is SUBSET_POLYS[poly]
