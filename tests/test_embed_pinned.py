"""Pinned outputs of the certified-embedding path.

The digests hash the exact (re, im, rad) of every value `embed` returns at
8, 64 and 200 bits, and the exact (mid, rad) of every entry of
`minkowski_columns_x` at non-dyadic distortions x, on power-basis fields
(one with only real roots, one taking the real-root branch of the
canonical order next to a complex pair) and on Q(sqrt-23) with its
supplied basis, whose power coordinates have denominator 2.  They were
recorded from the `Fraction` ball Horner (now
`oracles.ceval_ball_reference`), so they pin the integer kernels to the
same balls.  The `cmp_element` cases are equalities or near-ties that no
interval decides, so each reaches the Liouville fallback, and two
equalities on Q(i), whose root balls are exact, that the interval's upper
end decides.

Property tests below compare the integer Horner, the integer |z|^2k ball
and the integer Minkowski columns with their `Fraction` references in
`oracles.py`.  The columns are integer mantissas over one midpoint and
one radius denominator per column; both the pins and the property test
read each entry back as the fractions (mid, rad).
"""

import hashlib
import random
from fractions import Fraction as Q
from math import lcm

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latnf import nf_core
from latnf.approx_reduction import minkowski_columns_x
from latnf.dyadic import ComplexBall
from latnf.nf_core import GT, LE, cmp_element, new_field

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
    out = [field.theta(), field.one()]
    for spread, max_den in ((20, 6), (20, 6), (20, 6), (10 ** 9, 35)):
        den = rng.randrange(1, max_den + 1)
        out.append(field.element([Q(rng.randrange(-spread, spread + 1), den)
                                  for _ in range(field.n)]))
    return out


def _embeds(name, prec):
    field = new_field(*FIELDS[name])
    return _digest([(v.re, v.im, v.rad)
                    for alpha in _elements(field, name)
                    for v in field.embed(alpha, prec).values])


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
    field = new_field(*FIELDS[name])
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
    "columns-Q(sqrt-23)-136": "39d6a1b4d6f7fa41",
    "columns-Q(sqrt-23)-64": "604b2f217fe4bbab",
    "columns-Q(sqrt-5)-136": "e50023fce3671bca",
    "columns-Q(sqrt-5)-64": "6512deb983d64626",
    "columns-Q(sqrt2)-136": "8df03b056051e0c2",
    "columns-Q(sqrt2)-64": "02a21fc62fbf90a6",
    "columns-Q(zeta5)-136": "0a2cd1f4a87ed4ba",
    "columns-Q(zeta5)-64": "dd195758edbcc0d5",
    "columns-x^2-x+41-136": "8f78385086bd0575",
    "columns-x^2-x+41-64": "75b0780f4bd36b9a",
    "columns-x^3-2-136": "1e335c75982415ce",
    "columns-x^3-2-64": "981d6284e1121128",
    "embed-Q(i)-200": "5f176522587c1b3d",
    "embed-Q(i)-64": "80b63133397677b4",
    "embed-Q(i)-8": "5c5216ae181b54ae",
    "embed-Q(sqrt-23)-200": "54897daf7a9491f9",
    "embed-Q(sqrt-23)-64": "bf2a2812fc28171f",
    "embed-Q(sqrt-23)-8": "10725021c57b23a5",
    "embed-Q(sqrt-5)-200": "1307d2cdecb50749",
    "embed-Q(sqrt-5)-64": "5a67ebb21984bbc3",
    "embed-Q(sqrt-5)-8": "f0ed25a02e146e71",
    "embed-Q(sqrt2)-200": "67676be71c1ef9c0",
    "embed-Q(sqrt2)-64": "1fd9006d2d823f42",
    "embed-Q(sqrt2)-8": "182c7387df3ff062",
    "embed-Q(zeta5)-200": "91936032464d3852",
    "embed-Q(zeta5)-64": "1ca47220f2ef69ac",
    "embed-Q(zeta5)-8": "22f138cf3c6333cc",
    "embed-x^2-x+41-200": "89527b04bf33ddee",
    "embed-x^2-x+41-64": "ea649e1d2813f19c",
    "embed-x^2-x+41-8": "b35dc01283afb1ba",
    "embed-x^3-2-200": "3ca492a9b21e5fe3",
    "embed-x^3-2-64": "32d60ab46394a171",
    "embed-x^3-2-8": "19477f1728075e2d",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned(case):
    fn, name, prec = CASES[case]
    assert fn(name, prec) == PINNED[case]


def _cmp_cases():
    """(field, power coordinates of alpha, place, scale, g, k, signed)."""
    tiny = Q(1, 10 ** 120)          # below the 320-bit interval stage
    return [
        ("Q(sqrt-5)", [1, 1], 0, 1, 6, 2, False),       # |1+sqrt-5| = 6^(1/2)
        ("Q(sqrt-5)", [0, 3], 0, Q(1, 3), 25, 4, False),  # |3 sqrt-5|/3
        ("Q(sqrt-5)", [1, 1], 0, 1, 6 - tiny, 2, False),
        ("Q(sqrt-5)", [1, 1], 0, 1, 6 + tiny, 2, False),
        ("Q(sqrt-23)", [Q(1, 2), Q(1, 2)], 0, 1, 6, 2, False),
        ("Q(sqrt-5)", [0, 1], 0, 1, 5, 2, False),       # |sqrt-5| = 5^(1/2)
        ("Q(sqrt2)", [0, 1], 0, 1, 2, 2, False),
        ("Q(sqrt2)", [0, 1], 1, 1, 2, 2, True),
        ("Q(sqrt2)", [0, 1], 1, 1, 2 - tiny, 2, True),
        ("x^2-x+41", [0, 1], 0, 1, 41, 2, False),       # |theta|^2 = 41
        ("Q(zeta5)", [0, 1], 0, 1, 1, 1, False),        # |zeta5| = 1
        ("Q(zeta5)", [0, 0, 1], 1, 2, 8, 3, False),     # 2 |zeta5^2| = 8^(1/3)
        ("x^3-2", [0, 1], 0, 1, 2, 3, True),            # 2^(1/3) = 2^(1/3)
        ("x^3-2", [0, 1], 1, 1, 2, 3, False),
        ("x^3-2", [0, 1], 1, 1, 2 - tiny, 3, False),
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
    fields = {name: new_field(*spec) for name, spec in FIELDS.items()}
    got = [cmp_element(fields[name].from_power(pw), place, scale, g, k,
                       signed=signed)
           for name, pw, place, scale, g, k, signed in cases]
    return got, len(calls)


def test_cmp_element_liouville_fallback(monkeypatch):
    assert _verdicts(monkeypatch, _cmp_cases()) == (CMP_VERDICTS,
                                                    len(CMP_VERDICTS))


def test_cmp_element_equality_on_exact_balls(monkeypatch):
    # the roots of x^2 + 1 are certified with radius 0, so these
    # equalities are decided by the interval's upper end equal to c
    cases = [("Q(i)", [1, 1], 0, 1, 4, 4, False),       # |1+i| = 4^(1/4)
             ("Q(i)", [0, 3], 0, Q(1, 3), 1, 5, False)]  # |3i|/3 = 1
    assert _verdicts(monkeypatch, cases) == ([LE, LE], 0)


rationals = st.builds(Q, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 60))


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
    @given(re=rationals, im=rationals, rad=rationals, k=st.integers(1, 17))
    def test_abs2_pow(self, re, im, rad, k):
        z = ComplexBall(re, im, abs(rad))
        mid, r, den = nf_core._abs2_pow(z, k)
        ref = oracles.abs2_pow_reference(z, k)
        assert (Q(mid, den), Q(r, den)) == (ref.mid, ref.rad)

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(FIELDS)), prec=st.integers(8, 160),
           data=st.data())
    def test_minkowski_columns(self, name, prec, data):
        field = new_field(*FIELDS[name])
        coords = data.draw(st.lists(rationals, min_size=field.n,
                                    max_size=field.n).filter(any))
        x = []
        for _emb, nnu in field.places():
            x += [data.draw(rationals.filter(lambda v: v > 0))] * nnu
        elements = [field.element(coords)]
        got = minkowski_columns_x(field, elements, x, prec)
        ref = oracles.minkowski_columns_reference(field, elements, x, prec)
        assert _balls(got) == [[(c.mid, c.rad) for c in col] for col in ref]
