"""Certified root balls and the exact |root| comparisons built on them.

The digests pin every certified root ball (exact midpoint and radius) of
six fields at three precisions, as `NumberField._all_roots` rounds them
from the one root set a field holds (Q(i)'s exact roots kept their
earlier pins); the answers must not depend on what the field was asked
before.  The |root| comparisons below run the
|sigma|^2k decision `nf_core._abs2_pow_gt` (the core of `cmp_element`) on
the certified root balls, through `oracles.abs_root_gt`; the fallback cases
reach its Liouville bound (equality holds, so no interval decides them).
"""

import hashlib
import random
from fractions import Fraction as Q

import pytest

from latnf import nf_core
from latnf.dyadic import sqrt_bracket
from latnf.nf_core import GT, LE, NumberField, new_field
from oracles import abs_root_gt, certify_roots

FIELDS = {"Q(i)": [1, 0, 1], "Q(sqrt-5)": [5, 0, 1], "Q(sqrt2)": [-2, 0, 1],
          "Q(sqrt-163)": [163, 0, 1], "Q(zeta5)": [1, 1, 1, 1, 1],
          "x^3-2": [-2, 0, 0, 1]}
# x^2 + 163 needs (1 + theta)/2 in its integral basis; the root balls
# depend on the polynomial alone
BASES = {"Q(sqrt-163)": [[1, 0], [Q(1, 2), Q(1, 2)]]}

PINNED = {
    ("Q(i)", 64): "5bd135912f820819",
    ("Q(i)", 128): "5bd135912f820819",
    ("Q(i)", 256): "5bd135912f820819",
    ("Q(sqrt-5)", 64): "f52f765f1437de09",
    ("Q(sqrt-5)", 128): "61378c2f3d3088f9",
    ("Q(sqrt-5)", 256): "f957655aac7eb378",
    ("Q(sqrt2)", 64): "a8e9094f1563b4db",
    ("Q(sqrt2)", 128): "724660ae81577bfa",
    ("Q(sqrt2)", 256): "9a5fe69c1a77ac7c",
    ("Q(sqrt-163)", 64): "b19cb19424c0b31c",
    ("Q(sqrt-163)", 128): "651a364e24415b50",
    ("Q(sqrt-163)", 256): "505b605cbbe4f170",
    ("Q(zeta5)", 64): "6488a15a6c8e57de",
    ("Q(zeta5)", 128): "abb62316c5877b05",
    ("Q(zeta5)", 256): "1e46a3ddfde3744b",
    ("x^3-2", 64): "cd3f9be68addb3b8",
    ("x^3-2", 128): "5123c091f206fa43",
    ("x^3-2", 256): "5efad54b4788e4d7",
}


def _digest(work, balls):
    """Hash of the balls (a + bi) 2^-work +- r 2^-work as reduced fractions."""
    h = hashlib.sha256()
    for mantissas in balls:
        for m in mantissas:
            x = Q(m, 1 << work)
            h.update(f"{x.numerator}/{x.denominator};".encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name,prec", sorted(PINNED))
def test_all_roots_pinned(name, prec):
    field = NumberField(FIELDS[name], BASES.get(name))
    assert _digest(*field._all_roots(prec)) == PINNED[(name, prec)]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_answers_do_not_depend_on_history(name):
    # a field first asked at 4096 and 300 bits holds a different root set
    # from a fresh one, and rounds the same balls from it
    warm = NumberField(FIELDS[name], BASES.get(name))
    warm._all_roots(4096)
    warm._all_roots(300)
    for prec in (8, 64, 200, 512, 2048):
        fresh = NumberField(FIELDS[name], BASES.get(name))
        assert fresh._all_roots(prec) == warm._all_roots(prec)
        alpha = [Q(1, 3), 2, -1][:fresh.n]
        assert (fresh.embed(fresh.from_power(alpha), prec).balls
                == warm.embed(warm.from_power(alpha), prec).balls)
        if name == "Q(i)":          # the exact roots +-i keep radius 0
            assert [r for _a, _b, r in warm._all_roots(prec)[1]] == [0, 0]
    assert len(warm._roots[2]) == warm.n    # one held root set


def test_refinements_double_the_held_precision(monkeypatch):
    # every refinement at least doubles the held precision, from at least
    # 128 bits to below 2 (4096 + 64): at most 7 over any 100 requests
    # in [64, 4096], here in the costliest (increasing) order
    calls = []
    refine = nf_core._root_mantissas

    def spy(*args):
        calls.append(args[1])
        return refine(*args)

    monkeypatch.setattr(nf_core, "_root_mantissas", spy)
    field = NumberField(FIELDS["Q(zeta5)"])
    calls.clear()       # count the requests' refinements only
    for prec in sorted(random.Random(5).sample(range(64, 4097), 100)):
        work, balls = field._all_roots(prec)
        assert all(r << prec <= 1 << work for _a, _b, r in balls)
    assert 1 <= len(calls) <= 8


class TestAbsModeFallback:
    def test_sqrt_minus_two_pow_four(self):
        # |sqrt(-2)|^2 = 2 and 2^4 = 16 = 4^2: equality resolves LE
        assert abs_root_gt([2, 0, 1], 0, 4, 4) == LE

    def test_cube_root_of_unity(self):
        # |omega| = 1 = 1^(1/3)
        assert abs_root_gt([1, 1, 1], 1, 1, 3) == LE

    def test_just_above_equality(self):
        assert abs_root_gt([2, 0, 1], 0, Q(3999, 1000), 4) == GT


def _eisenstein(rng, n):
    """Random monic integer polynomial of degree n, Eisenstein at 2."""
    body = [2 * rng.randrange(-4, 5) for _ in range(n - 1)]
    return [2 * (2 * rng.randrange(-3, 3) + 1)] + body + [1]


def test_abs_mode_agrees_with_interval_arithmetic():
    rng = random.Random(7)
    decided = 0
    for _ in range(40):
        poly = _eisenstein(rng, rng.choice((2, 3, 4)))
        # the balls `abs_root_gt` numbers (the power basis of an
        # Eisenstein polynomial need not be maximal, so no field is built)
        balls = sorted(certify_roots(poly, 256),
                       key=lambda b: (b.re, b.im))
        idx = rng.randrange(len(balls))
        k = rng.randrange(1, 4)
        g = Q(rng.randrange(1, 400), rng.randrange(1, 20))
        t = balls[idx].abs2()
        tk = t
        for _ in range(k - 1):
            tk = tk * t
        verdict = abs_root_gt(poly, idx, g, k)
        if tk.lo() > g * g:
            assert verdict == GT
            decided += 1
        elif tk.hi() < g * g:
            assert verdict == LE
            decided += 1
    assert decided >= 30


class TestZeta8:
    """x^4 + 1 is reducible modulo every prime, so irreducibility rests on
    the certified subset-of-roots factor search."""

    @staticmethod
    def _roots_64():
        # (+-1 +- i)/sqrt(2), midpoints within 2^-70 of the roots, radius
        # 2^-64: mantissas at 2^-70
        lo, _hi = sqrt_bracket(Q(1, 2), 70)
        m = int(lo * (1 << 70))
        return [(s * m, t * m, 1 << 6) for s in (1, -1) for t in (1, -1)]

    def test_subset_test_settles_at_64_bits(self):
        poly_q = [Q(c) for c in (1, 0, 0, 0, 1)]
        assert nf_core._subset_factor_test(poly_q, 70, self._roots_64()) is True

    def test_constructs(self):
        k = new_field([1, 0, 0, 0, 1])
        assert (k.n_real, k.n_cplx, k.disc_field) == (0, 2, 256)

    def test_biquadratic_product_still_reducible(self):
        with pytest.raises(ValueError, match="reducible"):
            new_field([2, 0, 3, 0, 1])     # (x^2 + 1)(x^2 + 2)
