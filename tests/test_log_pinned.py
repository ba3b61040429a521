"""Pinned outputs of the certified logarithm and exponential.

The digests hash the exact (mid, rad) of `dyadic.log_ball` and of the
two-ended `oracles.ball_log` built on it, on the inputs the S-unit
pipeline gives them:

- the |sigma(alpha)|^2 balls of the relation sets that
  `test_linalg_pinned` post-processes, on Q(sqrt-5) and Q(sqrt2), taken
  the way `divisor_log.log_embedding` took them when these digests were
  recorded (embedding at prec + 16, logs at prec + 8, at both ends of
  each ball) at prec 64, 128 and, on Q(sqrt2), the precision at which
  `postprocess`'s unit block decides (128 bits: the first rung of its
  ladder already meets the double BKP's error budget), and at 895 bits,
  the unit-block precision that the a-priori formula gave the Q(sqrt2)
  relation dump that `perfbench`'s `reverify` verifies;
- the same balls of that dump as `reverify` writes it at seed 911
  (`REVERIFY_SQRT2`), at the precision where its unit block decides
  (256 bits: the second rung of the ladder);
- log N(p) at 64 bits over the primes of norm <= 60 of both fields.

They were recorded from the `Fraction` atanh series (now
`oracles.log_ball_reference`), so they pin the integer kernel to the
same balls.

Property tests below compare the kernel with that reference on rationals
up to 4,000 bits, also with no guard bits (so that most series steps take
the exact fallback), check its balls against mpmath at four times the
precision, and check that inputs beyond its error budget raise.

`exp_ball`'s balls are pinned on 60 seeded inputs, checked against mpmath
over negative t, |k| past a million and precisions up to 1,024, and
checked to raise outside the range its radius is proved for.
"""

import functools
import hashlib
import random
from fractions import Fraction as Q

import oracles
import pytest
import test_linalg_pinned
from hypothesis import given, settings
from hypothesis import strategies as st

from latnf import dyadic, relations, sunit_pipeline
from latnf.dyadic import log_ball
from latnf.ideal_arith import HnfIdeal, primes_up_to
from latnf.nf_core import NumberField
from latnf.relations import FactorBase, SUnitRelation

FIELDS = {"sqrt-5": ((5, 0, 1), "pinned-qs5"),
          "sqrt2": ((-2, 0, 1), "pinned-qr2")}
# the coordinates of alpha over the relation dump that `perfbench`'s
# `reverify` writes for Q(sqrt2) at seed 911 (S: the primes of norm <= 10)
REVERIFY_SQRT2 = [[-2, 10], [0, 2], [4, 1], [4, -2], [-9, -6], [3, -1],
                  [0, -6], [10, 8], [12, -4], [4, -4], [6, 12]]


def _digest(balls):
    h = hashlib.sha256()
    for b in balls:
        for v in (b.mid, b.rad):
            v = Q(v)
            h.update(f"{v.numerator}/{v.denominator};".encode())
        h.update(b"|")
    return h.hexdigest()[:16]


@functools.cache
def _relations(name):
    if name == "sqrt2-reverify":
        return _dump_relations((-2, 0, 1), REVERIFY_SQRT2)
    poly, label = FIELDS[name]
    return test_linalg_pinned._relation_set(poly, label, 4)


def _dump_relations(poly, coords):
    """The relations of a dump whose input ideals are O_K: each alpha with
    its valuations over the primes of norm <= 10."""
    field = NumberField(list(poly))
    fb = FactorBase(primes_up_to(field, 10))
    ok_ring = HnfIdeal.ring_of_integers(field)
    rels = []
    for c in coords:
        alpha = field.element(c)
        vals = relations.smooth_factor(HnfIdeal.principal(field, alpha), fb)
        rels.append(SUnitRelation(alpha, tuple(vals), tuple(vals), ok_ring, 1))
    return field, fb, rels


@functools.cache
def _unit_block_precision(name):
    """The precision of the last log embedding `postprocess` takes for
    the unit block of the relation set (the rung of its precision ladder
    that decides), or None when it has no unit block."""
    field, fb, rels = _relations(name)
    precs, budgets = [], []
    embed, budget = (sunit_pipeline.log_embedding,
                     sunit_pipeline.double_bkp_budget_met)

    def record_embed(alpha, prec):
        precs.append(prec)
        return embed(alpha, prec)

    def record_budget(gens):
        budgets.append(gens)
        return budget(gens)

    sunit_pipeline.log_embedding = record_embed
    sunit_pipeline.double_bkp_budget_met = record_budget
    try:
        sunit_pipeline.postprocess(rels, fb, field)
    finally:
        sunit_pipeline.log_embedding = embed
        sunit_pipeline.double_bkp_budget_met = budget
    return precs[-1] if budgets else None


def _abs2_logs(name, prec):
    field, _fb, rels = _relations(name)
    out = []
    for rel in rels:
        pt = field.embed(rel.alpha, prec + 16)
        for idx, _nnu in field.places():
            a2 = oracles.embedding_values(pt)[idx].abs2()
            out += [log_ball(a2.lo(), prec + 8), log_ball(a2.hi(), prec + 8),
                    oracles.ball_log(a2, prec + 8)]
    return _digest(out)


def _norm_logs(name):
    field = _relations(name)[0]
    return _digest([log_ball(Q(p.norm()), 64)
                    for p in primes_up_to(field, 60)])


CASES = {
    "abs2-sqrt-5-64": lambda: _abs2_logs("sqrt-5", 64),
    "abs2-sqrt-5-128": lambda: _abs2_logs("sqrt-5", 128),
    "abs2-sqrt2-64": lambda: _abs2_logs("sqrt2", 64),
    "abs2-sqrt2-128": lambda: _abs2_logs("sqrt2", 128),
    "abs2-sqrt2-unit-block": lambda: _abs2_logs(
        "sqrt2", _unit_block_precision("sqrt2")),
    "abs2-sqrt2-895": lambda: _abs2_logs("sqrt2", 895),
    "abs2-sqrt2-reverify-unit-block": lambda: _abs2_logs(
        "sqrt2-reverify", _unit_block_precision("sqrt2-reverify")),
    "norms-sqrt-5": lambda: _norm_logs("sqrt-5"),
    "norms-sqrt2": lambda: _norm_logs("sqrt2"),
}

PINNED = {
    "abs2-sqrt-5-128": "75df4af2fef7f65d",
    "abs2-sqrt-5-64": "58806a76e5b4ab79",
    "abs2-sqrt2-128": "4a4838c043947eee",
    "abs2-sqrt2-64": "1a93e5838ec1c769",
    "abs2-sqrt2-895": "73d8f3412acb1b1d",
    "abs2-sqrt2-reverify-unit-block": "536e148148d40234",
    "abs2-sqrt2-unit-block": "4a4838c043947eee",
    "norms-sqrt-5": "ba0429bf9b39475e",
    "norms-sqrt2": "4fe0f71067f36edd",
}
EXP_BALLS = "f9d416c1308b5b45"


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned(name):
    assert CASES[name]() == PINNED[name]


def test_unit_block_precision():
    # Q(sqrt-5) has unit rank 0, so its relations never reach the unit
    # block; on Q(sqrt2) the double BKP's budget holds at the ladder's
    # first rung (err below 2^-133, the bound in [2^-132, 2^-131))
    assert _unit_block_precision("sqrt-5") is None
    assert _unit_block_precision("sqrt2") == 128
    # the `reverify` dump's first rung misses the budget; the second meets it
    assert _unit_block_precision("sqrt2-reverify") == 256


# ---------------------------------------------------------------------------
# The integer kernel against the Fraction series


@st.composite
def log_inputs(draw):
    """Positive rationals up to 4,000 bits, with x = 1, powers of two,
    mantissas just below 2 and x < 1 drawn on purpose."""
    kind = draw(st.sampled_from(["random", "one", "power", "below2", "small"]))
    if kind == "one":
        return Q(1)
    k = draw(st.integers(-4000, 4000))
    if kind == "power":
        return Q(2) ** k
    if kind == "below2":
        n = draw(st.integers(1, 2000))
        return Q((1 << (n + 1)) - draw(st.integers(1, 3)), 1 << n) * Q(2) ** k
    num = draw(st.integers(1, 2 ** draw(st.integers(1, 4000))))
    den = draw(st.integers(1, 2 ** draw(st.integers(1, 4000))))
    if kind == "small" and num > den:
        num, den = den, num
    return Q(num, den)


@settings(max_examples=250, deadline=None)
@given(log_inputs(), st.integers(1, 2048))
def test_kernel_matches_fraction_series(x, prec):
    ball = log_ball(x, prec)
    assert (ball.mid, ball.rad) == oracles.log_ball_reference(x, prec)


def test_exact_fallback_matches_fraction_series(monkeypatch):
    # with no guard bits every step with a term above 1 falls back to the
    # exact product and division
    monkeypatch.setattr(dyadic, "_LOG_GUARD", 0)
    rng = random.Random("log-fallback")
    for _ in range(60):
        x = Q(rng.getrandbits(rng.randrange(1, 3000)) + 1,
              rng.getrandbits(rng.randrange(1, 3000)) + 1)
        prec = rng.randrange(1, 1024)
        ball = log_ball(x, prec)
        assert (ball.mid, ball.rad) == oracles.log_ball_reference(x, prec)


@settings(max_examples=150, deadline=None)
@given(log_inputs(), st.integers(1, 2048))
def test_ball_contains_mpmath_log(x, prec):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(4 * prec + 64):
        ref = mpmath.log(mpmath.mpf(x.numerator) / x.denominator)
    ref = Q(*(int(v) for v in mpmath.libmp.to_rational(ref._mpf_)))
    ball = log_ball(x, prec)
    # the reference is within 2^-(3 prec) of log x
    assert abs(ref - ball.mid) + Q(1, 1 << (3 * prec)) <= ball.rad


# ---------------------------------------------------------------------------
# The certified exponential


@st.composite
def exp_inputs(draw):
    """Rationals t of either sign: small ones, ones near a multiple of
    log 2 (halfway cases of the reduction k), and |t| up to 2^20, where
    |k| passes 1.5 million."""
    kind = draw(st.sampled_from(["small", "near_k_ln2", "large"]))
    sign = draw(st.sampled_from([1, -1]))
    den = draw(st.integers(1, 2 ** draw(st.integers(0, 200))))
    if kind == "small":
        return sign * Q(draw(st.integers(0, 4 * den)), den)
    if kind == "near_k_ln2":
        k = draw(st.integers(0, 2000))
        half = Q(2 * k + 1, 2) * Q(6931471805599453, 10 ** 16)
        return sign * (half + Q(draw(st.integers(-3, 3)), den))
    return sign * Q(draw(st.integers(0, (2 ** 20) * den)), den)


@settings(max_examples=120, deadline=None)
@given(exp_inputs(), st.integers(0, 1024))
def test_exp_ball_contains_mpmath_exp(t, prec):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(4 * prec + 128):
        ref = mpmath.exp(mpmath.mpf(t.numerator) / t.denominator)
    ref = Q(*(int(v) for v in mpmath.libmp.to_rational(ref._mpf_)))
    ball = dyadic.exp_ball(t, prec)
    # the reference is within a relative 2^-(4 prec + 100) of exp t
    assert abs(ref - ball.mid) + ref / (1 << (4 * prec + 100)) <= ball.rad


def _exp_balls():
    rng = random.Random("exp-mids")
    balls = []
    for _ in range(60):
        t = Q(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 10 ** 4))
        balls.append(dyadic.exp_ball(t, rng.randrange(8, 64)))
    return _digest(balls)


def test_exp_ball_pinned():
    # `ideal_walk.sample_beta` and `relations.random_relation` read only
    # the midpoint, at 8 to about 40 bits; recorded before the range
    # check and the radius's proof
    assert _exp_balls() == EXP_BALLS


def test_exp_ball_beyond_the_error_budget_raises():
    with pytest.raises(ValueError, match="negative precision"):
        dyadic.exp_ball(Q(1), -1)
    with pytest.raises(ValueError, match="guard bits"):
        dyadic.exp_ball(Q(2 ** 31), 8)
    with pytest.raises(ValueError, match="guard bits"):
        dyadic.exp_ball(-Q(2 ** 31), 8)


def test_beyond_the_error_budget_raises():
    with pytest.raises(ValueError, match="guard bits"):
        log_ball(Q(3), 20_000)
    with pytest.raises(ValueError, match="guard bits"):
        log_ball(Q(1 << (1 << 24)), 64)
    with pytest.raises(ValueError, match="non-positive"):
        log_ball(Q(0), 64)
