"""The integer BKP kernel against the `Fraction` passes it replaced.

`oracles.bkp_once_reference` and `oracles.bkp_twice_reference` are the
passes as the library computed them before: `Fraction` rows, and the
constants C, C0, T and lambda as rational powers.  The kernel runs on one
integer matrix over a common denominator and decides every comparison
with those constants on a 64-bit bracket first, so it must give the same
rank, M and basis rows on every input, or refuse it with the same
`ValueError`:

- seeded and hypothesis generators with ranks 1-4 and more generators
  than the rank, perturbed below the admissible error;
- the dual bases `dual_exp_reduce` hands to `bkp_twice`, as the integer
  adjugate over its denominator;
- planted exact ties (err = mu/(4C), T a power of two, a tail^2 equal to
  its threshold), where the bracket cannot decide and the exact products
  must.

`double_bkp_budget_met`, the double pass's hypothesis err < mu/(4 C0) on
its own, is checked against the reference's bound one unit of err either
side of it, and against `bkp_twice`'s refusal.
"""

import random
from fractions import Fraction as Q

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latnf import approx_reduction
from latnf.approx_reduction import (ApproxGenerators, bkp_twice,
                                    double_bkp_budget_met)
from latnf.ideal_arith import HnfIdeal, kummer_dedekind
from latnf.nf_core import new_field
from oracles import bkp_once


def _outcome(fn, *args):
    """(rank, m_rows, basis_rows), ValueError for a refusal (the messages
    differ), or the message of a RuntimeError."""
    try:
        res = fn(*args)
    except ValueError:
        return ValueError
    except RuntimeError as exc:
        return str(exc)
    if isinstance(res, tuple):
        return res[:3]
    return res.rank, res.m_rows, res.basis_rows


def _same(rows, err, mu, r0):
    """Both passes give the reference's outcome; returns the double
    pass's rank, or None when it does not return a basis."""
    gens = ApproxGenerators(rows=rows, err=err, mu=mu, r0=r0)
    assert _outcome(bkp_once, gens) == \
        _outcome(oracles.bkp_once_reference, rows, err, mu, r0)
    try:
        ref = _outcome(oracles.bkp_twice_reference, rows, err, mu, r0)
    except IndexError:
        # the reference's second pass fails on a rank-0 first pass
        ref = ValueError
    got = _outcome(bkp_twice, gens)
    assert got == ref
    return got[0] if isinstance(got, tuple) else None


def _generators(rng, rank, k, width, scale, eps):
    """k rows spanning a rank-`rank` integer lattice times `scale`, the
    first `rank` independent, each entry moved by at most eps / 4."""
    while True:
        base = [[rng.randrange(-6, 7) for _ in range(width)]
                for _ in range(rank)]
        if len(oracles.hnf_rows(base)) == rank:
            break
    rows = [list(b) for b in base]
    for _ in range(k - rank):
        cs = [rng.randrange(-2, 3) for _ in base]
        rows.append([sum(c * b[j] for c, b in zip(cs, base))
                     for j in range(width)])
    return [[Q(x) * scale + Q(rng.randrange(-250, 251), 1000) * eps
             for x in row] for row in rows]


def test_seeded_generators_match():
    rng = random.Random(11)
    ranks = set()
    for _ in range(60):
        rank = rng.randint(1, 4)
        k = rank + rng.randint(0, 2)
        width = rank + rng.randint(0, 1)
        scale = rng.choice([Q(1), Q(3), Q(1, 7), Q(2 ** 20)])
        eps = Q(1, 2 ** rng.choice([40, 120, 300, 600]))
        rows = _generators(rng, rank, k, width, scale, eps)
        got = _same(rows, eps, Q(1, 2), rng.randint(rank, 4))
        if got is not None and k > got:
            ranks.add(got)
    assert ranks == {1, 2, 3, 4}


@settings(max_examples=60, deadline=None)
@given(rank=st.integers(1, 4), extra=st.integers(0, 2),
       wide=st.integers(0, 1),
       scale=st.fractions(min_value=Q(1, 50), max_value=50,
                          max_denominator=50),
       eps_bits=st.integers(10, 700), mu=st.sampled_from([Q(1, 4), Q(1, 2), Q(1)]),
       r0_extra=st.integers(-1, 2), seed=st.integers(0, 2 ** 32))
def test_property_matches_reference(rank, extra, wide, scale, eps_bits, mu,
                                    r0_extra, seed):
    rng = random.Random(seed)
    width = rank + wide
    eps = Q(1, 2 ** eps_bits)
    rows = _generators(rng, rank, rank + extra, width, scale, eps)
    _same(rows, eps, mu, max(1, rank + r0_extra))


@pytest.mark.parametrize("poly,prime", [([1, 0, 1], None), ([5, 0, 1], 2),
                                        ([-2, 0, 1], 7),
                                        ([1, 1, 1, 1, 1], None)])
def test_dual_reduction_inputs_match(monkeypatch, poly, prime):
    field = new_field(poly)
    ideal = (HnfIdeal.ring_of_integers(field) if prime is None
             else kummer_dedekind(field, prime)[0][0].hnf)
    seen = []
    kernel = approx_reduction.bkp_twice

    def spy(gens):
        assert all(type(x) is int for row in gens.rows for x in row)
        rows = [[Q(x, gens.den) for x in row] for row in gens.rows]
        got = _outcome(kernel, gens)
        assert got == _outcome(oracles.bkp_twice_reference, rows, gens.err,
                               gens.mu, gens.r0)
        seen.append(got)
        return kernel(gens)

    monkeypatch.setattr(approx_reduction, "bkp_twice", spy)
    approx_reduction.dual_exp_reduce([Q(1)] * field.n, ideal)
    assert isinstance(seen[-1], tuple) and seen[-1][0] == field.n


def test_dual_reduction_builds_no_basis_rows(monkeypatch):
    # dual_exp_reduce reads only the rank and M, so no result of its
    # bkp_twice calls builds the rational rows (a cached property)
    results = []
    kernel = approx_reduction.bkp_twice

    def spy(gens):
        results.append(kernel(gens))
        return results[-1]

    monkeypatch.setattr(approx_reduction, "bkp_twice", spy)
    for poly in ([1, 0, 1], [1, 1, 1, 1, 1]):
        field = new_field(poly)
        approx_reduction.dual_exp_reduce(
            [Q(1)] * field.n, HnfIdeal.ring_of_integers(field))
    assert results
    assert not any("basis_rows" in vars(res) for res in results)
    res = results[-1]
    assert res.basis_rows == [[Q(sum(m * x for m, x in zip(row, col)), res.den)
                               for col in zip(*res.int_rows)]
                              for row in res.m_rows]


class _ExactSpy:
    """Counts the exact-product fallbacks, by the shift of the side."""

    def __init__(self, monkeypatch):
        self.shifts = []
        self._exact = approx_reduction._exact
        monkeypatch.setattr(approx_reduction, "_exact", self)

    def __call__(self, side):
        self.shifts.append(side[0])
        return self._exact(side)


def test_error_tie_is_refused(monkeypatch):
    # zero rows: ||A||^ = err, so with k = r0 = 1 and err = mu/4,
    # C = 2^4 (err/mu)^2 = 1 and err = mu/(4C) exactly
    spy = _ExactSpy(monkeypatch)
    mu = Q(1, 2)
    with pytest.raises(ValueError, match=r"\[2\^-3, 2\^-2\)"):
        bkp_once(ApproxGenerators(rows=[[0]], err=mu / 4, mu=mu, r0=1))
    with pytest.raises(ValueError):
        oracles.bkp_once_reference([[0]], mu / 4, mu, 1)
    assert 4 * 1 + 2 in spy.shifts      # the 2^(4k+2) side of err < mu/(4C)
    # a hair below the tie passes, decided exactly too
    spy.shifts.clear()
    err = mu / 4 - Q(1, 2 ** 300)
    res = bkp_once(ApproxGenerators(rows=[[0]], err=err, mu=mu, r0=1))
    assert (res.rank, res.m_rows, res.basis_rows) == \
        oracles.bkp_once_reference([[0]], err, mu, 1)[:3]
    assert 6 in spy.shifts and 3 in spy.shifts   # the err and T decisions


@pytest.mark.parametrize("j", [0, 1, 5])
def test_power_of_two_t_and_tail_tie(monkeypatch, j):
    # ||A||^ = sqrt_bracket's 2^-32 upper end of a, plus err, = 2 exactly;
    # with mu = 1/2, r0 = 2 and k = 3: T = 2^9 / mu (r0 ||A||^ / mu)^2
    # = 2^16, and the row (1/64, 0) rounds to the tail (2^11, 0), whose
    # square 2^22 is the relation threshold 4 2^(k-1) lambda^2
    spy = _ExactSpy(monkeypatch)
    a = Q(2 ** 34 - 2 * j - 1, 2 ** 33)
    rows = [[a, 0], [0, 1], [Q(1, 64), 0]]
    err, mu = Q(j, 2 ** 32), Q(1, 2)
    assert _same(rows, err, mu, 2) == (1 if j == 0 else None)
    assert 3 * 3 in spy.shifts          # floor(log2 T) from the products
    assert 3 * 3 + 1 in spy.shifts      # tail^2 <= threshold from them


def test_rank_zero_first_pass_is_refused():
    # every row is a relation, so the second pass has no rows; the
    # reference fails there with an IndexError, the kernel refuses
    gens = ApproxGenerators(rows=[[Q(1, 1000)]], err=Q(1, 2 ** 40),
                            mu=Q(1), r0=1)
    assert bkp_once(gens).rank == 0
    with pytest.raises(IndexError):
        oracles.bkp_twice_reference(gens.rows, gens.err, gens.mu, 1)
    with pytest.raises(ValueError, match="need k >= 1"):
        bkp_twice(gens)


@pytest.mark.parametrize("err,mu,r0", [(Q(-1, 2 ** 40), Q(1, 2), 2),
                                       (Q(1, 2 ** 40), Q(0), 2),
                                       (Q(1, 2 ** 40), Q(-1, 2), 2),
                                       (Q(1, 2 ** 40), Q(1, 2), 0)])
def test_preconditions(err, mu, r0):
    gens = ApproxGenerators(rows=[[Q(1), 0], [0, Q(1)]], err=err, mu=mu,
                            r0=r0)
    for fn in (bkp_once, bkp_twice):
        with pytest.raises(ValueError, match="BKP needs"):
            fn(gens)


def test_zero_rows_and_error_refused():
    gens = ApproxGenerators(rows=[[0, 0]], err=Q(0), mu=Q(1), r0=1)
    with pytest.raises(ValueError, match="nonzero generator"):
        bkp_twice(gens)


def _refuses_hypothesis(gens):
    """Whether `bkp_twice` raises its double-BKP hypothesis error (any
    other refusal, or a result, reads False)."""
    try:
        bkp_twice(gens)
    except ValueError as exc:
        return "too large for double BKP" in str(exc)
    except RuntimeError:
        pass
    return False


@st.composite
def budget_cases(draw):
    """Rational generators with a nonzero row, mu and r0 <= k."""
    k = draw(st.integers(1, 4))
    w = draw(st.integers(1, 3))
    entry = st.builds(Q, st.integers(-2 ** 12, 2 ** 12),
                      st.sampled_from([1, 3, 2 ** 10]))
    rows = [[draw(entry) for _ in range(w)] for _ in range(k)]
    if not any(any(r) for r in rows):
        rows[0][0] = Q(1)
    mu = Q(draw(st.integers(1, 2 ** 10)), 2 ** draw(st.integers(0, 12)))
    r0 = draw(st.integers(1, k))
    return rows, mu, r0


@settings(max_examples=40, deadline=None)
@given(budget_cases())
def test_budget_predicate_is_bkp_twice_hypothesis(case):
    # the hypothesis holds for err below a threshold and fails above it
    # (the bound falls as err grows); on the grid err = e / 2^b, b fine
    # enough that the threshold lies past 2^20 steps, e* is the last
    # point where it holds, and the predicate, the Fraction reference and
    # bkp_twice's refusal agree at e* - 1, e* and e* + 1
    rows, mu, r0 = case

    def ref(e, b):
        return oracles.double_bkp_budget_reference(rows, Q(e, 1 << b), mu, r0)

    b = 0
    while not ref(1 << 20, b):
        b += 16
    lo, hi = 1 << 20, 1 << 21
    while ref(hi, b):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ref(mid, b):
            lo = mid
        else:
            hi = mid
    for e in (lo - 1, lo, lo + 1):
        gens = ApproxGenerators(rows=rows, err=Q(e, 1 << b), mu=mu, r0=r0)
        met = double_bkp_budget_met(gens)
        assert met == ref(e, b) == (e <= lo)
        assert _refuses_hypothesis(gens) == (not met)


def test_budget_predicate_keeps_the_other_refusals():
    # malformed generators raise, as in bkp_twice, rather than read False
    for gens in (ApproxGenerators(rows=[[0, 0]], err=Q(0), mu=Q(1), r0=1),
                 ApproxGenerators(rows=[[Q(1)]], err=Q(1, 2 ** 40), mu=Q(0),
                                  r0=1)):
        with pytest.raises(ValueError):
            double_bkp_budget_met(gens)
        with pytest.raises(ValueError):
            bkp_twice(gens)
