import itertools
import math
import random
from fractions import Fraction as Q

import pytest

from latnf import lattice_core, qlinalg, sunit_pipeline
from latnf.approx_reduction import ApproxGenerators, bkp_twice
from latnf.divisor_log import LogVector, kessler_lambda1_lower, log_embedding
from latnf.dyadic import RealBall, sqrt_bracket
from latnf.ideal_arith import HnfIdeal, hnf_mul, kummer_dedekind, primes_up_to
from latnf.ideal_walk import walk_prime_bound
from latnf.lattice_core import enumerate_short_gram
from latnf.nf_core import CapExceeded, NumberField, new_field
from latnf.relations import (FactorBase, RandomRelationOutput, RelationConfig,
                             SUnitRelation)
from latnf.samplers import SamplerConfig
from latnf.sunit_pipeline import (IDLE_DRAW_CAP, PostprocessResult,
                                  class_group_from_basis, compute_sunits,
                                  euclid_correction_sq, postprocess,
                                  provable_d_value, roots_of_unity_count,
                                  verify_full, PipelineConfig)
from oracles import log2_up, mat_det_reference, minkowski_gram

PELL_REG = math.log(1 + math.sqrt(2))


# The paper's literal post-processing, one double BKP pass over the whole
# Log_S matrix: the cross-check for `postprocess`, which splits off the
# exact valuation block first.

def relation_log_rows(relations, fb: FactorBase, prec: int):
    """Exact-valuation + dyadic-infinite rows of Log_S for the relations."""
    rows = []
    max_err = Q(0)
    for rel in relations:
        lv = log_embedding(rel.alpha, prec)
        val = [-v for v in rel.total_valuations]
        inf = []
        for ball in lv.entries:
            inf.append(ball.mid)
            max_err = max(max_err, ball.rad)
        rows.append([Q(v) for v in val] + inf)
    return rows, max_err


def postprocess_full_bkp(relations, fb: FactorBase,
                         field: NumberField) -> PostprocessResult:
    """The literal full-matrix double-BKP post-processing (used on tiny
    instances and to cross-check the split variant)."""
    k = len(relations)
    if k == 0:
        return PostprocessResult([], 0, [], [])
    n = field.n
    s_len = len(fb)
    mu = kessler_lambda1_lower(field)
    rows0, _err0 = relation_log_rows(relations, fb, 32)
    a_sq = max(qlinalg.dot(r, r) for r in rows0) + 1
    _, a_up = sqrt_bracket(a_sq, 32)
    c0_log2 = (8 * k + 2 * (k + 1) * log2_up(Q(k) * Q(4) ** k * a_up / mu))
    det_log2 = (6 + (k + 6) * log2_up(Q(n + s_len))
                + (2 * k + 1) * (k + 2) + log2_up(a_up) - 2 * log2_up(mu))
    eps_log2 = -log2_up(Q(1) / mu) - c0_log2 - det_log2
    prec = max(96, int(-eps_log2) + 32)
    rows, err = relation_log_rows(relations, fb, prec)
    gens = ApproxGenerators(rows=rows, err=Q(n + s_len) * err, mu=mu,
                            r0=min(k, s_len + field.n_real + field.n_cplx - 1))
    res = bkp_twice(gens)
    basis_val = []
    basis_inf = []
    for row in res.basis_rows:
        val = []
        for v in row[:s_len]:
            if Q(v).denominator != 1:
                raise RuntimeError("valuation block not integral after BKP")
            val.append(int(v))
        basis_val.append(val)
        basis_inf.append([Q(v) for v in row[s_len:]])
    return PostprocessResult(res.m_rows, res.rank, basis_val, basis_inf)


@pytest.fixture(scope="module")
def qi():
    return new_field([1, 0, 1])


@pytest.fixture(scope="module")
def qr2():
    return new_field([-2, 0, 1])


@pytest.fixture(scope="module")
def qs5():
    return new_field([5, 0, 1])


def _rel(field, coords, fb, input_ideal=None):
    alpha = field.element(coords)
    ideal = HnfIdeal.principal(field, alpha)
    from latnf.ideal_arith import ord_at
    total = tuple(ord_at(ideal, p) for p in fb)
    return SUnitRelation(alpha, total, total,
                         input_ideal or HnfIdeal.ring_of_integers(field), 1)


class TestRootsOfUnity:
    def test_counts(self, qi, qr2, qs5):
        assert roots_of_unity_count(qi) == 4
        assert roots_of_unity_count(qr2) == 2
        assert roots_of_unity_count(qs5) == 2
        qs3 = new_field([1, -1, 1])
        assert roots_of_unity_count(qs3) == 6
        assert roots_of_unity_count(new_field([-2, 0, 0, 1])) == 2

    # Three totally complex quartics with no automorphism that realizes
    # complex conjugation.  mu_K is cyclic of order m with phi(m) | 4, so
    # m is 1, 2, 3, 4, 5, 6, 8, 10 or 12.  For m in {5, 8, 10, 12}, K is
    # Q(zeta_m), of discriminant 125, 256, 125 or 144.  If 3 | m or 4 | m,
    # K holds Q(sqrt-3) or Q(i), and the square of that discriminant (9 or
    # 16) divides disc K.

    def test_count_on_x4_minus_x_plus_1(self):
        # disc 229 is prime: no Q(zeta_m), and neither Q(i) nor Q(sqrt-3)
        # lies in K, so m = 2
        field = new_field([1, -1, 0, 0, 1])
        assert (field.n_real, field.disc_field) == (0, 229)
        assert roots_of_unity_count(field) == 2

    def test_count_on_x4_minus_2x2_plus_2(self):
        # i = theta^2 - 1 lies in K, so 4 | m; disc 512 != 256 excludes
        # Q(zeta8), and 9 does not divide 512, so zeta3 is not in K: m = 4
        field = new_field([2, 0, -2, 0, 1])
        assert (field.n_real, field.disc_field) == (0, 512)
        theta = field.from_power([0, 1])
        i = theta * theta - 1
        assert i * i == -field.one()
        assert roots_of_unity_count(field) == 4

    def test_count_on_x4_minus_3x2_plus_3(self):
        # zeta3 = theta^2 - 2 and -1 lie in K, so 6 | m; disc 432 != 144
        # excludes Q(zeta12), so m = 6
        field = new_field([3, 0, -3, 0, 1])
        assert (field.n_real, field.disc_field) == (0, 432)
        theta = field.from_power([0, 1])
        zeta3 = theta * theta - 2
        assert zeta3 != field.one() and zeta3 ** 3 == field.one()
        assert roots_of_unity_count(field) == 6

    @pytest.mark.parametrize("poly, mu", [([1, 0, 1], 4),          # Q(i)
                                          ([1, 1, 1], 6),          # Q(sqrt-3)
                                          ([5, 0, 1], 2),          # Q(sqrt-5)
                                          ([1, 1, 1, 1, 1], 10),   # Q(zeta5)
                                          ([1, 0, 0, 0, 1], 8)],   # Q(zeta8)
                             ids=["i", "sqrt-3", "sqrt-5", "zeta5", "zeta8"])
    def test_enumerated_vectors_are_the_roots_of_unity(self, monkeypatch,
                                                       poly, mu):
        # the short vectors of the lower Gram G' of T2 are exactly mu_K,
        # one per +-pair: each is an m-th root of unity, m = |mu_K|, at a
        # G'-norm at most n
        listed = []

        def spy(gram, radius2):
            out = enumerate_short_gram(gram, radius2)
            listed.extend(out)
            return out

        monkeypatch.setattr(lattice_core, "enumerate_short_gram", spy)
        field = new_field(poly)
        assert roots_of_unity_count(field) == mu == 2 * len(listed)
        for coeffs, nrm in listed:
            assert nrm <= field.n
            alpha = field.element(list(coeffs))
            assert alpha ** mu == field.one()
            assert (-alpha) ** mu == field.one()

    @pytest.mark.parametrize("poly", [[1, 0, 1], [1, 1, 1], [5, 0, 1],
                                      [1, 1, 1, 1, 1], [1, 0, 0, 0, 1],
                                      [1, 0, -1, 0, 1]],
                             ids=["i", "sqrt-3", "sqrt-5", "zeta5", "zeta8",
                                  "zeta12"])
    def test_lower_gram_is_below_the_exact_gram(self, monkeypatch, poly):
        # G_exact - G' is positive semidefinite, so c^T G' c <= T2(c):
        # every principal minor of the difference is >= 0, in exact
        # rationals, at every precision the count tried
        grams = []

        def spy(gram, radius2):
            grams.append(gram)
            return enumerate_short_gram(gram, radius2)

        monkeypatch.setattr(lattice_core, "enumerate_short_gram", spy)
        field = new_field(poly)
        roots_of_unity_count(field)
        n = field.n
        exact = minkowski_gram(field, [field.element([int(i == j)
                                                      for j in range(n)])
                                       for i in range(n)])
        assert grams
        for lower in grams:
            diff = [[a - b for a, b in zip(ra, rb)]
                    for ra, rb in zip(exact, lower)]
            for k in range(1, n + 1):
                for idx in itertools.combinations(range(n), k):
                    minor = [[diff[i][j] for j in idx] for i in idx]
                    assert mat_det_reference(minor) >= 0


class TestProvableD:
    def test_quadratics(self, qi, qr2, qs5):
        cfg = PipelineConfig()
        cases = [(qi, 1.0), (qs5, 2.0), (qr2, PELL_REG * math.sqrt(2))]
        for field, truth in cases:
            d, info = provable_d_value(field, cfg)
            assert 0.74 < d / truth < 1.26


class TestPostprocess:
    def test_spec_example_rank_one(self, qi):
        # G = {Log_S(1+i), Log_S(i(1+i))} over S = {(1+i)}: rank 1,
        # basis +-(-1, log 2)
        fb = FactorBase(primes_up_to(qi, 2))
        r1 = _rel(qi, [1, 1], fb)
        r2 = _rel(qi, [-1, 1], fb)
        post = postprocess([r1, r2], fb, qi)
        assert post.rank == 1
        assert [abs(v) for v in post.basis_val[0]] == [1]
        assert abs(abs(float(post.basis_inf[0][0])) - math.log(2)) < 1e-9

    def test_empty(self, qi):
        fb = FactorBase(primes_up_to(qi, 2))
        post = postprocess([], fb, qi)
        assert post.rank == 0

    def test_agrees_with_full_bkp(self, qi):
        fb = FactorBase(primes_up_to(qi, 2))
        rels = [_rel(qi, [1, 1], fb), _rel(qi, [-1, 1], fb),
                _rel(qi, [2, 0], fb)]
        split = postprocess(rels, fb, qi)
        full = postprocess_full_bkp(rels, fb, qi)
        assert split.rank == full.rank == 1
        # same lattice: valuation parts generate the same Z-span
        from latnf.qlinalg import hnf_with_transform
        h1, _ = hnf_with_transform([list(r) for r in split.basis_val])
        h2, _ = hnf_with_transform([list(r) for r in full.basis_val])
        assert [r for r in h1 if any(r)] == [r for r in h2 if any(r)]

    def test_pell_unit_block(self, qr2):
        fb = FactorBase([])
        rel = _rel(qr2, [1, 1], fb)            # 1 + sqrt(2), a unit
        post = postprocess([rel], fb, qr2)
        assert post.rank == 1
        ents = [float(x) for x in post.basis_inf[0]]
        assert abs(abs(ents[0]) - PELL_REG) < 1e-6


class TestTorsionBranch:
    """Unit-block rows all within err of 0 are decided torsion only when
    2 sqrt(w) err < mu; coarser rows climb the precision ladder.  The
    planted `log_embedding` keeps the midpoints and widens every radius
    to 1 below 256 bits, so at 128 bits err = r1 = 2 and
    2 sqrt(2) err is far above Kessler's mu."""

    @staticmethod
    def _coarse_below_256(monkeypatch):
        precs = []

        def coarse(alpha, prec):
            precs.append(prec)
            lv = log_embedding(alpha, prec)
            if prec < 256:
                lv = LogVector([RealBall(b.mid, Q(1)) for b in lv.entries])
            return lv

        monkeypatch.setattr(sunit_pipeline, "log_embedding", coarse)
        return precs

    def test_coarse_rows_hide_a_unit(self, qr2, monkeypatch):
        # Log(1 + sqrt2) = (0.88, -0.88) lies within err = 2 of 0 at 128
        # bits, but it is no torsion: the block climbs and BKP finds it
        precs = self._coarse_below_256(monkeypatch)
        fb = FactorBase([])
        post = postprocess([_rel(qr2, [1, 1], fb)], fb, qr2)
        assert precs == [128, 256]
        assert post.rank == 1
        assert abs(abs(float(post.basis_inf[0][0])) - PELL_REG) < 1e-6

    def test_coarse_torsion_climbs(self, qr2, monkeypatch):
        precs = self._coarse_below_256(monkeypatch)
        fb = FactorBase([])
        post = postprocess([_rel(qr2, [-1, 0], fb)], fb, qr2)
        assert precs == [128, 256]
        assert post.rank == 0

    def test_fine_torsion_decides_at_once(self, qr2, monkeypatch):
        precs = []

        def spy(alpha, prec):
            precs.append(prec)
            return log_embedding(alpha, prec)

        monkeypatch.setattr(sunit_pipeline, "log_embedding", spy)
        fb = FactorBase([])
        post = postprocess([_rel(qr2, [-1, 0], fb)], fb, qr2)
        assert precs == [128]
        assert post.rank == 0


class TestVerifyFull:
    def test_qi_single_prime(self, qi):
        fb = FactorBase(primes_up_to(qi, 2))
        rels = [_rel(qi, [1, 1], fb), _rel(qi, [-1, 1], fb)]
        post = postprocess(rels, fb, qi)
        tr = verify_full(post, qi, fb, 1.0, rels)
        assert tr.verdict == "verified"
        assert tr.direct_verdict == "verified"
        assert tr.class_index == 1

    def test_square_sublattice_flagged(self, qi):
        fb = FactorBase(primes_up_to(qi, 2))
        rels = [_rel(qi, [0, 2], fb)]          # (2i) = p^2: index-2 set
        post = postprocess(rels, fb, qi)
        tr = verify_full(post, qi, fb, 1.0, rels)
        assert tr.verdict == "sublattice"

    def test_pell_regulator_window(self, qr2):
        fb = FactorBase([])
        rel = _rel(qr2, [1, 1], fb)
        post = postprocess([rel], fb, qr2)
        d_value = PELL_REG * math.sqrt(2)
        tr = verify_full(post, qr2, fb, d_value, [rel])
        assert tr.verdict == "verified"
        assert abs(tr.regulator_mid - PELL_REG) < 1e-4

    def test_squared_unit_detected(self, qr2):
        fb = FactorBase([])
        sq = qr2.element([1, 1]) * qr2.element([1, 1])
        rel = _rel(qr2, list(sq.coords), fb)
        post = postprocess([rel], fb, qr2)
        d_value = PELL_REG * math.sqrt(2)
        tr = verify_full(post, qr2, fb, d_value, [rel])
        assert tr.verdict == "sublattice"

    def test_rank_mismatch_inconclusive(self, qi):
        fb = FactorBase(primes_up_to(qi, 5))
        rels = [_rel(qi, [1, 1], fb)]
        post = postprocess(rels, fb, qi)
        tr = verify_full(post, qi, fb, 1.0, rels)
        assert tr.verdict == "inconclusive"

    def test_qs5_class_two(self, qs5):
        # relations over {p2, p3, p3'}: 2 = p2^2, 3 = p3 p3',
        # 1+sqrt(-5) and 1-sqrt(-5) split p2 p3 / p2 p3'
        fb = FactorBase(primes_up_to(qs5, 3))
        rels = [_rel(qs5, [2, 0], fb), _rel(qs5, [3, 0], fb),
                _rel(qs5, [1, 1], fb), _rel(qs5, [1, -1], fb)]
        post = postprocess(rels, fb, qs5)
        assert post.rank == 3
        tr = verify_full(post, qs5, fb, 2.0, rels)
        assert tr.verdict == "verified"
        assert tr.class_index == 2
        factors, idx = class_group_from_basis(post.basis_val)
        assert factors == [2] and idx == 2

    def test_euclid_correction_rank1(self, qi):
        fb = FactorBase(primes_up_to(qi, 2))
        j_sq = euclid_correction_sq(fb, 1)
        assert abs(float(j_sq) - (1 + math.log(2) ** 2)) < 1e-9


class TestClassGroupExtraction:
    def test_smith_factors(self):
        factors, idx = class_group_from_basis([[2, 0], [0, 1]])
        assert factors == [2] and idx == 2
        factors, idx = class_group_from_basis([[1, 0], [0, 1]])
        assert factors == [] and idx == 1
        factors, idx = class_group_from_basis([[3, 0], [1, 1]])
        assert factors == [3] and idx == 3

    def test_empty(self):
        assert class_group_from_basis([]) == ([], 1)

    def test_seed_invariance(self, qs5):
        # different generating sets of the same lattice give one SNF
        fb = FactorBase(primes_up_to(qs5, 3))
        rels_a = [_rel(qs5, [2, 0], fb), _rel(qs5, [3, 0], fb),
                  _rel(qs5, [1, 1], fb), _rel(qs5, [1, -1], fb)]
        rels_b = [_rel(qs5, [1, -1], fb), _rel(qs5, [1, 1], fb),
                  _rel(qs5, [3, 0], fb), _rel(qs5, [2, 0], fb),
                  _rel(qs5, [6, 0], fb)]
        fa, _ = class_group_from_basis(postprocess(rels_a, fb, qs5).basis_val)
        fb_factors, _ = class_group_from_basis(
            postprocess(rels_b, fb, qs5).basis_val)
        assert fa == fb_factors == [2]


class TestIdleDrawCap:
    """Draws that add no relation (capped or duplicate) end the collection
    with `CapExceeded` after `IDLE_DRAW_CAP` in a row.  Each stub fails the
    test on a draw past the cap instead of letting the loop spin."""

    def _run(self, field, monkeypatch, draw):
        calls = []

        def stub(*args):
            calls.append(args)
            assert len(calls) <= 1 + IDLE_DRAW_CAP, "drawn past the idle cap"
            return draw()

        monkeypatch.setattr(sunit_pipeline, "random_relation", stub)
        with pytest.raises(CapExceeded, match="no new relation"):
            compute_sunits(field, FactorBase(primes_up_to(field, 13)),
                           random.Random(1))
        return len(calls)

    def test_capped_draws(self, qi, monkeypatch):
        def draw():
            raise CapExceeded("stub: attempt cap")
        assert self._run(qi, monkeypatch, draw) == IDLE_DRAW_CAP

    def test_duplicate_draws(self, qi, monkeypatch):
        fb = FactorBase(primes_up_to(qi, 13))
        out = RandomRelationOutput([], _rel(qi, [1, 1], fb), 1.0, 1.0)
        # the first draw is kept, every later one is a duplicate
        assert self._run(qi, monkeypatch, lambda: out) == 1 + IDLE_DRAW_CAP


class TestComputeSunits:
    def test_each_round_postprocesses_and_verifies_once(self, qi,
                                                        monkeypatch):
        # the verdict of every round is `postprocess` then `verify_full`,
        # the path `latnf verify` takes; Q(i) over the primes of norm
        # <= 40 rejects its first 12 relations and verifies 16
        calls = {"postprocess": 0, "verify_full": 0}
        for name in calls:
            real = getattr(sunit_pipeline, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(sunit_pipeline, name, counted)
        rounds = []

        def progress(msg):
            if msg.startswith("verify verdict"):
                rounds.append(msg)

        cfg = RelationConfig(eps_override=Q(1, 4), walk_b_override=40,
                             sampler=SamplerConfig(radius_constant=2))
        res = compute_sunits(qi, FactorBase(primes_up_to(qi, 40)),
                             random.Random(1),
                             PipelineConfig(relation=cfg, progress=progress))
        assert res.verified and len(res.relations) == 16
        assert rounds == ["verify verdict: sublattice",
                          "verify verdict: verified"]
        assert calls == {"postprocess": 2, "verify_full": 2}

    def test_units_only_base_covers_the_walk(self):
        # Q(sqrt3): the walk draws primes of norm up to
        # ceil(12 log^2 12) = 75, so the internal base must reach 75
        # (a base of norm <= 50 dooms every attempt that draws 59..73)
        qs3 = new_field([-3, 0, 1])
        assert walk_prime_bound(qs3, 1, None) == 75
        cfg = RelationConfig(eps_override=Q(1, 4),
                             sampler=SamplerConfig(radius_constant=2))
        res = compute_sunits(qs3, FactorBase([]), random.Random(1),
                             PipelineConfig(relation=cfg))
        assert res.verified and res.rank == 1 and len(res.fb) == 0
        mid, err = res.regulator
        assert abs(mid - math.log(2 + math.sqrt(3))) <= err
