"""Every precision-doubling loop of the embedding path, of the
irreducibility test and of the exact root comparison climbs
`nf_core.precision_ladder` (start, 2 start, ... up to
`PRECISION_CAP_BITS` bits) and then stops with `CapExceeded`, which the
CLI reports as exit 4.

Each test replaces the kernel inside one loop with a stub that returns a
ball too wide to decide anything and records the precision it is asked
for, so the loop climbs the whole ladder cheaply (no precision is ever
materialised) and must raise instead of spinning.
"""

import json
import random
from fractions import Fraction as Q

import pytest

from latnf import approx_reduction, divisor_log, nf_core, samplers
from latnf.approx_reduction import (IdealBasisResult, MinkowskiColumns,
                                    approx_bkz_ideal, dual_exp_reduce)
from latnf.cli import EXIT_CAP, main
from latnf.ideal_arith import HnfIdeal
from latnf.nf_core import (PRECISION_CAP_BITS, CapExceeded, EmbeddingPoint,
                           new_field, precision_ladder)


class _Counter:
    """A stub returning `result`, which records the precision argument
    (at position `at`) of every call."""

    def __init__(self, result, at=-1):
        self.result, self.at, self.precs = result, at, []

    def __call__(self, *args):
        self.precs.append(args[self.at])
        return self.result


def _ladder(start):
    """The precisions a loop starting at `start` climbs before the cap."""
    rungs = (PRECISION_CAP_BITS // start).bit_length()
    return [start << k for k in range(rungs)]


def test_the_ladder_doubles_up_to_the_cap():
    assert list(zip(range(3), precision_ladder(24, "m"))) == [
        (0, 24), (1, 48), (2, 96)]
    with pytest.raises(CapExceeded, match="^m$"):
        list(precision_ladder(24, "m"))
    assert _ladder(24)[-1] <= PRECISION_CAP_BITS < 2 * _ladder(24)[-1]
    with pytest.raises(CapExceeded):
        next(precision_ladder(PRECISION_CAP_BITS + 1, "m"))


def _wide_embedding(field):
    # every value the ball 0 +- 1: mantissas (0, 0, 1), exponent 0,
    # radius denominator 1
    return _Counter(EmbeddingPoint([(0, 0, 1)] * field.n, 0, 1))


def _wide_columns(n):
    # the identity matrix, every entry with radius 1
    return _Counter(MinkowskiColumns(
        [[int(i == j) for i in range(n)] for j in range(n)], [1] * n,
        [[1] * n for _ in range(n)], [1] * n))


def test_certify_roots(monkeypatch):
    newton = _Counter(None, at=4)        # the working precision
    monkeypatch.setattr(nf_core, "_newton_ball", newton)
    with pytest.raises(CapExceeded, match="root refinement"):
        nf_core._root_mantissas([5, 0, 1], 64)
    assert newton.precs == _ladder(96)


def test_irreducibility_subset_search(monkeypatch):
    # x^4 + 1 splits modulo every prime, so only the certified search over
    # root subsets can prove it irreducible
    field = new_field([1, 0, 0, 0, 1])
    # every root the ball 0 +- 1: mantissas (0, 0, 1) at exponent 0
    roots = _Counter((0, [(0, 0, 1)] * field.n))
    monkeypatch.setattr(nf_core, "_root_mantissas", roots)
    with pytest.raises(CapExceeded, match="irreducibility"):
        field._is_irreducible()
    assert roots.precs == _ladder(64)


def test_decide_root_gt_int():
    refine = _Counter((0, 1, 1))         # the ball 0 +- 1
    with pytest.raises(CapExceeded, match="root comparison"):
        nf_core.decide_root_gt_int([-2, 0, 1], refine, 0)
    assert refine.precs == _ladder(32)


def test_embed(monkeypatch):
    field = new_field([5, 0, 1])
    roots = _Counter((64, [(0, 0, 0)] * field.n))
    monkeypatch.setattr(field, "_all_roots", roots)
    monkeypatch.setattr(nf_core, "_horner_ball", lambda *args: (0, 0, 1, 0))
    with pytest.raises(CapExceeded, match="embedding"):
        field.embed(field.from_power([0, 1]), 64)
    # 64 bits plus 17 guard bits for theta (height 1, degree 2)
    assert roots.precs == _ladder(81)


def test_sign_at_real_place(monkeypatch):
    field = new_field([-2, 0, 1])
    embed = _wide_embedding(field)
    monkeypatch.setattr(field, "embed", embed)
    with pytest.raises(CapExceeded, match="sign"):
        field.sign_at_real_place(field.from_power([0, 1]), 0)
    assert embed.precs == _ladder(32)


def test_log_embedding(monkeypatch):
    field = new_field([5, 0, 1])
    embed = _wide_embedding(field)
    monkeypatch.setattr(field, "embed", embed)
    with pytest.raises(CapExceeded, match="log embedding"):
        divisor_log.log_embedding(field.from_power([0, 1]))
    assert embed.precs == _ladder(64 + 16)


def test_dual_exp_reduce(monkeypatch):
    field = new_field([5, 0, 1])
    cols = _wide_columns(field.n)
    monkeypatch.setattr(approx_reduction, "minkowski_columns_x", cols)
    with pytest.raises(CapExceeded, match="dual reduction"):
        dual_exp_reduce([Q(1)] * field.n, HnfIdeal.ring_of_integers(field))
    assert cols.precs == _ladder(128)


def test_approx_bkz_ideal(monkeypatch):
    field = new_field([5, 0, 1])
    a = HnfIdeal.ring_of_integers(field)
    x = [Q(1)] * field.n
    der = IdealBasisResult(a.basis_elements(), 128)
    monkeypatch.setattr(approx_reduction, "dual_exp_reduce",
                        lambda x, a: der)
    cols = _wide_columns(field.n)
    monkeypatch.setattr(approx_reduction, "minkowski_columns_x", cols)
    with pytest.raises(CapExceeded, match="approximate BKZ"):
        approx_bkz_ideal(x, a, 2)
    assert cols.precs == _ladder(128)


def test_sample_in_box(monkeypatch):
    field = new_field([5, 0, 1])
    a = HnfIdeal.ring_of_integers(field)
    x = [Q(1)] * field.n
    red = IdealBasisResult(a.basis_elements(), 128)
    monkeypatch.setattr(samplers, "approx_bkz_ideal", lambda x, a, b: red)
    cols = _wide_columns(field.n)
    monkeypatch.setattr(samplers, "minkowski_columns_x", cols)
    with pytest.raises(CapExceeded, match="box sampler"):
        samplers.sample_in_box(field, None, [], a, field.one(),
                               2, x, 1, random.Random(1))
    # one call per rung, from at least the basis' own precision; the
    # basis-length check reads each rung's columns
    assert cols.precs[0] >= 128
    assert cols.precs == _ladder(cols.precs[0])


def test_cli_reports_cap_exceeded(monkeypatch, tmp_path, capsys):
    field_file = tmp_path / "qi.json"
    field_file.write_text(json.dumps({"poly": [1, 0, 1]}))
    cols = _wide_columns(2)
    monkeypatch.setattr(approx_reduction, "minkowski_columns_x", cols)
    code = main(["sample", str(field_file), "--mode", "box", "--count", "1"])
    assert code == EXIT_CAP == 4
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "cap-exceeded"
    assert "dual reduction" in err["error"]
    assert cols.precs == _ladder(128)
