"""Every precision-doubling loop of the embedding path, of the
irreducibility test and of the exact root comparison stops after
`nf_core.PRECISION_DOUBLINGS` rounds with `CapExceeded`, which the CLI
reports as exit 4.

Each test replaces the kernel inside one loop with a stub that returns a
ball too wide to decide anything, so the loop runs its full cap cheaply
(no precision is ever materialised) and must raise instead of spinning.
"""

import json
import random
from fractions import Fraction as Q

import pytest

from latnf import approx_reduction, divisor_log, nf_core, samplers
from latnf.approx_reduction import (DuallyReducedTag, IdealBasisResult,
                                    MinkowskiColumns, approx_bkz_ideal,
                                    dual_exp_reduce)
from latnf.cli import EXIT_CAP, main
from latnf.ideal_arith import HnfIdeal
from latnf.nf_core import (PRECISION_DOUBLINGS, CapExceeded, EmbeddingPoint,
                            new_field)


class _Counter:
    def __init__(self, result):
        self.result, self.calls = result, 0

    def __call__(self, *args):
        self.calls += 1
        return self.result


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
    newton = _Counter(None)
    monkeypatch.setattr(nf_core, "_newton_ball", newton)
    with pytest.raises(CapExceeded, match="root refinement"):
        nf_core._root_mantissas([5, 0, 1], 64)
    assert newton.calls == PRECISION_DOUBLINGS


def test_irreducibility_subset_search(monkeypatch):
    # x^4 + 1 splits modulo every prime, so only the certified search over
    # root subsets can prove it irreducible
    field = new_field([1, 0, 0, 0, 1])
    # every root the ball 0 +- 1: mantissas (0, 0, 1) at exponent 0
    roots = _Counter((0, [(0, 0, 1)] * field.n))
    monkeypatch.setattr(nf_core, "_root_mantissas", roots)
    with pytest.raises(CapExceeded, match="irreducibility"):
        field._is_irreducible()
    assert roots.calls == PRECISION_DOUBLINGS


def test_decide_root_gt_int():
    refine = _Counter((0, 1, 1))         # the ball 0 +- 1
    with pytest.raises(CapExceeded, match="root comparison"):
        nf_core.decide_root_gt_int([-2, 0, 1], refine, 0)
    assert refine.calls == PRECISION_DOUBLINGS


def test_embed(monkeypatch):
    field = new_field([5, 0, 1])
    roots = _Counter((64, [(0, 0, 0)] * field.n))
    monkeypatch.setattr(field, "_all_roots", roots)
    monkeypatch.setattr(nf_core, "_horner_ball", lambda *args: (0, 0, 1, 0))
    with pytest.raises(CapExceeded, match="embedding"):
        field.embed(field.theta(), 64)
    assert roots.calls == PRECISION_DOUBLINGS


def test_sign_at_real_place(monkeypatch):
    field = new_field([-2, 0, 1])
    embed = _wide_embedding(field)
    monkeypatch.setattr(field, "embed", embed)
    with pytest.raises(CapExceeded, match="sign"):
        field.sign_at_real_place(field.theta(), 0)
    assert embed.calls == PRECISION_DOUBLINGS


def test_log_embedding(monkeypatch):
    field = new_field([5, 0, 1])
    embed = _wide_embedding(field)
    monkeypatch.setattr(field, "embed", embed)
    with pytest.raises(CapExceeded, match="log embedding"):
        divisor_log.log_embedding(field.theta())
    assert embed.calls == PRECISION_DOUBLINGS


def test_dual_exp_reduce(monkeypatch):
    field = new_field([5, 0, 1])
    cols = _wide_columns(field.n)
    monkeypatch.setattr(approx_reduction, "minkowski_columns_x", cols)
    with pytest.raises(CapExceeded, match="dual reduction"):
        dual_exp_reduce([Q(1)] * field.n, HnfIdeal.ring_of_integers(field))
    assert cols.calls == PRECISION_DOUBLINGS


def test_approx_bkz_ideal(monkeypatch):
    field = new_field([5, 0, 1])
    a = HnfIdeal.ring_of_integers(field)
    x = [Q(1)] * field.n
    der = IdealBasisResult(a.basis_elements(), x, DuallyReducedTag(3), 128)
    monkeypatch.setattr(approx_reduction, "dual_exp_reduce",
                        lambda x, a: der)
    cols = _wide_columns(field.n)
    monkeypatch.setattr(approx_reduction, "minkowski_columns_x", cols)
    with pytest.raises(CapExceeded, match="approximate BKZ"):
        approx_bkz_ideal(x, a, 2)
    assert cols.calls == PRECISION_DOUBLINGS


def test_sample_in_box(monkeypatch):
    field = new_field([5, 0, 1])
    a = HnfIdeal.ring_of_integers(field)
    x = [Q(1)] * field.n
    red = IdealBasisResult(a.basis_elements(), x, DuallyReducedTag(3), 128)
    monkeypatch.setattr(samplers, "approx_bkz_ideal", lambda x, a, b: red)
    cols = _wide_columns(field.n)
    monkeypatch.setattr(samplers, "minkowski_columns_x", cols)
    with pytest.raises(CapExceeded, match="box sampler"):
        samplers.sample_in_box(field, None, [], a, field.zero(), field.one(),
                               2, x, 1, random.Random(1))
    # one call for the basis-length check, then one per precision round
    assert cols.calls == 1 + PRECISION_DOUBLINGS


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
    assert cols.calls == PRECISION_DOUBLINGS
