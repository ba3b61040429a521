"""Pinned outputs of the Fincke-Pohst enumeration on the blocks the
approximate ideal reduction hands it.

The inputs are the scaled Minkowski bases `approx_bkz_ideal` passes to
`bkz_full` on Q(zeta5) and Q(sqrt-163) (one ideal each, drawn by the
`ideal_sample` benchmark workload), and the projected 2x2 blocks that
BKZ' reduces on the way, as projected vectors over their gcd: the blocks
`oracles.bkz_full_reference` hands to `hkz_reduce` when it replays that
`bkz_full` call.  Their Gram entries run from about 5,000 to 22,500
bits.  Each case hashes everything one entry
point returns:

- `shortest_gram`: the vector and its norm;
- `hkz_reduce`: the basis and the transform;
- `enumerate_short_gram` at the radius of the longest HKZ-reduced basis
  vector, so at least one vector lies on the boundary (a tie);
- `enumerate_minima` on a planted dimension-8 lattice and on the
  Q(zeta5) basis: the successive minima.

The digests were recorded from the enumeration that compared norms at
the lcm scale of the GSO denominators.  The `hkz_reduce` digests once
hashed the potential ledger as well; they were recorded again without it
when the ledger was deleted, from the library as it stood just before.
The same was done for the `hkz_reduce` digests without `hkz_calls`
(always 1) when `hkz_reduce` lost its trace, and for the
`enumerate_minima` digests without the witnesses, covering brackets and
generating radius when the report was cut to its minima.
"""

import functools
import hashlib
import random
from fractions import Fraction as Q

import oracles
import pytest

from latnf import approx_reduction, bkz, lattice_core
from latnf.ideal_arith import HnfIdeal
from latnf.nf_core import new_field
from latnf.qlinalg import gram_matrix

_X5 = (Q("17004539824166333894898463590617230796226404893621326630491812469"
         "876579731542274400255623249560245/17087896287367280659160173649356"
         "416916821636178853222159576332862577757806245124400183696695492608"),
       Q("85858306824876375636144700152029955221073147933145745160974034218"
         "24160463960115354502825767631797/854394814368364032958008682467820"
         "8458410818089426611079788166431288878903122562200091848347746304"))

CASES_IN = {
    "zeta5": ([1, 1, 1, 1, 1], [_X5[0], _X5[0], _X5[1], _X5[1]],
              ((3458987198955290200, 0, 0, 0),
               (1875178533446939600, 29746796114200, 0, 0),
               (2883338035016861840, 21860841953720, 17446801240, 0),
               (2158775681424076520, 13849744914200, 3550228240, 40))),
    "sqrt163": ([41, -1, 1], [1, 1],
                ((53142555546636988582769609705611384789565719, 0),
                 (21923193091665591510330075593430872649400347, 1440803))),
}


def _canon(x):
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in x) + "]"
    x = Q(x)     # hex: the decimal form of a big entry passes str()'s limit
    return f"{x.numerator:x}/{x.denominator:x}"


def _digest(*parts):
    return hashlib.sha256(_canon(list(parts)).encode()).hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def captured_reduction(name):
    """(basis and config handed to bkz_full by one `approx_bkz_ideal`
    call, the blocks of that reduction as `oracles.bkz_full_reference`
    records them)."""
    poly, x, hnf = CASES_IN[name]
    field = new_field(poly)
    seen = []
    full = bkz.bkz_full

    def rec_full(cols, cfg):
        seen.append(([list(c) for c in cols], cfg))
        return full(cols, cfg)

    bkz.bkz_full = rec_full
    try:
        approx_reduction.approx_bkz_ideal(x, HnfIdeal(field, 1, hnf), 2)
    finally:
        bkz.bkz_full = full
    (cols, cfg), = seen
    blocks = []
    oracles.bkz_full_reference(cols, cfg, blocks)
    return cols, cfg, blocks


def _captured(name):
    """(basis handed to bkz_full, the distinct projected blocks of its
    reduction in order of first appearance)."""
    cols, _, blocks = captured_reduction(name)
    distinct = []
    for _, _, block in blocks:
        if block not in distinct:
            distinct.append(block)
    return cols, distinct


def _input(key):
    """'zeta5/full', or 'sqrt163/3' for the block with the 4th-largest
    entries (ties broken by capture order)."""
    name, which = key.split("/")
    full, blocks = _captured(name)
    if which == "full":
        return full
    order = sorted(range(len(blocks)),
                   key=lambda k: -max(abs(v) for c in blocks[k] for v in c))
    return blocks[order[int(which)]]


def _planted8():
    """Scrambled basis of a near-orthogonal lattice in dimension 8."""
    rng = random.Random("pinned-enumeration")
    cols = [[rng.randrange(-3, 4) for _ in range(8)] for _ in range(8)]
    for k in range(8):
        cols[k][k] = rng.randrange(220, 256)
    for _ in range(12):
        i, j = rng.sample(range(8), 2)
        m = rng.choice((-1, 1)) * rng.randrange(1, 4)
        cols[i] = [a + m * b for a, b in zip(cols[i], cols[j])]
    return cols


def _shortest(cols):
    return _digest(*lattice_core.shortest_gram(gram_matrix(cols)))


def _hkz(cols):
    out, u = bkz.hkz_reduce(cols)
    return _digest(out, u)


def _short_at_tie(cols):
    out, _ = bkz.hkz_reduce(cols)
    radius = max(sum(v * v for v in c) for c in out)
    vecs = lattice_core.enumerate_short_gram(gram_matrix(cols), radius)
    assert vecs[-1][1] == radius
    return _digest(vecs)


def _minima(cols):
    return _digest(lattice_core.enumerate_minima(cols).minima_sq)


CASES = {}
for _key in ("zeta5/full", "zeta5/0", "zeta5/1", "zeta5/3",
             "sqrt163/full", "sqrt163/1"):
    for _label, _fn in (("shortest", _shortest), ("hkz", _hkz),
                        ("short-tie", _short_at_tie)):
        CASES[f"{_label}-{_key}"] = (_fn, functools.partial(_input, _key))
CASES["minima-zeta5/full"] = (_minima, functools.partial(_input, "zeta5/full"))
CASES["minima-planted8"] = (_minima, _planted8)

PINNED = {
    "hkz-sqrt163/1": "70f62e51047946ee",
    "hkz-sqrt163/full": "ac4eb3302012ca15",
    "hkz-zeta5/0": "2e8a087ca83b388f",
    "hkz-zeta5/1": "6fcc21ad55c025b7",
    "hkz-zeta5/3": "a3f730c98d2af353",
    "hkz-zeta5/full": "c6f37ee98b6d7f8b",
    "minima-planted8": "1b1c3d65f1a05239",
    "minima-zeta5/full": "64feeec28241bdbf",
    "short-tie-sqrt163/1": "8cb928974295c9e6",
    "short-tie-sqrt163/full": "483ad34b1d331c84",
    "short-tie-zeta5/0": "1f312a8189d41443",
    "short-tie-zeta5/1": "a1d5b6ca3f048158",
    "short-tie-zeta5/3": "2d5e78d4dcc7f219",
    "short-tie-zeta5/full": "77e54809a40d3ae0",
    "shortest-sqrt163/1": "b56495b45e59e4f8",
    "shortest-sqrt163/full": "aa7ae9c98fa9f33f",
    "shortest-zeta5/0": "e048541debd06912",
    "shortest-zeta5/1": "759dc45e3c28b8da",
    "shortest-zeta5/3": "9a951ac7d243cef3",
    "shortest-zeta5/full": "6fdc2abed9ecbd9f",
}


def test_inputs_span_the_measured_sizes():
    bits = [max(abs(v) for r in gram_matrix(_input(k)) for v in r).bit_length()
            for k in ("zeta5/full", "zeta5/0", "zeta5/3", "sqrt163/1")]
    assert min(bits) >= 2000 and max(bits) >= 22000


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned(name):
    fn, make = CASES[name]
    assert fn(make()) == PINNED[name]
