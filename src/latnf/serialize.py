"""JSON wire formats: rationals as "p/q" strings, plus field / ideal /
element / matrix / relation / result codecs."""

from __future__ import annotations

import json
from fractions import Fraction

from .dyadic import Q
from .ideal_arith import HnfIdeal
from .nf_core import FieldElement, NumberField


def rational_to_str(x) -> str:
    x = Q(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def rational_from_str(s) -> Fraction:
    if isinstance(s, int):
        return Q(s)
    if not isinstance(s, str):
        raise ValueError(f"expected a rational, not {type(s).__name__}")
    if "/" in s:
        num, den = s.split("/")
        return Q(int(num), int(den))
    return Q(int(s))


# The decoders raise ValueError on malformed input: a value that is not a
# JSON object, a missing key, or a value of the wrong type.


def _entry(d, key: str, kind):
    """d[key] of a JSON object d, checked to be an instance of kind."""
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, not {type(d).__name__}")
    if key not in d:
        raise ValueError(f"missing key {key!r}")
    value = d[key]
    if not isinstance(value, kind):
        raise ValueError(f"key {key!r} has the wrong type "
                         f"{type(value).__name__}")
    return value


def _rows(d, key: str) -> list:
    """d[key], checked to be a list of lists."""
    rows = _entry(d, key, list)
    if not all(isinstance(row, list) for row in rows):
        raise ValueError(f"key {key!r} is not a list of lists")
    return rows


def _int(x) -> int:
    """An integer given as a JSON number or a decimal string."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"expected an integer, not {type(x).__name__}")
    return int(x)


def field_from_json(d) -> NumberField:
    poly = [_int(c) for c in _entry(d, "poly", list)]
    basis = None
    if d.get("integral_basis") is not None:
        basis = [[rational_from_str(x) for x in row]
                 for row in _rows(d, "integral_basis")]
        # the power basis needs no explicit matrix
        if basis == [[Q(int(i == j)) for j in range(len(poly) - 1)]
                     for i in range(len(poly) - 1)]:
            basis = None
    return NumberField(poly, basis)


def ideal_to_json(a: HnfIdeal) -> dict:
    return {"denom": a.denom, "hnf": [list(col) for col in a.hnf]}


def ideal_from_json(field: NumberField, d) -> HnfIdeal:
    cols = [[_int(x) for x in col] for col in _rows(d, "hnf")]
    if len(cols) != field.n or any(len(col) != field.n for col in cols):
        raise ValueError(f"key 'hnf' is not {field.n} columns of "
                         f"{field.n} integers")
    return HnfIdeal(field, _int(_entry(d, "denom", (int, str))), cols)


def element_to_json(e: FieldElement) -> list:
    return [rational_to_str(c) for c in e.coords]


def element_from_json(field: NumberField, data) -> FieldElement:
    return field.element([rational_from_str(c) for c in data])


def matrix_to_json(cols) -> dict:
    rows = len(cols[0])
    return {"exact": True, "rows": rows, "cols": len(cols),
            "data": [[rational_to_str(x) for x in col] for col in cols]}


def matrix_from_json(d):
    cols = [[rational_from_str(x) for x in col] for col in _rows(d, "data")]
    if not cols or not cols[0] or any(len(c) != len(cols[0]) for c in cols):
        raise ValueError("key 'data' is not a nonempty list of columns of "
                         "one nonzero length")
    return cols


def relation_to_json(rel, fb) -> dict:
    return {"alpha": element_to_json(rel.alpha),
            "valuations": list(rel.valuations),
            "total_valuations": list(rel.total_valuations),
            "input_ideal": ideal_to_json(rel.input_ideal),
            "attempts": rel.attempts}


def relation_from_json(field: NumberField, d):
    from .relations import SUnitRelation
    return SUnitRelation(
        element_from_json(field, _entry(d, "alpha", list)),
        tuple(_int(v) for v in _entry(d, "valuations", list)),
        tuple(_int(v) for v in _entry(d, "total_valuations", list)),
        ideal_from_json(field, _entry(d, "input_ideal", dict)),
        _int(_entry(d, "attempts", (int, str))))


def result_to_json(res) -> dict:
    tr = res.transcript
    return {
        "class_group": list(res.class_group),
        "regulator": {"mid": res.regulator[0], "err": res.regulator[1]},
        "rank": res.rank,
        "verified": res.verified,
        "sunits": {
            "generators": [element_to_json(g) for g in res.generators],
            "exponent_matrix": [list(r) for r in res.exponent_matrix],
        },
        "transcript": {
            "rank": tr.rank, "expected_rank": tr.expected_rank,
            "class_index": tr.class_index,
            "split_ratio": tr.split_ratio,
            "direct_ratio": tr.direct_ratio,
            "verdict": tr.verdict, "direct_verdict": tr.direct_verdict,
            "d_value": tr.d_value,
            "notes": {k: (v if not isinstance(v, Fraction) else str(v))
                      for k, v in tr.notes.items()},
        },
        "config": res.config_echo,
    }


def dump_relations(path, relations, fb):
    with open(path, "w") as fh:
        for rel in relations:
            fh.write(json.dumps(relation_to_json(rel, fb)) + "\n")


def load_relations(path, field):
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(relation_from_json(field, json.loads(line)))
    return out
