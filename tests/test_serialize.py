import json
from fractions import Fraction as Q

from latnf import serialize
from latnf.ideal_arith import HnfIdeal, kummer_dedekind, primes_up_to
from latnf.nf_core import new_field
from latnf.relations import SUnitRelation


def test_rational_round_trip():
    for x in (Q(3, 7), Q(-5), Q(0), Q(10 ** 30, 7 ** 20)):
        assert serialize.rational_from_str(serialize.rational_to_str(x)) == x


def test_field_round_trip():
    # a field file as `latnf field` reads it, with and without its basis
    k = new_field([5, 0, 1])
    k2 = serialize.field_from_json({"poly": [5, 0, 1],
                                    "integral_basis": [[1, 0], [0, 1]]})
    assert k2.poly == k.poly and k2.disc_field == k.disc_field
    # non-power basis survives
    k4 = serialize.field_from_json({"poly": [23, 0, 1],
                                    "integral_basis": [[1, 0],
                                                       ["1/2", "1/2"]]})
    assert k4.disc_field == -23


def test_ideal_and_prime_round_trip():
    # a prime ideal goes through the ideal codec as its HNF
    k = new_field([5, 0, 1])
    p2 = kummer_dedekind(k, 2)[0][0]
    d = serialize.ideal_to_json(p2.hnf)
    assert serialize.ideal_from_json(k, json.loads(json.dumps(d))) == p2.hnf


def test_element_round_trip():
    k = new_field([1, 0, 1])
    e = k.element([Q(3, 2), Q(-7)])
    assert serialize.element_from_json(
        k, serialize.element_to_json(e)).coords == e.coords


def test_matrix_round_trip():
    cols = [[Q(1, 3), Q(0)], [Q(2), Q(-5, 7)]]
    out = serialize.matrix_from_json(serialize.matrix_to_json(cols))
    assert out == cols


def test_relation_dump_resumable(tmp_path):
    k = new_field([1, 0, 1])
    fb = primes_up_to(k, 5)
    alpha = k.element([1, 1])
    rel = SUnitRelation(alpha, (1, 0, 0), (1, 0, 0),
                        HnfIdeal.ring_of_integers(k), 7)
    path = tmp_path / "rels.jsonl"
    serialize.dump_relations(str(path), [rel, rel], fb)
    loaded = serialize.load_relations(str(path), k)
    assert len(loaded) == 2
    assert loaded[0].alpha.coords == alpha.coords
    assert loaded[0].total_valuations == (1, 0, 0)
    assert loaded[0].attempts == 7
