"""The randomised splits of the factoring code stop after
`intmath.RANDOM_TRIES` draws with `CapExceeded`, which the CLI reports as
exit 4.

Each test hands the split a stub rng whose every draw fails: Pollard rho
starts at a fixed point of x -> x^2 + c, so its walk closes at once
modulo all of n; Cantor-Zassenhaus draws the polynomial it is splitting,
which is 0 modulo itself.
"""

import json
import random
import types

import pytest

from latnf import intmath, nf_core, polyq
from latnf.cli import EXIT_CAP, main
from latnf.intmath import RANDOM_TRIES, CapExceeded

P, Q = 100003, 100019       # primes above factorint's trial division


class _FixedPointRng:
    """c = n - 2 and x_0 = 2: x_0^2 + c = x_0 (mod n)."""

    def __init__(self, *_seed):
        self.draws = 0

    def randrange(self, lo, hi):
        self.draws += 1
        return hi - 2 if lo == 1 else 2


class _CycleRng:
    """Draws the given residues in turn."""

    def __init__(self, values):
        self.values, self.draws = values, 0

    def randrange(self, _p):
        self.draws += 1
        return self.values[(self.draws - 1) % len(self.values)]


def test_one_exception_class():
    assert nf_core.CapExceeded is intmath.CapExceeded is CapExceeded


def test_pollard_rho_stops_at_the_cap():
    rng = _FixedPointRng()
    with pytest.raises(CapExceeded, match="Pollard rho"):
        intmath._pollard_rho(P * Q, rng)
    assert rng.draws == 2 * RANDOM_TRIES


def test_pollard_rho_finds_a_factor():
    assert intmath._pollard_rho(P * Q, random.Random(1)) in (P, Q)


def test_equal_degree_split_stops_at_the_cap():
    # (x - 1)(x - 2) = x^2 + 4x + 2 mod 7: both roots have degree 1, and
    # the draw r = x^2 + 4x + 2 is 0 modulo the product
    rng = _CycleRng([2, 4])
    with pytest.raises(CapExceeded, match="equal-degree split"):
        polyq._factor_squarefree([2, 4, 1], 7, rng)
    assert rng.draws == 2 * RANDOM_TRIES


def test_equal_degree_split_at_two_stops_at_the_cap():
    # x (x + 1) = x^2 + x mod 2: the trace of r = x^2 + x is 0
    rng = _CycleRng([0, 1])
    with pytest.raises(CapExceeded, match="equal-degree split"):
        polyq._factor_squarefree([0, 1, 1], 2, rng)
    assert rng.draws == 2 * RANDOM_TRIES


def test_cli_reports_the_cap(monkeypatch, tmp_path, capsys):
    # the discriminant -4 P Q reaches Pollard rho at field construction
    field_file = tmp_path / "big.json"
    field_file.write_text(json.dumps({"poly": [P * Q, 0, 1]}))
    monkeypatch.setattr(intmath, "random",
                        types.SimpleNamespace(Random=_FixedPointRng))
    assert main(["field", str(field_file)]) == EXIT_CAP == 4
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "cap-exceeded"
    assert "Pollard rho" in err["error"]
