import argparse
import ast
import itertools
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from latnf import __version__, cli
from latnf.cli import build_parser, main

FIELD_QI = {"poly": [1, 0, 1]}
FIELD_QR2 = {"poly": [-2, 0, 1]}


@pytest.fixture()
def qi_file(tmp_path):
    p = tmp_path / "qi.json"
    p.write_text(json.dumps(FIELD_QI))
    return str(p)


@pytest.fixture()
def qr2_file(tmp_path):
    p = tmp_path / "qr2.json"
    p.write_text(json.dumps(FIELD_QR2))
    return str(p)


def _alarm(signum, frame):
    raise TimeoutError("command still running")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFieldCommand:
    def test_qi_report(self, qi_file, capsys):
        code, out, _ = run_cli(["field", qi_file, "--split-bound", "11"],
                               capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["disc"] == -4
        assert rep["signature"] == [0, 1]
        assert "2" in rep["splitting"]
        assert rep["config"]["version"]

    def test_qs5_disc(self, tmp_path, capsys):
        p = tmp_path / "f.json"
        p.write_text(json.dumps({"poly": [5, 0, 1]}))
        code, out, _ = run_cli(["field", str(p)], capsys)
        assert json.loads(out)["disc"] == -20

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _, err = run_cli(["field", str(p)], capsys)
        assert code == 2
        assert "precondition" in err

    def test_reducible_poly_precondition(self, tmp_path, capsys):
        p = tmp_path / "red.json"
        p.write_text(json.dumps({"poly": [-1, 0, 1]}))
        code, _, err = run_cli(["field", str(p)], capsys)
        assert code == 2

    def test_non_maximal_power_basis_precondition(self, tmp_path, capsys):
        p = tmp_path / "z23.json"
        p.write_text(json.dumps({"poly": [23, 0, 1]}))
        code, _, err = run_cli(["field", str(p)], capsys)
        assert code == 2
        assert "not maximal" in err
        p.write_text(json.dumps({"poly": [23, 0, 1],
                                 "integral_basis": [[1, 0], ["1/2", "1/2"]]}))
        # bound 1: Kummer-Dedekind cannot split 2, which divides the index
        code, out, _ = run_cli(["field", str(p), "--split-bound", "1"],
                               capsys)
        assert code == 0 and json.loads(out)["disc"] == -23


class TestIdealCommand:
    def test_norm_and_mul(self, qi_file, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"denom": 1, "hnf": [[2, 0], [0, 2]]}))
        code, out, _ = run_cli(["ideal", qi_file, str(a), "--op", "norm"],
                               capsys)
        assert code == 0 and json.loads(out)["norm"] == "4"
        code, out, _ = run_cli(["ideal", qi_file, str(a), "--op", "mul",
                                "--other", str(a)], capsys)
        assert code == 0
        assert json.loads(out)["hnf"] == [[4, 0], [0, 4]]
        code, out, _ = run_cli(["ideal", qi_file, str(a), "--op", "inv"],
                               capsys)
        assert json.loads(out)["denom"] == 2


class TestReduceCommand:
    def test_lll_identity(self, tmp_path, capsys):
        m = tmp_path / "m.json"
        m.write_text(json.dumps({"exact": True, "rows": 2, "cols": 2,
                                 "data": [["1", "0"], ["0", "1"]]}))
        code, out, _ = run_cli(["reduce", str(m), "--alg", "bkz",
                                "--blocksize", "2"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["ledger"]["c1_bound"] is True

    def test_bkz_full_random(self, tmp_path, capsys):
        m = tmp_path / "m.json"
        m.write_text(json.dumps({"exact": True, "rows": 3, "cols": 3,
                                 "data": [["7", "2", "0"], ["1", "9", "3"],
                                          ["4", "0", "11"]]}))
        code, out, _ = run_cli(["reduce", str(m), "--alg", "bkz-full",
                                "--blocksize", "2"], capsys)
        assert code == 0
        assert json.loads(out)["ledger"]["full_bound"] is True

    def test_bkp_error_too_large(self, tmp_path, capsys):
        m = tmp_path / "m.json"
        m.write_text(json.dumps({"exact": True, "rows": 2, "cols": 2,
                                 "data": [["1", "0"], ["0", "1"]]}))
        code, _, err = run_cli(["reduce", str(m), "--alg", "bkp",
                                "--err", "1/2", "--mu", "1/2",
                                "--r0", "2"], capsys)
        assert code == 2


class TestMalformedInput:
    """Malformed input files are preconditions: exit 2, reported as such."""

    def _assert_precondition(self, args, capsys):
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert json.loads(err)["kind"] == "precondition"

    @pytest.mark.parametrize("content", [{}, [1, 2]])
    def test_field_file(self, tmp_path, capsys, content):
        p = tmp_path / "f.json"
        p.write_text(json.dumps(content))
        self._assert_precondition(["field", str(p)], capsys)

    def test_ideal_without_hnf(self, qi_file, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps({"denom": 1}))
        self._assert_precondition(["ideal", qi_file, str(a)], capsys)

    @pytest.mark.parametrize("content", [
        {"cols": 5},                                    # no data
        {"data": [["1"], ["0", "1"]]},                  # ragged columns
        {"data": []}])
    def test_matrix_file(self, tmp_path, capsys, content):
        m = tmp_path / "m.json"
        m.write_text(json.dumps(content))
        self._assert_precondition(["reduce", str(m)], capsys)

    def test_relation_dump_line_without_valuations(self, qi_file, tmp_path,
                                                    capsys):
        dump = tmp_path / "rels.jsonl"
        dump.write_text(json.dumps({"alpha": ["1", "0"]}) + "\n")
        self._assert_precondition(["verify", qi_file, str(dump),
                                   "--primes-bound", "10"], capsys)

    @pytest.mark.parametrize("vals,totals", [([1], [1]), ([0] * 4, [1]),
                                             ([0] * 5, [0] * 4)])
    def test_relation_valuations_off_the_factor_base(self, qi_file, tmp_path,
                                                     capsys, vals, totals):
        # the primes of norm <= 10 in Z[i] are 4: (1+i), (2+-i), (3)
        dump = tmp_path / "rels.jsonl"
        dump.write_text(json.dumps(
            {"alpha": ["1", "0"], "valuations": vals,
             "total_valuations": totals,
             "input_ideal": {"denom": 1, "hnf": [[1, 0], [0, 1]]},
             "attempts": 1}) + "\n")
        self._assert_precondition(["verify", qi_file, str(dump),
                                   "--primes-bound", "10"], capsys)


class TestSampleCommand:
    def test_prime_mode(self, qi_file, capsys):
        code, out, _ = run_cli(["sample", qi_file, "--mode", "prime",
                                "--count", "5", "--bound", "20",
                                "--seed", "3"], capsys)
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert len(lines) == 5
        assert all(l["checks"]["norm_le_bound"] for l in lines)

    def test_gaussian_mode(self, qi_file, capsys):
        code, out, _ = run_cli(["sample", qi_file, "--mode", "gaussian",
                                "--count", "3", "--seed", "1"], capsys)
        assert code == 0
        assert all(json.loads(l)["checks"]["window"]
                   for l in out.strip().splitlines())

    def test_count_zero_empty(self, qi_file, capsys):
        code, out, _ = run_cli(["sample", qi_file, "--mode", "prime",
                                "--count", "0"], capsys)
        assert code == 0 and out.strip() == ""

    def test_box_mode(self, qi_file, capsys):
        code, out, _ = run_cli(["sample", qi_file, "--mode", "box",
                                "--count", "1", "--seed", "5",
                                "--radius-constant", "2"], capsys)
        assert code == 0
        line = json.loads(out.strip().splitlines()[0])
        assert line["checks"]["member"] is True
        assert line["config"]["radius_constant"] == 2

    def test_determinism(self, qi_file, capsys):
        _, out1, _ = run_cli(["sample", qi_file, "--mode", "prime",
                              "--count", "4", "--seed", "9"], capsys)
        _, out2, _ = run_cli(["sample", qi_file, "--mode", "prime",
                              "--count", "4", "--seed", "9"], capsys)
        assert out1 == out2

    def test_output_does_not_depend_on_the_clock(self, qi_file, capsys,
                                                 monkeypatch):
        args = ["sample", qi_file, "--mode", "box", "--count", "2",
                "--seed", "5", "--radius-constant", "2"]
        want = run_cli(args, capsys)[:2]
        assert want[0] == 0
        clock = itertools.count(step=3600.0)     # an hour per reading
        monkeypatch.setattr(time, "monotonic", lambda: next(clock))
        assert run_cli(args, capsys)[:2] == want


class TestRelationCommand:
    @pytest.mark.parametrize("constant", ["0", "-2"])
    def test_radius_constant_below_one_is_a_precondition(self, qi_file,
                                                         capsys, constant):
        """A constant below 1 used to keep `choose_omega` searching for an
        omega that never comes; the alarm turns a hang into a failure."""
        handler = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(20)
        try:
            code, _, err = run_cli(["relation", qi_file, "--primes-bound",
                                    "40", "--walk-b", "20", "--seed", "1",
                                    "--radius-constant", constant], capsys)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)
        assert code == 2
        assert json.loads(err)["kind"] == "precondition"

    def test_walk_bound_above_the_base_is_a_precondition(self, qi_file,
                                                         capsys):
        code, _, err = run_cli(["relation", qi_file, "--primes-bound", "13",
                                "--walk-b", "40", "--radius-constant", "2",
                                "--seed", "2"], capsys)
        assert code == 2
        assert "factor base lacks" in json.loads(err)["error"]

    def test_grid_past_the_float_range(self, tmp_path, capsys):
        """On Q(sqrt-619) the grid denominator N of `random_relation`
        passes 2^1024, and Klein's level widths (about sigma N) with it:
        the integer Gaussian picks its branch on the exact width instead
        of overflowing in a float conversion."""
        p = tmp_path / "f.json"
        p.write_text(json.dumps({"poly": [155, -1, 1]}))
        code, out, _ = run_cli(["relation", str(p), "--primes-bound", "40",
                                "--walk-b", "40", "--radius-constant", "2",
                                "--seed", "0"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["vector"] == [-v for v in
                                 rep["relation"]["total_valuations"]]


class TestConfigEcho:
    def test_paper_gap_constants_echoed(self, qi_file, tmp_path, capsys):
        code, out, _ = run_cli(["sample", qi_file, "--mode", "prime",
                                "--radius-constant", "3", "--walk-b", "30",
                                "--seed", "2"], capsys)
        assert code == 0
        assert json.loads(out)["config"] == {
            "version": __version__, "radius_constant": 3, "walk_b": 30,
            "seed": 2}
        m = tmp_path / "m.json"
        m.write_text(json.dumps({"exact": True, "rows": 1, "cols": 1,
                                 "data": [["1"]]}))
        code, out, _ = run_cli(["reduce", str(m), "--tour-cap-c", "2"],
                               capsys)
        assert code == 0
        assert json.loads(out)["config"] == {"version": __version__,
                                             "tour_cap_c": 2.0}
        code, out, _ = run_cli(["field", qi_file], capsys)
        assert json.loads(out)["config"] == {"version": __version__}
        for argv in (["field", qi_file, "--jobs", "2"],
                     ["field", qi_file, "--b-sm", "17"],
                     ["verify", qi_file, "rels.jsonl", "--seed", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


def _commands():
    """Subcommand name -> its parser."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _args_reads(fn, functions):
    """The attributes of `args` that a cli function reads, with those of
    the helpers it passes `args` to, other than `_config_echo`, which
    echoes whatever the command takes."""
    reads = set()
    for node in ast.walk(functions[fn]):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            reads.add(node.attr)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in functions
                and node.func.id not in (fn, "_config_echo")
                and any(isinstance(a, ast.Name) and a.id == "args"
                        for a in node.args)):
            reads |= _args_reads(node.func.id, functions)
    return reads


def test_every_accepted_flag_is_read():
    """Each option and positional a command accepts is read by its
    handler: a flag that takes no effect fails here."""
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    for name, parser in _commands().items():
        dests = {a.dest for a in parser._actions
                 if not isinstance(a, argparse._HelpAction)}
        handler = parser.get_default("fn").__name__
        assert sorted(dests - _args_reads(handler, functions)) == [], name


class TestEntryPoint:
    def test_module_invocation(self, qi_file):
        out = subprocess.run(
            [sys.executable, "-m", "latnf.cli", "field", qi_file],
            capture_output=True, text=True, timeout=120)
        assert out.returncode == 0
        assert json.loads(out.stdout)["disc"] == -4


# Monic polynomials of degree 2-4, coefficients from x^0 up: fields of
# every signature, fields whose power basis is not maximal at 2, and
# reducible ones.
SWEEP = [
    [-5, 0, 1],             # x^2 - 5: power basis not maximal
    [1, -1, 0, 0, 1],       # x^4 - x + 1
    [-4, 0, 1],             # x^2 - 4: reducible
    [-1, 0, 0, 0, 1],       # x^4 - 1: reducible
    [1, 1, 1],
    [3, 0, 1],
    [-2, 0, 0, 1],
    [1, 1, 0, 1],
    [1, -3, 0, 1],
    [2, -2, 0, 1],
    [1, 0, 0, 0, 1],
    [-2, 0, 0, 0, 1],
    [-3, 1, 0, 0, 1],
]


class TestFieldSweep:
    """Every command on every sweep field ends in a documented exit code:
    0, 2 (precondition), 3 (verification) or 4 (retry cap)."""

    @pytest.mark.parametrize("poly", SWEEP, ids=str)
    def test_commands_end_in_an_exit_code(self, tmp_path, capsys, poly):
        p = tmp_path / "f.json"
        p.write_text(json.dumps({"poly": poly}))
        old = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(30)
        try:
            for args in (["field", str(p)],
                         ["sample", str(p), "--mode", "beta", "--count", "1",
                          "--walk-b", "40"]):
                code, _, _ = run_cli(args, capsys)
                assert code in (0, 2, 3, 4), (args[0], code)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
