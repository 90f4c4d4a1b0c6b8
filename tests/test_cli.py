"""End-to-end command-line behavior: outputs, formats, and exit codes."""

import argparse
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import diffalg.cli
import diffalg.diffmodule
import diffalg.dimension
import diffalg.field
import diffalg.normalform
import diffalg.parsing
from diffalg import DiffFieldConfig
from diffalg.cli import main
from diffalg.field import MAX_BITS, MAX_PRS_STEPS
from diffalg.parsing import (MAX_DERIVATIONS, MAX_MODULE_RANK, MAX_NESTING,
                             MAX_PARSE_WORK, orepoly_str, parse_input,
                             parse_orepoly)
from helpers import parse_lifted

GENERIC = """\
field: Q(t)
vars: z y
point: z = t, y = t
eqs: z*y' - y
"""

CONSTANT = """\
field: Q(t)
vars: z y
point: z = 1, y = 0
eqs: z*y' - y
"""

MODULE = """\
field: Q(t)
module: 2
gens: [1, t*d - 1]
element: [d, t*d^2 + d - 2]
"""


# 120 written-out factors of four terms in three variables took 52.6 s
FACTOR = "(t1 + t2 + t3 + 1)"


NOT_BOTH = "line 1: give either equations+point or a raw module, not both"
LEADERS_ALONE = "give leaders alone, without a module or equations+point"


def run(capsys, tmp_path, text, *argv):
    path = tmp_path / "problem.txt"
    path.write_text(text)
    code = main([*argv[:1], str(path), *argv[1:]])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BUDGET = (f"the arithmetic of this problem file needs more than "
          f"{MAX_PARSE_WORK} units of work")


def over_budget(line, column):
    """The error of a product that takes its expression past the work
    budget, at the operator in `column` of `line`."""
    return f"error: line {line}, column {column}: {BUDGET}\n"


def charset_of_one(field, gens):
    """The charset text of the one generator `[gens]` over `field`: the
    oracle's value, made monic by its leading coefficient."""
    config = parse_input(f"field: {field}\n").config
    op = parse_lifted(gens, config)
    lead = op.leading()[1]
    return ("characteristic set (1 elements):\n  ["
            f"{orepoly_str(op.scale_left(lead.inverse()), config)}]\n")


def budget_verdict(capsys, tmp_path, field, gens, at, command="charset"):
    """Run `command` on `gens: [gens]` over `field` in under a second.
    With `at`, an operator and its index among the operators of that kind
    in the line, it exits 2 at that operator, past the work budget; with
    None, charset answers the oracle's generator."""
    line = f"gens: [{gens}]"
    start = time.perf_counter()
    code, out, err = run(capsys, tmp_path,
                         f"field: {field}\nmodule: 1\n{line}\n", command)
    assert time.perf_counter() - start < 1.0
    if at is None:
        assert (code, err) == (0, "")
        assert out == charset_of_one(field, gens)
    else:
        op, index = at
        column = [i for i, c in enumerate(line) if c == op][index] + 1
        assert (code, out, err) == (2, "", over_budget(3, column))


def unmarked(text):
    """`text` without its one `!`, and the line and column of the character
    the `!` stood before."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "!" in line:
            return text.replace("!", ""), lineno, line.index("!") + 1
    raise AssertionError(f"no marker in {text!r}")


class TestTangentCommand:
    def test_generic_point_text(self, capsys, tmp_path):
        code, out, _ = run(capsys, tmp_path, GENERIC, "tangent")
        assert code == 0
        assert "dy' - 1/t*dy + 1/t*dz = 0" in out
        assert "dimension polynomial: t + 2" in out
        assert "differential dimension d = 1" in out
        assert "tangent space: K^1 x C^0" in out

    def test_constant_point_text(self, capsys, tmp_path):
        code, out, _ = run(capsys, tmp_path, CONSTANT, "tangent")
        assert code == 0
        assert "dy' - dy = 0" in out
        assert "dimension polynomial: t + 2" in out
        assert "tangent space: K^1 x C^1" in out
        assert "torsion degrees [1]" in out

    def test_generic_point_json(self, capsys, tmp_path):
        code, out, _ = run(capsys, tmp_path, GENERIC, "tangent",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["diff_dimension"] == 1
        assert payload["tangent"]["d"] == 1
        assert payload["tangent"]["k"] == 0
        assert payload["charset"] == ["dy' - 1/t*dy + 1/t*dz"]

    def test_high_derivative_of_a_polynomial_point(self, capsys, tmp_path):
        # y = t has derivatives t, 1 and then only zeros, which are not
        # derived again
        order = 1_000_000
        text = f"field: Q(t)\nvars: y\neqs: y_({order}) - 0\npoint: y = t\n"
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text, "tangent")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert out == (f"charset:\n  dy{chr(39) * order} = 0\n"
                       f"dimension polynomial: {order} (valid for t >= "
                       f"{order})\n"
                       "differential dimension d = 0\n"
                       f"tangent space: K^0 x C^{order} (torsion degrees "
                       f"[{order}])\n")

    def test_three_hundred_equations(self, capsys, tmp_path, monkeypatch):
        # past the rank cap: each pivot reads the least degree of each row
        # of the trailing block, kept up to date, where it read the whole
        # block (9.4 million is_zero calls, 1.8 s of CPU); 0.4 s now
        monkeypatch.setattr(diffalg.parsing, "MAX_MODULE_RANK", 300)
        names = [f"y{i}" for i in range(300)]
        text = ("field: Q(t)\nvars: " + " ".join(names) + "\npoint: "
                + ", ".join(f"{y} = t" for y in names) + "\neqs: "
                + "; ".join(f"{y}' - 1" for y in names) + "\n")
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text, "tangent")
        assert time.perf_counter() - start < 1.5
        assert (code, err) == (0, "")
        assert out.endswith("\ntangent space: K^0 x C^300 (torsion degrees "
                            f"{[1] * 300})\n")

    def test_point_off_variety_exits_3(self, capsys, tmp_path):
        bad = CONSTANT.replace("y = 0", "y = 1")
        code, _, err = run(capsys, tmp_path, bad, "tangent")
        assert code == 3
        assert "does not vanish" in err

    def test_point_off_variety_prints_the_value(self, capsys, tmp_path):
        text = "field: Q(t)\nvars: y\npoint: y = 2\neqs: y - t\n"
        assert run(capsys, tmp_path, text, "tangent") == (
            3, "", "error: equation #0 does not vanish at the point "
                   "(value -t + 2)\n")


def count_calls(monkeypatch, *functions):
    """Replace each library function, in every diffalg module that binds
    it, by one that counts its calls; returns the counts by name."""
    counts = {f.__name__: 0 for f in functions}
    modules = [m for name, m in sys.modules.items()
               if name.split(".")[0] == "diffalg"]
    for f in functions:
        def counted(*args, _f=f, **kwargs):
            counts[_f.__name__] += 1
            return _f(*args, **kwargs)

        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is f]:
                monkeypatch.setattr(module, attr, counted)
    return counts


class TestEquationRoutes:
    """`charset`, `dimpoly` and `tangent` on an `eqs:` problem run only the
    stages they print."""

    @pytest.mark.parametrize("command, ranking, code, counts", [
        ("charset", "orderly", 0, (0, 1, 0)),
        ("charset", "elim", 0, (0, 1, 0)),
        ("dimpoly", "orderly", 0, (0, 1, 1)),
        ("dimpoly", "elim", 4, (0, 1, 1)),
        # the report counts an orderly charset, completed apart under elim
        ("tangent", "orderly", 0, (1, 1, 1)),
        ("tangent", "elim", 0, (1, 2, 1)),
    ])
    def test_stage_counts(self, capsys, tmp_path, monkeypatch, command,
                          ranking, code, counts):
        calls = count_calls(monkeypatch, diffalg.normalform.diagonalize,
                            diffalg.diffmodule.characteristic_set,
                            diffalg.dimension.dimension_report)
        assert run(capsys, tmp_path, CONSTANT, command, "--ranking",
                   ranking)[0] == code
        assert tuple(calls.values()) == counts

    def test_point_off_variety_exits_3_on_every_route(self, capsys,
                                                      tmp_path):
        bad = CONSTANT.replace("y = 0", "y = 1")
        for command in ("charset", "dimpoly", "tangent"):
            code, out, err = run(capsys, tmp_path, bad, command)
            assert (code, out) == (3, "")
            assert err == ("error: equation #0 does not vanish at the "
                           "point (value -1)\n")

    def test_a_module_line_leaves_the_equations_rank(self, capsys,
                                                     tmp_path):
        # a file gives its rank once: `module:` beside the equations is
        # refused on every route, as `gens:` beside them is
        text = ("field: Q(t)\nvars: y\nmodule: 3\neqs: y'\n"
                "point: y = 0\n")
        for command in ("charset", "dimpoly", "tangent"):
            assert run(capsys, tmp_path, text, command, "--order-bound",
                       "1") == (2, "", f"error: {NOT_BOTH}\n")

    @pytest.mark.parametrize("argv", [["dimpoly"],
                                      ["charset", "--order-bound", "1"]])
    def test_a_vars_line_beside_a_module_exits_2(self, capsys, tmp_path,
                                                 argv):
        # the names of `vars:` labelled the components of a rank-2 module
        # and ran out: an IndexError traceback
        text = "field: Q(t)\nmodule: 2\ngens: [d, 0]\nvars: y\n"
        assert run(capsys, tmp_path, text, *argv) == (
            2, "", f"error: {NOT_BOTH}\n")


class TestModuleCommands:
    def test_charset(self, capsys, tmp_path):
        code, out, _ = run(capsys, tmp_path, MODULE, "charset")
        assert code == 0
        assert "characteristic set (1 elements):" in out
        # normalized monic in the leader coordinate
        assert "[1/t, d - 1/t]" in out

    def test_reduce(self, capsys, tmp_path):
        code, out, _ = run(capsys, tmp_path, MODULE, "reduce")
        assert code == 0
        assert "member: no" in out

    def test_reduce_member(self, capsys, tmp_path):
        text = MODULE.replace("element: [d, t*d^2 + d - 2]",
                              "element: [d + 1, t*d^2 + t*d - 1]")
        # element = (d + 1) * gens[0] as a left combination
        code, out, _ = run(capsys, tmp_path, text, "reduce")
        assert code == 0
        assert "normal form: [0, 0]" in out
        assert "member: yes" in out

    def test_dimpoly(self, capsys, tmp_path):
        text = "field: Q(t)\nmodule: 2\ngens: [0, t*d - 1]\n"
        code, out, _ = run(capsys, tmp_path, text, "dimpoly")
        assert code == 0
        assert "dimension polynomial: t + 2" in out
        assert "below-leader count B = 1 (free term r = 2)" in out
        assert "free components: e1" in out

    def test_decompose(self, capsys, tmp_path):
        text = "field: Q(t)\nmodule: 2\ngens: [0, t*d - 1]\n"
        code, out, _ = run(capsys, tmp_path, text, "decompose")
        assert code == 0
        assert "d = 1, k = 1, torsion degrees [1]" in out
        assert "diagonal: ['d - 1/t']" in out

    def test_non_monic_denominators_print_monic(self, capsys, tmp_path):
        text = "field: Q(t)\nmodule: 1\ngens: [(2*t+1)*d - 3/(4*t^2+2)]\n"
        code, out, _ = run(capsys, tmp_path, text, "charset")
        assert code == 0
        assert "[d + -3/8/(t^3 + 1/2*t^2 + 1/2*t + 1/4)]" in out
        code, out, _ = run(capsys, tmp_path, text, "decompose")
        assert code == 0
        assert "diagonal: ['d + -3/8/(t^3 + 1/2*t^2 + 1/2*t + 1/4)']" in out

    def test_decompose_unit_entries_print_one(self, capsys, tmp_path):
        # torsion presentation 33 of the seeded acceptance draw
        text = ("field: Q(t)\nmodule: 3\n"
                "gens: [(3), (-3)*d^2, 0]; "
                "[(2)*d, (-2*t + 3) + (-t - 3)*d, 0]; [(-3*t)*d^3, 0, 0]\n")
        code, out, _ = run(capsys, tmp_path, text, "decompose")
        assert code == 0
        assert out == ("d = 1, k = 0, torsion degrees []\n"
                       "diagonal: ['1', '1', '0']\n")

    def test_decompose_swelling_transforms_in_budget(self, capsys,
                                                     tmp_path):
        # torsion presentation 80 of the seeded acceptance draw: its
        # transforms grow to thousands of characters per entry
        text = ("field: Q(t)\nmodule: 3\n"
                "gens: [(3)*d^3, (1), (-t)/(-t)*d^3]; "
                "[(2*t)*d^3, (2*t)/(-1)*d^3, (-t - 2)*d]; "
                "[0, 0, (3*t)*d^3]\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, tmp_path, text, "decompose")
        assert time.perf_counter() - start < 10.0
        assert code == 0
        first, second = out.splitlines()
        assert first == "d = 0, k = 9, torsion degrees [9]"
        assert second.startswith("diagonal: ['1', '1', 'd^9 + ")

    def test_pairs_taken_by_coefficient_size(self, capsys, tmp_path,
                                             bench_corpus):
        # pde114 of the benchmark's pde-charset corpus: taken by lcm rank
        # alone its pairs build coefficients of total degree 110 and ran
        # past 150 s; taken by their parents' size first, 1.9-2.5 s
        problem, = (p for p in bench_corpus.pde_charset(71)
                    if p.name == "pde114.dimpoly")
        start = time.perf_counter()
        result = run(capsys, tmp_path, problem.text, "dimpoly")
        assert time.perf_counter() - start < 10.0
        assert result == (0, "dimension polynomial: 0 (valid for t >= 0)\n"
                             "differential dimension d = 0\n"
                             "type = -inf, typical height = 0\n"
                             "free components: none\n", "")

    def test_decompose_hostile_degree(self, capsys, tmp_path):
        text = ("field: Q(t)\nmodule: 1\n"
                "gens: [(t^3000 + 1)*d + 1/(t^3000 - 1)]\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, tmp_path, text, "decompose")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert "d = 0, k = 1, torsion degrees [1]" in out

    @pytest.mark.parametrize("command, line", [
        ("decompose", "diagonal: ['d^100000']"),
        ("dimpoly", "dimension polynomial: 100000")])
    def test_hostile_power(self, capsys, tmp_path, command, line):
        text = "field: Q(t)\nmodule: 1\ngens: [d^100000]\n"
        start = time.perf_counter()
        code, out, _ = run(capsys, tmp_path, text, command)
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert line in out

    @pytest.mark.parametrize("command, line", [
        ("decompose", "diagonal: ['d^10000000']"),
        ("dimpoly", "dimension polynomial: 10000000")])
    def test_hostile_constant_power(self, capsys, tmp_path, command, line):
        # d^k has constant coefficients: its shifts are built directly
        text = "field: Q(t)\nmodule: 1\ngens: [d^10000000]\n"
        start = time.perf_counter()
        code, out, _ = run(capsys, tmp_path, text, command)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert line in out

    def test_constant_division_with_a_large_degree_gap(self, capsys,
                                                       tmp_path):
        # clearing the column right-divides d^10000000 by d^2 in one step,
        # whose shift of d^2 is built directly
        text = "field: Q(t)\nmodule: 1\ngens: [d^10000000]; [d^2]\n"
        start = time.perf_counter()
        code, out, _ = run(capsys, tmp_path, text, "decompose")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert "diagonal: ['d^2']" in out

    @pytest.mark.parametrize("command, out", [
        ("decompose", "d = 0, k = 0, torsion degrees []\ndiagonal: ['1']\n"),
        ("dimpoly", "dimension polynomial: 0 (valid for t >= 0)\n"
                    "differential dimension d = 0\n"
                    "type = -inf, typical height = 0\n"
                    "below-leader count B = 0 (free term r = 0)\n"
                    "free components: none\n"),
        ("charset", "characteristic set (1 elements):\n  [1]\n")],
        ids=["decompose", "dimpoly", "charset"])
    def test_one_shift_chain_per_divisor(self, capsys, tmp_path, command,
                                         out):
        # right division and reduction by t*d + 1 shift it once per degree,
        # not once per quotient term from delta^0: 5.5-8.4 s before
        text = "field: Q(t)\nmodule: 1\ngens: [d^100]; [t*d + 1]\n"
        start = time.perf_counter()
        result = run(capsys, tmp_path, text, command)
        assert time.perf_counter() - start < 3.0
        assert result == (0, out, "")

    def test_decompose_diagonalizes_once(self, capsys, tmp_path,
                                         monkeypatch):
        original = diffalg.normalform.diagonalize
        calls = []

        def counted(A):
            calls.append(A)
            return original(A)

        monkeypatch.setattr(diffalg.normalform, "diagonalize", counted)
        text = "field: Q(t)\nmodule: 2\ngens: [0, t*d - 1]\n"
        code, out, _ = run(capsys, tmp_path, text, "decompose")
        assert code == 0
        assert "d = 1, k = 1, torsion degrees [1]" in out
        assert len(calls) == 1

    @pytest.mark.parametrize("command, text", [
        ("decompose", "field: Q(t)\nmodule: 1\ngens: [d^2 - t]; [t*d - 1]\n"),
        ("tangent", CONSTANT)])
    def test_transforms_are_never_multiplied_out(self, capsys, tmp_path,
                                                  monkeypatch, command,
                                                  text):
        # both commands read only D, so U and V stay elementary operations
        original = diffalg.normalform.diagonalize
        records = []

        def kept(A):
            records.append(original(A))
            return records[-1]

        monkeypatch.setattr(diffalg.normalform, "diagonalize", kept)
        code, _, _ = run(capsys, tmp_path, text, command)
        assert code == 0 and len(records) == 1
        factored = diffalg.normalform.ElementaryProduct
        assert isinstance(records[0]._U, factored)
        assert isinstance(records[0]._V, factored)

    def test_decompose_without_relations(self, capsys, tmp_path):
        text = "field: Q(t)\nmodule: 2\ngens: [0, 0]\n"
        code, out, _ = run(capsys, tmp_path, text, "decompose")
        assert code == 0
        assert out == "d = 2, k = 0, torsion degrees []\ndiagonal: []\n"
        code, out, _ = run(capsys, tmp_path, text, "decompose",
                           "--format", "json")
        assert code == 0
        assert json.loads(out) == {"d": 2, "k": 0, "torsion_degrees": [],
                                   "diagonal": []}

    def test_decompose_partial_exits_4(self, capsys, tmp_path):
        text = "field: Q(t1,t2)\nmodule: 1\ngens: [d1]\n"
        code, _, err = run(capsys, tmp_path, text, "decompose")
        assert code == 4
        assert err.startswith("error:")

    def test_order_bound_basis_dump(self, capsys, tmp_path):
        text = "field: Q(t)\nmodule: 2\ngens: [0, d]\n"
        code, out, _ = run(capsys, tmp_path, text, "charset",
                           "--order-bound", "2")
        assert code == 0
        assert "standard terms up to order 2 (4): e1, e1', e1'', e2" in out


    @pytest.mark.parametrize("command, text", [("dimpoly", MODULE),
                                               ("tangent", GENERIC)],
                             ids=["dimpoly", "tangent"])
    def test_order_bound_builds_one_antichain(self, capsys, tmp_path,
                                              monkeypatch, command, text):
        original = diffalg.dimension.leader_antichain
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(diffalg.dimension, "leader_antichain", counted)
        monkeypatch.setattr(diffalg.cli, "leader_antichain", counted)
        code, out, _ = run(capsys, tmp_path, text, command,
                           "--order-bound", "3")
        assert code == 0
        assert "standard terms up to order 3" in out
        assert len(calls) == 1


class TestCountCommand:
    def test_constant_field_two_derivations(self, capsys, tmp_path):
        text = "field: Q derivations: 2\nleaders: [(1,1)]\n"
        code, out, _ = run(capsys, tmp_path, text, "count")
        assert code == 0
        assert out.strip() == "2*t + 1 (valid for t >= 2)"

    def test_multiple_components(self, capsys, tmp_path):
        text = "field: Q(t)\nleaders: [1]; [2]\n"
        code, out, _ = run(capsys, tmp_path, text, "count")
        assert code == 0
        assert out.strip() == "3 (valid for t >= 2)"

    @pytest.mark.parametrize("leaders, printed", [
        ("[]; [2]", "t + 3 (valid for t >= 2)"),
        ("[ ]", "t + 1 (valid for t >= 0)"),
    ], ids=["empty-and-one", "blank"])
    def test_empty_group_is_a_component_without_leaders(
            self, capsys, tmp_path, leaders, printed):
        code, out, _ = run(capsys, tmp_path,
                           f"field: Q(t)\nleaders: {leaders}\n", "count")
        assert (code, out) == (0, printed + "\n")

    def test_two_thousand_and_one_leaders_in_under_a_second(self, capsys,
                                                            tmp_path):
        leaders = ", ".join(f"({i},{2000 - i})" for i in range(2001))
        start = time.perf_counter()
        code, out, _ = run(capsys, tmp_path, "field: Q derivations: 2\n"
                           f"leaders: [{leaders}]\n", "count")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (0, "2001000 (valid for t >= 4000)\n")

    def test_every_leader_of_weight_60_in_n3_in_under_a_second(
            self, capsys, tmp_path):
        # 1,891 leaders (a, b, 60 - a - b): 5.4 s with the pairwise test
        leaders = ", ".join(f"({a},{b},{60 - a - b})"
                            for a in range(61) for b in range(61 - a))
        start = time.perf_counter()
        code, out, _ = run(capsys, tmp_path, "field: Q derivations: 3\n"
                           f"leaders: [{leaders}]\n", "count")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (0, "37820 (valid for t >= 180)\n")

    def test_a_planar_and_a_spatial_group(self, capsys, tmp_path):
        # the first group lies at height 0, an N^2 staircase; the second
        # has leaders at four heights
        text = ("field: Q derivations: 3\n"
                "leaders: [(3,0,0), (1,2,0), (0,4,0)]; "
                "[(2,1,0), (0,3,1), (1,0,2), (0,0,5)]\n")
        code, out, _ = run(capsys, tmp_path, text, "count")
        assert (code, out) == (0, "12*t + 7 (valid for t >= 10)\n")


class TestLongSums:
    """A sum adds each term in place: 4,000 terms parse in well under a
    second, where copying the sum at every '+' took 0.8 s."""

    def test_operator_sum(self, capsys, tmp_path):
        terms = " + ".join(f"{k}*d^{k}" for k in range(1, 4001))
        text = f"field: Q\nmodule: 1\ngens: [{terms}]\n"
        start = time.perf_counter()
        code, out, _ = run(capsys, tmp_path, text, "charset")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out.startswith("characteristic set (1 elements):\n"
                              "  [d^4000 + 3999/4000*d^3999 + ")
        assert out.endswith(" + 1/2000*d^2 + 1/4000*d]\n")

    def test_sum_of_indeterminates(self):
        # each `+` of two ring values looks up the shorter one's terms in
        # the other: looking at every term of the sum so far made 4,000
        # derivatives take 1.3 s
        eq = " + ".join(f"y_({k})" for k in range(1, 4001))
        start = time.perf_counter()
        problem = parse_input(f"field: Q(t)\nvars: y\npoint: y = 0\n"
                              f"eqs: {eq}\n")
        assert time.perf_counter() - start < 1.0
        assert len(problem.eqs[0].terms) == 4000

    def test_field_sum_as_a_coefficient(self, capsys, tmp_path):
        terms = " + ".join(f"{k}*t^{k}" for k in range(1, 4001))
        text = f"field: Q(t)\nmodule: 1\ngens: [({terms})*d]\n"
        start = time.perf_counter()
        code, out, _ = run(capsys, tmp_path, text, "charset")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (0, "characteristic set (1 elements):\n"
                                  "  [d]\n")


class TestErrorHandling:
    def test_division_by_zero_exits_2(self, capsys, tmp_path):
        bad = CONSTANT.replace("y = 0", "y = 1/0")
        code, _, err = run(capsys, tmp_path, bad, "tangent")
        assert code == 2
        assert "division by zero" in err

    def test_unknown_variable_exits_2(self, capsys, tmp_path):
        bad = GENERIC.replace("z*y' - y", "z*w' - y")
        code, _, err = run(capsys, tmp_path, bad, "tangent")
        assert code == 2
        assert "'w'" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code = main(["charset", str(tmp_path / "absent.txt")])
        captured = capsys.readouterr()
        assert code == 2 and captured.err.startswith("error:")

    def test_leaders_not_an_antichain_exit_1(self, capsys, tmp_path):
        text = "field: Q derivations: 2\nleaders: [(0,0), (1,1)]\n"
        code, out, err = run(capsys, tmp_path, text, "count")
        assert code == 1 and out == ""
        assert err == "error: line 2: (0, 0) <= (1, 1) componentwise\n"

    def test_dimension_from_an_elimination_ranking_exits_4(self, capsys,
                                                           tmp_path):
        code, out, err = run(capsys, tmp_path, MODULE, "dimpoly",
                             "--ranking", "elim")
        assert (code, out) == (4, "")
        assert err == "error: dimension computations need an orderly ranking\n"

    def test_problem_file_is_closed(self, capsys, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code, _, _ = run(capsys, tmp_path, MODULE, "charset")
        assert code == 0
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_malformed_section_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, tmp_path, "field Q(t)\n", "charset")
        assert code == 2
        assert "section" in err

    @pytest.mark.parametrize("text, command, message", [
        ("field: Q(t1, t2)\nvars: y\npoint: y = 0\neqs: y_(1,0\n", "tangent",
         "line 4, column 6: unterminated multi-index"),
        ("field: Q(t1, t2)\nvars: y\npoint: y = 0\neqs: y'\n", "tangent",
         "line 4, column 6: 'y' needs a multi-index of length 2"),
        ("field: Q(t1, t2)\nvars: y\npoint: y = 0\neqs: y_(1,0,0)\n",
         "tangent", "line 4, column 6: multi-index of wrong length for 'y'"),
        ("field: Q(t)\nmodule: 1\ngens: [t']\n", "charset",
         "line 3, column 8: 't' cannot carry a derivative suffix"),
        ("field: Q(t)\nmodule: 1\ngens: [d d]\n", "charset",
         "line 3, column 10: trailing input 'd'"),
        ("field: Q(t)\nmodule: 1\ngens: d\n", "charset",
         "line 3, column 7: generator vector must be bracketed"),
        ("field: Q(t)\nmodule: 2\ngens: [d]\n", "charset",
         "line 3, column 7: expected 2 coordinates, found 1"),
        ("module: 1\ngens: [d]\n", "charset", "line 1: missing 'field:' line"),
        ("field: Q(t)\nmodule: 1\nmodule: 1\ngens: [d]\n", "charset",
         "line 3: duplicate section 'module'"),
        ("field: Q(t)\nvars: 1y\n", "charset",
         "line 2: bad variable name '1y'"),
        ("field: Q(t)\nranking: lex\nmodule: 1\ngens: [d]\n", "charset",
         "line 2: unknown ranking 'lex'"),
        ("field: Q(t)\nmodule: 0\n", "charset",
         "line 2: module rank must be positive"),
        ("field: Q(t)\nmodules: 1\n", "charset",
         "line 2: unknown section 'modules'"),
        ("field: Q(t)\nvars: y\npoint: y = 0\neqs: y'\nmodule: 1\n"
         "gens: [d]\n", "charset", NOT_BOTH),
        # with no `vars:` line the point names no variable
        ("field: Q(t)\nmodule: 1\npoint: y = 0\n", "charset",
         "line 3, column 8: unknown variable 'y' in point"),
        ("field: Q(t)\nvars: y y\neqs: y'\npoint: y = 0\n", "tangent",
         "line 2: variable 'y' declared twice"),
        ("field: Q(t)\nvars: y\neqs: y'\npoint: y = 0, y = 1\n", "tangent",
         "line 4, column 15: second coordinate for 'y' in point"),
        # `count` answered 5 and `charset` [d], each ignoring a section
        ("field: Q(t)\nmodule: 1\ngens: [d]\nleaders: [5]\n", "count",
         f"line 4: {LEADERS_ALONE}"),
        ("field: Q(t)\nmodule: 1\ngens: [d]\nleaders: [5]\n", "charset",
         f"line 4: {LEADERS_ALONE}"),
        ("field: Q(t)\nleaders: [5]\nvars: y\n", "count",
         f"line 2: {LEADERS_ALONE}"),
        ("field: Q(t)\nvars: y\neqs: y'\nleaders: [5]\n", "count",
         f"line 4: {LEADERS_ALONE}"),
        ("field: Q(t)\nvars: y\npoint: y = 0\nleaders: [5]\n", "count",
         f"line 4: {LEADERS_ALONE}"),
        ("field: R\n", "charset", "line 1: unrecognized field 'R'"),
        ("field: Q(t1, t2) derivations: 1\n", "charset",
         "line 1: derivation count below the variable count"),
        ("field: Q(t)\nvars: y\npoint: y 0\neqs: y'\n", "tangent",
         "line 3, column 8: point entries look like 'y = expr'"),
        ("field: Q(t)\nvars: y z\npoint: y = 0\neqs: y'\n", "tangent",
         "line 3: point misses coordinates for ['z']"),
        ("field: Q(t)\neqs: d\n", "tangent",
         "line 2: 'eqs:' needs a preceding 'vars:' line"),
        ("field: Q(t)\nvars: y\npoint: y = 0\neqs: ;\n", "tangent",
         "line 4: empty equation list"),
        ("field: Q(t)\ngens: [d]\n", "charset",
         "line 2: 'gens:' needs a preceding 'module:' line"),
        ("field: Q derivations: 2\nleaders: (1,1)\n", "count",
         "line 2, column 10: leader group must be bracketed"),
        ("field: Q(t)\nvars: y\neqs: y'\n", "charset",
         "'eqs:' needs a 'point:' line for linearization"),
        ("field: Q(t)\n", "charset",
         "need either a 'module:'+'gens:' or 'eqs:'+'point:' section"),
        (MODULE, "count", "'count' needs a 'leaders:' line"),
        (CONSTANT, "decompose",
         "'decompose' needs a 'module:'+'gens:' section"),
        ("field: Q(t)\nmodule: 1\ngens: [d]\n", "reduce",
         "'reduce' needs 'module:', 'gens:' and 'element:' sections"),
        (MODULE, "tangent", "'tangent' needs 'eqs:' and 'point:' sections"),
    ], ids=["unterminated-multi-index", "primes-with-two-derivations",
            "multi-index-length", "suffix-on-a-field-variable",
            "trailing-input", "unbracketed-generator", "coordinate-count",
            "no-field", "duplicate-section", "bad-variable-name",
            "unknown-ranking", "zero-module-rank", "unknown-section",
            "equations-and-module", "point-and-module", "duplicate-vars",
            "duplicate-point-entries", "leaders-and-module",
            "leaders-and-module-charset", "leaders-and-vars",
            "leaders-and-eqs", "leaders-and-point", "unknown-field",
            "too-few-derivations", "point-entry", "point-coordinates",
            "eqs-before-vars", "no-equations", "gens-before-module",
            "unbracketed-leaders", "eqs-without-point", "no-system",
            "count-without-leaders", "decompose-without-gens",
            "reduce-without-element", "tangent-without-eqs"])
    def test_exit_2_with_the_message(self, capsys, tmp_path, text, command,
                                     message):
        assert run(capsys, tmp_path, text, command) == (
            2, "", f"error: {message}\n")

    def test_ranking_section(self, capsys, tmp_path):
        # the file's ranking, as --ranking elim gives it, and not orderly
        text = "field: Q(t)\nmodule: 2\ngens: [d, 1]; [1, d]\n"
        elimination = ("characteristic set (2 elements):\n"
                       "  [d^2 - 1, 0]\n  [d, 1]\n")
        assert run(capsys, tmp_path, text, "charset", "--ranking",
                   "elim") == (0, elimination, "")
        for name in ("elim", "elimination"):
            assert run(capsys, tmp_path, f"ranking: {name}\n{text}",
                       "charset") == (0, elimination, "")
        assert run(capsys, tmp_path, f"ranking: orderly\n{text}",
                   "charset") == (0, "characteristic set (2 elements):\n"
                                     "  [d, 1]\n  [1, d]\n", "")


class TestRefusedInput:
    @pytest.mark.parametrize("section, command, char, message", [
        ("module: 1\ngens: [1/d]", "charset", "/",
         "can only divide by a base-field element"),
        ("module: 1\ngens: [d^-1]", "charset", "^", "negative power of an "
         "expression outside the base field"),
        ("vars: y\npoint: y = 0\neqs: y/y'", "tangent", "/",
         "can only divide by a base-field element"),
        ("vars: y\npoint: y = 0\neqs: y^-1", "tangent", "^",
         "negative power of an expression outside the base field"),
        ("module: 1\ngens: [2^9999999999*d]", "charset", "^",
         BUDGET),
        ("module: 1\ngens: [(2*t)^9999999999*d]", "charset", "^",
         BUDGET),
        ("module: 1\ngens: [(t^2/t^2 + 1)^9999999999*d]", "charset", ")^",
         BUDGET),
    ], ids=["divide-by-d", "d-inverse", "divide-by-y", "y-inverse",
            "integer-power", "monomial-power", "field-element-power"])
    def test_exit_2_with_position(self, capsys, tmp_path, section, command,
                                  char, message):
        # the error's column is that of the last character of `char`
        text = f"field: Q(t)\n{section}\n"
        lineno = section.count("\n") + 2
        column = text.splitlines()[-1].index(char) + len(char)
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text, command)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"error: line {lineno}, column {column}: {message}\n"

    def test_power_under_the_integer_size_cap_runs(self, capsys, tmp_path):
        # 2^1000000 is charged its 10^6 bits / 4, half the work budget
        text = "field: Q(t)\nmodule: 1\ngens: [(2*t)^1000000*d + 1]\n"
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text, "dimpoly")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert out == ("dimension polynomial: 1 (valid for t >= 1)\n"
                       "differential dimension d = 0\n"
                       "type = 0, typical height = 1\n"
                       "below-leader count B = 1 (free term r = 1)\n"
                       "free components: none\n")

    @pytest.mark.parametrize("command, section, out", [
        ("charset", "module: 1\ngens: [0^9999999999*d]",
         "characteristic set (0 elements):\n"),
        ("charset", "module: 1\ngens: [(d - d)^9999999999*d]",
         "characteristic set (0 elements):\n"),
        ("charset", "module: 1\ngens: [d + (t/t - 1)^9999999999]",
         "characteristic set (1 elements):\n  [d]\n"),
        ("charset", "module: 1\ngens: [(t/t*2*d)^10000]",
         "characteristic set (1 elements):\n  [d^10000]\n"),
        ("tangent", "vars: y\npoint: y = 0\neqs: y' + (y - y)^9999999999",
         "charset:\n  dy' = 0\n"
         "dimension polynomial: 1 (valid for t >= 1)\n"
         "differential dimension d = 0\n"
         "tangent space: K^0 x C^1 (torsion degrees [1])\n"),
    ], ids=["zero-numeral", "zero-data", "zero-field-element",
            "one-term-operator", "zero-differential-polynomial"])
    def test_powers_of_zero_or_of_one_term_answer_at_once(
            self, capsys, tmp_path, command, section, out):
        # zero is its own power and an operator of one constant term is
        # raised in closed form: k charged products would refuse these
        text = f"field: Q(t)\n{section}\n"
        start = time.perf_counter()
        code, got, err = run(capsys, tmp_path, text, command)
        assert time.perf_counter() - start < 1.0
        assert (code, got, err) == (0, out, "")

    @pytest.mark.parametrize("levels", [MAX_NESTING, 400, 10_000])
    def test_deep_nesting_exits_2_at_the_parenthesis(self, capsys, tmp_path,
                                                     levels):
        text = ("field: Q(t)\nmodule: 1\ngens: ["
                + "(" * levels + "d" + ")" * levels + "]\n")
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text, "charset")
        assert time.perf_counter() - start < 1.0
        if levels == MAX_NESTING:
            assert (code, out) == (0, "characteristic set (1 elements):\n"
                                      "  [d]\n")
            return
        column = len("gens: [") + MAX_NESTING + 1
        assert (code, out) == (2, "")
        assert err == (f"error: line 3, column {column}: parentheses nested "
                       f"deeper than {MAX_NESTING}\n")

    def test_negative_field_power_is_a_field_element(self, capsys, tmp_path):
        code, out, _ = run(capsys, tmp_path,
                           "field: Q(t)\nmodule: 1\ngens: [t^-2*d + t]\n",
                           "charset")
        assert code == 0
        assert out == "characteristic set (1 elements):\n  [d + t^3]\n"

    def test_division_by_zero_text_is_kept(self, capsys, tmp_path):
        code, _, err = run(capsys, tmp_path,
                           "field: Q(t)\nmodule: 1\ngens: [t/0]\n",
                           "charset")
        assert code == 2
        assert err == "error: division by the zero operator\n"

    def test_order_bound_over_the_term_cap_exits_1(self, capsys, tmp_path):
        text = "field: Q derivations: 3\nmodule: 1\ngens: [d1*d2*d3]\n"
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text, "charset",
                             "--order-bound", "400")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == ("error: --order-bound 400 would list 10827401 "
                       f"derivative terms; the limit is "
                       f"{diffalg.cli.MAX_LISTED_TERMS}\n")

    def test_order_bound_just_under_the_term_cap(self, capsys, tmp_path):
        # the cap counts all 246,905 terms of order <= 112; the listing
        # walks only the one outside the staircase
        text = "field: Q derivations: 3\nmodule: 1\ngens: [d1]; [d2]; [d3]\n"
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text, "charset",
                             "--order-bound", "112")
        assert time.perf_counter() - start < 0.5
        assert (code, err) == (0, "")
        assert out.endswith("\nstandard terms up to order 112 (1): e1\n")

    def test_negative_order_bound_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(capsys, tmp_path, MODULE, "charset", "--order-bound", "-5")
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("diffalg: error: argument --order-bound: "
                                     "K must be >= 0, got -5\n")

    @pytest.mark.parametrize("command, text", [
        ("count", "field: Q derivations: 2\nleaders: [(1,1)]\n"),
        ("decompose", MODULE),
        ("reduce", MODULE),
    ], ids=["count", "decompose", "reduce"])
    def test_order_bound_with_a_command_that_lists_nothing_exits_2(
            self, capsys, tmp_path, command, text):
        code, out, err = run(capsys, tmp_path, text, command,
                             "--order-bound", "2")
        assert (code, out) == (2, "")
        assert err == ("error: --order-bound is taken only by charset, "
                       "dimpoly, tangent\n")

    # The tests below keep the inputs of the caps that the work budget
    # replaced, each refused at its operator or answered exactly.

    @pytest.mark.parametrize("base", ["(t*d)", "(d + 1)"],
                             ids=["t-times-d", "d-plus-1"])
    def test_power_over_the_order_cap_exits_2(self, capsys, tmp_path, base):
        budget_verdict(capsys, tmp_path, "Q(t)", f"{base}^3000", ("^", 0),
                       command="decompose")

    @pytest.mark.parametrize("gens, at", [
        ("(t + 1)^2000*d", ("^", 0)),
        ("d + ((t^2 + 1)/(t - 1))^-251", None),
        ("(d - d + t + 1)^501", None),
    ], ids=["field-power", "negative-power", "scalar-operator"])
    def test_field_power_over_the_degree_cap_exits_2(self, capsys, tmp_path,
                                                     gens, at):
        budget_verdict(capsys, tmp_path, "Q(t)", gens, at)

    @pytest.mark.parametrize("field, gens, at", [
        ("Q(t1,t2)", "(t1 + t2 + 1)^100*d1", ("^", 0)),
        ("Q(t1,t2,t3)", "(t1 + t2 + t3 + 1)^50*d1", ("^", 0)),
        ("Q(t1,t2,t3)", "d2 + ((t1 + t2 + 1)/t3)^-80", None),
    ], ids=["two-variables", "three-variables", "negative-power"])
    def test_field_power_over_the_term_cap_exits_2(
            self, capsys, tmp_path, field, gens, at):
        budget_verdict(capsys, tmp_path, field, gens, at)

    @pytest.mark.parametrize("gens, at", [
        ("*".join([FACTOR] * 120) + "*d1", ("*", 38)),
        ("1" + f"/{FACTOR}" * 120 + "*d1", ("/", 37)),
        ("d1" + f"*{FACTOR}" * 120, ("*", 28)),
    ], ids=["product", "quotient", "operator-first"])
    def test_written_out_field_product_over_the_term_cap_exits_2(
            self, capsys, tmp_path, gens, at):
        budget_verdict(capsys, tmp_path, "Q(t1, t2, t3)", gens, at)

    def test_written_out_field_product_under_the_term_cap_runs(
            self, capsys, tmp_path):
        # 60 factors (t1 + t2 + 1), 1,891 terms, pass as ^60 does
        gens = "[" + "*".join(["(t1 + t2 + 1)"] * 60) + "*d1]"
        text = f"field: Q(t1, t2, t3)\nmodule: 1\ngens: {gens}\n"
        code, out, _ = run(capsys, tmp_path, text, "charset")
        assert (code, out) == (0, "characteristic set (1 elements):\n"
                                  "  [d1]\n")

    @pytest.mark.parametrize("field, gens", [
        ("Q(t)", "((t^2+1)/(t-1)*d + t)^40"),
        ("Q(t1, t2)", "((t1^2+t2)/(t1-t2)*d1 + t2*d2)^12"),
    ], ids=["one-derivation", "two-derivations"])
    def test_operator_power_over_the_coefficient_cap_exits_2(
            self, capsys, tmp_path, field, gens):
        budget_verdict(capsys, tmp_path, field, gens, ("^", 1))

    @pytest.mark.parametrize("gens", ["((t^21 + 1)*d)^1", "((t + 1)*d)^21"],
                             ids=["first-power", "polynomial-coefficient"])
    def test_operator_powers_outside_the_coefficient_cap_run(
            self, capsys, tmp_path, gens):
        budget_verdict(capsys, tmp_path, "Q(t)", gens, None)

    def test_field_powers_under_the_degree_cap_or_of_monomials(
            self, capsys, tmp_path):
        for gens in ("(t + 1)^500*d", "((t + 1)/t)^-250*d",
                     "(2*t)^5000*d + (3/t^2)^-900"):
            budget_verdict(capsys, tmp_path, "Q(t)", gens, None)

    @pytest.mark.parametrize("field, section, command, at", [
        ("Q(t)", "module: 1\ngens: [((t^2+t+1)*d + t)^100]", "charset",
         ("^", 1)),
        ("Q(t1, t2)", "module: 1\ngens: [(t1*d1 + t2*d2)^50]", "charset",
         ("^", 0)),
        ("Q(t)", "module: 1\ngens: [(1/t*d + t)^100]", "charset",
         ("^", 0)),
        ("Q(t)", "module: 1\ngens: [d^1000*(1/t)]", "charset", ("*", 0)),
        ("Q(t)", "module: 1\ngens: [(t/t*2*d)^9999999999]", "charset",
         ("^", 0)),
        ("Q(t)", "vars: y z\npoint: y = 0, z = 0\n"
         "eqs: (y + z + y' + z' + t + 1)^25", "tangent", ("^", 0)),
        ("Q(t)", "vars: y z\npoint: y = 0, z = 0\neqs: "
         + "*".join(["(y + z + y' + z' + t + 1)"] * 25), "tangent",
         ("*", 10)),
        ("Q(t)", "vars: y\npoint: y = 0\neqs: (2*y)^9999999999", "tangent",
         ("^", 0)),
    ], ids=["polynomial-coefficients", "two-derivations",
            "coefficient-over-t", "derived-quotient", "constant-operator",
            "differential-polynomial-power",
            "written-out-differential-polynomials", "indeterminate-power"])
    def test_products_past_the_work_budget_exit_2(
            self, capsys, tmp_path, field, section, command, at):
        # before the work budget these took seconds of CPU, up to 68.6 s,
        # but for the constant operator, which the integer size check
        # refused; a power of one term, like that of the indeterminate, is
        # charged a quarter of the bits its integers gain
        text = f"field: {field}\n{section}\n"
        line = text.splitlines()[-1]
        op, index = at
        column = [i for i, c in enumerate(line) if c == op][index] + 1
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text, command)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", over_budget(len(
            text.splitlines()), column))

    @pytest.mark.parametrize("field, gens, phi", [
        ("Q(t)", "d^50*(1/t)", "50"), ("Q(t)", "d^100*(3/t^2)", "100"),
        ("Q(t1, t2)", "d1^30*d2^20*(1/(t1*t2))", "50*t - 1175")],
        ids=["over-t", "over-a-power", "two-variables"])
    def test_derived_monomial_quotients_answer(self, capsys, tmp_path,
                                               field, gens, phi):
        # deriving c/t^b k times keeps one term: charged k^3 times its
        # words squared, as over a polynomial, d^50*(1/t) was refused
        # although it takes milliseconds
        text = f"field: {field}\nmodule: 1\ngens: [{gens}]\n"
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text, "dimpoly")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert out.startswith(f"dimension polynomial: {phi} (valid for ")

    def test_sums_of_quotients_are_charged(self, capsys, tmp_path):
        # each sum takes a gcd of the two denominators, and the sum of 800
        # quotients 1/(t + k) ran 1.7 s before it was charged
        def text(n):
            terms = " + ".join(f"1/(t+{k})" for k in range(1, n + 1))
            return f"field: Q(t)\nmodule: 1\ngens: [({terms})*d]\n"

        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text(800), "charset")
        assert time.perf_counter() - start < 1.0
        line = text(800).splitlines()[2]
        column = int(err.split("column ")[1].split(":")[0])
        assert line[column - 1] == "+"
        assert (code, out, err) == (2, "", over_budget(3, column))
        assert run(capsys, tmp_path, text(400), "charset") == (
            0, "characteristic set (1 elements):\n  [d]\n", "")

    def test_one_work_budget_per_problem_file(self, capsys, tmp_path):
        # each (t*d)^150 charges 460,621 units: one generator answers, and
        # the second takes the file past the budget at its `^`; with a
        # budget per expression the 40 parsed in 8-12 s
        line = "gens: " + "; ".join(["[(t*d)^150]"] * 40)
        text = f"field: Q(t)\nmodule: 1\n{line}\n"
        start = time.perf_counter()
        result = run(capsys, tmp_path, text, "charset")
        assert time.perf_counter() - start < 1.0
        column = [i for i, c in enumerate(line) if c == "^"][1] + 1
        assert result == (2, "", over_budget(3, column))
        code, _, err = run(capsys, tmp_path,
                           "field: Q(t)\nmodule: 1\ngens: [(t*d)^150]\n",
                           "charset")
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("gens, message", [
        ("[(t*d)^150, 1]", "expected 1 coordinates, found 2"),
        ("[(t*d)^150] x", "generator vector must be bracketed"),
    ], ids=["coordinate-count", "brackets"])
    def test_a_misshapen_vector_is_refused_before_its_coordinates(
            self, capsys, tmp_path, gens, message):
        # (t*d)^150 takes 0.2 s of CPU to compute; the vector's shape is
        # checked before any of its coordinates is read
        start = time.process_time()
        result = run(capsys, tmp_path,
                     f"field: Q(t)\nmodule: 1\ngens: {gens}\n", "charset")
        assert time.process_time() - start < 0.02
        assert result == (2, "", f"error: line 3, column 7: {message}\n")


class TestSymbolsAndNumerals:
    @pytest.mark.parametrize("field, gens, token, message", [
        ("Q(t)", "[d^²]", "²", "unexpected character '²'"),
        ("Q(t)", "[²*d]", "²", "unexpected character '²'"),
        ("Q(t1,t2)", "[t¹*d1]", "t¹", "unknown symbol 't¹'"),
        ("Q(t1,t2)", "[d1 + " + "9" * 5000 + "]", "9",
         f"numeral of 5000 digits; the limit is "
         f"{sys.get_int_max_str_digits()} digits"),
        ("Q(t1,t2)", "[t01*d1]", "t01", "unknown symbol 't01'"),
        ("Q(t1,t2)", "[d01]", "d01", "unknown symbol 'd01'"),
        ("Q(t)", "[d01]", "d01", "unknown symbol 'd01'"),
    ], ids=["superscript-exponent", "superscript-factor",
            "superscript-variable", "5000-digits", "t01", "d01",
            "d01-one-derivation"])
    def test_exit_2_with_position(self, capsys, tmp_path, field, gens,
                                  token, message):
        line = f"gens: {gens}"
        column = line.index(token) + 1
        text = f"field: {field}\nmodule: 1\n{line}\n"
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text, "charset")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"error: line 3, column {column}: {message}\n"

    @pytest.mark.parametrize("field, gens, printed", [
        ("Q(t)", "[d1 - t1]", "[d - t]"),
        ("Q(t) derivations: 2", "[d2 - t1]", "[d2 - t]")])
    def test_single_symbols_have_a_numbered_alias(
            self, capsys, tmp_path, field, gens, printed):
        text = f"field: {field}\nmodule: 1\ngens: {gens}\n"
        code, out, _ = run(capsys, tmp_path, text, "charset")
        assert (code, out) == (0, "characteristic set (1 elements):\n"
                                  f"  {printed}\n")

    @pytest.mark.parametrize("index, message", [
        ("1_0,0", "bad multi-index in 'y_(1_0,0)'"),
        ("\u0661,0", "bad multi-index in 'y_(\u0661,0)'"),
        ("+1,0", "bad multi-index in 'y_(+1,0)'"),
        ("-1,0", "negative entry in multi-index"),
    ], ids=["underscore", "arabic-indic-digit", "plus", "negative"])
    def test_multi_index_entries_are_ascii_digits(self, capsys, tmp_path,
                                                  index, message):
        line = f"eqs: y_(0,1) + y_({index})"
        column = line.rindex("y_(") + 1
        text = f"field: Q(t1,t2)\nvars: y\npoint: y = 0\n{line}\n"
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text, "charset")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"error: line 4, column {column}: {message}\n"

    def test_a_blank_in_a_multi_index_reads_like_a_space(self, capsys,
                                                         tmp_path):
        # a tab, or any other blank, inside `_( ... )` was kept in the
        # index, and `y_(1,\t0)` exited 2 with "bad multi-index"
        text = "field: Q(t1,t2)\nvars: y\npoint: y = 0\neqs: y_(1,{}0)\n"
        expected = run(capsys, tmp_path, text.format(" "), "charset")
        assert expected == (0, "characteristic set (1 elements):\n"
                               "  dy_(1,0)\n", "")
        for blank in ("\t", "\xa0", " \t\u2003"):
            assert run(capsys, tmp_path, text.format(blank),
                       "charset") == expected, repr(blank)

    def test_t01_is_a_legal_variable_name(self, capsys, tmp_path):
        text = ("field: Q(t1,t2)\nvars: t01\npoint: t01 = t1\n"
                "eqs: t01_(1,0) - 1\n")
        code, out, _ = run(capsys, tmp_path, text, "charset")
        assert (code, out) == (0, "characteristic set (1 elements):\n"
                                  "  dt01_(1,0)\n")
        code, _, err = run(capsys, tmp_path,
                           text.replace("t01", "t1"), "charset")
        assert code == 2
        assert err == ("error: line 2: variable name 't1' collides with a "
                       "built-in\n")


class TestSectionPositions:
    """Every error in a section body names the line and column of its
    token, counted from the start of the line; `!` marks the token."""

    @pytest.mark.parametrize("text, command, message", [
        ("field: Q(t)\nmodule: 1\ngens:    [d]; [t*d + !q]\n", "charset",
         "unknown symbol 'q'"),
        ("field: Q(t)\nmodule: 1\ngens: [d]\nelement:    [t*d + !q]\n",
         "reduce", "unknown symbol 'q'"),
        ("field: Q(t)\nvars: y z\npoint: y = t, z = t\n"
         "eqs:    y - t;   z + !q\n", "tangent", "unknown variable 'q'"),
        ("field: Q(t)\nvars: y z\npoint:    y = t,   z = t + !q\n"
         "eqs: y - t\n", "tangent", "unknown field variable 'q'"),
        ("field: Q(t)\nvars: y z\npoint:    y = t,   !q = t\n"
         "eqs: y - t\n", "tangent", "unknown variable 'q' in point"),
        ("field: Q derivations: 2\nleaders:    [(1,1)];   [(0,2) !(2,0)]\n",
         "count", "unexpected '(' in leaders"),
    ], ids=["gens", "element", "eqs", "point", "point-name", "leaders"])
    def test_line_and_column_of_the_token(self, capsys, tmp_path, text,
                                          command, message):
        text, lineno, column = unmarked(text)
        code, out, err = run(capsys, tmp_path, text, command)
        assert (code, out) == (2, "")
        assert err == f"error: line {lineno}, column {column}: {message}\n"

    @pytest.mark.parametrize("group", [
        "[(1 !2)]", "[(1,!,2)]", "[(1,1) !(0,2)]", "[!,(1,1),]", "[(1,1),!]",
        "[(1,1)!)]", "[(1!;2)]"],
        ids=["no-comma", "double-comma", "no-comma-between-tuples",
             "leading-comma", "trailing-comma", "extra-paren", "semicolon"])
    def test_leaders_are_split_like_every_list(self, capsys, tmp_path, group):
        text, lineno, column = unmarked(
            f"field: Q derivations: 2\nleaders: {group}\n")
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text, "count")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        char = group[group.index("!") + 1]
        assert err == (f"error: line {lineno}, column {column}: unexpected "
                       f"{char!r} in leaders\n")

    @pytest.mark.parametrize("group, message", [
        ("[!(1,1]", "unterminated leader tuple"),
        ("[(0,2), !(1,1,1)]", "leader (1, 1, 1) has length 3, expected 2"),
    ], ids=["unterminated", "wrong-length"])
    def test_leader_tuples(self, capsys, tmp_path, group, message):
        text, lineno, column = unmarked(
            f"field: Q derivations: 2\nleaders: {group}\n")
        code, out, err = run(capsys, tmp_path, text, "count")
        assert (code, out) == (2, "")
        assert err == f"error: line {lineno}, column {column}: {message}\n"


    @pytest.mark.parametrize("field, message", [
        ("Q(t1,   !t3)", "field variables must be t or t1..tv, got 't3'"),
        ("Q(t1, t2, !t2)", "field variables must be t or t1..tv, got 't2'"),
        ("Q(t1,,t2)", "field variables must be t or t1..tv, got ''"),
        ("Q(,t)", "field variables must be t or t1..tv, got ''"),
        ("Q()", "field variables must be t or t1..tv, got ''"),
    ], ids=["skipped-index", "repeated-index", "double-comma",
            "leading-comma", "no-variable"])
    def test_field_variables(self, capsys, tmp_path, field, message):
        text = f"field: {field}\nmodule: 1\ngens: [1]\n"
        position = "line 1"
        if "!" in text:
            text, _, column = unmarked(text)
            position += f", column {column}"
        code, out, err = run(capsys, tmp_path, text, "charset")
        assert (code, out, err) == (2, "", f"error: {position}: {message}\n")


class TestHeaderNumbers:
    @pytest.mark.parametrize("text, message", [
        ("field: Q(t)\nmodule: !\u0661\ngens:\n",
         "unexpected character '\u0661'"),
        ("field: Q(t)\nmodule: 0!_1\ngens:\n", "stray '_' outside a name"),
        ("field: Q(t) derivations: !\u0662\nmodule: 1\ngens:\n",
         "unexpected character '\u0662'"),
        (f"field: Q(t)\nmodule:  !{MAX_MODULE_RANK + 1}\ngens:\n",
         f"module rank {MAX_MODULE_RANK + 1}; the limit is "
         f"{MAX_MODULE_RANK}"),
        (f"field: Q derivations: !{MAX_DERIVATIONS + 1}\nmodule: 1\n"
         f"gens: [d1]\n", f"derivation count {MAX_DERIVATIONS + 1}; the "
         f"limit is {MAX_DERIVATIONS}"),
    ], ids=["arabic-indic-rank", "underscore-rank", "arabic-indic-count",
            "rank-over-the-cap", "count-over-the-cap"])
    def test_exit_2_at_the_number(self, capsys, tmp_path, text, message):
        text, lineno, column = unmarked(text)
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text, "dimpoly")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == f"error: line {lineno}, column {column}: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("field: Q(t) derivations: +1\nmodule: 1\ngens:\n",
         "line 1: derivation count must be an integer"),
        ("field: Q derivations: 0\nmodule: 1\ngens:\n",
         "line 1: derivation count must be positive"),
        ("field: Q(t)\nmodule: -1\ngens:\n",
         "line 2: module rank must be an integer"),
        ("field: Q(t)\nvars: " + " ".join(
            f"y{i}" for i in range(MAX_MODULE_RANK + 1)) + "\n",
         f"line 2: {MAX_MODULE_RANK + 1} variables; the limit is "
         f"{MAX_MODULE_RANK}"),
        ("field: Q(" + ",".join(f"t{i + 1}" for i in range(
            MAX_DERIVATIONS + 1)) + ")\nmodule: 1\ngens:\n",
         f"line 1: {MAX_DERIVATIONS + 1} field variables; the limit is "
         f"{MAX_DERIVATIONS}"),
    ], ids=["plus-sign", "no-derivation", "negative-rank",
            "variables-over-the-rank-cap", "field-variables-over-the-cap"])
    def test_exit_2_at_the_line(self, capsys, tmp_path, text, message):
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text, "dimpoly")
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("text, command", [
        (f"field: Q derivations: {MAX_DERIVATIONS}\nmodule: 1\n"
         f"gens: [d1]\n", "dimpoly"),
        (f"field: Q(t)\nmodule: {MAX_MODULE_RANK}\n"
         f"gens: [d{',' * (MAX_MODULE_RANK - 1)}]\n", "decompose"),
    ], ids=["derivations", "module-rank"])
    def test_largest_accepted_headers_in_under_a_second(
            self, capsys, tmp_path, text, command):
        start = time.perf_counter()
        code, _, err = run(capsys, tmp_path, text, command)
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")


class TestOversizedResults:
    @pytest.mark.parametrize("command, body, fmt", [
        ("charset", "module: 1\ngens: [d - (2*t)^20000]", "text"),
        ("reduce", "module: 1\ngens: [d]\nelement: [(2*t)^20000]", "text"),
        ("count", "leaders: [(1" + "0" * 3000 + ", 1)]", "text"),
        ("count", "leaders: [(1" + "0" * 3000 + ", 1)]", "json"),
    ], ids=["charset", "reduce", "count-text", "count-json"])
    def test_exit_1_naming_the_limit(self, capsys, tmp_path, command, body,
                                     fmt):
        field = "Q derivations: 2" if command == "count" else "Q(t)"
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, f"field: {field}\n{body}\n",
                             command, "--format", fmt)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (f"error: the result has an integer of more than "
                       f"{sys.get_int_max_str_digits()} digits\n")

    def test_other_value_errors_still_raise(self, capsys, tmp_path,
                                            monkeypatch):
        def broken(*args):
            raise ValueError("not a printing limit")

        monkeypatch.setattr(diffalg.cli, "_dispatch", broken)
        with pytest.raises(ValueError, match="not a printing limit"):
            run(capsys, tmp_path, MODULE, "charset")


class TestExponentLimit:
    def test_past_the_digit_of_a_later_variable_exits_1(self, capsys,
                                                        tmp_path):
        text = ("field: Q(t1, t2)\nmodule: 1\n"
                "gens: [t2^2147483648*d1 + 1]\n")
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text, "dimpoly")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == ("error: exponent over 2147483647 in a field variable "
                       "other than the first\n")

    def test_first_variable_has_no_limit(self, capsys, tmp_path):
        text = ("field: Q(t1, t2)\nmodule: 1\n"
                "gens: [t1^1000000000000*t2^2147483647*d1 + 1]\n")
        code, out, _ = run(capsys, tmp_path, text, "charset")
        assert code == 0
        assert "[d1 + 1/(t1^1000000000000*t2^2147483647)]" in out

    def test_one_variable_has_no_limit(self, capsys, tmp_path):
        text = "field: Q(t)\nmodule: 1\ngens: [t^1000000000000*d + 1]\n"
        code, out, _ = run(capsys, tmp_path, text, "dimpoly")
        assert code == 0
        assert out == ("dimension polynomial: 1 (valid for t >= 1)\n"
                       "differential dimension d = 0\n"
                       "type = 0, typical height = 1\n"
                       "below-leader count B = 1 (free term r = 1)\n"
                       "free components: none\n")
        code, out, _ = run(capsys, tmp_path, text, "charset")
        assert (code, out) == (0, "characteristic set (1 elements):\n"
                                  "  [d + 1/(t^1000000000000)]\n")


class TestPointPowerLimit:
    @pytest.mark.parametrize("point, eq, power, bits", [
        ("7" * 4000, "y^1000 - 1", 1000, 13289000),     # took 4.9 s
        ("t + 1", "y^4000 - 1", 4000, 32012000),        # took 16 s
    ], ids=["long-numeral", "binomial"])
    def test_past_the_cap_exits_1(self, capsys, tmp_path, point, eq, power,
                                  bits):
        text = f"field: Q(t)\nvars: y\npoint: y = {point}\neqs: {eq}\n"
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text, "tangent")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (1, "")
        assert err == (f"error: a value at the point raised to the power "
                       f"{power} may need {bits} bits of integers; the limit "
                       f"is {MAX_BITS} bits\n")

    @pytest.mark.parametrize("point, eq", [
        ("2", "y^5000 - 2^5000"),
        ("t + 1", "y^300 - (t + 1)^300"),
    ], ids=["numeral", "binomial"])
    def test_under_the_cap_answers(self, capsys, tmp_path, point, eq):
        text = f"field: Q(t)\nvars: y\npoint: y = {point}\neqs: {eq}\n"
        start = time.perf_counter()
        code, out, _ = run(capsys, tmp_path, text, "tangent")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (0, "charset:\n  dy = 0\n"
                                  "dimension polynomial: 0 "
                                  "(valid for t >= 0)\n"
                                  "differential dimension d = 0\n"
                                  "tangent space: K^0 x C^0 "
                                  "(torsion degrees [])\n")


class TestPointDerivativeLimit:
    def test_past_the_cap_exits_1(self, capsys, tmp_path):
        # 1/t derived 50,000 times kept a chain of 2.4 GB and took 13.4 s,
        # to exit 1 on a value too long to print
        text = "field: Q(t)\nvars: y\npoint: y = 1/t\neqs: y_(50000)\n"
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text, "tangent")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (f"error: the derivatives of a coordinate of the point "
                       f"up to order 50000 need more than the limit of "
                       f"{MAX_BITS} bits of integers\n")

    def test_under_the_cap_evaluates(self, capsys, tmp_path):
        # the 300th derivative of 1/t is 300!/t^301
        text = "field: Q(t)\nvars: y\npoint: y = 1/t\neqs: y_(300)\n"
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text, "tangent")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == (f"error: equation #0 does not vanish at the point "
                       f"(value {math.factorial(300)}/(t^301))\n")


class TestOneTermPowersOfIndeterminates:
    """A differential polynomial of one term is raised in closed form; its
    values at the point stay exact, or exit 1 at the point power cap."""

    @pytest.mark.parametrize("eq", ["y^6000", "y^9999999999"])
    def test_parsed_at_once(self, eq):
        start = time.perf_counter()
        problem = parse_input(f"field: Q(t)\nvars: y\npoint: y = 0\n"
                              f"eqs: {eq}\n")
        assert time.perf_counter() - start < 0.1
        (mono, coeff), = problem.eqs[0].terms.items()
        assert (mono, coeff.is_one()) == ((((0, (0,)), int(eq[2:])),), True)

    @pytest.mark.parametrize("eq, point, charset, d", [
        ("y^6000", "0", "", 1), ("y^9999999999", "0", "", 1),
        ("y^9999999999 - y", "0", "  dy = 0\n", 0),
        ("y^9999999999 - y", "1", "  dy = 0\n", 0),
        ("y^9999999999 + 1", "-1", "  dy = 0\n", 0)])
    def test_exact_at_zero_and_units(self, capsys, tmp_path, eq, point,
                                     charset, d):
        # y^6000 exited 2 at the work budget; the powers of 0, 1 and -1
        # are 0, 1 and -1, so evaluation takes them exactly
        text = f"field: Q(t)\nvars: y\npoint: y = {point}\neqs: {eq}\n"
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text, "tangent")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert out == (f"charset:\n{charset}"
                       f"dimension polynomial: {'t + 1' if d else '0'} "
                       f"(valid for t >= 0)\n"
                       f"differential dimension d = {d}\n"
                       f"tangent space: K^{d} x C^0 (torsion degrees [])\n")

    def test_past_the_point_power_cap_exits_1(self, capsys, tmp_path):
        text = ("field: Q(t)\nvars: y\npoint: y = 2\n"
                "eqs: y^9999999999 - y\n")
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text, "tangent")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == ("error: a value at the point raised to the power "
                       "9999999999 may need 29999999997 bits of integers; the "
                       f"limit is {MAX_BITS} bits\n")


class TestGcdDegreeLimit:
    @pytest.mark.parametrize("field, t, out", [
        ("Q(t)", "t^1000000000000",
         "dimension polynomial: 1 (valid for t >= 1)\n"
         "differential dimension d = 0\n"
         "type = 0, typical height = 1\n"
         "below-leader count B = 1 (free term r = 1)\n"
         "free components: none\n"),
        ("Q(t1, t2)", "t1^1000000000000*t2",
         "dimension polynomial: t + 1 (valid for t >= 1)\n"
         "differential dimension d = 0\n"
         "type = 1, typical height = 1\n"
         "free components: none\n")], ids=["one-variable", "two-variables"])
    def test_sparse_remainder_sequence_of_huge_degree_runs(
            self, capsys, tmp_path, field, t, out):
        # gcd(t^N + 1, t^N + 2) takes three pseudo-division steps in all
        d = "d" if field == "Q(t)" else "d1"
        text = f"field: {field}\nmodule: 1\ngens: [({t} + 1)*{d} + {t} + 2]\n"
        start = time.perf_counter()
        assert run(capsys, tmp_path, text, "dimpoly") == (0, out, "")
        assert time.perf_counter() - start < 1.0

    def test_pseudo_division_past_the_step_cap_exits_1(self, capsys,
                                                        tmp_path):
        # t^100000 + 1 by t - 2 takes 100001 steps
        text = "field: Q(t)\nmodule: 1\ngens: [(t^100000 + 1)*d + t - 2]\n"
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text, "dimpoly")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "")
        assert err == (f"error: gcd needs more than {MAX_PRS_STEPS} steps of "
                       f"pseudo-division (degree 100000 by degree 1 in one "
                       f"field variable)\n")

    def test_pseudo_division_past_the_bit_cap_exits_1(self, capsys,
                                                       tmp_path):
        # each step multiplies the remainder by 10^300, 997 bits, so the
        # step cap alone would let the integers grow for 8,192 steps
        text = (f"field: Q(t)\nmodule: 1\n"
                f"gens: [(t^16000 + 1)*d + {10 ** 300}*t - 2]\n")
        start = time.perf_counter()
        code, out, err = run(capsys, tmp_path, text, "dimpoly")
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (1, "")
        assert err == (f"error: gcd needs more than {MAX_BITS} bits of "
                       f"leading coefficients in one pseudo-division "
                       f"(degree 16000 by degree 1 in one field variable)\n")

    def test_degree_under_the_cap_runs(self, capsys, tmp_path):
        text = ("field: Q(t)\nmodule: 1\n"
                "gens: [(t^100000 + 1)*d + t^100000 + 2]\n")
        code, out, _ = run(capsys, tmp_path, text, "dimpoly")
        assert code == 0
        assert out == ("dimension polynomial: 1 (valid for t >= 1)\n"
                       "differential dimension d = 0\n"
                       "type = 0, typical height = 1\n"
                       "below-leader count B = 1 (free term r = 1)\n"
                       "free components: none\n")


class TestGcdStaysHeuristic:
    def test_corpora_leave_no_gcd_to_the_prs(self, capsys, tmp_path,
                                             bench_corpus):
        # every gcd of the benchmark's gcd-heavy corpora is settled by
        # GCDHEU, so an edit of its schedule that hands gcds to the PRS
        # shows here; pde81 and pde114 take seconds and are left out
        before = diffalg.field.prs_fallbacks
        calls = 0
        for problem in (*bench_corpus.ode_torsion(71),
                        *bench_corpus.pde_charset(71)):
            if problem.name in ("pde81.dimpoly", "pde114.dimpoly"):
                continue
            code, _, err = run(capsys, tmp_path, problem.text,
                               problem.command)
            assert (code, err) == (0, ""), problem.name
            calls += 1
        assert calls == 422     # 224 ode-torsion and 200 pde-charset
        assert diffalg.field.prs_fallbacks == before


def _python(args, cwd):
    """`python args` in a new process that imports this diffalg."""
    src = str(Path(diffalg.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def _fresh_run(argv, cwd):
    """Exit code and stdout of `python -m diffalg argv` in a new process."""
    done = _python(["-m", "diffalg", *argv], cwd)
    return done.returncode, done.stdout


class TestRepeatedCalls:
    def test_parser_built_once_and_calls_independent(self, capsys, tmp_path,
                                                     monkeypatch):
        (tmp_path / "module.txt").write_text(MODULE)
        (tmp_path / "generic.txt").write_text(GENERIC)
        calls = [["charset", "module.txt"],
                 ["charset"],
                 ["dimpoly", "module.txt", "--order-bound", "3"],
                 ["dimpoly", "module.txt"],
                 ["tangent", "generic.txt", "--format", "json"],
                 ["tangent", "generic.txt"],
                 ["charset", "module.txt", "--order-bound", "2"]]
        built = []
        original = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        monkeypatch.chdir(tmp_path)
        diffalg.cli._build_argparser.cache_clear()
        try:
            for argv in calls:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                out = capsys.readouterr().out
                assert (code, out) == _fresh_run(argv, tmp_path), argv
        finally:
            diffalg.cli._build_argparser.cache_clear()
        assert len(built) == 1

    def test_python_m_runs_the_cli(self, capsys, tmp_path):
        (tmp_path / "module.txt").write_text(MODULE)
        argv = ["reduce", str(tmp_path / "module.txt"), "--format", "json"]
        code = main(argv)
        assert (code, capsys.readouterr().out) == _fresh_run(argv, tmp_path)
        assert _fresh_run(["count"], tmp_path) == (2, "")
        probe = _python(["-c", "import sys, diffalg.cli; "
                         "print('diffalg.__main__' in sys.modules)"], tmp_path)
        assert probe.stdout == "False\n"


class TestColdStart:
    def test_import_loads_no_dataclasses_inspect_or_json(self, tmp_path):
        # json loads on the first --format json call, and only then
        (tmp_path / "module.txt").write_text(MODULE)
        probe = _python(["-c", """\
import sys
watched = {"dataclasses", "decimal", "fractions", "inspect", "json",
           "numbers"}
before = set(sys.modules)
import diffalg.cli
loaded = [sorted(watched & (set(sys.modules) - before))]
for fmt in ("text", "json"):
    diffalg.cli.main(["dimpoly", "module.txt", "--format", fmt])
    loaded.append(sorted(watched & (set(sys.modules) - before)))
print(loaded, file=sys.stderr)
"""], tmp_path)
        assert probe.returncode == 0
        assert probe.stderr == "[[], [], ['json']]\n"


class TestDeterminism:
    def test_json_output_is_reproducible(self, capsys, tmp_path):
        outputs = set()
        for _ in range(2):
            code, out, _ = run(capsys, tmp_path, GENERIC, "tangent",
                               "--format", "json")
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1


class TestOperatorRoundTrip:
    @pytest.mark.parametrize("text", [
        "d^2 + t*d - 1",
        "t^2*d^3 - (1/2)*d + 3",
        "(t^2 - 1)*d",
        "0",
    ])
    def test_print_then_parse(self, text):
        config = DiffFieldConfig(1, 1)
        op = parse_orepoly(text, config)
        assert parse_orepoly(orepoly_str(op, config), config) == op

    def test_partial_round_trip(self):
        config = DiffFieldConfig(2, 2)
        op = parse_orepoly("d1*d2 + t1*d2^2 - t2", config)
        assert parse_orepoly(orepoly_str(op, config), config) == op
