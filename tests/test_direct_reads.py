"""The direct reads of a well-formed request, `cli._read_argv` and
`parsing._read_leaders`, against the general readers they stand in front
of: on every input each returns None or what the general reader makes of
it, and `main` and `parse_input` answer as the general reader alone."""

import argparse
import contextlib
import io
import random
import sys
import types
from pathlib import Path

import pytest

import diffalg.cli
import diffalg.parsing
from diffalg import DiffAlgError, ParseError
from diffalg.cli import _build_argparser, _read_argv, main
from diffalg.parsing import (_parse_leader_group, _read_leaders,
                             _split_tokens, parse_input, tokenize)

LIMIT = sys.get_int_max_str_digits()


def parsed_argv(argv):
    """The Namespace of the argument parser, or the exit code and stderr of
    the usage error or help it prints instead."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            return _build_argparser().parse_args(argv)
        except SystemExit as exc:
            return exc.code, err.getvalue()


PLAIN = [
    ["count", "-"],
    ["charset", "problem.txt"],
    ["dimpoly", "a b.txt", "--order-bound", "007"],
    ["tangent", "-", "--format", "json", "--ranking", "elim",
     "--order-bound", "0"],
    ["reduce", "x", "--ranking", "orderly", "--format", "text"],
    ["decompose", "", "--order-bound", "3"],
    ["count", "count", "--format", "json"],
    ["charset", "-", "--order-bound", "9" * LIMIT],
]

# each goes to the argument parser unchanged
DECLINED = [
    [], ["count"], ["-h"], ["count", "-", "-h"], ["count", "-", "--help"],
    ["count", "-", "--form", "json"], ["count", "-", "--format=json"],
    ["count", "-", "--order", "3"], ["--format", "json", "count", "-"],
    ["count", "--format", "json", "-"],
    ["count", "-", "--format", "json", "--format", "text"],
    ["count", "-", "--order-bound", "1", "--order-bound", "1"],
    ["count", "--", "-"], ["count", "-", "--"], ["--", "count", "-"],
    ["charset", "-", "--order-bound", "-1"],
    ["charset", "-", "--order-bound", "+1"],
    ["charset", "-", "--order-bound", " 1"],
    ["charset", "-", "--order-bound", "1_0"],
    ["charset", "-", "--order-bound", "١"],
    ["charset", "-", "--order-bound", "１"],
    ["charset", "-", "--order-bound", ""],
    ["charset", "-", "--order-bound", "9" * (LIMIT + 1)],
    ["count", "-x"], ["count", "--format"], ["count", "-1"],
    ["count", "-", "extra"], ["count", "-", "--format"],
    ["count", "-", "--format", "xml"], ["count", "-", "--ranking", "lex"],
    ["count", "-", "--ranking", "elimination"], ["Count", "-"],
    ["counts", "-"], ["count", "-", "--FORMAT", "json"],
]


class TestReadArgv:
    @pytest.mark.parametrize("argv", PLAIN)
    def test_plain_argv_is_read_as_the_argument_parser_reads_it(self, argv):
        args = _read_argv(argv)
        assert isinstance(args, argparse.Namespace)
        assert args == parsed_argv(argv)

    @pytest.mark.parametrize("argv", DECLINED)
    def test_any_other_argv_is_declined(self, argv):
        assert _read_argv(argv) is None

    def test_seeded_argv_lists(self):
        rng = random.Random(2028)
        words = ["count", "charset", "dimpoly", "tangent", "-", "--", "-h",
                 "f.txt", "--format", "--ranking", "--order-bound",
                 "--format=json", "--form", "text", "json", "orderly",
                 "elim", "0", "12", "-3", "+4", "٢", "", "x y"]
        read = 0
        for _ in range(3000):
            argv = [rng.choice(words) for _ in range(rng.randint(0, 7))]
            if rng.random() < 0.5:          # a plain start, to reach options
                argv[:2] = [rng.choice(diffalg.cli.COMMANDS),
                            rng.choice(["-", "in.txt"])]
            args = _read_argv(argv)
            if args is not None:
                read += 1
                assert args == parsed_argv(argv), argv
        assert read > 300

    def test_main_reads_sys_argv_directly(self, monkeypatch, capsys,
                                          tmp_path):
        (tmp_path / "p.txt").write_text(
            "field: Q derivations: 2\nleaders: [(1,1), (0,2)]; [(2,0)]\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "argv", ["diffalg", "count", "p.txt",
                                          "--format", "json"])
        built = []
        monkeypatch.setattr(diffalg.cli, "_build_argparser",
                            lambda: built.append(1))
        assert main() == 0
        assert built == []
        expected = capsys.readouterr().out
        monkeypatch.undo()
        monkeypatch.chdir(tmp_path)
        assert main(["count", "p.txt", "--format", "json"]) == 0
        assert capsys.readouterr().out == expected


def token_groups(body, m):
    """The leader groups of the token path alone, or its ParseError."""
    try:
        return tuple(frozenset(_parse_leader_group(group, m, 2))
                     for group in _split_tokens(tokenize(body, 2, 9), ";"))
    except ParseError as exc:
        return str(exc), exc.line, exc.column


def parse_outcome(text):
    """The leaders `parse_input` reads from text, or its error with its
    position."""
    try:
        return parse_input(text).leaders
    except DiffAlgError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))


def random_body(rng, m):
    """A well-formed `leaders:` body in N^m: groups of distinct tuples of one
    weight (an antichain), with random blanks, empty groups and now and
    then a numeral of up to the interpreter's digit limit."""
    def blank():
        return "".join(rng.choice(" \t") for _ in range(rng.choice(
            (0, 0, 0, 1, 2))))

    groups = []
    for _ in range(rng.randint(1, 3)):
        size = 0 if rng.random() < 0.2 else rng.randint(1, 4 if m > 1 else 1)
        weight = rng.randint(size, size + 6)
        pool = set()
        while len(pool) < size:
            cut = sorted(rng.randint(0, weight) for _ in range(m - 1))
            pool.add(tuple(b - a for a, b in zip([0, *cut], [*cut, weight])))
        tuples = []
        for vec in pool:
            numerals = [str(k) for k in vec]
            if rng.random() < 0.1:
                numerals[0] = "9" * rng.choice((20, LIMIT))
            tuples.append(blank() + "(" + ",".join(
                blank() + x + blank() for x in numerals) + ")" + blank())
        groups.append(blank() + "[" + ",".join(tuples) + blank() + "]"
                      + blank())
    return ";".join(groups)


def mutations(rng, body, positions=24):
    """body with one character inserted, deleted or replaced, at up to
    `positions` places."""
    alphabet = "[](),; 0123456789\t\xa0x"
    places = range(len(body) + 1)
    if len(places) > positions:
        places = sorted(rng.sample(places, positions))
    for i in places:
        for c in alphabet:
            yield body[:i] + c + body[i:]
            if i < len(body):
                yield body[:i] + c + body[i + 1:]
        if i < len(body):
            yield body[:i] + body[i + 1:]


class TestReadLeaders:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_well_formed_bodies_are_read_directly(self, m):
        rng = random.Random(100 + m)
        for _ in range(60):
            body = random_body(rng, m)
            groups = _read_leaders(body, m)
            assert groups is not None, body
            assert groups == token_groups(body, m)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_one_character_off_reads_as_the_tokens_do(self, m, monkeypatch):
        rng = random.Random(200 + m)
        header = f"field: Q derivations: {m}\nleaders: "
        bodies = [random_body(rng, m) for _ in range(5)]
        cases = [mutated for body in bodies
                 for mutated in mutations(rng, body)]
        direct = [(body, _read_leaders(body, m),
                   parse_outcome(header + body)) for body in cases]
        monkeypatch.setattr(diffalg.parsing, "_read_leaders",
                            lambda body, m: None)
        accepted = 0
        for body, groups, outcome in direct:
            if groups is not None:
                accepted += 1
                assert groups == token_groups(body, m), body
            assert outcome == parse_outcome(header + body), body
        assert 0 < accepted < len(cases)

    @pytest.mark.parametrize("body, m", [
        ("[2]", 1), ("[]; [2]", 1), ("[(1,1)]\xa0", 2), ("[(1,1)]\x0b", 2),
        ("[(1,1)]\x0c", 2), ("[(1,1)];", 2), (";[(1,1)]", 2), ("", 2),
        ("[(1 2)]", 2), ("[(1,,2)]", 2), ("[(1,1) (0,2)]", 2),
        ("[,(1,1),]", 2), ("[(1,1),]", 2), ("[(1,1]", 2), ("[(1,1))]", 2),
        ("[(0,2), (1,1,1)]", 2), ("[((1,1))]", 2), ("[[(1,1)]]", 2),
        ("[(١,1)]", 2), ("[(+1,1)]", 2), ("[(1_0,1)]", 2),
        ("[(" + "9" * (LIMIT + 1) + ",1)]", 2), ("[()]", 1), ("[( )]", 1),
    ])
    def test_other_bodies_are_declined(self, body, m):
        assert _read_leaders(body, m) is None


@pytest.fixture(scope="module")
def bench_corpus():
    """bench/corpus.py, executed from its text as a module of its own; the
    file is only read."""
    path = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"
    module = types.ModuleType("bench_corpus_text")
    sys.modules[module.__name__] = module     # dataclasses look it up
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


class TestBenchmarkTakesTheDirectReads:
    @pytest.mark.parametrize("workload", ["ode-torsion", "pde-charset",
                                          "staircase"])
    def test_every_argv(self, bench_corpus, workload):
        for problem in bench_corpus.WORKLOADS[workload](71):
            args = _read_argv(problem.argv)
            assert args is not None, problem.name
            assert args == parsed_argv(problem.argv)

    def test_every_staircase_leaders_body(self, bench_corpus):
        bodies = 0
        for problem in bench_corpus.staircase(71):
            for line in problem.text.splitlines():
                head, _, body = line.partition(":")
                if head == "leaders":
                    bodies += 1
                    groups = _read_leaders(body, problem.m)
                    assert groups is not None, problem.name
                    assert groups == token_groups(body, problem.m)
        assert bodies == 30
