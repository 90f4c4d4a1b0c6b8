"""Direct reads against the readers they replace or stand in front of.

`cli._read_argv` returns None or the attributes that the argument parser
makes of an argv, and `main` answers as the argument parser alone.
`parse_input` reads every section body as the token reader it replaced
(`helpers.token_parse_input`) reads it: an equal problem, or the same
error at the same line and column, with the same work charged.  The data
sections (`field:`, `module:`, `leaders:`) are read with string methods
alone, so these checks are what ties each string split to the tokens."""

import contextlib
import io
import random
import sys

import pytest

import diffalg.cli
import diffalg.parsing
from diffalg import DiffAlgError, ModElement, OrePoly
from diffalg.errors import NotAntichain, ParseError
from diffalg.cli import _build_argparser, _read_argv, main
from diffalg.parsing import _ExprParser, parse_input
from helpers import count_calls, token_parse_input

LIMIT = sys.get_int_max_str_digits()


def parsed_argv(argv):
    """The attributes of the argument parser's Namespace, as a dict, or the
    exit code and stderr of the usage error or help it prints instead."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            return vars(_build_argparser().parse_args(argv))
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
        assert vars(_read_argv(argv)) == parsed_argv(argv)

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
                assert vars(args) == parsed_argv(argv), argv
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


def read(parse, text):
    """What `parse` makes of a problem file: its fields, the point as its
    coordinates, or the type, text, line and column of its error."""
    try:
        problem = parse(text)
    except DiffAlgError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    fields = {name: getattr(problem, name) for name in problem._fields}
    fields["point"] = problem.point and problem.point.coordinates
    return fields


def built_as_checked(reading):
    """The module elements of a reading, each checked to be what the
    validating constructors build of its terms: the same element, no zero
    coefficient, and coordinates equal to `OrePoly`'s; their count."""
    elements = [*(reading["gens"] or ()),
                *[w for w in [reading["element"]] if w is not None]]
    for w in elements:
        assert w == ModElement(w.config, w.n, dict(w.terms))
        assert all(w.terms.values())
        coords = [{} for _ in range(w.n)]
        for (comp, exps), c in w.terms.items():
            coords[comp][exps] = c
        assert w.operator_vector() == [OrePoly(w.config, c) for c in coords]
    return len(elements)


def reads_as_the_tokens_do(text):
    """What `parse_input` reads from text, checked to be what the token
    reader reads, with its module elements built as checked."""
    reading = read(parse_input, text)
    assert reading == read(token_parse_input, text), text
    if type(reading) is dict:
        built_as_checked(reading)
    return reading


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


def mutations(rng, body, positions=24, alphabet="[](),; 0123456789\t\xa0x"):
    """body with one character of `alphabet` inserted, deleted or replaced,
    at up to `positions` places."""
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
        header = f"field: Q derivations: {m}\nleaders: "
        for _ in range(60):
            body = random_body(rng, m)
            reading = reads_as_the_tokens_do(header + body)
            # a long numeral may leave the groups no antichain
            assert type(reading) is dict or reading[0] is NotAntichain

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_one_character_off_reads_as_the_tokens_do(self, m):
        rng = random.Random(200 + m)
        header = f"field: Q derivations: {m}\nleaders: "
        accepted = cases = 0
        for body in [random_body(rng, m) for _ in range(5)]:
            for mutated in mutations(rng, body):
                cases += 1
                accepted += type(reads_as_the_tokens_do(
                    header + mutated)) is dict
        assert 0 < accepted < cases

    # bodies off the plain shape of tuples between `;` and `,`: the string
    # read declines the group, and its first error is searched for
    @pytest.mark.parametrize("body, m", [
        ("[2]", 1), ("[]; [2]", 1), ("[(1,1)]\xa0", 2), ("[(1,1)]\x0b", 2),
        ("[(1,1)]\x0c", 2), ("[(1,1)];", 2), (";[(1,1)]", 2), ("", 2),
        ("[(1 2)]", 2), ("[(1,,2)]", 2), ("[(1,1) (0,2)]", 2),
        ("[,(1,1),]", 2), ("[(1,1),]", 2), ("[(1,1]", 2), ("[(1,1))]", 2),
        ("[(0,2), (1,1,1)]", 2), ("[((1,1))]", 2), ("[[(1,1)]]", 2),
        ("[(١,1)]", 2), ("[(+1,1)]", 2), ("[(1_0,1)]", 2),
        ("[(" + "9" * (LIMIT + 1) + ",1)]", 2), ("[()]", 1), ("[( )]", 1),
        ("[(1;2)]", 2), ("[(y_(1),2)]", 2), ("[(1,(2,3))]", 2),
        ("[(" + "9" * (LIMIT + 1) + ",x)]", 2),
    ])
    def test_other_bodies_are_declined(self, body, m):
        reads_as_the_tokens_do(f"field: Q derivations: {m}\nleaders: {body}")

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_names_suffixes_and_separators_one_character_off(self, m):
        # a name with a suffix `_( ... )` holds brackets and commas that
        # no string split may take for the body's own
        rng = random.Random(300 + m)
        header = f"field: Q derivations: {m}\nleaders: "
        bodies = [random_body(rng, m) for _ in range(2)]
        bodies += [body.replace("(", "y_(", 1) for body in bodies]
        accepted = cases = 0
        for body in bodies:
            for mutated in mutations(rng, body, 16, "[](),;_+- 0123y\t"):
                cases += 1
                accepted += type(reads_as_the_tokens_do(
                    header + mutated)) is dict
        assert 0 < accepted < cases


class TestReadHeaders:
    @pytest.mark.parametrize("field", [
        "Q(t1,(t2,t3))", "Q(t 1)", "Q(t1, t 2)", "Q(t_(1))", "Q(t_(1)",
        "Q(t1, t_(2, 3), t3)", "Q(t1,t2", "Q()", "Q( , )", "Q(t1),(t2)",
        "Q(t))", "Q((t))", "Q_(1)(t)", "Q\t( t1 ,\xa0t2 )", "Q [t]", "QQ",
        "Q(t2, t1)", "Q(t,)", "Q(t1,]t2)", "Q(t1;t2)",
    ])
    def test_field_variables_read_as_the_tokens_do(self, field):
        reads_as_the_tokens_do(f"field: {field}\nmodule: 1\ngens: [d1]\n")

    @pytest.mark.parametrize("text", [
        f"field: Q derivations: {'0' * (LIMIT - 1)}2\nmodule: 1\n",
        f"field: Q derivations: {'0' * LIMIT}2\nmodule: 1\n",
        f"field: Q\nmodule:  {'0' * (LIMIT - 1)}1\ngens: [d]\n",
        f"field: Q\nmodule:  {'0' * LIMIT}1\ngens: [d]\n",
        f"field: Q\nmodule: {'9' * LIMIT}\n",
    ], ids=["derivations-at-limit", "derivations-past-limit",
            "module-at-limit", "module-past-limit", "module-over-cap"])
    def test_counts_as_long_as_the_digit_limit(self, text):
        reads_as_the_tokens_do(text)

    def test_data_sections_build_no_reader(self, monkeypatch,
                                           bench_corpus):
        # text of other characters than ASCII letters, digits, symbols,
        # spaces and tabs is walked by the reader for its lexical errors
        built = count_calls(monkeypatch, diffalg.parsing._Reader, "__init__")
        texts = [
            "field: Q derivations: 2\nleaders: [(1,1), (0,2)]; [(2,0)]\n",
            "field: Q(t1, t2) derivations: 3\nmodule: 4\n",
            "field:\tQ( t )\t\nmodule:\t2 \n",
            "field: Q\nleaders: []; [2]; [ 0 ]; [(3), 3]\n",
            *(problem.text for problem in bench_corpus.staircase(71)
              if problem.command == "count"),
        ]
        for text in texts:
            assert type(read(parse_input, text)) is dict, text
        assert built == []
        with pytest.raises(DiffAlgError):
            parse_input("field: Q derivations: 2\nleaders: [(1,,2)]\n")
        assert built


def rand_expr(rng, atoms, depth=2):
    """Random expression text over `atoms`, with every operator."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    op = rng.choice("+-*/^(")
    a = rand_expr(rng, atoms, depth - 1)
    if op == "^":
        return f"({a})^{rng.randint(-1, 2)}"
    if op == "(":
        return f"-({a})"
    return f"{a} {op} {rand_expr(rng, atoms, depth - 1)}"


FIELD = ["t", "1", "2", "(t + 1)"]
OPERATOR = FIELD + ["d", "t*d", "d^2"]
POLYNOMIAL = FIELD + ["y", "z", "y'", "z''", "y*z"]
# each section's body in a file whose other sections are well formed
SECTIONS = {
    "field": ("field:{}\nmodule: 1\ngens: [d1]\n", lambda rng: rng.choice([
        " Q", " Q(t)", " Q(t1, t2)", " Q derivations: 2",
        " Q(t1,t2) derivations: 3"])),
    "module": ("field: Q(t)\nmodule:{}\ngens: [d, 1]\n",
               lambda rng: f" {rng.randint(1, 3)} "),
    "vars": ("field: Q(t)\nvars:{}\npoint: y = t, z = 1\neqs: y' - 1\n",
             lambda rng: " y z" if rng.random() < 0.5 else " z\ty"),
    "ranking": ("field: Q(t)\nranking:{}\nmodule: 1\ngens: [d]\n",
                lambda rng: rng.choice([" orderly", " elim", "elimination"])),
    "point": ("field: Q(t)\nvars: y z\npoint:{}\neqs: y' - 1\n",
              lambda rng: f" y = {rand_expr(rng, FIELD)}, "
                          f"z = {rand_expr(rng, FIELD)}"),
    "eqs": ("field: Q(t)\nvars: y z\npoint: y = t, z = 1\neqs:{}\n",
            lambda rng: " " + "; ".join(rand_expr(rng, POLYNOMIAL)
                                        for _ in range(rng.randint(1, 2)))),
    "gens": ("field: Q(t)\nmodule: 2\ngens:{}\n",
             lambda rng: " " + "; ".join(
                 f"[{rand_expr(rng, OPERATOR)}, {rand_expr(rng, OPERATOR)}]"
                 for _ in range(rng.randint(1, 2)))),
    "element": ("field: Q(t)\nmodule: 2\ngens: [d, 1]\nelement:{}\n",
                lambda rng: f" [{rand_expr(rng, OPERATOR)}, "
                            f"{rand_expr(rng, OPERATOR)}]"),
    "leaders": ("field: Q derivations: 2\nleaders:{}\n",
                lambda rng: " " + "; ".join(
                    "[" + ", ".join(f"({k}, {w - k})" for k in range(w))
                    + "]" for w in rng.sample(range(1, 4), 2))),
}


class TestEverySection:
    @pytest.mark.parametrize("section", list(SECTIONS))
    def test_seeded_bodies_one_character_off(self, section):
        template, body = SECTIONS[section]
        rng = random.Random(f"section {section}")
        accepted = cases = 0
        for text in [body(rng) for _ in range(2)]:
            for mutated in [text, *mutations(
                    rng, text, 8, "[](),;=^*/+-' _0123456789\t\xa0tdy")]:
                cases += 1
                accepted += type(reads_as_the_tokens_do(
                    template.format(mutated))) is dict
        assert 0 < accepted < cases

    # each coordinate's value is a ring value or integer data, and each
    # cancels to zero in one of them
    @pytest.mark.parametrize("vector, terms", [
        ("[t/t - 1, d]", 1), ("[1/t - 1/t, 1/t]", 1), ("[d - d, 0]", 0),
        ("[(1/(t + 1) - 1/(t + 1))*d, (t/t)*d]", 1),
        ("[, (2*t)/(2*t)]", 1)])
    def test_coordinates_that_cancel_leave_no_term(self, vector, terms):
        reading = reads_as_the_tokens_do(
            f"field: Q(t)\nmodule: 2\ngens: {vector}\n")
        assert built_as_checked(reading) == 1
        assert len(reading["gens"][0].terms) == terms

    @pytest.mark.parametrize("other", [
        "module: 1\ngens: [d]", "module: 1", "vars: y", "vars: y\neqs: y'",
        "vars: y\npoint: y = 0"])
    def test_leaders_beside_another_shape(self, other):
        text = f"field: Q(t)\nleaders: [5]\n{other}\n"
        assert reads_as_the_tokens_do(text)[:3] == (
            ParseError, "line 2: give leaders alone, without a module or "
                        "equations+point", 2)


class TestBenchmarkTakesTheDirectReads:
    @pytest.mark.parametrize("workload", ["ode-torsion", "pde-charset",
                                          "staircase"])
    def test_every_argv(self, bench_corpus, workload):
        for problem in bench_corpus.WORKLOADS[workload](71):
            args = _read_argv(problem.argv)
            assert args is not None, problem.name
            assert vars(args) == parsed_argv(problem.argv)

    def test_every_staircase_leaders_body(self, bench_corpus):
        bodies = 0
        for problem in bench_corpus.staircase(71):
            for line in problem.text.splitlines():
                head, _, body = line.partition(":")
                if head == "leaders":
                    bodies += 1
            assert type(reads_as_the_tokens_do(problem.text)) is dict
        assert bodies == 30

    @pytest.mark.parametrize("workload", ["ode-torsion", "pde-charset",
                                          "staircase"])
    def test_every_text_reads_and_charges_as_the_tokens_do(
            self, bench_corpus, workload, monkeypatch):
        charges = []
        spend = _ExprParser.spend

        def logged(self, work, at):
            charges.append(work)
            spend(self, work, at)

        monkeypatch.setattr(_ExprParser, "spend", logged)
        for problem in bench_corpus.WORKLOADS[workload](71):
            reading = read(parse_input, problem.text)
            library, charges[:] = charges[:], []
            assert reading == read(token_parse_input, problem.text)
            assert charges == library, problem.name
            charges.clear()

    @pytest.mark.parametrize("workload, elements", [
        ("ode-torsion", 394), ("pde-charset", 437), ("staircase", 54)])
    def test_every_module_element_is_built_as_checked(
            self, bench_corpus, workload, elements):
        # the named rows too: the corpus holds every call
        assert sum(built_as_checked(read(parse_input, problem.text))
                   for problem in bench_corpus.WORKLOADS[workload](71)) \
            == elements
