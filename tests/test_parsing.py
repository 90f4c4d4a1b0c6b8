"""Expression parsing in the base field, checked against the lifted oracle;
the symbol table, numerals and the exact text of the printers."""

import random
import sys
import time

import pytest

import diffalg.ore
from diffalg import (DiffAlgError, DiffFieldConfig, MPoly, ModElement,
                     NumericalPolynomial, OrePoly, ParseError, RatFun)
from diffalg.errors import ExponentOverflow
from diffalg.field import _ratfun
from diffalg.parsing import (MAX_PARSE_WORK, field_var_names,
                             modelement_str, orepoly_str, parse_input,
                             poly_str, ratfun_str, term_label)
from helpers import (count_calls, delta, field_var, fraction_numpoly_str,
                     fraction_ratfun_str, parse_diffpoly,
                     parse_generator_vector, parse_lifted,
                     parse_lifted_vector, parse_orepoly, parse_ratfun)

CFG1 = DiffFieldConfig(1, 1)
CFG22 = DiffFieldConfig(2, 2)
CFG20 = DiffFieldConfig(2, 0)
CFG2 = DiffFieldConfig(2, 1)
NAMES = ["y", "z"]


def outcome(parse, *args):
    """The parsed value, or the type and text of the error it raised."""
    try:
        return parse(*args)
    except DiffAlgError as exc:
        return type(exc), str(exc)


def parsed(parse, *args):
    """The value parse(*args) returns, within a second."""
    start = time.perf_counter()
    value = parse(*args)
    assert time.perf_counter() - start < 1.0
    return value


def over_budget(parse, text, *args):
    """The text of the ParseError that parse(text, *args) raises, within a
    second, checked to be the work budget's."""
    start = time.perf_counter()
    with pytest.raises(ParseError) as caught:
        parse(text, *args)
    assert time.perf_counter() - start < 1.0
    message = str(caught.value)
    assert message.endswith(f": the arithmetic of this problem file needs "
                            f"more than {MAX_PARSE_WORK} units of work")
    return message


def field_atoms(config):
    names = ["t"] if config.v == 1 else [f"t{i + 1}" for i in range(config.v)]
    return names + ["0", "1", "2", "3"]


def operator_atoms(config):
    return ["d"] if config.m == 1 else [f"d{i + 1}" for i in range(config.m)]


def polynomial_atoms(config):
    if config.m == 1:
        return ["y", "y'", "z", "y''"]
    return ["y", "z", "y_(1,0)", "z_(0,2)"]


def rand_expr(rng, field, ring, depth):
    """Random expression text over field atoms and ring atoms (d or y);
    the second value tells whether it holds a ring atom."""
    if depth == 0 or rng.random() < 0.25:
        if ring and rng.random() < 0.4:
            return rng.choice(ring), True
        return rng.choice(field), False
    op = rng.choice("+-*/^n")
    a, in_ring = rand_expr(rng, field, ring, depth - 1)
    if op == "n":
        return f"-({a})", in_ring
    if op == "^":
        low = -2 if not in_ring or rng.random() < 0.1 else 0
        return f"({a})^{rng.randint(low, 3 if not in_ring else 2)}", in_ring
    # divisors are mostly field expressions; the rest must be refused
    b, b_ring = rand_expr(rng, field, ring if op != "/" or
                          rng.random() < 0.1 else [], depth - 1)
    return f"({a}) {op} ({b})", in_ring or b_ring


FIXED = ["d*t", "t*d", "(t*d)^2", "d*t - t*d", "(t^2 + 1)^-1*d",
         "((1/t)/(t/(t + 1)))*d^2", "t^-2*d", "(t + 1)^-1*d^2 - d*t^-1",
         "d/(2*t)", "(d - d + t)^-1*d", "(2*t + 2)/(-3)*d", "-(d + t)^2",
         "1/d", "d^-1", "t/0", "d/(t - t)", "0^-1", "(d - d)^-1", "t/d"]


class TestBaseFieldEvaluation:
    @pytest.mark.parametrize("text", FIXED)
    def test_fixed_cases(self, text):
        assert outcome(parse_orepoly, text, CFG1) == \
            outcome(parse_lifted, text, CFG1)

    @pytest.mark.parametrize("config", [CFG1, CFG22, CFG20],
                             ids=["m1v1", "m2v2", "m2v0"])
    def test_random_operators(self, config):
        rng = random.Random(1000 + 10 * config.m + config.v)
        field, ring = field_atoms(config), operator_atoms(config)
        for _ in range(150):
            text, _ = rand_expr(rng, field, ring, 3)
            assert outcome(parse_orepoly, text, config) == \
                outcome(parse_lifted, text, config), text

    @pytest.mark.parametrize("config", [CFG1, CFG22], ids=["m1v1", "m2v2"])
    def test_random_vectors(self, config):
        rng = random.Random(2000 + config.m)
        field, ring = field_atoms(config), operator_atoms(config)
        for _ in range(60):
            coords = [rand_expr(rng, field, ring, 2)[0]
                      if rng.random() < 0.8 else "" for _ in range(2)]
            text = "[" + ", ".join(coords) + "]"
            assert outcome(parse_generator_vector, text, config, 2) == \
                outcome(parse_lifted_vector, text, config, 2), text

    @pytest.mark.parametrize("config", [CFG1, CFG22], ids=["m1v1", "m2v2"])
    def test_random_differential_polynomials(self, config):
        rng = random.Random(3000 + config.m)
        field, ring = field_atoms(config), polynomial_atoms(config)
        for _ in range(150):
            text, _ = rand_expr(rng, field, ring, 3)
            assert outcome(parse_diffpoly, text, config, NAMES) == \
                outcome(parse_lifted, text, config, NAMES), text

    @pytest.mark.parametrize("config, text", [
        (CFG1, "d*t*d"), (CFG22, "d1*t2*d2*t1"),
        (CFG1, "d^0"), (CFG22, "(d1)^0"), (CFG1, "0^0"),
        (CFG1, "1/2/3*t*d"), (CFG1, "(2/3)^-2*d"), (CFG1, "-2*-t*--d"),
        (CFG22, "t2^2147483647*t1^2147483648*d2"),
        (CFG22, "t2^2147483648")])
    def test_boundaries_of_the_integer_data(self, config, text):
        assert outcome(parse_orepoly, text, config) == \
            outcome(parse_lifted, text, config)

    def test_exponent_overflow_is_raised_at_the_power(self):
        # before the parser reaches the bad token after it
        for text in ("t2^2147483648", "t2^2147483648*)", "2*t2^2147483648("):
            assert outcome(parse_orepoly, text, CFG22)[0] is ExponentOverflow
        assert outcome(parse_orepoly, "t2^2147483647*)", CFG22)[0] \
            is ParseError

    @pytest.mark.parametrize("config", [CFG1, CFG22, CFG20],
                             ids=["m1v1", "m2v2", "m2v0"])
    def test_random_products_of_atoms(self, config):
        rng = random.Random(4000 + 10 * config.m + config.v)
        atoms = field_atoms(config) + operator_atoms(config) + [
            f"{a}^2" for a in field_atoms(config)[:2]
            + operator_atoms(config)] + ["-1", "(2/3)", "(-1/2)"]
        for _ in range(200):
            text = "*".join(rng.choice(atoms)
                            for _ in range(rng.randint(2, 6)))
            assert outcome(parse_orepoly, text, config) == \
                outcome(parse_lifted, text, config), text

    @pytest.mark.parametrize("config, names", [
        (CFG1, None), (CFG22, None), (CFG1, NAMES), (CFG22, NAMES)],
        ids=["m1v1", "m2v2", "m1v1-diffpoly", "m2v2-diffpoly"])
    def test_random_powers_of_sums(self, config, names):
        # a power of several terms is taken as left products base*result;
        # the oracle takes it by repeated squaring
        rng = random.Random(5000 + 10 * config.m + config.v + bool(names))
        field = field_atoms(config)
        ring = polynomial_atoms(config) if names else operator_atoms(config)
        args = (config,) if names is None else (config, names)
        parse = parse_orepoly if names is None else parse_diffpoly
        for _ in range(60):
            in_ring = rng.random() < 0.7
            atoms = field + ring if in_ring else field
            base = " + ".join("*".join(rng.choice(atoms)
                                       for _ in range(rng.randint(1, 2)))
                              for _ in range(rng.randint(2, 4)))
            k = rng.randint(0, 8) if in_ring else rng.randint(-3, 8)
            text = f"({base})^{k}"
            assert outcome(parse, text, *args) == \
                outcome(parse_lifted, text, *args), text

    def test_left_and_right_field_factors(self):
        d, t = delta(CFG1, 0), field_var(1, 0)
        assert parse_orepoly("d*t", CFG1) == t * d + 1
        assert parse_orepoly("t*d", CFG1) == OrePoly(CFG1, {(1,): t})
        assert parse_orepoly("t^-2*d", CFG1) == \
            OrePoly(CFG1, {(1,): 1 / (t * t)})

    def test_division_is_right_multiplication(self):
        op = parse_orepoly("d^2 + t*d", CFG1)
        divisor = parse_ratfun("t^2 + 1", CFG1)
        assert parse_orepoly("(d^2 + t*d)/(t^2 + 1)", CFG1) == op / divisor
        assert parse_orepoly("d/t", CFG1) != \
            OrePoly(CFG1, {(1,): 1 / field_var(1, 0)})


class TestRefusedInput:
    @pytest.mark.parametrize("text, message", [
        ("1/d", "line 1, column 2: can only divide by a base-field element"),
        ("d^-1", "line 1, column 2: negative power of an expression "
                 "outside the base field"),
    ])
    def test_operator_errors_carry_a_position(self, text, message):
        with pytest.raises(ParseError) as caught:
            parse_orepoly(text, CFG1)
        assert str(caught.value) == message

    @pytest.mark.parametrize("text, message", [
        ("d*", "line 1: unexpected end of expression"),
        ("(d + t", "line 1: unexpected end of expression"),
        ("d*)", "line 1, column 3: unexpected token ')'"),
        ("--^2", "line 1, column 3: unexpected token '^'"),
        ("(d + t]", "line 1, column 7: expected ')', found ']'"),
        ("d^t", "line 1, column 3: expected 'num', found 't'"),
        ("d^--(2)", "line 1, column 5: expected 'num', found '('"),
    ])
    def test_factor_errors_carry_a_position(self, text, message):
        with pytest.raises(ParseError) as caught:
            parse_orepoly(text, CFG1)
        assert str(caught.value) == message

    def test_mixed_suffix_error_carries_a_position(self):
        with pytest.raises(ParseError) as caught:
            parse_diffpoly("y' + y_(1)'", CFG1, NAMES)
        assert str(caught.value) == \
            "line 1, column 6: mixed prime and multi-index suffix"

    # The four tests below keep the inputs of the power and product caps
    # that the work budget replaced: each is refused at its operator or
    # parsed to the oracle's value, in under a second.

    def test_written_out_field_products_share_the_power_term_cap(self):
        cfg = DiffFieldConfig(3, 3)
        # written-out factors are charged as the power's left products are
        for count in (69, 70):
            power = parsed(parse_ratfun, f"(t1 + t2 + 1)^{count}", cfg)
            text = "*".join(["(t1 + t2 + 1)"] * count)
            assert parsed(parse_ratfun, text, cfg) == power
            assert parsed(parse_orepoly, text + "*d1", cfg) == \
                parse_orepoly(f"(t1 + t2 + 1)^{count}*d1", cfg)
        # the same product as a quotient, and one built outside the data
        for text, value in [("1" + "/(t1 + t2 + 1)" * 70, 1 / power),
                            ("(t1 + t2 + 1)/t3" + "*(t1 + t2 + 1)" * 69,
                             power / parse_ratfun("t3", cfg))]:
            assert parsed(parse_ratfun, text, cfg) == value
        # a factor of one term adds no terms
        many = " + ".join(f"t1^{k}" for k in range(5000))
        assert len(parsed(parse_ratfun, f"2*t2*({many})*3",
                          cfg).num.terms) == 5000
        # 100 factors, as the power ^100, pass the budget: at the 97th '*'
        text = "*".join(["(t1 + t2 + 1)"] * 100)
        column = [i for i, c in enumerate(text) if c == "*"][96] + 1
        assert over_budget(parse_ratfun, text, cfg).startswith(
            f"line 1, column {column}:")
        assert over_budget(parse_ratfun, "(t1 + t2 + 1)^100", cfg) \
            .startswith("line 1, column 14:")

    def test_power_cap_counts_the_order(self):
        for text in ("(t*d)^100", "(t*d)^101", "(t*d^2)^51", "(2*d)^1000",
                     "(d + 1)^100", "(d + 1)^101"):
            assert parsed(parse_orepoly, text, CFG1) == \
                parse_lifted(text, CFG1), text
        for text in ("(t*d)^3000", "(t*d^2)^1500", "(d + 1)^3000"):
            assert over_budget(parse_orepoly, text, CFG1).startswith(
                f"line 1, column {text.rindex('^') + 1}:")

    def test_power_coefficient_cap_counts_order_times_degree(self):
        for text in ("((t^2 + 1)/(t - 1)*d + t)^10",
                     "((t^2 + 1)/(t - 1)*d + t)^11", "(1/(t^3 - 1)*d)^7",
                     "((t^21 + 1)*d)^1", "((t + 1)*d)^21",
                     "((t^2 + 1)*d + t^3 + t)^7", "((t^2 + 1)/t*d + 1)^21",
                     "((t^2 + 1)/(t - 1)*d^21)^1"):
            assert parsed(parse_orepoly, text, CFG1) == \
                parse_lifted(text, CFG1), text
        # 1.4 s of CPU before the budget
        text = "(t^5/t^2*d + t)^100"
        assert over_budget(parse_orepoly, text, CFG1).startswith(
            f"line 1, column {text.rindex('^') + 1}:")

    def test_field_power_term_cap_counts_the_variables_held(self):
        cfg = DiffFieldConfig(3, 3)
        # C(k + 2, 2) terms: 2,485 at ^69 and 2,556 at ^70
        for k, terms in [(69, 2485), (70, 2556)]:
            p = parsed(parse_ratfun, f"(t1 + t2 + 1)^{k}", cfg)
            assert len(p.num.terms) == terms
        # a base in one variable has |k| + 1 terms, as a binomial has
        assert len(parsed(parse_ratfun, "(t3 + 1)^500",
                          cfg).num.terms) == 501
        assert len(parsed(parse_ratfun, "(t2*t3 + 1)^250",
                          cfg).num.terms) == 251
        assert parsed(parse_ratfun, "((t1 + t3)/t2)^-70", cfg).den.terms \
            == parse_ratfun("(t1 + t3)^70", cfg).num.terms


class TestIntegerData:
    """Literals, field variables and derivations stay integer data: the
    ring value is built once, at the end."""

    STAIR29 = (
        "field: Q derivations: 3\nmodule: 2\ngens: [(1)*d2*d3^5, 0]; "
        "[(1)*d1*d2^5, 0]; [(1)*d1^3*d3^3, 0]; [(1)*d1^3*d2^2*d3, 0]; "
        "[(1)*d1^4*d2^2, 0]; [(1)*d1^6, 0]; [0, (1)*d2^2*d3^4]; "
        "[0, (1)*d1*d2^4*d3]; [0, (1)*d1^2*d2^2*d3^2]; [0, (1)*d1^3*d3^3]; "
        "[0, (1)*d1^3*d2*d3^2]; [0, (1)*d1^6]\n")

    def test_operator_text_makes_no_ring_products(self, monkeypatch):
        ore_muls = count_calls(monkeypatch, diffalg.ore, "ore_mul")
        products = [count_calls(monkeypatch, RatFun, name)
                    for name in ("__mul__", "__rmul__")]
        pf = parse_input(self.STAIR29)
        assert len(pf.gens) == 12
        assert ore_muls == [] and products == [[], []]
        # the counters do count: the commutation rule needs the ring
        parse_orepoly("d*t", CFG1)
        assert len(ore_muls) == 1 and any(products)


class TestSymbolTable:
    @pytest.mark.parametrize("config, name", [
        (CFG1, "t"), (CFG1, "t1"), (CFG22, "t1"), (CFG22, "t2")])
    def test_field_variables(self, config, name):
        i = 0 if name in ("t", "t1") else 1
        assert parse_ratfun(name, config) == field_var(config.v, i)

    @pytest.mark.parametrize("config, name", [
        (CFG1, "d"), (CFG1, "d1"), (CFG22, "d1"), (CFG22, "d2")])
    def test_derivations(self, config, name):
        i = 0 if name in ("d", "d1") else 1
        assert parse_orepoly(name, config) == delta(config, i)

    @pytest.mark.parametrize("config, name", [
        (CFG22, "t"), (CFG22, "d"), (CFG2, "t2"), (CFG22, "t3"),
        (CFG22, "t0"), (CFG22, "d3"), (CFG22, "t01"), (CFG22, "d01"),
        (CFG1, "t01"), (CFG1, "d01"), (CFG1, "t2"), (CFG20, "t"),
        (CFG20, "t1"), (CFG22, "t¹"), (CFG22, "d²"),
        (CFG22, "t١")])
    def test_other_spellings_are_unknown(self, config, name):
        with pytest.raises(ParseError) as caught:
            parse_orepoly(name, config)
        assert str(caught.value) == \
            f"line 1, column 1: unknown symbol {name!r}"

    def test_field_variable_is_not_an_operator_in_the_base_field(self):
        with pytest.raises(ParseError, match="unknown field variable 'd'"):
            parse_ratfun("d", CFG1)


class TestNumerals:
    @pytest.mark.parametrize("text, column, char", [
        ("d^²", 3, "²"), ("²*d", 1, "²"),
        ("2٣", 2, "٣")])
    def test_digits_are_ascii(self, text, column, char):
        with pytest.raises(ParseError) as caught:
            parse_orepoly(text, CFG1)
        assert str(caught.value) == \
            f"line 1, column {column}: unexpected character {char!r}"

    @pytest.mark.parametrize("text", ["d + {}", "d^{}", "t^{}*d"])
    def test_numeral_past_the_conversion_limit(self, text):
        big = "7" * (sys.get_int_max_str_digits() + 1)
        column = text.index("{") + 1
        with pytest.raises(ParseError) as caught:
            parse_orepoly(text.format(big), CFG1)
        assert str(caught.value) == (
            f"line 1, column {column}: numeral of {len(big)} digits; the "
            f"limit is {sys.get_int_max_str_digits()} digits")

    def test_numeral_at_the_conversion_limit(self):
        big = "7" * sys.get_int_max_str_digits()
        assert parse_ratfun(big, CFG1) == RatFun.from_const(1, int(big))


class TestPrinters:
    """The exact text the printers give, quirks included."""

    @pytest.mark.parametrize("text, printed", [
        ("d + 1 - t", "d + -t + 1"),
        ("-(t^2+1)/(t-1)*d^2 + t", "((-t^2 - 1)/(t - 1))*d^2 + t"),
        ("-d^2 - 2*d - 1/t", "-d^2 - 2*d - 1/t"),
        ("-1/t*d + 1/(t+1)", "-(1/t)*d + 1/(t + 1)"),
        ("(2*t+1)*d - 3/(4*t^2+2)",
         "(2*t + 1)*d + -3/4/(t^2 + 1/2)"),
        ("-3/2*t^2*d - 1/(t^2)", "-(3/2*t^2)*d - 1/(t^2)"),
        ("0", "0")])
    def test_operators(self, text, printed):
        assert orepoly_str(parse_orepoly(text, CFG1), CFG1) == printed

    def test_partial_operator(self):
        op = parse_orepoly("-t1/t2*d1*d2^2 - d2 + 1/(t1*t2)", CFG22)
        assert orepoly_str(op, CFG22) == \
            "-(t1/t2)*d1*d2^2 - d2 + 1/(t1*t2)"

    def test_module_elements(self):
        t = field_var(1, 0)
        one = RatFun.from_const(1, 1)
        w = ModElement(CFG1, 2, {(0, (2,)): -one, (1, (1,)): -2 * one,
                                 (0, (0,)): -1 / t, (1, (0,)): 1 / (t + 1) - 1})
        assert modelement_str(w, CFG1, ["y", "z"]) == \
            "-dy'' - 2*dz' + (-t/(t + 1))*dz - 1/t*dy"
        w = ModElement(CFG2, 2, {(0, (1, 1)): -one, (1, (0, 2)): -2 * one,
                                 (0, (0, 0)): -1 / t})
        assert modelement_str(w, CFG2, ["y", "z"]) == \
            "-2*dz_(0,2) - dy_(1,1) - 1/t*dy"
        assert modelement_str(ModElement.zero(CFG1, 2), CFG1, ["y", "z"]) \
            == "0"

    @pytest.mark.parametrize("coeffs, printed", [
        ((1, -1, -1), "-1/2*t^2 - 5/2*t - 1"),
        ((0, -3, 1), "1/2*t^2 - 3/2*t - 2"),
        ((-2, 0, -1, 1), "1/6*t^3 + 1/2*t^2 + 1/3*t - 2"),
        ((5, -7), "-7*t - 2"), ((-1, 1), "t"), ((0, -1), "-t - 1"),
        ((), "0")])
    def test_numerical_polynomials(self, coeffs, printed):
        assert str(NumericalPolynomial(coeffs)) == printed

    @pytest.mark.parametrize("v", [0, 1, 2, 3])
    def test_integer_printer_against_fractions(self, v):
        # seeded quotients with signed, non-monic numerators and
        # denominators, printed as the Fraction printer printed them
        rng = random.Random(80 + v)
        config = DiffFieldConfig(max(v, 1), v)

        def poly(terms, top):
            return MPoly(v, {tuple(rng.randint(0, top) for _ in range(v)):
                             rng.choice((-1, 1)) * rng.randint(1, 12)
                             for _ in range(terms)})

        for _ in range(1000):
            num = poly(rng.randint(0, 4), 3)
            den = poly(rng.randint(1, 3), 2) or MPoly.const(v, -6)
            r = RatFun(num, den)
            assert ratfun_str(r, config) == fraction_ratfun_str(r, config)
            # a negative scale, which no canonical denominator has
            scale = -rng.randint(1, 30)
            assert poly_str(num.terms, field_var_names(config), scale) == \
                fraction_ratfun_str(_ratfun(num, MPoly.const(v, scale)),
                                    config)

    def test_numerical_polynomials_against_fractions(self):
        rng = random.Random(84)
        for _ in range(1000):
            phi = NumericalPolynomial(tuple(
                rng.randint(-60, 60) for _ in range(rng.randint(0, 5))))
            assert str(phi) == fraction_numpoly_str(phi)

    @pytest.mark.parametrize("exps, label", [
        ((0,), "y"), ((2,), "y''"), ((0, 0), "y"), ((1, 2), "y_(1,2)"),
        ((0, 0, 3), "y_(0,0,3)"), ((), "y")])
    def test_term_labels(self, exps, label):
        assert term_label("y", exps) == label
