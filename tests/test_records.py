"""Value semantics of the record classes: constructors and defaults,
equality and hashing, repr text, and refused assignment."""

import copy
import pickle

import pytest

from diffalg import (Antichain, CharSet, Diagonalization, DiffFieldConfig,
                     DimensionReport, NumericalPolynomial, OreMatrix,
                     OrePoly, Ranking, TangentClass, ZERO_TYPE,
                     characteristic_set, diagonalize, dimension_report)
from diffalg.parsing import ProblemFile, parse_input

MODULE = """\
field: Q(t)
module: 2
gens: [1, t*d - 1]
"""


def charset_and_report():
    problem = parse_input(MODULE)
    charset = characteristic_set(problem.gens, problem.ranking(),
                                 config=problem.config, n=problem.n)
    return charset, dimension_report(charset)


def diagonalization():
    cfg = DiffFieldConfig(1, 1)
    return diagonalize(OreMatrix(cfg, [[OrePoly.delta(cfg, 0)]]))


FIELDS = {
    "DiffFieldConfig": ("num_derivations", "num_vars"),
    "Ranking": ("kind", "component_order"),
    "NumericalPolynomial": ("coeffs", "valid_from"),
    "Antichain": ("m", "components"),
    "TangentClass": ("d", "k", "torsion_degrees"),
    "CharSet": ("elements", "ranking", "generators", "config", "n"),
    "DimensionReport": ("dimpoly", "diff_dimension", "type", "typical_height",
                        "free_components", "below_leader_count",
                        "antichain"),
    "Diagonalization": ("U", "D", "V", "U_inv", "V_inv"),
}


def equal_pairs_and_other():
    """(a, b, c) per frozen record: a == b built apart, c different."""
    cs1, report1 = charset_and_report()
    cs2, report2 = charset_and_report()
    wider = CharSet(cs1.elements, cs1.ranking, cs1.generators, cs1.config,
                    cs1.n + 1)
    rk = Ranking("orderly", (1, 0))
    res = diagonalization()
    parts = (res.U, res.D, res.V, res.U_inv, res.V_inv)
    return {
        "DiffFieldConfig": (DiffFieldConfig(2, 1),
                            DiffFieldConfig(num_derivations=2, num_vars=1),
                            DiffFieldConfig(2, 2)),
        "Ranking": (rk, Ranking(kind="orderly", component_order=(1, 0)),
                    Ranking("elimination", (1, 0))),
        "NumericalPolynomial": (NumericalPolynomial((1, 2, 0)),
                                NumericalPolynomial((1, 2), valid_from=0),
                                NumericalPolynomial((1, 2), 1)),
        "Antichain": (Antichain(2, ([(1, 0), (0, 1)],)),
                      Antichain(2, (frozenset({(0, 1), (1, 0)}),)),
                      Antichain(2, ([(1, 0)],))),
        "TangentClass": (TangentClass(1, 1, (1,)),
                         TangentClass(d=1, k=1, torsion_degrees=(1,)),
                         TangentClass(1, 2, (2,))),
        "CharSet": (cs1, cs2, wider),
        "DimensionReport": (report1, report2, dimension_report(wider)),
        "Diagonalization": (Diagonalization(*parts),
                            Diagonalization(*parts),
                            Diagonalization(res.U, OreMatrix.zero(
                                res.D.config, 1, 1), *parts[2:])),
    }


class TestEqualityAndHash:
    @pytest.mark.parametrize("name", list(FIELDS))
    def test_equal_when_built_apart(self, name):
        a, b, c = equal_pairs_and_other()[name]
        assert type(a).__name__ == name
        assert a is not b
        assert a == b and not a != b
        assert a != c and not a == c
        if name == "Diagonalization":      # an OreMatrix is unhashable
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert {a: 1}[b] == 1 and len({a, b, c}) == 2
        fields = tuple(getattr(a, f) for f in FIELDS[name])
        assert a != fields and a.__eq__(fields) is NotImplemented

    def test_configs_as_dict_keys(self):
        table = {DiffFieldConfig(1, 1): "ode", DiffFieldConfig(2, 0): "pde"}
        assert table[DiffFieldConfig(num_derivations=1, num_vars=1)] == "ode"
        assert table[DiffFieldConfig(2, 0)] == "pde"
        assert DiffFieldConfig(2, 1) not in table
        assert hash(DiffFieldConfig(2, 0)) == hash((2, 0))

    def test_config_comparisons(self):
        a = DiffFieldConfig(2, 1)
        assert a == a and not a != a
        for other in (DiffFieldConfig(1, 1), DiffFieldConfig(2, 0)):
            assert a != other and not a == other
        assert a != (2, 1) and a != None  # noqa: E711

    def test_ranking_ignores_its_position_table(self):
        rk = Ranking("elimination", (2, 0, 1))
        assert [rk.position(c) for c in range(3)] == [1, 2, 0]
        assert repr(rk) == ("Ranking(kind='elimination', "
                            "component_order=(2, 0, 1))")
        assert hash(rk) == hash(("elimination", (2, 0, 1)))

    def test_mutable_records_are_unhashable(self):
        problem = ProblemFile(DiffFieldConfig(1, 1))
        assert problem == ProblemFile(config=DiffFieldConfig(1, 1))
        assert problem != ProblemFile(DiffFieldConfig(1, 1), ["y"])
        read = parse_input(MODULE)
        assert read == parse_input(MODULE)
        assert read != parse_input(MODULE.replace("t*d", "d"))
        for value in (problem, read):
            with pytest.raises(TypeError):
                hash(value)


class TestCopyAndPickle:
    @pytest.mark.parametrize("name", list(FIELDS))
    def test_frozen_records(self, name):
        value = equal_pairs_and_other()[name][0]
        for clone in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
            assert type(clone) is type(value) and repr(clone) == repr(value)
            assert clone == value

    def test_mutable_records(self):
        problem = parse_input(MODULE)
        for value in (ProblemFile(DiffFieldConfig(2, 0), ["y"]), problem):
            for clone in (copy.copy(value), copy.deepcopy(value),
                          pickle.loads(pickle.dumps(value))):
                assert repr(clone) == repr(value)
        assert copy.deepcopy(problem).ranking() == problem.ranking()


class TestRepr:
    @pytest.mark.parametrize("value, text", [
        (TangentClass(1, 1, (1,)),
         "TangentClass(d=1, k=1, torsion_degrees=(1,))"),
        (DiffFieldConfig(2, 1),
         "DiffFieldConfig(num_derivations=2, num_vars=1)"),
        (Ranking("orderly", (1, 0)),
         "Ranking(kind='orderly', component_order=(1, 0))"),
        (NumericalPolynomial((1, 2, 0)),
         "NumericalPolynomial(coeffs=(1, 2), valid_from=0)"),
        (Antichain(1, ([(2,)],)),
         "Antichain(m=1, components=(frozenset({(2,)}),))"),
        (ProblemFile(DiffFieldConfig(2, 0), ["y"],
                     ranking_kind="elimination"),
         "ProblemFile(config=DiffFieldConfig(num_derivations=2, num_vars=0), "
         "var_names=['y'], point=None, eqs=None, module_rank=None, "
         "gens=None, ranking_kind='elimination', leaders=None, "
         "element=None)"),
        (DimensionReport(NumericalPolynomial(()), 0, ZERO_TYPE, 0, (), None,
                         Antichain(1, ())),
         "DimensionReport(dimpoly=NumericalPolynomial(coeffs=(), "
         "valid_from=0), diff_dimension=0, type=-inf, typical_height=0, "
         "free_components=(), below_leader_count=None, "
         "antichain=Antichain(m=1, components=()))"),
        (ProblemFile(DiffFieldConfig(1, 1)),
         "ProblemFile(config=DiffFieldConfig(num_derivations=1, num_vars=1), "
         "var_names=[], point=None, eqs=None, module_rank=None, gens=None, "
         "ranking_kind='orderly', leaders=None, element=None)"),
    ], ids=lambda v: v if isinstance(v, str) and len(v) < 30 else None)
    def test_text(self, value, text):
        assert repr(value) == text

    def test_nested_records(self):
        res = diagonalization()
        assert repr(res) == ("Diagonalization(U=OreMatrix(1x1), "
                             "D=OreMatrix(1x1), V=OreMatrix(1x1), "
                             "U_inv=OreMatrix(1x1), V_inv=OreMatrix(1x1))")
        charset, _ = charset_and_report()
        assert repr(charset).startswith(
            "CharSet(elements=(ModElement(")
        assert f"ranking={charset.ranking!r}, generators=(ModElement(" \
            in repr(charset)
        assert repr(charset).endswith(
            f"config={charset.config!r}, n=2)")


class TestDefaults:
    def test_numerical_polynomial(self):
        assert NumericalPolynomial((3,)).valid_from == 0
        assert NumericalPolynomial((3, 0.0)).coeffs == (3,)
        with pytest.raises(ValueError):
            NumericalPolynomial((0.5,))

    def test_problem_file(self):
        cfg = DiffFieldConfig(1, 1)
        first, second = ProblemFile(cfg), ProblemFile(config=cfg)
        assert (first.var_names, first.point, first.eqs, first.module_rank,
                first.gens, first.ranking_kind, first.leaders,
                first.element) == ([], None, None, None, None, "orderly",
                                   None, None)
        first.var_names.append("y")
        assert second.var_names == [] and ProblemFile(cfg).var_names == []
        names = ["z"]
        assert ProblemFile(cfg, names).var_names is names
        first.ranking_kind = "elimination"
        assert first.ranking() == Ranking("elimination", (0,))

    def test_post_init_checks_kept(self):
        for args in [(0, 0), (1, 2), (1, -1)]:
            with pytest.raises(ValueError):
                DiffFieldConfig(*args)
        with pytest.raises(ValueError, match="unknown ranking kind"):
            Ranking("lex", (0,))
        with pytest.raises(ValueError, match="permutation"):
            Ranking("orderly", (0, 2))


class TestFrozen:
    @pytest.mark.parametrize("name", list(FIELDS))
    def test_assignment_raises(self, name):
        value = equal_pairs_and_other()[name][0]
        for field in FIELDS[name]:
            before = getattr(value, field)
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(value, field, None)
            with pytest.raises(AttributeError, match="cannot delete"):
                delattr(value, field)
            assert getattr(value, field) is before
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_ranking_position_table_is_frozen(self):
        rk = Ranking("orderly", (1, 0))
        with pytest.raises(AttributeError):
            rk._position = {}
        assert rk.position(1) == 0
