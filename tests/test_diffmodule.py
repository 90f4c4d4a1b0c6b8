"""Module layer: rankings, reduction, autoreduced and characteristic sets."""

import random

import pytest

from diffalg import (CharSet, ConfigMismatch, DiffFieldConfig, ModElement,
                     OrePoly, Ranking, RatFun, ZeroElement, autoreduce,
                     characteristic_set, leader, monic, orderly_ranking,
                     reduce)
from diffalg import diffmodule
from diffalg.diffmodule import _verify_complete
from diffalg.ore import TermMap, _left_mul
from diffalg.parsing import parse_input
from helpers import (autoreduce_oracle, compare_autoreduced,
                     completion_oracle, eval_point, from_operator_vector,
                     in_span_truncated, rand_modelement, rand_orepoly,
                     reduce_oracle)

CFG1 = DiffFieldConfig(1, 1)
T = RatFun.var(1, 0)


def elem(n, terms):
    return ModElement(CFG1, n, terms)


class TestRanking:
    def test_orderly_order_dominates(self):
        rk = orderly_ranking(2)
        w = elem(2, {(1, (1,)): T, (0, (0,)): 1})
        assert leader(w, rk) == (1, (1,))

    def test_orderly_component_tiebreak(self):
        rk = orderly_ranking(2)
        w = elem(2, {(0, (0,)): 1, (1, (0,)): 1})
        assert leader(w, rk) == (1, (0,))

    def test_elimination_component_dominates(self):
        rk = Ranking("elimination", (0, 1))
        w = elem(2, {(0, (3,)): 1, (1, (0,)): 1})
        assert leader(w, rk) == (1, (0,))

    def test_zero_has_no_leader(self):
        with pytest.raises(ZeroElement):
            leader(ModElement.zero(CFG1, 1), orderly_ranking(1))

    def test_ranking_axioms_sampled(self):
        cfg = DiffFieldConfig(2, 1)
        rng = random.Random(31)
        for rk in (Ranking("orderly", (1, 0, 2)),
                   Ranking("elimination", (2, 0, 1))):
            for _ in range(200):
                u = (rng.randrange(3), (rng.randint(0, 3), rng.randint(0, 3)))
                v = (rng.randrange(3), (rng.randint(0, 3), rng.randint(0, 3)))
                theta = (rng.randint(0, 2), rng.randint(0, 2))
                tu = (u[0], tuple(a + b for a, b in zip(u[1], theta)))
                tv = (v[0], tuple(a + b for a, b in zip(v[1], theta)))
                assert rk.compare(u, tu) <= 0
                if rk.compare(u, v) <= 0:
                    assert rk.compare(tu, tv) <= 0


class TestReduce:
    def test_derivative_of_leader_cancelled(self):
        rk = orderly_ranking(2)
        w = elem(2, {(0, (2,)): 1, (0, (0,)): 1})
        g = elem(2, {(0, (1,)): 1, (1, (0,)): -1})
        nf = reduce(w, [g], rk)
        assert nf == elem(2, {(1, (1,)): 1, (0, (0,)): 1})

    def test_member_of_basis_reduces_to_zero(self):
        rk = orderly_ranking(2)
        g = elem(2, {(0, (1,)): T, (1, (0,)): 1})
        assert reduce(g, [g], rk).is_zero()

    def test_lower_term_untouched(self):
        rk = orderly_ranking(2)
        w = elem(2, {(1, (0,)): 1})
        g = elem(2, {(1, (1,)): 1})
        assert reduce(w, [g], rk) == w

    def test_difference_lies_in_the_span_random(self):
        # w - nf is checked by padded linear algebra, not by the reduction
        rng = random.Random(32)
        rk = orderly_ranking(2)
        for _ in range(25):
            w = rand_modelement(rng, CFG1, 2)
            A = [rand_modelement(rng, CFG1, 2, nonzero=True)
                 for _ in range(rng.randint(1, 2))]
            assert in_span_truncated(w - reduce(w, A, rk), A, CFG1)

    def test_idempotence_random(self):
        rng = random.Random(33)
        rk = orderly_ranking(2)
        for _ in range(25):
            w = rand_modelement(rng, CFG1, 2)
            A = [rand_modelement(rng, CFG1, 2, nonzero=True)
                 for _ in range(2)]
            nf = reduce(w, A, rk)
            assert reduce(nf, A, rk) == nf

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_generic_step_oracle(self, m):
        # A is neither monic nor autoreduced, so each step divides by the
        # shifted leading coefficient; the oracle computes the cancelled
        # term in full
        rng = random.Random(40 + m)
        for v in range(min(m, 2) + 1):
            cfg = DiffFieldConfig(m, v)
            for _ in range(8):
                n = rng.randint(1, 2)
                A = [rand_modelement(rng, cfg, n, max_ord=2, nonzero=True)
                     for _ in range(rng.randint(1, 3))]
                w = rand_modelement(rng, cfg, n, max_ord=3, max_terms=4)
                for kind in ("orderly", "elimination"):
                    rk = Ranking(kind, tuple(range(n)))
                    assert reduce(w, A, rk) == reduce_oracle(w, A, rk)

    def test_operands_over_different_rings(self):
        w = ModElement.basis(CFG1, 2, 0, (2,))
        with pytest.raises(ConfigMismatch):
            reduce(w, [ModElement.basis(CFG1, 3, 0, (1,))], orderly_ranking(2))

    def test_monic_basis_reduction_divides_by_nothing(self, monkeypatch):
        # a shift of a monic element is monic at the shifted leader, so
        # no step takes an inverse or a quotient
        cfg = DiffFieldConfig(2, 2)
        rng = random.Random(44)
        rk = orderly_ranking(2)
        gens = [rand_modelement(rng, cfg, 2, max_ord=1, nonzero=True)
                for _ in range(2)]
        basis = list(characteristic_set(gens, rk).elements)
        ws = [rand_modelement(rng, cfg, 2, max_ord=3, max_terms=4)
              for _ in range(6)]
        expected = [reduce_oracle(w, basis, rk) for w in ws]
        calls = []

        def counted(*args):
            calls.append(args)
            raise AssertionError("reduction by a monic basis divided")

        monkeypatch.setattr(RatFun, "inverse", counted)
        monkeypatch.setattr(RatFun, "__truediv__", counted)
        assert [reduce(w, basis, rk) for w in ws] == expected
        assert not calls and expected != ws


    def test_one_shift_chain_per_element(self, monkeypatch):
        # each step shifts the reducer t*d + 1 from the shifts already
        # made in this reduction, so delta is applied once per order
        calls = []
        original = ModElement.apply_delta

        def counted(self, i):
            calls.append(i)
            return original(self, i)

        w = elem(1, {(0, (120,)): 1})
        f = elem(1, {(0, (1,)): T, (0, (0,)): 1})
        expected = reduce_oracle(w, [f], orderly_ranking(1))
        monkeypatch.setattr(ModElement, "apply_delta", counted)
        assert reduce(w, [f], orderly_ranking(1)) == expected
        assert len(calls) <= 120


class TestAutoreduce:
    def test_derivative_eliminated(self):
        rk = orderly_ranking(2)
        g1 = elem(2, {(0, (1,)): 1, (1, (0,)): -1})
        g2 = elem(2, {(0, (2,)): 1})
        out = autoreduce([g1, g2], rk)
        assert set(out) == {g1, elem(2, {(1, (1,)): 1})}

    def test_singleton(self):
        rk = orderly_ranking(1)
        g = elem(1, {(0, (0,)): 1})
        assert autoreduce([g], rk) == (g,)

    def test_monic_deduplication(self):
        rk = orderly_ranking(1)
        out = autoreduce([elem(1, {(0, (0,)): 2}),
                          elem(1, {(0, (0,)): 3})], rk)
        assert out == (elem(1, {(0, (0,)): 1}),)


    def test_matches_generic_step_oracle(self):
        rng = random.Random(45)
        for _ in range(20):
            m = rng.randint(1, 3)
            cfg = DiffFieldConfig(m, rng.randint(0, min(m, 2)))
            n = rng.randint(1, 2)
            S = [rand_modelement(rng, cfg, n, max_ord=2, coeff_deg=1)
                 for _ in range(rng.randint(1, 4))]
            for kind in ("orderly", "elimination"):
                rk = Ranking(kind, tuple(range(n)))
                assert autoreduce(S, rk) == autoreduce_oracle(S, rk)


class TestCompare:
    def test_lower_by_first_leader(self):
        rk = orderly_ranking(1)
        A = autoreduce([elem(1, {(0, (0,)): 1})], rk)
        B = autoreduce([elem(1, {(0, (1,)): 1})], rk)
        assert compare_autoreduced(A, B, rk) == "lower"
        assert compare_autoreduced(B, A, rk) == "higher"

    def test_longer_set_with_matching_prefix_is_lower(self):
        rk = orderly_ranking(2)
        A = autoreduce([elem(2, {(0, (0,)): 1}),
                        elem(2, {(1, (1,)): 1})], rk)
        B = autoreduce([elem(2, {(0, (0,)): 1})], rk)
        assert compare_autoreduced(A, B, rk) == "lower"

    def test_equal_ranks(self):
        rk = orderly_ranking(2)
        A = autoreduce([elem(2, {(1, (0,)): 1})], rk)
        B = autoreduce([elem(2, {(1, (0,)): 1, (0, (0,)): T})], rk)
        assert compare_autoreduced(A, B, rk) == "equal"


class TestCharacteristicSet:
    def test_tangent_relation_made_monic(self):
        # components: 0 = z, 1 = y
        rk = orderly_ranking(2)
        g = elem(2, {(1, (1,)): T, (0, (0,)): 1, (1, (0,)): -1})
        cs = characteristic_set([g], rk)
        expected = elem(2, {(1, (1,)): 1, (0, (0,)): 1 / T, (1, (0,)): -1 / T})
        assert cs.elements == (expected,)

    def test_unit_combination_collapses(self):
        rk = orderly_ranking(1)
        d = OrePoly.delta(CFG1, 0)
        g1 = from_operator_vector([d - 1])
        g2 = from_operator_vector([d + 1])
        cs = characteristic_set([g1, g2], rk)
        assert cs.elements == (elem(1, {(0, (0,)): 1}),)

    def test_empty_generators(self):
        cs = characteristic_set([], orderly_ranking(2), config=CFG1, n=2)
        assert isinstance(cs, CharSet) and len(cs.elements) == 0 and cs.n == 2

    def test_rank_not_above_plain_autoreduction(self):
        rng = random.Random(34)
        rk = orderly_ranking(2)
        for _ in range(15):
            gens = [rand_modelement(rng, CFG1, 2, max_ord=2, nonzero=True)
                    for _ in range(rng.randint(1, 3))]
            cs = characteristic_set(gens, rk)
            plain = autoreduce(gens, rk)
            if len(cs.elements) == 0:
                continue
            assert compare_autoreduced(cs.elements, plain, rk) in ("lower",
                                                                   "equal")

    def test_partial_derivations(self):
        cfg = DiffFieldConfig(2, 2)
        rk = orderly_ranking(1)
        d1 = OrePoly.delta(cfg, 0)
        d2 = OrePoly.delta(cfg, 1)
        # [d1*e1, d2*e1]: S-pair closes with d1d2*e1 already covered
        gens = [from_operator_vector([d1]), from_operator_vector([d2])]
        cs = characteristic_set(gens, rk)
        assert {leader(f, rk) for f in cs.elements} == {(0, (1, 0)),
                                                        (0, (0, 1))}

    def test_matches_criterion_free_completion(self):
        # the chain criterion skips pairs and the final interreduction is
        # one pass; the reduced basis is unique, so the elements must be
        # exactly those of the completion that reduces every S-pair
        rng = random.Random(37)
        for _ in range(150):
            m, v, n = rng.choice((2, 3)), rng.randint(0, 2), rng.randint(1, 2)
            cfg = DiffFieldConfig(m, v)
            gens = [rand_modelement(rng, cfg, n, max_ord=2, nonzero=True,
                                    frac_prob=0.1, coeff_deg=1)
                    for _ in range(rng.randint(1, 3))]
            order = tuple(rng.sample(range(n), n))
            for kind in ("orderly", "elimination"):
                rk = Ranking(kind, order)
                assert characteristic_set(gens, rk).elements == \
                    completion_oracle(gens, rk)

    def test_matches_generic_step_completion_for_every_m(self):
        # non-monic generators over m = 1..3; the oracle's completion makes
        # every element monic and reduces by the generic step
        rng = random.Random(38)
        for _ in range(30):
            m = rng.randint(1, 3)
            cfg = DiffFieldConfig(m, rng.randint(0, min(m, 2)))
            n = rng.randint(1, 2)
            gens = [rand_modelement(rng, cfg, n, max_ord=2, nonzero=True,
                                    frac_prob=0.2, coeff_deg=1)
                    for _ in range(rng.randint(1, 3))]
            for kind in ("orderly", "elimination"):
                rk = Ranking(kind, tuple(range(n)))
                assert characteristic_set(gens, rk).elements == \
                    completion_oracle(gens, rk)

    @pytest.mark.parametrize("case", ["duplicate", "scalar multiple",
                                      "zero mixed in", "equal leaders",
                                      "leader divides leader"])
    def test_non_autoreduced_generators(self, monkeypatch, case):
        # the completion starts from the raw generators, made monic, and
        # leaves their interreduction to the S-pairs and the one final
        # pass; autoreduce must not run
        d = OrePoly.delta(CFG1, 0)
        t = OrePoly.from_scalar(CFG1, T)
        zero, one = OrePoly.zero(CFG1), OrePoly.one(CFG1)

        def vec(*ops):
            return from_operator_vector(list(ops))

        g = vec(t * d + one, d ** 2 - t)
        gens = {
            "duplicate": [g, g, vec(d, one)],
            "scalar multiple": [g, g.scale_left(T + 3), vec(one, d + t)],
            "zero mixed in": [vec(zero, zero), g, vec(zero, zero), vec(d, one)],
            # e2' leads both under either ranking
            "equal leaders": [vec(one, d + t), vec(t, d - 1)],
            # (d - 1) is the right gcd, reached only by the S-pairs
            "leader divides leader": [vec((d ** 2 + t) * (d - 1), zero),
                                      vec((d + 1) * (d - 1), zero)],
        }[case]
        expected = {rk: completion_oracle(gens, rk)
                    for rk in (orderly_ranking(2),
                               Ranking("elimination", (0, 1)))}

        def no_autoreduce(*args):
            raise AssertionError("characteristic_set called autoreduce")

        monkeypatch.setattr(diffmodule, "autoreduce", no_autoreduce)
        for rk, elements in expected.items():
            assert characteristic_set(gens, rk).elements == elements
            if case == "leader divides leader":
                assert elements == (vec(d - 1, zero),)

    def test_chain_criterion_waits_for_queued_pairs(self):
        # the completion of d1^3 and d1^2*d2 - d1*d2 + 2 meets pairs of
        # equal lcm term; a skip that relied on a pair still queued would
        # lose the unit vector and fail the completeness check
        cfg = DiffFieldConfig(2, 0)
        gens = [ModElement(cfg, 1, {(0, (3, 0)): 1}),
                ModElement(cfg, 1, {(0, (2, 1)): 1, (0, (1, 1)): -1,
                                    (0, (0, 0)): 2})]
        one = ModElement.basis(cfg, 1, 0)
        for rk in (orderly_ranking(1), Ranking("elimination", (0,))):
            assert characteristic_set(gens, rk).elements == (one,)
            assert completion_oracle(gens, rk) == (one,)

    def test_verify_complete_rejects_a_missing_element(self):
        # d1 - 1 and d2 - t1 are autoreduced, but their S-pair
        # d2*(d1 - 1) - d1*(d2 - t1) reduces to the unit vector, which the
        # basis lacks
        cfg = DiffFieldConfig(2, 1)
        rk = orderly_ranking(1)
        d1, d2 = OrePoly.delta(cfg, 0), OrePoly.delta(cfg, 1)
        t1 = OrePoly.from_scalar(cfg, RatFun.var(1, 0))
        gens = (from_operator_vector([d1 - 1]),
                from_operator_vector([d2 - t1]))
        incomplete = CharSet(gens, rk, gens, cfg, 1)
        with pytest.raises(AssertionError, match="S-pair"):
            _verify_complete(incomplete)
        one = ModElement.basis(cfg, 1, 0)
        assert characteristic_set(gens, rk).elements == (one,)

    def test_verify_complete_rejects_a_non_monic_element(self):
        # t*d - 1 spans the same module as its monic form d - 1/t, and its
        # generator reduces to zero, but S-pairs are plain differences only
        # of monic elements
        rk = orderly_ranking(1)
        d = OrePoly.delta(CFG1, 0)
        gens = (from_operator_vector([T * d - 1]),)
        loose = CharSet(gens, rk, gens, CFG1, 1)
        with pytest.raises(AssertionError, match="not monic"):
            _verify_complete(loose)
        _verify_complete(characteristic_set(gens, rk))

    def test_spair_of_monic_elements_is_the_difference_of_shifts(self):
        # the leaders d^2 and d^3 have the lcm d^3, so the S-pair is
        # d*(d^2 - t) - (d^3 + 1) = -t*d - 2
        rk = orderly_ranking(1)
        d, t = OrePoly.delta(CFG1, 0), OrePoly.from_scalar(CFG1, T)
        f = from_operator_vector([d ** 2 - t])
        g = from_operator_vector([d ** 3 + 1])
        s = diffmodule._spair(f, leader(f, rk), g, leader(g, rk))
        assert s == from_operator_vector([-t * d - 2])


def rand_theta(rng, m, max_ord=3):
    return tuple(rng.randint(0, max_ord) for _ in range(m))


def count_calls(monkeypatch, owner, name):
    """A list that gets one entry per call of owner.name."""
    calls, wrapped = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestOneTermClosedForms:
    """An element of one term with a constant coefficient has shifts of one
    term each, so S-pairs and reduction steps by it are read off, not
    computed; each closed form against the arithmetic it replaces."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_spair_is_the_difference_of_the_full_shifts(self, m, n):
        cfg = DiffFieldConfig(m, 1)
        rng = random.Random(900 + 10 * m + n)
        for rk in (orderly_ranking(n), Ranking("elimination",
                                              tuple(reversed(range(n))))):
            for _ in range(40):
                comp = rng.randrange(n)
                f = ModElement.basis(cfg, n, comp, rand_theta(rng, m))
                g = ModElement.basis(cfg, n, comp, rand_theta(rng, m))
                lf, lg = leader(f, rk), leader(g, rk)
                lt = diffmodule._lcm(lf, lg)
                full = (f.apply_theta(tuple(a - b for a, b in
                                            zip(lt[1], lf[1])))
                        - g.apply_theta(tuple(a - b for a, b in
                                              zip(lt[1], lg[1]))))
                s = diffmodule._spair(f, lf, g, lg)
                assert s == full and s.is_zero()
                assert (type(s), s.config, s.n) == (ModElement, cfg, n)

    def test_spair_keeps_the_ring_check(self):
        f = ModElement.basis(CFG1, 1, 0, (2,))
        g = ModElement.basis(CFG1, 2, 0, (1,))
        with pytest.raises(ConfigMismatch):
            diffmodule._spair(f, (0, (2,)), g, (0, (1,)))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_reduce_by_one_term_reducers_matches_the_oracle(self, m,
                                                           monkeypatch):
        cfg = DiffFieldConfig(m, 1)
        rng = random.Random(950 + m)
        coeffs = [1, 3, -2, RatFun.from_const(1, 5) / 7]
        cases = []
        for _ in range(30):
            n = rng.randint(1, 2)
            rk = (orderly_ranking(n) if rng.random() < 0.5
                  else Ranking("elimination", tuple(range(n))))
            A = [ModElement.basis(cfg, n, rng.randrange(n),
                                  rand_theta(rng, m, 2), rng.choice(coeffs))
                 for _ in range(rng.randint(1, 3))]
            ws = [rand_modelement(rng, cfg, n, max_ord=4, max_terms=5)
                  for _ in range(3)]
            cases += [(w, A, rk, reduce_oracle(w, A, rk)) for w in ws]
        # the closed form builds no shift and divides by nothing
        shifts = count_calls(monkeypatch, TermMap, "apply_theta")

        def refuse(*args):
            raise AssertionError("a one-term reduction step divided")

        monkeypatch.setattr(RatFun, "inverse", refuse)
        monkeypatch.setattr(RatFun, "__truediv__", refuse)
        assert [reduce(w, A, rk) for w, A, rk, _ in cases] \
            == [expected for *_, expected in cases]
        assert shifts == []

    def test_non_monic_one_term_reducer(self):
        # 3*e1*d2 removes every term that d2 divides, whatever its
        # coefficient; the rest of w stays as it is
        cfg = DiffFieldConfig(2, 1)
        rk = orderly_ranking(1)
        t = RatFun.var(1, 0)
        w = ModElement(cfg, 1, {(0, (1, 1)): t, (0, (0, 3)): 2,
                                (0, (2, 0)): t + 1, (0, (0, 0)): 5})
        reducer = ModElement.basis(cfg, 1, 0, (0, 1), 3)
        expected = ModElement(cfg, 1, {(0, (2, 0)): t + 1, (0, (0, 0)): 5})
        assert reduce(w, [reducer], rk) == expected
        assert reduce_oracle(w, [reducer], rk) == expected

    def test_a_non_constant_coefficient_takes_the_shift_path(
            self, monkeypatch):
        # d*(t*e1*d) = t*e1*d^2 + e1*d has two terms, so t*e1*d is no
        # closed form and its shifts are computed
        rk = orderly_ranking(1)
        f = ModElement.basis(CFG1, 1, 0, (1,), T)
        assert len(f.apply_theta((1,)).terms) == 2
        assert not diffmodule._one_term(f)
        w = ModElement(CFG1, 1, {(0, (4,)): 1, (0, (2,)): T, (0, (0,)): 3})
        expected = reduce_oracle(w, [f], rk)
        shifts = count_calls(monkeypatch, TermMap, "apply_theta")
        assert reduce(w, [f], rk) == expected
        assert shifts
        assert expected == ModElement(CFG1, 1, {(0, (0,)): 3})

    def test_missing_leader_fails_the_check(self):
        cfg = DiffFieldConfig(2, 0)
        rk = orderly_ranking(1)
        d1sq = ModElement.basis(cfg, 1, 0, (2, 0))
        d2sq = ModElement.basis(cfg, 1, 0, (0, 2))
        _verify_complete(CharSet((d1sq, d2sq), rk, (d1sq, d2sq), cfg, 1))
        incomplete = CharSet((d1sq,), rk, (d1sq, d2sq), cfg, 1)
        with pytest.raises(AssertionError,
                           match="generator does not reduce to zero"):
            _verify_complete(incomplete)

    def test_coefficient_two_fails_the_check(self):
        cfg = DiffFieldConfig(2, 0)
        rk = orderly_ranking(1)
        gens = (ModElement.basis(cfg, 1, 0, (2, 0), 2),
                ModElement.basis(cfg, 1, 0, (0, 2)))
        loose = CharSet(gens, rk, gens, cfg, 1)
        with pytest.raises(AssertionError,
                           match="element not monic at its leader"):
            _verify_complete(loose)

    def test_staircase_charsets_shift_nothing(self, bench_corpus,
                                              monkeypatch):
        # the six `charset` modules of the staircase workload: monic
        # one-term generators over Q, whose completion and check shifted
        # 46, 100, 46, 100, 46 and 104 times before the closed forms
        problems = [parse_input(p.text) for p in bench_corpus.staircase(71)
                    if p.command == "charset"]
        assert len(problems) == 6
        shifts = count_calls(monkeypatch, TermMap, "apply_theta")
        counts = []
        for pf in problems:
            charset = characteristic_set(pf.gens, pf.ranking(),
                                         config=pf.config, n=pf.module_rank)
            counts.append(len(shifts))
            shifts.clear()
            assert charset.leaders() == sorted(
                (leader(g, charset.ranking) for g in pf.gens),
                key=charset.ranking.key)
        assert counts == [0] * 6


class TestEvalPoint:
    def test_derivative_relation(self):
        d = OrePoly.delta(CFG1, 0)
        xi = from_operator_vector([d, -OrePoly.one(CFG1)])
        assert eval_point(xi, [T, RatFun.from_const(1, 1)]).is_zero()

    def test_zero_element(self):
        assert eval_point(ModElement.zero(CFG1, 3), [T, T, T]).is_zero()

    def test_tangent_family_point(self):
        # xi = (1, t*d - 1) vanishes on points (y - t*y', y); take y = t^2
        d = OrePoly.delta(CFG1, 0)
        xi = from_operator_vector(
            [OrePoly.one(CFG1), OrePoly.from_scalar(CFG1, T) * d - 1])
        y = T ** 2
        x = [y - T * (2 * T), y]
        assert eval_point(xi, x).is_zero()


class TestMember:
    def test_derivative_of_generator(self):
        rk = orderly_ranking(2)
        g = elem(2, {(0, (1,)): 1, (1, (0,)): -1})
        cs = characteristic_set([g], rk)
        w = elem(2, {(0, (2,)): 1, (1, (1,)): -1})
        assert reduce(w, cs.elements, cs.ranking).is_zero()

    def test_below_leader_not_member(self):
        rk = orderly_ranking(1)
        cs = characteristic_set([elem(1, {(0, (1,)): 1})], rk)
        assert not reduce(elem(1, {(0, (0,)): 1}), cs.elements,
                          rk).is_zero()

    def test_against_truncated_span_oracle(self):
        rk = orderly_ranking(2)
        gens = [elem(2, {(0, (1,)): 1, (1, (0,)): -1}),
                elem(2, {(1, (1,)): 1, (0, (0,)): 1})]
        cs = characteristic_set(gens, rk)
        w = elem(2, {(0, (0,)): 1})
        assert reduce(w, cs.elements, rk).is_zero() == \
            in_span_truncated(w, gens, CFG1)

    def test_invariant_under_regenerating_the_module(self):
        rng = random.Random(35)
        rk = orderly_ranking(2)
        gens = [elem(2, {(0, (1,)): T, (1, (0,)): 1}),
                elem(2, {(1, (2,)): 1, (0, (0,)): -1})]
        cs = characteristic_set(gens, rk)
        for _ in range(10):
            extra = _left_mul(rand_orepoly(rng, CFG1), gens[0]) + \
                _left_mul(rand_orepoly(rng, CFG1), gens[1])
            cs2 = characteristic_set(gens + [extra], rk)
            w = rand_modelement(rng, CFG1, 2)
            assert reduce(w, cs.elements, rk).is_zero() == \
                reduce(w, cs2.elements, rk).is_zero()

    def test_normal_forms_agree_with_membership(self):
        rng = random.Random(36)
        rk = orderly_ranking(2)
        gens = [rand_modelement(rng, CFG1, 2, max_ord=2, nonzero=True)
                for _ in range(2)]
        cs = characteristic_set(gens, rk)
        for g in gens:
            assert reduce(g, cs.elements, cs.ranking).is_zero()
            assert reduce(g.apply_delta(0), cs.elements,
                          cs.ranking).is_zero()
