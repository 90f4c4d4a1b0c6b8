"""Dimension polynomials and the m = 1 free/torsion bookkeeping."""

import random

import pytest

import diffalg.dimension
from diffalg import (DiffFieldConfig, ModElement, OrderlyRequired, Ranking,
                     RatFun, characteristic_set, dimension_report,
                     leader_antichain, orderly_ranking)
from helpers import brute_count, rand_modelement, truncated_module_dims

CFG1 = DiffFieldConfig(1, 1)
T = RatFun.var(1, 0)


def elem(n, terms):
    return ModElement(CFG1, n, terms)


def charset(gens, n):
    return characteristic_set(gens, orderly_ranking(n), config=CFG1, n=n)


class TestDimensionPolynomial:
    def test_free_module(self):
        cs = charset([], 2)
        phi = dimension_report(cs).dimpoly
        assert phi.coeffs == (0, 2)  # 2*(t+1) = 2*C(t+1,1)

    def test_single_first_order_relation(self):
        g = elem(2, {(1, (1,)): 1, (0, (0,)): 1 / T, (1, (0,)): -1 / T})
        phi = dimension_report(charset([g], 2)).dimpoly
        assert str(phi) == "t + 2" and phi.coeffs == (1, 1)

    def test_fully_constrained_module(self):
        cs = charset([elem(2, {(0, (1,)): 1, (1, (0,)): -1}),
                      elem(2, {(1, (1,)): 1})], 2)
        phi = dimension_report(cs).dimpoly
        assert phi.coeffs == (2,)  # constant 2

    def test_orderly_ranking_required(self):
        g = elem(2, {(1, (1,)): 1})
        cs = characteristic_set([g], Ranking("elimination", (0, 1)))
        with pytest.raises(OrderlyRequired):
            dimension_report(cs)


class TestDiffDimension:
    def test_free_module(self):
        assert dimension_report(charset([], 2)).diff_dimension == 2

    def test_one_relation_leaves_one_free(self):
        g = elem(2, {(1, (1,)): 1, (1, (0,)): -1})
        assert dimension_report(charset([g], 2)).diff_dimension == 1

    def test_torsion_module(self):
        cs = charset([elem(2, {(0, (1,)): 1, (1, (0,)): -1}),
                      elem(2, {(1, (1,)): 1})], 2)
        assert dimension_report(cs).diff_dimension == 0

    def test_ranking_invariance_of_d(self):
        rng = random.Random(51)
        for _ in range(10):
            gens = [rand_modelement(rng, CFG1, 3, max_ord=2, nonzero=True)
                    for _ in range(rng.randint(1, 2))]
            values = set()
            for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
                cs = characteristic_set(gens, Ranking("orderly", order),
                                        config=CFG1, n=3)
                values.add(dimension_report(cs).diff_dimension)
            assert len(values) == 1


class TestFreeSplit:
    def test_single_relation(self):
        g = elem(2, {(1, (1,)): 1, (1, (0,)): -1})
        report = dimension_report(charset([g], 2))
        assert report.free_components == (0,)
        assert report.below_leader_count == 1

    def test_zero_submodule(self):
        report = dimension_report(charset([], 3))
        assert report.free_components == (0, 1, 2)
        assert report.below_leader_count == 0

    def test_second_order_leader(self):
        report = dimension_report(charset([elem(1, {(0, (2,)): 1})], 1))
        assert report.free_components == ()
        assert report.below_leader_count == 2


class TestReport:
    def test_affine_decomposition(self):
        g = elem(2, {(1, (1,)): T, (0, (0,)): 1, (1, (0,)): -1})
        report = dimension_report(charset([g], 2))
        assert report.diff_dimension == 1
        assert report.below_leader_count == 1
        assert report.free_term == 2
        assert report.type == 1 and report.typical_height == 1
        # m = 1: phi(t) = d*(t+1) + B on the validity range
        phi = report.dimpoly
        d, B = report.diff_dimension, report.below_leader_count
        for t in range(phi.valid_from, phi.valid_from + 5):
            assert phi(t) == d * (t + 1) + B

    def test_decomposition_random(self):
        rng = random.Random(52)
        for _ in range(15):
            n = rng.randint(1, 3)
            gens = [rand_modelement(rng, CFG1, n, max_ord=2, nonzero=True)
                    for _ in range(rng.randint(1, 2))]
            report = dimension_report(charset(gens, n))
            phi = report.dimpoly
            for t in range(phi.valid_from, phi.valid_from + 4):
                assert phi(t) == report.diff_dimension * (t + 1) \
                    + report.below_leader_count

    def test_partial_case_has_no_below_count(self):
        cfg = DiffFieldConfig(2, 1)
        g = ModElement(cfg, 1, {(0, (1, 0)): 1})
        cs = characteristic_set([g], orderly_ranking(1))
        report = dimension_report(cs)
        assert report.below_leader_count is None and report.free_term is None

    def test_one_antichain_and_one_count_per_report(self, monkeypatch):
        calls = {"leader_antichain": 0, "count_cofilter": 0}
        for name in calls:
            original = getattr(diffalg.dimension, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(diffalg.dimension, name, counted)
        g = elem(2, {(1, (1,)): T, (0, (0,)): 1, (1, (0,)): -1})
        report = dimension_report(charset([g], 2))
        assert report.diff_dimension == 1 and report.below_leader_count == 1
        assert calls == {"leader_antichain": 1, "count_cofilter": 1}


class TestBruteForceAgreement:
    def test_truncated_dimensions_match(self):
        rng = random.Random(53)
        for _ in range(8):
            n = rng.randint(1, 2)
            gens = [rand_modelement(rng, CFG1, n, max_ord=2, nonzero=True)
                    for _ in range(rng.randint(1, 2))]
            cs = charset(gens, n)
            anti = leader_antichain(cs)
            oracle = truncated_module_dims(gens, n, CFG1, 5)
            assert [brute_count(anti, k) for k in range(6)] == oracle
