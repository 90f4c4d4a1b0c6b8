"""Numerical polynomials and the staircase-counting kernel."""

import ast
import random
import time

import pytest

import diffalg.numpoly
from diffalg import (Antichain, NotAntichain, NumericalPolynomial, ZERO_TYPE,
                     count_cofilter, standard_terms, type_and_heights)
from diffalg.numpoly import _minimalize, _numerator, _staircase_numerator

from helpers import (all_pairs_minimal, box_standard_terms, brute_count,
                     count_calls, from_monomial, inclusion_exclusion_count,
                     monomial_coeffs, multiindices)


def anti(m, *components):
    return Antichain(m, tuple(frozenset(c) for c in components))


def rand_antichain(rng, m, max_entry=4, max_vectors=3, components=1):
    comps = []
    for _ in range(components):
        vectors = set()
        for _ in range(rng.randint(0, max_vectors)):
            v = tuple(rng.randint(0, max_entry) for _ in range(m))
            if not any(all(x <= y for x, y in zip(a, v))
                       or all(y <= x for x, y in zip(a, v))
                       for a in vectors):
                vectors.add(v)
        comps.append(frozenset(vectors))
    return Antichain(m, tuple(comps))


class TestCountCofilter:
    def test_corner_staircase(self):
        phi = count_cofilter(anti(2, {(1, 1)}))
        assert str(phi) == "2*t + 1"
        assert phi.valid_from == 2

    def test_empty_is_full_simplex(self):
        for m in (1, 2, 3):
            phi = count_cofilter(anti(m, set()))
            assert phi.coeffs == (0,) * m + (1,)  # C(t+m, m)

    def test_origin_excludes_everything(self):
        phi = count_cofilter(anti(2, {(0, 0)}))
        assert phi.is_zero() and phi.degree() is ZERO_TYPE

    def test_not_antichain_rejected(self):
        with pytest.raises(NotAntichain):
            anti(2, {(1, 1), (2, 2)})

    def test_multiple_components_sum(self):
        phi = count_cofilter(anti(2, {(1, 1), (0, 2)}, {(2, 0)}))
        assert str(phi) == "3*t + 3"


class TestMinimalize:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_against_all_pairs(self, m):
        rng = random.Random(60 + m)
        for _ in range(200):
            top = rng.randint(0, 6)
            gens = [tuple(rng.randint(0, top) for _ in range(m))
                    for _ in range(rng.randint(0, 25))]
            minimal = _minimalize(iter(gens))
            assert len(minimal) == len(set(minimal))
            assert set(minimal) == all_pairs_minimal(gens)
            if m in (2, 3):     # the sweep keeps them in its own order
                _, kept = _staircase_numerator(gens, m)
                assert kept == sorted(minimal, key=lambda g: g[2:] + g[:2])

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_antichain_names_a_comparable_pair(self, m):
        rng = random.Random(70 + m)
        for _ in range(100):
            E = {tuple(rng.randint(0, 3) for _ in range(m))
                 for _ in range(rng.randint(1, 12))}
            if all_pairs_minimal(E) == E:
                assert anti(m, E).components == (frozenset(E),)
                continue
            with pytest.raises(NotAntichain) as caught:
                anti(m, E)
            a, b = map(ast.literal_eval, str(caught.value).removesuffix(
                " componentwise").split(" <= "))
            assert a in E and b in E and a != b
            assert all(x <= y for x, y in zip(a, b))

    def test_n3_sweep_keeps_the_order_of_the_pairwise_test(self):
        # the kept vectors come smallest weight first, as the pairwise test
        # took them, so a rejected antichain names the same pair
        rng = random.Random(57)
        for _ in range(300):
            top = rng.randint(0, 6)
            gens = [tuple(rng.randint(0, top) for _ in range(3))
                    for _ in range(rng.randint(0, 40))]
            minimal = all_pairs_minimal(gens)
            assert _minimalize(gens) == [g for g in sorted(set(gens), key=sum)
                                         if g in minimal]

    @pytest.mark.parametrize("E, text", [
        ({(1, 1, 1), (2, 2, 2)}, "(1, 1, 1) <= (2, 2, 2) componentwise"),
        # (2, 2, 0) comes first in the sweep, (0, 0, 3) in weight
        ({(0, 0, 3), (2, 2, 0), (2, 2, 3)},
         "(0, 0, 3) <= (2, 2, 3) componentwise"),
        ({(0, 1, 0), (3, 0, 0), (0, 2, 5), (4, 0, 1), (1, 0, 4)},
         "(0, 1, 0) <= (0, 2, 5) componentwise"),
        ({(0, 0, 0), (5, 5, 5)}, "(0, 0, 0) <= (5, 5, 5) componentwise"),
    ], ids=["chain", "weight-order", "two-rejected", "zero"])
    def test_n3_not_antichain_text(self, E, text):
        with pytest.raises(NotAntichain) as caught:
            anti(3, E)
        assert str(caught.value) == text

    def test_n3_staircase_of_a_weight_layer(self):
        # every leader of weight 60: 1,891 in N^3, quadratic before the sweep
        E = {(a, b, 60 - a - b) for a in range(61) for b in range(61 - a)}
        start = time.perf_counter()
        phi = count_cofilter(anti(3, E))
        assert time.perf_counter() - start < 1.0
        # the staircase is every term of weight >= 60
        assert (phi.coeffs, phi.valid_from) == ((37820,), 180)

    def test_staircase_of_two_thousand_leaders(self):
        E = {(i, 2000 - i) for i in range(2001)}
        start = time.perf_counter()
        phi = count_cofilter(anti(2, E))
        assert time.perf_counter() - start < 1.0
        # the staircase is every term of weight >= 2000
        assert (str(phi), phi.valid_from) == ("2001000", 4000)


def wide_antichain(rng, size, width):
    """`size` leaders in N^2, the first coordinate increasing and the second
    decreasing: every antichain of N^2 has this shape."""
    firsts = sorted(rng.sample(range(width), size))
    seconds = sorted(rng.sample(range(width), size), reverse=True)
    return list(zip(firsts, seconds))


def layer_antichain(rng, m, size, weight, bumps=0):
    """`size` distinct leaders of one total weight, then up to `bumps`
    random unit raises that keep the set an antichain."""
    leaders = rng.sample(multiindices(m, weight), size)
    for _ in range(bumps):
        k = rng.randrange(size)
        i = rng.randrange(m)
        raised = leaders[k][:i] + (leaders[k][i] + 1,) + leaders[k][i + 1:]
        if not any(all(a <= b for a, b in zip(e, raised))
                   for j, e in enumerate(leaders) if j != k):
            leaders[k] = raised
    return leaders


class TestPivotCountAgainstInclusionExclusion:
    def test_random_multi_component(self):
        rng = random.Random(45)
        for _ in range(150):
            m = rng.choice((1, 2, 3))
            E = rand_antichain(rng, m, max_entry=4 if m < 3 else 3,
                               max_vectors=7, components=rng.randint(1, 3))
            assert count_cofilter(E) == inclusion_exclusion_count(E)

    def test_empty_components(self):
        for m in (1, 2, 3):
            E = anti(m, set(), {(1,) * m}, set())
            assert count_cofilter(E) == inclusion_exclusion_count(E)

    def test_zero_leader(self):
        rng = random.Random(46)
        for m in (1, 2, 3):
            others = rand_antichain(rng, m, max_vectors=5).components[0]
            E = anti(m, {(0,) * m}, others, {(0,) * m})
            phi = count_cofilter(E)
            assert phi == inclusion_exclusion_count(E)
            assert phi == count_cofilter(anti(m, others))

    def test_pure_powers(self):
        for E in (anti(2, {(3, 0), (0, 2)}),
                  anti(2, {(3, 0), (0, 2), (1, 1)}),
                  anti(3, {(2, 0, 0), (0, 4, 0), (0, 0, 1)}),
                  anti(3, {(5, 0, 0), (1, 1, 0), (0, 3, 0), (2, 0, 2)}),
                  anti(3, {(3, 0, 0)}, {(0, 0, 2), (1, 1, 1)})):
            assert count_cofilter(E) == inclusion_exclusion_count(E)

    def test_pairwise_coprime(self):
        for E in (anti(2, {(2, 0), (0, 5)}),
                  anti(3, {(1, 2, 0), (0, 0, 3)}),
                  anti(3, {(4, 0, 0), (0, 1, 0), (0, 0, 2)}, {(1, 0, 1)})):
            assert count_cofilter(E) == inclusion_exclusion_count(E)

    @pytest.mark.parametrize("m", [2, 3])
    def test_one_sweep_per_component(self, m, monkeypatch):
        # Antichain validates each component by the sweep that counts it,
        # and count_cofilter reads the numerators it kept
        calls = count_calls(monkeypatch, diffalg.numpoly, "_place")
        rng = random.Random(58 + m)
        E = anti(m, layer_antichain(rng, m, 8, 9), set(),
                 layer_antichain(rng, m, 5, 5))
        assert len(calls) == 13
        phi = count_cofilter(E)
        assert len(calls) == 13
        assert phi == inclusion_exclusion_count(E)

    def test_seeded_layers(self):
        rng = random.Random(47)
        for m, weight, size in ((2, 9, 8), (3, 4, 9), (3, 6, 10)):
            E = anti(m, layer_antichain(rng, m, size, weight, bumps=10),
                     layer_antichain(rng, m, 5, weight + 2))
            assert count_cofilter(E) == inclusion_exclusion_count(E)
        E = anti(2, wide_antichain(rng, 12, 20))
        assert count_cofilter(E) == inclusion_exclusion_count(E)


def nonzero(num):
    return {c: n for c, n in num.items() if n}


class TestSweepAgainstPivot:
    """In N^2 and N^3 `count_cofilter` takes the numerator from the corner
    sweep; the pivot recursion, which counts N^4 and above, is its oracle
    here, and inclusion-exclusion the oracle of both."""

    @staticmethod
    def check(E):
        for comp in E.components:
            assert nonzero(_staircase_numerator(comp, E.m)[0]) == nonzero(
                _numerator(list(comp), E.m)), comp
        assert count_cofilter(E) == inclusion_exclusion_count(E)

    @pytest.mark.parametrize("m", [2, 3])
    def test_seeded_antichains(self, m):
        rng = random.Random(50 + m)
        for _ in range(150):
            self.check(rand_antichain(rng, m, max_entry=rng.choice((3, 6)),
                                      max_vectors=8,
                                      components=rng.randint(1, 3)))

    @pytest.mark.parametrize("m", [2, 3])
    def test_empty_components_and_a_zero_leader(self, m):
        rng = random.Random(52 + m)
        others = rand_antichain(rng, m, max_vectors=6).components[0]
        for E in (anti(m, set()), anti(m, set(), others, set()),
                  anti(m, {(0,) * m}), anti(m, {(0,) * m}, others)):
            self.check(E)
        assert nonzero(_staircase_numerator({(0,) * m}, m)[0]) == {}

    def test_pure_powers(self):
        for E in (anti(2, {(4, 0)}), anti(2, {(0, 3), (5, 0)}),
                  anti(2, {(0, 3), (1, 1), (5, 0)}),
                  anti(3, {(0, 0, 4)}),
                  anti(3, {(3, 0, 0), (0, 2, 0), (0, 0, 5)}),
                  anti(3, {(3, 0, 0), (0, 0, 1)}, {(0, 2, 0), (1, 0, 2)})):
            self.check(E)

    @pytest.mark.parametrize("m, leaders", [
        (2, lambda rng: wide_antichain(rng, 30, 40)),
        (3, lambda rng: layer_antichain(rng, 3, 30, 7)),
        (3, lambda rng: layer_antichain(rng, 3, 30, 8, bumps=60)),
    ], ids=["m2-wide", "m3-layer", "m3-bumped"])
    def test_thirty_leader_layers(self, m, leaders):
        # 2^30 subsets are out of reach for inclusion-exclusion: the pivot
        # recursion is the oracle, and the values the brute count
        E = anti(m, leaders(random.Random(54)))
        comp, = E.components
        assert len(comp) == 30
        assert nonzero(_staircase_numerator(comp, m)[0]) == nonzero(
            _numerator(list(comp), m))
        phi = count_cofilter(E)
        assert phi(phi.valid_from) == brute_count(E, phi.valid_from)

    def test_n3_generators_that_are_not_minimal(self):
        # the sweep skips a generator inside the staircase and drops the
        # corners a new one covers
        rng = random.Random(55)
        for _ in range(200):
            gens = [tuple(rng.randint(0, 4) for _ in range(3))
                    for _ in range(rng.randint(1, 12))]
            assert nonzero(_staircase_numerator(gens, 3)[0]) == nonzero(
                _numerator(_minimalize(gens), 3))

    def test_pivot_recursion_still_counts_n4(self):
        rng = random.Random(56)
        for _ in range(40):
            E = rand_antichain(rng, 4, max_entry=2, max_vectors=6,
                               components=rng.randint(1, 2))
            assert count_cofilter(E) == inclusion_exclusion_count(E)


class TestThirtyLeaders:
    @pytest.mark.parametrize("m, leaders", [
        (2, lambda rng: wide_antichain(rng, 30, 40)),
        (3, lambda rng: layer_antichain(rng, 3, 30, 7)),
        (3, lambda rng: layer_antichain(rng, 3, 30, 8, bumps=60)),
    ], ids=["m2-wide", "m3-layer", "m3-bumped"])
    def test_against_brute_count(self, m, leaders):
        E = anti(m, leaders(random.Random(48)))
        assert len(E.components[0]) == 30
        start = time.perf_counter()
        phi = count_cofilter(E)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"30 leaders at m = {m} took {elapsed:.2f}s"
        for t in range(phi.valid_from, phi.valid_from + 4):
            assert phi(t) == brute_count(E, t)


class TestBruteCount:
    def test_corner_staircase(self):
        assert brute_count(anti(2, {(1, 1)}), 3) == 7

    def test_full_line(self):
        assert brute_count(anti(1, set()), 4) == 5

    def test_truncated_line(self):
        assert brute_count(anti(1, {(2,)}), 5) == 2

    def test_matches_standard_terms_at_small_and_negative_bounds(self):
        # at m = 0 the only term is the empty one, of weight 0: no bound
        # below 0 counts it
        cases = [anti(0, set()), anti(0, {()}), anti(0, set(), {()}, set()),
                 anti(1, set()), anti(1, {(0,)}), anti(1, {(2,)}, set()),
                 anti(2, set()), anti(2, {(1, 1)}), anti(2, {(0, 2), (3, 0)},
                                                         set())]
        for E in cases:
            for K in range(-2, 4):
                assert brute_count(E, K) == len(standard_terms(E, K)), (E, K)
        assert brute_count(anti(0, set()), -1) == 0


class TestStandardTerms:
    def test_matches_box_walk_and_counts(self):
        # 216 antichains x K = -1..12: about 3,000 listings
        rng = random.Random(45)
        cases = 0
        for m in range(1, 5):
            for n in range(1, 4):
                for _ in range(18):
                    comps = []
                    for _ in range(n):
                        kind = rng.random()
                        if kind < 0.15:             # a free component
                            comps.append(frozenset())
                        elif kind < 0.2:            # the origin leader
                            comps.append(frozenset({(0,) * m}))
                        else:                       # some beyond K = 12
                            comps.append(rand_antichain(
                                rng, m, max_entry=rng.choice((3, 6, 15)),
                                max_vectors=5).components[0])
                    E = Antichain(m, tuple(comps))
                    phi = count_cofilter(E)
                    for K in range(-1, 13):
                        terms = standard_terms(E, K)
                        assert terms == box_standard_terms(E, K), (E, K)
                        assert len(terms) == brute_count(E, K)
                        if K >= phi.valid_from:
                            assert len(terms) == phi(K)
                        cases += 1
        assert cases == 3024

    def test_edge_cases(self):
        assert standard_terms(anti(2, set(), {(0, 0)}), 1) == [
            (0, (0, 0)), (0, (0, 1)), (0, (1, 0))]
        assert standard_terms(anti(3, {(1, 1, 1)}), -1) == []
        assert standard_terms(anti(1, {(20,)}), 2) == [
            (0, (0,)), (0, (1,)), (0, (2,))]
        assert standard_terms(anti(2, {(1, 0), (0, 2)}), 9) == [
            (0, (0, 0)), (0, (0, 1))]
        assert standard_terms(anti(0, set(), {()}, set()), 4) == [
            (0, ()), (2, ())]
        assert standard_terms(anti(0, set()), -1) == []


class TestEval:
    def test_affine(self):
        phi = NumericalPolynomial((1, 1))
        assert phi(3) == 5

    def test_zero(self):
        assert NumericalPolynomial(())(10) == 0

    def test_quadratic(self):
        phi = NumericalPolynomial((0, 0, 2))
        assert phi(2) == 12


class TestTypeAndHeights:
    def test_affine(self):
        assert type_and_heights(NumericalPolynomial((1, 1)), 1) == (1, 1, 1)

    def test_constant(self):
        assert type_and_heights(NumericalPolynomial((2,)), 1) == (0, 2, 0)

    def test_full_rank(self):
        assert type_and_heights(NumericalPolynomial((0, 0, 2)), 2) == (2, 2, 2)

    def test_zero_polynomial(self):
        level, d_l, d_m = type_and_heights(NumericalPolynomial(()), 2)
        assert level is ZERO_TYPE and d_l == 0 and d_m == 0


class TestProperties:
    def test_oracle_equivalence_random(self):
        rng = random.Random(41)
        for _ in range(60):
            m = rng.choice((1, 2, 3))
            E = rand_antichain(rng, m, max_entry=3 if m < 3 else 2,
                               components=rng.randint(1, 2))
            phi = count_cofilter(E)
            for t in range(phi.valid_from, phi.valid_from + 5):
                assert phi(t) == brute_count(E, t)

    def test_integrality_and_type_bound(self):
        rng = random.Random(42)
        for _ in range(40):
            m = rng.choice((1, 2, 3))
            phi = count_cofilter(rand_antichain(rng, m))
            assert all(isinstance(c, int) for c in phi.coeffs)
            deg = phi.degree()
            assert deg is ZERO_TYPE or deg <= m

    def test_monotonicity_under_extra_leader(self):
        rng = random.Random(43)
        for _ in range(30):
            m = rng.choice((1, 2))
            E = rand_antichain(rng, m, max_vectors=2)
            vectors = set(E.components[0])
            v = tuple(rng.randint(0, 4) for _ in range(m))
            if any(all(x <= y for x, y in zip(a, v))
                   or all(y <= x for x, y in zip(a, v)) for a in vectors):
                continue
            bigger = Antichain(m, (frozenset(vectors | {v}),))
            phi1, phi2 = count_cofilter(E), count_cofilter(bigger)
            start = max(phi1.valid_from, phi2.valid_from)
            for t in range(start, start + 6):
                assert phi2(t) <= phi1(t)

    def test_binomial_basis_round_trip(self):
        # the conversion to ordinary coefficients against the value of phi
        # and against the conversion back
        phi = NumericalPolynomial((3, -1, 2), 4)
        assert from_monomial(monomial_coeffs(phi), phi.valid_from) == phi
        rng = random.Random(49)
        for _ in range(200):
            phi = NumericalPolynomial(tuple(rng.randint(-30, 30)
                                            for _ in range(rng.randint(0, 6))))
            mono = monomial_coeffs(phi)
            for t in range(6):
                assert sum(c * t ** k for k, c in enumerate(mono)) == phi(t)
            assert from_monomial(mono) == phi

    def test_non_integer_coefficients_rejected(self):
        with pytest.raises(ValueError):
            NumericalPolynomial((1, 0.5))
