"""Matrix diagonalization over K[delta] and tangent-space classification."""

import random

import pytest

from diffalg import (Diagonalization, DiffFieldConfig, OreMatrix, OrePoly,
                     RatFun, TangentClass, UnsupportedForPartial,
                     characteristic_set, classify_tangent, diagonalize,
                     dimension_report, ore_mul, orderly_ranking)
from diffalg.normalform import _verify
from helpers import from_columns, rand_modelement, rand_orepoly

CFG1 = DiffFieldConfig(1, 1)
T = RatFun.var(1, 0)


def op(value):
    return OrePoly.from_scalar(CFG1, value)


def delta():
    return OrePoly.delta(CFG1, 0)


def relation_matrix(*rows):
    """Matrix with rows as relations (the diagonalization orientation)."""
    return OreMatrix(CFG1, [list(r) for r in rows])


class TestDiagonalize:
    def test_row_swap_pivot(self):
        d = delta()
        A = relation_matrix([OrePoly.zero(CFG1), d - 1])
        res = diagonalize(A)
        entries = [res.D[0, j] for j in range(2)]
        nonzero = [e for e in entries if not e.is_zero()]
        assert len(nonzero) == 1 and nonzero[0].degree() == 1

    def test_already_diagonal(self):
        d = delta()
        A = relation_matrix([d, OrePoly.zero(CFG1)],
                            [OrePoly.zero(CFG1), d])
        res = diagonalize(A)
        assert [e.degree() for e in res.D.diagonal()] == [1, 1]

    def test_unit_entry_clears_row(self):
        d = delta()
        A = relation_matrix([OrePoly.one(CFG1), op(T) * d - 1])
        res = diagonalize(A)
        assert res.D[0, 0].degree() == 0 and res.D[0, 1].is_zero()

    def test_identities_exact(self):
        rng = random.Random(61)
        for _ in range(10):
            rows = rng.randint(1, 2)
            cols = rng.randint(1, 3)
            A = OreMatrix(CFG1, [[rand_orepoly(rng, CFG1, max_deg=2)
                                  for _ in range(cols)]
                                 for _ in range(rows)])
            res = diagonalize(A)
            assert res.D.is_diagonal()
            assert res.U * A * res.V == res.D
            assert res.U * res.U_inv == OreMatrix.identity(CFG1, rows)
            assert res.V * res.V_inv == OreMatrix.identity(CFG1, cols)
            assert res.V_inv * res.V == OreMatrix.identity(CFG1, cols)

    def test_diagonal_is_monic(self):
        rng = random.Random(64)
        for _ in range(12):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 3)
            A = OreMatrix(CFG1, [[rand_orepoly(rng, CFG1, max_deg=2)
                                  for _ in range(cols)]
                                 for _ in range(rows)])
            for e in diagonalize(A).D.diagonal():
                if not e.is_zero():
                    assert e.leading()[1].is_one()
                    if e.degree() == 0:
                        assert e == OrePoly.one(CFG1)

    @pytest.mark.parametrize("field", ["U", "V", "U_inv", "V_inv", "D"])
    def test_verify_rejects_corrupted_entry(self, field):
        rng = random.Random(65)
        for _ in range(6):
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 3)
            A = OreMatrix(CFG1, [[rand_orepoly(rng, CFG1, max_deg=2)
                                  for _ in range(cols)]
                                 for _ in range(rows)])
            res = diagonalize(A)
            _verify(A, res)
            mat = getattr(res, field).copy()
            i = rng.randrange(mat.rows)
            j = rng.randrange(mat.cols)
            mat.entries[i][j] = mat.entries[i][j] + rand_orepoly(
                rng, CFG1, max_deg=1, nonzero=True)
            parts = {name: getattr(res, name)
                     for name in ("U", "D", "V", "U_inv", "V_inv")}
            parts[field] = mat
            with pytest.raises(AssertionError):
                _verify(A, Diagonalization(**parts))

    def test_partial_rejected(self):
        cfg = DiffFieldConfig(2, 1)
        A = OreMatrix(cfg, [[OrePoly.delta(cfg, 0)]])
        with pytest.raises(UnsupportedForPartial):
            diagonalize(A)


class TestClassifyTangent:
    def test_mixed_free_and_torsion(self):
        d = delta()
        R = from_columns(CFG1, [[OrePoly.zero(CFG1), d - 1]], 2)
        assert classify_tangent(R) == TangentClass(1, 1, (1,))

    def test_unit_coordinate_gives_free_quotient(self):
        d = delta()
        R = from_columns(CFG1, [[OrePoly.one(CFG1), op(T) * d - 1]], 2)
        assert classify_tangent(R) == TangentClass(1, 0, ())

    def test_zero_submodule(self):
        R = from_columns(CFG1, [], 2)
        assert classify_tangent(R) == TangentClass(2, 0, ())

    def test_class_from_diagonal(self):
        d = delta()
        diagonal = [op(1), d * d - op(T), OrePoly.zero(CFG1), d - 1]
        assert TangentClass.from_diagonal(5, diagonal) \
            == TangentClass(2, 3, (1, 2))
        assert TangentClass.from_diagonal(2, []) == TangentClass(2, 0, ())

    def test_invariance_under_relation_recombination(self):
        rng = random.Random(62)
        for _ in range(8):
            n = rng.randint(2, 3)
            gens = [rand_modelement(rng, CFG1, n, max_ord=2, nonzero=True)
                    for _ in range(rng.randint(1, 2))]
            R = from_columns(CFG1, [g.operator_vector() for g in gens], n)
            base = classify_tangent(R)

            # appending a left combination of existing relations
            combo = [OrePoly.zero(CFG1)] * n
            for g in gens:
                q = rand_orepoly(rng, CFG1, max_deg=1)
                for i, e in enumerate(g.operator_vector()):
                    combo[i] = combo[i] + ore_mul(q, e)
            R2 = from_columns(
                CFG1, [g.operator_vector() for g in gens] + [combo], n)
            appended = classify_tangent(R2)
            assert (appended.d, appended.k) == (base.d, base.k)

            # unimodular change of the free-module basis: on the transposed
            # (rows-as-relations) layout this is right multiplication by an
            # elementary matrix, i.e. col_j += col_i * q
            A = R.transpose_data()
            i, j = rng.sample(range(n), 2)
            q = rand_orepoly(rng, CFG1, max_deg=1)
            entries = [list(row) for row in A.entries]
            for row in entries:
                row[j] = row[j] + ore_mul(row[i], q)
            R3 = OreMatrix(CFG1, entries).transpose_data()
            got = classify_tangent(R3)
            assert (got.d, got.k) == (base.d, base.k)

    def test_consistency_with_dimension_report(self):
        rng = random.Random(63)
        for _ in range(12):
            n = rng.randint(1, 3)
            gens = [rand_modelement(rng, CFG1, n, max_ord=2, nonzero=True)
                    for _ in range(rng.randint(1, 2))]
            cs = characteristic_set(gens, orderly_ranking(n),
                                    config=CFG1, n=n)
            report = dimension_report(cs)
            R = from_columns(CFG1, [g.operator_vector() for g in gens], n)
            tc = classify_tangent(R)
            assert tc.d == report.diff_dimension
            assert tc.k <= report.free_term
            assert tc.k <= report.below_leader_count
            assert tc.k == sum(tc.torsion_degrees)
