"""Matrix diagonalization over K[delta] and tangent-space classification."""

import random

import pytest

from diffalg import (Diagonalization, DiffFieldConfig, MPoly, ModElement,
                     OreMatrix, OrePoly, RatFun, TangentClass,
                     UnsupportedForPartial, characteristic_set,
                     classify_presentation, diagonalize, dimension_report,
                     ore_divmod, ore_mul, orderly_ranking)
from diffalg import normalform
from diffalg.normalform import _verify
from helpers import rand_modelement, rand_orepoly

CFG1 = DiffFieldConfig(1, 1)
CFG10 = DiffFieldConfig(1, 0)
T = RatFun.var(1, 0)


def op(value):
    return OrePoly.from_scalar(CFG1, value)


def delta():
    return OrePoly.delta(CFG1, 0)


def relation_matrix(*rows):
    """Matrix with rows as relations (the diagonalization orientation)."""
    return OreMatrix(CFG1, [list(r) for r in rows])


class TestOreMatrix:
    def test_public_constructor_checks_every_entry(self):
        other = OrePoly.one(DiffFieldConfig(1, 0))
        with pytest.raises(ValueError, match="different configuration"):
            OreMatrix(CFG1, [[delta(), op(1)], [op(T), other]])
        with pytest.raises(ValueError, match="ragged"):
            OreMatrix(CFG1, [[delta(), op(1)], [op(T)]])

    def test_internal_copies_keep_shape_and_config(self):
        d = delta()
        A = relation_matrix([d, op(T)], [op(1), d * d], [op(0), d])
        B = A.copy()
        B.entries[0][0] = op(2)
        assert A[0, 0] == d and B == relation_matrix(
            [op(2), op(T)], [op(1), d * d], [op(0), d])
        one = OreMatrix.identity(CFG1, 2)
        assert (one.rows, one.cols, one.config) == (2, 2, CFG1)
        assert A * one == A and OreMatrix.identity(CFG1, 3) * A == A
        assert (A * OreMatrix.zero(CFG1, 2, 4)) == OreMatrix.zero(CFG1, 3, 4)


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
            rows = rng.randint(1, 3)
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

    @pytest.mark.parametrize("side", ["_U", "_V"])
    def test_verify_rejects_a_changed_recorded_multiplier(self, side):
        rng = random.Random(66)
        changed = 0
        for _ in range(12):
            rows = rng.randint(2, 3)
            cols = rng.randint(2, 3)
            A = OreMatrix(CFG1, [[rand_orepoly(rng, CFG1, max_deg=2)
                                  for _ in range(cols)]
                                 for _ in range(rows)])
            res = diagonalize(A)
            ops = getattr(res, side).ops
            subtractions = [k for k, (i, j, q) in enumerate(ops)
                            if q is not None and i != j]
            if not subtractions:
                continue
            k = rng.choice(subtractions)
            i, j, q = ops[k]
            ops[k] = (i, j, q + rand_orepoly(rng, CFG1, max_deg=1,
                                             nonzero=True))
            with pytest.raises(AssertionError):
                _verify(A, res)
            changed += 1
        assert changed >= 6

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_verify_rejects_a_wrong_known_remainder(self, monkeypatch, side):
        # elimination writes the remainder the division returned into the
        # pivot column (row operations, right division) or the pivot row
        # (column operations, left division) without recomputing it
        calls = []

        def off_by_one(f, g, side):
            q, r = ore_divmod(f, g, side=side)
            calls.append(side)
            return q, (r + 1 if len(calls) == 1 else r)

        monkeypatch.setattr(normalform, "ore_divmod", off_by_one)
        d, t = delta(), op(T)
        entries = [d * d + t, t * d - 1]
        A = relation_matrix(*([e] for e in entries)) if side == "right" \
            else relation_matrix(entries)
        with pytest.raises(AssertionError, match=r"A\*V != U_inv\*D"):
            diagonalize(A)
        assert calls[0] == side

    def test_partial_rejected(self):
        cfg = DiffFieldConfig(2, 1)
        A = OreMatrix(cfg, [[OrePoly.delta(cfg, 0)]])
        with pytest.raises(UnsupportedForPartial):
            diagonalize(A)


def corrupted(rng, mat, kind, cells=None):
    """A copy of mat with one entry among `cells` (all, if None) changed by
    one corruption of `kind`, or None when no such entry is one that kind
    applies to."""
    config = mat.config
    if cells is None:
        cells = [(i, j) for i in range(mat.rows) for j in range(mat.cols)]
    if kind == "zero made nonzero":
        cells = [(i, j) for i, j in cells if mat[i, j].is_zero()]
    else:
        cells = [(i, j) for i, j in cells if not mat[i, j].is_zero()]
    if not cells:
        return None
    i, j = rng.choice(cells)
    e = mat[i, j]
    if kind == "zero made nonzero":
        e = rand_orepoly(rng, config, max_deg=2, nonzero=True)
    elif kind == "extra delta term":
        e = e + OrePoly.monomial(config, (e.degree() + 1,),
                                 rng.choice([1, -2, 3]))
    else:
        key = rng.choice(sorted(e.terms))
        c = e.terms[key]
        if kind == "numerator +-1":
            c = RatFun(c.num + MPoly.const(config.v, rng.choice([1, -1])),
                       c.den)
        else:
            # "denominator times (t+1)"; over Q, with no t, times 2
            factor = (T + 1).num if config.v else MPoly.const(0, 2)
            c = RatFun(c.num, c.den * factor)
        terms = dict(e.terms)
        terms[key] = c
        e = OrePoly(config, terms)
    out = mat.copy()
    out.entries[i][j] = e
    return out


CORRUPTIONS = ("numerator +-1", "denominator times (t+1)",
               "extra delta term", "zero made nonzero")


class TestVerifyProductCheck:
    @pytest.mark.parametrize("config", [CFG1, CFG10], ids=["v1", "v0"])
    def test_rejects_each_corruption(self, monkeypatch, config):
        # with the diagonal and inverse checks passed, A*V = U_inv*D alone
        # rejects a corrupted U_inv, D or A; a changed column k of U_inv
        # shows in U_inv*D only where D[k, k] is not zero
        monkeypatch.setattr(OreMatrix, "is_diagonal", lambda self: True)
        monkeypatch.setattr(OreMatrix, "is_identity", lambda self: True)
        rng = random.Random(67 + config.v)
        zero = OrePoly.zero(config)
        rejected = dict.fromkeys(
            ((kind, name) for kind in CORRUPTIONS
             for name in ("U_inv", "D", "A")), 0)
        for _ in range(30):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            A = OreMatrix(config, [[rand_orepoly(rng, config, max_deg=1)
                                    if rng.random() < 0.7 else zero
                                    for _ in range(cols)]
                                   for _ in range(rows)], rows, cols)
            res = diagonalize(A)
            pivots = [k for k, e in enumerate(res.D.diagonal()) if e]
            targets = {"U_inv": res.U_inv, "D": res.D, "A": A}
            for kind, name in rejected:
                cells = [(i, k) for i in range(rows) for k in pivots] \
                    if name == "U_inv" else None
                bad = corrupted(rng, targets[name], kind, cells)
                if bad is None:
                    continue
                parts = {"U": res._U, "D": res.D, "V": res._V,
                         "U_inv": res.U_inv, "V_inv": res.V_inv}
                if name != "A":
                    parts[name] = bad
                with pytest.raises(AssertionError,
                                   match=r"A\*V != U_inv\*D"):
                    _verify(bad if name == "A" else A,
                            Diagonalization(**parts))
                rejected[kind, name] += 1
        assert min(rejected.values()) >= 10, rejected


class TestClassifyTangent:
    def test_mixed_free_and_torsion(self):
        gens = [ModElement.from_operator_vector([OrePoly.zero(CFG1),
                                                 delta() - 1])]
        assert classify_presentation(CFG1, gens, 2)[0] \
            == TangentClass(1, 1, (1,))

    def test_unit_coordinate_gives_free_quotient(self):
        gens = [ModElement.from_operator_vector([OrePoly.one(CFG1),
                                                 op(T) * delta() - 1])]
        assert classify_presentation(CFG1, gens, 2)[0] \
            == TangentClass(1, 0, ())

    def test_zero_submodule(self):
        assert classify_presentation(CFG1, [], 2)[0] == TangentClass(2, 0, ())

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
            base, _ = classify_presentation(CFG1, gens, n)

            # appending a left combination of existing relations
            combo = [OrePoly.zero(CFG1)] * n
            for g in gens:
                q = rand_orepoly(rng, CFG1, max_deg=1)
                for i, e in enumerate(g.operator_vector()):
                    combo[i] = combo[i] + ore_mul(q, e)
            appended, _ = classify_presentation(
                CFG1, gens + [ModElement.from_operator_vector(combo)], n)
            assert (appended.d, appended.k) == (base.d, base.k)

            # unimodular change of the free-module basis: on the
            # rows-as-relations layout this is right multiplication by an
            # elementary matrix, i.e. col_j += col_i * q
            i, j = rng.sample(range(n), 2)
            q = rand_orepoly(rng, CFG1, max_deg=1)
            entries = [g.operator_vector() for g in gens]
            for row in entries:
                row[j] = row[j] + ore_mul(row[i], q)
            got = TangentClass.from_diagonal(
                n, diagonalize(OreMatrix(CFG1, entries)).D.diagonal())
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
            tc, _ = classify_presentation(CFG1, gens, n)
            assert tc.d == report.diff_dimension
            assert tc.k <= report.free_term
            assert tc.k <= report.below_leader_count
            assert tc.k == sum(tc.torsion_degrees)
