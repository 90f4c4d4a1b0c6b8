"""Diagonalization over the Euclidean ring K[delta] and tangent classification.

A presentation matrix R (n rows = module coordinates, s columns = relations)
describes M = K[delta]^n / leftspan(columns).  Internally the relations are
laid out as rows: in that orientation left multiplication recombines
relations and right multiplication changes the free-module basis, so both
are valid for left modules and the exact identity U*A*V = D holds with
ordinary matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnsupportedForPartial
from .ore import OrePoly, ore_divmod, ore_mul


class OreMatrix:
    """Rectangular matrix over K[Delta]."""

    __slots__ = ("config", "rows", "cols", "entries")

    def __init__(self, config, entries, rows=None, cols=None):
        self.config = config
        self.rows = len(entries) if rows is None else rows
        self.cols = (len(entries[0]) if entries else 0) if cols is None else cols
        self.entries = [list(row) for row in entries]
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
            for e in row:
                if e.config != config:
                    raise ValueError("entry over a different configuration")

    @classmethod
    def zero(cls, config, rows, cols):
        z = OrePoly.zero(config)
        return cls(config, [[z] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, config, size):
        m = cls.zero(config, size, size)
        one = OrePoly.one(config)
        for i in range(size):
            m.entries[i][i] = one
        return m

    @classmethod
    def from_columns(cls, config, columns, rows):
        """Columns given as lists of OrePoly of length rows."""
        z = OrePoly.zero(config)
        entries = [[z] * len(columns) for _ in range(rows)]
        for j, col in enumerate(columns):
            for i, e in enumerate(col):
                entries[i][j] = e
        return cls(config, entries, rows, len(columns))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def transpose_data(self):
        """Plain data transpose (no adjoint); entries are shared."""
        return OreMatrix(self.config,
                         [[self.entries[i][j] for i in range(self.rows)]
                          for j in range(self.cols)],
                         self.cols, self.rows)

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = OreMatrix.zero(self.config, self.rows, other.cols)
        for i in range(self.rows):
            for j in range(other.cols):
                acc = OrePoly.zero(self.config)
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a and b:
                        acc = acc + ore_mul(a, b)
                out.entries[i][j] = acc
        return out

    def __eq__(self, other):
        if not isinstance(other, OreMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) \
            and self.entries == other.entries

    def is_diagonal(self):
        return all(self.entries[i][j].is_zero()
                   for i in range(self.rows) for j in range(self.cols)
                   if i != j)

    def diagonal(self):
        return [self.entries[i][i] for i in range(min(self.rows, self.cols))]

    def copy(self):
        return OreMatrix(self.config, self.entries, self.rows, self.cols)

    def __repr__(self):
        return f"OreMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class Diagonalization:
    """U * A * V = D, with tracked inverses; all identities exact.

    D is canonical up to the pivot path: each nonzero diagonal entry is
    monic (leading coefficient 1), so a unit entry is exactly 1.
    """

    U: OreMatrix
    D: OreMatrix
    V: OreMatrix
    U_inv: OreMatrix
    V_inv: OreMatrix


@dataclass(frozen=True)
class TangentClass:
    """T_y = K^d x C^k: free rank d, torsion K-dimension k.

    torsion_degrees lists the degrees of the nonunit diagonal entries; the
    multiset may depend on the diagonalization path, k = sum does not.
    """

    d: int
    k: int
    torsion_degrees: tuple

    @classmethod
    def from_diagonal(cls, n, diagonal):
        """Read the class of K[delta]^n / (diagonal relations) off D."""
        nonzero = [e for e in diagonal if not e.is_zero()]
        degrees = sorted(e.degree() for e in nonzero if e.degree() > 0)
        return cls(n - len(nonzero), sum(degrees), tuple(degrees))

    def to_json(self):
        return {"d": self.d, "k": self.k,
                "torsion_degrees": list(self.torsion_degrees)}


def _require_ordinary(config):
    if config.m != 1:
        raise UnsupportedForPartial("diagonalization needs m = 1 "
                                    "(K[Delta] is not Euclidean otherwise)")


def diagonalize(A):
    """Diagonalize A over K[delta] by exact two-sided elementary operations.

    Row operations (left multiplications) recombine rows with left
    coefficients via right division; column operations (right
    multiplications) use left division.  Degree descent on the working
    corner terminates by the Euclidean property.  Whenever the pivot
    changes, its row is left-scaled by the inverse of its leading
    coefficient, so every nonzero entry of D is monic and a unit entry is
    1.  Verifies the result exactly (see _verify) before returning.
    """
    _require_ordinary(A.config)
    config = A.config
    work = A.copy()
    U = OreMatrix.identity(config, A.rows)
    U_inv = OreMatrix.identity(config, A.rows)
    V = OreMatrix.identity(config, A.cols)
    V_inv = OreMatrix.identity(config, A.cols)

    def swap_rows(i, j):
        if i == j:
            return
        work.entries[i], work.entries[j] = work.entries[j], work.entries[i]
        U.entries[i], U.entries[j] = U.entries[j], U.entries[i]
        for row in U_inv.entries:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        if i == j:
            return
        for row in work.entries:
            row[i], row[j] = row[j], row[i]
        for row in V.entries:
            row[i], row[j] = row[j], row[i]
        V_inv.entries[i], V_inv.entries[j] = V_inv.entries[j], V_inv.entries[i]

    def row_op(i, j, q):
        """row_i -= q * row_j."""
        for mat in (work, U):
            mat.entries[i] = [a - ore_mul(q, b)
                              for a, b in zip(mat.entries[i], mat.entries[j])]
        for row in U_inv.entries:
            row[j] = row[j] + ore_mul(row[i], q)

    def col_op(i, j, q):
        """col_i -= col_j * q."""
        for mat in (work, V):
            for row in mat.entries:
                row[i] = row[i] - ore_mul(row[j], q)
        V_inv.entries[j] = [a + ore_mul(q, b)
                            for a, b in zip(V_inv.entries[j], V_inv.entries[i])]

    def make_monic(p):
        """row_p = row_p / lc; column p of U_inv takes lc on the right."""
        _, lc = work.entries[p][p].leading()
        if lc.is_one():
            return
        inv = OrePoly.from_scalar(config, lc.inverse())
        for mat in (work, U):
            mat.entries[p] = [ore_mul(inv, b) for b in mat.entries[p]]
        lc = OrePoly.from_scalar(config, lc)
        for row in U_inv.entries:
            row[p] = ore_mul(row[p], lc)

    size = min(work.rows, work.cols)
    for p in range(size):
        # move a minimal-degree nonzero entry of the trailing block to (p,p)
        pivot = None
        for i in range(p, work.rows):
            for j in range(p, work.cols):
                e = work.entries[i][j]
                if not e.is_zero() and (pivot is None
                                        or e.degree() < pivot[2]):
                    pivot = (i, j, e.degree())
        if pivot is None:
            break
        swap_rows(p, pivot[0])
        swap_cols(p, pivot[1])
        while True:
            make_monic(p)
            # clear the column below/above the pivot with row operations
            dirty = False
            for i in range(work.rows):
                if i == p or work.entries[i][p].is_zero():
                    continue
                q, r = ore_divmod(work.entries[i][p], work.entries[p][p],
                                  side="right")
                row_op(i, p, q)
                if not r.is_zero():
                    swap_rows(i, p)
                    dirty = True
                    break
            if dirty:
                continue
            # clear the row with column operations (left division)
            for j in range(work.cols):
                if j == p or work.entries[p][j].is_zero():
                    continue
                q, r = ore_divmod(work.entries[p][j], work.entries[p][p],
                                  side="left")
                col_op(j, p, q)
                if not r.is_zero():
                    swap_cols(j, p)
                    dirty = True
                    break
            if dirty:
                continue
            if all(work.entries[i][p].is_zero()
                   for i in range(work.rows) if i != p):
                break

    result = Diagonalization(U=U, D=work, V=V, U_inv=U_inv, V_inv=V_inv)
    _verify(A, result)
    return result


def _verify(A, res):
    """Check the diagonalization exactly, without forming U*A*V.

    D is diagonal, U*U_inv = I, V_inv*V = I and U*A = D*V_inv; then
    U*A*V = D*V_inv*V = D.  A one-sided inverse of a square matrix over
    the Noetherian domain K[delta] is two-sided, so U and V are unimodular.
    Comparing U*A with D*V_inv avoids multiplying U*A by V: D*V_inv only
    left-multiplies each row of V_inv by one diagonal entry.
    """
    config = A.config
    if not res.D.is_diagonal():
        raise AssertionError("result is not diagonal")
    if res.U * res.U_inv != OreMatrix.identity(config, A.rows):
        raise AssertionError("U inverse check failed")
    if res.V_inv * res.V != OreMatrix.identity(config, A.cols):
        raise AssertionError("V inverse check failed")
    if res.U * A != res.D * res.V_inv:
        raise AssertionError("U*A != D*V_inv, so U*A*V != D")


def classify_tangent(R):
    """Classify M = K[delta]^n / leftspan(columns of R) as K^d x C^k.

    Only the invariants (d, k) are produced; the constants-basis change
    that trivializes the torsion part lives over the differential closure
    and is not constructed here.
    """
    return _classify_relations(R.transpose_data())


def _classify_relations(A):
    """The class of K[delta]^n / leftspan(rows of A), A with n columns."""
    return TangentClass.from_diagonal(A.cols, diagonalize(A).D.diagonal())
