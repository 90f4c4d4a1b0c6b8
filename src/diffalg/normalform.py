"""Diagonalization over the Euclidean ring K[delta] and tangent classification.

M = K[delta]^n / leftspan(relations) is presented by the matrix A whose s
rows are the relations and whose n columns are the module coordinates: in
that orientation left multiplication recombines relations and right
multiplication changes the free-module basis, so both are valid for left
modules and the exact identity U*A*V = D holds with ordinary matrix
products.  `classify_presentation` is the one classification entry: it
lays module elements out as those rows and reads K^d x C^k off D.

The elimination keeps U_inv and V_inv as matrices but U and V as the
elementary operations that built them: when there are more relations
than columns, U's extra rows are left syzygies and swell far past A,
U_inv and V_inv.  The certificate checks D diagonal, U*U_inv = I and
V_inv*V = I by replaying the operations on the small inverses, and
A*V = U_inv*D by replaying V's operations on A; together these give
U*A*V = D with U and V unimodular, and the big U is never formed.  An
elimination step writes the remainder of its division into the pivot
column or row unrecomputed; the replay recomputes every entry in full.
"""

from __future__ import annotations

from .errors import UnsupportedForPartial
from .ore import OrePoly, ore_divmod, ore_mul
from .record import FrozenRecord


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
    def _of(cls, config, entries, rows, cols):
        """The matrix over the row lists `entries`, with no copy or check."""
        out = object.__new__(cls)
        out.config = config
        out.entries = entries
        out.rows, out.cols = rows, cols
        return out

    @classmethod
    def zero(cls, config, rows, cols):
        z = OrePoly.zero(config)
        return cls._of(config, [[z] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, config, size):
        m = cls.zero(config, size, size)
        one = OrePoly.one(config)
        for i in range(size):
            m.entries[i][i] = one
        return m

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __mul__(self, other):
        if not isinstance(other, OreMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = OreMatrix.zero(self.config, self.rows, other.cols)
        for x_row, acc in zip(self.entries, out.entries):
            # only nonzero entries of a row meet the rows of other
            for a, y_row in zip(x_row, other.entries):
                if a:
                    for j, b in enumerate(y_row):
                        if b:
                            acc[j] = acc[j] + ore_mul(a, b)
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

    def is_identity(self):
        return self.rows == self.cols and all(
            e.is_one() if i == j else not e
            for i, row in enumerate(self.entries) for j, e in enumerate(row))

    def diagonal(self):
        return [self.entries[i][i] for i in range(min(self.rows, self.cols))]

    def copy(self):
        return OreMatrix._of(self.config, [list(row) for row in self.entries],
                             self.rows, self.cols)

    def __repr__(self):
        return f"OreMatrix({self.rows}x{self.cols})"


class ElementaryProduct:
    """A square matrix kept as the elementary operations that built it.

    Each operation is a triple (i, j, q) as `_row_op` and `_col_op` read
    it.  With side "rows" the matrix is E_k*...*E_1 for the row operations
    E_1, ..., E_k in the order recorded, and X*M replays them on a copy of
    M; with side "cols" it is F_1*...*F_k for column operations, and M*X
    replays them on a copy of M.  `matrix` multiplies the product out.
    """

    __slots__ = ("config", "size", "side", "ops")

    def __init__(self, config, size, side):
        self.config = config
        self.size = size
        self.side = side
        self.ops = []

    def _replay(self, other, side, apply):
        if self.side != side or not isinstance(other, OreMatrix):
            return NotImplemented
        if (other.rows if side == "rows" else other.cols) != self.size:
            raise ValueError("dimension mismatch")
        out = other.copy()
        for op in self.ops:
            apply(out.entries, op)
        return out

    def __mul__(self, other):
        return self._replay(other, "rows", _row_op)

    def __rmul__(self, other):
        return self._replay(other, "cols", _col_op)

    def matrix(self):
        one = OreMatrix.identity(self.config, self.size)
        return self * one if self.side == "rows" else one * self


class Diagonalization(FrozenRecord):
    """U * A * V = D, with U_inv and V_inv; all identities exact.

    D is canonical up to the pivot path: each nonzero diagonal entry is
    monic (leading coefficient 1), so a unit entry is exactly 1.  U and V
    may be given as ElementaryProducts, as `diagonalize` gives them:
    reading the field `U` or `V` multiplies it out once and keeps the
    matrix.  `_verify` checks either form without multiplying it out.
    """

    __slots__ = ("_U", "D", "_V", "U_inv", "V_inv")
    _fields = ("U", "D", "V", "U_inv", "V_inv")

    def __init__(self, U: OreMatrix | ElementaryProduct, D: OreMatrix,
                 V: OreMatrix | ElementaryProduct, U_inv: OreMatrix,
                 V_inv: OreMatrix):
        for slot, value in zip(self.__slots__, (U, D, V, U_inv, V_inv)):
            object.__setattr__(self, slot, value)

    @property
    def U(self):
        return self._multiplied_out("_U")

    @property
    def V(self):
        return self._multiplied_out("_V")

    def _multiplied_out(self, slot):
        value = getattr(self, slot)
        if isinstance(value, ElementaryProduct):
            value = value.matrix()
            object.__setattr__(self, slot, value)
        return value


class TangentClass(FrozenRecord):
    """T_y = K^d x C^k: free rank d, torsion K-dimension k.

    torsion_degrees lists the degrees of the nonunit diagonal entries; the
    multiset may depend on the diagonalization path, k = sum does not.
    """

    __slots__ = _fields = ("d", "k", "torsion_degrees")

    def __init__(self, d: int, k: int, torsion_degrees: tuple):
        self._set_fields(d, k, torsion_degrees)

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
    1.  Each operation is applied to the working matrix, its inverse to
    U_inv or V_inv, and the operation itself is recorded in U or V (see
    ElementaryProduct).  Verifies the result exactly (see _verify) before
    returning.
    """
    _require_ordinary(A.config)
    config = A.config
    work = A.copy()
    U = ElementaryProduct(config, A.rows, "rows")
    U_inv = OreMatrix.identity(config, A.rows)
    V = ElementaryProduct(config, A.cols, "cols")
    V_inv = OreMatrix.identity(config, A.cols)
    # the least degree of the nonzero entries of each row of the trailing
    # block, None for a zero row; an operation marks the rows it changes
    # stale, and a column swap inside the block changes no row's least
    # degree
    low, stale = [None] * work.rows, set(range(work.rows))

    def row_op(op, inverse, k=None, e=None):
        """U <- E*U for the row operation E = op; U_inv <- U_inv*E^-1."""
        _row_op(work.entries, op, k, e)
        stale.update(op[:2])
        U.ops.append(op)
        _col_op(U_inv.entries, inverse)

    def col_op(op, inverse, k=None, e=None):
        """V <- V*F for the column operation F = op; V_inv <- F^-1*V_inv.
        col_j -= col_p*q changes row p alone, since it runs once column p
        is clear."""
        _col_op(work.entries, op, k, e)
        if op[2] is not None:
            stale.add(op[1])
        V.ops.append(op)
        _row_op(V_inv.entries, inverse)

    def swap_rows(i, j):
        if i != j:
            row_op((i, j, None), (i, j, None))

    def swap_cols(i, j):
        if i != j:
            col_op((i, j, None), (i, j, None))

    def make_monic(p):
        """row_p = row_p / lc; column p of U_inv takes lc on the right."""
        _, lc = work.entries[p][p].leading()
        if not lc.is_one():
            row_op((p, p, OrePoly.from_scalar(config, lc.inverse())),
                   (p, p, OrePoly.from_scalar(config, lc)))

    def clear_column(p):
        """Row operations by right division; True if a remainder is pivot."""
        for i in range(work.rows):
            if i != p and work.entries[i][p]:
                q, r = ore_divmod(work.entries[i][p], work.entries[p][p],
                                  side="right")
                row_op((i, p, q), (p, i, -q), p, r)
                if r:
                    swap_rows(i, p)
                    return True
        return False

    def clear_row(p):
        """Column operations by left division; True if a remainder is pivot."""
        for j in range(work.cols):
            if j != p and work.entries[p][j]:
                q, r = ore_divmod(work.entries[p][j], work.entries[p][p],
                                  side="left")
                col_op((j, p, q), (p, j, -q), p, r)
                if r:
                    swap_cols(j, p)
                    return True
        return False

    for p in range(min(work.rows, work.cols)):
        # move a minimal-degree nonzero entry of the trailing block to (p,p),
        # the first in row-major order among those of that degree: the
        # first in the first row of least degree
        for i in stale:
            low[i] = min((e.degree() for e in work.entries[i][p:] if e),
                         default=None)
        stale.clear()
        pivot = min(((low[i], i) for i in range(p, work.rows)
                     if low[i] is not None), default=None)
        if pivot is None:
            break
        degree, i = pivot
        swap_rows(p, i)
        swap_cols(p, next(j for j, e in enumerate(work.entries[p][p:], p)
                          if e and e.degree() == degree))
        # the row sweep starts once column p is clear, and its operations
        # col_j -= col_p*q leave that column clear: no re-check is needed
        make_monic(p)
        while clear_column(p) or clear_row(p):
            make_monic(p)

    result = Diagonalization(U=U, D=work, V=V, U_inv=U_inv, V_inv=V_inv)
    _verify(A, result)
    return result


def _row_op(rows, op, k=None, e=None):
    """Apply the row operation op = (i, j, q) to a list of rows in place:
    swap rows i and j when q is None, row_i = q*row_i when i == j, and
    row_i -= q*row_j otherwise; entry k of the new row_i becomes e."""
    i, j, q = op
    if q is None:
        rows[i], rows[j] = rows[j], rows[i]
    elif i == j:
        rows[i] = [ore_mul(q, b) for b in rows[i]]
    else:
        rows[i] = [e if c == k else a - ore_mul(q, b) if b else a
                   for c, (a, b) in enumerate(zip(rows[i], rows[j]))]


def _col_op(rows, op, k=None, e=None):
    """Apply the column operation op = (i, j, q) to a list of rows in
    place: swap columns i and j when q is None, col_i = col_i*q when
    i == j, and col_i -= col_j*q otherwise; row k of col_i becomes e."""
    i, j, q = op
    for c, row in enumerate(rows):
        if q is None:
            row[i], row[j] = row[j], row[i]
        elif i == j:
            row[i] = ore_mul(row[i], q)
        elif c == k:
            row[i] = e
        elif row[j]:
            row[i] = row[i] - ore_mul(row[j], q)


def _verify(A, res):
    """Check the diagonalization exactly, without forming U or V.

    Four identities: D is diagonal, U*U_inv = I, V_inv*V = I and
    A*V = U_inv*D.  Together they give U*A*V = U*U_inv*D = D, and since a
    one-sided inverse of a square matrix over the Noetherian domain
    K[delta] is two-sided, U and V are unimodular.  When U and V are kept
    as their elementary operations, U*U_inv replays U's row operations on
    a copy of U_inv, and V_inv*V and A*V replay V's column operations on
    V_inv and on A; in the inverse checks each intermediate is the inverse
    of the operations still to come, so nothing swells the way U itself
    does.  An explicit U or V is multiplied as an ordinary product.
    U_inv*D only scales the columns of U_inv; it is compared with A*V entry
    by entry.  Every identity is decided exactly and in full.
    """
    if not res.D.is_diagonal():
        raise AssertionError("result is not diagonal")
    if not (res._U * res.U_inv).is_identity():
        raise AssertionError("U inverse check failed")
    if not (res.V_inv * res._V).is_identity():
        raise AssertionError("V inverse check failed")
    if res.U_inv * res.D != A * res._V:
        raise AssertionError("A*V != U_inv*D, so U*A*V != D")


def classify_presentation(config, gens, n):
    """(class, diagonal of D) of K[delta]^n / leftspan(gens), the module
    elements gens read as the rows of the relation matrix.

    Only the invariants (d, k) are produced; the constants-basis change
    that trivializes the torsion part lives over the differential closure
    and is not constructed here.
    """
    diagonal = diagonalize(OreMatrix(
        config, [w.operator_vector() for w in gens if w], cols=n)).D.diagonal()
    return TangentClass.from_diagonal(n, diagonal), diagonal
