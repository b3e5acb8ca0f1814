"""Exact integer matrices, stored by their nonzero entries.

Everything downstream (lattice arithmetic, normal forms, cohomology) is built
on top of this module.  Its matrices are mostly zeros: cochain differentials,
their Smith transforms and the action matrices are 2.7 to 13% nonzero.  So an
IntMatrix keeps only its nonzero entries, in compressed sparse row form: the
entries of row i are ``_idx[a:b]`` (columns, ascending) and ``_val[a:b]``
(values, nonzero Python ints, so arbitrary precision comes for free) for
a, b = ``_ptr[i]``, ``_ptr[i + 1]``.  Offsets and columns below 256 are kept
as bytes, so each equal matrix has one form.  Matrices are immutable and can
be hashed, compared and shared freely.  ``data``, the dense tuple of row
tuples, is built on each read and not kept: a matrix a program keeps costs
its nonzero entries only.

Products, ``apply`` and the reductions visit nonzero entries only.  Their
row operations are the classical ones (Cohen, *A Course in Computational
Algebraic Number Theory*, GTM 138, §2.4), in the order the dense code used,
so every result is the same matrix.  The two workhorses are
:func:`smith_form` and :func:`inverse_unimodular`, which reads the inverse
off the Hermite form of lattices._echelon.  The Smith reduction
always picks the nonzero entry of smallest absolute value, breaking ties by
lowest (row, col), so equal inputs produce identical transforms; several
callers rely on that for reproducibility.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain, compress, islice, pairwise
from operator import mul
from typing import Iterable, Sequence

_set = object.__setattr__
_new = object.__new__


def _fill(m: "IntMatrix", rows: int, cols: int, ptr, idx, val) -> "IntMatrix":
    # a byte per offset and column, against the eight of a tuple slot
    _set(m, "rows", rows)
    _set(m, "cols", cols)
    _set(m, "_ptr", bytes(ptr) if ptr[-1] < 256 else tuple(ptr))
    _set(m, "_idx", bytes(idx) if cols <= 256 else tuple(idx))
    _set(m, "_val", tuple(val))
    return m


def _make(rows: int, cols: int, ptr, idx, val) -> "IntMatrix":
    """An IntMatrix of entries already in sparse form, unchecked."""
    return _fill(_new(IntMatrix), rows, cols, ptr, idx, val)


def _sparse(data, cols: int) -> tuple:
    """(ptr, idx, val) of dense rows of length cols."""
    ptr = [0]
    idx: list = []
    val: list = []
    span = range(cols)
    for r in data:
        idx.extend(compress(span, r))
        val.extend(filter(None, r))
        ptr.append(len(idx))
    return ptr, idx, val


def _addmul(dst: dict, src: dict, c: int) -> None:
    """dst += c * src, for c != 0 and rows kept as {column: nonzero value}."""
    for j, x in src.items():
        y = dst.get(j, 0) + c * x
        if y:
            dst[j] = y
        else:
            del dst[j]


class IntMatrix:
    """Immutable matrix over the integers.

    Entries are stored as given, so they must already be ints; input from
    outside the program goes through from_json, which checks them.
    """

    __slots__ = ("rows", "cols", "_ptr", "_idx", "_val")

    def __init__(self, data: Iterable[Sequence[int]], cols: int | None = None):
        rows = [tuple(r) for r in data]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("explicit cols does not match row length")
        else:
            width = 0 if cols is None else cols
        _fill(self, len(rows), width, *_sparse(rows, width))

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("IntMatrix is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return _make(n, n, range(n + 1), range(n), (1,) * n)

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return _make(rows, cols, (0,) * (rows + 1), (), ())

    @staticmethod
    def diagonal(entries: Sequence[int]) -> "IntMatrix":
        return IntMatrix.from_dicts([{i: e} for i, e in enumerate(entries)], len(entries))

    @staticmethod
    def block(grid: Sequence[Sequence["IntMatrix"]]) -> "IntMatrix":
        """The block matrix whose i-th row of blocks is grid[i].

        The blocks of a row have equal row counts, those of a column equal
        column counts.
        """
        widths = [b.cols for b in grid[0]]
        ptr = [0]
        idx: list = []
        val: list = []
        for brow in grid:
            if [b.cols for b in brow] != widths or len({b.rows for b in brow}) != 1:
                raise ValueError("block shapes do not match")
            for i in range(brow[0].rows):
                off = 0
                for b in brow:
                    a, e = b._ptr[i], b._ptr[i + 1]
                    if a != e:
                        idx.extend([j + off for j in b._idx[a:e]] if off else b._idx[a:e])
                        val.extend(b._val[a:e])
                    off += b.cols
                ptr.append(len(idx))
        return _make(len(ptr) - 1, sum(widths), ptr, idx, val)

    @staticmethod
    def block_diagonal(blocks: Sequence["IntMatrix"]) -> "IntMatrix":
        """The blocks down the diagonal, zeros elsewhere."""
        return IntMatrix.block([[b if i == j else IntMatrix.zero(b.rows, c.cols)
                                 for j, c in enumerate(blocks)] for i, b in enumerate(blocks)])

    @staticmethod
    def from_dicts(rows: Sequence[dict], cols: int) -> "IntMatrix":
        """The matrix whose row i has the entries {column: value} of rows[i].

        Columns must lie in range(cols); zero values are dropped.
        """
        ptr = [0]
        idx: list = []
        val: list = []
        for r in rows:
            js = sorted(r)
            idx.extend(js)
            val.extend(map(r.__getitem__, js))
            ptr.append(len(idx))
        if 0 in val:
            kept = list(accumulate(map(bool, val), initial=0))
            ptr = [kept[p] for p in ptr]
            idx = list(compress(idx, val))
            val = list(filter(None, val))
        return _make(len(rows), cols, ptr, idx, val)

    # -- basic queries -------------------------------------------------

    @property
    def data(self) -> tuple:
        """The entries as a tuple of row tuples, built on each read."""
        idx, val = self._idx, self._val
        zero = [0] * self.cols
        out = []
        for a, b in pairwise(self._ptr):
            r = zero.copy()
            for k in range(a, b):
                r[idx[k]] = val[k]
            out.append(tuple(r))
        return tuple(out)

    def row_dicts(self) -> list:
        """The rows as dicts {column: nonzero value}."""
        idx, val = self._idx, self._val
        return [dict(zip(idx[a:b], val[a:b])) for a, b in pairwise(self._ptr)]

    def _col_dicts(self) -> list:
        """The columns as dicts {row: nonzero value}."""
        out: list = [{} for _ in range(self.cols)]
        idx, val = self._idx, self._val
        for i, (a, b) in enumerate(pairwise(self._ptr)):
            for k in range(a, b):
                out[idx[k]][i] = val[k]
        return out

    def echelon_coords(self, v: list) -> list:
        """Coordinates of v over the rows of a matrix in row echelon form with
        positive pivots, as kernel_basis returns it; v, a list, is left
        holding the remainder.

        A zero remainder means exactly that v lies in the row lattice.  A
        remainder at a pivot stays in v, since later rows start further
        right, so one test of v at the end rejects every non-member.  A row
        is read only where v is nonzero at its pivot.
        """
        idx, val = self._idx, self._val
        out = []
        for a, b in pairwise(self._ptr):
            x = v[idx[a]]
            q = x // val[a] if x else 0
            if q:
                for j, y in zip(idx[a:b], val[a:b]):
                    v[j] -= q * y
            out.append(q)
        return out

    def __getitem__(self, ij):
        i, j = ij
        return self.row(i)[j]

    def row(self, i: int) -> tuple:
        i = range(self.rows)[i]
        a, b = self._ptr[i], self._ptr[i + 1]
        out = [0] * self.cols
        for j, x in zip(self._idx[a:b], self._val[a:b]):
            out[j] = x
        return tuple(out)

    def col(self, j: int) -> tuple:
        j = range(self.cols)[j]
        idx, val = self._idx, self._val
        out = []
        for a, b in pairwise(self._ptr):
            k = bisect_left(idx, j, a, b)
            out.append(val[k] if k < b and idx[k] == j else 0)
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._ptr == other._ptr
            and self._idx == other._idx
            and self._val == other._val
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._ptr, self._idx, self._val))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]!r})"

    def is_zero(self) -> bool:
        return not self._val

    def is_identity(self) -> bool:
        return self == IntMatrix.identity(self.rows)

    # -- arithmetic ----------------------------------------------------

    def _plus(self, other: "IntMatrix", c: int) -> "IntMatrix":
        """self + c * other."""
        self._same_shape(other)
        idx, val, oidx, oval = self._idx, self._val, other._idx, other._val
        ptr = [0]
        out_idx: list = []
        out_val: list = []
        for (a, b), (e, f) in zip(pairwise(self._ptr), pairwise(other._ptr)):
            if e == f:
                out_idx.extend(idx[a:b])
                out_val.extend(val[a:b])
            else:
                acc = dict(zip(idx[a:b], val[a:b]))
                for j, x in zip(oidx[e:f], oval[e:f]):
                    acc[j] = acc.get(j, 0) + c * x
                for j in sorted(acc):
                    if acc[j]:
                        out_idx.append(j)
                        out_val.append(acc[j])
            ptr.append(len(out_idx))
        return _make(self.rows, self.cols, ptr, out_idx, out_val)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._plus(other, -1)

    def __neg__(self) -> "IntMatrix":
        return self.scale(-1)

    def scale(self, c: int) -> "IntMatrix":
        if not c:
            return IntMatrix.zero(self.rows, self.cols)
        return _make(self.rows, self.cols, self._ptr, self._idx, tuple(c * x for x in self._val))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        idx, val = self._idx, self._val
        optr, oidx, oval = other._ptr, other._idx, other._val
        width = other.cols
        zero = [0] * width
        out = []
        for a, b in pairwise(self._ptr):
            if a == b:
                out.append(zero)
                continue
            acc = zero.copy()
            for k, x in zip(idx[a:b], val[a:b]):
                c, d = optr[k], optr[k + 1]
                for j, y in zip(oidx[c:d], oval[c:d]):
                    acc[j] += x * y
            out.append(acc)
        return _make(self.rows, width, *_sparse(out, width))

    def apply(self, vec: Sequence[int]) -> tuple:
        """Matrix times column vector, returned as a tuple."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        prods = list(map(mul, self._val, map(vec.__getitem__, self._idx)))
        ptr = self._ptr
        return tuple(map(sum, map(prods.__getitem__, map(slice, ptr, islice(ptr, 1, None)))))

    def transpose(self) -> "IntMatrix":
        cols = self._col_dicts()
        ptr = tuple(accumulate(map(len, cols), initial=0))
        return _make(self.cols, self.rows, ptr, list(chain.from_iterable(cols)),
                     chain.from_iterable(c.values() for c in cols))

    def mod(self, q: int) -> "IntMatrix":
        out = self.row_dicts()
        for r in out:
            for j in r:
                r[j] %= q
        return IntMatrix.from_dicts(out, self.cols)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return IntMatrix.block([[self, other]])

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ValueError("col count mismatch")
        n = len(self._val)
        ptr = list(self._ptr)
        ptr.extend(n + p for p in islice(other._ptr, 1, None))
        return _make(self.rows + other.rows, self.cols, ptr, self._idx + other._idx,
                     self._val + other._val)

    def _same_shape(self, other: "IntMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def pack(self) -> bytes | None:
        """The sparse form as bytes (row offsets, columns, values, a byte
        each), or None when an offset, column or value does not fit a byte."""
        val = self._val
        if len(val) > 255 or self.cols > 256 or not all(-128 <= x < 128 for x in val):
            return None
        return bytes(self._ptr) + bytes(self._idx) + array("b", val).tobytes()

    @staticmethod
    def unpack(b: bytes, rows: int, cols: int) -> "IntMatrix":
        """The rows x cols matrix whose pack() is b."""
        nnz = b[rows]
        idx = b[rows + 1: rows + 1 + nnz]
        return _make(rows, cols, b[:rows + 1], idx, array("b", b[rows + 1 + nnz:]))

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "data": [list(r) for r in self.data]}

    @staticmethod
    def from_json(obj: dict) -> "IntMatrix":
        """Read {"rows", "cols", "data"}; every entry must be a JSON integer."""
        if not isinstance(obj, dict):
            raise ValueError("matrix: expected a JSON object with keys rows, cols and data")
        for key in ("rows", "cols"):
            if type(obj.get(key)) is not int or obj[key] < 0:
                raise ValueError(f"{key}: expected a non-negative integer")
        data = obj.get("data")
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ValueError("data: expected a list of rows")
        for row in data:
            for x in row:
                if type(x) is not int:  # also rejects bools
                    raise ValueError(f"matrix entry {x!r} is not an integer")
        m = IntMatrix(data, cols=obj["cols"])
        if m.rows != obj["rows"]:
            raise ValueError("row count disagrees with data")
        return m


@dataclass(frozen=True)
class SmithForm:
    """U * A * V = D with U, V unimodular and D diagonal, d_i | d_{i+1} >= 0."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> tuple:
        D = self.D
        out = [0] * min(D.rows, D.cols)
        for i, (a, b) in enumerate(islice(pairwise(D._ptr), len(out))):
            if a != b and D._idx[a] == i:
                out[i] = D._val[a]
        return tuple(out)

    def invariants(self) -> tuple:
        """Nonzero diagonal entries (the elementary divisors)."""
        return tuple(d for d in self.diagonal() if d != 0)

    def rank(self) -> int:
        return len(self.invariants())


def _pivot_min_abs(d: list, s: int):
    """Smallest nonzero |entry| in rows s.., ties by (row, col)."""
    best = None
    for i in range(s, len(d)):
        r = d[i]
        if r:
            a = min(map(abs, r.values()))
            if best is None or a < best[0]:
                best = (a, i, min(j for j, x in r.items() if abs(x) == a))
                if a == 1:
                    return best
    return best


def smith_form(A: IntMatrix) -> SmithForm:
    """Smith normal form with both transforms, deterministic pivoting.

    The rows of D and U and the columns of V are kept as dicts of their
    nonzero entries.  Step s leaves rows and columns before s cleared but for
    their pivots, so the rows from s on hold every nonzero entry of the
    columns from s on, and a column operation or swap visits those rows only.
    """
    rows, cols = A.rows, A.cols
    d = A.row_dicts()
    u = [{i: 1} for i in range(rows)]
    v = [{j: 1} for j in range(cols)]  # the columns of V

    def addmul_row(dst, src, c):
        _addmul(d[dst], d[src], c)
        _addmul(u[dst], u[src], c)

    def addmul_col(dst, src, c, s):
        for i in range(s, rows):
            r = d[i]
            x = r.get(src)
            if x:
                y = r.get(dst, 0) + c * x
                if y:
                    r[dst] = y
                else:
                    del r[dst]
        _addmul(v[dst], v[src], c)

    for s in range(min(rows, cols)):
        piv = _pivot_min_abs(d, s)
        if piv is None:
            break  # the rest of D is zero
        while True:
            _, pi, pj = piv
            if pi != s:
                d[s], d[pi] = d[pi], d[s]
                u[s], u[pi] = u[pi], u[s]
            if pj != s:
                for i in range(s, rows):
                    r = d[i]
                    x, y = r.pop(s, 0), r.pop(pj, 0)
                    if x:
                        r[pj] = x
                    if y:
                        r[s] = y
                v[s], v[pj] = v[pj], v[s]
            if d[s][s] < 0:
                d[s] = {j: -x for j, x in d[s].items()}
                u[s] = {j: -x for j, x in u[s].items()}
            ds = d[s]
            p = ds[s]
            dirty = False
            for i in range(s + 1, rows):
                x = d[i].get(s)
                if x:
                    addmul_row(i, s, -(x // p))
                    if s in d[i]:
                        dirty = True
            for j in sorted(ds):
                if j > s:
                    addmul_col(j, s, -(ds[j] // p), s)
                    if j in ds:
                        dirty = True
            if not dirty:
                # Row and column are clear; force divisibility of the rest,
                # which a unit pivot has already.
                if p == 1:
                    break
                bad = next((i for i in range(s + 1, rows) if any(x % p for x in d[i].values())),
                           None)
                if bad is None:
                    break
                addmul_row(s, bad, 1)
            piv = _pivot_min_abs(d, s)

    vrows: list = [{} for _ in range(cols)]
    for j, col in enumerate(v):
        for i, x in col.items():
            vrows[i][j] = x
    return SmithForm(U=IntMatrix.from_dicts(u, rows), D=IntMatrix.from_dicts(d, cols),
                     V=IntMatrix.from_dicts(vrows, cols))


def inverse_unimodular(A: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with determinant +-1.

    The rows (e_j A, e_j) span {(x A, x)}, whose Hermite form is [I | A^-1]
    exactly when A is unimodular.
    """
    from .lattices import _echelon  # local import to avoid a cycle

    if A.rows != A.cols:
        raise ValueError("not square")
    n = A.rows
    work = A.row_dicts()
    for j, row in enumerate(work):
        row[n + j] = 1
    rows = _echelon(work)
    if len(rows) != n or any(min(r) != i or r[i] != 1 for i, r in enumerate(rows)):
        raise ValueError("matrix is not unimodular")
    return IntMatrix.from_dicts([{t - n: x for t, x in r.items() if t >= n} for r in rows], n)


def determinant(A: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise ValueError("not square")
    n = A.rows
    if n == 0:
        return 1
    m = [list(r) for r in A.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def solve_int(A: IntMatrix, b: Sequence[int], sf: SmithForm | None = None):
    """One integer solution x of A x = b, or None if none exists.

    sf, when given, is smith_form(A): right-hand sides then share one reduction.
    """
    if sf is None:
        sf = smith_form(A)
    c = sf.U.apply(b)
    diag = sf.diagonal()
    y = [0] * A.cols
    for i in range(len(c)):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di:
                return None
            y[i] = c[i] // di
    return sf.V.apply(y)


def kernel_basis(A: IntMatrix) -> list[tuple]:
    """Basis of the saturated lattice {x : A x = 0}, as a list of vectors.

    Row-reduces [A^T | I] over Z; tags of the rows whose leading block
    vanishes form a kernel basis.  Much faster than a full Smith reduction
    on the sparse matrices this library produces.
    """
    from .lattices import _echelon  # local import to avoid a cycle

    m, n = A.rows, A.cols
    if n == 0:
        return []
    if m == 0:
        return [tuple(1 if t == s else 0 for t in range(n)) for s in range(n)]
    stacked = A._col_dicts()
    for j, row in enumerate(stacked):
        row[m + j] = 1
    out = []
    for row in _echelon(stacked):
        if min(row) >= m:
            vec = [0] * n
            for t, x in row.items():
                vec[t - m] = x
            out.append(tuple(vec))
    return out


def solve_matrix_exact(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """Unique rational solution X of A X = B, required to be integral.

    A must be square and nonsingular.  Raises if the solution is not
    integral; callers use this where integrality is a structural fact.
    """
    if A.rows != A.cols:
        raise ValueError("not square")
    sf = smith_form(A)
    diag = sf.diagonal()
    if any(d == 0 for d in diag):
        raise ValueError("singular matrix")
    out = []
    for d, row in zip(diag, (sf.U * B).row_dicts()):
        for j, x in row.items():
            if x % d:
                raise ValueError("solution is not integral")
            row[j] = x // d
        out.append(row)
    return sf.V * IntMatrix.from_dicts(out, B.cols)
