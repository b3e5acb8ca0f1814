"""Exact dense matrices over the integers.

Everything downstream (lattice arithmetic, normal forms, cohomology) is built
on top of this module.  Matrices are immutable: entries are stored row-major
as a tuple of tuples of Python ints, so arbitrary precision comes for free and
values can be hashed, compared and shared freely between threads.

The two workhorses are :func:`smith_form` and :func:`inverse_unimodular`.
The Smith reduction always picks the nonzero entry of smallest absolute
value, breaking ties by lowest (row, col), so equal inputs produce identical
transforms; several callers rely on that for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class IntMatrix:
    """Immutable matrix over the integers.

    Entries are stored as given, so they must already be ints; input from
    outside the program goes through from_json, which checks them.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Sequence[int]], cols: int | None = None):
        rows = tuple(tuple(row) for row in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            if cols is None:
                cols = 0
            width = cols
        if cols is not None and rows and cols != width:
            raise ValueError("explicit cols does not match row length")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "data", rows)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("IntMatrix is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix([[0] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def diagonal(entries: Sequence[int]) -> "IntMatrix":
        n = len(entries)
        return IntMatrix([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    # -- basic queries -------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.data)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.data]!r})"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def is_identity(self) -> bool:
        return self.rows == self.cols and all(
            self.data[i][j] == (1 if i == j else 0)
            for i in range(self.rows)
            for j in range(self.cols)
        )

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
            cols=self.cols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
            cols=self.cols,
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-a for a in r] for r in self.data], cols=self.cols)

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix([[c * a for a in r] for r in self.data], cols=self.cols)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        od = other.data
        out = []
        for r in self.data:
            row = [0] * other.cols
            for k, a in enumerate(r):
                if a:
                    ork = od[k]
                    for j in range(other.cols):
                        row[j] += a * ork[j]
            out.append(row)
        return IntMatrix(out, cols=other.cols)

    def apply(self, vec: Sequence[int]) -> tuple:
        """Matrix times column vector, returned as a tuple."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * v for a, v in zip(r, vec)) for r in self.data)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def mod(self, q: int) -> "IntMatrix":
        return IntMatrix([[a % q for a in r] for r in self.data], cols=self.cols)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return IntMatrix(
            [r1 + r2 for r1, r2 in zip(self.data, other.data)], cols=self.cols + other.cols
        )

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ValueError("col count mismatch")
        return IntMatrix(self.data + other.data, cols=self.cols)

    def _same_shape(self, other: "IntMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "data": [list(r) for r in self.data]}

    @staticmethod
    def from_json(obj: dict) -> "IntMatrix":
        """Read {"rows", "cols", "data"}; every entry must be a JSON integer."""
        data = obj["data"]
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ValueError("matrix data must be a list of rows")
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
        return tuple(self.D.data[i][i] for i in range(min(self.D.rows, self.D.cols)))

    def invariants(self) -> tuple:
        """Nonzero diagonal entries (the elementary divisors)."""
        return tuple(d for d in self.diagonal() if d != 0)

    def rank(self) -> int:
        return len(self.invariants())


def _pivot_min_abs(d, s, rows, cols):
    """Smallest nonzero |entry| in the trailing block, ties by (row, col)."""
    best = None
    for i in range(s, rows):
        di = d[i]
        for j in range(s, cols):
            v = di[j]
            if v and (best is None or abs(v) < best[0]):
                best = (abs(v), i, j)
                if best[0] == 1:
                    return best
    return best


def smith_form(A: IntMatrix) -> SmithForm:
    """Smith normal form with both transforms, deterministic pivoting."""
    rows, cols = A.rows, A.cols
    d = [list(r) for r in A.data]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def swap_rows(i1, i2):
        d[i1], d[i2] = d[i2], d[i1]
        u[i1], u[i2] = u[i2], u[i1]

    def swap_cols(j1, j2):
        for r in d:
            r[j1], r[j2] = r[j2], r[j1]
        for r in v:
            r[j1], r[j2] = r[j2], r[j1]

    def addmul_row(dst, src, c):
        drow, srow = d[dst], d[src]
        for j in range(cols):
            drow[j] += c * srow[j]
        urow, usrc = u[dst], u[src]
        for j in range(rows):
            urow[j] += c * usrc[j]

    def addmul_col(dst, src, c):
        for r in d:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    for s in range(min(rows, cols)):
        while True:
            piv = _pivot_min_abs(d, s, rows, cols)
            if piv is None:
                break
            _, pi, pj = piv
            if pi != s:
                swap_rows(s, pi)
            if pj != s:
                swap_cols(s, pj)
            if d[s][s] < 0:
                for j in range(cols):
                    d[s][j] = -d[s][j]
                for j in range(rows):
                    u[s][j] = -u[s][j]
            p = d[s][s]
            dirty = False
            for i in range(s + 1, rows):
                if d[i][s]:
                    q = d[i][s] // p
                    addmul_row(i, s, -q)
                    if d[i][s]:
                        dirty = True
            for j in range(s + 1, cols):
                if d[s][j]:
                    q = d[s][j] // p
                    addmul_col(j, s, -q)
                    if d[s][j]:
                        dirty = True
            if dirty:
                continue
            # Row and column are clear; force divisibility of the rest.
            bad = None
            for i in range(s + 1, rows):
                di = d[i]
                for j in range(s + 1, cols):
                    if di[j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            addmul_row(s, bad, 1)

    U = IntMatrix(u, cols=rows)
    V = IntMatrix(v, cols=cols)
    D = IntMatrix(d, cols=cols)
    return SmithForm(U=U, D=D, V=V)


def inverse_unimodular(A: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix with determinant +-1."""
    if A.rows != A.cols:
        raise ValueError("not square")
    sf = smith_form(A)
    if not all(d == 1 for d in sf.diagonal()):
        raise ValueError("matrix is not unimodular")
    # U A V = I  =>  A^{-1} = V U.
    return sf.V * sf.U


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
    from .lattices import _hnf_rows  # local import to avoid a cycle

    m, n = A.rows, A.cols
    if n == 0:
        return []
    if m == 0:
        return [tuple(1 if t == s else 0 for t in range(n)) for s in range(n)]
    stacked = []
    for j in range(n):
        row = [A.data[i][j] for i in range(m)]
        row.extend(1 if t == j else 0 for t in range(n))
        stacked.append(row)
    reduced = _hnf_rows(stacked, m + n)
    out = []
    for row in reduced:
        if any(row[:m]):
            continue
        out.append(tuple(row[m:]))
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
    C = sf.U * B
    out = []
    for i in range(A.rows):
        d = diag[i]
        row = []
        for j in range(B.cols):
            val = C.data[i][j]
            if val % d:
                raise ValueError("solution is not integral")
            row.append(val // d)
        out.append(row)
    return sf.V * IntMatrix(out, cols=B.cols)
