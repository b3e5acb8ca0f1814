"""Dense linear algebra over the two-element field.

F2Matrix mirrors IntMatrix but keeps entries reduced mod 2.  The solver
routines (rank, rref, nullspace, solve) are plain Gaussian elimination;
everything here is deterministic.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .intmat import IntMatrix


class F2Matrix:
    """Immutable matrix over GF(2); entries are 0/1 ints (given ints, reduced by & 1)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Sequence[int]], cols: int | None = None):
        rows = tuple(tuple(x & 1 for x in row) for row in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0 if cols is None else cols
        if cols is not None and rows and cols != width:
            raise ValueError("explicit cols does not match row length")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "data", rows)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("F2Matrix is immutable")

    @staticmethod
    def identity(n: int) -> "F2Matrix":
        return F2Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "F2Matrix":
        return F2Matrix([[0] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def from_int(M: IntMatrix) -> "F2Matrix":
        return F2Matrix(M.data, cols=M.cols)

    def to_int(self) -> IntMatrix:
        """The {0,1} integer lift."""
        return IntMatrix(self.data, cols=self.cols)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> tuple:
        return self.data[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.data)

    def __eq__(self, other):
        return (
            isinstance(other, F2Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash(("F2", self.rows, self.cols, self.data))

    def __repr__(self):
        return f"F2Matrix({[list(r) for r in self.data]!r})"

    def __add__(self, other: "F2Matrix") -> "F2Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return F2Matrix(
            [[a ^ b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
            cols=self.cols,
        )

    def __mul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        od = other.data
        out = []
        for r in self.data:
            row = [0] * other.cols
            for k, a in enumerate(r):
                if a:
                    ork = od[k]
                    for j in range(other.cols):
                        row[j] ^= ork[j]
            out.append(row)
        return F2Matrix(out, cols=other.cols)

    def apply(self, vec: Sequence[int]) -> tuple:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = []
        for r in self.data:
            s = 0
            for a, v in zip(r, vec):
                s ^= a & v & 1
            out.append(s)
        return tuple(out)

    def transpose(self) -> "F2Matrix":
        return F2Matrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def hstack(self, other: "F2Matrix") -> "F2Matrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        return F2Matrix(
            [r1 + r2 for r1, r2 in zip(self.data, other.data)], cols=self.cols + other.cols
        )

    def vstack(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.cols:
            raise ValueError("col count mismatch")
        return F2Matrix(self.data + other.data, cols=self.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "data": [list(r) for r in self.data]}

    @staticmethod
    def from_json(obj: dict) -> "F2Matrix":
        """Read {"rows", "cols", "data"}; every entry must be 0 or 1."""
        m = IntMatrix.from_json(obj)
        if any(x not in (0, 1) for row in m.data for x in row):
            raise ValueError("GF(2) matrix entries must be 0 or 1")
        return F2Matrix(m.data, cols=m.cols)


def rref(A: F2Matrix) -> tuple["F2Matrix", list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = [list(r) for r in A.data]
    rows, cols = A.rows, A.cols
    pivots = []
    r = 0
    for j in range(cols):
        if r >= rows:
            break
        pr = None
        for i in range(r, rows):
            if m[i][j]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        for i in range(rows):
            if i != r and m[i][j]:
                m[i] = [a ^ b for a, b in zip(m[i], m[r])]
        pivots.append(j)
        r += 1
    return F2Matrix(m, cols=cols), pivots


def rank(A: F2Matrix) -> int:
    return len(rref(A)[1])


def nullspace(A: F2Matrix) -> list[tuple]:
    """Basis of {x : A x = 0} over GF(2)."""
    R, pivots = rref(A)
    free = [j for j in range(A.cols) if j not in pivots]
    basis = []
    for j in free:
        vec = [0] * A.cols
        vec[j] = 1
        for r, pj in enumerate(pivots):
            vec[pj] = R.data[r][j]
        basis.append(tuple(vec))
    return basis


def solve(A: F2Matrix, b: Sequence[int]):
    """One solution of A x = b over GF(2), or None."""
    aug = A.hstack(F2Matrix([[v] for v in b], cols=1) if A.rows else F2Matrix([], cols=1))
    R, pivots = rref(aug)
    if A.cols in pivots:
        return None
    x = [0] * A.cols
    for r, pj in enumerate(pivots):
        x[pj] = R.data[r][A.cols]
    return tuple(x)


def inverse(A: F2Matrix) -> F2Matrix:
    """Inverse of a square invertible matrix over GF(2)."""
    if A.rows != A.cols:
        raise ValueError("not square")
    n = A.rows
    R, pivots = rref(A.hstack(F2Matrix.identity(n)))
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise ValueError("matrix not invertible over GF(2)")
    return F2Matrix([r[n:] for r in R.data], cols=n)


def is_invertible(A: F2Matrix) -> bool:
    return A.rows == A.cols and rank(A) == A.rows
