"""Linear algebra over the two-element field, one Python int per row.

F2Matrix mirrors IntMatrix, but row i is the int ``bits[i]``, bit j holding
column j, so adding rows is one XOR (the word-wise rows of M4RI: Albrecht,
Bard & Hart, ACM TOMS 37(1), 2010).  ``data``, the 0/1 row tuples, is built on
first read.  The solvers (rank, rref, nullspace, solve, inverse) eliminate to
the reduced row echelon form, which is unique, so every answer is
deterministic.
"""

from __future__ import annotations

from operator import xor
from typing import Iterable, Sequence

from .intmat import IntMatrix

_DIGITS = bytes(48 + (b & 1) for b in range(256))  # byte b -> ASCII digit of b mod 2
_VALUES = bytes.maketrans(b"01", b"\x00\x01")
_set = object.__setattr__


def _digits(row: Sequence[int]) -> bytes:
    """A row's entries mod 2 as ASCII digits, column 0 first."""
    if not isinstance(row, (tuple, list)):
        if isinstance(row, int):
            raise TypeError("matrix rows must be sequences")
        row = tuple(row)  # a one-shot iterator must survive the fallback below
    try:
        return bytes(row).translate(_DIGITS)
    except (TypeError, ValueError):  # entries outside 0..255
        return bytes([x & 1 for x in row]).translate(_DIGITS)


def _unpack(bits: int, width: int) -> tuple:
    # the marker bit at position width keeps the leading zeros; [:0:-1] drops it
    return tuple(format(bits | 1 << width, "b")[:0:-1].encode().translate(_VALUES))


def _make(bits: tuple, cols: int) -> "F2Matrix":
    """An F2Matrix of row ints already known to lie below 2**cols."""
    m = object.__new__(F2Matrix)
    _set(m, "rows", len(bits))
    _set(m, "cols", cols)
    _set(m, "bits", bits)
    _set(m, "_data", None)
    return m


class F2Matrix:
    """Immutable matrix over GF(2); entries are given as ints and reduced mod 2."""

    __slots__ = ("rows", "cols", "bits", "_data")

    def __init__(self, data: Iterable[Sequence[int]], cols: int | None = None):
        digits = [_digits(r) for r in data]
        if digits:
            width = len(digits[0])
            if any(len(d) != width for d in digits):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("explicit cols does not match row length")
        else:
            width = 0 if cols is None else cols
        bits = tuple(int(d[::-1] or b"0", 2) for d in digits)
        _set(self, "rows", len(digits))
        _set(self, "cols", width)
        _set(self, "bits", bits)
        _set(self, "_data", None)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("F2Matrix is immutable")

    @staticmethod
    def from_bits(bits: Iterable[int], cols: int) -> "F2Matrix":
        """The matrix whose row i is the int bits[i] (bit j = column j)."""
        bits = tuple(bits)
        if bits and (min(bits) < 0 or max(bits) >> cols):
            raise ValueError(f"row ints must lie in [0, 2**{cols})")
        return _make(bits, cols)

    @property
    def data(self) -> tuple:
        """The entries as a tuple of 0/1 row tuples."""
        if self._data is None:
            _set(self, "_data", tuple(_unpack(b, self.cols) for b in self.bits))
        return self._data

    @staticmethod
    def identity(n: int) -> "F2Matrix":
        return _make(tuple(1 << i for i in range(n)), n)

    @staticmethod
    def zero(rows: int, cols: int) -> "F2Matrix":
        return _make((0,) * rows, cols)

    @staticmethod
    def from_int(M: IntMatrix) -> "F2Matrix":
        return F2Matrix(M.data, cols=M.cols)

    def to_int(self) -> IntMatrix:
        """The {0,1} integer lift."""
        return IntMatrix(self.data, cols=self.cols)

    def __eq__(self, other):
        return (
            isinstance(other, F2Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash(("F2", self.rows, self.cols, self.bits))

    def __repr__(self):
        return f"F2Matrix({[list(r) for r in self.data]!r})"

    def __add__(self, other: "F2Matrix") -> "F2Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return _make(tuple(map(xor, self.bits, other.bits)), self.cols)

    def __mul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ob = other.bits
        out = []
        for r in self.bits:
            acc = 0
            while r:
                low = r & -r
                acc ^= ob[low.bit_length() - 1]
                r ^= low
            out.append(acc)
        return _make(tuple(out), other.cols)

    def apply(self, vec: Sequence[int]) -> tuple:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        v = int(_digits(vec)[::-1] or b"0", 2)
        return tuple((r & v).bit_count() & 1 for r in self.bits)

    def transpose(self) -> "F2Matrix":
        out = [0] * self.cols
        for i, r in enumerate(self.bits):
            bit = 1 << i
            while r:
                low = r & -r
                out[low.bit_length() - 1] |= bit
                r ^= low
        return _make(tuple(out), self.rows)

    def hstack(self, other: "F2Matrix") -> "F2Matrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        c = self.cols
        return _make(tuple(a | (b << c) for a, b in zip(self.bits, other.bits)), c + other.cols)

    def vstack(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.cols:
            raise ValueError("col count mismatch")
        return _make(self.bits + other.bits, self.cols)

    def is_zero(self) -> bool:
        return not any(self.bits)

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "data": [list(r) for r in self.data]}

    @staticmethod
    def from_json(obj: dict) -> "F2Matrix":
        """Read {"rows", "cols", "data"}; every entry must be 0 or 1."""
        m = IntMatrix.from_json(obj)
        if any(x not in (0, 1) for row in m.data for x in row):
            raise ValueError("GF(2) matrix entries must be 0 or 1")
        return F2Matrix(m.data, cols=m.cols)


def _pivot_rows(rows: Iterable[int]) -> dict:
    """An echelon basis of the span of some row ints, each under its lowest bit."""
    piv = {}
    for x in rows:
        while x:
            low = x & -x
            p = piv.get(low)
            if p is None:
                piv[low] = x
                break
            x ^= p
    return piv


def _reduced_rows(rows: Iterable[int]) -> dict:
    """The reduced row echelon basis of the span: no row holds another's pivot bit."""
    piv = _pivot_rows(rows)
    done = 0  # pivot bits above the current one; their rows are already reduced
    for low in sorted(piv, reverse=True):
        x = piv[low]
        hit = x & done
        while hit:
            b = hit & -hit
            x ^= piv[b]
            hit ^= b
        piv[low] = x
        done |= low
    return piv


class RowSpan:
    """The span of a matrix's rows, kept as echelon rows for membership tests."""

    __slots__ = ("_piv",)

    def __init__(self, A: F2Matrix):
        self._piv = _pivot_rows(A.bits)

    def __contains__(self, row: Sequence[int]) -> bool:
        x = int(_digits(row)[::-1] or b"0", 2)
        piv = self._piv
        while x:
            p = piv.get(x & -x)
            if p is None:
                return False
            x ^= p
        return True


def rref(A: F2Matrix) -> tuple["F2Matrix", list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    piv = _reduced_rows(A.bits)
    order = sorted(piv)
    rows = tuple(piv[b] for b in order) + (0,) * (A.rows - len(order))
    return _make(rows, A.cols), [b.bit_length() - 1 for b in order]


def rank(A: F2Matrix) -> int:
    return len(_pivot_rows(A.bits))


def nullspace_bits(A: F2Matrix) -> list[int]:
    """nullspace(A) as row ints."""
    piv = _reduced_rows(A.bits)
    free = ((1 << A.cols) - 1) ^ sum(piv)
    out = []
    while free:
        b = free & -free
        out.append(b | sum(low for low, x in piv.items() if x & b))
        free ^= b
    return out


def nullspace(A: F2Matrix) -> list[tuple]:
    """Basis of {x : A x = 0} over GF(2): for each free column j in turn, the
    solution with x_j = 1 and every other free coordinate 0."""
    return [_unpack(v, A.cols) for v in nullspace_bits(A)]


def solve(A: F2Matrix, b: Sequence[int]):
    """One solution of A x = b over GF(2), or None."""
    if len(b) != A.rows:
        raise ValueError("right-hand side length does not match the row count")
    top = 1 << A.cols
    piv = _reduced_rows(r | top if v & 1 else r for r, v in zip(A.bits, b))
    if top in piv:
        return None
    return _unpack(sum(low for low, x in piv.items() if x & top), A.cols)


def inverse(A: F2Matrix) -> F2Matrix:
    """Inverse of a square invertible matrix over GF(2)."""
    if A.rows != A.cols:
        raise ValueError("not square")
    n = A.rows
    piv = _reduced_rows(r | (1 << (n + i)) for i, r in enumerate(A.bits))
    if n and max(piv) >> n:
        raise ValueError("matrix not invertible over GF(2)")
    return _make(tuple(piv[1 << i] >> n for i in range(n)), n)


def is_invertible(A: F2Matrix) -> bool:
    return A.rows == A.cols and rank(A) == A.rows
