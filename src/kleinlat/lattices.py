"""Integer lattices, Hermite form, and lifting of invertible matrices mod 2.

A ZLattice is a subgroup of Z^n held in row-style Hermite normal form
(positive pivots, entries above each pivot reduced into [0, pivot)), so two
lattices are equal iff their stored bases are equal.  On top of that sit
membership and coordinates; finite_quotient gives the structure of a
quotient K/I.  A lattice between 2 Z^n and Z^n is the lift of a GF(2) row
space, and lift_span reads its Hermite basis off one reduced echelon form.

The second half lifts an invertible matrix over GF(2) to a unimodular
integer matrix, which carries quiver-level automorphisms to honest
lattices, and works mod 2^k: the kernel of a matrix mod 2^k, as a lattice
containing 2^k Z^n, and the quotient of Z^s by a row space and 2^k Z^s.
Apart from lift_span, every elimination is the one integral Hermite
reduction (_echelon) or the integral Smith form (intmat.smith_form).  Inputs
are reduced mod 2^k, and so are the generators and coordinates of a
quotient; every step in between is integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd
from typing import Iterable, Sequence

from .checks import ensure
from .f2 import F2Matrix, rref
from .intmat import IntMatrix, _addmul, inverse_unimodular, smith_form


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _combine(c1: int, r1: dict, c2: int, r2: dict) -> dict:
    """c1 r1 + c2 r2 as a row {column: nonzero value}."""
    out = {j: c1 * x for j, x in r1.items()}
    for j, x in r2.items():
        out[j] = out.get(j, 0) + c2 * x
    return {j: x for j, x in out.items() if x}


def _echelon(vecs: Iterable[dict]) -> list[dict]:
    """Row-style HNF of rows {column: nonzero value}: zero rows dropped, rows
    in pivot order, positive pivots, entries above each pivot reduced.

    Each row is eliminated against the pivot rows from its leading column on,
    and a step visits the nonzero entries only; the input dicts are consumed.
    """
    piv: dict = {}  # pivot column -> its row
    for vec in vecs:
        while vec:
            j = min(vec)
            row = piv.get(j)
            if row is None:
                if vec[j] < 0:
                    vec = {t: -x for t, x in vec.items()}
                piv[j] = vec
                break
            a, b = row[j], vec[j]
            if b % a == 0:
                _addmul(vec, row, -(b // a))
            else:
                x, y, g = _xgcd(a, b)
                row, vec = _combine(x, row, y, vec), _combine(-b // g, row, a // g, vec)
                ensure(row.get(j) == g, "a combined pivot is not the gcd")
                piv[j] = row
    # reduce above pivots in ascending pivot order, so later reductions
    # cannot disturb already-reduced pivot columns
    basis = [piv[j] for j in sorted(piv)]
    for bi, row in enumerate(basis):
        j = min(row)
        p = row[j]
        for target in basis[:bi]:
            f = target.get(j, 0) // p
            if f:
                _addmul(target, row, -f)
    return basis


def _dense(row: dict, cols: int) -> list[int]:
    out = [0] * cols
    for j, x in row.items():
        out[j] = x
    return out


def _hnf_rows(rows: list[list[int]], cols: int) -> list[list[int]]:
    """Row-style HNF: positive pivots, reduced above, zero rows dropped."""
    span = range(cols)
    vecs = [dict(zip(compress(span, r), filter(None, r))) for r in rows]
    return [_dense(r, cols) for r in _echelon(vecs)]


class ZLattice:
    """A sublattice of Z^n with canonical (Hermite) basis rows."""

    __slots__ = ("ambient_rank", "basis", "_pivots")

    def __init__(self, ambient_rank: int, rows: Iterable[Sequence[int]] = (), *, _canonical=False):
        object.__setattr__(self, "ambient_rank", ambient_rank)
        if _canonical:
            b = tuple(tuple(r) for r in rows)
        else:
            mat = [list(r) for r in rows]
            for r in mat:
                if len(r) != ambient_rank:
                    raise ValueError("row length differs from ambient rank")
            b = tuple(tuple(r) for r in _hnf_rows(mat, ambient_rank))
        object.__setattr__(self, "basis", b)
        object.__setattr__(
            self,
            "_pivots",
            tuple(next(t for t in range(ambient_rank) if row[t]) for row in b),
        )

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("ZLattice is immutable")

    @staticmethod
    def full(n: int) -> "ZLattice":
        return ZLattice(n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(n: int) -> "ZLattice":
        return ZLattice(n, [])

    def rank(self) -> int:
        return len(self.basis)

    def basis_matrix(self) -> IntMatrix:
        return IntMatrix(self.basis, cols=self.ambient_rank)

    def __eq__(self, other):
        return (
            isinstance(other, ZLattice)
            and self.ambient_rank == other.ambient_rank
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_rank, self.basis))

    def __repr__(self):
        return f"ZLattice({self.ambient_rank}, {[list(r) for r in self.basis]!r})"

    # -- membership and coordinates -------------------------------------

    def coords(self, vec: Sequence[int]):
        """Coefficients of vec over the basis rows, or None if not a member."""
        if len(vec) != self.ambient_rank:
            raise ValueError("vector length differs from ambient rank")
        v = list(vec)
        out = [0] * len(self.basis)
        for bi, b in enumerate(self.basis):
            j = self._pivots[bi]
            if v[j]:
                if v[j] % b[j]:
                    return None
                q = v[j] // b[j]
                out[bi] = q
                for t in range(j, self.ambient_rank):
                    v[t] -= q * b[t]
        if any(v):
            return None
        return tuple(out)

    def __contains__(self, vec) -> bool:
        return self.coords(vec) is not None

    def to_json(self) -> dict:
        return {"ambient_rank": self.ambient_rank, "basis": [list(r) for r in self.basis]}


def hnf(rows: Iterable[Sequence[int]], ambient_rank: int | None = None) -> ZLattice:
    """Canonical lattice generated by the given row vectors."""
    rows = [list(r) for r in rows]
    if ambient_rank is None:
        if not rows:
            raise ValueError("ambient rank required for an empty generating set")
        ambient_rank = len(rows[0])
    return ZLattice(ambient_rank, rows)


def lift_span(A: F2Matrix) -> ZLattice:
    """2 Z^n plus the {0,1} lift of A's row space, n = A.cols.

    Its Hermite basis is read off rref(A): the reduced row at each pivot
    column and 2 e_j at every other column j.  Those rows are in Hermite form
    already: a pivot 1 has only zeros above it, and a pivot 2 only 0s and 1s.
    """
    n = A.cols
    R, pivots = rref(A)
    reduced = dict(zip(pivots, R.data))
    rows = [reduced[j] if j in reduced else tuple(2 if t == j else 0 for t in range(n))
            for j in range(n)]
    return ZLattice(n, rows, _canonical=True)


# ---------------------------------------------------------------------------
# lifting mod 2
# ---------------------------------------------------------------------------


def lift_invertible(Abar: F2Matrix) -> IntMatrix:
    """Lift an invertible matrix over GF(2) to one over Z with det +-1.

    Take the {0,1} entry lift M.  Its Smith form U M V has odd diagonal, so
    M is congruent to U^{-1} V^{-1} mod 2, and that product is unimodular.
    """
    if Abar.rows != Abar.cols:
        raise ValueError("not invertible mod 2")
    n = Abar.rows
    if n == 0:
        return IntMatrix([], cols=0)
    M = Abar.to_int()
    sf = smith_form(M)
    diag = sf.diagonal()
    if len(diag) < n or any(d % 2 == 0 for d in diag):
        raise ValueError("not invertible mod 2")
    out = inverse_unimodular(sf.U) * inverse_unimodular(sf.V)
    ensure(F2Matrix.from_int(out) == Abar, "the unimodular lift does not reduce to the input")
    return out


# ---------------------------------------------------------------------------
# subgroups of (Z/2^k)^n
# ---------------------------------------------------------------------------


class Pow2Quotient:
    """Z^s modulo (row space of C + 2^k Z^s), with coordinates.

    invariants are the cyclic orders (powers of two, > 1).  Of the left
    Smith transform U only the rows at positions are kept, each reduced mod
    its order, in _rows: coordinates read no other.  generators[i], a vector
    of Z^s generating the i-th factor, is a column of U^-1 mod 2^k; the
    inverse is formed on first read of generators, and U is dropped then.
    """

    __slots__ = ("s", "k", "invariants", "positions", "_rows", "_U", "_generators")

    def __init__(self, s: int, k: int, invariants: tuple, positions: tuple,
                 rows: tuple, U: IntMatrix):
        self.s, self.k = s, k
        self.invariants, self.positions = invariants, positions
        self._rows = rows
        self._U = U
        self._generators = None

    @property
    def generators(self) -> tuple:
        """The columns of U^-1 at positions, mod 2^k, built on first read."""
        if self._generators is None:
            q = 1 << self.k
            Uinv_cols = tuple(zip(*inverse_unimodular(self._U).data))
            self._generators = tuple(tuple(x % q for x in Uinv_cols[i]) for i in self.positions)
            self._U = None
        return self._generators

    def coords(self, vec) -> tuple:
        """Coordinates of vec: the rows of U at positions, each mod its order."""
        if len(vec) != self.s:
            raise ValueError("vector length mismatch")
        return tuple(
            sum(a * v for a, v in zip(row, vec)) % d
            for row, d in zip(self._rows, self.invariants)
        )


def pow2_quotient(C: IntMatrix, s: int, k: int) -> Pow2Quotient:
    """Quotient of Z^s by the subgroup generated by the rows of C and 2^k.

    With U C^T V = D the Smith form of C^T, the coordinates y = U x carry
    row space(C) + 2^k Z^s onto the sum of the gcd(d_i, 2^k) Z, where d_i = 0
    (or no d_i) counts as 2^k; the columns of U^-1 generate the factors.
    """
    q = 1 << k
    sf = smith_form(C.transpose())
    diag = sf.diagonal()
    orders = [gcd(d, q) for d in diag] + [q] * (s - len(diag))
    positions = tuple(i for i, d in enumerate(orders) if d != 1)
    U = sf.U.data
    return Pow2Quotient(
        s=s,
        k=k,
        invariants=tuple(orders[i] for i in positions),
        positions=positions,
        rows=tuple(tuple(x % orders[i] for x in U[i]) for i in positions),
        U=sf.U,
    )


def kernel_mod(A: IntMatrix, q: int) -> ZLattice:
    """The lattice {x in Z^n : A x = 0 mod q} (contains q Z^n), q a power of two.

    For A with m rows it is read off the Hermite form of the rows (q e_i, 0)
    and (A e_j, e_j) of Z^m x Z^n: the rows that vanish on Z^m are the Hermite
    basis of {(0, x) : A x = 0 mod q}.
    """
    m, n = A.rows, A.cols
    ensure(q > 0 and q & (q - 1) == 0, f"kernel_mod needs a power of two, not q = {q}")
    work = [{i: q} for i in range(m)]
    for j, col in enumerate(A._col_dicts()):
        row = {i: x % q for i, x in col.items() if x % q}
        row[m + j] = 1
        work.append(row)
    basis = [_dense({t - m: x for t, x in r.items()}, n) for r in _echelon(work) if min(r) >= m]
    return ZLattice(n, basis, _canonical=True)


@dataclass(frozen=True)
class FiniteQuotient:
    """The group K/I for lattices I <= K <= Z^n, I of finite index in K.

    invariants: orders (> 1, or 0 for a free factor) of the cyclic factors;
    generators: vectors in Z^n whose classes generate those factors.
    """

    invariants: tuple
    generators: tuple  # tuple of vectors


def finite_quotient(K: ZLattice, I: ZLattice) -> FiniteQuotient:
    """Structure of K/I as an abelian group, with generators."""
    n = K.ambient_rank
    coords = []
    for r in I.basis:
        c = K.coords(r)
        if c is None:
            raise ValueError("not a sublattice")
        coords.append(list(c))
    rk = len(K.basis)
    if rk == 0:
        return FiniteQuotient((), ())
    C = IntMatrix(coords, cols=rk) if coords else IntMatrix.zero(0, rk)
    sf = smith_form(C)
    diag = [0] * rk
    for i, d in enumerate(sf.diagonal()):
        diag[i] = d
    Vinv = inverse_unimodular(sf.V)
    # In the K-basis given by the rows of Vinv, the sublattice I is spanned by
    # diag[i] times row i; factors with diag != 1 survive in the quotient.
    invariants = []
    gens = []
    for i in range(rk):
        d = diag[i]
        if d == 1:
            continue
        invariants.append(d)
        vec = [0] * n
        for c, row in zip(Vinv.row(i), K.basis):
            if c:
                vec = [v + c * x for v, x in zip(vec, row)]
        gens.append(tuple(vec))
    return FiniteQuotient(tuple(invariants), tuple(gens))
