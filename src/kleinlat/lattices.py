"""Integer lattices, Hermite form, and lifting of invertible matrices mod 2.

A ZLattice is a subgroup of Z^n held in row-style Hermite normal form
(positive pivots, entries above each pivot reduced into [0, pivot)), so two
lattices are equal iff their stored bases are equal.  On top of that sit
sums, scaling, membership and coordinates; finite_quotient gives the
structure of a quotient K/I.

The second half lifts an invertible matrix over GF(2) to a unimodular
integer matrix, which carries quiver-level automorphisms to honest
lattices, and works in (Z/2^k)^n: Hermite and Smith forms mod 2^k,
kernels, annihilators and quotients.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

from .checks import ensure
from .f2 import F2Matrix
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


def _combine(c1: int, r1: dict, c2: int, r2: dict, q: int) -> dict:
    """c1 r1 + c2 r2, reduced mod q when q > 0, as a row {column: nonzero value}."""
    out = {j: c1 * x for j, x in r1.items()}
    for j, x in r2.items():
        out[j] = out.get(j, 0) + c2 * x
    if q:
        return {j: x % q for j, x in out.items() if x % q}
    return {j: x for j, x in out.items() if x}


def _addmul_mod(dst: dict, src: dict, c: int, q: int) -> None:
    """dst = (dst + c * src) mod q on the columns of src, rows as {column: nonzero value}."""
    for j, x in src.items():
        y = (dst.get(j, 0) + c * x) % q
        if y:
            dst[j] = y
        else:
            dst.pop(j, None)


def _echelon(vecs: Iterable[dict], q: int = 0) -> list[dict]:
    """Row-style HNF of rows {column: nonzero value}: zero rows dropped, rows
    in pivot order, positive pivots, entries above each pivot reduced.

    With q > 0 every elimination step is reduced mod q, which is sound when
    q Z^n lies in the span (see _hnf_rows_mod).  Each row is eliminated
    against the pivot rows from its leading column on, and a step visits the
    nonzero entries only; the input dicts are consumed.
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
                if q:
                    _addmul_mod(vec, row, -(b // a), q)
                else:
                    _addmul(vec, row, -(b // a))
            else:
                x, y, g = _xgcd(a, b)
                row, vec = _combine(x, row, y, vec, q), _combine(-b // g, row, a // g, vec, q)
                # x a + y b = g; with q > 0 the entries lie in (0, q], so g < q
                # and reduction mod q keeps it
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

    def contains_lattice(self, other: "ZLattice") -> bool:
        return all(self.coords(r) is not None for r in other.basis)

    # -- arithmetic ------------------------------------------------------

    def scale(self, c: int) -> "ZLattice":
        return ZLattice(self.ambient_rank, [[c * x for x in r] for r in self.basis])

    def sum(self, other: "ZLattice") -> "ZLattice":
        self._check(other)
        return ZLattice(self.ambient_rank, list(self.basis) + list(other.basis))

    def _check(self, other: "ZLattice"):
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("ambient ranks differ")

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


def _hnf_rows_mod(rows: list, cols: int, q: int) -> list[list[int]]:
    """HNF of (row span + q Z^n), entries reduced mod q at every step.

    Reduction is sound because multiples of q e_i lie in the lattice; the
    final basis equals the plain HNF but intermediate growth is impossible.
    """
    work = [{j: x % q for j, x in enumerate(r) if x % q} for r in rows]
    work.extend({i: q} for i in range(cols))
    return [_dense(r, cols) for r in _echelon(work, q)]


def hnf_mod(rows: Iterable[Sequence[int]], n: int, q: int) -> ZLattice:
    """HNF basis of the lattice spanned by rows together with q Z^n.

    Entries are reduced mod q throughout, so this stays fast for the
    mod 2^k computations; the result is a full-rank lattice containing qZ^n.
    """
    mat = [list(r) for r in rows]
    for r in mat:
        if len(r) != n:
            raise ValueError("row length differs from ambient rank")
    # the reduced rows are the Hermite form already
    return ZLattice(n, _hnf_rows_mod(mat, n, q), _canonical=True)


def _val2(x: int, k: int) -> int:
    """2-adic valuation of x mod 2^k, capped at k."""
    x &= (1 << k) - 1
    if x == 0:
        return k
    v = 0
    while x & 1 == 0:
        x >>= 1
        v += 1
    return v


def smith_mod_2k(A: IntMatrix, k: int, want_u: bool = True):
    """Diagonalize A over Z/2^k: U A V = diag(2^v_i) mod 2^k.

    Pivots are entries of minimal 2-adic valuation, so a single clearing
    pass per step suffices and entries never leave [0, 2^k).  Returns
    (U, vals, V) with U, V invertible mod 2^k, as lists of rows, and vals
    the pivot valuations; U is None when want_u is false.
    """
    q = 1 << k
    rows, cols = A.rows, A.cols
    m = [[x % q for x in r] for r in A.data]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)] if want_u else None
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    vals = []
    for s in range(min(rows, cols)):
        best = None
        for i in range(s, rows):
            mi = m[i]
            for j in range(s, cols):
                if mi[j]:
                    val = _val2(mi[j], k)
                    if best is None or val < best[0]:
                        best = (val, i, j)
                        if val == 0:
                            break
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        val, pi, pj = best
        if pi != s:
            m[pi], m[s] = m[s], m[pi]
            if want_u:
                u[pi], u[s] = u[s], u[pi]
        if pj != s:
            for r in m:
                r[pj], r[s] = r[s], r[pj]
            for r in v:
                r[pj], r[s] = r[s], r[pj]
        unit = m[s][s] >> val
        inv = pow(unit, -1, q)
        m[s] = [(x * inv) % q for x in m[s]]
        if want_u:
            u[s] = [(x * inv) % q for x in u[s]]
        p = 1 << val
        for i in range(s + 1, rows):
            if m[i][s]:
                f = m[i][s] // p
                mi, ms = m[i], m[s]
                for t in range(cols):
                    mi[t] = (mi[t] - f * ms[t]) % q
                if want_u:
                    ui, us = u[i], u[s]
                    for t in range(rows):
                        ui[t] = (ui[t] - f * us[t]) % q
        for j in range(s + 1, cols):
            if m[s][j]:
                f = m[s][j] // p
                for r in m:
                    r[j] = (r[j] - f * r[s]) % q
                for r in v:
                    r[j] = (r[j] - f * r[s]) % q
        vals.append(val)
    return u, vals, v


def annihilator_mod(L: ZLattice, q: int) -> ZLattice:
    """{w : <w, x> = 0 mod q for all x in L}, for lattices containing qZ^n."""
    if not L.basis:
        return ZLattice.full(L.ambient_rank)
    return kernel_mod(L.basis_matrix(), q)


def intersection_mod(L1: ZLattice, L2: ZLattice, q: int) -> ZLattice:
    """Intersection of two lattices containing qZ^n, all arithmetic mod q."""
    A1 = annihilator_mod(L1, q)
    A2 = annihilator_mod(L2, q)
    stacked = [list(r) for r in A1.basis] + [list(r) for r in A2.basis]
    if not stacked:
        return ZLattice.full(L1.ambient_rank)
    return kernel_mod(IntMatrix(stacked, cols=L1.ambient_rank), q)


def _inv_mod_2k(rows: Sequence[Sequence[int]], k: int) -> list[list[int]]:
    """Inverse mod 2^k of a square matrix with odd determinant, given and
    returned as rows."""
    q = 1 << k
    n = len(rows)
    a = [[x % q for x in r] + [1 if t == i else 0 for t in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = None
        for i in range(col, n):
            if a[i][col] % 2 == 1:
                piv = i
                break
        if piv is None:
            raise ValueError("matrix not invertible mod 2")
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], -1, q)
        a[col] = [(x * inv) % q for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % q for x, y in zip(a[i], a[col])]
    return [r[n:] for r in a]


@dataclass(frozen=True, slots=True)
class Pow2Quotient:
    """Z^s modulo (row space of C + 2^k Z^s), with coordinates.

    invariants are the cyclic orders (powers of two, > 1); generators[i] is a
    vector of Z^s generating the i-th factor.  Of the left Smith transform U
    only the rows at positions are kept, in _rows: coordinates read no other.
    """

    s: int
    k: int
    invariants: tuple
    positions: tuple
    generators: tuple
    _rows: tuple

    def coords(self, vec) -> tuple:
        """Coordinates of vec: the rows of U at positions, each mod its order."""
        if len(vec) != self.s:
            raise ValueError("vector length mismatch")
        return tuple(
            sum(a * v for a, v in zip(row, vec)) % d
            for row, d in zip(self._rows, self.invariants)
        )


def pow2_quotient(C: IntMatrix, s: int, k: int) -> Pow2Quotient:
    """Quotient of Z^s by the subgroup generated by the rows of C and 2^k."""
    q = 1 << k
    if C.rows == 0:
        Ct = IntMatrix.zero(s, 0)
    else:
        Ct = C.transpose()
    U, vals, _V = smith_mod_2k(Ct, k)
    vals = list(vals) + [k] * (s - len(vals))
    Uinv = _inv_mod_2k(U, k)
    invariants = []
    positions = []
    gens = []
    for i in range(s):
        d = 1 << vals[i]
        if d == 1:
            continue
        invariants.append(d)
        positions.append(i)
        gens.append(tuple(Uinv[t][i] % q for t in range(s)))
    return Pow2Quotient(
        s=s,
        k=k,
        invariants=tuple(invariants),
        positions=tuple(positions),
        generators=tuple(gens),
        _rows=tuple(tuple(U[p]) for p in positions),
    )


def kernel_mod(A: IntMatrix, q: int) -> ZLattice:
    """The lattice {x in Z^n : A x = 0 mod q} (contains q Z^n), q a power of two."""
    n = A.cols
    k = q.bit_length() - 1
    ensure(q == 1 << k, f"kernel_mod needs a power of two, not q = {q}")
    if A.rows == 0 or q == 1:
        return ZLattice.full(n)
    _U, vals, V = smith_mod_2k(A, k, want_u=False)
    gens = []
    for i in range(n):
        if i < len(vals):
            scale = 1 << (k - vals[i])
            gens.append([(scale * V[t][i]) % q for t in range(n)])
        else:
            gens.append([V[t][i] % q for t in range(n)])
    return hnf_mod(gens, n, q)


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
