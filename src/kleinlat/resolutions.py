"""Free resolutions over the group ring and comparison maps between them.

Group ring elements are 4-tuples of integers against the basis (1, a, b, c).
The standard resolution has n-th term free on the degree-n monomials in two
variables, with differential

    d(x^k y^l) = (a + (-1)^k) x^(k-1) y^l + (-1)^k (b + (-1)^l) x^k y^(l-1).

The same formula over any generating pair (a', b') again resolves Z, which
gives cheap chain maps realizing group automorphisms.  The normalized bar
resolution is used in low degrees to turn polynomial cochains into
multiplication tables of group extensions, pulled back along the chain map
from the bar to the polynomial resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .checks import ensure
from .intmat import IntMatrix, solve_int
from .klein import A as ELT_A
from .klein import B as ELT_B
from .klein import E as ELT_E
from .klein import GROUP, GroupElt

RZERO = (0, 0, 0, 0)
RONE = (1, 0, 0, 0)

_IDX = {g: t for t, g in enumerate(GROUP)}


def r_of(g: GroupElt) -> tuple:
    out = [0, 0, 0, 0]
    out[_IDX[g]] = 1
    return tuple(out)


def r_add(r: tuple, s: tuple) -> tuple:
    return tuple(a + b for a, b in zip(r, s))


def r_scale(r: tuple, c: int) -> tuple:
    return tuple(c * a for a in r)


def r_mul(r: tuple, s: tuple) -> tuple:
    out = [0, 0, 0, 0]
    for i, gi in enumerate(GROUP):
        if r[i]:
            for j, gj in enumerate(GROUP):
                if s[j]:
                    out[_IDX[gi * gj]] += r[i] * s[j]
    return tuple(out)


def r_apply(module, r: tuple, vec):
    """Action of a group ring element on a module vector."""
    out = [0] * len(vec)
    for i, g in enumerate(GROUP):
        if r[i]:
            gv = module.apply(g, vec)
            for t in range(len(vec)):
                out[t] += r[i] * gv[t]
    return tuple(out)


def pull_back(M, R: "RMatrix", values) -> list:
    """The cochain values pulled back along the chain map R: the value on
    column j is sum_i R[i][j] values[i], the group ring acting on M."""
    out = []
    for j in range(R.cols):
        acc = (0,) * M.rank
        for i in range(R.rows):
            ent = R.data[i][j]
            if any(ent):
                acc = tuple([a + b for a, b in zip(acc, r_apply(M, ent, values[i]))])
        out.append(acc)
    return out


class RMatrix:
    """Matrix over the group ring (entries are coefficient 4-tuples)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
        rows = tuple(tuple(tuple(e) for e in row) for row in data)
        if rows:
            width = len(rows[0])
        else:
            width = 0 if cols is None else cols
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "data", rows)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("RMatrix is immutable")

    @staticmethod
    def zero(rows: int, cols: int) -> "RMatrix":
        return RMatrix([[RZERO] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(n: int) -> "RMatrix":
        return RMatrix([[RONE if i == j else RZERO for j in range(n)] for i in range(n)])

    def __mul__(self, other: "RMatrix") -> "RMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = RZERO
                for k in range(self.cols):
                    acc = r_add(acc, r_mul(self.data[i][k], other.data[k][j]))
                row.append(acc)
            out.append(row)
        return RMatrix(out, cols=other.cols)

    def __eq__(self, other):
        return (
            isinstance(other, RMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def column(self, j: int):
        return [self.data[i][j] for i in range(self.rows)]


def solve_r_columns(L: RMatrix, rhs_cols: list) -> RMatrix:
    """Solve L X = RHS column by column over the group ring.

    Existence is guaranteed by freeness/exactness wherever this is called;
    failure raises.
    """
    s, p = L.rows, L.cols
    rows = []
    for i in range(s):
        for gi in range(4):
            row = []
            for pp in range(p):
                ent = L.data[i][pp]
                for h in range(4):
                    # coefficient of basis h of unknown in output coord gi:
                    # (ent * e_h)_gi = ent_{gi * h}
                    gg = GROUP[gi] * GROUP[h]
                    row.append(ent[_IDX[gg]])
            rows.append(row)
    Amat = IntMatrix(rows, cols=4 * p)
    out_cols = []
    for col in rhs_cols:
        b = []
        for i in range(s):
            for gi in range(4):
                b.append(col[i][gi])
        x = solve_int(Amat, b)
        if x is None:
            raise ValueError("no solution")
        out_cols.append([tuple(x[4 * pp: 4 * pp + 4]) for pp in range(p)])
    return RMatrix(
        [[out_cols[j][i] for j in range(len(out_cols))] for i in range(p)],
        cols=len(out_cols),
    )


def poly_differential(n: int, gen_a: GroupElt = ELT_A, gen_b: GroupElt = ELT_B) -> RMatrix:
    """d: P_n -> P_{n-1} for the resolution built on a generating pair.

    Basis of P_n is indexed by the x-exponent k = 0..n (monomial x^k y^(n-k)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ra, rb = r_of(gen_a), r_of(gen_b)
    out = [[RZERO] * (n + 1) for _ in range(n)]
    for k in range(n + 1):
        l = n - k
        sk = 1 if k % 2 == 0 else -1
        sl = 1 if l % 2 == 0 else -1
        if k >= 1:
            term = r_add(ra, r_scale(RONE, sk))
            out[k - 1][k] = r_add(out[k - 1][k], term)
        if l >= 1:
            term = r_scale(r_add(rb, r_scale(RONE, sl)), sk)
            out[k][k] = r_add(out[k][k], term)
    return RMatrix(out, cols=n + 1)


def twist_chain_maps(image_a: GroupElt, image_b: GroupElt, up_to: int) -> list[RMatrix]:
    """Chain maps T_n from the (image_a, image_b) resolution to the standard one."""
    maps = [RMatrix.identity(1)]
    for n in range(1, up_to + 1):
        d_std = poly_differential(n)
        d_tw = poly_differential(n, image_a, image_b)
        rhs = maps[n - 1] * d_tw
        T = solve_r_columns(d_std, [rhs.column(j) for j in range(rhs.cols)])
        maps.append(T)
        ensure(d_std * T == rhs, f"the twisted chain map does not commute with d in degree {n}")
    return maps


# ---------------------------------------------------------------------------
# normalized bar resolution in low degrees
# ---------------------------------------------------------------------------

NONTRIV = (ELT_A, ELT_B, GroupElt(1, 1))
BAR1 = list(NONTRIV)
BAR2 = [(g, h) for g in NONTRIV for h in NONTRIV]


def bar_differential(n: int) -> RMatrix:
    if n == 1:
        return RMatrix([[r_add(r_of(g), r_scale(RONE, -1)) for g in BAR1]], cols=3)
    if n == 2:
        idx1 = {g: t for t, g in enumerate(BAR1)}
        out = [[RZERO] * 9 for _ in range(3)]
        for c, (g, h) in enumerate(BAR2):
            out[idx1[h]][c] = r_add(out[idx1[h]][c], r_of(g))
            gh = g * h
            if gh != ELT_E:
                out[idx1[gh]][c] = r_add(out[idx1[gh]][c], r_scale(RONE, -1))
            out[idx1[g]][c] = r_add(out[idx1[g]][c], RONE)
        return RMatrix(out, cols=9)
    raise ValueError("bar differential implemented for degrees 1 and 2")


@dataclass(frozen=True)
class ComparisonMaps:
    """Chain maps from the bar to the polynomial resolution, degrees <= 2."""

    u1: RMatrix  # B_1 -> P_1
    u2: RMatrix  # B_2 -> P_2


# the maps depend on nothing, and every extension built from a class reads them
@lru_cache(maxsize=None)
def comparison_maps() -> ComparisonMaps:
    """Solve for u once; it lifts the identity of Z."""
    dP1, dP2 = poly_differential(1), poly_differential(2)
    dB1, dB2 = bar_differential(1), bar_differential(2)
    u1 = solve_r_columns(dP1, [dB1.column(j) for j in range(3)])
    rhs = u1 * dB2
    u2 = solve_r_columns(dP2, [rhs.column(j) for j in range(9)])
    ensure(dP1 * u1 == dB1 and dP2 * u2 == u1 * dB2, "u is not a chain map from bar to polynomial")
    return ComparisonMaps(u1=u1, u2=u2)
