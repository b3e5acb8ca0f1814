"""The Kleinian 4-group and its lattices.

A KLattice is a free abelian group of finite rank carrying two commuting
integer involutions, the actions of the generators a and b.  Vectors are
columns; act_a and act_b multiply from the left.

The central construction is the sharp closure M^# = sum of the four
eigenprojections of M.  Since the projections e_ab = (1 + a)(1 + b)/4 have
denominator 4, all sharp data is returned scaled by a common denominator
(1, 2 or 4), the smallest one that clears every component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .checks import ensure
from .intmat import IntMatrix, kernel_basis, smith_form
from .lattices import ZLattice, finite_quotient, hnf

SIGN_PAIRS = (("+", "+"), ("+", "-"), ("-", "+"), ("-", "-"))
SIGN_KEYS = ("pp", "pm", "mp", "mm")


@dataclass(frozen=True)
class GroupElt:
    """Element a^i b^j of K; multiplication is componentwise xor."""

    i: int
    j: int

    def __post_init__(self):
        if self.i not in (0, 1) or self.j not in (0, 1):
            raise ValueError("exponents must be 0 or 1")

    def __mul__(self, other: "GroupElt") -> "GroupElt":
        return GroupElt(self.i ^ other.i, self.j ^ other.j)

    def name(self) -> str:
        return {(0, 0): "1", (1, 0): "a", (0, 1): "b", (1, 1): "c"}[(self.i, self.j)]


E = GroupElt(0, 0)
A = GroupElt(1, 0)
B = GroupElt(0, 1)
C = GroupElt(1, 1)
GROUP = (E, A, B, C)


@dataclass(frozen=True)
class SignPair:
    """One of the four characters of K."""

    alpha: str
    beta: str

    def __post_init__(self):
        if self.alpha not in "+-" or self.beta not in "+-":
            raise ValueError("signs must be '+' or '-'")

    @property
    def key(self) -> str:
        return ("p" if self.alpha == "+" else "m") + ("p" if self.beta == "+" else "m")

    @staticmethod
    def from_key(key: str) -> "SignPair":
        if key not in SIGN_KEYS:
            raise ValueError(f"unknown sign key {key!r}")
        return SignPair("+" if key[0] == "p" else "-", "+" if key[1] == "p" else "-")

    def value(self, g: GroupElt) -> int:
        out = 1
        if g.i and self.alpha == "-":
            out = -out
        if g.j and self.beta == "-":
            out = -out
        return out


SIGNS = tuple(SignPair(a, b) for a, b in SIGN_PAIRS)


@dataclass(frozen=True)
class DimVector:
    """(d_dot; d_pp, d_pm, d_mp, d_mm)."""

    d_dot: int
    d_pp: int
    d_pm: int
    d_mp: int
    d_mm: int

    @property
    def d_plus(self) -> int:
        return self.d_pp + self.d_pm + self.d_mp + self.d_mm

    def component(self, key: str) -> int:
        return getattr(self, "d_" + key)

    def as_tuple(self) -> tuple:
        return (self.d_dot, self.d_pp, self.d_pm, self.d_mp, self.d_mm)

    def to_json(self) -> list:
        return list(self.as_tuple())

    def __str__(self):
        return f"({self.d_dot};{self.d_pp},{self.d_pm},{self.d_mp},{self.d_mm})"


class KLattice:
    """Free Z-module with commuting involutions act_a, act_b.

    The lattice is immutable, so sharp(M), quiver.phi_data(M) and
    M.transposed() are kept on it (in _sharp, _phi and _transposed) from their
    first call; forget_phi() drops the first two.
    """

    __slots__ = ("rank", "act_a", "act_b", "_sharp", "_phi", "_transposed")

    def __init__(self, act_a: IntMatrix, act_b: IntMatrix):
        n = act_a.rows
        if act_a.cols != n or act_b.rows != n or act_b.cols != n:
            raise ValueError("action matrices must be square of equal size")
        ident = IntMatrix.identity(n)
        if act_a * act_a != ident or act_b * act_b != ident:
            raise ValueError("actions must be involutions")
        if act_a * act_b != act_b * act_a:
            raise ValueError("actions must commute")
        object.__setattr__(self, "rank", n)
        object.__setattr__(self, "act_a", act_a)
        object.__setattr__(self, "act_b", act_b)
        object.__setattr__(self, "_sharp", None)
        object.__setattr__(self, "_phi", None)
        object.__setattr__(self, "_transposed", None)

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("KLattice is immutable")

    def forget_phi(self) -> None:
        """Drop the kept sharp(M) and phi_data(M); a later call builds them again."""
        object.__setattr__(self, "_sharp", None)
        object.__setattr__(self, "_phi", None)

    def __eq__(self, other):
        return (
            isinstance(other, KLattice)
            and self.act_a == other.act_a
            and self.act_b == other.act_b
        )

    def __hash__(self):
        return hash((self.act_a, self.act_b))

    def __repr__(self):
        return f"KLattice(rank={self.rank})"

    def transposed(self) -> "KLattice":
        """The lattice with the transposed actions (the contragredient module)."""
        if self._transposed is None:
            t = KLattice(self.act_a.transpose(), self.act_b.transpose())
            object.__setattr__(self, "_transposed", t)
        return self._transposed

    def act(self, g: GroupElt) -> IntMatrix:
        m = IntMatrix.identity(self.rank)
        if g.i:
            m = self.act_a * m
        if g.j:
            m = self.act_b * m
        return m

    def apply(self, g: GroupElt, vec: Sequence[int]) -> tuple:
        out = tuple(vec)
        if g.i:
            out = self.act_a.apply(out)
        if g.j:
            out = self.act_b.apply(out)
        return out

    def direct_sum(self, other: "KLattice") -> "KLattice":
        diag = IntMatrix.block_diagonal
        return KLattice(diag([self.act_a, other.act_a]), diag([self.act_b, other.act_b]))

    def twist(self, image_a: GroupElt, image_b: GroupElt) -> "KLattice":
        """Module with the action precomposed with a |-> image_a, b |-> image_b."""
        return KLattice(self.act(image_a), self.act(image_b))

    def to_json(self) -> dict:
        return {"rank": self.rank, "a": self.act_a.to_json(), "b": self.act_b.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "KLattice":
        """Read {"a", "b", "rank"}; a and b must be JSON objects (see IntMatrix)."""
        if not isinstance(obj, dict):
            raise ValueError("lattice: expected a JSON object with keys a, b and rank")
        for key in ("a", "b"):
            if not isinstance(obj.get(key), dict):
                raise ValueError(f"{key}: expected a JSON object")
        if type(obj.get("rank")) is not int:
            raise ValueError("rank: expected an integer")
        m = KLattice(IntMatrix.from_json(obj["a"]), IntMatrix.from_json(obj["b"]))
        if m.rank != obj["rank"]:
            raise ValueError("rank disagrees with matrices")
        return m


def trivial_lattice(rank: int = 1) -> KLattice:
    ident = IntMatrix.identity(rank)
    return KLattice(ident, ident)


def regular_representation(copies: int = 1) -> KLattice:
    """ZK^copies with the regular action, basis grouped as (1, a, b, ab) blocks."""
    order = {g: t for t, g in enumerate(GROUP)}

    def perm(g: GroupElt) -> IntMatrix:
        rows = [None] * (4 * copies)
        for i in range(copies):
            for t, h in enumerate(GROUP):
                rows[4 * i + order[g * h]] = {4 * i + t: 1}
        return IntMatrix.from_dicts(rows, 4 * copies)

    return KLattice(perm(A), perm(B))


def diagonal_sign_lattice(multiplicities: Sequence[int]) -> KLattice:
    """Direct sum of sign modules with the given multiplicities (pp,pm,mp,mm)."""
    sa, sb = [], []
    for sp, mult in zip(SIGNS, multiplicities):
        sa.extend([1 if sp.alpha == "+" else -1] * mult)
        sb.extend([1 if sp.beta == "+" else -1] * mult)
    return KLattice(IntMatrix.diagonal(sa), IntMatrix.diagonal(sb))


def eigencomponent(M: KLattice, s: SignPair) -> ZLattice:
    """Saturated sublattice {u : a u = alpha u, b u = beta u}."""
    sa = 1 if s.alpha == "+" else -1
    sb = 1 if s.beta == "+" else -1
    ident = IntMatrix.identity(M.rank)
    stacked = (M.act_a - ident.scale(sa)).vstack(M.act_b - ident.scale(sb))
    return ZLattice(M.rank, kernel_basis(stacked), _canonical=True)


@dataclass(frozen=True)
class SharpData:
    """Scaled sharp closure of a KLattice.

    denom is the common denominator (1, 2 or 4): msharp is the lattice
    denom * M^#, and components[i] is denom * e_i M for the sign order
    (pp, pm, mp, mm).  It is kept on M, so the projectors 4 e_i, which
    quiver.phi_data reads once, are not; phi_data makes them and hands them
    to sharp.
    """

    denom: int
    msharp: ZLattice
    components: tuple

    def component(self, key: str) -> ZLattice:
        return self.components[SIGN_KEYS.index(key)]


def _projectors(M: KLattice) -> list[IntMatrix]:
    """The integer matrices 4 e_i = (1 ± a)(1 ± b) = 1 ± a ± b ± ab, in the sign order."""
    a, b, ab = M.act_a.row_dicts(), M.act_b.row_dicts(), (M.act_a * M.act_b).row_dicts()
    out = []
    for s in SIGNS:
        sa = 1 if s.alpha == "+" else -1
        sb = 1 if s.beta == "+" else -1
        rows = []
        for i in range(M.rank):
            row = {i: 1}
            for c, terms in ((sa, a[i]), (sb, b[i]), (sa * sb, ab[i])):
                for j, x in terms.items():
                    row[j] = row.get(j, 0) + c * x
            rows.append(row)
        out.append(IntMatrix.from_dicts(rows, M.rank))
    return out


def sharp(M: KLattice, projectors: list[IntMatrix] | None = None) -> SharpData:
    """M^# and its four eigencomponents, scaled by a common denominator.

    projectors, when given, is _projectors(M), made by a caller that reads
    them too.
    """
    if M._sharp is not None:
        return M._sharp
    raw_components = []  # lattices 4 e_i M
    for P in projectors or _projectors(M):  # 4 e_i M is spanned by the columns of P
        raw_components.append(hnf(P.transpose().data, M.rank))
    # smallest d | 4 with (4/d) dividing every component entrywise
    denom = 4
    for cand in (1, 2, 4):
        scale = 4 // cand
        ok = all(
            all(x % scale == 0 for row in L.basis for x in row) for L in raw_components
        )
        if ok:
            denom = cand
            break
    scale = 4 // denom
    components = tuple(
        ZLattice(M.rank, [[x // scale for x in row] for row in L.basis])
        for L in raw_components
    )
    msharp_rows = [list(r) for L in components for r in L.basis]
    msharp = hnf(msharp_rows, M.rank) if msharp_rows else ZLattice.zero(M.rank)
    data = SharpData(denom=denom, msharp=msharp, components=components)
    ensure(sum(L.rank() for L in components) == M.rank == msharp.rank(),
           "the sign components do not fill the lattice")
    object.__setattr__(M, "_sharp", data)
    return data


def two_msharp_in_m(M: KLattice):
    """The lattice 2 M^# expressed in the coordinates of M, or None.

    Returns None when 2 M^# is not contained in M (then M is not a module
    over the minimal overring).
    """
    sh = sharp(M)
    if sh.denom == 4:
        return None
    mult = 2 // sh.denom
    rows = [[mult * x for x in r] for r in sh.msharp.basis]
    L = ZLattice(M.rank, rows)
    if not ZLattice.full(M.rank).contains_lattice(L):
        return None
    return L


def is_A_lattice(M: KLattice) -> bool:
    """True iff 2 M^# is contained in M."""
    return two_msharp_in_m(M) is not None


def dim_vector(M: KLattice) -> DimVector:
    """The quintuple (d_dot; d_ab): sharp component ranks and dim M/2M^#."""
    sh = sharp(M)
    L = two_msharp_in_m(M)
    if L is None:
        raise ValueError("not an A-lattice")
    fq = finite_quotient(ZLattice.full(M.rank), L)
    ensure(all(d == 2 for d in fq.invariants), f"M/2M# is not elementary abelian: {fq.invariants}")
    d_dot = len(fq.invariants)
    comps = [c.rank() for c in sh.components]
    dv = DimVector(d_dot, *comps)
    ensure(dv.d_plus == M.rank, "the sign components do not fill the lattice")
    return dv


def invariant_sublattice_module(M: KLattice, S: ZLattice):
    """Split off a pure K-invariant sublattice S of the ambient of M.

    Returns (sub, quot, embed, project): sub and quot are KLattices, embed
    maps sub coordinates into M coordinates, project maps M coordinates onto
    quot coordinates.  S must be saturated and K-invariant.
    """
    n = M.rank
    s = S.rank()
    if s == 0:
        return (None, M, IntMatrix.zero(n, 0), IntMatrix.identity(n))
    Bm = S.basis_matrix()
    sf = smith_form(Bm)
    if not all(d == 1 for d in sf.invariants()):
        raise ValueError("sublattice is not pure")
    # columns of P = V^{-T}: first s columns span S
    from .intmat import inverse_unimodular

    P = inverse_unimodular(sf.V).transpose()
    Pinv = sf.V.transpose()

    def conj(act: IntMatrix) -> IntMatrix:
        return Pinv * act * P

    Aa, Ab = conj(M.act_a).data, conj(M.act_b).data
    for X in (Aa, Ab):
        if any(X[i][j] for i in range(s, n) for j in range(s)):
            raise ValueError("sublattice is not K-invariant")
    sub = KLattice(
        IntMatrix([r[:s] for r in Aa[:s]], cols=s),
        IntMatrix([r[:s] for r in Ab[:s]], cols=s),
    )
    quot = KLattice(
        IntMatrix([r[s:] for r in Aa[s:]], cols=n - s),
        IntMatrix([r[s:] for r in Ab[s:]], cols=n - s),
    )
    embed = IntMatrix([r[:s] for r in P.data], cols=s)
    project = IntMatrix(Pinv.data[s:], cols=n)
    return (sub, quot, embed, project)
