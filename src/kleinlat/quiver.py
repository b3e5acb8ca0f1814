"""Representations of the 5-vertex star quiver over GF(2).

A LambdaRep assigns a space to the centre and to each of the four sign
vertices, with a map f_ab from the centre to each vertex.  The admissible
objects ("category R") are those with every f_ab surjective and the stacked
map injective; these correspond exactly to lattices over the minimal
overring, via phi() one way and lattice_of() the other.

decompose() is a Fitting splitter over GF(2): find an endomorphism in a
span search of End whose Fitting power is a proper idempotent-like
projection, split along its kernel and image, recurse.  identify_tube() names a regular indecomposable
by its point on the projective line, by invariants alone: odd special
members by their dimension vectors, even special ones by the one pair of
arms whose stacked map is not injective, homogeneous ones by the
characteristic polynomial f^e of the associated matrix pencil X.  Each
label is then confirmed: a special one by a scan against the named normal
form, a homogeneous one by the rank of f(X).

Isomorphism of indecomposables is a scan of a hom basis (_scan_iso): End X
is local, so when X and Y are isomorphic the non-isomorphisms X -> Y form a
proper subspace, which some basis element avoids.  reps_isomorphic() reads
the whole GF(2) span of Hom(V, W) up to 12 basis elements; above that it
splits both sides and matches the pieces (Krull-Schmidt).  The one search
left that can depend on the seed is the splitting itself: _find_splitting
reads the span through _span_elements, whole up to 12 basis elements and
above that the basis and 64 seeded random combinations.  tubes reads it for
the unit family too (9 basis elements, 512 draws).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .checks import ensure
from .f2 import F2Matrix, is_invertible, nullspace_bits, rank as f2_rank, rref
from .f2 import inverse as f2_inverse
from .intmat import IntMatrix, determinant, solve_matrix_exact
from .klein import (
    SIGN_KEYS,
    DimVector,
    KLattice,
    SharpData,
    _projectors,
    diagonal_sign_lattice,
    sharp,
    two_msharp_in_m,
)
from .lattices import ZLattice, finite_quotient, lift_invertible, lift_span
from .polys import F2Poly, char_poly, companion_matrix, primary_decomposition


class LambdaRep:
    """Representation of the star quiver over GF(2)."""

    __slots__ = ("dims", "f")

    def __init__(self, dims: DimVector, f: dict):
        if set(f) != set(SIGN_KEYS):
            raise ValueError("maps must be given for pp, pm, mp, mm")
        for key in SIGN_KEYS:
            m = f[key]
            if m.rows != dims.component(key) or m.cols != dims.d_dot:
                raise ValueError(f"map {key} has shape {m.rows}x{m.cols}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "f", dict(f))

    def __setattr__(self, *a):  # pragma: no cover - guard
        raise AttributeError("LambdaRep is immutable")

    def __eq__(self, other):
        return isinstance(other, LambdaRep) and self.dims == other.dims and self.f == other.f

    def __hash__(self):
        return hash((self.dims, tuple(self.f[k] for k in SIGN_KEYS)))

    def __repr__(self):
        return f"LambdaRep(dims={self.dims})"

    def stacked(self) -> F2Matrix:
        return F2Matrix.from_bits([r for k in SIGN_KEYS for r in self.f[k].bits], self.dims.d_dot)

    def direct_sum(self, other: "LambdaRep") -> "LambdaRep":
        dims = DimVector(
            self.dims.d_dot + other.dims.d_dot,
            *(self.dims.component(k) + other.dims.component(k) for k in SIGN_KEYS),
        )
        f = {}
        for key in SIGN_KEYS:
            m1, m2 = self.f[key], other.f[key]
            rows = m1.bits + tuple(r << m1.cols for r in m2.bits)
            f[key] = F2Matrix.from_bits(rows, m1.cols + m2.cols)
        return LambdaRep(dims, f)

    def to_json(self) -> dict:
        return {
            "dims": self.dims.to_json(),
            "f": {k: self.f[k].to_json() for k in SIGN_KEYS},
        }

    @staticmethod
    def from_json(obj: dict) -> "LambdaRep":
        """Read {"dims", "f"}; a ValueError names the JSON path at fault."""
        if not isinstance(obj, dict):
            raise ValueError("representation: expected a JSON object with keys dims and f")
        dims = obj.get("dims")
        if not (isinstance(dims, list) and len(dims) == 5
                and all(type(d) is int and d >= 0 for d in dims)):
            raise ValueError("dims: expected five non-negative integers")
        dims = DimVector(*dims)
        arms = obj.get("f")
        if not isinstance(arms, dict):
            raise ValueError("f: expected a JSON object with keys " + ", ".join(SIGN_KEYS))
        f = {}
        for k in SIGN_KEYS:
            if k not in arms:
                raise ValueError(f"f.{k}: missing")
            try:
                f[k] = F2Matrix.from_json(arms[k])
            except ValueError as e:
                raise ValueError(f"f.{k}: {e}") from None
            if (f[k].rows, f[k].cols) != (dims.component(k), dims.d_dot):
                raise ValueError(f"f.{k}: shape {f[k].rows}x{f[k].cols}, dims need "
                                 f"{dims.component(k)}x{dims.d_dot}")
        return LambdaRep(dims, f)


def in_category_R(V: LambdaRep) -> bool:
    """All maps surjective and the stacked map injective."""
    surjective = all(f2_rank(V.f[k]) == V.dims.component(k) for k in SIGN_KEYS)
    return surjective and f2_rank(V.stacked()) == V.dims.d_dot


@dataclass(frozen=True)
class RepMorphism:
    """Quintuple of maps intertwining two representations."""

    phi_dot: F2Matrix
    phi: dict  # key -> F2Matrix

    def __hash__(self):
        return hash((self.phi_dot, tuple(self.phi[k] for k in SIGN_KEYS)))

    def component(self, key: str) -> F2Matrix:
        return self.phi[key]

    def compose(self, other: "RepMorphism") -> "RepMorphism":
        return RepMorphism(
            self.phi_dot * other.phi_dot,
            {k: self.phi[k] * other.phi[k] for k in SIGN_KEYS},
        )

    def add(self, other: "RepMorphism") -> "RepMorphism":
        return RepMorphism(
            self.phi_dot + other.phi_dot,
            {k: self.phi[k] + other.phi[k] for k in SIGN_KEYS},
        )

    def is_zero(self) -> bool:
        return self.phi_dot.is_zero() and all(self.phi[k].is_zero() for k in SIGN_KEYS)

    def is_invertible(self) -> bool:
        return is_invertible(self.phi_dot) and all(is_invertible(self.phi[k]) for k in SIGN_KEYS)

    @staticmethod
    def identity(V: LambdaRep) -> "RepMorphism":
        return RepMorphism(
            F2Matrix.identity(V.dims.d_dot),
            {k: F2Matrix.identity(V.dims.component(k)) for k in SIGN_KEYS},
        )

    @staticmethod
    def zero(V: LambdaRep, W: LambdaRep) -> "RepMorphism":
        return RepMorphism(
            F2Matrix.zero(W.dims.d_dot, V.dims.d_dot),
            {k: F2Matrix.zero(W.dims.component(k), V.dims.component(k)) for k in SIGN_KEYS},
        )


def is_morphism(phi: RepMorphism, V: LambdaRep, W: LambdaRep) -> bool:
    return all(phi.phi[k] * V.f[k] == W.f[k] * phi.phi_dot for k in SIGN_KEYS)


def hom_reps(V: LambdaRep, W: LambdaRep) -> list[RepMorphism]:
    """GF(2)-basis of the space of morphisms V -> W."""
    dd, dd2 = V.dims.d_dot, W.dims.d_dot
    # one bit per unknown: phi_dot[k][j] is bit k*dd + j, then phi_key[i][k]
    # is bit offs[key] + i*c + k, each block row-major
    offs = {}
    total = dd2 * dd
    for key in SIGN_KEYS:
        offs[key] = total
        total += W.f[key].rows * V.f[key].rows
    rows = []
    for key in SIGN_KEYS:
        c = V.f[key].rows
        cols_v = V.f[key].transpose().bits  # column j of f_V; bit k is f_V[k][j]
        for i, w in enumerate(W.f[key].bits):
            # (phi_key f_V + f_W phi_dot)[i][j] = 0 for each j: row i of f_W,
            # spread to stride dd, selects column j of phi_dot once shifted by j
            spread = sum(1 << (k * dd) for k in range(dd2) if w >> k & 1)
            shift = offs[key] + i * c
            rows.extend((v << shift) | (spread << j) for j, v in enumerate(cols_v))

    def block(v: int, base: int, r: int, c: int) -> F2Matrix:
        mask = (1 << c) - 1
        return F2Matrix.from_bits([(v >> (base + i * c)) & mask for i in range(r)], c)

    return [
        RepMorphism(
            block(v, 0, dd2, dd),
            {k: block(v, offs[k], W.f[k].rows, V.f[k].rows) for k in SIGN_KEYS},
        )
        for v in nullspace_bits(F2Matrix.from_bits(rows, total))
    ]


# _find_splitting and reps_isomorphic see the whole span of a hom basis up to
# this many elements (see _span_elements).
_EXHAUSTIVE_BITS = 12


def _span_elements(basis: list[RepMorphism], exhaustive_bits: int, tries: int = 0, seed: int = 0):
    """The nonzero GF(2) combinations of a hom basis, in a fixed order.

    With at most exhaustive_bits elements: every combination, in increasing
    bit-mask order (bit t selects basis[t]).  Each is the previous one plus
    the elements whose bits flipped from mask - 1 to mask, so a step costs
    about two additions.  Above that: each basis element, then ``tries``
    draws from random.Random(seed), one coin per element, empty draws
    skipped.  Callers stop reading at their first hit.
    """
    n = len(basis)
    if n <= exhaustive_bits:
        cur = None
        for mask in range(1, 1 << n):
            for t in range((mask ^ (mask - 1)).bit_length()):
                cur = basis[t] if cur is None else cur.add(basis[t])
            yield cur
        return
    yield from basis
    rng = random.Random(seed)
    for _ in range(tries):
        cur = None
        for c in basis:
            if rng.random() < 0.5:
                cur = c if cur is None else cur.add(c)
        if cur is not None:
            yield cur


# ---------------------------------------------------------------------------
# the functor phi and its quasi-inverse
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiData:
    """phi(M) together with the choices that realize it.

    u_vectors are vectors of M whose classes are the chosen basis of
    M / 2 M^#; comp_coords[i] maps M-coordinates to coordinates in the
    basis of the (scaled) sharp component i.
    """

    rep: LambdaRep
    u_vectors: tuple
    sharp: SharpData
    comp_coords: tuple  # four IntMatrix, d_ab x rank
    two_msharp: ZLattice


def _embedding_matrix(d: PhiData) -> IntMatrix:
    """The four component coordinate matrices stacked: M into its sharp blocks."""
    E = IntMatrix.zero(0, d.comp_coords[0].cols)
    for Q in d.comp_coords:
        E = E.vstack(Q)
    return E


def _component_coord_matrix(M: KLattice, sh: SharpData, idx: int, P: IntMatrix) -> IntMatrix:
    """Coordinates in sharp component idx of the columns of its projector P."""
    comp = sh.components[idx]
    scale = 4 // sh.denom
    cols = []
    for w in zip(*P.data):  # column t of P: the projection of the t-th basis vector
        c = comp.coords(tuple(x // scale for x in w))
        ensure(c is not None, "projection of M not in its sharp component")
        cols.append(c)
    return IntMatrix(
        [[cols[t][i] for t in range(M.rank)] for i in range(comp.rank())], cols=M.rank
    )


def phi_data(M: KLattice) -> PhiData:
    """Full data of the quiver representation attached to an A-lattice.

    Built on the first call and kept on M.
    """
    if M._phi is not None:
        return M._phi
    projs = _projectors(M)
    sh = sharp(M, projs)
    L = two_msharp_in_m(M)
    if L is None:
        raise ValueError("not an A-lattice")
    fq = finite_quotient(ZLattice.full(M.rank), L)
    ensure(all(d == 2 for d in fq.invariants), "M / 2 M^# is not elementary abelian")
    u_vectors = fq.generators
    comp_coords = tuple(_component_coord_matrix(M, sh, i, P) for i, P in enumerate(projs))
    dims = DimVector(len(u_vectors), *(sh.components[i].rank() for i in range(4)))
    f = {
        key: F2Matrix([Q.apply(u) for u in u_vectors], cols=Q.rows).transpose()
        for key, Q in zip(SIGN_KEYS, comp_coords)
    }
    rep = LambdaRep(dims, f)
    ensure(in_category_R(rep), "phi(M) is not in category R")
    data = PhiData(
        rep=rep,
        u_vectors=tuple(u_vectors),
        sharp=sh,
        comp_coords=comp_coords,
        two_msharp=L,
    )
    object.__setattr__(M, "_phi", data)
    return data


def phi(M: KLattice) -> LambdaRep:
    return phi_data(M).rep


def lattice_of(V: LambdaRep) -> KLattice:
    """Realize V as a lattice between 2 Mtilde and Mtilde."""
    if not in_category_R(V):
        raise ValueError("not in category R")
    dims = V.dims
    n = dims.d_plus
    mult = tuple(dims.component(k) for k in SIGN_KEYS)
    ambient = diagonal_sign_lattice(mult)
    B = lift_span(V.stacked().transpose()).basis_matrix()
    ensure(B.rows == n, "the lattice of V does not have full rank")
    Bc = B.transpose()  # basis vectors as columns
    # both actions against one Smith form of Bc: the solution is unique, so
    # its two column blocks are the two one-sided solutions
    X = solve_matrix_exact(Bc, (ambient.act_a * Bc).hstack(ambient.act_b * Bc)).data
    act_a = IntMatrix([row[:n] for row in X], cols=n)
    act_b = IntMatrix([row[n:] for row in X], cols=n)
    return KLattice(act_a, act_b)


def lift_morphism(phi_m: RepMorphism, M: KLattice, N: KLattice) -> IntMatrix:
    """Integer K-map M -> N reducing to the given morphism phi(M) -> phi(N).

    It is E_N^-1 L E_M, E the embeddings into the sharp blocks and L the
    block-diagonal lift of the arms: their {0,1} lifts, or for an isomorphism
    their unimodular lifts (lift_invertible), so that the lift of an
    isomorphism is one, which is checked.
    """
    dM = phi_data(M)
    dN = phi_data(N)
    if not is_morphism(phi_m, dM.rep, dN.rep):
        raise ValueError("morphism incompatible with representations")
    iso = phi_m.is_invertible()
    lift = lift_invertible if iso else F2Matrix.to_int
    L = IntMatrix.block_diagonal([lift(phi_m.phi[key]) for key in SIGN_KEYS])
    psi = solve_matrix_exact(_embedding_matrix(dN), L * _embedding_matrix(dM))
    ensure(
        psi * M.act_a == N.act_a * psi and psi * M.act_b == N.act_b * psi,
        "lifted map is not K-equivariant",
    )
    if iso:
        ensure(abs(determinant(psi)) == 1, "the lift of an isomorphism is not unimodular")
    return psi


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def _vertex_matrices(phi_m: RepMorphism) -> list[F2Matrix]:
    return [phi_m.phi_dot] + [phi_m.phi[k] for k in SIGN_KEYS]


def _fitting_power(e: RepMorphism) -> RepMorphism:
    """e^(2^t) for t large enough that kernels and images stabilize."""
    cur = e
    prev_ranks = None
    for _ in range(24):
        ranks = tuple(f2_rank(m) for m in _vertex_matrices(cur))
        if ranks == prev_ranks:
            return cur
        prev_ranks = ranks
        cur = cur.compose(cur)
    return cur


def _subspace_basis(rows, width: int) -> tuple:
    """The reduced row echelon basis, as row ints, of the span of some row ints."""
    R, piv = rref(F2Matrix.from_bits(rows, width))
    return R.bits[: len(piv)]


def _restrict(V: LambdaRep, bases: dict) -> LambdaRep:
    """Subrepresentation spanned by given row bases at each vertex.

    Each basis is a sequence of row ints in reduced row echelon form, as
    _subspace_basis gives it, so a vector's coordinates in it are the
    vector's bits at the pivots (the lowest bit of each basis row).
    """
    dims = DimVector(len(bases["dot"]), *(len(bases[k]) for k in SIGN_KEYS))
    S = F2Matrix.from_bits(bases["dot"], V.dims.d_dot)
    f = {}
    for key in SIGN_KEYS:
        Bv = bases[key]
        cols = []
        for w in (S * V.f[key].transpose()).bits:  # f_key(s) for each s in the dot basis
            x = acc = 0
            for g, b in enumerate(Bv):
                if w & b & -b:
                    x |= 1 << g
                    acc ^= b
            ensure(acc == w, "subspaces not compatible with the maps")
            cols.append(x)
        f[key] = F2Matrix.from_bits(cols, len(Bv)).transpose()
    return LambdaRep(dims, f)


def decompose(V: LambdaRep, seed: int = 0) -> list[tuple[LambdaRep, int]]:
    """Indecomposable summands with multiplicities, deterministically ordered."""
    groups: list[list] = []
    for W, _path in _split_completely(V, seed):
        for g in groups:
            if _scan_iso(g[0], W) is not None:
                g.append(W)
                break
        else:
            groups.append([W])
    out = [(g[0], len(g)) for g in groups]
    out.sort(key=lambda t: (t[0].dims.as_tuple(), _rep_sort_key(t[0])))
    return out


def _rep_sort_key(W: LambdaRep):
    return tuple(tuple(W.f[k].data) for k in SIGN_KEYS)


_VERTICES = ("dot",) + SIGN_KEYS


def _vertex_dims(V: LambdaRep) -> list[int]:
    return [V.dims.d_dot] + [V.dims.component(k) for k in SIGN_KEYS]


def _split_completely(V: LambdaRep, seed: int, path: tuple = ()) -> list[tuple[LambdaRep, tuple]]:
    """The pieces of V that _find_splitting cannot split, each with its path.

    A piece's path is the bases of the splits that cut it out, the first
    split first, each in the coordinates of the piece it split (_inclusion
    reads it); a recursive call passes V's own path.
    """
    if V.dims.d_plus == 0 and V.dims.d_dot == 0:
        return []
    split = _find_splitting(V, hom_reps(V, V), seed)
    if split is None:
        return [(V, path)]
    out = []
    for W, bases in split:
        out += _split_completely(W, seed, path + (bases,))
    return out


def _inclusion(V: LambdaRep, path: tuple) -> list[F2Matrix]:
    """The inclusion into V of the piece at the end of a path of splits.

    One matrix per vertex, in _vertex_matrices order, whose columns are the
    piece's basis vectors in V's coordinates.
    """
    out = []
    for k, d in zip(_VERTICES, _vertex_dims(V)):
        E = F2Matrix.identity(d)  # rows: the current piece's basis in V's coordinates
        for bases in path:
            E = F2Matrix.from_bits(bases[k], E.rows) * E
        out.append(E.transpose())
    return out


def _find_splitting(V: LambdaRep, end: list[RepMorphism], seed: int):
    """((image, bases), (kernel, bases)) of a proper Fitting splitting, or None.

    The bases are the row bases, in V's coordinates, of the two summands
    at each vertex.
    """
    n = len(end)
    if n <= 1:
        return None

    def try_element(e: RepMorphism):
        pi = _fitting_power(e)
        mats = _vertex_matrices(pi)
        ranks = [f2_rank(m) for m in mats]
        if all(r == 0 for r in ranks) or ranks == _vertex_dims(V):
            return None
        im = {k: _subspace_basis(m.transpose().bits, m.rows) for k, m in zip(_VERTICES, mats)}
        ker = {k: _subspace_basis(nullspace_bits(m), m.cols) for k, m in zip(_VERTICES, mats)}
        Wim, Wker = _restrict(V, im), _restrict(V, ker)
        if Wim.dims.d_plus + Wim.dims.d_dot == 0 or Wker.dims.d_plus + Wker.dims.d_dot == 0:
            return None
        return ((Wim, im), (Wker, ker))

    for e in _span_elements(end, _EXHAUSTIVE_BITS, tries=64, seed=seed):
        got = try_element(e)
        if got is not None:
            return got
    return None


def _scan_iso(X: LambdaRep, Y: LambdaRep) -> Optional[RepMorphism]:
    """The first invertible element of hom_reps(X, Y), or None.

    Exact when X and Y are indecomposable: End X is local, so if X and Y
    are isomorphic the non-isomorphisms X -> Y form a proper subspace
    rad(X, Y), and some basis element lies outside it.
    """
    if X.dims != Y.dims:
        return None
    return next((h for h in hom_reps(X, Y) if h.is_invertible()), None)


def reps_isomorphic(V: LambdaRep, W: LambdaRep, seed: int = 0) -> Optional[RepMorphism]:
    """An isomorphism V -> W, or None.

    With dim Hom(V, W) <= _EXHAUSTIVE_BITS: the first invertible element of
    the whole span, in _span_elements order.  Above it, by Krull-Schmidt:
    split V and W into pieces, match each piece of V with the first unused
    isomorphic piece of W (_scan_iso), and assemble the piece isomorphisms
    into Q P^-1 at each vertex, P the inclusions of V's pieces side by side
    and Q the matched inclusions into W, each after its piece isomorphism.
    The answer is exact once the pieces are indecomposable; seed reaches
    only the splitting (_find_splitting).
    """
    if V.dims != W.dims:
        return None
    homs = hom_reps(V, W)
    if len(homs) <= _EXHAUSTIVE_BITS:
        return next((h for h in _span_elements(homs, _EXHAUSTIVE_BITS) if h.is_invertible()), None)
    free = [(Y, _inclusion(W, path)) for Y, path in _split_completely(W, seed)]
    cols_p, cols_q = [], []
    for X, path in _split_completely(V, seed):
        for t, (Y, incl_y) in enumerate(free):
            iso = _scan_iso(X, Y)
            if iso is not None:
                del free[t]
                cols_p.append(_inclusion(V, path))
                cols_q.append([E * m for E, m in zip(incl_y, _vertex_matrices(iso))])
                break
        else:
            return None
    mats = []
    for v, d in enumerate(_vertex_dims(V)):
        P = Q = F2Matrix.zero(d, 0)
        for Ep, Eq in zip(cols_p, cols_q):
            P, Q = P.hstack(Ep[v]), Q.hstack(Eq[v])
        mats.append(Q * f2_inverse(P))
    return RepMorphism(mats[0], dict(zip(SIGN_KEYS, mats[1:])))


# ---------------------------------------------------------------------------
# identification of tube representations
# ---------------------------------------------------------------------------


# The largest member, in Z-rank, that tubes.tube_module builds.  A member of
# a homogeneous tube has rank 4 deg(f) m, so no member of a tube of degree
# over MAX_MEMBER_RANK // 4 is built, and its polynomial is refused before
# the irreducibility test, which already takes 0.9 s at degree 256
# (CPython 3.11 on a shared 2-CPU host).
MAX_MEMBER_RANK = 1024


def _check_degree(f: F2Poly) -> None:
    """Refuse a tube polynomial none of whose members can be built."""
    if f.degree() > MAX_MEMBER_RANK // 4:
        raise ValueError(f"a tube of degree {f.degree()} has members of rank over "
                         f"the limit of {MAX_MEMBER_RANK}")


@dataclass(frozen=True)
class TubeId:
    """Label of a tube: a monic irreducible polynomial or 0, 1, infinity."""

    kind: str  # "hom" | "special"
    poly: Optional[F2Poly] = None
    lam: Optional[str] = None  # "0" | "1" | "inf"

    def __post_init__(self):
        if self.kind == "hom":
            if self.poly is None:
                raise ValueError("invalid tube id")
            _check_degree(self.poly)
            if not self.poly.is_irreducible():
                raise ValueError("invalid tube id")
            if self.poly in (F2Poly.t(), F2Poly.from_string("t+1")):
                raise ValueError("invalid tube id")
        elif self.kind == "special":
            if self.lam not in ("0", "1", "inf"):
                raise ValueError("invalid tube id")
        else:
            raise ValueError("invalid tube id")

    @staticmethod
    def homogeneous(f: F2Poly) -> "TubeId":
        return TubeId(kind="hom", poly=f)

    @staticmethod
    def special(lam: str) -> "TubeId":
        return TubeId(kind="special", lam=str(lam))

    def __str__(self):
        return str(self.poly) if self.kind == "hom" else {"0": "0", "1": "1", "inf": "inf"}[self.lam]

    def to_json(self):
        if self.kind == "hom":
            return {"kind": "hom", "f": self.poly.to_json()}
        return {"kind": "special", "lambda": self.lam}

    @staticmethod
    def from_json(obj) -> "TubeId":
        if obj["kind"] == "hom":
            return TubeId.homogeneous(F2Poly(obj["f"]))
        return TubeId.special(obj["lambda"])


@dataclass(frozen=True)
class TubeLabel:
    """Full label of a regular indecomposable: tube, branch j, length m."""

    tube: TubeId
    j: Optional[int]  # 1 | 2 for special tubes, None for homogeneous
    m: int

    def __str__(self):
        if self.tube.kind == "hom":
            return f"T[{self.tube}]_{self.m}"
        return f"T[{self.tube},{self.j}]_{self.m}"

    def to_json(self):
        out = {"tube": self.tube.to_json(), "m": self.m}
        if self.j is not None:
            out["j"] = self.j
        return out


NON_REGULAR = "non-regular"

# odd special tubes are pinned down by their dimension pattern; entries give
# (lambda, j) for the pattern of (d_pp, d_pm, d_mp, d_mm) in terms of m, m-1
_ODD_PATTERNS = {
    (1, 1, 0, 0): ("1", 1),
    (0, 0, 1, 1): ("1", 2),
    (1, 0, 0, 1): ("0", 1),
    (0, 1, 1, 0): ("0", 2),
    (1, 0, 1, 0): ("inf", 1),
    (0, 1, 0, 1): ("inf", 2),
}


# an even special member has exactly one pair of arms (a, b) whose stacked map
# f_a.vstack(f_b) is not injective, and the pair gives (lambda, j); the pairs
# are in itertools.combinations(SIGN_KEYS, 2) order
_EVEN_PAIRS = {
    ("pp", "pm"): ("1", 2),
    ("pp", "mp"): ("inf", 2),
    ("pp", "mm"): ("0", 2),
    ("pm", "mp"): ("0", 1),
    ("pm", "mm"): ("inf", 1),
    ("mp", "mm"): ("1", 1),
}


def tube_rep(f: F2Poly, m: int) -> LambdaRep:
    """Normal form of the homogeneous tube member for irreducible f."""
    if not f.is_irreducible() or f in (F2Poly.t(), F2Poly.from_string("t+1")):
        raise ValueError("invalid tube id")
    if m < 1:
        raise ValueError("m must be positive")
    d = f.degree()
    s = d * m
    F = companion_matrix(f ** m)
    ident = F2Matrix.identity(s)
    zero = F2Matrix.zero(s, s)
    f_maps = {
        "pp": ident.hstack(zero),
        "pm": zero.hstack(ident),
        "mp": ident.hstack(ident),
        "mm": ident.hstack(F),
    }
    return LambdaRep(DimVector(2 * s, s, s, s, s), f_maps)


def _jordan_one(m: int) -> F2Matrix:
    """m x m unipotent Jordan block, nilpotent part on the subdiagonal."""
    return F2Matrix.from_bits([(1 << i) | (1 << i >> 1) for i in range(m)], m)


def special_tube_rep(lam: str, j: int, n: int) -> LambdaRep:
    """Normal form of the length-n member on branch j of the tube at lam."""
    if lam not in ("0", "1", "inf"):
        raise ValueError("invalid tube id")
    if j not in (1, 2):
        raise ValueError(f"special tubes have branches j = 1, 2, not j = {j}")
    if n < 1:
        raise ValueError(f"tube length must be >= 1, not m = {n}")
    if n % 2 == 0:
        m = n // 2
        ident = F2Matrix.identity(m)
        zero = F2Matrix.zero(m, m)
        maps = [
            ident.hstack(zero),
            zero.hstack(ident),
            ident.hstack(ident),
            ident.hstack(_jordan_one(m)),
        ]
    else:
        t = (n - 1) // 2  # n = 2t + 1 columns, blocks t + t + 1
        last = 1 << (n - 1)
        # nilpotent part on the superdiagonal, so that the extra column at
        # row t - 1 meets the end of the Jordan chain and the member is
        # indecomposable
        J = _jordan_one(t).transpose().bits
        rows = (
            [1 << r for r in range(t)] + [last],
            [1 << (t + r) for r in range(t)] + [last],
            [(1 << r) | (1 << (t + r)) for r in range(t)],
            [(1 << r) | (J[r] << t) | (last if r == t - 1 else 0) for r in range(t)],
        )
        maps = [F2Matrix.from_bits(b, n) for b in rows]
    if j == 2:
        maps = [maps[2], maps[3], maps[0], maps[1]]
    if lam == "0":
        maps = [maps[0], maps[3], maps[2], maps[1]]
    elif lam == "inf":
        maps = [maps[0], maps[2], maps[1], maps[3]]
    dims = DimVector(n, *(mp.rows for mp in maps))
    return LambdaRep(dims, dict(zip(SIGN_KEYS, maps)))


def label_rep(label: TubeLabel) -> LambdaRep:
    if label.tube.kind == "hom":
        return tube_rep(label.tube.poly, label.m)
    return special_tube_rep(label.tube.lam, label.j, label.m)


def _pencil_matrix(V: LambdaRep):
    """The conjugacy-invariant square matrix of a nondegenerate pencil."""
    q = V.dims.d_dot // 2
    g = V.f["pp"].vstack(V.f["pm"])
    if not is_invertible(g):
        return None
    W = V.f["mp"].vstack(V.f["mm"]) * f2_inverse(g)
    mask = (1 << q) - 1
    blocks = {}
    for bi, bj, name in ((0, 0, "11"), (0, 1, "12"), (1, 0, "21"), (1, 1, "22")):
        rows = W.bits[bi * q : (bi + 1) * q]
        blocks[name] = F2Matrix.from_bits([(r >> (bj * q)) & mask for r in rows], q)
    for name in ("11", "12", "21"):
        if not is_invertible(blocks[name]):
            return None
    return (
        f2_inverse(blocks["21"]) * blocks["22"] * f2_inverse(blocks["12"]) * blocks["11"]
    )


def identify_tube(V: LambdaRep, seed: int = 0):
    """Tube label of a regular indecomposable, or the non-regular marker.

    The label is read off invariants: the dimension vector, the pairs of
    arms whose stacked map is not injective, and the pencil.  A special
    label is confirmed by one scan against its normal form, and a
    homogeneous one by the rank of f(X) on the pencil X, so a decomposable
    input raises ValueError on every branch.  seed is read by nothing; it
    is kept for callers that still pass it.
    """
    dims = V.dims
    if 2 * dims.d_dot != dims.d_plus:
        return NON_REGULAR
    comps = tuple(dims.component(k) for k in SIGN_KEYS)
    n = dims.d_dot
    if n % 2 == 1 or len(set(comps)) > 1:
        # odd special pattern
        m = max(comps)
        pattern = tuple(1 if c == m else 0 for c in comps)
        if (
            sorted(comps) != [m - 1, m - 1, m, m]
            or n != 2 * m - 1
            or pattern not in _ODD_PATTERNS
        ):
            raise ValueError("dimension vector is not of tube type")
        lam, j = _ODD_PATTERNS[pattern]
        return _confirmed(V, TubeLabel(TubeId.special(lam), j, n))
    # even, all components equal n / 2
    deficient = [
        pair for pair in _EVEN_PAIRS if f2_rank(V.f[pair[0]].vstack(V.f[pair[1]])) < n
    ]
    if deficient:
        lam, j = _EVEN_PAIRS[deficient[0]]
        return _confirmed(V, TubeLabel(TubeId.special(lam), j, n))
    X = _pencil_matrix(V)
    fac = primary_decomposition(char_poly(X)) if X is not None else []
    if len(fac) != 1 or fac[0][0] in (F2Poly.t(), F2Poly.from_string("t+1")):
        raise ValueError("the pencil is not that of a homogeneous member: not indecomposable")
    f, e = fac[0]
    ensure(f.degree() * e == n // 2, "pencil degree does not match the dimension")
    # the pencil of a sum is block-diagonal, and f(X) has a kernel of
    # dimension deg f on each block: one block leaves rank deg f (e - 1)
    if f2_rank(_evaluate(f, X)) != f.degree() * (e - 1):
        raise ValueError("the pencil of a sum of homogeneous members: not indecomposable")
    return TubeLabel(TubeId.homogeneous(f), None, e)


def _confirmed(V: LambdaRep, label: TubeLabel) -> TubeLabel:
    """label, once one scan against its normal form finds an isomorphism.

    A decomposable V with the pattern of a special member is a bad input,
    not a failed check; the scan is exact and rejects it.
    """
    if _scan_iso(V, label_rep(label)) is None:
        raise ValueError("a special pattern, but not an indecomposable member")
    return label


def _evaluate(f: F2Poly, X: F2Matrix) -> F2Matrix:
    """f(X) by Horner's rule."""
    ident = F2Matrix.identity(X.rows)
    out = F2Matrix.zero(X.rows, X.rows)
    for c in reversed(f.coeffs):
        out = out * X
        if c:
            out = out + ident
    return out


def random_rep_in_R(rng: random.Random, max_center: int = 4) -> LambdaRep:
    """Seeded random object of category R with small central dimension."""
    while True:
        d_dot = rng.randint(1, max_center)
        comps = [rng.randint(0, d_dot) for _ in range(4)]
        if sum(comps) < d_dot:
            continue
        f = {}
        ok = True
        for key, c in zip(SIGN_KEYS, comps):
            m = F2Matrix([[rng.randint(0, 1) for _ in range(d_dot)] for _ in range(c)], cols=d_dot)
            if f2_rank(m) != c:
                ok = False
                break
            f[key] = m
        if not ok:
            continue
        V = LambdaRep(DimVector(d_dot, *comps), f)
        if in_category_R(V):
            return V
