"""Group cohomology of Kleinian lattices and canonical forms of classes.

Cochains in degree n are (n+1)-tuples of module vectors, the value on the
monomial x^j y^(n-j) sitting at index j.  The coboundary has one
implementation, differential_matrix, the matrix of C^n -> C^(n+1) on
flattened cochains: the groups reduce it, and the closed-form cocycles and
the dual side's connecting map apply it.  H^n is computed exactly from the
polynomial resolution by Smith reduction of kernel modulo image; every class
carries coordinates against the computed cyclic generators.

The dual side (colattices) reaches its classes through the integral group
one degree up, and its filtration through chain_images, the routine of the
lattice side, run on the annihilator chain of M* in that degree.

For a tube member the submodule chain induces a filtration of H^n whose
strata are the automorphism orbits.  One tube context (TubeCohContext,
specialised by colattices.DualTubeContext) and one normal-form engine serve
lattices and their duals: it moves a class on a direct sum of tube members
to the fixed stratum representatives and then cancels components against
each other with unipotent automorphisms, emitting (co)standard data, the
complementary summand list, and an explicit witness automorphism.  The sum
context supplies what differs between the two sides: the tube contexts, the
homomorphisms between summands and the modulus of the witnesses.  A tube
context belongs to its member: TubeCohContext.of keeps it in the member's
contexts dict, keyed by side, degree and (on the dual side) level, so every
sum over a member reads the same one, and a sum of one member takes its
group from that context.  canonical_form() is the lattice side, with
lengths decreasing.  A brute-force orbit closure is included as the
independent oracle for the orbit structure on small groups, on either side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .checks import ensure
from .f2 import F2Matrix, RowSpan, inverse, is_invertible
from .f2 import solve as f2_solve
from .intmat import IntMatrix, determinant, kernel_basis
from .klein import A, B, KLattice, SignPair, eigencomponent
from .lattices import ZLattice, finite_quotient, hnf, pow2_quotient
from .quiver import TubeLabel
from .resolutions import r_apply, twist_chain_maps
from .tubes import TubeModule, hom_klattices, s3_images


@dataclass(frozen=True, slots=True)
class Cochain:
    """Degree-n cochain; values[j] is the value on x^j y^(n-j)."""

    n: int
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.n + 1:
            raise ValueError("a degree-n cochain has n+1 values")

    @staticmethod
    def zero(n: int, rank: int) -> "Cochain":
        return Cochain(n, tuple((0,) * rank for _ in range(n + 1)))

    def flatten(self) -> tuple:
        out = []
        for v in self.values:
            out.extend(v)
        return tuple(out)

    @staticmethod
    def unflatten(n: int, rank: int, flat: Sequence[int]) -> "Cochain":
        vals = tuple(tuple(flat[j * rank: (j + 1) * rank]) for j in range(n + 1))
        return Cochain(n, vals)

    def map_values(self, psi: IntMatrix) -> "Cochain":
        return Cochain(self.n, tuple(psi.apply(v) for v in self.values))

    def add(self, other: "Cochain") -> "Cochain":
        return Cochain(
            self.n,
            tuple(tuple(a + b for a, b in zip(v, w)) for v, w in zip(self.values, other.values)),
        )

    def scale(self, c: int) -> "Cochain":
        return Cochain(self.n, tuple(tuple(c * x for x in v) for v in self.values))

    def reduce(self, modulus: int) -> "Cochain":
        """Values mod modulus; modulus 0 leaves them as they are."""
        if not modulus:
            return self
        return Cochain(self.n, tuple(tuple(x % modulus for x in v) for v in self.values))


def differential_matrix(M: KLattice, n: int) -> IntMatrix:
    """Matrix of the coboundary C^n -> C^(n+1) on flattened cochains."""
    r = M.rank
    act_a, act_b = M.act_a.row_dicts(), M.act_b.row_dicts()
    out = []
    for k in range(n + 2):
        sk = 1 if k % 2 == 0 else -1
        l = n + 1 - k
        sl = 1 if l % 2 == 0 else -1
        # block (k, k-1) is a + sk, block (k, k) is sk (b + sl)
        left, right = (k - 1) * r, k * r
        for i in range(r):
            row = {}
            if 1 <= k <= n + 1:
                for j, x in act_a[i].items():
                    row[left + j] = x
                row[left + i] = row.get(left + i, 0) + sk
            if k <= n:
                for j, x in act_b[i].items():
                    row[right + j] = sk * x
                row[right + i] = row.get(right + i, 0) + sk * sl
            out.append(row)
    return IntMatrix.from_dicts(out, (n + 1) * r)


class ClassGroup:
    """A finite group of cohomology classes, coordinates mod the invariants.

    Subclasses set invariants, generators (a cocycle for each cyclic
    factor), n, module and modulus (0 when cochains are integral), and
    define class_of.
    """

    def order(self) -> int:
        out = 1
        for d in self.invariants:
            out *= d
        return out

    def exponent(self) -> int:
        out = 1
        for d in self.invariants:
            out = out * d // math.gcd(out, d)
        return out

    def zero(self) -> "CohClass":
        return CohClass(self, tuple(0 for _ in self.invariants))

    def from_coords(self, coords: Sequence[int]) -> "CohClass":
        if len(coords) != len(self.invariants):
            raise ValueError(
                f"class needs {len(self.invariants)} coordinates (invariants "
                f"{list(self.invariants)}), got {len(coords)}"
            )
        return CohClass(
            self, tuple(c % d for c, d in zip(coords, self.invariants))
        )

    def cochain_of(self, cls: "CohClass") -> Cochain:
        out = Cochain.zero(self.n, self.module.rank)
        for c, g in zip(cls.coords, self.generators):
            if c:
                out = out.add(g.scale(c))
        return out.reduce(self.modulus)

    def all_classes(self):
        """Iterate every class (intended for small groups)."""
        def rec(i, acc):
            if i == len(self.invariants):
                yield CohClass(self, tuple(acc))
                return
            for v in range(self.invariants[i]):
                acc.append(v)
                yield from rec(i + 1, acc)
                acc.pop()
        yield from rec(0, [])


class CohomologyGroup(ClassGroup):
    """H^n(K, M) with explicit generator cocycles and coordinates.

    Kernel modulo image of the integral cochain complex.  Since the exponent
    divides four, the quotient is taken mod 8 (lattices.pow2_quotient), and a
    check confirms no invariant 8 shows up.
    """

    modulus = 0

    def __init__(self, M: KLattice, n: int):
        if n < 1:
            raise ValueError("degree must be >= 1")
        self.module = M
        self.n = n
        r = M.rank
        width = (n + 1) * r
        D = differential_matrix(M, n)
        Dprev = differential_matrix(M, n - 1)
        ker = hnf([list(v) for v in kernel_basis(D)], width)
        self._q = _kernel_quotient(ker, Dprev.transpose().data, 3)
        ensure(all(4 % d == 0 for d in self._q.invariants),
               f"H^{n} has an invariant not dividing 4: {self._q.invariants}")
        self.invariants = self._q.invariants
        # a Hermite row of the kernel has about three nonzero entries of
        # (n+1) r, and a group lives as long as its context, so the rows are
        # kept as a sparse matrix
        self._kernel = ker.basis_matrix()
        self._generators = None

    @property
    def generators(self) -> tuple:
        """A generator cocycle for each cyclic factor, built on first read."""
        if self._generators is None:
            r = self.module.rank
            self._generators = tuple(Cochain.unflatten(self.n, r, f)
                                     for f in _representatives(self._kernel, self._q))
        return self._generators

    def forget_generators(self) -> None:
        """Drop the kept generator cocycles; the next read builds them again."""
        self._generators = None

    def class_of(self, gamma: Cochain) -> "CohClass":
        """Coordinates by elimination against the kernel rows, as ZLattice.coords.

        A remainder at a pivot stays in v, since later rows start further
        right, so one test at the end rejects every non-cocycle.
        """
        v = list(gamma.flatten())
        if len(v) != self._kernel.cols:
            raise ValueError("vector length differs from ambient rank")
        c = []
        for cols, vals in self._kernel.sparse_rows():
            q = v[cols[0]] // vals[0]
            if q:
                for j, x in zip(cols, vals):
                    v[j] -= q * x
            c.append(q)
        if any(v):
            raise ValueError("not a cocycle")
        return CohClass(self, self._q.coords(c))


def _kernel_quotient(ker: ZLattice, image, level: int):
    """ker / image mod 2^level, over the coordinates of the basis rows of ker."""
    s = ker.rank()
    coords = []
    for v in image:
        c = ker.coords(v)
        ensure(c is not None, "image not inside the kernel")
        coords.append(list(c))
    C = IntMatrix(coords, cols=s) if coords else IntMatrix.zero(0, s)
    return pow2_quotient(C, s, level)


def _representatives(K: IntMatrix, quotient) -> list:
    """For each generator of quotient, given over the rows of K, the vector
    it stands for."""
    Kt = K.transpose()
    return [Kt.apply(g) for g in quotient.generators]


@dataclass(frozen=True, slots=True)
class CohClass:
    """A cohomology class as coordinates in its group."""

    group: ClassGroup
    coords: tuple

    def __eq__(self, other):
        return (
            isinstance(other, CohClass)
            and self.group is other.group
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((id(self.group), self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def add(self, other: "CohClass") -> "CohClass":
        ensure(self.group is other.group, "classes of different groups added")
        return self.group.from_coords(
            tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def to_json(self):
        return {"coords": list(self.coords), "invariants": list(self.group.invariants)}


def cohomology_invariants_generic(M: KLattice, n: int) -> tuple:
    """Invariant factors by the generic Smith route (independent oracle)."""
    r = M.rank
    D = differential_matrix(M, n)
    ker = hnf([list(v) for v in kernel_basis(D)], (n + 1) * r)
    Dprev = differential_matrix(M, n - 1)
    img = hnf(Dprev.transpose().data, (n + 1) * r)
    fq = finite_quotient(ker, img)
    return tuple(sorted(fq.invariants))


def push_class(psi: IntMatrix, cls: CohClass, dst: CohomologyGroup) -> CohClass:
    """Image of a class under an equivariant map given on cochain values."""
    gamma = cls.group.cochain_of(cls)
    return dst.class_of(gamma.map_values(psi))


# ---------------------------------------------------------------------------
# the closed-form cocycles
# ---------------------------------------------------------------------------


def is_infinity_tube(label: TubeLabel) -> bool:
    return label.tube.kind == "special" and label.tube.lam == "inf"


def target_component_key(n: int, in_infinity: bool) -> str:
    if n % 2 == 0:
        return "pp"
    return "pm" if in_infinity else "mp"


def target_component(M: KLattice, n: int, in_infinity: bool) -> ZLattice:
    """The eigencomponent M(n) feeding the closed-form cocycles."""
    return eigencomponent(M, SignPair.from_key(target_component_key(n, in_infinity)))


def xi(M: KLattice, v: Sequence[int], n: int, in_infinity: bool,
       D: IntMatrix | None = None) -> Cochain:
    """The one-slot cocycle with value v on x^n (or on y^n for the infinity tube),
    checked by D, the coboundary of M in degree n (built when not given)."""
    # M(n) is the saturated lattice of the vectors on which a and b act by
    # the signs of its character, so membership is those two equations
    chi = SignPair.from_key(target_component_key(n, in_infinity))
    if any(M.apply(g, v) != tuple(chi.value(g) * x for x in v) for g in (A, B)):
        raise ValueError("v not in M(n)")
    slot = 0 if in_infinity else n
    values = [tuple([0] * M.rank) for _ in range(n + 1)]
    values[slot] = tuple(v)
    gamma = Cochain(n, tuple(values))
    D = differential_matrix(M, n) if D is None else D
    ensure(not any(D.apply(gamma.flatten())), "xi is not a cocycle")
    return gamma


def verify_xi_iso(T: TubeModule, n: int, H: CohomologyGroup | None = None,
                  comp: ZLattice | None = None) -> bool:
    """The closed-form classes over a basis of M(n) form a GF(2)-basis of H^n.

    comp is M(n), target_component of T's lattice (built when not given).
    """
    M = T.lattice
    inf = is_infinity_tube(T.label)
    if comp is None:
        comp = target_component(M, n, inf)
    H = H or CohomologyGroup(M, n)
    D = differential_matrix(M, n)
    return _classes_form_basis(H, comp.basis, lambda v: xi(M, v, n, inf, D))


def _classes_form_basis(H: ClassGroup, vectors, cocycle) -> bool:
    """H is elementary abelian and the classes of cocycle(v) form a basis."""
    if any(d != 2 for d in H.invariants):
        return False
    if len(H.invariants) != len(vectors):
        return False
    if not vectors:
        return True
    rows = [[c & 1 for c in H.class_of(cocycle(v)).coords] for v in vectors]
    return is_invertible(F2Matrix(rows, cols=len(H.invariants)))


# ---------------------------------------------------------------------------
# filtration, orbits, canonical elements on one tube member
# ---------------------------------------------------------------------------


def chain_images(H: CohomologyGroup, chain, n: int) -> list[list[CohClass]]:
    """The image of H^n of each member of a chain of submodules, in H.

    chain lists (sub, embed) pairs: sub a KLattice, or None for the zero
    module, and embed its embedding into the module of H.  Entry k lists
    the classes of H of the generator cocycles of H^n(K, sub_k).
    """
    out = []
    for sub, emb in chain:
        if sub is None or sub.rank == 0:
            out.append([])
            continue
        out.append([H.class_of(g.map_values(emb)) for g in CohomologyGroup(sub, n).generators])
    return out


class TubeCohContext:
    """Cohomology of one tube member with its filtration and orbit data.

    The lattice side; colattices.DualTubeContext overrides what differs on
    the dual: the group, the chain, the filtration position, the stratum
    vector search, the cocycle and the automorphism family.  The sums read
    a member's contexts through of(), which keeps them on the member.  The
    group is elementary abelian, so the context keeps its filtration as
    GF(2) row spans of class coordinates (chain_spans) and the generators'
    actions as GF(2) matrices (actions), each built on first use.
    """

    modulus = 0  # witnesses are integral

    def __init__(self, T: TubeModule, n: int):
        self.T = T
        self.n = n
        self.in_inf = is_infinity_tube(T.label)
        self.H = self._cohomology()
        _ensure_elementary(self.H, "cohomology of a tube member")
        self._spans: Optional[list] = None
        self._representatives: dict = {}
        self._vectors: dict = {}
        self._actions: Optional[_ActionMemo] = None

    @classmethod
    def of(cls, T: TubeModule, *key):
        """T's context at key (the degree, and the level on the dual side),
        built on first use and kept in T.contexts for every later sum."""
        ctx = T.contexts.get((cls,) + key)
        if ctx is None:
            ctx = T.contexts[(cls,) + key] = cls(T, *key)
        return ctx

    # -- what a side supplies --------------------------------------------

    def _cohomology(self) -> ClassGroup:
        return CohomologyGroup(self.T.lattice, self.n)

    def _chain(self):
        """(group, chain of (sub, embed) pairs, degree) for chain_images."""
        return self.H, self.T.chain, self.n

    def filtration_position(self, cls: CohClass):
        """The last k with the class in the image of M_k."""
        if cls.is_zero():
            return "zero"
        pos = 0
        for k, span in enumerate(self.chain_spans()):
            if cls.coords in span:
                pos = k
            else:
                break
        return pos

    def _component_lattice(self, k: int) -> ZLattice:
        """M_k(n) in Z^r; A_k(n + 1) on the dual, which reads its own _chain."""
        _group, chain, n = self._chain()
        sub, emb = chain[k]
        n_amb = self.T.lattice.rank
        if sub is None or sub.rank == 0:
            return ZLattice.zero(n_amb)
        comp = target_component(sub, n, self.in_inf)
        return hnf([emb.apply(r) for r in comp.basis], n_amb)

    def _component_span(self, k: int) -> RowSpan:
        """The span of _component_lattice(k) mod 2."""
        L = self._component_lattice(k)
        return RowSpan(F2Matrix(L.basis, cols=L.ambient_rank))

    def _stratum_vector(self, k: int):
        """An element of M_k(n) outside 2 M_k(n) + M_(k+1)(n), or None: M_k(n)
        is pure, so 2 M_k(n) = M_k(n) & 2Z^r and the test is mod 2."""
        lower = self._component_span(k + 1)
        return next((tuple(v) for v in self._component_lattice(k).basis if v not in lower), None)

    def _cocycle(self, v) -> Cochain:
        return xi(self.T.lattice, v, self.n, self.in_inf)

    # -- shared ------------------------------------------------------------

    def chain_spans(self) -> list:
        """The chain images as GF(2) row spans of class coordinates, built on
        first use; the chain group is elementary abelian, so a membership
        test is a few XORs."""
        if self._spans is None:
            group, chain, n = self._chain()
            _ensure_elementary(group, "cohomology of the chain's module")
            s = len(group.invariants)
            self._spans = [RowSpan(F2Matrix([c.coords for c in img], cols=s))
                           for img in chain_images(group, chain, n)]
        return self._spans

    def representative_vector(self, k: int):
        """The vector of representative(k), or None when stratum k is empty."""
        if k not in self._vectors:
            self._vectors[k] = self._stratum_vector(k)
        return self._vectors[k]

    def representative(self, k: int):
        """Fixed class of stratum k: the class of the closed-form cocycle of
        representative_vector(k), or None when the stratum is empty."""
        if k not in self._representatives:
            v = self.representative_vector(k)
            cls = None
            if v is not None:
                cls = self.H.class_of(self._cocycle(v))
                ensure(self.filtration_position(cls) == k,
                       "stratum representative does not sit at its filtration position")
            self._representatives[k] = cls
        return self._representatives[k]

    # -- automorphisms ---------------------------------------------------

    def aut_generators(self) -> Sequence:
        """Generating family of automorphisms (closed under inverse).

        This is T.aut_family (see tubes._aut_generator_family): it depends
        on the member only, so the member builds it once and the contexts
        of every degree, on both sides, share it.  Their actions on this
        context's cohomology are kept here, in actions().
        """
        return self.T.aut_family

    def class_action(self, U: IntMatrix) -> F2Matrix:
        return _class_action(self.H, U)

    def actions(self) -> "_ActionMemo":
        """The class action of each generator, built on first use and kept here."""
        if self._actions is None:
            self._actions = _ActionMemo(self.aut_generators(), self.class_action)
        return self._actions

    def move_to(self, src: CohClass, dst: CohClass):
        """Automorphism word carrying src to dst, as one matrix, or None."""
        return _move_word(self, src, dst)


def _ensure_elementary(H: ClassGroup, what: str) -> None:
    ensure(all(d == 2 for d in H.invariants), f"{what} is not elementary abelian")


def _class_action(H: ClassGroup, U: IntMatrix) -> F2Matrix:
    """The action of U on H mod 2, computed on the generator cocycles."""
    s = len(H.invariants)
    cols = [H.class_of(g.map_values(U)).coords for g in H.generators]
    return F2Matrix([[cols[j][i] & 1 for j in range(s)] for i in range(s)], cols=s)


class _ActionMemo:
    """The class actions of a tube context's generators, in generator order.

    Entry g is built by the context's class_action the first time it is
    read and kept for the life of the context, so each generator's action
    is computed at most once however many classes are moved.
    """

    def __init__(self, gens, build):
        self.gens = gens
        self._build = build
        self._acts: list = [None] * len(gens)

    def __len__(self) -> int:
        return len(self.gens)

    def __getitem__(self, g: int) -> F2Matrix:
        act = self._acts[g]
        if act is None:
            act = self._acts[g] = self._build(self.gens[g])
        return act


def _move_word(ctx, src: CohClass, dst: CohClass):
    """Breadth-first search for a word in ctx's generators carrying src to dst.

    Returns the word as one matrix of the member's rank (reduced mod
    ctx.modulus unless it is 0), or None when dst is not in the generated
    orbit of src.

    The actions come from ctx.actions(), which keeps them on the context:
    the search builds only the actions it reaches, and each at most once
    per context.  Points are expanded in breadth-first order and, at each
    point, the generators in their order, so the word is the first one
    that order reaches, whichever actions were built before.  Each point
    records its parent and generator, and matrices are multiplied only
    along the path to dst.
    """
    rank = ctx.T.lattice.rank
    if src == dst:
        return IntMatrix.identity(rank)
    acts = ctx.actions()
    start = tuple(c & 1 for c in src.coords)
    goal = tuple(c & 1 for c in dst.coords)
    parent = {start: None}
    frontier = [start]
    while frontier:
        new = []
        for x in frontier:
            for g in range(len(acts)):
                y = acts[g].apply(x)
                if y in parent:
                    continue
                parent[y] = (x, g)
                if y == goal:
                    return _word_to(goal, parent, acts.gens, rank, ctx.modulus)
                new.append(y)
        frontier = new
    return None


def _word_to(y, parent: dict, gens, rank: int, modulus: int) -> IntMatrix:
    """The product of the generators on the parent path from the start to y."""
    path = []
    while parent[y] is not None:
        y, g = parent[y]
        path.append(g)
    W = IntMatrix.identity(rank)
    for g in reversed(path):
        W = gens[g] * W
        if modulus:
            W = W.mod(modulus)
    return W


# ---------------------------------------------------------------------------
# direct sums and canonical form
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class StandardEntry:
    j: Optional[int]
    m: int
    k: int

    def to_json(self):
        out = {"m": self.m, "k": self.k}
        if self.j is not None:
            out["j"] = self.j
        return out


@dataclass(frozen=True, slots=True)
class StandardData:
    """Canonical combinatorics of a class: per-tube position sequences.

    Lengths decrease along a sequence for standard data (lattices) and
    increase for costandard data (duals).
    """

    entries: tuple  # tuple of (TubeId, tuple of StandardEntry)
    parity: str  # "even" | "odd" | "none"

    def to_json(self):
        return {
            "data": [
                {"tube": tube.to_json(), "seq": [e.to_json() for e in seq]}
                for tube, seq in self.entries
            ],
            "parity": self.parity,
        }

    def __str__(self):
        if not self.entries:
            return "empty"
        parts = []
        for tube, seq in self.entries:
            inner = ",".join(
                (f"(j={e.j},m={e.m},k={e.k})" if e.j is not None else f"(m={e.m},k={e.k})")
                for e in seq
            )
            parts.append(f"{tube}:[{inner}]")
        return " ".join(parts) + f" [{self.parity}]"


class SumContext:
    """A direct sum of tube members with its cohomology.

    This is the lattice side of the normal form; DualSumContext specialises
    it to the duals.  A side supplies its cohomology and tube contexts, the
    homomorphisms between summands and the modulus of the witnesses (0
    here: they are integral).  The tube contexts belong to the members
    (TubeCohContext.of), so sums over one member share them; a sum of one
    member takes its group from that member's context.

    The group is elementary abelian like its summands', and the context
    keeps, each from its first use, the GF(2) matrices of split and merge
    between its coordinates and the summands' concatenated ones, and the
    hom basis of each pair of summands.
    """

    modulus = 0

    def __init__(self, summands: list[TubeModule], n: int):
        if not summands:
            raise ValueError("need at least one summand")
        self.summands = list(summands)
        self.n = n
        mod = summands[0].lattice
        for T in summands[1:]:
            mod = mod.direct_sum(T.lattice)
        self.module = mod
        self.offsets = []
        off = 0
        for T in summands:
            self.offsets.append(off)
            off += T.lattice.rank
        self.ctxs = [self._tube_context(T) for T in summands]
        # a sum of one member has the member's lattice as its module
        self.H = self.ctxs[0].H if len(summands) == 1 else self._cohomology()
        self._split: Optional[tuple] = None
        self._homs: dict = {}

    # -- what a side supplies ----------------------------------------------

    def _cohomology(self) -> ClassGroup:
        return CohomologyGroup(self.module, self.n)

    def _tube_context(self, T: TubeModule) -> TubeCohContext:
        return TubeCohContext.of(T, self.n)

    def _hom_basis(self, i: int, j: int) -> list[IntMatrix]:
        return hom_klattices(self.summands[i].lattice, self.summands[j].lattice)

    # -- shared ------------------------------------------------------------

    def homs(self, i: int, j: int) -> list[IntMatrix]:
        """Generators of the homomorphisms from summand i to summand j, kept
        per pair from the first call."""
        got = self._homs.get((i, j))
        if got is None:
            got = self._homs[(i, j)] = self._hom_basis(i, j)
        return got

    def representative(self, i: int, k: int):
        """Fixed class of stratum k of summand i, or None."""
        return self.ctxs[i].representative(k)

    def representative_vector(self, i: int, k: int):
        """The vector whose closed-form cocycle is representative(i, k)."""
        return self.ctxs[i].representative_vector(k)

    def automorphism_generators(self) -> list[IntMatrix]:
        """The summands' families in their blocks, then identity + theta
        between distinct summands, for theta in homs(i, j)."""
        gens = [self.block_witness(i, U)
                for i, ctx in enumerate(self.ctxs) for U in ctx.aut_generators()]
        for i in range(len(self.summands)):
            for j in range(len(self.summands)):
                if i != j:
                    gens.extend(self.unipotent_witness(i, j, th) for th in self.homs(i, j))
        return gens

    def reduce(self, W: IntMatrix) -> IntMatrix:
        return W.mod(self.modulus) if self.modulus else W

    def project_values(self, gamma: Cochain, i: int) -> Cochain:
        off = self.offsets[i]
        ri = self.summands[i].lattice.rank
        return Cochain(
            gamma.n, tuple(tuple(v[off: off + ri]) for v in gamma.values)
        )

    def split_matrices(self) -> tuple[F2Matrix, F2Matrix]:
        """(split, merge) over GF(2), built on first use: split takes the
        coordinates of a class to the summands' concatenated coordinates,
        by the cochain route (project_values, class_of) on each basis class,
        and merge is its inverse, which a non-additive sum does not have."""
        if self._split is None:
            _ensure_elementary(self.H, "cohomology of the sum")
            s = len(self.H.invariants)
            cols = []
            for a in range(s):
                gamma = self.H.cochain_of(self.H.from_coords([int(t == a) for t in range(s)]))
                cols.append([c for i, ctx in enumerate(self.ctxs)
                             for c in ctx.H.class_of(self.project_values(gamma, i)).coords])
            width = sum(len(ctx.H.invariants) for ctx in self.ctxs)
            S = F2Matrix(cols, cols=width).transpose()
            self._split = (S, inverse(S))
        return self._split

    def split(self, cls: CohClass) -> list[CohClass]:
        flat = self.split_matrices()[0].apply(cls.coords)
        out = []
        off = 0
        for ctx in self.ctxs:
            s = len(ctx.H.invariants)
            out.append(CohClass(ctx.H, flat[off: off + s]))
            off += s
        return out

    def merge(self, comps: list[CohClass]) -> CohClass:
        flat = [c for comp in comps for c in comp.coords]
        return CohClass(self.H, self.split_matrices()[1].apply(flat))

    def block_witness(self, i: int, U: IntMatrix) -> IntMatrix:
        r = self.module.rank
        out = [{a: 1} for a in range(r)]
        off = self.offsets[i]
        for a, row in enumerate(U.row_dicts()):
            out[off + a] = {off + b: x for b, x in row.items()}
        return self.reduce(IntMatrix.from_dicts(out, r))

    def unipotent_witness(self, i: int, j: int, theta: IntMatrix) -> IntMatrix:
        """Identity plus theta mapping block i into block j."""
        r = self.module.rank
        out = [{a: 1} for a in range(r)]
        oi, oj = self.offsets[i], self.offsets[j]
        for a, row in enumerate(theta.row_dicts()):
            dst = out[oj + a]
            for b, x in row.items():
                dst[oi + b] = dst.get(oi + b, 0) + x
        return self.reduce(IntMatrix.from_dicts(out, r))

    def swap_witness(self, i: int, j: int) -> IntMatrix:
        """Exchange of the blocks of two equal summands."""
        r = self.module.rank
        out = [[1 if a == b else 0 for b in range(r)] for a in range(r)]
        oi, oj = self.offsets[i], self.offsets[j]
        ri = self.summands[i].lattice.rank
        for a in range(ri):
            out[oi + a][oi + a] = 0
            out[oj + a][oj + a] = 0
            out[oi + a][oj + a] = 1
            out[oj + a][oi + a] = 1
        return IntMatrix(out, cols=r)


@dataclass(frozen=True, slots=True)
class CanonicalForm:
    data: StandardData
    m0_labels: tuple
    witness: IntMatrix
    canonical_class: CohClass
    positions: tuple  # per-summand: int position or None


def canonical_form(summands: list[TubeModule], cls: CohClass, n: int,
                   context: SumContext | None = None) -> CanonicalForm:
    """Normalize a class on a direct sum of tube members.

    Returns the standard data, the labels of the summands on which the class
    was cleared, a witness automorphism W with W . cls = canonical class, and
    the per-summand stratum positions.
    """
    sc = context or SumContext(summands, n)
    return _normal_form(sc, cls, n, True, CanonicalForm)


def _normal_form(sc: SumContext, cls: CohClass, n: int, descending: bool, form):
    """The normal form on either side; lengths decrease when descending.

    form is the result type, built from (data, cleared labels, witness,
    canonical class, positions).
    """
    ensure(cls.group is sc.H, "class is not in the group of the sum context")
    comps = sc.split(cls)
    witness = IntMatrix.identity(sc.module.rank)

    # move every nonzero component to its stratum representative
    for i, ctx in enumerate(sc.ctxs):
        if comps[i].is_zero():
            continue
        k = ctx.filtration_position(comps[i])
        target = sc.representative(i, k)
        ensure(target is not None, "stratum without a fixed representative")
        W = ctx.move_to(comps[i], target)
        ensure(W is not None, "class not in the orbit of its stratum representative")
        witness = sc.reduce(sc.block_witness(i, W) * witness)
        comps[i] = target

    # cancellation sweep with unipotent automorphisms
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        ensure(guard <= 4 * len(sc.summands) ** 2 + 4, "cancellation sweep does not terminate")
        for i in range(len(sc.summands)):
            if comps[i].is_zero():
                continue
            for j in range(len(sc.summands)):
                if i == j or comps[j].is_zero():
                    continue
                if sc.summands[i].label.tube != sc.summands[j].label.tube:
                    continue
                combo = _solve_cancellation(sc.ctxs[j].H, comps[i], comps[j], sc.homs(i, j))
                if combo is None:
                    continue
                witness = sc.reduce(sc.unipotent_witness(i, j, combo) * witness)
                comps[j] = sc.ctxs[j].H.zero()
                changed = True
        # after cancellations the remaining components are still canonical
    entries_by_tube: dict = {}
    cleared = []
    positions = []
    for i, T in enumerate(sc.summands):
        if comps[i].is_zero():
            cleared.append(T.label)
            positions.append(None)
            continue
        k = sc.ctxs[i].filtration_position(comps[i])
        positions.append(k)
        entries_by_tube.setdefault(T.label.tube, []).append(
            StandardEntry(j=T.label.j, m=T.label.m, k=k)
        )
    entries = []
    for tube in sorted(entries_by_tube, key=lambda t: str(t)):
        seq = sorted(entries_by_tube[tube], key=lambda e: (-e.m if descending else e.m, e.k))
        _check_sequence(seq)
        entries.append((tube, tuple(seq)))
    special = any(tube.kind == "special" for tube, _ in entries)
    parity = "none" if not special else ("even" if n % 2 == 0 else "odd")
    data = StandardData(entries=tuple(entries), parity=parity)
    canonical = sc.merge(comps)
    ensure(push_class(witness, cls, sc.H) == canonical,
           "witness does not carry the class to its canonical form")
    return form(data, tuple(cleared), witness, canonical, tuple(positions))


def _check_sequence(seq):
    """The (co)standard inequalities on a sequence sorted by length.

    For each pair, with L the longer and S the shorter entry,
    S.k < L.k < S.k + L.m - S.m.
    """
    for t in range(len(seq) - 1):
        ensure(seq[t].m != seq[t + 1].m, "equal lengths survived cancellation")
    for t in range(len(seq)):
        for s in range(t + 1, len(seq)):
            S, L = (seq[t], seq[s]) if seq[t].m < seq[s].m else (seq[s], seq[t])
            ensure(S.k < L.k < S.k + L.m - S.m, "(co)standard inequalities violated")


def _solve_cancellation(H_j: ClassGroup, cls_i, cls_j, homs):
    """Combination theta of homs with theta_*(cls_i) = cls_j, or None.

    On the dual side a map mod 2^k can push a class out of the stable
    image; such maps are left out.
    """
    cols = []
    kept = []
    for th in homs:
        try:
            pushed = push_class(th, cls_i, H_j)
        except ValueError:
            continue
        cols.append([c & 1 for c in pushed.coords])
        kept.append(th)
    if not kept:
        return None
    s = len(H_j.invariants)
    Amat = F2Matrix([[cols[j][i] for j in range(len(kept))] for i in range(s)], cols=len(kept))
    sol = f2_solve(Amat, [c & 1 for c in cls_j.coords])
    if sol is None:
        return None
    combo = None
    for c, th in zip(sol, kept):
        if c:
            combo = th if combo is None else combo + th
    return combo


# the largest group whose orbits sum_orbit_partition enumerates
ORBIT_ORACLE_MAX = 1 << 6


def sum_orbit_partition(sc: SumContext) -> list[set]:
    """Brute-force orbit closure of the generated automorphism family.

    The family is sc.automorphism_generators() and the swaps of equal
    summands.  Each generator permutes the finite group H, so the closure
    holds its inverse too: 1 - theta need not be listed beside 1 + theta.
    """
    ensure(sc.H.order() <= ORBIT_ORACLE_MAX, "group too large for the brute-force oracle")
    gens = sc.automorphism_generators()
    for i in range(len(sc.summands)):
        for j in range(i + 1, len(sc.summands)):
            if sc.summands[i].label == sc.summands[j].label:
                gens.append(sc.swap_witness(i, j))
    actions = []
    s = len(sc.H.invariants)
    for U in gens:
        cols = [push_class(U, sc.H.from_coords(tuple(1 if t == a else 0 for t in range(s))), sc.H).coords
                for a in range(s)]
        actions.append(cols)
    invs = sc.H.invariants

    def mover(cols):
        def move(x):
            y = [0] * s
            for a in range(s):
                if x[a]:
                    for t in range(s):
                        y[t] += x[a] * cols[a][t]
            return tuple(yy % dd for yy, dd in zip(y, invs))
        return move

    pts = [tuple(c.coords) for c in sc.H.all_classes()]
    return _orbits(pts, [mover(cols) for cols in actions])


def _orbits(points, moves) -> list[set]:
    """Orbits of points under the maps in moves, in order of first point."""
    seen = set()
    orbits = []
    for p in points:
        if p in seen:
            continue
        orb = {p}
        stack = [p]
        while stack:
            x = stack.pop()
            for move in moves:
                y = move(x)
                if y not in orb:
                    orb.add(y)
                    stack.append(y)
        seen |= orb
        orbits.append(orb)
    return orbits


# ---------------------------------------------------------------------------
# group automorphisms acting on modules and classes
# ---------------------------------------------------------------------------


def transport_class(Msrc: KLattice, cls: CohClass, dst_group: CohomologyGroup) -> CohClass:
    """Map a class along the lift psi: Msrc -> module of dst_group of an
    isomorphism of their Phi.  psi can have det 3 or 5; an odd det is checked,
    since then its cokernel is odd, has no H^n for n >= 1 and maps to zero in
    the 2-group H^n, so psi pushes H^n isomorphically for n >= 1."""
    from .quiver import lift_morphism, phi, reps_isomorphic

    iso = reps_isomorphic(phi(Msrc), phi(dst_group.module))
    ensure(iso is not None, "modules are not isomorphic")
    psi = lift_morphism(iso, Msrc, dst_group.module)
    ensure(determinant(psi) % 2 == 1, "the lifted isomorphism has even determinant")
    return push_class(psi, cls, dst_group)


def apply_group_automorphism(which: str, M: KLattice, cls: CohClass):
    """Twist the module by a group automorphism and transport the class.

    Returns (twisted module, transported class in its cohomology).
    """
    n = cls.group.n
    ia, ib = s3_images(which)
    maps = twist_chain_maps(ia, ib, n)
    Tn = maps[n]
    gamma = cls.group.cochain_of(cls)
    values = []
    for j in range(n + 1):
        acc = (0,) * M.rank
        for i in range(n + 1):
            ent = Tn.data[i][j]
            if any(ent):
                contrib = r_apply(M, ent, gamma.values[i])
                acc = tuple(a + b for a, b in zip(acc, contrib))
        values.append(acc)
    twisted = M.twist(ia, ib)
    H2 = CohomologyGroup(twisted, n)
    return twisted, H2.class_of(Cochain(n, tuple(values)))
