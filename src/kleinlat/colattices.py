"""Duals of lattices and their stable cohomology.

The dual of M is DM = M* (x) Q2/Z2, M* the transposed module.  Its finite
levels N_k = Hom(M, 2^-k Z / Z) are realized as (Z/2^k)^rank with the
transposed action, and cocycles of DM are carried mod q = 2^(level+1).  For
n >= 1 the connecting map of 0 -> M* -> M* (x) Q2 -> DM -> 0 is an
isomorphism H^n(K, DM) = H^(n+1)(K, M*) (Brown, Cohomology of Groups, GTM 87):
a carrier cocycle is lifted to Z, its integral coboundary divided by q.  So
StableDualCohomology takes its invariants and coordinates from one integral
group, and keeps the one coboundary of M* in degree n
(cohomology.differential_matrix) for class_of and for the check of its eta
cocycles (closed_cocycle); an integral group it builds itself reads that
coboundary as its image differential, so it is built once.  Its generator
cocycles need a Smith form of that coboundary, so they are built on first
read: the eta basis check reads class_of and closed_cocycle only and runs no
Smith form.  Its carrier cocycles are those of the stable image

    E  =  image( H^n(K, N_level)  ->  H^n(K, N_level+1) ),

by exactness the cocycles whose reduction mod 2 is a coboundary; the eta
cocycles live there.

The eta cocycles take their values in N(n) = (q/2)(M*(n+1) mod 2), M*(n+1)
the lattice side's target component one degree up.  N(n) is the two-torsion
of the divisible part of a sign component of DM; that part is S (x) Q2/Z2,
S the saturated eigencomponent of M* (on bare two-torsion the sign of an
involution is invisible), and its elements of order 2 are the s (x) 1/2,
zero for s in 2S.

The costandard form is the standard form of M* one degree up.  The
connecting map is natural in the module, so the filtration of the dual of a
tube member is the lattice-side filtration of M* along the annihilator
chain, the integral automorphisms and homomorphisms of the M*_i act on
H^(n+1) as on H^n of the duals, and an eta class is the class of the xi
cocycle one degree up.  DualTubeContext is the lattice-side context of the
dual member (tubes.DualMember) in degree n + 1, with the filtration index
reflected; DualSumContext is the lattice-side sum over the dual members,
whose class group is the carrier and whose witnesses are reduced mod q.
co_canonical_form() runs the normal-form engine of cohomology on it, with
lengths increasing.  dual_hom_mod lists the equivariant maps between finite
levels mod 2^k; the normal form does not read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .checks import ensure
from .f2 import F2Matrix, RowSpan, rref
from .intmat import IntMatrix, smith_form, solve_int
from .klein import KLattice, SignPair, eigencomponent
from .lattices import kernel_mod
from .cohomology import (
    ClassGroup,
    CohClass,
    Cochain,
    CohomologyGroup,
    StandardData,
    SumContext,
    TubeCohContext,
    _class_action,
    _classes_form_basis,
    _move_word,
    _normal_form,
    differential_matrix,
    is_infinity_tube,
    target_component_key,
)
from .tubes import TubeModule

DEFAULT_LEVEL = 3


@dataclass(frozen=True)
class ColatticeLevel:
    """Hom(M, 2^-k Z / Z) as (Z/2^k)^rank with the contragredient action."""

    base: KLattice
    level: int

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be >= 1")

    @property
    def rank(self) -> int:
        return self.base.rank

    @property
    def modulus(self) -> int:
        return 1 << self.level

    def transposed_module(self) -> KLattice:
        return self.base.transposed()


class StableDualCohomology(ClassGroup):
    """H^n(K, DM) for n >= 1, as H^(n+1)(K, M*) through the connecting map.

    Classes are carried by cocycles mod q = 2^(level+1) in the stable image.
    The constructor keeps what class_of reads: the integral group, the
    coboundary D_n of M* and the mod-2 coboundaries.  The integral group is
    built here, on the kept D_n as its image differential, or given
    (integral) by a context whose coordinates this group then shares.  The
    generators, one carrier cocycle over each generator of H^(n+1)(K, M*),
    are built on first read, as CohomologyGroup.generators are.
    """

    def __init__(self, M: KLattice, n: int, level: int = DEFAULT_LEVEL,
                 integral: CohomologyGroup | None = None):
        if level < 2:
            raise ValueError("level must be >= 2")
        if n < 1:
            raise ValueError("degree must be >= 1")
        self.base = M
        self.n = n
        self.level = level
        self.colattice = ColatticeLevel(M, level + 1)
        self.modulus = self.colattice.modulus
        self.module = mod = self.colattice.transposed_module()
        # D_n, the differential of M*, is the connecting map of class_of; a
        # group built here reads it as the image differential of degree n + 1
        self._D = differential_matrix(mod, n)
        # a group given by a context is shared with it, and keeps its generators
        self._owns_integral = integral is None
        if integral is None:
            integral = CohomologyGroup(mod, n + 1, self._D)
        ensure(integral.n == n + 1 and integral.module == mod,
               "the integral group is not H^(n+1) of the transposed module")
        self._integral = I = integral
        self.invariants = I.invariants
        # E holds the carrier cocycles that are coboundaries mod 2 (exactness
        # of 0 -> N_level -> N_level+1 -> N_1 -> 0)
        Dprev = differential_matrix(mod, n - 1)
        self._coboundaries_mod2 = RowSpan(F2Matrix.from_int(Dprev.transpose()))
        self._generators = None

    @property
    def generators(self) -> tuple:
        """A carrier cocycle for each cyclic factor, built on first read."""
        if self._generators is None:
            I, D, q = self._integral, self._D, self.modulus
            gens = []
            if self.invariants:
                # z of order d has d z = D c; (q/d) c is a carrier cocycle
                # with connecting image z, and is in E since q/d is even
                sf = smith_form(D)
                for z, d in zip(I.generators, self.invariants):
                    c = solve_int(D, z.scale(d).flatten(), sf)
                    ensure(c is not None, "d z is not a coboundary for z of order d")
                    gens.append(Cochain.unflatten(self.n, self.module.rank, c).scale(q // d).reduce(q))
                # a group of its own is kept for class_of, which reads its
                # kernel rows and coordinates only
                if self._owns_integral:
                    I.forget_generators()
            self._generators = tuple(gens)
        return self._generators

    def class_of(self, gamma: Cochain) -> CohClass:
        """Class of a carrier cocycle in the stable image, through the connecting map."""
        q = self.modulus
        lifted = gamma.reduce(q).flatten()
        boundary = self._D.apply(lifted)
        if any(x % q for x in boundary):
            raise ValueError(f"not a cocycle mod {q}")
        if lifted not in self._coboundaries_mod2:
            raise ValueError("class is not in the stable image")
        z = Cochain.unflatten(self.n + 1, self.module.rank, [x // q for x in boundary])
        return CohClass(self, self._integral.class_of(z).coords)

    def closed_cocycle(self, u: Sequence[int], in_infinity: bool) -> Cochain:
        """eta: the one-slot cocycle mod q with value u in N(n), checked by D_n."""
        q = self.modulus
        half = q // 2
        rows = divisible_two_torsion(self.colattice, target_component_key(self.n + 1, in_infinity))
        if any(x % half for x in u) or [x // half for x in u] not in RowSpan(rows):
            raise ValueError("u not in N(n)")
        gamma = self._one_slot([x % q for x in u], in_infinity)
        ensure(not any(x % q for x in self._D.apply(gamma.flatten())), "eta is not a cocycle mod 2^k")
        return gamma


# ---------------------------------------------------------------------------
# two-torsion eigencomponents and the eta cocycles
# ---------------------------------------------------------------------------


def divisible_two_torsion(N: ColatticeLevel, key: str) -> F2Matrix:
    """Two-torsion of the divisible part of the sign component, over q/2:
    the reduced echelon rows of S = eigencomponent(M*, key) mod 2, pivot
    columns increasing, one per basis row of the saturated S."""
    return _torsion_rows(N.transposed_module(), key)


# it reads M* alone, so the levels and degrees over one member share it
@lru_cache(maxsize=None)
def _torsion_rows(dual: KLattice, key: str) -> F2Matrix:
    S = eigencomponent(dual, SignPair.from_key(key))
    return rref(F2Matrix(S.basis, cols=dual.rank))[0]


def dual_target_basis(N: ColatticeLevel, n: int, in_infinity: bool) -> list[tuple]:
    """GF(2)-basis of the component N(n) feeding the eta cocycles."""
    half = N.modulus // 2
    rows = divisible_two_torsion(N, target_component_key(n + 1, in_infinity))
    return [tuple(half * x for x in row) for row in rows.data]


def verify_eta_iso(T: TubeModule, n: int, level: int = DEFAULT_LEVEL,
                   H: StableDualCohomology | None = None) -> bool:
    """The eta classes over a basis of N(n) form a GF(2)-basis of H^n(K, DM)."""
    H = H or StableDualCohomology(T.lattice, n, level)
    inf = is_infinity_tube(T.label)
    return _classes_form_basis(H, dual_target_basis(H.colattice, n, inf), inf)


# ---------------------------------------------------------------------------
# costandard canonical forms
# ---------------------------------------------------------------------------


class DualTubeContext(TubeCohContext):
    """H^n(K, DM) of one tube member M, as H^(n+1)(K, M*) with its filtration.

    This is the lattice-side context of the dual member T.dual, which reads
    M* with the chain A_m = M* > ... > A_0 = 0 of annihilators A_k =
    Ann(M_k) = (M/M_k)* and the transposed automorphism family, in degree
    n + 1.  The connecting map is natural in the module, so the image of
    H^n(K, D(M/M_k)) in H^n(K, DM) is that of H^(n+1)(K, A_k) in
    H^(n+1)(K, M*).  The one rule of this side is the index: the dual
    position k counts the annihilators up from A_0, the chain down from
    A_m, so k reads position m - 1 - k of that context, in the filtration
    and in the strata.  The carrier group H^n(K, DM), with cocycles mod the
    modulus of N, shares the coordinates of H and is built on first read.
    """

    def __init__(self, T: TubeModule, n: int, level: int = DEFAULT_LEVEL):
        super().__init__(T.dual, n + 1)
        self.level = level
        self.N = ColatticeLevel(T.lattice, level + 1)  # carrier level
        self._carrier: Optional[StableDualCohomology] = None

    @property
    def carrier(self) -> StableDualCohomology:
        """H^n(K, DM) over this context's H^(n+1)(K, M*), built on first read."""
        if self._carrier is None:
            self._carrier = StableDualCohomology(self.N.base, self.n - 1, self.level, integral=self.H)
        return self._carrier

    def filtration_position(self, cls: CohClass):
        """Smallest k with the class visible from A_(k+1)."""
        pos = super().filtration_position(cls)
        return pos if pos == "zero" else self.T.label.m - 1 - pos

    def _stratum_vector(self, k: int):
        """An element of A_(k+1)(n + 1) outside 2 A_(k+1)(n + 1) + A_k(n + 1), or None."""
        return super()._stratum_vector(self.T.label.m - 1 - k)

    # class_action and move_to are written out, not inherited, so that the
    # tracer of bench/spans.py times this side under its own names
    def class_action(self, U: IntMatrix):
        return _class_action(self.H, U)

    def move_to(self, src: CohClass, dst: CohClass):
        """Automorphism word of M* carrying src to dst, or None."""
        return _move_word(self, src, dst)


def dual_hom_mod(N1: ColatticeLevel, N2: ColatticeLevel) -> list[IntMatrix]:
    """Generators of the equivariant maps N1 -> N2 mod 2^k."""
    ensure(N1.level == N2.level, "dual homomorphisms between different levels")
    q = N1.modulus
    r1, r2 = N1.rank, N2.rank
    M1, M2 = N1.transposed_module(), N2.transposed_module()
    A1, B1, A2, B2 = M1.act_a, M1.act_b, M2.act_a, M2.act_b
    rows = []
    for (Am, An) in ((A1.data, A2.data), (B1.data, B2.data)):
        for i in range(r2):
            for j in range(r1):
                eq = [0] * (r1 * r2)
                for t in range(r1):
                    eq[i * r1 + t] += Am[t][j]
                for t in range(r2):
                    eq[t * r1 + j] -= An[i][t]
                rows.append(eq)
    L = kernel_mod(IntMatrix(rows, cols=r1 * r2), q)
    out = []
    for vec in L.basis:
        v = [x % q for x in vec]
        if all(x == 0 for x in v):
            continue
        out.append(IntMatrix([v[i * r1: (i + 1) * r1] for i in range(r2)], cols=r1))
    return out


class DualSumContext(SumContext):
    """Duals of a direct sum of tube members, at a fixed level.

    The lattice-side sum over the dual members in degree n + 1: its tube
    contexts, the integral homomorphisms between the M*_i and the split on
    H^(n+1)(K, sum of M*_i).  Its class group H is H^n(K, D(sum of M_i)),
    which shares those coordinates, and its witnesses are reduced mod the
    carrier modulus q.  A sum of one member takes the carrier of its
    member context.
    """

    def __init__(self, summands: list[TubeModule], n: int, level: int = DEFAULT_LEVEL):
        self.level = level
        super().__init__(summands, n)
        if len(self.ctxs) == 1:
            self.H = self.ctxs[0].carrier
        else:
            self.H = StableDualCohomology(self.module.transposed(), n, level, integral=self.integral)
        self.N = self.H.colattice
        self.modulus = self.N.modulus

    @property
    def base(self) -> KLattice:
        """The direct sum of the summands' lattices, whose dual this is."""
        return self.H.base

    def _tube_context(self, T: TubeModule, n: int) -> DualTubeContext:
        return DualTubeContext.of(T, n, self.level)

    def representative_vector(self, i: int, k: int):
        """(q/2)(v mod 2) for the member's vector v: the vector of N(n) whose
        eta cocycle has the class of representative(i, k)."""
        v = self.ctxs[i].representative_vector(k)
        half = self.modulus // 2
        return None if v is None else tuple(half * (x & 1) for x in v)


@dataclass(frozen=True, slots=True)
class CoCanonicalForm:
    data: StandardData
    n0_labels: tuple
    witness: IntMatrix  # automorphism of the dual, mod 2^k
    canonical_class: CohClass
    positions: tuple


def co_canonical_form(summands: list[TubeModule], cls: CohClass, n: int,
                      level: int = DEFAULT_LEVEL,
                      context: DualSumContext | None = None) -> CoCanonicalForm:
    """Costandard normal form of a class on the dual of a direct sum."""
    sc = context or DualSumContext(summands, n, level)
    return _normal_form(sc, cls, n, False, CoCanonicalForm)
