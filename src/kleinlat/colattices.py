"""Duals of lattices and their stable cohomology.

The dual of M is DM = M* (x) Q2/Z2, M* the transposed module.  Its finite
levels N_k = Hom(M, 2^-k Z / Z) are realized as (Z/2^k)^rank with the
transposed action, and cocycles of DM are carried mod q = 2^(level+1).  For
n >= 1 the connecting map of 0 -> M* -> M* (x) Q2 -> DM -> 0 is an
isomorphism H^n(K, DM) = H^(n+1)(K, M*) (Brown, Cohomology of Groups, GTM 87):
a carrier cocycle is lifted to Z, its integral coboundary divided by q.  So
StableDualCohomology takes its invariants and coordinates from one integral
group.  Its carrier cocycles are those of the stable image

    E  =  image( H^n(K, N_level)  ->  H^n(K, N_level+1) ),

by exactness the cocycles whose reduction mod 2 is a coboundary; the eta
cocycles live there.  The filtration of the dual of a tube member goes
through the same map, which is natural in the module: the image of
H^n(K, D(M/M_k)) is that of H^(n+1)(K, A_k), A_k = Ann(M_k) = (M/M_k)* in
M*.  So it is the lattice-side filtration (cohomology.chain_images) of the
annihilator chain of M*, one degree up, and no sub-complex is reduced mod 2^k.

co_canonical_form() runs the normal-form engine of cohomology.  This side
supplies, through DualTubeContext (a cohomology.TubeCohContext) and
DualSumContext, the stratum representatives (eta over fixed two-torsion
vectors), the homomorphisms between summands mod 2^k (dual_hom_mod),
witnesses reduced mod 2^k, and the costandard length order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .checks import VerificationError, ensure
from .f2 import F2Matrix, RowSpan
from .intmat import IntMatrix, smith_form, solve_int
from .klein import KLattice, SignPair
from .lattices import ZLattice, hnf_mod, intersection_mod, kernel_mod
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
    coboundary,
    differential_matrix,
    in_span,
    is_infinity_tube,
    target_component_key,
)
from .tubes import TubeModule

DEFAULT_LEVEL = 3


@dataclass(frozen=True)
class ColatticeLevel:
    """Hom(M, 2^-k Z / Z) as (Z/2^k)^rank with the contragredient action.

    The divisible two-torsion lattice of each sign component is kept in
    _torsion, by sign key, from its first use.
    """

    base: KLattice
    level: int
    _torsion: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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

    Classes are carried by cocycles mod q = 2^(level+1) in the stable image;
    the generators are such cocycles, one over each generator of
    H^(n+1)(K, M*), and class_of takes a carrier cocycle to its coordinates.
    """

    def __init__(self, M: KLattice, n: int, level: int = DEFAULT_LEVEL):
        if level < 2:
            raise ValueError("level must be >= 2")
        if n < 1:
            raise ValueError("degree must be >= 1")
        self.base = M
        self.n = n
        self.level = level
        self.colattice = ColatticeLevel(M, level + 1)
        self.modulus = q = self.colattice.modulus
        self.module = mod = self.colattice.transposed_module()
        self._integral = I = CohomologyGroup(mod, n + 1)
        self.invariants = I.invariants
        # E holds the carrier cocycles that are coboundaries mod 2 (exactness
        # of 0 -> N_level -> N_level+1 -> N_1 -> 0)
        Dprev = differential_matrix(mod, n - 1)
        self._coboundaries_mod2 = RowSpan(F2Matrix.from_int(Dprev.transpose()))
        gens = []
        if I.generators:
            # z of order d has d z = D c; (q/d) c is a carrier cocycle with
            # connecting image z, and is in E since q/d is even
            D = differential_matrix(mod, n)
            sf = smith_form(D)
            for z, d in zip(I.generators, I.invariants):
                c = solve_int(D, z.scale(d).flatten(), sf)
                ensure(c is not None, "d z is not a coboundary for z of order d")
                gens.append(Cochain.unflatten(n, mod.rank, c).scale(q // d).reduce(q))
        self.generators = tuple(gens)
        # the integral group is kept for class_of and the filtration, which
        # read its kernel rows and coordinates only
        I.forget_generators()

    def class_of(self, gamma: Cochain) -> CohClass:
        """Class of a carrier cocycle in the stable image, through the connecting map."""
        q = self.modulus
        lifted = gamma.reduce(q)
        boundary = coboundary(lifted, self.module)
        if any(x % q for v in boundary.values for x in v):
            raise ValueError(f"not a cocycle mod {q}")
        if lifted.flatten() not in self._coboundaries_mod2:
            raise ValueError("class is not in the stable image")
        z = Cochain(self.n + 1, tuple(tuple(x // q for x in v) for v in boundary.values))
        return CohClass(self, self._integral.class_of(z).coords)


# ---------------------------------------------------------------------------
# two-torsion eigencomponents and the eta cocycles
# ---------------------------------------------------------------------------


def _sign_value(key: str):
    sp = SignPair.from_key(key)
    return (1 if sp.alpha == "+" else -1, 1 if sp.beta == "+" else -1)


def eigen_congruence_lattice(N: ColatticeLevel, key: str) -> ZLattice:
    """Lattice of x with the sign conditions mod 2^k, containing qZ^r."""
    q = N.modulus
    sa, sb = _sign_value(key)
    ident = IntMatrix.identity(N.rank)
    mod = N.transposed_module()
    stacked = (mod.act_a - ident.scale(sa)).vstack(mod.act_b - ident.scale(sb))
    return kernel_mod(stacked, q)


def divisible_two_torsion_lattice(N: ColatticeLevel, key: str) -> ZLattice:
    """Two-torsion of the divisible part of the sign component.

    On bare two-torsion the sign of an involution is invisible; the honest
    component is reached by scaling the full mod-2^k eigencomponent by
    2^(k-1), which keeps exactly the part divisible all the way down.
    Kept on N from the first call for each key.
    """
    got = N._torsion.get(key)
    if got is None:
        q = N.modulus
        L = eigen_congruence_lattice(N, key)
        rows = [[(x * (q // 2)) % q for x in row] for row in L.basis]
        got = N._torsion[key] = hnf_mod(rows, N.rank, q)
    return got


def component_f2_basis(N: ColatticeLevel, L: ZLattice) -> list[tuple]:
    """GF(2)-basis of the elementary subgroup L/qZ^r."""
    q = N.modulus
    r = N.rank
    gens = []
    sub = hnf_mod([[2 * x for x in row] for row in L.basis], r, q)
    for row in L.basis:
        vec = tuple(x % q for x in row)
        if all(x == 0 for x in vec):
            continue
        if sub.coords(vec) is not None:
            continue
        gens.append(vec)
        sub = hnf_mod([list(b) for b in sub.basis] + [list(vec)], r, q)
    return gens


def dual_target_basis(N: ColatticeLevel, n: int, in_infinity: bool) -> list[tuple]:
    """GF(2)-basis of the component N(n) feeding the eta cocycles."""
    L = divisible_two_torsion_lattice(N, target_component_key(n + 1, in_infinity))
    return component_f2_basis(N, L)


def eta(N: ColatticeLevel, u: Sequence[int], n: int, in_infinity: bool) -> Cochain:
    """One-slot cocycle mod 2^k with value u in N(n)."""
    q = N.modulus
    L = divisible_two_torsion_lattice(N, target_component_key(n + 1, in_infinity))
    if L.coords([x % q for x in u]) is None:
        raise ValueError("u not in N(n)")
    # the infinity tube takes the value on y^n in every degree, like xi
    slot = 0 if in_infinity else n
    values = [tuple([0] * N.rank) for _ in range(n + 1)]
    values[slot] = tuple(x % q for x in u)
    gamma = Cochain(n, tuple(values))
    mod = N.transposed_module()
    ensure(all(x % q == 0 for v in coboundary(gamma, mod).values for x in v),
           "eta is not a cocycle mod 2^k")
    return gamma


def verify_eta_iso(T: TubeModule, n: int, level: int = DEFAULT_LEVEL,
                   H: StableDualCohomology | None = None) -> bool:
    """The eta classes over a basis of N(n) form a GF(2)-basis of H^n(K, DM)."""
    H = H or StableDualCohomology(T.lattice, n, level)
    N = H.colattice
    inf = is_infinity_tube(T.label)
    basis = dual_target_basis(N, n, inf)
    return _classes_form_basis(H, basis, lambda u: eta(N, u, n, inf))


# ---------------------------------------------------------------------------
# costandard canonical forms
# ---------------------------------------------------------------------------


class DualTubeContext(TubeCohContext):
    """Stable cohomology of the dual of one tube member, with filtration.

    The filtration comes from the annihilators A_k = Ann(M_k) = (M/M_k)* in
    M*, kept on the member (T.annihilator_chain).  The connecting map is
    natural in the module, so the image of H^n(K, D(M/M_k)) in H^n(K, DM)
    is the image of H^(n+1)(K, A_k) in H^(n+1)(K, M*): the lattice-side
    chain images, run on M* one degree up.
    """

    def __init__(self, T: TubeModule, n: int, level: int = DEFAULT_LEVEL,
                 H: StableDualCohomology | None = None):
        self.level = level
        self._gens: Optional[_TransposedFamily] = None
        super().__init__(T, n, H)
        self.N = self.H.colattice  # carrier level
        self.modulus = self.N.modulus

    def _cohomology(self) -> StableDualCohomology:
        return StableDualCohomology(self.T.lattice, self.n, self.level)

    def _chain(self):
        """Classes of the integral group H^(n+1)(K, M*), whose coordinates
        are those of H; in_span reads only the coordinates."""
        return self.H._integral, self.T.annihilator_chain, self.n + 1

    def filtration_position(self, cls: CohClass):
        """Smallest Z-set index k with the class visible from A_{k+1}."""
        if cls.is_zero():
            return "zero"
        images = self._chain_images()
        for k in range(1, len(images)):
            if in_span(images[k], cls):
                return k - 1
        raise VerificationError("class not even in the image of the full module")

    def _component_in(self, k: int) -> ZLattice:
        """Divisible two-torsion of the component inside A_k mod q."""
        q = self.N.modulus
        emb = self.T.annihilator_chain[k][1]
        A = hnf_mod(emb.transpose().data, self.N.rank, q)
        eig = eigen_congruence_lattice(self.N, target_component_key(self.n + 1, self.in_inf))
        inter = intersection_mod(eig, A, q)
        rows = [[(x * (q // 2)) % q for x in row] for row in inter.basis]
        return hnf_mod(rows, self.N.rank, q)

    def _stratum_vector(self, k: int):
        """An element of A_(k+1)(n) outside A_k(n), mod q, or None."""
        q = self.N.modulus
        lower = self._component_in(k)
        for row in self._component_in(k + 1).basis:
            vec = tuple(x % q for x in row)
            if any(vec) and lower.coords(vec) is None:
                return vec
        return None

    def _cocycle(self, u) -> Cochain:
        return eta(self.N, u, self.n, self.in_inf)

    def aut_generators(self) -> "_TransposedFamily":
        """The transposes mod 2^k of T.aut_family, without repeats, in its order.

        The family is closed under inverse, so this sequence is too.  It is
        chosen once per context and keeps only which members of the family
        it lists; their actions on this context's cohomology are kept in
        actions().
        """
        if self._gens is None:
            self._gens = _TransposedFamily(self.T.aut_family, self.N.modulus)
        return self._gens

    # class_action and move_to are written out, not inherited, so that the
    # tracer of bench/spans.py times this side under its own names
    def class_action(self, U: IntMatrix):
        return _class_action(self.H, U)

    def move_to(self, src: CohClass, dst: CohClass):
        """Automorphism word mod 2^k carrying src to dst, or None."""
        return _move_word(self, src, dst)


class _TransposedFamily(Sequence):
    """The distinct transposes mod q of a family of matrices, in its order.

    Only the indices of the members listed are kept; a transpose is made
    again when it is read.  The search reads each generator about once, to
    build its action, so this costs little time and keeps the family's
    matrices from being held twice, once as given and once transposed.
    """

    def __init__(self, family, q: int):
        self._family = family
        self._q = q
        seen = set()
        keep = []
        for i, U in enumerate(family):
            W = self._make(U)
            if W not in seen:
                seen.add(W)
                keep.append(i)
        self._keep = tuple(keep)

    def _make(self, U: IntMatrix) -> IntMatrix:
        return U.transpose().mod(self._q)

    def __len__(self) -> int:
        return len(self._keep)

    def __getitem__(self, g: int) -> IntMatrix:
        return self._make(self._family[self._keep[g]])


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

    The dual side of the normal form: stable dual cohomology, dual tube
    contexts, dual_hom_mod between summands and witnesses reduced mod 2^k.
    """

    def __init__(self, summands: list[TubeModule], n: int, level: int = DEFAULT_LEVEL):
        self.level = level
        super().__init__(summands, n)
        self.N = self.H.colattice
        self.modulus = self.N.modulus

    @property
    def base(self) -> KLattice:
        """The direct sum of the summands' lattices, whose dual this is."""
        return self.module

    def _cohomology(self) -> StableDualCohomology:
        return StableDualCohomology(self.module, self.n, self.level)

    def _tube_context(self, T: TubeModule, H=None) -> DualTubeContext:
        return DualTubeContext(T, self.n, self.level, H)

    def homs(self, i: int, j: int) -> list[IntMatrix]:
        return dual_hom_mod(self.ctxs[i].N, self.ctxs[j].N)


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
