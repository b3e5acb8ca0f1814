"""Duals of lattices at finite 2-power level and their cohomology.

The dual of M is approximated by Hom(M, 2^-k Z / Z), realized as (Z/2^k)^rank
with the transposed action.  The truncations N_k do not have the cohomology
of the full divisible dual: the groups H^n(K, N_k) are too big, and the
direct limit is reached as the image of the level-raising maps.  The
stabilized group used everywhere below is

    E  =  image( H^n(K, N_level)  ->  H^n(K, N_level+1) ),

with the level-(level-1) image required to have the same order (that is the
level 3 vs 4 stabilization check at the default).  Both the eta cocycles and
the annihilator filtration live naturally in E.

Each finite level is a cohomology.CohomologyGroup with modulus 2^k.
co_canonical_form() runs the normal-form engine of cohomology; this side
supplies, through DualTubeContext and DualSumContext, the stratum
representatives (eta over fixed two-torsion vectors), the homomorphisms
between summands mod 2^k (dual_hom_mod), witnesses reduced mod 2^k, and the
costandard length order (lengths increasing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .checks import VerificationError, ensure
from .intmat import IntMatrix, solve_int
from .klein import KLattice, SignPair
from .lattices import ZLattice, hnf_mod, intersection_mod, kernel_mod, pow2_quotient
from .cohomology import (
    ClassGroup,
    CohClass,
    Cochain,
    CohomologyGroup,
    StandardData,
    SumContext,
    _ActionMemo,
    _class_action,
    _classes_form_basis,
    _kernel_mod_image,
    _move_word,
    _normal_form,
    coboundary,
    differential_matrix,
    in_span,
    is_infinity_tube,
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

    def order(self) -> int:
        return self.modulus ** self.rank

    def cohomology(self, n: int) -> CohomologyGroup:
        """H^n(K, N_k), with coordinates mod 2^k."""
        return CohomologyGroup(self.transposed_module(), n, self.modulus)

    def to_json(self) -> dict:
        return {"base": self.base.to_json(), "level": self.level}


def _image_gens(Hlow: CohomologyGroup, Hhigh: CohomologyGroup) -> list[CohClass]:
    return [Hhigh.class_of(g.scale(2)) for g in Hlow.generators]


def _subgroup_order(H: ClassGroup, gens: list[CohClass]) -> int:
    """Order of the subgroup of H = sum of Z/d_i generated by gens.

    With c_j the coordinates of the generators it is the product of the d_i
    over the index of span(c_j) + sum of d_i Z in Z^s; that index is the
    product of the pivots of one Hermite form mod the exponent of H.
    """
    moduli = H.invariants
    s = len(moduli)
    rows = [list(g.coords) for g in gens]
    rows.extend([d if t == i else 0 for t in range(s)] for i, d in enumerate(moduli))
    index = 1
    for i, row in enumerate(hnf_mod(rows, s, H.exponent()).basis):
        index *= row[i]
    return H.order() // index


class StableDualCohomology(ClassGroup):
    """The direct limit H^n(K, DM), carried inside one finite level.

    Classes live in the carrier group at level+1; membership in the stable
    image is part of the coordinate computation.
    """

    def __init__(self, M: KLattice, n: int, level: int = DEFAULT_LEVEL):
        if level < 2:
            raise ValueError("level must be >= 2")
        self.base = M
        self.n = n
        self.level = level
        self.colattice = ColatticeLevel(M, level + 1)
        self.modulus = self.colattice.modulus
        # the two lower levels are needed only here, so they are not kept
        H_low = ColatticeLevel(M, level).cohomology(n)
        self.carrier = self.colattice.cohomology(n)
        self.module = self.carrier.module
        gens = _image_gens(H_low, self.carrier)
        # stabilization: one level lower must give a subgroup of the same order
        H_lower = ColatticeLevel(M, level - 1).cohomology(n)
        gens_prev = _image_gens(H_lower, H_low)
        if _subgroup_order(H_low, gens_prev) != _subgroup_order(self.carrier, gens):
            raise ValueError("not stabilized")
        self._gens = gens
        g = len(gens)
        moduli = self.carrier.invariants
        s = len(moduli)
        if g == 0 or s == 0:
            self._rel_q = pow2_quotient(IntMatrix.identity(g), g, 3) if g else None
            self.invariants = ()
            self.generators = ()
            self._solve_matrix = None
        else:
            rows = []
            for i in range(s):
                scale = 4 // moduli[i] if moduli[i] <= 4 else 1
                rows.append([(gens[j].coords[i] * scale) for j in range(g)])
            W = IntMatrix(rows, cols=g)
            lam = kernel_mod(W, 4)
            self._rel_q = pow2_quotient(lam.basis_matrix(), g, 3)
            ensure(all(4 % d == 0 for d in self._rel_q.invariants),
                   "stable dual cohomology has an invariant not dividing 4")
            self.invariants = self._rel_q.invariants
            G = IntMatrix([list(x.coords) for x in gens], cols=s).transpose()
            self._solve_matrix = G.hstack(IntMatrix.diagonal(list(moduli)))
            new_gens = []
            for gen in self._rel_q.generators:
                cls = self.carrier.zero()
                for c, img in zip(gen, gens):
                    for _ in range(c % 4):
                        cls = cls.add(img)
                new_gens.append(cls)
            self.generators = tuple(new_gens)
        ensure(all(4 % d == 0 for d in self.invariants),
               "stable dual cohomology has an invariant not dividing 4")

    def _coords_of_carrier(self, cls: CohClass) -> tuple:
        if not self.invariants:
            if any(cls.coords):
                raise ValueError("class is not in the stable image")
            return ()
        x = solve_int(self._solve_matrix, list(cls.coords))
        if x is None:
            raise ValueError("class is not in the stable image")
        return self._rel_q.coords(list(x[: len(self._gens)]))

    def class_of(self, gamma: Cochain) -> CohClass:
        """Class of a carrier-level cocycle that lies in the stable image."""
        return CohClass(self, self._coords_of_carrier(self.carrier.class_of(gamma)))

    def generator_cochain(self, g: CohClass) -> Cochain:
        """Generators are carrier classes; this is the carrier's cocycle."""
        return self.carrier.cochain_of(g)


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


def dual_component_key(n: int, in_infinity: bool) -> str:
    if n % 2 == 1:
        return "pp"
    return "pm" if in_infinity else "mp"


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
    L = divisible_two_torsion_lattice(N, dual_component_key(n, in_infinity))
    return component_f2_basis(N, L)


def eta(N: ColatticeLevel, u: Sequence[int], n: int, in_infinity: bool) -> Cochain:
    """One-slot cocycle mod 2^k with value u in N(n)."""
    q = N.modulus
    L = divisible_two_torsion_lattice(N, dual_component_key(n, in_infinity))
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
# annihilator chain
# ---------------------------------------------------------------------------


def annihilator(N: ColatticeLevel, rows) -> ZLattice:
    """Lattice of x with <x, v> = 0 mod 2^k for all given vectors v."""
    q = N.modulus
    if not rows:
        return ZLattice.full(N.rank)
    mat = IntMatrix([list(v) for v in rows], cols=N.rank)
    return kernel_mod(mat, q)


def dual_chain(T: TubeModule, level: int = DEFAULT_LEVEL) -> list[ZLattice]:
    """Increasing chain N_k = annihilator of M_k, with N_0 = 0, N_m = N."""
    N = ColatticeLevel(T.lattice, level)
    out = []
    for k in range(len(T.chain)):
        sub = T.chain[k]
        out.append(annihilator(N, [list(r) for r in sub.basis]))
    return out


def subgroup_order(N: ColatticeLevel, L: ZLattice) -> int:
    """Order of L/qZ^r."""
    q = N.modulus
    r = N.rank
    full = hnf_mod([[q if i == j else 0 for j in range(r)] for i in range(r)], r, q)
    inv = L.quotient_invariants(full)
    out = 1
    for d in inv:
        out *= d
    return out


# ---------------------------------------------------------------------------
# costandard canonical forms
# ---------------------------------------------------------------------------


def _cochains_in(L: ZLattice, slots: int, r: int) -> list[list[int]]:
    """Flattened cochains with slots values, one of them a basis row of L."""
    out = []
    for j in range(slots):
        for row in L.basis:
            vec = [0] * (slots * r)
            vec[j * r: (j + 1) * r] = list(row)
            out.append(vec)
    return out


class DualTubeContext:
    """Stable cohomology of the dual of one tube member, with filtration."""

    def __init__(self, T: TubeModule, n: int, level: int = DEFAULT_LEVEL,
                 H: StableDualCohomology | None = None):
        self.T = T
        self.n = n
        self.level = level
        self.H = H if H is not None else StableDualCohomology(T.lattice, n, level)
        self.N = self.H.colattice  # carrier level
        ensure(all(d == 2 for d in self.H.invariants),
               "stable dual cohomology of a tube member is not elementary abelian")
        self.in_inf = is_infinity_tube(T.label)
        self._chain = dual_chain(T, self.N.level)
        self._images: Optional[list] = None
        self._z_classes: Optional[list] = None
        self._gens: Optional[list] = None
        self._actions: Optional[_ActionMemo] = None

    def _sub_cohomology_image(self, L_low: ZLattice) -> list[CohClass]:
        """Stable classes visible from the subgroup given at level `level`.

        The sub-complex is computed one level down; doubling its generator
        cocycles lands them at the carrier level inside the stable image.
        """
        q = 1 << self.level
        r = self.N.rank
        n = self.n
        mod = self.H.module
        W = hnf_mod(_cochains_in(L_low, n + 1, r), (n + 1) * r, q)
        D = differential_matrix(mod, n)
        ker = intersection_mod(kernel_mod(D, q), W, q)
        Dprev = differential_matrix(mod, n - 1)
        img_rows = [Dprev.apply(v) for v in hnf_mod(_cochains_in(L_low, n, r), n * r, q).basis]
        img = hnf_mod([list(v) for v in img_rows], (n + 1) * r, q)
        _, flats = _kernel_mod_image(ker, img.basis, self.level)
        return [self.H.class_of(Cochain.unflatten(n, r, f).scale(2).reduce(2 * q)) for f in flats]

    def _chain_images(self) -> list:
        if self._images is None:
            low = dual_chain(self.T, self.level)
            out = []
            for k in range(len(low)):
                L = low[k]
                if subgroup_order(ColatticeLevel(self.T.lattice, self.level), L) == 1:
                    out.append([])
                else:
                    out.append(self._sub_cohomology_image(L))
            self._images = out
        return self._images

    def filtration_position(self, cls: CohClass):
        """Smallest Z-set index k with the class visible from N_{k+1}."""
        if cls.is_zero():
            return "zero"
        images = self._chain_images()
        for k in range(1, len(images)):
            if in_span(images[k], cls):
                return k - 1
        raise VerificationError("class not even in the image of the full module")

    # -- canonical z elements --------------------------------------------

    def _component_in(self, L: ZLattice) -> ZLattice:
        """Divisible two-torsion of the component inside a chain subgroup."""
        q = self.N.modulus
        eig = eigen_congruence_lattice(self.N, dual_component_key(self.n, self.in_inf))
        inter = intersection_mod(eig, L, q)
        rows = [[(x * (q // 2)) % q for x in row] for row in inter.basis]
        return hnf_mod(rows, self.N.rank, q)

    def z_vector(self, k: int):
        """Fixed element of N_{k+1}(n) outside N_k(n), or None."""
        q = self.N.modulus
        upper = self._component_in(self._chain[k + 1])
        lower = self._component_in(self._chain[k])
        for row in upper.basis:
            vec = tuple(x % q for x in row)
            if all(x == 0 for x in vec):
                continue
            if lower.coords(vec) is None:
                return vec
        return None

    def z_class(self, k: int):
        if self._z_classes is None:
            self._z_classes = [None] * self.T.m
        if self._z_classes[k] is None:
            z = self.z_vector(k)
            if z is None:
                return None
            cls = self.H.class_of(eta(self.N, z, self.n, self.in_inf))
            ensure(self.filtration_position(cls) == k,
                   "z class does not sit at its filtration position")
            self._z_classes[k] = cls
        return self._z_classes[k]

    # -- automorphisms -----------------------------------------------------

    def aut_generators(self) -> "_TransposedFamily":
        """The transposes mod 2^k of T.aut_family, without repeats, in its order.

        The family is closed under inverse, so this sequence is too.  It is
        chosen once per context and keeps only which members of the family
        it lists; their actions on this context's cohomology are kept here,
        in actions().
        """
        if self._gens is None:
            self._gens = _TransposedFamily(self.T.aut_family, self.N.modulus)
        return self._gens

    def class_action(self, U: IntMatrix):
        return _class_action(self.H, U)

    def actions(self) -> _ActionMemo:
        """The class action of each generator, built on first use and kept here."""
        if self._actions is None:
            self._actions = _ActionMemo(self.aut_generators(), self.class_action)
        return self._actions

    def move_to(self, src: CohClass, dst: CohClass):
        """Automorphism word mod 2^k carrying src to dst, or None."""
        return _move_word(self, src, dst, self.N.rank, self.N.modulus)


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
            data = self._make(U).data
            if data not in seen:
                seen.add(data)
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
    for (Am, An) in ((A1, A2), (B1, B2)):
        for i in range(r2):
            for j in range(r1):
                eq = [0] * (r1 * r2)
                for t in range(r1):
                    eq[i * r1 + t] += Am.data[t][j]
                for t in range(r2):
                    eq[t * r1 + j] -= An.data[i][t]
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

    The dual side of the normal form: stable dual cohomology, z classes as
    stratum representatives, dual_hom_mod between summands and witnesses
    reduced mod 2^k.
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

    def representative(self, i: int, k: int):
        return self.ctxs[i].z_class(k)

    def representative_vector(self, i: int, k: int):
        return self.ctxs[i].z_vector(k)

    def homs(self, i: int, j: int) -> list[IntMatrix]:
        return dual_hom_mod(self.ctxs[i].N, self.ctxs[j].N)


@dataclass(frozen=True)
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
