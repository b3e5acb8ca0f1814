"""Regular tube modules: constructors, chains, syzygies, endomorphism rings.

tube_module() realizes a labelled tube member as an honest lattice; the
member holds its label and that lattice, and builds everything else, its
canonical submodule chain first, on first read.  The chain is built one step
at a time: find a map onto the quasi-simple top (by lifting a surjective
quiver morphism), take the kernel, repeat.  Layer labels are recomputed from
the actual subquotients rather than trusted, so the kept data is
self-checking.

hom_klattices() computes an integer basis of the K-equivariant maps between
two overring lattices through their sharp coordinates: a block-diagonal
unknown is constrained by an integrality congruence mod a power of two,
which keeps the linear algebra word-sized.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from .checks import ensure
from .f2 import F2Matrix, nullspace as f2_nullspace, rank as f2_rank
from .intmat import IntMatrix, determinant, inverse_unimodular, kernel_basis, smith_form, solve_matrix_exact
from .klein import GROUP, SIGN_KEYS, GroupElt, KLattice, invariant_sublattice_module, is_A_lattice
from .klein import regular_representation, two_msharp_in_m
from .lattices import ZLattice, hnf, kernel_mod, lift_invertible
from .polys import F2Poly
from .quiver import (
    NON_REGULAR,
    LambdaRep,
    LatticeModel,
    TubeId,
    TubeLabel,
    _embedding_matrix,
    _span_elements,
    decompose,
    hom_reps,
    identify_tube,
    label_rep,
    lattice_of_model,
    lift_morphism,
    phi,
    phi_data,
)

T_POLY = F2Poly.t()
T1_POLY = F2Poly.from_string("t+1")


MAX_MEMBER_RANK = 1024  # see tube_module


def member_rank(label: TubeLabel) -> int:
    """The Z-rank of the member's lattice, fixed by its label before it is built:
    4 deg(f) m for T[f]_m, 2 m on a special tube."""
    if label.tube.kind == "special":
        return 2 * label.m
    return 4 * label.tube.poly.degree() * label.m


@dataclass(frozen=True)
class TubeModule:
    """A tube member: its label and its realization, the rest built on first read.

    chain[k] is M_k as a pair (sub, embed), k = 0..m: sub the KLattice of M_k
    (None for M_m = 0) and embed the matrix whose columns span M_k in the
    module's own coordinates.  layer_labels[k] is the label of M_k / M_{k+1}.
    Both come from one _chain_for call on the first read of either, so a
    caller that reads only the lattice never builds them.
    """

    label: TubeLabel
    model: LatticeModel

    @property
    def lattice(self) -> KLattice:
        return self.model.module

    @property
    def m(self) -> int:
        return self.label.m

    @cached_property
    def _chain_and_layers(self) -> tuple:
        return _chain_for(self.lattice, self.label)

    @property
    def chain(self) -> tuple:
        return self._chain_and_layers[0]

    @property
    def layer_labels(self) -> tuple:
        return self._chain_and_layers[1]

    @cached_property
    def aut_family(self) -> "_PackedFamily":
        """Generators of the automorphisms that act on H^n, closed under inverse.

        The unit lifts of Aut(Phi(T)) and -1 (see _aut_generator_family).
        They depend on the member alone, so they are built once, on first
        use, and kept on the member, packed (_PackedFamily), for the
        cohomology contexts of every degree on both sides.
        """
        return _aut_generator_family(self)

    @cached_property
    def contexts(self) -> dict:
        """The cohomology contexts of this member, built on first use.

        Keyed by (context class, degree) on the lattice side and (context
        class, degree, level) on the dual side; TubeCohContext.of fills it,
        so every sum over the member shares one context per key.
        """
        return {}

    @cached_property
    def annihilator_chain(self) -> tuple:
        """The annihilators A_k = Ann(M_k) in M*, M* the transposed module.

        A_k is the pure sublattice of x with <x, v> = 0 for all v in M_k, and
        entry k is (sub, embed): its KLattice (None for A_0 = 0) and the
        embedding into M*, whose columns span A_k.  A_k = (M/M_k)*, so the
        chain rises from 0 to A_m = M*.  Built on first use and kept on the
        member for the dual contexts of every degree and every sum.
        """
        dual = self.lattice.transposed()
        out = []
        for _sub, Mk in self.chain:
            A = hnf([list(v) for v in kernel_basis(Mk.transpose())], dual.rank)
            sub, _quot, embed, _proj = invariant_sublattice_module(dual, A)
            out.append((sub, embed))
        return tuple(out)


def _surjection(homs, W: LambdaRep):
    """The first element of a hom basis that is onto W at every vertex, or None.

    The scan is exact for a quasi-simple W: regular modules form an abelian
    category in which W is simple, so every nonzero map from a member of its
    tube onto W is onto, and the branch that is not the top has Hom = 0.
    """
    for cand in homs:
        if f2_rank(cand.phi_dot) == W.dims.d_dot and all(
            f2_rank(cand.phi[k]) == W.dims.component(k) for k in SIGN_KEYS
        ):
            return cand
    return None


def _chain_for(module: KLattice, label: TubeLabel):
    """Submodule chain M_0 > M_1 > ... > M_m = 0 as (sub, embed) pairs, with
    the layer labels; read it through TubeModule.chain."""
    n_amb = module.rank
    chain = [(module, IntMatrix.identity(n_amb))]
    layer_labels = []
    cur = module
    cur_label = label
    while cur_label.m > 1:
        if cur_label.tube.kind == "special":
            pred = cur_label.j if cur_label.m % 2 == 1 else 3 - cur_label.j
            top_candidates = [pred, 3 - pred]
        else:
            top_candidates = [None]
        found = None
        d_cur = phi_data(cur)
        for branch in top_candidates:
            S_label = TubeLabel(cur_label.tube, branch, 1)
            S_mod = lattice_of_model(label_rep(S_label)).module
            W = phi(S_mod)
            homs = hom_reps(d_cur.rep, W)
            onto = _surjection(homs, W)
            if onto is not None:
                found = (S_label, S_mod, onto)
                break
        ensure(found is not None, f"no quasi-simple quotient found below {cur_label}")
        S_label, S_mod, onto = found
        psi = lift_morphism(onto, cur, S_mod)
        ker = hnf([list(v) for v in kernel_basis(psi)], cur.rank)
        sub, _quot, embed, _proj = invariant_sublattice_module(cur, ker)
        ensure(sub is not None and sub.rank == cur.rank - S_mod.rank,
               f"the kernel onto the top of {cur_label} has the wrong rank")
        layer_labels.append(S_label)
        chain.append((sub, chain[-1][1] * embed))
        sub_label = identify_tube(phi(sub))
        ensure(sub_label != NON_REGULAR and sub_label.tube == cur_label.tube,
               f"the radical of {cur_label} left its tube")
        ensure(sub_label.m == cur_label.m - 1,
               f"the radical of {cur_label} is {sub_label}, not one shorter")
        cur = sub
        cur_label = sub_label
    layer_labels.append(cur_label)
    chain.append((None, IntMatrix.zero(n_amb, 0)))
    # a member keeps its chain modules, and nothing reads their Phi again
    for sub, _embed in chain[1:-1]:
        sub.forget_phi()
    return tuple(chain), tuple(layer_labels)


def tube_module(tube: TubeId, j: Optional[int], m: int) -> TubeModule:
    """Construct the length-m member of a tube (branch j if special).

    Raises ValueError, before building anything, for a member whose rank
    (member_rank) exceeds MAX_MEMBER_RANK: a resource guard, not a bound on
    any answer.  Measured on the lattice alone (no chain), CPython 3.11 on a
    shared 2-CPU host: rank 800 builds in 0.6-0.8 s with a 50 MB peak, rank
    1024 in 1.0-1.2 s with 71 MB, rank 1600 in 2.8 s with 148 MB.
    """
    if tube.kind == "special":
        if j not in (1, 2):
            raise ValueError(f"special tubes have branches j = 1, 2, not j = {j}")
    else:
        if j is not None:
            raise ValueError("homogeneous tubes take no branch index")
    if m < 1:
        raise ValueError(f"tube length must be >= 1, not m = {m}")
    label = TubeLabel(tube, j, m)
    rank = member_rank(label)
    if rank > MAX_MEMBER_RANK:
        raise ValueError(f"{label} has rank {rank}, over the limit of {MAX_MEMBER_RANK}")
    return TubeModule(label=label, model=lattice_of_model(label_rep(label)))


def tube_module_from_label(label: TubeLabel, with_chain: bool = True) -> TubeModule:
    """tube_module of a label.  with_chain is read by nothing (the chain is built
    on first read); it is kept for callers that still pass it, the benchmark's."""
    return tube_module(label.tube, label.j, label.m)


# ---------------------------------------------------------------------------
# integer hom spaces
# ---------------------------------------------------------------------------


def _block_slots(dimsN, dimsM):
    slots = []
    roN = 0
    roM = 0
    for t in range(4):
        for a in range(dimsN[t]):
            for b in range(dimsM[t]):
                slots.append((roN + a, roM + b))
        roN += dimsN[t]
        roM += dimsM[t]
    return slots


def hom_klattices(M: KLattice, N: KLattice):
    """Z-basis of the K-equivariant maps M -> N (both overring lattices)."""
    dM = phi_data(M)
    dN = phi_data(N)
    E_M = _embedding_matrix(dM)
    E_N = _embedding_matrix(dN)
    det_N = determinant(E_N)
    q = abs(det_N)
    adjN = solve_matrix_exact(E_N, IntMatrix.diagonal([det_N] * N.rank))
    dimsM = [c.rank() for c in dM.sharp.components]
    dimsN = [c.rank() for c in dN.sharp.components]
    slots = _block_slots(dimsN, dimsM)
    u = len(slots)
    if u == 0:
        return []
    if q == 1:
        sol_rows = [[1 if t == s else 0 for t in range(u)] for s in range(u)]
    else:
        W_rows = []
        adj, emb = adjN.data, E_M.data
        for i in range(N.rank):
            for jj in range(M.rank):
                row = [
                    (adj[i][a] * emb[b][jj]) % q for (a, b) in slots
                ]
                W_rows.append(row)
        W = IntMatrix(W_rows, cols=u)
        sol = kernel_mod(W, q)
        sol_rows = [list(r) for r in sol.basis]
    out = []
    for y in sol_rows:
        Y = [[0] * M.rank for _ in range(N.rank)]
        for val, (a, b) in zip(y, slots):
            Y[a][b] = val
        Ym = IntMatrix(Y, cols=M.rank)
        prod = adjN * Ym * E_M
        psi_rows = []
        for r in prod.data:
            ensure(all(x % det_N == 0 for x in r), "a hom solution is not integral")
            psi_rows.append([x // det_N for x in r])
        psi = IntMatrix(psi_rows, cols=M.rank)
        ensure(psi * M.act_a == N.act_a * psi and psi * M.act_b == N.act_b * psi,
               "a hom solution is not K-equivariant")
        out.append(psi)
    return out


def _ambient_to_module(T: TubeModule, amb: IntMatrix) -> IntMatrix:
    """Rewrite an ambient block-diagonal map preserving M in M's coordinates."""
    Bc = T.model.basis.transpose()
    U = solve_matrix_exact(Bc, amb * Bc)
    ensure(U * T.lattice.act_a == T.lattice.act_a * U and U * T.lattice.act_b == T.lattice.act_b * U,
           "an ambient unit does not commute with the action")
    return U


def _aut_generator_family(T: TubeModule) -> "_PackedFamily":
    """Generating family of automorphisms of T's lattice (closed under inverse).

    The unit lifts of invertible quiver endomorphisms (blockwise unimodular
    {0,1}-lifts), each followed by its inverse, then -1.  The units
    congruent to the identity mod 2 on the sharp overlattice (sign flips and
    1 + 2E_ij per block, and on the dual side 1 + 2E^T) act as the identity
    on H^n, so the class action factors through Aut(Phi(T)) and they are
    left out: checked on every member of sweep_labels(3) for n = 1..4 on
    both sides, and kept checked by tests/test_actions.py.  -1 is such a
    unit; it stays so that the family, which random automorphisms are drawn
    from, is never empty (the special members with m <= 2 have no unit lift).

    The quiver endomorphisms tried are the whole span of End up to 9 basis
    elements, else the basis and 512 draws with seed 0 (_span_elements).
    Completeness of the family is empirical; the orbit oracle cross-checks
    it on small cohomology groups.  Read it through TubeModule.aut_family.
    """
    rep = phi(T.lattice)
    out = []
    seen = set()

    def push(U: IntMatrix):
        if abs(determinant(U)) != 1:
            return
        for W in (U, inverse_unimodular(U)):
            if not W.is_identity() and W not in seen:
                seen.add(W)
                out.append(W)

    for e in _span_elements(hom_reps(rep, rep), 9, tries=512, seed=0):
        if e.is_invertible():
            push(_ambient_to_module(T, IntMatrix.block_diagonal(
                [lift_invertible(e.phi[k]) for k in SIGN_KEYS])))
    push(IntMatrix.identity(T.lattice.rank).scale(-1))
    return _PackedFamily(out, T.lattice.rank)


class _PackedFamily(Sequence):
    """Square integer matrices, each kept as IntMatrix.pack() bytes when they fit.

    A member keeps its unit family for its lifetime, and a census pass keeps
    its members.  A unit of a rank-24 member has about 90 nonzero entries of
    576, so its packed form takes about 240 bytes, a fifth of the sparse
    matrix.  A read unpacks one matrix: a context reads each generator about
    once, to build its action, and a word search only those on its word.
    """

    def __init__(self, mats: list[IntMatrix], rank: int):
        self._rank = rank
        self._mats = tuple(U.pack() or U for U in mats)

    def __len__(self) -> int:
        return len(self._mats)

    def __getitem__(self, g: int) -> IntMatrix:
        U = self._mats[g]
        return U if isinstance(U, IntMatrix) else IntMatrix.unpack(U, self._rank, self._rank)


def hom_cross_tube_check(Mt: TubeModule, Nt: TubeModule) -> bool:
    """Every K-map between members of different tubes lands in 2 N^#.

    2 N^# is twice the ambient overlattice of the target (equivalently the
    radical-ideal multiple of N); images of cross-tube maps always fall into
    it because the induced quiver morphism vanishes.
    """
    if Mt.label.tube == Nt.label.tube:
        raise ValueError("same tube")
    L = two_msharp_in_m(Nt.lattice)
    ensure(L is not None, "the target is not a module over the minimal overring")
    for psi in hom_klattices(Mt.lattice, Nt.lattice):
        for j in range(Mt.lattice.rank):
            col = psi.col(j)
            if L.coords(col) is None:
                return False
    return True


def hom_cross_tube_strict_2n(Mt: TubeModule, Nt: TubeModule) -> bool:
    """Literal containment of cross-tube hom images in 2N (generally false)."""
    if Mt.label.tube == Nt.label.tube:
        raise ValueError("same tube")
    for psi in hom_klattices(Mt.lattice, Nt.lattice):
        if any(x % 2 for row in psi.data for x in row):
            return False
    return True


# ---------------------------------------------------------------------------
# syzygies
# ---------------------------------------------------------------------------


def is_regular(M: KLattice) -> bool:
    if not is_A_lattice(M):
        return False
    for W, _mult in decompose(phi(M)):
        if identify_tube(W) == NON_REGULAR:
            return False
    return True


def syzygy(M: KLattice) -> KLattice:
    """Kernel of the free cover R^{d_dot} -> M on lifted generators."""
    if M.rank == 0:
        raise ValueError("rank 0: the zero lattice has a zero free cover and no syzygy")
    if not is_regular(M):
        raise ValueError("not regular")
    d = phi_data(M)
    gens = d.u_vectors
    dd = len(gens)
    cols = []
    for i in range(dd):
        for g in GROUP:
            cols.append(M.apply(g, gens[i]))
    Psi = IntMatrix(
        [[cols[c][r] for c in range(4 * dd)] for r in range(M.rank)], cols=4 * dd
    )
    sf = smith_form(Psi)
    ensure(sf.rank() == M.rank and all(x == 1 for x in sf.invariants()), "cover not onto")
    ker = hnf([list(v) for v in kernel_basis(Psi)], 4 * dd)
    free = regular_representation(dd)
    sub, _quot, _embed, _proj = invariant_sublattice_module(free, ker)
    ensure(sub is not None, "the syzygy is zero")
    return sub


# ---------------------------------------------------------------------------
# endomorphism rings as orders
# ---------------------------------------------------------------------------


def _member_conditions_mod2(model: LatticeModel) -> F2Matrix:
    """Rows h with: x in M  iff  h . x = 0 mod 2 (for x in the ambient)."""
    B2 = F2Matrix(model.basis.data, cols=model.basis.cols)
    # rows of B2 span M mod 2; the conditions are the kernel of B2 (as rows)
    rel = f2_nullspace(B2)
    return F2Matrix([list(v) for v in rel], cols=model.basis.cols)


def end_order_lattice(model: LatticeModel) -> ZLattice:
    """End_A(M) as a lattice of block-diagonal ambient matrices, flattened."""
    mult = model.ambient_dims
    n = sum(mult)
    H = _member_conditions_mod2(model)
    slots = _block_slots(mult, mult)
    u = len(slots)
    rows = []
    for v in model.basis.data:
        for hrow in H.data:
            eq = [0] * u
            for idx, (a, b) in enumerate(slots):
                if hrow[a] & v[b] & 1:
                    eq[idx] ^= 1
            rows.append(eq)
    if rows:
        sols = f2_nullspace(F2Matrix(rows, cols=u))
    else:
        sols = [tuple(1 if t == s else 0 for t in range(u)) for s in range(u)]
    gens = [list(v) for v in sols]
    gens.extend([2 if t == s else 0 for t in range(u)] for s in range(u))
    return hnf(gens, u)


def expected_end_order(label: TubeLabel, lift_coeffs: Optional[list[int]] = None) -> ZLattice:
    """The predicted order: companion-diagonal part plus twice everything."""
    rep = label_rep(label)
    mult = tuple(rep.dims.component(k) for k in ("pp", "pm", "mp", "mm"))
    slots = _block_slots(mult, mult)
    u = len(slots)
    if label.tube.kind == "hom":
        f = label.tube.poly
        if lift_coeffs is None:
            lift_coeffs = [int(c) for c in f.coeffs]
        g = _int_poly_power(lift_coeffs, label.m)
        size = (f.degree()) * label.m
        comp = _int_companion(g, size)
        powers = [_int_power(comp, k) for k in range(size)]
        blocks = [[powers[k]] * 4 for k in range(size)]
    else:
        # the odd-length normal form realizes the truncated polynomial ring
        # with the basis order reversed, so the shift transposes
        upper = label.m % 2 == 1
        mmax = max(mult)
        shifts = {s: _int_shift(s, upper) for s in set(mult)}
        blocks = []
        for k in range(mmax):
            blocks.append([_int_power(shifts[s], k) for s in mult])
    gens = []
    for quad in blocks:
        vec = [0] * u
        roN = 0
        for t in range(4):
            block = quad[t].data
            for idx, (a, b) in enumerate(slots):
                if roN <= a < roN + mult[t] and roN <= b < roN + mult[t]:
                    vec[idx] = block[a - roN][b - roN]
            roN += mult[t]
        gens.append(vec)
    gens.extend([2 if t == s else 0 for t in range(u)] for s in range(u))
    return hnf(gens, u)


def _int_poly_power(coeffs: list[int], m: int) -> list[int]:
    out = [1]
    for _ in range(m):
        new = [0] * (len(out) + len(coeffs) - 1)
        for i, a in enumerate(out):
            if a:
                for j, b in enumerate(coeffs):
                    new[i + j] += a * b
        out = new
    return out


def _int_shift(size: int, upper: bool) -> IntMatrix:
    m = [[0] * size for _ in range(size)]
    for i in range(size - 1):
        if upper:
            m[i][i + 1] = 1
        else:
            m[i + 1][i] = 1
    return IntMatrix(m, cols=size)


def _int_companion(monic_coeffs: list[int], size: int) -> IntMatrix:
    ensure(monic_coeffs[-1] == 1 and len(monic_coeffs) == size + 1,
           f"not a monic polynomial of degree {size}: {monic_coeffs}")
    m = [[0] * size for _ in range(size)]
    for i in range(size - 1):
        m[i + 1][i] = 1
    for i in range(size):
        m[i][size - 1] = -monic_coeffs[i]
    return IntMatrix(m, cols=size)


def _int_power(Mtx: IntMatrix, k: int) -> IntMatrix:
    out = IntMatrix.identity(Mtx.rows)
    for _ in range(k):
        out = out * Mtx
    return out


def end_ring_check(T: TubeModule, lift_coeffs: Optional[list[int]] = None) -> bool:
    """Lattice equality of End_A(T) with the predicted order."""
    got = end_order_lattice(T.model)
    want = expected_end_order(T.label, lift_coeffs=lift_coeffs)
    return got == want


# ---------------------------------------------------------------------------
# the symmetric-group action on labels
# ---------------------------------------------------------------------------

TAU2 = "t2"  # exchanges a and b
TAU3 = "t3"  # exchanges a and c

_S3_IMAGES = {
    "id": ("a", "b"),
    TAU2: ("b", "a"),
    TAU3: ("c", "b"),
    "t2t3": ("c", "a"),  # t2 after t3
    "t3t2": ("b", "c"),  # t3 after t2
    "t2t3t2": ("a", "c"),
}

_ELT = {"a": GroupElt(1, 0), "b": GroupElt(0, 1), "c": GroupElt(1, 1)}

# action on the three special points, from the component exchange each
# generator performs (t2 swaps the +- and -+ components, t3 swaps +- and --)
_SPECIAL_ACTION = {
    TAU2: {"0": "0", "1": "inf", "inf": "1"},
    TAU3: {"0": "1", "1": "0", "inf": "inf"},
}


def s3_images(which: str) -> tuple[GroupElt, GroupElt]:
    ia, ib = _S3_IMAGES[which]
    return _ELT[ia], _ELT[ib]


def twist_module(M: KLattice, which: str) -> KLattice:
    ia, ib = s3_images(which)
    return M.twist(ia, ib)


def s3_on_polynomial(f: F2Poly, which: str) -> F2Poly:
    """Transform of a homogeneous tube label under t2 or t3."""
    if f in (T_POLY, T1_POLY):
        raise ValueError("special label required")
    if not f.is_irreducible():
        raise ValueError("polynomial must be irreducible")
    if which == TAU2:
        out = f.compose_frac(F2Poly.t(), T1_POLY)
    elif which == TAU3:
        out = f.compose_frac(T1_POLY, F2Poly.one())
    else:
        raise ValueError("which must be 't2' or 't3'")
    ensure(out.is_monic() and out.degree() == f.degree(), f"the transform of {f} lost its degree")
    return out


def s3_on_tube(tube: TubeId, which: str) -> TubeId:
    """Transform of a tube label under t2 or t3."""
    if which == "id":
        return tube
    if tube.kind == "special":
        if which in _SPECIAL_ACTION:
            return TubeId.special(_SPECIAL_ACTION[which][tube.lam])
        lam = tube.lam
        for step in _word(which):
            lam = _SPECIAL_ACTION[step][lam]
        return TubeId.special(lam)
    f = tube.poly
    for step in _word(which):
        f = s3_on_polynomial(f, step)
    return TubeId.homogeneous(f)


def _word(which: str) -> list[str]:
    """Decompose an S3 element name into generator applications.

    Composition is right-to-left: "t2t3" means apply t3 first, then t2.
    """
    table = {
        "id": [],
        TAU2: [TAU2],
        TAU3: [TAU3],
        "t2t3": [TAU3, TAU2],
        "t3t2": [TAU2, TAU3],
        "t2t3t2": [TAU2, TAU3, TAU2],
    }
    return table[which]


# classify moves the same few labels under each S3 element for every pair it compares
@lru_cache(maxsize=None)
def transport_label(label: TubeLabel, which: str) -> TubeLabel:
    """Label of the twisted module, computed from an actual twist."""
    M = lattice_of_model(label_rep(label)).module
    got = identify_tube(phi(twist_module(M, which)))
    ensure(got != NON_REGULAR, f"the twist of {label} by {which} is not regular")
    return got


def sweep_labels(max_m: int) -> list[TubeLabel]:
    """The standard test sweep of tube labels."""
    out = []
    for txt in ("t^2+t+1", "t^3+t+1"):
        f = F2Poly.from_string(txt)
        for m in range(1, max_m + 1):
            out.append(TubeLabel(TubeId.homogeneous(f), None, m))
    for lam in ("0", "1", "inf"):
        for j in (1, 2):
            for m in range(1, max_m + 1):
                out.append(TubeLabel(TubeId.special(lam), j, m))
    return out
