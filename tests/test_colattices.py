import random

import pytest

from kleinlat.intmat import IntMatrix, smith_form, solve_int
from kleinlat.klein import diagonal_sign_lattice
from kleinlat.polys import F2Poly
from kleinlat.quiver import TubeId
from kleinlat.tubes import sweep_labels, tube_module, tube_module_from_label
from kleinlat.colattices import (
    ColatticeLevel,
    DualSumContext,
    DualTubeContext,
    StableDualCohomology,
    co_canonical_form,
    dual_target_basis,
    eta,
    verify_eta_iso,
)
from kleinlat.cohomology import (
    ClassGroup,
    Cochain,
    CohClass,
    _kernel_quotient,
    _representatives,
    differential_matrix,
    in_span,
    push_class,
    sum_orbit_partition,
)
from kleinlat.lattices import (
    ZLattice,
    finite_quotient,
    hnf,
    hnf_mod,
    intersection_mod,
    kernel_mod,
    pow2_quotient,
)

F = F2Poly.from_string("t^2+t+1")


def test_dual_level_basics():
    M = diagonal_sign_lattice((1, 0, 0, 0))
    N = ColatticeLevel(M, 1)
    assert N.modulus ** N.rank == 2
    assert N.transposed_module().act_a.data == ((1,),)
    T = tube_module(TubeId.special("1"), 1, 2)
    Nt = ColatticeLevel(T.lattice, 3)
    assert Nt.modulus ** Nt.rank == 8 ** T.lattice.rank
    mod = Nt.transposed_module()
    assert mod.act_a * mod.act_a == __import__("kleinlat.intmat", fromlist=["IntMatrix"]).IntMatrix.identity(T.lattice.rank)


def test_stable_group_orders():
    Tf1 = tube_module(TubeId.homogeneous(F), None, 1)
    assert StableDualCohomology(Tf1.lattice, 2).invariants == (2, 2)
    T11 = tube_module(TubeId.special("1"), 1, 1)
    assert StableDualCohomology(T11.lattice, 1).invariants == (2,)
    assert StableDualCohomology(T11.lattice, 2).invariants == ()
    # parity periodicity
    for n in (1, 2):
        a = StableDualCohomology(Tf1.lattice, n).order()
        b = StableDualCohomology(Tf1.lattice, n + 2).order()
        assert a == b


def test_eta_iso_small_sweep():
    for lam in ("0", "1", "inf"):
        for j in (1, 2):
            for m in (1, 2):
                T = tube_module(TubeId.special(lam), j, m)
                for n in (1, 2, 3, 4):
                    assert verify_eta_iso(T, n), (lam, j, m, n)
    for m in (1, 2):
        T = tube_module(TubeId.homogeneous(F), None, m)
        for n in (1, 2):
            assert verify_eta_iso(T, n)


def test_eta_rejects_bad_vector():
    T = tube_module(TubeId.homogeneous(F), None, 1)
    H = StableDualCohomology(T.lattice, 1)
    N = H.colattice
    with pytest.raises(ValueError):
        eta(N, tuple([1] * N.rank), 1, False)


def test_dual_chain_orthogonality():
    for label in sweep_labels(2):
        T = tube_module_from_label(label)
        dual = T.lattice.transposed()
        r = dual.rank
        chain = T.annihilator_chain
        assert len(chain) == len(T.chain) == T.m + 1
        lattices = [_span_of(emb, r) for _sub, emb in chain]
        ranks = [A.rank() for A in lattices]
        assert ranks[0] == 0 and ranks[-1] == r, label
        for k, ((sub, emb), A) in enumerate(zip(chain, lattices)):
            Mk = T.chain[k]
            # A_k = Ann(M_k) = (M/M_k)*
            assert all(sum(a * b for a, b in zip(x, v)) == 0 for x in A.basis for v in Mk.basis)
            # A_k is saturated: Z^r / A_k is torsion-free
            assert A.rank() == r - Mk.rank(), (label, k)
            assert all(d == 0 for d in finite_quotient(ZLattice.full(r), A).invariants), (label, k)
            if k:
                assert ranks[k - 1] < ranks[k] and A.contains_lattice(lattices[k - 1]), (label, k)
            if sub is None:
                assert k == 0
                continue
            # sub is A_k as a submodule of M*, not of M
            assert sub.rank == A.rank() == emb.cols
            assert dual.act_a * emb == emb * sub.act_a and dual.act_b * emb == emb * sub.act_b
        assert T.annihilator_chain is chain


def _span_of(emb, r):
    """The sublattice of Z^r spanned by the columns of an embedding."""
    return hnf([emb.col(j) for j in range(emb.cols)], r)


def test_dual_positions_and_z_classes():
    T = tube_module(TubeId.homogeneous(F), None, 2)
    ctx = DualTubeContext(T, 2)
    for k in (0, 1):
        zc = ctx.representative(k)
        assert zc is not None
        assert ctx.filtration_position(zc) == k
    assert ctx.filtration_position(ctx.H.zero()) == "zero"


def test_co_canonical_fibers_match_orbits():
    T = tube_module(TubeId.homogeneous(F), None, 2)
    sc = DualSumContext([T], 2)
    orbits = sum_orbit_partition(sc)
    fibers = {}
    for cls in sc.H.all_classes():
        cf = co_canonical_form([T], cls, 2, context=sc)
        key = (str(cf.data), tuple(sorted(str(l) for l in cf.n0_labels)))
        fibers.setdefault(key, set()).add(tuple(cls.coords))
        assert push_class(cf.witness, cls, sc.H) == cf.canonical_class
    assert sorted(map(frozenset, fibers.values())) == sorted(map(frozenset, orbits))


def test_co_canonical_two_summands():
    T1 = tube_module(TubeId.special("1"), 1, 2)
    T2 = tube_module(TubeId.special("1"), 1, 1)
    sc = DualSumContext([T1, T2], 2)
    orbits = sum_orbit_partition(sc)
    fibers = {}
    for cls in sc.H.all_classes():
        cf = co_canonical_form([T1, T2], cls, 2, context=sc)
        key = (str(cf.data), tuple(sorted(str(l) for l in cf.n0_labels)))
        fibers.setdefault(key, set()).add(tuple(cls.coords))
    assert sorted(map(frozenset, fibers.values())) == sorted(map(frozenset, orbits))
    # zero class leaves everything in the complement
    cf0 = co_canonical_form([T1, T2], sc.H.zero(), 2, context=sc)
    assert not cf0.data.entries and len(cf0.n0_labels) == 2


def test_costandard_sequence_shape():
    T = tube_module(TubeId.homogeneous(F), None, 2)
    sc = DualSumContext([T], 2)
    seen = set()
    for cls in sc.H.all_classes():
        cf = co_canonical_form([T], cls, 2, context=sc)
        if cf.positions[0] is not None:
            seen.add((cf.data.entries[0][1][0].m, cf.data.entries[0][1][0].k))
    assert (2, 1) in seen and (2, 0) in seen


def test_level_and_degree_bounds():
    T = tube_module(TubeId.homogeneous(F), None, 1)
    # below level 2 the generator cocycles (q/d) c would not vanish mod 2
    with pytest.raises(ValueError, match="level"):
        StableDualCohomology(T.lattice, 1, level=1)
    # the connecting map is an isomorphism only from degree 1 on
    with pytest.raises(ValueError, match="degree"):
        StableDualCohomology(T.lattice, 0)


def test_class_of_rejects_non_cocycles_and_classes_outside_the_stable_image():
    T = tube_module(TubeId.special("1"), 1, 2)
    H = StableDualCohomology(T.lattice, 1)
    reference = _ThreeLevelStable(T.lattice, 1, H.level)
    outside = [x for x in reference.carrier.all_classes() if not reference.in_stable_image(x)]
    assert outside
    for x in outside:
        with pytest.raises(ValueError, match="stable image"):
            H.class_of(reference.carrier.cochain_of(x))
    r = H.module.rank
    with pytest.raises(ValueError, match="not a cocycle"):
        H.class_of(Cochain(1, ((1,) * r, (0,) * r)))


# ---------------------------------------------------------------------------
# the reference: stable dual cohomology as the image of three finite levels
# ---------------------------------------------------------------------------


class _LevelCohomology(ClassGroup):
    """H^n(K, N_k) of the level-k truncation, cochains mod 2^k."""

    def __init__(self, M, n, k):
        q = 1 << k
        mod = M.transposed()
        self.module, self.n, self.modulus = mod, n, q
        r = mod.rank
        D = differential_matrix(mod, n)
        Dprev = differential_matrix(mod, n - 1)
        self._kernel = kernel_mod(D, q)
        image = hnf_mod([list(Dprev.col(j)) for j in range(Dprev.cols)], (n + 1) * r, q).basis
        self._q = _kernel_quotient(self._kernel, image, k)
        flats = _representatives(self._kernel.basis_matrix(), self._q)
        self.invariants = self._q.invariants
        self.generators = tuple(Cochain.unflatten(n, r, f).reduce(q) for f in flats)

    def class_of(self, gamma):
        c = self._kernel.coords([x % self.modulus for x in gamma.flatten()])
        if c is None:
            raise ValueError("not a cocycle")
        return CohClass(self, self._q.coords(c))


def _image_gens(low, high):
    return [high.class_of(g.scale(2)) for g in low.generators]


def _subgroup_order(H, gens):
    """Order of the subgroup of H = sum of Z/d_i generated by gens."""
    moduli = H.invariants
    s = len(moduli)
    rows = [list(g.coords) for g in gens]
    rows.extend([d if t == i else 0 for t in range(s)] for i, d in enumerate(moduli))
    index = 1
    for i, row in enumerate(hnf_mod(rows, s, H.exponent()).basis):
        index *= row[i]
    return H.order() // index


class _ThreeLevelStable(ClassGroup):
    """The direct limit as the image E of level `level` in level `level`+1.

    The stabilization check asks the image one level lower for the same
    order; coordinates on E come from the relations among the images of the
    level generators.  The generators are classes of the carrier group.
    """

    def __init__(self, M, n, level):
        self.n, self.level = n, level
        self.colattice = ColatticeLevel(M, level + 1)
        self.modulus = self.colattice.modulus
        low = _LevelCohomology(M, n, level)
        self.carrier = _LevelCohomology(M, n, level + 1)
        self.module = self.carrier.module
        gens = _image_gens(low, self.carrier)
        lower = _LevelCohomology(M, n, level - 1)
        assert _subgroup_order(low, _image_gens(lower, low)) == _subgroup_order(self.carrier, gens)
        self._gens = gens
        g, moduli = len(gens), self.carrier.invariants
        self.invariants, self.generators = (), ()
        if g and moduli:
            W = IntMatrix([[gen.coords[i] * (4 // d if d <= 4 else 1) for gen in gens]
                           for i, d in enumerate(moduli)], cols=g)
            self._rel_q = pow2_quotient(kernel_mod(W, 4).basis_matrix(), g, 3)
            self.invariants = self._rel_q.invariants
            G = IntMatrix([list(x.coords) for x in gens], cols=len(moduli)).transpose()
            self._solve_matrix = G.hstack(IntMatrix.diagonal(list(moduli)))
            self._smith = smith_form(self._solve_matrix)
            out = []
            for rel in self._rel_q.generators:
                cls = self.carrier.zero()
                for c, img in zip(rel, gens):
                    for _ in range(c % 4):
                        cls = cls.add(img)
                out.append(cls)
            self.generators = tuple(out)

    def coords_of_carrier(self, cls):
        if not self.invariants:
            if any(cls.coords):
                raise ValueError("class is not in the stable image")
            return ()
        x = solve_int(self._solve_matrix, list(cls.coords), self._smith)
        if x is None:
            raise ValueError("class is not in the stable image")
        return self._rel_q.coords(list(x[: len(self._gens)]))

    def in_stable_image(self, cls) -> bool:
        try:
            self.coords_of_carrier(cls)
        except ValueError:
            return False
        return True

    def class_of(self, gamma):
        return CohClass(self, self.coords_of_carrier(self.carrier.class_of(gamma)))


def _carrier_sample(carrier, rng):
    """Every class of the carrier group, or 64 seeded ones beyond 256."""
    if carrier.order() <= 256:
        return list(carrier.all_classes())
    return [carrier.from_coords([rng.randrange(d) for d in carrier.invariants]) for _ in range(64)]


def _check_against_three_levels(T, n, level, rng):
    new = StableDualCohomology(T.lattice, n, level)
    old = _ThreeLevelStable(T.lattice, n, level)
    where = (str(T.label), n, level)
    assert new.invariants == old.invariants, where
    # the connecting map sends the old generators onto the new group
    images = [new.class_of(old.carrier.cochain_of(g)) for g in old.generators]
    assert _subgroup_order(new, images) == new.order() == old.order(), where
    # the new generators are even carrier cocycles, stable, with unit coordinates
    for i, g in enumerate(new.generators):
        assert all(0 <= x < new.modulus and x % 2 == 0 for v in g.values for x in v), where
        assert old.in_stable_image(old.carrier.class_of(g)), where
        unit = tuple(int(t == i) for t in range(len(new.invariants)))
        assert new.class_of(g).coords == unit, where
    for x in _carrier_sample(old.carrier, rng):
        gamma = old.carrier.cochain_of(x)
        try:
            coords = old.coords_of_carrier(x)
        except ValueError:
            with pytest.raises(ValueError, match="stable image"):
                new.class_of(gamma)
            continue
        want = [sum(c * img.coords[t] for c, img in zip(coords, images))
                for t in range(len(new.invariants))]
        assert new.class_of(gamma) == new.from_coords(want), where
    assert verify_eta_iso(T, n, level, new) == verify_eta_iso(T, n, level, old), where


def test_connecting_map_matches_the_three_level_reference_at_level_3():
    rng = random.Random(5)
    for label in sweep_labels(3):
        T = tube_module_from_label(label)
        for n in (1, 2, 3, 4):
            _check_against_three_levels(T, n, 3, rng)


def test_connecting_map_matches_the_three_level_reference_at_levels_2_and_4():
    rng = random.Random(6)
    for label in sweep_labels(2):
        T = tube_module_from_label(label)
        for n in (1, 2, 3):
            for level in (2, 4):
                _check_against_three_levels(T, n, level, rng)


def test_colattice_level_keeps_its_transpose_and_torsion_lattices():
    T = tube_module(TubeId.homogeneous(F), None, 2)
    H = StableDualCohomology(T.lattice, 2)
    N = H.colattice
    assert N.transposed_module() is T.lattice.transposed()
    assert H.module is N.transposed_module()
    basis = dual_target_basis(N, 2, False)
    kept = dict(N._torsion)
    assert list(kept) == ["mp"]
    for u in basis:
        eta(N, u, 2, False)
    assert N._torsion == kept and N._torsion["mp"] is kept["mp"]
    # equality and hashing ignore what is kept
    assert N == ColatticeLevel(T.lattice, N.level) and hash(N) == hash(ColatticeLevel(T.lattice, N.level))


# ---------------------------------------------------------------------------
# the reference filtration: sub-complexes of the annihilators mod 2^level
# ---------------------------------------------------------------------------


def _annihilators_mod(T, q):
    """The annihilator mod q of each M_k, from qZ^r for M_0 up to Z^r."""
    return [kernel_mod(Mk.basis_matrix(), q) for Mk in T.chain]


def _order_mod(L, q):
    """Order of L/qZ^r."""
    r = L.ambient_rank
    full = hnf_mod([[q if i == j else 0 for j in range(r)] for i in range(r)], r, q)
    out = 1
    for d in finite_quotient(L, full).invariants:
        out *= d
    return out


def _cochains_in(L, slots, r):
    """Flattened cochains with slots values, one of them a basis row of L."""
    out = []
    for j in range(slots):
        for row in L.basis:
            vec = [0] * (slots * r)
            vec[j * r: (j + 1) * r] = list(row)
            out.append(vec)
    return out


def _reference_images(H, T, level):
    """For each annihilator N_k mod 2^level, the classes of H visible from it.

    The mod-2^level cohomology of the sub-complex of cochains with values
    in N_k; doubling its generator cocycles lands them at the carrier level
    inside the stable image.
    """
    q = 1 << level
    n, mod = H.n, H.module
    r = mod.rank
    kerD = kernel_mod(differential_matrix(mod, n), q)
    Dprev = differential_matrix(mod, n - 1)
    out = []
    for L in _annihilators_mod(T, q):
        if _order_mod(L, q) == 1:
            out.append([])
            continue
        W = hnf_mod(_cochains_in(L, n + 1, r), (n + 1) * r, q)
        ker = intersection_mod(kerD, W, q)
        img_rows = [Dprev.apply(v) for v in hnf_mod(_cochains_in(L, n, r), n * r, q).basis]
        img = hnf_mod([list(v) for v in img_rows], (n + 1) * r, q)
        flats = _representatives(ker.basis_matrix(), _kernel_quotient(ker, img.basis, level))
        out.append([H.class_of(Cochain.unflatten(n, r, f).scale(2).reduce(2 * q)) for f in flats])
    return out


def _reference_position(images, cls):
    if cls.is_zero():
        return "zero"
    return next(k - 1 for k in range(1, len(images)) if in_span(images[k], cls))


def test_dual_filtration_matches_the_mod_2k_reference():
    for label in sweep_labels(2):
        T = tube_module_from_label(label)
        for level in (2, 3, 4):
            # the carrier chain representative_vector reads is the
            # annihilator mod 2^(level+1)
            q = 1 << (level + 1)
            r = T.lattice.rank
            for (_sub, emb), L in zip(T.annihilator_chain, _annihilators_mod(T, q)):
                carrier = hnf_mod([emb.col(j) for j in range(emb.cols)], r, q)
                assert carrier.basis == L.basis, (str(label), level)
            for n in (1, 2, 3):
                where = (str(label), n, level)
                ctx = DualTubeContext(T, n, level)
                H = ctx.H
                old = _reference_images(H, T, level)
                new = ctx._chain_images()
                assert len(new) == len(old) == T.m + 1, where
                for k in range(len(old)):
                    both = _subgroup_order(H, old[k] + new[k])
                    assert _subgroup_order(H, old[k]) == _subgroup_order(H, new[k]) == both, (where, k)
                for cls in H.all_classes():
                    assert ctx.filtration_position(cls) == _reference_position(old, cls), (where, cls)
