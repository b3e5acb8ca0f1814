import random

import pytest

from kleinlat.klein import sign_lattice
from kleinlat.polys import F2Poly
from kleinlat.quiver import TubeId
from kleinlat.tubes import sweep_labels, tube_module, tube_module_from_label
from kleinlat.colattices import (
    ColatticeLevel,
    DualSumContext,
    DualTubeContext,
    StableDualCohomology,
    _image_gens,
    _subgroup_order,
    co_canonical_form,
    dual_chain,
    dual_target_basis,
    eta,
    subgroup_order,
    verify_eta_iso,
)
from kleinlat.cohomology import ClassGroup, push_class, sum_orbit_partition

F = F2Poly.from_string("t^2+t+1")


def test_dual_level_basics():
    M = sign_lattice("+", "+")
    N = ColatticeLevel(M, 1)
    assert N.order() == 2
    assert N.transposed_module().act_a.data == ((1,),)
    T = tube_module(TubeId.special("1"), 1, 2)
    Nt = ColatticeLevel(T.lattice, 3)
    assert Nt.order() == 8 ** T.lattice.rank
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
    T = tube_module(TubeId.homogeneous(F), None, 2)
    chain = dual_chain(T)
    N = ColatticeLevel(T.lattice, 3)
    orders = [subgroup_order(N, L) for L in chain]
    assert orders[0] == 1 and orders[-1] == N.order()
    for k in range(len(orders) - 1):
        assert orders[k] < orders[k + 1]
    for k, L in enumerate(chain):
        sub = T.chain[k]
        for row in L.basis:
            for v in sub.basis:
                assert sum(a * b for a, b in zip(row, v)) % N.modulus == 0
    # orders match the duals of the quotients M/M_k level-wise
    for k in range(len(chain)):
        rank_quot = T.lattice.rank - T.chain[k].rank()
        assert orders[k] == N.modulus ** rank_quot


def test_dual_positions_and_z_classes():
    T = tube_module(TubeId.homogeneous(F), None, 2)
    ctx = DualTubeContext(T, 2)
    for k in (0, 1):
        zc = ctx.z_class(k)
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
    assert cf0.data.is_empty() and len(cf0.n0_labels) == 2


def test_costandard_sequence_shape():
    T = tube_module(TubeId.homogeneous(F), None, 2)
    sc = DualSumContext([T], 2)
    seen = set()
    for cls in sc.H.all_classes():
        cf = co_canonical_form([T], cls, 2, context=sc)
        if cf.positions[0] is not None:
            seen.add((cf.data.entries[0][1][0].m, cf.data.entries[0][1][0].k))
    assert (2, 1) in seen and (2, 0) in seen


def test_not_stabilized_detection():
    # absurdly low level: the stabilization check must engage (level >= 2)
    T = tube_module(TubeId.homogeneous(F), None, 1)
    with pytest.raises(ValueError):
        StableDualCohomology(T.lattice, 1, level=1)


def _subgroup_order_by_enumeration(gens, zero):
    """Reference: every element of the subgroup, reached breadth-first."""
    seen = {tuple(zero.coords)}
    frontier = [zero]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x.add(g)
                if tuple(y.coords) not in seen:
                    seen.add(tuple(y.coords))
                    new.append(y)
        frontier = new
    return len(seen)


class _Group(ClassGroup):
    def __init__(self, invariants):
        self.invariants = tuple(invariants)


def test_subgroup_order_by_index_matches_enumeration():
    rng = random.Random(11)
    for _ in range(200):
        H = _Group(1 << rng.randint(1, 4) for _ in range(rng.randint(0, 5)))
        gens = [
            H.from_coords([rng.randrange(-20, 20) for _ in H.invariants])
            for _ in range(rng.randint(0, 4))
        ]
        assert _subgroup_order(H, gens) == _subgroup_order_by_enumeration(gens, H.zero())


def test_subgroup_order_on_the_stabilization_images():
    for label in sweep_labels(2):
        M = tube_module_from_label(label).lattice
        for n in (1, 2, 3):
            H = StableDualCohomology(M, n)
            H_low = ColatticeLevel(M, H.level).cohomology(n)
            H_lower = ColatticeLevel(M, H.level - 1).cohomology(n)
            for low, high in ((H_lower, H_low), (H_low, H.carrier)):
                gens = _image_gens(low, high)
                want = _subgroup_order_by_enumeration(gens, high.zero())
                assert _subgroup_order(high, gens) == want, (label, n)


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
