"""The automorphism actions behind the stratum moves, on both sides.

Each tube context builds the class action of a generator at most once, and
each tube member builds its unit family once; the moves they make land on
the stratum representatives.  The units congruent to the identity mod 2,
which the family leaves out, act as the identity on H^n.
"""

import importlib
import itertools
import os
import sys
from types import SimpleNamespace

import pytest

from kleinlat import cohomology, colattices, polys, quiver, tubes, verification
from kleinlat.cohomology import Cochain, SumContext, _ActionMemo, _move_word, canonical_form, push_class
from kleinlat.colattices import DualSumContext, co_canonical_form
from kleinlat.f2 import F2Matrix
from kleinlat.intmat import IntMatrix, inverse_unimodular, solve_matrix_exact
from kleinlat.polys import F2Poly
from kleinlat.checks import VerificationError
from kleinlat.quiver import TubeId, TubeLabel
from kleinlat.tubes import sweep_labels, tube_module, tube_module_from_label
from kleinlat.verification import _orbit_cases

SIDES = [(SumContext, canonical_form), (DualSumContext, co_canonical_form)]
SIDE_IDS = ["lattice", "dual"]


def _members():
    hom = TubeId.homogeneous(F2Poly.from_string("t^2+t+1"))
    return [tube_module(hom, None, 2), tube_module(TubeId.special("1"), 1, 2)]


@pytest.mark.parametrize("context", [SumContext, DualSumContext], ids=SIDE_IDS)
def test_move_to_lands_on_the_stratum_representative(context):
    sc = context(_members(), 2)
    moved = 0
    for i, ctx in enumerate(sc.ctxs):
        for src in ctx.H.all_classes():
            if src.is_zero():
                continue
            rep = sc.representative(i, ctx.filtration_position(src))
            W = ctx.move_to(src, rep)
            assert W is not None
            assert push_class(W, src, ctx.H) == rep
            moved += 1
    assert moved == 16


@pytest.mark.parametrize("context,form", SIDES, ids=SIDE_IDS)
def test_class_actions_are_built_once_per_context(context, form, monkeypatch):
    built = []
    real = cohomology._class_action

    def counting(H, U):
        built.append(H)
        return real(H, U)

    monkeypatch.setattr(cohomology, "_class_action", counting)
    monkeypatch.setattr(colattices, "_class_action", counting)
    members = _members()
    sc = context(members, 2)
    classes = list(sc.H.all_classes())
    first = [form(members, cls, 2, context=sc) for cls in classes]
    after_first = len(built)
    assert after_first > 0
    second = [form(members, cls, 2, context=sc) for cls in classes]
    assert len(built) == after_first
    assert [cf.witness for cf in second] == [cf.witness for cf in first]
    for ctx in sc.ctxs:
        assert sum(H is ctx.H for H in built) <= len(ctx.aut_generators())


def test_unit_family_is_built_once_per_member(monkeypatch):
    families = []
    real_family = tubes._aut_generator_family

    def family(T):
        families.append(T)
        return real_family(T)

    monkeypatch.setattr(tubes, "_aut_generator_family", family)
    members = _members()
    for n in (2, 3):
        for sc in (SumContext(members, n), DualSumContext(members, n)):
            for ctx in sc.ctxs:
                assert ctx.aut_generators()
    assert [id(T) for T in families] == [id(T) for T in members]


def _congruence_units(T):
    """Single sign flips and 1 + 2E_ij inside each sharp block, on T's lattice:
    E_M^-1 U E_M, E_M the embedding of T's lattice into its sharp blocks."""
    M = T.lattice
    d = quiver.phi_data(M)
    E = quiver._embedding_matrix(d)
    n_amb = M.rank
    off = 0
    for s in (c.rank() for c in d.sharp.components):
        for i in range(off, off + s):
            for j in range(off, off + s):
                amb = [[int(a == b) for b in range(n_amb)] for a in range(n_amb)]
                amb[i][j] = -1 if i == j else 2
                U = solve_matrix_exact(E, IntMatrix(amb, cols=n_amb) * E)
                assert U * M.act_a == M.act_a * U and U * M.act_b == M.act_b * U
                yield U
        off += s


def _guard_members():
    homs = [("t^2+t+1", 1), ("t^3+t+1", 1), ("t^2+t+1", 2)]
    return [tube_module(TubeId.special(lam), j, m)
            for lam in ("0", "1", "inf") for j in (1, 2) for m in (1, 2, 3)] + [
        tube_module(TubeId.homogeneous(F2Poly.from_string(f)), None, m) for f, m in homs]


def test_congruence_units_act_trivially_and_the_family_is_closed_under_inverse():
    for T in _guard_members():
        family = {U.data for U in T.aut_family}
        assert {inverse_unimodular(U).data for U in T.aut_family} == family
        units = list(_congruence_units(T))
        one = IntMatrix.identity(T.lattice.rank)
        dual_units = [U.transpose() for U in units]
        dual_units += [one + E.transpose().scale(2) for E in tubes.hom_klattices(T.lattice, T.lattice)]
        for n in (1, 2):
            ctx = cohomology.TubeCohContext(T, n)
            ident = F2Matrix.identity(len(ctx.H.invariants))
            assert all(ctx.class_action(U) == ident for U in units), (T.label, n)
            # the dual context acts on H^(n+1)(K, M*) by integral units of M*
            dual = colattices.DualTubeContext(T, n)
            ident = F2Matrix.identity(len(dual.H.invariants))
            assert all(dual.class_action(U) == ident for U in dual_units), (T.label, n)


class _Point:
    """Stands in for a class: the search reads only coords and equality."""

    def __init__(self, coords):
        self.coords = tuple(coords)

    def __eq__(self, other):
        return self.coords == other.coords


class _MatrixContext:
    """Generators acting on GF(2)^3 through their reductions mod 2.

    Like a tube context, it names the rank of its member and the modulus
    of its words.
    """

    def __init__(self, gens, modulus=0):
        self.gens = gens
        self.T = SimpleNamespace(lattice=SimpleNamespace(rank=gens[0].rows))
        self.modulus = modulus
        self.built = []
        self._actions = None

    def aut_generators(self):
        return self.gens

    def class_action(self, U):
        self.built.append(U)
        return F2Matrix([[a & 1 for a in row] for row in U.data], cols=U.cols)

    def actions(self):
        if self._actions is None:
            self._actions = _ActionMemo(self.aut_generators(), self.class_action)
        return self._actions


def _expanded_word(ctx, src, dst, rank, modulus):
    """The search that multiplies out the word of every point it finds."""
    if src == dst:
        return IntMatrix.identity(rank)
    gens = ctx.aut_generators()
    actions = [ctx.class_action(U) for U in gens]
    goal = tuple(c & 1 for c in dst.coords)
    start = tuple(c & 1 for c in src.coords)
    frontier = {start: IntMatrix.identity(rank)}
    seen = {start}
    while frontier:
        new = {}
        for x, W in frontier.items():
            for U, act in zip(gens, actions):
                y = act.apply(x)
                if y in seen:
                    continue
                Wy = U * W
                if modulus:
                    Wy = Wy.mod(modulus)
                if y == goal:
                    return Wy
                seen.add(y)
                new[y] = Wy
        frontier = new
    return None


# a swap of the last two coordinates, a signed 3-cycle and a sign flip: the
# words between basis vectors have length two, their letters do not commute,
# and mod 8 the sign shows whether each step was reduced
_GENS = [
    IntMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]], cols=3),
    IntMatrix([[0, 0, -1], [1, 0, 0], [0, 1, 0]], cols=3),
    IntMatrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]], cols=3),
]


@pytest.mark.parametrize("modulus", [0, 8])
def test_parent_pointer_words_equal_the_expanded_search(modulus):
    points = [_Point(p) for p in itertools.product((0, 1), repeat=3) if any(p)]
    for src, dst in itertools.product(points, repeat=2):
        W = _move_word(_MatrixContext(_GENS, modulus), src, dst)
        assert W == _expanded_word(_MatrixContext(_GENS), src, dst, 3, modulus)
        if W is not None:
            assert tuple(c & 1 for c in W.apply(src.coords)) == dst.coords
    W = _move_word(_MatrixContext(_GENS, modulus), _Point((1, 0, 0)), _Point((0, 0, 1)))
    expected = _GENS[0] * _GENS[1]
    assert W == (expected.mod(modulus) if modulus else expected)


def test_the_search_builds_only_the_actions_it_reaches():
    ctx = _MatrixContext(_GENS)
    assert _move_word(ctx, _Point((1, 1, 0)), _Point((1, 0, 1))) == _GENS[0]
    assert ctx.built == [_GENS[0]]
    _move_word(ctx, _Point((1, 0, 0)), _Point((0, 0, 1)))
    assert ctx.built == _GENS


@pytest.mark.parametrize("context,form", SIDES, ids=SIDE_IDS)
def test_a_one_member_sum_shares_its_group_with_the_tube_context(context, form):
    # the integral group, which is the class group on the lattice side and
    # gives the dual side's class group its coordinates
    T = _members()[0]
    sc = context([T], 2)
    assert sc.ctxs[0].H is sc.integral
    # the forms agree with those of a sum whose tube context has its own group
    apart = context([T], 2)
    apart.ctxs = [type(apart.ctxs[0])(T, 2)]
    assert apart.ctxs[0].H is not apart.integral
    assert apart.ctxs[0].H.invariants == sc.H.invariants
    classes = [c for c in sc.H.all_classes() if not c.is_zero()]
    assert classes
    for cls in classes:
        shared = form([T], cls, 2, context=sc)
        own = form([T], apart.H.from_coords(cls.coords), 2, context=apart)
        assert shared.data == own.data
        assert shared.witness == own.witness
        assert shared.canonical_class.coords == own.canonical_class.coords
        assert shared.positions == own.positions


@pytest.mark.parametrize("context", [SumContext, DualSumContext], ids=SIDE_IDS)
def test_sums_over_one_member_read_the_same_context(context):
    T, S = _members()
    a, b = context([T, S], 2), context([S, T, S], 2)
    assert a.ctxs[0] is b.ctxs[1]
    assert a.ctxs[1] is b.ctxs[0] is b.ctxs[2]
    # another degree is another context
    assert context([T], 3).ctxs[0] is not a.ctxs[0]


def test_member_contexts_are_kept_apart_by_side_and_level():
    T = _members()[1]
    lattice, dual = SumContext([T], 2).ctxs[0], DualSumContext([T], 2).ctxs[0]
    assert type(lattice) is cohomology.TubeCohContext
    assert type(dual) is colattices.DualTubeContext
    assert DualSumContext([T], 2, level=2).ctxs[0] is not dual
    assert DualSumContext([T], 2, level=colattices.DEFAULT_LEVEL).ctxs[0] is dual


@pytest.mark.parametrize("context", [SumContext, DualSumContext], ids=SIDE_IDS)
def test_a_one_member_sum_takes_the_group_of_the_member_context(context):
    T = _members()[1]
    ctx = context([T, T], 2).ctxs[0]
    sc = context([T], 2)
    assert sc.integral is ctx.H
    # the dual side's class group is the carrier the member context keeps
    assert sc.H is (ctx.carrier if context is DualSumContext else ctx.H)


def test_dual_generators_are_the_distinct_transposes_mod_q():
    # the dual member's family is the transposes of the member's, in its
    # order, and no two of them agree mod q
    for T in _members():
        for n in (2, 3):
            ctx = colattices.DualTubeContext(T, n)
            q = ctx.N.modulus
            expected = []
            for U in T.aut_family:
                Um = U.transpose().mod(q)
                if Um not in expected:
                    expected.append(Um)
            gens = ctx.aut_generators()
            assert gens is ctx.aut_generators() is T.dual.aut_family
            assert len(gens) == len(expected)
            assert [U.mod(q) for U in gens] == expected
            assert gens[-1] == T.aut_family[-1].transpose()


def test_the_family_matrices_are_kept_packed():
    for T in _guard_members():
        # every unit of these members fits the byte-packed sparse form, and
        # a read gives back the matrix that was packed
        r = T.lattice.rank
        family = T.aut_family
        assert all(isinstance(b, bytes) for b in family._mats), T.label
        assert [IntMatrix.unpack(b, r, r) for b in family._mats] == list(family)
        assert [U.pack() for U in family] == list(family._mats)
        assert all(U == IntMatrix(U.data) for U in family)


def _tube_context(side, T, n):
    """The tube context of one side."""
    if side == "lattice":
        return cohomology.TubeCohContext(T, n)
    return colattices.DualTubeContext(T, n)


@pytest.mark.parametrize("side", ["lattice", "dual"])
def test_each_representative_is_the_closed_form_class_at_its_position(side):
    nonempty = 0
    for label in sweep_labels(2):
        T = tube_module_from_label(label)
        for n in (1, 2, 3):
            ctx = _tube_context(side, T, n)
            inf = cohomology.is_infinity_tube(T.label)
            where = (side, str(label), n)
            d = ctx.H.n  # n + 1 on the dual side
            for k in range(T.m):
                v = ctx.representative_vector(k)
                cls = ctx.representative(k)
                assert (v is None) == (cls is None), (where, k)
                if v is None:
                    continue
                nonempty += 1
                assert ctx.filtration_position(cls) == k, (where, k)
                # the one-slot cochain of v, closed under the coboundary of
                # the group's module in the group's degree
                gamma = ctx.H.closed_cocycle(v, inf)
                assert gamma.values[0 if inf else d] == v and sum(map(any, gamma.values)) == 1, (where, k)
                q = ctx.H.modulus
                boundary = cohomology.differential_matrix(ctx.H.module, d).apply(gamma.flatten())
                assert not any(x % q if q else x for x in boundary), (where, k)
                assert cls == ctx.H.class_of(gamma), (where, k)
                if side == "dual":
                    # through the connecting map, the eta cocycle of
                    # (q/2)(v mod 2) has the class of xi(v) one degree up
                    carrier = ctx.carrier
                    u = tuple(carrier.modulus // 2 * (x & 1) for x in v)
                    assert carrier.class_of(carrier.closed_cocycle(u, inf)).coords == cls.coords, (where, k)
                assert ctx.representative(k) is cls and ctx.representative_vector(k) is v
            # every nonzero class lies in a stratum that has a representative
            for c in ctx.H.all_classes():
                if not c.is_zero():
                    assert ctx.representative(ctx.filtration_position(c)) is not None, (where, c)
    assert nonempty > 0


@pytest.mark.parametrize("side", ["lattice", "dual"])
def test_a_representative_off_its_position_is_refused(side):
    # the vector of stratum 1 stands in for that of stratum 0
    T = _members()[0]
    ctx = _tube_context(side, T, 2)
    wrong = ctx.representative_vector(1)
    assert wrong is not None
    ctx._stratum_vector = lambda k: wrong
    with pytest.raises(VerificationError, match="filtration position"):
        ctx.representative(0)


def _reference_orbits(sc):
    """Orbits of the family that listed 1 - theta beside each 1 + theta,
    with the swaps of equal summands, by pushing every class."""
    gens = []
    for i, ctx in enumerate(sc.ctxs):
        gens += [sc.block_witness(i, U) for U in ctx.aut_generators()]
    for i in range(len(sc.summands)):
        for j in range(len(sc.summands)):
            if i != j:
                for th in sc.homs(i, j):
                    gens.append(sc.unipotent_witness(i, j, th))
                    gens.append(sc.unipotent_witness(i, j, th.scale(-1)))
    for i in range(len(sc.summands)):
        for j in range(i + 1, len(sc.summands)):
            if sc.summands[i].label == sc.summands[j].label:
                gens.append(sc.swap_witness(i, j))
    moves = [lambda x, U=U: push_class(U, sc.H.from_coords(x), sc.H).coords for U in gens]
    return cohomology._orbits([c.coords for c in sc.H.all_classes()], moves)


@pytest.mark.parametrize("context", [SumContext, DualSumContext], ids=SIDE_IDS)
def test_sum_orbits_equal_those_of_the_family_with_inverse_unipotents(context):
    for labels in _orbit_cases():
        sc = context([tube_module_from_label(l) for l in labels], 2)
        got = sorted(map(frozenset, cohomology.sum_orbit_partition(sc)))
        assert got == sorted(map(frozenset, _reference_orbits(sc))), [str(l) for l in labels]


def test_the_sum_generators_keep_the_order_of_the_orbit_check():
    # check_orbits draws its random automorphisms from this list by index
    for labels in _orbit_cases():
        sc = SumContext([tube_module_from_label(l) for l in labels], 2)
        want = [sc.block_witness(i, U) for i, ctx in enumerate(sc.ctxs) for U in ctx.aut_generators()]
        for i in range(len(labels)):
            for j in range(len(labels)):
                if i != j:
                    want += [sc.unipotent_witness(i, j, th)
                             for th in tubes.hom_klattices(sc.summands[i].lattice,
                                                           sc.summands[j].lattice)]
        assert sc.automorphism_generators() == want


def test_the_orbit_oracle_exchanges_equal_summands_without_homomorphisms():
    # with no unipotents between them, only the swap joins (1, 0) and (0, 1)
    T = tube_module(TubeId.special("1"), 1, 1)
    sc = SumContext([T, T], 2)
    sc.homs = lambda i, j: []
    orbits = sorted(sorted(o) for o in cohomology.sum_orbit_partition(sc))
    assert orbits == [[(0, 0)], [(0, 1), (1, 0)], [(1, 1)]]


def _census_sums():
    """The label lists of the benchmark's census sums, from bench/workloads.py."""
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    sys.path.insert(0, bench)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)
    K = SimpleNamespace(quiver=quiver, polys=polys, verification=verification)
    return [labels for labels, *_queries in workloads._census_pool(K, "full")]


def _member_groups(sc):
    """The summands' class groups: on the dual side the carriers, whose
    cocycles are those of the sum's class group, mod q in degree n."""
    if isinstance(sc, DualSumContext):
        return [ctx.carrier for ctx in sc.ctxs]
    return [ctx.H for ctx in sc.ctxs]


def _cochain_split(sc, cls):
    """The coordinates of the components of a class, by restricting its
    cochain to each block."""
    gamma = sc.H.cochain_of(cls)
    return [G.class_of(sc.project_values(gamma, i)).coords for i, G in enumerate(_member_groups(sc))]


def _cochain_merge(sc, comps):
    """The class of the sum of the components' cochains, each embedded in its block."""
    r = sc.module.rank
    gamma = Cochain.zero(sc.H.n, r)
    for i, (c, G) in enumerate(zip(comps, _member_groups(sc))):
        off, ri = sc.offsets[i], sc.summands[i].lattice.rank
        embed = IntMatrix.from_dicts([{t - off: 1} if off <= t < off + ri else {} for t in range(r)], ri)
        gamma = gamma.add(G.cochain_of(G.from_coords(c.coords)).map_values(embed))
    return sc.H.class_of(gamma)


@pytest.mark.parametrize("context", [SumContext, DualSumContext], ids=SIDE_IDS)
def test_split_and_merge_matrices_agree_with_the_cochain_route(context):
    sums = _census_sums()
    assert len(sums) > len(_orbit_cases()) + 4
    # the census sums all have the identity as split matrix; these do not
    hom = TubeLabel(TubeId.homogeneous(F2Poly.from_string("t^2+t+1")), None, 1)
    sums += [[hom, TubeLabel(TubeId.special("0"), 1, 1)], [hom, hom]]
    members = {}
    count = 0
    mixed = 0
    for labels in sums:
        summands = [members.setdefault(str(l), tube_module_from_label(l)) for l in labels]
        for n in (2, 3):
            sc = context(summands, n)
            split = sc.split_matrices()[0]
            mixed += split != F2Matrix.identity(split.rows)
            for cls in sc.H.all_classes():
                comps = sc.split(cls)
                assert [c.coords for c in comps] == _cochain_split(sc, cls), \
                    ([str(l) for l in labels], n, cls.coords)
                assert all(c.group is ctx.H for c, ctx in zip(comps, sc.ctxs))
                assert sc.merge(comps) == cls == _cochain_merge(sc, comps)
                count += 1
    assert count > 300 and mixed >= 2


def test_a_sum_whose_group_is_not_the_product_has_no_merge():
    sc = SumContext(_members(), 2)
    sc.ctxs = sc.ctxs[:1]  # the coordinates of one summand go missing
    with pytest.raises(ValueError, match="not square"):
        sc.split_matrices()
