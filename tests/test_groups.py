import os
import random
import subprocess
import sys

import pytest

import kleinlat
from kleinlat.klein import A, B, C, E, GROUP, trivial_lattice
from kleinlat.polys import F2Poly
from kleinlat.quiver import TubeId
from kleinlat.resolutions import comparison_maps, poly_differential, twist_chain_maps
from kleinlat.tubes import transport_label, tube_module, tube_module_from_label
from kleinlat.cohomology import (
    CohomologyGroup,
    SumContext,
    apply_group_automorphism,
    canonical_form,
    transport_class,
)
from kleinlat.colattices import DualSumContext, co_canonical_form
from kleinlat.groups import (
    BarCocycle,
    ExtensionGroup,
    ModuleOps,
    bar_cocycle_from_class,
    ch_presentation,
    classify,
    co_classify,
    cr_presentation,
    extension_from_class,
    extension_from_dual_class,
    is_crystallographic,
)

F = F2Poly.from_string("t^2+t+1")


def test_comparison_maps_commute():
    maps = comparison_maps()
    # solved once and asserted inside; also check the round trip on classes
    Z = trivial_lattice(1)
    H = CohomologyGroup(Z, 2)
    for gen in H.generators:
        cls = H.class_of(gen)
        gamma = bar_cocycle_from_class(cls, Z)
        ops = ModuleOps(Z)
        assert gamma.is_cocycle(ops)


def test_poly_chain_maps_for_twists():
    for which in (("t2", (B, A)),):
        name, (ia, ib) = which
        maps = twist_chain_maps(ia, ib, 3)
        for n in range(1, 4):
            lhs = poly_differential(n) * maps[n]
            rhs = maps[n - 1] * poly_differential(n, ia, ib)
            assert lhs == rhs


def test_extension_split_square():
    T = tube_module(TubeId.special("1"), 1, 1)
    sc = SumContext([T], 2)
    ext = extension_from_class(sc.module, sc.H.zero())
    a_lift = (ext.ops.zero(), A)
    assert ext.mul(a_lift, a_lift) == ext.identity()
    b_lift = (ext.ops.zero(), B)
    assert ext.mul(b_lift, b_lift) == ext.identity()


def test_extension_square_realizes_class():
    # the square of the section generator lands on the canonical vector
    T = tube_module(TubeId.special("1"), 1, 1)
    sc = SumContext([T], 2)
    cls = sc.merge([sc.representative(0, 0)])
    pres = cr_presentation(
        canonical_form([T], cls, 2, context=sc).data, ()
    )
    ext = extension_from_class(sc.module, cls)
    w_a = pres.section["abar"]
    got = ext.mul((w_a, A), (w_a, A))
    assert got == (tuple(pres.section["e0"]), E)


def test_extension_associativity_and_negative_control():
    rng = random.Random(5)
    T = tube_module(TubeId.homogeneous(F), None, 1)
    sc = SumContext([T], 2)
    for coords in ([0, 0], [1, 0], [1, 1]):
        cls = sc.H.from_coords(coords)
        ext = extension_from_class(sc.module, cls)
        samples = [
            tuple(tuple(rng.randint(-2, 2) for _ in range(sc.module.rank)) for _ in range(3))
            for _ in range(5)
        ]
        for s in samples:
            assert ext.associativity_check([s])
    # corrupting one table entry breaks the cocycle identity: on the lattice
    # side and at a finite dual level, in each kind of entry
    Td = tube_module(TubeId.homogeneous(F), None, 2)
    dsc = DualSumContext([Td], 2)
    goods = [
        extension_from_class(sc.module, sc.H.from_coords([1, 0])),
        extension_from_class(sc.module, sc.H.zero()),
        extension_from_dual_class(dsc.merge([dsc.representative(0, 1)])),
    ]
    for good in goods:
        r, q = good.ops.rank, good.ops.modulus
        for key in ((A, B), (B, A), (A, A), (C, C), (C, A)):
            for t in (0, r - 1):
                table = {
                    (g, h): v
                    for (g, h), v in good.gamma.table.items()
                    if g != E and h != E
                }
                table[key] = tuple(x + (i == t) for i, x in enumerate(table[key]))
                bad = BarCocycle(r, table, modulus=q)
                assert not bad.is_cocycle(good.ops), (q, key, t)
                bad_ext = ExtensionGroup(good.ops, bad)
                sample = [
                    tuple(tuple(rng.randint(-2, 2) for _ in range(r)) for _ in range(3))
                ]
                assert not bad_ext.associativity_check(sample), (q, key, t)


# The product and the checks as they were written before the extension tables:
# one group action per product and every triple of K recomputed.  They are the
# reference for the table-driven ones.


def _reference_mul(acting, q, table, x, y):
    u, g = x
    v, h = y
    w = [a + b + c for a, b, c in zip(u, acting.apply(g, v), table[(g, h)])]
    return (tuple(c % q for c in w) if q else tuple(w), g * h)


def _reference_is_cocycle(acting, q, table):
    for g in GROUP:
        for h in GROUP:
            for k in GROUP:
                lhs = acting.apply(g, table[(h, k)])
                v = [
                    a - b + c - d
                    for a, b, c, d in zip(lhs, table[(g * h, k)], table[(g, h * k)], table[(g, h)])
                ]
                if any(x % q for x in v) if q else any(v):
                    return False
    return True


def _reference_associative(acting, q, table, samples):
    for (u, v, w) in samples:
        for g in GROUP:
            for h in GROUP:
                for k in GROUP:
                    x, y, z = (u, g), (v, h), (w, k)
                    xy = _reference_mul(acting, q, table, x, y)
                    yz = _reference_mul(acting, q, table, y, z)
                    if _reference_mul(acting, q, table, xy, z) != \
                            _reference_mul(acting, q, table, x, yz):
                        return False
    return True


def test_extension_tables_match_the_reference_product_and_checks():
    rng = random.Random(13)
    Td = tube_module(TubeId.homogeneous(F), None, 2)
    dsc = DualSumContext([Td], 2)
    sc = SumContext([tube_module(TubeId.special("1"), 1, 1), tube_module(TubeId.special("1"), 2, 1)], 2)
    goods = [extension_from_class(sc.module, c) for c in list(sc.H.all_classes())[:4]]
    goods += [extension_from_dual_class(c) for c in list(dsc.H.all_classes())[-3:]]
    # the dual module at level 4 gives modulus 16; reduce it to 2, 4 and 8
    for k in (1, 2, 3):
        q = 1 << k
        base = goods[-1]
        table = {key: tuple(x % q for x in v) for key, v in base.gamma.table.items()}
        goods.append(ExtensionGroup(ModuleOps(base.ops.acting, q), BarCocycle(base.ops.rank, table, q)))
    cases = []
    for good in goods:
        r, q = good.ops.rank, good.ops.modulus
        cases.append(good)
        for _ in range(4):
            # random normalized tables, mostly not cocycles, and small
            # perturbations of a cocycle
            table = dict(good.gamma.table)
            for g in GROUP[1:]:
                for h in GROUP[1:]:
                    if rng.random() < 0.3:
                        table[(g, h)] = tuple(x + rng.randint(-3, 3) for x in table[(g, h)])
            bad = BarCocycle(r, table, modulus=q)
            cases.append(ExtensionGroup(good.ops, bad))
    seen = set()
    for ext in cases:
        acting, q, rank = ext.ops.acting, ext.ops.modulus, ext.ops.rank
        table = {key: tuple(x % q for x in v) if q else v for key, v in ext.gamma.table.items()}
        cocycle = ext.gamma.is_cocycle(ext.ops)
        assert cocycle == _reference_is_cocycle(acting, q, table)
        bound = 2 * q if q else 5
        for _ in range(3):
            samples = [
                tuple(tuple(rng.randint(-bound, bound) for _ in range(rank)) for _ in range(3))
                for _ in range(rng.randint(1, 2))
            ]
            got = ext.associativity_check(samples)
            assert got == _reference_associative(acting, q, table, samples)
            seen.add((q, cocycle, got))
            u, v = samples[0][0], samples[0][1]
            for g in GROUP:
                for h in GROUP:
                    assert ext.mul((u, g), (v, h)) == _reference_mul(acting, q, table, (u, g), (v, h))
    # both answers of both checks were compared, at modulus 0 and 2^k
    assert {(c, a) for (_, c, a) in seen} == {(True, True), (False, False)}
    assert {q for (q, _, _) in seen} == {0, 2, 4, 8, 16}


def test_failing_extension_check_survives_python_O():
    # the checks in groups are not asserts, so python -O keeps them
    code = (
        "import kleinlat.groups as G\n"
        "from kleinlat.cohomology import CohomologyGroup\n"
        "from kleinlat.klein import A, B, trivial_lattice\n"
        "Z = trivial_lattice(1)\n"
        "H = CohomologyGroup(Z, 2)\n"
        "G.bar_cocycle_from_class = lambda cls, acting, modulus=0: "
        "G.BarCocycle(1, {(A, B): (1,)}, modulus)\n"
        "G._extension(Z, H.zero(), 0)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(kleinlat.__file__)))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 1
    assert "VerificationError: the bar table of the class is not a 2-cocycle" in out.stderr


def test_cr_presentation_infinity_entry():
    Ti = tube_module(TubeId.special("inf"), 1, 1)
    sc = SumContext([Ti], 2)
    cls = sc.merge([sc.representative(0, 0)])
    cf = canonical_form([Ti], cls, 2, context=sc)
    pres = cr_presentation(cf.data, cf.m0_labels)
    assert any(x % 2 for x in pres.section["einf"])
    assert all(x == 0 for x in pres.section["e0"])
    # and a finite entry fills abar^2 instead
    T1 = tube_module(TubeId.special("1"), 1, 1)
    sc1 = SumContext([T1], 2)
    cf1 = canonical_form([T1], sc1.merge([sc1.representative(0, 0)]), 2, context=sc1)
    pres1 = cr_presentation(cf1.data, cf1.m0_labels)
    assert any(pres1.section["e0"])
    assert not any(pres1.section["einf"])


def test_cr_presentation_rejects_odd_data():
    from kleinlat.cohomology import StandardData, StandardEntry

    bad = StandardData(
        entries=((TubeId.special("1"), (StandardEntry(j=1, m=2, k=0),)),),
        parity="odd",
    )
    with pytest.raises(ValueError):
        cr_presentation(bad, ())


def test_is_crystallographic():
    assert is_crystallographic(tube_module(TubeId.homogeneous(F), None, 1).lattice)
    T11 = tube_module(TubeId.special("1"), 1, 1).lattice
    M3 = T11.direct_sum(T11).direct_sum(T11)
    assert not is_crystallographic(M3)
    T01 = tube_module(TubeId.special("0"), 1, 1).lattice
    assert is_crystallographic(T11.direct_sum(T01))


def test_ch_presentation():
    T = tube_module(TubeId.homogeneous(F), None, 2)
    sc = DualSumContext([T], 2)
    cls = sc.merge([sc.representative(0, 1)])
    cf = co_canonical_form([T], cls, 2, context=sc)
    pres = ch_presentation(cf.data, cf.n0_labels)
    assert "abar^2" in pres.relations[3]
    ext = extension_from_dual_class(cls)
    rng = random.Random(9)
    sample = [tuple(tuple(rng.randrange(16) for _ in range(sc.base.rank)) for _ in range(3))]
    assert ext.associativity_check(sample)


def test_classify_self_twist_and_positions():
    T = tube_module(TubeId.special("1"), 1, 2)
    sc = SumContext([T], 2)
    cls = sc.merge([sc.representative(0, 1)])
    res = classify([T], cls, [T], cls, context1=sc, context2=sc)
    assert res.isomorphic and res.psi == "id"
    for which in ("t2", "t3"):
        Mt, clst = apply_group_automorphism(which, sc.module, cls)
        labt = transport_label(T.label, which)
        Tt = tube_module_from_label(labt)
        sct = SumContext([Tt], 2)
        moved = transport_class(Mt, clst, sct.H)
        res = classify([T], cls, [Tt], moved, context1=sc, context2=sct)
        assert res.isomorphic and res.psi == which
    Tf2 = tube_module(TubeId.homogeneous(F), None, 2)
    scf = SumContext([Tf2], 2)
    c0 = scf.merge([scf.representative(0, 0)])
    c1 = scf.merge([scf.representative(0, 1)])
    assert not classify([Tf2], c0, [Tf2], c1, context1=scf, context2=scf).isomorphic


def test_co_classify():
    T = tube_module(TubeId.homogeneous(F), None, 2)
    sc = DualSumContext([T], 2)
    c0 = sc.merge([sc.representative(0, 0)])
    c1 = sc.merge([sc.representative(0, 1)])
    assert co_classify([T], c0, [T], c0, context1=sc, context2=sc).isomorphic
    assert not co_classify([T], c0, [T], c1, context1=sc, context2=sc).isomorphic
