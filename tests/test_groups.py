import os
import random
import subprocess
import sys

import pytest

import kleinlat
from kleinlat import verification as V
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
    ExtensionGroup,
    ch_presentation,
    classify,
    co_classify,
    cr_presentation,
    extension_from_class,
)

F = F2Poly.from_string("t^2+t+1")


def test_comparison_maps_commute():
    maps = comparison_maps()
    # solved once and asserted inside; also check the round trip on classes
    Z = trivial_lattice(1)
    H = CohomologyGroup(Z, 2)
    for gen in H.generators:
        cls = H.class_of(gen)
        assert extension_from_class(Z, cls).is_cocycle()


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
    zero = (0,) * sc.module.rank
    a_lift = (zero, A)
    assert ext.mul(a_lift, a_lift) == ext.identity()
    b_lift = (zero, B)
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
        extension_from_class(dsc.H.module, dsc.merge([dsc.representative(0, 1)])),
    ]
    for good in goods:
        r, q = good.acting.rank, good.modulus
        # a value on a pair that holds the identity is refused, also one
        # that is zero mod the modulus
        for key in ((E, A), (C, E), (E, E)):
            for v in ((1,) * r, (q,) * r):
                if any(v):
                    with pytest.raises(ValueError, match="not normalized"):
                        ExtensionGroup(good.acting, {key: v}, q)
        for key in ((A, B), (B, A), (A, A), (C, C), (C, A)):
            for t in (0, r - 1):
                table = {
                    (g, h): good.value(g, h)
                    for g in GROUP for h in GROUP
                    if g != E and h != E
                }
                table[key] = tuple(x + (i == t) for i, x in enumerate(table[key]))
                bad_ext = ExtensionGroup(good.acting, table, q)
                assert not bad_ext.is_cocycle(), (q, key, t)
                sample = [
                    tuple(tuple(rng.randint(-2, 2) for _ in range(r)) for _ in range(3))
                ]
                assert not bad_ext.associativity_check(sample), (q, key, t)


def test_associativity_check_reads_the_module_law_and_keeps_its_constants():
    Td = tube_module(TubeId.homogeneous(F), None, 2)
    dsc = DualSumContext([Td], 2)
    sc = SumContext([tube_module(TubeId.special("1"), 1, 1)], 2)
    goods = [
        extension_from_class(sc.module, sc.merge([sc.representative(0, 0)])),
        extension_from_class(dsc.H.module, dsc.merge([dsc.representative(0, 1)])),
    ]
    for good in goods:
        acting, q, r = good.acting, good.modulus, good.acting.rank
        table = {(g, h): good.value(g, h) for g in GROUP for h in GROUP}
        # a w that b moves: with ab acting as a, (xy)z and x(yz) differ by
        # a.w - ab.w on the triples with st = ab
        units = [tuple(int(i == j) for j in range(r)) for i in range(r)]
        w = next(e for e in units if acting.apply(B, e) != e)
        sample = [((1,) * r, (0,) * r, w)]
        assert good.associativity_check(sample)
        bad = ExtensionGroup(acting, table, q)
        bad.acts = (bad.acts[0], bad.acts[1], bad.acts[2], bad.acts[1])
        assert not bad.associativity_check(sample), q
        # the sample-free constants s.gamma(t,r) are formed on the first
        # call and kept: a second call forms no product with a table value
        ext = ExtensionGroup(acting, table, q)
        seen = []
        real_act = ext._act

        def recording_act(s, v):
            seen.append(v)
            return real_act(s, v)

        ext._act = recording_act
        values = [v for row in ext.values for v in row if any(v)]
        assert values, q
        assert ext.associativity_check(sample)
        assert any(v is g for v in seen for g in values)
        seen.clear()
        assert ext.associativity_check(sample)
        assert seen and not any(v is g for v in seen for g in values)


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


def _table(ext):
    """The extension's values as a dict on pairs of K, as the reference reads them."""
    return {(g, h): ext.value(g, h) for g in GROUP for h in GROUP}


def test_extension_tables_match_the_reference_product_and_checks():
    rng = random.Random(13)
    Td = tube_module(TubeId.homogeneous(F), None, 2)
    dsc = DualSumContext([Td], 2)
    sc = SumContext([tube_module(TubeId.special("1"), 1, 1), tube_module(TubeId.special("1"), 2, 1)], 2)
    goods = [extension_from_class(sc.module, c) for c in list(sc.H.all_classes())[:4]]
    goods += [extension_from_class(dsc.H.module, c) for c in list(dsc.H.all_classes())[-3:]]
    # the dual module at level 4 gives modulus 16; reduce it to 2, 4 and 8
    for k in (1, 2, 3):
        q = 1 << k
        base = goods[-1]
        table = {key: tuple(x % q for x in v) for key, v in _table(base).items()}
        goods.append(ExtensionGroup(base.acting, table, q))
    cases = []
    for good in goods:
        q = good.modulus
        cases.append(good)
        for _ in range(4):
            # random normalized tables, mostly not cocycles, and small
            # perturbations of a cocycle
            table = _table(good)
            for g in GROUP[1:]:
                for h in GROUP[1:]:
                    if rng.random() < 0.3:
                        table[(g, h)] = tuple(x + rng.randint(-3, 3) for x in table[(g, h)])
            cases.append(ExtensionGroup(good.acting, table, q))
    seen = set()
    for ext in cases:
        acting, q, rank = ext.acting, ext.modulus, ext.acting.rank
        table = _table(ext)
        cocycle = ext.is_cocycle()
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
        "from kleinlat.klein import trivial_lattice\n"
        "Z = trivial_lattice(1)\n"
        "H = CohomologyGroup(Z, 2)\n"
        "# the bar table {(a, b): 1}, zero elsewhere, is not a 2-cocycle\n"
        "G.pull_back = lambda M, R, values: [(0,), (1,)] + [(0,)] * 7\n"
        "G.extension_from_class(Z, H.zero())\n"
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


def test_ch_presentation():
    T = tube_module(TubeId.homogeneous(F), None, 2)
    sc = DualSumContext([T], 2)
    cls = sc.merge([sc.representative(0, 1)])
    cf = co_canonical_form([T], cls, 2, context=sc)
    pres = ch_presentation(cf.data, cf.n0_labels)
    assert "abar^2" in pres.relations[3]
    ext = extension_from_class(cls.group.module, cls)
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


def _pool_contexts(monkeypatch):
    """Record the sum contexts check_groups builds, in the order it builds them."""
    made = []

    class Recording(SumContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(V, "SumContext", Recording)
    return made


def _drawn_trials(pools, pair_count, seed):
    """(group, coords, samples) of each trial, drawn in check_groups' order:
    a pool, the class's coordinates, then the samples for that trial."""
    rng = random.Random(seed)
    out = []
    for _ in range(pair_count):
        sc = pools[rng.randrange(len(pools))]
        coords = tuple(rng.randrange(d) for d in sc.H.invariants)
        samples = [tuple(tuple(rng.randint(-2, 2) for _ in range(sc.module.rank)) for _ in range(3))]
        out.append((sc.H, coords, samples))
    return out


def test_check_groups_builds_one_extension_per_drawn_class(monkeypatch):
    made = _pool_contexts(monkeypatch)
    built = {}
    checked = []
    real_build = V.extension_from_class
    real_check = ExtensionGroup.associativity_check

    def counting_build(M, cls):
        ext = real_build(M, cls)
        built.setdefault((id(cls.group), cls.coords), []).append(ext)
        return ext

    def recording_check(ext, samples):
        checked.append((ext, samples))
        return real_check(ext, samples)

    monkeypatch.setattr(V, "extension_from_class", counting_build)
    monkeypatch.setattr(ExtensionGroup, "associativity_check", recording_check)
    ok, detail = V.check_groups(pair_count=300, seed=4)
    assert ok, detail
    want = _drawn_trials(made[:6], 300, 4)
    # every trial is still checked, on the same (context, class, samples)
    assert len(checked) == 300
    owner = {id(exts[0]): key for key, exts in built.items()}
    assert [(owner[id(ext)], s) for ext, s in checked] == \
        [((id(H), coords), s) for H, coords, s in want]
    # and each distinct (context, class) built its extension once
    assert all(len(exts) == 1 for exts in built.values())
    assert len(built) == len({(id(H), coords) for H, coords, _s in want}) < 300


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_check_groups_fails_on_a_kept_extension_with_a_non_cocycle_table(monkeypatch, flags):
    # the second extension built gets a table that is not a cocycle; the
    # failure is reported at the first trial that draws its class, and the
    # check is not an assert, so python -O keeps it
    made = _pool_contexts(monkeypatch)
    V.check_groups(pair_count=1, seed=0)
    trials = _drawn_trials(made[:6], 200, 0)
    keys = list(dict.fromkeys((id(H), coords) for H, coords, _s in trials))
    first = next(t for t, (H, coords, _s) in enumerate(trials) if (id(H), coords) == keys[1])
    assert first > 0
    code = (
        "import kleinlat.groups as G\n"
        "import kleinlat.verification as V\n"
        "from kleinlat.klein import A, B, GROUP\n"
        "real = V.extension_from_class\n"
        "built = []\n"
        "def corrupt_second(M, cls):\n"
        "    ext = real(M, cls)\n"
        "    built.append(ext)\n"
        "    if len(built) != 2:\n"
        "        return ext\n"
        "    table = {(g, h): ext.value(g, h) for g in GROUP for h in GROUP}\n"
        "    table[(A, B)] = tuple(x + (i == 0) for i, x in enumerate(table[(A, B)]))\n"
        "    return G.ExtensionGroup(ext.acting, table, ext.modulus)\n"
        "V.extension_from_class = corrupt_second\n"
        "print(V.check_groups(200, 0))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(kleinlat.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, *flags, "-c", code],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == repr((False, f"non-associative extension at trial {first}"))
