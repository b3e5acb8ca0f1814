"""The acceptance battery: one callable per criterion.

Each check returns (ok, detail).  The CLI command verify-all and the
acceptance test module both run these at the sizes criteria() lists;
tolerances are exact throughout.
"""

from __future__ import annotations

import random
from functools import lru_cache

from .intmat import IntMatrix
from .klein import dim_vector, regular_representation, trivial_lattice
from .polys import F2Poly
from .quiver import (
    NON_REGULAR,
    TubeId,
    TubeLabel,
    decompose,
    identify_tube,
    label_rep,
    lattice_of,
    phi,
    random_rep_in_R,
    reps_isomorphic,
)
from .tubes import (
    end_ring_check,
    hom_cross_tube_check,
    hom_cross_tube_strict_2n,
    s3_on_polynomial,
    s3_on_tube,
    sweep_labels,
    syzygy,
    transport_label,
    tube_module_from_label,
)
from .cohomology import (
    CohomologyGroup,
    SumContext,
    apply_group_automorphism,
    canonical_form,
    cohomology_invariants_generic,
    ORBIT_ORACLE_MAX,
    sum_orbit_partition,
    target_component,
    verify_xi_iso,
    is_infinity_tube,
    push_class,
    transport_class,
)
from .colattices import DualSumContext, co_canonical_form, verify_eta_iso
from .groups import (
    classify,
    cr_presentation,
    ch_presentation,
    extension_from_class,
)

# the criteria read the same members, and a member keeps its chain and contexts
@lru_cache(maxsize=None)
def _tube(label: TubeLabel):
    return tube_module_from_label(label)


def check_round_trip(max_m: int, random_count: int, seed: int):
    """Criterion 1: the functor and its quasi-inverse are mutually inverse."""
    rng = random.Random(seed)
    for label in sweep_labels(max_m):
        V = label_rep(label)
        M = lattice_of(V)
        W = phi(M)
        if reps_isomorphic(V, W) is None:
            return False, f"phi(M(V)) differs from V at {label}"
        M2 = lattice_of(W)
        if reps_isomorphic(phi(M2), W) is None:
            return False, f"M(phi(M)) differs from M at {label}"
    for trial in range(random_count):
        V = random_rep_in_R(rng, 4)
        M = lattice_of(V)
        W = phi(M)
        pv = decompose(V, seed=trial)
        pw = decompose(W, seed=trial)
        if len(pv) != len(pw):
            return False, f"summand counts differ on random trial {trial}"
        for Vp, mv in pv:
            if not any(
                mv == mw and reps_isomorphic(Vp, Wp) is not None for Wp, mw in pw
            ):
                return False, f"summand mismatch on random trial {trial}"
    return True, f"tube sweep (m <= {max_m}) and {random_count} random objects"


def check_dimensions(max_m: int):
    """Criterion 2: dimension vectors match the closed forms exactly."""
    for label in sweep_labels(max_m):
        T = _tube(label)
        dv = dim_vector(T.lattice).as_tuple()
        if label.tube.kind == "hom":
            d = label.tube.poly.degree()
            want = (2 * d * label.m,) + (d * label.m,) * 4
        else:
            n = label.m
            if n % 2 == 0:
                want = (n,) + (n // 2,) * 4
            else:
                mm = (n + 1) // 2
                # arrow sizes of the four maps of the length-n member on
                # branch 1 of the tube at 1, then the defining permutations
                sizes = [mm, mm, mm - 1, mm - 1]
                if label.j == 2:
                    sizes = [sizes[2], sizes[3], sizes[0], sizes[1]]
                if label.tube.lam == "0":
                    sizes = [sizes[0], sizes[3], sizes[2], sizes[1]]
                elif label.tube.lam == "inf":
                    sizes = [sizes[0], sizes[2], sizes[1], sizes[3]]
                want = (n,) + tuple(sizes)
        if dv != want:
            return False, f"{label}: got {dv}, want {want}"
    return True, f"all tubes with m <= {max_m}"


def check_cohomology(max_m: int, degrees):
    """Criterion 3: H^n elementary abelian of the predicted rank, xi a basis."""
    for label in sweep_labels(max_m):
        T = _tube(label)
        inf = is_infinity_tube(label)
        # M(n) depends on the parity of n alone
        comps = {p: target_component(T.lattice, p, inf) for p in {n % 2 for n in degrees}}
        for n in degrees:
            H = CohomologyGroup(T.lattice, n)
            comp = comps[n % 2]
            if H.invariants != tuple([2] * comp.rank()):
                return False, f"{label}, n={n}: invariants {H.invariants}"
            if not verify_xi_iso(T, n, H, comp):
                return False, f"{label}, n={n}: xi classes are not a basis"
    return True, f"sweep x degrees {list(degrees)}"


def check_dual_cohomology(max_m: int, degrees):
    """Criterion 4: stable dual cohomology, through H^(n+1)(K, M*), with eta bases."""
    for label in sweep_labels(max_m):
        T = _tube(label)
        for n in degrees:
            if not verify_eta_iso(T, n):
                return False, f"{label}, n={n}: eta classes are not a basis"
    return True, f"sweep x degrees {list(degrees)}, through H^(n+1)(K, M*)"


def check_torsion_bounds(seed: int):
    """Criterion 5: exponent bounds and the classical H^2(K, Z)."""
    Z = trivial_lattice(1)
    if tuple(sorted(cohomology_invariants_generic(Z, 2))) != (2, 2):
        return False, "H^2(K, Z) is not (Z/2)^2 by the generic route"
    rng = random.Random(seed)
    mods = [Z, regular_representation()]
    # a handful of arbitrary lattices, regular or not
    for _ in range(6):
        V = random_rep_in_R(rng, 3)
        mods.append(lattice_of(V))
    for M in mods:
        for n in (1, 2, 3):
            H = CohomologyGroup(M, n)
            for d in H.invariants:
                if 4 % d != 0:
                    return False, f"exponent exceeds 4 at rank {M.rank}, n={n}"
    for label in sweep_labels(2):
        T = _tube(label)
        for n in (1, 2):
            H = CohomologyGroup(T.lattice, n)
            if any(d != 2 for d in H.invariants):
                return False, f"regular module {label} has exponent > 2"
    return True, "exponent | 4 everywhere, | 2 on regulars, H^2(K,Z) = (Z/2)^2"


def check_syzygy(max_m: int):
    """Criterion 6: syzygy dimension law, label behavior, involutivity."""
    for label in sweep_labels(max_m):
        T = _tube(label)
        dv = dim_vector(T.lattice)
        Om = syzygy(T.lattice)
        dOm = dim_vector(Om)
        if dOm.d_dot != dv.d_dot:
            return False, f"{label}: centre dimension changed"
        for key in ("pp", "pm", "mp", "mm"):
            if dOm.component(key) != dv.d_dot - dv.component(key):
                return False, f"{label}: component law fails at {key}"
        lab1 = identify_tube(phi(Om))
        if lab1 == NON_REGULAR:
            return False, f"{label}: syzygy not regular"
        if label.tube.kind == "hom":
            if lab1.tube != label.tube or lab1.m != label.m:
                return False, f"{label}: homogeneous label moved to {lab1}"
        else:
            if lab1.tube != label.tube or lab1.m != label.m or lab1.j != 3 - label.j:
                return False, f"{label}: expected branch swap, got {lab1}"
        Om2 = syzygy(Om)
        lab2 = identify_tube(phi(Om2))
        if lab2 != label:
            return False, f"{label}: double syzygy gave {lab2}"
    return True, f"sweep m <= {max_m}"


def check_end_rings(max_hom_m: int, max_special_m: int):
    """Criterion 7: endomorphism orders equal the predicted orders."""
    f = F2Poly.from_string("t^2+t+1")
    for m in range(1, max_hom_m + 1):
        T = _tube(TubeLabel(TubeId.homogeneous(f), None, m))
        if not end_ring_check(T):
            return False, f"T[{f}]_{m}: order mismatch"
    for lam in ("0", "1", "inf"):
        for j in (1, 2):
            for m in range(1, max_special_m + 1):
                T = _tube(TubeLabel(TubeId.special(lam), j, m))
                if not end_ring_check(T):
                    return False, f"T[{lam},{j}]_{m}: order mismatch"
    return True, f"homogeneous m <= {max_hom_m} and special m <= {max_special_m}"


def check_cross_tube(pair_count: int, seed: int):
    """Criterion 8: cross-tube homomorphisms land in twice the overlattice."""
    rng = random.Random(seed)
    labels = [l for l in sweep_labels(2) if l.m <= 2]
    pairs = []
    while len(pairs) < pair_count:
        a, b = rng.choice(labels), rng.choice(labels)
        if a.tube != b.tube:
            pairs.append((a, b))
    for a, b in pairs:
        if not hom_cross_tube_check(_tube(a), _tube(b)):
            return False, f"hom from {a} to {b} escapes 2 N^#"
    # negative control: the literal 2N containment genuinely fails
    f = F2Poly.from_string("t^2+t+1")
    Ta = _tube(TubeLabel(TubeId.homogeneous(f), None, 1))
    Tb = _tube(TubeLabel(TubeId.special("1"), 1, 1))
    if hom_cross_tube_strict_2n(Ta, Tb):
        return False, "strict 2N containment unexpectedly holds"
    return True, f"{pair_count} pairs into 2 N^#; literal 2N refuted on a control pair"


def _orbit_cases():
    f = F2Poly.from_string("t^2+t+1")
    hom = TubeId.homogeneous(f)
    s1 = TubeId.special("1")
    s0 = TubeId.special("0")
    return [
        [TubeLabel(hom, None, 2)],
        [TubeLabel(s1, 1, 3)],
        [TubeLabel(s0, 2, 2)],
        [TubeLabel(s1, 1, 1), TubeLabel(s1, 2, 1)],
        [TubeLabel(s1, 1, 2), TubeLabel(s1, 1, 1)],
        [TubeLabel(s1, 1, 1), TubeLabel(s1, 1, 1)],
        [TubeLabel(s0, 1, 1), TubeLabel(s1, 1, 1)],
    ]


def _random_sum_automorphism(gens: list[IntMatrix], rng: random.Random) -> IntMatrix:
    """A product of one to six generators drawn by rng, the last drawn leftmost."""
    k = rng.randint(1, 6)
    out = rng.choice(gens)
    for _ in range(k - 1):
        out = rng.choice(gens) * out
    return out


def check_orbits(aut_count: int, seed: int):
    """Criterion 9: canonical forms are orbit invariants, fibers are orbits."""
    rng = random.Random(seed)
    for labels in _orbit_cases():
        summands = [_tube(l) for l in labels]
        sc = SumContext(summands, 2)
        if sc.H.order() > ORBIT_ORACLE_MAX:
            return False, f"|H| = {sc.H.order()} on {labels} is beyond the orbit oracle"
        orbits = sum_orbit_partition(sc)
        fibers: dict = {}
        reprs: dict = {}
        for cls in sc.H.all_classes():
            cf = canonical_form(summands, cls, 2, context=sc)
            key = (str(cf.data), tuple(sorted(str(l) for l in cf.m0_labels)))
            fibers.setdefault(key, set()).add(tuple(cls.coords))
            reprs[tuple(cls.coords)] = key
            # idempotence: canonicalizing the canonical class is stable
            cf2 = canonical_form(summands, cf.canonical_class, 2, context=sc)
            if str(cf2.data) != str(cf.data):
                return False, f"not idempotent on {labels}"
        if sorted(map(frozenset, fibers.values())) != sorted(map(frozenset, orbits)):
            return False, f"fibers differ from orbits on {labels}"
    # invariance under random automorphisms on two representative cases
    for labels in (_orbit_cases()[1], _orbit_cases()[4]):
        summands = [_tube(l) for l in labels]
        sc = SumContext(summands, 2)
        classes = list(sc.H.all_classes())
        gens = sc.automorphism_generators()
        for trial in range(aut_count):
            cls = classes[rng.randrange(len(classes))]
            U = _random_sum_automorphism(gens, rng)
            moved = push_class(U, cls, sc.H)
            a = canonical_form(summands, cls, 2, context=sc)
            b = canonical_form(summands, moved, 2, context=sc)
            if str(a.data) != str(b.data) or sorted(map(str, a.m0_labels)) != sorted(map(str, b.m0_labels)):
                return False, f"automorphism changed the canonical form on {labels}"
    return True, f"fibers = orbits on small cases; invariance over {aut_count} automorphisms x2 cases"


def check_s3(max_m: int):
    """Criterion 10: the symmetric-group action on labels."""
    f2 = F2Poly.from_string("t^2+t+1")
    f3 = F2Poly.from_string("t^3+t+1")
    for f in (f2, f3):
        for which in ("t2", "t3"):
            if s3_on_polynomial(s3_on_polynomial(f, which), which) != f:
                return False, f"{which} is not an involution on {f}"
    if s3_on_polynomial(f2, "t2") != f2 or s3_on_polynomial(f2, "t3") != f2:
        return False, "t^2+t+1 is not fixed"
    # order three of the composite on labels
    for start in ("0", "1", "inf"):
        lam = start
        for _ in range(3):
            lam = s3_on_tube(TubeId.special(lam), "t3").lam
            lam = s3_on_tube(TubeId.special(lam), "t2").lam
        if lam != start:
            return False, "composite is not of order three on special labels"
    g = f3
    for _ in range(3):
        g = s3_on_polynomial(s3_on_polynomial(g, "t3"), "t2")
    if g != f3:
        return False, "composite is not of order three on cubic labels"
    # transport commutes with twisting
    for label in sweep_labels(max_m):
        for which in ("t2", "t3"):
            moved = transport_label(label, which)
            want = s3_on_tube(label.tube, which)
            if moved.tube != want or moved.m != label.m:
                return False, f"transport mismatch at {label} under {which}"
    return True, f"involutions, order-3 composite, twist transport on the sweep (m <= {max_m})"


def check_groups(pair_count: int, seed: int):
    """Criterion 11: extensions, presentations, classification."""
    rng = random.Random(seed)
    f = F2Poly.from_string("t^2+t+1")
    hom = TubeId.homogeneous(f)
    s1 = TubeId.special("1")
    sinf = TubeId.special("inf")
    pools = [
        [TubeLabel(s1, 1, 1)],
        [TubeLabel(s1, 2, 1)],
        [TubeLabel(hom, None, 1)],
        [TubeLabel(s1, 1, 1), TubeLabel(s1, 2, 1)],
        [TubeLabel(sinf, 2, 1)],
        [TubeLabel(s1, 1, 2)],
    ]
    contexts = [SumContext([_tube(l) for l in labels], 2) for labels in pools]
    # one extension per drawn (context, class), checked on every sample drawn for it
    extensions = {}
    checked = 0
    while checked < pair_count:
        t = rng.randrange(len(contexts))
        sc = contexts[t]
        coords = tuple(rng.randrange(d) for d in sc.H.invariants)
        ext = extensions.get((t, coords))
        if ext is None:
            ext = extensions[(t, coords)] = extension_from_class(sc.module, sc.H.from_coords(coords))
        samples = [
            tuple(tuple(rng.randint(-2, 2) for _ in range(sc.module.rank)) for _ in range(3))
        ]
        if not ext.associativity_check(samples):
            return False, f"non-associative extension at trial {checked}"
        checked += 1
    # presentations hold mechanically (an infinity entry forces bbar^2 != 1)
    T = _tube(TubeLabel(s1, 1, 1))
    sc = SumContext([T], 2)
    cf = canonical_form([T], sc.merge([sc.representative(0, 0)]), 2, context=sc)
    cr_presentation(cf.data, cf.m0_labels)
    Ti = _tube(TubeLabel(sinf, 1, 1))
    sci = SumContext([Ti], 2)
    cfi = canonical_form([Ti], sci.merge([sci.representative(0, 0)]), 2, context=sci)
    pres = cr_presentation(cfi.data, cfi.m0_labels)
    if not any(x % 2 for x in pres.section["einf"]):
        return False, "infinity entry did not populate the bbar square"
    Tf2 = _tube(TubeLabel(hom, None, 2))
    dsc = DualSumContext([Tf2], 2)
    dcf = co_canonical_form([Tf2], dsc.merge([dsc.representative(0, 0)]), 2, context=dsc)
    ch_presentation(dcf.data, dcf.n0_labels)
    # classification: a twist is isomorphic, distinct positions are not
    T2 = _tube(TubeLabel(s1, 1, 2))
    sc2 = SumContext([T2], 2)
    c1 = sc2.merge([sc2.representative(0, 1)])
    for which in ("t2", "t3"):
        Mt, clst = apply_group_automorphism(which, sc2.module, c1)
        labt = transport_label(T2.label, which)
        Tt = _tube(labt)
        sct = SumContext([Tt], 2)
        moved = transport_class(Mt, clst, sct.H)
        res = classify([T2], c1, [Tt], moved, context1=sc2, context2=sct)
        if not res.isomorphic or res.psi != which:
            return False, f"twist by {which} not recognized: {res}"
    scf = SumContext([Tf2], 2)
    c0 = scf.merge([scf.representative(0, 0)])
    cpos1 = scf.merge([scf.representative(0, 1)])
    res = classify([Tf2], c0, [Tf2], cpos1, context1=scf, context2=scf)
    if res.isomorphic:
        return False, "filtration positions 0 and 1 not distinguished"
    return True, f"{pair_count} associative extensions; presentations verified; classification checks"


def criteria(max_m: int = 3, degrees=(1, 2, 3, 4), seed: int = 0, fast: bool = False):
    """The battery's one table of sizes: (name, check_* function name, kwargs).

    With the defaults these are the full sizes; fast caps the tube sweeps at
    m <= 2 and shrinks the sample counts.  Checks are named rather than held,
    so run_all calls whatever the module binds under that name when it runs.
    """
    mm = min(max_m, 2) if fast else max_m
    return [
        ("round-trip equivalence", "check_round_trip",
         {"max_m": mm, "random_count": 50 if fast else 200, "seed": seed}),
        ("dimension formulas", "check_dimensions", {"max_m": mm}),
        ("cohomology and xi bases", "check_cohomology", {"max_m": mm, "degrees": degrees}),
        ("dual cohomology and eta bases", "check_dual_cohomology", {"max_m": mm, "degrees": degrees}),
        ("torsion bounds", "check_torsion_bounds", {"seed": seed}),
        ("syzygy laws", "check_syzygy", {"max_m": mm}),
        ("endomorphism rings", "check_end_rings", {"max_hom_m": 2, "max_special_m": mm}),
        ("cross-tube homomorphisms", "check_cross_tube", {"pair_count": 20, "seed": seed}),
        ("orbits and canonical forms", "check_orbits", {"aut_count": 100 if fast else 500, "seed": seed}),
        ("symmetric-group action", "check_s3", {"max_m": mm}),
        ("group constructions", "check_groups", {"pair_count": 200 if fast else 1000, "seed": seed}),
    ]


def run_all(max_m: int = 3, degrees=(1, 2, 3, 4), seed: int = 0, fast: bool = False):
    """Run every criterion of criteria(); returns a list of (name, ok, detail).

    max_m must be at least 1 and degrees must not be empty: otherwise the
    tube sweeps or the degree ranges are empty and their criteria would pass
    without checking anything.
    """
    if max_m < 1:
        raise ValueError(f"max_m = {max_m}: the tube sweeps need max_m >= 1")
    if not degrees:
        raise ValueError("degrees is empty: the cohomology criteria need a degree")
    return [(name,) + globals()[check](**kwargs)
            for name, check, kwargs in criteria(max_m, degrees, seed, fast)]
