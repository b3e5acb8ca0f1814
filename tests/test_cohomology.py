import ast
import os
import random
import subprocess
import sys

import pytest

import kleinlat
from kleinlat.colattices import StableDualCohomology
from kleinlat.klein import regular_representation, trivial_lattice
from kleinlat.polys import F2Poly
from kleinlat.quiver import TubeId, lattice_of, random_rep_in_R
from kleinlat.intmat import IntMatrix, kernel_basis
from kleinlat.lattices import ZLattice, hnf
from kleinlat.tubes import sweep_labels, transport_label, tube_module, tube_module_from_label
from kleinlat.cohomology import (
    Cochain,
    CohomologyGroup,
    SumContext,
    TubeCohContext,
    apply_group_automorphism,
    canonical_form,
    cohomology_invariants_generic,
    differential_matrix,
    is_infinity_tube,
    push_class,
    sum_orbit_partition,
    target_component,
    transport_class,
    verify_xi_iso,
)

F = F2Poly.from_string("t^2+t+1")


def test_coboundary_formula():
    Z = trivial_lattice(1)
    assert differential_matrix(Z, 1).apply(Cochain(1, ((0,), (1,))).flatten()) == (0, 0, 2)
    assert not any(differential_matrix(Z, 2).apply(Cochain.zero(2, 1).flatten()))


def test_dd_zero_random():
    rng = random.Random(7)
    for _ in range(50):
        M = lattice_of(random_rep_in_R(rng, 3))
        n = rng.randint(1, 3)
        gam = Cochain(
            n,
            tuple(tuple(rng.randint(-3, 3) for _ in range(M.rank)) for _ in range(n + 1)),
        )
        dd = differential_matrix(M, n + 1).apply(differential_matrix(M, n).apply(gam.flatten()))
        assert not any(dd)


def test_classical_values():
    Z = trivial_lattice(1)
    assert tuple(sorted(CohomologyGroup(Z, 2).invariants)) == (2, 2)
    R = regular_representation()
    for n in (1, 2, 3):
        assert CohomologyGroup(R, n).invariants == ()
    T = tube_module(TubeId.special("1"), 1, 1)
    assert CohomologyGroup(T.lattice, 1).invariants == ()
    assert CohomologyGroup(T.lattice, 2).invariants == (2,)
    for m in (1, 2):
        Tf = tube_module(TubeId.homogeneous(F), None, m)
        for n in (1, 2, 3, 4):
            assert CohomologyGroup(Tf.lattice, n).invariants == tuple([2] * (2 * m))


def test_fast_path_matches_generic():
    rng = random.Random(11)
    for _ in range(12):
        M = lattice_of(random_rep_in_R(rng, 3))
        n = rng.randint(1, 3)
        assert tuple(sorted(CohomologyGroup(M, n).invariants)) == cohomology_invariants_generic(M, n)


def test_xi_cocycles_and_iso():
    T = tube_module(TubeId.special("1"), 1, 1)
    comp = target_component(T.lattice, 2, False)
    assert comp.rank() == 1
    v = comp.basis[0]
    H = CohomologyGroup(T.lattice, 2)
    gamma = H.closed_cocycle(v, False)
    assert gamma.values[2] == tuple(v)
    with pytest.raises(ValueError):
        H.closed_cocycle((1, 1), False)
    assert verify_xi_iso(T, 2)
    # parity periodicity of the group orders for regular modules
    Tf = tube_module(TubeId.homogeneous(F), None, 1)
    for n in (1, 2):
        a = CohomologyGroup(Tf.lattice, n).order()
        b = CohomologyGroup(Tf.lattice, n + 2).order()
        assert a == b


def test_filtration_positions():
    Tf2 = tube_module(TubeId.homogeneous(F), None, 2)
    ctx = TubeCohContext(Tf2, 2)
    assert ctx.filtration_position(ctx.H.zero()) == "zero"
    assert ctx.filtration_position(ctx.representative(0)) == 0
    assert ctx.filtration_position(ctx.representative(1)) == 1


def test_stratum_parity():
    # on branch j at degree n, strata are nonempty exactly when
    # m - k = j + n mod 2
    for j in (1, 2):
        T = tube_module(TubeId.special("1"), j, 3)
        for n in (1, 2):
            ctx = TubeCohContext(T, n)
            for k in range(3):
                expected = (3 - k - j - n) % 2 == 0
                assert (ctx.representative(k) is not None) == expected, (j, n, k)


def test_orbits_match_strata():
    Tf2 = tube_module(TubeId.homogeneous(F), None, 2)
    sc = SumContext([Tf2], 2)
    ctx = sc.ctxs[0]
    orbits = sum_orbit_partition(sc)
    assert sorted(len(o) for o in orbits) == [1, 3, 12]
    for orbit in orbits:
        positions = {ctx.filtration_position(ctx.H.from_coords(pt)) for pt in orbit}
        assert len(positions) == 1


def test_canonical_form_single_and_sum():
    T2 = tube_module(TubeId.special("1"), 1, 2)
    T1 = tube_module(TubeId.special("1"), 1, 1)
    sc = SumContext([T2, T1], 2)
    orbits = sum_orbit_partition(sc)
    fibers = {}
    for cls in sc.H.all_classes():
        cf = canonical_form([T2, T1], cls, 2, context=sc)
        key = (str(cf.data), tuple(sorted(str(l) for l in cf.m0_labels)))
        fibers.setdefault(key, set()).add(tuple(cls.coords))
        # witness honest: pushing the class along it gives the canonical class
        assert push_class(cf.witness, cls, sc.H) == cf.canonical_class
        cf2 = canonical_form([T2, T1], cf.canonical_class, 2, context=sc)
        assert str(cf2.data) == str(cf.data)
    assert sorted(map(frozenset, fibers.values())) == sorted(map(frozenset, orbits))


def test_zero_class_empty_data():
    T = tube_module(TubeId.homogeneous(F), None, 1)
    sc = SumContext([T], 2)
    cf = canonical_form([T], sc.H.zero(), 2, context=sc)
    assert not cf.data.entries
    assert [str(l) for l in cf.m0_labels] == [str(T.label)]


def test_apply_group_automorphism_transports_data():
    T = tube_module(TubeId.special("1"), 1, 2)
    sc = SumContext([T], 2)
    cls = sc.merge([sc.representative(0, 1)])
    for which in ("t2", "t3"):
        Mt, clst = apply_group_automorphism(which, sc.module, cls)
        lab = transport_label(T.label, which)
        T2 = tube_module_from_label(lab)
        sc2 = SumContext([T2], 2)
        moved = transport_class(Mt, clst, sc2.H)
        cf1 = canonical_form([T], cls, 2, context=sc)
        cf2 = canonical_form([T2], moved, 2, context=sc2)
        assert cf1.positions == cf2.positions
        assert str(cf2.data.entries[0][0]) == str(lab.tube)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_transport_class_refuses_a_non_unimodular_lift_of_an_isomorphism(flags):
    # three times the unimodular lift of each arm still reduces to the
    # isomorphism, but its lift has det +-3^r: lift_morphism stops it, and
    # its check is not an assert, so python -O keeps it
    code = (
        "from kleinlat import quiver\n"
        "from kleinlat.cohomology import SumContext, apply_group_automorphism, transport_class\n"
        "from kleinlat.quiver import TubeId\n"
        "from kleinlat.tubes import transport_label, tube_module, tube_module_from_label\n"
        "T = tube_module(TubeId.special('1'), 1, 2)\n"
        "sc = SumContext([T], 2)\n"
        "Mt, clst = apply_group_automorphism('t2', sc.module, sc.merge([sc.representative(0, 1)]))\n"
        "dst = SumContext([tube_module_from_label(transport_label(T.label, 't2'))], 2).H\n"
        "real = quiver.lift_invertible\n"
        "quiver.lift_invertible = lambda A: real(A).scale(3)\n"
        "transport_class(Mt, clst, dst)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(kleinlat.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, *flags, "-c", code],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 1
    assert "VerificationError: the lift of an isomorphism is not unimodular" in out.stderr


# xi and eta over every vector of their components on the members of
# sweep_labels(1), with one entry of the slot's value off by one; xi in
# degrees 1..3 and eta in degrees 1 and 3, where that is never a cocycle
_BROKEN_SLOT = (
    "from kleinlat.checks import VerificationError\n"
    "from kleinlat.cohomology import ClassGroup, CohomologyGroup, is_infinity_tube, target_component\n"
    "from kleinlat.colattices import StableDualCohomology, dual_target_basis\n"
    "from kleinlat.tubes import sweep_labels, tube_module_from_label\n"
    "real = ClassGroup._one_slot\n"
    "def broken(self, value, inf):\n"
    "    return real(self, [value[0] + 1] + list(value[1:]), inf)\n"
    "total, refused = 0, {}\n"
    "for label in sweep_labels(1):\n"
    "    M, inf = tube_module_from_label(label).lattice, is_infinity_tube(label)\n"
    "    cases = [(CohomologyGroup(M, n), target_component(M, n, inf).basis) for n in (1, 2, 3)]\n"
    "    for n in (1, 3):\n"
    "        H = StableDualCohomology(M, n)\n"
    "        cases.append((H, dual_target_basis(H.colattice, n, inf)))\n"
    "    for H, vectors in cases:\n"
    "        for v in vectors:\n"
    "            H.closed_cocycle(v, inf)\n"
    "            total += 1\n"
    "            ClassGroup._one_slot = broken\n"
    "            try:\n"
    "                H.closed_cocycle(v, inf)\n"
    "            except VerificationError as e:\n"
    "                refused[str(e)] = refused.get(str(e), 0) + 1\n"
    "            finally:\n"
    "                ClassGroup._one_slot = real\n"
    "print(total, sorted(refused.items()))\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_a_closed_form_cochain_that_is_not_a_cocycle_is_refused(flags):
    # the cocycle checks of xi (the kernel elimination) and eta (D_n mod q)
    # are not asserts, so python -O keeps them
    src = os.path.dirname(os.path.dirname(os.path.abspath(kleinlat.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, *flags, "-c", _BROKEN_SLOT],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    total, refused = out.stdout.split(" ", 1)
    refused = dict(ast.literal_eval(refused))
    assert set(refused) == {"xi is not a cocycle", "eta is not a cocycle mod 2^k"}
    assert sum(refused.values()) == int(total) > 0


def _closed_form_rank(n):
    """Rank of H^n(K, Z) = (Z/2)^rank for n >= 1, by the Kuenneth formula."""
    return n // 2 + 1 if n % 2 == 0 else (n - 1) // 2


def test_closed_forms_for_the_trivial_and_the_regular_module():
    Z = trivial_lattice(1)
    R = regular_representation()
    for n in range(1, 9):
        assert CohomologyGroup(Z, n).invariants == (2,) * _closed_form_rank(n), n
        assert CohomologyGroup(R, n).invariants == (), n
    # H^n(K, DM) = H^(n+1)(K, M*), and both modules are self-dual
    for n in range(1, 7):
        assert StableDualCohomology(Z, n).invariants == (2,) * _closed_form_rank(n + 1), n
        assert StableDualCohomology(R, n).invariants == (), n


def test_failed_check_in_cohomology_raises_under_python_O():
    # the checks in cohomology are not asserts, so python -O keeps them
    code = (
        "from kleinlat.quiver import TubeId\n"
        "from kleinlat.tubes import tube_module\n"
        "from kleinlat import cohomology\n"
        "cohomology.ORBIT_ORACLE_MAX = 1\n"
        "sc = cohomology.SumContext([tube_module(TubeId.special('1'), 1, 1)], 2)\n"
        "cohomology.sum_orbit_partition(sc)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(kleinlat.__file__)))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 1
    assert "VerificationError: group too large for the brute-force oracle" in out.stderr


def test_kernel_basis_rows_are_their_own_hermite_form():
    # CohomologyGroup keeps the kernel_basis rows as its Hermite basis and
    # runs no hnf pass of its own: the rows come in pivot order, with
    # positive pivots and the entries above each pivot reduced
    def check(D, where):
        rows = kernel_basis(D)
        assert tuple(rows) == hnf(rows, D.cols).basis, where

    for label in sweep_labels(3):
        M = tube_module_from_label(label).lattice
        for side, mod in (("M", M), ("M*", M.transposed())):
            for n in range(6):
                D = differential_matrix(mod, n)
                check(D, (str(label), side, n))
                check(D.transpose(), (str(label), side, n, "transposed"))
    rng = random.Random(29)
    entries = (0,) * 6 + (1, -1, 2, -2, 3, 6)
    for _ in range(200):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        A = [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]
        check(IntMatrix(A, cols=cols), A)
        # echelon_coords on those rows is ZLattice.coords: the coordinates
        # of a member, and a nonzero remainder for every non-member
        L = hnf(kernel_basis(IntMatrix(A, cols=cols)), cols)
        K = L.basis_matrix()
        for _ in range(3):
            c = [rng.randint(-3, 3) for _ in L.basis]
            v = [sum(ci * b[t] for ci, b in zip(c, L.basis)) + rng.choice((0, 0, 1))
                 for t in range(cols)]
            rest = list(v)
            got = K.echelon_coords(rest)
            want = L.coords(v)
            assert (not any(rest)) == (want is not None), (A, v)
            assert want is None or tuple(got) == want, (A, v)


def test_class_of_on_the_sparse_kernel_rows_matches_the_hermite_basis():
    # the group keeps only the nonzero entries of its kernel rows; coordinates
    # and the cocycle test agree with the Hermite basis they were read from
    rng = random.Random(3)
    for label in sweep_labels(2):
        M = tube_module_from_label(label).lattice
        r = M.rank
        for n in (1, 2, 3):
            H = CohomologyGroup(M, n)
            width = (n + 1) * r
            ker = hnf([list(v) for v in kernel_basis(differential_matrix(M, n))], width)
            for _ in range(4):
                c = [rng.randrange(-3, 4) for _ in ker.basis]
                z = [sum(ci * b[t] for ci, b in zip(c, ker.basis)) for t in range(width)]
                assert H.class_of(Cochain.unflatten(n, r, z)).coords == H._q.coords(c), label
                bad = list(z)
                bad[rng.randrange(width)] += 1
                if ker.coords(bad) is None:
                    with pytest.raises(ValueError, match="not a cocycle"):
                        H.class_of(Cochain.unflatten(n, r, bad))
            with pytest.raises(ValueError):
                H.class_of(Cochain.zero(n + 1, r))


def test_generators_are_built_again_after_they_are_forgotten():
    # the generator cocycles are built from the kernel rows on first read;
    # a group that forgot them (the integral group of a stable dual group
    # does) builds the same cocycles again
    for label in sweep_labels(2):
        M = tube_module_from_label(label).lattice
        for n in (1, 2):
            H = CohomologyGroup(M, n)
            gens = H.generators
            for i, g in enumerate(gens):
                assert H.class_of(g).coords == tuple(int(t == i) for t in range(len(gens))), label
            H.forget_generators()
            assert H.generators == gens, label
            S = StableDualCohomology(M, n)
            assert S._integral._generators is None
            assert S._integral.generators == CohomologyGroup(S.module, n + 1).generators, label


def test_unipotent_witness_on_one_block_adds_theta_to_the_identity():
    T2 = tube_module(TubeId.special("1"), 1, 2)
    T1 = tube_module(TubeId.special("1"), 1, 1)
    sc = SumContext([T2, T1], 2)
    for i, T in enumerate((T2, T1)):
        r = T.lattice.rank
        theta = IntMatrix([[2 * (a == b) - (b == a + 1) for b in range(r)] for a in range(r)])
        want = sc.block_witness(i, IntMatrix.identity(r) + theta)
        assert sc.unipotent_witness(i, i, theta) == want


def _integral_stratum_vector(T, n, k):
    """The first Hermite row of M_k(n) outside 2 M_k(n) + M_(k+1)(n), by
    integral membership in that sum, with M_j(n) built from the member."""
    r = T.lattice.rank
    inf = is_infinity_tube(T.label)

    def component(j):
        sub, emb = T.chain[j]
        if sub is None or sub.rank == 0:
            return ZLattice.zero(r)
        return hnf([emb.apply(v) for v in target_component(sub, n, inf).basis], r)

    Mk = component(k)
    excl = hnf([[2 * x for x in v] for v in Mk.basis] + [list(v) for v in component(k + 1).basis], r)
    return next((tuple(v) for v in Mk.basis if v not in excl), None)


def test_lattice_stratum_vectors_match_the_integral_route():
    # the context tests v mod 2 against M_(k+1)(n) mod 2, which needs M_k(n)
    # pure; the integral route needs nothing
    cases = found = 0
    for label in sweep_labels(4):
        T = tube_module_from_label(label)
        for n in (1, 2, 3, 4):
            ctx = TubeCohContext(T, n)
            for k in range(T.m):
                got = ctx._stratum_vector(k)
                assert got == _integral_stratum_vector(T, n, k), (str(label), n, k)
                cases += 1
                found += got is not None
    assert cases == 320 and 0 < found < cases
