import os
import subprocess
import sys

import pytest

import kleinlat
from kleinlat.klein import dim_vector
from kleinlat.polys import F2Poly
from kleinlat.quiver import TubeId, TubeLabel, identify_tube, phi
from kleinlat.tubes import (
    end_ring_check,
    hom_cross_tube_check,
    hom_klattices,
    is_regular,
    member_rank,
    s3_on_polynomial,
    s3_on_tube,
    sweep_labels,
    syzygy,
    transport_label,
    tube_module,
    tube_module_from_label,
)

F = F2Poly.from_string("t^2+t+1")
G3 = F2Poly.from_string("t^3+t+1")


def test_tube_module_dims():
    assert dim_vector(tube_module(TubeId.homogeneous(F), None, 1).lattice).as_tuple() == (4, 2, 2, 2, 2)
    assert dim_vector(tube_module(TubeId.special("1"), 2, 1).lattice).as_tuple() == (1, 0, 0, 1, 1)
    assert dim_vector(tube_module(TubeId.special("1"), 1, 2).lattice).as_tuple() == (2, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        tube_module(TubeId.special("1"), None, 1)
    with pytest.raises(ValueError):
        tube_module(TubeId.homogeneous(F), 1, 1)


def test_chain_structure():
    T = tube_module(TubeId.homogeneous(F), None, 2)
    assert [emb.cols for _sub, emb in T.chain] == [16, 8, 0]
    assert all(str(l) == "T[t^2+t+1]_1" for l in T.layer_labels)
    T2 = tube_module(TubeId.special("1"), 1, 2)
    assert [str(l) for l in T2.layer_labels] == ["T[1,2]_1", "T[1,1]_1"]
    T3 = tube_module(TubeId.special("1"), 1, 3)
    assert [str(l) for l in T3.layer_labels] == ["T[1,1]_1", "T[1,2]_1", "T[1,1]_1"]
    # chain layers: submodules keep the branch, tops alternate by remaining length
    for lam in ("0", "1", "inf"):
        for j in (1, 2):
            for m in (1, 2, 3, 4):
                T = tube_module(TubeId.special(lam), j, m)
                for k, lab in enumerate(T.layer_labels):
                    n_remaining = m - k
                    want_j = j if n_remaining % 2 == 1 else 3 - j
                    assert lab.tube.lam == lam and lab.m == 1 and lab.j == want_j, (
                        lam, j, m, k, str(lab)
                    )


def test_syzygy_laws():
    for label, want_j in ((TubeLabel(TubeId.special("1"), 1, 2), 2),):
        T = tube_module_from_label(label)
        Om = syzygy(T.lattice)
        dv, dOm = dim_vector(T.lattice), dim_vector(Om)
        assert dOm.d_dot == dv.d_dot
        for key in ("pp", "pm", "mp", "mm"):
            assert dOm.component(key) == dv.d_dot - dv.component(key)
        lab = identify_tube(phi(Om))
        assert lab.j == want_j and lab.tube == label.tube and lab.m == label.m
    # homogeneous tubes are fixed
    T = tube_module(TubeId.homogeneous(F), None, 1)
    lab = identify_tube(phi(syzygy(T.lattice)))
    assert lab.tube.kind == "hom" and lab.tube.poly == F and lab.m == 1
    # dim check from the closed formula: (3;2,2,1,1) -> (3;1,1,2,2)
    T3 = tube_module(TubeId.special("1"), 1, 3)
    assert dim_vector(syzygy(T3.lattice)).as_tuple() == (3, 1, 1, 2, 2)
    with pytest.raises(ValueError):
        syzygy(__import__("kleinlat.klein", fromlist=["trivial_lattice"]).trivial_lattice(1))


def test_odd_special_members_of_length_five_and_seven():
    # the normal forms at odd m >= 5 are indecomposable; the end-ring law,
    # the syzygy laws and the closed-form ranks of H^1 and H^2 hold there
    from kleinlat.cohomology import CohomologyGroup, verify_xi_iso

    for lam in ("0", "1", "inf"):
        for j in (1, 2):
            for m in (5, 7):
                label = TubeLabel(TubeId.special(lam), j, m)
                T = tube_module_from_label(label)
                assert end_ring_check(T), label
                Om = syzygy(T.lattice)
                dv, dOm = dim_vector(T.lattice), dim_vector(Om)
                assert dOm.d_dot == dv.d_dot
                for key in ("pp", "pm", "mp", "mm"):
                    assert dOm.component(key) == dv.d_dot - dv.component(key), (label, key)
                assert identify_tube(phi(Om)) == TubeLabel(label.tube, 3 - j, m)
                assert identify_tube(phi(syzygy(Om))) == label
                for n in (1, 2):
                    H = CohomologyGroup(T.lattice, n)
                    rank = (m + 1) // 2 if (n + j) % 2 else m // 2
                    assert H.invariants == (2,) * rank, (label, n)
                    assert verify_xi_iso(T, n, H), (label, n)


def test_end_ring_checks():
    assert end_ring_check(tube_module(TubeId.homogeneous(F), None, 1))
    assert end_ring_check(tube_module(TubeId.special("1"), 1, 1))
    assert end_ring_check(tube_module(TubeId.special("1"), 1, 2))
    # independence of the integer lift
    T = tube_module(TubeId.homogeneous(F), None, 2)
    assert end_ring_check(T)
    assert end_ring_check(T, lift_coeffs=[1, 3, 1])
    assert end_ring_check(T, lift_coeffs=[-1, 1, 1])


def test_hom_cross_tube():
    Ta = tube_module(TubeId.homogeneous(F), None, 1)
    Tb = tube_module(TubeId.special("1"), 1, 1)
    assert hom_cross_tube_check(Ta, Tb)
    Tc = tube_module(TubeId.special("0"), 1, 1)
    Td = tube_module(TubeId.special("inf"), 1, 2)
    assert hom_cross_tube_check(Tc, Td)
    with pytest.raises(ValueError):
        hom_cross_tube_check(Ta, Ta)


def test_hom_klattices_matches_brute_force():
    from kleinlat.intmat import IntMatrix, kernel_basis
    from kleinlat.lattices import hnf

    Ta = tube_module(TubeId.homogeneous(F), None, 1).lattice
    Tb = tube_module(TubeId.special("1"), 1, 1).lattice
    rM, rN = Ta.rank, Tb.rank
    rows = []
    for (Am, An) in ((Ta.act_a, Tb.act_a), (Ta.act_b, Tb.act_b)):
        for i in range(rN):
            for j in range(rM):
                eq = [0] * (rN * rM)
                for k in range(rM):
                    eq[i * rM + k] += Am.data[k][j]
                for k in range(rN):
                    eq[k * rM + j] -= An.data[i][k]
                rows.append(eq)
    brute = hnf([list(v) for v in kernel_basis(IntMatrix(rows, cols=rN * rM))], rN * rM)
    fast = hnf(
        [[psi.data[i][j] for i in range(rN) for j in range(rM)] for psi in hom_klattices(Ta, Tb)],
        rN * rM,
    )
    assert brute == fast


# The routes the sharp-block frame replaced, kept as references: hom_klattices
# by the adjugate of E_N mod det E_N, end_order_lattice by the mod-2 conditions
# on lattice_of's ambient basis, and the unit family by rewriting an ambient
# lift in that basis.


def _hom_by_adjugate(M, N):
    from kleinlat.intmat import IntMatrix, determinant, solve_matrix_exact
    from kleinlat.lattices import kernel_mod
    from kleinlat.quiver import _embedding_matrix, phi_data
    from kleinlat.tubes import _block_slots

    dM, dN = phi_data(M), phi_data(N)
    E_M, E_N = _embedding_matrix(dM), _embedding_matrix(dN)
    det_N = determinant(E_N)
    q = abs(det_N)
    adjN = solve_matrix_exact(E_N, IntMatrix.diagonal([det_N] * N.rank))
    slots = _block_slots([c.rank() for c in dN.sharp.components],
                         [c.rank() for c in dM.sharp.components])
    u = len(slots)
    adj, emb = adjN.data, E_M.data
    W = IntMatrix([[(adj[i][a] * emb[b][j]) % q for (a, b) in slots]
                   for i in range(N.rank) for j in range(M.rank)], cols=u)
    out = []
    for y in kernel_mod(W, q).basis:
        Y = [[0] * M.rank for _ in range(N.rank)]
        for val, (a, b) in zip(y, slots):
            Y[a][b] = val
        prod = adjN * IntMatrix(Y, cols=M.rank) * E_M
        assert all(x % det_N == 0 for r in prod.data for x in r)
        out.append(IntMatrix([[x // det_N for x in r] for r in prod.data], cols=M.rank))
    return out


def _rank_24_members():
    return [tube_module_from_label(TubeLabel(TubeId.homogeneous(f), None, m))
            for f, m in ((F, 3), (G3, 2))]


def test_hom_klattices_equals_the_adjugate_route():
    members = [tube_module_from_label(label).lattice for label in sweep_labels(2)]
    pairs = [(M, N) for M in members for N in members]
    pairs += [(T.lattice, T.lattice) for T in _rank_24_members()]
    for M, N in pairs:
        assert hom_klattices(M, N) == _hom_by_adjugate(M, N)


def _end_order_by_ambient_basis(label):
    from kleinlat.f2 import F2Matrix, nullspace
    from kleinlat.lattices import hnf
    from kleinlat.quiver import label_rep
    from kleinlat.tubes import _block_slots
    from test_quiver import _ambient_basis

    V = label_rep(label)
    B = _ambient_basis(V)
    mult = [V.dims.component(k) for k in ("pp", "pm", "mp", "mm")]
    slots = _block_slots(mult, mult)
    u = len(slots)
    # h . x = 0 mod 2 exactly for x in M, the rows of B spanning M mod 2
    H = nullspace(F2Matrix(B.data, cols=B.cols))
    rows = [[h[a] & v[b] & 1 for (a, b) in slots] for v in B.data for h in H]
    sols = nullspace(F2Matrix(rows, cols=u))
    return hnf([list(v) for v in sols] + [[2 * (t == s) for t in range(u)] for s in range(u)], u)


def test_end_order_lattice_equals_the_ambient_route():
    from kleinlat.tubes import end_order_lattice

    for label in sweep_labels(3):
        assert end_order_lattice(tube_module_from_label(label).lattice) == _end_order_by_ambient_basis(label)


def _unit_family_by_ambient_basis(T):
    from kleinlat.intmat import IntMatrix, determinant, inverse_unimodular, solve_matrix_exact
    from kleinlat.lattices import lift_invertible
    from kleinlat.quiver import _span_elements, hom_reps, label_rep
    from test_quiver import _ambient_basis

    Bc = _ambient_basis(label_rep(T.label)).transpose()
    rep = phi(T.lattice)
    out = []
    for e in _span_elements(hom_reps(rep, rep), 9, tries=512, seed=0):
        if e.is_invertible():
            amb = IntMatrix.block_diagonal([lift_invertible(e.phi[k]) for k in ("pp", "pm", "mp", "mm")])
            U = solve_matrix_exact(Bc, amb * Bc)
            if abs(determinant(U)) == 1:
                for W in (U, inverse_unimodular(U)):
                    if not W.is_identity() and W not in out:
                        out.append(W)
    minus = IntMatrix.identity(T.lattice.rank).scale(-1)
    return out + [minus] * (minus not in out)


def test_the_unit_family_equals_the_ambient_route():
    for T in [tube_module_from_label(label) for label in sweep_labels(2)] + _rank_24_members():
        assert list(T.aut_family) == _unit_family_by_ambient_basis(T), T.label


def test_s3_polynomials():
    assert s3_on_polynomial(F, "t2") == F
    assert s3_on_polynomial(F, "t3") == F
    g2 = s3_on_polynomial(G3, "t2")
    assert str(g2) == "t^3+t^2+1"
    for which in ("t2", "t3"):
        assert s3_on_polynomial(s3_on_polynomial(G3, which), which) == G3
    with pytest.raises(ValueError):
        s3_on_polynomial(F2Poly.from_string("t+1"), "t2")


def test_s3_tubes_match_twisting():
    # the honest action: swapping a and b exchanges the tubes at 1 and inf,
    # composing a with ab exchanges the tubes at 1 and 0
    assert s3_on_tube(TubeId.special("1"), "t2").lam == "inf"
    assert s3_on_tube(TubeId.special("0"), "t2").lam == "0"
    assert s3_on_tube(TubeId.special("1"), "t3").lam == "0"
    assert s3_on_tube(TubeId.special("inf"), "t3").lam == "inf"
    for lam in ("0", "1", "inf"):
        for j in (1, 2):
            for m in (1, 2):
                label = TubeLabel(TubeId.special(lam), j, m)
                for which in ("t2", "t3"):
                    moved = transport_label(label, which)
                    assert moved.tube == s3_on_tube(label.tube, which)
                    assert moved.m == m


def test_is_regular():
    assert is_regular(tube_module(TubeId.special("1"), 1, 1).lattice)
    from kleinlat.klein import diagonal_sign_lattice

    assert not is_regular(diagonal_sign_lattice((1, 0, 0, 0)))


def test_failed_check_raises_under_python_O():
    # the checks in tubes are not asserts, so python -O keeps them; a radical
    # outside its tube stops the chain the annihilators are built from
    code = (
        "import kleinlat.tubes as tubes\n"
        "from kleinlat.quiver import NON_REGULAR, TubeId\n"
        "tubes.identify_tube = lambda W: NON_REGULAR\n"
        "tubes.tube_module(TubeId.special('1'), 1, 2).chain\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(kleinlat.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 1
    assert "VerificationError: the radical of T[1,1]_2 left its tube" in out.stderr


def test_the_chain_is_built_on_first_read_and_kept(monkeypatch):
    import kleinlat.tubes as tubes

    calls = []
    real = tubes._chain_for

    def counted(module, label):
        calls.append(label)
        return real(module, label)

    monkeypatch.setattr(tubes, "_chain_for", counted)
    for label in sweep_labels(2):
        T = tube_module_from_label(label)
        # what the structure workload does with a member reads no chain
        identify_tube(phi(T.lattice))
        syzygy(T.lattice)
        assert calls == [], label
        chain = T.chain
        assert T.layer_labels and T.chain is chain and T.annihilator_chain
        assert calls == [label]
        calls.clear()


def test_member_rank_is_read_off_the_label():
    for label in sweep_labels(3):
        assert member_rank(label) == tube_module_from_label(label).lattice.rank, label


def test_a_member_over_the_rank_limit_is_refused_before_it_is_built(monkeypatch):
    import kleinlat.tubes as tubes

    def no_build(label):
        raise AssertionError("a member over the limit was built")

    monkeypatch.setattr(tubes, "label_rep", no_build)
    for tube, j, m in ((TubeId.special("1"), 1, tubes.MAX_MEMBER_RANK // 2 + 1),
                       (TubeId.homogeneous(G3), None, tubes.MAX_MEMBER_RANK // 12 + 1)):
        rank = member_rank(TubeLabel(tube, j, m))
        assert rank > tubes.MAX_MEMBER_RANK
        with pytest.raises(ValueError, match=f"rank {rank}, over the limit of {tubes.MAX_MEMBER_RANK}"):
            tube_module(tube, j, m)


def test_a_tube_polynomial_over_the_degree_limit_is_refused_before_the_irreducibility_test(monkeypatch):
    import kleinlat.tubes as tubes

    # every member of a tube of degree d has rank 4 d m, so the limit is
    # MAX_MEMBER_RANK // 4 = 256; the test is patched to pass and to count,
    # so a degree-256 polynomial parses without its slow irreducibility test
    tested = []
    monkeypatch.setattr(F2Poly, "is_irreducible", lambda f: tested.append(f.degree()) or True)
    limit = tubes.MAX_MEMBER_RANK // 4
    assert limit == 256
    at, over = F2Poly.from_string(f"t^{limit}+t+1"), F2Poly.from_string(f"t^{limit + 1}+t+1")
    assert TubeId.homogeneous(at).poly == at
    assert s3_on_polynomial(at, "t2").degree() == limit
    assert tested == [limit, limit]
    message = f"a tube of degree {limit + 1} has members of rank over the limit of {tubes.MAX_MEMBER_RANK}"
    with pytest.raises(ValueError, match=message):
        TubeId.homogeneous(over)
    with pytest.raises(ValueError, match=message):
        s3_on_polynomial(over, "t2")
    assert tested == [limit, limit]
