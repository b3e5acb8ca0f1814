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
    frobenius_matrix,
    hom_cross_tube_check,
    hom_klattices,
    is_regular,
    s3_on_polynomial,
    s3_on_tube,
    syzygy,
    transport_label,
    tube_module,
    tube_module_from_label,
)

F = F2Poly.from_string("t^2+t+1")
G3 = F2Poly.from_string("t^3+t+1")


def test_frobenius_examples():
    assert frobenius_matrix(F2Poly.from_string("t+1"), 1).data == ((1,),)
    assert frobenius_matrix(F, 1).data == ((0, 1), (1, 1))
    assert frobenius_matrix(F2Poly.from_string("t+1"), 2).data == ((0, 1), (1, 0))


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
    assert [c.rank() for c in T.chain] == [16, 8, 0]
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


def test_end_ring_checks():
    assert end_ring_check(tube_module(TubeId.homogeneous(F), None, 1, with_chain=False))
    assert end_ring_check(tube_module(TubeId.special("1"), 1, 1, with_chain=False))
    assert end_ring_check(tube_module(TubeId.special("1"), 1, 2, with_chain=False))
    # independence of the integer lift
    T = tube_module(TubeId.homogeneous(F), None, 2, with_chain=False)
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
    from kleinlat.klein import sign_lattice

    assert not is_regular(sign_lattice("+", "+"))


def test_failed_check_raises_under_python_O():
    # the checks in tubes are not asserts, so python -O keeps them; a radical
    # outside its tube stops the chain the annihilators are built from
    code = (
        "import kleinlat.tubes as tubes\n"
        "from kleinlat.quiver import NON_REGULAR, TubeId\n"
        "tubes.identify_tube = lambda W: NON_REGULAR\n"
        "tubes.tube_module(TubeId.special('1'), 1, 2)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(kleinlat.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 1
    assert "VerificationError: the radical of T[1,1]_2 left its tube" in out.stderr
