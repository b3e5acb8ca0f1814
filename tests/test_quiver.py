import os
import random
import subprocess
import sys

import pytest

import kleinlat

from kleinlat.f2 import F2Matrix, is_invertible, solve as f2_solve
from kleinlat.klein import SIGN_KEYS, DimVector, dim_vector, sharp
from kleinlat.polys import F2Poly
from kleinlat.quiver import (
    NON_REGULAR,
    _span_elements,
    LambdaRep,
    RepMorphism,
    TubeId,
    TubeLabel,
    decompose,
    hom_reps,
    identify_tube,
    in_category_R,
    is_morphism,
    lattice_of,
    lattice_of_model,
    lift_morphism,
    phi,
    phi_data,
    random_rep_in_R,
    reps_isomorphic,
    special_tube_rep,
    tube_rep,
)

F = F2Poly.from_string("t^2+t+1")
G3 = F2Poly.from_string("t^3+t+1")


def test_in_category_R():
    V = LambdaRep(
        DimVector(1, 1, 0, 0, 0),
        {
            "pp": F2Matrix([[1]]),
            "pm": F2Matrix([], cols=1),
            "mp": F2Matrix([], cols=1),
            "mm": F2Matrix([], cols=1),
        },
    )
    assert in_category_R(V)
    W = LambdaRep(
        DimVector(1, 0, 0, 0, 0),
        {k: F2Matrix([], cols=1) for k in ("pp", "pm", "mp", "mm")},
    )
    assert not in_category_R(W)
    assert in_category_R(tube_rep(F, 1))


def test_lattice_of_examples():
    V = LambdaRep(
        DimVector(1, 1, 0, 0, 0),
        {
            "pp": F2Matrix([[1]]),
            "pm": F2Matrix([], cols=1),
            "mp": F2Matrix([], cols=1),
            "mm": F2Matrix([], cols=1),
        },
    )
    M = lattice_of(V)
    assert M.rank == 1
    assert M.act_a.data == ((1,),) and M.act_b.data == ((1,),)
    # index of the tube lattice in its ambient is 2^(d_plus - d_dot)
    model = lattice_of_model(tube_rep(F, 1))
    from kleinlat.intmat import determinant

    assert abs(determinant(model.basis)) == 2 ** (8 - 4)
    with pytest.raises(ValueError):
        lattice_of(
            LambdaRep(
                DimVector(1, 0, 0, 0, 0),
                {k: F2Matrix([], cols=1) for k in ("pp", "pm", "mp", "mm")},
            )
        )


def test_phi_round_trip_random():
    rng = random.Random(0)
    for trial in range(60):
        V = random_rep_in_R(rng, 4)
        M = lattice_of(V)
        W = phi(M)
        assert dim_vector(M).as_tuple() == V.dims.as_tuple()
        pv, pw = decompose(V, seed=trial), decompose(W, seed=trial)
        assert len(pv) == len(pw)
        for Vp, mv in pv:
            assert any(
                mv == mw and reps_isomorphic(Vp, Wp) is not None for Wp, mw in pw
            )


def test_hom_reps_dimensions():
    V = phi(lattice_of(special_tube_rep("1", 1, 1)))
    assert len(hom_reps(V, V)) == 1
    W = phi(lattice_of(tube_rep(F, 1)))
    assert len(hom_reps(W, W)) == 2  # k[t]/(f) has dimension 2 over GF(2)
    # distinct homogeneous tubes see nothing of each other
    U = phi(lattice_of(tube_rep(G3, 1)))
    assert len(hom_reps(W, U)) == 0
    zero = LambdaRep(
        DimVector(0, 0, 0, 0, 0),
        {k: F2Matrix([], cols=0) for k in ("pp", "pm", "mp", "mm")},
    )
    assert all(h.is_zero() for h in hom_reps(V, zero))


def _reduce_morphism(psi, M, N):
    """The induced morphism phi(M) -> phi(N) of an integer K-map: the
    reference that lift_morphism inverts."""
    dM, dN = phi_data(M), phi_data(N)
    # centre component: classes of psi(u_k) in N / 2 N^#, solving
    # [u_1 ... u_d | basis of 2N^#] x = psi(u_k) over GF(2)
    gens = list(dN.u_vectors) + list(dN.two_msharp.basis)
    span = F2Matrix(gens, cols=N.rank).transpose()
    cols = []
    for u in dM.u_vectors:
        sol = f2_solve(span, psi.apply(u))
        assert sol is not None, "vector outside the span of N / 2 N^#"
        cols.append(sol[: len(dN.u_vectors)])
    phi_dot = F2Matrix(cols, cols=dN.rep.dims.d_dot).transpose()
    maps = {}
    num, den = dN.sharp.denom, dM.sharp.denom
    for idx, key in enumerate(SIGN_KEYS):
        compN = dN.sharp.components[idx]
        cols = []
        for w in dM.sharp.components[idx].basis:
            x = psi.apply(w)
            if num % den == 0:
                x = tuple(v * (num // den) for v in x)
            else:
                assert all(v % (den // num) == 0 for v in x), "image not divisible by the scale"
                x = tuple(v // (den // num) for v in x)
            c = compN.coords(x)
            assert c is not None, "image not in the target's sharp component"
            cols.append(c)
        maps[key] = F2Matrix(cols, cols=compN.rank()).transpose()
    return RepMorphism(phi_dot, maps)


def test_lift_and_reduce_functorial():
    M = lattice_of(special_tube_rep("1", 1, 2))
    N = lattice_of(special_tube_rep("1", 2, 1))
    dM, dN = phi_data(M), phi_data(N)
    for h in hom_reps(dM.rep, dN.rep):
        psi = lift_morphism(h, M, N)
        back = _reduce_morphism(psi, M, N)
        assert back.phi_dot == h.phi_dot
        assert all(back.phi[k] == h.phi[k] for k in ("pp", "pm", "mp", "mm"))
    ident = RepMorphism.identity(dM.rep)
    psi = lift_morphism(ident, M, M)
    assert _reduce_morphism(psi, M, M).phi_dot == ident.phi_dot
    # a zero morphism lifts into twice the sharp overlattice
    zero = RepMorphism.zero(dM.rep, dN.rep)
    psi0 = lift_morphism(zero, M, N)
    from kleinlat.klein import two_msharp_in_m

    L = two_msharp_in_m(N)
    for j in range(M.rank):
        assert L.coords(psi0.col(j)) is not None


def test_incompatible_morphism_rejected():
    # M has components (1,1,0,0), N has (0,0,1,1); a nonzero centre map
    # cannot intertwine with the forced zero component maps
    M = lattice_of(special_tube_rep("1", 1, 1))
    N = lattice_of(special_tube_rep("1", 2, 1))
    bad = RepMorphism(
        F2Matrix([[1]]),
        {
            "pp": F2Matrix([], cols=1),
            "pm": F2Matrix([], cols=1),
            "mp": F2Matrix([[]]),
            "mm": F2Matrix([[]]),
        },
    )
    with pytest.raises(ValueError):
        lift_morphism(bad, M, N)


def test_decompose_multiplicities_and_gluing():
    V1 = special_tube_rep("1", 1, 1)
    V2 = special_tube_rep("1", 2, 1)
    parts = decompose(V1.direct_sum(V2))
    assert sorted(p.dims.as_tuple() for p, _ in parts) == [
        (1, 0, 0, 1, 1),
        (1, 1, 1, 0, 0),
    ]
    parts = decompose(V1.direct_sum(V1))
    assert len(parts) == 1 and parts[0][1] == 2
    # random gluing: conjugate a direct sum and recover the same summands
    rng = random.Random(1)
    from kleinlat.f2 import is_invertible

    W = V1.direct_sum(tube_rep(F, 1))
    dd = W.dims.d_dot
    while True:
        g = F2Matrix([[rng.randint(0, 1) for _ in range(dd)] for _ in range(dd)])
        if is_invertible(g):
            break
    glued = LambdaRep(W.dims, {k: W.f[k] * g for k in ("pp", "pm", "mp", "mm")})
    pa = decompose(W)
    pb = decompose(glued)
    assert len(pa) == len(pb)
    for Vp, mv in pa:
        assert any(mv == mw and reps_isomorphic(Vp, Wp) is not None for Wp, mw in pb)


def test_identify_tube_sweep():
    for lam in ("0", "1", "inf"):
        for j in (1, 2):
            for n in range(1, 7):
                lab = identify_tube(special_tube_rep(lam, j, n))
                assert (lab.tube.lam, lab.j, lab.m) == (lam, j, n)
    for f, m in ((F, 1), (F, 2), (G3, 1), (G3, 2)):
        lab = identify_tube(tube_rep(f, m))
        assert lab.tube.kind == "hom" and lab.tube.poly == f and lab.m == m
    assert identify_tube(phi(lattice_of(special_tube_rep("0", 2, 3)))) == TubeLabel(
        TubeId.special("0"), 2, 3
    )
    # non-regular marker
    V = LambdaRep(
        DimVector(1, 1, 0, 0, 0),
        {
            "pp": F2Matrix([[1]]),
            "pm": F2Matrix([], cols=1),
            "mp": F2Matrix([], cols=1),
            "mm": F2Matrix([], cols=1),
        },
    )
    assert identify_tube(V) == NON_REGULAR


def _rebased(V, rng):
    """V after a random change of basis at every vertex."""

    def invertible(n):
        while True:
            g = F2Matrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)], cols=n)
            if is_invertible(g):
                return g

    g = invertible(V.dims.d_dot)
    return LambdaRep(V.dims, {k: invertible(V.f[k].rows) * V.f[k] * g for k in V.f})


def test_identify_tube_names_basis_changed_members():
    # even special members by their one degenerate pair of arms, homogeneous
    # ones (no degenerate pair) by the pencil; neither reads an isomorphism
    rng = random.Random(5)
    for lam in ("0", "1", "inf"):
        for j in (1, 2):
            for n in (2, 4, 6, 8):
                want = TubeLabel(TubeId.special(lam), j, n)
                for _ in range(3):
                    assert identify_tube(_rebased(special_tube_rep(lam, j, n), rng)) == want
    for f, m in ((F, 1), (F, 2), (F, 4), (G3, 1), (G3, 2), (F2Poly.from_string("t^4+t+1"), 2)):
        for _ in range(3):
            assert identify_tube(_rebased(tube_rep(f, m), rng)) == TubeLabel(
                TubeId.homogeneous(f), None, m
            )


def test_identify_tube_rejects_a_decomposable_special_pattern():
    S = special_tube_rep("0", 1, 2)
    for V in (S.direct_sum(S), tube_rep(F, 1).direct_sum(S)):
        with pytest.raises(ValueError, match="not an indecomposable member"):
            identify_tube(V)


def test_every_special_member_up_to_length_nine_is_indecomposable():
    # a real-root dimension vector of a tame quiver has exactly one
    # indecomposable, and the normal form must be it
    for lam in ("0", "1", "inf"):
        for j in (1, 2):
            for n in range(1, 10):
                parts = decompose(special_tube_rep(lam, j, n))
                assert [mult for _W, mult in parts] == [1], (lam, j, n)
                assert parts[0][0].dims == special_tube_rep(lam, j, n).dims, (lam, j, n)


def test_identify_tube_rejects_every_decomposable_sum():
    rng = random.Random(7)
    # odd special: the dimension pattern of T[1,1]_3 and T[inf,1]_5
    for a, b in ((("1", 1, 1), ("1", 1, 2)), (("inf", 1, 1), ("inf", 1, 4))):
        V = special_tube_rep(*a).direct_sum(special_tube_rep(*b))
        for W in (V, _rebased(V, rng)):
            with pytest.raises(ValueError, match="not an indecomposable member"):
                identify_tube(W)
    # homogeneous: the pencil of T[f]_e, one block per summand
    for f in (F, G3):
        for a, b in ((1, 1), (1, 2), (2, 2), (1, 3)):
            V = tube_rep(f, a).direct_sum(tube_rep(f, b))
            for W in (V, _rebased(V, rng)):
                with pytest.raises(ValueError, match="not indecomposable"):
                    identify_tube(W)
    # the members themselves still pass, whatever their basis
    for lam in ("0", "1", "inf"):
        for j in (1, 2):
            for n in (3, 5, 7):
                V = _rebased(special_tube_rep(lam, j, n), rng)
                assert identify_tube(V) == TubeLabel(TubeId.special(lam), j, n)
    for f, m in ((F, 3), (G3, 3)):
        assert identify_tube(_rebased(tube_rep(f, m), rng)) == TubeLabel(TubeId.homogeneous(f), None, m)


def _quasi_simple_sum(polys=("t^2+t+1", "t^3+t+1", "t^3+t^2+1")):
    """The six special quasi-simples, then the homogeneous ones of polys."""
    parts = [special_tube_rep(lam, j, 1) for lam in ("0", "1", "inf") for j in (1, 2)]
    parts += [tube_rep(F2Poly.from_string(f), 1) for f in polys]
    return parts


def _direct_sum(parts):
    out = parts[0]
    for V in parts[1:]:
        out = out.direct_sum(V)
    return out


def test_reps_isomorphic_on_quasi_simple_sums_against_their_reverses():
    # dim Hom = 4, 5, 6, 8, 11, 14: the exhaustive span up to k = 8, then
    # Krull-Schmidt; End of the k = 9 sum has few units, which draws missed
    parts = _quasi_simple_sum()
    for k in range(4, 10):
        V, W = _direct_sum(parts[:k]), _direct_sum(parts[:k][::-1])
        for seed in range(10):
            iso = reps_isomorphic(V, W, seed)
            assert iso is not None and is_morphism(iso, V, W) and iso.is_invertible(), (k, seed)


def test_reps_isomorphic_tells_two_homogeneous_tubes_apart():
    # the same dimension vector and dim Hom = 14, but T[t^3+t+1]_1 is not
    # a summand of W
    V = _direct_sum(_quasi_simple_sum())
    W = _direct_sum(_quasi_simple_sum(("t^2+t+1", "t^3+t^2+1", "t^3+t^2+1"))[::-1])
    assert V.dims == W.dims and len(hom_reps(V, W)) == 14
    assert reps_isomorphic(V, W) is None
    # decompose groups the two copies of T[t^3+t^2+1]_1 in W
    assert sorted(mult for _W, mult in decompose(W)) == [1] * 7 + [2]


def test_reps_isomorphic_finds_an_indecomposable_with_a_large_end_ring():
    # one piece on each side: dim End T[t^3+t+1]_5 = 15 is above the
    # exhaustive limit, and the scan of a hom basis still finds the map
    V = tube_rep(G3, 5)
    W = _rebased(V, random.Random(2))
    assert len(hom_reps(V, W)) == 15
    iso = reps_isomorphic(V, W)
    assert iso is not None and is_morphism(iso, V, W) and iso.is_invertible()


def test_tube_id_validation():
    with pytest.raises(ValueError):
        TubeId.homogeneous(F2Poly.from_string("t+1"))
    with pytest.raises(ValueError):
        TubeId.homogeneous(F2Poly.from_string("t^2+1"))  # reducible
    with pytest.raises(ValueError):
        TubeId.special("2")


def _end_basis():
    """A real hom basis with 16 elements: End of four copies of a quasi-simple."""
    S = special_tube_rep("1", 1, 1)
    V = S.direct_sum(S).direct_sum(S).direct_sum(S)
    basis = hom_reps(V, V)
    assert len(basis) == 16
    return basis


def _fallback_reference(basis, tries, seed):
    """The random fallback as each search once wrote it out inline."""
    out = list(basis)
    rng = random.Random(seed)
    for _ in range(tries):
        e = None
        for c in basis:
            if rng.random() < 0.5:
                e = c if e is None else e.add(c)
        if e is not None:
            out.append(e)
    return out


def test_span_elements_exhaustive_in_mask_order():
    full = _end_basis()
    for n in range(9):
        basis = full[:n]
        want = []
        for mask in range(1, 1 << n):
            e = None
            for t in range(n):
                if (mask >> t) & 1:
                    e = basis[t] if e is None else e.add(basis[t])
            want.append(e)
        # n == exhaustive_bits is still exhaustive; seed and tries are unread
        assert list(_span_elements(basis, n, tries=64, seed=3)) == want
        assert list(_span_elements(basis, 12)) == want


def test_span_elements_fallback_matches_the_inline_loop():
    full = _end_basis()
    for n in (13, 14):
        basis = full[:n]
        for seed in range(5):
            for bits, tries in ((12, 64), (12, 256), (9, 512)):
                got = list(_span_elements(basis, bits, tries=tries, seed=seed))
                assert got == _fallback_reference(basis, tries, seed)
    # one past the limit leaves the exhaustive order for the seeded draws
    assert list(_span_elements(full[:10], 9, tries=5, seed=0)) == _fallback_reference(full[:10], 5, 0)


def test_phi_data_and_sharp_are_kept_on_the_lattice():
    M = lattice_of(tube_rep(F2Poly.from_string("t^2+t+1"), 2))
    assert phi_data(M) is phi_data(M) and sharp(M) is sharp(M)
    assert phi_data(M).sharp is sharp(M)


def test_failed_check_raises_under_python_O():
    # the checks in quiver are not asserts, so python -O keeps them
    code = (
        "from kleinlat.polys import F2Poly\n"
        "from kleinlat.quiver import _restrict, tube_rep\n"
        "V = tube_rep(F2Poly.from_string('t^2+t+1'), 1)\n"
        "_restrict(V, {'dot': [1], 'pp': [], 'pm': [], 'mp': [], 'mm': []})\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(kleinlat.__file__)))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 1
    assert "VerificationError: subspaces not compatible with the maps" in out.stderr
