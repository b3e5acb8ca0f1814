import os
import random
import subprocess
import sys

import pytest

import kleinlat
from kleinlat.intmat import IntMatrix
from kleinlat.klein import (
    A,
    B,
    C,
    E,
    GROUP,
    KLattice,
    SignPair,
    diagonal_sign_lattice,
    dim_vector,
    eigencomponent,
    invariant_sublattice_module,
    is_A_lattice,
    regular_representation,
    sharp,
    trivial_lattice,
)
from kleinlat.lattices import ZLattice, finite_quotient, hnf
from kleinlat.quiver import lattice_of, special_tube_rep, tube_rep
from kleinlat.polys import F2Poly

# the rank-1 module Z_{++}
PLUS_PLUS = diagonal_sign_lattice((1, 0, 0, 0))


def test_group_law():
    assert A * B == C
    assert A * A == E
    names = sorted(g.name() for g in GROUP)
    assert names == ["1", "a", "b", "c"]


def test_klattice_validation():
    with pytest.raises(ValueError):
        KLattice(IntMatrix([[2]]), IntMatrix([[1]]))
    M = regular_representation()
    assert M.rank == 4
    assert not is_A_lattice(M)


def test_eigencomponents_trivial():
    M = trivial_lattice(1)
    assert eigencomponent(M, SignPair("+", "+")) == ZLattice.full(1)
    assert eigencomponent(M, SignPair("-", "+")).rank() == 0
    D = diagonal_sign_lattice((1, 0, 0, 1))
    comp = eigencomponent(D, SignPair("-", "-"))
    assert comp.basis == ((0, 1),)


def test_sharp_of_regular_representation():
    R = regular_representation()
    sh = sharp(R)
    assert sh.denom == 4
    assert sum(c.rank() for c in sh.components) == 4


def test_dim_vectors():
    assert dim_vector(PLUS_PLUS).as_tuple() == (1, 1, 0, 0, 0)
    f = F2Poly.from_string("t^2+t+1")
    M = lattice_of(tube_rep(f, 1))
    assert dim_vector(M).as_tuple() == (4, 2, 2, 2, 2)
    T113 = lattice_of(special_tube_rep("1", 1, 3))
    assert dim_vector(T113).as_tuple() == (3, 2, 2, 1, 1)
    with pytest.raises(ValueError):
        dim_vector(regular_representation())


def test_sharp_index_of_tube():
    M = lattice_of(special_tube_rep("1", 1, 1))
    sh = sharp(M)
    assert sh.denom == 2
    # index of M in M^# is 2^(d_plus - d_dot) = 2
    scaled_m = hnf([[sh.denom * int(i == j) for j in range(M.rank)] for i in range(M.rank)])
    assert finite_quotient(sh.msharp, scaled_m).invariants == (2,)


def test_is_A_lattice_and_tube_membership():
    # tube members satisfy the dimension criterion 2 d_dot = d_plus
    assert is_A_lattice(PLUS_PLUS)
    dv = dim_vector(PLUS_PLUS)
    assert 2 * dv.d_dot != dv.d_plus
    M = lattice_of(special_tube_rep("1", 1, 1))
    assert is_A_lattice(M)
    dv = dim_vector(M)
    assert 2 * dv.d_dot == dv.d_plus


def test_rank_additivity_of_sharp():
    rng = random.Random(0)
    from kleinlat.quiver import random_rep_in_R

    for _ in range(20):
        M = lattice_of(random_rep_in_R(rng, 3))
        sh = sharp(M)
        assert sum(c.rank() for c in sh.components) == M.rank
        dv = dim_vector(M)
        assert dv.d_plus == M.rank
        # 2M <= 2M^# <= M
        from kleinlat.klein import two_msharp_in_m

        L = two_msharp_in_m(M, sh)
        assert L is not None
        two_m = hnf([[2 * int(i == j) for j in range(M.rank)] for i in range(M.rank)])
        assert all(list(r) in L for r in two_m.basis)


def test_eigencomponent_inside_sharp_component():
    rng = random.Random(6)
    from kleinlat.quiver import random_rep_in_R
    from kleinlat.klein import SIGN_KEYS

    for _ in range(15):
        M = lattice_of(random_rep_in_R(rng, 3))
        sh = sharp(M)
        for i, key in enumerate(SIGN_KEYS):
            eig = eigencomponent(M, SignPair.from_key(key))
            comp = sh.components[i]
            for row in eig.basis:
                assert comp.coords([sh.denom * x for x in row]) is not None


def test_invariant_sublattice_module():
    M = diagonal_sign_lattice((1, 1, 0, 0))
    S = hnf([[1, 0]], 2)
    sub, quot, embed, project = invariant_sublattice_module(M, S)
    assert sub.rank == 1 and quot.rank == 1
    assert embed.cols == 1 and project.rows == 1
    with pytest.raises(ValueError):
        invariant_sublattice_module(M, hnf([[2, 0]], 2))


def test_failed_check_raises_under_python_O():
    # the checks in klein are not asserts, so python -O keeps them; M/2M#
    # with an element of order 4 stops dim_vector
    code = (
        "from types import SimpleNamespace\n"
        "import kleinlat.klein as klein\n"
        "klein.finite_quotient = lambda K, L: SimpleNamespace(invariants=(4,))\n"
        "klein.dim_vector(klein.diagonal_sign_lattice((1, 0, 0, 0)))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(kleinlat.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 1
    assert "VerificationError: M/2M# is not elementary abelian: (4,)" in out.stderr
