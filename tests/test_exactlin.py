import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import kleinlat
from kleinlat import lattices
from kleinlat.checks import VerificationError
from kleinlat.cohomology import Cochain, CohomologyGroup, verify_xi_iso
from kleinlat.colattices import verify_eta_iso
from kleinlat.intmat import (
    IntMatrix,
    determinant,
    inverse_unimodular,
    kernel_basis,
    smith_form,
    solve_int,
)
from kleinlat.f2 import F2Matrix, inverse, is_invertible, nullspace, rank, rref, solve
from kleinlat.lattices import (
    ZLattice,
    _hnf_rows,
    finite_quotient,
    hnf,
    kernel_mod,
    lift_invertible,
    pow2_quotient,
)
from kleinlat.tubes import sweep_labels, tube_module_from_label


small_matrices = st.integers(1, 5).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-9, 9), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_smith_form_properties(rows):
    A = IntMatrix(rows)
    sf = smith_form(A)
    assert sf.U * A * sf.V == sf.D
    assert abs(determinant(sf.U)) == 1
    assert abs(determinant(sf.V)) == 1
    diag = sf.diagonal()
    for i in range(len(diag) - 1):
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    assert all(d >= 0 for d in diag)
    # off-diagonal zero
    for i in range(sf.D.rows):
        for j in range(sf.D.cols):
            if i != j:
                assert sf.D.data[i][j] == 0


def test_smith_examples():
    assert smith_form(IntMatrix.identity(3)).D == IntMatrix.identity(3)
    assert smith_form(IntMatrix.zero(2, 2)).D == IntMatrix.zero(2, 2)
    sf = smith_form(IntMatrix([[2, 4], [6, 8]]))
    assert sf.diagonal() == (2, 4)


def test_smith_deterministic():
    A = IntMatrix([[2, 4, 1], [6, 8, 0], [3, 3, 3]])
    assert smith_form(A) == smith_form(A)


def test_hnf_examples():
    assert hnf([[1, 0], [0, 1], [1, 1]]).basis == ((1, 0), (0, 1))
    assert hnf([[2, 0], [0, 2], [1, 1]]).basis == ((1, 1), (0, 2))
    assert hnf([], 3).basis == ()


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                min_size=0,
                max_size=6,
            ),
        )
    ),
    st.randoms(use_true_random=False),
)
def test_hnf_idempotent_and_mixing_invariant(data, rng):
    n, rows = data
    L = hnf(rows, n)
    assert hnf([list(r) for r in L.basis], n) == L
    if rows:
        mixed = [list(r) for r in rows]
        for _ in range(5):
            i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
            if i != j:
                c = rng.randint(-2, 2)
                mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
        assert hnf(mixed, n) == L


def test_hnf_checks_row_lengths():
    for bad in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError, match="row length"):
            hnf([[1, 0, 0], bad], 3)


def _scalar_rows(n, q):
    """The rows q e_i of Z^n."""
    return [[q if i == j else 0 for j in range(n)] for i in range(n)]


def test_lattice_ops_examples():
    full = ZLattice.full(2)
    two = hnf(_scalar_rows(2, 2))
    assert finite_quotient(full, two).invariants == (2, 2)
    assert finite_quotient(full, full).invariants == ()
    L = hnf([[1, 1], [0, 2]])
    assert finite_quotient(L, two).invariants == (2,)
    # coset-count oracle: members of L modulo 2Z^2, found by enumeration
    reps = set()
    for a in range(-4, 5):
        for b in range(-4, 5):
            if (a, b) in L:
                reps.add((a % 2, b % 2))
    assert len(reps) == 2


def test_membership_and_sum_intersection():
    L1 = hnf([[2, 0], [0, 3]])
    L2 = hnf([[3, 0], [0, 2]])
    s = hnf(L1.basis + L2.basis)
    assert s == ZLattice.full(2)
    assert (2, 3) in L1 and (2, 2) not in L1
    with pytest.raises(ValueError):
        finite_quotient(ZLattice.full(2), hnf([[1, 1, 1]], 3))


def test_not_a_sublattice_error():
    L1 = hnf([[2, 0], [0, 2]])
    with pytest.raises(ValueError):
        finite_quotient(L1, ZLattice.full(2))


def _saturation(L):
    """Smallest saturated (pure in Z^n) lattice containing L: the vectors
    orthogonal to every vector orthogonal to L."""
    if not L.basis:
        return L
    ker = kernel_basis(L.basis_matrix())
    if not ker:
        return ZLattice.full(L.ambient_rank)
    return hnf([list(v) for v in kernel_basis(IntMatrix(ker, cols=L.ambient_rank))],
               L.ambient_rank)


def test_saturation():
    L = hnf([[2, 0], [0, 4]])
    assert _saturation(L) == ZLattice.full(2)
    L2 = hnf([[2, 4]])
    assert _saturation(L2) == hnf([[1, 2]])


def test_lift_invertible_examples_and_random():
    ident = F2Matrix.identity(3)
    assert lift_invertible(ident) == IntMatrix.identity(3)
    M = lift_invertible(F2Matrix([[0, 1], [1, 0]]))
    assert abs(determinant(M)) == 1
    assert F2Matrix.from_int(M) == F2Matrix([[0, 1], [1, 0]])
    assert lift_invertible(F2Matrix([[1, 1], [0, 1]])) == IntMatrix([[1, 1], [0, 1]])
    rng = random.Random(0)
    for _ in range(1000):
        n = rng.randint(1, 8)
        while True:
            Ab = F2Matrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])
            if is_invertible(Ab):
                break
        M = lift_invertible(Ab)
        assert abs(determinant(M)) == 1
        assert F2Matrix.from_int(M) == Ab
    with pytest.raises(ValueError):
        lift_invertible(F2Matrix([[1, 1], [1, 1]]))


def test_failed_lift_check_raises_under_python_O():
    # the checks in lattices are not asserts, so python -O keeps them; a
    # wrong unimodular inverse makes a lift that does not reduce to its input
    code = (
        "import kleinlat.lattices as lattices\n"
        "from kleinlat.f2 import F2Matrix\n"
        "from kleinlat.intmat import IntMatrix\n"
        "lattices.inverse_unimodular = lambda A: IntMatrix.identity(A.rows)\n"
        "lattices.lift_invertible(F2Matrix([[0, 1], [1, 0]]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(kleinlat.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 1
    assert "VerificationError: the unimodular lift does not reduce to the input" in out.stderr


def test_inverse_unimodular():
    rng = random.Random(10)
    for n in range(6):
        for _ in range(20):
            A = IntMatrix.identity(n)
            for _ in range(3 * n):
                i, j = rng.randrange(n), rng.randrange(n)
                E = [[int(a == b) for b in range(n)] for a in range(n)]
                if i == j:
                    E[i][i] = -1
                else:
                    E[i][j] = rng.randint(-3, 3)
                A = A * IntMatrix(E, cols=n)
            B = inverse_unimodular(A)
            assert (A * B).is_identity() and (B * A).is_identity()
    for bad in ([[2]], [[0]], [[1, 1], [1, 1]], [[1, 2], [3, 4]], [[1, 0, 0], [0, 1, 0], [0, 0, 3]]):
        with pytest.raises(ValueError, match="not unimodular"):
            inverse_unimodular(IntMatrix(bad))
    with pytest.raises(ValueError, match="not square"):
        inverse_unimodular(IntMatrix([[1, 0]]))


def test_kernel_basis_is_saturated():
    rng = random.Random(2)
    for _ in range(50):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        A = IntMatrix([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        ker = kernel_basis(A)
        for v in ker:
            assert all(x == 0 for x in A.apply(v))
        L = hnf([list(v) for v in ker], cols)
        assert _saturation(L) == L


def test_solve_int():
    A = IntMatrix([[2, 0], [0, 3]])
    assert solve_int(A, [4, 9]) == (2, 3)
    assert solve_int(A, [1, 0]) is None


def test_f2_basics():
    A = F2Matrix([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert rank(A) == 2
    ns = nullspace(A)
    assert len(ns) == 1
    assert A.apply(ns[0]) == (0, 0, 0)
    x = solve(A, (1, 1, 0))
    assert x is not None and A.apply(x) == (1, 1, 0)
    B = F2Matrix([[1, 1], [0, 1]])
    assert inverse(B) * B == F2Matrix.identity(2)


def test_f2_solve_and_apply_check_lengths():
    with pytest.raises(ValueError):
        solve(F2Matrix([], cols=2), [1])
    with pytest.raises(ValueError):
        solve(F2Matrix([[1, 0], [0, 1]]), [1])
    with pytest.raises(ValueError):
        solve(F2Matrix([[1, 0]]), [1, 0])
    with pytest.raises(ValueError):
        F2Matrix([[1, 0]]).apply([1])
    assert solve(F2Matrix([], cols=2), []) == (0, 0)


# Reference implementations: the dense list-of-lists elimination that F2Matrix
# used before its rows were packed into ints.


def _dense_rref(rows, cols):
    m = [[x & 1 for x in r] for r in rows]
    pivots = []
    r = 0
    for j in range(cols):
        if r >= len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][j]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        for i in range(len(m)):
            if i != r and m[i][j]:
                m[i] = [a ^ b for a, b in zip(m[i], m[r])]
        pivots.append(j)
        r += 1
    return m, pivots


def _dense_nullspace(rows, cols):
    R, pivots = _dense_rref(rows, cols)
    basis = []
    for j in range(cols):
        if j in pivots:
            continue
        vec = [0] * cols
        vec[j] = 1
        for r, pj in enumerate(pivots):
            vec[pj] = R[r][j]
        basis.append(tuple(vec))
    return basis


def _dense_solve(rows, cols, b):
    R, pivots = _dense_rref([list(r) + [v] for r, v in zip(rows, b)], cols + 1)
    if cols in pivots:
        return None
    x = [0] * cols
    for r, pj in enumerate(pivots):
        x[pj] = R[r][cols]
    return tuple(x)


def _dense_inverse(rows, n):
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    R, pivots = _dense_rref([list(r) + e for r, e in zip(rows, ident)], 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(r[n:]) for r in R)


def _dense_mul(a, b, cols):
    return tuple(
        tuple(sum(x & y for x, y in zip(r, (c[j] for c in b))) & 1 for j in range(cols))
        for r in a
    )


# widths around the 64-bit word size; entries of any sign and size, reduced mod 2
_f2_entries = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))


@st.composite
def _f2_cases(draw):
    """An n x m matrix, a right-hand side, a vector and an m x k matrix."""
    n = draw(st.integers(0, 6))
    m = draw(st.sampled_from([0, 1, 2, 3, 5, 63, 64, 65, 70]))
    k = draw(st.sampled_from([0, 1, 4, 66]))

    def vec(c):
        return st.lists(_f2_entries, min_size=c, max_size=c)

    def mat(r, c):
        return st.lists(vec(c), min_size=r, max_size=r)

    return draw(mat(n, m)), m, draw(vec(n)), draw(vec(m)), draw(mat(m, k)), k


@settings(max_examples=150, deadline=None)
@given(_f2_cases())
@example(([], 70, [], [1] * 70, [[1]] * 70, 1))  # 0 x n
@example(([[], [], []], 0, [1, 0, -1], [], [], 4))  # n x 0
@example(([[3, -(2**70)] * 33] * 2, 66, [5, 2**65], [-1] * 66, [[1, 0]] * 66, 2))
def test_packed_f2_matches_the_dense_reference(case):
    rows, cols, b, x, other, k = case
    dense = tuple(tuple(x & 1 for x in r) for r in rows)
    A = F2Matrix(rows, cols=cols)
    assert (A.rows, A.cols, A.data) == (len(rows), cols, dense)
    again = F2Matrix(A.data, cols=cols)
    assert again == A and hash(again) == hash(A)
    assert A.transpose().data == tuple(tuple(r[j] for r in dense) for j in range(cols))
    assert A.is_zero() == (not any(map(any, dense)))

    R, pivots = rref(A)
    R_ref, pivots_ref = _dense_rref(rows, cols)
    assert pivots == pivots_ref and R.data == tuple(map(tuple, R_ref))
    assert rank(A) == len(pivots_ref)
    assert nullspace(A) == _dense_nullspace(rows, cols)
    assert solve(A, b) == _dense_solve(rows, cols, b)
    assert A.apply(x) == tuple(sum(a & v for a, v in zip(r, x)) & 1 for r in dense)

    B = F2Matrix(other, cols=k)
    assert (A * B).data == _dense_mul(dense, B.data, k)
    assert A.hstack(F2Matrix.zero(A.rows, k)).data == tuple(r + (0,) * k for r in dense)
    assert (A + A).is_zero() and A.vstack(A).data == dense + dense

    n = min(len(rows), cols)
    square = [r[:n] for r in rows[:n]]
    want = _dense_inverse(square, n)
    S = F2Matrix(square, cols=n)
    assert is_invertible(S) == (want is not None)
    if want is None:
        with pytest.raises(ValueError):
            inverse(S)
    else:
        assert inverse(S).data == want


def test_mod_2k_machinery():
    rng = random.Random(3)
    for _ in range(40):
        k = rng.randint(1, 4)
        q = 1 << k
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        A = IntMatrix([[rng.randint(0, q - 1) for _ in range(cols)] for _ in range(rows)])
        ker = kernel_mod(A, q)
        for row in ker.basis:
            assert all(x % q == 0 for x in A.apply(row))
        # kernel is complete: every random solution lies inside
        for _ in range(10):
            x = [rng.randint(0, q - 1) for _ in range(cols)]
            if all(v % q == 0 for v in A.apply(x)):
                assert ker.coords(x) is not None


def test_kernel_mod_takes_only_powers_of_two():
    A = IntMatrix([[1, 2], [3, 4]])
    assert kernel_mod(A, 1) == ZLattice.full(2)
    with pytest.raises(VerificationError, match="power of two"):
        kernel_mod(A, 6)


def test_pow2_quotient_against_finite_quotient():
    rng = random.Random(4)
    for _ in range(40):
        s = rng.randint(1, 4)
        k = rng.randint(1, 3)
        gens = [[rng.randint(0, 7) for _ in range(s)] for _ in range(rng.randint(0, 4))]
        C = IntMatrix(gens, cols=s) if gens else IntMatrix.zero(0, s)
        pq = pow2_quotient(C, s, k)
        L = hnf(_scalar_rows(s, 1 << k) + gens, s)
        fq = finite_quotient(ZLattice.full(s), L)
        assert tuple(sorted(pq.invariants)) == tuple(sorted(fq.invariants))


# Exhaustive checks on (Z/2^k)^n for n, k <= 3: every element of the group is
# visited, and subgroups are closed up by brute force, not by a normal form.


def _box(n, q):
    return itertools.product(range(q), repeat=n)


def _span_mod(rows, n, q):
    """The subgroup of (Z/q)^n generated by rows, as a set of tuples."""
    seen = {(0,) * n}
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for r in rows:
            y = tuple((a + b) % q for a, b in zip(x, r))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def _small_matrices(n, q, rng, count):
    """Matrices with n columns and 0 to 3 rows: no rows, a zero row, the
    identity, a diagonal of 6, 12, 18 mod q (elementary divisors that are not
    powers of two), two dense rows, and random ones."""
    out = [[], [[0] * n], [[int(i == j) for j in range(n)] for i in range(n)],
           [[(6 * (i + 1) if i == j else 0) % q for j in range(n)] for i in range(n)],
           [[3 * (j + 1) % q for j in range(n)], [q - 2] * n]]
    for _ in range(count):
        out.append([[rng.randrange(-q, 2 * q) for _ in range(n)] for _ in range(rng.randint(1, 3))])
    return out


def test_pow2_quotient_is_the_quotient_map_exhaustively():
    rng = random.Random(8)
    for k in (1, 2, 3):
        q = 1 << k
        for s in (1, 2, 3):
            units = [tuple(int(i == j) for j in range(s)) for i in range(s)]
            for rows in _small_matrices(s, q, rng, 12):
                pq = pow2_quotient(IntMatrix(rows, cols=s), s, k)
                orders = pq.invariants
                assert all(d > 1 and q % d == 0 for d in orders), (rows, k, orders)
                sub = _span_mod(rows, s, q)
                zero = (0,) * len(orders)
                image = set()
                for x in _box(s, q):
                    c = pq.coords(x)
                    image.add(c)
                    # the kernel is exactly row space + q Z^s
                    assert (c == zero) == (x in sub), (rows, k, x)
                    # additive on Z^s: a step along e_t adds coords(e_t),
                    # also where it leaves the box [0, q)^s
                    for t, e in enumerate(units):
                        y = list(x)
                        y[t] += 1
                        want = tuple((a + b) % d for a, b, d in zip(c, pq.coords(e), orders))
                        assert pq.coords(y) == want, (rows, k, x, t)
                # onto the sum of the Z/d_i
                assert image == set(itertools.product(*(range(d) for d in orders))), (rows, k)
                for i, g in enumerate(pq.generators):
                    assert pq.coords(g) == tuple(int(t == i) for t in range(len(orders))), (rows, k)
            for bad in (s - 1, s + 1):
                with pytest.raises(ValueError):
                    pq.coords([1] * bad)


def test_pow2_quotient_generators_are_built_on_first_read(monkeypatch):
    # the generators are columns of U^-1, and criteria 3 and 4 read only
    # invariants and coordinates: building a group, class_of and the xi and
    # eta basis checks invert no Smith transform
    members = [tube_module_from_label(label) for label in sweep_labels(2)]
    real = lattices.inverse_unimodular
    calls = []

    def counting(A):
        calls.append(A.rows)
        return real(A)

    monkeypatch.setattr(lattices, "inverse_unimodular", counting)
    for T in members:
        for n in (1, 2):
            H = CohomologyGroup(T.lattice, n)
            assert H.class_of(Cochain.zero(n, T.lattice.rank)).is_zero()
            assert verify_xi_iso(T, n, H) and verify_eta_iso(T, n), (str(T.label), n)
    assert calls == []
    # read, they are the columns of U^-1 at positions mod 2^k, and kept
    rng = random.Random(4)
    cases = []
    for _ in range(40):
        s, k = rng.randint(1, 4), rng.randint(1, 3)
        gens = [[rng.randint(0, 7) for _ in range(s)] for _ in range(rng.randint(0, 4))]
        cases.append((gens, s, k))
    rng = random.Random(8)
    for k in (1, 2, 3):
        for s in (1, 2, 3):
            cases.extend((rows, s, k) for rows in _small_matrices(s, 1 << k, rng, 12))
    for rows, s, k in cases:
        C = IntMatrix(rows, cols=s) if rows else IntMatrix.zero(0, s)
        pq = pow2_quotient(C, s, k)
        Uinv_cols = list(zip(*real(smith_form(C.transpose()).U).data))
        want = tuple(tuple(x % (1 << k) for x in Uinv_cols[i]) for i in pq.positions)
        before = len(calls)
        assert pq.generators == want, (rows, s, k)
        assert pq.generators is pq.generators
        assert len(calls) == before + 1


def test_kernel_mod_is_the_solution_set_exhaustively():
    rng = random.Random(9)
    for k in (1, 2, 3):
        q = 1 << k
        for n in (1, 2, 3):
            for rows in _small_matrices(n, q, rng, 12):
                A = IntMatrix(rows, cols=n)
                ker = kernel_mod(A, q)
                assert ker.contains_lattice(hnf(_scalar_rows(n, q))), (rows, k)
                brute = {x for x in _box(n, q) if all(v % q == 0 for v in A.apply(x))}
                assert _span_mod(ker.basis, n, q) == brute, (rows, k)


# Reference implementations: the dense row-list code that IntMatrix, the
# Smith reduction and the Hermite forms ran before they skipped zeros.  The
# sparse code applies the same row operations in the same order, so its
# results must be the same matrices, not just equivalent ones.


def _dense_int_apply(rows, vec):
    return tuple(sum(a * v for a, v in zip(r, vec)) for r in rows)


def _dense_int_mul(a, b, cols):
    out = []
    for r in a:
        row = [0] * cols
        for k, x in enumerate(r):
            if x:
                for j in range(cols):
                    row[j] += x * b[k][j]
        out.append(tuple(row))
    return tuple(out)


def _dense_smith(rows, cols):
    """The old smith_form on lists: (U, D, V) as tuples of row tuples."""
    n = len(rows)
    d = [list(r) for r in rows]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def addmul_row(dst, src, c):
        for j in range(cols):
            d[dst][j] += c * d[src][j]
        for j in range(n):
            u[dst][j] += c * u[src][j]

    def addmul_col(dst, src, c):
        for r in d + v:
            r[dst] += c * r[src]

    for s in range(min(n, cols)):
        while True:
            best = None
            for i in range(s, n):
                for j in range(s, cols):
                    x = d[i][j]
                    if x and (best is None or abs(x) < best[0]):
                        best = (abs(x), i, j)
            if best is None:
                break
            _, pi, pj = best
            d[s], d[pi] = d[pi], d[s]
            u[s], u[pi] = u[pi], u[s]
            for r in d + v:
                r[s], r[pj] = r[pj], r[s]
            if d[s][s] < 0:
                d[s] = [-x for x in d[s]]
                u[s] = [-x for x in u[s]]
            p = d[s][s]
            dirty = False
            for i in range(s + 1, n):
                if d[i][s]:
                    addmul_row(i, s, -(d[i][s] // p))
                    dirty = dirty or d[i][s] != 0
            for j in range(s + 1, cols):
                if d[s][j]:
                    addmul_col(j, s, -(d[s][j] // p))
                    dirty = dirty or d[s][j] != 0
            if dirty:
                continue
            bad = next((i for i in range(s + 1, n) if any(x % p for x in d[i][s + 1:])), None)
            if bad is None:
                break
            addmul_row(s, bad, 1)
    return tuple(map(tuple, u)), tuple(map(tuple, d)), tuple(map(tuple, v))


def _dense_xgcd(a, b):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        t = g // ng
        x, nx = nx, x - t * nx
        y, ny = ny, y - t * ny
        g, ng = ng, g - t * ng
    return (-x, -y, -g) if g < 0 else (x, y, g)


def _dense_hnf(rows, cols, q=0):
    """The old _hnf_rows (q = 0) and the old mod-q Hermite form of the rows
    together with q Z^n (q > 0), on lists."""
    work = [[x % q if q else x for x in r] for r in rows]
    if q:
        work.extend([q * int(i == j) for j in range(cols)] for i in range(cols))
    red = (lambda x: x % q) if q else (lambda x: x)
    basis, pivcol = [], []
    for vec in work:
        for j in range(cols):
            if not vec[j]:
                continue
            if j not in pivcol:
                if vec[j] < 0:
                    vec = [-x for x in vec]
                where = sum(1 for pj in pivcol if pj < j)
                basis.insert(where, vec)
                pivcol.insert(where, j)
                break
            row = basis[pivcol.index(j)]
            a, b = row[j], vec[j]
            if b % a == 0:
                for t in range(j, cols):
                    vec[t] = red(vec[t] - (b // a) * row[t])
            else:
                x, y, g = _dense_xgcd(a, b)
                for t in range(j, cols):
                    rt, vt = row[t], vec[t]
                    row[t] = red(x * rt + y * vt)
                    vec[t] = red(-b // g * rt + a // g * vt)
                if row[j] == 0:
                    row[j] = q if g % q == 0 else g
    for bi, j in enumerate(pivcol):
        if q and basis[bi][j] == 0:
            basis[bi][j] = q
        if basis[bi][j] < 0:
            basis[bi] = [-x for x in basis[bi]]
    for bi in range(len(basis)):
        j, p = pivcol[bi], basis[bi][pivcol[bi]]
        for target in basis[:bi]:
            f = target[j] // p
            for t in range(j, cols):
                target[t] -= f * basis[bi][t]
    return basis


def _dense_kernel(rows, cols):
    m = len(rows)
    if cols == 0:
        return []
    stacked = [[r[j] for r in rows] + [int(t == j) for t in range(cols)] for j in range(cols)]
    return [tuple(r[m:]) for r in _dense_hnf(stacked, m + cols) if not any(r[:m])]


# mostly zeros, as on the cochain differentials, with signs and some size
_int_entries = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), st.integers(-60, 60))


@st.composite
def _int_cases(draw):
    """An n x m matrix (zero rows and columns likely), a vector, an m x k matrix."""
    n, m, k = draw(st.integers(0, 7)), draw(st.integers(0, 7)), draw(st.integers(0, 5))

    def vec(c):
        return st.lists(_int_entries, min_size=c, max_size=c)

    rows = draw(st.lists(vec(m), min_size=n, max_size=n))
    return rows, m, draw(vec(m)), draw(st.lists(vec(k), min_size=m, max_size=m)), k


@settings(max_examples=200, deadline=None)
@given(_int_cases())
@example(([], 4, [1, -2, 0, 3], [[1], [0], [-1], [2]], 1))  # 0 x n
@example(([[], []], 0, [], [], 3))  # n x 0
@example(([[0, 0, 0], [2, 0, -5], [0, 0, 0]], 3, [7, 1, -1], [[0, 1], [0, 0], [-3, 0]], 2))
@example(([[200, 0], [0, -1]], 2, [1, 1], [[1], [1]], 1))  # too large to pack
def test_sparse_rows_match_the_dense_reference(case):
    rows, cols, vec, other, k = case
    dense = tuple(map(tuple, rows))
    A = IntMatrix(rows, cols=cols)
    assert (A.rows, A.cols, A.data) == (len(rows), cols, dense)
    again = IntMatrix(A.data, cols=cols)
    assert again == A and hash(again) == hash(A)
    assert A.apply(vec) == _dense_int_apply(dense, vec)
    B = IntMatrix(other, cols=k)
    assert (A * B).data == _dense_int_mul(dense, B.data, k)
    assert A.transpose().data == tuple(tuple(r[j] for r in dense) for j in range(cols))
    assert [A.col(j) for j in range(cols)] == [tuple(r[j] for r in dense) for j in range(cols)]
    assert A.row_dicts() == [{j: x for j, x in enumerate(r) if x} for r in dense]
    assert IntMatrix.from_dicts(A.row_dicts(), cols) == A
    assert A.is_zero() == (not any(map(any, dense)))
    assert (A + A.scale(-3)).data == tuple(tuple(-2 * x for x in r) for r in dense)
    assert (A - A).is_zero() and (-A).data == tuple(tuple(-x for x in r) for r in dense)
    assert A.mod(4).data == tuple(tuple(x % 4 for x in r) for r in dense)
    assert A.hstack(A).data == tuple(r + r for r in dense)
    assert A.vstack(A).data == dense + dense
    packed = A.pack()
    assert (packed is None) == any(not -128 <= x < 128 for r in dense for x in r)
    assert packed is None or IntMatrix.unpack(packed, A.rows, A.cols) == A


def test_wide_matrices_match_the_dense_reference():
    # past 255 nonzero entries and 256 columns the offsets and columns are
    # kept as tuples, not bytes
    rng = random.Random(7)
    rows = [[rng.choice([0, 0, 1, -2, 300]) for _ in range(300)] for _ in range(4)]
    dense = tuple(map(tuple, rows))
    A = IntMatrix(rows)
    assert A.data == dense and A == IntMatrix(A.data) and hash(A) == hash(IntMatrix(A.data))
    assert A.pack() is None
    vec = [rng.randint(-5, 5) for _ in range(300)]
    assert A.apply(vec) == _dense_int_apply(dense, vec)
    At = A.transpose()
    assert At.data == tuple(zip(*dense))
    assert (A * At).data == _dense_int_mul(dense, At.data, 4)
    assert (At * A).data == _dense_int_mul(At.data, dense, 300)
    assert A.hstack(A).data == tuple(r + r for r in dense)
    assert [A.col(j) for j in (0, 257, 299)] == [tuple(r[j] for r in dense) for j in (0, 257, 299)]


@settings(max_examples=200, deadline=None)
@given(_int_cases())
@example(([[0, 0], [0, 0]], 2, [0, 0], [], 0))
@example(([[0, 6, 0], [0, 0, 0], [4, 0, 10]], 3, [0, 0, 0], [], 0))  # divisibility step
@example(([[-3, 0, 0, 2]], 4, [0] * 4, [], 0))
def test_smith_form_matches_the_dense_reference(case):
    rows, cols, vec, _other, _k = case
    sf = smith_form(IntMatrix(rows, cols=cols))
    assert (sf.U.data, sf.D.data, sf.V.data) == _dense_smith(rows, cols)
    b = _dense_int_apply(rows, vec)
    x = solve_int(IntMatrix(rows, cols=cols), b, sf)
    assert x is not None and _dense_int_apply(rows, x) == b


@settings(max_examples=200, deadline=None)
@given(_int_cases(), st.integers(1, 5))
@example(([], 3, [0] * 3, [], 0), 2)
@example(([[0, 0, 0], [0, 0, 0]], 3, [0] * 3, [], 0), 1)
@example(([[4, 6, 0], [6, 9, 1], [0, -2, 5]], 3, [0] * 3, [], 0), 3)
def test_hermite_forms_match_the_dense_reference(case, k):
    rows, cols, _vec, _other, _k = case
    q = 1 << k
    assert _hnf_rows([list(r) for r in rows], cols) == _dense_hnf(rows, cols)
    reduced = [[x % q for x in r] for r in rows]
    assert [list(r) for r in hnf(_scalar_rows(cols, q) + reduced, cols).basis] == _dense_hnf(rows, cols, q)
    assert kernel_basis(IntMatrix(rows, cols=cols)) == _dense_kernel(rows, cols)
