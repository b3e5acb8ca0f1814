"""Checks against an independent implementation: sympy's Smith normal form.

sympy is not a dependency of the package or of its test extra; the module is
skipped where it is not installed.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

from kleinlat.cohomology import differential_matrix  # noqa: E402
from kleinlat.intmat import IntMatrix, smith_form  # noqa: E402
from kleinlat.tubes import sweep_labels, tube_module_from_label  # noqa: E402


def _sympy_invariants(A: IntMatrix) -> tuple:
    if A.rows == 0 or A.cols == 0:
        return ()
    got = invariant_factors(sympy.Matrix(A.rows, A.cols, [x for r in A.data for x in r]),
                            domain=sympy.ZZ)
    return tuple(abs(int(d)) for d in got if d != 0)


_entries = st.one_of(st.just(0), st.integers(-4, 4), st.integers(-60, 60))


@st.composite
def _matrices(draw):
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    data = draw(st.lists(st.lists(_entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return IntMatrix(data, cols=cols)


@settings(max_examples=150, deadline=None)
@given(_matrices())
@example(IntMatrix([[0, 6, 0], [0, 0, 0], [4, 0, 10]]))
@example(IntMatrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]))
def test_smith_invariants_match_sympy(A):
    assert smith_form(A).invariants() == _sympy_invariants(A)


@pytest.mark.parametrize("label", sweep_labels(2), ids=str)
def test_coboundary_invariants_match_sympy(label):
    M = tube_module_from_label(label, with_chain=False).lattice
    for n in range(5):
        D = differential_matrix(M, n)
        assert smith_form(D).invariants() == _sympy_invariants(D), n
