"""Identities of tube cohomology, at sizes beyond the acceptance battery.

The battery sweeps m <= 3 in degrees 1..4.  These run without sympy, so
they hold wherever the suite runs (tests/test_oracles.py is skipped when
sympy is missing).
"""

import pytest

from kleinlat.cohomology import CohomologyGroup
from kleinlat.quiver import TubeId, TubeLabel
from kleinlat.tubes import sweep_labels, syzygy, tube_module_from_label

LONG_SPECIAL = [TubeLabel(TubeId.special(lam), j, m)
                for lam in ("0", "1", "inf") for j in (1, 2) for m in (4, 5)]


def closed_form_rank(label: TubeLabel, n: int) -> int:
    """The GF(2)-rank of H^n(K, T) read off the label alone.

    d m for T[f]_m with deg f = d; for T[lambda, j]_m, ceil(m/2) when n + j
    is odd and floor(m/2) when it is even.
    """
    if label.tube.kind == "hom":
        return label.tube.poly.degree() * label.m
    return (label.m + 1) // 2 if (n + label.j) % 2 else label.m // 2


@pytest.mark.parametrize("label", sweep_labels(3) + LONG_SPECIAL, ids=str)
def test_cohomology_of_a_member_is_the_closed_form_of_its_label(label):
    M = tube_module_from_label(label, with_chain=False).lattice
    for n in range(1, 7):
        want = (2,) * closed_form_rank(label, n)
        assert CohomologyGroup(M, n).invariants == want, n


@pytest.mark.parametrize("label", sweep_labels(2), ids=str)
def test_the_syzygy_shifts_cohomology_up_one_degree(label):
    M = tube_module_from_label(label, with_chain=False).lattice
    Om = syzygy(M)
    for n in (1, 2, 3):
        assert CohomologyGroup(M, n).invariants == CohomologyGroup(Om, n + 1).invariants, n
