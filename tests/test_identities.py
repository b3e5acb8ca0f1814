"""Identities of tube cohomology, at sizes beyond the acceptance battery.

The battery sweeps m <= 3 in degrees 1..4.  These run without sympy, so
they hold wherever the suite runs (tests/test_oracles.py is skipped when
sympy is missing).
"""

import itertools
import random

import pytest

from kleinlat.cohomology import CohomologyGroup
from kleinlat.quiver import TubeId, TubeLabel, lattice_of, random_rep_in_R
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
    M = tube_module_from_label(label).lattice
    for n in range(1, 7):
        want = (2,) * closed_form_rank(label, n)
        assert CohomologyGroup(M, n).invariants == want, n


@pytest.mark.parametrize("label", sweep_labels(2), ids=str)
def test_the_syzygy_shifts_cohomology_up_one_degree(label):
    M = tube_module_from_label(label).lattice
    Om = syzygy(M)
    for n in (1, 2, 3):
        assert CohomologyGroup(M, n).invariants == CohomologyGroup(Om, n + 1).invariants, n


def _additivity_pairs():
    """Pairs of lattices: the members of sweep_labels(2) two at a time up to
    a sum of rank 12, each larger member beside a rank-2 one, and six pairs
    of random_rep_in_R(rng, 6) lattices."""
    members = [tube_module_from_label(l).lattice for l in sweep_labels(2)]
    small = min(members, key=lambda M: M.rank)
    pairs = [(M, N) for M, N in itertools.combinations_with_replacement(members, 2)
             if M.rank + N.rank <= 12]
    pairs += [(M, small) for M in members if M.rank > 10]
    rng = random.Random(3)
    pairs += [(lattice_of(random_rep_in_R(rng, 6)), lattice_of(random_rep_in_R(rng, 6)))
              for _ in range(6)]
    return pairs


def test_the_cohomology_of_a_direct_sum_is_the_sum_of_the_cohomologies():
    pairs = _additivity_pairs()
    assert len(pairs) == 99
    invariants = {}

    def of(M, n):
        key = (id(M), n)
        if key not in invariants:
            invariants[key] = CohomologyGroup(M, n).invariants
        return invariants[key]

    for M, N in pairs:
        S = M.direct_sum(N)
        for n in range(1, 5):
            want = sorted(of(M, n) + of(N, n))
            assert sorted(CohomologyGroup(S, n).invariants) == want, (M.rank, N.rank, n)
