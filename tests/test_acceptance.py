"""Acceptance suite: every criterion at its stated size, exact tolerances.

The sizes are the full ones of verification.criteria(), the table run_all
reads.  Each test prints one PASS/FAIL line; run with -s to see them.
"""

import random
from collections import Counter

from kleinlat import cohomology
from kleinlat import verification as V
from kleinlat.cohomology import SumContext
from kleinlat.intmat import IntMatrix
from kleinlat.lattices import ZLattice
from kleinlat.tubes import sweep_labels

FULL = {check: (name, kwargs) for name, check, kwargs in V.criteria()}


def _report(check):
    name, kwargs = FULL[check]
    ok, detail = getattr(V, check)(**kwargs)
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_round_trip_equivalence():
    _report("check_round_trip")


def test_02_dimension_formulas():
    _report("check_dimensions")


def test_03_cohomology_xi():
    _report("check_cohomology")


def test_04_dual_cohomology_eta():
    _report("check_dual_cohomology")


def test_05_torsion_bounds():
    _report("check_torsion_bounds")


def test_06_syzygy_laws():
    _report("check_syzygy")


def test_07_endomorphism_rings():
    _report("check_end_rings")


def test_08_cross_tube_homomorphisms():
    _report("check_cross_tube")


def test_09_orbits_canonical_forms():
    _report("check_orbits")


def test_10_symmetric_group_action():
    _report("check_s3")


def test_11_group_constructions():
    _report("check_groups")


def test_table_lists_every_check_once():
    checks = [check for _name, check, _kwargs in V.criteria()]
    assert sorted(checks) == sorted(n for n in vars(V) if n.startswith("check_"))


def test_orbit_check_fails_on_a_group_beyond_its_oracle(monkeypatch):
    # a case the brute-force oracle cannot enumerate is a failure, not a skip
    monkeypatch.setattr(V, "ORBIT_ORACLE_MAX", 1)
    ok, detail = V.check_orbits(aut_count=1, seed=0)
    assert not ok and "beyond the orbit oracle" in detail


def _old_random_sum_automorphism(gens, rank, rng):
    """Criterion 9's draw as it was first written: the identity times each
    drawn generator, the last drawn leftmost."""
    out = IntMatrix.identity(rank)
    for _ in range(rng.randint(1, 6)):
        out = rng.choice(gens) * out
    return out


def _raw(U):
    """Every stored field of an IntMatrix, with its type."""
    return tuple((type(x), x) for x in (U.rows, U.cols, U._ptr, U._idx, U._val))


def test_random_sum_automorphisms_are_the_draws_of_the_identity_start():
    # the verify digest does not see which automorphisms criterion 9 draws,
    # so this pins them: the same matrices, byte for byte, and the same
    # generator state after each draw, over criterion 9's full trial count
    aut_count = FULL["check_orbits"][1]["aut_count"]
    cases = (V._orbit_cases()[1], V._orbit_cases()[4])
    contexts = [SumContext([V._tube(l) for l in labels], 2) for labels in cases]
    for seed in range(10):
        new, old = random.Random(seed), random.Random(seed)
        for sc in contexts:
            gens = sc.automorphism_generators()
            order = sc.H.order()
            for _ in range(aut_count):
                assert new.randrange(order) == old.randrange(order)
                U = V._random_sum_automorphism(gens, new)
                W = _old_random_sum_automorphism(gens, sc.module.rank, old)
                assert _raw(U) == _raw(W), seed
                assert new.getstate() == old.getstate(), seed


def test_check_cohomology_builds_one_target_component_per_member_and_parity(monkeypatch):
    # M(n) depends on the parity of n alone, so degrees 1..4 build two
    built = Counter()
    real = V.target_component

    def counting(M, n, in_infinity):
        built[(id(M), n % 2)] += 1
        return real(M, n, in_infinity)

    monkeypatch.setattr(V, "target_component", counting)
    monkeypatch.setattr(cohomology, "target_component", counting)
    degrees = (1, 2, 3, 4)
    ok, detail = V.check_cohomology(max_m=2, degrees=degrees)
    assert ok, detail
    assert len(built) == len(sweep_labels(2)) * 2
    assert set(built.values()) == {1}


def test_verify_xi_iso_reads_the_component_it_is_given():
    for label in sweep_labels(2):
        T = V._tube(label)
        inf = cohomology.is_infinity_tube(label)
        for n in (1, 2, 3, 4):
            H = cohomology.CohomologyGroup(T.lattice, n)
            comp = cohomology.target_component(T.lattice, n, inf)
            assert cohomology.verify_xi_iso(T, n) is True, (label, n)
            assert cohomology.verify_xi_iso(T, n, H, comp) is True, (label, n)
            # an empty component is read as given, not built again
            empty = ZLattice.zero(T.lattice.rank)
            assert cohomology.verify_xi_iso(T, n, H, empty) is (not H.invariants), (label, n)
