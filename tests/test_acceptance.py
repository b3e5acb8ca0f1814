"""Acceptance suite: every criterion at its stated size, exact tolerances.

The sizes are the full ones of verification.criteria(), the table run_all
reads.  Each test prints one PASS/FAIL line; run with -s to see them.
"""

from kleinlat import verification as V

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
