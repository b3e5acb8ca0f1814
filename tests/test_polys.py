import os
import subprocess
import sys

import kleinlat
from kleinlat.polys import F2Poly, char_poly, companion_matrix, primary_decomposition

F = F2Poly.from_string("t^2+t+1")
G3 = F2Poly.from_string("t^3+t+1")


def test_char_poly_and_primary_decomposition_of_a_companion_matrix():
    f = F ** 2 * G3
    assert char_poly(companion_matrix(f)) == f
    assert primary_decomposition(f) == [(F, 2), (G3, 1)]


def test_failed_check_raises_under_python_O():
    # the checks in polys are not asserts, so python -O keeps them
    code = (
        "from kleinlat import polys\n"
        "polys.irreducibles_of_degree = lambda d: ()\n"
        "polys.primary_decomposition(polys.F2Poly.from_string('t^2+t+1'))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(kleinlat.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 1
    assert "VerificationError: factorization ran away" in out.stderr
