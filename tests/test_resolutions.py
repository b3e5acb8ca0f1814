import os
import subprocess
import sys

import kleinlat
from kleinlat.klein import A, B
from kleinlat.resolutions import (
    RZERO,
    bar_differential,
    comparison_maps,
    poly_differential,
    r_add,
    r_mul,
    r_of,
    r_scale,
    RONE,
    solve_r_columns,
)


def test_group_ring_arithmetic():
    a, b = r_of(A), r_of(B)
    assert r_mul(a, a) == RONE
    assert r_mul(a, b) == r_mul(b, a)
    assert r_add(a, r_scale(a, -1)) == RZERO


def test_low_degree_differential_values():
    d1 = poly_differential(1)
    # d(y) = (b - 1) 1 and d(x) = (a - 1) 1
    assert d1.data[0][0] == r_add(r_of(B), r_scale(RONE, -1))
    assert d1.data[0][1] == r_add(r_of(A), r_scale(RONE, -1))
    d2 = poly_differential(2)
    # d(x^2) = (a + 1) x, with no y-term
    assert d2.data[1][2] == r_add(r_of(A), RONE)
    assert d2.data[0][2] == RZERO


def test_differential_squares_to_zero():
    for n in range(1, 6):
        prod = poly_differential(n) * poly_differential(n + 1)
        assert all(e == RZERO for row in prod.data for e in row)


def test_bar_and_comparison():
    d1, d2 = bar_differential(1), bar_differential(2)
    prod = d1 * d2
    # d1 d2 [g|h] = g(h-1) - (gh-1) + (g-1) = gh - g - gh + 1 + g - 1 = 0
    assert all(e == RZERO for row in prod.data for e in row)
    maps = comparison_maps()
    assert poly_differential(1) * maps.u1 == d1
    # the polynomial -> bar direction, which the library does not keep
    dP1 = poly_differential(1)
    v1 = solve_r_columns(d1, [dP1.column(j) for j in range(2)])
    assert d1 * v1 == dP1


def test_failed_check_raises_under_python_O():
    # the checks in resolutions are not asserts, so python -O keeps them
    code = (
        "from kleinlat import resolutions\n"
        "resolutions.RMatrix.__eq__ = lambda self, other: False\n"
        "resolutions.twist_chain_maps(resolutions.ELT_B, resolutions.ELT_A, 1)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(kleinlat.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 1
    assert "VerificationError: the twisted chain map does not commute with d in degree 1" in out.stderr
