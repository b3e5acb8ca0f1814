"""The benchmark's workloads run without a failed operation at tiny size.

The benchmark counts an operation that raises, or whose answer fails its
check, in ``failed``.  This runs each workload of bench/workloads.py once,
in-process, on the package under test, with a tracer whose wrap returns the
function unchanged, so that no sampling timer is armed.
"""

import importlib
import os
import sys
import types

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


class _Untraced:
    def wrap(self, module, name, fn):
        return fn


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, BENCH)
    try:
        spans = importlib.import_module("spans")
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(BENCH)
    K = types.SimpleNamespace(
        **{m: importlib.import_module(f"kleinlat.{m}") for m in spans.LAYERS})
    return K, workloads


@pytest.mark.parametrize("name", ["verify", "census", "structure"])
def test_workload_has_no_failed_operation(bench, name):
    K, workloads = bench
    workload = workloads.WORKLOADS[name]
    inputs = workload.build(K, 3, "tiny")
    p = workloads.Pass(_Untraced())
    workload.run(K, inputs, p)
    assert p.latencies and len(p.records) >= len(p.latencies)
    assert p.errors == set(), [r for r in p.records if "!" in r.split(" ", 1)[0]]
    assert p.failures() == set()


def test_every_traced_method_is_defined_in_its_class_body():
    # the tracer wraps vars(cls)[name]; an inherited method is not in the
    # subclass's own body, so moving one out fails the benchmark's set-up
    sys.path.insert(0, BENCH)
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(BENCH)
    named = 0
    for layer, qualnames in spans.METHODS.items():
        mod = importlib.import_module(f"kleinlat.{layer}")
        for qual in qualnames:
            cls_name, meth = qual.split(".")
            assert meth in vars(getattr(mod, cls_name)), f"{layer}.{qual}"
            named += 1
    assert named > 0
