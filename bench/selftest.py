"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

For every workload it runs bench/run.py untraced and traced at
``--size tiny`` and checks that:
- the result line has the contract's keys and every metric BENCHMARK.json
  names, with its unit;
- the traced run reproduces the untraced run's output digest;
- the traced per-module self times add up to the traced wall time, within
  the reported tracing overhead;
- structure makes no cohomology or colattices calls.
It also checks that the benchmark fails, without a result line, in a
directory holding only BENCHMARK.json and bench/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from spans import LAYERS  # noqa: E402

# The overhead is the difference of two passes, so its own run-to-run noise
# is allowed on top of it, as a share of the traced pass.
NOISE_SHARE = 0.05


def run(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def parse(proc):
    lines = proc.stdout.splitlines()
    detail = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("bench-detail "))
    return json.loads(lines[-1]), detail


def check_metrics(result, spec, errors, where):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or not result.get("attempted", 0) >= 1:
        errors.append(f"{where}: correct={result.get('correct')} attempted={result.get('attempted')}")
    got = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in spec}
    if set(got) != set(want):
        errors.append(f"{where}: missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name)
        if m is not None and (m.get("unit") != unit or not isinstance(m.get("value"), (int, float))):
            errors.append(f"{where}: {name} = {m}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    errors: list[str] = []
    for w in (x["name"] for x in spec["workloads"]):
        plain, traced = run(w, 0), run(w, 1)
        if plain.returncode or traced.returncode:
            errors.append(f"{w}: exit {plain.returncode}/{traced.returncode}\n"
                          f"{plain.stderr[-2000:]}{traced.stderr[-2000:]}")
            continue
        (r0, d0), (r1, d1) = parse(plain), parse(traced)
        check_metrics(r0, spec["end_to_end"], errors, f"{w} untraced")
        check_metrics(r1, spec["per_layer"], errors, f"{w} traced")
        if d0["digest"] != d1["digest"]:
            errors.append(f"{w}: traced and untraced digests differ")
        m = {k: v["value"] for k, v in r1["metrics"].items()}
        self_sum = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        gap = d1["traced_wall_s"] - self_sum
        allowed = max(m["trace_overhead_s"], 0.0) + NOISE_SHARE * d1["traced_wall_s"]
        if not 0.0 <= gap <= allowed:
            errors.append(f"{w}: self times sum to {self_sum:.4f} s of a {d1['traced_wall_s']:.4f} s "
                          f"traced pass; overhead {m['trace_overhead_s']:.4f} s")
        if w == "structure":
            busy = {k: v for k, v in m.items()
                    if k.startswith(("cohomology.", "colattices.")) and k.endswith(".calls") and v}
            if busy:
                errors.append(f"structure calls into cohomology/colattices: {busy}")
        print(f"{w}: ok={not errors} untraced wall {r0['metrics']['wall_s']['value']:.3f} s, "
              f"traced {d1['traced_wall_s']:.3f} s, self sum {self_sum:.3f} s")

    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("census", 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
