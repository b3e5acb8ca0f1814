"""kleinlat benchmark: one workload, one process, one closed-loop client.

    python3 bench/run.py --workload verify|census|structure --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a checkout; the package is imported from its ``src/``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
ones, measured untraced; with ``--trace 1`` they are the per-layer ones, from
one untraced and one traced pass over the same inputs.  See bench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH)

from spans import LAYERS, REPORTED, Tracer  # noqa: E402
from workloads import WORKLOADS, Pass, at_reference_speed, reference_seconds  # noqa: E402

MIN_SETUPS = 5
CRITERIA = 11

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{m}.self_s": "s" for m in LAYERS}
    for m, fns in REPORTED.items():
        for f in fns:
            units[f"{m}.{f}.calls"] = "count"
            units[f"{m}.{f}.self_s"] = "s"
    units.update({f"verification.c{i}_s": "s" for i in range(1, CRITERIA + 1)})
    units["trace_overhead_s"] = "s"
    units["fail_ratio"] = "ratio"
    return units


def load_package():
    """Import kleinlat afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "kleinlat" or n.startswith("kleinlat.")]:
        del sys.modules[name]
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("kleinlat")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"kleinlat was imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"kleinlat.{m}") for m in LAYERS})


def code_digest() -> str:
    """sha256 of the package and benchmark sources, identifying the code run."""
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "kleinlat"), BENCH):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return got.stdout.strip() if got.returncode == 0 else "unknown"


def run_pass(workload, K, inputs, tracer=None):
    gc.collect()
    p = Pass(tracer)
    previous = signal.signal(signal.SIGALRM, p.on_alarm)
    t0 = time.perf_counter()
    try:
        workload.run(K, inputs, p)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    p.wall = time.perf_counter() - t0 - p.reference_time
    p.digest = hashlib.sha256("\n".join(p.records).encode()).hexdigest()
    return p


def fastest(passes, raw=False):
    """Each operation's latency at its fastest over the passes, which repeat
    the same operations on the same inputs; at reference speed unless raw."""
    series = [p.raw if raw else p.latencies for p in passes]
    if len({len(x) for x in series}) != 1:
        return series[0]
    return [min(xs) for xs in zip(*series)]


def by_kind(kinds, latencies):
    out = {}
    for kind, x in zip(kinds, latencies):
        out[kind] = out.get(kind, 0.0) + x
    return out


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 \
        else values[0]


def record_digest(key: str, digest: str) -> bool:
    """Remember a run's output digest; False when an earlier run of the same
    code, workload, size and seed produced a different one."""
    path = os.path.join(OUT, "digests.json")
    try:
        with open(path) as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    if key in known:
        return known[key] == digest
    known[key] = digest
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(known, fh, indent=0, sort_keys=True)
    os.replace(tmp, path)
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kleinlat", "__init__.py")):
        print(f"bench: no kleinlat package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    # Every pass gets its own set-up: a fresh import, so the module caches
    # start empty as in every CLI call, and freshly built inputs.  The first
    # set-up is timed from process start.
    setups = []
    mark = T_START
    before = None

    def setup():
        nonlocal mark, before
        K = load_package()
        inputs = workload.build(K, args.seed, args.size)
        seconds = time.perf_counter() - mark
        after = reference_seconds()
        setups.append(at_reference_speed(seconds, [before or after, after]))
        return K, inputs

    # Untraced passes while the time lasts, at least the workload's minimum;
    # the outputs of the first are checked.
    passes = []
    failed_ops = set()
    start = time.perf_counter()
    while True:
        K, inputs = setup()
        passes.append(run_pass(workload, K, inputs))
        if len(passes) == 1:
            failed_ops = passes[0].failures()
            passes[0].checks = []
        elapsed = time.perf_counter() - start
        if args.trace or (len(passes) >= workload.min_passes
                          and elapsed + passes[-1].wall > args.seconds):
            break
        before, mark = reference_seconds(), time.perf_counter()
    traced = tracer = None
    if args.trace:
        before, mark = reference_seconds(), time.perf_counter()
        K, inputs = setup()
        tracer = Tracer()
        tracer.install(K)
        traced = run_pass(workload, K, inputs, tracer)
    while len(setups) < MIN_SETUPS:
        before, mark = reference_seconds(), time.perf_counter()
        setup()
    del K, inputs
    runs = passes + ([traced] if traced else [])

    os.makedirs(OUT, exist_ok=True)
    code = code_digest()
    digest = passes[0].digest
    same_digest = all(p.digest == digest for p in runs)
    if not same_digest:
        print("bench: FLAG: passes of the same code and seed gave different outputs",
              file=sys.stderr)
    key = f"{args.workload}|{args.size}|{args.seed}|{code}"
    if not record_digest(key, digest):
        print("bench: FLAG: output digest differs from an earlier run of the same code "
              "and seed", file=sys.stderr)
        same_digest = False

    attempted = sum(len(p.latencies) for p in runs)
    failed = len(failed_ops) * len(runs)
    if args.trace:
        totals = tracer.totals()
        metrics = per_layer(totals, passes[0], traced, args.workload, failed / attempted)
        units = per_layer_units()
    else:
        lat = fastest(passes)
        values = {
            "wall_s": sum(lat),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_p90_ms": 1e3 * quantile(lat, 90),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        units = END_TO_END
    assert set(metrics) == set(units)

    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit(),
        "code_sha256": code,
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    detail = {
        "passes": len(passes),
        "ops_per_pass": len(passes[0].latencies),
        "failed_ops": sorted(failed_ops),
        "fail_ratio": failed / attempted,
        "digest": digest,
        "raw_wall_s": sum(fastest(passes, raw=True)),
        "pass_walls_s": [p.wall for p in runs],
        "setups_s": setups,
        "seconds_by_op": by_kind(passes[0].kinds, fastest(passes)),
    }
    if traced is not None:
        detail["traced_wall_s"] = traced.wall
        detail["traced_self_sum_s"] = sum(metrics[f"{m}.self_s"]["value"] for m in LAYERS)
        # time spent inside each reported function, its callees included
        detail["inclusive_s"] = {f"{m}.{f}": totals[f"{m}.{f}"][2] for m, fns in REPORTED.items()
                                 for f in fns if f"{m}.{f}" in totals}
    result = {"correct": same_digest, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT, "results.jsonl"), "a") as fh:
        fh.write(json.dumps({"env": env, "detail": detail, "result": result}) + "\n")
    print("bench-env " + json.dumps(env))
    print("bench-detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


def per_layer(totals, untraced, traced, workload, fail_ratio):
    values = {f"{m}.self_s": 0.0 for m in LAYERS}
    for name, (_calls, self_s, _incl) in totals.items():
        values[name.split(".", 1)[0] + ".self_s"] += self_s
    for m, fns in REPORTED.items():
        for f in fns:
            calls, self_s, _incl = totals.get(f"{m}.{f}", (0, 0.0, 0.0))
            values[f"{m}.{f}.calls"] = calls
            values[f"{m}.{f}.self_s"] = self_s
    # criterion times come from the untraced pass of the same run
    crit = untraced.latencies if workload == "verify" else []
    for i in range(1, CRITERIA + 1):
        values[f"verification.c{i}_s"] = crit[i - 1] if i <= len(crit) else 0.0
    values["trace_overhead_s"] = traced.wall - untraced.wall
    values["fail_ratio"] = fail_ratio
    units = per_layer_units()
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


if __name__ == "__main__":
    sys.exit(main())
