"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/summarize.py [--workloads verify,census,structure]
        [--seeds 0-9] [--seconds 20] [--traced-seed 0] [--out FILE]

Runs bench/run.py once per workload and seed, untraced, one run at a time,
plus one traced run per workload.  For each end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the quartile distance as a share of the median.  With ``--out`` it writes
all of this, the raw values and the environment to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.splitlines()
    tagged = {l.split(" ", 1)[0]: json.loads(l.split(" ", 1)[1])
              for l in lines[:-1] if l.startswith("bench-")}
    return json.loads(lines[-1]), tagged["bench-env"], tagged["bench-detail"]


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="verify,census,structure")
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--traced-seed", type=int, default=None)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    report = {"seconds": args.seconds, "workloads": {}}
    for w in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            result, env, detail = one_run(w, seed, args.seconds, 0)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "failed_ops": detail["failed_ops"], "digest": detail["digest"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            report["env"] = {k: env[k] for k in ("python", "implementation", "nproc",
                                                 "machine", "commit", "code_sha256")}
            print(w, seed, json.dumps(runs[-1]["metrics"]), "failed", result["failed"],
                  flush=True)
        entry = {"runs": runs, "end_to_end": {}}
        for name in runs[0]["metrics"]:
            s = summary([r["metrics"][name] for r in runs])
            entry["end_to_end"][name] = s
            flag = "" if name == "setup_s" or s["spread"] <= bounds[name] / 3 else "  WIDE"
            print(f"  {w:9} {name:12} median {s['median']:.4f}  q1 {s['q1']:.4f}  "
                  f"q3 {s['q3']:.4f}  spread {s['spread']:.3f} (bound {bounds[name]}){flag}",
                  flush=True)
        if args.traced_seed is not None:
            result, _env, detail = one_run(w, args.traced_seed, args.seconds, 1)
            entry["traced"] = {"seed": args.traced_seed, "traced_wall_s": detail["traced_wall_s"],
                               "per_layer": {k: v["value"] for k, v in result["metrics"].items()}}
        report["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
