"""Record a result file: every workload run once per seed, plus one traced run.

    python3 bench/record.py [--seeds 1-10] [--workloads grid,cli_registry] [--out FILE]

Writes ``bench/results/BENCH_<commit>.json`` by default, with the commit,
seeds, nproc, Python version, every run's result and details, and per
end-to-end metric the median, quartiles and spread (quartile distance over
median).  Compare two such files with ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return {"seed": seed, "details": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarize(runs) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                     "values": values}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    sha = commit()
    out = Path(args.out) if args.out else BENCH / "results" / f"BENCH_{sha}.json"
    seeds = seed_list(args.seeds)
    seconds = spec["run_seconds"]
    doc = {"commit": sha, "seeds": seeds, "run_seconds": seconds,
           "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           "platform": platform.platform(), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(one_run(workload, seed, seconds, trace=0))
            print(workload, seed, json.dumps(runs[-1]["result"]), flush=True)
        traced = one_run(workload, seeds[0], seconds, trace=1)
        print(workload, "trace", json.dumps(traced["result"]), flush=True)
        doc["workloads"][workload] = {
            "summary": summarize(runs),
            "output_sha256": {str(r["seed"]): r["details"]["output_sha256"] for r in runs},
            "trace_digest_repeats": traced["details"]["output_sha256"]
            == runs[0]["details"]["output_sha256"],
            "all_correct": all(r["result"]["correct"] for r in runs + [traced]),
            "runs": runs,
            "trace": traced,
        }
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
