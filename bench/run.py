"""Benchmark for btcomplex: batches of certification jobs, end to end and per layer.

Run from the repository root (stdlib only; builds nothing but bytecode):

    python3 bench/run.py --workload grid --seed 1 --seconds 60 --trace 0

Workloads (job lists in workloads.py):

* ``grid``: the acceptance grid's shape in one process.  One registry per
  (p, k, n), shared by d = 0, 1, 2; restriction routing in ``chains``.
* ``cli_registry``: one fresh ``orbits`` / ``counts`` / ``minimal`` process per
  job on large trees; registry build, partition check and serialization, and
  no ``chains`` work at all.

Load is one closed loop with one job in flight.  A run sets up, then runs
whole passes of the job list while another pass still fits in ``--seconds``
(at least three), then checks every job's output.  A pass takes about six
seconds, so that a run repeats it about ten times: on a shared 2-vCPU VM the
speed moves by a quarter and more between phases lasting tens of seconds, so
every timing is taken over the whole run.  ``wall_s`` sums each job's best time over the
passes (best of k); ``job_p50_s`` and ``job_tail_s`` are percentiles over every
job run of every pass; ``setup_s`` is the median of set-up samples taken
before each pass.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
pass, a spans pass (per-layer times) and a counting pass in a second process
(per-layer counts), and prints the per-layer metrics.  The last stdout line is
the result object; the line before it carries details (output digest, fail
ratio, tail percentile, per-job times, machine-speed calibration).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
TRACE_DIR = BENCH / "out"
sys.path.insert(0, str(BENCH))

from workloads import GRID, WORKLOADS, check_output, grid_precision  # noqa: E402

SETUP_PER_PASS = 3  # set-up samples taken before each pass
MIN_PASSES = 3
DEADLINE_S = 165.0  # every run must exit within 180 s
clock = time.perf_counter


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a machine-speed marker, diagnostic only."""
    t0 = clock()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return clock() - t0


# -- passes ------------------------------------------------------------------------


def _job_record(job, seconds, ok, out: bytes) -> dict:
    return {"job": job.name, "seconds": seconds, "ok": ok, "bytes": len(out),
            "sha256": hashlib.sha256(out).hexdigest()}


def grid_pass(seed: int, mode: str | None) -> dict:
    """One pass of the grid in this process.  Registries are built before the
    timed loop (they are set-up), inside the tracer when tracing."""
    from tracer import Tracer

    orbits = importlib.import_module("btcomplex.orbits")
    chains = importlib.import_module("btcomplex.chains")
    padics = importlib.import_module("btcomplex.padics")
    tracer = Tracer(mode) if mode else None
    reports = []
    with tracer or nullcontext():
        regs = {}
        for job in GRID:
            key = (job.p, job.k, job.n)
            if key not in regs:
                regs[key] = orbits.build_registry(padics.PadicConfig(job.p, grid_precision(job)),
                                                  job.n, job.k)
        t0 = clock()
        for job in GRID:
            if tracer:
                tracer.begin_job()
            t = clock()
            try:
                report = chains.verify_exactness(regs[job.p, job.k, job.n], job.d, seed=seed)
            except Exception:  # a failed job is counted, never fatal
                traceback.print_exc()
                report = None
            reports.append((job, clock() - t, report))
        wall = clock() - t0
    jobs = []
    for job, seconds, report in reports:
        if report is None:
            jobs.append(_job_record(job, seconds, False, b""))
            continue
        out = json.dumps(report, sort_keys=True, indent=1, default=str).encode()
        jobs.append(_job_record(job, seconds, check_output(job, 0, out), out))
    return {"wall": wall, "jobs": jobs, "trace": tracer.snapshot() if tracer else None}


def cli_pass(workload: str, mode: str | None, deadline: float) -> dict:
    """One pass of a CLI workload: one fresh process per job."""
    from tracer import merge

    env = child_env()
    jobs, snaps = [], []
    t0 = clock()
    for job in WORKLOADS[workload]:
        if mode:
            cmd = [sys.executable, str(CHILD), "job", mode, *job.cli_args()]
        else:
            cmd = [sys.executable, "-m", "btcomplex.cli", *job.cli_args()]
        t = clock()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            jobs.append(_job_record(job, clock() - t, False, b""))
            continue
        seconds = clock() - t
        jobs.append(_job_record(job, seconds, check_output(job, proc.returncode, proc.stdout),
                                proc.stdout))
        if mode:
            lines = proc.stderr.decode(errors="replace").strip().splitlines()
            try:
                snaps.append(json.loads(lines[-1]))
            except (IndexError, ValueError):
                jobs[-1]["ok"] = False
    wall = clock() - t0
    return {"wall": wall, "jobs": jobs, "trace": merge(snaps) if mode else None}


def run_pass(workload: str, seed: int, mode: str | None, deadline: float) -> dict:
    if workload == "grid":
        return grid_pass(seed, mode)
    return cli_pass(workload, mode, deadline)


# -- set-up ------------------------------------------------------------------------


def build() -> None:
    """Byte-compile the package so that set-up times exclude compilation."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "btcomplex"), str(BENCH)],
                   cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL, timeout=120)


def setup_samples(workload: str, count: int) -> list:
    """Fresh interpreters timing import (and, for grid, the shared registries)."""
    out = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, str(CHILD), "setup", workload], cwd=ROOT,
                              env=child_env(), capture_output=True, check=True, timeout=60)
        out.append(float(proc.stdout.decode().strip().splitlines()[-1]))
    return out


# -- metrics -------------------------------------------------------------------------


def tail(samples):
    """(value, percentile) at the highest percentile with at least ten samples
    beyond it."""
    s = sorted(samples)
    if len(s) <= 10:
        raise ValueError("a tail percentile needs more than ten job runs")
    i = len(s) - 11
    return s[i], 100 * (i + 1) // len(s)


def end_to_end(passes, setup, rss_mb) -> tuple:
    """``wall_s`` is the job list's time with each job at its best of the
    run's passes: a job's work is fixed, and the host's slow phases only
    lengthen it.  Job percentiles are taken over every job run of every pass."""
    samples = [j["seconds"] for ps in passes for j in ps["jobs"]]
    tail_value, tail_pct = tail(samples)
    best = [min(ps["jobs"][i]["seconds"] for ps in passes) for i in range(len(passes[0]["jobs"]))]
    metrics = {
        "wall_s": (sum(best), "s"),
        "job_p50_s": (statistics.median(samples), "s"),
        "job_tail_s": (tail_value, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, {"job_tail_percentile": tail_pct, "job_runs": len(samples)}


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_SELF if workload == "grid" else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def check_passes(passes) -> tuple:
    """(attempted, failed, digest).  A job fails on a bad exit or output check,
    or when its output differs from the same job's output in the first pass."""
    first = {j["job"]: j["sha256"] for j in passes[0]["jobs"]}
    attempted = failed = 0
    for ps in passes:
        for j in ps["jobs"]:
            attempted += 1
            if not j["ok"] or j["sha256"] != first[j["job"]]:
                failed += 1
    digest = hashlib.sha256("".join(first.values()).encode()).hexdigest()
    return attempted, failed, digest


# -- modes ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    """(passes, set-up samples): whole passes while another fits in ``seconds``,
    and at least MIN_PASSES.  Set-up is sampled before every pass, so that its
    samples span the run as the passes do."""
    passes, setup = [], []
    t0 = clock()
    while True:
        setup += setup_samples(workload, SETUP_PER_PASS)
        passes.append(run_pass(workload, seed, None, deadline))
        typical = (clock() - t0) / len(passes)
        if time.monotonic() + typical > deadline:
            return passes, setup
        if len(passes) >= MIN_PASSES and clock() - t0 + typical > seconds:
            return passes, setup


def traced(workload: str, seed: int, deadline: float) -> tuple:
    from tracer import layer_metrics

    base = run_pass(workload, seed, None, deadline)
    spans = run_pass(workload, seed, "spans", deadline)
    out = subprocess.run([sys.executable, str(CHILD), "pass", "counts", workload, str(seed)],
                         cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, check=True,
                         timeout=max(1.0, deadline - time.monotonic())).stdout
    counts = json.loads(out.decode().strip().splitlines()[-1])
    metrics = layer_metrics(spans["trace"], counts["trace"])
    cli_bytes = 0 if workload == "grid" else sum(j["bytes"] for j in base["jobs"])
    metrics["cli.output_bytes"] = (cli_bytes, "bytes")
    metrics["trace.overhead_ratio"] = (spans["wall"] / base["wall"], "ratio")
    TRACE_DIR.mkdir(exist_ok=True)
    dump = {"workload": workload, "seed": seed, "untraced_wall_s": base["wall"],
            "spans": spans["trace"], "counts": counts["trace"]}
    (TRACE_DIR / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(dump, indent=1))
    return [base, spans, counts], metrics


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "btcomplex" / "__init__.py").is_file():
        print(f"no btcomplex sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    sys.path.insert(0, str(SRC))
    warnings.filterwarnings("ignore", message=r"level \(p, k\) = \(2, 1\)")
    build()
    calib_before = calibrate()
    if args.trace:
        setup = []
        passes, metrics = traced(args.workload, args.seed, deadline)
        extra = {}
    else:
        passes, setup = measure(args.workload, args.seed, args.seconds, deadline)
        metrics, extra = end_to_end(passes, setup, peak_rss_mb(args.workload))
    attempted, failed, digest = check_passes(passes)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "jobs_per_pass": len(WORKLOADS[args.workload]),
        "pass_walls_s": [ps["wall"] for ps in passes], "setup_samples_s": setup,
        "job_s": {j["job"]: [ps["jobs"][i]["seconds"] for ps in passes]
                  for i, j in enumerate(passes[0]["jobs"])},
        "fail_ratio": failed / attempted, "output_sha256": digest, **extra,
        "calibration_s": {"before": calib_before, "after": calibrate()},
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
