"""Fresh-interpreter helpers for bench/run.py.

    child.py setup WORKLOAD          print the seconds from a fresh interpreter
                                     to ready to certify
    child.py job MODE CLI-ARGS...    run one btcomplex CLI job under a Tracer
                                     (MODE spans|counts); CLI output on stdout,
                                     the trace snapshot as the last stderr line
    child.py pass MODE WORKLOAD SEED run one traced pass of a workload and print
                                     it as one JSON line
"""

from __future__ import annotations

import json
import sys
import time


def setup(workload: str) -> None:
    from workloads import GRID, grid_precision

    t0 = time.perf_counter()
    import btcomplex.cli  # noqa: F401  (what `python -m btcomplex.cli` imports)

    if workload == "grid":
        from btcomplex.orbits import build_registry
        from btcomplex.padics import PadicConfig

        for job in GRID:
            if job.d == 0:
                build_registry(PadicConfig(job.p, grid_precision(job)), job.n, job.k)
    print(time.perf_counter() - t0)


def job(mode: str, argv) -> int:
    import btcomplex.cli

    from tracer import Tracer

    with Tracer(mode) as tr:
        rc = btcomplex.cli.main(argv)
    sys.stdout.flush()
    print(json.dumps(tr.snapshot()), file=sys.stderr)
    return rc


def one_pass(mode: str, workload: str, seed: int) -> None:
    import warnings

    from run import DEADLINE_S, run_pass

    warnings.filterwarnings("ignore", message=r"level \(p, k\) = \(2, 1\)")
    ps = run_pass(workload, seed, mode, time.monotonic() + DEADLINE_S)
    print(json.dumps(ps))


def main(argv) -> int:
    cmd, rest = argv[0], argv[1:]
    if cmd == "setup":
        setup(rest[0])
    elif cmd == "job":
        return job(rest[0], rest[1:])
    elif cmd == "pass":
        one_pass(rest[0], rest[1], int(rest[2]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
