"""Workload job lists and per-job output checks for the btcomplex benchmark.

Every workload is a fixed list of certification jobs; the workload seed feeds
``seed=`` of every ``verify_exactness`` call.  The checks recompute the expected
sizes from the closed-form counts below, independently of the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    """One certification job.  ``command`` is a registry CLI command, or
    ``"grid"`` for an in-process ``verify_exactness`` call on a shared
    registry."""

    command: str
    p: int
    k: int
    n: int
    d: int = 0

    @property
    def name(self) -> str:
        degree = f",d={self.d}" if self.command == "grid" else ""
        return f"{self.command}(p={self.p},k={self.k},n={self.n}{degree})"

    def cli_args(self):
        return [self.command, "--p", str(self.p), "--k", str(self.k), "--n", str(self.n)]


# grid: the acceptance grid's shape (criterion 8) at the sizes a benchmark run
# can repeat: one registry per (p, k, n), shared by d = 0, 1, 2, built at the
# acceptance precision k + 2n + 12.  The (3, 1, 2) and (3, 2, 2) registries of
# criterion 8 take 45 s per pass, too long to repeat within a run.
GRID = tuple(Job("grid", p, k, n, d) for p, k, n in (
    (2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1), (2, 1, 2),
) for d in (0, 1, 2))


def grid_precision(job: Job) -> int:
    return job.k + 2 * job.n + 12


# cli_registry: large trees, no chain complex.  orbits runs the O(R^2)
# containment loop of registry_json, minimal runs check_partition.  Every job
# takes under a second, so that a pass stays near six seconds and a run
# repeats it about ten times.
CLI_REGISTRY = tuple(Job(command, p, k, n) for command, p, k, n in (
    ("orbits", 2, 2, 4), ("counts", 2, 1, 5), ("minimal", 2, 1, 4), ("orbits", 3, 1, 3),
    ("counts", 3, 1, 4), ("counts", 3, 2, 4), ("orbits", 2, 1, 4), ("minimal", 2, 2, 5),
    ("orbits", 2, 3, 3), ("counts", 2, 2, 5), ("minimal", 2, 2, 4), ("counts", 5, 1, 3),
    ("minimal", 2, 1, 5), ("minimal", 3, 1, 3), ("counts", 2, 3, 5), ("minimal", 2, 3, 4),
))

WORKLOADS = {"grid": GRID, "cli_registry": CLI_REGISTRY}


# -- closed-form sizes ------------------------------------------------------------


def vertex_count(p: int, n: int) -> int:
    """Vertices within distance n of the root."""
    return 1 + (p + 1) * (p**n - 1) // (p - 1)


def nonminimal_count(p: int, k: int, n: int) -> int:
    """r: non-minimal vertex records = edge records = 2 q^(k-1) (q+1)(q^n-1)/(q-1)."""
    return 2 * p ** (k - 1) * (p + 1) * (p**n - 1) // (p - 1)


def minimal_count(p: int, k: int, n: int) -> int:
    """q^k minimal orbits at each of the (q+1) q^(n-1) deepest vertices."""
    return p**k * (p + 1) * p ** (n - 1)


# -- output checks -------------------------------------------------------------------


def check_verify(report: dict, job: Job) -> bool:
    dims = report.get("dims", {})
    want = (job.d + 1) * nonminimal_count(job.p, job.k, job.n)
    return (
        report.get("verdict") == "exact"
        and bool(report.get("checks"))
        and all(c.get("pass") is True for c in report["checks"])
        and dims.get("C1") == want
        and dims.get("ker_partial0") == want
    )


def check_registry(report: dict, job: Job) -> bool:
    p, k, n = job.p, job.k, job.n
    V = vertex_count(p, n)
    if job.command == "orbits":
        orbits = report.get("orbits", [])
        vrecs = [o for o in orbits if "minimal" in o]
        erecs = [o for o in orbits if "owner" in o]
        return (
            len(report.get("vertices", ())) == V
            and len(report.get("edges", ())) == V - 1
            and len(vrecs) == V * (p + 1) * p ** (k - 1)
            and len(erecs) == nonminimal_count(p, k, n)
            and len(vrecs) + len(erecs) == len(orbits)
            and sum(1 for o in vrecs if o["minimal"]) == minimal_count(p, k, n)
        )
    if job.command == "counts":
        rows = {r.get("name"): r for r in report.get("rows", ())}
        r_row = rows.get("non-minimal record count", {})
        return (
            report.get("pass") is True
            and bool(rows)
            and all(r.get("pass") is True for r in rows.values())
            and r_row.get("expected") == nonminimal_count(p, k, n)
            and r_row.get("actual") == nonminimal_count(p, k, n)
        )
    if job.command == "minimal":
        return (
            report.get("partition") is True
            and len(report.get("minimal", ())) == minimal_count(p, k, n)
        )
    raise ValueError(f"no check for {job.command}")


def check_output(job: Job, rc: int, out: bytes) -> bool:
    """True when the job exited 0 and its JSON output certifies what it should."""
    if rc != 0:
        return False
    try:
        report = json.loads(out)
    except ValueError:
        return False
    if job.command == "grid":
        return check_verify(report, job)
    return check_registry(report, job)
