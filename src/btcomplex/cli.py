"""Command-line driver.

Commands: tree, orbits, minimal, counts, matrix, verify, example.
Exit codes: 0 all requested checks pass, 1 a verification failed, 2 usage or I/O.
Output is deterministic for a fixed configuration (seed included).
The chain complex (chains) and the packaged reference data are imported only
by the commands that use them, matrix, verify and example, so a process that
runs tree, orbits, minimal or counts never loads them.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from .padics import PadicConfig, is_prime
from .tree import dot_tree, edges_upto, vertices_upto
from .orbits import OrbitRegistry, build_registry, check_partition, minimal_orbits, verify_counts


def auto_precision(k: int, n: int, d: int) -> int:
    # >= k + n + d + 4 guard digits; transported centers need ~k + 2n more
    return k + 2 * n + d + 8


def registry_json(reg: OrbitRegistry) -> dict:
    ids = [r.id_str() for r in reg.records]
    balls = [b.to_json(reg.cfg) for b in reg.balls]  # edge records share their owner's discs
    nv = len(reg.minimal)  # the vertex records come first
    members = [[] for _ in reg.balls]  # ball id -> vertex records with that disc
    for i in range(nv):
        members[reg.ball_of[i]].append(i)
    parents = [[] for _ in range(nv)]
    children = [[] for _ in range(nv)]
    for i in range(nv):
        for b in reg.over[reg.ball_of[i]]:
            for j in members[b]:
                parents[i].append(ids[j])
                children[j].append(ids[i])
    orbits = []
    for i, r in enumerate(reg.records):
        rec = {"id": ids[i], "simplex": r.simplex.id_str(), "ball": balls[reg.ball_of[i]]}
        if i < nv:
            rec.update(minimal=reg.minimal[i], parents=sorted(parents[i]), children=sorted(children[i]))
        else:
            rec["owner"] = reg.records[reg.owner[i]].simplex.id_str()
        orbits.append(rec)
    return {
        "params": {"p": reg.p, "k": reg.k, "n": reg.n, "N": reg.cfg.N},
        "vertices": [v.id_str() for v in reg.vertices()],
        "edges": [e.id_str() for e in reg.edges()],
        "orbits": orbits,
    }


def reference_matrix_structure() -> dict:
    from importlib import resources

    with resources.files("btcomplex.data").joinpath("boundary_matrix_p2_k1_n1.json").open() as fh:
        return json.load(fh)


def compare_to_reference(cfg: PadicConfig) -> dict:
    """Structural comparison of the assembled 6x6 block layout at p=2, k=1, n=1."""
    from .chains import assemble_dbar1

    golden = reference_matrix_structure()
    reg = build_registry(cfg, 1, 1)
    mat = assemble_dbar1(reg)
    got = {(b["row"], b["col"], b["kind"], b["sign"]) for b in mat.structure()}
    want = {(b["row"], b["col"], b["kind"], b["sign"]) for b in golden["blocks"]}
    return {
        "size": {"expected": golden["size"], "actual": mat.size},
        "missing": sorted(map(list, want - got)),
        "unexpected": sorted(map(list, got - want)),
        "match": mat.size == golden["size"] and got == want,
        "order": [reg.records[i].id_str() for i in mat.order],
    }


def _emit(args: argparse.Namespace, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            print(text, file=fh)
    else:
        print(text)


def _dump(obj) -> str:
    """Strict JSON: a Fraction, INF or any value without a JSON literal raises."""
    return json.dumps(obj, sort_keys=True, indent=1, allow_nan=False)


# whether a command's report certifies its checks: exit 1 when it does not.
# tree, orbits and matrix certify nothing and exit 0
PASSES = {
    "counts": lambda r: r["pass"],
    "minimal": lambda r: r["partition"],
    "example": lambda r: r["match"],
    "verify": lambda r: r["verdict"] == "exact" and r["counts"]["pass"] and r["minimal_partition"],
}


def run(args: argparse.Namespace) -> int:
    """Build the command's report, print it once, and read the exit code off it."""
    cfg = PadicConfig(args.p, args.prec)
    if args.command == "tree":
        report = dot_tree(args.p, args.n) if args.format == "dot" else {
            "vertices": [v.to_json() for v in vertices_upto(args.p, args.n)],
            "edges": [e.id_str() for e in edges_upto(args.p, args.n)],
        }
    elif args.command == "example":
        # the reference is fixed at (p, k) = (2, 1), so the warning that this
        # level is not pro-p is not the user's to act on
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r"level \(p, k\) = \(2, 1\)", RuntimeWarning)
            report = compare_to_reference(PadicConfig(2, auto_precision(1, 1, args.d)))
    else:
        reg = build_registry(cfg, args.n, args.k)
        if args.command == "orbits":
            report = registry_json(reg)
        elif args.command == "minimal":
            mins = minimal_orbits(reg)
            report = {
                "params": {"p": args.p, "k": args.k, "n": args.n},
                "minimal": [{"id": r.id_str(), "ball": r.ball.to_json(cfg)} for r in mins],
                "partition": check_partition(cfg, [r.ball for r in mins]),
            }
        elif args.command == "counts":
            report = verify_counts(reg)
        elif args.command == "matrix":
            from .chains import assemble_dbar1

            report = assemble_dbar1(reg).to_json()
        elif args.command == "verify":
            from .chains import verify_exactness

            report = verify_exactness(reg, args.d, seed=args.seed)
            report["counts"] = verify_counts(reg)
            report["minimal_partition"] = check_partition(cfg, [r.ball for r in minimal_orbits(reg)])
        else:
            raise AssertionError(f"unhandled command {args.command}")
    _emit(args, report if args.format == "dot" else _dump(report))
    return 0 if PASSES.get(args.command, lambda r: True)(report) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="btcomplex",
        description="Exact congruence-orbit and chain-complex certificates on the GL2 tree.",
    )
    ap.add_argument("command", choices=["tree", "orbits", "minimal", "counts", "matrix", "verify", "example"])
    ap.add_argument("--p", type=int, default=3, help="prime (default 3)")
    ap.add_argument("--k", type=int, default=1, help="congruence level (default 1)")
    ap.add_argument("--n", type=int, default=1, help="tree truncation depth (default 1)")
    ap.add_argument("--d", type=int, default=1, help="polynomial truncation degree (default 1)")
    ap.add_argument("--prec", default="auto", help="stored p-adic digits; 'auto' picks k+2n+d+8")
    ap.add_argument("--seed", type=int, default=0, help="seed for all sampled checks")
    ap.add_argument("--out", default=None, help="output path (default stdout)")
    ap.add_argument("--format", choices=["json", "dot"], default=None,
                    help="output format (tree defaults to dot, everything else json)")
    return ap


def parse_args(argv=None) -> argparse.Namespace:
    """Parse and validate the command line; usage errors exit with status 2.
    The namespace comes back with prec an int and format resolved."""
    ap = build_parser()
    ns = ap.parse_args(argv)
    if not is_prime(ns.p):
        ap.error(f"p must be prime, got {ns.p}")
    if ns.k < 1 or ns.n < 0 or ns.d < 0:
        ap.error("need k >= 1, n >= 0 and d >= 0")
    if ns.n < 1 and ns.command in ("minimal", "matrix", "verify"):
        ap.error(f"{ns.command} needs n >= 1")
    if ns.prec == "auto":
        prec = auto_precision(ns.k, ns.n, ns.d)
    else:
        try:
            prec = int(ns.prec)
        except ValueError:
            ap.error(f"--prec takes 'auto' or an integer, got {ns.prec!r}")
    if prec < ns.k + ns.n + ns.d + 4:
        ap.error(f"precision {prec} below the floor k+n+d+4")
    ns.prec = prec
    ns.format = ns.format or ("dot" if ns.command == "tree" else "json")
    if ns.format == "dot" and ns.command != "tree":
        ap.error("dot output is only available for the tree command")
    return ns


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return run(args)
    except (AssertionError, ValueError, ArithmeticError) as e:
        print(f"verification error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
