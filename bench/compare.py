"""Compare two result files written by bench/record.py.

    python3 bench/compare.py OLD.json NEW.json

One row per workload and end-to-end metric of BENCHMARK.json, with each side's
median and quartiles.  The verdict is ``worse`` when the new median is worse
than the old by more than the metric's bound, ``unresolved`` when either
side's spread (quartile distance over median) exceeds the bound, and ``ok``
otherwise.  Output digests are shown for information; they are not gated.
Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def verdict(old: dict, new: dict, better: str, bound: float) -> str:
    if old["median"] == 0:
        worse = new["median"] > 0 if better == "lower" else False
    elif better == "lower":
        worse = new["median"] > old["median"] * (1 + bound)
    else:
        worse = new["median"] < old["median"] * (1 - bound)
    if worse:
        return "worse"
    if old["spread"] > bound or new["spread"] > bound:
        return "unresolved"
    return "ok"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(a).read_text()) for a in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"old {old['commit']}  new {new['commit']}")
    fmt = "{:<13} {:<12} {:>26} {:>26} {:>8}  {}"
    print(fmt.format("workload", "metric", "old median [q1, q3]", "new median [q1, q3]",
                     "change", "verdict"))
    any_worse = False
    for wl in spec["workloads"]:
        name = wl["name"]
        if name not in old["workloads"] or name not in new["workloads"]:
            print(f"{name:<13} missing from one side")
            continue
        o_sum, n_sum = old["workloads"][name]["summary"], new["workloads"][name]["summary"]
        for metric in spec["end_to_end"]:
            m = metric["name"]
            o, n = o_sum[m], n_sum[m]
            v = verdict(o, n, metric["better"], metric["bound"])
            any_worse |= v == "worse"
            change = f"{(n['median'] / o['median'] - 1) * 100:+.1f}%" if o["median"] else "n/a"
            print(fmt.format(name, m, f"{o['median']:.4g} [{o['q1']:.4g}, {o['q3']:.4g}]",
                             f"{n['median']:.4g} [{n['q1']:.4g}, {n['q3']:.4g}]", change, v))
        o_dig, n_dig = old["workloads"][name]["output_sha256"], new["workloads"][name]["output_sha256"]
        seeds = sorted(set(o_dig) & set(n_dig), key=int)
        differ = [s for s in seeds if o_dig[s] != n_dig[s]]
        print(f"{name:<13} output digests: {len(seeds) - len(differ)} of {len(seeds)} common seeds "
              f"identical (not gated)")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
