#!/usr/bin/env python3
"""Minimal orbits: the finest discs of a truncated registry tile P^1.

An orbit disc at the deepest layer is minimal exactly when it sits inside an
orbit of the neighbor toward the root; the minimal discs are pairwise disjoint
and cover everything, giving the break pattern used by the augmentation map.
"""

from btcomplex.padics import PadicConfig
from btcomplex.orbits import build_registry, check_partition, minimal_orbits, verify_counts

p, k, n = 3, 1, 2
cfg = PadicConfig(p, k + 2 * n + 8)
reg = build_registry(cfg, n, k)

mins = minimal_orbits(reg)
print(f"registry (p={p}, k={k}, n={n}): {sum(len(v) for v in reg.vertex_records.values())} vertex records")
print(f"minimal records: {len(mins)} (formula q^k (q+1) q^(n-1) = {p**k * (p + 1) * p ** (n - 1)})")

by_vertex = {}
for r in mins:
    by_vertex.setdefault(r.simplex, []).append(r.ball)
some = sorted(by_vertex, key=lambda v: v.sort_key())[0]
print(f"\nminimal discs owned by {some}:")
for b in by_vertex[some]:
    print("  ", b)

print("\ndisjoint cover of P^1 by exact measure and pairwise disjointness:", check_partition(cfg, [r.ball for r in mins]))

rep = verify_counts(reg)
nonmin = [row for row in rep["rows"] if row["name"].startswith("non-minimal")]
print("non-minimal record count row:", nonmin[0])
print("The non-minimal records are exactly the edge orbits, record for record;")
print("that bijection is what makes the projected boundary matrix square.")
