#!/usr/bin/env python3
"""The projected boundary map as a lower triangular block matrix.

Columns are edge orbits (relabelled through the owner bijection), rows are
the non-minimal vertex orbits in the superset-first order.  The diagonal is
+-identity with the orientation sign; below it sit signed restrictions into
the strictly smaller orbits across each edge.  Triangular with unit diagonal
means invertible, which is the middle-exactness certificate.
"""

import warnings

from btcomplex.padics import PadicConfig
from btcomplex.orbits import build_registry
from btcomplex.chains import assemble_dbar1

warnings.simplefilter("ignore", RuntimeWarning)

for (p, k, n) in [(2, 1, 1), (3, 1, 1)]:
    cfg = PadicConfig(p, k + 2 * n + 9)
    reg = build_registry(cfg, n, k)
    mat = assemble_dbar1(reg)
    print(f"== (p, k, n) = ({p}, {k}, {n}): {mat.size} x {mat.size} blocks ==")
    for row, i in enumerate(mat.order):
        print(f"  {row}: {reg.records[i].id_str()}")
    grid = [["   ." for _ in range(mat.size)] for _ in range(mat.size)]
    for row, col, kind, sign in mat.blocks:
        label = ("+" if sign > 0 else "-") + ("id " if kind == "id" else "res")
        grid[row][col] = label
    print("  " + " ".join(f"c{j:<3}" for j in range(mat.size)))
    for i, row in enumerate(grid):
        print(f"r{i} " + " ".join(row))
    print("lower triangular:", mat.is_lower_triangular(), " diagonal signs:", mat.diag_signs())
    print()
