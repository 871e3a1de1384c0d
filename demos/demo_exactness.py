#!/usr/bin/env python3
"""End-to-end exactness certificate for the truncated complex.

Degree one injects (triangular unit-diagonal matrix), its image is the kernel
of the augmentation (dimension count via the constructive kernel lift), and
the augmentation surjects onto piecewise functions with minimal breaks (the
one-line preimage).  Everything is exact p-adic arithmetic; nothing is
floating point.
"""

import random
import warnings

from btcomplex.padics import PadicConfig
from btcomplex.orbits import build_registry
from btcomplex.chains import (
    partial0,
    partial1,
    random_chain1,
    random_localfun,
    surjectivity_lift,
    verify_exactness,
)

warnings.simplefilter("ignore", RuntimeWarning)

p, k, n, d = 3, 1, 2, 1
cfg = PadicConfig(p, k + 2 * n + d + 8)
reg = build_registry(cfg, n, k)

report = verify_exactness(reg, d, seed=0)
print(f"(p, k, n, d) = ({p}, {k}, {n}, {d})")
print("dims:", report["dims"])
for c in report["checks"]:
    print(f"  [{'ok' if c['pass'] else 'FAIL'}] {c['name']}")
print("verdict:", report["verdict"])

rng = random.Random(7)
print("\nboundary composite on a random chain is identically zero:",
      partial0(partial1(random_chain1(reg, d, rng), reg), reg).is_zero())

target = random_localfun(reg, d, rng)
lifted = surjectivity_lift(target, reg)
print("a random piecewise target lifts on the nose:", partial0(lifted, reg) == target)
print(f"(the lift assigns each of the {len(target.parts)} pieces to the vertex owning its disc)")
