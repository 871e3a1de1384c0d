#!/usr/bin/env python3
"""The twisted action on truncated functions, and what truncation costs.

A group element acting on a function over one of its orbit discs composes a
Moebius substitution with a character twist.  The result is an honest power
series: the script expands it with four guard degrees and reports the
valuation of what the degree bound throws away.  Unless the twist weight m2
equals the degree bound d -- where the degree-d space is the algebraic
representation Sym^d (x) det^m1 and the tail vanishes -- the discarded tail
never reaches the working precision floor: the degree-d space is a model,
not an invariant subspace.
"""

import random

from btcomplex.padics import INF, PadicConfig
from btcomplex.projline import Ball, GL2
from btcomplex.tree import Vertex
from btcomplex.orbits import sample_group_element
from btcomplex.chains import Character, act_on_function, monomial

p, k = 3, 1
cfg = PadicConfig(p, 16)
v0 = Vertex.root(p)

print("== a worked example ==")
g = GL2(cfg, 1, p, 0, 1)  # unipotent: z.g = z / (pz + 1)
ball = Ball(cfg, ("z", p**k, 0, False))  # the orbit of 0, coordinate z = p t
f = monomial(cfg, ball, 1, 1)  # f = t, degree bound 1
out, guard = act_on_function(g, Character(0, 0), f)
print(f"g = {g}")
print("g.f kept coefficients:", [c.serialize() for c in out.coeffs])
print("min valuation of the discarded guard coefficients:", guard)
print("(the exact series is t - p^2 t^2 + p^4 t^3 - ..., so the tail starts at valuation 2)")

print("\n== sampled elements on their own orbits ==")
rng = random.Random(1)
worst = INF
for _ in range(50):
    gg = sample_group_element(cfg, v0, k, rng)
    chi = Character(rng.randrange(-3, 4), rng.randrange(-3, 4))
    ff = monomial(cfg, ball, rng.randrange(0, 3), 2)
    _, gv = act_on_function(gg, chi, ff)
    if gv is not INF:
        worst = min(worst, gv) if worst is not INF else gv
print("minimum discarded valuation over 50 samples:", worst)
print("working precision here is N =", cfg.N, "- the tail sits far above the floor p^-N,")
print("but far below p^-N in valuation terms; unless m2 == d (the algebraic weight,")
print("where the tail vanishes), raising d only moves the tail, never kills it.")
