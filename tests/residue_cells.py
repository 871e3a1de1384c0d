"""Residue cells: the standard partition of P^1 at a given depth, and orbits
as closures of sampled group elements on them.

This is the enumeration oracle the disc predicates are checked against, so it
decides membership through ``Ball.member_value`` and its own
``required_level``, never through ``Ball.cell``.
"""

import random
from fractions import Fraction

from btcomplex.orbits import sample_group_element
from btcomplex.padics import PadicConfig, val_fraction, val_int
from btcomplex.projline import Ball, ProjPoint


def cell_ids(cfg: PadicConfig, M: int):
    """All level-M cells: ('z', r) for r mod p^M and ('w', u) for u in p*Z mod p^M."""
    p = cfg.p
    out = [("z", r) for r in range(p**M)]
    out.extend(("w", u) for u in range(0, p**M, p))
    return out


def cell_value(cid):
    """Exact representative of a cell: a Fraction, or None for the infinity cell."""
    kind, r = cid
    if kind == "z":
        return Fraction(r)
    return None if r == 0 else Fraction(1, r)


def point_cell(cfg: PadicConfig, pt: ProjPoint, M: int):
    """The level-M cell containing a point."""
    if pt.is_infinity() or not pt.in_z_domain():
        u = cfg.zero() if pt.is_infinity() else pt.u_coord()
        r = 0 if u.is_zero() else int(u.residue_class(M))
        return ("w", r)
    z = pt.z_coord()
    return ("z", 0 if z.is_zero() else int(z.residue_class(M)))


def required_level(ball: Ball) -> int:
    """Smallest cell level M at which every level-M cell is either inside
    this ball or disjoint from it (resolving both charts)."""
    v = val_fraction(ball.center, ball.p)
    if ball.center == 0:
        base = max(ball.m, 1 - ball.m)
    else:
        base = ball.m if v >= 0 else ball.m - 2 * v
    return max(1, base)


def ball_cells(cfg: PadicConfig, ball: Ball, M: int):
    """The set of level-M cell ids whose cells lie inside the ball.

    Needs M at least the ball's required level, so that each cell is either
    inside or disjoint; then cell membership reduces to its center.
    """
    assert M >= required_level(ball), "cell level too coarse for this ball"
    return frozenset(cid for cid in cell_ids(cfg, M) if ball.member_value(cell_value(cid)))


def bfs_orbit_cells(cfg: PadicConfig, simplex, k: int, z: ProjPoint, rng: random.Random,
                    generators: int = 30, level: int | None = None):
    """Closure of z's residue cell under sampled group elements, as cell ids.

    Generators are reduced to integer matrices mod a comfortable power of p so
    the closure runs on machine integers; the action descends to level-M cells
    because every group element permutes the cells inside each of its orbit
    discs isometrically.
    """
    p = cfg.p
    M = (k + 3) if level is None else level
    gens = [sample_group_element(cfg, simplex, k, rng).scaled_integral() for _ in range(generators)]
    guard = min(
        [cfg.N - 2]
        + [e.prec for g in gens for e in g.entries() if not e.is_zero()]
    )
    assert guard >= M + 6, "working precision too small for the closure oracle"
    work = p**guard
    int_gens = [
        tuple(
            0 if e.is_zero() else (e.unit_residue(guard) * pow(p, e.valuation, work)) % work
            for e in g.entries()
        )
        for g in gens
    ]

    def cell_of_pair(x, y):
        assert x or y, "projective pair collapsed"
        s = min(val_int(x, p) if x else guard, val_int(y, p) if y else guard)
        assert s <= guard - M - 2, "residue budget exceeded"
        x //= p**s
        y //= p**s
        if y % p != 0:  # val(x) >= val(y) = 0: the unit disc
            return ("z", x * pow(y, -1, p**M) % p**M)
        return ("w", y * pow(x, -1, p**M) % p**M)

    start = _cell_pair(point_cell(cfg, z, M))
    seen = {cell_of_pair(*start)}
    frontier = [start]
    while frontier:
        x, y = frontier.pop()
        for a, b, c, d in int_gens:
            cid = cell_of_pair((x * a + y * c) % work, (x * b + y * d) % work)
            if cid not in seen:
                seen.add(cid)
                frontier.append(_cell_pair(cid))
    return frozenset(seen)


def _cell_pair(cid):
    kind, r = cid
    return (r, 1) if kind == "z" else (1, r)
