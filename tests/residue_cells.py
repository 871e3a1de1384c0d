"""Residue cells: the standard partition of P^1 at a given depth, and orbits
as closures of sampled group elements on them; and the normal form a ball
was stored in before its cell key.

This is the oracle the disc predicates and presentations are checked
against.  It reads a ball's normal form off its key through the normal-form
constructors (normal_form), decides membership through
``NormalForm.member_value`` and its own ``required_level``, moves a normal
form by valuations of exact rationals (_disc_image), and never calls the
Ball's own predicates, presentations or images.
"""

import random
from dataclasses import dataclass, replace
from fractions import Fraction

from btcomplex.orbits import sample_group_element
from btcomplex.padics import INF, PadicConfig, PadicNum, PrecisionError, val_fraction, val_int
from btcomplex.projline import GL2, Ball, ProjPoint


def _disc_image(p: int, g: GL2, center: Fraction, m: int):
    """Image of the finite disc center + p^m Z_p under z.g, by valuations of
    exact rationals; returns a normal form (complement, center, m)."""
    a, b, c, d = g.entries()
    if not b:
        # affine map (az + c)/d
        return (False, (a * center + c) / d, m + val_fraction(a, p) - val_fraction(d, p))
    s = val_fraction(center + d / b, p)  # the distance to the pole -d/b
    vB = val_fraction(g.det(), p) - 2 * val_fraction(b, p)
    if s >= m:  # pole inside the disc: image is a complement ball
        return (True, a / b, vB - m + 1)
    return (False, (a * center + c) / (b * center + d), m + vB - 2 * s)


def _reduce_fraction(p: int, c: Fraction, m: int) -> Fraction:
    """Canonical representative of c + p^m Z_p: 0, or p^v * (unit mod p^(m-v))."""
    v = val_fraction(c, p)
    if v is INF or v >= m:
        return Fraction(0)
    digits = m - v
    a, b = c.numerator, c.denominator
    while a % p == 0:
        a //= p
    while b % p == 0:
        b //= p
    u = a * pow(b, -1, p**digits) % p**digits
    if v >= 0:
        return Fraction(u * p**v)
    return Fraction(u, p**-v)


@dataclass(frozen=True)
class NormalForm:
    """A closed ball of P^1(Q_p) in its normal form:

    complement=False: { x : val(x - center) >= m }           (finite disc)
    complement=True : { x : val(x - center) <= m - 1 } + inf (complement of one)

    center is the canonical representative mod p^m, so two normal forms are
    set-equal iff they are identical."""

    p: int
    complement: bool
    center: Fraction
    m: int

    @staticmethod
    def z_disc(cfg: PadicConfig, center, m: int, complement: bool = False) -> "NormalForm":
        """{ x in F : |x - center| <= p^-m }, or every other point."""
        if isinstance(center, PadicNum):
            center = center.residue_class(m)
        return NormalForm(cfg.p, complement, _reduce_fraction(cfg.p, Fraction(center), m), m)

    @staticmethod
    def u_disc(cfg: PadicConfig, u_center, m: int) -> "NormalForm":
        """Disc in the coordinate u = 1/z: { x : val(1/x - u_center) >= m }, the
        image of the z-disc around u_center under the swap z -> 1/z."""
        return NormalForm.z_disc(cfg, u_center, m).image(GL2(cfg, 0, 1, 1, 0))

    def image(self, g: GL2) -> "NormalForm":
        """The exact image { x.g : x in ball }."""
        comp, center, m = _disc_image(self.p, g, self.center, self.m)
        if abs(m) > g.cfg.N - 2:
            raise PrecisionError(f"radius exponent {m} beyond working precision N={g.cfg.N}")
        return NormalForm(self.p, comp != self.complement, _reduce_fraction(self.p, center, m), m)

    @property
    def cell(self) -> tuple:
        """The cell key (chart, q, r, flip) of the same set of points."""
        p, c, m = self.p, self.center, self.m
        v = val_fraction(c, p)
        if v is INF or v >= 0:
            # for m <= 0 the center is 0: { val z >= m } is P^1 minus { val 1/z >= 1 - m }
            chart, q, r, flip = ("z", p**m, int(c), False) if m >= 1 else ("w", p ** (1 - m), 0, True)
        else:  # val x = v on the disc, so val(1/x - 1/c) = val(x - c) - 2v
            chart, q, r, flip = "w", p ** (m - 2 * v), int(_reduce_fraction(p, 1 / c, m - 2 * v)), False
        return (chart, q, r, flip != self.complement)

    def chart_data(self):
        """(chart, center value in that chart's coordinate, radius exponent)."""
        v = val_fraction(self.center, self.p)
        if not self.complement:
            if v is INF or v >= 0:
                return ("z", self.center, self.m)
            mu = self.m - 2 * v
            return ("w", _reduce_fraction(self.p, 1 / self.center, mu), mu)
        if self.center == 0:
            return ("w", Fraction(0), 1 - self.m)
        return ("c", self.center, self.m)

    def sort_key(self):
        c = self.center
        return (self.complement, c.numerator, c.denominator, self.m)

    def member_value(self, x) -> bool:
        """Membership for an exact value: a Fraction/int, or None for infinity."""
        if x is None:
            return self.complement
        d = val_fraction(Fraction(x) - self.center, self.p)
        return (d <= self.m - 1) if self.complement else (d >= self.m)

    def member_point(self, pt: ProjPoint) -> bool:
        return self.member_value(None if pt.is_infinity() else pt.z_coord())


def _level(q: int, p: int) -> int:
    d = val_int(q, p)
    assert q == p**d and d >= 1, "cell modulus is not a positive power of p"
    return d


def _form(cfg: PadicConfig, center, m: int, complement: bool, chart: str) -> NormalForm:
    """{ x : val(x - center) >= m } (chart "z") or { x : val(1/x - center) >= m }
    (chart "w"), or, when complement, every other point."""
    nf = NormalForm.z_disc(cfg, center, m) if chart == "z" else NormalForm.u_disc(cfg, center, m)
    return replace(nf, complement=nf.complement != complement)


def normal_form(ball: Ball) -> NormalForm:
    """The ball's normal form, built from its key by the normal-form
    constructors: the z-disc r + qZ_p, or for chart w the swap image of that
    disc, complemented when flipped.  The swap is exact, so 2d + 2 digits are
    plenty for a level-d key."""
    chart, q, r, flip = ball.cell
    d = _level(q, ball.p)
    return _form(PadicConfig(ball.p, 2 * d + 2), r, d, flip, chart)


def disc(cfg: PadicConfig, center, m: int, complement: bool = False, chart: str = "z") -> Ball:
    """The Ball of that normal form (see _form), built from its key."""
    return Ball(cfg, _form(cfg, center, m, complement, chart).cell)


def scaled_integral(g: GL2) -> GL2:
    """Projectively equal matrix with min entry valuation 0."""
    p = g.cfg.p
    scale = Fraction(p) ** -min(val_fraction(e, p) for e in g.entries() if e)
    return GL2(g.cfg, *(e * scale for e in g.entries()))


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
        return ("w", int(_reduce_fraction(cfg.p, pt.u_coord(), M)))
    return ("z", int(_reduce_fraction(cfg.p, pt.z_coord(), M)))


def required_level(ball: Ball) -> int:
    """Smallest cell level M at which every level-M cell is either inside
    this ball or disjoint from it (resolving both charts)."""
    nf = normal_form(ball)
    v = val_fraction(nf.center, nf.p)
    if nf.center == 0:
        base = max(nf.m, 1 - nf.m)
    else:
        base = nf.m if v >= 0 else nf.m - 2 * v
    return max(1, base)


def ball_cells(cfg: PadicConfig, ball: Ball, M: int):
    """The set of level-M cell ids whose cells lie inside the ball.

    Needs M at least the ball's required level, so that each cell is either
    inside or disjoint; then cell membership reduces to its center.
    """
    assert M >= required_level(ball), "cell level too coarse for this ball"
    nf = normal_form(ball)
    return frozenset(cid for cid in cell_ids(cfg, M) if nf.member_value(cell_value(cid)))


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
    gens = [scaled_integral(sample_group_element(cfg, simplex, k, rng)) for _ in range(generators)]
    guard = cfg.N - 2
    assert guard >= M + 6, "working precision too small for the closure oracle"
    work = p**guard
    int_gens = [tuple(e.numerator * pow(e.denominator, -1, work) % work for e in g.entries()) for g in gens]

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
