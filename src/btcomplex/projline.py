"""The projective line P^1(Q_p), Moebius action, and an exact calculus of discs.

Points are normalized homogeneous row pairs (x : y) acted on from the right:
(x, y).g = (xa + yc, xb + yd), i.e. z.g = (az + c)/(bz + d) on z = x/y.

A Ball is any closed ball of P^1(Q_p), stored in a canonical normal form:
either a finite disc { x : val(x - c) >= m } (which never contains infinity),
or the complement of one, { x : val(x - c) <= m - 1 } + {infinity}.  Every
Moebius image of a ball is again a ball of this shape, so disc transport is
closed and exact.  For display and JSON the normal form is presented in the
chart vocabulary:

  chart "z": finite disc with val(center) >= 0, coordinate z
  chart "w": disc in the coordinate u = 1/z (either a ball around infinity,
             or a bounded disc sitting at negative valuation)
  chart "c": complement of a z-disc that contains both 0 and infinity
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .padics import INF, PadicConfig, PadicNum, PrecisionError, val_fraction


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


class ProjPoint:
    """Normalized homogeneous pair: min valuation 0, first unit coordinate = 1."""

    __slots__ = ("cfg", "x", "y")

    def __init__(self, cfg: PadicConfig, x: PadicNum, y: PadicNum):
        if x.is_zero() and y.is_zero():
            raise ValueError("(0 : 0) is not a projective point")
        m = min(x.valuation, y.valuation)
        x, y = x.shift(-m), y.shift(-m)
        pivot = x if x.valuation == 0 else y
        self.cfg = cfg
        self.x = x / pivot
        self.y = y / pivot

    @classmethod
    def from_z(cls, cfg: PadicConfig, z) -> "ProjPoint":
        return cls(cfg, cfg.number(z), cfg.one())

    @classmethod
    def infinity(cls, cfg: PadicConfig) -> "ProjPoint":
        return cls(cfg, cfg.one(), cfg.zero())

    def is_infinity(self) -> bool:
        return self.y.is_zero()

    def z_coord(self) -> PadicNum:
        if self.is_infinity():
            raise ZeroDivisionError("the point at infinity has no z-coordinate")
        return self.x / self.y

    def u_coord(self) -> PadicNum:
        """The coordinate u = 1/z = y/x; defined away from z = 0."""
        if self.x.is_zero():
            raise ZeroDivisionError("u = 1/z is undefined at z = 0")
        return self.y / self.x

    def in_z_domain(self) -> bool:
        """True iff |z| <= 1 (the point lies in the closed unit disc)."""
        return (not self.is_infinity()) and self.x.valuation >= self.y.valuation

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    __hash__ = None

    def __repr__(self):
        if self.is_infinity():
            return "ProjPoint(inf)"
        return f"ProjPoint(z={self.z_coord().serialize()})"


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class GL2:
    """An invertible 2x2 matrix acting on P^1 from the right."""

    __slots__ = ("cfg", "a", "b", "c", "d")

    def __init__(self, cfg: PadicConfig, a, b, c, d):
        self.cfg = cfg
        self.a = cfg.number(a)
        self.b = cfg.number(b)
        self.c = cfg.number(c)
        self.d = cfg.number(d)
        if self.det().is_zero():
            raise ValueError("matrix is singular at working precision")

    @classmethod
    def identity(cls, cfg: PadicConfig) -> "GL2":
        return cls(cfg, 1, 0, 0, 1)

    @classmethod
    def from_rows(cls, cfg: PadicConfig, rows) -> "GL2":
        (a, b), (c, d) = rows
        return cls(cfg, a, b, c, d)

    def det(self) -> PadicNum:
        return self.a * self.d - self.b * self.c

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __matmul__(self, other: "GL2") -> "GL2":
        a = self.a * other.a + self.b * other.c
        b = self.a * other.b + self.b * other.d
        c = self.c * other.a + self.d * other.c
        d = self.c * other.b + self.d * other.d
        return GL2(self.cfg, a, b, c, d)

    def inverse(self) -> "GL2":
        dt = self.det()
        return GL2(self.cfg, self.d / dt, -self.b / dt, -self.c / dt, self.a / dt)

    def scaled_integral(self) -> "GL2":
        """Projectively equal matrix with min entry valuation 0."""
        m = min(e.valuation for e in self.entries() if not e.is_zero())
        return GL2(self.cfg, *(e.shift(-m) for e in self.entries()))

    def __eq__(self, other):
        if not isinstance(other, GL2):
            return NotImplemented
        return all(s == o for s, o in zip(self.entries(), other.entries()))

    __hash__ = None

    def __repr__(self):
        a, b, c, d = (e.serialize() for e in self.entries())
        return f"GL2[[{a}, {b}], [{c}, {d}]]"


def moebius_apply(g: GL2, pt: ProjPoint) -> ProjPoint:
    """The right action z.g = (az + c)/(bz + d), with inf.g = a/b."""
    return ProjPoint(
        pt.cfg,
        pt.x * g.a + pt.y * g.c,
        pt.x * g.b + pt.y * g.d,
    )


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------


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


def _canonical_center(cfg: PadicConfig, center, m: int) -> Fraction:
    """Representative of center + p^m Z_p with unit digits reduced, as a Fraction."""
    if isinstance(center, PadicNum):
        return center.residue_class(m)
    return _reduce_fraction(cfg.p, Fraction(center), m)


@dataclass(frozen=True)
class Ball:
    """Canonical closed ball of P^1(Q_p).

    complement=False: { x : val(x - center) >= m }           (finite disc)
    complement=True : { x : val(x - center) <= m - 1 } + inf (complement of one)

    center is the canonical representative mod p^m; two Balls are set-equal
    iff their records are identical.
    """

    p: int
    complement: bool
    center: Fraction
    m: int

    # -- constructors --------------------------------------------------------

    @staticmethod
    def z_disc(cfg: PadicConfig, center, m: int) -> "Ball":
        """{ x in F : |x - center| <= p^-m }."""
        _check_exponent(cfg, m)
        return Ball(cfg.p, False, _canonical_center(cfg, center, m), m)

    @staticmethod
    def w_disc(cfg: PadicConfig, w_center, m: int) -> "Ball":
        """{ x in F* + {inf} : |1/x - 1/w_center| <= p^-m }; w_center=None means inf."""
        _check_exponent(cfg, m)
        if w_center is None:
            u = cfg.zero()
        else:
            w = cfg.number(w_center)
            if w.is_zero():
                raise ValueError("w-chart center must be nonzero (use the z chart)")
            u = w.inverse()
        return Ball.u_disc(cfg, u, m)

    @staticmethod
    def u_disc(cfg: PadicConfig, u_center, m: int) -> "Ball":
        """Disc in the coordinate u = 1/z: { x : val(1/x - u_center) >= m }, the
        image of the z-disc around u_center under the swap z -> 1/z."""
        return moebius_ball_image(GL2(cfg, 0, 1, 1, 0), Ball.z_disc(cfg, u_center, m))

    @staticmethod
    def complement_z(cfg: PadicConfig, center, m: int) -> "Ball":
        """P^1 minus the finite disc { val(x - center) >= m }."""
        _check_exponent(cfg, m)
        return Ball(cfg.p, True, _canonical_center(cfg, center, m), m)

    # -- presentation ---------------------------------------------------------

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

    # -- set predicates --------------------------------------------------------

    def member_value(self, x) -> bool:
        """Membership for an exact value: a Fraction/int, or None for infinity."""
        if x is None:
            return self.complement
        d = val_fraction(Fraction(x) - self.center, self.p)
        return (d <= self.m - 1) if self.complement else (d >= self.m)

    def member_point(self, cfg: PadicConfig, pt: ProjPoint) -> bool:
        if pt.is_infinity():
            return self.complement
        d = (pt.z_coord() - cfg.from_fraction(self.center)).valuation
        return (d <= self.m - 1) if self.complement else (d >= self.m)

    def subset(self, other: "Ball") -> bool:
        return _misses(self, True, other)

    def disjoint(self, other: "Ball") -> bool:
        return _misses(self, False, other)

    def measure(self) -> Fraction:
        """Exact size: Haar mass 1 on the unit disc plus 1/p on the rest of P^1.

        The swap z -> 1/z preserves it, so a finite disc of exponent m in its
        own chart has mass p^-m; the one exception, { val z >= m } with m < 0,
        is P^1 minus the u-disc of exponent 1 - m."""
        total = Fraction(1) + Fraction(1, self.p)
        if self.complement:
            return total - Ball(self.p, False, self.center, self.m).measure()
        m = self.chart_data()[2]
        if m < 0:
            return total - Fraction(1, self.p ** (1 - m))
        return Fraction(1, self.p**m)

    def param(self):
        """Exact rows of the M for which t -> t.M maps Z_p onto this ball: the
        ball's canonical coordinate t."""
        chart, c, m = self.chart_data()
        pm = Fraction(self.p) ** m
        if chart == "z":
            return ((pm, 0), (c, 1))  # x = c + p^m t
        if chart == "w":
            return ((0, pm), (1, c))  # 1/x = c + p^m t
        return ((c, 1), (pm / self.p, 0))  # x = c + p^(m-1)/t

    def required_level(self) -> int:
        """Smallest cell level M at which every level-M cell is either inside
        this ball or disjoint from it (resolving both charts)."""
        v = val_fraction(self.center, self.p)
        if self.center == 0:
            base = max(self.m, 1 - self.m)
        else:
            base = self.m if v >= 0 else self.m - 2 * v
        return max(1, base)

    def sort_key(self):
        c = self.center
        return (self.complement, c.numerator, c.denominator, self.m)

    # -- serialization -----------------------------------------------------------

    def to_json(self, cfg: PadicConfig) -> dict:
        chart, center, m = self.chart_data()
        return {"chart": chart, "center": cfg.from_fraction(center).serialize(), "m": m}

    def id_str(self) -> str:
        chart, center, m = self.chart_data()
        return f"{chart}({center};{m})"

    def __repr__(self):
        return f"Ball[{self.id_str()} @ p={self.p}]"


def _check_exponent(cfg: PadicConfig, m: int):
    if abs(m) > cfg.N - 2:
        raise PrecisionError(f"radius exponent {m} beyond working precision N={cfg.N}")


def _misses(a: Ball, flip: bool, b: Ball) -> bool:
    """a is disjoint from b, or from P^1 minus b when flip: the same normal form
    with the complement flag flipped, so a is inside b exactly when it misses
    P^1 minus b."""
    b_comp = b.complement != flip
    if a.complement and b_comp:
        return False  # both contain infinity
    if not (a.complement or b_comp):
        return val_fraction(a.center - b.center, a.p) < min(a.m, b.m)
    # a finite disc misses the complement of a hole exactly when it lies in the
    # hole; the exponent test comes first, as it is far cheaper
    disc, hole = (b.m, a.m) if a.complement else (a.m, b.m)
    return disc >= hole and val_fraction(a.center - b.center, a.p) >= hole


# ---------------------------------------------------------------------------
# Moebius images of balls
# ---------------------------------------------------------------------------


def _disc_image(cfg: PadicConfig, g: GL2, center: Fraction, m: int):
    """Image of the finite disc center + p^m Z_p under z.g; returns a normal form."""
    c = cfg.from_fraction(center)
    a, b, cg, d = g.entries()
    if b.is_zero():
        # affine map (az + c)/d
        img = (a * c + cg) / d
        return (False, img, m + a.valuation - d.valuation)
    pole = -(d / b)
    s = (c - pole).valuation
    vB = g.det().valuation - 2 * b.valuation
    if s >= m:  # pole inside the disc: image is a complement ball
        A = a / b
        return (True, A, vB - m + 1)
    img = (a * c + cg) / (b * c + d)
    return (False, img, m + vB - 2 * s)


def moebius_ball_image(g: GL2, ball: Ball) -> Ball:
    """The exact image { x.g : x in ball }."""
    cfg = g.cfg
    comp, ctr, m = _disc_image(cfg, g, ball.center, ball.m)
    if ball.complement:
        comp = not comp
    _check_exponent(cfg, m)
    center = ctr.residue_class(m)
    return Ball(cfg.p, comp, center, m)


# ---------------------------------------------------------------------------
# residue cells: the standard partition of P^1 at a given depth, the
# enumeration oracle for the disc predicates above
# ---------------------------------------------------------------------------


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


def ball_cells(cfg: PadicConfig, ball: Ball, M: int):
    """The set of level-M cell ids whose cells lie inside the ball.

    Needs M at least the ball's required level, so that each cell is either
    inside or disjoint; then cell membership reduces to its center.
    """
    assert M >= ball.required_level(), "cell level too coarse for this ball"
    return frozenset(cid for cid in cell_ids(cfg, M) if ball.member_value(cell_value(cid)))
