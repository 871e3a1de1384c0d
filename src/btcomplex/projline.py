"""The projective line P^1(Q_p), Moebius action, and an exact calculus of discs.

Points and matrices hold exact rationals, each entry passed through exact: a
point is (z : 1), or (1 : 0) for infinity, and a matrix acts on row pairs from
the right, (x, y).g = (xa + yc, xb + yd), i.e. z.g = (az + c)/(bz + d).

A Ball is any closed ball of P^1(Q_p): the set of ends beyond one oriented
edge of the Bruhat-Tits tree.  It is stored as one integer key, its residue
cell (chart, q, r, flip).  The level-d cells, q = p^d with d >= 1, partition
P^1: the points whose coordinate z lies in Z_p with z = r mod q (chart "z"),
and the points whose coordinate 1/z lies in pZ_p with 1/z = r mod q (chart
"w").  They are the depth-d vertices of the tree, so two cells nest or miss,
and every ball is one cell or, when flip, the complement of one.  Equality,
containment and mass are decided on the keys.

One integer lattice kernel moves vertices, discs and points: _act_coord
applies an integer matrix to a vertex code, and _point_cell reads the cell
of ends beyond a vertex, or holding a point, off a unimodular pair.  A ball's
Moebius image is the image of its oriented edge under adj(g), and membership
compares the point's cell with the key; the tree's vertex action uses the
same kernel.  Every Moebius image of a ball is again a ball, so disc
transport is closed and exact.

Every other presentation is derived from the key, once per Ball.  The normal
form is { x : val(x - center) >= m } (a finite disc) or its complement plus
infinity, with the center reduced mod p^m; the sort key reads it.  Display
and JSON use the chart vocabulary:

  chart "z": finite disc with val(center) >= 0, coordinate z
  chart "w": disc in the coordinate u = 1/z (either a ball around infinity,
             or a bounded disc sitting at negative valuation)
  chart "c": complement of a z-disc that contains both 0 and infinity
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .padics import PadicConfig, PrecisionError, val_int


# ---------------------------------------------------------------------------
# immutable values
# ---------------------------------------------------------------------------


class Frozen:
    """Base of the package's immutable values (Ball, the tree's Vertex and
    OrientedEdge, OrbitRecord, Character).  A subclass lists its fields in
    __slots__, sets each once in __init__ through object.__setattr__, and
    returns them from _fields.  An instance equals only an instance of its
    own class with equal fields, hashes as the tuple of its fields, and
    refuses assignment.  A value prints as its id_str, unless its class
    prints it otherwise (Ball and Character do)."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return self.id_str()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name} to {value!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name}: {type(self).__name__} is immutable")


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------


def exact(x) -> Fraction:
    """A Fraction as it is, or an int (not a bool) converted; all else is refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"{type(x).__name__} is not an exact rational")


class ProjPoint:
    """A point of P^1(Q), stored exactly as (z : 1), or as (1 : 0) for infinity."""

    __slots__ = ("cfg", "x", "y")

    def __init__(self, cfg: PadicConfig, x, y):
        x, y = exact(x), exact(y)
        if not (x or y):
            raise ValueError("(0 : 0) is not a projective point")
        self.cfg = cfg
        self.x, self.y = (x / y, Fraction(1)) if y else (Fraction(1), y)

    @classmethod
    def from_z(cls, cfg: PadicConfig, z) -> "ProjPoint":
        return cls(cfg, z, 1)

    @classmethod
    def infinity(cls, cfg: PadicConfig) -> "ProjPoint":
        return cls(cfg, 1, 0)

    def is_infinity(self) -> bool:
        return not self.y

    def z_coord(self) -> Fraction:
        if self.is_infinity():
            raise ZeroDivisionError("the point at infinity has no z-coordinate")
        return self.x

    def u_coord(self) -> Fraction:
        """The coordinate u = 1/z = y/x; defined away from z = 0."""
        if not self.x:
            raise ZeroDivisionError("u = 1/z is undefined at z = 0")
        return self.y / self.x

    def in_z_domain(self) -> bool:
        """True iff |z| <= 1 (the point lies in the closed unit disc)."""
        return (not self.is_infinity()) and self.x.denominator % self.cfg.p != 0

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    __hash__ = None

    def __repr__(self):
        if self.is_infinity():
            return "ProjPoint(inf)"
        return f"ProjPoint(z={self.cfg.from_fraction(self.x).serialize()})"


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


class GL2:
    """An invertible 2x2 matrix of exact rationals acting on P^1 from the right."""

    __slots__ = ("cfg", "a", "b", "c", "d")

    def __init__(self, cfg: PadicConfig, a, b, c, d):
        self.cfg = cfg
        self.a, self.b, self.c, self.d = a, b, c, d = exact(a), exact(b), exact(c), exact(d)
        if a * d == b * c:
            raise ValueError("matrix is singular")

    @classmethod
    def identity(cls, cfg: PadicConfig) -> "GL2":
        return cls(cfg, 1, 0, 0, 1)

    @classmethod
    def from_rows(cls, cfg: PadicConfig, rows) -> "GL2":
        (a, b), (c, d) = rows
        return cls(cfg, a, b, c, d)

    @classmethod
    def quotient(cls, cfg: PadicConfig, top, bottom) -> "GL2":
        """top . bottom^-1 of exact rows (ints or Fractions), in one construction."""
        (a, b), (c, d) = bottom
        det = Fraction(a * d - b * c)
        (e, f), (g, h) = top
        return cls(cfg, (e * d - f * c) / det, (f * a - e * b) / det,
                   (g * d - h * c) / det, (h * a - g * b) / det)

    def det(self) -> Fraction:
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

    def __eq__(self, other):
        if not isinstance(other, GL2):
            return NotImplemented
        return self.entries() == other.entries()

    __hash__ = None

    def __repr__(self):
        a, b, c, d = (self.cfg.from_fraction(e).serialize() for e in self.entries())
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


class Ball(Frozen):
    """Closed ball of P^1(Q_p), identified by its cell key (chart, q, r, flip):
    the points whose coordinate z (chart "z") or 1/z (chart "w") is r mod q,
    q = p^d with d >= 1 and 0 <= r < q, or, when flip, every other point.
    Two Balls are set-equal iff their keys are equal.

    Ball(cfg, key) is the one constructor; its fields are p and cell.  It
    raises ValueError on a key that is not a cell key: a chart other than
    "z" or "w", q not p^d with d >= 1, r outside 0 <= r < q, a w-cell r
    prime to p, or a flip that is not a bool.  It reads the radius exponent
    m off the key (_radius_exponent) and raises PrecisionError when
    |m| > N - 2.  The normal form and the chart data are derived on first
    use and kept in the Ball's __dict__."""

    __slots__ = ("p", "cell", "__dict__")

    def __init__(self, cfg: PadicConfig, key: tuple):
        p = cfg.p
        chart, q, r, flip = key
        d = val_int(q, p) if type(q) is int and q > 1 else 0
        if not (chart in ("z", "w") and d and q == p**d and 0 <= r < q
                and (chart == "z" or r % p == 0) and type(flip) is bool):
            raise ValueError(f"not a cell key: {key!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "cell", key)
        _check_exponent(cfg, _radius_exponent(p, key))

    def _fields(self) -> tuple:
        return (self.p, self.cell)

    @cached_property
    def _normal_form(self) -> tuple:
        """(complement, center, m): the ball is { x : val(x - center) >= m },
        or, when complement, every other point.  A z-cell r mod q is the disc
        of exponent d around r; the w-cell 0 is the complement of
        { val x >= 1 - d }; a w-cell r = p^j u (u a unit) is the disc of
        exponent d - 2j around 1/r, since val x = -j on it."""
        p = self.p
        chart, q, r, flip = self.cell
        m = _radius_exponent(p, self.cell)
        if chart == "z":
            return flip, Fraction(r), m
        if r == 0:
            return not flip, Fraction(0), m
        j = val_int(r, p)  # 1/r is known mod p^(d - j) = p^(m + j)
        return flip, Fraction(pow(r // p**j, -1, p ** (m + j)), p**j), m

    @cached_property
    def _chart(self) -> tuple:
        chart, q, r, flip = self.cell
        if flip and r:
            return ("c", *self._normal_form[1:])
        d = val_int(q, self.p)
        if flip:  # P^1 minus the cell around 0 (or infinity) is a disc around infinity (or 0)
            return ("w" if chart == "z" else "z"), Fraction(0), 1 - d
        return chart, Fraction(r), d

    # -- presentation ---------------------------------------------------------

    def chart_data(self):
        """(chart, center value in that chart's coordinate, radius exponent)."""
        return self._chart

    def member_point(self, pt: ProjPoint) -> bool:
        """The point's primitive integer pair, (1 : 0) for infinity, lies in
        the cell when its own cell at the key's level is the key's; flip
        inverts the answer."""
        chart, q, r, flip = self.cell
        s, t = (pt.x.numerator, pt.x.denominator) if pt.y else (1, 0)
        return (_point_cell(self.p, val_int(q, self.p), s, t) == (chart, q, r)) != flip

    def __hash__(self):
        # the chart is hashed as a flag so that the hash, and the order of
        # sets of balls, is the same in every process
        chart, q, r, flip = self.cell
        return hash((chart == "z", q, r, flip))

    # -- set predicates --------------------------------------------------------

    def subset(self, other: "Ball") -> bool:
        a, b = self.cell, other.cell
        if not b[3]:
            return not a[3] and _inside(a, b)  # a cell's complement lies in no cell
        if a[3]:
            return _inside(b, a)
        return not (_inside(a, b) or _inside(b, a))

    def disjoint(self, other: "Ball") -> bool:
        a, b = self.cell, other.cell
        if a[3] and b[3]:
            return False  # two complements of cells always meet
        if a[3] or b[3]:  # a cell misses a complement exactly inside its hole
            return _inside(b, a) if a[3] else _inside(a, b)
        return not (_inside(a, b) or _inside(b, a))

    def measure(self) -> Fraction:
        """Exact size: Haar mass 1 on the unit disc plus 1/p on the rest of P^1.

        The swap z -> 1/z preserves it, so a level-d cell has mass p^-d in
        either chart."""
        _, q, _, flip = self.cell
        return 1 + Fraction(1, self.p) - Fraction(1, q) if flip else Fraction(1, q)

    def param(self):
        """Exact rows of the M for which t -> t.M maps Z_p onto this ball: the
        ball's canonical coordinate t."""
        chart, c, m = self._chart
        pm = Fraction(self.p) ** m
        if chart == "z":
            return ((pm, 0), (c, 1))  # x = c + p^m t
        if chart == "w":
            return ((0, pm), (1, c))  # 1/x = c + p^m t
        return ((c, 1), (pm / self.p, 0))  # x = c + p^(m-1)/t

    def sort_key(self):
        complement, c, m = self._normal_form
        return (complement, c.numerator, c.denominator, m)

    # -- serialization -----------------------------------------------------------

    def to_json(self, cfg: PadicConfig) -> dict:
        chart, center, m = self._chart
        return {"chart": chart, "center": cfg.from_fraction(center).serialize(), "m": m}

    def id_str(self) -> str:
        chart, center, m = self._chart
        return f"{chart}({center};{m})"

    def __repr__(self):
        return f"Ball[{self.id_str()} @ p={self.p}]"


def _radius_exponent(p: int, cell: tuple) -> int:
    """The radius exponent m of a cell key's normal form (Ball._normal_form),
    in integers: d for a z-cell of level d, 1 - d for the w-cell 0, and
    d - 2 val(r) for any other w-cell r."""
    chart, q, r, _ = cell
    d = val_int(q, p)
    if chart == "z":
        return d
    return 1 - d if r == 0 else d - 2 * val_int(r, p)


def _check_exponent(cfg: PadicConfig, m: int):
    if abs(m) > cfg.N - 2:
        raise PrecisionError(f"radius exponent {m} beyond working precision N={cfg.N}")


def _inside(a: tuple, b: tuple) -> bool:
    """Cell a lies in cell b: the same chart, a no coarser, and r_a = r_b mod q_b."""
    return a[0] == b[0] and a[1] >= b[1] and a[2] % b[1] == b[2]


# ---------------------------------------------------------------------------
# the lattice kernel: vertices, discs and points on the tree
# ---------------------------------------------------------------------------


def _primitive_rows(p: int, matrix) -> tuple:
    """(rows, n): a 2x2 matrix of ints or Fractions, each entry passed through
    exact, scaled to integer rows with no common factor, which span the same
    lattice class, and n the valuation of their determinant.  A singular
    matrix spans no lattice and raises ValueError."""
    ent = [exact(x) for row in matrix for x in row]
    den = lcm(*(e.denominator for e in ent))
    a, b, c, d = (e.numerator * (den // e.denominator) for e in ent)
    det = a * d - b * c
    if not det:
        raise ValueError("singular matrix spans no lattice")
    g = gcd(a, b, c, d)
    return ((a // g, b // g), (c // g, d // g)), val_int(det // (g * g), p)


def _act_coord(p: int, h, n: int, m: int, a: int, b: int):
    """The integer matrix h (rows; det of valuation n) applied to the vertex u
    of coordinate (a : b) at depth m, on coordinate tuples: (D, s, t) with D
    the depth of h.u and (s : t) a unimodular pair whose reduction mod p^D is
    its coordinate, up to a unit.  u's coordinate is (1, b), or (a, 1) for
    any other a, and matters mod p^m only.  h.u is the lattice of
    M = h B, B u's basis matrix, and adj(M) = adj(B) adj(h) has the rows
    (a, b) adj(h) and p^m (0, 1) adj(h) for a = 1, p^m (1, 0) adj(h)
    otherwise.  With p^e the content of those rows, M / p^e is primitive, so
    h.u has depth n + m - 2e, and its coordinate is whichever row stays
    unimodular after division by p^e (the two agree mod p^D).  The one kernel
    reading a vertex off a lattice matrix: for tree.vertex_canonical and
    tree.act_vertex (primitive rows on a vertex), moebius_ball_image (adj(g)
    on a disc's edge) and tree._path_rows (adj(h) on a path's last
    vertex)."""
    (h11, h12), (h21, h22) = h
    r1, r2 = a * h22 - b * h21, b * h11 - a * h12
    q = p**m
    s1, s2 = (-h21 * q, h11 * q) if a == 1 else (h22 * q, -h12 * q)
    e = val_int(gcd(r1, r2, s1, s2), p)
    pe = p**e
    if r1 % (pe * p) or r2 % (pe * p):
        return n + m - 2 * e, r1 // pe, r2 // pe
    return n + m - 2 * e, s1 // pe, s2 // pe


def _point_cell(p: int, d: int, s: int, t: int) -> tuple:
    """(chart, p^d, r) of the level-d residue cell of the ends (x : y) = (s : t)
    mod p^d, for a unimodular pair and d >= 0, in the vocabulary of Ball.cell:
    x/y = r mod p^d (chart "z") when t is a unit, else y/x = r mod p^d (chart
    "w").  For a vertex's coordinate it is D(v), the ends beyond v away from
    the root: (a, 1) is the z-cell a, (1, b) the z-cell 1/b for b a unit and
    the w-cell b for b in pZ.  For a point's primitive pair it is the cell
    holding the point.  At d = 0 the root's (1 : 0) gives ("w", 1, 0), which
    only Vertex.sort_key reads."""
    q = p**d
    if t % p:
        return ("z", q, s * pow(t, -1, q) % q)
    return ("w", q, t * pow(s, -1, q) % q)


def moebius_ball_image(g: GL2, ball: Ball) -> Ball:
    """The exact image { x.g : x in ball }, moved on the tree.

    An unflipped cell is the set of ends beyond the oriented edge x -> y, y
    the vertex at its level whose D(y) it is ((r : 1) for a z-cell, (1 : r)
    for a w-cell) and x y's parent; a flipped one is read on the same edge
    backwards.  The right action sends the row functional of a vertex u to
    its product with g, which vanishes on g^-1.u, so the ends of u go to those
    of adj(g).u, and the edge moves by adj(g) through _act_coord.  The ends
    beyond the moved edge are D(adj(g).y) when that is the deeper endpoint,
    else P^1 minus D(adj(g).x)."""
    p = g.cfg.p
    chart, q, r, flip = ball.cell
    d = val_int(q, p)
    h, n = _primitive_rows(p, ((g.d, -g.b), (-g.c, g.a)))
    y = (r, 1) if chart == "z" else (1, r)
    gy, gx = (_act_coord(p, h, n, m, *y) for m in (d, d - 1))
    if gy[0] > gx[0]:
        return Ball(g.cfg, (*_point_cell(p, *gy), flip))
    return Ball(g.cfg, (*_point_cell(p, *gx), not flip))
