"""Congruence-subgroup orbits on P^1(Q_p) as exact discs.

Each level-k orbit of a simplex is a shadow on the Bruhat-Tits tree: the set
of ends beyond one oriented edge x -> y.  For a vertex w they are the ends
beyond the edges x -> y with y at distance k from w and x y's neighbour
toward w; for an edge they are the same, seen from the endpoint w owning the
orbit, over the y whose path from w crosses the other endpoint.  The disc is
D(y) when the last step descends (y is x's child) and P^1 minus D(x) when it
climbs, where D(u) is the residue cell read off u's coordinate.  So the
registry is read off vertex codes alone, in integers, and each disc is built
once from its cell key.

The group side moves vertices, discs and points through projline's lattice
kernel: projline.moebius_ball_image carries a disc's edge by adj(g), and
tree.act_vertex a vertex by g, so orbits move by B -> B.g^{-1} when the
simplex moves by g.  The exact GL2 transport acts only where the group does,
in tree.in_group, factor_edge_group and sampled group elements.

The registry collects all orbit records over a ball of simplices, flags the
minimal ones (the smallest discs: the level-(n+k) residue cells, p^k at each
deepest vertex), links containments, and fixes the total order used by the
boundary matrix: measure descending, then owner direction, then ball key.
check_partition certifies a disjoint cover by exact measure and an antichain
test on the cell keys.
"""

from __future__ import annotations

import random
from functools import cached_property

from .padics import PadicConfig
from .projline import Ball, Frozen, GL2, ProjPoint, _inside, _point_cell
from .tree import (
    OrientedEdge,
    Vertex,
    _simplex_path,
    edges_upto,
    level_exponents,
    neighbors,
    transport,
    vertices_upto,
)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


class OrbitRecord(Frozen):
    """One orbit of the level-k group of a simplex (k is its registry's), stored as its disc."""

    __slots__ = ("simplex", "ball")

    def __init__(self, simplex, ball: Ball):
        object.__setattr__(self, "simplex", simplex)  # Vertex or OrientedEdge
        object.__setattr__(self, "ball", ball)

    def _fields(self) -> tuple:
        return (self.simplex, self.ball)

    def id_str(self) -> str:
        return f"{self.simplex.id_str()}|{self.ball.id_str()}"


def _shadows(x: Vertex, y: Vertex, s: int) -> list:
    """The cell keys of the shadows s steps past the step x -> y: the ends
    beyond the last edge x' -> y' of each path x, y, ..., y' that does not
    turn back, the paths taken through tree.neighbors.  After a descending
    step every step descends, so they are the sub-cells of D(y) at s levels
    below it, in residue order; a path that climbs to its last step gives
    P^1 minus D(x')."""
    p = y.p
    if y.n > x.n:
        chart, q, r = _point_cell(p, y.n, *y.coord)
        return [(chart, q * p**s, c, False) for c in range(r, q * p**s, q)]
    if not s:
        return [(*_point_cell(p, x.n, *x.coord), True)]
    return [key for z in neighbors(y) if z != x for key in _shadows(y, z, s - 1)]


def _orbit_cells(simplex, k: int):
    """The cell keys (Ball.cell) of a simplex's level-k orbit discs in record
    order, each with its owner.  A vertex owns the shadows of the vertices at
    distance k from it, taken through its neighbours in tree.neighbors order.
    An edge's orbits are the child's shadows through the parent, then the
    parent's through the child, each in that endpoint's own order."""
    if isinstance(simplex, Vertex):
        return [(key, simplex) for y in neighbors(simplex) for key in _shadows(simplex, y, k - 1)]
    parent, child = _simplex_path(simplex)
    return [*((key, child) for key in _shadows(child, parent, k - 1)),
            *((key, parent) for key in _shadows(parent, child, k - 1))]


def enumerate_orbits(cfg: PadicConfig, simplex, k: int):
    """All level-k orbit records of a simplex: pairwise-disjoint discs covering P^1."""
    if k < 1:
        raise AssertionError(f"congruence level must be >= 1, got {k}")
    records = [OrbitRecord(simplex, Ball(cfg, key)) for key, _ in _orbit_cells(simplex, k)]
    if len({r.ball for r in records}) != len(records):
        raise AssertionError(f"two orbits of {simplex.id_str()} share a disc")
    return records


def orbit_of_point(cfg: PadicConfig, simplex, k: int, z: ProjPoint) -> OrbitRecord:
    """The orbit record whose disc contains z."""
    return next(r for r in enumerate_orbits(cfg, simplex, k) if r.ball.member_point(z))


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------


class OrbitRegistry:
    """The level-k orbit records of every simplex within distance n of the root.

    OrbitRegistry(cfg, n, k) starts with empty tables (see __init__) and
    build_registry fills them; afterwards only the tables built on first use
    (below) fill in, and nothing changes what is there.  Each record
    has a dense integer index: vertex records come first, then edge records,
    both in the iteration order of ``vertex_records`` / ``edge_records``;
    ``records[i]`` is record i and ``index[rec]`` is i.  Per-index tables:

    * ``minimal[i]`` for a vertex record i: it is a minimal record;
    * ``owner[i]`` for an edge record i: the index of the record with the
      same disc at the endpoint owning the orbit.

    Every disc is a residue cell of P^1 or the complement of one
    (``Ball.cell``), and its mass is read off that cell.  The registry holds
    one Ball per distinct disc, shared by every record of it.  The minimal
    records are the smallest discs: the level-(n+k) cells, which only the p^k
    finest orbits of each deepest vertex reach.  ``index`` is built on first
    use: the build itself identifies records by position.

    The distinct vertex-record discs have dense ids too: ``balls[b]`` is disc
    b, superset-first, and ``ball_of[i]`` is record i's (an edge record takes
    its owner's).  The containment poset is one relation on ids, ``over``:
    ball id -> the ascending ids of the balls strictly containing it.
    ``min_cover``, ``edge_subs``, ``ball_chain`` and the orbits dump's
    parents/children are read off it comparing integers only.  These tables
    build on first use, so counting-only callers never pay for the quadratic
    relation.  ``nonmin_order``, the non-minimal vertex record indices in the
    boundary matrix's total order (_total_order_key), builds on first use as
    well, so only a caller that builds the matrix sorts.

    The chains layer's step tables fill on first use and belong to this
    registry alone: ``transitions``, (source ball id, target ball id) -> the
    transition of one step of ``ball_chain``, shared by every degree; and
    ``routes``, (source ball id, target ball id, degree bound) -> ((ball,
    operator), ...) along ``ball_chain``.
    """

    def __init__(self, cfg: PadicConfig, n: int, k: int):
        self.cfg = cfg
        self.n = n
        self.k = k
        self.vertex_records = {}  # Vertex -> [OrbitRecord]
        self.edge_records = {}  # OrientedEdge -> [OrbitRecord]
        self.records = []  # index -> OrbitRecord
        self.minimal = []  # vertex record index -> bool
        self.owner = {}  # edge record index -> vertex record index
        self.transitions = {}  # (a, b) -> one step's transition, for every d
        self.routes = {}  # (a, b, d) -> route

    @property
    def p(self) -> int:
        return self.cfg.p

    def vertices(self):
        return list(self.vertex_records)

    def edges(self):
        return list(self.edge_records)

    def all_vertex_records(self):
        return self.records[: len(self.minimal)]

    def all_edge_records(self):
        return self.records[len(self.minimal) :]

    def edge_ids(self):
        return range(len(self.minimal), len(self.records))

    def minimal_records(self):
        return [r for r, m in zip(self.records, self.minimal) if m]

    def nonminimal_records(self):
        return [r for r, m in zip(self.records, self.minimal) if not m]

    @cached_property
    def index(self) -> dict:
        """OrbitRecord -> its index."""
        return {r: i for i, r in enumerate(self.records)}

    # -- the containment relation and the tables read off it, on first use -----

    @cached_property
    def balls(self) -> list:
        """Ball id -> the distinct vertex-record discs, superset-first."""
        distinct = {r.ball for r in self.all_vertex_records()}
        return sorted(distinct, key=lambda b: (-b.measure(), b.sort_key()))

    @cached_property
    def ball_of(self) -> list:
        """Record index -> the id of its disc (an edge record's is its owner's)."""
        ids = {b: i for i, b in enumerate(self.balls)}
        out = [ids[r.ball] for r in self.all_vertex_records()]
        return out + [out[self.owner[i]] for i in self.edge_ids()]

    @cached_property
    def over(self) -> list:
        """Ball id -> the ascending ids of the balls strictly containing it.
        The balls are not laminar (two whose union is P^1 overlap without
        nesting), so each ball is tested against every smaller id: a strict
        superset has larger measure, so it comes first."""
        balls = self.balls
        return [[a for a in range(i) if b.subset(balls[a])] for i, b in enumerate(balls)]

    @cached_property
    def min_cover(self) -> list:
        """Vertex record index -> indices of the minimal records inside its disc."""
        inside = [[] for _ in self.balls]  # ball id -> minimal records inside it
        for j, m in enumerate(self.minimal):
            if m:
                b = self.ball_of[j]
                for a in (b, *self.over[b]):
                    inside[a].append(j)
        return [inside[b] for b in self.ball_of[: len(self.minimal)]]

    @cached_property
    def edge_subs(self) -> dict:
        """Edge record index -> indices of the records strictly inside the edge
        orbit at the endpoint not owning it."""
        out = {}
        for i in self.edge_ids():
            e = self.records[i].simplex
            other = e.dst if self.records[self.owner[i]].simplex == e.src else e.src
            b = self.ball_of[i]
            subs = [j for j in (self.index[q] for q in self.vertex_records[other])
                    if b in self.over[self.ball_of[j]]]
            if len(subs) != self.p:
                raise AssertionError("an edge orbit splits into exactly q orbits opposite its owner")
            out[i] = subs
        return out

    @cached_property
    def nonmin_order(self) -> list:
        """The non-minimal vertex record indices in the boundary matrix's
        total order (_total_order_key)."""
        nonmin = [i for i, m in enumerate(self.minimal) if not m]
        return sorted(nonmin, key=lambda i: _total_order_key(self.records[i]))

    def ball_chain(self, src: int, dst: int) -> list:
        """Ids of every registry ball between dst and src, superset-first.  Balls
        that meet without nesting cover P^1, so below a proper src they nest."""
        hit = [b for b in self.over[dst] if b == src or src in self.over[b]] + [dst]
        if hit[0] != src:
            raise AssertionError(f"ball {dst} lies in no chain below ball {src}")
        return hit


def _total_order_key(rec: OrbitRecord):
    # Measure-descending refines inclusion strictly; ties broken by the owner
    # vertex's direction, then by the ball's canonical key.  The measure is
    # read off the cell: a complement (mass 1 + 1/p - 1/q) outweighs every
    # cell (mass 1/q), and a finer hole weighs more.
    _, q, _, flip = rec.ball.cell
    return ((0, -q) if flip else (1, q), rec.simplex.sort_key(), rec.ball.sort_key())


def build_registry(cfg: PadicConfig, n: int, k: int) -> OrbitRegistry:
    """All orbit records for simplices within distance n of the root, built
    in integers (_orbit_cells): one Ball per distinct disc, shared by every
    record of that disc."""
    if n < 0 or k < 1:
        raise AssertionError(f"need n >= 0 and k >= 1, got n={n}, k={k}")
    reg = OrbitRegistry(cfg, n, k)
    p = cfg.p
    discs = {}  # cell key -> its one Ball
    at = {}  # (vertex, cell key) -> the vertex record's index
    records = reg.records

    def add(simplex, key):
        ball = discs.get(key)
        if ball is None:
            ball = discs[key] = Ball(cfg, key)
        rec = OrbitRecord(simplex, ball)
        records.append(rec)
        return rec

    for v in vertices_upto(p, n):
        recs = reg.vertex_records[v] = []
        for key, _ in _orbit_cells(v, k):
            at[v, key] = len(records)
            recs.append(add(v, key))
    finest = p ** (n + k)  # the minimal records: the level-(n+k) cells
    reg.minimal = [n >= 1 and not r.ball.cell[3] and r.ball.cell[1] == finest for r in records]
    for e in edges_upto(p, n):
        recs = reg.edge_records[e] = []
        for key, w in _orbit_cells(e, k):  # w: the endpoint owning the orbit
            rec = add(e, key)
            if (w, key) not in at:
                raise AssertionError(f"edge orbit {rec!r} has no record at its owner")
            reg.owner[len(records) - 1] = at[w, key]
            recs.append(rec)
    return reg


def minimal_orbits(reg: OrbitRegistry):
    """The minimal records; their balls partition P^1 (a separate check)."""
    if reg.n < 1:
        raise AssertionError("minimal orbits need n >= 1")
    return reg.minimal_records()


def edge_orbit_owner(reg: OrbitRegistry, rec: OrbitRecord) -> Vertex:
    """The unique endpoint whose own registry holds the same ball."""
    if not isinstance(rec.simplex, OrientedEdge):
        raise AssertionError(f"{rec.id_str()} is not an edge orbit")
    hits = [v for v in rec.simplex.endpoints() if OrbitRecord(v, rec.ball) in reg.index]
    if len(hits) != 1:
        raise AssertionError(
            f"edge orbit {rec.id_str()} owned by {len(hits)} endpoints; expected exactly one"
        )
    return hits[0]


# ---------------------------------------------------------------------------
# partitions and counts
# ---------------------------------------------------------------------------


def check_partition(cfg: PadicConfig, balls) -> bool:
    """Exact disjoint-cover test: the balls' exact measures sum to the measure
    1 + 1/p of P^1, and no two of them meet.  Pairwise disjoint balls of full
    total measure cover P^1, since any uncovered part would be a nonempty open
    set of positive measure.

    Disjointness is decided on the cell keys (Ball.cell) in one pass: two
    complements of cells always meet, so there is at most one; a cell misses
    it exactly when it lies inside its hole; and two cells, which nest or
    miss, are disjoint unless one is an ancestor of, or equal to, the other,
    which each cell tests against the set of cells at its coarser levels.
    Measures are summed in integers, in units of the finest cell."""
    cells = [b.cell for b in balls]
    p = cfg.p
    unit = max((q for _, q, _, _ in cells), default=p)
    mass = sum(unit + unit // p - unit // q if flip else unit // q for _, q, _, flip in cells)
    if mass != unit + unit // p:
        return False
    holes = [c for c in cells if c[3]]
    plain = {c[:3] for c in cells if not c[3]}
    if len(holes) > 1 or len(plain) + len(holes) != len(cells):
        return False
    for chart, q, r in plain:
        if any(not _inside((chart, q, r), hole) for hole in holes):
            return False
        up = q // p
        while up > 1:
            if (chart, up, r % up) in plain:
                return False
            up //= p
    return True


def expected_orbit_count(p: int, k: int, simplex) -> int:
    if isinstance(simplex, Vertex):
        return (p + 1) * p ** (k - 1)
    return 2 * p ** (k - 1)


def nonminimal_count_formula(p: int, k: int, n: int) -> int:
    return 2 * p ** (k - 1) * (p + 1) * (p**n - 1) // (p - 1)


def verify_counts(reg: OrbitRegistry) -> dict:
    """Counting certificates; each row carries expected/actual and a verdict,
    and the report's verdict and counterexamples are read off the rows."""
    p, k, n = reg.p, reg.k, reg.n
    rows = []

    def row(name, expected, actual):
        rows.append({"name": name, "expected": expected, "actual": actual,
                     "pass": expected == actual, "detail": ""})

    for i in range(1, n + 1):
        row(
            f"vertices at distance {i}",
            (p + 1) * p ** (i - 1),
            sum(1 for v in reg.vertices() if v.n == i),
        )
    for name, table in (("vertex orbit counts (q+1)q^(k-1) everywhere", reg.vertex_records),
                        ("edge orbit counts 2q^(k-1) everywhere", reg.edge_records)):
        bad = [s.id_str() for s, recs in table.items() if len(recs) != expected_orbit_count(p, k, s)]
        row(name, [], bad)

    if n >= 1:
        mincount = {v: 0 for v in reg.vertices()}
        for r in reg.minimal_records():
            mincount[r.simplex] += 1
        bad_deep = [v.id_str() for v, c in mincount.items() if v.n == n and c != p**k]
        row("q^k minimal orbits at every deepest vertex", [], bad_deep)
        bad_shallow = [v.id_str() for v, c in mincount.items() if v.n < n and c != 0]
        row("no minimal orbits above the deepest layer", [], bad_shallow)

        r_formula = nonminimal_count_formula(p, k, n)
        row("non-minimal record count", r_formula, len(reg.nonminimal_records()))
        row("edge record count", r_formula, sum(len(v) for v in reg.edge_records.values()))

        # the set identity: edge records biject onto non-minimal vertex records.
        # Each vertex record is read once, (its vertex's position, its disc's
        # cell key) -> its index, and each edge orbit's owner is the endpoint
        # holding its cell, found without reg.owner
        at = {v: i for i, v in enumerate(reg.vertex_records)}
        keys = [(i, r.ball.cell) for i, recs in enumerate(reg.vertex_records.values()) for r in recs]
        held = {key: j for j, key in enumerate(keys)}
        owned = set()
        collisions = []
        edge = None
        for rec in reg.all_edge_records():
            if rec.simplex is not edge:  # an edge's records are consecutive
                edge = rec.simplex
                ends = [at[v] for v in edge.endpoints() if v in at]
            cell = rec.ball.cell
            hits = [held[i, cell] for i in ends if (i, cell) in held]
            if len(hits) != 1:
                raise AssertionError(
                    f"edge orbit {rec.id_str()} owned by {len(hits)} endpoints; expected exactly one"
                )
            if hits[0] in owned:
                collisions.append(rec.id_str())
            owned.add(hits[0])
        row("edge->vertex record map injective", [], collisions)
        nonmin = {held[key] for key, m in zip(keys, reg.minimal) if not m}
        diff = sorted(reg.records[j].id_str() for j in owned ^ nonmin)
        row("edge records = non-minimal vertex records (as owner/ball sets)", [], diff)

    return {
        "params": {"p": p, "k": k, "n": n},
        "rows": rows,
        "pass": all(r["pass"] for r in rows),
        "counterexamples": [r for r in rows if not r["pass"]],
    }


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------


def sample_group_element(cfg: PadicConfig, simplex, k: int, rng: random.Random) -> GL2:
    """Seeded random element of the level-k group of a simplex, built from the
    explicit congruence pattern in the standard frame and conjugated over:
    h.std.h^-1 for h the transport, in exact arithmetic."""
    p = cfg.p
    span = p ** min(cfg.N - 2, k + 5)
    a, b, c, d = (rng.randrange(span) for _ in range(4))
    qa, qb, qc, qd = (p**e for e in level_exponents(simplex, k))
    h = transport(cfg, simplex)
    return h @ GL2(cfg, 1 + qa * a, qb * b, qc * c, 1 + qd * d) @ h.inverse()
