"""Congruence-subgroup orbits on P^1(Q_p) as exact discs.

For the standard vertex the level-k orbits are the discs of radius p^-k in
both charts; for the standard edge they are the discs of radius p^-(k-1) on
the unit disc and p^-k on the outside.  Every other simplex is handled by
transporting the standard picture with the deterministic path-transitivity
element: orbits move by B -> B.g^{-1} when the simplex moves by g.

The registry collects all orbit records over a ball of simplices, flags the
minimal ones (the smallest discs: the level-(n+k) residue cells, p^k at each
deepest vertex), links containments, and fixes the total order used by the
boundary matrix: measure descending, then owner direction, then ball key.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache, cached_property
from fractions import Fraction
from itertools import combinations

from .padics import PadicConfig
from .projline import Ball, GL2, ProjPoint, moebius_ball_image
from .tree import (
    OrientedEdge,
    Vertex,
    edges_upto,
    level_exponents,
    transport,
    vertices_upto,
)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitRecord:
    """One orbit of the level-k group of a simplex, stored as its disc."""

    simplex: object  # Vertex or OrientedEdge
    k: int
    ball: Ball

    def id_str(self) -> str:
        return f"{self.simplex.id_str()}|{self.ball.id_str()}"

    def __repr__(self):
        return self.id_str()


@cache
def _standard_vertex_balls(cfg: PadicConfig, k: int):
    p = cfg.p
    return (*(Ball.z_disc(cfg, r, k) for r in range(p**k)),
            *(Ball.u_disc(cfg, u, k) for u in range(0, p**k, p)))


@cache
def _standard_edge_balls(cfg: PadicConfig, k: int):
    p = cfg.p
    return (*(Ball.z_disc(cfg, r, k - 1) for r in range(p ** (k - 1))),
            *(Ball.u_disc(cfg, u, k) for u in range(0, p**k, p)))


def _standard_balls(cfg: PadicConfig, simplex, k: int):
    """The level-k orbit discs of the standard simplex of the same kind, built
    once per (cfg, k): for v0 the discs of radius p^-k in both charts; for
    (v0, v1) the discs of radius p^-(k-1) on the unit disc, which are v1's
    orbits, then v0's discs of radius p^-k outside it."""
    if isinstance(simplex, Vertex):
        return _standard_vertex_balls(cfg, k)
    return _standard_edge_balls(cfg, k)


def enumerate_orbits(cfg: PadicConfig, simplex, k: int):
    """All level-k orbit records of a simplex: pairwise-disjoint discs covering P^1."""
    assert k >= 1
    hinv = transport(cfg, simplex).inverse()
    records = [OrbitRecord(simplex, k, moebius_ball_image(hinv, b))
               for b in _standard_balls(cfg, simplex, k)]
    assert len({r.ball for r in records}) == len(records)
    return records


def orbit_of_point(cfg: PadicConfig, simplex, k: int, z: ProjPoint) -> OrbitRecord:
    """The orbit record whose disc contains z."""
    return next(r for r in enumerate_orbits(cfg, simplex, k) if r.ball.member_point(cfg, z))


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------


@dataclass
class OrbitRegistry:
    """The level-k orbit records of every simplex within distance n of the root.

    build_registry fills it; afterwards only the tables built on first use
    (below) fill in, and nothing changes what is there.  Each record
    has a dense integer index: vertex records come first, then edge records,
    both in the iteration order of ``vertex_records`` / ``edge_records``;
    ``records[i]`` is record i and ``index[rec]`` is i.  Per-index tables:

    * ``minimal[i]`` for a vertex record i: it is a minimal record;
    * ``owner[i]`` for an edge record i: the index of the record with the
      same disc at the endpoint owning the orbit.

    Every disc is a residue cell of P^1 or the complement of one
    (``Ball.cell``), and its mass is read off that cell.  The minimal records
    are the smallest discs: the level-(n+k) cells, which only the p^k finest
    orbits of each deepest vertex reach.

    The distinct vertex-record discs have dense ids too: ``balls[b]`` is disc
    b, superset-first, and ``ball_of[i]`` is record i's (an edge record takes
    its owner's).  The containment poset is one relation on ids, ``over``:
    ball id -> the ascending ids of the balls strictly containing it.
    ``min_cover``, ``edge_subs``, ``ball_chain`` and the orbits dump's
    parents/children are read off it comparing integers only.  These tables
    build on first use, so counting-only callers never pay for the quadratic
    relation.

    The chains layer's route table fills on first use and belongs to this
    registry alone: ``routes``, (source ball id, target ball id, degree bound)
    -> ((ball, operator), ...) along ``ball_chain``.
    """

    cfg: PadicConfig
    n: int
    k: int
    vertex_records: dict = field(default_factory=dict)  # Vertex -> [OrbitRecord]
    edge_records: dict = field(default_factory=dict)  # OrientedEdge -> [OrbitRecord]
    records: list = field(default_factory=list)  # index -> OrbitRecord
    index: dict = field(default_factory=dict)  # OrbitRecord -> index
    minimal: list = field(default_factory=list)  # vertex record index -> bool
    owner: dict = field(default_factory=dict)  # edge record index -> vertex record index
    nonmin_order: list = field(default_factory=list)  # non-minimal vertex record indices, ordered
    routes: dict = field(default_factory=dict, repr=False, compare=False)  # (a, b, d) -> route

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

    def ball_chain(self, src: int, dst: int) -> list:
        """Ids of every registry ball between dst and src, superset-first.  Balls
        that meet without nesting cover P^1, so below a proper src they nest."""
        hit = [b for b in self.over[dst] if b == src or src in self.over[b]] + [dst]
        if hit[0] != src:
            raise AssertionError(f"ball {dst} lies in no chain below ball {src}")
        return hit


def _total_order_key(rec: OrbitRecord):
    # Measure-descending refines inclusion strictly; ties broken by the owner
    # vertex's direction, then by the ball's canonical key.
    mu = rec.ball.measure()
    return (-mu, rec.simplex.sort_key(), rec.ball.sort_key())


def build_registry(cfg: PadicConfig, n: int, k: int) -> OrbitRegistry:
    """All orbit records for simplices within distance n of the root."""
    assert n >= 0 and k >= 1
    reg = OrbitRegistry(cfg, n, k)
    p = cfg.p
    for v in vertices_upto(p, n):
        reg.vertex_records[v] = enumerate_orbits(cfg, v, k)
    at_v0 = set(_standard_vertex_balls(cfg, k))  # the other standard edge discs are v1's
    owner_is_child = [b not in at_v0 for b in _standard_edge_balls(cfg, k)]
    owners = []  # per edge record: the record of the same disc at its owner
    for e in edges_upto(p, n):
        recs = reg.edge_records[e] = enumerate_orbits(cfg, e, k)
        for rec, child in zip(recs, owner_is_child):
            owners.append(OrbitRecord(e.dst if child else e.src, k, rec.ball))
    for recs in (*reg.vertex_records.values(), *reg.edge_records.values()):
        reg.records.extend(recs)
    reg.index = {r: i for i, r in enumerate(reg.records)}
    smallest = Fraction(1, p ** (n + k))  # the mass of a level-(n+k) cell
    reg.minimal = [n >= 1 and r.ball.measure() == smallest
                   for recs in reg.vertex_records.values() for r in recs]
    for i, rec in zip(reg.edge_ids(), owners):
        if rec not in reg.index:
            raise AssertionError(f"edge orbit {reg.records[i]!r} has no record at its owner")
        reg.owner[i] = reg.index[rec]
    nonmin = [i for i, m in enumerate(reg.minimal) if not m]
    reg.nonmin_order = sorted(nonmin, key=lambda i: _total_order_key(reg.records[i]))
    return reg


def minimal_orbits(reg: OrbitRegistry):
    """The minimal records; their balls partition P^1 (a separate check)."""
    assert reg.n >= 1
    return reg.minimal_records()


def edge_orbit_owner(reg: OrbitRegistry, rec: OrbitRecord) -> Vertex:
    """The unique endpoint whose own registry holds the same ball."""
    assert isinstance(rec.simplex, OrientedEdge)
    hits = [v for v in rec.simplex.endpoints() if OrbitRecord(v, reg.k, rec.ball) in reg.index]
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
    set of positive measure.  Residue-cell enumeration (``ball_cells`` in the
    tests' ``residue_cells`` helper) is the oracle the tests compare this
    against."""
    balls = list(balls)
    if sum(b.measure() for b in balls) != 1 + Fraction(1, cfg.p):
        return False
    return all(a.disjoint(b) for a, b in combinations(balls, 2))


def expected_orbit_count(p: int, k: int, simplex) -> int:
    if isinstance(simplex, Vertex):
        return (p + 1) * p ** (k - 1)
    return 2 * p ** (k - 1)


def nonminimal_count_formula(p: int, k: int, n: int) -> int:
    return 2 * p ** (k - 1) * (p + 1) * (p**n - 1) // (p - 1)


def verify_counts(reg: OrbitRegistry) -> dict:
    """Counting certificates; each row carries expected/actual and a verdict."""
    p, k, n = reg.p, reg.k, reg.n
    rows = []
    fails = []

    def row(name, expected, actual, detail=""):
        ok = expected == actual
        rows.append(
            {"name": name, "expected": expected, "actual": actual, "pass": ok, "detail": detail}
        )
        if not ok:
            fails.append(rows[-1])

    for i in range(1, n + 1):
        row(
            f"vertices at distance {i}",
            (p + 1) * p ** (i - 1),
            sum(1 for v in reg.vertices() if v.n == i),
        )
    bad_v = [
        v.id_str()
        for v, recs in reg.vertex_records.items()
        if len(recs) != expected_orbit_count(p, k, v)
    ]
    row("vertex orbit counts (q+1)q^(k-1) everywhere", [], bad_v)
    bad_e = [
        e.id_str()
        for e, recs in reg.edge_records.items()
        if len(recs) != expected_orbit_count(p, k, e)
    ]
    row("edge orbit counts 2q^(k-1) everywhere", [], bad_e)

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

        # the set identity: edge records biject onto non-minimal vertex records
        owner_map = {}
        collisions = []
        for rec in reg.all_edge_records():
            key = OrbitRecord(edge_orbit_owner(reg, rec), k, rec.ball)
            if key in owner_map:
                collisions.append(rec.id_str())
            owner_map[key] = rec
        row("edge->vertex record map injective", [], collisions)
        diff = sorted(r.id_str() for r in set(owner_map) ^ set(reg.nonminimal_records()))
        row("edge records = non-minimal vertex records (as owner/ball sets)", [], diff)

    return {
        "params": {"p": p, "k": k, "n": n},
        "rows": rows,
        "pass": not fails,
        "counterexamples": fails,
    }


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------


def sample_group_element(cfg: PadicConfig, simplex, k: int, rng: random.Random) -> GL2:
    """Seeded random element of the level-k group of a simplex, built from the
    explicit congruence pattern in the standard frame and conjugated over."""
    p = cfg.p
    span = p ** min(cfg.N - 2, k + 5)
    a, b, c, d = (rng.randrange(span) for _ in range(4))
    qa, qb, qc, qd = (Fraction(p**e) for e in level_exponents(simplex, k))
    std = GL2(cfg, 1 + qa * a, qb * b, qc * c, 1 + qd * d)
    h = transport(cfg, simplex)
    return h @ std @ h.inverse()
