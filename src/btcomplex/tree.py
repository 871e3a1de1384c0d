"""The Bruhat-Tits tree of GL2(Q_p).

A vertex at distance n from the root v0 = [Z_p + Z_p] is encoded by a point
of P^1(Z/p^n): the homothety class determines, after scaling to a primitive
sublattice of Z_p^2 of cyclic index p^n, the row functional (a : b) mod p^n
whose kernel it is.  Canonical coordinate forms are (1, b) with b mod p^n,
or (a, 1) with a in pZ/p^n.  Reducing the coordinate mod p^(n-1) gives the
unique neighbor toward the root, so the encoding is simultaneously the tree
structure, its metric (two vertices meet at the depth of their coordinates'
common digit prefix) and the classical ball parametrization of directions.
"""

from __future__ import annotations

from .padics import PadicConfig, val_fraction, val_int
from .projline import GL2, Frozen, _act_coord, _point_cell, _primitive_rows


# ---------------------------------------------------------------------------
# vertices
# ---------------------------------------------------------------------------


def _canonical_coord(p: int, n: int, a: int, b: int):
    """Canonical form of (a : b) in P^1(Z/p^n); requires one of a, b a unit."""
    mod = p**n
    a %= mod
    b %= mod
    if a % p != 0:
        return (1, b * pow(a, -1, mod) % mod if n else 0)
    if b % p == 0:
        raise AssertionError("coordinate pair is not unimodular")
    return (a * pow(b, -1, mod) % mod, 1)


class Vertex(Frozen):
    """Lattice class at depth n, coordinate a canonical point of P^1(Z/p^n)."""

    __slots__ = ("p", "n", "coord")

    def __init__(self, p: int, n: int, coord: tuple):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coord", coord)

    def _fields(self) -> tuple:
        return (self.p, self.n, self.coord)

    @staticmethod
    def root(p: int) -> "Vertex":
        return Vertex(p, 0, (1, 0))

    @staticmethod
    def make(p: int, n: int, a: int, b: int) -> "Vertex":
        if n == 0:
            return Vertex.root(p)
        return Vertex(p, n, _canonical_coord(p, n, a, b))

    def parent(self) -> "Vertex":
        if self.n < 1:
            raise AssertionError("the root has no parent")
        a, b = self.coord
        return Vertex.make(self.p, self.n - 1, a, b)

    def children(self):
        p, n = self.p, self.n
        if n == 0:
            return vertices_at_depth(p, 1)
        a, b = self.coord
        step = p**n
        if a == 1:
            return [Vertex(p, n + 1, (1, b + t * step)) for t in range(p)]
        return [Vertex(p, n + 1, (a + t * step, 1)) for t in range(p)]

    def basis_matrix(self):
        """Integer 2x2 matrix whose columns span a representative lattice."""
        a, b = self.coord
        q = self.p**self.n
        if a == 1:
            return ((-b, q), (1, 0))
        return ((1, 0), (-a, q))

    def sort_key(self):
        """(depth, chart, residue) of D(v), the cell of ends beyond v."""
        chart, _, r = _point_cell(self.p, self.n, *self.coord)
        return (self.n, chart == "w", r)

    def to_json(self) -> dict:
        return {"n": self.n, "coord": list(self.coord)}

    def id_str(self) -> str:
        return f"v({self.n};{self.coord[0]}:{self.coord[1]})"


class OrientedEdge(Frozen):
    """Ordered pair of adjacent vertices."""

    __slots__ = ("src", "dst")

    def __init__(self, src: Vertex, dst: Vertex):
        if distance(src, dst) != 1:
            raise AssertionError("endpoints are not adjacent")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)

    def _fields(self) -> tuple:
        return (self.src, self.dst)

    def endpoints(self):
        return (self.src, self.dst)

    def id_str(self) -> str:
        return f"e[{self.src.id_str()}->{self.dst.id_str()}]"


def standard_orientation(v: Vertex, w: Vertex) -> OrientedEdge:
    """Orient every edge away from the root (parent first)."""
    if abs(v.n - w.n) != 1:
        raise AssertionError("vertices are not a parent and a child")
    return OrientedEdge(v, w) if v.n < w.n else OrientedEdge(w, v)


# ---------------------------------------------------------------------------
# enumeration and metric structure
# ---------------------------------------------------------------------------


def vertices_at_depth(p: int, n: int):
    """All vertices at distance exactly n from the root: P^1(Z/p^n)."""
    if n == 0:
        return [Vertex.root(p)]
    mod = p**n
    out = [Vertex(p, n, (1, b)) for b in range(mod)]
    out.extend(Vertex(p, n, (a, 1)) for a in range(0, mod, p))
    return out


def vertices_upto(p: int, n: int):
    out = []
    for i in range(n + 1):
        out.extend(vertices_at_depth(p, i))
    return out


def edges_upto(p: int, n: int):
    """Standard-oriented edges (parent, child) with child depth <= n."""
    out = []
    for i in range(1, n + 1):
        for v in vertices_at_depth(p, i):
            out.append(OrientedEdge(v.parent(), v))
    return out


def neighbors(v: Vertex):
    """The q+1 adjacent vertices."""
    out = list(v.children())
    if v.n >= 1:
        out.append(v.parent())
    return out


def vertex_canonical(cfg: PadicConfig, matrix) -> Vertex:
    """Vertex of the lattice spanned by the columns of a 2x2 matrix of ints or
    Fractions: the matrix's primitive integer rows applied to v0 by the
    lattice kernel (projline._act_coord), so homothetic inputs give the
    identical Vertex."""
    return _lattice_image(cfg.p, matrix, Vertex.root(cfg.p))


def _lattice_image(p: int, matrix, v: Vertex) -> Vertex:
    """The vertex [M.L], L a lattice of v, through the lattice kernel."""
    h, n = _primitive_rows(p, matrix)
    return Vertex.make(p, *_act_coord(p, h, n, v.n, *v.coord))


def _lca_depth(v: Vertex, w: Vertex) -> int:
    """Depth of the lowest common ancestor, read off the encoding: ancestors
    are reductions of the coordinate, so it is the length of the common digit
    prefix of the two b's (type (1, b)) or the two a's (type (a, 1)), capped
    at the shallower depth j: the valuation of their difference mod p^j, or
    j when that difference is 0.  Vertices of different types meet at the
    root."""
    j = min(v.n, w.n)
    (av, bv), (aw, bw) = v.coord, w.coord
    if (av == 1) != (aw == 1):
        return 0
    p = v.p
    diff = (bv - bw if av == 1 else av - aw) % p**j
    return val_int(diff, p) if diff else j


def distance(v: Vertex, w: Vertex) -> int:
    """Graph distance: both depths minus twice the depth of the lowest common
    ancestor, whose depth is the common digit prefix of the coordinates."""
    return v.n + w.n - 2 * _lca_depth(v, w)


def path(v: Vertex, w: Vertex):
    """The unique geodesic from v to w, inclusive."""
    j = _lca_depth(v, w)
    up = [v]
    while up[-1].n > j:
        up.append(up[-1].parent())
    down = [w]
    while down[-1].n > j:
        down.append(down[-1].parent())
    if up[-1] != down[-1]:
        raise AssertionError("the two ancestor chains miss a common ancestor")
    return up + down[-2::-1]


def act_vertex(g: GL2, v: Vertex) -> Vertex:
    """g.[L] = [g.L]; a distance-preserving action, on v's coordinate through
    the lattice kernel."""
    return _lattice_image(g.cfg.p, ((g.a, g.b), (g.c, g.d)), v)


# ---------------------------------------------------------------------------
# path transitivity
# ---------------------------------------------------------------------------


def standard_path(p: int, length: int):
    """v0, v1, ..., v_length with v_i = [(p^i) + Z_p], coordinates (1, 0)."""
    return [Vertex.root(p)] + [Vertex(p, i, (1, 0)) for i in range(1, length + 1)]


def is_geodesic(pathlist) -> bool:
    if len(pathlist) <= 1:
        return True
    for i in range(len(pathlist) - 1):
        if distance(pathlist[i], pathlist[i + 1]) != 1:
            return False
    return all(pathlist[i + 1] != pathlist[i - 1] for i in range(1, len(pathlist) - 1))


def _path_rows(pathlist) -> tuple:
    """Integer rows of g with g.(standard path) = pathlist, in closed form.

    h, the basis matrix of the first vertex, carries v0 to it.  In h's frame
    the path starts at v0, so it is the ancestor chain of its last vertex
    u = h^-1.(last vertex): its vertex at depth i is u's coordinate (a : b)
    reduced mod p^i.  h^-1 is adj(h)/det(h), and a scalar does not move a
    lattice class, so u is read off by _act_coord applied to adj(h).  The
    standard vertex v_i is the lattice on which the row functional (1 : 0)
    vanishes mod p^i, and a matrix w carries the lattice of a functional phi
    to that of phi.w^-1.  So w = [[1, -b], [0, 1]] when a = 1, or
    [[0, 1], [1, -a]] when a lies in pZ, turns (1 : 0) into (a : b) and
    carries every v_i onto u's ancestor at depth i at once; g = h w.
    """
    first, last = pathlist[0], pathlist[-1]
    h = first.basis_matrix()
    if len(pathlist) == 1:
        return h
    (h11, h12), (h21, h22) = h
    depth, s, t = _act_coord(first.p, ((h22, -h12), (-h21, h11)), first.n, last.n, *last.coord)
    a, b = _canonical_coord(first.p, depth, s, t)
    if a == 1:
        return ((h11, h12 - b * h11), (h21, h22 - b * h21))
    return ((h12, h11 - a * h12), (h22, h21 - a * h22))


def map_path(cfg: PadicConfig, path_p, path_q) -> GL2:
    """A matrix g with g . path_p[i] = path_q[i] for all i.

    Both inputs must be geodesics of equal length; the output is the
    deterministic element S(path_q) S(path_p)^-1, S the closed form of
    _path_rows, formed exactly by GL2.quotient.
    """
    if len(path_p) != len(path_q):
        raise ValueError("paths have different lengths")
    if not (is_geodesic(path_p) and is_geodesic(path_q)):
        raise ValueError("input is not a geodesic")
    g = GL2.quotient(cfg, _path_rows(path_q), _path_rows(path_p))
    if any(act_vertex(g, a) != b for a, b in zip(path_p, path_q)):
        raise AssertionError("map_path does not carry path_p onto path_q vertexwise")
    return g


def _simplex_path(simplex):
    """The path the standard simplex is carried onto: [the vertex], or the
    edge's [parent, child] in either orientation."""
    if isinstance(simplex, Vertex):
        return [simplex]
    src, dst = simplex.src, simplex.dst
    return [src, dst] if src.n < dst.n else [dst, src]


def transport(cfg: PadicConfig, simplex) -> GL2:
    """h carrying the standard simplex onto a vertex or edge: v0 to the vertex
    (its basis matrix), or the standard edge (v0, v1) to (parent, child) in
    either orientation.  Equals map_path from the standard path of the same
    length, whose own standardizing element is the identity."""
    return GL2.from_rows(cfg, _path_rows(_simplex_path(simplex)))


# ---------------------------------------------------------------------------
# congruence subgroups
# ---------------------------------------------------------------------------


def level_exponents(simplex, k: int):
    """The valuations the level-k group of a simplex demands, in its standard
    frame, of (a - 1, b, c, d - 1): k throughout for a vertex; an edge allows
    its lower-left entry c one digit less."""
    return (k, k, k if isinstance(simplex, Vertex) else k - 1, k)


def _fits_level(std: GL2, simplex, k: int) -> bool:
    p = std.cfg.p
    vals = (val_fraction(e, p) for e in (std.a - 1, std.b, std.c, std.d - 1))
    return all(v >= e for v, e in zip(vals, level_exponents(simplex, k)))


def in_group(g: GL2, simplex, k: int) -> bool:
    """Membership in the level-k congruence subgroup of a vertex or edge:
    conjugate g into the standard frame of the simplex, h^-1 g h with h its
    transport, and test the entries against level_exponents.  For a vertex
    that is the matrix being congruent to the identity mod p^k."""
    if k < 1:
        raise AssertionError(f"congruence level must be >= 1, got {k}")
    h = transport(g.cfg, simplex)
    return _fits_level(h.inverse() @ g @ h, simplex, k)


def factor_edge_group(g: GL2, e: OrientedEdge, k: int):
    """Split g in the edge group as (deep factor, shallow factor).

    In the standard frame [[1+p^k a, p^k b], [p^(k-1) c, 1+p^k d]] factors as
    a lower-triangular element of the deeper vertex group times an
    upper-triangular element of the shallower vertex group; the result is
    conjugated back.  Requires in_group(g, e, k).
    """
    cfg = g.cfg
    h = transport(cfg, e)
    hinv = h.inverse()
    std = hinv @ g @ h
    if not _fits_level(std, e, k):
        raise ValueError("matrix is not in the edge group at this level")
    g1_std = GL2(cfg, std.a, 0, std.c, 1)
    g2_std = g1_std.inverse() @ std
    par, chi = (e.src, e.dst) if e.src.n < e.dst.n else (e.dst, e.src)
    if not _fits_level(g2_std, par, k):
        raise AssertionError("shallow factor left the shallower vertex group")
    g1 = h @ g1_std @ hinv
    g2 = h @ g2_std @ hinv
    if not (in_group(g1, chi, k) and in_group(g2, par, k)):
        raise AssertionError("edge group factors left their vertex groups")
    return g1, g2


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def dot_tree(p: int, n: int) -> str:
    """Graphviz DOT of the tree out to depth n, labels '(depth; a:b)'."""
    lines = ["graph bruhat_tits {", "  node [shape=circle, fontsize=10];"]
    for v in vertices_upto(p, n):
        lines.append(f'  "{v.id_str()}" [label="({v.n}; {v.coord[0]}:{v.coord[1]})"];')
    for e in edges_upto(p, n):
        lines.append(f'  "{e.src.id_str()}" -- "{e.dst.id_str()}";')
    lines.append("}")
    return "\n".join(lines)
