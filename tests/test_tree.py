import random
from fractions import Fraction

import pytest

from btcomplex.padics import PadicConfig, val_fraction
from btcomplex.projline import GL2
from btcomplex.tree import (
    OrientedEdge,
    _path_rows,
    Vertex,
    act_vertex,
    distance,
    dot_tree,
    edges_upto,
    factor_edge_group,
    in_group,
    is_geodesic,
    map_path,
    neighbors,
    path,
    standard_orientation,
    standard_path,
    transport,
    vertex_canonical,
    vertices_at_depth,
    vertices_upto,
)


@pytest.fixture
def cfg():
    return PadicConfig(3, 16)


def random_gl2(cfg, rng):
    while True:
        ent = [Fraction(rng.randrange(-30, 30), rng.choice([1, 1, cfg.p])) for _ in range(4)]
        try:
            return GL2(cfg, *ent)
        except ValueError:
            continue


def random_geodesic(p, rng, length, start_pool):
    out = [rng.choice(start_pool)]
    prev = None
    for _ in range(length):
        options = [w for w in neighbors(out[-1]) if w != prev]
        prev = out[-1]
        out.append(rng.choice(options))
    return out


# -- encoding ------------------------------------------------------------------


def test_vertex_canonical_examples(cfg):
    assert vertex_canonical(cfg, ((1, 0), (0, 1))) == Vertex.root(3)
    v1 = vertex_canonical(cfg, ((3, 0), (0, 1)))  # the class of (p) + O
    assert v1 == Vertex(3, 1, (1, 0))
    c2 = PadicConfig(2, 16)
    v = vertex_canonical(c2, ((4, 1), (0, 1)))  # columns (4,0) and (1,1)
    assert v.n == 2


def test_vertex_canonical_homothety_invariance(cfg):
    rng = random.Random(1)
    for _ in range(200):
        g = random_gl2(cfg, rng)
        m = ((g.a, g.b), (g.c, g.d))
        scaled = tuple(tuple(e * cfg.p**2 for e in row) for row in m)
        assert vertex_canonical(cfg, m) == vertex_canonical(cfg, scaled)


def test_vertex_canonical_rejects_singular(cfg):
    with pytest.raises(ValueError):
        vertex_canonical(cfg, ((1, 1), (1, 1)))


def _primitive_vertex(p, n, m11, m12, m21, m22):
    """Vertex of the lattice spanned by the columns of a primitive matrix (some
    entry a unit) whose determinant has valuation n, from its entries mod p^n:
    the lattice is the kernel of a unimodular row of the adjugate."""
    if n == 0:
        return Vertex.root(p)
    mod = p**n
    for row in (((m22 % mod), (-m12) % mod), ((-m21) % mod, (m11 % mod))):
        if row[0] % p != 0 or row[1] % p != 0:
            return Vertex.make(p, n, row[0], row[1])
    raise AssertionError("adjugate of a primitive lattice matrix has a unimodular row")


def _vertex_canonical_oracle(cfg, matrix):
    """Oracle: the vertex of a lattice matrix read off a unimodular row of the
    adjugate of its primitive scaling, entries reduced mod p^n."""
    p = cfg.p
    ent = [Fraction(x) for row in matrix for x in row]
    if not any(ent):
        raise ValueError("zero matrix spans no lattice")
    if ent[0] * ent[3] == ent[1] * ent[2]:
        raise ValueError("singular matrix spans no lattice")
    e1 = min(val_fraction(e, p) for e in ent if e)
    scaled = [e / Fraction(p) ** e1 for e in ent]
    n = val_fraction(scaled[0] * scaled[3] - scaled[1] * scaled[2], p)
    assert n >= 0
    mod = p**n
    return _primitive_vertex(p, n, *(e.numerator * pow(e.denominator, -1, mod) % mod for e in scaled))


def _random_lattice_matrix(cfg, rng):
    """Integer, Fraction, zero and singular entries."""
    p, N = cfg.p, cfg.N
    kind = rng.randrange(4)
    if kind == 0:
        ent = [Fraction(rng.randrange(-50, 50), p ** rng.randrange(3)) for _ in range(4)]
    else:
        ent = [rng.choice([0, rng.randrange(-p**3, p**3), rng.randrange(-p**3, p**3),
                           rng.randrange(1, p**2) * p ** rng.randrange(N)]) for _ in range(4)]
    if kind == 1:  # proportional columns
        c = rng.choice([1, -2, p, Fraction(1, p)])
        ent[1], ent[3] = c * ent[0], c * ent[2]
    elif kind == 2 and rng.random() < 0.1:
        ent = [0] * 4
    return ((ent[0], ent[1]), (ent[2], ent[3]))


def _outcome(fn, cfg, matrix):
    try:
        return fn(cfg, matrix)
    except ValueError as exc:
        return type(exc)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_vertex_canonical_matches_the_adjugate_oracle(p):
    # 3,000 seeded matrices per prime, compared on the vertex, or on the
    # exception type where the oracle raises
    rng = random.Random(p)
    seen = set()
    for N in (6, 12, 20):
        cfg = PadicConfig(p, N)
        for _ in range(1000):
            m = _random_lattice_matrix(cfg, rng)
            want = _outcome(_vertex_canonical_oracle, cfg, m)
            assert _outcome(vertex_canonical, cfg, m) == want, (N, m)
            seen.add(want if isinstance(want, type) else min(want.n, 2))
    assert seen >= {0, 1, 2, ValueError}


def _sort_key_oracle(v):
    """Oracle: Vertex.sort_key by cases on the coordinate (a : b)."""
    a, b = v.coord
    if a != 1:  # type (a, 1): toward the z-point a (a in pZ)
        return (v.n, 0, a)
    if b % v.p != 0:  # toward the z-point 1/b
        return (v.n, 0, pow(b, -1, v.p**v.n) if v.n else 0)
    return (v.n, 1, b)  # toward the u-point b (w side)


@pytest.mark.parametrize("p,n", [(2, 7), (3, 5), (5, 4), (7, 3)])
def test_sort_key_matches_case_oracle(p, n):
    for v in vertices_upto(p, n):
        assert v.sort_key() == _sort_key_oracle(v), v


def test_layer_counts_match_formula():
    for p in (2, 3):
        for i in range(1, 5):
            assert len(vertices_at_depth(p, i)) == (p + 1) * p ** (i - 1)
            assert len({v for v in vertices_at_depth(p, i)}) == (p + 1) * p ** (i - 1)


def test_distance_examples(cfg):
    v0 = Vertex.root(3)
    for i in range(5):
        assert distance(v0, standard_path(3, i)[-1]) == i
    assert distance(v0, v0) == 0
    c2 = PadicConfig(2, 16)
    assert distance(Vertex.root(2), vertex_canonical(c2, ((4, 1), (0, 1)))) == 2


@pytest.mark.parametrize("p", [2, 3, 5])
def test_distance_against_bfs_oracle(p):
    # independent oracle: breadth-first search using only the parent relation
    verts = vertices_upto(p, 3)
    adjacency = {v: set() for v in verts}
    for v in verts:
        if v.n >= 1:
            adjacency[v].add(v.parent())
            adjacency[v.parent()].add(v)

    def bfs(a, b):
        frontier, seen, d = {a}, {a}, 0
        while b not in frontier:
            frontier = {w for u in frontier for w in adjacency[u]} - seen
            seen |= frontier
            d += 1
        return d

    rng = random.Random(4)
    for _ in range(120):
        a, b = rng.choice(verts), rng.choice(verts)
        assert distance(a, b) == bfs(a, b)


def _lattice_distance(p, v, w):
    """Oracle: elementary divisor exponents of B_v^-1 B_w over the rationals."""
    (a, b), (c, d) = (map(Fraction, row) for row in v.basis_matrix())
    (x, y), (z, t) = (map(Fraction, row) for row in w.basis_matrix())
    det = a * d - b * c
    ent = [(d * x - b * z) / det, (d * y - b * t) / det, (a * z - c * x) / det, (a * t - c * y) / det]
    e1 = min(val_fraction(e, p) for e in ent if e != 0)
    return int(val_fraction(ent[0] * ent[3] - ent[1] * ent[2], p) - 2 * e1)


@pytest.mark.parametrize("p,depth", [(2, 3), (3, 2), (5, 2)])
def test_distance_is_the_lattice_distance(p, depth):
    # the encoding's tree is the tree of lattice classes
    verts = vertices_upto(p, depth)
    for v in verts:
        for w in verts:
            assert distance(v, w) == _lattice_distance(p, v, w), (v, w)
    for v in vertices_upto(p, 3)[1:]:
        assert _lattice_distance(p, v, v.parent()) == 1, v


def test_neighbors_and_path(cfg):
    assert len(neighbors(Vertex.root(2))) == 3
    v = Vertex.root(3)
    assert path(v, v) == [v]
    sp = standard_path(3, 2)
    assert path(sp[0], sp[2]) == sp
    for a in vertices_upto(3, 2):
        ns = neighbors(a)
        assert len(ns) == 4 and len(set(ns)) == 4
        assert all(distance(a, b) == 1 for b in ns)


def test_orientation_bijective():
    seen = set()
    for e in edges_upto(3, 2):
        oe = standard_orientation(e.src, e.dst)
        assert {oe.src, oe.dst} == {e.src, e.dst}
        assert oe == standard_orientation(e.dst, e.src)
        seen.add((oe.src, oe.dst))
    assert len(seen) == len(edges_upto(3, 2))


# -- the action ------------------------------------------------------------------


def test_act_vertex_examples(cfg):
    v0, v1 = standard_path(3, 1)
    assert act_vertex(GL2(cfg, 3, 0, 0, 1), v0) == v1
    assert act_vertex(GL2.identity(cfg), v1) == v1
    g_alpha = GL2(cfg, 1, 0, 2, 3)
    got = act_vertex(g_alpha, v0)
    assert got.n == 1 and got == Vertex.make(3, 1, 1, -2)


def _act_vertex_oracle(g, v):
    """Oracle: g.[L] = [g.L] with the product g B, B v's basis matrix,
    written out entry by entry."""
    (b11, b12), (b21, b22) = v.basis_matrix()
    return vertex_canonical(g.cfg, (
        (g.a * b11 + g.b * b21, g.a * b12 + g.b * b22),
        (g.c * b11 + g.d * b21, g.c * b12 + g.d * b22),
    ))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_act_vertex_matches_written_out_product(p):
    cfg = PadicConfig(p, 16)
    rng = random.Random(p)
    verts = vertices_upto(p, 3)
    for _ in range(800):
        g, v = random_gl2(cfg, rng), rng.choice(verts)
        assert act_vertex(g, v) == _act_vertex_oracle(g, v), (g, v)


def test_act_vertex_group_action(cfg):
    rng = random.Random(6)
    verts = vertices_upto(3, 2)
    for _ in range(150):
        g, h = random_gl2(cfg, rng), random_gl2(cfg, rng)
        v, w = rng.choice(verts), rng.choice(verts)
        assert act_vertex(g @ h, v) == act_vertex(g, act_vertex(h, v))
        assert distance(act_vertex(g, v), act_vertex(g, w)) == distance(v, w)


# -- path transitivity -------------------------------------------------------------


def test_map_path_identity_cases(cfg):
    sp = standard_path(3, 3)
    g = map_path(cfg, sp, sp)
    assert all(act_vertex(g, v) == v for v in sp)
    v, w = Vertex.make(3, 2, 1, 4), Vertex.make(3, 1, 0, 1)
    g0 = map_path(cfg, [v], [w])
    assert act_vertex(g0, v) == w


def test_map_path_random_pairs(cfg):
    rng = random.Random(7)
    pool = vertices_upto(3, 2)
    for _ in range(60):
        length = rng.randrange(0, 5)
        P = random_geodesic(3, rng, length, pool)
        Q = random_geodesic(3, rng, length, pool)
        assert is_geodesic(P) and is_geodesic(Q)
        g = map_path(cfg, P, Q)
        assert all(act_vertex(g, a) == b for a, b in zip(P, Q))


def test_map_path_is_deterministic(cfg):
    rng = random.Random(8)
    pool = vertices_upto(3, 2)
    P = random_geodesic(3, rng, 3, pool)
    Q = random_geodesic(3, rng, 3, pool)
    assert map_path(cfg, P, Q) == map_path(cfg, P, Q)


def test_map_path_errors(cfg):
    sp = standard_path(3, 2)
    with pytest.raises(ValueError):
        map_path(cfg, sp, sp[:2])
    zigzag = [sp[0], sp[1], sp[0]]
    with pytest.raises(ValueError):
        map_path(cfg, zigzag, zigzag)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_transport_matches_map_path_and_basis_matrix(p):
    cfg = PadicConfig(p, 16)
    for e in edges_upto(p, 3):
        want = map_path(cfg, standard_path(p, 1), [e.src, e.dst])
        assert transport(cfg, e) == want, e
        assert transport(cfg, OrientedEdge(e.dst, e.src)) == want, e
    for v in vertices_upto(p, 3):
        assert transport(cfg, v) == GL2.from_rows(cfg, v.basis_matrix()), v


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_standardize_of_the_standard_edge_is_the_identity(p):
    cfg = PadicConfig(p, 16)
    assert _path_rows(standard_path(p, 1)) == ((1, 0), (0, 1))
    assert transport(cfg, standard_orientation(*standard_path(p, 1))) == GL2.identity(cfg)


def _mul(x, y):
    """Exact product of two 2x2 row matrices of ints or Fractions."""
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _inverse(x):
    (a, b), (c, d) = x
    det = Fraction(a * d - b * c)
    return ((d / det, -b / det), (-c / det, a / det))


def _inductive_standardize(cfg, pathlist):
    """Oracle: the rows of the path-transitivity element built one vertex at a
    time in exact rationals, moving the first vertex by its basis matrix, then
    repairing each next vertex with an element that fixes everything
    shallower; vertices are read by the adjugate oracle."""
    p = cfg.p
    h = pathlist[0].basis_matrix()
    for i in range(1, len(pathlist)):
        u = _vertex_canonical_oracle(cfg, _mul(_inverse(h), pathlist[i].basis_matrix()))
        assert u.n == i and distance(u, standard_path(p, i)[i - 1]) == 1
        a, b = u.coord
        if i == 1:
            rows = ((a, b), (0, 1)) if a % p != 0 else ((a, b), (1, 0))
        else:
            assert a == 1 and b % p ** (i - 1) == 0
            rows = ((1, b), (0, 1))
        w = _inverse(rows)
        assert act_vertex(GL2.from_rows(cfg, w), standard_path(p, i)[i]) == u
        h = _mul(h, w)
    return h


@pytest.mark.parametrize("p", [2, 3, 5])
def test_standardize_closed_form_matches_inductive_oracle(p):
    # the integer rows equal the oracle's, and so do the matrices built from them
    cfg = PadicConfig(p, 16)
    verts = vertices_upto(p, 3 if p == 2 else 2)
    paths = [path(v, w) for v in verts for w in verts]
    paths += [q for e in edges_upto(p, 3) for q in ([e.src, e.dst], [e.dst, e.src])]
    for q in paths:
        want = _inductive_standardize(cfg, q)
        assert _path_rows(q) == want, q
        assert GL2.from_rows(cfg, _path_rows(q)) == GL2.from_rows(cfg, want), q


def _coord_in_frame_oracle(cfg, v, w):
    """The coordinate of h^-1.w, h = v's basis matrix, by GL2.inverse and
    act_vertex."""
    return act_vertex(GL2.from_rows(cfg, v.basis_matrix()).inverse(), w).coord


def _standardize_oracle(cfg, pathlist):
    """The rows of the closed form h w with the frame coordinate read through
    the inverse matrix, multiplied out."""
    h = pathlist[0].basis_matrix()
    if len(pathlist) == 1:
        return h
    a, b = _coord_in_frame_oracle(cfg, pathlist[0], pathlist[-1])
    return _mul(h, ((1, -b), (0, 1)) if a == 1 else ((0, 1), (1, -a)))


@pytest.mark.parametrize("p,k,n", [(2, 2, 4), (3, 1, 3), (5, 1, 2)])
def test_integer_frame_coordinate_matches_padic_oracle(p, k, n):
    # at the registry precision: the rows of every vertex-pair path, every
    # vertex and edge transport, and map_path from every geodesic onto its
    # reverse, each against the oracle's exact rows
    cfg = PadicConfig(p, k + 2 * n + 12)
    verts = vertices_upto(p, n)
    for v in verts:
        for w in verts:
            assert _path_rows(path(v, w)) == _standardize_oracle(cfg, path(v, w)), (v, w)
    for v in verts:
        assert transport(cfg, v) == GL2.from_rows(cfg, _standardize_oracle(cfg, [v])), v
    for e in edges_upto(p, n):
        want = GL2.from_rows(cfg, _standardize_oracle(cfg, [e.src, e.dst]))
        assert transport(cfg, e) == want, e
        assert transport(cfg, OrientedEdge(e.dst, e.src)) == want, e
    for v in verts:
        for w in verts:
            P = path(v, w)
            rows = [_standardize_oracle(cfg, q) for q in (P[::-1], P)]
            g = map_path(cfg, P, P[::-1])
            assert g == GL2.from_rows(cfg, _mul(rows[0], _inverse(rows[1]))), (v, w)
            # the quotient, S(q) times the inverse of S(p), as a product of matrices
            S = [GL2.from_rows(cfg, r) for r in rows]
            assert g == S[0] @ S[1].inverse(), (v, w)


# -- congruence subgroups ------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_in_group_examples(p):
    cfg, k = PadicConfig(p, 16), 2
    v0, v1 = standard_path(p, 1)
    e0 = standard_orientation(v0, v1)
    ident = GL2.identity(cfg)
    assert in_group(ident, v0, k) and in_group(ident, e0, k)
    assert in_group(GL2(cfg, 1 + p**k, p**k * 2, p**k, 1 + p**k * 2), v0, k)
    lower = GL2(cfg, 1, 0, p ** (k - 1), 1)
    assert in_group(lower, e0, k)
    assert not in_group(lower, v0, k)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_in_group_conjugation_consistency(p):
    cfg = PadicConfig(p, 16)
    rng = random.Random(9)
    verts = vertices_upto(p, 2)
    from btcomplex.orbits import sample_group_element

    for _ in range(60):
        v = rng.choice(verts)
        k = rng.choice([1, 2])
        g = sample_group_element(cfg, v, k, rng)
        h = random_gl2(cfg, rng)
        assert in_group(g, v, k)
        assert in_group(h @ g @ h.inverse(), act_vertex(h, v), k)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factor_edge_group(p):
    cfg, k = PadicConfig(p, 16), 2
    v0, v1 = standard_path(p, 1)
    e0 = standard_orientation(v0, v1)
    ident = GL2.identity(cfg)
    g1, g2 = factor_edge_group(ident, e0, k)
    assert g1 == ident and g2 == ident
    lower = GL2(cfg, 1, 0, p ** (k - 1), 1)
    g1, g2 = factor_edge_group(lower, e0, k)
    assert g1 == lower and g2 == ident

    rng = random.Random(10)
    from btcomplex.orbits import sample_group_element

    # at k = 1 the edge pattern asks valuation 0 of the lower-left entry
    for k in (2, 1):
        for e in edges_upto(p, 2)[:6]:
            for _ in range(10):
                g = sample_group_element(cfg, e, k, rng)
                a, b = factor_edge_group(g, e, k)
                assert (a @ b) == g
    for e in edges_upto(p, 2)[:6]:
        with pytest.raises(ValueError):
            factor_edge_group(GL2(cfg, 1, 0, Fraction(1, p), 1), e, 2)


def test_edge_group_generated_by_vertex_groups(cfg):
    # products of sampled elements of the two vertex groups stay in the
    # explicit edge pattern, and edge elements split back into such a product
    rng = random.Random(11)
    from btcomplex.orbits import sample_group_element

    v0, v1 = standard_path(3, 1)
    e0 = standard_orientation(v0, v1)
    for k in (1, 2):
        for _ in range(40):
            word = GL2.identity(cfg)
            for _ in range(rng.randrange(1, 5)):
                s = rng.choice([v0, v1])
                word = word @ sample_group_element(cfg, s, k, rng)
            assert in_group(word, e0, k)


def test_dot_emitter():
    out = dot_tree(2, 1)
    assert out.startswith("graph")
    assert out.count("--") == 3
    assert '"v(0;1:0)"' in out


def test_vertex_json():
    v = Vertex.make(3, 2, 1, 5)
    assert v.to_json() == {"n": 2, "coord": [1, 5]}
