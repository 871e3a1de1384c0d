import hashlib
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from btcomplex.chains import Character
from btcomplex.padics import PadicConfig, PadicNum
from btcomplex.projline import GL2, Ball, ProjPoint, _point_cell, moebius_apply, moebius_ball_image
from btcomplex.tree import (
    OrientedEdge,
    Vertex,
    act_vertex,
    distance,
    edges_upto,
    factor_edge_group,
    in_group,
    map_path,
    path,
    standard_orientation,
    standard_path,
    level_exponents,
    transport,
    vertex_canonical,
    vertices_upto,
)
from btcomplex import cli, orbits
from btcomplex.chains import assemble_dbar1
from btcomplex.orbits import (
    OrbitRecord,
    build_registry,
    check_partition,
    edge_orbit_owner,
    enumerate_orbits,
    expected_orbit_count,
    minimal_orbits,
    nonminimal_count_formula,
    orbit_of_point,
    sample_group_element,
    verify_counts,
)
from residue_cells import (
    ball_cells,
    bfs_orbit_cells,
    cell_ids,
    cell_value,
    disc,
    normal_form,
    required_level,
)
from test_cli import ENV


def make_cfg(p, k, n, d=0):
    return PadicConfig(p, k + 2 * n + d + 8)


# -- single-simplex orbits -------------------------------------------------------


def test_standard_vertex_orbit_of_point():
    cfg = make_cfg(3, 2, 1)
    v0 = Vertex.root(3)
    for z0 in (0, 5, -7):
        rec = orbit_of_point(cfg, v0, 2, ProjPoint.from_z(cfg, z0))
        assert rec.ball == disc(cfg, z0, 2)
    rec = orbit_of_point(cfg, v0, 2, ProjPoint.infinity(cfg))
    assert rec.ball == disc(cfg, 0, 2, chart="w")


def test_deeper_vertex_orbit_radii():
    # orbits of the vertex one step toward infinity: coarser on the unit disc,
    # finer outside
    cfg = make_cfg(3, 2, 1)
    k = 2
    v1 = standard_path(3, 1)[1]
    rec = orbit_of_point(cfg, v1, k, ProjPoint.from_z(cfg, 4))
    assert rec.ball == disc(cfg, 4, k - 1)
    rec = orbit_of_point(cfg, v1, k, ProjPoint.from_z(cfg, Fraction(1, 3)))
    assert rec.ball == disc(cfg, 3, k + 1, chart="w")
    rec = orbit_of_point(cfg, v1, k, ProjPoint.infinity(cfg))
    assert rec.ball == disc(cfg, 0, k + 1, chart="w")


def test_edge_orbit_radii():
    cfg = make_cfg(3, 2, 1)
    k = 2
    e0 = standard_orientation(*standard_path(3, 1))
    rec = orbit_of_point(cfg, e0, k, ProjPoint.from_z(cfg, 4))
    assert rec.ball == disc(cfg, 4, k - 1)
    rec = orbit_of_point(cfg, e0, k, ProjPoint.infinity(cfg))
    assert rec.ball == disc(cfg, 0, k, chart="w")


def test_enumerate_orbit_counts_examples():
    assert len(enumerate_orbits(make_cfg(3, 1, 1), Vertex.root(3), 1)) == 4
    e0 = standard_orientation(*standard_path(3, 1))
    assert len(enumerate_orbits(make_cfg(3, 1, 1), e0, 1)) == 2
    assert len(enumerate_orbits(make_cfg(2, 2, 1), Vertex.root(2), 2)) == 6


def test_enumerated_orbits_partition_every_simplex():
    rng = random.Random(1)
    for p in (2, 3):
        cfg = make_cfg(p, 2, 2)
        simps = vertices_upto(p, 2) + edges_upto(p, 2)
        for s in rng.sample(simps, 6):
            for k in (1, 2):
                recs = enumerate_orbits(cfg, s, k)
                assert len(recs) == expected_orbit_count(p, k, s)
                assert check_partition(cfg, [r.ball for r in recs])


def test_orbit_of_point_is_in_enumeration():
    rng = random.Random(2)
    for p in (2, 3):
        cfg = make_cfg(p, 2, 2)
        simps = vertices_upto(p, 2) + edges_upto(p, 2)
        for _ in range(25):
            s = rng.choice(simps)
            k = rng.choice([1, 2])
            cid = rng.choice(cell_ids(cfg, k + 3))
            v = cell_value(cid)
            z = ProjPoint.infinity(cfg) if v is None else ProjPoint.from_z(cfg, v)
            rec = orbit_of_point(cfg, s, k, z)
            balls = {r.ball for r in enumerate_orbits(cfg, s, k)}
            assert rec.ball in balls
            assert rec.ball.member_point(z)


# -- registries -----------------------------------------------------------------


def test_registry_record_counts():
    cfg = make_cfg(3, 1, 1)
    reg = build_registry(cfg, 1, 1)
    assert sum(len(v) for v in reg.vertex_records.values()) == 20
    assert sum(len(v) for v in reg.edge_records.values()) == 8
    assert len(reg.vertices()) == 5 and len(reg.edges()) == 4


def test_registry_depth_zero():
    cfg = make_cfg(3, 2, 0)
    reg = build_registry(cfg, 0, 2)
    assert list(reg.vertices()) == [Vertex.root(3)]
    assert not reg.edges()
    assert check_partition(cfg, [r.ball for r in reg.all_vertex_records()])


def test_minimal_orbits_at_level_one():
    cfg = make_cfg(3, 1, 1)
    reg = build_registry(cfg, 1, 1)
    mins = minimal_orbits(reg)
    assert len(mins) == 12
    expected = {disc(cfg, r, 2) for r in range(9)}
    expected |= {disc(cfg, u, 2, chart="w") for u in (0, 3, 6)}
    assert {r.ball for r in mins} == expected
    percount = {}
    for r in mins:
        percount[r.simplex] = percount.get(r.simplex, 0) + 1
    assert all(v.n == 1 for v in percount)
    assert all(c == 3 for c in percount.values())


def test_minimal_flags_match_direct_poset_minimality():
    # minimal in the containment poset, decided on residue cells
    for (p, k, n) in [(2, 1, 1), (3, 1, 1), (2, 2, 2), (3, 1, 2), (5, 1, 2), (2, 3, 3)]:
        cfg = make_cfg(p, k, n)
        reg = build_registry(cfg, n, k)
        balls = {r.ball for r in reg.all_vertex_records()}
        M = max(required_level(b) for b in balls)
        cells = {b: ball_cells(cfg, b, M) for b in balls}
        for i, rec in enumerate(reg.all_vertex_records()):
            direct = not any(c < cells[rec.ball] for c in cells.values())
            assert reg.minimal[i] == direct, rec


def test_minimal_partition_and_dropping_one():
    cfg = make_cfg(3, 1, 1)
    reg = build_registry(cfg, 1, 1)
    balls = [r.ball for r in minimal_orbits(reg)]
    assert check_partition(cfg, balls)
    assert not check_partition(cfg, balls[1:])
    assert check_partition(cfg, [r.ball for r in reg.vertex_records[Vertex.root(3)]])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_partition_rejects_a_complement_overlapping_a_disc(p):
    # the hole of the complement is { val x >= 2 }, so both balls hold { val x = 1 }
    cfg = PadicConfig(p, 14)
    assert not check_partition(cfg, [disc(cfg, 0, 2, complement=True), disc(cfg, 0, 1)])
    # at full measure too, with no cell nested in another: { x = 1 mod p^2 }
    # lies outside the hole { x = 0 mod p^2 }, which only the hole test sees
    full = [disc(cfg, 0, 2, complement=True), disc(cfg, 1, 2)]
    assert sum(b.measure() for b in full) == 1 + Fraction(1, p)
    assert check_partition(cfg, full) is _pairwise_partition(cfg, full) is False
    hole = [disc(cfg, 0, 2, complement=True), disc(cfg, 0, 2)]
    assert check_partition(cfg, hole) is _pairwise_partition(cfg, hole) is True


def partition_by_cells(cfg, balls, M):
    """Oracle: the balls' level-M cells are pairwise disjoint and cover P^1."""
    cells = [ball_cells(cfg, b, M) for b in balls]
    universe = set(cell_ids(cfg, M))
    return sum(len(c) for c in cells) == len(universe) and set().union(*cells) == universe


@pytest.mark.parametrize("p,k,n", [(2, 1, 2), (3, 1, 2), (2, 2, 3)])
def test_partition_check_does_not_depend_on_the_level(p, k, n):
    cfg = make_cfg(p, k, n)
    reg = build_registry(cfg, n, k)
    mins = minimal_orbits(reg)
    balls = [r.ball for r in mins]
    # a duplicated ball, and a minimal ball swapped for the parent's record containing it
    container = next(q.ball for q in reg.vertex_records[mins[0].simplex.parent()]
                     if mins[0].ball.subset(q.ball))
    # full measure but overlapping: a minimal ball swapped for another of equal
    # measure; disjoint but short of full measure: one ball dropped
    twin = next(b for b in balls[1:] if b.measure() == balls[0].measure())
    cases = [(balls, True), (balls + balls[:1], False), ([container] + balls[1:], False),
             ([twin] + balls[1:], False), (balls[1:], False)]
    for case, want in cases:
        M = max(required_level(b) for b in case)
        assert check_partition(cfg, case) is want
        assert partition_by_cells(cfg, case, M) is want
        assert partition_by_cells(cfg, case, M + 1) is want


def test_verify_counts_examples():
    for (p, k, n, both) in [(3, 1, 1, 8), (3, 1, 2, 32), (2, 2, 1, 12)]:
        cfg = make_cfg(p, k, n)
        reg = build_registry(cfg, n, k)
        rep = verify_counts(reg)
        assert rep["pass"], rep["counterexamples"]
        assert nonminimal_count_formula(p, k, n) == both
        assert len(reg.nonminimal_records()) == both
        assert sum(len(v) for v in reg.edge_records.values()) == both



def _bijection_rows_oracle(reg):
    """The two bijection rows' actual values as verify_counts read them off
    whole records: each edge record's owner by edge_orbit_owner (reg.index),
    then sets of OrbitRecords; or the owner check's error."""
    try:
        owner_map = {}
        collisions = []
        for rec in reg.all_edge_records():
            key = OrbitRecord(edge_orbit_owner(reg, rec), rec.ball)
            if key in owner_map:
                collisions.append(rec.id_str())
            owner_map[key] = rec
    except AssertionError as exc:
        return str(exc)
    return collisions, sorted(r.id_str() for r in set(owner_map) ^ set(reg.nonminimal_records()))


def _bijection_rows(reg):
    try:
        rows = {row["name"]: row["actual"] for row in verify_counts(reg)["rows"]}
    except AssertionError as exc:
        return str(exc)
    return (rows["edge->vertex record map injective"],
            rows["edge records = non-minimal vertex records (as owner/ball sets)"])


def _tampered(reg, kind, rng):
    """The registry with one defect: an edge or a vertex record moved onto
    another record's disc, a minimal flag flipped, or an edge record copied
    onto another edge."""
    nv = len(reg.minimal)
    if kind == 2:
        i = rng.randrange(nv)
        reg.minimal[i] = not reg.minimal[i]
        return reg
    i = rng.randrange(nv) if kind == 1 else rng.randrange(nv, len(reg.records))
    rec = reg.records[i]
    if kind == 3:
        e = rng.choice(reg.edges())
        reg.records.append(OrbitRecord(e, rec.ball))
        reg.edge_records[e].append(reg.records[-1])
        return reg
    moved = OrbitRecord(rec.simplex, rng.choice(reg.records).ball)
    table = reg.vertex_records if kind == 1 else reg.edge_records
    recs = table[rec.simplex]
    reg.records[i] = recs[recs.index(rec)] = moved
    return reg


@pytest.mark.parametrize("p,k,n", [(2, 1, 3), (2, 2, 2), (3, 1, 2), (3, 2, 1), (5, 1, 1)])
def test_counts_bijection_rows_match_the_record_oracle(p, k, n):
    # the bijection is checked on (vertex position, cell key) pairs; on sound
    # and on damaged registries its rows, counterexamples and errors are the
    # ones whole records gave, and it never reads reg.owner
    cfg = make_cfg(p, k, n)
    reg = build_registry(cfg, n, k)
    reg.owner = {i: 0 for i in reg.owner}
    assert verify_counts(reg)["pass"]
    rng = random.Random(p * 100 + k * 10 + n)
    seen = set()
    for trial in range(48):
        reg = _tampered(build_registry(cfg, n, k), trial % 4, rng)
        want = _bijection_rows_oracle(reg)
        assert _bijection_rows(reg) == want, trial
        seen.add(want != ([], []))
    assert seen == {True, False}

def test_edge_orbit_owner_standard_cases():
    cfg = make_cfg(3, 2, 1)
    k = 2
    reg = build_registry(cfg, 1, k)
    v0, v1 = standard_path(3, 1)
    e0 = standard_orientation(v0, v1)
    for rec in reg.edge_records[e0]:
        owner = edge_orbit_owner(reg, rec)
        chart, _, m = rec.ball.chart_data()
        if chart == "z" and m == k - 1:
            assert owner == v1  # coarse unit-disc orbits belong to the deeper vertex
        if chart == "w" and m == k:
            assert owner == v0  # outside orbits belong to the root
        assert owner == reg.records[reg.owner[reg.index[rec]]].simplex


def test_edge_owner_transport_consistency():
    for (p, k, n) in [(2, 1, 2), (3, 2, 1)]:
        cfg = make_cfg(p, k, n)
        reg = build_registry(cfg, n, k)
        for rec in reg.all_edge_records():
            assert edge_orbit_owner(reg, rec) == reg.records[reg.owner[reg.index[rec]]].simplex


def test_edge_orbit_owner_rejects_a_disc_at_neither_endpoint():
    cfg = make_cfg(3, 1, 1)
    reg = build_registry(cfg, 1, 1)
    e = reg.edges()[0]
    stray = OrbitRecord(e, disc(cfg, 0, 5))
    assert all(r.ball != stray.ball for r in reg.all_vertex_records())
    with pytest.raises(AssertionError, match="owned by 0 endpoints"):
        edge_orbit_owner(reg, stray)


def test_adjacent_vertex_registries_share_no_ball():
    cfg = make_cfg(3, 1, 1)
    reg = build_registry(cfg, 1, 1)
    v0 = Vertex.root(3)
    b0 = {r.ball for r in reg.vertex_records[v0]}
    for v in reg.vertices():
        if v.n == 1:
            assert not (b0 & {r.ball for r in reg.vertex_records[v]})


def test_containment_trichotomy_across_an_edge():
    # opposite a given endpoint, each orbit contains or is contained in an
    # orbit of the other endpoint; q^(k-1) orbits contain exactly q orbits each
    for (p, k) in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        cfg = make_cfg(p, k, 1)
        reg = build_registry(cfg, 1, k)
        for e in reg.edges():
            rv = reg.vertex_records[e.src]
            rw = reg.vertex_records[e.dst]
            containing = 0
            for a in rv:
                below = [b for b in rw if b.ball != a.ball and b.ball.subset(a.ball)]
                above = [b for b in rw if b.ball != a.ball and a.ball.subset(b.ball)]
                assert below or above, (e, a)
                if below:
                    containing += 1
                    assert len(below) == p
            assert containing == p ** (k - 1)


def test_minimal_ball_uniqueness():
    for (p, k, n) in [(3, 1, 1), (2, 2, 2)]:
        cfg = make_cfg(p, k, n)
        reg = build_registry(cfg, n, k)
        seen = {}
        for r in minimal_orbits(reg):
            assert r.ball not in seen, "two minimal records share a disc"
            seen[r.ball] = r.simplex


def test_depth_one_fine_orbit_center_sign():
    # the transport beta -> p*beta - alpha sends the orbit of 0 to the disc
    # around MINUS alpha: the fine orbits of the vertex reached by
    # [[1,0],[alpha,p]] sit over -alpha (exact computation; recorded here)
    p, k = 3, 1
    cfg = make_cfg(p, k, 1)
    from btcomplex.projline import GL2
    from btcomplex.tree import act_vertex

    for alpha in range(p):
        v = act_vertex(GL2(cfg, 1, 0, alpha, p), Vertex.root(p))
        rec = orbit_of_point(cfg, v, k, ProjPoint.from_z(cfg, -alpha))
        assert rec.ball == disc(cfg, -alpha, k + 1)


def test_fundamental_system_of_neighborhoods():
    # the vertices one further step toward the point 0 cut its orbit in p
    cfg = make_cfg(3, 1, 4)
    k = 1
    z = ProjPoint.from_z(cfg, 0)
    radii = []
    for n in range(5):
        v = Vertex.make(3, n, 0, 1)  # toward the z-point 0
        rec = orbit_of_point(cfg, v, k, z)
        radii.append(rec.ball.chart_data()[2])
        assert rec.ball == disc(cfg, 0, k + n)
    assert radii == [k + n for n in range(5)]


def test_containment_chain_extension():
    # nested orbits across an edge extend across every next edge outward
    p, k = 3, 1
    cfg = make_cfg(p, k, 2)
    reg = build_registry(cfg, 2, k)
    rng = random.Random(3)
    pairs = []
    for e in reg.edges():
        if e.dst.n != 1:
            continue
        for a in reg.vertex_records[e.dst]:
            for b in reg.vertex_records[e.src]:
                if a.ball != b.ball and a.ball.subset(b.ball):
                    pairs.append((e, a, b))
    from btcomplex.tree import neighbors

    for e, a, b in rng.sample(pairs, min(12, len(pairs))):
        # a.ball < b.ball across the edge (e.src, e.dst); every further edge at
        # e.src leads to an orbit containing b.ball
        for far in neighbors(e.src):
            if far == e.dst or far.n > reg.n:
                continue
            recs = reg.vertex_records[far]
            assert any(b.ball.subset(c.ball) for c in recs), (e, a.ball, b.ball, far)


def test_total_order_refines_inclusion():
    for (p, k, n) in [(2, 1, 1), (3, 1, 2), (2, 2, 2)]:
        cfg = make_cfg(p, k, n)
        reg = build_registry(cfg, n, k)
        pos = {reg.records[i]: row for row, i in enumerate(reg.nonmin_order)}
        recs = reg.nonminimal_records()
        for a in recs:
            for b in recs:
                if a.ball != b.ball and a.ball.subset(b.ball):
                    assert pos[a] > pos[b]


def test_only_the_boundary_matrix_sorts_the_records(monkeypatch, capsys):
    # the registry build sorts nothing: with the matrix's total order
    # refused, registries build, and the counts, the orbits dump and the
    # minimal report run; only assembling the matrix reads the order
    def refuse(rec):
        raise AssertionError("the boundary matrix's total order was read")

    monkeypatch.setattr(orbits, "_total_order_key", refuse)
    for p, k, n in [(3, 1, 2), (3, 2, 1), (5, 1, 2)]:
        reg = build_registry(make_cfg(p, k, n), n, k)
        assert verify_counts(reg)["pass"]
        assert len(cli.registry_json(reg)["orbits"]) == len(reg.records)
        with pytest.raises(AssertionError, match="total order"):
            assemble_dbar1(reg)
    for command in ("orbits", "minimal", "counts"):
        assert cli.main([command, "--p", "3", "--k", "2", "--n", "2"]) == 0, command
    assert "verification error" not in capsys.readouterr().err


RELATION_CONFIGS = [(2, 1, 2), (3, 1, 2), (2, 2, 3), (3, 2, 1)]


def superset_first(balls):
    return sorted(balls, key=lambda b: (-b.measure(), b.sort_key()))


@pytest.mark.parametrize("p,k,n", RELATION_CONFIGS)
def test_containment_relation_matches_all_pairs_oracle(p, k, n):
    reg = build_registry(make_cfg(p, k, n), n, k)
    balls = {r.ball for r in reg.all_vertex_records()}
    assert reg.balls == superset_first(balls)
    assert [reg.balls[b] for b in reg.ball_of] == [r.ball for r in reg.records]
    assert len(reg.over) == len(balls)
    for i, b in enumerate(reg.balls):
        sup = [reg.balls[a] for a in reg.over[i]]
        assert reg.over[i] == sorted(reg.over[i])
        assert sup == superset_first(a for a in balls if a != b and b.subset(a)), b


@pytest.mark.parametrize("p,k,n", RELATION_CONFIGS)
def test_poset_tables_match_direct_scans(p, k, n):
    reg = build_registry(make_cfg(p, k, n), n, k)
    recs = reg.records
    vrecs = reg.all_vertex_records()
    mins = [i for i, m in enumerate(reg.minimal) if m]
    balls = superset_first({r.ball for r in vrecs})
    pairs = []  # (source, target) record indices of every registry restriction
    for i, r in enumerate(vrecs):
        assert reg.min_cover[i] == [j for j in mins if recs[j].ball.subset(r.ball)]
        pairs.extend((i, j) for j in reg.min_cover[i])
    for i in reg.edge_ids():
        ball = recs[i].ball
        e, owner = recs[i].simplex, recs[reg.owner[i]].simplex
        other = e.dst if owner == e.src else e.src
        subs = reg.edge_subs[i]
        assert subs == [reg.index[q] for q in reg.vertex_records[other]
                        if q.ball != ball and q.ball.subset(ball)]
        pairs.extend((i, q) for q in subs)
    for i, j in pairs:
        src, dst = recs[i].ball, recs[j].ball
        chain = [reg.balls[b] for b in reg.ball_chain(reg.ball_of[i], reg.ball_of[j])]
        assert chain == [b for b in balls if dst.subset(b) and b.subset(src)], (src, dst)
        assert all(b.subset(a) for a, b in zip(chain, chain[1:]))


NEST_CONFIGS = [(2, 1, 2), (2, 1, 3), (2, 2, 2), (2, 3, 1), (3, 1, 2), (3, 2, 1), (5, 1, 1)]


@pytest.mark.parametrize("p,k,n", NEST_CONFIGS)
def test_the_level_n_registry_nests_in_level_n_plus_one(p, k, n):
    # every level-n record is a level-(n+1) record of the same simplex and
    # disc, in the same order per simplex; owners and edge_subs agree as
    # (simplex, cell) data, and so do the ball chains of every restriction
    # the complex maps route, from min_cover and edge_subs
    cfg = make_cfg(p, k, n + 1)
    small, big = build_registry(cfg, n, k), build_registry(cfg, n + 1, k)
    for table, bigger in ((small.vertex_records, big.vertex_records), (small.edge_records, big.edge_records)):
        for s, recs in table.items():
            assert bigger[s] == recs, s
    into = [big.index[r] for r in small.records]

    def data(reg, i):
        return reg.records[i].simplex, reg.records[i].ball.cell

    def chain(reg, i, j):
        return [reg.balls[b].cell for b in reg.ball_chain(reg.ball_of[i], reg.ball_of[j])]

    pairs = [(i, m) for i, cover in enumerate(small.min_cover) for m in cover]
    for i in small.edge_ids():
        assert data(small, small.owner[i]) == data(big, big.owner[into[i]]), data(small, i)
        subs = small.edge_subs[i]
        assert [data(small, q) for q in subs] == [data(big, q) for q in big.edge_subs[into[i]]]
        pairs.extend((i, q) for q in subs)
    for i, j in pairs:
        assert chain(small, i, j) == chain(big, into[i], into[j]), (data(small, i), data(small, j))


def test_edge_split_invariant_survives_python_O():
    # a containment that never holds leaves every edge orbit with no orbit
    # inside it; edge_subs must refuse that even with asserts stripped
    script = "\n".join([
        "from btcomplex.orbits import build_registry",
        "from btcomplex.padics import PadicConfig",
        "from btcomplex.projline import Ball",
        "reg = build_registry(PadicConfig(3, 12), 1, 1)",
        "Ball.subset = lambda self, other: False",
        "try:",
        "    reg.edge_subs",
        "except AssertionError as exc:",
        "    print(exc)",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=ENV)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "an edge orbit splits into exactly q orbits opposite its owner\n"


def test_bfs_oracle_smoke():
    rng = random.Random(4)
    for p in (2, 3):
        cfg = PadicConfig(p, 26)
        simps = vertices_upto(p, 2) + edges_upto(p, 2)
        for _ in range(6):
            s = rng.choice(simps)
            k = rng.choice([1, 2])
            M = k + 3
            cid = rng.choice(cell_ids(cfg, M))
            v = cell_value(cid)
            z = ProjPoint.infinity(cfg) if v is None else ProjPoint.from_z(cfg, v)
            rec = orbit_of_point(cfg, s, k, z)
            got = bfs_orbit_cells(cfg, s, k, z, rng, generators=12, level=M)
            assert got == ball_cells(cfg, rec.ball, M)


# -- the shadow build against the Moebius transport -----------------------------


def _standard_discs(cfg, simplex, k):
    """The standard simplex's level-k orbit discs: for v0 the discs of radius
    p^-k in both charts; for (v0, v1) the discs of radius p^-(k-1) on the
    unit disc, then v0's discs of radius p^-k outside it."""
    p = cfg.p
    m = k if isinstance(simplex, Vertex) else k - 1
    return [*(disc(cfg, r, m) for r in range(p**m)),
            *(disc(cfg, u, k, chart="w") for u in range(0, p**k, p))]


def _transported_discs(cfg, simplex, k):
    """Oracle: the standard discs moved by B -> B.h^-1, h the simplex's transport."""
    hinv = transport(cfg, simplex).inverse()
    return [moebius_ball_image(hinv, b) for b in _standard_discs(cfg, simplex, k)]


def _oracle_registry(cfg, n, k):
    """The registry read off the transport oracle, keyed by (simplex, cell key)
    so that the record order does not enter: the cell keys per simplex, the
    minimal flags, the owner map (edge, cell) -> (owner vertex, cell) with
    the owner found by looking the disc up at both endpoints, and the
    non-minimal vertex records in the order of exact Fraction measures."""
    p = cfg.p
    vertices, edges = vertices_upto(p, n), edges_upto(p, n)
    discs = {s: _transported_discs(cfg, s, k) for s in vertices + edges}
    cells = {s: {b.cell for b in bs} for s, bs in discs.items()}
    owner = {}
    for e in edges:
        for b in discs[e]:
            hits = [w for w in e.endpoints() if b.cell in cells[w]]
            assert len(hits) == 1, (e, b)
            owner[e, b.cell] = (hits[0], b.cell)
    smallest = Fraction(1, p ** (n + k))
    minimal = {(v, b.cell): n >= 1 and b.measure() == smallest for v in vertices for b in discs[v]}
    nonmin = [(v, b) for v in vertices for b in discs[v] if not minimal[v, b.cell]]
    nonmin.sort(key=lambda r: (-r[1].measure(), r[0].sort_key(), r[1].sort_key()))
    return cells, minimal, owner, [(v, b.cell) for v, b in nonmin]


ORACLE_CONFIGS = [(2, 1, 3), (2, 2, 3), (2, 3, 2), (3, 1, 2), (3, 2, 2), (3, 3, 1),
                  (5, 1, 2), (5, 2, 1), (5, 3, 1), (7, 1, 2), (7, 2, 1), (7, 3, 1)]


@pytest.mark.parametrize("p,k,n", ORACLE_CONFIGS)
def test_integer_orbits_match_the_transport_oracle(p, k, n):
    # the shadows of each simplex are the transported standard discs, as sets
    # of cell keys: the record order is the tree's, not the transport's
    cfg = make_cfg(p, k, n)
    for s in vertices_upto(p, n) + edges_upto(p, n):
        want = _transported_discs(cfg, s, k)
        # the cells the transport gives on the normal forms
        hinv = transport(cfg, s).inverse()
        cells = {normal_form(b).image(hinv).cell for b in _standard_discs(cfg, s, k)}
        sides = [s] if isinstance(s, Vertex) else [s, OrientedEdge(s.dst, s.src)]
        for simplex in sides:
            recs = enumerate_orbits(cfg, simplex, k)
            assert len(recs) == len(want) and {r.ball for r in recs} == set(want), simplex
            assert {r.ball.cell for r in recs} == cells, simplex


@pytest.mark.parametrize("p,k,n", ORACLE_CONFIGS)
def test_integer_registry_matches_the_transport_oracle(p, k, n):
    cfg = make_cfg(p, k, n)
    reg = build_registry(cfg, n, k)
    cells, minimal, owner, order = _oracle_registry(cfg, n, k)
    key = [(r.simplex, r.ball.cell) for r in reg.records]
    per_simplex = {**reg.vertex_records, **reg.edge_records}
    assert {s: {r.ball.cell for r in recs} for s, recs in per_simplex.items()} == cells
    assert len(key) == len(set(key)) == sum(map(len, cells.values()))
    assert dict(zip(key, reg.minimal)) == minimal
    assert {key[i]: key[j] for i, j in reg.owner.items()} == owner
    assert [key[i] for i in reg.nonmin_order] == order
    # one Ball per distinct disc, shared by every record of it
    assert len({id(r.ball) for r in reg.records}) == len({r.ball for r in reg.records})
    assert all(reg.records[i].ball is reg.records[j].ball for i, j in reg.owner.items())


@pytest.mark.parametrize("p,k,n", [(2, 2, 3), (2, 3, 3), (3, 1, 2), (3, 2, 2), (3, 3, 2), (5, 2, 2), (7, 2, 1)])
def test_an_edge_lists_its_endpoints_discs_in_their_own_order(p, k, n):
    # the records an endpoint owns on an edge are one contiguous run of that
    # endpoint's own records, in the same order: the run of its shadows
    # through the other endpoint
    reg = build_registry(make_cfg(p, k, n), n, k)
    for e, recs in reg.edge_records.items():
        first = reg.index[recs[0]]
        owners = [reg.owner[i] for i in range(first, first + len(recs))]
        for w in e.endpoints():
            start = reg.index[reg.vertex_records[w][0]]
            run = [j - start for j in owners if reg.records[j].simplex == w]
            assert run and run == list(range(run[0], run[0] + len(run))), (e, w)


def _shadow(w, y):
    """The cell key of the ends whose ray from w passes through y: D(y) when
    the geodesic reaches y from its parent, else P^1 minus D(x), x the
    geodesic's vertex before y (then y's child)."""
    x = path(w, y)[-2]
    if x.n < y.n:
        return (*_point_cell(y.p, y.n, *y.coord), False)
    return (*_point_cell(x.p, x.n, *x.coord), True)


SHADOW_CONFIGS = [(2, 1, 2), (2, 3, 2), (3, 1, 2), (3, 2, 2), (3, 3, 1), (5, 1, 2), (7, 1, 2), (7, 2, 1)]


@pytest.mark.parametrize("p,k,n", SHADOW_CONFIGS)
def test_registry_records_are_shadows_of_the_vertices_at_distance_k(p, k, n):
    # a vertex's record discs are the shadows of the vertices at distance k
    # from it; an edge's are the shadows, seen from the endpoint owning them,
    # of the vertices at distance k from it through the other endpoint
    reg = build_registry(make_cfg(p, k, n), n, k)
    near = vertices_upto(p, n + k)
    for w, recs in reg.vertex_records.items():
        want = {_shadow(w, y) for y in near if distance(w, y) == k}
        assert {r.ball.cell for r in recs} == want and len(recs) == len(want), w
    for e, recs in reg.edge_records.items():
        want = {(w, _shadow(w, y)) for w, o in (e.endpoints(), e.endpoints()[::-1])
                for y in near if distance(w, y) == k and path(w, y)[1] == o}
        got = {(reg.records[reg.owner[reg.index[r]]].simplex, r.ball.cell) for r in recs}
        assert got == want and len(recs) == len(want), e


def _integral_generators(cfg):
    """s, s^-1, l, diag(u, 1) for u a primitive root mod p, and the swap w;
    at p = 2, where diag(u, 1) is the identity, also diag(-1, 1) and diag(5, 1)."""
    p = cfg.p
    u = next(u for u in range(1, p) if len({pow(u, i, p) for i in range(p - 1)}) == p - 1)
    rows = [((1, 1), (0, 1)), ((1, -1), (0, 1)), ((1, 0), (1, 1)), ((u, 0), (0, 1)), ((0, 1), (1, 0))]
    if p == 2:
        rows += [((-1, 0), (0, 1)), ((5, 0), (0, 1))]
    return [GL2.from_rows(cfg, r) for r in rows]


STABILITY_CONFIGS = [(2, 1, 2), (3, 2, 2), (2, 2, 3), (5, 1, 2), (3, 1, 3), (7, 1, 2), (2, 3, 3), (5, 1, 3)]


@pytest.mark.parametrize("p,k,n", STABILITY_CONFIGS)
def test_registry_is_stable_under_integral_generators(p, k, n):
    # GL2(Z_p) fixes v0 and moves the ball of radius n by tree automorphisms,
    # conjugating each simplex's level-k group onto its image's: a simplex
    # moved by g carries its discs moved by B -> B.g^-1 onto the record set
    # of its image
    cfg = make_cfg(p, k, n)
    reg = build_registry(cfg, n, k)
    table = {**reg.vertex_records, **reg.edge_records}
    for g in _integral_generators(cfg):
        ginv = g.inverse()
        image = {v: act_vertex(g, v) for v in reg.vertices()}
        for s, recs in table.items():
            t = image[s] if isinstance(s, Vertex) else OrientedEdge(image[s.src], image[s.dst])
            assert {moebius_ball_image(ginv, r.ball) for r in recs} == {r.ball for r in table[t]}, (g, s)


def test_registry_build_does_no_padic_arithmetic(monkeypatch):
    # the build runs on integer coordinates and cell keys alone: with the
    # p-adic arithmetic and GL2 disabled it still builds every registry
    def refuse(*args, **kwargs):
        raise AssertionError("p-adic arithmetic in the registry build")

    for name in ("__add__", "__mul__", "inverse"):
        monkeypatch.setattr(PadicNum, name, refuse)
    monkeypatch.setattr(GL2, "__init__", refuse)
    for p, k, n in [(2, 3, 3), (3, 2, 2), (5, 1, 2)]:
        reg = build_registry(make_cfg(p, k, n), n, k)
        assert len(reg.nonmin_order) == nonminimal_count_formula(p, k, n)
    with pytest.raises(AssertionError, match="p-adic arithmetic"):
        disc(make_cfg(2, 1, 1), 2, 1, chart="w")


def test_registry_build_does_no_lattice_arithmetic(monkeypatch):
    # the shadows are read off vertex codes: with the lattice kernel and GL2
    # disabled in every module that binds them, every registry still builds
    def refuse(*args, **kwargs):
        raise AssertionError("lattice arithmetic in the registry build")

    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("btcomplex.")]
    for module in modules:
        for name in ("_act_coord", "_primitive_rows"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(GL2, "__init__", refuse)
    for p, k, n in [(2, 1, 3), (2, 3, 3), (3, 2, 2), (5, 1, 2), (7, 2, 1)]:
        reg = build_registry(make_cfg(p, k, n), n, k)
        assert len(reg.nonmin_order) == nonminimal_count_formula(p, k, n)
    with pytest.raises(AssertionError, match="lattice arithmetic"):
        vertex_canonical(make_cfg(2, 1, 1), ((1, 0), (0, 1)))


def test_group_side_does_no_padic_arithmetic(monkeypatch):
    # matrices and points hold exact rationals: with the p-adic arithmetic and
    # the conversion into it disabled, the group acts on registry configs
    def refuse(*args, **kwargs):
        raise AssertionError("p-adic arithmetic on the group side")

    for name in ("__add__", "__mul__", "inverse"):
        monkeypatch.setattr(PadicNum, name, refuse)
    monkeypatch.setattr(PadicConfig, "from_fraction", refuse)
    for p, k, n in [(2, 2, 3), (3, 2, 2), (5, 1, 2)]:
        cfg = make_cfg(p, k, n)
        reg = build_registry(cfg, n, k)
        rng = random.Random(p)
        for v in reg.vertices():
            g = map_path(cfg, standard_path(p, v.n), path(Vertex.root(p), v))
            assert act_vertex(g, Vertex(p, v.n, (1, 0))) == v
        for simplex in [*reg.vertices(), *reg.edges()]:
            g = sample_group_element(cfg, simplex, k, rng)
            assert in_group(g, simplex, k)
            if isinstance(simplex, OrientedEdge):
                factor_edge_group(g, simplex, k)
            else:
                assert act_vertex(g, simplex) == simplex
            for z in (ProjPoint.infinity(cfg), ProjPoint.from_z(cfg, Fraction(rng.randrange(-50, 50), p**2))):
                rec = orbit_of_point(cfg, simplex, k, z)
                assert moebius_ball_image(g, rec.ball) == rec.ball
                assert rec.ball.member_point(moebius_apply(g, z))
    with pytest.raises(AssertionError, match="p-adic arithmetic"):
        repr(GL2.identity(make_cfg(2, 1, 1)))  # a matrix's digits are written out


# -- the antichain partition check against the pairwise oracle ------------------


def _pairwise_partition(cfg, balls):
    """Oracle: exact measures sum to 1 + 1/p and every pair is disjoint."""
    balls = list(balls)
    if sum(b.measure() for b in balls) != 1 + Fraction(1, cfg.p):
        return False
    return all(a.disjoint(b) for a, b in combinations(balls, 2))


@pytest.mark.parametrize("p,k,n", [(2, 1, 3), (2, 3, 2), (3, 2, 2), (5, 1, 2)])
def test_partition_check_matches_pairwise_oracle_on_registries(p, k, n):
    cfg = make_cfg(p, k, n)
    reg = build_registry(cfg, n, k)
    cases = [[r.ball for r in minimal_orbits(reg)]]
    cases += [[r.ball for r in recs] for recs in (*reg.vertex_records.values(), *reg.edge_records.values())]
    for case in cases:
        assert check_partition(cfg, case) is _pairwise_partition(cfg, case) is True


def _perturbed(cfg, balls, rng):
    """A seeded edit of a ball list: a ball dropped, duplicated, swapped for a
    cell nested with it, for its complement, or for a random ball, or a
    complement added."""
    balls = list(balls)
    i = rng.randrange(len(balls))
    chart, q, r, flip = balls[i].cell
    p = cfg.p
    kind = rng.randrange(6)
    if kind == 0:
        del balls[i]
    elif kind == 1:
        balls.append(balls[i])
    elif kind == 2 and q > p:  # its parent cell
        balls[i] = Ball(cfg, (chart, q // p, r % (q // p), flip))
    elif kind == 3:  # a child cell, or a finer hole
        balls[i] = Ball(cfg, (chart, q * p, r + q * rng.randrange(p), flip))
    elif kind == 4:
        balls[i] = Ball(cfg, (chart, q, r, not flip))
    else:
        d = rng.randrange(1, 4)
        r = rng.randrange(p**d) if rng.random() < 0.5 else p * rng.randrange(p ** (d - 1))
        new = Ball(cfg, ("z" if rng.random() < 0.5 or r % p else "w", p**d, r, rng.random() < 0.3))
        balls.insert(rng.randrange(len(balls) + 1), new)
    return balls


@pytest.mark.parametrize("p", [2, 3, 5])
def test_partition_check_matches_pairwise_oracle_on_seeded_edits(p):
    cfg = PadicConfig(p, 20)
    rng = random.Random(p)
    reg = build_registry(cfg, 2, 1)
    bases = [[r.ball for r in minimal_orbits(reg)]]
    bases += [[r.ball for r in recs] for recs in (*reg.vertex_records.values(), *reg.edge_records.values())]
    verdicts = []
    for _ in range(400):
        case = rng.choice(bases)
        for _ in range(rng.randrange(1, 3)):
            case = _perturbed(cfg, case, rng)
        want = _pairwise_partition(cfg, case)
        assert check_partition(cfg, case) is want, case
        verdicts.append(want)
    assert 0 < sum(verdicts) < len(verdicts)


# -- sampled group elements -------------------------------------------------------


def _standard_rows(cfg, simplex, k, rng):
    """The standard-frame element sample_group_element draws, by the same rng calls."""
    p = cfg.p
    span = p ** min(cfg.N - 2, k + 5)
    a, b, c, d = (rng.randrange(span) for _ in range(4))
    qa, qb, qc, qd = (p**e for e in level_exponents(simplex, k))
    return ((1 + qa * a, qb * b), (qc * c, 1 + qd * d))


def _conjugated_exactly(cfg, simplex, k, rng):
    """Oracle: h.std.h^-1 multiplied out in Fractions on the transport's rows."""
    std = _standard_rows(cfg, simplex, k, rng)
    t = transport(cfg, simplex)
    (h11, h12), (h21, h22) = h = ((t.a, t.b), (t.c, t.d))
    det = Fraction(h11 * h22 - h12 * h21)
    inv = ((h22 / det, -h12 / det), (-h21 / det, h11 / det))

    def mul(x, y):
        return [[sum(s * t for s, t in zip(row, col)) for col in zip(*y)] for row in x]

    return tuple(Fraction(e) for row in mul(mul(h, std), inv) for e in row)


@pytest.mark.parametrize("p,k,n", [(2, 2, 3), (3, 2, 2), (5, 1, 2)])
def test_sampled_group_elements_keep_every_digit(p, k, n):
    # the conjugation is exact: every entry equals the integer-row product
    cfg = PadicConfig(p, k + 2 * n + 9)
    for simplex in [*vertices_upto(p, n), *edges_upto(p, n)]:
        for seed in range(3):
            g = sample_group_element(cfg, simplex, k, random.Random(seed))
            assert g.entries() == _conjugated_exactly(cfg, simplex, k, random.Random(seed))


# the samples (3 * simplex index + seed) whose element also lies in the level-k
# group of the next simplex in the list; pinned from the p-adic conjugation the
# exact one replaced, which gave the same answers
NEXT_GROUP_MEMBERS = {
    (2, 2, 3): [0, 4, 7, 10, 13, 16, 19, 22, 25, 55, 58, 61, 64, 66, 69, 87],
    (3, 2, 2): [0, 1, 3, 4, 6, 7, 42, 43, 45, 46, 51, 52, 54, 55, 57, 58, 61, 72, 75, 78, 90, 91, 93, 94],
    (5, 1, 2): [2, 16, 109, 113, 116, 119, 122, 125, 206, 209, 212, 215],
}


@pytest.mark.parametrize("p,k,n", sorted(NEXT_GROUP_MEMBERS))
def test_group_membership_conjugates_exactly(p, k, n):
    # in_group and factor_edge_group conjugate into the standard frame exactly:
    # h^-1.g.h is the drawn standard-frame element, and an edge element splits
    # into vertex-group factors whose product is g itself
    cfg = PadicConfig(p, k + 2 * n + 9)
    simplices = [*vertices_upto(p, n), *edges_upto(p, n)]
    also = []
    for i, simplex in enumerate(simplices):
        h = transport(cfg, simplex)
        for seed in range(3):
            g = sample_group_element(cfg, simplex, k, random.Random(seed))
            std = GL2.from_rows(cfg, _standard_rows(cfg, simplex, k, random.Random(seed)))
            assert h.inverse() @ g @ h == std
            assert in_group(g, simplex, k)
            if in_group(g, simplices[(i + 1) % len(simplices)], k):
                also.append(3 * i + seed)
            if isinstance(simplex, OrientedEdge):
                parent, child = simplex.src, simplex.dst
                for e in (simplex, OrientedEdge(child, parent)):
                    g1, g2 = factor_edge_group(g, e, k)
                    assert g1 @ g2 == g
                    assert in_group(g1, child, k) and in_group(g2, parent, k)
    assert also == NEXT_GROUP_MEMBERS[p, k, n]


# -- value semantics of the immutable records ------------------------------------

VALUE_CONFIGS = [(2, 2, 3), (3, 1, 3), (5, 1, 2)]
# sha256 of every sampled object's class, repr and id_str (value_lines), as
# the frozen dataclasses these classes replaced printed them
VALUE_LINES_SHA256 = "da39a4cc9fe9dc4335c50d79d7a4b906b5319ca3392e02f15462bfd96f6fe3a1"
CHARACTERS = [Character(m1, m2) for m1 in range(-2, 3) for m2 in range(-2, 3)]


def _value_objects(p, k, n):
    reg = build_registry(make_cfg(p, k, n, 1), n, k)
    balls = list(dict.fromkeys(r.ball for r in reg.records))
    return reg.cfg, [*reg.vertices(), *reg.edges(), *reg.records, *balls]


def _fields(x):
    """The field tuple of each immutable class, read attribute by attribute."""
    if isinstance(x, Vertex):
        return (x.p, x.n, x.coord)
    if isinstance(x, OrientedEdge):
        return (x.src, x.dst)
    if isinstance(x, OrbitRecord):
        return (x.simplex, x.ball)
    if isinstance(x, Ball):
        return (x.p, x.cell)
    return (x.m1, x.m2)


def _rebuilt(cfg, x):
    """A second instance with the same fields."""
    if isinstance(x, Ball):
        return Ball(cfg, x.cell)
    return type(x)(*_fields(x))


def test_immutable_records_print_as_before():
    lines = []
    for p, k, n in VALUE_CONFIGS:
        lines += [f"{type(x).__name__}\t{x!r}\t{x.id_str()}" for x in _value_objects(p, k, n)[1]]
    lines += [repr(chi) for chi in CHARACTERS]
    assert repr(CHARACTERS[0]) == "Character(m1=-2, m2=-2)"
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == VALUE_LINES_SHA256


@pytest.mark.parametrize("p,k,n", VALUE_CONFIGS)
def test_immutable_records_have_value_semantics(p, k, n):
    cfg, objects = _value_objects(p, k, n)
    objects += CHARACTERS
    for i, x in enumerate(objects):
        fields = _fields(x)
        twin = _rebuilt(cfg, x)
        assert twin is not x and twin == x and not (twin != x) and hash(twin) == hash(x)
        # equal only to its own class: never to its field tuple or another class
        assert x != fields and fields != x and x != list(fields)
        other = objects[i - 1]
        assert (x == other) == (type(x) is type(other) and _fields(x) == _fields(other))
        # the hash of the field tuple, as a frozen dataclass computes it; a
        # Ball hashes its key with the chart as a flag
        if isinstance(x, Ball):
            chart, q, r, flip = x.cell
            assert hash(x) == hash((chart == "z", q, r, flip))
        else:
            assert hash(x) == hash(fields)
        name = {Vertex: "n", OrientedEdge: "src", OrbitRecord: "ball", Ball: "cell", Character: "m1"}[type(x)]
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
        with pytest.raises(AttributeError):
            x.extra = 1
        assert _fields(x) == fields


def test_values_of_different_classes_with_equal_fields_are_unequal():
    cfg = make_cfg(3, 1, 1, 1)
    v0, v1 = Vertex.root(3), Vertex.make(3, 1, 0, 1)
    ball = build_registry(cfg, 1, 1).records[0].ball
    pairs = [
        (Character(1, 2), OrbitRecord(1, 2)),
        (Ball(cfg, ball.cell), Character(cfg.p, ball.cell)),
        (OrientedEdge(v0, v1), OrbitRecord(v0, v1)),
    ]
    for a, b in pairs:
        assert a._fields() == b._fields()
        assert a != b and b != a and not (a == b) and not (b == a)
        assert len({a, b}) == 2
