import json
import random
import warnings
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from btcomplex.padics import INF, PadicConfig
from btcomplex.projline import Ball, GL2, ProjPoint, moebius_apply
from btcomplex.tree import standard_orientation, standard_path
from btcomplex.orbits import build_registry, enumerate_orbits, sample_group_element
from btcomplex.chains import (
    BoundaryMatrix,
    Chain,
    Character,
    NotAnalyticError,
    act_on_function,
    assemble_dbar1,
    cocycle_xi,
    kernel_lift,
    kernel_project,
    monomial,
    partial0,
    partial1,
    random_chain1,
    random_localfun,
    random_truncfun,
    registry_restrict,
    restrict,
    section_s,
    surjectivity_lift,
    verify_exactness,
    zero_fun,
)
from test_acceptance import _single_branch


def make_cfg(p, k, n, d=1):
    return PadicConfig(p, k + 2 * n + d + 8)


def make_reg(p, k, n, d=1):
    return build_registry(make_cfg(p, k, n, d), n, k)


@pytest.fixture(autouse=True)
def _quiet_uniformity_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


# -- section and cocycle --------------------------------------------------------


def test_section_branches():
    cfg = PadicConfig(3, 12)
    assert section_s(cfg, ProjPoint.from_z(cfg, 0)) == GL2.identity(cfg)
    s = section_s(cfg, ProjPoint.from_z(cfg, Fraction(1, 3)))
    assert s == GL2(cfg, 0, -1, 1, 3)
    s_inf = section_s(cfg, ProjPoint.infinity(cfg))
    assert s_inf == GL2(cfg, 0, -1, 1, 0)


def test_cocycle_law_and_factorization():
    cfg = PadicConfig(3, 14)
    rng = random.Random(1)

    def rand_g():
        while True:
            ent = [Fraction(rng.randrange(-25, 25), rng.choice([1, 1, 3])) for _ in range(4)]
            try:
                return GL2(cfg, *ent)
            except ValueError:
                continue

    for _ in range(150):
        g, gp = rand_g(), rand_g()
        z = ProjPoint.from_z(cfg, Fraction(rng.randrange(-20, 20), rng.choice([1, 3, 9])))
        xi = cocycle_xi(cfg, z, g)
        assert xi.c.is_zero()
        assert cocycle_xi(cfg, z, g @ gp) == xi @ cocycle_xi(cfg, moebius_apply(g, z), gp)
    # g = xi(0, g) s(0.g)
    for _ in range(30):
        g = rand_g()
        zero = ProjPoint.from_z(cfg, 0)
        assert cocycle_xi(cfg, zero, g) @ section_s(cfg, moebius_apply(g, zero)) == g


# -- the twisted action -----------------------------------------------------------


def test_act_identity():
    cfg = PadicConfig(3, 12)
    ball = Ball.z_disc(cfg, 0, 1)
    f = random_truncfun(cfg, ball, 2, random.Random(2))
    out, guard = act_on_function(GL2.identity(cfg), Character(2, -1), f)
    assert out == f and guard is INF


def test_act_translation_recenters():
    cfg = PadicConfig(3, 12)
    ball = Ball.z_disc(cfg, 0, 1)
    f = monomial(cfg, ball, 1, 2)  # f = t with z = 3t
    g = GL2(cfg, 1, 0, 3, 1)  # z -> z + 3
    out, guard = act_on_function(g, Character(0, 0), f)
    assert [c.serialize() for c in out.coeffs] == ["v0:u1", "v0:u1", "vinf:u0"]
    assert guard is INF


def test_act_diagonal_on_monomial():
    cfg = PadicConfig(3, 12)
    chi = Character(2, -1)
    a, d = 4, 7
    g = GL2(cfg, a, 0, 0, d)
    ball = Ball.z_disc(cfg, 0, 0)  # t = z
    f = monomial(cfg, ball, 1, 1)
    out, _ = act_on_function(g, chi, f)
    expected = chi.chi1(cfg.from_int(a * d)) * chi.chi2(cfg.from_int(d)) * (
        cfg.from_int(a) / cfg.from_int(d)
    )
    assert out.coeffs[0].is_zero() and out.coeffs[1] == expected


def test_act_guard_valuation_measured_exactly():
    # unipotent example where the discarded tail is a clean geometric series
    cfg = PadicConfig(3, 12)
    g = GL2(cfg, 1, 3, 0, 1)  # z.g = z/(3z+1)
    ball = Ball.z_disc(cfg, 0, 1)
    f = monomial(cfg, ball, 1, 1)  # f = t, z = 3t
    out, guard = act_on_function(g, Character(0, 0), f)
    # f(z.g) = t - 9 t^2 + 81 t^3 - ...: kept [0, 1], first discarded has val 2
    assert [c.serialize() for c in out.coeffs] == ["vinf:u0", "v0:u1"]
    assert guard == 2


def test_act_rejects_boundary_crossing_disc():
    cfg = PadicConfig(2, 12)
    reg = make_reg(2, 1, 1)
    crossing = [r for r in reg.all_vertex_records() if r.ball.chart_data()[0] == "c"]
    assert crossing
    rec = crossing[0]
    g = sample_group_element(reg.cfg, rec.simplex, 1, random.Random(3))
    with pytest.raises(NotAnalyticError):
        act_on_function(g, Character(1, 1), monomial(reg.cfg, rec.ball, 0, 1))


def _acts_analytically(cfg, ball):
    try:
        act_on_function(GL2.identity(cfg), Character(0, 0), monomial(cfg, ball, 0, 1))
    except NotAnalyticError:
        return False
    return True


@pytest.mark.parametrize("p,k,n", [(2, 2, 3), (3, 1, 2)])
def test_section_branch_is_the_chart_condition_on_records(p, k, n):
    reg = make_reg(p, k, n)
    for rec in reg.all_vertex_records() + reg.all_edge_records():
        assert _acts_analytically(reg.cfg, rec.ball) == _single_branch(rec.ball), rec


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(-25, 25), st.integers(0, 2),
       st.integers(-3, 4), st.booleans())
def test_section_branch_is_the_chart_condition_property(p, a, j, m, comp):
    cfg = PadicConfig(p, 20)
    c = Fraction(a, p**j)
    ball = Ball.complement_z(cfg, c, m) if comp else Ball.z_disc(cfg, c, m)
    assert _acts_analytically(cfg, ball) == _single_branch(ball)


def test_act_stability_on_own_orbits():
    # sampled group elements keep truncated functions on their orbit discs
    # inside the model space, at either section branch
    rng = random.Random(4)
    for p, k in [(2, 1), (3, 1), (3, 2)]:
        cfg = PadicConfig(p, 20)
        v0, v1 = standard_path(p, 1)
        e0 = standard_orientation(v0, v1)
        for simplex in (v0, v1, e0):
            recs = [
                r
                for r in enumerate_orbits(cfg, simplex, k)
                if not (r.ball.chart_data()[0] == "c" or (r.ball.chart_data()[0] == "z" and r.ball.chart_data()[2] < 0)
                        or (r.ball.chart_data()[0] == "w" and r.ball.chart_data()[1] == 0 and r.ball.chart_data()[2] < 1))
            ]
            for _ in range(6):
                rec = rng.choice(recs)
                g = sample_group_element(cfg, simplex, k, rng)
                chi = Character(rng.randrange(-3, 4), rng.randrange(-3, 4))
                f = random_truncfun(cfg, rec.ball, 2, rng)
                out, guard = act_on_function(g, chi, f)
                assert out.ball == rec.ball
                assert guard is INF or guard >= 1


def _eval_truncfun(f, t0):
    acc = f.cfg.zero()
    for c in reversed(f.coeffs):
        acc = acc * t0 + c
    return acc


def test_act_matches_pointwise_cocycle_definition():
    # the expanded polynomial agrees with chi(cocycle(x, g)) * f(x.g) at exact
    # sample points, up to the reported guard valuation, on both branches
    rng = random.Random(13)
    for p, k in [(3, 1), (3, 2), (2, 2)]:
        cfg = PadicConfig(p, 22)
        v0, v1 = standard_path(p, 1)
        for simplex in (v0, v1):
            recs = [
                r
                for r in enumerate_orbits(cfg, simplex, k)
                if r.ball.chart_data()[0] != "c"
                and not (r.ball.chart_data()[0] == "z" and r.ball.chart_data()[2] < 0)
                and not (r.ball.chart_data()[0] == "w" and r.ball.chart_data()[1] == 0 and r.ball.chart_data()[2] < 1)
            ]
            for _ in range(4):
                rec = rng.choice(recs)
                g = sample_group_element(cfg, simplex, k, rng)
                chi = Character(rng.randrange(-2, 3), rng.randrange(-2, 3))
                f = random_truncfun(cfg, rec.ball, 2, rng, nonzero=True)
                out, guard = act_on_function(g, chi, f)
                Mb = GL2.from_rows(cfg, rec.ball.param())
                Mb_inv = Mb.inverse()
                for t_int in rng.sample(range(1, 50), 4):
                    t0 = cfg.from_int(t_int)
                    x = moebius_apply(Mb, ProjPoint.from_z(cfg, t_int))
                    xi = cocycle_xi(cfg, x, g)
                    t_img = moebius_apply(Mb_inv, moebius_apply(g, x)).z_coord()
                    truth = chi.of_borel(xi) * _eval_truncfun(f, t_img)
                    approx = _eval_truncfun(out, t0)
                    diff = truth - approx
                    assert diff.is_zero() or diff.valuation >= min(guard, cfg.N - 4), (
                        simplex, rec.ball, t_int, diff.valuation, guard)


def test_edge_and_vertex_groups_act_alike_on_shared_orbit():
    # on an orbit shared by the edge and its owner vertex, elements of either
    # group are defined and stay in the truncated space
    rng = random.Random(5)
    p, k = 3, 2
    cfg = PadicConfig(p, 20)
    v0, v1 = standard_path(p, 1)
    e0 = standard_orientation(v0, v1)
    reg = build_registry(cfg, 1, k)
    for rec in reg.edge_records[e0]:
        owner = reg.records[reg.owner[reg.index[rec]]].simplex
        chart, center, m = rec.ball.chart_data()
        if chart == "c" or (chart == "z" and m < 0):
            continue
        f = random_truncfun(cfg, rec.ball, 1, rng)
        chi = Character(1, -2)
        for simplex in (e0, owner):
            g = sample_group_element(cfg, simplex, k, rng)
            out, _ = act_on_function(g, chi, f)
            assert out.ball == rec.ball


# -- restriction ------------------------------------------------------------------


def test_restrict_constant():
    cfg = PadicConfig(3, 12)
    parent = Ball.z_disc(cfg, 0, 1)
    f = monomial(cfg, parent, 0, 2)
    out = restrict(f, Ball.z_disc(cfg, 3, 2))
    assert [str(c.serialize()) for c in out.coeffs] == ["v0:u1", "vinf:u0", "vinf:u0"]


def test_restrict_recentring_examples():
    cfg = PadicConfig(3, 12)
    p = 3
    parent = Ball.z_disc(cfg, 0, 1)  # z = p t
    f = monomial(cfg, parent, 1, 1)  # f = t
    child0 = Ball.z_disc(cfg, 0, 2)  # z = p^2 t'
    out = restrict(f, child0)
    assert out.coeffs[0].is_zero() and out.coeffs[1] == cfg.from_int(p)
    childp = Ball.z_disc(cfg, p, 2)  # z = p + p^2 t'
    out = restrict(f, childp)
    assert out.coeffs[0] == cfg.one() and out.coeffs[1] == cfg.from_int(p)


def test_restrict_requires_containment():
    cfg = PadicConfig(3, 12)
    f = monomial(cfg, Ball.z_disc(cfg, 0, 2), 1, 1)
    with pytest.raises(ValueError):
        restrict(f, Ball.z_disc(cfg, 1, 2))


def test_restrict_affine_functoriality():
    cfg = PadicConfig(3, 14)
    rng = random.Random(6)
    for _ in range(60):
        c1 = rng.randrange(27)
        big = Ball.z_disc(cfg, c1, 1)
        mid = Ball.z_disc(cfg, c1 + 3 * rng.randrange(3), 2)
        small = Ball.z_disc(cfg, int(mid.center) + 9 * rng.randrange(3), 3)
        f = random_truncfun(cfg, big, 2, rng)
        assert restrict(restrict(f, mid), small) == restrict(f, small)
    # reciprocal-chart chains restrict exactly as well
    for _ in range(60):
        big = Ball.u_disc(cfg, 3 * rng.randrange(1, 9), 2)
        chart, cu, m = big.chart_data()
        mid = Ball.u_disc(cfg, cu + 9 * rng.randrange(3), 3)
        _, cu2, _ = mid.chart_data()
        small = Ball.u_disc(cfg, cu2 + 27 * rng.randrange(3), 4)
        f = random_truncfun(cfg, big, 2, rng)
        assert restrict(restrict(f, mid), small) == restrict(f, small)


def test_registry_restrict_functorial_on_all_nested_triples():
    for (p, k, n) in [(2, 1, 1), (2, 1, 2), (3, 1, 1)]:
        reg = make_reg(p, k, n, d=2)
        cfg = reg.cfg
        rng = random.Random(7)
        # one vertex record per registry ball, the balls in ball-key order
        rec_of = {reg.balls[reg.ball_of[i]]: i for i in range(len(reg.minimal))}
        balls = sorted(rec_of, key=lambda b: b.sort_key())
        triples = [
            (a, b, c)
            for a in balls
            for b in balls
            for c in balls
            if a != b and b != c and b.subset(a) and c.subset(b)
        ]
        for a, b, c in rng.sample(triples, min(40, len(triples))):
            f = random_truncfun(cfg, a, 2, rng)
            one = registry_restrict(reg, registry_restrict(reg, f, rec_of[a], rec_of[b]),
                                    rec_of[b], rec_of[c])
            two = registry_restrict(reg, f, rec_of[a], rec_of[c])
            assert one == two, (a, b, c)


# -- boundary maps -----------------------------------------------------------------


def test_partial1_single_edge_signs():
    reg = make_reg(3, 1, 1)
    cfg = reg.cfg
    e = reg.edges()[0]
    rec = reg.edge_records[e][0]
    one = monomial(cfg, rec.ball, 0, 1)
    out = partial1(Chain(reg, 1, {reg.index[rec]: one}), reg)
    owner = reg.records[reg.owner[reg.index[rec]]].simplex
    sign = 1 if owner == e.src else -1
    owner_part = [f for i, f in out.parts.items() if reg.records[i].simplex == owner]
    assert len(owner_part) == 1
    assert owner_part[0].coeffs[0] == (cfg.one() if sign == 1 else -cfg.one())
    other = e.dst if owner == e.src else e.src
    other_parts = [f for i, f in out.parts.items() if reg.records[i].simplex == other]
    assert len(other_parts) == reg.p
    for f in other_parts:
        assert f.coeffs[0] == (-cfg.one() if sign == 1 else cfg.one())


def test_partial0_after_partial1_vanishes():
    rng = random.Random(8)
    for (p, k, n, d) in [(2, 1, 1, 2), (3, 1, 1, 1), (2, 1, 2, 1), (3, 2, 1, 2)]:
        reg = make_reg(p, k, n, d)
        for _ in range(6):
            c1 = random_chain1(reg, d, rng)
            assert partial0(partial1(c1, reg), reg).is_zero()


def test_partial1_nonzero_on_random_chains():
    rng = random.Random(9)
    reg = make_reg(3, 1, 2)
    for _ in range(100):
        c1 = random_chain1(reg, 1, rng)
        if not c1.is_zero():
            assert not partial1(c1, reg).is_zero()


def test_deepest_edge_support_shows_up_at_deep_vertex():
    reg = make_reg(3, 1, 2)
    cfg = reg.cfg
    deep = [e for e in reg.edges() if e.depth == 2]
    rec = reg.edge_records[deep[0]][0]
    out = partial1(Chain(reg, 1, {reg.index[rec]: monomial(cfg, rec.ball, 0, 1)}), reg)
    assert any(reg.records[i].simplex.n == 2 for i in out.parts)


# -- kernel projection ----------------------------------------------------------------


def test_kernel_roundtrip_zero():
    reg = make_reg(3, 1, 1)
    z = Chain(reg, 1)
    assert kernel_lift(z, reg).is_zero()
    assert kernel_project(z, reg).is_zero()


def test_kernel_lift_of_single_component():
    # a function on one non-minimal record, minus its restrictions to the
    # minimal discs below it, sums to zero
    reg = make_reg(3, 1, 1, d=1)
    cfg = reg.cfg
    rec = reg.records[reg.nonmin_order[0]]
    f = monomial(cfg, rec.ball, 1, 1)
    c = Chain(reg, 1, {reg.index[rec]: f})
    lifted = kernel_lift(c, reg)
    assert partial0(lifted, reg).is_zero()
    assert kernel_project(lifted, reg) == c


def test_kernel_lift_random_nonminimal_assignment():
    rng = random.Random(10)
    reg = make_reg(3, 1, 1, d=1)
    cfg = reg.cfg
    c = Chain(reg, 1)
    for rec in reg.nonminimal_records():
        c.set_part(reg.index[rec], random_truncfun(cfg, rec.ball, 1, rng))
    lifted = kernel_lift(c, reg)
    assert partial0(lifted, reg).is_zero()
    assert kernel_project(lifted, reg) == c


def test_kernel_project_rejects_non_kernel():
    reg = make_reg(3, 1, 1)
    cfg = reg.cfg
    rec = reg.records[reg.nonmin_order[0]]
    c = Chain(reg, 1, {reg.index[rec]: monomial(cfg, rec.ball, 0, 1)})
    with pytest.raises(ValueError):
        kernel_project(c, reg)


# -- the boundary matrix -----------------------------------------------------------------


def reference_structure():
    with resources.files("btcomplex.data").joinpath("boundary_matrix_p2_k1_n1.json").open() as fh:
        return json.load(fh)


def test_reference_block_matrix_layout():
    reg = make_reg(2, 1, 1)
    mat = assemble_dbar1(reg, 1)
    golden = reference_structure()
    assert mat.size == golden["size"] == 6
    got = {(b["row"], b["col"], b["kind"], b["sign"]) for b in mat.structure()}
    want = {(b["row"], b["col"], b["kind"], b["sign"]) for b in golden["blocks"]}
    assert got == want
    assert mat.diag_signs() == [-1, -1, -1, 1, 1, 1]


def test_matrix_triangular_everywhere():
    for (p, k, n) in [(2, 1, 1), (3, 1, 1), (2, 2, 1), (3, 1, 2), (2, 2, 2)]:
        reg = make_reg(p, k, n)
        mat = assemble_dbar1(reg, 1)
        assert mat.is_lower_triangular()
        assert all(s in (1, -1) for s in mat.diag_signs())
        from btcomplex.orbits import nonminimal_count_formula

        assert mat.size == nonminimal_count_formula(p, k, n)


def test_matrix_apply_matches_projected_boundary():
    reg = make_reg(3, 1, 1, d=1)
    cfg = reg.cfg
    mat = assemble_dbar1(reg, 1)
    rng = random.Random(11)
    for _ in range(10):
        c1 = random_chain1(reg, 1, rng)
        image = partial1(c1, reg)
        projected = Chain(reg, 1)
        for i, f in image.parts.items():
            if not reg.minimal[i]:
                projected.set_part(i, f)
        assert projected == mat.apply(c1)


# -- exactness reports ---------------------------------------------------------------------


def test_verify_exactness_dims_small():
    rep = verify_exactness(make_reg(3, 1, 1, d=0), 0, seed=0)
    assert rep["verdict"] == "exact"
    assert rep["dims"] == {"C1": 8, "C0": 20, "ker_partial0": 8, "r": 8}
    rep = verify_exactness(make_reg(2, 1, 1, d=1), 1, seed=0)
    assert rep["verdict"] == "exact"
    assert rep["dims"]["C1"] == 12 and rep["dims"]["r"] == 6


def test_verify_exactness_witness_belongs_to_the_failing_check(monkeypatch):
    # a matrix that loses one column fails the matrix check alone, and the
    # kernel check, which passes, carries no witness of it
    reg = make_reg(2, 1, 1, d=0)
    dropped = next(iter(reg.edge_ids()))
    apply = BoundaryMatrix.apply
    monkeypatch.setattr(BoundaryMatrix, "apply", lambda mat, c1: apply(
        mat, Chain(reg, c1.d, {i: f for i, f in c1.parts.items() if i != dropped})))
    rep = verify_exactness(reg, 0, seed=0)
    checks = {c["name"]: c for c in rep["checks"]}
    kernel = checks["boundary composite vanishes on a basis"]
    matrix = checks["matrix equals projected boundary on a basis"]
    assert kernel["pass"] and kernel["detail"] == ""
    assert not matrix["pass"] and matrix["detail"] == f"{reg.records[dropped].id_str()} degree 0"
    assert rep["verdict"] == "failed"


def test_surjectivity_lift_exact():
    rng = random.Random(12)
    reg = make_reg(3, 1, 2, d=1)
    for _ in range(5):
        target = random_localfun(reg, 1, rng)
        lifted = surjectivity_lift(target, reg)
        assert partial0(lifted, reg) == target
        # the lift is supported where the pieces live, zero elsewhere
        assert set(lifted.parts) <= set(target.parts)
