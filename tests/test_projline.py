import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from btcomplex.padics import PadicConfig, PrecisionError, val_fraction, INF
from btcomplex.projline import (
    Ball,
    GL2,
    ProjPoint,
    _canonical_center,
    ball_cells,
    cell_ids,
    cell_value,
    moebius_apply,
    moebius_ball_image,
)


@pytest.fixture
def cfg():
    return PadicConfig(3, 14)


def random_gl2(cfg, rng):
    while True:
        ent = [Fraction(rng.randrange(-30, 30), rng.choice([1, 1, cfg.p])) for _ in range(4)]
        try:
            return GL2(cfg, *ent)
        except ValueError:
            continue


def random_point(cfg, rng):
    if rng.random() < 0.05:
        return ProjPoint.infinity(cfg)
    return ProjPoint.from_z(cfg, Fraction(rng.randrange(-40, 40), rng.choice([1, 1, cfg.p, cfg.p**2])))


# -- points and the action ----------------------------------------------------


def test_moebius_examples(cfg):
    z0 = ProjPoint.from_z(cfg, 5)
    g = GL2(cfg, 1, 0, 7, 1)
    assert moebius_apply(g, z0) == ProjPoint.from_z(cfg, 12)  # translation branch
    inf = ProjPoint.infinity(cfg)
    g2 = GL2(cfg, 2, 3, 1, 5)
    assert moebius_apply(g2, inf) == ProjPoint.from_z(cfg, Fraction(2, 3))  # a/b
    assert moebius_apply(GL2.identity(cfg), z0) == z0


def test_vanishing_denominator_goes_to_infinity(cfg):
    g = GL2(cfg, 1, 1, 0, -5)  # z.g = z/(z - 5)
    assert moebius_apply(g, ProjPoint.from_z(cfg, 5)).is_infinity()


def test_action_composition_law(cfg):
    rng = random.Random(11)
    for _ in range(1000):
        g, gp = random_gl2(cfg, rng), random_gl2(cfg, rng)
        z = random_point(cfg, rng)
        assert moebius_apply(gp, moebius_apply(g, z)) == moebius_apply(g @ gp, z)


def test_point_normalization_canonical(cfg):
    a = ProjPoint(cfg, cfg.from_int(6), cfg.from_int(15))
    b = ProjPoint(cfg, cfg.from_int(2), cfg.from_int(5))
    assert a == b
    assert a.x == b.x and a.y == b.y


# -- canonical balls -----------------------------------------------------------


def test_ball_canonicalize_recenter(cfg):
    p = cfg.p
    assert Ball.z_disc(cfg, p + p * p, 1) == Ball.z_disc(cfg, 0, 1)
    b = Ball.z_disc(cfg, 0, 1)
    assert Ball.z_disc(cfg, 0, 1) == b


def _members_by_enumeration(cfg, describe, M):
    """Oracle: all level-M cells whose exact representative satisfies `describe`."""
    out = set()
    for cid in cell_ids(cfg, M):
        v = cell_value(cid)
        if describe(v):
            out.add(cid)
    return out


def test_w_ball_canonical_center_matches_enumeration(cfg):
    # disc of radius p^-2 around the point 1/p + 1, in the reciprocal coordinate
    p = cfg.p
    w0 = Fraction(1, p) + 1
    ball = Ball.w_disc(cfg, w0, 2)

    def describe(x):
        if x is None or x == 0:
            return x is None and False
        return val_fraction(1 / x - 1 / w0, p) >= 2

    oracle = _members_by_enumeration(cfg, describe, 3)
    assert ball_cells(cfg, ball, 3) == oracle
    # the canonical reciprocal-coordinate center is 1/w0 reduced mod p^2
    chart, center, m = ball.chart_data()
    assert (chart, m) == ("w", 2)
    assert center == p  # 1/(1/p + 1) = p/(1+p) = p mod p^2


def test_membership_and_subset_examples(cfg):
    p = cfg.p
    z2, z1 = Ball.z_disc(cfg, 0, 2), Ball.z_disc(cfg, 0, 1)
    assert z2.subset(z1) and not z1.subset(z2)
    w2, w1 = Ball.w_disc(cfg, None, 2), Ball.w_disc(cfg, None, 1)
    assert w2.subset(w1) and not w1.subset(w2)
    assert not w1.subset(Ball.z_disc(cfg, 0, 0))  # the two charts are disjoint
    assert w1.disjoint(Ball.z_disc(cfg, 0, 0))
    assert z1.member_point(cfg, ProjPoint.from_z(cfg, p * 7))
    assert not z1.member_point(cfg, ProjPoint.from_z(cfg, 1))
    assert w1.member_point(cfg, ProjPoint.infinity(cfg))
    assert w1.member_point(cfg, ProjPoint.from_z(cfg, Fraction(1, p)))


def test_subset_partial_order_sampled(cfg):
    rng = random.Random(5)
    balls = []
    for _ in range(60):
        m = rng.randrange(-2, 4)
        c = Fraction(rng.randrange(-20, 20), rng.choice([1, 1, cfg.p]))
        if rng.random() < 0.3:
            balls.append(Ball.complement_z(cfg, c, m))
        else:
            balls.append(Ball.z_disc(cfg, c, m))
    for a in balls:
        assert a.subset(a)
    for a in balls:
        for b in balls:
            if a.subset(b) and b.subset(a):
                assert a == b
            for c in balls:
                if a.subset(b) and b.subset(c):
                    assert a.subset(c)


def test_subset_equals_cellwise_containment(cfg):
    rng = random.Random(6)
    for _ in range(150):
        m1, m2 = rng.randrange(-1, 3), rng.randrange(-1, 3)
        c1 = Fraction(rng.randrange(-15, 15), rng.choice([1, cfg.p]))
        c2 = Fraction(rng.randrange(-15, 15), rng.choice([1, cfg.p]))
        mk = lambda c, m, comp: (Ball.complement_z(cfg, c, m) if comp else Ball.z_disc(cfg, c, m))
        a = mk(c1, m1, rng.random() < 0.4)
        b = mk(c2, m2, rng.random() < 0.4)
        M = max(a.required_level(), b.required_level())
        ca, cb = ball_cells(cfg, a, M), ball_cells(cfg, b, M)
        assert a.subset(b) == (ca <= cb)
        assert a.disjoint(b) == (not (ca & cb))


def test_measure_matches_cell_count(cfg):
    rng = random.Random(7)
    for _ in range(80):
        m = rng.randrange(-2, 3)
        c = Fraction(rng.randrange(-15, 15), rng.choice([1, cfg.p]))
        ball = Ball.complement_z(cfg, c, m) if rng.random() < 0.4 else Ball.z_disc(cfg, c, m)
        M = ball.required_level() + 1
        assert ball.measure() == Fraction(len(ball_cells(cfg, ball, M)), cfg.p**M)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("m", [2, 3])
def test_complement_at_zero_resolves_at_its_required_level(p, m):
    # the hole { val x >= m } needs cells of level m, as the disc itself does
    cfg = PadicConfig(p, 14)
    ball = Ball.complement_z(cfg, 0, m)
    M = ball.required_level()
    assert M == m
    assert ball.measure() == Fraction(len(ball_cells(cfg, ball, M)), p**M)


# Seeded and bounded, so Tier-1 stays deterministic.  Centers have valuation
# >= -1 and radii lie in [-3, 3], so no ball needs cells finer than level 5;
# half the centers are 0, where the z and w charts meet.
PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@st.composite
def balls_on_one_line(draw, count):
    cfg = PadicConfig(draw(st.sampled_from([2, 3, 5])), 14)
    p = cfg.p
    out = [cfg]
    for _ in range(count):
        c = Fraction(draw(st.just(0) | st.integers(-p, p)), draw(st.sampled_from([1, p])))
        m = draw(st.integers(-3, 3))
        out.append(Ball.complement_z(cfg, c, m) if draw(st.booleans()) else Ball.z_disc(cfg, c, m))
    return out


@PROPERTY
@given(balls_on_one_line(2))
def test_subset_and_disjoint_match_cells_property(drawn):
    cfg, a, b = drawn
    M = max(a.required_level(), b.required_level())
    ca, cb = ball_cells(cfg, a, M), ball_cells(cfg, b, M)
    assert a.subset(b) == (ca <= cb)
    assert a.disjoint(b) == (not (ca & cb))


@PROPERTY
@given(balls_on_one_line(1))
def test_measure_matches_cells_at_every_resolving_level_property(drawn):
    cfg, ball = drawn
    for M in (ball.required_level(), ball.required_level() + 1):
        assert ball.measure() == Fraction(len(ball_cells(cfg, ball, M)), cfg.p**M)


# -- closed forms against the constructions they replace ----------------------


def _ball_param_oracle(cfg, ball):
    """The disc coordinate built as products with the swap z -> 1/z."""
    chart, center, m = ball.chart_data()
    pm = Fraction(cfg.p) ** m
    if chart == "z":
        return GL2(cfg, pm, 0, center, 1)
    W = GL2(cfg, 0, 1, 1, 0)
    if chart == "w":
        return GL2(cfg, pm, 0, center, 1) @ W
    # complement disc containing 0 and infinity: x = center + p^(m-1)/t
    return W @ GL2(cfg, Fraction(cfg.p) ** (m - 1), 0, center, 1)


def _u_disc_oracle(cfg, u_center, m):
    """The u-disc by hand inversion of its center, with no exponent check on
    the result."""
    u = cfg.number(u_center)
    cu = _canonical_center(cfg, u, m)
    if cu == 0:
        # contains u = 0, i.e. the point at infinity: complement of a z-disc
        return Ball(cfg.p, True, Fraction(0), 1 - m)
    # bounded disc not containing 0: invert exactly
    s = val_fraction(cu, cfg.p)
    assert s < m
    mz = m - 2 * s
    return Ball(cfg.p, False, _canonical_center(cfg, 1 / cu, mz), mz)


def _digits(x):
    return (x.valuation, x.u, x.prec)


@PROPERTY
@given(balls_on_one_line(1))
def test_param_maps_the_unit_disc_onto_the_ball_property(drawn):
    cfg, ball = drawn
    M = GL2.from_rows(cfg, ball.param())
    assert moebius_ball_image(M, Ball.z_disc(cfg, 0, 0)) == ball
    oracle = _ball_param_oracle(cfg, ball)
    assert [_digits(e) for e in M.entries()] == [_digits(e) for e in oracle.entries()]


@st.composite
def u_discs(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    cfg = PadicConfig(p, draw(st.sampled_from([8, 12, 20])))
    u = Fraction(draw(st.just(0) | st.integers(-p**6, p**6)), p ** draw(st.integers(0, 4)))
    m = draw(st.integers(2 - cfg.N, cfg.N - 2))
    return cfg, u, (cfg.from_fraction(u) if draw(st.booleans()) else u), m


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(u_discs())
def test_u_disc_is_the_hand_inversion_within_precision_property(drawn):
    # the exponent of the inverted disc, from the exact center; u may be passed
    # as a Fraction or as a PadicNum of N digits
    cfg, exact, u, m = drawn
    cu = Ball.z_disc(cfg, exact, m).center
    exponent = 1 - m if cu == 0 else m - 2 * val_fraction(cu, cfg.p)
    if abs(exponent) <= cfg.N - 2:
        assert Ball.u_disc(cfg, u, m) == _u_disc_oracle(cfg, u, m)
    else:
        with pytest.raises(PrecisionError):
            Ball.u_disc(cfg, u, m)


# -- disc transport ------------------------------------------------------------


def test_ball_image_standard_contraction(cfg):
    # diag(1, p^n) transport shrinks the standard disc by n digits
    p = cfg.p
    for n in (1, 2, 3):
        gn = GL2(cfg, 1, 0, 0, p**n)
        img = moebius_ball_image(gn.inverse(), Ball.z_disc(cfg, 0, 1))
        assert img == Ball.z_disc(cfg, 0, 1 + n)


def test_ball_image_identity(cfg):
    b = Ball.w_disc(cfg, None, 2)
    assert moebius_ball_image(GL2.identity(cfg), b) == b


def test_ball_image_inversion_bruteforce():
    for p in (2, 3):
        cfg = PadicConfig(p, 12)
        w = GL2(cfg, 0, 1, 1, 0)  # z -> 1/z
        b = Ball.z_disc(cfg, 1, 1)
        img = moebius_ball_image(w, b)
        oracle = _members_by_enumeration(
            cfg, lambda x: x is not None and x != 0 and val_fraction(1 / x - 1, p) >= 1, 3
        )
        assert ball_cells(cfg, img, 3) == oracle
        assert img == b  # the unit ball around 1 is inversion-stable


def test_ball_image_composition_law(cfg):
    rng = random.Random(8)
    for _ in range(200):
        g, gp = random_gl2(cfg, rng), random_gl2(cfg, rng)
        m = rng.randrange(0, 3)
        ball = Ball.z_disc(cfg, rng.randrange(-10, 10), m)
        one = moebius_ball_image(gp, moebius_ball_image(g, ball))
        two = moebius_ball_image(g @ gp, ball)
        assert one == two


def test_ball_image_round_trip_and_membership(cfg):
    rng = random.Random(9)
    for _ in range(200):
        g = random_gl2(cfg, rng)
        m = rng.randrange(0, 3)
        ball = Ball.z_disc(cfg, rng.randrange(-8, 8), m)
        img = moebius_ball_image(g, ball)
        assert moebius_ball_image(g.inverse(), img) == ball
        # forward: representatives of the source land inside the image
        for cid in ball_cells(cfg, ball, ball.required_level() + 1):
            pt = ProjPoint.from_z(cfg, cell_value(cid)) if cell_value(cid) is not None else ProjPoint.infinity(cfg)
            assert img.member_point(cfg, moebius_apply(g, pt))
        # backward: representatives of the image pull back into the source
        for cid in ball_cells(cfg, img, img.required_level()):
            v = cell_value(cid)
            pt = ProjPoint.infinity(cfg) if v is None else ProjPoint.from_z(cfg, v)
            assert ball.member_point(cfg, moebius_apply(g.inverse(), pt))


def test_ball_image_pointwise_biconditional(cfg):
    # airtight small-scale oracle: x is in the computed image exactly when
    # x . g^{-1} is in the source, for every cell representative of P^1
    rng = random.Random(10)
    L = 6
    reps = []
    for cid in cell_ids(cfg, L):
        v = cell_value(cid)
        reps.append(ProjPoint.infinity(cfg) if v is None else ProjPoint.from_z(cfg, v))
    for _ in range(25):
        while True:
            ent = [rng.randrange(-8, 8) for _ in range(4)]
            try:
                g = GL2(cfg, *ent)
                break
            except ValueError:
                continue
        ball = Ball.z_disc(cfg, rng.randrange(-4, 4), rng.randrange(0, 3))
        img = moebius_ball_image(g, ball)
        if img.required_level() > L:
            continue
        ginv = g.inverse()
        for pt in reps:
            assert img.member_point(cfg, pt) == ball.member_point(cfg, moebius_apply(ginv, pt))
