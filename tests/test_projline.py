import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from btcomplex.padics import PadicConfig, PrecisionError, val_fraction
from btcomplex.projline import GL2, Ball, ProjPoint, _radius_exponent, moebius_apply, moebius_ball_image
from btcomplex.tree import vertex_canonical
from residue_cells import (
    NormalForm,
    ball_cells,
    cell_ids,
    cell_value,
    disc,
    normal_form,
    required_level,
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


ENTRY_OF = {
    "GL2": lambda cfg, x: GL2(cfg, x, 0, 0, 1),
    "ProjPoint": lambda cfg, x: ProjPoint(cfg, x, 1),
    "vertex_canonical": lambda cfg, x: vertex_canonical(cfg, ((x, 0), (0, 1))),
}


@pytest.mark.parametrize("refused", ["1/3", 0.5, True, "PadicNum"], ids=["str", "float", "bool", "PadicNum"])
@pytest.mark.parametrize("build", sorted(ENTRY_OF))
def test_entries_are_exact_rationals_only(cfg, build, refused):
    # Fraction() parses "1/3" and takes floats; the one guard takes ints and
    # Fractions only, so digit strings are output and every entry is exact
    ENTRY_OF[build](cfg, Fraction(1, 3))
    ENTRY_OF[build](cfg, 3)
    x = cfg.from_int(1) if refused == "PadicNum" else refused
    with pytest.raises(TypeError, match="not an exact rational"):
        ENTRY_OF[build](cfg, x)


def test_point_normalization_canonical(cfg):
    a = ProjPoint(cfg, 6, 15)
    b = ProjPoint(cfg, 2, 5)
    assert a == b
    assert a.x == b.x and a.y == b.y


# -- canonical balls -----------------------------------------------------------


def test_ball_canonicalize_recenter(cfg):
    p = cfg.p
    assert disc(cfg, p + p * p, 1) == disc(cfg, 0, 1)
    b = disc(cfg, 0, 1)
    assert disc(cfg, 0, 1) == b


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
    ball = disc(cfg, 1 / w0, 2, chart="w")

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
    z2, z1 = disc(cfg, 0, 2), disc(cfg, 0, 1)
    assert z2.subset(z1) and not z1.subset(z2)
    w2, w1 = disc(cfg, 0, 2, chart="w"), disc(cfg, 0, 1, chart="w")
    assert w2.subset(w1) and not w1.subset(w2)
    assert not w1.subset(disc(cfg, 0, 0))  # the two charts are disjoint
    assert w1.disjoint(disc(cfg, 0, 0))
    assert z1.member_point(ProjPoint.from_z(cfg, p * 7))
    assert not z1.member_point(ProjPoint.from_z(cfg, 1))
    assert w1.member_point(ProjPoint.infinity(cfg))
    assert w1.member_point(ProjPoint.from_z(cfg, Fraction(1, p)))


def test_subset_partial_order_sampled(cfg):
    rng = random.Random(5)
    balls = []
    for _ in range(60):
        m = rng.randrange(-2, 4)
        c = Fraction(rng.randrange(-20, 20), rng.choice([1, 1, cfg.p]))
        if rng.random() < 0.3:
            balls.append(disc(cfg, c, m, complement=True))
        else:
            balls.append(disc(cfg, c, m))
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
        mk = lambda c, m, comp: disc(cfg, c, m, complement=comp)
        a = mk(c1, m1, rng.random() < 0.4)
        b = mk(c2, m2, rng.random() < 0.4)
        M = max(required_level(a), required_level(b))
        ca, cb = ball_cells(cfg, a, M), ball_cells(cfg, b, M)
        assert a.subset(b) == (ca <= cb)
        assert a.disjoint(b) == (not (ca & cb))


def test_measure_matches_cell_count(cfg):
    rng = random.Random(7)
    for _ in range(80):
        m = rng.randrange(-2, 3)
        c = Fraction(rng.randrange(-15, 15), rng.choice([1, cfg.p]))
        ball = disc(cfg, c, m, complement=rng.random() < 0.4)
        M = required_level(ball) + 1
        assert ball.measure() == Fraction(len(ball_cells(cfg, ball, M)), cfg.p**M)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("m", [2, 3])
def test_complement_at_zero_resolves_at_its_required_level(p, m):
    # the hole { val x >= m } needs cells of level m, as the disc itself does
    cfg = PadicConfig(p, 14)
    ball = disc(cfg, 0, m, complement=True)
    M = required_level(ball)
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
        out.append(disc(cfg, c, m, complement=draw(st.booleans())))
    return out


@PROPERTY
@given(balls_on_one_line(2))
def test_subset_and_disjoint_match_cells_property(drawn):
    cfg, a, b = drawn
    M = max(required_level(a), required_level(b))
    ca, cb = ball_cells(cfg, a, M), ball_cells(cfg, b, M)
    assert a.subset(b) == (ca <= cb)
    assert a.disjoint(b) == (not (ca & cb))


@PROPERTY
@given(balls_on_one_line(1))
def test_measure_matches_cells_at_every_resolving_level_property(drawn):
    cfg, ball = drawn
    for M in (required_level(ball), required_level(ball) + 1):
        assert ball.measure() == Fraction(len(ball_cells(cfg, ball, M)), cfg.p**M)


# -- the cell key against the chart-valuation predicates it replaced ----------


def _misses_oracle(a, flip, b):
    """a is disjoint from b, or from P^1 minus b when flip, decided on the
    normal forms a and b by valuations of the center difference."""
    b_comp = b.complement != flip
    if a.complement and b_comp:
        return False  # both contain infinity
    if not (a.complement or b_comp):
        return val_fraction(a.center - b.center, a.p) < min(a.m, b.m)
    # a finite disc misses the complement of a hole exactly when it lies in the hole
    disc, hole = (b.m, a.m) if a.complement else (a.m, b.m)
    return disc >= hole and val_fraction(a.center - b.center, a.p) >= hole


def _measure_oracle(nf):
    """Mass p^-m of a finite disc of exponent m in its own chart; { val z >= m }
    with m < 0 is P^1 minus the u-disc of exponent 1 - m."""
    total = 1 + Fraction(1, nf.p)
    if nf.complement:
        return total - _measure_oracle(replace(nf, complement=False))
    m = nf.chart_data()[2]
    return total - Fraction(1, nf.p ** (1 - m)) if m < 0 else Fraction(1, nf.p**m)


def _cell_of_key(ball):
    """The oracle's cell id and level for the ball's key, and its flag."""
    chart, q, r, flip = ball.cell
    level = 1
    while ball.p**level < q:
        level += 1
    assert ball.p**level == q
    return (chart, r), level, flip


def _registry_balls(p, k, n):
    from btcomplex.orbits import build_registry

    reg = build_registry(PadicConfig(p, k + 2 * n + 8), n, k)
    return reg.cfg, reg.balls


@pytest.mark.parametrize("p,k,n", [(2, 2, 3), (3, 1, 3), (5, 1, 2)])
def test_cell_key_matches_the_valuation_predicates_on_registry_balls(p, k, n):
    _, balls = _registry_balls(p, k, n)
    forms = [normal_form(b) for b in balls]
    for a, na in zip(balls, forms):
        assert a.measure() == _measure_oracle(na)
        for b, nb in zip(balls, forms):
            assert a.subset(b) == _misses_oracle(na, True, nb), (a, b)
            assert a.disjoint(b) == _misses_oracle(na, False, nb), (a, b)


@PROPERTY
@given(balls_on_one_line(2))
def test_cell_key_matches_the_valuation_predicates_property(drawn):
    cfg, a, b = drawn
    na, nb = normal_form(a), normal_form(b)
    assert a.measure() == _measure_oracle(na)
    assert a.subset(b) == _misses_oracle(na, True, nb)
    assert a.disjoint(b) == _misses_oracle(na, False, nb)


def _assert_one_cell_or_its_complement(cfg, ball):
    cid, level, flip = _cell_of_key(ball)
    assert level == required_level(ball)
    cells = ball_cells(cfg, ball, level)
    assert cells == (set(cell_ids(cfg, level)) - {cid} if flip else {cid})


@PROPERTY
@given(balls_on_one_line(1))
def test_every_ball_is_one_cell_or_its_complement_property(drawn):
    _assert_one_cell_or_its_complement(*drawn)


@pytest.mark.parametrize("p,k,n", [(2, 2, 3), (3, 1, 3), (5, 1, 2)])
def test_every_registry_ball_is_one_cell_or_its_complement(p, k, n):
    cfg, balls = _registry_balls(p, k, n)
    for ball in balls:
        _assert_one_cell_or_its_complement(cfg, ball)


# -- closed forms against the constructions they replace ----------------------


def _ball_param_oracle(cfg, ball):
    """The disc coordinate built as products with the swap z -> 1/z, on the
    normal form's chart data."""
    chart, center, m = normal_form(ball).chart_data()
    pm = Fraction(cfg.p) ** m
    if chart == "z":
        return GL2(cfg, pm, 0, center, 1)
    W = GL2(cfg, 0, 1, 1, 0)
    if chart == "w":
        return GL2(cfg, pm, 0, center, 1) @ W
    # complement disc containing 0 and infinity: x = center + p^(m-1)/t
    return W @ GL2(cfg, Fraction(cfg.p) ** (m - 1), 0, center, 1)


def _u_disc_oracle(cfg, u_center, m):
    """The normal form of the u-disc by hand inversion of its center, with no
    exponent check on the result."""
    cu = NormalForm.z_disc(cfg, u_center, m).center
    if cu == 0:
        # contains u = 0, i.e. the point at infinity: complement of a z-disc
        return NormalForm(cfg.p, True, Fraction(0), 1 - m)
    # bounded disc not containing 0: invert exactly
    s = val_fraction(cu, cfg.p)
    assert s < m
    return NormalForm.z_disc(cfg, 1 / cu, m - 2 * s)


@PROPERTY
@given(balls_on_one_line(1))
def test_param_maps_the_unit_disc_onto_the_ball_property(drawn):
    cfg, ball = drawn
    M = GL2.from_rows(cfg, ball.param())
    assert moebius_ball_image(M, disc(cfg, 0, 0)) == ball
    oracle = _ball_param_oracle(cfg, ball)
    assert M.entries() == oracle.entries()


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
    cu = NormalForm.z_disc(cfg, exact, m).center
    exponent = 1 - m if cu == 0 else m - 2 * val_fraction(cu, cfg.p)
    swap = GL2(cfg, 0, 1, 1, 0)
    if abs(exponent) <= cfg.N - 2:
        assert moebius_ball_image(swap, disc(cfg, u, m)).cell == _u_disc_oracle(cfg, u, m).cell
    else:
        with pytest.raises(PrecisionError):
            moebius_ball_image(swap, disc(cfg, u, m))


# -- the presentations derived from the key against the normal form ----------


def _cell_or_precision_error(image, *args):
    try:
        return image(*args).cell
    except PrecisionError:
        return PrecisionError


def _assert_presentations_match_the_normal_form(cfg, ball, rng):
    """Every presentation Ball derives from its key equals the one the
    normal form gives, and so do Moebius images under sampled matrices."""
    nf = normal_form(ball)
    assert nf.cell == ball.cell
    chart, center, m = nf.chart_data()
    assert ball.chart_data() == (chart, center, m)
    assert ball.sort_key() == nf.sort_key()
    assert ball.to_json(cfg) == {"chart": chart, "center": cfg.from_fraction(center).serialize(), "m": m}
    assert ball.id_str() == f"{chart}({center};{m})"
    param = GL2.from_rows(cfg, ball.param())
    assert param.entries() == _ball_param_oracle(cfg, ball).entries()
    p, level = cfg.p, required_level(ball)
    points = [ProjPoint.infinity(cfg), ProjPoint.from_z(cfg, nf.center)]
    points += [ProjPoint.from_z(cfg, nf.center + Fraction(rng.randrange(-p**level, p**level), p ** rng.randrange(level)))
               for _ in range(6)]
    for pt in points:
        assert ball.member_point(pt) == nf.member_point(pt), pt
    for _ in range(3):
        g = random_gl2(cfg, rng)
        assert _cell_or_precision_error(moebius_ball_image, g, ball) == _cell_or_precision_error(nf.image, g)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_presentations_match_the_normal_form_on_registry_balls(p, k):
    n = 2 if p ** (k + 1) <= 27 else 1
    cfg, balls = _registry_balls(p, k, n)
    rng = random.Random(p * 10 + k)
    for ball in balls:
        _assert_presentations_match_the_normal_form(cfg, ball, rng)


@PROPERTY
@given(balls_on_one_line(1), st.integers(0, 2**32))
def test_presentations_match_the_normal_form_property(drawn, seed):
    cfg, ball = drawn
    _assert_presentations_match_the_normal_form(cfg, ball, random.Random(seed))


@PROPERTY
@given(st.sampled_from([2, 3, 5, 7]), st.integers(3, 10), st.integers(-12, 12),
       st.integers(-40, 40), st.integers(0, 3), st.booleans())
def test_precision_error_at_the_normal_form_exponent_property(p, N, m, a, j, complement):
    # the one constructor refuses a key exactly where the normal form's
    # radius exponent leaves the working precision
    cfg = PadicConfig(p, N)
    key = NormalForm.z_disc(cfg, Fraction(a, p**j), m, complement).cell
    if abs(m) <= N - 2:
        assert normal_form(Ball(cfg, key)) == NormalForm.z_disc(cfg, Fraction(a, p**j), m, complement)
    else:
        with pytest.raises(PrecisionError):
            Ball(cfg, key)



@pytest.mark.parametrize("p,k,n", [(2, 2, 3), (3, 1, 3), (5, 1, 2)])
def test_radius_exponent_read_off_the_key_on_registry_balls(p, k, n):
    # the constructor checks the exponent it reads off the integer key; it is
    # the normal form's, and PrecisionError fires exactly when |m| > N - 2,
    # with m taken from the oracle's normal form
    _, balls = _registry_balls(p, k, n)
    exponents = [normal_form(b).m for b in balls]
    for ball, m in zip(balls, exponents):
        assert _radius_exponent(p, ball.cell) == ball._normal_form[2] == m, ball
    for N in range(1, max(map(abs, exponents)) + 4):
        cfg = PadicConfig(p, N)
        for ball, m in zip(balls, exponents):
            if abs(m) > N - 2:
                with pytest.raises(PrecisionError):
                    Ball(cfg, ball.cell)
            else:
                assert Ball(cfg, ball.cell) == ball

# -- disc transport ------------------------------------------------------------


def test_ball_image_standard_contraction(cfg):
    # diag(1, p^n) transport shrinks the standard disc by n digits
    p = cfg.p
    for n in (1, 2, 3):
        gn = GL2(cfg, 1, 0, 0, p**n)
        img = moebius_ball_image(gn.inverse(), disc(cfg, 0, 1))
        assert img == disc(cfg, 0, 1 + n)


def test_ball_image_identity(cfg):
    b = disc(cfg, 0, 2, chart="w")
    assert moebius_ball_image(GL2.identity(cfg), b) == b


def test_ball_image_inversion_bruteforce():
    for p in (2, 3):
        cfg = PadicConfig(p, 12)
        w = GL2(cfg, 0, 1, 1, 0)  # z -> 1/z
        b = disc(cfg, 1, 1)
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
        ball = disc(cfg, rng.randrange(-10, 10), m)
        one = moebius_ball_image(gp, moebius_ball_image(g, ball))
        two = moebius_ball_image(g @ gp, ball)
        assert one == two


def test_ball_image_round_trip_and_membership(cfg):
    rng = random.Random(9)
    for _ in range(200):
        g = random_gl2(cfg, rng)
        m = rng.randrange(0, 3)
        ball = disc(cfg, rng.randrange(-8, 8), m)
        img = moebius_ball_image(g, ball)
        assert moebius_ball_image(g.inverse(), img) == ball
        # forward: representatives of the source land inside the image
        for cid in ball_cells(cfg, ball, required_level(ball) + 1):
            pt = ProjPoint.from_z(cfg, cell_value(cid)) if cell_value(cid) is not None else ProjPoint.infinity(cfg)
            assert img.member_point(moebius_apply(g, pt))
        # backward: representatives of the image pull back into the source
        for cid in ball_cells(cfg, img, required_level(img)):
            v = cell_value(cid)
            pt = ProjPoint.infinity(cfg) if v is None else ProjPoint.from_z(cfg, v)
            assert ball.member_point(moebius_apply(g.inverse(), pt))


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
        ball = disc(cfg, rng.randrange(-4, 4), rng.randrange(0, 3))
        img = moebius_ball_image(g, ball)
        if required_level(img) > L:
            continue
        ginv = g.inverse()
        for pt in reps:
            assert img.member_point(pt) == ball.member_point(moebius_apply(ginv, pt))
