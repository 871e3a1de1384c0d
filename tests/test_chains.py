import functools
import hashlib
import json
import random
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction
from importlib import resources
from math import comb, floor

import hypothesis
import pytest
from hypothesis import example, given, settings, strategies as st

from btcomplex.padics import INF, PadicConfig, PadicNum, val_fraction
from btcomplex.projline import GL2, Ball, ProjPoint, moebius_apply, moebius_ball_image
from btcomplex.tree import Vertex, edges_upto, standard_orientation, standard_path, vertices_upto
from btcomplex.orbits import OrbitRegistry, build_registry, enumerate_orbits, sample_group_element
from btcomplex import chains
from btcomplex.chains import (
    BoundaryMatrix,
    Chain,
    Character,
    NotAnalyticError,
    TruncFun,
    act_on_function,
    assemble_dbar1,
    cocycle_xi,
    kernel_lift,
    kernel_project,
    mobius_series,
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
)
from residue_cells import disc
from test_acceptance import _single_branch
from test_cli import ENV
from test_padics import _valid


def make_cfg(p, k, n, d=1):
    return PadicConfig(p, k + 2 * n + d + 8)


def make_reg(p, k, n, d=1):
    return build_registry(make_cfg(p, k, n, d), n, k)


def uniformity_warning():
    """The warning every (p, k) = (2, 1) verification and assembly raises."""
    return pytest.warns(RuntimeWarning, match="uniformity")


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
        assert xi.c == 0
        assert cocycle_xi(cfg, z, g @ gp) == xi @ cocycle_xi(cfg, moebius_apply(g, z), gp)
    # g = xi(0, g) s(0.g)
    for _ in range(30):
        g = rand_g()
        zero = ProjPoint.from_z(cfg, 0)
        assert cocycle_xi(cfg, zero, g) @ section_s(cfg, moebius_apply(g, zero)) == g


# -- the twisted action -----------------------------------------------------------


def test_act_identity():
    cfg = PadicConfig(3, 12)
    ball = disc(cfg, 0, 1)
    f = random_truncfun(cfg, ball, 2, random.Random(2))
    out, guard = act_on_function(GL2.identity(cfg), Character(2, -1), f)
    assert out == f and guard is INF


def test_act_translation_recenters():
    cfg = PadicConfig(3, 12)
    ball = disc(cfg, 0, 1)
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
    ball = disc(cfg, 0, 0)  # t = z
    f = monomial(cfg, ball, 1, 1)
    out, _ = act_on_function(g, chi, f)
    # det^2 d^-1 (a/d), chi = (2, -1), in repeated products and inverses
    det, dinv = cfg.from_int(a * d), cfg.from_int(d).inverse()
    expected = det * det * dinv * (cfg.from_int(a) * dinv)
    assert out.coeffs[0].is_zero() and out.coeffs[1] == expected


def test_act_guard_valuation_measured_exactly():
    # unipotent example where the discarded tail is a clean geometric series
    cfg = PadicConfig(3, 12)
    g = GL2(cfg, 1, 3, 0, 1)  # z.g = z/(3z+1)
    ball = disc(cfg, 0, 1)
    f = monomial(cfg, ball, 1, 1)  # f = t, z = 3t
    out, guard = act_on_function(g, Character(0, 0), f)
    # f(z.g) = t - 9 t^2 + 81 t^3 - ...: kept [0, 1], first discarded has val 2
    assert [c.serialize() for c in out.coeffs] == ["vinf:u0", "v0:u1"]
    assert guard == 2


@pytest.mark.parametrize("p,k", [(2, 2), (3, 1), (5, 2)])
def test_act_refuses_a_matrix_that_moves_the_disc(p, k):
    # z -> z + 1 carries the orbit 0 mod p^k of the root onto 1 mod p^k; a
    # level-k element of the root's stabilizer keeps it
    cfg = PadicConfig(p, 16)
    ball = Ball(cfg, ("z", p**k, 0, False))
    f = monomial(cfg, ball, 1, 1)
    with pytest.raises(ValueError, match="matrix does not preserve this disc"):
        act_on_function(GL2(cfg, 1, 0, 1, 1), Character(0, 0), f)
    g = sample_group_element(cfg, Vertex.root(p), k, random.Random(p))
    out, _ = act_on_function(g, Character(1, 1), f)
    assert out.ball == ball


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
    ball = disc(cfg, c, m, complement=comp)
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
                    t_img = cfg.from_fraction(moebius_apply(Mb_inv, moebius_apply(g, x)).z_coord())
                    truth = cfg.from_fraction((xi.a * xi.d) ** chi.m1 * xi.d**chi.m2) * _eval_truncfun(f, t_img)
                    approx = _eval_truncfun(out, t0)
                    diff = truth - approx
                    assert diff.is_zero() or diff.valuation >= min(guard, cfg.N - 4), (
                        simplex, rec.ball, t_int, diff.valuation, guard)


def _poly_mul(x, y):
    out = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    return out


def _poly_divmod(num, den):
    """Exact quotient and remainder of two polynomials of Fractions, lowest
    coefficient first."""
    while den[-1] == 0:
        den = den[:-1]
    num = list(num)
    quot = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        quot[i] = num[i + len(den) - 1] / den[-1]
        for j, c in enumerate(den):
            num[i + j] -= quot[i] * c
    return quot, num[: len(den) - 1]


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (3, 2), (5, 1)])
def test_act_at_the_algebraic_weight_matches_the_exact_oracle(p, k):
    # at m2 = d the action is det(g)^m1 lambda(t)^d f(tau(t)), tau = Mb g Mb^-1
    # and lambda the cocycle factor: the second coordinate of (t, 1).Mb.g
    # inside the unit disc, the first outside.  In exact rationals that is a
    # polynomial of degree <= d, which the action keeps, discarding nothing
    cfg = PadicConfig(p, 20)
    rng = random.Random(10 * p + k)
    d = 2
    unit = disc(cfg, 0, 0)
    branches = Counter()
    for simplex in [*vertices_upto(p, 1), *edges_upto(p, 1)]:
        for rec in enumerate_orbits(cfg, simplex, k):
            g = sample_group_element(cfg, simplex, k, rng)
            m1 = rng.randrange(-3, 4)
            exact_f = [Fraction(rng.randrange(-p**3, p**3), rng.choice([1, 7])) for _ in range(d + 1)]
            f = TruncFun(cfg, rec.ball, [cfg.from_fraction(c) for c in exact_f])
            try:
                out, guard = act_on_function(g, Character(m1, d), f)
            except NotAnalyticError:
                continue
            Mb = GL2.from_rows(cfg, rec.ball.param())
            Mg = Mb @ g
            tau = Mg @ Mb.inverse()
            inside = rec.ball.subset(unit)
            lam = [Mg.d, Mg.b] if inside else [Mg.c, Mg.a]
            num, den = [tau.c, tau.a], [tau.d, tau.b]  # tau(t) = num(t) / den(t)
            top, bottom = [Fraction(0)] * (d + 1), [Fraction(1)]  # f(tau) = top / den^d
            for j, c in enumerate(exact_f):
                term = [c]
                for factor in [num] * j + [den] * (d - j):
                    term = _poly_mul(term, factor)
                top = [x + y for x, y in zip(top, term)]
            for _ in range(d):
                top, bottom = _poly_mul(top, lam), _poly_mul(bottom, den)
            quot, rem = _poly_divmod(top, bottom)
            assert not any(rem), (simplex, rec.ball)
            want = [g.det() ** m1 * c for c in quot]
            assert not any(want[d + 1 :]), (simplex, rec.ball)
            assert out.coeffs == tuple(cfg.from_fraction(c) for c in want[: d + 1]), (simplex, rec.ball)
            assert guard is INF, (simplex, rec.ball)
            branches[inside] += 1
    assert branches[True] and branches[False], branches


def _binomial_series(cfg, lead, ratio, e, D):
    """Oracle: lead (1 + ratio t)^e to degree D in PadicNum products, term i
    binom(e, i) lead ratio^i, a coefficient of +-1 entering as a sign (the
    kernel the action's twist had before its closed form)."""
    term = lead  # lead ratio^i
    out = []
    for i in range(D + 1):
        b = comb(e, i) if e >= 0 else (-1) ** i * comb(i - e - 1, i)
        if b == 1:
            out.append(term)
        elif b == -1:
            out.append(-term)
        else:
            out.append(term * cfg.from_int(b) if b else cfg.zero())
        term = term * ratio
    return out


def _padic_power(x, e):
    """x^e for a nonzero x by an inverse and repeated products, one factor at
    a time; x^0 is one to x's precision."""
    if e == 0:
        return PadicNum(x.cfg, 0, 1, x.prec)
    base = x if e > 0 else x.inverse()
    out = base
    for _ in range(abs(e) - 1):
        out = out * base
    return out


def _summed_twist_act(g, chi, f):
    """Oracle: act_on_function with its twist summed by _binomial_series from
    the converted a0 and a1, the pull-back and the twisted product in PadicNum
    arithmetic, and the expansion then multiplied by det(g)^m1 (the body
    act_on_function had before its twist was in closed form)."""
    cfg = f.cfg
    ball = f.ball
    if moebius_ball_image(g, ball) != ball:
        raise ValueError("matrix does not preserve this disc")
    unit = Ball(cfg, ("w", cfg.p, 0, True))
    inside = ball.subset(unit)
    if not (inside or ball.disjoint(unit)):
        raise NotAnalyticError("disc crosses the unit-circle section boundary")
    Mb = GL2.from_rows(cfg, ball.param())
    Mg = Mb @ g
    a0, a1 = (Mg.d, Mg.b) if inside else (Mg.c, Mg.a)
    d = f.degree_bound
    D = d + chains.GUARD_DEGREES
    a0, a1 = cfg.from_fraction(a0), cfg.from_fraction(a1)
    if a0.valuation != 0 or (not a1.is_zero() and a1.valuation < 1):
        raise NotAnalyticError("character factor is not analytic on this disc")
    twist = _binomial_series(cfg, _padic_power(a0, chi.m2), a1 * a0.inverse(), chi.m2, D)
    const = cfg.from_fraction(g.det() ** chi.m1)
    pulled = _object_apply(chains._operator(Mg @ Mb.inverse(), D, d + 1), f.coeffs)
    full = chains._series_mul(pulled, twist, D)
    full = [const * c for c in full]
    guard_val = min((c.valuation for c in full[d + 1 :]), default=INF)
    return TruncFun(cfg, ball, full[: d + 1]), guard_val


def _act_outcome(act, g, chi, f):
    """(coefficients, guard) of an action, or the refusal it raises."""
    try:
        out, guard = act(g, chi, f)
    except ValueError as exc:  # NotAnalyticError included
        return type(exc), str(exc)
    assert out.ball is f.ball
    return out.coeffs, guard


def _act_draws(p, k, n):
    """The action sampler at (p, k, n): for d = 0..3, up to 24 records, an
    element of the record's own group (which keeps its disc) three times in
    four, else of another record's (which may move it), and a function on the
    disc, with full-precision coefficients or, the flag reduced, coefficients
    of valuation -3..3 stored to 1..N digits, some of them zero."""
    reg = make_reg(p, k, n, 3)
    cfg = reg.cfg
    rng = random.Random(100 * p + 10 * k + n)
    for d in range(4):
        for rec in rng.sample(reg.records, min(24, len(reg.records))):
            simplex = rec.simplex if rng.randrange(4) else rng.choice(reg.records).simplex
            g = sample_group_element(cfg, simplex, k, rng)
            reduced = not rng.randrange(2)
            if reduced:
                f = TruncFun(cfg, rec.ball, [_random_number(cfg, rng) for _ in range(d + 1)])
            else:
                f = random_truncfun(cfg, rec.ball, d, rng)
            yield d, g, f, reduced


def _within_its_precision(new, old):
    """A nonzero new coefficient never knows more than old and agrees with it
    to what it knows.  Exact zero claims no digit: old may keep the digits of
    a sum that cancelled, which the exact action checks instead."""
    if new.is_zero():
        return True
    K = _absolute_precision(new)
    return K <= _absolute_precision(old) and new.residue_class(K) == old.residue_class(K)


@pytest.mark.parametrize("p,k,n", [(2, 2, 2), (3, 1, 2), (5, 1, 1), (7, 1, 1)])
def test_act_matches_the_summed_twist_oracle(p, k, n):
    # the same refusals; where both act, every kept coefficient agrees with
    # the oracle's to its own precision and never claims more digits, and the
    # guard is never lower; degrees 0..3 and weights of either sign
    outcomes = Counter()
    for d, g, f, _ in _act_draws(p, k, n):
        for m1 in (-1, 0, 2):
            for m2 in sorted({-2, 0, 1, d, d + 1, 3}):
                chi = Character(m1, m2)
                want = _act_outcome(_summed_twist_act, g, chi, f)
                got = _act_outcome(act_on_function, g, chi, f)
                if isinstance(want[0], type) or isinstance(got[0], type):
                    assert got == want, (f, chi)
                    outcomes[want[0]] += 1
                    continue
                (coeffs, guard), (old, old_guard) = got, want
                assert all(map(_within_its_precision, coeffs, old)), (f, chi)
                assert guard >= old_guard, (f, chi)
                outcomes["acted"] += 1
    assert outcomes["acted"] and outcomes[NotAnalyticError] and outcomes[ValueError], outcomes


def _exact_act(g, chi, f):
    """Oracle: det(g)^m1 lambda(t)^m2 f(tau(t)) to degree d + 4 in exact
    Fractions, from f's stored values, tau = Mb g Mb^-1 and its series by long
    division, lambda(t) = a0 + a1 t the cocycle factor."""
    ball = f.ball
    Mb = GL2.from_rows(f.cfg, ball.param())
    Mg = Mb @ g
    a0, a1 = (Mg.d, Mg.b) if ball.subset(disc(f.cfg, 0, 0)) else (Mg.c, Mg.a)
    D = f.degree_bound + chains.GUARD_DEGREES
    sigma = _exact_mobius_series(Mg @ Mb.inverse(), D)
    pulled, power = [Fraction(0)] * (D + 1), [Fraction(1)] + [Fraction(0)] * D
    for c in f.coeffs:
        pulled = [x + _value(c) * y for x, y in zip(pulled, power)]
        power = _poly_mul(power, sigma)[: D + 1]
    twist = [g.det() ** chi.m1 * chains._binom(chi.m2, i) * a0 ** (chi.m2 - i) * a1**i for i in range(D + 1)]
    return _poly_mul(twist, pulled)[: D + 1]


@pytest.mark.parametrize("p,k,n", [(2, 2, 2), (3, 1, 2), (5, 1, 1), (2, 2, 3)])
def test_act_claims_only_digits_of_the_exact_action(p, k, n):
    # every nonzero kept coefficient is the exact action of f's stored values
    # to the precision it claims, and m2 = d leaves no tail; with the
    # pull-back truncated first and the twisted product summed term by term,
    # cancelled sums kept wrong digits (at (2,2,2), d = 2, 8 mod 16 where the
    # exact value is 0 mod 16)
    checked = 0
    for d, g, f, _ in _act_draws(p, k, n):
        for m1, m2 in [(-1, -2), (0, d), (2, d + 1)]:
            chi = Character(m1, m2)
            try:
                out, guard = act_on_function(g, chi, f)
            except ValueError:  # NotAnalyticError included
                continue
            exact = _exact_act(g, chi, f)
            for c, x in zip(out.coeffs, exact):
                if not c.is_zero():
                    diff = _value(c) - x
                    assert diff == 0 or val_fraction(diff, p) >= _absolute_precision(c), (f, chi, c)
                    checked += 1
            assert m2 != d or guard is INF, (f, chi, guard)
    assert checked, checked


def test_act_sums_once_and_multiplies_series_only_in_the_operator(monkeypatch):
    # one _apply per action, over the twisted operator; _series_mul only for
    # the powers sigma^j inside _operator, d of them for the d + 1 columns
    operator, series_mul = chains._operator, chains._series_mul
    depth = [0]
    calls = Counter()

    def counted_operator(*args):
        depth[0] += 1
        try:
            return operator(*args)
        finally:
            depth[0] -= 1

    def counted_series_mul(*args):
        calls["inside" if depth[0] else "outside"] += 1
        return series_mul(*args)

    monkeypatch.setattr(chains, "_operator", counted_operator)
    monkeypatch.setattr(chains, "_series_mul", counted_series_mul)
    monkeypatch.setattr(chains, "_apply", _counted(calls, "apply", chains._apply))
    degrees = Counter()
    for d, g, f, _ in _act_draws(3, 1, 2):
        calls.clear()
        try:
            act_on_function(g, Character(1, d), f)
        except ValueError:  # NotAnalyticError included
            continue
        assert calls == Counter(apply=1, inside=d), (d, calls)
        degrees[d] += 1
    assert sorted(degrees) == [0, 1, 2, 3], degrees


def test_act_at_the_algebraic_weight_keeps_no_tail_of_a_short_input():
    # a coefficient known to one digit; with the pull-back truncated first
    # and the twisted product summed term by term, the guard was 10 < N = 17
    cfg = PadicConfig(2, 17)
    ball = Ball(cfg, ("z", 8, 4, False))
    g = GL2(cfg, 109, 69, 984, 349)
    f = TruncFun(cfg, ball, [cfg.zero(), PadicNum(cfg, 2, 15, 5), PadicNum(cfg, -1, 1, 1)])
    for m1 in (-1, 0, 2):
        out, guard = act_on_function(g, Character(m1, 2), f)
        assert guard is INF, (m1, guard)
        assert _bits(out.coeffs) == [(-1, 1, 1), (0, 1, 1), (-1, 1, 1)]


def test_act_reports_no_tail_at_the_algebraic_weight_on_reduced_precision_inputs():
    # at m2 = d the twisted pull-back is a polynomial of degree <= d, so the
    # guard is INF, or at least N where the inputs' truncation shows; with
    # the pull-back truncated first and the twisted product summed term by
    # term, 18 of these 690 actions reported tails of valuation 4 to 15 < N
    acted = 0
    for p, k, n in [(2, 2, 2), (3, 1, 2), (5, 1, 1), (7, 1, 1), (2, 1, 2), (3, 2, 2), (2, 2, 3)]:
        for d, g, f, reduced in _act_draws(p, k, n):
            for m1 in (-1, 0, 2):
                if not reduced:
                    continue
                try:
                    _, guard = act_on_function(g, Character(m1, d), f)
                except ValueError:  # NotAnalyticError included
                    continue
                assert guard is INF or guard >= f.cfg.N, (p, k, n, f, m1, guard)
                acted += 1
    assert acted > 600, acted


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
    parent = disc(cfg, 0, 1)
    f = monomial(cfg, parent, 0, 2)
    out = restrict(f, disc(cfg, 3, 2))
    assert [str(c.serialize()) for c in out.coeffs] == ["v0:u1", "vinf:u0", "vinf:u0"]


def test_restrict_recentring_examples():
    cfg = PadicConfig(3, 12)
    p = 3
    parent = disc(cfg, 0, 1)  # z = p t
    f = monomial(cfg, parent, 1, 1)  # f = t
    child0 = disc(cfg, 0, 2)  # z = p^2 t'
    out = restrict(f, child0)
    assert out.coeffs[0].is_zero() and out.coeffs[1] == cfg.from_int(p)
    childp = disc(cfg, p, 2)  # z = p + p^2 t'
    out = restrict(f, childp)
    assert out.coeffs[0] == cfg.one() and out.coeffs[1] == cfg.from_int(p)


def test_restrict_requires_containment():
    cfg = PadicConfig(3, 12)
    f = monomial(cfg, disc(cfg, 0, 2), 1, 1)
    with pytest.raises(ValueError):
        restrict(f, disc(cfg, 1, 2))


def test_restrict_affine_functoriality():
    cfg = PadicConfig(3, 14)
    rng = random.Random(6)
    for _ in range(60):
        c1 = rng.randrange(27)
        big = disc(cfg, c1, 1)
        mid = disc(cfg, c1 + 3 * rng.randrange(3), 2)
        small = disc(cfg, int(mid.chart_data()[1]) + 9 * rng.randrange(3), 3)
        f = random_truncfun(cfg, big, 2, rng)
        assert restrict(restrict(f, mid), small) == restrict(f, small)
    # reciprocal-chart chains restrict exactly as well
    for _ in range(60):
        big = disc(cfg, 3 * rng.randrange(1, 9), 2, chart="w")
        chart, cu, m = big.chart_data()
        mid = disc(cfg, cu + 9 * rng.randrange(3), 3, chart="w")
        _, cu2, _ = mid.chart_data()
        small = disc(cfg, cu2 + 27 * rng.randrange(3), 4, chart="w")
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


# -- the registry's route table ---------------------------------------------------------
#
# The one-step routes are the step table: the route of two adjacent registry
# balls holds that step's operator, and a longer route shares its steps' entries.


def _bits(coeffs):
    return [(c.v, c.u, c.prec) for c in coeffs]


def _covering_steps(reg):
    """(a, b) for each pair of registry balls with b directly below a: b
    strictly inside a and no registry ball between them."""
    return [(a, b) for b in range(len(reg.balls)) for a in reg.over[b] if reg.ball_chain(a, b) == [a, b]]


def _op_bits(op):
    return [[(j, *_bits([e])[0]) for j, e in row] for row in op]


def _exact_transition(cfg, src, dst):
    """dst.param() times the inverse of src.param(), multiplied out in exact
    Fractions."""
    (a, b), (c, d) = (map(Fraction, row) for row in src.param())
    det = a * d - b * c
    inv = ((d / det, -b / det), (-c / det, a / det))
    return GL2.from_rows(cfg, [[sum(x * y for x, y in zip(row, col)) for col in zip(*inv)]
                               for row in dst.param()])


def _fresh_operator(reg, a, b, d):
    """The operator of the step from ball a to ball b, built anew from a
    transition matrix computed here."""
    return chains._operator(_exact_transition(reg.cfg, reg.balls[a], reg.balls[b]), d)


def test_step_transitions_keep_every_digit():
    # the transition is formed from the exact Ball.param rows and converted
    # once; inverting the source's matrix in PadicNum left the constant term
    # of the step z(3;2) -> z(7;3) at (2,2,2), N = 18, two digits short
    cfg = PadicConfig(2, 18)
    reg = build_registry(cfg, 2, 2)
    assert (reg.balls[10].id_str(), reg.balls[22].id_str()) == ("z(3;2)", "z(7;3)")
    assert reg.ball_chain(10, 22) == [10, 22]
    steps = _covering_steps(reg)
    assert (10, 22) in steps
    for a, b in steps:
        assert _keeps_every_digit(mobius_series(chains._transition(cfg, reg.balls[a], reg.balls[b]), 3)), (a, b)


def _keeps_every_digit(sigma):
    """Every coefficient is exact zero or stored to all N digits; drawn
    transitions are checked too, in the closed-form property test below."""
    return all(c.is_zero() or c.prec == c.cfg.N for c in sigma)


def _exact_mobius_series(g, D):
    """Oracle: the coefficients of (at + c)/(bt + d) to degree D in exact
    Fractions, by long division: d e_0 = c, d e_1 + b e_0 = a and
    d e_i + b e_(i-1) = 0 beyond."""
    a, b, c, d = g.entries()
    out = [c / d]
    for i in range(1, D + 1):
        out.append(((a if i == 1 else 0) - b * out[-1]) / d)
    return out


def _geometric_mobius_series(g, D):
    """Oracle: t.g = (at + c)/(bt + d) to degree D, with 1/(bt + d) summed as
    the geometric series in -(b/d)t term by term."""
    cfg = g.cfg
    a, b, c, d = (cfg.from_fraction(e) for e in g.entries())
    dinv = d.inverse()
    ratio = -(b * dinv)
    inv_den = [cfg.one()]
    for _ in range(D):
        inv_den.append(inv_den[-1] * ratio)
    inv_den = [dinv * x for x in inv_den]
    return chains._series_mul([c, a], inv_den, D)


def _int_binom(m, i):
    """Oracle: binom(m, i) for any integer m as the falling factorial
    m(m-1)...(m-i+1) over i!."""
    num = 1
    for t in range(i):
        num *= m - t
    for t in range(2, i + 1):
        num //= t
    return num


@pytest.mark.parametrize("p,k,n,d", [(3, 2, 2, 2), (2, 1, 3, 1), (5, 1, 2, 1), (2, 2, 3, 3)])
def test_mobius_series_matches_the_geometric_series_on_registry_steps(p, k, n, d):
    # bit for bit, to the degree the action expands to, so also to d
    reg = make_reg(p, k, n, d)
    D = d + chains.GUARD_DEGREES
    steps = _covering_steps(reg)
    assert steps
    for a, b in steps:
        trans = chains._transition(reg.cfg, reg.balls[a], reg.balls[b])
        assert _bits(mobius_series(trans, D)) == _bits(_geometric_mobius_series(trans, D)), (a, b)


@st.composite
def _integral_transitions(draw):
    """A degree D and a transition t -> (at + c)/(bt + d) with its pole off
    the unit disc (val b > val d) and a/d, c/d p-integral, whose nonzero
    entries are exact integers p^v u, u a unit of up to N digits."""
    p = draw(st.sampled_from([2, 3, 5]))
    cfg = PadicConfig(p, draw(st.integers(3, 12)))

    def entry(v_min, v_max):
        u = p * draw(st.integers(0, p ** (cfg.N - 1) - 1)) + draw(st.integers(1, p - 1))
        return p ** draw(st.integers(v_min, v_max)) * u

    def maybe(v_min):
        return 0 if draw(st.booleans()) else entry(v_min, v_min + 3)

    vd = draw(st.integers(0, 2))
    a, b, c, d = maybe(vd), maybe(vd + 1), maybe(vd), entry(vd, vd)
    hypothesis.assume(a * d != b * c)
    return GL2(cfg, a, b, c, d), draw(st.integers(0, 6))


def _geometric_precision(g, D):
    """The absolute precision p^K to which _geometric_mobius_series knows each
    coefficient: every term c d^-1 r^i and a d^-1 r^(i-1), r = -b/d, is a
    product of N-digit numbers, so their sum is known to N digits past the
    least valuation among them (INF when both are zero)."""
    a, b, c, d = g.entries()
    p, N = g.cfg.p, g.cfg.N
    out = []
    for i in range(D + 1):
        terms = [c * (-b) ** i / d ** (i + 1)] + ([a * (-b) ** (i - 1) / d**i] if i else [])
        out.append(N + min(val_fraction(t, p) for t in terms))
    return out


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@example((GL2(PadicConfig(2, 3), 2, 2, 1, 3), 1))
@given(_integral_transitions())
def test_mobius_series_matches_the_geometric_series_property(drawn):
    # bit for bit the exact closed form converted once, with every digit; the
    # term-by-term geometric sum agrees with it in value to the precision that
    # sum keeps, and never keeps more digits
    trans, D = drawn
    cfg = trans.cfg
    got = mobius_series(trans, D)
    assert _bits(got) == _bits([cfg.from_fraction(x) for x in _exact_mobius_series(trans, D)])
    assert _keeps_every_digit(got)
    for m, g, K in zip(got, _geometric_mobius_series(trans, D), _geometric_precision(trans, D)):
        if K is INF:
            assert m.is_zero() and g.is_zero()
            continue
        assert g.is_zero() or (g.v + g.prec == K and g.prec <= m.prec)
        assert m.residue_class(K) == g.residue_class(K)


def test_mobius_series_keeps_the_digit_the_summed_series_lost():
    # (2t + 1)/(2t + 3) at p = 2, N = 3: coefficient 1 is det/d^2 = 4/9, whose
    # two summed terms 2/3 and -2/9 share their leading digit
    g = GL2(PadicConfig(2, 3), 2, 2, 1, 3)
    assert _bits(mobius_series(g, 1)) == [(0, 3, 3), (2, 1, 3)]
    assert _bits(_geometric_mobius_series(g, 1)) == [(0, 3, 3), (2, 1, 2)]


def _binomial_mobius_series(g, D):
    """Oracle: mobius_series as the numerator (c + at)/d times (1 + (b/d)t)^-1,
    each term of the series lead * binom(-1, i) * power, lead = 1^-1, the
    coefficient converted by from_int and power the i-th power of b/d over 1
    (the body mobius_series and _binomial_series had before a coefficient of
    +-1 entered as a sign)."""
    cfg = g.cfg
    a, b, c, d = (cfg.from_fraction(e) for e in g.entries())
    dinv = d.inverse()
    a0, a1, e = cfg.one(), b * dinv, -1
    ratio = a1 * a0.inverse()
    lead = a0.inverse()  # a0^e
    series = []
    power = cfg.one()
    for i in range(D + 1):
        coeff = (-1) ** i * comb(i - e - 1, i)
        series.append(lead * cfg.from_int(coeff) * power)
        power = power * ratio
    return chains._series_mul([c * dinv, a * dinv], series, D)


@pytest.mark.parametrize("p,k,n", [(2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1), (2, 1, 2)])
def test_step_operators_match_the_binomial_oracle_on_the_grid(p, k, n, monkeypatch):
    # every one-step operator of the benchmark grid's registries, at its
    # precision and degrees, is bit for bit the one the oracle series builds
    reg = build_registry(PadicConfig(p, k + 2 * n + 12), n, k)
    steps = _covering_steps(reg)
    transitions = [chains._transition(reg.cfg, reg.balls[a], reg.balls[b]) for a, b in steps]
    ops = {D: [_op_bits(chains._operator(t, D)) for t in transitions] for D in range(3)}
    monkeypatch.setattr(chains, "mobius_series", _binomial_mobius_series)
    assert transitions
    for D in range(3):
        assert ops[D] == [_op_bits(chains._operator(t, D)) for t in transitions], D


def test_binom_matches_the_falling_factorial():
    # the signed binomial coefficient the action's twist is built from
    for e in range(-40, 41):
        assert [chains._binom(e, i) for i in range(25)] == [_int_binom(e, i) for i in range(25)], e


def test_operator_columns_are_a_prefix_of_the_full_operator():
    # the action builds only the columns that meet a degree-d function's
    # coefficients; they are the full operator's, bit for bit
    reg = make_reg(3, 2, 1)
    for b, a in [(b, a) for b in range(len(reg.balls)) for a in reg.over[b]][::8]:
        trans = chains._transition(reg.cfg, reg.balls[a], reg.balls[b])
        full = chains._operator(trans, 5)
        for width in range(1, 7):
            cut = chains._operator(trans, 5, width)
            assert _op_bits(cut) == _op_bits(tuple(tuple(e for e in row if e[0] < width) for row in full))


# _apply sums each row exactly and truncates once.  Its oracles: the exact sum
# in Fractions reduced mod p^K, bit for bit, and the PadicNum arithmetic it
# replaced, which it agrees with to that arithmetic's own precision.


def _object_apply(op, coeffs):
    """Oracle: op applied in PadicNum arithmetic, acc + entry * c in each
    row's order (the body _apply had before it ran on integers)."""
    zero = coeffs[0].cfg.zero()
    out = []
    for row in op:
        acc = zero
        for j, entry in row:
            c = coeffs[j]
            if c.v is not INF:
                acc = acc + entry * c
        out.append(acc)
    return out


def _value(x):
    """The stored value p^v u of a PadicNum, as an exact Fraction."""
    return Fraction(0) if x.is_zero() else x.u * Fraction(x.cfg.p) ** x.v


def _exact_row(row, coeffs):
    """(S, K): the exact sum S of the stored values entry * c of a row's terms,
    and the absolute precision p^K to which it is known, K the least
    v + prec over the terms (INF when every term is zero)."""
    terms = [(entry, coeffs[j]) for j, entry in row if not coeffs[j].is_zero()]
    S = sum((_value(e) * _value(c) for e, c in terms), Fraction(0))
    K = min((e.v + c.v + min(e.prec, c.prec) for e, c in terms), default=INF)
    return S, K


def _truncated(cfg, S, K):
    """S mod p^K as a PadicNum: exact zero when p^K divides S, else p^v u with
    u the unit of the canonical residue in [0, p^K), known to K - v digits."""
    if K is INF:
        return cfg.zero()
    mod = Fraction(cfg.p) ** K
    r = S - mod * floor(S / mod)
    if r == 0:
        return cfg.zero()
    v = val_fraction(r, cfg.p)
    u = r / Fraction(cfg.p) ** v
    assert u.denominator == 1
    return PadicNum(cfg, v, int(u), K - v)


def _absolute_precision(x):
    """v + prec, the power of p to which x is known; INF for exact zero."""
    return INF if x.is_zero() else x.v + x.prec


def _assert_apply_matches_the_oracle(op, coeffs):
    """_apply is bit for bit the exact oracle; the PadicNum oracle knows each
    row to no fewer digits than its K, and agrees with _apply to them."""
    cfg = coeffs[0].cfg
    got = chains._apply(op, coeffs)
    old = _object_apply(op, coeffs)
    assert len(got) == len(old) == len(op)
    for row, new, was in zip(op, got, old):
        S, K = _exact_row(row, coeffs)
        assert _bits([new]) == _bits([_truncated(cfg, S, K)]), row
        assert _valid(new)
        assert K <= _absolute_precision(was)
        if K is not INF:
            assert new.residue_class(K) == was.residue_class(K), row


def _random_number(cfg, rng):
    """Exact zero one time in five, else p^v u with v in -3..3 and u a unit
    stored to 1..N digits."""
    if rng.randrange(5) == 0:
        return cfg.zero()
    prec = rng.randint(1, cfg.N)
    u = cfg.p * rng.randrange(cfg.p ** (prec - 1)) + rng.randrange(1, cfg.p)
    return PadicNum(cfg, rng.randint(-3, 3), u, prec)


@pytest.mark.parametrize("p,k,n,d", [(3, 2, 2, 2), (2, 1, 3, 1), (5, 1, 2, 1), (2, 2, 3, 3)])
def test_apply_matches_the_object_oracle_on_step_operators(p, k, n, d):
    # every step operator, to degree d and to the action's d + 4, on every
    # monomial and on random vectors with zero, negative-valuation and
    # short-precision coefficients
    reg = make_reg(p, k, n, d)
    cfg = reg.cfg
    rng = random.Random(1000 * p + 100 * k + 10 * n + d)
    steps = _covering_steps(reg)
    assert steps
    for D in (d, d + chains.GUARD_DEGREES):
        for a, b in steps:
            op = chains._operator(chains._transition(cfg, reg.balls[a], reg.balls[b]), D)
            for j in range(D + 1):
                _assert_apply_matches_the_oracle(op, monomial(cfg, reg.balls[b], j, D).coeffs)
            for _ in range(2):
                _assert_apply_matches_the_oracle(op, [_random_number(cfg, rng) for _ in range(D + 1)])


@st.composite
def _apply_draws(draw):
    """An operator and a vector to apply it to.  The operator is the action's
    width-limited kind (the first width columns of an integral transition's
    operator) or rows of entries drawn from a pool of two nonzero numbers, so
    that equal entries meet.  Each coefficient has valuation -3..3 and
    precision 1..N, and is independent, exact zero, the exact negative of an
    earlier one (full cancellation where equal entries meet them) or agrees
    with that negative in its leading digits (partial cancellation)."""
    if draw(st.booleans()):
        trans, D = draw(_integral_transitions())
        cfg = trans.cfg
        width = draw(st.integers(1, D + 1))
        op = chains._operator(trans, D, width)
    else:
        cfg = PadicConfig(draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 8)))
        width = draw(st.integers(1, 4))
        op = None
    p = cfg.p

    def number(v_lo):
        prec = draw(st.integers(1, cfg.N))
        u = p * draw(st.integers(0, p ** (prec - 1) - 1)) + draw(st.integers(1, p - 1))
        return PadicNum(cfg, draw(st.integers(v_lo, v_lo + 6)), u, prec)

    if op is None:
        pool = [number(0), number(0)]
        op = tuple(tuple((j, draw(st.sampled_from(pool)))
                         for j in sorted(draw(st.sets(st.integers(0, width - 1), min_size=1)), reverse=True))
                   for _ in range(draw(st.integers(1, 4))))
    coeffs = []
    for _ in range(width):
        kind = draw(st.sampled_from(["independent", "zero", "negative", "near"]))
        earlier = draw(st.sampled_from(coeffs)) if coeffs else cfg.zero()
        if kind == "zero":
            coeffs.append(cfg.zero())
        elif kind == "independent" or earlier.is_zero():
            coeffs.append(number(-3))
        elif kind == "negative":
            coeffs.append(-earlier)
        else:
            coeffs.append(-earlier + number(earlier.v))
    return op, coeffs


def _cancelling_draw(partial):
    """x and -x (or -x + 9, agreeing with -x in two digits) under one entry."""
    cfg = PadicConfig(3, 6)
    x = PadicNum(cfg, -2, 1 + 2 * 3 + 9 * 5, 6)
    y = -x + cfg.from_int(9) if partial else -x
    one = cfg.one()
    return ((((1, one), (0, one)),), [x, y])


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@example(_cancelling_draw(partial=False))
@example(_cancelling_draw(partial=True))
@given(_apply_draws())
def test_apply_matches_the_object_oracle_property(drawn):
    _assert_apply_matches_the_oracle(*drawn)


def test_apply_truncates_once_where_a_cancelled_partial_sum_overclaims():
    # x known to 3 digits, then -x, then y: the PadicNum sum cancels x - x to
    # exact zero and keeps every digit of y, which the row knows only mod 3^3
    cfg = PadicConfig(3, 6)
    one = cfg.one()
    x = PadicNum(cfg, 0, 1 + 2 * 3 + 9 * 2, 3)
    row = ((2, one), (1, one), (0, one))
    for y, want in [(cfg.from_int(9), (2, 1, 1)), (cfg.from_int(3**4), (INF, 0, 6))]:
        coeffs = [y, -x, x]
        assert _bits(_object_apply((row,), coeffs)) == [(y.v, 1, 6)]
        assert _bits(chains._apply((row,), coeffs)) == [want]
        _assert_apply_matches_the_oracle((row,), coeffs)


def test_apply_makes_no_padic_arithmetic_call(monkeypatch):
    # the product runs on integers: no PadicNum.__add__ or __mul__ call, and
    # one _unit per nonzero output coefficient
    reg = make_reg(3, 2, 2, 2)
    cfg = reg.cfg
    rng = random.Random(5)
    steps = _covering_steps(reg)
    cases = []
    for a, b in steps[::3]:
        op = chains._operator(chains._transition(cfg, reg.balls[a], reg.balls[b]), 2)
        cases.append((op, [_random_number(cfg, rng) for _ in range(3)]))
        cases.append((op, monomial(cfg, reg.balls[b], 2, 2).coeffs))
    cases.append(_cancelling_draw(partial=False))
    calls = Counter()
    monkeypatch.setattr(PadicNum, "__add__", _counted(calls, "add", PadicNum.__add__))
    monkeypatch.setattr(PadicNum, "__mul__", _counted(calls, "mul", PadicNum.__mul__))
    monkeypatch.setattr(chains, "_unit", _counted(calls, "unit", chains._unit))
    nonzero = 0
    for op, coeffs in cases:
        nonzero += sum(not c.is_zero() for c in chains._apply(op, coeffs))
    assert (calls["add"], calls["mul"]) == (0, 0)
    assert calls["unit"] == nonzero > 0


def _counted(calls, name, fn):
    """fn, counting its calls in calls[name]."""
    def wrapped(*args):
        calls[name] += 1
        return fn(*args)
    return wrapped


def test_closed_forms_make_no_padic_arithmetic_call(monkeypatch):
    # mobius_series converts exact coefficients: no PadicNum sum, product or
    # inverse; act_on_function's twist is exact too, so it inverts nothing
    reg = make_reg(3, 2, 2, 2)
    cfg = reg.cfg
    steps = _covering_steps(reg)
    transitions = [chains._transition(cfg, reg.balls[a], reg.balls[b]) for a, b in steps]
    rng = random.Random(6)
    actions = []
    for rec in reg.records:
        if _acts_analytically(cfg, rec.ball):
            g = sample_group_element(cfg, rec.simplex, reg.k, rng)
            actions.append((g, Character(-1, -2), random_truncfun(cfg, rec.ball, 2, rng, nonzero=True)))
    assert transitions and actions
    calls = Counter()
    for name in ("__add__", "__mul__", "inverse"):
        monkeypatch.setattr(PadicNum, name, _counted(calls, name, getattr(PadicNum, name)))
    for trans in transitions:
        mobius_series(trans, 6)
    mobius_series(GL2(PadicConfig(2, 3), 2, 2, 1, 3), 6)
    assert not calls, calls
    for g, chi, f in actions:
        act_on_function(g, chi, f)
    assert calls["inverse"] == 0 and calls["__mul__"] > 0, calls


def _steps(reg):
    """(a, b, d) -> the stored operator, for each one-step route in the table."""
    return {key: route[0][1] for key, route in reg.routes.items() if len(route) == 1}


def _stale_steps(reg):
    """Step keys whose stored operator differs, in any stored bit, from a fresh build."""
    return [(a, b, d) for (a, b, d), op in _steps(reg).items()
            if _op_bits(op) != _op_bits(_fresh_operator(reg, a, b, d))]


def _routed_pairs(reg):
    """The (record, record) restrictions the complex maps make: each edge record
    into its sub-orbits, each vertex record onto the minimal records inside it."""
    pairs = [(i, q) for i, subs in reg.edge_subs.items() for q in subs]
    return pairs + [(i, m) for i, ms in enumerate(reg.min_cover) for m in ms if m != i]


def _uncached_mismatches(reg, d, rng):
    """Routed pairs on which registry_restrict of a random function differs, in
    its disc or any stored bit, from the uncached restrict applied step by step."""
    bad = []
    for i, j in _routed_pairs(reg):
        f = random_truncfun(reg.cfg, reg.records[i].ball, d, rng)
        want = f
        for b in reg.ball_chain(reg.ball_of[i], reg.ball_of[j])[1:]:
            want = restrict(want, reg.balls[b])
        got = registry_restrict(reg, f, i, j)
        if got.ball != want.ball or _bits(got.coeffs) != _bits(want.coeffs):
            bad.append((i, j))
    return bad


@pytest.mark.parametrize("p,k,n,d", [(3, 2, 2, 2), (2, 2, 3, 1)])
def test_step_table_matches_uncached_restriction(p, k, n, d):
    # two degrees share the registry, as the benchmark grid's degrees do
    reg = make_reg(p, k, n, d)
    assert reg.routes == {}
    rng = random.Random(14)
    for deg in (d, d - 1):
        assert _uncached_mismatches(reg, deg, rng) == []
    assert {key[2] for key in _steps(reg)} == {key[2] for key in reg.routes} == {d, d - 1}
    assert _stale_steps(reg) == []


def test_step_table_holds_each_transition_once_after_verify(monkeypatch):
    reg = make_reg(3, 2, 2, d=2)
    operator = chains._operator
    built = [0]

    def counted_operator(trans, D):
        built[0] += 1
        return operator(trans, D)

    monkeypatch.setattr(chains, "_operator", counted_operator)
    assert verify_exactness(reg, 2, seed=0)["verdict"] == "exact"
    steps = set()
    for i, j in _routed_pairs(reg):
        chain = reg.ball_chain(reg.ball_of[i], reg.ball_of[j])
        steps.update((a, b, 2) for a, b in zip(chain, chain[1:]))
    assert len(steps) == 168 and built[0] == 168
    assert set(_steps(reg)) == steps
    # every route holds its steps' own entries and the registry's own balls
    for (src, dst, d), route in reg.routes.items():
        chain = reg.ball_chain(src, dst)
        assert [ball for ball, _ in route] == [reg.balls[b] for b in chain[1:]]
        assert all(entry is reg.routes[a, b, d][0] and entry[0] is reg.balls[b]
                   for entry, a, b in zip(route, chain, chain[1:]))


def test_step_table_belongs_to_one_registry():
    one, two = make_reg(3, 1, 1), make_reg(3, 1, 1)
    i = next(iter(one.edge_ids()))
    q = one.edge_subs[i][0]
    f = random_truncfun(one.cfg, one.records[i].ball, 1, random.Random(15))
    registry_restrict(one, f, i, q)
    assert len(_steps(one)) == len(one.routes) == len(one.transitions) == 1
    assert two.routes == {} and two.transitions == {}
    registry_restrict(two, f, i, q)
    assert set(two.routes) == set(one.routes)
    assert all(two.routes[key] is not one.routes[key] for key in one.routes)
    assert all(_steps(two)[key] is not _steps(one)[key] for key in _steps(one))
    # the transition table is keyed (source ball, target ball), per registry
    assert set(two.transitions) == set(one.transitions) == {key[:2] for key in one.routes}
    assert all(two.transitions[key] is not one.transitions[key] for key in one.transitions)


def test_transition_table_builds_each_step_once_for_every_degree(monkeypatch):
    # the benchmark grid's sharing: d = 0, 1, 2 on one registry build each
    # step's transition once and each step's operator once per degree
    reg = make_reg(3, 2, 2, d=2)
    transition, operator = chains._transition, chains._operator
    calls = Counter()

    def counted_transition(cfg, src, dst):
        calls["transition"] += 1
        return transition(cfg, src, dst)

    def counted_operator(trans, D):
        calls[D] += 1
        return operator(trans, D)

    monkeypatch.setattr(chains, "_transition", counted_transition)
    monkeypatch.setattr(chains, "_operator", counted_operator)
    for d in (0, 1, 2):
        assert verify_exactness(reg, d, seed=0)["verdict"] == "exact"
        assert calls["transition"] == 168 and calls[d] == 168, (d, calls)
    assert calls == {"transition": 168, 0: 168, 1: 168, 2: 168}
    monkeypatch.undo()
    assert set(reg.transitions) == {key[:2] for key in _steps(reg)}
    # each entry is its own step's transition, exact
    for (a, b), trans in reg.transitions.items():
        assert reg.ball_chain(a, b) == [a, b]
        assert trans.entries() == _exact_transition(reg.cfg, reg.balls[a], reg.balls[b]).entries()
    assert _stale_steps(reg) == []


def test_step_table_checks_catch_a_wrong_step(monkeypatch):
    reg = make_reg(3, 2, 1, d=1)
    rng = random.Random(16)
    assert _uncached_mismatches(reg, 1, rng) == []
    # a stored operator swapped with another step's is stale
    steps = _steps(reg)
    x, y = sorted(steps)[:2]
    assert _op_bits(steps[x]) != _op_bits(steps[y])
    (bx, ox), = reg.routes[x]
    (by, oy), = reg.routes[y]
    reg.routes[x], reg.routes[y] = ((bx, oy),), ((by, ox),)
    assert sorted(_stale_steps(reg)) == sorted([x, y])
    # a step keyed without its target hands each step out of a ball the
    # operator of the first step taken from it
    route = chains._route

    def keyed_by_source(reg, src, dst, D):
        if len(reg.ball_chain(src, dst)) != 2:
            return route(reg, src, dst, D)
        if (src, D) not in reg.routes:
            reg.routes[src, D] = route(reg, src, dst, D)
        return ((reg.balls[dst], reg.routes[src, D][0][1]),)

    fresh = make_reg(3, 2, 1, d=1)
    monkeypatch.setattr(chains, "_route", keyed_by_source)
    assert _uncached_mismatches(fresh, 1, rng) != []


def _watch_routing(monkeypatch):
    """Patch ball_chain and restrict to count, and registry_restrict to check
    that it makes exactly len(chain) - 1 restrict calls, landing on record j's
    disc.  Returns the Counter of ball_chain calls by (src, dst)."""
    ball_chain = OrbitRegistry.ball_chain
    built = Counter()
    calls = [0]

    def counted_chain(reg, src, dst):
        built[src, dst] += 1
        return ball_chain(reg, src, dst)

    def counted_restrict(f, target, **kwargs):
        calls[0] += 1
        return restrict(f, target, **kwargs)

    def checked_registry_restrict(reg, f, i, j):
        before = calls[0]
        out = registry_restrict(reg, f, i, j)
        chain = ball_chain(reg, reg.ball_of[i], reg.ball_of[j])
        assert calls[0] - before == len(chain) - 1, (i, j)
        assert out.ball is reg.balls[chain[-1]] and out.ball == reg.records[j].ball
        return out

    monkeypatch.setattr(OrbitRegistry, "ball_chain", counted_chain)
    monkeypatch.setattr(chains, "restrict", counted_restrict)
    monkeypatch.setattr(chains, "registry_restrict", checked_registry_restrict)
    return built


def test_each_route_is_built_once_per_degree(monkeypatch):
    # the benchmark grid's sharing: one registry verified at d = 2, 1, 0
    reg = make_reg(3, 1, 2, d=2)
    built = _watch_routing(monkeypatch)
    for d in (2, 1, 0):
        built.clear()
        assert verify_exactness(reg, d, seed=0)["verdict"] == "exact"
        assert built and set(built.values()) == {1}
        assert set(built) == {(src, dst) for src, dst, deg in reg.routes if deg == d}
    assert len(reg.routes) == 3 * len(built)


def _misroutes(reg, d):
    """Whether registry_restrict goes wrong on some routed pair: a result that
    differs from the uncached restrict, or a step refused on the way."""
    try:
        return _uncached_mismatches(reg, d, random.Random(17)) != []
    except (IndexError, ValueError):
        return True


def test_route_table_checks_catch_a_wrong_route(monkeypatch):
    assert not _misroutes(make_reg(3, 1, 2), 1)
    route = chains._route

    # a route that drops its last step stops one disc short
    def short(reg, src, dst, D):
        return route(reg, src, dst, D)[:-1]

    monkeypatch.setattr(chains, "_route", short)
    assert _misroutes(make_reg(3, 1, 2), 1)

    # a route keyed without the degree hands d = 0 the operators of d = 1
    def keyed_without_degree(reg, src, dst, D):
        if (src, dst) not in reg.routes:
            reg.routes[src, dst] = route(reg, src, dst, D)
        return reg.routes[src, dst]

    monkeypatch.setattr(chains, "_route", keyed_without_degree)
    shared = make_reg(3, 1, 2)
    assert not _misroutes(shared, 1)
    assert _misroutes(shared, 0)

    # a route table shared between registries sends one registry's function
    # onto the other's discs
    one_table = {}

    def shared_between_registries(reg, src, dst, D):
        if (src, dst, D) not in one_table:
            one_table[src, dst, D] = route(reg, src, dst, D)
        return one_table[src, dst, D]

    monkeypatch.setattr(chains, "_route", shared_between_registries)
    assert not _misroutes(make_reg(3, 1, 2), 1)
    assert _misroutes(make_reg(2, 1, 2), 1)


@functools.cache
def _registry_steps(p, k, n):
    """A registry at a grid precision and its distinct one-step restrictions."""
    reg = build_registry(PadicConfig(p, k + 2 * n + 12), n, k)
    steps = set()
    for i, j in _routed_pairs(reg):
        chain = reg.ball_chain(reg.ball_of[i], reg.ball_of[j])
        steps.update(zip(chain, chain[1:]))
    return reg, sorted(steps)


@st.composite
def _step_draws(draw):
    """A grid registry, one of its steps, and 1 to 4 coefficient specs (v,
    prec, digits): p^v * digits mod p^prec, or exact zero when p divides digits."""
    pkn = draw(st.sampled_from([(2, 2, 2), (3, 1, 2), (5, 1, 1)]))
    reg, steps = _registry_steps(*pkn)
    step = draw(st.sampled_from(steps))
    specs = []
    for _ in range(draw(st.integers(1, 4))):
        prec = draw(st.integers(1, reg.cfg.N))
        specs.append((draw(st.integers(0, 3)), prec, draw(st.integers(0, reg.p**prec - 1))))
    return pkn, step, specs


def _horner(coeffs, sigma, D):
    """Oracle: (f o sigma) to degree D by Horner's rule, for the polynomial f
    with coefficients coeffs and a series sigma."""
    out = [coeffs[-1]] + [coeffs[-1].cfg.zero()] * D
    for c in reversed(coeffs[:-1]):
        out = chains._series_mul(out, sigma, D)
        out[0] = out[0] + c
    return out


def _check_operator_matches_horner(drawn):
    # the matrix-vector product equals the Horner composition with the step's
    # series modulo p^K, for K the least v + prec over the nonzero inputs,
    # the coefficients and the series: below that a sum may cancel every
    # stored digit, and so turn exact zero, in one evaluation order and not
    # in the other
    pkn, (a, b), specs = drawn
    reg, _ = _registry_steps(*pkn)
    cfg, p = reg.cfg, reg.p
    coeffs = [PadicNum(cfg, v, digits, prec) if digits % p else cfg.zero() for v, prec, digits in specs]
    d = len(coeffs) - 1
    (ball, op), = chains._route(reg, a, b, d)
    sigma = mobius_series(chains._transition(cfg, reg.balls[a], ball), d)
    got = chains._apply(op, coeffs)
    want = _horner(coeffs, sigma, d)
    assert len(got) == d + 1
    K = min((c.v + c.prec for c in (*coeffs, *sigma) if not c.is_zero()), default=None)
    if K is None:
        assert all(c.is_zero() for c in got + want)
    else:
        assert [c.residue_class(K) for c in got] == [c.residue_class(K) for c in want]
    assert _bits(restrict(TruncFun(cfg, reg.balls[a], coeffs), ball).coeffs) == _bits(got)


_HORNER_SETTINGS = dict(database=None, max_examples=250, deadline=None)


@settings(derandomize=True, **_HORNER_SETTINGS)
# (2,2,2), step sigma = 1 + 2t, f = t^2 mod 2: in degree 1 the operator gives
# 4 mod 8 and Horner exact zero, as 2c + 2c cancels; both are 0 mod 2
@example(((2, 2, 2), (0, 4), [(0, 1, 0), (0, 1, 0), (0, 1, 1)]))
@given(_step_draws())
def test_step_operator_matches_horner_composition_property(drawn):
    _check_operator_matches_horner(drawn)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_step_operator_matches_horner_composition_under_seed(seed):
    # the same property under fixed seeds, beyond the derandomized one
    run = given(_step_draws())(_check_operator_matches_horner)
    hypothesis.seed(seed)(settings(derandomize=False, **_HORNER_SETTINGS)(run))()


def test_non_integral_transition_refused_under_python_O():
    # t -> t + 1/3 does not carry Z_p into Z_p; the operator kernel refuses
    # it, as a bare matrix and as a step's transition, even with asserts
    # stripped
    script = "\n".join([
        "from fractions import Fraction",
        "from btcomplex.chains import _operator, _transition",
        "from btcomplex.padics import PadicConfig",
        "from btcomplex.projline import Ball, GL2",
        "cfg = PadicConfig(3, 12)",
        "for trans in (GL2(cfg, 1, 0, Fraction(1, 3), 1),",
        "              _transition(cfg, Ball(cfg, ('z', 3, 0, False)), Ball(cfg, ('z', 3, 1, False)))):",
        "    try:",
        "        _operator(trans, 1)",
        "    except ValueError as exc:",
        "        print(exc)",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=ENV)
    assert r.returncode == 0, r.stderr
    message = "transition series is not p-integral: the map does not carry Z_p into Z_p\n"
    assert r.stdout == 2 * message


def test_boundary_matrix_defects_reach_the_report_under_python_O():
    # with asserts stripped: a duplicated, a restriction and a missing
    # diagonal block each read 0 in diag_signs; a wrong count of non-minimal
    # records fails the two count rows, and a reversed order the triangular
    # row and the injectivity row that reads it, each as a report, not a
    # raise; a collided owner column and a non-minimal record that owns no
    # edge record still raise in the builder
    script = "\n".join([
        "from btcomplex import chains, orbits",
        "from btcomplex.chains import BoundaryMatrix, assemble_dbar1, verify_exactness",
        "from btcomplex.orbits import build_registry",
        "from btcomplex.padics import PadicConfig",
        "def registry():",
        "    return build_registry(PadicConfig(3, 12), 1, 1)",
        "def failing(reg):",
        "    report = verify_exactness(reg, 0)",
        "    print(report['verdict'], report['counterexample'])",
        "    print([(c['name'], c['detail']) for c in report['checks'] if not c['pass']])",
        "reg = registry()",
        "mat = assemble_dbar1(reg)",
        "first = next(b for b in mat.blocks if b[:2] == (0, 0))",
        "edits = [mat.blocks + [first],",
        "         [(r, c, 'res', s) if (r, c) == (0, 0) else (r, c, k, s) for r, c, k, s in mat.blocks],",
        "         [b for b in mat.blocks if b is not first]]",
        "print([BoundaryMatrix(reg, mat.order, blocks, mat.columns).diag_signs()[0] for blocks in edits])",
        "chains.nonminimal_count_formula = lambda p, k, n: 0",
        "failing(reg)",
        "chains.nonminimal_count_formula = orbits.nonminimal_count_formula",
        "reversed_order = registry()",
        "reversed_order.nonmin_order.reverse()",
        "failing(reversed_order)",
        "edges = list(reg.edge_ids())",
        "collided = registry()",
        "assemble_dbar1(collided)",
        "collided.owner[edges[1]] = collided.owner[edges[0]]",
        "unowned = registry()",
        "assemble_dbar1(unowned)",
        "unowned.edge_ids = lambda: edges[1:]",
        "for broken in (collided, unowned):",
        "    try:",
        "        assemble_dbar1(broken)",
        "    except AssertionError as exc:",
        "        print(exc)",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=ENV)
    assert r.returncode == 0, r.stderr
    kernel = ("degree-one kernel trivial", "triangular with unit diagonal and equal to the projected boundary")
    assert r.stdout.splitlines() == [
        "[0, 0, 0]",
        "failed {'check': 'block count r', 'detail': 'size=8, r=0'}",
        str([("block count r", "size=8, r=0"), ("dim C1 = (d+1) r", "")]),
        "failed {'check': 'lower triangular', 'detail': 'block (2, 4)'}",
        str([("lower triangular", "block (2, 4)"), kernel]),
        "owner bijection collided",
        "a non-minimal record owns no edge record",
    ]


def test_chain_guards_survive_python_O():
    # adding functions of different degree, a part of the wrong degree, a
    # kernel lift from a minimal part, a surjectivity lift from a non-minimal
    # part or from a function on another disc, and a map_path that misses its
    # target vertexwise each raise, even with asserts stripped
    script = "\n".join([
        "from btcomplex import tree",
        "from btcomplex.chains import Chain, kernel_lift, monomial, surjectivity_lift",
        "from btcomplex.orbits import build_registry",
        "from btcomplex.padics import PadicConfig",
        "reg = build_registry(PadicConfig(3, 12), 1, 1)",
        "cfg = reg.cfg",
        "m1, m2 = [i for i, flag in enumerate(reg.minimal) if flag][:2]",
        "fun = lambda i, d: monomial(cfg, reg.records[i].ball, 0, d)",
        "attempts = [lambda: fun(m1, 0) + fun(m1, 1),",
        "            lambda: Chain(0, {m1: fun(m1, 1)}),",
        "            lambda: kernel_lift(Chain(0, {m1: fun(m1, 0)}), reg),",
        "            lambda: surjectivity_lift(Chain(0, {reg.nonmin_order[0]: fun(m1, 0)}), reg),",
        "            lambda: surjectivity_lift(Chain(0, {m1: fun(m2, 0)}), reg)]",
        "for attempt in attempts:",
        "    try:",
        "        attempt()",
        "    except AssertionError as exc:",
        "        print(exc)",
        "tree.act_vertex = lambda g, v: v",
        "try:",
        "    tree.map_path(cfg, tree.standard_path(3, 1), tree.path(tree.Vertex.root(3), tree.Vertex.make(3, 1, 1, 1)))",
        "except AssertionError as exc:",
        "    print(exc)",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=ENV)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [
        "added functions differ in disc or degree",
        "part of degree 1 in a degree-0 chain",
        "lift input must be supported off the minimal records",
        "record 19 of the target is not minimal",
        "piece 4 of the target lives on another disc",
        "map_path does not carry path_p onto path_q vertexwise",
    ]


def test_chain_add_part_drops_a_cancelled_part_and_keeps_a_partial_one():
    cfg = PadicConfig(3, 6)
    ball = Ball(cfg, ("z", 3, 1, False))
    x = PadicNum(cfg, -1, 1 + 2 * 3 + 9 * 5, 6)
    y = PadicNum(cfg, -1, -(1 + 2 * 3 + 9 * 7) % 3**6, 6)  # agrees with -x in two digits
    f = TruncFun(cfg, ball, [x, cfg.from_int(2)])
    g = TruncFun(cfg, ball, [y, cfg.from_int(-2)])
    chain = Chain(1, {7: f})
    chain.add_part(4, f)
    chain.add_part(4, -f)
    assert set(chain.parts) == {7}
    chain.add_part(4, TruncFun(cfg, ball, [cfg.zero(), cfg.zero()]))
    assert set(chain.parts) == {7}
    chain.add_part(4, f)
    chain.add_part(4, g)
    kept = chain.parts[4]
    # x + y = -18 = 3^1 * (-2): two digits cancel, four are left
    assert _bits(kept.coeffs) == _bits([x + y, cfg.zero()]) == [(1, 3**4 - 2, 4), (INF, 0, 6)]
    chain.set_part(7, f + -f)
    assert set(chain.parts) == {4}


def test_chain_degree_guard_survives_python_O():
    # a part of the wrong degree is refused by set_part and add_part alike,
    # even with asserts stripped
    script = "\n".join([
        "from btcomplex.chains import Chain, monomial",
        "from btcomplex.padics import PadicConfig",
        "from btcomplex.projline import Ball",
        "cfg = PadicConfig(3, 6)",
        "ball = Ball(cfg, ('z', 3, 1, False))",
        "fun = lambda d: monomial(cfg, ball, 0, d)",
        "attempts = [lambda: Chain(0).set_part(2, fun(1)),",
        "            lambda: Chain(1).add_part(2, fun(0)),",
        "            lambda: Chain(0, {2: fun(0)}).add_part(2, fun(1))]",
        "for attempt in attempts:",
        "    try:",
        "        attempt()",
        "    except AssertionError as exc:",
        "        print(exc)",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=ENV)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [
        "part of degree 1 in a degree-0 chain",
        "part of degree 0 in a degree-1 chain",
        "added functions differ in disc or degree",
    ]


# -- boundary maps -----------------------------------------------------------------


def test_partial1_single_edge_signs():
    reg = make_reg(3, 1, 1)
    cfg = reg.cfg
    e = reg.edges()[0]
    rec = reg.edge_records[e][0]
    one = monomial(cfg, rec.ball, 0, 1)
    out = partial1(Chain(1, {reg.index[rec]: one}), reg)
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


@pytest.mark.parametrize("p,k,n,d", [(p, k, n, d) for p, k, n in [(2, 1, 1), (3, 1, 1), (2, 2, 1), (2, 1, 2),
                                                                 (3, 2, 1), (2, 2, 2)] for d in (0, 1, 2)])
def test_partial0_commutes_with_the_level_inclusion(p, k, n, d):
    # each level-n vertex record is the level-(n+1) record of its simplex and
    # disc, and each level-n minimal disc is the union of the level-(n+1)
    # minimal discs inside it: partial0 at level n, refined onto those by the
    # larger registry's restrictions, is partial0 at level n + 1.  Below a
    # proper disc the registry discs nest, so the route from a disc to a
    # level-(n+1) minimal disc passes through the level-n minimal disc holding
    # it, and the level-n chains are the same (the nesting test of
    # test_orbits): the two sides agree exactly
    cfg = make_cfg(p, k, n + 1, d)
    small, big = build_registry(cfg, n, k), build_registry(cfg, n + 1, k)
    into = [big.index[r] for r in small.records]
    for i in range(len(small.minimal)):
        for j in range(d + 1):
            f = monomial(cfg, small.records[i].ball, j, d)
            refined = Chain(d)
            for m, g in partial0(Chain(d, {i: f}), small).parts.items():
                for q in big.min_cover[into[m]]:
                    refined.add_part(q, registry_restrict(big, g, into[m], q))
            assert refined == partial0(Chain(d, {into[i]: f}), big), (small.records[i], j)


def _mod_p(chain, p):
    """A chain's coefficients mod p, (record index, degree) -> nonzero
    residue; every coefficient must be p-integral."""
    out = {}
    for i, f in chain.parts.items():
        for j, a in enumerate(f.coeffs):
            assert a.v is INF or a.v >= 0, (i, j)
            if a.v == 0:
                out[i, j] = a.u % p
    return out


def _rank_mod_p(columns, p):
    """The rank over F_p of the sparse columns, by elimination: each column is
    reduced by the pivots found so far and, if anything is left, becomes the
    pivot of its least row."""
    pivots = {}
    for col in columns:
        col = dict(col)
        while col:
            row = min(col)
            if row not in pivots:
                inv = pow(col[row], -1, p)
                pivots[row] = {r: v * inv % p for r, v in col.items()}
                break
            c = col[row]
            for r, v in pivots[row].items():
                x = (col.get(r, 0) - c * v) % p
                if x:
                    col[r] = x
                else:
                    col.pop(r, None)
    return len(pivots)


@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize("p,k,n", [(2, 1, 1), (3, 1, 1), (2, 1, 2), (3, 2, 1)])
def test_the_complex_is_exact_mod_p(p, k, n, d):
    # the maps are p-integral, so the complex reduces mod p; read column by
    # column off partial1 and partial0 on the monomials and reduced there, it
    # is exact over F_p: partial0 partial1 = 0, partial1 is injective,
    # partial0 is onto, and the ranks add up to dim C0.  Independent of the
    # triangular argument of verify_exactness
    reg = make_reg(p, k, n, d)
    cfg = reg.cfg
    nv = len(reg.minimal)

    def columns(boundary, ids):
        return {(i, j): _mod_p(boundary(Chain(d, {i: monomial(cfg, reg.records[i].ball, j, d)}), reg), p)
                for i in ids for j in range(d + 1)}

    d1 = columns(partial1, reg.edge_ids())
    d0 = columns(partial0, range(nv))
    for key, col in d1.items():
        composite = {}
        for row, v in col.items():
            for r, w in d0[row].items():
                composite[r] = (composite.get(r, 0) + v * w) % p
        assert not any(composite.values()), key
    dim_c1, dim_c0, dim_cm1 = len(d1), len(d0), sum(reg.minimal) * (d + 1)
    rank1, rank0 = _rank_mod_p(d1.values(), p), _rank_mod_p(d0.values(), p)
    assert (rank1, rank0) == (dim_c1, dim_cm1)
    assert dim_c0 == rank1 + rank0


def test_partial1_nonzero_on_random_chains():
    rng = random.Random(9)
    reg = make_reg(3, 1, 2)
    for _ in range(100):
        c1 = random_chain1(reg, 1, rng)
        if not c1.is_zero():
            assert not partial1(c1, reg).is_zero()


# The complex maps take each sign before restricting, and partial0 hands a
# part to a minimal record on the part's own disc unrouted.  The tests below
# hold them to the forms that negate each restriction and route every part.


def _chain_bits(c):
    return sorted((i, f.ball.id_str(), _bits(f.coeffs)) for i, f in c.parts.items())


def _negated_chain(c):
    return Chain(c.d, {i: -f for i, f in c.parts.items()})


def _random_parts(reg, ids, d, rng, size):
    """A degree-d chain on size of the records ids, coefficients drawn by
    _random_number: exact zeros, reduced precisions, valuations -3..3."""
    return Chain(d, {i: TruncFun(reg.cfg, reg.records[i].ball, [_random_number(reg.cfg, rng) for _ in range(d + 1)])
                     for i in rng.sample(ids, min(size, len(ids)))})


def _partial1_oracle(c1, reg):
    """partial1 with the sign taken after restricting: each of the q
    restrictions negated."""
    out = Chain(c1.d)
    for i, f in c1.parts.items():
        owner = reg.owner[i]
        s = chains._edge_sign(reg.records[i].simplex, reg.records[owner].simplex)
        out.add_part(owner, f if s == 1 else -f)
        for q in reg.edge_subs[i]:
            rf = registry_restrict(reg, f, i, q)
            out.add_part(q, -rf if s == 1 else rf)
    return out


def _partial0_oracle(c0, reg):
    """partial0 with every part routed, a minimal record on its own disc too."""
    out = Chain(c0.d)
    for i, f in c0.parts.items():
        for m in reg.min_cover[i]:
            out.add_part(m, registry_restrict(reg, f, i, m))
    return out


def _kernel_lift_oracle(nonmin, reg):
    """kernel_lift with each minimal part negated after the sum."""
    out = Chain(nonmin.d, nonmin.parts)
    for m, f in _partial0_oracle(nonmin, reg).parts.items():
        out.set_part(m, -f)
    return out


def _matrix_apply_oracle(mat, c1):
    """BoundaryMatrix.apply with each block's sign taken after restricting."""
    out = Chain(c1.d)
    for i, f in c1.parts.items():
        for t, kind, sign in mat._edge_blocks[i]:
            g = f if kind == "id" else registry_restrict(mat.reg, f, i, t)
            out.add_part(t, g if sign == 1 else -g)
    return out


@pytest.mark.parametrize("p,k,n,d", [(3, 2, 2, 2), (2, 2, 3, 1)])
def test_restriction_commutes_with_negation_bit_for_bit(p, k, n, d):
    reg = make_reg(p, k, n, d)
    cfg = reg.cfg
    rng = random.Random(18)

    def assert_negation_commutes(f, i, j):
        got = registry_restrict(reg, -f, i, j)
        want = -registry_restrict(reg, f, i, j)
        assert got.ball is want.ball and _bits(got.coeffs) == _bits(want.coeffs), (i, j)

    zeroed = 0
    for i, j in _routed_pairs(reg):
        ball = reg.records[i].ball
        f = random_truncfun(cfg, ball, d, rng, nonzero=True)
        assert_negation_commutes(f, i, j)
        assert_negation_commutes(TruncFun(cfg, ball, [_random_number(cfg, rng) for _ in range(d + 1)]), i, j)
        route = chains._route(reg, reg.ball_of[i], reg.ball_of[j], d)
        if len(route) > 1:
            # shift the constant so that the first step's constant cancels to
            # exact zero, and the later steps restrict that zero
            mid_ball, op = route[0]
            shifted = TruncFun(cfg, ball, [f.coeffs[0] - restrict(f, mid_ball, op=op).coeffs[0], *f.coeffs[1:]])
            mid = restrict(shifted, mid_ball, op=op)
            assert mid.coeffs[0].v is INF, (i, j)
            assert_negation_commutes(shifted, i, j)
            zeroed += 1
    assert zeroed


@pytest.mark.parametrize("p,k,n,d", [(3, 1, 2, 1), (2, 2, 2, 2), (3, 2, 1, 2)])
def test_partial0_commutes_with_negation_bit_for_bit(p, k, n, d):
    reg = make_reg(p, k, n, d)
    rng = random.Random(19)
    vertex_ids = range(len(reg.minimal))
    for _ in range(20):
        c0 = _random_parts(reg, vertex_ids, d, rng, 12)
        # a part on the largest disc gives some minimal record two terms or more
        top = reg.nonmin_order[0]
        c0.set_part(top, random_truncfun(reg.cfg, reg.records[top].ball, d, rng, nonzero=True))
        terms = Counter(m for i in c0.parts for m in reg.min_cover[i])
        assert max(terms.values()) >= 2
        assert _chain_bits(partial0(_negated_chain(c0), reg)) == _chain_bits(_negated_chain(partial0(c0, reg)))


@pytest.mark.parametrize("p,k,n,d", [(3, 1, 1, 2), (2, 2, 1, 1), (3, 2, 1, 1), (2, 2, 2, 2), (5, 1, 1, 1)])
def test_complex_maps_match_their_sign_after_restrict_forms(p, k, n, d):
    reg = make_reg(p, k, n, d)
    mat = assemble_dbar1(reg)
    rng = random.Random(20)
    edge_ids = reg.edge_ids()
    nonmin_ids = list(reg.nonmin_order)
    minimal_ids = [i for i, m in enumerate(reg.minimal) if m]
    for _ in range(15):
        c1 = _random_parts(reg, edge_ids, d, rng, 6)
        assert _chain_bits(partial1(c1, reg)) == _chain_bits(_partial1_oracle(c1, reg))
        assert _chain_bits(mat.apply(c1)) == _chain_bits(_matrix_apply_oracle(mat, c1))
        nonmin = _random_parts(reg, nonmin_ids, d, rng, 6)
        assert _chain_bits(kernel_lift(nonmin, reg)) == _chain_bits(_kernel_lift_oracle(nonmin, reg))
        c0 = _random_parts(reg, nonmin_ids + minimal_ids, d, rng, 10)
        assert _chain_bits(partial0(c0, reg)) == _chain_bits(_partial0_oracle(c0, reg))
    # on every basis element, as verify_exactness applies them
    for i in edge_ids:
        for j in range(d + 1):
            c1 = Chain(d, {i: monomial(reg.cfg, reg.records[i].ball, j, d)})
            assert _chain_bits(partial1(c1, reg)) == _chain_bits(_partial1_oracle(c1, reg))
            assert _chain_bits(mat.apply(c1)) == _chain_bits(_matrix_apply_oracle(mat, c1))
    for i in nonmin_ids:
        basis = Chain(d, {i: monomial(reg.cfg, reg.records[i].ball, d, d)})
        assert _chain_bits(kernel_lift(basis, reg)) == _chain_bits(_kernel_lift_oracle(basis, reg))


def test_partial0_passes_a_part_on_its_own_disc_through_unrouted(monkeypatch):
    # the surjectivity check's pieces sit on minimal records and come back
    # as the same objects, without a route
    reg = make_reg(3, 1, 2, d=1)
    target = random_localfun(reg, 1, random.Random(21))
    routed = []
    monkeypatch.setattr(chains, "registry_restrict", lambda reg, f, i, j: routed.append((i, j)))
    image = partial0(surjectivity_lift(target, reg), reg)
    assert routed == []
    assert all(image.parts[m] is f for m, f in target.parts.items()) and image == target


def test_deepest_edge_support_shows_up_at_deep_vertex():
    reg = make_reg(3, 1, 2)
    cfg = reg.cfg
    deep = [e for e in reg.edges() if max(e.src.n, e.dst.n) == 2]
    rec = reg.edge_records[deep[0]][0]
    out = partial1(Chain(1, {reg.index[rec]: monomial(cfg, rec.ball, 0, 1)}), reg)
    assert any(reg.records[i].simplex.n == 2 for i in out.parts)


# -- kernel projection ----------------------------------------------------------------


def test_kernel_roundtrip_zero():
    reg = make_reg(3, 1, 1)
    z = Chain(1)
    assert kernel_lift(z, reg).is_zero()
    assert kernel_project(z, reg).is_zero()


def test_kernel_lift_of_single_component():
    # a function on one non-minimal record, minus its restrictions to the
    # minimal discs below it, sums to zero
    reg = make_reg(3, 1, 1, d=1)
    cfg = reg.cfg
    rec = reg.records[reg.nonmin_order[0]]
    f = monomial(cfg, rec.ball, 1, 1)
    c = Chain(1, {reg.index[rec]: f})
    lifted = kernel_lift(c, reg)
    # each part lies on its own record's disc: misplaced parts can cancel in
    # partial0, so the two equalities below would not see them
    assert all(g.ball is reg.records[t].ball or g.ball == reg.records[t].ball for t, g in lifted.parts.items())
    assert partial0(lifted, reg).is_zero()
    assert kernel_project(lifted, reg) == c


def test_kernel_lift_random_nonminimal_assignment():
    rng = random.Random(10)
    reg = make_reg(3, 1, 1, d=1)
    cfg = reg.cfg
    c = Chain(1)
    for rec in reg.nonminimal_records():
        c.set_part(reg.index[rec], random_truncfun(cfg, rec.ball, 1, rng))
    lifted = kernel_lift(c, reg)
    assert partial0(lifted, reg).is_zero()
    assert kernel_project(lifted, reg) == c


def test_kernel_project_rejects_non_kernel():
    reg = make_reg(3, 1, 1)
    cfg = reg.cfg
    rec = reg.records[reg.nonmin_order[0]]
    c = Chain(1, {reg.index[rec]: monomial(cfg, rec.ball, 0, 1)})
    with pytest.raises(ValueError):
        kernel_project(c, reg)


# -- the boundary matrix -----------------------------------------------------------------


def reference_structure():
    with resources.files("btcomplex.data").joinpath("boundary_matrix_p2_k1_n1.json").open() as fh:
        return json.load(fh)


def test_reference_block_matrix_layout():
    reg = make_reg(2, 1, 1)
    with uniformity_warning():
        mat = assemble_dbar1(reg)
    golden = reference_structure()
    assert mat.size == golden["size"] == 6
    got = {(b["row"], b["col"], b["kind"], b["sign"]) for b in mat.structure()}
    want = {(b["row"], b["col"], b["kind"], b["sign"]) for b in golden["blocks"]}
    assert got == want
    assert mat.diag_signs() == [-1, -1, -1, 1, 1, 1]


def test_matrix_triangular_everywhere():
    for (p, k, n) in [(2, 1, 1), (3, 1, 1), (2, 2, 1), (3, 1, 2), (2, 2, 2)]:
        reg = make_reg(p, k, n)
        with uniformity_warning() if (p, k) == (2, 1) else nullcontext():
            mat = assemble_dbar1(reg)
        assert mat.is_lower_triangular()
        assert all(s in (1, -1) for s in mat.diag_signs())
        from btcomplex.orbits import nonminimal_count_formula

        assert mat.size == nonminimal_count_formula(p, k, n)


def test_matrix_apply_matches_projected_boundary():
    reg = make_reg(3, 1, 1, d=1)
    cfg = reg.cfg
    mat = assemble_dbar1(reg)
    rng = random.Random(11)
    for _ in range(10):
        c1 = random_chain1(reg, 1, rng)
        image = partial1(c1, reg)
        projected = Chain(1)
        for i, f in image.parts.items():
            if not reg.minimal[i]:
                projected.set_part(i, f)
        assert projected == mat.apply(c1)


# -- exactness reports ---------------------------------------------------------------------


def test_verify_exactness_dims_small():
    rep = verify_exactness(make_reg(3, 1, 1, d=0), 0, seed=0)
    assert rep["verdict"] == "exact"
    assert rep["dims"] == {"C1": 8, "C0": 20, "ker_partial0": 8, "r": 8}
    with uniformity_warning():
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
        mat, Chain(c1.d, {i: f for i, f in c1.parts.items() if i != dropped})))
    with uniformity_warning():
        rep = verify_exactness(reg, 0, seed=0)
    checks = {c["name"]: c for c in rep["checks"]}
    kernel = checks["boundary composite vanishes on a basis"]
    matrix = checks["matrix equals projected boundary on a basis"]
    assert kernel["pass"] and kernel["detail"] == ""
    assert not matrix["pass"] and matrix["detail"] == f"{reg.records[dropped].id_str()} degree 0"
    assert rep["verdict"] == "failed"


def test_verify_exactness_failing_basis_check_names_its_last_failing_element(monkeypatch):
    # a matrix that loses two columns fails on every degree of both records;
    # the basis walk goes on to the end and names the last of them, and the
    # counterexample is the first failing row with that detail
    reg = make_reg(3, 1, 1, d=1)
    dropped = set(list(reg.edge_ids())[2:4])
    apply = BoundaryMatrix.apply
    monkeypatch.setattr(BoundaryMatrix, "apply", lambda mat, c1: apply(
        mat, Chain(c1.d, {i: f for i, f in c1.parts.items() if i not in dropped})))
    rep = verify_exactness(reg, 1, seed=0)
    matrix = "matrix equals projected boundary on a basis"
    last = f"{reg.records[max(dropped)].id_str()} degree 1"
    failing = [(c["name"], c["detail"]) for c in rep["checks"] if not c["pass"]]
    assert failing == [(matrix, last), ("degree-one kernel trivial",
                                        "triangular with unit diagonal and equal to the projected boundary")]
    assert rep["counterexample"] == {"check": matrix, "detail": last}
    assert rep["verdict"] == "failed"


@pytest.mark.parametrize("honest,first", [(0, "sample 0"), (3, "sample 3")],
                         ids=["from-sample-0", "from-sample-3"])
def test_verify_exactness_failing_sampled_check_names_its_first_failing_sample(monkeypatch, honest, first):
    # a surjectivity lift that returns the empty chain after its first
    # `honest` calls fails every later sample; the check names the first of
    # them and draws no further target
    reg = make_reg(3, 1, 1, d=1)
    lift, draw = chains.surjectivity_lift, chains.random_localfun
    calls = []
    monkeypatch.setattr(chains, "surjectivity_lift", lambda target, reg: (
        lift(target, reg) if len(calls) <= honest else Chain(target.d)))
    monkeypatch.setattr(chains, "random_localfun", lambda *a: calls.append(1) or draw(*a))
    rep = verify_exactness(reg, 1, seed=0)
    surj = "constructive surjectivity on sampled targets"
    assert [(c["name"], c["detail"]) for c in rep["checks"] if not c["pass"]] == [(surj, first)]
    assert rep["counterexample"] == {"check": surj, "detail": first}
    assert len(calls) == honest + 1


def test_verify_exactness_kernel_lift_check_sees_a_part_off_its_disc(monkeypatch):
    # a lift that puts one minimal part on the lifted record's disc fails the
    # kernel-lift check alone, before any sum of mismatched parts is formed
    reg = make_reg(3, 1, 1, d=0)
    lift = chains.kernel_lift
    moved = []

    def misplaced(nonmin, reg):
        out = lift(nonmin, reg)
        (i, f), = nonmin.parts.items()
        m = next((t for t in out.parts if reg.minimal[t] and reg.ball_of[t] != reg.ball_of[i]), None)
        if m is not None:
            out.set_part(m, TruncFun(reg.cfg, f.ball, out.parts[m].coeffs))
            moved.append(i)
        return out

    monkeypatch.setattr(chains, "kernel_lift", misplaced)
    rep = verify_exactness(reg, 0, seed=0)
    checks = {c["name"]: c for c in rep["checks"]}
    assert moved
    assert not checks["kernel lift section"]["pass"]
    assert checks["kernel lift section"]["detail"] == f"{reg.records[moved[-1]].id_str()} degree 0"
    assert [c["name"] for c in rep["checks"] if not c["pass"]] == ["kernel lift section"]
    assert rep["verdict"] == "failed"


def test_verify_exactness_catches_a_minimal_record_left_out_of_its_cover():
    # partial0 of a minimal record's monomial must be that monomial on that
    # record alone; a cover that leaves the record out of its own list fails
    reg = make_reg(3, 1, 1, d=0)
    m = reg.minimal.index(True)
    covers = list(reg.min_cover)
    covers[m] = [x for x in covers[m] if x != m]
    reg.min_cover = covers
    rep = verify_exactness(reg, 0, seed=0)
    checks = {c["name"]: c for c in rep["checks"]}
    assert not checks["augmentation faithful on minimal records"]["pass"]
    assert rep["verdict"] == "failed"


def _draw_digest(reg, d, seed):
    """sha256 of the record ids and coefficient bits that verify_exactness's
    sampled checks draw from Random(seed): 50 targets, then 100 degree-one
    chains."""
    rng = random.Random(seed)
    draws = [random_localfun(reg, d, rng) for _ in range(50)] + [random_chain1(reg, d, rng) for _ in range(100)]
    h = hashlib.sha256()
    for chain in draws:
        h.update(repr([(i, _bits(f.coeffs)) for i, f in chain.parts.items()]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("p,k,n,d,digest", [
    (3, 1, 1, 2, "1c86894ac8e2b3994d1c6c7743c8fc18c220ccaa5fd6db75c0f36f38c7a9633d"),
    (2, 2, 2, 1, "6ca0ac51614446dc8cdc0d57e9fc4b045d71b512e3b8217692a1b1d238444829"),
])
def test_sampled_checks_draw_the_pinned_records_and_coefficients(p, k, n, d, digest):
    # the report shows only pass or fail, so this pins what the samples are
    assert _draw_digest(make_reg(p, k, n, d), d, 0) == digest


def test_surjectivity_lift_exact():
    rng = random.Random(12)
    reg = make_reg(3, 1, 2, d=1)
    for _ in range(5):
        target = random_localfun(reg, 1, rng)
        lifted = surjectivity_lift(target, reg)
        assert partial0(lifted, reg) == target
        # the lift is supported where the pieces live, zero elsewhere
        assert set(lifted.parts) <= set(target.parts)
