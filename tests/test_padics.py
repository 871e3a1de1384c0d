import operator
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from btcomplex.padics import INF, PadicConfig, PadicNum, PrecisionError, val_int
from test_cli import ENV


@pytest.fixture(params=[2, 3, 5])
def cfg(request):
    return PadicConfig(request.param, 12)


def test_basic_values():
    c3 = PadicConfig(3, 10)
    x = c3.from_int(9) + c3.from_int(18)
    assert x.valuation == 3 and x.unit_residue(3) == 1  # 27
    c2 = PadicConfig(2, 10)
    y = c2.from_int(12)
    assert y.valuation == 2 and y.unit_residue(2) == 3
    z = c3.from_fraction(Fraction(1, 3))
    assert z.valuation == -1 and z.unit_residue(1) == 1


def test_val_examples():
    assert PadicConfig(2, 8).from_int(12).valuation == 2
    assert PadicConfig(3, 8).from_int(9).valuation == 2
    assert PadicConfig(3, 8).zero().valuation is INF


def test_arith_dispatch(cfg):
    a, b = cfg.from_int(10), cfg.from_int(4)
    assert a + b == cfg.from_int(14)
    assert a - b == cfg.from_int(6)
    assert a * b == cfg.from_int(40)
    assert a * b.inverse() == cfg.from_fraction(Fraction(10, 4))
    for op in (operator.truediv, operator.pow, operator.mod):  # sums, products and the inverse only
        with pytest.raises(TypeError):
            op(a, b)


def test_division_by_zero(cfg):
    with pytest.raises(ZeroDivisionError):
        cfg.zero().inverse()


def test_exact_zero_is_distinguished(cfg):
    x = cfg.from_int(7)
    assert (x - x).is_zero()
    assert (x - x).valuation is INF


def test_ultrametric_property():
    rng = random.Random(1)
    for p in (2, 3, 5):
        cfg = PadicConfig(p, 14)
        for _ in range(3500):
            a = Fraction(rng.randrange(-400, 400), rng.choice([1, 1, p, p * p]))
            b = Fraction(rng.randrange(-400, 400), rng.choice([1, 1, p, p * p]))
            x, y = cfg.from_fraction(a), cfg.from_fraction(b)
            s = x + y
            lo = min(x.valuation, y.valuation)
            assert s.valuation >= lo
            if x.valuation != y.valuation:
                assert s.valuation == lo
            assert (x * y).valuation == x.valuation + y.valuation


def test_ring_laws_on_residues():
    rng = random.Random(2)
    for p in (2, 3):
        cfg = PadicConfig(p, 12)
        for _ in range(400):
            x, y, z = (cfg.from_int(rng.randrange(-200, 200)) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z


def test_inverse(cfg):
    x = cfg.from_fraction(Fraction(7, cfg.p))
    assert x.inverse() == cfg.from_fraction(Fraction(cfg.p, 7))
    assert (x * x).inverse() == x.inverse() * x.inverse()
    assert x * x.inverse() == cfg.one()


def _decode(cfg, s):
    """Read a 'vV:uDDDD' digit string back: the package only writes them."""
    vpart, upart = s.split(":")
    if vpart == "vinf":
        return cfg.zero()
    u = sum(int(ch) * cfg.p**i for i, ch in enumerate(upart[1:]))
    return PadicNum(cfg, int(vpart[1:]), u, cfg.N)


def test_serialize_round_trip():
    rng = random.Random(3)
    for p in (2, 3, 5):
        cfg = PadicConfig(p, 10)
        for _ in range(300):
            q = Fraction(rng.randrange(-500, 500), rng.choice([1, p, p**2, 7]))
            x = cfg.from_fraction(q)
            assert _decode(cfg, x.serialize()) == x
        assert _decode(cfg, cfg.zero().serialize()).is_zero()


def test_digit_string_format():
    cfg = PadicConfig(2, 10)
    assert cfg.from_int(12).serialize() == "v2:u11"
    assert cfg.zero().serialize() == "vinf:u0"


def test_precision_tracking_on_cancellation():
    cfg = PadicConfig(3, 6)
    # units agree to two digits: the difference keeps only the rest
    x = cfg.from_int(1 + 2 * 3 + 9 * 5)
    y = cfg.from_int(1 + 2 * 3 + 9 * 7)
    d = x - y
    assert d.valuation == 2
    assert d.prec == cfg.N - 2
    with pytest.raises(PrecisionError):
        d.unit_residue(cfg.N)


def test_invalid_config():
    with pytest.raises(ValueError):
        PadicConfig(4, 8)
    with pytest.raises(ValueError):
        PadicConfig(3, 0)


def test_unit_invariant_refused_under_python_O():
    # the public constructor's check is a raise, not an assert, so -O keeps it
    script = "\n".join([
        "from btcomplex.padics import INF, PadicConfig, PadicNum",
        "cfg = PadicConfig(3, 6)",
        "for v, u, prec in ((0, 3, 4), (0, 0, 4), (1, 82, 4), (0, 1, 0), (0, 1, 7), (INF, 1, 6)):",
        "    try:",
        "        PadicNum(cfg, v, u, prec)",
        "    except ValueError as exc:",
        "        print(exc)",
        "print(PadicNum(cfg, -2, 728, 6).serialize())",
    ])
    r = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=ENV)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [
        "3 is not a unit residue mod 3^4",
        "0 is not a unit residue mod 3^4",
        "82 is not a unit residue mod 3^4",
        "precision 0 outside 1..6",
        "precision 7 outside 1..6",
        "exact zero must have unit part 0, got 1",
        "v-2:u222222",
    ]


# The arithmetic as it was written against the checked constructor: every
# result goes through PadicNum.__init__.  The kernels build theirs unchecked.


def _checked_add(x, y):
    cfg = x.cfg
    if x.is_zero():
        return y
    if y.is_zero():
        return x
    a, b = (x, y) if x.v <= y.v else (y, x)
    digits = min(a.v + a.prec, b.v + b.prec) - a.v
    p = cfg.p
    r = (a.u + b.u * p ** (b.v - a.v)) % p**digits
    if r == 0:
        return cfg.zero()
    c = val_int(r, p)
    return PadicNum(cfg, a.v + c, (r // p**c) % p ** (digits - c), digits - c)


def _checked_neg(x):
    return x if x.is_zero() else PadicNum(x.cfg, x.v, (-x.u) % x.cfg.p**x.prec, x.prec)


def _checked_mul(x, y):
    if x.is_zero() or y.is_zero():
        return x.cfg.zero()
    prec = min(x.prec, y.prec)
    return PadicNum(x.cfg, x.v + y.v, (x.u * y.u) % x.cfg.p**prec, prec)


def _bits(x):
    return (x.v, x.u, x.prec)


def _valid(x):
    """Rebuilding x through the checked constructor keeps every bit."""
    return isinstance(x, PadicNum) and _bits(PadicNum(x.cfg, x.v, x.u, x.prec)) == _bits(x)


@st.composite
def _padic_operands(draw):
    """Two numbers at p in {2, 3, 5}: independent, exact negatives (full
    cancellation), or agreeing in a few leading digits (partial cancellation)."""
    p = draw(st.sampled_from([2, 3, 5]))
    cfg = PadicConfig(p, draw(st.integers(1, 8)))

    def number(v_lo=-3):
        if draw(st.integers(0, 6)) == 0:
            return cfg.zero()
        prec = draw(st.integers(1, cfg.N))
        u = draw(st.integers(0, p ** (prec - 1) - 1)) * p + draw(st.integers(1, p - 1))
        return PadicNum(cfg, draw(st.integers(v_lo, 3)), u, prec)

    x = number()
    kind = draw(st.sampled_from(["independent", "negative", "near"]))
    if kind == "independent" or x.is_zero():
        return x, number()
    if kind == "negative":
        return x, _checked_neg(x)
    return x, _checked_add(_checked_neg(x), number(v_lo=x.v))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_padic_operands())
def test_unchecked_kernels_match_the_checked_path_property(pair):
    x, y = pair
    for got, want in ((x + y, _checked_add(x, y)), (y + x, _checked_add(y, x)),
                      (x - y, _checked_add(x, _checked_neg(y))), (-x, _checked_neg(x)),
                      (x * y, _checked_mul(x, y))):
        assert _valid(got)
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("p,N", [(2, 1), (2, 3), (2, 6), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3)])
def test_from_int_matches_the_checked_constructor(p, N):
    # from_int builds its result unchecked; it is the number the checked
    # constructor builds, for every n in [-p^(N+2), p^(N+2)] (the multiples
    # of p^N among them) and for a few far outside
    cfg = PadicConfig(p, N)
    bound = p ** (N + 2)
    for n in (*range(-bound, bound + 1), 10**30 + 1, -(10**30) - 1, 7 * p**40, -(p**41)):
        x = cfg.from_int(n)
        if n == 0:
            assert x is cfg.zero()
            continue
        v = val_int(n, p)
        assert _valid(x)
        assert _bits(x) == _bits(PadicNum(cfg, v, (n // p**v) % p**N, N)), n


def test_full_cancellation_is_exact_zero_at_each_prime():
    for p in (2, 3, 5):
        cfg = PadicConfig(p, 5)
        x = PadicNum(cfg, -1, p + 1, 3)
        assert _bits(x + (-x)) == _bits(cfg.zero()) == (INF, 0, 5)
        assert _bits(x - x) == (INF, 0, 5)
