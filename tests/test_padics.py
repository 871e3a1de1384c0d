import random
from fractions import Fraction

import pytest

from btcomplex.padics import INF, PadicConfig, PrecisionError


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
    assert a / b == cfg.from_fraction(Fraction(10, 4))
    with pytest.raises(TypeError):
        a % b  # no operation beyond the four field operations


def test_division_by_zero(cfg):
    with pytest.raises(ZeroDivisionError):
        cfg.one() / cfg.zero()


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


def test_pow_and_inverse(cfg):
    x = cfg.from_fraction(Fraction(7, cfg.p))
    assert x**0 == cfg.one()
    assert x**3 == x * x * x
    assert x**-2 == (x * x).inverse()
    assert x * x.inverse() == cfg.one()


def test_serialize_round_trip():
    rng = random.Random(3)
    for p in (2, 3, 5):
        cfg = PadicConfig(p, 10)
        for _ in range(300):
            q = Fraction(rng.randrange(-500, 500), rng.choice([1, p, p**2, 7]))
            x = cfg.from_fraction(q)
            assert cfg.parse(x.serialize()) == x
        assert cfg.parse("vinf:u0").is_zero()
        assert cfg.parse("17/5") == cfg.from_fraction(Fraction(17, 5))
        assert cfg.parse("-12") == cfg.from_int(-12)


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
