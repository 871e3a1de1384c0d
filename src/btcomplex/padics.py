"""Exact truncated arithmetic over Q_p, for the function spaces alone (the
coefficients and operators of chains, whose series are exact closed forms
converted once) and the digits written out; points and matrices are exact
rationals (projline), converted where needed.

A nonzero scalar is a valuation together with a unit residue: x = p^v * u,
where u is stored modulo p^prec and is invertible mod p.  Zero is a
distinguished value (valuation +infinity), never an underflowed unit.
Additions that cancel all stored digits return exact zero: every quantity
in this package is only ever interrogated far above the precision floor,
and the driver picks the working precision with guard digits to keep it
that way.  So two evaluation orders of one sum agree only modulo the
precision of its inputs.  Order matters where PadicNums are summed term by
term: chains._series_mul's powers sigma^j and chain sums of more than two
terms.  chains._apply sums each row exactly and truncates once.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf


class PrecisionError(ArithmeticError):
    """A result or query needs more p-adic digits than are stored."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def val_int(n: int, p: int):
    """p-adic valuation of an integer (INF for 0)."""
    if n == 0:
        return INF
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def val_fraction(x: Fraction, p: int):
    if x == 0:
        return INF
    return val_int(x.numerator, p) - val_int(x.denominator, p)


class PadicConfig:
    """Working context: the prime p and the stored precision N (digits per unit)."""

    __slots__ = ("p", "N", "_zero")

    def __init__(self, p: int, N: int):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if N < 1:
            raise ValueError(f"precision N must be >= 1, got {N}")
        self.p = p
        self.N = N
        self._zero = PadicNum(self, INF, 0, N)

    def __repr__(self):
        return f"PadicConfig(p={self.p}, N={self.N})"

    def __eq__(self, other):
        return isinstance(other, PadicConfig) and (self.p, self.N) == (other.p, other.N)

    def __hash__(self):
        return hash((self.p, self.N))

    def zero(self) -> "PadicNum":
        """The exact zero of this context, one object shared by every caller:
        nothing assigns a PadicNum's slots after it is built."""
        return self._zero

    def one(self) -> "PadicNum":
        return PadicNum(self, 0, 1, self.N)

    def from_int(self, n: int) -> "PadicNum":
        """n to full precision N, built by _unit: once the factors p are
        divided out, n is prime to p, so its residue mod p^N is a unit."""
        if n == 0:
            return self.zero()
        v = val_int(n, self.p)
        return _unit(self, v, (n // self.p**v) % self.p**self.N, self.N)

    def from_fraction(self, x: Fraction) -> "PadicNum":
        if x == 0:
            return self.zero()
        p = self.p
        vn = val_int(x.numerator, p)
        vd = val_int(x.denominator, p)
        mod = p**self.N
        un = (x.numerator // p**vn) % mod
        ud = (x.denominator // p**vd) % mod
        return PadicNum(self, vn - vd, un * pow(ud, -1, mod) % mod, self.N)


class PadicNum:
    """p^v * u with u known mod p^prec; exact zero has valuation INF."""

    __slots__ = ("cfg", "v", "u", "prec")

    def __init__(self, cfg: PadicConfig, v, u: int, prec: int):
        """Checks the invariant, so that no caller can build a non-unit: exact
        zero has unit part 0; otherwise 1 <= prec <= N and u is a unit mod
        p^prec.  The arithmetic below builds results that satisfy it by
        construction with _unit instead."""
        if v is INF:
            if u != 0:
                raise ValueError(f"exact zero must have unit part 0, got {u}")
        elif not 1 <= prec <= cfg.N:
            raise ValueError(f"precision {prec} outside 1..{cfg.N}")
        elif not (0 < u < cfg.p**prec and u % cfg.p != 0):
            raise ValueError(f"{u} is not a unit residue mod {cfg.p}^{prec}")
        self.cfg = cfg
        self.v = v
        self.u = u
        self.prec = prec

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.v is INF

    @property
    def valuation(self):
        return self.v

    def unit_residue(self, digits: int) -> int:
        """The unit part mod p^digits; raises if not stored to that depth."""
        if self.is_zero():
            raise PrecisionError("exact zero has no unit part")
        if digits > self.prec:
            raise PrecisionError(f"need {digits} unit digits, have {self.prec}")
        return self.u % self.cfg.p**digits

    def residue_class(self, m: int) -> Fraction:
        """Canonical representative of x mod p^m: 0, or p^v * (u mod p^(m-v))."""
        if self.is_zero() or self.v >= m:
            return Fraction(0)
        digits = m - self.v
        u = self.unit_residue(digits)
        if self.v >= 0:
            return Fraction(u * self.cfg.p**self.v)
        return Fraction(u, self.cfg.p ** (-self.v))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "PadicNum") -> "PadicNum":
        if self.v is INF:
            return other
        if other.v is INF:
            return self
        cfg = self.cfg
        p = cfg.p
        a, b = self, other
        if a.v > b.v:
            a, b = b, a
        # both known mod p^K, K = min(a.v + a.prec, b.v + b.prec); work at scale p^(a.v)
        digits = min(a.prec, b.v + b.prec - a.v)
        r = (a.u + b.u * p ** (b.v - a.v)) % p**digits
        if r == 0:
            # full cancellation of every stored digit: the zero of this precision
            return cfg.zero()
        c = val_int(r, p)
        # r < p^digits, so the unit r/p^c is already reduced mod p^(digits - c)
        return _unit(cfg, a.v + c, r // p**c, digits - c)

    def __neg__(self) -> "PadicNum":
        if self.v is INF:
            return self
        return _unit(self.cfg, self.v, (-self.u) % self.cfg.p**self.prec, self.prec)

    def __sub__(self, other: "PadicNum") -> "PadicNum":
        return self + (-other)

    def __mul__(self, other: "PadicNum") -> "PadicNum":
        cfg = self.cfg
        if self.v is INF or other.v is INF:
            return cfg.zero()
        prec = min(self.prec, other.prec)
        return _unit(cfg, self.v + other.v, (self.u * other.u) % cfg.p**prec, prec)

    def inverse(self) -> "PadicNum":
        if self.is_zero():
            raise ZeroDivisionError("division by exact p-adic zero")
        mod = self.cfg.p**self.prec
        return PadicNum(self.cfg, -self.v, pow(self.u, -1, mod), self.prec)

    # -- comparison & display -------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, PadicNum):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if self.v != other.v:
            return False
        d = min(self.prec, other.prec)
        p = self.cfg.p
        return self.u % p**d == other.u % p**d

    __hash__ = None  # truncated values are not reliable dict keys

    def serialize(self) -> str:
        """'vV:uDDDD' with unit digits little-endian base p; zero is 'vinf:u0'."""
        if self.is_zero():
            return "vinf:u0"
        digits = []
        u = self.u
        for _ in range(self.prec):
            u, d = divmod(u, self.cfg.p)
            digits.append(str(d))
        while len(digits) > 1 and digits[-1] == "0":
            digits.pop()
        return f"v{self.v}:u{''.join(digits)}"

    def __repr__(self):
        return f"PadicNum({self.cfg.p}-adic {self.serialize()})"


_new = object.__new__


def _unit(cfg: PadicConfig, v: int, u: int, prec: int) -> PadicNum:
    """p^v * u for a u already known to be a unit reduced mod p^prec, with
    1 <= prec <= N: the results of the arithmetic, of from_int and of the
    integer matrix-vector product (chains._apply), built without
    PadicNum.__init__'s re-check."""
    x = _new(PadicNum)
    x.cfg = cfg
    x.v = v
    x.u = u
    x.prec = prec
    return x
