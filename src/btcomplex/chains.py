"""Truncated model of the coefficient-system chain complex.

Each orbit record carries the space of polynomials of degree <= d in the
canonical coordinate t of its disc, read off Ball.param (the normalized chart
coordinate for plain discs, and the reciprocal coordinate p^r/(x - center)
when the disc contains both 0 and infinity).  All maps of the complex are
restriction-built: a function moves onto a nested disc by exact power-series
composition with the Moebius transition of the coordinates, truncated back to
degree d.  Between discs sharing a chart the transition is affine and nothing
is discarded; across chart boundaries it is honestly nonlinear, and a single
truncated step would not compose.  The complex maps therefore route every
restriction through the chain of intermediate registry discs
(registry_restrict), which makes restriction functorial on the registry poset
by construction, so the telescoping identities of the complex cancel exactly.

Restriction and the group action are one pull-back, f |-> f o sigma for
sigma the series of a Moebius transition, and one kernel computes it:
_operator turns a transition matrix into the truncated linear map of
coefficient vectors (column j the truncated sigma^j), and _apply runs it,
the action with its twist multiplied into the rows.  sigma and the twist are
closed forms in the exact matrix entries, each coefficient converted once.
_apply sums each row exactly, on the integers (v, u, prec) of the PadicNums,
and truncates once, to the digits every term knows.  A restriction step's
transition is read off the two discs' Ball.param matrices (_transition); the
action's is the quotient of the disc chart composed with g by the chart.  The
complex maps walk the registry's ``routes`` table, (source disc, target
disc, d) -> ((disc, operator), ...), filled once from ball_chain: the route of two
adjacent discs is its one step, whose operator is built there from the step's
entry in the registry's ``transitions`` table, (source disc, target disc) ->
transition, and a longer route shares its steps' entries.  So each transition
is built once per (registry, step) and each operator once per (registry,
step, d), and both live and die with the registry.

Restriction commutes with negation bit for bit: negating every input
coefficient negates each row's exact sum in _apply and keeps its valuation
and precision, so the restriction of -f is the PadicNum negation of the
restriction of f.  The complex maps therefore negate an input part once and
restrict the negation, rather than negate each of its restrictions.

The group action enters only through act_on_function and the cocycle; the
boundary maps never see the character.
"""

from __future__ import annotations

import random
import warnings
from functools import cached_property
from math import comb

from .padics import INF, PadicConfig, _unit, val_fraction, val_int
from .projline import Ball, Frozen, GL2, ProjPoint, moebius_apply, moebius_ball_image
from .tree import OrientedEdge, Vertex
from .orbits import OrbitRegistry, nonminimal_count_formula


class NotAnalyticError(ValueError):
    """The requested expansion is not a single power series on this disc."""


# ---------------------------------------------------------------------------
# characters and functions
# ---------------------------------------------------------------------------


class Character(Frozen):
    """Integer-weight character of the Borel, read off its diagonal:
    [[a, b], [0, d]] -> (ad)^m1 d^m2.  It is its two weights; callers raise
    the entries to them."""

    __slots__ = ("m1", "m2")

    def __init__(self, m1: int, m2: int):
        object.__setattr__(self, "m1", m1)
        object.__setattr__(self, "m2", m2)

    def _fields(self) -> tuple:
        return (self.m1, self.m2)

    def __repr__(self):
        return f"Character(m1={self.m1!r}, m2={self.m2!r})"


class TruncFun:
    """Polynomial of degree <= d in the canonical coordinate t of a disc, the
    one for which t |-> t.M, M = GL2.from_rows(cfg, ball.param()), maps Z_p
    onto the ball."""

    __slots__ = ("cfg", "ball", "coeffs")

    def __init__(self, cfg: PadicConfig, ball: Ball, coeffs):
        self.cfg = cfg
        self.ball = ball
        self.coeffs = tuple(coeffs)

    @property
    def degree_bound(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        for c in self.coeffs:
            if c.v is not INF:
                return False
        return True

    # the registry shares one Ball per disc, so the ball checks below try
    # identity before equality

    def __add__(self, other: "TruncFun") -> "TruncFun":
        same_ball = self.ball is other.ball or self.ball == other.ball
        if not same_ball or len(self.coeffs) != len(other.coeffs):
            raise AssertionError("added functions differ in disc or degree")
        return TruncFun(self.cfg, self.ball, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "TruncFun":
        return TruncFun(self.cfg, self.ball, [-a for a in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, TruncFun):
            return NotImplemented
        same_ball = self.ball is other.ball or self.ball == other.ball
        return same_ball and len(self.coeffs) == len(other.coeffs) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    __hash__ = None

    def __repr__(self):
        cs = ", ".join(c.serialize() for c in self.coeffs)
        return f"TruncFun({self.ball.id_str()}; [{cs}])"


def monomial(cfg: PadicConfig, ball: Ball, j: int, d: int) -> TruncFun:
    coeffs = [cfg.zero()] * (d + 1)
    coeffs[j] = cfg.one()
    return TruncFun(cfg, ball, coeffs)


# ---------------------------------------------------------------------------
# power-series kernel
# ---------------------------------------------------------------------------


def _series_mul(a, b, D):
    cfg = a[0].cfg
    out = [cfg.zero()] * (D + 1)
    for i, ai in enumerate(a):
        if ai.is_zero() or i > D:
            continue
        for j, bj in enumerate(b):
            if i + j > D:
                break
            out[i + j] = out[i + j] + ai * bj
    return out


def mobius_series(g: GL2, D: int):
    """Coefficients of t |-> t.g = (at + c)/(bt + d) on Z_p to degree D, from
    c/d + det(g) t / (d (d + bt)): c/d, then det(g) (-b)^(i-1) / d^(i+1), each
    exact and converted once, so none loses a digit to a cancelling sum.
    Requires the pole off the unit disc (val b > val d), for the series to
    converge on Z_p; that it carries Z_p into Z_p, val(c/d) >= 0 and
    val(det/d^2) >= 0, is _operator's check."""
    cfg = g.cfg
    _, b, c, d = g.entries()
    if d == 0 or (b != 0 and val_fraction(b, cfg.p) <= val_fraction(d, cfg.p)):
        raise NotAnalyticError("pole of the transition meets the unit disc")
    series = [c / d]
    if D:
        series.append(g.det() / (d * d))
        ratio = -b / d
        for _ in range(D - 1):
            series.append(series[-1] * ratio)
    return [cfg.from_fraction(x) for x in series]


def _binom(e: int, i: int) -> int:
    """binom(e, i) for any integer e: (-1)^i binom(i - e - 1, i) when e < 0."""
    return comb(e, i) if e >= 0 else (-1) ** i * comb(i - e - 1, i)


# ---------------------------------------------------------------------------
# restriction and the group action
# ---------------------------------------------------------------------------


def restrict(f: TruncFun, target: Ball, *, op=None) -> TruncFun:
    """Exact restriction onto a sub-disc, truncated to the same degree bound.

    The restriction is the pull-back f |-> f o sigma to degree d along the
    transition of the two disc coordinates (_transition), applied as the
    matrix-vector product of its operator (_operator).  For same-chart discs
    sigma is affine, degree is preserved and nothing is discarded; otherwise
    the degree-d tail is dropped.  op is that operator; registry_restrict
    passes it from its registry's route table, and when it is omitted it is
    built here, on every call, by the same code.
    """
    if not target.subset(f.ball):
        raise ValueError(f"{target.id_str()} is not inside {f.ball.id_str()}")
    if target is f.ball or target.cell == f.ball.cell:
        return f
    if op is None:
        op = _operator(_transition(f.cfg, f.ball, target), f.degree_bound)
    return TruncFun(f.cfg, target, _apply(op, f.coeffs))


def _operator(trans: GL2, D: int, width: int | None = None):
    """The matrix of the pull-back f |-> f(t.trans) on polynomials of degree
    <= D, truncated to degree D: column j holds the coefficients of sigma^j,
    for sigma = mobius_series(trans, D).  The one place a transition becomes
    a linear map, for restriction steps and the group action alike.  Only
    the first width columns are built (all D + 1 by default): the action
    expands a degree-d function to degree D > d, and its coefficients past d
    are zero.  A transition whose series is not p-integral does not carry
    Z_p into Z_p and is refused.  Its powers are truncated PadicNum sums.
    Stored by rows, each the (j, entry) pairs of its nonzero entries."""
    sigma = mobius_series(trans, D)
    if not all(c.is_zero() or c.valuation >= 0 for c in sigma):
        raise ValueError("transition series is not p-integral: the map does not carry Z_p into Z_p")
    cfg = trans.cfg
    top = D if width is None else width - 1
    columns = [[cfg.one()] + [cfg.zero()] * D]
    for _ in range(top):
        columns.append(_series_mul(columns[-1], sigma, D))
    return tuple(tuple((j, columns[j][i]) for j in range(top, -1, -1) if not columns[j][i].is_zero())
                 for i in range(D + 1))


def _apply(op, coeffs):
    """The operator op applied to a coefficient vector: row i sums the terms
    entry * coeffs[j] of its (j, entry) pairs.  A term p^v u with u known mod
    p^prec is known mod p^(v + prec), so the sum is known mod p^K, K the
    least v + prec of its terms.  The terms are summed exactly on the
    integers (v, u, prec), at their least valuation, and the sum is reduced
    once, mod p^K: exact zero when no digit is left, else one PadicNum.  The
    entries are nonzero, as _operator stores them."""
    cfg = coeffs[0].cfg
    p = cfg.p
    zero = cfg.zero()
    out = []
    for row in op:
        av = INF  # the sum is p^av * acc; INF while no term has been seen
        for j, entry in row:
            c = coeffs[j]
            cv = c.v
            if cv is INF:
                continue
            bv = entry.v + cv
            bk = bv + (entry.prec if entry.prec < c.prec else c.prec)
            bu = entry.u * c.u
            if av is INF:
                av, acc, K = bv, bu, bk
                continue
            if bk < K:
                K = bk
            if bv < av:
                acc, av = acc * p ** (av - bv) + bu, bv
            else:
                acc += bu * p ** (bv - av)
        r = 0 if av is INF else acc % p ** (K - av)
        if r == 0:
            out.append(zero)
        elif r % p:
            out.append(_unit(cfg, av, r, K - av))
        else:
            k = val_int(r, p)
            out.append(_unit(cfg, av + k, r // p**k, K - av - k))
    return out


def _transition(cfg: PadicConfig, src: Ball, dst: Ball) -> GL2:
    """The coordinate change from src's canonical coordinate to dst's: the
    exact quotient of the two Ball.param matrices, dst's times the inverse
    of src's."""
    return GL2.quotient(cfg, dst.param(), src.param())


def _route(reg: OrbitRegistry, src: int, dst: int, D: int):
    """((target ball, operator), ...) along the chain of registry balls from
    ball src down to ball dst, to degree D, read off ball_chain once and kept
    in the registry's route table.  The route of two adjacent balls is its
    one step, whose operator is built here from the step's transition, read
    from the registry's transition table and built on its first use at any
    degree; a longer route joins its steps' routes and shares their entries.
    So each transition is built once per (registry, step) and each operator
    once per (registry, step, D).  The route from a ball to itself is empty."""
    key = (src, dst, D)
    route = reg.routes.get(key)
    if route is None:
        chain = reg.ball_chain(src, dst)
        if len(chain) == 2:
            step = (src, dst)
            trans = reg.transitions.get(step)
            if trans is None:
                trans = reg.transitions[step] = _transition(reg.cfg, reg.balls[src], reg.balls[dst])
            route = ((reg.balls[dst], _operator(trans, D)),)
        else:
            route = tuple(step for a, b in zip(chain, chain[1:]) for step in _route(reg, a, b, D))
        reg.routes[key] = route
    return route


def registry_restrict(reg: OrbitRegistry, f: TruncFun, i: int, j: int) -> TruncFun:
    """Restriction used by the complex maps, of f on record i's disc to record
    j's: the composite of one-step restrictions along the chain of
    intermediate registry balls, which makes restriction functorial on the
    registry poset by construction.  The chain and its operators come from
    the registry's route table (_route); every step is one restrict call."""
    out = f
    for target, op in _route(reg, reg.ball_of[i], reg.ball_of[j], f.degree_bound):
        out = restrict(out, target, op=op)
    return out


GUARD_DEGREES = 4


def act_on_function(g: GL2, chi: Character, f: TruncFun):
    """Twisted action of g on a truncated function over one of g's orbit discs.

    Expands det(g)^m1 * cocycle^m2 * f(x.g) in the disc coordinate to
    degree d + 4 and returns (degree-<=d part, min valuation of the discarded
    guard coefficients).  f(x.g) is the pull-back along the transition
    tau = Mb.g.Mb^-1 of g in the disc coordinate, by the operator restriction
    uses (_operator) to degree d + 4, of which only the d + 1 columns that
    meet f's coefficients are built.  The twist det(g)^m1 (a0 + a1 t)^m2,
    coefficient i det(g)^m1 binom(m2, i) a0^(m2-i) a1^i exact and converted
    once, multiplies the operator: row i holds the terms twist[i - k] *
    sigma^j[k] of column j, and one _apply sums each output exactly and
    truncates it once, so no pulled-back coefficient is truncated.  When
    chi.m2 == d the degree-<=d space is the algebraic representation
    Sym^d (x) det^m1, the composite is a polynomial of degree <= d and the
    guard is INF.  For any other m2 the space is not action-stable and the
    guard is the measured valuation of the tail; no bound on it is promised.
    Defined on discs lying inside a single section branch (the closed unit
    disc, or its complement); elsewhere the cocycle twist is only piecewise
    analytic and NotAnalyticError is raised.
    """
    cfg = f.cfg
    ball = f.ball
    if moebius_ball_image(g, ball) != ball:
        raise ValueError("matrix does not preserve this disc")
    unit = Ball(cfg, ("w", cfg.p, 0, True))  # P^1 minus the w-cell 0: { val z >= 0 }
    inside = ball.subset(unit)
    if not (inside or ball.disjoint(unit)):
        raise NotAnalyticError("disc crosses the unit-circle section boundary")
    Mg = GL2.from_rows(cfg, ball.param()) @ g  # Mb.g, Mb the disc's chart matrix
    # (t, 1).Mb.g is (x, 1).g = (ax + c, bx + d) inside the closed unit disc
    # and (1, u).g = (a + cu, b + du) outside it; the cocycle factor is the
    # m2-th power of the second entry inside, and of the first outside, where
    # the section flips
    a0, a1 = (Mg.d, Mg.b) if inside else (Mg.c, Mg.a)
    if val_fraction(a0, cfg.p) != 0 or (a1 and val_fraction(a1, cfg.p) < 1):
        raise NotAnalyticError("character factor is not analytic on this disc")
    d = f.degree_bound
    D = d + GUARD_DEGREES
    const = g.det() ** chi.m1
    twist = [cfg.from_fraction(const * _binom(chi.m2, i) * a0 ** (chi.m2 - i) * a1**i) for i in range(D + 1)]
    tau = GL2.quotient(cfg, ((Mg.a, Mg.b), (Mg.c, Mg.d)), ball.param())
    op = _operator(tau, D, d + 1)
    rows = [tuple((j, twist[i - k] * e) for k in range(i + 1) if not twist[i - k].is_zero() for j, e in op[k])
            for i in range(D + 1)]
    full = _apply(rows, f.coeffs)
    guard_val = min((c.valuation for c in full[d + 1 :]), default=INF)
    return TruncFun(cfg, ball, full[: d + 1]), guard_val


def section_s(cfg: PadicConfig, z: ProjPoint) -> GL2:
    """The standard section of P^1 into the group: lower-unipotent on the unit
    disc, and the inverted branch outside."""
    if z.in_z_domain():
        return GL2(cfg, 1, 0, z.z_coord(), 1)
    return GL2(cfg, 0, -1, 1, z.u_coord())


def cocycle_xi(cfg: PadicConfig, z: ProjPoint, g: GL2) -> GL2:
    """xi(z, g) = s(z) g s(z.g)^{-1}; always upper triangular (c-entry 0)."""
    xi = section_s(cfg, z) @ g @ section_s(cfg, moebius_apply(g, z)).inverse()
    if xi.c:
        raise AssertionError("cocycle left the Borel")
    return xi


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


class Chain:
    """Finitely supported assignment record index -> TruncFun over a registry.

    Degree-one chains live on edge records, degree-zero chains on vertex
    records, and the piecewise functions the augmentation lands in on the
    minimal records.
    """

    def __init__(self, d: int, parts=None):
        self.d = d
        self.parts = {}
        for i, fun in (parts or {}).items():
            self.set_part(i, fun)

    def set_part(self, i: int, fun: TruncFun):
        """Part i becomes fun, or is dropped when fun is zero.  The degree and
        zero tests are TruncFun's, inlined: this runs once per restriction
        the complex maps add up."""
        coeffs = fun.coeffs
        if len(coeffs) != self.d + 1:
            raise AssertionError(f"part of degree {len(coeffs) - 1} in a degree-{self.d} chain")
        for c in coeffs:
            if c.v is not INF:
                self.parts[i] = fun
                return
        self.parts.pop(i, None)

    def add_part(self, i: int, fun: TruncFun):
        old = self.parts.get(i)
        self.set_part(i, fun if old is None else old + fun)

    def is_zero(self) -> bool:
        return not self.parts

    def __eq__(self, other):
        if not isinstance(other, Chain):
            return NotImplemented
        if set(self.parts) != set(other.parts):
            return False
        theirs = other.parts
        return all(f is theirs[i] or f == theirs[i] for i, f in self.parts.items())

    __hash__ = None


def _edge_sign(e: OrientedEdge, v: Vertex) -> int:
    return 1 if v == e.src else -1


# -- boundary maps -------------------------------------------------------------


def partial1(c1: Chain, reg: OrbitRegistry) -> Chain:
    """f on an oriented edge goes to +f at the source and -f at the target,
    written out per orbit: identity into the endpoint owning the orbit, exact
    restrictions into the q sub-orbits at the other endpoint.  The sign is
    taken before restricting: f is negated once, not each of its q
    restrictions, with the same bits (see the module docstring)."""
    out = Chain(c1.d)
    for i, f in c1.parts.items():
        owner = reg.owner[i]
        s = _edge_sign(reg.records[i].simplex, reg.records[owner].simplex)
        out.add_part(owner, f if s == 1 else -f)
        g = -f if s == 1 else f
        for q in reg.edge_subs[i]:
            out.add_part(q, registry_restrict(reg, g, i, q))
    return out


def partial0(c0: Chain, reg: OrbitRegistry) -> Chain:
    """Sum of the components inside the space of piecewise functions, written
    on the common refinement by minimal-orbit discs.  A minimal record on
    record i's own disc takes f itself, which is what the empty route would
    return."""
    out = Chain(c0.d)
    ball_of = reg.ball_of
    for i, f in c0.parts.items():
        b = ball_of[i]
        for m in reg.min_cover[i]:
            out.add_part(m, f if ball_of[m] == b else registry_restrict(reg, f, i, m))
    return out


def kernel_project(c0: Chain, reg: OrbitRegistry) -> Chain:
    """Drop the minimal components of a kernel element of the augmentation."""
    if not partial0(c0, reg).is_zero():
        raise ValueError("chain is not in the kernel of the augmentation")
    return Chain(c0.d, {i: f for i, f in c0.parts.items() if not reg.minimal[i]})


def kernel_lift(nonmin: Chain, reg: OrbitRegistry) -> Chain:
    """Reconstruct the unique kernel element with the given non-minimal part:
    each minimal component is minus the sum of the restrictions of the
    strictly larger components, so the lift is nonmin + partial0(-nonmin).
    Each part is negated once before it is restricted, not each minimal
    part after, with the same bits (see the module docstring)."""
    if any(reg.minimal[i] for i in nonmin.parts):
        raise AssertionError("lift input must be supported off the minimal records")
    out = Chain(nonmin.d, nonmin.parts)
    negated = Chain(nonmin.d, {i: -f for i, f in nonmin.parts.items()})
    for m, f in partial0(negated, reg).parts.items():
        out.set_part(m, f)
    return out


# -- the projected boundary matrix ---------------------------------------------


class BoundaryMatrix:
    """Square block matrix of the projected boundary map over the ordered
    non-minimal records; entries are 0, +-identity, or +-restriction.  The
    same at every degree: a block is a kind and a sign, and apply restricts
    at the degree of its input."""

    def __init__(self, reg: OrbitRegistry, order: list, blocks: list, columns: list):
        self.reg = reg
        self.order = order  # row -> non-minimal vertex record index, superset-first
        self.blocks = blocks  # (row, col, kind, sign) with kind in {"id", "res"}
        self.columns = columns  # col -> edge record index

    @property
    def size(self) -> int:
        return len(self.order)

    def above_diagonal(self) -> str:
        """"block (<row>, <col>)" for the first block above the diagonal, in
        blocks order, or "" when the matrix is lower triangular."""
        return next((f"block ({row}, {col})" for row, col, _, _ in self.blocks if row < col), "")

    def is_lower_triangular(self) -> bool:
        return not self.above_diagonal()

    def diag_signs(self) -> list:
        """Per row, the sign of its diagonal block when that is exactly one
        identity block, else 0: a restriction, a second or a missing
        diagonal block reads 0."""
        diag = [[] for _ in self.order]
        for row, col, kind, sign in self.blocks:
            if row == col:
                diag[row].append(sign if kind == "id" else 0)
        return [signs[0] if len(signs) == 1 else 0 for signs in diag]

    def structure(self):
        rows = [{"row": r, "col": c, "kind": k, "sign": s} for r, c, k, s in self.blocks]
        rows.sort(key=lambda b: (b["row"], b["col"]))
        return rows

    @cached_property
    def _edge_blocks(self) -> dict:
        """Edge record index -> its column's (vertex record index, kind, sign)."""
        out = {}
        for row, col, kind, sign in self.blocks:
            out.setdefault(self.columns[col], []).append((self.order[row], kind, sign))
        return out

    def apply(self, c1: Chain) -> Chain:
        """Matrix action: columns are the edge records under the owner
        bijection.  Each part is negated once and a block of sign -1 takes
        or restricts the negation, with the same bits as negating each
        restriction (see the module docstring)."""
        out = Chain(c1.d)
        for i, f in c1.parts.items():
            neg = -f
            for t, kind, sign in self._edge_blocks[i]:
                g = f if sign == 1 else neg
                out.add_part(t, g if kind == "id" else registry_restrict(self.reg, g, i, t))
        return out

    def to_json(self) -> dict:
        records = self.reg.records
        return {
            "order": [records[i].id_str() for i in self.order],
            "columns": [records[i].id_str() for i in self.columns],
            "blocks": self.structure(),
        }


def assemble_dbar1(reg: OrbitRegistry) -> BoundaryMatrix:
    """Build the projected boundary map block matrix, the same at every
    degree.

    Rows are the non-minimal records in reg.nonmin_order; columns are the
    edge records, each in the row of its owner.  The diagonal block of an
    edge record is the identity with the orientation sign s of its owning
    endpoint, and its other blocks are restrictions, of sign -s, into the
    non-minimal records across the edge.  The builder refuses what leaves
    no square matrix to build: a registry without an edge layer, and an
    owner map that is not a bijection onto the non-minimal records (two
    edge records with one owner, or a non-minimal record that owns none).
    Everything else the exactness certificate relies on it leaves to
    verify_exactness's rows, which read the matrix as built: its size
    against the count formula, triangularity (above_diagonal) and the
    diagonal (diag_signs).
    """
    if reg.n < 1:
        raise AssertionError("the truncated complex needs at least one edge layer")
    if reg.p == 2 and reg.k == 1:
        warnings.warn(
            "level (p, k) = (2, 1): the pro-p uniformity hypothesis behind the "
            "analytic interpretation fails; counting and linear algebra remain exact",
            RuntimeWarning,
            stacklevel=2,
        )
    order = list(reg.nonmin_order)
    row_of = {r: i for i, r in enumerate(order)}
    blocks = []
    columns = [None] * len(order)
    for i in reg.edge_ids():
        owner = reg.owner[i]
        col = row_of[owner]
        if columns[col] is not None:
            raise AssertionError("owner bijection collided")
        columns[col] = i
        s = _edge_sign(reg.records[i].simplex, reg.records[owner].simplex)
        blocks.append((col, col, "id", s))
        for q in reg.edge_subs[i]:
            if not reg.minimal[q]:
                blocks.append((row_of[q], col, "res", -s))
    if None in columns:
        raise AssertionError("a non-minimal record owns no edge record")
    return BoundaryMatrix(reg, order, blocks, columns)


# ---------------------------------------------------------------------------
# exactness certificates
# ---------------------------------------------------------------------------


def random_truncfun(cfg: PadicConfig, ball: Ball, d: int, rng: random.Random,
                    nonzero: bool = False) -> TruncFun:
    span = cfg.p ** min(cfg.N, d + 4)
    while True:
        f = TruncFun(cfg, ball, [cfg.from_int(rng.randrange(span)) for _ in range(d + 1)])
        if not (nonzero and f.is_zero()):
            return f


def random_localfun(reg: OrbitRegistry, d: int, rng: random.Random) -> Chain:
    """A random piecewise function on the minimal records."""
    out = Chain(d)
    for i, is_min in enumerate(reg.minimal):
        if is_min:
            out.set_part(i, random_truncfun(reg.cfg, reg.records[i].ball, d, rng))
    return out


def random_chain1(reg: OrbitRegistry, d: int, rng: random.Random) -> Chain:
    """A random degree-one chain: nonzero functions on 3 distinct edge records
    (all of them when the registry has fewer)."""
    ids = reg.edge_ids()
    out = Chain(d)
    for i in rng.sample(ids, min(3, len(ids))):
        out.set_part(i, random_truncfun(reg.cfg, reg.records[i].ball, d, rng, nonzero=True))
    return out


def surjectivity_lift(target: Chain, reg: OrbitRegistry) -> Chain:
    """Constructive preimage of a piecewise function with minimal breaks:
    assign each piece to the record owning its disc, zero elsewhere."""
    out = Chain(target.d)
    for i, f in target.parts.items():
        if not reg.minimal[i]:
            raise AssertionError(f"record {i} of the target is not minimal")
        ball = reg.records[i].ball
        if f.ball is not ball and f.ball != ball:
            raise AssertionError(f"piece {i} of the target lives on another disc")
        out.set_part(i, f)
    return out


def verify_exactness(reg: OrbitRegistry, d: int, seed: int = 0) -> dict:
    """Certify that the truncated complex C1 -> C0 -> (piecewise functions on
    the minimal records) is exact at this level.  The report's checks, in
    order:

    * "block count r": the projected degree-one boundary matrix has one
      block per non-minimal record, r = nonminimal_count_formula(p, k, n);
    * "lower triangular": its blocks lie on or below the diagonal in the
      matrix's total order (BoundaryMatrix.above_diagonal);
    * "diagonal is +-identity": the diagonal of every row is exactly one
      +-identity block (BoundaryMatrix.diag_signs);
    * "boundary composite vanishes on a basis": partial0(partial1(c)) = 0
      for each monomial c of degree <= d on each edge record;
    * "matrix equals projected boundary on a basis": the matrix applied to
      each such c is partial1(c) with its minimal parts dropped;
    * "degree-one kernel trivial": the triangular, the diagonal and the
      matrix rows together, so the projected boundary is invertible and
      partial1 is injective;
    * "kernel lift section": for each monomial c on each non-minimal vertex
      record, kernel_lift(c) lies in ker partial0, has every part on its own
      record's disc and projects back to c, so the projection of ker partial0
      onto the non-minimal records is onto;
    * "augmentation faithful on minimal records": partial0 is the identity
      on the minimal records, so that projection is one-to-one;
    * "dim C1 = (d+1) r": the edge records number r, so C1 and the kernel
      of partial0 have the same dimension;
    * "constructive surjectivity on sampled targets": partial0 of
      surjectivity_lift(t) is t for 50 random piecewise functions t;
    * "degree-one boundary nonzero on sampled chains": partial1(c) is
      nonzero for 100 random nonzero degree-one chains c.

    The detail of a basis or sampled check is its witness, and "" means it
    passed: a basis check walks the whole basis and names the last element
    that fails it ("<record> degree <j>"); a sampled check names its first
    failing sample ("sample <i>") and draws no further.  "block count r"
    carries the matrix size and r, "lower triangular" the first block above
    the diagonal ("block (<row>, <col>)"), "degree-one kernel trivial" a
    fixed text, the other rows none.  The counterexample is the first
    failing row, its name and detail.

    The matrix is read as assemble_dbar1 built it.  The builder raises only
    where no square matrix exists: at n < 1, and when the owner map is not
    a bijection from the edge records onto the non-minimal records.  Its
    size, its triangularity and its diagonal are decided here, each by its
    row, and a failing one gives a "failed" report, not an error.  The
    counting certificates (orbits.verify_counts) are not run here.

    So the complex is exact.  partial0 is onto: it is the identity on the
    minimal records.  partial1 is injective and lands in ker partial0.  The
    projection of ker partial0 onto the non-minimal records is one-to-one
    and onto, so the image of partial1 is all of ker partial0, by the count
    dim ker partial0 = (d+1) r = dim C1.

    The argument does not depend on d.  So at d >= 1 an
    "exact" verdict certifies, beyond d = 0, two things only: every step
    operator exists (each transition is p-integral and its pole misses the
    disc), and the implementation agrees with that structure on every basis
    element.  How well degree <= d models functions on the discs is the
    group action's discarded tail (act_on_function's guard).

    The proof holds over Z_(p) and mod p as well.  On each disc take the
    lattice of polynomials of degree <= d with p-integral coefficients.
    Every map keeps it: _operator refuses a series that is not p-integral,
    and the other blocks are +-identities.  A triangular matrix with a
    +-identity diagonal is invertible over Z_(p), and partial0 is the
    identity on the minimal records, so the lattice complex is split exact
    over Z_(p) and its reduction mod p is exact.  The lattice is chosen per
    disc; no G-stable lattice is claimed."""
    cfg, records = reg.cfg, reg.records
    rng = random.Random(seed)
    checks = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "pass": bool(ok), "detail": detail})

    def basis(ids):
        """(witness, chain) for each monomial of degree <= d on each record in ids."""
        for i in ids:
            rec = records[i]
            for j in range(d + 1):
                yield f"{rec.id_str()} degree {j}", Chain(d, {i: monomial(cfg, rec.ball, j, d)})

    def first_failing(failures):
        """The witness of the first sample that fails, or ""."""
        return next((f"sample {i}" for i, failed in enumerate(failures) if failed), "")

    mat = assemble_dbar1(reg)
    r = nonminimal_count_formula(reg.p, reg.k, reg.n)
    check("block count r", mat.size == r, f"size={mat.size}, r={r}")
    above = mat.above_diagonal()
    check("lower triangular", not above, above)
    signs = mat.diag_signs()
    units = all(s in (1, -1) for s in signs)
    check("diagonal is +-identity", units)

    # the assembled matrix is the projection of the degree-one boundary map
    kernel = matrix = ""
    for witness, c1 in basis(reg.edge_ids()):
        image = partial1(c1, reg)
        if not partial0(image, reg).is_zero():
            kernel = witness
        if Chain(d, {t: f for t, f in image.parts.items() if not reg.minimal[t]}) != mat.apply(c1):
            matrix = witness
    check("boundary composite vanishes on a basis", not kernel, kernel)
    check("matrix equals projected boundary on a basis", not matrix, matrix)
    check("degree-one kernel trivial", not above and units and not matrix,
          "triangular with unit diagonal and equal to the projected boundary")

    # kernel of the augmentation: lift is a section of the projection, and
    # every part of the lift lies on its own record's disc (misplaced parts
    # can cancel in partial0, so the two equalities alone would not see them)
    lift = ""
    for witness, c0 in basis(i for i, is_min in enumerate(reg.minimal) if not is_min):
        lifted = kernel_lift(c0, reg)
        on_disc = all(f.ball is records[t].ball or f.ball == records[t].ball for t, f in lifted.parts.items())
        if not on_disc or not partial0(lifted, reg).is_zero() or kernel_project(lifted, reg) != c0:
            lift = witness
    check("kernel lift section", not lift, lift)

    # a function on one minimal record is that function on that record alone
    faithful = True
    for m, is_min in enumerate(reg.minimal):
        if is_min:
            f = monomial(cfg, records[m].ball, d, d)
            alone = Chain(d, {m: f})
            if restrict(f, f.ball) != f or partial0(alone, reg) != alone:
                faithful = False
    check("augmentation faithful on minimal records", faithful)

    dims = {"C1": (d + 1) * len(reg.edge_ids()), "C0": (d + 1) * len(reg.minimal),
            "ker_partial0": (d + 1) * r, "r": r}
    check("dim C1 = (d+1) r", dims["C1"] == (d + 1) * r)

    targets = (random_localfun(reg, d, rng) for _ in range(50))
    surj = first_failing(partial0(surjectivity_lift(t, reg), reg) != t for t in targets)
    check("constructive surjectivity on sampled targets", not surj, surj)
    sampled = (random_chain1(reg, d, rng) for _ in range(100))
    inj = first_failing(not c1.is_zero() and partial1(c1, reg).is_zero() for c1 in sampled)
    check("degree-one boundary nonzero on sampled chains", not inj, inj)

    failed = next(({"check": c["name"], "detail": c["detail"]} for c in checks if not c["pass"]), None)
    return {
        "params": {"p": reg.p, "k": reg.k, "n": reg.n, "d": d, "seed": seed},
        "dims": dims,
        "diag_signs": signs,
        "checks": checks,
        "verdict": "failed" if failed else "exact",
        **({"counterexample": failed} if failed else {}),
    }
