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

The group action enters only through act_on_function and the cocycle; the
boundary maps never see the character.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .padics import INF, PadicConfig, PadicNum
from .projline import Ball, GL2, ProjPoint, moebius_apply, moebius_ball_image
from .tree import OrientedEdge, Vertex
from .orbits import OrbitRegistry, nonminimal_count_formula, verify_counts


class NotAnalyticError(ValueError):
    """The requested expansion is not a single power series on this disc."""


# ---------------------------------------------------------------------------
# characters and functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Character:
    """Integer-weight character of the diagonal torus: diag(a,d) -> (ad)^m1 d^m2."""

    m1: int
    m2: int

    def chi1(self, x: PadicNum) -> PadicNum:
        return x**self.m1

    def chi2(self, x: PadicNum) -> PadicNum:
        return x**self.m2

    def of_borel(self, g: GL2) -> PadicNum:
        """Value on an upper-triangular matrix (c-entry zero)."""
        assert g.c.is_zero()
        return self.chi1(g.a * g.d) * self.chi2(g.d)


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
        return all(c.is_zero() for c in self.coeffs)

    def __add__(self, other: "TruncFun") -> "TruncFun":
        assert self.ball == other.ball and len(self.coeffs) == len(other.coeffs)
        return TruncFun(self.cfg, self.ball, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "TruncFun":
        return TruncFun(self.cfg, self.ball, [-a for a in self.coeffs])

    def __sub__(self, other: "TruncFun") -> "TruncFun":
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, TruncFun):
            return NotImplemented
        return self.ball == other.ball and len(self.coeffs) == len(other.coeffs) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    __hash__ = None

    def __repr__(self):
        cs = ", ".join(c.serialize() for c in self.coeffs)
        return f"TruncFun({self.ball.id_str()}; [{cs}])"


def zero_fun(cfg: PadicConfig, ball: Ball, d: int) -> TruncFun:
    return TruncFun(cfg, ball, [cfg.zero()] * (d + 1))


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
    """Coefficients of t |-> t.g = (at + c)/(bt + d) on Z_p, to degree D.

    Requires the pole outside the unit disc (val b > val d), which holds
    exactly when the map carries Z_p into Z_p.
    """
    cfg = g.cfg
    if g.d.is_zero() or (not g.b.is_zero() and g.b.valuation <= g.d.valuation):
        raise NotAnalyticError("pole of the transition meets the unit disc")
    dinv = g.d.inverse()
    ratio = -(g.b * dinv)
    inv_den = [cfg.one()]
    for _ in range(D):
        inv_den.append(inv_den[-1] * ratio)
    inv_den = [dinv * x for x in inv_den]
    num = [g.c, g.a]
    return _series_mul(num, inv_den, D)


def _compose_poly(coeffs, sigma, D):
    """(f o sigma) to degree D for a polynomial f and series sigma."""
    cfg = coeffs[0].cfg
    out = [coeffs[-1]] + [cfg.zero()] * D
    for j in range(len(coeffs) - 2, -1, -1):
        out = _series_mul(out, sigma, D)
        out[0] = out[0] + coeffs[j]
    return out


def _int_binom(m: int, i: int) -> int:
    """binom(m, i) for any integer m (negative included); always an integer."""
    num = 1
    for t in range(i):
        num *= m - t
    for t in range(2, i + 1):
        num //= t
    return num


def _binomial_series(cfg: PadicConfig, a0: PadicNum, a1: PadicNum, e: int, D: int):
    """(a0 + a1 t)^e to degree D; needs val(a0)=0 and val(a1)>=1 to converge."""
    if a0.valuation != 0 or (not a1.is_zero() and a1.valuation < 1):
        raise NotAnalyticError("character factor is not analytic on this disc")
    ratio = a1 / a0
    lead = a0**e
    out = []
    power = cfg.one()
    for i in range(D + 1):
        b = _int_binom(e, i)
        out.append(lead * cfg.from_int(b) * power if b else cfg.zero())
        power = power * ratio
    return out


# ---------------------------------------------------------------------------
# restriction and the group action
# ---------------------------------------------------------------------------


def restrict(f: TruncFun, target: Ball) -> TruncFun:
    """Exact restriction onto a sub-disc, truncated to the same degree bound.

    For same-chart discs the transition is affine, degree is preserved and
    nothing is discarded; otherwise the transition series is composed exactly
    and the degree-d tail dropped.
    """
    if not target.subset(f.ball):
        raise ValueError(f"{target.id_str()} is not inside {f.ball.id_str()}")
    if target == f.ball:
        return f
    cfg = f.cfg
    trans = GL2.from_rows(cfg, target.param()) @ GL2.from_rows(cfg, f.ball.param()).inverse()
    return TruncFun(cfg, target, _pull_back(f.coeffs, trans, f.degree_bound))


def _pull_back(coeffs, trans: GL2, D: int):
    """Coefficients of t |-> f(t.trans) to degree D, for f with coefficients
    coeffs and a transition carrying Z_p into Z_p."""
    sigma = mobius_series(trans, D)
    assert all(c.is_zero() or c.valuation >= 0 for c in sigma)
    return _compose_poly(list(coeffs), sigma, D)


def registry_restrict(reg: OrbitRegistry, f: TruncFun, i: int, j: int) -> TruncFun:
    """Restriction used by the complex maps, of f on record i's disc to record
    j's: the composite of one-step restrictions along the chain of
    intermediate registry balls, which makes restriction functorial on the
    registry poset by construction."""
    out = f
    for b in reg.ball_chain(reg.ball_of[i], reg.ball_of[j])[1:]:
        out = restrict(out, reg.balls[b])
    return out


GUARD_DEGREES = 4


def act_on_function(g: GL2, chi: Character, f: TruncFun):
    """Twisted action of g on a truncated function over one of g's orbit discs.

    Expands chi1(det g) * chi2(cocycle) * f(x.g) in the disc coordinate to
    degree d + 4 and returns (degree-<=d part, min valuation of the discarded
    guard coefficients).  When chi.m2 == d the degree-<=d space is the
    algebraic representation Sym^d (x) det^m1, the composite is a polynomial
    of degree <= d and the guard is INF.  For any other m2 the space is not
    action-stable and the guard is the measured valuation of the tail; no
    bound on it is promised.  Defined on discs lying inside a single section
    branch (the closed unit disc, or its complement); elsewhere the cocycle
    twist is only piecewise analytic and NotAnalyticError is raised.
    """
    cfg = f.cfg
    ball = f.ball
    if moebius_ball_image(g, ball) != ball:
        raise ValueError("matrix does not preserve this disc")
    unit = Ball(cfg.p, False, Fraction(0), 0)
    inside = ball.subset(unit)
    if not (inside or ball.disjoint(unit)):
        raise NotAnalyticError("disc crosses the unit-circle section boundary")
    Mb = GL2.from_rows(cfg, ball.param())
    Mg = Mb @ g
    # (t, 1).Mb.g is (x, 1).g = (ax + c, bx + d) inside the closed unit disc
    # and (1, u).g = (a + cu, b + du) outside it; the cocycle is chi2 of the
    # second entry inside, and of the first outside, where the section flips
    a0, a1 = (Mg.d, Mg.b) if inside else (Mg.c, Mg.a)
    d = f.degree_bound
    D = d + GUARD_DEGREES
    twist = _binomial_series(cfg, a0, a1, chi.m2, D)
    const = chi.chi1(g.det())
    full = _series_mul(_pull_back(f.coeffs, Mg @ Mb.inverse(), D), twist, D)
    full = [const * c for c in full]
    guard_val = min((c.valuation for c in full[d + 1 :]), default=INF)
    return TruncFun(cfg, ball, full[: d + 1]), guard_val


def section_s(cfg: PadicConfig, z: ProjPoint) -> GL2:
    """The standard section of P^1 into the group: lower-unipotent on the unit
    disc, and the inverted branch outside."""
    if z.in_z_domain():
        return GL2(cfg, 1, 0, z.z_coord(), 1)
    u = cfg.zero() if z.is_infinity() else z.u_coord()
    return GL2(cfg, 0, -1, 1, u)


def cocycle_xi(cfg: PadicConfig, z: ProjPoint, g: GL2) -> GL2:
    """xi(z, g) = s(z) g s(z.g)^{-1}; always upper triangular (c-entry 0)."""
    xi = section_s(cfg, z) @ g @ section_s(cfg, moebius_apply(g, z)).inverse()
    assert xi.c.is_zero(), "cocycle left the Borel"
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

    def __init__(self, reg: OrbitRegistry, d: int, parts=None):
        self.reg = reg
        self.d = d
        self.parts = {}
        for i, fun in (parts or {}).items():
            self.set_part(i, fun)

    def set_part(self, i: int, fun: TruncFun):
        assert fun.degree_bound == self.d
        if fun.is_zero():
            self.parts.pop(i, None)
        else:
            self.parts[i] = fun

    def add_part(self, i: int, fun: TruncFun):
        if i in self.parts:
            self.set_part(i, self.parts[i] + fun)
        else:
            self.set_part(i, fun)

    def is_zero(self) -> bool:
        return not self.parts

    def __eq__(self, other):
        if not isinstance(other, Chain):
            return NotImplemented
        if set(self.parts) != set(other.parts):
            return False
        return all(self.parts[i] == other.parts[i] for i in self.parts)

    __hash__ = None


def _edge_sign(e: OrientedEdge, v: Vertex) -> int:
    return 1 if v == e.src else -1


# -- boundary maps -------------------------------------------------------------


def partial1(c1: Chain, reg: OrbitRegistry) -> Chain:
    """f on an oriented edge goes to +f at the source and -f at the target,
    written out per orbit: identity into the endpoint owning the orbit, exact
    restrictions into the q sub-orbits at the other endpoint."""
    out = Chain(reg, c1.d)
    for i, f in c1.parts.items():
        owner = reg.owner[i]
        s = _edge_sign(reg.records[i].simplex, reg.records[owner].simplex)
        out.add_part(owner, f if s == 1 else -f)
        for q in reg.edge_subs[i]:
            rf = registry_restrict(reg, f, i, q)
            out.add_part(q, -rf if s == 1 else rf)
    return out


def partial0(c0: Chain, reg: OrbitRegistry) -> Chain:
    """Sum of the components inside the space of piecewise functions, written
    on the common refinement by minimal-orbit discs."""
    out = Chain(reg, c0.d)
    for i, f in c0.parts.items():
        for m in reg.min_cover[i]:
            out.add_part(m, registry_restrict(reg, f, i, m))
    return out


def kernel_project(c0: Chain, reg: OrbitRegistry) -> Chain:
    """Drop the minimal components of a kernel element of the augmentation."""
    if not partial0(c0, reg).is_zero():
        raise ValueError("chain is not in the kernel of the augmentation")
    return Chain(reg, c0.d, {i: f for i, f in c0.parts.items() if not reg.minimal[i]})


def kernel_lift(nonmin: Chain, reg: OrbitRegistry) -> Chain:
    """Reconstruct the unique kernel element with the given non-minimal part:
    each minimal component is minus the sum of the restrictions of the
    strictly larger components, so the lift is nonmin - partial0(nonmin)."""
    assert not any(reg.minimal[i] for i in nonmin.parts), \
        "lift input must be supported off the minimal records"
    out = Chain(reg, nonmin.d, nonmin.parts)
    for m, f in partial0(nonmin, reg).parts.items():
        out.set_part(m, -f)
    return out


# -- the projected boundary matrix ---------------------------------------------


@dataclass
class BoundaryMatrix:
    """Square block matrix of the projected boundary map over the ordered
    non-minimal records; entries are 0, +-identity, or +-restriction."""

    reg: OrbitRegistry
    d: int
    order: list  # row -> non-minimal vertex record index, superset-first
    blocks: list  # (row, col, kind, sign) with kind in {"id", "res"}
    columns: list  # col -> edge record index

    @property
    def size(self) -> int:
        return len(self.order)

    def is_lower_triangular(self) -> bool:
        return all(row >= col for row, col, _, _ in self.blocks)

    def diag_signs(self):
        diag = {}
        for row, col, kind, sign in self.blocks:
            if row == col:
                assert kind == "id"
                assert row not in diag, "duplicate diagonal block"
                diag[row] = sign
        assert sorted(diag) == list(range(self.size)), "missing diagonal block"
        return [diag[i] for i in range(self.size)]

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
        """Matrix action: columns are the edge records under the owner bijection."""
        out = Chain(self.reg, self.d)
        for i, f in c1.parts.items():
            for t, kind, sign in self._edge_blocks[i]:
                g = f if kind == "id" else registry_restrict(self.reg, f, i, t)
                out.add_part(t, g if sign == 1 else -g)
        return out

    def to_json(self) -> dict:
        records = self.reg.records
        return {
            "order": [records[i].id_str() for i in self.order],
            "columns": [records[i].id_str() for i in self.columns],
            "blocks": self.structure(),
        }


def assemble_dbar1(reg: OrbitRegistry, d: int) -> BoundaryMatrix:
    """Assemble the projected boundary map block matrix.

    Columns are indexed by the non-minimal records through the edge-record
    bijection; the diagonal is +-identity with the orientation sign of the
    owning endpoint, and the off-diagonal blocks are signed restrictions into
    the strictly smaller orbits across the edge.
    """
    assert reg.n >= 1, "the truncated complex needs at least one edge layer"
    if reg.p == 2 and reg.k == 1:
        warnings.warn(
            "level (p, k) = (2, 1): the pro-p uniformity hypothesis behind the "
            "analytic interpretation fails; counting and linear algebra remain exact",
            RuntimeWarning,
            stacklevel=2,
        )
    counts = verify_counts(reg)
    if not counts["pass"]:
        raise AssertionError(f"registry counting certificates failed: {counts['counterexamples']}")
    order = list(reg.nonmin_order)
    row_of = {r: i for i, r in enumerate(order)}
    assert len(order) == nonminimal_count_formula(reg.p, reg.k, reg.n)
    blocks = []
    columns = [None] * len(order)
    for i in reg.edge_ids():
        owner = reg.owner[i]
        col = row_of[owner]
        assert columns[col] is None, "owner bijection collided"
        columns[col] = i
        s = _edge_sign(reg.records[i].simplex, reg.records[owner].simplex)
        blocks.append((col, col, "id", s))
        for q in reg.edge_subs[i]:
            if reg.minimal[q]:
                continue
            row = row_of[q]
            assert row > col, "total order failed to refine inclusion"
            blocks.append((row, col, "res", -s))
    mat = BoundaryMatrix(reg, d, order, blocks, columns)
    assert mat.is_lower_triangular()
    mat.diag_signs()
    return mat


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
    out = Chain(reg, d)
    for i, is_min in enumerate(reg.minimal):
        if is_min:
            out.set_part(i, random_truncfun(reg.cfg, reg.records[i].ball, d, rng))
    return out


def random_chain1(reg: OrbitRegistry, d: int, rng: random.Random) -> Chain:
    """A random degree-one chain: nonzero functions on 3 distinct edge records
    (all of them when the registry has fewer)."""
    ids = list(reg.edge_ids())
    out = Chain(reg, d)
    for i in rng.sample(ids, min(3, len(ids))):
        out.set_part(i, random_truncfun(reg.cfg, reg.records[i].ball, d, rng, nonzero=True))
    return out


def surjectivity_lift(target: Chain, reg: OrbitRegistry) -> Chain:
    """Constructive preimage of a piecewise function with minimal breaks:
    assign each piece to the record owning its disc, zero elsewhere."""
    out = Chain(reg, target.d)
    for i, f in target.parts.items():
        assert reg.minimal[i]
        assert reg.records[i].ball == f.ball
        out.set_part(i, f)
    return out


def verify_exactness(reg: OrbitRegistry, d: int, seed: int = 0) -> dict:
    """Certify the truncated complex at this level: trivial kernel in degree
    one, invertible triangular projected boundary, kernel dimension of the
    augmentation, and constructive surjectivity on 50 sampled targets, with
    a nonzero boundary on 100 sampled degree-one chains."""
    cfg = reg.cfg
    rng = random.Random(seed)
    checks = []
    counterexample = None

    def check(name, ok, detail=""):
        nonlocal counterexample
        checks.append({"name": name, "pass": bool(ok), "detail": detail})
        if not ok and counterexample is None:
            counterexample = {"check": name, "detail": detail}

    mat = assemble_dbar1(reg, d)
    r = nonminimal_count_formula(reg.p, reg.k, reg.n)
    check("block count r", mat.size == r, f"size={mat.size}, r={r}")
    check("lower triangular", mat.is_lower_triangular())
    signs = mat.diag_signs()
    check("diagonal is +-identity", all(s in (1, -1) for s in signs))

    # the assembled matrix is the projection of the degree-one boundary map
    consistent = True
    in_kernel = True
    kernel_witness = matrix_witness = ""
    for i in reg.edge_ids():
        rec = reg.records[i]
        for j in range(d + 1):
            c1 = Chain(reg, d, {i: monomial(cfg, rec.ball, j, d)})
            image = partial1(c1, reg)
            if not partial0(image, reg).is_zero():
                in_kernel = False
                kernel_witness = f"{rec.id_str()} degree {j}"
            projected = Chain(reg, d, {t: f for t, f in image.parts.items() if not reg.minimal[t]})
            if projected != mat.apply(c1):
                consistent = False
                matrix_witness = f"{rec.id_str()} degree {j}"
    check("boundary composite vanishes on a basis", in_kernel, kernel_witness)
    check("matrix equals projected boundary on a basis", consistent, matrix_witness)
    check("degree-one kernel trivial", consistent and all(s in (1, -1) for s in signs),
          "triangular with unit diagonal and equal to the projected boundary")

    # kernel of the augmentation: lift is a section of the projection
    lift_ok = True
    witness = ""
    for i, is_min in enumerate(reg.minimal):
        if is_min:
            continue
        rec = reg.records[i]
        for j in range(d + 1):
            basis = Chain(reg, d, {i: monomial(cfg, rec.ball, j, d)})
            lifted = kernel_lift(basis, reg)
            if not partial0(lifted, reg).is_zero() or kernel_project(lifted, reg) != basis:
                lift_ok = False
                witness = f"{rec.id_str()} degree {j}"
    check("kernel lift section", lift_ok, witness)

    min_inj = all(
        restrict(monomial(cfg, mr.ball, d, d), mr.ball) == monomial(cfg, mr.ball, d, d)
        for mr in reg.minimal_records()
    )
    check("augmentation faithful on minimal records", min_inj)

    dim_c1 = (d + 1) * len(reg.edge_ids())
    dims = {
        "C1": dim_c1,
        "C0": (d + 1) * sum(len(v) for v in reg.vertex_records.values()),
        "ker_partial0": (d + 1) * r,
        "r": r,
    }
    check("dim C1 = (d+1) r", dim_c1 == (d + 1) * r)

    surj_ok = True
    witness = ""
    for i in range(50):
        target = random_localfun(reg, d, rng)
        lifted = surjectivity_lift(target, reg)
        if partial0(lifted, reg) != target:
            surj_ok = False
            witness = f"sample {i}"
            break
    check("constructive surjectivity on sampled targets", surj_ok, witness)

    inj_ok = True
    witness = ""
    for i in range(100):
        c1 = random_chain1(reg, d, rng)
        if c1.is_zero():
            continue
        if partial1(c1, reg).is_zero():
            inj_ok = False
            witness = f"sample {i}"
            break
    check("degree-one boundary nonzero on sampled chains", inj_ok, witness)

    verdict = "exact" if all(c["pass"] for c in checks) else "failed"
    return {
        "params": {"p": reg.p, "k": reg.k, "n": reg.n, "d": d, "seed": seed},
        "dims": dims,
        "diag_signs": signs,
        "checks": checks,
        "verdict": verdict,
        **({"counterexample": counterexample} if counterexample else {}),
    }
