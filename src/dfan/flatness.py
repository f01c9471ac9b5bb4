"""Constructive flatness machinery: monomial ideals of the toric
coordinate ring, the coordinate-colon filtration chain, the syzygy
normalization behind flatness of the Rees ring over the W-polynomials,
and the flat-decomposition certifier that splits a filtered module
element into cone-shifted module pieces.

The certifier follows the proof pipeline: homogenize and divide by a
simultaneous standard basis, peel the top stratum of the first ray form,
split the stratum quotients along the Newton-diagram regions of the
remaining ideal coordinates, and close with the complementary piece.  All
claimed invariants (sum, filtration membership, module membership) are
machine-checked before a certificate is returned, and certificates replay
bit-identically from their recorded inputs."""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import add

from ._linalg import in_row_space, rref, vanishing_part, vanishing_rows
from .fan import FanCone
from .errors import (
    CertificateError,
    ConeError,
    DfanError,
    MembershipInconclusive,
    ResourceBoundExceeded,
    SemanticError,
    SyntaxErrorWithPos,
    ZeroInputError,
)
from .filtration import in_V_gamma
from .grammar import (
    SYZYGY,
    format_factors,
    format_op,
    format_sum,
    format_vec,
    format_w_monomials,
    parse_sum,
)
from .toric import MAX_BOX_POINTS, BasicCone, cone_drops
from .weights import LinearForm, ord_L_vec, symbol_L
from .weyl import (
    DtVec,
    WeylVec,
    _term_times_flat,
    accumulate,
    content_free,
    dehomogenize,
    homogenize_vec,
    monomial_multiples,
    multi_weight,
    t_power_times,
)

# Most steps of one monomial_filtration chain.
MAX_CHAIN_STEPS = 10_000

# ---------------------------------------------------------------------------
# monomial ideals of Q[W]


class MonomialIdeal:
    """Monomial ideal of Q[W_1..W_k], kept as its minimal generators."""

    __slots__ = ("k", "gens")

    def __init__(self, k: int, exponents):
        self.k = k
        gens = []
        for e in sorted(tuple(int(c) for c in e) for e in exponents):
            if len(e) != k or any(c < 0 for c in e):
                raise SemanticError(f"bad monomial exponent {e}")
            if not any(all(x >= y for x, y in zip(e, g)) for g in gens):
                gens = [g for g in gens if not all(x >= y for x, y in zip(g, e))]
                gens.append(e)
        self.gens = tuple(sorted(gens))

    def contains(self, e) -> bool:
        return any(all(x >= y for x, y in zip(e, g)) for g in self.gens)

    def is_unit(self) -> bool:
        return self.gens == ((0,) * self.k,)

    def colon(self, m) -> "MonomialIdeal":
        """(H : W^m) by componentwise exponent arithmetic."""
        return MonomialIdeal(
            self.k,
            (tuple(max(g[i] - m[i], 0) for i in range(self.k)) for g in self.gens),
        )

    def plus_monomial(self, m) -> "MonomialIdeal":
        return MonomialIdeal(self.k, self.gens + (tuple(m),))

    def coordinate_set(self):
        """The subset J when this is a coordinate ideal W_J, else None.
        The zero ideal is the empty coordinate ideal."""
        js = []
        for g in self.gens:
            if sum(g) != 1:
                return None
            js.append(g.index(1) + 1)
        return tuple(sorted(js))

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.k == other.k
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.k, self.gens))

    def __repr__(self):
        return f"MonomialIdeal(k={self.k}, gens={list(self.gens)})"

    def format(self) -> str:
        if not self.gens:
            return "(0)"
        return "(" + format_w_monomials(self.gens) + ")"


@dataclass(frozen=True)
class ChainStep:
    monomial: tuple
    J: tuple
    colon: MonomialIdeal


@dataclass
class FiltrationChain:
    """H = H_0 < H_1 < ... < H_len = (1) with coordinate colon quotients."""

    start: MonomialIdeal
    steps: tuple

    def verify(self) -> None:
        h = self.start
        for st in self.steps:
            if h.contains(st.monomial):
                raise DfanError("chain monomial already in the ideal")
            colon = h.colon(st.monomial)
            if colon != st.colon:
                raise DfanError("recorded colon certificate mismatch")
            if colon.coordinate_set() != st.J:
                raise DfanError("colon is not the recorded coordinate ideal")
            h = h.plus_monomial(st.monomial)
        if not h.is_unit():
            raise DfanError("chain does not reach the unit ideal")


def monomial_filtration(H: MonomialIdeal) -> FiltrationChain:
    """Greedy chain construction: at each step pick the first monomial
    outside the ideal (by total degree, then lex, inside the componentwise
    generator-degree box) whose colon is a coordinate ideal.  Capping at
    the box loses nothing: colons are constant beyond it.  Raises
    ResourceBoundExceeded before a step whose box holds more than
    MAX_BOX_POINTS points, and before step MAX_CHAIN_STEPS + 1."""
    if H.is_unit():
        return FiltrationChain(H, ())
    steps = []
    h = H
    from itertools import product

    while not h.is_unit():
        if len(steps) >= MAX_CHAIN_STEPS:
            raise ResourceBoundExceeded(
                f"the filtration chain exceeded {MAX_CHAIN_STEPS} steps",
                cap="MAX_CHAIN_STEPS",
                limit=MAX_CHAIN_STEPS,
                observed=len(steps) + 1,
            )
        box = tuple(
            max((g[i] for g in h.gens), default=0) for i in range(h.k)
        )
        points = prod(b + 1 for b in box)
        if points > MAX_BOX_POINTS:
            raise ResourceBoundExceeded(
                f"the filtration chain would scan {points} monomials "
                f"(exponents up to {list(box)}), over the cap of {MAX_BOX_POINTS}",
                cap="MAX_BOX_POINTS",
                limit=MAX_BOX_POINTS,
                observed=points,
            )
        candidates = sorted(
            (e for e in product(*(range(b + 1) for b in box))),
            key=lambda e: (sum(e), e),
        )
        for m in candidates:
            if h.contains(m):
                continue
            colon = h.colon(m)
            J = colon.coordinate_set()
            if J is not None:
                steps.append(ChainStep(m, J, colon))
                h = h.plus_monomial(m)
                break
        else:
            raise DfanError("no socle-style monomial found (unexpected)")
    chain = FiltrationChain(H, tuple(steps))
    chain.verify()
    return chain


def offsets(a_i, a_p):
    """Minimal (v, w) in N^k with a_i + v = a_p + w, componentwise."""
    v = tuple(max(p - i, 0) for i, p in zip(a_i, a_p))
    w = tuple(max(i - p, 0) for i, p in zip(a_i, a_p))
    return v, w


# ---------------------------------------------------------------------------
# operators in the (X, Delta, W) coordinates of a cone context, held as
# term dicts (alpha, beta, ell) -> coef with ell in N^k


def w_shift(terms: dict, v) -> dict:
    """The terms of W^v times the operator; W is central, so only the ell
    of each key moves (v may have negative entries if every term stays in
    N^k)."""
    out = {}
    for (a, b, l), c in terms.items():
        nl = tuple(map(add, l, v))
        if any(x < 0 for x in nl):
            raise SemanticError("W-shift leaves the polynomial range")
        out[(a, b, nl)] = c
    return out


def parse_w_op(text: str, n: int, k: int) -> dict:
    """Parse the x/d/w grammar for cone-coordinate operators."""
    try:
        terms = parse_sum(text, SYZYGY)
    except SyntaxErrorWithPos as exc:
        # a q: line's text arrives without its line number
        raise SemanticError(exc.message) from None
    out = []
    for coef, factors in terms:
        alpha, beta, ell = [0] * n, [0] * n, [0] * k
        for head, idx, e in factors:
            exps = alpha if head == "x" else beta if head == "d" else ell
            if not 1 <= idx <= len(exps):
                raise SemanticError(f"{head}{idx} out of range")
            exps[idx - 1] += e
        out.append(((tuple(alpha), tuple(beta), tuple(ell)), coef))
    return accumulate({}, out)


def format_w_op(terms: dict) -> str:
    return format_sum(
        (terms[key], format_factors(SYZYGY, key))
        for key in sorted(terms, key=lambda key: (sum(map(sum, key)), key))
    )


@dataclass
class SyzygyNormalization:
    """The per-region rewrite of a W-monomial syzygy: operators R[i][p],
    p <= i, with Q_i = sum_p W^(v_ip) R_ip and, for each region p, the
    exact cancellation sum_(i>=p) W^(w_ip) R_ip = 0, where
    (v_ip, w_ip) = offsets(a_i, a_p)."""

    a: tuple
    matrix: dict  # (i, p) -> terms of R_ip

    def verify(self, q_list) -> None:
        rows = [{} for _ in q_list]
        regions = [{} for _ in self.a]
        for (i, p), rip in self.matrix.items():
            v, w = offsets(self.a[i], self.a[p])
            accumulate(rows[i], w_shift(rip, v).items())
            accumulate(regions[p], w_shift(rip, w).items())
        for i, (row, q) in enumerate(zip(rows, q_list)):
            if row != q:
                raise DfanError(f"row {i}: sum of region parts differs from Q_i")
        for p, region in enumerate(regions):
            if region:
                raise DfanError(f"region {p}: cancellation identity fails")


def kernel_normalize(a_list, q_list) -> SyzygyNormalization:
    """Split a syzygy sum_i W^(a_i) Q_i = 0 along the disjoint-region
    partition of the W-lattice and factor each part as W^(v_ip) R_ip.
    The per-region identities then rewrite the corresponding tensor to
    zero, which is the constructive content of flatness of the Rees ring
    over the W-polynomials."""
    r = len(a_list)
    if r != len(q_list) or r == 0:
        raise SemanticError("need matching nonempty exponent/operator lists")
    a_list = tuple(tuple(int(c) for c in a) for a in a_list)
    # the defining relation must hold exactly
    total = {}
    for a, q in zip(a_list, q_list):
        accumulate(total, w_shift(q, a).items())
    if total:
        raise SemanticError("the syzygy relation does not hold")

    def region(point):
        for p in range(r):
            if all(x >= y for x, y in zip(point, a_list[p])):
                return p
        raise DfanError("lattice point outside every region")

    matrix = {}
    for i, q in enumerate(q_list):
        buckets: dict = {}
        for key, c in q.items():
            point = tuple(x + y for x, y in zip(key[2], a_list[i]))
            p = region(point)
            if p > i:
                raise DfanError("region index exceeds the row index")
            buckets.setdefault(p, {})[key] = c
        for p, terms in sorted(buckets.items()):
            v, _ = offsets(a_list[i], a_list[p])
            matrix[(i, p)] = w_shift(terms, tuple(-x for x in v))
    out = SyzygyNormalization(a_list, matrix)
    out.verify(q_list)
    return out


# ---------------------------------------------------------------------------
# the flat-decomposition certifier


class _Frame:
    """The regions of the coordinate ideal W_J (J nonempty) in the cone
    Gamma at degree s.  The rows are Gamma's with the ideal coordinates
    first; the inverse of a row-permuted matrix is the inverse with its
    columns permuted alike, so the columns C_j of the ideal coordinates are
    Gamma's.  Region j is V^Gamma at s - C_j."""

    __slots__ = ("rows", "columns", "degrees")

    def __init__(self, gamma: BasicCone, J, s):
        J = tuple(sorted(set(J)))
        k = gamma.k
        if not J or any(not 1 <= j <= k for j in J):
            raise ConeError(f"ideal coordinates {J} out of range")
        order = [j - 1 for j in J] + [j for j in range(k) if j + 1 not in J]
        self.rows = tuple(gamma.rows[j] for j in order)
        self.columns = tuple(gamma.columns[j - 1] for j in J)
        self.degrees = tuple(
            tuple(x - c for x, c in zip(s, col)) for col in self.columns
        )

    def fits(self, delta):
        """For each region, whether a term of multiweight delta lies in it."""
        return [min(cone_drops(self.rows, d, delta)) >= 0 for d in self.degrees]

    def admits(self, Q: WeylVec) -> bool:
        """Whether every term of Q lies in some region."""
        return all(any(self.fits(w)) for _, w in Q.weights(Q.ring.k))


def in_ideal_piece(Q: WeylVec, s, gamma: BasicCone, J) -> bool:
    """Whether Q lies in the graded piece at s of W_J times the free
    module, which is decided term by term: every term of Q in some region
    of the frame."""
    return _Frame(gamma, J, s).admits(Q)


@dataclass
class FlatCertificate:
    """Witness that Q u^s lies in the ideal times the Rees submodule: the
    decomposition Q = sum Q'_j with every piece in the cone filtration at
    s - C_j and in the module."""

    Q: WeylVec
    s: tuple
    gamma: BasicCone
    J: tuple
    pieces: tuple  # aligned with J's frame order
    t_power: int
    quotients: tuple
    split: tuple  # ((m, key, coef, j) ...) audit of the stratum split
    member_powers: tuple
    fan_cone: FanCone  # its basis divides every piece
    l_max: int | None = None  # the membership search bound

    def verify(self) -> tuple:
        """Check every claimed invariant; returns the member powers, the
        least t-power l <= ``l_max`` of each piece's membership (0 for a
        zero piece)."""
        degrees = _Frame(self.gamma, self.J, self.s).degrees
        total = WeylVec(self.Q.ring)
        for piece in self.pieces:
            total = total + piece
        if total != self.Q:
            raise CertificateError("pieces do not sum to the input")
        powers = []
        for j, piece in enumerate(self.pieces):
            if piece.is_zero():
                powers.append(0)
                continue
            if not in_V_gamma(piece, degrees[j], self.gamma):
                raise CertificateError(
                    f"piece {j + 1} leaves the cone filtration"
                )
            check = self.fan_cone.basis.member(piece, self.l_max)
            if not check.is_member:
                raise MembershipInconclusive(
                    f"piece {j + 1} has inconclusive module membership",
                    check.l_max,
                )
            powers.append(check.l)
        return tuple(powers)

    def replay(self) -> "FlatCertificate":
        return flat_decompose(
            self.Q, self.s, self.gamma, self.J, self.fan_cone, l_max=self.l_max
        )

    def to_report(self) -> dict:
        return {
            "input": format_vec(self.Q),
            "degree": list(self.s),
            "cone": [list(r) for r in self.gamma.rows],
            "ideal": list(self.J),
            "t_power": self.t_power,
            "pieces": [format_vec(p) for p in self.pieces],
            "piece_degrees": [
                list(d) for d in _Frame(self.gamma, self.J, self.s).degrees
            ],
            "quotients": [format_op(a) for a in self.quotients],
            "split": [
                {"m": m, "key": [list(key[0]), list(key[1]), key[2]], "coef": str(c), "j": j}
                for (m, key, c, j) in self.split
            ],
            "member_powers": list(self.member_powers),
        }


def flat_decompose(
    Q: WeylVec,
    s,
    gamma: BasicCone,
    J,
    fan_cone: FanCone,
    l_max: int | None = None,
) -> FlatCertificate:
    """Execute the decomposition pipeline for the coordinate ideal W_J.

    Q must lie in the graded piece at s of W_J times the free module
    (``in_ideal_piece``).  The closure of ``fan_cone`` must contain the
    cone; its basis is then a simultaneous standard basis valid on the
    cone, whose division checks the L-order bound for its order's weight
    and for every row form of the cone.  Both hypotheses are checked up
    front."""
    ring = Q.ring
    if Q.is_zero():
        raise ZeroInputError("nothing to decompose")
    s = tuple(int(c) for c in s)
    frame = _Frame(gamma, J, s)
    p = len(frame.degrees)
    if not fan_cone.closure_contains(frame.rows):
        raise CertificateError("cone is not included in the closure of the fan cone")
    if not frame.admits(Q):
        raise CertificateError("a term of the input fits no ideal region")
    basis = fan_cone.basis
    mem = basis.member(Q, l_max)
    if not mem.is_member:
        raise MembershipInconclusive(
            f"module membership of the input is inconclusive up to t^{mem.l_max}",
            mem.l_max,
        )
    # the L-order bounds of the division are machine-checked for every ray
    row_forms = [LinearForm(r) for r in frame.rows]
    ell = mem.l
    G = t_power_times(homogenize_vec(Q), ell)
    division = basis.divide(G, row_forms)
    if not division.remainder.is_zero():
        raise CertificateError(
            "division leaves a remainder: the basis does not span the module"
        )
    L1 = row_forms[0]
    d_top = L1.of(s)
    if ord_L_vec(G, L1) > d_top:
        raise CertificateError("input exceeds the stated filtration degree")
    splits = []
    r_pieces = [{} for _ in range(p)]  # the terms of each region's sum
    for m, (a_m, h_m) in enumerate(zip(division.quotients, basis.elements)):
        if a_m.is_zero():
            continue
        d1m = ord_L_vec(h_m, L1)
        try:
            top = symbol_L(a_m, L1, d_top - d1m)
        except DfanError as exc:
            raise CertificateError(f"quotient {m} breaks the order bound: {exc}")
        if top.is_zero():
            continue
        w_m = multi_weight(basis.exponents[m], ring.shifts, ring.k)
        for key, delta in sorted(top.weights(ring.k)):
            coef = top.terms[key]
            fits = frame.fits(tuple(map(add, delta, w_m)))
            if not any(fits[1:]):
                raise CertificateError(
                    f"stratum term {key} of quotient {m} fits no ideal region"
                )
            j = fits.index(True, 1)
            splits.append((m, key, coef, j))
            _term_times_flat(key, coef, h_m.terms, True, r_pieces[j])
    pieces = [None] * p
    rest = Q
    for j in range(1, p):
        pieces[j] = dehomogenize(DtVec(ring, r_pieces[j]))
        rest = rest - pieces[j]
    pieces[0] = rest
    cert = FlatCertificate(
        Q=Q,
        s=s,
        gamma=gamma,
        J=tuple(sorted(set(J))),
        pieces=tuple(pieces),
        t_power=ell,
        quotients=tuple(division.quotients),
        split=tuple(splits),
        member_powers=(),
        fan_cone=fan_cone,
        l_max=l_max,
    )
    cert.member_powers = cert.verify()
    return cert


# ---------------------------------------------------------------------------
# the independent intersection oracle


@dataclass
class OracleResult:
    equal: bool
    lhs_dim: int
    rhs_dim: int
    counterexample: WeylVec | None
    elements: tuple  # basis of the intersection, as module vectors
    slack: int


def intersection_oracle(
    generators,
    gamma: BasicCone,
    J,
    s,
    degree_bound: int,
) -> OracleResult:
    """Compare, degree by degree up to a truncation bound, the graded
    piece of (ideal times free Rees module) intersected with the module
    against the ideal times the module's Rees submodule.  Pure linear
    algebra over the generators; independent of every standard-basis
    route.

    The module is spanned by the products x^a d^b g of the content-free
    generators, one integer row each.  A term is bad for the left-hand
    side when it is over the bound or in no region, and bad for region j
    when it is over the bound or outside region j.  One elimination with
    the bad keys numbered first (``vanishing_part``) gives the left-hand
    side.  A term bad for it is bad for every region, so each right-hand
    piece is cut from that small result.  Both sides end in RREF over the
    key order, which is unique, so neither the route nor a positive scale
    of a generator moves the elements.

    Both verdicts are relative to the truncation: ``degree_bound`` on
    element degree, and the multiplier room that spans the module.  Two
    or more generators span with the recorded ``slack`` of extra room,
    two above the largest generator degree: their symbols have syzygies,
    so a product of higher degree can cancel down to the bound.  One
    generator g spans with room ``degree_bound - deg g`` and no padding,
    and its verdict is exact at ``degree_bound`` whatever ``slack`` reads:

    - under the Bernstein filtration the symbol is multiplicative,
      sigma(x^a d^b g) = x^a xi^b sigma(g);
    - for F = sum c_ab x^a d^b g, let M be the largest |a| + |b| with
      c_ab != 0.  The degree-(M + deg g) part of F is
      (sum over |a| + |b| = M of c_ab x^a xi^b) sigma(g), which is
      nonzero because Q[x, xi] is a domain and sigma(g) has a nonzero
      component;
    - so an F with no term above ``degree_bound`` uses only multipliers
      with |a| + |b| <= ``degree_bound - deg g``, and the left-hand space,
      its RREF, the regions' cuts, the right-hand side and the
      counterexample are the ones the padded room gives.

    This holds for any rank and shifts, because the bound is read on the
    unshifted |alpha| + |beta|; a negative room spans nothing."""
    ring = generators[0].ring
    s = tuple(int(c) for c in s)
    frame = _Frame(gamma, J, s)
    p = len(frame.degrees)
    slack = max(g.total_degree() for g in generators) + 2
    pad = slack if len(generators) > 1 else 0
    # integer products (monomial * generator) up to the spanning bound
    products = [
        mult
        for g in map(content_free, generators)
        for mult in monomial_multiples(g, degree_bound + pad - g.total_degree())
    ]
    keys = sorted({key for prod in products for key in prod})

    # per key, the regions it lies in; none when over the bound
    fits = [
        frame.fits(multi_weight(key, ring.shifts, ring.k))
        if sum(key[0]) + sum(key[1]) <= degree_bound
        else [False] * p
        for key in keys
    ]
    bad_any = [idx for idx, f in enumerate(fits) if not any(f)]
    bad_per_j = [[idx for idx, f in enumerate(fits) if not f[j]] for j in range(p)]
    # one column numbering, bad-first: key index order[c] sits at column c
    order = bad_any + [idx for idx, f in enumerate(fits) if any(f)]
    column = {keys[idx]: c for c, idx in enumerate(order)}
    rows = [{column[key]: x for key, x in prod.items()} for prod in products]
    lhs = vanishing_part(rows, len(bad_any), order)
    rhs, rhs_piv = rref([row for bad in bad_per_j for row in vanishing_rows(lhs, bad)])
    lhs_red, _ = rref(lhs)

    def to_vec(row) -> WeylVec:
        return WeylVec(ring, {keys[idx]: c for idx, c in row.items()})

    counterexample = next(
        (to_vec(v) for v in lhs_red if not in_row_space(rhs, rhs_piv, v)), None
    )
    return OracleResult(
        equal=counterexample is None,
        lhs_dim=len(lhs_red),
        rhs_dim=len(rhs),
        counterexample=counterexample,
        elements=tuple(map(to_vec, lhs_red)),
        slack=slack,
    )
