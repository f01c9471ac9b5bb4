"""Division with quotients and remainder in D[t]^r (and in D^r), and
Buchberger completion to reduced L-standard bases of homogenized modules.

Division reads the terms of a vector of D[t]^r as they are, keyed by
(alpha, beta, l, i) (a vector of D^r takes l = 0: ``_flatten``), scaled
to primitive integers (content removal, as in Arnold, "Modular
algorithms for computing Groebner bases", 2003).  Division, fraction free,
reduces the maximal remaining term against the first element of its
component whose privileged exponent divides it (the least-index partition
of the staircase), which pins the output uniquely.  All that division
reads of a basis, the per-component divisor lists among it, is one
``_DivState``: a basis builds its own in its constructor, the completion
grows one as it adds elements (the chain criterion reads the same lists)
and the single pass of the autoreduction updates one in place.
Fractions remain at the edges: monic output, quotients folded from the
integer steps, and remainders scaled back.  The postconditions of a
division read those Fraction quotients and remainder, not the steps, and
check the identity on integers over one common denominator (the lcm of
their denominators, with each element's content).  Polynomial
coefficients replace convergent series at this scale; division by
pathological bases whose tails climb in degree forever is cut off by the
module constants STEP_CAP and DEGREE_SLACK, and a completion that grows
past MAX_BASIS_ELEMENTS or admits an element with a coefficient over
MAX_COEFF_BITS bits; each raises ResourceBoundExceeded, never a silently
truncated result.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import ge, sub

from ._linalg import primitive_part
from .errors import DfanError, ResourceBoundExceeded, ZeroInputError
from .weights import LinearForm, TermOrder, _KeyCache, ord_L_vec
from .weyl import (
    DtOp,
    DtVec,
    RingDescriptor,
    WeylVec,
    _term_times_flat,
    accumulate,
    homogenize_vec,
    multi_weight,
    require_f_homogeneous,
)


# Resource guards for division and completion.  Desk-scale divisions
# finish within a few hundred steps and never climb more than a few degrees
# above their inputs; the caps are generous for those while tripping fast
# on tails that feed themselves.
STEP_CAP = 20_000  # steps of one division
MAX_BASIS_ELEMENTS = 256  # elements of one completion, before autoreduction
MAX_COEFF_BITS = 4096  # bits of a primitive basis element's coefficients
DEGREE_SLACK = 16  # total degree above the input's plus the basis's


def _flatten(V: WeylVec) -> dict:
    """The terms of a vector of D^r keyed as D[t]^r's, (alpha, beta, 0, i)."""
    return {(a, b, 0, i): c for (a, b, i), c in V.terms.items()}


def _unflatten(ring: RingDescriptor, flat: dict) -> WeylVec:
    """The vector of D^r of ``flat``, the inverse of ``_flatten``."""
    return WeylVec(ring, {(a, b, i): c for (a, b, _, i), c in flat.items()})


def _degree(flat) -> int:
    """The largest total degree |alpha| + |beta| + l of a flat's terms, 0
    for none."""
    return max((sum(a) + sum(b) + l for a, b, l, _ in flat), default=0)


def _divides(exp, key) -> bool:
    return (
        key[3] == exp[3]
        and key[2] >= exp[2]
        and all(map(ge, key[0], exp[0]))
        and all(map(ge, key[1], exp[1]))
    )


def _exp_quotient(key, exp):
    """The monomial (alpha, beta, l) with key = monomial * exp."""
    return (
        tuple(map(sub, key[0], exp[0])),
        tuple(map(sub, key[1], exp[1])),
        key[2] - exp[2],
    )


def _entry(m, exp):
    """Element m in a divisor list: m, the parts (alpha, beta, l) of its
    exponent ``exp`` as one tuple, and ``exp``."""
    return m, exp[0] + exp[1] + (exp[2],), exp


class _DivState:
    """What division reads of a basis: per element m its primitive
    integer flat, leading exponent, leading coefficient and total degree
    (``_degree``), and per component the divisor list of ``_entry``s in
    index order.  An element taken out of division weighs degree 0."""

    __slots__ = ("flats", "exps", "lcs", "degs", "lists")

    def __init__(self, flats=(), exps=()):
        self.flats, self.exps, self.lcs, self.degs = [], [], [], []
        self.lists = {}
        for f, e in zip(flats, exps):
            self.add(f, e)

    def add(self, flat, top):
        """Append ``flat`` with leading exponent ``top``."""
        m = len(self.flats)
        self.flats.append(flat)
        self.exps.append(top)
        self.lcs.append(flat[top])
        self.degs.append(_degree(flat))
        self.lists.setdefault(top[3], []).append(_entry(m, top))

    def take(self, m):
        """Take element m out of its divisor list."""
        self.lists[self.exps[m][3]].remove(_entry(m, self.exps[m]))
        self.degs[m] = 0

    def put(self, m, flat):
        """Put element m back as ``flat``, with the same leading exponent."""
        top = self.exps[m]
        self.flats[m] = flat
        self.lcs[m] = flat[top]
        self.degs[m] = _degree(flat)
        insort(self.lists[top[3]], _entry(m, top))


def _divide_flat(g, state, keyf, emit_t):
    """Core division loop of the integer flat g by the flats of the
    ``_DivState`` ``state``; returns (remainder, scale, steps).  A term c
    is reduced by the first h_m in its component's divisor list whose
    exponent divides it, fraction free, a = lc_m / h > 0 and b = c / h
    for h = +-gcd(c, lc_m): tail <- a tail - b mu h_m, the remainder
    scaled by a too, so both stay positive multiples of the rational
    division's.  A step is (m, mu, b, scale after it), and scale * g =
    sum of b (scale / s) mu h_m over the steps + remainder.

    A term above the degrees of g and of the state's largest element
    added together, plus DEGREE_SLACK, trips the degree cap.  The maximal
    live term is tracked through a lazy max-heap (entries whose key has
    left the tail are discarded on pop), so pathological inputs hit the
    step cap in time proportional to the cap, not to the square of the
    tail size."""
    basis_flats, lcs, lists = state.flats, state.lcs, state.lists
    neg = keyf.neg
    rem = {}
    scale = 1
    out = []
    tail = dict(g)
    heap = [(neg(key), key) for key in tail]
    heapq.heapify(heap)
    # every term that enters the tail competes for the top, but only the
    # reduced ones change the tail: the run repeats wherever each reduced
    # term keeps its place among the others (divisibility is order-free)
    entered = list(tail) if keyf.trace is not None else None
    reduced = []

    def push(key):
        heapq.heappush(heap, (neg(key), key))
        if entered is not None:
            entered.append(key)

    cap = _degree(g) + max(state.degs) + DEGREE_SLACK
    steps = 0
    while True:
        while heap and heap[0][1] not in tail:
            heapq.heappop(heap)
        if not heap:
            break
        tau = heapq.heappop(heap)[1]
        steps += 1
        if steps > STEP_CAP:
            raise ResourceBoundExceeded(
                f"division exceeded {STEP_CAP} steps; inspect the basis for "
                "non-terminating tails",
                cap="STEP_CAP",
                limit=STEP_CAP,
                observed=steps,
            )
        ta, tb, tl, ti = tau
        degree = sum(ta) + sum(tb) + tl
        if degree > cap:
            raise ResourceBoundExceeded(
                f"division exceeded total degree {cap}; the basis tails climb "
                "in degree (an analytic-closure artifact at polynomial scale)",
                cap="DEGREE_SLACK",
                limit=cap,
                observed=degree,
            )
        coef = tail[tau]
        parts = ta + tb + (tl,)
        for m, eparts, exp in lists.get(ti, ()):
            if all(map(ge, parts, eparts)):
                mu = _exp_quotient(tau, exp)
                p = lcs[m]
                h = gcd(coef, p)
                a, b = p // h, coef // h
                if a < 0:
                    a, b = -a, -b
                if a != 1:
                    scale *= a
                    for key in tail:
                        tail[key] *= a
                    for key in rem:
                        rem[key] *= a
                if entered is not None:
                    reduced.append(tau)
                out.append((m, mu, b, scale))
                _term_times_flat(mu, -b, basis_flats[m], emit_t, tail, push)
                break
        else:
            rem[tau] = coef
            del tail[tau]
    if reduced:
        keyf.ranked(entered, reduced)
    return rem, scale, out


def _rational(flat: dict, c: Fraction) -> dict:
    """The integer flat times c, as Fractions."""
    n, d = c.numerator, c.denominator
    return {k: Fraction(n * v, d) if d > 1 else Fraction(n * v) for k, v in flat.items()}


class _Divisors:
    """What division needs of a basis, built once: element m is
    ``_contents[m]`` times the primitive integer flat ``_state.flats[m]``,
    read off the elements or handed over as ``ints`` = (contents, flats) by
    the completion that made them, with their leading exponents ``exps``
    under ``order`` when it knows them."""

    def __init__(
        self, ring: RingDescriptor, elements, order: TermOrder, ints=None, exps=None
    ):
        self.ring = ring
        self.elements = tuple(elements)
        self.order = order
        self._keyf = _KeyCache(order, ring.shifts)
        if ints is None:
            parts = [primitive_part(h.terms) for h in self.elements]
            ints = [Fraction(g, d) for g, d, _ in parts], [f for *_, f in parts]
        self._contents, flats = ints
        if exps is None:
            exps = [max(f, key=self._keyf) for f in flats]
        self._state = _DivState(flats, exps)

    def _reduce(self, flat, emit_t):
        """(c, remainder, scale, steps) of dividing flat = c * g, g primitive."""
        n, d, g = primitive_part(flat)
        return (Fraction(n, d),) + _divide_flat(g, self._state, self._keyf, emit_t)


@dataclass
class DivisionResult:
    """The quotients A_m and remainder R of G = sum A_m H_m + R, with the
    support conditions of the division theorem."""

    quotients: list
    remainder: object


class StandardBasis(_Divisors):
    """A monic, inter-autoreduced, S-pair-complete generating family of a
    homogenized submodule of D[t]^r under ``order``: a standard basis for
    the weight forms that refine it (``reduce_basis`` refines by one
    interior sample of its cone)."""

    def __init__(
        self, ring, elements, order: TermOrder, ints=None, exps=None, trace=None
    ):
        elements = tuple(elements)
        if not elements or any(h.is_zero() for h in elements):
            raise ZeroInputError("zero divisor element in a standard basis")
        for h in elements:
            if type(h) is not DtVec:
                raise TypeError(f"a standard basis holds DtVec elements, not {type(h).__name__}")
        super().__init__(ring, elements, order, ints, exps)
        # the order decisions of the completion that made this basis, if
        # any: see order_cone
        self._trace = trace

    @property
    def exponents(self):
        """Privileged exponents (alpha, beta, l, i), one per element."""
        return tuple(self._state.exps)

    @cached_property
    def order_cone(self):
        """For a basis from ``reduce_basis``: the refining weights L at
        which its completion takes every order decision the same way, so
        a completion at L repeats it step for step and returns these
        elements, as (weak, strict) integer forms (see ``_KeyCache.cone``).
        None for any other basis."""
        if self._trace is None:
            return None
        cone, self._trace = self._trace.cone(), None
        return cone

    def at(self, sample: LinearForm) -> "StandardBasis":
        """This basis under the order refined by ``sample``, on the same
        integer record: the basis a completion at ``sample`` returns when
        ``sample`` lies in this basis's ``order_cone``.  Raises DfanError
        if a privileged exponent moves there."""
        order = TermOrder().refine(sample)
        ints = self._contents, self._state.flats
        out = StandardBasis(self.ring, self.elements, order, ints)
        if out._state.exps != self._state.exps:
            raise DfanError(f"a privileged exponent moves at {sample}")
        return out

    def __eq__(self, other):
        return (
            isinstance(other, StandardBasis)
            and self.ring == other.ring
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash(self.elements)

    def divide(self, G: DtVec, forms=()) -> DivisionResult:
        """Division with full postcondition checks, among them the L-order
        bound for each weight of the order and each of ``forms``; the
        integer steps fold into Fraction quotients here."""
        require_f_homogeneous(G)
        flat = G.terms
        c, rem, scale, steps = self._reduce(flat, True)
        ratios = [c / u for u in self._contents]
        quots = [{} for _ in self.elements]
        for m, mu, b, s in steps:
            r = ratios[m]
            accumulate(quots[m], ((mu, Fraction(r.numerator * b, r.denominator * s)),))
        qops = [DtOp(self.ring, q) for q in quots]
        rem = _rational(rem, c / scale)
        self._verify_division(G, qops, rem, flat, self.order.weights + tuple(forms))
        return DivisionResult(qops, DtVec(self.ring, rem))

    def _verify_division(self, G, qops, rem, flat, forms):
        """The postconditions of ``divide`` on the Fraction quotients and
        remainder it returns, checked on integers: with D the lcm of the
        denominators of each quotient coefficient times its element's
        content and of the remainder, D G = D R + sum (D c u) mu h over
        the primitive integer flats h."""
        quots = [
            [(mu, c * u) for mu, c in a.terms.items()]
            for a, u in zip(qops, self._contents)
        ]
        D = lcm(
            *(c.denominator for terms in quots for _, c in terms),
            *(c.denominator for c in rem.values()),
        )
        acc = {key: c.numerator * (D // c.denominator) for key, c in rem.items()}
        prods = []
        for terms, hf in zip(quots, self._state.flats):
            prod = {}
            for mu, c in terms:
                _term_times_flat(mu, c.numerator * (D // c.denominator), hf, True, prod)
            if prod:
                prods.append(prod)
            accumulate(acc, prod.items())
        # D G must be integral and equal to D R plus the products
        if any(D % c.denominator for c in flat.values()) or acc != {
            key: c.numerator * (D // c.denominator) for key, c in flat.items()
        }:
            raise DfanError("division recomposition failed")
        for key in rem:
            if any(_divides(e, key) for e in self._state.exps):
                raise DfanError("remainder meets the staircase")
        if flat:
            gexp = self._keyf(max(flat, key=self._keyf))
            for prod in prods:
                if self._keyf(max(prod, key=self._keyf)) > gexp:
                    raise DfanError("quotient product exceeds exp of the input")
        for a in qops:
            if not a.is_zero():
                require_f_homogeneous(a)
        for L in forms:
            # den * L-weights of flat keys, against den * the bound
            bound = ord_L_vec(G, L) * L.den
            for prod in prods:
                top = max(L.dot(multi_weight(key, self.ring.shifts, L.k)) for key in prod)
                if top > bound:
                    raise DfanError(f"L-order bound violated for form {L}")

    def member(self, Q: WeylVec, l_max: int | None = None):
        """Bounded t-power membership search for Q in the dehomogenized
        module: yes(l) for the least l <= l_max with t^l h(Q) in the span,
        else an explicitly inconclusive verdict.  Each power is decided by
        the integer division's remainder alone."""
        if Q.is_zero():
            raise ZeroInputError("membership of the zero vector is trivial")
        if l_max is None:
            gen_deg = max(h.total_degree() for h in self.elements)
            l_max = 2 * (gen_deg + Q.total_degree())
        flat = homogenize_vec(Q).terms
        for l in range(l_max + 1):
            shifted = {(a, b, t + l, i): c for (a, b, t, i), c in flat.items()}
            if not self._reduce(shifted, True)[1]:
                return MembershipResult(True, l, l_max)
        return MembershipResult(False, None, l_max)


@dataclass
class MembershipResult:
    is_member: bool
    l: int | None
    l_max: int

    def __bool__(self):
        return self.is_member


def _spair(fi, fj, ei, ej, lcm, emit_t):
    """The S-pair (p_j/g) mu_i f_i - (p_i/g) mu_j f_j, g = gcd(p_i, p_j)."""
    pi, pj = fi[ei], fj[ej]
    g = gcd(pi, pj)
    s: dict = {}
    _term_times_flat(_exp_quotient(lcm, ei), pj // g, fi, emit_t, s)
    _term_times_flat(_exp_quotient(lcm, ej), -(pi // g), fj, emit_t, s)
    return s


def _leading(flat, keyf):
    """(integer flat over its content, leader made positive; leader's exp).
    Every element enters a basis through here, so here its coefficients
    are held to MAX_COEFF_BITS."""
    top = keyf.leader(flat)
    g = gcd(*flat.values())
    if flat[top] < 0:
        g = -g
    if g != 1:
        flat = {k: v // g for k, v in flat.items()}
    bits = max(map(abs, flat.values())).bit_length()
    if bits > MAX_COEFF_BITS:
        raise ResourceBoundExceeded(
            f"a basis element has a {bits}-bit coefficient, over "
            f"MAX_COEFF_BITS = {MAX_COEFF_BITS}; the completion's coefficients "
            "keep growing",
            cap="MAX_COEFF_BITS",
            limit=MAX_COEFF_BITS,
            observed=bits,
        )
    return flat, top


def _buchberger(flats, keyf, emit_t):
    """The reduced basis of the nonzero integer ``flats`` in canonical
    order, as (primitive flat with a positive leader, exp) pairs."""
    state = _DivState()
    basis, exps, lists = state.flats, state.exps, state.lists
    heap = []
    pending = set()
    lcms = []

    def add(flat):
        new = len(basis)
        if new == MAX_BASIS_ELEMENTS:
            raise ResourceBoundExceeded(
                f"completion exceeded {MAX_BASIS_ELEMENTS} basis elements; "
                "its S-pairs keep leaving remainders",
                cap="MAX_BASIS_ELEMENTS",
                limit=MAX_BASIS_ELEMENTS,
                observed=new + 1,
            )
        flat, top = _leading(flat, keyf)
        for m, _, exp in lists.get(top[3], ()):
            lcm = _lcm_exp(exp, top)
            pending.add((m, new))
            lcms.append(lcm)
            heapq.heappush(heap, (keyf(lcm), (m, new), lcm))
        state.add(flat, top)

    def chain_skippable(i, j, lcm_ij):
        # Buchberger's second criterion: valid if some m divides the lcm
        # and both mediating pairs are treated already (no longer
        # pending); sound in this setting since the leading-term structure
        # is commutative
        parts = lcm_ij[0] + lcm_ij[1] + (lcm_ij[2],)
        for m, eparts, _ in lists[lcm_ij[3]]:
            if m == i or m == j or not all(map(ge, parts, eparts)):
                continue
            pim = (i, m) if i < m else (m, i)
            pjm = (j, m) if j < m else (m, j)
            if pim not in pending and pjm not in pending:
                return True
        return False

    for f in flats:
        add(f)
    while heap:
        _, sel, lcm_ij = heapq.heappop(heap)
        pending.discard(sel)
        i, j = sel
        if chain_skippable(i, j, lcm_ij):
            continue
        s = _spair(basis[i], basis[j], exps[i], exps[j], lcm_ij, emit_t)
        if s:
            rem = _divide_flat(s, state, keyf, emit_t)[0]
            if rem:
                add(rem)
    keyf.ranked(lcms)
    return _autoreduce(basis, exps, keyf, emit_t)


def _lcm_exp(ei, ej):
    return (
        tuple(map(max, ei[0], ej[0])),
        tuple(map(max, ei[1], ej[1])),
        max(ei[2], ej[2]),
        ei[3],
    )


def _autoreduce(basis, exps, keyf, emit_t):
    # minimalize: with weight-refined orders divisibility is not monotone
    # in the order, so test all pairs (dedupe equal exponents first)
    keyf.ranked(exps)
    order_idx = sorted(range(len(basis)), key=lambda m: (keyf(exps[m]), m))
    dedup: list[int] = []
    seen = set()
    for m in order_idx:
        if exps[m] not in seen:
            seen.add(exps[m])
            dedup.append(m)
    kept = [
        m
        for m in dedup
        if not any(
            mm != m and _divides(exps[mm], exps[m]) for mm in dedup
        )
    ]
    state = _DivState([basis[m] for m in kept], [exps[m] for m in kept])
    # reduce each tail by the others, in one pass: no leader divides
    # another and every step adds only terms below the one it reduces,
    # so no leader moves, no remainder is zero and each stays reduced
    for m in range(len(kept)):
        state.take(m)
        rem = _divide_flat(state.flats[m], state, keyf, emit_t)[0]
        state.put(m, _leading(rem, keyf)[0])
    # canonical output order, independent of the refining weight
    canon = TermOrder()
    return sorted(
        zip(state.flats, state.exps),
        key=lambda p: (canon.key(p[1], keyf.shifts), p[1]),
    )


def _completed(cls, ring, done, vector, order, **kw):
    """A ``cls`` basis of the completion's elements made monic, each the
    ``vector(ring, flat)`` of its flat, on the completion's own primitive
    integer flats and leading exponents."""
    flats, exps = zip(*done)
    units = [Fraction(1, f[e]) for f, e in done]
    elements = [vector(ring, _rational(f, u)) for f, u in zip(flats, units)]
    return cls(ring, elements, order, (units, flats), exps, **kw)


def reduce_basis(generators, sample: LinearForm) -> StandardBasis:
    """Homogenize the generators and complete them into the reduced
    standard basis for the order refined by ``sample`` (an interior weight
    of the cone of validity)."""
    gens = [g for g in generators]
    if not gens or any(g.is_zero() for g in gens):
        raise ZeroInputError("generators must be nonzero")
    ring = gens[0].ring
    order = TermOrder().refine(sample)
    keyf = _KeyCache(order, ring.shifts, trace=True)
    flats = [primitive_part(homogenize_vec(g).terms)[2] for g in gens]
    done = _buchberger(flats, keyf, True)
    return _completed(StandardBasis, ring, done, DtVec, order, trace=keyf)


def plain_module_basis(generators):
    """Groebner basis of a submodule of D^r under the plain degree
    well-order (used for graded symbol-module membership)."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ZeroInputError("generators must be nonzero")
    ring = gens[0].ring
    order = TermOrder()
    keyf = _KeyCache(order, ring.shifts)
    flats = [primitive_part(_flatten(g))[2] for g in gens]
    done = _buchberger(flats, keyf, False)
    return _completed(PlainBasis, ring, done, _unflatten, order)


class PlainBasis(_Divisors):
    """Groebner basis of a plain D^r-submodule under a degree well-order."""

    def member(self, G: WeylVec) -> bool:
        return not self._reduce(_flatten(G), False)[1]
