"""Division with quotients and remainder in D[t]^r (and in D^r), and
Buchberger completion to reduced L-standard bases of homogenized modules.

Internally elements are flattened to dicts keyed by (alpha, beta, l, i).
Division always reduces the maximal remaining term against the first basis
element whose privileged exponent divides it (the least-index partition of
the staircase), which pins the output uniquely.  Polynomial coefficients
replace convergent series at this scale; division by pathological bases
whose tails climb in degree forever is cut off by the module constants
STEP_CAP and DEGREE_SLACK, and an autoreduction that does not settle by
REDUCTION_ROUNDS; each raises ResourceBoundExceeded, never a silently
truncated result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import ge, sub

from .errors import (
    DfanError,
    ResourceBoundExceeded,
    WeightError,
    ZeroInputError,
)
from .weights import LinearForm, TermOrder, ord_L_vec, symbol_L
from .weyl import (
    DtOp,
    DtVec,
    RingDescriptor,
    WeylVec,
    _mul_terms,
    accumulate,
    homogenize_vec,
    require_f_homogeneous,
    t_power_times,
)


# Resource guards for division and completion.  Desk-scale divisions
# finish within a few hundred steps and never climb more than a few degrees
# above their inputs; the caps are generous for those while tripping fast
# on tails that feed themselves.
STEP_CAP = 20_000  # steps of one division
REDUCTION_ROUNDS = 64  # inter-reduction rounds of one autoreduction
DEGREE_SLACK = 16  # total degree above the input's plus the basis's


def _flatten(V) -> dict:
    out = {}
    for i, comp in enumerate(V.components):
        for key, coef in comp.terms.items():
            if len(key) == 2:
                key = (key[0], key[1], 0)
            out[key + (i,)] = coef
    return out


def _unflatten(flat: dict, ring: RingDescriptor, dt: bool):
    if dt:
        return DtVec.from_terms(
            ring, (((a, b, l), i, c) for (a, b, l, i), c in flat.items())
        )
    return WeylVec.from_terms(
        ring, (((a, b), i, c) for (a, b, _, i), c in flat.items())
    )


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


def _term_times_flat(mu, coef, flat: dict, emit_t: bool, acc: dict, on_new=None):
    """acc += coef * (x^a d^b t^l) * flat; ``on_new`` as in ``accumulate``."""
    if emit_t:
        products = (
            (key + (i,), cc)
            for (a2, b2, l2, i), c2 in flat.items()
            for key, cc in _mul_terms(mu, coef, (a2, b2, l2), c2, True)
        )
    else:
        ab = mu[:2]
        products = (
            ((na, nb, 0, i), cc)
            for (a2, b2, _, i), c2 in flat.items()
            for (na, nb), cc in _mul_terms(ab, coef, (a2, b2), c2, False)
        )
    accumulate(acc, products, on_new)


def _exp_quotient(key, exp):
    """The monomial (alpha, beta, l) with key = monomial * exp."""
    return (
        tuple(map(sub, key[0], exp[0])),
        tuple(map(sub, key[1], exp[1])),
        key[2] - exp[2],
    )


class _KeyCache:
    """Memoised order keys of flat exponents.  A tracing cache also
    records the order decisions taken through ``leader`` and ``ranked``,
    from which ``cone`` derives where they come out the same."""

    __slots__ = ("order", "shifts", "cache", "trace")

    def __init__(self, order: TermOrder, shifts, trace: bool = False):
        self.order = order
        self.shifts = shifts
        self.cache = {}
        self.trace = [] if trace else None

    def __call__(self, key4):
        k = self.cache.get(key4)
        if k is None:
            a, b, l, i = key4
            k = self.order.key((a, b, l), i, self.shifts)
            self.cache[key4] = k
        return k

    def leader(self, flat):
        """The exponent of ``flat`` with the largest key."""
        top = max(flat, key=self)
        self.ranked(flat, (top,))
        return top

    def ranked(self, keys, marked=None):
        """Note that the order between each exponent in ``marked``
        (default: all of ``keys``) and each of ``keys`` was relied on."""
        if self.trace is not None:
            self.trace.append((tuple(keys), None if marked is None else set(marked)))

    def cone(self):
        """The refining weights L at which every traced decision comes out
        the same, as integer forms (weak, strict): L.w >= 0 for w in weak,
        L.w > 0 for w in strict.  The order must be a base order refined
        by one weight, so a key is L applied to beta - alpha plus the
        component's shift, then the base order's key."""
        k = self.order.weights[0].k
        shifts = self.shifts
        vecs = {}
        weak, strict = set(), set()

        def above(hi, lo):
            for e in (hi, lo):
                if e not in vecs:
                    a, b, _, i = e
                    vecs[e] = [b[j] - a[j] + shifts[i][j] for j in range(k)]
            w = tuple(x - y for x, y in zip(vecs[hi], vecs[lo]))
            if any(w):
                (weak if self(hi)[1:] > self(lo)[1:] else strict).add(w)

        # chain the marked exponents in key order and tie every other one
        # to its nearest marked neighbours; transitivity does the rest
        for keys, marked in self.trace:
            below, loose = None, []
            for e in sorted(set(keys), key=self):
                if below is not None:
                    above(e, below)
                if marked is None or e in marked:
                    for u in loose:
                        above(e, u)
                    below, loose = e, []
                else:
                    loose.append(e)
        return tuple(sorted(weak - strict)), tuple(sorted(strict))


def _divide_flat(
    g: dict,
    basis_flats: list[dict],
    exps: list[tuple],
    lcs: list[Fraction],
    keyf: _KeyCache,
    emit_t: bool,
    bd: int,
):
    """Core division loop; returns (quotient term dicts, remainder dict).
    ``bd`` is ``_degree`` over all of ``basis_flats``: a term above the
    degrees of g and of the basis added together, plus DEGREE_SLACK, trips
    the degree cap.

    The maximal live term is tracked through a lazy max-heap (entries
    whose key has left the tail are discarded on pop), so pathological
    inputs hit the step cap in time proportional to the cap, not to the
    square of the tail size."""
    import heapq

    quots = [dict() for _ in basis_flats]
    rem = {}
    tail = dict(g)
    heap = [(tuple(-x for x in keyf(key)), key) for key in tail]
    heapq.heapify(heap)
    # every term that enters the tail competes for the top, but only the
    # reduced ones change the tail: the run repeats wherever each reduced
    # term keeps its place among the others (divisibility is order-free)
    entered = list(tail) if keyf.trace is not None else None
    reduced = []

    def push(key):
        heapq.heappush(heap, (tuple(-x for x in keyf(key)), key))
        if entered is not None:
            entered.append(key)

    cap = _degree(g) + bd + DEGREE_SLACK
    steps = 0
    while True:
        while heap and heap[0][1] not in tail:
            heapq.heappop(heap)
        if not heap:
            break
        tau = heap[0][1]
        heapq.heappop(heap)
        steps += 1
        if steps > STEP_CAP:
            raise ResourceBoundExceeded(
                f"division exceeded {STEP_CAP} steps; inspect the basis for "
                "non-terminating tails",
                cap="STEP_CAP",
                limit=STEP_CAP,
                observed=steps,
            )
        degree = sum(tau[0]) + sum(tau[1]) + tau[2]
        if degree > cap:
            raise ResourceBoundExceeded(
                f"division exceeded total degree {cap}; the basis tails climb "
                "in degree (an analytic-closure artifact at polynomial scale)",
                cap="DEGREE_SLACK",
                limit=cap,
                observed=degree,
            )
        coef = tail[tau]
        for m, exp in enumerate(exps):
            if _divides(exp, tau):
                mu = _exp_quotient(tau, exp)
                cq = coef / lcs[m]
                if entered is not None:
                    reduced.append(tau)
                accumulate(quots[m], ((mu, cq),))
                _term_times_flat(mu, -cq, basis_flats[m], emit_t, tail, push)
                break
        else:
            rem[tau] = coef
            del tail[tau]
    if reduced:
        keyf.ranked(entered, reduced)
    return quots, rem


@dataclass
class DivisionResult:
    """G = sum A_m H_m + R with the support conditions of the division
    theorem; carries the data needed to audit the identity."""

    quotients: list
    remainder: object
    input: object
    basis: object

    def recompose(self):
        total = self.remainder
        for a, h in zip(self.quotients, self.basis.elements):
            if a.is_zero():
                continue
            total = total + h.left_mul(a)
        return total


class StandardBasis:
    """A monic, inter-autoreduced, S-pair-complete generating family of a
    homogenized submodule of D[t]^r, valid for the weight forms in
    ``context`` (an interior sample first, then any cone rays)."""

    def __init__(self, ring: RingDescriptor, elements, order: TermOrder, context):
        self.ring = ring
        self.elements = tuple(elements)
        if not self.elements or any(h.is_zero() for h in self.elements):
            raise ZeroInputError("zero divisor element in a standard basis")
        self.order = order
        self.context = tuple(context)
        self._flats = [_flatten(h) for h in self.elements]
        self._keyf = _KeyCache(order, ring.shifts)
        self._exps = [max(f, key=self._keyf) for f in self._flats]
        self._lcs = [f[e] for f, e in zip(self._flats, self._exps)]
        # the order decisions of the completion that made this basis, if
        # any: see order_cone
        self._trace = None

    @cached_property
    def _bd(self):
        """The basis degree of the division degree cap."""
        return max(map(_degree, self._flats), default=0)

    @property
    def exponents(self):
        """Privileged exponents (alpha, beta, l, i), one per element."""
        return tuple(self._exps)

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

    def __eq__(self, other):
        return (
            isinstance(other, StandardBasis)
            and self.ring == other.ring
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash(self.elements)

    def divide(self, G: DtVec, *, verify: bool = True) -> DivisionResult:
        """Division with full postcondition checks."""
        require_f_homogeneous(G)
        flat = _flatten(G)
        quots, rem = _divide_flat(
            flat, self._flats, self._exps, self._lcs, self._keyf, True, self._bd
        )
        qops = [
            DtOp(self.ring, {mu: c for mu, c in q.items()}) for q in quots
        ]
        rvec = _unflatten(rem, self.ring, True)
        res = DivisionResult(qops, rvec, G, self)
        if verify:
            self._verify_division(G, qops, rem, flat)
        return res

    def _verify_division(self, G, qops, rem, flat):
        acc = dict(rem)
        prods = []
        for a, hf in zip(qops, self._flats):
            prod = {}
            for mu, c in a.terms.items():
                _term_times_flat(mu, c, hf, True, prod)
            prods.append(prod)
            accumulate(acc, prod.items())
        if acc != flat:
            raise DfanError("division recomposition failed")
        for key in rem:
            if any(_divides(e, key) for e in self._exps):
                raise DfanError("remainder meets the staircase")
        if flat:
            gexp = self._keyf(max(flat, key=self._keyf))
            for prod in prods:
                if prod and self._keyf(max(prod, key=self._keyf)) > gexp:
                    raise DfanError("quotient product exceeds exp of the input")
        for a in qops:
            if not a.is_zero():
                require_f_homogeneous(a)
        for L in self.context:
            bound = ord_L_vec(G, L)
            for a, h in zip(qops, self.elements):
                if a.is_zero():
                    continue
                w = ord_L_vec(h.left_mul(a), L)
                if w > bound:
                    raise DfanError(
                        f"L-order bound violated for context form {L}"
                    )

    def member_h(self, G: DtVec) -> bool:
        """Membership of an F-homogeneous element in the homogenized
        module spanned by this basis."""
        return self.divide(G, verify=False).remainder.is_zero()

    def member(self, Q: WeylVec, l_max: int | None = None):
        """Bounded t-power membership search for Q in the dehomogenized
        module: yes(l) for the least l <= l_max with t^l h(Q) in the span,
        else an explicitly inconclusive verdict."""
        if Q.is_zero():
            raise ZeroInputError("membership of the zero vector is trivial")
        if l_max is None:
            gen_deg = max(h.total_degree() for h in self.elements)
            l_max = 2 * (gen_deg + Q.total_degree())
        hq = homogenize_vec(Q)
        for l in range(l_max + 1):
            if self.member_h(t_power_times(hq, l)):
                return MembershipResult(True, l, l_max)
        return MembershipResult(False, None, l_max)

    def gr_generators(self, L: LinearForm):
        """Principal symbols and weights of the basis elements: generators
        of the graded module at L; requires L in the context cone."""
        if not self._context_contains(L):
            raise WeightError(f"{L} is outside the basis context")
        out = []
        for h in self.elements:
            d = ord_L_vec(h, L)
            out.append((symbol_L(h, L, d), d))
        return out

    def _context_contains(self, L: LinearForm) -> bool:
        if any(L == form for form in self.context):
            return True
        # nonnegative combination of the context forms
        from ._linalg import _phase1_simplex

        k = self.ring.k
        cols = [form.coeffs for form in self.context]
        if not cols:
            return False
        rows = []
        b = []
        for idx in range(k):
            row = [Fraction(c[idx]) for c in cols]
            rhs = Fraction(L.coeffs[idx])
            if rhs < 0:
                row = [-x for x in row]
                rhs = -rhs
            rows.append(row)
            b.append(rhs)
        return _phase1_simplex(rows, b) is not None


@dataclass
class MembershipResult:
    is_member: bool
    l: int | None
    l_max: int

    def __bool__(self):
        return self.is_member


def _spair(fi, fj, ei, ej, emit_t):
    lcm = _lcm_exp(ei, ej)
    s: dict = {}
    _term_times_flat(_exp_quotient(lcm, ei), Fraction(1), fi, emit_t, s)
    _term_times_flat(_exp_quotient(lcm, ej), Fraction(-1), fj, emit_t, s)
    return s


def _monic(flat, keyf):
    """(flat made monic, its privileged exponent)."""
    top = keyf.leader(flat)
    lc = flat[top]
    if lc == 1:
        return flat, top
    return {k: v / lc for k, v in flat.items()}, top


def _buchberger(flats, keyf, emit_t):
    import heapq

    monic = [_monic(dict(f), keyf) for f in flats if f]
    basis = [f for f, _ in monic]
    exps = [e for _, e in monic]
    # the basis only grows, so its degree is a running max
    bd = max(map(_degree, basis), default=0)
    heap = []
    pending = set()
    lcms = []

    def add_pair(i, j):
        pending.add((i, j))
        lcms.append(_lcm_exp(exps[i], exps[j]))
        heapq.heappush(heap, (keyf(lcms[-1]), (i, j)))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if exps[i][3] == exps[j][3]:
                add_pair(i, j)

    def chain_skippable(i, j, lcm_ij):
        # Buchberger's second criterion: valid if both mediating pairs are
        # treated already (no longer pending); sound in this setting since
        # the leading-term structure is commutative
        for m in range(len(basis)):
            if m in (i, j) or exps[m][3] != lcm_ij[3]:
                continue
            if not _divides(exps[m], lcm_ij):
                continue
            pim = (min(i, m), max(i, m))
            pjm = (min(j, m), max(j, m))
            if pim not in pending and pjm not in pending:
                return True
        return False

    while heap:
        _, sel = heapq.heappop(heap)
        pending.discard(sel)
        i, j = sel
        lcm_ij = _lcm_exp(exps[i], exps[j])
        if chain_skippable(i, j, lcm_ij):
            continue
        s = _spair(basis[i], basis[j], exps[i], exps[j], emit_t)
        if not s:
            continue
        _, rem = _divide_flat(
            s, basis, exps, [Fraction(1)] * len(basis), keyf, emit_t, bd
        )
        if rem:
            rem, top = _monic(rem, keyf)
            new = len(basis)
            basis.append(rem)
            exps.append(top)
            bd = max(bd, _degree(rem))
            for m in range(new):
                if exps[m][3] == exps[new][3]:
                    add_pair(m, new)
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
    mini = [basis[m] for m in kept]
    mexp = [exps[m] for m in kept]
    degs = [_degree(f) for f in mini]
    # inter-reduce tails against the other elements until stable
    for _ in range(REDUCTION_ROUNDS):
        changed = False
        for idx in range(len(mini)):
            if mini[idx] is None:
                continue
            live = [m for m in range(len(mini)) if m != idx and mini[m] is not None]
            _, rem = _divide_flat(
                mini[idx],
                [mini[m] for m in live],
                [mexp[m] for m in live],
                [Fraction(1)] * len(live),
                keyf,
                emit_t,
                max((degs[m] for m in live), default=0),
            )
            if not rem:
                mini[idx] = None
                changed = True
                continue
            rem, top = _monic(rem, keyf)
            if rem != mini[idx]:
                mini[idx] = rem
                mexp[idx] = top
                degs[idx] = _degree(rem)
                changed = True
        if not changed:
            break
    else:
        raise ResourceBoundExceeded(
            f"autoreduction did not stabilize within {REDUCTION_ROUNDS} rounds",
            cap="REDUCTION_ROUNDS",
            limit=REDUCTION_ROUNDS,
            observed=REDUCTION_ROUNDS + 1,  # the last round still changed
        )
    # canonical output order, independent of the refining weight
    canon = TermOrder()
    pairs = sorted(
        ((e, f) for e, f in zip(mexp, mini) if f is not None),
        key=lambda p: (canon.key((p[0][0], p[0][1], p[0][2]), p[0][3], None), p[0]),
    )
    return [f for _, f in pairs]


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
    flats = [_flatten(homogenize_vec(g)) for g in gens]
    done = _buchberger(flats, keyf, True)
    elements = [_unflatten(f, ring, True) for f in done]
    out = StandardBasis(ring, elements, order, (sample,))
    out._trace = keyf
    return out


def recheck_basis(basis: StandardBasis, sample: LinearForm) -> StandardBasis | None:
    """``basis`` as a standard basis for the order refined by ``sample``,
    built as ``reduce_basis`` builds it, or None when that is not
    certified.  Certified means the privileged exponents stay put, so the
    elements stay monic and reduced, and every same-component S-pair
    divides to zero under the new order (Buchberger's criterion).  A cap
    tripped on the way gives None."""
    order = TermOrder().refine(sample)
    out = StandardBasis(basis.ring, basis.elements, order, (sample,))
    if out.exponents != basis.exponents:
        return None
    f, e = out._flats, out._exps
    try:
        for j in range(len(f)):
            for i in range(j):
                if e[i][3] != e[j][3]:
                    continue
                s = _spair(f[i], f[j], e[i], e[j], True)
                if s and _divide_flat(s, f, e, out._lcs, out._keyf, True, out._bd)[1]:
                    return None
    except ResourceBoundExceeded:
        return None
    return out


def plain_module_basis(generators):
    """Groebner basis of a submodule of D^r under the plain degree
    well-order (used for graded symbol-module membership)."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ZeroInputError("generators must be nonzero")
    ring = gens[0].ring
    order = TermOrder()
    keyf = _KeyCache(order, ring.shifts)
    flats = [_flatten(g) for g in gens]
    done = _buchberger(flats, keyf, False)
    return PlainBasis(ring, [_unflatten(f, ring, False) for f in done], order)


class PlainBasis:
    """Groebner basis of a plain D^r-submodule under a degree well-order."""

    def __init__(self, ring, elements, order):
        self.ring = ring
        self.elements = tuple(elements)
        self.order = order
        self._flats = [_flatten(h) for h in self.elements]
        self._keyf = _KeyCache(order, ring.shifts)
        self._exps = [max(f, key=self._keyf) for f in self._flats]
        self._lcs = [f[e] for f, e in zip(self._flats, self._exps)]

    @cached_property
    def _bd(self):
        """The basis degree of the division degree cap."""
        return max(map(_degree, self._flats), default=0)

    def normal_form(self, G: WeylVec) -> WeylVec:
        flat = _flatten(G)
        _, rem = _divide_flat(
            flat, self._flats, self._exps, self._lcs, self._keyf, False, self._bd
        )
        return _unflatten(rem, self.ring, False)

    def member(self, G: WeylVec) -> bool:
        return self.normal_form(G).is_zero()
