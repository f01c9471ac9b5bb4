"""Division with quotients and remainder in D[t]^r (and in D^r), and
Buchberger completion to reduced L-standard bases of homogenized modules.

Internally elements are flattened to dicts keyed by (alpha, beta, l, i).
Division always reduces the maximal remaining term against the first basis
element whose privileged exponent divides it (the least-index partition of
the staircase), which pins the output uniquely.  Polynomial coefficients
replace convergent series at this scale; division by pathological bases
whose tails climb in degree forever is cut off by explicit caps and
reported, never silently truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    WeylOp,
    WeylVec,
    _mul_terms,
    accumulate,
    homogenize_vec,
    require_f_homogeneous,
    t_power_times,
)


@dataclass
class Caps:
    """Resource guards for division/completion.  Legitimate desk-scale
    divisions finish within a few hundred steps and never climb more than
    a few degrees above their inputs; the defaults are generous for those
    while tripping fast on tails that feed themselves."""

    degree_cap: int | None = None  # absolute total-degree ceiling
    step_cap: int = 20_000
    reduction_rounds: int = 64
    degree_slack: int = 16


DEFAULT_CAPS = Caps()


def _flatten(V) -> dict:
    out = {}
    for i, comp in enumerate(V.components):
        for key, coef in comp.terms.items():
            if len(key) == 2:
                key = (key[0], key[1], 0)
            out[key + (i,)] = coef
    return out


def _unflatten(flat: dict, ring: RingDescriptor, dt: bool):
    buckets = [dict() for _ in range(ring.r)]
    for (a, b, l, i), coef in flat.items():
        key = (a, b, l) if dt else (a, b)
        buckets[i][key] = coef
    cls, scl = (DtVec, DtOp) if dt else (WeylVec, WeylOp)
    return cls(ring, tuple(scl(ring, bucket) for bucket in buckets))


def _divides(exp, key) -> bool:
    ea, eb, el, ei = exp
    a, b, l, i = key
    if i != ei or l < el:
        return False
    return all(x >= y for x, y in zip(a, ea)) and all(
        x >= y for x, y in zip(b, eb)
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
        tuple(x - y for x, y in zip(key[0], exp[0])),
        tuple(x - y for x, y in zip(key[1], exp[1])),
        key[2] - exp[2],
    )


class _KeyCache:
    __slots__ = ("order", "shifts", "cache")

    def __init__(self, order: TermOrder, shifts):
        self.order = order
        self.shifts = shifts
        self.cache = {}

    def __call__(self, key4):
        k = self.cache.get(key4)
        if k is None:
            a, b, l, i = key4
            k = self.order.key((a, b, l), i, self.shifts)
            self.cache[key4] = k
        return k


def _divide_flat(
    g: dict,
    basis_flats: list[dict],
    exps: list[tuple],
    lcs: list[Fraction],
    keyf: _KeyCache,
    emit_t: bool,
    caps: Caps,
):
    """Core division loop; returns (quotient term dicts, remainder dict).

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

    def push(key):
        heapq.heappush(heap, (tuple(-x for x in keyf(key)), key))

    if caps.degree_cap is not None:
        cap = caps.degree_cap
    else:
        gd = max((sum(a) + sum(b) + l for (a, b, l, i) in g), default=0)
        bd = max(
            (
                sum(a) + sum(b) + l
                for f in basis_flats
                for (a, b, l, i) in f
            ),
            default=0,
        )
        cap = gd + bd + caps.degree_slack
    steps = 0
    while True:
        while heap and heap[0][1] not in tail:
            heapq.heappop(heap)
        if not heap:
            break
        tau = heap[0][1]
        heapq.heappop(heap)
        steps += 1
        if steps > caps.step_cap:
            raise ResourceBoundExceeded(
                f"division exceeded {caps.step_cap} steps; raise the cap or "
                "inspect the basis for non-terminating tails"
            )
        if sum(tau[0]) + sum(tau[1]) + tau[2] > cap:
            raise ResourceBoundExceeded(
                f"division exceeded total degree {cap}; the basis tails climb "
                "in degree (an analytic-closure artifact at polynomial scale)"
            )
        coef = tail[tau]
        for m, exp in enumerate(exps):
            if _divides(exp, tau):
                mu = _exp_quotient(tau, exp)
                cq = coef / lcs[m]
                accumulate(quots[m], ((mu, cq),))
                _term_times_flat(mu, -cq, basis_flats[m], emit_t, tail, push)
                break
        else:
            rem[tau] = coef
            del tail[tau]
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

    def __init__(
        self,
        ring: RingDescriptor,
        elements,
        order: TermOrder,
        context,
        caps: Caps = DEFAULT_CAPS,
    ):
        self.ring = ring
        self.elements = tuple(elements)
        if not self.elements or any(h.is_zero() for h in self.elements):
            raise ZeroInputError("zero divisor element in a standard basis")
        self.order = order
        self.context = tuple(context)
        self.caps = caps
        self._flats = [_flatten(h) for h in self.elements]
        self._keyf = _KeyCache(order, ring.shifts)
        self._exps = [max(f, key=self._keyf) for f in self._flats]
        self._lcs = [f[e] for f, e in zip(self._flats, self._exps)]

    @property
    def exponents(self):
        """Privileged exponents (alpha, beta, l, i), one per element."""
        return tuple(self._exps)

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
            flat, self._flats, self._exps, self._lcs, self._keyf, True, self.caps
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
            bound = ord_L_vec(G, L, self.ring.shifts)
            for a, h in zip(qops, self.elements):
                if a.is_zero():
                    continue
                w = ord_L_vec(h.left_mul(a), L, self.ring.shifts)
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
            d = ord_L_vec(h, L, self.ring.shifts)
            out.append((symbol_L(h, L, d, self.ring.shifts), d))
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
    lc = flat[max(flat, key=keyf)]
    if lc == 1:
        return flat
    return {k: v / lc for k, v in flat.items()}


def _buchberger(flats, keyf, emit_t, caps):
    import heapq

    basis = [_monic(dict(f), keyf) for f in flats if f]
    exps = [max(f, key=keyf) for f in basis]
    heap = []
    pending = set()

    def add_pair(i, j):
        pending.add((i, j))
        heapq.heappush(
            heap, (keyf(_lcm_exp(exps[i], exps[j])), (i, j))
        )

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
            s, basis, exps, [Fraction(1)] * len(basis), keyf, emit_t, caps
        )
        if rem:
            rem = _monic(rem, keyf)
            new = len(basis)
            basis.append(rem)
            exps.append(max(rem, key=keyf))
            for m in range(new):
                if exps[m][3] == exps[new][3]:
                    add_pair(m, new)
    return _autoreduce(basis, exps, keyf, emit_t, caps)


def _lcm_exp(ei, ej):
    return (
        tuple(max(x, y) for x, y in zip(ei[0], ej[0])),
        tuple(max(x, y) for x, y in zip(ei[1], ej[1])),
        max(ei[2], ej[2]),
        ei[3],
    )


def _autoreduce(basis, exps, keyf, emit_t, caps):
    # minimalize: with weight-refined orders divisibility is not monotone
    # in the order, so test all pairs (dedupe equal exponents first)
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
    # inter-reduce tails against the other elements until stable
    for _ in range(caps.reduction_rounds):
        changed = False
        for idx in range(len(mini)):
            if mini[idx] is None:
                continue
            others = [
                mini[m]
                for m in range(len(mini))
                if m != idx and mini[m] is not None
            ]
            oexps = [
                mexp[m]
                for m in range(len(mini))
                if m != idx and mini[m] is not None
            ]
            _, rem = _divide_flat(
                mini[idx],
                others,
                oexps,
                [Fraction(1)] * len(others),
                keyf,
                emit_t,
                caps,
            )
            if not rem:
                mini[idx] = None
                changed = True
                continue
            rem = _monic(rem, keyf)
            if rem != mini[idx]:
                mini[idx] = rem
                mexp[idx] = max(rem, key=keyf)
                changed = True
        if not changed:
            break
    else:
        raise ResourceBoundExceeded(
            "autoreduction did not stabilize within the configured rounds"
        )
    # canonical output order, independent of the refining weight
    canon = TermOrder()
    pairs = sorted(
        ((e, f) for e, f in zip(mexp, mini) if f is not None),
        key=lambda p: (canon.key((p[0][0], p[0][1], p[0][2]), p[0][3], None), p[0]),
    )
    return [f for _, f in pairs]


def reduce_basis(
    generators,
    sample: LinearForm,
    extra_forms=(),
    base_order: TermOrder | None = None,
    caps: Caps = DEFAULT_CAPS,
) -> StandardBasis:
    """Homogenize the generators and complete them into the reduced
    standard basis for the order refined by ``sample`` (an interior weight
    of the cone of validity); ``extra_forms`` join the verification
    context."""
    gens = [g for g in generators]
    if not gens or any(g.is_zero() for g in gens):
        raise ZeroInputError("generators must be nonzero")
    ring = gens[0].ring
    order = (base_order or TermOrder()).refine(sample)
    keyf = _KeyCache(order, ring.shifts)
    flats = [_flatten(homogenize_vec(g)) for g in gens]
    done = _buchberger(flats, keyf, True, caps)
    elements = [_unflatten(f, ring, True) for f in done]
    return StandardBasis(
        ring, elements, order, (sample,) + tuple(extra_forms), caps
    )


def plain_module_basis(generators, base_order: TermOrder | None = None, caps: Caps = DEFAULT_CAPS):
    """Groebner basis of a submodule of D^r under the plain degree
    well-order (used for graded symbol-module membership)."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ZeroInputError("generators must be nonzero")
    ring = gens[0].ring
    order = base_order or TermOrder()
    keyf = _KeyCache(order, ring.shifts)
    flats = [_flatten(g) for g in gens]
    done = _buchberger(flats, keyf, False, caps)
    return PlainBasis(ring, [_unflatten(f, ring, False) for f in done], order, caps)


class PlainBasis:
    """Groebner basis of a plain D^r-submodule under a degree well-order."""

    def __init__(self, ring, elements, order, caps=DEFAULT_CAPS):
        self.ring = ring
        self.elements = tuple(elements)
        self.order = order
        self.caps = caps
        self._flats = [_flatten(h) for h in self.elements]
        self._keyf = _KeyCache(order, ring.shifts)
        self._exps = [max(f, key=self._keyf) for f in self._flats]
        self._lcs = [f[e] for f, e in zip(self._flats, self._exps)]

    def normal_form(self, G: WeylVec) -> WeylVec:
        flat = _flatten(G)
        _, rem = _divide_flat(
            flat, self._flats, self._exps, self._lcs, self._keyf, False, self.caps
        )
        return _unflatten(rem, self.ring, False)

    def member(self, G: WeylVec) -> bool:
        return self.normal_form(G).is_zero()
