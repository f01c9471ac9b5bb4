import heapq
from fractions import Fraction
from itertools import product
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dfan import basis as basis_module
from dfan._linalg import primitive_part
from dfan.basis import (
    DEGREE_SLACK,
    STEP_CAP,
    StandardBasis,
    TermOrder,
    _autoreduce,
    _buchberger,
    _degree,
    _divide_flat,
    _divides,
    _DivState,
    _exp_quotient,
    _flatten,
    _KeyCache,
    _lcm_exp,
    _leading,
    _rational,
    _spair,
    _unflatten,
    plain_module_basis,
    reduce_basis,
)
from dfan.errors import (
    DfanError,
    HomogeneityError,
    ResourceBoundExceeded,
    ZeroInputError,
)
from dfan.grammar import format_vec, parse_dt_op, parse_dt_vec, parse_op, parse_vec
from dfan.weights import LinearForm, ord_L_vec, symbol_L
from dfan.weyl import (
    DtOp,
    DtVec,
    RingDescriptor,
    WeylOp,
    WeylVec,
    _term_times_flat,
    dehomogenize,
    homogenize_vec,
    accumulate,
    t_power_times,
)
from conftest import (
    COEFFICIENTS,
    fan_modules,
    from_components,
    left_mul,
    monomials,
    random_nonzero_op,
    random_vec,
    recompose,
    ref_mul_terms,
    scaled,
)

R2 = RingDescriptor(2, 2, 1)
RV = RingDescriptor(2, 2, 2, [[0, 0], [1, 0]])


def basis_of(texts, L=(1, 1), ring=R2):
    return reduce_basis([parse_vec(t, ring) for t in texts], LinearForm(L))


def test_single_monomial_generator():
    b = basis_of(["d1"])
    assert [format_vec(h) for h in b.elements] == ["d1 e1"]


def test_euler_is_its_own_basis():
    for L in [(1, 1), (1, 0), (2, 3)]:
        b = basis_of(["x1 d1 + x2 d2"], L)
        assert b.elements == (homogenize_vec(parse_vec("x1 d1 + x2 d2", R2)),)


def test_self_division():
    b = basis_of(["x1 d1 + x2 d2"])
    res = b.divide(b.elements[0])
    assert res.quotients[0] == parse_dt_op("1", R2)
    assert res.remainder.is_zero()


def test_constructed_remainder():
    b = basis_of(["x1 d1 + x2 d2"])
    H = b.elements[0]
    x1 = parse_dt_op("x1", R2)
    junk = parse_dt_vec("x2^2 d2", R2)  # not divisible by exp(H) = x1 d1
    G_vec = left_mul(x1, H) + junk
    res = b.divide(G_vec)
    assert res.quotients[0] == x1
    assert res.remainder == junk


def test_division_identity_and_support(rng):
    b = reduce_basis(
        [parse_vec("d1 + x1 d2^2", R2), parse_vec("d2", R2)], LinearForm((1, 1))
    )
    for _ in range(20):
        G = homogenize_vec(random_vec(rng, R2, max_degree=4))
        res = b.divide(G)  # internal checks: recomposition, support, bounds
        assert recompose(res, b) == G
        for key in res.remainder.terms:
            for exp in b.exponents:
                ea, eb, el, ei = exp
                a, bb, l, i = key
                divisible = (
                    i == ei
                    and l >= el
                    and all(x >= y for x, y in zip(a, ea))
                    and all(x >= y for x, y in zip(bb, eb))
                )
                assert not divisible


def test_division_ord_bounds(rng):
    L = LinearForm((2, 1))
    b = reduce_basis(
        [parse_vec("d1 + x1 d2^2", R2), parse_vec("d2", R2)], L
    )
    for _ in range(15):
        G = homogenize_vec(random_vec(rng, R2, max_degree=4))
        res = b.divide(G)
        bound = ord_L_vec(G, L)
        for a, h in zip(res.quotients, b.elements):
            if a.is_zero():
                continue
            prod = left_mul(a, h)
            assert ord_L_vec(prod, L) <= bound


def test_divide_rejects_inhomogeneous():
    b = basis_of(["d1"])
    with pytest.raises(HomogeneityError):
        b.divide(parse_dt_vec("d1 + x1", R2))  # degrees 1 and 0


def test_pathological_tails_hit_explicit_guard():
    # the analytic closure of this module is not polynomial: completion
    # produces an element whose tail climbs in degree forever; the cap
    # must surface as an explicit resource error, never a wrong answer
    from dfan.errors import ResourceBoundExceeded

    with pytest.raises(ResourceBoundExceeded):
        reduce_basis(
            [parse_vec("x1 d1 + d2", R2), parse_vec("x2 d2 + x1^2 d1", R2)],
            LinearForm((2, 1)),
        )


def test_reduce_basis_rejects_zero():
    with pytest.raises(ZeroInputError):
        reduce_basis([WeylVec(R2)], LinearForm((1, 1)))


def test_zero_divisor_rejected_at_construction():
    from dfan.basis import StandardBasis
    from dfan.weights import TermOrder
    from dfan.weyl import DtVec

    L = LinearForm((1, 1))
    with pytest.raises(ZeroInputError):
        StandardBasis(R2, [DtVec(R2)], TermOrder().refine(L))


def test_a_basis_of_vectors_of_D_r_is_a_type_error():
    # a standard basis lives in D[t]^r: a WeylVec element is named, not
    # unpacked as a key of D[t]^r
    from dfan.basis import StandardBasis
    from dfan.weights import TermOrder

    order = TermOrder().refine(LinearForm((1, 1)))
    with pytest.raises(TypeError, match="not WeylVec"):
        StandardBasis(R2, [parse_vec("x1 d1 + x2 d2", R2)], order)


def test_member_rejects_zero_query():
    b = basis_of(["d1"])
    with pytest.raises(ZeroInputError):
        b.member(WeylVec(R2))


def left_multiple_span(gens, bound):
    """All products (monomial * generator) up to total degree bound, as a
    set of frozensets for membership probing by linear algebra."""
    from dfan._linalg import rref, in_row_space

    ring = gens[0].ring
    cols = []
    for g in gens:
        room = bound - g.total_degree()
        for exps in product(range(room + 1), repeat=2 * ring.n):
            if sum(exps) > room:
                continue
            mu = WeylOp(
                ring, {(exps[: ring.n], exps[ring.n:]): Fraction(1)}
            )
            prod = left_mul(mu, g)
            if not prod.is_zero():
                cols.append(prod)
    keys = sorted({key for c in cols for key in c.terms})
    index = {key: j for j, key in enumerate(keys)}

    def sparse_row(v):
        row = {}
        for key, c in v.terms.items():
            j = index.get(key)
            if j is None:
                return None
            row[j] = c
        return row

    rows = [sparse_row(c) for c in cols]
    red, piv = rref(rows)

    def contains(v):
        row = sparse_row(v)
        return row is not None and in_row_space(red, piv, row)

    return cols, contains


def test_completion_against_truncated_span_oracle(rng):
    gens = [parse_vec("d1 + x1 d2^2", R2), parse_vec("d2", R2)]
    b = reduce_basis(gens, LinearForm((1, 1)))
    cols, in_span = left_multiple_span(gens, 6)
    # every truncated-span element is recognized as a member
    for v in cols[:40]:
        assert b.member(v)
    # random low-degree probes: span membership implies the verdict yes,
    # and a no-verdict implies the probe is outside the span
    for _ in range(25):
        probe = random_vec(rng, R2, max_degree=3)
        if in_span(probe):
            assert b.member(probe)
        elif not b.member(probe):
            assert not in_span(probe)


def test_generators_reduce_to_zero():
    gens = [parse_vec("d1 + x1 d2^2", R2), parse_vec("d2", R2)]
    b = reduce_basis(gens, LinearForm((1, 1)))
    for g in gens:
        assert b.divide(homogenize_vec(g)).remainder.is_zero()


def test_autoreduced_staircase():
    gens = [parse_vec("d1 + x1 d2^2", R2), parse_vec("d2", R2)]
    b = reduce_basis(gens, LinearForm((1, 1)))
    for m, h in enumerate(b.elements):
        for key in h.terms:
            a, bb, l, i = key
            for mm, exp in enumerate(b.exponents):
                if mm == m:
                    continue
                ea, eb, el, ei = exp
                assert not (
                    i == ei
                    and l >= el
                    and all(x >= y for x, y in zip(a, ea))
                    and all(x >= y for x, y in zip(bb, eb))
                )


def test_permutation_independence(rng):
    gens = [
        parse_vec("d1 + x1 d2^2", R2),
        parse_vec("d2", R2),
        parse_vec("x1 d1 + x2 d2", R2),
    ]
    b1 = reduce_basis(gens, LinearForm((1, 2)))
    b2 = reduce_basis(list(reversed(gens)), LinearForm((1, 2)))
    assert b1.elements == b2.elements


def test_homogenized_division_examples():
    gens = [parse_vec("d1 + x1 d2^2", R2), parse_vec("d2", R2)]
    b = reduce_basis(gens, LinearForm((1, 1)))
    H1 = b.elements[0]
    assert b.divide(H1).remainder.is_zero()
    x1 = parse_dt_op("x1", R2)
    assert b.divide(left_mul(x1, H1)).remainder.is_zero()
    b2 = basis_of(["d1"])
    assert not b2.divide(parse_dt_vec("1", R2)).remainder.is_zero()


def test_member_examples():
    gens = [parse_vec("x1 d1 + x2 d2", R2)]
    b = basis_of(["x1 d1 + x2 d2"])
    res = b.member(gens[0])
    assert res.is_member and res.l == 0
    x1g = left_mul(parse_op("x1", R2), gens[0])
    res2 = b.member(x1g)
    assert res2.is_member and res2.l <= 1
    res3 = b.member(parse_vec("d1", R2))
    assert not res3.is_member and res3.l is None and res3.l_max > 0


def test_member_needs_positive_t_power():
    # Q = -x1(d1 d2 + x1 d1) + x1 d1 d2 = -x1^2 d1 has order 1, but the
    # homogenized span only contains it after one extra factor of t
    gens = [parse_vec("d1 d2 + x1 d1", R2), parse_vec("x1 d1 d2", R2)]
    b = reduce_basis(gens, LinearForm((1, 1)))
    Q = parse_vec("x1^2 d1", R2)
    res = b.member(Q)
    assert res.is_member and res.l == 1
    assert not b.divide(homogenize_vec(Q)).remainder.is_zero()


def test_divide_by_non_monic_basis():
    from dfan.basis import StandardBasis
    from dfan.weights import TermOrder

    L = LinearForm((1, 1))
    scaled = homogenize_vec(parse_vec("2 x1 d1 + 2 x2 d2", R2))
    basis = StandardBasis(R2, [scaled], TermOrder().refine(L))
    G = homogenize_vec(parse_vec("x1 d1 + x2 d2", R2))
    res = basis.divide(G)
    assert res.remainder.is_zero()
    assert res.quotients[0] == parse_dt_op("1/2", R2)


def test_divide_checks_the_order_bound_of_passed_forms():
    # d1 t divides by h = d1 t + d2^2 with quotient 1 and remainder -d2^2:
    # under (0, 1) the product 1 * h has order 2, above the input's 0
    b = basis_of(["d1 + d2^2"], (1, 0))
    G = parse_dt_vec("d1 t", R2)
    assert b.divide(G).quotients[0] == parse_dt_op("1", R2)
    assert b.divide(G, [LinearForm((2, 1))]).remainder == parse_dt_vec("-d2^2", R2)
    with pytest.raises(DfanError) as got:
        b.divide(G, [LinearForm((0, 1))])
    assert str(got.value) == "L-order bound violated for form [0, 1]"


def audit_case():
    """A division with denominators: h = d1 t + d2^2 leads with d1 t under
    (1, 0), so G = 1/2 d1 t + 2/3 x2 d2^2 has quotient 1/2 and remainder
    2/3 x2 d2^2 - 1/2 d2^2.  Returns the basis and the arguments of its
    audit."""
    b = basis_of(["d1 + d2^2"], (1, 0))
    G = parse_dt_vec("1/2 d1 t + 2/3 x2 d2^2", R2)
    res = b.divide(G)
    assert res.quotients[0] == parse_dt_op("1/2", R2)
    assert res.remainder == parse_dt_vec("2/3 x2 d2^2 - 1/2 d2^2", R2)
    return b, G, list(res.quotients), dict(res.remainder.terms), G.terms


def test_audit_reads_the_returned_quotients():
    b, G, qops, rem, flat = audit_case()
    b._verify_division(G, qops, rem, flat, ())
    qops[0] = qops[0] + parse_dt_op("1/7", R2)
    with pytest.raises(DfanError, match="^division recomposition failed$"):
        b._verify_division(G, qops, rem, flat, ())


def test_audit_reads_the_returned_remainder():
    b, G, qops, rem, flat = audit_case()
    # x2 d2^2 keeps its place: only its coefficient tells
    rem[((0, 1), (0, 2), 0, 0)] += Fraction(1, 7)
    with pytest.raises(DfanError, match="^division recomposition failed$"):
        b._verify_division(G, qops, rem, flat, ())


def test_audit_bounds_forms_with_denominators():
    # d1 t and d2^2 both weigh 1/2 under [1/2, 1/4] and x2 d2^2 less;
    # under [1/2, 1/3] the product 1/2 h reaches 2/3, above G's order 1/2
    b, G, qops, rem, flat = audit_case()
    b._verify_division(G, qops, rem, flat, (LinearForm((Fraction(1, 2), Fraction(1, 4))),))
    L = LinearForm((Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(DfanError) as got:
        b._verify_division(G, qops, rem, flat, (L,))
    assert str(got.value) == "L-order bound violated for form [1/2, 1/3]"
    with pytest.raises(DfanError, match=r"form \[1/2, 1/3\]$"):
        b.divide(G, [L])


def test_gr_generators():
    # the principal symbols of the basis elements at the order's weight
    # generate the graded module
    b = basis_of(["x1 d1 + x2 d2"])
    [h] = b.elements
    assert ord_L_vec(h, LinearForm((1, 1))) == 0
    assert symbol_L(h, LinearForm((1, 1)), 0) == h

    b2 = basis_of(["d1 + x1 d2^2"], (1, 0))
    [h2] = b2.elements
    assert ord_L_vec(h2, LinearForm((1, 0))) == 1
    sigma2 = symbol_L(h2, LinearForm((1, 0)), 1)
    assert dehomogenize(sigma2) == parse_vec("d1", R2)


def test_gr_generators_dehomogenize_to_module_generators():
    # setting t = 1 in the symbols gives generators of the graded module
    L = LinearForm((2, 1))
    b = basis_of(["d1 + x1 d2^2"], (2, 1))
    for h in b.elements:
        assert not dehomogenize(symbol_L(h, L, ord_L_vec(h, L))).is_zero()


def test_plain_module_basis_membership():
    pb = plain_module_basis([parse_vec("d1", R2), parse_vec("x1 d2", R2)])
    assert pb.member(parse_vec("x2 d1", R2))
    assert not pb.member(parse_vec("x1", R2))
    assert not pb.member(parse_vec("1", R2))


def test_rank_two_with_shifts():
    g1 = parse_vec("d1 e1 + x1 d2 e2", RV)
    g2 = parse_vec("d2 e2", RV)
    b = reduce_basis([g1, g2], LinearForm((1, 1)))
    assert {format_vec(h) for h in b.elements} == {"d1 e1", "d2 e2"}


COEFS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def term_keys(emit_t):
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return st.tuples(exps, exps, st.integers(0, 2)) if emit_t else st.tuples(exps, exps)


@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.data())
def test_term_times_flat_matches_operator_product(emit_t, data):
    scalar = DtOp if emit_t else WeylOp

    def draw_vec():
        comps = st.dictionaries(term_keys(emit_t), COEFS, max_size=3)
        return from_components(RV, [scalar(RV, data.draw(comps)) for _ in range(RV.r)])

    def flat(v):  # the division's keys (alpha, beta, l, i)
        return dict(v.terms) if emit_t else _flatten(v)

    key = data.draw(term_keys(emit_t))
    coef = data.draw(COEFS.filter(bool))
    h, g = draw_vec(), draw_vec()
    acc = flat(g)
    mu = key if emit_t else key + (0,)
    _term_times_flat(mu, coef, flat(h), emit_t, acc)
    assert acc == flat(g + left_mul(scalar(RV, {key: coef}), h))


@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.booleans(), st.data())
def test_term_times_flat_matches_the_reference_expansion(emit_t, d_free, data):
    # the direct path of a multiplier x^a t^l adds the same terms, in the
    # same order of first insertion, as the term-by-term expansion
    comps = st.dictionaries(term_keys(True), st.integers(-3, 3), max_size=4)
    flat = {
        (a, b, l if emit_t else 0, i): c
        for i in range(2)
        for (a, b, l), c in data.draw(comps).items()
    }
    a, b, l = data.draw(term_keys(True))
    mu = (a, (0, 0) if d_free else b, l)
    coef = data.draw(st.integers(-3, 3).filter(bool))
    start = {key: c for key, c in flat.items() if c}
    acc, ref = dict(start), dict(start)
    got, want = [], []
    _term_times_flat(mu, coef, flat, emit_t, acc, got.append)
    ref_term_times_flat(mu, coef, flat, emit_t, ref, want.append)
    assert acc == ref and got == want


# the completion on the kernels it had before its shortcuts (exponent
# helpers, a product term by term, divisor lists rebuilt by every
# division, negated heap keys built on every push): the same elements,
# exponents, order decisions and cap messages


def ref_divides(exp, key):
    ea, eb, el, ei = exp
    a, b, l, i = key
    if i != ei or l < el:
        return False
    return all(x >= y for x, y in zip(a, ea)) and all(
        x >= y for x, y in zip(b, eb)
    )


def ref_exp_quotient(key, exp):
    return (
        tuple(x - y for x, y in zip(key[0], exp[0])),
        tuple(x - y for x, y in zip(key[1], exp[1])),
        key[2] - exp[2],
    )


def ref_lcm_exp(ei, ej):
    return (
        tuple(max(x, y) for x, y in zip(ei[0], ej[0])),
        tuple(max(x, y) for x, y in zip(ei[1], ej[1])),
        max(ei[2], ej[2]),
        ei[3],
    )


def ref_term_times_flat(mu, coef, flat, emit_t, acc, on_new=None):
    if emit_t:
        products = (
            (key + (i,), cc)
            for (a2, b2, l2, i), c2 in flat.items()
            for key, cc in ref_mul_terms(mu, coef, (a2, b2, l2), c2, True)
        )
    else:
        products = (
            ((na, nb, 0, i), cc)
            for (a2, b2, _, i), c2 in flat.items()
            for (na, nb), cc in ref_mul_terms(mu[:2], coef, (a2, b2), c2, False)
        )
    accumulate(acc, products, on_new)


def ref_divide_flat(g, basis_flats, exps, lcs, keyf, emit_t, bd):
    """``_divide_flat`` as it was: the divisor lists built on every call,
    each divisibility test a call, each heap key negated on every push."""
    by_comp = {}
    for m, exp in enumerate(exps):
        by_comp.setdefault(exp[3], []).append((m, exp))
    rem = {}
    scale = 1
    out = []
    tail = dict(g)
    heap = [(tuple(-x for x in keyf(key)), key) for key in tail]
    heapq.heapify(heap)
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
        for m, exp in by_comp.get(tau[3], ()):
            if ref_divides(exp, tau):
                mu = ref_exp_quotient(tau, exp)
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
                ref_term_times_flat(mu, -b, basis_flats[m], emit_t, tail, push)
                break
        else:
            rem[tau] = coef
            del tail[tau]
    if reduced:
        keyf.ranked(entered, reduced)
    return rem, scale, out


def ref_spair(fi, fj, ei, ej, lcm, emit_t):
    pi, pj = fi[ei], fj[ej]
    g = gcd(pi, pj)
    s = {}
    ref_term_times_flat(ref_exp_quotient(lcm, ei), pj // g, fi, emit_t, s)
    ref_term_times_flat(ref_exp_quotient(lcm, ej), -(pi // g), fj, emit_t, s)
    return s


def ref_buchberger(flats, keyf, emit_t):
    """``_buchberger`` as it was, with the chain criterion scanning the
    component's indices through ``ref_divides``."""
    basis, exps, lcs = [], [], []
    comps = {}
    heap = []
    pending = set()
    lcms = []
    bd = 0

    def add(flat):
        nonlocal bd
        flat, top = _leading(flat, keyf)
        new = len(basis)
        basis.append(flat)
        exps.append(top)
        lcs.append(flat[top])
        bd = max(bd, _degree(flat))
        for m in comps.setdefault(top[3], []):
            lcm = ref_lcm_exp(exps[m], top)
            pending.add((m, new))
            lcms.append(lcm)
            heapq.heappush(heap, (keyf(lcm), (m, new), lcm))
        comps[top[3]].append(new)

    def chain_skippable(i, j, lcm_ij):
        for m in comps[lcm_ij[3]]:
            if m in (i, j) or not ref_divides(exps[m], lcm_ij):
                continue
            pim = (min(i, m), max(i, m))
            pjm = (min(j, m), max(j, m))
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
        s = ref_spair(basis[i], basis[j], exps[i], exps[j], lcm_ij, emit_t)
        if s:
            rem = ref_divide_flat(s, basis, exps, lcs, keyf, emit_t, bd)[0]
            if rem:
                add(rem)
    keyf.ranked(lcms)
    return ref_autoreduce(basis, exps, keyf, emit_t)


def ref_autoreduce(basis, exps, keyf, emit_t):
    keyf.ranked(exps)
    order_idx = sorted(range(len(basis)), key=lambda m: (keyf(exps[m]), m))
    dedup, seen = [], set()
    for m in order_idx:
        if exps[m] not in seen:
            seen.add(exps[m])
            dedup.append(m)
    kept = [
        m for m in dedup if not any(mm != m and ref_divides(exps[mm], exps[m]) for mm in dedup)
    ]
    mini = [basis[m] for m in kept]
    mexp = [exps[m] for m in kept]
    rounds = 64
    for _ in range(rounds):
        changed = False
        for idx in range(len(mini)):
            if mini[idx] is None:
                continue
            live = [m for m in range(len(mini)) if m != idx and mini[m] is not None]
            rem = ref_divide_flat(
                mini[idx], [mini[m] for m in live], [mexp[m] for m in live],
                [mini[m][mexp[m]] for m in live], keyf, emit_t,
                max((_degree(mini[m]) for m in live), default=0),
            )[0]
            if not rem:
                mini[idx] = None
                changed = True
                continue
            rem, top = _leading(rem, keyf)
            if rem != mini[idx]:
                mini[idx], mexp[idx] = rem, top
                changed = True
        if not changed:
            break
    else:
        raise ResourceBoundExceeded(
            f"autoreduction did not stabilize within {rounds} rounds",
            cap="REDUCTION_ROUNDS",
            limit=rounds,
            observed=rounds + 1,
        )
    canon = TermOrder()
    return sorted(
        ((f, e) for f, e in zip(mini, mexp) if f is not None),
        key=lambda p: (canon.key(p[1], keyf.shifts), p[1]),
    )


def completion(generators, L):
    """(elements, exponents, order decisions, order cone) of reduce_basis,
    or the cap message."""
    try:
        b = reduce_basis(generators, L)
    except ResourceBoundExceeded as exc:
        return str(exc)
    assert all(
        type(c) is Fraction for h in b.elements for c in h.terms.values()
    )
    trace = b._trace.trace
    return b.elements, b.exponents, trace, b.order_cone


def ref_completion(generators, L):
    """``completion`` on the reference kernels."""
    ring = generators[0].ring
    keyf = _KeyCache(TermOrder().refine(L), ring.shifts, trace=True)
    flats = [primitive_part(homogenize_vec(g).terms)[2] for g in generators]
    try:
        done = ref_buchberger(flats, keyf, True)
    except ResourceBoundExceeded as exc:
        return str(exc)
    elements = tuple(
        DtVec(ring, _rational(f, Fraction(1, f[e]))) for f, e in done
    )
    return elements, tuple(e for _, e in done), keyf.trace, keyf.cone()


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_reduce_basis_matches_the_reference_kernels(data):
    generators = data.draw(fan_modules())
    k = generators[0].ring.k
    L = LinearForm(data.draw(st.tuples(*[st.integers(0, 4)] * k)))
    got, ref = completion(generators, L), ref_completion(generators, L)
    if isinstance(got, str) or isinstance(ref, str):
        assert got == ref
        return
    (*out, trace, cone), (*ref_out, ref_trace, ref_cone) = got, ref
    assert (out, cone) == (ref_out, ref_cone)
    # the reference repeats its inter-reduction until a round changes
    # nothing; the extra round only repeats decisions already taken
    assert ref_trace[: len(trace)] == trace
    assert all(entry in trace for entry in ref_trace[len(trace) :])


def wider_modules():
    """Two n = 2 generators of 2-3 terms of degree <= 3 with the
    coefficients of ``random_weyl_op``: wider than any ``fan_modules``
    draw, like the two-generator modules of the cap test in test_fan."""
    coef = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    gen = st.dictionaries(monomials(2, 3), coef, min_size=2, max_size=3)
    return st.lists(gen, min_size=2, max_size=2).map(
        lambda gs: [from_components(R2, [WeylOp(R2, g)]) for g in gs]
    )


def assert_one_pass_settles(generators, L):
    """One more pass of the autoreduction over the completion's output,
    in D[t]^r under L and in D^r under the plain order, takes no division
    step and returns it unchanged; a completion that trips a cap is
    skipped."""
    ring = generators[0].ring
    cases = (
        (_KeyCache(TermOrder().refine(L), ring.shifts), True,
         lambda g: homogenize_vec(g).terms),
        (_KeyCache(TermOrder(), ring.shifts), False, _flatten),
    )
    for keyf, emit_t, flat in cases:
        flats = [primitive_part(flat(g))[2] for g in generators]
        try:
            done = _buchberger(flats, keyf, emit_t)
        except ResourceBoundExceeded:
            continue
        flats, exps = [f for f, _ in done], [e for _, e in done]
        state = _DivState(flats, exps)
        for m, f in enumerate(flats):
            state.take(m)
            assert _divide_flat(f, state, keyf, emit_t) == (f, 1, [])
            state.put(m, f)
        assert _autoreduce(flats, exps, keyf, emit_t) == done


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_one_more_autoreduction_pass_changes_nothing(data):
    generators = data.draw(fan_modules())
    k = generators[0].ring.k
    assert_one_pass_settles(
        generators, LinearForm(data.draw(st.tuples(*[st.integers(0, 4)] * k)))
    )


@settings(max_examples=30, deadline=None)
@given(wider_modules(), st.tuples(st.integers(0, 4), st.integers(0, 4)))
def test_one_more_autoreduction_pass_changes_nothing_on_wider_modules(generators, w):
    assert_one_pass_settles(generators, LinearForm(w))


def ref_bd(basis_flats):
    """The degree cap's basis degree as _divide_flat computed it on every
    call: the largest total degree over every term of every element."""
    return max(
        (sum(a) + sum(b) + l for f in basis_flats for (a, b, l, _) in f),
        default=0,
    )


def divisors_of(basis_flats, lists):
    """The flats that a division by ``lists`` may use, in list order."""
    return [basis_flats[m] for lst in lists.values() for m, _, _ in lst]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_passed_basis_degree_equals_the_recomputed_one(data):
    # the division state's largest degree, in the completion, in the
    # autoreduction and for a finished basis, equals the full walk over
    # the divisors of each division
    generators = data.draw(fan_modules())
    k = generators[0].ring.k
    L = LinearForm(data.draw(st.tuples(*[st.integers(0, 4)] * k)))
    divide_flat = basis_module._divide_flat
    seen = []

    def checked(g, state, keyf, emit_t):
        bd = max(state.degs)
        assert bd == ref_bd(divisors_of(state.flats, state.lists))
        seen.append(bd)
        return divide_flat(g, state, keyf, emit_t)

    with mock.patch.object(basis_module, "_divide_flat", checked):
        try:
            b = reduce_basis(generators, L)
            b.member(generators[0])
            plain_module_basis(generators).member(generators[-1])
        except ResourceBoundExceeded:
            pass
    assert seen


LOOP = ("x1", "-2 x1 d1 - x2")


def test_looping_division_reports_its_degree_cap(monkeypatch):
    # the completion at (1, 1) returns t - 1/2 x2 t and x1; dividing their
    # S-pair reduces by the first element again and again while x2 climbs,
    # until the degree cap 3 + 2 + DEGREE_SLACK trips
    b = basis_of(LOOP)
    assert [format_vec(h) for h in b.elements] == ["-1/2 x2 t e1 + t e1", "x1 e1"]
    spair = parse_dt_vec("-1/2 x1 x2 t", R2)
    with pytest.raises(ResourceBoundExceeded, match="exceeded total degree 21;"):
        b.divide(spair)
    monkeypatch.setattr(basis_module, "DEGREE_SLACK", 2)
    with pytest.raises(ResourceBoundExceeded, match="exceeded total degree 7;"):
        b.divide(spair)
    # the loop takes one step per degree: a smaller step cap trips first
    monkeypatch.setattr(basis_module, "DEGREE_SLACK", 16)
    monkeypatch.setattr(basis_module, "STEP_CAP", 10)
    with pytest.raises(ResourceBoundExceeded, match="exceeded 10 steps;"):
        b.divide(spair)


@pytest.mark.parametrize(
    "L, loops", [((1, 1), True), ((1, 0), False)], ids=["at-1-1", "at-1-0"]
)
def test_a_completions_own_spair_loops_under_the_local_order(L, loops):
    # the first-divisor division on a completion's own output: the S-pair
    # of the two elements of the completion of LOOP, divided by that
    # completion, climbs past the degree cap at (1, 1), where
    # t - 1/2 x2 t leads with t, and gives zero at (1, 0)
    b = basis_of(LOOP, L)
    (fi, fj), (ei, ej) = b._state.flats, b._state.exps
    spair = DtVec(R2, _spair(fi, fj, ei, ej, _lcm_exp(ei, ej), True))
    if loops:
        with pytest.raises(ResourceBoundExceeded) as got:
            b.divide(spair)
        assert got.value.cap == "DEGREE_SLACK"
    else:
        assert b.divide(spair).remainder.is_zero()


def test_completion_reports_its_size_cap(monkeypatch):
    # the completion at (1, 1) adds one remainder to the two generators
    # before autoreduction leaves two elements
    monkeypatch.setattr(basis_module, "MAX_BASIS_ELEMENTS", 3)
    assert [format_vec(h) for h in basis_of(LOOP).elements] == [
        "-1/2 x2 t e1 + t e1", "x1 e1",
    ]
    monkeypatch.setattr(basis_module, "MAX_BASIS_ELEMENTS", 2)
    with pytest.raises(ResourceBoundExceeded, match="exceeded 2 basis elements;") as got:
        basis_of(LOOP)
    assert (got.value.cap, got.value.limit, got.value.observed) == (
        "MAX_BASIS_ELEMENTS", 2, 3,
    )


# the completion and division on Fraction flats, as they were before the
# integer kernel: the reference for elements, exponents, order decisions,
# quotients, remainders and caps


def fraction_divide_flat(g, basis_flats, exps, lcs, keyf, emit_t, bd):
    """(quotient term dicts, remainder dict) of the Fraction division."""
    quots = [dict() for _ in basis_flats]
    rem = {}
    tail = dict(g)
    heap = [(tuple(-x for x in keyf(key)), key) for key in tail]
    heapq.heapify(heap)
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
        tau = heapq.heappop(heap)[1]
        steps += 1
        if steps > STEP_CAP:
            raise ResourceBoundExceeded(
                "steps", cap="STEP_CAP", limit=STEP_CAP, observed=steps
            )
        degree = sum(tau[0]) + sum(tau[1]) + tau[2]
        if degree > cap:
            raise ResourceBoundExceeded(
                "degree", cap="DEGREE_SLACK", limit=cap, observed=degree
            )
        coef = tail[tau]
        for m, exp in enumerate(exps):
            if _divides(exp, tau):
                mu = _exp_quotient(tau, exp)
                cq = coef / lcs[m]
                if entered is not None:
                    reduced.append(tau)
                quots[m][mu] = quots[m].get(mu, 0) + cq
                if not quots[m][mu]:
                    del quots[m][mu]
                _term_times_flat(mu, -cq, basis_flats[m], emit_t, tail, push)
                break
        else:
            rem[tau] = coef
            del tail[tau]
    if reduced:
        keyf.ranked(entered, reduced)
    return quots, rem


def fraction_spair(fi, fj, ei, ej, emit_t):
    lcm = _lcm_exp(ei, ej)
    s = {}
    _term_times_flat(_exp_quotient(lcm, ei), Fraction(1), fi, emit_t, s)
    _term_times_flat(_exp_quotient(lcm, ej), Fraction(-1), fj, emit_t, s)
    return s


def fraction_monic(flat, keyf):
    top = keyf.leader(flat)
    lc = flat[top]
    if lc == 1:
        return flat, top
    return {k: v / lc for k, v in flat.items()}, top


def fraction_buchberger(flats, keyf, emit_t):
    monic = [fraction_monic(dict(f), keyf) for f in flats if f]
    basis = [f for f, _ in monic]
    exps = [e for _, e in monic]
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
        if chain_skippable(i, j, _lcm_exp(exps[i], exps[j])):
            continue
        s = fraction_spair(basis[i], basis[j], exps[i], exps[j], emit_t)
        if not s:
            continue
        _, rem = fraction_divide_flat(
            s, basis, exps, [Fraction(1)] * len(basis), keyf, emit_t, bd
        )
        if rem:
            rem, top = fraction_monic(rem, keyf)
            new = len(basis)
            basis.append(rem)
            exps.append(top)
            bd = max(bd, _degree(rem))
            for m in range(new):
                if exps[m][3] == exps[new][3]:
                    add_pair(m, new)
    keyf.ranked(lcms)
    return fraction_autoreduce(basis, exps, keyf, emit_t)


def fraction_autoreduce(basis, exps, keyf, emit_t):
    keyf.ranked(exps)
    order_idx = sorted(range(len(basis)), key=lambda m: (keyf(exps[m]), m))
    dedup, seen = [], set()
    for m in order_idx:
        if exps[m] not in seen:
            seen.add(exps[m])
            dedup.append(m)
    kept = [
        m for m in dedup if not any(mm != m and _divides(exps[mm], exps[m]) for mm in dedup)
    ]
    mini = [basis[m] for m in kept]
    mexp = [exps[m] for m in kept]
    rounds = 64
    for _ in range(rounds):
        changed = False
        for idx in range(len(mini)):
            if mini[idx] is None:
                continue
            live = [m for m in range(len(mini)) if m != idx and mini[m] is not None]
            _, rem = fraction_divide_flat(
                mini[idx],
                [mini[m] for m in live],
                [mexp[m] for m in live],
                [Fraction(1)] * len(live),
                keyf,
                emit_t,
                max((_degree(mini[m]) for m in live), default=0),
            )
            if not rem:
                mini[idx] = None
                changed = True
                continue
            rem, top = fraction_monic(rem, keyf)
            if rem != mini[idx]:
                mini[idx], mexp[idx] = rem, top
                changed = True
        if not changed:
            break
    else:
        raise ResourceBoundExceeded(
            "rounds", cap="REDUCTION_ROUNDS", limit=rounds, observed=0
        )
    canon = TermOrder()
    pairs = sorted(
        ((e, f) for e, f in zip(mexp, mini) if f is not None),
        key=lambda p: (canon.key(p[0], keyf.shifts), p[0]),
    )
    return [f for _, f in pairs]


def fraction_reduce_basis(generators, L):
    """(elements, exponents, order cone) of the Fraction completion."""
    ring = generators[0].ring
    keyf = _KeyCache(TermOrder().refine(L), ring.shifts, trace=True)
    done = fraction_buchberger(
        [homogenize_vec(g).terms for g in generators], keyf, True
    )
    exps = tuple(max(f, key=keyf) for f in done)
    return tuple(DtVec(ring, f) for f in done), exps, keyf.cone()


def fraction_divide(basis, G):
    """(quotients, remainder) of the Fraction division by ``basis``."""
    flats = [h.terms for h in basis.elements]
    keyf = _KeyCache(basis.order, basis.ring.shifts)
    exps = [max(f, key=keyf) for f in flats]
    quots, rem = fraction_divide_flat(
        G.terms, flats, exps, [f[e] for f, e in zip(flats, exps)], keyf, True,
        max(map(_degree, flats)),
    )
    return [DtOp(basis.ring, q) for q in quots], DtVec(basis.ring, rem)


def capped(f, *args):
    """f(*args), or the name of the cap it tripped."""
    try:
        return f(*args)
    except ResourceBoundExceeded as exc:
        return exc.cap


def integer_completion(generators, L):
    b = reduce_basis(generators, L)
    return b.elements, b.exponents, b.order_cone


def integer_divide(basis, G):
    res = basis.divide(G)
    return res.quotients, res.remainder


SCALES = st.sampled_from((1, -1, 2, Fraction(-2, 3), Fraction(3, 2), Fraction(-1, 4)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integer_completion_matches_the_fraction_reference(data):
    generators = data.draw(fan_modules())
    ring = generators[0].ring
    k = ring.k
    L = LinearForm(data.draw(st.tuples(*[st.integers(0, 4)] * k)))
    divide_flat = basis_module._divide_flat

    def checked(g, state, *args):
        # the completion divides by primitive flats with positive leaders,
        # listed in index order under their component with their
        # exponent's parts
        for i, lst in state.lists.items():
            assert [m for m, _, _ in lst] == sorted(m for m, _, _ in lst)
            for m, parts, e in lst:
                f = state.flats[m]
                assert e == state.exps[m] and e[3] == i
                assert parts == e[0] + e[1] + (e[2],)
                assert f[e] == state.lcs[m] > 0 and gcd(*f.values()) == 1
                assert state.degs[m] == _degree(f)
        return divide_flat(g, state, *args)

    with mock.patch.object(basis_module, "_divide_flat", checked):
        got = capped(integer_completion, generators, L)
    assert got == capped(fraction_reduce_basis, generators, L)
    if isinstance(got, str):
        return
    b = reduce_basis(generators, L)
    # the completion's own integer flats: primitive, with positive leaders,
    # each its monic element times the leader
    for h, u, f, e in zip(b.elements, b._contents, b._state.flats, b._state.exps):
        assert f[e] > 0 and gcd(*f.values()) == 1 and u == Fraction(1, f[e])
        assert _rational(f, u) == h.terms
    # divide by the basis and by a rescaled copy (negative and non-unit
    # leaders, rational contents), in both orders of the same weight
    rescaled = StandardBasis(
        ring, [scaled(h, data.draw(SCALES)) for h in b.elements], b.order
    )
    for G in map(homogenize_vec, data.draw(fan_modules().filter(
        lambda gs: gs[0].ring == ring
    ))):
        for basis in (b, rescaled):
            assert capped(integer_divide, basis, G) == capped(fraction_divide, basis, G)
            # the integer remainder is a positive multiple of the rational one
            try:
                _, _, scale, steps = basis._reduce(G.terms, True)
            except ResourceBoundExceeded:
                continue
            assert scale > 0 and all(s > 0 for *_, s in steps)


def normal_form(plain, G):
    """The remainder of G divided by a plain basis, as a WeylVec: the
    reference route to its ``member``."""
    c, rem, scale, _ = plain._reduce(_flatten(G), False)
    return _unflatten(plain.ring, _rational(rem, c / scale))


def integer_normal_form(generators, G):
    plain = plain_module_basis(generators)
    return plain.elements, normal_form(plain, G)


def fraction_normal_form(generators, G):
    ring = generators[0].ring
    keyf = _KeyCache(TermOrder(), ring.shifts)
    flats = fraction_buchberger([_flatten(g) for g in generators], keyf, False)
    exps = [max(f, key=keyf) for f in flats]
    _, rem = fraction_divide_flat(
        _flatten(G), flats, exps, [Fraction(1)] * len(flats), keyf, False,
        max(map(_degree, flats)),
    )
    return tuple(_unflatten(ring, f) for f in flats), _unflatten(ring, rem)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_plain_normal_form_matches_the_fraction_reference(data):
    generators = data.draw(fan_modules())
    ring = generators[0].ring
    G = data.draw(fan_modules().filter(lambda gs: gs[0].ring == ring))[0]
    assert capped(integer_normal_form, generators, G) == capped(
        fraction_normal_form, generators, G
    )


def reference_member(basis, Q, l_max):
    """The least l <= l_max at which t^l h(Q) divides to a zero remainder
    through the Fraction quotients of ``divide``."""
    hq = homogenize_vec(Q)
    for l in range(l_max + 1):
        if basis.divide(t_power_times(hq, l)).remainder.is_zero():
            return True, l
    return False, None


def integer_member(basis, Q, l_max):
    res = basis.member(Q, l_max)
    return res.is_member, res.l


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_member_matches_the_division_and_normal_form_routes(data):
    generators = data.draw(fan_modules())
    ring = generators[0].ring
    g = generators[0]
    mult = WeylOp(ring, data.draw(st.dictionaries(
        monomials(ring.n, 2), COEFFICIENTS.map(Fraction), min_size=1, max_size=2
    )))
    queries = [g, left_mul(mult, g)]
    queries += data.draw(fan_modules().filter(lambda gs: gs[0].ring == ring))
    L = LinearForm(data.draw(st.tuples(*[st.integers(0, 4)] * ring.k)))
    l_max = data.draw(st.integers(0, 3))
    b = capped(reduce_basis, generators, L)
    if not isinstance(b, str):
        for Q in queries:
            assert capped(integer_member, b, Q, l_max) == capped(
                reference_member, b, Q, l_max
            )
    plain = capped(plain_module_basis, generators)
    if not isinstance(plain, str):
        for Q in queries:
            assert capped(plain.member, Q) == capped(
                lambda G: normal_form(plain, G).is_zero(), Q
            )
