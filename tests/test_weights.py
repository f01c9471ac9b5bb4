from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from dfan.errors import WeightError, ZeroInputError
from dfan.grammar import parse_dt_vec, parse_op, parse_vec
from dfan.basis import StandardBasis
from dfan.weights import (
    LinearForm,
    NEG_INF,
    TermOrder,
    ones_form,
    ord_L_vec,
    symbol_L,
)
from dfan.weyl import DtVec, RingDescriptor, WeylVec
from conftest import COEFFICIENTS, components, random_nonzero_op

R1 = RingDescriptor(1, 1, 1)
R2 = RingDescriptor(2, 2, 1)
RS = RingDescriptor(2, 2, 2, [[0, 0], [1, 0]])


def test_linear_form_nonnegative():
    with pytest.raises(WeightError):
        LinearForm((-1, 0))


def test_linear_form_prints_its_coefficients():
    assert str(LinearForm((0, 1))) == "[0, 1]"
    assert str(LinearForm((Fraction(1, 2), 2))) == "[1/2, 2]"
    assert repr(LinearForm((0, 1))) == "LinearForm([Fraction(0, 1), Fraction(1, 1)])"


def test_ord_L_vec_with_shifts():
    L = LinearForm((1, 0))
    assert ord_L_vec(parse_vec("d1 e1", RS), L) == 1
    assert ord_L_vec(parse_vec("x1 e2", RS), L) == 0
    assert ord_L_vec(parse_vec("d1 e1 + x1 e2", RS), L) == 1


def test_ord_ignores_t():
    L = LinearForm((1, 0))
    v = parse_dt_vec("x1 t^3 e1", R2)
    assert ord_L_vec(v, L) == -1


def test_symbol_examples():
    L1 = LinearForm((1,))
    P = parse_op("d1 + x1", R1)
    assert symbol_L(P, L1, ord_L_vec(P, L1)) == parse_op("d1", R1)
    assert symbol_L(P, L1, 1) == parse_op("d1", R1)
    with pytest.raises(WeightError):
        symbol_L(P, L1, 0)  # ord exceeds the requested degree
    E = parse_op("x1 d1 + x2 d2", R2)
    assert symbol_L(E, LinearForm((1, 1)), 0) == E


def test_symbol_higher_stratum_zero():
    P = parse_op("x1 d1", R2)
    s = symbol_L(P, LinearForm((1, 1)), 1)
    assert s.is_zero()


def test_symbol_multiplicativity(rng):
    forms = [LinearForm((1, 0)), LinearForm((0, 1)), LinearForm((2, 3))]
    for _ in range(25):
        P = random_nonzero_op(rng, R2, max_degree=3)
        Q = random_nonzero_op(rng, R2, max_degree=3)
        for L in forms:
            left, sP, sQ = (symbol_L(B, L, ord_L_vec(B, L)) for B in (P * Q, P, Q))
            assert left == sP * sQ


def test_ord_additive_for_lifted_forms(rng):
    L = LinearForm((1, 2))
    for _ in range(25):
        P = random_nonzero_op(rng, R2, max_degree=3)
        Q = random_nonzero_op(rng, R2, max_degree=3)
        assert ord_L_vec(P * Q, L) == ord_L_vec(P, L) + ord_L_vec(Q, L)


def test_ord_invariant_under_smaller_terms():
    L = LinearForm((1, 0))
    big = parse_op("d1^2", R2)
    small = parse_op("x1^3", R2)
    assert ord_L_vec(big + small, L) == ord_L_vec(big, L)


def privileged_exponent(G, order):
    """The largest exponent of G under the order: that of a one-element
    basis."""
    return StandardBasis(G.ring, [G], order).exponents[0]


def test_privileged_exponent_examples(rng):
    order = TermOrder().refine(ones_form(2))
    G = parse_dt_vec("x1 e1", R2)
    assert privileged_exponent(G, order) == ((1, 0), (0, 0), 0, 0)
    # under any refinement with positive first weight the d-term wins
    G2 = parse_dt_vec("d1 e1 + x1 t e1", R2)
    assert privileged_exponent(G2, order) == ((0, 0), (1, 0), 0, 0)
    with pytest.raises(ZeroInputError):
        privileged_exponent(parse_dt_vec("x1 e1", R2) - parse_dt_vec("x1 e1", R2), order)


def test_privileged_exponent_in_support(rng):
    from conftest import random_vec

    order = TermOrder().refine(LinearForm((1, 2)))
    for _ in range(25):
        V = random_vec(rng, RS)
        # a basis lives in D[t]^r: V's terms with l = 0
        G = DtVec(RS, {(a, b, 0, i): c for (a, b, i), c in V.terms.items()})
        a, b, l, i = privileged_exponent(G, order)
        assert l == 0 and (a, b, i) in V.terms


def test_order_ranks_d_before_x():
    order = TermOrder()
    kx = order.key(((1, 0), (0, 0), 0, 0), ((0, 0),))
    kd = order.key(((0, 0), (1, 0), 0, 0), ((0, 0),))
    assert kd > kx


def test_order_compatible_with_addition(rng):
    import random

    order = TermOrder().refine(LinearForm((1, 2)))
    r = random.Random(5)
    for _ in range(200):
        def rnd():
            return (
                tuple(r.randint(0, 3) for _ in range(2)),
                tuple(r.randint(0, 3) for _ in range(2)),
                r.randint(0, 2),
            )

        u, v, w = rnd(), rnd(), rnd()

        def add(p, q):
            return (
                tuple(a + b for a, b in zip(p[0], q[0])),
                tuple(a + b for a, b in zip(p[1], q[1])),
                p[2] + q[2],
            )

        def key(p):
            return order.key(p + (0,), ((0, 0),))

        if key(u) < key(v):
            assert key(add(u, w)) < key(add(v, w))


def reference_key(order, key, comp=0, shifts=None):
    """The nested Fraction key that the flat integer key replaced."""
    if len(key) == 3:
        a, b, l = key
    else:
        (a, b), l = key, 0
    wpart = []
    for L in order.weights:
        w = ref_weight(L.coeffs, a, b)
        if shifts is not None:
            w += ref_of(L.coeffs, shifts[comp])
        wpart.append(w)
    deg = sum(a) + sum(b) + l
    revlex = tuple(-e for e in (l,) + tuple(reversed(a)) + tuple(reversed(b)))
    return (tuple(wpart), deg, revlex, -comp)


def ref_key_tuple(order, key, comp=0, shifts=None):
    """``TermOrder.key`` as it was: a list grown in a loop, then copied."""
    if len(key) == 3:
        a, b, l = key
    else:
        (a, b), l = key, 0
    out = []
    for c in order._scaled:
        w = sum(map(mul, c, b)) - sum(map(mul, c, a))
        if shifts is not None:
            w += sum(map(mul, c, shifts[comp]))
        out.append(w)
    out.append(sum(a) + sum(b) + l)
    out.append(-l)
    out.extend(-e for e in reversed(a))
    out.extend(-e for e in reversed(b))
    out.append(-comp)
    return tuple(out)


@st.composite
def keyed_orders(draw):
    """An order of 0-2 forms with non-primitive rational coefficients
    (the zero form included), shifts, and two exponents to compare."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, n))
    r = draw(st.integers(1, 3))
    coef = st.fractions(min_value=0, max_value=3, max_denominator=4)
    forms = draw(st.lists(st.lists(coef, min_size=k, max_size=k), max_size=2))
    order = TermOrder([LinearForm(c) for c in forms])
    shifts = draw(
        st.one_of(
            st.just([[0] * k] * r),
            st.lists(
                st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                min_size=r,
                max_size=r,
            ),
        )
    )
    exps = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    u = draw(st.tuples(exps, exps, st.integers(0, 2)))
    # half the time v permutes the entries of u: same degree, so the
    # revlex part decides unless the weights do
    if draw(st.booleans()):
        flat = draw(st.permutations(u[0] + u[1] + (u[2],)))
        v = (tuple(flat[:n]), tuple(flat[n : 2 * n]), flat[2 * n])
    else:
        v = draw(st.tuples(exps, exps, st.integers(0, 2)))
    comp = st.integers(0, r - 1)
    return order, shifts, (u, draw(comp)), (v, draw(comp))


@settings(max_examples=300, deadline=None)
@given(keyed_orders())
def test_flat_integer_key_matches_reference_order(case):
    order, shifts, (u, i), (v, j) = case
    ku, kv = order.key(u + (i,), shifts), order.key(v + (j,), shifts)
    ru, rv = reference_key(order, u, i, shifts), reference_key(order, v, j, shifts)
    assert all(type(x) is int for x in ku + kv)
    assert len(ku) == len(kv)
    assert (ku < kv) == (ru < rv)
    assert (ku == kv) == (ru == rv)


@settings(max_examples=300, deadline=None)
@given(keyed_orders())
def test_key_matches_the_reference_tuple(case):
    # flat keys (alpha, beta, l, i), with zero or drawn shifts, under 0-2
    # forms
    order, shifts, (u, i), _ = case
    assert order.key(u + (i,), shifts) == ref_key_tuple(order, u, i, shifts)


def ref_of(coeffs, v):
    """The Fraction sum that the integer forms replaced."""
    return sum((c * x for c, x in zip(coeffs, v)), Fraction(0))


def ref_weight(coeffs, alpha, beta):
    return ref_of(coeffs, beta) - ref_of(coeffs, alpha)


def ref_ord_L_vec(B, coeffs):
    offs = [ref_of(coeffs, n) for n in B.shifts]
    return max(
        (ref_weight(coeffs, key[0], key[1]) + offs[i] for key, i, _ in B.iter_terms()),
        default=NEG_INF,
    )


def ref_symbol_L(B, coeffs, d):
    offs = [ref_of(coeffs, n) for n in B.shifts]
    return type(B).from_terms(
        B.ring,
        (
            (key, i, c)
            for key, i, c in B.iter_terms()
            if ref_weight(coeffs, key[0], key[1]) + offs[i] == d
        ),
    )


@st.composite
def forms_on_operands(draw):
    """Coefficients with denominators 1-6 (zeros included), an operand of
    a shifted ring (a scalar, a vector or a t-vector, possibly zero), and
    an integer vector to evaluate on."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, n))
    r = draw(st.integers(1, 2))
    coeffs = draw(st.lists(
        st.builds(Fraction, st.integers(0, 6), st.integers(1, 6)), min_size=k, max_size=k
    ))
    column = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
    ring = RingDescriptor(n, k, r, draw(st.lists(column, min_size=r, max_size=r)))
    exps = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    dt = draw(st.booleans())
    keys = st.tuples(exps, exps, st.integers(0, 2)) if dt else st.tuples(exps, exps)
    terms = draw(st.lists(st.tuples(keys, st.integers(0, r - 1), COEFFICIENTS), max_size=5))
    B = (DtVec if dt else WeylVec).from_terms(ring, terms)
    if r == 1 and draw(st.booleans()):
        B = components(B)[0]
    vecs = st.lists(st.integers(-4, 4), min_size=k, max_size=n).map(tuple)
    return coeffs, B, draw(vecs)


@settings(max_examples=300, deadline=None)
@given(forms_on_operands())
def test_integer_forms_match_the_fraction_reference(case):
    coeffs, B, v = case
    L = LinearForm(coeffs)
    assert L.coeffs == tuple(coeffs)
    assert all(type(c) is Fraction for c in L.coeffs)
    assert str(L) == "[" + ", ".join(map(str, coeffs)) + "]"
    assert hash(L) == hash(tuple(coeffs))
    assert all(type(c) is int for c in L.ints) and L.den >= 1
    assert tuple(Fraction(c, L.den) for c in L.ints) == L.coeffs
    for got, want in [
        (L.of(v), ref_of(coeffs, v)),
        (ord_L_vec(B, L), ref_ord_L_vec(B, coeffs)),
    ]:
        assert got == want and type(got) is type(want)
    top = ord_L_vec(B, L)
    if top is NEG_INF:
        assert B.is_zero()
        assert symbol_L(B, L, 0).is_zero()
        return
    degrees = {top, top + Fraction(1, 7), top + 1}
    degrees.update(
        ref_weight(coeffs, key[0], key[1]) + ref_of(coeffs, B.shifts[i])
        for key, i, _ in B.iter_terms()
    )
    for d in sorted(degrees):
        if d < top:
            with pytest.raises(WeightError):
                symbol_L(B, L, d)
        else:
            assert symbol_L(B, L, d) == ref_symbol_L(B, coeffs, d)
    assert not symbol_L(B, L, top).is_zero()
