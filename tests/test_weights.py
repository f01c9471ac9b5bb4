from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dfan.errors import WeightError, ZeroInputError
from dfan.grammar import parse_dt_vec, parse_op, parse_vec
from dfan.weights import (
    GeneralForm,
    LinearForm,
    NEG_INF,
    TermOrder,
    ones_form,
    ord_L_vec,
    ord_general,
    principal_symbol,
    privileged_exponent,
    symbol_L,
    usual_order_form,
)
from dfan.weyl import RingDescriptor, WeylOp
from conftest import random_nonzero_op

R1 = RingDescriptor(1, 1, 1)
R2 = RingDescriptor(2, 2, 1)
RS = RingDescriptor(2, 2, 2, [[0, 0], [1, 0]])


def test_general_form_constraints():
    GeneralForm((-1, 0), (1, 1))
    with pytest.raises(WeightError):
        GeneralForm((1, 0), (0, 0))  # e > 0
    with pytest.raises(WeightError):
        GeneralForm((-1, 0), (0, 0))  # e + f < 0


def test_linear_form_nonnegative():
    with pytest.raises(WeightError):
        LinearForm((-1, 0))


def test_ord_general_lifted_form():
    L = LinearForm((1, 0))
    assert ord_general(parse_op("x1^2 d1", R2), L.lift(2)) == -1
    assert ord_general(WeylOp(R2), L.lift(2)) is NEG_INF
    assert ord_general(parse_op("d1 d2 + x2", R2), LinearForm((1, 1)).lift(2)) == 2


def test_ord_usual_filtration_is_operator_order(rng):
    F = usual_order_form(2)
    for _ in range(20):
        P = random_nonzero_op(rng, R2)
        assert ord_general(P, F) == P.order()


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
    assert principal_symbol(parse_op("d1 + x1", R1), L1) == parse_op("d1", R1)
    P = parse_op("d1 + x1", R1)
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
            left = principal_symbol(P * Q, L)
            right = principal_symbol(P, L) * principal_symbol(Q, L)
            assert left == right


def test_ord_subadditive_for_general_forms(rng):
    forms = [
        GeneralForm((-1, 0), (2, 1)),
        GeneralForm((0, -2), (1, 2)),
        GeneralForm((Fraction(-1, 2), -1), (Fraction(3, 2), 1)),
    ]
    for _ in range(25):
        P = random_nonzero_op(rng, R2, max_degree=3)
        Q = random_nonzero_op(rng, R2, max_degree=3)
        prod = P * Q
        if prod.is_zero():
            continue
        for form in forms:
            assert ord_general(prod, form) <= ord_general(P, form) + ord_general(Q, form)


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
        a, b, l, i = privileged_exponent(V, order)
        assert (a, b) in V.components[i].terms


def test_order_ranks_d_before_x():
    order = TermOrder()
    kx = order.key(((1, 0), (0, 0), 0), 0, None)
    kd = order.key(((0, 0), (1, 0), 0), 0, None)
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

        if order.key(u, 0, None) < order.key(v, 0, None):
            assert order.key(add(u, w), 0, None) < order.key(add(v, w), 0, None)


def reference_key(order, key, comp=0, shifts=None):
    """The nested Fraction key that the flat integer key replaced."""
    if len(key) == 3:
        a, b, l = key
    else:
        (a, b), l = key, 0
    wpart = []
    for L in order.weights:
        w = L.weight(a, b)
        if shifts is not None:
            w += L.of(shifts[comp])
        wpart.append(w)
    deg = sum(a) + sum(b) + l
    revlex = tuple(-e for e in (l,) + tuple(reversed(a)) + tuple(reversed(b)))
    return (tuple(wpart), deg, revlex, -comp)


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
            st.none(),
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
    ku, kv = order.key(u, i, shifts), order.key(v, j, shifts)
    ru, rv = reference_key(order, u, i, shifts), reference_key(order, v, j, shifts)
    assert all(type(x) is int for x in ku + kv)
    assert len(ku) == len(kv)
    assert (ku < kv) == (ru < rv)
    assert (ku == kv) == (ru == rv)
    # a key without l is the key of l = 0
    assert order.key(u[:2], i, shifts) == order.key(u[:2] + (0,), i, shifts)
