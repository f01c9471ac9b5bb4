import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dfan import weyl
from dfan.errors import ResourceBoundExceeded, RingMismatchError, ZeroInputError
from dfan.grammar import parse_dt_op, parse_dt_vec, parse_op, parse_vec
from dfan.basis import _flatten
from dfan.grammar import format_vec
from dfan.weyl import (
    DtOp,
    RingDescriptor,
    WeylOp,
    _mul_terms,
    _term_times_flat,
    accumulate,
    content_free,
    dehomogenize,
    homogenize_vec,
    monomial_multiples,
    require_f_homogeneous,
)
from conftest import (
    apply_op,
    components,
    from_components,
    monomials_up_to,
    random_dt_op,
    random_nonzero_op,
    random_vec,
    ref_add,
    ref_content_free,
    ref_dehomogenize,
    ref_format_vec,
    ref_homogenize_vec,
    ref_left_mul,
    ref_monomial_multiples,
    ref_mul_terms,
    uncapped_monomial_multiples,
)

R1 = RingDescriptor(1, 1, 1)
R2 = RingDescriptor(2, 2, 1)
R3 = RingDescriptor(3, 3, 1)


def op(text, ring=R2):
    return parse_op(text, ring)


def test_leibniz_basic():
    assert op("d1") * op("x1") == op("x1 d1 + 1")


def test_unit_law(rng):
    for _ in range(20):
        P = random_nonzero_op(rng, R2)
        assert op("1") * P == P
        assert P * op("1") == P


def test_derivative_of_square():
    assert op("d1") * op("x1^2") == op("x1^2 d1 + 2 x1")


def test_mul_matches_action_oracle(rng):
    # compare the ring product with composition of actions on polynomials
    for _ in range(30):
        P = random_nonzero_op(rng, R2, max_degree=3)
        Q = random_nonzero_op(rng, R2, max_degree=3)
        PQ = P * Q
        for gamma in monomials_up_to(2, 5):
            poly = {gamma: Fraction(1)}
            assert apply_op(PQ, poly) == apply_op(P, apply_op(Q, poly))


def test_associativity_and_distributivity(rng):
    for _ in range(25):
        P = random_nonzero_op(rng, R3, max_degree=3, max_terms=3)
        Q = random_nonzero_op(rng, R3, max_degree=3, max_terms=3)
        S = random_nonzero_op(rng, R3, max_degree=3, max_terms=3)
        assert (P * Q) * S == P * (Q * S)
        assert P * (Q + S) == P * Q + P * S


def test_commutator_delta():
    for i in range(2):
        for j in range(2):
            di = op(f"d{i + 1}")
            xj = op(f"x{j + 1}")
            comm = di * xj - xj * di
            expected = op("1") if i == j else WeylOp(R2)
            assert comm == expected


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        parse_op("x1", R1) * parse_op("x1", R2)


def test_canonicalization_idempotent(rng):
    for _ in range(10):
        P = random_nonzero_op(rng, R2)
        assert WeylOp(R2, dict(P.terms)) == P


# D[t]


def dt(text, ring=R2):
    return parse_dt_op(text, ring)


def test_dt_commutator_emits_t():
    assert dt("d1") * dt("x1") == dt("x1 d1 + t")


def test_t_central(rng):
    t = dt("t")
    for _ in range(10):
        P = random_dt_op(rng, R2)
        assert t * P == P * t


def test_dt_example_against_dehomogenized_product():
    left = dt("d1") * dt("x1^2 d2")
    assert left == dt("x1^2 d1 d2 + 2 x1 d2 t")
    assert dehomogenize(left) == op("d1") * op("x1^2 d2")


def test_dt_mul_dehomogenizes_to_plain_mul(rng):
    for _ in range(25):
        P = random_dt_op(rng, R2, max_degree=3)
        Q = random_dt_op(rng, R2, max_degree=3)
        assert dehomogenize(P * Q) == dehomogenize(P) * dehomogenize(Q)


def test_dt_commutator_vs_plain():
    for i in range(2):
        for j in range(2):
            comm = dt(f"d{i + 1}") * dt(f"x{j + 1}") - dt(f"x{j + 1}") * dt(f"d{i + 1}")
            expected = dt("t") if i == j else DtOp(R2)
            assert comm == expected


def test_f_homogeneity_closure(rng):
    count = 0
    while count < 20:
        P = random_dt_op(rng, R2, max_degree=4)
        Q = random_dt_op(rng, R2, max_degree=4)
        dp, dq = P.f_degree(), Q.f_degree()
        if dp is None or dq is None:
            continue
        count += 1
        prod = P * Q
        if prod.is_zero():
            continue
        assert prod.f_degree() == dp + dq


# homogenization


def homogenize(P):
    """h(P) of a scalar operator, as a vector of rank one."""
    return homogenize_vec(from_components(P.ring, [P]))


def test_homogenize_first_order():
    assert homogenize(op("d1 + x1", R1)) == parse_dt_vec("d1 + x1 t", R1)


def test_homogenize_order_zero():
    assert homogenize(op("x1", R1)) == parse_dt_vec("x1", R1)


def test_homogenize_paper_operator():
    h = homogenize(op("1 + x1^2 d1", R1))
    assert h == parse_dt_vec("t + x1^2 d1", R1)
    assert require_f_homogeneous(h) == 1


def test_homogenize_zero_rejected():
    with pytest.raises(ZeroInputError):
        homogenize(WeylOp(R1))


def test_homogenize_vec_examples():
    B = parse_vec("d1 e1 + x1 e2", RingDescriptor(1, 1, 2))
    H = homogenize_vec(B)
    assert H == parse_dt_vec("d1 e1 + x1 t e2", RingDescriptor(1, 1, 2))

    Rv = RingDescriptor(2, 2, 2)
    B2 = parse_vec("d1 e1", Rv)
    assert homogenize_vec(B2) == parse_dt_vec("d1 e1", Rv)

    B3 = parse_vec("d1^2 e1 + x2 d1 e2", Rv)
    H3 = homogenize_vec(B3)
    assert H3 == parse_dt_vec("d1^2 e1 + x2 d1 t e2", Rv)
    assert require_f_homogeneous(H3) == 2


def test_dehomogenize_examples():
    assert dehomogenize(dt("t + x1^2 d1", R1)) == op("1 + x1^2 d1", R1)
    assert dehomogenize(dt("x1 t^2 + x1", R1)) == op("2 x1", R1)


def test_dehomogenize_section(rng):
    for _ in range(25):
        P = random_nonzero_op(rng, R2)
        assert dehomogenize(homogenize(P)) == from_components(R2, [P])


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.integers(0, 4), st.integers(-3, 3).filter(bool), max_size=4),
    st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 3)), max_size=20),
)
def test_accumulate_matches_reference_sum(start, pairs):
    acc = {key: Fraction(c) for key, c in start.items()}
    terms = [(key, Fraction(c)) for key, c in pairs]
    fresh = []
    assert accumulate(acc, terms, fresh.append) is acc
    total = {}
    for key, c in list(start.items()) + pairs:
        total[key] = total.get(key, 0) + c
    assert acc == {key: c for key, c in total.items() if c}
    # a key is inserted afresh whenever its running sum leaves zero
    running = dict(start)
    expected = []
    for key, c in pairs:
        before = running.get(key, 0)
        running[key] = before + c
        if before == 0 and running[key] != 0:
            expected.append(key)
    assert fresh == expected


@pytest.mark.parametrize(
    "text, ring",
    [
        ("x1 d1 + x2 d2", R2),
        ("d1^2 e1 + x2 d1 e2", RingDescriptor(2, 2, 2)),
        ("x1 d3 + 2 x2", R3),
    ],
)
def test_monomial_multiples_keeps_order(text, ring):
    g = parse_vec(text, ring)
    for room in range(-1, 5):
        got = list(monomial_multiples(g, room))
        assert got == [v.terms for v in uncapped_monomial_multiples(g, room)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(-1, 4),
    st.integers(0, 2**32),
)
def test_monomial_multiples_match_the_filtered_product(n, r, room, seed):
    # direct compositions and d^b g built by single d_i steps, as flat
    # dicts, against one full Weyl product per tuple of the filtered
    # (room + 1)^(2n) box, flattened
    g = random_vec(random.Random(seed), RingDescriptor(n, 1, r), max_degree=3)
    got = list(monomial_multiples(g, room))
    assert got == [v.terms for v in uncapped_monomial_multiples(g, room)]
    assert all(type(c) is Fraction for v in got for c in v.values())


def test_monomial_multiples_cap_raises_before_first_product():
    g = parse_vec("x1 d1 + x2 d2", R2)
    with pytest.raises(ResourceBoundExceeded, match="4598126 multipliers"):
        next(monomial_multiples(g, 100))


def test_monomial_multiples_cap_is_inclusive(monkeypatch):
    # n = 1: (room + 1)(room + 2)/2 tuples, so 10 at room 3 and 15 at room 4
    g = parse_vec("x1 d1", R1)
    monkeypatch.setattr(weyl, "MAX_MULTIPLIERS", 10)
    assert len(list(monomial_multiples(g, 3))) == 10
    with pytest.raises(ResourceBoundExceeded, match="exceed the cap of 10"):
        next(monomial_multiples(g, 4))


# the term kernel's commuting shortcut against the general nu-expansion it had
# (``ref_mul_terms`` in conftest.py)


@st.composite
def term_pairs(draw):
    """Two monomials in n = 1-3 variable pairs; half of them commute (no
    d_i of the left meets an x_i of the right)."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    a1, b1, a2, b2 = (draw(exps) for _ in range(4))
    if draw(st.booleans()):
        a2 = tuple(0 if b else a for a, b in zip(a2, b1))
    l1, l2 = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    return (a1, b1, l1), (a2, b2, l2)


COEFS = st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool)


@settings(max_examples=400, deadline=None)
@given(
    term_pairs(),
    st.one_of(st.sampled_from([1, -1, Fraction(1), Fraction(-1)]), COEFS),
    COEFS,
    st.booleans(),
)
def test_mul_terms_matches_the_nu_expansion(pair, c1, c2, emit_t):
    t1, t2 = pair if emit_t else (pair[0][:2], pair[1][:2])
    got = list(_mul_terms(t1, c1, t2, c2, emit_t))
    assert got == list(ref_mul_terms(t1, c1, t2, c2, emit_t))
    assert all(type(c) is Fraction for _, c in got)
    commute = not any(b and a for b, a in zip(t1[1], t2[0]))
    assert (len(got) == 1) is commute


# vectors on flat keys against the per-component reference in conftest.py


@st.composite
def vectors_and_a_scalar(draw):
    """Two vectors of one ring of rank 1-3, in D^r or in D[t]^r, as
    tuples of scalars, and a scalar of the same ring."""
    n, r, dt = draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(st.booleans())
    ring = RingDescriptor(n, n, r)
    exps = st.tuples(*[st.integers(0, 2)] * n)
    key = st.tuples(exps, exps, st.integers(0, 2)) if dt else st.tuples(exps, exps)
    scalar = DtOp if dt else WeylOp

    def draw_comps():
        terms = st.dictionaries(key, COEFS, max_size=3)
        return tuple(scalar(ring, draw(terms)) for _ in range(r))

    P = scalar(ring, draw(st.dictionaries(key, COEFS, max_size=2)))
    return draw_comps(), draw_comps(), P


@settings(max_examples=200, deadline=None)
@given(vectors_and_a_scalar(), st.integers(0, 2))
def test_flat_vectors_match_the_per_component_reference(case, room):
    u, v, P = case
    ring = P.ring
    dt = isinstance(P, DtOp)
    U, V = from_components(ring, u), from_components(ring, v)

    def terms(comps):
        return from_components(ring, comps).terms

    assert components(U) == u
    assert (U + V).terms == terms(ref_add(u, v))
    assert (U - V).terms == terms(ref_add(u, tuple(-c for c in v)))
    assert format_vec(U) == ref_format_vec(u)
    assert content_free(U).terms == terms(ref_content_free(u))
    # P U by the one monomial-times-vector kernel, on division's keys
    flat = (lambda X: dict(X.terms)) if dt else _flatten
    acc = {}
    for key, c in P.terms.items():
        _term_times_flat(key if dt else key + (0,), c, flat(U), dt, acc)
    assert acc == flat(from_components(ring, ref_left_mul(P, u)))
    if dt:
        assert dehomogenize(U).terms == terms(ref_dehomogenize(u))
    elif U:
        H = homogenize_vec(U)
        assert H.terms == terms(ref_homogenize_vec(u))
        assert format_vec(H) == ref_format_vec(ref_homogenize_vec(u))
        assert list(monomial_multiples(U, room)) == list(ref_monomial_multiples(u, room))


def test_a_scalar_and_a_vector_do_not_add():
    # their keys differ in shape: (alpha, beta) against (alpha, beta, i)
    P, V = parse_op("x1", R1), parse_vec("x1", R1)
    for a, b in ((P, V), (V, P), (P, homogenize_vec(V)), (V, homogenize_vec(V))):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
