import dataclasses
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dfan._linalg import in_row_space, rref, vanishing_rows
from dfan.basis import StandardBasis, reduce_basis
from dfan.errors import (
    CertificateError, ConeError, DfanError, SemanticError, SyntaxErrorWithPos,
)
from dfan.fan import standard_fan
from dfan.flatness import (
    FiltrationChain,
    MonomialIdeal,
    _Frame,
    flat_decompose,
    format_w_op,
    in_ideal_piece,
    intersection_oracle,
    kernel_normalize,
    monomial_filtration,
    offsets,
    parse_w_op,
    w_shift,
)
from dfan.grammar import SYZYGY, format_factors, format_sum, format_vec, parse_op, parse_sum, parse_vec
from dfan.toric import BasicCone, _adjugate, _bareiss, orthant_cone
from dfan.weights import LinearForm
from dfan.weyl import (
    RingDescriptor, WeylOp, WeylVec, accumulate, monomial_multiples, multi_weight,
)
from conftest import (
    chain_ideals, from_components, graded_dimension, left_mul, monomials, random_vec, scaled,
    unimodular_rows,
)

R2 = RingDescriptor(2, 2, 1)


# monomial ideals and chains


def test_minimal_generators_antichain():
    H = MonomialIdeal(2, [(2, 0), (2, 1), (0, 3), (1, 3)])
    assert H.gens == ((0, 3), (2, 0))


def test_colon_examples():
    H = MonomialIdeal(2, [(2, 0), (0, 1)])
    assert H.colon((1, 0)).gens == ((0, 1), (1, 0))
    assert H.colon((0, 0)) == H
    assert MonomialIdeal(1, [(1,)]).colon((0,)).coordinate_set() == (1,)


def test_coordinate_set():
    assert MonomialIdeal(3, [(1, 0, 0), (0, 0, 1)]).coordinate_set() == (1, 3)
    assert MonomialIdeal(2, [(1, 1)]).coordinate_set() is None
    assert MonomialIdeal(2, []).coordinate_set() == ()


def test_chain_single_variable():
    chain = monomial_filtration(MonomialIdeal(1, [(1,)]))
    assert [(s.monomial, s.J) for s in chain.steps] == [((0,), (1,))]


def test_chain_unit_ideal_empty():
    chain = monomial_filtration(MonomialIdeal(2, [(0, 0)]))
    assert chain.steps == ()


def test_chain_spec_example():
    chain = monomial_filtration(MonomialIdeal(2, [(2, 0), (0, 1)]))
    assert [(s.monomial, s.J) for s in chain.steps] == [
        ((1, 0), (1, 2)),
        ((0, 0), (1, 2)),
    ]


def test_chain_zero_ideal():
    chain = monomial_filtration(MonomialIdeal(2, []))
    assert [(s.monomial, s.J) for s in chain.steps] == [((0, 0), ())]


def graded_dim_quotient_coordinate(k, J, d):
    """Monomials of degree d in the variables outside J."""
    free = k - len(J)
    if d == 0:
        return 1
    from math import comb

    return comb(d + free - 1, free - 1) if free else 0


def test_chain_graded_dimensions(rng):
    # dim (H_{i+1}/H_i)_d == dim (C[W]/W_J)_{d - deg m} for all d <= 6
    for _ in range(12):
        k = rng.randint(1, 3)
        gens = [
            tuple(rng.randint(0, 4) for _ in range(k))
            for _ in range(rng.randint(1, 3))
        ]
        H = MonomialIdeal(k, gens)
        if H.is_unit():
            continue
        chain = monomial_filtration(H)
        chain.verify()
        ideals = chain_ideals(chain)
        for i, step in enumerate(chain.steps):
            before, after = ideals[i], ideals[i + 1]
            mdeg = sum(step.monomial)
            for d in range(7):
                lhs = graded_dimension(after, d) - graded_dimension(before, d)
                rhs = (
                    graded_dim_quotient_coordinate(k, step.J, d - mdeg)
                    if d >= mdeg
                    else 0
                )
                assert lhs == rhs


# offsets and syzygy normalization


def test_offsets_examples():
    assert offsets((1, 2), (1, 2)) == ((0, 0), (0, 0))
    assert offsets((2, 0), (0, 1)) == ((0, 1), (2, 0))
    assert offsets((3, 3), (1, 2)) == ((0, 0), (2, 1))


def test_kernel_normalize_rank_one_forces_zero():
    out = kernel_normalize([(1, 1)], [{}])
    assert out.matrix == {}


def test_kernel_normalize_rejects_bad_relation():
    q = parse_w_op("x1 d1", 2, 2)
    with pytest.raises(SemanticError):
        kernel_normalize([(0, 0)], [q])


def test_kernel_normalize_hand_syzygy():
    q1 = parse_w_op("x1 d1 w2", 2, 2)
    q2 = parse_w_op("- x1 d1 w1", 2, 2)
    out = kernel_normalize([(1, 0), (0, 1)], [q1, q2])
    out.verify([q1, q2])
    assert format_w_op(out.matrix[(1, 0)]) == "-x1 d1"


def test_w_shift_moves_only_the_w_exponents():
    term = {((1, 0), (0, 1), (0, 1)): Fraction(2)}
    assert w_shift(term, (1, -1)) == {((1, 0), (0, 1), (1, 0)): Fraction(2)}
    with pytest.raises(SemanticError, match="W-shift leaves the polynomial range"):
        w_shift(term, (0, -2))


def test_verify_rejects_a_corrupted_row_and_region():
    qs = [parse_w_op("x1 d1 w2", 2, 2), parse_w_op("- x1 d1 w1", 2, 2)]
    out = kernel_normalize([(1, 0), (0, 1)], qs)
    assert out.matrix == {
        (0, 0): qs[0], (1, 0): {((1, 0), (1, 0), (0, 0)): Fraction(-1)},
    }
    # a row whose region parts no longer sum to its operator
    bad_row = dataclasses.replace(out, matrix={**out.matrix, (0, 0): {}})
    with pytest.raises(DfanError, match=r"^row 0: sum of region parts differs from Q_i$"):
        bad_row.verify(qs)
    # Q_1 kept whole in its own region: every row still sums, but region
    # 0 is left with x1 d1 w2
    bad_region = dataclasses.replace(out, matrix={(0, 0): qs[0], (1, 1): qs[1]})
    with pytest.raises(DfanError, match=r"^region 0: cancellation identity fails$"):
        bad_region.verify(qs)


def random_syzygy(rng, r, k, n=2):
    """Combinations of the Koszul generators W^(a_j) e_i - W^(a_i) e_j."""
    a = [tuple(rng.randint(0, 3) for _ in range(k)) for _ in range(r)]
    qs = [{} for _ in range(r)]
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(r)
        j = rng.randrange(r)
        if i == j:
            continue
        alpha = tuple(rng.randint(0, 2) for _ in range(n))
        beta = tuple(rng.randint(0, 2) for _ in range(n))
        extra = tuple(rng.randint(0, 1) for _ in range(k))
        c = Fraction(rng.randint(-3, 3))
        if not c:
            continue
        accumulate(qs[i], w_shift({(alpha, beta, extra): c}, a[j]).items())
        accumulate(qs[j], w_shift({(alpha, beta, extra): -c}, a[i]).items())
    return a, qs


def test_kernel_normalize_random_syzygies(rng):
    done = 0
    while done < 25:
        r = rng.randint(2, 4)
        k = rng.randint(1, 3)
        a, qs = random_syzygy(rng, r, k)
        if not any(qs):
            continue
        done += 1
        out = kernel_normalize(a, qs)
        out.verify(qs)  # row sums and per-region cancellations


class RefWOp:
    """Reference for the term-dict normalizer: an operator class with
    its own sum, zero test and W-shift."""

    def __init__(self, n, k, terms=None):
        self.n, self.k = n, k
        if terms is None:
            self.terms = {}
        elif isinstance(terms, dict):
            self.terms = {key: c for key, c in terms.items() if c}
        else:
            self.terms = accumulate({}, terms)

    def is_zero(self):
        return not self.terms

    def w_shift(self, v):
        out = {}
        for (a, b, l), c in self.terms.items():
            nl = tuple(x + y for x, y in zip(l, v))
            if any(x < 0 for x in nl):
                raise SemanticError("W-shift leaves the polynomial range")
            out[(a, b, nl)] = c
        return RefWOp(self.n, self.k, out)

    def __add__(self, other):
        return RefWOp(self.n, self.k, accumulate(dict(self.terms), other.terms.items()))

    def __eq__(self, other):
        return (self.n, self.k, self.terms) == (other.n, other.k, other.terms)


def ref_parse_w_op(text, n, k):
    try:
        terms = parse_sum(text, SYZYGY)
    except SyntaxErrorWithPos as exc:
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
    return RefWOp(n, k, out)


def ref_format_w_op(q):
    return format_sum(
        (q.terms[key], format_factors(SYZYGY, key))
        for key in sorted(q.terms, key=lambda key: (sum(map(sum, key)), key))
    )


def ref_kernel_normalize(a_list, q_list):
    """Reference: (matrix, offsets) of the normalizer over RefWOp, checked
    row by row and region by region."""
    r = len(a_list)
    if r != len(q_list) or r == 0:
        raise SemanticError("need matching nonempty exponent/operator lists")
    a_list = tuple(tuple(int(c) for c in a) for a in a_list)
    n, k = q_list[0].n, len(a_list[0])
    total = RefWOp(n, k)
    for a, q in zip(a_list, q_list):
        total = total + q.w_shift(a)
    if not total.is_zero():
        raise SemanticError("the syzygy relation does not hold")

    def region(point):
        for p in range(r):
            if all(x >= y for x, y in zip(point, a_list[p])):
                return p
        raise DfanError("lattice point outside every region")

    matrix, offs = {}, {}
    for i, q in enumerate(q_list):
        buckets = {}
        for key, c in q.terms.items():
            p = region(tuple(x + y for x, y in zip(key[2], a_list[i])))
            buckets.setdefault(p, {})[key] = c
        for p, terms in sorted(buckets.items()):
            v, w = offsets(a_list[i], a_list[p])
            offs[(i, p)] = (v, w)
            matrix[(i, p)] = RefWOp(n, k, terms).w_shift(tuple(-x for x in v))
    for i, q in enumerate(q_list):
        total = RefWOp(n, k)
        for p in range(i + 1):
            if (i, p) in matrix:
                total = total + matrix[(i, p)].w_shift(offs[(i, p)][0])
        assert total == q
    for p in range(r):
        total = RefWOp(n, k)
        for i in range(p, r):
            if (i, p) in matrix:
                total = total + matrix[(i, p)].w_shift(offs[(i, p)][1])
        assert total.is_zero()
    return matrix, offs


def outcome(f, *args):
    """("ok", value) or ("error", (class, message))."""
    try:
        return ("ok", f(*args))
    except DfanError as exc:
        return ("error", (type(exc), str(exc)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.randoms(use_true_random=False), st.booleans())
def test_kernel_normalize_matches_the_operator_class_reference(r, k, rnd, broken):
    a, qs = random_syzygy(rnd, r, k)
    for q in filter(None, qs):
        ref_q = RefWOp(2, k, q)
        assert parse_w_op(ref_format_w_op(ref_q), 2, k) == q
        assert ref_parse_w_op(format_w_op(q), 2, k) == ref_q
    if broken:
        # a term outside the relation: both must reject it alike
        accumulate(qs[0], [(((1, 0), (0, 1), (0,) * k), Fraction(2))])
    got = outcome(kernel_normalize, a, qs)
    ref = outcome(ref_kernel_normalize, a, [RefWOp(2, k, q) for q in qs])
    assert got[0] == ref[0]
    if got[0] == "error":
        assert got[1] == ref[1]
        return
    out, (matrix, offs) = got[1], ref[1]
    assert out.a == tuple(map(tuple, a))
    assert out.matrix.keys() == matrix.keys()
    for key, rip in out.matrix.items():
        assert rip == matrix[key].terms
        assert format_w_op(rip) == ref_format_w_op(matrix[key])
        assert offsets(a[key[0]], a[key[1]]) == offs[key]


# flat decomposition


@pytest.fixture(scope="module")
def euler_setup():
    gens = [parse_vec("x1 d1 + x2 d2", R2)]
    fan = standard_fan(gens)
    cone = fan.cone_of_weight(LinearForm((1, 1)))
    return gens, fan, cone


def test_trivial_certificate(euler_setup):
    gens, fan, cone = euler_setup
    gamma = orthant_cone(2)
    Q = left_mul(parse_op("x1", R2), gens[0])
    assert in_ideal_piece(Q, (0, 0), gamma, (1, 2))
    cert = flat_decompose(Q, (0, 0), gamma, (1, 2), cone)
    assert cert.pieces[0] == Q and cert.pieces[1].is_zero()


def test_splitting_certificate(euler_setup):
    gens, fan, cone = euler_setup
    gamma = orthant_cone(2)
    E = gens[0]
    Q1 = left_mul(parse_op("x1", R2), E)
    Q2 = left_mul(parse_op("x2", R2), E)
    Q = Q1 + Q2
    cert = flat_decompose(Q, (0, 0), gamma, (1, 2), cone)
    assert cert.pieces[0] + cert.pieces[1] == Q
    assert cert.pieces == (Q1, Q2)
    assert cert.replay().to_report() == cert.to_report()


def test_certificate_divides_each_piece_once(euler_setup, monkeypatch):
    # one membership division for the input and one per nonzero piece, all
    # with the certificate's l_max; verify returns the member powers
    gens, fan, cone = euler_setup
    gamma = orthant_cone(2)
    E = gens[0]
    Q1, Q2 = left_mul(parse_op("x1", R2), E), left_mul(parse_op("x2", R2), E)
    member = StandardBasis.member
    calls = []

    def counting(self, Q, l_max=None):
        calls.append((Q, l_max))
        return member(self, Q, l_max)

    monkeypatch.setattr(StandardBasis, "member", counting)
    cert = flat_decompose(Q1 + Q2, (0, 0), gamma, (1, 2), cone, l_max=3)
    assert calls == [(Q1 + Q2, 3), (Q1, 3), (Q2, 3)]
    assert cert.member_powers == tuple(
        member(cone.basis, piece, 3).l for piece in cert.pieces
    )
    calls.clear()
    assert cert.verify() == cert.member_powers
    assert calls == [(Q1, 3), (Q2, 3)]
    calls.clear()
    assert cert.replay().to_report() == cert.to_report()
    assert {l_max for _, l_max in calls} == {3}


def test_certificate_rejects_a_term_in_no_region(euler_setup):
    # d1 x1 E sits at multiweight (0, 0): in the orthant at s = (0, 0)
    # neither region, at s - e1 or s - e2, admits it
    gens, fan, cone = euler_setup
    gamma = orthant_cone(2)
    Q = left_mul(parse_op("x1 d1", R2), gens[0])
    assert not in_ideal_piece(Q, (0, 0), gamma, (1, 2))
    with pytest.raises(CertificateError, match="fits no ideal region"):
        flat_decompose(Q, (0, 0), gamma, (1, 2), cone)


def test_certificate_rejects_nonmember(euler_setup):
    gens, fan, cone = euler_setup
    gamma = orthant_cone(2)
    Q = parse_vec("x1^2 d1", R2)  # not in the module
    assert in_ideal_piece(Q, (0, 0), gamma, (1, 2))
    with pytest.raises(CertificateError, match="membership"):
        flat_decompose(Q, (0, 0), gamma, (1, 2), cone)


def test_oracle_euler_equal(euler_setup):
    gens, fan, cone = euler_setup
    gamma = orthant_cone(2)
    res = intersection_oracle(gens, gamma, (1, 2), (0, 0), 4)
    assert res.equal
    assert res.lhs_dim == res.rhs_dim > 0


def test_oracle_unit_like_single_coordinate(euler_setup):
    gens, fan, cone = euler_setup
    gamma = orthant_cone(2)
    res = intersection_oracle(gens, gamma, (1,), (0, 0), 3)
    assert res.equal


def test_all_oracle_elements_certify(euler_setup):
    gens, fan, cone = euler_setup
    gamma = orthant_cone(2)
    res = intersection_oracle(gens, gamma, (1, 2), (0, 0), 3)
    for elt in res.elements:
        cert = flat_decompose(elt, (0, 0), gamma, (1, 2), cone)
        total = WeylVec(R2)
        for piece in cert.pieces:
            total = total + piece
        assert total == elt


def test_corrupted_basis_is_caught(euler_setup):
    gens, fan, cone = euler_setup
    gamma = orthant_cone(2)
    res = intersection_oracle(gens, gamma, (1, 2), (0, 0), 3)
    # drop the only element: division can no longer witness membership
    corrupted = StandardBasis(
        R2,
        [reduce_basis([parse_vec("d1 d2", R2)], LinearForm((1, 1))).elements[0]],
        cone.basis.order,
    )
    corrupted = dataclasses.replace(cone, basis=corrupted)
    caught = 0
    for elt in res.elements:
        try:
            flat_decompose(elt, (0, 0), gamma, (1, 2), corrupted)
        except DfanError:
            caught += 1
    assert caught == len(res.elements)


def test_gamma_not_in_fan_cone_rejected():
    gens = [parse_vec("d1 + x1 d2^2", R2)]
    fan = standard_fan(gens)
    cone = fan.cone_of_weight(LinearForm((2, 1)))  # open side {e1 > e2}
    gamma = orthant_cone(2)  # spans the whole quadrant: not included
    E = gens[0]
    Q = left_mul(parse_op("x1", R2), E)
    with pytest.raises(CertificateError, match="closure"):
        flat_decompose(Q, (2, 2), gamma, (1, 2), cone)


def test_single_coordinate_ideal():
    gens = [parse_vec("x1 d1 + x2 d2", R2)]
    fan = standard_fan(gens)
    cone = fan.cone_of_weight(LinearForm((1, 1)))
    gamma = orthant_cone(2)
    res = intersection_oracle(gens, gamma, (1,), (0, 0), 3)
    assert res.equal
    for elt in res.elements:
        cert = flat_decompose(elt, (0, 0), gamma, (1,), cone)
        assert cert.pieces == (elt,)


def test_rank_two_certificates():
    ring = RingDescriptor(2, 2, 2, [[0, 0], [0, 0]])
    gens = [
        parse_vec("x1 d1 e1 + x2 d2 e2", ring),
        parse_vec("x2 d2 e1", ring),
    ]
    fan = standard_fan(gens)
    gamma = orthant_cone(2)
    cone = fan.cone_of_weight(LinearForm((1, 1)))
    res = intersection_oracle(gens, gamma, (1, 2), (0, 0), 3)
    assert res.equal
    certified = 0
    for elt in res.elements:
        cert = flat_decompose(elt, (0, 0), gamma, (1, 2), cone)
        total = WeylVec(ring)
        for piece in cert.pieces:
            total = total + piece
        assert total == elt
        certified += 1
    assert certified == len(res.elements) > 0


def test_certificate_with_positive_t_power():
    # the input needs one extra factor of t before the division lands in
    # the homogenized span (the membership family has ell = 1)
    gens = [parse_vec("d1 d2 + x1 d1", R2), parse_vec("x1 d1 d2", R2)]
    fan = standard_fan(gens)
    gamma = orthant_cone(2)
    cone = fan.cone_of_weight(LinearForm((1, 1)))
    Q = parse_vec("x1^2 d1", R2)
    cert = flat_decompose(Q, (0, 0), gamma, (1,), cone)
    assert cert.t_power == 1
    assert cert.pieces == (Q,)
    assert cert.replay().to_report() == cert.to_report()


def test_nonorthant_cone_certificates():
    gens = [parse_vec("x1 d1 + x2 d2", R2)]
    fan = standard_fan(gens)
    gamma = BasicCone([(1, 1), (1, 2)])
    interior = LinearForm((2, 3))
    cone = fan.cone_of_weight(interior)
    res = intersection_oracle(gens, gamma, (1, 2), (0, 0), 3)
    assert res.equal
    for elt in res.elements:
        cert = flat_decompose(elt, (0, 0), gamma, (1, 2), cone)
        assert cert.replay().to_report() == cert.to_report()


def test_empty_ideal_set_is_rejected_by_the_certifier(euler_setup):
    gens, fan, cone = euler_setup
    gamma = orthant_cone(2)
    Q = left_mul(parse_op("x1", R2), gens[0])
    for reject in (
        lambda: in_ideal_piece(Q, (0, 0), gamma, ()),
        lambda: flat_decompose(Q, (0, 0), gamma, (), cone),
        lambda: _Frame(gamma, (), (0, 0)),
        lambda: intersection_oracle(gens, gamma, (), (0, 0), 3),
    ):
        with pytest.raises(ConeError, match=r"ideal coordinates \(\) out of range"):
            reject()


# the one region frame against the two frame classes and the region test
# it replaced, kept here as references


class RefIdealFrame:
    """Cone rows renumbered so the ideal coordinates come first, with the
    columns of their own inverse."""

    def __init__(self, gamma, J):
        J = tuple(sorted(set(J)))
        k = gamma.k
        if not J or any(not 1 <= j <= k for j in J):
            raise ConeError(f"ideal coordinates {J} out of range")
        order = [j - 1 for j in J] + [j for j in range(k) if j + 1 not in J]
        rows = tuple(gamma.rows[j] for j in order)
        if _bareiss(rows)[0] not in (1, -1):
            raise ConeError("frame is not unimodular")
        self.rows = rows
        inverse = _adjugate(rows)[0]
        self.columns = tuple(
            tuple(inverse[i][j] for i in range(k)) for j in range(k)
        )
        self.p = len(J)


def ref_in_region(point, s, frame, j):
    """point in (s - C_j) - dual cone: every row form drops by delta_ij."""
    for i, row in enumerate(frame.rows):
        bound = sum(r * x for r, x in zip(row, s)) - (1 if i == j else 0)
        if sum(r * x for r, x in zip(row, point)) > bound:
            return False
    return True


def ref_region_index(point, s, frame):
    return next(
        (j for j in range(frame.p) if ref_in_region(point, s, frame, j)), None
    )


@st.composite
def frame_cases(draw):
    k = draw(st.integers(1, 3))
    vec = lambda bound: st.tuples(*[st.integers(-bound, bound)] * k)
    return (
        draw(unimodular_rows(k)),
        draw(vec(3)),
        draw(st.lists(vec(4), min_size=1, max_size=12)),
        draw(st.integers(0, 2**32)),
    )


@settings(max_examples=300, deadline=None)
@given(frame_cases())
def test_frame_matches_the_reference_frames(case):
    rows, s, points, seed = case
    gamma = BasicCone(rows)
    k = gamma.k
    ring = RingDescriptor(k, k, 1)
    Q = random_vec(random.Random(seed), ring)
    for size in range(1, k + 1):
        for J in combinations(range(1, k + 1), size):
            frame = _Frame(gamma, J, s)
            ref = RefIdealFrame(gamma, J)
            assert frame.rows == ref.rows
            assert frame.columns == ref.columns[: ref.p]
            assert frame.degrees == tuple(
                tuple(x - c for x, c in zip(s, ref.columns[j])) for j in range(ref.p)
            )
            for point in points:
                fits = frame.fits(point)
                assert fits == [ref_in_region(point, s, ref, j) for j in range(ref.p)]
                first = fits.index(True) if any(fits) else None
                assert first == ref_region_index(point, s, ref)
            # a vector is in the ideal's piece iff each term has a region
            indices = [
                ref_region_index(multi_weight(key, ring.shifts, k), s, ref)
                for key in Q.terms
            ]
            assert in_ideal_piece(Q, s, gamma, J) == (None not in indices)


# the intersection oracle against the route it replaced, kept here as the
# reference: Fraction product rows of the given generators, numbered by
# key, renumbered bad-first inside ``vanishing_rows`` for the left-hand side


def ref_intersection_oracle(generators, gamma, J, s, degree_bound):
    """(equal, lhs_dim, rhs_dim, elements, counterexample) of the oracle."""
    ring = generators[0].ring
    frame = _Frame(gamma, J, s)
    p = len(frame.degrees)
    slack = max(g.total_degree() for g in generators) + 2
    prod_bound = degree_bound + slack
    columns = [
        {key: Fraction(c) for key, c in mult.items()}
        for g in generators
        for mult in monomial_multiples(g, prod_bound - g.total_degree())
    ]
    keys = sorted({key for col in columns for key in col})
    key_index = {key: idx for idx, key in enumerate(keys)}
    rows = [{key_index[key]: c for key, c in col.items()} for col in columns]
    fits = [
        frame.fits(multi_weight(key, ring.shifts, ring.k))
        if sum(key[0]) + sum(key[1]) <= degree_bound
        else [False] * p
        for key in keys
    ]
    bad_any = [idx for idx, f in enumerate(fits) if not any(f)]
    lhs = vanishing_rows(rows, bad_any)
    rhs_rows = []
    for j in range(p):
        rhs_rows.extend(
            vanishing_rows(lhs, [idx for idx, f in enumerate(fits) if not f[j]])
        )
    rhs, rhs_piv = rref(rhs_rows)
    lhs_red, _ = rref(lhs)

    def to_vec(row):
        return WeylVec(ring, ((keys[idx], c) for idx, c in sorted(row.items())))

    counterexample = next(
        (to_vec(v) for v in lhs_red if not in_row_space(rhs, rhs_piv, v)), None
    )
    elements = tuple(to_vec(v) for v in lhs_red)
    return counterexample is None, len(lhs_red), len(rhs), elements, counterexample


# positive contents that are not units, so the content-free generators
# differ from the given ones
CONTENTS = st.sampled_from(
    (Fraction(2, 3), Fraction(5), Fraction(3, 4), Fraction(7, 6), Fraction(1, 10))
)


@st.composite
def oracle_cases(draw):
    """One or two generators with non-unit rational content, the orthant
    or another basic cone, J of size 1 or 2, a small s and a degree bound.
    Half the draws are rank 1 with degree <= 2 and bound 0-2; the other
    half have rank 1 or 2, shifts in {-1, 0, 1}, constant terms, degree
    <= 3 and bound 0-4."""
    wide = draw(st.booleans())
    if wide:
        r = draw(st.integers(1, 2))
        shifts = draw(st.lists(
            st.tuples(st.integers(-1, 1), st.integers(-1, 1)), min_size=r, max_size=r
        ))
        ring = RingDescriptor(2, 2, r, shifts)
        supports = st.one_of(st.just(((0, 0), (0, 0))), monomials(2, 3))
    else:
        ring, supports = R2, monomials(2, 2)
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        content = draw(CONTENTS)
        least = 1 if ring.r == 1 else 0
        comps = [
            draw(st.dictionaries(
                supports, st.integers(-3, 3).filter(bool), min_size=least, max_size=3
            ))
            for _ in range(ring.r)
        ]
        assume(any(comps))
        gens.append(from_components(ring, [
            WeylOp(ring, {m: content * c for m, c in terms.items()}) for terms in comps
        ]))
    rows = draw(st.one_of(
        st.just(((1, 0), (0, 1))), st.just(((1, 1), (1, 2))), unimodular_rows(2)
    ))
    J = draw(st.sampled_from([(1,), (2,), (1, 2)]))
    low = -1 if wide else 0
    s = draw(st.tuples(st.integers(low, 2), st.integers(low, 2)))
    return gens, BasicCone(rows), J, s, draw(st.integers(0, 4 if wide else 2))


def scaled_case(content, texts, rows, J, s, bound):
    gens = [scaled(parse_vec(text, R2), content) for text in texts]
    return gens, BasicCone(rows), J, s, bound


@settings(max_examples=100, deadline=None)
@given(oracle_cases())
# random draws rarely give a counterexample: these two do, the third has
# an intersection of dimension 9 from two generators, and the fourth holds
# elements of degree 4 = bound that only the top multiplier layer reaches
@example(scaled_case(
    Fraction(2, 3), ["x1 d2 + d1"], ((1, 1), (0, 1)), (1, 2), (0, 1), 2
))
@example(scaled_case(
    Fraction(5), ["-2 x1 d2 + d1"], ((1, 0), (0, 1)), (1, 2), (1, 1), 2
))
@example(scaled_case(
    Fraction(3, 4), ["x1 d1 + x2 d2", "2 x1 d2 - 4 x2"], ((1, 1), (1, 2)), (1,), (1, 1),
    2,
))
@example(scaled_case(
    Fraction(7, 6), ["x1 d1 + x2 d2"], ((1, 0), (0, 1)), (1, 2), (0, 0), 4
))
def test_oracle_matches_the_fraction_row_reference(case):
    gens, gamma, J, s, bound = case
    res = intersection_oracle(gens, gamma, J, s, bound)
    assert (
        res.equal, res.lhs_dim, res.rhs_dim, res.elements, res.counterexample
    ) == ref_intersection_oracle(gens, gamma, J, s, bound)
