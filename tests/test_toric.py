from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from dfan.errors import ConeError, ResourceBoundExceeded
from dfan.toric import (
    MAX_BOX_POINTS,
    BasicCone,
    _adjugate,
    _bareiss,
    _least_candidate,
    cone_drops,
    normalize_rays,
    orthant_cone,
    refine_to_basic,
)


def test_orthant_is_identity():
    c = orthant_cone(3)
    assert c.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert c.inverse == c.rows
    assert c.columns == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_two_by_two_inverse():
    c = BasicCone([(1, 0), (1, 1)])
    assert c.inverse == ((1, 0), (-1, 1))
    assert c.columns == ((1, -1), (0, 1))


def test_det_one_after_reordering():
    c = BasicCone([(1, 1), (1, 0)])  # det -1 as given
    assert c.rows == ((1, 0), (1, 1))


def test_second_example():
    c = BasicCone([(1, 2), (1, 3)])
    assert c.columns == ((3, -1), (-2, 1))


def test_not_basic_rejected():
    with pytest.raises(ConeError, match="not basic"):
        BasicCone([(1, 0), (1, 2)])
    with pytest.raises(ConeError):
        BasicCone([(1, -1), (0, 1)])


def dual_membership(a, gamma):
    """a in the dual cone iff L_i(a) >= 0 for every row L_i."""
    return min(cone_drops(gamma.rows, a, (0,) * gamma.k)) >= 0


def test_dual_membership_examples():
    orth = orthant_cone(2)
    assert dual_membership((0, 0), orth)
    assert not dual_membership((1, -1), orth)
    c = BasicCone([(1, 0), (1, 1)])
    assert dual_membership((1, -1), c)


def in_monoid(a, columns, bound=41):
    """Is a an N-combination of the columns (k = 2 search)?"""
    for l1 in range(bound):
        for l2 in range(bound):
            v = tuple(l1 * c1 + l2 * c2 for c1, c2 in zip(*columns))
            if v == tuple(a):
                return True
    return False


def test_dual_monoid_generated_by_columns():
    for rows in [[(1, 0), (0, 1)], [(1, 0), (1, 1)], [(1, 2), (1, 3)]]:
        c = BasicCone(rows)
        for a in product(range(-5, 6), repeat=2):
            assert dual_membership(a, c) == in_monoid(a, c.columns)


def test_dual_cone_strictly_convex():
    for rows in [[(1, 0), (0, 1)], [(1, 2), (1, 3)], [(2, 1), (1, 1)]]:
        c = BasicCone(rows)
        for col in c.columns:
            neg = tuple(-x for x in col)
            assert not (dual_membership(col, c) and dual_membership(neg, c))


def test_nonzero_dual_points_have_positive_form():
    c = BasicCone([(1, 2), (1, 3)])
    for a in product(range(-5, 6), repeat=2):
        if a == (0, 0) or not dual_membership(a, c):
            continue
        assert any(sum(r * x for r, x in zip(row, a)) > 0 for row in c.rows)


def test_refine_to_basic():
    pieces = refine_to_basic([(1, 0), (1, 2)])
    assert len(pieces) == 2
    assert all(isinstance(p, BasicCone) for p in pieces)
    # the pieces cover the original cone: check on a sample of rays
    def in_cone(rays, v):
        return eliminate_membership(rays, v) is not None

    for v in [(1, 0), (1, 1), (1, 2), (2, 1), (3, 4)]:
        if in_cone([(1, 0), (1, 2)], v):
            assert any(in_cone(p.rows, v) for p in pieces)

    basic = refine_to_basic([(1, 0), (0, 1)])
    assert len(basic) == 1


def test_refine_rejects_degenerate():
    with pytest.raises(ConeError):
        refine_to_basic([(1, 1), (2, 2)])


def eliminate_membership(rays, v):
    """Reference: solve lambda . rays = v by Gauss-Jordan elimination;
    None if v is outside the cone."""
    k = len(rays)
    a = [[Fraction(rays[i][j]) for i in range(k)] + [Fraction(v[j])] for j in range(k)]
    for col in range(k):
        piv = next(r for r in range(col, k) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(k):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    lam = [a[j][k] for j in range(k)]
    return None if any(l < 0 for l in lam) else lam


def det(rows):
    return _bareiss(tuple(rows))[0]


def ref_inverse(rows):
    """Reference: the Fraction inverse that the integer scan replaced."""
    k = len(rows)
    d = det(rows)

    def cofactor(i, j):
        minor = [tuple(r[b] for b in range(k) if b != i) for a, r in enumerate(rows) if a != j]
        return (-1) ** (i + j) * det(minor)

    return [[Fraction(cofactor(i, j), d) for j in range(k)] for i in range(k)]


def ref_solve(inv, v):
    k = len(inv)
    lam = [sum(v[j] * inv[j][i] for j in range(k)) for i in range(k)]
    return None if any(l < 0 for l in lam) else lam


def ref_candidates(rays):
    """Reference: the box scan through the Fraction inverse, each point
    kept when its barycentric coordinates lie in [0, 1)."""
    k = len(rays)
    cols = list(zip(*ref_inverse(tuple(rays))))
    bound = max(abs(c) for r in rays for c in r) * k
    if (bound + 1) ** k > MAX_BOX_POINTS:
        n = (bound + 1) ** k
        raise ResourceBoundExceeded("box", cap="MAX_BOX_POINTS", limit=MAX_BOX_POINTS, observed=n)
    return sorted({
        tuple(x // gcd(*p) for x in p)
        for p in product(range(bound + 1), repeat=k)
        if any(p) and all(0 <= sum(map(mul, p, c)) < 1 for c in cols)
    })


def ref_refine(rays):
    """Reference: stellar refinement on the Fraction scan."""
    rays = [tuple(r) for r in normalize_rays(rays)]
    k = len(rays)
    d = abs(det(tuple(rays)))
    if d == 0:
        raise ConeError("rays are linearly dependent")
    if d == 1:
        return (BasicCone(rays),)
    inv = ref_inverse(tuple(rays))
    for v in ref_candidates(rays):
        lam = ref_solve(inv, v)
        pieces = []
        for i in range(k):
            if lam[i] == 0:
                continue
            sub = rays[:i] + [v] + rays[i + 1 :]
            if not 0 < abs(det(tuple(sub))) < d:
                break
            pieces.append(sub)
        else:
            if pieces:
                return tuple(c for sub in pieces for c in ref_refine(sub))
    raise ConeError("stellar refinement failed to reduce the determinant")


def outcome(f, rays):
    """The result of f(rays), or the type of its error with the box size
    for a tripped cap and the message otherwise."""
    try:
        return f(rays)
    except (ConeError, ResourceBoundExceeded) as exc:
        return type(exc), getattr(exc, "observed", str(exc))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3).flatmap(lambda k: st.lists(
    st.tuples(*[st.integers(0, 5)] * k), min_size=k, max_size=k
)))
def test_integer_scan_matches_the_fraction_scan(rays):
    assume(all(any(r) for r in rays) and det(tuple(rays)) != 0)
    rays = [tuple(r) for r in normalize_rays(rays)]
    adj, d = _adjugate(tuple(rays))
    assert d == abs(det(tuple(rays)))
    if d > 1:
        least = outcome(ref_candidates, rays)
        least = least[0] if isinstance(least, list) else least
        assert outcome(lambda r: _least_candidate(r, adj, d), rays) == least
    assert outcome(refine_to_basic, rays) == outcome(ref_refine, rays)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3).flatmap(lambda k: st.lists(
    st.tuples(*[st.integers(0, 5)] * k), min_size=k, max_size=k
)))
def test_every_candidate_lowers_the_determinant_where_it_replaces_a_ray(rays):
    # each candidate v of the reference scan has coordinates
    # lambda_i = d v . inverse_i in [0, d), not all 0, and replacing ray i
    # by v leaves |det| = lambda_i: the least candidate always refines
    assume(all(any(r) for r in rays) and ref_det(rays) != 0)
    rays = [tuple(r) for r in normalize_rays(rays)]
    d = abs(ref_det(rays))
    inv = ref_inverse(tuple(rays))
    try:
        candidates = ref_candidates(rays)
    except ResourceBoundExceeded:
        return
    assert (d > 1) == bool(candidates)
    for v in candidates:
        lam = [d * sum(v[j] * inv[j][i] for j in range(len(v))) for i in range(len(v))]
        assert all(0 <= l < d for l in lam) and any(lam)
        for i, l in enumerate(lam):
            assert abs(ref_det(rays[:i] + [v] + rays[i + 1 :])) == l


def test_integer_scan_covers_both_signs_of_the_determinant():
    for rays in ([(1, 0), (1, 2)], [(1, 2), (1, 0)]):
        assert det(tuple(rays)) in (2, -2)
        adj, d = _adjugate(tuple(rays))
        assert [_least_candidate(rays, adj, d)] == ref_candidates(rays) == [(1, 1)]
        assert refine_to_basic(rays) == ref_refine(rays)


# ---------------------------------------------------------------------------
# Determinant, adjugate and basic cone against the cofactor expansion that
# built a list of minors for every entry, kept here verbatim as references.


def ref_det(rows):
    k = len(rows)
    if k == 1:
        return rows[0][0]
    total = 0
    for j in range(k):
        minor = [r[:j] + r[j + 1 :] for r in [list(x) for x in rows[1:]]]
        total += (-1) ** j * rows[0][j] * ref_det([tuple(m) for m in minor])
    return total


def ref_adjugate(rows):
    k = len(rows)
    d = ref_det(rows)
    sign = 1 if d > 0 else -1
    adj = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            minor = [
                tuple(rows[a][b] for b in range(k) if b != i)
                for a in range(k)
                if a != j
            ]
            adj[i][j] = sign * (-1) ** (i + j) * (ref_det(minor) if minor else 1)
    return tuple(tuple(r) for r in adj), abs(d)


def ref_basic_cone(rows):
    """(rows, inverse, columns) of the cone, or its error message."""
    rows = tuple(tuple(int(c) for c in r) for r in rows)
    k = len(rows)
    if any(len(r) != k for r in rows):
        return "need k forms on Q^k"
    if any(c < 0 for r in rows for c in r):
        return "cone rays must have nonnegative entries"
    d = ref_det(rows)
    if d == -1:
        rows = rows[:-2] + (rows[-1], rows[-2]) if k >= 2 else rows
        d = ref_det(rows)
    if d != 1:
        return f"not basic: determinant {d} != 1"
    inverse = ref_adjugate(rows)[0]
    return rows, inverse, tuple(tuple(inverse[i][j] for i in range(k)) for j in range(k))


def square_matrices(entries):
    return st.integers(1, 3).flatmap(
        lambda k: st.lists(st.tuples(*[entries] * k), min_size=k, max_size=k)
    )


@settings(max_examples=400, deadline=None)
@given(square_matrices(st.integers(-6, 6)))
def test_det_and_adjugate_match_the_cofactor_expansion(rows):
    rows = tuple(rows)
    d = ref_det(rows)
    assert det(rows) == d
    assert _adjugate(rows) == (ref_adjugate(rows) if d else (None, 0))


@settings(max_examples=400, deadline=None)
@given(square_matrices(st.integers(-1, 4)) | square_matrices(st.sampled_from([0, 1])))
def test_basic_cone_matches_the_cofactor_expansion(rows):
    try:
        cone = BasicCone(rows)
    except ConeError as exc:
        assert str(exc) == ref_basic_cone(rows)
    else:
        assert (cone.rows, cone.inverse, cone.columns) == ref_basic_cone(rows)
