from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from dfan.errors import ConeError
from dfan.toric import (
    BasicCone,
    _det,
    _inverse_unimodular,
    _solve_membership,
    dual_membership,
    orthant_cone,
    refine_to_basic,
    u_to_w,
    w_to_u,
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


def test_dual_membership_examples():
    orth = orthant_cone(2)
    assert dual_membership((0, 0), orth)
    assert not dual_membership((1, -1), orth)
    c = BasicCone([(1, 0), (1, 1)])
    assert dual_membership((1, -1), c)


def test_w_u_maps():
    orth = orthant_cone(2)
    assert w_to_u((3, 5), orth) == (3, 5)
    c = BasicCone([(1, 0), (1, 1)])
    assert w_to_u((1, 0), c) == (1, -1)


def test_w_u_inverse(rng):
    cones = [
        orthant_cone(2),
        BasicCone([(1, 0), (1, 1)]),
        BasicCone([(1, 2), (1, 3)]),
        BasicCone([(2, 1), (1, 1)]),
    ]
    for c in cones:
        for _ in range(20):
            a = tuple(rng.randint(-5, 5) for _ in range(2))
            assert u_to_w(w_to_u(a, c), c) == a
            assert w_to_u(u_to_w(a, c), c) == a


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
        return _solve_membership(_inverse_unimodular(tuple(rays)), v) is not None

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


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 3).flatmap(lambda k: st.tuples(
    st.lists(st.tuples(*[st.integers(0, 4)] * k), min_size=k, max_size=k),
    st.lists(st.tuples(*[st.integers(-2, 12)] * k), min_size=1, max_size=5),
)))
def test_solve_membership_matches_elimination(case):
    rays, points = case
    assume(_det(tuple(rays)) != 0)
    inv = _inverse_unimodular(tuple(rays))
    for v in points:
        assert _solve_membership(inv, v) == eliminate_membership(rays, v)
