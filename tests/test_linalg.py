"""Property tests of the sparse elimination kernel in ``dfan._linalg``.

The oracle is a textbook dense Gauss-Jordan kept in this file, so the
kernel is checked against code it shares nothing with.  RREF, its pivot
columns, the nullspace basis read off it and the particular solution with
free variables at 0 are all unique, so the two must agree exactly.  The
phase-1 simplex is checked against the dense-update version it replaced:
the pivot sequence is the same, so the two must return the same point."""

from fractions import Fraction
from unittest import mock

from hypothesis import given, settings, strategies as st

from dfan import _linalg
from dfan._linalg import (
    _phase1_simplex,
    cone_interior_point,
    in_row_space,
    nullspace,
    reduce_against,
    rref,
    solve_affine,
)

ZERO = Fraction(0)


def dense_rref(rows, ncols):
    """Reference RREF of dense rows: (nonzero rows, pivot columns)."""
    a = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        piv = next((i for i in range(top, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[top], a[piv] = a[piv], a[top]
        pv = a[top][col]
        a[top] = [x / pv for x in a[top]]
        for i in range(len(a)):
            if i != top and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[top])]
        pivots.append(col)
    return a[: len(pivots)], pivots


def sparse(row):
    return {c: x for c, x in enumerate(row) if x}


def dense(vec, ncols):
    return [vec.get(c, ZERO) for c in range(ncols)]


def times(rows, x):
    return [sum((a * b for a, b in zip(r, x)), ZERO) for r in rows]


# (rows, columns) of each shape family; "empty" has no rows at all
SHAPES = {
    "empty": (st.just(0), st.integers(0, 6)),
    "row": (st.just(1), st.integers(1, 12)),
    "square": (st.integers(1, 6), st.integers(1, 6)),
    "tall": (st.integers(6, 12), st.integers(1, 4)),
    "wide": (st.integers(1, 4), st.integers(6, 20)),
}
# percent of nonzero cells; 0 gives all-zero matrices
DENSITIES = st.sampled_from([0, 1, 10, 30, 60, 100])
ENTRIES = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def vectors(draw, ncols, density):
    return [
        draw(ENTRIES) if draw(st.integers(0, 99)) < density else ZERO
        for _ in range(ncols)
    ]


@st.composite
def matrices(draw):
    row_counts, col_counts = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    nrows, ncols = draw(row_counts), draw(col_counts)
    density = draw(DENSITIES)
    rows = [draw(vectors(ncols, density)) for _ in range(nrows)]
    return rows, ncols, density


def check_sparse(rows):
    for row in rows:
        assert all(type(x) is Fraction and x for x in row.values())


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_and_nullspace_match_dense_oracle(m):
    rows, ncols, _ = m
    red, pivots = rref([sparse(r) for r in rows])
    ref_red, ref_pivots = dense_rref(rows, ncols)
    assert pivots == ref_pivots
    assert [dense(r, ncols) for r in red] == ref_red
    check_sparse(red)

    ns = nullspace([sparse(r) for r in rows], ncols)
    check_sparse(ns)
    assert len(pivots) + len(ns) == ncols
    free = [c for c in range(ncols) if c not in ref_pivots]
    for fc, v in zip(free, ns):
        expected = [ZERO] * ncols
        expected[fc] = Fraction(1)
        for r, pc in zip(ref_red, ref_pivots):
            expected[pc] = -r[fc]
        assert dense(v, ncols) == expected
        assert not any(times(rows, dense(v, ncols)))


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_solve_affine_matches_dense_oracle(m, data):
    rows, ncols, density = m
    if data.draw(st.booleans()):
        b = times(rows, data.draw(vectors(ncols, 100)))  # consistent
    else:
        b = data.draw(vectors(len(rows), density))
    x = solve_affine([sparse(r) for r in rows], b, ncols)
    aug_red, aug_pivots = dense_rref(
        [r + [bi] for r, bi in zip(rows, b)], ncols + 1
    )
    if ncols in aug_pivots:
        assert x is None
        return
    assert x is not None
    check_sparse([x])
    assert times(rows, dense(x, ncols)) == b
    expected = [ZERO] * ncols
    for r, pc in zip(aug_red, aug_pivots):
        expected[pc] = r[ncols]
    assert dense(x, ncols) == expected


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_reduce_against_matches_dense_oracle(m, data):
    rows, ncols, density = m
    red, pivots = rref([sparse(r) for r in rows])
    ref_red, ref_pivots = dense_rref(rows, ncols)
    if data.draw(st.booleans()) and rows:
        coefs = data.draw(vectors(len(rows), 100))
        v = [sum((c * r[j] for c, r in zip(coefs, rows)), ZERO) for j in range(ncols)]
    else:
        v = data.draw(vectors(ncols, density))
    w = list(v)
    for r, pc in zip(ref_red, ref_pivots):
        f = w[pc]
        w = [x - f * y for x, y in zip(w, r)]
    remainder = reduce_against(red, pivots, sparse(v))
    check_sparse([remainder])
    assert dense(remainder, ncols) == w
    in_span = len(dense_rref(rows + [v], ncols)[1]) == len(ref_pivots)
    assert in_row_space(red, pivots, sparse(v)) is in_span


def dense_phase1_simplex(a, b):
    """Reference phase-1 simplex with dense row updates (Bland's rule)."""
    m = len(a)
    if m == 0:
        return []
    n = len(a[0])
    t = [list(map(Fraction, a[i])) + [ZERO] * m + [Fraction(b[i])] for i in range(m)]
    for i in range(m):
        t[i][n + i] = Fraction(1)
    basis = list(range(n, n + m))
    obj = [ZERO] * (n + m + 1)
    for i in range(m):
        obj = [o - x for o, x in zip(obj, t[i])]
    for i in range(m):
        obj[n + i] += 1
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        ratios = [
            (t[i][n + m] / t[i][enter], basis[i], i)
            for i in range(m)
            if t[i][enter] > 0
        ]
        if not ratios:
            return None
        _, _, leave = min(ratios, key=lambda z: (z[0], z[1]))
        pv = t[leave][enter]
        t[leave] = [x / pv for x in t[leave]]
        for i in range(m):
            if i != leave and t[i][enter]:
                f = t[i][enter]
                t[i] = [x - f * y for x, y in zip(t[i], t[leave])]
        if obj[enter]:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, t[leave])]
        basis[leave] = enter
    if obj[n + m] != 0:
        return None
    x = [ZERO] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = t[i][n + m]
    return x


@st.composite
def feasibility_problems(draw):
    """A x = b with b >= 0; half the time b = A x0 for some x0 >= 0."""
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(1, 5))
    density = draw(DENSITIES)
    a = [draw(vectors(ncols, density)) for _ in range(nrows)]
    if draw(st.booleans()):
        x0 = [abs(x) for x in draw(vectors(ncols, 60))]
        b = times(a, x0)
    else:
        b = draw(vectors(nrows, density))
    for row, bi in zip(a, b):
        if bi < 0:
            row[:] = [-x for x in row]
    return a, [abs(bi) for bi in b]


@settings(max_examples=300, deadline=None)
@given(feasibility_problems())
def test_phase1_simplex_matches_dense_updates(problem):
    a, b = problem
    x = _phase1_simplex(a, b)
    assert x == dense_phase1_simplex(a, b)
    if x is not None:
        assert all(xi >= 0 for xi in x)
        assert times(a, x) == b


@st.composite
def cones(draw):
    """Integer eqs and stricts in Q^k, k = 1-3, as the fan cells give."""
    k = draw(st.integers(1, 3))
    vec = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
    return k, draw(st.lists(vec, max_size=2)), draw(st.lists(vec, max_size=4))


@settings(max_examples=200, deadline=None)
@given(cones())
def test_cone_interior_point_matches_dense_updates(case):
    k, eqs, stricts = case
    point = cone_interior_point(eqs, stricts, k)
    with mock.patch.object(_linalg, "_phase1_simplex", dense_phase1_simplex):
        assert cone_interior_point(eqs, stricts, k) == point
    if point is not None:
        assert len(point) == k
        assert all(sum(c * x for c, x in zip(v, point)) == 0 for v in eqs)
        assert all(sum(c * x for c, x in zip(w, point)) >= 1 for w in stricts)
