"""Property tests of the sparse elimination kernel in ``dfan._linalg``.

The oracle is a textbook dense Gauss-Jordan kept in this file, so the
kernel is checked against code it shares nothing with.  RREF, its pivot
columns, the nullspace basis read off it and the particular solution with
free variables at 0 are all unique, so the two must agree exactly.  The
integer echelon ``rref`` is also checked against ``fraction_rref``, the
Fraction Gauss-Jordan kernel it replaced, on entries up to 10^6.  The
phase-1 simplex is checked against the dense-update Fraction tableau it
replaced: its integer rows are positive multiples of that tableau's rows,
so the pivot sequence is the same and the two must return the same point.
``cone_interior_point`` is checked against ``fraction_cone_interior_point``,
its route through a Fraction nullspace basis and Fraction dot products:
its integer rows scale the columns of that route's rows by positive
factors, so the pivots and the point are the same.
``vanishing_rows`` is checked against the nullspace route the intersection
oracle used before it: both span one space, so their RREFs agree.  No
solver changes or hands back the caller's rows, whether they hold ints or
Fractions, with or without explicit zeros."""

from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from dfan import _linalg
from dfan._linalg import (
    _phase1_simplex,
    add_multiple,
    cone_interior_point,
    in_row_space,
    nullspace,
    primitive,
    reduce_against,
    rref,
    solve_affine,
    to_primitive_int,
    vanishing_rows,
)
from dfan.fan import _canon

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


def fraction_rref(rows):
    """Reference: the Gauss-Jordan kernel the integer echelon replaced.
    Each new row is reduced against every pivot row over Fractions, made
    monic, and eliminated at once from every earlier pivot row."""
    basis = {}
    for row in rows:
        w = {c: Fraction(x) for c, x in row.items() if x}
        for pc in [c for c in w if c in basis]:
            add_multiple(w, -w[pc], basis[pc])
        if not w:
            continue
        pc = min(w)
        pv = w[pc]
        if pv != 1:
            w = {c: x / pv for c, x in w.items()}
        for r in basis.values():
            f = r.get(pc)
            if f:
                add_multiple(r, -f, w)
        basis[pc] = w
    pivots = sorted(basis)
    return [basis[pc] for pc in pivots], pivots


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


def check_sparse(rows, kind=Fraction):
    """Every entry of every row is a nonzero ``kind``."""
    for row in rows:
        assert all(type(x) is kind and x for x in row.values())


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


# entries up to 10^6 in absolute value, as ints or as Fractions with
# denominators up to 10^3
BIG = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**3),
)


@st.composite
def integer_heavy_matrices(draw):
    """Sparse rows mixing int and Fraction entries, with zero rows and
    rows that are scaled copies of earlier rows."""
    ncols = draw(st.integers(1, 12))
    density = draw(st.sampled_from([10, 30, 60, 100]))
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["new", "new", "zero", "copy"]))
        if kind == "copy" and rows:
            f = draw(BIG.filter(bool))
            rows.append({c: f * x for c, x in draw(st.sampled_from(rows)).items()})
        elif kind == "zero":
            rows.append(draw(st.sampled_from([{}, {0: 0}, {0: ZERO}])))
        else:
            rows.append({
                c: draw(BIG)
                for c in range(ncols)
                if draw(st.integers(0, 99)) < density
            })
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(integer_heavy_matrices())
def test_integer_echelon_rref_matches_both_references(m):
    rows, ncols = m
    red, pivots = rref(rows)
    check_sparse(red)
    assert (red, pivots) == fraction_rref(rows)
    ref_red, ref_pivots = dense_rref(
        [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows], ncols
    )
    assert pivots == ref_pivots
    assert [dense(r, ncols) for r in red] == ref_red


def check_rows_left_alone(rows, ncols, bad, b):
    """rref, nullspace, vanishing_rows and solve_affine neither change
    ``rows`` or ``b`` nor hand back one of the caller's dicts: emptying
    every returned row leaves the input as it was."""
    before = [dict(r) for r in rows]
    b_before = list(b)
    red, _ = rref(rows)
    ns = nullspace(rows, ncols)
    got = vanishing_rows(rows, bad)
    sol = solve_affine(rows, b, ncols)
    assert rows == before and b == b_before
    for out in (red, ns):
        check_sparse(out)
    check_sparse(got, int)
    # echelon rows: one leading column each
    assert len({min(r) for r in got}) == len(got)
    for out in (*red, *ns, *got, sol or {}):
        out.clear()
    assert rows == before


@settings(max_examples=200, deadline=None)
@given(integer_heavy_matrices(), st.data())
def test_solvers_leave_their_input_rows_alone(m, data):
    rows, ncols = m
    bad = data.draw(st.sets(st.integers(0, ncols - 1)))
    b = data.draw(st.lists(BIG, min_size=len(rows), max_size=len(rows)))
    check_rows_left_alone(rows, ncols, bad, b)


# the second row of each case meets the first at its leading column, so
# the elimination updates it: an intake that kept the caller's dict would
# change it, one that kept a zero could take a zero entry as a pivot
@pytest.mark.parametrize("rows", [
    [{0: 2, 1: 4}, {0: 1, 1: 3}],
    [{0: 0, 1: 3, 2: 0}, {0: 0, 1: 6, 2: 1}, {0: 0, 1: 0}],
    [{0: Fraction(1, 2), 1: Fraction(3)}, {0: Fraction(1), 2: Fraction(2, 3)}],
    [{0: Fraction(0), 1: Fraction(2, 3)}, {1: Fraction(1), 2: Fraction(0)}],
    [{0: 5, 1: Fraction(5, 2)}, {0: 0, 1: 1, 2: 7}, {0: 3, 2: 0}],
])
def test_solvers_leave_int_and_fraction_rows_alone(rows):
    check_rows_left_alone(rows, 3, {0}, [1] * len(rows))
    check_rows_left_alone(rows, 3, {1, 2}, [0] * len(rows))


def nullspace_vanishing_rows(rows, bad_cols):
    """Reference: rref, then the nullspace of the bad-column restriction of
    the basis rows, recombined and reduced again."""
    basis_rows, _ = rref(rows)
    if not basis_rows:
        return []
    mat = {c: {} for c in bad_cols}
    for r, row in enumerate(basis_rows):
        for c, val in row.items():
            if c in mat:
                mat[c][r] = val
    out = []
    for combo in nullspace(list(mat.values()), len(basis_rows)):
        vec = {}
        for r, c in combo.items():
            add_multiple(vec, c, basis_rows[r])
        out.append(vec)
    return rref(out)[0]


@st.composite
def vanishing_cases(draw):
    """0-8 sparse rows over 1-10 columns and a nested pair of bad-column
    sets A <= B; B is often empty or every column."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(1, 10))
    density = draw(st.integers(0, 100))
    rows = [sparse(draw(vectors(ncols, density))) for _ in range(nrows)]
    cols = range(ncols)
    big = draw(
        st.one_of(
            st.just(set()), st.just(set(cols)), st.sets(st.sampled_from(cols))
        )
    )
    small = draw(st.sets(st.sampled_from(sorted(big)))) if big else set()
    return rows, sorted(small), sorted(big)


@settings(max_examples=300, deadline=None)
@given(vanishing_cases())
def test_vanishing_rows_matches_nullspace_route(case):
    rows, small, big = case
    for bad in (small, big):
        got = vanishing_rows(rows, bad)
        check_sparse(got, int)
        assert rref(got) == rref(nullspace_vanishing_rows(rows, bad))
        assert not any(c in row for row in got for c in bad)
    # the intersection oracle cuts each right-hand piece from the left-hand
    # result: for A <= B, vanishing on A and then on B is vanishing on B
    nested = vanishing_rows(vanishing_rows(rows, small), big)
    assert rref(nested) == rref(vanishing_rows(rows, big))


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


TWELFTHS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))


@st.composite
def tied_feasibility_problems(draw):
    """A x = b, b >= 0, with denominators up to 12 and ties in the ratio
    test: some rows are positive multiples of others, and some right-hand
    sides are 0 (degenerate pivots)."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    a = [[draw(TWELFTHS) for _ in range(ncols)] for _ in range(nrows)]
    x0 = [abs(draw(TWELFTHS)) for _ in range(ncols)]
    b = times(a, x0) if draw(st.booleans()) else [draw(TWELFTHS) for _ in a]
    for row, bi in zip(a, b):
        if bi < 0:
            row[:] = [-x for x in row]
    b = [abs(bi) for bi in b]
    if draw(st.booleans()):
        b = [ZERO if draw(st.booleans()) else bi for bi in b]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(a) - 1))
        f = abs(draw(TWELFTHS)) or Fraction(1, 7)
        a.append([f * x for x in a[i]])
        b.append(f * b[i])
    return a, b


def row_scaled(a, b, scales):
    """A x = b with row i times scales[i]: the same feasible set."""
    return (
        [[f * Fraction(x) for x in row] for f, row in zip(scales, a)],
        [f * Fraction(x) for f, x in zip(scales, b)],
    )


# two ratio-test ties whose tie-break decides the vertex returned: taking
# the greatest basic index, the first row or the last row gives another
TWELFTH_SCALES = [Fraction(5, 12), Fraction(7, 6), Fraction(3, 4)]
TIE_BREAKS = [
    row_scaled([[2, 2, 1, 0], [2, 1, 0, 1], [0, 0, 1, 2]], [2, 2, 1], TWELFTH_SCALES),
    row_scaled([[0, 2, 2, 1], [0, 1, 2, 1], [2, 1, 2, 0]], [2, 2, 1], TWELFTH_SCALES),
]


@settings(max_examples=400, deadline=None)
@given(tied_feasibility_problems())
@example(TIE_BREAKS[0])
@example(TIE_BREAKS[1])
def test_integer_phase1_matches_the_fraction_tableau_on_ties(problem):
    a, b = problem
    x = _phase1_simplex(a, b)
    assert x == dense_phase1_simplex(a, b)
    if x is not None:
        assert all(type(xi) is Fraction and xi >= 0 for xi in x)
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
    # the tableau arrives as ints, for the unit basis and for the scaled
    # nullspace basis alike, and the dense Fraction tableau on the same
    # rows takes the same pivots
    k, eqs, stricts = case
    seen = []

    def recorded(a, b):
        seen.append((a, b))
        return _phase1_simplex(a, b)

    with mock.patch.object(_linalg, "_phase1_simplex", recorded):
        point = cone_interior_point(eqs, stricts, k)
    assert all(type(x) is int for a, b in seen for row in a + [b] for x in row)
    with mock.patch.object(_linalg, "_phase1_simplex", dense_phase1_simplex):
        assert cone_interior_point(eqs, stricts, k) == point
    if point is not None:
        assert len(point) == k
        assert all(sum(c * x for c, x in zip(v, point)) == 0 for v in eqs)
        assert all(sum(c * x for c, x in zip(w, point)) >= 1 for w in stricts)


def fraction_cone_interior_point(eqs, stricts, k):
    """Reference: ``cone_interior_point`` on the Fraction nullspace basis
    and Fraction dot products, as it was before its integer route."""
    ns = nullspace([{i: x for i, x in enumerate(v) if x} for v in eqs], k)
    if not ns:
        if stricts:
            return None
        return [Fraction(0)] * k
    m = len(ns)
    if not stricts:
        return [Fraction(0)] * k
    g = [[sum(Fraction(w[i]) * x for i, x in v.items()) for v in ns] for w in stricts]
    rows = []
    for gr in g:
        rows.append(gr + [-c for c in gr] + [Fraction(0)] * len(stricts))
    for i in range(len(stricts)):
        rows[i][2 * m + i] = Fraction(-1)
    sol = _phase1_simplex(rows, [Fraction(1)] * len(stricts))
    if sol is None:
        return None
    point = [Fraction(0)] * k
    for j, v in enumerate(ns):
        y = sol[j] - sol[m + j]
        for i, x in v.items():
            point[i] += y * x
    return point


@st.composite
def scaled_cones(draw):
    """``cones`` with some equalities and stricts repeated times a
    positive integer, and some systems made infeasible by a strict and
    its negation."""
    k, eqs, stricts = draw(cones())
    scale = st.integers(1, 6)
    eqs += [[draw(scale) * x for x in v] for v in eqs if draw(st.booleans())]
    stricts += [[draw(scale) * x for x in w] for w in stricts if draw(st.booleans())]
    if stricts and draw(st.booleans()):
        stricts.append([-draw(scale) * x for x in stricts[0]])
    return k, eqs, stricts


@settings(max_examples=300, deadline=None)
@given(scaled_cones())
@example((2, [], [[1, -1], [-2, 2]]))
@example((3, [[1, 1, 0], [2, 2, 0]], [[0, 0, 1], [1, 0, 0]]))
@example((3, [[0, 0, 0]], [[1, 2, 3]]))
@example((3, [[2, 1, 0]], [[0, 1, 1], [1, 0, 0]]))  # nullspace scale 2
def test_cone_interior_point_matches_the_fraction_route(case):
    k, eqs, stricts = case
    point = cone_interior_point(eqs, stricts, k)
    assert point == fraction_cone_interior_point(eqs, stricts, k)
    # the nullspace basis is read off the rref, which a positive scale of
    # an equality leaves alone
    assert cone_interior_point([[3 * x for x in v] for v in eqs], stricts, k) == point


# the one primitive-vector helper against the gcd loops it replaced


def ref_primitive(v):
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    return tuple(c // g for c in v) if g else tuple(v)


def ref_canon(v):
    v = ref_primitive(v)
    for c in v:
        if c > 0:
            return v
        if c < 0:
            return tuple(-x for x in v)
    return None


def ref_to_primitive_int(vec):
    fr = [Fraction(x) for x in vec]
    if not any(fr):
        return tuple(0 for _ in fr)
    den = 1
    for f in fr:
        den = lcm(den, f.denominator)
    return ref_primitive([int(f * den) for f in fr])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-12, 12), max_size=4))
def test_primitive_matches_the_gcd_loop(v):
    assert primitive(v) == ref_primitive(v)
    assert _canon(tuple(v)) == ref_canon(v)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), max_size=4))
def test_to_primitive_int_matches_the_gcd_loop(vec):
    assert to_primitive_int(vec) == ref_to_primitive_int(vec)
