"""Sparse exact linear algebra: rref, solve, nullspace, the subspace of a
row space that vanishes on given columns, and a small phase-1 simplex used
to find relative-interior points of rational cones.  Everything is
deterministic (Bland's rule, fixed tie-breaks).

A row or vector is a dict from column index to a nonzero int or Fraction;
absent columns are zero.  Results are Fractions, except the integer rows
of ``vanishing_part`` and ``vanishing_rows``.  Every solver runs on one
elimination kernel, ``_echelon``; it and the simplex tableau keep
integer rows, after Bareiss ("Sylvester's identity and multistep
integer-preserving Gaussian elimination", 1968).  ``_echelon`` takes in
a primitive integer copy of each row, so no caller's dict is changed or
kept.  A solver that needs a
different pivot preference renumbers the columns first; the intersection
oracle builds its integer product rows in that numbering, bad columns
first, and hands them to ``vanishing_part`` directly."""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm


def add_multiple(w, f, row):
    """w += f * row in place, dropping entries that cancel."""
    for c, x in row.items():
        y = w.get(c)
        y = f * x if y is None else y + f * x
        if y:
            w[c] = y
        else:
            del w[c]


def reduce_against(red_rows, pivots, v):
    """Remainder of v against an rref row basis, as a new sparse row; one
    pass suffices, since each basis row is 0 at every other pivot."""
    w = {c: x if type(x) is Fraction else Fraction(x) for c, x in v.items() if x}
    basis = dict(zip(pivots, red_rows))
    for pc in [c for c in w if c in basis]:
        add_multiple(w, -w[pc], basis[pc])
    return w


def in_row_space(red_rows, pivots, v):
    """Is v in the row space described by an rref basis?"""
    return not reduce_against(red_rows, pivots, v)


def _primitive_dict(w):
    """A nonzero sparse integer row over the gcd of its entries."""
    g = gcd(*w.values())
    return {c: x // g for c, x in w.items()} if g > 1 else w


def primitive_part(w):
    """(g, d, v) with w = (g / d) * v for a sparse row of ints and Fractions:
    its content g / d >= 0 and a primitive integer row v, zeros gone."""
    d = lcm(*(x.denominator for x in w.values()))
    v = {k: x.numerator * (d // x.denominator) for k, x in w.items() if x}
    g = gcd(*v.values())
    return g, d, ({k: x // g for k, x in v.items()} if g > 1 else v)


def _echelon(rows):
    """Integer echelon form of the row space: a map from leading column to
    a primitive integer row that is zero left of that column.  Each row is
    taken in as a primitive integer copy with its zeros dropped (an
    all-int row needs only its gcd), then reduced only at its leading
    column, by the fraction-free update pv * w - w[c] * prow made
    primitive, until that column is new."""
    basis = {}
    for row in rows:
        try:
            g = gcd(*row.values())
        except TypeError:  # a Fraction entry
            w = primitive_part(row)[2]
        else:  # an all-zero row has g = 0 and keeps no entry to divide
            w = {c: x // g for c, x in row.items() if x}
        while w:
            c = min(w)
            if basis.setdefault(c, w) is w:  # c was no pivot yet
                break
            pv, f = basis[c][c], w[c]
            g = gcd(pv, f)
            if pv != g:
                w = {k: pv // g * x for k, x in w.items()}
            add_multiple(w, -f // g, basis[c])
            w = _primitive_dict(w)
    return basis


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot_columns): the nonzero
    rows sorted by pivot, each with a 1 at its pivot, as Fractions.
    ``_echelon``, then one integer back-substitution from the last pivot:
    the later pivot rows are by then zero at every other pivot, so one
    update over the lcm of their pivot entries clears them all."""
    basis = _echelon(rows)
    pivots = sorted(basis)
    red = []
    for pc in reversed(pivots):
        w = basis[pc]
        later = [c for c in w if c != pc and c in basis]
        m = lcm(*(basis[c][c] for c in later))
        w = {k: m * x for k, x in w.items()}
        for c in later:
            add_multiple(w, -w[c] // basis[c][c], basis[c])
        w = basis[pc] = _primitive_dict(w)
        red.append({c: Fraction(x, w[pc]) for c, x in w.items()})
    return red[::-1], pivots


def vanishing_part(rows, nbad, names):
    """Basis of the part of the row space of ``rows`` that vanishes on the
    columns 0..nbad-1, for rows numbered bad-first, as primitive integer
    rows over the columns ``names[c]``.

    A row of an echelon form whose pivot is good is zero left of it, hence
    on every bad column.  A combination that uses a bad-pivot row is
    nonzero at the smallest pivot it uses, which is bad.  So the
    good-pivot rows are the basis."""
    basis = _echelon(rows)
    return [
        {names[c]: x for c, x in basis[pc].items()}
        for pc in sorted(basis)
        if pc >= nbad
    ]


def vanishing_rows(rows, bad_cols):
    """Basis of the part of the row space of ``rows`` that vanishes on
    every column in ``bad_cols``, as primitive integer rows over the
    original columns: the columns renumbered bad-first, then
    ``vanishing_part``."""
    bad = set(bad_cols)
    used = {c for row in rows for c in row}
    first = sorted(used & bad)
    order = first + sorted(used - bad)
    pos = {c: i for i, c in enumerate(order)}
    rows = [{pos[c]: x for c, x in row.items()} for row in rows]
    return vanishing_part(rows, len(first), order)


def solve_affine(a_rows, b, ncols):
    """One exact solution of A x = b over columns 0..ncols-1, with free
    variables set to 0, as a sparse vector; None when inconsistent."""
    red, pivots = rref([{**r, ncols: bi} for r, bi in zip(a_rows, b)])
    if pivots and pivots[-1] == ncols:
        return None
    return {pc: r[ncols] for r, pc in zip(red, pivots) if ncols in r}


def nullspace(a_rows, ncols):
    """Basis of the right nullspace of A, one sparse vector per free column
    in increasing order."""
    red, pivots = rref(a_rows) if a_rows else ([], [])
    basis = {c: {c: Fraction(1)} for c in range(ncols)}
    for pc in pivots:
        del basis[pc]
    for r, pc in zip(red, pivots):
        for c, x in r.items():
            if c != pc:
                basis[c][pc] = -x
    return list(basis.values())


def _phase1_simplex(a, b):
    """Find x >= 0 with A x = b (b >= 0), or None; the entries are ints or
    Fractions.  Bland's rule.

    The tableau is integer: each row is a positive multiple of the row of
    the textbook rational tableau, made primitive after every update.  A
    positive scale changes neither the sign of a reduced cost nor a ratio
    of the ratio test, so the pivots and the vertex are the textbook ones;
    a basic variable is its row's right-hand side over the row's entry in
    its basic column."""
    m = len(a)
    if m == 0:
        return []
    n = len(a[0])
    # columns 0..n-1 original, n..n+m-1 artificial, last column rhs; row
    # i is its rational row times d_i, the lcm of its denominators.  Rows
    # are lists and gcds are folded with reduce: a row-sized tuple (or
    # star-args call) per update would fill the interpreter's tuple free
    # lists and raise peak memory.
    t, scales = [], []
    for i, row in enumerate(a):
        row = [*row, *[0] * m, b[i]]
        d = reduce(lcm, (x.denominator for x in row))
        t.append([x.numerator * (d // x.denominator) for x in row])
        t[i][n + i] = d
        scales.append(d)
    # objective row: minimize sum of artificials (reduced costs; basic
    # artificial columns start at zero), times the lcm of the d_i
    big = reduce(lcm, scales)
    obj = [0] * (n + m + 1)
    for d, row in zip(scales, t):
        f = big // d
        obj = [o - f * x for o, x in zip(obj, row)]
    for i in range(m):
        obj[n + i] += big
    t = [_primitive_row(row) for row in t]
    obj = _primitive_row(obj)
    basis = list(range(n, n + m))
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        # least ratio rhs / entry over the positive entries, ties to the
        # least basic index
        leave = None
        for i in range(m):
            e = t[i][enter]
            if e > 0:
                if leave is None:
                    leave, num, den = i, t[i][-1], e
                    continue
                d = t[i][-1] * den - num * e
                if d < 0 or d == 0 and basis[i] < basis[leave]:
                    leave, num, den = i, t[i][-1], e
        if leave is None:
            return None  # unbounded phase-1 cannot happen, defensive
        prow = t[leave]
        pv = prow[enter]
        for i, row in enumerate(t):
            f = row[enter]
            if f and i != leave:
                t[i] = _pivot_update(row, prow, pv, f)
        obj = _pivot_update(obj, prow, pv, obj[enter])
        basis[leave] = enter
    if obj[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for row, bv in zip(t, basis):
        if bv < n:
            x[bv] = Fraction(row[-1], row[bv])
    return x


def _pivot_update(row, prow, pv, f):
    """pv * row - f * prow (pv > 0) made primitive: a positive multiple of
    row - (f / pv) * prow, which is zero in the pivot column."""
    g = gcd(pv, f)
    p, q = pv // g, f // g
    return _primitive_row([p * x - q * y for x, y in zip(row, prow)])


def _primitive_row(row):
    """An integer tableau row divided by the gcd of its entries, as a list."""
    g = reduce(gcd, row)
    return [x // g for x in row] if g > 1 else row


def cone_interior_point(eqs, stricts, k):
    """A rational point L in Q^k with L.v = 0 for v in eqs and L.w >= 1
    for w in stricts (hence > 0; the region is a cone so scaling is free).
    Returns None when the relatively open cone is empty.

    L = sum y_j v_j over a basis v_j of the nullspace of eqs, and a
    phase-1 simplex finds y with G y >= 1, G the matrix of the w.v_j.
    Without a nonzero equality the basis is the unit one and G is the
    stricts themselves; otherwise each v_j enters scaled to a primitive
    integer vector, so G is integer for integer stricts.  Scaling v_j by
    c_j > 0 scales column j of G (and its twin for -y_j) by c_j: every
    tableau the simplex meets has that column times c_j and each row
    times a positive factor, so no reduced cost changes sign, and every
    ratio of the ratio test is divided by the entering column's c_j,
    which keeps its winner and its ties.  Bland's rule therefore takes
    the same pivots, y_j comes out divided by c_j, and L is the same."""
    eqs = [{i: x for i, x in enumerate(v) if x} for v in eqs]
    if any(eqs):
        ns = [primitive_part(v)[2] for v in nullspace(eqs, k)]
        g = [[sum(w[i] * x for i, x in v.items()) for v in ns] for w in stricts]
    else:
        ns = [{i: 1} for i in range(k)]
        g = [list(w) for w in stricts]
    if not stricts:
        return [Fraction(0)] * k
    if not ns:
        return None
    m = len(ns)
    # G y >= 1 with free y: y = u - v, slack s: G u - G v - s = 1
    rows = []
    for i, gr in enumerate(g):
        row = gr + [-c for c in gr] + [0] * len(stricts)
        row[2 * m + i] = -1
        rows.append(row)
    sol = _phase1_simplex(rows, [1] * len(stricts))
    if sol is None:
        return None
    point = [Fraction(0)] * k
    for j, v in enumerate(ns):
        y = sol[j] - sol[m + j]
        for i, x in v.items():
            point[i] += y * x
    return point


def primitive(v):
    """An integer vector divided by the gcd of its entries, as a tuple;
    the zero vector stays zero."""
    g = gcd(*v)
    return tuple(c // g for c in v) if g > 1 else tuple(v)


def to_primitive_int(vec):
    """Scale a rational vector to a primitive integer vector (same ray)."""
    v = primitive_part(dict(enumerate(vec)))[2]
    return tuple(v.get(i, 0) for i in range(len(vec)))
