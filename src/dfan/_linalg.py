"""Sparse exact linear algebra over Fraction: rref, solve, nullspace, and a
small phase-1 simplex used to find relative-interior points of rational
cones.  Everything is deterministic (Bland's rule, fixed tie-breaks).

A row or vector is a dict from column index to a nonzero Fraction; absent
columns are zero.  Every solver runs on the one elimination kernel,
``rref``, whose output is the unique reduced row echelon form."""

from __future__ import annotations

from fractions import Fraction


def add_multiple(w, f, row):
    """w += f * row in place, dropping entries that cancel."""
    for c, x in row.items():
        y = w.get(c)
        y = f * x if y is None else y + f * x
        if y:
            w[c] = y
        else:
            del w[c]


def _entries(row):
    """A copy of a sparse row with Fraction values and no zeros."""
    return {
        c: x if type(x) is Fraction else Fraction(x) for c, x in row.items() if x
    }


def _reduce(w, basis):
    """Reduce w in place against basis, a map from pivot column to a row
    with a 1 at its pivot and 0 at every other pivot: one pass suffices."""
    for pc in [c for c in w if c in basis]:
        add_multiple(w, -w[pc], basis[pc])
    return w


def reduce_against(red_rows, pivots, v):
    """Remainder of v against an rref row basis, as a new sparse row."""
    return _reduce(_entries(v), dict(zip(pivots, red_rows)))


def in_row_space(red_rows, pivots, v):
    """Is v in the row space described by an rref basis?"""
    return not reduce_against(red_rows, pivots, v)


def rref(rows):
    """Reduced row echelon form.  Returns (rows, pivot_columns): the nonzero
    rows sorted by pivot, each with a 1 at its pivot."""
    basis = {}  # pivot column -> row; rows stay reduced against each other
    for row in rows:
        w = _reduce(_entries(row), basis)
        if not w:
            continue
        pc = min(w)  # the leading column: keeps the rows in echelon form
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
    """Find x >= 0 with A x = b (b >= 0), or None.  Bland's rule."""
    m = len(a)
    if m == 0:
        return []
    n = len(a[0])
    # tableau with artificial variables: columns 0..n-1 original, n..n+m-1
    # artificial, last column rhs
    t = [list(map(Fraction, a[i])) + [Fraction(0)] * m + [Fraction(b[i])] for i in range(m)]
    for i in range(m):
        t[i][n + i] = Fraction(1)
    basis = list(range(n, n + m))
    # objective row: minimize sum of artificials (reduced costs; basic
    # artificial columns must start at zero)
    obj = [Fraction(0)] * (n + m + 1)
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
            return None  # unbounded phase-1 cannot happen, defensive
        _, _, leave = min(ratios, key=lambda z: (z[0], z[1]))
        prow = t[leave]
        pv = prow[enter]
        nz = [j for j, x in enumerate(prow) if x]
        for j in nz:
            prow[j] /= pv
        # every other row changes only on the pivot row's nonzero columns
        for row in t + [obj]:
            f = row[enter]
            if f and row is not prow:
                for j in nz:
                    row[j] -= f * prow[j]
        basis[leave] = enter
    if obj[n + m] != 0:
        return None
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = t[i][n + m]
    return x


def cone_interior_point(eqs, stricts, k):
    """A rational point L in Q^k with L.v = 0 for v in eqs and L.w >= 1
    for w in stricts (hence > 0; the region is a cone so scaling is free).
    Returns None when the relatively open cone is empty."""
    ns = nullspace([dict(enumerate(v)) for v in eqs], k)
    if not ns:
        if stricts:
            return None
        return [Fraction(0)] * k
    m = len(ns)
    if not stricts:
        return [Fraction(0)] * k
    g = [[sum(Fraction(w[i]) * x for i, x in v.items()) for v in ns] for w in stricts]
    # G y >= 1 with free y: y = u - v, slack s: G u - G v - s = 1
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


def to_primitive_int(vec):
    """Scale a rational vector to a primitive integer vector (same ray)."""
    from math import gcd, lcm

    fr = [Fraction(x) for x in vec]
    if not any(fr):
        return tuple(0 for _ in fr)
    den = 1
    for f in fr:
        den = lcm(den, f.denominator)
    ints = [int(f * den) for f in fr]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    return tuple(c // g for c in ints)
