"""Basic rational cones in the nonnegative dual quadrant.

A basic cone is given by k integer row forms L_1, ..., L_k with
nonnegative entries and determinant 1 after reordering; the columns
C_1, ..., C_k of the inverse matrix span the dual-cone monoid freely, and
W_i = U^(C_i) are the toric coordinates.  Non-basic simplicial cones are
refined into basic subcones by stellar subdivision, at points found by
an integer scan through the signed adjugate and |det|."""

from __future__ import annotations

from itertools import product
from operator import mul

from ._linalg import primitive
from .errors import ConeError, ResourceBoundExceeded

# Most lattice points one refine_to_basic step may scan ((bound + 1)^k).
MAX_BOX_POINTS = 20_000


def _bareiss(rows):
    """(det M, adj M) for a square integer matrix M, adj M None when M is
    singular: fraction-free Gauss-Jordan elimination of [M | I] (Bareiss),
    every division exact, leaves [D I | D M^-1] with D = det M up to the
    sign of the row swaps."""
    k = len(rows)
    a = [[*r, *[0] * i, 1, *[0] * (k - i - 1)] for i, r in enumerate(rows)]
    sign = prev = 1
    for c in range(k):
        p = c
        while not a[p][c]:
            p += 1
            if p == k:
                return 0, None
        if p != c:
            a[c], a[p], sign = a[p], a[c], -sign
        top = a[c]
        piv = top[c]
        for i, row in enumerate(a):
            f = row[c]
            if i != c and (f or piv != prev):  # else the row stays as it is
                a[i] = [(piv * x - f * y) // prev for x, y in zip(row, top)]
        prev = piv
    return sign * prev, [[sign * x for x in row[k:]] for row in a]


def _adjugate(rows):
    """(A, |det M|) for a square integer matrix M, A the adjugate times the
    sign of the determinant: M^-1 = A / |det M|; A is None when M is
    singular."""
    d, adj = _bareiss(rows)
    if adj is None:
        return None, 0
    sign = 1 if d > 0 else -1
    return tuple(tuple(sign * x for x in row) for row in adj), abs(d)


class BasicCone:
    """Rows L_i (forms, det = 1), inverse columns C_j, toric data."""

    __slots__ = ("rows", "inverse", "columns")

    def __init__(self, rows):
        rows = tuple(tuple(map(int, r)) for r in rows)
        k = len(rows)
        if any(len(r) != k for r in rows):
            raise ConeError("need k forms on Q^k")
        if any(c < 0 for r in rows for c in r):
            raise ConeError("cone rays must have nonnegative entries")
        d, adj = _bareiss(rows)
        if d == -1:  # k >= 2, as the entries are nonnegative
            rows = rows[:-2] + (rows[-1], rows[-2])
            d, adj = _bareiss(rows)
        if d != 1:
            raise ConeError(f"not basic: determinant {d} != 1")
        self.rows = rows
        self.inverse = tuple(map(tuple, adj))
        self.columns = tuple(zip(*adj))

    @property
    def k(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return isinstance(other, BasicCone) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"BasicCone({list(map(list, self.rows))})"


def orthant_cone(k: int) -> BasicCone:
    return BasicCone(tuple(tuple(1 if j == i else 0 for j in range(k)) for i in range(k)))


def cone_drops(rows, s, delta):
    """L(s) - L(delta) for each row form L.  A term of multiweight delta
    lies in V^Gamma_s when no drop is negative, and on its top stratum
    when every drop is zero."""
    return tuple(sum(r * (x - d) for r, x, d in zip(row, s, delta)) for row in rows)


def normalize_rays(rays):
    """Primitive integer ray forms in the nonnegative quadrant."""
    out = []
    for ray in rays:
        v = tuple(int(c) for c in ray)
        if any(c < 0 for c in v):
            raise ConeError(f"ray {v} leaves the nonnegative quadrant")
        if not any(v):
            raise ConeError("zero ray")
        out.append(primitive(v))
    if not out:
        raise ConeError("empty ray set")
    return tuple(out)


def _least_candidate(rays, adj, d):
    """The least primitive vector on the lines of the nonzero lattice
    points of the half-open fundamental parallelepiped of the rays: the
    points p of the box with 0 <= p . adj_i < d for each column adj_i of
    the signed adjugate, d = |det| > 1.  Raises ResourceBoundExceeded
    when the box holds more than MAX_BOX_POINTS points."""
    k = len(rays)
    bound = max(abs(c) for r in rays for c in r) * k
    if (bound + 1) ** k > MAX_BOX_POINTS:
        raise ResourceBoundExceeded(
            f"refinement would scan {(bound + 1) ** k} lattice points "
            f"(coordinates 0..{bound}), over the cap of {MAX_BOX_POINTS}",
            cap="MAX_BOX_POINTS",
            limit=MAX_BOX_POINTS,
            observed=(bound + 1) ** k,
        )
    cols = tuple(zip(*adj))
    return min(
        primitive(p)
        for p in product(range(bound + 1), repeat=k)
        if any(p) and all(0 <= sum(map(mul, p, c)) < d for c in cols)
    )


def refine_to_basic(rays) -> tuple[BasicCone, ...]:
    """Refine a full-dimensional simplicial cone (given by its ray forms)
    into basic subcones by iterated stellar subdivision at the
    lexicographically smallest primitive candidate v
    (``_least_candidate``).  Its coordinates lambda_i = v . adj_i lie in
    [0, d), not all 0, and replacing ray i by v leaves |det| = lambda_i,
    so every subcone with lambda_i > 0 has a smaller determinant.  Raises
    ResourceBoundExceeded before a step whose box of candidate points
    holds more than MAX_BOX_POINTS."""
    rays = [tuple(r) for r in normalize_rays(rays)]
    k = len(rays)
    if any(len(r) != k for r in rays):
        raise ConeError("refinement needs a full-dimensional simplicial cone")
    adj, d = _adjugate(tuple(rays))
    if d == 0:
        raise ConeError("rays are linearly dependent")
    if d == 1:
        return (BasicCone(rays),)
    v = _least_candidate(rays, adj, d)
    lam = [sum(map(mul, v, col)) for col in zip(*adj)]
    return tuple(
        cone
        for i in range(k)
        if lam[i]
        for cone in refine_to_basic(rays[:i] + [v] + rays[i + 1 :])
    )
