"""Basic rational cones in the nonnegative dual quadrant.

A basic cone is given by k integer row forms L_1, ..., L_k with
nonnegative entries and determinant 1 after reordering; the columns
C_1, ..., C_k of the inverse matrix span the dual-cone monoid freely, and
W_i = U^(C_i) are the toric coordinates.  Non-basic simplicial cones are
refined into basic subcones by stellar subdivision."""

from __future__ import annotations

from fractions import Fraction

from ._linalg import primitive
from .errors import ConeError, ResourceBoundExceeded

# Most lattice points one refine_to_basic step may scan ((bound + 1)^k).
MAX_BOX_POINTS = 20_000


def _det(rows):
    k = len(rows)
    if k == 1:
        return rows[0][0]
    total = 0
    for j in range(k):
        minor = [r[:j] + r[j + 1 :] for r in [list(x) for x in rows[1:]]]
        total += (-1) ** j * rows[0][j] * _det([tuple(m) for m in minor])
    return total


def _inverse_unimodular(rows):
    """Exact inverse of a nonsingular integer matrix: integer entries when
    the determinant is +-1, exact Fractions otherwise."""
    k = len(rows)
    d = _det(rows)
    inv = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            minor = [
                tuple(rows[a][b] for b in range(k) if b != i)
                for a in range(k)
                if a != j
            ]
            cof = (-1) ** (i + j) * (_det(minor) if minor else 1)
            inv[i][j] = cof // d if d in (1, -1) else Fraction(cof, d)
    return tuple(tuple(r) for r in inv)


class BasicCone:
    """Rows L_i (forms, det = 1), inverse columns C_j, toric data."""

    __slots__ = ("rows", "inverse", "columns")

    def __init__(self, rows):
        rows = tuple(tuple(int(c) for c in r) for r in rows)
        k = len(rows)
        if any(len(r) != k for r in rows):
            raise ConeError("need k forms on Q^k")
        if any(c < 0 for r in rows for c in r):
            raise ConeError("cone rays must have nonnegative entries")
        d = _det(rows)
        if d == -1:
            rows = rows[:-2] + (rows[-1], rows[-2]) if k >= 2 else rows
            d = _det(rows)
        if d != 1:
            raise ConeError(f"not basic: determinant {d} != 1")
        self.rows = rows
        self.inverse = _inverse_unimodular(rows)
        self.columns = tuple(
            tuple(self.inverse[i][j] for i in range(k)) for j in range(k)
        )

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


def dual_membership(a, gamma: BasicCone) -> bool:
    """a in the dual cone iff L_i(a) >= 0 for every row."""
    return min(cone_drops(gamma.rows, a, (0,) * gamma.k)) >= 0


def w_to_u(a, gamma: BasicCone):
    """Exponent of u representing W^a: the matrix product L' a."""
    return cone_drops(gamma.inverse, a, (0,) * gamma.k)


def u_to_w(sigma, gamma: BasicCone):
    """Exponent of W representing u^sigma: the matrix product L sigma."""
    return cone_drops(gamma.rows, sigma, (0,) * gamma.k)


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


def _solve_membership(inv, v):
    """Barycentric coordinates of v in the simplicial cone whose rays (rows
    as points) form the matrix with inverse ``inv``, or None if v is
    outside: the solution of lambda . rays = v is v . inv."""
    k = len(inv)
    lam = [sum(v[j] * inv[j][i] for j in range(k)) for i in range(k)]
    if any(l < 0 for l in lam):
        return None
    return lam


def refine_to_basic(rays) -> tuple[BasicCone, ...]:
    """Refine a full-dimensional simplicial cone (given by its ray forms)
    into basic subcones by iterated stellar subdivision at the
    lexicographically smallest primitive vector reducing the determinant.
    Raises ResourceBoundExceeded before a step whose box of candidate
    points holds more than MAX_BOX_POINTS."""
    rays = [tuple(r) for r in normalize_rays(rays)]
    k = len(rays)
    if any(len(r) != k for r in rays):
        raise ConeError("refinement needs a full-dimensional simplicial cone")
    d = abs(_det(tuple(rays)))
    if d == 0:
        raise ConeError("rays are linearly dependent")
    if d == 1:
        return (BasicCone(rays),)
    # candidate subdivision points: nonzero lattice points of the half-open
    # fundamental parallelepiped, lexicographically smallest primitive first
    candidates = set()
    inv = _inverse_unimodular(tuple(rays))
    bound = max(abs(c) for r in rays for c in r) * k
    if (bound + 1) ** k > MAX_BOX_POINTS:
        raise ResourceBoundExceeded(
            f"refinement would scan {(bound + 1) ** k} lattice points "
            f"(coordinates 0..{bound}), over the cap of {MAX_BOX_POINTS}",
            cap="MAX_BOX_POINTS",
            limit=MAX_BOX_POINTS,
            observed=(bound + 1) ** k,
        )
    from itertools import product

    for point in product(range(bound + 1), repeat=k):
        if all(c == 0 for c in point):
            continue
        lam = _solve_membership(inv, point)
        if lam is None or any(l >= 1 for l in lam):
            continue
        candidates.add(primitive(point))
    for v in sorted(candidates):
        lam = _solve_membership(inv, v)
        if lam is None:
            continue
        pieces = []
        ok = True
        for i in range(k):
            if lam[i] == 0:
                continue
            sub = rays[:i] + [v] + rays[i + 1 :]
            dsub = abs(_det(tuple(sub)))
            if dsub == 0 or dsub >= d:
                ok = False
                break
            pieces.append(sub)
        if ok and pieces:
            out = []
            for sub in pieces:
                out.extend(refine_to_basic(sub))
            return tuple(out)
    raise ConeError("stellar refinement failed to reduce the determinant")
