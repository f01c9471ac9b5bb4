"""The analytic standard fan: the partition of the closed nonnegative
weight quadrant into rational polyhedral cones on which the reduced
standard basis and its graded symbols stay constant.

Construction: collect wall normals (pairwise differences of shifted weight
vectors inside each basis element) adaptively.  The cells of the resulting
central hyperplane arrangement inside the quadrant are split from the
quadrant's faces by the signs of the normals on integer cone generators,
with no LP, and carried from one saturation round to the next; the LP runs
once per cell for its canonical exact rational sample.  Then merge cells
that carry identical basis-and-stratum data along the convex constancy
region of one defining cell.  Every merge is re-verified by recomputation
at each member cell's sample; a failed merge falls back to emitting the
member cells individually."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd

from ._linalg import cone_interior_point, to_primitive_int
from .basis import Caps, DEFAULT_CAPS, StandardBasis, reduce_basis
from .errors import ResourceBoundExceeded, WeightError
from .filtration import multi_weight
from .weights import LinearForm, TermOrder


def _canon(v):
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    if g == 0:
        return None
    v = tuple(c // g for c in v)
    for c in v:
        if c > 0:
            return v
        if c < 0:
            return tuple(-x for x in v)
    return None


def _dot(L, v):
    return sum(Fraction(a) * b for a, b in zip(L, v))


def _sign(x):
    return 0 if x == 0 else (1 if x > 0 else -1)


def _weight_vectors(element, shifts, k):
    """Distinct shifted multiweights of an element's support."""
    out = {}
    for key, i, _ in element.iter_terms():
        w = multi_weight(key, i, shifts, k)
        out.setdefault(w, []).append((key, i))
    return out


def _basis_data(generators, sample: LinearForm, base_order, caps):
    basis = reduce_basis(generators, sample, base_order=base_order, caps=caps)
    ring = basis.ring
    k = ring.k
    strata = []
    eqs = []
    stricts = []
    normals = set()
    for h in basis.elements:
        wvs = _weight_vectors(h, ring.shifts, k)
        vals = {w: sample.of(w) for w in wvs}
        top = max(vals.values())
        stratum_ws = sorted(w for w, v in vals.items() if v == top)
        rest_ws = sorted(w for w, v in vals.items() if v != top)
        strata.append(
            frozenset((key, i) for w in stratum_ws for key, i in wvs[w])
        )
        for idx, w1 in enumerate(stratum_ws):
            for w2 in stratum_ws[idx + 1 :]:
                d = tuple(a - b for a, b in zip(w1, w2))
                c = _canon(d)
                if c is not None:
                    eqs.append(c)
                    normals.add(c)
        for w1 in stratum_ws:
            for w2 in rest_ws:
                d = tuple(a - b for a, b in zip(w1, w2))
                stricts.append(d)
                c = _canon(d)
                if c is not None:
                    normals.add(c)
    dedup_eqs = tuple(sorted(set(eqs)))
    dedup_stricts = tuple(sorted(set(stricts)))
    return basis, tuple(strata), dedup_eqs, dedup_stricts, normals


@dataclass(frozen=True)
class FanCone:
    """One cone of the partition: defining constraints, an interior sample
    and the reduced basis valid on the whole cone."""

    equalities: tuple
    stricts: tuple
    sample: tuple
    basis: StandardBasis
    strata: tuple

    def contains(self, L: LinearForm) -> bool:
        if any(c < 0 for c in L.coeffs):
            return False
        return all(_dot(L.coeffs, v) == 0 for v in self.equalities) and all(
            _dot(L.coeffs, v) > 0 for v in self.stricts
        )


class Fan:
    """The full partition, with a sign-pattern index for point location."""

    def __init__(self, ring, generators, normals, cones, cell_map):
        self.ring = ring
        self.generators = tuple(generators)
        self.normals = normals
        self.cones = tuple(cones)
        self._cell_map = cell_map

    def closure_relations(self):
        """For each cone, the indices of the other cones whose closure
        contains its sample (reported, not certified: membership is
        checked at the sample point only)."""
        out = []
        for cone in self.cones:
            hosts = tuple(
                j
                for j, other in enumerate(self.cones)
                if other is not cone
                and all(_dot(cone.sample, v) == 0 for v in other.equalities)
                and all(_dot(cone.sample, v) >= 0 for v in other.stricts)
            )
            out.append(hosts)
        return tuple(out)

    def cone_of_weight(self, L: LinearForm) -> FanCone:
        if any(c < 0 for c in L.coeffs):
            raise WeightError("weight must lie in the closed positive quadrant")
        pattern = tuple(_sign(_dot(L.coeffs, v)) for v in self.normals)
        idx = self._cell_map.get(pattern)
        if idx is None:
            raise WeightError(f"no cell for weight {L} (fan incomplete)")
        return self.cones[idx]

    def __len__(self):
        return len(self.cones)


def _quadrant_faces(coord):
    """The 2^k open faces of the closed quadrant as (signs, generators), one
    per set of positive coordinates, each generated by its unit vectors
    ``coord`` (the origin is the face with no generators)."""
    return [
        (dict(zip(coord, pos)), [e for e, s in zip(coord, pos) if s])
        for pos in product((0, 1), repeat=len(coord))
    ]


def _capped(cells, max_cells):
    if len(cells) > max_cells:
        raise ResourceBoundExceeded(f"arrangement exceeded {max_cells} cells")
    return cells


def _split(cell, v):
    """The nonempty parts of one cell on the sides of v (the
    double-description update, integer arithmetic only).  A cell is
    (signs, generators): its sign dict over the normals split so far, and
    primitive integer generators whose strictly positive combinations are
    exactly the cell (the relative interior of the cone they generate).
    A cell that meets both sides of v splits into three; each side keeps
    its own and the zero generators plus the crossings of every opposite
    pair."""
    signs, gens = cell
    sides = {-1: [], 0: [], 1: []}
    for g in gens:
        d = sum(a * b for a, b in zip(v, g))
        sides[_sign(d)].append((d, g))
    if not (sides[1] and sides[-1]):
        s = 1 if sides[1] else (-1 if sides[-1] else 0)
        return [({**signs, v: s}, gens)]
    wall = [g for _, g in sides[0]] + [
        _canon(tuple(dp * a - dn * b for a, b in zip(n, p)))
        for dp, p in sides[1]
        for dn, n in sides[-1]
    ]
    wall = list(dict.fromkeys(wall))
    return [
        ({**signs, v: s}, [g for _, g in sides[s]] + wall if s else wall)
        for s in (-1, 0, 1)
    ]


def _split_cells(cells, normals, max_cells):
    """Split every cell by each of ``normals`` in turn, checking the cell
    cap after each normal (cell counts only grow as normals are added)."""
    for v in normals:
        cells = _capped(
            [part for cell in cells for part in _split(cell, v)], max_cells
        )
    return cells


def _cell_samples(cells, sorted_normals, k):
    """The cells as (pattern, eqs, signed_stricts, sample), sorted by sign
    pattern over ``sorted_normals``; the sample is the LP's interior point
    of the cell's constraints taken in sorted-normal order."""
    out = []
    for pattern in sorted(tuple(sg[v] for v in sorted_normals) for sg, _ in cells):
        eqs = tuple(v for v, s in zip(sorted_normals, pattern) if s == 0)
        sts = tuple(
            tuple(s * c for c in v) for v, s in zip(sorted_normals, pattern) if s
        )
        out.append((pattern, eqs, sts, tuple(cone_interior_point(eqs, sts, k))))
    return out


def standard_fan(
    generators,
    base_order: TermOrder | None = None,
    caps: Caps = DEFAULT_CAPS,
    max_normals: int = 64,
    max_cells: int = 4096,
    max_k: int = 3,
) -> Fan:
    """Compute the partition of the closed quadrant for the module spanned
    by ``generators``.  Guarded to k <= ``max_k`` filtered coordinates by
    default (cell counts grow quickly with the dimension)."""
    ring = generators[0].ring
    k = ring.k
    if k > max_k:
        raise ResourceBoundExceeded(
            f"fan construction is capped at k = {max_k} filtered coordinates "
            f"(got {k}); pass max_k explicitly to go further"
        )
    coord = tuple(
        tuple(1 if j == i else 0 for j in range(k)) for i in range(k)
    )
    normals = set(coord)
    split_by = set(coord)
    parts = _capped(_quadrant_faces(coord), max_cells)
    data_cache: dict = {}

    def data_at(sample):
        key = tuple(sample)
        if key not in data_cache:
            data_cache[key] = _basis_data(
                generators, LinearForm(sample), base_order, caps
            )
        return data_cache[key]

    # saturate the wall-normal set
    while True:
        sorted_normals = sorted(normals)
        if len(sorted_normals) > max_normals:
            raise ResourceBoundExceeded(
                f"fan needed more than {max_normals} wall normals"
            )
        parts = _split_cells(parts, sorted(normals - split_by), max_cells)
        split_by = normals
        cells = _cell_samples(parts, sorted_normals, k)
        new = set(normals)
        for _, _, _, sample in cells:
            _, _, _, _, cell_normals = data_at(sample)
            new |= cell_normals
        if new == normals:
            break
        normals = new

    # group cells into constancy cones
    cones: list[FanCone] = []
    cell_map: dict = {}
    claimed = [False] * len(cells)
    order_idx = sorted(range(len(cells)), key=lambda c: cells[c][0])
    for ci in order_idx:
        if claimed[ci]:
            continue
        pattern, eqs, sts, sample = cells[ci]
        basis, strata, ceqs, cstricts, _ = data_at(sample)
        members = []
        for cj in order_idx:
            if claimed[cj]:
                continue
            s2 = cells[cj][3]
            if all(_dot(s2, v) == 0 for v in ceqs) and all(
                _dot(s2, v) > 0 for v in cstricts
            ):
                members.append(cj)
        same = all(
            data_at(cells[cj][3])[0].elements == basis.elements
            and data_at(cells[cj][3])[1] == strata
            for cj in members
        )
        if not same:
            members = [ci]
        # representative: member cell with the fewest equalities (max dim)
        rep = min(members, key=lambda cj: (sum(1 for s in cells[cj][0] if s == 0), cells[cj][0]))
        rep_sample = cells[rep][3]
        rep_basis, rep_strata, rceqs, rcstricts, _ = data_at(rep_sample)
        if members == [ci] and not same:
            # fall back to the cell's own sign-pattern constraints
            cone_eqs = tuple(sorted(cells[ci][1]))
            cone_stricts = tuple(sorted(cells[ci][2]))
            rep_sample = sample
            rep_basis, rep_strata = basis, strata
        else:
            cone_eqs = rceqs
            cone_stricts = rcstricts
        cone = FanCone(
            equalities=cone_eqs,
            stricts=cone_stricts,
            sample=to_primitive_int(rep_sample),
            basis=rep_basis,
            strata=rep_strata,
        )
        idx = len(cones)
        cones.append(cone)
        for cj in members:
            claimed[cj] = True
            cell_map[cells[cj][0]] = idx
    return Fan(ring, generators, tuple(sorted(normals)), cones, cell_map)
