"""The analytic standard fan: the partition of the closed nonnegative
weight quadrant into rational polyhedral cones on which the reduced
standard basis and its graded symbols stay constant.

Construction: collect wall normals (pairwise differences of shifted weight
vectors inside each basis element) adaptively.  The cells of the resulting
central hyperplane arrangement inside the quadrant are split from the
quadrant's faces by the signs of the normals on integer cone generators,
with no LP, and carried from one saturation round to the next.

One Buchberger completion serves a whole region.  A completion at a
sample records every order decision it takes; the cone of weights at
which each decision comes out the same (``StandardBasis.order_cone``),
cut down to the constancy region on which every basis element keeps its
top-weight stratum, is the completion's region.  A completion anywhere in
it would repeat the stored one step for step, so a cell whose integer
generators show it inside a stored region takes the stored data with no
LP and no completion, and a sample inside one takes the stored basis
under its own order (``StandardBasis.at``) with no completion either.
Every other cell gets the LP's canonical exact rational sample, and a
sample outside every stored region gets a completion of its own.

Then merge cells that carry identical basis-and-stratum data along the
convex constancy region of one defining cell; the merge check compares
the data found above, not recomputed completions.  Each cone's reported
sample is the LP sample of its representative cell, and its basis is the
one a completion there returns, found by the same rule.  A failed merge
falls back to emitting the member cells individually.

The module constants MAX_K, MAX_NORMALS and MAX_CELLS cap the dimension,
the wall normals and the arrangement's cells; reaching one raises
ResourceBoundExceeded."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul

from ._linalg import cone_interior_point, primitive, to_primitive_int
from .basis import StandardBasis, reduce_basis
from .errors import DfanError, ResourceBoundExceeded, WeightError
from .filtration import multi_weight
from .weights import LinearForm

# Cell counts grow quickly with the dimension.
MAX_K = 3  # filtered coordinates of a fan
MAX_NORMALS = 64  # wall normals of one fan
MAX_CELLS = 4096  # cells of the arrangement after any split


def _canon(v):
    """The primitive vector on the line of v whose first nonzero entry is
    positive, or None for zero."""
    v = primitive(v)
    for c in v:
        if c:
            return v if c > 0 else tuple(-x for x in v)
    return None


def _dot(L, v):
    return sum(map(mul, L, v))


def _sign(x):
    return 0 if x == 0 else (1 if x > 0 else -1)


def _weight_vectors(element, k):
    """Distinct shifted multiweights of an element's support."""
    out = {}
    shifts = element.shifts
    for key, i, _ in element.iter_terms():
        w = multi_weight(key, i, shifts, k)
        out.setdefault(w, []).append((key, i))
    return out


def _basis_data(basis: StandardBasis, sample: LinearForm):
    """(basis, strata, eqs, stricts, normals) at ``sample``: each element's
    top-weight stratum there, the constancy region on which every stratum
    stays on top (the equalities and strict forms), and the wall normals
    met on the way."""
    k = basis.ring.k
    strata = []
    eqs = []
    stricts = []
    normals = set()
    for h in basis.elements:
        wvs = _weight_vectors(h, k)
        vals = {w: sample.dot(w) for w in wvs}  # den * L(w)
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
        return all(c >= 0 for c in L.coeffs) and _inside(
            [L.coeffs], self.equalities, self.stricts
        )

    def closure_contains(self, gens) -> bool:
        """Whether every integer vector in ``gens`` lies in the closure."""
        return _inside(gens, self.equalities, (), self.stricts)


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
                if other is not cone and other.closure_contains([cone.sample])
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
        raise ResourceBoundExceeded(
            f"arrangement exceeded {max_cells} cells",
            cap="MAX_CELLS",
            limit=max_cells,
            observed=len(cells),
        )
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
        d = _dot(v, g)
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


def _constraints(pattern, sorted_normals):
    """A cell's sign pattern over ``sorted_normals`` as (eqs, signed
    stricts), in sorted-normal order."""
    eqs = tuple(v for v, s in zip(sorted_normals, pattern) if s == 0)
    sts = tuple(
        tuple(s * c for c in v) for v, s in zip(sorted_normals, pattern) if s
    )
    return eqs, sts


def _inside(gens, eqs, stricts, weak=()):
    """Whether the strictly positive combinations of the integer vectors
    ``gens`` (a cell, or one point) all lie in the cone {L : L.v = 0 for
    v in eqs, L.w > 0 for w in stricts, L.u >= 0 for u in weak}: every
    generator meets the equalities, no generator is negative on a strict
    or weak form, and each strict form is positive on the generators'
    sum."""
    for v in eqs:
        for g in gens:
            if sum(map(mul, v, g)):
                return False
    for u in weak:
        for g in gens:
            if sum(map(mul, u, g)) < 0:
                return False
    total = [sum(c) for c in zip(*gens)]
    for w in stricts:
        for g in gens:
            if sum(map(mul, w, g)) < 0:
                return False
        if sum(map(mul, w, total)) <= 0:
            return False
    return True


class _Regions:
    """The data (basis, strata, eqs, stricts, normals) of the cells and
    samples one ``standard_fan`` call looks at, and the region of every
    fresh completion made for them (see the module docstring)."""

    def __init__(self, generators):
        self.generators = generators
        self.stored = []  # (data, region) of every fresh completion
        self._cells = {}
        self._samples = {}
        self._lp = {}

    def _find(self, gens):
        for data, region in self.stored:
            if _inside(gens, *region):
                return data
        return None

    def sample(self, cons):
        """The LP's interior point of a cell's constraints (eqs, stricts)."""
        if cons not in self._lp:
            k = self.generators[0].ring.k
            self._lp[cons] = tuple(cone_interior_point(*cons, k))
        return self._lp[cons]

    def at_sample(self, sample):
        """The data at ``sample``, the basis exactly the one a completion
        there returns (same order and context)."""
        if sample not in self._samples:
            L = LinearForm(sample)
            data = self._find([to_primitive_int(sample)])
            if data is not None:
                data = (data[0].at(L),) + data[1:]
            else:
                basis = reduce_basis(self.generators, L)
                data = _basis_data(basis, L)
                weak, strict = basis.order_cone
                self.stored.append((data, (data[2], data[3] + strict, weak)))
            self._samples[sample] = data
        return self._samples[sample]

    def of_cell(self, gens, cons):
        """The data of the cell spanned by ``gens``: a stored region's when
        it holds the whole cell, else the data at the LP sample of the
        cell's constraints ``cons``."""
        if gens not in self._cells:
            data = self._find(gens)
            if data is None:
                return self.at_sample(self.sample(cons))
            self._cells[gens] = data
        return self._cells[gens]


def check_fan_k(k: int) -> None:
    """Raise ResourceBoundExceeded past k = MAX_K filtered coordinates."""
    if k > MAX_K:
        raise ResourceBoundExceeded(
            f"fan construction is capped at k = {MAX_K} filtered coordinates "
            f"(got {k})",
            cap="MAX_K",
            limit=MAX_K,
            observed=k,
        )


def standard_fan(generators) -> Fan:
    """Compute the partition of the closed quadrant for the module spanned
    by ``generators``.  Raises ResourceBoundExceeded past k = MAX_K
    filtered coordinates, MAX_NORMALS wall normals or MAX_CELLS cells."""
    ring = generators[0].ring
    k = ring.k
    check_fan_k(k)
    coord = tuple(
        tuple(1 if j == i else 0 for j in range(k)) for i in range(k)
    )
    normals = set(coord)
    split_by = set(coord)
    parts = _capped(_quadrant_faces(coord), MAX_CELLS)
    regions = _Regions(generators)

    # saturate the wall-normal set
    while True:
        sorted_normals = sorted(normals)
        if len(sorted_normals) > MAX_NORMALS:
            raise ResourceBoundExceeded(
                f"fan needed more than {MAX_NORMALS} wall normals",
                cap="MAX_NORMALS",
                limit=MAX_NORMALS,
                observed=len(sorted_normals),
            )
        parts = _split_cells(parts, sorted(normals - split_by), MAX_CELLS)
        split_by = normals
        cells = sorted(
            (tuple(sg[v] for v in sorted_normals), tuple(gens)) for sg, gens in parts
        )
        data = [
            regions.of_cell(gens, _constraints(pattern, sorted_normals))
            for pattern, gens in cells
        ]
        new = normals.union(*(d[4] for d in data))
        if new == normals:
            break
        normals = new

    # group cells into constancy cones
    cones: list[FanCone] = []
    cell_map: dict = {}
    for ci, (pattern, _) in enumerate(cells):
        if pattern in cell_map:
            continue
        basis, strata, ceqs, cstricts, _ = data[ci]
        inside = [cj for cj in range(len(cells)) if _inside(cells[cj][1], ceqs, cstricts)]
        members = [cj for cj in inside if cells[cj][0] not in cell_map]
        # a region that holds a cell of an earlier cone would overlap it
        same = len(members) == len(inside) and all(
            data[cj][0].elements == basis.elements and data[cj][1] == strata
            for cj in members
        )
        if not same:
            members = [ci]
        # representative: member cell with the fewest equalities (max dim)
        rep = min(members, key=lambda cj: (cells[cj][0].count(0), cells[cj][0]))
        cons = _constraints(cells[rep][0], sorted_normals)
        rep_sample = regions.sample(cons)
        rep_basis, rep_strata, cone_eqs, cone_stricts, _ = regions.at_sample(
            rep_sample
        )
        if not same:
            # fall back to the cell's own sign-pattern constraints
            cone_eqs, cone_stricts = (tuple(sorted(c)) for c in cons)
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
            cell_map[cells[cj][0]] = idx
    # the cones are disjoint: each cell lies in its own cone and no other
    for pattern, gens in cells:
        holders = [i for i, c in enumerate(cones) if _inside(gens, c.equalities, c.stricts)]
        if holders != [cell_map[pattern]]:
            raise DfanError(f"cell {pattern} does not lie in exactly its own cone")
    return Fan(ring, generators, tuple(sorted_normals), cones, cell_map)
