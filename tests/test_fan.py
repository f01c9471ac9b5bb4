import functools
import random
import signal
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st

import dfan.fan
from dfan._linalg import cone_interior_point, to_primitive_int
from dfan.basis import StandardBasis, reduce_basis
from dfan.errors import DfanError, ResourceBoundExceeded, WeightError
from dfan.fan import (
    Fan,
    FanCone,
    _basis_data,
    _canon,
    _capped,
    _inside,
    _quadrant_faces,
    _Regions,
    _split_cells,
    standard_fan,
)
from dfan.grammar import parse_vec
from dfan.weights import LinearForm, TermOrder, ord_L_vec, symbol_L
from dfan.weyl import RingDescriptor, homogenize_vec
from conftest import fan_modules, from_components, random_weyl_op

R2 = RingDescriptor(2, 2, 1)


@pytest.fixture(scope="module")
def euler_fan():
    return standard_fan([parse_vec("x1 d1 + x2 d2", R2)])


@pytest.fixture(scope="module")
def three_cone_fan():
    return standard_fan([parse_vec("d1 + x1 d2^2", R2)])


def test_euler_single_cone(euler_fan):
    assert len(euler_fan) == 1
    cone = euler_fan.cones[0]
    assert cone.equalities == () and cone.stricts == ()


def test_monomial_generator_single_cone():
    fan = standard_fan([parse_vec("d1", R2)])
    assert len(fan) == 1


def test_three_cones(three_cone_fan):
    fan = three_cone_fan
    assert len(fan) == 3
    kinds = sorted(
        (len(c.equalities), tuple(c.stricts)) for c in fan.cones
    )
    # one wall {e1 = e2} and the two open sides
    assert kinds == [(0, ((-2, 2),)), (0, ((2, -2),)), (1, ())]


def test_cone_of_weight(euler_fan, three_cone_fan):
    assert euler_fan.cone_of_weight(LinearForm((1, 1))) is euler_fan.cones[0]
    side = three_cone_fan.cone_of_weight(LinearForm((2, 1)))
    assert side.stricts == ((2, -2),)
    wall = three_cone_fan.cone_of_weight(LinearForm((1, 1)))
    assert wall.equalities == ((1, -1),)
    other = three_cone_fan.cone_of_weight(LinearForm((1, 3)))
    assert other.stricts == ((-2, 2),)


def test_negative_weight_rejected(euler_fan):
    class Fake:
        coeffs = (Fraction(-1), Fraction(0))

    with pytest.raises(WeightError):
        euler_fan.cone_of_weight(Fake())


def test_missing_cell_names_the_weight(euler_fan):
    # an incomplete sign-pattern index: the message prints the form's
    # coefficients, not its repr
    f = euler_fan
    hollow = Fan(f.ring, f.generators, f.normals, f.cones, {})
    with pytest.raises(WeightError) as got:
        hollow.cone_of_weight(LinearForm((Fraction(1, 2), 1)))
    assert str(got.value) == "no cell for weight [1/2, 1] (fan incomplete)"


def random_rational_weight(rng):
    return LinearForm(
        (
            Fraction(rng.randint(0, 16), rng.choice([1, 2, 3, 4])),
            Fraction(rng.randint(0, 16), rng.choice([1, 2, 3, 4])),
        )
    )


def test_covering_and_disjointness(three_cone_fan):
    # 200 random rational weights each land in exactly one cone
    rng = random.Random(99)
    for _ in range(200):
        L = random_rational_weight(rng)
        cone = three_cone_fan.cone_of_weight(L)
        hits = [
            c
            for c in three_cone_fan.cones
            if c.contains(L)
        ]
        assert cone in hits
        assert len(hits) == 1


def test_within_cone_constancy(three_cone_fan):
    gens = three_cone_fan.generators
    rng = random.Random(7)
    for cone in three_cone_fan.cones:
        seen = 0
        while seen < 5:
            L = random_rational_weight(rng)
            if not cone.contains(L):
                continue
            seen += 1
            b = reduce_basis(list(gens), L)
            assert b.elements == cone.basis.elements
            assert b.exponents == cone.basis.exponents


def test_closure_relations(three_cone_fan):
    relations = three_cone_fan.closure_relations()
    by_kind = {}
    for idx, cone in enumerate(three_cone_fan.cones):
        by_kind[len(cone.equalities)] = idx
    wall, sides = by_kind[1], [i for i in range(3) if i != by_kind[1]]
    # the wall sits in the closure of both open sides; the sides only in
    # their own
    assert set(relations[wall]) == set(sides)
    for side in sides:
        assert relations[side] == ()


def test_adjacent_cones_differ(three_cone_fan):
    # across the wall the graded data changes: the stored strata differ
    datas = [(c.basis.elements, c.strata) for c in three_cone_fan.cones]
    assert len(set(datas)) == len(datas)


def test_grid_oracle_small():
    # brute-force weight classification on a coarse grid must agree with
    # the fan's point location (full grid runs in the acceptance suite)
    gens = [parse_vec("d1 + x1 d2^2", R2)]
    fan = standard_fan(gens)
    vals = [Fraction(p, q) for q in (1, 2) for p in range(0, 5 * q, 2)]
    for p in sorted(set(vals)):
        for q in sorted(set(vals)):
            L = LinearForm((p, q))
            b = reduce_basis(gens, L)
            cone = fan.cone_of_weight(L)
            assert b.elements == cone.basis.elements


def test_simultaneity_of_cone_basis(three_cone_fan):
    # a basis stored on a cone stays a standard basis for every interior
    # weight: same privileged exponents, and the principal symbols of its
    # elements agree (their weights themselves vary linearly in L)
    gens = list(three_cone_fan.generators)
    rng = random.Random(17)
    for cone in three_cone_fan.cones:
        samples = [LinearForm(cone.sample)]
        while len(samples) < 4:
            L = random_rational_weight(rng)
            if cone.contains(L):
                samples.append(L)
        reference = None
        for L in samples:
            b = reduce_basis(gens, L)
            assert b.exponents == cone.basis.exponents
            sigmas = tuple(
                symbol_L(h, L, ord_L_vec(h, L)) for h in cone.basis.elements
            )
            if reference is None:
                reference = sigmas
            else:
                assert sigmas == reference


def test_dimension_guard_is_configurable(monkeypatch):
    from dfan.errors import ResourceBoundExceeded

    ring = RingDescriptor(4, 4, 1)
    gens = [parse_vec("x1 d1 + x2 d2 + x3 d3 + x4 d4", ring)]
    with pytest.raises(ResourceBoundExceeded, match="capped at k = 3"):
        standard_fan(gens)
    monkeypatch.setattr(dfan.fan, "MAX_K", 4)
    fan = standard_fan(gens)
    assert len(fan) == 1


def test_three_variable_fan():
    ring = RingDescriptor(3, 3, 1)
    fan = standard_fan([parse_vec("d1 + x1 d2 d3", ring)])
    # one wall 2e1 = e2 + e3 and its two open sides
    assert len(fan) == 3
    walls = [c for c in fan.cones if c.equalities]
    assert walls[0].equalities == ((2, -1, -1),)
    euler3 = standard_fan([parse_vec("x1 d1 + x2 d2 + x3 d3", ring)])
    assert len(euler3) == 1


def test_shifted_rank_two_fan():
    ring = RingDescriptor(2, 2, 2, [[0, 0], [1, 0]])
    gens = [
        parse_vec("d1 e1 + x1 d2 e2", ring),
        parse_vec("d2 e2", ring),
    ]
    fan = standard_fan(gens)
    assert len(fan) >= 1
    for cone in fan.cones:
        L = LinearForm(cone.sample)
        b = reduce_basis(gens, L)
        assert b.elements == cone.basis.elements


# --- the LP-free cell splitter against the LP-per-sign enumeration ---------


@functools.cache
def interior_point(eqs, stricts, k):
    """cone_interior_point, memoised across the oracle's many reruns."""
    return cone_interior_point(eqs, stricts, k)


def reference_cells(normals, coord_set, k, max_cells):
    """The enumeration the splitter replaced, kept as the oracle: one
    phase-1 LP per (cell, normal, sign) decides which cells are nonempty.
    Returns a list of (pattern, eqs, signed_stricts, sample)."""
    cells = [((), (), ())]  # pattern, eqs, signed stricts
    for v in normals:
        allowed = (0, 1) if v in coord_set else (-1, 0, 1)
        nxt = []
        for pattern, eqs, sts in cells:
            for sign in allowed:
                if sign == 0:
                    e2, s2 = eqs + (v,), sts
                else:
                    e2, s2 = eqs, sts + ((tuple(sign * c for c in v)),)
                pt = interior_point(e2, s2, k)
                if pt is not None:
                    nxt.append((pattern + (sign,), e2, s2))
        cells = nxt
        if len(cells) > max_cells:
            raise ResourceBoundExceeded(
                f"arrangement exceeded {max_cells} cells",
                cap="MAX_CELLS",
                limit=max_cells,
                observed=len(cells),
            )
    out = []
    for pattern, eqs, sts in cells:
        pt = interior_point(eqs, sts, k)
        out.append((pattern, eqs, sts, tuple(pt)))
    return out


def unit_vectors(k):
    return [tuple(int(j == i) for j in range(k)) for i in range(k)]


def reference_rounds(k, rounds, max_cells):
    """Each round's cells computed anew; "capped" ends the list when the
    cap trips."""
    out = []
    coord = set(unit_vectors(k))
    try:
        for normals in rounds:
            out.append(reference_cells(sorted(normals), coord, k, max_cells))
    except ResourceBoundExceeded:
        out.append("capped")
    return out


def lp_cells(parts, sorted_normals, k):
    """Split cells as (pattern, eqs, signed_stricts, sample), sorted by sign
    pattern over ``sorted_normals``; the sample is the LP's interior point
    of the pattern's constraints taken in sorted-normal order."""
    out = []
    for pattern in sorted(tuple(sg[v] for v in sorted_normals) for sg, _ in parts):
        eqs = tuple(v for v, s in zip(sorted_normals, pattern) if s == 0)
        sts = tuple(
            tuple(s * c for c in v) for v, s in zip(sorted_normals, pattern) if s
        )
        out.append((pattern, eqs, sts, tuple(interior_point(eqs, sts, k))))
    return out


def split_rounds(k, rounds, max_cells):
    """The split cells (signs, generators) of each round as standard_fan
    builds them: split from the quadrant's faces, carried over, split only
    by each round's new normals."""
    out = []
    split_by = set(unit_vectors(k))
    try:
        parts = _capped(_quadrant_faces(unit_vectors(k)), max_cells)
        for normals in rounds:
            parts = _split_cells(parts, sorted(normals - split_by), max_cells)
            split_by = normals
            out.append(parts)
    except ResourceBoundExceeded:
        out.append("capped")
    return out


def splitter_rounds(k, rounds, max_cells):
    """split_rounds, each round's cells LP-sampled by lp_cells."""
    return [
        parts if parts == "capped" else lp_cells(parts, sorted(normals), k)
        for parts, normals in zip(split_rounds(k, rounds, max_cells), rounds)
    ]


@st.composite
def arrangements(draw):
    """k, then the normal sets of one round and of two incremental rounds."""
    k = draw(st.integers(1, 4))
    normal = (
        st.tuples(*[st.integers(-3, 3)] * k)
        .map(_canon)
        .filter(lambda v: v is not None)
    )
    # fewer normals as k grows keeps the oracle's LPs to seconds in all
    extra = draw(st.lists(normal, unique=True, max_size=7 - k))
    cut = draw(st.integers(0, len(extra)))
    first = set(unit_vectors(k) + extra[:cut])
    return k, [first, first | set(extra[cut:])]


@settings(max_examples=40, deadline=None)
@given(arrangements())
def test_splitter_matches_lp_enumeration(arrangement):
    k, rounds = arrangement
    uncapped = reference_rounds(k, rounds, 10**6)
    assert splitter_rounds(k, rounds, 10**6) == uncapped
    assert splitter_rounds(k, rounds[1:], 10**6) == uncapped[1:]
    # The cap trips in the first round whose arrangement has more cells than
    # the cap.  The oracle also counts cells of partial arrangements in which
    # some quadrant walls are still missing, so it may trip at caps the
    # splitter passes, never the other way round.
    counts = [len(cells) for cells in uncapped]
    for cap in {n + d for n in (2**k, *counts) for d in (-1, 0)}:
        over = [i for i, n in enumerate(counts) if n > cap]
        expected = uncapped[: over[0]] + ["capped"] if over else uncapped
        assert splitter_rounds(k, rounds, cap) == expected
        if over:
            assert "capped" in reference_rounds(k, rounds, cap)


@settings(max_examples=40, deadline=None)
@given(arrangements())
def test_generator_sum_is_relatively_interior(arrangement):
    # standard_fan certifies a cell's data at the sum of its generators:
    # that sum must meet every normal with the cell's own sign, and the
    # generator test must place each cell inside its own constraints and
    # outside every other cell's
    k, rounds = arrangement
    for parts, normals in zip(split_rounds(k, rounds, 10**6), rounds):
        cells = lp_cells(parts, sorted(normals), k)
        for signs, gens in parts:
            total = [sum(c) for c in zip(*gens)] or [0] * k
            for v, s in signs.items():
                assert (sum(a * b for a, b in zip(v, total)) > 0) - (
                    sum(a * b for a, b in zip(v, total)) < 0
                ) == s
            pattern = tuple(signs[v] for v in sorted(normals))
            for other, eqs, sts, _ in cells:
                assert _inside(gens, eqs, sts) == (other == pattern)


def ref_inside(gens, eqs, stricts, weak=()):
    """``_inside`` as it was: generator expressions under ``any``/``all``."""

    def dot(L, v):
        return sum(a * b for a, b in zip(L, v))

    if any(dot(v, g) for v in eqs for g in gens):
        return False
    if any(dot(u, g) < 0 for u in weak for g in gens):
        return False
    total = [sum(c) for c in zip(*gens)]
    return all(
        all(dot(w, g) >= 0 for g in gens) and dot(w, total) > 0
        for w in stricts
    )


@st.composite
def inside_cases(draw):
    """Small integer generators (none at all, or one Fraction point as
    ``FanCone.contains`` passes) and eq, strict and weak form lists, each
    possibly empty."""
    k = draw(st.integers(1, 3))
    vec = st.lists(st.integers(-2, 2), min_size=k, max_size=k).map(tuple)
    point = st.lists(
        st.fractions(min_value=0, max_value=2, max_denominator=3),
        min_size=k,
        max_size=k,
    ).map(lambda v: [tuple(v)])
    gens = draw(st.one_of(st.lists(vec, max_size=4), point))
    forms = st.lists(vec, max_size=3)
    return gens, draw(forms), draw(forms), draw(forms)


@settings(max_examples=300, deadline=None)
@given(inside_cases())
def test_inside_matches_the_reference(case):
    gens, eqs, stricts, weak = case
    assert _inside(gens, eqs, stricts, weak) == ref_inside(gens, eqs, stricts, weak)
    assert _inside(gens, eqs, stricts) == ref_inside(gens, eqs, stricts)


# --- region reuse against fresh completions --------------------------------


def reference_fan(generators, max_normals=64, max_cells=4096):
    """standard_fan before region reuse, kept as the oracle: one LP sample
    and one fresh completion per cell of every round.  Returns the sorted
    normals, the cones and the sign-pattern map."""
    k = generators[0].ring.k
    coord = unit_vectors(k)
    normals = set(coord)
    split_by = set(coord)
    parts = _capped(_quadrant_faces(coord), max_cells)
    cache = {}

    def data_at(sample):
        if sample not in cache:
            L = LinearForm(sample)
            cache[sample] = _basis_data(reduce_basis(generators, L), L)
        return cache[sample]

    def inside(sample, eqs, stricts):
        return all(sum(a * b for a, b in zip(sample, v)) == 0 for v in eqs) and all(
            sum(a * b for a, b in zip(sample, v)) > 0 for v in stricts
        )

    while True:
        sorted_normals = sorted(normals)
        if len(sorted_normals) > max_normals:
            raise ResourceBoundExceeded(
                f"fan needed more than {max_normals} wall normals",
                cap="MAX_NORMALS",
                limit=max_normals,
                observed=len(sorted_normals),
            )
        parts = _split_cells(parts, sorted(normals - split_by), max_cells)
        split_by = normals
        cells = lp_cells(parts, sorted_normals, k)
        new = set(normals)
        for *_, sample in cells:
            new |= data_at(sample)[4]
        if new == normals:
            break
        normals = new
    cones = []
    cell_map = {}
    for pattern, eqs, sts, sample in cells:
        if pattern in cell_map:
            continue
        basis, strata, ceqs, csts, _ = data_at(sample)
        held = [c for c in cells if inside(c[3], ceqs, csts)]
        members = [c for c in held if c[0] not in cell_map]
        # a region that holds a cell of an earlier cone would overlap it
        if len(members) == len(held) and all(
            data_at(c[3])[:2] == (basis, strata) for c in members
        ):
            rep = min(members, key=lambda c: (c[0].count(0), c[0]))
            rbasis, rstrata, ceqs, csts, _ = data_at(rep[3])
            cone = FanCone(ceqs, csts, to_primitive_int(rep[3]), rbasis, rstrata)
        else:
            members = [(pattern,)]
            cone = FanCone(
                tuple(sorted(eqs)), tuple(sorted(sts)),
                to_primitive_int(sample), basis, strata,
            )
        for c in members:
            cell_map[c[0]] = len(cones)
        cones.append(cone)
    return tuple(sorted(normals)), cones, cell_map


def fan_summary(normals, cones, cell_map):
    """Everything a report or a flat-cert run reads from a fan."""
    return (
        normals,
        [
            (
                c.equalities, c.stricts, c.sample, c.basis.elements,
                c.basis.order, c.strata,
            )
            for c in cones
        ],
        cell_map,
    )


def summary(fan):
    return fan_summary(fan.normals, fan.cones, fan._cell_map)


def recorded_fan(generators):
    """standard_fan, with the data it used for each cell: a list of
    (generators, constraints, data) per ``_Regions.of_cell`` call.  The fan
    is the ResourceBoundExceeded it raised, if any."""
    calls = []
    of_cell = _Regions.of_cell

    def recording(self, gens, cons):
        data = of_cell(self, gens, cons)
        calls.append((gens, cons, data))
        return data

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Regions, "of_cell", recording)
        try:
            fan = standard_fan(generators)
        except ResourceBoundExceeded as exc:
            fan = exc
    return fan, calls


@settings(max_examples=40, deadline=None)
@given(fan_modules())
def test_region_reuse_matches_fresh_completions(generators):
    # each cell's data, reused or not, is what a completion at the cell's
    # LP sample gives: basis, strata, region and normals; and the fan, or
    # the cap it trips, is the no-reuse reference's
    fan, calls = recorded_fan(generators)
    k = generators[0].ring.k
    fresh = {}
    for _, (eqs, sts), data in calls:
        sample = tuple(interior_point(eqs, sts, k))
        if sample not in fresh:
            L = LinearForm(sample)
            fresh[sample] = _basis_data(reduce_basis(generators, L), L)
        assert data == fresh[sample]
    try:
        reference = fan_summary(*reference_fan(generators))
    except ResourceBoundExceeded as exc:
        assert isinstance(fan, ResourceBoundExceeded)
        assert str(fan) == str(exc)
    else:
        assert summary(fan) == reference


def weights(k):
    return st.tuples(*[st.integers(0, 4)] * k).map(LinearForm)


def cone_weights(k, weak, strict):
    """The weights of {0, ..., 3}^k in the cone {L : L.w >= 0 for w in
    weak, L.w > 0 for w in strict}, as (on a wall L.w = 0 of a weak
    form, off every wall)."""
    walls, inner = [], []
    for L in product(range(4), repeat=k):
        dots = [sum(map(mul, L, w)) for w in weak]
        if all(d >= 0 for d in dots) and all(sum(map(mul, L, w)) > 0 for w in strict):
            (walls if 0 in dots else inner).append(LinearForm(L))
    return walls, inner


def divided(basis, G):
    try:
        res = basis.divide(G)
    except ResourceBoundExceeded as exc:
        return exc.cap
    return res.quotients, res.remainder


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_order_cone_repeats_the_completion(data):
    # a completion at any weight of another completion's order cone, walls
    # included, returns the same elements; and the stored basis under the
    # order of that weight (``at``) is that completion: the same elements,
    # order and exponents, and the same divisions
    generators = data.draw(fan_modules())
    ring = generators[0].ring
    try:
        basis = reduce_basis(generators, data.draw(weights(ring.k)))
    except ResourceBoundExceeded:
        return
    drawn = []
    for pool in cone_weights(ring.k, *basis.order_cone):
        if pool:
            drawn += data.draw(st.lists(st.sampled_from(pool), max_size=2, unique=True))
    targets = [
        homogenize_vec(g)
        for g in data.draw(fan_modules().filter(lambda gs: gs[0].ring == ring))
    ]
    for L in drawn:
        again, fresh = basis.at(L), reduce_basis(generators, L)
        assert fresh.elements == basis.elements
        assert (again.elements, again.order, again.exponents) == (
            fresh.elements, fresh.order, fresh.exponents,
        )
        for G in targets:
            assert divided(again, G) == divided(fresh, G)


def test_order_cone_of_a_tie_break():
    # d1 t^2 and x1 d2^2 have weights L1 and 2 L2 - L1; the base order
    # breaks their tie on the wall L1 = L2 for x1 d2^2.  So the completions
    # at (1, 2) and (1, 1) both repeat on L2 >= L1, wall included, while
    # the one at (2, 1) repeats only strictly below the wall.
    gens = [parse_vec("d1 + x1 d2^2", R2)]
    for L in ((1, 2), (1, 1)):
        assert reduce_basis(gens, LinearForm(L)).order_cone == (((-2, 2),), ())
    assert reduce_basis(gens, LinearForm((2, 1))).order_cone == ((), ((2, -2),))
    # nothing to decide for a monomial
    d1 = [parse_vec("d1", R2)]
    assert reduce_basis(d1, LinearForm((1, 1))).order_cone == ((), ())
    # a basis not made by a completion has no trace
    L = LinearForm((1, 1))
    h = homogenize_vec(gens[0])
    assert StandardBasis(R2, [h], TermOrder().refine(L)).order_cone is None


def ref_order_cone(keyf):
    """``_KeyCache.cone`` as it was: each comparison slices both keys, and
    a decision met again is compared again."""
    k = keyf.order.weights[0].k
    shifts = keyf.shifts
    vecs = {}
    weak, strict = set(), set()

    def above(hi, lo):
        for e in (hi, lo):
            if e not in vecs:
                a, b, _, i = e
                vecs[e] = [b[j] - a[j] + shifts[i][j] for j in range(k)]
        w = tuple(x - y for x, y in zip(vecs[hi], vecs[lo]))
        if any(w):
            (weak if keyf(hi)[1:] > keyf(lo)[1:] else strict).add(w)

    for keys, marked in keyf.trace:
        below, loose = None, []
        for e in sorted(set(keys), key=keyf):
            if below is not None:
                above(e, below)
            if marked is None or e in marked:
                for u in loose:
                    above(e, u)
                below, loose = e, []
            else:
                loose.append(e)
    return tuple(sorted(weak - strict)), tuple(sorted(strict))


def order_cones(generators, L):
    """(order cone, reference order cone) of the completion at L, or None
    when a cap trips."""
    try:
        basis = reduce_basis(generators, L)
    except ResourceBoundExceeded:
        return None
    keyf = basis._trace
    # cone() reads keys from the cache alone: every traced exponent must
    # have been keyed before it runs
    assert all(e in keyf.cache for keys, _ in keyf.trace for e in keys)
    return keyf.cone(), ref_order_cone(keyf)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_order_cone_matches_the_reference(data):
    generators = data.draw(fan_modules())
    got = order_cones(generators, data.draw(weights(generators[0].ring.k)))
    assert got is None or got[0] == got[1]


@pytest.mark.parametrize("L", [(1, 2), (1, 1), (2, 1), (0, 1), (1, 0), (3, 4)])
def test_order_cone_matches_the_reference_at_the_wall(L):
    # the tie-break cases of test_order_cone_of_a_tie_break, on and off
    # the wall L1 = L2
    cone, ref = order_cones([parse_vec("d1 + x1 d2^2", R2)], LinearForm(L))
    assert cone == ref


@pytest.mark.parametrize(
    "text",
    ["d1 + x1 d2^2", "x1 d1 + x2 d2", "x1^2 d1 - x2 d2^2 + 3 d1",
     "-3 x1 - 2 x1^3 + x1 x2 d1"],
)
def test_one_completion_per_cone(text, monkeypatch):
    # without reuse these take 6, 4, 6 and 8 completions
    gens = [parse_vec(text, R2)]
    completions = []
    monkeypatch.setattr(
        dfan.fan, "reduce_basis",
        lambda *a, **kw: completions.append(a) or reduce_basis(*a, **kw),
    )
    fan = standard_fan(gens)
    assert len(completions) == len(fan.cones)
    assert summary(fan) == fan_summary(*reference_fan(gens))


@pytest.mark.parametrize(
    "texts",
    [
        # the completion at (0, 1) gives x2; at (1, 0) it gives x2 + x1 x2,
        # and both keep every stratum on top of the whole quadrant
        ("-x1 x2", "3 x1 x2 + 3 x2"),
        # the completions at some cells' samples trip the division cap
        ("-3 x1^2 + 3 x1", "-3 x1^2"),
    ],
)
def test_constancy_region_alone_does_not_reuse(texts):
    # reusing a completion on the whole constancy region would change the
    # fan of the first module and let the second one finish
    gens = [parse_vec(t, R2) for t in texts]
    try:
        reference = fan_summary(*reference_fan(gens))
    except ResourceBoundExceeded as exc:
        with pytest.raises(ResourceBoundExceeded) as got:
            standard_fan(gens)
        assert str(got.value) == str(exc)
    else:
        assert summary(standard_fan(gens)) == reference


def test_at_raises_where_a_leader_moves(three_cone_fan):
    # the three cones share one element; the wall's tie-break gives it the
    # privileged exponent of one side, so two bases lead with it one way
    # and the third the other way: each raises at the samples of the
    # cones whose leaders differ from its own, four pairs in all
    gens = list(three_cone_fan.generators)
    raised = 0
    for cone in three_cone_fan.cones:
        L = LinearForm(cone.sample)
        for other in three_cone_fan.cones:
            if other.basis.exponents != cone.basis.exponents:
                with pytest.raises(DfanError, match="privileged exponent moves"):
                    other.basis.at(L)
                raised += 1
            else:
                assert other.basis.at(L) == reduce_basis(gens, L)
    assert raised == 4


@pytest.mark.parametrize(
    "text", ["x1^2 d1 - x2 d2^2 + 3 d1", "d1 + x1 d2^2", "x1 d1 + x2 d2"]
)
def test_fresh_completions_in_place_of_at_give_the_same_fan(text, monkeypatch):
    # some representative samples of these fans lie in stored regions and
    # take the stored basis; completing afresh there changes nothing
    gens = [parse_vec(text, R2)]
    calls = []
    monkeypatch.setattr(
        StandardBasis, "at",
        lambda self, L: calls.append(L) or reduce_basis(gens, L),
    )
    fresh = summary(standard_fan(gens))
    monkeypatch.undo()
    assert calls and summary(standard_fan(gens)) == fresh


def test_merge_fallback_emits_member_cells(monkeypatch):
    # no module known today reaches the fallback: give the open cell of the
    # one-cone euler fan a basis unlike the rest of its region's so that
    # the merge check fails
    gens = [parse_vec("x1 d1 + x2 d2", R2)]
    of_cell = _Regions.of_cell
    other = reduce_basis([parse_vec("d1", R2)], LinearForm((1, 1)))
    patched = []

    def tampered(self, cell_gens, cons):
        data = of_cell(self, cell_gens, cons)
        if cell_gens == ((1, 0), (0, 1)):
            patched.append(cell_gens)
            return (other,) + data[1:]
        return data

    monkeypatch.setattr(_Regions, "of_cell", tampered)
    fan = standard_fan(gens)
    assert patched
    cells = lp_cells(_quadrant_faces(unit_vectors(2)), sorted(fan.normals), 2)
    # one cone per cell, each on its own cell's constraints: the first
    # three because their region holds the tampered cell, the tampered open
    # cell because its region, the whole quadrant, holds the first three
    assert len(fan.cones) == len(cells) == 4
    for idx, ((pattern, eqs, sts, sample), cone) in enumerate(zip(cells, fan.cones)):
        assert fan._cell_map[pattern] == idx
        assert cone.equalities == tuple(sorted(eqs))
        assert cone.stricts == tuple(sorted(sts))
        assert cone.sample == to_primitive_int(sample)
        assert cone.basis.elements == reduce_basis(gens, LinearForm(sample)).elements
    for p in range(4):
        for q in range(4):
            L = LinearForm((p, q))
            assert fan.cone_of_weight(L).contains(L)


@settings(max_examples=40, deadline=None)
@given(fan_modules())
@example([parse_vec("-x1 x2", R2), parse_vec("3 x1 x2 + 3 x2", R2)])
@example([parse_vec("1/2 x1 x2", R2), parse_vec("-1/2 x1 x2 + 2 x2", R2)])
def test_cones_are_disjoint(generators):
    # the partition is a fan: each cell's LP sample, and each point of a
    # small grid, lies in exactly one cone, the sample in its cell's; the
    # two examples once gave a constraint-free cone holding another cone
    try:
        fan = standard_fan(generators)
    except ResourceBoundExceeded:
        return
    k = generators[0].ring.k
    for pattern, _, _, sample in reference_cells(
        sorted(fan.normals), set(unit_vectors(k)), k, dfan.fan.MAX_CELLS
    ):
        L = LinearForm(sample)
        assert [i for i, c in enumerate(fan.cones) if c.contains(L)] == [
            fan._cell_map[pattern]
        ]
    for point in product(range(4), repeat=k):
        L = LinearForm(point)
        assert sum(c.contains(L) for c in fan.cones) == 1


class Overtime(Exception):
    pass


def overtime(signum, frame):
    raise Overtime


def two_to_three_terms(rng):
    """An n = 2 generator of 2-3 terms of degree <= 3."""
    while True:
        op = random_weyl_op(rng, R2, max_degree=3, max_terms=3)
        if len(op.terms) >= 2:
            return from_components(R2, [op])


def test_wider_two_generator_modules_end_or_exit_on_a_cap():
    # two generators of the shape of the pool's one-generator family, wider
    # than any pool or strategy draws; some completions here grew their
    # coefficients without end, under every degree and size cap
    wall = 30  # seconds per module; the slowest takes 4-7 s on 2 CPUs
    rng = random.Random(11)
    caps = []
    previous = signal.signal(signal.SIGALRM, overtime)
    try:
        for i in range(20):
            generators = [two_to_three_terms(rng) for _ in range(2)]
            signal.setitimer(signal.ITIMER_REAL, wall)
            try:
                standard_fan(generators)
            except ResourceBoundExceeded as exc:
                caps.append(exc.cap)
            except Overtime:
                pytest.fail(f"module {i} ran past {wall} s: {generators}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert "MAX_COEFF_BITS" in caps


def ref_closure_contains(cone, rows):
    """The Fraction loop flat_decompose ran before: every row form is zero
    on the equalities and nonnegative on the strict forms."""
    for row in rows:
        L = LinearForm(row)
        if not all(
            sum(Fraction(c) * v for c, v in zip(L.coeffs, eq)) == 0
            for eq in cone.equalities
        ) or not all(
            sum(Fraction(c) * v for c, v in zip(L.coeffs, st)) >= 0
            for st in cone.stricts
        ):
            return False
    return True


@st.composite
def closure_cases(draw):
    k = draw(st.integers(1, 3))
    vec = lambda lo, hi: st.tuples(*[st.integers(lo, hi)] * k)
    eqs = tuple(draw(st.lists(vec(-2, 2), max_size=2)))
    stricts = tuple(draw(st.lists(vec(-2, 2), max_size=3)))
    rows = draw(st.lists(vec(0, 3), min_size=1, max_size=3))
    return FanCone(eqs, stricts, (1,) * k, None, ()), rows


@settings(max_examples=300, deadline=None)
@given(closure_cases())
def test_closure_contains_matches_the_fraction_loop(case):
    cone, rows = case
    assert cone.closure_contains(rows) == ref_closure_contains(cone, rows)
