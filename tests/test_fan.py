import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dfan._linalg import cone_interior_point
from dfan.basis import reduce_basis
from dfan.errors import ResourceBoundExceeded, WeightError
from dfan.fan import (
    _canon,
    _capped,
    _cell_samples,
    _quadrant_faces,
    _split_cells,
    standard_fan,
)
from dfan.grammar import parse_vec
from dfan.weights import LinearForm
from dfan.weyl import RingDescriptor

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
    # weight: same privileged exponents, and the graded-symbol supports of
    # gr_generators agree (the weights themselves vary linearly in L)
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
            ctx_basis = type(cone.basis)(
                cone.basis.ring,
                cone.basis.elements,
                cone.basis.order,
                (L,),
            )
            sigmas = tuple(
                sigma for sigma, _ in ctx_basis.gr_generators(L)
            )
            if reference is None:
                reference = sigmas
            else:
                assert sigmas == reference


def test_dimension_guard_is_configurable():
    from dfan.errors import ResourceBoundExceeded

    ring = RingDescriptor(4, 4, 1)
    gens = [parse_vec("x1 d1 + x2 d2 + x3 d3 + x4 d4", ring)]
    with pytest.raises(ResourceBoundExceeded, match="capped at k = 3"):
        standard_fan(gens)
    fan = standard_fan(gens, max_k=4)
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
                f"arrangement exceeded {max_cells} cells"
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


def splitter_rounds(k, rounds, max_cells):
    """The cells of each round as standard_fan builds them: split from the
    quadrant's faces, carried over, split only by each round's new normals."""
    out = []
    split_by = set(unit_vectors(k))
    try:
        parts = _capped(_quadrant_faces(unit_vectors(k)), max_cells)
        for normals in rounds:
            parts = _split_cells(parts, sorted(normals - split_by), max_cells)
            split_by = normals
            out.append(_cell_samples(parts, sorted(normals), k))
    except ResourceBoundExceeded:
        out.append("capped")
    return out


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
