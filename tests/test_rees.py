import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dfan import rees
from dfan._linalg import solve_affine
from dfan.errors import ConeError, DfanError
from dfan.grammar import parse_vec
from dfan.rees import fiber_V_zero_test, _witness_search
from dfan.toric import BasicCone, orthant_cone
from dfan.weyl import RingDescriptor, WeylVec, multi_weight
from conftest import (
    random_vec,
    scaled,
    uncapped_monomial_multiples,
    unimodular_rows,
)

R1 = RingDescriptor(1, 1, 1)
R2 = RingDescriptor(2, 2, 1)


# fiber at zero


def test_paper_fiber_example_is_zero_and_fast():
    t0 = time.time()
    res = fiber_V_zero_test([parse_vec("1 + x1^2 d1", R1)])
    elapsed = time.time() - t0
    assert res.verdict == "zero"
    [(unit, witness)] = res.witnesses
    assert unit == 0
    assert witness == parse_vec("1 + x1^2 d1", R1)
    assert elapsed < 1.0


def test_derivative_ideal_fiber_nonzero():
    res = fiber_V_zero_test([parse_vec("d1", R1)])
    assert res.verdict == "nonzero"
    assert res.failing_unit == 0
    # truncated linear-algebra cross-check: no witness exists at any
    # reasonable bound
    assert _witness_search([parse_vec("d1", R1)], 0, 6, orthant_cone(1)) is None


def test_unit_ideal_fiber_zero():
    res = fiber_V_zero_test([parse_vec("1", R1)])
    assert res.verdict == "zero"


def test_fiber_rank_two():
    ring = RingDescriptor(1, 1, 2)
    gens = [parse_vec("1 e1 + x1^2 d1 e1", ring), parse_vec("1 e2", ring)]
    res = fiber_V_zero_test(gens)
    assert res.verdict == "zero"
    gens2 = [parse_vec("1 e1 + x1^2 d1 e1", ring), parse_vec("d1 e2", ring)]
    res2 = fiber_V_zero_test(gens2)
    assert res2.verdict == "nonzero" and res2.failing_unit == 1


def test_fiber_with_cone_refinement():
    # the cone-coarsened filtration admits a witness the plain one cannot
    gens = [parse_vec("1 + x2^2 d1", R2)]
    assert fiber_V_zero_test(gens, bound=4).verdict == "inconclusive"
    gamma = BasicCone([(1, 1), (0, 1)])
    res = fiber_V_zero_test(gens, gamma=gamma)
    assert res.verdict == "zero"
    assert res.witnesses[0][1] == gens[0]


def test_fiber_orthant_cone_matches_plain():
    gens = [parse_vec("1 + x1^2 d1", R2)]
    plain = fiber_V_zero_test(gens)
    orth = fiber_V_zero_test(gens, gamma=orthant_cone(2))
    assert plain.verdict == orth.verdict == "zero"


def test_fiber_cone_dimension_checked():
    with pytest.raises(ConeError):
        fiber_V_zero_test([parse_vec("d1", R1)], gamma=orthant_cone(2))


# the plain context as the orthant cone, against the two-branch witness
# search kept here as the reference


def ref_witness_search(generators, unit, bound, gamma=None):
    """Find F = e_unit + (strictly smaller filtration terms) inside the
    module; the plain context (gamma None) tests V_s componentwise."""
    ring = generators[0].ring
    s = ring.shifts[unit]
    k = ring.k
    unit_key = ((0,) * ring.n, (0,) * ring.n, unit)

    def constrained(key):
        delta = multi_weight(key, ring.shifts, k)
        if gamma is None:
            if all(d <= t for d, t in zip(delta, s)):
                return delta == tuple(s)  # top stratum: must match the unit
            return True  # outside V_s: must vanish
        drops = tuple(
            sum(r * (si - d) for r, si, d in zip(row, s, delta))
            for row in gamma.rows
        )
        if any(dr < 0 for dr in drops):
            return True  # outside the cone filtration: must vanish
        return all(dr == 0 for dr in drops)  # top stratum otherwise free

    for B in range(bound + 1):
        columns = [
            prod for g in generators for prod in uncapped_monomial_multiples(g, B)
        ]
        col_vecs = [prod.terms for prod in columns]
        keys = sorted(
            {key for vec in col_vecs for key in vec if constrained(key)}
            | {unit_key}
        )
        key_index = {key: idx for idx, key in enumerate(keys)}
        rows = [{} for _ in keys]
        for cidx, vec in enumerate(col_vecs):
            for key, c in vec.items():
                ridx = key_index.get(key)
                if ridx is not None:
                    rows[ridx][cidx] = c
        rhs = [int(key == unit_key) for key in keys]
        sol = solve_affine(rows, rhs, len(columns))
        if sol is not None:
            total = WeylVec(ring)
            for cidx, x in sorted(sol.items()):
                total = total + scaled(columns[cidx], x)
            return total
    return None


@st.composite
def fiber_cases(draw):
    k = draw(st.integers(1, 2))
    shift = draw(st.tuples(*[st.integers(0, 1)] * k))
    ring = RingDescriptor(k, k, 2, [[0] * k, list(shift)])
    rnd = random.Random(draw(st.integers(0, 2**32)))
    # a unit vector plus random terms often has a witness
    units = [parse_vec("1 e1", ring), parse_vec("1 e2", ring), WeylVec(ring)]
    gens = []
    for _ in range(rnd.randint(1, 2)):
        g = random_vec(rnd, ring, max_degree=2, max_terms=2) + rnd.choice(units)
        gens.append(g if not g.is_zero() else units[0])
    return ring, draw(unimodular_rows(k)), gens


def outcome(f, *args):
    try:
        return f(*args)
    except DfanError as exc:
        return type(exc)


@settings(max_examples=40, deadline=None)
@given(fiber_cases())
def test_witness_search_matches_the_two_branch_reference(case):
    ring, rows, gens = case
    gamma = BasicCone(rows)
    for unit in range(ring.r):
        assert _witness_search(gens, unit, 2, gamma) == ref_witness_search(
            gens, unit, 2, gamma
        )
        assert _witness_search(
            gens, unit, 2, orthant_cone(ring.k)
        ) == ref_witness_search(gens, unit, 2)


@settings(max_examples=30, deadline=None)
@given(
    fiber_cases(),
    st.lists(st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6),
             min_size=2, max_size=2),
)
def test_witness_search_ignores_positive_scales_of_the_generators(case, scales):
    # the search runs on the content-free generators: a positive scale of
    # a product column moves no pivot, so the witness does not move
    ring, rows, gens = case
    gamma = BasicCone(rows)
    scaled_gens = [scaled(g, c) for g, c in zip(gens, scales)]
    for unit in range(ring.r):
        got = _witness_search(scaled_gens, unit, 2, gamma)
        assert got == _witness_search(gens, unit, 2, gamma)
        assert got == ref_witness_search(scaled_gens, unit, 2, gamma)


def flat_uncapped(g, room):
    """The terms of the reference enumerator's Weyl products, the dicts
    that monomial_multiples yields."""
    return (prod.terms for prod in uncapped_monomial_multiples(g, room))


@settings(max_examples=30, deadline=None)
@given(fiber_cases(), st.integers(0, 3))
def test_witness_search_keeps_its_witness_under_the_reference_enumerator(case, bound):
    # the witness is the particular solution over the product columns in
    # their enumeration order, so any change of order or of product shows
    ring, rows, gens = case
    gamma = BasicCone(rows)
    for unit in range(ring.r):
        got = _witness_search(gens, unit, bound, gamma)
        with mock.patch.object(rees, "monomial_multiples", flat_uncapped):
            assert _witness_search(gens, unit, bound, gamma) == got


@settings(max_examples=25, deadline=None)
@given(fiber_cases())
def test_plain_fiber_test_is_the_orthant_case(case):
    ring, _, gens = case
    plain = outcome(fiber_V_zero_test, gens, 2)
    orth = outcome(fiber_V_zero_test, gens, 2, orthant_cone(ring.k))
    if isinstance(plain, type):
        assert plain is orth
    else:
        assert (plain.verdict, plain.witnesses, plain.failing_unit) == (
            orth.verdict, orth.witnesses, orth.failing_unit,
        )
