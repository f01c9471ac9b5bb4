import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from dfan.errors import ConeError
from dfan.filtration import (
    _iter_weighted_terms,
    cone_drops,
    in_V_gamma,
    multi_weight,
    normalize_rays,
)
from dfan.grammar import parse_vec
from dfan.toric import BasicCone, orthant_cone
from dfan.weights import LinearForm
from dfan.weyl import RingDescriptor
from conftest import random_nonzero_op, random_vec, unimodular_rows

R2 = RingDescriptor(2, 2, 1)
ORTH2 = orthant_cone(2)  # V_s is V^Gamma_s for the orthant cone


def test_multi_weight_examples():
    zero_shift = ((0, 0),)
    assert multi_weight(((1, 0), (1, 0)), 0, zero_shift, 2) == (0, 0)
    assert multi_weight(((2, 0), (1, 0)), 0, zero_shift, 2) == (-1, 0)
    assert multi_weight(((0, 0), (0, 1)), 1, ((0, 0), (1, 3)), 2) == (1, 4)


def test_in_V_s_examples():
    B = parse_vec("x1^2 d1", R2)
    assert in_V_gamma(B, (-1, 0), ORTH2)
    assert not in_V_gamma(B, (-2, 0), ORTH2)
    assert in_V_gamma(parse_vec("x1", R2) - parse_vec("x1", R2), (-5, -5), ORTH2)
    C = parse_vec("d1 + x1", R2)
    assert in_V_gamma(C, (1, 0), ORTH2)
    assert not in_V_gamma(C, (0, 0), ORTH2)


def ref_in_V_s(B, s):
    """The componentwise test: every multiweight <= s."""
    k = len(s)
    for delta in _iter_weighted_terms(B, k):
        if any(d > si for d, si in zip(delta, s)):
            return False
    return True


def ref_in_V_gamma(B, s, gamma):
    """The test by Fraction-valued linear forms on every ray."""
    rays = gamma.rows if hasattr(gamma, "rows") else normalize_rays(gamma)
    forms = [LinearForm(ray) for ray in rays]
    svals = [L.of(s) for L in forms]
    for delta in _iter_weighted_terms(B, len(s)):
        for L, sv in zip(forms, svals):
            if L.of(delta) > sv:
                return False
    return True


def test_in_V_gamma_orthant_equals_in_V_s(rng):
    orthant = ((1, 0), (0, 1))
    for _ in range(30):
        B = random_vec(rng, R2)
        for s in product(range(-2, 3), repeat=2):
            assert (
                in_V_gamma(B, s, orthant) == ref_in_V_s(B, s)
                == in_V_gamma(B, s, ORTH2)
            )


def test_cone_drops_examples():
    assert cone_drops(((1, 0), (1, 1)), (2, 1), (0, 0)) == (2, 3)
    assert cone_drops(((2, 1),), (0, 0), (1, -2)) == (0,)
    assert cone_drops(((1, 2), (0, 1)), (1, 1), (1, 1)) == (0, 0)
    # x1 d2 + d1 d2 at s = (1, 1): x1 d2 lies strictly below the top
    # stratum (it dies on the fiber at zero), d1 d2 is on it
    shifts = R2.shifts
    drops = [
        cone_drops(((1, 0), (1, 1)), (1, 1), multi_weight(key, i, shifts, 2))
        for key, i, _ in parse_vec("x1 d2 + d1 d2", R2).iter_terms()
    ]
    assert sorted(drops) == [(0, 0), (2, 2)]


@st.composite
def membership_cases(draw):
    k = draw(st.integers(1, 3))
    vec = lambda lo, hi: st.tuples(*[st.integers(lo, hi)] * k)
    rays = st.lists(vec(0, 3).filter(any), min_size=1, max_size=3)
    gamma = draw(unimodular_rows(k).map(BasicCone) | rays)
    return k, gamma, draw(vec(-3, 3)), draw(vec(0, 1)), draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(membership_cases())
def test_in_V_gamma_matches_the_fraction_reference(case):
    k, gamma, s, shift, seed = case
    ring = RingDescriptor(k, k, 2, [[0] * k, list(shift)])
    B = random_vec(random.Random(seed), ring)
    assert in_V_gamma(B, s, gamma) == ref_in_V_gamma(B, s, gamma)
    assert in_V_gamma(B, s, orthant_cone(k)) == ref_in_V_s(B, s)


def test_in_V_gamma_examples():
    assert in_V_gamma(parse_vec("x1 d2", R2), (0, 0), [(1, 1)])
    zero = parse_vec("x1", R2) - parse_vec("x1", R2)
    assert in_V_gamma(zero, (-3, -3), [(1, 1)])


def test_in_V_gamma_empty_rays_rejected():
    with pytest.raises(ConeError):
        in_V_gamma(parse_vec("x1", R2), (0, 0), [])


def test_ray_normalization():
    assert normalize_rays([(2, 4), (3, 0)]) == ((1, 2), (1, 0))
    with pytest.raises(ConeError):
        normalize_rays([(0, 0)])
    with pytest.raises(ConeError):
        normalize_rays([(-1, 2)])


def brute_force_v_gamma(B, s, rays, M=8):
    """Definitional sum: membership iff every term fits into V_sigma for
    some sigma in (s - dual cone), scanned over a box wide enough to cover
    the element's diagram (the dual cone need not sit under s)."""
    k = len(s)
    shifts = B.ring.shifts
    box = list(product(range(-M, M + 1), repeat=k))
    for key, i, _ in B.iter_terms():
        delta = multi_weight(key, i, shifts, k)
        found = False
        for off in box:
            sigma = tuple(si + o for si, o in zip(s, off))
            # sigma must lie in s - dual cone: L(s - sigma) >= 0 for rays
            if any(
                sum(r * (si - sg) for r, si, sg in zip(ray, s, sigma)) < 0
                for ray in rays
            ):
                continue
            if all(d <= sg for d, sg in zip(delta, sigma)):
                found = True
                break
        if not found:
            return False
    return True


def test_in_V_gamma_matches_definitional_sum(rng):
    ray_sets = [((1, 0), (0, 1)), ((1, 1),), ((2, 1), (1, 3))]
    for _ in range(15):
        B = random_vec(rng, R2, max_degree=3)
        for rays in ray_sets:
            for s in [(0, 0), (1, -1), (-1, 2), (2, 2)]:
                assert in_V_gamma(B, s, rays) == brute_force_v_gamma(B, s, rays)


def test_filtration_compatible_with_product(rng):
    rays = ((2, 1), (1, 3))
    for _ in range(20):
        P = random_nonzero_op(rng, R2, max_degree=3)
        Q = random_nonzero_op(rng, R2, max_degree=3)
        for s_p in [(1, 0), (0, 0)]:
            for s_q in [(0, 1), (-1, 0)]:
                if in_V_gamma(P, s_p, ORTH2) and in_V_gamma(Q, s_q, ORTH2):
                    s_sum = tuple(a + b for a, b in zip(s_p, s_q))
                    assert in_V_gamma(P * Q, s_sum, ORTH2)
                if in_V_gamma(P, s_p, rays) and in_V_gamma(Q, s_q, rays):
                    s_sum = tuple(a + b for a, b in zip(s_p, s_q))
                    assert in_V_gamma(P * Q, s_sum, rays)


def test_V_s_included_in_V_gamma(rng):
    rays = ((1, 2), (3, 1))
    for _ in range(20):
        B = random_vec(rng, R2)
        for s in [(0, 0), (1, 1), (-1, 0)]:
            if in_V_gamma(B, s, ORTH2):
                assert in_V_gamma(B, s, rays)
