import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from dfan.weyl import DtOp, RingDescriptor, WeylOp, WeylVec


def random_weyl_op(rng: random.Random, ring: RingDescriptor, max_degree=4,
                   max_terms=4, allow_zero=False) -> WeylOp:
    terms = {}
    for _ in range(rng.randint(0 if allow_zero else 1, max_terms)):
        while True:
            a = tuple(rng.randint(0, max_degree) for _ in range(ring.n))
            b = tuple(rng.randint(0, max_degree) for _ in range(ring.n))
            if sum(a) + sum(b) <= max_degree:
                break
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            terms[(a, b)] = terms.get((a, b), Fraction(0)) + c
    return WeylOp(ring, terms)


def random_nonzero_op(rng, ring, max_degree=4, max_terms=4) -> WeylOp:
    while True:
        P = random_weyl_op(rng, ring, max_degree, max_terms)
        if not P.is_zero():
            return P


def random_dt_op(rng: random.Random, ring: RingDescriptor, max_degree=4,
                 max_terms=4) -> DtOp:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            a = tuple(rng.randint(0, max_degree) for _ in range(ring.n))
            b = tuple(rng.randint(0, max_degree) for _ in range(ring.n))
            l = rng.randint(0, 2)
            if sum(a) + sum(b) + l <= max_degree:
                break
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            terms[(a, b, l)] = terms.get((a, b, l), Fraction(0)) + c
    return DtOp(ring, terms)


def random_vec(rng, ring, max_degree=3, max_terms=3) -> WeylVec:
    while True:
        comps = [
            random_weyl_op(rng, ring, max_degree, max_terms, allow_zero=True)
            for _ in range(ring.r)
        ]
        v = WeylVec(ring, comps)
        if not v.is_zero():
            return v


def apply_op(P: WeylOp, poly: dict) -> dict:
    """Brute-force action of an operator on a polynomial given as a dict
    gamma -> coefficient; the independent oracle for products."""
    from math import perm

    out = {}
    for (a, b), c in P.terms.items():
        for gamma, pc in poly.items():
            if any(g < bi for g, bi in zip(gamma, b)):
                continue
            factor = 1
            for g, bi in zip(gamma, b):
                factor *= perm(g, bi)
            if factor == 0:
                continue
            new = tuple(g - bi + ai for g, bi, ai in zip(gamma, b, a))
            coef = c * factor * pc
            out[new] = out.get(new, Fraction(0)) + coef
    return {k: v for k, v in out.items() if v}


def monomials_up_to(n: int, degree: int):
    from itertools import product

    for exps in product(range(degree + 1), repeat=n):
        if sum(exps) <= degree:
            yield exps


@pytest.fixture
def rng():
    return random.Random(20240813)


@st.composite
def unimodular_rows(draw, k):
    """k nonnegative integer rows of determinant +-1: a permutation matrix
    (an odd one has determinant -1, which BasicCone reorients) with a few
    row additions applied."""
    perm = draw(st.permutations(range(k)))
    rows = [[int(perm[i] == j) for j in range(k)] for i in range(k)]
    if k > 1:
        pairs = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
        for i, j in draw(st.lists(pairs.filter(lambda p: p[0] != p[1]), max_size=4)):
            rows[i] = [a + b for a, b in zip(rows[i], rows[j])]
    return tuple(tuple(r) for r in rows)
