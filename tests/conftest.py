import random
from fractions import Fraction
from itertools import product
from math import comb, perm

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


def scaled(v, c):
    """The vector c v, for a vector of D^r or D[t]^r and a rational c."""
    c = Fraction(c)
    return type(v)(v.ring, tuple(
        type(p)(p.ring, {key: c * x for key, x in p.terms.items()}) for p in v.components
    ))


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


# the benchmark pool's integers, and rationals so that the completion's
# scaling to primitive integers meets denominators
COEFFICIENTS = st.sampled_from(
    (-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3),
     Fraction(-3, 2))
)


def monomials(n, max_deg):
    """(alpha, beta) of total degree 1..max_deg in n variable pairs."""
    return st.lists(st.integers(0, 2 * n - 1), min_size=1, max_size=max_deg).map(
        lambda vs: (
            tuple(vs.count(v) for v in range(n)),
            tuple(vs.count(v) for v in range(n, 2 * n)),
        )
    )


@st.composite
def fan_modules(draw):
    """Modules like the three families of the benchmark's fan pool: one
    generator with n = 2, degree <= 3 and 2-3 terms; one with n = 3,
    degree <= 2 and 2-3 terms; two with n = 2, degree <= 2 and 1-2 terms."""
    family = draw(st.integers(0, 2))
    n, deg, lo, hi, count = [(2, 3, 2, 3, 1), (3, 2, 2, 3, 1), (2, 2, 1, 2, 2)][family]
    ring = RingDescriptor(n, n, 1)
    gens = [
        draw(st.dictionaries(monomials(n, deg), COEFFICIENTS, min_size=lo, max_size=hi))
        for _ in range(count)
    ]
    return [
        WeylVec(ring, (WeylOp(ring, {m: Fraction(c) for m, c in g.items()}),))
        for g in gens
    ]


def ref_mul_terms(t1, c1, t2, c2, emit_t):
    """Reference: the expansion of c1 t1 * c2 t2 over every nu <=
    min(b1, a2), with no commuting shortcut."""
    if emit_t:
        a1, b1, l1 = t1
        a2, b2, l2 = t2
        lbase = l1 + l2
    else:
        a1, b1 = t1
        a2, b2 = t2
        lbase = 0
    n = len(a1)
    c = c1 * c2
    ranges = [range(min(b1[i], a2[i]) + 1) for i in range(n)]
    stack = [((), 1)]
    for i in range(n):
        nxt = []
        bi, ai = b1[i], a2[i]
        for prefix, mult in stack:
            for nu in ranges[i]:
                m = mult * comb(bi, nu) * perm(ai, nu)
                if m:
                    nxt.append((prefix + (nu,), m))
        stack = nxt
    for nu, mult in stack:
        alpha = tuple(a1[i] + a2[i] - nu[i] for i in range(n))
        beta = tuple(b1[i] + b2[i] - nu[i] for i in range(n))
        if emit_t:
            yield (alpha, beta, lbase + sum(nu)), c * mult
        else:
            yield (alpha, beta), c * mult


def recompose(res, basis):
    """Reference for the division identity: R + sum A_m H_m of a
    ``DivisionResult`` by ``basis``, with one Weyl product per nonzero
    quotient."""
    total = res.remainder
    for a, h in zip(res.quotients, basis.elements):
        if not a.is_zero():
            total = total + h.left_mul(a)
    return total


def graded_dimension(ideal, d):
    """Reference for the chain tests: the number of degree-d monomials
    inside a monomial ideal, by scanning the box."""
    return sum(
        1 for e in product(range(d + 1), repeat=ideal.k)
        if sum(e) == d and ideal.contains(e)
    )


def chain_ideals(chain):
    """H_0 < H_1 < ... < H_len of a ``FiltrationChain``."""
    out = [chain.start]
    for st in chain.steps:
        out.append(out[-1].plus_monomial(st.monomial))
    return out


def flat(v):
    """The terms of a WeylVec as one dict (alpha, beta, i) -> coef, the
    form in which monomial_multiples yields its products."""
    return {key + (i,): c for key, i, c in v.iter_terms()}


def uncapped_monomial_multiples(g, room):
    """Reference: monomial_multiples as it was before its size check, one
    full Weyl product per tuple of the filtered (room + 1)^(2n) box."""
    n = g.ring.n
    for exps in product(range(room + 1), repeat=2 * n):
        if sum(exps) > room:
            continue
        prod = g.left_mul(WeylOp(g.ring, {(exps[:n], exps[n:]): Fraction(1)}))
        if not prod.is_zero():
            yield prod


# Pieces of the problem grammar a mutation may splice into a problem file.
FUZZ_TOKENS = (
    *"0123456789 +-/^,[]=:\n",
    "x1", "x2", "x3", "d1", "d2", "d3", "e1", "e2", "t", "W1", "W2",
    "gen:", "target:", "ring", "n=", "k=", "r=", "shifts", "cone", "ideal",
    "9" * 4301,  # one digit past Python's limit on int conversion
)


@st.composite
def field_texts(draw):
    """Values, well-formed or not, for a vector, matrix or ideal field."""
    small = st.integers(-2, 3).map(str) | st.sampled_from(["1/2", "2/3", "1/0", "1.5", "x"])
    vector = st.lists(small, max_size=3).map(lambda v: "[" + ", ".join(v) + "]")
    matrix = st.lists(vector, min_size=1, max_size=3).map(lambda m: "[" + ",".join(m) + "]")
    ideal = st.lists(
        st.sampled_from(["W1", "W2", "W3", "W1^2", "w2", "1", "Q", "W0", ""]), max_size=3
    ).map(", ".join)
    noise = st.text(" 0123456789-/,[]Ww^x.", max_size=12)
    return draw(st.one_of(vector, matrix, ideal, noise).filter(bool))
