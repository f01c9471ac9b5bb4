import random
from fractions import Fraction
from itertools import product
from math import comb, perm

import pytest
from hypothesis import strategies as st

from dfan._linalg import primitive_part
from dfan.grammar import _display_key, _op_factors, format_sum
from dfan.weyl import DtOp, DtVec, RingDescriptor, WeylOp, WeylVec


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
        v = from_components(ring, comps)
        if not v.is_zero():
            return v


def scaled(v, c):
    """The vector c v, for a vector of D^r or D[t]^r and a rational c."""
    c = Fraction(c)
    return type(v)(v.ring, {key: c * x for key, x in v.terms.items()})


def from_components(ring, comps):
    """The vector of D^r, or of D[t]^r for DtOp scalars, whose component i
    is the scalar ``comps[i]``: the one way the tests build a vector from
    a tuple of scalars."""
    comps = tuple(comps)
    assert len(comps) == ring.r and len({type(c) for c in comps}) == 1
    cls = DtVec if isinstance(comps[0], DtOp) else WeylVec
    return cls(
        ring, ((key + (i,), c) for i, P in enumerate(comps) for key, c in P.terms.items())
    )


def components(V):
    """The scalars of the components of V, in order."""
    parts = [{} for _ in range(V.ring.r)]
    for key, c in V.terms.items():
        parts[key[-1]][key[:-1]] = c
    scalar = DtOp if isinstance(V, DtVec) else WeylOp
    return tuple(scalar(V.ring, p) for p in parts)


# Reference: vectors as tuples of scalars, one per component, with the
# code that ran on them before a vector was one term dict.  Each takes and
# gives such tuples of one ring.


def ref_left_mul(P, comps):
    """P V through the scalar product, component by component."""
    return tuple(P * c for c in comps)


def ref_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def ref_format_vec(comps):
    return format_sum(
        [
            (comp.terms[key], _op_factors(key, i))
            for i, comp in enumerate(comps)
            for key in sorted(comp.terms, key=_display_key)
        ]
    )


def ref_homogenize_vec(comps):
    d = max(c.order() for c in comps)
    return tuple(
        DtOp(c.ring, {(a, b, d - sum(b)): x for (a, b), x in c.terms.items()})
        for c in comps
    )


def ref_dehomogenize(comps):
    return tuple(
        WeylOp(c.ring, (((a, b), x) for (a, b, _), x in c.terms.items())) for c in comps
    )


def ref_content_free(comps):
    v = primitive_part(
        {(i, key): x for i, c in enumerate(comps) for key, x in c.terms.items()}
    )[2]
    return tuple(
        type(c)(c.ring, {key: x for (j, key), x in v.items() if j == i})
        for i, c in enumerate(comps)
    )


def ref_monomial_multiples(comps, room):
    """The nonzero x^a d^b g with |a| + |b| <= room as flat dicts
    (alpha, beta, i) -> coef, from per-component powers d^b g."""
    n = comps[0].ring.n
    if room < 0 or all(c.is_zero() for c in comps):
        return
    d_powers = {(0,) * n: [c.terms for c in comps]}

    def d_times(terms, e):
        i = e.index(1)
        out = {}
        for (x, y), c in terms.items():
            out[(x, tuple(p + q for p, q in zip(y, e)))] = c
        for (x, y), c in terms.items():
            if x[i]:
                key = (tuple(p - q for p, q in zip(x, e)), y)
                out[key] = out.get(key, 0) + x[i] * c
        return {key: c for key, c in out.items() if c}

    def tuples(m):
        return [t for t in product(range(m + 1), repeat=n) if sum(t) <= m]

    for a in tuples(room):
        for b in tuples(room - sum(a)):
            if b not in d_powers:
                i = max(j for j in range(n) if b[j])
                e = tuple(int(j == i) for j in range(n))
                prev = d_powers[tuple(p - q for p, q in zip(b, e))]
                d_powers[b] = [d_times(t, e) for t in prev]
            yield {
                (tuple(p + q for p, q in zip(x, a)), y, i): c
                for i, t in enumerate(d_powers[b])
                for (x, y), c in t.items()
            }


def left_mul(P, V):
    """The product P V of a scalar and a vector of its ring, through the
    scalar product (the reference ``ref_left_mul``)."""
    return from_components(V.ring, ref_left_mul(P, components(V)))


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
        from_components(ring, [WeylOp(ring, {m: Fraction(c) for m, c in g.items()})])
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
            total = total + left_mul(a, h)
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


def uncapped_monomial_multiples(g, room):
    """Reference: monomial_multiples as it was before its size check, one
    full Weyl product per tuple of the filtered (room + 1)^(2n) box."""
    n = g.ring.n
    for exps in product(range(room + 1), repeat=2 * n):
        if sum(exps) > room:
            continue
        prod = left_mul(WeylOp(g.ring, {(exps[:n], exps[n:]): Fraction(1)}), g)
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
