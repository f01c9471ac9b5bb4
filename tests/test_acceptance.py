"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime (run with -s to see them)."""

import dataclasses
import hashlib
import io
import random
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from dfan.basis import reduce_basis
from dfan.cli import run as cli_run
from dfan.errors import ResourceBoundExceeded
from dfan.fan import standard_fan
from dfan.flatness import (
    MonomialIdeal,
    flat_decompose,
    intersection_oracle,
    kernel_normalize,
    monomial_filtration,
)
from dfan.grammar import parse_vec
from dfan.toric import BasicCone, orthant_cone
from dfan.weights import LinearForm, ord_L_vec, symbol_L
from dfan.weyl import (
    DtOp,
    RingDescriptor,
    WeylOp,
    WeylVec,
    homogenize_vec,
)
from conftest import chain_ideals, from_components, graded_dimension, left_mul, recompose

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


def _announce(number, elapsed, budget, message):
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"criterion {number}: PASS ({elapsed:.2f}s) - {message}")


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def _random_op(rng, ring, max_degree=4, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            a = tuple(rng.randint(0, max_degree) for _ in range(ring.n))
            b = tuple(rng.randint(0, max_degree) for _ in range(ring.n))
            if sum(a) + sum(b) <= max_degree:
                break
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c:
            terms[(a, b)] = terms.get((a, b), Fraction(0)) + c
    op = WeylOp(ring, terms)
    return op if not op.is_zero() else WeylOp(ring, {((0,) * ring.n, (0,) * ring.n): Fraction(1)})


def _random_dt(rng, ring, max_degree=4, max_terms=4):
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
    op = DtOp(ring, terms)
    return op if not op.is_zero() else DtOp(ring, {((0,) * ring.n, (0,) * ring.n, 0): Fraction(1)})


def test_criterion_1_paper_fiber_example():
    t0 = time.perf_counter()
    code, out, err = _invoke(["fiber", "--input", str(PROBLEMS / "paper_fiber.txt")])
    elapsed = time.perf_counter() - t0
    assert code == 0, err
    assert "fiber: zero" in out
    assert "x1^2 d1 e1 + e1" in out  # the explicit unit witness
    _announce(1, elapsed, 1.0, "fiber of the principal module is zero with witness")


def test_criterion_2_ring_axioms():
    t0 = time.perf_counter()
    rng = random.Random(101)
    rings = [RingDescriptor(n, n, 1) for n in (1, 2, 3)]
    for trial in range(250):
        ring = rings[trial % 3]
        P = _random_op(rng, ring)
        Q = _random_op(rng, ring)
        S = _random_op(rng, ring)
        assert (P * Q) * S == P * (Q * S)
        i = rng.randrange(ring.n)
        j = rng.randrange(ring.n)
        di = WeylOp(ring, {((0,) * ring.n, tuple(1 if m == i else 0 for m in range(ring.n))): Fraction(1)})
        xj = WeylOp(ring, {(tuple(1 if m == j else 0 for m in range(ring.n)), (0,) * ring.n): Fraction(1)})
        comm = di * xj - xj * di
        one = WeylOp(ring, {((0,) * ring.n, (0,) * ring.n): Fraction(1)})
        assert comm == (one if i == j else WeylOp(ring))
    for trial in range(250):
        ring = rings[trial % 3]
        P = _random_dt(rng, ring)
        Q = _random_dt(rng, ring)
        S = _random_dt(rng, ring)
        assert (P * Q) * S == P * (Q * S)
        i = rng.randrange(ring.n)
        j = rng.randrange(ring.n)
        di = DtOp(ring, {((0,) * ring.n, tuple(1 if m == i else 0 for m in range(ring.n)), 0): Fraction(1)})
        xj = DtOp(ring, {(tuple(1 if m == j else 0 for m in range(ring.n)), (0,) * ring.n, 0): Fraction(1)})
        comm = di * xj - xj * di
        t_elt = DtOp(ring, {((0,) * ring.n, (0,) * ring.n, 1): Fraction(1)})
        assert comm == (t_elt if i == j else DtOp(ring))
    elapsed = time.perf_counter() - t0
    _announce(2, elapsed, 10.0, "500 associativity/commutator checks, exact")


def test_criterion_3_symbol_multiplicativity():
    t0 = time.perf_counter()
    rng = random.Random(202)
    ring = RingDescriptor(2, 2, 1)
    forms = [
        LinearForm((rng.randint(0, 4), rng.randint(0, 4))) for _ in range(4)
    ] + [LinearForm((Fraction(1, 2), Fraction(3, 2)))]
    for _ in range(200):
        P = _random_op(rng, ring, max_degree=3)
        Q = _random_op(rng, ring, max_degree=3)
        for L in forms:
            left, sP, sQ = (symbol_L(B, L, ord_L_vec(B, L)) for B in (P * Q, P, Q))
            assert left == sP * sQ
    elapsed = time.perf_counter() - t0
    _announce(3, elapsed, 10.0, "sigma(PQ) = sigma(P)sigma(Q) on 200 pairs x 5 forms")


def test_criterion_4_division_contract():
    t0 = time.perf_counter()
    rng = random.Random(303)
    ring = RingDescriptor(2, 2, 1)
    L = LinearForm((1, 1))
    bases = [
        reduce_basis([parse_vec("x1 d1 + x2 d2", ring)], L),
        reduce_basis([parse_vec("d1 + x1 d2^2", ring), parse_vec("d2", ring)], L),
        reduce_basis([parse_vec("d1 d2 + x1", ring)], L),
    ]
    count = 0
    while count < 200:
        basis = bases[count % len(bases)]
        kind = count % 4
        if kind == 0:  # self-division
            G = basis.elements[count % len(basis.elements)]
        elif kind == 1:  # random homogeneous input
            comps = [_random_op(rng, ring, max_degree=4)]
            G = homogenize_vec(from_components(ring, comps))
        elif kind == 2:  # multiple of a basis element
            H = basis.elements[count % len(basis.elements)]
            mu = _random_dt(rng, ring, max_degree=2, max_terms=2)
            G = left_mul(mu, H)
            if G.is_zero() or G.f_degree() is None:
                continue
        else:  # constructed remainder: multiple plus staircase-free junk
            H = basis.elements[0]
            d = H.f_degree()
            junk = DtOp(ring, {((0, 3), (0, 0), d): Fraction(1)})
            G = from_components(ring, [junk]) + basis.elements[0]
        count += 1
        res = basis.divide(G)  # runs all postcondition checks internally
        assert recompose(res, basis) == G
        bound = ord_L_vec(G, L)
        for a, h in zip(res.quotients, basis.elements):
            if not a.is_zero():
                prod = left_mul(a, h)
                assert ord_L_vec(prod, L) <= bound
    elapsed = time.perf_counter() - t0
    _announce(4, elapsed, 30.0, "200 divisions: identity, support, exp/ord bounds")


def _grid_values():
    return sorted({Fraction(p, q) for q in (1, 2, 3, 4) for p in range(0, 8 * q + 1)})


def _random_fan_module(rng, ring):
    gens = []
    for _ in range(2):
        terms = {}
        for _ in range(rng.randint(2, 3)):
            while True:
                a = tuple(rng.randint(0, 3) for _ in range(2))
                b = tuple(rng.randint(0, 3) for _ in range(2))
                if 0 < sum(a) + sum(b) <= 3:
                    break
            c = Fraction(rng.randint(-3, 3))
            if c:
                terms[(a, b)] = c
        if not terms:
            terms[((0, 0), (1, 0))] = Fraction(1)
        gens.append(from_components(ring, [WeylOp(ring, terms)]))
    return gens


def test_criterion_5_fan_grid_oracle():
    t0 = time.perf_counter()
    ring = RingDescriptor(2, 2, 1)
    named = [
        ([parse_vec("x1 d1 + x2 d2", ring)], 1),
        ([parse_vec("d1 + x1 d2^2", ring)], 3),
    ]
    rng = random.Random(11)
    modules = [(gens, None) for gens, _ in named]
    for gens, expected in named:
        fan = standard_fan(gens)
        assert len(fan) == expected
    modules = [gens for gens, _ in named] + [
        _random_fan_module(rng, ring) for _ in range(3)
    ]
    grid = _grid_values()
    for gens in modules:
        fan = standard_fan(gens)
        for p in grid:
            for q in grid:
                L = LinearForm((p, q))
                oracle_basis = reduce_basis(gens, L)
                cone = fan.cone_of_weight(L)
                # cones refine the oracle's reduced-basis classes
                assert oracle_basis.elements == cone.basis.elements
    elapsed = time.perf_counter() - t0
    _announce(5, elapsed, 300.0, "fan classification matches the grid oracle on 5 modules")


def test_criterion_7_syzygy_normalization():
    t0 = time.perf_counter()
    rng = random.Random(505)
    from dfan.flatness import w_shift
    from dfan.weyl import accumulate

    done = 0
    while done < 100:
        r = rng.randint(1, 4)
        k = rng.randint(1, 3)
        a = [tuple(rng.randint(0, 3) for _ in range(k)) for _ in range(r)]
        qs = [{} for _ in range(r)]
        for _ in range(rng.randint(1, 4)):
            i, j = rng.randrange(r), rng.randrange(r)
            if i == j:
                continue
            key = (
                tuple(rng.randint(0, 2) for _ in range(2)),
                tuple(rng.randint(0, 2) for _ in range(2)),
                tuple(rng.randint(0, 1) for _ in range(k)),
            )
            c = Fraction(rng.randint(-3, 3))
            if not c:
                continue
            accumulate(qs[i], w_shift({key: c}, a[j]).items())
            accumulate(qs[j], w_shift({key: -c}, a[i]).items())
        done += 1
        norm = kernel_normalize(a, qs)
        norm.verify(qs)  # exact per-region identities
    elapsed = time.perf_counter() - t0
    _announce(7, elapsed, 30.0, "100 syzygies normalized with exact region identities")


def test_criterion_8_monomial_chains():
    t0 = time.perf_counter()
    rng = random.Random(606)

    def quotient_dim(k, J, d):
        from math import comb

        free = k - len(J)
        if d < 0:
            return 0
        if d == 0:
            return 1
        return comb(d + free - 1, free - 1) if free else 0

    done = 0
    while done < 20:
        k = rng.randint(1, 3)
        gens = [
            tuple(rng.randint(0, 4) for _ in range(k))
            for _ in range(rng.randint(1, 3))
        ]
        H = MonomialIdeal(k, gens)
        done += 1
        chain = monomial_filtration(H)
        chain.verify()  # per-step colon certificates
        ideals = chain_ideals(chain)
        for i, step in enumerate(chain.steps):
            before, after = ideals[i], ideals[i + 1]
            mdeg = sum(step.monomial)
            for d in range(7):
                lhs = graded_dimension(after, d) - graded_dimension(before, d)
                assert lhs == quotient_dim(k, step.J, d - mdeg)
    elapsed = time.perf_counter() - t0
    _announce(8, elapsed, 60.0, "20 chains validated with graded dimension counts")


def test_criterion_9_main_theorem_certifier():
    t0 = time.perf_counter()
    ring = RingDescriptor(2, 2, 1)
    gens = [parse_vec("x1 d1 + x2 d2", ring)]
    gamma = orthant_cone(2)
    fan = standard_fan(gens)
    cone = fan.cone_of_weight(LinearForm((1, 1)))
    oracle = intersection_oracle(gens, gamma, (1, 2), (0, 0), 4)
    assert oracle.equal
    assert len(oracle.elements) > 0
    for elt in oracle.elements:
        cert = flat_decompose(elt, (0, 0), gamma, (1, 2), cone)
        total = WeylVec.zero(ring)
        for piece in cert.pieces:
            total = total + piece
        assert total == elt
        assert cert.replay().to_report() == cert.to_report()
    # negative control: a corrupted basis is rejected on every element
    from dfan.basis import StandardBasis
    from dfan.errors import DfanError

    corrupted = dataclasses.replace(cone, basis=StandardBasis(
        ring,
        reduce_basis([parse_vec("d1 d2", ring)], LinearForm((1, 1))).elements,
        cone.basis.order,
    ))
    for elt in oracle.elements:
        with pytest.raises(DfanError):
            flat_decompose(elt, (0, 0), gamma, (1, 2), corrupted)
    elapsed = time.perf_counter() - t0
    _announce(9, elapsed, 120.0, "all oracle elements certified; replays bit-identical; corruption caught")


CORPUS = [
    ["fiber", "--input", "paper_fiber.txt"],
    ["fiber", "--input", "paper_fiber.txt", "--json"],
    ["fan", "--input", "euler.txt"],
    ["fan", "--input", "threecone.txt", "--json"],
    ["gb", "--input", "euler.txt", "--weight", "[1,0]"],
    ["gb", "--input", "vector2.txt"],
    ["gb", "--input", "threecone.txt", "--json"],
    ["divide", "--input", "vector2.txt"],
    ["flat-cert", "--input", "euler.txt"],
    ["flat-cert", "--input", "euler.txt", "--json"],
    ["normalize-syzygy", "--input", "syzygy1.txt"],
    ["normalize-syzygy", "--input", "syzygy1.txt", "--json"],
    ["monomial-chain", "--ideal", "W1^2,W2", "--k", "2"],
    ["monomial-chain", "--ideal", "W1 W2,W2^3", "--k", "2", "--json"],
    ["cones", "--cone", "[[1,2],[1,3]]"],
    ["cones", "--cone", "[[1,0],[1,2]]", "--json"],
    ["fan", "--input", "threevar.txt"],
    ["fan", "--input", "vector2.txt", "--json"],
    ["cones", "--input", "euler.txt"],
    ["fiber", "--input", "threevar.txt", "--expect", "nonzero"],
    ["flat-cert", "--input", "euler.txt", "--cone", "[[1,1],[1,2]]",
     "--l-max", "6", "--json"],
    ["flat-cert", "--input", "euler_target.txt"],
    ["flat-cert", "--input", "euler_target.txt", "--json"],
]


def _run_corpus():
    outputs = []
    for argv in CORPUS:
        argv = [
            str(PROBLEMS / part) if part.endswith(".txt") else part
            for part in argv
        ]
        code, out, err = _invoke(argv)
        outputs.append((tuple(argv), code, out, err))
    return outputs


# sha256 of `flat-cert --input problems/euler.txt --degree-bound D --json`;
# the bounds where the oracle's products cover the most ground in a second
EULER_FLAT_CERT_SHA256 = {
    8: "97cbc566c2aadfc9693310cf8d6ec1fd826fdf327f983e212583d91473d21ca5",
    12: "7007f6b8807919289d2ee8592ee2163c0ea3124aabe3621ecbd26be0e8b0e79a",
}


@pytest.mark.parametrize("bound", sorted(EULER_FLAT_CERT_SHA256))
def test_euler_flat_cert_report_keeps_its_digest(bound):
    code, out, err = _invoke([
        "flat-cert", "--input", str(PROBLEMS / "euler.txt"),
        "--degree-bound", str(bound), "--json",
    ])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == EULER_FLAT_CERT_SHA256[bound]


def test_criterion_10_determinism():
    t0 = time.perf_counter()
    first = _run_corpus()
    second = _run_corpus()
    assert first == second  # byte-identical reports and exit codes
    elapsed = time.perf_counter() - t0
    _announce(10, elapsed, 120.0, f"{len(CORPUS)} corpus commands byte-identical across runs")


# criterion 11: the paper's theorem on seeded random modules, k = 2 and 3.
# The standard fan is adapted to the V-multifiltration: for a basic cone Γ
# in the closure of a cone of the fan, the Rees module is flat over the
# toric ring.  The intersection oracle tests flatness degree by degree, by
# linear algebra alone, so whenever Γ lies in the closure of its fan cone
# the oracle must find the two sides equal, and the certifier must
# decompose every element of the intersection with that cone's basis.  A
# cone that straddles a wall carries no such promise; the sample holds one
# where the oracle finds a counterexample, which shows the check can fail.

CONES_2 = [
    BasicCone(rows)
    for rows in (
        ((1, 0), (0, 1)), ((1, 0), (1, 1)), ((1, 1), (0, 1)), ((2, 1), (1, 1)),
        ((1, 1), (1, 2)), ((1, 0), (2, 1)), ((1, 2), (0, 1)), ((3, 1), (2, 1)),
    )
]
CONES_3 = [
    BasicCone(rows)
    for rows in (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (1, 1, 0), (1, 1, 1)),
        ((1, 1, 0), (0, 1, 0), (0, 1, 1)), ((2, 1, 1), (1, 1, 0), (1, 1, 1)),
    )
]
THEOREM_BOUND = 3
THEOREM_COEFFICIENTS = (-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3))
# per k: ring, generator degree, modules, cones, ideals J and degrees s
THEOREM_SAMPLES = {
    2: (RingDescriptor(2, 2, 1), 3, 40, CONES_2,
        [(1, 2), (1,), (2,)], [(0, 0), (1, 0), (0, 1), (-1, 0)]),
    3: (RingDescriptor(3, 3, 1), 2, 12, CONES_3,
        [(1, 2, 3), (1,), (2, 3)], [(0, 0, 0), (1, 0, 0), (-1, 0, 1)]),
}


def _theorem_generator(rng, ring, degree):
    """One generator with 2-3 terms of total degree <= ``degree``."""
    n = ring.n
    terms, size = {}, rng.randint(2, 3)
    while len(terms) < size:
        exps = [0] * (2 * n)
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(2 * n)] += 1
        terms[(tuple(exps[:n]), tuple(exps[n:]))] = Fraction(rng.choice(THEOREM_COEFFICIENTS))
    return from_components(ring, [WeylOp(ring, terms)])


def _check_the_theorem(ring, degree, modules, cones, ideals, degrees):
    """Run the oracle on every (module, cone, J, s) of seed 2005 and
    certify each element it finds on a cone inside its fan cone; return
    the counts and the failures (inside runs with a counterexample)."""
    rng = random.Random(2005)
    counts = {"inside": 0, "inside-counterexample": 0, "straddling": 0,
              "straddling-counterexample": 0, "certificates": 0}
    failures = []
    for _ in range(modules):
        g = _theorem_generator(rng, ring, degree)
        try:
            fan = standard_fan([g])
        except ResourceBoundExceeded:
            continue
        for gamma in cones:
            interior = LinearForm(tuple(map(sum, zip(*gamma.rows))))
            fan_cone = fan.cone_of_weight(interior)
            inside = fan_cone.closure_contains(gamma.rows)
            where = "inside" if inside else "straddling"
            for J in ideals:
                for s in degrees:
                    oracle = intersection_oracle([g], gamma, J, s, THEOREM_BOUND)
                    counts[where] += 1
                    if not oracle.equal:
                        counts[where + "-counterexample"] += 1
                        if inside:
                            failures.append((g, gamma.rows, J, s))
                        continue
                    if not inside:
                        continue
                    for element in oracle.elements:
                        flat_decompose(element, s, gamma, J, fan_cone).verify()
                        counts["certificates"] += 1
    return counts, failures


@pytest.mark.parametrize("k", sorted(THEOREM_SAMPLES))
def test_criterion_11_main_theorem_oracle(k):
    t0 = time.perf_counter()
    counts, failures = _check_the_theorem(*THEOREM_SAMPLES[k])
    assert failures == [], failures
    assert counts["inside"] and counts["certificates"], counts
    # a straddling cone gives at least one counterexample for each k
    assert counts["straddling-counterexample"] >= 1, counts
    elapsed = time.perf_counter() - t0
    _announce(11, elapsed, 60.0, (
        f"k = {k}: {counts['inside']} inside runs, "
        f"{counts['certificates']} certificates checked, "
        f"{counts['straddling']} straddling runs, counterexamples "
        f"{counts['inside-counterexample']} inside and "
        f"{counts['straddling-counterexample']} straddling"
    ))
