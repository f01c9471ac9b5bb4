"""The paper's theorem on seeded random modules, k = 2 and k = 3.

The standard fan is adapted to the V-multifiltration: for a basic cone Γ
in the closure of a cone of the fan, the Rees module is flat over the
toric ring.  The intersection oracle tests flatness degree by degree, by
linear algebra alone, so whenever Γ lies in the closure of its fan cone
the oracle must find the two sides equal, and the certifier must
decompose every element of the intersection with that cone's basis.  A
cone that straddles a wall carries no such promise; the sample holds one
where the oracle finds a counterexample, which shows the check can
fail."""

import random
from fractions import Fraction

from dfan.errors import ResourceBoundExceeded
from dfan.fan import standard_fan
from dfan.flatness import flat_decompose, intersection_oracle
from dfan.toric import BasicCone
from dfan.weights import LinearForm
from dfan.weyl import RingDescriptor, WeylOp, WeylVec

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
BOUND = 3
COEFFICIENTS = (-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3))


def random_generator(rng, ring, degree):
    """One generator with 2-3 terms of total degree <= ``degree``."""
    n = ring.n
    terms, size = {}, rng.randint(2, 3)
    while len(terms) < size:
        exps = [0] * (2 * n)
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(2 * n)] += 1
        terms[(tuple(exps[:n]), tuple(exps[n:]))] = Fraction(rng.choice(COEFFICIENTS))
    return WeylVec(ring, (WeylOp(ring, terms),))


def check_the_theorem(ring, degree, modules, cones, ideals, degrees):
    """Run the oracle on every (module, cone, J, s) of seed 2005 and
    certify each element it finds on a cone inside its fan cone; return
    the counts and the failures (inside runs with a counterexample)."""
    rng = random.Random(2005)
    counts = {"inside": 0, "inside-counterexample": 0, "straddling": 0,
              "straddling-counterexample": 0, "certificates": 0}
    failures = []
    for _ in range(modules):
        g = random_generator(rng, ring, degree)
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
                    oracle = intersection_oracle([g], gamma, J, s, BOUND)
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


def test_the_oracle_is_equal_and_certified_on_every_cone_inside_its_fan_cone():
    counts, failures = check_the_theorem(
        RingDescriptor(2, 2, 1), 3, 40, CONES_2,
        [(1, 2), (1,), (2,)], [(0, 0), (1, 0), (0, 1), (-1, 0)],
    )
    assert failures == [], failures
    assert counts["inside"] and counts["certificates"], counts
    assert counts["straddling-counterexample"] >= 1, counts


def test_the_theorem_holds_for_three_hypersurfaces():
    counts, failures = check_the_theorem(
        RingDescriptor(3, 3, 1), 2, 12, CONES_3,
        [(1, 2, 3), (1,), (2, 3)], [(0, 0, 0), (1, 0, 0), (-1, 0, 1)],
    )
    assert failures == [], failures
    assert counts["inside"] and counts["certificates"], counts
    assert counts["straddling-counterexample"] >= 1, counts
