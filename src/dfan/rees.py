"""Fibers at zero of the Rees module of the V-multifiltration, plain and
cone-refined.

The fiber-at-zero test decides whether the classes of the unit vectors
die in the quotient by the submodule plus the ideal of positive u-degrees:
a conclusive "nonzero" comes from graded symbol-module membership (the
necessary condition through the strictly positive reference form), a
conclusive "zero" from an explicit witness found by bounded graded linear
algebra; anything else is reported inconclusive at its bound."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._linalg import solve_affine
from .basis import plain_module_basis, reduce_basis
from .errors import ConeError, ZeroInputError
from .filtration import multi_weight
from .toric import BasicCone, cone_drops, orthant_cone
from .weights import LinearForm, ord_L_vec, symbol_L
from .weyl import WeylVec, accumulate, content_free, dehomogenize, monomial_multiples


@dataclass
class FiberResult:
    verdict: str  # "zero" | "nonzero" | "inconclusive"
    witnesses: list  # (unit index, witness WeylVec) pairs for "zero"
    failing_unit: int | None
    bound: int

    def __bool__(self):
        return self.verdict == "zero"


def _witness_search(generators, unit: int, bound: int, gamma: BasicCone):
    """Find F = e_unit + (strictly smaller filtration terms) inside the
    module, by exact linear algebra over multiplier monomials of degree
    <= bound.  The lower stratum is the cone ideal's span: terms whose
    cone drops are nonnegative and not all zero.  The products are those
    of the content-free generators: a positive scale of a column moves no
    pivot and scales its solution entry inversely, so the witness is the
    one of the given generators."""
    ring = generators[0].ring
    s = ring.shifts[unit]
    unit_key = ((0,) * ring.n, (0,) * ring.n, unit)

    def constrained(key):
        """Outside the filtration (must vanish) or on the top stratum
        (must match the unit)."""
        drops = cone_drops(gamma.rows, s, multi_weight(key, key[2], ring.shifts, ring.k))
        return min(drops) < 0 or not any(drops)

    generators = [content_free(g) for g in generators]
    for B in range(bound + 1):
        columns = [prod for g in generators for prod in monomial_multiples(g, B)]
        keys = sorted(
            {key for col in columns for key in col if constrained(key)}
            | {unit_key}
        )
        key_index = {key: idx for idx, key in enumerate(keys)}
        rows = [{} for _ in keys]
        for cidx, col in enumerate(columns):
            for key, c in col.items():
                ridx = key_index.get(key)
                if ridx is not None:
                    rows[ridx][cidx] = c
        rhs = [int(key == unit_key) for key in keys]
        sol = solve_affine(rows, rhs, len(columns))
        if sol is not None:
            total = accumulate({}, (
                (key, x * c)
                for cidx, x in sorted(sol.items())
                for key, c in columns[cidx].items()
            ))
            return WeylVec(ring, total)
    return None


def fiber_V_zero_test(
    generators, bound: int | None = None, gamma: BasicCone | None = None
) -> FiberResult:
    """Decide whether every unit vector e_i u^(n^(i)) lies in the graded
    span of the submodule plus the positive-degree ideal, i.e. whether the
    fiber at zero of the quotient's Rees module vanishes.  With a basic
    cone the test runs against the cone-refined filtration and the toric
    ring's maximal graded ideal."""
    gens = [g for g in generators]
    if not gens or any(g.is_zero() for g in gens):
        raise ZeroInputError("generators must be nonzero")
    ring = gens[0].ring
    gamma = gamma or orthant_cone(ring.k)
    if gamma.k != ring.k:
        raise ConeError(f"cone lives in the wrong dimension ({gamma.k} != {ring.k})")
    if bound is None:
        bound = 2 * max(g.total_degree() for g in gens) + 4
    # conclusive "nonzero": graded symbol-module membership must hold for
    # a strictly positive interior reference form (sum of the cone rows;
    # the plain case is the orthant, giving the all-ones form)
    Lstar = LinearForm(tuple(sum(col) for col in zip(*gamma.rows)))
    sbasis = reduce_basis(gens, Lstar)
    symbols = []
    for h in sbasis.elements:
        symbols.append(dehomogenize(symbol_L(h, Lstar, ord_L_vec(h, Lstar))))
    symbol_gb = plain_module_basis(symbols)
    one = ((0,) * ring.n, (0,) * ring.n)
    for i in range(ring.r):
        if not symbol_gb.member(WeylVec.from_terms(ring, [(one, i, Fraction(1))])):
            return FiberResult("nonzero", [], i, bound)
    # conclusive "zero": exhibit a witness per unit
    witnesses = []
    for i in range(ring.r):
        w = _witness_search(gens, i, bound, gamma)
        if w is None:
            return FiberResult("inconclusive", witnesses, i, bound)
        witnesses.append((i, w))
    return FiberResult("zero", witnesses, None, bound)

