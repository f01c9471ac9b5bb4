"""Graded Rees elements P u^s, the graded algebra isomorphic to the plain
Rees ring, and fibers at zero.

An element of the Rees ring of the V-multifiltration is a pair (P, s)
with P in V_s; the graded isomorphism sends x^alpha d^beta u^s to
X^alpha Delta^beta U^sigma with sigma = s + alpha - beta on the first k
coordinates.  At polynomial scale the target algebra is Q[X][Delta, U]
with Delta_i X_i = X_i Delta_i + 1 and U central.

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
from .errors import ConeError, GradingError, RingMismatchError, ZeroInputError
from .filtration import in_V_gamma, multi_weight
from .grammar import GRADED, format_factors, format_sum
from .toric import BasicCone, cone_drops, orthant_cone
from .weights import LinearForm, ord_L_vec, symbol_L
from .weyl import (
    RingDescriptor,
    WeylOp,
    WeylVec,
    _mul_terms,
    accumulate,
    content_free,
    dehomogenize,
    monomial_multiples,
)


class ReesElement:
    """P u^s for P in V_s (plain context) or in V^Gamma_s (cone context).

    ``op`` is a scalar WeylOp (ring elements) or a WeylVec (module
    elements, filtered through the ring's shift matrix)."""

    __slots__ = ("op", "s", "cone")

    def __init__(self, op, s, cone: BasicCone | None = None):
        self.op = op
        self.s = tuple(int(c) for c in s)
        self.cone = cone
        k = op.ring.k
        if len(self.s) != k:
            raise GradingError(f"degree must live in Z^{k}")
        if not in_V_gamma(op, self.s, cone or orthant_cone(k)):
            raise GradingError(f"operator is not in the filtration at s = {self.s}")

    def __eq__(self, other):
        return (
            isinstance(other, ReesElement)
            and self.op == other.op
            and self.s == other.s
            and self.cone == other.cone
        )

    def __repr__(self):
        return f"ReesElement({self.op!r}, s={self.s})"


def rees_mul(e1: ReesElement, e2: ReesElement) -> ReesElement:
    """(P1 u^s1)(P2 u^s2) = (P1 P2) u^(s1+s2); the u variables are central."""
    if e1.cone != e2.cone:
        raise RingMismatchError("Rees elements in different contexts")
    if isinstance(e1.op, WeylVec):
        raise TypeError("left factor must be a scalar ring element")
    if isinstance(e2.op, WeylVec):
        prod = e2.op.left_mul(e1.op)
    else:
        prod = e1.op * e2.op
    s = tuple(a + b for a, b in zip(e1.s, e2.s))
    return ReesElement(prod, s, e1.cone)


class AElement:
    """Graded image of a scalar Rees element: terms X^alpha Delta^beta
    U^sigma with sigma in N^k, all of one degree (sigma + beta - alpha)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingDescriptor, terms):
        self.ring = ring
        if isinstance(terms, dict):
            self.terms = {k: v for k, v in terms.items() if v}
        else:
            self.terms = accumulate({}, terms)
        for (a, b, sig) in self.terms:
            if any(c < 0 for c in sig):
                raise GradingError("negative U-exponent")

    def degree(self):
        degs = {
            tuple(sig[i] + b[i] - a[i] for i in range(self.ring.k))
            for (a, b, sig) in self.terms
        }
        if len(degs) > 1:
            raise GradingError("inhomogeneous element of the graded algebra")
        return degs.pop() if degs else None

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, AElement)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __mul__(self, other: "AElement") -> "AElement":
        if self.ring != other.ring:
            raise RingMismatchError("A-elements over different rings")
        acc = {}
        for (a1, b1, s1), c1 in self.terms.items():
            for (a2, b2, s2), c2 in other.terms.items():
                sig = tuple(x + y for x, y in zip(s1, s2))
                accumulate(acc, (
                    ((na, nb, sig), cc)
                    for (na, nb), cc in _mul_terms((a1, b1), c1, (a2, b2), c2, False)
                ))
        return AElement(self.ring, acc)

    def __repr__(self):
        return f"AElement({self.format()!r})"

    def format(self) -> str:
        return format_sum(
            (self.terms[key], format_factors(GRADED, key)) for key in sorted(self.terms)
        )


def to_A(e: ReesElement) -> AElement:
    """The graded isomorphism on homogeneous elements (plain context)."""
    if e.cone is not None:
        raise GradingError("the graded isomorphism needs the plain context")
    if not isinstance(e.op, WeylOp):
        raise TypeError("the graded isomorphism acts on scalar elements")
    k = e.op.ring.k
    terms = {}
    for (a, b), c in e.op.terms.items():
        sig = tuple(e.s[i] + a[i] - b[i] for i in range(k))
        terms[(a, b, sig)] = c
    return AElement(e.op.ring, terms)


def from_A(a: AElement) -> ReesElement:
    """Inverse of the graded isomorphism; needs a homogeneous element."""
    s = a.degree()
    if s is None:
        raise ZeroInputError("the zero element has no homogeneous degree")
    op = WeylOp(a.ring, {(al, b): c for (al, b, _), c in a.terms.items()})
    return ReesElement(op, s)


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
            return WeylVec.from_terms(
                ring, ((key[:2], key[2], c) for key, c in total.items())
            )
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


def gamma_fiber_reduce(e: ReesElement):
    """Rewrite a cone-context element in (X, Delta, W) coordinates and
    drop every term with a nonzero W-exponent: reduction modulo the
    maximal graded ideal of the toric ring.  Returns the surviving
    operator in the X/Delta Weyl algebra.

    This is the fiber at zero of the paper's Rees ring of the cone
    filtration, which the graded isomorphism makes the X/Delta Weyl
    algebra over the toric ring; the adaptedness the paper proves is
    flatness over that ring, read on this fiber.  The tests check it term
    by term: a positive W-exponent dies, W-exponent zero survives."""
    if e.cone is None:
        raise ConeError("reduction needs a basic cone context")
    op = e.op
    shifts = op.shifts

    def survives(key, comp):
        """The W-exponent of the term is its cone drops."""
        wexp = cone_drops(e.cone.rows, e.s, multi_weight(key, comp, shifts, e.cone.k))
        if min(wexp) < 0:
            raise GradingError("term escapes the cone filtration")
        return not any(wexp)

    return type(op).from_terms(
        op.ring, (t for t in op.iter_terms() if survives(t[0], t[1]))
    )
