"""Weight forms, orders and symbols.

Two kinds of forms act on exponents (alpha, beta):

* ``GeneralForm`` (e, f) with e_i <= 0 and e_i + f_i >= 0, evaluated as
  sum e_i alpha_i + f_i beta_i;
* ``LinearForm`` L with nonnegative rational coefficients on the first k
  coordinates, lifted to L(beta) - L(alpha).  t-exponents never weigh.

``TermOrder`` is the fixed well-order behind privileged exponents: an
optional tuple of linear-form weights (the L-context refinement), then
total degree |alpha| + |beta| + l, then reverse-lexicographic on the
concatenation (beta, alpha, l) with d-exponents ranked before x-exponents,
then component index ascending.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from ._linalg import to_primitive_int
from .errors import WeightError, ZeroInputError
from .weyl import DtOp, WeylOp

NEG_INF = float("-inf")


class GeneralForm:
    """A form Lambda = (e, f) in the admissible set (e <= 0, e + f >= 0)."""

    __slots__ = ("e", "f")

    def __init__(self, e, f):
        self.e = tuple(Fraction(c) for c in e)
        self.f = tuple(Fraction(c) for c in f)
        if len(self.e) != len(self.f):
            raise WeightError("e and f must have the same length")
        for ei, fi in zip(self.e, self.f):
            if ei > 0:
                raise WeightError(f"e-coefficient {ei} must be <= 0")
            if ei + fi < 0:
                raise WeightError(f"e + f coefficient {ei + fi} must be >= 0")

    def __call__(self, alpha, beta) -> Fraction:
        return sum(
            (e * a for e, a in zip(self.e, alpha)), Fraction(0)
        ) + sum((f * b for f, b in zip(self.f, beta)), Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, GeneralForm)
            and self.e == other.e
            and self.f == other.f
        )

    def __hash__(self):
        return hash((self.e, self.f))

    def __repr__(self):
        return f"GeneralForm(e={list(self.e)}, f={list(self.f)})"


class LinearForm:
    """L in the nonnegative dual quadrant of Q^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if any(c < 0 for c in self.coeffs):
            raise WeightError("linear form coefficients must be >= 0")

    @property
    def k(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def of(self, v) -> Fraction:
        """Evaluate on the first k entries of an integer vector."""
        return sum(
            (c * x for c, x in zip(self.coeffs, v)), Fraction(0)
        )

    def lift(self, n: int) -> GeneralForm:
        """The form (alpha, beta) -> L(beta) - L(alpha) on 2n exponents."""
        e = tuple(-c for c in self.coeffs) + (Fraction(0),) * (n - self.k)
        f = self.coeffs + (Fraction(0),) * (n - self.k)
        return GeneralForm(e, f)

    def weight(self, alpha, beta) -> Fraction:
        return self.of(beta) - self.of(alpha)

    def __eq__(self, other):
        return isinstance(other, LinearForm) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"LinearForm({list(self.coeffs)})"


def ones_form(k: int) -> LinearForm:
    return LinearForm((1,) * k)


def usual_order_form(n: int) -> GeneralForm:
    """e = 0, f = 1: the filtration by the usual operator order."""
    return GeneralForm((0,) * n, (1,) * n)


def ord_general(P, form: GeneralForm):
    """Max of form(alpha, beta) over the support; -inf for zero."""
    keys = P.terms if isinstance(P, (WeylOp, DtOp)) else None
    if keys is None:
        raise TypeError("ord_general expects a scalar operator")
    best = NEG_INF
    for key in keys:
        a, b = key[0], key[1]
        w = form(a, b)
        if best is NEG_INF or w > best:
            best = w
    return best


def ord_L(P, L: LinearForm):
    """L-order of a scalar operator (t-exponents contribute nothing)."""
    best = NEG_INF
    for key in P.terms:
        w = L.weight(key[0], key[1])
        if best is NEG_INF or w > best:
            best = w
    return best


def ord_L_vec(B, L: LinearForm, shifts=None):
    """Shifted L-order of a vector: max over components i of
    ord_L(component) + L(n^(i))."""
    if isinstance(B, (WeylOp, DtOp)):
        return ord_L(B, L)
    if shifts is None:
        shifts = B.ring.shifts
    best = NEG_INF
    for key, i, _ in B.iter_terms():
        w = L.weight(key[0], key[1]) + L.of(shifts[i])
        if best is NEG_INF or w > best:
            best = w
    return best


def symbol_L(B, L: LinearForm, d, shifts=None):
    """The terms of exact shifted L-weight d: the canonical representative
    of the symbol of order d.  Requires ord <= d; returns 0 when every
    term lies strictly below."""
    if isinstance(B, (WeylOp, DtOp)):
        w0 = ord_L(B, L)
        if w0 is not NEG_INF and w0 > d:
            raise WeightError(f"ord {w0} exceeds requested symbol degree {d}")
        kept = {
            key: c for key, c in B.terms.items() if L.weight(key[0], key[1]) == d
        }
        return type(B)(B.ring, kept)
    if shifts is None:
        shifts = B.ring.shifts
    w0 = ord_L_vec(B, L, shifts)
    if w0 is not NEG_INF and w0 > d:
        raise WeightError(f"ord {w0} exceeds requested symbol degree {d}")
    comps = []
    for i, comp in enumerate(B.components):
        off = L.of(shifts[i])
        kept = {
            key: c
            for key, c in comp.terms.items()
            if L.weight(key[0], key[1]) + off == d
        }
        comps.append(type(comp)(comp.ring, kept))
    return type(B)(B.ring, comps)


def principal_symbol(B, L: LinearForm, shifts=None):
    """sigma^L at d = ord^L; zero input gives zero."""
    if isinstance(B, (WeylOp, DtOp)):
        if B.is_zero():
            return B
        return symbol_L(B, L, ord_L(B, L))
    if B.is_zero():
        return B
    return symbol_L(B, L, ord_L_vec(B, L, shifts), shifts)


class TermOrder:
    """Total well-order on exponents (alpha, beta, l, i).

    ``weights`` is a tuple of LinearForms compared first (shifted, most
    significant first); it is empty for the plain order.  The name
    ``deg-revlex-pot`` identifies the unweighted tail in config files.

    Keys are flat tuples of ints: the shifted weights, each form scaled
    to its primitive integer vector (a positive scale keeps the order),
    then the total degree, the revlex part and the negated component.
    Keys of one order and one ring all have the same length, so tuple
    comparison is the order.
    """

    NAME = "deg-revlex-pot"

    __slots__ = ("weights", "_scaled")

    def __init__(self, weights=()):
        self.weights = tuple(weights)
        self._scaled = tuple(to_primitive_int(L.coeffs) for L in self.weights)

    def refine(self, *forms: LinearForm) -> "TermOrder":
        return TermOrder(tuple(forms) + self.weights)

    def key(self, key, comp: int = 0, shifts=None):
        """Sort key; max() under it picks the privileged exponent."""
        if len(key) == 3:
            a, b, l = key
        else:
            (a, b), l = key, 0
        out = []
        for c in self._scaled:
            w = sum(map(mul, c, b)) - sum(map(mul, c, a))
            if shifts is not None:
                w += sum(map(mul, c, shifts[comp]))
            out.append(w)
        out.append(sum(a) + sum(b) + l)
        out.append(-l)
        out.extend(-e for e in reversed(a))
        out.extend(-e for e in reversed(b))
        out.append(-comp)
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, TermOrder) and self.weights == other.weights

    def __hash__(self):
        return hash(self.weights)

    def __repr__(self):
        return f"TermOrder(weights={list(self.weights)})"


def privileged_exponent(G, order: TermOrder, shifts=None):
    """The maximal (alpha, beta, l, i) in the support of G under the
    order; deterministic, fails on zero."""
    if isinstance(G, (WeylOp, DtOp)):
        if G.is_zero():
            raise ZeroInputError("zero operator has no privileged exponent")
        best = max(G.terms, key=lambda key: order.key(key, 0, None))
        return best + (0,) if len(best) == 3 else best + (0, 0)
    if G.is_zero():
        raise ZeroInputError("zero vector has no privileged exponent")
    if shifts is None:
        shifts = G.ring.shifts
    best = None
    best_key = None
    for key, i, _ in G.iter_terms():
        k = order.key(key, i, shifts)
        if best_key is None or k > best_key:
            best_key = k
            best = key + (i,) if len(key) == 3 else key + (0, i)
    return best
