"""Weight forms, orders and symbols.

A ``LinearForm`` L has nonnegative rational coefficients on the first k
coordinates and weighs an exponent (alpha, beta) by L(beta) - L(alpha);
t-exponents never weigh.  It evaluates on integers, as an integer vector
over one positive denominator; a value becomes a Fraction only where it
is read.

``TermOrder`` is the fixed well-order behind privileged exponents: an
optional tuple of linear-form weights (the L-context refinement), then
total degree |alpha| + |beta| + l, then reverse-lexicographic on the
concatenation (beta, alpha, l) with d-exponents ranked before x-exponents,
then component index ascending.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul, neg, sub

from ._linalg import to_primitive_int
from .errors import WeightError

NEG_INF = float("-inf")


class LinearForm:
    """L in the nonnegative dual quadrant of Q^k.  Besides the public
    ``coeffs`` it keeps the integer vector ``ints`` and the positive
    integer ``den`` with coeffs = ints / den, on which it evaluates."""

    __slots__ = ("coeffs", "ints", "den")

    def __init__(self, coeffs):
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if any(c < 0 for c in self.coeffs):
            raise WeightError("linear form coefficients must be >= 0")
        self.den = lcm(*(c.denominator for c in self.coeffs))
        self.ints = tuple(c.numerator * (self.den // c.denominator) for c in self.coeffs)

    @property
    def k(self) -> int:
        return len(self.coeffs)

    def dot(self, v) -> int:
        """den * L on the first k entries of an integer vector."""
        return sum(map(mul, self.ints, v))

    def of(self, v) -> Fraction:
        """Evaluate on the first k entries of an integer vector."""
        return Fraction(self.dot(v), self.den)

    def __eq__(self, other):
        return isinstance(other, LinearForm) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"LinearForm({list(self.coeffs)})"

    def __str__(self):
        return f"[{', '.join(map(str, self.coeffs))}]"


def ones_form(k: int) -> LinearForm:
    return LinearForm((1,) * k)


def _scaled_weights(B, L: LinearForm):
    """Yield (den * shifted L-weight, term) for each term (key, i, c) of
    an operand, on integers."""
    ints = L.ints
    offs = [sum(map(mul, ints, n)) for n in B.shifts]
    for t in B.iter_terms():
        key = t[0]
        yield sum(map(mul, ints, key[1])) - sum(map(mul, ints, key[0])) + offs[t[1]], t


def ord_L_vec(B, L: LinearForm):
    """Shifted L-order of an operand: max over its terms in component i of
    L(beta - alpha) + L(n^(i)), with n the operand's shifts (one zero
    column for a scalar); -inf for zero.  t-exponents weigh nothing."""
    top = max((w for w, _ in _scaled_weights(B, L)), default=None)
    return NEG_INF if top is None else Fraction(top, L.den)


def symbol_L(B, L: LinearForm, d):
    """The terms of exact shifted L-weight d: the canonical representative
    of the symbol of order d.  Requires ord <= d; returns 0 when every
    term lies strictly below."""
    weighted = list(_scaled_weights(B, L))
    top = d * L.den
    w0 = max((w for w, _ in weighted), default=None)
    if w0 is not None and w0 > top:
        raise WeightError(
            f"ord {Fraction(w0, L.den)} exceeds requested symbol degree {d}"
        )
    return type(B).from_terms(B.ring, (t for w, t in weighted if w == top))


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

    def key(self, key, shifts):
        """Sort key of the exponent ``key`` = (alpha, beta, l, i) under the
        shift matrix ``shifts``; max() under it picks the privileged
        exponent."""
        a, b, l, i = key
        weights = [
            sum(map(mul, c, b)) - sum(map(mul, c, a)) + sum(map(mul, c, shifts[i]))
            for c in self._scaled
        ]
        return (
            *weights, sum(a) + sum(b) + l, -l,
            *map(neg, a[::-1]), *map(neg, b[::-1]), -i,
        )

    def __eq__(self, other):
        return isinstance(other, TermOrder) and self.weights == other.weights

    def __hash__(self):
        return hash(self.weights)

    def __repr__(self):
        return f"TermOrder(weights={list(self.weights)})"


class _KeyCache:
    """Memoised order keys of flat exponents (alpha, beta, l, i), and
    their negations for min-heaps.  A tracing cache also records the
    order decisions taken through ``leader`` and ``ranked``, from which
    ``cone`` derives where they come out the same."""

    __slots__ = ("order", "shifts", "cache", "negs", "trace")

    def __init__(self, order: TermOrder, shifts, trace: bool = False):
        self.order = order
        self.shifts = shifts
        self.cache = {}
        self.negs = {}
        self.trace = [] if trace else None

    def __call__(self, key4):
        k = self.cache.get(key4)
        if k is None:
            k = self.cache[key4] = self.order.key(key4, self.shifts)
        return k

    def neg(self, key4):
        """The key of ``key4`` with every entry negated."""
        k = self.negs.get(key4)
        if k is None:
            k = self.negs[key4] = tuple(map(neg, self(key4)))
        return k

    def leader(self, flat):
        """The exponent of ``flat`` with the largest key."""
        top = max(flat, key=self)
        self.ranked(flat, (top,))
        return top

    def ranked(self, keys, marked=None):
        """Note that the order between each exponent in ``marked``
        (default: all of ``keys``) and each of ``keys`` was relied on."""
        if self.trace is not None:
            self.trace.append((tuple(keys), None if marked is None else set(marked)))

    def cone(self):
        """The refining weights L at which every traced decision comes out
        the same, as integer forms (weak, strict): L.w >= 0 for w in weak,
        L.w > 0 for w in strict.  The order must be a base order refined
        by one weight, so a key is L applied to beta - alpha plus the
        component's shift, then the base order's key (its tail).

        Keys are read from the cache alone: every traced exponent was
        keyed where its decision was taken.  ``leader`` takes the max
        under this cache, the division heap keys each term that enters
        it through ``neg``, the S-pair heap keys each lcm when it is
        pushed, and ``_autoreduce`` sorts the exponents it ranks by this
        cache.  A missing key raises KeyError; none is computed here."""
        # chain the marked exponents in key order and tie every other one
        # to its nearest marked neighbours; transitivity does the rest.
        # Exponents are numbered as first met, so a decision is a pair of
        # numbers (hi, lo), and one met again is skipped.
        key = self.cache.__getitem__
        num = {}
        pairs = set()
        for keys, marked in self.trace:
            below, loose = None, []
            for e in sorted(set(keys), key=key):
                n = num.setdefault(e, len(num))
                if below is not None:
                    pairs.add((n, below))
                if marked is None or e in marked:
                    pairs.update((n, u) for u in loose)
                    below, loose = n, []
                else:
                    loose.append(n)
        # each exponent's L-weight vector and base-order key, once
        k = self.order.weights[0].k
        parts = []
        for e in num:
            a, b, _, i = e
            s = self.shifts[i]
            parts.append(([b[j] - a[j] + s[j] for j in range(k)], key(e)[1:]))
        weak, strict = set(), set()
        for hi, lo in pairs:
            (vh, th), (vl, tl) = parts[hi], parts[lo]
            w = tuple(map(sub, vh, vl))
            if any(w):
                (weak if th > tl else strict).add(w)
        return tuple(sorted(weak - strict)), tuple(sorted(strict))
