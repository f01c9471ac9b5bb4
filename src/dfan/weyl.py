"""Exact arithmetic in the Weyl algebra D, in D^r, and in the homogenized
ring D[t], over the rationals.

Operators and vectors are sparse maps from exponent keys to nonzero
Fractions (or ints: ``content_free`` makes the coefficients integer, and
the products of integer operands stay integer).  A vector of rank r keys
a term by the scalar's key followed by its component index i, the key
that division, the intersection oracle and the witness search read:

    scalar D      key (alpha, beta)           x^alpha d^beta
    scalar D[t]   key (alpha, beta, l)        x^alpha d^beta t^l
    vector D^r    key (alpha, beta, i)        x^alpha d^beta e_i
    vector D[t]^r key (alpha, beta, l, i)     x^alpha d^beta t^l e_i

The product follows the Leibniz rule d_i a = a d_i + (da/dx_i); in D[t]
each contraction of a d against an x emits one power of the central
variable t.  Products are computed by the closed-form expansion

    d^b x^c = sum_nu  C(b, nu) * c!/(c-nu)! * x^(c-nu) d^(b-nu) [t^|nu|]

rather than by repeated single steps.
"""

from __future__ import annotations

from math import comb, perm, prod
from operator import add, mul, sub

from ._linalg import primitive_part
from .errors import (
    HomogeneityError,
    ResourceBoundExceeded,
    RingMismatchError,
    ZeroInputError,
)


class RingDescriptor:
    """Ambient data: n x/d pairs, k filtered coordinates, rank r, shifts.

    ``shifts`` is the shift matrix n_ = (n^(1), ..., n^(r)), one column in
    Z^k per component of D^r.
    """

    __slots__ = ("n", "k", "r", "shifts")

    def __init__(self, n: int, k: int, r: int = 1, shifts=None):
        if not (1 <= k <= n):
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if r < 1:
            raise ValueError(f"need r >= 1, got r={r}")
        if shifts is None:
            shifts = tuple((0,) * k for _ in range(r))
        else:
            shifts = tuple(tuple(map(int, col)) for col in shifts)
            if len(shifts) != r or any(len(col) != k for col in shifts):
                raise ValueError("shift matrix must have r columns in Z^k")
        self.n = n
        self.k = k
        self.r = r
        self.shifts = shifts

    def __eq__(self, other):
        return self is other or (
            isinstance(other, RingDescriptor)
            and (self.n, self.k, self.r, self.shifts)
            == (other.n, other.k, other.r, other.shifts)
        )

    def __hash__(self):
        return hash((self.n, self.k, self.r, self.shifts))

    def __repr__(self):
        return f"RingDescriptor(n={self.n}, k={self.k}, r={self.r}, shifts={list(map(list, self.shifts))})"


def accumulate(acc: dict, terms, on_new=None) -> dict:
    """Add the (key, coef) pairs of ``terms`` into ``acc`` in place and
    drop the keys that cancel; ``on_new(key)`` is called for every key
    newly inserted.  Returns ``acc``."""
    for key, coef in terms:
        c = acc.get(key)
        if c is None:
            if coef:
                acc[key] = coef
                if on_new is not None:
                    on_new(key)
            continue
        c += coef
        if c:
            acc[key] = c
        else:
            del acc[key]
    return acc


def _check_same_ring(a, b):
    if a.ring != b.ring:
        raise RingMismatchError(f"ring mismatch: {a.ring} vs {b.ring}")


class _Terms:
    """Shared behaviour of operators and vectors: one sparse map ``terms``
    from keys to nonzero coefficients over ``ring``."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingDescriptor, terms=None):
        self.ring = ring
        if terms is None:
            self.terms = {}
        elif isinstance(terms, dict):
            self.terms = {k: v for k, v in terms.items() if v}
        else:
            self.terms = accumulate({}, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((type(self).__name__, self.ring, frozenset(self.terms.items())))

    def __add__(self, other):
        # an operand of another class keys its terms in another shape
        if type(other) is not type(self):
            return NotImplemented
        _check_same_ring(self, other)
        return type(self)(self.ring, accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return type(self)(self.ring, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)


class _Scalar(_Terms):
    """An operator, keyed (alpha, beta) in D and (alpha, beta, l) in D[t]."""

    __slots__ = ()

    @classmethod
    def from_terms(cls, ring: RingDescriptor, terms):
        """The scalar of the (key, 0, coef) ``terms``, as for a vector of
        rank one; the coefficients of a repeated key add up."""
        return cls(ring, ((key, coef) for key, _, coef in terms))

    @property
    def shifts(self):
        """One zero shift column: a scalar filters as a vector of rank one."""
        return ((0,) * self.ring.k,)

    def iter_terms(self):
        """Yield (key, 0, coef) over the support."""
        for key, coef in self.terms.items():
            yield key, 0, coef

    def __repr__(self):
        from .grammar import format_op

        return f"{type(self).__name__}({format_op(self)!r})"


class _Vec(_Terms):
    """A vector of rank r: a scalar's key followed by the component index
    i, (alpha, beta, i) in D^r and (alpha, beta, l, i) in D[t]^r."""

    __slots__ = ()

    @classmethod
    def zero(cls, ring: RingDescriptor):
        return cls(ring)

    @classmethod
    def from_terms(cls, ring: RingDescriptor, terms):
        """The vector of the (key, comp_index, coef) ``terms``; the
        coefficients of a repeated key add up."""
        return cls(ring, ((key + (i,), coef) for key, i, coef in terms))

    @property
    def shifts(self):
        """The ring's shift matrix, one column per component."""
        return self.ring.shifts

    def iter_terms(self):
        """Yield (key, comp_index, coef) over the whole support."""
        for key, coef in self.terms.items():
            yield key[:-1], key[-1], coef

    def __repr__(self):
        from .grammar import format_vec

        return f"{type(self).__name__}({format_vec(self)!r})"


class _D:
    """Degrees in D and D^r, whose keys start with (alpha, beta)."""

    __slots__ = ()

    def order(self) -> int:
        """Usual order: max |beta| over the support.  Zero gives -1."""
        return max((sum(key[1]) for key in self.terms), default=-1)

    def total_degree(self) -> int:
        return max((sum(key[0]) + sum(key[1]) for key in self.terms), default=-1)


class _Dt:
    """Degrees in D[t] and D[t]^r, whose keys start with (alpha, beta, l)."""

    __slots__ = ()

    def f_degree(self) -> int | None:
        """F-degree l + |beta| when homogeneous, else None; zero gives -1."""
        degs = {key[2] + sum(key[1]) for key in self.terms}
        if not degs:
            return -1
        if len(degs) > 1:
            return None
        return degs.pop()

    def total_degree(self) -> int:
        return max(
            (sum(key[0]) + sum(key[1]) + key[2] for key in self.terms), default=-1
        )


# Most terms one monomial product x^a1 d^b1 * x^a2 d^b2 may expand into.
MAX_PRODUCT_TERMS = 4096


def _mul_terms(t1, c1, t2, c2, emit_t: bool):
    """Yield the expansion of (x^a1 d^b1 [t^l1]) * (x^a2 d^b2 [t^l2]).
    Raises ResourceBoundExceeded before the first term when it has more
    than MAX_PRODUCT_TERMS terms."""
    if emit_t:
        a1, b1, l1 = t1
        a2, b2, l2 = t2
        lbase = l1 + l2
    else:
        a1, b1 = t1
        a2, b2 = t2
        lbase = 0
    c = c1 * c2
    if not any(map(mul, b1, a2)):
        # no d_i meets an x_i: the monomials commute and nu = 0 is the
        # only term
        alpha, beta = tuple(map(add, a1, a2)), tuple(map(add, b1, b2))
        yield ((alpha, beta, lbase) if emit_t else (alpha, beta)), c
        return
    n = len(a1)
    # iterate over nu <= min(b1, a2) componentwise
    tops = [min(b1[i], a2[i]) + 1 for i in range(n)]
    count = prod(tops)
    if count > MAX_PRODUCT_TERMS:
        raise ResourceBoundExceeded(
            f"a monomial product of {count} terms exceeds the cap of "
            f"{MAX_PRODUCT_TERMS}",
            cap="MAX_PRODUCT_TERMS", limit=MAX_PRODUCT_TERMS, observed=count,
        )
    stack = [((), 1)]
    for i in range(n):
        nxt = []
        bi, ai, nus = b1[i], a2[i], range(tops[i])
        for prefix, mult in stack:
            for nu in nus:
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


def _product(p, q, emit_t: bool):
    """The product p * q of two scalars of one type and ring."""
    _check_same_ring(p, q)
    acc = {}
    for t1, c1 in p.terms.items():
        for t2, c2 in q.terms.items():
            accumulate(acc, _mul_terms(t1, c1, t2, c2, emit_t))
    return type(p)(p.ring, acc)


class WeylOp(_D, _Scalar):
    """Element of D: finite Q-linear combination of x^alpha d^beta."""

    __slots__ = ()

    def __mul__(self, other: "WeylOp") -> "WeylOp":
        if not isinstance(other, WeylOp):
            return NotImplemented
        return _product(self, other, False)


class DtOp(_Dt, _Scalar):
    """Element of D[t]; t is central and [d_i, a] = (da/dx_i) t."""

    __slots__ = ()

    def __mul__(self, other: "DtOp") -> "DtOp":
        if not isinstance(other, DtOp):
            return NotImplemented
        return _product(self, other, True)


class WeylVec(_D, _Vec):
    """Element of D^r."""

    __slots__ = ()


class DtVec(_Dt, _Vec):
    """Element of D[t]^r."""

    __slots__ = ()


def _term_times_flat(mu, coef, flat: dict, emit_t: bool, acc: dict, on_new=None):
    """acc += coef * (x^a d^b t^l) * flat for the terms ``flat`` of a
    vector keyed (alpha, beta, l, i); ``on_new`` as in ``accumulate``.
    Without ``emit_t`` the product is D's and every l stays 0.  A
    multiplier x^a t^l without d-part commutes with every term, so its
    product only adds exponents."""
    a, b, l = mu
    if not any(b):
        if not emit_t:
            l = 0
        products = (
            ((tuple(map(add, a, a2)), b2, l2 + l, i), coef * c2)
            for (a2, b2, l2, i), c2 in flat.items()
        )
    elif emit_t:
        products = (
            (key + (i,), cc)
            for (a2, b2, l2, i), c2 in flat.items()
            for key, cc in _mul_terms(mu, coef, (a2, b2, l2), c2, True)
        )
    else:
        products = (
            ((na, nb, 0, i), cc)
            for (a2, b2, _, i), c2 in flat.items()
            for (na, nb), cc in _mul_terms((a, b), coef, (a2, b2), c2, False)
        )
    accumulate(acc, products, on_new)


# Most multiplier tuples one monomial_multiples call may walk.
MAX_MULTIPLIERS = 20_000


def _compositions(n: int, room: int) -> list:
    """The n-tuples of naturals with sum <= room, in product order."""
    if n == 0:
        return [()]
    return [(f, *t) for f in range(room + 1) for t in _compositions(n - 1, room - f)]


def _d_times(terms: dict, e: tuple) -> dict:
    """The terms of d_i V for the terms of V in D^r, e the unit vector e_i:
    d_i x^alpha d^beta = x^alpha d^(beta + e) + alpha_i x^(alpha - e) d^beta."""
    i = e.index(1)
    out = {(x, tuple(map(add, y, e)), j): c for (x, y, j), c in terms.items()}
    return accumulate(out, (
        ((tuple(map(sub, x, e)), y, j), x[i] * c)
        for (x, y, j), c in terms.items() if x[i]
    ))


def content_free(g: WeylVec) -> WeylVec:
    """g divided by its positive content: the same vector up to a positive
    scale, with coprime integer coefficients, so that its products x^a d^b
    are integer too.  The zero vector stays zero."""
    return type(g)(g.ring, primitive_part(g.terms)[2])


def monomial_multiples(g: WeylVec, room: int):
    """Yield the nonzero x^a d^b g with |a| + |b| <= room, (a, b) in
    ``itertools.product`` order, from d^b g = d_i (d^(b - e_i) g) built
    once per b.  Each product is a dict (alpha, beta, i) -> coef, the
    shape of g's terms.  Raises ResourceBoundExceeded before the first
    product when there are more than MAX_MULTIPLIERS exponent tuples."""
    n = g.ring.n
    count = comb(room + 2 * n, 2 * n) if room >= 0 else 0
    if count > MAX_MULTIPLIERS:
        raise ResourceBoundExceeded(
            f"{count} multipliers x^a d^b with |a| + |b| <= {room} "
            f"exceed the cap of {MAX_MULTIPLIERS}",
            cap="MAX_MULTIPLIERS", limit=MAX_MULTIPLIERS, observed=count,
        )
    if g.is_zero() or room < 0:
        return  # D is a domain: the multiples of a nonzero g are nonzero
    d_powers = {(0,) * n: g.terms}
    tails = {m: _compositions(n, m) for m in range(room + 1)}
    for a in tails[room]:
        for b in tails[room - sum(a)]:
            if b not in d_powers:  # i is b's last nonzero entry: b - e_i came first
                i = max(j for j in range(n) if b[j])
                e = tuple(int(j == i) for j in range(n))
                d_powers[b] = _d_times(d_powers[tuple(map(sub, b, e))], e)
            yield {
                (tuple(map(add, x, a)), y, j): c for (x, y, j), c in d_powers[b].items()
            }


def homogenize_vec(B: WeylVec) -> DtVec:
    """Componentwise t^(d-d_i) h(P_i) where d = max of the usual orders.

    Every term ends with t-exponent d - |beta|, so the result is
    F-homogeneous of degree d.
    """
    if B.is_zero():
        raise ZeroInputError("cannot homogenize the zero vector")
    d = B.order()
    return DtVec(B.ring, {(a, b, d - sum(b), i): c for (a, b, i), c in B.terms.items()})


def dehomogenize(G):
    """Substitute t = 1 and recanonicalize; accepts DtOp or DtVec."""
    cls = {DtOp: WeylOp, DtVec: WeylVec}.get(type(G))
    if cls is None:
        raise TypeError(f"cannot dehomogenize {type(G).__name__}")
    return cls(G.ring, ((key[:2] + key[3:], c) for key, c in G.terms.items()))


def t_power_times(G: DtVec, l: int) -> DtVec:
    """Multiply by the central monomial t^l."""
    if l == 0:
        return G
    return DtVec(G.ring, {(a, b, t + l, i): c for (a, b, t, i), c in G.terms.items()})


def require_f_homogeneous(G) -> int:
    """Return the F-degree of G, raising if G is not F-homogeneous."""
    d = G.f_degree()
    if d is None:
        raise HomogeneityError("element is not F-homogeneous")
    return d
