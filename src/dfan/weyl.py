"""Exact arithmetic in the Weyl algebra D, in D^r, and in the homogenized
ring D[t], over the rationals.

Operators are sparse maps from exponent keys to nonzero Fractions (or
ints: ``content_free`` makes the coefficients integer, and the products of
integer operands stay integer):

    scalar D      key (alpha, beta)        x^alpha d^beta
    scalar D[t]   key (alpha, beta, l)     x^alpha d^beta t^l

Vectors are tuples of scalars of fixed rank r.  The product follows the
Leibniz rule d_i a = a d_i + (da/dx_i); in D[t] each contraction of a d
against an x emits one power of the central variable t.  Both products are
computed by the closed-form expansion

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


class _OpBase:
    """Shared behaviour of scalar operators (D and D[t])."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingDescriptor, terms=None):
        self.ring = ring
        if terms is None:
            self.terms = {}
        elif isinstance(terms, dict):
            self.terms = {k: v for k, v in terms.items() if v}
        else:
            self.terms = accumulate({}, terms)

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
        _check_same_ring(self, other)
        return type(self)(self.ring, accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return type(self)(self.ring, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __repr__(self):
        from .grammar import format_op

        return f"{type(self).__name__}({format_op(self)!r})"


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


class WeylOp(_OpBase):
    """Element of D: finite Q-linear combination of x^alpha d^beta."""

    __slots__ = ()

    def __mul__(self, other: "WeylOp") -> "WeylOp":
        if not isinstance(other, WeylOp):
            return NotImplemented
        return _product(self, other, False)

    def order(self) -> int:
        """Usual order: max |beta| over the support.  Zero gives -1."""
        if not self.terms:
            return -1
        return max(sum(b) for _, b in self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(a) + sum(b) for a, b in self.terms)


class DtOp(_OpBase):
    """Element of D[t]; t is central and [d_i, a] = (da/dx_i) t."""

    __slots__ = ()

    def __mul__(self, other: "DtOp") -> "DtOp":
        if not isinstance(other, DtOp):
            return NotImplemented
        return _product(self, other, True)

    def f_degree(self) -> int | None:
        """F-degree l + |beta| when homogeneous, else None; zero gives -1."""
        degs = {l + sum(b) for _, b, l in self.terms}
        if not degs:
            return -1
        if len(degs) > 1:
            return None
        return degs.pop()

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(a) + sum(b) + l for a, b, l in self.terms)


class _VecBase:
    __slots__ = ("ring", "components")

    _scalar: type

    def __init__(self, ring: RingDescriptor, components):
        comps = tuple(components)
        if len(comps) != ring.r:
            raise ValueError(f"expected {ring.r} components, got {len(comps)}")
        for c in comps:
            if not isinstance(c, self._scalar):
                raise TypeError(f"component of wrong type {type(c).__name__}")
            if c.ring != ring:
                raise RingMismatchError("component over a different ring")
        self.ring = ring
        self.components = comps

    @classmethod
    def zero(cls, ring: RingDescriptor):
        return cls(ring, tuple(cls._scalar(ring) for _ in range(ring.r)))

    @classmethod
    def from_terms(cls, ring: RingDescriptor, terms):
        """The vector of the (key, comp_index, coef) ``terms``; the
        coefficients of a repeated key add up."""
        buckets = [[] for _ in range(ring.r)]
        for key, i, coef in terms:
            buckets[i].append((key, coef))
        return cls(ring, tuple(cls._scalar(ring, bucket) for bucket in buckets))

    @property
    def shifts(self):
        """The ring's shift matrix, one column per component."""
        return self.ring.shifts

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.ring == other.ring
            and self.components == other.components
        )

    def __hash__(self):
        return hash((type(self).__name__, self.components))

    def __add__(self, other):
        _check_same_ring(self, other)
        return type(self)(
            self.ring,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def __neg__(self):
        return type(self)(self.ring, tuple(-c for c in self.components))

    def __sub__(self, other):
        return self + (-other)

    def left_mul(self, P):
        """The product P * self with a scalar P of the same type and ring."""
        _check_same_ring(P, self)
        return type(self)(self.ring, tuple(P * c for c in self.components))

    __rmul__ = left_mul

    def total_degree(self) -> int:
        return max(c.total_degree() for c in self.components)

    def iter_terms(self):
        """Yield (key, comp_index, coef) over the whole support."""
        for i, comp in enumerate(self.components):
            for key, coef in comp.terms.items():
                yield key, i, coef

    def __repr__(self):
        from .grammar import format_vec

        return f"{type(self).__name__}({format_vec(self)!r})"


class WeylVec(_VecBase):
    """Element of D^r."""

    __slots__ = ()
    _scalar = WeylOp

    def order(self) -> int:
        return max(c.order() for c in self.components)


class DtVec(_VecBase):
    """Element of D[t]^r."""

    __slots__ = ()
    _scalar = DtOp

    def f_degree(self) -> int | None:
        """Common F-degree across all components, None if inhomogeneous."""
        degs = {l + sum(b) for _, b, l in
                (key for key, _, _ in self.iter_terms())}
        if not degs:
            return -1
        if len(degs) > 1:
            return None
        return degs.pop()


# Most multiplier tuples one monomial_multiples call may walk.
MAX_MULTIPLIERS = 20_000


def _compositions(n: int, room: int) -> list:
    """The n-tuples of naturals with sum <= room, in product order."""
    if n == 0:
        return [()]
    return [(f, *t) for f in range(room + 1) for t in _compositions(n - 1, room - f)]


def _d_times(terms: dict, e: tuple) -> dict:
    """The terms of d_i P for the terms of P in D, e the unit vector e_i:
    d_i x^alpha d^beta = x^alpha d^(beta + e) + alpha_i x^(alpha - e) d^beta."""
    i = e.index(1)
    out = {(x, tuple(map(add, y, e))): c for (x, y), c in terms.items()}
    return accumulate(out, (
        ((tuple(map(sub, x, e)), y), x[i] * c) for (x, y), c in terms.items() if x[i]
    ))


def content_free(g: WeylVec) -> WeylVec:
    """g divided by its positive content: the same vector up to a positive
    scale, with coprime integer coefficients, so that its products x^a d^b
    are integer too.  The zero vector stays zero."""
    v = primitive_part({(i, key): c for key, i, c in g.iter_terms()})[2]
    return type(g).from_terms(g.ring, ((key, i, c) for (i, key), c in v.items()))


def monomial_multiples(g: WeylVec, room: int):
    """Yield the nonzero x^a d^b g with |a| + |b| <= room, (a, b) in
    ``itertools.product`` order, from d^b g = d_i (d^(b - e_i) g) built
    once per b.  Each product is a flat dict (alpha, beta, i) -> coef,
    component-major.  Raises ResourceBoundExceeded before the first
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
    d_powers = {(0,) * n: [comp.terms for comp in g.components]}
    tails = {m: _compositions(n, m) for m in range(room + 1)}
    for a in tails[room]:
        for b in tails[room - sum(a)]:
            if b not in d_powers:  # i is b's last nonzero entry: b - e_i came first
                i = max(j for j in range(n) if b[j])
                e = tuple(int(j == i) for j in range(n))
                d_powers[b] = [_d_times(t, e) for t in d_powers[tuple(map(sub, b, e))]]
            yield {
                (tuple(map(add, x, a)), y, comp): c
                for comp, t in enumerate(d_powers[b])
                for (x, y), c in t.items()
            }


def homogenize_vec(B: WeylVec) -> DtVec:
    """Componentwise t^(d-d_i) h(P_i) where d = max of the usual orders.

    Every term of every component ends with t-exponent d - |beta|, so the
    result is F-homogeneous of degree d; zero components stay zero.
    """
    if B.is_zero():
        raise ZeroInputError("cannot homogenize the zero vector")
    d = B.order()
    comps = []
    for comp in B.components:
        comps.append(
            DtOp(B.ring, {(a, b, d - sum(b)): c for (a, b), c in comp.terms.items()})
        )
    return DtVec(B.ring, comps)


def dehomogenize(G):
    """Substitute t = 1 and recanonicalize; accepts DtOp or DtVec."""
    if isinstance(G, DtOp):
        return WeylOp(G.ring, (((a, b), c) for (a, b, _), c in G.terms.items()))
    if isinstance(G, DtVec):
        return WeylVec(G.ring, tuple(dehomogenize(c) for c in G.components))
    raise TypeError(f"cannot dehomogenize {type(G).__name__}")


def t_power_times(G: DtVec, l: int) -> DtVec:
    """Multiply by the central monomial t^l."""
    if l == 0:
        return G
    comps = [
        DtOp(G.ring, {(a, b, t + l): c for (a, b, t), c in comp.terms.items()})
        for comp in G.components
    ]
    return DtVec(G.ring, comps)


def require_f_homogeneous(G) -> int:
    """Return the F-degree of G, raising if G is not F-homogeneous."""
    d = G.f_degree()
    if d is None:
        raise HomogeneityError("element is not F-homogeneous")
    return d
