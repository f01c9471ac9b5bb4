"""Multiweights, V-multifiltration membership and V-Newton diagrams.

The multiweight of a term x^alpha d^beta in component i is
(beta - alpha)[:k] + n^(i), with n^(i) the i-th shift column.  A vector
lies in V_s iff every multiweight is <= s componentwise; it lies in the
cone-refined V^Gamma_s iff L(delta) <= L(s) for every ray form L of the
cone (each term may take sigma = delta in the defining sum, so the ray
characterization is equivalent; the brute-force regression lives in the
tests)."""

from __future__ import annotations

from .errors import ConeError
from .weights import LinearForm
from .weyl import DtOp, WeylOp


def multi_weight(key, comp: int, shifts, k: int):
    """Shifted weight vector (beta - alpha)[:k] + n^(comp) in Z^k."""
    a, b = key[0], key[1]
    n = shifts[comp]
    return tuple(b[i] - a[i] + n[i] for i in range(k))


def _iter_weighted_terms(B, shifts, k):
    if isinstance(B, (WeylOp, DtOp)):
        one_shift = ((0,) * k,)
        for key in B.terms:
            yield multi_weight(key, 0, one_shift, k)
    else:
        if shifts is None:
            shifts = B.ring.shifts
        for key, i, _ in B.iter_terms():
            yield multi_weight(key, i, shifts, k)


def in_V_s(B, s, shifts=None) -> bool:
    """Membership in V[n_]_s: every multiweight <= s componentwise."""
    k = len(s)
    for delta in _iter_weighted_terms(B, shifts, k):
        if any(d > si for d, si in zip(delta, s)):
            return False
    return True


def normalize_rays(rays):
    """Primitive integer ray forms in the nonnegative quadrant."""
    from math import gcd

    out = []
    for ray in rays:
        v = tuple(int(c) for c in ray)
        if any(c < 0 for c in v):
            raise ConeError(f"ray {v} leaves the nonnegative quadrant")
        g = 0
        for c in v:
            g = gcd(g, abs(c))
        if g == 0:
            raise ConeError("zero ray")
        out.append(tuple(c // g for c in v))
    if not out:
        raise ConeError("empty ray set")
    return tuple(out)


def _cone_rays(gamma):
    if hasattr(gamma, "rows"):  # BasicCone
        return gamma.rows
    return normalize_rays(gamma)


def in_V_gamma(B, s, gamma, shifts=None) -> bool:
    """Membership in the cone-refined filtration V^Gamma_s."""
    rays = _cone_rays(gamma)
    k = len(s)
    forms = [LinearForm(ray) for ray in rays]
    svals = [L.of(s) for L in forms]
    for delta in _iter_weighted_terms(B, shifts, k):
        for L, sv in zip(forms, svals):
            if L.of(delta) > sv:
                return False
    return True


def newton_diagram(B, shifts=None, k: int | None = None) -> frozenset:
    """The V-Newton diagram: the set of shifted weight vectors of the
    support.  t-exponents are ignored."""
    if k is None:
        k = B.ring.k
    return frozenset(_iter_weighted_terms(B, shifts, k))
