"""Multiweights, V-multifiltration membership and V-Newton diagrams.

The multiweight of a term x^alpha d^beta in component i is
(beta - alpha)[:k] + n^(i), with n^(i) the i-th shift column.  A vector
lies in the cone-refined V^Gamma_s iff L(delta) <= L(s) for every ray
form L of the cone (each term may take sigma = delta in the defining sum,
so the ray characterization is equivalent; the brute-force regression
lives in the tests).  V_s, where every multiweight is <= s componentwise,
is the case of the orthant cone."""

from __future__ import annotations

from .toric import BasicCone, normalize_rays, orthant_cone
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


def cone_drops(rows, s, delta):
    """L(s) - L(delta) for each row form L.  A term of multiweight delta
    lies in V^Gamma_s when no drop is negative, and on its top stratum
    when every drop is zero."""
    return tuple(sum(r * (x - d) for r, x, d in zip(row, s, delta)) for row in rows)


def in_V_gamma(B, s, gamma, shifts=None) -> bool:
    """Membership in the cone-refined filtration V^Gamma_s; ``gamma`` is a
    BasicCone or a list of ray forms."""
    rows = gamma.rows if isinstance(gamma, BasicCone) else normalize_rays(gamma)
    return all(
        min(cone_drops(rows, s, delta)) >= 0
        for delta in _iter_weighted_terms(B, shifts, len(s))
    )


def in_V_s(B, s, shifts=None) -> bool:
    """Membership in V[n_]_s: V^Gamma_s for the orthant cone."""
    return in_V_gamma(B, s, orthant_cone(len(s)), shifts)


def newton_diagram(B, shifts=None, k: int | None = None) -> frozenset:
    """The V-Newton diagram: the set of shifted weight vectors of the
    support.  t-exponents are ignored."""
    if k is None:
        k = B.ring.k
    return frozenset(_iter_weighted_terms(B, shifts, k))
