"""Multiweights and V-multifiltration membership.

The multiweight of a term x^alpha d^beta in component i is
(beta - alpha)[:k] + n^(i), with n^(i) the i-th shift column.  A vector
lies in the cone-refined V^Gamma_s iff L(delta) <= L(s) for every ray
form L of the cone (each term may take sigma = delta in the defining sum,
so the ray characterization is equivalent; the brute-force regression
lives in the tests).  V_s, where every multiweight is <= s componentwise,
is the case of the orthant cone.  A scalar operator filters as a vector
of rank one with a zero shift."""

from __future__ import annotations

from .toric import BasicCone, cone_drops, normalize_rays


def multi_weight(key, comp: int, shifts, k: int):
    """Shifted weight vector (beta - alpha)[:k] + n^(comp) in Z^k."""
    a, b = key[0], key[1]
    n = shifts[comp]
    return tuple(b[i] - a[i] + n[i] for i in range(k))


def _iter_weighted_terms(B, k):
    """The multiweights of B's terms, with B's own shifts."""
    shifts = B.shifts
    for key, i, _ in B.iter_terms():
        yield multi_weight(key, i, shifts, k)


def in_V_gamma(B, s, gamma) -> bool:
    """Membership in the cone-refined filtration V^Gamma_s; ``gamma`` is a
    BasicCone or a list of ray forms."""
    rows = gamma.rows if isinstance(gamma, BasicCone) else normalize_rays(gamma)
    return all(
        min(cone_drops(rows, s, delta)) >= 0
        for delta in _iter_weighted_terms(B, len(s))
    )

