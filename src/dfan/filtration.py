"""V-multifiltration membership.

A vector lies in the cone-refined V^Gamma_s iff L(delta) <= L(s) for
every ray form L of the cone and the multiweight delta of each of its
terms, which its one per-term reader ``weights`` yields (``multi_weight``
in ``weyl``: (beta - alpha)[:k] + n^(i), with n^(i) the i-th shift
column; a scalar operator weighs as a vector of rank one with a zero
shift).  Each term may take sigma = delta in the defining sum, so the ray
characterization is equivalent; the brute-force regression lives in the
tests.  V_s, where every multiweight is <= s componentwise, is the case
of the orthant cone."""

from __future__ import annotations

from .toric import BasicCone, cone_drops, normalize_rays


def in_V_gamma(B, s, gamma) -> bool:
    """Membership in the cone-refined filtration V^Gamma_s; ``gamma`` is a
    BasicCone or a list of ray forms."""
    rows = gamma.rows if isinstance(gamma, BasicCone) else normalize_rays(gamma)
    return all(
        min(cone_drops(rows, s, delta)) >= 0 for _, delta in B.weights(len(s))
    )
