"""Total and graded Steenrod operations mod 2, read from the tables of the geometry.

The rules on factors are in FactorTables.  The total operation of a term is the product
of the total images of its factors; S^k of f_1 x ... x f_r sums S^(k_1)(f_1) x ... x
S^(k_r)(f_r), one term or zero, over the compositions k = k_1 + ... + k_r.  By Lucas,
C(n, k) is odd iff k AND NOT n == 0, so the row of squares of a factor, built when first
read, is filled by walking the submasks k of n; binom_mod2 is the same test on one pair.
"""

from __future__ import annotations

from itertools import chain, product

from .basis import BasisFactor, Cycle, QuadricGeometry, Term, binom_mod2, cycle


def steenrod_factor(geometry: QuadricGeometry, f: BasisFactor) -> list[BasisFactor]:
    """All factors appearing in the total Steenrod image of a single factor."""
    geometry.check_factor(f)
    return list(geometry.tables.steenrod[f])


def steenrod_total(alpha: Cycle) -> Cycle:
    """Total Steenrod operation, a ring homomorphism commuting with external products."""
    images = alpha.geometry.tables.steenrod
    terms = chain.from_iterable(product(*[images[f] for f in term]) for term in alpha.terms)
    return cycle(alpha.geometry, alpha.arity, terms)


def _compositions(alpha: Cycle, k: int, exact: bool) -> list[Term]:
    """Each nonzero S^(k_1)(f_1) x ... x S^(k_r)(f_r) of a term, sum k_i = k if exact, else <= k."""
    if not alpha.is_homogeneous:
        raise ValueError("graded Steenrod operation needs a homogeneous input")
    rows = alpha.geometry.tables.squares
    out = []
    for term in alpha.terms:
        walk = [((), k)] if k >= 0 else []  # (prefix, order left); a slot spends j of it
        for i, f in enumerate(term):
            row, last = rows[f], exact and i == len(term) - 1  # an exact last slot spends all
            walk = [
                (prefix + (row[j],), left - j)
                for prefix, left in walk
                for j in range(left if last else 0, min(left + 1, len(row)))
                if row[j] is not None
            ]
        out += [prefix for prefix, left in walk if not (exact and left)]
    return out


def steenrod_k(alpha: Cycle, k: int) -> Cycle:
    """Codimension +k homogeneous piece of the total operation (input homogeneous)."""
    return cycle(alpha.geometry, alpha.arity, _compositions(alpha, k, exact=True))


def steenrod_upto(alpha: Cycle, k_max: int) -> Cycle:
    """Sum of the graded operations of orders 0..k_max (input homogeneous)."""
    return cycle(alpha.geometry, alpha.arity, _compositions(alpha, k_max, exact=False))


__all__ = ["binom_mod2", "steenrod_factor", "steenrod_k", "steenrod_total", "steenrod_upto"]
