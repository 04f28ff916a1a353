"""Total and graded Steenrod operations mod 2, read from the tables of the geometry.

The rules on factors are in FactorTables.  The total operation of a term is the product
of the total images of its factors; S^k of f_1 x ... x f_r sums S^(k_1)(f_1) x ... x
S^(k_r)(f_r), one term or zero, over the compositions k = k_1 + ... + k_r.  Binomial
parity is computed bitwise (Lucas): C(n, k) is odd iff k AND NOT n == 0.
"""

from __future__ import annotations

from itertools import chain, product

from .basis import BasisFactor, Cycle, QuadricGeometry, Term, binom_mod2, cycle


def steenrod_factor(geometry: QuadricGeometry, f: BasisFactor) -> list[BasisFactor]:
    """All factors appearing in the total Steenrod image of a single factor."""
    return list(geometry.tables.steenrod[f])


def steenrod_total(alpha: Cycle) -> Cycle:
    """Total Steenrod operation, a ring homomorphism commuting with external products."""
    images = alpha.geometry.tables.steenrod
    terms = chain.from_iterable(product(*[images[f] for f in term]) for term in alpha.terms)
    return cycle(alpha.geometry, alpha.arity, terms)


def _compositions(alpha: Cycle, k: int) -> list[tuple[Term, int]]:
    """Each nonzero S^(k_1)(f_1) x ... x S^(k_r)(f_r) of a term, sum k_i <= k, and k - sum k_i."""
    if not alpha.is_homogeneous:
        raise ValueError("graded Steenrod operation needs a homogeneous input")
    rows = alpha.geometry.tables.squares
    out = []
    for term in alpha.terms:
        walk = [((), k)] if k >= 0 else []  # (prefix, order left); a slot spends j of it
        for f in term:
            walk = [
                (prefix + (g,), left - j)
                for prefix, left in walk
                for j, g in enumerate(rows[f][: left + 1])
                if g is not None
            ]
        out += walk
    return out


def steenrod_k(alpha: Cycle, k: int) -> Cycle:
    """Codimension +k homogeneous piece of the total operation (input homogeneous)."""
    terms = [prefix for prefix, left in _compositions(alpha, k) if not left]
    return cycle(alpha.geometry, alpha.arity, terms)


def steenrod_upto(alpha: Cycle, k_max: int) -> Cycle:
    """Sum of the graded operations of orders 0..k_max (input homogeneous)."""
    terms = [prefix for prefix, _ in _compositions(alpha, k_max)]
    return cycle(alpha.geometry, alpha.arity, terms)


__all__ = ["binom_mod2", "steenrod_factor", "steenrod_k", "steenrod_total", "steenrod_upto"]
