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
    """Each nonzero S^(k_1)(f_1) x ... x S^(k_r)(f_r) of each term, repeats kept, with
    sum k_i = k if exact, else <= k: the one walk behind steenrod_k, steenrod_upto and
    the certifier's table, which takes the list without building a Cycle."""
    if not alpha.is_homogeneous:
        raise ValueError("graded Steenrod operation needs a homogeneous input")
    rows, r = alpha.geometry.tables.squares, alpha.arity
    walk = [(t, (), k) for t in alpha.terms] if k >= 0 else []  # (term, prefix, order left)
    for i in range(r - 1 if exact and r else r):  # slot i spends j of the order
        walk = [
            (t, prefix + (g,), left - j)
            for t, prefix, left in walk
            for j, g in enumerate(rows[t[i]][: left + 1])
            if g is not None
        ]
    if exact and r:  # the last slot spends all that is left: one lookup
        return [p + (g,) for t, p, left in walk for g in rows[t[-1]][left : left + 1] if g is not None]
    return [prefix for t, prefix, left in walk if not (exact and left)]


def steenrod_k(alpha: Cycle, k: int) -> Cycle:
    """Codimension +k homogeneous piece of the total operation (input homogeneous)."""
    return cycle(alpha.geometry, alpha.arity, _compositions(alpha, k, exact=True))


def steenrod_upto(alpha: Cycle, k_max: int) -> Cycle:
    """Sum of the graded operations of orders 0..k_max (input homogeneous)."""
    return cycle(alpha.geometry, alpha.arity, _compositions(alpha, k_max, exact=False))


__all__ = ["binom_mod2", "steenrod_factor", "steenrod_k", "steenrod_total", "steenrod_upto"]
