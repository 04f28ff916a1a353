"""Total and graded Steenrod operations mod 2.

On factors the total operation is read from the Steenrod table of the
geometry (see FactorTables for the rules); it extends to tuples
multiplicatively and to sums linearly.  Binomial parity is computed
bitwise (Lucas): C(n, k) is odd iff k AND NOT n == 0.
"""

from __future__ import annotations

from itertools import chain, product

from .basis import BasisFactor, Cycle, QuadricGeometry, binom_mod2, cycle
from .ring import homogeneous_component


def steenrod_factor(geometry: QuadricGeometry, f: BasisFactor) -> list[BasisFactor]:
    """All factors appearing in the total Steenrod image of a single factor."""
    return list(geometry.tables.steenrod[f])


def steenrod_total(alpha: Cycle) -> Cycle:
    """Total Steenrod operation, a ring homomorphism commuting with external products."""
    images = alpha.geometry.tables.steenrod
    terms = chain.from_iterable(product(*[images[f] for f in term]) for term in alpha.terms)
    return cycle(alpha.geometry, alpha.arity, terms)


def steenrod_k(alpha: Cycle, k: int) -> Cycle:
    """Codimension +k homogeneous piece of the total operation (input homogeneous)."""
    if alpha.is_zero:
        return alpha
    if not alpha.is_homogeneous:
        raise ValueError("graded Steenrod operation needs a homogeneous input")
    return homogeneous_component(steenrod_total(alpha), alpha.dimension - k)


def steenrod_upto(alpha: Cycle, k_max: int) -> Cycle:
    """Sum of the graded operations of orders 0..k_max."""
    if alpha.is_zero:
        return alpha
    low = alpha.dimension - k_max
    dim_of = alpha.geometry.tables.dims.__getitem__
    terms = steenrod_total(alpha).terms
    kept = frozenset(t for t in terms if sum(map(dim_of, t)) >= low)
    return Cycle(alpha.geometry, alpha.arity, kept)


__all__ = ["binom_mod2", "steenrod_factor", "steenrod_k", "steenrod_total", "steenrod_upto"]
