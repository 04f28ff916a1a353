"""Graded ring structure on cycles: products, permutations, homogeneous parts.

Factor products come from the product table of the geometry (see
FactorTables for the rules); higher arities multiply factorwise.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import itemgetter
from typing import Iterable, Sequence

from .basis import (
    ArityError,
    BasisFactor,
    Cycle,
    FactorTables,
    GeometryError,
    QuadricGeometry,
    Term,
    _reordered,
    cycle,
    h,
    term_is_essential,
)


_NONZERO = frozenset({None}).isdisjoint


def _term_products(
    tables: FactorTables, small: Iterable[Term], columns: list[tuple]
) -> list[Term]:
    """The non-zero factorwise products of each term of small with each term of the
    other side, which is given by its factor columns list(zip(*terms))."""
    prod = tables.prod
    products: list[Term] = []
    for s in small:
        # factor i of s times column i, in C; a None factor zeroes the product
        products += filter(_NONZERO, zip(*map(map, [prod[f].__getitem__ for f in s], columns)))
    return products


def mul_factor_raw(
    geometry: QuadricGeometry, a: BasisFactor, b: BasisFactor
) -> BasisFactor | None:
    """Product of two arity-1 basis factors; None encodes zero."""
    geometry.check_factor(a)
    geometry.check_factor(b)
    return geometry.tables.prod[a][b]


def mul_factor(geometry: QuadricGeometry, a: BasisFactor, b: BasisFactor) -> Cycle:
    """Arity-1 cycle form of the factor product."""
    r = mul_factor_raw(geometry, a, b)
    terms = [(r,)] if r is not None else []
    return cycle(geometry, 1, terms)


def _check_same(alpha: Cycle, beta: Cycle) -> None:
    if alpha.geometry != beta.geometry:
        raise GeometryError("cycles live over different geometries")
    if alpha.arity != beta.arity:
        raise ArityError(f"arity mismatch: {alpha.arity} vs {beta.arity}")


def mul(alpha: Cycle, beta: Cycle) -> Cycle:
    """Bilinear factorwise product of two cycles of equal geometry and arity."""
    _check_same(alpha, beta)
    if alpha.arity == 0:  # scalars; zip over no columns below would drop () * ()
        return Cycle(alpha.geometry, 0, alpha.terms & beta.terms)
    small, big = alpha.terms, beta.terms
    if len(small) > len(big):
        small, big = big, small
    products = _term_products(alpha.geometry.tables, small, list(zip(*big)))
    return cycle(alpha.geometry, alpha.arity, products)


def external_product(alpha: Cycle, beta: Cycle) -> Cycle:
    """Concatenation of factor tuples, bilinear over terms."""
    if alpha.geometry != beta.geometry:
        raise GeometryError("cycles live over different geometries")
    terms = [s + t for s in alpha.terms for t in beta.terms]
    return cycle(alpha.geometry, alpha.arity + beta.arity, terms)


def permute(alpha: Cycle, sigma: Sequence[int]) -> Cycle:
    """Reorder factors: position j of the result holds factor sigma[j] of the input.

    sigma is given 0-based as an ordering of range(arity); permute(permute(a, s), t)
    equals permute(a, composition of s after t).
    """
    if sorted(sigma) != list(range(alpha.arity)):
        raise ValueError(f"{sigma!r} is not a permutation of 0..{alpha.arity - 1}")
    if alpha.arity < 2:  # the identity; itemgetter of one index gives no tuple
        return alpha
    return _reordered(alpha, map(itemgetter(*sigma), alpha.terms))


def transpose(alpha: Cycle, i: int = 0, j: int = 1) -> Cycle:
    """Swap factor positions i and j (0-based)."""
    sigma = list(range(alpha.arity))
    sigma[i], sigma[j] = sigma[j], sigma[i]
    return permute(alpha, sigma)


def sym(alpha: Cycle) -> Cycle:
    """GF(2) sum of all permutations of the factors."""
    sigmas = itertools.permutations(range(alpha.arity))
    counts = Counter([tuple(t[j] for j in sigma) for sigma in sigmas for t in alpha.terms])
    return _reordered(alpha, [t for t, n in counts.items() if n & 1])


def homogeneous_component(alpha: Cycle, dim: int) -> Cycle:
    """Sub-sum of terms of the given total dimension."""
    dim_of = alpha.geometry.tables.dims.__getitem__
    acc = frozenset(t for t in alpha.terms if sum(map(dim_of, t)) == dim)
    return Cycle(alpha.geometry, alpha.arity, acc)


def homogeneous_components(alpha: Cycle) -> dict[int, Cycle]:
    """All non-zero homogeneous components keyed by dimension."""
    dim_of = alpha.geometry.tables.dims.__getitem__
    by_dim: dict[int, set[Term]] = {}
    for t in alpha.terms:
        by_dim.setdefault(sum(map(dim_of, t)), set()).add(t)
    return {
        dim: Cycle(alpha.geometry, alpha.arity, frozenset(ts))
        for dim, ts in sorted(by_dim.items())
    }


def essential_part(alpha: Cycle) -> Cycle:
    """Sub-sum of terms containing at least one l-factor."""
    acc = frozenset(t for t in alpha.terms if term_is_essential(t))
    return Cycle(alpha.geometry, alpha.arity, acc)


def intersection(alpha: Cycle, beta: Cycle) -> Cycle:
    """Term-set intersection of two cycles."""
    _check_same(alpha, beta)
    return Cycle(alpha.geometry, alpha.arity, alpha.terms & beta.terms)


def h_power_term(geometry: QuadricGeometry, *exponents: int) -> Term:
    """The non-essential term h^e1 x ... x h^er."""
    return tuple(map(h, exponents))


def unit(geometry: QuadricGeometry, arity: int) -> Cycle:
    """The multiplicative identity h^0 x ... x h^0."""
    return Cycle(geometry, arity, frozenset({h_power_term(geometry, *([0] * arity))}))


__all__ = [
    "essential_part",
    "external_product",
    "h_power_term",
    "homogeneous_component",
    "homogeneous_components",
    "intersection",
    "mul",
    "mul_factor",
    "mul_factor_raw",
    "permute",
    "sym",
    "transpose",
    "unit",
]
