"""Correspondence calculus: composition, diagonal class, pull/push maps, derivatives.

Composition pairs the LAST factor of the left cycle against the FIRST
factor of the right cycle: a basis term b1 x ... x br composed with
b'1 x ... x b'r' gives b1 x ... x b(r-1) x b'2 x ... x b'r' when
br * b'1 = l_0, and zero otherwise.  Other pairings are obtained by
conjugating with permutations.
"""

from __future__ import annotations

from .basis import (
    ArityError,
    Cycle,
    GeometryError,
    QuadricGeometry,
    Term,
    cycle,
    h,
    l,
)
from .ring import _NONZERO, h_power_term, mul


def compose(alpha: Cycle, alpha2: Cycle) -> Cycle:
    """Compose alpha (a correspondence into the last factor) with alpha2 (out of the first)."""
    if alpha.geometry != alpha2.geometry:
        raise GeometryError("cycles live over different geometries")
    if alpha.arity < 1 or alpha2.arity < 1:
        raise ArityError("composition needs arities of at least 1 on both sides")
    if alpha.arity == 1 and alpha2.arity == 1:
        raise ArityError("composition of two arity-1 cycles is not supported")
    geometry = alpha.geometry
    partners = geometry.tables.quotients[l(0)]  # the g with f * g = l_0
    by_first: dict[int, list[Term]] = {}
    for t in alpha2.terms:
        by_first.setdefault(t[0], []).append(t[1:])
    terms = [s[:-1] + t for s in alpha.terms for g in partners[s[-1]] for t in by_first.get(g, ())]
    return cycle(geometry, alpha.arity + alpha2.arity - 2, terms)


def diagonal_class(geometry: QuadricGeometry) -> Cycle:
    """The class of the diagonal in the square, reduced mod 2."""
    tables = geometry.tables
    terms = [(tables.h[i], tables.l[i]) for i in range(geometry.d + 1)]
    terms += [(b, a) for a, b in terms]
    if tables.middle_square:
        terms.append((tables.h[-1], tables.h[-1]))
    return Cycle(geometry, 2, frozenset(terms))


def pullback_projection(alpha: Cycle) -> Cycle:
    """Pull back along the projection forgetting the first factor: prepend h^0."""
    acc = frozenset((h(0),) + t for t in alpha.terms)
    return Cycle(alpha.geometry, alpha.arity + 1, acc)


def pushforward_projection(alpha: Cycle) -> Cycle:
    """Push forward along the first projection: l_0 x rest -> rest, else 0."""
    if alpha.arity < 2:
        raise ArityError("projection push-forward needs arity of at least 2")
    l0 = l(0)
    acc = frozenset(t[1:] for t in alpha.terms if t[0] == l0)
    return Cycle(alpha.geometry, alpha.arity - 1, acc)


def pullback_diagonal(alpha: Cycle) -> Cycle:
    """Pull back along the diagonal of the first two factors: multiply them."""
    if alpha.arity < 2:
        raise ArityError("diagonal pull-back needs arity of at least 2")
    prod = alpha.geometry.tables.prod
    terms = [(p,) + t[2:] for t in alpha.terms if (p := prod[t[0]][t[1]]) is not None]
    return cycle(alpha.geometry, alpha.arity - 1, terms)


def pushforward_diagonal(alpha: Cycle) -> Cycle:
    """Push forward along the diagonal: duplicate the first factor against the diagonal class."""
    if alpha.arity < 1:
        raise ArityError("diagonal push-forward needs arity of at least 1")
    geometry = alpha.geometry
    delta = diagonal_class(geometry).terms
    prod = geometry.tables.prod
    # (t[0] x h^0) * delta, extended by the rest of t
    terms = [
        (p, b) + t[1:] for t in alpha.terms for a, b in delta if (p := prod[t[0]][a]) is not None
    ]
    return cycle(geometry, alpha.arity + 1, terms)


def derivative(alpha: Cycle, i: int, j: int) -> Cycle:
    """Product with h^i x h^j; valid for orders up to dim(alpha) - D."""
    if alpha.arity != 2:
        raise ArityError("derivatives are defined for arity-2 cycles")
    if alpha.is_zero:
        return alpha
    if not alpha.is_homogeneous:
        raise ValueError("derivatives need a homogeneous cycle")
    order_cap = alpha.dimension - alpha.geometry.D
    if order_cap < 0:
        raise ValueError("derivatives need dimension at least D")
    if i < 0 or j < 0 or i + j > order_cap:
        raise ValueError(f"derivative order {i}+{j} exceeds {order_cap}")
    factor = Cycle(alpha.geometry, 2, frozenset({h_power_term(alpha.geometry, i, j)}))
    return mul(alpha, factor)


def delta_pullback_q(alpha: Cycle) -> Cycle:
    """Pull back along x1 x x2 -> x1 x x2 x x1 x x2: terms map to (b1 b3) x (b2 b4)."""
    if alpha.arity != 4:
        raise ArityError("this pull-back is defined for arity-4 cycles")
    prod = alpha.geometry.tables.prod
    pairs = [(prod[t[0]][t[2]], prod[t[1]][t[3]]) for t in alpha.terms]
    return cycle(alpha.geometry, 2, filter(_NONZERO, pairs))


__all__ = [
    "compose",
    "delta_pullback_q",
    "derivative",
    "diagonal_class",
    "pullback_diagonal",
    "pullback_projection",
    "pushforward_diagonal",
    "pushforward_projection",
]
