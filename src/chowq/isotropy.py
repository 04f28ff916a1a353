"""Projection and inclusion maps between an isotropic quadric and its inner core.

For a quadric of dimension D with Witt index a, the inner (anisotropic
core) geometry has dimension D - 2a.  Single-factor projection shifts
indices down by a (negatives vanish); inclusion shifts them up.  The
multi-index maps are indexed by signatures (i_1, ..., i_r) with each
i_j in [0, a] or [D-a+1, D]: positions with i_j = a are projected
factorwise, positions with i_j < a require the factor l_(i_j), and
positions with i_j > a require h^(D-i_j); mismatches send a term to 0.
The direct sum of all projections is an isomorphism: each term has exactly
one signature with a non-zero image.  _router is the home of that routing,
for pr_all (and pr_multi) on terms and for coordinate_routes on coordinates.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .basis import (
    ArityError,
    Cycle,
    GeometryError,
    QuadricGeometry,
    Term,
    h,
)


@dataclass(frozen=True)
class IsotropySignature:
    """Witt index a plus per-position indices selecting a motivic summand."""

    a: int
    D: int
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        ints = all(type(v) is int for v in (self.a, self.D, *self.indices))  # no bool, no float
        if not (ints and self.a >= 1):
            raise ValueError(f"need an int Witt index a >= 1, int D and int indices; got {self}")
        if self.D < 2 * self.a:
            raise GeometryError(f"D={self.D} is too small for Witt index {self.a}")
        for i in self.indices:
            if not (0 <= i <= self.a or self.D - self.a + 1 <= i <= self.D):
                raise ValueError(
                    f"signature index {i} outside [0,{self.a}] u "
                    f"[{self.D - self.a + 1},{self.D}]"
                )

    @property
    def arity(self) -> int:
        return len(self.indices)

    @property
    def s(self) -> int:
        """Arity of the inner image: number of positions carrying the core."""
        return sum(1 for i in self.indices if i == self.a)

    @property
    def inner_geometry(self) -> QuadricGeometry:
        return QuadricGeometry(self.D - 2 * self.a)


def all_signatures(geometry: QuadricGeometry, a: int, r: int) -> list[IsotropySignature]:
    """Every signature of arity r, in lexicographic index order."""
    choices = list(range(a + 1)) + list(range(geometry.D - a + 1, geometry.D + 1))
    return [
        IsotropySignature(a, geometry.D, idx)
        for idx in itertools.product(choices, repeat=r)
    ]


def pr_single(alpha: Cycle, a: int) -> Cycle:
    """Index shift down by a on an arity-1 cycle; negatives vanish."""
    return pr_multi(alpha, IsotropySignature(a, alpha.geometry.D, (a,)))


def in_single(alpha: Cycle, a: int) -> Cycle:
    """Index shift up by a, from the inner geometry back to the big one."""
    return in_multi(alpha, IsotropySignature(a, alpha.geometry.D + 2 * a, (a,)))


def _router(D: int, a: int):
    """The inner geometry, and the map from a term to its signature key and its image
    there.  A factor of index >= a is projected: index a, shifted down by a.  Below a,
    l_i takes index i and h^k takes index D - k.  So each term has one key."""
    inner = IsotropySignature(a, D, ()).inner_geometry
    down = [None] * (2 * a) + inner.tables.factors  # code -> index shifted down by a
    index = [a if f >= 2 * a else f >> 1 if f & 1 else D - (f >> 1) for f in range(len(down))]

    def route(term: Term) -> tuple[tuple[int, ...], Term]:
        return tuple(map(index.__getitem__, term)), tuple(down[f] for f in term if f >= 2 * a)

    return inner, route


def pr_all(alpha: Cycle, a: int) -> dict[tuple[int, ...], Cycle]:
    """Every non-zero projection of alpha, keyed by signature indices, in one pass."""
    inner, route = _router(alpha.geometry.D, a)
    parts: dict[tuple[int, ...], set[Term]] = {}
    for key, image in map(route, alpha.terms):
        parts.setdefault(key, set()).add(image)
    return {key: Cycle(inner, key.count(a), frozenset(images)) for key, images in parts.items()}


@functools.lru_cache(maxsize=1024)
def coordinate_routes(D: int, a: int, r: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Per arity-r coordinate k of dimension D, built on the first call: the signature
    key of term k and the coordinate of its image in the inner geometry's maps[s]."""
    inner, route = _router(D, a)
    pairs, maps = map(route, QuadricGeometry(D).tables.maps[r].terms), inner.tables.maps
    return tuple((key, maps[len(image)].index[image]) for key, image in pairs)


def pr_multi(alpha: Cycle, sig: IsotropySignature) -> Cycle:
    """Projection onto the motivic summand named by the signature."""
    if alpha.geometry.D != sig.D:
        raise GeometryError("signature built for a different geometry")
    if alpha.arity != sig.arity:
        raise ArityError(f"signature arity {sig.arity} != cycle arity {alpha.arity}")
    return pr_all(alpha, sig.a).get(sig.indices, Cycle(sig.inner_geometry, sig.s))


def in_multi(beta: Cycle, sig: IsotropySignature) -> Cycle:
    """Inclusion from the motivic summand named by the signature."""
    if beta.geometry.D != sig.D - 2 * sig.a:
        raise GeometryError("cycle does not live over the signature's inner geometry")
    if beta.arity != sig.s:
        raise ArityError(f"signature expects inner arity {sig.s}, got {beta.arity}")
    outer = QuadricGeometry(sig.D)
    up, H, L = outer.tables.factors[2 * sig.a :], outer.tables.h, outer.tables.l
    # per position: None where the core is projected, else the factor the signature fixes
    slots = [None if i == sig.a else L[i] if i < sig.a else H[sig.D - i] for i in sig.indices]
    acc: set[Term] = set()
    for term in beta.terms:
        inner = iter(term)
        acc.add(tuple(up[next(inner)] if f is None else f for f in slots))
    return Cycle(outer, sig.arity, frozenset(acc))


def generic_point_pullback(alpha: Cycle) -> Cycle:
    """Keep terms led by h^0 and strip that factor; kill everything else."""
    if alpha.arity < 2:
        raise ArityError("generic point pull-back needs arity of at least 2")
    h0 = h(0)
    acc = frozenset(t[1:] for t in alpha.terms if t[0] == h0)
    return Cycle(alpha.geometry, alpha.arity - 1, acc)


def descend(alpha: Cycle, a: int) -> Cycle:
    """Inductive restriction: generic point pull-back, then the all-a projection."""
    stripped = generic_point_pullback(alpha)
    sig = IsotropySignature(a, alpha.geometry.D, (a,) * stripped.arity)
    return pr_multi(stripped, sig)


__all__ = [
    "IsotropySignature",
    "all_signatures",
    "descend",
    "generic_point_pullback",
    "in_multi",
    "in_single",
    "pr_all",
    "pr_multi",
    "pr_single",
]
