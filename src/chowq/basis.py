"""Basis elements and cycles for the mod-2 Chow groups of powers of a split quadric.

A split quadric of dimension D (with d = floor(D/2)) has the Chow basis
h^0..h^d (plane sections, codimension i) and l_0..l_d (linear subspaces,
dimension i).  For even D the two rulings in the middle dimension are
represented by the single symbol l_d; the conjugate class is h^d + l_d.
A cycle of arity r is a GF(2) sum of r-fold external products of these
factors, stored as a set of factor tuples (adding a term twice cancels it).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, product
from operator import ge, gt, itemgetter, le, lt
from typing import Iterable


class GeometryError(ValueError):
    """Raised for invalid geometry parameters or geometry mismatches."""


class ArityError(ValueError):
    """Raised when cycle arities do not match an operation's requirements."""


class CycleSyntaxError(ValueError):
    """Raised when cycle text does not conform to the grammar."""


def _factor_order(op):
    """A comparison of basis factors by (kind, index), "h" < "l"; ints compare as ints."""

    def compare(self, other):
        if type(other) is not BasisFactor:
            return NotImplemented
        return op((self & 1, self >> 1), (other & 1, other >> 1))

    return compare


class BasisFactor(int):
    """A single factor h^i or l_i; kind is "h" or "l", index is in [0, d].

    The int value is the code 2 * index + (kind == "l").  It does not depend
    on the geometry: the factors of one geometry have the codes 0..2d+1, which
    index its FactorTables.  There is one instance per code, so equality and
    hashing stay int's; ordering is that of (kind, index), every h before every l.
    """

    __slots__ = ()

    def __new__(cls, kind: str, index: int) -> "BasisFactor":
        if kind not in ("h", "l"):
            raise ValueError(f"unknown factor kind {kind!r}")
        if not isinstance(index, int) or isinstance(index, bool) or index < 0:
            raise GeometryError(f"factor index {index!r} is not a non-negative integer")
        code = 2 * index + (kind == "l")
        f = _INTERNED.get(code)
        if f is None:
            f = _INTERNED[code] = int.__new__(cls, code)
        return f

    @property
    def kind(self) -> str:
        return "l" if self & 1 else "h"

    @property
    def index(self) -> int:
        return self >> 1

    def __repr__(self) -> str:
        return f"BasisFactor(kind={self.kind!r}, index={self.index!r})"

    def __reduce__(self):
        return BasisFactor, (self.kind, self.index)

    __lt__, __le__, __gt__, __ge__ = map(_factor_order, (lt, le, gt, ge))


_INTERNED: dict[int, BasisFactor] = {}


def _interleave(even: list, odd: list) -> list:
    """The list with even[i] at position 2i and odd[i] at 2i + 1: h^i and l_i by code."""
    out = [None] * (2 * len(even))
    out[0::2] = even
    out[1::2] = odd
    return out


def binom_mod2(n: int, k: int) -> int:
    """C(n, k) mod 2; zero when k > n or k < 0."""
    if k < 0 or k > n:
        return 0
    return 1 if (k & ~n) == 0 else 0


class FactorTables:
    """Arithmetic of the factors of one quadric dimension D, as tables indexed by code.

    Products: h^(d+1) = 0, h * l_i = l_(i-1) with l_(-1) = 0, and l_d * l_d =
    (D+1)(d+1) * l_0 mod 2.  Every other l_i * l_j vanishes: writing l_j =
    h^(d-j) * l_d forces l_i * l_j = h^(d-i) h^(d-j) l_d^2 = 0 for (i, j) !=
    (d, d).  Graded Steenrod squares, each one factor or zero: S^k(h^i) =
    C(i, k) * h^(i+k) and S^k(l_i) = C(D-i+1, k) * l_(i-k); their sums are the
    total images S(h^i) = h^i (1+h)^i and S(l_i) = l_i (1+h)^(D-i+1).  No table
    is built whole: each is an _Images, one entry built when first read.
    prod[f][g] is the factor f * g, or None where it vanishes, in rows sliced
    from the factor lists; squares[f][k] is the factor S^k(f), or None where it
    vanishes, in rows that end at h^d and l_0, filled by the walk over the
    submasks k of n = i or D - i + 1, the k with C(n, k) odd (Lucas);
    steenrod[f] lists the factors of the total image, the squares of f;
    roots[top][f][k] is the one u with S^k(u) = f, or None, for k <= top: the
    square rows read backward, each cut at the order bound top;
    quotients[t][g] lists the f with f * g = t; maps[r] is the CoordinateMaps
    of the arity-r terms; names[f] is the text of f, "h3" or "l5".  The rows
    trust their key: the public helpers check a factor against the geometry
    before they read one.
    """

    def __init__(self, D: int) -> None:
        d = D // 2
        self.D, self.d = D, d
        self.h = [BasisFactor("h", i) for i in range(d + 1)]
        self.l = [BasisFactor("l", i) for i in range(d + 1)]
        self.factors = _interleave(self.h, self.l)
        self.valid = frozenset(self.factors)
        self.dims = _interleave(list(range(D, D - d - 1, -1)), list(range(d + 1)))
        self.order = _interleave(list(range(d + 1)), list(range(d + 1, 2 * d + 2)))
        self.middle_square = (D + 1) * (d + 1) % 2 == 1  # l_d * l_d = l_0
        self.prod = _Images(self._product_row)
        self.squares = _Images(self._square_row)
        self.steenrod = _Images(lambda f: tuple(g for g in self.squares[f] if g is not None))
        self.roots = _Images(lambda top: _Images(lambda f: self._root_row(f, top)))
        self.quotients = _Images(self._quotient_row)
        self.maps = _Images(lambda r: CoordinateMaps(self, r))
        self.names = _Images(lambda f: f"{'hl'[f & 1]}{f >> 1}")

    def _product_row(self, f: BasisFactor) -> list[BasisFactor | None]:
        d, i, H, L = self.d, f >> 1, self.h, self.l
        if not f & 1:  # h^i h^j = h^(i+j), h^i l_j = l_(j-i)
            zeros = [None] * i
            return _interleave(H[i:] + zeros, zeros + L[: d + 1 - i])
        odd = [None] * (d + 1)  # l_i l_j = 0 but for l_d l_d = l_0
        if i == d and self.middle_square:
            odd[d] = L[0]
        return _interleave(L[i::-1] + [None] * (d - i), odd)

    def shift(self, f: BasisFactor, k: int) -> BasisFactor | None:
        """h^k * f off the code, as in _product_row: h^(i+k) is f + 2k, l_(i-k) f - 2k; or None."""
        code = f - 2 * k if f & 1 else f + 2 * k
        return self.factors[code] if 0 <= code < len(self.factors) else None

    def _quotient_row(self, t: BasisFactor) -> list[tuple[BasisFactor, ...]]:
        """Row g lists the factors f with f * g = t, h's before l's.  h^i h^j = h^(i+j)
        and h^i l_j = l_(j-i), so each g has at most one quotient besides l_d for
        l_d * l_d = l_0."""
        d, k, H, L, none = self.d, t >> 1, self.h, self.l, [()]
        if t & 1:  # g = h^j over l_(k+j); g = l_j over h^(j-k)
            even = [(f,) for f in L[k:]] + none * k
            odd = none * k + [(f,) for f in H[: d + 1 - k]]
            if k == 0 and self.middle_square:
                odd[d] += (L[d],)
        else:  # g = h^j over h^(k-j)
            even, odd = [(f,) for f in H[k::-1]] + none * (d - k), none * (d + 1)
        return _interleave(even, odd)

    def _square_row(self, f: BasisFactor) -> list[BasisFactor | None]:
        i = f >> 1
        n, image = (self.D - i + 1, self.l[i::-1]) if f & 1 else (i, self.h[i:])
        row = [None] * len(image)
        k = n = n & ((1 << len(row).bit_length()) - 1)  # a k < len(row) has no higher bit
        while True:
            if k < len(row):
                row[k] = image[k]
            if not k:
                return row
            k = (k - 1) & n

    def _root_row(self, f: BasisFactor, top: int) -> list[BasisFactor | None]:
        i, ks = f >> 1, range(top + 1)  # Lucas: C(n, k) is odd iff k & n == k
        if f & 1:  # S^k(l_(i+k)) = C(D-i-k+1, k) l_i, and S^k(h^(i-k)) = C(i-k, k) h^i
            return [self.l[i + k] if i + k <= self.d and k & (self.D - i - k + 1) == k else None
                    for k in ks]
        return [self.h[i - k] if k <= i and k & (i - k) == k else None for k in ks]


class _Images(dict):
    """Values by key (coordinate index, factor code, arity or D), each image(k) on first read."""

    def __init__(self, image) -> None:
        super().__init__()
        self.image = image

    def __missing__(self, k: int):
        got = self[k] = self.image(k)
        return got


class CoordinateMaps:
    """The arity-r terms in coordinate order, and linear maps on their coordinates.

    Bit k of a vector is terms[k]; dims[k] is its dimension, dim_masks[e] has
    the bits of dimension e and essential the bits of the terms with an l
    factor.  transpositions[i] maps a term to its image with slots i and i + 1
    swapped; entry k of steenrod (the total operation) is the vector of the
    image of term k, computed when first read, so a closure that meets few
    coordinates builds few entries; apply_table maps a vector through it.  h^0
    comes first in slot 0, so the first-projection pull-back h^0 x c keeps the
    coordinates of c, and the terms l_0 x t form one block in the order of the t.
    """

    def __init__(self, tables: FactorTables, r: int) -> None:
        self.tables = tables
        self.terms = list(product(tables.h + tables.l, repeat=r))
        self.index = {t: k for k, t in enumerate(self.terms)}
        self.dims = list(map(sum, product([tables.dims[f] for f in tables.h + tables.l], repeat=r)))
        self.dim_masks = [0] * (r * tables.D + 1)
        for k, dim in enumerate(self.dims):
            self.dim_masks[dim] |= 1 << k
        self.transpositions = [
            itemgetter(*range(i), i + 1, i, *range(i + 2, r)) for i in range(r - 1)
        ]
        self.steenrod = _Images(self._steenrod)
        width = len(self.terms) // len(tables.factors)  # the arity r - 1 coordinates
        self._l0, self._rest = (tables.d + 1) * width, (1 << width) - 1

    @cached_property
    def essential(self) -> int:
        return sum([1 << k for k, t in enumerate(self.terms) if term_is_essential(t)])

    @cached_property
    def slot_shifts(self) -> list[tuple[int, int, int]]:
        """(hmask, lmask, stride) per slot i: v times h^0 x .. x h^1 (slot i) x .. x h^0
        is (v & hmask) << stride | (v & lmask) >> stride.  Slot i is the base-(2d+2)
        digit of stride (2d+2)^(r-1-i), h^j -> h^(j+1) (j < d), l_j -> l_(j-1) (j > 0)."""
        d, n, out = self.tables.d, len(self.terms), []
        for stride in [n // (2 * d + 2) ** i for i in range(1, len(self.terms[0]) + 1)]:
            period = (2 * d + 2) * stride  # the masks of one period, repeated n / period times
            repeat = ((1 << n) - 1) // ((1 << period) - 1)
            hmask, lmask = (1 << d * stride) - 1, (1 << period) - (1 << (d + 2) * stride)
            out.append((hmask * repeat, lmask * repeat, stride))
        return out

    def _steenrod(self, k: int) -> int:
        images = self.tables.steenrod
        return sum([1 << self.index[p] for p in product(*map(images.__getitem__, self.terms[k]))])

    def pushforward(self, v: int) -> int:
        """The push-forward along the first projection (r >= 2): l_0 x t -> t, else 0."""
        return v >> self._l0 & self._rest


def apply_table(table: dict[int, int], v: int) -> int:
    """The image of v under the linear map sending coordinate k to table[k]."""
    out = 0
    while v:
        low = v & -v
        out ^= table[low.bit_length() - 1]
        v ^= low
    return out


_TABLES = _Images(FactorTables)  # by D, for the life of the process


@dataclass(frozen=True)
class QuadricGeometry:
    """Dimension data of a split quadric: D with derived d = floor(D/2)."""

    D: int

    def __post_init__(self) -> None:
        if type(self.D) is not int or self.D < 0:
            raise GeometryError(f"quadric dimension must be a non-negative integer, got {self.D!r}")

    @property
    def d(self) -> int:
        return self.D // 2

    @property
    def is_even(self) -> bool:
        return self.D % 2 == 0

    @cached_property
    def tables(self) -> FactorTables:
        """The factor tables of dimension D, shared by every geometry of that dimension."""
        return _TABLES[self.D]

    def __getstate__(self) -> dict:
        return {"D": self.D}  # the tables are looked up again on first use

    def factor_dimension(self, f: BasisFactor) -> int:
        self.check_factor(f)
        return self.tables.dims[f]

    def check_factor(self, f: BasisFactor) -> None:
        if f not in self.tables.valid:
            raise GeometryError(
                f"factor index {f.index} out of range [0, {self.d}] for D={self.D}"
            )

    def factors(self) -> list[BasisFactor]:
        """All arity-1 basis factors in canonical order (h's first, index ascending)."""
        return self.tables.h + self.tables.l


Term = tuple[BasisFactor, ...]


@dataclass(frozen=True)
class BasisElement:
    """An external product of arity >= 1 basis factors."""

    geometry: QuadricGeometry
    factors: Term

    def __post_init__(self) -> None:
        if len(self.factors) < 1:
            raise ArityError("a basis element needs at least one factor")
        for f in self.factors:
            self.geometry.check_factor(f)

    @property
    def arity(self) -> int:
        return len(self.factors)

    @property
    def dimension(self) -> int:
        return term_dimension(self.geometry, self.factors)

    @property
    def codimension(self) -> int:
        return self.arity * self.geometry.D - self.dimension

    @property
    def is_essential(self) -> bool:
        return term_is_essential(self.factors)


def term_dimension(geometry: QuadricGeometry, term: Term) -> int:
    return sum(map(geometry.tables.dims.__getitem__, term))


def term_is_essential(term: Term) -> bool:
    return any(f & 1 for f in term)


@dataclass(frozen=True)
class Cycle:
    """A GF(2) sum of basis elements of fixed arity (empty term set = zero)."""

    geometry: QuadricGeometry
    arity: int
    terms: frozenset[Term] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if type(self.arity) is not int or self.arity < 0:
            raise ArityError(f"arity must be a non-negative integer, got {self.arity!r}")
        terms = self.terms
        if not isinstance(terms, frozenset):
            raise TypeError(
                f"terms must be a frozenset, got {type(terms).__name__}; "
                "cycle() builds one from any iterable, cancelling repeats mod 2"
            )
        if not terms or (
            set(map(len, terms)) <= {self.arity}
            and self.geometry.tables.valid.issuperset(chain.from_iterable(terms))
        ):
            return
        for term in terms:
            if len(term) != self.arity:
                raise ArityError(
                    f"term of length {len(term)} in a cycle of arity {self.arity}"
                )
            for f in term:
                if not isinstance(f, BasisFactor):
                    raise TypeError(f"{f!r} is not a basis factor")
                self.geometry.check_factor(f)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @cached_property
    def _dims(self) -> frozenset[int]:
        dim = self.geometry.tables.dims.__getitem__
        return frozenset([sum(map(dim, t)) for t in self.terms])

    @property
    def is_homogeneous(self) -> bool:
        return len(self._dims) <= 1

    @property
    def dimension(self) -> int:
        """Common dimension of all terms; fails on non-homogeneous or zero cycles."""
        if len(self._dims) != 1:
            raise ValueError("dimension is defined only for homogeneous non-zero cycles")
        return next(iter(self._dims))

    @property
    def codimension(self) -> int:
        return self.arity * self.geometry.D - self.dimension

    def __add__(self, other: "Cycle") -> "Cycle":
        if self.geometry != other.geometry:
            raise GeometryError("cannot add cycles over different geometries")
        if self.arity != other.arity:
            raise ArityError("cannot add cycles of different arities")
        return Cycle(self.geometry, self.arity, self.terms ^ other.terms)

    def __contains__(self, term: Term) -> bool:
        return term in self.terms

    def sorted_terms(self) -> list[Term]:
        """Terms in factor order; the key is the same order on plain ints, compared in C."""
        order = self.geometry.tables.order.__getitem__
        return sorted(self.terms, key=lambda t: tuple(map(order, t)))


def cycle(geometry: QuadricGeometry, arity: int, terms: Iterable[Term] = ()) -> Cycle:
    """Build a cycle from an iterable of factor tuples with GF(2) cancellation."""
    terms = list(terms)
    once = frozenset(terms)
    if len(once) != len(terms):
        once = frozenset(t for t, n in Counter(terms).items() if n & 1)
    return Cycle(geometry, arity, once)


def _reordered(c: Cycle, terms: Iterable[Term]) -> Cycle:
    """The cycle of the distinct terms, each a term of the checked cycle c with its factors
    reordered, not checked again: a reordering keeps the length, the factors and the
    dimension of a term, so a non-zero result of a homogeneous c has its dimension."""
    out = object.__new__(Cycle)
    vars(out).update(geometry=c.geometry, arity=c.arity, terms=frozenset(terms))
    if out.terms and len(c._dims) == 1:
        vars(out)["_dims"] = c._dims
    return out


def zero(geometry: QuadricGeometry, arity: int) -> Cycle:
    return Cycle(geometry, arity, frozenset())


def single(geometry: QuadricGeometry, *factors: BasisFactor) -> Cycle:
    """The cycle consisting of exactly one basis element."""
    return Cycle(geometry, len(factors), frozenset({tuple(factors)}))


def h(i: int) -> BasisFactor:
    return BasisFactor("h", i)


def l(i: int) -> BasisFactor:
    return BasisFactor("l", i)


def enumerate_basis(
    geometry: QuadricGeometry, r: int, dim: int | None = None
) -> list[BasisElement]:
    """All arity-r basis elements in canonical order, optionally filtered to one dimension."""
    if r < 1:
        raise ArityError(f"arity must be at least 1, got {r}")
    if dim is not None and not 0 <= dim <= r * geometry.D:
        raise ValueError(f"dimension {dim} out of range [0, {r * geometry.D}]")
    return [
        BasisElement(geometry, term)
        for term in product(geometry.factors(), repeat=r)
        if dim is None or term_dimension(geometry, term) == dim
    ]


_FACTOR_RE = re.compile(r"([hl])(\d+)")


def parse_cycle(text: str, geometry: QuadricGeometry, arity: int) -> Cycle:
    """Parse "h0 x l2 + l2 x h0" style text; "0" denotes the zero cycle."""
    text = text.strip()
    if text == "0":
        return zero(geometry, arity)
    terms: set[Term] = set()
    pos = 0
    for chunk in text.split(" + "):
        factors = []
        for token in chunk.split(" x "):
            token = token.strip()
            m = _FACTOR_RE.fullmatch(token)
            if m is None:
                raise CycleSyntaxError(
                    f"bad factor {token!r} at position {pos} (expected h<i> or l<i>)"
                )
            f = BasisFactor(m.group(1), int(m.group(2)))
            geometry.check_factor(f)
            factors.append(f)
        if len(factors) != arity:
            raise ArityError(
                f"term {chunk!r} has arity {len(factors)}, expected {arity}"
            )
        terms.symmetric_difference_update((tuple(factors),))
        pos += len(chunk) + 3
    return Cycle(geometry, arity, frozenset(terms))


def render_cycle(c: Cycle) -> str:
    """Canonical text form: terms sorted (h before l, index ascending, lexicographic)."""
    if c.is_zero:
        return "0"
    name = c.geometry.tables.names.__getitem__
    return " + ".join([" x ".join(map(name, term)) for term in c.sorted_terms()])


def cycle_to_json(c: Cycle) -> dict:
    return {
        "D": c.geometry.D,
        "r": c.arity,
        "terms": [[["hl"[f & 1], f >> 1] for f in term] for term in c.sorted_terms()],
    }


def cycle_from_json(data: dict) -> Cycle:
    geometry = QuadricGeometry(data["D"])
    return cycle(
        geometry,
        data["r"],
        (tuple(BasisFactor(k, i) for k, i in term) for term in data["terms"]),
    )


__all__ = [
    "ArityError",
    "BasisElement",
    "BasisFactor",
    "Cycle",
    "CycleSyntaxError",
    "GeometryError",
    "QuadricGeometry",
    "cycle",
    "cycle_from_json",
    "cycle_to_json",
    "enumerate_basis",
    "h",
    "l",
    "parse_cycle",
    "render_cycle",
    "single",
    "term_dimension",
    "term_is_essential",
    "zero",
]
