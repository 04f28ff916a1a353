"""Restriction system for candidate rational-cycle families.

A RationalFamily holds, for each arity up to a bound, a GF(2) subspace of
cycles presumed to come from the base field.  The closure operator adds
everything forced by rationality: the h-monomials, the diagonal class (fed
once), products, homogeneous components and four operations: adjacent
transpositions (which generate all permutations), the total Steenrod
operation and the first-projection pull-back and push-forward.  The diagonal
maps are products with the diagonal followed by these, and the operations
send h-monomials to h-monomials or zero, so neither needs a pass of its own.
A closed group is graded, and the reduced echelon basis of a graded subspace
is the union of the unique bases of its pieces, so every row is homogeneous.
The checkers then test the structural constraints a genuine family must
satisfy (point-degree parity, binary-size, shell-triangle symmetries,
minimal/primordial decomposition, small-quadric shape, descent).  check_all
reads the three one-cycle checks off such an arity-2 row's coordinates; the
public one-cycle checkers take an arity-2 cycle (ArityError otherwise): the
zero cycle passes and an inhomogeneous one raises ValueError.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass, field
from operator import getitem
from typing import Iterable

from .basis import (
    ArityError,
    CoordinateMaps,
    Cycle,
    FactorTables,
    GeometryError,
    QuadricGeometry,
    Term,
    apply_table,
    cycle,
    h,
    l,
    single,
    zero,
)
from .correspondence import derivative, diagonal_class
from .gf2 import Gf2Subspace
from .isotropy import coordinate_routes
from .ring import essential_part, sym, transpose

# ---------------------------------------------------------------------------
# coordinates: cycles <-> int bitsets over the canonical basis order


def encode_cycle(c: Cycle) -> int:
    index = c.geometry.tables.maps[c.arity].index
    v = 0
    for t in c.terms:
        v |= 1 << index[t]
    return v


def _terms_of(terms, v: int) -> list:
    """The entries at the set bits of v, given a sequence by coordinate (its arity's terms, say)."""
    acc = []
    while v:
        low = v & -v
        acc.append(terms[low.bit_length() - 1])
        v ^= low
    return acc


def decode_cycle(geometry: QuadricGeometry, r: int, v: int) -> Cycle:
    return Cycle(geometry, r, frozenset(_terms_of(geometry.tables.maps[r].terms, v)))


# ---------------------------------------------------------------------------
# splitting data


@dataclass(frozen=True)
class SplittingData:
    """Higher Witt indices of an anisotropic form, with their partial sums."""

    witt_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.witt_indices or any(type(i) is not int or i < 1 for i in self.witt_indices):
            raise ValueError(
                f"higher Witt indices must be one or more positive integers: {self.witt_indices!r}"
            )

    @property
    def height(self) -> int:
        return len(self.witt_indices)

    @property
    def partial_sums(self) -> tuple[int, ...]:
        """j_0 = 0 followed by the cumulative sums j_1 .. j_height."""
        return (0,) + tuple(itertools.accumulate(self.witt_indices))

    def shells(self) -> range:
        return range(1, self.height + 1)


class FamilyError(ValueError):
    """Raised when a family is structurally unusable for the requested check."""


@dataclass
class RationalFamily:
    """Candidate subgroups of rational cycles, one GF(2) subspace per arity."""

    geometry: QuadricGeometry
    max_arity: int
    groups: dict[int, Gf2Subspace] = field(default_factory=dict)
    splitting: SplittingData | None = None
    closed: bool = False

    def __post_init__(self) -> None:
        if type(self.max_arity) is not int or self.max_arity < 1:
            raise ArityError(f"max_arity must be an integer of at least 1, got {self.max_arity!r}")
        for r in range(1, self.max_arity + 1):
            self.groups.setdefault(r, Gf2Subspace())

    def add(self, c: Cycle) -> bool:
        if c.geometry != self.geometry:
            raise ValueError("generator over a different geometry")
        if not 1 <= c.arity <= self.max_arity:
            raise ArityError(f"generator arity {c.arity} outside 1..{self.max_arity}")
        self.closed = False
        return self.groups[c.arity].add(encode_cycle(c))

    def contains(self, c: Cycle) -> bool:
        if c.geometry != self.geometry:
            raise ValueError("cycle over a different geometry")
        if c.arity not in self.groups:
            return False
        return encode_cycle(c) in self.groups[c.arity]

    def copy(self) -> "RationalFamily":
        return RationalFamily(
            self.geometry,
            self.max_arity,
            {r: s.copy() for r, s in self.groups.items()},
            self.splitting,
            self.closed,
        )


def family_from_generators(
    geometry: QuadricGeometry,
    max_arity: int,
    generators: Iterable[Cycle],
    splitting: SplittingData | None = None,
) -> RationalFamily:
    fam = RationalFamily(geometry, max_arity, splitting=splitting)
    for g in generators:
        fam.add(g)
    return fam


# ---------------------------------------------------------------------------
# closure


class _Entry:
    """What closure keeps of a queued homogeneous vector, with one dict of masks per slot."""

    __slots__ = ("dimension", "terms", "columns", "masks", "prod")

    def __init__(self, maps: CoordinateMaps, v: int) -> None:
        self.dimension = maps.dims[(v & -v).bit_length() - 1]
        self.terms = _terms_of(maps.terms, v)
        self.columns = list(zip(*self.terms))
        self.masks: list[dict[int, int]] = [{} for _ in self.columns]
        self.prod = maps.tables.prod

    def mask(self, slot: int, f: int) -> int:
        """Bit k is set when term k's factor in the slot has a non-zero product with f.
        Built here on first use and cached in masks, where products look first."""
        row = self.prod[f]
        m = sum([1 << k for k, g in enumerate(self.columns[slot]) if row[g] is not None])
        self.masks[slot][f] = m
        return m


def _product_vector(tables: FactorTables, index: dict[Term, int], a: _Entry, b: _Entry) -> int:
    """The coordinates of the product of two entries of one arity, whose coordinate
    index is given.  A term s of the smaller side meets only the terms in the AND
    over the slots i of the other side's mask(i, s[i]), its non-zero products with
    s; each flips its bit, so equal ones cancel."""
    if len(a.terms) > len(b.terms):
        a, b = b, a
    prod, terms, masks, v = tables.prod, b.terms, b.masks, 0
    if len(terms) == 1:  # one term on each side: a mask would cost more than it saves
        t = tuple(map(getitem, map(prod.__getitem__, a.terms[0]), terms[0]))
        return 0 if None in t else 1 << index[t]
    for s in a.terms:
        m = -1
        for i, f in enumerate(s):
            got = masks[i].get(f)
            m &= b.mask(i, f) if got is None else got
            if not m:
                break
        if m:
            rows = [prod[f] for f in s]
            while m:
                low = m & -m
                m ^= low
                t = terms[low.bit_length() - 1]
                v ^= 1 << index[tuple(map(getitem, rows, t))]
    return v


def closure(family: RationalFamily) -> RationalFamily:
    """Smallest family containing the input and closed under the forced operations.

    The operations are linear and the product bilinear, so a worklist of the
    vectors that grew a group suffices.  It holds homogeneous vectors only, as
    (arity, coordinates, generator) triples: the input rows and each total
    Steenrod image enter as their homogeneous components, cut out by the
    dimension masks of CoordinateMaps, and the diagonal class enters once when
    the arity bound is at least 2.  A vector of arity r goes once through the
    r-1 adjacent transpositions (which generate every permutation; each
    reorders the vector's decoded terms), the total Steenrod operation and the
    first-projection pull-back and push-forward, the last three taken in
    coordinates by CoordinateMaps.  No Cycle is built inside the fixpoint.
    The h-monomials enter unqueued: these operations send them to h-monomials
    or zero.  With E = diagonal x h^0 x .. x h^0, the projection formula makes
    the diagonal push-forward of c transpose(h^0 x c, 0, 1) * E and its
    pull-back the projection push-forward of c * E: no pass needed.

    Products are taken with generators only.  The input components, the
    diagonal, the slot generators h^0 x .. x h^1 x .. x h^0 and every
    push-forward image are generators; transposition images, Steenrod
    components and products are not; a pull-back h^0 x c keeps the flag of c.
    After its images, a vector taken from the queue is multiplied by the r
    unqueued slot generators (CoordinateMaps.slot_shifts); a generator then by
    itself and every earlier vector of its arity, any other vector by the
    earlier generators of its arity, skipping the pairs of dimensions adding
    up to less than r*D (such a product vanishes).  A product forms only the
    term pairs that the per-slot masks of each queued vector (built on first
    use) show to be non-zero.  Each (arity, dimension) grows its own echelon:
    rows of two dimensions share no bit.

    Why the span A is still closed under products.  Let C = {a in A : A*a is
    in A}, a subspace, graded as A is.  Every generator is in C: its product
    with each queued vector is taken when the later of the two leaves the
    queue.  C is closed under products ((ab)x = a(bx)), so it holds every
    h-monomial, a product of slot generators; under the transpositions s,
    ring maps with s(A) = A; and under each S^k, a graded piece of the total
    operation S: S is a ring automorphism and S - 1 raises codimension, so
    S^-1 is a sum of powers of S, A is closed under it and S(a)*x = S(a*S^-1(x)).
    A vector z that is not a generator is P(y), P a chain of pull-backs (ring
    maps that commute with S^k, as S^k(h^0) = 0 for k > 0), y = s(u), S^k(u)
    or u*w, u queued and w queued or a slot generator: z = s'(P(u)), S^k(P(u))
    or P(u)*P(w), with s' a transposition.  The queue is first in, first out
    (deque.popleft), so each step of P applied to u (or w) was fed before the
    vector it stands beside in z's chain left the queue: P(u) lies in the span
    of the h-monomials and of vectors queued before z.  By induction on the
    order of entry those are in C, hence so is z, and A*A is in A.  The
    argument needs the first-in, first-out order and says nothing of a queue
    taken in another order.
    """
    geometry, top = family.geometry, family.max_arity
    tables = geometry.tables
    queue: deque[tuple[int, int, bool]] = deque()
    earlier: dict[int, list[_Entry]] = {r: [] for r in range(1, top + 1)}
    generators: dict[int, list[_Entry]] = {r: [] for r in range(1, top + 1)}
    pieces = {r: [Gf2Subspace() for _ in tables.maps[r].dim_masks] for r in range(1, top + 1)}

    def feed(r: int, v: int, generator: bool) -> None:
        if v and pieces[r][tables.maps[r].dims[(v & -v).bit_length() - 1]].add(v):
            queue.append((r, v, generator))

    for r in range(1, top + 1):
        maps = tables.maps[r]
        for k in map(maps.index.__getitem__, itertools.product(tables.h, repeat=r)):
            pieces[r][maps.dims[k]].add(1 << k)
        for v in family.groups[r].rows():
            for m in maps.dim_masks:
                feed(r, v & m, True)
    if top >= 2:
        feed(2, encode_cycle(diagonal_class(geometry)), True)
    while queue:
        r, v, generator = queue.popleft()
        maps = tables.maps[r]
        mine, index = _Entry(maps, v), maps.index
        for swap in maps.transpositions:
            feed(r, sum([1 << index[t] for t in map(swap, mine.terms)]), False)
        image = apply_table(maps.steenrod, v)
        for m in maps.dim_masks[: mine.dimension + 1]:  # S only lowers the dimension
            feed(r, image & m, False)
        if r < top:
            feed(r + 1, v, generator)  # h^0 x c has the coordinates of c
        if r >= 2:
            feed(r - 1, maps.pushforward(v), True)
        for hmask, lmask, stride in maps.slot_shifts:
            feed(r, (v & hmask) << stride | (v & lmask) >> stride, False)
        earlier[r].append(mine)
        if generator:
            generators[r].append(mine)
        floor = r * geometry.D - mine.dimension
        for e in earlier[r] if generator else generators[r]:
            if e.dimension >= floor:
                feed(r, _product_vector(tables, index, mine, e), False)
    groups = {r: Gf2Subspace.disjoint_union(p) for r, p in pieces.items()}
    return RationalFamily(geometry, top, groups, family.splitting, closed=True)


def _require_closed(family: RationalFamily) -> None:
    if not family.closed:
        raise FamilyError("this check needs a closed family; run closure first")


# ---------------------------------------------------------------------------
# elementary checkers


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witnesses: tuple = ()

    def __bool__(self) -> bool:
        return self.passed


def _rational_l(family: RationalFamily) -> list[int]:
    """The indices i, ascending, with l_i in the arity-1 group."""
    geometry = family.geometry
    return [i for i in range(geometry.d + 1) if family.contains(single(geometry, l(i)))]


def check_springer(family: RationalFamily) -> CheckResult:
    """An anisotropic quadric admits no rational point class l_0 (nor any lone l_i)."""
    geometry = family.geometry
    # the middle class of an even quadric may be rational without forcing a point
    bad = [i for i in _rational_l(family) if not (geometry.is_even and i == geometry.d)]
    return CheckResult("springer", not bad, tuple(bad))


def _is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def binary_cycle(geometry: QuadricGeometry, i: int) -> Cycle:
    if type(i) is not int or not 0 <= i <= geometry.d:
        raise GeometryError(f"l_{i!r} is not a factor for D={geometry.D}")
    h0, li = geometry.tables.h[0], geometry.tables.l[i]
    return Cycle(geometry, 2, frozenset({(h0, li), (li, h0)}))


def check_binary_size(family: RationalFamily) -> CheckResult:
    """A rational h^0 x l_i + l_i x h^0 forces D - i + 1 to be a power of 2."""
    geometry = family.geometry
    bad = []
    for i in range(geometry.d + 1):
        if family.contains(binary_cycle(geometry, i)):
            if not _is_power_of_two(geometry.D - i + 1):
                bad.append(i)
    return CheckResult("binary_size", not bad, tuple(bad))


def witt_index_readoff(family: RationalFamily) -> int:
    """One more than the largest rational l_i at arity 1; zero when none exists."""
    return max(_rational_l(family), default=-1) + 1


def splitting_readoff(family: RationalFamily) -> SplittingData:
    """Recover the partial sums j_q by scanning for h^0 x h^j1 x ... x l_(j-1) terms."""
    _require_closed(family)
    geometry = family.geometry
    d = geometry.d
    js: list[int] = []
    while not js or js[-1] < d + 1:
        r = len(js) + 2
        if r > family.max_arity:
            raise FamilyError(
                f"insufficient data: need arity {r} to read off step {len(js) + 1}"
            )
        support, index = family.groups[r].support(), geometry.tables.maps[r].index
        prefix = (h(0),) + tuple(h(j) for j in js)
        best = None
        for j in range(1, d + 2):
            if support >> index[prefix + (l(j - 1),)] & 1:
                best = j
        if best is None:
            raise FamilyError(f"insufficient data: no step found at arity {r}")
        js.append(best)
    indices = tuple(b - a for a, b in zip([0] + js, js))
    return SplittingData(indices)


# ---------------------------------------------------------------------------
# minimal and primordial cycles


def diagonal_essential_sum(geometry: QuadricGeometry) -> Cycle:
    """The dimension-D identity: sum of all h^i x l_i and l_i x h^i."""
    return essential_part(diagonal_class(geometry))


def minimal_cycles(family: RationalFamily) -> list[Cycle]:
    """Atoms of the essential codimension-at-most-D part of the arity-2 group.

    Each atom is the intersection of all group members containing one of its
    basis elements; the atoms are pairwise disjoint and span the part.  Two
    coordinates lie in the same atom exactly when their columns in the row
    basis are equal, that is when every row meets both or neither.
    """
    _require_closed(family)
    if family.max_arity < 2:
        raise FamilyError("minimal cycles need an arity-2 group")
    geometry = family.geometry
    maps = geometry.tables.maps[2]
    mask = maps.essential & sum(maps.dim_masks[geometry.D :])
    ess = Gf2Subspace(v & mask for v in family.groups[2].rows())
    support = ess.support()
    if support >> maps.index[(l(geometry.d), l(geometry.d))] & 1:
        raise FamilyError("family contains l_d x l_d in a rational cycle")
    atoms = [support] if support else []
    for row in ess.rows():  # keep together the coordinates every row meets alike
        atoms = [part for atom in atoms for part in (atom & row, atom & ~row) if part]
    if any(atom not in ess for atom in atoms):
        raise FamilyError("intersection closure violated; the family is inconsistent")
    out = [decode_cycle(geometry, 2, v) for v in atoms]
    return sorted(out, key=lambda c: (c.dimension, c.sorted_terms()))


def check_minimal_diagonal(family: RationalFamily) -> CheckResult:
    """The dimension-D minimal cycles must sum to the diagonal essential part."""
    try:
        minimals = minimal_cycles(family)
    except FamilyError as exc:
        return CheckResult("minimal_diagonal", False, (str(exc),))
    geometry = family.geometry
    dim_d = [c for c in minimals if c.dimension == geometry.D]
    total = cycle(geometry, 2, itertools.chain.from_iterable(c.terms for c in dim_d))
    ok = total == diagonal_essential_sum(geometry)
    return CheckResult("minimal_diagonal", ok, () if ok else (total,))


@dataclass(frozen=True)
class PrimordialReport:
    minimal_cycles: tuple[Cycle, ...]
    primordial: tuple[Cycle, ...]
    f_map: dict[Cycle, int]


def _derivatives(pi: Cycle, order: int) -> list[Cycle]:
    """The derivatives pi * (h^i x h^(order-i)) of one order, i = 0..order (none below 0)."""
    return [derivative(pi, i, order - i) for i in range(order + 1)]


def primordial_cycles(
    family: RationalFamily, splitting: SplittingData
) -> PrimordialReport:
    """Build the chain of primordial cycles shell by shell."""
    _require_closed(family)
    geometry = family.geometry
    minimals = minimal_cycles(family)
    js = splitting.partial_sums
    if js[-1] != geometry.d + 1:
        raise FamilyError(
            f"splitting sums to {js[-1]}, expected d+1 = {geometry.d + 1}"
        )
    pis: list[Cycle] = []
    f_map: dict[Cycle, int] = {}
    alpha = zero(geometry, 2)  # the sum of the highest derivatives of pis
    for q in splitting.shells():
        if all((h(i), l(i)) in alpha.terms for i in range(js[q - 1], js[q])):
            continue
        top = (h(js[q - 1]), l(js[q] - 1))
        candidates = [m for m in minimals if top in m.terms]
        if not candidates:
            raise FamilyError(
                f"family inconsistent: no minimal cycle contains the shell-{q} top cell"
            )
        pi = candidates[0]
        if pi != transpose(pi):
            raise FamilyError(f"shell-{q} primordial candidate is not symmetric")
        pis.append(pi)
        f_map[pi] = q
        alpha = sum(_derivatives(pi, pi.dimension - geometry.D), alpha)
    if essential_part(alpha) != diagonal_essential_sum(geometry):
        raise FamilyError(
            "highest derivatives of the primordial set do not cover the diagonal cells"
        )
    if 1 not in f_map.values():
        raise FamilyError("the first shell produced no primordial cycle")
    return PrimordialReport(tuple(minimals), tuple(pis), f_map)


# ---------------------------------------------------------------------------
# shell-triangle checkers


def forbidden_cells(
    geometry: QuadricGeometry, splitting: SplittingData, k: int
) -> frozenset[Term]:
    """Cells excluded from any rational cycle of dimension D + k - 1 (k >= 1)."""
    if k < 1:
        return frozenset()
    js, H, L = splitting.partial_sums, geometry.tables.h, geometry.tables.l
    out: set[Term] = set()
    for q in splitting.shells():
        iq = splitting.witt_indices[q - 1]
        for i in range(max(iq - k + 1, 0), iq):
            x = js[q - 1] + i
            y = js[q - 1] + i + k - 1
            if x <= geometry.d and y <= geometry.d:
                out.add((H[x], L[y]))
                out.add((L[y], H[x]))
    return frozenset(out)


@functools.lru_cache(maxsize=1024)
def _shell_bits(geometry: QuadricGeometry, splitting: SplittingData, e: int) -> tuple[int, list]:
    """The forbidden cells of arity-2 dimension e >= D as one mask, and the mirror
    pairs (left bit, right bit, (left, right)) of the shell triangles, shell by shell."""
    index, H, L = geometry.tables.maps[2].index, geometry.tables.h, geometry.tables.l
    k, js, pairs = e - geometry.D, splitting.partial_sums, []
    for q in splitting.shells():
        for x in range(js[q - 1], js[q] - k):
            y = js[q - 1] + js[q] - 1 - x
            if x + k <= geometry.d and y <= geometry.d:
                left, right = (H[x], L[x + k]), (L[y], H[y - k])
                pairs.append((index[left], index[right], (left, right)))
    return sum([1 << index[t] for t in forbidden_cells(geometry, splitting, k + 1)]), pairs


def _read_row(geometry: QuadricGeometry, splitting: SplittingData | None, v: int) -> tuple:
    """The witnesses of even_essential, forbidden_cells and pairs (the last two need
    splitting data) on a non-zero homogeneous arity-2 row v, bits in sorted-term order."""
    maps = geometry.tables.maps[2]
    e = maps.dims[(v & -v).bit_length() - 1]
    if e < geometry.D:
        return (), (), ()
    n = (v & maps.essential).bit_count()
    mask, pairs = _shell_bits(geometry, splitting, e) if splitting is not None else (0, ())
    mirror = tuple(w for i, j, w in pairs if (v >> i ^ v >> j) & 1)
    return ((e, n),) if n & 1 else (), tuple(_terms_of(maps.terms, v & mask)), mirror


def _check_one(name: str, which: int, alpha: Cycle, splitting: SplittingData | None) -> CheckResult:
    """Witnesses `which` of _read_row on one homogeneous arity-2 cycle; zero passes."""
    if alpha.arity != 2:
        raise ArityError(f"{name} checks an arity-2 cycle, got arity {alpha.arity}")
    if not alpha.is_homogeneous:
        raise ValueError(f"{name} checks a homogeneous cycle")
    bad = _read_row(alpha.geometry, splitting, encode_cycle(alpha))[which] if alpha.terms else ()
    return CheckResult(name, not bad, bad)


def check_forbidden(alpha: Cycle, splitting: SplittingData) -> CheckResult:
    """A homogeneous rational cycle meets none of the forbidden cells of its dimension."""
    return _check_one("forbidden_cells", 1, alpha, splitting)


def check_pairs(alpha: Cycle, splitting: SplittingData) -> CheckResult:
    """Left/right shell-triangle mirror symmetry of the diagram of a homogeneous cycle."""
    return _check_one("pairs", 2, alpha, splitting)


def check_even_essential(alpha: Cycle) -> CheckResult:
    """A homogeneous cycle of dimension at least D has an even point count."""
    return _check_one("even_essential", 0, alpha, None)


# ---------------------------------------------------------------------------
# small-quadric shape


def _staircase(geometry: QuadricGeometry, shift: int, step: int, prefix: Term = ()) -> Cycle:
    """sym of the sum over i >= 1 of prefix x h^(shift+(i-1)step) x l_(shift+i*step-1),
    for every i with shift + i*step <= d + 1."""
    steps = range(1, (geometry.d + 1 - shift) // step + 1)
    terms = frozenset(prefix + (h(shift + (i - 1) * step), l(shift + i * step - 1)) for i in steps)
    return sym(Cycle(geometry, len(prefix) + 2, terms))


def known_generator(geometry: QuadricGeometry, a: int) -> Cycle:
    """The symmetric staircase cycle of a small quadric with first index a."""
    if type(a) is not int or a < 1:
        raise ValueError(f"the first Witt index must be a positive integer, got {a!r}")
    if (geometry.d + 1) % a != 0:
        raise ValueError(f"{a} does not divide d+1 = {geometry.d + 1}")
    return _staircase(geometry, 0, a)


def _is_small(geometry: QuadricGeometry, splitting: SplittingData) -> bool:
    """The first Witt index divides every higher Witt index and d + 1."""
    a = splitting.witt_indices[0]
    return all(iq % a == 0 for iq in splitting.witt_indices) and (geometry.d + 1) % a == 0


@functools.lru_cache(maxsize=1024)
def _known_spans(geometry: QuadricGeometry, a: int) -> tuple[Cycle, dict[int, Gf2Subspace]]:
    """The staircase cycle with first index a, and for each slice k < a the span of its
    derivatives of order a - 1 - k; the spans are only compared, never changed."""
    pi = known_generator(geometry, a)
    return pi, {k: Gf2Subspace(map(encode_cycle, _derivatives(pi, a - 1 - k))) for k in range(a)}


def check_known(family: RationalFamily, splitting: SplittingData) -> CheckResult:
    """Small-quadric structure: divisibility, the staircase cycle, spanning derivatives."""
    _require_closed(family)
    geometry = family.geometry
    if not _is_small(geometry, splitting):
        return CheckResult("known", False, ("divisibility",))
    a = splitting.witt_indices[0]
    problems: list = []
    pi, spans = _known_spans(geometry, a)
    if not family.contains(pi):
        problems.append("staircase-not-rational")
    maps, slices = geometry.tables.maps[2], {}
    for v in family.groups[2].rows():  # homogeneous: one slice each
        k = maps.dims[(v & -v).bit_length() - 1] - geometry.D
        if k >= 0 and v & maps.essential:
            slices.setdefault(k, []).append(v & maps.essential)
    for k in sorted(slices.keys() | spans.keys()):  # every other slice is empty on both sides
        if Gf2Subspace(slices.get(k, ())) != spans.get(k, Gf2Subspace()):
            problems.append(("slice", k))
    return CheckResult("known", not problems, tuple(problems))


# ---------------------------------------------------------------------------
# first Witt index: Karpenko's bound in closed form


def allowed_first_witt_indices(dim_form: int) -> set[int]:
    """The first higher Witt indices i1 <= dim_form / 2 with i1 <= 2^v2(dim_form - i1).

    That is Karpenko's bound (On the first Witt index of quadratic forms, Invent.
    Math. 2003).  Its Steenrod witness needs no computation.  For i1 > 2^r, 2^r the
    lowest set bit of dim_form - i1, S^(2^r)(h^0 x l_(i1-1) + l_(i1-1) x h^0) has the
    target h^0 x l_(i1-1-2^r) with coefficient C(dim_form - i1, 2^r), odd by Lucas as
    2^r is a set bit; the partner l_(i1-1) x h^(2^r) needs S^(2^r)(h^0) = 0, so the
    image is mirror-asymmetric and i1 is excluded.

    An allowed i1, with 2^v the lowest set bit of dim_form - i1, is dim_form mod 2^v
    (2^v when that is 0), and 2^v <= dim_form - i1 < dim_form: one candidate per v.
    """
    if type(dim_form) is not int or dim_form < 3:  # no bool, no float
        raise ValueError(f"the form must have dimension at least 3; got {dim_form!r}")
    allowed = set()
    for v in range(dim_form.bit_length()):
        i1 = dim_form % (1 << v) or 1 << v
        rest = dim_form - i1
        if i1 <= dim_form // 2 and rest & -rest >= i1:
            allowed.add(i1)
    return allowed


# ---------------------------------------------------------------------------
# combined driver


def check_all(
    family: RationalFamily,
    inner_family: RationalFamily | None = None,
) -> dict[str, CheckResult]:
    """Close the family and run every applicable checker."""
    if inner_family is not None:
        if family.splitting is None:
            raise FamilyError("the supplement check needs splitting data")
        if inner_family.geometry.D != family.geometry.D - 2 * family.splitting.witt_indices[0]:
            raise FamilyError("inner family geometry does not match the first Witt index")
    fam = family if family.closed else closure(family)
    report: dict[str, CheckResult] = {}
    report["springer"] = check_springer(fam)
    report["binary_size"] = check_binary_size(fam)

    split, shells = fam.splitting, fam.max_arity >= 2 and fam.splitting is not None
    rows = fam.groups[2].rows() if fam.max_arity >= 2 else []
    read = [_read_row(fam.geometry, split, v) for v in rows]
    for which, name in enumerate(("even_essential", "forbidden_cells", "pairs")[: 1 + 2 * shells]):
        bad = [w for got in read for w in got[which]]
        report[name] = CheckResult(name, not bad, tuple(bad))
    if shells:
        try:
            primordial_cycles(fam, split)
            report["primordial"] = CheckResult("primordial", True)
        except FamilyError as exc:
            report["primordial"] = CheckResult("primordial", False, (str(exc),))
        if _is_small(fam.geometry, split):
            report["known"] = check_known(fam, split)
    elif fam.max_arity >= 2:
        report["minimal_diagonal"] = check_minimal_diagonal(fam)

    if inner_family is not None:
        inner = inner_family if inner_family.closed else closure(inner_family)
        a, hits = split.witt_indices[0], []
        # Each coordinate has one signature key and one coordinate of its image there, so
        # a row's projections are XORs per key; sorting restores the signature-major order.
        for r in range(1, fam.max_arity + 1):
            routes = coordinate_routes(fam.geometry.D, a, r)
            for m, v in enumerate(fam.groups[r].rows()):
                images: dict[tuple[int, ...], int] = {}
                for key, k in _terms_of(routes, v):
                    images[key] = images.get(key, 0) ^ 1 << k
                for key, w in images.items():
                    if 1 <= (s := key.count(a)) <= inner.max_arity and w not in inner.groups[s]:
                        hits.append((r, key, m))
        bad = [(key, r) for r, key, _ in sorted(hits)]
        report["supplement"] = CheckResult("supplement", not bad, tuple(bad))
    return report


__all__ = [
    "CheckResult",
    "FamilyError",
    "PrimordialReport",
    "RationalFamily",
    "SplittingData",
    "allowed_first_witt_indices",
    "binary_cycle",
    "check_all",
    "check_binary_size",
    "check_even_essential",
    "check_forbidden",
    "check_known",
    "check_minimal_diagonal",
    "check_pairs",
    "check_springer",
    "closure",
    "decode_cycle",
    "diagonal_essential_sum",
    "encode_cycle",
    "family_from_generators",
    "forbidden_cells",
    "known_generator",
    "minimal_cycles",
    "primordial_cycles",
    "splitting_readoff",
    "witt_index_readoff",
]
