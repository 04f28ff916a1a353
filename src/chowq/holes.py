"""Construction cycles on the triple power and the dimension-gap certification.

For parameters (n, m, p) the quadric has d = 2^(n-1) + ... + 2^(m-1)
+ 2^(p-1) - 1 and D = 2d, with a = 2^(p-1), b = 2^(m-1), c = 2^m the
first three forced higher Witt indices.  The certification builds the
staircase cycle mu0 on the triple power, enumerates every admissible
defect part mu' (sums of the chi generators in the three slots),
computes

    xi = delta_q^*( compose(S_2a(mu) * (h^0 x h^0 x h^(b-1)), mu) )

and verifies that the cell h^a x l_(b-a-1) survives in every case.  Its survival
contradicts the small-quadric structure theorem, which is what rules out the
corresponding dimension value.  Both methods read one table of target bits,
built once per certificate from the squares of the terms of the parts, one walk
per slot orbit, with no Cycle, no composite and, for the generators, no ring op.
The default, bilinear, reads that table's quadratic form off its coefficients,
an exact test at every size; brute force, its oracle, evaluates the form on all
2^(3J) cases at once into one failure mask, one bit per case.
With the tables warm, a certificate takes 0.0003-0.0005 / 0.002-0.004 / 0.05-0.07 s
brute at (4,3,1) / (7,3,1) / (5,4,1) and 0.0012-0.0021 / 0.005-0.009 / 0.010-0.018 s
bilinear at (7,6,1) / (9,8,1) / (10,9,1); the first at (11,3,1), D = 4 088, takes
0.14-0.18 s with its table rows (median of 5, 2 CPUs, Python 3.11.7).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import itemgetter, xor

from .basis import (
    Cycle,
    QuadricGeometry,
    Term,
    cycle,
    h,
    l,
    render_cycle,
    single,
    term_dimension,
)
from .correspondence import compose, delta_pullback_q
from .ring import _NONZERO, sym
from .steenrod import _compositions
from .structure import SplittingData, _staircase, _terms_of

BRUTE_LIMIT = 1 << 24  # J = 8: 25 planes of 2 MB
_SLOT_SWAPS = (itemgetter(1, 0, 2), itemgetter(2, 1, 0))  # slots 0 <-> 1 and 0 <-> 2


@dataclass(frozen=True)
class HoleParams:
    """Parameters (n, m, p) with the derived geometry and counts.

    3 <= m <= n-1 and 1 <= p <= m-2 force n >= 4 and make every divisibility the
    construction uses an identity: d = 2^n - b + a - 1, so d - a + 1 = 2^n - b,
    d - b - a + 1 = 2^n - c, b / 4a = 2^(m-p-2) and d + 1 = 2^n - b + a, a < b.
    """

    n: int
    m: int
    p: int

    def __post_init__(self) -> None:
        ints = all(type(v) is int for v in (self.n, self.m, self.p))  # no bool, no float
        if not (ints and 3 <= self.m <= self.n - 1 and 1 <= self.p <= self.m - 2):
            raise ValueError(
                f"need n >= 4, 3 <= m <= n-1, 1 <= p <= m-2; got {(self.n, self.m, self.p)}"
            )

    @property
    def a(self) -> int:
        return 1 << (self.p - 1)

    @property
    def b(self) -> int:
        return 1 << (self.m - 1)

    @property
    def c(self) -> int:
        return 1 << self.m

    @property
    def d(self) -> int:
        return (1 << self.n) - self.b + self.a - 1

    @property
    def D(self) -> int:
        return 2 * self.d

    @property
    def geometry(self) -> QuadricGeometry:
        return QuadricGeometry(self.D)

    @property
    def dim_form(self) -> int:
        return self.D + 2

    @property
    def n_b(self) -> int:
        return (self.d - self.a + 1) // self.b

    @property
    def j_count(self) -> int:
        return (self.c - self.b) // self.a


def forced_witt_sequence(n: int, dim: int) -> SplittingData:
    """Witt indices forced for dim = 2^n + ... + 2^m + 2^p, p and m its two lowest bits."""
    low = dim & -dim
    p, m = low.bit_length() - 1, ((dim ^ low) & -(dim ^ low)).bit_length() - 1
    params = HoleParams(n, m, p)
    if params.dim_form != dim:
        raise ValueError(f"dimension {dim} is not 2^{n} + ... + 2^{m} + 2^{p}")
    return SplittingData((params.a,) + tuple(1 << i for i in range(m - 1, n)))


def build_mu_zero(params: HoleParams) -> Cycle:
    """Symmetrized staircase part of the construction cycle; each term has dimension 2D + b - 1."""
    return _staircase(params.geometry, params.a, params.b, (h(0),))


def mu_prime_generators(params: HoleParams) -> list[Cycle]:
    """The 3J admissible defect summands: chi_j per slot, slots 2 and 3 transposed.

    chi_j = h^a x (inner staircase * (h^((j-1)a) x h^(c-b-ja))) is read off the terms of the
    one inner staircase, with no ring op; its copies reorder each term by _SLOT_SWAPS."""
    g, a, b, c = params.geometry, params.a, params.b, params.c
    prod, ha = g.tables.prod, h(a)
    inner = _staircase(g, b + a, c).terms  # one staircase for every chi_j
    out = []
    for j in range(1, params.j_count + 1):
        left, right = prod[h((j - 1) * a)], prod[h(c - b - j * a)]
        chi = cycle(g, 3, filter(_NONZERO, [(ha, left[t0], right[t1]) for t0, t1 in inner]))
        out += [chi] + [Cycle(g, 3, frozenset(map(swap, chi.terms))) for swap in _SLOT_SWAPS]
    return out


def build_xi(mu: Cycle, params: HoleParams) -> Cycle:
    """The contradiction cycle: compose mu with its twisted Steenrod image, pull back."""
    if mu.arity != 3:
        raise ValueError("the construction cycle must have arity 3")
    (inner,) = _inner_parts(params, [mu])
    xi = delta_pullback_q(compose(inner, mu))  # homogeneous: steenrod_k refuses any other mu
    if not xi.is_zero and xi.dimension != term_dimension(params.geometry, target_cell(params)):
        raise ValueError(f"xi has dimension {xi.dimension}, not that of the target cell")
    return xi


def target_cell(params: HoleParams) -> Term:
    return (h(params.a), l(params.b - params.a - 1))


def first_summand_formula(params: HoleParams) -> Cycle:
    """Closed form of the staircase-only part of the contradiction cycle."""
    g = params.geometry
    a, b = params.a, params.b
    terms = []
    for i in range(1, params.n_b + 1):
        terms.append((h((i - 1) * b + a), l(i * b - a - 1)))
        terms.append((h((i - 1) * b + 3 * a), l(i * b + a - 1)))
    return sym(Cycle(g, 2, frozenset(terms)))


# ---------------------------------------------------------------------------
# certification


def _inner_parts(params: HoleParams, parts: list[Cycle]) -> list[Cycle]:
    """S_2a(x) * (h^0 x h^0 x h^(b-1)) for each part x, from the squares of its terms.

    Both maps are linear over GF(2), so for mu a sum of parts the inner
    factor of xi is the sum of the matching inner parts.  Each square
    S^(k0)(t0) x S^(k1)(t1) x S^(k2)(t2), k0 + k1 + k2 = 2a, of a term t of x
    gives the term with h^(b-1) times its last factor.  A part with terms of
    two dimensions raises ValueError: S_2a is graded.
    """
    times = params.geometry.tables.prod[h(params.b - 1)]
    squares = [_compositions(x, 2 * params.a, exact=True) for x in parts]
    return [
        cycle(params.geometry, 3, [(s0, s1, times[s2]) for s0, s1, s2 in sq if times[s2] is not None])
        for sq in squares
    ]


def _target_rows(params: HoleParams, parts: list[Cycle]) -> list[int]:
    """The block table as one int per part x: bit y is 1 when the target cell
    is a term of delta_q^*(compose(inner_y, x)), inner_y the inner part of parts[y].

    compose is bilinear and delta_q^* linear, so when mu is the sum of the
    parts in T, the target coefficient of xi is the sum of the bits (x, y)
    over x, y in T: a quadratic form in the selection.  A term s of
    S_2a(parts[y]) gives inner_y the term s0 x s1 x s2 h^(b-1), and the pair
    (s, t of x) adds s0 t1 x s1 t2 to that image when s2 (h^(b-1) t0) = l_0.
    So bit y is the parity of the pairs with s0 t1 = T1, s1 t2 = T2 and that
    product l_0.  Each step is linear, so each square s of a term of parts[y]
    XORs bit y into holders[s], and row x XORs holders[s] over the s matched
    by each t, repeats cancelling: no Cycle and no composite is built.  A part
    with terms of two dimensions raises ValueError, as in _inner_parts.

    S_2a commutes with permuting the slots, as a permuted composition of 2a is one, so a part
    whose terms are an earlier walked part's terms through a swap of _SLOT_SWAPS takes that
    part's squares through the same swap: one walk per slot orbit, matched on the term sets.
    """
    tables = params.geometry.tables
    over1, over2 = map(tables.quotients.__getitem__, target_cell(params))
    over_l0, times = tables.quotients[l(0)], tables.prod[h(params.b - 1)]
    partners = [() if g is None else over_l0[g] for g in times]  # s2 (h^(b-1) t0) = l_0
    holders: dict[Term, int] = {}  # s -> mask of the y with s a square of a term of parts[y]
    orbit: dict[frozenset[Term], tuple] = {}  # swapped terms of a walked part -> (swap, squares)
    for y, x in enumerate(parts):
        if x.terms in orbit:
            squares = map(*orbit[x.terms])
        else:
            squares = _compositions(x, 2 * params.a, exact=True)
            orbit.update({frozenset(map(swap, x.terms)): (swap, squares) for swap in _SLOT_SWAPS})
        for s in squares:
            holders[s] = holders.get(s, 0) ^ 1 << y
    get = holders.get
    return [
        reduce(xor, [get(s, 0) for t0, t1, t2 in x.terms
                     for s in product(over1[t1], over2[t2], partners[t0])], 0)
        for x in parts
    ]


def _brute(rows: list[int]) -> int:
    """The failure mask over all 2^(len(rows)-1) cases: bit i is 1 when the
    target cell vanishes in case i.

    Bit k-1 of a case selects parts[k]; parts[0] is always in T.  Bit i of
    sel[k] is 1 when case i selects parts[k], so the target bit of xi,
    the sum over x, y in T of bit y of rows[x], is evaluated for every case at once.
    """
    n_cases = 1 << (len(rows) - 1)
    sel = [(1 << n_cases) - 1]
    for k in range(1, len(rows)):
        half = 1 << (k - 1)
        pattern, width = ((1 << half) - 1) << half, 2 * half  # half zeros, then half ones
        while width < n_cases:
            pattern, width = pattern | pattern << width, 2 * width
        sel.append(pattern)
    fails = sel[0]  # a case fails where the form is 0
    for x, row in enumerate(rows):
        fails ^= sel[x] & reduce(xor, _terms_of(sel, row), 0)
    return fails


def _cells(rows: list[int]) -> list[tuple[int, int]]:
    """(x, y) for each set bit y of rows[x]."""
    return [(x, y) for x, row in enumerate(rows) for y in _terms_of(range(len(rows)), row)]


def _exact(rows: list[int]) -> list[int]:
    """At most one case where the target cell vanishes, numbered as in _brute.

    s_0 = 1 and s_x^2 = s_x, so cell (x, y) adds to q the monomial 1 for (0, 0), s_x for
    (0, x), (x, 0) and (x, x), and s_x s_y otherwise.  On its own case, the least monomial
    left in q - 1 (1, then each s_x, then each s_x s_y) is 1 and every other one left is 0,
    as only its divisors are 1 there: q is 0, the case fails.  With none left, q = 1."""
    odd = {()}  # the monomials of q - 1 added an odd number of times
    for x, y in _cells(rows):
        odd ^= {tuple(sorted({x, y} - {0}))}
    least = min(odd, key=lambda mono: (len(mono), mono), default=None)
    return [] if least is None else [sum(1 << (x - 1) for x in least)]


def verify_contradiction(params: HoleParams, method: str = "bilinear", jobs: int = 1) -> dict:
    """Certify that the target cell survives in xi for every admissible defect part.

    The target coefficient of xi is a quadratic form in the selection.  The
    default method "bilinear" tests that form exactly (_exact), lists at most
    one case where it is 0 and keeps the set cells "x,y" of the table in
    "blocks".  "brute", the oracle, evaluates the form on all 2^(3J) defect
    selections, at most BRUTE_LIMIT of them, and lists the lowest case where
    it is 0.  jobs must be 1, as the certifier runs in one process; the
    parameter goes with the next benchmark change, which stops passing it.
    """
    if jobs != 1:
        raise ValueError(f"the certifier runs in one process: jobs must be 1, got {jobs}")
    n_cases = 1 << (3 * params.j_count)
    if method not in ("brute", "bilinear"):
        raise ValueError(f"unknown method {method!r}")
    if method == "brute" and n_cases > BRUTE_LIMIT:
        raise ValueError(
            f"brute force over {n_cases} cases is above its limit of {BRUTE_LIMIT}; "
            "use --method bilinear"
        )

    parts = [build_mu_zero(params)] + mu_prime_generators(params)
    rows = _target_rows(params, parts)
    target = target_cell(params)
    cert: dict = {
        "params": {"n": params.n, "m": params.m, "p": params.p},
        "geometry": {"D": params.D, "d": params.d},
        "constants": {
            "a": params.a,
            "b": params.b,
            "c": params.c,
            "generator_count": 3 * params.j_count,
        },
        "method": method,
        "target": render_cycle(single(params.geometry, *target)),
        "mu0": render_cycle(parts[0]),
        "generators": [render_cycle(g) for g in parts[1:]],
        "cases": n_cases,
    }

    if method == "brute":
        fails = _brute(rows)
        cert["failures"] = [(fails & -fails).bit_length() - 1] if fails else []
    else:
        cert["failures"] = _exact(rows)
        cert["blocks"] = {f"{x},{y}": 1 for x, y in _cells(rows)}
    cert["passed"] = not cert["failures"]
    return cert


def certificate_json(cert: dict) -> str:
    return json.dumps(cert, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# dimension and splitting-pattern formulas


def dim_In_set(n: int, cap: int) -> set[int]:
    """Realized dimensions of anisotropic forms in the n-th power ideal, up to cap."""
    if type(cap) is not int:  # no bool, no float
        raise ValueError(f"need an int cap, got cap={cap!r}")
    out = {v for v in small_splitting_pattern(n, 1) if v <= cap}
    out.update(range(1 << (n + 1), cap + 1, 2))
    return out


def small_splitting_pattern(n: int, m: int) -> set[int]:
    """Anisotropic-kernel dimensions of a small form: 2^(n+1) - 2^i for i = m..n+1.

    The formula needs n >= 1: I^0 = W(F) holds forms of every dimension."""
    if type(n) is not int or n < 1:  # no bool, no float
        raise ValueError(f"need n >= 1, got n={n!r}")
    if type(m) is not int or not 1 <= m <= n + 1:
        raise ValueError(f"need 1 <= m <= n+1, got m={m!r}")
    return {(1 << (n + 1)) - (1 << i) for i in range(m, n + 2)}


def vishik_pattern(n: int, m: int) -> set[int]:
    """The realizable splitting pattern with an even-dimensional tail up to m * 2^n."""
    if type(m) is not int:  # no bool, no float; m < 2 leaves the tail empty
        raise ValueError(f"need an int m, got m={m!r}")
    return small_splitting_pattern(n, 1) | dim_In_set(n, m << n)


__all__ = [
    "BRUTE_LIMIT",
    "HoleParams",
    "build_mu_zero",
    "build_xi",
    "certificate_json",
    "dim_In_set",
    "first_summand_formula",
    "forced_witt_sequence",
    "mu_prime_generators",
    "small_splitting_pattern",
    "target_cell",
    "vishik_pattern",
    "verify_contradiction",
]
