"""GF(2) subspaces stored as reduced echelon bases over int bitsets.

Vectors are Python ints; bit i corresponds to the i-th element of a fixed
deterministic basis order.  Pivots are the lowest set bits, rows are kept
fully reduced, so membership is a reduction query and equality of
subspaces is equality of row lists.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class Gf2Subspace:
    """A mutable reduced-echelon-basis subspace of GF(2)^n."""

    def __init__(self, vectors: Iterable[int] = ()) -> None:
        self._rows: dict[int, int] = {}  # pivot bit position -> row
        self._pivots = 0  # bit union of the pivots
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduce(self, v: int) -> int:
        """Canonical residue of v modulo the subspace (all pivot bits cleared)."""
        hits = v & self._pivots  # a pivot bit lies in its own row only, so XOR just those rows
        while hits:
            low = hits & -hits
            v ^= self._rows[low.bit_length() - 1]
            hits ^= low
        return v

    def __contains__(self, v: int) -> bool:
        return self.reduce(v) == 0

    def add(self, v: int) -> bool:
        """Insert v; returns True when the rank grew."""
        v = self.reduce(v)
        if v == 0:
            return False
        low = v & -v
        for p, row in self._rows.items():
            if row & low:
                self._rows[p] = row ^ v
        self._rows[low.bit_length() - 1] = v
        self._pivots |= low
        return True

    @classmethod
    def disjoint_union(cls, pieces: Iterable["Gf2Subspace"]) -> "Gf2Subspace":
        """The sum of subspaces with pairwise disjoint supports, their rows joined
        unreduced (no row meets another's pivot); ValueError when two overlap."""
        out, seen = cls(), 0
        for piece in pieces:
            support = piece.support()
            if support & seen:
                raise ValueError("the supports of two pieces overlap")
            seen |= support
            out._rows.update(piece._rows)
            out._pivots |= piece._pivots
        return out

    def rows(self) -> list[int]:
        """Echelon rows sorted by pivot position."""
        return [self._rows[p] for p in sorted(self._rows)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gf2Subspace):
            return NotImplemented
        return self._rows == other._rows

    def copy(self) -> "Gf2Subspace":
        return self.disjoint_union([self])

    def support(self) -> int:
        """Bit union of all rows (the coordinates met by some member)."""
        u = 0
        for row in self._rows.values():
            u |= row
        return u

    def enumerate(self, cap: int = 1 << 20) -> Iterator[int]:
        """All members of the subspace in Gray-code order; guarded against huge ranks."""
        if 1 << self.rank > cap:
            raise ValueError(f"subspace too large to enumerate (rank {self.rank})")
        rows, v = self.rows(), 0
        yield v
        for step in range(1, 1 << len(rows)):  # each step flips the row of its lowest bit
            v ^= rows[(step & -step).bit_length() - 1]
            yield v


__all__ = ["Gf2Subspace"]
