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

    def rows(self) -> list[int]:
        """Echelon rows sorted by pivot position."""
        return [self._rows[p] for p in sorted(self._rows)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gf2Subspace):
            return NotImplemented
        return self._rows == other._rows

    def copy(self) -> "Gf2Subspace":
        out = Gf2Subspace()
        out._rows = dict(self._rows)
        out._pivots = self._pivots
        return out

    def support(self) -> int:
        """Bit union of all rows (the coordinates met by some member)."""
        u = 0
        for row in self._rows.values():
            u |= row
        return u

    def enumerate(self, cap: int = 1 << 20) -> Iterator[int]:
        """All members of the subspace; guarded against huge ranks."""
        if 1 << self.rank > cap:
            raise ValueError(f"subspace too large to enumerate (rank {self.rank})")
        rows = self.rows()
        for mask in range(1 << len(rows)):
            v = 0
            m = mask
            i = 0
            while m:
                if m & 1:
                    v ^= rows[i]
                m >>= 1
                i += 1
            yield v


__all__ = ["Gf2Subspace"]
