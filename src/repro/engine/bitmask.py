"""Multi-word bitmask vectors.

Small group sampling tags every sampled row with a bitmask recording which
small group tables contain the row (Section 4.2.1 of the paper).  The number
of small group tables equals the number of retained columns ``|S|``, which
for wide schemas (the paper's SALES database has 245 columns) exceeds the 64
bits of a single machine word.  :class:`BitmaskVector` therefore stores the
per-row masks as an ``(n_rows, n_words)`` array of ``uint64`` words.

A *query mask* (one mask, many rows) is represented by :class:`Bitmask`.
The runtime rewriting phase uses ``BitmaskVector.isdisjoint`` to implement
the paper's ``bitmask & m = 0`` filters.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

WORD_BITS = 64


def _n_words(n_bits: int) -> int:
    return max(1, (n_bits + WORD_BITS - 1) // WORD_BITS)


class Bitmask:
    """A single bitmask over ``n_bits`` bit positions."""

    __slots__ = ("n_bits", "words")

    def __init__(self, n_bits: int, bits: Iterable[int] = ()) -> None:
        self.n_bits = n_bits
        self.words = np.zeros(_n_words(n_bits), dtype=np.uint64)
        for bit in bits:
            self.set(bit)

    def set(self, bit: int) -> None:
        """Set bit position ``bit``."""
        if not 0 <= bit < self.n_bits:
            raise ValueError(f"bit {bit} out of range [0, {self.n_bits})")
        self.words[bit // WORD_BITS] |= np.uint64(1) << np.uint64(bit % WORD_BITS)

    def test(self, bit: int) -> bool:
        """Return whether bit position ``bit`` is set."""
        if not 0 <= bit < self.n_bits:
            raise ValueError(f"bit {bit} out of range [0, {self.n_bits})")
        word = self.words[bit // WORD_BITS]
        return bool(word >> np.uint64(bit % WORD_BITS) & np.uint64(1))

    def bits(self) -> list[int]:
        """Return the sorted list of set bit positions."""
        out = []
        for w, word in enumerate(self.words):
            value = int(word)
            while value:
                low = value & -value
                out.append(w * WORD_BITS + low.bit_length() - 1)
                value ^= low
        return out

    def to_int(self) -> int:
        """Return the mask as an arbitrary-precision Python integer."""
        total = 0
        for w, word in enumerate(self.words):
            total |= int(word) << (w * WORD_BITS)
        return total

    @staticmethod
    def from_int(n_bits: int, value: int) -> "Bitmask":
        """Build a mask from an arbitrary-precision integer."""
        mask = Bitmask(n_bits)
        for w in range(len(mask.words)):
            mask.words[w] = np.uint64((value >> (w * WORD_BITS)) & (2**WORD_BITS - 1))
        return mask

    def is_zero(self) -> bool:
        """Whether no bit is set."""
        return not self.words.any()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmask):
            return NotImplemented
        return self.n_bits == other.n_bits and bool(
            np.array_equal(self.words, other.words)
        )

    def __hash__(self) -> int:
        return hash((self.n_bits, self.words.tobytes()))

    def __repr__(self) -> str:
        return f"Bitmask(n_bits={self.n_bits}, bits={self.bits()})"


class BitmaskVector:
    """Per-row bitmasks for a sample table.

    The vector is append-free: it is built once, with a fixed row count, and
    rows are selected with :meth:`take`.
    """

    __slots__ = ("n_bits", "words")

    def __init__(self, n_rows: int, n_bits: int, words: np.ndarray | None = None):
        self.n_bits = n_bits
        if words is None:
            words = np.zeros((n_rows, _n_words(n_bits)), dtype=np.uint64)
        else:
            words = np.asarray(words, dtype=np.uint64)
            if words.shape != (n_rows, _n_words(n_bits)):
                raise ValueError(
                    f"expected shape {(n_rows, _n_words(n_bits))}, "
                    f"got {words.shape}"
                )
        self.words = words

    def __len__(self) -> int:
        return int(self.words.shape[0])

    def set_bit(self, rows: np.ndarray, bit: int) -> None:
        """Set ``bit`` for every row index in ``rows``."""
        if not 0 <= bit < self.n_bits:
            raise ValueError(f"bit {bit} out of range [0, {self.n_bits})")
        self.words[rows, bit // WORD_BITS] |= np.uint64(1) << np.uint64(
            bit % WORD_BITS
        )

    def isdisjoint(self, mask: Bitmask) -> np.ndarray:
        """Boolean array: rows whose mask shares no bit with ``mask``.

        Implements the paper's ``bitmask & m = 0`` rewrite filter.  The
        widths need not match: mask bits beyond this vector's width cannot
        overlap any row (parsed SQL masks default to a generous width),
        and a narrower mask is implicitly zero-padded.
        """
        words = min(self.words.shape[1], len(mask.words))
        overlap = self.words[:, :words] & mask.words[np.newaxis, :words]
        return ~overlap.any(axis=1)

    def row_mask(self, row: int) -> Bitmask:
        """Return row ``row``'s mask as a :class:`Bitmask`."""
        mask = Bitmask(self.n_bits)
        mask.words[:] = self.words[row]
        return mask

    def take(self, indices: np.ndarray) -> "BitmaskVector":
        """Return a new vector with the rows at ``indices``."""
        selected = self.words[indices]
        return BitmaskVector(selected.shape[0], self.n_bits, selected)

    def to_ints(self) -> list[int]:
        """Materialise every row mask as a Python integer."""
        return [self.row_mask(i).to_int() for i in range(len(self))]

    def concat(self, other: "BitmaskVector") -> "BitmaskVector":
        """Concatenate two vectors with identical bit width."""
        if self.n_bits != other.n_bits:
            raise ValueError("bit widths differ")
        words = np.concatenate([self.words, other.words], axis=0)
        return BitmaskVector(words.shape[0], self.n_bits, words)
