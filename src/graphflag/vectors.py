"""Integer formal sums: one base and the flag-vector classes built on it.

`FormalVector` holds the arithmetic of every integer formal sum in the
package: the word vectors and partition vectors here, and `GraphSum` in
`graphs`.  Sums are immutable value objects supporting addition,
subtraction, integer scaling and exact equality between sums of one class
and one size `n`.  Zero coefficients are never stored.  Also the codec of
packed vectors, the integer format of flag vectors and facet values.
"""

from __future__ import annotations

import operator
import struct
from typing import Iterable, Sequence

from .partitions import Partition


class FormalVector:
    """Integer-coefficient formal sum of size n over a per-class key set.

    A subclass supplies `_key`, which validates a key given to the
    constructor and returns the key to store; it may override `_item_order`,
    the sort key of `items()`, which sorts by key by default.
    """

    __slots__ = ("n", "_coeffs")

    def __init__(self, n: int, coeffs=None):
        self.n = n
        acc: dict = {}
        key_of = self._key
        for key, c in dict(coeffs or {}).items():
            key = key_of(key)
            acc[key] = acc.get(key, 0) + operator.index(c)
        self._coeffs = {k: c for k, c in acc.items() if c}

    @classmethod
    def _raw(cls, n: int, coeffs: dict):
        """Internal: build from stored keys and integer values the program
        produced itself, dropping zeros without re-checking."""
        return cls._own(n, {k: c for k, c in coeffs.items() if c})

    @classmethod
    def _own(cls, n: int, coeffs: dict):
        """Internal: wrap a dict of stored keys and nonzero integer values
        that the caller hands over, without a copy."""
        out = object.__new__(cls)
        out.n = n
        out._coeffs = coeffs
        return out

    def _key(self, key):
        raise NotImplementedError

    _item_order = staticmethod(operator.itemgetter(0))

    def _compatible(self, other) -> bool:
        return type(other) is type(self) and other.n == self.n

    def coefficient(self, key) -> int:
        return self._coeffs.get(key, 0)

    def __getitem__(self, key) -> int:
        return self.coefficient(key)

    # not a sequence: without this, iteration and `in` would fall back on
    # __getitem__ and call v[0], v[1], ... without end
    __iter__ = None

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __len__(self) -> int:
        return len(self._coeffs)

    def items(self) -> tuple:
        return tuple(sorted(self._coeffs.items(), key=self._item_order))

    def to_mapping(self) -> dict:
        return dict(self.items())

    def to_text(self) -> str:
        return " ".join(f"{k}:{c}" for k, c in self.items()) or "0"

    def __repr__(self) -> str:
        body = {str(k): c for k, c in self.items()}
        return f"{type(self).__name__}({self.n}, {body!r})"

    def __add__(self, other):
        if not self._compatible(other):
            return NotImplemented
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            out[k] = out.get(k, 0) + c
        return self._raw(self.n, out)

    def __sub__(self, other):
        if not self._compatible(other):
            return NotImplemented
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            out[k] = out.get(k, 0) - c
        return self._raw(self.n, out)

    def __neg__(self):
        return self._raw(self.n, {k: -c for k, c in self._coeffs.items()})

    def __mul__(self, scalar):
        scalar = operator.index(scalar)
        return self._raw(self.n, {k: scalar * c for k, c in self._coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not self._compatible(other):
            return NotImplemented
        return self._coeffs == other._coeffs

    __hash__ = None


class _WordVector(FormalVector):
    """Integer combination of length-n words over the class's alphabet."""

    __slots__ = ()

    alphabet: str

    def _key(self, word):
        if (
            not isinstance(word, str)
            or len(word) != self.n
            or any(ch not in self.alphabet for ch in word)
        ):
            raise ValueError(
                f"key {word!r} is not a length-{self.n} word over {self.alphabet!r}"
            )
        return word


def add_letter_product(
    total: dict[str, int], coeff: int, factors: Iterable[dict[str, int]]
) -> dict[str, int]:
    """Add coeff times the product of per-position factors into total, and
    return total.

    Factor k maps each letter to its weight at position k, so the product
    has one word per choice of a letter at every position, weighted by the
    product of their weights; letters of weight zero are left out.
    """
    acc = {"": coeff}
    for factor in factors:
        acc = {w + ch: c * x for ch, x in factor.items() if x for w, c in acc.items()}
    for w, c in acc.items():
        total[w] = total.get(w, 0) + c
    return total


class VerboseVector(_WordVector):
    """Integer combination of length-n words over the letters a and b.

    The left end of a word corresponds to the first vertex removed in a
    shelling.  The 0-vertex case is a scalar on the empty word.
    """

    __slots__ = ()

    alphabet = "ab"


class EdgeWordVector(_WordVector):
    """Integer combination of length-m words over the letters a, b and c."""

    __slots__ = ()

    alphabet = "abc"

    @property
    def m(self) -> int:
        """The word length, one letter per removed edge."""
        return self.n


class ConciseVector(FormalVector):
    """Integer combination of partitions of n."""

    __slots__ = ()

    def _key(self, part):
        if not isinstance(part, Partition) or part.n != self.n:
            raise ValueError(f"key {part!r} is not a partition of {self.n}")
        return part


# ---------------------------------------------------------------------------
# packed vectors: slot i holds value i in the `width` bytes from byte
# i * width, little-endian, so value i is weighted 2^(8 width i)

_FORMATS = {1: "Bb", 2: "Hh", 4: "Ii", 8: "Qq"}  # struct's codes, unsigned and signed


def slot_bytes(bound: int) -> int:
    """Bytes per packed slot holding values 0..bound: the least of 1, 2, 4
    and 8 that do, so one struct call reads every slot, else whole bytes."""
    size = (bound.bit_length() + 7) // 8
    return next((w for w in _FORMATS if w >= size), size)


def pack_slots(values: Iterable[int], width: int) -> int:
    """The values, negative ones too, summed weighted by slot: linear, so a
    combination of packed vectors reads back while its values fit a slot."""
    return sum(x << 8 * width * i for i, x in enumerate(values))


def read_slots(packed: int, count: int, width: int) -> Sequence[int]:
    """The first `count` slots of a packed vector of values in 0..2^(8
    width) - 1: one struct call at 1, 2, 4 or 8 bytes, else whole bytes."""
    return _decode(packed.to_bytes(width * count, "little"), width, False)


def read_signed_slots(packed: int, count: int, width: int) -> Sequence[int]:
    """read_slots of values in -2^(8 width - 1)..2^(8 width - 1) - 1: adding
    2^(8 width - 1) to every slot keeps each in range, so none borrows from
    the next, and one XOR flips every top bit back to two's complement."""
    top = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    return _decode(((packed + top) ^ top).to_bytes(width * count, "little"), width, True)


def _decode(raw: bytes, width: int, signed: bool) -> Sequence[int]:
    if width in _FORMATS:
        return struct.unpack(f"<{len(raw) // width}{_FORMATS[width][signed]}", raw)
    starts = range(0, len(raw), width)
    return [int.from_bytes(raw[i : i + width], "little", signed=signed) for i in starts]


def widen_slots(packed: int, count: int, width: int, wide: int) -> int:
    """The same `count` slots, each widened from `width` to `wide` bytes:
    byte b of every slot in one slice."""
    raw = packed.to_bytes(width * count, "little")
    out = bytearray(wide * count)
    for b in range(width):
        out[b::wide] = raw[b::width]
    return int.from_bytes(out, "little")
