"""Integer partitions in the fixed canonical order used throughout the package.

Partitions are stored with parts non-increasing, e.g. (2, 1, 1), and written
in bracket notation as "[2+1+1]".  The canonical enumeration order is
lexicographic on the stored tuples, so for n = 4:

    [1+1+1+1], [2+1+1], [2+2], [3+1], [4]
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import MAX_GRAPH_N, check_size, read_number

MAX_PARTITIONS_N = 30  # p(30) = 5604


@dataclass(frozen=True, order=True)
class Partition:
    """A partition of a nonnegative integer into positive parts.

    Equality and order are on `parts`; the hash, the one a frozen dataclass
    would compute, is computed once, since partitions key every concise
    vector's dict.
    """

    parts: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if any(
            not isinstance(p, int) or isinstance(p, bool) or p <= 0 for p in self.parts
        ):
            raise ValueError(f"parts must be positive integers: {self.parts!r}")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"parts must be non-increasing: {self.parts!r}")
        object.__setattr__(self, "_hash", hash((self.parts,)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_sizes(cls, sizes: Iterable[int]) -> "Partition":
        """Build from an unordered iterable of positive part sizes."""
        return cls(tuple(sorted(sizes, reverse=True)))

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse bracket notation like "[2+1+1]"; "[]" is the empty partition.

        Parts are ASCII digits, spaces around them allowed.
        """
        s = text.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"partition text must look like [3+1], got {text!r}")
        body = s[1:-1]
        if not body.strip():
            return cls(())
        sizes = []
        pos = text.index("[") + 1
        for token in body.split("+"):
            tok = token.strip()
            at = pos + token.find(tok)
            size = read_number(tok, at, "part")
            if size is None:
                raise ValueError(f"bad part {tok!r} at position {at} in {text!r}")
            sizes.append(size)
            pos += len(token) + 1
        return cls.from_sizes(sizes)

    @property
    def n(self) -> int:
        return sum(self.parts)

    def to_text(self) -> str:
        return "[" + "+".join(str(p) for p in self.parts) + "]"

    def __str__(self) -> str:
        return self.to_text()


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, each exactly once, in canonical order."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    check_size(n, MAX_PARTITIONS_N, "enumerate_partitions")

    def gen(total: int, cap: int) -> Iterator[tuple[int, ...]]:
        if total == 0:
            yield ()
            return
        for first in range(1, min(total, cap) + 1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    return tuple(Partition(parts) for parts in gen(n, n))


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n."""
    return len(enumerate_partitions(n))


def multinomial(n: int, parts: Iterable[int]) -> int:
    """Multinomial coefficient n! / (p_1! p_2! ... p_r!)."""
    check_size(n, MAX_GRAPH_N, "multinomial")
    parts = tuple(parts)
    if sum(parts) != n:
        raise ValueError(f"parts {parts!r} do not sum to {n}")
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out
