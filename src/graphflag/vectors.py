"""Integer formal vectors indexed by words or by partitions.

All three vector classes are immutable value objects supporting addition,
subtraction, integer scaling and exact equality.  Zero coefficients are
never stored.
"""

from __future__ import annotations

import operator

from .partitions import Partition


class _FormalVector:
    """Shared arithmetic for integer-coefficient formal sums."""

    __slots__ = ()

    _coeffs: dict

    def _with_coeffs(self, coeffs: dict) -> "_FormalVector":
        raise NotImplementedError

    def _signature(self):
        raise NotImplementedError

    def _compatible(self, other) -> bool:
        return type(other) is type(self) and other._signature() == self._signature()

    def coefficient(self, key) -> int:
        return self._coeffs.get(key, 0)

    def __getitem__(self, key) -> int:
        return self.coefficient(key)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __len__(self) -> int:
        return len(self._coeffs)

    def __add__(self, other):
        if not self._compatible(other):
            return NotImplemented
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            out[k] = out.get(k, 0) + c
        return self._with_coeffs(out)

    def __sub__(self, other):
        if not self._compatible(other):
            return NotImplemented
        out = dict(self._coeffs)
        for k, c in other._coeffs.items():
            out[k] = out.get(k, 0) - c
        return self._with_coeffs(out)

    def __neg__(self):
        return self._with_coeffs({k: -c for k, c in self._coeffs.items()})

    def __mul__(self, scalar):
        scalar = operator.index(scalar)
        return self._with_coeffs({k: scalar * c for k, c in self._coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not self._compatible(other):
            return NotImplemented
        return self._coeffs == other._coeffs

    __hash__ = None


def _clean_word_coeffs(length: int, coeffs, alphabet: str) -> dict:
    clean = {}
    for word, c in dict(coeffs or {}).items():
        if (
            not isinstance(word, str)
            or len(word) != length
            or any(ch not in alphabet for ch in word)
        ):
            raise ValueError(
                f"key {word!r} is not a length-{length} word over {alphabet!r}"
            )
        c = operator.index(c)
        if c:
            clean[word] = c
    return clean


class VerboseVector(_FormalVector):
    """Integer combination of length-n words over the letters a and b.

    The left end of a word corresponds to the first vertex removed in a
    shelling.  The 0-vertex case is a scalar on the empty word.
    """

    __slots__ = ("n", "_coeffs")

    def __init__(self, n: int, coeffs=None):
        self.n = n
        self._coeffs = _clean_word_coeffs(n, coeffs, "ab")

    @classmethod
    def _raw(cls, n: int, coeffs: dict) -> "VerboseVector":
        """Internal: build from length-n words over a, b and integer values
        the program produced itself, dropping zeros without re-checking."""
        out = object.__new__(cls)
        out.n = n
        out._coeffs = {w: c for w, c in coeffs.items() if c}
        return out

    def _with_coeffs(self, coeffs):
        return VerboseVector._raw(self.n, coeffs)

    def _signature(self):
        return self.n

    def items(self) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(self._coeffs.items()))

    def to_mapping(self) -> dict[str, int]:
        return dict(self.items())

    def to_text(self) -> str:
        return " ".join(f"{w}:{c}" for w, c in self.items()) or "0"

    def __repr__(self) -> str:
        return f"VerboseVector({self.n}, {dict(self.items())!r})"


class EdgeWordVector(_FormalVector):
    """Integer combination of length-m words over the letters a, b and c."""

    __slots__ = ("m", "_coeffs")

    def __init__(self, m: int, coeffs=None):
        self.m = m
        self._coeffs = _clean_word_coeffs(m, coeffs, "abc")

    def _with_coeffs(self, coeffs):
        return EdgeWordVector(self.m, coeffs)

    def _signature(self):
        return self.m

    def items(self) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(self._coeffs.items()))

    def to_mapping(self) -> dict[str, int]:
        return dict(self.items())

    def to_text(self) -> str:
        return " ".join(f"{w}:{c}" for w, c in self.items()) or "0"

    def __repr__(self) -> str:
        return f"EdgeWordVector({self.m}, {dict(self.items())!r})"


class ConciseVector(_FormalVector):
    """Integer combination of partitions of n."""

    __slots__ = ("n", "_coeffs")

    def __init__(self, n: int, coeffs=None):
        self.n = n
        clean = {}
        for part, c in dict(coeffs or {}).items():
            if not isinstance(part, Partition) or part.n != n:
                raise ValueError(f"key {part!r} is not a partition of {n}")
            c = operator.index(c)
            if c:
                clean[part] = c
        self._coeffs = clean

    def _with_coeffs(self, coeffs):
        return ConciseVector(self.n, coeffs)

    def _signature(self):
        return self.n

    def items(self) -> tuple[tuple[Partition, int], ...]:
        return tuple(sorted(self._coeffs.items()))

    def to_mapping(self) -> dict[Partition, int]:
        return dict(self.items())

    def to_text(self) -> str:
        return " ".join(f"{p.to_text()}:{c}" for p, c in self.items()) or "0"

    def __repr__(self) -> str:
        body = {p.to_text(): c for p, c in self.items()}
        return f"ConciseVector({self.n}, {body!r})"
