"""Computations the output checks compare against, written apart from the
program: a subset DP for verbose flag vectors, the concise-to-verbose map,
partition counts and exact rank.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def verbose_oracle(n: int, edges: Iterable) -> dict[str, int]:
    """Verbose flag vector by the subset DP
    f(S) = sum over v in S of (a + deg_S(v) b) f(S - v), letters prepended.
    """
    nbr = [0] * n
    for i, j in edges:
        nbr[i] |= 1 << j
        nbr[j] |= 1 << i
    f: list[dict[str, int]] = [{"": 1}] + [{} for _ in range((1 << n) - 1)]
    for s in range(1, 1 << n):
        acc = f[s]
        for v in _bits(s):
            deg = (nbr[v] & s).bit_count()
            for w, c in f[s ^ (1 << v)].items():
                acc["a" + w] = acc.get("a" + w, 0) + c
                if deg:
                    acc["b" + w] = acc.get("b" + w, 0) + deg * c
    return f[-1]


def optional_verbose_oracle(n: int, regular, optional) -> dict[str, int]:
    """Inclusion-exclusion over the optional edges: each subset B of them
    adds the graph with edges regular + B, signed by (-1)^(|optional|-|B|)."""
    opt = sorted(optional)
    total: dict[str, int] = {}
    for mask in range(1 << len(opt)):
        sign = -1 if (len(opt) - mask.bit_count()) % 2 else 1
        edges = list(regular) + [opt[k] for k in _bits(mask)]
        for w, c in verbose_oracle(n, edges).items():
            total[w] = total.get(w, 0) + sign * c
    return {w: c for w, c in total.items() if c}


@lru_cache(maxsize=None)
def _interleavings(words: tuple[str, ...]) -> dict[str, int]:
    # interleavings of distinguishable words; the key is the sorted multiset
    if not any(words):
        return {"": 1}
    out: dict[str, int] = {}
    for k, w in enumerate(words):
        if w:
            rest = tuple(sorted(words[:k] + (w[1:],) + words[k + 1:]))
            for tail, c in _interleavings(rest).items():
                out[w[0] + tail] = out.get(w[0] + tail, 0) + c
    return out


def component_scale(size: int) -> int:
    return 1 if size == 1 else 2 if size == 2 else 4


def concise_to_verbose(items: Iterable) -> dict[str, int]:
    """The paper's concise-to-verbose map: partition lambda with coefficient
    c adds c times the product of component scales times the shuffle of the
    words b^(m-1) a, one per part m."""
    total: dict[str, int] = {}
    for parts, c in items:
        scale = c * math.prod(component_scale(m) for m in parts)
        words = tuple(sorted("b" * (m - 1) + "a" for m in parts))
        for w, k in _interleavings(words).items():
            total[w] = total.get(w, 0) + scale * k
    return {w: c for w, c in total.items() if c}


def multinomial(n: int, parts) -> int:
    out = math.factorial(n)
    for m in parts:
        out //= math.factorial(m)
    return out


def partition_count(n: int, cap: int | None = None) -> int:
    """p(n): partitions of n into parts no larger than cap."""
    cap = n if cap is None else cap
    if n == 0:
        return 1
    return sum(partition_count(n - k, k) for k in range(1, min(n, cap) + 1))


def rank(rows) -> int:
    """Exact rank by Gaussian elimination over the rationals."""
    work = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(work[0]) if work else 0):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(r + 1, len(work)):
            if work[i][c]:
                f = work[i][c] / work[r][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def affine_rank(points) -> int:
    """Dimension of the affine hull of integer points."""
    points = list(points)
    if len(points) < 2:
        return 0
    p0 = points[0]
    return rank([[a - b for a, b in zip(p, p0)] for p in points[1:]])


def relabel(edges, perm) -> frozenset:
    """Edge set after moving vertex v to perm[v]."""
    return frozenset((min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in edges)
