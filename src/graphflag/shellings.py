"""Vertex shellings and the counts attached to them.

A shelling removes the vertices of a graph one at a time; edges vanish with
their endpoints.  Shellings are represented as plain permutation tuples,
first removed vertex first.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .errors import check_size
from .flagvectors import MAX_VERBOSE_N
from .graphs import Graph, bit_indices, component_masks
from .vectors import VerboseVector

Shelling = tuple[int, ...]

MAX_SHELLING_N = 8
MAX_TREE_COMPONENT = 12


def enumerate_shellings(g: Graph) -> Iterator[Shelling]:
    """All n! removal orders of g's vertices, in lexicographic order."""
    check_size(g.n, MAX_SHELLING_N, "enumerate_shellings")
    return itertools.permutations(range(g.n))


def acyclic_shelling_number(g: Graph) -> int:
    """Number of removal orders that take out at most one edge per step.

    Equivalently, orders in which every vertex has residual degree <= 1 at
    its removal.  Zero whenever g contains a cycle.  Counted by depth-first
    search over residual vertex sets, memoised per set.
    """
    check_size(g.n, MAX_SHELLING_N, "acyclic_shelling_number")
    masks = g.neighbor_masks()
    memo = {0: 1}

    def count(remaining: int) -> int:
        got = memo.get(remaining)
        if got is not None:
            return got
        total = 0
        for v in bit_indices(remaining):
            if (masks[v] & remaining).bit_count() <= 1:
                total += count(remaining ^ (1 << v))
        memo[remaining] = total
        return total

    return count((1 << g.n) - 1)


def _leaf_sequence_count(comp: int, masks: tuple[int, ...]) -> int:
    # ways to shrink a tree component to 3 vertices by repeated leaf removal
    memo: dict[int, int] = {}

    def count(rem: int, size: int) -> int:
        if size == 3:
            return 1
        got = memo.get(rem)
        if got is not None:
            return got
        total = 0
        for v in bit_indices(rem):
            if (masks[v] & rem).bit_count() == 1:
                total += count(rem ^ (1 << v), size - 1)
        memo[rem] = total
        return total

    return count(comp, comp.bit_count())


def tree_shelling_number(g: Graph) -> int:
    """Ways to shell each tree component down to 3 vertices, multiplied.

    Components on 3 or fewer vertices contribute a factor of 1; any cycle
    makes the whole count zero.
    """
    masks = g.neighbor_masks()
    total = 1
    for comp in component_masks(masks):
        size = comp.bit_count()
        edge_count = sum((masks[v] & comp).bit_count() for v in bit_indices(comp)) // 2
        if edge_count != size - 1:
            return 0
        if size <= 3:
            continue
        check_size(size, MAX_TREE_COMPONENT, "tree_shelling_number", "tree component size")
        total *= _leaf_sequence_count(comp, masks)
    return total


def verbose_contribution(g: Graph, order: Shelling) -> VerboseVector:
    """Word expansion contributed by one shelling.

    The k-th removed vertex contributes the two-term factor: letter a always,
    letter b weighted by the number of edges from it into the not-yet-removed
    vertices.  The factors multiply left to right in removal order.
    """
    check_size(g.n, MAX_VERBOSE_N, "verbose_contribution")
    if sorted(order) != list(range(g.n)):
        raise ValueError(f"{order!r} is not a permutation of 0..{g.n - 1}")
    masks = g.neighbor_masks()
    remaining = (1 << g.n) - 1
    acc = {"": 1}
    for v in order:
        remaining ^= 1 << v
        m = (masks[v] & remaining).bit_count()
        nxt = {}
        for w, c in acc.items():
            nxt[w + "a"] = c
            if m:
                nxt[w + "b"] = c * m
        acc = nxt
    return VerboseVector._raw(g.n, acc)


def count_semiconcise_flags(g: Graph, word: str) -> int:
    """Count the disjoint-placement configurations of type `word` on g.

    Writing word as a^d(1) b a^d(2) b ... b a^d(r+1) (a trailing run of a's
    is allowed and may be empty), a configuration assigns disjoint unordered
    vertex sets S_i of sizes d(i) and one distinguished vertex per b, using
    every vertex, and picks for each b-vertex an edge of g to some vertex
    placed strictly later.
    """
    # the order of the verbose vectors it is checked against
    check_size(g.n, MAX_VERBOSE_N, "count_semiconcise_flags")
    if len(word) != g.n or any(ch not in "ab" for ch in word):
        raise ValueError(f"word {word!r} must have length {g.n} over letters a,b")
    segments: list[int] = []  # >= 0: unordered block of that size; -1: a b-vertex
    run = 0
    for ch in word:
        if ch == "a":
            run += 1
        else:
            segments.append(run)
            segments.append(-1)
            run = 0
    segments.append(run)

    masks = g.neighbor_masks()
    memo: dict[tuple[int, int], int] = {}

    def place(remaining: int, idx: int) -> int:
        if idx == len(segments):
            return 1
        key = (remaining, idx)
        got = memo.get(key)
        if got is not None:
            return got
        seg = segments[idx]
        total = 0
        if seg >= 0:
            if seg == 0:
                total = place(remaining, idx + 1)
            else:
                for pick in itertools.combinations(list(bit_indices(remaining)), seg):
                    rem = remaining
                    for v in pick:
                        rem ^= 1 << v
                    total += place(rem, idx + 1)
        else:
            for v in bit_indices(remaining):
                rem = remaining ^ (1 << v)
                ways = (masks[v] & rem).bit_count()
                if ways:
                    total += ways * place(rem, idx + 1)
        memo[key] = total
        return total

    return place((1 << g.n) - 1, 0)
