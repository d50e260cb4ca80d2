"""Vertex shellings and the counts attached to them.

A shelling removes the vertices of a graph one at a time; edges vanish with
their endpoints.  Shellings are represented as plain permutation tuples,
first removed vertex first.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator

from .errors import check_size
from .flagvectors import MAX_VERBOSE_N
from .graphs import Graph, bit_indices, component_masks
from .vectors import VerboseVector, add_letter_product

Shelling = tuple[int, ...]

MAX_SHELLING_N = 8
MAX_TREE_COMPONENT = 12


def enumerate_shellings(g: Graph) -> Iterator[Shelling]:
    """All n! removal orders of g's vertices, in lexicographic order."""
    check_size(g.n, MAX_SHELLING_N, "enumerate_shellings")
    return itertools.permutations(range(g.n))


def _peel_count(masks: tuple[int, ...], remaining: int, stop: int) -> int:
    """Orders that remove the vertices of `remaining` until `stop` are left,
    each with at most one edge into the vertices still there."""

    @functools.cache
    def count(rem: int) -> int:
        if rem.bit_count() == stop:
            return 1
        return sum(
            count(rem ^ (1 << v))
            for v in bit_indices(rem)
            if (masks[v] & rem).bit_count() <= 1
        )

    return count(remaining)


def acyclic_shelling_number(g: Graph) -> int:
    """Number of removal orders that take out at most one edge per step.

    Equivalently, orders in which every vertex has residual degree <= 1 at
    its removal.  Zero whenever g contains a cycle.  Counted by depth-first
    search over residual vertex sets, memoised per set.
    """
    check_size(g.n, MAX_SHELLING_N, "acyclic_shelling_number")
    return _peel_count(g.neighbor_masks(), (1 << g.n) - 1, 0)


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
        # until 3 are left the rest is a tree of 4 or more vertices, whose
        # vertices with at most one edge are its leaves
        total *= _peel_count(masks, comp, 3)
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
    factors = []
    for v in order:
        remaining ^= 1 << v
        factors.append({"a": 1, "b": (masks[v] & remaining).bit_count()})
    return VerboseVector._raw(g.n, add_letter_product({}, 1, factors))


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

    @functools.cache
    def place(remaining: int, idx: int) -> int:
        if idx == len(segments):
            return 1
        seg = segments[idx]
        if seg >= 0:
            return sum(
                place(remaining ^ sum(1 << v for v in pick), idx + 1)
                for pick in itertools.combinations(bit_indices(remaining), seg)
            )
        total = 0
        for v in bit_indices(remaining):
            rem = remaining ^ (1 << v)
            ways = (masks[v] & rem).bit_count()
            if ways:  # a b-vertex with no edge ahead places nothing
                total += ways * place(rem, idx + 1)
        return total

    return place((1 << g.n) - 1, 0)
