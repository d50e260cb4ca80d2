"""Labelled graphs, optional-edge graphs, canonical forms and formal sums.

Vertices are the integers 0..n-1.  Edges are unordered pairs stored as
sorted tuples (i, j) with i < j.  The fixed pair order is lexicographic:
(0,1), (0,2), ..., (0,n-1), (1,2), ..., and the serialised canonical form
is "n:bitstring" with one bit per pair in that order.

A canonical form is the lexicographically least adjacency bitstring over
all n! relabellings.  The search holds the relabellings in a numpy table and
filters it one adjacency row at a time, the row order of canonical
labelling searches (McKay and Piperno, "Practical graph isomorphism, II",
J. Symbolic Comput. 60, 2014): row k of each relabelling still alive is
keyed, and only those with the least row stay.  It is exact, and a graph
whose relabellings all tie (K_n) still keeps the whole table.  numpy is
imported by that search alone, so parsing, flag vectors and class
enumeration never load it.

Classes are enumerated on the same least-bitstring form by Read's orderly
generation (Read, "Every one a winner", Ann. Discrete Math. 2, 1978; McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998): each least
string is grown from its parent, and an exact pure-Python search over
ordered vertex partitions decides whether a candidate is least.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import MAX_GRAPH_N, GraphParseError, check_size, read_number
from .partitions import Partition
from .vectors import FormalVector

if TYPE_CHECKING:
    import numpy as np

Edge = tuple[int, int]

MAX_CANONICAL_N = 10  # row filter over all n! relabellings
MAX_ENUMERATE_N = 8
MAX_EXPAND_WORK = 2**24  # 2^k n!: 2^k terms of k optional edges, n! relabellings each
MAX_PAIR_ORDER_N = 256  # pair_order, and so bitstrings, serialisation and complements

_BLOCK_N = 8  # for n >= 9 the relabellings are filtered in blocks of 8! rows


def bit_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits of a nonnegative integer, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# the most recent n, enough for every n a canonical form takes (n = 256 alone
# has 32,640 pairs)
@lru_cache(maxsize=MAX_CANONICAL_N + 1)
def pair_order(n: int) -> tuple[Edge, ...]:
    """All vertex pairs (i, j) with i < j, in the fixed lexicographic order."""
    check_size(n, MAX_PAIR_ORDER_N, "pair_order")
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def neighbor_masks(n: int, edges: Iterable[Edge]) -> tuple[int, ...]:
    """Per-vertex adjacency of edges on vertices 0..n-1, as bitmasks."""
    masks = [0] * n
    for i, j in edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return tuple(masks)


def _check_edges(n: int, edges: frozenset) -> None:
    for e in edges:
        if (
            not isinstance(e, tuple)
            or len(e) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in e)
        ):
            raise ValueError(f"edge {e!r} is not a pair of ints")
        i, j = e
        if not (0 <= i < j < n):
            raise ValueError(f"edge {e!r} out of range for n={n}")


@dataclass(frozen=True)
class Graph:
    """An ordinary graph: a vertex count and a set of unordered edges."""

    n: int
    edges: frozenset

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 0:
            raise ValueError(f"vertex count must be a nonnegative int, got {self.n!r}")
        check_size(self.n, MAX_GRAPH_N, "Graph")
        if not isinstance(self.edges, frozenset):
            object.__setattr__(self, "edges", frozenset(self.edges))
        _check_edges(self.n, self.edges)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable = ()) -> "Graph":
        """Build from an iterable of pairs, normalising each to (min, max)."""
        norm = frozenset((min(int(a), int(b)), max(int(a), int(b))) for a, b in edges)
        return cls(n, norm)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-vertex adjacency as bitmasks over vertex indices."""
        return neighbor_masks(self.n, self.edges)

    def relabel(self, perm: tuple[int, ...]) -> "Graph":
        """Apply a vertex relabelling, perm[old] = new."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"{perm!r} is not a permutation of 0..{self.n - 1}")
        edges = frozenset(
            (min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in self.edges
        )
        return Graph(self.n, edges)

    def disjoint_union(self, other: "Graph") -> "Graph":
        shifted = frozenset((i + self.n, j + self.n) for i, j in other.edges)
        return Graph(self.n + other.n, self.edges | shifted)

    def bitstring(self) -> str:
        return "".join(
            "1" if pair in self.edges else "0" for pair in pair_order(self.n)
        )

    @classmethod
    def from_bitstring(cls, n: int, bits: str) -> "Graph":
        # the length first: pair_order(n) is cached and has n(n-1)/2 pairs
        if len(bits) != n * (n - 1) // 2 or any(ch not in "01" for ch in bits):
            raise ValueError(f"bitstring {bits!r} does not fit n={n}")
        pairs = pair_order(n)
        return cls(n, frozenset(p for p, ch in zip(pairs, bits) if ch == "1"))

    def serialize(self) -> str:
        """Stable "n:bitstring" form over the fixed pair order."""
        return f"{self.n}:{self.bitstring()}"

    def to_text(self) -> str:
        """Edge-list form in the input grammar, e.g. "3:0-1,1-2"."""
        body = ",".join(f"{i}-{j}" for i, j in sorted(self.edges))
        return f"{self.n}:{body}"

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class OptionalGraph:
    """A graph with a disjoint set of optional (two-valued choice) edges."""

    n: int
    regular: frozenset
    optional: frozenset

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 0:
            raise ValueError(f"vertex count must be a nonnegative int, got {self.n!r}")
        check_size(self.n, MAX_GRAPH_N, "OptionalGraph")
        for name in ("regular", "optional"):
            if not isinstance(getattr(self, name), frozenset):
                object.__setattr__(self, name, frozenset(getattr(self, name)))
        _check_edges(self.n, self.regular)
        _check_edges(self.n, self.optional)
        overlap = self.regular & self.optional
        if overlap:
            raise ValueError(f"edges {sorted(overlap)} are both regular and optional")

    @classmethod
    def from_graph(cls, g: Graph) -> "OptionalGraph":
        return cls(g.n, g.edges, frozenset())

    @property
    def is_ordinary(self) -> bool:
        return not self.optional

    def as_graph(self) -> Graph:
        if self.optional:
            raise ValueError("graph has optional edges; expand it first")
        return Graph(self.n, self.regular)

    def relabel(self, perm: tuple[int, ...]) -> "OptionalGraph":
        reg = Graph(self.n, self.regular).relabel(perm).edges
        opt = Graph(self.n, self.optional).relabel(perm).edges
        return OptionalGraph(self.n, reg, opt)

    def to_text(self) -> str:
        toks = [f"{i}-{j}" for i, j in sorted(self.regular)]
        toks += [f"?{i}-{j}" for i, j in sorted(self.optional)]
        return f"{self.n}:" + ",".join(toks)

    def __str__(self) -> str:
        return self.to_text()


def parse_graph(text: str) -> OptionalGraph:
    """Parse `n ":" edge ("," edge)*` where edge is `["?"] i "-" j`.

    A leading "?" marks an optional edge; `n ":"` alone is the edgeless
    graph.  Rejects self-loops, out-of-range indices and duplicate pairs
    (including a pair listed both regular and optional), reporting the
    character position of the offending token.
    """
    colon = text.find(":")
    if colon < 0:
        raise GraphParseError(f"missing ':' in graph text {text!r}")
    head = text[:colon].strip()
    n = read_number(head, 0, "vertex count")
    if n is None:
        raise GraphParseError(f"bad vertex count {head!r} at position 0")
    check_size(n, MAX_GRAPH_N, "parse_graph")

    regular: set[Edge] = set()
    optional: set[Edge] = set()
    rest = text[colon + 1 :]
    if rest.strip():
        pos = colon + 1
        for token in rest.split(","):
            start = pos
            pos += len(token) + 1
            tok = token.strip()
            at = start + token.find(tok) if tok else start
            if not tok:
                raise GraphParseError(f"empty edge at position {start}")
            is_opt = tok.startswith("?")
            body = tok[1:] if is_opt else tok
            left, dash, right = body.partition("-")
            left, right = left.strip(), right.strip()
            i = read_number(left, at, "vertex index")
            j = read_number(right, at, "vertex index")
            if not dash or i is None or j is None:
                raise GraphParseError(f"bad edge {tok!r} at position {at}")
            if i == j:
                raise GraphParseError(f"self-loop {tok!r} at position {at}")
            if not (0 <= i < n and 0 <= j < n):
                raise GraphParseError(
                    f"vertex out of range in {tok!r} at position {at} (n={n})"
                )
            pair = (min(i, j), max(i, j))
            if pair in regular or pair in optional:
                raise GraphParseError(f"duplicate edge {tok!r} at position {at}")
            (optional if is_opt else regular).add(pair)
    return OptionalGraph(n, frozenset(regular), frozenset(optional))


@lru_cache(maxsize=None)
def _perm_array(n: int) -> np.ndarray:
    """Every permutation of 0..n-1 as an int8 row, in lexicographic order."""
    import numpy as np

    if n == 0:
        return np.zeros((1, 0), dtype=np.int8)
    sub = _perm_array(n - 1)
    table = np.empty((n, len(sub), n), dtype=np.int8)
    for first in range(n):
        table[first, :, 0] = first
        table[first, :, 1:] = np.delete(np.arange(n, dtype=np.int8), first)[sub]
    return table.reshape(-1, n)


def _perm_chunks(n: int) -> Iterator[np.ndarray]:
    """`_perm_array(n)` in blocks of at most 8! rows, in the same order.

    For n >= 9 each block is one (n-8)-prefix, in lexicographic order, with
    every ordering of the other 8 vertices after it.
    """
    import numpy as np

    if n <= _BLOCK_N:
        yield _perm_array(n)
        return
    tail = _perm_array(_BLOCK_N)
    for prefix in itertools.permutations(range(n), n - _BLOCK_N):
        rest = np.array([v for v in range(n) if v not in prefix], dtype=np.int8)
        block = np.empty((len(tail), n), dtype=np.int8)
        block[:, : n - _BLOCK_N] = prefix
        block[:, n - _BLOCK_N :] = rest[tail]
        yield block


def _inverse_perm(q: tuple[int, ...]) -> tuple[int, ...]:
    rho = [0] * len(q)
    for new, old in enumerate(q):
        rho[old] = new
    return tuple(rho)


def _least_rows(adjacency: np.ndarray, perms: np.ndarray) -> tuple[int, np.ndarray]:
    """The least relabelled bitstring over the relabellings `perms` (rows
    q with q[new] = old), packed first pair in the top bit, with a witness.

    Row k of a relabelled string holds the pairs (k, k+1), ..., (k, n-1),
    gathered as adjacency[q[k], q[k+1..n-1]] and keyed in n-1-k bits.  Rows
    have fixed widths, so strings compare as their rows do: keeping, row by
    row, only the relabellings whose row is least leaves exactly those whose
    whole string is least.  Boolean masks keep `perms` in order, so the
    witness is the first of them.
    """
    import numpy as np

    n = perms.shape[1]
    code = 0
    for k in range(n - 1):
        width = n - 1 - k
        row = adjacency[perms[:, k, None], perms[:, k + 1 :]]
        key = row @ (1 << np.arange(width - 1, -1, -1, dtype=np.int16))
        least = key.min()
        code = code << width | int(least)
        perms = perms[key == least]
    return code, perms[0]


def _min_relabelling(n: int, edges: frozenset) -> tuple[int, tuple[int, ...]]:
    """Least adjacency bitstring over all relabellings, packed as a key.

    Returns (the least string, first pair in the top bit; witness q with
    q[new] = old).  Ties resolve to the first permutation in lexicographic
    order, so the result is deterministic.
    """
    import numpy as np

    adjacency = np.zeros((n, n), dtype=np.uint8)
    for i, j in edges:
        adjacency[i, j] = adjacency[j, i] = 1
    best_code = best_perm = None
    for block in _perm_chunks(n):
        code, perm = _least_rows(adjacency, block)
        if best_code is None or code < best_code:  # strict: the first block wins ties
            best_code, best_perm = code, perm
    return best_code, tuple(int(x) for x in best_perm)


def canonical_form(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Least adjacency bitstring over all n! relabellings, with a witness.

    Returns (canonical, rho) with rho[old] = new; relabelling g by rho gives
    the canonical graph.  Two graphs have equal canonical forms iff they are
    isomorphic.  The relabellings are filtered row by row (`_least_rows`),
    and of those that give the least string the witness is the first
    q = rho^-1 in lexicographic order.
    """
    n = g.n
    check_size(n, MAX_CANONICAL_N, "canonical_form")
    if n <= 1 or not g.edges:
        return g, tuple(range(n))
    code, q = _min_relabelling(n, g.edges)
    top = n * (n - 1) // 2 - 1
    edges = frozenset(p for k, p in enumerate(pair_order(n)) if code >> top - k & 1)
    return Graph(n, edges), _inverse_perm(q)


def _is_least(masks: Sequence[int], code: int) -> bool:
    """Whether `code` is the least adjacency bitstring over all relabellings
    of the graph whose per-vertex neighbour masks are `masks`.

    `code` packs that graph's own bitstring, first pair in the top bit.  The
    search fixes the relabelled string row by row: row k holds the pairs
    (k, k+1), ..., (k, n-1).  A branch is an ordered partition of the
    unplaced vertices into cells, fixed by rows 0..k-1; position k takes a
    vertex v of the first cell, and every cell splits into its
    non-neighbours of v followed by its neighbours of v, the least row k
    that choice allows.  Only branches whose row k equals the graph's own go
    on, merged when their cells agree.  Every relabelling whose rows 0..k
    are least lies below a kept branch, so the string is least iff no branch
    ever beats its own row: exact, with no invariant and no sampling.
    """
    n = len(masks)
    shift = n * (n - 1) // 2
    branches = {((1 << n) - 1,)}
    for k in range(n - 1):
        width = n - 1 - k
        shift -= width
        own = code >> shift & ((1 << width) - 1)
        kept = set()
        for first, *rest in branches:
            for v in bit_indices(first):
                adj = masks[v]
                row = 0
                cells = []
                for cell in (first & ~(1 << v), *rest):
                    off, on = cell & ~adj, cell & adj
                    row = row << cell.bit_count() | (1 << on.bit_count()) - 1
                    cells += [part for part in (off, on) if part]
                if row < own:
                    return False
                if row == own:
                    kept.add(tuple(cells))
        branches = kept
    return True


@lru_cache(maxsize=None)
def enumerate_graphs(n: int) -> tuple[Graph, ...]:
    """One canonical representative per isomorphism class, in canonical order.

    Read's orderly generation ("Every one a winner", Ann. Discrete Math. 2,
    1978; see also McKay, "Isomorph-free exhaustive generation", J.
    Algorithms 26, 1998) on the least-bitstring form.  Setting the last 0 of
    a least string to 1 gives a least string, so the least strings form a
    tree rooted at K_n: the children of s clear one 1 inside its trailing run
    of ones, and a child is kept iff `_is_least` accepts it.  Each class
    appears exactly once, and no canonical form is computed.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    check_size(n, MAX_ENUMERATE_N, "enumerate_graphs")
    pairs = pair_order(n)
    m = len(pairs)  # bit i of a code is the pair pairs[m - 1 - i]
    full = (1 << n) - 1
    found = []
    stack = [((1 << m) - 1, [full & ~(1 << v) for v in range(n)])]
    while stack:
        code, masks = stack.pop()
        found.append(code)
        trailing_ones = (~code & code + 1).bit_length() - 1
        for i in range(trailing_ones):
            a, b = pairs[m - 1 - i]
            child, child_masks = code ^ 1 << i, masks.copy()
            child_masks[a] ^= 1 << b
            child_masks[b] ^= 1 << a
            if _is_least(child_masks, child):
                stack.append((child, child_masks))
    found.sort()
    return tuple(
        Graph(n, frozenset(pairs[m - 1 - i] for i in bit_indices(code)))
        for code in found
    )


def component_masks(masks: Sequence[int]) -> list[int]:
    """Connected components of the graph with these per-vertex neighbour
    masks, as vertex bitmasks in order of their least vertex."""
    unseen = (1 << len(masks)) - 1
    comps = []
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            grow = 0
            for v in bit_indices(frontier):
                grow |= masks[v]
            frontier = grow & ~comp
            comp |= frontier
        unseen &= ~comp
        comps.append(comp)
    return comps


def connected_partition(g: Graph) -> Partition:
    """Connected-component sizes of g, as a partition of n."""
    comps = component_masks(g.neighbor_masks())
    return Partition.from_sizes(c.bit_count() for c in comps)


class GraphSum(FormalVector):
    """Integer formal sum of n-vertex graphs, keyed by canonical forms."""

    __slots__ = ()

    @staticmethod
    def _item_order(item: tuple[Graph, int]) -> str:
        return item[0].bitstring()

    def _key(self, g):
        if not isinstance(g, Graph):
            raise TypeError(f"GraphSum terms must be Graphs, got {g!r}")
        if g.n != self.n:
            raise ValueError(
                f"term on {g.n} vertices in a sum of {self.n}-vertex graphs"
            )
        return canonical_form(g)[0]

    @classmethod
    def from_graph(cls, g: Graph, coefficient: int = 1) -> "GraphSum":
        return cls(g.n, {g: coefficient})

    def coefficient(self, g: Graph) -> int:
        return self._coeffs.get(canonical_form(g)[0], 0)

    def disjoint_union(self, other: "GraphSum") -> "GraphSum":
        """Bilinear extension of the disjoint union of graphs."""
        return GraphSum(self.n + other.n, {
            g.disjoint_union(h): cg * ch
            for g, cg in self._coeffs.items() for h, ch in other._coeffs.items()
        })

    def __repr__(self) -> str:
        body = ", ".join(f"{c}*{g.to_text()!r}" for g, c in self.items())
        return f"GraphSum({self.n}: {body})"


def expand(og: OptionalGraph) -> GraphSum:
    """Inclusion-exclusion expansion of optional edges into a signed sum.

    Each subset B of the optional set contributes the ordinary graph with
    edges E union B, signed by (-1)^(|C|-|B|).  Every term is keyed by its
    canonical form, so n is bounded as there, and the 2^|C| searches of up
    to n! relabellings each are bounded together.
    """
    check_size(og.n, MAX_CANONICAL_N, "expand")
    choices = sorted(og.optional)
    work = 2 ** len(choices) * math.factorial(og.n)
    check_size(work, MAX_EXPAND_WORK, "expand", "2^(optional edges) * n!")
    return GraphSum(og.n, {
        Graph(og.n, og.regular | frozenset(pick)): (-1) ** (len(choices) - r)
        for r in range(len(choices) + 1) for pick in itertools.combinations(choices, r)
    })


def complement(g: Graph) -> Graph:
    """The graph on the same vertices whose edges are exactly the non-edges."""
    check_size(g.n, MAX_PAIR_ORDER_N, "complement")
    return Graph(g.n, frozenset(pair_order(g.n)) - g.edges)
