"""The flag vector of a graph in verbose, concise and subgraph forms.

One pass serves every form: a recursion over labelled vertex subsets,
f(S) = sum over v in S of w_S(v) f(S - v), with optional edges folded into
the step weight, runs on each connected component, so no canonical form is
searched.  The flag vector is multiplicative over components: concise is
the part-union product of their recursions, each peeled in anchor-word
order, subgraph rescales it, and verbose is a connected term's recursion
or else the shuffle expansion of the product.  Also the complement
transform, totals, basis sums, anchor words and the edge-removal word
vector.  Inputs may be graphs, optional-edge graphs or graph sums.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator

from .errors import MAX_GRAPH_N, check_size
from .graphs import (
    Graph,
    GraphSum,
    OptionalGraph,
    bit_indices,
    component_masks,
    expand,
    neighbor_masks,
)
from .partitions import Partition, enumerate_partitions, multinomial, partition_count
from .vectors import ConciseVector, EdgeWordVector, VerboseVector, add_letter_product

MAX_VERBOSE_N = 12  # each component's recursion, and the 2^n words of verbose
MAX_TOTAL_N = 20
MAX_BASIS_N = 8
MAX_EDGE_FLAG_EDGES = 7
MAX_PRODUCT_WORK = 2**25  # concise part-union product, see _check_product_work

GraphLike = Graph | OptionalGraph | GraphSum
Masks = tuple[int, ...]  # per-vertex neighbour bitmasks


def _terms(g: GraphLike) -> Iterator[tuple[int, list[VerboseVector], int]]:
    """(coefficient, recursion of each component of 2 or more vertices, number
    of isolated vertices) per signed labelled term; GraphSum keys as stored."""
    if isinstance(g, GraphSum):
        terms = [(t.edges, frozenset(), c) for t, c in g._coeffs.items()]
    elif isinstance(g, OptionalGraph):
        terms = [(g.regular, g.optional, 1)]
    elif isinstance(g, Graph):
        terms = [(g.edges, frozenset(), 1)]
    else:
        raise TypeError(f"expected Graph, OptionalGraph or GraphSum, got {g!r}")
    for r, o, coeff in terms:
        reg, opt = neighbor_masks(g.n, r), neighbor_masks(g.n, o)
        comps = [c for c in component_masks(neighbor_masks(g.n, r | o)) if c & (c - 1)]
        sizes = [c.bit_count() for c in comps]
        big = max(sizes, default=0)
        check_size(big, MAX_VERBOSE_N, "concise_flag_vector", "component size")
        _check_product_work(sizes)
        vectors = [_verbose_dp(_restrict(reg, c), _restrict(opt, c)) for c in comps]
        yield coeff, vectors, g.n - sum(sizes)


def component_scale(size: int) -> int:
    """Ratio of acyclic shellings to 3-vertex shellings for one tree component."""
    if size <= 0:
        raise ValueError(f"component size must be positive, got {size}")
    return 1 if size == 1 else 2 if size == 2 else 4


def _part_scale(part: Partition) -> int:
    return math.prod(component_scale(m) for m in part.parts)


# ---------------------------------------------------------------------------
# verbose form

@lru_cache(maxsize=MAX_VERBOSE_N + 1)
def _words(n: int) -> tuple[str, ...]:
    # word w has letter b at position k iff bit n-1-k of w is set
    return tuple(
        "".join("ab"[w >> (n - 1 - k) & 1] for k in range(n)) for w in range(1 << n)
    )


def _slot_bytes(bound: int) -> int:
    # whole bytes per packed slot holding values 0..bound
    return (bound.bit_length() + 7) // 8


def _unpack(n: int, packed: int, width: int) -> dict[str, int]:
    """The slots of a packed vector over the length-n words, zeros included.

    Slot i, of `width` bytes from byte i * width, holds the non-negative
    coefficient of word i of _words(n).
    """
    raw = packed.to_bytes(width << n, "little")
    return {
        w: int.from_bytes(raw[i * width : (i + 1) * width], "little")
        for i, w in enumerate(_words(n))
    }


def _verbose_dp(reg: Masks, opt: Masks) -> VerboseVector:
    """Verbose vector of one labelled optional graph, from its neighbour masks.

    f(S) is the sum over v in S of w_S(v) f(S - v), the letter of v leading.
    Each optional edge is charged to the endpoint removed first, so the
    inclusion-exclusion sum over optional choices is the coefficient of the
    product of their indicators, which is multilinear: with r regular and o
    optional edges from v into S - v, w_S(v) is a + r b when o = 0, b when
    o = 1 and 0 when o >= 2.

    Each f(S) is one integer holding its 2^|S| coefficients in slots of W
    bits, word i at bits [i W, (i + 1) W); the a-words fill the low half and
    the b-words the high half, so a step is a few big-integer additions.
    Every weight is non-negative, so no slot of f(S) exceeds T(S), the sum
    of its coefficients.  The coefficients of w_S(v) sum to 1 + r <= 1 + d,
    d the largest regular degree, or to 1 or 0, so T(S) <= |S| (1 + d)
    max_v T(S - v), and from T({}) = 1 every T(S) <= n! (1 + d)^n (72 bits
    at K12).  W is that bound's width rounded up to whole bytes, so no slot
    carries into the next and f(full) unpacks bytewise.
    """
    n = len(reg)
    d = max((m.bit_count() for m in reg), default=0)
    width = _slot_bytes(math.factorial(n) * (1 + d) ** n)
    bits = 8 * width
    f = [1]
    for s in range(1, 1 << n):
        a = b = 0
        m = s
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            rest = s ^ low
            o = opt[v] & rest
            if not o:
                tail = f[rest]
                a += tail
                r = (reg[v] & rest).bit_count()
                if r:
                    b += tail if r == 1 else r * tail
            elif not o & (o - 1):  # exactly one optional edge
                b += f[rest]
        f.append(a | b << (bits << (s.bit_count() - 1)))
    return VerboseVector._raw(n, _unpack(n, f[-1], width))


def verbose_flag_vector(g: GraphLike) -> VerboseVector:
    """Word-indexed flag vector of a graph, optional graph or graph sum.

    A connected term's vector is its recursion's output as it is; any other
    term's is verbose_from_concise of its part-union product, the shuffle of
    its components' vectors.
    """
    check_size(g.n, MAX_VERBOSE_N, "verbose_flag_vector")
    total = VerboseVector(g.n)
    for coeff, vectors, ones in _terms(g):
        if ones or len(vectors) != 1:  # not connected: shuffle the components
            vectors = [verbose_from_concise(_concise_term(g.n, vectors, ones))]
        total += coeff * vectors[0]
    return total


# ---------------------------------------------------------------------------
# concise and subgraph forms

def _restrict(masks: Masks, comp: int) -> Masks:
    # the masks of the vertices of a component, relabelled to 0..k-1 in order
    if comp == (1 << len(masks)) - 1:
        return masks  # every vertex: nothing to relabel
    index = {v: 1 << k for k, v in enumerate(bit_indices(comp))}
    return tuple(sum(index[u] for u in bit_indices(masks[v])) for v in index)


@lru_cache(maxsize=512)
def _partition(parts: tuple[int, ...]) -> Partition:
    # one shared key object per partition, however many vectors hold it
    return Partition(parts)


def _check_product_work(sizes: list[int]) -> None:
    """Refuse a part-union product over components of these sizes (none of
    size 1) whose work bound passes MAX_PRODUCT_WORK.

    A key of the product is the multiset of the partitions its components
    gave, so after the first j components, k_s of them of size s, there are
    at most K_j = prod over s of C(k_s + p(s) - 1, k_s) keys, each a sorted
    tuple of at most n_j parts, n_j the vertices of those components.  The
    work bound is the sum over j of K_j n_j.
    """
    seen: dict[int, int] = {}
    keys, vertices, work = 1, 0, 0
    for s in sizes:
        k = seen[s] = seen.get(s, 0) + 1
        keys = keys * (k + partition_count(s) - 1) // k  # C(k+p-1, k) from k-1
        vertices += s
        work += keys * vertices
    check_size(work, MAX_PRODUCT_WORK, "concise_flag_vector", "component product work")


def _concise_term(n: int, vectors: list[VerboseVector], ones: int) -> ConciseVector:
    # the part-union product of the components' concise forms and one part 1
    # per isolated vertex
    coeffs: dict[tuple[int, ...], int] = {(1,) * ones: 1}
    for vec in map(concise_from_verbose, vectors):
        product: dict[tuple[int, ...], int] = {}
        for parts, c in coeffs.items():
            for part, d in vec._coeffs.items():
                key = tuple(sorted(parts + part.parts, reverse=True))
                product[key] = product.get(key, 0) + c * d
        coeffs = product
    return ConciseVector._raw(n, {_partition(p): c for p, c in coeffs.items()})


def concise_flag_vector(g: GraphLike) -> ConciseVector:
    """Partition-indexed flag vector.

    Every edge subset H contributes its tree shelling number times the
    partition of component sizes; cyclic subsets contribute nothing.  Both
    factor over connected components, so each component (at most
    MAX_VERBOSE_N vertices, regular and optional edges alike) is inverted
    from its own verbose recursion and the products of their coefficients
    are filed under the unions of their parts; a product past
    _check_product_work's bound is refused before any recursion.
    """
    total: dict[Partition, int] = {}
    for coeff, vectors, ones in _terms(g):
        for part, c in _concise_term(g.n, vectors, ones)._coeffs.items():
            total[part] = total.get(part, 0) + coeff * c
    return ConciseVector._raw(g.n, total)


def subgraph_flag_vector(g: GraphLike) -> ConciseVector:
    """Partition-indexed flag vector weighted by acyclic shelling numbers.

    Every edge subset H contributes its acyclic shelling number (on the full
    vertex set) times the partition of component sizes.  Computed as the
    inverse of scale_subgraph_to_concise applied to the concise form.
    """
    n = g.n
    concise = concise_flag_vector(g)._coeffs
    scaled = {p: c * multinomial(n, p.parts) * _part_scale(p) for p, c in concise.items()}
    return ConciseVector._raw(n, scaled)


def scale_subgraph_to_concise(v: ConciseVector) -> ConciseVector:
    """Rescale a subgraph-form vector to the concise form, coordinatewise.

    Each partition coordinate divides by multinomial(n; parts) times the
    product of per-part component scales (1, 2, 4 for sizes 1, 2, >= 3).
    The division must be exact.
    """
    check_size(v.n, MAX_GRAPH_N, "scale_subgraph_to_concise")
    out: dict[Partition, int] = {}
    for part, c in v.items():
        denom = multinomial(v.n, part.parts) * _part_scale(part)
        q, r = divmod(c, denom)
        if r:
            raise ValueError(
                f"coefficient {c} of {part} is not divisible by {denom}; "
                "input is not a subgraph-form vector"
            )
        out[part] = q
    return ConciseVector._raw(v.n, out)


# ---------------------------------------------------------------------------
# conversions between verbose and concise

@lru_cache(maxsize=512)  # holds every partition of 0..MAX_VERBOSE_N
def shuffle(partition: Partition) -> VerboseVector:
    """Sum of all interleavings of the words b^(part-1) a, one per part.

    Parts are treated as distinguishable components, so the total coefficient
    mass equals the multinomial coefficient of the part sizes.  An
    interleaving starts with the first letter of one part's word: a for a
    part 1, which is then used up, or b for a part m >= 2, which leaves
    b^(m-2) a, the word of a part m - 1.  The mult_m parts of size m leave
    the same rest, so shuffle(lambda) sums, over the distinct sizes m,
    mult_m(lambda) times that letter followed by the shuffle of lambda with
    its last part m lowered by one (a 0 dropped; the parts stay
    non-increasing).  The shuffle of no parts is 1 on the empty word.
    """
    n = partition.n
    check_size(n, MAX_VERBOSE_N, "shuffle")
    parts = partition.parts
    total: dict[str, int] = {} if parts else {"": 1}
    for i, m in enumerate(parts):
        if parts[i + 1 : i + 2] == (m,):
            continue  # not the last part of its size
        rest = parts[:i] + ((m - 1,) if m > 1 else ()) + parts[i + 1 :]
        letter = "b" if m > 1 else "a"
        mult = parts.count(m)
        for w, c in shuffle(_partition(rest))._coeffs.items():
            w = letter + w
            total[w] = total.get(w, 0) + mult * c
    return VerboseVector._raw(n, total)


def verbose_from_concise(v: ConciseVector) -> VerboseVector:
    """Expand a concise vector into the verbose form.

    Each partition contributes its coefficient times the product of component
    scales times the shuffle of its parts.
    """
    check_size(v.n, MAX_VERBOSE_N, "verbose_from_concise")
    total: dict[str, int] = {}
    for part, c in v._coeffs.items():
        scale = c * _part_scale(part)
        for w, k in shuffle(part)._coeffs.items():
            total[w] = total.get(w, 0) + scale * k
    return VerboseVector._raw(v.n, total)


def anchor_word(partition: Partition) -> str:
    """Lexicographically first word seen by the partition's basis sum.

    Parts in non-decreasing order, each contributing b^(part-1) a.  Distinct
    partitions of n give distinct anchor words.
    """
    check_size(partition.n, MAX_VERBOSE_N, "anchor_word")
    return "".join("b" * (m - 1) + "a" for m in sorted(partition.parts))


@lru_cache(maxsize=MAX_VERBOSE_N + 1)
def _anchor_system(n: int) -> tuple[tuple[Partition, str, int, int], ...]:
    """(partition, anchor word, scale, diagonal) per partition of n, in
    anchor-word order.  An anchor word reads only as whole part-words in
    non-decreasing size, so a partition's shuffle meets its own anchor once
    per order of its equal parts (diagonal = scale * prod of mult_m! over
    sizes m) and no earlier anchor: the system is triangular."""
    out = []
    for part in sorted(enumerate_partitions(n), key=anchor_word):
        scale = _part_scale(part)
        orders = (math.factorial(part.parts.count(m)) for m in set(part.parts))
        out.append((part, anchor_word(part), scale, scale * math.prod(orders)))
    return tuple(out)


def concise_from_verbose(v: VerboseVector) -> ConciseVector:
    """Invert verbose_from_concise by peeling partitions in anchor-word order.

    A partition's coefficient is the residual at its anchor word divided by
    the diagonal, and its scaled shuffle is then taken off the residual;
    earlier partitions are all that can reach that anchor, so this is
    forward substitution in integers.  The final residual is the input minus
    the result's verbose expansion: a nonzero one means the input lies
    outside the span of graph flag vectors.
    """
    check_size(v.n, MAX_VERBOSE_N, "concise_from_verbose")
    residual = dict(v._coeffs)
    coeffs: dict[Partition, int] = {}
    for part, anchor, scale, diagonal in _anchor_system(v.n):
        q, r = divmod(residual.get(anchor, 0), diagonal)
        if r:
            raise ValueError(
                "anchor coordinates give non-integral concise coefficients; "
                "input is outside the integral span"
            )
        if q:
            coeffs[part] = q
            for w, c in shuffle(part)._coeffs.items():
                residual[w] = residual.get(w, 0) - q * scale * c
    if any(residual.values()):
        raise ValueError(
            "verbose vector is inconsistent with its anchor coordinates; "
            "input is outside the span of graph flag vectors"
        )
    return ConciseVector._raw(v.n, coeffs)


# ---------------------------------------------------------------------------
# complement transform and totals

def complement_transform(v: VerboseVector) -> VerboseVector:
    """Letterwise involution mapping each graph's verbose vector to its
    complement's.

    At right-to-left position i (rightmost letter is i = 1) the letter a
    becomes a + (i-1) b and the letter b becomes -b; the substitution is
    expanded multilinearly.
    """
    n = v.n
    check_size(n, MAX_VERBOSE_N, "complement_transform")  # a^n expands to 2^(n-1) words
    total: dict[str, int] = {}
    for word, coeff in v._coeffs.items():
        factors = (
            {"a": 1, "b": n - 1 - k} if letter == "a" else {"b": -1}
            for k, letter in enumerate(word)
        )
        add_letter_product(total, coeff, factors)
    return VerboseVector._raw(n, total)


def _total_factor(i: int) -> dict[str, int]:
    # the letter weights at right-to-left position i >= 1 of a total word:
    # 2^(i-1) and (i-1) 2^(i-2), the latter 0, not 0.0, at i = 1
    return {"a": 2 ** (i - 1), "b": (i - 1) * 2**i // 4}


def total_word_coefficient(n: int, word: str) -> int:
    """One word's coefficient summed over all 2^(n choose 2) labelled graphs.

    Closed form: n! times a per-letter factor at right-to-left position i,
    namely 2^(i-1) for a and (i-1) 2^(i-2) for b.
    """
    check_size(n, MAX_TOTAL_N, "total_word_coefficient")  # about n^2 / 2 bits
    if len(word) != n or any(ch not in "ab" for ch in word):
        raise ValueError(f"word {word!r} must have length {n} over letters a,b")
    weights = (_total_factor(n - k)[letter] for k, letter in enumerate(word))
    return math.factorial(n) * math.prod(weights)


def total_flag_vector(n: int) -> VerboseVector:
    """Sum of the verbose flag vectors of all labelled graphs on n vertices."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    check_size(n, MAX_TOTAL_N, "total_flag_vector")
    factors = (_total_factor(i) for i in range(n, 0, -1))
    return VerboseVector._raw(n, add_letter_product({}, math.factorial(n), factors))


# ---------------------------------------------------------------------------
# basis sums for partitions

def optional_path(m: int) -> OptionalGraph:
    """Path on m vertices with every edge optional."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    return OptionalGraph(m, frozenset(), frozenset((i, i + 1) for i in range(m - 1)))


def optional_tripod(m: int) -> OptionalGraph:
    """Tree on m >= 3 vertices with all edges optional: a central vertex with
    two single-edge arms and one arm of m-3 edges.  For m = 3 this is the
    3-vertex path."""
    if m < 3:
        raise ValueError(f"tripod needs at least 3 vertices, got {m}")
    edges = {(0, 1), (0, 2)}
    if m > 3:
        edges.add((0, 3))
        edges.update((i, i + 1) for i in range(3, m - 1))
    return OptionalGraph(m, frozenset(), frozenset(edges))


def basis_graph(partition: Partition) -> GraphSum:
    """Pre-expanded formal sum whose concise flag vector is the partition.

    Parts of size 1 or 2 use the optional path alone; parts of size >= 3 use
    twice the optional path minus the optional tripod.  Parts combine by
    disjoint union, distributed over the sums.
    """
    check_size(partition.n, MAX_BASIS_N, "basis_graph")
    out = GraphSum.from_graph(Graph(0, frozenset()))
    for m in partition.parts:
        arm = expand(optional_path(m))
        if m >= 3:
            arm = 2 * arm - expand(optional_tripod(m))
        out = out.disjoint_union(arm)
    return out


# ---------------------------------------------------------------------------
# edge words

def edge_flag_vector(g: Graph) -> EdgeWordVector:
    """Sum over all edge removal orders of the per-step letter expansion.

    Removing an edge whose endpoint multiplicities (with the edge still
    counted) are lo <= hi contributes the factor
    a + (lo - 1) b + (hi - lo) c.
    """
    edges = sorted(g.edges)
    check_size(len(edges), MAX_EDGE_FLAG_EDGES, "edge_flag_vector", "edges")
    base_deg = [g.degree(v) for v in range(g.n)]
    total: dict[str, int] = {}
    for order in itertools.permutations(edges):
        deg = list(base_deg)
        factors = []
        for u, w in order:
            lo, hi = sorted((deg[u], deg[w]))
            factors.append({"a": 1, "b": lo - 1, "c": hi - lo})
            deg[u] -= 1
            deg[w] -= 1
        add_letter_product(total, 1, factors)
    return EdgeWordVector._raw(len(edges), total)
