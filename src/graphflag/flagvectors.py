"""The flag vector of a graph in verbose, concise and subgraph forms.

One pass serves every form: a recursion over labelled vertex subsets,
f(S) = sum over v in S of w_S(v) f(S - v), with optional edges folded into
the step weight, runs on each connected component, so no canonical form is
searched.  Its output is one packed integer: the verbose vector with every
coefficient in a fixed-width slot.  The flag vector is multiplicative over
components: concise is the part-union product of their peels (a triangular
solve at the anchor slots, certified by re-expanding on packed integers),
subgraph rescales it, and verbose is a connected term's recursion unpacked,
or else the packed expansion of the product.  Shuffles come packed, one
table per order and slot width, in the format of `vectors`.  Also the
complement transform, totals, basis sums, anchor words and the
edge-removal word vector.  Inputs may be graphs, optional-edge graphs or
graph sums.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

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
from .vectors import read_slots, slot_bytes, widen_slots  # the packed-vector codec

MAX_VERBOSE_N = 12  # each component's recursion, and the 2^n words of verbose
MAX_TOTAL_N = 20
MAX_BASIS_N = 8
MAX_EDGE_FLAG_EDGES = 7
MAX_PRODUCT_WORK = 2**25  # concise part-union product, see _check_product_work

GraphLike = Graph | OptionalGraph | GraphSum
Masks = tuple[int, ...]  # per-vertex neighbour bitmasks
Packed = tuple[int, int, int]  # (order n, packed vector, slot bytes), see _unpack


def _terms(g: GraphLike) -> Iterator[tuple[int, list[Packed], int]]:
    """(coefficient, packed recursion of each component of 2 or more
    vertices, number of isolated vertices) per signed labelled term;
    GraphSum keys as stored."""
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
        vectors = [_verbose_dp(*_restrict(reg, opt, c)) for c in comps]
        yield coeff, vectors, g.n - sum(sizes)


def _sum(cls, n: int, terms: Iterable[tuple[int, dict]]):
    """The cls-vector sum of coeff times each dict of nonzero coefficients,
    which the caller hands over; a lone term is its own dict, not copied."""
    total: dict = {}
    count = 0
    for coeff, coeffs in terms:
        if not count:
            total = coeffs if coeff == 1 else {k: coeff * c for k, c in coeffs.items()}
        else:
            for k, c in coeffs.items():
                total[k] = total.get(k, 0) + coeff * c
        count += 1
    return cls._own(n, total) if count <= 1 else cls._raw(n, total)


def component_scale(size: int) -> int:
    """Ratio of acyclic shellings to 3-vertex shellings for one tree component."""
    if size <= 0:
        raise ValueError(f"component size must be positive, got {size}")
    return 1 if size == 1 else 2 if size == 2 else 4


def _part_scale(part: Partition) -> int:
    return math.prod(component_scale(m) for m in part.parts)


# ---------------------------------------------------------------------------
# packed vectors

_BITS = str.maketrans("ab", "01")


@lru_cache(maxsize=MAX_VERBOSE_N + 1)
def _words(n: int) -> tuple[str, ...]:
    # word w has letter b at position k iff bit n-1-k of w is set
    words = [""]
    for _ in range(n):
        words = [w + letter for w in words for letter in "ab"]
    return tuple(words)


def _unpack(n: int, packed: int, width: int) -> dict[str, int]:
    """The nonzero coefficients of a packed vector (see vectors) whose slot i
    holds the non-negative coefficient of word i of _words(n)."""
    slots = read_slots(packed, 1 << n, width)
    return dict(zip(itertools.compress(_words(n), slots), filter(None, slots)))


# ---------------------------------------------------------------------------
# verbose form

@lru_cache(maxsize=MAX_VERBOSE_N + 1)
def _members(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # (vertex, its bit) for each member of each subset of range(n), by subset
    table: list[tuple[tuple[int, int], ...]] = [()]
    for v in range(n):
        member = ((v, 1 << v),)
        table += [t + member for t in table]
    return tuple(table)


def _verbose_dp(reg: Masks, opt: Masks) -> Packed:
    """Packed verbose vector of one labelled optional graph, from its
    neighbour masks.

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
    of its coefficients.  The coefficients of w_S(v) sum to 1 + r, at most
    1 + min(d, |S| - 1) for d the largest regular degree, or to 1 or 0, so
    T(S) <= |S| (1 + min(d, |S| - 1)) max_v T(S - v).  From T({}) = 1, T of
    the full set is at most the product over k = 1..n of k (1 + min(d,
    k - 1)); K_n attains it, (n!)^2, 58 bits at K12.  W is that bound's
    width rounded up to 1, 2, 4 or 8 bytes, so no slot carries into the
    next and one struct call reads every slot of f(full).  The members of
    each S come from a per-order table.
    """
    n = len(reg)
    d = max((m.bit_count() for m in reg), default=0)
    width = slot_bytes(math.prod(k * (1 + min(d, k - 1)) for k in range(1, n + 1)))
    half = [8 * width << k for k in range(n)]  # b-words of a (k+1)-set start here
    members = _members(n)
    f = [1]
    for s in range(1, 1 << n):
        a = b = 0
        vertices = members[s]
        for v, low in vertices:
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
        f.append(a | b << half[len(vertices) - 1])
    return n, f[-1], width


def verbose_flag_vector(g: GraphLike) -> VerboseVector:
    """Word-indexed flag vector of a graph, optional graph or graph sum.

    A connected term's vector is its recursion's output unpacked; any other
    term's is the packed expansion of its part-union product, the shuffle
    of its components' vectors.
    """
    n = g.n
    check_size(n, MAX_VERBOSE_N, "verbose_flag_vector")
    return _sum(VerboseVector, n, (
        (coeff, _unpack(*vectors[0]) if len(vectors) == 1 and not ones
         else _verbose_of(n, _concise_term(n, vectors, ones).items()))
        for coeff, vectors, ones in _terms(g)
    ))


# ---------------------------------------------------------------------------
# concise and subgraph forms

def _restrict(reg: Masks, opt: Masks, comp: int) -> tuple[Masks, Masks]:
    """The regular and optional masks of a component's vertices, relabelled
    to 0..k-1 in order, in one pass over those vertices."""
    if comp == (1 << len(reg)) - 1:
        return reg, opt  # every vertex: nothing to relabel
    vertices = list(bit_indices(comp))
    new = {1 << v: 1 << k for k, v in enumerate(vertices)}  # a vertex's bit, relabelled

    def relabel(mask: int) -> int:
        out = 0
        while mask:
            low = mask & -mask
            out |= new[low]
            mask ^= low
        return out

    return tuple(relabel(reg[v]) for v in vertices), tuple(relabel(opt[v]) for v in vertices)


@lru_cache(maxsize=512)
def _partition(parts: tuple[int, ...]) -> Partition:
    # one shared key object per partition, however many vectors hold it: up
    # to MAX_VERBOSE_N the one that keys _anchor_system and _shuffle_table,
    # so a lookup there matches on identity
    n = sum(parts)
    if n > MAX_VERBOSE_N:
        return Partition(parts)
    return next(part for part in enumerate_partitions(n) if part.parts == parts)


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


def _concise_term(n: int, vectors: list[Packed], ones: int) -> dict[Partition, int]:
    # the part-union product of the components' peels and one part 1 per
    # isolated vertex; every coefficient is positive
    if len(vectors) == 1 and not ones:
        return dict(_peel(*vectors[0]))
    coeffs: dict[tuple[int, ...], int] = {(1,) * ones: 1}
    for peeled in (_peel(*vec) for vec in vectors):
        product: dict[tuple[int, ...], int] = {}
        for parts, c in coeffs.items():
            for part, d in peeled:
                key = tuple(sorted(parts + part.parts, reverse=True))
                product[key] = product.get(key, 0) + c * d
        coeffs = product
    return {_partition(p): c for p, c in coeffs.items()}


def concise_flag_vector(g: GraphLike) -> ConciseVector:
    """Partition-indexed flag vector.

    Every edge subset H contributes its tree shelling number times the
    partition of component sizes; cyclic subsets contribute nothing.  Both
    factor over connected components, so each component (at most
    MAX_VERBOSE_N vertices, regular and optional edges alike) is peeled
    from its own packed recursion and the products of their coefficients
    are filed under the unions of their parts; a product past
    _check_product_work's bound is refused before any recursion.
    """
    return _sum(ConciseVector, g.n, (
        (coeff, _concise_term(g.n, vectors, ones)) for coeff, vectors, ones in _terms(g)
    ))


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

@lru_cache(maxsize=4 * (MAX_VERBOSE_N + 1))  # widths 1, 2, 4 and 8
def _shuffle_table(n: int, width: int) -> dict[Partition, int]:
    """shuffle(lambda) of every partition lambda of n, packed in slots of
    `width` bytes as _unpack reads them; `width` is 1, 2, 4 or 8.

    shuffle's first-letter recursion on packed integers: at order k the
    words that begin with b are the high half of the 2^k slots, so putting
    b in front is a shift by 2^(k-1) slots and putting a in front is none.
    Packing is linear, so every entry is exact as an integer whatever the
    width; its slots read as coefficients while none reaches 2^(8 width).
    """
    half = [8 * width << k for k in range(n)]
    memo: dict[tuple[int, ...], int] = {(): 1}

    def packed(parts: tuple[int, ...]) -> int:
        if parts not in memo:
            total = 0
            for i, m in enumerate(parts):
                if parts[i + 1 : i + 2] == (m,):
                    continue  # not the last part of its size
                rest = parts[:i] + ((m - 1,) if m > 1 else ()) + parts[i + 1 :]
                tail = packed(rest)
                if parts[i - 1 : i] == (m,):  # several parts of size m
                    tail *= parts.count(m)
                total += tail << half[sum(rest)] if m > 1 else tail
            memo[parts] = total
        return memo[parts]

    return {part: packed(part.parts) for part in enumerate_partitions(n)}


def _expand(n: int, coeffs: Iterable[tuple[Partition, int]], width: int) -> int:
    """The packed sum of c scale(lambda) shuffle(lambda) over (lambda, c).

    Past 8 bytes, which only the public conversions reach, each shuffle
    used is widened from the 8-byte table, whose slots hold every shuffle
    coefficient (at most n!), so no table is built or kept per width.
    """
    rows, table = _anchor_system(n), _shuffle_table(n, min(width, 8))
    if width <= 8:
        return sum(c * rows[p].scale * table[p] for p, c in coeffs)
    return sum(c * rows[p].scale * widen_slots(table[p], 1 << n, 8, width) for p, c in coeffs)


def _mass(n: int, coeffs: Iterable[tuple[Partition, int]]) -> int:
    """Coefficient sum of the verbose expansion of |c| over (lambda, c): no
    slot of an expansion of non-negative coefficients exceeds it."""
    rows = _anchor_system(n)
    return sum(abs(c) * rows[p].mass for p, c in coeffs)


def _verbose_of(n: int, coeffs: Iterable[tuple[Partition, int]]) -> dict[str, int]:
    # the nonzero verbose coefficients of non-negative concise ones: one
    # packed sum, in slots that hold its mass, and one unpack
    width = slot_bytes(_mass(n, coeffs))
    return _unpack(n, _expand(n, coeffs, width), width)


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
    non-increasing).  The shuffle of no parts is 1 on the empty word.  Read
    from _shuffle_table.
    """
    n = partition.n
    check_size(n, MAX_VERBOSE_N, "shuffle")
    return VerboseVector._own(n, _unpack(n, _shuffle_table(n, 8)[partition], 8))


def verbose_from_concise(v: ConciseVector) -> VerboseVector:
    """Expand a concise vector into the verbose form.

    Each partition contributes its coefficient times the product of component
    scales times the shuffle of its parts.  The positive and the negative
    coefficients each make one packed sum, unpacked once.
    """
    n = v.n
    check_size(n, MAX_VERBOSE_N, "verbose_from_concise")
    total = _verbose_of(n, [(p, c) for p, c in v._coeffs.items() if c > 0])
    for w, c in _verbose_of(n, [(p, -c) for p, c in v._coeffs.items() if c < 0]).items():
        total[w] = total.get(w, 0) - c
    return VerboseVector._raw(n, total)


def anchor_word(partition: Partition) -> str:
    """Lexicographically first word seen by the partition's basis sum.

    Parts in non-decreasing order, each contributing b^(part-1) a.  Distinct
    partitions of n give distinct anchor words.
    """
    check_size(partition.n, MAX_VERBOSE_N, "anchor_word")
    return "".join("b" * (m - 1) + "a" for m in sorted(partition.parts))


class _Anchor(NamedTuple):
    """One partition's row of the anchor system."""

    partition: Partition
    word: str  # its anchor word
    scale: int
    diagonal: int  # its scaled shuffle at its own anchor
    mass: int  # its scaled shuffle's coefficient sum
    slot: int  # its anchor word's slot
    column: tuple[tuple[int, int], ...]  # (i, its scaled shuffle at anchor i) for later i, nonzero


@lru_cache(maxsize=MAX_VERBOSE_N + 1)
def _anchor_system(n: int) -> dict[Partition, _Anchor]:
    """The rows of the partitions of n, in anchor-word order.  An anchor
    word reads only as whole part-words in non-decreasing size, so a
    partition's shuffle meets its own anchor once per order of its equal
    parts (diagonal = scale * prod of mult_m! over sizes m) and no earlier
    anchor: the system is triangular."""
    parts = sorted(enumerate_partitions(n), key=anchor_word)
    words = [anchor_word(p) for p in parts]
    slots = [int("0" + w.translate(_BITS), 2) for w in words]  # slot of each, see _words
    table = _shuffle_table(n, 8)
    out = {}
    for j, part in enumerate(parts):
        scale = _part_scale(part)
        orders = (math.factorial(part.parts.count(m)) for m in set(part.parts))
        mass = scale * multinomial(n, part.parts)
        at = read_slots(table[part], 1 << n, 8)
        column = tuple((i, scale * at[s]) for i, s in enumerate(slots) if i > j and at[s])
        diagonal = scale * math.prod(orders)
        out[part] = _Anchor(part, words[j], scale, diagonal, mass, slots[j], column)
    return out


_NON_INTEGRAL = (
    "anchor coordinates give non-integral concise coefficients; "
    "input is outside the integral span"
)
_OUTSIDE_SPAN = (
    "verbose vector is inconsistent with its anchor coordinates; "
    "input is outside the span of graph flag vectors"
)


def _solve(n: int, anchors: list[int]) -> list[tuple[Partition, int]]:
    """The concise coefficients whose scaled shuffles take these values at
    the anchor words, listed in anchor-word order: forward substitution in
    integers, each coefficient the value left at its anchor divided by the
    diagonal, then its column taken off the later anchors."""
    out = []
    for j, (part, _, _, diagonal, _, _, column) in enumerate(_anchor_system(n).values()):
        q, r = divmod(anchors[j], diagonal)
        if r:
            raise ValueError(_NON_INTEGRAL)
        if q:
            out.append((part, q))
            for i, t in column:
                anchors[i] -= q * t
    return out


def _peel(n: int, packed: int, width: int) -> list[tuple[Partition, int]]:
    """Concise coefficients of a packed verbose vector, from its anchor
    slots alone, certified on packed integers.

    The coefficients c_lambda are solved at the p(n) anchor slots and then
    re-expanded, and the packed re-expansion must equal the input.  That
    comparison is exact when every c_lambda is non-negative and the
    re-expansion's mass, the sum over lambda of c_lambda scale(lambda)
    multinomial(n; lambda), is below 2^(8 width): every slot of the
    re-expansion is then non-negative and at most that mass, so no slot
    carries into the next, and two packed integers without carries are
    equal exactly when all their slots are.  A recursion output always
    qualifies (its coefficients count tree shellings, and its mass is its
    T(full), below its slot bound); anything else is refused.
    """
    slots = read_slots(packed, 1 << n, width)
    coeffs = _solve(n, [slots[row.slot] for row in _anchor_system(n).values()])
    if any(c < 0 for _, c in coeffs) or _mass(n, coeffs) >> 8 * width:
        raise ValueError(
            "the re-expansion would carry across a slot; "
            "input is outside the span of graph flag vectors"
        )
    if _expand(n, coeffs, width) != packed:
        raise ValueError(_OUTSIDE_SPAN)
    return coeffs


def concise_from_verbose(v: VerboseVector) -> ConciseVector:
    """Invert verbose_from_concise by solving at the anchor words.

    The coefficients come from the input's values at the p(n) anchor words
    by forward substitution in integers (_solve; a remainder means the input
    is outside the integral span).  Their expansion must then give the input
    back: any difference means it lies outside the span of graph flag
    vectors.
    """
    n = v.n
    check_size(n, MAX_VERBOSE_N, "concise_from_verbose")
    rows = _anchor_system(n).values()
    out = ConciseVector._own(n, dict(_solve(n, [v._coeffs.get(r.word, 0) for r in rows])))
    if verbose_from_concise(out) != v:
        raise ValueError(_OUTSIDE_SPAN)
    return out


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
