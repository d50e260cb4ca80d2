import functools
import hashlib
import itertools
import math
import random
import time

import pytest

from graphflag import (
    ConciseVector,
    Graph,
    GraphSum,
    OptionalGraph,
    Partition,
    SizeLimitError,
    VerboseVector,
    acyclic_shelling_number,
    anchor_word,
    basis_graph,
    complement,
    complement_transform,
    concise_flag_vector,
    concise_from_verbose,
    connected_partition,
    edge_flag_vector,
    enumerate_graphs,
    enumerate_partitions,
    expand,
    multinomial,
    optional_path,
    optional_tripod,
    pair_order,
    parse_graph,
    scale_subgraph_to_concise,
    shuffle,
    subgraph_flag_vector,
    total_flag_vector,
    total_word_coefficient,
    tree_shelling_number,
    verbose_flag_vector,
    verbose_from_concise,
)
from graphflag import flagvectors
from graphflag.errors import MAX_GRAPH_N
from graphflag.flagvectors import (
    MAX_TOTAL_N,
    MAX_VERBOSE_N,
    _anchor_system,
    _unpack,
    _verbose_dp,
)
from graphflag.graphs import component_masks, neighbor_masks
from graphflag.selftest import _shelling_sum, _subgraph_sum
from graphflag.vectors import EdgeWordVector


def _g(n, *edges):
    return Graph.from_edges(n, edges)


def _part(*sizes):
    return Partition.from_sizes(sizes)


def _cv(n, mapping):
    return ConciseVector(n, {Partition.from_sizes(k): v for k, v in mapping.items()})


def _whole_dp(g):
    # the recursion on the whole labelled graph, which never splits components
    og = g if isinstance(g, OptionalGraph) else OptionalGraph.from_graph(g)
    masks = neighbor_masks(og.n, og.regular), neighbor_masks(og.n, og.optional)
    return VerboseVector(og.n, _unpack(*_verbose_dp(*masks)))


def _union(*graphs):
    return functools.reduce(Graph.disjoint_union, graphs)


def _k(m):
    return complement(_g(m))


# ---------------------------------------------------------------------------
# verbose form

THREE_VERTEX = [
    (_g(3), {"aaa": 6}),
    (_g(3, (0, 1)), {"aaa": 6, "aba": 2, "baa": 4}),
    (_g(3, (0, 1), (1, 2)), {"aaa": 6, "aba": 4, "baa": 8, "bba": 4}),
    (_g(3, (0, 1), (1, 2), (0, 2)), {"aaa": 6, "aba": 6, "baa": 12, "bba": 12}),
]


@pytest.mark.parametrize("g,expected", THREE_VERTEX)
def test_three_vertex_verbose_rows(g, expected):
    assert verbose_flag_vector(g) == VerboseVector(3, expected)
    assert _shelling_sum(g) == VerboseVector(3, expected)


def test_verbose_of_zero_vertex_graph_is_scalar_one():
    assert verbose_flag_vector(_g(0)) == VerboseVector(0, {"": 1})


def test_methods_agree_exhaustively_to_n5():
    for n in range(6):
        for g in enumerate_graphs(n):
            assert verbose_flag_vector(g) == _shelling_sum(g)


def test_optional_tree_gives_single_word():
    # an all-optional tree contributes its acyclic shelling count on b^(n-1) a
    from graphflag import acyclic_shelling_number

    for n in range(1, 7):
        path = optional_path(n)
        plain = Graph(n, path.optional)
        expected = VerboseVector(
            n, {"b" * (n - 1) + "a": acyclic_shelling_number(plain)}
        )
        assert verbose_flag_vector(path) == expected


def test_optional_cycle_vanishes():
    assert verbose_flag_vector(parse_graph("3:?0-1,?1-2,?0-2")).is_zero
    square = parse_graph("4:?0-1,?1-2,?2-3,?0-3")
    assert verbose_flag_vector(square).is_zero
    with_extra = parse_graph("5:0-4,?0-1,?1-2,?0-2,?3-4")
    assert verbose_flag_vector(with_extra).is_zero


def test_flag_vectors_extend_linearly_over_sums():
    a = _g(3, (0, 1))
    b = _g(3, (0, 1), (1, 2))
    gs = GraphSum(3, {a: 2, b: -1})
    for form in (verbose_flag_vector, concise_flag_vector, subgraph_flag_vector):
        assert form(gs) == 2 * form(a) - form(b)


def test_verbose_size_limit():
    with pytest.raises(SizeLimitError):
        verbose_flag_vector(Graph(13, frozenset()))


def test_concise_whole_graph_limit():
    edge = frozenset({(0, 1)})
    top = Partition((2,) + (1,) * (MAX_GRAPH_N - 2))
    assert concise_flag_vector(Graph(MAX_GRAPH_N, edge)) == ConciseVector(
        MAX_GRAPH_N, {Partition((1,) * MAX_GRAPH_N): 1, top: 1}
    )
    for form in (concise_flag_vector, subgraph_flag_vector):
        with pytest.raises(SizeLimitError):
            form(Graph(MAX_GRAPH_N + 1, edge))


def test_verbose_rejects_unknown_method():
    # one kernel: there is no method to choose
    with pytest.raises(TypeError):
        verbose_flag_vector(_g(2), "recursion")


TWELVE_VERTEX_UNIONS = {
    "4 K3": _union(*[_k(3)] * 4),
    "6 K2": _union(*[_k(2)] * 6),
    "3 K4": _union(*[_k(4)] * 3),
    "K6 + K6": _union(_k(6), _k(6)),
    "K8 + 4 K1": _union(_k(8), _g(4)),
    "K11 + K1": _union(_k(11), _g(1)),
    "K12": _k(12),
    "optional K4 + P5 + K3": parse_graph(
        "12:?0-1,0-2,0-3,1-2,1-3,?2-3,4-5,?5-6,6-7,?7-8,9-10,10-11,?9-11"
    ),
}

SEVEN_CYCLE = parse_graph("7:0-1,1-2,2-3,3-4,4-5,5-6,0-6").as_graph()


@pytest.mark.parametrize(
    "g,calls",
    [(SEVEN_CYCLE, 1), (TWELVE_VERTEX_UNIONS["4 K3"], 4)],
    ids=["7-cycle", "4 K3"],
)
@pytest.mark.parametrize(
    "form", [verbose_flag_vector, concise_flag_vector, subgraph_flag_vector]
)
def test_every_form_runs_the_recursion_once_per_component(form, g, calls, monkeypatch):
    inputs = []

    def recording(reg, opt):
        inputs.append(component_masks([r | o for r, o in zip(reg, opt)]))
        return _verbose_dp(reg, opt)

    monkeypatch.setattr(flagvectors, "_verbose_dp", recording)
    form(g)
    assert len(inputs) == calls
    assert all(len(comps) == 1 for comps in inputs)


@pytest.mark.parametrize("g", TWELVE_VERTEX_UNIONS.values(), ids=TWELVE_VERTEX_UNIONS)
def test_verbose_of_a_union_equals_the_whole_graph_recursion(g):
    # verbose shuffles the components of a disconnected term together
    assert verbose_flag_vector(g) == _whole_dp(g)


# ---------------------------------------------------------------------------
# concise and subgraph forms

TABLE_FOUR = [
    (_g(4), (1, 0, 0, 0, 0)),
    (_g(4, (0, 1)), (1, 1, 0, 0, 0)),
    (_g(4, (0, 1), (2, 3)), (1, 2, 1, 0, 0)),
    (_g(4, (0, 1), (1, 2)), (1, 2, 0, 1, 0)),
    (_g(4, (0, 1), (1, 2), (2, 3)), (1, 3, 1, 2, 2)),
    (_g(4, (0, 1), (1, 2), (0, 2)), (1, 3, 0, 3, 0)),
    (_g(4, (0, 1), (0, 2), (0, 3)), (1, 3, 0, 3, 3)),
    (complement(_g(4, (0, 1), (1, 2))), (1, 4, 1, 5, 7)),
    (complement(_g(4, (0, 1), (2, 3))), (1, 4, 2, 4, 8)),
    (complement(_g(4, (0, 1))), (1, 5, 2, 8, 18)),
    (complement(_g(4)), (1, 6, 3, 12, 36)),
]


@pytest.mark.parametrize("g,row", TABLE_FOUR)
def test_four_vertex_concise_table(g, row):
    vec = concise_flag_vector(g)
    parts = enumerate_partitions(4)
    assert tuple(vec.coefficient(p) for p in parts) == row


def test_concise_of_edgeless_graph():
    for n in range(6):
        assert concise_flag_vector(Graph(n, frozenset())) == _cv(n, {(1,) * n: 1})


def test_concise_by_direct_subgraph_oracle():
    # recompute the subgraph sum with an independent edge-subset walk
    for n in range(5):
        for g in enumerate_graphs(n):
            edges = sorted(g.edges)
            expected = {}
            for r in range(len(edges) + 1):
                for pick in itertools.combinations(edges, r):
                    sub = Graph(n, frozenset(pick))
                    s = tree_shelling_number(sub)
                    if s:
                        part = connected_partition(sub)
                        expected[part] = expected.get(part, 0) + s
            assert concise_flag_vector(g) == ConciseVector(n, expected)


def test_subgraph_form_examples():
    assert subgraph_flag_vector(_g(2, (0, 1))) == _cv(2, {(1, 1): 2, (2,): 2})
    triangle = _g(3, (0, 1), (1, 2), (0, 2))
    assert subgraph_flag_vector(triangle) == _cv(
        3, {(1, 1, 1): 6, (2, 1): 18, (3,): 12}
    )
    for n in range(5):
        edgeless = Graph(n, frozenset())
        assert subgraph_flag_vector(edgeless) == _cv(n, {(1,) * n: math.factorial(n)})


def test_scale_subgraph_to_concise_examples():
    assert scale_subgraph_to_concise(_cv(2, {(1, 1): 2, (2,): 2})) == _cv(
        2, {(1, 1): 1, (2,): 1}
    )
    assert scale_subgraph_to_concise(_cv(3, {(1, 1, 1): 6})) == _cv(3, {(1, 1, 1): 1})
    for n in range(6):
        for g in enumerate_graphs(n):
            assert scale_subgraph_to_concise(
                _subgraph_sum(g, acyclic_shelling_number)
            ) == _subgraph_sum(g, tree_shelling_number)


def test_scale_rejects_inexact_division():
    with pytest.raises(ValueError):
        scale_subgraph_to_concise(_cv(2, {(1, 1): 1}))


def test_alternating_three_vertex_relation_in_all_forms():
    graphs = [g for g, _ in THREE_VERTEX]
    signs = (1, -3, 3, -1)
    for fn in (verbose_flag_vector, concise_flag_vector, subgraph_flag_vector):
        vectors = [s * fn(g) for s, g in zip(signs, graphs)]
        total = vectors[0]
        for v in vectors[1:]:
            total = total + v
        assert total.is_zero


def test_optional_only_graphs_collapse_to_shelling_number():
    # expansion of (V, empty, C) keeps only the full choice C
    for n in range(1, 6):
        pairs = pair_order(n)
        for r in range(min(len(pairs), 5) + 1):
            for pick in itertools.combinations(pairs, r):
                og = parse_graph(f"{n}:" + ",".join(f"?{i}-{j}" for i, j in pick))
                sub = Graph(n, frozenset(pick))
                s = tree_shelling_number(sub)
                expected = (
                    ConciseVector(n, {connected_partition(sub): s})
                    if s
                    else ConciseVector(n)
                )
                assert concise_flag_vector(og) == expected


# ---------------------------------------------------------------------------
# shuffles, anchors and conversions

def test_shuffle_examples():
    assert shuffle(_part(1, 1)) == VerboseVector(2, {"aa": 2})
    assert shuffle(_part(2, 1)) == VerboseVector(3, {"aba": 1, "baa": 2})
    for n in range(1, 7):
        assert shuffle(_part(n)) == VerboseVector(n, {"b" * (n - 1) + "a": 1})


def _interleavings(part):
    # brute force: each distinct sequence of part labels, part i repeated
    # m_i times, spelled as the interleaving it takes the letters from
    labels = [i for i, m in enumerate(part.parts) for _ in range(m)]
    total = {}
    for seq in set(itertools.permutations(labels)):
        pos = [0] * len(part.parts)
        letters = []
        for i in seq:
            pos[i] += 1
            letters.append("a" if pos[i] == part.parts[i] else "b")
        word = "".join(letters)
        total[word] = total.get(word, 0) + 1
    return VerboseVector(part.n, total)


def test_shuffle_matches_brute_force_interleavings():
    for n in range(8):
        for part in enumerate_partitions(n):
            assert shuffle(part) == _interleavings(part)


def test_shuffle_digest_to_the_verbose_bound():
    # SHA-256 over the sorted items of all 272 shuffles with n <= 12, as the
    # memo over part positions built them
    h = hashlib.sha256()
    count = 0
    for n in range(MAX_VERBOSE_N + 1):
        for part in enumerate_partitions(n):
            h.update(repr((part.parts, shuffle(part).items())).encode())
            count += 1
    assert count == 272
    digest = "77bd31968671a29f252a6e3fea4ace32f47f1f602ee494db077d19b780937e9d"
    assert h.hexdigest() == digest


def test_shuffle_mass_is_multinomial():
    for n in range(7):
        for part in enumerate_partitions(n):
            total = sum(c for _, c in shuffle(part).items())
            assert total == multinomial(n, part.parts)


def test_anchor_word_examples():
    assert anchor_word(_part(2, 1, 1)) == "aaba"
    assert anchor_word(_part(5)) == "bbbba"
    assert anchor_word(_part(1, 1, 1)) == "aaa"
    assert anchor_word(Partition(())) == ""


def test_anchor_words_distinct():
    for n in range(9):
        words = [anchor_word(p) for p in enumerate_partitions(n)]
        assert len(set(words)) == len(words)


def test_verbose_from_concise_matches_direct_computation():
    for n in range(6):
        for g in enumerate_graphs(n):
            concise = _subgraph_sum(g, tree_shelling_number)
            assert verbose_from_concise(concise) == _whole_dp(g)


def test_concise_from_verbose_round_trips():
    for n in range(6):
        for g in enumerate_graphs(n):
            concise = _subgraph_sum(g, tree_shelling_number)
            assert concise_from_verbose(verbose_flag_vector(g)) == concise


def test_concise_from_verbose_hand_value():
    vec = verbose_flag_vector(_g(3, (0, 1), (1, 2)))
    assert concise_from_verbose(vec) == _cv(3, {(1, 1, 1): 1, (2, 1): 2, (3,): 1})
    assert concise_from_verbose(
        VerboseVector(4, {"aaaa": 24})
    ) == _cv(4, {(1, 1, 1, 1): 1})


NON_INTEGRAL = (
    "anchor coordinates give non-integral concise coefficients; "
    "input is outside the integral span"
)
OUTSIDE_SPAN = (
    "verbose vector is inconsistent with its anchor coordinates; "
    "input is outside the span of graph flag vectors"
)


def test_concise_from_verbose_rejects_vectors_outside_the_span():
    # [1+1] has anchor aa and diagonal 2!, so aa:1 gives it the coefficient 1/2
    with pytest.raises(ValueError, match=f"^{NON_INTEGRAL}$"):
        concise_from_verbose(VerboseVector(2, {"aa": 1}))
    # every anchor is matched, the words ab and baa are not
    with pytest.raises(ValueError, match=f"^{OUTSIDE_SPAN}$"):
        concise_from_verbose(VerboseVector(2, {"ab": 1}))
    bad = VerboseVector(3, {"aaa": 6, "aba": 2, "baa": 5})
    with pytest.raises(ValueError, match=f"^{OUTSIDE_SPAN}$"):
        concise_from_verbose(bad)


def test_anchor_system_closed_form_diagonal():
    # the diagonal scale * prod mult_m! is the scaled shuffle at the anchor,
    # and every shuffle vanishes at the anchors before its own
    for n in range(MAX_VERBOSE_N + 1):
        system = list(_anchor_system(n).values())
        assert sorted(r.partition for r in system) == sorted(enumerate_partitions(n))
        for i, row in enumerate(system):
            assert row.word == anchor_word(row.partition)
            vec = shuffle(row.partition)
            assert row.diagonal == row.scale * vec.coefficient(row.word) != 0
            assert all(vec.coefficient(r.word) == 0 for r in system[:i])
            # the column holds the scaled shuffle at every later anchor it meets
            later = {j: row.scale * vec.coefficient(r.word) for j, r in enumerate(system)}
            assert dict(row.column) == {j: t for j, t in later.items() if j > i and t}
            assert row.mass == sum(row.scale * c for _, c in vec.items())


def test_conversions_refuse_beyond_the_verbose_bound():
    n = MAX_VERBOSE_N + 1
    start = time.perf_counter()
    with pytest.raises(SizeLimitError):
        shuffle(_part(*[1] * 30))  # a shuffle over 2^30 words
    with pytest.raises(SizeLimitError):
        verbose_from_concise(concise_flag_vector(Graph(30, frozenset())))
    with pytest.raises(SizeLimitError):
        concise_from_verbose(VerboseVector(20, {"a" * 20: math.factorial(20)}))
    # one past the bound, even for a zero vector
    with pytest.raises(SizeLimitError):
        verbose_from_concise(ConciseVector(n))
    with pytest.raises(SizeLimitError):
        concise_from_verbose(VerboseVector(n))
    with pytest.raises(SizeLimitError):
        shuffle(_part(n))
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# complement transform

def test_complement_transform_three_vertex_rows():
    assert complement_transform(VerboseVector(3, {"aaa": 6})) == VerboseVector(
        3, {"aaa": 6, "aba": 6, "baa": 12, "bba": 12}
    )


def test_complement_transform_matches_complement_exhaustively():
    for n in range(6):
        for g in enumerate_graphs(n):
            assert complement_transform(
                verbose_flag_vector(g)
            ) == verbose_flag_vector(complement(g))


def test_complement_transform_is_involution():
    for n in range(6):
        for g in enumerate_graphs(n):
            vec = verbose_flag_vector(g)
            assert complement_transform(complement_transform(vec)) == vec


# ---------------------------------------------------------------------------
# totals

def test_complement_transform_refuses_beyond_the_verbose_bound():
    start = time.perf_counter()
    for n in (MAX_VERBOSE_N + 1, 26):
        with pytest.raises(SizeLimitError):
            complement_transform(VerboseVector(n, {"a" * n: 1}))
    assert time.perf_counter() - start < 1.0
    n = MAX_VERBOSE_N
    vec = complement_transform(VerboseVector(n, {"a" * n: 1}))
    assert len(vec) == 2 ** (n - 1)


def test_total_word_coefficient_refuses_beyond_its_bound():
    start = time.perf_counter()
    for n in (MAX_TOTAL_N + 1, 300000):
        with pytest.raises(SizeLimitError):
            total_word_coefficient(n, "a" * n)
    assert time.perf_counter() - start < 1.0
    n = MAX_TOTAL_N
    assert total_word_coefficient(n, "a" * n) == math.factorial(n) * 2 ** math.comb(n, 2)


def test_total_word_coefficients():
    assert total_word_coefficient(3, "baa") == 48
    assert total_word_coefficient(2, "aa") == 4
    for n in range(1, 8):
        assert total_word_coefficient(n, "a" * (n - 1) + "b") == 0


def test_total_flag_vector_matches_brute_force():
    # n = 5 checks total_word_coefficient on every word against 1024 graphs
    for n in range(6):
        pairs = pair_order(n)
        totals = {}
        for mask in range(1 << len(pairs)):
            g = Graph(n, frozenset(p for k, p in enumerate(pairs) if mask >> k & 1))
            for w, c in verbose_flag_vector(g).items():
                totals[w] = totals.get(w, 0) + c
        assert total_flag_vector(n) == VerboseVector(n, totals)


# ---------------------------------------------------------------------------
# basis sums

def test_basis_graph_single_part_three_is_plain_path():
    # twice the path minus the tripod collapses to the path when m = 3
    assert basis_graph(_part(3)) == expand(optional_path(3))


def test_basis_graph_concise_is_the_partition():
    for n in range(7):
        for part in enumerate_partitions(n):
            assert concise_flag_vector(basis_graph(part)) == ConciseVector(
                n, {part: 1}
            )


def test_optional_path_and_tripod_concise_values():
    for n in range(3, 8):
        assert concise_flag_vector(expand(optional_path(n))) == _cv(
            n, {(n,): 2 ** (n - 3)}
        )
        assert concise_flag_vector(expand(optional_tripod(n))) == _cv(
            n, {(n,): 2 ** (n - 2) - 1}
        )


def test_anchor_matrix_is_upper_triangular():
    for n in range(7):
        order = sorted(enumerate_partitions(n), key=anchor_word)
        anchors = [anchor_word(p) for p in order]
        for i, part in enumerate(order):
            vec = verbose_flag_vector(basis_graph(part))
            assert vec.coefficient(anchors[i]) != 0
            for j in range(i):
                assert vec.coefficient(anchors[j]) == 0


def test_basis_graph_size_limit():
    with pytest.raises(SizeLimitError):
        basis_graph(_part(10))


# ---------------------------------------------------------------------------
# edge words

def test_edge_flag_examples():
    assert edge_flag_vector(_g(2, (0, 1))) == EdgeWordVector(1, {"a": 1})
    assert edge_flag_vector(_g(4, (0, 1), (2, 3))) == EdgeWordVector(2, {"aa": 2})
    assert edge_flag_vector(_g(3, (0, 1), (1, 2))) == EdgeWordVector(
        2, {"aa": 2, "ca": 2}
    )
    assert edge_flag_vector(_g(0)) == EdgeWordVector(0, {"": 1})


def test_edge_flag_triangle():
    # every removal order sees multiplicities (2, 2), then (2, 1), then (1, 1)
    assert edge_flag_vector(_g(3, (0, 1), (1, 2), (0, 2))) == EdgeWordVector(
        3, {"aaa": 6, "baa": 6, "aca": 6, "bca": 6}
    )


def test_edge_flag_is_isomorphism_invariant():
    g = _g(4, (0, 1), (1, 2), (2, 3))
    for perm in itertools.permutations(range(4)):
        assert edge_flag_vector(g.relabel(perm)) == edge_flag_vector(g)


def _order_sum(g: Graph) -> dict:
    # the definition: over every edge removal order, the product of the
    # factors a + (lo - 1) b + (hi - lo) c, one per removed edge, whose
    # multiplicities lo <= hi count the edges still present
    total: dict = {}
    for order in itertools.permutations(sorted(g.edges)):
        deg = [g.degree(v) for v in range(g.n)]
        words = {"": 1}
        for u, w in order:
            lo, hi = sorted((deg[u], deg[w]))
            factor = {"a": 1, "b": lo - 1, "c": hi - lo}
            words = {
                x + letter: c * k
                for x, c in words.items()
                for letter, k in factor.items()
                if k
            }
            deg[u] -= 1
            deg[w] -= 1
        for x, c in words.items():
            total[x] = total.get(x, 0) + c
    return total


def test_edge_flag_vector_matches_the_order_sum():
    graphs = [g for n in range(6) for g in enumerate_graphs(n) if len(g.edges) <= 7]
    rng = random.Random(20)
    for _ in range(2):
        n = rng.randint(6, 9)
        graphs.append(Graph(n, frozenset(rng.sample(pair_order(n), 7))))
    for g in graphs:
        assert edge_flag_vector(g) == EdgeWordVector(len(g.edges), _order_sum(g)), g


def test_edge_flag_size_limit():
    with pytest.raises(SizeLimitError):
        edge_flag_vector(complement(_g(5)))
