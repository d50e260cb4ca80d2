"""Property checks of the vertex-subset kernel against the definitional sums.

The verbose kernel folds optional edges into its step weight and the concise
and subgraph forms are derived from it, so each is compared here with a path
that shares none of that: shelling sums, spanning-subgraph sums weighted by
tree or acyclic shelling numbers, and the inclusion-exclusion expansion.
"""

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphflag.graphs
from graphflag import (
    ConciseVector,
    Graph,
    OptionalGraph,
    Partition,
    SizeLimitError,
    VerboseVector,
    acyclic_shelling_number,
    complement,
    complement_transform,
    concise_flag_vector,
    connected_partition,
    enumerate_partitions,
    expand,
    pair_order,
    parse_graph,
    subgraph_flag_vector,
    tree_shelling_number,
    verbose_flag_vector,
    verbose_from_concise,
)
from graphflag.flagvectors import MAX_VERBOSE_N, _unpack, _verbose_dp
from graphflag.graphs import neighbor_masks
from graphflag.selftest import _shelling_sum, _subgraph_sum


@st.composite
def labelled_graphs(draw, max_n=7, max_edges=10, max_optional=3):
    n = draw(st.integers(0, max_n))
    pairs = pair_order(n)
    m = draw(st.integers(0, min(max_edges, len(pairs))))
    k = draw(st.integers(0, min(max_optional, m)))
    chosen = draw(st.permutations(pairs))[:m]
    return OptionalGraph(n, frozenset(chosen[k:]), frozenset(chosen[:k]))


def _expanded_sum(og, form):
    total = None
    for term, coeff in expand(og).items():
        vec = coeff * form(term)
        total = vec if total is None else total + vec
    return total


@settings(max_examples=25)
@given(labelled_graphs(max_optional=2))
def test_dp_equals_shelling_sum(og):
    assert verbose_flag_vector(og) == _shelling_sum(og)


@settings(max_examples=40)
@given(labelled_graphs())
def test_optional_dp_equals_signed_expansion(og):
    assert verbose_flag_vector(og) == _expanded_sum(og, verbose_flag_vector)


@settings(max_examples=40)
@given(labelled_graphs())
def test_concise_equals_tree_weighted_subset_sum(og):
    expected = _expanded_sum(og, lambda g: _subgraph_sum(g, tree_shelling_number))
    assert concise_flag_vector(og) == expected


@settings(max_examples=40)
@given(labelled_graphs())
def test_subgraph_equals_acyclic_weighted_subset_sum(og):
    expected = _expanded_sum(og, lambda g: _subgraph_sum(g, acyclic_shelling_number))
    assert subgraph_flag_vector(og) == expected


@settings(max_examples=40)
@given(labelled_graphs(max_edges=21), st.randoms(use_true_random=False))
def test_forms_are_invariant_under_relabelling(og, rng):
    perm = list(range(og.n))
    rng.shuffle(perm)
    moved = og.relabel(tuple(perm))
    for form in (verbose_flag_vector, concise_flag_vector, subgraph_flag_vector):
        assert form(moved) == form(og)


def _walked_concise(g: Graph) -> ConciseVector:
    # spanning-subgraph sum by an edge-subset walk written apart from the package
    edges = sorted(g.edges)
    coeffs = {}
    for r in range(len(edges) + 1):
        for pick in itertools.combinations(edges, r):
            sub = Graph(g.n, frozenset(pick))
            s = tree_shelling_number(sub)
            if s:
                part = connected_partition(sub)
                coeffs[part] = coeffs.get(part, 0) + s
    return ConciseVector(g.n, coeffs)


def test_concise_above_the_verbose_bound_sums_subgraphs():
    g = parse_graph("10:0-1,1-2,2-3,3-4,1-5,6-7,7-8,6-8,8-9").as_graph()
    assert concise_flag_vector(g) == _walked_concise(g)
    og = parse_graph("10:0-1,?1-2,2-3,?3-4,1-5,6-7,?7-8,6-8")
    expected = ConciseVector(10)
    choices = sorted(og.optional)
    for r in range(len(choices) + 1):
        for pick in itertools.combinations(choices, r):
            sign = (-1) ** (len(choices) - r)
            expected += sign * _walked_concise(Graph(10, og.regular | set(pick)))
    assert concise_flag_vector(og) == expected


def test_flag_vectors_search_no_canonical_form(monkeypatch):
    calls = []
    original = graphflag.graphs.canonical_form

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(graphflag.graphs, "canonical_form", counting)
    g = parse_graph("6:0-1,1-2,2-3,3-4,4-5,0-5,1-4").as_graph()
    og = parse_graph("6:0-1,?1-2,2-3,?3-4,4-5,?0-5")
    for x in (g, og):
        verbose_flag_vector(x)
        concise_flag_vector(x)
        subgraph_flag_vector(x)
    assert calls == []
    expand(og)  # canonicalises its terms, so the counter does see calls
    assert calls


def _whole_dp(g) -> VerboseVector:
    # the recursion on the whole labelled graph, which never splits components
    og = g if isinstance(g, OptionalGraph) else OptionalGraph.from_graph(g)
    masks = neighbor_masks(og.n, og.regular), neighbor_masks(og.n, og.optional)
    return VerboseVector(og.n, _unpack(*_verbose_dp(*masks)))


def _disjoint_union(a: OptionalGraph, b: OptionalGraph) -> OptionalGraph:
    def shift(edges):
        return frozenset((i + a.n, j + a.n) for i, j in edges)

    return OptionalGraph(
        a.n + b.n, a.regular | shift(b.regular), a.optional | shift(b.optional)
    )


def _part_union_product(u: ConciseVector, v: ConciseVector) -> ConciseVector:
    coeffs = {}
    for p, c in u.items():
        for q, d in v.items():
            key = Partition.from_sizes(p.parts + q.parts)
            coeffs[key] = coeffs.get(key, 0) + c * d
    return ConciseVector(u.n + v.n, coeffs)


@settings(max_examples=30)
@given(labelled_graphs(max_n=5), labelled_graphs(max_n=5))
def test_concise_of_disjoint_union_is_the_part_union_product(a, b):
    union = _disjoint_union(a, b)
    product = _part_union_product(concise_flag_vector(a), concise_flag_vector(b))
    assert concise_flag_vector(union) == product
    # the whole-graph recursion never splits components
    assert verbose_from_concise(product) == _whole_dp(union)


@pytest.mark.parametrize("sizes", [(5, 4, 1), (3, 3, 3, 2), (7, 7)])
def test_part_union_keys_are_the_listed_partitions_up_to_the_verbose_bound(sizes):
    # up to MAX_VERBOSE_N a product is keyed by the objects that
    # enumerate_partitions lists, and so the conversion tables; past it
    # (7 + 7) by keys of its own, equal to them
    parts = [OptionalGraph.from_graph(Graph(m, frozenset(pair_order(m)))) for m in sizes]
    union = functools.reduce(_disjoint_union, parts)
    vec = concise_flag_vector(union)
    assert vec == functools.reduce(_part_union_product, map(concise_flag_vector, parts))
    listed = {id(p) for p in enumerate_partitions(union.n)}
    assert all((id(p) in listed) == (union.n <= MAX_VERBOSE_N) for p in vec._coeffs)


def test_concise_on_9_to_12_vertices_re_expands_to_the_recursion():
    # no shelling oracle reaches these sizes; the whole-graph recursion and
    # the complement transform are the independent paths
    rng = random.Random(20261018)
    connected = set()
    for n, density in ((9, 0.2), (10, 0.35), (11, 0.15), (12, 0.12), (12, 0.3)):
        g = Graph(n, frozenset(e for e in pair_order(n) if rng.random() < density))
        connected.add(len(connected_partition(g).parts) == 1)
        verbose = _whole_dp(g)
        assert verbose_from_concise(concise_flag_vector(g)) == verbose
        assert complement_transform(verbose) == verbose_flag_vector(complement(g))
    assert connected == {True, False}


def test_complete_graphs_match_the_closed_form_up_to_the_bound():
    # removing the i-th vertex (from 0) of K_n leaves it n - 1 - i neighbours
    # and any of the n - i remaining vertices may go, so the word w has
    # coefficient n! times the product of n - 1 - i over its b positions;
    # the b^(n-1) a slot, 12! 11! at n = 12, is the largest any graph reaches
    for n in range(13):
        expected = {}
        for letters in itertools.product("ab", repeat=n):
            c = math.factorial(n)
            for i, ch in enumerate(letters):
                if ch == "b":
                    c *= n - 1 - i
            if c:
                expected["".join(letters)] = c
        complete = Graph(n, frozenset(pair_order(n)))
        assert verbose_flag_vector(complete).to_mapping() == expected


def test_optional_edges_of_k12_fold_to_the_signed_regular_sum():
    # expand would canonicalise 12-vertex terms, past its bound, so the
    # inclusion-exclusion sum over the optional edges is built here
    optional = [(0, 1), (1, 2), (5, 11)]
    regular = frozenset(pair_order(12)) - set(optional)
    expected = VerboseVector(12)
    for r in range(len(optional) + 1):
        for pick in itertools.combinations(optional, r):
            sign = (-1) ** (len(optional) - r)
            expected += sign * verbose_flag_vector(Graph(12, regular | set(pick)))
    og = OptionalGraph(12, regular, frozenset(optional))
    assert verbose_flag_vector(og) == expected
    assert not expected.is_zero


@settings(max_examples=60)
@given(labelled_graphs(max_n=8, max_edges=16, max_optional=4))
def test_complement_transform_of_an_optional_graph(og):
    # the complement keeps the optional edges, swaps regular edges with
    # non-edges, and flips the sign once per optional edge
    others = frozenset(pair_order(og.n)) - og.regular - og.optional
    flipped = OptionalGraph(og.n, others, og.optional)
    assert complement_transform(verbose_flag_vector(og)) == (
        (-1) ** len(og.optional) * verbose_flag_vector(flipped)
    )


@pytest.mark.parametrize(
    "text",
    [
        "14:0-1,1-2,2-3,3-4,0-4,1-3,5-6,?6-7,7-8,9-10,10-11,9-11",
        "20:0-1,1-2,2-3,3-4,4-0,6-7,7-8,?8-9,10-11,12-13,13-14,15-16,?17-18",
    ],
)
def test_concise_with_small_components_matches_the_subset_sum(text):
    og = parse_graph(text)
    assert concise_flag_vector(og) == _subgraph_sum(og, tree_shelling_number)


def test_component_above_the_bound_is_refused():
    path13 = ",".join(f"{i}-{i + 1}" for i in range(12))
    for text in (f"13:{path13}", f"20:{path13},14-15,?16-17"):
        for form in (concise_flag_vector, subgraph_flag_vector):
            with pytest.raises(SizeLimitError):
                form(parse_graph(text))
    # twelve vertices per component are inside the bound, at any n
    two_paths = [(i, i + 1) for i in range(11)] + [(i, i + 1) for i in range(12, 23)]
    vec = concise_flag_vector(Graph(24, frozenset(two_paths)))
    assert vec.coefficient(Partition((12, 12))) == (2 ** 9) ** 2


@pytest.mark.parametrize(
    "text",
    ["8:0-1,1-2,2-3,3-0,4-5,5-6,1-6,2-7,6-7", "8:0-1,?1-2,2-3,3-4,4-5,?5-6,6-7,0-7,2-6"],
)
def test_subgraph_at_8_vertices_matches_the_acyclic_subset_sum(text):
    og = parse_graph(text)
    assert subgraph_flag_vector(og) == _subgraph_sum(og, acyclic_shelling_number)
