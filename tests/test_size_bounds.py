"""Every public entry point with a size bound answers inside it and refuses
just past it, and far past it, with SizeLimitError before any work."""

import argparse
import math
import time

import pytest

from graphflag import (
    ConciseVector,
    Graph,
    OptionalGraph,
    Partition,
    SizeLimitError,
    VerboseVector,
    acyclic_shelling_number,
    anchor_word,
    basis_graph,
    canonical_form,
    complement,
    complement_transform,
    concise_flag_vector,
    concise_from_verbose,
    connected_partition,
    count_semiconcise_flags,
    edge_flag_vector,
    enumerate_graphs,
    enumerate_partitions,
    enumerate_shellings,
    expand,
    hull_facets,
    hull_report,
    multinomial,
    nullspace_report,
    pair_order,
    parse_graph,
    partition_count,
    scale_subgraph_to_concise,
    shuffle,
    span_dimension,
    subgraph_flag_vector,
    total_flag_vector,
    total_word_coefficient,
    tree_shelling_number,
    verbose_contribution,
    verbose_flag_vector,
    verbose_from_concise,
)
from graphflag import flagvectors, polytope
from graphflag.cli import _cmd_average, main
from graphflag.errors import MAX_GRAPH_N
from graphflag.flagvectors import (
    MAX_BASIS_N,
    MAX_EDGE_FLAG_EDGES,
    MAX_PRODUCT_WORK,
    MAX_TOTAL_N,
    MAX_VERBOSE_N,
)
from graphflag.graphs import (
    MAX_CANONICAL_N,
    MAX_ENUMERATE_N,
    MAX_EXPAND_WORK,
    MAX_PAIR_ORDER_N,
)
from graphflag.partitions import MAX_PARTITIONS_N
from graphflag.polytope import MAX_FACET_DIM, MAX_FACET_POINTS, MAX_HULL_N, MAX_SPAN_N
from graphflag.shellings import MAX_SHELLING_N, MAX_TREE_COMPONENT

HUGE_N = 10**6


def _edgeless(n):
    return Graph(n, frozenset())


def _path(n):
    return Graph(n, frozenset((i, i + 1) for i in range(n - 1)))


def _optional8(k):
    # k optional edges on 8 vertices: 2^k terms of up to 8! relabellings each
    return OptionalGraph(8, frozenset(), frozenset(pair_order(8)[:k]))


# the most optional edges expand takes on 8 vertices: 8, as 2^8 8! <= 2^24
_OPTIONAL8_K = max(k for k in range(29) if 2**k * 40320 <= MAX_EXPAND_WORK)


def _cliques(k, m):
    # k disjoint copies of K_m
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    edges = ((c * m + i, c * m + j) for c in range(k) for i, j in pairs)
    return Graph(k * m, frozenset(edges))


def _triangles_work(k):
    # the concise product's work over k triangles: after j of them there are
    # C(j + 2, 2) multisets of the p(3) = 3 partitions of 3, on 3 j vertices
    return sum(math.comb(j + 2, 2) * 3 * j for j in range(1, k + 1))


# the most disjoint triangles concise_flag_vector takes: 95
_TRIANGLES_K = max(k for k in range(200) if _triangles_work(k) <= MAX_PRODUCT_WORK)

# (name, call on one value, a cheap value inside the bound, bound, huge value)
BOUNDS = [
    # the graph bound, checked where a graph is made
    ("Graph", _edgeless, MAX_GRAPH_N, MAX_GRAPH_N, 10**9),
    ("OptionalGraph", lambda n: OptionalGraph(n, frozenset(), frozenset()),
     MAX_GRAPH_N, MAX_GRAPH_N, 10**9),
    ("parse_graph", lambda n: parse_graph(f"{n}:0-1"), MAX_GRAPH_N, MAX_GRAPH_N, 10**9),
    # graphs
    ("canonical_form", lambda n: canonical_form(_edgeless(n)),
     MAX_CANONICAL_N, MAX_CANONICAL_N, MAX_GRAPH_N),
    ("enumerate_graphs", enumerate_graphs, 4, MAX_ENUMERATE_N, HUGE_N),
    ("expand n", lambda n: expand(OptionalGraph(n, frozenset(), frozenset())),
     MAX_CANONICAL_N, MAX_CANONICAL_N, MAX_GRAPH_N),
    ("expand work", lambda k: expand(_optional8(k)), 2, _OPTIONAL8_K, 28),
    ("complement", lambda n: complement(_edgeless(n)), 20, MAX_PAIR_ORDER_N, MAX_GRAPH_N),
    ("pair_order", pair_order, MAX_PAIR_ORDER_N, MAX_PAIR_ORDER_N, HUGE_N),
    ("Graph.serialize", lambda n: _edgeless(n).serialize(),
     MAX_PAIR_ORDER_N, MAX_PAIR_ORDER_N, MAX_GRAPH_N),
    # flag vectors and conversions
    ("verbose_flag_vector", lambda n: verbose_flag_vector(_edgeless(n)),
     MAX_VERBOSE_N, MAX_VERBOSE_N, MAX_GRAPH_N),
    ("concise_flag_vector component", lambda n: concise_flag_vector(_path(n)),
     MAX_VERBOSE_N, MAX_VERBOSE_N, MAX_GRAPH_N),
    ("concise_flag_vector product", lambda k: concise_flag_vector(_cliques(k, 3)),
     80, _TRIANGLES_K, MAX_GRAPH_N // 3),
    ("shuffle", lambda n: shuffle(Partition((n,))), MAX_VERBOSE_N, MAX_VERBOSE_N, HUGE_N),
    ("verbose_from_concise",
     lambda n: verbose_from_concise(ConciseVector(n, {Partition((n,)): 1})),
     MAX_VERBOSE_N, MAX_VERBOSE_N, HUGE_N),
    ("concise_from_verbose", lambda n: concise_from_verbose(VerboseVector(n)),
     MAX_VERBOSE_N, MAX_VERBOSE_N, HUGE_N),
    ("complement_transform",
     lambda n: complement_transform(VerboseVector(n, {"a" * n: 1})),
     MAX_VERBOSE_N, MAX_VERBOSE_N, HUGE_N),
    ("anchor_word", lambda n: anchor_word(Partition((n,))), MAX_VERBOSE_N, MAX_VERBOSE_N,
     10**11),
    ("total_word_coefficient", lambda n: total_word_coefficient(n, "a" * n),
     MAX_TOTAL_N, MAX_TOTAL_N, HUGE_N),
    ("total_flag_vector", total_flag_vector, 3, MAX_TOTAL_N, HUGE_N),
    ("average", lambda n: _cmd_average(argparse.Namespace(n=n, word=None)), 3,
     MAX_TOTAL_N, HUGE_N),
    ("basis_graph", lambda n: basis_graph(Partition((n,))), 3, MAX_BASIS_N, HUGE_N),
    ("edge_flag_vector", lambda m: edge_flag_vector(_path(m + 1)), 3,
     MAX_EDGE_FLAG_EDGES, MAX_GRAPH_N - 1),
    ("scale_subgraph_to_concise",
     lambda n: scale_subgraph_to_concise(ConciseVector(n, {Partition((n,)): 4})),
     MAX_GRAPH_N, MAX_GRAPH_N, HUGE_N),
    # partitions
    ("enumerate_partitions", enumerate_partitions, MAX_PARTITIONS_N, MAX_PARTITIONS_N,
     HUGE_N),
    ("partition_count", partition_count, MAX_PARTITIONS_N, MAX_PARTITIONS_N, HUGE_N),
    ("multinomial", lambda n: multinomial(n, [n - 1, 1]), MAX_GRAPH_N, MAX_GRAPH_N,
     HUGE_N),
    # span, hull and null space
    ("span_dimension", span_dimension, 3, MAX_SPAN_N, HUGE_N),
    ("hull_report", hull_report, 3, MAX_HULL_N, HUGE_N),
    ("nullspace_report", nullspace_report, 3, MAX_SPAN_N, HUGE_N),
    ("hull_facets points", lambda k: hull_facets([(i,) for i in range(k)]),
     MAX_FACET_POINTS, MAX_FACET_POINTS, 10**5),
    ("hull_facets dimension", lambda d: hull_facets([(0,) * d, (1,) * d]),
     MAX_FACET_DIM, MAX_FACET_DIM, 10**5),
    # shellings
    ("enumerate_shellings", lambda n: enumerate_shellings(_edgeless(n)),
     MAX_SHELLING_N, MAX_SHELLING_N, MAX_GRAPH_N),
    ("acyclic_shelling_number", lambda n: acyclic_shelling_number(_edgeless(n)),
     MAX_SHELLING_N, MAX_SHELLING_N, MAX_GRAPH_N),
    ("tree_shelling_number", lambda n: tree_shelling_number(_path(n)),
     MAX_TREE_COMPONENT, MAX_TREE_COMPONENT, MAX_GRAPH_N),
    ("count_semiconcise_flags",
     lambda n: count_semiconcise_flags(_edgeless(n), "a" * n),
     MAX_VERBOSE_N, MAX_VERBOSE_N, MAX_GRAPH_N),
    ("verbose_contribution",
     lambda n: verbose_contribution(_edgeless(n), tuple(range(n))),
     MAX_VERBOSE_N, MAX_VERBOSE_N, MAX_GRAPH_N),
]


@pytest.mark.parametrize(
    "call,inside,bound,huge", [row[1:] for row in BOUNDS], ids=[row[0] for row in BOUNDS]
)
def test_bound_answers_inside_and_refuses_past_it(call, inside, bound, huge):
    assert inside <= bound < huge
    call(inside)
    for value in (bound + 1, huge):
        start = time.perf_counter()
        with pytest.raises(SizeLimitError):
            call(value)
        assert time.perf_counter() - start < 1.0


def test_a_graph_past_the_bound_is_refused_while_parsing():
    # the component walk would be quadratic in n: refused before any edge
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="parse_graph"):
        connected_partition(parse_graph("100000:0-1").as_graph())
    assert time.perf_counter() - start < 1.0


def test_cli_refuses_a_graph_past_the_bound(capsys):
    start = time.perf_counter()
    assert main(["edgeflag", "--graph", "3000000:0-1"]) == 2
    assert "size limit" in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "g",
    [_cliques(160, 3), _cliques(1000, 2), _cliques(9, 8), _cliques(6, 12)],
    ids=["160 K3", "1000-edge matching", "9 K8", "6 K12"],
)
@pytest.mark.parametrize("form", [concise_flag_vector, subgraph_flag_vector])
def test_a_long_component_product_is_refused_before_any_recursion(form, g, monkeypatch):
    # unbounded, each of these ran for 17 s or more
    def no_recursion(*args):
        raise AssertionError("a component's recursion ran")

    monkeypatch.setattr(flagvectors, "_verbose_dp", no_recursion)
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="component product work"):
        form(g)
    assert time.perf_counter() - start < 1.0
    # the patched name is the one the forms call: an accepted input reaches it
    with pytest.raises(AssertionError, match="a component's recursion ran"):
        form(_cliques(2, 3))


def test_cli_refuses_a_long_component_product(capsys):
    start = time.perf_counter()
    text = _cliques(6, 12).to_text()
    assert main(["flagvec", "--form", "concise", "--graph", text]) == 2
    assert "component product work" in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


def _moment_curve(k):
    # k points (t, t^2, ..., t^11): a cyclic polytope, with the most facets
    # k points in the largest dimension allow
    return [tuple(t**e for e in range(1, MAX_FACET_DIM + 1)) for t in range(k)]


@pytest.mark.parametrize("cap", [4004, 4003])
def test_hull_facets_answers_up_to_its_ray_cap_and_refuses_past_it(cap, monkeypatch):
    # 20 points peak at their 4,004 facets
    monkeypatch.setattr(polytope, "MAX_FACET_RAYS", cap)
    if cap >= 4004:
        assert len(hull_facets(_moment_curve(20))) == 4004
    else:
        with pytest.raises(SizeLimitError, match="double-description rays"):
            hull_facets(_moment_curve(20))


def test_hull_facets_refuses_thirty_moment_curve_points_by_its_ray_cap():
    # unbounded, they gave 85,008 facets in 47 s at about 200 MiB
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="double-description rays"):
        hull_facets(_moment_curve(30))
    assert time.perf_counter() - start < 10.0
