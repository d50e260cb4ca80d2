import collections
import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphflag
from graphflag import (
    Graph,
    GraphParseError,
    GraphSum,
    OptionalGraph,
    SizeLimitError,
    canonical_form,
    complement,
    connected_partition,
    enumerate_graphs,
    expand,
    pair_order,
    parse_graph,
)
from graphflag import graphs
from graphflag.graphs import _is_least, _perm_array, _perm_chunks


# ---------------------------------------------------------------------------
# independent oracle: canonical keys as minimal sorted edge tuples

def _oracle_key(g: Graph):
    best = None
    for perm in itertools.permutations(range(g.n)):
        edges = tuple(
            sorted((min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in g.edges)
        )
        if best is None or edges < best:
            best = edges
    return (g.n, best)


def _oracle_class_count(n: int) -> int:
    pairs = pair_order(n)
    seen = set()
    for mask in range(1 << len(pairs)):
        g = Graph(n, frozenset(p for k, p in enumerate(pairs) if mask >> k & 1))
        seen.add(_oracle_key(g))
    return len(seen)


# ---------------------------------------------------------------------------
# parsing

def test_parse_plain_and_optional():
    og = parse_graph("4:0-1,1-2,2-3")
    assert og.n == 4 and og.optional == frozenset()
    assert og.regular == frozenset({(0, 1), (1, 2), (2, 3)})
    tri = parse_graph("3:?0-1,?1-2,?0-2")
    assert tri.regular == frozenset()
    assert tri.optional == frozenset({(0, 1), (1, 2), (0, 2)})


def test_parse_edgeless_and_whitespace():
    assert parse_graph("3:").as_graph() == Graph(3, frozenset())
    og = parse_graph(" 5 : 4-0 , ?2-3 ")
    assert og.regular == frozenset({(0, 4)}) and og.optional == frozenset({(2, 3)})


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("3", "missing ':'"),
        ("x:0-1", "vertex count"),
        ("3:0-0", "self-loop"),
        ("3:0-5", "out of range"),
        ("3:0-1,0-1", "duplicate"),
        ("3:0-1,?1-0", "duplicate"),
        ("3:0-1,,1-2", "empty edge"),
        ("3:0+1", "bad edge"),
        ("²:", "bad vertex count '²' at position 0"),
        ("3:0-²", "bad edge '0-²' at position 2"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


def test_parse_error_positions():
    with pytest.raises(GraphParseError) as err:
        parse_graph("3:0-1,4-1")
    assert "position 6" in str(err.value)


# ---------------------------------------------------------------------------
# complement

def test_complement_examples():
    assert complement(Graph(3, frozenset())) == Graph.from_edges(
        3, [(0, 1), (0, 2), (1, 2)]
    )
    assert len(complement(Graph.from_edges(4, [(0, 1)])).edges) == 5


def test_complement_is_involution():
    for n in range(6):
        for g in enumerate_graphs(n):
            assert complement(complement(g)) == g


def test_complement_respects_isomorphism_classes():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    base = canonical_form(complement(g))[0]
    for perm in itertools.permutations(range(4)):
        assert canonical_form(complement(g.relabel(perm)))[0] == base


# ---------------------------------------------------------------------------
# canonical forms

def test_canonical_relabelling_examples():
    a = Graph.from_edges(3, [(0, 1), (1, 2)])
    b = Graph.from_edges(3, [(0, 2), (2, 1)])
    assert canonical_form(a)[0] == canonical_form(b)[0]
    edgeless = Graph(4, frozenset())
    assert canonical_form(edgeless) == (edgeless, (0, 1, 2, 3))


def test_canonical_witness_and_idempotence():
    for n in range(6):
        for g in enumerate_graphs(n):
            can, rho = canonical_form(g)
            assert g.relabel(rho) == can
            assert canonical_form(can)[0] == can


def test_canonical_agrees_with_oracle_on_all_labelled_graphs_n4():
    pairs = pair_order(4)
    for mask in range(1 << len(pairs)):
        g = Graph(4, frozenset(p for k, p in enumerate(pairs) if mask >> k & 1))
        can, _ = canonical_form(g)
        assert _oracle_key(can) == _oracle_key(g)
        # minimality in the documented bitstring sense
        for perm in itertools.permutations(range(4)):
            assert can.bitstring() <= g.relabel(perm).bitstring()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_canonical_is_isomorphism_invariant(data):
    n = data.draw(st.integers(0, 5))
    pairs = list(itertools.combinations(range(n), 2))
    edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    perm = tuple(data.draw(st.permutations(range(n))))
    g = Graph(n, frozenset(edges))
    assert canonical_form(g.relabel(perm))[0] == canonical_form(g)[0]


def test_canonical_size_limit():
    with pytest.raises(SizeLimitError):
        canonical_form(Graph(11, frozenset()))


def _full_scan(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Oracle: key every one of the n! relabelled strings in full.

    The argmin over all keys, in `itertools.permutations` order, so ties go
    to the first permutation q (q[new] = old); returns (form, rho).
    """
    import numpy as np

    n = g.n
    adjacency = np.zeros((n, n), dtype=np.int64)
    for i, j in g.edges:
        adjacency[i, j] = adjacency[j, i] = 1
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    pairs = pair_order(n)
    i_idx = np.array([i for i, _ in pairs], dtype=np.int64)
    j_idx = np.array([j for _, j in pairs], dtype=np.int64)
    rows = adjacency[perms[:, i_idx], perms[:, j_idx]]
    keys = rows @ (1 << np.arange(len(pairs) - 1, -1, -1, dtype=np.int64))
    best = int(keys.argmin())  # the first on ties
    form = Graph(n, frozenset(p for p, bit in zip(pairs, rows[best]) if bit))
    rho = [0] * n
    for new, old in enumerate(perms[best]):
        rho[old] = new
    return form, tuple(rho)


def _circulant(n, steps):
    return Graph.from_edges(n, [(i, (i + d) % n) for i in range(n) for d in steps])


# the symmetric 8-vertex families of perfbench's canon workload
_SYMMETRIC8 = {
    "C8": _circulant(8, (1,)),
    "K4,4": Graph.from_edges(8, [(i, j) for i in range(4) for j in range(4, 8)]),
    "Q3": Graph.from_edges(8, [(i, i ^ 1 << b) for i in range(8) for b in range(3)]),
    "C8(1,2)": _circulant(8, (1, 2)),
    "2C4": _circulant(4, (1,)).disjoint_union(_circulant(4, (1,))),
    "4K2": Graph.from_edges(8, [(2 * i, 2 * i + 1) for i in range(4)]),
}


def test_canonical_matches_the_full_scan_on_every_labelled_graph_n5():
    for n in range(6):
        pairs = pair_order(n)
        for mask in range(1 << len(pairs)):
            g = Graph(n, frozenset(p for k, p in enumerate(pairs) if mask >> k & 1))
            assert canonical_form(g) == _full_scan(g), g


@pytest.mark.parametrize("n", [6, 7, 8])
def test_canonical_matches_the_full_scan_on_random_graphs(n):
    rng = random.Random(n)
    pairs = pair_order(n)
    for _ in range(25):
        g = Graph(n, frozenset(p for p in pairs if rng.random() < rng.random()))
        assert canonical_form(g) == _full_scan(g), g


def test_canonical_matches_the_full_scan_on_symmetric_graphs():
    rng = random.Random(16)
    cases = [Graph(8, frozenset()), complement(Graph(8, frozenset()))]
    for g in _SYMMETRIC8.values():
        cases += [g, complement(g)]
    for g in cases:
        perm = list(range(8))
        rng.shuffle(perm)
        for h in (g, g.relabel(tuple(perm))):
            assert canonical_form(h) == _full_scan(h), h


def test_permutation_table_is_in_lexicographic_order():
    for n in range(9):
        assert _perm_array(n).tolist() == [list(p) for p in itertools.permutations(range(n))]
    expected = itertools.permutations(range(9))
    blocks = 0
    for block in _perm_chunks(9):
        assert block.shape == (40320, 9)
        assert block.tolist() == [list(p) for p in itertools.islice(expected, 40320)]
        blocks += 1
    assert blocks == 9 and next(expected, None) is None


def test_canonical_witness_past_one_block():
    # every relabelling of K9 ties, so the witness is the first of all
    # 9! (identity), not the first of a later block of 8!
    k9 = complement(Graph(9, frozenset()))
    assert canonical_form(k9) == (k9, tuple(range(9)))
    rng = random.Random(10)
    g = Graph(10, frozenset(p for p in pair_order(10) if rng.random() < 0.5))
    form, rho = canonical_form(g)
    assert g.relabel(rho) == form
    perm = list(range(10))
    rng.shuffle(perm)
    assert canonical_form(g.relabel(tuple(perm)))[0] == form


# ---------------------------------------------------------------------------
# enumeration

@pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (3, 4), (4, 11), (5, 34)])
def test_class_counts_match_bruteforce_oracle(n, count):
    classes = enumerate_graphs(n)
    assert len(classes) == count
    assert _oracle_class_count(n) == count
    # all canonical, sorted, distinct
    keys = [g.bitstring() for g in classes]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert all(canonical_form(g)[0] == g for g in classes)


def test_class_count_n6():
    assert len(enumerate_graphs(6)) == 156


def test_class_count_n7():
    assert len(enumerate_graphs(7)) == 1044


@pytest.mark.slow
def test_class_count_n8():
    classes = enumerate_graphs(8)
    assert len(classes) == 12346  # OEIS A000088
    keys = [g.bitstring() for g in classes]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    for g in random.Random(8).sample(classes, 100):
        assert canonical_form(g)[0] == g


def test_enumerate_size_limit():
    with pytest.raises(SizeLimitError):
        enumerate_graphs(9)


def test_classes_match_the_networkx_atlas():
    atlas = collections.defaultdict(set)
    for a in nx.graph_atlas_g():
        n = a.number_of_nodes()
        atlas[n].add(canonical_form(Graph.from_edges(n, a.edges()))[0].bitstring())
    for n in range(8):
        assert [g.bitstring() for g in enumerate_graphs(n)] == sorted(atlas[n])


def _code(g: Graph) -> int:
    """The bitstring of g packed into an int, first pair in the top bit."""
    return int(g.bitstring() or "0", 2)


def test_least_test_matches_the_bruteforce_minimum_n5():
    # every labelled graph on n <= 5 vertices, each orbit relabelled in full
    for n in range(6):
        pairs = pair_order(n)
        graphs = [
            Graph(n, frozenset(p for k, p in enumerate(pairs) if mask >> k & 1))
            for mask in range(1 << len(pairs))
        ]
        least = {}
        for g in graphs:
            if _code(g) not in least:
                perms = itertools.permutations(range(n))
                orbit = {_code(g.relabel(perm)) for perm in perms}
                least.update(dict.fromkeys(orbit, min(orbit)))
        for g in graphs:
            code = _code(g)
            assert _is_least(g.neighbor_masks(), code) == (code == least[code])


@settings(max_examples=40)
@given(st.integers(6, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.sampled_from(pair_order(n))))
))
def test_least_test_agrees_with_canonical_form(case):
    n, edges = case
    g = Graph(n, frozenset(edges))
    can, _ = canonical_form(g)
    assert _is_least(g.neighbor_masks(), _code(g)) == (can == g)
    assert _is_least(can.neighbor_masks(), _code(can))


# ---------------------------------------------------------------------------
# connectivity partitions

def test_connected_partition_examples():
    assert connected_partition(parse_graph("4:0-1,1-2,2-3").as_graph()).parts == (4,)
    assert connected_partition(parse_graph("4:0-1").as_graph()).parts == (2, 1, 1)
    assert connected_partition(Graph(4, frozenset())).parts == (1, 1, 1, 1)
    assert connected_partition(Graph(0, frozenset())).parts == ()


# ---------------------------------------------------------------------------
# formal sums and optional expansion

def test_expand_single_optional_edge():
    gs = expand(parse_graph("2:?0-1"))
    assert gs.coefficient(Graph(2, frozenset())) == -1
    assert gs.coefficient(Graph.from_edges(2, [(0, 1)])) == 1
    assert len(gs) == 2


def test_expand_optional_triangle_merges_to_signed_classes():
    gs = expand(parse_graph("3:?0-1,?1-2,?0-2"))
    by_edges = {len(g.edges): c for g, c in gs.items()}
    assert by_edges == {0: -1, 1: 3, 2: -3, 3: 1}


def test_expand_empty_choice_set():
    g = parse_graph("3:0-1")
    gs = expand(g)
    assert gs.items() == ((canonical_form(g.as_graph())[0], 1),)


def test_expand_coefficients_alternate_and_sum_to_zero():
    og = parse_graph("4:0-1,?1-2,?2-3,?0-3")
    gs = expand(og)
    assert sum(c for _, c in gs.items()) == 0
    assert sum(abs(c) for _, c in gs.items()) <= 2 ** len(og.optional)


def test_expand_size_limit():
    og = OptionalGraph(7, frozenset(), frozenset(pair_order(7)))
    with pytest.raises(SizeLimitError):
        expand(og)


def test_expand_refuses_a_graph_past_the_canonical_bound_before_any_term(monkeypatch):
    # 17 optional edges on 11 vertices: 2^17 terms, none of which
    # canonical_form accepts
    og = OptionalGraph(11, frozenset(), frozenset(pair_order(11)[:17]))

    def no_term(*args):
        raise AssertionError("expand built a term")

    monkeypatch.setattr(graphs, "Graph", no_term)
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="n <= 10"):
        expand(og)
    assert time.perf_counter() - start < 0.5


def test_graph_sum_algebra():
    a = GraphSum.from_graph(Graph(2, frozenset()))
    b = GraphSum.from_graph(Graph.from_edges(2, [(0, 1)]), 2)
    total = a + b - 2 * a
    assert total.coefficient(Graph(2, frozenset())) == -1
    assert total.coefficient(Graph.from_edges(2, [(0, 1)])) == 2
    assert (total - total).is_zero
    # isomorphic keys merge
    merged = GraphSum(3, {Graph.from_edges(3, [(0, 1)]): 1, Graph.from_edges(3, [(1, 2)]): 1})
    assert len(merged) == 1 and sum(c for _, c in merged.items()) == 2


def test_graph_sum_disjoint_union_is_bilinear():
    a = expand(parse_graph("2:?0-1"))
    b = expand(parse_graph("1:"))
    union = a.disjoint_union(b)
    assert union.n == 3
    assert union.coefficient(Graph(3, frozenset())) == -1
    assert union.coefficient(Graph.from_edges(3, [(0, 1)])) == 1


def test_serialize_round_trip():
    for n in range(5):
        for g in enumerate_graphs(n):
            assert Graph.from_bitstring(n, g.bitstring()) == g
            assert parse_graph(g.to_text()).as_graph() == g


def test_from_bitstring_checks_the_length_before_listing_pairs():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="does not fit"):
        Graph.from_bitstring(10**6, "")  # about 5 * 10^11 pairs
    assert time.perf_counter() - start < 1.0
    for n, bits in ((3, "11"), (3, "1111"), (3, "1a1")):
        with pytest.raises(ValueError, match="does not fit"):
            Graph.from_bitstring(n, bits)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Graph(True, frozenset()),
        lambda: Graph(3, frozenset({(False, True)})),
        lambda: OptionalGraph(True, frozenset(), frozenset()),
        lambda: OptionalGraph(3, frozenset({(0, True)}), frozenset()),
        lambda: OptionalGraph(3, frozenset(), frozenset({(False, True)})),
    ],
    ids=["Graph n", "Graph edge", "OptionalGraph n", "regular edge", "optional edge"],
)
def test_a_bool_is_refused_where_a_vertex_int_is_meant(make):
    # a bool compares as 0 or 1, but would be written as False or True
    with pytest.raises(ValueError, match="int"):
        make()


def test_pair_order_keeps_a_bounded_cache():
    for n in range(257):
        Graph(n, frozenset()).serialize()
    assert pair_order.cache_info().currsize <= graphs.MAX_CANONICAL_N + 1


_NUMPY_PROBE = """
import sys
from graphflag import (
    canonical_form, class_concise_points, cli, concise_flag_vector,
    enumerate_graphs, hull_report, nullspace_report, parse_graph,
    span_dimension, subgraph_flag_vector, verbose_flag_vector,
)
og = parse_graph("8:0-1,1-2,2-3,3-4,4-5,5-6,6-7,1-6,?0-7,?2-5")
for form in (verbose_flag_vector, concise_flag_vector, subgraph_flag_vector):
    assert not form(og).is_zero
assert cli.main(["flagvec", "--form", "concise", "--graph", "8:0-1,?1-2"]) == 0
assert len(enumerate_graphs(7)) == 1044
assert len(class_concise_points(6)) == 156 and span_dimension(6) == 11
assert hull_report(5, include_facets=True).all_vertices
assert nullspace_report(5).kernel_dim == 27
assert "numpy" not in sys.modules, "numpy loaded outside the canonical search"
assert canonical_form(parse_graph("3:0-2").as_graph())[0].to_text() == "3:1-2"
assert "numpy" in sys.modules
"""


def test_numpy_is_loaded_by_the_canonical_search_alone():
    src = str(Path(graphflag.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
