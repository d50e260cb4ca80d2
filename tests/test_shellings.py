import itertools
import math
import time

import pytest

from graphflag import (
    Graph,
    SizeLimitError,
    acyclic_shelling_number,
    count_semiconcise_flags,
    enumerate_graphs,
    enumerate_shellings,
    multinomial,
    tree_shelling_number,
    verbose_contribution,
)
from graphflag.flagvectors import MAX_VERBOSE_N
from graphflag.vectors import VerboseVector


def _g(n, *edges):
    return Graph.from_edges(n, edges)


# ---------------------------------------------------------------------------
# independent oracles

def _acyclic_oracle(g: Graph) -> int:
    count = 0
    for order in itertools.permutations(range(g.n)):
        edges = set(g.edges)
        ok = True
        for v in order:
            touching = {e for e in edges if v in e}
            if len(touching) > 1:
                ok = False
                break
            edges -= touching
        count += ok
    return count


def _leaf_removal_oracle(g: Graph) -> int:
    # connected tree on >= 3 vertices: sequences of leaf removals down to 3
    def rec(edges, remaining):
        if len(remaining) == 3:
            return 1
        total = 0
        for v in sorted(remaining):
            if sum(v in e for e in edges) == 1:
                total += rec([e for e in edges if v not in e], remaining - {v})
        return total

    return rec(list(g.edges), set(range(g.n)))


# ---------------------------------------------------------------------------
# enumeration

def test_enumerate_shellings_counts():
    assert len(list(enumerate_shellings(_g(3)))) == 6
    assert list(enumerate_shellings(_g(0))) == [()]
    assert len(list(enumerate_shellings(_g(4, (0, 1))))) == 24
    with pytest.raises(SizeLimitError):
        enumerate_shellings(_g(9))


# ---------------------------------------------------------------------------
# acyclic shelling numbers

def test_acyclic_examples():
    assert acyclic_shelling_number(_g(3, (0, 1), (1, 2))) == 4
    assert acyclic_shelling_number(_g(3, (0, 1), (1, 2), (0, 2))) == 0
    assert acyclic_shelling_number(_g(2)) == 2
    assert acyclic_shelling_number(_g(0)) == 1


def test_acyclic_matches_permutation_oracle_n_le_5():
    for n in range(6):
        for g in enumerate_graphs(n):
            assert acyclic_shelling_number(g) == _acyclic_oracle(g)


def test_acyclic_is_isomorphism_invariant():
    g = _g(4, (0, 1), (1, 2))
    for perm in itertools.permutations(range(4)):
        assert acyclic_shelling_number(g.relabel(perm)) == acyclic_shelling_number(g)


def test_acyclic_tree_ratio():
    # 4x the 3-vertex shelling count on trees with >= 3 vertices
    from graphflag import connected_partition

    for n in range(3, 7):
        for g in enumerate_graphs(n):
            if len(g.edges) == n - 1 and connected_partition(g).parts == (n,):
                assert acyclic_shelling_number(g) == 4 * tree_shelling_number(g)


def _components(g: Graph) -> list[list[int]]:
    masks = g.neighbor_masks()
    comps = []
    unseen = set(range(g.n))
    while unseen:
        stack = [min(unseen)]
        comp = set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(u for u in range(g.n) if masks[v] >> u & 1 and u not in comp)
        unseen -= comp
        comps.append(sorted(comp))
    return comps


def test_acyclic_multiplies_over_components_with_multinomial():
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            comps = _components(g)
            if len(comps) < 2:
                continue
            product = multinomial(n, [len(c) for c in comps])
            for comp in comps:
                index = {v: k for k, v in enumerate(comp)}
                sub = Graph.from_edges(
                    len(comp),
                    [
                        (index[a], index[b])
                        for a, b in g.edges
                        if a in index and b in index
                    ],
                )
                product *= acyclic_shelling_number(sub)
            assert acyclic_shelling_number(g) == product


# ---------------------------------------------------------------------------
# tree shelling numbers

def test_tree_examples():
    for n in range(3, 9):
        path = _g(n, *[(i, i + 1) for i in range(n - 1)])
        assert tree_shelling_number(path) == 2 ** (n - 3)
    assert tree_shelling_number(_g(4, (0, 1), (0, 2), (0, 3))) == 3
    assert tree_shelling_number(_g(2, (0, 1))) == 1
    assert tree_shelling_number(_g(1)) == 1
    assert tree_shelling_number(_g(3, (0, 1), (1, 2), (0, 2))) == 0


def test_tree_count_matches_leaf_removal_oracle():
    for n in range(3, 7):
        for g in enumerate_graphs(n):
            if len(g.edges) == n - 1:
                from graphflag import connected_partition

                if connected_partition(g).parts == (n,):
                    assert tree_shelling_number(g) == _leaf_removal_oracle(g)


def test_tree_count_multiplies_over_components():
    two_paths = _g(6, (0, 1), (1, 2), (3, 4), (4, 5))
    assert tree_shelling_number(two_paths) == 1
    path4_iso = _g(6, (0, 1), (1, 2), (2, 3), (3, 4))
    assert tree_shelling_number(path4_iso) == 4  # path on 5 vertices, 2^2


# ---------------------------------------------------------------------------
# per-shelling contributions

def test_verbose_contribution_hand_values():
    edge = _g(2, (0, 1))
    for order in [(0, 1), (1, 0)]:
        assert verbose_contribution(edge, order) == VerboseVector(2, {"aa": 1, "ba": 1})
    edgeless = _g(4)
    assert verbose_contribution(edgeless, (2, 0, 3, 1)) == VerboseVector(4, {"aaaa": 1})
    triangle = _g(3, (0, 1), (1, 2), (0, 2))
    expected = VerboseVector(3, {"aaa": 1, "aba": 1, "baa": 2, "bba": 2})
    for order in itertools.permutations(range(3)):
        assert verbose_contribution(triangle, order) == expected


def test_verbose_contribution_rejects_non_permutations():
    with pytest.raises(ValueError):
        verbose_contribution(_g(3), (0, 1, 1))


# ---------------------------------------------------------------------------
# semi-concise flag counting

def test_semiconcise_hand_values():
    edge = _g(2, (0, 1))
    # every graph has exactly one all-a configuration
    for n in range(5):
        for g in enumerate_graphs(n):
            assert count_semiconcise_flags(g, "a" * n) == 1
    # one b-vertex choice (2 ways), one forced edge each
    assert count_semiconcise_flags(edge, "ba") == 2
    assert count_semiconcise_flags(edge, "ab") == 0
    triangle = _g(3, (0, 1), (1, 2), (0, 2))
    assert count_semiconcise_flags(triangle, "bba") == 12


def test_semiconcise_identity_against_shelling_oracle():
    # product over a-run lengths of factorials, times the count, equals the
    # word coefficient summed over all shellings
    for n in range(5):
        for g in enumerate_graphs(n):
            totals = {}
            for order in enumerate_shellings(g):
                for w, c in verbose_contribution(g, order).items():
                    totals[w] = totals.get(w, 0) + c
            for mask in range(1 << n):
                word = "".join(
                    "b" if mask >> (n - 1 - k) & 1 else "a" for k in range(n)
                )
                factor = 1
                for run in word.split("b"):
                    factor *= math.factorial(len(run))
                assert totals.get(word, 0) == factor * count_semiconcise_flags(g, word)


def test_semiconcise_refuses_beyond_the_verbose_bound():
    def path(n):
        return _g(n, *((i, i + 1) for i in range(n - 1)))

    start = time.perf_counter()
    for n in (MAX_VERBOSE_N + 1, 26):
        with pytest.raises(SizeLimitError):
            count_semiconcise_flags(path(n), ("ab" * n)[:n])
    assert time.perf_counter() - start < 1.0
    n = MAX_VERBOSE_N
    complete = _g(n, *itertools.combinations(range(n), 2))
    assert count_semiconcise_flags(path(n), "a" * n) == 1
    # the k-th b-vertex is any of n + 1 - k left and has an edge to each later one
    expected = math.factorial(n) * math.factorial(n - 1)
    assert count_semiconcise_flags(complete, "b" * (n - 1) + "a") == expected


def test_semiconcise_rejects_bad_words():
    with pytest.raises(ValueError):
        count_semiconcise_flags(_g(3), "ab")
    with pytest.raises(ValueError):
        count_semiconcise_flags(_g(3), "abc")
