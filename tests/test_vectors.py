import itertools
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphflag import (
    ConciseVector,
    EdgeWordVector,
    GraphSum,
    Partition,
    RationalMatrix,
    VerboseVector,
    concise_flag_vector,
    edge_flag_vector,
    enumerate_partitions,
    hull_facets,
    verbose_flag_vector,
)
from graphflag.graphs import Graph, canonical_form, pair_order
from graphflag.vectors import pack_slots, read_signed_slots, read_slots, slot_bytes, widen_slots


def test_verbose_algebra_and_zero_pruning():
    a = VerboseVector(2, {"aa": 2, "ba": 1})
    b = VerboseVector(2, {"ba": -1})
    assert (a + b).to_mapping() == {"aa": 2}
    assert (a - a).is_zero
    assert (3 * a).coefficient("ba") == 3
    assert (0 * a).is_zero
    assert -a == VerboseVector(2, {"aa": -2, "ba": -1})
    assert a["aa"] == 2 and a["ab"] == 0


def test_vectors_of_different_lengths_do_not_mix():
    a = VerboseVector(2, {"aa": 1})
    b = VerboseVector(3, {"aaa": 1})
    with pytest.raises(TypeError):
        a + b
    assert (a == b) is False


def test_key_validation():
    with pytest.raises(ValueError):
        VerboseVector(2, {"ac": 1})
    with pytest.raises(ValueError):
        VerboseVector(2, {"aaa": 1})
    with pytest.raises(ValueError):
        ConciseVector(3, {Partition((2,)): 1})
    with pytest.raises(TypeError):
        VerboseVector(2, {"aa": 1.5})
    assert EdgeWordVector(2, {"ac": 1}).coefficient("ac") == 1


def test_text_serialisation_is_sorted():
    v = VerboseVector(3, {"baa": 4, "aaa": 6, "aba": 2})
    assert v.to_text() == "aaa:6 aba:2 baa:4"
    assert VerboseVector(3).to_text() == "0"
    c = ConciseVector(
        4, {Partition((4,)): 2, Partition((2, 1, 1)): 3, Partition((1, 1, 1, 1)): 1}
    )
    assert c.to_text() == "[1+1+1+1]:1 [2+1+1]:3 [4]:2"


def test_empty_word_scalar():
    one = VerboseVector(0, {"": 1})
    assert (one + one).coefficient("") == 2


def _words(alphabet):
    return lambda n: ["".join(w) for w in itertools.product(alphabet, repeat=n)]


def _labelled_graphs(n):
    return [
        Graph.from_bitstring(n, bits)
        for bits in _words("01")(len(pair_order(n)))
    ]


# every integer formal sum in the package, with its valid keys at size n
# and the order its items() follow (None: by key)
_SUMS = {
    VerboseVector: (_words("ab"), None),
    EdgeWordVector: (_words("abc"), None),
    ConciseVector: (enumerate_partitions, None),
    GraphSum: (_labelled_graphs, Graph.bitstring),
}


@pytest.mark.parametrize("cls", list(_SUMS), ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_formal_sum_laws(cls, data):
    keys, order = _SUMS[cls]
    terms = st.dictionaries(st.sampled_from(keys(3)), st.integers(-4, 4), max_size=6)
    a, b = cls(3, data.draw(terms)), cls(3, data.draw(terms))
    assert a + b - b == a
    assert 2 * a == a + a
    assert (-a + a).is_zero
    items = a.items()
    assert len(a) == len(items) == len(a.to_mapping())
    assert list(a.to_mapping().items()) == list(items)
    assert list(items) == sorted(items, key=lambda t: order(t[0]) if order else t[0])
    assert all(c and a.coefficient(k) == c for k, c in items)

    other_kind = next(k for k in _SUMS if k is not cls)
    with pytest.raises(TypeError):
        a + other_kind(3)
    with pytest.raises(TypeError):
        a - cls(4, {keys(4)[0]: 1})

    if cls is GraphSum:
        g = data.draw(st.sampled_from(keys(3)))
        p, q = (tuple(data.draw(st.permutations(range(3)))) for _ in "pq")
        both = GraphSum.from_graph(g.relabel(p)) + GraphSum.from_graph(g.relabel(q))
        assert both.items() == ((canonical_form(g)[0], 2),)


def test_graph_sum_coefficients_are_integers():
    g = Graph.from_edges(3, [(0, 1)])
    gs = GraphSum.from_graph(g)
    for make in (
        lambda: GraphSum(3, {g: 2.5}),
        lambda: GraphSum.from_graph(g, 2.5),
        lambda: gs * 2.5,
        lambda: 2.5 * gs,
    ):
        with pytest.raises(TypeError):
            make()
    assert GraphSum(3, {g: True}) == gs == gs * True
    # a zero coefficient does not skip the checks on its term
    with pytest.raises(TypeError):
        GraphSum(3, {"3:0-1": 0})
    with pytest.raises(ValueError):
        GraphSum(3, {Graph(2, frozenset()): 0})


@pytest.mark.parametrize(
    "make",
    [verbose_flag_vector, edge_flag_vector, concise_flag_vector, GraphSum.from_graph],
    ids=["verbose", "edge", "concise", "graph-sum"],
)
def test_formal_vectors_are_not_iterable(make):
    # __getitem__ answers every key, so iteration must not fall back on it
    v = make(Graph.from_edges(4, [(0, 1), (1, 2)]))
    start = time.perf_counter()
    with pytest.raises(TypeError):
        iter(v)
    with pytest.raises(TypeError):
        list(v)
    with pytest.raises(TypeError):
        5 in v
    with pytest.raises(TypeError):
        hull_facets([v, v])
    with pytest.raises(TypeError):
        RationalMatrix([v])
    assert time.perf_counter() - start < 1.0


@st.composite
def packed_rows(draw):
    # a slot width and values spanning its signed range, both ends included
    width = draw(st.sampled_from([1, 2, 3, 4, 8, 9, 16]))
    half = 1 << 8 * width - 1
    value = st.integers(-half, half - 1) | st.sampled_from([-half, -1, 0, half - 1])
    return width, draw(st.lists(value, min_size=1, max_size=12))


@given(packed_rows(), st.data())
def test_packed_slot_codec_round_trips(row, data):
    width, values = row
    count = len(values)
    assert list(read_signed_slots(pack_slots(values, width), count, width)) == values
    # packing is linear: a combination reads back while its values fit
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2))
    mixed = [coeffs[0] * v + coeffs[1] for v in values]
    half = 1 << 8 * width - 1
    if all(-half <= v < half for v in mixed):
        combo = coeffs[0] * pack_slots(values, width) + coeffs[1] * pack_slots([1] * count, width)
        assert list(read_signed_slots(combo, count, width)) == mixed
    unsigned = [v + half for v in values]
    packed = pack_slots(unsigned, width)
    assert list(read_slots(packed, count, width)) == unsigned
    wide = data.draw(st.sampled_from([width, width + 1, 16, 17]))
    assert list(read_slots(widen_slots(packed, count, width, wide), count, wide)) == unsigned


def test_slot_bytes_picks_a_struct_size_up_to_eight_bytes():
    assert [slot_bytes(2**k - 1) for k in (0, 8, 9, 16, 17, 24, 32, 33, 64, 65, 72, 80)] == [
        1, 1, 2, 2, 4, 4, 4, 8, 8, 9, 9, 10
    ]
