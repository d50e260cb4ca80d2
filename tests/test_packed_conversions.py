"""Property checks of the packed conversions between verbose and concise.

Both conversions run on packed integers, one coefficient per fixed-width
slot: the concise form is solved at the anchor slots and certified by a
packed re-expansion, and the verbose form is one packed sum and one unpack.
These tests compare them with dict arithmetic over the public shuffles,
with the recursion on the whole labelled graph, and with themselves at
forced slot widths, and check that a re-expansion that would carry across
a slot is refused.
"""

import contextlib

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphflag import (
    ConciseVector,
    Graph,
    OptionalGraph,
    Partition,
    VerboseVector,
    anchor_word,
    concise_flag_vector,
    concise_from_verbose,
    enumerate_partitions,
    pair_order,
    shuffle,
    verbose_flag_vector,
    verbose_from_concise,
)
from graphflag import flagvectors
from graphflag.flagvectors import (
    _anchor_system,
    _expand,
    _peel,
    _unpack,
    _verbose_dp,
)
from graphflag.graphs import neighbor_masks

NON_INTEGRAL = (
    "anchor coordinates give non-integral concise coefficients; "
    "input is outside the integral span"
)
OUTSIDE_SPAN = (
    "verbose vector is inconsistent with its anchor coordinates; "
    "input is outside the span of graph flag vectors"
)


@st.composite
def concise_vectors(draw, max_n=9, bound=10**30):
    # signed coefficients on a few partitions, small and past 8-byte slots
    n = draw(st.integers(0, max_n))
    parts = enumerate_partitions(n)
    picked = draw(st.lists(st.sampled_from(parts), max_size=6, unique=True))
    coeff = st.one_of(st.integers(-3, 3), st.integers(-bound, bound))
    return ConciseVector(n, {p: draw(coeff) for p in picked})


@st.composite
def labelled_graphs(draw, max_n=9, max_optional=2):
    n = draw(st.integers(0, max_n))
    pairs = pair_order(n)
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    k = draw(st.integers(0, min(max_optional, len(chosen))))
    return OptionalGraph(n, frozenset(chosen[k:]), frozenset(chosen[:k]))


def _dict_expansion(v):
    # sum of c * scale * shuffle over dict arithmetic, no packed sum
    total = VerboseVector(v.n)
    for part, c in v.items():
        scale = 1
        for m in part.parts:
            scale *= flagvectors.component_scale(m)
        total += c * scale * shuffle(part)
    return total


def _whole_dp(og):
    # the recursion on the whole labelled graph, which never splits components
    masks = neighbor_masks(og.n, og.regular), neighbor_masks(og.n, og.optional)
    n, packed, width = _verbose_dp(*masks)
    return VerboseVector(n, _unpack(n, packed, width)), width


@settings(max_examples=80, deadline=None)
@given(concise_vectors())
def test_signed_concise_vectors_round_trip(c):
    v = verbose_from_concise(c)
    assert v == _dict_expansion(c)
    assert concise_from_verbose(v) == c
    assert concise_from_verbose(-v) == -c


@settings(max_examples=80, deadline=None)
@given(concise_vectors(max_n=7), st.data())
def test_a_vector_off_the_span_raises_the_same_errors(c, data):
    v = verbose_from_concise(c)
    n = v.n
    anchors = {row.word for row in _anchor_system(n).values()}
    others = [w for w in flagvectors._words(n) if w not in anchors]
    delta = data.draw(st.integers(1, 10**20) | st.integers(-(10**20), -1))
    if others and data.draw(st.booleans()):
        # every anchor still gives c, and the word outside them disagrees
        word = data.draw(st.sampled_from(others))
        with pytest.raises(ValueError, match=f"^{OUTSIDE_SPAN}$"):
            concise_from_verbose(v + VerboseVector(n, {word: delta}))
    else:
        # a multiple of a shuffle's anchor value may stay inside the span
        word = data.draw(st.sampled_from(sorted(anchors)))
        moved = v + VerboseVector(n, {word: delta})
        try:
            assert verbose_from_concise(concise_from_verbose(moved)) == moved
        except ValueError as refused:
            assert str(refused) in (NON_INTEGRAL, OUTSIDE_SPAN)


# a graph whose recursion takes each slot width, and K12, whose (12!)^2 is
# the widest order-12 bound
WIDTH_GRAPHS = {
    1: Graph(4, frozenset([(0, 1), (2, 3)])),
    2: Graph(5, frozenset([(0, 1), (1, 2), (2, 3), (3, 4)])),
    4: Graph(8, frozenset([(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (1, 5)])),
    8: Graph(12, frozenset(pair_order(12))),
}


@pytest.mark.parametrize("width", sorted(WIDTH_GRAPHS))
def test_each_slot_width_agrees_with_the_whole_graph_recursion(width):
    g = WIDTH_GRAPHS[width]
    whole, used = _whole_dp(OptionalGraph.from_graph(g))
    assert used == width
    assert verbose_flag_vector(g) == whole
    assert verbose_from_concise(concise_flag_vector(g)) == whole
    assert concise_from_verbose(whole) == concise_flag_vector(g)


@contextlib.contextmanager
def _at_least(wide):
    # every packed vector in slots at least `wide` bytes wide
    real = flagvectors.slot_bytes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flagvectors, "slot_bytes", lambda bound: max(real(bound), wide))
        yield


@pytest.mark.parametrize("wide", [9, 16])
def test_k12_past_eight_byte_slots(wide):
    g = WIDTH_GRAPHS[8]
    verbose, concise = verbose_flag_vector(g), concise_flag_vector(g)
    with _at_least(wide):
        whole, used = _whole_dp(OptionalGraph.from_graph(g))
        assert used == wide
        assert whole == verbose
        assert concise_flag_vector(g) == concise
        assert verbose_from_concise(concise) == verbose


@settings(max_examples=40, deadline=None)
@given(og=labelled_graphs(), wide=st.sampled_from([1, 2, 4, 8, 9, 16]))
def test_every_slot_width_gives_the_same_forms(og, wide):
    verbose, concise = verbose_flag_vector(og), concise_flag_vector(og)
    with _at_least(wide):
        whole, used = _whole_dp(og)
        assert used >= wide
        assert whole == verbose == verbose_flag_vector(og)
        assert concise_flag_vector(og) == concise
        assert verbose_from_concise(concise) == verbose
        assert concise_from_verbose(verbose) == concise


def test_a_re_expansion_that_would_carry_is_refused():
    # 100 [2+1] expands to 400 baa + 200 aba; in one-byte slots the 400
    # carries, so these slots hold baa:144, bab:1 and aba:200, whose anchors
    # give 100 [2+1] again and whose packed re-expansion is equal as an integer
    part = Partition((2, 1))
    packed = _expand(3, [(part, 100)], 1)
    assert _unpack(3, packed, 1) == {"aba": 200, "baa": 144, "bab": 1}
    assert [anchor_word(p) for p in enumerate_partitions(3)] == ["aaa", "aba", "bba"]
    with pytest.raises(ValueError, match="carry across a slot"):
        _peel(3, packed, 1)
    # the public conversion reads the slots as they are: off the span
    with pytest.raises(ValueError, match=f"^{OUTSIDE_SPAN}$"):
        concise_from_verbose(VerboseVector(3, _unpack(3, packed, 1)))


@settings(max_examples=80, deadline=None)
@given(concise_vectors(max_n=6, bound=300), st.sampled_from([1, 2]))
def test_the_peel_never_answers_for_a_vector_its_slots_do_not_hold(c, width):
    # pack non-negative coefficients in narrow slots, carries and all: the
    # peel refuses, or its answer expands to what the slots hold
    terms = [(p, abs(k)) for p, k in c.items() if k]
    n = c.n
    packed = _expand(n, terms, width) % (1 << (8 * width << n))
    assume(packed)
    held = VerboseVector(n, _unpack(n, packed, width))
    try:
        peeled = _peel(n, packed, width)
    except ValueError:
        return
    assert verbose_from_concise(ConciseVector(n, dict(peeled))) == held
