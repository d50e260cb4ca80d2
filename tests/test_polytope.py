import itertools
import math
import time
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphflag import (
    GraphSum,
    OptionalGraph,
    RationalMatrix,
    SizeLimitError,
    class_concise_points,
    concise_flag_vector,
    enumerate_graphs,
    enumerate_partitions,
    hull_facets,
    hull_report,
    kernel_basis,
    nullspace_report,
    rank,
    span_dimension,
    verbose_flag_vector,
)
from graphflag import polytope
from graphflag.exactlin import EchelonRows, integer_rows
from graphflag.graphs import (
    Graph,
    bit_indices,
    canonical_form,
    connected_partition,
    expand,
    pair_order,
)
from graphflag.polytope import _facet_incidence, _vertex_flags


# ---------------------------------------------------------------------------
# span dimension

def test_span_dimension_equals_partition_count():
    for n, p in enumerate([1, 1, 2, 3, 5, 7, 11, 15]):
        assert span_dimension(n) == p


def test_span_size_limit():
    with pytest.raises(SizeLimitError):
        span_dimension(8)
    with pytest.raises(SizeLimitError):
        nullspace_report(8)
    with pytest.raises(SizeLimitError):
        hull_report(7)


# ---------------------------------------------------------------------------
# hull vertices

def test_hull_n4_all_distinct_vertices():
    report = hull_report(4)
    assert report.class_count == 11
    assert report.all_distinct
    assert report.all_vertices


@pytest.mark.parametrize("n,count", [(2, 2), (3, 4)])
def test_hull_small_orders(n, count):
    report = hull_report(n)
    assert report.class_count == count
    assert report.all_distinct and report.all_vertices


def test_hull_n5_report_is_consistent():
    report = hull_report(5)
    assert report.class_count == 34
    assert set(report.vertex_flags) == set(report.points)
    # flags are per point: duplicated coordinates must share a verdict
    by_coords = {}
    for g, vec in report.points.items():
        by_coords.setdefault(vec.items(), set()).add(report.vertex_flags[g])
    assert all(len(v) == 1 for v in by_coords.values())


# ---------------------------------------------------------------------------
# facets

def test_square_facets():
    facets = hull_facets([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert set(facets) == {
        ((1, 0), 0),
        ((0, 1), 0),
        ((-1, 0), 1),
        ((0, -1), 1),
    }


def test_collinear_points_give_two_endpoint_facets():
    facets = hull_facets([(0, 0), (1, 1), (2, 2)])
    assert set(facets) == {((1, 1), 0), ((-1, -1), 4)}


def test_single_point_has_no_facets():
    assert hull_facets([(3, 4), (3, 4)]) == ()


def test_no_points_have_no_facets():
    assert hull_facets([]) == ()


def test_points_of_unequal_length_are_refused():
    with pytest.raises(ValueError, match="differ in length"):
        hull_facets([(0, 0), (1, 0, 5), (0, 1)])


def test_partition_vectors_of_different_n_are_refused():
    # points are coordinate sequences; a ConciseVector is none, whatever its n
    # (p(0) = p(1) = 1, so a length check alone would let these through)
    points = [concise_flag_vector(Graph(n, frozenset())) for n in (0, 1)]
    with pytest.raises(TypeError):
        hull_facets(points)


def test_partition_vectors_mixed_with_sequences_are_refused():
    point = concise_flag_vector(Graph(3, frozenset({(0, 1)})))
    with pytest.raises(TypeError):
        hull_facets([point, (1, 0, 0), (0, 1, 0)])
    with pytest.raises(TypeError):
        hull_facets([(1, 0, 0), point])


def test_three_vertex_hull_facets_frozen():
    report = hull_report(3, include_facets=True)
    assert set(report.facets) == {
        ((0, 0, 1), 0),
        ((0, 1, -1), 0),
        ((0, -1, 1), 1),
        ((0, -2, 1), 3),
    }


def test_four_vertex_facet_regression_and_validity():
    report = hull_report(4, include_facets=True)
    # facet count recorded after the first verified run
    assert len(report.facets) == 20
    parts = enumerate_partitions(4)
    points = [
        tuple(vec.coefficient(p) for p in parts) for vec in report.points.values()
    ]
    dim = 4  # eleven distinct points span a 4-dimensional affine hull
    for coeffs, offset in report.facets:
        values = [offset + sum(c * x for c, x in zip(coeffs, pt)) for pt in points]
        assert all(v >= 0 for v in values)
        tight = [pt for pt, v in zip(points, values) if v == 0]
        diffs = [
            [a - b for a, b in zip(pt, tight[0])] for pt in tight[1:]
        ]
        tight_rank = rank(RationalMatrix(diffs)) if diffs else 0
        assert tight_rank == dim - 1
        assert math.gcd(*coeffs, offset) == 1


@pytest.mark.parametrize("n", [3, 4])
def test_vertices_lie_on_enough_facets(n):
    # cross-route check: every LP vertex must be tight on >= dim facets
    report = hull_report(n, include_facets=True)
    parts = enumerate_partitions(n)
    dim = span_dimension(n) - 1
    for g, vec in report.points.items():
        if not report.vertex_flags[g]:
            continue
        pt = tuple(vec.coefficient(p) for p in parts)
        tight = sum(
            1
            for coeffs, offset in report.facets
            if offset + sum(c * x for c, x in zip(coeffs, pt)) == 0
        )
        assert tight >= dim


def _facet_tight_sets_oracle(points):
    """Brute force facet enumeration, reported as tight point sets.

    Scans every affinely independent point subset spanning a candidate
    hyperplane inside the affine hull; keeps one-sided hyperplanes whose
    tight set has facet rank.  A facet is determined by its tight set, so
    this representation compares across normal conventions.
    """
    pts = [tuple(Fraction(x) for x in p) for p in dict.fromkeys(points)]
    ambient = len(pts[0])
    diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
    d = rank(RationalMatrix(diffs))
    found = set()
    for subset in itertools.combinations(range(len(pts)), d):
        base = pts[subset[0]]
        rows = [[a - b for a, b in zip(pts[i], base)] for i in subset[1:]]
        if rows and rank(RationalMatrix(rows)) != d - 1:
            continue
        padded = rows + [[Fraction(0)] * ambient]
        for normal in kernel_basis(RationalMatrix(padded)):
            if all(
                sum(n * h for n, h in zip(normal, row)) == 0 for row in diffs
            ):
                continue  # orthogonal to the whole affine hull
            values = [
                sum(n * (x - b) for n, x, b in zip(normal, p, base)) for p in pts
            ]
            if all(v >= 0 for v in values) or all(v <= 0 for v in values):
                tight = [p for p, v in zip(pts, values) if v == 0]
                tdiffs = [[a - b for a, b in zip(p, tight[0])] for p in tight[1:]]
                trank = rank(RationalMatrix(tdiffs)) if tdiffs else 0
                if trank == d - 1:
                    found.add(frozenset(tight))
    return found


def _facet_tight_sets(points, facets):
    pts = list(dict.fromkeys(tuple(x for x in p) for p in points))
    out = set()
    for coeffs, offset in facets:
        out.add(
            frozenset(
                p
                for p in pts
                if offset + sum(c * x for c, x in zip(coeffs, p)) == 0
            )
        )
    return out


@pytest.mark.parametrize(
    "points",
    [
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        [(0, 0), (1, 1), (2, 2)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
        # a 4-dimensional hull with ray pairs that share enough tight
        # constraints without being adjacent
        [
            (0, 1, 1, 1), (1, 1, 2, 0), (2, 2, 0, 2), (1, 0, 2, 2),
            (2, 2, 1, 1), (0, 2, 0, 0), (1, 2, 0, 1), (0, 0, 0, 2),
        ],
        # degenerate hulls: facets hold 4 to 8 points, so rays are tight on
        # more constraints than adjacency needs
        list(itertools.product((0, 1), repeat=3)),
        list(itertools.product((0, 1), repeat=4)),
        [(0, 0, 0, 0)]
        + [tuple(s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)],
    ],
)
def test_facets_match_subset_scanning_oracle(points):
    facets = hull_facets(points)
    oracle = _facet_tight_sets_oracle(points)
    assert _facet_tight_sets(points, facets) == oracle
    assert len(facets) == len(oracle)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        # x + y >= 0 supports only the vertex (0, 0)
        (lambda rays: [*rays, (0, 1, 1)], "does not support a facet"),
        (lambda rays: [*rays, rays[0]], "duplicate facet"),
        (lambda rays: [tuple(-x for x in rays[0]), *rays[1:]], "fails on an input point"),
        (lambda rays: [*rays, (0, 0, 0)], "zero ray"),
        # the functional 1 >= 0: valid, but tight on no point
        (lambda rays: [*rays, (1, 0, 0)], "tight on no point"),
    ],
)
def test_facet_certificate_refuses_wrong_rays(monkeypatch, corrupt, message):
    # the square's chart is the identity, so rays read (offset, x, y)
    dd = polytope._double_description
    monkeypatch.setattr(polytope, "_double_description", lambda cs: corrupt(dd(cs)))
    with pytest.raises(ArithmeticError, match=message):
        hull_facets([(0, 0), (1, 0), (0, 1), (1, 1)])


BIG = 10**20


@pytest.mark.parametrize(
    "points",
    [
        # coordinates near 10^20: every facet's bound needs slots past 8 bytes
        [(BIG + x, BIG - y, BIG * z) for x, y, z in itertools.product((0, 1), repeat=3)]
        + [(BIG, BIG, BIG // 2), (BIG + 1, BIG - 1, 2 * BIG)],
        [(BIG * x + y, -BIG * y + x) for x, y in [(0, 0), (3, 1), (1, 3), (2, 2), (1, 1)]],
        # rational points over large denominators, about 10^44 in common
        [
            (Fraction(x, 10**15 + 37), Fraction(y, 7**18), Fraction(x * y, 3**30))
            for x, y in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (-1, 2)]
        ],
    ],
)
def test_packed_certificate_matches_oracle_on_wide_slots(points):
    facets = hull_facets(points)
    scaled, _ = integer_rows(points)
    reach = [max(abs(x) for x in col) for col in zip(*scaled)]
    bounds = [  # of the facets as the certificate evaluates them
        abs(offset) + sum(abs(c) * r for c, r in zip(coeffs, reach))
        for (coeffs, offset), _ in polytope._facet_incidence(scaled)
    ]
    assert min(bounds) >= 2**63  # past the 8-byte slots
    oracle = _facet_tight_sets_oracle(points)
    assert _facet_tight_sets(points, facets) == oracle
    assert len(facets) == len(oracle)


@pytest.mark.parametrize("width", [1, 2, 4, 8, 9])
@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_packed_evaluation_at_slot_width_edges(width, shift):
    # on the points 0, m, 1, x >= 0 reaches its bound m, and slots of
    # `width` bytes hold bounds up to 2^(8 width - 1) - 1
    m = 2 ** (8 * width - 1) + shift
    points = [(0,), (m,), (1,)]
    assert polytope._tight_points(points, [(1, 0), (-1, m)]) == [[0], [1]]
    with pytest.raises(ArithmeticError, match="fails on an input point"):
        polytope._tight_points(points, [(-1, m - 1)])
    with pytest.raises(ArithmeticError, match="fails on an input point"):
        polytope._tight_points(points, [(-1, 0)])  # -m, the least value
    with pytest.raises(ArithmeticError, match="tight on no point"):
        polytope._tight_points(points, [(-1, m + 1)])


def test_facet_rank_check_refuses_every_point_pair_among_cube_facets():
    # two points have rank 1, short of a facet's 2.  The facet x = 0 is
    # listed three times, so the points lie on unequally many tight sets,
    # and a pair sorts in among the facets, sharing their echelon rows
    cube = list(itertools.product((0, 1), repeat=3))
    facets = [
        [i for i, p in enumerate(cube) if p[j] == v] for j in range(3) for v in (0, 1)
    ]
    facets += [facets[0]] * 2
    polytope._check_facet_rank(cube, facets, 2)
    for pair in itertools.combinations(range(8), 2):
        with pytest.raises(ArithmeticError, match="does not support a facet"):
            polytope._check_facet_rank(cube, [*facets, list(pair)], 2)


@pytest.mark.parametrize("n", [3, 4])
def test_class_point_facets_match_oracle(n):
    points = [coords for _, coords in class_concise_points(n)]
    facets = hull_facets(points)
    assert _facet_tight_sets(points, facets) == _facet_tight_sets_oracle(points)


@st.composite
def small_point_sets(draw):
    """At most 8 points in dimension at most 4: integer and rational values,
    repeated points, and optionally one constant coordinate and one that is
    an integer combination of the others."""
    constant = draw(st.booleans())
    combined = draw(st.booleans())
    free = draw(st.integers(1, 4 - constant - combined))
    value = st.integers(-3, 3) | st.builds(
        Fraction, st.integers(-6, 6), st.integers(1, 3)
    )
    points = draw(st.lists(st.tuples(*[value] * free), min_size=1, max_size=8))
    points += draw(st.lists(st.sampled_from(points), max_size=8 - len(points)))
    if combined:
        weights = draw(st.lists(st.integers(-2, 2), min_size=free, max_size=free))
        points = [p + (sum(w * x for w, x in zip(weights, p)),) for p in points]
    if constant:
        at = draw(st.integers(0, len(points[0])))
        c = draw(value)
        points = [p[:at] + (c,) + p[at:] for p in points]
    return points


@settings(max_examples=150)
@given(small_point_sets())
def test_facets_match_oracle_on_small_point_sets(points):
    facets = hull_facets(points)
    constant = [j for j in range(len(points[0])) if len({p[j] for p in points}) == 1]
    assert all(coeffs[j] == 0 for coeffs, _ in facets for j in constant)
    if len(set(points)) == 1:
        assert facets == ()
        return
    oracle = _facet_tight_sets_oracle(points)
    assert _facet_tight_sets(points, facets) == oracle
    assert len(facets) == len(oracle)


@settings(max_examples=60, deadline=None)
@given(
    small_point_sets(),
    st.sampled_from([BIG, -BIG - 7, Fraction(1, BIG + 3), Fraction(-5, 3**40)]),
    st.integers(-BIG, BIG),
)
def test_facets_match_oracle_on_far_and_fine_point_sets(points, scale, shift):
    # an affine image keeps every facet's tight set; its values need the
    # wide slots, or a common denominator of 10^20 or more
    points = [tuple(scale * x + shift for x in p) for p in points]
    facets = hull_facets(points)
    if len(set(points)) == 1:
        assert facets == ()
        return
    oracle = _facet_tight_sets_oracle(points)
    assert _facet_tight_sets(points, facets) == oracle
    assert len(facets) == len(oracle)


def _vertices_by_facets(points, facets):
    # a point is a vertex iff no other distinct point is tight on every
    # facet through it
    def through(pt):
        return {
            f for f in facets if f[1] + sum(c * x for c, x in zip(f[0], pt)) == 0
        }

    distinct = set(points)
    return {
        pt: not any(through(pt) <= through(q) for q in distinct - {pt})
        for pt in distinct
    }


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lp_vertex_verdicts_match_facet_incidence(n):
    # two independent methods: the exact LP per point (the vertices-only
    # mode) and incidence with the DD facets
    by_lp = hull_report(n)
    parts = enumerate_partitions(n)
    coords = {
        g: tuple(vec.coefficient(p) for p in parts) for g, vec in by_lp.points.items()
    }
    by_facets = _vertices_by_facets(list(coords.values()), hull_facets(coords.values()))
    for g, pt in coords.items():
        assert by_lp.vertex_flags[g] == by_facets[pt]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_both_hull_modes_give_equal_vertex_flags(n):
    with_facets, by_lp = hull_report(n, include_facets=True), hull_report(n)
    assert with_facets.vertex_flags == by_lp.vertex_flags
    assert with_facets.points == by_lp.points


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_facet_mode_certifies_every_vertex_without_the_lp(n, monkeypatch):
    # every class point with n <= 5 is a vertex, and the tight sets of the
    # facets through it meet in it alone
    def no_lp(*args):
        raise AssertionError("the exact LP ran")

    monkeypatch.setattr(polytope, "_in_convex_hull", no_lp)
    assert all(hull_report(n, include_facets=True).vertex_flags.values())


@st.composite
def points_with_midpoints(draw):
    """Distinct integer points in dimension 2 or 3: corners, some midpoints
    of two corners (on edges or inside) and some centroids of three (with
    repeats, so on edges too), all scaled by 6 to stay integer."""
    dim = draw(st.integers(2, 3))
    coords = st.tuples(*[st.integers(-3, 3)] * dim)
    corners = draw(st.lists(coords, min_size=2, max_size=7, unique=True))
    corner = st.sampled_from(corners)
    pairs = draw(st.lists(st.lists(corner, min_size=2, max_size=2), max_size=3))
    triples = draw(st.lists(st.lists(corner, min_size=3, max_size=3), max_size=2))
    points = [tuple(6 * x for x in p) for p in corners]
    points += [tuple(3 * sum(xs) for xs in zip(*pq)) for pq in pairs]
    points += [tuple(2 * sum(xs) for xs in zip(*pqr)) for pqr in triples]
    return list(dict.fromkeys(points))


@settings(max_examples=120, deadline=None)
@given(points_with_midpoints())
def test_facet_certified_vertices_match_lp_and_incidence(points):
    # the facet-certified verdicts, with the LP fallback for every point the
    # functional does not certify, against the LP alone and facet incidence
    by_facets = _vertices_by_facets(points, hull_facets(points))
    certified = _vertex_flags(points, _facet_incidence(points))
    assert certified == _vertex_flags(points) == [by_facets[p] for p in points]


@pytest.mark.parametrize(
    "points",
    [
        [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (1, 0)],
        [(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1), (1, 1, 0)],
        [(0, 0), (1, 1), (2, 2), (3, 3)],
    ],
)
def test_lp_and_facet_vertices_agree_with_interior_points(points):
    from graphflag.polytope import _in_convex_hull

    by_facets = _vertices_by_facets(points, hull_facets(points))
    for pt in points:
        others = [q for q in points if q != pt]
        assert (not _in_convex_hull(pt, others)) == by_facets[pt]
    assert not all(by_facets.values())


@pytest.mark.slow
def test_n6_vertex_census():
    report = hull_report(6)
    assert report.class_count == 156
    assert report.distinct_point_count == 156
    assert report.all_vertices


def test_n5_facet_count_regression():
    report = hull_report(5, include_facets=True)
    assert len(report.facets) == 552


def _triangle_free_class_points(n):
    points = []
    for g, coords in class_concise_points(n):
        triples = itertools.combinations(range(n), 3)
        if not any({(a, b), (a, c), (b, c)} <= g.edges for a, b, c in triples):
            points.append(coords)
    return points


def test_facets_of_28_triangle_free_6_vertex_classes():
    # hull_facets verifies every facet in integers before returning
    points = _triangle_free_class_points(6)
    assert len(points) == 38
    assert len(hull_facets(points[:28])) == 4692


@pytest.mark.slow
def test_facets_of_all_38_triangle_free_6_vertex_classes():
    assert len(hull_facets(_triangle_free_class_points(6))) == 25236


def test_facet_size_limits():
    with pytest.raises(SizeLimitError):
        hull_facets([(i, i * i) for i in range(41)])
    with pytest.raises(SizeLimitError):
        hull_facets([tuple(range(12)), tuple(range(1, 13))])
    with pytest.raises(SizeLimitError):
        hull_report(6, include_facets=True)


def test_facet_dimension_refused_before_partitions_are_listed():
    # p(50) = 204,226 partitions; p(4096) would not finish listing, so a
    # ConciseVector point must be refused at once
    for n in (50, 4096):
        v = concise_flag_vector(Graph(n, frozenset()))
        start = time.perf_counter()
        with pytest.raises(TypeError):
            hull_facets([v, v])
        assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# null space

def test_nullspace_n3():
    report = nullspace_report(3)
    assert report.class_count == 4
    assert report.kernel_dim == 1
    assert report.cycle_span_dim == 1
    assert report.spans


def test_nullspace_n4_finding():
    report = nullspace_report(4)
    assert report.kernel_dim == 6
    assert 0 <= report.cycle_span_dim <= report.kernel_dim
    assert report.spans == (report.cycle_span_dim == report.kernel_dim)


def _report_tuple(report):
    return (report.class_count, report.kernel_dim, report.cycle_span_dim, report.spans)


def test_nullspace_n5_finding():
    assert _report_tuple(nullspace_report(5)) == (34, 27, 24, False)


@pytest.mark.slow
def test_nullspace_n6_finding():
    assert _report_tuple(nullspace_report(6)) == (156, 145, 136, False)


def test_nullspace_n7_finding():
    # cycle span 1007 of kernel 1029: 37 forest classes against p(7) = 15
    assert _report_tuple(nullspace_report(7)) == (1044, 1029, 1007, False)


def _single_cycle_optional_graphs(n):
    """Optional-edge graphs whose optional set is one cycle, up to isomorphism,
    with arbitrary regular edges elsewhere: the generators of the cycle span.

    For each k the optional set is the cycle C_k on vertices 0..k-1 and the
    regular set R any set of the other pairs, read as a bitmask over them.
    An isomorphism between two such graphs maps optional edges to optional
    edges, so it maps C_k onto itself: it is a dihedral symmetry of the k
    cycle vertices times a permutation of the other n - k vertices, and
    each element of that group maps such a graph to one of them.  So a
    graph is kept iff no group element maps its mask to a smaller one
    (Read's orderly criterion, "Every one a winner", 1978): exactly the
    first graph of each class in mask order.
    """
    for k in range(3, n + 1):
        cycle = frozenset(
            (min(i, (i + 1) % k), max(i, (i + 1) % k)) for i in range(k)
        )
        others = [p for p in pair_order(n) if p not in cycle]
        where = {p: t for t, p in enumerate(others)}
        bit_maps = []  # per group element, the image bit of each pair bit
        group = itertools.product(
            range(k), (1, -1), itertools.permutations(range(k, n))
        )
        for shift, step, tail in group:
            perm = [(shift + step * i) % k for i in range(k)] + list(tail)
            bit_maps.append([
                1 << where[min(perm[i], perm[j]), max(perm[i], perm[j])]
                for i, j in others
            ])
        for mask in range(1 << len(others)):
            set_bits = list(bit_indices(mask))
            if all(sum(bits[t] for t in set_bits) >= mask for bits in bit_maps):
                regular = frozenset(others[t] for t in set_bits)
                yield OptionalGraph(n, regular, cycle)


def _nx_optional(og):
    g = nx.Graph()
    g.add_nodes_from(range(og.n))
    g.add_edges_from(og.regular, optional=False)
    g.add_edges_from(og.optional, optional=True)
    return g


@pytest.mark.parametrize("n", [3, 4, 5])
def test_single_cycle_graphs_are_one_per_class(n):
    # oracle: every (R, C_k) over all regular sets R is isomorphic, edge
    # kinds kept, to exactly one yielded graph
    kept = [_nx_optional(og) for og in _single_cycle_optional_graphs(n)]
    same_kind = nx.algorithms.isomorphism.categorical_edge_match("optional", None)
    for k in range(3, n + 1):
        cycle = frozenset(tuple(sorted((i, (i + 1) % k))) for i in range(k))
        others = [p for p in itertools.combinations(range(n), 2) if p not in cycle]
        for r in range(len(others) + 1):
            for regular in itertools.combinations(others, r):
                g = _nx_optional(OptionalGraph(n, frozenset(regular), cycle))
                matches = [h for h in kept if nx.is_isomorphic(g, h, edge_match=same_kind)]
                assert len(matches) == 1, (n, k, regular)


def _expand_row(og, index):
    # oracle: the row from expand(), whose terms are canonical forms
    row = [0] * len(index)
    for term, coeff in expand(og).items():
        row[index[term]] = coeff
    return row


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_cycle_span_dim_is_the_rank_of_the_expanded_cycle_rows(n):
    # the closed form classes - forests against the exact rank of every
    # optional-cycle expansion
    classes = enumerate_graphs(n)
    index = {g: k for k, g in enumerate(classes)}
    reducer = EchelonRows()
    for og in _single_cycle_optional_graphs(n):
        reducer.add(_expand_row(og, index))
    assert reducer.rank == nullspace_report(n).cycle_span_dim


def _is_forest(n, edges):
    return len(edges) + len(connected_partition(Graph(n, edges)).parts) == n


@pytest.mark.parametrize("n", [3, 4, 5])
def test_forest_counts_kill_cycle_rows_and_are_unitriangular_on_forests(n):
    # the proof's key step: N_F(H), the number of acyclic edge subsets of H
    # of forest type F, vanishes on every optional-cycle expansion, and on
    # the forest classes ordered by edge count it is unitriangular
    classes = enumerate_graphs(n)
    index = {g: k for k, g in enumerate(classes)}
    forests = sorted(
        (g for g in classes if _is_forest(n, g.edges)), key=lambda g: len(g.edges)
    )
    counts = {}  # N[H][F]
    for h in classes:
        edges = sorted(h.edges)
        tally = dict.fromkeys(forests, 0)
        for r in range(len(edges) + 1):
            for subset in itertools.combinations(edges, r):
                if _is_forest(n, frozenset(subset)):
                    tally[canonical_form(Graph(n, frozenset(subset)))[0]] += 1
        counts[h] = tally
    for og in _single_cycle_optional_graphs(n):
        row = _expand_row(og, index)
        for f in forests:
            assert sum(c * counts[h][f] for h, c in zip(classes, row)) == 0, (og, f)
    for i, f in enumerate(forests):
        assert counts[f][f] == 1
        assert all(counts[g][f] == 0 for g in forests[:i])
def test_nullspace_n2_vacuous():
    report = nullspace_report(2)
    assert report.kernel_dim == 0
    assert report.cycle_span_dim == 0
    assert report.spans


def test_kernel_dimension_arithmetic():
    for n in range(5):
        report = nullspace_report(n)
        from graphflag import partition_count

        assert report.kernel_dim == report.class_count - partition_count(n)


def test_kernel_vectors_give_zero_flag_vectors():
    for n in (3, 4):
        classes = enumerate_graphs(n)
        parts = enumerate_partitions(n)
        matrix = RationalMatrix(
            [
                [concise_flag_vector(g).coefficient(p) for g in classes]
                for p in parts
            ]
        )
        basis = kernel_basis(matrix)
        assert len(basis) == nullspace_report(n).kernel_dim
        for vec in basis:
            scale = math.lcm(*(c.denominator for c in vec))
            gs = GraphSum(n, {g: int(c * scale) for g, c in zip(classes, vec)})
            assert concise_flag_vector(gs).is_zero
            assert verbose_flag_vector(gs).is_zero
