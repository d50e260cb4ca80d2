"""Span dimension, convex hull analysis, and the null space of the
class-to-flag-vector map.

Points live in the p(n)-dimensional partition coordinate space; because the
all-ones partition coordinate is constantly 1 on single graphs, hulls are
analysed inside their affine hull.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Sequence

from .errors import check_size
from .exactlin import EchelonRows, RationalMatrix, integer_rows, lp_feasible, rank
from .flagvectors import concise_flag_vector
from .graphs import Graph, bit_indices, connected_partition, enumerate_graphs
from .partitions import enumerate_partitions
from .vectors import ConciseVector, pack_slots, read_signed_slots, slot_bytes

MAX_SPAN_N = 7  # span_dimension and nullspace_report
MAX_HULL_N = 6
MAX_FACET_POINTS = 40
MAX_FACET_DIM = 11
MAX_FACET_RAYS = 2**15  # rays of any double-description step

FacetInequality = tuple[tuple[int, ...], int]  # coefficients, offset


@lru_cache(maxsize=None)
def class_concise_points(n: int) -> tuple[tuple[Graph, tuple[int, ...]], ...]:
    """Every isomorphism class with its concise vector as integer coordinates
    in canonical partition order."""
    parts = enumerate_partitions(n)
    out = []
    for g in enumerate_graphs(n):
        vec = concise_flag_vector(g)
        out.append((g, tuple(vec.coefficient(p) for p in parts)))
    return tuple(out)


@lru_cache(maxsize=None)
def _class_vectors(n: int) -> tuple[ConciseVector, ...]:
    """The points of `class_concise_points(n)` as ConciseVectors, in the
    same order: immutable, so every hull report shares them."""
    parts = enumerate_partitions(n)
    return tuple(
        ConciseVector(n, dict(zip(parts, coords)))
        for _, coords in class_concise_points(n)
    )


def span_dimension(n: int) -> int:
    """Rank of the matrix of concise flag vectors over all n-vertex classes."""
    check_size(n, MAX_SPAN_N, "span_dimension")
    return rank(RationalMatrix(coords for _, coords in class_concise_points(n)))


# ---------------------------------------------------------------------------
# hull reports

@dataclass(frozen=True, eq=False)
class HullReport:
    """Vertex flags (and optionally facets) for the hull of class points."""

    n: int
    points: dict
    vertex_flags: dict
    facets: tuple[FacetInequality, ...] | None = None

    @property
    def class_count(self) -> int:
        return len(self.points)

    @property
    def distinct_point_count(self) -> int:
        return len({v.items() for v in self.points.values()})

    @property
    def all_distinct(self) -> bool:
        return self.distinct_point_count == self.class_count

    @property
    def all_vertices(self) -> bool:
        return all(self.vertex_flags.values())


def _in_convex_hull(target: tuple, others: list[tuple]) -> bool:
    if not others:
        return False
    rows = [[o[i] for o in others] for i in range(len(target))]
    rows.append([1] * len(others))  # convex weights sum to one
    return lp_feasible(RationalMatrix(rows), [*target, 1]).feasible


def _vertex_flags(
    points: list[tuple[int, ...]],
    incidence: list[tuple[FacetInequality, int]] | None = None,
) -> list[bool]:
    """Exact vertex verdict for each of distinct integer points.

    `incidence` (optional) lists facets of their hull, each with the bitmask
    of the points tight on it (bit i for points[i]).  Point i is a vertex if
    the AND of the masks of the facets through it (all points, if none) is
    its own bit: the sum of those facets is then 0 at it and positive at
    every other point.  Every other point, and every point without
    incidence, goes to the exact LP: a vertex iff it is no convex
    combination of the others.
    """
    flags = []
    for i, p in enumerate(points):
        if incidence is not None:
            through = (mask for _, mask in incidence if mask >> i & 1)
            if reduce(operator.and_, through, (1 << len(points)) - 1) == 1 << i:
                flags.append(True)
                continue
        flags.append(not _in_convex_hull(p, points[:i] + points[i + 1 :]))
    return flags


def hull_report(n: int, include_facets: bool = False) -> HullReport:
    """Exact vertex verdict for every class point; facets on request.

    Without facets, a point is a vertex iff the exact LP finds the
    convex-combination system over the other distinct points infeasible.
    With facets, computed first, a vertex is certified by the tight sets of
    the facets through it, and only a point they do not certify goes to
    the LP.  Duplicated points (if any) share a verdict; distinctness is
    reported alongside.
    """
    check_size(n, MAX_HULL_N, "hull_report")
    pts = class_concise_points(n)
    unique = list(dict.fromkeys(coords for _, coords in pts))
    incidence = _facet_incidence(unique) if include_facets else None
    verdicts = dict(zip(unique, _vertex_flags(unique, incidence)))
    points = {g: vec for (g, _), vec in zip(pts, _class_vectors(n))}
    facets = None if incidence is None else tuple(f for f, _ in incidence)
    return HullReport(n, points, {g: verdicts[c] for g, c in pts}, facets)


# ---------------------------------------------------------------------------
# facet enumeration by double description

def _primitive(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = math.gcd(*vec)
    return tuple(x // g for x in vec)


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(operator.mul, a, b))


def _double_description(constraints: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Extreme rays of {x : c . x >= 0 for every c}, assuming the final cone
    is pointed.  Lineality is carried explicitly until constraints remove it.

    Each ray carries the bitmask of the processed constraints tight on it,
    exact by construction and never recomputed:

    - lineality vectors vanish on every processed constraint, so a ray
      projected along one keeps its mask and gains the current bit, and the
      lineality vector that becomes a ray is tight on every earlier one;
    - a ray born from rays p and q is a positive combination of two rays
      that are >= 0 on every processed constraint, so it is tight exactly on
      masks[p] & masks[q] and on the current constraint.

    A constraint splits the rays into plus (> 0), zero and minus (< 0)
    rays, and each adjacent plus/minus pair gives one new ray on it.  In
    the quotient by the remaining lineality, adjacent rays share at least
    `need` = quotient-dim - 2 tight constraints, so the candidates of a
    minus ray q are counted, not searched: bit-sliced counters at_least[k],
    seeded with the plus rays, absorb the holder bitset of each constraint
    in masks[q], and at_least[need] is then exactly the plus rays sharing
    `need` or more of them.  A candidate p is adjacent to q iff p and q are
    the only rays tight on every constraint of masks[p] & masks[q] (the
    combinatorial test of Fukuda and Prodon, 1996): the AND of those
    constraints' holder bitsets.  A new ray lies inside the 2-face its pair
    spans, so it repeats no survivor and no other new ray.
    """
    dim = len(constraints[0])
    lineality = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    rays: list[tuple[int, ...]] = []
    masks: list[int] = []  # tight-constraint bitmask per ray

    for idx, c in enumerate(constraints):
        bit = 1 << idx
        line_vals = [_dot(c, v) for v in lineality]
        k = next((i for i, val in enumerate(line_vals) if val), None)
        if k is not None:
            u, cu = lineality[k], line_vals[k]
            if cu < 0:
                u, cu = tuple(-x for x in u), -cu
            # cu * v - cv * u is cu > 0 times v - (cv / cu) * u: scale, never divide
            lineality = [
                _primitive(tuple(cu * vx - cv * ux for vx, ux in zip(v, u)))
                for i, (v, cv) in enumerate(zip(lineality, line_vals))
                if i != k
            ]
            rays = [
                _primitive(tuple(cu * rx - _dot(c, r) * ux for rx, ux in zip(r, u)))
                for r in rays
            ]
            rays.append(u)
            masks = [mask | bit for mask in masks]
            masks.append(bit - 1)
            continue

        vals = [_dot(c, r) for r in rays]
        plus = [i for i, v in enumerate(vals) if v > 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        new_rays = [r for r, v in zip(rays, vals) if v >= 0]
        new_masks = [m | bit if v == 0 else m for m, v in zip(masks, vals) if v >= 0]
        if plus and minus:
            holders = [0] * idx  # bitset of the rays tight on each constraint
            for i, mask in enumerate(masks):
                for t in bit_indices(mask):
                    holders[t] |= 1 << i
            need = max(dim - len(lineality) - 2, 0)
            every_ray = (1 << len(rays)) - 1
            plus_set = sum(1 << p for p in plus)
            for q in minus:
                mask_q = masks[q]
                # at_least[k]: the plus rays tight on >= k constraints of mask_q
                at_least = [plus_set] + [0] * need
                for t in bit_indices(mask_q):
                    held = holders[t]
                    for k in range(need, 0, -1):
                        at_least[k] |= at_least[k - 1] & held
                for p in bit_indices(at_least[need]):
                    common = masks[p] & mask_q
                    tight_on_common = every_ray
                    for t in bit_indices(common):
                        tight_on_common &= holders[t]
                    if tight_on_common != 1 << p | 1 << q:
                        continue
                    w = tuple(
                        vals[p] * qx - vals[q] * px
                        for px, qx in zip(rays[p], rays[q])
                    )
                    new_rays.append(_primitive(w))
                    new_masks.append(common | bit)
                check_size(
                    len(new_rays), MAX_FACET_RAYS, "hull_facets", "double-description rays"
                )
        rays, masks = new_rays, new_masks
    return rays


def _affine_chart(points: list[tuple[int, ...]]):
    """Origin and integer chart of the affine hull of integer points.

    Returns (p0, chart): chart holds independent differences x - p0 of the
    points, picked in order, that span the difference space.  So x maps to
    hull coordinates chart . (x - p0), injectively on the hull, and a hull
    functional y maps back to the ambient coefficients chart^T . y, which
    vanish on coordinates constant across the points.
    """
    p0 = points[0]
    echelon = EchelonRows()
    chart = []
    for x in points[1:]:
        diff = [a - b for a, b in zip(x, p0)]
        if echelon.add(diff) is not None:
            chart.append(diff)
    return p0, chart


def hull_facets(points: Sequence[Sequence]) -> tuple[FacetInequality, ...]:
    """Facets of the convex hull of the points, within their affine hull.

    Points are coordinate sequences of ints or Fractions.  Returns
    (coefficients, offset) pairs, scaled to coprime integers, with
    coefficients . x + offset >= 0 on every input point and equality exactly
    on each facet.  Coefficients are zero on coordinates that are constant
    across the points.  Rational points are scaled by one common
    denominator; all the work is in integers.  Every facet is certified
    before it is returned: one packed evaluation gives its value at every
    point, and its tight points are checked for facet rank (see
    _facet_incidence).  Points of unequal length are refused with
    ValueError, and a point that is no sequence of ints and Fractions with
    TypeError.
    """
    return tuple(f for f, _ in _facet_incidence(points))


def _facet_incidence(points: Sequence[Sequence]) -> list[tuple[FacetInequality, int]]:
    """The facets of `hull_facets`, sorted, each with the bitmask of the
    distinct points tight on it: bit i for the i-th distinct point in order
    of first occurrence.

    The double description's rays are certified in integers: a zero ray is
    refused, each facet holds on every point and is tight on some (one
    packed evaluation per facet, see _tight_points), its tight points have
    facet rank (one elimination shared along common prefixes, see
    _check_facet_rank), and no facet repeats.
    """
    scaled, scale = integer_rows(points)
    unique = list(dict.fromkeys(scaled))
    check_size(len(unique), MAX_FACET_POINTS, "hull_facets", "distinct points")
    ambient = len(unique[0]) if unique else 0
    check_size(ambient, MAX_FACET_DIM, "hull_facets", "ambient dimension")
    if len(unique) < 2:  # no points, or one: no facets
        return []
    p0, chart = _affine_chart(unique)
    diffs = [[a - b for a, b in zip(x, p0)] for x in unique]
    rays = _double_description([(1, *(_dot(row, d) for row in chart)) for d in diffs])

    facets: list[tuple[int, ...]] = []
    chart_cols = list(zip(*chart))
    for ray in rays:
        if not any(ray):
            raise ArithmeticError("double description gave a zero ray")
        y = ray[1:]
        amb = [_dot(y, col) for col in chart_cols]
        facets.append(_primitive(amb + [ray[0] - _dot(amb, p0)]))

    tight_sets = _tight_points(unique, facets)
    _check_facet_rank(unique, tight_sets, len(chart) - 1)
    if len(set(facets)) != len(facets):
        raise ArithmeticError("duplicate facet inequalities")
    # back to the unscaled points: c . (scale x) + offset >= 0, same tight
    # set; equal numbers share one int object, since a report keeps every facet
    shared: dict[int, int] = {}
    unscaled = []
    for *coeffs, offset in facets:
        f = _primitive([c * scale for c in coeffs] + [offset])
        unscaled.append(tuple(map(shared.setdefault, f, f)))
    masks = [sum(1 << i for i in tight) for tight in tight_sets]
    return sorted(((f[:-1], f[-1]), mask) for f, mask in zip(unscaled, masks))


def _tight_points(
    points: list[tuple[int, ...]], facets: list[tuple[int, ...]]
) -> list[list[int]]:
    """The indices of the points tight on each facet (coefficients...,
    offset), refusing a facet that fails on a point or is tight on none.

    Coordinate j of the points packs into one integer col_j, slot i holding
    x_ij (see vectors.pack_slots), and a last column holds 1 in every slot.
    A facet's values lie within +-B, B = |offset| + sum_j |c_j| max_i
    |x_ij|, so in w-byte slots with 2^(8w - 1) > B, one signed read of
    offset ones + sum_j c_j col_j gives every value f(x_i).
    """
    columns = [*zip(*points), (1,) * len(points)]
    reach = [max(map(abs, col)) for col in columns]
    packed: dict[int, list[int]] = {}  # packed columns per slot width
    out = []
    for f in facets:
        width = slot_bytes(2 * _dot(map(abs, f), reach) + 1)
        if width not in packed:
            packed[width] = [pack_slots(col, width) for col in columns]
        values = read_signed_slots(_dot(f, packed[width]), len(points), width)
        if min(values) < 0:
            raise ArithmeticError("facet inequality fails on an input point")
        tight = [i for i, v in enumerate(values) if not v]
        if not tight:
            raise ArithmeticError("facet inequality is tight on no point")
        out.append(tight)
    return out


def _check_facet_rank(
    points: list[tuple[int, ...]], tight_sets: list[list[int]], rank: int
) -> None:
    """Refuse unless the tight points of each facet have affine rank `rank`.

    A facet's tight points t_0 < t_1 < ... are taken in order, each x_t - x_t0
    added to an echelon until it reaches `rank`.  A facet here is a chart
    functional and no constant (_tight_points refuses those), so some point
    lies off it and the rank cannot pass `rank`.  In lexicographic order of
    tight sets, a facet that shares a prefix of tight points with the one
    before shares that prefix's echelon rows too, and only drops and adds
    the rest.  The points are first renumbered from the one on the most
    facets down, which makes shared prefixes longer.
    """
    count = [0] * len(points)
    for tight in tight_sets:
        for i in tight:
            count[i] += 1
    order = sorted(range(len(points)), key=count.__getitem__, reverse=True)
    new_index = {i: k for k, i in enumerate(order)}
    points = [points[i] for i in order]
    echelon = EchelonRows()
    done: list[int] = []  # the tight points added for the facet before
    ranks = [0]  # ranks[k]: the echelon's rank after done[:k]
    for tight in sorted(sorted(map(new_index.__getitem__, t)) for t in tight_sets):
        share = 0  # tight sorts after done, so it is no proper prefix of it
        while share < len(done) and done[share] == tight[share]:
            share += 1
        echelon.truncate(ranks[share])
        del done[share:], ranks[share + 1 :]
        if not share:
            base = points[tight[0]]
            diffs = [[a - b for a, b in zip(x, base)] for x in points]
        for i in tight[share:]:
            if echelon.rank == rank:
                break
            if done:
                echelon.add(diffs[i])
            done.append(i)
            ranks.append(echelon.rank)
        if echelon.rank != rank:
            raise ArithmeticError("inequality does not support a facet")


# ---------------------------------------------------------------------------
# null space of the class matrix

@dataclass(frozen=True)
class NullspaceReport:
    """Null-space dimensions of the class-to-flag-vector map.

    `spans` records whether expansions of optional-cycle graphs span the
    whole null space at this order.  The kernel has dimension classes - p(n)
    and the cycle span classes - forests(n), so `spans` is true iff
    forests(n) = p(n): iff every partition of n is the type of one forest
    only, that is iff n <= 3.
    """

    n: int
    class_count: int
    kernel_dim: int
    cycle_span_dim: int
    spans: bool


def nullspace_report(n: int) -> NullspaceReport:
    """Kernel dimension of the class matrix versus the optional-cycle span.

    The kernel holds the formal sums of classes whose flag vector vanishes,
    so its dimension is the class count minus the exact rank of the class
    points.  The cycle span is the space generated by expanding every
    optional-edge graph whose optional set is a single cycle C (the signed
    sum over C's subsets B of the class of the regular edges plus B); its
    dimension is the class count minus the number of forest classes:

    - Lower bound.  A class G with a cycle C gives the row of (G - C
      regular, C optional).  G is the only term of that row with the most
      edges, so these rows, one per non-forest class, are triangular and
      independent.
    - Upper bound.  For each forest type F, let N_F(H) count the acyclic
      edge subsets S of H of type F.  On the expansion of (R regular, C
      optional), the terms containing a fixed S come from the B that hold
      the edges of S in C, and their signed sum vanishes unless S contains
      C, which no acyclic S does.  So every N_F kills every cycle row.  On the
      forest classes ordered by edge count the N_F are unitriangular
      (N_F(F) = 1, and N_F(F') = 0 unless F' = F or F' has more edges), so
      they are independent and their common kernel, which holds the cycle
      span, has dimension classes - forests.
    """
    check_size(n, MAX_SPAN_N, "nullspace_report")
    classes = [g for g, _ in class_concise_points(n)]
    kernel_dim = len(classes) - span_dimension(n)
    forests = sum(
        len(g.edges) + len(connected_partition(g).parts) == n for g in classes
    )
    cycle_span_dim = len(classes) - forests
    return NullspaceReport(
        n, len(classes), kernel_dim, cycle_span_dim, cycle_span_dim == kernel_dim
    )
