"""Span dimension, convex hull analysis, and the null space of the
class-to-flag-vector map.

Points live in the p(n)-dimensional partition coordinate space; because the
all-ones partition coordinate is constantly 1 on single graphs, hulls are
analysed inside their affine hull.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import SizeLimitError
from .exactlin import EchelonRows, RationalMatrix, integer_rows, lp_feasible
from .flagvectors import concise_flag_vector
from .graphs import Graph, bit_indices, connected_partition, enumerate_graphs
from .partitions import enumerate_partitions, partition_count
from .vectors import ConciseVector

MAX_SPAN_N = 7  # span_dimension and nullspace_report
MAX_HULL_N = 6
MAX_FACET_POINTS = 40
MAX_FACET_DIM = 11

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
    if not 0 <= n <= MAX_SPAN_N:
        raise SizeLimitError(
            f"span_dimension supports 0 <= n <= {MAX_SPAN_N}, got n={n}"
        )
    echelon = EchelonRows()
    for _, coords in class_concise_points(n):
        if echelon.rank == len(coords):  # full column rank
            break
        echelon.add(coords)
    return echelon.rank


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

    def to_text_lines(self) -> list[str]:
        return [
            f"{g.serialize()} {'vertex' if self.vertex_flags[g] else 'interior'}"
            for g in self.points
        ]

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "class_count": self.class_count,
            "distinct_points": self.distinct_point_count,
            "all_distinct": self.all_distinct,
            "all_vertices": self.all_vertices,
            "points": [
                {
                    "graph": g.serialize(),
                    "vertex": self.vertex_flags[g],
                    "coefficients": [
                        {"partition": list(p.parts), "coefficient": c}
                        for p, c in vec.items()
                    ],
                }
                for g, vec in self.points.items()
            ],
        }
        if self.facets is not None:
            out["facets"] = [
                {"coefficients": list(coeffs), "offset": offset}
                for coeffs, offset in self.facets
            ]
        return out


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
    of the points tight on it (bit i for points[i]).  Point i is then first
    offered the sum of the facets tight on it: if that integer functional is
    0 at the point and positive at every other point, the point is its
    unique minimiser, so a vertex.  Otherwise, and without incidence, the
    exact LP decides: a vertex iff it is no convex combination of the others.
    """
    flags = []
    for i, p in enumerate(points):
        others = points[:i] + points[i + 1 :]
        if incidence is not None:
            tight = [f for f, mask in incidence if mask >> i & 1]
            coeffs = [sum(col) for col in zip(*(c for c, _ in tight))] or [0] * len(p)
            offset = sum(o for _, o in tight)
            if _dot(coeffs, p) + offset == 0 and all(
                _dot(coeffs, q) + offset > 0 for q in others
            ):
                flags.append(True)
                continue
        flags.append(not _in_convex_hull(p, others))
    return flags


def hull_report(n: int, include_facets: bool = False) -> HullReport:
    """Exact vertex verdict for every class point; facets on request.

    Without facets, a point is a vertex iff the exact LP finds the
    convex-combination system over the other distinct points infeasible.
    With facets, computed first, a vertex is certified by an integer
    functional built from the facets through it, and only a point that
    fails that check goes to the LP.  Duplicated points (if any) share a
    verdict; distinctness is reported alongside.
    """
    if not 0 <= n <= MAX_HULL_N:
        raise SizeLimitError(
            f"hull_report supports 0 <= n <= {MAX_HULL_N}, got n={n}"
        )
    pts = class_concise_points(n)
    groups: dict[tuple[int, ...], list[Graph]] = {}
    for g, coords in pts:
        groups.setdefault(coords, []).append(g)
    unique = list(groups)
    incidence = _facet_incidence(unique) if include_facets else None
    flags: dict[Graph, bool] = {}
    for coords, is_vertex in zip(unique, _vertex_flags(unique, incidence)):
        for g in groups[coords]:
            flags[g] = is_vertex
    points = {g: vec for (g, _), vec in zip(pts, _class_vectors(n))}
    facets = None if incidence is None else tuple(f for f, _ in incidence)
    return HullReport(n, points, {g: flags[g] for g in points}, facets)


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


def hull_facets(points: Sequence) -> tuple[FacetInequality, ...]:
    """Facets of the convex hull of the points, within their affine hull.

    Accepts ConciseVectors (coordinates in canonical partition order) or raw
    coordinate sequences.  Returns (coefficients, offset) pairs, scaled to
    coprime integers, with coefficients . x + offset >= 0 on every input
    point and equality exactly on each facet.  Coefficients are zero on
    coordinates that are constant across the points.  Rational points are
    scaled by one common denominator; all the work is in integers.  Points
    of unequal length, ConciseVectors of different n, and ConciseVectors
    mixed with coordinate sequences are refused with ValueError.
    """
    return tuple(f for f, _ in _facet_incidence(points))


def _facet_incidence(points: Sequence) -> list[tuple[FacetInequality, int]]:
    """The facets of `hull_facets`, sorted, each with the bitmask of the
    distinct points tight on it: bit i for the i-th distinct point in order
    of first occurrence."""
    points = list(points)
    for p in points:
        # p(n) >= n: a larger n is refused before its partitions are listed
        if isinstance(p, ConciseVector) and (
            p.n > MAX_FACET_DIM or partition_count(p.n) > MAX_FACET_DIM
        ):
            raise SizeLimitError(
                f"hull_facets supports ambient dimension <= {MAX_FACET_DIM}, "
                f"got a ConciseVector of n={p.n}"
            )
    rows = [
        [p.coefficient(q) for q in enumerate_partitions(p.n)]
        if isinstance(p, ConciseVector) else [Fraction(x) for x in p]
        for p in points
    ]
    lengths = sorted({len(row) for row in rows})
    if len(lengths) > 1:
        raise ValueError(f"hull_facets points differ in length: {lengths}")
    # equal lengths are not enough: p(0) = p(1) = 1, and a sequence has no n
    kinds = {
        f"ConciseVector n={p.n}" if isinstance(p, ConciseVector) else "sequence"
        for p in points
    }
    if len(kinds) > 1:
        raise ValueError(f"hull_facets points mix kinds: {sorted(kinds)}")
    scaled, scale = integer_rows(rows)
    unique = list(dict.fromkeys(map(tuple, scaled)))
    if len(unique) > MAX_FACET_POINTS:
        raise SizeLimitError(
            f"hull_facets supports at most {MAX_FACET_POINTS} distinct points, "
            f"got {len(unique)}"
        )
    ambient = len(unique[0]) if unique else 0
    if ambient > MAX_FACET_DIM:
        raise SizeLimitError(
            f"hull_facets supports ambient dimension <= {MAX_FACET_DIM}, "
            f"got {ambient}"
        )
    if len(unique) < 2:  # no points, or one: no facets
        return []
    p0, chart = _affine_chart(unique)
    diffs = [[a - b for a, b in zip(x, p0)] for x in unique]
    rays = _double_description([(1, *(_dot(row, d) for row in chart)) for d in diffs])

    facets: list[tuple[int, ...]] = []
    for ray in rays:
        amb = [_dot(ray[1:], col) for col in zip(*chart)]
        facets.append(_primitive(amb + [ray[0] - _dot(amb, p0)]))

    # verify before returning: validity on all points and genuine facet rank
    masks = []
    for *coeffs, offset in facets:
        vals = [offset + _dot(coeffs, pt) for pt in unique]
        if any(v < 0 for v in vals):
            raise ArithmeticError("facet inequality fails on an input point")
        tight = [i for i, v in enumerate(vals) if v == 0]
        if not tight:
            raise ArithmeticError("facet inequality is tight on no point")
        if len(tight) == len(unique):
            raise ArithmeticError("facet inequality is tight on every point")
        # some point lies off it, so the tight points span a proper face, of
        # rank len(chart) - 1 at most: stop adding them at that rank
        echelon = EchelonRows()
        for i in tight[1:]:
            if echelon.rank == len(chart) - 1:
                break
            echelon.add([a - b for a, b in zip(unique[i], unique[tight[0]])])
        if echelon.rank != len(chart) - 1:
            raise ArithmeticError("inequality does not support a facet")
        masks.append(sum(1 << i for i in tight))
    if len(set(facets)) != len(facets):
        raise ArithmeticError("duplicate facet inequalities")
    # back to the unscaled points: c . (scale x) + offset >= 0, same tight
    # set; equal numbers share one int object, since a report keeps every facet
    shared: dict[int, int] = {}
    unscaled = []
    for *coeffs, offset in facets:
        f = _primitive([c * scale for c in coeffs] + [offset])
        unscaled.append(tuple(map(shared.setdefault, f, f)))
    return sorted(((f[:-1], f[-1]), mask) for f, mask in zip(unscaled, masks))


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

    def to_text_lines(self) -> list[str]:
        return [
            f"{name}: {str(value).lower() if isinstance(value, bool) else value}"
            for name, value in self.to_json_dict().items()
        ]

    def to_json_dict(self) -> dict:
        return asdict(self)


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
    if not 0 <= n <= MAX_SPAN_N:
        raise SizeLimitError(
            f"nullspace_report supports 0 <= n <= {MAX_SPAN_N}, got n={n}"
        )
    classes = [g for g, _ in class_concise_points(n)]
    kernel_dim = len(classes) - span_dimension(n)
    forests = sum(
        len(g.edges) + len(connected_partition(g).parts) == n for g in classes
    )
    cycle_span_dim = len(classes) - forests
    return NullspaceReport(
        n, len(classes), kernel_dim, cycle_span_dim, cycle_span_dim == kernel_dim
    )
