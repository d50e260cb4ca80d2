"""The three workloads: set-up, the timed operation, output checks, and the
extra layer calls (probes) of a traced run.

Each workload object offers:

- setup(): the work done before timing starts;
- round(k): the inputs of round k;
- op(x): one timed operation, with a span around each call into a layer;
- check(done): error messages for the (input, output) pairs, computed apart
  from the program and outside the timed phase;
- probe(done) and layer_metrics(): the traced run's per-layer numbers.

The package is imported as `graphflag`; run.py puts the repository's `src`
on the path first.
"""

from __future__ import annotations

import math

import graphflag as gf

from inputs import canon_round, flagvec_round, rng_for
from oracles import (
    affine_rank,
    component_scale,
    concise_to_verbose,
    multinomial,
    optional_verbose_oracle,
    partition_count,
    relabel,
    verbose_oracle,
)
from spans import NULL, p50, p90

SUBGRAPH_MAX_N = 7  # flagvec computes the subgraph form up to this size
PREGENERATED_ROUNDS = 16  # inputs made in set-up; later rounds are made on demand


def _nx_graph(n: int, edges):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


# ---------------------------------------------------------------------------
# flagvec: single-graph flag-vector queries

class Flagvec:
    name = "flagvec"

    def __init__(self, seed: int, tracer=NULL):
        self.seed, self.tr = seed, tracer
        self.seen: set = set()
        self.rounds: list = []
        self.expand_terms = 0

    def setup(self) -> None:
        warm_up = flagvec_round(self.seed, -1, self.seen)
        for k in range(PREGENERATED_ROUNDS):
            self.round(k)
        # warm-up: one round of queries the timed phase never repeats
        for q in warm_up:
            query(q, NULL)

    def round(self, k: int):
        while len(self.rounds) <= k:
            self.rounds.append(flagvec_round(self.seed, len(self.rounds), self.seen))
        return self.rounds[k]

    def op(self, q):
        return query(q, self.tr)

    def check(self, done) -> list[str]:
        return [e for q, out in done for e in check_query(q, *out)]

    def probe(self, done) -> None:
        tr = self.tr
        for q, (v, _, _) in done:
            if q.group == "n8":
                g = gf.Graph(q.n, q.regular)
                with tr.span("graphs.canonical_form", q.group):
                    gf.canonical_form(g)
            with tr.span("flagvectors.concise_from_verbose", q.group):
                gf.concise_from_verbose(v)
        for i, (q, _) in enumerate(done):
            forest = gf.Graph(q.n, spanning_forest(q.regular, rng_for("forest", self.seed, i)))
            with tr.span("shellings.tree_shelling_number"):
                gf.tree_shelling_number(forest)
            with tr.span("shellings.acyclic_shelling_number"):
                gf.acyclic_shelling_number(forest)
        # a fixed probe set, so the count repeats exactly from run to run
        seen: set = set()
        fixed = [q for k in range(4) for q in flagvec_round(0, k, seen) if q.optional]
        for q in fixed:
            og = gf.parse_graph(q.text)
            with tr.span("graphs.expand"):
                self.expand_terms += len(gf.expand(og))

    def layer_metrics(self) -> dict:
        d = self.tr.durations
        return {
            "flagvectors.verbose_flag_vector.p50_ms":
                (p50(d("flagvectors.verbose_flag_vector", "n8")) * 1e3, "ms"),
            "flagvectors.concise_flag_vector.p50_ms":
                (p50(d("flagvectors.concise_flag_vector", "dense7")) * 1e3, "ms"),
            "flagvectors.concise_flag_vector.p90_ms":
                (p90(d("flagvectors.concise_flag_vector", "dense7")) * 1e3, "ms"),
            "flagvectors.subgraph_flag_vector.p50_ms":
                (p50(d("flagvectors.subgraph_flag_vector", "dense7")) * 1e3, "ms"),
            "flagvectors.concise_from_verbose.p50_ms":
                (p50(d("flagvectors.concise_from_verbose", "n8")) * 1e3, "ms"),
            "graphs.canonical_form.p50_ms":
                (p50(d("graphs.canonical_form", "n8")) * 1e3, "ms"),
            "graphs.expand.terms": (self.expand_terms, "count"),
            "graphs.parse_graph.p50_us": (p50(d("graphs.parse_graph")) * 1e6, "us"),
            "shellings.tree_shelling_number.p50_us":
                (p50(d("shellings.tree_shelling_number")) * 1e6, "us"),
            "shellings.acyclic_shelling_number.p50_us":
                (p50(d("shellings.acyclic_shelling_number")) * 1e6, "us"),
        }


def query(q, tr):
    """Parse one graph text and compute every form the program supports."""
    with tr.span("graphs.parse_graph", q.group):
        og = gf.parse_graph(q.text)
    with tr.span("flagvectors.verbose_flag_vector", q.group):
        verbose = gf.verbose_flag_vector(og)
    with tr.span("flagvectors.concise_flag_vector", q.group):
        concise = gf.concise_flag_vector(og)
    subgraph = None
    if og.n <= SUBGRAPH_MAX_N:
        with tr.span("flagvectors.subgraph_flag_vector", q.group):
            subgraph = gf.subgraph_flag_vector(og)
    return verbose, concise, subgraph


def check_query(q, verbose, concise, subgraph) -> list[str]:
    """Compare one query's three forms with the subset-DP oracle."""
    errors = []
    want = optional_verbose_oracle(q.n, q.regular, q.optional)
    if verbose.n != q.n or dict(verbose.items()) != want:
        errors.append(f"{q.text}: verbose vector differs from the subset DP")
    con = {p.parts: c for p, c in concise.items()}
    if concise_to_verbose(con.items()) != want:
        errors.append(f"{q.text}: concise vector does not expand to the subset DP")
    if q.is_plain and con.get((1,) * q.n) != 1:
        errors.append(f"{q.text}: concise [1+...+1] coefficient is not 1")
    if subgraph is not None:
        sub = {p.parts: c for p, c in subgraph.items()}
        for parts in con.keys() | sub.keys():
            denom = multinomial(q.n, parts) * math.prod(component_scale(m) for m in parts)
            quo, rem = divmod(sub.get(parts, 0), denom)
            if rem or quo != con.get(parts, 0):
                errors.append(f"{q.text}: subgraph coefficient of {parts} does not "
                              "divide to the concise one")
    return errors


def spanning_forest(edges, rng) -> list:
    """A random spanning forest of the edges: Kruskal over a shuffled order."""
    order = sorted(edges)
    rng.shuffle(order)
    root: dict = {}

    def find(v):
        while root.get(v, v) != v:
            v = root[v]
        return v

    out = []
    for i, j in order:
        a, b = find(i), find(j)
        if a != b:
            root[a] = b
            out.append((i, j))
    return out


# ---------------------------------------------------------------------------
# census: the n = 5 hull, facets and null space, and the n = 6 span

class Census:
    name = "census"

    def __init__(self, seed: int, tracer=NULL):
        self.seed, self.tr = seed, tracer
        self.facets = 0

    def setup(self) -> None:
        with self.tr.span("graphs.enumerate_graphs", "n<=6"):
            for n in range(7):
                gf.enumerate_graphs(n)
        with self.tr.span("polytope.class_concise_points", "n<=6"):
            for n in range(7):
                gf.class_concise_points(n)

    def round(self, k: int):
        # the census has no seeded input: every operation repeats it
        return [5]

    def op(self, n):
        tr = self.tr
        with tr.span("polytope.hull_report", "facets"):
            hull = gf.hull_report(n, include_facets=True)
        with tr.span("polytope.nullspace_report"):
            null = gf.nullspace_report(n)
        with tr.span("polytope.span_dimension"):
            dim = gf.span_dimension(n + 1)
        return hull, null, dim

    def check(self, done) -> list[str]:
        first = done[0][1]
        errors = check_census(*first)
        for i, (_, (hull, null, dim)) in enumerate(done[1:], 1):
            same = (
                hull.points == first[0].points
                and hull.vertex_flags == first[0].vertex_flags
                and hull.facets == first[0].facets
                and null == first[1]
                and dim == first[2]
            )
            if not same:
                errors.append(f"census operation {i} differs from operation 0")
        return errors

    def probe(self, done) -> None:
        tr = self.tr
        unique = list(dict.fromkeys(c for _, c in gf.class_concise_points(5)))
        # the vertex systems exactly as hull_report poses them
        for target in unique:
            others = [u for u in unique if u != target]
            rows = [[o[i] for o in others] for i in range(len(target))]
            eq = gf.RationalMatrix(rows + [[1] * len(others)])
            with tr.span("exactlin.lp_feasible"):
                gf.lp_feasible(eq, list(target) + [1])
        with tr.span("polytope.hull_report", "vertices"):
            gf.hull_report(5)
        with tr.span("polytope.hull_facets"):
            self.facets = len(gf.hull_facets(unique))
        m6 = gf.RationalMatrix([c for _, c in gf.class_concise_points(6)])
        with tr.span("exactlin.rank"):
            gf.rank(m6)

    def layer_metrics(self) -> dict:
        d = self.tr.durations
        return {
            "graphs.enumerate_graphs.s": (d("graphs.enumerate_graphs", "n<=6")[0], "s"),
            "polytope.class_concise_points.s":
                (d("polytope.class_concise_points", "n<=6")[0], "s"),
            "exactlin.lp_feasible.p50_ms": (p50(d("exactlin.lp_feasible")) * 1e3, "ms"),
            "exactlin.lp_feasible.calls": (len(d("exactlin.lp_feasible")), "count"),
            "polytope.hull_report.s": (d("polytope.hull_report", "vertices")[0], "s"),
            "polytope.hull_facets.s": (d("polytope.hull_facets")[0], "s"),
            "polytope.hull_facets.facets": (self.facets, "count"),
            "polytope.nullspace_report.ms":
                (p50(d("polytope.nullspace_report")) * 1e3, "ms"),
            "exactlin.rank.ms": (d("exactlin.rank")[0] * 1e3, "ms"),
        }


def qhull_facets(points):
    """Vertex indices and facet incidence sets found by qhull, in floats,
    after projecting the points onto their affine hull."""
    import numpy as np
    from scipy.spatial import ConvexHull

    x = np.array(points, dtype=float)
    x -= x[0]
    _, sing, vt = np.linalg.svd(x)
    y = x @ vt[: int((sing > 1e-9 * sing[0]).sum())].T
    hull = ConvexHull(y)
    tol = 1e-7 * max(1.0, float(np.abs(y).max()))
    planes = {
        frozenset(np.flatnonzero(np.abs(y @ eq[:-1] + eq[-1]) < tol).tolist())
        for eq in hull.equations
    }
    return set(hull.vertices.tolist()), planes


def check_census(hull, null, dim) -> list[str]:
    import networkx as nx

    errors = []
    p5, p6 = partition_count(5), partition_count(6)
    parts = gf.enumerate_partitions(5)  # the coordinate order of the facets
    classes = list(hull.points)
    pts = [tuple(hull.points[g].coefficient(p) for p in parts) for g in classes]

    for g, pt in zip(classes, pts):
        if concise_to_verbose(zip((p.parts for p in parts), pt)) != verbose_oracle(5, g.edges):
            errors.append(f"class {g.serialize()}: point is not its concise vector")
    atlas = [a for a in nx.graph_atlas_g() if a.number_of_nodes() == 5]
    matched = set()
    for g in classes:
        ng = _nx_graph(5, g.edges)
        hits = [i for i, a in enumerate(atlas) if nx.is_isomorphic(ng, a)]
        matched.update(hits)
        if len(hits) != 1:
            errors.append(f"class {g.serialize()} matches {len(hits)} atlas graphs")
    if len(classes) != len(atlas) or len(matched) != len(atlas):
        errors.append(f"{len(classes)} classes for {len(atlas)} atlas graphs on 5 vertices")

    qh_vertices, qh_facets = qhull_facets(pts)
    if not all(hull.vertex_flags.values()) or qh_vertices != set(range(len(pts))):
        errors.append("vertex verdicts differ from qhull (all points are vertices)")
    facets = hull.facets or ()
    d = affine_rank(pts)
    tight_sets = set()
    for coeffs, offset in facets:
        vals = [offset + sum(a * x for a, x in zip(coeffs, pt)) for pt in pts]
        tight = frozenset(i for i, v in enumerate(vals) if v == 0)
        if min(vals) < 0:
            errors.append(f"facet {coeffs} {offset} fails on a class point")
        elif affine_rank([pts[i] for i in tight]) != d - 1:
            errors.append(f"facet {coeffs} {offset} is not tight on a facet")
        tight_sets.add(tight)
    if len(tight_sets) != len(facets) or tight_sets != qh_facets:
        errors.append(f"{len(facets)} facets differ from qhull's {len(qh_facets)}")

    if null.class_count != len(atlas) or null.kernel_dim != len(atlas) - p5:
        errors.append(f"kernel_dim {null.kernel_dim} != classes - p(5)")
    if dim != p6:
        errors.append(f"span_dimension(6) = {dim} != p(6) = {p6}")
    return errors


# ---------------------------------------------------------------------------
# canon: canonical forms of labelled 8-vertex graphs

class Canon:
    name = "canon"

    def __init__(self, seed: int, tracer=NULL):
        self.seed, self.tr = seed, tracer
        self.classes = ()
        self.rounds: list = []

    def setup(self) -> None:
        for k in range(4 * PREGENERATED_ROUNDS):  # canon rounds are about 4x shorter
            self.round(k)
        for x in canon_round(self.seed, -1):  # warm-up
            gf.canonical_form(gf.Graph(8, x.edges))

    def round(self, k: int):
        while len(self.rounds) <= k:
            xs = canon_round(self.seed, len(self.rounds))
            self.rounds.append([(x, gf.Graph(8, x.edges)) for x in xs])
        return self.rounds[k]

    def op(self, item):
        x, g = item
        with self.tr.span("graphs.canonical_form", x.kind):
            return gf.canonical_form(g)

    def check(self, done) -> list[str]:
        errors = check_canon_ops(self.seed, done)
        if self.classes:  # the class table is built by the traced run only
            errors += check_classes(self.classes)
        return errors

    def probe(self, done) -> None:
        # the 1044-class table on 7 vertices: about 20 s, so not repeated
        # in every untraced run's set-up
        with self.tr.span("graphs.enumerate_graphs", "n7"):
            self.classes = gf.enumerate_graphs(7)

    def layer_metrics(self) -> dict:
        d = self.tr.durations
        return {
            "graphs.canonical_form.random.p50_ms":
                (p50(d("graphs.canonical_form", "random")) * 1e3, "ms"),
            "graphs.canonical_form.symmetric.p50_ms":
                (p50(d("graphs.canonical_form", "symmetric")) * 1e3, "ms"),
            "graphs.enumerate_graphs.n7_s": (d("graphs.enumerate_graphs", "n7")[0], "s"),
            "graphs.enumerate_graphs.n7_classes": (len(self.classes), "count"),
        }


def check_canon_ops(seed: int, done) -> list[str]:
    import networkx as nx

    errors = []
    for i, ((x, _), (form, rho)) in enumerate(done):
        if relabel(x.edges, rho) != form.edges:
            errors.append(f"op {i} ({x.family}): relabelling by rho does not give the form")
        if not nx.is_isomorphic(_nx_graph(8, x.edges), _nx_graph(8, form.edges)):
            errors.append(f"op {i} ({x.family}): form is not isomorphic to the input")
        perm = list(range(8))
        rng_for("canon-check", seed, i).shuffle(perm)
        again, _ = gf.canonical_form(gf.Graph(8, relabel(x.edges, perm)))
        if again != form:
            errors.append(f"op {i} ({x.family}): a relabelled copy has another form")
    return errors


def check_classes(classes) -> list[str]:
    """The enumerated classes are exactly the atlas graphs on 7 vertices."""
    import networkx as nx

    atlas = [a for a in nx.graph_atlas_g() if a.number_of_nodes() == 7]
    keys = {c.serialize() for c in classes}
    forms = {gf.canonical_form(gf.Graph.from_edges(7, a.edges()))[0].serialize() for a in atlas}
    if len(keys) != len(classes) or len(forms) != len(atlas) or forms != keys:
        return [f"{len(atlas)} atlas graphs on 7 vertices give {len(forms)} forms, "
                f"{len(keys)} enumerated classes"]
    return []


WORKLOADS = {w.name: w for w in (Flagvec, Census, Canon)}
