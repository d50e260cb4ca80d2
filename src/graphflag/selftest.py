"""The acceptance suite: one check per release criterion, with time bounds.

Each criterion function returns (passed, detail); the runner adds wall-clock
timing and enforces the stated runtime bounds.  Everything here is also
exercised by the pytest acceptance module; the CLI `selftest` command runs
this suite directly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .exactlin import RationalMatrix, kernel_basis, rank
from .flagvectors import (
    anchor_word,
    basis_graph,
    complement_transform,
    concise_flag_vector,
    optional_path,
    optional_tripod,
    scale_subgraph_to_concise,
    subgraph_flag_vector,
    total_flag_vector,
    verbose_flag_vector,
    verbose_from_concise,
    concise_from_verbose,
)
from .graphs import (
    Graph,
    OptionalGraph,
    bit_indices,
    complement,
    connected_partition,
    enumerate_graphs,
    expand,
    pair_order,
)
from .partitions import Partition, enumerate_partitions, partition_count
from .polytope import hull_report, nullspace_report, span_dimension
from .shellings import (
    acyclic_shelling_number,
    count_semiconcise_flags,
    enumerate_shellings,
    tree_shelling_number,
    verbose_contribution,
)
from .vectors import ConciseVector, VerboseVector


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    seconds: float
    detail: str


def _subgraph_sum(g: Graph | OptionalGraph, weight) -> ConciseVector:
    """Sum of weight(H) times the component partition of H, over the edge
    sets H holding every optional edge and any subset of the regular ones:
    the concise form's definition weighted by tree_shelling_number, the
    subgraph form's by acyclic_shelling_number."""
    if isinstance(g, Graph):
        g = OptionalGraph.from_graph(g)
    edges = sorted(g.regular)
    coeffs: dict[Partition, int] = {}
    for mask in range(1 << len(edges)):
        h = Graph(g.n, g.optional.union(edges[k] for k in bit_indices(mask)))
        s = weight(h)
        if s:
            part = connected_partition(h)
            coeffs[part] = coeffs.get(part, 0) + s
    return ConciseVector(g.n, coeffs)


def _shelling_sum(g: Graph | OptionalGraph) -> VerboseVector:
    """The verbose form's definition: every expanded term adds the
    contribution of each of its n! removal orders (n <= MAX_SHELLING_N)."""
    coeffs: dict[str, int] = {}
    for term, coeff in expand(g).items() if isinstance(g, OptionalGraph) else [(g, 1)]:
        for order in enumerate_shellings(term):
            for w, c in verbose_contribution(term, order).items():
                coeffs[w] = coeffs.get(w, 0) + coeff * c
    return VerboseVector(g.n, coeffs)


def _graph(n: int, *edges) -> Graph:
    return Graph.from_edges(n, edges)


THREE_VERTEX_GRAPHS = (
    _graph(3),
    _graph(3, (0, 1)),
    _graph(3, (0, 1), (1, 2)),
    _graph(3, (0, 1), (1, 2), (0, 2)),
)

THREE_VERTEX_VERBOSE = (
    {"aaa": 6},
    {"aaa": 6, "aba": 2, "baa": 4},
    {"aaa": 6, "aba": 4, "baa": 8, "bba": 4},
    {"aaa": 6, "aba": 6, "baa": 12, "bba": 12},
)

# rows: name, graph, concise coefficients on [1+1+1+1],[2+1+1],[2+2],[3+1],[4]
FOUR_VERTEX_TABLE = (
    ("4_0", _graph(4), (1, 0, 0, 0, 0)),
    ("4_1", _graph(4, (0, 1)), (1, 1, 0, 0, 0)),
    ("2_1+2_1", _graph(4, (0, 1), (2, 3)), (1, 2, 1, 0, 0)),
    ("3_2+1_0", _graph(4, (0, 1), (1, 2)), (1, 2, 0, 1, 0)),
    ("A_4", _graph(4, (0, 1), (1, 2), (2, 3)), (1, 3, 1, 2, 2)),
    ("3_3+1_0", _graph(4, (0, 1), (1, 2), (0, 2)), (1, 3, 0, 3, 0)),
    ("star_4", _graph(4, (0, 1), (0, 2), (0, 3)), (1, 3, 0, 3, 3)),
    ("co(3_2+1_0)", complement(_graph(4, (0, 1), (1, 2))), (1, 4, 1, 5, 7)),
    ("co(2_1+2_1)", complement(_graph(4, (0, 1), (2, 3))), (1, 4, 2, 4, 8)),
    ("4_5", complement(_graph(4, (0, 1))), (1, 5, 2, 8, 18)),
    ("4_6", complement(_graph(4)), (1, 6, 3, 12, 36)),
)

_RNG_SEED = 20260810


def _criterion_1():
    problems = []
    for g, expected in zip(THREE_VERTEX_GRAPHS, THREE_VERTEX_VERBOSE):
        got = verbose_flag_vector(g)
        if got != VerboseVector(3, expected):
            problems.append(f"{g.to_text()}: got {got.to_text()}")
    return not problems, "; ".join(problems) or "all four 3-vertex rows match"


def _criterion_2():
    signs = (1, -3, 3, -1)
    checks = []
    for form, fn in (
        ("verbose", verbose_flag_vector),
        ("concise", concise_flag_vector),
        ("subgraph", subgraph_flag_vector),
    ):
        total = None
        for s, g in zip(signs, THREE_VERTEX_GRAPHS):
            term = s * fn(g)
            total = term if total is None else total + term
        checks.append((form, total.is_zero))
    bad = [form for form, ok in checks if not ok]
    return not bad, (
        f"relation fails in: {', '.join(bad)}" if bad else "relation vanishes in all three forms"
    )


def _criterion_3():
    parts = enumerate_partitions(4)
    problems = []
    for name, g, expected in FOUR_VERTEX_TABLE:
        vec = concise_flag_vector(g)
        got = tuple(vec.coefficient(p) for p in parts)
        if got != expected:
            problems.append(f"{name}: got {got}, want {expected}")
    return not problems, "; ".join(problems) or "11x5 table reproduced exactly"


def _criterion_4():
    report = hull_report(4)
    problems = []
    if not report.all_distinct:
        problems.append(
            f"only {report.distinct_point_count} of {report.class_count} points distinct"
        )
    if not report.all_vertices:
        interior = [g.serialize() for g, v in report.vertex_flags.items() if not v]
        problems.append(f"non-vertex points: {interior}")
    return not problems, "; ".join(problems) or "11 distinct points, all vertices"


def _criterion_5():
    expected = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11}
    problems = []
    for n, p in expected.items():
        if partition_count(n) != p:
            problems.append(f"p({n}) != {p}")
        dim = span_dimension(n)
        if dim != p:
            problems.append(f"span_dimension({n}) = {dim}, want {p}")
    return not problems, "; ".join(problems) or "span dimension equals p(n) for n = 1..6"


def _criterion_6():
    problems = []
    for n in range(6):
        for g in enumerate_graphs(n):
            if verbose_flag_vector(g) != _shelling_sum(g):
                problems.append(f"{g.serialize()}")
    return not problems, (
        f"methods disagree on: {problems}" if problems else "methods agree on all classes n <= 5"
    )


def _criterion_7():
    problems = []
    for n in range(6):
        for g in enumerate_graphs(n):
            vec = verbose_flag_vector(g)
            transformed = complement_transform(vec)
            if transformed != verbose_flag_vector(complement(g)):
                problems.append(f"transform mismatch on {g.serialize()}")
            if complement_transform(transformed) != vec:
                problems.append(f"involution fails on {g.serialize()}")
    return not problems, "; ".join(problems) or "transform matches complements and squares to identity"


def _criterion_8():
    problems = []
    for n in (2, 3, 4):
        pairs = pair_order(n)
        total = None
        for mask in range(1 << len(pairs)):
            g = Graph(n, frozenset(p for k, p in enumerate(pairs) if mask >> k & 1))
            vec = verbose_flag_vector(g)
            total = vec if total is None else total + vec
        if total != total_flag_vector(n):
            problems.append(f"n={n}")
    return not problems, (
        f"closed form differs at: {problems}" if problems else "closed form matches brute force for n = 2, 3, 4"
    )


def _random_optional_with_cycle(rng: random.Random) -> OptionalGraph:
    n = rng.randint(3, 6)
    k = rng.randint(3, n)
    cycle_vertices = rng.sample(range(n), k)
    optional = {
        (min(a, b), max(a, b))
        for a, b in zip(cycle_vertices, cycle_vertices[1:] + cycle_vertices[:1])
    }
    regular = set()
    for pair in pair_order(n):
        if pair in optional:
            continue
        roll = rng.random()
        if roll < 0.25 and len(optional) < 9:
            optional.add(pair)
        elif roll < 0.55:
            regular.add(pair)
    return OptionalGraph(n, frozenset(regular), frozenset(optional))


def _criterion_9():
    rng = random.Random(_RNG_SEED)
    problems = []
    for trial in range(50):
        og = _random_optional_with_cycle(rng)
        if not verbose_flag_vector(og).is_zero:
            problems.append(f"trial {trial}: {og.to_text()}")
    # with one optional edge made regular the vector need not vanish; the
    # optional-edge fold must then equal the signed sum over the expansion
    nonzero = 0
    for trial in range(60):
        og = _random_optional_with_cycle(rng)
        edge = rng.choice(sorted(og.optional))
        og = OptionalGraph(og.n, og.regular | {edge}, og.optional - {edge})
        vec = verbose_flag_vector(og)
        if vec != verbose_flag_vector(expand(og)):
            problems.append(f"expansion mismatch on {og.to_text()}")
        nonzero += not vec.is_zero
    if nonzero < 20:
        problems.append(f"only {nonzero} of 60 broken-cycle vectors are nonzero")
    return not problems, "; ".join(problems) or (
        "all 50 optional-cycle vectors vanish; all 60 broken-cycle vectors "
        f"match their expansions ({nonzero} nonzero)"
    )


def _criterion_10():
    problems = []
    for n in range(3, 8):
        part = Partition((n,))
        path_vec = concise_flag_vector(expand(optional_path(n)))
        if path_vec != ConciseVector(n, {part: 2 ** (n - 3)}):
            problems.append(f"optional path n={n}: {path_vec.to_text()}")
        tripod_vec = concise_flag_vector(expand(optional_tripod(n)))
        if tripod_vec != ConciseVector(n, {part: 2 ** (n - 2) - 1}):
            problems.append(f"optional tripod n={n}: {tripod_vec.to_text()}")
    for n in range(7):
        for part in enumerate_partitions(n):
            vec = concise_flag_vector(basis_graph(part))
            if vec != ConciseVector(n, {part: 1}):
                problems.append(f"basis {part}: {vec.to_text()}")
    for n in range(7):
        order = sorted(enumerate_partitions(n), key=anchor_word)
        anchors = [anchor_word(p) for p in order]
        vectors = [verbose_flag_vector(basis_graph(p)) for p in order]
        for i, vec in enumerate(vectors):
            if vec.coefficient(anchors[i]) == 0:
                problems.append(f"zero diagonal at {order[i]} (n={n})")
            for j in range(i):
                if vec.coefficient(anchors[j]) != 0:
                    problems.append(
                        f"nonzero below diagonal at ({order[i]}, {order[j]}) n={n}"
                    )
    return not problems, "; ".join(problems) or (
        "path/tripod values, basis partitions and triangularity all hold"
    )


def _criterion_11():
    # the concise and subgraph forms are derived from the verbose kernel, so
    # every conversion is checked against the definitional subgraph sums; a
    # refusal is reported for its class, and the next class is checked
    problems = []
    for n in range(6):
        for g in enumerate_graphs(n):
            try:
                concise = _subgraph_sum(g, tree_shelling_number)
                subgraph = _subgraph_sum(g, acyclic_shelling_number)
                verbose = verbose_flag_vector(g)
                if verbose_from_concise(concise) != verbose:
                    problems.append(f"expand mismatch on {g.serialize()}")
                if concise_from_verbose(verbose) != concise:
                    problems.append(f"invert mismatch on {g.serialize()}")
                if scale_subgraph_to_concise(subgraph) != concise:
                    problems.append(f"scale mismatch on {g.serialize()}")
                if concise_flag_vector(g) != concise:
                    problems.append(f"concise mismatch on {g.serialize()}")
                if subgraph_flag_vector(g) != subgraph:
                    problems.append(f"subgraph mismatch on {g.serialize()}")
            except ValueError as exc:
                problems.append(f"refused on {g.serialize()}: {exc}")
    return not problems, "; ".join(problems) or "conversions close on all classes n <= 5"


def _criterion_12():
    import math

    problems = []
    for n in range(6):
        for g in enumerate_graphs(n):
            verbose = verbose_flag_vector(g)
            for mask in range(1 << n):
                word = "".join(
                    "b" if mask >> (n - 1 - k) & 1 else "a" for k in range(n)
                )
                runs = [len(r) for r in word.split("b")]
                factor = 1
                for d in runs:
                    factor *= math.factorial(d)
                count = count_semiconcise_flags(g, word)
                if verbose.coefficient(word) != factor * count:
                    problems.append(f"{g.serialize()} word {word}")
    rng = random.Random(_RNG_SEED)
    word = "aabbaaa"
    for _ in range(5):
        edges = frozenset(p for p in pair_order(7) if rng.random() < 0.5)
        g = Graph(7, edges)
        coeff = verbose_flag_vector(g).coefficient(word)
        if coeff % 12 != 0:
            problems.append(f"{g.serialize()}: {word} coefficient {coeff} not divisible by 12")
        if coeff != 12 * count_semiconcise_flags(g, word):
            problems.append(f"{g.serialize()}: {word} identity fails")
    return not problems, "; ".join(problems) or (
        "identity holds for all words n <= 5 and aabbaaa on sampled 7-vertex graphs"
    )


def _criterion_13():
    problems = []
    report3 = nullspace_report(3)
    if report3.kernel_dim != 1:
        problems.append(f"n=3 kernel_dim {report3.kernel_dim} != 1")
    classes3 = enumerate_graphs(3)
    coords = [
        [concise_flag_vector(g).coefficient(p) for p in enumerate_partitions(3)]
        for g in classes3
    ]
    matrix = RationalMatrix([[coords[i][j] for i in range(4)] for j in range(3)])
    kernel = kernel_basis(matrix)
    triangle = OptionalGraph(3, frozenset(), frozenset({(0, 1), (1, 2), (0, 2)}))
    relation = [expand(triangle).coefficient(g) for g in classes3]
    if len(kernel) != 1:
        problems.append(f"n=3 kernel basis size {len(kernel)}")
    elif not (
        any(kernel[0])
        and any(relation)
        and rank(RationalMatrix([kernel[0], relation])) == 1
    ):
        problems.append("optional triangle does not generate the kernel")
    if not report3.spans or report3.cycle_span_dim != 1:
        problems.append(f"n=3 cycle span {report3.cycle_span_dim} (spans={report3.spans})")
    report4 = nullspace_report(4)
    if report4.kernel_dim != 6:
        problems.append(f"n=4 kernel_dim {report4.kernel_dim} != 6")
    if not 0 <= report4.cycle_span_dim <= report4.kernel_dim:
        problems.append(f"n=4 cycle span {report4.cycle_span_dim} out of range")
    finding = (
        f"n=4 cycle_span_dim={report4.cycle_span_dim} of kernel_dim=6 "
        f"(spans={report4.spans})"
    )
    return not problems, "; ".join(problems) or f"n=3 kernel generated by the optional triangle; {finding}"


_TIME_BOUNDS = {1: 1.0, 3: 5.0, 4: 10.0, 5: 600.0}

CRITERIA = (
    (1, "three-vertex verbose vectors", _criterion_1),
    (2, "alternating relation in all three forms", _criterion_2),
    (3, "four-vertex concise table", _criterion_3),
    (4, "four-vertex hull vertices", _criterion_4),
    (5, "span dimension equals partition count", _criterion_5),
    (6, "recursion and shelling-sum methods agree", _criterion_6),
    (7, "complement transform", _criterion_7),
    (8, "total flag vector closed form", _criterion_8),
    (9, "optional-cycle vectors vanish", _criterion_9),
    (10, "basis sums and anchor triangularity", _criterion_10),
    (11, "conversion closure", _criterion_11),
    (12, "semi-concise counting identity", _criterion_12),
    (13, "null-space dimensions", _criterion_13),
)


def run_criterion(number: int) -> CriterionResult:
    entry = next((c for c in CRITERIA if c[0] == number), None)
    if entry is None:
        raise ValueError(f"no criterion {number}")
    _, name, fn = entry
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crash is a failure, not a suite abort
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    bound = _TIME_BOUNDS.get(number)
    if bound is not None and elapsed > bound:
        passed = False
        detail = f"{detail}; exceeded {bound:.0f}s bound ({elapsed:.2f}s)"
    return CriterionResult(number, name, passed, elapsed, detail)


def run_all() -> list[CriterionResult]:
    return [run_criterion(number) for number, _, _ in CRITERIA]


def format_result(result: CriterionResult) -> str:
    mark = "PASS" if result.passed else "FAIL"
    return (
        f"{mark} {result.number:2d} {result.name} "
        f"({result.seconds:.2f}s): {result.detail}"
    )
