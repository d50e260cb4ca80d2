#!/usr/bin/env python3
"""The null space of the class matrix, versus optional-cycle relations.

Formal sums of graphs with identically zero flag vector form the null space
of the class matrix.  Expanding optional-edge graphs whose optional set is a
cycle always lands in that null space.  Those expansions span all classes
minus the forest classes, while the kernel has dimension classes - p(n), so
they fall short of the kernel by forests(n) - p(n).
"""

import math

from graphflag import (
    GraphSum,
    OptionalGraph,
    RationalMatrix,
    concise_flag_vector,
    connected_partition,
    enumerate_graphs,
    enumerate_partitions,
    expand,
    kernel_basis,
    nullspace_report,
    verbose_flag_vector,
)

print("null-space dimensions by order")
print("=" * 66)
print(
    f"  {'n':>2s} {'classes':>8s} {'forests':>8s} {'kernel':>7s}"
    f" {'cycle span':>11s} {'spans':>6s}"
)
for n in range(2, 6):
    rep = nullspace_report(n)
    forests = sum(
        len(g.edges) + len(connected_partition(g).parts) == n
        for g in enumerate_graphs(n)
    )
    print(
        f"  {rep.n:2d} {rep.class_count:8d} {forests:8d} {rep.kernel_dim:7d}"
        f" {rep.cycle_span_dim:11d} {str(rep.spans).lower():>6s}"
    )

print("\nat n=3 the kernel is exactly the optional-triangle relation")
print("=" * 66)
triangle = OptionalGraph(3, frozenset(), frozenset({(0, 1), (1, 2), (0, 2)}))
for g, c in expand(triangle).items():
    print(f"  {c:+d}  {g.to_text()}")

print("\nevery kernel vector maps back to a sum with zero flag vector (n=4)")
print("=" * 66)
classes = enumerate_graphs(4)
parts = enumerate_partitions(4)
matrix = RationalMatrix(
    [[concise_flag_vector(g).coefficient(p) for g in classes] for p in parts]
)
for k, vec in enumerate(kernel_basis(matrix)):
    scale = math.lcm(*(c.denominator for c in vec))
    gs = GraphSum(4, {g: int(c * scale) for g, c in zip(classes, vec)})
    ok = concise_flag_vector(gs).is_zero and verbose_flag_vector(gs).is_zero
    print(f"  kernel vector {k}: {len(gs)} terms, flag vectors vanish: {ok}")

print("\nclosed form: the cycle span is classes - forests.  Each class G with a")
print("cycle C gives the row of (G - C regular, C optional), whose only term")
print("with the most edges is G; and every count of acyclic edge subsets of a")
print("fixed forest type kills every cycle row.  The kernel is classes - p(n),")
print("so the cycles span it iff forests(n) = p(n), that is iff n <= 3: at")
print("n=4 the 6 forests against p(4) = 5 leave one relation among forests.")
