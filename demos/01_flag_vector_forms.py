#!/usr/bin/env python3
"""The three forms of the flag vector, side by side.

Every graph has a verbose flag vector (indexed by words over a and b), a
concise flag vector (indexed by partitions of the vertex count) and a
subgraph flag vector (partition-indexed, weighted by acyclic shelling
numbers).  This script computes all three for the four graphs on 3 vertices
and exhibits the single linear relation among them.
"""

from graphflag import (
    VerboseVector,
    concise_flag_vector,
    enumerate_shellings,
    parse_graph,
    subgraph_flag_vector,
    verbose_contribution,
    verbose_flag_vector,
)

graphs = ["3:", "3:0-1", "3:0-1,1-2", "3:0-1,1-2,0-2"]

print("three-vertex graphs, all three forms")
print("=" * 60)
for text in graphs:
    g = parse_graph(text)
    print(f"\n  {text}")
    print(f"    verbose : {verbose_flag_vector(g).to_text()}")
    print(f"    concise : {concise_flag_vector(g).to_text()}")
    print(f"    subgraph: {subgraph_flag_vector(g).to_text()}")

print("\nthe alternating relation  f(3_0) - 3 f(3_1) + 3 f(3_2) - f(3_3)")
print("=" * 60)
signs = (1, -3, 3, -1)
for label, form in [
    ("verbose", verbose_flag_vector),
    ("concise", concise_flag_vector),
    ("subgraph", subgraph_flag_vector),
]:
    total = None
    for s, text in zip(signs, graphs):
        term = s * form(parse_graph(text))
        total = term if total is None else total + term
    print(f"  {label:8s}: {total.to_text()}   (zero: {total.is_zero})")

print("\nboth verbose methods agree")
print("=" * 60)
g = parse_graph("5:0-1,1-2,2-3,3-4,0-4")
rec = verbose_flag_vector(g)
# the definition: add up the words of every one of the 5! removal orders
cycle = g.as_graph()
sh = VerboseVector(5)
for order in enumerate_shellings(cycle):
    sh += verbose_contribution(cycle, order)
print(f"  5-cycle, recursion == shelling sum: {rec == sh}")
print(f"  {rec.to_text()}")
