"""Seeded inputs of the benchmark workloads.

Every workload runs in whole rounds. A round has a fixed make-up (vertex
count, edge count and optional-edge count per slot), so the cost mix of a
round, and with it the rank at which the median and the 90th percentile
fall, is the same for every seed.

Run this file to print the make-up of the inputs for one seed:

    python3 perfbench/inputs.py --seed 1
"""

from __future__ import annotations

import argparse
import itertools
import random
from dataclasses import dataclass

from oracles import relabel

Edge = tuple[int, int]


def rng_for(*key) -> random.Random:
    """A generator seeded by a string key, stable across processes."""
    return random.Random("/".join(str(k) for k in key))


@dataclass(frozen=True)
class Query:
    """One labelled graph, possibly with optional edges, and its text form."""

    group: str
    n: int
    regular: frozenset
    optional: frozenset
    text: str

    @property
    def is_plain(self) -> bool:
        return not self.optional


def _pairs(n: int) -> list[Edge]:
    return list(itertools.combinations(range(n), 2))


def _text(rng: random.Random, n: int, regular, optional) -> str:
    # list the edges in random order and orientation, as a user might
    tokens = [("", e) for e in regular] + [("?", e) for e in optional]
    rng.shuffle(tokens)
    body = []
    for mark, (i, j) in tokens:
        if rng.random() < 0.5:
            i, j = j, i
        body.append(f"{mark}{i}-{j}")
    return f"{n}:" + ",".join(body)


# flagvec: (group, n, regular edges, optional edges) per slot of one round.
# The groups are ordered by cost. The median and the 90th percentile both
# fall inside the "n8" group, whose cost is mostly canonical searches; the
# "dense7" queries, whose cost depends on what the program's edge-subset
# caches hold from earlier queries, form the top 8 %.
FLAGVEC_ROUND = (
    # optional-edge queries on 5-6 vertices, expanded by inclusion-exclusion
    ("optional", 5, 3, 2), ("optional", 6, 4, 2), ("optional", 6, 3, 3),
    # sparse plain graphs
    ("small", 6, 4, 0), ("small", 6, 7, 0), ("small", 6, 8, 0),
    ("small", 7, 5, 0), ("small", 7, 7, 0),
    # 8 vertices: verbose recursion and the top-level canonical search
    *(("n8", 8, m, 0) for m in (6, 6, 7, 7, 7, 7, 8, 8, 8, 8, 9, 9, 9, 9, 9)),
    # 7 vertices with 12 of the 21 possible edges: 2^12 edge-subset sums
    ("dense7", 7, 12, 0), ("dense7", 7, 12, 0),
)

# In these groups no two queries of a run share an isomorphism class, so
# none is answered from the program's per-class caches. A query whose class
# key was seen before is drawn again (at most DISTINCT_TRIES times, after
# which a repeat is accepted).
DISTINCT_CLASS_GROUPS = ("n8", "dense7")
DISTINCT_TRIES = 50


def class_key(n: int, edges) -> tuple:
    """An isomorphism invariant: three rounds of colour refinement from the
    degrees. Isomorphic graphs get equal keys; a few others may too."""
    nbr: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        nbr[i].append(j)
        nbr[j].append(i)
    colour = [len(a) for a in nbr]
    key = []
    for _ in range(3):
        sig = [(colour[v], tuple(sorted(colour[u] for u in nbr[v]))) for v in range(n)]
        ids = {s: k for k, s in enumerate(sorted(set(sig)))}
        colour = [ids[s] for s in sig]
        key.append(tuple(sorted(sig)))
    return (n, tuple(key))


def flagvec_round(seed: int, k: int, seen: set) -> list[Query]:
    """Round k of the flagvec queries. Round -1 is the warm-up.

    The graphs of round k come from a stream that does not depend on the
    seed; the seed relabels their vertices and orders their edge lists. So
    every seed asks for the same isomorphism classes, and runs differ only
    where the program keys its caches by labelled edge sets. `seen` holds
    the classes and labelled graphs of earlier rounds.
    """
    shapes = rng_for("flagvec-classes", k)
    rng = rng_for("flagvec", seed, k)
    out = []
    for group, n, m, opt in FLAGVEC_ROUND:
        for _ in range(DISTINCT_TRIES):
            picked = shapes.sample(_pairs(n), m + opt)
            cls = class_key(n, picked[:m]) if group in DISTINCT_CLASS_GROUPS else None
            if cls not in seen:
                break
        seen.add(cls)
        for _ in range(DISTINCT_TRIES):
            perm = list(range(n))
            rng.shuffle(perm)
            regular, optional = relabel(picked[:m], perm), relabel(picked[m:], perm)
            if (n, regular, optional) not in seen:
                break
        seen.add((n, regular, optional))
        out.append(Query(group, n, regular, optional, _text(rng, n, regular, optional)))
    return out


def _circulant(n: int, steps) -> list[Edge]:
    return [(i, (i + d) % n) for i in range(n) for d in steps]


# canon: symmetric 8-vertex families; each round uses every family once,
# alternating between the graph and its complement. No two of the twelve
# graphs are isomorphic.
SYMMETRIC = {
    "C8": _circulant(8, (1,)),
    "K4,4": [(i, j) for i in range(4) for j in range(4, 8)],
    "Q3": [(i, i ^ (1 << b)) for i in range(8) for b in range(3) if i < i ^ (1 << b)],
    "C8(1,2)": _circulant(8, (1, 2)),
    "2C4": _circulant(4, (1,)) + [(4 + i, 4 + j) for i, j in _circulant(4, (1,))],
    "4K2": [(2 * i, 2 * i + 1) for i in range(4)],
}

# canon: edge counts of the random G(8, m) slots of one round
CANON_RANDOM_M = (2, 4, 6, 8, 10, 12, 14, 14, 16, 18, 20, 22, 24, 26)


@dataclass(frozen=True)
class CanonInput:
    """A labelled 8-vertex graph to canonicalise, with its family."""

    edges: frozenset
    kind: str    # "random" or "symmetric"
    family: str  # "G(8,m)" or the symmetric family, "co-" for complements


def canon_round(seed: int, k: int) -> list[CanonInput]:
    rng = rng_for("canon", seed, k)
    out = []
    for m in CANON_RANDOM_M:
        out.append(CanonInput(frozenset(rng.sample(_pairs(8), m)), "random", f"G(8,{m})"))
    for slot, (name, edges) in enumerate(SYMMETRIC.items()):
        base = relabel(edges, range(8))
        if (k + slot) % 2:
            base, name = frozenset(_pairs(8)) - base, "co-" + name
        perm = list(range(8))
        rng.shuffle(perm)
        out.append(CanonInput(relabel(base, perm), "symmetric", name))
    return out


def _exact_key(n: int, edges) -> str:
    """Least adjacency bitstring over all relabellings: a complete invariant."""
    pairs = _pairs(n)
    return min(
        "".join("1" if p in e else "0" for p in pairs)
        for e in (relabel(edges, perm) for perm in itertools.permutations(range(n)))
    )


def _describe(seed: int, rounds: int) -> None:
    print(f"flagvec round: {len(FLAGVEC_ROUND)} queries")
    for group, n, m, opt in FLAGVEC_ROUND:
        print(f"  {group:8} n={n} regular={m} optional={opt}")
    seen: set = set()
    warm_up = flagvec_round(seed, -1, seen)
    timed = [q for k in range(rounds) for q in flagvec_round(seed, k, seen)]
    labelled = {(q.n, q.regular, q.optional) for q in warm_up + timed}
    print(f"flagvec seed {seed}: {len(timed)} queries in {rounds} rounds after"
          f" {len(warm_up)} warm-up queries; {len(labelled)} distinct labelled graphs")
    # a query hits a class already cached when every graph of its expansion
    # is isomorphic to a graph of an earlier query
    known: set = set()
    hits: dict[str, list[int]] = {}
    for i, q in enumerate(warm_up + timed):
        if q.group in DISTINCT_CLASS_GROUPS:
            continue
        opt = sorted(q.optional)
        keys = {
            _exact_key(q.n, q.regular | {opt[t] for t in range(len(opt)) if mask >> t & 1})
            for mask in range(1 << len(opt))
        }
        if i >= len(warm_up):
            hits.setdefault(q.group, []).append(keys <= known)
        known |= keys
    for group in DISTINCT_CLASS_GROUPS:
        hits[group] = [False]
    for group, got in hits.items():
        print(f"  {group:8} share of timed queries whose classes were all seen before:"
              f" {sum(got) / len(got):.0%}")
    print(f"canon round: {len(CANON_RANDOM_M)} random G(8,m), m in {CANON_RANDOM_M};"
          f" {len(SYMMETRIC)} symmetric: {', '.join(SYMMETRIC)} or complements")
    print("  first round:", ", ".join(x.family for x in canon_round(seed, 0)))


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=4)
    a = ap.parse_args()
    _describe(a.seed, a.rounds)
