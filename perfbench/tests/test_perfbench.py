"""Tests of the benchmark itself: its oracles agree with known values, its
checks catch a corrupted output, spans nest, and the command refuses to run
without the program's sources.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import graphflag as gf  # noqa: E402
import networkx as nx  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from inputs import SYMMETRIC, canon_round, flagvec_round  # noqa: E402
from spans import NULL, Tracer  # noqa: E402


def test_verbose_oracle_on_one_edge():
    # graphflag flagvec --form verbose --graph "3:0-1"  ->  aaa:6 aba:2 baa:4
    assert oracles.verbose_oracle(3, [(0, 1)]) == {"aaa": 6, "aba": 2, "baa": 4}


def test_oracles_agree_with_the_program_on_every_four_vertex_graph():
    pairs = list(itertools.combinations(range(4), 2))
    for mask in range(1 << len(pairs)):
        edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
        g = gf.Graph(4, frozenset(edges))
        want = oracles.verbose_oracle(4, edges)
        assert dict(gf.verbose_flag_vector(g).items()) == want
        con = ((p.parts, c) for p, c in gf.concise_flag_vector(g).items())
        assert oracles.concise_to_verbose(con) == want


def test_optional_oracle_vanishes_on_an_optional_cycle():
    assert oracles.optional_verbose_oracle(3, [], [(0, 1), (1, 2), (0, 2)]) == {}


def test_partition_count_and_rank():
    assert [oracles.partition_count(n) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert oracles.rank([[1, 2], [2, 4], [0, 1]]) == 2
    assert oracles.affine_rank([(0, 0), (1, 1), (2, 2)]) == 1


def _light_queries():
    return [q for q in flagvec_round(1, 0, set()) if q.group != "dense7"]


def test_flagvec_check_passes_and_catches_each_corrupted_form():
    for q in _light_queries():
        v, c, s = workloads.query(q, NULL)
        assert workloads.check_query(q, v, c, s) == []
        word = next(w for w, _ in v.items())
        assert workloads.check_query(q, v + gf.VerboseVector(q.n, {word: 1}), c, s)
        part = next(p for p, _ in c.items())
        bump = gf.ConciseVector(q.n, {part: 1})
        assert workloads.check_query(q, v, c + bump, s)
        if s is not None:
            assert workloads.check_query(q, v, c, s + bump)


def test_a_corrupted_output_fails_the_run(monkeypatch, capsys):
    real = gf.concise_flag_vector

    def off_by_one(g):
        vec = real(g)
        part = next(p for p, _ in vec.items())
        return vec + gf.ConciseVector(vec.n, {part: 1})

    monkeypatch.setattr(gf, "concise_flag_vector", off_by_one)
    code = run.main(["--workload", "flagvec", "--seed", "3", "--seconds", "0",
                     "--trace", "0", "--child", "overhead"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False


def test_census_check_passes_and_catches_a_changed_facet():
    hull = gf.hull_report(5, include_facets=True)
    null, dim = gf.nullspace_report(5), gf.span_dimension(6)
    assert workloads.check_census(hull, null, dim) == []
    (coeffs, offset), *rest = hull.facets
    bad = dataclasses.replace(hull, facets=((coeffs, offset + 1), *rest))
    assert workloads.check_census(bad, null, dim)
    assert workloads.check_census(hull, null, dim + 1)


def test_canon_check_passes_and_catches_a_wrong_witness():
    done = []
    for x in canon_round(1, 0)[::4]:
        g = gf.Graph(8, x.edges)
        done.append(((x, g), gf.canonical_form(g)))
    assert workloads.check_canon_ops(1, done) == []
    item, (form, rho) = done[1]  # a random G(8, 10)
    swapped = (rho[1], rho[0]) + rho[2:]
    assert workloads.check_canon_ops(1, [(item, (form, swapped))])
    other = gf.Graph(8, form.edges ^ {(0, 1)})
    assert workloads.check_canon_ops(1, [(item, (other, rho))])


def test_canon_inputs_cover_every_symmetric_family():
    xs = canon_round(5, 0) + canon_round(5, 1)
    sym = {x.family: x.edges for x in xs if x.kind == "symmetric"}
    assert len(sym) == 2 * len(SYMMETRIC)
    graphs = [workloads._nx_graph(8, e) for e in sym.values()]
    assert not any(nx.is_isomorphic(a, b) for a, b in itertools.combinations(graphs, 2))


def test_inputs_depend_only_on_the_seed():
    assert flagvec_round(4, 2, set()) == flagvec_round(4, 2, set())
    assert flagvec_round(4, 2, set()) != flagvec_round(5, 2, set())
    assert canon_round(4, 2) == canon_round(4, 2)


def test_spans_nest_and_carry_the_operation():
    tr = Tracer()
    tr.op_id = 7
    with tr.span("op"):
        with tr.span("layer", "x"):
            pass
    (inner, name, tag, start, end, parent, op), outer = tr.spans
    assert (name, tag, op) == ("layer", "x", 7)
    assert parent == outer[0] and start <= end
    assert len(tr.durations("layer")) == 1 and tr.durations("layer", "y") == []


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flagvec", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
