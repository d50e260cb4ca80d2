"""Command-line interface with deterministic text and JSON output.

Exit codes: 0 on success, 1 on usage errors (including bad graph text),
2 when a request exceeds a documented size bound.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import asdict
from fractions import Fraction

from .errors import GraphParseError, SizeLimitError, check_size, read_number
from .flagvectors import (
    MAX_TOTAL_N,
    basis_graph,
    complement_transform,
    concise_flag_vector,
    edge_flag_vector,
    subgraph_flag_vector,
    total_flag_vector,
    total_word_coefficient,
    verbose_flag_vector,
)
from .graphs import complement, enumerate_graphs, parse_graph
from .partitions import Partition, partition_count
from .polytope import hull_report, nullspace_report, span_dimension
from .vectors import ConciseVector, EdgeWordVector, VerboseVector


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _vector_json(vec):
    if isinstance(vec, ConciseVector):
        return [
            {"partition": list(p.parts), "coefficient": c} for p, c in vec.items()
        ]
    if isinstance(vec, (VerboseVector, EdgeWordVector)):
        return {w: c for w, c in vec.items()}
    raise TypeError(f"unexpected vector {vec!r}")


def _order(text: str) -> int:
    """The value of every --n: a nonnegative integer in ASCII digits, read as
    numbers in graph and partition text are.  It is read after argparse,
    which would report a size-limit refusal as a usage error."""
    digits = text.strip()
    negative = digits.startswith("-")
    if negative:
        digits = digits[1:]
    n = read_number(digits, text.index(digits), "--n")
    if n is None:
        raise UsageError(f"argument --n: invalid value {text!r} (ASCII digits)")
    if negative:
        raise UsageError(f"argument --n: must be nonnegative, got -{digits}")
    return n


def build_parser() -> _Parser:
    format_option = dict(choices=("text", "json"), help="output format (default: text)")
    parser = _Parser(prog="graphflag")
    parser.add_argument("--format", default="text", **format_option)
    # also accepted after the command; with no default there, a value given
    # before the command is not overwritten
    common = _Parser(add_help=False)
    common.add_argument("--format", default=argparse.SUPPRESS, **format_option)

    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser(
        "flagvec", parents=[common], help="flag vector of one or more graphs"
    )
    p.add_argument("--form", required=True, choices=("verbose", "concise", "subgraph"))
    p.add_argument("--graph", help='graph text, e.g. "3:0-1" or "3:?0-1,?1-2"')
    p.add_argument("--graph-file", help="file with one graph per line; # comments")

    p = sub.add_parser(
        "complement", parents=[common], help="complement graph, or its verbose vector"
    )
    p.add_argument("--graph", required=True)
    p.add_argument(
        "--transform",
        action="store_true",
        help="apply the letterwise transform to the graph's verbose vector",
    )

    p = sub.add_parser("rank", parents=[common], help="span dimension at order n")
    p.add_argument("--n", required=True)

    p = sub.add_parser("hull", parents=[common], help="convex hull analysis")
    p.add_argument("--n", required=True)
    p.add_argument("--mode", required=True, choices=("vertices", "facets"))

    p = sub.add_parser("nullspace", parents=[common], help="null-space report")
    p.add_argument("--n", required=True)

    p = sub.add_parser(
        "average", parents=[common], help="totals and means over all labelled graphs"
    )
    p.add_argument("--n", required=True)
    p.add_argument("--word", help="restrict to one word over a,b")

    p = sub.add_parser(
        "enumerate", parents=[common], help="isomorphism classes in canonical order"
    )
    p.add_argument("--n", required=True)

    p = sub.add_parser(
        "basis", parents=[common], help="basis graph sum for a partition"
    )
    p.add_argument("--partition", required=True, help='bracket text, e.g. "[3+1]"')

    p = sub.add_parser("edgeflag", parents=[common], help="edge-removal word vector")
    p.add_argument("--graph", required=True)

    sub.add_parser("selftest", parents=[common], help="run the acceptance suite")

    return parser


def _load_graphs(args) -> list[tuple[str, object]]:
    if bool(args.graph) == bool(args.graph_file):
        raise UsageError("provide exactly one of --graph or --graph-file")
    if args.graph:
        return [(args.graph.strip(), parse_graph(args.graph))]
    out = []
    with open(args.graph_file, encoding="utf-8") as handle:
        for line in handle:
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            out.append((text, parse_graph(text)))
    return out


def _cmd_flagvec(args):
    inputs = _load_graphs(args)
    results = []
    for label, og in inputs:
        if args.form == "verbose":
            vec = verbose_flag_vector(og)
        elif args.form == "concise":
            vec = concise_flag_vector(og)
        else:
            vec = subgraph_flag_vector(og)
        results.append((label, vec))
    # rendered lazily, in main, where integers of any length may be written
    if args.graph:
        lines = (vec.to_text() for _, vec in results)
        payload = {
            "form": args.form,
            "graph": results[0][0],
            "coefficients": _vector_json(results[0][1]),
        }
    else:
        lines = (f"{label}\t{vec.to_text()}" for label, vec in results)
        payload = {
            "form": args.form,
            "results": [
                {"graph": label, "coefficients": _vector_json(vec)}
                for label, vec in results
            ],
        }
    if args.form == "verbose":
        payload["method"] = "recursion"
    return lines, payload


def _cmd_complement(args):
    og = parse_graph(args.graph)
    if not og.is_ordinary:
        raise UsageError("complement requires an ordinary graph (no '?' edges)")
    g = og.as_graph()
    if args.transform:
        vec = complement_transform(verbose_flag_vector(g))
        return [vec.to_text()], {
            "graph": args.graph.strip(),
            "transformed_verbose": _vector_json(vec),
        }
    comp = complement(g)
    return [comp.to_text()], {
        "graph": args.graph.strip(),
        "complement": comp.to_text(),
    }


def _cmd_rank(args):
    n = args.n
    dim = span_dimension(n)
    payload = {
        "n": n,
        "class_count": len(enumerate_graphs(n)),
        "rank": dim,
        "partition_count": partition_count(n),
    }
    lines = [f"{key}: {payload[key]}" for key in payload]
    return lines, payload


def _cmd_hull(args):
    report = hull_report(args.n, include_facets=args.mode == "facets")
    flags = report.vertex_flags
    if args.mode == "vertices":
        lines = [
            f"{g.serialize()} {'vertex' if flags[g] else 'interior'}"
            for g in report.points
        ]
    else:
        lines = [
            " ".join(str(x) for x in (offset, *coeffs))
            for coeffs, offset in report.facets
        ]
    payload = {
        "n": report.n,
        "class_count": report.class_count,
        "distinct_points": report.distinct_point_count,
        "all_distinct": report.all_distinct,
        "all_vertices": report.all_vertices,
        "points": [
            {
                "graph": g.serialize(),
                "vertex": flags[g],
                "coefficients": _vector_json(vec),
            }
            for g, vec in report.points.items()
        ],
    }
    if report.facets is not None:
        payload["facets"] = [
            {"coefficients": list(coeffs), "offset": offset}
            for coeffs, offset in report.facets
        ]
    return lines, payload


def _cmd_nullspace(args):
    payload = asdict(nullspace_report(args.n))
    # ints as written, bools as JSON writes them
    lines = [f"{key}: {json.dumps(value)}" for key, value in payload.items()]
    return lines, payload


def _cmd_average(args):
    n = args.n
    check_size(n, MAX_TOTAL_N, "average")
    count = 2 ** math.comb(n, 2)
    if args.word is not None:
        total = total_word_coefficient(n, args.word)
        mean = Fraction(total, count)
        lines = [f"total: {total}", f"mean: {mean}"]
        payload = {
            "n": n,
            "word": args.word,
            "graph_count": count,
            "total": total,
            "mean": str(mean),
        }
        return lines, payload
    totals = total_flag_vector(n)
    words = ("".join(letters) for letters in itertools.product("ab", repeat=n))
    rows = [(w, totals[w]) for w in words]  # every word, zeros too, sorted
    lines = [f"{w} {t} {Fraction(t, count)}" for w, t in rows]
    payload = {
        "n": n,
        "graph_count": count,
        "totals": {w: t for w, t in rows},
        "means": {w: str(Fraction(t, count)) for w, t in rows},
    }
    return lines, payload


def _cmd_enumerate(args):
    classes = enumerate_graphs(args.n)
    lines = [g.serialize() for g in classes]
    return lines, {"n": args.n, "class_count": len(classes), "classes": lines}


def _cmd_basis(args):
    try:
        partition = Partition.from_text(args.partition)
    except SizeLimitError:
        raise
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    gs = basis_graph(partition)
    terms = gs.items()
    lines = [f"{c} {g.to_text()}" for g, c in terms]
    payload = {
        "partition": list(partition.parts),
        "terms": [{"coefficient": c, "graph": g.to_text()} for g, c in terms],
    }
    return lines, payload


def _cmd_edgeflag(args):
    og = parse_graph(args.graph)
    if not og.is_ordinary:
        raise UsageError("edgeflag requires an ordinary graph (no '?' edges)")
    vec = edge_flag_vector(og.as_graph())
    return [vec.to_text()], {
        "graph": args.graph.strip(),
        "edge_count": vec.m,
        "coefficients": _vector_json(vec),
    }


def _cmd_selftest(args):
    from .selftest import format_result, run_all

    results = run_all()
    lines = [format_result(r) for r in results]
    passed = sum(1 for r in results if r.passed)
    lines.append(f"passed {passed}/{len(results)}")
    payload = {
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "seconds": round(r.seconds, 3),
                "detail": r.detail,
            }
            for r in results
        ],
        "all_passed": passed == len(results),
    }
    code = 0 if passed == len(results) else 1
    return lines, payload, code


_HANDLERS = {
    "flagvec": _cmd_flagvec,
    "complement": _cmd_complement,
    "rank": _cmd_rank,
    "hull": _cmd_hull,
    "nullspace": _cmd_nullspace,
    "average": _cmd_average,
    "enumerate": _cmd_enumerate,
    "basis": _cmd_basis,
    "edgeflag": _cmd_edgeflag,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("no command given (see --help)")
        if hasattr(args, "n"):
            args.n = _order(args.n)
        out = _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"graphflag: usage error: {exc}", file=sys.stderr)
        return 1
    except SizeLimitError as exc:
        print(f"graphflag: size limit: {exc}", file=sys.stderr)
        return 2
    except GraphParseError as exc:
        print(f"graphflag: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"graphflag: {exc}", file=sys.stderr)
        return 1
    lines, payload = out[0], out[1]
    code = out[2] if len(out) > 2 else 0
    # the program's own integers (bounded by MAX_GRAPH_N) may pass Python's
    # digit limit on int to str; parsing the untrusted input kept that limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if args.format == "json":
            print(json.dumps(payload, sort_keys=True))
        else:
            for line in lines:
                print(line)
    finally:
        sys.set_int_max_str_digits(limit)
    return code


if __name__ == "__main__":
    sys.exit(main())
