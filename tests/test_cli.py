import hashlib
import json
import sys
import time
from pathlib import Path

import pytest

from graphflag import parse_graph, subgraph_flag_vector
from graphflag.cli import main
from graphflag.selftest import _shelling_sum


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_flagvec_verbose_text(capsys):
    code, out, _ = run(capsys, "flagvec", "--form", "verbose", "--graph", "3:0-1")
    assert code == 0
    assert out == "aaa:6 aba:2 baa:4\n"


def test_flagvec_methods_agree(capsys):
    for text in ("4:0-1,1-2", "5:0-1,1-2,2-0,3-4", "5:0-1,?1-2,2-3,?3-0"):
        _, out, _ = run(capsys, "flagvec", "--form", "verbose", "--graph", text)
        assert out == _shelling_sum(parse_graph(text)).to_text() + "\n"


def test_flagvec_verbose_json_golden(capsys):
    code, out, _ = run(
        capsys,
        "flagvec", "--form", "verbose", "--graph", "4:0-1,1-2", "--format", "json",
    )
    assert code == 0
    assert out == (
        '{"coefficients": {"aaaa": 24, "aaba": 8, "abaa": 16, "abba": 4, '
        '"baaa": 24, "baba": 4, "bbaa": 8}, "form": "verbose", '
        '"graph": "4:0-1,1-2", "method": "recursion"}\n'
    )


def test_flagvec_prints_integers_past_the_str_digit_limit(capsys):
    text = "4096:0-1,2-3,?3-4"
    limit = sys.get_int_max_str_digits()
    code, out, err = run(
        capsys, "flagvec", "--form", "subgraph", "--graph", text, "--format", "json"
    )
    assert code == 0, err
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        payload = json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    got = {tuple(e["partition"]): e["coefficient"] for e in payload["coefficients"]}
    expected = subgraph_flag_vector(parse_graph(text))
    assert got == {p.parts: c for p, c in expected.items()}
    assert max(got.values()) > 10**4300  # more digits than the default limit
    code, out, _ = run(capsys, "flagvec", "--form", "subgraph", "--graph", "1700:0-1")
    assert code == 0 and out.count(":") == 2


def test_flagvec_json_matches_text_values(capsys):
    code, out, _ = run(
        capsys,
        "flagvec", "--form", "concise", "--graph", "4:0-1,1-2,2-3",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    got = {tuple(e["partition"]): e["coefficient"] for e in payload["coefficients"]}
    assert got == {(1, 1, 1, 1): 1, (2, 1, 1): 3, (2, 2): 1, (3, 1): 2, (4,): 2}


def test_flagvec_zero_vector_prints_zero(capsys):
    code, out, _ = run(
        capsys, "flagvec", "--form", "verbose", "--graph", "3:?0-1,?1-2,?0-2"
    )
    assert code == 0 and out == "0\n"


def test_flagvec_graph_file(tmp_path, capsys):
    path = tmp_path / "graphs.txt"
    path.write_text("# comment\n3:0-1\n\n3:\n")
    code, out, _ = run(
        capsys, "flagvec", "--form", "verbose", "--graph-file", str(path)
    )
    assert code == 0
    lines = out.splitlines()
    assert lines == ["3:0-1\taaa:6 aba:2 baa:4", "3:\taaa:6"]


def test_flagvec_requires_exactly_one_source(capsys):
    code, _, err = run(capsys, "flagvec", "--form", "verbose")
    assert code == 1 and "usage error" in err


def test_method_rejected_for_concise(capsys):
    # one verbose kernel: no form takes a method
    for form in ("verbose", "concise", "subgraph"):
        for method in ("recursion", "shelling"):
            code, _, err = run(
                capsys,
                "flagvec", "--form", form, "--graph", "3:", "--method", method,
            )
            assert code == 1 and "--method" in err


def test_complement_text_and_transform(capsys):
    code, out, _ = run(capsys, "complement", "--graph", "4:0-1")
    assert code == 0
    assert out.strip() == "4:0-2,0-3,1-2,1-3,2-3"
    code, out, _ = run(capsys, "complement", "--graph", "3:", "--transform")
    assert out.strip() == "aaa:6 aba:6 baa:12 bba:12"


def test_rank_command(capsys):
    code, out, _ = run(capsys, "rank", "--n", "4")
    assert code == 0
    assert "rank: 5" in out and "class_count: 11" in out


def test_hull_vertices_lines(capsys):
    code, out, _ = run(capsys, "hull", "--n", "4", "--mode", "vertices")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert all(line.endswith(" vertex") for line in lines)


def test_hull_facets_lines(capsys):
    code, out, _ = run(capsys, "hull", "--n", "3", "--mode", "facets")
    assert code == 0
    rows = [tuple(int(x) for x in line.split()) for line in out.splitlines()]
    assert (0, 0, 0, 1) in rows  # offset then coefficients
    assert len(rows) == 4


def test_nullspace_command(capsys):
    code, out, _ = run(capsys, "nullspace", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kernel_dim"] == 1 and payload["spans"] is True


def test_average_with_word(capsys):
    code, out, _ = run(capsys, "average", "--n", "3", "--word", "baa")
    assert code == 0
    assert out == "total: 48\nmean: 6\n"


def test_average_all_words(capsys):
    code, out, _ = run(capsys, "average", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["totals"] == {"aa": 4, "ab": 0, "ba": 2, "bb": 0}
    assert payload["means"]["ba"] == "1"


def test_enumerate_command(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["3:000", "3:001", "3:011", "3:111"]


def test_basis_command(capsys):
    code, out, _ = run(capsys, "basis", "--partition", "[2]")
    assert code == 0
    assert out.splitlines() == ["-1 2:", "1 2:0-1"]


def test_edgeflag_command(capsys):
    code, out, _ = run(capsys, "edgeflag", "--graph", "3:0-1,1-2")
    assert code == 0
    assert out.strip() == "aa:2 ca:2"


def test_exit_codes(capsys):
    code, _, err = run(capsys, "hull", "--n", "9", "--mode", "vertices")
    assert code == 2 and "size limit" in err
    code, _, err = run(capsys, "flagvec", "--form", "verbose", "--graph", "3:0-7")
    assert code == 1 and "out of range" in err
    code, _, err = run(capsys, "flagvec", "--form", "verbose", "--graph", "oops")
    assert code == 1
    code, _, err = run(capsys, "rank")
    assert code == 1


def test_out_of_bound_n_refused_before_work(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "average", "--n", "24")
    assert code == 2 and "size limit" in err
    code, _, err = run(capsys, "average", "--n", "24", "--word", "a" * 24)
    assert code == 2 and "size limit" in err
    # a negative order is a usage error for every command that takes --n
    negative = (
        ("rank",),
        ("hull", "--mode", "vertices"),
        ("hull", "--mode", "facets"),
        ("nullspace",),
        ("average",),
        ("average", "--word", "a"),
        ("enumerate",),
    )
    for command, *extra in negative:
        code, _, err = run(capsys, command, "--n", "-1", *extra)
        assert code == 1 and "usage error" in err and "nonnegative" in err
    code, _, err = run(capsys, "complement", "--graph", "3000:")
    assert code == 2 and "size limit" in err
    code, _, err = run(capsys, "flagvec", "--form", "verbose", "--graph", "13:")
    assert code == 2 and "size limit" in err
    # a number past Python's digit limit on str to int is refused, with its
    # position, before int() is called
    long_numbers = (
        ("9" * 5000 + ":0-1", "position 0"),
        ("3:0-" + "1" * 5000, "position 2"),
    )
    for graph, where in long_numbers:
        code, _, err = run(capsys, "flagvec", "--form", "concise", "--graph", graph)
        assert code == 2 and "size limit" in err and where in err
        assert "set_int_max_str_digits" not in err
    code, _, err = run(capsys, "basis", "--partition", "[2+" + "1" * 5000 + "]")
    assert code == 2 and "size limit" in err and "position 3" in err
    path13 = "13:" + ",".join(f"{i}-{i + 1}" for i in range(12))
    for form in ("concise", "subgraph"):
        for graph in (path13, "1000000:0-1"):
            code, _, err = run(capsys, "flagvec", "--form", form, "--graph", graph)
            assert code == 2 and "size limit" in err
    for command, n in (("hull", "7"), ("rank", "8"), ("nullspace", "8")):
        extra = ("--mode", "vertices") if command == "hull" else ()
        code, _, err = run(capsys, command, "--n", n, *extra)
        assert code == 2 and "size limit" in err
    for partition in ("[10]", "[9]", "[5+5+1]"):
        code, _, err = run(capsys, "basis", "--partition", partition)
        assert code == 2 and "size limit" in err
    code, _, err = run(capsys, "edgeflag", "--graph", path13)
    assert code == 2 and "size limit" in err
    assert time.perf_counter() - start < 1.0


def test_order_follows_the_number_rule_of_graph_text(capsys):
    # ASCII digits only: int() alone would read the first three as 3, 10, 3
    for text in ("\u0663", "1_0", "+3", "3.0", ""):
        code, out, err = run(capsys, "rank", "--n", text)
        assert code == 1 and out == "" and "usage error" in err
    code, out, err = run(capsys, "rank", "--n", "9" * 5000)
    assert code == 2 and out == "" and "size limit" in err
    assert "5000 digits" in err and len(err) < 200
    code, out, _ = run(capsys, "rank", "--n", " 3 ")
    assert code == 0 and out.startswith("n: 3\n")


def test_basis_partition_needs_ascii_digits(capsys):
    for text in ("[\u0663+\u0661]", "[1_0]"):
        code, out, err = run(capsys, "basis", "--partition", text)
        assert code == 1 and out == "" and "at position 1" in err
    code, out, _ = run(capsys, "basis", "--partition", "[3+1]")
    assert code == 0 and out


def test_unknown_flag_rejected(capsys):
    code, _, err = run(capsys, "rank", "--n", "3", "--wat")
    assert code == 1 and "usage error" in err


def test_bad_word_and_missing_file(capsys):
    code, _, err = run(capsys, "average", "--n", "3", "--word", "xyz")
    assert code == 1 and "letters a,b" in err
    code, _, err = run(
        capsys, "flagvec", "--form", "verbose", "--graph-file", "/nonexistent"
    )
    assert code == 1


def test_json_output_is_deterministic(capsys):
    args = ("hull", "--n", "3", "--mode", "vertices", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    payload = json.loads(first)
    assert payload["all_distinct"] and payload["all_vertices"]


@pytest.mark.parametrize(
    "argv",
    [
        ("rank", "--n", "3"),
        ("nullspace", "--n", "4"),
        ("hull", "--n", "4", "--mode", "vertices"),
        ("enumerate", "--n", "4"),
        ("flagvec", "--form", "concise", "--graph", "4:0-1,1-2,?2-3"),
    ],
)
def test_format_is_read_before_and_after_the_command(capsys, argv):
    code, text, _ = run(capsys, *argv)
    assert code == 0
    code, after, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    json.loads(after)
    code, before, _ = run(capsys, "--format", "json", *argv)
    assert code == 0
    assert before == after
    with pytest.raises(json.JSONDecodeError):
        json.loads(text)


def test_format_listed_in_help(capsys):
    for argv in ((), ("rank",)):
        with pytest.raises(SystemExit):
            main([*argv, "--help"])
        assert "--format {text,json}" in capsys.readouterr().out


@pytest.fixture
def fresh_anchor_rows():
    # the anchor rows keep the component scales of every order built: start
    # from none, and leave none built from a corrupted scale to later tests
    import graphflag.flagvectors as fv

    fv._anchor_system.cache_clear()
    yield
    fv._anchor_system.cache_clear()


def test_selftest_detects_corrupted_scale_table(capsys, monkeypatch, fresh_anchor_rows):
    # sabotage the per-part scale factor; the conversion criterion must fail
    import graphflag.flagvectors as fv
    from graphflag.selftest import run_criterion

    original = fv.component_scale

    def corrupted(size):
        return 3 if size == 2 else original(size)

    monkeypatch.setattr(fv, "component_scale", corrupted)
    result = run_criterion(11)
    assert not result.passed


def test_selftest_detects_a_scale_corrupted_after_the_conversions_ran(
    monkeypatch, fresh_anchor_rows
):
    # with the anchor rows of every order n <= 5 built from the true scales,
    # the corrupted one must still be caught, by the forms that read
    # component_scale itself; it divides the true one, so every division
    # stays exact and the forms disagree rather than refuse
    import graphflag.flagvectors as fv
    from graphflag import ConciseVector, enumerate_partitions
    from graphflag.selftest import run_criterion

    for n in range(6):
        for part in enumerate_partitions(n):
            v = ConciseVector(n, {part: 1})
            assert fv.concise_from_verbose(fv.verbose_from_concise(v)) == v
    original = fv.component_scale
    monkeypatch.setattr(
        fv, "component_scale", lambda size: 1 if size == 2 else original(size)
    )
    result = run_criterion(11)
    assert not result.passed
    assert "scale mismatch" in result.detail or "subgraph mismatch" in result.detail


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ("hull", "--n", "5", "--mode", "facets"),
            "4588340c4f7715495d953aaa94d74c3ad2ae1a9fc81d593100806f9e0a70cd99",
        ),
        (
            ("hull", "--n", "4", "--mode", "vertices"),
            "465b684c036fb9fe7b5ed7b81b874038a71c91dffffdbb97ec81985672cedf93",
        ),
        (
            ("nullspace", "--n", "5"),
            "0eb3c1e7f21a53a11d89cca7bcca2ee23b896bd950d658eeb6645991b227e428",
        ),
    ],
)
def test_census_json_is_byte_identical(capsys, argv, digest):
    # SHA-256 of the JSON printed when vertices came from one exact LP per
    # point and null-space rows from expand() and canonical forms
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_json_is_byte_identical(capsys):
    # SHA-256 of the JSON printed when classes came from attaching a vertex
    # in every way and running the n! canonical search on each candidate
    code, out, _ = run(capsys, "enumerate", "--n", "7", "--format", "json")
    assert code == 0
    digest = "f8c9786daeb84fd293c270fe3cc07340fe0f161f98367ff02984e3a6cf618998"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


FLAGVEC_CORPUS = Path(__file__).with_name("flagvec_corpus.txt")


@pytest.mark.parametrize(
    "form, digest",
    [
        ("verbose", "d044de6b06261477d21aa836475eb4d49d5f6a90d464dd2e7ccc3808c535524e"),
        ("concise", "a02d14a1561992b34b444436e82ee0aa1cbc7a1acdd284ae872314a932d9cd57"),
        ("subgraph", "94c8dd08bc5d586eceb30ee0cdbc3ca2cf62262affdfbbb71be3070f9f464c73"),
    ],
)
def test_flagvec_json_is_byte_identical(capsys, form, digest):
    # SHA-256 of the JSON printed when each component's concise vector came
    # from a p(n) x p(n) anchor table, re-expanded and compared on all words;
    # the corpus holds all 156 classes on 6 vertices, graphs with ? edges on
    # 2-8 vertices and graphs on 9-12 vertices
    argv = ("flagvec", "--form", form, "--format", "json", "--graph-file")
    code, out, _ = run(capsys, *argv, str(FLAGVEC_CORPUS))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
