import pytest

from graphflag import Partition, enumerate_partitions, multinomial, partition_count


def test_canonical_order_n4_matches_column_heads():
    got = [p.to_text() for p in enumerate_partitions(4)]
    assert got == ["[1+1+1+1]", "[2+1+1]", "[2+2]", "[3+1]", "[4]"]


@pytest.mark.parametrize(
    "n,count",
    [(0, 1), (1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11), (7, 15), (10, 42)],
)
def test_partition_counts(n, count):
    assert partition_count(n) == count


def test_enumeration_is_exhaustive_and_duplicate_free():
    for n in range(9):
        parts = enumerate_partitions(n)
        assert len(set(parts)) == len(parts)
        assert all(p.n == n for p in parts)
        # oracle: count non-increasing positive tuples summing to n directly
        def count(total, cap):
            if total == 0:
                return 1
            return sum(count(total - first, first) for first in range(1, min(total, cap) + 1))
        assert len(parts) == count(n, n)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition.from_sizes([1, 3, 2]).parts == (3, 2, 1)


def test_partition_refuses_bool_parts():
    # True == 1, but [True] is no partition text
    for parts in ((True,), (2, True)):
        with pytest.raises(ValueError, match="positive integers"):
            Partition(parts)


def test_bracket_text_round_trip():
    for text in ["[2+1+1]", "[4]", "[]", "[1+1]"]:
        assert Partition.from_text(text).to_text() == text
    assert Partition.from_text("[1+2+1]").parts == (2, 1, 1)
    with pytest.raises(ValueError):
        Partition.from_text("2+1")
    with pytest.raises(ValueError):
        Partition.from_text("[2+x]")


@pytest.mark.parametrize(
    "text,position",
    [
        ("[\u0663+\u0661]", 1),  # Arabic-Indic digits, which int() reads as 3 and 1
        ("[1_0]", 1),  # int() reads it as 10
        ("[2+\u00b2]", 3),  # superscript two, which str.isdigit accepts
        ("[2+x]", 3),
        ("[ 2 + -1 ]", 6),
        ("[3++1]", 3),
        ("[3+ ]", 3),
    ],
)
def test_bracket_text_accepts_ascii_digits_only(text, position):
    with pytest.raises(ValueError, match=f"at position {position}"):
        Partition.from_text(text)


def test_bracket_text_allows_spaces_around_parts():
    assert Partition.from_text(" [ 3 + 1 ] ").parts == (3, 1)
    assert Partition.from_text("[ ]").parts == ()


def test_multinomial():
    assert multinomial(4, (2, 1, 1)) == 12
    assert multinomial(0, ()) == 1
    assert multinomial(5, (5,)) == 1
    with pytest.raises(ValueError):
        multinomial(4, (2, 1))
