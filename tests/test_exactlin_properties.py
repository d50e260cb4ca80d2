"""Property tests of the exact kernel against independent implementations:
sympy's exact matrices for rank and null space, and scipy's HiGHS for LP
feasibility verdicts.  Every certificate lp_feasible returns is re-checked
here in Fraction arithmetic, multiplied out over the matrix's rows."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphflag import RationalMatrix, kernel_basis, lp_feasible, rank

sympy = pytest.importorskip("sympy")

entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-4, 4).map(Fraction),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
)


def matrices(min_rows=0, max_rows=4, min_cols=0, max_cols=5):
    return st.integers(min_rows, max_rows).flatmap(
        lambda m: st.integers(min_cols, max_cols).flatmap(
            lambda n: st.lists(
                st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    )


def _sym(rows):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    )


def _frac(x):
    return Fraction(int(x.p), int(x.q))


def _check_certificate(m, rhs, result):
    rows = m.to_rows()
    if result.feasible:
        assert result.farkas is None
        point = result.point
        assert all(x >= 0 for x in point)
        assert [sum(a * x for a, x in zip(row, point)) for row in rows] == list(rhs)
    else:
        assert result.point is None
        y = result.farkas
        assert all(sum(yi * a for yi, a in zip(y, col)) >= 0 for col in zip(*rows))
        assert sum(yi * bi for yi, bi in zip(y, rhs)) < 0


@settings(max_examples=150)
@given(rows=matrices(min_rows=1))
def test_rank_and_kernel_match_sympy(rows):
    m = RationalMatrix(rows)
    sm = _sym(rows)
    assert rank(m) == sm.rank()
    basis = kernel_basis(m)
    expected = [tuple(_frac(x) for x in v) for v in sm.nullspace()]
    assert list(basis) == expected
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)


int_systems = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            ),
            st.lists(st.integers(-6, 6), min_size=m, max_size=m),
        )
    )
)


@settings(max_examples=150)
@given(system=int_systems, k=st.integers(2, 12))
def test_one_integer_form_gives_the_same_answers(system, k):
    # int entries, the same values as Fractions, and the whole system over
    # k: one common denominator scales [eq; rhs] jointly, which keeps every
    # Bland pivot, so verdict, point and Farkas vector all agree
    rows, rhs = system
    versions = [
        (rows, rhs),
        ([[Fraction(x) for x in row] for row in rows], [Fraction(x) for x in rhs]),
        (
            [[Fraction(x, k) for x in row] for row in rows],
            [Fraction(x, k) for x in rhs],
        ),
    ]
    answers = []
    for eq, b in versions:
        m = RationalMatrix(eq)
        answers.append((lp_feasible(m, b), rank(m), kernel_basis(m)))
    assert answers[0] == answers[1] == answers[2]


@settings(max_examples=150)
@given(data=st.data(), rows=matrices(min_rows=1, min_cols=1))
def test_lp_verdict_matches_highs(data, rows):
    optimize = pytest.importorskip("scipy.optimize")
    rhs = data.draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
    m = RationalMatrix(rows)
    result = lp_feasible(m, rhs)
    _check_certificate(m, rhs, result)
    highs = optimize.linprog(
        c=[0.0] * m.cols,
        A_eq=[[float(x) for x in row] for row in rows],
        b_eq=[float(x) for x in rhs],
        bounds=(0, None),
        method="highs",
    )
    assert highs.status in (0, 2), highs.message
    assert result.feasible == (highs.status == 0)


# certificates recorded before the simplex moved to an integer tableau: a
# different pivot order would change them even where the verdict agrees
F = Fraction
GOLDEN = [
    ([[1, 2, -1], [0, 1, 1]], [3, 1], True, [1, 1, 0]),
    ([[1, 1], [1, -1]], [1, 2], False, [1, -1]),
    ([[1, 0], [0, 1], [1, 1]], [1, 1, 3], False, [1, 1, -1]),
    (
        [[F(1, 2), F(1, 3), -1], [2, F(-1, 5), 1]],
        [F(1, 7), 3],
        True,
        [F(44, 35), 0, F(17, 35)],
    ),
    (
        [[F(2, 3), F(-1, 4)], [F(-5, 6), F(1, 2)], [1, 1]],
        [F(1, 2), 1, F(1, 3)],
        False,
        [-1, -1, F(1, 4)],
    ),
    (
        [[3, -1, 2, 0], [1, 4, -2, 5], [-2, 1, 1, 1]],
        [7, -3, 2],
        True,
        [F(7, 11), F(16, 33), F(92, 33), 0],
    ),
    # the extreme 4-vertex class point against the other ten: a vertex
    (
        [
            [1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
            [0, 1, 2, 3, 3, 2, 3, 4, 4, 5],
            [0, 0, 0, 0, 0, 1, 1, 1, 2, 2],
            [0, 0, 1, 3, 3, 0, 2, 5, 4, 8],
            [0, 0, 0, 0, 3, 0, 2, 7, 8, 18],
            [1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
        ],
        [1, 6, 3, 12, 36, 1],
        False,
        [34, -1, -1, -1, -1, -1],
    ),
    # the midpoint of two 4-vertex class points against all eleven
    (
        [
            [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
            [0, 1, 2, 3, 3, 2, 3, 4, 4, 5, 6],
            [0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 3],
            [0, 0, 1, 3, 3, 0, 2, 5, 4, 8, 12],
            [0, 0, 0, 0, 3, 0, 2, 7, 8, 18, 36],
            [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
        ],
        [1, F(7, 2), F(1, 2), 4, F(7, 2), 1],
        True,
        [0, 0, 0, F(1, 2), 0, 0, 0, F(1, 2), 0, 0, 0],
    ),
]


@pytest.mark.parametrize("rows,rhs,feasible,certificate", GOLDEN)
def test_lp_golden_certificates(rows, rhs, feasible, certificate):
    m = RationalMatrix(rows)
    result = lp_feasible(m, rhs)
    _check_certificate(m, rhs, result)
    assert result.feasible == feasible
    got = result.point if feasible else result.farkas
    assert got == tuple(Fraction(x) for x in certificate)
    assert all(type(x) is Fraction for x in got)
