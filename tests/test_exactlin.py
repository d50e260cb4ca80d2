import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphflag import RationalMatrix, kernel_basis, lp_feasible, rank


def _m(rows):
    return RationalMatrix(rows)


def _identity(n):
    return _m([[int(i == j) for j in range(n)] for i in range(n)])


def _matvec(m, v):
    # multiplied out here, independently of the elimination
    return tuple(
        sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in m.to_rows()
    )


def _vecmat(y, m):
    return tuple(
        sum((yi * a for yi, a in zip(y, col)), Fraction(0)) for col in zip(*m.to_rows())
    )


# ---------------------------------------------------------------------------
# independent feasibility oracle: enumerate basic solutions

def _solve_square(rows, rhs):
    # tiny exact Gaussian solver, kept independent of RationalMatrix internals
    n = len(rows)
    work = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if work[i][col] != 0), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for i in range(n):
            if i != col and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return [work[i][-1] for i in range(n)]


def _feasible_oracle(rows, rhs):
    m, n = len(rows), len(rows[0]) if rows else 0
    if all(all(x == 0 for x in row) for row in rows):
        return all(b == 0 for b in rhs)
    cols = [[Fraction(rows[i][j]) for i in range(m)] for j in range(n)]
    for size in range(0, min(m, n) + 1):
        for subset in itertools.combinations(range(n), size):
            for rowset in itertools.combinations(range(m), size):
                square = [[cols[j][i] for j in subset] for i in rowset]
                if size:
                    sol = _solve_square(square, [rhs[i] for i in rowset])
                    if sol is None or any(x < 0 for x in sol):
                        continue
                else:
                    sol = []
                x = [Fraction(0)] * n
                for j, v in zip(subset, sol):
                    x[j] = v
                if all(
                    sum(cols[j][i] * x[j] for j in range(n)) == rhs[i]
                    for i in range(m)
                ):
                    return True
    return False


# ---------------------------------------------------------------------------
# rank and kernels

def test_rank_examples():
    assert rank(_identity(5)) == 5
    assert rank(_m([[0, 0], [0, 0]])) == 0
    assert rank(_m([])) == 0
    assert rank(_m([[1, 2], [2, 4], [1, 0]])) == 2


def test_rank_equals_rank_of_transpose():
    mats = [
        [[1, 2, 3], [4, 5, 6]],
        [[Fraction(1, 2), 1], [1, 2], [0, 1]],
        [[0, 0, 0]],
    ]
    for rows in mats:
        assert rank(_m(rows)) == rank(_m(zip(*rows)))


def test_kernel_examples():
    assert kernel_basis(_identity(3)) == ()
    basis = kernel_basis(_m([[1, -1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[1] != 0
    # the kept rows lead in column 1, then in column 0
    basis = kernel_basis(_m([[0, 1, 2, 3], [1, 0, 1, 1]]))
    assert basis == ((-1, -2, 1, 0), (-1, -3, 0, 1))


def test_kernel_vectors_annihilate():
    m = _m([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]])
    basis = kernel_basis(m)
    assert len(basis) == m.cols - rank(m)
    for v in basis:
        assert _matvec(m, v) == (0,) * m.rows


# ---------------------------------------------------------------------------
# LP feasibility

def test_lp_feasible_simple():
    result = lp_feasible(_m([[1, 1]]), [1])
    assert result.feasible
    assert sum(result.point) == 1 and all(x >= 0 for x in result.point)


def test_lp_infeasible_with_certificate():
    result = lp_feasible(_m([[1]]), [-1])
    assert not result.feasible
    y = result.farkas
    assert y[0] * 1 >= 0 and y[0] * -1 < 0


def test_lp_degenerate_shapes():
    assert lp_feasible(RationalMatrix([]), []).feasible
    empty_cols = RationalMatrix([[], []])
    assert not lp_feasible(empty_cols, [1, 0]).feasible
    assert lp_feasible(empty_cols, [0, 0]).feasible


def test_lp_certificates_verify_exactly():
    cases = [
        ([[1, 2, -1], [0, 1, 1]], [3, 1]),
        ([[1, 1], [1, -1]], [1, 2]),
        ([[1, 0], [0, 1], [1, 1]], [1, 1, 3]),
        ([[2, -3]], [0]),
    ]
    for rows, rhs in cases:
        m = _m(rows)
        result = lp_feasible(m, rhs)
        if result.feasible:
            assert _matvec(m, result.point) == tuple(rhs)
            assert all(x >= 0 for x in result.point)
        else:
            y = result.farkas
            assert all(x >= 0 for x in _vecmat(y, m))
            assert sum(yi * b for yi, b in zip(y, rhs)) < 0


@settings(max_examples=120, deadline=None)
@given(
    rows=st.integers(1, 3),
    cols=st.integers(1, 4),
    data=st.data(),
)
def test_lp_matches_basic_solution_oracle(rows, cols, data):
    entries = data.draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    rhs = data.draw(st.lists(st.integers(-4, 4), min_size=rows, max_size=rows))
    m = _m(entries)
    result = lp_feasible(m, rhs)
    assert result.feasible == _feasible_oracle(entries, rhs)
    if result.feasible:
        assert _matvec(m, result.point) == tuple(rhs)
        assert all(x >= 0 for x in result.point)
    else:
        y = result.farkas
        assert all(x >= 0 for x in _vecmat(y, m))
        assert sum(yi * b for yi, b in zip(y, rhs)) < 0


def test_lp_excludes_extreme_table_point():
    # the last concise row of the 4-vertex table maximises the final
    # coordinate, so it cannot be a convex combination of the other rows
    from graphflag import concise_flag_vector, enumerate_graphs, enumerate_partitions

    parts = enumerate_partitions(4)
    points = [
        tuple(concise_flag_vector(g).coefficient(p) for p in parts)
        for g in enumerate_graphs(4)
    ]
    target = max(points, key=lambda t: t[-1])
    others = [p for p in points if p != target]
    rows = [[o[i] for o in others] for i in range(len(parts))]
    rows.append([1] * len(others))
    assert not lp_feasible(_m(rows), list(target) + [1]).feasible


def test_rational_matrix_validation():
    with pytest.raises(ValueError):
        _m([[1, 2], [3]])
    with pytest.raises(TypeError):
        _m([[0.5]])
    with pytest.raises(ValueError):
        lp_feasible(_m([[1]]), [1, 2])
