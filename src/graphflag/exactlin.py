"""Exact rational linear algebra: rank, null spaces and LP feasibility.

Inputs and results are Fractions, but the work is integer fraction-free
elimination: a system is scaled by one common denominator and every routine
is built on one Edmonds/Bareiss pivot step (`_step`), whose divisions are
exact.  No floating point enters at any stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction


def _step(row: list[int], prow: list[int], c: int, prev: int) -> list[int]:
    """Eliminate column c from row with pivot row prow: (row * p - row[c] *
    prow) // prev, where p = prow[c] and prev is the previous pivot.

    All rows of one elimination share the denominator prev; after the step
    they share p, and Sylvester's identity makes the division exact (Bareiss
    1968).  Rows with a zero in column c are rescaled to the new denominator.
    """
    p, f = prow[c], row[c]
    if not f:
        return row if p == prev else [x * p // prev for x in row]
    return [(x * p - f * y) // prev for x, y in zip(row, prow)]


def integer_rows(rows: Iterable[Iterable]) -> tuple[list[list[int]], int]:
    """Rows of ints or Fractions scaled by their least common denominator
    to integers."""
    grid = [list(row) for row in rows]
    den = math.lcm(*(x.denominator for row in grid for x in row))
    return [[x.numerator * den // x.denominator for x in row] for row in grid], den


class EchelonRows:
    """Integer rows kept in fraction-free row-echelon form, added one at a
    time: each new row replays the earlier pivot steps, so `rank` is exact
    incremental rank."""

    def __init__(self) -> None:
        self._rows: list[list[int]] = []
        self._cols: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, row: Iterable[int]) -> list[int] | None:
        """Reduce row; keep and return it (an integer multiple of the row
        minus earlier rows, zero in every earlier pivot column) if it is
        independent of the rows so far, else return None."""
        work, prev = list(row), 1
        for prow, c in zip(self._rows, self._cols):
            work = _step(work, prow, c, prev)
            prev = prow[c]
        lead = next((j for j, v in enumerate(work) if v), None)
        if lead is None:
            return None
        self._rows.append(work)
        self._cols.append(lead)
        return work


class RationalMatrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, entries: Iterable[Iterable]):
        grid = tuple(tuple(Fraction(x) for x in row) for row in entries)
        if grid and any(len(r) != len(grid[0]) for r in grid):
            raise ValueError("rows have unequal lengths")
        self.rows = len(grid)
        self.cols = len(grid[0]) if grid else 0
        self._entries = grid

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls(
            [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        )

    def entry(self, i: int, j: int) -> Fraction:
        return self._entries[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._entries[i]

    def to_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._entries

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[self._entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def matvec(self, v: Sequence) -> tuple[Fraction, ...]:
        vec = [Fraction(x) for x in v]
        if len(vec) != self.cols:
            raise ValueError(f"vector length {len(vec)} != cols {self.cols}")
        return tuple(
            sum((a * x for a, x in zip(row, vec)), Fraction(0))
            for row in self._entries
        )

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        cols = other.transpose().to_rows()
        return RationalMatrix(
            [
                [sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols]
                for row in self._entries
            ]
        )

    def _rref(self) -> tuple[list[list[Fraction]], list[int]]:
        # fraction-free Gauss-Jordan: every pivot entry ends equal to the
        # last pivot, so one division per entry yields the unique RREF
        work, _ = integer_rows(self._entries)
        pivots: list[int] = []
        prev = 1
        for c in range(self.cols):
            r = len(pivots)
            if r == self.rows:
                break
            pivot = next((i for i in range(r, self.rows) if work[i][c]), None)
            if pivot is None:
                continue
            work[r], work[pivot] = work[pivot], work[r]
            for i in range(self.rows):
                if i != r:
                    work[i] = _step(work[i], work[r], c, prev)
            prev = work[r][c]
            pivots.append(c)
        return [[Fraction(x, prev) for x in row] for row in work], pivots

    def rank(self) -> int:
        echelon = EchelonRows()
        for row in integer_rows(self._entries)[0]:
            if echelon.rank == self.cols:
                break
            echelon.add(row)
        return echelon.rank

    def kernel_basis(self) -> tuple[tuple[Fraction, ...], ...]:
        """Basis of the right null space, one vector per free column."""
        reduced, pivots = self._rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for f in free:
            vec = [Fraction(0)] * self.cols
            vec[f] = Fraction(1)
            for k, p in enumerate(pivots):
                vec[p] = -reduced[k][f]
            basis.append(tuple(vec))
        return tuple(basis)

    def inverse(self) -> "RationalMatrix":
        if self.rows != self.cols:
            raise ValueError("only square matrices invert")
        n = self.rows
        aug = RationalMatrix(
            [
                list(self._entries[i]) + [Fraction(int(i == j)) for j in range(n)]
                for i in range(n)
            ]
        )
        reduced, pivots = aug._rref()
        if pivots[:n] != list(range(n)):
            raise ValueError("matrix is singular")
        return RationalMatrix([row[n:] for row in reduced[:n]])

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


def rank(m: RationalMatrix) -> int:
    """Exact rank by fraction-free (Bareiss) forward elimination."""
    return m.rank()


def kernel_basis(m: RationalMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Exact basis of the right null space; m . v = 0 for every vector."""
    return m.kernel_basis()


@dataclass(frozen=True)
class LPResult:
    """Feasibility verdict with its exact certificate.

    Feasible systems carry a point with eq . point = rhs and point >= 0;
    infeasible ones carry a Farkas vector y with y . eq >= 0 componentwise
    and y . rhs < 0.
    """

    feasible: bool
    point: tuple | None
    farkas: tuple | None

    def __bool__(self) -> bool:
        return self.feasible


def lp_feasible(eq: RationalMatrix, rhs: Sequence) -> LPResult:
    """Exact feasibility of {eq . x = rhs, x >= 0} by phase-one simplex.

    Bland's rule (least-index entering and leaving) guarantees termination.
    The system is scaled by one common denominator, which keeps the signs
    of the reduced costs and so Bland's pivots; the tableau and its reduced
    costs are integers over the common positive denominator `prev`.  Both
    kinds of certificate are re-verified in integers before returning.
    """
    m, n = eq.rows, eq.cols
    b = [Fraction(x) for x in rhs]
    if len(b) != m:
        raise ValueError(f"rhs length {len(b)} != rows {m}")
    scaled, _ = integer_rows([*eq.to_rows(), b])
    a, b = scaled[:m], scaled[m]
    flip = [-1 if bi < 0 else 1 for bi in b]
    rows = [
        [f * x for x in a[i]] + [int(i == k) for k in range(m)] + [f * b[i]]
        for i, f in enumerate(flip)
    ]
    # reduced costs of minimising the artificial sum (artificial columns
    # start at 0); the last entry is minus the objective value
    rows.append([-sum(row[j] for row in rows) for j in range(n)] + [0] * m)
    rows[m].append(-sum(row[-1] for row in rows[:m]))
    basis = [n + i for i in range(m)]
    prev = 1

    while True:
        entering = next((j for j in range(n + m) if rows[m][j] < 0), None)
        if entering is None:
            break
        leave = None
        for i in range(m):
            if rows[i][entering] > 0:
                if leave is None:
                    leave = i
                    continue
                # compare ratios rhs / entry by cross-multiplication
                lhs = rows[i][-1] * rows[leave][entering]
                best = rows[leave][-1] * rows[i][entering]
                if lhs < best or (lhs == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-one objective cannot be unbounded")
        for i in range(m + 1):
            if i != leave:
                rows[i] = _step(rows[i], rows[leave], entering, prev)
        prev = rows[leave][entering]
        basis[leave] = entering

    if rows[m][-1] == 0:
        x = [0] * n
        for i, bv in enumerate(basis):
            if bv < n:
                x[bv] = rows[i][-1]
        if any(v < 0 for v in x) or any(
            sum(aij * xj for aij, xj in zip(row, x)) != bi * prev
            for row, bi in zip(a, b)
        ):
            raise ArithmeticError("simplex produced an invalid feasible point")
        return LPResult(True, tuple(Fraction(v, prev) for v in x), None)

    farkas = [(rows[m][n + i] - prev) * f for i, f in enumerate(flip)]
    products = [sum(fi * row[j] for fi, row in zip(farkas, a)) for j in range(n)]
    against = sum(fi * bi for fi, bi in zip(farkas, b))
    if any(p < 0 for p in products) or against >= 0:
        raise ArithmeticError("simplex produced an invalid Farkas certificate")
    return LPResult(False, None, tuple(Fraction(v, prev) for v in farkas))
