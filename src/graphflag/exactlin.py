"""Exact rational linear algebra: rank, null spaces and LP feasibility.

Inputs are ints or Fractions and results are Fractions, but elimination
is integer and fraction-free: a system is scaled once by one common
denominator (`integer_rows`, which builds no Fraction for an int entry),
and every routine is built on one Edmonds/Bareiss pivot step (`_step`),
whose divisions are exact; `kernel_basis` then back-substitutes in
Fractions.  No floating point enters at any stage.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


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


def integer_rows(rows: Iterable[Iterable]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Rows of ints or Fractions scaled by their least common denominator
    to integers: (integer rows, that denominator).  An int entry builds no
    Fraction.  Rows of unequal length are refused with ValueError, and any
    other kind of entry with TypeError."""
    grid = [tuple(row) for row in rows]
    lengths = sorted({len(row) for row in grid})
    if len(lengths) > 1:
        raise ValueError(f"rows differ in length: {lengths}")
    for row in grid:
        for x in row:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"entry {x!r} is neither an int nor a Fraction")
    den = math.lcm(*(x.denominator for row in grid for x in row))
    return tuple(
        tuple(x.numerator * (den // x.denominator) for x in row) for row in grid
    ), den


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

    def truncate(self, rank: int) -> None:
        """Drop every row kept after the first `rank`: a kept row depends
        only on the rows before it, so the rest stay as they were."""
        del self._rows[rank:], self._cols[rank:]


class RationalMatrix:
    """Immutable dense matrix of ints and Fractions, held as integer rows
    over one common denominator."""

    __slots__ = ("rows", "cols", "_ints", "_den")

    def __init__(self, entries: Iterable[Iterable]):
        self._ints, self._den = integer_rows(entries)
        self.rows = len(self._ints)
        self.cols = len(self._ints[0]) if self._ints else 0

    def to_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self._den) for x in row) for row in self._ints)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


def rank(m: RationalMatrix) -> int:
    """Exact rank by fraction-free (Bareiss) forward elimination."""
    echelon = EchelonRows()
    for row in m._ints:
        if echelon.rank == m.cols:
            break
        echelon.add(row)
    return echelon.rank


def kernel_basis(m: RationalMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Exact basis of the right null space, one vector per free column;
    m . v = 0 for every vector.  The echelon rows' lead columns are the
    reduced row echelon pivots, so the basis is the one with 1 at its own
    free column and 0 at the others; a kept row is zero in the lead columns
    of the rows before it, so back-substitution runs last row first."""
    echelon = EchelonRows()
    for row in m._ints:
        echelon.add(row)
    basis = []
    for f in (c for c in range(m.cols) if c not in echelon._cols):
        vec = [Fraction(0)] * m.cols
        vec[f] = Fraction(1)
        for row, c in zip(reversed(echelon._rows), reversed(echelon._cols)):
            vec[c] = -sum(map(operator.mul, row, vec)) / row[c]
        basis.append(tuple(vec))
    return tuple(basis)


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
    if len(rhs) != m:
        raise ValueError(f"rhs length {len(rhs)} != rows {m}")
    # rhs over eq's denominator, then both over the rest of the common one
    (b,), scale = integer_rows([[x * eq._den for x in rhs]])
    a = [[x * scale for x in row] for row in eq._ints]
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
