"""Exact Gaussian elimination over the rationals.

Small dense routines over rows that are lists of Fraction (rank_of also
takes ints); everything stays exact, nothing here is numeric in the
floating-point sense.  rank_of serves verify_hom and the de Rham blocks.
rref and reduce_against are the reference elimination: the tests use
them as an oracle independent of the sparse echelon basis that
homs.subalgebra_closure keeps, and the benchmark tracer hooks them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

__all__ = ["rref", "rank_of", "reduce_against"]


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column indices).  Rows come out
    sorted by pivot column with pivots normalized to 1 and eliminated
    from every other row, so the result is the unique canonical basis of
    the row span.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    top = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(top, len(work)):
            if work[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[top], work[pivot_row] = work[pivot_row], work[top]
        lead = work[top][col]
        if lead != 1:
            work[top] = [x / lead for x in work[top]]
        for r in range(len(work)):
            if r != top and work[r][col]:
                factor = work[r][col]
                row_top = work[top]
                work[r] = [x - factor * y for x, y in zip(work[r], row_top)]
        pivots.append(col)
        top += 1
        if top == len(work):
            break
    return work[:top], pivots


def rank_of(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank of the row span, by forward elimination only.

    Each row is scaled by the lcm of its denominators, so the work is on
    integers.  Elimination is fraction-free in Bareiss's way ("Sylvester's
    identity and multistep integer-preserving Gaussian elimination", Math.
    Comp. 22, 1968): after a pivot, every row below becomes (pivot * row -
    lead * pivot row) / previous pivot, a division that is exact, so the
    entries stay minors of the input.  Pivots are neither normalized nor
    cleared upwards.
    """
    work = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (scale // x.denominator) for x in row]
        if any(ints):
            work.append(ints)
    rank, prev = 0, 1
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        top = work[rank]
        lead = top[col]
        for r in range(rank + 1, len(work)):
            row = work[r]
            factor = row[col]
            work[r] = [(lead * x - factor * y) // prev for x, y in zip(row, top)]
        prev = lead
        rank += 1
        if rank == len(work):
            break
    return rank


def reduce_against(
    basis: Sequence[Sequence[Fraction]], pivots: Sequence[int], vec: Sequence[Fraction]
) -> list[Fraction]:
    """Residue of vec after eliminating the pivots of an rref basis.

    A zero residue means vec lies in the span.
    """
    out = list(vec)
    for row, col in zip(basis, pivots):
        factor = out[col]
        if factor:
            out = [x - factor * y for x, y in zip(out, row)]
    return out
