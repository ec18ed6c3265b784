"""Exact Gaussian elimination over the rationals.

Everything stays exact; nothing here is numeric in the floating-point
sense.  rank_of takes sparse rows, maps from column to Fraction or int,
and serves verify_hom and the de Rham blocks.  rref and reduce_against
work on dense rows, lists of Fraction, and are the reference
elimination: the tests use them as an oracle independent of rank_of and
of the sparse echelon basis that homs.subalgebra_closure keeps, and the
benchmark tracer hooks them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable, Mapping, Sequence

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


def rank_of(rows: Iterable[Mapping[Hashable, Fraction | int]]) -> int:
    """Rank of the span of sparse rows, each a map from column to value.

    Columns may be any hashable keys that compare with one another.
    Each row is scaled by the lcm of its denominators, so the work is on
    integers, then reduced against the pivot rows kept so far, each filed
    under its least column, until it is zero or leads with a new column.
    A reduced row is divided by the gcd of its entries before it is kept.
    """
    pivots: dict = {}
    for row in rows:
        scale = lcm(*(x.denominator for x in row.values()))
        vec = {col: x.numerator * (scale // x.denominator) for col, x in row.items() if x}
        while vec:
            lead = min(vec)
            pivot = pivots.get(lead)
            if pivot is None:
                g = gcd(*vec.values())
                pivots[lead] = {col: x // g for col, x in vec.items()}
                break
            a, b = pivot[lead], vec[lead]
            vec = {col: a * x for col, x in vec.items()}
            for col, y in pivot.items():
                x = vec.get(col, 0) - b * y
                if x:
                    vec[col] = x
                else:
                    del vec[col]
    return len(pivots)


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
