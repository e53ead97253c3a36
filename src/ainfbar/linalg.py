"""Exact sparse linear algebra over prime fields.

Vectors are dicts {index: coeff} with coefficients in 1..p-1 (zeros never
stored).  Every row reduction of the package lives here, one routine per
job:

- Eliminator, full reduction, on row dicts: rank, membership and
  canonical remainders.  Its reduction walks a heap of pivot columns
  only, so the cost of a reduction follows the pivots it clears, not the
  columns it holds.  Pivot rows are stored as built, lead coefficient
  included: a row that needs no reduction is neither copied nor scaled.
- LeadRows, the bar rank's lead-only table with deferred rows: it holds
  a word until a reduction reads the row, and reduces a row only until
  its lead is free, since a rank needs no more.  Its rows are read by no
  one, so any reduced row a caller reads comes from an Eliminator.
- column_echelon, the kernel stream: the free-variable kernel of a
  matrix, in RREF, from one tagged elimination into the caller's
  Eliminator.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Iterator, Optional


class PrimeField:
    """Arithmetic context for F_p.  Primality checked by trial division."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p < 2:
            raise ValueError(f"p must be a prime >= 2, got {p}")
        d = 2
        while d * d <= p:
            if p % d == 0:
                raise ValueError(f"p must be prime, got {p} = {d} * {p // d}")
            d += 1
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


# -- sparse vector helpers ---------------------------------------------------

def vec_clean(v: dict, p: int) -> dict:
    return {i: c % p for i, c in v.items() if c % p}

def vec_add_scaled(dst: dict, src: dict, scale: int, p: int) -> None:
    """dst += scale * src, in place, zeros dropped."""
    if scale % p == 0:
        return
    for i, c in src.items():
        new = (dst.get(i, 0) + scale * c) % p
        if new:
            dst[i] = new
        else:
            dst.pop(i, None)

def vec_scale(v: dict, scale: int, p: int) -> dict:
    scale %= p
    if scale == 0:
        return {}
    return {i: (c * scale) % p for i, c in v.items()}


class Eliminator:
    """Incremental Gaussian elimination over F_p on sparse row dicts.

    Rows are fed one at a time, and each surviving row is kept as the
    pivot of its smallest column, with its lead coefficient: scaling a
    pivot row changes neither the leads nor the rank, and the reduction
    divides by the lead as it goes.  Pivot rows are not inter-reduced,
    which is enough for rank, membership and canonical remainders:
    reducing a vector against the pivots until no pivot column remains
    occupied yields the unique representative of its coset supported off
    the pivot columns.  add_row copies the caller's row; _insert takes
    ownership of a clean row and stores that very dict when its lead is
    free.
    """

    def __init__(self, field: PrimeField):
        self.field = field
        self.pivots: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, v: dict) -> dict:
        """Canonical remainder of v modulo the current row space, as a new
        dict; v itself is left alone."""
        return self._reduce(vec_clean(v, self.field.p))

    def _reduce(self, v: dict) -> dict:
        """Reduce a clean vector in place and return it.

        Pivot columns are cleared in ascending order; pivot rows only touch
        columns at or past their lead, so fill-in always lands ahead of
        the cursor and every pivot column is visited once.  The heap holds
        pivot columns only: the entries of v that carry a pivot, and each
        fill-in column that carries one and is absent from v when it lands
        (new, or cancelled earlier).  A column without a pivot is never
        cleared, so it never needs a visit.  A cancelled column may still
        sit in the heap; its pop finds no entry and is skipped.  A pivot
        row keeps its lead coefficient, so it is scaled by
        -coef / lead, which is -coef when the lead is 1.
        """
        p = self.field.p
        pivots = self.pivots
        heap = [c for c in v if c in pivots]
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            col = pop(heap)
            coef = v.get(col)
            if coef is None:
                continue
            row = pivots[col]
            lead = row[col]
            scale = p - coef if lead == 1 else (p - coef) * pow(lead, -1, p) % p
            for c, pc in row.items():
                old = v.get(c)
                if old is None:
                    v[c] = scale * pc % p
                    if c in pivots:
                        push(heap, c)
                else:
                    new = (old + scale * pc) % p
                    if new:
                        v[c] = new
                    else:
                        del v[c]
        return v

    def add_row(self, v: dict) -> Optional[int]:
        """Insert a copy of a row; returns its pivot column, or None if
        dependent.  v itself is left alone."""
        return self._insert(vec_clean(v, self.field.p))

    def _insert(self, v: dict) -> Optional[int]:
        """Insert a clean row the caller hands over; returns its pivot
        column, or None if dependent.

        A row whose lead column is unoccupied is stored as it is, v itself:
        pivot rows are never inter-reduced, so skipping the reduction
        changes nothing downstream and saves most of the work on
        near-triangular input.  A reduced row is stored as a new dict,
        which compacts it after the deletions of the reduction.
        """
        if not v:
            return None
        lead = min(v)
        if lead in self.pivots:
            v = self._reduce(v)
            if not v:
                return None
            v = dict(v)
            lead = min(v)
        self.pivots[lead] = v
        return lead


class LeadRows(dict):
    """BarComplex.rank's pivot table, lead -> row: a value is the row, or
    the code of a source word whose lead was read off the word.  The
    first reduction that reads such a lead builds the row, build(code),
    and keeps it.  Rows are stored as built or reduced only until their
    lead is free (insert), so the table gives the leads and the rank, and
    nothing else reads its rows; the pivot rows of every other
    elimination are Eliminator's, fully reduced."""

    __slots__ = ("p", "build")

    def __init__(self, p: int, build):
        super().__init__()
        self.p = p
        self.build = build

    def insert(self, v: dict[int, int]) -> Optional[int]:
        """Store a clean row the caller hands over, reduced only until its
        lead is free; returns that lead, or None if the row reduces to 0.

        Pivot columns are cleared in ascending order from a heap of pivot
        columns only, as Eliminator._reduce does, and free tracks the
        lowest column of v without a pivot: the reduction stops at the
        first pivot column above it.  Fill-in lands past the column being
        cleared, so only a cancellation can raise free, and only then is
        it looked up again.  The row is stored as a new dict, which
        compacts it after the deletions."""
        p = self.p
        heap = [c for c in v if c in self]
        free = min((c for c in v if c not in self), default=math.inf)
        heapq.heapify(heap)
        pop, push = heapq.heappop, heapq.heappush
        while heap:
            col = pop(heap)
            if free < col:
                break
            coef = v.get(col)
            if coef is None:
                continue
            row = self[col]
            if type(row) is int:
                row = self[col] = self.build(row)
            lead = row[col]
            scale = p - coef if lead == 1 else (p - coef) * pow(lead, -1, p) % p
            for c, pc in row.items():
                old = v.get(c)
                if old is None:
                    v[c] = scale * pc % p
                    if c in self:
                        push(heap, c)
                    elif c < free:
                        free = c
                else:
                    new = (old + scale * pc) % p
                    if new:
                        v[c] = new
                    else:
                        del v[c]
                        if c == free:
                            free = min((c for c in v if c not in self),
                                       default=math.inf)
        if not v:
            return None
        self[free] = dict(v)
        return free


def column_echelon(elim: Eliminator,
                   columns: Iterable[tuple[int, dict]]) -> Iterator[dict]:
    """Kernel basis of the matrix with these columns, streamed.

    Columns come as (key, column) pairs, keys and row indices both
    nonnegative ints.  A column is a pivot when it is independent of the
    columns before it, as in the RREF.  The kernel has one vector per free
    column j, keyed by column key: a 1 at j, zeros at the other free
    columns, so it is the RREF free-variable basis.  Each kernel is yielded
    as its column is read, and it depends only on the columns before it, so
    a reader that stops early gets the same first kernels.  They come from
    one elimination over the columns, row i stored at ~i and each column
    tagged with a 1 at its key: every tag sorts above every row, so a
    column that reduces to zero on the rows leaves its kernel vector in the
    tags.  ~i = -i - 1 orders the rows as height - 1 - i would, tags above
    them as at height + j, without knowing the height.  The caller's elim
    keeps the pivot rows: reducing v, stored at ~i, leaves minus its pivot
    column coordinates in the tags.

    Storing row i at ~i makes each column pivot on its largest row index.
    The pivot set and kernels do not depend on that choice, but the
    fill-in does: on a bar block, with source and target words in lex
    order, the lex-smallest target word of d(e_j) is mostly taken by an
    earlier column and the lex-largest one mostly free.  Over the blocks
    of cyclic(3^2) at bar cap 6, 12% of the columns then need a reduction
    instead of 81%, and the pivot rows hold 6 times fewer entries.
    """
    p = elim.field.p
    for j, col in columns:
        row = {~i: c % p for i, c in col.items() if c % p}
        row[j] = 1
        reduced = min(row) in elim.pivots
        if reduced:
            row = elim._reduce(row)
        if min(row) < 0:
            elim._insert(dict(row) if reduced else row)
        else:
            yield row
