from __future__ import annotations

import heapq
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ainfbar import linalg
from ainfbar.linalg import Eliminator, PrimeField, column_echelon
from reference import reference_rref


def row_dicts(dense: list[list[int]], p: int) -> list[dict]:
    return [{j: c % p for j, c in enumerate(row) if c % p} for row in dense]


def column_dicts(dense: list[list[int]], ncols: int, p: int) -> list[dict]:
    return [{i: row[j] % p for i, row in enumerate(dense) if row[j] % p}
            for j in range(ncols)]


def mat_vec(columns: list[dict], v: dict, p: int) -> dict:
    out: dict = {}
    for j, c in v.items():
        for i, a in columns[j].items():
            new = (out.get(i, 0) + a * c) % p
            if new:
                out[i] = new
            else:
                out.pop(i)
    return out


def rank(rows: list[dict], field: PrimeField) -> int:
    elim = Eliminator(field)
    for row in rows:
        elim.add_row(row)
    return elim.rank


def test_prime_field_rejects_composites():
    for bad in (0, 1, 4, 6, 9, 15, 21):
        with pytest.raises(ValueError):
            PrimeField(bad)
    for good in (2, 3, 5, 7, 11, 13, 97):
        assert PrimeField(good).p == good


def test_rref_unique_known_example():
    # row1 = 2 * row0 over F_3, so rank 2 with pivots at columns 0 and 2
    f = PrimeField(3)
    red = reference_rref(f, row_dicts([[1, 2, 0], [2, 1, 0], [0, 0, 1]], 3))
    assert red == [{0: 1, 1: 2}, {2: 1}]

    red2 = reference_rref(f, row_dicts([[1, 2, 0], [2, 2, 0], [0, 0, 1]], 3))
    assert red2 == [{0: 1}, {1: 1}, {2: 1}]


def echelon(elim, columns):
    """Pivot keys and kernels from one full run of column_echelon, keys
    ascending: the pivot keys are all keys but the free ones, and the free
    key of a kernel is its largest."""
    columns = list(columns)
    kernels = list(column_echelon(elim, columns))
    free = {max(kernel) for kernel in kernels}
    return [j for j, _ in columns if j not in free], kernels


def test_kernel_free_variable_rule():
    # rref([[1,1,1],[0,0,0]]) over F_2: free cols 1,2
    f = PrimeField(2)
    cols = column_dicts([[1, 1, 1], [0, 0, 0]], 3, 2)
    pivots, basis = echelon(Eliminator(f), enumerate(cols))
    assert pivots == [0]
    assert basis == [{1: 1, 0: 1}, {2: 1, 0: 1}]
    for v in basis:
        assert mat_vec(cols, v, 2) == {}


@st.composite
def fp_matrices(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    dense = [[draw(st.integers(0, p - 1)) for _ in range(cols)]
             for _ in range(rows)]
    return PrimeField(p), rows, cols, dense


@settings(max_examples=120, deadline=None)
@given(fp_matrices())
def test_rank_nullity(m):
    f, rows, cols, dense = m
    pivots, kernels = echelon(Eliminator(f),
                              enumerate(column_dicts(dense, cols, f.p)))
    assert len(pivots) == rank(row_dicts(dense, f.p), f)
    assert len(pivots) + len(kernels) == cols


@settings(max_examples=120, deadline=None)
@given(fp_matrices())
def test_rref_is_idempotent_and_rank_matches(m):
    f, rows, cols, dense = m
    red = reference_rref(f, row_dicts(dense, f.p))
    assert reference_rref(f, red) == red
    leads = [min(row) for row in red]
    assert leads == sorted(set(leads))
    for row in red:
        assert row[min(row)] == 1
        assert not any(c in row for c in leads if c != min(row))
    span = Eliminator(f)
    for row in red:
        span.add_row(row)
    assert all(not span.reduce(row) for row in row_dicts(dense, f.p))
    assert len(red) == rank(row_dicts(dense, f.p), f)
    assert len(red) == rank(column_dicts(dense, cols, f.p), f)


@settings(max_examples=120, deadline=None)
@given(fp_matrices())
def test_kernel_vectors_annihilate(m):
    f, rows, cols, dense = m
    columns = column_dicts(dense, cols, f.p)
    pivots, kernels = echelon(Eliminator(f), enumerate(columns))
    free = [j for j in range(cols) if j not in pivots]
    for j, v in zip(free, kernels):
        assert mat_vec(columns, v, f.p) == {}
        assert {c: v.get(c, 0) for c in free} == {c: int(c == j) for c in free}


@settings(max_examples=120, deadline=None)
@given(fp_matrices())
def test_column_echelon_fills_the_callers_eliminator(m):
    f, rows, cols, dense = m
    columns = column_dicts(dense, cols, f.p)
    elim = Eliminator(f)
    pivots, kernels = echelon(elim, enumerate(columns))
    assert elim.rank == len(pivots)
    # each column, stored at ~i, reduces to tags only: minus its coordinates
    # on the pivot columns, which the kernel of a free column gives
    free = [j for j in range(cols) if j not in pivots]
    want = {j: {j: f.p - 1} for j in pivots}
    want.update({j: {c: a for c, a in v.items() if c != j}
                 for j, v in zip(free, kernels)})
    for j, col in enumerate(columns):
        assert elim.reduce({~i: c for i, c in col.items()}) == want[j]


@settings(max_examples=120, deadline=None)
@given(fp_matrices())
def test_column_echelon_streams_its_kernels(m):
    f, rows, cols, dense = m
    columns = list(enumerate(column_dicts(dense, cols, f.p)))
    pivots, kernels = echelon(Eliminator(f), columns)
    free = [j for j in range(cols) if j not in pivots]
    for k in range(len(kernels) + 1):
        # a reader that stops after k kernels gets the first k, and only
        # the columns up to the k-th free one have been read; the pivot
        # rows stored so far are those of the pivots before it, each with
        # its own key as its largest tag
        elim = Eliminator(f)
        read = iter(columns)
        stream = column_echelon(elim, read)
        assert list(itertools.islice(stream, k)) == kernels[:k]
        last = free[k - 1] if k else -1
        assert sorted(max(row) for row in elim.pivots.values()) == [
            j for j in pivots if j < last]
        assert next(read, (cols, None))[0] == last + 1


def test_eliminator_canonical_remainder():
    f = PrimeField(3)
    e = Eliminator(f)
    assert e.add_row({0: 1, 1: 1}) == 0
    assert e.add_row({1: 1, 2: 1}) == 1
    # remainder never touches pivot columns 0, 1
    rem = e.reduce({0: 2, 2: 1})
    assert set(rem) <= {2}
    assert e.rank == 2
    assert e.add_row({0: 1, 2: 2}) is None  # row0 - row1 = (1,0,-1)


def normalized(row: dict, p: int) -> list:
    """Items of a stored pivot row divided by its lead coefficient, in
    order."""
    inv = pow(row[min(row)], -1, p)
    return [(c, a * inv % p) for c, a in row.items()]


def test_add_row_normalizes_without_touching_the_callers_row():
    e = Eliminator(PrimeField(7))
    # stored without reduction, lead 3 kept; 3^-1 = 5 mod 7
    row = {2: 3, 4: 5, 6: 7}
    assert e.add_row(row) == 2
    assert row == {2: 3, 4: 5, 6: 7}
    assert list(e.pivots[2].items()) == [(2, 3), (4, 5)]
    assert normalized(e.pivots[2], 7) == [(2, 1), (4, 4)]
    # reduced first: {3: 2, 4: 5, 5: 3} remains, lead 2 kept; 2^-1 = 4
    row = {2: 6, 3: 2, 4: 1, 5: 3}
    assert e.add_row(row) == 3
    assert row == {2: 6, 3: 2, 4: 1, 5: 3}
    assert list(e.pivots[3].items()) == [(3, 2), (4, 5), (5, 3)]
    assert normalized(e.pivots[3], 7) == [(3, 1), (4, 6), (5, 5)]


def test_insert_takes_the_row_and_add_row_copies_it():
    e = Eliminator(PrimeField(5))
    row = {1: 2, 3: 4}
    assert e._insert(row) == 1
    assert e.pivots[1] is row
    row = {0: 3, 2: 1}
    assert e.add_row(row) == 0
    assert e.pivots[0] is not row and e.pivots[0] == row
    # a reduced row is stored as a new dict: {2: 2, 3: 3} remains
    row = {1: 1, 2: 2}
    assert e._insert(row) == 2
    assert e.pivots[2] is not row
    assert list(e.pivots[2].items()) == [(2, 2), (3, 3)]


def reference_reduce(pivots: dict, v: dict, p: int) -> dict:
    """Remainder of v by the heap over every column: each column of v and
    each new fill-in column is pushed, and a column without a pivot is
    popped and skipped."""
    v = {i: c % p for i, c in v.items() if c % p}
    heap = list(v.keys())
    heapq.heapify(heap)
    while heap:
        col = heapq.heappop(heap)
        coef = v.get(col)
        if not coef:
            continue
        row = pivots.get(col)
        if row is None:
            continue
        scale = p - coef
        for c, pc in row.items():
            new = (v.get(c, 0) + scale * pc) % p
            if new:
                if c not in v and c > col:
                    heapq.heappush(heap, c)
                v[c] = new
            else:
                v.pop(c, None)
    return v


def reference_add_row(pivots: dict, v: dict, field: PrimeField):
    p = field.p
    rem = {i: c % p for i, c in v.items() if c % p}
    if rem and min(rem) in pivots:
        rem = reference_reduce(pivots, rem, p)
    if not rem:
        return None
    lead = min(rem)
    inv = pow(rem[lead], -1, p)
    pivots[lead] = {i: c * inv % p for i, c in rem.items()}
    return lead


@st.composite
def eliminator_scripts(draw):
    """Interleaved add_row / reduce calls on rows over 10 columns, with
    negative entries and entries that vanish mod p."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rows = st.dictionaries(st.integers(0, 9), st.integers(-2 * p, 2 * p),
                           max_size=6)
    ops = draw(st.lists(st.tuples(st.booleans(), rows), max_size=24))
    return PrimeField(p), ops


@settings(max_examples=200, deadline=None)
@given(eliminator_scripts())
def test_reduce_matches_the_heap_over_all_columns(script):
    f, ops = script
    elim = Eliminator(f)
    ref: dict = {}
    for add, row in ops:
        before = dict(row)
        if add:
            assert elim.add_row(row) == reference_add_row(ref, row, f)
            assert [(c, normalized(r, f.p)) for c, r in elim.pivots.items()] \
                == [(c, list(r.items())) for c, r in ref.items()]
        else:
            assert list(elim.reduce(row).items()) \
                == list(reference_reduce(ref, row, f.p).items())
        assert row == before


def test_reduce_pushes_only_pivot_columns(monkeypatch):
    f = PrimeField(5)
    e = Eliminator(f)
    # pivots at 0, 1, 3, 5; the first row also fills column 2, which has none
    for row in ({0: 1, 1: 2, 2: 1, 3: 1, 5: 4}, {1: 1, 2: 3, 4: 1},
                {3: 1, 4: 2, 6: 1}, {5: 1, 7: 1}):
        e.add_row(row)
    pushed = []
    push = heapq.heappush

    def spy(heap, item):
        pushed.append(item)
        push(heap, item)

    monkeypatch.setattr(linalg.heapq, "heappush", spy)
    rem = e.reduce({0: 1})
    assert pushed
    assert all(c in e.pivots for c in pushed), pushed
    assert rem and set(rem).isdisjoint(e.pivots)
    assert rem == reference_reduce(e.pivots, {0: 1}, 5)
