import collections
import functools
import itertools
import random
import re
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ainfbar import bar as bar_module
from ainfbar.bar import (
    BarComplex, BlockBasis, BudgetExceededError, Restriction, build_bar,
    restriction,
)
from ainfbar.grading import InternalDegree, internal_zero
from ainfbar.groups import AlgebraMap, build_group_algebra, power_inclusion
from ainfbar.linalg import Eliminator, LeadRows, column_echelon, vec_add_scaled
from ainfbar.transfer import transfer
from packed import pack, pack_cochain, unpack, unpack_cochain
from reference import reference_comult, reference_forward_stream, reference_rref
from test_groups import ORACLE_SPECS


@pytest.mark.parametrize("spec,cap", [
    ("cyclic(3^1)", 5),
    ("cyclic(2^2)", 5),
    ("cyclic(3^1) x cyclic(3^1)", 4),
    ("semidirect(cyclic(3^1), inversion)", 5),
])
def test_d_squared_is_zero(spec, cap):
    alg = build_group_algebra(spec)
    bar = build_bar(alg, cap)
    for n in range(cap - 1):
        for words in bar.blocks(n).values():
            for w in words:
                assert bar.d_cochain(bar.d_cochain({w: 1})) == {}


def d_word(bar, word):
    """d of a tuple word through the packed differential, as tuples."""
    return unpack_cochain(bar, bar.d_cochain({pack(bar, word): 1}))


@pytest.mark.parametrize("spec", ["cyclic(2^2)", "cyclic(3^1)"])
def test_leibniz_exact(spec):
    alg = build_group_algebra(spec)
    bar = build_bar(alg, 6)
    p = bar.field.p
    d_row = functools.partial(d_word, bar)
    deg2 = [unpack(bar, w) for words in bar.blocks(2).values() for w in words]
    deg3 = [unpack(bar, w) for words in bar.blocks(3).values() for w in words]
    for u in deg2:
        for v in deg3:
            lhs = d_row(u + v)
            rhs = {}
            for t, c in d_row(u).items():
                rhs[t + v] = c
            # |u| = 2 is even, no sign on the second term
            for t, c in d_row(v).items():
                key = u + t
                val = (rhs.get(key, 0) + c) % p
                if val:
                    rhs[key] = val
                else:
                    rhs.pop(key, None)
            assert lhs == rhs
    deg1 = [unpack(bar, w) for words in bar.blocks(1).values() for w in words]
    for u in deg1:
        for v in deg2:
            lhs = d_row(u + v)
            rhs = {}
            for t, c in d_row(u).items():
                rhs[t + v] = c
            for t, c in d_row(v).items():
                key = u + t
                val = (rhs.get(key, 0) + (p - 1) * c) % p
                if val:
                    rhs[key] = val
                else:
                    rhs.pop(key, None)
            assert lhs == rhs


def test_cyclic_p_odd_dims_and_bidegrees():
    # one exterior class in each odd degree, one polynomial class in each
    # even degree, with internal degrees 1/3 and 1
    alg = build_group_algebra("cyclic(3^1)")
    bar = build_bar(alg, 7)
    third = InternalDegree(3, 1, 1)
    one = InternalDegree(3, 1, 0)
    for n in range(7):
        dims = bar.dims(n)
        assert sum(dims.values()) == 1
        q, r = divmod(n, 2)
        want = one.scaled(q) + (third if r else internal_zero(3))
        assert dims == {want: 1}


def test_cyclic_2_dims():
    # polynomial algebra on one degree (1, 1/2) class
    alg = build_group_algebra("cyclic(2^1)")
    bar = build_bar(alg, 7)
    half = InternalDegree(2, 1, 1)
    for n in range(7):
        assert bar.dims(n) == {half.scaled(n): 1}


def test_cyclic_4_dims():
    # the polynomial class sits at internal degree 1 = 4 * (1/4): the weight
    # 1/2 candidate (X,X) is the coboundary of the dual of X^2
    alg = build_group_algebra("cyclic(2^2)")
    bar = build_bar(alg, 6)
    quarter = InternalDegree(2, 1, 2)
    one = InternalDegree(2, 1, 0)
    for n in range(6):
        dims = bar.dims(n)
        assert sum(dims.values()) == 1
        q, r = divmod(n, 2)
        want = one.scaled(q) + (quarter if r else internal_zero(2))
        assert dims == {want: 1}


def test_symmetric_group_dims():
    # mod 3, invariants of the inversion action: classes survive in degrees
    # 0 mod 4 and 3 mod 4
    alg = build_group_algebra("semidirect(cyclic(3^1), inversion)")
    bar = build_bar(alg, 7)
    totals = [sum(bar.dims(n).values()) for n in range(7)]
    assert totals == [1, 0, 0, 1, 1, 0, 0]


def test_rank_two_kunneth_dims():
    alg = build_group_algebra("cyclic(3^1) x cyclic(3^1)")
    bar = build_bar(alg, 4)
    totals = [sum(bar.dims(n).values()) for n in range(4)]
    assert totals == [1, 2, 3, 4]


def dims_by_degree(coh):
    """Number of classes in each degree below the bar cap."""
    out = {n: 0 for n in range(coh.bar.cap)}
    for _, n, _ in coh.space.basis:
        out[n] += 1
    return out


def word_degree(bar, word):
    return bar._degree(sum(bar.letter_wt[u] for u in word))


def test_unit_class_and_labels():
    alg = build_group_algebra("cyclic(3^1)")
    bar = build_bar(alg, 4)
    coh = bar.cohomology()
    assert coh.space.degrees("h0:0#0") == (0, internal_zero(3))
    assert unpack_cochain(bar, coh.representative("h0:0#0")) == {(): 1}
    assert dims_by_degree(coh) == {0: 1, 1: 1, 2: 1, 3: 1}


def test_representatives_are_cocycles_and_independent():
    alg = build_group_algebra("semidirect(cyclic(3^1), inversion)")
    bar = build_bar(alg, 5)
    coh = bar.cohomology()
    for label in coh.space.labels():
        rep = coh.representative(label)
        assert rep
        assert bar.d_cochain(rep) == {}
        assert coh.reduce_cocycle(rep) == {label: 1}


def test_cup_product_ring_cyclic_3():
    alg = build_group_algebra("cyclic(3^1)")
    bar = build_bar(alg, 7)
    coh = bar.cohomology()
    t = "h1:1/3#0"
    x = "h2:1#0"
    assert coh.cup(t, t) == {}
    xx = coh.cup(x, x)
    assert list(xx) == ["h4:2#0"]
    xxx = coh.cup(x, "h4:2#0")
    assert list(xxx) == ["h6:3#0"]
    tx = coh.cup(t, x)
    assert list(tx) == ["h3:4/3#0"]


def test_cup_commutes_mod_p():
    alg = build_group_algebra("cyclic(5^1)")
    bar = build_bar(alg, 6)
    coh = bar.cohomology()
    t = "h1:1/5#0"
    x = "h2:1#0"
    tx = coh.cup(t, x)
    xt = coh.cup(x, t)
    assert tx == xt  # even * odd, no sign
    assert coh.cup(t, t) == {}


def test_reduce_cocycle_classes():
    alg = build_group_algebra("cyclic(3^2)")
    bar = build_bar(alg, 5)
    coh = bar.cohomology()
    x = unpack_cochain(bar, coh.representative("h2:1#0"))
    p = 3
    prod = {}
    for w1, c1 in x.items():
        for w2, c2 in x.items():
            w = w1 + w2
            prod[w] = (prod.get(w, 0) + c1 * c2) % p
    prod = {w: c for w, c in prod.items() if c}
    assert list(coh.reduce_cocycle(pack_cochain(bar, prod))) == ["h4:2#0"]
    # a genuine coboundary reduces to zero
    word = bar.blocks(1)[InternalDegree(3, 2, 2)][0]
    db = bar.d_cochain({word: 1})
    assert db
    assert coh.reduce_cocycle(db) == {}
    with pytest.raises(ValueError):
        coh.reduce_cocycle({pack(bar, unpack(bar, word) * 2): 1})


@st.composite
def small_bars(draw):
    """Bar complexes of cyclic groups of depth <= 2, with and without the
    inversion, capped at 5 and at about 3000 words of top length."""
    p = draw(st.sampled_from([2, 3, 5]))
    depth = draw(st.integers(1, 2))
    spec = f"cyclic({p}^{depth})"
    letters = p ** depth - 1
    if p > 2 and draw(st.booleans()):
        spec = f"semidirect({spec}, inversion)"
        letters = 2 * p ** depth - 1
    top = max(c for c in range(2, 6) if letters ** c <= 3000 or c == 2)
    return build_bar(build_group_algebra(spec), draw(st.integers(2, top)))


def built_bases(bar, order):
    """Every block basis, built through the bar's cohomology in the given
    order of lengths, and the forward kernel streams run while building
    them, in call order, as (block of the basis, words read, kernels
    yielded).  A basis's tagged elimination, the one it keeps in elim,
    is not a forward stream."""
    coh = bar.cohomology()
    building, calls = [], []
    init = BlockBasis.__init__

    def build(basis, bar, n, s, b_words):
        building.append((n, s))
        init(basis, bar, n, s, b_words)
        building.pop()

    def tap(columns, read):
        for j, col in columns:
            read.append(j)
            yield j, col

    def stream(elim, columns):
        read, kernels = [], []
        calls.append((building[-1], elim, read, kernels))
        for kernel in column_echelon(elim, tap(columns, read)):
            kernels.append(kernel)
            yield kernel

    with mock.patch.object(BlockBasis, "__init__", build), \
            mock.patch.object(bar_module, "column_echelon", stream):
        for n in order:
            for s in bar.blocks(n):
                coh.block_basis(n, s)
    bases = dict(coh._bases)
    return bases, [(key, read, kernels) for key, elim, read, kernels in calls
                   if elim is not bases[key].elim]


def word_index(bar, n, s):
    """Position of each word in block (n, s)."""
    return {w: i for i, w in enumerate(bar.blocks(n).get(s, []))}


def in_positions(bar, n, s, cochain):
    index = word_index(bar, n, s)
    return {index[w]: c for w, c in cochain.items()}


@settings(max_examples=25, deadline=None)
@given(small_bars())
def test_block_elimination_properties(bar):
    bases, streams = built_bases(bar, range(bar.cap))
    streamed = {key: kernels for key, _, kernels in streams}
    for n in range(bar.cap):
        for s, words in bar.blocks(n).items():
            pivot_words, kernels = reference_forward_stream(bar, n, s)
            assert bases[(n, s)].pivot_words == pivot_words
            got = streamed.get((n, s), [])
            assert got == kernels[:len(got)]
            assert len(got) >= bar.dims(n).get(s, 0)
            assert len(pivot_words) == bar.rank(n, s)
            pivots = set(pivot_words)
            assert pivot_words == [w for w in words if w in pivots]
            images = [bar.d_cochain({w: 1}) for w in words]
            span = Eliminator(bar.field)
            for w, image in zip(words, images):
                if w in pivots:
                    assert span.add_row(image) is not None
                else:
                    assert span.reduce(image) == {}
            free = [w for w in words if w not in pivots]
            assert len(kernels) == len(free)
            for j, kernel in zip(free, kernels):
                assert bar.d_cochain(kernel) == {}
                assert {i: kernel.get(i, 0) for i in free} == {i: int(i == j) for i in free}


@settings(max_examples=25, deadline=None)
@given(small_bars())
def test_struct_matches_the_position_indexed_reference(bar):
    # rows at the positions of the whole target block; the target blocks
    # of the top length come from a bar one cap higher
    above = build_bar(bar.algebra, bar.cap + 1)
    bases, streams = built_bases(bar, reversed(range(bar.cap)))
    streamed = {key: kernels for key, _, kernels in streams}
    for n in range(bar.cap):
        for s in bar.blocks(n):
            pivot_words, kernels = reference_forward_stream(
                bar, n, s, above.blocks(n + 1).get(s, []))
            assert bases[(n, s)].pivot_words == pivot_words
            got = streamed.get((n, s), [])
            assert [list(k.items()) for k in got] == [
                list(k.items()) for k in kernels[:len(got)]]


def random_cochain(rng, bar, words):
    p = bar.field.p
    return {w: rng.randrange(1, p) for w in rng.sample(words, min(3, len(words)))}


@settings(max_examples=25, deadline=None)
@given(small_bars(), st.integers(0, 2 ** 32))
def test_concat_and_cochain_block_agree_with_tuple_words(bar, seed):
    # words up to the drawn cap, from a bar one cap higher
    bar = build_bar(bar.algebra, bar.cap + 1)
    rng = random.Random(seed)
    p = bar.field.p
    assert min(bar.letters) >= 1
    keys = [(n, s) for n in range(bar.cap) for s in bar.blocks(n)]
    assert bar.blocks(0) == {internal_zero(p): [0]}
    for n, s in keys:
        words = bar.blocks(n)[s]
        assert [bar.decode(w) for w in words] == [list(unpack(bar, w)) for w in words]
        assert bar.cochain_block(random_cochain(rng, bar, words)) == (n, s)
    pairs = [((0, internal_zero(p)), rng.choice(keys)),
             (rng.choice(keys), (0, internal_zero(p)))]
    pairs += [(rng.choice(keys), rng.choice(keys)) for _ in range(10)]
    for (n1, s1), (n2, s2) in pairs:
        a = random_cochain(rng, bar, bar.blocks(n1)[s1])
        b = random_cochain(rng, bar, bar.blocks(n2)[s2])
        want = {}
        for w1, c1 in unpack_cochain(bar, a).items():
            for w2, c2 in unpack_cochain(bar, b).items():
                vec_add_scaled(want, {w1 + w2: c1 * c2}, 1, p)
        got = bar.concat(a, b)
        assert unpack_cochain(bar, got) == want
        assert bar.cochain_block(got) == (n1 + n2, s1 + s2)
        if n1 != n2:
            with pytest.raises(ValueError, match="mixes word lengths"):
                bar.cochain_block({**a, **b})
        elif s1 != s2:
            with pytest.raises(ValueError, match="mixes internal degrees"):
                bar.cochain_block({**a, **b})


@settings(max_examples=25, deadline=None)
@given(small_bars())
def test_block_basis_coordinates_rebuild_the_vector(bar):
    p = bar.field.p
    coh = bar.cohomology()
    for n in range(bar.cap):
        for s, words in bar.blocks(n).items():
            basis = coh.block_basis(n, s)
            assert basis.b_words == (
                reference_forward_stream(bar, n - 1, s)[0] if n > 0 else [])
            b_vecs = [bar.d_cochain({w: 1}) for w in basis.b_words]
            pivot_cols = set(reference_forward_stream(bar, n, s)[0])
            for w in words:
                b, r, u = basis.coords({w: 1})
                assert set(u) <= pivot_cols
                rebuilt = dict(u)
                for coords, vecs in ((b, b_vecs), (r, basis.reps)):
                    for k, c in coords.items():
                        vec_add_scaled(rebuilt, vecs[k], c, p)
                assert rebuilt == {w: 1}


class ReferenceBlockBasis:
    """The block basis as one tagged elimination over B, then R, then U,
    keyed by word position, the U rows being the unit vectors at the
    block's own pivot columns; reps are keyed by position and u is indexed
    by pivot order."""

    def __init__(self, bar, n, s):
        self.index = word_index(bar, n, s)
        self.dim = len(self.index)
        self.elim = Eliminator(bar.field)
        self.b_words = []
        if n > 0:
            self.b_words = reference_forward_stream(bar, n - 1, s)[0]
            for w in self.b_words:
                self._add(in_positions(bar, n, s, bar.d_cochain({w: 1})))
        self.reps = []
        pivot_words, kernels = reference_forward_stream(bar, n, s)
        for kernel in kernels:
            kernel = in_positions(bar, n, s, kernel)
            rep = {i: c for i, c in self.elim.reduce(kernel).items()
                   if i < self.dim}
            if rep:
                self.reps.append(rep)
                self._add(rep)
        for w in pivot_words:
            self._add({self.index[w]: 1})
        assert self.elim.rank == self.dim

    def _add(self, vec):
        row = dict(vec)
        row[self.dim + self.elim.rank] = 1
        lead = self.elim.add_row(row)
        assert lead is not None and lead < self.dim

    def coords(self, cochain):
        p = self.elim.field.p
        nb, nr = len(self.b_words), len(self.reps)
        b, r, u = {}, {}, {}
        vec = {self.index[w]: c for w, c in cochain.items()}
        for i, c in self.elim.reduce(vec).items():
            k = i - self.dim
            if k < nb:
                b[k] = p - c
            elif k < nb + nr:
                r[k - nb] = p - c
            else:
                u[k - nb - nr] = p - c
        return b, r, u


@settings(max_examples=25, deadline=None)
@given(small_bars(), st.integers(0, 2 ** 32))
def test_block_basis_matches_the_reference_with_u_rows(bar, seed):
    rng = random.Random(seed)
    p = bar.field.p
    coh = bar.cohomology()
    for n in range(bar.cap):
        for s, words in bar.blocks(n).items():
            basis = coh.block_basis(n, s)
            ref = ReferenceBlockBasis(bar, n, s)
            assert basis.b_words == ref.b_words
            assert basis.reps == [{words[i]: c for i, c in rep.items()}
                                  for rep in ref.reps]
            pivot_cols = reference_forward_stream(bar, n, s)[0]
            cochains = [{w: 1} for w in words]
            for _ in range(5):
                k = rng.randint(1, len(words))
                cochains.append({w: rng.randrange(1, p)
                                 for w in rng.sample(words, k)})
            for cochain in cochains:
                b, r, u = basis.coords(cochain)
                rb, rr, ru = ref.coords(cochain)
                assert (b, r) == (rb, rr)
                assert u == {pivot_cols[k]: c for k, c in ru.items()}


@settings(max_examples=25, deadline=None)
@given(small_bars())
def test_block_bases_agree_in_either_order(bar):
    fresh = build_bar(bar.algebra, bar.cap)
    up, up_streams = built_bases(bar, range(bar.cap))
    down, down_streams = built_bases(fresh, reversed(range(bar.cap)))
    # a basis streams its own block's kernels only when it holds classes,
    # and reads its B words off the basis below, so each block with
    # classes is streamed exactly once, for its own basis, and no other
    # block is streamed at all
    with_classes = {(n, s) for n in range(bar.cap) for s in bar.dims(n)}
    for streams in (up_streams, down_streams):
        assert collections.Counter(key for key, _, _ in streams) == \
            collections.Counter(with_classes)
        for (n, s), read, _ in streams:
            assert read == bar.blocks(n)[s][:len(read)]
    for (n, s), basis in up.items():
        other = down[(n, s)]
        assert other.b_words == basis.b_words
        assert other.reps == basis.reps
        assert other.pivot_words == basis.pivot_words
        for w in bar.blocks(n)[s]:
            assert other.coords({w: 1}) == basis.coords({w: 1})
    for b, bases in ((bar, up), (fresh, down)):
        for n in range(bar.cap):
            for s in bar.blocks(n):
                pivot_words = reference_forward_stream(b, n, s)[0]
                assert bases[(n, s)].pivot_words == pivot_words
                if n + 1 < bar.cap and s in bar.blocks(n + 1):
                    assert bases[(n + 1, s)].b_words == pivot_words


def test_block_basis_raises_when_the_kernels_run_out(monkeypatch):
    # with rank(n, s) one short, the block seems to hold one class more
    # than its kernels give, and the spanning check must catch it
    bar = build_bar(build_group_algebra("cyclic(3^2)"), 5)
    n, s = next((n, s) for n in range(1, bar.cap) for s in bar.dims(n)
                if bar.rank(n, s))
    b_words = bar.cohomology().block_basis(n, s).b_words
    rank = bar.rank
    monkeypatch.setattr(bar, "rank",
                        lambda m, t: rank(m, t) - ((m, t) == (n, s)))
    with pytest.raises(AssertionError, match="basis does not span"):
        BlockBasis(bar, n, s, b_words)


def test_block_basis_checks_its_pivot_words_against_the_rank(monkeypatch):
    # rank(n - 1, s) one too high: the block below seems to have one more
    # boundary than the pivot words it gives
    bar = build_bar(build_group_algebra("cyclic(3^2)"), 5)
    n, s = next((n, s) for n in range(1, bar.cap) for s in bar.dims(n)
                if bar.rank(n - 1, s))
    b_words = bar.cohomology().block_basis(n, s).b_words
    rank = bar.rank
    monkeypatch.setattr(bar, "rank",
                        lambda m, t: rank(m, t) + ((m, t) == (n - 1, s)))
    with pytest.raises(AssertionError, match=re.escape(f"block ({n}, {s})")):
        BlockBasis(bar, n, s, b_words)


def test_a_rank_too_high_makes_the_basis_above_singular(monkeypatch):
    # rank(n, s) one too high on a block with classes: its basis still
    # spans, one class short, so its pivot words hold a free word, whose
    # image as a B word of the block above depends on the others
    bar = build_bar(build_group_algebra("cyclic(3^2)"), 5)
    coh = bar.cohomology()
    n, s = next((n, s) for n in range(bar.cap - 1) for s in bar.dims(n)
                if s in bar.blocks(n + 1))
    rank = bar.rank
    monkeypatch.setattr(bar, "rank",
                        lambda m, t: rank(m, t) + ((m, t) == (n, s)))
    assert len(coh.block_basis(n, s).pivot_words) == rank(n, s) + 1
    with pytest.raises(AssertionError, match="block basis is singular"):
        coh.block_basis(n + 1, s)


def test_block_bases_build_few_rows(monkeypatch):
    # the Z/9 op table to arity 3, degree 5 builds 5,602 rows, 4,176 of
    # them in the ranks: 11,033 when every basis eliminates its own block
    # in full, 6,385 when the B words come from a full forward stream of
    # the block below.  A basis of a block without classes must not
    # eliminate that block, a block with classes streams its kernels once
    # and stops at its last representative, and no other block is streamed
    bar = build_bar(build_group_algebra("cyclic(3^2)"), 6)
    rows, streams, building, built = [], [], [], set()
    d_packed, init = bar._d_packed, BlockBasis.__init__

    def build(basis, bar, n, s, b_words):
        building.append((n, s))
        built.add((n, s))
        init(basis, bar, n, s, b_words)
        building.pop()

    monkeypatch.setattr(bar, "_d_packed",
                        lambda *args: rows.append(1) or d_packed(*args))
    monkeypatch.setattr(bar_module, "column_echelon", lambda elim, columns: (
        streams.append((building[-1], elim)) or column_echelon(elim, columns)))
    monkeypatch.setattr(BlockBasis, "__init__", build)
    transfer(bar, 3, 5)
    assert len(rows) <= 6_200
    with_classes = {(n, s) for n in range(bar.cap) for s in bar.dims(n)}
    assert built - with_classes
    bases = bar.cohomology()._bases
    assert collections.Counter(key for key, elim in streams
                               if elim is not bases[key].elim) == \
        collections.Counter(built & with_classes)


@functools.lru_cache(maxsize=None)
def cached_algebra(spec):
    return build_group_algebra(spec)


@st.composite
def enumeration_bars(draw):
    """Fresh bar complexes over cyclic groups of depth <= 2 and their
    products, mixed depths included, with and without the inversion or a
    Z3 action; the cap keeps the top length near 3000 words."""
    p = draw(st.sampled_from([2, 3, 5]))
    depths = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    assume(p ** sum(depths) <= 27)
    spec = " x ".join(f"cyclic({p}^{d})" for d in depths)
    action = draw(st.sampled_from(["", "inversion", "Z3"]))
    if action == "inversion" and p > 2 and len(set(depths)) == 1:
        spec = f"semidirect({spec}, inversion)"
    elif action == "Z3" and p != 3 and depths in ([1, 1], [2, 2]):
        m = p ** depths[0] - 1
        spec = f"semidirect({spec}, Z3:[[0,{m}],[1,{m}]])"
    alg = cached_algebra(spec)
    letters = alg.dim - 1
    top = max(c for c in range(2, 6) if letters ** c <= 3000 or c == 2)
    return build_bar(alg, draw(st.integers(2, top)))


def reference_blocks(bar, n):
    """Words of length n grouped by a sum of InternalDegree objects."""
    out = {}
    for word in itertools.product(bar.letters, repeat=n):
        s = internal_zero(bar.field.p)
        for u in word:
            s = s + bar.algebra.degree(u)
        out.setdefault(s, []).append(word)
    return out


@settings(max_examples=30, deadline=None)
@given(enumeration_bars())
def test_word_enumeration_matches_internal_degree_reference(bar):
    # no word of length cap is built; the drawn cap's length comes from a
    # bar one cap higher
    with pytest.raises(ValueError, match="beyond the words built"):
        bar.blocks(bar.cap)
    bar = build_bar(bar.algebra, bar.cap + 1)
    for n in range(bar.cap):
        refs = reference_blocks(bar, n)
        got = [(s, [unpack(bar, w) for w in words])
               for s, words in bar.blocks(n).items()]
        assert got == list(refs.items()), n
        for s, words in refs.items():
            assert all(word_degree(bar, w) == s for w in words)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORACLE_SPECS), st.integers(0, 5))
# Weyl letters, mixed depths, and the 17-letter algebra
@example("semidirect(cyclic(5^1), inversion)", 4)
@example("cyclic(2^1) x cyclic(2^2)", 4)
@example("semidirect(torus(3,1,2), inversion)", 2)
def test_census_counts_the_blocks_the_view_builds(spec, n):
    # the census gives every block's size, in the key order of the words
    # built whole, first word in lex order; the view's keys are the
    # census's, and each block is the reference's, lex order inside
    alg = cached_algebra(spec)
    letters = alg.dim - 1
    n = min(n, max(m for m in range(1, 6) if letters ** m <= 5000))
    bar = build_bar(alg, n + 1)
    census = bar.census(n)
    assert sum(census.values()) == letters ** n
    refs = reference_blocks(bar, n)
    view = bar.blocks(n)
    assert list(view) == [bar._degree(wt) for wt in census] == list(refs)
    for s, words in refs.items():
        assert census[bar._weight(s)] == len(view[s]) == len(words)
        assert [unpack(bar, w) for w in view[s]] == words
    # the blocks of length n are the top length, read but never held
    assert all(m < n for m in bar._held)


@pytest.mark.parametrize("spec,n,blocks,largest", [
    ("semidirect(torus(3,1,2), inversion)", 6, 25, 3_569_664),
    ("cyclic(3^2)", 7, 50, 134_512),
])
def test_census_sizes_blocks_past_the_cap(spec, n, blocks, largest):
    # 17^6 and 8^7 words, counted without one being built
    bar = build_bar(cached_algebra(spec), 2)
    census = bar.census(n)
    assert (len(census), max(census.values())) == (blocks, largest)
    assert sum(census.values()) == len(bar.letters) ** n
    assert bar._held == {}


def test_blocks_builds_no_word_until_a_block_is_read(monkeypatch):
    bar = build_bar(cached_algebra("cyclic(3^2)"), 4)
    runs = []
    real = bar._runs
    monkeypatch.setattr(bar, "_runs",
                        lambda n, wt: runs.append((n, wt)) or real(n, wt))
    view = bar.blocks(3)
    keys = list(view)
    assert len(view) == len(bar.census(3)) == len(keys)
    assert all(s in view for s in keys)
    assert InternalDegree(3, -1) not in view
    assert view.get(InternalDegree(3, 100)) is None
    assert runs == [] and bar._held == {}
    s = keys[-1]
    words = view[s]
    assert len(words) == bar.census(3)[bar._weight(s)]
    assert runs and max(bar._held) == 2
    # the top length is built again on each read, never held
    again = view[s]
    assert again == words and again is not words


def test_cohomology_holds_no_word_list_of_the_top_length():
    # rank walks the blocks of length cap - 1 a run at a time: after every
    # rank, no list the bar can reach holds a word of that length, and
    # only the blocks below it are held
    bar = build_bar(cached_algebra("semidirect(torus(3,1,2), inversion)"), 5)
    bar.cohomology()
    assert max(bar._held) == bar.cap - 2
    below_top = 1 << bar.bits * (bar.cap - 2)
    seen, lists = set(), []
    stack = [v for k, v in vars(bar).items() if k not in ("algebra", "field")]
    stack.append(vars(bar.cohomology()))
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set)):
            stack.extend(obj)
            if isinstance(obj, list):
                lists.append(obj)
    held = [words for blocks in bar._held.values() for words in blocks.values()]
    assert sum(map(len, held)) == 1 + 17 + 17 ** 2 + 17 ** 3
    assert {id(words) for words in held} <= set(map(id, lists))
    assert not any(type(x) is int and x >= below_top
                   for words in lists for x in words)


def reference_d_row(bar, comult, word):
    """d of a word by the tuple expansion: letter i (from 0) is split into
    every [a|b] of the comultiplication, with sign (-1)^(i+1)."""
    p = bar.field.p
    out = {}
    for i, u in enumerate(word):
        sign = p - 1 if (i + 1) % 2 else 1
        for a, b, c in comult[u]:
            target = word[:i] + (a, b) + word[i + 1:]
            val = (out.get(target, 0) + sign * c) % p
            if val:
                out[target] = val
            else:
                out.pop(target, None)
    return out


@settings(max_examples=30, deadline=None)
@given(enumeration_bars())
# these two pin blocks of length 2 and 3 that hold Weyl letters, which
# random draws may miss
@example(build_bar(cached_algebra("semidirect(cyclic(3^1), inversion)"), 4))
@example(build_bar(cached_algebra(
    "semidirect(cyclic(2^1) x cyclic(2^1), Z3:[[0,1],[1,1]])"), 3))
def test_packed_differential_matches_tuple_expansion(bar):
    comult = reference_comult(bar)
    # words of length cap come from a bar one cap higher
    above = build_bar(bar.algebra, bar.cap + 1)
    for n in range(min(bar.cap, 3) + 1):
        for s, codes in above.blocks(n).items():
            assert codes == sorted(set(codes))
            words = [unpack(bar, c) for c in codes]
            assert [pack(bar, w) for w in words] == codes
            assert all(len(w) == n for w in words)
            rows = [reference_d_row(bar, comult, w) for w in words]
            for c, w, row in zip(codes, words, rows):
                got = unpack_cochain(bar, bar.d_cochain({c: 1}))
                assert list(got.items()) == list(row.items()), w
            if n < bar.cap:
                rank = bar.rank(n, s)
                assert rank == len(reference_forward_stream(bar, n, s)[0])
                assert rank == len(reference_rref(bar.field, rows))


def test_weyl_major_rank_needs_few_reductions(monkeypatch):
    # with the letters a-major, X^a and X^a w neighbours, d[X^a|rest] and
    # d[X^a w|rest] share their lead target [w - 1|X^a|rest], and 2,608
    # rows need a reduction here (44,368 of 88,808 over the blocks at bar
    # cap 5); the Weyl-major basis feeding every word needs 443 (7,506 at
    # cap 5), and skipping the boundary leads of the block below 156
    # (2,582 at cap 5).  A row needs a reduction when its lowest column
    # already has a pivot in rank's table
    bar = build_bar(build_group_algebra("semidirect(torus(3,1,2), inversion)"), 4)
    calls = []
    insert = LeadRows.insert

    def counting_insert(self, v):
        if min(v) in self:
            calls.append(1)
        return insert(self, v)

    monkeypatch.setattr(LeadRows, "insert", counting_insert)
    ranks = sum(bar.rank(n, s) for n in range(4) for s in bar.blocks(n))
    assert ranks == 4926
    assert 0 < len(calls) <= 300


def eliminating(bar):
    """The bar with rank served by its elimination whatever the algebra;
    the elimination reaches down only into itself."""
    bar.rank = bar._eliminated_rank
    return bar


@pytest.mark.parametrize("spec,cap", [
    ("cyclic(3^2)", 6),
    ("semidirect(torus(3,1,2), inversion)", 4),
])
def test_rank_feeds_only_a_complement_of_the_boundaries(monkeypatch, spec, cap):
    # a fed row that gives no pivot is a cocycle off the boundaries' leads,
    # so one per class is left: a row that reduces to zero in rank's
    # table, or a word whose d is read off it as zero and never built.
    # Feeding every word leaves 4,164 on cyclic(3^2) and 294 on the
    # semidirect bar.  dims reads the elimination, which cyclic(3^2), with
    # no action, would otherwise replace by a count
    bar = eliminating(build_bar(build_group_algebra(spec), cap))
    zeros, known = [], []
    insert = LeadRows.insert

    def counting_insert(self, v):
        lead = insert(self, v)
        if lead is None:
            zeros.append(1)
        return lead

    def counting_lead(code, n):
        lead = word_lead(code, n)
        if lead == 0:
            known.append(code)
        return lead

    monkeypatch.setattr(LeadRows, "insert", counting_insert)
    word_lead = bar._word_lead
    monkeypatch.setattr(bar, "_word_lead", counting_lead)
    coh = bar.cohomology()
    assert len(zeros) + len(known) == len(coh.space.labels()) == 6
    assert zeros and known
    # the empty word, class h0, is read as zero at length 0
    assert 0 in known
    assert all(bar.d_cochain({code: 1}) == {} for code in known)


@pytest.mark.parametrize("spec,cap", [
    ("cyclic(3^2)", 6),
    ("semidirect(torus(3,1,2), inversion)", 5),
])
def test_rank_keeps_no_lead_set_and_no_extra_rank(spec, cap):
    # rank(n, s) reaches down only into nonempty blocks, so it caches just
    # the ranks dims asks for, and each lead set is popped by its reader;
    # dims reads the elimination on either spec
    bar = eliminating(build_bar(build_group_algebra(spec), cap))
    bar.cohomology()
    assert bar._leads == {}
    asked = set()
    for n in range(cap):
        degrees = set(bar.blocks(n))
        if n > 0:
            degrees |= set(bar.blocks(n - 1))
        asked |= {(m, s) for s in degrees for m in (n, n - 1) if m >= 0}
    assert set(bar._ranks) == asked


@pytest.mark.parametrize("spec,cap", [
    ("cyclic(3^2)", 5),
    ("semidirect(cyclic(3^1), inversion)", 5),
])
def test_block_ranks_do_not_depend_on_call_order(spec, cap):
    alg = build_group_algebra(spec)
    down = build_bar(alg, cap)
    up = build_bar(alg, cap)
    for s in down.blocks(cap - 1):
        down.rank(cap - 1, s)
    for n in range(cap):
        for s in up.blocks(n):
            rank = up.rank(n, s)
            pivot_words = reference_forward_stream(up, n, s)[0]
            assert down.rank(n, s) == rank == len(pivot_words)
    assert down._leads == up._leads == {}


@functools.lru_cache(maxsize=None)
def cached_bar(spec):
    return build_bar(cached_algebra(spec), 2)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["cyclic(3^2)", "semidirect(torus(3,1,2), inversion)",
                        "semidirect(cyclic(3^1), inversion)"]),
       st.integers(1, 5), st.integers(0, 2 ** 32))
def test_word_lead_is_the_smallest_target(spec, n, seed):
    # every first letter is tried on one random tail: a lead read off the
    # word is the row's smallest target, and a zero read off it is an
    # empty row, as for the empty word
    bar = cached_bar(spec)
    assert bar._word_lead(0, 0) == 0
    rng = random.Random(seed)
    tail = [rng.choice(bar.letters) for _ in range(n - 1)]
    read = []
    for u in bar.letters:
        code = pack(bar, [u] + tail)
        lead = bar._word_lead(code, n)
        if lead is not None:
            row = bar._d_packed(code, n)
            assert lead == (min(row) if row else 0)
            read.append(u)
    assert read


@pytest.mark.parametrize("spec,first,n,read,zero,tie", [
    ("cyclic(3^2)", [1], 4, 511, 1, 0),
    ("semidirect(torus(3,1,2), inversion)", [1, 3, 9], 3, 858, 0, 9),
    ("semidirect(cyclic(3^1), inversion)", [1, 3], 5, 1234, 0, 16),
])
def test_word_lead_reads_letters_their_head_does_not_settle(spec, first, n, read,
                                                            zero, tie):
    # letter 1 of cyclic(3^2) has no pairs, and the other first letters
    # have heads [u|w - 1]: over every word of length n starting with one
    # of them, the lead folds in the lead of d of the rest, and only a tie
    # between [w - 1|rest] and that lead is left to the row
    bar = cached_bar(spec)
    assert [u for u in bar.letters if bar._heads[u] <= 0] == first
    got = collections.Counter()
    for tail in itertools.product(bar.letters, repeat=n - 1):
        for u in first:
            code = pack(bar, [u, *tail])
            lead = bar._word_lead(code, n)
            row = bar._d_packed(code, n)
            if lead is None:
                got["tie"] += 1
                assert row
            elif lead == 0:
                got["zero"] += 1
                assert row == {}
            else:
                got["read"] += 1
                assert lead == min(row)
    assert got == collections.Counter(read=read, zero=zero, tie=tie)


@pytest.mark.parametrize("spec,count", [
    ("semidirect(cyclic(3^1), inversion)", 3),
    ("semidirect(torus(3,1,2), inversion)", 14),
    ("semidirect(cyclic(3^2), inversion)", 15),
    ("semidirect(torus(2,1,2), Z3:[[0,1],[1,1]])", 8),
])
def test_weyl_major_lead_pairs_are_distinct(spec, count):
    # in the Weyl-major basis no two letters read the same lead pair, so
    # words that differ only in their first letter read distinct leads
    heads = [ab for ab in cached_bar(spec)._heads if ab > 0]
    assert len(heads) == len(set(heads)) == count


@pytest.mark.parametrize("spec,cap,bound", [
    ("semidirect(torus(3,1,2), inversion)", 4, 400),
    ("semidirect(torus(3,1,2), inversion)", 5, 6_000),
    ("cyclic(3^2)", 5, 530),
])
def test_rank_builds_few_rows(monkeypatch, spec, cap, bound):
    # a row is built when its lead is not read off the word (a tie) or is
    # taken, or when a reduction reads its pivot: building every fed row
    # costs 4,932 calls on the semidirect bar and 4,163 on cyclic(3^2),
    # reading the leads of the first letters with a head below them
    # 1,580 and 530, and reducing only until the lead is free and reading
    # every settled lead 361 and 528.  At cap 5 the semidirect bar builds
    # 26,784, 13,230 and 5,393 rows
    bar = build_bar(build_group_algebra(spec), cap)
    calls = []
    d_packed = bar._d_packed
    monkeypatch.setattr(bar, "_d_packed",
                        lambda *args: calls.append(1) or d_packed(*args))
    bar.cohomology()
    assert len(calls) <= bound


def relabel_a_major(bar):
    """Renumber the letters of a fresh bar of a semidirect algebra so that
    X^a w is lin(a) |W| + w, the exponent vector outside the Weyl element:
    the comultiplication table and the letter weights are permuted, and
    the lead pairs recomputed.  A relabelling keeps every letter weight,
    so it is an isomorphism of the complex and keeps every rank."""
    alg = bar.algebra
    nt, nw, bits = alg.torus_dim, alg.weyl.size, bar.bits
    label = [(u % nt) * nw + u // nt for u in range(alg.dim)]
    mask = (1 << bits) - 1
    bar._comult = tuple(
        {label[u]: [((label[ab >> bits] << bits) | label[ab & mask], c)
                    for ab, c in pairs] for u, pairs in table.items()}
        for table in bar._comult)
    weights = [0] * alg.dim
    for u, wt in enumerate(bar.letter_wt):
        weights[label[u]] = wt
    bar.letter_wt = weights
    bar._heads = bar._lead_pairs()


def table_items(table):
    return [(lead, list(row.items())) for lead, row in table.items()]


@pytest.mark.parametrize("spec,a_major", [
    ("semidirect(cyclic(3^1), inversion)", False),
    ("semidirect(cyclic(3^1), inversion)", True),
    ("cyclic(3^2)", False),
])
def test_deferred_pivot_rows_equal_the_eager_ones(monkeypatch, spec, a_major):
    # forcing every pivot that rank holds as a word gives the leads and
    # rows, item order included, of a table fed every row through insert,
    # in rank's order over the same complement of the boundaries (a word
    # whose first letter settles has its lead read off its tail, with no
    # _word_lead call).  The leads, in order, are those of an Eliminator
    # that fully reduces the same rows.  With the letters relabelled
    # a-major, X^a and X^a w read the same lead off the word, so some read
    # leads are taken and those rows are inserted, and some leads below
    # start with a letter that settles
    bar = build_bar(build_group_algebra(spec), 5)
    ranks = None
    if a_major:
        plain = build_bar(bar.algebra, 5)
        ranks = {(n, s): plain.rank(n, s)
                 for n in range(5) for s in plain.blocks(n)}
        relabel_a_major(bar)
    tables, fed, taken = [], [], []

    class Recording(LeadRows):
        # fed gets each deferred word's code and a copy of each inserted
        # row; taken each inserted row whose smallest word is a pivot
        def __init__(self, p, build):
            super().__init__(p, build)
            tables.append(self)

        def __setitem__(self, lead, row):
            if type(row) is int:
                fed.append(row)
            super().__setitem__(lead, row)

        def insert(self, v):
            fed.append(dict(v))
            if min(v) in self:
                taken.append(v)
            return super().insert(v)

    monkeypatch.setattr("ainfbar.bar.LeadRows", Recording)
    deferred, below = 0, {}
    for n in range(bar.cap):
        for s in bar.blocks(n):
            tables.clear()
            fed.clear()
            bar._eliminated_rank(n, s)
            (pivots,) = tables
            # one row or code per word off the leads below whose d is not
            # 0; a-major, the leads below hold words of settled runs too
            leads = below.get((n - 1, s), set())
            assert len(fed) == sum(1 for w in bar.blocks(n)[s]
                                   if w not in leads and bar._d_packed(w, n))
            below[(n, s)] = set(pivots)
            deferred += sum(type(row) is int for row in pivots.values())
            for lead, row in pivots.items():
                if type(row) is int:
                    pivots[lead] = bar._d_packed(row, n)
            eager = LeadRows(bar.field.p, None)
            full = Eliminator(bar.field)
            for row in fed:
                if type(row) is int:
                    row = bar._d_packed(row, n)
                eager.insert(dict(row))
                full._insert(dict(row))
            assert table_items(pivots) == table_items(eager)
            assert list(pivots) == list(full.pivots)
    assert deferred > 0
    assert taken or not a_major
    if a_major:
        assert ranks == {(n, s): bar.rank(n, s)
                         for n in range(5) for s in bar.blocks(n)}


@pytest.mark.parametrize("spec,cap", [
    ("cyclic(3^2)", 6),
    ("semidirect(torus(3,1,2), inversion)", 4),
    ("semidirect(torus(3,2,2), inversion)", 3),
    ("semidirect(cyclic(3^1), inversion)", 7),
    ("semidirect(torus(2,1,2), Z3:[[0,1],[1,1]])", 4),
])
def test_rank_matches_a_full_reduction_reference(spec, cap):
    # a plain Eliminator fed every row of the complement of its own lead
    # set one length down, in source order and fully reduced, gives every
    # rank, and every lead set that rank keeps for the length above
    bar = build_bar(cached_algebra(spec), cap)
    below = {}
    for n in range(cap):
        for s, words in bar.blocks(n).items():
            leads = below.get((n - 1, s), set())
            ref = Eliminator(bar.field)
            for w in words:
                if w not in leads:
                    ref._insert(bar._d_packed(w, n))
            below[(n, s)] = set(ref.pivots)
            assert bar._eliminated_rank(n, s) == ref.rank
            kept = set(ref.pivots) if n + 1 < cap else set()
            assert bar._leads.get((n, s), set()) == kept


# the oracle specs with no action, (Z/4)^2 and a mixed-depth product over
# p = 3, each with a cap at which its elimination takes about 0.1 s
CHAIN_SPECS = {spec: cap for spec, cap in [
    ("cyclic(2^1)", 10), ("cyclic(2^3)", 6), ("cyclic(3^1)", 9),
    ("cyclic(3^2)", 6), ("cyclic(5^1)", 7), ("cyclic(2^1) x cyclic(2^2)", 6),
    ("torus(3,1,2)", 6), ("torus(2,2,2)", 5), ("cyclic(3^1) x cyclic(3^2)", 4)]}
assert {spec for spec in ORACLE_SPECS if "semidirect" not in spec} <= set(CHAIN_SPECS)


def normal_word(alg, u):
    """Letter u = X^a as its normal word, variable indices ascending."""
    return [i for i, e in enumerate(alg.basis_keys[u][0]) for _ in range(e)]


def continues_a_chain(alg, u, v):
    """Anick's condition on [u|v], read off the words: the concatenation
    holds exactly one tip, x_j x_i (j > i) or x_i^{q_i}, and it ends at
    the end."""
    word = normal_word(alg, u) + normal_word(alg, v)
    tips = [(i, j) for i in range(alg.spec.rank) for j in range(i)]
    tips += [(i,) * q for i, q in enumerate(alg.caps)]
    ends = [k + len(t) for t in tips for k in range(len(word) - len(t) + 1)
            if tuple(word[k:k + len(t)]) == t]
    return ends == [len(word)]


def kuenneth_length(alg, multidegree):
    """Degree of the Kuenneth class of a multidegree: per factor, exponent
    kq at 2k and kq + 1 at 2k + 1, so exponent e at e when q = 2; None
    when a factor's exponent holds no class."""
    length = 0
    for m, q in zip(multidegree, alg.caps):
        k, rest = divmod(m, q)
        if rest > 1:
            return None
        length += 2 * k + rest
    return length


@functools.lru_cache(maxsize=None)
def chains_by_walk(spec, top):
    """Every chain of length <= top, walked through the bar's successor
    table, as (length, weight, multidegree)."""
    bar = build_bar(cached_algebra(spec), 1)
    alg, found = bar.algebra, []
    stack = [(0, 0, 0, (0,) * alg.spec.rank)]
    while stack:
        u, n, wt, m = stack.pop()
        found.append((n, wt, m))
        if n < top:
            for v in bar._chain_next[u]:
                a = alg.basis_keys[v][0]
                stack.append((v, n + 1, wt + bar.letter_wt[v],
                              tuple(x + y for x, y in zip(m, a))))
    return found


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(CHAIN_SPECS)), st.data())
def test_counted_ranks_equal_the_eliminated_ones(spec, data):
    # on every block below the cap the chain count gives the rank of the
    # elimination; the successor table is Anick's condition on every pair
    # of letters, and every chain to degree 16 sits at the Kuenneth length
    # of its multidegree, one chain per multidegree: the lemma that makes
    # the count exact (BarComplex.chains)
    cap = data.draw(st.integers(1, CHAIN_SPECS[spec]), label="cap")
    alg = cached_algebra(spec)
    counted, eliminated = build_bar(alg, cap), build_bar(alg, cap)
    for n in range(cap):
        for s in counted.blocks(n):
            assert counted.rank(n, s) == eliminated._eliminated_rank(n, s)
    step = counted._chain_next
    variables = [u for u in counted.letters if len(normal_word(alg, u)) == 1]
    assert sorted(step[0]) == variables
    for u in counted.letters:
        assert sorted(step[u]) == [v for v in counted.letters
                                   if continues_a_chain(alg, u, v)]
    found = chains_by_walk(spec, 16)
    assert all(kuenneth_length(alg, m) == n for n, _, m in found)
    assert len({m for _, _, m in found}) == len(found)
    for n in range(17):
        assert counted.chains(n) == collections.Counter(
            wt for k, wt, _ in found if k == n)


@pytest.mark.parametrize("product,factors", [
    ("cyclic(3^1) x cyclic(3^2)", ["cyclic(3^1)", "cyclic(3^2)"]),
    ("cyclic(2^1) x cyclic(2^2)", ["cyclic(2^1)", "cyclic(2^2)"]),
])
def test_chains_of_a_product_are_the_kuenneth_convolution(product, factors):
    # with no action, dims of A x B per (degree, internal degree) are the
    # convolution of the factors' dims; counted, both sides reach degree 20
    def chain_dims(bar, n):
        return collections.Counter({bar._degree(wt): c
                                    for wt, c in bar.chains(n).items()})

    whole, a, b = (build_bar(cached_algebra(spec), 1) for spec in [product, *factors])
    for n in range(21):
        conv = collections.Counter()
        for k in range(n + 1):
            for s, c in chain_dims(a, k).items():
                for t, d in chain_dims(b, n - k).items():
                    conv[s + t] += c * d
        assert chain_dims(whole, n) == conv


def test_ranks_without_an_action_are_counted(monkeypatch):
    # with no action, the ranks and the cohomology need no row: with every
    # d expansion refused, cyclic(3^2) still gives one class per degree;
    # an action keeps the elimination, which expands d
    def refuse(self, code, n):
        raise AssertionError("no row may be built")

    monkeypatch.setattr(BarComplex, "_d_packed", refuse)
    coh = build_bar(build_group_algebra("cyclic(3^2)"), 7).cohomology()
    assert dims_by_degree(coh) == {n: 1 for n in range(7)}
    bar = build_bar(build_group_algebra("semidirect(cyclic(3^1), inversion)"), 7)
    with pytest.raises(AssertionError, match="no row may be built"):
        bar.cohomology()
    with pytest.raises(ValueError, match="no action"):
        bar.chains(1)


def test_dims_rejects_a_rank_too_high(monkeypatch):
    # one rank too many on a block without classes would leave it a
    # dimension of -1; dims names the block instead
    bar = build_bar(build_group_algebra("cyclic(3^2)"), 5)
    n = 3
    s = next(s for s in bar.blocks(n) if s not in bar.dims(n))
    rank = bar.rank
    monkeypatch.setattr(bar, "rank", lambda m, t: rank(m, t) + ((m, t) == (n, s)))
    with pytest.raises(AssertionError, match=re.escape(f"block ({n}, {s})")):
        bar.dims(n)


def test_budget_guard_names_degree():
    alg = build_group_algebra("cyclic(3^2)")
    with pytest.raises(BudgetExceededError) as err:
        build_bar(alg, 4, budget=10)
    assert err.value.degree == 2
    assert "degree 2" in str(err.value)


def test_budget_counts_only_the_words_built():
    # cap 3 builds the words of length 0, 1 and 2: 1 + 8 + 64 = 73; the
    # d rows of length 2 reach length 3, but no block of it is built
    alg = build_group_algebra("cyclic(3^2)")
    bar = build_bar(alg, 3, budget=73)
    assert sum(len(w) for n in range(3) for w in bar.blocks(n).values()) == 73
    with pytest.raises(ValueError, match="beyond the words built"):
        bar.blocks(3)
    with pytest.raises(BudgetExceededError) as err:
        build_bar(alg, 3, budget=72)
    assert (err.value.degree, err.value.needed) == (2, 73)
    assert "degree 2" in str(err.value)


def test_restriction_kills_deeper_exterior_class():
    # depth 2 -> depth 1: the exterior class upstairs restricts to zero,
    # the polynomial class hits the bottom polynomial class
    low = build_group_algebra("cyclic(3^1)")
    high = build_group_algebra("cyclic(3^2)")
    fmap = power_inclusion(low, high)
    bar_low = build_bar(low, 4)
    bar_high = build_bar(high, 4)
    res = restriction(bar_high, bar_low, fmap)
    rmap = res.on_cohomology()
    t2 = "h1:1/3^2#0"
    x2 = "h2:1#0"
    col_t = {lo: c for (lo, hi), c in rmap.entries.items() if hi == t2}
    assert col_t == {}
    col_x = {lo: c for (lo, hi), c in rmap.entries.items() if hi == x2}
    assert list(col_x) == ["h2:1#0"]
    assert col_x["h2:1#0"] != 0


def test_restriction_is_ring_sensible_on_squares():
    low = build_group_algebra("cyclic(3^1)")
    high = build_group_algebra("cyclic(3^2)")
    fmap = power_inclusion(low, high)
    bar_low = build_bar(low, 5)
    bar_high = build_bar(high, 5)
    res = restriction(bar_high, bar_low, fmap)
    coh_high = bar_high.cohomology()
    coh_low = bar_low.cohomology()
    x_hi = coh_high.representative("h2:1#0")
    sq = {}
    for w1, c1 in unpack_cochain(bar_high, x_hi).items():
        for w2, c2 in unpack_cochain(bar_high, x_hi).items():
            vec_add_scaled(sq, {w1 + w2: c1 * c2}, 1, 3)
    image_sq = res._apply_to_cochain(pack_cochain(bar_high, sq))
    # restriction of x^2 equals (restriction of x)^2
    x_image = unpack_cochain(bar_low, res._apply_to_cochain(x_hi))
    direct = {}
    for w1, c1 in x_image.items():
        for w2, c2 in x_image.items():
            vec_add_scaled(direct, {w1 + w2: c1 * c2}, 1, 3)
    assert coh_low.reduce_cocycle(image_sq) == coh_low.reduce_cocycle(
        pack_cochain(bar_low, direct))


def test_restriction_rejects_mismatched_caps():
    low = build_group_algebra("cyclic(3^1)")
    high = build_group_algebra("cyclic(3^2)")
    fmap = power_inclusion(low, high)
    with pytest.raises(ValueError):
        restriction(build_bar(high, 4), build_bar(low, 3), fmap)


@pytest.mark.parametrize("low_spec, high_spec", [
    ("semidirect(torus(2,1,2), Z3:[[0,-1],[1,-1]])",
     "semidirect(torus(2,2,2), Z3:[[0,-1],[1,-1]])"),
    ("semidirect(torus(3,1,2), Z4:[[0,-1],[1,0]])",
     "semidirect(torus(3,2,2), Z4:[[0,-1],[1,0]])"),
])
def test_restriction_along_a_general_action(low_spec, high_spec):
    # each level stores its action reduced mod its own p^n, so the two
    # matrices differ as stored and agree mod the lower level's moduli
    low = cached_algebra(low_spec)
    high = cached_algebra(high_spec)
    assert low.spec.weyl != high.spec.weyl
    fmap = power_inclusion(low, high)  # multiplicativity verified inside
    bar_low = build_bar(low, 3)
    res = restriction(build_bar(high, 3), bar_low, fmap)  # letter check inside
    assert sorted(lo for col in res.tcol.values() for lo in col) == list(bar_low.letters)


def test_rank_two_restriction_on_kunneth_classes():
    low = build_group_algebra("cyclic(3^1) x cyclic(3^1)")
    high = build_group_algebra("cyclic(3^2) x cyclic(3^2)")
    fmap = power_inclusion(low, high)
    bar_low = build_bar(low, 3)
    bar_high = build_bar(high, 3)
    res = restriction(bar_high, bar_low, fmap)
    rmap = res.on_cohomology()
    coh_high = bar_high.cohomology()
    # all degree 1 classes upstairs die, both degree 2 polynomial classes map
    ninth = InternalDegree(3, 1, 2)
    deg1 = [l for l in coh_high.space.labels()
            if coh_high.space.degrees(l)[0] == 1]
    assert len(deg1) == 2
    for label in deg1:
        assert {k: v for (k, h), v in rmap.entries.items() if h == label} == {}
    one = InternalDegree(3, 1, 0)
    deg2_poly = [l for l in coh_high.space.labels()
                 if coh_high.space.degrees(l)[0] == 2
                 and coh_high.space.degrees(l)[1] == one]
    assert len(deg2_poly) >= 2
    hit = 0
    for label in deg2_poly:
        if {k: v for (k, h), v in rmap.entries.items() if h == label}:
            hit += 1
    assert hit >= 2


@functools.lru_cache(maxsize=None)
def restriction_bars(low_spec, high_spec, cap):
    low = cached_algebra(low_spec)
    high = cached_algebra(high_spec)
    return build_bar(high, cap), build_bar(low, cap), power_inclusion(low, high)


def commutes_on_every_word(high, low, fmap):
    """d_low R = R d_high checked word by word below the cap, with R
    expanded letter by letter from the transpose of fmap."""
    p = high.field.p
    tcol = {u: {} for u in high.letters}
    for lo in low.letters:
        for hi, c in fmap.columns[lo].items():
            tcol[hi][lo] = c

    def restrict(cochain):
        out = {}
        for w, c in cochain.items():
            for pairs in itertools.product(*(tcol[u].items() for u in w)):
                coef = c
                for _, c2 in pairs:
                    coef *= c2
                vec_add_scaled(out, {tuple(lo for lo, _ in pairs): 1}, coef, p)
        return out

    for n in range(high.cap):
        for codes in high.blocks(n).values():
            for code in codes:
                lhs = restrict(unpack_cochain(high, high.d_cochain({code: 1})))
                rhs = low.d_cochain(pack_cochain(low, restrict({unpack(high, code): 1})))
                if lhs != unpack_cochain(low, rhs):
                    return False
    return True


def test_non_multiplicative_map_is_rejected():
    high, low, fmap = restriction_bars("cyclic(3^1)", "cyclic(3^2)", 3)
    columns = {i: dict(col) for i, col in fmap.columns.items()}
    # X -> X^3 as before, but X^2 -> 0 although X * X = X^2
    columns[low.letters[1]] = {}
    bad = AlgebraMap(low.algebra, high.algebra, columns)
    assert not commutes_on_every_word(high, low, bad)
    with pytest.raises(AssertionError, match="does not commute"):
        Restriction(high, low, bad)


RESTRICTION_PAIRS = [
    ("cyclic(2^1)", "cyclic(2^2)"),
    ("cyclic(3^1)", "cyclic(3^2)"),
    ("cyclic(5^1)", "cyclic(5^2)"),
    ("cyclic(2^2)", "cyclic(2^3)"),
    ("semidirect(cyclic(3^1), inversion)", "semidirect(cyclic(3^2), inversion)"),
    ("cyclic(2^1) x cyclic(2^1)", "cyclic(2^2) x cyclic(2^2)"),
]


@st.composite
def corrupted_restrictions(draw):
    """A power inclusion with one column entry replaced, added or removed,
    at bar cap 2 or 3."""
    pair = draw(st.sampled_from(RESTRICTION_PAIRS))
    high, low, fmap = restriction_bars(*pair, draw(st.integers(2, 3)))
    p = high.field.p
    columns = {i: dict(col) for i, col in fmap.columns.items()}
    col = columns[draw(st.sampled_from(low.letters))]
    k = draw(st.sampled_from(high.letters))
    if draw(st.booleans()) and col:
        del col[draw(st.sampled_from(sorted(col)))]
    else:
        col[k] = draw(st.integers(1, p - 1))
    return high, low, AlgebraMap(low.algebra, high.algebra, columns)


@settings(max_examples=60, deadline=None)
@given(corrupted_restrictions())
def test_letters_verdict_equals_every_word_verdict(case):
    high, low, fmap = case
    try:
        Restriction(high, low, fmap)
        accepted = True
    except AssertionError as err:
        assert "does not commute" in str(err)
        accepted = False
    assert accepted == commutes_on_every_word(high, low, fmap)
