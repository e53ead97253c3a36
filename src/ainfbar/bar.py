"""Reduced bar cochain complexes of augmented graded algebras.

Degree-n cochains are spanned by words [u_1|..|u_n] in the dual of the
reduced augmentation ideal; the ideal basis element at index (0, w) stands
for w - 1.  The differential expands one letter at a time into all products
hitting it,

    d [u_1|..|u_n] = sum_i (-1)^i sum_{a,b} c_ab^{u_i} [u_1|..|a|b|..|u_n],

where pi(a b) = sum_u c_ab^u u in the ideal basis; this is the graded dual
of the bar boundary, d^2 = 0 and the Leibniz rule hold on the nose, and the
word length is the cohomological degree.  Every letter is homogeneous for
the internal weight, so the complex splits into finite blocks indexed by
(length, internal degree); all linear algebra happens one block at a time
and cohomology is reported up to cap - 1.

Letter weights are the algebra's weights, plain integers over p^top, top
the largest depth, so word degrees are sums of ints; an InternalDegree is
built only for a block key.

Blocks are counted before they are built.  census(n) gives the size of
every block of length n from the letter weights alone, and dims reads
its sizes there.  The words of block (n, s) starting with letter u
are u followed by the words of block (n - 1, s - wt(u)), so a block is a
list of first-letter runs (u, tails) over the words one length down.
The blocks below length cap - 1 are built a whole length at a time when
first read and held, as the tails of the length above; a block of length
cap - 1, the largest length by far, is built each time it is read and
never held, and the elimination rank walks its runs without building it.

A word has one form throughout: the packed integer, or code, whose n
fields of dim.bit_length() bits hold its n letters, the first letter in
the highest field.  Letters are the basis indices 1..dim-1, since index 0
is the unit, so no letter is 0: a code's length follows from its bit
length, and the empty word is 0.  For words of one length code order is
lex order.  Blocks list codes, cochains are {code: coeff}, and every
elimination keys its rows by codes, so it compares ints, not tuples.

An elimination that must lead on the largest word of a row (a block's
kernels, the coordinates of BlockBasis) stores word w at ~w = -w - 1
and its tags at k >= 0.  ~ reverses code order and puts every word below
every tag, so within a block the keys sort exactly as word positions i
stored at dim - 1 - i with tags at dim + k would: pivots, kernels and
representatives are those of that position layout, with no position
index to build.  Both are column_echelon eliminations.  A block's
kernels stream from its elimination and are read once, by its
BlockBasis, which stops at the last representative; a block that holds no
class never streams them.  A BlockBasis also gives its block's pivot
words, the B words of the basis one length up, so that stream is the only
elimination of a block's own differential outside rank.

The algebra picks how ranks are found, and no option does.  With no
action, F_p[T] is a monomial algebra, and the classes of every block are
exactly its Anick chains: chains(n) counts them per weight from a
letter-to-letter table, building no word, and

    rank(n, s) = census(n)[s] - chains(n)[s] - rank(n - 1, s),

with no elimination (chains has the proof).  With an action the chains
are not minimal, and rank eliminates, as follows.

Letters are numbered in the algebra's basis order, Weyl-major: X^a w is
w |T| + lin(a), so the letters X^a come first and every letter w - 1
after them (see _eliminated_rank).  One packed comultiplication table in
that order, with no sign in it, serves everything: blocks, ranks,
kernels and BlockBasis representatives; d signs each position as it
reads it.  rank(n, s) reads the pivot leads of rank(n - 1, s), the
smallest words of the boundaries in the block, and skips those source
words: the others span a complement of the boundaries, which d kills, so
the rank is the same.  rank reads the leads off the words themselves:
when the first letter's lex-smallest pair [a|b] has a < u_1, the lead of
d[u_1|..|u_n] is [a|b|u_2|..|u_n], and otherwise it follows from [a|b]
and the lead of d[u_2|..|u_n].  A word's row is built only when a
reduction first reads its pivot, or when its lead is taken; rank's
table, linalg.LeadRows, then reduces it only until its lead is free,
since rank needs the leads and their count, not reduced rows.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from typing import Optional

from .grading import BigradedMap, BigradedSpace, InternalDegree
from .linalg import Eliminator, LeadRows, column_echelon, vec_add_scaled
from .groups import AlgebraMap, GradedGroupAlgebra

DEFAULT_WORD_BUDGET = 5_000_000


class BudgetExceededError(RuntimeError):
    """Word count would exceed the memory budget; names the offending degree."""

    def __init__(self, degree: int, needed: int, budget: int):
        self.degree = degree
        self.needed = needed
        self.budget = budget
        super().__init__(
            f"bar complex budget exceeded at degree {degree}: "
            f"{needed} words needed, budget {budget}")


class BarComplex:
    """Reduced bar cochains of a graded group algebra up to a degree cap."""

    def __init__(self, algebra: GradedGroupAlgebra, cap: int,
                 budget: int = DEFAULT_WORD_BUDGET):
        if cap < 1:
            raise ValueError("bar cap must be >= 1")
        self.algebra = algebra
        self.field = algebra.field
        self.cap = cap
        self.letters = algebra.iota_letters()
        self.letter_wt = algebra.weights
        # the budget bounds the words blocks enumerates, lengths below cap
        total = 0
        nletters = len(self.letters)
        for n in range(cap):
            total += nletters ** n
            if total > budget:
                raise BudgetExceededError(n, total, budget)
        self.bits = algebra.dim.bit_length()
        self._comult = self._build_comult()
        self._heads = self._lead_pairs()
        self._census: dict[int, dict[int, int]] = {}
        # with no action, ranks are counted from the Anick chains (rank):
        # their successor table, and their counts by length, last letter
        # and weight
        self._chain_next = (self._chain_successors() if algebra.weyl.size == 1
                            else None)
        self._chain_ends: dict[int, dict[int, dict[int, int]]] = {}
        # codes of the blocks below length cap - 1, by length, then weight
        self._held: dict[int, dict[int, list[int]]] = {}
        # the first letters of every block, by length, then weight (_runs)
        self._firsts: dict[int, dict[int, list[int]]] = {}
        self._ranks: dict[tuple[int, InternalDegree], int] = {}
        self._counted: dict[tuple[int, InternalDegree], int] = {}
        # pivot leads of rank(n, s), kept for rank(n + 1, s) to pop
        self._leads: dict[tuple[int, InternalDegree], set[int]] = {}
        self._cohomology: Optional[CohomologyData] = None

    def _build_comult(self) -> dict[int, list[tuple[int, int]]]:
        """Packed comultiplication, one table: for each letter u, the pairs
        (a, b) with c_ab^u != 0 as (code of [a|b], coefficient), in code
        order, with no sign: _d_packed signs each position as it reads it.
        Letter a is e_a, or e_a - 1 when e_a is in W (augmentation 1).
        Pairs of letters outside W are read in one walk of the algebra's
        rule, row by row over its nonzero products e_a e_b, each as the
        terms (k, c) of its torus part and its shift to w w2 (row), with no
        dict per product; a pair with a letter w - 1 is expanded into four
        products for every partner, since (w - 1) e_b = w e_b - e_b is not
        zero where w e_b is.  Each listed product must have augmentation 0,
        and dropping its unit coefficient writes it on the letters."""
        alg = self.algebra
        p, bits, unit = self.field.p, self.bits, alg.unit_index
        aug = [alg.augmentation(k) for k in range(alg.dim)]
        weyl = [u for u in self.letters if aug[u]]

        def expanded(a: int, b: int) -> dict[int, int]:
            prod: dict[int, int] = {}
            for i, ci in ((a, 1), (unit, -aug[a])):
                for j, cj in ((b, 1), (unit, -aug[b])):
                    if ci * cj:
                        vec_add_scaled(prod, alg.mult(i, j), ci * cj, p)
            return prod

        products = itertools.chain(
            ((a, b, shift, fit) for a in self.letters if not aug[a]
             for b, shift, fit in alg.row(a) if not aug[b]),
            ((a, b, 0, expanded(a, b).items()) for a in self.letters
             for b in (self.letters if aug[a] else weyl)))
        comult: dict[int, list[tuple[int, int]]] = {u: [] for u in self.letters}
        for a, b, shift, terms in products:
            ab, eps = (a << bits) | b, 0
            for k, c in terms:
                u = shift + k
                if aug[u]:
                    eps += c
                if u != unit:
                    comult[u].append((ab, c))
            if eps % p:
                raise AssertionError("product of ideal elements left the ideal")
        for pairs in comult.values():
            pairs.sort()
        return comult

    def _lead_pairs(self) -> list[int]:
        """Per letter u, the code ab of its lex-smallest pair [a|b] in the
        comultiplication table: ab when a < u, so that it settles the
        lead of every word starting with u, else -ab; 0 when u has no
        pairs.  Indexed by letter."""
        heads = [0] * self.algebra.dim
        for u, pairs in self._comult.items():
            if pairs:
                ab = min(ab for ab, _ in pairs)
                heads[u] = ab if ab >> self.bits < u else -ab
        return heads

    def _word_lead(self, code: int, n: int) -> Optional[int]:
        """Smallest target of d of the word of length n, read off its
        letters through _lead_pairs: 0 when d of the word is 0, None on a
        tie the heads cannot settle (see rank).  The first letter whose
        head settles gives the lead of its suffix; the letters before it
        are folded in from the last.  rank reads the leads of words whose
        first letter settles a run at a time, and asks here for the rest."""
        bits, heads = self.bits, self._heads
        shift, lead, open_ = bits * n, 0, []
        while shift:
            shift -= bits
            u = code >> shift
            code &= (1 << shift) - 1
            ab = heads[u]
            if ab > 0:
                lead = ab << shift | code
                break
            open_.append((u, -ab, shift, code))
        for u, ab, shift, rest in reversed(open_):
            head = ab << shift | rest if ab else 0
            if lead:
                tail = u << (shift + bits) | lead
                if head == tail:
                    return None
                lead = min(head, tail) if head else tail
            else:
                lead = head
        return lead

    def census(self, n: int) -> dict[int, int]:
        """Word count of every block of length n, keyed by internal weight,
        with no word built; any n, the cap does not bound it.  The letter
        weights, in letter order, are convolved with the census one length
        down, in its order.  The lex-first word of a weight starts with
        the first letter that reaches it, followed by the lex-first word
        of the rest, so the keys come in the order of their first word in
        lex order, the order of blocks(n)."""
        got = self._census.get(n)
        if got is None:
            got = {0: 1}
            if n:
                below, got = self.census(n - 1), {}
                for u in self.letters:
                    for wt, c in below.items():
                        wt += self.letter_wt[u]
                        got[wt] = got.get(wt, 0) + c
            self._census[n] = got
        return got

    def blocks(self, n: int) -> "_Blocks":
        """Read-only view of the blocks of length n: codes in lex order,
        keyed by internal degree in census order.  Making the view builds
        no word; reading a block builds it, and below length cap - 1 its
        whole length, which is held."""
        if n >= self.cap:
            raise ValueError(f"degree {n} beyond the words built, "
                             f"lengths 0..{self.cap - 1}")
        return _Blocks(self, n)

    def _runs(self, n: int, wt: int) -> list[tuple[int, list[int]]]:
        """Block (n, wt) as first-letter runs (u, tails), u in letter
        order: its words, in lex order, are u followed by each word of
        tails, the block (n - 1, wt - wt(u)), for each u it holds.  The
        empty word is the one run (0, [0]) of block (0, 0), 0 standing
        for no letter; 0 is the unit, never a letter, and has no head.
        The first letters of every block of length n are listed once, a
        pass over the letters and the weights one length down, in letter
        order, and kept: a read then costs its runs, not a check of every
        letter.  They are letters, so no word of length n is held."""
        if n == 0:
            return [(0, [0])] if wt == 0 else []
        below, weights = self._held_length(n - 1), self.letter_wt
        firsts = self._firsts.get(n)
        if firsts is None:
            firsts = self._firsts[n] = {}
            for u in self.letters:
                for b in below:
                    firsts.setdefault(weights[u] + b, []).append(u)
        return [(u, below[wt - weights[u]]) for u in firsts.get(wt, ())]

    def _held_length(self, n: int) -> dict[int, list[int]]:
        """Every block of length n < cap - 1 by weight, built once, in
        census order, and held: they are the tails of the length above."""
        got = self._held.get(n)
        if got is None:
            got = self._held[n] = {wt: self._enumerate(n, wt)
                                   for wt in self.census(n)}
        return got

    def _enumerate(self, n: int, wt: int) -> list[int]:
        """Codes of block (n, wt) in lex order, read off its runs."""
        shift = self.bits * max(n - 1, 0)
        return [u << shift | t for u, tails in self._runs(n, wt) for t in tails]

    def _degree(self, wt: int) -> InternalDegree:
        return InternalDegree(self.field.p, wt, self.algebra.top)

    def _weight(self, s: InternalDegree) -> int:
        return s.num * self.field.p ** (self.algebra.top - s.pexp)

    def decode(self, code: int) -> list[int]:
        """Letters of a word, first letter first."""
        bits, mask = self.bits, (1 << self.bits) - 1
        word = []
        while code:
            word.append(code & mask)
            code >>= bits
        word.reverse()
        return word

    def _d_packed(self, code: int, n: int) -> dict[int, int]:
        """Differential of the packed word of length n, as a dict over
        packed words of length n + 1.  The letter at position i (from 0)
        is split into every pair [a|b] of the comultiplication table, in
        table order, times the sign (-1)^(i+1), p - 1 at even i."""
        p, bits, comult = self.field.p, self.bits, self._comult
        mask = (1 << bits) - 1
        out: dict[int, int] = {}
        get = out.get
        for i in range(n):
            shift = bits * (n - 1 - i)
            u = (code >> shift) & mask
            base = ((code >> (shift + bits)) << (shift + 2 * bits)) \
                | (code & ((1 << shift) - 1))
            sign = 1 if i & 1 else p - 1
            for ab, c in comult[u]:
                target = base | (ab << shift)
                val = (get(target, 0) + sign * c) % p
                if val:
                    out[target] = val
                else:
                    out.pop(target, None)
        return out

    def d_cochain(self, cochain: dict[int, int]) -> dict[int, int]:
        """Differential of a cochain given as {code: coeff}."""
        out: dict[int, int] = {}
        for w, c in cochain.items():
            n = -(-w.bit_length() // self.bits)
            row = self._d_packed(w, n)
            vec_add_scaled(out, row, c, self.field.p)
        return out

    def concat(self, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
        """Concatenation product of two cochains {code: coeff}, the words
        of b all of one length: each word of a shifted past them, or-ed
        with each word of b."""
        if not b:
            return {}
        p = self.field.p
        bits = self.bits
        shift = bits * -(-next(iter(b)).bit_length() // bits)
        return {(w1 << shift) | w2: c1 * c2 % p
                for w1, c1 in a.items() for w2, c2 in b.items()}

    def chains(self, n: int) -> dict[int, int]:
        """Anick chains of length n by internal weight, on an algebra with
        no action; any n, and no word is built.  chains(n)[s] is
        dim H^{n,s}; this docstring proves it.

        Chains.  With no action, F_p[T] = F_p[x_1..x_r]/(x_i^{q_i}),
        q_i = p^{n_i}, and each letter X^a is the normal word
        x_1^{a_1}..x_r^{a_r} of the Groebner basis whose tips are x_j x_i
        (j > i) and x_i^{q_i}.  A chain is a bar word [w_1|..|w_n] whose
        w_1 is one variable and each w_k w_{k+1} of which holds exactly one
        tip, ending at its end.  For normal u and v, with x_i the last
        variable of u, c its exponent there, and x_f the first variable
        of v, a tip of uv lies across the joint, as u and v hold none.  If
        f > i, uv is normal.  If f < i, x_i x_f is a tip, ending at the end
        only when v = x_f.  If f = i, the only tips across are windows
        x_i^{q_i} of the run of x_i, one ending at the end exactly when
        v = x_i^{q_i - c}.  So [u|v] continues a chain exactly when v is a
        variable below x_i, or v = x_i^{q_i - c}: _chain_successors.

        The Kuenneth lemma: a chain's multidegree fixes its length.  Both
        kinds of successor are powers of one variable, and neither raises
        the index of the variable, so a chain is a run of letters in x_i,
        then a run in a lower variable, and so on.  A run starts with the
        variable itself, as w_1 or as the first successor, and inside it
        x_i^c is followed by x_i^{q_i - c}: the run is x_i, x_i^{q_i - 1},
        x_i, ..  Conversely any lengths l_i >= 0 of the runs give a chain.
        A run of length l = 2k has exponent m = kq_i, one of length 2k + 1
        has m = kq_i + 1.  The residues 0 and 1 mod q_i differ, so m_i
        fixes l_i, and the length n = sum l_i of a chain is fixed by its
        multidegree (m_1..m_r): per factor, exponent kq at degree 2k and
        kq + 1 at 2k + 1 (e at degree e when q = 2), the degrees of
        H^*(Z/q; F_p), one class each.  Each such multidegree holds one
        chain.

        The count.  The product is monomial, so d keeps the Z^r
        multidegree, the sum of the letters' exponents, and the complex
        splits by it.  Joellenbeck-Welker's algebraic Morse matching on the
        normalized bar complex pairs a word with one in which a letter is
        split into two whose product it is, so paired words share a
        multidegree, and its critical words are the chains (Anick,
        Trans. AMS 296, 1986; Joellenbeck, Welker, Mem. AMS 197, 2009).
        Its Morse complex, spanned by the chains, is homotopy equivalent to
        the bar complex in each multidegree, and its differential changes
        the length by one.  By the lemma a multidegree holds chains of one
        length only, so that differential is zero and the chains of length
        n in a multidegree count its H^n.  The weight is a function of the
        multidegree, so summing gives chains(n)[s] = dim H^{n,s}."""
        if self._chain_next is None:
            raise ValueError("Anick chains count the classes only with no action")
        got: dict[int, int] = {}
        for wts in self._chains_by_end(n).values():
            for wt, c in wts.items():
                got[wt] = got.get(wt, 0) + c
        return got

    def _chains_by_end(self, n: int) -> dict[int, dict[int, int]]:
        """Chains of length n counted by last letter, then weight, built
        from length n - 1 through _chain_successors, cached per length.
        The empty chain ends on 0, no letter."""
        got = self._chain_ends.get(n)
        if got is None:
            got = {0: {0: 1}}
            if n:
                got, weights = {}, self.letter_wt
                for u, wts in self._chains_by_end(n - 1).items():
                    for v in self._chain_next[u]:
                        into, wv = got.setdefault(v, {}), weights[v]
                        for wt, c in wts.items():
                            into[wt + wv] = into.get(wt + wv, 0) + c
            self._chain_ends[n] = got
        return got

    def _chain_successors(self) -> dict[int, list[int]]:
        """Per letter u, with no action, the letters v that may follow it
        in an Anick chain (see chains): each variable x_j below the last
        variable x_i of u, and x_i^(q_i - c), c the exponent of x_i in u.
        0, no letter, is followed by every variable: chains start there."""
        alg = self.algebra
        r = alg.spec.rank

        def power(i: int, e: int) -> int:
            return alg.index[(tuple(e if t == i else 0 for t in range(r)), 0)]

        step = {0: [power(j, 1) for j in range(r)]}
        for u in self.letters:
            a = alg.basis_keys[u][0]
            i = max(t for t in range(r) if a[t])
            step[u] = [power(j, 1) for j in range(i)] + [power(i, alg.caps[i] - a[i])]
        return step

    def rank(self, n: int, s: InternalDegree) -> int:
        """Rank of the differential leaving block (n, s).

        The algebra picks the route.  With an action, rank eliminates
        (_eliminated_rank).  With none it counts, and builds no word and
        no row: chains(n)[s] = dim H^{n,s}, proved there, and
        dim H^{n,s} = |block (n, s)| - rank(n, s) - rank(n - 1, s), so

            rank(n, s) = census(n)[s] - chains(n)[s] - rank(n - 1, s),

        summed up from rank(-1, s) = 0.  Each BlockBasis checks that its
        block is spanned with the counted rank, so every block a basis is
        built for tests it.  With an action the chains are not minimal: a
        Weyl letter v = w - 1 has v^2 = -2v for inversion, so [v|..|v] is a
        chain in every length, while H^*(Z/2; F_p) is 0 in positive
        degrees for p odd.
        """
        if n >= self.cap:
            raise ValueError("rank needs the target degree within the cap")
        if self._chain_next is None:
            return self._eliminated_rank(n, s)
        key = (n, s)
        got = self._counted.get(key)
        if got is None:
            wt = self._weight(s)
            got = self._counted[key] = (
                self.census(n).get(wt, 0) - self.chains(n).get(wt, 0)
                - (self.rank(n - 1, s) if n else 0))
        return got

    def _eliminated_rank(self, n: int, s: InternalDegree) -> int:
        """Rank of the differential leaving block (n, s), by elimination,
        the route of every algebra with an action; it reaches down into
        _eliminated_rank(n - 1, s), never into the counted rank.

        Source words are fed in reverse lex order, a first-letter run at a
        time (_runs), and the block's list is never built: the lead target
        of a split row then tends to be unoccupied on arrival, which keeps
        the elimination near-triangular.  Rows are keyed by target codes,
        whose order is the lex order of the words.

        The letter order matters for the cost, not for the rank.  Were
        X^a and X^a w neighbours, then, since a product with a Weyl letter
        w - 1 lands on both X^a and X^a w, the lex-smallest target of
        d[X^a|rest] and of d[X^a w|rest] would be the same word
        [w - 1|X^a|rest], and half of all rows would arrive on an occupied
        lead.  The Weyl-major basis puts the letters w - 1 after every X^a,
        and the leads part.

        Only a complement of the boundaries is fed.  rank(n - 1, s) ends
        with its pivot leads L, the lex-smallest words of the boundaries
        B = d(block (n - 1, s)) in lex order: every nonzero
        boundary has its smallest word in L, and |L| = dim B.  So no
        nonzero boundary lies in the span of the words not in L, whose
        dimension is |block| - dim B: the block is the direct sum
        B + span(words not in L).  Since d(B) = 0,
        d(block) = d(span(words not in L)), and rank(n, s) feeds only the
        words not in L.  Exactly dim H^{n,s} rows then reduce to zero,
        where feeding every word would give |block| - rank(n, s): the
        boundaries, which cost the longest reductions.  rank(n - 1, s) is
        computed first when its block is nonempty; L is kept only when it
        is nonempty and rank(n, s) is within the cap, and rank(n, s) pops
        it, so no lead set outlives its one reader.

        Most leads are read off the source word, and most rows are never
        built (_word_lead).  Write d[u|rest] = -D(u) rest - [u|d(rest)],
        where D(u) = sum c_ab^u [a|b] over the pairs of u's table, each
        pair once, with coefficients in 1..p-1.  Every target [a|b|rest]
        of the first part starts with a pair of u and every target of the
        second with u, and the two parts can share a target only when
        a = u.  Let [a|b] be u's lex-smallest pair (_lead_pairs).  If
        a < u, the lead is [a|b|rest]: it is below every target of the
        second part and cannot cancel.  Otherwise, with t the lead of
        d(rest): if d(rest) = 0, the lead is [a|b|rest], or d[u|rest] = 0
        when u has no pairs; if a > u or u has no pairs, it is [u|t];
        if a = u, it is the smaller of [u|t] and [u|b|rest], and a tie,
        which may cancel, leaves the lead to the row.  A word whose d is
        read as 0 is skipped.  When a read lead is free, the pivot table
        (linalg.LeadRows) stores the word's code in place of its row, and
        the first reduction that reads the pivot builds the row.  Otherwise
        (a tie, or the lead taken) the row is built and inserted.  Within a
        run whose letter u settles (a < u) the lead of [u|tail] is
        [a|b|tail], ab << shift | tail, read with no call; every other
        word asks _word_lead, the empty word too.

        An inserted row is reduced only until its lead is free
        (LeadRows.insert), not against every pivot it touches.  Full
        reduction clears the same pivot columns in the same ascending
        order up to that point, and the pivot rows it clears later only
        touch columns past their own leads, so the lead is the same; the
        stored row differs from the fully reduced one by a combination of
        pivot rows, so every span, and with it every later lead, is the
        same too.  Ranks
        and lead sets are those of a full elimination.  On
        semidirect(torus(3,1,2), inversion) at bar cap 5 the ranks feed
        83,815 words and build 5,393 rows: 26,784 with full reduction and
        the first-letter heads alone, 13,230 with lead-only reduction
        alone.
        """
        key = (n, s)
        cached = self._ranks.get(key)
        if cached is not None:
            return cached
        wt = self._weight(s)
        if n > 0 and wt in self.census(n - 1):
            self._eliminated_rank(n - 1, s)
        leads = self._leads.pop((n - 1, s), ())
        pivots = LeadRows(self.field.p, lambda code: self._d_packed(code, n))
        shift = self.bits * max(n - 1, 0)
        for u, tails in reversed(self._runs(n, wt)):
            high, ab = u << shift, self._heads[u] << shift
            for t in reversed(tails):
                code = high | t
                if code in leads:
                    continue
                lead = ab | t if ab > 0 else self._word_lead(code, n)
                if lead is None or lead in pivots:
                    pivots.insert(self._d_packed(code, n))
                elif lead:
                    pivots[lead] = code
        if pivots and n + 1 < self.cap:
            self._leads[key] = set(pivots)
        self._ranks[key] = len(pivots)
        return len(pivots)

    def dims(self, n: int) -> dict[InternalDegree, int]:
        """Cohomology dimensions in degree n < cap, per internal block,
        block sizes read off the census."""
        if n >= self.cap:
            raise ValueError(f"cohomology is reported up to cap - 1 = {self.cap - 1}")
        out: dict[InternalDegree, int] = {}
        census = self.census(n)
        below = self.census(n - 1) if n > 0 else {}
        for wt in sorted(census.keys() | below.keys()):
            s = self._degree(wt)
            size = census.get(wt, 0)
            cut = self.rank(n, s)
            prev = self.rank(n - 1, s) if n > 0 else 0
            dim = size - cut - prev
            if dim < 0:
                raise AssertionError(f"block ({n}, {s}): ranks {cut} and {prev} "
                                     f"exceed its {size} words")
            if dim:
                out[s] = dim
        return out

    def cochain_block(self, cochain: dict[int, int]) -> tuple[int, InternalDegree]:
        """The (n, s) block of a nonzero homogeneous cochain."""
        bits, wt = self.bits, self.letter_wt
        mask = (1 << bits) - 1
        lengths, wts = set(), set()
        for code in cochain:
            lengths.add(-(-code.bit_length() // bits))
            total = 0
            while code:
                total += wt[code & mask]
                code >>= bits
            wts.add(total)
        if len(lengths) != 1:
            raise ValueError("cochain mixes word lengths")
        if len(wts) != 1:
            raise ValueError("cochain mixes internal degrees")
        return lengths.pop(), self._degree(wts.pop())

    def cohomology(self) -> "CohomologyData":
        if self._cohomology is None:
            self._cohomology = CohomologyData(self)
        return self._cohomology


class _Blocks(Mapping):
    """BarComplex.blocks(n): internal degree -> codes of the block, keys
    from the census.  Reading a block builds it, or reads it held; a
    membership test or a key walk builds nothing."""

    __slots__ = ("bar", "n", "census")

    def __init__(self, bar: BarComplex, n: int):
        self.bar = bar
        self.n = n
        self.census = bar.census(n)

    def __getitem__(self, s: InternalDegree) -> list[int]:
        """Held below length cap - 1, enumerated on each read at cap - 1."""
        bar, wt = self.bar, self.bar._weight(s)
        if wt not in self.census:
            raise KeyError(s)
        if self.n < bar.cap - 1:
            return bar._held_length(self.n)[wt]
        return bar._enumerate(self.n, wt)

    def __contains__(self, s) -> bool:
        return self.bar._weight(s) in self.census

    def __iter__(self):
        return map(self.bar._degree, self.census)

    def __len__(self) -> int:
        return len(self.census)


class BlockBasis:
    """Coordinates on one (n, s) block in the basis B + R + U.

    B holds the pivot images d(e_w) of the block below, one per word w of
    b_words, the pivot_words of the basis one length down; R the class
    representatives; U the unit vectors e_j at the block's own pivot words
    j, pivot_words.  B + R spans the cocycles Z, so a cochain is a cocycle
    exactly when its U part is zero.

    Two eliminations over the B + R rows build it, and neither holds a U
    row.  The first picks the representatives.  The cached ranks give the
    class count, classes = |block| - rank(n, s) - |b_words|: the cocycles
    Z have dimension |block| - rank(n, s), and B has one independent
    image per b_word.  A block without classes has Z = B and R empty, so
    it skips this elimination and never eliminates its own block.
    Otherwise an untagged elimination keyed by code takes the B images,
    then reduces the kernels of the block's differential, a basis of Z
    streamed by column_echelon over its words in lex order, against B and
    the earlier representatives; a nonzero remainder is the next
    representative.  Each is independent of B and of those before it, so
    once classes of them are found, B + R is a subspace of Z of dimension
    |b_words| + classes = dim Z, hence Z itself: R spans Z/B, and every
    later kernel, lying in Z, would reduce to zero.  The stream stops
    there.  Each kernel depends only on the columns before it, so the
    representatives are those a full stream would give.  If the kernels
    run out first, B + R + U falls short of the block, and the spanning
    check raises, as it does when |b_words| != rank(n - 1, s).  A
    rank(n, s) too high on a block with classes still spans, one class
    short; pivot_words then holds a free word, and the basis one length
    up, whose B images they are, is singular.  The stream and this
    elimination are dropped when the basis is built.  The second, kept in
    elim, is column_echelon over the same rows, basis vector k as column
    k: word w is stored at ~w, so each row's lead is its largest word, and
    the row is tagged with a 1 at k >= 0, above every word.  coords
    reduces a cochain against it: the tags give minus its B and R
    coordinates and the data remainder is its U part.  Within a block
    code order is lex order, so this layout orders the keys exactly as
    word positions would at dim - 1 - i, tags at dim + k.

    Why the remainder lies on U.  Let z in Z have largest word j.  Since
    d(z) = 0, d(e_j) lies in the span of d(e_i), i < j, so j is a free
    column.  The leads of the second elimination are the largest words of
    vectors of Z, so they lie in the free columns F; there are
    dim Z = |F| of them, hence they are exactly F.  A remainder has no
    entry on a lead, so it lies on the pivot columns P.  No nonzero
    vector of Z lies on P, since its largest word is free, so
    v = z + sum over j in P of u_j e_j is the unique decomposition of v
    over Z + U, and b, r and u are the coordinates in B + R + U.  So the
    pivot words P, those whose d(e_j) is independent of the d(e_i) before
    it, are the words w with no lead at ~w, in lex order; their images
    span d(block), and they are the b_words of the basis one length up.
    """

    def __init__(self, bar: BarComplex, n: int, s: InternalDegree,
                 b_words: list[int]):
        self.b_words = b_words
        if n > 0 and len(b_words) != bar.rank(n - 1, s):
            raise AssertionError(f"block ({n}, {s}): {len(b_words)} pivot "
                                 f"words below, rank {bar.rank(n - 1, s)}")
        images = [bar._d_packed(w, n - 1) for w in b_words]
        words = bar.blocks(n).get(s, [])
        classes = len(words) - bar.rank(n, s) - len(b_words)
        self.reps: list[dict] = []
        if classes > 0:
            span = Eliminator(bar.field)
            for image in images:
                span.add_row(image)
            stream = ((w, bar._d_packed(w, n)) for w in words)
            for kernel in column_echelon(Eliminator(bar.field), stream):
                rep = span.reduce(kernel)
                if rep:
                    self.reps.append(rep)
                    if len(self.reps) == classes:
                        break
                    span.add_row(rep)
        self.elim = Eliminator(bar.field)
        rows = enumerate(itertools.chain(images, self.reps))
        for _ in column_echelon(self.elim, rows):
            raise AssertionError("block basis is singular")
        if self.elim.rank + bar.rank(n, s) != len(words):
            raise AssertionError(f"block ({n}, {s}): basis does not span")
        self.pivot_words = [w for w in words if ~w not in self.elim.pivots]

    def coords(self, cochain: dict[int, int]) -> tuple[dict, dict, dict]:
        """Coordinates of a cochain of this block: b on B and r on R,
        indexed from 0, and u on U, keyed by word."""
        p = self.elim.field.p
        nb = len(self.b_words)
        b: dict[int, int] = {}
        r: dict[int, int] = {}
        u: dict[int, int] = {}
        for i, c in self.elim.reduce({~w: c for w, c in cochain.items()}).items():
            if i < 0:
                u[~i] = c
            elif i < nb:
                b[i] = p - c
            else:
                r[i - nb] = p - c
        return b, r, u


class CohomologyData:
    """Bigraded cohomology of a bar complex, with lazy representatives.

    Labels look like "h2:1#0": degree, internal degree, then the index of
    the class inside its block.  Representatives and class coordinates come
    from each block's BlockBasis.
    """

    def __init__(self, bar: BarComplex):
        self.bar = bar
        basis = []
        self.block_of: dict[str, tuple[int, InternalDegree, int]] = {}
        self.block_labels: dict[tuple[int, InternalDegree], list[str]] = {}
        for n in range(bar.cap):
            for s, dim in bar.dims(n).items():
                labels = []
                for k in range(dim):
                    label = f"h{n}:{s}#{k}"
                    basis.append((label, n, s))
                    self.block_of[label] = (n, s, k)
                    labels.append(label)
                self.block_labels[(n, s)] = labels
        self.space = BigradedSpace(bar.field, basis)
        self._bases: dict[tuple[int, InternalDegree], BlockBasis] = {}

    def block_basis(self, n: int, s: InternalDegree) -> BlockBasis:
        """The basis of block (n, s), cached; its B words are the pivot
        words of the basis one length down, built first unless that block
        has rank 0."""
        key = (n, s)
        got = self._bases.get(key)
        if got is None:
            below = n > 0 and self.bar.rank(n - 1, s)
            b_words = self.block_basis(n - 1, s).pivot_words if below else []
            got = self._bases[key] = BlockBasis(self.bar, n, s, b_words)
        return got

    def representative(self, label: str) -> dict[int, int]:
        """Cocycle representative as {code: coeff}."""
        n, s, k = self.block_of[label]
        return self.block_basis(n, s).reps[k]

    def split(self, cochain: dict[int, int]) -> tuple[dict, dict, dict]:
        """B + R + U parts of a homogeneous cochain {code: coeff}, from one
        coordinate solve: the B coordinates keyed by the b_words, the R
        coordinates by class label, and the U part keyed by word."""
        if not cochain:
            return {}, {}, {}
        n, s = self.bar.cochain_block(cochain)
        basis = self.block_basis(n, s)
        b, r, u = basis.coords(cochain)
        labels = self.block_labels.get((n, s), [])
        return ({basis.b_words[k]: c for k, c in b.items()},
                {labels[k]: c for k, c in r.items()}, u)

    def reduce_cocycle(self, cochain: dict[int, int]) -> dict[str, int]:
        """Class of a homogeneous cocycle given as {code: coeff}.

        Raises if the cochain is not a cocycle, that is when it has a
        nonzero coordinate on U.
        """
        _, classes, u = self.split(cochain)
        if u:
            raise ValueError("vector is not a cocycle modulo boundaries in this block")
        return classes

    def cup(self, label1: str, label2: str) -> dict[str, int]:
        """Cup product of two classes via concatenation of representatives."""
        r1 = self.representative(label1)
        r2 = self.representative(label2)
        n1, _, _ = self.block_of[label1]
        n2, _, _ = self.block_of[label2]
        if n1 + n2 > self.bar.cap - 1:
            raise ValueError("cup product lands beyond the reported range")
        return self.reduce_cocycle(self.bar.concat(r1, r2))


def build_bar(algebra: GradedGroupAlgebra, cap: int,
              budget: int = DEFAULT_WORD_BUDGET) -> BarComplex:
    return BarComplex(algebra, cap, budget)


class Restriction:
    """Cochain-level restriction along an algebra inclusion, plus the map
    it induces on cohomology.

    For f: A -> B the dual map sends a word over B-letters to words over
    A-letters through the transpose of f on the reduced ideals; it commutes
    with both differentials, which is verified on the letters at
    construction.
    """

    def __init__(self, high: BarComplex, low: BarComplex, fmap: AlgebraMap):
        if fmap.source is not low.algebra or fmap.target is not high.algebra:
            raise ValueError("restriction needs fmap: low.algebra -> high.algebra")
        if high.cap != low.cap:
            raise ValueError("bar caps must match")
        self.high = high
        self.low = low
        # transpose of f restricted to the reduced ideals
        self.tcol: dict[int, dict[int, int]] = {u: {} for u in high.letters}
        for low_letter in low.letters:
            for high_idx, c in fmap.columns[low_letter].items():
                if high_idx == high.algebra.unit_index:
                    raise ValueError("algebra map does not preserve the ideal")
                self.tcol[high_idx][low_letter] = c
        self._check_commutes()

    def cochain_image(self, code: int) -> dict[int, int]:
        """Image of one high word, letter by letter through the transpose
        of f: its high letters decode, its low words encode."""
        p, bits = self.low.field.p, self.low.bits
        acc = {0: 1}
        for u in self.high.decode(code):
            col = self.tcol[u]
            acc = {(prefix << bits) | lo: c * c2 % p
                   for prefix, c in acc.items() for lo, c2 in col.items()
                   if c * c2 % p}
            if not acc:
                return {}
        return acc

    def _apply_to_cochain(self, cochain: dict[int, int]) -> dict[int, int]:
        p = self.low.field.p
        out: dict[int, int] = {}
        for w, c in cochain.items():
            vec_add_scaled(out, self.cochain_image(w), c, p)
        return out

    def _check_commutes(self) -> None:
        """Check d_low R = R d_high on the one-letter words; that proves it
        on every word of every length.

        R is multiplicative for concatenation, R(w1 w2) = R(w1) R(w2), and
        preserves length.  d is a derivation of concatenation on both
        sides, d(w1 w2) = d(w1) w2 + (-1)^|w1| w1 d(w2), so D = d_low R and
        D = R d_high both satisfy

            D(w1 w2) = D(w1) R(w2) + (-1)^|w1| R(w1) D(w2).

        Both vanish on the empty word.  If they agree on every letter, then
        by induction on length they agree on every word, since each word of
        length >= 2 is a letter followed by a shorter word.
        """
        for u in self.high.letters:
            lhs = self._apply_to_cochain(self.high._d_packed(u, 1))
            if lhs != self.low.d_cochain(self.cochain_image(u)):
                raise AssertionError(
                    f"restriction does not commute with d on letter {u}")

    def on_cohomology(self):
        """BigradedMap from the source cohomology to the target cohomology."""
        hc = self.high.cohomology()
        lc = self.low.cohomology()
        entries: dict[tuple[str, str], int] = {}
        for label in hc.space.labels():
            rep = hc.representative(label)
            image = self._apply_to_cochain(rep)
            if not image:
                continue
            for lo_label, c in lc.reduce_cocycle(image).items():
                entries[(lo_label, label)] = c
        return BigradedMap(hc.space, lc.space, entries)


def restriction(high: BarComplex, low: BarComplex, fmap: AlgebraMap) -> Restriction:
    return Restriction(high, low, fmap)
