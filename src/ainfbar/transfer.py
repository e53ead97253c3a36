"""Homotopy transfer from bar cochains to minimal higher operations.

Every internal block C^{n,s} splits as B + R + U: B is spanned by the
images d(e_j) of the pivot words one degree down, read off the block basis
there, R by the chosen class representatives, U by the unit vectors at the
pivot columns of the block's own differential; B + R spans the cocycles.
bar.BlockBasis eliminates only the B + R rows: once in word order, which
picks the representatives from the block's streamed kernels and stops at
the last one, and once with tags in reverse word order, where what is left
of a reduced cochain is exactly its U part (its docstring has the proof).
The class count comes from the cached ranks, so a block without classes,
the most common case, skips the first elimination and never eliminates its
own differential.  The R part is the projection, the B part, read on the
source words e_j, is the contracting homotopy, and the representatives are
the inclusion of a strong deformation retraction, with all five side
identities holding exactly.  SDR is the retract the recursion reads, and
the only object here that touches the bar; SDR.split reads both parts from
one reduction, CohomologyData.split, so the engine decomposes each lam once.

The higher operations follow the split recursion

    lam_n = sum over s + t = n of
            (-1)^(sigma(s, t) + (t + 1) * D_L) mu(h lam_s (x) h lam_t),

with h lam_1 = -incl and D_L the total cohomological degree of the left
inputs; m_n = proj . lam_n.  The split exponent sigma(s, t) = 1 + s is
pinned by the exact associativity ladder tests in the suite; the Koszul
factor comes from moving the degree 1 - t operator h lam_t past the left
inputs.

One face rule decides which tuples get an operation: a k-tuple, k >= 2, is
tabulated exactly when both its faces tup[:-1] and tup[1:] are (a 1-tuple
always is) and its own intermediate lam_k, of cohomological degree
sum(d) + 2 - k, is within the degree cap.  The rule is exact because every
contiguous run of length >= 2 is the whole tuple or lies in a face.
transfer grows each table from the one below by it, the Stasheff check
visits the same join one arity up, and the engine solves a tuple once both
its faces are solved, from an explicit stack, so nothing recurses.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .bar import BarComplex
from .grading import BigradedSpace
from .linalg import vec_add_scaled


def sigma(s: int, t: int) -> int:
    """Pinned split-sign exponent of the transfer recursion."""
    return 1 + s


class CapOverflowError(ValueError):
    """The degree cap cannot be served by the bar complex at hand."""


class SDR:
    """Strong deformation retraction of bar cochains onto their cohomology.
    The transfer reads its space, p, reach (the top degree with a homotopy),
    incl, split and product (the bar's concatenation), and nothing else."""

    def __init__(self, bar: BarComplex):
        self.bar = bar
        self.p = bar.field.p
        self.reach = bar.cap - 1
        self.product = bar.concat

    @property
    def space(self) -> BigradedSpace:
        """The cohomology space, computed on first use."""
        return self.bar.cohomology().space

    def incl(self, label: str) -> dict[int, int]:
        return dict(self.bar.cohomology().representative(label))

    def split(self, cochain: dict[int, int]) -> tuple[dict[int, int],
                                                        dict[str, int]]:
        """(htp, proj) of a cochain, from one coordinate solve."""
        return self.bar.cohomology().split(cochain)[:2]

    def verify_identities(self) -> int:
        """Exact SDR checks on every block basis vector; returns the number
        of vectors checked.  Covers degrees up to cap - 2 so that the
        homotopy one degree up is always available."""
        bar, p = self.bar, self.p
        checked = 0
        for n in range(bar.cap - 1):
            for words in bar.blocks(n).values():
                for w in words:
                    he, pe = self.split({w: 1})
                    # d h + h d = 1 - incl proj
                    lhs = bar.d_cochain(he)
                    vec_add_scaled(lhs, self.split(bar.d_cochain({w: 1}))[0], 1, p)
                    rhs = {w: 1}
                    for label, c in pe.items():
                        vec_add_scaled(rhs, self.incl(label), p - c, p)
                    if lhs != rhs:
                        raise AssertionError(f"homotopy identity fails on {w}")
                    if self.split(he) != ({}, {}):
                        raise AssertionError(f"h h or proj h != 0 on {w}")
                    checked += 1
        for label in self.space.labels():
            rep = self.incl(label)
            if bar.d_cochain(rep):
                raise AssertionError(f"d incl != 0 on {label}")
            if self.split(rep) != ({}, {label: 1}):
                raise AssertionError(f"h incl != 0 or proj incl != id on {label}")
        return checked


class AInfinityStructure:
    """Minimal higher operations on the cohomology of a bar complex.

    ops[k][labels] is the output of the arity k operation on a tuple of
    class labels, as {label: coeff}; tuples are present exactly when the
    whole computation stays inside the degree cap, so a missing tuple means
    "not computed", not zero.
    """

    def __init__(self, space: BigradedSpace, arity_cap: int,
                 ops: dict[int, dict[tuple, dict[str, int]]]):
        self.space = space
        self.field = space.field
        self.arity_cap = arity_cap
        self.ops = {k: ops.get(k, {}) for k in range(2, arity_cap + 1)}

    def op(self, labels: tuple) -> Optional[dict[str, int]]:
        k = len(labels)
        if k not in self.ops:
            return None
        return self.ops[k].get(labels)

    def nonzero(self):
        for k in sorted(self.ops):
            for labels, out in self.ops[k].items():
                if out:
                    yield k, labels, out


def _joins(table):
    """Every tuple one longer than the table's whose two faces, tup[:-1] and
    tup[1:], are both in it, ordered by the first face, then the second."""
    nexts: dict[tuple, list] = {}
    for tup in table:
        nexts.setdefault(tup[:-1], []).append(tup[-1])
    for tup in table:
        for label in nexts.get(tup[1:], ()):
            yield tup + (label,)


class TransferEngine:
    """Split recursion over an SDR, memoized on label tuples.

    The degree cap bounds every transfer intermediate: the SDR must reach
    it, and lam refuses a tuple whose own intermediate would pass it, both
    with CapOverflowError; by the face rule that covers every intermediate.
    ops[k][labels] memoizes m on arity k tuples.
    """

    def __init__(self, sdr: SDR, degree_cap: int):
        if degree_cap > sdr.reach:
            raise CapOverflowError(
                f"degree cap {degree_cap} needs bar words up to length "
                f"{degree_cap + 1}, but the bar complex stops at {sdr.reach + 1}")
        self.sdr = sdr
        self.degree_cap = degree_cap
        self._hl: dict[tuple, dict] = {}
        self.ops: dict[int, dict[tuple, dict[str, int]]] = {}

    def hlam(self, labels: tuple) -> dict:
        """h lam of a tuple; above arity 1 the same solve also gives m."""
        memo, p = self._hl, self.sdr.p
        stack = [labels]
        while stack:
            tup = stack[-1]
            if tup in memo:
                stack.pop()
            elif len(tup) == 1:
                memo[tup] = {w: (p - c) % p for w, c in self.sdr.incl(tup[0]).items()}
            else:
                waiting = [face for face in (tup[:-1], tup[1:]) if face not in memo]
                if waiting:
                    stack.extend(waiting)
                    continue
                table = self.ops.setdefault(len(tup), {})
                memo[tup], table[tup] = self.sdr.split(self.lam(tup))
        return memo[labels]

    def lam(self, labels: tuple) -> dict:
        """lam of a tuple whose faces are solved, read off the memo."""
        n, memo = len(labels), self._hl
        p, product, space = self.sdr.p, self.sdr.product, self.sdr.space
        d_lefts = list(itertools.accumulate(space.degrees(l)[0] for l in labels))
        if d_lefts[-1] + 2 - n > self.degree_cap:
            raise CapOverflowError(
                f"an arity {n} intermediate lands in degree {d_lefts[-1] + 2 - n}, "
                f"past the degree cap {self.degree_cap}")
        acc: dict = {}
        for cut in range(1, n):
            hl = memo[labels[:cut]]
            if not hl:
                continue
            t = n - cut
            exp = sigma(cut, t) + (t + 1) * d_lefts[cut - 1]
            coeff = 1 if exp % 2 == 0 else p - 1
            vec_add_scaled(acc, product(hl, memo[labels[cut:]]), coeff, p)
        return acc

    def m(self, labels: tuple) -> dict[str, int]:
        """m_k on a tuple of k >= 2 labels, read off the solve for h lam."""
        self.hlam(labels)
        return self.ops[len(labels)][labels]


def transfer(bar: BarComplex, arity_cap: int, degree_cap: int) -> AInfinityStructure:
    """Transfer the bar product to minimal operations m_2 .. m_arity_cap.

    Operations are tabulated on every tuple of class labels whose transfer
    intermediates all stay within degree_cap.  The bar complex must reach
    one degree past the cap, otherwise CapOverflowError.  ops[k] grows from
    ops[k - 1] by the face rule, carrying each tuple's bidegree.  The tables
    are the engine's memo, filled in product order of the labels.
    """
    if arity_cap < 2:
        raise ValueError("arity cap must be at least 2")
    engine = TransferEngine(SDR(bar), degree_cap)
    space = engine.sdr.space
    degrees = {l: space.degrees(l) for l in space.labels()}
    level = {(l,): degrees[l] for l in degrees}
    for k in range(2, arity_cap + 1):
        grown = {}
        for tup in _joins(level):
            (coh, internal), (d, i) = level[tup[:-1]], degrees[tup[-1]]
            coh, internal = coh + d, internal + i
            if coh + 2 - k > degree_cap:
                continue
            grown[tup] = coh, internal
            for out in engine.m(tup):
                if degrees[out] != (coh + 2 - k, internal):
                    raise AssertionError(
                        f"m_{k}{tup} output {out} violates the bidegree")
        level = grown
    return AInfinityStructure(space, arity_cap, engine.ops)


def _residual(struct: AInfinityStructure, tup: tuple):
    """The associativity residual on tup, or None if an outer term is
    untabulated; every inner term is, once both faces of tup are."""
    n, p, space = len(tup), struct.field.p, struct.space
    before = list(itertools.accumulate((space.degrees(l)[0] for l in tup), initial=0))
    residual: dict[str, int] = {}
    for r in range(n - 1):
        for s_len in range(2, n - r + 1):
            t = n - r - s_len
            if r + 1 + t < 2:
                continue
            exp = r + s_len * (t + before[r])
            coeff = 1 if exp % 2 == 0 else p - 1
            for mid, c in struct.ops[s_len][tup[r:r + s_len]].items():
                outer = struct.op(tup[:r] + (mid,) + tup[r + s_len:])
                if outer is None:
                    return None
                vec_add_scaled(residual, outer, coeff * c, p)
    return residual


def stasheff_residuals(struct: AInfinityStructure, n: int):
    """Residuals of the arity n associativity relation on every tuple whose
    faces are tabulated at arity n - 1, skipping a tuple with an untabulated
    outer term.

    Yields (labels, residual) pairs; a correct transfer yields residual {}
    everywhere.
    """
    for tup in _joins(struct.ops[n - 1]):
        residual = _residual(struct, tup)
        if residual is not None:
            yield tup, residual


def check_stasheff(struct: AInfinityStructure) -> tuple[int, list]:
    """Check all associativity relations up to arity cap + 1.

    Returns (number of tuples checked, list of failing tuples).
    """
    checked = 0
    failures = []
    for n in range(3, struct.arity_cap + 2):
        for tup, residual in stasheff_residuals(struct, n):
            checked += 1
            if residual:
                failures.append((tup, residual))
    return checked, failures
