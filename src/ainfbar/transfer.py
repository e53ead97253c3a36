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
the most common kind, skips the first elimination and never eliminates its
own differential.  The R part is the projection, the B part, read on the
source words e_j, is the contracting homotopy, and the representatives are
the inclusion of a strong deformation retraction, with all five side
identities holding exactly.  SDR.split reads both parts from one reduction,
CohomologyData.split, so the engine decomposes each lam once.

The higher operations follow the split recursion

    lam_n = sum over s + t = n of
            (-1)^(sigma(s, t) + (t + 1) * D_L) mu(h lam_s (x) h lam_t),

with h lam_1 = -incl and D_L the total cohomological degree of the left
inputs; m_n = proj . lam_n.  The split exponent sigma(s, t) = 1 + s is
pinned by the exact associativity ladder tests in the suite; the Koszul
factor comes from moving the degree 1 - t operator h lam_t past the left
inputs.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .bar import BarComplex, CohomologyData
from .grading import BigradedSpace, internal_zero
from .linalg import vec_add_scaled


def sigma(s: int, t: int) -> int:
    """Pinned split-sign exponent of the transfer recursion."""
    return 1 + s


class CapOverflowError(ValueError):
    """The degree cap cannot be served by the bar complex at hand."""


class SDR:
    """Strong deformation retraction of bar cochains onto their cohomology."""

    def __init__(self, bar: BarComplex):
        self.bar = bar

    @property
    def coh(self) -> CohomologyData:
        """The bar's cohomology, computed on first use."""
        return self.bar.cohomology()

    def incl(self, label: str) -> dict[int, int]:
        return dict(self.coh.representative(label))

    def split(self, cochain: dict[int, int]) -> tuple[dict[int, int],
                                                        dict[str, int]]:
        """(htp, proj) of a cochain, from one coordinate solve."""
        return self.coh.split(cochain)[:2]

    def verify_identities(self) -> int:
        """Exact SDR checks on every block basis vector; returns the number
        of vectors checked.  Covers degrees up to cap - 2 so that the
        homotopy one degree up is always available."""
        bar = self.bar
        p = bar.field.p
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
        for label in self.coh.space.labels():
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

    def __init__(self, space: BigradedSpace, arity_cap: int, degree_cap: int):
        self.space = space
        self.field = space.field
        self.arity_cap = arity_cap
        self.degree_cap = degree_cap
        self.ops: dict[int, dict[tuple, dict[str, int]]] = {
            k: {} for k in range(2, arity_cap + 1)}

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


def _max_intermediate(degs: list[int]) -> int:
    """Largest cohomological degree of any transfer intermediate: the best
    contiguous run of (deg - 1) plus 2, over runs of length >= 2."""
    best = None
    n = len(degs)
    for i in range(n - 1):
        run = degs[i] - 1
        for j in range(i + 1, n):
            run += degs[j] - 1
            if best is None or run > best:
                best = run
    return (best if best is not None else 0) + 2


class TransferEngine:
    """Split recursion over an SDR, memoized on label tuples.

    The degree cap bounds every transfer intermediate: the bar complex
    must reach one degree past it, and m refuses a tuple whose
    intermediates would pass it, both with CapOverflowError.
    """

    def __init__(self, sdr: SDR, degree_cap: int):
        if degree_cap > sdr.bar.cap - 1:
            raise CapOverflowError(
                f"degree cap {degree_cap} needs bar words up to length "
                f"{degree_cap + 1}, but the bar complex stops at {sdr.bar.cap}")
        self.sdr = sdr
        self.bar = sdr.bar
        self.p = sdr.bar.field.p
        self.degree_cap = degree_cap
        self.coh = sdr.coh
        self._hl: dict[tuple, dict] = {}
        self._m: dict[tuple, dict[str, int]] = {}

    def _cohdeg(self, label: str) -> int:
        return self.coh.space.degrees(label)[0]

    def hlam(self, labels: tuple) -> dict:
        """h lam of a tuple; above arity 1 the same solve also gives m."""
        got = self._hl.get(labels)
        if got is not None:
            return got
        if len(labels) == 1:
            out = {w: (self.p - c) % self.p
                   for w, c in self.sdr.incl(labels[0]).items()}
        else:
            out, self._m[labels] = self.sdr.split(self.lam(labels))
        self._hl[labels] = out
        return out

    def lam(self, labels: tuple) -> dict:
        n = len(labels)
        p = self.p
        acc: dict = {}
        for cut in range(1, n):
            left, right = labels[:cut], labels[cut:]
            hl = self.hlam(left)
            if not hl:
                continue
            hr = self.hlam(right)
            if not hr:
                continue
            t = n - cut
            d_left = sum(self._cohdeg(l) for l in left)
            exp = sigma(cut, t) + (t + 1) * d_left
            coeff = 1 if exp % 2 == 0 else p - 1
            vec_add_scaled(acc, self.bar.concat(hl, hr), coeff, p)
        return acc

    def m(self, labels: tuple) -> dict[str, int]:
        """m_k on a tuple of k >= 2 labels, read off the solve for h lam."""
        if labels not in self._m:
            top = _max_intermediate([self._cohdeg(l) for l in labels])
            if top > self.degree_cap:
                raise CapOverflowError(
                    f"m_{len(labels)} needs intermediates in degree {top}, "
                    f"past the degree cap {self.degree_cap}")
            self.hlam(labels)
        return self._m[labels]


def transfer(bar: BarComplex, arity_cap: int, degree_cap: int) -> AInfinityStructure:
    """Transfer the bar product to minimal operations m_2 .. m_arity_cap.

    Operations are tabulated on every tuple of class labels whose transfer
    intermediates all stay within degree_cap.  The bar complex must reach
    one degree past the cap, otherwise CapOverflowError.
    """
    if arity_cap < 2:
        raise ValueError("arity cap must be at least 2")
    engine = TransferEngine(SDR(bar), degree_cap)
    coh = engine.coh
    labels = [l for l in coh.space.labels()
              if coh.space.degrees(l)[0] <= degree_cap]
    struct = AInfinityStructure(coh.space, arity_cap, degree_cap)
    p = bar.field.p
    for k in range(2, arity_cap + 1):
        table = struct.ops[k]
        for tup in itertools.product(labels, repeat=k):
            degs = [engine._cohdeg(l) for l in tup]
            if _max_intermediate(degs) > degree_cap:
                continue
            out = engine.m(tup)
            want_coh = sum(degs) + 2 - k
            want_int = internal_zero(p)
            for l in tup:
                want_int = want_int + coh.space.degrees(l)[1]
            for label, c in out.items():
                got = coh.space.degrees(label)
                if got != (want_coh, want_int):
                    raise AssertionError(
                        f"m_{k}{tup} output {label} violates the bidegree")
            table[tup] = out
    return struct


def stasheff_residuals(struct: AInfinityStructure, n: int):
    """Residuals of the arity n associativity relation on all label tuples
    where every needed operation was tabulated.

    Yields (labels, residual) pairs; a correct transfer yields residual {}
    everywhere.  Tuples with any untabulated term are skipped.
    """
    p = struct.field.p
    labels = struct.space.labels()
    for tup in itertools.product(labels, repeat=n):
        residual: dict[str, int] = {}
        usable = True
        for r in range(n - 1):
            for s_len in range(2, n - r + 1):
                t = n - r - s_len
                if r + 1 + t < 2:
                    continue
                inner = struct.op(tup[r:r + s_len])
                if inner is None:
                    usable = False
                    break
                sign_exp = r + s_len * t
                sign_exp += s_len * sum(struct.space.degrees(l)[0]
                                        for l in tup[:r])
                coeff = 1 if sign_exp % 2 == 0 else p - 1
                for mid, c in inner.items():
                    outer_tup = tup[:r] + (mid,) + tup[r + s_len:]
                    outer = struct.op(outer_tup)
                    if outer is None:
                        usable = False
                        break
                    vec_add_scaled(residual, outer, coeff * c, p)
                if not usable:
                    break
            if not usable:
                break
        if usable:
            yield tup, residual


def check_stasheff(struct: AInfinityStructure,
                   max_n: Optional[int] = None) -> tuple[int, list]:
    """Check all associativity relations up to arity cap + 1.

    Returns (number of tuples checked, list of failing tuples).
    """
    top = struct.arity_cap + 1 if max_n is None else max_n
    checked = 0
    failures = []
    for n in range(3, top + 1):
        for tup, residual in stasheff_residuals(struct, n):
            checked += 1
            if residual:
                failures.append((tup, residual))
    return checked, failures
