"""Bigraded bookkeeping: cohomological degree plus an internal Z[1/p] weight.

Internal degrees are exact rationals a / p^e kept in lowest terms with
respect to p.  Basis degrees are always non-negative; the arithmetic also
accepts negative numerators.
"""

from __future__ import annotations

from typing import Iterable

from .linalg import PrimeField


class InternalDegree:
    """Exact element of Z[1/p], stored as num / p^pexp in lowest terms."""

    __slots__ = ("p", "num", "pexp")

    def __init__(self, p: int, num: int, pexp: int = 0):
        if pexp < 0:
            raise ValueError("pexp must be >= 0")
        while pexp > 0 and num % p == 0:
            num //= p
            pexp -= 1
        self.p = p
        self.num = num
        self.pexp = pexp

    def _check(self, other: "InternalDegree") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed primes {self.p} and {other.p}")

    def __add__(self, other: "InternalDegree") -> "InternalDegree":
        self._check(other)
        e = max(self.pexp, other.pexp)
        num = (self.num * self.p ** (e - self.pexp)
               + other.num * self.p ** (e - other.pexp))
        return InternalDegree(self.p, num, e)

    def scaled(self, k: int) -> "InternalDegree":
        return InternalDegree(self.p, self.num * k, self.pexp)

    def __eq__(self, other) -> bool:
        return (isinstance(other, InternalDegree) and self.p == other.p
                and self.num == other.num and self.pexp == other.pexp)

    def __lt__(self, other: "InternalDegree") -> bool:
        self._check(other)
        e = max(self.pexp, other.pexp)
        return (self.num * self.p ** (e - self.pexp)
                < other.num * self.p ** (e - other.pexp))

    def __hash__(self) -> int:
        return hash((self.p, self.num, self.pexp))

    def as_pair(self) -> list[int]:
        """Serialized form [num, pexp]."""
        return [self.num, self.pexp]

    def __str__(self) -> str:
        if self.pexp == 0:
            return str(self.num)
        return f"{self.num}/{self.p}^{self.pexp}" if self.pexp > 1 else f"{self.num}/{self.p}"

    def __repr__(self) -> str:
        return f"InternalDegree({self.p}, {self.num}, {self.pexp})"


def internal_zero(p: int) -> InternalDegree:
    return InternalDegree(p, 0, 0)


class BigradedSpace:
    """Finite-dimensional F_p vector space with a bigraded ordered basis.

    Basis elements are (label, cohdeg, intdeg) with str labels, kept
    sorted by (cohdeg, intdeg, label); labels must be unique.
    """

    def __init__(self, field: PrimeField,
                 basis: Iterable[tuple[str, int, InternalDegree]]):
        items = list(basis)
        for label, _, internal in items:
            if internal.p != field.p:
                raise ValueError("internal degree prime differs from field")
            if internal.num < 0:
                raise ValueError(f"negative internal degree on basis element {label!r}")
        items.sort(key=lambda t: (t[1], t[2], t[0]))
        labels = [t[0] for t in items]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate basis labels")
        self.field = field
        self.basis = items
        self.index = {t[0]: i for i, t in enumerate(items)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def degrees(self, label: str) -> tuple[int, InternalDegree]:
        _, coh, internal = self.basis[self.index[label]]
        return coh, internal

    def labels(self) -> list:
        return [t[0] for t in self.basis]

    def dims_by_cohdeg(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for _, coh, _ in self.basis:
            out[coh] = out.get(coh, 0) + 1
        return out

    def __repr__(self) -> str:
        return f"BigradedSpace(p={self.field.p}, dim={self.dim})"


class BigradedMap:
    """Bidegree-preserving linear map between BigradedSpaces.

    Entries are sparse {(target_label, source_label): coeff}; every entry
    must connect basis elements of the same bidegree.
    """

    def __init__(self, source: BigradedSpace, target: BigradedSpace,
                 entries: dict):
        if source.field != target.field:
            raise ValueError("field mismatch")
        p = source.field.p
        clean = {}
        for (tl, sl), coeff in entries.items():
            coeff %= p
            if not coeff:
                continue
            if source.degrees(sl) != target.degrees(tl):
                raise ValueError(f"entry {sl!r} -> {tl!r} changes the bidegree")
            clean[(tl, sl)] = coeff
        self.source = source
        self.target = target
        self.entries = clean

    def __repr__(self) -> str:
        return f"BigradedMap(nnz={len(self.entries)})"


def doubling_check(space: BigradedSpace) -> tuple[bool, list]:
    """Whether every basis element satisfies cohdeg = 2 * intdeg.

    Returns (ok, violating labels in basis order).
    """
    p = space.field.p
    bad = []
    for label, coh, internal in space.basis:
        if not internal.scaled(2) == InternalDegree(p, coh):
            bad.append(label)
    return (not bad, bad)
