"""Bigraded bookkeeping: cohomological degree plus an internal Z[1/p] weight.

Internal degrees are exact rationals a / p^e kept in lowest terms with
respect to p.  Basis degrees are always non-negative; negative numerators
are permitted only so that map shifts can be signed.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from .linalg import PrimeField, vec_add_scaled


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

    def __sub__(self, other: "InternalDegree") -> "InternalDegree":
        self._check(other)
        e = max(self.pexp, other.pexp)
        num = (self.num * self.p ** (e - self.pexp)
               - other.num * self.p ** (e - other.pexp))
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

    def __le__(self, other: "InternalDegree") -> bool:
        return self == other or self < other

    def __hash__(self) -> int:
        return hash((self.p, self.num, self.pexp))

    def is_zero(self) -> bool:
        return self.num == 0

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

    Basis elements are (label, cohdeg, intdeg) with hashable labels, kept
    sorted by (cohdeg, intdeg, label); labels must be unique.
    """

    def __init__(self, field: PrimeField,
                 basis: Iterable[tuple[Hashable, int, InternalDegree]]):
        items = list(basis)
        for label, coh, internal in items:
            if internal.p != field.p:
                raise ValueError("internal degree prime differs from field")
            if internal.num < 0:
                raise ValueError(f"negative internal degree on basis element {label!r}")
        items.sort(key=lambda t: (t[1], _DegKey(t[2]), _LabelKey(t[0])))
        labels = [t[0] for t in items]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate basis labels")
        self.field = field
        self.basis = items
        self.index = {t[0]: i for i, t in enumerate(items)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def degrees(self, label: Hashable) -> tuple[int, InternalDegree]:
        _, coh, internal = self.basis[self.index[label]]
        return coh, internal

    def labels(self) -> list:
        return [t[0] for t in self.basis]

    def dims_by_cohdeg(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for _, coh, _ in self.basis:
            out[coh] = out.get(coh, 0) + 1
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, BigradedSpace) and self.field == other.field
                and self.basis == other.basis)

    def __repr__(self) -> str:
        return f"BigradedSpace(p={self.field.p}, dim={self.dim})"


class _DegKey:
    __slots__ = ("deg",)

    def __init__(self, deg: InternalDegree):
        self.deg = deg

    def __lt__(self, other: "_DegKey") -> bool:
        return self.deg < other.deg

    def __eq__(self, other) -> bool:
        return self.deg == other.deg


class _LabelKey:
    """Total order on mixed hashable labels: by type name, then value."""

    __slots__ = ("label",)

    def __init__(self, label):
        self.label = label

    def _rank(self):
        lab = self.label
        if isinstance(lab, tuple):
            return (1, tuple(_LabelKey(x)._rank() for x in lab))
        if isinstance(lab, str):
            return (0, lab)
        if isinstance(lab, int):
            return (0, str(lab))
        return (2, repr(lab))

    def __lt__(self, other: "_LabelKey") -> bool:
        return self._rank() < other._rank()

    def __eq__(self, other) -> bool:
        return self._rank() == other._rank()


class BigradedMap:
    """Graded linear map between BigradedSpaces with a fixed bidegree shift.

    Entries are sparse {(target_label, source_label): coeff}; every entry
    must connect basis elements whose bidegrees differ by exactly
    (coh_shift, int_shift).
    """

    def __init__(self, source: BigradedSpace, target: BigradedSpace,
                 coh_shift: int, int_shift: InternalDegree,
                 entries: dict):
        if source.field != target.field:
            raise ValueError("field mismatch")
        p = source.field.p
        clean = {}
        for (tl, sl), coeff in entries.items():
            coeff %= p
            if not coeff:
                continue
            sc, ss = source.degrees(sl)
            tc, ts = target.degrees(tl)
            if tc - sc != coh_shift or (ts - ss) != int_shift:
                raise ValueError(
                    f"entry {sl!r} -> {tl!r} violates shift ({coh_shift}, {int_shift})")
            clean[(tl, sl)] = coeff
        self.source = source
        self.target = target
        self.coh_shift = coh_shift
        self.int_shift = int_shift
        self.entries = clean

    def apply(self, v: dict) -> dict:
        """Apply to {source_label: coeff}."""
        p = self.source.field.p
        cols: dict = {}
        for (tl, sl), coeff in self.entries.items():
            cols.setdefault(sl, {})[tl] = coeff
        out: dict = {}
        for sl, c in v.items():
            col = cols.get(sl)
            if col:
                vec_add_scaled(out, col, c, p)
        return out

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (isinstance(other, BigradedMap)
                and self.source == other.source and self.target == other.target
                and self.coh_shift == other.coh_shift
                and self.int_shift == other.int_shift
                and self.entries == other.entries)

    def __repr__(self) -> str:
        return (f"BigradedMap(shift=({self.coh_shift}, {self.int_shift}), "
                f"nnz={len(self.entries)})")


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
