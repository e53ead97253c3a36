"""Torus cohomology models, Weyl invariants, and formality certificates.

The model of H*(BT;F_p) at a finite level is the free graded-commutative
algebra on classes t_i in bidegree (1, 1/p^{n_i}) and x_i in (2, 1); at the
colimit the exterior classes die under restriction and only the polynomial
part survives.  The Weyl action on these generators is the inverse transpose
of the action on the torus generator slice (the x_i transform like the t_i
by Bockstein naturality).  Everything downstream is exact F_p linear algebra
per (cohomological, internal) block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Union

from .bar import DEFAULT_WORD_BUDGET, build_bar
from .grading import (
    BigradedSpace, InternalDegree, doubling_check, internal_zero,
)
from .groups import (
    GroupSpec, SpecError, build_group_algebra, canonical_spec,
    parse_group_spec, realize_weyl,
)
from .linalg import Eliminator, PrimeField, column_echelon, vec_add_scaled
from .transfer import AInfinityStructure

# a monomial is (exterior mask over t_1..t_r, exponent tuple over x_1..x_r)
Mono = tuple[tuple[int, ...], tuple[int, ...]]


class TorusModel:
    """Lambda(t_i) (x) F_p[x_i] with its Weyl action, truncated by degree.

    Accepts finite and colimit specs; colimit factors contribute no t class.
    Monomial bases are enumerated per cohomological degree up to the
    truncation and refined by internal degree, which the action preserves.
    """

    def __init__(self, spec: Union[GroupSpec, str], truncation: int):
        if isinstance(spec, str):
            spec = parse_group_spec(spec)
        if truncation < 0:
            raise ValueError("truncation must be >= 0")
        self.spec = spec
        self.p = spec.p
        self.field = PrimeField(spec.p)
        self.rank = spec.rank
        self.truncation = truncation
        self.weyl = realize_weyl(spec)
        self._tdeg = [None if d is None else InternalDegree(spec.p, 1, d)
                      for d in spec.depths]
        self._action = [self._dual_matrix(w) for w in range(self.weyl.size)]
        self._monos: dict[int, list[Mono]] = {}

    def _dual_matrix(self, w: int):
        # contravariant action on generators: transpose of the w^{-1} matrix
        a_inv = self.weyl.matrix(self.weyl.inverse(w))
        r = self.rank
        return tuple(tuple(a_inv[i][k] % self.p for i in range(r))
                     for k in range(r))

    @property
    def subject(self) -> str:
        return canonical_spec(self.spec)

    # -- monomial basis ---------------------------------------------------

    def monomials(self, cohdeg: int) -> list[Mono]:
        if cohdeg in self._monos:
            return self._monos[cohdeg]
        # an exterior mask has no t slot at colimit depth
        t_ranges = [range(1 if t is None else 2) for t in self._tdeg]
        out = sorted((eps, exp) for eps in itertools.product(*t_ranges)
                     for exp in itertools.product(range(cohdeg // 2 + 1), repeat=self.rank)
                     if sum(eps) + 2 * sum(exp) == cohdeg)
        self._monos[cohdeg] = out
        return out

    def mono_degrees(self, m: Mono) -> tuple[int, InternalDegree]:
        eps, exp = m
        coh = sum(eps) + 2 * sum(exp)
        s = internal_zero(self.p)
        for i, e in enumerate(eps):
            if e:
                s = s + self._tdeg[i]
        total_x = sum(exp)
        if total_x:
            s = s + InternalDegree(self.p, total_x)
        return coh, s

    def label(self, m: Mono) -> str:
        eps, exp = m
        parts = [f"t{i + 1}" for i in range(self.rank) if eps[i]]
        for j, e in enumerate(exp):
            if e == 1:
                parts.append(f"x{j + 1}")
            elif e > 1:
                parts.append(f"x{j + 1}^{e}")
        return "*".join(parts) if parts else "1"

    def blocks(self, cohdeg: int) -> list[tuple[InternalDegree, list[Mono]]]:
        by_s: dict[InternalDegree, list[Mono]] = {}
        for m in self.monomials(cohdeg):
            by_s.setdefault(self.mono_degrees(m)[1], []).append(m)
        return [(s, by_s[s]) for s in sorted(by_s)]

    # -- algebra structure and the action ---------------------------------

    def multiply(self, u: dict[Mono, int], v: dict[Mono, int]) -> dict[Mono, int]:
        """Sign-correct product; t_i are odd, x_i even."""
        p, r = self.p, self.rank
        out: dict[Mono, int] = {}
        for (e1, x1), c1 in u.items():
            for (e2, x2), c2 in v.items():
                if any(a and b for a, b in zip(e1, e2)):
                    continue
                swaps = sum(1 for i in range(r) if e1[i]
                            for j in range(i) if e2[j])
                coeff = c1 * c2 * (-1 if swaps % 2 else 1)
                mono = (tuple(a | b for a, b in zip(e1, e2)),
                        tuple(a + b for a, b in zip(x1, x2)))
                vec_add_scaled(out, {mono: 1}, coeff, p)
        return out

    def act_mono(self, w: int, m: Mono) -> dict[Mono, int]:
        """Image of a basis monomial under the w action, expanded."""
        r = self.rank
        B = self._action[w]
        eps, exp = m
        result: dict[Mono, int] = {((0,) * r, (0,) * r): 1}
        for i in range(r):
            if eps[i]:
                img = {(tuple(1 if t == k else 0 for t in range(r)),
                        (0,) * r): B[k][i]
                       for k in range(r) if B[k][i]}
                result = self.multiply(result, img)
        for j in range(r):
            img = {((0,) * r, tuple(1 if t == k else 0 for t in range(r))):
                   B[k][j] for k in range(r) if B[k][j]}
            for _ in range(exp[j]):
                result = self.multiply(result, img)
        return result


# -- invariants ------------------------------------------------------------

@dataclass
class InvariantReport:
    """Weyl-fixed subspaces per degree, with an RREF basis and the minimal
    generators found below the truncation (complete through that degree)."""
    subject: str
    truncation: int
    dims: list[int]
    basis: dict[int, list[dict[str, int]]]
    minimal_generators: list[tuple[int, dict[str, int]]]
    space: BigradedSpace = field(repr=False)


def invariant_dims(model: TorusModel) -> InvariantReport:
    """Averaging-projector invariants of the Weyl action, degreewise.

    The Reynolds projector P = (1/|W|) sum_w w is assembled per bidegree
    block and checked idempotent as a matrix.  The invariants are its
    image, the kernel of P - 1, and the basis is that kernel in RREF:
    column_echelon reads the columns of P - 1 from the last monomial to
    the first, so column j is free exactly when some invariant has
    smallest index j, and its kernel has a 1 at j, no entry below j and
    0 at every other free column, which is the unique RREF.  Each basis
    vector is labelled by its smallest monomial.
    Minimal generators are the invariant basis vectors not spanned by
    products of lower-degree invariants.
    """
    p = model.p
    order = model.weyl.size
    inv_order = pow(order, -1, p)  # GroupSpec refuses |W| not prime to p
    dims: list[int] = []
    basis: dict[int, list[dict[str, int]]] = {}
    by_degree: dict[int, list[dict[Mono, int]]] = {}
    space_basis = []
    for d in range(model.truncation + 1):
        vecs: list[dict[Mono, int]] = []
        basis[d] = []
        for s, monos in model.blocks(d):
            index = {m: i for i, m in enumerate(monos)}
            cols: list[dict[int, int]] = [{} for _ in monos]
            for w in range(order):
                for j, m in enumerate(monos):
                    image = {index[m2]: c for m2, c in model.act_mono(w, m).items()}
                    vec_add_scaled(cols[j], image, inv_order, p)
            for col in cols:
                image = {}
                for k, c in col.items():
                    vec_add_scaled(image, cols[k], c, p)
                if image != col:
                    raise ArithmeticError("averaging projector is not idempotent")
            kernels = list(column_echelon(
                Eliminator(model.field),
                ((j, {**cols[j], j: cols[j].get(j, 0) - 1})
                 for j in reversed(range(len(monos))))))
            for row in reversed(kernels):
                vec = {monos[c]: coeff for c, coeff in row.items()}
                vecs.append(vec)
                basis[d].append({model.label(m): c for m, c in sorted(vec.items())})
                space_basis.append((model.label(monos[min(row)]), d, s))
        dims.append(len(vecs))
        by_degree[d] = vecs
    gens: list[tuple[int, dict[str, int]]] = []
    elim = Eliminator(model.field)
    for d in range(1, model.truncation + 1):
        for a in range(1, d // 2 + 1):
            for u in by_degree[a]:
                for v in by_degree[d - a]:
                    elim.add_row(model.multiply(u, v))
        for vec in by_degree[d]:
            if elim.reduce(vec):
                gens.append((d, {model.label(m): c
                                 for m, c in sorted(vec.items())}))
                elim.add_row(vec)
    return InvariantReport(model.subject, model.truncation, dims, basis,
                           gens, BigradedSpace(model.field, space_basis))


# -- finite level versus invariants ----------------------------------------

@dataclass
class ComparisonReport:
    spec: str
    max_degree: int
    bar_dims: list[int]
    invariant_dims: list[int]
    mismatches: list[tuple[int, int, int]]

    @property
    def agree(self) -> bool:
        return not self.mismatches


def compare_finite_vs_invariants(spec: Union[GroupSpec, str], max_degree: int,
                                 budget: int = DEFAULT_WORD_BUDGET) -> ComparisonReport:
    """Bar cohomology of the full group against torus invariants, degreewise.

    The left side eliminates the reduced bar complex of F_p[T x| W]; the
    right side never sees the group algebra, only the symbolic torus model
    and the averaging projector, so agreement is a genuine cross-check.
    """
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    if spec.colimit:
        raise SpecError("comparison needs a finite-level spec")
    alg = build_group_algebra(spec)
    bar = build_bar(alg, max_degree + 1, budget)
    bar_dims = [sum(bar.dims(n).values()) for n in range(max_degree + 1)]
    report = invariant_dims(TorusModel(spec, max_degree))
    mism = [(d, bar_dims[d], report.dims[d])
            for d in range(max_degree + 1) if bar_dims[d] != report.dims[d]]
    return ComparisonReport(canonical_spec(spec), max_degree, bar_dims,
                            report.dims, mism)


# -- witnesses and certificates ---------------------------------------------

@dataclass(frozen=True)
class Witness:
    arity: int
    inputs: tuple[str, ...]
    output: str
    scalar: int


def nonformality_witness(struct: AInfinityStructure) -> Optional[Witness]:
    """First nonzero higher operation in (arity, inputs, output) order."""
    for k in sorted(struct.ops):
        if k < 3:
            continue
        for labels in sorted(struct.ops[k]):
            out = struct.ops[k][labels]
            if out:
                lead = min(out)
                return Witness(k, labels, lead, out[lead])
    return None


CERTIFIED = "certified-formal"
NOT_APPLICABLE = "not-applicable"
WITNESSED = "nonformal-witness"

_DOUBLING_DERIVATION = (
    "every basis class satisfies cohomological degree = 2 x internal degree; "
    "an operation m_i preserves internal degree, so its output would sit in "
    "cohomological degree sum(d_j) + 2 - i and also 2 sum(s_j) = sum(d_j), "
    "forcing i = 2; all higher operations vanish identically."
)


@dataclass
class FormalityCertificate:
    """Outcome of the degree-doubling argument on one bigraded basis.

    certified-formal is issued exactly when doubling holds on every class;
    otherwise the violators are listed and the verdict is not-applicable
    (the argument says nothing).  A witness verdict records an explicit
    nonzero higher operation instead.
    """
    subject: str
    table: list[tuple[str, int, list[int]]]
    verdict: str
    violators: list[str]
    derivation: str
    witness: Optional[Witness] = None


def _degree_table(space: BigradedSpace) -> list[tuple[str, int, list[int]]]:
    return [(str(label), coh, internal.as_pair())
            for label, coh, internal in space.basis]


def certify_by_doubling(space: BigradedSpace,
                        subject: str = "bigraded space") -> FormalityCertificate:
    ok, bad = doubling_check(space)
    table = _degree_table(space)
    if ok:
        return FormalityCertificate(subject, table, CERTIFIED, [],
                                    _DOUBLING_DERIVATION)
    labels = [str(b) for b in bad]
    shown = ", ".join(labels[:4]) + (", ..." if len(labels) > 4 else "")
    return FormalityCertificate(
        subject, table, NOT_APPLICABLE, labels,
        f"doubling fails on {shown}: the degree argument does not apply "
        "at this level")


def witness_certificate(space: BigradedSpace, witness: Witness,
                        subject: str = "bigraded space") -> FormalityCertificate:
    inputs = ", ".join(witness.inputs)
    return FormalityCertificate(
        subject, _degree_table(space), WITNESSED, [],
        f"m_{witness.arity}({inputs}) = {witness.scalar} * {witness.output} "
        "is nonzero", witness)


def certificate_for_spec(spec: Union[GroupSpec, str],
                         truncation: int) -> FormalityCertificate:
    """Doubling certificate for the Weyl invariants of a torus model.

    With a trivial action this is the full model, so finite levels with an
    exterior class come back not-applicable, naming t.
    """
    model = TorusModel(spec, truncation)
    report = invariant_dims(model)
    return certify_by_doubling(report.space, model.subject)
