"""Test-only references, computed the long way for the tests to compare the
library against: the products of a GradedGroupAlgebra pair by pair, its
bar's comultiplication, kernels by position, and the reduced row echelon
form by back-substitution."""

from typing import Iterable

from ainfbar.groups import poly_mul
from ainfbar.linalg import Eliminator, PrimeField, vec_add_scaled, vec_scale


def reference_product(alg, u: dict, v: dict) -> dict:
    """u v for u, v given as {basis index: coeff}, by bilinearity."""
    p = alg.field.p
    out: dict = {}
    for i, ci in u.items():
        for j, cj in v.items():
            vec_add_scaled(out, alg.mult(i, j), ci * cj, p)
    return out


def reference_table(alg) -> dict:
    """Nonzero entries {(i, j): e_i e_j}: for each basis pair (X^a w, X^b w2),
    w X^b w^-1 as a product of |b| linear images of the generators through
    the action matrix mod p, each term shifted by a, its key looked up, and
    its degree checked as a sum of InternalDegree objects."""
    p, caps, r = alg.field.p, alg.caps, alg.spec.rank
    table = {}
    for i, (a, w) in enumerate(alg.basis_keys):
        mat = alg.weyl.matrix(w)
        linear = [{tuple(int(t == k) for t in range(r)): mat[k][j] % p
                   for k in range(r) if mat[k][j] % p} for j in range(r)]
        for j, (b, w2) in enumerate(alg.basis_keys):
            conj = {tuple([0] * r): 1}
            for t, e in enumerate(b):
                for _ in range(e):
                    conj = poly_mul(conj, linear[t], caps, p)
            out: dict = {}
            for m, c in conj.items():
                e = tuple(x + y for x, y in zip(a, m))
                if all(x < cap for x, cap in zip(e, caps)):
                    k = alg.index[(e, alg.weyl.mult(w, w2))]
                    assert alg.degree(k) == alg.degree(i) + alg.degree(j)
                    out[k] = (out.get(k, 0) + c) % p
            out = {k: c for k, c in out.items() if c}
            if out:
                table[(i, j)] = out
    return table


def letter_vector(alg, u: int) -> dict:
    """Reduced-ideal letter u as an algebra element: e_u, or w - 1 when e_u
    is an element w of W."""
    a, w = alg.basis_keys[u]
    if not any(a) and w != 0:
        return {u: 1, alg.unit_index: alg.field.p - 1}
    return {u: 1}


def reference_iota_product(alg, a: int, b: int) -> dict:
    """Product of two letters, written on the letters: the unit coefficient
    dropped once the augmentation is checked to be 0."""
    prod = reference_product(alg, letter_vector(alg, a), letter_vector(alg, b))
    assert sum(c for k, c in prod.items() if alg.augmentation(k)) % alg.field.p == 0
    return {k: c for k, c in prod.items() if k != alg.unit_index}


def reference_comult(bar) -> dict:
    """{letter u: [(a, b, c_ab^u)]}, pairs (a, b) in lex order."""
    comult = {u: [] for u in bar.letters}
    for a in bar.letters:
        for b in bar.letters:
            for u, c in reference_iota_product(bar.algebra, a, b).items():
                comult[u].append((a, b, c))
    return comult


def reference_column_echelon(field, columns, height):
    """Pivot positions and free-variable kernels, keyed by position, with
    row i stored at height - 1 - i and column j tagged at height + j."""
    p = field.p
    top = height - 1
    elim = Eliminator(field)
    pivots, kernels = [], []
    for j, col in enumerate(columns):
        row = {top - i: c % p for i, c in col.items() if c % p}
        row[height + j] = 1
        if min(row) in elim.pivots:
            row = elim._reduce(row)
        if min(row) < height:
            elim.add_row(row)
            pivots.append(j)
        else:
            kernels.append({t - height: c for t, c in row.items()})
    return pivots, kernels


def reference_forward_stream(bar, n, s, targets=None):
    """Pivot words and kernels of block (n, s), as one full forward stream
    of the block's differential would give them: reference_column_echelon
    over the images of its words in lex order, each target word at its
    position in targets, by default the lex-ordered words the images
    reach."""
    words = bar.blocks(n).get(s, [])
    images = [bar.d_cochain({w: 1}) for w in words]
    if targets is None:
        targets = sorted({t for image in images for t in image})
    index = {t: i for i, t in enumerate(targets)}
    pivots, kernels = reference_column_echelon(
        bar.field, [{index[t]: c for t, c in image.items()} for image in images],
        len(targets))
    return ([words[j] for j in pivots],
            [{words[j]: c for j, c in k.items()} for k in kernels])


def reference_rref(field: PrimeField, rows: Iterable[dict]) -> list[dict]:
    """Reduced row echelon basis of the span of rows, by pivot column.

    The eliminator's pivot rows are triangular; normalizing each to a
    leading 1 and back-substituting from the last pivot up clears every
    other pivot column, which gives the unique RREF.
    """
    p = field.p
    elim = Eliminator(field)
    for row in rows:
        elim.add_row(row)
    reduced: dict[int, dict] = {}
    for lead in sorted(elim.pivots, reverse=True):
        row = elim.pivots[lead]
        row = vec_scale(row, pow(row[lead], -1, p), p)
        for col in [c for c in row if c in reduced]:
            vec_add_scaled(row, reduced[col], p - row[col], p)
        reduced[lead] = row
    return [reduced[lead] for lead in sorted(reduced)]
