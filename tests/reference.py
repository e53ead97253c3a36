"""Test-only references, computed the long way for the tests to compare the
library against: the conjugates of a monomial expanded from scratch, the
products of a GradedGroupAlgebra pair by pair, its bar's comultiplication,
kernels by position, the reduced row echelon form by back-substitution,
and the transfer's tabulated tuples and Stasheff residuals by a walk over
every label tuple."""

import itertools
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


def reference_conjugate(images_w: list[dict], exp: tuple[int, ...], caps, p: int) -> dict:
    """The image of X^exp under the algebra map X_j -> images_w[j], from
    scratch: the product of images_w[j]^exp_j, |exp| truncated products.
    With images_w = [rho(w) Y_j] it is rho(w) Y^exp."""
    acc = {tuple(0 for _ in caps): 1}
    for j, e in enumerate(exp):
        for _ in range(e):
            acc = poly_mul(acc, images_w[j], caps, p)
    return acc


def reference_table(alg) -> dict:
    """Nonzero entries {(i, j): e_i e_j}: for each basis pair (X^a w, X^b w2),
    w X^b w^-1 as a product of |b| linear images of the generators through
    the action matrix mod p (reference_conjugate), each term shifted by a,
    its key looked up, and its degree checked as a sum of InternalDegree
    objects."""
    p, caps, r = alg.field.p, alg.caps, alg.spec.rank
    table = {}
    for i, (a, w) in enumerate(alg.basis_keys):
        mat = alg.weyl.matrix(w)
        linear = [{tuple(int(t == k) for t in range(r)): mat[k][j] % p
                   for k in range(r) if mat[k][j] % p} for j in range(r)]
        for j, (b, w2) in enumerate(alg.basis_keys):
            conj = reference_conjugate(linear, b, caps, p)
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


def max_intermediate(degs: list[int]) -> int:
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


def reference_tuples(space, k: int, degree_cap: int) -> list[tuple]:
    """Every k-tuple of labels whose intermediates all stay within the cap,
    in itertools.product order over the labels."""
    return [tup for tup in itertools.product(space.labels(), repeat=k)
            if max_intermediate([space.degrees(l)[0] for l in tup]) <= degree_cap]


def reference_stasheff_residuals(struct, n: int) -> list[tuple]:
    """(labels, residual) of the arity n associativity relation on every
    label tuple in product order where each term read is tabulated."""
    p = struct.field.p
    found = []
    for tup in itertools.product(struct.space.labels(), repeat=n):
        residual: dict = {}
        usable = True
        for r in range(n - 1):
            for s_len in range(2, n - r + 1):
                t = n - r - s_len
                if r + 1 + t < 2 or not usable:
                    continue
                inner = struct.op(tup[r:r + s_len])
                if inner is None:
                    usable = False
                    continue
                sign_exp = r + s_len * t
                sign_exp += s_len * sum(struct.space.degrees(l)[0] for l in tup[:r])
                coeff = 1 if sign_exp % 2 == 0 else p - 1
                for mid, c in inner.items():
                    outer = struct.op(tup[:r] + (mid,) + tup[r + s_len:])
                    if outer is None:
                        usable = False
                        break
                    vec_add_scaled(residual, outer, coeff * c, p)
        if usable:
            found.append((tup, residual))
    return found
