"""Test-only reference products of a GradedGroupAlgebra, computed the long
way, pair by pair, for the tests to compare the library's table and
comultiplication against."""

from ainfbar.groups import poly_mul
from ainfbar.linalg import vec_add_scaled


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
