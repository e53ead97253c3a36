"""Graded group algebras of finite p-torus approximations with coprime twists.

A depth-n approximation of a rank-r p-torus is mu_{p^{n_1}} x .. x mu_{p^{n_r}};
its mod-p group algebra is the truncated polynomial ring
F_p[X_1..X_r]/(X_i^{p^{n_i}}) on X_i = g_i - 1, graded by the internal weight
|X_i| = 1/p^{n_i}.  An integer matrix group W of order coprime to p may act on
the torus; conjugation then mixes the naive weights, so the algebra is built
on the canonical W-stable generator lifts obtained by Reynolds-averaging the
naive degree-one projection.  In the lifted monomial basis the multiplication
is genuinely graded again, which is what the bar complex downstream needs.

Group descriptions are parsed from a small grammar:

    spec  := atom | atom "x" spec
    atom  := "cyclic(" p "^" n ")" | "torus(" p "," n "," r ")"
           | "semidirect(" spec "," weyl ")"
    weyl  := "Z" k ":" [[..],..] | "inversion"

with "colimit( ... )" around a spec whose depths are "inf" for the union over
all depths.  "Z k : M" is the cyclic group of order k acting through the
single generator matrix M.  A Weyl action is stored in that one form, the
order k and the generator matrix; "inversion" is the grammar's name for Z2
acting by -identity, read as that matrix and printed back by canonical_spec.
A GroupSpec checks itself and reduces its matrix rowwise when it is built,
however it is built, and GroupSpec.lower() is the one way down a depth.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Optional

from .linalg import Eliminator, PrimeField, vec_add_scaled
from .grading import InternalDegree


class SpecError(ValueError):
    """Malformed or semantically invalid group description."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        super().__init__(message if pos is None else f"{message} (at position {pos})")


# -- spec data model ----------------------------------------------------------

@dataclass(frozen=True)
class WeylSpec:
    """The acting group before realization: Z/k through one generator
    matrix, rowwise-reduced by the GroupSpec that holds it."""
    k: int
    matrix: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class GroupSpec:
    """A torus approximation, one depth per factor, with an optional action.

    Every GroupSpec is valid and reduced from the moment it exists: the
    constructor checks the prime, the depths and the action, and stores
    the action matrix rowwise-reduced, entry (i, j) mod p^{n_i} (mod p at
    infinite depth), so two specs of one group compare equal however
    their matrices were written.  The depths are all finite, a finite
    level, or all None, the colimit.  lower() is the one way down a depth.
    """
    p: int
    depths: tuple[Optional[int], ...]  # one per torus factor; None = colimit
    weyl: Optional[WeylSpec] = None

    def __post_init__(self):
        try:
            PrimeField(self.p)
        except ValueError as exc:
            raise SpecError(str(exc)) from None
        if not self.colimit and (None in self.depths or min(self.depths) < 1):
            raise SpecError("depths must be all >= 1 or all 'inf'")
        w = self.weyl
        if w is None:
            return
        r = self.rank
        if w.k < 1:
            raise SpecError("cyclic action order must be >= 1")
        if math.gcd(w.k, self.p) != 1:
            raise SpecError(f"|W| = {w.k} must be coprime to p = {self.p}")
        if len(w.matrix) != r or any(len(row) != r for row in w.matrix):
            raise SpecError(f"action matrix must be {r}x{r}")
        mods = _row_mods(self)
        reduced = tuple(tuple(e % mods[i] for e in row) for i, row in enumerate(w.matrix))
        object.__setattr__(self, "weyl", WeylSpec(w.k, reduced))
        realize_weyl(self)  # checks the order
        if not self.colimit and self.uniform_depth is None:
            raise SpecError("a weyl action requires all torus depths to be equal")

    @property
    def rank(self) -> int:
        return len(self.depths)

    @property
    def colimit(self) -> bool:
        return all(d is None for d in self.depths)

    @property
    def uniform_depth(self) -> Optional[int]:
        ds = set(self.depths)
        return self.depths[0] if len(ds) == 1 else None

    def lower(self) -> GroupSpec:
        """The same group one depth down in every factor, the source of the
        power inclusion g -> g^p.  g -> g^p turns A acting on Z/p^{n+1}
        into A mod p^n on Z/p^n, since A(px) = p(Ax), so the constructor's
        reduction gives the lower action."""
        if self.colimit or min(self.depths) < 2:
            raise SpecError("going down a depth needs a finite spec with "
                            "depth >= 2 in every factor")
        return GroupSpec(self.p, tuple(d - 1 for d in self.depths), self.weyl)


# -- tokenizer / parser -------------------------------------------------------

_TOKEN_RE = re.compile(r"(?P<ws>\s+)|(?P<name>[A-Za-z]+|∞)|(?P<int>\d+)"
                       r"|(?P<sym>[()^,:\[\]\-])")

_INF_NAMES = {"inf", "infinity", "∞"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise SpecError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, group: str, value: str | None = None):
        k, v, pos = self.next()
        if k != group or (value is not None and v != value):
            want = value if value is not None else group
            raise SpecError(f"expected {want!r}, found {v!r}", pos)
        return v, pos

    def expect_int(self) -> tuple[int, int]:
        k, v, pos = self.next()
        if k != "int":
            raise SpecError(f"expected integer, found {v!r}", pos)
        return int(v), pos

    def depth_token(self) -> tuple[Optional[int], int]:
        k, v, pos = self.next()
        if k == "int":
            return int(v), pos
        if k == "name" and v.lower() in _INF_NAMES:
            return None, pos
        raise SpecError(f"expected depth integer or 'inf', found {v!r}", pos)

    def signed_int(self) -> int:
        k, v, _ = self.peek()
        if k == "sym" and v == "-":
            self.next()
            n, _ = self.expect_int()
            return -n
        n, _ = self.expect_int()
        return n


def _parse_matrix(ps: _Parser) -> tuple[tuple[int, ...], ...]:
    ps.expect("sym", "[")
    rows = []
    while True:
        ps.expect("sym", "[")
        row = [ps.signed_int()]
        while ps.peek()[:2] == ("sym", ","):
            ps.next()
            row.append(ps.signed_int())
        ps.expect("sym", "]")
        rows.append(tuple(row))
        k, v, _ = ps.peek()
        if (k, v) == ("sym", ","):
            ps.next()
            continue
        break
    ps.expect("sym", "]")
    return tuple(rows)


def _parse_weyl(ps: _Parser, rank: int) -> WeylSpec:
    k, v, pos = ps.next()
    if k == "name" and v == "inversion":
        return WeylSpec(2, _scalar_matrix(-1, rank))
    if k == "name" and v == "Z":
        order, _ = ps.expect_int()
        ps.expect("sym", ":")
        return WeylSpec(order, _parse_matrix(ps))
    raise SpecError(f"expected weyl action ('inversion' or 'Z k : matrix'), found {v!r}", pos)


def _parse_atom(ps: _Parser):
    """Returns (p or None, [depths], weyl or None, pos)."""
    k, v, pos = ps.next()
    if k != "name":
        raise SpecError(f"expected group atom, found {v!r}", pos)
    if v == "cyclic":
        ps.expect("sym", "(")
        p, _ = ps.expect_int()
        ps.expect("sym", "^")
        n, _ = ps.depth_token()
        ps.expect("sym", ")")
        return p, [n], None, pos
    if v == "torus":
        ps.expect("sym", "(")
        p, _ = ps.expect_int()
        ps.expect("sym", ",")
        n, _ = ps.depth_token()
        ps.expect("sym", ",")
        r, rpos = ps.expect_int()
        ps.expect("sym", ")")
        if r < 1:
            raise SpecError("torus rank must be >= 1", rpos)
        return p, [n] * r, None, pos
    if v == "semidirect":
        ps.expect("sym", "(")
        p, depths, weyl, _ = _parse_spec_body(ps)
        if weyl is not None:
            raise SpecError("nested semidirect is not supported", pos)
        ps.expect("sym", ",")
        w = _parse_weyl(ps, len(depths))
        ps.expect("sym", ")")
        return p, depths, w, pos
    raise SpecError(f"unknown group atom {v!r}", pos)


def _parse_spec_body(ps: _Parser):
    p, depths, weyl, pos = _parse_atom(ps)
    while ps.peek()[:2] == ("name", "x"):
        ps.next()
        p2, d2, w2, pos2 = _parse_atom(ps)
        if weyl is not None or w2 is not None:
            raise SpecError("semidirect must be the outermost construction", pos2)
        if p2 != p:
            raise SpecError(f"mixed primes {p} and {p2} in one product", pos2)
        depths.extend(d2)
    return p, depths, weyl, pos


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a group description; raises SpecError with a position on bad input."""
    ps = _Parser(text)
    k, v, pos = ps.peek()
    wrapped = (k, v) == ("name", "colimit")
    if wrapped:
        ps.next()
        ps.expect("sym", "(")
        p, depths, weyl, _ = _parse_spec_body(ps)
        ps.expect("sym", ")")
    else:
        p, depths, weyl, _ = _parse_spec_body(ps)
    k, v, pos = ps.peek()
    if k is not None:
        raise SpecError(f"trailing input {v!r}", pos)
    if wrapped != (None in depths):
        raise SpecError("'inf' depths go inside colimit(...), and it takes no other")
    return GroupSpec(p, tuple(depths), weyl)


def canonical_spec(spec: GroupSpec) -> str:
    """Deterministic printer; parse(canonical_spec(s)) describes the same group."""
    def depth_str(d):
        return "inf" if d is None else str(d)
    ds = spec.depths
    if len(set(ds)) == 1:
        if len(ds) == 1:
            inner = f"cyclic({spec.p}^{depth_str(ds[0])})"
        else:
            inner = f"torus({spec.p},{depth_str(ds[0])},{len(ds)})"
    else:
        inner = " x ".join(f"cyclic({spec.p}^{depth_str(d)})" for d in ds)
    w = spec.weyl
    if w is not None:
        inversion = WeylSpec(2, _scalar_matrix(-1, spec.rank))
        if w.k == 2 and spec == GroupSpec(spec.p, ds, inversion):
            wtxt = "inversion"
        else:
            rows = ",".join("[" + ",".join(str(e) for e in row) + "]" for row in w.matrix)
            wtxt = f"Z{w.k}:[{rows}]"
        inner = f"semidirect({inner}, {wtxt})"
    return f"colimit({inner})" if spec.colimit else inner


# -- Weyl group realization ---------------------------------------------------

class WeylGroup:
    """The cyclic group Z/k acting on the torus through one generator matrix.

    Element i is the i-th power of the generator, so element 0 is the
    identity and products and inverses are sums mod k.  Matrices are
    stored rowwise-reduced: entry (i, j) lives mod the order p^{n_i} of the
    i-th coordinate (mod p at infinite depth).
    """

    def __init__(self, matrices: list[tuple[tuple[int, ...], ...]]):
        self.matrices = matrices

    @property
    def size(self) -> int:
        return len(self.matrices)

    def mult(self, i: int, j: int) -> int:
        return (i + j) % self.size

    def inverse(self, i: int) -> int:
        return -i % self.size

    def matrix(self, i: int):
        return self.matrices[i]


def _row_mods(spec: GroupSpec) -> list[int]:
    return [spec.p if d is None else spec.p ** d for d in spec.depths]


def _mat_mul(a, b, mods):
    r = len(a)
    out = []
    for i in range(r):
        row = []
        for j in range(r):
            row.append(sum(a[i][k] * b[k][j] for k in range(r)) % mods[i])
        out.append(tuple(row))
    return tuple(out)


def _scalar_matrix(c: int, r: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(c if i == j else 0 for j in range(r)) for i in range(r))


def realize_weyl(spec: GroupSpec) -> WeylGroup:
    """Build the acting group at this spec's depths (trivial group if none)."""
    ident = _scalar_matrix(1, spec.rank)
    w = spec.weyl
    if w is None:
        return WeylGroup([ident])
    mods, gen = _row_mods(spec), w.matrix
    powers = [ident]
    for _ in range(w.k - 1):
        powers.append(_mat_mul(powers[-1], gen, mods))
    if _mat_mul(powers[-1], gen, mods) != ident:
        raise SpecError(f"action matrix does not have order dividing {w.k} at these depths")
    return WeylGroup(powers)


# -- truncated polynomial helpers ----------------------------------------------

def poly_mul(u: dict, v: dict, caps: tuple[int, ...], p: int) -> dict:
    out: dict = {}
    for a, ca in u.items():
        for b, cb in v.items():
            e = tuple(x + y for x, y in zip(a, b))
            if any(x >= c for x, c in zip(e, caps)):
                continue
            val = (out.get(e, 0) + ca * cb) % p
            if val:
                out[e] = val
            else:
                out.pop(e, None)
    return out


def poly_pow(u: dict, k: int, caps: tuple[int, ...], p: int) -> dict:
    r = len(caps)
    out = {tuple([0] * r): 1}
    for _ in range(k):
        out = poly_mul(out, u, caps, p)
    return out


def _one_plus_gen_pow(i: int, c: int, caps: tuple[int, ...], p: int) -> dict:
    """(1 + Y_i)^c truncated, for c >= 0, by binomial coefficients mod p."""
    r = len(caps)
    out = {}
    for j in range(caps[i]):
        coeff = math.comb(c, j) % p if c >= j else 0
        if c >= j and coeff:
            e = tuple(j if t == i else 0 for t in range(r))
            out[e] = coeff
    return out


def conj_generator_images(weyl: WeylGroup, spec: GroupSpec) -> list[list[dict]]:
    """images[w][j] = expansion of w X_j w^{-1} = prod_i (1+Y_i)^{A_w[i][j]} - 1."""
    caps = tuple(spec.p ** d for d in spec.depths)
    p = spec.p
    r = spec.rank
    zero = tuple([0] * r)
    images = []
    for w in range(weyl.size):
        a = weyl.matrix(w)
        per_gen = []
        for j in range(r):
            acc = {zero: 1}
            for i in range(r):
                acc = poly_mul(acc, _one_plus_gen_pow(i, a[i][j], caps, p), caps, p)
            acc.pop(zero, None)  # subtract 1; group-like, so constant term was 1
            per_gen.append(acc)
        images.append(per_gen)
    return images


def _conj_monomial(images_w: list[dict], exp: tuple[int, ...],
                   caps: tuple[int, ...], p: int) -> dict:
    r = len(caps)
    acc = {tuple([0] * r): 1}
    for j, e in enumerate(exp):
        for _ in range(e):
            acc = poly_mul(acc, images_w[j], caps, p)
    return acc


# -- equivariant splitting ------------------------------------------------------

def equivariant_splitting(spec: GroupSpec) -> dict[int, list[dict]]:
    """Reynolds-averaged W-stable lifts of the degree-one generators, as
    {level: lifts} for levels 1..depth.  lifts[i] is a dict {exponent
    tuple: coeff} over the level's monomial basis, congruent to Y_i modulo
    the square of the augmentation ideal.

    The projector pi = |W|^{-1} sum_w rho(w) q rho(w)^{-1}, with q the naive
    projection onto span(Y_i) along all other monomials, is applied at the
    top depth; lower levels are the Frobenius-consistent truncations.
    Verified here: congruence to Y_i mod J^2, exact W-stability with the
    mod-p action matrix, and z^p-consistency across levels.
    """
    if spec.colimit:
        raise SpecError("splitting choices exist level by level; pass a finite spec")
    n = spec.uniform_depth
    if n is None:
        raise SpecError("equivariant splitting needs uniform torus depths")
    p, r = spec.p, spec.rank
    weyl = realize_weyl(spec)
    caps = tuple(p ** d for d in spec.depths)
    images = conj_generator_images(weyl, spec)
    inv_order = pow(weyl.size, -1, p)
    top = []
    for i in range(r):
        acc: dict = {}
        for w in range(weyl.size):
            moved = images[weyl.inverse(w)][i]  # rho(w^-1)(Y_i)
            for e, c in moved.items():
                if sum(e) == 1:  # the linear part, moved by rho(w)
                    vec_add_scaled(acc, _conj_monomial(images[w], e, caps, p), c, p)
        top.append({e: (c * inv_order) % p for e, c in acc.items()})
    _check_lifts(top, images, weyl, spec)
    lifts = {n: top}
    for level in range(n - 1, 0, -1):
        bound = p ** level
        lifts[level] = [{e: c for e, c in v.items() if all(x < bound for x in e)}
                        for v in lifts[level + 1]]
    return lifts


def _check_lifts(top: list[dict], images, weyl: WeylGroup, spec: GroupSpec) -> None:
    p, r = spec.p, spec.rank
    caps = tuple(p ** d for d in spec.depths)
    for i, v in enumerate(top):
        for e, c in v.items():
            s = sum(e)
            if s == 0:
                raise SpecError("lift has a constant term")
            if s == 1:
                want = 1 if e[i] == 1 else 0
                if c % p != want:
                    raise SpecError(f"lift {i} is not congruent to Y_{i+1} mod J^2")
    # exact stability: rho(w) X~_j = sum_k (A_w mod p)_{kj} X~_k
    for w in range(weyl.size):
        a = weyl.matrix(w)
        for j in range(r):
            moved: dict = {}
            for e, c in top[j].items():
                vec_add_scaled(moved, _conj_monomial(images[w], e, caps, p), c, p)
            expect: dict = {}
            for k in range(r):
                vec_add_scaled(expect, top[k], a[k][j] % p, p)
            if moved != expect:
                raise SpecError("lift span is not W-stable; averaging failed")


# -- the graded algebra ---------------------------------------------------------

class GradedGroupAlgebra:
    """F_p basis {X^a w}, X the canonical lifted generators, w in W.

    The multiplication table is exact: (X^a w)(X^b w') expands
    w X^b w^{-1} through the mod-p action matrix (linear in the lifts, a
    consequence of stability), multiplies in the truncated polynomial ring,
    and shifts by a.  The basis is Weyl-major: X^a w has index
    w |T| + lin(a), |T| = torus_dim the number of exponent vectors a and
    lin(a) the mixed-radix position of a, last exponent fastest, so a
    product term X^(a+m) w'' has index w'' |T| + lin(a) + lin(m) with no
    lookup, and F_p[T] is the first |T| indices.  Each
    term of each nonzero entry, the only ones stored, is checked to keep
    the internal degree sum(a_i / p^{n_i}), as the integer weights[i] over
    p^top, top the largest depth; elements of W sit in degree zero.
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.field = PrimeField(spec.p)
        self.weyl = weyl = realize_weyl(spec)
        p = spec.p
        caps = tuple(p ** d for d in spec.depths)
        self.caps = caps
        exps = list(itertools.product(*(range(c) for c in caps)))
        self.torus_dim = len(exps)
        self.basis_keys: list[tuple[tuple[int, ...], int]] = [
            (a, w) for w in range(weyl.size) for a in exps]
        self.index = {key: i for i, key in enumerate(self.basis_keys)}
        self.dim = len(self.basis_keys)
        self.top = max(spec.depths)
        self.weights = [sum(ai * p ** (self.top - ni) for ai, ni in zip(a, spec.depths))
                        for a, _ in self.basis_keys]
        self.unit_index = 0  # X^0 times the identity of W
        # rows[i][j] = e_i e_j, nonzero entries only, each row in j order
        self.rows: list[dict[int, dict[int, int]]] = [{} for _ in range(self.dim)]
        self._build_table(exps)

    def degree(self, i: int) -> InternalDegree:
        return InternalDegree(self.spec.p, self.weights[i], self.top)

    def _build_table(self, exps: list[tuple[int, ...]]) -> None:
        """conj[w][ib] is w X^b w^{-1} as (packed m, lin(m), coeff), w X_j
        w^{-1} linear in the lifts through the action matrix mod p.
        (X^a w)(X^b w2) has its terms X^(a+m) (w w2) at
        (w w2) |T| + lin(a) + lin(m), for the m with a + m under the caps:
        each is checked to be graded, found once per (a, w, b) and written
        for every w2, in (i, j) order.  The fit test is one add and one
        mask: exponents sit in fields of width + 1 bits, 2^width >= every
        cap, m as it is and a plus 2^width - cap_t in field t, so field t of
        the sum stays below 2^(width + 1) and sets its top bit exactly when
        a_t + m_t >= cap_t."""
        p, caps, r, wt = self.spec.p, self.caps, self.spec.rank, self.weights
        weyl, nw, nt = self.weyl, self.weyl.size, self.torus_dim
        strides = [math.prod(caps[t + 1:]) for t in range(r)]
        width = (max(caps) - 1).bit_length()
        shifts = [t * (width + 1) for t in range(r)]
        guard = sum(1 << (s + width) for s in shifts)
        bias = sum(((1 << width) - c) << s for c, s in zip(caps, shifts))
        packed = [bias + sum(x << s for x, s in zip(a, shifts)) for a in exps]
        conj = []
        for w in range(nw):
            mat = weyl.matrix(w)
            linear = [{tuple(int(t == k) for t in range(r)): mat[k][j] % p
                       for k in range(r) if mat[k][j] % p} for j in range(r)]
            conj.append([[(sum(x << s for x, s in zip(m, shifts)),
                           sum(x * s for x, s in zip(m, strides)), c)
                          for m, c in _conj_monomial(linear, b, caps, p).items()]
                         for b in exps])
        for w in range(nw):
            for ia, pa in enumerate(packed):
                fits = []
                for ib, terms in enumerate(conj[w]):
                    want = wt[ia] + wt[ib]
                    fit = []
                    for pm, lm, c in terms:
                        if not (pa + pm) & guard:
                            if wt[ia + lm] != want:
                                raise SpecError("multiplication is not graded; "
                                                "lift construction broken")
                            fit.append((ia + lm, c))
                    if fit:
                        fits.append((ib, fit))
                row = self.rows[w * nt + ia]
                for w2 in range(nw):
                    shift = weyl.mult(w, w2) * nt
                    for ib, fit in fits:
                        entry = row[w2 * nt + ib] = {}
                        for j, c in fit:
                            entry[shift + j] = c

    def mult(self, i: int, j: int) -> dict[int, int]:
        return self.rows[i].get(j, {})

    def augmentation(self, i: int) -> int:
        return int(i % self.torus_dim == 0)  # a = 0 exactly when lin(a) = 0

    # reduced augmentation ideal: basis indexed by non-unit algebra basis
    # elements, where index (0, w) stands for the difference w - 1

    def iota_letters(self) -> list[int]:
        return [i for i in range(self.dim) if i != self.unit_index]

    def __repr__(self) -> str:
        return f"GradedGroupAlgebra({canonical_spec(self.spec)}, dim={self.dim})"


def build_group_algebra(spec: GroupSpec | str) -> GradedGroupAlgebra:
    """Construct the graded algebra for a finite spec.

    Checks performed: unit, gradedness of every product (during table
    construction), associativity, and that the augmentation is an algebra
    map.  Associativity is proved at every dimension from the generating
    set S of degree-one lifts plus, with an action, the Weyl generator
    (see _verify_algebra), at two products per basis triple (i, j, s), s in
    S, whose sides are not both zero on sight: between 2 |S| times the
    nonzero entries and 2 dim^2 |S|, plus at most dim |S| for the span.

    With an action, equivariant_splitting runs only as a check that
    W-stable lifts exist and agree across levels: the table never reads
    the lifts, since stability makes W act on them linearly through the
    mod-p action matrix, which the table reads directly.
    """
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    if spec.colimit:
        raise SpecError("cannot build a finite algebra from a colimit spec")
    alg = GradedGroupAlgebra(spec)
    if alg.weyl.size > 1:
        equivariant_splitting(spec)
    _verify_algebra(alg)
    return alg


def _product(vec: dict[int, int], images: dict[int, dict[int, int]],
             p: int) -> dict[int, int]:
    """vec times x, given images[k] = e_k x (x times vec, given x e_k).
    The first image is scaled, not merged, so a one-term vec, as nearly
    every table entry is, costs one lookup and one scale."""
    out: dict[int, int] = {}
    for k, c in vec.items():
        image = images.get(k)
        if not image:
            continue
        if out:
            vec_add_scaled(out, image, c, p)
        elif c == 1:
            out = image.copy()
        else:
            for t, v in image.items():
                out[t] = v * c % p
    return out


def _verify_algebra(alg: GradedGroupAlgebra) -> None:
    """Check the unit, associativity and the augmentation of the table.

    Associativity is proved from the generators S: the degree-one lifts
    (e_i, 0) and, with an action, the Weyl generator (0, 1).  Let
    C = {c : (xy)c = x(yc) for all x, y}.  C is a subspace, it holds 1
    by the unit check, and it is closed under products:
    (xy)(c1 c2) = ((xy)c1)c2 = (x(y c1))c2 = x((y c1)c2) = x(y(c1 c2)).
    So if S lies in C, every left-normed product of generators does, and
    if those products span the algebra, C is all of it.  Hence two steps:
    close the unit under right multiplication by S until the span reaches
    rank dim, then check (e_i e_j)s = e_i(e_j s) for all s in S and all
    basis i, j, which by bilinearity puts S in C.

    Every check reads the rows of the table under check in place, so a
    corrupted entry is read like any other, and an empty one as zero.  For
    each (i, s) only the j with e_i e_j != 0, or e_i e_k != 0 for some k in
    e_j s, are visited: for any other j, (e_i e_j)s = 0 = sum_k c_k e_i e_k
    = e_i(e_j s).  Row by row, so the entries e_i e_k that a row reads are
    read together.  A zero product has augmentation 0, so the augmentation
    is checked on the nonzero entries and on the pairs of elements of W.
    """
    n, p = alg.dim, alg.field.p
    u, rows = alg.unit_index, alg.rows
    if any(rows[u].get(i) != {i: 1} or rows[i].get(u) != {i: 1} for i in range(n)):
        raise SpecError("unit element fails")
    r = alg.spec.rank
    gens = [alg.index[(tuple(int(t == i) for t in range(r)), 0)] for i in range(r)]
    if alg.weyl.size > 1:
        gens.append(alg.index[(tuple([0] * r), 1)])
    right = {s: {k: row[s] for k, row in enumerate(rows) if s in row}
             for s in gens}  # e_k s
    elim = Eliminator(alg.field)
    elim.add_row({u: 1})
    frontier = [{u: 1}]
    while frontier and elim.rank < n:
        v = frontier.pop()
        for s in gens:
            vs = _product(v, right[s], p)
            if elim.add_row(vs) is not None:
                frontier.append(vs)
    if elim.rank < n:
        raise SpecError("generators do not span the algebra")
    zero: dict[int, int] = {}
    for s, right_s in right.items():
        left = [[] for _ in range(n)]  # j with k in e_j s, by k
        for j, js in right_s.items():
            for k in js:
                left[k].append(j)
        for i, row in enumerate(rows):
            visit = set(row)
            for k in row:
                visit.update(left[k])
            for j in visit:
                if _product(row.get(j, zero), right_s, p) \
                        != _product(right_s.get(j, zero), row, p):
                    raise SpecError(f"associativity fails on basis triple {(i, j, s)}")
    aug = [alg.augmentation(k) for k in range(n)]
    weyl = range(0, n, alg.torus_dim)
    for i, row in enumerate(rows):
        for j in set(row).union(weyl) if aug[i] else row:
            eps = 0
            for k, c in row.get(j, zero).items():
                if aug[k]:
                    eps += c
            if eps % p != aug[i] * aug[j]:
                raise SpecError("augmentation is not an algebra map")


# -- maps between algebras -------------------------------------------------------

class AlgebraMap:
    """Degree-preserving algebra map, sparse columns over basis indices."""

    def __init__(self, source: GradedGroupAlgebra, target: GradedGroupAlgebra,
                 columns: dict[int, dict[int, int]]):
        self.source = source
        self.target = target
        self.columns = columns  # source index -> {target index: coeff}


def power_inclusion(lower: GradedGroupAlgebra, higher: GradedGroupAlgebra) -> AlgebraMap:
    """The algebra map induced by including each depth-n torus factor into
    depth n+1 via g -> g^p; on lifted monomials it is X^a w -> X^{pa} w.

    Verified: the lower spec is the higher one taken down a depth by
    GroupSpec.lower(), so the prime, the rank and the action at the lower
    depth agree, and the map preserves internal degree, the unit, and
    multiplication.
    """
    if lower.spec != higher.spec.lower():
        raise SpecError("power inclusion needs the lower spec to be the higher "
                        "one a depth down, with the same prime and weyl action")
    p = lower.spec.p
    image = [higher.index[(tuple(p * x for x in a), w)] for a, w in lower.basis_keys]
    if any(higher.degree(j) != lower.degree(i) for i, j in enumerate(image)):
        raise SpecError("power inclusion broke internal degrees")
    fmap = AlgebraMap(lower, higher, {i: {j: 1} for i, j in enumerate(image)})
    for i in range(lower.dim):
        for j in range(lower.dim):
            prod = {image[k]: c for k, c in lower.mult(i, j).items()}
            if prod != higher.mult(image[i], image[j]):
                raise SpecError("power inclusion is not multiplicative; "
                                "splitting consistency broken")
    return fmap
