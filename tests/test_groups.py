from __future__ import annotations

import functools
import itertools
import math
import pathlib
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ainfbar import groups
from ainfbar.bar import build_bar
from ainfbar.grading import InternalDegree
from ainfbar.groups import (
    GradedGroupAlgebra, GroupSpec, SpecError, WeylSpec, _verify_algebra,
    build_group_algebra, canonical_spec, conj_generator_images,
    equivariant_splitting, parse_group_spec, poly_mul, poly_pow,
    power_inclusion, realize_weyl,
)
from ainfbar.linalg import vec_add_scaled

from reference import (
    reference_comult, reference_conjugate, reference_iota_product,
    reference_product, reference_table,
)

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


# -- grammar -------------------------------------------------------------------

def test_parse_cyclic():
    s = parse_group_spec("cyclic(3^2)")
    assert (s.p, s.depths, s.weyl, s.colimit) == (3, (2,), None, False)


def test_parse_torus_and_product():
    s = parse_group_spec("torus(3,1,2)")
    assert s.depths == (1, 1)
    s2 = parse_group_spec("cyclic(3^1) x cyclic(3^2)")
    assert s2.depths == (1, 2)
    assert canonical_spec(s2) == "cyclic(3^1) x cyclic(3^2)"


def test_parse_semidirect_and_canonical():
    s = parse_group_spec("semidirect(cyclic(3^1), inversion)")
    assert s.weyl == WeylSpec(2, ((2,),))
    assert canonical_spec(s) == "semidirect(cyclic(3^1), inversion)"
    s2 = parse_group_spec("semidirect(torus(3,1,2), Z2:[[-1,0],[0,-1]])")
    # Z2 by -identity canonicalizes to the inversion shorthand
    assert canonical_spec(s2) == "semidirect(torus(3,1,2), inversion)"


def test_inversion_is_z2_by_minus_identity():
    s = parse_group_spec("semidirect(torus(3,1,2), inversion)")
    s2 = parse_group_spec("semidirect(torus(3,1,2), Z2:[[-1,0],[0,-1]])")
    assert s == s2
    assert s.weyl == WeylSpec(2, ((2, 0), (0, 2)))
    # Z2 by +identity is a different action and prints as a matrix
    plus = parse_group_spec("semidirect(torus(3,1,2), Z2:[[1,0],[0,1]])")
    assert canonical_spec(plus) == "semidirect(torus(3,1,2), Z2:[[1,0],[0,1]])"


def test_parse_colimit():
    s = parse_group_spec("colimit(semidirect(torus(3,inf,2), inversion))")
    assert s.colimit and s.depths == (None, None)
    assert canonical_spec(s) == "colimit(semidirect(torus(3,inf,2), inversion))"
    assert parse_group_spec("colimit(cyclic(5^∞))").depths == (None,)


def test_parse_roundtrip():
    for text in ["cyclic(2^1)", "torus(5,2,3)", "semidirect(cyclic(3^2), inversion)",
                 "cyclic(3^1) x cyclic(3^2)",
                 "semidirect(torus(7,1,2), Z3:[[0,-1],[1,-1]])",
                 "semidirect(torus(3,2,2), Z4:[[0,-1],[1,0]])",
                 "colimit(torus(3,inf,2))"]:
        s = parse_group_spec(text)
        assert parse_group_spec(canonical_spec(s)) == s


# Z/k actions of finite order over the integers, so valid at every depth
# wherever k is prime to p; Z3 by [[1]] acts through the trivial quotient
DRAWN_ACTIONS = {
    1: [(2, ((-1,),)), (4, ((-1,),)), (3, ((1,),))],
    2: [(2, ((-1, 0), (0, -1))), (4, ((0, -1), (1, 0))), (2, ((0, 1), (1, 0))),
        (3, ((0, -1), (1, -1)))],
}


@functools.cache
def built(spec: GroupSpec):
    return build_group_algebra(spec)


@st.composite
def small_specs(draw):
    p = draw(st.sampled_from([2, 3]))
    rank = draw(st.integers(1, 2))
    actions = [a for a in DRAWN_ACTIONS[rank] if math.gcd(a[0], p) == 1]
    action = draw(st.sampled_from([None] + actions))
    if action is None:
        depths = tuple(draw(st.integers(1, 2)) for _ in range(rank))
    else:
        depths = (draw(st.integers(1, 2)),) * rank
    depths = draw(st.sampled_from([depths, (None,) * rank]))
    return GroupSpec(p, depths, None if action is None else WeylSpec(*action))


@settings(max_examples=40, deadline=None)
@given(small_specs())
def test_drawn_specs_round_trip_and_lower(s):
    assert parse_group_spec(canonical_spec(s)) == s
    if s.uniform_depth == 2:
        low = s.lower()
        assert parse_group_spec(canonical_spec(low)) == low
        power_inclusion(built(low), built(s))  # raises unless it is an inclusion


def test_lower_reduces_the_action_at_the_lower_depth():
    high = parse_group_spec("semidirect(torus(3,2,2), Z4:[[0,-1],[1,0]])")
    assert high.weyl.matrix == ((0, 8), (1, 0))
    low = high.lower()
    assert low == parse_group_spec("semidirect(torus(3,1,2), Z4:[[0,2],[1,0]])")
    assert low.weyl.matrix == ((0, 2), (1, 0))
    for bottom in (low, parse_group_spec("colimit(cyclic(3^inf))")):
        with pytest.raises(SpecError, match="depth >= 2"):
            bottom.lower()


def test_direct_construction_equals_the_parsed_spec():
    s = GroupSpec(3, (1, 1), WeylSpec(4, ((0, -1), (1, 0))))
    assert s == parse_group_spec("semidirect(torus(3,1,2), Z4:[[0,-1],[1,0]])")
    assert s.weyl.matrix == ((0, 2), (1, 0))
    assert not s.colimit and GroupSpec(3, (None, None)).colimit


@pytest.mark.parametrize("args, message", [
    ((3, (1,), WeylSpec(3, ((1,),))), "coprime"),
    ((3, (1, 1), WeylSpec(2, ((2, 0),))), "2x2"),
    ((3, (1, None)), "all >= 1 or all 'inf'"),
    ((5, (1,), WeylSpec(3, ((2,),))), "order dividing 3"),  # 2^3 = 3 mod 5
])
def test_direct_constructions_the_parser_refuses_raise(args, message):
    with pytest.raises(SpecError, match=message):
        GroupSpec(*args)


def test_parse_errors_carry_positions():
    with pytest.raises(SpecError) as e:
        parse_group_spec("cyclic(4^1)")
    assert "prime" in str(e.value)
    with pytest.raises(SpecError) as e:
        parse_group_spec("cyclic(3*1)")
    assert "position" in str(e.value)
    with pytest.raises(SpecError):
        parse_group_spec("torus(3,1,0)")
    with pytest.raises(SpecError):
        parse_group_spec("cyclic(3^1) x cyclic(5^1)")  # mixed primes
    with pytest.raises(SpecError):
        parse_group_spec("cyclic(3^1) x semidirect(cyclic(3^1), inversion)")
    with pytest.raises(SpecError):
        parse_group_spec("cyclic(3^inf)")  # inf outside colimit
    with pytest.raises(SpecError):
        parse_group_spec("semidirect(cyclic(2^1), inversion)")  # |W| not coprime
    with pytest.raises(SpecError):
        parse_group_spec("colimit(cyclic(3^2))")
    with pytest.raises(SpecError):
        parse_group_spec("cyclic(3^1) extra")


def test_weyl_order_must_hold():
    # [[2]] has order 2 mod 3; Z3 would need A^3 = I, and 2^3 = 8 = 2 != 1
    with pytest.raises(SpecError):
        parse_group_spec("semidirect(cyclic(5^1), Z3:[[2]])")  # 2^3 = 3 mod 5
    w = realize_weyl(parse_group_spec("semidirect(cyclic(3^1), Z2:[[2]])"))
    assert w.size == 2
    # non-faithful orders are allowed: Z4 acting through its Z2 quotient
    w4 = realize_weyl(parse_group_spec("semidirect(cyclic(3^1), Z4:[[2]])"))
    assert w4.size == 4


@pytest.mark.parametrize("text", [
    "semidirect(cyclic(3^1), inversion)",
    "semidirect(cyclic(3^2), inversion)",
    "semidirect(cyclic(3^1), Z4:[[2]])",
    "semidirect(torus(2,1,2), Z3:[[0,1],[1,1]])",
    "semidirect(torus(3,2,2), Z4:[[0,-1],[1,0]])",
])
def test_weyl_group_laws(text):
    spec = parse_group_spec(text)
    w = realize_weyl(spec)
    mods = [spec.p ** d for d in spec.depths]
    r = spec.rank

    def product(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(r)) % mods[i]
                           for j in range(r)) for i in range(r))

    assert w.matrix(0) == tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    for i in range(w.size):
        assert w.mult(i, w.inverse(i)) == 0
        for j in range(w.size):
            assert w.matrix(w.mult(i, j)) == product(w.matrix(i), w.matrix(j))


def readme_specs() -> list[str]:
    """Every group spec the README quotes: the backquoted specs of its
    group-spec paragraph and every --spec example."""
    text = README.read_text()
    para = text.split("Group specs:")[1].split("\n\n")[0]
    quoted = [q for q in re.findall(r"`([^`]+)`", para) if "(" in q]
    return quoted + re.findall(r'--spec "([^"]+)"', text)


def test_readme_specs_are_valid():
    specs = readme_specs()
    assert len(specs) >= 10
    assert any("[[" in s for s in specs)
    for text in specs:
        parse_group_spec(text)


# -- polynomial helpers ----------------------------------------------------------

def test_poly_mul_truncates():
    caps = (3,)
    u = {(1,): 1, (2,): 2}
    v = {(1,): 1}
    assert poly_mul(u, v, caps, 3) == {(2,): 1}  # Y^3 term dropped
    assert poly_pow({(1,): 1, (0,): 1}, 2, caps, 3) == {(0,): 1, (1,): 2, (2,): 1}


# -- algebras ---------------------------------------------------------------------

def labels(alg) -> list[str]:
    """Basis labels X1^a1*..*w in basis order, from the basis keys (a, w):
    Weyl-major, so the labels of each w run over every exponent vector a
    before the next w."""
    out = []
    for a, w in alg.basis_keys:
        parts = [f"X{i + 1}" if e == 1 else f"X{i + 1}^{e}"
                 for i, e in enumerate(a) if e]
        if w:
            parts.append(f"w{w}")
        out.append("*".join(parts) or "1")
    return out


def test_cyclic_algebra_is_truncated_polynomial():
    alg = build_group_algebra("cyclic(3^1)")
    assert alg.dim == 3
    assert labels(alg) == ["1", "X1", "X1^2"]
    x = alg.index[((1,), 0)]
    x2 = alg.index[((2,), 0)]
    assert alg.mult(x, x) == {x2: 1}
    assert alg.mult(x, x2) == {}
    assert alg.degree(x) == InternalDegree(3, 1, 1)
    assert alg.degree(x2) == InternalDegree(3, 2, 1)
    assert alg.augmentation(alg.unit_index) == 1 and alg.augmentation(x) == 0


def test_mu4_algebra_degrees():
    alg = build_group_algebra("cyclic(2^2)")
    assert alg.dim == 4
    # weights 0, 1/4, 2/4 = 1/2, 3/4
    vals = sorted(alg.degree(i).num / (2 ** alg.degree(i).pexp) for i in range(4))
    assert vals == [0.0, 0.25, 0.5, 0.75]


def test_rank_two_mixed_depths():
    alg = build_group_algebra("cyclic(3^1) x cyclic(3^2)")
    assert alg.dim == 27
    i = alg.index[((1, 0), 0)]
    j = alg.index[((0, 1), 0)]
    assert alg.degree(i) == InternalDegree(3, 1, 1)
    assert alg.degree(j) == InternalDegree(3, 1, 2)
    assert alg.mult(i, j) == {alg.index[((1, 1), 0)]: 1}


def test_semidirect_s3_table():
    alg = build_group_algebra("semidirect(cyclic(3^1), inversion)")
    assert alg.dim == 6
    w = alg.index[((0,), 1)]
    x = alg.index[((1,), 0)]
    xw = alg.index[((1,), 1)]
    x2 = alg.index[((2,), 0)]
    # w X w^-1 = -X, so w * X = -X * w = 2 X w
    assert alg.mult(w, x) == {xw: 2}
    assert alg.mult(w, w) == {alg.unit_index: 1}
    assert alg.mult(x, x) == {x2: 1}
    # labels deterministic
    assert labels(alg) == ["1", "X1", "X1^2", "w1", "X1*w1", "X1^2*w1"]


@pytest.mark.parametrize("spec", [
    "cyclic(3^2)", "cyclic(3^1) x cyclic(3^2)",
    "semidirect(cyclic(3^1), inversion)", "semidirect(torus(3,1,2), inversion)",
    "semidirect(torus(2,1,2), Z3:[[0,1],[1,1]])",
])
def test_basis_is_weyl_major(spec):
    # X^a w sits at w |T| + lin(a), lin the mixed-radix position of a with
    # the last exponent fastest, and the augmentation is 1 exactly at the
    # multiples of |T|, the elements of W
    alg = build_group_algebra(spec)
    nt = alg.torus_dim
    assert nt == math.prod(alg.caps) and alg.dim == nt * alg.weyl.size
    for (a, w), i in alg.index.items():
        lin = 0
        for x, c in zip(a, alg.caps):
            lin = lin * c + x
        assert i == w * nt + lin
    assert [k for k in range(alg.dim) if alg.augmentation(k)] == list(range(0, alg.dim, nt))


def test_splitting_depth1_inversion_matches_bruteforce():
    # oracle: over F_3[X]/(X^3), rho(w) acts on J by X -> 2X + X^2, X^2 -> X^2;
    # of the four lines in J, only span(X + X^2) is stable and congruent to X
    rho = {(1,): {(1,): 2, (2,): 1}, (2,): {(2,): 1}}
    def apply_rho(v):
        out = {}
        for e, c in v.items():
            for e2, c2 in rho[e].items():
                out[e2] = (out.get(e2, 0) + c * c2) % 3
        return {e: c for e, c in out.items() if c}
    def is_scalar_multiple(img, v):
        if set(img) != set(v):
            return False
        ratios = {(img[e] * pow(v[e], -1, 3)) % 3 for e in v}
        return len(ratios) == 1
    stable = []
    for b in range(3):
        v = {(1,): 1, (2,): b} if b else {(1,): 1}
        if is_scalar_multiple(apply_rho(v), v):
            stable.append(v)
    assert stable == [{(1,): 1, (2,): 1}]

    lifts = equivariant_splitting(parse_group_spec("semidirect(cyclic(3^1), inversion)"))
    assert lifts[1][0] == {(1,): 1, (2,): 1}
    # so the truncation of the depth-2 lift can only be that line too
    lifts = equivariant_splitting(parse_group_spec("semidirect(cyclic(3^2), inversion)"))
    assert lifts[1][0] == {(1,): 1, (2,): 1}


SPLITTING_SPECS = [
    "semidirect(cyclic(3^2), inversion)",
    "semidirect(torus(2,2,2), Z3:[[0,3],[1,3]])",
    "semidirect(torus(3,3,2), inversion)",
    "semidirect(torus(5,2,2), Z4:[[0,-1],[1,0]])",
]


def test_splitting_depth2_consistency_and_stability():
    # only the top level is checked by the splitting itself; every level
    # is checked here, stability by the from-scratch conjugates
    for text in SPLITTING_SPECS:
        spec = parse_group_spec(text)
        lifts = equivariant_splitting(spec)
        check_splitting_levels(spec, lifts)
        assert equivariant_splitting(spec) == lifts  # deterministic rebuild


def check_splitting_levels(spec, lifts):
    """At every level: each lift is Y_i plus terms of degree >= 2, stable
    under that level's action through reference_conjugate, and below the
    top, iota of the p-th power of the lift one level up (Frobenius), iota
    the exponent-multiplying inclusion."""
    p, r, n = spec.p, spec.rank, spec.uniform_depth
    units = [tuple(int(t == i) for t in range(r)) for i in range(r)]
    level_spec = spec
    for level in range(n, 0, -1):
        caps = (p ** level,) * r
        for i, lift in enumerate(lifts[level]):
            assert {e: c for e, c in lift.items() if sum(e) <= 1} == {units[i]: 1}
        if level < n:
            for high, low in zip(lifts[level + 1], lifts[level]):
                assert poly_pow(high, p, (p ** (level + 1),) * r, p) == {
                    tuple(p * x for x in e): c for e, c in low.items()}
            level_spec = level_spec.lower()
        weyl = realize_weyl(level_spec)
        images = conj_generator_images(weyl, level_spec)
        for w in range(weyl.size):
            a = weyl.matrix(w)
            for j, lift in enumerate(lifts[level]):
                moved: dict = {}
                for e, c in lift.items():
                    vec_add_scaled(moved, reference_conjugate(images[w], e, caps, p), c, p)
                expect: dict = {}
                for k in range(r):
                    vec_add_scaled(expect, lifts[level][k], a[k][j] % p, p)
                assert moved == expect


@pytest.mark.parametrize("text", [
    "semidirect(cyclic(3^2), inversion)",
    "semidirect(torus(2,2,2), Z3:[[0,3],[1,3]])",
])
def test_splitting_makes_one_product_per_conjugated_monomial(text, monkeypatch):
    # r^2 products per w for the images of the generators, and then one
    # per w and nonzero monomial of the lifts' support or below it: the
    # from-scratch conjugates took 76 and 302 here
    calls = []
    real = groups.poly_mul

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(groups, "poly_mul", counted)
    spec = parse_group_spec(text)
    top = equivariant_splitting(spec)[spec.uniform_depth]
    closure = {below for lift in top for b in lift
               for below in itertools.product(*(range(x + 1) for x in b)) if any(below)}
    assert len(calls) <= realize_weyl(spec).size * (spec.rank ** 2 + len(closure))


def test_splitting_trivial_weyl_is_identity():
    lifts = equivariant_splitting(parse_group_spec("torus(3,2,2)"))
    assert lifts[2][0] == {(1, 0): 1}
    assert lifts[1][1] == {(0, 1): 1}


def test_stretch_algebra_builds_and_is_graded():
    alg = build_group_algebra("semidirect(torus(3,1,2), inversion)")
    assert alg.dim == 18
    # every conjugate term degree-checked during construction; spot-check labels
    assert labels(alg)[0] == "1"
    i = alg.index[((1, 1), 0)]
    assert alg.degree(i) == InternalDegree(3, 2, 1)


def test_power_inclusion_rank1():
    low = build_group_algebra("cyclic(3^1)")
    high = build_group_algebra("cyclic(3^2)")
    f = power_inclusion(low, high)
    x_low = low.index[((1,), 0)]
    assert f.columns[x_low] == {high.index[((3,), 0)]: 1}
    assert f.columns[low.unit_index] == {high.unit_index: 1}


def test_power_inclusion_semidirect():
    low = build_group_algebra("semidirect(cyclic(3^1), inversion)")
    high = build_group_algebra("semidirect(cyclic(3^2), inversion)")
    f = power_inclusion(low, high)  # multiplicativity verified inside
    xw = low.index[((1,), 1)]
    assert f.columns[xw] == {high.index[((3,), 1)]: 1}


def test_power_inclusion_rejects_a_product_it_does_not_carry(monkeypatch):
    # X X = X^2 on cyclic(3^1) maps to X^3 X^3 = X^6; zero that one product
    low = build_group_algebra("cyclic(3^1)")
    high = build_group_algebra("cyclic(3^2)")
    x3 = high.index[((3,), 0)]
    real = high.mult
    monkeypatch.setattr(high, "mult",
                        lambda i, j: {} if (i, j) == (x3, x3) else real(i, j))
    with pytest.raises(SpecError, match="not multiplicative"):
        power_inclusion(low, high)


def test_power_inclusion_rejects_gaps():
    low = build_group_algebra("cyclic(3^1)")
    too_high = build_group_algebra("cyclic(3^3)")
    with pytest.raises(SpecError):
        power_inclusion(low, too_high)


def test_power_inclusion_rejects_a_different_lower_action():
    # [[-1,-1],[1,0]] is [[1,1],[1,0]] mod 2, not [[0,1],[1,1]]
    low = build_group_algebra("semidirect(torus(2,1,2), Z3:[[0,1],[1,1]])")
    high = build_group_algebra("semidirect(torus(2,2,2), Z3:[[-1,-1],[1,0]])")
    with pytest.raises(SpecError, match="weyl"):
        power_inclusion(low, high)


def test_iota_products_stay_in_ideal():
    alg = build_group_algebra("semidirect(cyclic(3^1), inversion)")
    letters = alg.iota_letters()
    assert len(letters) == 5
    w = alg.index[((0,), 1)]
    # (w - 1)(w - 1) = w^2 - 2w + 1 = 2 - 2w = -2(w - 1) = (w - 1) mod 3
    assert reference_iota_product(alg, w, w) == {w: 1}
    for i in letters:
        for j in letters:
            out = reference_iota_product(alg, i, j)
            assert alg.unit_index not in out


def test_ungraded_conjugation_is_rejected(monkeypatch):
    # one extra term X^2 in the expansion of w X w^-1: weight 2/3, not 1/3
    real = groups.monomial_images

    def corrupted(gens, exps, caps, p):
        out = real(gens, exps, caps, p)
        out[(1,)] = {**out[(1,)], (2,): 1}
        return out

    monkeypatch.setattr(groups, "monomial_images", corrupted)
    with pytest.raises(SpecError, match="multiplication is not graded"):
        build_group_algebra("cyclic(3^1)")


def test_unstable_lifts_are_rejected(monkeypatch):
    # rho(w) of the lift X + X^2 read with one extra term X in the image
    # of X^2: the moved lift is no longer -(X + X^2)
    real = groups.monomial_images

    def corrupted(gens, exps, caps, p):
        out = real(gens, exps, caps, p)
        out[(2,)] = {**out[(2,)], (1,): 1}
        return out

    monkeypatch.setattr(groups, "monomial_images", corrupted)
    with pytest.raises(SpecError, match="not W-stable"):
        equivariant_splitting(parse_group_spec("semidirect(cyclic(3^1), inversion)"))


def squares_to_one(alg):
    """X X = 1 on cyclic(2^1), the group algebra in the group basis, from
    the conjugate c(X) = X + X^-1: its term X^-1, packed m and lin(m) of
    X negated, fits exactly where a >= 1."""
    x = alg.index[((1,), 0)]
    (pm, lm, c), = alg.conj[0][x]
    alg.conj[0][x] = [(pm, lm, c), (-pm, -lm, c)]
    assert alg.mult(x, x) == {alg.unit_index: 1} and alg.mult(alg.unit_index, x) == {x: 1}


def test_augmentation_that_is_not_an_algebra_map_is_rejected():
    # X X = 1 on cyclic(2^1) is associative and spanned by X, but X is no
    # longer in the ideal
    alg = build_group_algebra("cyclic(2^1)")
    squares_to_one(alg)
    with pytest.raises(SpecError, match="augmentation is not an algebra map"):
        _verify_algebra(alg)


def test_ideal_products_that_leave_the_ideal_are_rejected():
    alg = build_group_algebra("cyclic(2^1)")
    squares_to_one(alg)
    with pytest.raises(AssertionError, match="left the ideal"):
        build_bar(alg, 2)


def test_weyl_letter_pairs_are_expanded_where_the_table_entry_is_zero():
    # c_w(X) = 0, so w X = 0, and c_1(X) = X + 1: (w - 1) X = -X - 1 has
    # augmentation -1, which only a comultiplication that expands the pair
    # on a zero product sees; the walk over products outside W reads c(X)
    # only times X^a, a > 0, where X^(a+1) + X^a stays in the ideal
    alg = build_group_algebra("semidirect(cyclic(3^1), inversion)")
    x, w = alg.index[((1,), 0)], alg.index[((0,), 1)]
    assert alg.mult(w, x) == {alg.index[((1,), 1)]: 2}
    alg.conj[0][x] = alg.conj[0][x] + [(0, 0, 1)]  # packed m and lin(m) of X^0
    alg.conj[1][x] = []
    assert alg.mult(w, x) == {}
    with pytest.raises(AssertionError, match="left the ideal"):
        build_bar(alg, 2)


# -- the associativity proof on generators ------------------------------------------

ORACLE_SPECS = [
    "cyclic(2^1)", "cyclic(2^3)", "cyclic(3^1)", "cyclic(3^2)", "cyclic(5^1)",
    "cyclic(2^1) x cyclic(2^2)", "torus(3,1,2)",
    "semidirect(cyclic(3^1), inversion)", "semidirect(cyclic(5^1), inversion)",
    "semidirect(torus(3,1,2), inversion)",
    "semidirect(torus(2,1,2), Z3:[[0,1],[1,1]])",
]


def brute_force_failing_triple(alg):
    """First basis triple (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k)."""
    for i, j, k in itertools.product(range(alg.dim), repeat=3):
        if reference_product(alg, alg.mult(i, j), {k: 1}) \
                != reference_product(alg, {i: 1}, alg.mult(j, k)):
            return i, j, k
    return None


@pytest.mark.parametrize("text", ORACLE_SPECS)
def test_uncorrupted_tables_pass_both_checks(text):
    alg = build_group_algebra(text)
    assert brute_force_failing_triple(alg) is None
    _verify_algebra(alg)


# mixed depths over p = 3 and over p = 2, whose power-of-two caps fill
# their packed fields exactly, non-monomial actions at depth 2 and at
# p = 5, the 100-dim Z4 rotation over p = 5, and the 162-dim algebra of
# the restriction bench
@pytest.mark.parametrize("text", ORACLE_SPECS + [
    "cyclic(3^1) x cyclic(3^2)", "cyclic(2^2) x cyclic(2^3)",
    "semidirect(torus(2,2,2), Z3:[[0,3],[1,3]])",
    "semidirect(torus(5,1,2), Z3:[[0,-1],[1,-1]])",
    "semidirect(torus(5,1,2), Z4:[[0,-1],[1,0]])",
    "semidirect(torus(3,2,2), inversion)"])
def test_table_and_comultiplication_match_the_pair_by_pair_reference(text):
    # mult pair by pair and the row walk both give the reference table
    alg = build_group_algebra(text)
    n = alg.dim
    table = {(i, j): v for i in range(n) for j in range(n) if (v := alg.mult(i, j))}
    assert table == reference_table(alg)
    assert {(i, j): {shift + k: c for k, c in fit}
            for i in range(n) for j, shift, fit in alg.row(i)} == table
    bar = build_bar(alg, 1)
    bits, mask = bar.bits, (1 << bar.bits) - 1
    assert {u: [(ab >> bits, ab & mask, c) for ab, c in pairs]
            for u, pairs in bar._comult.items()} == reference_comult(bar)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORACLE_SPECS), st.data())
def test_generator_proof_catches_what_brute_force_catches(text, data):
    # one conjugate c_w(X^b) corrupted: cleared or not, then the
    # coefficient of one monomial X^m moved by c; c_1(X^m) = X^m is the
    # one term that gives the packed m
    alg = build_group_algebra(text)
    p, nt = alg.field.p, alg.torus_dim
    w = data.draw(st.integers(0, alg.weyl.size - 1))
    ib = data.draw(st.integers(0, nt - 1))
    lm = data.draw(st.integers(0, nt - 1))
    c = data.draw(st.integers(1, p - 1))
    (pm, _, _), = alg.conj[0][lm]
    terms = [] if data.draw(st.booleans()) else alg.conj[w][ib]
    coeffs = {(pt, lt): ct for pt, lt, ct in terms}
    coeffs[pm, lm] = (coeffs.get((pm, lm), 0) + c) % p
    alg.conj[w][ib] = [(pt, lt, ct) for (pt, lt), ct in coeffs.items() if ct]
    if brute_force_failing_triple(alg) is not None:
        with pytest.raises(SpecError):
            _verify_algebra(alg)


def packed_as(alg, b, e):
    """Give the one term of c(X^b), on a spec without an action, the
    packed m of X^e, e > b: X^a X^b still lands on X^(a+b), but fits only
    where a + e is under the caps, so it is 0 for the a in between."""
    ib = alg.index[(b, 0)]
    (_, lm, c), = alg.conj[0][ib]
    (pm, _, _), = alg.conj[0][alg.index[(e, 0)]]
    alg.conj[0][ib] = [(pm, lm, c)]


def test_corruption_above_dim_200_is_caught():
    # X^240 X^2 = 0, while (X^240 X) X = X^242; right products by the
    # generator X, and so the span, are untouched
    alg = build_group_algebra("cyclic(3^5)")
    assert alg.dim == 243
    packed_as(alg, (2,), (3,))
    x240, x2 = (alg.index[((e,), 0)] for e in (240, 2))
    assert alg.mult(x240, x2) == {} and alg.mult(0, x2) == {x2: 1}
    with pytest.raises(SpecError, match="associativity fails"):
        _verify_algebra(alg)


def test_generators_that_do_not_span_are_rejected():
    # X X = 0 on cyclic(3^1), while 1 X = X
    alg = build_group_algebra("cyclic(3^1)")
    packed_as(alg, (1,), (2,))
    x = alg.index[((1,), 0)]
    assert alg.mult(x, x) == {} and alg.mult(0, x) == {x: 1}
    with pytest.raises(SpecError, match="generators do not span"):
        _verify_algebra(alg)


def test_set_up_holds_no_product_table():
    # the 162-dim algebra's product table alone held 2.13 MiB live; the
    # rule keeps one conjugate per (w, b)
    tracemalloc.start()
    try:
        alg = build_group_algebra("semidirect(torus(3,2,2), inversion)")
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert alg.dim == 162
    assert live < 512 * 1024


def test_bar_holds_one_comultiplication_table():
    # the algebra and its bar at cap 2 held 1.30 MiB live while the bar
    # kept a negated copy of its comultiplication table
    tracemalloc.start()
    try:
        bar = build_bar(build_group_algebra("semidirect(torus(3,2,2), inversion)"), 2)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bar.algebra.dim == 162
    assert live < 0.9 * 1024 * 1024


def test_verify_makes_dim2_times_generators_products(monkeypatch):
    # _product is every product _verify_algebra forms beyond the rule's
    # own products (read from mult and row): two per visited triple
    # (i, j, s), and at most dim |S| for the span.  On cyclic(2^6),
    # with S the one lift X, the rows visited for (j, X) are exactly those
    # with X^i X^j != 0, since X^i X^(j+1) != 0 implies it
    calls = []
    real = groups._product

    def counted(vec, images, p):
        calls.append(1)
        return real(vec, images, p)

    monkeypatch.setattr(groups, "_product", counted)
    alg = build_group_algebra("cyclic(2^6)")
    n, s = alg.dim, alg.spec.rank
    nonzero = sum(1 for i in range(n) for j in range(n) if alg.mult(i, j))
    assert nonzero == n * (n + 1) // 2
    assert 2 * nonzero * s <= len(calls) <= 2 * nonzero * s + n * s
    assert len(calls) <= 2 * n * n * s + n * s
