"""Acceptance checklist: eleven measured criteria with pinned expectations.

Each criterion function computes its own oracle values (hand-counted
dimensions, Massey products assembled directly in the bar complex,
eigenproblems solved by brute force) and compares the pipeline output
against them, returning a result object rather than raising, so the whole
checklist always runs to the end.  Used by the CLI `verify` subcommand and
by the acceptance test suite.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field

from .bar import BarComplex, build_bar, restriction
from .formality import (
    CERTIFIED, NOT_APPLICABLE, TorusModel, certificate_for_spec,
    compare_finite_vs_invariants, invariant_dims,
)
from .grading import InternalDegree, internal_zero
from .groups import (
    build_group_algebra, equivariant_splitting, parse_group_spec,
    poly_mul, poly_pow, power_inclusion,
)
from .linalg import vec_add_scaled, vec_scale
from .transfer import SDR, AInfinityStructure, check_stasheff, transfer


@dataclass
class CriterionResult:
    number: int
    title: str
    ok: bool
    detail: str
    data: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return (f"{mark} criterion {self.number:2d}: {self.title} "
                f"[{self.elapsed:.1f}s] {self.detail}")


class Lab:
    """Memoized bar complexes and transfers shared across criteria."""

    def __init__(self):
        self._bars: dict[tuple, BarComplex] = {}
        self._transfers: dict[tuple, AInfinityStructure] = {}

    def bar(self, spec: str, cap: int) -> BarComplex:
        key = (spec, cap)
        if key not in self._bars:
            self._bars[key] = build_bar(build_group_algebra(spec), cap)
        return self._bars[key]

    def transfer(self, spec: str, arity: int, degree: int) -> AInfinityStructure:
        key = (spec, arity, degree)
        if key not in self._transfers:
            self._transfers[key] = transfer(self.bar(spec, degree + 1),
                                            arity_cap=arity, degree_cap=degree)
        return self._transfers[key]


def _labels_by_degree(space) -> dict[int, list[str]]:
    out: dict[int, list[str]] = {}
    for label in space.labels():
        out.setdefault(space.degrees(label)[0], []).append(label)
    return out


# -- the criteria ------------------------------------------------------------

def criterion_1(lab: Lab) -> CriterionResult:
    checks = []
    dims_seen = {}
    for p, n in ((3, 1), (5, 1), (2, 2)):
        spec = f"cyclic({p}^{n})"
        bar = lab.bar(spec, 7)
        q = p ** n
        expected = {}
        for d in range(7):
            k = d // 2
            s = (InternalDegree(p, k) if d % 2 == 0
                 else InternalDegree(p, k * q + 1, n))
            expected[d] = {s: 1}
        got = {d: bar.dims(d) for d in range(7)}
        dims_seen[spec] = [sum(got[d].values()) for d in range(7)]
        checks.append(got == expected)
        coh = bar.cohomology()
        by_deg = _labels_by_degree(coh.space)
        t, x = by_deg[1][0], by_deg[2][0]
        if p != 2:
            checks.append(coh.cup(t, t) == {})
        sq = coh.cup(x, x)
        checks.append(len(sq) == 1 and set(sq.values()) != {0})
        (x2_label,) = sq
        cube = coh.cup(x2_label, x)
        checks.append(len(cube) == 1)
    ok = all(checks)
    return CriterionResult(
        1, "rank-one cohomology rings over F_3, F_5, F_2", ok,
        f"dims {dims_seen}; t^2 = 0 (p odd); x, x^2, x^3 nonzero",
        {"dims": dims_seen})


def criterion_2(lab: Lab) -> CriterionResult:
    bar = lab.bar("cyclic(2^1)", 7)
    dims = [sum(bar.dims(d).values()) for d in range(7)]
    coh = bar.cohomology()
    by_deg = _labels_by_degree(coh.space)
    t = by_deg[1][0]
    powers_ok = True
    current = t
    for _ in range(5):
        nxt = coh.cup(current, t)
        powers_ok = powers_ok and len(nxt) == 1
        if not nxt:
            break
        (current,) = nxt
    st = lab.transfer("cyclic(2^1)", 4, 6)
    higher = {k: sum(1 for v in st.ops[k].values() if v) for k in (3, 4)}
    ok = dims == [1] * 7 and powers_ok and higher == {3: 0, 4: 0}
    return CriterionResult(
        2, "Z/2 polynomial ring with vanishing m_3, m_4", ok,
        f"dims {dims}; nonzero higher ops {higher}",
        {"dims": dims, "higher": higher})


def criterion_3(lab: Lab) -> CriterionResult:
    high = lab.bar("cyclic(3^2)", 3)
    low = lab.bar("cyclic(3^1)", 3)
    fmap = power_inclusion(low.algebra, high.algebra)
    induced = restriction(high, low, fmap).on_cohomology()
    t2 = "h1:1/3^2#0"
    x2 = "h2:1#0"
    t_image = {k: v for k, v in induced.entries.items() if k[1] == t2}
    x_image = {k: v for k, v in induced.entries.items() if k[1] == x2}
    ok = (t_image == {} and list(x_image) == [(x2, x2)]
          and x_image[(x2, x2)] % 3 != 0)
    coeff = x_image.get((x2, x2))
    return CriterionResult(
        3, "restriction H*(BZ/9) -> H*(BZ/3) kills t, hits x", ok,
        f"t_2 -> 0; x_2 -> {coeff} * x_1",
        {"x_coeff": coeff})


def criterion_4(lab: Lab) -> CriterionResult:
    # Z/3: triple Massey product assembled by hand in the bar complex
    bar3 = lab.bar("cyclic(3^1)", 7)
    coh3 = bar3.cohomology()
    letters3 = bar3.algebra.iota_letters()
    T = {letters3[0]: 1}
    U = {letters3[1]: 2}
    massey3 = None
    if bar3.d_cochain(U) == bar3.concat(T, T):
        m = bar3.concat(U, T)
        vec_add_scaled(m, bar3.concat(T, U), 1, 3)
        massey3 = coh3.reduce_cocycle(m)
    st3 = lab.transfer("cyclic(3^1)", 4, 6)
    m3 = st3.op(("h1:1/3#0",) * 3)
    # Z/4: fourfold product via the defining system u = dual X^2, v = dual X^3
    bar4 = lab.bar("cyclic(2^2)", 7)
    coh4 = bar4.cohomology()
    X, X2, X3 = bar4.algebra.iota_letters()
    T4, U4, V4 = {X: 1}, {X2: 1}, {X3: 1}
    massey4 = None
    du_ok = bar4.d_cochain(U4) == bar4.concat(T4, T4)
    want_dv = bar4.concat(T4, U4)
    vec_add_scaled(want_dv, bar4.concat(U4, T4), 1, 2)
    dv_ok = bar4.d_cochain(V4) == want_dv
    if du_ok and dv_ok:
        m = bar4.concat(T4, V4)
        vec_add_scaled(m, bar4.concat(U4, U4), 1, 2)
        vec_add_scaled(m, bar4.concat(V4, T4), 1, 2)
        massey4 = coh4.reduce_cocycle(m)
    st4 = lab.transfer("cyclic(2^2)", 4, 6)
    m3_zero = all(not v for v in st4.ops[3].values())
    m4 = st4.op(("h1:1/2^2#0",) * 4)
    ok = (massey3 is not None and massey3 == m3 and m3 and list(m3) == ["h2:1#0"]
          and massey4 is not None and massey4 == m4 and m4
          and list(m4) == ["h2:1#0"] and m3_zero)
    return CriterionResult(
        4, "non-formality witnesses match Massey-product oracles", ok,
        f"Z/3: m_3(t,t,t) = {m3} = <t,t,t>; "
        f"Z/4: m_3 = 0, m_4(t,t,t,t) = {m4} = <t,t,t,t>",
        {"m3": m3, "m4": m4, "massey3": massey3, "massey4": massey4})


def criterion_5(lab: Lab) -> CriterionResult:
    counts, vectors = {}, {}
    ok = True
    for spec in ("cyclic(2^1)", "cyclic(3^1)", "cyclic(2^2)"):
        st = lab.transfer(spec, 4, 6)
        checked, failures = check_stasheff(st)
        counts[spec] = checked
        vectors[spec] = SDR(lab.bar(spec, 7)).verify_identities()
        ok = ok and checked > 0 and failures == [] and vectors[spec] > 0
    return CriterionResult(
        5, "SDR identities and Stasheff relations hold exactly on all transfers",
        ok, f"relation instances checked: {counts}, zero residuals; "
        f"SDR identities checked on {vectors} basis vectors",
        {"checked": counts, "sdr_vectors": vectors})


def criterion_6(lab: Lab) -> CriterionResult:
    total = 0
    ok = True
    for spec in ("cyclic(2^1)", "cyclic(3^1)", "cyclic(2^2)"):
        st = lab.transfer(spec, 4, 6)
        space = st.space
        for k, labels, out in st.nonzero():
            want = internal_zero(space.field.p)
            for l in labels:
                want = want + space.degrees(l)[1]
            for label in out:
                total += 1
                ok = ok and space.degrees(label)[1] == want
                ok = ok and space.degrees(label)[0] == sum(
                    space.degrees(l)[0] for l in labels) + 2 - k
    return CriterionResult(
        6, "every operation preserves the internal grading", ok,
        f"{total} nonzero tensor entries, all bidegree-exact",
        {"entries": total})


def criterion_7(lab: Lab) -> CriterionResult:
    lifts = equivariant_splitting(parse_group_spec(
        "semidirect(cyclic(3^2), inversion)"))
    l2, l1 = lifts[2][0], lifts[1][0]
    cube = poly_pow(l2, 3, (9,), 3)
    cube_ok = cube == {(3 * e[0],): c for e, c in l1.items()}
    # depth-1 oracle: the unique eigenline of the inversion action on the
    # augmentation ideal of F_3[Z/3] that is congruent to Y mod J^2
    z_sq = poly_mul({(0,): 1, (1,): 1}, {(0,): 1, (1,): 1}, (3,), 3)
    w_y = {e: c for e, c in z_sq.items() if e != (0,)}
    eigen = [a for a in range(3)
             if _apply_rank1(w_y, {(1,): 1, (2,): a}, (3,), 3)
             == vec_scale({(1,): 1, (2,): a}, 2, 3)]
    base = equivariant_splitting(parse_group_spec(
        "semidirect(cyclic(3^1), inversion)"))[1][0]
    depth1_ok = eigen == [1] and base in ({(1,): 1, (2,): 1},
                                          vec_scale({(1,): 1, (2,): 1}, 2, 3))
    # W-stability of the depth-2 lift, recomputed with plain powers
    z8 = poly_pow({(0,): 1, (1,): 1}, 8, (9,), 3)
    w_y2 = {e: c for e, c in z8.items() if e != (0,)}
    stable_ok = _apply_rank1(w_y2, l2, (9,), 3) == vec_scale(l2, 2, 3)
    ok = cube_ok and depth1_ok and stable_ok
    return CriterionResult(
        7, "consistent equivariant splittings across depths", ok,
        f"level-1 lift = (level-2 lift)^3: {cube_ok}; depth-1 lift = X + X^2 "
        f"up to scalar: {depth1_ok}; lifted line W-stable: {stable_ok}",
        {"lift1": sorted(l1.items()), "lift2": sorted(l2.items())})


def _apply_rank1(w_y: dict, v: dict, caps: tuple, p: int) -> dict:
    """Image of v under Y -> w_y, for rank-1 truncated polynomials."""
    out: dict = {}
    for e, c in v.items():
        vec_add_scaled(out, poly_pow(w_y, e[0], caps, p), c, p)
    return out


def criterion_8(lab: Lab) -> CriterionResult:
    small = compare_finite_vs_invariants("semidirect(cyclic(3^1), inversion)", 6)
    stretch = compare_finite_vs_invariants("semidirect(torus(3,1,2), inversion)", 3)
    ok = (small.agree and small.bar_dims == [1, 0, 0, 1, 1, 0, 0]
          and stretch.agree and stretch.bar_dims == [1, 0, 1, 4])
    return CriterionResult(
        8, "bar cohomology of T x| W equals torus W-invariants", ok,
        f"mu_3 x| Z/2: {small.bar_dims}; mu_3^2 x| Z/2: {stretch.bar_dims}",
        {"small": small.bar_dims, "stretch": stretch.bar_dims})


def criterion_9(lab: Lab) -> CriterionResult:
    rep = invariant_dims(TorusModel(
        "colimit(semidirect(torus(3,inf,2), inversion))", 8))
    even = [rep.dims[d] for d in (0, 2, 4, 6, 8)]
    odd_zero = all(rep.dims[d] == 0 for d in (1, 3, 5, 7))
    gens = {(d, tuple(sorted(v))) for d, v in rep.minimal_generators}
    gens_ok = gens == {(4, ("x1^2",)), (4, ("x1*x2",)), (4, ("x2^2",))}
    ok = even == [1, 0, 3, 0, 5] and odd_zero and gens_ok and rep.dims[2] == 0
    return CriterionResult(
        9, "rank-2 inversion invariants: x^2, xy, y^2", ok,
        f"even dims {even}; generators {sorted(l for _, v in gens for l in v)}; "
        f"degree-2 invariants dim {rep.dims[2]}",
        {"even": even, "generators": sorted(gens)})


def criterion_10(lab: Lab) -> CriterionResult:
    verdicts = {}
    for spec in ("colimit(cyclic(3^inf))",
                 "colimit(semidirect(cyclic(3^inf), inversion))",
                 "colimit(semidirect(torus(3,inf,2), inversion))"):
        verdicts[spec] = certificate_for_spec(spec, 8).verdict
    finite = certificate_for_spec("cyclic(3^1)", 6)
    verdicts["cyclic(3^1)"] = finite.verdict
    ok = (all(v == CERTIFIED for s, v in verdicts.items() if s.startswith("colimit"))
          and finite.verdict == NOT_APPLICABLE and "t1" in finite.violators)
    return CriterionResult(
        10, "doubling certificates at the colimit, refusal at finite level", ok,
        f"{verdicts}; finite violators cite {finite.violators[:1]}",
        {"verdicts": verdicts, "violators": finite.violators})


def criterion_11(lab: Lab) -> CriterionResult:
    from . import cli
    runs = {}
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in (
            ("transfer", ["transfer", "--spec", "cyclic(3^1)",
                          "--max-degree", "5", "--max-arity", "3",
                          "--cache-dir", tmp]),
            ("certificate", ["certificate", "--spec",
                             "colimit(semidirect(torus(3,inf,2), inversion))",
                             "--max-degree", "8", "--cache-dir", tmp]),
        ):
            code1, text1, meta1 = cli.run_report(argv)
            code2, text2, meta2 = cli.run_report(argv)
            identical = text1 == text2 and code1 == code2 == 0
            hits = meta2["hits"]
            runs[name] = {"identical": identical, "secondRunHits": hits}
            ok = ok and identical and meta1["hits"] == 0 and hits > 0
    return CriterionResult(
        11, "byte-identical reruns with cache hits", ok,
        f"{runs}", {"runs": runs})


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11)


def run_criterion(number: int, lab: Lab) -> CriterionResult:
    fn = CRITERIA[number - 1]
    started = time.monotonic()
    try:
        result = fn(lab)
    except Exception as exc:  # report, never abort the checklist
        result = CriterionResult(number, fn.__name__, False, f"raised {exc!r}")
    result.elapsed = time.monotonic() - started
    return result


def run_all() -> list[CriterionResult]:
    lab = Lab()
    return [run_criterion(i, lab) for i in range(1, len(CRITERIA) + 1)]
