import pytest

from ainfbar.bar import build_bar
from ainfbar.formality import (
    CERTIFIED, NOT_APPLICABLE, WITNESSED, ComparisonReport, TorusModel,
    Witness, certificate_for_spec, certify_by_doubling,
    compare_finite_vs_invariants, invariant_dims, nonformality_witness,
    witness_certificate,
)
from ainfbar.grading import InternalDegree
from ainfbar.groups import SpecError, build_group_algebra
from ainfbar.transfer import transfer
from reference import reference_rref


def exterior_poly_fixed_count(p_parity_flips: bool, degree: int) -> int:
    # rank 1 oracle: monomials t^d x^e, d in {0,1}, d + 2e = degree; under
    # inversion the monomial picks up (-1)^(d+e)
    count = 0
    for d in (0, 1):
        if (degree - d) % 2 or degree - d < 0:
            continue
        e = (degree - d) // 2
        if not p_parity_flips or (d + e) % 2 == 0:
            count += 1
    return count


def test_model_basis_bidegrees():
    space = invariant_dims(TorusModel("cyclic(3^1)", 5)).space
    assert space.degrees("t1") == (1, InternalDegree(3, 1, 1))
    assert space.degrees("x1") == (2, InternalDegree(3, 1))
    assert space.degrees("t1*x1^2") == (5, InternalDegree(3, 7, 1))
    assert space.dims_by_cohdeg() == {d: 1 for d in range(6)}


def test_colimit_model_has_no_exterior_classes():
    space = invariant_dims(TorusModel("colimit(cyclic(3^inf))", 6)).space
    labels = space.labels()
    assert labels == ["1", "x1", "x1^2", "x1^3"]
    for label in labels[1:]:
        coh, s = space.degrees(label)
        assert s.scaled(2) == InternalDegree(3, coh)


def test_multiply_graded_commutativity():
    m = TorusModel("torus(3,1,2)", 6)
    t1 = {((1, 0), (0, 0)): 1}
    t2 = {((0, 1), (0, 0)): 1}
    x1 = {((0, 0), (1, 0)): 1}
    assert m.multiply(t1, t1) == {}
    ab = m.multiply(t1, t2)
    ba = m.multiply(t2, t1)
    assert ab == {((1, 1), (0, 0)): 1}
    assert ba == {((1, 1), (0, 0)): 2}
    assert m.multiply(t1, x1) == m.multiply(x1, t1)


def test_rank1_inversion_invariants_match_hand_count():
    rep = invariant_dims(TorusModel("semidirect(cyclic(3^1), inversion)", 7))
    want = [exterior_poly_fixed_count(True, d) for d in range(8)]
    assert rep.dims == want == [1, 0, 0, 1, 1, 0, 0, 1]


def test_trivial_weyl_invariants_equal_ambient():
    m = TorusModel("cyclic(5^1)", 6)
    rep = invariant_dims(m)
    assert rep.dims == [len(m.monomials(d)) for d in range(7)]
    assert rep.dims == [1] * 7


def test_rank2_colimit_inversion_dims_and_generators():
    rep = invariant_dims(
        TorusModel("colimit(semidirect(torus(3,inf,2), inversion))", 8))
    assert [rep.dims[d] for d in (0, 2, 4, 6, 8)] == [1, 0, 3, 0, 5]
    assert all(rep.dims[d] == 0 for d in (1, 3, 5, 7))
    gens = {(d, tuple(sorted(vec))) for d, vec in rep.minimal_generators}
    assert gens == {(4, ("x1^2",)), (4, ("x1*x2",)), (4, ("x2^2",))}
    assert rep.dims[2] == 0


def test_minimal_generators_of_full_cyclic_model():
    rep = invariant_dims(TorusModel("cyclic(3^1)", 6))
    gens = [(d, tuple(sorted(vec))) for d, vec in rep.minimal_generators]
    assert gens == [(1, ("t1",)), (2, ("x1",))]


def test_comparison_s3_model():
    rep = compare_finite_vs_invariants("semidirect(cyclic(3^1), inversion)", 6)
    assert rep.bar_dims == [1, 0, 0, 1, 1, 0, 0]
    assert rep.invariant_dims == rep.bar_dims
    assert rep.agree and rep.mismatches == []


def test_comparison_trivial_weyl_is_tautological():
    rep = compare_finite_vs_invariants("cyclic(3^1)", 4)
    assert rep.bar_dims == rep.invariant_dims == [1] * 5
    assert rep.agree


def test_comparison_rank2_stretch():
    rep = compare_finite_vs_invariants("semidirect(torus(3,1,2), inversion)", 3)
    assert rep.bar_dims == [1, 0, 1, 4]
    assert rep.invariant_dims == [1, 0, 1, 4]
    assert rep.agree


def test_comparison_rejects_colimit_specs():
    with pytest.raises(SpecError):
        compare_finite_vs_invariants("colimit(cyclic(3^inf))", 4)


@pytest.mark.parametrize("spec", [
    "colimit(cyclic(3^inf))",
    "colimit(semidirect(cyclic(3^inf), inversion))",
    "colimit(semidirect(torus(3,inf,2), inversion))",
])
def test_colimit_certificates_are_formal(spec):
    cert = certificate_for_spec(spec, 8)
    assert cert.verdict == CERTIFIED
    assert cert.violators == []
    assert "i = 2" in cert.derivation


def test_finite_level_certificate_cites_the_exterior_class():
    cert = certificate_for_spec("cyclic(3^1)", 6)
    assert cert.verdict == NOT_APPLICABLE
    assert "t1" in cert.violators
    assert all(label.startswith("t1") for label in cert.violators)


def test_certificate_agrees_with_doubling_check():
    for spec, trunc in [("cyclic(3^1)", 5), ("colimit(cyclic(3^inf))", 6),
                        ("semidirect(cyclic(3^1), inversion)", 6)]:
        rep = invariant_dims(TorusModel(spec, trunc))
        cert = certify_by_doubling(rep.space, spec)
        from ainfbar.grading import doubling_check
        ok, bad = doubling_check(rep.space)
        assert (cert.verdict == CERTIFIED) == ok
        assert cert.violators == [str(b) for b in bad]


def test_witness_for_cyclic_3():
    st = transfer(build_bar(build_group_algebra("cyclic(3^1)"), 6),
                  arity_cap=4, degree_cap=5)
    w = nonformality_witness(st)
    assert w == Witness(3, ("h1:1/3#0",) * 3, "h2:1#0", 2)
    cert = witness_certificate(st.space, w, "cyclic(3^1)")
    assert cert.verdict == WITNESSED
    assert "m_3" in cert.derivation and cert.witness is w


def test_no_witness_for_cyclic_2():
    st = transfer(build_bar(build_group_algebra("cyclic(2^1)"), 7),
                  arity_cap=4, degree_cap=6)
    assert nonformality_witness(st) is None


def test_witness_scan_prefers_smallest_arity():
    st = transfer(build_bar(build_group_algebra("cyclic(2^2)"), 7),
                  arity_cap=4, degree_cap=6)
    w = nonformality_witness(st)
    assert w is not None and w.arity == 4
    assert w.inputs == ("h1:1/2^2#0",) * 4


def test_doubling_compliant_classes_have_vanishing_higher_ops():
    # the even polynomial part of H*(BZ/3) obeys doubling, and every
    # computed higher operation with all inputs there must vanish
    st = transfer(build_bar(build_group_algebra("cyclic(3^1)"), 6),
                  arity_cap=4, degree_cap=5)
    space = st.space
    compliant = {l for l in space.labels()
                 if space.degrees(l)[1].scaled(2)
                 == InternalDegree(3, space.degrees(l)[0])}
    assert "h2:1#0" in compliant and "h1:1/3#0" not in compliant
    for k in (3, 4):
        for labels, out in st.ops[k].items():
            if all(l in compliant for l in labels):
                assert out == {}, labels


def test_invariant_report_is_deterministic():
    a = invariant_dims(TorusModel("semidirect(torus(3,1,2), inversion)", 4))
    b = invariant_dims(TorusModel("semidirect(torus(3,1,2), inversion)", 4))
    assert a.dims == b.dims and a.basis == b.basis
    assert a.minimal_generators == b.minimal_generators


@pytest.mark.parametrize("spec,mixed", [
    ("semidirect(torus(2,1,2), Z3:[[0,1],[1,1]])", True),
    ("semidirect(torus(5,1,2), Z4:[[0,-1],[1,0]])", True),
    ("colimit(semidirect(torus(7,inf,2), Z3:[[0,-1],[1,-1]]))", True),
    ("semidirect(torus(3,1,3), inversion)", False),
    ("torus(3,1,2)", False),
])
def test_invariant_bases_are_the_rref_of_the_projector_image(spec, mixed):
    # the Z3 and Z4 actions mix monomials, so some basis vectors have
    # several terms and only the RREF fixes them: reading the columns of
    # P - 1 forward gives other bases on these three.  With inversion, or
    # no action, P is diagonal and every basis vector is one monomial
    model = TorusModel(spec, 10)
    p, order = model.p, model.weyl.size
    inv_order = pow(order, -1, p)
    want = {}
    for d in range(11):
        want[d] = []
        for _, monos in model.blocks(d):
            index = {m: i for i, m in enumerate(monos)}
            cols = []
            for m in monos:
                col = {}
                for w in range(order):
                    for m2, c in model.act_mono(w, m).items():
                        k = index[m2]
                        col[k] = (col.get(k, 0) + c * inv_order) % p
                cols.append(col)
            for row in reference_rref(model.field, cols):
                want[d].append({model.label(monos[c]): v
                                for c, v in sorted(row.items())})
    assert invariant_dims(model).basis == want
    assert any(len(vec) > 1 for vecs in want.values() for vec in vecs) == mixed


def test_bad_truncation_rejected():
    with pytest.raises(ValueError):
        TorusModel("cyclic(3^1)", -1)
