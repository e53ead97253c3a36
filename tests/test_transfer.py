import functools
import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from ainfbar.bar import BlockBasis, build_bar
from ainfbar.grading import internal_zero
from ainfbar.groups import build_group_algebra
from ainfbar.linalg import vec_add_scaled
from ainfbar.transfer import (
    CapOverflowError, SDR, TransferEngine, check_stasheff, sigma,
    stasheff_residuals, transfer,
)
from packed import pack_cochain, unpack_cochain
from reference import reference_stasheff_residuals, reference_tuples


def cup_all(p, *reps):
    def mul(a, b):
        prod = {}
        for w1, c1 in a.items():
            for w2, c2 in b.items():
                vec_add_scaled(prod, {w1 + w2: c1 * c2}, 1, p)
        return prod

    out = reps[0]
    for r in reps[1:]:
        out = mul(out, r)
    return out


@pytest.mark.parametrize("spec,cap", [
    ("cyclic(3^1)", 6),
    ("cyclic(2^2)", 6),
    ("cyclic(5^1)", 5),
    ("semidirect(cyclic(3^1), inversion)", 5),
    ("semidirect(torus(2,1,2), Z3:[[0,1],[1,1]])", 5),
])
def test_sdr_identities_hold_exactly(spec, cap):
    alg = build_group_algebra(spec)
    sdr = SDR(build_bar(alg, cap))
    assert sdr.verify_identities() > 0


def test_m2_matches_independent_cup_product():
    alg = build_group_algebra("cyclic(3^1)")
    bar = build_bar(alg, 6)
    st = transfer(bar, arity_cap=3, degree_cap=5)
    coh = bar.cohomology()
    labels = [l for l in coh.space.labels() if coh.space.degrees(l)[0] <= 2]
    for a in labels:
        for b in labels:
            if coh.space.degrees(a)[0] + coh.space.degrees(b)[0] > 5:
                continue
            assert st.op((a, b)) == coh.cup(a, b), (a, b)


def test_triple_product_matches_massey_oracle():
    # defining system: dU = T cup T with U = -dual(X^2); the triple product
    # is the class of U cup T + T cup U, computed without the transfer engine
    alg = build_group_algebra("cyclic(3^1)")
    bar = build_bar(alg, 6)
    coh = bar.cohomology()
    X, X2 = alg.iota_letters()
    T = {(X,): 1}
    U = {(X2,): 2}
    dU = unpack_cochain(bar, bar.d_cochain(pack_cochain(bar, U)))
    assert dU == cup_all(3, T, T)
    M = {}
    vec_add_scaled(M, cup_all(3, U, T), 1, 3)
    vec_add_scaled(M, cup_all(3, T, U), 1, 3)
    massey = coh.reduce_cocycle(pack_cochain(bar, M))
    assert massey == {"h2:1#0": 2}

    st = transfer(bar, arity_cap=3, degree_cap=5)
    t = "h1:1/3#0"
    assert st.op((t, t, t)) == massey


def test_quadruple_product_matches_massey_oracle_char_2():
    # 4-fold defining system over F_2 for the cyclic group of order 4:
    # u_{i,i+1} = dual(X^2) kills t cup t, v = dual(X^3) kills the next layer,
    # and the product class is [t v + u u + v t]
    alg = build_group_algebra("cyclic(2^2)")
    bar = build_bar(alg, 7)
    coh = bar.cohomology()
    X, X2, X3 = alg.iota_letters()
    T = {(X,): 1}
    U = {(X2,): 1}
    V = {(X3,): 1}
    dU = unpack_cochain(bar, bar.d_cochain(pack_cochain(bar, U)))
    assert dU == cup_all(2, T, T)
    dV = unpack_cochain(bar, bar.d_cochain(pack_cochain(bar, V)))
    want = {}
    vec_add_scaled(want, cup_all(2, T, U), 1, 2)
    vec_add_scaled(want, cup_all(2, U, T), 1, 2)
    assert dV == want
    M = {}
    vec_add_scaled(M, cup_all(2, T, V), 1, 2)
    vec_add_scaled(M, cup_all(2, U, U), 1, 2)
    vec_add_scaled(M, cup_all(2, V, T), 1, 2)
    massey = coh.reduce_cocycle(pack_cochain(bar, M))
    assert massey == {"h2:1#0": 1}

    st = transfer(bar, arity_cap=4, degree_cap=6)
    t = "h1:1/2^2#0"
    assert st.op((t, t, t, t)) == massey
    # m_3 vanishes identically in this case
    for labels, out in st.ops[3].items():
        assert out == {}, labels


def test_cyclic_2_all_higher_operations_vanish():
    # the differential is zero, so the homotopy is zero and everything
    # above arity 2 dies
    alg = build_group_algebra("cyclic(2^1)")
    st = transfer(build_bar(alg, 7), arity_cap=4, degree_cap=6)
    for k in (3, 4):
        for labels, out in st.ops[k].items():
            assert out == {}, labels
    # the ring is polynomial: t cup t is the degree 2 class
    t = "h1:1/2#0"
    sq = st.op((t, t))
    assert sq == {"h2:1#0": 1}


def test_cyclic_5_first_higher_operation_at_arity_5():
    alg = build_group_algebra("cyclic(5^1)")
    st = transfer(build_bar(alg, 6), arity_cap=5, degree_cap=5)
    t = "h1:1/5#0"
    for k in (3, 4):
        for labels, out in st.ops[k].items():
            assert out == {}, labels
    assert st.op((t,) * 5) == {"h2:1#0": 1}


@pytest.mark.parametrize("spec,q", [
    ("cyclic(2^2)", 4), ("cyclic(2^3)", 8), ("cyclic(3^1)", 3),
    ("cyclic(3^2)", 9), ("cyclic(3^3)", 27), ("cyclic(5^2)", 25),
    ("cyclic(7^2)", 49),
])
def test_lpwz_witness_on_demand(spec, q):
    # Lu-Palmieri-Wu-Zhang closed form for Ext over k[x]/(x^q):
    # m_k(t, .., t) = 0 for 2 < k < q, and m_q(t, .., t) = unit * x
    bar = build_bar(build_group_algebra(spec), 3)
    space = bar.cohomology().space
    (t,) = [l for l in space.labels() if space.degrees(l)[0] == 1]
    (x,) = [l for l in space.labels() if space.degrees(l)[0] == 2]
    engine = TransferEngine(SDR(bar), 2)
    for k in range(3, q):
        assert engine.m((t,) * k) == {}, k
    out = engine.m((t,) * q)
    assert list(out) == [x] and out[x] != 0


def test_cold_m_needs_no_recursion():
    # a tuple is solved once both faces are, from an explicit stack: an
    # arity past the interpreter's recursion limit returns, and a cold
    # witness agrees with the one built up arity by arity
    bar = build_bar(build_group_algebra("cyclic(3^1)"), 3)
    (t,) = [l for l in bar.cohomology().space.labels() if l.startswith("h1:")]
    assert TransferEngine(SDR(bar), 2).m((t,) * 512) == {}
    bar = build_bar(build_group_algebra("cyclic(3^5)"), 3)
    (t,) = [l for l in bar.cohomology().space.labels() if l.startswith("h1:")]
    cold = TransferEngine(SDR(bar), 2).m((t,) * 243)
    warm = TransferEngine(SDR(bar), 2)
    for k in range(2, 243):
        warm.m((t,) * k)
    assert cold == warm.m((t,) * 243) == {"h2:1#0": 2}


def test_strict_unitality():
    alg = build_group_algebra("cyclic(3^1)")
    st = transfer(build_bar(alg, 6), arity_cap=4, degree_cap=5)
    unit = "h0:0#0"
    for k in (3, 4):
        for labels, out in st.ops[k].items():
            if unit in labels:
                assert out == {}, labels
    for labels, out in st.ops[2].items():
        a, b = labels
        if a == unit:
            assert out == {b: 1}
        elif b == unit:
            assert out == {a: 1}


def test_stasheff_relations_hold():
    for spec, arity, degcap in [("cyclic(3^1)", 4, 6), ("cyclic(2^2)", 4, 6)]:
        alg = build_group_algebra(spec)
        st = transfer(build_bar(alg, degcap + 1), arity_cap=arity,
                      degree_cap=degcap)
        checked, failures = check_stasheff(st)
        assert checked > 0
        assert failures == []


def test_internal_degree_additivity_of_operations():
    alg = build_group_algebra("cyclic(3^2)")
    bar = build_bar(alg, 5)
    st = transfer(bar, arity_cap=3, degree_cap=4)
    space = st.space
    for k, labels, out in st.nonzero():
        want = internal_zero(3)
        for l in labels:
            want = want + space.degrees(l)[1]
        for label in out:
            assert space.degrees(label)[1] == want
            assert space.degrees(label)[0] == sum(
                space.degrees(l)[0] for l in labels) + 2 - k


def test_transfer_is_deterministic():
    alg = build_group_algebra("cyclic(3^1)")
    st1 = transfer(build_bar(alg, 6), arity_cap=4, degree_cap=5)
    st2 = transfer(build_bar(alg, 6), arity_cap=4, degree_cap=5)
    assert st1.ops == st2.ops


def test_degree_cap_needs_room_in_the_bar_complex():
    alg = build_group_algebra("cyclic(3^1)")
    bar = build_bar(alg, 4)
    with pytest.raises(CapOverflowError):
        transfer(bar, arity_cap=3, degree_cap=4)
    st = transfer(bar, arity_cap=3, degree_cap=3)
    assert st.ops[2]


def test_engine_enforces_its_degree_cap():
    bar = build_bar(build_group_algebra("cyclic(3^1)"), 6)
    with pytest.raises(CapOverflowError):
        TransferEngine(SDR(bar), 6)
    space = bar.cohomology().space
    (x,) = [l for l in space.labels() if space.degrees(l)[0] == 2]
    # m_2(x, x) passes through degree 4: refused at cap 1, x^2 at cap 4
    with pytest.raises(CapOverflowError):
        TransferEngine(SDR(bar), 1).m((x, x))
    assert TransferEngine(SDR(bar), 4).m((x, x)) == {"h4:2#0": 1}


class RetractSurface:
    """Only what the recursion may read of a retract: no bar, no cohomology."""

    def __init__(self, sdr):
        self.space, self.p, self.reach = sdr.space, sdr.p, sdr.reach
        self.incl, self.split, self.product = sdr.incl, sdr.split, sdr.product


def test_engine_reads_only_the_retract_surface():
    bar = build_bar(build_group_algebra("cyclic(3^1)"), 6)
    st = transfer(bar, arity_cap=4, degree_cap=5)
    engine = TransferEngine(RetractSurface(SDR(bar)), 5)
    assert any(len(labels) == 3 for _, labels, _ in st.nonzero())
    for k, table in st.ops.items():
        assert table
        for labels, out in table.items():
            assert engine.m(labels) == out, labels
    assert engine.ops == st.ops


def test_pinned_sign_rule():
    # sigma(1, 1) must be even so that the arity 2 operation is the honest
    # cup product; the pinned rule is Merkulov's s + 1
    assert sigma(1, 1) % 2 == 0
    assert [sigma(s, 1) % 2 for s in (1, 2, 3)] == [0, 1, 0]


def test_semidirect_transfer_runs_and_is_stasheff():
    alg = build_group_algebra("semidirect(cyclic(3^1), inversion)")
    st = transfer(build_bar(alg, 6), arity_cap=3, degree_cap=5)
    checked, failures = check_stasheff(st)
    assert failures == []
    # cohomology is free on one degree 3 and one degree 4 class below 5
    degs = sorted(st.space.degrees(l)[0] for l in st.space.labels())
    assert degs == [0, 3, 4]


def test_semidirect_op_table_is_pinned():
    # the whole table, hashed in the canonical JSON form bench/jobs.py
    # digests: a byte-level oracle for a semidirect bar past degree 3
    alg = build_group_algebra("semidirect(cyclic(3^2), inversion)")
    st = transfer(build_bar(alg, 5), arity_cap=3, degree_cap=4)
    table = [[k, list(labels), sorted(out.items())]
             for k in sorted(st.ops) for labels, out in sorted(st.ops[k].items())]
    canonical = json.dumps(table, sort_keys=True, separators=(",", ":"))
    assert len(table) == 12
    assert sum(1 for row in table if row[2]) == 5
    assert hashlib.sha256(canonical.encode()).hexdigest() == (
        "1f2db357dd503eda5f8d49107b1846d29ed09b8201978d3502e072eddd1a4afb")
    checked, failures = check_stasheff(st)
    assert (checked, failures) == (16, [])


def test_one_coordinate_solve_per_lambda(monkeypatch):
    bar = build_bar(build_group_algebra("cyclic(2^2)"), 5)
    space = bar.cohomology().space
    tuples = [tup for k in (3, 2, 4) for tup in reference_tuples(space, k, 4)]
    solves = []
    coords = BlockBasis.coords
    monkeypatch.setattr(BlockBasis, "coords",
                        lambda self, v: solves.append(dict(v)) or coords(self, v))
    lams = []
    lam = TransferEngine.lam
    monkeypatch.setattr(TransferEngine, "lam",
                        lambda self, tup: lams.append(tup) or lam(self, tup))
    engine = TransferEngine(SDR(bar), 4)
    got = {tup: engine.m(tup) for tup in tuples + tuples[::-1]}
    assert len(lams) == len(set(lams))
    assert set(tuples) <= set(lams)
    assert len(solves) == sum(1 for tup in lams if lam(engine, tup))
    assert any(len(tup) == 4 and out for tup, out in got.items())
    monkeypatch.undo()
    sdr = SDR(bar)
    for tup in lams:
        cochain = engine.lam(tup)
        assert sdr.split(cochain) == (engine.hlam(tup), engine.m(tup))


@functools.lru_cache(maxsize=None)
def cached_algebra(spec):
    return build_group_algebra(spec)


@st.composite
def small_transfer_bars(draw):
    """Bar complexes of cyclic groups of order p^depth, p <= 5 and
    depth <= 2, with and without the inversion, capped at 3, or higher up
    to 5 while the top length stays within 5000 words."""
    p = draw(st.sampled_from([2, 3, 5]))
    spec = f"cyclic({p}^{draw(st.integers(1, 2))})"
    if p > 2 and draw(st.booleans()):
        spec = f"semidirect({spec}, inversion)"
    alg = cached_algebra(spec)
    top = max(c for c in range(3, 6) if (alg.dim - 1) ** c <= 5000 or c == 3)
    return build_bar(alg, draw(st.integers(3, top)))


@settings(max_examples=25, deadline=None)
@given(small_transfer_bars())
def test_sdr_identities_and_stasheff_on_small_specs(bar):
    assert SDR(bar).verify_identities() > 0
    ops = transfer(bar, arity_cap=3, degree_cap=bar.cap - 1)
    checked, failures = check_stasheff(ops)
    assert checked > 0
    assert failures == []


@settings(max_examples=25, deadline=None)
@given(small_transfer_bars(), st.integers(2, 5))
def test_face_rule_matches_the_walk_over_every_tuple(bar, arity_cap):
    # ops[k] holds exactly the tuples with every intermediate within the
    # cap, in product order, and the Stasheff check visits exactly the
    # tuples whose terms are all tabulated, with the same residuals
    degree_cap = bar.cap - 1
    ops = transfer(bar, arity_cap=arity_cap, degree_cap=degree_cap)
    for k in range(2, arity_cap + 1):
        assert list(ops.ops[k]) == reference_tuples(ops.space, k, degree_cap)
    walked = []
    for n in range(3, arity_cap + 2):
        found = reference_stasheff_residuals(ops, n)
        assert list(stasheff_residuals(ops, n)) == found
        walked += found
    assert check_stasheff(ops) == (len(walked), [(t, r) for t, r in walked if r])
