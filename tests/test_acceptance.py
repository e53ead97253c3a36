"""Acceptance gate: one test per checklist criterion.

Each test prints its PASS/FAIL line straight to the real terminal (capture
suspended, so the lines are visible in the normal test log), then
re-asserts the pinned expected values inline.  The constants here are typed
out literally on purpose: they must not drift with the implementation.
"""

import pytest

from ainfbar import verify


@pytest.fixture(scope="module")
def lab():
    return verify.Lab()


@pytest.fixture
def run(capfd, lab):
    def _run(number):
        res = verify.run_criterion(number, lab)
        with capfd.disabled():
            print(res.line(), flush=True)
        assert res.ok, res.detail
        return res
    return _run


def test_criterion_01_rank_one_rings(run):
    res = run(1)
    assert res.data["dims"] == {"cyclic(3^1)": [1, 1, 1, 1, 1, 1, 1],
                                "cyclic(5^1)": [1, 1, 1, 1, 1, 1, 1],
                                "cyclic(2^2)": [1, 1, 1, 1, 1, 1, 1]}
    assert res.elapsed < 60


def test_criterion_02_z2_is_strictly_formal(run):
    res = run(2)
    assert res.data["dims"] == [1, 1, 1, 1, 1, 1, 1]
    assert res.data["higher"] == {3: 0, 4: 0}
    assert res.elapsed < 30


def test_criterion_03_restriction_to_the_bottom_level(run):
    res = run(3)
    assert res.data["x_coeff"] % 3 != 0
    assert res.elapsed < 60


def test_criterion_04_massey_product_oracles(run):
    res = run(4)
    assert res.data["m3"] == {"h2:1#0": 2} == res.data["massey3"]
    assert res.data["m4"] == {"h2:1#0": 1} == res.data["massey4"]
    assert res.elapsed < 120


def test_criterion_05_stasheff_relations(run):
    res = run(5)
    assert set(res.data["checked"]) == {"cyclic(2^1)", "cyclic(3^1)",
                                        "cyclic(2^2)"}
    assert all(n > 0 for n in res.data["checked"].values())
    assert res.data["sdr_vectors"] == {"cyclic(2^1)": 6, "cyclic(3^1)": 63,
                                       "cyclic(2^2)": 364}
    assert all(n > 0 for n in res.data["sdr_vectors"].values())


def test_criterion_06_internal_grading_is_preserved(run):
    res = run(6)
    assert res.data["entries"] > 0


def test_criterion_07_splitting_consistency(run):
    res = run(7)
    assert res.data["lift1"] == [((1,), 1), ((2,), 1)]
    assert res.data["lift2"] == [((1,), 1), ((2,), 1), ((3,), 2), ((4,), 1),
                                 ((5,), 2), ((6,), 1), ((7,), 2), ((8,), 1)]
    assert res.elapsed < 5


def test_criterion_08_invariants_match_bar_cohomology(run):
    res = run(8)
    assert res.data["small"] == [1, 0, 0, 1, 1, 0, 0]
    assert res.data["stretch"] == [1, 0, 1, 4]
    assert res.elapsed < 600


def test_criterion_09_rank_two_invariant_generators(run):
    res = run(9)
    assert res.data["even"] == [1, 0, 3, 0, 5]
    assert set(res.data["generators"]) == {(4, ("x1^2",)), (4, ("x1*x2",)),
                                           (4, ("x2^2",))}
    assert res.elapsed < 5


def test_criterion_10_doubling_certificates(run):
    res = run(10)
    assert res.data["verdicts"] == {
        "colimit(cyclic(3^inf))": "certified-formal",
        "colimit(semidirect(cyclic(3^inf), inversion))": "certified-formal",
        "colimit(semidirect(torus(3,inf,2), inversion))": "certified-formal",
        "cyclic(3^1)": "not-applicable",
    }
    assert "t1" in res.data["violators"]
    assert res.elapsed < 1


def test_criterion_11_byte_identical_reruns(run):
    res = run(11)
    for name in ("transfer", "certificate"):
        assert res.data["runs"][name]["identical"] is True
        assert res.data["runs"][name]["secondRunHits"] >= 1
