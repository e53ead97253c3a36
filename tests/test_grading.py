from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ainfbar.grading import (
    BigradedMap, BigradedSpace, InternalDegree, doubling_check, internal_zero,
)
from ainfbar.linalg import PrimeField


# -- InternalDegree against the Fraction oracle ------------------------------

def as_fraction(d: InternalDegree) -> Fraction:
    return Fraction(d.num, d.p ** d.pexp)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(-40, 40), st.integers(0, 5),
       st.integers(-40, 40), st.integers(0, 5))
def test_internal_degree_matches_fractions(p, n1, e1, n2, e2):
    a = InternalDegree(p, n1, e1)
    b = InternalDegree(p, n2, e2)
    assert as_fraction(a + b) == as_fraction(a) + as_fraction(b)
    assert (a < b) == (as_fraction(a) < as_fraction(b))
    assert (a == b) == (as_fraction(a) == as_fraction(b))
    assert as_fraction(a.scaled(3)) == 3 * as_fraction(a)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(-100, 100), st.integers(0, 6))
def test_internal_degree_lowest_terms(p, n, e):
    d = InternalDegree(p, n, e)
    # lowest terms with respect to p: numerator not divisible by p unless e = 0
    assert d.pexp == 0 or d.num % p != 0
    assert as_fraction(d) == Fraction(n, p ** e)
    # hashing respects equality after reduction
    assert hash(d) == hash(InternalDegree(p, n * p, e + 1))


def test_internal_degree_examples():
    # 1/9 + 2/9 = 3/9 = 1/3
    d = InternalDegree(3, 1, 2) + InternalDegree(3, 2, 2)
    assert (d.num, d.pexp) == (1, 1)
    assert internal_zero(3) == InternalDegree(3, 0)
    assert str(InternalDegree(3, 4, 2)) == "4/3^2"
    assert InternalDegree(5, 10, 1) == InternalDegree(5, 2, 0)
    assert InternalDegree(2, 3, 1).as_pair() == [3, 1]


# -- spaces and maps ----------------------------------------------------------

def two_spaces(p=3):
    f = PrimeField(p)
    s = BigradedSpace(f, [
        ("a", 0, internal_zero(p)),
        ("b", 1, InternalDegree(p, 1, 1)),
        ("c", 2, InternalDegree(p, 1, 0)),
    ])
    # t is s shifted by bidegree (1, 0)
    t = BigradedSpace(f, [
        ("u", 1, internal_zero(p)),
        ("v", 2, InternalDegree(p, 1, 1)),
        ("w", 3, InternalDegree(p, 1, 0)),
    ])
    return f, s, t


def test_space_order_is_deterministic():
    p = 3
    f = PrimeField(p)
    s = BigradedSpace(f, [
        ("z", 2, InternalDegree(p, 1, 0)),
        ("y", 1, InternalDegree(p, 2, 1)),
        ("x", 1, InternalDegree(p, 1, 1)),
        ("w", 1, InternalDegree(p, 1, 1)),
    ])
    # by cohdeg, then intdeg, then label
    assert s.labels() == ["w", "x", "y", "z"]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5]),
       st.dictionaries(st.text(min_size=1, max_size=4),
                       st.tuples(st.integers(0, 4), st.integers(0, 30), st.integers(0, 3)),
                       max_size=12))
def test_space_order_matches_fraction_sort(p, elements):
    basis = [(label, coh, InternalDegree(p, num, e))
             for label, (coh, num, e) in elements.items()]
    space = BigradedSpace(PrimeField(p), basis)
    want = sorted(basis, key=lambda t: (t[1], as_fraction(t[2]), t[0]))
    assert space.labels() == [t[0] for t in want]


def test_shift_validation_rejects_bad_entry():
    f, s, t = two_spaces()
    import pytest
    with pytest.raises(ValueError):
        BigradedMap(s, t, {("v", "a"): 1})


def test_map_apply():
    f, s, _ = two_spaces()
    d = BigradedMap(s, s, {("a", "a"): 0, ("b", "b"): 2, ("c", "c"): 1})
    assert d.entries == {("b", "b"): 2, ("c", "c"): 1}
    assert BigradedMap(s, s, {("b", "b"): 3}).entries == {}


def test_doubling_check():
    p = 3
    field = PrimeField(p)
    good = BigradedSpace(field, [
        ("one", 0, internal_zero(p)),
        ("x", 2, InternalDegree(p, 1, 0)),
        ("x2", 4, InternalDegree(p, 2, 0)),
    ])
    ok, bad = doubling_check(good)
    assert ok and bad == []
    mixed = BigradedSpace(field, [
        ("t", 1, InternalDegree(p, 1, 1)),
        ("x", 2, InternalDegree(p, 1, 0)),
    ])
    ok, bad = doubling_check(mixed)
    assert not ok and bad == ["t"]
