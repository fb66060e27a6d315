import operator

import pytest
from hypothesis import given, settings, strategies as st

from recourseplan.domains import (Domains, FeatureDomain, Interval, State,
                                  partition_range)
from recourseplan.errors import EmptyRange, OutOfDomain, SemanticError
from recourseplan.rules import Literal, literal_support


def test_interval_membership_and_bounds():
    closed = Interval(1, 7)
    assert closed.contains(1) and closed.contains(7) and not closed.contains(8)
    half_open = Interval(7, 72, lower_open=True)
    assert not half_open.contains(7)
    assert half_open.contains(8) and half_open.contains(72)
    assert half_open.min_element == 8


def test_interval_rejects_empty():
    with pytest.raises(ValueError):
        Interval(5, 4)
    with pytest.raises(ValueError):
        Interval(5, 5, lower_open=True)


def test_interval_representative():
    assert Interval(1, 7).representative == 1
    assert Interval(7, 72, lower_open=True).representative == 8
    assert Interval(6, 7, lower_open=True).representative == 7  # singleton


def test_partition_two_thresholds():
    parts = partition_range(1, 120, {7, 72})
    assert parts == (Interval(1, 7), Interval(7, 72, True), Interval(72, 120, True))


def test_partition_no_thresholds():
    assert partition_range(1, 72, ()) == (Interval(1, 72),)


def test_partition_threshold_at_lower_bound_makes_singleton():
    parts = partition_range(1, 72, {1})
    assert parts == (Interval(1, 1), Interval(1, 72, True))


def test_partition_drops_out_of_range_thresholds():
    assert partition_range(0, 10, {-3, 10, 99}) == (Interval(0, 10),)


def test_partition_empty_range():
    with pytest.raises(EmptyRange):
        partition_range(5, 4, ())


def test_feature_domain_invariants():
    with pytest.raises(ValueError):
        FeatureDomain("f", "categorical", labels=("a", "a"))
    with pytest.raises(ValueError):
        FeatureDomain("f", "categorical")
    with pytest.raises(ValueError):  # gap between intervals
        FeatureDomain("f", "numeric", intervals=(Interval(0, 3), Interval(5, 9, True)))
    with pytest.raises(ValueError):  # first interval must be closed on the left
        FeatureDomain("f", "numeric", intervals=(Interval(0, 3, True),))
    with pytest.raises(ValueError):  # a feature takes at most one constraint
        FeatureDomain("f", "categorical", labels=("a", "b"), mutable=False,
                      monotonicity="nondecreasing")


def test_domains_reject_duplicate_names():
    # the error names the first feature declared twice
    a = FeatureDomain("a", "categorical", labels=("x", "y"))
    n = FeatureDomain("n", "numeric", intervals=partition_range(0, 9, ()))
    with pytest.raises(SemanticError) as exc:
        Domains((a, n, a, n))
    assert str(exc.value) == "duplicate-declaration: feature 'a' declared twice"


def test_state_count_is_product():
    d = Domains((
        FeatureDomain("a", "categorical", labels=("x", "y", "z")),
        FeatureDomain("b", "numeric", intervals=partition_range(0, 10, {5})),
    ))
    assert d.state_count == 6
    assert d.sizes == (3, 2)


@pytest.mark.parametrize("idx, message", [
    ((3, 0), "a: value index 3 out of range"),
    ((0, -1), "b: value index -1 out of range"),
])
def test_state_rejects_value_indices_outside_the_domain(idx, message):
    d = Domains((
        FeatureDomain("a", "categorical", labels=("x", "y", "z")),
        FeatureDomain("b", "numeric", intervals=partition_range(0, 10, {5})),
    ))
    with pytest.raises(ValueError, match=message):
        State(d, idx)


def test_make_state_maps_numeric_to_interval():
    d = Domains((
        FeatureDomain("gain", "numeric", intervals=partition_range(0, 99999, {6849})),
    ))
    s = d.make_state({"gain": 1000})
    assert s.idx == (0,)
    assert s.reps[d.index("gain")] == 1000
    assert s.display("gain") == "1000"
    s2 = d.make_state({"gain": 7000})
    assert s2.idx == (1,)


@pytest.mark.parametrize("values, feature, message", [
    ({"color": "red"}, "n", "no value"),
    ({"color": "green", "n": 3}, "color", "not a declared value"),
    ({"color": "red", "n": "three"}, "n", "not an integer"),
    ({"color": "red", "n": 10}, "n", "outside the declared range"),
])
def test_make_state_rejects_values_outside_the_domain(values, feature, message):
    d = Domains((
        FeatureDomain("color", "categorical", labels=("red", "blue")),
        FeatureDomain("n", "numeric", intervals=partition_range(0, 9, {4})),
    ))
    with pytest.raises(OutOfDomain) as exc:
        d.make_state(values)
    assert exc.value.feature == feature
    assert message in str(exc.value)


@pytest.mark.parametrize("value", [30.7, -0.5, float("nan"), float("inf"), True, False])
def test_make_state_rejects_non_integer_numbers(value):
    # int() would truncate a float and read a bool as 0 or 1
    d = Domains((FeatureDomain("age", "numeric", intervals=partition_range(0, 99, {30})),))
    with pytest.raises(OutOfDomain) as exc:
        d.make_state({"age": value})
    assert exc.value.feature == "age"
    assert f"{value!r} is not an integer" in str(exc.value)


@pytest.mark.parametrize("value", [30, 30.0, "30"])
def test_make_state_accepts_integral_numbers(value):
    d = Domains((FeatureDomain("age", "numeric", intervals=partition_range(0, 99, {30})),))
    s = d.make_state({"age": value})
    assert (s.idx, s.reps[d.index("age")]) == ((0,), 30)


def test_state_equality_is_interval_based():
    d = Domains((
        FeatureDomain("gain", "numeric", intervals=partition_range(0, 99999, {6849})),
    ))
    a = d.make_state({"gain": 1000})
    b = d.make_state({"gain": 3000})
    c = d.make_state({"gain": 7000})
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_state_display_falls_back_to_interval_text():
    d = Domains((
        FeatureDomain("gain", "numeric", intervals=partition_range(0, 99999, {6849})),
    ))
    s = State(d, (1,))
    assert s.display("gain") == ">6849 and =<99999"


def test_state_dict_round_trip():
    d = Domains((
        FeatureDomain("color", "categorical", labels=("red", "blue")),
        FeatureDomain("n", "numeric", intervals=partition_range(0, 9, {4})),
    ))
    s = d.make_state({"color": "blue", "n": 7})
    again = State.from_dict(d, s.to_dict())
    assert again == s
    assert again.reps[d.index("n")] == 7


@given(st.integers(0, 50), st.integers(1, 60), st.sets(st.integers(-5, 70), max_size=6))
def test_partition_tiles_the_range(lo, width, thresholds):
    hi = lo + width
    parts = partition_range(lo, hi, thresholds)
    assert parts[0].lower == lo and not parts[0].lower_open
    assert parts[-1].upper == hi
    for prev, nxt in zip(parts, parts[1:]):
        assert nxt.lower == prev.upper and nxt.lower_open
    # total coverage: every point belongs to exactly one part
    for x in range(lo, hi + 1):
        assert sum(1 for p in parts if p.contains(x)) == 1


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.integers(-20, 20), st.integers(0, 30), st.sets(st.integers(-2, 32), max_size=10))
def test_rule_comparisons_constant_on_each_interval(lo, width, offsets):
    # Every comparison against any constant, in range, out of range or
    # misaligned, has one truth value per interval, or the partition is refused.
    hi = lo + width
    parts = partition_range(lo, hi, {lo + o for o in offsets})
    domain = FeatureDomain("n", "numeric", intervals=parts)
    for op, compare in (("=", operator.eq), ("!=", operator.ne), ("=<", operator.le),
                        ("<", operator.lt), (">=", operator.ge), (">", operator.gt)):
        for const in range(lo - 3, hi + 4):
            truths = [{compare(x, const) for x in range(p.min_element, p.upper + 1)}
                      for p in parts]
            literal = Literal("n", op, const)
            if any(len(t) == 2 for t in truths):
                with pytest.raises(SemanticError, match="is not an interval boundary"):
                    literal_support(domain, literal)
            else:
                assert literal_support(domain, literal) == {
                    i for i, t in enumerate(truths) if True in t}
