"""The benchmark's checkers, pinned against hand-worked numbers.

Run with `python -m pytest perfbench`.
"""
from fractions import Fraction as F

import reference


def test_two_feature_example():
    # group 1 holds s1 (p = 1/2, mass 2), group 2 holds s2 (p = 1/4, mass 4);
    # each feature in its own bin, scored at its probability
    specs = [(F(1, 2), F(2), F(0)), (F(1, 4), F(0), F(4))]
    ref = reference.reference_audit(specs, [F(1, 2), F(1, 4)], [[F(1), F(0)], [F(0), F(1)]])
    assert ref.pos_class_avg == (F(1, 2), F(1, 4))
    assert ref.neg_class_avg == (F(1, 2), F(1, 4))
    assert ref.loss_per_group == (F(1), F(3, 2))
    assert ref.loss_total == F(5, 2)
    assert ref.parity_gap == F(1, 4)
    assert ref.calibration_ok and not ref.fair and ref.nontrivial
    assert ref.expected_score_total == ref.positive_mass == (F(1), F(1))

    relaxed = reference.reference_approx(ref, [F(1, 2), F(1, 4)], F(1, 100))
    assert relaxed.calibration_ok and not relaxed.balance_pos_ok and not relaxed.passed
    assert reference.reference_approx(ref, [F(1, 2), F(1, 4)], F(1)).passed
    assert reference.consequence_flags(ref, F(21, 200)) == (False, False)


def test_trivial_grouping_is_fair_on_equal_base_rates():
    specs = [(F(1, 4), F(1), F(1)), (F(3, 4), F(1), F(1))]
    ref = reference.reference_audit(specs, [F(1, 2)], [[F(1)], [F(1)]])
    assert ref.fair and not ref.nontrivial
    assert ref.pos_class_avg == (F(1, 2), F(1, 2))


def test_required_positive_class_average_and_anchors():
    g = reference.required_pos_avg((1, 2), 3)
    assert g == F(5, 9)
    assert reference.anchor_rates(g) == (F(1, 3), F(2, 3))


def test_bell_numbers_and_partition_enumerator():
    assert [reference.bell(k) for k in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    for k in range(7):
        parts = reference.set_partitions(range(k))
        assert len(parts) == len(set(parts)) == reference.bell(k)


def test_subset_sum_brute_force():
    assert set(reference.subsets_hitting((1, 2, 3), 3)) == {frozenset({3}), frozenset({1, 2})}
    assert reference.subsets_hitting((2, 4), 3) == []


def test_normal_grouping_decoding():
    assert reference.decode_normal_grouping(((1, 2), (3,), (4,)), (1, 2)) == frozenset({1})
    assert reference.decode_normal_grouping(((1,), (2, 3), (4,)), (1, 2)) is None
    assert reference.decode_normal_grouping(((1, 2, 3), (4,)), (1, 2)) is None


def test_slack_bounds():
    assert reference.slack_formula_bounds(F(1, 10**4)) == (F(1, 100), F(1, 100))
    assert reference.slack_formula_bounds(F(1, 100)) == (F(1, 10) * F(21, 20),) * 2
    lo, hi = reference.slack_formula_bounds(F(1, 1000))
    assert lo < hi and hi - lo < F(1, 2**60)
