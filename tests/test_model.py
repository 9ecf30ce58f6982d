import time
from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from riskaudit import (
    DomainError,
    FeatureVector,
    Instance,
    InvalidAssignmentError,
    InvalidInstanceError,
    Record,
    RecordTable,
    RiskAssignment,
    as_fraction,
    assignment_rows_for,
    audit_approx,
    banded_split_assignment,
    classify_consequence,
    consequence_slack,
    derived_stats,
    feature,
    identity_assignment,
    ingest_records,
    passes_fairness,
    require_valid,
    solve_integral,
    split_by_group,
    theorem_sweep,
    validate_instance,
)


class TestAsFraction:
    def test_string_forms(self):
        assert as_fraction("3/4") == F(3, 4)
        assert as_fraction("0.25") == F(1, 4)
        assert as_fraction(" 2 ") == 2
        assert as_fraction("1e-9") == F(1, 10**9)

    def test_float_is_exact_binary(self):
        assert as_fraction(0.5) == F(1, 2)
        assert as_fraction(0.1) == F(0.1)  # binary value, not 1/10
        assert as_fraction(0.1) != F(1, 10)

    def test_rejects(self):
        with pytest.raises(ValueError):
            as_fraction("zero")
        with pytest.raises(TypeError):
            as_fraction(True)
        with pytest.raises(TypeError):
            as_fraction(None)


# eps and tolerance values that are no rational at all; None is left out, as
# it is the default tolerance
NOT_RATIONAL = (float("nan"), float("inf"), float("-inf"), "1/x", "1/0", "", True, [F(1, 2)], 1j)
# each public function that reads an eps or a tolerance, and the name it gives it
TOLERANT = {
    "consequence_slack": (lambda inst, asg, x: consequence_slack(x), "eps"),
    "classify_consequence": (lambda inst, asg, x: classify_consequence(inst, asg, x), "eps"),
    "audit_approx": (lambda inst, asg, x: audit_approx(inst, asg, x), "eps"),
    "passes_fairness": (lambda inst, asg, x: passes_fairness(inst, asg, x), "tolerance"),
    "solve_integral": (lambda inst, asg, x: solve_integral(inst, tolerance=x), "tolerance"),
    "banded_split_assignment": (lambda inst, asg, x: banded_split_assignment(inst, Random(1), x), "eps"),
    "theorem_sweep": (lambda inst, asg, x: theorem_sweep(inst, 5, x, 1), "eps"),
}


@pytest.mark.parametrize("call, name", TOLERANT.values(), ids=TOLERANT.keys())
def test_a_tolerance_that_is_no_rational_is_a_domain_error(call, name, skewed):
    asg = identity_assignment(skewed)
    for bad in NOT_RATIONAL:
        with pytest.raises(DomainError, match=f"^{name} must be a rational, not "):
            call(skewed, asg, bad)
    with pytest.raises(DomainError, match=f"^{name} must be nonnegative"):
        call(skewed, asg, "-1/2")


class TestValidation:
    def test_good_instance(self, balanced):
        rep = validate_instance(balanced)
        assert rep.ok and rep.violations == ()
        assert require_valid(balanced) is balanced

    def test_duplicate_ids(self):
        inst = Instance((feature("a", F(1, 2), 1, 0), feature("a", F(1, 2), 0, 1)))
        rep = validate_instance(inst)
        assert not rep.ok
        assert any("duplicate" in v for v in rep.violations)

    def test_probability_range(self):
        inst = Instance((feature("a", F(3, 2), 1, 1),))
        assert not validate_instance(inst).ok

    def test_negative_mass(self):
        inst = Instance((feature("a", F(1, 2), -1, 1), feature("b", F(1, 2), 1, 1)))
        assert not validate_instance(inst).ok

    def test_empty_group(self):
        inst = Instance((feature("a", F(1, 2), 1, 0),))
        rep = validate_instance(inst)
        assert not rep.ok
        with pytest.raises(InvalidInstanceError):
            require_valid(inst)

    @pytest.mark.parametrize("field,label", [("p", "probability"), ("n1", "group-1 mass"), ("n2", "group-2 mass")],
                             ids=["p", "n1", "n2"])
    @pytest.mark.parametrize("value", [0.5, "1/2", True], ids=["float", "str", "bool"])
    def test_field_that_is_not_rational(self, field, label, value):
        # a hand-built feature skips `feature`'s coercion; the bad field is
        # reported, not raised, and require_valid refuses the instance
        fields = {"id": "a", "p": F(1, 2), "n1": F(1), "n2": F(1)}
        inst = Instance((FeatureVector(**{**fields, field: value}), feature("b", F(1, 4), 1, 1)))
        assert validate_instance(inst).violations == (f"feature 'a': {label} {value!r} is not an int or Fraction",)
        with pytest.raises(InvalidInstanceError):
            require_valid(inst)

    @pytest.mark.parametrize("fid", [["a"], 3, ""], ids=["list", "int", "empty"])
    def test_id_that_is_not_a_nonempty_string(self, fid):
        # reported, not raised, even when the id cannot be hashed
        inst = Instance((FeatureVector(fid, F(1, 2), F(1), F(1)), feature("b", F(1, 4), 1, 1)))
        assert validate_instance(inst).violations == (f"feature id {fid!r} is not a nonempty string",)
        with pytest.raises(InvalidInstanceError):
            require_valid(inst)


class TestDerivedStats:
    def test_skewed_oracle(self, skewed):
        gs = derived_stats(skewed)
        assert gs.population == (2, 4)
        assert gs.positive_mass == (1, 1)
        assert gs.base_rate == (F(1, 2), F(1, 4))
        assert gs.for_group(2) == (4, 1, F(1, 4))


class TestIngest:
    def test_counts_and_pooling(self):
        rows = [
            Record("a", 1, True),
            Record("a", 1, False),
            Record("a", 2, True),
            Record("b", 2, False),
            Record("b", 1, True),
        ]
        inst, div = ingest_records(RecordTable(tuple(rows)))
        assert inst.ids == ("a", "b")
        a, b = inst.features
        assert (a.n1, a.n2, a.p) == (2, 1, F(2, 3))
        assert (b.n1, b.n2, b.p) == (1, 1, F(1, 2))
        assert div.max_deviation == F(1, 2)
        devs = {(e.feature_id, e.group): e.deviation for e in div.entries}
        assert devs[("a", 1)] == F(1, 6)
        assert devs[("b", 2)] == F(1, 2)

    def test_linear_time(self):
        # 20,000 features, 4 records each; a membership test against a list
        # of the ids seen so far makes this quadratic, over 20 s on a 2-CPU
        # machine
        rows = [Record(f"f{i}", g, pos) for i in range(20_000) for g in (1, 2) for pos in (True, False)]
        t0 = time.process_time()
        inst, _ = ingest_records(RecordTable(tuple(rows)))
        assert time.process_time() - t0 < 5
        assert inst.ids[:2] == ("f0", "f1") and len(inst.features) == 20_000

    def test_empty_table_rejected(self):
        with pytest.raises(DomainError):
            RecordTable(())

    def test_missing_group_rejected(self):
        with pytest.raises(DomainError):
            RecordTable((Record("a", 1, True),))


class TestSplitByGroup:
    def test_skewed_split(self, skewed):
        split = split_by_group(skewed)
        assert split.ids == ("s1@1", "s2@2")

    def test_both_sides_kept(self, balanced):
        split = split_by_group(balanced)
        assert split.ids == ("s1@1", "s1@2", "s2@1", "s2@2")

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
    def test_group_stats_invariant(self, a1, a2, b1, b2):
        # splitting features by group never changes any group aggregate
        if a1 + b1 == 0 or a2 + b2 == 0:
            return
        inst = Instance((feature("a", F(1, 3), a1, a2), feature("b", F(2, 3), b1, b2)))
        gs = derived_stats(inst)
        gs2 = derived_stats(split_by_group(inst))
        assert gs == gs2


class TestRiskAssignment:
    def test_row_validation(self):
        with pytest.raises(InvalidAssignmentError):
            RiskAssignment(("a",), (F(1, 2),), ((F(1, 2),),))  # rows must sum to 1
        with pytest.raises(InvalidAssignmentError):
            RiskAssignment(("a",), (F(3, 2),), ((F(1),),))  # score out of range
        with pytest.raises(InvalidAssignmentError):
            RiskAssignment(("a", "a"), (F(1, 2),), ((F(1),), (F(1),)))
        with pytest.raises(InvalidAssignmentError):
            RiskAssignment((), (), ())
        # floats are refused at construction, naming the bin or the feature
        with pytest.raises(InvalidAssignmentError, match="bin 0"):
            RiskAssignment(("a",), (0.5,), ((F(1),),))
        with pytest.raises(InvalidAssignmentError, match="'a', bin 1"):
            RiskAssignment(("a",), (F(0), F(1)), ((F(1, 2), 0.5),))
        # so are bools, which are ints to isinstance but not rationals
        with pytest.raises(InvalidAssignmentError, match="score True of bin 0"):
            RiskAssignment(("a",), (True,), ((F(1),),))
        with pytest.raises(InvalidAssignmentError, match="'a', bin 0"):
            RiskAssignment(("a",), (F(1, 2),), ((True,),))

    def test_row_lookup(self):
        asg = RiskAssignment(
            ("a", "b"),
            (F(1, 4), F(3, 4)),
            ((F(1, 2), F(1, 2)), (F(0), F(1))),
        )
        assert asg.bin_count == 2
        assert asg.rows[1] == (F(0), F(1))

    def test_rows_for_requires_same_ids(self, balanced):
        asg = RiskAssignment(("s1", "zz"), (F(1, 2),), ((F(1),), (F(1),)))
        with pytest.raises(InvalidAssignmentError):
            assignment_rows_for(balanced, asg)

    def test_rows_for_reorders(self, balanced):
        asg = RiskAssignment(
            ("s2", "s1"),
            (F(1, 4), F(3, 4)),
            ((F(1), F(0)), (F(0), F(1))),
        )
        rows = assignment_rows_for(balanced, asg)
        assert rows == ((F(0), F(1)), (F(1), F(0)))
