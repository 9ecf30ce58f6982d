import re
import time
from fractions import Fraction as F
from random import Random

import pytest

from riskaudit import (
    DomainError,
    FeatureVector,
    Instance,
    InvalidAssignmentError,
    InvalidInstanceError,
    Partition,
    Record,
    RecordTable,
    RiskAssignment,
    RiskAuditError,
    SubsetSumInstance,
    approx_audit_corpus,
    as_fraction,
    assignment_from_partition,
    assignment_to_doc,
    audit_approx,
    audit_exact,
    banded_split_assignment,
    calibrated_split_assignment,
    check_reduction_equation,
    classify_consequence,
    consequence_slack,
    decode_partition,
    derived_stats,
    encode_solution,
    feature,
    identity_assignment,
    ingest_records,
    instance_to_doc,
    interpolate,
    is_normal_form,
    loads_json,
    parse_assignment,
    parse_instance,
    parse_reduced,
    pooled_rounded_assignment,
    random_gapped_instance,
    records_from_csv,
    reduce_subset_sum,
    reduced_to_doc,
    require_valid,
    search_groupings,
    search_normal_forms,
    solve_integral,
    solve_subset_sum,
    target_lambda,
    theorem_sweep,
    trivial_assignment,
    two_bin_certain_assignment,
    validate_instance,
)
from riskaudit.model import _row_order


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


# eps and gap values that are no rational at all
NOT_RATIONAL = (float("nan"), float("inf"), float("-inf"), "1/x", "1/0", "", True, [F(1, 2)], 1j, None)
# each public function that reads an eps or a least gap, and the name it gives it
TOLERANT = {
    "consequence_slack": (lambda inst, asg, x: consequence_slack(x), "eps"),
    "classify_consequence": (lambda inst, asg, x: classify_consequence(inst, asg, x), "eps"),
    "audit_approx": (lambda inst, asg, x: audit_approx(inst, asg, x), "eps"),
    "banded_split_assignment": (lambda inst, asg, x: banded_split_assignment(inst, Random(1), x), "eps"),
    "theorem_sweep": (lambda inst, asg, x: theorem_sweep(inst, 5, x, 1), "eps"),
    "random_gapped_instance": (lambda inst, asg, x: random_gapped_instance(Random(1), x), "min_gap"),
    "approx_audit_corpus": (lambda inst, asg, x: next(approx_audit_corpus(x, 1)), "eps"),
}


@pytest.mark.parametrize("call, name", TOLERANT.values(), ids=TOLERANT.keys())
def test_a_tolerance_that_is_no_rational_is_a_domain_error(call, name, skewed):
    asg = identity_assignment(skewed)
    for bad in NOT_RATIONAL:
        with pytest.raises(DomainError, match=f"^{name} must be a rational, not "):
            call(skewed, asg, bad)
    with pytest.raises(DomainError, match=f"^{name} must be nonnegative"):
        call(skewed, asg, "-1/2")


# each other public function that reads a rational argument, and the name it gives it
READERS = {
    "interpolate": (lambda inst, asg, x: interpolate(inst, asg, asg, x), "interpolation weight"),
    "target_lambda": (lambda inst, asg, x: target_lambda(x, 1, 0), "d1"),
    "feature": (lambda inst, asg, x: feature("x", x, 1, 1), "p"),
}


@pytest.mark.parametrize("call, name", READERS.values(), ids=READERS.keys())
def test_an_argument_that_is_no_rational_is_a_domain_error(call, name, skewed):
    asg = identity_assignment(skewed)
    for bad in NOT_RATIONAL:
        with pytest.raises(DomainError, match=f"^{name} must be a rational, not "):
            call(skewed, asg, bad)


# both pairs of a two-weight reduction kept together
PAIRS = Partition(((1, 2), (3, 4)))

# calls given an argument of the wrong type, and the start of the message of
# the RiskAuditError each raises (not a bare TypeError or AttributeError)
WRONG_TYPE = {
    "Instance": (lambda inst, asg: Instance(5), "features must be iterable, not 5"),
    "RecordTable": (lambda inst, asg: RecordTable(5), "rows must be iterable, not 5"),
    "RecordTable-row": (lambda inst, asg: RecordTable([5]), "rows must hold Records, not 5"),
    "SubsetSumInstance": (lambda inst, asg: SubsetSumInstance(5, 1), "weights must be iterable, not 5"),
    "require_valid": (lambda inst, asg: require_valid(Instance([5])), "invalid instance: 5 is not a FeatureVector;"),
    "solve_integral": (lambda inst, asg: solve_integral(5), "inst must be an Instance, not 5"),
    "audit_exact": (lambda inst, asg: audit_exact(inst, 5), "asg must be a RiskAssignment, not 5"),
    # `asg` keeps a table, whose fast path reads the instance's form
    "audit_exact-instance": (lambda inst, asg: audit_exact(5, asg), "inst must be an Instance, not 5"),
    "validate_instance": (lambda inst, asg: validate_instance(5), "inst must be an Instance, not 5"),
    # one check in loads_json serves every document parser
    "loads_json": (lambda inst, asg: loads_json(5), "text must be a str, bytes or bytearray, not 5"),
    "parse_instance": (lambda inst, asg: parse_instance(5), "text must be a str, bytes or bytearray, not 5"),
    "parse_assignment": (lambda inst, asg: parse_assignment(5), "text must be a str, bytes or bytearray, not 5"),
    "parse_reduced": (lambda inst, asg: parse_reduced(5), "text must be a str, bytes or bytearray, not 5"),
    "records_from_csv": (lambda inst, asg: records_from_csv(5), "text must be a str, not 5"),
    "encode_solution": (lambda inst, asg: encode_solution(reduce_subset_sum(SubsetSumInstance((1, 2), 3)), 5),
                        "chosen must be iterable, not 5"),
    # one check of each argument's type, `model._require_type`, before any
    # work or random draw
    "check_reduction_equation-ri": (lambda inst, asg: check_reduction_equation(5, PAIRS),
                                    "ri must be a ReducedInstance, not 5"),
    "decode_partition-ri": (lambda inst, asg: decode_partition(5, PAIRS), "ri must be a ReducedInstance, not 5"),
    "encode_solution-ri": (lambda inst, asg: encode_solution(5, [1]), "ri must be a ReducedInstance, not 5"),
    "is_normal_form-ri": (lambda inst, asg: is_normal_form(5, PAIRS), "ri must be a ReducedInstance, not 5"),
    "search_groupings-ri": (lambda inst, asg: search_groupings(5), "ri must be a ReducedInstance, not 5"),
    "search_normal_forms-ri": (lambda inst, asg: search_normal_forms(5), "ri must be a ReducedInstance, not 5"),
    "reduced_to_doc-ri": (lambda inst, asg: reduced_to_doc(5), "ri must be a ReducedInstance, not 5"),
    "reduce_subset_sum-ss": (lambda inst, asg: reduce_subset_sum(5), "ss must be a SubsetSumInstance, not 5"),
    "solve_subset_sum-ss": (lambda inst, asg: solve_subset_sum(5), "ss must be a SubsetSumInstance, not 5"),
    "trivial_assignment-inst": (lambda inst, asg: trivial_assignment(5), "inst must be an Instance, not 5"),
    "two_bin_certain_assignment-inst": (lambda inst, asg: two_bin_certain_assignment(5), "inst must be an Instance, not 5"),
    "instance_to_doc-inst": (lambda inst, asg: instance_to_doc(5), "inst must be an Instance, not 5"),
    "pooled_rounded_assignment-inst": (lambda inst, asg: pooled_rounded_assignment(5, Random(1)),
                                       "inst must be an Instance, not 5"),
    "calibrated_split_assignment-inst": (lambda inst, asg: calibrated_split_assignment(5, Random(1)),
                                         "inst must be an Instance, not 5"),
    "banded_split_assignment-inst": (lambda inst, asg: banded_split_assignment(5, Random(1), F(1, 10)),
                                     "inst must be an Instance, not 5"),
    "assignment_to_doc-asg": (lambda inst, asg: assignment_to_doc(5), "asg must be a RiskAssignment, not 5"),
    "assignment_from_partition-part": (lambda inst, asg: assignment_from_partition(inst, 5),
                                       "part must be a Partition, not 5"),
    # both of interpolate's assignments are checked, by name, before either
    # is read against the instance (the trivial one is not calibrated there)
    "interpolate-asg1": (lambda inst, asg: interpolate(inst, 5, asg, F(1, 2)), "asg1 must be a RiskAssignment, not 5"),
    "interpolate-asg2": (lambda inst, asg: interpolate(inst, asg, 5, F(1, 2)), "asg2 must be a RiskAssignment, not 5"),
    "interpolate-asg2-after-uncalibrated": (lambda inst, asg: interpolate(inst, trivial_assignment(inst), 5, F(1, 2)),
                                            "asg2 must be a RiskAssignment, not 5"),
    "pooled_rounded_assignment-rng": (lambda inst, asg: pooled_rounded_assignment(inst, 5),
                                      "rng must be a Random, not 5"),
}


@pytest.mark.parametrize("call, message", WRONG_TYPE.values(), ids=WRONG_TYPE.keys())
def test_an_argument_of_the_wrong_type_is_refused(call, message, skewed):
    asg = identity_assignment(skewed)
    audit_exact(skewed, asg)  # so that asg keeps a table
    with pytest.raises(RiskAuditError, match=f"^{re.escape(message)}"):
        call(skewed, asg)


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
        with pytest.raises(DomainError, match="^table must be a RecordTable, not"):
            ingest_records([])

    def test_missing_group_rejected(self):
        with pytest.raises(DomainError):
            RecordTable((Record("a", 1, True),))

    def test_unknown_group_rejected(self):
        with pytest.raises(DomainError, match="^record for 'a': unknown group 3"):
            RecordTable((Record("a", 1, True), Record("a", 3, True), Record("b", 2, False)))


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
        with pytest.raises(InvalidAssignmentError, match="^one allocation row per feature"):
            RiskAssignment(("a", "b"), (F(1),), ((F(1),),))
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

    @pytest.mark.parametrize("rows", [5, (5,)], ids=["rows-not-iterable", "row-not-iterable"])
    def test_rows_that_are_not_iterable_are_refused(self, rows):
        with pytest.raises(InvalidAssignmentError, match="not iterable"):
            RiskAssignment(("a",), (F(1),), rows)

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
        with pytest.raises(InvalidAssignmentError, match="^assignment does not match instance"):
            audit_exact(balanced, asg)

    def test_rows_for_reorders(self, balanced):
        asg = RiskAssignment(
            ("s2", "s1"),
            (F(1, 4), F(3, 4)),
            ((F(1), F(0)), (F(0), F(1))),
        )
        assert _row_order(balanced, asg) == [1, 0]
        in_order = RiskAssignment(("s1", "s2"), asg.scores, ((F(0), F(1)), (F(1), F(0))))
        assert audit_exact(balanced, asg) == audit_exact(balanced, in_order)
