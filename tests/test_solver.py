from fractions import Fraction as F

import pytest

from riskaudit import (
    OBJECTIVES,
    DomainError,
    Instance,
    Partition,
    SubsetSumInstance,
    assignment_from_partition,
    audit_exact,
    bell_number,
    dumps_doc,
    feature,
    instance_to_doc,
    is_nontrivial,
    passes_fairness,
    reduce_subset_sum,
    solve_integral,
    theorem_sweep,
)
from riskaudit.cli import run_cli


class TestAssignmentFromPartition:
    def test_block_scores_are_pooled_rates(self, skewed):
        part = Partition.from_blocks([["s1", "s2"]])
        asg = assignment_from_partition(skewed, part)
        assert asg.scores == (F(1, 3),)

    def test_identity_partition(self, balanced):
        part = Partition.from_blocks([["s1"], ["s2"]])
        asg = assignment_from_partition(balanced, part)
        assert set(asg.scores) == {F(1, 4), F(3, 4)}

    def test_partition_must_cover(self, balanced):
        with pytest.raises(DomainError):
            assignment_from_partition(balanced, Partition.from_blocks([["s1"]]))
        with pytest.raises(DomainError):
            assignment_from_partition(
                balanced, Partition.from_blocks([["s1"], ["s2"], ["zz"]])
            )
        with pytest.raises(DomainError):  # built directly, with s1 in two blocks
            assignment_from_partition(balanced, Partition((("s1",), ("s1", "s2"))))

    def test_zero_mass_block_folded(self):
        inst = Instance(
            (
                feature("a", F(1, 2), 2, 2),
                feature("ghost", F(9, 10), 0, 0),
            )
        )
        part = Partition.from_blocks([["a"], ["ghost"]])
        asg = assignment_from_partition(inst, part)
        # the massless block cannot carry a pooled rate; it joins the first bin
        assert asg.bin_count == 1
        assert asg.scores == (F(1, 2),)


class TestSolveIntegral:
    def test_balanced_finds_identity(self, balanced):
        res = solve_integral(balanced, "any_fair")
        assert res.status == "found"
        assert res.explored == 2
        assert audit_exact(balanced, res.assignment).fair
        assert is_nontrivial(balanced, res.assignment)

    def test_rigid_has_none(self, rigid):
        res = solve_integral(rigid, "any_fair")
        assert res.status == "none"
        assert res.explored == 5
        assert res.assignment is None

    def test_budget_exceeded(self, rigid):
        res = solve_integral(rigid, "any_fair", cap=2)
        assert res.status == "budget_exceeded"
        assert res.explored == 2
        # a negative cap is bad input, not an exhausted search
        with pytest.raises(DomainError):
            solve_integral(rigid, "any_fair", cap=-3)

    def test_cap_exactly_enough(self, balanced):
        # the hit arrives within the cap, so the budget never shows
        res = solve_integral(balanced, "any_fair", cap=2)
        assert res.status == "found"

    def test_min_loss_balanced(self, balanced):
        res = solve_integral(balanced, "min_loss")
        assert res.status == "found"
        assert res.loss_report.total == F(3, 2)
        assert res.explored == 2

    def test_min_loss_requires_fairness(self, skewed):
        res = solve_integral(skewed, "min_loss")
        assert res.status == "none"

    def test_unknown_objective(self, balanced):
        with pytest.raises(DomainError):
            solve_integral(balanced, "fastest")

    def test_tolerance_relaxes(self, skewed):
        # with a huge absolute tolerance the skewed identity counts as fair
        res = solve_integral(skewed, "any_fair", tolerance=F(1))
        assert res.status == "found"

    def test_negative_tolerance_rejected(self, skewed):
        # bad input, not a computed "no"
        asg = assignment_from_partition(skewed, Partition.from_blocks([["s1"], ["s2"]]))
        for tolerance in (F(-1), F(-1, 10**9), -0.1, "-1/10"):
            with pytest.raises(DomainError, match="tolerance must be nonnegative"):
                solve_integral(skewed, "any_fair", tolerance=tolerance)
            with pytest.raises(DomainError, match="tolerance must be nonnegative"):
                passes_fairness(skewed, asg, tolerance)

    @pytest.mark.parametrize("tolerance, fair", [
        (0.1, False), ("1/10", False), (F(1, 10), False), (0.5, True), ("1/2", True), (F(1, 2), True),
    ])
    def test_tolerance_read_as_a_rational(self, skewed, tolerance, fair):
        # a float or a rational string is read as eps is; both class
        # averages differ by 1/4 across the groups
        asg = assignment_from_partition(skewed, Partition.from_blocks([["s1"], ["s2"]]))
        assert passes_fairness(skewed, asg, tolerance) is fair
        assert (solve_integral(skewed, "any_fair", tolerance=tolerance).status == "found") is fair


class TestToleranceNontriviality:
    # the reduction's float-rounded rates make some splits fair at the
    # tolerance with scores only 2**-55 apart: not two distinct scores
    @pytest.mark.parametrize(
        "target, status, explored", [(6, "none", 4140), (5, "found", 505), (10, "found", 479)]
    )
    def test_reduced_subset_sum(self, target, status, explored):
        ri = reduce_subset_sum(SubsetSumInstance((2, 3, 5), target))
        res = solve_integral(ri.instance, "any_fair", tolerance=F(1, 10**9))
        assert (res.status, res.explored) == (status, explored)


def _spread(k):
    # probabilities 0, 1/2 and 1, and every other feature in group 1 only
    return Instance(tuple(feature(f"f{i}", F(i % 3, 2), 1, i % 2) for i in range(k)))


class TestSearchSize:
    def test_full_scan_at_twelve_features(self):
        # unequal base rates and uncertain features: nothing is fair, and the
        # search proves it visiting few of the 4,213,597 partitions
        inst = Instance(tuple(feature(f"f{i}", F(i + 1, 13), 1, 1 + i % 3) for i in range(12)))
        for objective in OBJECTIVES:
            res = solve_integral(inst, objective)
            assert (res.status, res.explored) == ("none", bell_number(12))
            assert res.explored - res.pruned < 10_000

    def test_cap_reaches_sixteen_features(self, tmp_path):
        res = solve_integral(_spread(16), cap=3)
        assert (res.status, res.explored) == ("budget_exceeded", 3)
        with pytest.raises(DomainError):
            solve_integral(_spread(17), cap=3)
        path = tmp_path / "inst17.json"
        path.write_text(dumps_doc(instance_to_doc(_spread(17))))
        assert run_cli(["solve-integral", "-i", str(path), "--cap", "3"]) == 2

    def test_fractional_sweep_needs_no_integral_search(self):
        rep = theorem_sweep(_spread(20), 50, F(1, 10), 1, integral_cap=0)
        assert (rep.integral_explored, rep.integral_complete, rep.fractional_explored) == (0, False, 50)
