from fractions import Fraction as F
from functools import partial
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import audit_oracle as old
from riskaudit import (
    OBJECTIVES,
    DomainError,
    Instance,
    Partition,
    assignment_from_partition,
    audit_exact,
    bell_number,
    derived_stats,
    dumps_doc,
    feature,
    instance_to_doc,
    is_nontrivial,
    random_equal_rate_instance,
    random_gapped_instance,
    random_instance,
    random_perfect_instance,
    random_proportional_instance,
    solve_integral,
    theorem_sweep,
)
from riskaudit.audit import _balances, _classes, _pooled_classes, _pooled_within
from riskaudit.cli import run_cli
from riskaudit.loss import _nontrivial
from riskaudit.model import FeatureVector, _scaled
from riskaudit.solver import _integral_search, _scores_differ


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


def _spread(k):
    # probabilities 0, 1/2 and 1, and every other feature in group 1 only
    return Instance(tuple(feature(f"f{i}", F(i % 3, 2), 1, i % 2) for i in range(k)))


def _gapped(k, seed):
    # both groups on every feature, every probability inside (0, 1), base
    # rates at least 1/10 apart: nothing is fair
    rng = Random(seed)
    while True:
        inst = Instance(tuple(feature(f"g{i}", F(rng.randint(1, 11), 12), rng.randint(1, 4), rng.randint(1, 4))
                              for i in range(k)))
        (r1, r2) = derived_stats(inst).base_rate
        if abs(r1 - r2) >= F(1, 10):
            return inst


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

    @pytest.mark.parametrize("inst, cap", [
        (_gapped(7, 301), None),
        (_gapped(7, 302), None),
        (Instance(tuple(feature(f"x{i}", F(i % 4, 4), 1 + i % 2, 1 + i % 2) for i in range(7))), None),
        (_spread(16), 10),
    ], ids=["gapped7-301", "gapped7-302", "fair7", "spread16-cap10"])
    def test_tables_built_per_visited_partition(self, monkeypatch, inst, cap):
        # the walk judges the blocks of all 2**k feature subsets and each
        # partition it visits on their column sums, and its witness is
        # scored off its columns: a solve builds no table
        import riskaudit.audit as audit_module

        built = []
        original = audit_module._Table.__init__

        def counted(table, *args):
            built.append(table)
            original(table, *args)

        monkeypatch.setattr(audit_module._Table, "__init__", counted)
        for objective in OBJECTIVES:
            built.clear()
            solve_integral(inst, objective, cap)
            assert not built

    def test_fractional_sweep_needs_no_integral_search(self):
        rep = theorem_sweep(_spread(20), 50, F(1, 10), 1, integral_cap=0)
        assert (rep.integral_explored, rep.integral_complete, rep.fractional_explored) == (0, False, 50)


FAMILIES = {
    "free": random_instance,
    "gapped": random_gapped_instance,
    "proportional": random_proportional_instance,
    "equal-rate": random_equal_rate_instance,
    "perfect": random_perfect_instance,
}


def _forced(inst, zero):
    """The instance with one zero case forced: group t with no positives
    (P_t = 0) or no negatives (M_t = P_t), each by moving group t's mass off
    the features that would give it some and onto one certain feature of its
    own, or with a feature of no mass, which makes zero-mass blocks."""
    if zero == "massless":
        return Instance(inst.features + (FeatureVector("z", F(1, 2), F(0), F(0)),))
    case, t = zero
    keep = F(0) if case == "no-positives" else F(1)
    feats = []
    for f in inst.features:
        n = [f.n1, f.n2]
        if f.p != keep:
            n[t] = F(0)
        feats.append(FeatureVector(f.id, f.p, *n))
    n = [F(0), F(0)]
    n[t] = F(1)
    return Instance(tuple(feats) + (FeatureVector("z", keep, *n),))


ZEROS = (None, "massless", ("no-positives", 0), ("no-positives", 1), ("no-negatives", 0), ("no-negatives", 1))


class TestLeafRule:
    """The walk decides a partition whose every block is exactly calibrated
    on the class sums `audit._pooled_classes` reads off its column sums:
    S_t over the product of the block masses, both balance conditions
    (`_balances`) and non-triviality (`_scores_differ`) agree with the
    verdicts of the partition's table (`old._leaf_table`)."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(FAMILIES)), st.integers(0, 10**9), st.sampled_from(ZEROS))
    @example("free", 3, ("no-positives", 0))
    @example("equal-rate", 5, ("no-negatives", 1))
    @example("proportional", 8, "massless")
    def test_integer_rule_matches_the_table(self, family, seed, zero):
        # at most 7 features, the forced one included
        inst = FAMILIES[family](Random(seed), max_features=7 if zero is None else 6)
        if zero is not None:
            inst = _forced(inst, zero)
        scaled = _scaled(inst)
        visited = []

        def visit(blocks, sums):
            m0, m1, g0, g1 = sums
            table = old._leaf_table(sums, blocks, scaled.denominator)
            classes = c, ((s1, _), (s2, _)), _ = _pooled_classes(sums, blocks, scaled.totals)
            # S_t: each populated block's pooled rate times group t's
            # expected positives in it
            populated = [m for m in blocks if m0[m] + m1[m]]
            rates = [F(g0[m] + g1[m], m0[m] + m1[m]) for m in populated]
            for s_t, g in ((s1, g0), (s2, g1)):
                assert F(s_t, c) == sum((v * g[m] for v, m in zip(rates, populated)), F(0))
            assert _balances(classes, 0) == _balances(_classes(table), 0)
            assert _scores_differ(classes, scaled.totals) == _nontrivial(table)
            visited.append(tuple(blocks))
            return False

        _integral_search(inst, None, partial(_pooled_within, e=0), visit)
        assert visited  # one feature per block is always calibrated
