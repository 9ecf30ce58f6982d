"""Loss values, interpolation, and the fair-assignment search.

All expected numbers here were computed by hand from the definitions and
frozen before the implementation existed.
"""
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskaudit import (
    DomainError,
    RiskAssignment,
    audit_exact,
    fairness_difference,
    find_fair_nontrivial,
    identity_assignment,
    interpolate,
    is_nontrivial,
    loss,
    normalize_assignment,
    target_lambda,
    trivial_assignment,
)


class TestLossValues:
    def test_skewed_identity(self, skewed):
        rep = loss(skewed, identity_assignment(skewed))
        assert rep.per_group == (F(1), F(3, 2))
        assert rep.total == F(5, 2)

    def test_skewed_pooled(self, skewed):
        rep = loss(skewed, trivial_assignment(skewed))
        # single bin at the pooled rate 1/3: 2*mu*(1 - 1/3) per group
        assert rep.per_group == (F(4, 3), F(4, 3))
        assert rep.total == F(8, 3)

    def test_balanced_identity(self, balanced):
        rep = loss(balanced, identity_assignment(balanced))
        assert rep.per_group == (F(3, 4), F(3, 4))
        assert rep.total == F(3, 2)

    def test_loss_is_two_mu_one_minus_pos_avg(self, skewed, balanced, rigid):
        from riskaudit import derived_stats

        for inst in (skewed, balanced, rigid):
            asg = identity_assignment(inst)
            rep = loss(inst, asg)
            gs = derived_stats(inst)
            audit = audit_exact(inst, asg)
            for i in range(2):
                mu = gs.positive_mass[i]
                expected = 2 * mu * (1 - audit.pos_class_avg[i])
                assert rep.per_group[i] == expected


class TestFairnessDifference:
    def test_rigid_identity(self, rigid):
        d = fairness_difference(rigid, identity_assignment(rigid))
        assert d.difference == F(1, 8)
        assert d.favors_group1 and not d.favors_group2

    def test_rigid_trivial(self, rigid):
        d = fairness_difference(rigid, trivial_assignment(rigid))
        assert d.difference == 0
        assert d.favors_group1 and d.favors_group2


class TestNontrivial:
    def test_identity_nontrivial(self, skewed):
        assert is_nontrivial(skewed, identity_assignment(skewed))

    def test_single_bin_trivial(self, skewed):
        assert not is_nontrivial(skewed, trivial_assignment(skewed))

    def test_equal_scores_merge_to_trivial(self, rigid):
        # two bins, both scored 1/2, every feature carries mass: one
        # effective risk value, so the assignment is trivial
        asg = RiskAssignment(
            ("s1", "s2", "s3"),
            (F(1, 2), F(1, 2)),
            ((F(1), F(0)), (F(0), F(1)), (F(1, 2), F(1, 2))),
        )
        assert not is_nontrivial(rigid, asg)
        norm = normalize_assignment(rigid, asg)
        assert norm.bin_count == 1

    def test_zero_mass_bin_ignored(self, skewed):
        asg = RiskAssignment(
            ("s1", "s2"),
            (F(1, 2), F(9, 10)),
            ((F(1), F(0)), (F(1), F(0))),
        )
        assert not is_nontrivial(skewed, asg)

    def test_normalize_sorts_and_merges(self, balanced):
        asg = RiskAssignment(
            ("s1", "s2"),
            (F(3, 4), F(1, 4), F(3, 4)),
            ((F(0), F(1), F(0)), (F(1, 2), F(0), F(1, 2))),
        )
        norm = normalize_assignment(balanced, asg)
        assert norm.scores == (F(1, 4), F(3, 4))
        assert norm.feature_ids == ("s1", "s2")
        assert norm.rows == ((F(1), F(0)), (F(0), F(1)))


class TestInterpolate:
    def test_rigid_midpoint(self, rigid):
        a = identity_assignment(rigid)
        b = trivial_assignment(rigid)
        mid = interpolate(rigid, a, b, F(1, 2))
        assert fairness_difference(rigid, mid).difference == F(1, 16)
        assert audit_exact(rigid, mid).calibration_ok

    def test_endpoints(self, rigid):
        a = identity_assignment(rigid)
        b = trivial_assignment(rigid)
        d_a = fairness_difference(rigid, a).difference
        d_b = fairness_difference(rigid, b).difference
        assert fairness_difference(rigid, interpolate(rigid, a, b, F(1))).difference == d_a
        assert fairness_difference(rigid, interpolate(rigid, a, b, F(0))).difference == d_b

    def test_weight_range_enforced(self, rigid):
        a = identity_assignment(rigid)
        for bad in (F(3, 2), "-1/2"):
            with pytest.raises(DomainError, match=r"^interpolation weight -?\d+/2 outside \[0, 1\]"):
                interpolate(rigid, a, a, bad)

    def test_requires_calibrated_inputs(self, skewed):
        bad = RiskAssignment(
            ("s1", "s2"),
            (F(9, 10),),
            ((F(1),), (F(1),)),
        )
        with pytest.raises(DomainError):
            interpolate(skewed, identity_assignment(skewed), bad, F(1, 2))

    @settings(max_examples=40, deadline=None)
    @given(st.fractions(min_value=0, max_value=1))
    def test_difference_is_linear_in_weight(self, lam):
        from riskaudit import Instance, feature

        inst = Instance(
            (
                feature("s1", F(1, 4), 1, 0),
                feature("s2", F(3, 4), 1, 0),
                feature("s3", F(1, 2), 0, 2),
            )
        )
        a = identity_assignment(inst)
        b = trivial_assignment(inst)
        d_a = fairness_difference(inst, a).difference
        d_b = fairness_difference(inst, b).difference
        mix = interpolate(inst, a, b, lam)
        assert fairness_difference(inst, mix).difference == lam * d_a + (1 - lam) * d_b
        assert audit_exact(inst, mix).calibration_ok


class TestTargetLambda:
    def test_frozen_values(self):
        assert target_lambda(F(1, 8), F(0), F(1, 16)) == F(1, 2)
        assert target_lambda(F(1, 8), F(0), F(1, 8)) == F(1)
        assert target_lambda(F(1, 8), F(0), F(0)) == F(0)
        assert target_lambda(F(-1, 4), F(1, 4), F(0)) == F(1, 2)

    def test_rejects_unreachable(self):
        with pytest.raises(DomainError):
            target_lambda(F(1, 8), F(0), F(1, 4))
        with pytest.raises(DomainError):
            target_lambda(F(1, 8), F(1, 8), F(1, 16))


class TestFindFair:
    def test_balanced_returns_calibrated_candidate(self, balanced):
        result = find_fair_nontrivial(balanced, [identity_assignment(balanced)])
        assert result is not None
        rep = audit_exact(balanced, result)
        assert rep.fair
        assert is_nontrivial(balanced, result)

    def test_validates_once_and_builds_one_table_per_candidate(self, balanced, monkeypatch):
        import riskaudit.audit as audit_module
        import riskaudit.model as model_module

        calls = {"validate_instance": 0, "_accumulate_bins": 0}
        for module, name in ((model_module, "validate_instance"), (audit_module, "_accumulate_bins")):
            def counted(*args, _inner=getattr(module, name), _name=name):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(module, name, counted)
        candidates = [identity_assignment(balanced), identity_assignment(balanced)]
        assert find_fair_nontrivial(balanced, candidates) is candidates[0]
        assert calls == {"validate_instance": 1, "_accumulate_bins": 2}

    def test_mixes_opposite_signs(self):
        # disjoint groups, equal base rates; the two candidates tilt the
        # positive-class averages in opposite directions, forcing the
        # interpolation branch rather than a direct hit
        from riskaudit import Instance, feature, fairness_difference

        inst = Instance(
            (
                feature("u", F(1, 4), 1, 0),
                feature("w", F(3, 4), 1, 0),
                feature("m", F(1, 4), 0, 1),
                feature("z", F(3, 4), 0, 1),
            )
        )
        sharp_left = RiskAssignment(
            ("u", "w", "m", "z"),
            (F(1, 4), F(3, 4), F(1, 2)),
            (
                (F(1), F(0), F(0)),
                (F(0), F(1), F(0)),
                (F(0), F(0), F(1)),
                (F(0), F(0), F(1)),
            ),
        )
        sharp_right = RiskAssignment(
            ("u", "w", "m", "z"),
            (F(1, 2), F(1, 4), F(3, 4)),
            (
                (F(1), F(0), F(0)),
                (F(1), F(0), F(0)),
                (F(0), F(1), F(0)),
                (F(0), F(0), F(1)),
            ),
        )
        assert fairness_difference(inst, sharp_left).difference == F(1, 8)
        assert fairness_difference(inst, sharp_right).difference == F(-1, 8)
        result = find_fair_nontrivial(inst, [sharp_left, sharp_right])
        assert result is not None
        assert fairness_difference(inst, result).difference == 0
        assert audit_exact(inst, result).fair
        assert is_nontrivial(inst, result)

    def test_unequal_base_rates_rejected(self, skewed):
        with pytest.raises(DomainError):
            find_fair_nontrivial(skewed, [identity_assignment(skewed)])

    def test_rigid_candidates_unusable(self, rigid):
        # the only calibrated candidates here are trivial or one-sided
        with pytest.raises(DomainError):
            find_fair_nontrivial(rigid, [trivial_assignment(rigid)])

    def test_one_sided_candidates_give_none(self, rigid):
        # the identity favors group 1 strictly (positive-class averages 5/8
        # and 1/2), and no candidate leans the other way
        assert fairness_difference(rigid, identity_assignment(rigid)).difference == F(1, 8)
        assert find_fair_nontrivial(rigid, [identity_assignment(rigid)]) is None

    def test_uncalibrated_candidate_named(self, balanced):
        # identity rows, but the first bin (probability 1/4) is scored 1/2
        off = RiskAssignment(("s1", "s2"), (F(1, 2), F(3, 4)), ((F(1), F(0)), (F(0), F(1))))
        with pytest.raises(DomainError, match="candidate 1 is not calibrated"):
            find_fair_nontrivial(balanced, [identity_assignment(balanced), off])
