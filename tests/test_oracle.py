"""Differential tests: every audit, loss and search view against its old
implementation in `audit_oracle`, field for field.

Instances are small and valid but otherwise free: zero-mass features and
bins, groups whose positive or negative class is empty, and feature ids whose
string order differs from their position. Assignments list their features in
a shuffled order and score bins either at random or at the bin's pooled rate,
so fair and relaxed-passing cases occur as well as failing ones.
"""
from dataclasses import replace
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import audit_oracle as old
from riskaudit import (
    OBJECTIVES,
    FeatureVector,
    Instance,
    RiskAssignment,
    RiskAuditError,
    audit_approx,
    audit_exact,
    bin_statistics,
    classify_consequence,
    fairness_difference,
    is_nontrivial,
    loss,
    normalize_assignment,
    passes_fairness,
    solve_integral,
    statistical_parity_gap,
)

PROBS = (F(0), F(1), F(1, 2), F(1, 3), F(3, 4), F(2, 5))
MASSES = (F(0), F(1), F(2), F(3), F(1, 2))
# lexicographic order of these ids differs from their numeric order
IDS = ("x1", "x10", "x2", "x11", "x3")


@st.composite
def instances(draw, max_features=5):
    k = draw(st.integers(1, max_features))
    ids = draw(st.permutations(IDS))[:k]
    feats = [
        FeatureVector(fid, draw(st.sampled_from(PROBS)), draw(st.sampled_from(MASSES)),
                      draw(st.sampled_from(MASSES)))
        for fid in ids
    ]
    # each group needs some mass
    if not any(f.n1 for f in feats):
        feats[0] = replace(feats[0], n1=F(1))
    if not any(f.n2 for f in feats):
        feats[0] = replace(feats[0], n2=F(1))
    return Instance(tuple(feats))


@st.composite
def cases(draw):
    inst = draw(instances())
    feats = inst.features
    nbins = draw(st.integers(1, 4))
    rows = []
    for _ in feats:
        w = draw(st.lists(st.integers(0, 2), min_size=nbins, max_size=nbins))
        if not any(w):
            w[draw(st.integers(0, nbins - 1))] = 1
        rows.append(tuple(F(x, sum(w)) for x in w))
    if draw(st.booleans()):
        scores = draw(st.lists(st.sampled_from(PROBS), min_size=nbins, max_size=nbins))
    else:
        scores = []
        for b in range(nbins):
            mass = sum((f.total * r[b] for f, r in zip(feats, rows)), F(0))
            pos = sum((f.total * f.p * r[b] for f, r in zip(feats, rows)), F(0))
            scores.append(pos / mass if mass else F(1, 2))
    order = draw(st.permutations(range(len(feats))))
    asg = RiskAssignment(
        feature_ids=tuple(feats[i].id for i in order),
        scores=tuple(scores),
        rows=tuple(rows[i] for i in order),
    )
    return inst, asg


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except RiskAuditError as exc:
        return "raised", type(exc), str(exc)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(cases(), st.sampled_from((0, F(1, 100), F(1, 10), F(1, 2), 1, 2)),
       st.sampled_from((None, F(0), F(1, 1000), F(1, 10))))
def test_views_match_old_implementation(case, eps, tolerance):
    inst, asg = case
    assert bin_statistics(inst, asg) == old.bin_statistics(inst, asg)
    assert audit_exact(inst, asg) == old.audit_exact(inst, asg)
    assert audit_approx(inst, asg, eps) == old.audit_approx(inst, asg, eps)
    assert classify_consequence(inst, asg, eps) == old.classify_consequence(inst, asg, eps)
    assert loss(inst, asg) == old.loss(inst, asg)
    assert statistical_parity_gap(inst, asg) == old.statistical_parity_gap(inst, asg)
    assert passes_fairness(inst, asg) == old.passes_fairness(inst, asg)
    assert passes_fairness(inst, asg, tolerance) == old.passes_fairness(inst, asg, tolerance)
    assert is_nontrivial(inst, asg) == old.is_nontrivial(inst, asg)
    for fn, ref in ((fairness_difference, old.fairness_difference),
                    (normalize_assignment, old.normalize_assignment)):
        assert outcome(fn, inst, asg) == outcome(ref, inst, asg)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(instances(), st.sampled_from(OBJECTIVES), st.sampled_from((None, 1, 7, 30)))
def test_solver_matches_old_implementation(inst, objective, cap):
    assert solve_integral(inst, objective, cap) == old.solve_integral(inst, objective, cap)
