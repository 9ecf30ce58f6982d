"""Differential tests: every audit, loss and search view against its plain
reference in `audit_oracle`, field for field.

Instances are small and valid but otherwise free: zero-mass features and
bins, groups whose positive or negative class is empty, and feature ids whose
string order differs from their position. Assignments list their features in
a shuffled order and score bins either at random or at the bin's pooled rate,
so fair and relaxed-passing cases occur as well as failing ones.

The band rule the walk prunes with, on a block's four column sums, is
checked against the same band on the block's one-bin table. The search's
walk is checked against the definition of a calibrated block:
it visits exactly the partitions whose every block passes, in canonical
order (`enumerate_partitions`), each with the column sums of every subset,
from which `solver._leaf_table` builds the table of its populated blocks
scored at their pooled rates; with a verdict that passes every block, it
visits every partition. That unpruned walk is the reference for the pruned
search up to 8 features: `old.exhaustive_solve` for `solve_integral`, and
`old.plain_sweep` at a budget of 0 for the integral half of
`theorem_sweep`. The integral assignment of a partition is checked against
the `Fraction` construction on the same instances.
"""
from fractions import Fraction as F
from functools import cache, partial
from itertools import islice
from operator import add

from hypothesis import example, given, settings
from hypothesis import strategies as st

import audit_oracle as old
from riskaudit import (
    OBJECTIVES,
    FeatureVector,
    Instance,
    InvalidInstanceError,
    RiskAssignment,
    RiskAuditError,
    audit_approx,
    audit_exact,
    bell_number,
    classify_consequence,
    consequence_slack,
    derived_stats,
    fairness_difference,
    is_nontrivial,
    loss,
    normalize_assignment,
    passes_fairness,
    solve_integral,
    theorem_sweep,
    validate_instance,
)
from riskaudit.audit import _pooled_within, _Table, _within_slack
from riskaudit.model import _scaled, _sqrt_upper
from riskaudit.partitions import Partition, enumerate_partitions
from riskaudit.solver import _integral_search, _leaf_table, assignment_from_partition

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
        feats[0] = FeatureVector(feats[0].id, feats[0].p, F(1), feats[0].n2)
    if not any(f.n2 for f in feats):
        feats[0] = FeatureVector(feats[0].id, feats[0].p, feats[0].n1, F(1))
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


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.fractions(0, 3, max_denominator=10**4), st.data())
def test_slack_decision_matches_squaring(e, data):
    # x anywhere, at the shown slack, and at the slack of sqrt(e) rounded down
    root, _ = _sqrt_upper(e)
    below = max(root - F(1, 2**128), F(0))
    edges = (consequence_slack(e), below * max(1, 3 * below + F(3, 4)))
    x = data.draw(st.fractions(0, 4, max_denominator=10**4) | st.sampled_from(edges))
    assert _within_slack(x.numerator, x.denominator, e) == old._within_slack(x, e)


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except RiskAuditError as exc:
        return "raised", type(exc), str(exc)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(cases(), st.sampled_from((0, F(1, 100), F(1, 10), F(1, 2), 1, 2)))
def test_views_match_old_implementation(case, eps):
    inst, asg = case
    assert audit_exact(inst, asg) == old.audit_exact(inst, asg)
    assert audit_approx(inst, asg, eps) == old.audit_approx(inst, asg, eps)
    assert classify_consequence(inst, asg, eps) == old.classify_consequence(inst, asg, eps)
    assert loss(inst, asg) == old.loss(inst, asg)
    assert passes_fairness(inst, asg) == old.passes_fairness(inst, asg)
    assert is_nontrivial(inst, asg) == old.is_nontrivial(inst, asg)
    for fn, ref in ((fairness_difference, old.fairness_difference),
                    (normalize_assignment, old.normalize_assignment)):
        assert outcome(fn, inst, asg) == outcome(ref, inst, asg)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(instances(), st.sampled_from(OBJECTIVES),
       st.sampled_from((None, 0, 1, 2, 5, 7, 15, 30, 52, 53)))
def test_solver_matches_old_implementation(inst, objective, cap):
    res = solve_integral(inst, objective, cap)
    # the old search visits every partition it counts
    assert 0 <= res.pruned <= res.explored
    assert res._replace(pruned=0) == old.solve_integral(inst, objective, cap)


# a few repeated probabilities, so that blocks of several features can be
# calibrated, and features with mass in one group only or in none
SEARCH_PROBS = (F(0), F(1), F(1, 2), F(1, 3))
SEARCH_MASSES = ((1, 1), (2, 1), (1, 3), (1, 0), (0, 2), (0, 0))
SEARCH_IDS = ("x1", "x10", "x2", "x11", "x3", "x12", "x4", "x13")
# symbolic caps around the Bell number of the instance's feature count
SEARCH_CAPS = (None, 0, 1, 2, 15, "bell-1", "bell", "bell+1")


@st.composite
def search_cases(draw):
    k = draw(st.integers(1, 8))
    feats = []
    for fid in SEARCH_IDS[:k]:
        n1, n2 = draw(st.sampled_from(SEARCH_MASSES))
        feats.append(FeatureVector(fid, draw(st.sampled_from(SEARCH_PROBS)), F(n1), F(n2)))
    if not any(f.n1 for f in feats):
        feats[0] = FeatureVector(feats[0].id, feats[0].p, F(1), feats[0].n2)
    if not any(f.n2 for f in feats):
        feats[-1] = FeatureVector(feats[-1].id, feats[-1].p, feats[-1].n1, F(1))
    cap = draw(st.sampled_from(SEARCH_CAPS))
    if isinstance(cap, str):
        cap = bell_number(k) + {"bell-1": -1, "bell": 0, "bell+1": 1}[cap]
    return Instance(tuple(feats)), cap


# eight features, every kind of mass, probabilities repeated
EIGHT = Instance(tuple(
    FeatureVector(fid, p, F(n1), F(n2))
    for fid, p, (n1, n2) in zip(SEARCH_IDS, SEARCH_PROBS[2:] * 3 + SEARCH_PROBS[:2], SEARCH_MASSES * 2)
))
# group 2 a scaled copy of group 1: every block is calibrated, every
# non-trivial partition fair, and min_loss leans on its bound alone
PROPORTIONAL = Instance(tuple(FeatureVector(f.id, f.p, f.n1, 2 * f.n1) for f in EIGHT.features))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(search_cases(), st.sampled_from(OBJECTIVES))
@example((EIGHT, None), "min_loss")
@example((EIGHT, 4139), "min_loss")
@example((EIGHT, None), "any_fair")
@example((PROPORTIONAL, None), "min_loss")
@example((PROPORTIONAL, 100), "min_loss")
def test_pruned_search_matches_unpruned(case, objective):
    inst, cap = case
    res = solve_integral(inst, objective, cap)
    assert 0 <= res.pruned <= res.explored
    assert res._replace(pruned=0) == old.exhaustive_solve(inst, objective, cap)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(search_cases(), st.sampled_from((0, F(1, 1000), F(1, 10), 1)))
def test_pruned_sweep_matches_unpruned(case, eps):
    inst, cap = case
    assert theorem_sweep(inst, 0, eps, 1, integral_cap=cap) == old.plain_sweep(inst, 0, eps, 1, integral_cap=cap)


# a group's mass and expected positives, integers with 0 <= p <= m: small
# values, so that empty blocks and blocks without positives occur, and large
def _mass_and_positives(m):
    return st.tuples(st.just(m), st.integers(0, m))


GROUP_SUMS = st.one_of(st.integers(0, 3), st.integers(0, 10**12)).flatmap(_mass_and_positives)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(GROUP_SUMS, GROUP_SUMS, st.sampled_from((0, F(1, 1000), F(1, 10), 1, 3)))
@example((0, 0), (0, 0), 0)
@example((0, 0), (5, 2), F(1, 10))
@example((4, 0), (0, 0), 0)
@example((4, 0), (6, 0), 0)
@example((2, 2), (3, 0), 1)
@example((2, 1), (4, 2), 0)
def test_pooled_block_rule_matches_its_table(group1, group2, e):
    (m0, p0), (m1, p1) = group1, group2
    assert _pooled_within(m0, m1, p0, p1, e) == old.pooled_block_within(m0, m1, p0, p1, e)


def _passes(features, kind, x) -> bool:
    # a pooled block's calibration, from the definition: each group's expected
    # positives within the factor band 1 +- x of the block's pooled rate times
    # the group's mass; "all" passes every block
    if kind == "all":
        return True
    mass = [sum((f.count(t) for f in features), F(0)) for t in (1, 2)]
    pos = [sum((f.count(t) * f.p for f in features), F(0)) for t in (1, 2)]
    if not sum(mass):
        return True
    rate = sum(pos) / sum(mass)
    return all((1 - x) * rate * m <= g <= (1 + x) * rate * m for g, m in zip(pos, mass))


BLOCK_TESTS = (("band", F(0)), ("band", F(1, 1000)), ("band", F(1, 10)), ("band", F(1)), ("all", None))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(search_cases(), st.sampled_from(BLOCK_TESTS))
@example((EIGHT, None), ("band", F(1, 10)))
@example((EIGHT, None), ("band", F(1)))
@example((EIGHT, 2000), ("band", F(0)))
@example((EIGHT, None), ("all", None))
def test_search_visits_exactly_the_calibrated_partitions(case, block_test):
    inst, cap = case
    kind, x = block_test
    calibrated = {"band": partial(_pooled_within, e=x), "all": lambda m0, m1, p0, p1: True}[kind]
    k = len(inst.features)
    scaled = _scaled(inst)
    # a block's column sums of the scaled weights (n1, n2, q1, q2)
    sums = cache(lambda mask: [sum(w[c] for i, w in enumerate(scaled.weights) if mask >> i & 1) for c in range(4)])
    seen, handed = [], []

    def visit(blocks, walk_sums):
        seen.append(tuple(blocks))
        handed.append(walk_sums)
        # the leaf's table: its populated blocks' sums, each scored at its
        # pooled rate
        m1, m2, g1, g2 = map(list, zip(*(s for s in map(sums, blocks) if s[0] or s[1])))
        assert _leaf_table(walk_sums, blocks, scaled.denominator) == _Table(
            (m1, m2), (g1, g2), scaled.denominator, list(map(add, g1, g2)), list(map(add, m1, m2)))
        return False

    explored, pruned, complete = _integral_search(inst, cap, calibrated, visit)
    bell = bell_number(k)
    counted = bell if cap is None else min(cap, bell)
    passes = cache(lambda block: _passes([inst.features[i] for i in block], kind, x))
    expected = [
        tuple(sum(1 << i for i in block) for block in part)
        for part in islice(enumerate_partitions(k), counted)
        if all(map(passes, part))
    ]
    assert seen == expected
    # every visit gets the column sums of every subset
    every = [[sums(mask)[c] for mask in range(1 << k)] for c in range(4)]
    assert all(walk is handed[0] or walk == handed[0] for walk in handed)
    assert not handed or list(map(list, handed[0])) == every
    assert (explored, pruned, complete) == (counted, counted - len(seen), counted == bell)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(search_cases(), st.data())
def test_partition_assignments_match_old_implementation(case, data):
    # zero-mass blocks, features with mass in one group only, and ids whose
    # string order differs from their position
    inst, _ = case
    ids = inst.ids
    labels = []
    for _ in ids:
        labels.append(data.draw(st.integers(0, max(labels, default=-1) + 1)))
    part = Partition.from_blocks([fid for fid, b in zip(ids, labels) if b == block] for block in range(max(labels) + 1))
    assert repr(assignment_from_partition(inst, part)) == repr(old.assignment_from_partition(inst, part))


# nonnegative rationals with large denominators, and plain ints
MASS_VALUES = st.one_of(st.integers(0, 5), st.fractions(0, 10**6, max_denominator=10**9))


@st.composite
def wide_instances(draw):
    k = draw(st.integers(1, 6))
    feats = [
        FeatureVector(f"x{i}", draw(st.fractions(0, 1, max_denominator=10**12)),
                      draw(MASS_VALUES), draw(MASS_VALUES))
        for i in range(k)
    ]
    if not any(f.n1 for f in feats):
        feats[0] = FeatureVector(feats[0].id, feats[0].p, F(1, 3), feats[0].n2)
    if not any(f.n2 for f in feats):
        feats[-1] = FeatureVector(feats[-1].id, feats[-1].p, feats[-1].n1, 7)
    return Instance(tuple(feats))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.one_of(instances(), wide_instances()))
def test_derived_stats_match_the_fraction_sums(inst):
    # repr compares field types as well as values
    assert repr(derived_stats(inst)) == repr(old.derived_stats(inst))


class _Int(int):
    pass


class _Fraction(F):
    pass


# ids and values that break the instance invariants, next to fitting ones:
# empty, duplicate and non-string ids; bools, floats, text and None;
# negative masses and probabilities above one; and int and Fraction
# subclasses, which are ints and Fractions to the checks
HOSTILE_IDS = st.sampled_from(("a", "b", "", 3, None))
HOSTILE_VALUES = st.one_of(st.sampled_from((True, False, 0.5, "1/2", None, -1, F(-1, 3), F(3, 2), 2)),
                           st.sampled_from((_Int(0), _Int(1), _Int(-2), _Fraction(1, 3), _Fraction(-1, 2),
                                            _Fraction(3, 2), _Fraction(5))),
                           st.sampled_from(PROBS), MASS_VALUES)


@st.composite
def hostile_instances(draw):
    # from zero features up, so groups without mass are common
    k = draw(st.integers(0, 4))
    return Instance(tuple(FeatureVector(draw(HOSTILE_IDS), draw(HOSTILE_VALUES), draw(HOSTILE_VALUES),
                                        draw(HOSTILE_VALUES)) for _ in range(k)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(instances(), wide_instances(), hostile_instances()))
def test_one_pass_check_matches_check_then_scale(inst):
    want = old.validate_instance(inst)
    assert validate_instance(inst) == want
    if want.ok:
        assert inst._form == old.scaled_form(inst) and _scaled(inst) is inst._form
    else:
        assert inst._form is None
        try:
            _scaled(inst)
        except InvalidInstanceError as exc:
            assert exc.violations == want.violations
        else:
            raise AssertionError("an invalid instance was scaled")


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.one_of(st.fractions(0, 3, max_denominator=10**6), st.floats(0, 10),
                 st.sampled_from((0, 1, "1/144", F(1, 144) - F(1, 10**12), F(1, 144) + F(1, 10**12),
                                  F(1, 143), F(1, 145), F(1, 64), F(1, 2), F(10**40 + 1, 10**40)))))
@example(F(1, 144))
def test_slack_matches_the_fraction_formula(e):
    # 1/144 is where the two arms of the max meet
    assert consequence_slack(e) == old.consequence_slack(e)


@st.composite
def allocation_rows(draw, nbins):
    kind = draw(st.sampled_from(("stochastic", "near-miss", "one-hot-int", "free", "empty")))
    if kind == "empty":
        return ()
    if kind == "free":
        return tuple(draw(st.lists(
            st.one_of(st.integers(-1, 2), st.fractions(-1, 2, max_denominator=50)),
            min_size=nbins, max_size=nbins)))
    if kind == "one-hot-int":
        hot = draw(st.integers(0, nbins - 1))
        return tuple(int(b == hot) for b in range(nbins))
    w = draw(st.lists(st.integers(0, 5), min_size=nbins, max_size=nbins))
    if not any(w):
        w[0] = 1
    row = [F(x, sum(w)) for x in w]
    if kind == "near-miss":
        b = draw(st.integers(0, nbins - 1))
        row[b] += draw(st.sampled_from((1, -1))) * F(1, 10 ** draw(st.integers(1, 40)))
    return tuple(row)


@st.composite
def assignment_parts(draw):
    nbins = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    ids = [f"x{i}" for i in range(k)]
    if draw(st.integers(0, 9)) == 0:
        ids[-1] = ids[0]
    scores = draw(st.lists(st.fractions(-F(1, 4), F(5, 4), max_denominator=12),
                           min_size=nbins, max_size=nbins))
    rows = [draw(allocation_rows(nbins)) for _ in ids]
    return ids, scores, rows


def construction(build, *parts):
    try:
        build(*parts)
    except Exception as exc:  # any refusal, compared by type and message
        return type(exc), str(exc)
    return None


@settings(derandomize=True, max_examples=400, deadline=None)
@given(assignment_parts())
@example((["a"], [F(1, 2)], [(F(-1, 2), F(3, 2))]))  # negative entry
@example((["a"], [F(1, 2)], [(F(3, 2), F(-1, 2))]))  # entry above 1
@example((["a"], [F(1, 2)], [(F(1, 2), F(1, 2) - F(1, 10**30))]))  # misses 1 by a hair
@example((["a"], [F(1, 2)], [(F(1, 2), F(1, 2) + F(1, 10**30))]))
@example((["a", "b"], [F(0), F(1)], [(1, 0), (0, 1)]))  # int entries
@example((["a", "b"], [F(0), F(1)], [(1, 0), ()]))  # an empty row
@example((["a"], [], [()]))  # no bins
def test_construction_matches_the_fraction_checks(parts):
    got = construction(RiskAssignment, *parts)
    assert got == construction(old.assignment_checks, *parts)
    if got is None:
        asg = RiskAssignment(*parts)
        assert asg.rows == tuple(tuple(r) for r in parts[2])
        assert all(F(n, sum(ints)) == x for ints, row in zip(asg._int_rows, asg.rows)
                   for n, x in zip(ints, row))
