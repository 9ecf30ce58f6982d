"""The package's value types against plain frozen dataclasses.

Each public record type is compared with a reference made by
`dataclasses.make_dataclass(name, fields, frozen=True)` from the field names
below, which are the types' fields as they stood when they were dataclasses:
same repr, same equality between values of the same type, same hash, and no
assignment. NamedTuple records are also tuples, and equal a tuple of their
values; that is the one intended difference.
"""
import copy
import pickle
from dataclasses import field, make_dataclass
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskaudit import (
    GROUPS,
    ApproxAuditReport,
    AuditReport,
    BinStats,
    ConsequenceFlags,
    DivergenceEntry,
    DivergenceReport,
    FairnessDifference,
    FeatureVector,
    GroupStats,
    Instance,
    LossReport,
    Partition,
    Record,
    RecordTable,
    ReducedInstance,
    RiskAssignment,
    SolveResult,
    SubsetSumInstance,
    SweepReport,
    ValidationReport,
    audit_approx,
    audit_exact,
    feature,
    loss,
    reduce_subset_sum,
    require_valid,
)
from riskaudit.reduction import Surd

RECORDS = {
    BinStats: "mass positive score_mass",
    AuditReport: (
        "calibration_ok calibration_residuals expected_score_total pos_class_avg neg_class_avg balance_pos_ok "
        "balance_pos_vacuous balance_neg_ok balance_neg_vacuous parity_gap fair"
    ),
    ConsequenceFlags: "slack near_perfect_prediction near_equal_base_rates",
    ApproxAuditReport: (
        "epsilon calibration_ok balance_pos_ok balance_pos_vacuous balance_neg_ok balance_neg_vacuous passed "
        "consequence"
    ),
    LossReport: "per_group total",
    FairnessDifference: "difference favors_group1 favors_group2",
    ValidationReport: "ok violations",
    GroupStats: "population positive_mass base_rate",
    Record: "feature_id group positive",
    DivergenceEntry: "feature_id group group_rate deviation",
    DivergenceReport: "entries",
    SolveResult: "status partition assignment loss_report explored pruned",
    SweepReport: (
        "seed epsilon budget base_rate_gap perfect_prediction integral_explored integral_complete "
        "fractional_explored exact_fair_count first_exact_fair exact_counterexample approx_pass_count "
        "approx_counterexample"
    ),
}
FROZEN = {
    FeatureVector: "id p n1 n2",
    Instance: "features",
    RiskAssignment: "feature_ids scores rows",
    RecordTable: "rows",
    SubsetSumInstance: "weights target",
    ReducedInstance: (
        "input_weights target kept_indices dropped_indices m scaled_weights required_pos_avg rates_exact rates "
        "group1_mass group2_mass instance"
    ),
    Surd: "center half_gap_squared sign",
    Partition: "blocks",
}
FIELDS = {t: tuple(names.split()) for t, names in {**RECORDS, **FROZEN}.items()}

# a few values of each kind, so that two draws are often equal
_LEAF = st.none() | st.booleans() | st.integers(0, 2) | st.fractions(0, 1, max_denominator=3) | st.sampled_from("ab")
_VALUE = st.recursive(_LEAF, lambda kids: st.tuples(kids) | st.tuples(kids, kids), max_leaves=3)


@st.composite
def _assignment_args(draw):
    ids = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    nbins = draw(st.integers(1, 2))
    scores = tuple(draw(st.fractions(0, 1, max_denominator=2)) for _ in range(nbins))
    rows = []
    for _ in ids:
        weights = draw(st.lists(st.integers(0, 1), min_size=nbins, max_size=nbins).filter(any))
        rows.append(tuple(F(w, sum(weights)) for w in weights))
    return tuple(ids), scores, tuple(rows)


@st.composite
def _table_args(draw):
    records = st.builds(Record, st.sampled_from("ab"), st.sampled_from(GROUPS), st.booleans())
    return (tuple(draw(st.lists(records, max_size=2))) + (Record("a", 1, True), Record("b", 2, False)),)


# constructors that convert or check their arguments, and `Surd`, whose equality reads
# its value, get fitting arguments; the others take any values
ARGS = {
    Instance: st.tuples(st.lists(_VALUE, max_size=2).map(tuple)),
    Surd: st.tuples(*[st.fractions(0, 1, max_denominator=4)] * 2, st.sampled_from((-1, 1))),
    RiskAssignment: _assignment_args(),
    RecordTable: _table_args(),
    SubsetSumInstance: st.tuples(st.lists(st.integers(1, 2), min_size=1, max_size=2).map(tuple), st.integers(1, 2)),
}
# the private slot each of these keeps out of repr, equality and hash
PRIVATE = {Instance: "_form", RiskAssignment: "_int_rows", ReducedInstance: "_basis"}


def _reference(t):
    extra = [("_basis", object, field(compare=False, repr=False))] if t is ReducedInstance else []
    return make_dataclass(t.__name__, list(FIELDS[t]) + extra, frozen=True)


def _args(t):
    if t in ARGS:
        return ARGS[t]
    return st.tuples(*[_VALUE] * (len(FIELDS[t]) + (t is ReducedInstance)))


@pytest.mark.parametrize("t", [pytest.param(t, id=t.__name__) for t in FIELDS])
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_behaves_as_a_frozen_dataclass(t, data):
    reference = _reference(t)
    a = data.draw(_args(t))
    b = data.draw(st.just(a) | _args(t))
    x, y = t(*a), t(*b)
    assert repr(x) == repr(reference(*a))
    if t is not Surd:  # a surd defines its own equality, read from its value
        assert (x == y) == (reference(*a) == reference(*b))
        assert hash(x) == hash(reference(*a))
        assert x != reference(*a) and not x == object()
    assert t(**dict(zip(FIELDS[t], a), **({"_basis": a[-1]} if t is ReducedInstance else {}))) == x
    for name in FIELDS[t]:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert copy.copy(x) == x and pickle.loads(pickle.dumps(x)) == x


@pytest.mark.parametrize("t", [pytest.param(t, id=t.__name__) for t in RECORDS])
def test_records_are_named_tuples(t):
    values = tuple(range(len(FIELDS[t])))
    record = t(*values)
    assert t._fields == FIELDS[t]
    assert record == values and tuple(record) == values
    assert record._replace(**{FIELDS[t][0]: -1})[0] == -1


@pytest.mark.parametrize("t", [pytest.param(t, id=t.__name__) for t in FROZEN])
def test_frozen_types_are_neither_tuples_nor_ordered(t):
    assert t._fields == FIELDS[t]
    assert not issubclass(t, tuple) and t.__lt__ is object.__lt__


def test_private_slots_stay_out_of_repr_and_equality(skewed):
    inst = Instance(skewed.features)
    asg = RiskAssignment(("s1", "s2"), (F(1, 2), F(1, 4)), ((1, 0), (0, 1)))
    reduced = reduce_subset_sum(SubsetSumInstance((1, 2), 3))
    require_valid(skewed)
    assert skewed._form is not None and inst._form is None
    for value in (inst, asg, reduced):
        slot = PRIVATE[type(value)]
        assert slot not in repr(value)
        twin = copy.copy(value)
        object.__setattr__(twin, slot, "other")
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
    assert skewed == inst and hash(skewed) == hash(inst)


def test_a_kept_table_stays_out_of_the_value(skewed):
    args = (("s1", "s2"), (F(1, 2), F(1, 4)), ((1, 0), (F(1, 2), F(1, 2))))
    asg, bare = RiskAssignment(*args), RiskAssignment(*args)

    def reports(inst, a):
        return audit_exact(inst, a), audit_approx(inst, a, F(1, 10)), loss(inst, a)

    want = reports(skewed, asg)
    assert asg._table is not None and bare._table is None
    assert "_table" not in repr(asg) and repr(asg) == repr(bare)
    assert asg == bare and hash(asg) == hash(bare)
    for twin in (copy.copy(asg), copy.deepcopy(asg), pickle.loads(pickle.dumps(asg))):
        assert twin == asg and reports(skewed, twin) == want
    # copied together, an instance and an assignment keep their shared form
    inst, twin = pickle.loads(pickle.dumps((skewed, asg)))
    assert twin._table[0] is inst._form and reports(inst, twin) == want


def test_feature_vector_keeps_count():
    # the reason a feature vector is no NamedTuple: `count` is tuple's
    f = feature("a", "1/2", 1, 3)
    assert f.count(1) == 1 and f.count(2) == 3 and f.total == 4
