from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskaudit import (
    DegenerateGroupError,
    DomainError,
    Instance,
    InvalidInstanceError,
    RiskAssignment,
    audit_approx,
    audit_exact,
    classify_consequence,
    consequence_slack,
    fairness_difference,
    feature,
    find_fair_nontrivial,
    identity_assignment,
    interpolate,
    is_nontrivial,
    loss,
    normalize_assignment,
    passes_fairness,
    solve_integral,
    trivial_assignment,
)
from riskaudit.audit import _balanced_within
from riskaudit.sweep import pooled_rounded_assignment, random_instance

import random


class TestExactAudit:
    def test_skewed_identity(self, skewed):
        rep = audit_exact(skewed, identity_assignment(skewed))
        assert rep.calibration_ok
        assert rep.expected_score_total == (1, 1)
        assert rep.pos_class_avg == (F(1, 2), F(1, 4))
        assert rep.neg_class_avg == (F(1, 2), F(1, 4))
        assert not rep.balance_pos_ok and not rep.balance_neg_ok
        assert not rep.fair
        assert rep.parity_gap == F(1, 4)

    def test_balanced_identity_fair(self, balanced):
        rep = audit_exact(balanced, identity_assignment(balanced))
        assert rep.fair
        assert rep.pos_class_avg == (F(5, 8), F(5, 8))
        assert rep.neg_class_avg == (F(3, 8), F(3, 8))
        assert rep.parity_gap == 0

    def test_trivial_breaks_calibration_on_mixed_bins(self, skewed):
        rep = audit_exact(skewed, trivial_assignment(skewed))
        # one pooled bin scored at the overall base rate 1/3
        assert not rep.calibration_ok
        assert rep.balance_pos_ok and rep.balance_neg_ok

    def test_parity_gap_equals_base_rate_gap_when_calibrated(self, skewed):
        asg = identity_assignment(skewed)
        assert audit_exact(skewed, asg).parity_gap == F(1, 2) - F(1, 4)


class TestApproxAudit:
    def test_skewed_passes_at_three_halves(self, skewed):
        rep = audit_approx(skewed, identity_assignment(skewed), F(3, 2))
        assert rep.passed

    def test_skewed_fails_at_one_half(self, skewed):
        rep = audit_approx(skewed, identity_assignment(skewed), F(1, 2))
        assert rep.calibration_ok
        # class averages are (1/2, 1/4) in both classes: 1/2 > (3/2) * 1/4
        assert not rep.balance_pos_ok
        assert not rep.balance_neg_ok
        assert not rep.passed

    def test_eps_zero_is_exact(self, skewed, balanced):
        for inst in (skewed, balanced):
            asg = identity_assignment(inst)
            assert audit_approx(inst, asg, F(0)).passed == audit_exact(inst, asg).fair

    def test_negative_eps_rejected(self, skewed):
        from riskaudit import DomainError

        with pytest.raises(DomainError):
            audit_approx(skewed, identity_assignment(skewed), F(-1, 10))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_eps_zero_matches_exact_on_random_pairs(self, seed):
        rng = random.Random(seed)
        inst = random_instance(rng)
        asg = pooled_rounded_assignment(inst, rng)
        exact = audit_exact(inst, asg)
        approx = audit_approx(inst, asg, F(0))
        assert approx.passed == exact.fair
        assert passes_fairness(inst, asg) == exact.fair


class TestRatioBand:
    # a class is (score received, mass) per group; its average is the ratio
    def test_zero_vs_zero_always_passes(self):
        assert _balanced_within(((0, 1), (0, 3)), F(0))
        assert _balanced_within(((0, 0), (2, 3)), F(0))  # an empty class is vacuous

    def test_zero_vs_positive_needs_full_slack(self):
        assert not _balanced_within(((0, 1), (1, 3)), F(1, 2))
        assert _balanced_within(((0, 1), (1, 3)), F(1))
        assert _balanced_within(((1, 3), (0, 1)), F(2))

    def test_symmetric(self):
        for eps in (F(0), F(1, 10), F(1)):
            assert _balanced_within(((1, 4), (2, 8)), eps)
        assert _balanced_within(((1, 4), (1, 5)), F(1, 4))
        assert _balanced_within(((1, 5), (1, 4)), F(1, 4))
        assert not _balanced_within(((1, 5), (1, 4)), F(1, 100))


_CLASS = st.tuples(st.integers(0, 12), st.integers(0, 4)).map(lambda am: am if am[1] else (0, 0))


@settings(derandomize=True, max_examples=300)
@given(st.tuples(_CLASS, _CLASS), st.fractions(min_value=0, max_value=3, max_denominator=8))
def test_balance_band_matches_the_oracle(cls, e):
    # the band on the class averages, both orderings, and at e = 0 exact
    # agreement; an empty class (no mass, no score) is vacuous
    import audit_oracle as old

    (a0, m0), (a1, m1) = cls
    want = not (m0 and m1) or old._ratio_band_ok(F(a0, m0), F(a1, m1), e)
    assert _balanced_within(cls, e) == want
    assert _balanced_within(cls, F(0)) == (a0 * m1 == a1 * m0)


class TestConsequenceSlack:
    def test_frozen_values(self):
        assert consequence_slack(F(0)) == 0
        # sqrt(1/144) = 1/12 and 3/12 + 3/4 = 1 exactly, both arms agree
        assert consequence_slack(F(1, 144)) == F(1, 12)
        # max arm active: 3/8 + 3/4 > 1
        assert consequence_slack(F(1, 64)) == F(9, 64)
        assert consequence_slack(F(1, 100)) == F(21, 200)

    def test_irrational_case_is_tight_upper_bound(self):
        # sqrt(1/2) is irrational; result must bound s*(3s + 3/4) from above
        val = consequence_slack(F(1, 2))
        lo = 0
        hi = F(1)
        # bisect sqrt(1/2) to 2^-140 and evaluate the exact formula bounds
        for _ in range(140):
            mid = (lo + hi) / 2
            if mid * mid <= F(1, 2):
                lo = mid
            else:
                hi = mid
        f_lo = lo * (3 * lo + F(3, 4))
        f_hi = hi * (3 * hi + F(3, 4))
        assert f_lo <= val
        assert val - f_hi <= F(1, 2**120)

    def test_monotone(self):
        grid = [F(k, 64) for k in range(0, 65)]
        vals = [consequence_slack(e) for e in grid]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_negative_rejected(self):
        from riskaudit import DomainError

        with pytest.raises(DomainError):
            consequence_slack(F(-1))


class TestClassifyConsequence:
    def test_skewed_flags_at_large_eps(self, skewed):
        flags = classify_consequence(skewed, identity_assignment(skewed), F(3, 2))
        # f(3/2) > 1, so every instance is within slack of both escapes
        assert flags.near_perfect_prediction
        assert flags.near_equal_base_rates
        assert flags.any

    def test_tight_eps_zero(self, skewed):
        flags = classify_consequence(skewed, identity_assignment(skewed), F(0))
        # base rates differ by 1/4 and prediction is not perfect
        assert not flags.near_equal_base_rates
        assert not flags.near_perfect_prediction
        assert not flags.any

    def test_perfect_prediction_detected(self):
        inst = Instance((feature("a", F(0), 1, 1), feature("b", F(1), 1, 1)))
        flags = classify_consequence(inst, identity_assignment(inst), F(0))
        assert flags.near_perfect_prediction

    @pytest.mark.parametrize("eps", [F(1, 1000), F(1, 200)])  # 144 eps above and below 1
    def test_flags_decided_against_the_exact_slack(self, eps):
        # group 1 at probability 1 - x, group 2 certain-positive: the group-1
        # positive class falls short of 1 by x, and the base rates differ by
        # x. consequence_slack rounds sqrt(eps) up at 2**-128, so both flags
        # are false at x = consequence_slack(eps) and true where sqrt(eps) is
        # rounded down instead
        from riskaudit.model import _sqrt_upper

        root, exact = _sqrt_upper(eps)
        below = root - F(1, 2**128)
        assert not exact and below * below < eps
        for x, inside in ((consequence_slack(eps), False), (below * max(1, 3 * below + F(3, 4)), True)):
            inst = Instance((feature("a", 1 - x, 1, 0), feature("b", F(1), 0, 1)))
            asg = identity_assignment(inst)
            flags = classify_consequence(inst, asg, eps)
            assert flags.slack == consequence_slack(eps)
            assert flags.near_perfect_prediction is inside and flags.near_equal_base_rates is inside
            assert audit_approx(inst, asg, eps).consequence == flags


class TestDegenerate:
    def test_empty_positive_class_is_vacuous(self):
        inst = Instance((feature("a", F(0), 2, 3),))
        rep = audit_exact(inst, identity_assignment(inst))
        assert rep.balance_pos_vacuous
        assert rep.fair  # calibrated, negatives agree, positives vacuous

    def test_fairness_difference_raises(self):
        from riskaudit import fairness_difference

        inst = Instance((feature("a", F(0), 2, 3),))
        with pytest.raises(DegenerateGroupError):
            fairness_difference(inst, identity_assignment(inst))


def test_floats_only_in_the_reduction():
    # every verdict is exact and no module calls float(): the reduction
    # writes its irrational rates as surds
    import ast
    from pathlib import Path

    import riskaudit

    callers = []
    for path in sorted(Path(riskaudit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                callers.append(path.name)
    assert callers == []


ORACLES = ("audit_oracle", "reduction_oracle")


def test_no_unused_imports():
    # every module but the package's export list uses each name it imports,
    # and so does each test oracle
    import ast
    from pathlib import Path

    import riskaudit

    package = sorted(Path(riskaudit.__file__).parent.glob("*.py"))
    oracles = [Path(__file__).parent / f"{module}.py" for module in ORACLES]
    unused = []
    for path in package + oracles:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).partition(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []


def test_every_oracle_definition_is_used():
    # a test refers to each top-level function or class of an oracle as
    # old.<name>, or a used function of the same oracle refers to it
    import ast
    from pathlib import Path

    tests = Path(__file__).parent
    used = {module: set() for module in ORACLES}
    for path in sorted(tests.glob("test_*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        alias = {a.asname or a.name: a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names if a.name in used}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in alias:
                used[alias[node.value.id]].add(node.attr)
    unused = []
    for module, names in used.items():
        tree = ast.parse((tests / f"{module}.py").read_text(encoding="utf-8"))
        defs = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        todo = [name for name in names if name in defs]
        names = set(todo)
        while todo:
            for node in ast.walk(defs[todo.pop()]):
                if isinstance(node, ast.Name) and node.id in defs and node.id not in names:
                    names.add(node.id)
                    todo.append(node.id)
        unused += [f"{module}.py:{node.lineno} {name}" for name, node in defs.items() if name not in names]
    assert unused == []


def test_no_module_imports_dataclasses():
    # decorating a dataclass compiles its methods at every import, and the
    # module loads `inspect`; the package's records are NamedTuples and
    # `model._Frozen` classes instead
    import ast
    from pathlib import Path

    import riskaudit

    importers = []
    for path in sorted(Path(riskaudit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            importers += [f"{path.name}:{node.lineno}" for m in modules if m.partition(".")[0] == "dataclasses"]
    assert importers == []


def test_as_fraction_is_read_only_where_its_errors_are_turned():
    # `as_fraction` raises TypeError, ValueError or OverflowError; model,
    # serialize and cli turn those into DomainError, DocumentError or a usage
    # error, and every other module reads a rational argument through
    # `model._read_rational`, so a bare call elsewhere would leak them
    import ast
    from pathlib import Path

    import riskaudit

    readers = []
    for path in sorted(Path(riskaudit.__file__).parent.glob("*.py")):
        if path.name in ("model.py", "serialize.py", "cli.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and name == "as_fraction":
                readers.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert readers == []


def test_every_private_definition_is_used():
    # package code outside its own body refers to each private top-level
    # function or class of the package; a helper that only tests call is dead
    import ast
    from collections import Counter
    from pathlib import Path

    import riskaudit

    def names(node) -> Counter:
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(riskaudit.__file__).parent.glob("*.py"))}
    used = sum(map(names, trees.values()), Counter())
    unused = [f"{file}:{node.lineno} {node.name}" for file, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
              and not node.name.startswith("__") and used[node.name] == names(node)[node.name]]
    assert unused == []


def test_fields_are_written_only_on_construction():
    # a kept table is sound only while no field of an instance or an
    # assignment changes: outside `__init__` and `__setstate__`, `_set`
    # writes nothing but the cache slots
    import ast
    from pathlib import Path

    import riskaudit

    writes = []
    for path in sorted(Path(riskaudit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        constructing = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                        and fn.name in ("__init__", "__setstate__") for node in ast.walk(fn)}
        writes += [f"{path.name}:{node.lineno} {ast.unparse(node)}" for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_set"
                   and id(node) not in constructing
                   and not (len(node.args) == 3 and isinstance(node.args[1], ast.Constant)
                            and node.args[1].value in ("_form", "_table"))]
    assert writes == []


# (p, n1, n2) of feature "a"; feature "b" is (1/4, 1, 0)
INVALID = {
    "negative-mass": (F(1, 2), -1, 1),
    "p-above-one": (F(3, 2), 1, 1),
    "empty-group": (F(1, 2), 1, 0),
}
VIEWS = {
    "audit_exact": audit_exact,
    "classify_consequence": lambda inst, asg: classify_consequence(inst, asg, F(1, 10)),
    "audit_approx": lambda inst, asg: audit_approx(inst, asg, F(1, 10)),
    "passes_fairness": passes_fairness,
    "loss": loss,
    "fairness_difference": fairness_difference,
    "is_nontrivial": is_nontrivial,
    "normalize_assignment": normalize_assignment,
    "interpolate": lambda inst, asg: interpolate(inst, asg, asg, F(1, 2)),
    "find_fair_nontrivial": lambda inst, asg: find_fair_nontrivial(inst, [asg]),
    "identity_assignment": lambda inst, asg: identity_assignment(inst),
    "trivial_assignment": lambda inst, asg: trivial_assignment(inst),
}


@pytest.mark.parametrize("view", VIEWS.values(), ids=VIEWS.keys())
@pytest.mark.parametrize("spec", INVALID.values(), ids=INVALID.keys())
def test_every_view_refuses_an_invalid_instance(view, spec):
    inst = Instance((feature("a", *spec), feature("b", F(1, 4), 1, 0)))
    asg = RiskAssignment(("a", "b"), (F(1, 2), F(1, 4)), ((F(1), F(0)), (F(0), F(1))))
    with pytest.raises(InvalidInstanceError):
        view(inst, asg)


def test_an_instance_is_validated_once(monkeypatch):
    import riskaudit.model as model_module

    validated = []
    original = model_module.validate_instance

    def counted(inst):
        validated.append(inst)
        return original(inst)

    monkeypatch.setattr(model_module, "validate_instance", counted)
    inst = Instance((feature("a", F(1, 4), 1, 1), feature("b", F(3, 4), 1, 2)))
    asg = RiskAssignment(("b", "a"), (F(3, 4), F(1, 4)), ((F(1), F(0)), (F(0), F(1))))
    audit_exact(inst, asg)
    audit_approx(inst, asg, F(1, 10))
    loss(inst, asg)
    passes_fairness(inst, asg)
    assert validated == [inst]
    # the form belongs to the object: an equal new instance is validated anew
    again = Instance(inst.features)
    assert again == inst and hash(again) == hash(inst)
    assert audit_exact(again, asg) == audit_exact(inst, asg)
    assert len(validated) == 2


def test_class_sums_are_computed_once_per_read_table(monkeypatch):
    import riskaudit.audit as audit_module

    summed = []
    original = audit_module._class_sums

    def counted(table):
        summed.append(table)
        return original(table)

    monkeypatch.setattr(audit_module, "_class_sums", counted)
    rng = random.Random(3)
    inst = random_instance(rng)
    asg = pooled_rounded_assignment(inst, rng)
    audit_exact(inst, asg)
    audit_approx(inst, asg, F(1, 10))
    loss(inst, asg)
    classify_consequence(inst, asg, F(1, 100))
    passes_fairness(inst, asg)
    assert len(summed) == 1 and summed[0] is asg._table[1]
    # a search decides the partitions it visits on their column sums, and
    # sums one table: its witness's, for the loss
    inst = Instance(tuple(feature(f"x{i}", F(i % 4, 4), 1 + i % 2, 1 + i % 2) for i in range(6)))
    for objective in ("any_fair", "min_loss"):
        summed.clear()
        result = solve_integral(inst, objective)
        assert result.status == "found" and result.explored - result.pruned > 1 and len(summed) == 1


# the views that read one (instance, assignment) pair's bin table
PAIR_VIEWS = ("audit_exact", "classify_consequence", "audit_approx", "passes_fairness", "loss", "is_nontrivial")


def _counted_tables(monkeypatch) -> list:
    import riskaudit.audit as audit_module

    tabled = []
    original = audit_module._accumulate_bins

    def counted(*args):
        tabled.append(args)
        return original(*args)

    monkeypatch.setattr(audit_module, "_accumulate_bins", counted)
    return tabled


def test_every_view_of_a_pair_reads_one_table(monkeypatch):
    rng = random.Random(5)
    inst = random_instance(rng)
    asg = pooled_rounded_assignment(inst, rng)
    tabled = _counted_tables(monkeypatch)
    for name in PAIR_VIEWS:
        VIEWS[name](inst, asg)
    assert len(tabled) == 1


def test_a_table_belongs_to_one_instance(monkeypatch):
    import audit_oracle as old

    feats = (feature("a", F(1, 4), 1, 1), feature("b", F(3, 4), 1, 2))
    inst = Instance(feats)
    other = Instance((feature("a", F(1, 2), 3, 1), feature("b", F(1, 3), 0, 2)))
    asg = RiskAssignment(("b", "a"), (F(3, 4), F(1, 4)), ((F(1), F(0)), (F(1, 2), F(1, 2))))
    tabled = _counted_tables(monkeypatch)
    # an equal but new instance has its own integer form, so its own table
    audit_exact(inst, asg)
    audit_exact(Instance(feats), asg)
    assert len(tabled) == 2
    for _ in range(3):
        for x in (inst, other):
            assert audit_exact(x, asg) == old.audit_exact(x, asg)
            assert audit_approx(x, asg, F(1, 10)) == old.audit_approx(x, asg, F(1, 10))
            assert loss(x, asg) == old.loss(x, asg)
            assert is_nontrivial(x, asg) == old.is_nontrivial(x, asg)


@pytest.mark.parametrize("seed", range(6))
def test_no_view_changes_the_kept_table(seed):
    from riskaudit.audit import _scored
    from riskaudit.model import _row_order, _scaled

    rng = random.Random(seed)
    inst = random_instance(rng)
    asg = pooled_rounded_assignment(inst, rng)
    for view in VIEWS.values():
        try:
            view(inst, asg)
        except (DegenerateGroupError, DomainError):
            pass  # a view that refuses the pair still reads its table
    scaled, table = asg._table
    # the key is the form itself, held, so no later form can take over its identity
    assert scaled is _scaled(inst)
    assert table == _scored(scaled, [asg._int_rows[i] for i in _row_order(inst, asg)], asg.scores)
