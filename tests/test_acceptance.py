"""Acceptance gate: ten end-to-end checks, one test and one printed verdict
line each.

Each test tallies violations instead of asserting mid-loop, prints
``criterion N [...]: PASS/FAIL`` with the tallies, and only then asserts, so
the verdict line survives into the report either way. Checks with a stated
time budget measure wall-clock time around the whole loop, generation
included.
"""
from __future__ import annotations

import time
from fractions import Fraction
from itertools import islice
from random import Random

import audit_oracle as old
from riskaudit.audit import audit_exact
from riskaudit.cli import run_cli
from riskaudit.loss import (
    fairness_difference,
    identity_assignment,
    interpolate,
    loss,
    trivial_assignment,
)
from riskaudit.model import Instance, derived_stats, feature
from riskaudit.partitions import Partition, bell_number, enumerate_partitions
from riskaudit.reduction import (
    SubsetSumInstance,
    check_reduction_equation,
    decode_partition,
    encode_solution,
    reduce_subset_sum,
    search_normal_forms,
    solve_subset_sum,
)
from riskaudit.serialize import dumps_doc, instance_to_doc
from riskaudit.solver import assignment_from_partition
from riskaudit.sweep import (
    approx_audit_corpus,
    calibrated_split_assignment,
    pooled_rounded_assignment,
    random_equal_rate_instance,
    random_gapped_instance,
    random_instance,
    random_perfect_instance,
    theorem_sweep,
    two_bin_certain_assignment,
)


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'}{tail}")


def test_criterion_01_special_case_fairness():
    # certain outcomes with a {0, 1} two-bin assignment, and equal base rates
    # with the one-bin pooled assignment, must pass the exact audit every time
    rng = Random(101)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(100):
        perfect = random_perfect_instance(rng)
        if not audit_exact(perfect, two_bin_certain_assignment(perfect)).fair:
            failures += 1
        matched = random_equal_rate_instance(rng)
        if not audit_exact(matched, trivial_assignment(matched)).fair:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 1.0
    _verdict(1, "special-case fairness", ok, f"200 instances, {failures} failures, {elapsed:.3f}s")
    assert failures == 0
    assert elapsed < 1.0


def test_criterion_02_no_exactly_fair_assignment_under_a_rate_gap():
    t0 = time.perf_counter()
    rng = Random(202)
    fair_hits = 0
    incomplete = 0
    short = 0
    for i in range(50):
        inst = random_gapped_instance(rng)
        assert len(inst.features) <= 6
        report = theorem_sweep(inst, 10**4, Fraction(0), seed=5000 + i)
        if report.exact_fair_count or report.exact_counterexample is not None:
            fair_hits += 1
        if not report.integral_complete:
            incomplete += 1
        if report.fractional_explored != 10**4:
            short += 1
    elapsed = time.perf_counter() - t0
    ok = fair_hits == 0 and incomplete == 0 and short == 0 and elapsed < 60.0
    _verdict(
        2,
        "no exact fairness at gap >= 1/10",
        ok,
        f"50 instances x (integral + 1e4 fractional), {fair_hits} counterexamples, {elapsed:.1f}s",
    )
    assert fair_hits == 0
    assert incomplete == 0 and short == 0
    assert elapsed < 60.0


def test_criterion_03_relaxed_passes_carry_a_consequence_flag():
    unflagged = 0
    checked = 0
    for j, eps in enumerate((Fraction(1, 10**4), Fraction(1, 10**3), Fraction(1, 10**2))):
        for _, _, report in islice(approx_audit_corpus(eps, 9300 + j), 10**4):
            checked += 1
            if not (report.passed and report.consequence.any):
                unflagged += 1
    ok = unflagged == 0 and checked == 3 * 10**4
    _verdict(
        3,
        "relaxed audit implies a consequence",
        ok,
        f"{checked} passing assignments over three tolerances, {unflagged} unflagged",
    )
    assert unflagged == 0
    assert checked == 3 * 10**4


def test_criterion_04_calibration_identities():
    # under exact calibration the expected score mass equals the positive
    # mass per group, and the parity gap collapses to the base-rate gap
    rng = Random(404)
    bad = 0
    for _ in range(200):
        inst = random_instance(rng)
        gs = derived_stats(inst)
        for asg in (identity_assignment(inst), calibrated_split_assignment(inst, rng)):
            report = audit_exact(inst, asg)
            if not report.calibration_ok:
                bad += 1
            if report.expected_score_total != (gs.positive_mass[0], gs.positive_mass[1]):
                bad += 1
            if report.parity_gap != gs.base_rate[0] - gs.base_rate[1]:
                bad += 1
    ok = bad == 0
    _verdict(4, "calibration identities", ok, f"400 calibrated assignments, {bad} mismatches")
    assert bad == 0


def test_criterion_05_interpolation_is_linear_and_stays_calibrated():
    rng = Random(505)
    samples = 0
    bad = 0
    while samples < 1000:
        inst = random_instance(rng)
        gs = derived_stats(inst)
        if gs.positive_mass[0] == 0 or gs.positive_mass[1] == 0:
            continue
        first = identity_assignment(inst)
        d1 = fairness_difference(inst, first).difference
        for _ in range(4):
            if samples >= 1000:
                break
            second = calibrated_split_assignment(inst, rng)
            lam = Fraction(rng.randint(0, 24), 24)
            mixed = interpolate(inst, first, second, lam)
            d2 = fairness_difference(inst, second).difference
            d3 = fairness_difference(inst, mixed).difference
            if d3 != lam * d1 + (1 - lam) * d2:
                bad += 1
            if not audit_exact(inst, mixed).calibration_ok:
                bad += 1
            samples += 1
    ok = bad == 0
    _verdict(5, "interpolation linearity", ok, f"1000 pair/weight samples, {bad} violations")
    assert bad == 0


def _mixes_distinct_probabilities(inst: Instance, asg) -> bool:
    rows = old.assignment_rows_for(inst, asg)
    for b in range(asg.bin_count):
        seen = set()
        for f, row in zip(inst.features, rows):
            if f.total and row[b]:
                seen.add(f.p)
                if len(seen) > 1:
                    return True
    return False


def test_criterion_06_identity_scoring_minimizes_loss():
    rng = Random(606)
    violations = 0
    integral_checked = 0
    fractional_checked = 0
    for _ in range(50):
        inst = random_instance(rng, max_features=5)
        ident_total = loss(inst, identity_assignment(inst)).total
        order = tuple(f.id for f in inst.features)

        def offending(asg) -> bool:
            total = loss(inst, asg).total
            if total < ident_total:
                return True
            return total == ident_total and _mixes_distinct_probabilities(inst, asg)

        for index_part in enumerate_partitions(len(order)):
            part = Partition.from_blocks(
                tuple(order[i] for i in block) for block in index_part.blocks
            )
            integral_checked += 1
            if offending(assignment_from_partition(inst, part)):
                violations += 1
        for _ in range(20):
            fractional_checked += 1
            if offending(pooled_rounded_assignment(inst, rng)):
                violations += 1
    ok = violations == 0 and fractional_checked == 1000
    _verdict(
        6,
        "identity loss optimality",
        ok,
        f"{integral_checked} integral + {fractional_checked} fractional, {violations} violations",
    )
    assert violations == 0
    assert fractional_checked == 1000


def test_criterion_07_reduction_matches_the_subset_sum_oracle():
    t0 = time.perf_counter()
    rng = Random(707)
    mismatches = 0
    for _ in range(100):
        m = rng.randint(2, 4)
        target = rng.randint(1, 50)
        weights = tuple(rng.randint(1, target) for _ in range(m))
        ss = SubsetSumInstance(weights, target)
        reduced = reduce_subset_sum(ss)
        oracle = solve_subset_sum(ss)
        found = search_normal_forms(reduced)
        if (found is not None) != (oracle is not None):
            mismatches += 1
            continue
        if found is not None:
            decoded = decode_partition(reduced, found)
            if sum(weights[i - 1] for i in decoded) != target:
                mismatches += 1
        if oracle is not None:
            part = encode_solution(reduced, oracle)
            if not check_reduction_equation(reduced, part):
                mismatches += 1
            if decode_partition(reduced, part) != oracle:
                mismatches += 1
        subset = frozenset(i + 1 for i in range(m) if rng.random() < 0.5)
        if decode_partition(reduced, encode_solution(reduced, subset)) != subset:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 120.0
    _verdict(
        7,
        "reduction soundness",
        ok,
        f"100 seeded subset-sum instances, {mismatches} mismatches, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert elapsed < 120.0


def test_criterion_08_worked_numbers():
    bad = []
    reduced = reduce_subset_sum(SubsetSumInstance((1, 2), 3))
    if reduced.required_pos_avg != Fraction(5, 9):
        bad.append("required positive-class average")
    if reduced.rates_exact[4] != Fraction(1, 3) or reduced.rates_exact[5] != Fraction(2, 3):
        bad.append("anchor rates")
    inst = Instance(
        (feature("s1", Fraction(1, 2), 2, 0), feature("s2", Fraction(1, 4), 0, 4))
    )
    ident = identity_assignment(inst)
    report = audit_exact(inst, ident)
    if report.pos_class_avg != (Fraction(1, 2), Fraction(1, 4)):
        bad.append("positive-class averages")
    if loss(inst, ident).per_group != (Fraction(1), Fraction(3, 2)):
        bad.append("per-group losses")
    ok = not bad
    _verdict(8, "worked numbers", ok, "all exact" if ok else "; ".join(bad))
    assert not bad


def test_criterion_09_partition_counts_are_bell_numbers():
    expected = {
        0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52,
        6: 203, 7: 877, 8: 4140, 9: 21147, 10: 115975,
    }
    bad = 0
    for k, want in expected.items():
        if bell_number(k) != want:
            bad += 1
        if sum(1 for _ in enumerate_partitions(k)) != want:
            bad += 1
    ok = bad == 0
    _verdict(9, "partition counts", ok, f"k <= 10, {bad} mismatches")
    assert bad == 0


def test_criterion_10_seeded_commands_are_byte_identical(tmp_path, capsys):
    inst = Instance(
        (feature("s1", Fraction(1, 2), 2, 0), feature("s2", Fraction(1, 4), 0, 4))
    )
    path = tmp_path / "instance.json"
    path.write_text(dumps_doc(instance_to_doc(inst)))
    unstable = 0
    runs = 0
    for fmt in ("text", "json"):
        argv = [
            "theorem-sweep", "-i", str(path), "--seed", "7",
            "--budget", "500", "--eps", "1/1000", "--format", fmt,
        ]
        outputs = []
        codes = []
        for _ in range(2):
            codes.append(run_cli(argv))
            outputs.append(capsys.readouterr().out)
        runs += 1
        if outputs[0] != outputs[1] or codes[0] != codes[1] or not outputs[0]:
            unstable += 1
    ok = unstable == 0 and runs == 2
    _verdict(10, "seeded determinism", ok, f"theorem-sweep rerun in both formats, {unstable} unstable")
    assert unstable == 0
