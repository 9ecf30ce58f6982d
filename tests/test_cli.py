"""End-to-end checks of the command-line surface.

Each command runs in process through run_cli so exit codes and streams are
observable without spawning an interpreter.
"""
import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskaudit import (
    Instance,
    RiskAssignment,
    RiskAuditError,
    SubsetSumInstance,
    assignment_to_doc,
    calibrated_split_assignment,
    dumps_doc,
    feature,
    identity_assignment,
    instance_to_doc,
    interpolate,
    parse_reduced,
    pooled_rounded_assignment,
    random_equal_rate_instance,
    random_gapped_instance,
    random_instance,
    random_perfect_instance,
    random_proportional_instance,
    reduce_subset_sum,
    reduced_to_doc,
    trivial_assignment,
)
from riskaudit.cli import run_cli


@pytest.fixture
def ws(tmp_path, skewed, balanced, rigid):
    paths = {}
    for name, inst in (("skewed", skewed), ("balanced", balanced), ("rigid", rigid)):
        p = tmp_path / f"{name}.json"
        p.write_text(dumps_doc(instance_to_doc(inst)))
        paths[name] = str(p)
        a = tmp_path / f"{name}_id.json"
        a.write_text(dumps_doc(assignment_to_doc(identity_assignment(inst))))
        paths[name + "_id"] = str(a)
        t = tmp_path / f"{name}_tr.json"
        t.write_text(dumps_doc(assignment_to_doc(trivial_assignment(inst))))
        paths[name + "_tr"] = str(t)
    paths["dir"] = str(tmp_path)
    return paths


def test_audit_fair_exit_zero(ws, capsys):
    code = run_cli(["audit", "-i", ws["balanced"], "-a", ws["balanced_id"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "fair: true" in out


def test_audit_unfair_exit_one(ws, capsys):
    code = run_cli(["audit", "-i", ws["skewed"], "-a", ws["skewed_id"]])
    assert code == 1
    assert "fair: false" in capsys.readouterr().out


def test_audit_approx_verdict_controls_exit(ws, capsys):
    assert run_cli(["audit", "-i", ws["skewed"], "-a", ws["skewed_id"], "--eps", "3/2"]) == 0
    capsys.readouterr()
    assert run_cli(["audit", "-i", ws["skewed"], "-a", ws["skewed_id"], "--eps", "1/2"]) == 1


def test_audit_json_format(ws, capsys):
    code = run_cli(["audit", "-i", ws["balanced"], "-a", ws["balanced_id"], "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["audit"]["fair"] is True
    assert doc["audit"]["parity_gap"] == "0"


def test_loss_values(ws, capsys):
    code = run_cli(["loss", "-i", ws["skewed"], "-a", ws["skewed_id"], "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["total"] == "5/2"


def test_validate_bad_instance(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(
        '{"version": "1", "kind": "instance", "features": '
        '[{"id": "a", "p": "2", "counts": {"1": 1, "2": 1}}]}'
    )
    assert run_cli(["validate", "-i", str(p)]) == 1
    assert "ok: false" in capsys.readouterr().out


def test_ingest_round_trip(tmp_path, capsys):
    csv = tmp_path / "r.csv"
    csv.write_text("feature_id,group,outcome\na,1,1\na,2,0\nb,1,0\nb,2,1\n")
    out = tmp_path / "inst.json"
    assert run_cli(["ingest", "-i", str(csv), "-o", str(out)]) == 0
    assert run_cli(["validate", "-i", str(out)]) == 0


def test_interpolate_writes_assignment(ws, tmp_path, capsys):
    out = tmp_path / "mix.json"
    code = run_cli(
        [
            "interpolate",
            "-i", ws["rigid"],
            "-a", ws["rigid_id"],
            "-b", ws["rigid_tr"],
            "-w", "1/2",
            "-o", str(out),
        ]
    )
    assert code == 0
    assert "difference: 1/16" in capsys.readouterr().out
    assert run_cli(["audit", "-i", ws["rigid"], "-a", str(out)]) in (0, 1)


def test_find_fair_trivial_candidate_exit_two(ws, capsys):
    code = run_cli(["find-fair", "-i", ws["balanced"], "-c", ws["balanced_tr"]])
    # the trivial candidate is rejected as unusable, a usage-class error
    assert code == 2


def test_find_fair_success(ws, capsys):
    code = run_cli(["find-fair", "-i", ws["balanced"], "-c", ws["balanced_id"]])
    assert code == 0
    assert "found: true" in capsys.readouterr().out


def test_solve_integral_found_and_none(ws, capsys):
    assert run_cli(["solve-integral", "-i", ws["balanced"]]) == 0
    capsys.readouterr()
    assert run_cli(["solve-integral", "-i", ws["rigid"]]) == 1
    assert "status: none" in capsys.readouterr().out


def test_solve_integral_negative_tolerance_exit_two(ws, capsys):
    # every verdict is exact, so no command reads a tolerance: a usage error
    assert run_cli(["solve-integral", "-i", ws["rigid"], "--tolerance", "-1"]) == 2
    captured = capsys.readouterr()
    assert "error: unrecognized arguments: --tolerance -1\n" in captured.err and captured.out == ""


def test_reduce_and_verify(tmp_path, capsys):
    red = tmp_path / "red.json"
    assert run_cli(["reduce", "--weights", "1,2", "--target", "3", "-o", str(red)]) == 0
    capsys.readouterr()
    assert run_cli(["verify-reduction", "-r", str(red)]) == 0
    out = capsys.readouterr().out
    assert "agreement: true" in out
    assert "decoded_subset: [1, 2]" in out


def test_verify_tampered_rates_exit_two(tmp_path, capsys):
    red = tmp_path / "red.json"
    doc = reduced_to_doc(reduce_subset_sum(SubsetSumInstance((1, 2), 3)))
    doc["rate_structure"][0]["half_gap_squared"] = "1/97"
    red.write_text(dumps_doc(doc))
    assert run_cli(["verify-reduction", "-r", str(red)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: .rate_structure: ") and captured.out == ""


# `reduce --weights 1,2 --target 3` as written before reduction documents
# dropped their float images, `rates`
OLD_REDUCTION = (
    '{"version": "1", "kind": "reduction", "weights": [1, 2], "target": 3, "m": 2, "kept_indices": [1, 2], '
    '"dropped_indices": [], "scaled_weights": ["1/48", "1/24"], "required_pos_avg": "5/9", "rates": '
    '["0.23127126071736759", "0.4353954059492991", "0.5223290993692602", "0.81100423396407306", '
    '"0.33333333333333331", "0.66666666666666663"], "rate_structure": [{"center": "1/3", "half_gap_squared": '
    '"1/96", "sign": -1}, {"center": "1/3", "half_gap_squared": "1/96", "sign": 1}, {"center": "2/3", '
    '"half_gap_squared": "1/48", "sign": -1}, {"center": "2/3", "half_gap_squared": "1/48", "sign": 1}, '
    '{"center": "1/2", "half_gap_squared": "1/36", "sign": -1}, {"center": "1/2", "half_gap_squared": "1/36", '
    '"sign": 1}], "group1_mass": ["0", "0", "0", "0", "1/2", "1/2"], "group2_mass": ["1/4", "1/4", "1/4", '
    '"1/4", "0", "0"]}'
)


def test_a_document_with_float_rates_still_loads(tmp_path, capsys):
    # loading compares only the fields the construction writes, so the old
    # `rates` key is read past, and the verdicts are those of the new document
    ri = reduce_subset_sum(SubsetSumInstance((1, 2), 3))
    assert "rates" in json.loads(OLD_REDUCTION) and "rates" not in reduced_to_doc(ri)
    assert parse_reduced(OLD_REDUCTION) == ri
    seen = []
    for name, text in (("old", OLD_REDUCTION), ("new", dumps_doc(reduced_to_doc(ri)))):
        (tmp_path / name).write_text(text)
        code = run_cli(["verify-reduction", "-r", str(tmp_path / name), "--subset", "1,2"])
        seen.append((code, capsys.readouterr()))
    assert seen[0] == seen[1] and seen[0][0] == 0


def test_verify_unsolvable_exit_one(tmp_path, capsys):
    red = tmp_path / "red.json"
    assert run_cli(["reduce", "--weights", "2,3", "--target", "4", "-o", str(red)]) == 0
    capsys.readouterr()
    assert run_cli(["verify-reduction", "-r", str(red)]) == 1
    assert "agreement: true" in capsys.readouterr().out


def test_verify_subset_check(tmp_path, capsys):
    red = tmp_path / "red.json"
    run_cli(["reduce", "--weights", "1,2", "--target", "3", "-o", str(red)])
    capsys.readouterr()
    assert run_cli(["verify-reduction", "-r", str(red), "--subset", "1,2"]) == 0
    assert "equation_holds=true" in capsys.readouterr().out


def test_verify_disagreement_exit_two(tmp_path, capsys, monkeypatch):
    import riskaudit.reduction

    red = tmp_path / "red.json"
    assert run_cli(["reduce", "--weights", "1,2", "--target", "3", "-o", str(red)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(riskaudit.reduction, "search_normal_forms", lambda ri: None)
    assert run_cli(["verify-reduction", "-r", str(red)]) == 2
    out = capsys.readouterr().out
    assert "oracle_solvable: true" in out and "agreement: false" in out


def test_reduce_infeasible_exit_one(capsys):
    assert run_cli(["reduce", "--weights", "1", "--target", "1"]) == 1
    assert "infeasible" in capsys.readouterr().err


def test_reduce_names_dropped_weights_only_when_it_succeeds(capsys):
    assert run_cli(["reduce", "--weights", "5,1,2", "--target", "3"]) == 0
    assert capsys.readouterr().err == "warning: dropping weights above the target at positions [1]\n"
    # the kept weight (1,) alone cannot be embedded
    assert run_cli(["reduce", "--weights", "9,1", "--target", "1"]) == 1
    assert capsys.readouterr().err.startswith("infeasible: ")


def test_audit_text_is_read_off_its_documents(ws, capsys, monkeypatch):
    import riskaudit.cli
    from riskaudit.serialize import audit_doc

    audit = ["audit", "-i", ws["skewed"], "-a", ws["skewed_id"], "--eps", "1/10"]
    run_cli(audit)
    keys = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    # every field in order but the residual table, then the relaxed report's
    assert keys == [
        "calibration_ok", "expected_score_total", "pos_class_avg", "neg_class_avg", "balance_pos",
        "balance_neg", "parity_gap", "fair", "approx.epsilon", "approx.calibration_ok",
        "approx.balance_pos", "approx.balance_neg", "approx.passed", "approx.consequence.slack",
        "approx.consequence.near_perfect_prediction", "approx.consequence.near_equal_base_rates",
    ]
    # a field added to an audit record reaches the text with no edit to the command
    monkeypatch.setattr(riskaudit.cli, "audit_doc", lambda report: {**audit_doc(report), "added": "1/3"})
    run_cli(audit)
    lines = capsys.readouterr().out.splitlines()
    assert lines[8] == "added: 1/3" and lines[-1] == "approx.added: 1/3"


def test_theorem_sweep_requires_seed(ws, capsys):
    assert run_cli(["theorem-sweep", "-i", ws["balanced"]]) == 2
    assert "--seed" in capsys.readouterr().err


def test_options_only_where_read(ws, capsys):
    # each command takes only the options it reads
    audit = ["audit", "-i", ws["balanced"], "-a", ws["balanced_id"]]
    assert run_cli(audit) == 0
    for extra in (["--seed", "1"], ["--cap", "3"], ["--tolerance", "1/2"]):
        assert run_cli([*audit, *extra]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert run_cli(["solve-integral", "-i", ws["balanced"], "--seed", "1"]) == 2
    assert run_cli(["theorem-sweep", "-i", ws["balanced"], "--seed", "1", "--tolerance", "1/2"]) == 2


def test_theorem_sweep_deterministic_bytes(ws, capsys):
    argv = [
        "theorem-sweep",
        "-i", ws["skewed"],
        "--eps", "1/100",
        "--budget", "30",
        "--seed", "7",
        "--format", "json",
    ]
    assert run_cli(argv) == 0
    first = capsys.readouterr().out
    assert run_cli(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["seed"] == 7


def test_missing_file_exit_two(ws, capsys):
    assert run_cli(["audit", "-i", ws["dir"] + "/nope.json", "-a", ws["skewed_id"]]) == 2
    assert "error" in capsys.readouterr().err


def test_unknown_command_exit_two(capsys):
    assert run_cli(["frobnicate"]) == 2


def test_bad_rational_flag_exit_two(ws, capsys):
    assert run_cli(["audit", "-i", ws["skewed"], "-a", ws["skewed_id"], "--eps", "x"]) == 2


def test_mismatched_ids_exit_two(ws, capsys):
    # rigid has a third feature the two-feature instance lacks
    assert run_cli(["audit", "-i", ws["balanced"], "-a", ws["rigid_id"]]) == 2
    assert "error" in capsys.readouterr().err


def test_non_utf8_file_exit_two(tmp_path, capsys):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"kind": "instance", "note": "caf\xe9"}')
    assert run_cli(["validate", "-i", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(p) in err and "UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "counts_1,p,path",
    [
        ("1" * 5000, '"1/2"', ".features[0].counts.1"),  # beyond int's 4,300 digits
        ('"1"', "1e200000", ".features[0].p"),  # parses, but cannot be printed
        ('"1"', '"' + "1" * 5000 + '"', ".features[0].p"),  # a valid literal, too long
        ('"1"', "1e1000000", ".features[0].p"),  # refused before 10**1000000 is built
    ],
    ids=["long-integer", "huge-exponent", "long-string", "huger-exponent"],
)
def test_hostile_document_numbers_exit_two(tmp_path, capsys, counts_1, p, path):
    doc = tmp_path / "hostile.json"
    doc.write_text(
        '{"version": "1", "features": ['
        f'{{"id": "s1", "p": {p}, "counts": {{"1": {counts_1}, "2": "1"}}}}, '
        '{"id": "s2", "p": "1/4", "counts": {"1": "1", "2": "1"}}]}'
    )
    assert run_cli(["validate", "-i", str(doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "4300 digits" in err
    assert "Traceback" not in err and len(err.encode()) < 200


def test_hostile_argument_numbers_exit_two(ws, capsys):
    for eps in ("1e1000000", "1" * 5000):
        assert run_cli(["audit", "-i", ws["skewed"], "-a", ws["skewed_id"], "--eps", eps]) == 2
        line = capsys.readouterr().err.splitlines()[-1]
        assert "argument --eps: number with more than 4300 digits" in line and len(line.encode()) < 200


def test_report_values_past_the_digit_bound_exit_two(tmp_path, capsys):
    # a valid instance whose group masses need more than 4,300 digits: its
    # reports hold values that no int can be written as
    features = [{"id": fid, "p": f"1/{10**1000 + k}", "counts": {"1": "1", "2": "1"}}
                for fid, k in zip("abcde", (1, 3, 7, 9, 13))]
    inst = tmp_path / "long.json"
    inst.write_text(json.dumps({"version": "1", "features": features}))
    asg = tmp_path / "one_bin.json"
    one_bin = {"score": "1/2", "allocation": dict.fromkeys("abcde", "1")}
    asg.write_text(json.dumps({"version": "1", "bins": [one_bin]}))
    for argv in (["audit"], ["audit", "--eps", "1/10"], ["loss"]):
        for fmt in ("text", "json"):
            assert run_cli([*argv, "-i", str(inst), "-a", str(asg), "--format", fmt]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: a value with more than 4300 digits cannot be written\n"


def test_a_refused_command_writes_no_file(tmp_path, capsys):
    # group 1's positive class is empty, so the mix has no fairness difference
    inst = Instance((feature("a", 0, 1, 0), feature("b", F(1, 2), 0, 1)))
    i, a, out = tmp_path / "i.json", tmp_path / "a.json", tmp_path / "mix.json"
    i.write_text(dumps_doc(instance_to_doc(inst)))
    a.write_text(dumps_doc(assignment_to_doc(identity_assignment(inst))))
    assert run_cli(["interpolate", "-i", str(i), "-a", str(a), "-b", str(a), "-w", "1/2", "-o", str(out)]) == 2
    assert "nonempty positive class" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--weights", "2,3", "--target", "3"],
        ["interpolate", "-i", "{balanced}", "-a", "{balanced_id}", "-b", "{balanced_tr}", "-w", "1/2"],
        ["find-fair", "-i", "{balanced}", "-c", "{balanced_id}"],
    ],
    ids=["reduce", "interpolate", "find-fair"],
)
def test_an_empty_output_path_is_refused(ws, capsys, argv):
    # "" names no file that can be written; it is not the absence of --output
    for fmt in ("text", "json"):
        assert run_cli([arg.format(**ws) for arg in argv] + ["--format", fmt, "-o", ""]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""


def test_negative_cap_exit_two(ws, capsys):
    for argv in (["solve-integral", "-i", ws["rigid"]],
                 ["theorem-sweep", "-i", ws["skewed"], "--seed", "1"]):
        assert run_cli([*argv, "--cap", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "cap" in captured.err
        assert captured.out == ""


def test_oversized_integral_search_exit_two(tmp_path, capsys):
    # a valid 2,000-feature instance: refused by the enumeration guard, whose
    # message states the bound rather than the Bell number it would exceed
    inst = Instance(tuple(feature(f"f{i}", F(i % 3, 2), 1, i % 2) for i in range(2000)))
    path = tmp_path / "wide.json"
    path.write_text(dumps_doc(instance_to_doc(inst)))
    for argv in (["solve-integral", "-i", str(path)], ["theorem-sweep", "-i", str(path), "--seed", "1"]):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: 2000 items: more than 12 are enumerated only with a cap\n"
        assert captured.out == ""


def test_verify_bad_subset_exit_two(tmp_path, capsys):
    red = tmp_path / "red.json"
    run_cli(["reduce", "--weights", "1,2", "--target", "3", "-o", str(red)])
    capsys.readouterr()
    assert run_cli(["verify-reduction", "-r", str(red), "--subset", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "subset" in captured.err
    assert captured.out == ""


def test_verify_too_many_weights_exit_two(tmp_path, capsys):
    # 2**24 subsets to scan: refused by the search limit, not attempted
    red = tmp_path / "red.json"
    weights = ",".join(str(w) for w in range(1, 25))
    assert run_cli(["reduce", "--weights", weights, "--target", "1000", "-o", str(red)]) == 0
    capsys.readouterr()
    t0 = time.perf_counter()
    assert run_cli(["verify-reduction", "-r", str(red)]) == 2
    assert time.perf_counter() - t0 < 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "24 weights" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "weights,subset",
    [
        ("1,2,3,4,5,6,100,100,100,100,100,100,100", [1, 2, 3, 4]),
        ("100,100,100,100,100,100,100,1,2,3,4,5,6", [8, 9, 10, 11]),
    ],
    ids=["dropped-last", "dropped-first"],
)
def test_verify_scans_kept_weights_only(tmp_path, capsys, weights, subset):
    # 13 weights, 7 above the target: the oracle scans the 6 kept ones and
    # reports positions in the input
    red = tmp_path / "red.json"
    assert run_cli(["reduce", "--weights", weights, "--target", "10", "-o", str(red)]) == 0
    capsys.readouterr()
    assert run_cli(["verify-reduction", "-r", str(red), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["agreement"] and doc["oracle_subset"] == doc["decoded_subset"] == subset


@pytest.mark.parametrize("command,flag", [("validate", "-i"), ("solve-integral", "-i"), ("verify-reduction", "-r")])
def test_deep_nesting_exit_two(tmp_path, capsys, command, flag):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert run_cli([command, flag, str(deep)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: JSON nested too deeply"]
    assert captured.out == ""


def test_find_fair_one_sided_exit_one(ws, capsys):
    # rigid's identity favors group 1 strictly, and no candidate leans the other way
    assert run_cli(["find-fair", "-i", ws["rigid"], "-c", ws["rigid_id"]]) == 1
    assert capsys.readouterr().out == "found: false\n"
    assert run_cli(["find-fair", "-i", ws["rigid"], "-c", ws["rigid_id"], "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"found": False}


def test_find_fair_writes_or_prints_the_assignment(ws, tmp_path, capsys, balanced):
    out = tmp_path / "fair.json"
    assert run_cli(["find-fair", "-i", ws["balanced"], "-c", ws["balanced_id"], "-o", str(out)]) == 0
    assert capsys.readouterr().out == "found: true\n"
    written = json.loads(out.read_text())
    assert written == assignment_to_doc(identity_assignment(balanced))
    assert run_cli(["find-fair", "-i", ws["balanced"], "-c", ws["balanced_id"], "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"found": True, "assignment": written}


def test_reduce_bad_weights_exit_two(capsys):
    assert run_cli(["reduce", "--weights", "1,x", "--target", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: weights must be comma-separated integers\n" and captured.out == ""


def test_text_mode_without_output_prints_the_document(ws, capsys, rigid):
    assert run_cli(["reduce", "--weights", "1,2", "--target", "3"]) == 0
    assert capsys.readouterr().out == dumps_doc(reduced_to_doc(reduce_subset_sum(SubsetSumInstance((1, 2), 3))))
    assert run_cli(["interpolate", "-i", ws["rigid"], "-a", ws["rigid_id"], "-b", ws["rigid_tr"], "-w", "1/2"]) == 0
    mixed = interpolate(rigid, identity_assignment(rigid), trivial_assignment(rigid), F(1, 2))
    assert capsys.readouterr().out == dumps_doc(assignment_to_doc(mixed))


def test_verify_zero_tolerance_exit_two(tmp_path, capsys):
    # the base rates are decided on the surds, not on any rounded value: no
    # tolerance is read, and they are exactly 1/2
    red = tmp_path / "red.json"
    assert run_cli(["reduce", "--weights", "1,2", "--target", "3", "-o", str(red)]) == 0
    capsys.readouterr()
    assert run_cli(["verify-reduction", "-r", str(red), "--tolerance", "0"]) == 2
    assert "error: unrecognized arguments: --tolerance 0\n" in capsys.readouterr().err
    assert run_cli(["verify-reduction", "-r", str(red)]) == 0
    out = capsys.readouterr().out
    assert "embedded_base_rates_ok: true" in out and "agreement: true" in out


_CSV_HEADER = "feature_id,group,outcome\n"


@pytest.mark.parametrize(
    "argv,text,place",
    [
        (["validate", "-i", "{doc}"], '{"version": "1", "features": {}}', ".features: "),
        (["validate", "-i", "{doc}"], '{"version": "1", "features": [1]}', ".features[0]: "),
        (["validate", "-i", "{doc}"], '{"version": "1", "features": [{"id": "a", "p": "1/2", "counts": []}]}',
         ".features[0].counts: "),
        (["audit", "-i", "{balanced}", "-a", "{doc}"], '{"version": "1", "bins": []}', ".bins: "),
        (["audit", "-i", "{balanced}", "-a", "{doc}"], '{"version": "1", "bins": [1]}', ".bins[0]: "),
        (["audit", "-i", "{balanced}", "-a", "{doc}"], '{"version": "1", "bins": [{"score": "1", "allocation": []}]}',
         ".bins[0].allocation: "),
        (["verify-reduction", "-r", "{doc}"],
         '{"version": "1", "kind": "reduction", "weights": [1, 2], "target": "3"}', ".target: "),
        (["ingest", "-i", "{doc}", "-o", "{out}"], "", "empty CSV"),
        (["ingest", "-i", "{doc}", "-o", "{out}"], _CSV_HEADER + "a,1\n", "line 2: expected 3 columns"),
        (["ingest", "-i", "{doc}", "-o", "{out}"], _CSV_HEADER + " ,1,1\n", "line 2: empty feature id"),
        (["ingest", "-i", "{doc}", "-o", "{out}"], _CSV_HEADER + "a,one,1\n", "line 2: group must be 1 or 2"),
        (["ingest", "-i", "{doc}", "-o", "{out}"], _CSV_HEADER + "\n", "CSV contains no data rows"),
        (["ingest", "-i", "{doc}", "-o", "{out}"], _CSV_HEADER + "a,1,1\n" + "x" * 200_000 + ",2,0\n",
         "line 3: field larger than field limit"),
        (["ingest", "-i", "{doc}", "-o", "{out}"], _CSV_HEADER + '"a\nb",1,1\nc,3,1\n', "line 4: group must be 1 or 2"),
    ],
    ids=["features", "feature", "counts", "bins", "bin", "allocation", "target",
         "csv-empty", "csv-columns", "csv-feature-id", "csv-group", "csv-no-rows", "csv-long-field",
         "csv-multiline-field"],
)
def test_document_errors_name_their_place(ws, tmp_path, capsys, argv, text, place):
    doc = tmp_path / "doc"
    doc.write_text(text)
    paths = dict(ws, doc=str(doc), out=str(tmp_path / "out.json"))
    assert run_cli([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {place}") and captured.out == ""
    assert not os.path.exists(paths["out"])


def _python(*args):
    """A fresh interpreter that imports riskaudit from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def test_python_dash_m_runs_the_cli():
    proc = _python("-m", "riskaudit", "--help")
    assert proc.returncode == 0
    assert "usage: riskaudit" in proc.stdout


def _run_without_sympy(*argv):
    """`python -m riskaudit` in a fresh interpreter in which importing sympy
    fails."""
    prog = (
        "import runpy, sys; sys.modules['sympy'] = None; sys.argv[0] = 'riskaudit'; "
        "runpy.run_module('riskaudit', run_name='__main__')"
    )
    return _python("-c", prog, *argv)


def test_reduction_commands_need_no_sympy(tmp_path):
    solvable, unsolvable = tmp_path / "solvable.json", tmp_path / "unsolvable.json"
    runs = [
        (["reduce", "--weights", "3,2,5", "--target", "10", "-o", str(solvable)], 0),
        (["reduce", "--weights", "2,3,5", "--target", "6", "-o", str(unsolvable)], 0),
        (["reduce", "--weights", "1", "--target", "1"], 1),
        (["verify-reduction", "-r", str(solvable), "--subset", "1,2"], 0),
        (["verify-reduction", "-r", str(unsolvable)], 1),
    ]
    for argv, code in runs:
        proc = _run_without_sympy(*argv)
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.returncode == code, (argv, proc.stderr)


# -- what a process imports ----------------------------------------------------

_SEARCHES = {"solver", "sweep", "partitions", "reduction"}
# standard modules no command needs: `dataclasses` loads `inspect`, `ast`, `dis` and `tokenize`
_UNNEEDED = {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "argv, code, unloaded",
    [
        pytest.param(["validate", "-i", "{balanced}"], 0, _SEARCHES | {"audit", "loss"}, id="validate"),
        pytest.param(["ingest", "-i", "{csv}", "-o", "{dir}/ingested.json"], 0, _SEARCHES | {"audit", "loss"},
                     id="ingest"),
        pytest.param(["audit", "-i", "{balanced}", "-a", "{balanced_id}", "--eps", "1/10"], 0, _SEARCHES | {"loss"},
                     id="audit"),
        pytest.param(["loss", "-i", "{balanced}", "-a", "{balanced_id}"], 0, _SEARCHES, id="loss"),
        pytest.param(["interpolate", "-i", "{balanced}", "-a", "{balanced_id}", "-b", "{balanced_tr}", "-w", "1/2"],
                     0, _SEARCHES, id="interpolate"),
        pytest.param(["find-fair", "-i", "{balanced}", "-c", "{balanced_id}"], 0, _SEARCHES, id="find-fair"),
        pytest.param(["reduce", "--weights", "1,2", "--target", "3"], 0, {"solver", "sweep", "audit", "loss"},
                     id="reduce"),
        pytest.param(["verify-reduction", "-r", "{reduction}"], 0, {"solver", "sweep", "audit", "loss"},
                     id="verify-reduction"),
        pytest.param(["solve-integral", "-i", "{balanced}"], 0, {"sweep", "reduction"}, id="solve-integral"),
        pytest.param(["theorem-sweep", "-i", "{balanced}", "--seed", "0", "--budget", "10"], 0, {"reduction"},
                     id="theorem-sweep"),
    ],
)
def test_a_command_loads_only_the_modules_it_runs(ws, argv, code, unloaded):
    paths = dict(ws, csv=os.path.join(ws["dir"], "records.csv"), reduction=os.path.join(ws["dir"], "red.json"))
    Path(paths["csv"]).write_text("feature_id,group,outcome\na,1,1\na,2,0\n")
    Path(paths["reduction"]).write_text(dumps_doc(reduced_to_doc(reduce_subset_sum(SubsetSumInstance((1, 2), 3)))))
    prog = (
        "import sys; from riskaudit.cli import run_cli; code = run_cli(sys.argv[1:]); "
        f"print(*sorted(m for m in sys.modules if m.startswith('riskaudit.') or m in {_UNNEEDED!r}), file=sys.stderr); "
        "sys.exit(code)"
    )
    proc = _python("-c", prog, *(arg.format(**paths) for arg in argv))
    assert proc.returncode == code, proc.stderr
    loaded = {m.removeprefix("riskaudit.") for m in proc.stderr.splitlines()[-1].split()}
    assert {"cli", "errors", "model", "serialize"} <= loaded
    assert not loaded & (unloaded | _UNNEEDED)


# the package's exports: those of the package when every module was
# imported eagerly, and `search_groupings`
_EXPORTS = """
    ApproxAuditReport AuditReport ConsequenceFlags DEFAULT_MAX_ITEMS DegenerateGroupError
    DivergenceEntry DivergenceReport DocumentError DomainError FairnessDifference FeatureVector GROUPS
    GroupStats Instance InvalidAssignmentError InvalidInstanceError LossReport OBJECTIVES Partition
    Record RecordTable ReducedInstance ReductionInfeasibleError RiskAssignment RiskAuditError
    SCHEMA_VERSION SolveResult SubsetSumInstance SweepReport ValidationReport approx_audit_corpus
    as_fraction assignment_from_doc assignment_from_partition assignment_to_doc
    audit_approx audit_exact banded_split_assignment bell_number
    calibrated_split_assignment check_reduction_equation classify_consequence consequence_slack
    decode_partition derived_stats dumps_doc encode_solution enumerate_partitions fairness_difference
    feature find_fair_nontrivial identity_assignment ingest_records instance_from_doc instance_to_doc
    interpolate is_nontrivial is_normal_form loads_json loss normalize_assignment parse_assignment
    parse_instance parse_rational parse_reduced passes_fairness pooled_rounded_assignment
    random_equal_rate_instance random_gapped_instance random_instance random_perfect_instance
    random_proportional_instance records_from_csv reduce_subset_sum reduced_from_doc reduced_to_doc
    require_valid search_groupings search_normal_forms solve_integral solve_subset_sum
    target_lambda theorem_sweep trivial_assignment
    two_bin_certain_assignment validate_instance
""".split()


def test_every_export_has_a_stated_purpose():
    # the README's export table names each export once, beside the command
    # or paper result it serves or the reason it is kept
    import riskaudit

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public surface\n", 1)[1].split("\n## ", 1)[0]
    cells = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    names = [name for cell in cells for name in cell.replace(",", " ").split()]
    assert all(name[0] == name[-1] == "`" for name in names), names
    names = [name.strip("`") for name in names]
    assert len(names) == len(set(names)) and sorted(names) == riskaudit.__all__


def test_package_exports_resolve_on_first_use():
    import importlib

    import riskaudit

    assert len(_EXPORTS) == 86 and riskaudit.__all__ == _EXPORTS
    for module, names in riskaudit._EXPORTS.items():
        home = importlib.import_module(f"riskaudit.{module}")
        assert all(getattr(riskaudit, name) is getattr(home, name) for name in names), module
    assert set(_EXPORTS) <= set(dir(riskaudit))
    star: dict = {}
    exec("from riskaudit import *", star)
    assert star.keys() - {"__builtins__"} == set(_EXPORTS)
    with pytest.raises(AttributeError, match="no_such_name"):
        riskaudit.no_such_name
    # importing the submodule `riskaudit.loss` first leaves the name bound to the function
    proc = _python("-c", "import riskaudit.solver, riskaudit; print(riskaudit.loss.__module__, riskaudit.loss.__name__)")
    assert proc.stdout.split() == ["riskaudit.loss", "loss"], proc.stderr


# Every knob of the package: the parameter names of each exported callable
# ("-" where Python gives it no signature) and the long options of each
# command. Adding or removing one shows here as a reviewed diff.
_SIGNATURES = """
    ApproxAuditReport: epsilon calibration_ok balance_pos_ok balance_pos_vacuous balance_neg_ok
        balance_neg_vacuous passed consequence
    AuditReport: calibration_ok calibration_residuals expected_score_total pos_class_avg neg_class_avg
        balance_pos_ok balance_pos_vacuous balance_neg_ok balance_neg_vacuous parity_gap fair
    ConsequenceFlags: slack near_perfect_prediction near_equal_base_rates
    DegenerateGroupError: -
    DivergenceEntry: feature_id group group_rate deviation
    DivergenceReport: entries
    DocumentError: message path
    DomainError: -
    FairnessDifference: difference favors_group1 favors_group2
    FeatureVector: id p n1 n2
    GroupStats: population positive_mass base_rate
    Instance: features
    InvalidAssignmentError: -
    InvalidInstanceError: violations
    LossReport: per_group total
    Partition: blocks
    Record: feature_id group positive
    RecordTable: rows
    ReducedInstance: input_weights target kept_indices dropped_indices m scaled_weights required_pos_avg
        rates_exact group1_mass group2_mass _basis
    ReductionInfeasibleError: -
    RiskAssignment: feature_ids scores rows
    RiskAuditError: -
    SolveResult: status partition assignment loss_report explored pruned
    SubsetSumInstance: weights target
    SweepReport: seed epsilon budget base_rate_gap perfect_prediction integral_explored
        integral_complete fractional_explored exact_fair_count first_exact_fair exact_counterexample
        approx_pass_count approx_counterexample
    ValidationReport: ok violations
    approx_audit_corpus: eps seed
    as_fraction: value
    assignment_from_doc: doc
    assignment_from_partition: inst part
    assignment_to_doc: asg
    audit_approx: inst asg eps
    audit_exact: inst asg
    banded_split_assignment: inst rng eps
    bell_number: k
    calibrated_split_assignment: inst rng
    check_reduction_equation: ri part
    classify_consequence: inst asg eps
    consequence_slack: eps
    decode_partition: ri part
    derived_stats: inst
    dumps_doc: doc
    encode_solution: ri chosen
    enumerate_partitions: k cap
    fairness_difference: inst asg
    feature: fid p n1 n2
    find_fair_nontrivial: inst candidates
    identity_assignment: inst
    ingest_records: table
    instance_from_doc: doc
    instance_to_doc: inst
    interpolate: inst asg1 asg2 lam
    is_nontrivial: inst asg
    is_normal_form: ri part
    loads_json: text
    loss: inst asg
    normalize_assignment: inst asg
    parse_assignment: text
    parse_instance: text
    parse_rational: node path
    parse_reduced: text
    passes_fairness: inst asg
    pooled_rounded_assignment: inst rng
    random_equal_rate_instance: rng max_features
    random_gapped_instance: rng min_gap max_features
    random_instance: rng max_features
    random_perfect_instance: rng max_features
    random_proportional_instance: rng max_features
    records_from_csv: text
    reduce_subset_sum: ss
    reduced_from_doc: doc
    reduced_to_doc: ri
    require_valid: inst
    search_groupings: ri
    search_normal_forms: ri
    solve_integral: inst objective cap
    solve_subset_sum: ss
    target_lambda: d1 d2 d3
    theorem_sweep: inst search_budget eps seed integral_cap
    trivial_assignment: inst
    two_bin_certain_assignment: inst
    validate_instance: inst
"""
_COMMAND_OPTIONS = """
    ingest: --help --format --input --output
    validate: --help --format --instance
    audit: --help --format --instance --assignment --eps
    loss: --help --format --instance --assignment
    interpolate: --help --format --instance --first --second --weight --output
    find-fair: --help --format --instance --candidate --output
    solve-integral: --help --format --instance --objective --cap
    reduce: --help --format --weights --target --output
    verify-reduction: --help --format --reduction --subset
    theorem-sweep: --help --format --instance --eps --budget --seed --cap
"""


def _inventory(text: str) -> dict:
    entries: dict = {}
    for word in text.split():
        if word.endswith(":"):
            name = word[:-1]
            entries[name] = []
        else:
            entries[name].append(word)
    return {name: tuple(words) for name, words in entries.items()}


def _parameters(obj) -> tuple:
    try:
        return tuple(inspect.signature(obj).parameters)
    except ValueError:
        return ("-",)


def test_every_knob_is_pinned():
    import riskaudit
    from riskaudit.cli import build_parser

    exported = {name: getattr(riskaudit, name) for name in riskaudit.__all__}
    assert {name: _parameters(obj) for name, obj in exported.items() if callable(obj)} == _inventory(_SIGNATURES)
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    options = {
        name: tuple(opt for action in parser._actions for opt in action.option_strings if opt.startswith("--"))
        for name, parser in commands.items()
    }
    assert options == _inventory(_COMMAND_OPTIONS)


# -- the exit-code contract under arbitrary input ------------------------------

_BIG = "<big>"  # stands for a number past 4,300 digits, spliced in as text
_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(("1/2", "0", "1", "-1", "3/0", "1e-3", "1" * 50, _BIG))
)
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=12,
)
_RATIONAL = st.sampled_from(("1/2", "1", "1/3", "3/4", "2", 1, "0"))


def _perhaps_replace(draw, node: dict) -> None:
    # one draw in three replaces one field of `node` by an arbitrary leaf
    if draw(st.sampled_from((False, False, True))):
        node[draw(st.sampled_from(sorted(node)))] = draw(_LEAVES)


@st.composite
def _instances(draw):
    # features a, b, c with valid fields, then perhaps one field replaced
    features = [{"id": fid, "p": draw(_RATIONAL), "counts": {"1": draw(_RATIONAL), "2": draw(_RATIONAL)}}
                for fid in "abc"]
    _perhaps_replace(draw, features[draw(st.integers(0, 2))])
    return {"version": "1", "features": features}


# three pairwise coprime denominators of 1,501 digits: a group's positive
# mass, and so the reports, need more than 4,300 digits
_LONG = [10**1500 + k for k in (1, 3, 7)]


@st.composite
def _long_instances(draw):
    # features a, b, c, valid, with probabilities over the long denominators
    features = [{"id": fid, "p": f"{draw(st.integers(1, 9))}/{d}",
                 "counts": {"1": draw(_RATIONAL), "2": draw(_RATIONAL)}} for fid, d in zip("abc", _LONG)]
    return {"version": "1", "features": features}


@st.composite
def _assignments(draw):
    # each of a, b, c wholly in one bin, then perhaps one entry replaced
    nbins = draw(st.integers(1, 3))
    bins = [{"score": draw(_RATIONAL), "allocation": {}} for _ in range(nbins)]
    for fid in "abc":
        bins[draw(st.integers(0, nbins - 1))]["allocation"][fid] = "1"
    _perhaps_replace(draw, bins[0]["allocation"] or bins[0])
    return {"version": "1", "bins": bins}


@st.composite
def _reductions(draw):
    # a faithful reduction document, then perhaps one field replaced
    weights, target = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4)), draw(st.integers(1, 20))
    try:
        doc = reduced_to_doc(reduce_subset_sum(SubsetSumInstance(tuple(weights), target)))
    except RiskAuditError:
        doc = {"version": "1", "kind": "reduction", "weights": weights, "target": target}
    _perhaps_replace(draw, doc)
    return doc


def _document(tree) -> bytes:
    return json.dumps(tree).replace(json.dumps(_BIG), "1" * 5000).encode()


def _file(schema):
    return st.one_of(
        schema.map(_document),
        schema.map(_document),
        _TREES.map(_document),
        st.binary(max_size=40),
        st.integers(1, 50_000).map(lambda depth: b"[" * depth + b"]" * depth),
    )


_COMMANDS = {
    "validate": {"-i": _instances()},
    "audit": {"-i": _instances() | _long_instances(), "-a": _assignments()},
    "loss": {"-i": _instances() | _long_instances(), "-a": _assignments()},
    "solve-integral": {"-i": _instances()},
    "verify-reduction": {"-r": _reductions()},
}
# no option in two draws of three, so the documents are read
_OPTIONS = st.sampled_from((st.just([]), st.just([]), st.lists(st.tuples(
    st.sampled_from(("--format", "--cap", "--tolerance", "--seed", "--eps", "--subset", "--objective",
                     "-i", "-a", "-r")),
    st.sampled_from(("json", "text", "min-loss", "0", "3", "-1", "1/2", "1/10", "1,2", "x", "1e99999")),
), max_size=2))).flatmap(lambda options: options)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_cli_fuzz_keeps_the_exit_contract(data):
    command = data.draw(st.sampled_from(sorted(_COMMANDS)))
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for flag, schema in _COMMANDS[command].items():
            path = os.path.join(tmp, flag.strip("-") + ".json")
            with open(path, "wb") as fh:
                fh.write(data.draw(_file(schema)))
            argv += [flag, path]
        argv += [word for option in data.draw(_OPTIONS) for word in option]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


# -- the bytes every command writes --------------------------------------------

def _pinned_commands(ws: Path):
    """A fixed set of commands, each in both formats, on seeded documents
    written into `ws`: five instance families, each with its identity, a
    calibrated-split and a pooled assignment, plus an instance that
    `find-fair` mixes a fair assignment for, one whose mixes have no
    fairness difference, a records CSV and a reduction."""

    def put(name: str, text: str) -> str:
        (ws / name).write_text(text)
        return str(ws / name)

    families = (random_instance, random_gapped_instance, random_proportional_instance,
                random_equal_rate_instance, random_perfect_instance)
    commands = []
    for seed, family in enumerate(families):
        rng = random.Random(seed)
        inst = family(rng)
        i = put(f"i{seed}.json", dumps_doc(instance_to_doc(inst)))
        asgs = (identity_assignment(inst), calibrated_split_assignment(inst, rng),
                pooled_rounded_assignment(inst, rng))
        ident, split, pooled = (put(f"a{seed}{n}.json", dumps_doc(assignment_to_doc(a))) for n, a in enumerate(asgs))
        commands.append(["validate", "-i", i])
        for a in (ident, split, pooled):
            commands += [["audit", "-i", i, "-a", a], ["audit", "-i", i, "-a", a, "--eps", "1/10"]]
            commands.append(["loss", "-i", i, "-a", a])
        mix = ["interpolate", "-i", i, "-a", ident, "-b", split, "-w", "1/3"]
        commands += [mix, mix + ["-o", str(ws / f"mix{seed}.json")]]
        commands.append(["find-fair", "-i", i, "-c", split, "-c", ident])
        for options in (["--objective", "any-fair"], ["--objective", "min-loss"], ["--cap", "3"]):
            commands.append(["solve-integral", "-i", i, *options])
        for eps in ("0", "1/10"):
            commands.append(["theorem-sweep", "-i", i, "--eps", eps, "--budget", "200", "--seed", str(seed)])
    # identity favors group 1; pooling group 1's two features favors group 2
    inst = Instance((feature("a", 0, 1, 0), feature("c", 1, 1, 0), feature("d", 0, 0, 1), feature("e", 1, 0, 1),
                     feature("b", F(1, 2), 0, 2)))
    rows = [(1, 0, 0, 0)] * 2 + [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    pooled = RiskAssignment(inst.ids, (F(1, 2), 0, 1, F(1, 2)), rows)
    i = put("mixable.json", dumps_doc(instance_to_doc(inst)))
    find = ["find-fair", "-i", i, "-c", put("ident.json", dumps_doc(assignment_to_doc(identity_assignment(inst)))),
            "-c", put("pooled.json", dumps_doc(assignment_to_doc(pooled)))]
    commands += [find, find + ["-o", str(ws / "found.json")]]
    # group 1's positive class is empty, so the mix has no fairness difference
    inst = Instance((feature("a", 0, 1, 0), feature("b", F(1, 2), 0, 1)))
    i = put("empty.json", dumps_doc(instance_to_doc(inst)))
    a = put("empty_id.json", dumps_doc(assignment_to_doc(identity_assignment(inst))))
    commands.append(["interpolate", "-i", i, "-a", a, "-b", a, "-w", "1/2", "-o", str(ws / "empty_mix.json")])
    records = put("records.csv", "feature_id,group,outcome\na,1,1\na,2,0\nb,1,0\nb,2,1\nb,2,1\nc,1,1\n")
    commands.append(["ingest", "-i", records, "-o", str(ws / "ingested.json")])
    reduce = ["reduce", "--weights", "2,3,9,5", "--target", "7"]
    commands += [reduce, reduce + ["-o", str(ws / "reduction.json")]]
    commands.append(["verify-reduction", "-r", str(ws / "reduction.json"), "--subset", "1,4"])
    return [argv + ["--format", fmt] for argv in commands for fmt in ("text", "json")]


def _cli_digest(ws: Path) -> str:
    """sha256 over each pinned command's argv, exit code, stdout and stderr,
    with the workspace read as "<ws>", and the bytes of every file it writes
    (or that it writes none)."""
    digest = hashlib.sha256()
    for argv in _pinned_commands(ws):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
        seen = [argv, code, out.getvalue(), err.getvalue()]
        digest.update(repr(seen).replace(str(ws), "<ws>").encode())
        for path in (argv[k + 1] for k, word in enumerate(argv) if word == "-o"):
            digest.update(Path(path).read_bytes() if Path(path).exists() else b"<no file>")
    return digest.hexdigest()


def test_every_command_writes_the_pinned_bytes(tmp_path):
    # a change to what any command prints or writes changes this digest,
    # and is called out in CHANGES.md with its reason when the digest is updated
    assert _cli_digest(tmp_path) == "ac0ddace8cda4f8fd87ad36107a44c3649f19573fb011ad16b87d4d6c75514ca"
