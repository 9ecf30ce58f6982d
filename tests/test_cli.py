"""End-to-end checks of the command-line surface.

Each command runs in process through run_cli so exit codes and streams are
observable without spawning an interpreter.
"""
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from riskaudit import (
    assignment_to_doc,
    dumps_doc,
    identity_assignment,
    instance_to_doc,
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


def test_reduce_and_verify(tmp_path, capsys):
    red = tmp_path / "red.json"
    assert run_cli(["reduce", "--weights", "1,2", "--target", "3", "-o", str(red)]) == 0
    capsys.readouterr()
    assert run_cli(["verify-reduction", "-r", str(red)]) == 0
    out = capsys.readouterr().out
    assert "agreement: true" in out
    assert "decoded_subset: [1, 2]" in out


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


def test_reduce_infeasible_exit_one(capsys):
    assert run_cli(["reduce", "--weights", "1", "--target", "1"]) == 1
    assert "infeasible" in capsys.readouterr().err


def test_theorem_sweep_requires_seed(ws, capsys):
    assert run_cli(["theorem-sweep", "-i", ws["balanced"]]) == 2
    assert "--seed" in capsys.readouterr().err


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


def test_verify_bad_subset_exit_two(tmp_path, capsys):
    red = tmp_path / "red.json"
    run_cli(["reduce", "--weights", "1,2", "--target", "3", "-o", str(red)])
    capsys.readouterr()
    assert run_cli(["verify-reduction", "-r", str(red), "--subset", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "subset" in captured.err
    assert captured.out == ""


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "riskaudit", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert "usage: riskaudit" in proc.stdout
