"""The whole benchmark at tiny sizes, so a broken benchmark shows without a
full run. Run with `python -m pytest perfbench`."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_quick_mode_runs_every_workload_and_check():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick"], capture_output=True, text=True,
                          cwd=HERE.parent, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert {(r["workload"], r["trace"]) for r in results} == {
        (w, t) for w in ("audit-stream", "search", "cli") for t in (False, True)
    }
    for r in results:
        assert r["ok"] and r["correct"] and r["attempted"] >= 1
        assert all(m["value"] == m["value"] for m in r["metrics"].values())  # no NaN
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for r in results:
        group = "per_layer" if r["trace"] else "end_to_end"
        assert {m: v["unit"] for m, v in r["metrics"].items()} == {m["name"]: m["unit"] for m in declared[group]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "search",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
