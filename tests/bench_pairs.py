"""Run the benchmark in alternating parent/change pairs and write a BENCH file.

Run from the repository root:

    python tests/bench_pairs.py PARENT_SHA --out BENCH_<n>.json \\
        [--extra-seed 263] [--claim search:round_s]

The change is HEAD. For every workload of BENCHMARK.json and each seed from
101 to 110, each side runs `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`, T being BENCHMARK.json's run_seconds, from its own
`git archive` extract of its commit, made in a fresh temporary directory and
removed afterwards. Every `__pycache__` directory in
the extract is removed before each run, and the runs get
PYTHONDONTWRITEBYTECODE=1, so neither side reads bytecode the other wrote.
The pairs alternate in order: the first pair of a workload runs the parent
first, the next the change first, and so on, one pair per seed. After the
pairs, one more pair per workload (parent first) runs on the extra seed,
which should be one not run while the change was written.

The file holds every run's last JSON line and, per workload and end-to-end
metric of BENCHMARK.json, each side's median and quartiles
(`statistics.quantiles`, method "exclusive"), the pairs the change won (read
better, same seed), and the change against the parent in percent of the
parent's median. Only the standard library is used; pytest does not collect
this file, and it is no part of tier-1.
"""
import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(101, 111))


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def extract(ref: str, into: Path) -> str:
    """Unpack `git archive` of `ref` into `into`; return the commit's sha."""
    sha = _git("rev-parse", "--verify", f"{ref}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", sha))) as tar:
        tar.extractall(into, filter="data")
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from `tree`, without bytecode; its last JSON line."""
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _pair(trees: dict, workload: str, seed: int, seconds: float, parent_first: bool) -> list[dict]:
    order = ("parent", "change") if parent_first else ("change", "parent")
    runs = []
    for side in order:
        result = run_once(trees[side], workload, seed, seconds)
        print(f"{workload} seed {seed} {side}: "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), file=sys.stderr)
        runs.append({"side": side, "seed": seed, "result": result})
    return runs


def _value(runs: list[dict], side: str, seed: int, metric: str) -> float:
    return next(r["result"]["metrics"][metric]["value"] for r in runs if r["side"] == side and r["seed"] == seed)


def _pct(change: float, parent: float) -> float:
    return round(100 * (change - parent) / parent, 2)


def summarize(runs: list[dict], seeds: list[int], metrics: dict) -> dict:
    """Per metric (name -> "lower" or "higher" is better): each side's median
    and quartiles, the pairs the change won, and its median against the
    parent's in percent."""
    out = {}
    for metric, better in metrics.items():
        sides = {side: [_value(runs, side, s, metric) for s in seeds] for side in ("parent", "change")}
        stats = {}
        for side, values in sides.items():
            q1, _, q3 = statistics.quantiles(values, n=4, method="exclusive")
            stats[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(sides["parent"], sides["change"]))
        out[metric] = {**stats, "change_wins": f"{wins} of {len(seeds)}",
                       "change_vs_parent_pct": _pct(stats["change"]["median"], stats["parent"]["median"])}
    out["correct"] = all(r["result"]["correct"] for r in runs)
    out["failed"] = {side: sum(r["result"]["failed"] for r in runs if r["side"] == side)
                     for side in ("parent", "change")}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent commit")
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_<n>.json file to write")
    parser.add_argument("--extra-seed", default=263, type=int)
    parser.add_argument("--claim", default=None, help="the claimed gain, as WORKLOAD:METRIC, for the description")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        shas = {side: extract(ref, trees[side]) for side, ref in (("parent", args.parent), ("change", "HEAD"))}
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
        seconds = bench["run_seconds"]
        doc = {
            "description": (
                f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, run on "
                "the parent commit and on the change, each from its own git archive extract, in alternating "
                "order (the first pair runs the parent first, the next the change first, and so on), seeds "
                f"{SEEDS[0]}-{SEEDS[-1]} for every workload, with PYTHONDONTWRITEBYTECODE=1 after every "
                "__pycache__ directory in the extract was removed; then one more pair per workload (parent "
                f"first) on seed {args.extra_seed}, a seed not run while the change was written, under "
                "extra_pair. Each entry is the run's last JSON line; quartiles are "
                "statistics.quantiles(method=\"exclusive\"); change_wins counts the pairs (same seed) in which "
                "the change read better. "
                + (f"Claimed gain: {args.claim.replace(':', ' ')}. " if args.claim else "No gain claimed. ")
                + "Timings are process-local: the machine's file cache was not dropped, no CPU was pinned, "
                "and other processes shared the host. Written by tests/bench_pairs.py."
            ),
            "parent_sha": shas["parent"],
            "change_sha": shas["change"],
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "seconds": seconds,
            "workloads": {},
        }
        for workload in (w["name"] for w in bench["workloads"]):
            runs = []
            for i, seed in enumerate(SEEDS):
                runs += _pair(trees, workload, seed, seconds, parent_first=i % 2 == 0)
            extra = _pair(trees, workload, args.extra_seed, seconds, parent_first=True)
            doc["workloads"][workload] = {
                "runs": runs,
                "summary": summarize(runs, SEEDS, metrics),
                "extra_pair": {
                    "seed": args.extra_seed,
                    "runs": extra,
                    "change_vs_parent_pct": {
                        m: _pct(_value(extra, "change", args.extra_seed, m), _value(extra, "parent", args.extra_seed, m))
                        for m in metrics
                    },
                },
            }
            args.out.write_text(json.dumps(doc, indent=1) + "\n")  # kept after each workload
    return 0


if __name__ == "__main__":
    sys.exit(main())
