"""Benchmark of riskaudit: three closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload audit-stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick

Run from the root of a checkout; the package is imported from its `src`
directory. One caller issues one operation at a time, with no threads, and
the `cli` workload starts its processes one after another. A run sets its
workload up several times (the median is `setup_s`), then runs whole rounds
of the workload's operations until `--seconds` have passed, checking every
output against the independent checkers in `reference.py`.

With `--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics. With `--trace 1` the run times the workload's
in-process rounds untraced and then traced, reports the difference as the
tracing overhead, runs one traced round of each other workload, and prints
every per-layer metric instead. `--quick` runs every workload and every check
at tiny sizes, traced and untraced, and exits 0 only if all of it is correct.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# these import no riskaudit module; the workloads do, so make() imports them
# once src is on the path
from rounds import latencies
from spans import Tracer
from speed import Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("audit-stream", "search", "cli")
# set-up repeats at least this often and this long; setup_s is the median
SETUP_REPEATS = 3
SETUP_MIN_S = 0.5
# hostile CLI inputs per round whose exit code breaks the contract today
QUICK_EXPECTED_FAILED = {"audit-stream": 0, "search": 0, "cli": 2}


def make(name: str, seed: int, quick: bool, workdir: Path):
    if name == "audit-stream":
        from audit_stream import AuditStream

        return AuditStream(seed, quick)
    if name == "search":
        from search import Search

        return Search(seed, quick)
    from cli_runs import Cli

    return Cli(seed, quick, SRC, workdir / name)


def measure(wl, tracer, speed, seconds: float, in_process: bool) -> list:
    """Whole rounds until `seconds` have passed, at least one."""
    rounds = []
    t0 = perf_counter()
    while not rounds or perf_counter() - t0 < seconds:
        rounds.append(wl.run_round(tracer, speed, in_process))
    return rounds


def round_seconds(rounds, kinds=None) -> float:
    """Median over rounds of the time a round spends in operations (of the
    given kinds)."""
    return statistics.median(sum(latencies([r], kinds)) for r in rounds)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # kilobytes on Linux


def warm_bytecode() -> None:
    """Compile the package's bytecode once, so no timed process pays for it."""
    subprocess.run([sys.executable, "-c", "import riskaudit.cli"], env=dict(os.environ, PYTHONPATH=str(SRC)),
                   check=True, timeout=120)


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path, quick: bool = False) -> dict:
    wl = make(name, seed, quick, workdir)
    speed = Speed()
    setup_times = []
    t0 = perf_counter()
    while len(setup_times) < SETUP_REPEATS or perf_counter() - t0 < SETUP_MIN_S:
        setup_times.append(speed.run(wl.setup)[1])
    if name == "cli":
        warm_bytecode()

    if not trace:
        rounds = measure(wl, Tracer(), speed, seconds, in_process=False)
        ordinary = [dt for r in rounds for kind, dt in r.ops if kind not in wl.slow_kinds]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "round_s": (round_seconds(rounds), "s"),
            "slow_round_s": (round_seconds(rounds, wl.slow_kinds), "s"),
            "op_p50_ms": (statistics.median(ordinary) * 1e3, "ms"),
        }
        named = wl.summary(rounds)
        problems = [p for r in rounds for p in r.problems]
    else:
        untraced = measure(wl, Tracer(), speed, seconds / 2, in_process=True)
        metrics, traced, problems = traced_pass(wl, speed, seconds / 2)
        overhead = (round_seconds(traced) / round_seconds(untraced) - 1) * 100
        metrics["trace.overhead_pct"] = (overhead, "%")
        rounds = untraced + traced
        problems += [p for r in untraced for p in r.problems]
        for other in WORKLOADS:
            if other != name:
                o = make(other, seed, quick, workdir)
                o.setup()
                more, _, more_problems = traced_pass(o, speed, 0)
                metrics.update(more)
                problems += more_problems
        named = {}

    failures = [f for r in rounds for f in r.failures]
    named["calibration_loop_us"] = (statistics.median(speed.samples) * 1e6, "us")
    report(name, seed, len(rounds), named, failures, problems)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_pass(wl, speed, seconds: float):
    """Traced in-process rounds of one workload, with its own tracer, and the
    per-layer metrics read from them."""
    tracer = Tracer(enabled=True)
    tracer.install()
    try:
        rounds = measure(wl, tracer, speed, seconds, in_process=True)
        metrics = wl.layers(tracer, rounds)
    finally:
        tracer.uninstall()
    return metrics, rounds, [p for r in rounds for p in r.problems]


def report(name, seed, n_rounds, named, failures, problems) -> None:
    print(f"workload {name} seed {seed}: {n_rounds} rounds")
    for key, (value, unit) in named.items():
        print(f"  {key} {value:.6g} {unit}")
    for why in sorted(set(failures)):
        print(f"  failed: {why}")
    for p in problems[:20]:
        print(f"  CHECK FAILED: {p}", file=sys.stderr)


def quick(workdir: Path) -> int:
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, 1, 0, trace, workdir, quick=True)
            rounds_failed = QUICK_EXPECTED_FAILED[name] * (1 if not trace else 2)
            good = result["correct"] and result["failed"] == rounds_failed
            ok = ok and good
            print(json.dumps({"workload": name, "trace": trace, "ok": good, **result}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="riskaudit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="every workload and check at tiny sizes")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required")

    if not (SRC / "riskaudit" / "__init__.py").is_file():
        print(f"error: no riskaudit package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import riskaudit.cli  # noqa: F401  loads every module before any tracer is installed

    if Path(riskaudit.cli.__file__).resolve().parent.parent != SRC.resolve():
        print(f"error: riskaudit was imported from {riskaudit.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = WORKDIR / str(os.getpid())
    try:
        if args.quick:
            return quick(workdir)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
