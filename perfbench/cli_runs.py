"""Workload `cli`: every command of the command line, one after another.

Each command runs as its own process, started as
`python -c "from riskaudit.cli import main; main()"` on small seeded
documents, so interpreter start, package and sympy imports, argument and
document parsing and rendering dominate. Two hostile inputs ride along; the
exit-code contract asks for exit 2 with an error line on both, and each
counts as a failed operation while it does anything else.
"""
from __future__ import annotations

import io
import json
import os
import statistics
import subprocess
import sys
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from time import perf_counter
from typing import Callable

import riskaudit.cli as ra_cli
import riskaudit.reduction as ra_reduction
import riskaudit.serialize as ra_serialize

import inputs
import reference
from rounds import RoundResult, latencies

ENTRY = "from riskaudit.cli import main; main()"
REDUCTION_COMMANDS = ("reduce", "verify-reduction")
TIMEOUT_S = 120


@dataclass
class Command:
    name: str
    args: list[str]
    check: Callable[[int, str, str], list[str]]
    hostile: bool = False


def instance_doc(specs) -> dict:
    return {"version": "1", "features": [
        {"id": fid, "p": str(p), "counts": {"1": str(n1), "2": str(n2)}}
        for fid, (p, n1, n2) in zip(inputs.ids(len(specs)), specs)
    ]}


def assignment_doc(scores, rows) -> dict:
    fids = inputs.ids(len(rows))
    return {"version": "1", "bins": [
        {"score": str(v), "allocation": {fid: str(row[b]) for fid, row in zip(fids, rows)}}
        for b, v in enumerate(scores)
    ]}


def read_assignment(doc: dict, k: int):
    """(scores, rows in feature order) of an assignment document."""
    scores = [Fraction(b["score"]) for b in doc["bins"]]
    rows = [[Fraction(b["allocation"].get(fid, "0")) for b in doc["bins"]] for fid in inputs.ids(k)]
    return scores, rows


def _q(x):
    return None if x is None else Fraction(x)


def _audit_doc_problems(doc: dict, ref: reference.RefAudit) -> list[str]:
    got = {
        "calibration_ok": doc["calibration_ok"],
        "calibration_residuals": tuple(tuple(map(Fraction, g)) for g in doc["calibration_residuals"]),
        "expected_score_total": tuple(map(Fraction, doc["expected_score_total"])),
        "pos_class_avg": tuple(map(_q, doc["pos_class_avg"])),
        "neg_class_avg": tuple(map(_q, doc["neg_class_avg"])),
        "balance_pos_ok": doc["balance_pos"]["ok"],
        "balance_pos_vacuous": doc["balance_pos"]["vacuous"],
        "balance_neg_ok": doc["balance_neg"]["ok"],
        "balance_neg_vacuous": doc["balance_neg"]["vacuous"],
        "parity_gap": Fraction(doc["parity_gap"]),
        "fair": doc["fair"],
    }
    return [f"audit {k} is {v!r}, reference {getattr(ref, k)!r}" for k, v in got.items() if v != getattr(ref, k)]


def _exit(code: int, want: int) -> list[str]:
    return [] if code == want else [f"exit {code}, contract says {want}"]


class Cli:
    name = "cli"
    slow_kinds = REDUCTION_COMMANDS

    def __init__(self, seed: int, quick: bool, src: Path, workdir: Path) -> None:
        self.seed = seed
        self.probe_repeats = 1 if quick else 5  # the documents are small in either case
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def _write(self, name: str, content) -> str:
        path = self.workdir / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content if isinstance(content, str) else json.dumps(content, indent=1))
        return str(path)

    def setup(self) -> None:
        rng = Random(f"cli/{self.seed}")
        self.workdir.mkdir(parents=True, exist_ok=True)
        cmds: list[Command] = []

        specs = inputs.gapped_specs(rng, 5)
        inst = self._write("inst.json", instance_doc(specs))
        cmds.append(Command("validate", ["validate", "-i", inst],
                            lambda c, out, err: _exit(c, 0) + ([] if out.startswith("ok: true") else ["validate did not say ok"])))

        cmds.append(self._ingest(rng))

        eps = rng.choice(inputs.EPSILONS)
        scores, rows = inputs.split_assignment(rng, specs, eps)
        asg = self._write("banded.json", assignment_doc(scores, rows))
        ref = reference.reference_audit(specs, scores, rows)
        ref_approx = reference.reference_approx(ref, scores, eps)

        def check_audit(code, out, err):
            doc = json.loads(out)
            return _exit(code, 0 if ref.fair else 1) + _audit_doc_problems(doc["audit"], ref)

        def check_audit_eps(code, out, err):
            doc = json.loads(out)
            a = doc["approx"]
            got = (a["calibration_ok"], a["balance_pos"]["ok"], a["balance_pos"]["vacuous"],
                   a["balance_neg"]["ok"], a["balance_neg"]["vacuous"], a["passed"])
            want = (ref_approx.calibration_ok, ref_approx.balance_pos_ok, ref_approx.balance_pos_vacuous,
                    ref_approx.balance_neg_ok, ref_approx.balance_neg_vacuous, ref_approx.passed)
            problems = _exit(code, 0 if ref_approx.passed else 1) + _audit_doc_problems(doc["audit"], ref)
            return problems + ([] if got == want else [f"relaxed audit {got}, reference {want}"])

        def check_loss(code, out, err):
            doc = json.loads(out)
            got = (tuple(map(Fraction, doc["per_group"])), Fraction(doc["total"]))
            want = (ref.loss_per_group, ref.loss_total)
            return _exit(code, 0) + ([] if got == want else [f"loss {got}, reference {want}"])

        cmds.append(Command("audit", ["audit", "-i", inst, "-a", asg, "--format", "json"], check_audit))
        cmds.append(Command("audit-eps", ["audit", "-i", inst, "-a", asg, "--eps", str(eps), "--format", "json"],
                            check_audit_eps))
        cmds.append(Command("loss", ["loss", "-i", inst, "-a", asg, "--format", "json"], check_loss))

        cmds.append(self._interpolate(rng, specs, inst))
        cmds.append(self._find_fair(rng))

        solve_specs = inputs.gapped_specs(rng, 5)
        solve_inst = self._write("solve.json", instance_doc(solve_specs))

        def check_solve(code, out, err):
            doc = json.loads(out)
            problems = _exit(code, 1)
            if doc["status"] != "none" or doc["explored"] != reference.bell(5):
                problems.append(f"status {doc['status']} after {doc['explored']}; expected none after {reference.bell(5)}")
            return problems

        cmds.append(Command("solve-integral", ["solve-integral", "-i", solve_inst, "--format", "json"], check_solve))

        sweep_inst = self._write("sweep.json", instance_doc(inputs.gapped_specs(rng, 4)))
        sweep_args = ["theorem-sweep", "-i", sweep_inst, "--seed", str(rng.randrange(1 << 31)),
                      "--budget", "200", "--eps", "1/1000"]
        code, expected, _ = self._in_process(sweep_args)

        def check_sweep(code, out, err):
            problems = _exit(code, 0)
            if out != expected:
                problems.append("seeded theorem-sweep output differs from the same command run in-process")
            return problems

        cmds.append(Command("theorem-sweep", sweep_args, check_sweep))

        # both reduction commands on a solvable and an unsolvable instance:
        # both exit codes every round, and the slow class twice the samples
        for solvable in (True, False):
            cmds.append(self._reduce(rng, solvable))
        for solvable in (True, False):
            cmds.append(self._verify(rng, solvable))

        # the hostile inputs are the same on every seed
        fixed = self._reduction_doc("reduction-fixed.json", (1, 2), 3)
        cmds.append(Command("verify-reduction-bad-subset", ["verify-reduction", "-r", fixed, "--subset", "x"],
                            _hostile, hostile=True))
        two_features = [(Fraction(1, 2), Fraction(2), Fraction(0)), (Fraction(1, 4), Fraction(0), Fraction(4))]
        bad = self._write("not-utf8.json", b"\xff\xfe" + json.dumps(instance_doc(two_features)).encode("utf-16-le"))
        cmds.append(Command("validate-not-utf8", ["validate", "-i", bad], _hostile, hostile=True))
        self.commands = cmds

    def _ingest(self, rng: Random) -> Command:
        rows, counts = ["feature_id,group,outcome"], {}
        for f in range(5):
            for group in (1, 2):
                for _ in range(rng.randint(1, 6)):
                    outcome = rng.random() < 0.4
                    rows.append(f"f{f + 1},{group},{int(outcome)}")
                    n, pos = counts.get((f, group), (0, 0))
                    counts[(f, group)] = (n + 1, pos + outcome)
        deviation = []
        for f in range(5):
            n = sum(counts[(f, g)][0] for g in (1, 2))
            pooled = Fraction(sum(counts[(f, g)][1] for g in (1, 2)), n)
            deviation += [abs(Fraction(counts[(f, g)][1], counts[(f, g)][0]) - pooled) for g in (1, 2)]
        csv = self._write("records.csv", "\n".join(rows) + "\n")
        out_path = str(self.workdir / "ingested.json")

        def check(code, out, err):
            doc = json.loads(out)
            got = [Fraction(e["deviation"]) for e in doc["entries"]]
            problems = _exit(code, 0)
            if got != deviation or Fraction(doc["max_deviation"]) != max(deviation):
                problems.append(f"deviations {got}, reference {deviation}")
            return problems

        return Command("ingest", ["ingest", "-i", csv, "-o", out_path, "--format", "json"], check)

    def _interpolate(self, rng: Random, specs, inst: str) -> Command:
        first = inputs.identity_assignment(specs)
        second = inputs.split_assignment(rng, specs)
        a = self._write("identity.json", assignment_doc(*first))
        b = self._write("split.json", assignment_doc(*second))
        w = Fraction(rng.randint(1, 7), 8)
        diffs = []
        for scores, rows in (first, second):
            avg = reference.reference_audit(specs, scores, rows).pos_class_avg
            diffs.append(avg[0] - avg[1])
        want = w * diffs[0] + (1 - w) * diffs[1]

        def check(code, out, err):
            doc = json.loads(out)
            ref = reference.reference_audit(specs, *read_assignment(doc["assignment"], len(specs)))
            problems = _exit(code, 0)
            if Fraction(doc["difference"]["difference"]) != want:
                problems.append(f"difference {doc['difference']['difference']}, linear in the weight: {want}")
            if not ref.calibration_ok or ref.pos_class_avg[0] - ref.pos_class_avg[1] != want:
                problems.append("interpolated assignment is not calibrated at the expected difference")
            return problems

        return Command("interpolate", ["interpolate", "-i", inst, "-a", a, "-b", b, "-w", str(w),
                                       "--format", "json"], check)

    def _find_fair(self, rng: Random) -> Command:
        specs = inputs.equal_rate_specs(rng, 5)
        inst = self._write("equal-rate.json", instance_doc(specs))
        candidates = [inputs.identity_assignment(specs), inputs.split_assignment(rng, specs)]
        paths, diffs = [], []
        for j, (scores, rows) in enumerate(candidates):
            paths += ["-c", self._write(f"candidate{j}.json", assignment_doc(scores, rows))]
            avg = reference.reference_audit(specs, scores, rows).pos_class_avg
            diffs.append(avg[0] - avg[1])
        findable = 0 in diffs or (max(diffs) > 0 > min(diffs))

        def check(code, out, err):
            doc = json.loads(out)
            problems = _exit(code, 0 if findable else 1)
            if doc["found"] != findable:
                problems.append(f"found {doc['found']}, candidates' differences {diffs}")
            elif findable:
                ref = reference.reference_audit(specs, *read_assignment(doc["assignment"], len(specs)))
                if not (ref.fair and ref.nontrivial):
                    problems.append("found assignment is not fair and non-trivial by the reference audit")
            return problems

        return Command("find-fair", ["find-fair", "-i", inst, *paths, "--format", "json"], check)

    def _reduce(self, rng: Random, solvable: bool) -> Command:
        weights, target = inputs.subset_sum(rng, 3, solvable)
        g = reference.required_pos_avg(weights, target)

        def check(code, out, err):
            doc = json.loads(out)
            problems = _exit(code, 0)
            if Fraction(doc["required_pos_avg"]) != g or doc["m"] != len(weights):
                problems.append(f"required_pos_avg {doc['required_pos_avg']}, closed form {g}")
            return problems

        return Command("reduce", ["reduce", "--weights", ",".join(map(str, weights)), "--target", str(target),
                                  "--format", "json"], check)

    def _reduction_doc(self, name: str, weights, target: int) -> str:
        """Write the program's reduction document for a subset-sum instance."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ri = ra_reduction.reduce_subset_sum(ra_reduction.SubsetSumInstance(weights, target))
        return self._write(name, ra_serialize.dumps_doc(ra_serialize.reduced_to_doc(ri)))

    def _verify(self, rng: Random, solvable: bool) -> Command:
        weights, target = inputs.subset_sum(rng, 3, solvable)
        path = self._reduction_doc(f"reduction-{solvable}.json", weights, target)
        hits = reference.subsets_hitting(weights, target)
        subset = sorted(rng.sample(range(1, len(weights) + 1), rng.randint(1, len(weights))))
        holds = sum(weights[i - 1] for i in subset) == target

        def check(code, out, err):
            doc = json.loads(out)
            problems = _exit(code, 0 if hits else 1)
            if doc["witness_found"] != bool(hits) or doc["oracle_solvable"] != bool(hits):
                problems.append(f"witness {doc['witness_found']}, oracle {doc['oracle_solvable']}; brute force finds {hits}")
            if doc["decoded_subset"] is not None and frozenset(doc["decoded_subset"]) not in hits:
                problems.append(f"decoded subset {doc['decoded_subset']} misses the target")
            if doc["subset_check"]["equation_holds"] != holds:
                problems.append(f"equation for subset {subset}: {doc['subset_check']['equation_holds']}, brute force {holds}")
            return problems

        return Command("verify-reduction", ["verify-reduction", "-r", path, "--subset", ",".join(map(str, subset)),
                                            "--format", "json"], check)

    def _in_process(self, args, tracer=None, span: str = "cli"):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                if tracer is None:
                    code = ra_cli.run_cli(args)
                else:
                    with tracer.span(span):
                        code = ra_cli.run_cli(args)
            except Exception:  # the exit-code contract is judged by the caller
                traceback.print_exc()
                code = None
        return code, out.getvalue(), err.getvalue()

    def _subprocess(self, args):
        try:
            proc = subprocess.run([sys.executable, "-c", ENTRY, *args], capture_output=True, text=True,
                                  env=self.env, cwd=self.workdir, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:  # the child is killed; the command failed
            return None, "", f"timed out after {TIMEOUT_S} s"
        return proc.returncode, proc.stdout, proc.stderr

    def run_round(self, tracer, speed, in_process: bool = False) -> RoundResult:
        res = RoundResult()
        for cmd in self.commands:
            res.attempted += 1
            before = speed.begin()
            t0 = perf_counter()
            if in_process:
                code, out, err = self._in_process(cmd.args, tracer, cmd.name)
            else:
                code, out, err = self._subprocess(cmd.args)
            dt = (perf_counter() - t0) * speed.factor(before)
            if cmd.hostile:
                problems = cmd.check(code, out, err)
                if problems:
                    res.fail(f"{cmd.name}: {'; '.join(problems)}")
                continue
            if code is None or "Traceback (most recent call last)" in err:
                res.fail(f"{cmd.name}: crashed: {err.strip().splitlines()[-1:]}")
                continue
            res.ops.append((cmd.name, dt))
            try:
                res.problems += [f"{cmd.name}: {p}" for p in cmd.check(code, out, err)]
            except (ValueError, KeyError, TypeError) as exc:
                res.problems.append(f"{cmd.name}: unreadable output ({exc!r}): {out[:200]!r}")
        return res

    def summary(self, rounds: list[RoundResult]) -> dict[str, tuple[float, str]]:
        light = [c.name for c in self.commands if not c.hostile and c.name not in REDUCTION_COMMANDS]
        return {
            "cli_p50_ms": (statistics.median(latencies(rounds, light)) * 1e3, "ms"),
            "cli_reduction_ms": (statistics.median(latencies(rounds, REDUCTION_COMMANDS)) * 1e3, "ms"),
        }

    def layers(self, tracer, rounds: list[RoundResult]) -> dict[str, tuple[float, str]]:
        out = {}
        for cmd in self.commands:
            if not cmd.hostile:
                out[f"cli.run_cli.{cmd.name}.ms"] = (statistics.median(latencies(rounds, [cmd.name])) * 1e3, "ms")
        for name in ("serialize.parse_instance", "serialize.parse_assignment", "serialize.dumps_doc"):
            out[f"{name}.us"] = (tracer.mean_us(name), "us")
        for name in ("serialize.parse_reduced", "reduction.reduce_subset_sum", "reduction.search_normal_forms"):
            out[f"{name}.ms"] = (tracer.mean_us(name) / 1e3, "ms")
        out.update(self._probes())
        return out

    def _probes(self) -> dict[str, tuple[float, str]]:
        """Costs only a fresh process shows: interpreter start, the package
        import, and the first reduction, whose sympy import is lazy."""

        def run(code: str) -> str:
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env=self.env, cwd=self.workdir, timeout=TIMEOUT_S, check=True)
            return proc.stdout

        startup = []
        for _ in range(self.probe_repeats):
            t0 = perf_counter()
            run("pass")
            startup.append(perf_counter() - t0)
        clock = "from time import perf_counter as c; t = c(); "
        imports = [float(run(clock + "import riskaudit.cli; print(c() - t)")) for _ in range(self.probe_repeats)]
        first_use = [float(run(
            "import riskaudit.reduction as r, riskaudit.partitions as p; " + clock +
            "ri = r.reduce_subset_sum(r.SubsetSumInstance((1, 2, 3), 3)); "
            "r.check_reduction_equation(ri, p.Partition.from_blocks([(1, 3), (2,), (4,), (5,), (6,)])); "
            "print(c() - t)")) for _ in range(self.probe_repeats)]
        return {
            "cli.python_startup_ms": (statistics.median(startup) * 1e3, "ms"),
            "cli.import_ms": (statistics.median(imports) * 1e3, "ms"),
            "reduction.first_use_ms": (statistics.median(first_use) * 1e3, "ms"),
        }


def _hostile(code, out, err) -> list[str]:
    problems = []
    if code != 2:
        problems.append(f"exit {code}, contract says 2")
    if "Traceback (most recent call last)" in err:
        problems.append("traceback: " + err.strip().splitlines()[-1])
    if not any(line.startswith("error") for line in err.splitlines()):
        problems.append("no error line")
    return problems
