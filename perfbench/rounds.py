"""What one round of a workload returns, and the helpers the workloads share."""
from __future__ import annotations

from dataclasses import dataclass, field

import reference


@dataclass
class RoundResult:
    """One round: the kind and latency of every operation that did not fail,
    the operation counts, the problems the checks found in the outputs, why each
    failed operation failed, and named sums of work and time that a workload
    reports under its own names."""

    ops: list[tuple[str, float]] = field(default_factory=list)  # (kind, seconds)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    figures: dict[str, float] = field(default_factory=dict)

    def fail(self, why: str) -> None:
        self.failed += 1
        self.failures.append(why)

    def add(self, name: str, value: float) -> None:
        self.figures[name] = self.figures.get(name, 0.0) + value


def program_view(inst, asg):
    """The instance as specs and the assignment's rows in instance order,
    read from the program's objects for the reference audit."""
    specs = [(f.p, f.n1, f.n2) for f in inst.features]
    index = {fid: i for i, fid in enumerate(asg.feature_ids)}
    rows = [asg.rows[index[f.id]] for f in inst.features]
    return specs, list(asg.scores), rows


def compare_audit(label: str, report, ref: reference.RefAudit) -> list[str]:
    """Field-for-field comparison of an exact audit report with the reference."""
    problems = []
    for name in (
        "calibration_ok", "calibration_residuals", "expected_score_total", "pos_class_avg",
        "neg_class_avg", "balance_pos_ok", "balance_pos_vacuous", "balance_neg_ok",
        "balance_neg_vacuous", "parity_gap", "fair",
    ):
        got, want = getattr(report, name), getattr(ref, name)
        if got != want:
            problems.append(f"{label}: audit {name} is {got!r}, reference {want!r}")
    return problems


def latencies(rounds, kinds=None) -> list[float]:
    return [dt for r in rounds for kind, dt in r.ops if kinds is None or kind in kinds]
