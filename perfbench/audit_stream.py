"""Workload `audit-stream`: a seeded stream of distinct audit requests.

A request is one (instance, assignment, eps) triple audited once:
`audit_exact`, then `audit_approx` at eps, then `loss`. No triple is used
twice in a run, so whatever the program derives per instance (validation,
group statistics, any compiled form or cache) is paid on every request.
"""
from __future__ import annotations

import importlib
import statistics
from collections import deque
from random import Random
from time import perf_counter

import riskaudit.audit as ra_audit

# the package re-exports the function `loss` under the submodule's name
ra_loss = importlib.import_module("riskaudit.loss")

import inputs
import reference
from rounds import RoundResult, compare_audit, latencies

CALIBRATED_KINDS = ("calibrated", "identity")


class AuditStream:
    name = "audit-stream"
    # requests on instances with large denominators: float-derived and
    # record-ingested probabilities
    slow_kinds = ("float", "ingested")

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.per_round = 20 if quick else 40
        self.pool_rounds = 1 if quick else 5

    def setup(self) -> None:
        # the pool is the first stretch of the stream, one block per round; a
        # long run extends it from the same generator between rounds, outside
        # the timed region
        self.rng = Random(f"audit-stream/{self.seed}")
        self.pool = deque(inputs.stream_block(self.rng, self.per_round) for _ in range(self.pool_rounds))

    def _take(self) -> list[inputs.Triple]:
        return self.pool.popleft() if self.pool else inputs.stream_block(self.rng, self.per_round)

    def run_round(self, tracer, speed, in_process: bool = False) -> RoundResult:
        res = RoundResult()
        before = speed.begin()
        for tr in self._take():
            res.attempted += 1
            try:
                with tracer.span("request"):
                    t0 = perf_counter()
                    exact = ra_audit.audit_exact(tr.inst, tr.asg)
                    approx = ra_audit.audit_approx(tr.inst, tr.asg, tr.eps)
                    lossr = ra_loss.loss(tr.inst, tr.asg)
                    dt = perf_counter() - t0
            except Exception as exc:  # a failed request is counted, not fatal
                res.fail(f"{tr.family}/{tr.kind}: {exc!r}")
                continue
            res.ops.append((tr.family, dt))
            res.problems += check_request(tr, exact, approx, lossr)
        # requests last milliseconds: one speed correction for the round
        factor = speed.factor(before)
        res.ops = [(kind, dt * factor) for kind, dt in res.ops]
        return res

    @staticmethod
    def summary(rounds: list[RoundResult]) -> dict[str, tuple[float, str]]:
        lat = latencies(rounds)
        out = {"audit_rate": (len(lat) / sum(lat), "requests/s"), "audit_p50_us": (statistics.median(lat) * 1e6, "us")}
        # a percentile is reported only with at least ten samples beyond it
        if len(lat) >= 1000:
            out["audit_p99_us"] = (statistics.quantiles(lat, n=100)[98] * 1e6, "us")
        return out

    @staticmethod
    def layers(tracer, rounds: list[RoundResult]) -> dict[str, tuple[float, str]]:
        requests = len(latencies(rounds))
        out = {}
        for name in ("model.derived_stats", "model.assignment_rows_for", "audit.bin_statistics",
                     "audit.audit_exact", "audit.audit_approx", "audit.classify_consequence", "loss.loss"):
            out[f"{name}.us"] = (tracer.mean_us(name), "us")
        for name in ("model.validate_instance", "audit.bin_statistics"):
            out[f"{name}.calls_per_request"] = (tracer.count(name) / requests, "calls")
        return out


def check_request(tr: inputs.Triple, exact, approx, lossr) -> list[str]:
    label = f"{tr.family}/{tr.kind} k={len(tr.specs)} eps={tr.eps}"
    ref = reference.reference_audit(tr.specs, tr.scores, tr.rows)
    problems = compare_audit(label, exact, ref)
    if (lossr.per_group, lossr.total) != (ref.loss_per_group, ref.loss_total):
        problems.append(f"{label}: loss {lossr} against reference {ref.loss_per_group}")
    if ra_audit.passes_fairness(tr.inst, tr.asg) != ref.fair:
        problems.append(f"{label}: passes_fairness disagrees with the reference verdict {ref.fair}")

    want = reference.reference_approx(ref, tr.scores, tr.eps)
    for name in ("calibration_ok", "balance_pos_ok", "balance_pos_vacuous", "balance_neg_ok",
                 "balance_neg_vacuous", "passed"):
        if getattr(approx, name) != getattr(want, name):
            problems.append(f"{label}: relaxed {name} is {getattr(approx, name)}, reference {getattr(want, name)}")
    flags = approx.consequence
    lo, hi = reference.slack_formula_bounds(tr.eps)
    if approx.epsilon != tr.eps or not lo <= flags.slack <= hi:
        problems.append(f"{label}: slack {flags.slack} outside [{lo}, {hi}]")
    near_perfect, near_equal = reference.consequence_flags(ref, flags.slack)
    if (flags.near_perfect_prediction, flags.near_equal_base_rates) != (near_perfect, near_equal):
        problems.append(f"{label}: consequence flags disagree with the reference")
    if approx.passed and not (flags.near_perfect_prediction or flags.near_equal_base_rates):
        problems.append(f"{label}: relaxed pass without a consequence flag")

    if tr.kind in CALIBRATED_KINDS and not (
        exact.calibration_ok and exact.expected_score_total == ref.positive_mass
    ):
        problems.append(f"{label}: calibrated assignment fails the calibration identities")
    return problems
