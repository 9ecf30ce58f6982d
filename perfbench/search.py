"""Workload `search`: a fixed set of exhaustive searches.

Each search runs over one instance and examines many candidates, so the cost
per candidate dominates and whatever the program derives per instance is
spread thin: the opposite of `audit-stream`. The set holds `solve_integral`
on gapped and proportional instances with both objectives, `theorem_sweep`
in three families, and `check_reduction_equation` over every grouping of a
reduced subset-sum instance's pair features.
"""
from __future__ import annotations

import statistics
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from time import perf_counter
from typing import Callable

import riskaudit.partitions as ra_partitions
import riskaudit.reduction as ra_reduction
import riskaudit.solver as ra_solver
import riskaudit.sweep as ra_sweep

import inputs
import reference
from rounds import RoundResult, program_view
from spans import CANDIDATE_DRAWS

RELAXED_EPS = Fraction(1, 1000)
SWEEP_FAMILIES = ("exact", "relaxed", "fair")


@dataclass
class SearchOp:
    name: str
    kind: str  # solve, sweep-exact, sweep-relaxed, sweep-fair or equations
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    work: Callable[[object], int]  # candidates the search examined
    prepare: Callable[[], None] = lambda: None  # untimed, before each call


@dataclass(frozen=True)
class Sizes:
    solve_k: int
    sweeps: dict  # family -> (instance count, features, fractional budget)
    equation_m: tuple[int, ...]


FULL = Sizes(7, {"exact": (2, 6, 4000), "relaxed": (2, 5, 300), "fair": (2, 6, 600)}, (3, 3))
QUICK = Sizes(4, {"exact": (1, 4, 40), "relaxed": (1, 4, 20), "fair": (2, 4, 40)}, (2,))


class Search:
    name = "search"
    slow_kinds = ("solve",)

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.sizes = QUICK if quick else FULL

    def setup(self) -> None:
        rng = Random(f"search/{self.seed}")
        k = self.sizes.solve_k
        self.ops: list[SearchOp] = []
        # a gapped instance of its own per objective: both scan everything
        for objective in ra_solver.OBJECTIVES:
            self.ops.append(_solve_gapped(inputs.gapped_specs(rng, k), objective))
        prop = inputs.proportional_specs(rng, k)
        for objective in ra_solver.OBJECTIVES:
            self.ops.append(_solve_proportional(prop, objective))
        self.sweeps = []  # (family, specs, eps, budget, seed) for the layer probes
        for family in SWEEP_FAMILIES:
            count, fk, budget = self.sizes.sweeps[family]
            for j in range(count):
                if family == "fair":
                    specs = (inputs.equal_rate_specs if j % 2 == 0 else inputs.proportional_specs)(rng, fk)
                else:
                    specs = inputs.gapped_specs(rng, fk)
                eps = RELAXED_EPS if family == "relaxed" else Fraction(0)
                sweep_seed = rng.randrange(1 << 31)
                self.sweeps.append((family, specs, eps, budget, sweep_seed))
                self.ops.append(_sweep(family, specs, eps, budget, sweep_seed))
        for j, m in enumerate(self.sizes.equation_m):
            self.ops.append(_equations(*inputs.subset_sum(rng, m, solvable=j % 2 == 0)))

    def run_round(self, tracer, speed, in_process: bool = False) -> RoundResult:
        res = RoundResult()
        for op in self.ops:
            res.attempted += 1
            op.prepare()
            before = speed.begin()
            try:
                with tracer.span(op.kind):
                    t0 = perf_counter()
                    out = op.call()
                    dt = perf_counter() - t0
            except Exception as exc:  # a failed search is counted, not fatal
                res.fail(f"{op.name}: {exc!r}")
                continue
            res.ops.append((op.kind, dt * speed.factor(before)))
            res.add(f"{op.kind}.work", op.work(out))
            if op.kind == "solve":
                res.add("solve.explored", out.explored)
                res.add("solve.count", 1)
            if op.kind == "equations":
                for form, times in out[1].items():
                    res.add(f"equations.{form}.s", sum(times))
                    res.add(f"equations.{form}.n", len(times))
            res.problems += [f"{op.name}: {p}" for p in op.check(out)]
        return res

    @staticmethod
    def summary(rounds: list[RoundResult]) -> dict[str, tuple[float, str]]:
        def per_round(kind):
            return statistics.median(sum(dt for k, dt in r.ops if k == kind) for r in rounds)

        def rate(kind):
            return statistics.median(r.figures[f"{kind}.work"] for r in rounds) / per_round(kind)

        out = {"solve_s": (per_round("solve"), "s")}
        for family in SWEEP_FAMILIES:
            out[f"sweep_{family}_cand_per_s"] = (rate(f"sweep-{family}"), "candidates/s")
        out["equation_checks_per_s"] = (rate("equations"), "groupings/s")
        return out

    def layers(self, tracer, rounds: list[RoundResult]) -> dict[str, tuple[float, str]]:
        fig = {}
        for r in rounds:
            for name, v in r.figures.items():
                fig[name] = fig.get(name, 0.0) + v
        solve_s = sum(dt for r in rounds for k, dt in r.ops if k == "solve")
        out = {
            "audit.passes_fairness.us": (tracer.mean_us("audit.passes_fairness"), "us"),
            "loss.is_nontrivial.us": (tracer.mean_us("loss.is_nontrivial"), "us"),
            "solver.assignment_from_partition.us": (tracer.mean_us("solver.assignment_from_partition"), "us"),
            "solver.solve_integral.us_per_partition": (solve_s / fig["solve.explored"] * 1e6, "us"),
            "solver.explored": (fig["solve.explored"] / fig["solve.count"], "count"),
        }
        for form in ("symbolic", "normal"):
            n = fig.get(f"equations.{form}.n", 0)
            out[f"reduction.check_reduction_equation.{form}_us"] = (
                fig[f"equations.{form}.s"] / n * 1e6 if n else 0.0, "us")
        out.update(self._probes(tracer))
        return out

    def _probes(self, tracer) -> dict[str, tuple[float, str]]:
        """Layer timings that need calls of their own: bare enumeration, and
        each sweep split into its integral side (budget 0) and its fractional
        side (integral cap 0), the latter once outside any span for its time
        and once inside one for its call counts."""
        out = {}
        k = self.sizes.solve_k + 1
        t0 = perf_counter()
        n = sum(1 for _ in ra_partitions.enumerate_partitions(k))
        out["partitions.enumerate_partitions.us_per_partition"] = ((perf_counter() - t0) / n * 1e6, "us")

        integral_s = integral_n = 0
        frac = {f: [0.0, 0] for f in SWEEP_FAMILIES}
        draws = approx_calls = approx_pass = relaxed_candidates = 0
        draw_ns = 0
        for family, specs, eps, budget, sweep_seed in self.sweeps:
            inst = inputs.instance(specs)
            t0 = perf_counter()
            rep = ra_sweep.theorem_sweep(inst, 0, eps, sweep_seed)
            integral_s += perf_counter() - t0
            integral_n += rep.integral_explored
            t0 = perf_counter()
            ra_sweep.theorem_sweep(inst, budget, eps, sweep_seed, integral_cap=0)
            frac[family][0] += perf_counter() - t0
            frac[family][1] += budget
            before = tracer.snapshot()
            with tracer.span("sweep-fractional"):
                rep = ra_sweep.theorem_sweep(inst, budget, eps, sweep_seed, integral_cap=0)
            for name in CANDIDATE_DRAWS:
                draws += tracer.count(name, before)
                draw_ns += tracer.ns[name] - before[1][name]
            if family == "relaxed":
                approx_calls += tracer.count("audit.audit_approx", before)
                approx_pass += rep.approx_pass_count
                relaxed_candidates += budget
        out["sweep.integral.us_per_partition"] = (integral_s / integral_n * 1e6, "us")
        for family, (s, cands) in frac.items():
            out[f"sweep.fractional.{family}.us_per_candidate"] = (s / cands * 1e6, "us")
        out["sweep.candidate_draw.us"] = (draw_ns / draws / 1e3 if draws else 0.0, "us")
        out["sweep.approx_audits_per_candidate"] = (approx_calls / relaxed_candidates, "ratio")
        out["sweep.approx_pass_ratio"] = (approx_pass / approx_calls if approx_calls else 0.0, "ratio")
        return out


def _solve_gapped(specs, objective: str) -> SearchOp:
    inst, k = inputs.instance(specs), len(specs)

    def check(res) -> list[str]:
        if res.status != "none" or res.explored != reference.bell(k) or res.partition is not None:
            return [f"status {res.status} after {res.explored} of {reference.bell(k)} partitions; expected none"]
        return []

    return SearchOp(f"solve/gapped/{objective}", "solve",
                    lambda: ra_solver.solve_integral(inst, objective), check, lambda r: r.explored)


def _solve_proportional(specs, objective: str) -> SearchOp:
    inst = inputs.instance(specs)
    identity_loss = reference.reference_audit(specs, *inputs.identity_assignment(specs)).loss_total

    def check(res) -> list[str]:
        if res.status != "found" or res.assignment is None:
            return [f"status {res.status}; a fair non-trivial grouping exists"]
        ref = reference.reference_audit(*program_view(inst, res.assignment))
        problems = []
        if not (ref.fair and ref.nontrivial):
            problems.append("witness is not fair and non-trivial by the reference audit")
        if res.loss_report.total != ref.loss_total:
            problems.append(f"reported loss {res.loss_report.total}, reference {ref.loss_total}")
        if objective == "min_loss" and res.loss_report.total != identity_loss:
            problems.append(f"min loss {res.loss_report.total}, identity grouping {identity_loss}")
        return problems

    return SearchOp(f"solve/proportional/{objective}", "solve",
                    lambda: ra_solver.solve_integral(inst, objective), check, lambda r: r.explored)


def _sweep(family: str, specs, eps: Fraction, budget: int, seed: int) -> SearchOp:
    inst, k = inputs.instance(specs), len(specs)

    def check(rep) -> list[str]:
        problems = []
        if not rep.integral_complete or rep.integral_explored != reference.bell(k):
            problems.append(f"integral side explored {rep.integral_explored} of {reference.bell(k)}")
        if rep.fractional_explored != budget:
            problems.append(f"fractional side explored {rep.fractional_explored} of {budget}")
        if rep.exact_counterexample is not None or rep.approx_counterexample is not None:
            problems.append("counterexample reported")
        if family == "fair":
            if rep.exact_fair_count < 1 or rep.first_exact_fair is None:
                problems.append("no exactly fair candidate on a special instance")
            elif not reference.reference_audit(*program_view(inst, rep.first_exact_fair)).fair:
                problems.append("first exactly fair witness fails the reference audit")
        elif rep.exact_fair_count:
            problems.append(f"{rep.exact_fair_count} exactly fair candidates on a gapped instance")
        return problems

    return SearchOp(f"sweep/{family}/k={k}", f"sweep-{family}",
                    lambda: ra_sweep.theorem_sweep(inst, budget, eps, seed), check,
                    lambda r: r.integral_explored + r.fractional_explored)


def _equations(weights, target) -> SearchOp:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ri = ra_reduction.reduce_subset_sum(ra_reduction.SubsetSumInstance(weights, target))
    groupings = [
        (blocks, ra_partitions.Partition.from_blocks(blocks),
         "normal" if reference.decode_normal_grouping(blocks, ri.kept_indices) is not None else "symbolic")
        for blocks in reference.set_partitions(range(1, 2 * ri.m + 1))
    ]
    hits = set(reference.subsets_hitting(weights, target))

    def call():
        holding = []
        times = {"normal": [], "symbolic": []}
        for blocks, part, form in groupings:
            t0 = perf_counter()
            holds = ra_reduction.check_reduction_equation(ri, part)
            times[form].append(perf_counter() - t0)
            if holds:
                holding.append(blocks)
        return holding, times

    def check(out) -> list[str]:
        holding = out[0]
        decoded = [reference.decode_normal_grouping(b, ri.kept_indices) for b in holding]
        problems = []
        if len(groupings) != reference.bell(2 * ri.m):
            problems.append(f"{len(groupings)} groupings, Bell number {reference.bell(2 * ri.m)}")
        if len(holding) != len(hits) or set(decoded) != hits:
            problems.append(f"equation holds on {decoded}; subsets hitting the target are {sorted(map(sorted, hits))}")
        return problems

    return SearchOp(f"equations/{weights}->{target}", "equations", call, check, lambda out: len(groupings),
                    _clear_sympy_cache)


def _clear_sympy_cache() -> None:
    # sympy memoises expansions process-wide; every round of the fixed search
    # set would otherwise find the previous round's results there, while a
    # verification in a fresh process finds none
    cache = sys.modules.get("sympy.core.cache")
    if cache is not None:
        cache.clear_cache()
