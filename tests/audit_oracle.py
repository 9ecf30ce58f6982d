"""Plain references for the differential tests, one per behaviour.

- The `Fraction` views, written from the definitions: every sum, product
  and quotient is a `Fraction`, and calls between them resolve inside this
  module, so `audit_approx` recomputes `audit_exact` and `bin_statistics`
  and the views read this `derived_stats`, not the package's. Allocation
  rows are put in the instance's feature order here as well
  (`assignment_rows_for`), by the assignment's `feature_ids`.
  - `audit_exact`, `audit_approx`, `classify_consequence`,
    `passes_fairness`, `loss`, `fairness_difference`, `is_nontrivial` and
    `normalize_assignment`, all read from `bin_statistics`:
    `tests/test_oracle.py::test_views_match_old_implementation`.
    `passes_fairness` and `audit_approx` also judge the sweep's candidates
    in `tests/test_sweep.py::TestIntegerVerdicts`.
  - `derived_stats`: `test_derived_stats_match_the_fraction_sums`.
  - `validate_instance` and `scaled_form`, checking an instance and then
    scaling it in a second pass:
    `test_one_pass_check_matches_check_then_scale`.
  - `consequence_slack`, the shown slack in `Fraction`s:
    `test_slack_matches_the_fraction_formula`.
  - `_within_slack`, the consequence flags' test, by squaring:
    `test_slack_decision_matches_squaring`.
  - `assignment_checks`, the checks `RiskAssignment` makes on construction:
    `test_construction_matches_the_fraction_checks`.
  - `assignment_from_partition`:
    `test_partition_assignments_match_old_implementation`.
  - `solve_integral`, a scan of every partition from `enumerate_partitions`:
    `test_solver_matches_old_implementation`.
- The `randint` draws `_pooled_struct`, `_split_structure` and
  `_banded_bins`, which pin the seeded stream the package draws with
  `getrandbits`: `tests/test_sweep.py::TestDraws`, and for many draws from
  one per-sweep split structure, `test_one_split_structure_serves_every_draw`.
- `pooled_block_within`, a pooled block's calibration band on its one-bin
  `_Table`, the reference for the band rule the walk prunes with
  (`audit._pooled_within` on four column sums):
  `test_pooled_block_rule_matches_its_table`.
- `first_bin_within`, the stream's first-bin screen as a pass over drawn
  rows, the reference for the first bin's sums that `sweep._pooled_struct`
  takes while it draws: `tests/test_sweep.py::test_first_bin_screen_is_exact`.
- `pooled_table`, the table of bin columns with each bin scored at its
  pooled rate, the package's only way to score pooled bins until pooled
  assignments and the split family's verdict were read off the columns
  with no table (`audit._pooled_assignment`, `audit._pooled_classes`):
  the pooled references of `tests/test_sweep.py::TestIntegerVerdicts`,
  `test_first_bin_screen_is_exact` and
  `test_exact_pooled_verdict_is_read_off_the_sums`.
- `_leaf_table`, that table for a visited partition's pooled assignment,
  built from the walk's subset column sums, the reference for the class
  sums the package reads off those sums with no table
  (`audit._pooled_classes`): `tests/test_solver.py::TestLeafRule` and
  `tests/test_sweep.py::test_pooled_class_sums_match_the_table`.
- `plain_sweep` and `exhaustive_solve` visit every partition through the
  package's walk with pruning off (`_integral_search` with a calibration
  verdict that passes every block, and no bound), which
  `test_search_visits_exactly_the_calibrated_partitions` checks against
  `enumerate_partitions` and the block sums, with the table `_leaf_table`
  builds for each visited partition. They judge every partition on that
  table with the package's table verdicts, which the tests above pin to
  the `Fraction` views, and build each witness with this module's
  `assignment_from_partition`. So they are the reference for the walk's
  verdicts on class sums read off the column sums.
  - `plain_sweep` is the reference for `theorem_sweep`. Its fractional
    half replays the `randint` draws, builds each candidate as a
    `Fraction` assignment and audits it through the package's public
    `passes_fairness` and `audit_approx`:
    `tests/test_sweep.py::test_sweep_matches_old_implementation` (budget
    200) and `test_pruned_sweep_matches_unpruned` (budget 0).
  - `exhaustive_solve` is the reference for `solve_integral`:
    `test_pruned_search_matches_unpruned`.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from random import Random
from typing import NamedTuple, Optional

import riskaudit
from riskaudit.audit import (
    ApproxAuditReport,
    AuditReport,
    ConsequenceFlags,
    _approx_report,
    _calibrated_within,
    _classes,
    _fair,
    _Table,
)
from riskaudit.errors import DegenerateGroupError, DomainError, InvalidAssignmentError
from riskaudit.loss import FairnessDifference, LossReport, _loss_report, _nontrivial
from riskaudit.model import (
    GROUPS,
    GroupStats,
    Instance,
    RiskAssignment,
    ValidationReport,
    _nonnegative,
    _rational,
    _scaled,
    _Scaled,
    _sqrt_upper,
    as_fraction,
    require_valid,
)
from riskaudit.partitions import Partition, enumerate_partitions
from riskaudit.solver import OBJECTIVES, SolveResult, _integral_search
from riskaudit.sweep import SweepReport, is_perfect_prediction


# from riskaudit/model.py
def derived_stats(inst: Instance) -> GroupStats:
    """Population size, expected positive mass, and base rate per group."""
    require_valid(inst)
    pop = []
    pos = []
    for t in GROUPS:
        n = sum((f.count(t) for f in inst.features), Fraction(0))
        mu = sum((f.count(t) * f.p for f in inst.features), Fraction(0))
        pop.append(n)
        pos.append(mu)
    rate = tuple(pos[i] / pop[i] for i in range(2))
    return GroupStats(
        population=(pop[0], pop[1]),
        positive_mass=(pos[0], pos[1]),
        base_rate=rate,  # type: ignore[arg-type]
    )


# from riskaudit/model.py, from when checking an instance and scaling it took
# two passes over its features: `validate_instance`, then the integer form
# that `_scaled` built from a valid instance
def validate_instance(inst: Instance) -> ValidationReport:
    violations: list[str] = []
    seen: set[str] = set()
    for f in inst.features:
        if not isinstance(f.id, str) or not f.id:
            violations.append(f"feature id {f.id!r} is not a nonempty string")
        elif f.id in seen:
            violations.append(f"duplicate feature id {f.id!r}")
        else:
            seen.add(f.id)
        for name, v in (("probability", f.p), ("group-1 mass", f.n1), ("group-2 mass", f.n2)):
            if not _rational(v):
                violations.append(f"feature {f.id!r}: {name} {v!r} is not an int or Fraction")
            elif name == "probability" and not (0 <= v.numerator <= v.denominator):
                violations.append(f"feature {f.id!r}: probability {v} outside [0, 1]")
            elif name != "probability" and v.numerator < 0:
                violations.append(f"feature {f.id!r}: negative {name} {v}")
    for t in GROUPS:
        masses = [n for n in (f.count(t) for f in inst.features) if _rational(n)]
        d = lcm(*(n.denominator for n in masses))
        if sum(n.numerator * (d // n.denominator) for n in masses) <= 0:
            violations.append(f"group {t} has no mass")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def scaled_form(inst: Instance) -> _Scaled:
    parts = []
    for f in inst.features:
        for n in (f.n1, f.n2):
            top, bottom = n.numerator * f.p.numerator, n.denominator * f.p.denominator
            r = gcd(top, bottom)
            parts += ((n.numerator, n.denominator), (top // r, bottom // r))
    d = lcm(*(b for _, b in parts))
    flat = [a * (d // b) for a, b in parts]
    # flat holds n1, n1 * p, n2, n2 * p per feature
    weights = tuple(zip(flat[0::4], flat[2::4], flat[1::4], flat[3::4]))
    return _Scaled(weights, d, tuple(map(sum, zip(*weights))))


# from riskaudit/model.py, the body of RiskAssignment.__post_init__ with
# `self.` fields as arguments, after the same tuple normalisation
def assignment_checks(feature_ids, scores, rows) -> None:
    feature_ids, scores = tuple(feature_ids), tuple(scores)
    rows = tuple(tuple(r) for r in rows)
    if not scores:
        raise InvalidAssignmentError("assignment has no bins")
    if len(set(feature_ids)) != len(feature_ids):
        raise InvalidAssignmentError("duplicate feature id in assignment")
    if len(rows) != len(feature_ids):
        raise InvalidAssignmentError("one allocation row per feature required")
    for v in scores:
        if not (0 <= v <= 1):
            raise InvalidAssignmentError(f"score {v} outside [0, 1]")
    for fid, row in zip(feature_ids, rows):
        if len(row) != len(scores):
            raise InvalidAssignmentError(
                f"allocation row for {fid!r} has {len(row)} entries, expected {len(scores)}"
            )
        for x in row:
            if not (0 <= x <= 1):
                raise InvalidAssignmentError(f"allocation entry {x} for {fid!r} outside [0, 1]")
        if sum(row, Fraction(0)) != 1:
            raise InvalidAssignmentError(
                f"allocation row for {fid!r} sums to {sum(row, Fraction(0))}, expected exactly 1"
            )


# from riskaudit/sweep.py
def _pooled_rate(gs) -> Fraction:
    return (gs.positive_mass[0] + gs.positive_mass[1]) / (
        gs.population[0] + gs.population[1]
    )


# from riskaudit/model.py
def assignment_rows_for(inst: Instance, asg: RiskAssignment) -> tuple[tuple[Fraction, ...], ...]:
    """Allocation rows reordered to the instance's feature order.

    Raises when the feature id sets differ.
    """
    position = {fid: i for i, fid in enumerate(asg.feature_ids)}
    if set(position) != {f.id for f in inst.features}:
        raise InvalidAssignmentError("assignment does not match instance")
    return tuple(asg.rows[position[f.id]] for f in inst.features)


# from riskaudit/audit.py
class BinStats(NamedTuple):
    """Per-group, per-bin aggregates (group-major: index 0 is group 1).

    mass: people of the group in the bin.
    positive: expected positives of the group in the bin.
    score_mass: bin score times mass, the calibration target for `positive`.
    """

    mass: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    positive: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    score_mass: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]


# from riskaudit/audit.py
def bin_statistics(inst: Instance, asg: RiskAssignment) -> BinStats:
    """Aggregate the allocation against the instance, bin by bin."""
    rows = assignment_rows_for(inst, asg)
    nbins = asg.bin_count
    mass = [[Fraction(0)] * nbins for _ in range(2)]
    positive = [[Fraction(0)] * nbins for _ in range(2)]
    for f, row in zip(inst.features, rows):
        counts = (f.n1, f.n2)
        for b, x in enumerate(row):
            if x == 0:
                continue
            for i in range(2):
                if counts[i]:
                    mass[i][b] += counts[i] * x
                    positive[i][b] += counts[i] * f.p * x
    score_mass = tuple(
        tuple(asg.scores[b] * mass[i][b] for b in range(nbins)) for i in range(2)
    )
    return BinStats(
        mass=(tuple(mass[0]), tuple(mass[1])),
        positive=(tuple(positive[0]), tuple(positive[1])),
        score_mass=score_mass,  # type: ignore[arg-type]
    )


# from riskaudit/audit.py
def audit_exact(inst: Instance, asg: RiskAssignment) -> AuditReport:
    """Audit all three fairness conditions with exact arithmetic."""
    gs = derived_stats(inst)
    stats = bin_statistics(inst, asg)
    nbins = asg.bin_count

    residuals = tuple(
        tuple(stats.positive[i][b] - stats.score_mass[i][b] for b in range(nbins))
        for i in range(2)
    )
    calibration_ok = all(r == 0 for per_group in residuals for r in per_group)

    expected_total = tuple(
        sum(stats.score_mass[i], Fraction(0)) for i in range(2)
    )

    pos_avg: list[Optional[Fraction]] = []
    neg_avg: list[Optional[Fraction]] = []
    for i in range(2):
        pos_score = sum(
            (stats.positive[i][b] * asg.scores[b] for b in range(nbins)), Fraction(0)
        )
        mu = gs.positive_mass[i]
        neg_mass = gs.population[i] - mu
        pos_avg.append(pos_score / mu if mu > 0 else None)
        neg_avg.append((expected_total[i] - pos_score) / neg_mass if neg_mass > 0 else None)

    pos_vacuous = pos_avg[0] is None or pos_avg[1] is None
    pos_ok = True if pos_vacuous else pos_avg[0] == pos_avg[1]
    neg_vacuous = neg_avg[0] is None or neg_avg[1] is None
    neg_ok = True if neg_vacuous else neg_avg[0] == neg_avg[1]

    parity_gap = expected_total[0] / gs.population[0] - expected_total[1] / gs.population[1]

    return AuditReport(
        calibration_ok=calibration_ok,
        calibration_residuals=residuals,
        expected_score_total=(expected_total[0], expected_total[1]),
        pos_class_avg=(pos_avg[0], pos_avg[1]),
        neg_class_avg=(neg_avg[0], neg_avg[1]),
        balance_pos_ok=pos_ok,
        balance_pos_vacuous=pos_vacuous,
        balance_neg_ok=neg_ok,
        balance_neg_vacuous=neg_vacuous,
        parity_gap=parity_gap,
        fair=calibration_ok and pos_ok and neg_ok,
    )


# from riskaudit/audit.py
def consequence_slack(eps) -> Fraction:
    """sqrt(eps) * max(1, 3*sqrt(eps) + 3/4), with sqrt(eps) exact when it
    is rational and rounded up at 2**-128 otherwise, in `Fraction`s."""
    s, _ = _sqrt_upper(_nonnegative(eps, "eps"))
    return s * max(Fraction(1), 3 * s + Fraction(3, 4))


def _within_slack(x: Fraction, e: Fraction) -> bool:
    """Whether 0 <= x <= sqrt(e) * max(1, 3 sqrt(e) + 3/4), which is
    max(sqrt(e), 3e + (3/4) sqrt(e)); each side is compared by squaring."""
    return x * x <= e or x <= 3 * e or (4 * (x - 3 * e) / 3) ** 2 <= e


def classify_consequence(inst: Instance, asg: RiskAssignment, eps) -> ConsequenceFlags:
    """Evaluate both consequence conditions at the exact slack of eps; the
    flags report consequence_slack(eps).

    A group with an empty positive class counts as perfectly predicted: its
    whole population is certain-negative, so the near-perfect flag ignores it.
    """
    e = as_fraction(eps)
    gs = derived_stats(inst)
    report = audit_exact(inst, asg)
    near_perfect = True
    for i in range(2):
        avg = report.pos_class_avg[i]
        if avg is not None and not _within_slack(1 - avg, e):
            near_perfect = False
    near_equal = _within_slack(abs(gs.base_rate[0] - gs.base_rate[1]), e)
    return ConsequenceFlags(
        slack=consequence_slack(e),
        near_perfect_prediction=near_perfect,
        near_equal_base_rates=near_equal,
    )


# from riskaudit/audit.py
def audit_approx(inst: Instance, asg: RiskAssignment, eps) -> ApproxAuditReport:
    """Audit the relaxed conditions at tolerance eps (eps = 0 is the exact audit).

    Calibration relaxes per bin and group to a multiplicative band around
    score times mass. Each balance condition relaxes to the band between the
    two group averages, required in both orderings.
    """
    e = as_fraction(eps)
    if e < 0:
        raise DomainError("eps must be nonnegative")
    exact = audit_exact(inst, asg)
    stats = bin_statistics(inst, asg)
    nbins = asg.bin_count

    calib_ok = True
    lo, hi = 1 - e, 1 + e
    for i in range(2):
        for b in range(nbins):
            g = stats.positive[i][b]
            s = stats.score_mass[i][b]
            if not (lo * s <= g <= hi * s):
                calib_ok = False
                break
        if not calib_ok:
            break

    def balance(avgs) -> tuple[bool, bool]:
        if avgs[0] is None or avgs[1] is None:
            return True, True
        return _ratio_band_ok(avgs[0], avgs[1], e), False

    pos_ok, pos_vac = balance(exact.pos_class_avg)
    neg_ok, neg_vac = balance(exact.neg_class_avg)

    return ApproxAuditReport(
        epsilon=e,
        calibration_ok=calib_ok,
        balance_pos_ok=pos_ok,
        balance_pos_vacuous=pos_vac,
        balance_neg_ok=neg_ok,
        balance_neg_vacuous=neg_vac,
        passed=calib_ok and pos_ok and neg_ok,
        consequence=classify_consequence(inst, asg, e),
    )


# from riskaudit/audit.py
def _accumulate_bins(features, rows, nbins):
    # group-major running mass and expected positives per bin
    mass = [[Fraction(0)] * nbins for _ in range(2)]
    positive = [[Fraction(0)] * nbins for _ in range(2)]
    for f, row in zip(features, rows):
        n1, n2, p = f.n1, f.n2, f.p
        for b, x in enumerate(row):
            if x == 0:
                continue
            if n1:
                mass[0][b] += n1 * x
                positive[0][b] += n1 * p * x
            if n2:
                mass[1][b] += n2 * x
                positive[1][b] += n2 * p * x
    return mass, positive


# from riskaudit/audit.py
def _fair_from_parts(gs, scores, mass, positive) -> bool:
    nbins = len(scores)
    for i in range(2):
        mi, pi = mass[i], positive[i]
        for b in range(nbins):
            if pi[b] != scores[b] * mi[b]:
                return False
    pos_avg = []
    neg_avg = []
    for i in range(2):
        pos_score = Fraction(0)
        total_score = Fraction(0)
        for b in range(nbins):
            v = scores[b]
            if positive[i][b]:
                pos_score += positive[i][b] * v
            if mass[i][b]:
                total_score += mass[i][b] * v
        mu = gs.positive_mass[i]
        neg_mass = gs.population[i] - mu
        pos_avg.append(pos_score / mu if mu > 0 else None)
        neg_avg.append((total_score - pos_score) / neg_mass if neg_mass > 0 else None)
    for avgs in (pos_avg, neg_avg):
        if avgs[0] is not None and avgs[1] is not None and avgs[0] != avgs[1]:
            return False
    return True


# from riskaudit/audit.py
def passes_fairness(inst: Instance, asg: RiskAssignment) -> bool:
    """Fast verdict with early exits; agrees with audit_exact(...).fair."""
    gs = derived_stats(inst)
    rows = assignment_rows_for(inst, asg)
    mass, positive = _accumulate_bins(inst.features, rows, asg.bin_count)
    return _fair_from_parts(gs, asg.scores, mass, positive)


# from riskaudit/loss.py
def loss(inst: Instance, asg: RiskAssignment) -> LossReport:
    """Exact expected loss per group and in total."""
    gs = derived_stats(inst)
    stats = bin_statistics(inst, asg)
    per = []
    for i in range(2):
        pos_score = sum(
            (stats.positive[i][b] * asg.scores[b] for b in range(asg.bin_count)),
            Fraction(0),
        )
        per.append(2 * (gs.positive_mass[i] - pos_score))
    return LossReport(per_group=(per[0], per[1]), total=per[0] + per[1])


# from riskaudit/loss.py
def fairness_difference(inst: Instance, asg: RiskAssignment) -> FairnessDifference:
    """Positive-class average gap, group 1 minus group 2.

    Both positive classes must be nonempty.
    """
    report = audit_exact(inst, asg)
    a1, a2 = report.pos_class_avg
    if a1 is None or a2 is None:
        raise DegenerateGroupError("both groups need a nonempty positive class")
    d = a1 - a2
    return FairnessDifference(difference=d, favors_group1=d >= 0, favors_group2=d <= 0)


# from riskaudit/loss.py
def _bin_people_mass(inst: Instance, asg: RiskAssignment) -> tuple[Fraction, ...]:
    rows = assignment_rows_for(inst, asg)
    masses = [Fraction(0)] * asg.bin_count
    for f, row in zip(inst.features, rows):
        n = f.total
        if n == 0:
            continue
        for b, x in enumerate(row):
            if x:
                masses[b] += n * x
    return tuple(masses)


# from riskaudit/loss.py
def is_nontrivial(inst: Instance, asg: RiskAssignment) -> bool:
    """True when at least two distinct scores carry positive people mass.

    Zero-mass bins are ignored, and bins sharing a score count once: an
    assignment that scores everyone identically is trivial however many
    bins it spreads them over.
    """
    masses = _bin_people_mass(inst, asg)
    scores = {asg.scores[b] for b in range(asg.bin_count) if masses[b] > 0}
    return len(scores) >= 2


# from riskaudit/loss.py
def normalize_assignment(inst: Instance, asg: RiskAssignment) -> RiskAssignment:
    """Display form: drop zero-mass bins, merge equal-score bins, sort by score.

    Audit-equivalent to the input. Allocation that zero-mass features sent to
    dropped bins is moved to the first kept bin so rows still sum to 1.
    """
    masses = _bin_people_mass(inst, asg)
    kept = [b for b in range(asg.bin_count) if masses[b] > 0]
    if not kept:
        raise DomainError("assignment carries no people")
    scores = sorted({asg.scores[b] for b in kept})
    groups = {v: [b for b in kept if asg.scores[b] == v] for v in scores}
    dropped = [b for b in range(asg.bin_count) if masses[b] == 0]

    rows_in = assignment_rows_for(inst, asg)
    rows_out = []
    for row in rows_in:
        new_row = [sum((row[b] for b in groups[v]), Fraction(0)) for v in scores]
        spill = sum((row[b] for b in dropped), Fraction(0))
        new_row[0] += spill
        rows_out.append(tuple(new_row))
    return RiskAssignment(
        feature_ids=tuple(f.id for f in inst.features),
        scores=tuple(scores),
        rows=tuple(rows_out),
    )


# from riskaudit/solver.py
def assignment_from_partition(inst: Instance, part: Partition) -> RiskAssignment:
    """Integral assignment for a partition of the instance's feature ids.

    Each block becomes one bin scored at the block's mass-weighted pooled
    probability. A block with no people contributes no bin; its features are
    folded into the first populated bin, which changes nothing anyone can
    measure.
    """
    require_valid(inst)
    ids = {f.id for f in inst.features}
    if part.members() != ids:
        raise DomainError("partition does not cover exactly the instance's features")

    by_id = {f.id: f for f in inst.features}
    scored: list[tuple[tuple, Fraction]] = []
    empty_blocks: list[tuple] = []
    for block in part.blocks:
        mass = sum((by_id[fid].total for fid in block), Fraction(0))
        if mass == 0:
            empty_blocks.append(block)
            continue
        weighted = sum((by_id[fid].total * by_id[fid].p for fid in block), Fraction(0))
        scored.append((block, weighted / mass))
    if not scored:
        raise DomainError("no block carries any people")

    bin_of: dict[str, int] = {}
    for b, (block, _) in enumerate(scored):
        for fid in block:
            bin_of[fid] = b
    for block in empty_blocks:
        for fid in block:
            bin_of[fid] = 0

    nbins = len(scored)
    order = tuple(f.id for f in inst.features)
    rows = tuple(
        tuple(Fraction(1) if bin_of[fid] == b else Fraction(0) for b in range(nbins))
        for fid in order
    )
    return RiskAssignment(
        feature_ids=order,
        scores=tuple(v for _, v in scored),
        rows=rows,
    )


# from riskaudit/solver.py
def solve_integral(
    inst: Instance,
    objective: str = "any_fair",
    cap: Optional[int] = None,
) -> SolveResult:
    """Search every partition for a fair non-trivial integral assignment.

    Objective "any_fair" returns the first hit in canonical enumeration
    order; "min_loss" scans everything and keeps the minimum total loss,
    ties resolved in favor of the earlier canonical encoding. The trivial
    all-in-one structure can never qualify because non-triviality requires
    two distinct scores with mass.
    """
    require_valid(inst)
    if objective not in OBJECTIVES:
        raise DomainError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    order = tuple(f.id for f in inst.features)
    k = len(order)

    explored = 0
    exhausted = True
    best: Optional[tuple[Fraction, Partition, RiskAssignment, LossReport]] = None
    gen = enumerate_partitions(k, cap=None if cap is None else cap + 1)
    for index_part in gen:
        if cap is not None and explored >= cap:
            exhausted = False
            break
        explored += 1
        part = Partition.from_blocks(
            tuple(order[i] for i in block) for block in index_part.blocks
        )
        asg = assignment_from_partition(inst, part)
        if not passes_fairness(inst, asg):
            continue
        if not is_nontrivial(inst, asg):
            continue
        report = loss(inst, asg)
        if objective == "any_fair":
            return SolveResult("found", part, asg, report, explored, 0)
        if best is None or report.total < best[0]:
            best = (report.total, part, asg, report)

    if not exhausted:
        if best is not None:
            return SolveResult("budget_exceeded", best[1], best[2], best[3], explored, 0)
        return SolveResult("budget_exceeded", None, None, None, explored, 0)
    if best is not None:
        return SolveResult("found", best[1], best[2], best[3], explored, 0)
    return SolveResult("none", None, None, None, explored, 0)


# from riskaudit/audit.py
def _ratio_band_ok(x: Fraction, y: Fraction, eps: Fraction) -> bool:
    # two-sided multiplicative band, both orderings; zero cases follow the
    # limit of the ratio form: 0 vs 0 passes, 0 vs positive needs eps >= 1
    if x == 0 and y == 0:
        return True
    if x == 0 or y == 0:
        return eps >= 1
    lo, hi = 1 - eps, 1 + eps
    return (lo * y <= x <= hi * y) and (lo * x <= y <= hi * x)


# from riskaudit/sweep.py, the candidate draws before they read rng.getrandbits
def _pooled_struct(k: int, rng: Random) -> tuple[tuple[int, ...], ...]:
    nbins = rng.randint(1, k + 2)
    out = []
    for _ in range(k):
        weights = [rng.randint(0, 3) for _ in range(nbins)]
        if not any(weights):
            weights[rng.randrange(nbins)] = 1
        out.append(tuple(weights))
    return tuple(out)


def _split_structure(inst: Instance, rng: Random) -> list[tuple[Fraction, dict[int, int]]]:
    """Bins whose members all share one probability: split each feature's mass
    over one or two copies, then sometimes pool equal-probability bins.
    Allocations are eighths held as integers keyed by feature position."""
    bins: list[tuple[Fraction, dict[int, int]]] = []
    for i, f in enumerate(inst.features):
        parts = rng.randint(1, 2)
        if parts == 1:
            bins.append((f.p, {i: 8}))
        else:
            j = rng.randint(1, 7)
            bins.append((f.p, {i: j}))
            bins.append((f.p, {i: 8 - j}))
    if rng.random() < 0.5:
        merged: dict[Fraction, dict[int, int]] = {}
        for p, alloc in bins:
            slot = merged.setdefault(p, {})
            for i, j in alloc.items():
                slot[i] = slot.get(i, 0) + j
        bins = [(p, alloc) for p, alloc in merged.items()]
    return bins


def _banded_bins(inst: Instance, rng: Random, e: Fraction):
    lo = -e / (1 + e)
    cap = e / (1 - e) if e < 1 else Fraction(1)
    out = []
    for p, alloc in _split_structure(inst, rng):
        if p == 0:
            out.append((p, alloc))
            continue
        hi = min(cap, (1 - p) / p)
        delta = lo + (hi - lo) * Fraction(rng.randint(0, 16), 16)
        out.append((p * (1 + delta), alloc))
    return out


def _pooled_assignment(inst: Instance, weights, empty: Fraction) -> RiskAssignment:
    """The candidate of integer weight rows, each read over its sum, with
    every bin scored at its pooled rate, `empty` for a bin with no people."""
    rows = tuple(tuple(Fraction(w, sum(wrow)) for w in wrow) for wrow in weights)
    mass, positive = _accumulate_bins(inst.features, rows, len(rows[0]))
    scores = tuple(
        (g1 + g2) / (m1 + m2) if m1 + m2 else empty
        for m1, m2, g1, g2 in zip(*mass, *positive)
    )
    return RiskAssignment(inst.ids, scores, rows)


def _split_assignment(inst: Instance, bins) -> RiskAssignment:
    """The candidate of a split structure: allocations in eighths."""
    rows = tuple(
        tuple(Fraction(alloc.get(i, 0), 8) for _, alloc in bins) for i in range(len(inst.features))
    )
    return RiskAssignment(inst.ids, tuple(v for v, _ in bins), rows)


def _partition(inst: Instance, blocks) -> Partition:
    """The partition of feature ids whose blocks are these bit masks over
    feature positions."""
    return Partition.from_blocks([fid for i, fid in enumerate(inst.ids) if mask >> i & 1] for mask in blocks)


# from riskaudit/solver.py, from when the walk judged a pooled block on its
# one-bin table: the band rule `audit._pooled_within` decides on the block's
# four column sums, `test_pooled_block_rule_matches_its_table`
def pooled_block_within(m0: int, m1: int, p0: int, p1: int, e) -> bool:
    return _calibrated_within(_Table(([m0], [m1]), ([p0], [p1]), 1, [p0 + p1], [m0 + m1]), e)


# from riskaudit/audit.py, the stream's first-bin screen from before the
# draw took the bin's sums: the rows' first entries, each scaled to the lcm
# of the row sums, summed against the feature columns
# (columns = tuple(zip(*scaled.weights))) and judged by the band rule
def first_bin_within(columns, rows, e) -> bool:
    sums = [sum(row) for row in rows]
    scale = lcm(*sums)
    xs = [row[0] * (scale // total) for row, total in zip(rows, sums)]
    return pooled_block_within(*(sum(map(mul, column, xs)) for column in columns), e)


# from riskaudit/audit.py, from when a pooled assignment was scored through
# its table: the table of these columns with each bin scored at its pooled
# positive rate, and a bin with no people at the whole table's pooled rate,
# which is the population's, since allocation rows sum to one
def pooled_table(mass, positive, scale: int) -> _Table:
    nums = list(map(add, *positive))
    dens = list(map(add, *mass))
    if not all(dens):
        g, m = sum(nums), sum(dens)
        nums = [n if d else g for n, d in zip(nums, dens)]
        dens = [d or m for d in dens]
    return _Table(mass, positive, scale, nums, dens)


# from riskaudit/solver.py, from when the walk judged a partition on its
# table: the pooled table of a visited partition's blocks with people, in
# block order, from the walk's subset column sums (see _integral_search)
def _leaf_table(sums, blocks, scale: int) -> _Table:
    m0, m1, g0, g1 = sums
    kept = [mask for mask in blocks if m0[mask] or m1[mask]]
    return pooled_table(([m0[mask] for mask in kept], [m1[mask] for mask in kept]),
                        ([g0[mask] for mask in kept], [g1[mask] for mask in kept]), scale)


def plain_sweep(inst: Instance, budget: int, eps, seed: int, integral_cap: Optional[int] = None) -> SweepReport:
    """`theorem_sweep`, visiting every partition and auditing every
    fractional candidate as a built assignment."""
    gs = derived_stats(inst)
    e = as_fraction(eps)
    gap = gs.base_rate[0] - gs.base_rate[1]
    perfect = is_perfect_prediction(inst)
    special = gap == 0 or perfect
    scaled = _scaled(inst)
    slack = consequence_slack(e)
    exact_fair_count = approx_pass = 0
    first_fair = exact_ce = approx_ce = None

    def consider(fair: bool, approx: Optional[ApproxAuditReport], build) -> None:
        nonlocal exact_fair_count, first_fair, exact_ce, approx_pass, approx_ce
        if fair:
            exact_fair_count += 1
            if first_fair is None:
                first_fair = build()
                if not special:
                    exact_ce = first_fair
        if approx is not None and approx.passed:
            approx_pass += 1
            if not approx.consequence.any and approx_ce is None:
                approx_ce = build()

    def visit(blocks, sums) -> bool:
        table = _leaf_table(sums, blocks, scaled.denominator)
        approx = _approx_report(scaled, e, slack, _calibrated_within(table, e), _classes(table)) if e else None
        consider(_fair(table), approx, lambda: assignment_from_partition(inst, _partition(inst, blocks)))
        return False

    integral_explored, _, integral_complete = _integral_search(inst, integral_cap, lambda m0, m1, p0, p1: True, visit)

    k = len(inst.features)
    empty = _pooled_rate(gs)
    rng = Random(seed)
    for _ in range(budget):
        roll = rng.random()
        if roll < 0.6:
            asg = _pooled_assignment(inst, _pooled_struct(k, rng), empty)
        elif roll < 0.8 or e == 0:
            asg = _split_assignment(inst, _split_structure(inst, rng))
        else:
            asg = _split_assignment(inst, _banded_bins(inst, rng, e))
        approx = riskaudit.audit_approx(inst, asg, e) if e else None
        consider(riskaudit.passes_fairness(inst, asg), approx, lambda: asg)

    return SweepReport(
        seed=seed,
        epsilon=e,
        budget=budget,
        base_rate_gap=gap,
        perfect_prediction=perfect,
        integral_explored=integral_explored,
        integral_complete=integral_complete,
        fractional_explored=budget,
        exact_fair_count=exact_fair_count,
        first_exact_fair=first_fair,
        exact_counterexample=exact_ce,
        approx_pass_count=approx_pass,
        approx_counterexample=approx_ce,
    )


def exhaustive_solve(
    inst: Instance,
    objective: str = "any_fair",
    cap: Optional[int] = None,
) -> SolveResult:
    """`solve_integral`, visiting every partition: "any_fair" keeps the
    first fair non-trivial one, "min_loss" the one of least total loss, the
    earlier on a tie."""
    best: Optional[tuple] = None
    scale = _scaled(inst).denominator

    def visit(blocks, sums) -> bool:
        nonlocal best
        table = _leaf_table(sums, blocks, scale)
        if not (_fair(table) and _nontrivial(table)):
            return False
        report = _loss_report(_classes(table), scale)
        if best is None or report.total < best[0].total:
            best = report, tuple(blocks)
        return objective == "any_fair"

    explored, _, complete = _integral_search(inst, cap, lambda m0, m1, p0, p1: True, visit)
    if best is None:
        return SolveResult("none" if complete else "budget_exceeded", None, None, None, explored, 0)
    report, blocks = best
    part = _partition(inst, blocks)
    status = "found" if complete else "budget_exceeded"
    return SolveResult(status, part, assignment_from_partition(inst, part), report, explored, 0)
