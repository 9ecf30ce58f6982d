"""The audit, loss and search views as they were written before the bin
table, and `theorem_sweep` with its float screen as it was written before the
integer bin table, kept as test oracles.

Each function is copied unchanged from the package, apart from two
function-local `from .model import assignment_rows_for` lines that moved to
the imports below, and `assignment_from_partition`, which looks features up
in a dict where it called the since deleted `Instance.by_id`. Calls between them resolve inside this module, so
`audit_approx` still recomputes `audit_exact` and `bin_statistics` the old
way, and `theorem_sweep` reads the `Fraction` bin table (`_accumulate_bins`,
`_fair_from_parts`) below, and draws its candidates through the `randint`-based
`_pooled_struct`, `_split_structure` and `_banded_bins` that the package had
before its draws read `rng.getrandbits` directly. `tests/test_oracle.py` and
`tests/test_sweep.py` compare the package against them.

`derived_stats`, `_pooled_rate` and `assignment_checks` are the `Fraction`
forms from before instances and assignments kept their integer form:
`derived_stats` and the sweep's `_pooled_rate` summed `Fraction`s on every
call, and `assignment_checks` is the body of `RiskAssignment.__post_init__`,
which checked entries and row sums as `Fraction`s. The views above call this
`derived_stats`, not the package's.

`unpruned_solve_integral` and `unpruned_integral_sweep` are `solve_integral`
and the integral half of `theorem_sweep` (a budget of 0) as they were on the
integer bin table, before the search skipped partitions: they visit every
partition, and they read the package's integer kernel, which the tests
compare with the `Fraction` forms above. They check the pruned search up to
8 features, where each `Fraction` scan takes seconds.
"""
from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Optional

from riskaudit.audit import (
    ApproxAuditReport,
    AuditReport,
    BinStats,
    ConsequenceFlags,
    _fair,
    _pooled_scores,
    consequence_slack,
)
from riskaudit.audit import _approx_report as _table_approx_report
from riskaudit.errors import DegenerateGroupError, DomainError, InvalidAssignmentError
from riskaudit.loss import FairnessDifference, LossReport, _loss_report, _nontrivial
from riskaudit.model import (
    GROUPS,
    GroupStats,
    Instance,
    RiskAssignment,
    _scaled,
    as_fraction,
    assignment_rows_for,
    require_valid,
)
from riskaudit.partitions import Partition, _growth_strings, enumerate_partitions
from riskaudit.solver import OBJECTIVES, SolveResult, _block_table, _witness
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
def statistical_parity_gap(inst: Instance, asg: RiskAssignment) -> Fraction:
    """Difference of per-person expected score between the groups."""
    gs = derived_stats(inst)
    stats = bin_statistics(inst, asg)
    totals = [sum(stats.score_mass[i], Fraction(0)) for i in range(2)]
    return totals[0] / gs.population[0] - totals[1] / gs.population[1]


# from riskaudit/audit.py
def classify_consequence(inst: Instance, asg: RiskAssignment, eps) -> ConsequenceFlags:
    """Evaluate both consequence conditions at slack consequence_slack(eps).

    A group with an empty positive class counts as perfectly predicted: its
    whole population is certain-negative, so the near-perfect flag ignores it.
    """
    slack = consequence_slack(eps)
    gs = derived_stats(inst)
    report = audit_exact(inst, asg)
    near_perfect = True
    for i in range(2):
        avg = report.pos_class_avg[i]
        if avg is not None and avg < 1 - slack:
            near_perfect = False
    near_equal = abs(gs.base_rate[0] - gs.base_rate[1]) <= slack
    return ConsequenceFlags(
        slack=slack,
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
def _fair_from_parts(gs, scores, mass, positive, tol: Fraction) -> bool:
    nbins = len(scores)
    for i in range(2):
        mi, pi = mass[i], positive[i]
        for b in range(nbins):
            if abs(pi[b] - scores[b] * mi[b]) > tol:
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
        if avgs[0] is not None and avgs[1] is not None and abs(avgs[0] - avgs[1]) > tol:
            return False
    return True


# from riskaudit/audit.py
def passes_fairness(inst: Instance, asg: RiskAssignment, tolerance: Optional[Fraction] = None) -> bool:
    """Fast verdict with early exits.

    tolerance None checks the exact conditions; otherwise every calibration
    residual and each balance gap must be at most tolerance in absolute value.
    Agrees with audit_exact(...).fair when tolerance is None.
    """
    gs = derived_stats(inst)
    rows = assignment_rows_for(inst, asg)
    tol = Fraction(0) if tolerance is None else tolerance
    mass, positive = _accumulate_bins(inst.features, rows, asg.bin_count)
    return _fair_from_parts(gs, asg.scores, mass, positive, tol)


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
    tolerance: Optional[Fraction] = None,
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
        if not passes_fairness(inst, asg, tolerance):
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


# from riskaudit/audit.py, before the integer bin table
def _exact_report(gs, scores, mass, positive) -> AuditReport:
    residuals = tuple(
        tuple(g - v * m for v, m, g in zip(scores, mass[i], positive[i])) for i in range(2)
    )
    calibration_ok = all(r == 0 for per_group in residuals for r in per_group)
    pos_score, total = _class_scores(scores, mass, positive)
    pos_avg, neg_avg = _class_averages(gs, pos_score, total)

    pos_vacuous = pos_avg[0] is None or pos_avg[1] is None
    pos_ok = True if pos_vacuous else pos_avg[0] == pos_avg[1]
    neg_vacuous = neg_avg[0] is None or neg_avg[1] is None
    neg_ok = True if neg_vacuous else neg_avg[0] == neg_avg[1]

    return AuditReport(
        calibration_ok=calibration_ok,
        calibration_residuals=residuals,
        expected_score_total=total,
        pos_class_avg=pos_avg,
        neg_class_avg=neg_avg,
        balance_pos_ok=pos_ok,
        balance_pos_vacuous=pos_vacuous,
        balance_neg_ok=neg_ok,
        balance_neg_vacuous=neg_vacuous,
        parity_gap=total[0] / gs.population[0] - total[1] / gs.population[1],
        fair=calibration_ok and pos_ok and neg_ok,
    )


# from riskaudit/audit.py, before the integer bin table
def _consequence(gs, report: AuditReport, slack: Fraction) -> ConsequenceFlags:
    near_perfect = all(avg is None or avg >= 1 - slack for avg in report.pos_class_avg)
    near_equal = abs(gs.base_rate[0] - gs.base_rate[1]) <= slack
    return ConsequenceFlags(
        slack=slack,
        near_perfect_prediction=near_perfect,
        near_equal_base_rates=near_equal,
    )


# from riskaudit/audit.py, before the integer bin table
def _approx_report(gs, e: Fraction, slack: Fraction, scores, mass, positive) -> ApproxAuditReport:
    exact = _exact_report(gs, scores, mass, positive)
    lo, hi = 1 - e, 1 + e
    calib_ok = all(
        lo * (v * m) <= g <= hi * (v * m)
        for i in range(2)
        for v, m, g in zip(scores, mass[i], positive[i])
    )

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
        consequence=_consequence(gs, exact, slack),
    )


# from riskaudit/audit.py, before the integer bin table
def _class_scores(scores, mass, positive) -> tuple[PerGroup, PerGroup]:
    """Per group: the score received by the positive class, and by everyone."""
    pos_score = []
    total = []
    for i in range(2):
        a = Fraction(0)
        t = Fraction(0)
        for v, m, g in zip(scores, mass[i], positive[i]):
            if g:
                a += g * v
            if m:
                t += m * v
        pos_score.append(a)
        total.append(t)
    return (pos_score[0], pos_score[1]), (total[0], total[1])


# from riskaudit/audit.py, before the integer bin table
def _class_averages(gs, pos_score, total):
    """Per group: the positive and the negative class's average score, None
    for an empty class."""
    pos_avg = []
    neg_avg = []
    for i in range(2):
        mu = gs.positive_mass[i]
        neg_mass = gs.population[i] - mu
        pos_avg.append(pos_score[i] / mu if mu > 0 else None)
        neg_avg.append((total[i] - pos_score[i]) / neg_mass if neg_mass > 0 else None)
    return (pos_avg[0], pos_avg[1]), (neg_avg[0], neg_avg[1])


# from riskaudit/solver.py, before the integer bin table
_ONE = Fraction(1)


# from riskaudit/solver.py, before the integer bin table
_ZERO = Fraction(0)


# from riskaudit/solver.py, before the integer bin table
def _pooled_bins(features, blocks):
    """Scores and allocation rows of the integral assignment whose bins are
    `blocks` of feature positions, in block order (see
    assignment_from_partition)."""
    scores = []
    bin_of = [0] * len(features)
    for block in blocks:
        mass = sum((features[i].total for i in block), Fraction(0))
        if mass == 0:
            continue
        weighted = sum((features[i].total * features[i].p for i in block), Fraction(0))
        for i in block:
            bin_of[i] = len(scores)
        scores.append(weighted / mass)
    if not scores:
        raise DomainError("no block carries any people")
    nbins = len(scores)
    rows = tuple(
        tuple(_ONE if b == hot else _ZERO for b in range(nbins)) for hot in bin_of
    )
    return tuple(scores), rows


# from riskaudit/solver.py, before the integer bin table
def _integral_candidates(inst: Instance, cap: Optional[int]):
    """(blocks, scores, rows) of each partition in canonical order, at most
    cap + 1 of them. Blocks are ordered by smallest feature id, as in the id
    partition, so each candidate equals assignment_from_partition's."""
    ids = inst.ids
    gen = enumerate_partitions(len(ids), cap=None if cap is None else cap + 1)
    for index_part in gen:
        blocks = sorted(index_part.blocks, key=lambda block: min(ids[i] for i in block))
        yield (blocks, *_pooled_bins(inst.features, blocks))


# from riskaudit/sweep.py, before the integer bin table
_EIGHTHS = tuple(Fraction(j, 8) for j in range(9))


# from riskaudit/sweep.py, before the integer bin table
_FRAC_CACHE: dict[tuple[int, int], Fraction] = {}


# from riskaudit/sweep.py, before the integer bin table
def _q(num: int, den: int) -> Fraction:
    key = (num, den)
    got = _FRAC_CACHE.get(key)
    if got is None:
        got = _FRAC_CACHE[key] = Fraction(num, den)
    return got


# from riskaudit/sweep.py, before the integer bin table
def _pooled_exact(inst: Instance, weights, pooled_rate: Fraction):
    rows = tuple(
        tuple(_q(w, sum(wrow)) for w in wrow) for wrow in weights
    )
    table = _accumulate_bins(inst.features, rows, len(weights[0]))
    scores = tuple(
        (g1 + g2) / (m1 + m2) if m1 + m2 else pooled_rate
        for m1, m2, g1, g2 in zip(*table[0], *table[1])
    )
    return scores, rows, table


# from riskaudit/sweep.py, before the integer bin table
def _raw_assemble(inst: Instance, bins: list[tuple[Fraction, dict[int, int]]]):
    scores = tuple(v for v, _ in bins)
    rows = tuple(
        tuple(_EIGHTHS[alloc.get(i, 0)] for _, alloc in bins)
        for i in range(len(inst.features))
    )
    return scores, rows


# from riskaudit/sweep.py, before the integer bin table
_SCREEN = 1e-9


# from riskaudit/sweep.py, before the integer bin table
def _bins_float_parts(featsf, bins):
    # eighths are exact in binary, so these sums carry only the error of the
    # probability floats and the accumulation itself
    nbins = len(bins)
    scoresf = [float(v) for v, _ in bins]
    mass = [[0.0] * nbins, [0.0] * nbins]
    pos = [[0.0] * nbins, [0.0] * nbins]
    for b, (_, alloc) in enumerate(bins):
        for i, j in alloc.items():
            x = j * 0.125
            n1, n2, p = featsf[i]
            if n1:
                mass[0][b] += n1 * x
                pos[0][b] += n1 * p * x
            if n2:
                mass[1][b] += n2 * x
                pos[1][b] += n2 * p * x
    return scoresf, mass, pos


# from riskaudit/sweep.py, before the integer bin table
def _pooled_float_parts(featsf, weights, pooled_ratef):
    nbins = len(weights[0])
    mass = [[0.0] * nbins, [0.0] * nbins]
    pos = [[0.0] * nbins, [0.0] * nbins]
    for i, wrow in enumerate(weights):
        inv = 1.0 / sum(wrow)
        n1, n2, p = featsf[i]
        for b, w in enumerate(wrow):
            if not w:
                continue
            x = w * inv
            if n1:
                mass[0][b] += n1 * x
                pos[0][b] += n1 * p * x
            if n2:
                mass[1][b] += n2 * x
                pos[1][b] += n2 * p * x
    scoresf = []
    for b in range(nbins):
        m = mass[0][b] + mass[1][b]
        scoresf.append((pos[0][b] + pos[1][b]) / m if m else pooled_ratef)
    return scoresf, mass, pos


# from riskaudit/sweep.py, before the integer bin table
def _certainly_unfair(scoresf, mass, pos, muf, popf) -> bool:
    """True only when a fairness equation is violated by far more than the
    accumulated rounding error, so a True is a safe rejection. Margins scale
    with the magnitudes involved; degenerate classes are left to the exact
    path rather than judged here."""
    for i in (0, 1):
        mi, pi = mass[i], pos[i]
        for b, s in enumerate(scoresf):
            m = mi[b]
            if abs(pi[b] - s * m) > _SCREEN * (m if m > 1.0 else 1.0):
                return True
    ps = [0.0, 0.0]
    ts = [0.0, 0.0]
    for i in (0, 1):
        mi, pi = mass[i], pos[i]
        a = 0.0
        t = 0.0
        for b, s in enumerate(scoresf):
            if pi[b]:
                a += pi[b] * s
            if mi[b]:
                t += mi[b] * s
        ps[i] = a
        ts[i] = t
    mu0, mu1 = muf
    if mu0 and mu1:
        lim = _SCREEN * (mu0 * mu1 if mu0 * mu1 > 1.0 else 1.0)
        if abs(ps[0] * mu1 - ps[1] * mu0) > lim:
            return True
    nu0, nu1 = popf[0] - mu0, popf[1] - mu1
    if nu0 and nu1:
        lim = _SCREEN * (nu0 * nu1 if nu0 * nu1 > 1.0 else 1.0)
        if abs((ts[0] - ps[0]) * nu1 - (ts[1] - ps[1]) * nu0) > lim:
            return True
    return False


# from riskaudit/sweep.py, before the integer bin table
def _certainly_not_approx(scoresf, mass, pos, ef) -> bool:
    # relaxed per-bin calibration band, padded outward; balance bands are
    # left to the exact audit since only band-calibrated candidates remain
    lo = 1.0 - ef
    hi = 1.0 + ef
    for i in (0, 1):
        mi, pi = mass[i], pos[i]
        for b, s in enumerate(scoresf):
            sm = s * mi[b]
            pad = _SCREEN * (sm if sm > 1.0 else 1.0)
            g = pi[b]
            if g < lo * sm - pad or g > hi * sm + pad:
                return True
    return False


# from riskaudit/sweep.py, the candidate draws before they read rng.getrandbits
def _pooled_struct(k: int, rng: Random, max_bins=None) -> tuple[tuple[int, ...], ...]:
    nbins = rng.randint(1, max_bins or k + 2)
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


# from riskaudit/sweep.py, before the integer bin table
def theorem_sweep(
    inst: Instance,
    search_budget: int,
    eps,
    seed: int,
    *,
    integral_cap: Optional[int] = None,
) -> SweepReport:
    """Exhaust integral candidates, then stream seeded fractional ones.

    With eps = 0 only the exact side runs. A budget too small to finish the
    integral side is reported through integral_complete, never raised.
    """
    gs = derived_stats(inst)
    e = as_fraction(eps)
    if e < 0:
        raise DomainError("eps must be nonnegative")
    if search_budget < 0:
        raise DomainError("search budget must be nonnegative")
    gap = gs.base_rate[0] - gs.base_rate[1]
    perfect = is_perfect_prediction(inst)
    special = gap == 0 or perfect

    k = len(inst.features)
    integral_explored = 0
    integral_complete = True
    exact_fair_count = 0
    first_fair: Optional[RiskAssignment] = None
    exact_ce: Optional[RiskAssignment] = None
    approx_pass = 0
    approx_ce: Optional[RiskAssignment] = None

    order_ids = inst.ids
    slack = consequence_slack(e)

    def consider_raw(scores, rows, check_exact=True, check_approx=True, table=None) -> None:
        # one bin table gives both verdicts; an assignment is built only for
        # a candidate the report keeps
        nonlocal exact_fair_count, first_fair, exact_ce, approx_pass, approx_ce
        if table is None:
            table = _accumulate_bins(inst.features, rows, len(scores))
        mass, positive = table
        if check_exact and _fair_from_parts(gs, scores, mass, positive, Fraction(0)):
            exact_fair_count += 1
            asg = RiskAssignment(feature_ids=order_ids, scores=scores, rows=rows)
            if first_fair is None:
                first_fair = asg
            if not special and exact_ce is None:
                exact_ce = asg
        if e > 0 and check_approx:
            report = _approx_report(gs, e, slack, scores, mass, positive)
            if report.passed:
                approx_pass += 1
                if not report.consequence.any and approx_ce is None:
                    approx_ce = RiskAssignment(feature_ids=order_ids, scores=scores, rows=rows)

    for _, scores, rows in _integral_candidates(inst, integral_cap):
        if integral_cap is not None and integral_explored >= integral_cap:
            integral_complete = False
            break
        integral_explored += 1
        consider_raw(scores, rows)

    featsf = tuple((float(f.n1), float(f.n2), float(f.p)) for f in inst.features)
    muf = (float(gs.positive_mass[0]), float(gs.positive_mass[1]))
    popf = (float(gs.population[0]), float(gs.population[1]))
    pooled = _pooled_rate(gs)
    pooledf = float(pooled)
    ef = float(e)

    rng = Random(seed)
    fractional = 0
    for _ in range(search_budget):
        fractional += 1
        roll = rng.random()
        weights = None
        bins = None
        if roll < 0.6:
            weights = _pooled_struct(k, rng)
            scoresf, massf, posf = _pooled_float_parts(featsf, weights, pooledf)
        elif roll < 0.8 or e == 0:
            bins = _split_structure(inst, rng)
            scoresf, massf, posf = _bins_float_parts(featsf, bins)
        else:
            bins = _banded_bins(inst, rng, e)
            scoresf, massf, posf = _bins_float_parts(featsf, bins)
        check_exact = not _certainly_unfair(scoresf, massf, posf, muf, popf)
        check_approx = e > 0 and not _certainly_not_approx(scoresf, massf, posf, ef)
        if not (check_exact or check_approx):
            continue
        table = None
        if weights is not None:
            scores, rows, table = _pooled_exact(inst, weights, pooled)
        else:
            scores, rows = _raw_assemble(inst, bins)
        consider_raw(scores, rows, check_exact, check_approx, table)

    return SweepReport(
        seed=seed,
        epsilon=e,
        budget=search_budget,
        base_rate_gap=gap,
        perfect_prediction=perfect,
        integral_explored=integral_explored,
        integral_complete=integral_complete,
        fractional_explored=fractional,
        exact_fair_count=exact_fair_count,
        first_exact_fair=first_fair,
        exact_counterexample=exact_ce,
        approx_pass_count=approx_pass,
        approx_counterexample=approx_ce,
    )


# from riskaudit/solver.py, before the search pruned
def unpruned_integral_search(inst: Instance, cap: Optional[int], visit) -> tuple[int, bool]:
    scaled = _scaled(inst)
    explored = 0
    for labels in _growth_strings(len(inst.features)):
        if explored == cap:
            return explored, False
        explored += 1
        table, _ = _block_table(scaled, labels, max(labels) + 1)
        if visit(labels, table, *_pooled_scores(table, _ZERO)):
            break
    return explored, True


# from riskaudit/solver.py, before the search pruned
def unpruned_solve_integral(
    inst: Instance,
    objective: str = "any_fair",
    cap: Optional[int] = None,
    tolerance: Optional[Fraction] = None,
) -> SolveResult:
    require_valid(inst)
    best: Optional[tuple] = None

    def visit(labels, table, nums, dens) -> bool:
        nonlocal best
        if not (_fair(table, nums, dens, tolerance) and _nontrivial(table, nums, dens, tolerance)):
            return False
        report = _loss_report(table, nums, dens)
        if best is None or report.total < best[0].total:
            best = (report, labels)
        return objective == "any_fair"

    explored, complete = unpruned_integral_search(inst, cap, visit)
    if best is None:
        return SolveResult("none" if complete else "budget_exceeded", None, None, None, explored, 0)
    report, labels = best
    return SolveResult("found" if complete else "budget_exceeded", *_witness(inst, labels), report, explored, 0)


# from riskaudit/sweep.py, before the search pruned: theorem_sweep with a
# budget of 0, so only its integral half
def unpruned_integral_sweep(inst: Instance, eps, seed: int, integral_cap: Optional[int] = None) -> SweepReport:
    gs = derived_stats(inst)
    e = as_fraction(eps)
    gap = gs.base_rate[0] - gs.base_rate[1]
    perfect = is_perfect_prediction(inst)
    special = gap == 0 or perfect
    exact_fair_count = approx_pass = 0
    first_fair = exact_ce = approx_ce = None
    scaled = _scaled(inst)
    slack = consequence_slack(e)

    def visit(labels, table, nums, dens) -> bool:
        nonlocal exact_fair_count, first_fair, exact_ce, approx_pass, approx_ce
        if _fair(table, nums, dens):
            exact_fair_count += 1
            if first_fair is None:
                first_fair = _witness(inst, labels)[1]
                if not special:
                    exact_ce = first_fair
        if e > 0:
            report = _table_approx_report(scaled, e, slack, table, nums, dens)
            if report.passed:
                approx_pass += 1
                if not report.consequence.any and approx_ce is None:
                    approx_ce = _witness(inst, labels)[1]
        return False

    integral_explored, integral_complete = unpruned_integral_search(inst, integral_cap, visit)
    return SweepReport(
        seed=seed,
        epsilon=e,
        budget=0,
        base_rate_gap=gap,
        perfect_prediction=perfect,
        integral_explored=integral_explored,
        integral_complete=integral_complete,
        fractional_explored=0,
        exact_fair_count=exact_fair_count,
        first_exact_fair=first_fair,
        exact_counterexample=exact_ce,
        approx_pass_count=approx_pass,
        approx_counterexample=approx_ce,
    )
