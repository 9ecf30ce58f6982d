"""Exact and approximate fairness audits of a risk assignment.

Three conditions are audited. Calibration within groups: in every bin, each
group's expected positive mass equals score times mass. Balance for the
negative class: the mass-weighted average score received by each group's
negative class is the same in both groups. Balance for the positive class:
likewise for the positive class. All checks run in exact rational arithmetic;
the approximate audit relaxes each equality to a two-sided multiplicative
band of width eps.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional

from .errors import DomainError
from .model import (
    Instance,
    RiskAssignment,
    as_fraction,
    assignment_rows_for,
    derived_stats,
)

PerGroup = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class BinStats:
    """Per-group, per-bin aggregates (group-major: index 0 is group 1).

    mass: people of the group in the bin.
    positive: expected positives of the group in the bin.
    score_mass: bin score times mass, the calibration target for `positive`.
    """

    mass: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    positive: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    score_mass: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]


def bin_statistics(inst: Instance, asg: RiskAssignment) -> BinStats:
    """Aggregate the allocation against the instance, bin by bin."""
    mass, positive = _bin_table(inst, asg)
    return BinStats(
        mass=(tuple(mass[0]), tuple(mass[1])),
        positive=(tuple(positive[0]), tuple(positive[1])),
        score_mass=tuple(  # type: ignore[arg-type]
            tuple(v * m for v, m in zip(asg.scores, mass[i])) for i in range(2)
        ),
    )


@dataclass(frozen=True)
class AuditReport:
    """Exact audit outcome.

    `pos_class_avg` and `neg_class_avg` are None for a group whose positive
    (resp. negative) class is empty; the corresponding balance condition is
    then vacuously true and flagged vacuous.
    """

    calibration_ok: bool
    calibration_residuals: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    expected_score_total: PerGroup
    pos_class_avg: tuple[Optional[Fraction], Optional[Fraction]]
    neg_class_avg: tuple[Optional[Fraction], Optional[Fraction]]
    balance_pos_ok: bool
    balance_pos_vacuous: bool
    balance_neg_ok: bool
    balance_neg_vacuous: bool
    parity_gap: Fraction
    fair: bool


def audit_exact(inst: Instance, asg: RiskAssignment) -> AuditReport:
    """Audit all three fairness conditions with exact arithmetic."""
    gs = derived_stats(inst)
    return _exact_report(gs, asg.scores, *_bin_table(inst, asg))


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


def statistical_parity_gap(inst: Instance, asg: RiskAssignment) -> Fraction:
    """Difference of per-person expected score between the groups."""
    return audit_exact(inst, asg).parity_gap


_SQRT_SCALE = 1 << 128


def _sqrt_upper(x: Fraction) -> tuple[Fraction, bool]:
    """Exact square root when it is rational, else a tight rational upper bound.

    The bound rounds up at granularity 2**-128. Returns (value, exact).
    """
    if x < 0:
        raise DomainError("square root of a negative value")
    a, b = x.numerator, x.denominator
    ra, rb = isqrt(a), isqrt(b)
    if ra * ra == a and rb * rb == b:
        return Fraction(ra, rb), True
    t = a * _SQRT_SCALE * _SQRT_SCALE
    q = isqrt(t // b)
    while q * q * b < t:
        q += 1
    return Fraction(q, _SQRT_SCALE), False


def consequence_slack(eps) -> Fraction:
    """Slack allowed in the two consequence conditions for tolerance eps.

    Computed as sqrt(eps) * max(1, 3*sqrt(eps) + 3/4). Exact whenever
    sqrt(eps) is rational; otherwise sqrt(eps) is replaced by a rational
    upper bound at granularity 2**-128, which keeps the result an upper
    bound because the formula is nondecreasing in sqrt(eps).
    """
    e = as_fraction(eps)
    if e < 0:
        raise DomainError("eps must be nonnegative")
    s, _ = _sqrt_upper(e)
    return s * max(Fraction(1), 3 * s + Fraction(3, 4))


@dataclass(frozen=True)
class ConsequenceFlags:
    """Which of the two consequences holds at the given slack.

    near_perfect_prediction: every nonempty positive class has average score
    at least 1 - slack. near_equal_base_rates: the base rates differ by at
    most slack.
    """

    slack: Fraction
    near_perfect_prediction: bool
    near_equal_base_rates: bool

    @property
    def any(self) -> bool:
        return self.near_perfect_prediction or self.near_equal_base_rates


def classify_consequence(inst: Instance, asg: RiskAssignment, eps) -> ConsequenceFlags:
    """Evaluate both consequence conditions at slack consequence_slack(eps).

    A group with an empty positive class counts as perfectly predicted: its
    whole population is certain-negative, so the near-perfect flag ignores it.
    """
    slack = consequence_slack(eps)
    gs = derived_stats(inst)
    report = _exact_report(gs, asg.scores, *_bin_table(inst, asg))
    return _consequence(gs, report, slack)


def _consequence(gs, report: AuditReport, slack: Fraction) -> ConsequenceFlags:
    near_perfect = all(avg is None or avg >= 1 - slack for avg in report.pos_class_avg)
    near_equal = abs(gs.base_rate[0] - gs.base_rate[1]) <= slack
    return ConsequenceFlags(
        slack=slack,
        near_perfect_prediction=near_perfect,
        near_equal_base_rates=near_equal,
    )


@dataclass(frozen=True)
class ApproxAuditReport:
    """Relaxed audit outcome at tolerance eps, plus the consequence flags."""

    epsilon: Fraction
    calibration_ok: bool
    balance_pos_ok: bool
    balance_pos_vacuous: bool
    balance_neg_ok: bool
    balance_neg_vacuous: bool
    passed: bool
    consequence: ConsequenceFlags


def _ratio_band_ok(x: Fraction, y: Fraction, eps: Fraction) -> bool:
    # two-sided multiplicative band, both orderings; zero cases follow the
    # limit of the ratio form: 0 vs 0 passes, 0 vs positive needs eps >= 1
    if x == 0 and y == 0:
        return True
    if x == 0 or y == 0:
        return eps >= 1
    lo, hi = 1 - eps, 1 + eps
    return (lo * y <= x <= hi * y) and (lo * x <= y <= hi * x)


def audit_approx(inst: Instance, asg: RiskAssignment, eps) -> ApproxAuditReport:
    """Audit the relaxed conditions at tolerance eps (eps = 0 is the exact audit).

    Calibration relaxes per bin and group to a multiplicative band around
    score times mass. Each balance condition relaxes to the band between the
    two group averages, required in both orderings.
    """
    e = as_fraction(eps)
    if e < 0:
        raise DomainError("eps must be nonnegative")
    gs = derived_stats(inst)
    return _approx_report(gs, e, consequence_slack(e), asg.scores, *_bin_table(inst, asg))


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


def _accumulate_bins(features, rows, nbins):
    """The bin table: group-major mass and expected positives per bin.

    Every audit, loss and search verdict reads this one aggregation; the
    people mass of bin b is mass[0][b] + mass[1][b].
    """
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


def _bin_table(inst: Instance, asg: RiskAssignment):
    return _accumulate_bins(inst.features, assignment_rows_for(inst, asg), asg.bin_count)


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


def _calibrated(scores, mass, positive, tol: Fraction = Fraction(0)) -> bool:
    return all(
        abs(g - v * m) <= tol
        for i in range(2)
        for v, m, g in zip(scores, mass[i], positive[i])
    )


def _fair_from_parts(gs, scores, mass, positive, tol: Fraction) -> bool:
    if not _calibrated(scores, mass, positive, tol):
        return False
    for avgs in _class_averages(gs, *_class_scores(scores, mass, positive)):
        if avgs[0] is not None and avgs[1] is not None and abs(avgs[0] - avgs[1]) > tol:
            return False
    return True


def passes_fairness(inst: Instance, asg: RiskAssignment, tolerance: Optional[Fraction] = None) -> bool:
    """Fast verdict with early exits.

    tolerance None checks the exact conditions; otherwise every calibration
    residual and each balance gap must be at most tolerance in absolute value.
    Agrees with audit_exact(...).fair when tolerance is None.
    """
    gs = derived_stats(inst)
    tol = Fraction(0) if tolerance is None else tolerance
    return _fair_from_parts(gs, asg.scores, *_bin_table(inst, asg), tol)
