"""Loss accounting and the interpolation route to fair assignments.

The loss of an assignment charges each person twice the gap between their
outcome probability's contribution and the score mass their positive class
actually receives: per group it equals 2 * (positive mass - score received by
the positive class). For a calibrated assignment this is 2 * mu * (1 - a)
where a is the positive-class average score.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .audit import _accumulate_bins, _bin_table, _calibrated, _class_scores, audit_exact
from .errors import DegenerateGroupError, DomainError
from .model import (
    Instance,
    RiskAssignment,
    as_fraction,
    assignment_rows_for,
    derived_stats,
    require_valid,
)

PerGroup = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class LossReport:
    per_group: PerGroup
    total: Fraction


def loss(inst: Instance, asg: RiskAssignment) -> LossReport:
    """Exact expected loss per group and in total."""
    gs = derived_stats(inst)
    mass, positive = _bin_table(inst, asg)
    return _loss_report(gs, _class_scores(asg.scores, mass, positive)[0])


def _loss_report(gs, pos_score) -> LossReport:
    per = (2 * (gs.positive_mass[0] - pos_score[0]), 2 * (gs.positive_mass[1] - pos_score[1]))
    return LossReport(per_group=per, total=per[0] + per[1])


def identity_assignment(inst: Instance) -> RiskAssignment:
    """One bin per feature, scored at the feature's own probability."""
    require_valid(inst)
    k = len(inst.features)
    rows = tuple(
        tuple(Fraction(1) if b == i else Fraction(0) for b in range(k)) for i in range(k)
    )
    return RiskAssignment(
        feature_ids=tuple(f.id for f in inst.features),
        scores=tuple(f.p for f in inst.features),
        rows=rows,
    )


def trivial_assignment(inst: Instance) -> RiskAssignment:
    """A single bin scored at the pooled base rate of the whole population."""
    gs = derived_stats(inst)
    pooled = (gs.positive_mass[0] + gs.positive_mass[1]) / (
        gs.population[0] + gs.population[1]
    )
    return RiskAssignment(
        feature_ids=tuple(f.id for f in inst.features),
        scores=(pooled,),
        rows=tuple((Fraction(1),) for _ in inst.features),
    )


@dataclass(frozen=True)
class FairnessDifference:
    """Gap between the groups' positive-class average scores.

    Nonnegative difference means the assignment weakly favors group 1,
    nonpositive means it weakly favors group 2; zero means both.
    """

    difference: Fraction
    favors_group1: bool
    favors_group2: bool


def fairness_difference(inst: Instance, asg: RiskAssignment) -> FairnessDifference:
    """Positive-class average gap, group 1 minus group 2.

    Both positive classes must be nonempty.
    """
    a1, a2 = audit_exact(inst, asg).pos_class_avg
    if a1 is None or a2 is None:
        raise DegenerateGroupError("both groups need a nonempty positive class")
    d = a1 - a2
    return FairnessDifference(difference=d, favors_group1=d >= 0, favors_group2=d <= 0)


# A pooled score is a convex combination of probabilities, so rounding an
# instance's numbers through doubles moves it by a few units of 2**-53 at
# most. Scores further apart than this are distinct whatever the tolerance.
_ROUNDING = Fraction(1, 1 << 40)


def _nontrivial(scores, mass, tolerance: Optional[Fraction] = None) -> bool:
    """The populated scores spread by more than min(tolerance, _ROUNDING);
    with no tolerance, that is two distinct populated scores."""
    populated = [v for v, m1, m2 in zip(scores, mass[0], mass[1]) if m1 + m2 > 0]
    tol = Fraction(0) if tolerance is None else min(tolerance, _ROUNDING)
    return bool(populated) and max(populated) - min(populated) > tol


def is_nontrivial(inst: Instance, asg: RiskAssignment) -> bool:
    """True when at least two distinct scores carry positive people mass.

    Zero-mass bins are ignored, and bins sharing a score count once: an
    assignment that scores everyone identically is trivial however many
    bins it spreads them over.
    """
    mass, _ = _bin_table(inst, asg)
    return _nontrivial(asg.scores, mass)


def normalize_assignment(inst: Instance, asg: RiskAssignment) -> RiskAssignment:
    """Display form: drop zero-mass bins, merge equal-score bins, sort by score.

    Audit-equivalent to the input. Allocation that zero-mass features sent to
    dropped bins is moved to the first kept bin so rows still sum to 1.
    """
    rows_in = assignment_rows_for(inst, asg)
    mass, _ = _accumulate_bins(inst.features, rows_in, asg.bin_count)
    masses = [m1 + m2 for m1, m2 in zip(*mass)]
    kept = [b for b in range(asg.bin_count) if masses[b] > 0]
    if not kept:
        raise DomainError("assignment carries no people")
    scores = sorted({asg.scores[b] for b in kept})
    groups = {v: [b for b in kept if asg.scores[b] == v] for v in scores}
    dropped = [b for b in range(asg.bin_count) if masses[b] == 0]

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


def interpolate(inst: Instance, asg1: RiskAssignment, asg2: RiskAssignment, lam) -> RiskAssignment:
    """Mix two calibrated assignments by routing each person to the first with
    probability lam and to the second otherwise.

    The result keeps both bin lists side by side, zero-mass bins included, and
    is itself calibrated. Its fairness difference is the lam-weighted average
    of the inputs' differences.
    """
    w = as_fraction(lam)
    if not (0 <= w <= 1):
        raise DomainError(f"interpolation weight {w} outside [0, 1]")
    require_valid(inst)
    for name, asg in (("first", asg1), ("second", asg2)):
        if not _calibrated(asg.scores, *_bin_table(inst, asg)):
            raise DomainError(f"{name} assignment is not calibrated on this instance")
    order = tuple(f.id for f in inst.features)
    rows = []
    for fid in order:
        r1 = asg1.row(fid)
        r2 = asg2.row(fid)
        rows.append(tuple(w * x for x in r1) + tuple((1 - w) * x for x in r2))
    return RiskAssignment(
        feature_ids=order,
        scores=asg1.scores + asg2.scores,
        rows=tuple(rows),
    )


def target_lambda(d1, d2, d3) -> Fraction:
    """Weight that makes the interpolated fairness difference hit d3.

    Requires d1 != d2 and d3 between them; the result then lies in [0, 1].
    """
    a, b, c = as_fraction(d1), as_fraction(d2), as_fraction(d3)
    if a == b:
        raise DomainError("endpoint differences are equal; no unique weight exists")
    if not (min(a, b) <= c <= max(a, b)):
        raise DomainError(f"target {c} outside [{min(a, b)}, {max(a, b)}]")
    return (b - c) / (b - a)


def find_fair_nontrivial(
    inst: Instance, candidates: Sequence[RiskAssignment]
) -> Optional[RiskAssignment]:
    """Build a fair non-trivial assignment from calibrated non-trivial candidates.

    Requires equal base rates. If some candidate already has zero fairness
    difference it is returned as is; otherwise the first candidate weakly
    favoring group 1 is interpolated with the first weakly favoring group 2
    at the weight that cancels the difference. Returns None when every
    candidate favors the same group strictly.
    """
    gs = derived_stats(inst)
    if gs.base_rate[0] != gs.base_rate[1]:
        raise DomainError("equal base rates required")
    diffs = []
    for idx, asg in enumerate(candidates):
        report = audit_exact(inst, asg)
        if not report.calibration_ok:
            raise DomainError(f"candidate {idx} is not calibrated")
        if not is_nontrivial(inst, asg):
            raise DomainError(f"candidate {idx} is trivial")
        diffs.append(fairness_difference(inst, asg).difference)

    for asg, d in zip(candidates, diffs):
        if d == 0:
            return asg
    pos = next((i for i, d in enumerate(diffs) if d > 0), None)
    neg = next((i for i, d in enumerate(diffs) if d < 0), None)
    if pos is None or neg is None:
        return None
    w = target_lambda(diffs[pos], diffs[neg], 0)
    return interpolate(inst, candidates[pos], candidates[neg], w)
