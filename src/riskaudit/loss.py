"""Loss accounting and the interpolation route to fair assignments.

The loss of an assignment charges each person twice the gap between their
outcome probability's contribution and the score mass their positive class
actually receives: per group it equals 2 * (positive mass - score received by
the positive class). For a calibrated assignment this is 2 * mu * (1 - a)
where a is the positive-class average score.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .audit import (
    _bin_table,
    _calibrated_within,
    _classes,
    _exact_report,
    _pooled_assignment,
    _Table,
    audit_exact,
)
from .errors import DegenerateGroupError, DomainError
from .model import (
    Instance,
    RiskAssignment,
    _assignment,
    _read_rational,
    _row_order,
    _scaled,
    derived_stats,
    require_valid,
)

PerGroup = tuple[Fraction, Fraction]


class LossReport(NamedTuple):
    per_group: PerGroup
    total: Fraction


def loss(inst: Instance, asg: RiskAssignment) -> LossReport:
    """Exact expected loss per group and in total."""
    return _loss_report(_bin_table(inst, asg))


def _loss_report(table: _Table) -> LossReport:
    c, pos, _ = _classes(table)
    # per group: 2 * (positive mass - score received by the positive class)
    per = tuple(Fraction(2 * (c * mu - a), c * table.scale) for a, mu in pos)
    return LossReport(per_group=per, total=per[0] + per[1])  # type: ignore[arg-type]


def identity_assignment(inst: Instance) -> RiskAssignment:
    """One bin per feature, scored at the feature's own probability."""
    require_valid(inst)
    k = len(inst.features)
    rows = [[int(b == i) for b in range(k)] for i in range(k)]
    return _assignment(inst, rows, [f.p for f in inst.features])


def trivial_assignment(inst: Instance) -> RiskAssignment:
    """The one-bin pooled table's assignment: everyone in a single bin,
    scored at the pooled positive rate of the whole population."""
    return _pooled_assignment(inst, [(1,)] * len(_scaled(inst).weights))


class FairnessDifference(NamedTuple):
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
    d = _difference(audit_exact(inst, asg))
    return FairnessDifference(difference=d, favors_group1=d >= 0, favors_group2=d <= 0)


def _difference(report) -> Fraction:
    a1, a2 = report.pos_class_avg
    if a1 is None or a2 is None:
        raise DegenerateGroupError("both groups need a nonempty positive class")
    return a1 - a2


def _nontrivial(table: _Table) -> bool:
    """Two distinct scores carry people mass, compared by cross-multiplying."""
    populated = [(n, d) for n, d, m1, m2 in zip(table.nums, table.dens, *table.mass) if m1 + m2 > 0]
    n0, d0 = populated[0]  # rows sum to 1 and each group has mass, so some bin holds people
    return any(n * d0 != n0 * d for n, d in populated)


def is_nontrivial(inst: Instance, asg: RiskAssignment) -> bool:
    """True when at least two distinct scores carry positive people mass.

    Zero-mass bins are ignored, and bins sharing a score count once: an
    assignment that scores everyone identically is trivial however many
    bins it spreads them over.
    """
    return _nontrivial(_bin_table(inst, asg))


def normalize_assignment(inst: Instance, asg: RiskAssignment) -> RiskAssignment:
    """Display form: drop zero-mass bins, merge equal-score bins, sort by score.

    Audit-equivalent to the input. Allocation that zero-mass features sent to
    dropped bins is moved to the first kept bin so rows still sum to 1.
    """
    table = _bin_table(inst, asg)
    masses = [m1 + m2 for m1, m2 in zip(*table.mass)]
    scores = sorted({v for v, m in zip(asg.scores, masses) if m > 0})
    # each bin's column in the result: its score's, or 0 for a dropped bin
    column = [scores.index(v) if m > 0 else 0 for v, m in zip(asg.scores, masses)]
    rows = []
    for i in _row_order(inst, asg):
        row = [0] * len(scores)
        for b, x in enumerate(asg._int_rows[i]):
            row[column[b]] += x
        rows.append(row)
    return _assignment(inst, rows, scores)


def interpolate(inst: Instance, asg1: RiskAssignment, asg2: RiskAssignment, lam) -> RiskAssignment:
    """Mix two calibrated assignments by routing each person to the first with
    probability lam and to the second otherwise.

    The result keeps both bin lists side by side, zero-mass bins included, and
    is itself calibrated. Its fairness difference is the lam-weighted average
    of the inputs' differences.
    """
    w = _read_rational(lam, "interpolation weight")
    if not (0 <= w <= 1):
        raise DomainError(f"interpolation weight {w} outside [0, 1]")
    for name, asg in (("first", asg1), ("second", asg2)):
        if not _calibrated_within(_bin_table(inst, asg), 0):
            raise DomainError(f"{name} assignment is not calibrated on this instance")
    return _mix(inst, asg1, asg2, w)


def _mix(inst: Instance, asg1: RiskAssignment, asg2: RiskAssignment, w: Fraction) -> RiskAssignment:
    # at w = a/b, a row is a * s2 * r1 then (b - a) * s1 * r2, over b * s1 * s2
    a, b = w.numerator, w.denominator
    rows = []
    for i, j in zip(_row_order(inst, asg1), _row_order(inst, asg2)):
        r1, r2 = asg1._int_rows[i], asg2._int_rows[j]
        s1, s2 = sum(r1), sum(r2)
        rows.append([a * s2 * x for x in r1] + [(b - a) * s1 * y for y in r2])
    return _assignment(inst, rows, asg1.scores + asg2.scores)


def target_lambda(d1, d2, d3) -> Fraction:
    """Weight that makes the interpolated fairness difference hit d3.

    Requires d1 != d2 and d3 between them; the result then lies in [0, 1].
    """
    a, b, c = _read_rational(d1, "d1"), _read_rational(d2, "d2"), _read_rational(d3, "d3")
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
        table = _bin_table(inst, asg)
        report = _exact_report(table)
        if not report.calibration_ok:
            raise DomainError(f"candidate {idx} is not calibrated")
        if not _nontrivial(table):
            raise DomainError(f"candidate {idx} is trivial")
        diffs.append(_difference(report))

    for asg, d in zip(candidates, diffs):
        if d == 0:
            return asg
    pos = next((i for i, d in enumerate(diffs) if d > 0), None)
    neg = next((i for i, d in enumerate(diffs) if d < 0), None)
    if pos is None or neg is None:
        return None
    w = target_lambda(diffs[pos], diffs[neg], 0)
    return _mix(inst, candidates[pos], candidates[neg], w)
