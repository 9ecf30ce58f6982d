"""Exact and approximate fairness audits of a risk assignment.

Three conditions are audited. Calibration within groups: in every bin, each
group's expected positive mass equals score times mass. Balance for the
negative class: the mass-weighted average score received by each group's
negative class is the same in both groups. Balance for the positive class:
likewise for the positive class. All checks run in exact arithmetic: the
instance and the allocation are scaled to integers over common denominators,
every verdict is an integer cross-multiplication, and report fields are
`Fraction`s. The approximate audit relaxes each equality to a two-sided
multiplicative band of width eps.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import lcm
from operator import add, mul
from typing import NamedTuple, Optional

from .model import (
    Instance,
    RiskAssignment,
    _assignment,
    _nonnegative,
    _require_type,
    _row_order,
    _scaled,
    _Scaled,
    _set,
    _sqrt_upper,
)

PerGroup = tuple[Fraction, Fraction]


class AuditReport(NamedTuple):
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
    return _exact_report(_bin_table(inst, asg))


_ZERO = Fraction(0)


def _exact_report(table: _Table) -> AuditReport:
    s = table.scale
    # most residuals of a calibrated bin are zero, and they share one Fraction
    residuals = tuple(
        tuple(Fraction(r, d * s) if (r := g * d - n * m) else _ZERO
              for n, d, m, g in zip(table.nums, table.dens, mass, positive))
        for mass, positive in zip(table.mass, table.positive)
    )
    c, pos, neg = _classes(table)
    calibration_ok = not any(map(any, residuals))  # the band at eps 0: every residual is zero
    pos_ok, neg_ok = _balanced_within(pos, 0), _balanced_within(neg, 0)
    (t0, t1), (n0, n1) = ([a + b for (a, _), (b, _) in zip(pos, neg)],
                          [mu + nu for (_, mu), (_, nu) in zip(pos, neg)])
    return AuditReport(
        calibration_ok=calibration_ok,
        calibration_residuals=residuals,  # type: ignore[arg-type]
        expected_score_total=(Fraction(t0, c * s), Fraction(t1, c * s)),
        pos_class_avg=_averages(pos, c),
        neg_class_avg=_averages(neg, c),
        balance_pos_ok=pos_ok,
        balance_pos_vacuous=_vacuous(pos),
        balance_neg_ok=neg_ok,
        balance_neg_vacuous=_vacuous(neg),
        # t0 / (c * n0) - t1 / (c * n1), as one Fraction
        parity_gap=Fraction(t0 * n1 - t1 * n0, c * n0 * n1),
        fair=calibration_ok and pos_ok and neg_ok,
    )


def consequence_slack(eps) -> Fraction:
    """Slack allowed in the two consequence conditions at band width eps.

    Computed as sqrt(eps) * max(1, 3*sqrt(eps) + 3/4). Exact whenever
    sqrt(eps) is rational; otherwise sqrt(eps) is replaced by a rational
    upper bound at granularity 2**-128, which keeps the result an upper
    bound because the formula is nondecreasing in sqrt(eps). This is the
    slack reports show; the flags are decided against the exact value.
    """
    root, _ = _sqrt_upper(_nonnegative(eps, "eps"))
    # with sqrt(eps) = a / b, the slack is a * max(4b, 12a + 3b) / (4 b**2)
    a, b = root.numerator, root.denominator
    return Fraction(a * max(4 * b, 12 * a + 3 * b), 4 * b * b)


class ConsequenceFlags(NamedTuple):
    """Which of the two consequences holds at band width eps.

    near_perfect_prediction: every nonempty positive class has average score
    at least 1 - s. near_equal_base_rates: the base rates differ by at most
    s. Here s is the exact slack sqrt(eps) * max(1, 3 sqrt(eps) + 3/4), and
    `slack` is consequence_slack(eps), which equals s or bounds it above.
    """

    slack: Fraction
    near_perfect_prediction: bool
    near_equal_base_rates: bool

    @property
    def any(self) -> bool:
        return self.near_perfect_prediction or self.near_equal_base_rates


def classify_consequence(inst: Instance, asg: RiskAssignment, eps) -> ConsequenceFlags:
    """Evaluate both consequence conditions at band width eps.

    A group with an empty positive class counts as perfectly predicted: its
    whole population is certain-negative, so the near-perfect flag ignores it.
    """
    e = _nonnegative(eps, "eps")
    c, pos, _ = _classes(_bin_table(inst, asg))
    return _consequence(_scaled(inst), c, pos, e, consequence_slack(e))


def _within_slack(x: int, d: int, e: Fraction) -> bool:
    """Whether x / d is at most the exact slack sqrt(e) * max(1, 3 sqrt(e) + 3/4)
    for x >= 0 and d > 0, decided in integers by squaring. The slack is
    sqrt(e) when 144 e <= 1, and 3e + (3/4) sqrt(e) otherwise."""
    en, ed = e.numerator, e.denominator
    if 144 * en <= ed:
        return x * x * ed <= en * d * d
    y = x * ed - 3 * en * d  # (x / d - 3e) * d * ed
    return y <= 0 or 16 * y * y <= 9 * en * d * d * ed


def _consequence(scaled: _Scaled, c: int, pos, e: Fraction, slack: Fraction) -> ConsequenceFlags:
    """The flags at band width e, decided against the exact slack; `slack`,
    consequence_slack(e), is only reported."""
    n1, n2, mu1, mu2 = scaled.totals
    # 1 - a / (c * mu) and |mu1 / n1 - mu2 / n2| against the slack
    near_perfect = all(not mu or _within_slack(c * mu - a, c * mu, e) for a, mu in pos)
    near_equal = _within_slack(abs(mu1 * n2 - mu2 * n1), n1 * n2, e)
    return ConsequenceFlags(
        slack=slack,
        near_perfect_prediction=near_perfect,
        near_equal_base_rates=near_equal,
    )


class ApproxAuditReport(NamedTuple):
    """Relaxed audit outcome at band width eps, plus the consequence flags."""

    epsilon: Fraction
    calibration_ok: bool
    balance_pos_ok: bool
    balance_pos_vacuous: bool
    balance_neg_ok: bool
    balance_neg_vacuous: bool
    passed: bool
    consequence: ConsequenceFlags


def audit_approx(inst: Instance, asg: RiskAssignment, eps) -> ApproxAuditReport:
    """Audit the relaxed conditions at band width eps (eps = 0 is the exact audit).

    Calibration relaxes per bin and group to a multiplicative band around
    score times mass. Each balance condition relaxes to the band between the
    two group averages, required in both orderings.
    """
    e = _nonnegative(eps, "eps")
    return _approx_report(_scaled(inst), e, consequence_slack(e), _bin_table(inst, asg))


def _approx_report(scaled: _Scaled, e: Fraction, slack: Fraction, table: _Table) -> ApproxAuditReport:
    calib_ok = _calibrated_within(table, e)
    c, pos, neg = _classes(table)
    pos_ok = _balanced_within(pos, e)
    neg_ok = _balanced_within(neg, e)
    return ApproxAuditReport(
        epsilon=e,
        calibration_ok=calib_ok,
        balance_pos_ok=pos_ok,
        balance_pos_vacuous=_vacuous(pos),
        balance_neg_ok=neg_ok,
        balance_neg_vacuous=_vacuous(neg),
        passed=calib_ok and pos_ok and neg_ok,
        consequence=_consequence(scaled, c, pos, e, slack),
    )


# -- the integer bin table ----------------------------------------------------
#
# A table reads an instance's integer form (`model._scaled`, built once per
# instance) and integer allocation rows, each read as fractions of the row's
# sum (kept by a `RiskAssignment` from construction). Scores travel in the
# table as numerator and denominator lists.


class _Table:
    """Group-major mass and expected positives per bin, integers over
    `scale`, and the bin scores nums[b] / dens[b].

    Every audit, loss and search verdict reads this one value; the people
    mass of bin b is mass[0][b] + mass[1][b]. Because rows sum to one, a
    group's entries sum to its population (mass) or positive mass
    (positive), over the same scale. The columns never change after
    construction; `sums` keeps the class sums once a verdict reads them
    (see `_classes`). Tables with equal columns are equal.
    """

    __slots__ = ("mass", "positive", "scale", "nums", "dens", "sums")

    def __init__(self, mass: tuple[list[int], list[int]], positive: tuple[list[int], list[int]],
                 scale: int, nums: list[int], dens: list[int]):
        self.mass, self.positive, self.scale, self.nums, self.dens = mass, positive, scale, nums, dens
        self.sums = None

    def __eq__(self, other):
        return isinstance(other, _Table) and all(getattr(self, k) == getattr(other, k) for k in self.__slots__[:5])


def _accumulate_bins(scaled: _Scaled, rows, nbins: int):
    """The mass, positive and scale columns of a table (see _Table) of
    integer allocation rows."""
    sums = [sum(row) for row in rows]
    scale = lcm(*sums)
    bins = range(nbins)
    m0, m1, p0, p1 = ([0] * nbins for _ in range(4))
    for (n1, n2, q1, q2), row, total in zip(scaled.weights, rows, sums):
        f = scale // total
        for b in compress(bins, row):  # the bins the row sends people to
            x = row[b] * f
            m0[b] += n1 * x
            m1[b] += n2 * x
            p0[b] += q1 * x
            p1[b] += q2 * x
    return (m0, m1), (p0, p1), scale * scaled.denominator


def _pooled_within(m0: int, m1: int, p0: int, p1: int, e: Fraction) -> bool:
    """Whether a bin of group masses m0, m1 and expected positives p0, p1,
    scored at its pooled rate, lies in the calibration band of width e in
    both groups: _calibrated_within of its one-bin table, on which a common
    scale of the four sums has no effect. An empty bin passes."""
    en, ed = e.numerator, e.denominator
    if not en:  # at width 0 both groups' rates equal the pooled rate, p0 / m0 = p1 / m1
        return p0 * m1 == p1 * m0
    n, d = p0 + p1, m0 + m1
    lo, hi = (ed - en) * n, (ed + en) * n
    return lo * m0 <= p0 * d * ed <= hi * m0 and lo * m1 <= p1 * d * ed <= hi * m1


def _first_bin_within(columns, rows, e: Fraction) -> bool:
    """_pooled_within of the rows' first bin: _calibrated_within(_pooled(
    *_accumulate_bins(scaled, rows, 1)), e) for columns =
    tuple(zip(*scaled.weights)), without a table. A search screens a
    candidate on it before building the whole table."""
    sums = [sum(row) for row in rows]
    scale = lcm(*sums)
    xs = [row[0] * (scale // total) for row, total in zip(rows, sums)]
    n1, n2, q1, q2 = columns
    return _pooled_within(sum(map(mul, n1, xs)), sum(map(mul, n2, xs)),
                          sum(map(mul, q1, xs)), sum(map(mul, q2, xs)), e)


def _scored(scaled: _Scaled, rows, scores) -> _Table:
    """The table of integer allocation rows whose bins carry `scores`."""
    nums, dens = [v.numerator for v in scores], [v.denominator for v in scores]
    return _Table(*_accumulate_bins(scaled, rows, len(scores)), nums, dens)


def _bin_table(inst: Instance, asg: RiskAssignment) -> _Table:
    """The table of an assignment on a valid instance; raises
    InvalidInstanceError on an invalid one. The assignment keeps it with the
    instance's form: both are frozen and a form is built once per instance,
    so the form, held and compared by identity, names the pair."""
    _require_type(asg, RiskAssignment)
    _require_type(inst, Instance)
    kept = asg._table
    if kept is not None and kept[0] is inst._form:
        return kept[1]
    rows = [asg._int_rows[i] for i in _row_order(inst, asg)]
    scaled = _scaled(inst)
    table = _scored(scaled, rows, asg.scores)
    _set(asg, "_table", (scaled, table))
    return table


def _pooled(mass, positive, scale: int) -> _Table:
    """The table of these columns with each bin scored at its pooled
    positive rate. A bin with no people gets the whole table's pooled rate,
    which is the population's, since allocation rows sum to one."""
    nums = list(map(add, *positive))
    dens = list(map(add, *mass))
    if not all(dens):
        g, m = sum(nums), sum(dens)
        nums = [n if d else g for n, d in zip(nums, dens)]
        dens = [d or m for d in dens]
    return _Table(mass, positive, scale, nums, dens)


def _pooled_assignment(inst: Instance, rows, table: Optional[_Table] = None) -> RiskAssignment:
    """The assignment of `inst` with these integer allocation rows and each
    bin scored at its pooled positive rate (see _pooled), read off `table`,
    the rows' pooled table, which is built here when not given."""
    if table is None:
        table = _pooled(*_accumulate_bins(_scaled(inst), rows, len(rows[0])))
    return _assignment(inst, rows, map(Fraction, table.nums, table.dens))


def _classes(table: _Table):
    """Common score denominator c and, for the positive and the negative
    class, each group's (score received, class mass). A class average is
    score / (c * mass); both are integers over the table's scale. A table
    computes them on its first read and keeps them."""
    if table.sums is None:
        table.sums = _class_sums(table)
    return table.sums


def _class_sums(table: _Table):
    c = lcm(*table.dens)
    scores = [n * (c // d) for n, d in zip(table.nums, table.dens)]
    (m0, m1), (g0, g1) = table.mass, table.positive
    x0 = sum(map(mul, g0, scores))
    x1 = sum(map(mul, g1, scores))
    mu0 = sum(g0)
    mu1 = sum(g1)
    pos = ((x0, mu0), (x1, mu1))
    neg = ((sum(map(mul, m0, scores)) - x0, sum(m0) - mu0), (sum(map(mul, m1, scores)) - x1, sum(m1) - mu1))
    return c, pos, neg


def _vacuous(cls) -> bool:
    return not (cls[0][1] and cls[1][1])


def _averages(cls, c: int):
    return tuple(Fraction(a, c * m) if m else None for a, m in cls)


def _balances(table: _Table, e: Fraction) -> bool:
    """Both balance conditions, in the band of width e."""
    _, pos, neg = _classes(table)
    return _balanced_within(pos, e) and _balanced_within(neg, e)


def _fair(table: _Table) -> bool:
    """All three conditions, exactly: each is its band at width 0."""
    return _calibrated_within(table, 0) and _balances(table, 0)


def _calibrated_within(table: _Table, e: Fraction) -> bool:
    """Each bin's expected positives lie in the band [1 - e, 1 + e] times
    score times mass, in both groups. At e = 0 this is exact calibration."""
    en, ed = e.numerator, e.denominator
    lo, hi = ed - en, ed + en
    for mass, positive in zip(table.mass, table.positive):
        for n, d, m, g in zip(table.nums, table.dens, mass, positive):
            target = n * m
            g = g * d * ed
            if g < lo * target or g > hi * target:
                return False
    return True


def _balanced_within(cls, e: Fraction) -> bool:
    """The groups' class averages a0 / m0 and a1 / m1 lie in the two-sided
    multiplicative band of width e, both orderings, or a class is empty. At
    e = 0 the averages agree. The zero cases follow the limit of the ratio
    form: 0 against 0 passes, 0 against a positive average needs e >= 1."""
    (a0, m0), (a1, m1) = cls
    if not (m0 and m1):
        return True
    x, y = a0 * m1, a1 * m0
    if not (x and y):
        return x == y or e >= 1
    en, ed = e.numerator, e.denominator
    lo, hi = ed - en, ed + en
    return lo * y <= ed * x <= hi * y and lo * x <= ed * y <= hi * x


def passes_fairness(inst: Instance, asg: RiskAssignment) -> bool:
    """Fast verdict with early exits; agrees with audit_exact(...).fair."""
    return _fair(_bin_table(inst, asg))
