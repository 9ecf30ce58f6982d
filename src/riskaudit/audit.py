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
from math import isqrt, lcm
from operator import add, mul
from typing import NamedTuple, Optional

from .errors import DomainError
from .model import (
    Instance,
    RiskAssignment,
    _nonnegative,
    _row_order,
    _scaled,
    _Scaled,
    _set,
)

PerGroup = tuple[Fraction, Fraction]


class BinStats(NamedTuple):
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
    table = _bin_table(inst, asg)
    s, nums, dens = table.scale, table.nums, table.dens
    return BinStats(
        mass=tuple(tuple(Fraction(m, s) for m in mass) for mass in table.mass),  # type: ignore[arg-type]
        positive=tuple(tuple(Fraction(g, s) for g in pos) for pos in table.positive),  # type: ignore[arg-type]
        score_mass=tuple(  # type: ignore[arg-type]
            tuple(Fraction(n * m, d * s) for n, d, m in zip(nums, dens, mass)) for mass in table.mass
        ),
    )


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


def _exact_report(table: _Table) -> AuditReport:
    s = table.scale
    residuals = tuple(
        tuple(Fraction(g * d - n * m, d * s) for n, d, m, g in zip(table.nums, table.dens, mass, positive))
        for mass, positive in zip(table.mass, table.positive)
    )
    c, pos, neg = _classes(table)
    calibration_ok = _calibrated(table)
    pos_ok, neg_ok = _balanced(pos, c), _balanced(neg, c)
    total = [a + b for (a, _), (b, _) in zip(pos, neg)]
    population = [mu + nu for (_, mu), (_, nu) in zip(pos, neg)]
    return AuditReport(
        calibration_ok=calibration_ok,
        calibration_residuals=residuals,  # type: ignore[arg-type]
        expected_score_total=(Fraction(total[0], c * s), Fraction(total[1], c * s)),
        pos_class_avg=_averages(pos, c),
        neg_class_avg=_averages(neg, c),
        balance_pos_ok=pos_ok,
        balance_pos_vacuous=_vacuous(pos),
        balance_neg_ok=neg_ok,
        balance_neg_vacuous=_vacuous(neg),
        parity_gap=Fraction(total[0], c * population[0]) - Fraction(total[1], c * population[1]),
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
    bound because the formula is nondecreasing in sqrt(eps). This is the
    slack reports show; the flags are decided against the exact value.
    """
    root, _ = _sqrt_upper(_nonnegative(eps, "eps"))
    # with sqrt(eps) = a / b, the slack is a * max(4b, 12a + 3b) / (4 b**2)
    a, b = root.numerator, root.denominator
    return Fraction(a * max(4 * b, 12 * a + 3 * b), 4 * b * b)


class ConsequenceFlags(NamedTuple):
    """Which of the two consequences holds at tolerance eps.

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
    """Evaluate both consequence conditions at tolerance eps.

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
    """The flags at tolerance e, decided against the exact slack; `slack`,
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
    """Relaxed audit outcome at tolerance eps, plus the consequence flags."""

    epsilon: Fraction
    calibration_ok: bool
    balance_pos_ok: bool
    balance_pos_vacuous: bool
    balance_neg_ok: bool
    balance_neg_vacuous: bool
    passed: bool
    consequence: ConsequenceFlags


def _ratio_band_ok(x, y, eps: Fraction) -> bool:
    # two-sided multiplicative band, both orderings, on x and y given over
    # any common positive scale; zero cases follow the limit of the ratio
    # form: 0 vs 0 passes, 0 vs positive needs eps >= 1
    if x == 0 and y == 0:
        return True
    if x == 0 or y == 0:
        return eps >= 1
    en, ed = eps.numerator, eps.denominator
    lo, hi = ed - en, ed + en
    return lo * y <= ed * x <= hi * y and lo * x <= ed * y <= hi * x


def audit_approx(inst: Instance, asg: RiskAssignment, eps) -> ApproxAuditReport:
    """Audit the relaxed conditions at tolerance eps (eps = 0 is the exact audit).

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


class _Table(NamedTuple):
    """Group-major mass and expected positives per bin, integers over
    `scale`, and the bin scores nums[b] / dens[b].

    Every audit, loss and search verdict reads this one value; the people
    mass of bin b is mass[0][b] + mass[1][b]. Because rows sum to one, a
    group's entries sum to its population (mass) or positive mass
    (positive), over the same scale.
    """

    mass: tuple[list[int], list[int]]
    positive: tuple[list[int], list[int]]
    scale: int
    nums: list[int]
    dens: list[int]


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


def _first_bin_within(columns, rows, e: Fraction) -> bool:
    """Whether the rows' first bin, scored at its pooled rate, lies in the
    calibration band of width e in both groups:
    _calibrated_within(_pooled(*_accumulate_bins(scaled, rows, 1)), e) for
    columns = tuple(zip(*scaled.weights)), decided on four integer column
    sums without a table. The band test is homogeneous in the bin's column,
    so the instance's denominator drops out. An empty first bin passes. A
    search screens a candidate on it before building the whole table."""
    sums = [sum(row) for row in rows]
    scale = lcm(*sums)
    xs = [row[0] * (scale // total) for row, total in zip(rows, sums)]
    n1, n2, q1, q2 = columns
    m0, m1 = sum(map(mul, n1, xs)), sum(map(mul, n2, xs))
    p0, p1 = sum(map(mul, q1, xs)), sum(map(mul, q2, xs))
    n, d = p0 + p1, m0 + m1
    en, ed = e.numerator, e.denominator
    lo, hi = (ed - en) * n, (ed + en) * n
    return lo * m0 <= p0 * d * ed <= hi * m0 and lo * m1 <= p1 * d * ed <= hi * m1


def _scored(scaled: _Scaled, rows, scores) -> _Table:
    """The table of integer allocation rows whose bins carry `scores`."""
    nums, dens = [v.numerator for v in scores], [v.denominator for v in scores]
    return _Table(*_accumulate_bins(scaled, rows, len(scores)), nums, dens)


def _bin_table(inst: Instance, asg: RiskAssignment) -> _Table:
    """The table of an assignment on a valid instance; raises
    InvalidInstanceError on an invalid one. The assignment keeps it with the
    instance's form: both are frozen and a form is built once per instance,
    so the form, held and compared by identity, names the pair."""
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


def _classes(table: _Table):
    """Common score denominator c and, for the positive and the negative
    class, each group's (score received, class mass). A class average is
    score / (c * mass); both are integers over the table's scale."""
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


def _calibrated(table: _Table, tol: Optional[Fraction] = None) -> bool:
    """Each bin's expected positives equal score times mass in both groups;
    with a tolerance, to within it in absolute value."""
    nums, dens = table.nums, table.dens
    if not tol:
        (m0, m1), (g0, g1) = table.mass, table.positive
        return (
            list(map(mul, g0, dens)) == list(map(mul, nums, m0))
            and list(map(mul, g1, dens)) == list(map(mul, nums, m1))
        )
    tn, td, s = tol.numerator, tol.denominator, table.scale
    return all(
        td * abs(g * d - n * m) <= tn * d * s
        for mass, positive in zip(table.mass, table.positive)
        for n, d, m, g in zip(nums, dens, mass, positive)
    )


def _balanced(cls, c: int, tol: Optional[Fraction] = None) -> bool:
    """The groups' class averages agree (to within tol), or a class is empty."""
    (a0, m0), (a1, m1) = cls
    if not (m0 and m1):
        return True
    if not tol:
        return a0 * m1 == a1 * m0
    return tol.denominator * abs(a0 * m1 - a1 * m0) <= tol.numerator * c * m0 * m1


def _balances(table: _Table, tol: Optional[Fraction] = None) -> bool:
    """Both balance conditions, exactly or to within an absolute tolerance."""
    c, pos, neg = _classes(table)
    return _balanced(pos, c, tol) and _balanced(neg, c, tol)


def _fair(table: _Table, tol: Optional[Fraction] = None) -> bool:
    """All three conditions, exactly or to within an absolute tolerance."""
    return _calibrated(table, tol) and _balances(table, tol)


def _calibrated_within(table: _Table, e: Fraction) -> bool:
    """Each bin's expected positives lie in the band [1 - e, 1 + e] times
    score times mass, in both groups."""
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
    (a0, m0), (a1, m1) = cls
    return not (m0 and m1) or _ratio_band_ok(a0 * m1, a1 * m0, e)


def passes_fairness(inst: Instance, asg: RiskAssignment, tolerance: Optional[Fraction] = None) -> bool:
    """Fast verdict with early exits.

    tolerance None checks the exact conditions; otherwise every calibration
    residual and each balance gap must be at most tolerance in absolute value.
    A tolerance is read as eps is, by `as_fraction`. Agrees with
    audit_exact(...).fair when tolerance is None.
    """
    tol = None if tolerance is None else _nonnegative(tolerance, "tolerance")
    return _fair(_bin_table(inst, asg), tol)
