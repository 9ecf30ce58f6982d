"""Independent checkers for the benchmark.

Nothing here imports `riskaudit`: every figure is recomputed from the
definitions in plain `Fraction` arithmetic, so a workload's outputs can be
compared with numbers the program did not produce.

An instance is a list of `(p, n1, n2)` triples; an assignment is a list of bin
scores plus one allocation row per feature, in the instance's feature order.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isqrt
from typing import Optional, Sequence

Spec = tuple[Fraction, Fraction, Fraction]  # (p, n1, n2)


@dataclass(frozen=True)
class RefAudit:
    """Every figure of the exact audit and of the loss, group-major."""

    mass: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    positive: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    calibration_residuals: tuple[tuple[Fraction, ...], tuple[Fraction, ...]]
    calibration_ok: bool
    expected_score_total: tuple[Fraction, Fraction]
    positive_mass: tuple[Fraction, Fraction]
    base_rate: tuple[Fraction, Fraction]
    pos_class_avg: tuple[Optional[Fraction], Optional[Fraction]]
    neg_class_avg: tuple[Optional[Fraction], Optional[Fraction]]
    balance_pos_ok: bool
    balance_pos_vacuous: bool
    balance_neg_ok: bool
    balance_neg_vacuous: bool
    parity_gap: Fraction
    fair: bool
    loss_per_group: tuple[Fraction, Fraction]
    loss_total: Fraction
    nontrivial: bool


def _balance(avgs) -> tuple[bool, bool]:
    if avgs[0] is None or avgs[1] is None:
        return True, True
    return avgs[0] == avgs[1], False


def reference_audit(specs: Sequence[Spec], scores: Sequence[Fraction], rows) -> RefAudit:
    """Audit the three fairness conditions and the loss from their definitions.

    Calibration within groups: in each bin, a group's expected positives equal
    the bin score times the group's mass there. Balance for the positive
    (negative) class: the average score a group's positive (negative) class
    receives is the same in both groups; a class with no mass makes the
    condition vacuous. Loss per group: twice the positive mass minus the score
    its positive class receives.
    """
    nb = len(scores)
    mass = [[Fraction(0)] * nb for _ in range(2)]
    pos = [[Fraction(0)] * nb for _ in range(2)]
    neg = [[Fraction(0)] * nb for _ in range(2)]
    people = [Fraction(0)] * nb
    for (p, n1, n2), row in zip(specs, rows):
        for t, n in enumerate((n1, n2)):
            for b, x in enumerate(row):
                share = n * x
                mass[t][b] += share
                pos[t][b] += share * p
                neg[t][b] += share * (1 - p)
                people[b] += share
    population = [sum(mass[t], Fraction(0)) for t in range(2)]
    mu = [sum(pos[t], Fraction(0)) for t in range(2)]
    nu = [sum(neg[t], Fraction(0)) for t in range(2)]
    residuals = tuple(
        tuple(pos[t][b] - scores[b] * mass[t][b] for b in range(nb)) for t in range(2)
    )
    totals = [sum((scores[b] * mass[t][b] for b in range(nb)), Fraction(0)) for t in range(2)]
    pos_score = [sum((scores[b] * pos[t][b] for b in range(nb)), Fraction(0)) for t in range(2)]
    neg_score = [sum((scores[b] * neg[t][b] for b in range(nb)), Fraction(0)) for t in range(2)]
    pos_avg = tuple(pos_score[t] / mu[t] if mu[t] else None for t in range(2))
    neg_avg = tuple(neg_score[t] / nu[t] if nu[t] else None for t in range(2))
    calibration_ok = all(r == 0 for per in residuals for r in per)
    pos_ok, pos_vac = _balance(pos_avg)
    neg_ok, neg_vac = _balance(neg_avg)
    loss = tuple(2 * (mu[t] - pos_score[t]) for t in range(2))
    populated_scores = {scores[b] for b in range(nb) if people[b] > 0}
    return RefAudit(
        mass=(tuple(mass[0]), tuple(mass[1])),
        positive=(tuple(pos[0]), tuple(pos[1])),
        calibration_residuals=residuals,
        calibration_ok=calibration_ok,
        expected_score_total=(totals[0], totals[1]),
        positive_mass=(mu[0], mu[1]),
        base_rate=(mu[0] / population[0], mu[1] / population[1]),
        pos_class_avg=pos_avg,
        neg_class_avg=neg_avg,
        balance_pos_ok=pos_ok,
        balance_pos_vacuous=pos_vac,
        balance_neg_ok=neg_ok,
        balance_neg_vacuous=neg_vac,
        parity_gap=totals[0] / population[0] - totals[1] / population[1],
        fair=calibration_ok and pos_ok and neg_ok,
        loss_per_group=(loss[0], loss[1]),
        loss_total=loss[0] + loss[1],
        nontrivial=len(populated_scores) >= 2,
    )


def _in_band(x: Fraction, y: Fraction, eps: Fraction) -> bool:
    # x within the multiplicative band of width eps around y, both orderings;
    # a zero against a nonzero is only inside a band of width at least 1
    if x == 0 and y == 0:
        return True
    if x == 0 or y == 0:
        return eps >= 1
    return (1 - eps) * y <= x <= (1 + eps) * y and (1 - eps) * x <= y <= (1 + eps) * x


@dataclass(frozen=True)
class RefApprox:
    calibration_ok: bool
    balance_pos_ok: bool
    balance_pos_vacuous: bool
    balance_neg_ok: bool
    balance_neg_vacuous: bool
    passed: bool


def reference_approx(ref: RefAudit, scores: Sequence[Fraction], eps: Fraction) -> RefApprox:
    """The relaxed audit: each equality of the exact audit widened to a
    two-sided multiplicative band of width eps."""
    calib = all(
        (1 - eps) * scores[b] * ref.mass[t][b]
        <= ref.positive[t][b]
        <= (1 + eps) * scores[b] * ref.mass[t][b]
        for t in range(2)
        for b in range(len(scores))
    )

    def balance(avgs):
        if avgs[0] is None or avgs[1] is None:
            return True, True
        return _in_band(avgs[0], avgs[1], eps), False

    pos_ok, pos_vac = balance(ref.pos_class_avg)
    neg_ok, neg_vac = balance(ref.neg_class_avg)
    return RefApprox(calib, pos_ok, pos_vac, neg_ok, neg_vac, calib and pos_ok and neg_ok)


def consequence_flags(ref: RefAudit, slack: Fraction) -> tuple[bool, bool]:
    """(near perfect prediction, near equal base rates) at the given slack."""
    near_perfect = all(a is None or a >= 1 - slack for a in ref.pos_class_avg)
    near_equal = abs(ref.base_rate[0] - ref.base_rate[1]) <= slack
    return near_perfect, near_equal


def sqrt_bounds(x: Fraction, bits: int = 64) -> tuple[Fraction, Fraction]:
    """Rational lower and upper bounds on sqrt(x), equal when sqrt(x) is rational."""
    a, b = x.numerator, x.denominator
    ra, rb = isqrt(a), isqrt(b)
    if ra * ra == a and rb * rb == b:
        return Fraction(ra, rb), Fraction(ra, rb)
    scale = 1 << bits
    lo = isqrt(a * scale * scale // b)
    return Fraction(lo, scale), Fraction(lo + 1, scale)


def slack_formula_bounds(eps: Fraction) -> tuple[Fraction, Fraction]:
    """Bounds on sqrt(eps) * max(1, 3 sqrt(eps) + 3/4), the consequence slack."""
    lo, hi = sqrt_bounds(eps)
    return (
        lo * max(Fraction(1), 3 * lo + Fraction(3, 4)),
        hi * max(Fraction(1), 3 * hi + Fraction(3, 4)),
    )


def bell(k: int) -> int:
    """Number of partitions of a k-set, summed from Stirling numbers of the
    second kind: S(n, j) = j S(n-1, j) + S(n-1, j-1)."""
    row = [1]  # S(0, 0)
    for n in range(1, k + 1):
        nxt = [0] * (n + 1)
        for j in range(1, n + 1):
            nxt[j] = j * (row[j] if j < len(row) else 0) + row[j - 1]
        row = nxt
    return sum(row)


def set_partitions(items: Sequence) -> list[tuple[tuple, ...]]:
    """Every partition of `items`, built by placing each item into an existing
    block or a new one; blocks keep the items' order."""
    out: list[list[list]] = [[]]
    for x in items:
        nxt = []
        for blocks in out:
            for i in range(len(blocks)):
                nxt.append(blocks[:i] + [blocks[i] + [x]] + blocks[i + 1:])
            nxt.append(blocks + [[x]])
        out = nxt
    return [tuple(tuple(b) for b in blocks) for blocks in out]


def subsets_hitting(weights: Sequence[int], target: int) -> list[frozenset[int]]:
    """Every subset (1-based positions) of `weights` summing to `target`,
    by trying all of them."""
    hits = []
    for r in range(1, len(weights) + 1):
        for combo in combinations(range(1, len(weights) + 1), r):
            if sum(weights[i - 1] for i in combo) == target:
                hits.append(frozenset(combo))
    return hits


def required_pos_avg(weights: Sequence[int], target: int) -> Fraction:
    """Closed form of the positive-class average g the reduction forces on both
    groups, for the weights that are kept (those at most the target):
    g = (1/m) * sum_i (2 c_i^2 + w_i / (T m^4)) - 1/m^5, with c_i = i/(m+1)."""
    kept = [w for w in weights if w <= target]
    m = len(kept)
    total = sum(
        (2 * Fraction(i, m + 1) ** 2 + Fraction(w, target * m**4) for i, w in enumerate(kept, 1)),
        Fraction(0),
    )
    return total / m - Fraction(1, m**5)


def anchor_rates(g: Fraction) -> tuple[Fraction, Fraction]:
    """The two group-1 anchor probabilities (1 -+ sqrt(2g - 1)) / 2, when the
    root is rational."""
    lo, hi = sqrt_bounds(2 * g - 1)
    if lo != hi:
        raise ValueError("anchor rates are irrational")
    return (1 - lo) / 2, (1 + lo) / 2


def decode_normal_grouping(blocks, kept_indices: Sequence[int]) -> Optional[frozenset[int]]:
    """Weight positions whose pair {2i-1, 2i} is kept together, or None when
    some block is neither a singleton nor such a pair."""
    chosen = set()
    for block in blocks:
        if len(block) == 1:
            continue
        if len(block) != 2:
            return None
        a, b = sorted(block)
        if a % 2 != 1 or b != a + 1:
            return None
        chosen.add(kept_indices[(a + 1) // 2 - 1])
    return frozenset(chosen)
