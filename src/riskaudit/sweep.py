"""Seeded searches for violations of the fairness trade-off.

An exactly fair assignment on an instance with unequal base rates and
imperfect prediction would be a counterexample to the impossibility result
this package audits; so would an assignment passing the relaxed audit at
tolerance eps while both consequence flags are false. The sweep enumerates
every integral candidate and a seeded stream of fractional ones and reports
the first witness of either kind, or the exploration counts when there is
none. Identical seeds give identical reports.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from random import Random
from typing import Iterator, Optional

from .audit import (
    ApproxAuditReport,
    _accumulate_bins,
    _approx_report,
    _calibrated_within,
    _fair,
    _first_bin,
    _pooled,
    _scored,
    audit_approx,
    consequence_slack,
)
from .errors import DomainError
from .loss import trivial_assignment
from .model import (
    FeatureVector,
    Instance,
    RiskAssignment,
    _assignment,
    _nonnegative,
    _scaled,
    as_fraction,
    derived_stats,
    require_valid,
)
from .solver import _integral_search, _witness


def _rand_fraction(rng: Random, den: int = 12) -> Fraction:
    d = rng.randint(1, den)
    return Fraction(rng.randint(0, d), d)


def _rand_probability(rng: Random) -> Fraction:
    roll = rng.random()
    if roll < 0.15:
        return Fraction(0)
    if roll < 0.3:
        return Fraction(1)
    return _rand_fraction(rng)


def random_instance(rng: Random, max_features: int = 6) -> Instance:
    """Unconstrained valid instance with small rational masses."""
    k = rng.randint(2, max_features)
    feats = []
    for i in range(k):
        feats.append(
            FeatureVector(
                f"x{i + 1}",
                _rand_probability(rng),
                Fraction(rng.randint(0, 4)),
                Fraction(rng.randint(0, 4)),
            )
        )
    for gi in range(2):
        if sum((f.n1 if gi == 0 else f.n2 for f in feats), Fraction(0)) == 0:
            j = rng.randrange(k)
            f = feats[j]
            feats[j] = FeatureVector(
                f.id,
                f.p,
                f.n1 + (1 if gi == 0 else 0),
                f.n2 + (1 if gi == 1 else 0),
            )
    return require_valid(Instance(tuple(feats)))


def random_perfect_instance(rng: Random, max_features: int = 6) -> Instance:
    """Every populated feature is certain: probability 0 or 1."""
    k = rng.randint(2, max_features)
    feats = []
    for i in range(k):
        feats.append(
            FeatureVector(
                f"x{i + 1}",
                Fraction(rng.randint(0, 1)),
                Fraction(rng.randint(0, 3)),
                Fraction(rng.randint(0, 3)),
            )
        )
    for gi in range(2):
        if sum((f.count(gi + 1) for f in feats), Fraction(0)) == 0:
            f = feats[0]
            feats[0] = FeatureVector(
                f.id, f.p, f.n1 + (1 - gi), f.n2 + gi
            )
    return require_valid(Instance(tuple(feats)))


def random_proportional_instance(rng: Random, max_features: int = 6) -> Instance:
    """Group 2 is a scaled copy of group 1, so every group-average statistic
    coincides across groups for every assignment."""
    k = rng.randint(2, max_features)
    scale = Fraction(rng.randint(1, 3), rng.randint(1, 3))
    feats = []
    for i in range(k):
        n1 = Fraction(rng.randint(0, 4))
        feats.append(FeatureVector(f"x{i + 1}", _rand_probability(rng), n1, n1 * scale))
    if sum((f.n1 for f in feats), Fraction(0)) == 0:
        f = feats[0]
        feats[0] = FeatureVector(f.id, f.p, Fraction(1), scale)
    return require_valid(Instance(tuple(feats)))


def random_equal_rate_instance(rng: Random, max_features: int = 6) -> Instance:
    """Distinct group compositions with exactly equal base rates.

    Group 2 gets a balancing feature of certain outcome whose mass is solved
    exactly so the rates match.
    """
    while True:
        k = rng.randint(1, max(1, max_features - 2))
        feats = []
        for i in range(k):
            feats.append(
                FeatureVector(
                    f"x{i + 1}",
                    _rand_probability(rng),
                    Fraction(rng.randint(0, 3)),
                    Fraction(rng.randint(0, 3)),
                )
            )
        n1 = sum((f.n1 for f in feats), Fraction(0))
        if n1 == 0:
            continue
        rate = sum((f.n1 * f.p for f in feats), Fraction(0)) / n1
        if rate == 0 or rate == 1:
            continue
        n2 = sum((f.n2 for f in feats), Fraction(0))
        mu2 = sum((f.n2 * f.p for f in feats), Fraction(0))
        if n2 == 0:
            feats.append(FeatureVector("bal0", Fraction(0), Fraction(0), 1 - rate))
            feats.append(FeatureVector("bal1", Fraction(1), Fraction(0), rate))
        elif mu2 > rate * n2:
            feats.append(
                FeatureVector("bal0", Fraction(0), Fraction(0), (mu2 - rate * n2) / rate)
            )
        elif mu2 < rate * n2:
            feats.append(
                FeatureVector(
                    "bal1", Fraction(1), Fraction(0), (rate * n2 - mu2) / (1 - rate)
                )
            )
        inst = require_valid(Instance(tuple(feats)))
        gs = derived_stats(inst)
        assert gs.base_rate[0] == gs.base_rate[1]
        return inst


def random_gapped_instance(
    rng: Random, min_gap: Fraction = Fraction(1, 10), max_features: int = 6
) -> Instance:
    """Instance with base rates at least min_gap apart and some uncertain
    populated feature, by rejection sampling."""
    while True:
        inst = random_instance(rng, max_features)
        gs = derived_stats(inst)
        if abs(gs.base_rate[0] - gs.base_rate[1]) < min_gap:
            continue
        if any(f.total > 0 and 0 < f.p < 1 for f in inst.features):
            return inst


def is_perfect_prediction(inst: Instance) -> bool:
    return all(f.p in (0, 1) for f in inst.features if f.total > 0)


# Fractional candidates are drawn as integer allocation rows and bin scores:
# pooled weight rows, or eighths. The bin table reads the rows as they stand,
# and `model._assignment` builds Fractions only for a candidate the report
# keeps. A pooled weight is drawn inline, as `_below(bits, 4)` would draw it,
# and the sweep judges a pooled candidate's first bin (`audit._first_bin`)
# before it builds the whole table.


def _below(bits, n: int) -> int:
    """Draw from range(n) with `bits = rng.getrandbits`, consuming the stream
    exactly as `rng.randrange(n)` does: n.bit_length() bits, redrawn while
    they are n or more. Much cheaper than `randrange` or `randint`."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _pooled_struct(k: int, rng: Random, max_bins=None) -> tuple[tuple[int, ...], ...]:
    most = k + 2 if max_bins is None else max_bins
    if most < 1:
        raise DomainError("max_bins must be positive")
    bits = rng.getrandbits
    nbins = 1 + _below(bits, most)
    out = []
    for _ in range(k):
        weights = []
        for _ in range(nbins):
            w = bits(3)  # _below(bits, 4), inline
            while w > 3:
                w = bits(3)
            weights.append(w)
        if not any(weights):
            weights[_below(bits, nbins)] = 1
        out.append(tuple(weights))
    return tuple(out)


def pooled_rounded_assignment(
    inst: Instance, rng: Random, max_bins: Optional[int] = None
) -> RiskAssignment:
    """Random row-stochastic allocation, scores rounded to each bin's pooled
    positive rate. Population-calibrated by construction, nothing more."""
    weights = _pooled_struct(len(inst.features), rng, max_bins)
    table = _pooled(*_accumulate_bins(_scaled(inst), weights, len(weights[0])))
    return _assignment(inst, weights, map(Fraction, table.nums, table.dens))


def _split_draw(k: int, rng: Random) -> tuple[list[int], bool]:
    """The draws of a split structure over k features: each feature's first
    copy in eighths (8 keeps the feature whole), then whether
    equal-probability bins merge."""
    bits = rng.getrandbits
    cuts = [8 if _below(bits, 2) == 0 else 1 + _below(bits, 7) for _ in range(k)]
    return cuts, rng.random() < 0.5


def _split_bins(inst: Instance, cuts: list[int], merge: bool) -> tuple[list[list[int]], list[Fraction]]:
    """Integer allocation rows, in eighths, and bin scores of a split
    structure: each feature's mass over one or two bins of its own (its
    first in `cuts[i]` eighths), or, when merging, one bin per probability,
    first seen first. Every bin is scored at its members' probability."""
    probs = [f.p for f in inst.features]
    if merge:
        scores = list(dict.fromkeys(probs))
        return [[8 if v == p else 0 for v in scores] for p in probs], scores
    parts = [(8,) if j == 8 else (j, 8 - j) for j in cuts]
    scores = [p for p, part in zip(probs, parts) for _ in part]
    rows, b = [], 0
    for part in parts:
        row = [0] * len(scores)
        row[b:b + len(part)] = part
        b += len(part)
        rows.append(row)
    return rows, scores


def calibrated_split_assignment(inst: Instance, rng: Random) -> RiskAssignment:
    """Exactly calibrated within both groups: every bin is scored at the one
    probability its members share."""
    return _assignment(inst, *_split_bins(inst, *_split_draw(len(inst.features), rng)))


def _banded_bins(inst: Instance, rng: Random, e: Fraction):
    """A drawn split structure's rows and scores (see _split_bins), each
    nonzero score then nudged, bin by bin, by a drawn factor inside the band
    of width e and inside [0, 1]."""
    rows, scores = _split_bins(inst, *_split_draw(len(inst.features), rng))
    lo = -e / (1 + e)
    cap = e / (1 - e) if e < 1 else Fraction(1)
    for b, p in enumerate(scores):
        if p:
            hi = min(cap, (1 - p) / p)
            delta = lo + (hi - lo) * Fraction(_below(rng.getrandbits, 17), 16)
            scores[b] = p * (1 + delta)
    return rows, scores


def banded_split_assignment(inst: Instance, rng: Random, eps) -> RiskAssignment:
    """Calibrated up to the multiplicative band of width eps: bin scores are
    nudged off the members' shared probability by a factor kept inside the
    band (and inside [0, 1])."""
    return _assignment(inst, *_banded_bins(inst, rng, _nonnegative(eps, "eps")))


def two_bin_certain_assignment(inst: Instance) -> RiskAssignment:
    """For perfect-prediction instances: a 0-bin and a 1-bin."""
    if not is_perfect_prediction(inst):
        raise DomainError("instance has an uncertain populated feature")
    rows = [(int(f.p != 1), int(f.p == 1)) for f in inst.features]
    return _assignment(inst, rows, (Fraction(0), Fraction(1)))


@dataclass(frozen=True)
class SweepReport:
    """Outcome of one seeded search. Counterexample fields hold the first
    witness assignment found, or None."""

    seed: int
    epsilon: Fraction
    budget: int
    base_rate_gap: Fraction
    perfect_prediction: bool
    integral_explored: int
    integral_complete: bool
    fractional_explored: int
    exact_fair_count: int
    first_exact_fair: Optional[RiskAssignment]
    exact_counterexample: Optional[RiskAssignment]
    approx_pass_count: int
    approx_counterexample: Optional[RiskAssignment]


def theorem_sweep(
    inst: Instance,
    search_budget: int,
    eps,
    seed: int,
    *,
    integral_cap: Optional[int] = None,
) -> SweepReport:
    """Exhaust integral candidates, then stream seeded fractional ones.

    The stream draws pooled, split and (at eps > 0) banded candidates.
    Every split candidate has the identity assignment's class averages, so
    all of them share the verdicts of the first one's table. A pooled
    candidate whose first bin lies outside the calibration band passes
    neither check, so it is ruled out on that bin alone; the other pooled
    candidates and every banded one are audited one by one. With eps = 0
    only the exact side runs. A budget too small to finish the integral side
    is reported through integral_complete, never raised.
    """
    gs = derived_stats(inst)
    e = _nonnegative(eps, "eps")
    if search_budget < 0:
        raise DomainError("search budget must be nonnegative")
    if integral_cap is not None and integral_cap < 0:
        raise DomainError("integral cap must be nonnegative")
    gap = gs.base_rate[0] - gs.base_rate[1]
    perfect = is_perfect_prediction(inst)
    special = gap == 0 or perfect

    k = len(inst.features)
    exact_fair_count = 0
    first_fair: Optional[RiskAssignment] = None
    exact_ce: Optional[RiskAssignment] = None
    approx_pass = 0
    approx_ce: Optional[RiskAssignment] = None

    scaled = _scaled(inst)
    slack = consequence_slack(e)

    def verdicts(table):
        # a candidate's exact verdict, and its relaxed report at eps > 0
        return _fair(table), (_approx_report(scaled, e, slack, table) if e else None)

    def consider(verdict, build) -> None:
        # build() makes the assignment, called only for a candidate the
        # report keeps
        nonlocal exact_fair_count, first_fair, exact_ce, approx_pass, approx_ce
        fair, report = verdict
        if fair:
            exact_fair_count += 1
            if first_fair is None:
                first_fair = build()
                if not special:
                    exact_ce = first_fair
        if report is not None and report.passed:
            approx_pass += 1
            if not report.consequence.any and approx_ce is None:
                approx_ce = build()

    def visit(blocks, table) -> bool:
        consider(verdicts(table), lambda: _witness(inst, blocks)[1])
        return False

    # a candidate outside the calibration band (at eps = 0, exact
    # calibration) in any one bin can pass neither check: the walk prunes
    # with this verdict, and the stream screens pooled candidates' first bins
    calibrated = partial(_calibrated_within, e=e)
    integral_explored, _, integral_complete = _integral_search(inst, integral_cap, calibrated, visit)

    # Every split candidate shares the verdicts of the first one. Each of its
    # bins b holds features of one probability v_b and is scored at v_b, so
    # it is exactly calibrated, hence inside any band. Group t's expected
    # positives in b are P_bt = sum_i v_b * x_ib * n_it over its members, so
    # with rows x_i summing to 1 its positive class receives score
    # sum_b v_b * P_bt = sum_i p_i**2 * n_it, and its negative class
    # sum_i p_i * (1 - p_i) * n_it, whatever the split and the merge. The
    # class masses and the base rates are the instance's, so the class
    # averages, both balance verdicts and every field of the relaxed report
    # are those of the identity assignment.
    split = None
    rng = Random(seed)
    for _ in range(search_budget):
        roll = rng.random()
        if roll < 0.6:
            rows = _pooled_struct(k, rng)
            if calibrated(_first_bin(scaled, rows)):
                table = _pooled(*_accumulate_bins(scaled, rows, len(rows[0])))
                consider(verdicts(table), lambda: _assignment(inst, rows, map(Fraction, table.nums, table.dens)))
        elif roll < 0.8 or e == 0:
            draw = _split_draw(k, rng)
            if split is None:
                split = verdicts(_scored(scaled, *_split_bins(inst, *draw)))
            consider(split, lambda: _assignment(inst, *_split_bins(inst, *draw)))
        else:
            rows, scores = _banded_bins(inst, rng, e)
            consider(verdicts(_scored(scaled, rows, scores)), lambda: _assignment(inst, rows, scores))

    return SweepReport(
        seed=seed,
        epsilon=e,
        budget=search_budget,
        base_rate_gap=gap,
        perfect_prediction=perfect,
        integral_explored=integral_explored,
        integral_complete=integral_complete,
        fractional_explored=search_budget,
        exact_fair_count=exact_fair_count,
        first_exact_fair=first_fair,
        exact_counterexample=exact_ce,
        approx_pass_count=approx_pass,
        approx_counterexample=approx_ce,
    )


def approx_audit_corpus(
    eps, seed: int
) -> Iterator[tuple[Instance, RiskAssignment, ApproxAuditReport]]:
    """Endless seeded stream of (instance, assignment, report) triples whose
    report passed the relaxed audit at eps.

    Families mix proportional groups, certain-outcome populations, equal and
    free base rates; candidates that fail the audit are discarded, so every
    yielded triple is a live subject for the consequence check.
    """
    e = as_fraction(eps)
    rng = Random(seed)
    while True:
        roll = rng.random()
        if roll < 0.35:
            inst = random_proportional_instance(rng)
            sub = rng.random()
            if sub < 0.4:
                asg = calibrated_split_assignment(inst, rng)
            elif sub < 0.7:
                asg = banded_split_assignment(inst, rng, e)
            else:
                asg = pooled_rounded_assignment(inst, rng)
        elif roll < 0.6:
            inst = random_perfect_instance(rng)
            if rng.random() < 0.5:
                asg = two_bin_certain_assignment(inst)
            else:
                asg = banded_split_assignment(inst, rng, e)
        elif roll < 0.85:
            inst = random_equal_rate_instance(rng)
            sub = rng.random()
            if sub < 0.4:
                asg = trivial_assignment(inst)
            elif sub < 0.7:
                asg = calibrated_split_assignment(inst, rng)
            else:
                asg = banded_split_assignment(inst, rng, e)
        else:
            inst = random_instance(rng)
            if rng.random() < 0.5:
                asg = pooled_rounded_assignment(inst, rng)
            else:
                asg = banded_split_assignment(inst, rng, e)
        report = audit_approx(inst, asg, e)
        if report.passed:
            yield inst, asg, report
