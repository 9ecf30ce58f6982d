"""Seeded searches for violations of the fairness trade-off.

An exactly fair assignment on an instance with unequal base rates and
imperfect prediction would be a counterexample to the impossibility result
this package audits; so would an assignment passing the relaxed audit at
band width eps while both consequence flags are false. The sweep enumerates
every integral candidate and a seeded stream of fractional ones and reports
the first witness of either kind, or the exploration counts when there is
none. Identical seeds give identical reports.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from random import Random
from typing import Iterator, NamedTuple, Optional

from .audit import (
    ApproxAuditReport,
    _accumulate_bins,
    _approx_report,
    _fair,
    _first_bin_within,
    _pooled,
    _pooled_assignment,
    _pooled_within,
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
    _require_count,
    _require_int,
    _require_type,
    _scaled,
    derived_stats,
    require_valid,
)
from .solver import _balanced, _integral_search, _leaf_table, _received, _witness


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


def _require_rng(rng) -> None:
    """Refuse an `rng` that is no random.Random, before any draw."""
    if not isinstance(rng, Random):
        raise DomainError(f"rng must be a random.Random, not {rng!r:.60}")


def _feature_count(rng: Random, max_features: int) -> int:
    _require_rng(rng)
    _require_count(max_features, "max_features", 2)
    return rng.randint(2, max_features)


def _features(k: int, draw) -> list[FeatureVector]:
    """Features x1 to xk, each (p, n1, n2) from one call of `draw`."""
    return [FeatureVector(f"x{i + 1}", *draw()) for i in range(k)]


def _populate(feats: list[FeatureVector], pick) -> None:
    """Give each group without mass one person, at feature feats[pick()]."""
    for gi in range(2):
        if not any(f.count(gi + 1) for f in feats):
            j = pick()
            f = feats[j]
            feats[j] = FeatureVector(f.id, f.p, f.n1 + 1 - gi, f.n2 + gi)


def random_instance(rng: Random, max_features: int = 6) -> Instance:
    """Unconstrained valid instance with small rational masses."""
    k = _feature_count(rng, max_features)
    feats = _features(k, lambda: (_rand_probability(rng), Fraction(rng.randint(0, 4)), Fraction(rng.randint(0, 4))))
    _populate(feats, partial(rng.randrange, k))
    return require_valid(Instance(feats))


def random_perfect_instance(rng: Random, max_features: int = 6) -> Instance:
    """Every populated feature is certain: probability 0 or 1."""
    k = _feature_count(rng, max_features)
    feats = _features(
        k, lambda: (Fraction(rng.randint(0, 1)), Fraction(rng.randint(0, 3)), Fraction(rng.randint(0, 3)))
    )
    _populate(feats, lambda: 0)
    return require_valid(Instance(feats))


def random_proportional_instance(rng: Random, max_features: int = 6) -> Instance:
    """Group 2 is a scaled copy of group 1, so every group-average statistic
    coincides across groups for every assignment."""
    k = _feature_count(rng, max_features)
    scale = Fraction(rng.randint(1, 3), rng.randint(1, 3))

    def draw():
        n1 = Fraction(rng.randint(0, 4))
        return _rand_probability(rng), n1, n1 * scale

    feats = _features(k, draw)
    if sum((f.n1 for f in feats), Fraction(0)) == 0:
        f = feats[0]
        feats[0] = FeatureVector(f.id, f.p, Fraction(1), scale)
    return require_valid(Instance(feats))


def random_equal_rate_instance(rng: Random, max_features: int = 6) -> Instance:
    """Distinct group compositions with exactly equal base rates.

    Group 2 gets a balancing feature of certain outcome whose mass is solved
    exactly so the rates match.
    """
    _require_rng(rng)
    _require_count(max_features, "max_features", 3)
    while True:
        k = rng.randint(1, max_features - 2)
        feats = _features(k, lambda: (_rand_probability(rng), Fraction(rng.randint(0, 3)), Fraction(rng.randint(0, 3))))
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
            feats.append(FeatureVector("bal0", Fraction(0), Fraction(0), (mu2 - rate * n2) / rate))
        elif mu2 < rate * n2:
            feats.append(FeatureVector("bal1", Fraction(1), Fraction(0), (rate * n2 - mu2) / (1 - rate)))
        inst = require_valid(Instance(feats))
        gs = derived_stats(inst)
        assert gs.base_rate[0] == gs.base_rate[1]
        return inst


def random_gapped_instance(
    rng: Random, min_gap: Fraction = Fraction(1, 10), max_features: int = 6
) -> Instance:
    """Instance with base rates at least min_gap apart and some uncertain
    populated feature, by rejection sampling from `random_instance`. A
    min_gap above the widest gap a draw can reach is refused, so the
    sampling ends. That gap is below 1, because an uncertain populated
    feature keeps its group's base rate inside (0, 1)."""
    min_gap = _nonnegative(min_gap, "min_gap")
    _require_count(max_features, "max_features", 2)
    # the widest gap drawn: one group on max_features - 2 certain features of
    # mass 4 and on one feature of mass 1 at probability 1/12 from certain,
    # the other group on a feature of the opposite certain outcome
    widest = 1 - Fraction(1, 12 * (4 * (max_features - 2) + 1))
    if min_gap > widest:
        raise DomainError(f"min_gap must be below 1 and at most {widest} for {max_features} features")
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
# keeps. A pooled weight is drawn inline, as `_below(bits, 4)` would draw it.
# What every candidate would recompute is made once per sweep, and reusing it
# is exact because it is the same integer or Fraction each time: the
# instance's feature columns, on which a pooled candidate's first bin is
# judged (`audit._first_bin_within`) before its whole table is built, and a
# `_Splits`, which holds the merged layout and the at most 17 nudged scores
# per feature that a banded candidate can draw.


def _below(bits, n: int) -> int:
    """Draw from range(n) with `bits = rng.getrandbits`, consuming the stream
    exactly as `rng.randrange(n)` does: n.bit_length() bits, redrawn while
    they are n or more. Much cheaper than `randrange` or `randint`."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _pooled_struct(k: int, rng: Random) -> tuple[tuple[int, ...], ...]:
    bits = rng.getrandbits
    nbins = 1 + _below(bits, k + 2)
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


def pooled_rounded_assignment(inst: Instance, rng: Random) -> RiskAssignment:
    """Random row-stochastic allocation, scores rounded to each bin's pooled
    positive rate. Population-calibrated by construction, nothing more."""
    _require_type(inst, Instance)
    _require_rng(rng)
    return _pooled_assignment(inst, _pooled_struct(len(inst.features), rng))


def _split_draw(k: int, rng: Random) -> tuple[list[int], bool]:
    """The draws of a split structure over k features: each feature's first
    copy in eighths (8 keeps the feature whole), then whether
    equal-probability bins merge."""
    bits = rng.getrandbits
    cuts = [8 if _below(bits, 2) == 0 else 1 + _below(bits, 7) for _ in range(k)]
    return cuts, rng.random() < 0.5


class _Splits:
    """The exact parts of one instance's split and banded candidates at band
    width e, made on first use and read back by every later draw. A bin is
    keyed by the position of the feature that owns it, not by its Fraction,
    whose hash is slow."""

    def __init__(self, inst: Instance, e: Fraction = Fraction(0)) -> None:
        self.probs = [f.p for f in inst.features]
        self.e = e
        self.merged = None
        self.band = None  # lo, the cap on hi, 1 + lo, and (cap - lo) / 16
        self.steps = [None] * len(self.probs)  # per feature: nudged score at j = 0, and its step
        self.nudged = [None] * (17 * len(self.probs))  # at slot 17 * i + j

    def bins(self, cuts: list[int], merge: bool):
        """Integer allocation rows in eighths, bin scores and each bin's
        owning feature, shared between draws: each feature's mass over one or
        two bins of its own (its first in `cuts[i]` eighths), or, merging,
        one bin per probability, first seen first. Every bin is scored at
        its members' probability."""
        probs = self.probs
        if merge:
            if self.merged is None:
                first: dict[Fraction, int] = {}
                for i, p in enumerate(probs):
                    first.setdefault(p, i)
                owners = list(first.values())
                rows = [[8 if o == first[p] else 0 for o in owners] for p in probs]
                self.merged = rows, list(first), owners
            return self.merged
        parts = [(8,) if j == 8 else (j, 8 - j) for j in cuts]
        owners = [i for i, part in enumerate(parts) for _ in part]
        rows, b = [], 0
        for part in parts:
            row = [0] * len(owners)
            row[b:b + len(part)] = part
            b += len(part)
            rows.append(row)
        return rows, [probs[i] for i in owners], owners

    def nudge(self, i: int, j: int) -> Fraction:
        """The score of a bin owned by feature i at draw j,
        p_i * (1 + lo + (hi_i - lo) * j / 16) with lo = -e / (1 + e) and
        hi_i = min(cap, (1 - p_i) / p_i), where cap = e / (1 - e) below e = 1
        and 1 from there: inside the band of width e and inside [0, 1]. The
        band, each feature's first score and step, and each score are made
        on first use."""
        slot = 17 * i + j
        value = self.nudged[slot]
        if value is None:
            if self.steps[i] is None:
                if self.band is None:
                    e = self.e
                    lo = -e / (1 + e)
                    cap = e / (1 - e) if e < 1 else Fraction(1)
                    self.band = lo, cap, 1 + lo, (cap - lo) / 16
                lo, cap, base, width = self.band
                p = self.probs[i]
                hi = (1 - p) / p
                self.steps[i] = p * base, p * (width if cap <= hi else (hi - lo) / 16)
            first, step = self.steps[i]
            value = self.nudged[slot] = first + step * j
        return value


def calibrated_split_assignment(inst: Instance, rng: Random) -> RiskAssignment:
    """Exactly calibrated within both groups: every bin is scored at the one
    probability its members share."""
    _require_type(inst, Instance)
    _require_rng(rng)
    rows, scores, _ = _Splits(inst).bins(*_split_draw(len(inst.features), rng))
    return _assignment(inst, rows, scores)


def _banded_bins(splits: _Splits, rng: Random):
    """A drawn split structure's rows and scores, each nonzero score then
    replaced, bin by bin, by its owner's nudged score at a drawn j."""
    rows, scores, owners = splits.bins(*_split_draw(len(splits.probs), rng))
    bits = rng.getrandbits
    out = []
    for p, i in zip(scores, owners):
        if p:
            p = splits.nudge(i, _below(bits, 17))
        out.append(p)
    return rows, out


def banded_split_assignment(inst: Instance, rng: Random, eps) -> RiskAssignment:
    """Calibrated up to the multiplicative band of width eps: bin scores are
    nudged off the members' shared probability by a factor kept inside the
    band (and inside [0, 1])."""
    _require_type(inst, Instance)
    _require_rng(rng)
    return _assignment(inst, *_banded_bins(_Splits(inst, _nonnegative(eps, "eps")), rng))


def two_bin_certain_assignment(inst: Instance) -> RiskAssignment:
    """For perfect-prediction instances: a 0-bin and a 1-bin."""
    _require_type(inst, Instance)
    if not is_perfect_prediction(inst):
        raise DomainError("instance has an uncertain populated feature")
    rows = [(int(f.p != 1), int(f.p == 1)) for f in inst.features]
    return _assignment(inst, rows, (Fraction(0), Fraction(1)))


class SweepReport(NamedTuple):
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
    candidates and every banded one are audited one by one. The split
    layouts and nudged scores are made once per sweep. With eps = 0 only
    the exact side runs. The budget and cap are nonnegative ints and the
    seed is an int, so one seed names one stream. A budget too small to
    finish the integral side is reported through integral_complete, never
    raised.
    """
    gs = derived_stats(inst)
    e = _nonnegative(eps, "eps")
    _require_count(search_budget, "search budget")
    if integral_cap is not None:
        _require_count(integral_cap, "integral cap")
    _require_int(seed, "seed")
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

    def visit(blocks, sums) -> bool:
        # at eps = 0 every visited block is exactly calibrated, so the exact
        # verdict is the balance rule on the blocks' sums; a wider band needs
        # the table
        if e:
            verdict = verdicts(_leaf_table(sums, blocks, scaled.denominator))
        else:
            verdict = _balanced(scaled.totals, *_received(sums, blocks)), None
        consider(verdict, lambda: _witness(inst, blocks)[1])
        return False

    # a candidate outside the calibration band (at eps = 0, exact
    # calibration) in any one bin can pass neither check: the walk prunes
    # its blocks with this verdict, and the stream applies it to pooled
    # candidates' first bins (`_first_bin_within`)
    calibrated = partial(_pooled_within, e=e)
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
    splits = _Splits(inst, e)
    columns = tuple(zip(*scaled.weights))
    rng = Random(seed)
    for _ in range(search_budget):
        roll = rng.random()
        if roll < 0.6:
            rows = _pooled_struct(k, rng)
            if _first_bin_within(columns, rows, e):
                table = _pooled(*_accumulate_bins(scaled, rows, len(rows[0])))
                consider(verdicts(table), lambda: _pooled_assignment(inst, rows, table))
        elif roll < 0.8 or e == 0:
            draw = _split_draw(k, rng)
            if split is None:
                split = verdicts(_scored(scaled, *splits.bins(*draw)[:2]))
            consider(split, lambda: _assignment(inst, *splits.bins(*draw)[:2]))
        else:
            rows, scores = _banded_bins(splits, rng)
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
    e = _nonnegative(eps, "eps")
    _require_int(seed, "seed")
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
