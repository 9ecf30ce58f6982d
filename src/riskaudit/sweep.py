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
from random import Random
from typing import Iterator, Optional

from .audit import (
    ApproxAuditReport,
    _accumulate_bins,
    _approx_report,
    _fair_from_parts,
    audit_approx,
    consequence_slack,
)
from .errors import DomainError
from .loss import trivial_assignment
from .model import (
    FeatureVector,
    Instance,
    RiskAssignment,
    as_fraction,
    derived_stats,
    require_valid,
)
from .partitions import DEFAULT_MAX_ITEMS
from .solver import _integral_candidates


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
    for gi, attr in ((0, "n1"), (1, "n2")):
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


# Fractional candidates are drawn as small-integer structures so a cheap float
# view exists before any exact arithmetic happens. Every verdict the sweep
# reports still comes from exact rationals; floats only discard candidates
# whose violation exceeds the rounding error by many orders of magnitude.

_EIGHTHS = tuple(Fraction(j, 8) for j in range(9))
_FRAC_CACHE: dict[tuple[int, int], Fraction] = {}


def _q(num: int, den: int) -> Fraction:
    key = (num, den)
    got = _FRAC_CACHE.get(key)
    if got is None:
        got = _FRAC_CACHE[key] = Fraction(num, den)
    return got


def _pooled_struct(k: int, rng: Random, max_bins=None) -> tuple[tuple[int, ...], ...]:
    nbins = rng.randint(1, max_bins or k + 2)
    out = []
    for _ in range(k):
        weights = [rng.randint(0, 3) for _ in range(nbins)]
        if not any(weights):
            weights[rng.randrange(nbins)] = 1
        out.append(tuple(weights))
    return tuple(out)


def _pooled_exact(inst: Instance, weights, pooled_rate: Fraction):
    rows = tuple(
        tuple(_q(w, sum(wrow)) for w in wrow) for wrow in weights
    )
    mass, positive = _accumulate_bins(inst.features, rows, len(weights[0]))
    scores = tuple(
        (g1 + g2) / (m1 + m2) if m1 + m2 else pooled_rate
        for m1, m2, g1, g2 in zip(*mass, *positive)
    )
    return scores, rows


def _raw_pooled(inst: Instance, pooled_rate: Fraction, rng: Random, max_bins=None):
    return _pooled_exact(
        inst, _pooled_struct(len(inst.features), rng, max_bins), pooled_rate
    )


def _pooled_rate(gs) -> Fraction:
    return (gs.positive_mass[0] + gs.positive_mass[1]) / (
        gs.population[0] + gs.population[1]
    )


def pooled_rounded_assignment(
    inst: Instance, rng: Random, max_bins: Optional[int] = None
) -> RiskAssignment:
    """Random row-stochastic allocation, scores rounded to each bin's pooled
    positive rate. Population-calibrated by construction, nothing more."""
    scores, rows = _raw_pooled(inst, _pooled_rate(derived_stats(inst)), rng, max_bins)
    return RiskAssignment(
        feature_ids=tuple(f.id for f in inst.features), scores=scores, rows=rows
    )


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


def _raw_assemble(inst: Instance, bins: list[tuple[Fraction, dict[int, int]]]):
    scores = tuple(v for v, _ in bins)
    rows = tuple(
        tuple(_EIGHTHS[alloc.get(i, 0)] for _, alloc in bins)
        for i in range(len(inst.features))
    )
    return scores, rows


def _assemble(inst: Instance, bins: list[tuple[Fraction, dict[int, int]]]) -> RiskAssignment:
    scores, rows = _raw_assemble(inst, bins)
    return RiskAssignment(
        feature_ids=tuple(f.id for f in inst.features), scores=scores, rows=rows
    )


def calibrated_split_assignment(inst: Instance, rng: Random) -> RiskAssignment:
    """Exactly calibrated within both groups: every bin is scored at the one
    probability its members share."""
    return _assemble(inst, _split_structure(inst, rng))


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


def banded_split_assignment(inst: Instance, rng: Random, eps) -> RiskAssignment:
    """Calibrated up to the multiplicative band of width eps: bin scores are
    nudged off the members' shared probability by a factor kept inside the
    band (and inside [0, 1])."""
    e = as_fraction(eps)
    if e < 0:
        raise DomainError("eps must be nonnegative")
    return _assemble(inst, _banded_bins(inst, rng, e))


_SCREEN = 1e-9


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


def two_bin_certain_assignment(inst: Instance) -> RiskAssignment:
    """For perfect-prediction instances: a 0-bin and a 1-bin."""
    if not is_perfect_prediction(inst):
        raise DomainError("instance has an uncertain populated feature")
    order = tuple(f.id for f in inst.features)
    rows = []
    for f in inst.features:
        hot = 1 if f.p == 1 else 0
        rows.append((Fraction(1 - hot), Fraction(hot)))
    return RiskAssignment(
        feature_ids=order, scores=(Fraction(0), Fraction(1)), rows=tuple(rows)
    )


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
    max_items: int = DEFAULT_MAX_ITEMS,
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

    def consider_raw(scores, rows, check_exact=True, check_approx=True) -> None:
        # one bin table gives both verdicts; an assignment is built only for
        # a candidate the report keeps
        nonlocal exact_fair_count, first_fair, exact_ce, approx_pass, approx_ce
        mass, positive = _accumulate_bins(inst.features, rows, len(scores))
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

    for _, scores, rows in _integral_candidates(inst, integral_cap, max_items):
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
        if weights is not None:
            scores, rows = _pooled_exact(inst, weights, pooled)
        else:
            scores, rows = _raw_assemble(inst, bins)
        consider_raw(scores, rows, check_exact, check_approx)

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
