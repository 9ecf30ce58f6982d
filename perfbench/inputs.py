"""Seeded inputs for the benchmark workloads.

The generators are the benchmark's own, so the inputs of a seed stay the same
whatever the program's own random generators do. Instances are built as
`(p, n1, n2)` spec lists (the form `reference` reads) and handed to the
program as `Instance` and `RiskAssignment` objects.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from random import Random
from typing import Optional, Sequence

from riskaudit.model import FeatureVector, Instance, RiskAssignment

from reference import Spec

EPSILONS = (Fraction(1, 10**4), Fraction(1, 10**3), Fraction(1, 10**2))


def ids(k: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(k))


def instance(specs: Sequence[Spec]) -> Instance:
    return Instance(tuple(FeatureVector(fid, p, n1, n2) for fid, (p, n1, n2) in zip(ids(len(specs)), specs)))


def assignment(k: int, scores, rows) -> RiskAssignment:
    return RiskAssignment(feature_ids=ids(k), scores=tuple(scores), rows=tuple(tuple(r) for r in rows))


def rates(specs: Sequence[Spec]) -> tuple[Fraction, Fraction]:
    n = [sum((s[t] for s in specs), Fraction(0)) for t in (1, 2)]
    mu = [sum((s[0] * s[t] for s in specs), Fraction(0)) for t in (1, 2)]
    return mu[0] / n[0], mu[1] / n[1]


def pooled_rate(specs: Sequence[Spec]) -> Fraction:
    n = sum((n1 + n2 for _, n1, n2 in specs), Fraction(0))
    return sum((p * (n1 + n2) for p, n1, n2 in specs), Fraction(0)) / n


def small_prob(rng: Random) -> Fraction:
    d = rng.randint(2, 12)
    return Fraction(rng.randint(1, d - 1), d)


# -- search instances. Their values come from fixed lists and the seed chooses
# how they are arranged (which feature gets which probability and which
# masses), so the exact arithmetic a search does costs nearly the same on
# every seed while the instances still differ.

PROBS = tuple(Fraction(x) for x in ("1/4", "2/3", "1/6", "5/6", "5/12", "7/12", "1/3", "3/4", "1/12", "11/12"))
MASSES = tuple(Fraction(x) for x in (1, 3, 2, 4, 1, 3, 2, 4, 1, 3))
SCALE = Fraction(2, 3)


def _shuffled(rng: Random, values: Sequence, k: int) -> list:
    out = list(values[:k])
    rng.shuffle(out)
    return out


def gapped_specs(rng: Random, k: int, min_gap: Fraction = Fraction(1, 10)) -> list[Spec]:
    """Both groups on every feature, every probability strictly inside (0, 1),
    base rates at least min_gap apart: no fair assignment exists."""
    while True:
        specs = list(zip(_shuffled(rng, PROBS, k), _shuffled(rng, MASSES, k), _shuffled(rng, MASSES[::-1], k)))
        r1, r2 = rates(specs)
        if abs(r1 - r2) >= min_gap:
            return specs


def proportional_specs(rng: Random, k: int) -> list[Spec]:
    """Group 2 is a scaled copy of group 1, with at least two distinct
    probabilities: every calibrated assignment is fair."""
    return [(p, n, n * SCALE) for p, n in zip(_shuffled(rng, PROBS, k), _shuffled(rng, MASSES, k))]


def equal_rate_specs(rng: Random, k: int) -> list[Spec]:
    """Distinct group compositions with equal base rates: k - 1 features plus
    one certain-outcome group-2 feature sized to balance."""
    while True:
        specs = list(zip(_shuffled(rng, PROBS, k - 1), _shuffled(rng, MASSES, k - 1),
                         _shuffled(rng, MASSES[::-1], k - 1)))
        n1 = sum((s[1] for s in specs), Fraction(0))
        n2 = sum((s[2] for s in specs), Fraction(0))
        rate = sum((s[0] * s[1] for s in specs), Fraction(0)) / n1
        mu2 = sum((s[0] * s[2] for s in specs), Fraction(0))
        if mu2 > rate * n2:
            return specs + [(Fraction(0), Fraction(0), (mu2 - rate * n2) / rate)]
        if mu2 < rate * n2:
            return specs + [(Fraction(1), Fraction(0), (rate * n2 - mu2) / (1 - rate))]


WEIGHTS = (2, 3, 5, 7)


def subset_sum(rng: Random, m: int, solvable: bool) -> tuple[tuple[int, ...], int]:
    """m weights (2, 3, 5, 7 in a seeded order, no ratio of two a square, so
    every pair keeps its own radical) and a target no smaller than any weight,
    so the reduction keeps them all; the target is reachable or not as asked."""
    weights = tuple(_shuffled(rng, WEIGHTS, m))
    sums = {sum(w for i, w in enumerate(weights) if mask >> i & 1) for mask in range(1, 1 << m)}
    targets = range(max(weights), sum(weights) + 1)
    return weights, rng.choice([t for t in targets if (t in sums) == solvable])


# -- audit-stream triples

def _stream_specs(rng: Random, family: str, k: int) -> list[Spec]:
    if family == "small":
        specs = []
        for _ in range(k):
            r = rng.random()
            p = Fraction(0) if r < 0.1 else Fraction(1) if r < 0.2 else small_prob(rng)
            specs.append((p, Fraction(rng.randint(0, 4)), Fraction(rng.randint(0, 4))))
    elif family == "float":
        # probabilities that went through floats, as a reduced instance's do:
        # a rational centre plus or minus a square root, rounded to a double
        specs = []
        for _ in range(k):
            c = Fraction(rng.randint(1, 9), 10)
            half_gap = sqrt(rng.randint(1, 40) / 1000)
            x = min(1.0, max(0.0, float(c) + rng.choice((-1, 1)) * half_gap))
            specs.append((Fraction(x), Fraction(rng.randint(0, 4), rng.randint(1, 8)), Fraction(rng.randint(0, 4), rng.randint(1, 8))))
    else:
        # pooled positive rates of outcome records, as ingestion makes them:
        # one denominator per feature, most of them distinct
        specs = []
        for _ in range(k):
            n1, n2 = rng.randint(0, 40), rng.randint(1, 40)
            specs.append((Fraction(rng.randint(0, n1 + n2), n1 + n2), Fraction(n1), Fraction(n2)))
    for t in (1, 2):
        if sum((s[t] for s in specs), Fraction(0)) == 0:
            j = rng.randrange(k)
            p, n1, n2 = specs[j]
            specs[j] = (p, n1 + (t == 1), n2 + (t == 2))
    return specs


def _split_bins(rng: Random, specs: Sequence[Spec]) -> list[tuple[Fraction, dict[int, Fraction]]]:
    """Bins whose members share one probability: each feature's mass goes to
    one bin or is split in eighths over two; half the time bins of equal
    probability are merged."""
    bins = []
    for i, (p, _, _) in enumerate(specs):
        if rng.random() < 0.5:
            bins.append((p, {i: Fraction(1)}))
        else:
            j = Fraction(rng.randint(1, 7), 8)
            bins.append((p, {i: j}))
            bins.append((p, {i: 1 - j}))
    if rng.random() < 0.5:
        merged: dict[Fraction, dict[int, Fraction]] = {}
        for p, alloc in bins:
            slot = merged.setdefault(p, {})
            for i, x in alloc.items():
                slot[i] = slot.get(i, Fraction(0)) + x
        bins = list(merged.items())
    return bins


def split_assignment(rng: Random, specs: Sequence[Spec], eps: Optional[Fraction] = None):
    """(scores, rows) of a calibrated-split assignment; with eps, a
    banded-split one, whose scores are nudged off the members' probability by
    a factor inside the calibration band of width eps, and inside [0, 1]."""
    bins = _split_bins(rng, specs)
    if eps is not None:
        lo, cap = -eps / (1 + eps), eps / (1 - eps)
        nudged = []
        for p, alloc in bins:
            if p:
                hi = min(cap, (1 - p) / p)
                p = p * (1 + lo + (hi - lo) * Fraction(rng.randint(0, 16), 16))
            nudged.append((p, alloc))
        bins = nudged
    scores = [v for v, _ in bins]
    rows = [[alloc.get(i, Fraction(0)) for _, alloc in bins] for i in range(len(specs))]
    return scores, rows


def identity_assignment(specs: Sequence[Spec]):
    k = len(specs)
    return [p for p, _, _ in specs], [[Fraction(int(i == b)) for b in range(k)] for i in range(k)]


def stream_assignment(rng: Random, specs: Sequence[Spec], eps: Fraction, kind: str) -> tuple[list, list]:
    """(scores, rows) of an assignment of the given kind."""
    k = len(specs)
    if kind == "pooled":
        nbins = rng.randint(1, min(k + 2, 8))
        rows = []
        for _ in range(k):
            w = [rng.randint(0, 3) for _ in range(nbins)]
            if not any(w):
                w[rng.randrange(nbins)] = 1
            rows.append([Fraction(x, sum(w)) for x in w])
        fallback = pooled_rate(specs)
        scores = []
        for b in range(nbins):
            mass = sum(((n1 + n2) * rows[i][b] for i, (_, n1, n2) in enumerate(specs)), Fraction(0))
            pos = sum(((n1 + n2) * p * rows[i][b] for i, (p, n1, n2) in enumerate(specs)), Fraction(0))
            scores.append(pos / mass if mass else fallback)
        return scores, rows
    if kind == "calibrated":
        return split_assignment(rng, specs)
    if kind == "banded":
        return split_assignment(rng, specs, eps)
    if kind == "identity":
        return identity_assignment(specs)
    return [pooled_rate(specs)], [[Fraction(1)] for _ in range(k)]


@dataclass(frozen=True)
class Triple:
    family: str
    kind: str
    specs: tuple[Spec, ...]
    scores: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    eps: Fraction
    inst: Instance
    asg: RiskAssignment


FAMILIES = ("small", "small", "float", "ingested")
KINDS = ("pooled",) * 6 + ("calibrated",) * 5 + ("banded",) * 5 + ("identity",) * 2 + ("trivial",) * 2


def stream_block(rng: Random, n: int) -> list[Triple]:
    """n triples whose families (half small, a quarter each float and
    ingested), assignment kinds (30% pooled-rounded, 25% calibrated-split, 25%
    banded-split, 10% identity, 10% trivial), sizes (2 to 24 features, evenly)
    and eps values come in fixed shares; the seed pairs them up and draws the
    values. Fixed shares keep the mix of cheap and costly requests the same on
    every seed."""
    strata = [
        [FAMILIES[i % len(FAMILIES)] for i in range(n)],
        [KINDS[i % len(KINDS)] for i in range(n)],
        [2 + 22 * i // (n - 1) for i in range(n)],
        [EPSILONS[i % len(EPSILONS)] for i in range(n)],
    ]
    for column in strata:
        rng.shuffle(column)
    block = []
    for family, kind, k, eps in zip(*strata):
        specs = _stream_specs(rng, family, k)
        scores, rows = stream_assignment(rng, specs, eps, kind)
        block.append(Triple(
            family, kind, tuple(specs), tuple(scores), tuple(tuple(r) for r in rows), eps,
            instance(specs), assignment(k, scores, rows),
        ))
    return block
