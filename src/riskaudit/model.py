"""Core data model: populations, risk assignments, and exact group statistics.

Everything numeric is a `fractions.Fraction`. Two fixed groups, identified as
1 and 2, share one feature space; a feature carries a single probability of a
positive outcome that is common to both groups, while per-group masses say how
many people of each group hold the feature. Masses are nonnegative rationals,
not necessarily integers.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional, Union

from .errors import DomainError, InvalidAssignmentError, InvalidInstanceError

GROUPS = (1, 2)

RationalLike = Union[Fraction, int, str, float]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce to an exact Fraction.

    Accepts Fractions, ints, floats (converted at their exact binary value),
    and strings in either "a/b" or decimal form ("0.25" becomes 1/4 exactly).
    A string is read by `_parse_literal`, which bounds its size.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, str):
        return _parse_literal(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def _rational(value) -> bool:
    """Whether a value is an int or a Fraction, and not a bool."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _nonnegative(value: RationalLike, name: str) -> Fraction:
    """`as_fraction(value)`, refused with DomainError when negative."""
    v = as_fraction(value)
    if v < 0:
        raise DomainError(f"{name} must be nonnegative")
    return v


# Python converts ints of more digits than this to and from text only after
# sys.set_int_max_str_digits, so a longer number can be neither read nor shown.
_MAX_DIGITS = 4300


class _LiteralTooLong(ValueError):
    def __init__(self) -> None:
        super().__init__(f"number with more than {_MAX_DIGITS} digits")


# the string forms `Fraction` reads: "[sign]a/b", or "[sign]i.f e[sign]x"
_LITERAL = re.compile(
    r"\s*[-+]?(?=\d|\.\d)(\d+(?:_\d+)*|)"
    r"(?:/(\d+(?:_\d+)*)|(?:\.(\d+(?:_\d+)*|))?(?:[eE]([-+]?\d+(?:_\d+)*))?)\s*\Z"
)


def _parse_literal(text: str) -> Fraction:
    """The exact value of a rational literal, as `Fraction(text)` reads it.

    Its size is judged from its digits and exponent before any number is
    built: a literal whose numerator or denominator as written (digits times
    a power of ten) has more than _MAX_DIGITS digits raises _LiteralTooLong.
    Other malformed text raises ValueError.
    """
    m = _LITERAL.match(text)
    if m is not None:
        whole, denominator, decimals, exponent = (g.replace("_", "") if g else "" for g in m.groups())
        if len(exponent.lstrip("+-").lstrip("0")) > len(str(_MAX_DIGITS)):  # past any bound
            raise _LiteralTooLong()
        shift = int(exponent or 0) - len(decimals)
        if max(len(whole + decimals) + max(shift, 0), len(denominator), 1 - shift) > _MAX_DIGITS:
            raise _LiteralTooLong()
        if "/" not in text or denominator.strip("0"):  # a zero denominator is no literal
            return Fraction(text)
    raise ValueError(f"not a rational literal: {text if len(text) <= 40 else text[:40] + '...'!r}")


@dataclass(frozen=True)
class FeatureVector:
    """One feature: an id, a shared positive-outcome probability, per-group masses."""

    id: str
    p: Fraction
    n1: Fraction
    n2: Fraction

    def count(self, group: int) -> Fraction:
        if group == 1:
            return self.n1
        if group == 2:
            return self.n2
        raise DomainError(f"unknown group {group!r}; groups are 1 and 2")

    @property
    def total(self) -> Fraction:
        return self.n1 + self.n2


def feature(fid: str, p: RationalLike, n1: RationalLike, n2: RationalLike) -> FeatureVector:
    """Convenience constructor coercing all numeric fields."""
    return FeatureVector(str(fid), as_fraction(p), as_fraction(n1), as_fraction(n2))


class _Scaled(NamedTuple):
    """A valid instance as integers over one denominator: (n1, n2, n1 * p,
    n2 * p) per feature, and their column sums as `totals`."""

    weights: tuple[tuple[int, int, int, int], ...]
    denominator: int
    totals: tuple[int, int, int, int]


@dataclass(frozen=True)
class Instance:
    """An ordered collection of features describing both groups at once.

    Construction does not enforce semantic validity; `validate_instance`
    reports violations and operations that need a valid instance call
    `require_valid`, which validates an instance once and keeps its integer
    form on it; a frozen instance cannot change under that form.
    """

    features: tuple[FeatureVector, ...]
    _form: Optional[_Scaled] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(f.id for f in self.features)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of structural validation. Never raised; inspect `ok`."""

    ok: bool
    violations: tuple[str, ...]


def validate_instance(inst: Instance) -> ValidationReport:
    """Check instance invariants and report every violation found.

    Checks: unique feature ids that are nonempty strings, probabilities and
    masses that are ints or Fractions (not bools), probabilities in [0, 1],
    nonnegative masses, and strictly positive total mass in each group.
    """
    violations: list[str] = []
    seen: set[str] = set()
    for f in inst.features:
        if not isinstance(f.id, str) or not f.id:
            violations.append(f"feature id {f.id!r} is not a nonempty string")
        elif f.id in seen:
            violations.append(f"duplicate feature id {f.id!r}")
        else:
            seen.add(f.id)
        # signs and ranges are read in integers (a denominator is positive),
        # which costs far less than comparing Fractions
        for name, v in (("probability", f.p), ("group-1 mass", f.n1), ("group-2 mass", f.n2)):
            if not _rational(v):
                violations.append(f"feature {f.id!r}: {name} {v!r} is not an int or Fraction")
            elif name == "probability" and not (0 <= v.numerator <= v.denominator):
                violations.append(f"feature {f.id!r}: probability {v} outside [0, 1]")
            elif name != "probability" and v.numerator < 0:
                violations.append(f"feature {f.id!r}: negative {name} {v}")
    for t in GROUPS:
        masses = [n for n in (f.count(t) for f in inst.features) if _rational(n)]
        d = lcm(*(n.denominator for n in masses))
        if sum(n.numerator * (d // n.denominator) for n in masses) <= 0:
            violations.append(f"group {t} has no mass")
    return ValidationReport(ok=not violations, violations=tuple(violations))


def require_valid(inst: Instance) -> Instance:
    """The instance itself when it is valid; raises InvalidInstanceError
    otherwise. Only the first call on an instance validates it."""
    _scaled(inst)
    return inst


def _scaled(inst: Instance) -> _Scaled:
    """A valid instance's integer form, built on the first call and kept on the instance."""
    if inst._form is None:
        report = validate_instance(inst)
        if not report.ok:
            raise InvalidInstanceError(report.violations)
        parts = []
        for f in inst.features:
            for n in (f.n1, f.n2):
                top, bottom = n.numerator * f.p.numerator, n.denominator * f.p.denominator
                r = gcd(top, bottom)
                parts += ((n.numerator, n.denominator), (top // r, bottom // r))
        d = lcm(*(b for _, b in parts))
        flat = [a * (d // b) for a, b in parts]
        # flat holds n1, n1 * p, n2, n2 * p per feature
        weights = tuple(zip(flat[0::4], flat[2::4], flat[1::4], flat[3::4]))
        object.__setattr__(inst, "_form", _Scaled(weights, d, tuple(map(sum, zip(*weights)))))
    return inst._form


@dataclass(frozen=True)
class GroupStats:
    """Exact per-group aggregates; index 0 holds group 1, index 1 holds group 2."""

    population: tuple[Fraction, Fraction]
    positive_mass: tuple[Fraction, Fraction]
    base_rate: tuple[Fraction, Fraction]

    def for_group(self, group: int) -> tuple[Fraction, Fraction, Fraction]:
        i = _group_index(group)
        return self.population[i], self.positive_mass[i], self.base_rate[i]


def _group_index(group: int) -> int:
    if group not in GROUPS:
        raise DomainError(f"unknown group {group!r}; groups are 1 and 2")
    return group - 1


def derived_stats(inst: Instance) -> GroupStats:
    """Population size, expected positive mass, and base rate per group."""
    _, d, (n1, n2, mu1, mu2) = _scaled(inst)
    return GroupStats(
        population=(Fraction(n1, d), Fraction(n2, d)),
        positive_mass=(Fraction(mu1, d), Fraction(mu2, d)),
        base_rate=(Fraction(mu1, n1), Fraction(mu2, n2)),
    )


@dataclass(frozen=True)
class Record:
    """One observed person: which feature they hold, their group, their outcome."""

    feature_id: str
    group: int
    positive: bool


@dataclass(frozen=True)
class RecordTable:
    """A nonempty table of records covering both groups."""

    rows: tuple[Record, ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows:
            raise DomainError("record table is empty")
        for r in self.rows:
            if r.group not in GROUPS:
                raise DomainError(f"record for {r.feature_id!r}: unknown group {r.group}")
        present = {r.group for r in self.rows}
        for t in GROUPS:
            if t not in present:
                raise DomainError(f"group {t} has no records")


@dataclass(frozen=True)
class DivergenceEntry:
    feature_id: str
    group: int
    group_rate: Fraction
    deviation: Fraction


@dataclass(frozen=True)
class DivergenceReport:
    """Per-feature, per-group gap between the group's empirical positive rate
    and the pooled rate the instance was built with."""

    entries: tuple[DivergenceEntry, ...]

    @property
    def max_deviation(self) -> Fraction:
        return max((e.deviation for e in self.entries), default=Fraction(0))


def ingest_records(table: RecordTable) -> tuple[Instance, DivergenceReport]:
    """Build an instance from outcome records.

    The feature probability is the pooled positive rate across both groups;
    the divergence report records how far each group's own empirical rate
    sits from that pooled value.
    """
    order: dict[str, None] = {}  # feature ids, first seen first
    pos: dict[tuple[str, int], int] = {}
    tot: dict[tuple[str, int], int] = {}
    for r in table.rows:
        order[r.feature_id] = None
        key = (r.feature_id, r.group)
        tot[key] = tot.get(key, 0) + 1
        pos[key] = pos.get(key, 0) + (1 if r.positive else 0)

    features = []
    entries = []
    for fid in order:
        n1 = tot.get((fid, 1), 0)
        n2 = tot.get((fid, 2), 0)
        pooled = Fraction(pos.get((fid, 1), 0) + pos.get((fid, 2), 0), n1 + n2)
        features.append(FeatureVector(fid, pooled, Fraction(n1), Fraction(n2)))
        for t in GROUPS:
            key = (fid, t)
            if key in tot:
                rate = Fraction(pos.get(key, 0), tot[key])
                entries.append(DivergenceEntry(fid, t, rate, abs(rate - pooled)))
    inst = require_valid(Instance(tuple(features)))
    return inst, DivergenceReport(tuple(entries))


def split_by_group(inst: Instance) -> Instance:
    """Split every feature into single-group features.

    A feature with mass in both groups becomes two features (id suffixed with
    "@1" and "@2"); a feature with mass in one group keeps that side only.
    Zero-mass features are dropped. Group statistics are unchanged.
    """
    require_valid(inst)
    out: list[FeatureVector] = []
    for f in inst.features:
        if f.n1 > 0:
            out.append(FeatureVector(f"{f.id}@1", f.p, f.n1, Fraction(0)))
        if f.n2 > 0:
            out.append(FeatureVector(f"{f.id}@2", f.p, Fraction(0), f.n2))
    return require_valid(Instance(tuple(out)))


@dataclass(frozen=True)
class RiskAssignment:
    """Bins with scores plus a row-stochastic allocation of features to bins.

    `rows[i][b]` is the fraction of feature `feature_ids[i]` sent to bin `b`.
    Rows must sum to exactly 1 (no tolerance); scores and allocation entries
    must be ints or Fractions (not bools) in [0, 1]. A bin may receive zero mass.
    Construction checks and keeps each row as integers over the lcm of its
    denominators.
    """

    feature_ids: tuple[str, ...]
    scores: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    _int_rows: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "feature_ids", tuple(self.feature_ids))
        object.__setattr__(self, "scores", tuple(self.scores))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        if not self.scores:
            raise InvalidAssignmentError("assignment has no bins")
        if len(set(self.feature_ids)) != len(self.feature_ids):
            raise InvalidAssignmentError("duplicate feature id in assignment")
        if len(self.rows) != len(self.feature_ids):
            raise InvalidAssignmentError("one allocation row per feature required")
        for b, v in enumerate(self.scores):
            if not _rational(v):
                raise InvalidAssignmentError(f"score {v!r} of bin {b} is not an int or Fraction")
            if not (0 <= v <= 1):
                raise InvalidAssignmentError(f"score {v} outside [0, 1]")
        int_rows = []
        for fid, row in zip(self.feature_ids, self.rows):
            if len(row) != len(self.scores):
                raise InvalidAssignmentError(
                    f"allocation row for {fid!r} has {len(row)} entries, expected {len(self.scores)}"
                )
            for b, x in enumerate(row):
                if not _rational(x):
                    raise InvalidAssignmentError(
                        f"allocation entry {x!r} for {fid!r}, bin {b}, is not an int or Fraction"
                    )
            d = lcm(*(x.denominator for x in row))
            ints = tuple(x.numerator * (d // x.denominator) for x in row)
            for x, n in zip(row, ints):
                if not (0 <= n <= d):
                    raise InvalidAssignmentError(f"allocation entry {x} for {fid!r} outside [0, 1]")
            if sum(ints) != d:
                raise InvalidAssignmentError(
                    f"allocation row for {fid!r} sums to {Fraction(sum(ints), d)}, expected exactly 1"
                )
            int_rows.append(ints)
        object.__setattr__(self, "_int_rows", tuple(int_rows))

    @property
    def bin_count(self) -> int:
        return len(self.scores)


def _assignment(inst: Instance, rows, scores) -> RiskAssignment:
    """The assignment of `inst` whose allocation rows are these integer
    rows, each read over its own sum, and whose bins carry these scores.
    Every candidate the package builds is built here."""
    fractions = tuple(tuple(Fraction(x, sum(row)) for x in row) for row in rows)
    return RiskAssignment(inst.ids, tuple(scores), fractions)


def assignment_rows_for(inst: Instance, asg: RiskAssignment) -> tuple[tuple[Fraction, ...], ...]:
    """Allocation rows reordered to the instance's feature order.

    Raises when the feature id sets differ.
    """
    return tuple(asg.rows[i] for i in _row_order(inst, asg))


def _row_order(inst: Instance, asg: RiskAssignment) -> list[int]:
    if set(asg.feature_ids) != {f.id for f in inst.features}:
        missing = {f.id for f in inst.features} - set(asg.feature_ids)
        extra = set(asg.feature_ids) - {f.id for f in inst.features}
        parts = []
        if missing:
            parts.append(f"missing features {sorted(missing)}")
        if extra:
            parts.append(f"unknown features {sorted(extra)}")
        raise InvalidAssignmentError("assignment does not match instance: " + ", ".join(parts))
    position = {fid: i for i, fid in enumerate(asg.feature_ids)}
    return [position[f.id] for f in inst.features]
