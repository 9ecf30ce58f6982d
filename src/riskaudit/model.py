"""Core data model: populations, risk assignments, and exact group statistics.

Everything numeric is a `fractions.Fraction`. Two fixed groups, identified as
1 and 2, share one feature space; a feature carries a single probability of a
positive outcome that is common to both groups, while per-group masses say how
many people of each group hold the feature. Masses are nonnegative rationals,
not necessarily integers.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, NamedTuple, Optional, Union

from .errors import DomainError, InvalidAssignmentError, InvalidInstanceError

GROUPS = (1, 2)

RationalLike = Union[Fraction, int, str, float]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce to an exact Fraction.

    Accepts Fractions, ints, floats (converted at their exact binary value),
    and strings in either "a/b" or decimal form ("0.25" becomes 1/4 exactly).
    A string is read by `_parse_literal`, which bounds its size.
    """
    if type(value) is Fraction:  # immutable, so it is its own exact value
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, (Fraction, int, float)):
        return Fraction(value)
    if isinstance(value, str):
        return _parse_literal(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def _rational(value) -> bool:
    """Whether a value is an int or a Fraction, and not a bool."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _integer_parts(value) -> Optional[tuple[int, int]]:
    """(numerator, denominator) of a value that is `_rational`, else None.
    The exact types are read without their properties."""
    kind = type(value)
    if kind is Fraction:
        return value._numerator, value._denominator
    if kind is int:
        return value, 1
    return (value.numerator, value.denominator) if _rational(value) else None


def _read_rational(value: RationalLike, name: str) -> Fraction:
    """`as_fraction(value)`, refused with DomainError naming the argument when
    it is no rational at all: NaN, an infinity, malformed text, another type."""
    try:
        return as_fraction(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a rational, not {_shown(value):.60}") from None


def _nonnegative(value: RationalLike, name: str) -> Fraction:
    """`_read_rational(value, name)`, refused with DomainError when negative."""
    v = _read_rational(value, name)
    if v.numerator < 0:
        raise DomainError(f"{name} must be nonnegative")
    return v


def _require_int(value, name: str) -> None:
    # a bool is not an int here
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{name} must be an int, not {_shown(value):.60}")


def _require_type(value, kind: type, name: str) -> None:
    """Refuse an argument that is no `kind`, naming the argument, the kind
    and the value, before any work is done on it."""
    if not isinstance(value, kind):
        kind_name = kind.__name__
        article = "an" if kind_name[0] in "AEIOU" else "a"
        raise DomainError(f"{name} must be {article} {kind_name}, not {_shown(value):.60}")


def _require_count(value, name: str, least: int = 0) -> None:
    _require_int(value, name)
    if value < least:
        raise DomainError(f"{name} must be at least {least}" if least else f"{name} must be nonnegative")


# Python converts ints of more digits than this to and from text only after
# sys.set_int_max_str_digits, so a longer number can be neither read nor shown.
_MAX_DIGITS = 4300


class _LiteralTooLong(ValueError):
    def __init__(self) -> None:
        super().__init__(f"number with more than {_MAX_DIGITS} digits")


def _shown(value, form=repr) -> str:
    """`form(value)`, the text a message shows for a value; a value that
    holds a number too long for Python to turn into text is named instead."""
    try:
        return form(value)
    except ValueError:
        return f"<number with more than {_MAX_DIGITS} digits>"


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


_SQRT_SCALE = 1 << 128


def _sqrt_upper(x: Fraction) -> tuple[Fraction, bool]:
    """Exact square root of x >= 0 when it is rational, else a tight rational
    upper bound. Every caller passes a value it has checked or built
    nonnegative: a band width, or a surd's squared half-gap, which is half a
    positive weight or a checked nonnegative discriminant.

    The bound rounds up at granularity 2**-128. Returns (value, exact).
    """
    a, b = x.numerator, x.denominator
    ra, rb = isqrt(a), isqrt(b)
    if ra * ra == a and rb * rb == b:
        return Fraction(ra, rb), True
    t = a * _SQRT_SCALE * _SQRT_SCALE
    q = isqrt(t // b)
    while q * q * b < t:
        q += 1
    return Fraction(q, _SQRT_SCALE), False


# sets an attribute of a `_Frozen` value, which refuses `setattr`
_set = object.__setattr__


class _Frozen:
    """An immutable value over the fields named in `_fields`: its repr is
    `Name(field=value, ...)`, it equals a value of the same class with equal
    fields, and it hashes as the tuple of its fields. A subclass stores its
    values in `__slots__` and sets each once, in `__init__`, with `_set`;
    assigning or deleting an attribute afterwards raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state) -> None:
        # copy and pickle restore the slots, given as (None, {slot: value}), here
        for name, value in state[1].items():
            _set(self, name, value)


class FeatureVector(_Frozen):
    """One feature: an id, a shared positive-outcome probability, per-group masses."""

    __slots__ = _fields = ("id", "p", "n1", "n2")

    def __init__(self, id: str, p: Fraction, n1: Fraction, n2: Fraction):
        _set(self, "id", id)
        _set(self, "p", p)
        _set(self, "n1", n1)
        _set(self, "n2", n2)

    def count(self, group: int) -> Fraction:
        return (self.n1, self.n2)[_group_index(group)]

    @property
    def total(self) -> Fraction:
        return self.n1 + self.n2


def feature(fid: str, p: RationalLike, n1: RationalLike, n2: RationalLike) -> FeatureVector:
    """Convenience constructor coercing all numeric fields; a field that is
    no rational, or an id with no text, is refused with DomainError naming it."""
    try:
        fid = str(fid)
    except ValueError:  # a number too long to turn into text
        raise DomainError(f"fid has no text form: {_shown(fid)}") from None
    return FeatureVector(fid, _read_rational(p, "p"), _read_rational(n1, "n1"), _read_rational(n2, "n2"))


class _Scaled(NamedTuple):
    """A valid instance as integers over one denominator: (n1, n2, n1 * p,
    n2 * p) per feature, and their column sums as `totals`."""

    weights: tuple[tuple[int, int, int, int], ...]
    denominator: int
    totals: tuple[int, int, int, int]


def _tuple(values, name: str) -> tuple:
    """`values` as a tuple; DomainError naming them when they are not iterable."""
    try:
        return tuple(values)
    except TypeError:
        raise DomainError(f"{name} must be iterable, not {_shown(values):.60}") from None


class Instance(_Frozen):
    """An ordered collection of features describing both groups at once.

    Construction does not enforce semantic validity; `validate_instance`
    reports violations and operations that need a valid instance call
    `require_valid`, which validates an instance once and keeps its integer
    form on it; a frozen instance cannot change under that form.
    """

    __slots__ = ("features", "_form")
    _fields = ("features",)

    def __init__(self, features: Iterable[FeatureVector]):
        _set(self, "features", _tuple(features, "features"))
        _set(self, "_form", None)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(f.id for f in self.features)


class ValidationReport(NamedTuple):
    """Outcome of structural validation. Never raised; inspect `ok`."""

    ok: bool
    violations: tuple[str, ...]


def validate_instance(inst: Instance) -> ValidationReport:
    """Check instance invariants and report every violation found.

    Checks: unique feature ids that are nonempty strings, probabilities and
    masses that are ints or Fractions (not bools), probabilities in [0, 1],
    nonnegative masses, and strictly positive total mass in each group. The
    same pass scales a valid instance to integers and keeps that form on it
    (see `_scaled`).
    """
    _require_type(inst, Instance, "inst")
    violations: list[str] = []
    seen: set[str] = set()
    parts: list[tuple[int, int]] = []  # n1, n1 * p, n2, n2 * p per feature, as (numerator, denominator)
    for f in inst.features:
        if not isinstance(f, FeatureVector):
            violations.append(f"{_shown(f):.60} is not a FeatureVector")
            continue
        if not isinstance(f.id, str) or not f.id:
            violations.append(f"feature id {_shown(f.id)} is not a nonempty string")
        elif f.id in seen:
            violations.append(f"duplicate feature id {f.id!r}")
        else:
            seen.add(f.id)
        # signs and ranges are read in integers (a denominator is positive),
        # which costs far less than comparing Fractions
        p, n1, n2 = _integer_parts(f.p), _integer_parts(f.n1), _integer_parts(f.n2)
        if not (p and n1 and n2 and 0 <= p[0] <= p[1] and n1[0] >= 0 and n2[0] >= 0):
            for name, v in (("probability", f.p), ("group-1 mass", f.n1), ("group-2 mass", f.n2)):
                if not _rational(v):
                    violations.append(f"feature {_shown(f.id)}: {name} {_shown(v)} is not an int or Fraction")
                elif name == "probability" and not (0 <= v.numerator <= v.denominator):
                    violations.append(f"feature {_shown(f.id)}: probability {_shown(v, str)} outside [0, 1]")
                elif name != "probability" and v.numerator < 0:
                    violations.append(f"feature {_shown(f.id)}: negative {name} {_shown(v, str)}")
        if not violations:  # an instance with a violation has no integer form
            for a, b in (n1, n2):
                top, bottom = a * p[0], b * p[1]
                r = gcd(top, bottom)
                parts += ((a, b), (top // r, bottom // r))
    if violations:
        features = [f for f in inst.features if isinstance(f, FeatureVector)]
        totals = [sum(n for n in (f.count(t) for f in features) if _rational(n)) for t in GROUPS]
    else:
        d = lcm(*(b for _, b in parts))
        flat = [a * (d // b) for a, b in parts]
        columns = (flat[0::4], flat[2::4], flat[1::4], flat[3::4])
        form = _Scaled(tuple(zip(*columns)), d, tuple(map(sum, columns)))
        totals = form.totals[:2]
    violations += [f"group {t} has no mass" for t, total in zip(GROUPS, totals) if total <= 0]
    if not violations and inst._form is None:
        _set(inst, "_form", form)
    return ValidationReport(ok=not violations, violations=tuple(violations))


def require_valid(inst: Instance) -> Instance:
    """The instance itself when it is valid; raises InvalidInstanceError
    otherwise. Only the first call on an instance validates it."""
    _scaled(inst)
    return inst


def _scaled(inst: Instance) -> _Scaled:
    """A valid instance's integer form, built by its first validation and
    kept on the instance."""
    _require_type(inst, Instance, "inst")
    if inst._form is None:
        report = validate_instance(inst)
        if not report.ok:
            raise InvalidInstanceError(report.violations)
    return inst._form


class GroupStats(NamedTuple):
    """Exact per-group aggregates; index 0 holds group 1, index 1 holds group 2."""

    population: tuple[Fraction, Fraction]
    positive_mass: tuple[Fraction, Fraction]
    base_rate: tuple[Fraction, Fraction]


def _group_index(group: int) -> int:
    if group not in GROUPS:
        raise DomainError(f"unknown group {_shown(group)}; groups are 1 and 2")
    return group - 1


def derived_stats(inst: Instance) -> GroupStats:
    """Population size, expected positive mass, and base rate per group."""
    _, d, (n1, n2, mu1, mu2) = _scaled(inst)
    return GroupStats(
        population=(Fraction(n1, d), Fraction(n2, d)),
        positive_mass=(Fraction(mu1, d), Fraction(mu2, d)),
        base_rate=(Fraction(mu1, n1), Fraction(mu2, n2)),
    )


class Record(NamedTuple):
    """One observed person: which feature they hold, their group, their outcome."""

    feature_id: str
    group: int
    positive: bool


class RecordTable(_Frozen):
    """A nonempty table of records covering both groups."""

    __slots__ = _fields = ("rows",)

    def __init__(self, rows: Iterable[Record]):
        rows = _tuple(rows, "rows")
        if not rows:
            raise DomainError("record table is empty")
        for r in rows:
            if not isinstance(r, Record):
                raise DomainError(f"rows must hold Records, not {_shown(r):.60}")
            if r.group not in GROUPS:
                raise DomainError(f"record for {_shown(r.feature_id)}: unknown group {_shown(r.group, str)}")
        present = {r.group for r in rows}
        for t in GROUPS:
            if t not in present:
                raise DomainError(f"group {t} has no records")
        _set(self, "rows", rows)


class DivergenceEntry(NamedTuple):
    feature_id: str
    group: int
    group_rate: Fraction
    deviation: Fraction


class DivergenceReport(NamedTuple):
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
    _require_type(table, RecordTable, "table")
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


class RiskAssignment(_Frozen):
    """Bins with scores plus a row-stochastic allocation of features to bins.

    `rows[i][b]` is the fraction of feature `feature_ids[i]` sent to bin `b`.
    Rows must sum to exactly 1 (no tolerance); scores and allocation entries
    must be ints or Fractions (not bools) in [0, 1]. A bin may receive zero mass.
    Construction checks and keeps each row as integers over the lcm of its
    denominators. The audits keep the bin table of the last instance this
    assignment was read against in `_table` (see `audit._bin_table`).
    """

    __slots__ = ("feature_ids", "scores", "rows", "_int_rows", "_table")
    _fields = __slots__[:3]

    def __init__(self, feature_ids: Iterable[str], scores: Iterable[Fraction], rows: Iterable[Iterable]):
        try:
            feature_ids, scores, rows = tuple(feature_ids), tuple(scores), tuple(map(tuple, rows))
            distinct = len(set(feature_ids)) == len(feature_ids)
        except TypeError as exc:  # an argument or a row that is not iterable, an unhashable id
            raise InvalidAssignmentError(f"malformed assignment: {exc}") from None
        if not scores:
            raise InvalidAssignmentError("assignment has no bins")
        if not distinct:
            raise InvalidAssignmentError("duplicate feature id in assignment")
        if len(rows) != len(feature_ids):
            raise InvalidAssignmentError("one allocation row per feature required")
        for b, v in enumerate(scores):
            if not _rational(v):
                raise InvalidAssignmentError(f"score {_shown(v)} of bin {b} is not an int or Fraction")
            if not (0 <= v <= 1):
                raise InvalidAssignmentError(f"score {_shown(v, str)} outside [0, 1]")
        int_rows = []
        for fid, row in zip(feature_ids, rows):
            if len(row) != len(scores):
                raise InvalidAssignmentError(
                    f"allocation row for {_shown(fid)} has {len(row)} entries, expected {len(scores)}"
                )
            for b, x in enumerate(row):
                if not _rational(x):
                    raise InvalidAssignmentError(
                        f"allocation entry {_shown(x)} for {_shown(fid)}, bin {b}, is not an int or Fraction"
                    )
            d = lcm(*(x.denominator for x in row))
            ints = tuple(x.numerator * (d // x.denominator) for x in row)
            for x, n in zip(row, ints):
                if not (0 <= n <= d):
                    raise InvalidAssignmentError(
                        f"allocation entry {_shown(x, str)} for {_shown(fid)} outside [0, 1]"
                    )
            if sum(ints) != d:
                raise InvalidAssignmentError(
                    f"allocation row for {_shown(fid)} sums to {_shown(Fraction(sum(ints), d), str)}, "
                    "expected exactly 1"
                )
            int_rows.append(ints)
        _set(self, "feature_ids", feature_ids)
        _set(self, "scores", scores)
        _set(self, "rows", rows)
        _set(self, "_int_rows", tuple(int_rows))
        _set(self, "_table", None)

    @property
    def bin_count(self) -> int:
        return len(self.scores)


def _assignment(inst: Instance, rows, scores) -> RiskAssignment:
    """The assignment of `inst` whose allocation rows are these integer
    rows, each read over its own sum, and whose bins carry these scores.
    Every candidate the package builds is built here."""
    fractions = tuple(tuple(Fraction(x, total) for x in row) for row, total in zip(rows, map(sum, rows)))
    return RiskAssignment(inst.ids, tuple(scores), fractions)


def _row_order(inst: Instance, asg: RiskAssignment) -> list[int]:
    position = {fid: i for i, fid in enumerate(asg.feature_ids)}
    order = [position.get(f.id) for f in inst.features]
    # the id sets are compared only when the order is no permutation
    if (None in order or len(set(order)) != len(position)) and set(position) != (ids := {f.id for f in inst.features}):
        parts = [f"{word} features {_shown(sorted(fids))}"
                 for word, fids in (("missing", ids - set(position)), ("unknown", set(position) - ids)) if fids]
        raise InvalidAssignmentError("assignment does not match instance: " + ", ".join(parts))
    return order
