"""Subset-sum embedding into the fair-assignment decision problem.

Given positive integer weights w_1..w_m and a target T, the construction
builds a two-group population in which a non-trivial integral fair
assignment exists exactly when some subset of the weights sums to T.

Shape of the construction, for m kept weights:

* scaled weights  ``w_hat_i = w_i / (T * m**4)``
* pair centers    ``c_i = i / (m + 1)`` with half-gaps ``sqrt(w_hat_i / 2)``,
  giving group-2 probabilities ``p(2i-1) = c_i - gap_i`` and
  ``p(2i) = c_i + gap_i``; each pair's two features each hold mass
  ``1 / (2m)`` of group 2
* two anchor features holding half of group 1 each, at probabilities
  ``(1 -+ sqrt(2g - 1)) / 2`` where ``g`` is the positive-class average both
  groups are forced to share; g has the rational closed form
  ``(1/m) * sum_i (2 c_i**2 + w_hat_i) - 1/m**5``

Fair groupings of the group-2 features are characterized by the rational
equation ``sum over blocks q of (1/|q|) * sum over pairs in q of
(p_i - p_j)**2 == 1/m**4``; blocks that keep a pair together contribute
exactly ``w_hat_i``, so subset choices map onto pairings.

Every probability is a quadratic surd ``center + sign * sqrt(q)`` (`Surd`),
kept exact and written as its three fields. The construction also writes
the pair features over an integer radical basis, on which the equation
checker decides any grouping with integer arithmetic; `search_groupings`
checks every grouping, and so decides exactly whether the reduced instance
has a fair non-trivial integral assignment.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import DomainError, ReductionInfeasibleError
from .model import _Frozen, _require_type, _set, _sqrt_upper, _tuple
from .partitions import DEFAULT_MAX_ITEMS, Partition, _blocks, _growth_strings


class SubsetSumInstance(_Frozen):
    """Positive integer weights and a positive integer target."""

    __slots__ = _fields = ("weights", "target")

    def __init__(self, weights: Iterable[int], target: int):
        weights = _tuple(weights, "weights")
        if not weights:
            raise DomainError("at least one weight required")
        for w in weights:
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise DomainError(f"weights must be positive integers, got {w!r}")
        if not isinstance(target, int) or isinstance(target, bool) or target < 1:
            raise DomainError(f"target must be a positive integer, got {target!r}")
        _set(self, "weights", weights)
        _set(self, "target", target)


def _require_searchable(count: int) -> None:
    if count > DEFAULT_MAX_ITEMS:
        raise DomainError(
            f"{count} weights: at most {DEFAULT_MAX_ITEMS} are searched or checked"
        )


def solve_subset_sum(ss: SubsetSumInstance) -> Optional[frozenset[int]]:
    """Independent exhaustive oracle. Returns 1-based indices of a solving
    subset (smallest bitmask first), or None. Exponential in len(weights),
    so more than DEFAULT_MAX_ITEMS weights are refused."""
    _require_type(ss, SubsetSumInstance)
    n = len(ss.weights)
    _require_searchable(n)
    for mask in range(1, 1 << n):
        total = 0
        for i in range(n):
            if mask >> i & 1:
                total += ss.weights[i]
        if total == ss.target:
            return frozenset(i + 1 for i in range(n) if mask >> i & 1)
    return None


class Surd(_Frozen):
    """The quadratic surd ``center + sign * sqrt(half_gap_squared)``.

    Equal to a Fraction when the root is rational; otherwise equal only to a
    surd with the same three fields.
    """

    __slots__ = _fields = ("center", "half_gap_squared", "sign")

    def __init__(self, center: Fraction, half_gap_squared: Fraction, sign: int):
        _set(self, "center", center)
        _set(self, "half_gap_squared", half_gap_squared)
        _set(self, "sign", sign)

    def _key(self):
        root, exact = _sqrt_upper(self.half_gap_squared)
        if exact:
            return self.center + self.sign * root
        return self.center, self.half_gap_squared, self.sign

    def __eq__(self, other):
        if not isinstance(other, (Surd, int, Fraction)):
            return NotImplemented
        return self._key() == (other._key() if isinstance(other, Surd) else other)

    def __hash__(self):
        return hash(self._key())


class ReducedInstance(_Frozen):
    """Output of the construction.

    Exact rational side data lives in `scaled_weights` and
    `required_pos_avg`; `rates_exact` holds the surds of all 2m + 2 features
    (pairs first, anchors last). Group 1's mass lies on the two anchors,
    group 2's spreads uniformly over the 2m pair features.
    """

    __slots__ = (
        "input_weights", "target", "kept_indices", "dropped_indices", "m", "scaled_weights",
        "required_pos_avg", "rates_exact", "group1_mass", "group2_mass", "_basis",
    )
    _fields = __slots__[:-1]

    def __init__(self, input_weights, target, kept_indices, dropped_indices, m, scaled_weights,
                 required_pos_avg, rates_exact, group1_mass, group2_mass, _basis):
        values = (input_weights, target, kept_indices, dropped_indices, m, scaled_weights,
                  required_pos_avg, rates_exact, group1_mass, group2_mass, _basis)
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(self.input_weights[i - 1] for i in self.kept_indices)


def reduce_subset_sum(ss: SubsetSumInstance) -> ReducedInstance:
    """Run the construction.

    Weights above the target cannot sit in any solution; they are dropped
    before the embedding and listed in `dropped_indices`. Raises ReductionInfeasibleError when
    the required positive-class average g violates 2g - 1 >= 0 or a derived
    probability would leave [0, 1] (both can only happen at m == 1).
    """
    _require_type(ss, SubsetSumInstance)
    kept = [i + 1 for i, w in enumerate(ss.weights) if w <= ss.target]
    dropped = [i + 1 for i, w in enumerate(ss.weights) if w > ss.target]
    if not kept:
        raise DomainError("no weight is at most the target; nothing to embed")
    m = len(kept)
    T = ss.target
    scale = T * m**4
    w_hat = tuple(Fraction(ss.weights[i - 1], scale) for i in kept)
    # (center, half-gap squared) of each pair
    pairs = [(Fraction(i, m + 1), w_hat[i - 1] / 2) for i in range(1, m + 1)]

    g = (
        Fraction(1, m) * sum((2 * c * c + w for (c, _), w in zip(pairs, w_hat)), Fraction(0))
        - Fraction(1, m**5)
    )
    disc = 2 * g - 1
    if disc < 0:
        raise ReductionInfeasibleError(f"required positive-class average {g} gives 2g - 1 = {disc} < 0")
    for i, (c, e) in enumerate(pairs, start=1):
        if e > c * c or e > (1 - c) * (1 - c):
            raise ReductionInfeasibleError(f"pair {i} would leave [0, 1]")

    rates_exact = tuple(
        Surd(c, e, sign) for c, e in pairs + [(Fraction(1, 2), disc / 4)] for sign in (-1, 1)
    )
    n_pairs = 2 * m
    group1 = tuple(
        Fraction(1, 2) if j >= n_pairs else Fraction(0) for j in range(n_pairs + 2)
    )
    group2 = tuple(
        Fraction(1, 2 * m) if j < n_pairs else Fraction(0) for j in range(n_pairs + 2)
    )
    # quadratic in m, so built only where the equation may be checked
    basis = None
    if m <= DEFAULT_MAX_ITEMS:
        basis = _radical_basis(rates_exact[:n_pairs], Fraction(1, m**4))

    return ReducedInstance(
        input_weights=tuple(ss.weights),
        target=T,
        kept_indices=tuple(kept),
        dropped_indices=tuple(dropped),
        m=m,
        scaled_weights=w_hat,
        required_pos_avg=g,
        rates_exact=rates_exact,
        group1_mass=group1,
        group2_mass=group2,
        _basis=basis,
    )


def _base_rates_are_half(ri: ReducedInstance) -> bool:
    """Whether both groups' base rates are exactly 1/2, decided on the surds:
    a group's mass-weighted centers sum to half its mass, and its signed root
    masses cancel radicand by radicand. By construction each pair's two
    features share a radicand and a mass, and so do the two anchors."""
    for masses in (ri.group1_mass, ri.group2_mass):
        roots: dict[Fraction, Fraction] = {}
        for r, x in zip(ri.rates_exact, masses):
            roots[r.half_gap_squared] = roots.get(r.half_gap_squared, 0) + r.sign * x
        centers = sum(r.center * x for r, x in zip(ri.rates_exact, masses))
        if 2 * centers != sum(masses) or any(roots.values()):
            return False
    return True


def _require_pair_cover(ri: ReducedInstance, part: Partition) -> None:
    _require_type(ri, ReducedInstance)
    _require_type(part, Partition)
    n = 2 * ri.m
    # a repeated index or an empty block leaves the member set whole
    if sum(map(len, part.blocks)) != n or not all(part.blocks) or part.members() != frozenset(range(1, n + 1)):
        raise DomainError(f"partition must split the group-2 indices 1..{n} into nonempty blocks")


def is_normal_form(ri: ReducedInstance, part: Partition) -> bool:
    """True when every block is a singleton or a full pair {2i-1, 2i}."""
    _require_pair_cover(ri, part)
    for block in part.blocks:
        if len(block) == 1:
            continue
        if len(block) == 2 and block[0] % 2 == 1 and block[1] == block[0] + 1:
            continue
        return False
    return True


def check_reduction_equation(ri: ReducedInstance, part: Partition) -> bool:
    """Decide, exactly, whether a grouping of the pair features is fair.

    The difference between the grouping's side of the equation and the
    target is a sum of rational multiples of square roots; it is zero only
    when its coefficient in every radical class is zero. The instance's
    radical basis yields those coefficients, scaled to integers. More than
    DEFAULT_MAX_ITEMS kept weights are refused.
    """
    _require_pair_cover(ri, part)
    _require_searchable(ri.m)
    return ri._basis.holds(part.blocks)


class _RadicalBasis(NamedTuple):
    """The reduction equation over the integers, built once per instance.

    Pair feature j is ``(center + root * sqrt(n_u)) / D`` for one integer
    radicand n_u of the basis (n_0 = 1). The product of two basis roots is
    ``factor * sqrt(core_c)`` for an integer factor and a radical class c:
    sqrt(x) and sqrt(y) share a class iff x * y is a square. Square roots of
    distinct square-free integers are linearly independent over Q
    (Besicovitch 1940), so a sum of them is zero iff every class coefficient
    is zero.

    A block q contributes ``sum p_j**2 - (sum p_j)**2 / |q|`` (its pair gaps
    squared over |q|), which is 0 for a singleton. Every coefficient is an
    integer once scaled by ``N' * D**2``, where N' is a common multiple of
    every block size times the target's denominator.
    """

    features: tuple[tuple[int, int, int], ...]  # (center, basis index u, root) per pair feature
    products: tuple[tuple[tuple[int, int], ...], ...]  # [u][v]: (class, factor) of sqrt(n_u * n_v)
    own: tuple[tuple[tuple[int, int], ...], ...]  # per pair feature: N' * p_j**2 as (class, coefficient)
    weights: tuple[int, ...]  # N' / |q| by block size |q|
    offset: tuple[int, ...]  # per class: minus the target

    def holds(self, blocks) -> bool:
        """True when every class coefficient of the grouping's residual is 0."""
        z = list(self.offset)
        features, own = self.features, self.own
        for block in blocks:
            if len(block) == 1:
                continue
            s = {0: 0}
            for j in block:
                center, u, root = features[j - 1]
                s[0] += center
                s[u] = s.get(u, 0) + root
                for c, x in own[j - 1]:
                    z[c] += x
            _subtract_square(z, s, self.weights[len(block)], self.products)
        return not any(z)


def _subtract_square(z: list[int], s: dict[int, int], weight: int, products) -> None:
    """z -= weight * (sum of s[u] * sqrt(n_u))**2, class by class."""
    items = [(u, x) for u, x in s.items() if x]
    for a, (u, x) in enumerate(items):
        row = products[u]
        c, f = row[u]
        z[c] -= weight * x * x * f
        for v, y in items[a + 1:]:
            c, f = row[v]
            z[c] -= 2 * weight * x * y * f


def _radical_basis(pair_rates: Sequence[Surd], target: Fraction) -> _RadicalBasis:
    radicands = [1]
    parts = []
    for r in pair_rates:
        q = r.half_gap_squared
        n = q.numerator * q.denominator  # sqrt(a / b) = sqrt(a * b) / b
        if n not in radicands:
            radicands.append(n)
        parts.append((r.center, radicands.index(n), Fraction(r.sign, q.denominator)))
    d = lcm(*(x.denominator for center, _, root in parts for x in (center, root)))
    features = tuple((int(center * d), u, int(root * d)) for center, u, root in parts)

    # sqrt(n) = root * sqrt(core), core a product of distinct elements of a
    # coprime base of non-squares, so core names n's radical class
    base = [b for b in _coprime_base(radicands) if isqrt(b) ** 2 != b]
    split = [_split_root(n, base) for n in radicands]
    classes = {1: 0}  # class 0 holds the rationals
    products = []
    for root_u, core_u in split:
        row = []
        for root_v, core_v in split:
            g = gcd(core_u, core_v)
            c = classes.setdefault(core_u // g * (core_v // g), len(classes))
            row.append((c, root_u * root_v * g))
        products.append(tuple(row))

    scale = lcm(*range(1, len(pair_rates) + 1)) * target.denominator
    own = []
    for center, u, root in features:
        z = [0] * len(classes)
        s = {0: center}
        s[u] = s.get(u, 0) + root
        _subtract_square(z, s, -scale, products)
        own.append(tuple((c, x) for c, x in enumerate(z) if x))
    offset = [0] * len(classes)
    offset[0] = -target.numerator * (scale // target.denominator) * d * d
    weights = (0,) + tuple(scale // size for size in range(1, len(pair_rates) + 1))
    return _RadicalBasis(features, tuple(products), tuple(own), weights, tuple(offset))


def _coprime_base(numbers: Sequence[int]) -> list[int]:
    """Pairwise coprime integers above 1 such that every positive number
    given is a product of their powers. Each split divides the product of
    all pending and base numbers by a gcd above 1, so the loop ends."""
    base: list[int] = []
    pending = [n for n in numbers if n > 1]
    while pending:
        x = pending.pop()
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[i]
                pending += [y for y in (g, b // g, x // g) if y > 1]
                break
        else:
            base.append(x)
    return base


def _split_root(n: int, base: list[int]) -> tuple[int, int]:
    """(root, core) with sqrt(n) = root * sqrt(core), where core is the
    product of the base elements whose power in n is odd. The base elements
    are pairwise coprime non-squares, so a product of distinct ones is a
    square only when it is empty: sqrt(x) and sqrt(y) share a class iff
    their cores are equal."""
    core = 1
    for b in base:
        rest, odd = n, False
        while rest % b == 0:
            rest //= b
            odd = not odd
        if odd:
            core *= b
    return isqrt(n // core), core


def encode_solution(ri: ReducedInstance, chosen: Iterable[int]) -> Partition:
    """Partition that keeps the chosen weights' pairs together.

    `chosen` uses 1-based positions in the original weight list; positions
    that were dropped (or are out of range) are rejected.
    """
    _require_type(ri, ReducedInstance)
    chosen_set = set(_tuple(chosen, "chosen"))
    position = {orig: k + 1 for k, orig in enumerate(ri.kept_indices)}
    outside = sorted(chosen_set - position.keys())
    if outside:
        raise DomainError(f"weight position {outside[0]} is not part of the embedding")
    paired = {position[orig] for orig in chosen_set}
    blocks: list[tuple[int, ...]] = []
    for i in range(1, ri.m + 1):
        blocks += [(2 * i - 1, 2 * i)] if i in paired else [(2 * i - 1,), (2 * i,)]
    return Partition(tuple(blocks))


def decode_partition(ri: ReducedInstance, part: Partition) -> frozenset[int]:
    """Read a subset choice off a normal-form partition.

    Returns the original 1-based weight positions whose pairs stay together.
    When the reduction equation holds for `part`, those weights sum to the
    target.
    """
    if not is_normal_form(ri, part):
        raise DomainError("partition is not in paired/singleton normal form")
    out = set()
    for block in part.blocks:
        if len(block) == 2:
            pair_index = (block[0] + 1) // 2
            out.add(ri.kept_indices[pair_index - 1])
    return frozenset(out)


def search_normal_forms(ri: ReducedInstance) -> Optional[Partition]:
    """First normal-form partition satisfying the reduction equation, if any.

    Scans subset choices in increasing bitmask order, each checked as its
    kept pairs alone (singletons add nothing to the equation); only the hit
    becomes a `Partition`. More than DEFAULT_MAX_ITEMS kept weights are refused.
    """
    _require_type(ri, ReducedInstance)
    m = ri.m
    _require_searchable(m)
    for mask in range(1 << m):
        chosen = [i for i in range(m) if mask >> i & 1]
        if ri._basis.holds([(2 * i + 1, 2 * i + 2) for i in chosen]):
            return encode_solution(ri, [ri.kept_indices[i] for i in chosen])
    return None


def search_groupings(ri: ReducedInstance) -> Optional[Partition]:
    """First grouping of the 2m pair features, in canonical order
    (`enumerate_partitions`), on which the reduction equation holds, or None.
    More than DEFAULT_MAX_ITEMS // 2 = 6 kept weights are refused, before any
    grouping is walked: `enumerate_partitions` takes at most DEFAULT_MAX_ITEMS
    items. Each grouping is checked as its blocks; only the hit becomes a
    `Partition`.

    This decides whether the exact reduced instance has any fair non-trivial
    integral assignment of its 2m + 2 features. Take a partition into
    calibrated blocks b, each scored at its pooled rate v_b, and write
    S_t = sum_b v_b**2 * M_bt, with M_bt group t's mass in b. Both groups
    have mass 1 and base rate exactly 1/2, so group t's positive-class
    average is 2 S_t and its negative-class average 1 - 2 S_t: both balance
    conditions hold exactly when S_1 = S_2. A block with one group only is
    always calibrated.

    - Anchors in different blocks: a calibrated block scores an anchor at its
      own rate, so S_1 = g/2, and S_2 = g/2 is exactly the reduction equation
      on the grouping the blocks induce on the pair features. A calibrated
      block that mixes an anchor with pair features adds to S_2 what those
      features alone would, so every such grouping is reached with each
      anchor kept as a singleton block. The two anchor scores differ, since
      2g - 1 > 0 for every m >= 2 (m = 1 never builds), so the assignment is
      non-trivial.
    - Anchors together: S_1 = 1/4, and by Cauchy-Schwarz
      S_2 >= (sum_b v_b * M_b2)**2 = 1/4, with equality only when every
      populated score is 1/2, which is the trivial assignment.
    """
    _require_type(ri, ReducedInstance)
    if 2 * ri.m > DEFAULT_MAX_ITEMS:
        raise DomainError(f"{ri.m} weights: at most {DEFAULT_MAX_ITEMS // 2} are searched by grouping")
    items = range(1, 2 * ri.m + 1)
    for labels in _growth_strings(2 * ri.m):
        blocks = _blocks(labels, items)
        if ri._basis.holds(blocks):
            return Partition(tuple(map(tuple, blocks)))
    return None
