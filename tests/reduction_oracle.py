"""The reduction-equation checker as it was written before the per-instance
integer radical basis, and the normal-form search and solution encoding as
they were before the search read the basis directly, kept as test oracles.

`check_reduction_equation`, `_square`, `_merge` and `_class_coefficients` are
copied unchanged from the package, apart from `rates_exact[j - 1].terms()`,
which became `_terms(rates_exact[j - 1])` when the package dropped
`Surd.terms`. `encode_solution` and `search_normal_forms` are copied
unchanged as well; here the search's `check_reduction_equation` is the
`Fraction` checker above, which decides a normal-form partition by summing
its kept scaled weights. `tests/test_reduction.py` compares the package
against them.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable, Optional

from riskaudit.errors import DomainError
from riskaudit.model import _sqrt_upper
from riskaudit.partitions import Partition
from riskaudit.reduction import ReducedInstance, Surd, _require_pair_cover, _require_searchable, is_normal_form


def _terms(surd: Surd) -> tuple[tuple[Fraction, Fraction], ...]:
    """(coefficient, radicand) pairs whose sum c * sqrt(r) is the surd."""
    return (surd.center, Fraction(1)), (Fraction(surd.sign), surd.half_gap_squared)


# from riskaudit/reduction.py
def check_reduction_equation(ri: ReducedInstance, part: Partition) -> bool:
    """Decide, exactly, whether a grouping of the pair features is fair.

    Normal-form partitions reduce to a rational identity: kept-together pairs
    contribute their scaled weight, singletons contribute nothing. Any other
    partition is expanded into rational multiples of square roots; the
    difference from the target is zero only when its coefficient in every
    radical class is zero.
    """
    _require_pair_cover(ri, part)
    target = Fraction(1, ri.m**4)

    if is_normal_form(ri, part):
        kept = [block[1] // 2 for block in part.blocks if len(block) == 2]
        return sum((ri.scaled_weights[i - 1] for i in kept), Fraction(0)) == target

    # (1/|q|) * sum of squared pair gaps = sum p_i**2 - (sum p_i)**2 / |q|
    terms = [(-target, Fraction(1))]
    for block in part.blocks:
        total = _merge(t for j in block for t in _terms(ri.rates_exact[j - 1]))
        terms += [t for j in block for t in _square(_terms(ri.rates_exact[j - 1]))]
        terms += [(-c / len(block), r) for c, r in _square(total)]
    return all(c == 0 for c in _class_coefficients(terms))


def _square(x) -> list[tuple[Fraction, Fraction]]:
    """Square of a sum of (coefficient, radicand) terms."""
    return [(c1 * c2, r1 * r2) for c1, r1 in x for c2, r2 in x]


def _merge(terms) -> list[tuple[Fraction, Fraction]]:
    """Collect the coefficients of equal radicands, dropping zero terms."""
    by_radicand: Counter = Counter()
    for c, r in terms:
        by_radicand[r] += c
    return [(c, r) for r, c in by_radicand.items() if c and r]


def _class_coefficients(terms) -> list[Fraction]:
    """Coefficients of sum(c * sqrt(r)) over (c, r) terms, one per radical
    class: sqrt(x) and sqrt(y) share a class iff x * y is a rational square,
    and then sqrt(x) = (root(x * y) / y) * sqrt(y). Square roots of distinct
    square-free integers are linearly independent over Q (Besicovitch 1940),
    so the sum is zero iff every class coefficient is zero."""
    classes: list[list[Fraction]] = []  # [representative radicand, coefficient]
    for c, r in _merge(terms):
        for cls in classes:
            root, exact = _sqrt_upper(r * cls[0])
            if exact:
                cls[1] += c * root / cls[0]
                break
        else:
            classes.append([r, c])
    return [c for _, c in classes]


# from riskaudit/reduction.py
def encode_solution(ri: ReducedInstance, chosen: Iterable[int]) -> Partition:
    """Partition that keeps the chosen weights' pairs together.

    `chosen` uses 1-based positions in the original weight list; positions
    that were dropped (or are out of range) are rejected.
    """
    chosen_set = set(chosen)
    position = {orig: k + 1 for k, orig in enumerate(ri.kept_indices)}
    blocks: list[tuple[int, ...]] = []
    paired: set[int] = set()
    for orig in sorted(chosen_set):
        if orig not in position:
            raise DomainError(
                f"weight position {orig} is not part of the embedding"
            )
        i = position[orig]
        blocks.append((2 * i - 1, 2 * i))
        paired.update(blocks[-1])
    for j in range(1, 2 * ri.m + 1):
        if j not in paired:
            blocks.append((j,))
    return Partition.from_blocks(blocks)


# from riskaudit/reduction.py
def search_normal_forms(ri: ReducedInstance) -> Optional[Partition]:
    """First normal-form partition satisfying the reduction equation, if any.

    Scans subset choices in increasing bitmask order; deterministic. More
    than DEFAULT_MAX_ITEMS kept weights are refused.
    """
    m = ri.m
    _require_searchable(m)
    for mask in range(1 << m):
        chosen = [ri.kept_indices[i] for i in range(m) if mask >> i & 1]
        part = encode_solution(ri, chosen)
        if check_reduction_equation(ri, part):
            return part
    return None
