"""Brute-force search for fair assignments over integral bin structures.

An integral assignment sends each feature wholly into one bin, so candidates
are exactly the set partitions of the feature list. Rational instances are
searched in exact arithmetic; a tolerance turns every equality in the
fairness check into an absolute residual bound, which is meant for instances
whose probabilities were rounded through floats.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .audit import _Table, _fair, _pooled_scores
from .errors import DomainError
from .loss import LossReport, _loss_report, _nontrivial
from .model import Instance, RiskAssignment, _scaled
from .partitions import DEFAULT_MAX_ITEMS, Partition, enumerate_partitions

OBJECTIVES = ("any_fair", "min_loss")


@dataclass(frozen=True)
class SolveResult:
    """Search outcome.

    status "found" carries a fair non-trivial witness; "none" means the
    search space was exhausted without one; "budget_exceeded" means the cap
    stopped the enumeration first (best-so-far attached when one was seen).
    """

    status: str
    partition: Optional[Partition]
    assignment: Optional[RiskAssignment]
    loss_report: Optional[LossReport]
    explored: int


def assignment_from_partition(inst: Instance, part: Partition) -> RiskAssignment:
    """Integral assignment for a partition of the instance's feature ids.

    Each block becomes one bin scored at the block's mass-weighted pooled
    probability. A block with no people contributes no bin; its features are
    folded into the first populated bin, which changes nothing anyone can
    measure.
    """
    scaled = _scaled(inst)
    ids = inst.ids
    if part.members() != set(ids):
        raise DomainError("partition does not cover exactly the instance's features")
    position = {fid: i for i, fid in enumerate(ids)}
    blocks = [[position[fid] for fid in block] for block in part.blocks]
    _, nums, dens = _block_sums(scaled, blocks)
    return _integral_assignment(scaled, ids, blocks, nums, dens)


_ONE = Fraction(1)
_ZERO = Fraction(0)


def _block_sums(scaled, blocks):
    """(table, score numerators, score denominators) of the integral
    assignment whose bins are the populated ones of `blocks` (feature
    positions), in block order, each scored at its pooled rate."""
    weights = scaled.weights
    sums = [tuple(map(sum, zip(*(weights[i] for i in block)))) for block in blocks]
    populated = [column for column in sums if column[0] or column[1]]
    if not populated:
        raise DomainError("no block carries any people")
    m0, m1, p0, p1 = map(list, zip(*populated))
    table = _Table((m0, m1), (p0, p1), scaled.denominator)
    return (table, *_pooled_scores(table, _ZERO))


def _integral_assignment(scaled, ids, blocks, nums, dens) -> RiskAssignment:
    """The assignment _block_sums scored; features of a block with no people
    go to the first bin."""
    weights = scaled.weights
    bin_of = [0] * len(ids)
    populated = [block for block in blocks if any(weights[i][0] or weights[i][1] for i in block)]
    for b, block in enumerate(populated):
        for i in block:
            bin_of[i] = b
    nbins = len(nums)
    rows = tuple(tuple(_ONE if b == hot else _ZERO for b in range(nbins)) for hot in bin_of)
    return RiskAssignment(feature_ids=ids, scores=tuple(map(Fraction, nums, dens)), rows=rows)


def _integral_candidates(inst: Instance, scaled, cap: Optional[int], max_items: int):
    """(blocks, table, score numerators, score denominators) of each
    partition in canonical order, at most cap + 1 of them. Blocks are ordered
    by smallest feature id, as in the id partition, so each candidate equals
    assignment_from_partition's."""
    ids = inst.ids
    gen = enumerate_partitions(
        len(ids), cap=None if cap is None else cap + 1, max_items=max_items
    )
    for index_part in gen:
        blocks = sorted(index_part.blocks, key=lambda block: min(ids[i] for i in block))
        yield (blocks, *_block_sums(scaled, blocks))


def solve_integral(
    inst: Instance,
    objective: str = "any_fair",
    cap: Optional[int] = None,
    tolerance: Optional[Fraction] = None,
    *,
    max_items: int = DEFAULT_MAX_ITEMS,
) -> SolveResult:
    """Search every partition for a fair non-trivial integral assignment.

    Objective "any_fair" returns the first hit in canonical enumeration
    order; "min_loss" scans everything and keeps the minimum total loss,
    ties resolved in favor of the earlier canonical encoding. The trivial
    all-in-one structure can never qualify because non-triviality requires
    two distinct scores with mass. With a tolerance, two populated scores
    count as one when they differ by at most min(tolerance, 2**-40); a wider
    gap is more than float rounding of the instance can make.
    """
    scaled = _scaled(inst)
    if objective not in OBJECTIVES:
        raise DomainError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    if cap is not None and cap < 0:
        raise DomainError("cap must be nonnegative")

    explored = 0
    exhausted = True
    best: Optional[tuple] = None
    for blocks, table, nums, dens in _integral_candidates(inst, scaled, cap, max_items):
        if cap is not None and explored >= cap:
            exhausted = False
            break
        explored += 1
        if not _fair(table, nums, dens, tolerance):
            continue
        if not _nontrivial(table, nums, dens, tolerance):
            continue
        report = _loss_report(table, nums, dens)
        if best is None or report.total < best[0].total:
            best = (report, blocks, nums, dens)
        if objective == "any_fair":
            break

    if best is None:
        return SolveResult("none" if exhausted else "budget_exceeded", None, None, None, explored)
    report, blocks, nums, dens = best
    ids = inst.ids
    part = Partition.from_blocks(tuple(ids[i] for i in block) for block in blocks)
    asg = _integral_assignment(scaled, ids, blocks, nums, dens)
    return SolveResult("found" if exhausted else "budget_exceeded", part, asg, report, explored)
