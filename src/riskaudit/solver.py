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
from .model import Instance, RiskAssignment, _scaled, require_valid
from .partitions import Partition, _blocks, _label_vectors

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
    if part.members() != set(ids) or sum(map(len, part.blocks)) != len(ids):
        raise DomainError("partition does not cover exactly the instance's features")
    block_of = {fid: b for b, block in enumerate(part.blocks) for fid in block}
    labels = [block_of[fid] for fid in ids]
    table, kept = _block_table(scaled, labels, len(part.blocks))
    nums, dens = _pooled_scores(table, _ZERO)
    hot = [b if b in kept else kept[0] for b in labels]
    rows = tuple(tuple(_ONE if b == h else _ZERO for b in kept) for h in hot)
    return RiskAssignment(feature_ids=ids, scores=tuple(map(Fraction, nums, dens)), rows=rows)


_ONE = Fraction(1)
_ZERO = Fraction(0)


def _block_table(scaled, labels, nblocks: int):
    """Bin table of the integral assignment whose bins are the populated
    blocks among 0..nblocks-1, where labels[i] is the block of feature
    position i, in block order; and the numbers of those blocks."""
    m0, m1, g0, g1 = [0] * nblocks, [0] * nblocks, [0] * nblocks, [0] * nblocks
    for b, (n1, n2, q1, q2) in zip(labels, scaled.weights):
        m0[b] += n1
        m1[b] += n2
        g0[b] += q1
        g1[b] += q2
    kept = [b for b in range(nblocks) if m0[b] or m1[b]]
    if len(kept) < nblocks:
        m0, m1, g0, g1 = ([column[b] for b in kept] for column in (m0, m1, g0, g1))
    return _Table((m0, m1), (g0, g1), scaled.denominator), kept


def _integral_search(inst: Instance, cap: Optional[int], visit) -> tuple[int, bool]:
    """Walk the integral assignments of `inst`, one per partition of its
    features, in canonical order: the label vectors of _label_vectors.

    For each, `visit(labels, table, nums, dens)` gets the bin table and the
    pooled scores of the populated blocks, in label order; the walk stops
    when it returns true. Returns (explored, complete): complete is false
    when the cap, not `visit` or the last partition, ended the walk.
    """
    scaled = _scaled(inst)
    explored = 0
    for labels in _label_vectors(len(inst.features), cap):
        if explored == cap:
            return explored, False
        explored += 1
        table, _ = _block_table(scaled, labels, max(labels) + 1)
        if visit(labels, table, *_pooled_scores(table, _ZERO)):
            break
    return explored, True


def _witness(inst: Instance, labels) -> tuple[Partition, RiskAssignment]:
    """The partition of feature ids a label vector encodes, and its integral
    assignment."""
    part = Partition.from_blocks(_blocks(labels, inst.ids))
    return part, assignment_from_partition(inst, part)


def solve_integral(
    inst: Instance,
    objective: str = "any_fair",
    cap: Optional[int] = None,
    tolerance: Optional[Fraction] = None,
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
    require_valid(inst)
    if objective not in OBJECTIVES:
        raise DomainError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    if cap is not None and cap < 0:
        raise DomainError("cap must be nonnegative")

    best: Optional[tuple] = None

    def visit(labels, table, nums, dens) -> bool:
        nonlocal best
        if not (_fair(table, nums, dens, tolerance) and _nontrivial(table, nums, dens, tolerance)):
            return False
        report = _loss_report(table, nums, dens)
        if best is None or report.total < best[0].total:
            best = (report, labels)
        return objective == "any_fair"

    explored, complete = _integral_search(inst, cap, visit)
    if best is None:
        return SolveResult("none" if complete else "budget_exceeded", None, None, None, explored)
    report, labels = best
    return SolveResult("found" if complete else "budget_exceeded", *_witness(inst, labels), report, explored)
