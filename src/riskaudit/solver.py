"""Exhaustive search for fair assignments over integral bin structures.

An integral assignment sends each feature wholly into one bin, so candidates
are exactly the set partitions of the feature list; the search skips only
partitions it can prove unfit. Every verdict is exact: the instance is
scaled to integers and each condition is an integer cross-multiplication.
"""
from __future__ import annotations

from functools import partial
from operator import or_
from typing import NamedTuple, Optional

from .audit import _balances, _pooled, _pooled_assignment, _pooled_within
from .errors import DomainError
from .loss import LossReport, _loss_report, _nontrivial
from .model import Instance, RiskAssignment, _scaled, require_valid
from .partitions import Partition, _check_enumerable

OBJECTIVES = ("any_fair", "min_loss")


class SolveResult(NamedTuple):
    """Search outcome.

    status "found" carries a fair non-trivial witness; "none" means the
    search space was exhausted without one; "budget_exceeded" means the cap
    stopped the enumeration first (best-so-far attached when one was seen).
    `explored` counts partitions in canonical order, `pruned` those of them
    the search proved unfit without visiting them.
    """

    status: str
    partition: Optional[Partition]
    assignment: Optional[RiskAssignment]
    loss_report: Optional[LossReport]
    explored: int
    pruned: int


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
    populated = sorted({b for b, (n1, n2, _, _) in zip(labels, scaled.weights) if n1 or n2})
    bin_of = dict.fromkeys(labels, 0)  # a block without people joins the first bin
    bin_of.update((b, j) for j, b in enumerate(populated))
    nbins = len(populated)
    return _pooled_assignment(inst, [[int(bin_of[b] == j) for j in range(nbins)] for b in labels])


# More features than this are refused even with a cap: the search's tables
# have an entry for every subset of the features.
MAX_SEARCH_ITEMS = 16


def _integral_search(inst: Instance, cap: Optional[int], calibrated, visit, bound: bool = False):
    """Walk the integral assignments of `inst`, one per partition of its
    features, depth first in canonical order: blocks numbered by smallest
    member, each feature position placed in turn into an open block, then
    into a new one.

    A pooled block's calibration depends on that block alone.
    `calibrated(m0, m1, p0, p1)`, the caller's verdict on a block's integer
    group masses and expected positives, is applied once to the column sums
    of every subset of the features, and a subtree is skipped as soon as one
    of its open blocks can no longer be completed into a passing block; its
    partitions are counted, not visited. So every block of a visited
    partition passes. `visit(blocks, table)` gets the blocks as bit masks
    over feature positions, in block order, and the table of the populated
    blocks scored at their pooled rates; it returns whether the partition is
    a hit. The mask list is the walk's own and changes after the call.

    Without `bound` the walk stops at the first hit. With it, each hit
    becomes the incumbent, and a subtree is skipped unless it may beat it:
    pooled loss falls as sum(G**2 / M) over blocks (G positive mass, M
    mass) rises, and merging blocks never raises that sum, so the open
    blocks plus each remaining feature alone bound every completion. So
    every visited hit beats the one before, and ties keep the earlier.

    Returns (explored, pruned, complete): the partitions counted in
    canonical order up to where the walk ended, those of them never
    visited, and whether the cap did not end the walk.
    """
    k = len(inst.features)
    _check_enumerable(k, cap)
    if cap == 0:
        return 0, 0, False
    if k > MAX_SEARCH_ITEMS:
        raise DomainError(f"{k} features: the integral search takes at most {MAX_SEARCH_ITEMS}, even with a cap")
    scaled = _scaled(inst)
    # block sums of every subset, by bit mask over feature positions
    m0, m1, g0, g1 = [0], [0], [0], [0]
    for n1, n2, q1, q2 in scaled.weights:
        m0 += [x + n1 for x in m0]
        m1 += [x + n2 for x in m1]
        g0 += [x + q1 for x in g0]
        g1 += [x + q2 for x in g1]
    # reach[i][mask], for a mask over positions < i: some subset of the
    # positions >= i completes it into a calibrated block
    reach = [list(map(calibrated, m0, m1, g0, g1))]
    for i in reversed(range(k)):
        h = 1 << i
        reach.append(list(map(or_, reach[-1][:h], reach[-1][h:])))
    reach.reverse()
    # rest[i][n]: the ways to complete a prefix of i positions in n blocks
    rest = [[1] * (k + 2)]
    for _ in range(k):
        row = rest[-1]
        rest.append([n * row[n] + row[n + 1] for n in range(k + 1)] + [0])
    rest.reverse()

    def worth(blocks, num=0, den=1):
        # num / den plus the sum of G**2 / M over the blocks, unreduced
        for mask in blocks:
            m = m0[mask] + m1[mask]
            if m:
                g = g0[mask] + g1[mask]
                num, den = num * m + g * g * den, den * m
        return num, den

    # tail[i]: the sum over the features at positions >= i, each alone
    tail = [worth([1 << j for j in range(i, k)]) for i in range(k + 1)] if bound else None

    masks: list[int] = []  # the open blocks
    explored = visited = 0
    complete = True
    incumbent = None

    def walk(i: int) -> bool:
        # place position i and everything after it; true ends the walk
        nonlocal explored, visited, complete, incumbent
        if i == k:
            if explored == cap:
                complete = False
                return True
            explored += 1
            visited += 1
            kept = [m for m in masks if m0[m] or m1[m]]
            mass = [m0[m] for m in kept], [m1[m] for m in kept]
            table = _pooled(mass, ([g0[m] for m in kept], [g1[m] for m in kept]), scaled.denominator)
            if not visit(masks, table):
                return False
            if not bound:
                return True
            incumbent = worth(masks)
            return False
        bit = 1 << i
        completable = reach[i + 1].__getitem__
        for b in range(len(masks) + 1):
            opened = b == len(masks)
            if opened:
                masks.append(bit)
            else:
                masks[b] |= bit
            if all(map(completable, masks)) and (
                incumbent is None or _exceeds(worth(masks, *tail[i + 1]), incumbent)
            ):
                if walk(i + 1):
                    return True
            else:
                skipped = rest[i + 1][len(masks)]
                if cap is not None and explored + skipped > cap:
                    explored, complete = cap, False
                    return True
                explored += skipped
            if opened:
                masks.pop()
            else:
                masks[b] ^= bit
        return False

    walk(0)
    return explored, explored - visited, complete


def _exceeds(x, y) -> bool:
    """x > y, for fractions given as (numerator, positive denominator)."""
    return x[0] * y[1] > y[0] * x[1]


def _witness(inst: Instance, blocks) -> tuple[Partition, RiskAssignment]:
    """The partition of feature ids whose blocks are these bit masks over
    feature positions, and its integral assignment."""
    ids = inst.ids
    part = Partition.from_blocks([fid for i, fid in enumerate(ids) if mask >> i & 1] for mask in blocks)
    return part, assignment_from_partition(inst, part)


def solve_integral(inst: Instance, objective: str = "any_fair", cap: Optional[int] = None) -> SolveResult:
    """Search every partition for a fair non-trivial integral assignment.

    Objective "any_fair" returns the first hit in canonical enumeration
    order; "min_loss" scans everything and keeps the minimum total loss,
    ties resolved in favor of the earlier canonical encoding. The trivial
    all-in-one structure can never qualify because non-triviality requires
    two distinct scores with mass.
    """
    require_valid(inst)
    if objective not in OBJECTIVES:
        raise DomainError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")

    hit: Optional[tuple] = None

    def visit(blocks, table) -> bool:
        # the walk visits only partitions whose every block is calibrated
        nonlocal hit
        if not (_balances(table, 0) and _nontrivial(table)):
            return False
        hit = tuple(blocks), table
        return True

    explored, pruned, complete = _integral_search(
        inst, cap, partial(_pooled_within, e=0), visit, bound=objective == "min_loss"
    )
    if hit is None:
        return SolveResult("none" if complete else "budget_exceeded", None, None, None, explored, pruned)
    blocks, table = hit
    status = "found" if complete else "budget_exceeded"
    return SolveResult(status, *_witness(inst, blocks), _loss_report(table), explored, pruned)
