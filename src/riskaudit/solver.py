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

from .audit import _pooled, _pooled_assignment, _pooled_within, _Table
from .errors import DomainError
from .loss import LossReport, _loss_report
from .model import Instance, RiskAssignment, _require_type, _scaled, _Scaled
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
    _require_type(part, Partition, "part")
    scaled = _scaled(inst)
    ids = inst.ids
    if part.members() != set(ids) or sum(map(len, part.blocks)) != len(ids):
        raise DomainError("partition does not cover exactly the instance's features")
    position = {fid: i for i, fid in enumerate(ids)}
    return _pooled_assignment(inst, _block_rows(scaled, [sum(1 << position[fid] for fid in block)
                                                         for block in part.blocks]))


def _block_rows(scaled: _Scaled, blocks) -> list[list[int]]:
    """The integer allocation rows of the partition whose blocks are these
    bit masks over feature positions: one bin per block with people, in
    block order, and the features of the other blocks in the first bin."""
    people = sum(1 << i for i, (n1, n2, _, _) in enumerate(scaled.weights) if n1 or n2)
    kept = [mask for mask in blocks if mask & people]
    kept[0] |= sum(mask for mask in blocks if not mask & people)  # the blocks are disjoint
    return [[mask >> i & 1 for mask in kept] for i in range(len(scaled.weights))]


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
    partition passes. `visit(blocks, sums)` gets the blocks as bit masks
    over feature positions, in block order, and the walk's column sums of
    every subset, (m0, m1, g0, g1) indexed by mask; it returns whether the
    partition is a hit. A visitor decides on the sums (see `_received`) and
    builds a table only where it needs one (`_leaf_table`). The mask list is
    the walk's own and changes after the call.

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
    sums = m0, m1, g0, g1
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
            if not visit(masks, sums):
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


def _leaf_table(sums, blocks, scale: int) -> _Table:
    """The table of a visited partition's pooled assignment, from the walk's
    subset column sums (see _integral_search): one bin per block with
    people, in block order, scored at its pooled rate, over `scale`."""
    m0, m1, g0, g1 = sums
    kept = [mask for mask in blocks if m0[mask] or m1[mask]]
    return _pooled(([m0[mask] for mask in kept], [m1[mask] for mask in kept]),
                   ([g0[mask] for mask in kept], [g1[mask] for mask in kept]), scale)


def _received(sums, blocks) -> tuple[int, int, int]:
    """The score S_t that group t's positive class receives in a visited
    partition's pooled assignment: the sum over blocks with people of
    G * g_t / M (G, M the block's expected positives and mass, g_t group
    t's expected positives), as (n1, n2, den) with S_t = n_t / den,
    unreduced."""
    m0, m1, g0, g1 = sums
    n1 = n2 = 0
    den = 1
    for mask in blocks:
        m = m0[mask] + m1[mask]
        if m:
            g = g0[mask] + g1[mask]
            n1, n2, den = n1 * m + g * g0[mask] * den, n2 * m + g * g1[mask] * den, den * m
    return n1, n2, den


def _balanced(totals, n1: int, n2: int, den: int) -> bool:
    """Both balance conditions at eps 0, `_balances(table, 0)`, of a visited
    partition whose every block is exactly calibrated, from its `_received`
    (n1, n2, den) and the instance's totals (M_1, M_2, P_1, P_2) of mass
    and expected positives. Group t's positive class, of mass P_t, receives
    S_t; calibration gives its negative class, of mass M_t - P_t, the rest
    of the P_t that group t receives in all. A class empty in a group
    (P_t = 0, or M_t = P_t) makes both sides of its test 0: it passes, as
    in `_balanced_within`."""
    m1, m2, p1, p2 = totals
    return n1 * p2 == n2 * p1 and (p1 * den - n1) * (m2 - p2) == (p2 * den - n2) * (m1 - p1)


def _scores_differ(totals, n1: int, n2: int, den: int) -> bool:
    """Non-triviality, `_nontrivial(table)`, of a visited partition's pooled
    assignment, from its (n1, n2, den) = _received and the instance's totals
    (see _balanced). S_1 + S_2 is the sum of G**2 / M over blocks with
    people, which exceeds its least value, (P_1 + P_2)**2 / (M_1 + M_2),
    unless all of them have one pooled rate."""
    m1, m2, p1, p2 = totals
    return (n1 + n2) * (m1 + m2) > (p1 + p2) ** 2 * den


def _witness(inst: Instance, blocks, sums=None) -> tuple[Partition, RiskAssignment, Optional[_Table]]:
    """The partition of feature ids whose blocks are these bit masks over
    feature positions, and its integral assignment, whose bins follow the
    partition's block order (by smallest id); given the walk's column sums,
    also that assignment's table, else None."""
    ids = inst.ids
    blocks = sorted(blocks, key=lambda mask: min(fid for i, fid in enumerate(ids) if mask >> i & 1))
    part = Partition.from_blocks([fid for i, fid in enumerate(ids) if mask >> i & 1] for mask in blocks)
    scaled = _scaled(inst)
    table = None if sums is None else _leaf_table(sums, blocks, scaled.denominator)
    return part, _pooled_assignment(inst, _block_rows(scaled, blocks), table), table


def solve_integral(inst: Instance, objective: str = "any_fair", cap: Optional[int] = None) -> SolveResult:
    """Search every partition for a fair non-trivial integral assignment.

    Objective "any_fair" returns the first hit in canonical enumeration
    order; "min_loss" scans everything and keeps the minimum total loss,
    ties resolved in favor of the earlier canonical encoding. The trivial
    all-in-one structure can never qualify because non-triviality requires
    two distinct scores with mass.
    """
    scaled = _scaled(inst)
    if objective not in OBJECTIVES:
        raise DomainError(f"unknown objective {objective!r}; expected one of {OBJECTIVES}")
    totals = scaled.totals
    hit: Optional[tuple] = None

    def visit(blocks, sums) -> bool:
        # the walk visits only partitions whose every block is calibrated
        nonlocal hit
        received = _received(sums, blocks)
        if not (_balanced(totals, *received) and _scores_differ(totals, *received)):
            return False
        hit = tuple(blocks), sums
        return True

    explored, pruned, complete = _integral_search(
        inst, cap, partial(_pooled_within, e=0), visit, bound=objective == "min_loss"
    )
    if hit is None:
        return SolveResult("none" if complete else "budget_exceeded", None, None, None, explored, pruned)
    part, asg, table = _witness(inst, *hit)
    status = "found" if complete else "budget_exceeded"
    return SolveResult(status, part, asg, _loss_report(table), explored, pruned)
