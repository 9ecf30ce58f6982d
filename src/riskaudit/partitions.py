"""Set partitions in canonical order, with exact Bell counts."""
from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Optional

from .errors import DomainError
from .model import _Frozen, _require_count, _set

DEFAULT_MAX_ITEMS = 12


class Partition(_Frozen):
    """Blocks sorted internally and by smallest member."""

    __slots__ = _fields = ("blocks",)

    def __init__(self, blocks: tuple[tuple, ...]):
        _set(self, "blocks", blocks)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable]) -> "Partition":
        canon = []
        seen = set()
        for block in blocks:
            b = tuple(sorted(block))
            if not b:
                raise DomainError("empty block")
            for x in b:
                if x in seen:
                    raise DomainError(f"element {x!r} appears in two blocks")
                seen.add(x)
            canon.append(b)
        canon.sort(key=lambda b: b[0])
        return cls(tuple(canon))

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def members(self) -> frozenset:
        return frozenset(x for b in self.blocks for x in b)

    def __iter__(self):
        return iter(self.blocks)


def bell_number(k: int) -> int:
    """Number of partitions of a k-element set, via the Bell triangle."""
    if k < 0:
        raise DomainError("k must be nonnegative")
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def _growth_strings(k: int) -> Iterator[tuple[int, ...]]:
    """Every partition of {0, ..., k-1} as a label vector, in canonical order.

    A label vector gives each item its block number; blocks are numbered by
    smallest member, so the vectors are the restricted growth strings
    (a[i] <= 1 + max(a[:i])), in lexicographic order."""
    if k == 0:
        yield ()
        return
    a = [0] * k
    m = [0] * k
    while True:
        yield tuple(a)
        j = k - 1
        while j > 0 and a[j] > m[j - 1]:
            j -= 1
        if j == 0:
            return
        a[j] += 1
        m[j] = m[j - 1] if m[j - 1] > a[j] else a[j]
        for i in range(j + 1, k):
            a[i] = 0
            m[i] = m[j]


def _check_enumerable(k: int, cap: Optional[int]) -> None:
    """Refuse an item count or cap that is no nonnegative int, and more than
    DEFAULT_MAX_ITEMS items unless a cap bounds whatever the caller takes."""
    _require_count(k, "k")
    if cap is not None:
        _require_count(cap, "cap")
    if k > DEFAULT_MAX_ITEMS and cap is None:
        raise DomainError(
            f"{k} items would enumerate {bell_number(k)} partitions; pass a cap to proceed"
        )


def enumerate_partitions(k: int, cap: Optional[int] = None) -> Iterator[Partition]:
    """Yield every partition of {0, ..., k-1} in canonical order, at most
    `cap` of them. Blocks come out sorted by smallest member. More than
    DEFAULT_MAX_ITEMS items, and a negative cap, are refused eagerly."""
    _check_enumerable(k, cap)
    stream = islice(_growth_strings(k), cap)
    return (Partition(tuple(map(tuple, _blocks(labels, range(k))))) for labels in stream)


def _blocks(labels, items) -> list[list]:
    """`items` grouped by their labels, blocks in label order; a label vector
    numbers its blocks by first occurrence, so by smallest member."""
    blocks: list[list] = [[] for _ in range(max(labels, default=-1) + 1)]
    for item, label in zip(items, labels):
        blocks[label].append(item)
    return blocks
