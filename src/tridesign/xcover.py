"""Deterministic exact-cover engine (Algorithm X).

One explicit-stack depth-first search, ``dfs``, runs over a candidate
source with four operations: ``next_item()`` (an uncovered item, or
None once everything is covered), ``candidates(item)`` (an iterable
of the candidates, never None, that cover it), ``cover(candidate)`` and
``uncover(candidate)``.  Covers and uncovers nest like a stack, so a
source may keep its undo trail internally.  The search owns node
counting, the node and time limits and the result types; a node is
one item branched on.

``solve`` runs it over a materialized instance: items are contiguous
indices, candidate subsets are sorted index lists of any sizes with an
opaque tag each.  Selection is minimum remaining candidates, ties
broken by lowest item index, subsets tried in ascending index order,
so two runs on the same instance produce identical solutions and node
counts.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class XCoverInstance:
    n_items: int
    subsets: list[tuple[int, ...]]
    tags: list = field(default_factory=list)

    def __post_init__(self):
        if not self.tags:
            self.tags = list(range(len(self.subsets)))
        if len(self.tags) != len(self.subsets):
            raise ValueError("one tag per subset required")
        norm = []
        for s_idx, s in enumerate(self.subsets):
            t = tuple(s)
            if not t:
                raise ValueError(f"subset {s_idx} is empty")
            if any(i < 0 or i >= self.n_items for i in t):
                raise ValueError(f"subset {s_idx} has out-of-range items")
            if len(set(t)) != len(t):
                raise ValueError(f"subset {s_idx} has duplicate items")
            if list(t) != sorted(t):
                raise ValueError(f"subset {s_idx} is not sorted")
            norm.append(t)
        self.subsets = norm


@dataclass(frozen=True)
class CoverSolution:
    chosen: tuple
    nodes: int


@dataclass(frozen=True)
class Unsatisfiable:
    nodes: int


@dataclass(frozen=True)
class LimitExceeded:
    nodes: int
    reason: str


def check_solution(inst: XCoverInstance, sol: CoverSolution) -> bool:
    """Independent disjointness/coverage check."""
    seen: set[int] = set()
    for s in sol.chosen:
        items = inst.subsets[s]
        if seen.intersection(items):
            return False
        seen.update(items)
    return seen == set(range(inst.n_items))


def dfs(source, node_limit: int | None = None, time_limit: float | None = None
        ) -> CoverSolution | Unsatisfiable | LimitExceeded:
    """First exact cover in the source's order, or a proof there is none.

    A limit is checked at every node, before branching: ``time_limit=0``
    stops at the first node.  ``chosen`` lists the covered candidates
    from the root down.
    """
    deadline = None if time_limit is None else time.monotonic() + time_limit
    nodes = 0
    frames: list = []       # one candidate iterator per open node
    chosen: list = []       # chosen[d] is applied while frame d tries it
    while True:
        item = source.next_item()
        if item is None:
            return CoverSolution(chosen=tuple(chosen), nodes=nodes)
        nodes += 1
        if node_limit is not None and nodes > node_limit:
            return LimitExceeded(nodes=nodes, reason="node limit")
        if deadline is not None and time.monotonic() >= deadline:
            return LimitExceeded(nodes=nodes, reason="time limit")
        frames.append(iter(source.candidates(item)))
        while frames:
            if len(chosen) == len(frames):
                source.uncover(chosen.pop())
            cand = next(frames[-1], None)
            if cand is not None:
                source.cover(cand)
                chosen.append(cand)
                break
            frames.pop()
        else:
            return Unsatisfiable(nodes=nodes)


class _CsrSource:
    """Subsets of an instance as two CSR maps: subset -> items and
    item -> subsets (ascending), with active flags and live counts."""

    def __init__(self, inst: XCoverInstance):
        # int32 indices halve the transient arrays of this build, which
        # sets the search's peak memory on ~1.3M-subset instances
        S, n = len(inst.subsets), inst.n_items
        lens = np.fromiter(map(len, inst.subsets), dtype=np.int64, count=S)
        self.sub_ptr = np.zeros(S + 1, dtype=np.int64)
        np.cumsum(lens, out=self.sub_ptr[1:])
        self.sub_items = np.fromiter(itertools.chain.from_iterable(inst.subsets),
                                     dtype=np.int32, count=int(self.sub_ptr[-1]))
        owner = np.repeat(np.arange(S, dtype=np.int32), lens)
        del lens
        self.item_subs = owner[np.argsort(self.sub_items, kind="stable")]
        self.count = np.bincount(self.sub_items, minlength=n)
        self.item_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.count, out=self.item_ptr[1:])
        self.n_items = n
        self.active = np.ones(S, dtype=bool)
        self.covered = np.zeros(n, dtype=bool)
        self.trail: list[np.ndarray] = []

    def _items(self, s: int) -> np.ndarray:
        return self.sub_items[self.sub_ptr[s]:self.sub_ptr[s + 1]]

    def _subs(self, item: int) -> np.ndarray:
        return self.item_subs[self.item_ptr[item]:self.item_ptr[item + 1]]

    def _items_of_all(self, subs: np.ndarray) -> np.ndarray:
        starts = self.sub_ptr[subs]
        lens = self.sub_ptr[subs + 1] - starts
        offsets = np.cumsum(lens) - lens
        return self.sub_items[np.repeat(starts - offsets, lens)
                              + np.arange(int(lens.sum()))]

    def next_item(self) -> int | None:
        if self.covered.all():
            return None
        return int(np.argmin(np.where(self.covered, np.iinfo(np.int64).max,
                                      self.count)))

    def candidates(self, item: int) -> list[int]:
        subs = self._subs(item)
        return subs[self.active[subs]].tolist()

    def cover(self, s: int) -> None:
        items = self._items(s)
        touched = np.unique(np.concatenate([self._subs(i) for i in items.tolist()]))
        deact = touched[self.active[touched]]
        self.active[deact] = False
        self.count -= np.bincount(self._items_of_all(deact), minlength=self.n_items)
        self.covered[items] = True
        self.trail.append(deact)

    def uncover(self, s: int) -> None:
        deact = self.trail.pop()
        self.covered[self._items(s)] = False
        self.count += np.bincount(self._items_of_all(deact), minlength=self.n_items)
        self.active[deact] = True


def solve(inst: XCoverInstance, node_limit: int | None = None,
          time_limit: float | None = None) -> CoverSolution | Unsatisfiable | LimitExceeded:
    """First exact cover in deterministic DFS order, or a proof there is none."""
    return dfs(_CsrSource(inst), node_limit=node_limit, time_limit=time_limit)
