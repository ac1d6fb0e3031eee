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
indices, candidate subsets are ascending index rows (one (S, k) array,
or tuples of any sizes) with an opaque tag each.  Selection is minimum
remaining candidates, ties broken by lowest item index, subsets tried
in ascending index order, so two runs on the same instance produce
identical solutions and node counts.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass
class XCoverInstance:
    """``subsets`` is kept as given; ``__post_init__`` validates it and
    holds its items as one CSR map, ``sub_items[sub_ptr[s]:sub_ptr[s + 1]]``."""

    n_items: int
    subsets: Sequence
    tags: Sequence = field(default_factory=list)
    sub_ptr: np.ndarray = field(init=False, repr=False)
    sub_items: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        S = len(self.subsets)
        if len(self.tags) == 0:
            self.tags = list(range(S))
        if len(self.tags) != S:
            raise ValueError("one tag per subset required")
        if isinstance(self.subsets, np.ndarray) and self.subsets.ndim == 2:
            lens = np.full(S, self.subsets.shape[1], dtype=np.int64)
            items = self.subsets.ravel()
        else:
            lens = np.fromiter(map(len, self.subsets), dtype=np.int64, count=S)
            items = np.fromiter(itertools.chain.from_iterable(self.subsets),
                                dtype=np.int64, count=int(lens.sum()))
        self.sub_ptr = np.concatenate(([0], np.cumsum(lens)))
        step = np.diff(items, prepend=0)
        step[self.sub_ptr[:-1][lens > 0]] = 1    # a subset's first item

        def first(bad_item):    # the first subset holding a flagged item
            return (int(np.searchsorted(self.sub_ptr, np.argmax(bad_item), "right"))
                    - 1 if bad_item.any() else S)

        s_idx, _, fault = min(
            (int(np.argmax(lens == 0)) if (lens == 0).any() else S, 0, "is empty"),
            (first((items < 0) | (items >= self.n_items)), 1,
             "has out-of-range items"),
            (first(step == 0), 2, "has duplicate items"),
            (first(step < 0), 3, "is not sorted"))
        if s_idx < S:
            raise ValueError(f"subset {s_idx} {fault}")
        # int32 items halve the transient arrays of the solver's build,
        # which sets the search's peak memory on ~1.3M-subset instances
        self.sub_items = items.astype(np.int32)

    def items_of(self, subs: np.ndarray) -> np.ndarray:
        """The items of the subsets ``subs``, concatenated in that order."""
        starts = self.sub_ptr[subs]
        lens = self.sub_ptr[subs + 1] - starts
        offsets = np.cumsum(lens) - lens
        return self.sub_items[np.repeat(starts - offsets, lens)
                              + np.arange(int(lens.sum()))]


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
    chosen = np.asarray(sol.chosen, dtype=np.int64)
    counts = np.bincount(inst.items_of(chosen), minlength=inst.n_items)
    return bool((counts == 1).all())


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
    """An instance's subset -> items map plus the inverse item -> subsets
    map (ascending), with active flags and live counts."""

    def __init__(self, inst: XCoverInstance):
        S, n = len(inst.subsets), inst.n_items
        self.inst = inst
        self.sub_ptr, self.sub_items = inst.sub_ptr, inst.sub_items
        owner = np.repeat(np.arange(S, dtype=np.int32), np.diff(self.sub_ptr))
        self.item_subs = owner[np.argsort(self.sub_items, kind="stable")]
        del owner
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
        self.count -= np.bincount(self.inst.items_of(deact), minlength=self.n_items)
        self.covered[items] = True
        self.trail.append(deact)

    def uncover(self, s: int) -> None:
        deact = self.trail.pop()
        self.covered[self._items(s)] = False
        self.count += np.bincount(self.inst.items_of(deact), minlength=self.n_items)
        self.active[deact] = True


def solve(inst: XCoverInstance, node_limit: int | None = None,
          time_limit: float | None = None) -> CoverSolution | Unsatisfiable | LimitExceeded:
    """First exact cover in deterministic DFS order, or a proof there is none."""
    return dfs(_CsrSource(inst), node_limit=node_limit, time_limit=time_limit)
