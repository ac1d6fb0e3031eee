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
indices, candidate subsets are the rows of one (S, k) array of
ascending item indices, with an opaque tag each.  Selection is minimum
remaining candidates, ties broken by lowest item index, subsets tried
in ascending index order, so two runs on the same instance produce
identical solutions and node counts.

Its source, ``_CsrSource``, keeps the item -> subsets index as one CSR
array: the packed keys item * S + s, int32 while they fit, sorted in
place and reduced mod S.  Covering a subset walks its items in turn
and deactivates the still-active subsets of each at once, so every
subset it removes is taken exactly once, with no hashing or sort per
node; the removed subsets are the undo trail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def _first_row(bad: np.ndarray) -> int:
    """Index of the first row of ``bad`` with a flagged entry, or its length."""
    flat = bad.ravel()
    return int(np.argmax(flat)) // bad.shape[1] if flat.any() else len(bad)


@dataclass
class XCoverInstance:
    """``__post_init__`` validates ``subsets`` and holds it as one
    read-only (S, k) int32 array, row s the items of subset s: a view of
    an int32 array given, with no copy."""

    n_items: int
    subsets: Sequence
    tags: Sequence | None = None    # None tags subset s with s

    def __post_init__(self):
        try:
            rows = np.asarray(self.subsets)
        except ValueError:
            rows = None
        if rows is not None and rows.size == 0 and rows.ndim == 1:
            rows = rows.reshape(0, 0)
        if rows is None or rows.ndim != 2:
            raise ValueError("subsets must all have one size: an (S, k) array")
        S, k = rows.shape
        if self.tags is None:
            self.tags = list(range(S))
        if len(self.tags) != S:
            raise ValueError("one tag per subset required")
        out_of_range = _first_row((rows < 0) | (rows >= self.n_items))
        # int32 items halve the transient arrays of the solver's build,
        # which sets the search's peak memory on ~1.3M-subset instances;
        # the rows before the first out-of-range one convert exactly
        self.subsets = rows.astype(np.int32, copy=False).view()
        self.subsets.flags.writeable = False
        step = np.diff(self.subsets, axis=1)
        s_idx, _, fault = min(
            (0 if k == 0 else S, 0, "is empty"),
            (out_of_range, 1, "has out-of-range items"),
            (_first_row(step == 0), 2, "has duplicate items"),
            (_first_row(step < 0), 3, "is not sorted"))
        if s_idx < S:
            raise ValueError(f"subset {s_idx} {fault}")


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
    counts = np.bincount(inst.subsets[chosen].ravel(), minlength=inst.n_items)
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
    """An instance's subset -> items rows plus the inverse item -> subsets
    map (CSR, ascending), with active flags and live counts."""

    def __init__(self, inst: XCoverInstance):
        rows = inst.subsets
        S, k = rows.shape
        n = inst.n_items
        self.rows = rows
        # keys item * S + s sorted in place: each item's subsets ascend
        key_type = np.int32 if n * S < 1 << 31 else np.int64
        keys = np.array(rows.T, dtype=key_type, order="C")   # (k, S)
        keys *= S
        keys += np.arange(S, dtype=key_type)
        self.item_subs = keys.ravel()
        self.item_subs.sort()
        self.item_ptr = np.searchsorted(self.item_subs,
                                        np.arange(n + 1, dtype=key_type) * S)
        self.item_subs %= S
        self.count = np.diff(self.item_ptr)
        self.n_items = n
        self.active = np.ones(S, dtype=bool)
        self.covered = np.zeros(n, dtype=bool)
        self.trail: list[np.ndarray] = []

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
        items = self.rows[s]
        taken = []
        for i in items.tolist():    # deactivating as we go takes each subset once
            subs = self._subs(i)
            subs = subs[self.active[subs]]
            self.active[subs] = False
            taken.append(subs)
        deact = np.concatenate(taken)
        self.count -= np.bincount(self.rows[deact].ravel(), minlength=self.n_items)
        self.covered[items] = True
        self.trail.append(deact)

    def uncover(self, s: int) -> None:
        deact = self.trail.pop()
        self.covered[self.rows[s]] = False
        self.count += np.bincount(self.rows[deact].ravel(), minlength=self.n_items)
        self.active[deact] = True


def solve(inst: XCoverInstance, node_limit: int | None = None,
          time_limit: float | None = None) -> CoverSolution | Unsatisfiable | LimitExceeded:
    """First exact cover in deterministic DFS order, or a proof there is none."""
    return dfs(_CsrSource(inst), node_limit=node_limit, time_limit=time_limit)
