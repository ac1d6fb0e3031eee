import itertools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridesign.xcover import (CoverSolution, LimitExceeded, Unsatisfiable,
                              XCoverInstance, _CsrSource, check_solution, solve)


def test_basic_solution():
    inst = XCoverInstance(4, [(0, 1), (2, 3), (0, 2)])
    assert inst.subsets.shape == (3, 2) and not inst.subsets.flags.writeable
    r = solve(inst)
    assert isinstance(r, CoverSolution)
    assert check_solution(inst, r)
    assert sorted(tuple(inst.subsets[s].tolist()) for s in r.chosen) == \
        [(0, 1), (2, 3)]


def test_unsatisfiable():
    r = solve(XCoverInstance(2, [(0,)]))
    assert isinstance(r, Unsatisfiable)


def test_single_triple():
    r = solve(XCoverInstance(3, [(0, 1, 2)]))
    assert isinstance(r, CoverSolution) and len(r.chosen) == 1


def test_empty_instance():
    for subsets in ([], np.empty((0, 0), dtype=np.int64),
                    np.empty((0, 3), dtype=np.int64)):
        assert solve(XCoverInstance(0, subsets)) == CoverSolution((), 0)
        assert solve(XCoverInstance(3, subsets)) == Unsatisfiable(1)


@pytest.mark.parametrize("n_items, S", [
    (1 << 16, 40000), ((1 << 16) + 1, 40000),
    ((1 << 16) - 1, 1 << 15), (1 << 16, 1 << 15)],
    ids=["int64-65536", "int64-65537", "int32-edge", "int64-edge"])
def test_item_index_matches_stable_argsort(n_items, S):
    # each item's subsets in ascending order, as a stable int64 argsort
    # of the flat rows gives them; the keys item * S + s are int32 while
    # n_items * S < 2^31, and the edge cases sit on either side of it
    rng = np.random.default_rng(n_items)
    rows = np.sort(rng.choice(n_items, size=(S, 3)), axis=1)
    rows[(np.diff(rows, axis=1) == 0).any(axis=1)] = [3, 4, 5]
    rows[:2] = [[0, n_items - 2, n_items - 1], [1, 2, n_items - 1]]
    src = _CsrSource(XCoverInstance(n_items, rows))
    assert src.item_subs.dtype == (np.int32 if n_items * S < 1 << 31 else np.int64)
    flat = rows.ravel().astype(np.int64)
    ref = np.argsort(flat, kind="stable") // 3
    assert src.item_ptr.tolist() == \
        np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=n_items))]).tolist()
    assert np.array_equal(src.item_subs, ref)
    top = src.item_subs[src.item_ptr[n_items - 1]:]
    assert top.tolist() == [0, 1] + sorted(set(np.flatnonzero(rows[2:, 2] == n_items - 1) + 2))


def test_item_index_is_int32_at_12_6():
    from tridesign.gf2n import build_field
    from tridesign.search import singer_problem
    inst = singer_problem(build_field(12), 6)
    src = _CsrSource(inst)
    assert src.item_subs.dtype == np.int32
    ref = np.argsort(inst.subsets.ravel(), kind="stable") // 3
    assert np.array_equal(src.item_subs, ref)


def _state(src):
    return src.count.copy(), src.active.copy(), src.covered.copy()


def test_cover_uncover_restores_state():
    # a seeded walk of nested covers and uncovers on the Singer (8, 2)
    # instance: each uncover restores the state from before its cover
    from tridesign.gf2n import build_field
    from tridesign.search import singer_problem
    inst = singer_problem(build_field(8), 2)
    src = _CsrSource(inst)
    rng = np.random.default_rng(8)
    stack = [(None, _state(src))]
    for _ in range(400):
        live = np.flatnonzero(src.active)
        if live.size and (len(stack) == 1 or rng.random() < 0.6):
            s = int(rng.choice(live))
            src.cover(s)
            stack.append((s, _state(src)))
            count, active, covered = stack[-1][1]
            # live counts are the active subsets on each item, and no
            # active subset touches a covered item
            assert np.array_equal(count, np.bincount(
                inst.subsets[active].ravel(), minlength=inst.n_items))
            assert not covered[inst.subsets[active]].any()
        else:
            s, _ = stack.pop()
            src.uncover(s)
            for got, want in zip(_state(src), stack[-1][1]):
                assert np.array_equal(got, want)
    while len(stack) > 1:
        src.uncover(stack.pop()[0])
    assert np.array_equal(src.count, np.bincount(inst.subsets.ravel(),
                                                 minlength=inst.n_items))
    assert src.active.all() and not src.covered.any() and not src.trail


# Knuth's example, its two pairs padded with the fresh items 7 and 8 so
# that every subset is a triple; the unique cover is unchanged
KNUTH = [(2, 4, 5), (0, 3, 6), (1, 2, 5), (0, 3, 7), (1, 6, 8), (3, 4, 6)]


def test_knuth_example():
    inst = XCoverInstance(9, KNUTH)
    r = solve(inst)
    assert sorted(r.chosen) == [0, 3, 4]


def test_determinism():
    inst = XCoverInstance(9, KNUTH)
    r1, r2 = solve(inst), solve(inst)
    assert r1 == r2  # identical solution and node count


def test_limits():
    inst = XCoverInstance(9, KNUTH)
    r = solve(inst, node_limit=1)
    assert isinstance(r, LimitExceeded) and r.reason == "node limit"
    assert r.nodes >= 1


def test_instance_validation():
    with pytest.raises(ValueError, match="empty"):
        XCoverInstance(3, [()])
    with pytest.raises(ValueError, match="range"):
        XCoverInstance(3, [(0, 5)])
    with pytest.raises(ValueError, match="duplicate"):
        XCoverInstance(3, [(1, 1)])
    with pytest.raises(ValueError, match="sorted"):
        XCoverInstance(3, [(2, 0)])
    with pytest.raises(ValueError, match="tag"):
        XCoverInstance(2, [(0,), (1,)], tags=["only-one"])
    # the first offending subset is reported, whatever its fault
    with pytest.raises(ValueError, match="subset 1 is not sorted"):
        XCoverInstance(3, [(0, 1), (2, 1), (1, 1), (0, 5)])
    with pytest.raises(ValueError, match="subset 1 has out-of-range items"):
        XCoverInstance(3, [(0, 1), (5, 0)])


def test_ragged_subsets_refused():
    with pytest.raises(ValueError, match="one size"):
        XCoverInstance(3, [(0, 1), (2,), (0, 2)])


def _brute_force_satisfiable(n_items, subsets):
    full = set(range(n_items))
    for r in range(len(subsets) + 1):
        for combo in itertools.combinations(range(len(subsets)), r):
            seen = set()
            ok = True
            for s in combo:
                items = set(subsets[s])
                if seen & items:
                    ok = False
                    break
                seen |= items
            if ok and seen == full:
                return True
    return False


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_against_brute_force(data):
    n_items = data.draw(st.integers(min_value=1, max_value=9))
    n_subs = data.draw(st.integers(min_value=1, max_value=7))
    size = data.draw(st.integers(min_value=1, max_value=n_items))
    subsets = []
    for _ in range(n_subs):
        items = data.draw(st.sets(st.integers(0, n_items - 1),
                                  min_size=size, max_size=size))
        subsets.append(tuple(sorted(items)))
    inst = XCoverInstance(n_items, subsets)
    result = solve(inst)
    oracle = _brute_force_satisfiable(n_items, subsets)
    if oracle:
        assert isinstance(result, CoverSolution)
        assert check_solution(inst, result)
    else:
        assert isinstance(result, Unsatisfiable)


def test_deep_solve_leaves_recursion_limit():
    # one node per item: 2000 levels deep, past the default recursion limit
    limit = sys.getrecursionlimit()
    inst = XCoverInstance(2000, [(i,) for i in range(2000)])
    r = solve(inst)
    assert isinstance(r, CoverSolution) and r.chosen == tuple(range(2000))
    assert r.nodes == 2000
    assert sys.getrecursionlimit() == limit
