import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridesign.xcover import (CoverSolution, LimitExceeded, Unsatisfiable,
                              XCoverInstance, check_solution, solve)


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
    assert isinstance(solve(XCoverInstance(0, [])), CoverSolution)
    assert isinstance(solve(XCoverInstance(2, [])), Unsatisfiable)


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
