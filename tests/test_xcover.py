import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridesign.xcover import (CoverSolution, LimitExceeded, Unsatisfiable,
                              XCoverInstance, check_solution, solve)


def test_basic_solution():
    inst = XCoverInstance(3, [(0, 1), (2,), (0, 2)])
    r = solve(inst)
    assert isinstance(r, CoverSolution)
    assert check_solution(inst, r)
    assert sorted(inst.subsets[s] for s in r.chosen) == [(0, 1), (2,)]


def test_unsatisfiable():
    r = solve(XCoverInstance(2, [(0,)]))
    assert isinstance(r, Unsatisfiable)


def test_single_triple():
    r = solve(XCoverInstance(3, [(0, 1, 2)]))
    assert isinstance(r, CoverSolution) and len(r.chosen) == 1


def test_empty_instance():
    assert isinstance(solve(XCoverInstance(0, [])), CoverSolution)
    assert isinstance(solve(XCoverInstance(2, [])), Unsatisfiable)


def test_knuth_example():
    rows = [(2, 4, 5), (0, 3, 6), (1, 2, 5), (0, 3), (1, 6), (3, 4, 6)]
    inst = XCoverInstance(7, rows)
    r = solve(inst)
    assert sorted(r.chosen) == [0, 3, 4]


def test_determinism():
    rows = [(2, 4, 5), (0, 3, 6), (1, 2, 5), (0, 3), (1, 6), (3, 4, 6)]
    inst = XCoverInstance(7, rows)
    r1, r2 = solve(inst), solve(inst)
    assert r1 == r2  # identical solution and node count


def test_limits():
    rows = [(2, 4, 5), (0, 3, 6), (1, 2, 5), (0, 3), (1, 6), (3, 4, 6)]
    inst = XCoverInstance(7, rows)
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
    subsets = []
    for _ in range(n_subs):
        size = data.draw(st.integers(min_value=1, max_value=n_items))
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
