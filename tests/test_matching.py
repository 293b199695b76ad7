from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import has_perfect_matching
from tilinglab.matching import max_bipartite_matching


def brute_max_matching(n_left, n_right, adj):
    best = 0
    rights = list(range(n_right))
    for perm in permutations(rights):
        size = 0
        seen = set()
        for u in range(n_left):
            for v in perm:
                if v in adj[u] and v not in seen:
                    seen.add(v)
                    size += 1
                    break
        best = max(best, size)
    return best


def test_simple_cases():
    assert max_bipartite_matching(2, 2, [[0, 1], [0, 1]])[0] == 2
    assert max_bipartite_matching(2, 2, [[0], [0]])[0] == 1
    assert max_bipartite_matching(3, 3, [[0], [0, 1], [1]])[0] == 2
    assert has_perfect_matching(3, 3, [[0, 1, 2]] * 3)
    assert not has_perfect_matching(3, 3, [[0], [0], [0, 1, 2]])


def test_hall_violation_detected():
    # two left vertices share a single neighbor
    assert not has_perfect_matching(2, 2, [[1], [1]])


def test_matching_is_consistent():
    adj = [[0, 2], [1], [1, 2], [0]]
    size, pl, pr = max_bipartite_matching(4, 3, adj)
    assert size == 3
    for u, v in enumerate(pl):
        if v != -1:
            assert v in adj[u]
            assert pr[v] == u


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_against_bruteforce(nl, nr, data):
    adj = [
        sorted(data.draw(st.sets(st.integers(0, nr - 1)), label=f"adj{u}"))
        for u in range(nl)
    ]
    size, pl, pr = max_bipartite_matching(nl, nr, adj)
    assert size == brute_max_matching(nl, nr, [set(a) for a in adj])
    pairs = [(u, v) for u, v in enumerate(pl) if v != -1]
    assert len(pairs) == size == sum(u != -1 for u in pr)
    for u, v in pairs:
        assert v in adj[u] and pr[v] == u


def test_long_augmenting_path():
    # the last left vertex frees slot 0 only by shifting all the others along
    # one path of 4,999 edges, past Python's recursion limit
    n = 2500
    adj = [[i, i + 1] for i in range(n - 1)] + [[0]]
    size, pl, _ = max_bipartite_matching(n, n, adj)
    assert size == n and pl[-1] == 0 and pl[:-1] == list(range(1, n))
