"""Hand-checked cases for the benchmark's oracles.

Run with ``python3 -m pytest perfbench/test_bench_oracles.py``; the
oracles need only the standard library.
"""

import itertools
import math
from collections import deque

import bench_oracles as bo

INF = (1, 0)


def test_farey_distance_hand_values():
    # oo-0 is an edge; 1/2 needs an integer first; 2/5 = [0; 2, 2]
    # has no integer neighbour (5n - 2 = +-1 has no solution)
    assert bo.farey_distance(INF, (0, 1)) == 1
    assert bo.farey_distance(INF, (1, 2)) == 2
    assert bo.farey_distance(INF, (2, 5)) == 3
    # 1/3 - 1/2 - 2/3, and det(1/3, 2/3) = -3 rules out an edge
    assert bo.farey_distance((1, 3), (2, 3)) == 2
    assert bo.farey_distance((3, 7), (2, 5)) == 1
    # 0 - oo - 1000: a fan of 1000 ladder vertices, distance still 2
    assert bo.farey_distance((0, 1), (1000, 1)) == 2
    assert bo.farey_distance((-1, 2), (1, 2)) == 2
    assert bo.farey_distance((5, 3), (5, 3)) == 0
    # unnormalised input is reduced first
    assert bo.farey_distance((2, -4), (0, 3)) == 1


def _ball(height: int) -> list[tuple[int, int]]:
    out = {INF}
    for q in range(1, height + 1):
        for p in range(-height, height + 1):
            if math.gcd(p, q) == 1:
                out.add((p, q))
    return sorted(out)


def test_ladder_search_matches_bfs_over_a_height_ball():
    ball = _ball(14)
    adj = {v: [w for w in ball if abs(v[0] * w[1] - v[1] * w[0]) == 1] for v in ball}

    def ball_bfs(a, b):
        dist = {a: 0}
        queue = deque([a])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist[b]

    small = [s for s in ball if max(abs(s[0]), s[1]) <= 4]
    for a, b in itertools.combinations(small, 2):
        d = bo.farey_distance(a, b)
        assert d == ball_bfs(a, b), (a, b)
        assert d == bo.farey_distance(b, a)


def _dump(cross):
    return {"cross_edges": [{"a": list(a), "b": list(b)} for a, b in cross]}


def test_quasitree_oracle_marking_by_hand():
    none = None
    dump = _dump([
        (("X", [0, none]), ("Y", [5, none])),
        (("Y", [7, none]), ("Z", [2, none])),
    ])
    qt = bo.QuasiTreeOracle(dump, "marking")
    # |3-0| + 1 + |5-7| + 1 + |2-10|
    assert qt.distance(("X", (3, none)), ("Z", (10, none))) == 15.0
    assert qt.distance(("Y", (0, none)), ("Y", (100, none))) == 100.0
    # a second X-Y edge gives a shortcut through X:
    # Y0 -> Y5 (5) -> X0 (1) -> X1 (1) -> Y90 (1) -> Y100 (10)
    dump = _dump([
        (("X", [0, none]), ("Y", [5, none])),
        (("X", [1, none]), ("Y", [90, none])),
    ])
    qt = bo.QuasiTreeOracle(dump, "marking")
    assert qt.distance(("Y", (0, none)), ("Y", (100, none))) == 18.0


def test_quasitree_oracle_augmented_by_hand():
    dump = _dump([(("X", [0, 1.0]), ("Y", [0, 1.0]))])
    qt = bo.QuasiTreeOracle(dump, "augmented")
    # vertical leg from height 1 to height e has length log(e) = 1
    assert math.isclose(qt.distance(("X", (0, 1.0)), ("X", (0, math.e))), 1.0)
    # X(0, e) -> X(0, 1) -> cross -> Y(0, 1) -> Y(0, e)
    assert math.isclose(qt.distance(("X", (0, math.e)), ("Y", (0, math.e))), 3.0)
    # cosh d = 1 + 4 / 2 at equal heights 1 and offset 2
    assert math.isclose(bo.horoball_distance((0.0, 1.0), (2.0, 1.0)), math.acosh(3.0))
