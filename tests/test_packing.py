"""Separated-set packing tests.

The branch-and-bound solver is checked against a brute-force maximum
independent set oracle on every graph small enough to enumerate, and
against the closed constant-weight formula on the d=1 family.
"""

import itertools
import math
import random

import pytest

from tracezero.errors import (
    NotSeparated,
    SetTooSmall,
    WrongSimplex,
)
from tracezero.packing import (
    SeparatedSet,
    best_separated_set,
    build_graph,
    constant_weight_bound,
    corner_points,
    interior_candidates,
    is_d_separated,
    l1_distance,
    matrix_size_from_set,
    max_independent_set,
    normalize_with_corners,
    quadratic_construction,
    simplex_points,
    upper_bounds,
)


def brute_force_mis(g):
    """Reference: try all subsets, largest first."""
    n = g.vertex_count
    assert n <= 22, "too big to brute force"
    for size in range(n, 0, -1):
        for combo in itertools.combinations(range(n), size):
            ok = True
            for a, b in itertools.combinations(combo, 2):
                if g.adjacency[a] >> b & 1:
                    ok = False
                    break
            if ok:
                return size
    return 0


def test_simplex_point_counts():
    # stars and bars: |Delta(m-1, r)| = C(r+m-1, m-1)
    for m in range(1, 5):
        for r in range(6):
            pts = simplex_points(m, r)
            assert len(pts) == math.comb(r + m - 1, m - 1)
            assert len(set(pts)) == len(pts)
            assert all(sum(p) == r and len(p) == m for p in pts)


def test_l1_distance_and_separation():
    assert l1_distance((1, 2, 0), (0, 0, 3)) == 6
    pts = [(3, 0, 0), (0, 3, 0), (1, 1, 1)]
    # separated means strictly greater than the parameter; min distance is 4
    ok, violation = is_d_separated(pts, 3)
    assert ok and violation is None
    ok, violation = is_d_separated(pts, 4)
    assert not ok
    assert violation == (0, 2)


def test_equal_sum_distances_are_even():
    # points with equal coordinate sums differ by an even l1 distance
    rng = random.Random(79)
    for _ in range(300):
        m = rng.randint(2, 5)
        r = rng.randint(1, 9)
        pts = simplex_points(m, r)
        a = rng.choice(pts)
        b = rng.choice(pts)
        assert l1_distance(a, b) % 2 == 0


def test_separated_set_validation():
    s = SeparatedSet(m=3, d=1, points=((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)))
    assert s.size == 4
    with pytest.raises(WrongSimplex):
        SeparatedSet(m=3, d=1, points=((2, 0, 0),))
    with pytest.raises(WrongSimplex):
        SeparatedSet(m=3, d=1, points=((3, 0, -1),))
    with pytest.raises(NotSeparated):
        SeparatedSet(m=3, d=1, points=((3, 0, 0), (2, 1, 0)))
    with pytest.raises(NotSeparated):
        SeparatedSet(m=3, d=1, points=((3, 0, 0), (3, 0, 0)))
    with pytest.raises(WrongSimplex):
        SeparatedSet(m=3, d=1, points=((3, 0, 0), (True, 1, 1)))


def test_corner_points():
    assert list(corner_points(3, 1)) == [(3, 0, 0), (0, 3, 0), (0, 0, 3)]
    assert list(corner_points(2, 2)) == [(5, 0), (0, 5)]


def test_normalize_with_corners_cases():
    # already has all corners: unchanged
    pts = ((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1))
    s = SeparatedSet(m=3, d=1, points=pts)
    assert normalize_with_corners(s).points == pts

    # one point close to a missing corner gets replaced in place
    t = SeparatedSet(m=3, d=1, points=((2, 1, 0), (0, 0, 3)))
    fixed = normalize_with_corners(t)
    assert fixed.points == ((3, 0, 0), (0, 0, 3), (0, 3, 0))
    assert fixed.size == 3

    # far from every corner: corners are appended
    u = SeparatedSet(m=3, d=0, points=((1, 0, 0),))
    grown = normalize_with_corners(u)
    assert set(grown.points) >= {(1, 0, 0)}
    assert grown.size == 3


def test_normalize_property_random_sets():
    # conflicts are unique for genuinely separated inputs, so normalization
    # always succeeds, keeps separation, and never shrinks the set
    rng = random.Random(97)
    for _ in range(120):
        m = rng.randint(2, 4)
        d = rng.randint(0, 2)
        pool = list(simplex_points(m, 2 * d + 1))
        rng.shuffle(pool)
        chosen = []
        for p in pool:
            if all(l1_distance(p, q) > 2 * d for q in chosen):
                chosen.append(p)
            if len(chosen) == 5:
                break
        s = SeparatedSet(m=m, d=d, points=tuple(chosen))
        fixed = normalize_with_corners(s)
        assert set(corner_points(m, d)) <= set(fixed.points)
        assert fixed.size >= s.size
        ok, _ = is_d_separated(fixed.points, 2 * d)
        assert ok


def test_interior_candidates_match_simplex_filter():
    for m in range(2, 5):
        for d in range(0, 3):
            got = interior_candidates(m, d)
            want = [p for p in simplex_points(m, 2 * d + 1)
                    if all(c <= d for c in p)]
            assert sorted(got) == sorted(want)


def test_build_graph_shape():
    g = build_graph(4, 1)
    assert g.vertex_count == 4
    assert g.edge_count == 6
    g5 = build_graph(5, 1)
    assert g5.vertex_count == 10
    assert g5.edge_count == 30
    # every adjacency row against plain l1 distances, empty interiors included
    empty = 0
    for m in range(1, 7):
        for d in range(0, 4):
            g = build_graph(m, d)
            assert g.vertices == tuple(interior_candidates(m, d))
            assert len(g.adjacency) == g.vertex_count
            empty += g.vertex_count == 0
            for i, vi in enumerate(g.vertices):
                row = sum(1 << j for j, vj in enumerate(g.vertices)
                          if j != i and l1_distance(vi, vj) <= 2 * d)
                assert g.adjacency[i] == row, (m, d, i)
    assert empty > 0


def test_mis_against_brute_force():
    for m, d in [(3, 1), (4, 1), (5, 1), (3, 2), (4, 2), (3, 3), (2, 4)]:
        g = build_graph(m, d)
        if g.vertex_count > 22:
            continue
        idx, optimal = max_independent_set(g, 60.0)
        assert optimal
        assert len(idx) == brute_force_mis(g)
        # returned set must actually be independent
        for a, b in itertools.combinations(idx, 2):
            assert not g.adjacency[a] >> b & 1


def test_mis_on_random_graphs():
    rng = random.Random(83)
    from tracezero.packing import SepGraph

    for _ in range(25):
        n = rng.randint(1, 14)
        adj = [0] * n
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.4:
                    adj[a] |= 1 << b
                    adj[b] |= 1 << a
        g = SepGraph(m=0, d=0, vertices=tuple((i,) for i in range(n)),
                     adjacency=tuple(adj))
        idx, optimal = max_independent_set(g, 60.0)
        assert optimal
        assert len(idx) == brute_force_mis(g)


def test_mis_is_lex_least_when_optimal():
    g = build_graph(5, 1)
    idx, optimal = max_independent_set(g, 60.0)
    assert optimal
    size = len(idx)
    # no lexicographically smaller index tuple of the same size works
    for combo in itertools.combinations(range(g.vertex_count), size):
        if list(combo) >= list(idx):
            break
        ok = all(
            not g.adjacency[a] >> b & 1
            for a, b in itertools.combinations(combo, 2)
        )
        assert not ok, f"{combo} beats {idx}"


def test_constant_weight_formula_frozen():
    # closed form for m = 3..9
    assert [constant_weight_bound(m) for m in range(3, 10)] == [1, 1, 2, 4, 7, 8, 12]
    with pytest.raises(ValueError):
        constant_weight_bound(2)


def test_mis_matches_constant_weight():
    for m in range(3, 10):
        g = build_graph(m, 1)
        idx, optimal = max_independent_set(g, 300.0)
        assert optimal
        assert len(idx) == constant_weight_bound(m)


def test_best_separated_set_small_cells():
    # frozen optimal sizes
    expected = {
        (3, 1): 4, (3, 2): 4, (3, 3): 4,
        (4, 1): 5, (4, 2): 6, (4, 3): 6,
        (5, 1): 7,
    }
    for (m, d), size in expected.items():
        s, optimal = best_separated_set(m, d, 300.0)
        assert optimal, (m, d)
        assert s.size == size, (m, d)
        assert set(corner_points(m, d)) <= set(s.points)


def test_quadratic_construction_sizes():
    for m in range(1, 13):
        want = m * (m + 2) // 4 if m % 2 == 0 else (m + 1) ** 2 // 4
        for d in (m - 1, m, m + 2):
            if d < 0:
                continue
            s = quadratic_construction(m, d)
            assert s.size == want
            assert s.m == m and s.d == d


def test_quadratic_needs_large_d():
    with pytest.raises(Exception):
        quadratic_construction(5, 2)


def test_upper_bounds_and_matrix_size():
    assert upper_bounds(3) == (16, 8)
    assert upper_bounds(5) == (256, 128)
    assert upper_bounds(2) == (4, None)
    s = SeparatedSet(m=3, d=1, points=((3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)))
    assert matrix_size_from_set(s) == 2
    with pytest.raises(SetTooSmall):
        matrix_size_from_set(SeparatedSet(m=3, d=1, points=((3, 0, 0), (0, 3, 0))))


def test_budget_exhaustion_reports_not_optimal():
    g = build_graph(6, 2)
    idx, optimal = max_independent_set(g, 0.0)
    assert not optimal
    # whatever came back must still be independent
    for a, b in itertools.combinations(idx, 2):
        assert not g.adjacency[a] >> b & 1


def test_cell_8_2_best_found_reaches_table_value():
    # The largest known set for m=8, d=2 has 24 points; the seeded local
    # search reaches it long before the budget, even though proving
    # optimality is out of reach here. Either way n = 12.
    sep, optimal = best_separated_set(8, 2, 10.0)
    assert 23 <= sep.size <= 24
    assert matrix_size_from_set(sep) == 12
