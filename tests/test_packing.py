"""Separated-set packing tests.

The branch-and-bound solver is checked against a brute-force maximum
independent set oracle on every graph small enough to enumerate, against
networkx's exact maximum clique of the complement on every cell with at
most 150 interior candidates, against the same search without symmetry,
and against the closed constant-weight formula on the d=1 family.
"""

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys

import pytest

import tracezero
from tracezero.errors import (
    NotSeparated,
    PreconditionViolated,
    SetTooSmall,
    WrongSimplex,
)
from tracezero.packing import (
    SepGraph,
    SeparatedSet,
    _conflicts,
    _is_conflict_graph,
    _mis_search,
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


def test_simplex_points_past_the_recursion_limit():
    # one loop step per tuple, however many coordinates there are
    units = simplex_points(1200, 1)
    assert units == [tuple(int(i == j) for j in range(1200)) for i in range(1200)]
    assert simplex_points(1200, 0) == [(0,) * 1200]


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


def test_coordinate_count_is_capped_like_a_ring():
    # one coordinate per ring variable: past MAX_NVARS every builder
    # refuses before it forms a point
    from tracezero.polynomials import MAX_NVARS

    assert len(corner_points(MAX_NVARS, 0)) == MAX_NVARS
    for build in (lambda m: corner_points(m, 0), lambda m: simplex_points(m, 1),
                  lambda m: best_separated_set(m, 1)):
        with pytest.raises(PreconditionViolated, match="at most 4096"):
            build(MAX_NVARS + 1)


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


def test_nan_budget_is_refused():
    # no deadline would ever pass a NaN one, so the search would never stop
    with pytest.raises(PreconditionViolated):
        max_independent_set(build_graph(7, 3), float("nan"))


def test_lex_least_step_out_of_budget_reports_not_optimal(monkeypatch):
    # the search proves the size, but without the lex-least set the answer
    # would depend on machine speed, so it must not be called optimal
    g = build_graph(6, 2)
    monkeypatch.setattr(tracezero.packing, "_lex_min_of_size", lambda *args: None)
    idx, optimal = max_independent_set(g, None)
    assert not optimal
    assert len(idx) == 12 - len(corner_points(6, 2))
    for a, b in itertools.combinations(idx, 2):
        assert not g.adjacency[a] >> b & 1


def test_cell_8_2_best_found_reaches_table_value():
    # The largest set for m=8, d=2 has 24 points. Orbital branching proves
    # it in a few seconds; if the proof does not finish within 60% of the
    # budget, the local search run on the rest still reaches 23 or 24.
    # Either way n = 12.
    sep, optimal = best_separated_set(8, 2, 10.0)
    assert 23 <= sep.size <= 24
    assert matrix_size_from_set(sep) == 12


def test_mis_matches_networkx_on_small_cells():
    # networkx's exact maximum clique of the complement graph is an
    # independent reference for every cell with at most 150 candidates
    import networkx as nx

    checked = 0
    for m in range(1, 10):
        for d in range(0, 5):
            g = build_graph(m, d)
            if not 0 < g.vertex_count <= 150:
                continue
            compatible = nx.Graph()
            compatible.add_nodes_from(range(g.vertex_count))
            compatible.add_edges_from(
                (a, b) for a, b in itertools.combinations(range(g.vertex_count), 2)
                if not g.adjacency[a] >> b & 1)
            _, want = nx.max_weight_clique(compatible, weight=None)
            idx, optimal = max_independent_set(g, None)
            assert optimal, (m, d)
            assert len(idx) == want, (m, d)
            checked += 1
    assert checked == 15


# Default-grid cells (m <= 8, d <= 4) that the colour-order search without
# symmetry proves; on each of the others it runs past 15 s.
PLAIN_PROVABLE = [(m, d) for m in (3, 4, 5) for d in (1, 2, 3, 4)] + [
    (6, 1), (6, 2), (6, 3), (7, 1), (7, 2), (8, 1)]


def test_orbital_search_agrees_with_plain_colour_order():
    for m, d in PLAIN_PROVABLE:
        g = build_graph(m, d)
        adj, full = list(g.adjacency), (1 << g.vertex_count) - 1
        _, plain, done = _mis_search(adj, full, None, None)
        assert done
        mask, size, done = _mis_search(adj, full, None, None, coords=g.vertices)
        assert done
        assert size == plain == mask.bit_count(), (m, d)
        assert not any(mask >> v & 1 and adj[v] & mask for v in range(g.vertex_count))


# sha256 prefixes of json.dumps(points) for the cells the benchmark proves,
# as the index-order branch and bound without symmetry returned them.
PINNED_POINTS = {
    (3, 1): "a68ceef85a71a61b", (3, 2): "b4c5f55f027f1809",
    (3, 3): "de16affb91968bc2", (3, 4): "b97210dd2deb8f32",
    (4, 1): "62359697e5839795", (4, 2): "7ddcaf3a2402eacc",
    (4, 3): "43dd19243f94cde4", (4, 4): "5284e1536ad990c7",
    (5, 1): "15ff1d2e4320a10a", (5, 2): "61c08d238a38d261",
    (5, 3): "40802f981f62ae53", (5, 4): "9e8ee90d997c9677",
    (6, 1): "27984b7bed65b662", (6, 2): "99906a65506b32f6",
    (7, 1): "17dde936b03a97e8", (7, 2): "8ed895ee8d58a82d",
    (8, 1): "3e75ce527802e54c", (9, 1): "88b3639c97e87dd5",
}


def test_proven_sets_are_pinned():
    # the lex-least canonical set must not depend on how the search runs
    for (m, d), digest in PINNED_POINTS.items():
        s, optimal = best_separated_set(m, d, None)
        assert optimal, (m, d)
        got = hashlib.sha256(json.dumps(s.points).encode()).hexdigest()[:16]
        assert got == digest, (m, d)


def test_symmetry_only_on_built_graphs():
    # Orbits shared by vertices whose edges differ would lose the maximum;
    # the symmetric search runs only where every permutation of the
    # coordinates maps the vertices and the edges onto themselves.
    def graph(m, d, vertices, edges):
        adj = [0] * len(vertices)
        for a, b in edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return SepGraph(m, d, tuple(vertices), tuple(adj))

    built = build_graph(4, 1)  # four points, pairwise in conflict
    cut = list(built.adjacency)
    cut[1] &= ~(1 << 2)
    cut[2] &= ~(1 << 1)
    # seven (4, 2) candidates, not closed under permutations
    part = ((2, 1, 2, 0), (2, 1, 1, 1), (2, 0, 1, 2), (1, 2, 1, 1),
            (1, 1, 2, 1), (1, 1, 1, 2), (0, 2, 2, 1))
    # seven (5, 1) candidates, closed under swapping the first two
    # coordinates but not under a cyclic shift
    swapped = ((1, 1, 1, 0, 0), (1, 1, 0, 1, 0), (1, 1, 0, 0, 1), (1, 0, 1, 1, 0),
               (1, 0, 1, 0, 1), (0, 1, 1, 1, 0), (0, 1, 1, 0, 1))
    # eight (6, 1) candidates, closed under a cyclic shift but not under
    # swapping the first two coordinates
    shifted = ((1, 1, 0, 0, 1, 0), (1, 0, 1, 1, 0, 0), (1, 0, 1, 0, 1, 0),
               (1, 0, 0, 1, 0, 1), (0, 1, 1, 0, 0, 1), (0, 1, 0, 1, 1, 0),
               (0, 1, 0, 1, 0, 1), (0, 0, 1, 0, 1, 1))
    cases = [
        (graph(2, 0, [(1, 0), (0, 1), (5, 5), (6, 6)], [(0, 2), (0, 3)]), [1, 2, 3]),
        (graph(1, 0, [(0,), (0,), (1,), (2,)], [(0, 2), (0, 3)]), [1, 2, 3]),
        (graph(1, 0, [("a",), ("b",)], [(0, 1)]), [0]),
        (SepGraph(4, 1, built.vertices, tuple(cut)), [1, 2]),
        (SepGraph(4, 2, part, _conflicts(part, 2)), [2, 6]),
        (SepGraph(5, 1, swapped, _conflicts(swapped, 1)), [1, 4]),
        (SepGraph(6, 1, shifted, _conflicts(shifted, 1)), [0, 1, 6, 7]),
    ]
    for g, want in cases:
        assert not _is_conflict_graph(g)
        assert max_independent_set(g, None) == (want, True)
    for m, d in [(1, 0), (4, 1), (5, 2), (6, 3), (7, 2)]:
        assert _is_conflict_graph(build_graph(m, d)), (m, d)
    # a vertex order of its own keeps the symmetry and the answer's size
    flipped = build_graph(5, 2).vertices[::-1]
    g = SepGraph(5, 2, flipped, _conflicts(flipped, 2))
    assert _is_conflict_graph(g)
    idx, optimal = max_independent_set(g, None)
    assert optimal and len(idx) == len(max_independent_set(build_graph(5, 2))[0])


def test_symmetry_proves_larger_cells():
    for (m, d), size in {(6, 3): 14, (6, 4): 15}.items():
        s, optimal = best_separated_set(m, d, None)
        assert optimal, (m, d)
        assert s.size == size, (m, d)


def test_many_small_orbits_stay_shallow():
    # Once a few points are chosen, (7, 3) breaks into many small orbits;
    # each is excluded in a loop, so the search never recurses on them.
    limit = sys.getrecursionlimit()
    s, _ = best_separated_set(7, 3, 1.0)
    ok, _ = is_d_separated(s.points, 6)
    assert ok and s.size > 7
    assert set(corner_points(7, 3)) <= set(s.points)
    assert sys.getrecursionlimit() == limit
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(tracezero.__file__)))
    probe = ("import sys; r = sys.getrecursionlimit(); import tracezero.packing; "
             "print(sys.getrecursionlimit() == r)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "True"
