"""Separated point sets in a discrete simplex, and the packing machinery
behind them.

The objects here are integer points with fixed coordinate sum r = 2d + 1.
A set is "2d-separated" when all pairwise l1 distances exceed 2d; since
points of equal coordinate sum are always an even l1 distance apart, that
is the same as distance >= 2d + 2. Corner points (all weight on one
coordinate) can always be forced into a maximum set, which reduces the
search to an independent-set problem on the interior candidates (all
coordinates <= d) with edges at distance <= 2d. Simplex points are listed
by :func:`tracezero.polynomials.compositions`, the enumerator behind
monomial bases too, and :func:`check_simplex_points` is the one check of
membership and separation, shared with `build_noncommutator`.

The independent-set solver is an exact branch and bound over bitmask
vertex sets. Permuting coordinates maps the conflict graph of
:func:`build_graph` onto itself, so on that graph, and on any other that
:func:`_is_conflict_graph` finds as symmetric, the search starts with
orbital branching (Ostrowski, Linderoth, Rossi and Smriglio, Math.
Programming 2011): include one vertex of an orbit, or exclude the whole
orbit, under the coordinate permutations that fix every chosen point.
Where those permutations no longer move any candidate, and on every
other graph, it branches in colour order as in Tomita's MCQ: one greedy
clique cover per node, walked from its last class backwards, with the
class number as the bound. The lex-least set of the proven size is then
picked vertex by vertex with decision searches without symmetry. Under
a wall-clock budget the exact search gets 60% of it; only if it does not
finish does a deterministic iterated local search get the rest, and the
larger of the two sets is kept. The budget degrades the answer to
best-found with ``optimal=False``, never to an invalid set.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonUniqueConflict,
    NotSeparated,
    PreconditionViolated,
    SetTooSmall,
    WrongSimplex,
    int_text,
)
from .polynomials import MAX_NVARS, compositions


def _check_coordinates(m: int) -> None:
    """A point has one coordinate per variable of the certificate's ring,
    so m has the same cap as a ring's variable count."""
    if m > MAX_NVARS:
        raise PreconditionViolated(
            f"{int_text(m)} coordinates; a point has at most {MAX_NVARS}")


def simplex_points(m: int, r: int) -> list[tuple]:
    """All points of the discrete simplex: m nonnegative coordinates with
    sum r, descending lex order."""
    if m < 1 or r < 0:
        raise PreconditionViolated(f"need m >= 1 and r >= 0, got m={m}, r={r}")
    _check_coordinates(m)
    return list(compositions(r, m))


def l1_distance(a, b) -> int:
    if len(a) != len(b):
        raise DimensionMismatch(f"points of length {len(a)} and {len(b)}")
    return sum(abs(x - y) for x, y in zip(a, b))


def is_d_separated(points, d: int):
    """(True, None) if all pairwise l1 distances exceed d, else
    (False, (i, j)) with the first violating index pair in scan order."""
    pts = [tuple(p) for p in points]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if l1_distance(pts[i], pts[j]) <= d:
                return False, (i, j)
    return True, None


def simplex_point_fault(m: int, d: int, p) -> str | None:
    """Why the tuple ``p`` is not a point of the sum-(2d+1) simplex (m
    nonnegative int coordinates, bools excluded), or None if it is."""
    if len(p) != m:
        return f"does not have {int_text(m)} coordinates"
    if any(not isinstance(c, int) or isinstance(c, bool) or c < 0 for c in p):
        return "has a bad coordinate"
    if sum(p) != 2 * d + 1:
        return f"has coordinate sum {int_text(sum(p))}, expected {int_text(2 * d + 1)}"
    return None


def check_simplex_points(m: int, d: int, points) -> None:
    """Raise WrongSimplex unless every tuple in ``points`` is a simplex
    point (:func:`simplex_point_fault`), then NotSeparated unless all
    pairwise l1 distances exceed 2d; a repeat sits at distance 0."""
    for p in points:
        fault = simplex_point_fault(m, d, p)
        if fault:
            raise WrongSimplex(f"point {p} {fault}")
    ok, pair = is_d_separated(points, 2 * d)
    if not ok:
        i, j = pair
        raise NotSeparated(
            f"points {points[i]} and {points[j]} are at l1 distance "
            f"{int_text(l1_distance(points[i], points[j]))} <= {int_text(2 * d)}")


def corner_points(m: int, d: int) -> list[tuple]:
    """The m scaled corners (2d+1) e_i, in coordinate order."""
    _check_coordinates(m)
    r = 2 * d + 1
    return [tuple(r if j == i else 0 for j in range(m)) for i in range(m)]


@dataclass(frozen=True)
class SeparatedSet:
    """An ordered 2d-separated subset of the sum-(2d+1) simplex.

    The invariants (membership, separation, and the 4^(m-1) size ceiling)
    are rechecked on construction, so instances cannot hold bad data.
    """

    m: int
    d: int
    points: tuple

    def __post_init__(self):
        pts = tuple(tuple(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        check_simplex_points(self.m, self.d, pts)
        if len(pts) > 4 ** (self.m - 1):
            raise RuntimeError(
                f"{len(pts)} separated points exceed the ceiling 4^{self.m - 1}")

    @property
    def size(self) -> int:
        return len(self.points)


def normalize_with_corners(s: SeparatedSet) -> SeparatedSet:
    """Rewrite a separated set so it contains every corner, without
    shrinking it.

    Any point conflicting with a corner is unique when it exists (its
    distance to the other corners is forced large), so it can be swapped
    for the corner in place; corners with no conflict are appended.
    """
    pts = list(s.points)
    for corner in corner_points(s.m, s.d):
        if corner in pts:
            continue
        conflicts = [i for i, p in enumerate(pts)
                     if l1_distance(p, corner) <= 2 * s.d]
        if len(conflicts) > 1:
            raise NonUniqueConflict(
                f"{len(conflicts)} points conflict with corner {corner}; "
                "input was not 2d-separated")
        if conflicts:
            pts[conflicts[0]] = corner
        else:
            pts.append(corner)
    return SeparatedSet(s.m, s.d, tuple(pts))


def interior_candidates(m: int, d: int) -> list[tuple]:
    """Simplex points separated from every corner: all coordinates <= d.
    Descending lex order; the bound is enforced during generation."""
    if m < 1 or d < 0:
        raise PreconditionViolated(f"need m >= 1 and d >= 0, got m={m}, d={d}")
    return list(compositions(2 * d + 1, m, cap=d))


@dataclass(frozen=True)
class SepGraph:
    """Conflict graph on interior candidates: edges join points at l1
    distance <= 2d (too close to coexist). Adjacency is one bitmask per
    vertex.

    Any vertices and edges are allowed. The solver uses the symmetry of
    coordinate permutations only where it checks that they map the
    vertices and the edges onto themselves (:func:`_is_conflict_graph`),
    as on every graph :func:`build_graph` makes; any other graph gets
    the search without symmetry."""

    m: int
    d: int
    vertices: tuple
    adjacency: tuple

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adjacency) // 2


def build_graph(m: int, d: int) -> SepGraph:
    verts = interior_candidates(m, d)
    return SepGraph(m, d, tuple(verts), _conflicts(verts, d))


def _conflicts(verts, d: int) -> tuple:
    """Adjacency bitmasks joining the points of ``verts`` at l1 distance
    <= 2d. Distance rows go in chunks of at most 2^19 entries, summed one
    coordinate at a time, so memory stays bounded."""
    n = len(verts)
    if n == 0:
        return ()
    cols = np.array(verts, dtype=np.int16).T.copy()
    adj = []
    chunk = max(1, (1 << 19) // n)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        dist = np.zeros((hi - lo, n), dtype=np.int16)
        step = np.empty_like(dist)
        for col in cols:
            np.subtract(col[lo:hi, None], col, out=step)
            dist += np.abs(step, out=step)
        close = dist <= 2 * d
        close[np.arange(hi - lo), np.arange(lo, hi)] = False
        packed = np.packbits(close, axis=1, bitorder="little")
        adj.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return tuple(adj)


def _is_conflict_graph(g: SepGraph) -> bool:
    """True when every permutation of the coordinates maps the vertex set
    of ``g`` onto itself and its edges onto its edges, as on every graph
    :func:`build_graph` makes: the vertices are points of the sum-(2d+1)
    simplex (so no int16 distance overflows while d < 2^13), closed under
    swapping the first two coordinates and under a cyclic shift, which
    generate all the permutations, and the edges join exactly the pairs
    at l1 distance <= 2d."""
    d, verts = g.d, g.vertices
    if not (type(d) is int and 0 <= d < 1 << 13):
        return False
    if any(type(x) is not tuple or simplex_point_fault(g.m, d, x) for x in verts):
        return False
    points = set(verts)
    if any(x[1::-1] + x[2:] not in points or x[1:] + x[:1] not in points
           for x in verts):
        return False
    return g.adjacency == _conflicts(verts, d)


# -- exact maximum independent set ------------------------------------------


def _clique_cover(adj, p: int, skip: int):
    """Greedy clique cover of the vertex mask p, one clique at a time, each
    grown from the lowest free index. Returns the class count, which bounds
    any independent set inside p from above, and the (vertex, class
    number) pairs of the classes after the first ``skip``, in cover order.
    With ``skip`` = incumbent - current size, a branch on a vertex of the
    first ``skip`` classes cannot beat the incumbent, so they are left
    out."""
    high = []
    k = 0
    rem = p
    while rem:
        k += 1
        cand = rem
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            rem ^= low
            cand &= adj[v]
            if k > skip:
                high.append((v, k))
    return k, high


def _orbit_key(x, cells):
    """The values of the point x on each coordinate cell, as sorted tuples:
    two points share an orbit under the product of the symmetric groups on
    the cells exactly when their keys agree."""
    return tuple(tuple(sorted(x[i] for i in cell)) for cell in cells)


def _orbits(coords, cells, p: int):
    """Orbits of the vertices in p under the product of the symmetric
    groups on the coordinate cells, as (lowest index, orbit mask) in order
    of that index."""
    orbits: dict = {}
    q = p
    while q:
        v = (q & -q).bit_length() - 1
        q &= q - 1
        key = _orbit_key(coords[v], cells)
        orbits[key] = orbits.get(key, 0) | 1 << v
    return [((o & -o).bit_length() - 1, o) for o in orbits.values()]


def _refine(cells, x):
    """Split each cell by the values of the point x, so the product of the
    symmetric groups on the new cells is the stabilizer of x."""
    out = []
    for cell in cells:
        parts: dict = {}
        for i in cell:
            parts.setdefault(x[i], []).append(i)
        out.extend(tuple(part) for _, part in sorted(parts.items()))
    return tuple(out)


def _greedy_fill(adj, mask: int, order) -> int:
    """Extend the independent set ``mask`` greedily along ``order``."""
    for v in order:
        bit = 1 << v
        if not (mask & bit) and not (adj[v] & mask):
            mask |= bit
    return mask


def _swap_improve(adj, full: int, cur: int) -> int:
    """Local optimum under two moves: add any free vertex, and the
    (1,2)-swap that trades one member for two nonadjacent outsiders whose
    only conflict is that member."""
    while True:
        outside = full & ~cur
        q = outside
        while q:
            v = (q & -q).bit_length() - 1
            q &= q - 1
            if not (adj[v] & cur):
                cur |= 1 << v
        one_tight: dict = {}
        q = full & ~cur
        swapped = False
        while q:
            v = (q & -q).bit_length() - 1
            q &= q - 1
            hit = adj[v] & cur
            if hit and not (hit & (hit - 1)):
                others = one_tight.setdefault(hit, [])
                for u in others:
                    if not (adj[u] >> v & 1):
                        cur = (cur & ~hit) | (1 << u) | (1 << v)
                        swapped = True
                        break
                if swapped:
                    break
                others.append(v)
        if not swapped:
            return cur


def _ils_lower_bound(adj, n: int, deadline):
    """Deterministic iterated local search: randomized greedy fills plus
    (1,2)-swap local optima, perturbed by forcing one vertex in. Iteration
    counts depend only on the graph, so results are reproducible; the
    deadline only truncates oversized runs early."""
    rng = random.Random(2024)
    full = (1 << n) - 1
    order = list(range(n))
    cur = _swap_improve(adj, full, _greedy_fill(adj, 0, order))
    best = cur
    iters = 1200 if n <= 1200 else (150 if n <= 3000 else 12)
    for _ in range(iters):
        if deadline is not None and time.monotonic() > deadline:
            break
        v = rng.randrange(n)
        forced = (cur & ~adj[v]) | (1 << v)
        rng.shuffle(order)
        cand = _swap_improve(adj, full, _greedy_fill(adj, forced, order))
        if cand.bit_count() >= cur.bit_count():
            cur = cand
        if cur.bit_count() > best.bit_count():
            best = cur
    return best, best.bit_count()


def _mis_search(adj, start_mask: int, target: int | None, deadline,
                coords=None):
    """Core branch and bound.

    With ``target=None`` finds a maximum independent set inside
    ``start_mask``; with a target, stops as soon as an independent set of
    that size exists (decision mode). Returns (best_mask, best_size,
    completed).

    ``coords`` (the vertex points) turns on orbital branching under the
    coordinate permutations; the adjacency must be invariant under them
    and ``start_mask`` must be a union of orbits. A node then carries a
    partition of the coordinates whose symmetric groups fix every chosen
    point. Largest orbit first, it includes the lowest vertex of an orbit
    in a child, then excludes the whole orbit and turns to the next one,
    bounding each turn by the clique cover of what is left. Once every
    orbit is one vertex, the node walks a clique cover from its last class
    backwards, including each vertex in a child and then dropping it, and
    stops as soon as the class number can no longer beat the incumbent.
    Children are made only by inclusion, so the stack is never deeper than
    the set being built.
    """
    best_mask, best_size = 0, 0
    floor = 0 if target is None else target - 1

    def frame(p, size, mask, cells):
        # [candidates, size, chosen mask, branches (last first), cells]
        if cells is not None:
            orbits = _orbits(coords, cells, p)
            if len(orbits) < p.bit_count():
                orbits.sort(key=lambda o: (o[1].bit_count(), -o[0]))
                return [p, size, mask, orbits, cells]
        _, high = _clique_cover(adj, p, max(best_size, floor) - size)
        return [p, size, mask, high, None]

    stack = []
    if start_mask:
        cells = None if coords is None else (tuple(range(len(coords[0]))),)
        stack.append(frame(start_mask, 0, 0, cells))
    nodes = 0
    while stack:
        top = stack[-1]
        p, size, mask, branches, cells = top
        if not branches:
            stack.pop()
            continue
        lim = max(best_size, floor)
        if cells is None:
            v, bound = branches[-1]
            out = 1 << v
        else:
            v, out = branches[-1]
            bound, _ = _clique_cover(adj, p, lim - size)
        if size + bound <= lim:
            stack.pop()
            continue
        nodes += 1
        if deadline is not None and (nodes & 63) == 1 and time.monotonic() > deadline:
            return best_mask, best_size, False
        branches.pop()
        top[0] = p & ~out  # exclude v, or its whole orbit, from the rest
        bit = 1 << v
        rest = p & ~adj[v] & ~bit
        if size + 1 > best_size:
            best_mask, best_size = mask | bit, size + 1
            if target is not None and best_size >= target:
                return best_mask, best_size, True
        if rest:
            child = None if cells is None else _refine(cells, coords[v])
            stack.append(frame(rest, size + 1, mask | bit, child))
    return best_mask, best_size, True


def _lex_min_of_size(adj, n: int, k: int, deadline):
    """Lex-least independent set of size k, found by k decision searches."""
    chosen = []
    p = (1 << n) - 1
    for v in range(n):
        if len(chosen) == k:
            break
        bit = 1 << v
        if not (p & bit):
            continue
        rest = p & ~adj[v] & ~bit
        need = k - len(chosen) - 1
        if need == 0:
            chosen.append(v)
            p = rest
            continue
        _, got, completed = _mis_search(adj, rest, need, deadline)
        if not completed:
            return None
        if got >= need:
            chosen.append(v)
            p = rest
    return chosen if len(chosen) == k else None


def max_independent_set(g: SepGraph, budget: float | None = None):
    """Exact maximum independent set of the conflict graph.

    Returns (vertex index list, optimal). Under a wall-clock budget the
    search may stop early, returning the best set found so far with
    ``optimal=False``; the set itself is always independent. ``optimal``
    is True only with the lex-least set of maximum size, so a proven
    result is reproducible and partition-independent; if the lex-least
    step runs out of budget, the search's own set comes back with
    ``optimal=False``. A NaN budget, which no deadline passes, is refused.
    """
    if budget is not None and math.isnan(budget):
        raise PreconditionViolated("budget is NaN")
    n = g.vertex_count
    if n == 0:
        return [], True
    adj = list(g.adjacency)
    deadline = search_deadline = None
    if budget is not None:
        start = time.monotonic()
        deadline, search_deadline = start + budget, start + 0.6 * budget
    coords = g.vertices if _is_conflict_graph(g) else None
    mask, size, completed = _mis_search(adj, (1 << n) - 1, None, search_deadline,
                                        coords=coords)
    if completed:
        canonical = _lex_min_of_size(adj, n, size, deadline)
        if canonical is not None:
            return canonical, True
    else:
        # Only a search that ran out of time pays for the local search.
        ils_mask, ils_size = _ils_lower_bound(adj, n, deadline)
        if ils_size > size:
            mask = ils_mask
    return [v for v in range(n) if mask >> v & 1], False


def best_separated_set(m: int, d: int, budget: float | None = None):
    """Largest 2d-separated set the solver can certify: the m corners plus
    a maximum independent set of interior candidates.

    Returns (SeparatedSet, optimal). d = 0 degenerates to the m unit
    vectors: the interior is empty and the corners alone are the answer.
    """
    _check_coordinates(m)
    g = build_graph(m, d)
    indices, optimal = max_independent_set(g, budget)
    points = corner_points(m, d) + [g.vertices[i] for i in indices]
    return SeparatedSet(m, d, tuple(points)), optimal


def quadratic_applies(m: int, d: int) -> bool:
    """Whether :func:`quadratic_construction` covers the cell: d >= m - 1."""
    return d >= m - 1


def quadratic_construction(m: int, d: int) -> SeparatedSet:
    """Explicit separated set of size ~m^2/4 for large separation.

    Needs d >= m - 1. Besides the corners it places, for each stride j up
    to m/2 and offset k up to m - 2j, a three-coordinate point whose
    heights are staggered by the 2-adic valuation of j; the staggering is
    what keeps distinct strides far apart. Size is m(m+2)/4 for even m,
    (m+1)^2/4 for odd.
    """
    if m < 1:
        raise PreconditionViolated(f"need m >= 1, got {m}")
    if not quadratic_applies(m, d):
        raise PreconditionViolated(f"construction needs d >= m - 1, got m={m}, d={d}")
    points = corner_points(m, d)
    for j in range(1, m // 2 + 1):
        r = (j & -j).bit_length() - 1  # 2-adic valuation of j
        for k in range(1, m - 2 * j + 1):
            p = [0] * m
            p[k - 1] = d - r - k
            p[k + j - 1] = d
            p[k + 2 * j - 1] = r + k + 1
            points.append(tuple(p))
    expected = m * (m + 2) // 4 if m % 2 == 0 else (m + 1) ** 2 // 4
    if len(points) != expected:
        raise RuntimeError(
            f"quadratic construction gave {len(points)} points, expected {expected}")
    return SeparatedSet(m, d, tuple(points))


def constant_weight_bound(m: int) -> int:
    """Largest number of binary weight-3 words of length m with pairwise
    Hamming distance >= 4, by the classical closed form."""
    if m < 3:
        raise PreconditionViolated(f"need m >= 3, got {m}")
    base = m * ((m - 1) // 2) // 3
    if m % 6 == 5:
        base -= 1
    return base


def upper_bounds(m: int):
    """(separated-set ceiling 4^(m-1), matrix-size ceiling 2^(2m-3)).

    The matrix bound needs m >= 3; below that it is None.
    """
    if m < 1:
        raise PreconditionViolated(f"need m >= 1, got {m}")
    set_bound = 4 ** (m - 1)
    matrix_bound = 2 ** (2 * m - 3) if m >= 3 else None
    return set_bound, matrix_bound


def matrix_size_from_set(s: SeparatedSet) -> int:
    """Largest matrix size a separated set supports: n = floor((#S+1)/2),
    so 2n - 1 ordered points are available."""
    if s.size < 3:
        raise SetTooSmall(f"need at least 3 points, have {s.size}")
    return (s.size + 1) // 2
