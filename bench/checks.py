"""Reference checks for the benchmark, written without tracezero.

Polynomials here are plain dicts from exponent tuples to coefficients:
``fractions.Fraction`` over Q (``p is None``) or ints in ``range(p)`` over
F_p. Matrices are lists of rows of such dicts. Every function returns a
result or a problem string; none of them calls into the package, so a
wrong answer from the package cannot confirm itself.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


# -- exact ring arithmetic ------------------------------------------------------


def _norm(c, p):
    return c % p if p is not None else Fraction(c)


def poly_clean(a: dict, p) -> dict:
    """Drop zero coefficients and reduce the rest."""
    out = {}
    for mono, c in a.items():
        c = _norm(c, p)
        if c:
            out[tuple(mono)] = c
    return out


def poly_add(a: dict, b: dict, p, sign: int = 1) -> dict:
    out = dict(a)
    for mono, c in b.items():
        out[mono] = out.get(mono, 0) + sign * c
    return poly_clean(out, p)


def poly_mul(a: dict, b: dict, p, trunc) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            if trunc is not None and sum(mono) >= trunc:
                continue
            out[mono] = out.get(mono, 0) + c1 * c2
    return poly_clean(out, p)


def mat_mul(a, b, p, trunc):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc: dict = {}
            for k in range(n):
                if a[i][k] and b[k][j]:
                    acc = poly_add(acc, poly_mul(a[i][k], b[k][j], p, trunc), p)
            row.append(acc)
        out.append(row)
    return out


def commutator(a, b, p, trunc):
    ab, ba = mat_mul(a, b, p, trunc), mat_mul(b, a, p, trunc)
    return [[poly_add(x, y, p, -1) for x, y in zip(r, s)] for r, s in zip(ab, ba)]


def mat_clean(a, p):
    return [[poly_clean(e, p) for e in row] for row in a]


def check_commutator(x, b, target, p, trunc) -> str | None:
    """[x, b] must equal ``target`` exactly."""
    got = commutator(mat_clean(x, p), mat_clean(b, p), p, trunc)
    want = mat_clean(target, p)
    for i, (r, s) in enumerate(zip(got, want)):
        for j, (e, f) in enumerate(zip(r, s)):
            if e != f:
                return f"commutator entry ({i + 1},{j + 1}) is {e}, target has {f}"
    return None


# -- the graded criterion for 2x2 matrices over F_p[x_1..x_m]/m^2 -------------


def _rank_mod_p(vectors, p: int) -> int:
    rows = [list(v) for v in vectors if any(v)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _bracket2(b, c, p):
    """[b, c] of constant 2x2 matrices, flattened row-major."""
    bc = [sum(b[i][k] * c[k][j] for k in range(2)) for i in range(2) for j in range(2)]
    cb = [sum(c[i][k] * b[k][j] for k in range(2)) for i in range(2) for j in range(2)]
    return tuple((u - v) % p for u, v in zip(bc, cb))


_UNITS = [[[int((i, j) == (a, b)) for j in range(2)] for i in range(2)]
          for a in range(2) for b in range(2)]


def graded_solvable(target, p: int, nvars: int) -> bool:
    """Is the 2x2 ``target`` over F_p[x_1..x_nvars]/m^2 a commutator [B, C]?

    Write B = B0 + sum x_k B_k and C likewise. Then
    [B, C] = [B0, C0] + sum x_k ([B0, C_k] + [B_k, C0]), so a solution
    exists if and only if some constant pair has [B0, C0] = X0 and every
    linear layer X_k lies in im ad(B0) + im ad(C0). Shifting B0 or C0 by a
    scalar changes neither, so their (2,2) entries are pinned to zero.
    """
    zero = (0,) * nvars
    x0 = tuple(target[i][j].get(zero, 0) % p for i in range(2) for j in range(2))
    layers = []
    for k in range(nvars):
        e = tuple(int(t == k) for t in range(nvars))
        layers.append(tuple(target[i][j].get(e, 0) % p for i in range(2) for j in range(2)))
    consts = [((a, b), (c, 0)) for a, b, c in itertools.product(range(p), repeat=3)]
    for b0 in consts:
        image_b = [_bracket2(b0, u, p) for u in _UNITS]
        for c0 in consts:
            if _bracket2(b0, c0, p) != x0:
                continue
            span = image_b + [_bracket2(c0, u, p) for u in _UNITS]
            if _rank_mod_p(span + layers, p) == _rank_mod_p(span, p):
                return True
    return False


# -- separated sets ---------------------------------------------------------------


def check_separated(points, m: int, d: int) -> str | None:
    """Simplex membership (m coordinates, sum 2d+1) and l1 distance > 2d
    between every pair of points."""
    r = 2 * d + 1
    for pt in points:
        if len(pt) != m or any(not isinstance(c, int) or c < 0 for c in pt) or sum(pt) != r:
            return f"point {pt} is not in the sum-{r} simplex of dimension {m}"
    if len(set(map(tuple, points))) != len(points):
        return "a point repeats"
    for a, b in itertools.combinations(points, 2):
        if sum(abs(x - y) for x, y in zip(a, b)) <= 2 * d:
            return f"points {a} and {b} are within l1 distance {2 * d}"
    return None


def interior_count(m: int, d: int) -> int:
    """Points with m coordinates in [0, d] summing to 2d+1, by
    inclusion-exclusion over the coordinates that exceed d."""
    r = 2 * d + 1
    total = 0
    for k in range(m + 1):
        rest = r - k * (d + 1)
        if rest < 0:
            break
        total += (-1) ** k * math.comb(m, k) * math.comb(rest + m - 1, m - 1)
    return total


def certificate_matrix(points, n: int):
    """The certificate matrix over Z: x^{s_1..s_n} on the first row,
    x^{s_{n+1}..s_{2n-1}} below the corner of the first column, and
    -x^{s_1} in the last diagonal entry. Coefficients are plain ints."""
    rows = [[{} for _ in range(n)] for _ in range(n)]
    for j in range(n):
        rows[0][j] = {tuple(points[j]): 1}
    for i in range(1, n):
        rows[i][0] = {tuple(points[n + i - 1]): 1}
    rows[n - 1][n - 1] = {tuple(points[0]): -1}
    return rows
