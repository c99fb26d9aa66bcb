"""Exhaustive search oracle tests.

The key soundness check runs an independent, unoptimized full search
(no corner normalization, no numpy, plain polynomial arithmetic) over tiny
parameter sets and compares existence answers with the fast path.
"""

import itertools
import random

import pytest

from tracezero.errors import BudgetExceeded, NoSquareRootOfMinusOne, ValidationFailed
from tracezero.certificates import build_noncommutator
from tracezero.fields import Field
from tracezero.matrices import Matrix, commutator
from tracezero.oracle import (
    FoundWitness,
    NoWitness,
    exhaustive_commutator_search,
    _bounded_power,
    exhaustive_noncommutator_check,
    quadric_decomposition_check,
)
from tracezero.polynomials import (
    RingCtx,
    element_encode,
    enumerate_ring,
    ring_size,
)

F2 = Field.prime(2)
F3 = Field.prime(3)


def plain_full_search(a):
    """Reference search over ALL pairs, no normalization, no tables."""
    ctx = a.ctx
    n = a.n
    elems = list(enumerate_ring(ctx))
    cells = n * n
    for b_flat in itertools.product(elems, repeat=cells):
        b = Matrix.from_rows(ctx, [list(b_flat[i * n:(i + 1) * n]) for i in range(n)])
        for c_flat in itertools.product(elems, repeat=cells):
            c = Matrix.from_rows(ctx, [list(c_flat[i * n:(i + 1) * n]) for i in range(n)])
            if commutator(b, c) == a:
                return b, c
    return None


def test_zero_matrix_first_pair():
    # the zero matrix is [0,0]; enumeration starts at the all-zero pair
    ctx = RingCtx(F2, 0, None)
    a = Matrix.zeros(ctx, 2)
    res = exhaustive_commutator_search(a)
    assert res is not None
    b, c = res
    assert b.is_zero() and c.is_zero()


def test_normalized_search_agrees_with_full_search():
    # scalar 2x2 matrices over F_2 and F_3: compare existence against the
    # plain search on every trace-zero target
    for field in (F2, F3):
        ctx = RingCtx(field, 0, None)
        p = field.p
        targets = []
        for a11 in range(p):
            for a12 in range(p):
                for a21 in range(p):
                    a22 = (-a11) % p
                    targets.append(Matrix.from_rows(
                        ctx, [[a11, a12], [a21, a22]]))
        for a in targets:
            fast = exhaustive_commutator_search(a)
            slow = plain_full_search(a)
            assert (fast is None) == (slow is None), a.rows
            if fast is not None:
                b, c = fast
                assert commutator(b, c) == a


def test_every_scalar_trace_zero_2x2_is_a_commutator():
    # over a field every trace-zero matrix is a commutator, so the oracle
    # must find witnesses for all of them
    ctx = RingCtx(F3, 0, None)
    for a11 in range(3):
        for a12 in range(3):
            for a21 in range(3):
                a = Matrix.from_rows(ctx, [[a11, a12], [a21, (-a11) % 3]])
                assert exhaustive_commutator_search(a) is not None


def test_pair_count_accounting():
    # (ring size)^(2(n^2 - 1)) pairs for n x n matrices
    ctx = RingCtx(F2, 3, 2)
    assert ring_size(ctx) == 16
    assert _bounded_power(ctx, 6, 2**64, "pairs") == 16 ** 6
    ctx3 = RingCtx(F3, 0, None)
    assert _bounded_power(ctx3, 6, 2**64, "pairs") == 3 ** 6
    assert _bounded_power(ctx3, 16, 2**64, "pairs") == 3 ** 16


def test_d0_certificate_no_witness():
    cert = build_noncommutator(3, 0, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 2, F2)
    res = exhaustive_noncommutator_check(cert, 2)
    assert isinstance(res, NoWitness)
    assert res.pairs_checked == 16 ** 6
    assert res.ring_elements == 16
    assert res.prime == 2
    assert res.matrix_size == 2


def test_hollow_control_finds_witness():
    # the hollow matrix with generator entries is a commutator, so the same
    # machinery must produce a verified witness
    ctx = RingCtx(F2, 3, 2)
    x, y, _ = ctx.gens()
    zero = ctx.zero()
    a = Matrix.from_rows(ctx, [[zero, x], [y, zero]])
    res = exhaustive_commutator_search(a)
    assert res is not None
    b, c = res
    assert commutator(b, c) == a


def reference_first_pair(a):
    """First (pair_index, b, c) of the normalized scan, walked in plain
    Python: entries row-major with the (1,1) digit most significant, the
    last diagonal entry pinned at zero, pairs B-major."""
    ctx, n = a.ctx, a.n
    elems = list(enumerate_ring(ctx))

    def as_matrix(digits):
        flat = list(digits) + [ctx.zero()]
        return Matrix.from_rows(ctx, [flat[i * n:(i + 1) * n] for i in range(n)])

    mats = [as_matrix(d) for d in itertools.product(elems, repeat=n * n - 1)]
    for bi, b in enumerate(mats):
        for ci, c in enumerate(mats):
            if commutator(b, c) == a:
                return bi * len(mats) + ci, b, c
    return None


def first_hit_targets():
    """Random commutator targets over small rings, and one scalar 3x3 over
    F_3 whose first hit, pair (3, 5364), lies beyond column 4096 of its B
    row: each matrix row of that pair space holds 3^8 = 6561 matrices."""
    targets = []
    rng = random.Random(131)
    for p, nvars, trunc, n, count in [(2, 0, None, 2, 6), (3, 0, None, 2, 6),
                                      (2, 1, 2, 2, 6), (3, 0, None, 1, 1),
                                      (3, 1, 2, 1, 1)]:
        ctx = RingCtx(Field.prime(p), nvars, trunc)
        elems = list(enumerate_ring(ctx))
        for _ in range(count):
            b, c = (Matrix.from_rows(ctx, [[rng.choice(elems) for _ in range(n)]
                                           for _ in range(n)]) for _ in range(2))
            targets.append(commutator(b, c))
    ctx = RingCtx(F3, 0, None)
    b = Matrix.from_rows(ctx, [[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    c = Matrix.from_rows(ctx, [[2, 1, 1], [0, 2, 2], [1, 0, 0]])
    targets.append(commutator(b, c))
    return targets


def test_found_witness_reports_pair_index():
    from tracezero.oracle import _run_search

    for target in first_hit_targets():
        want = reference_first_pair(target)
        found = _run_search(target.ctx, target.n, target, 2**40)
        assert want is not None and found is not None
        assert (found.pair_index, found.b, found.c) == want
        assert found.pairs_checked == found.pair_index + 1
    assert found.pair_index == 3 * 6561 + 5364


def test_found_witness_does_not_depend_on_chunk_size(monkeypatch):
    # the record of a hit, pairs_checked included, is the same whatever
    # the number of B matrices one batch of the solver covers
    from tracezero import oracle

    targets = first_hit_targets()
    records = []
    for chunk in (1, 2**6, 2**12):
        monkeypatch.setattr(oracle, "_CHUNK_MATRICES", chunk)
        records.append([oracle._run_search(t.ctx, t.n, t, 2**40) for t in targets])
    assert records[0] == records[1] == records[2]


def test_invalid_certificate_rejected_before_search():
    cert = build_noncommutator(3, 0, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 2, F2)
    forged = cert.__class__(
        m=cert.m, d=cert.d, n=cert.n, field=cert.field,
        points=((1, 0, 0), (1, 0, 0), (0, 0, 1)), x=cert.x)
    with pytest.raises(ValidationFailed):
        exhaustive_noncommutator_check(forged, 2)


def test_found_witness_builds_one_table(monkeypatch):
    # a found pair is decoded with the tables of the scan that found it
    from tracezero import oracle

    builds = []
    real_init = oracle.RingTable.__init__

    def counting_init(self, ctx):
        builds.append(ctx)
        real_init(self, ctx)

    monkeypatch.setattr(oracle.RingTable, "__init__", counting_init)
    ctx = RingCtx(F2, 3, 2)
    x, y, _ = ctx.gens()
    zero = ctx.zero()
    a = Matrix.from_rows(ctx, [[zero, x], [y, zero]])
    assert exhaustive_commutator_search(a) is not None
    assert len(builds) == 1


def test_budget_guard_precedes_work():
    cert = build_noncommutator(3, 0, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 2, F2)
    with pytest.raises(BudgetExceeded) as info:
        exhaustive_noncommutator_check(cert, 2, budget=1000)
    assert info.value.required == 16 ** 6


def test_table_cap_precedes_table_build(monkeypatch):
    # a 1x1 search has a single pair, but its ring of 2^9 elements is past
    # the table cap; the cap is checked before any element is enumerated
    from tracezero import oracle

    def no_enumeration(ctx):
        raise AssertionError("ring enumerated past the table cap")

    monkeypatch.setattr(oracle, "enumerate_ring", no_enumeration)
    ctx = RingCtx(F2, 8, 2)
    with pytest.raises(BudgetExceeded) as info:
        exhaustive_commutator_search(Matrix.zeros(ctx, 1))
    assert info.value.required == 512


def test_table_cap_on_a_huge_ring_forms_no_power():
    # 2^C(46,12) elements, a 4.7 GB integer: the cap is decided on the
    # exponent, so the search fails fast and reports no required count
    ctx = RingCtx(F2, 12, 35)
    with pytest.raises(BudgetExceeded) as info:
        exhaustive_commutator_search(Matrix.zeros(ctx, 1))
    assert info.value.required is None
    assert "search needs 2^38910617655 table elements" in str(info.value)


def test_table_matches_polynomial_arithmetic():
    # mul[u] maps the digits of v to the digits of the exact product u * v
    import numpy as np
    from tracezero.oracle import RingTable

    for ctx in (RingCtx(F3, 0, None), RingCtx(F2, 2, 3), RingCtx(F3, 1, 3)):
        table = RingTable(ctx)
        elems = list(enumerate_ring(ctx))
        p, dim = ctx.field.p, len(table.basis)
        assert len(elems) == table.q and table.mul.shape == (table.q, dim, dim)

        def digits(e):
            code = element_encode(ctx, table.basis, e)
            return np.array([code // p ** r % p for r in range(dim)])

        for u, a in enumerate(elems):
            for b in elems:
                assert (table.mul[u] @ digits(b) % p == digits(a * b)).all()


def test_quadric_decomposition():
    assert quadric_decomposition_check(5, 2)
    assert quadric_decomposition_check(5, 3)
    assert quadric_decomposition_check(13, 5)
    # automatic root finding
    assert quadric_decomposition_check(5)
    assert quadric_decomposition_check(13)
    assert quadric_decomposition_check(17)
    # char 2: 1 is its own negative, so i = 1 works
    assert quadric_decomposition_check(2)
    assert quadric_decomposition_check(2, 1)


def test_quadric_needs_square_root_of_minus_one():
    # p = 3 mod 4 has no square root of -1
    with pytest.raises(NoSquareRootOfMinusOne):
        quadric_decomposition_check(7)
    with pytest.raises(NoSquareRootOfMinusOne):
        quadric_decomposition_check(5, 1)


def test_search_agrees_with_triangular_witness():
    # Every upper triangular trace-zero 2x2 over F_2[x]/m^2 decomposes;
    # the search and the direct construction must agree on that (witnesses
    # themselves are non-unique, so compare products, not pairs).
    from tracezero.witnesses import triangular_witness
    ctx = RingCtx(F2, 1, 2)
    elems = list(enumerate_ring(ctx))
    for a00 in elems:
        for a01 in elems:
            target = Matrix.from_rows(ctx, [[a00, a01], [ctx.zero(), a00]])
            pair = triangular_witness(target)
            assert commutator(pair.x, pair.b) == target
            res = exhaustive_commutator_search(target)
            assert res is not None
            b, c = res
            assert commutator(b, c) == target


def test_nonzero_trace_has_no_decomposition():
    # trace([[1,0],[0,0]]) = 1 over F_2; commutators all have trace zero,
    # and the full scan confirms nothing decomposes it.
    ctx = RingCtx(F2, 0, None)
    a = Matrix.from_rows(ctx, [[1, 0], [0, 0]])
    assert exhaustive_commutator_search(a) is None


# -- the solver against the reference scan and the graded m^2 criterion --------

# (p, nvars, truncation, n): every ring the reference scan settles in seconds
AGREEMENT_RINGS = [(2, 0, None, 2), (3, 0, None, 2), (5, 0, None, 2),
                   (2, 1, 2, 2), (3, 1, 2, 2), (2, 2, 2, 2),
                   (2, 0, None, 3), (3, 0, None, 3), (3, 1, 2, 1)]


def random_matrix(rng, ctx, elems, n, trace=None):
    """A random n x n matrix, with its last diagonal entry set so that its
    trace is the ring element ``trace`` unless that is None."""
    rows = [[rng.choice(elems) for _ in range(n)] for _ in range(n)]
    if trace is not None:
        rows[-1][-1] = trace - sum((rows[i][i] for i in range(n - 1)), ctx.zero())
    return Matrix.from_rows(ctx, rows)


@pytest.mark.parametrize("p, nvars, trunc, n", AGREEMENT_RINGS)
def test_solver_agrees_with_reference_scan(p, nvars, trunc, n):
    # the whole record (verdict, pair_index, pairs_checked, B, C) matches
    # the full table scan on commutators of random pairs, on random
    # trace-zero targets and on one of trace 1, which nothing decomposes;
    # the pair count a budget refusal requires matches too
    from scan_reference import reference_search
    from tracezero.oracle import DEFAULT_PAIR_BUDGET, _run_search

    ctx = RingCtx(Field.prime(p), nvars, trunc)
    elems = list(enumerate_ring(ctx))
    rng = random.Random(1000 * p + 10 * nvars + n)
    targets = [commutator(random_matrix(rng, ctx, elems, n), random_matrix(rng, ctx, elems, n))
               for _ in range(3)]
    targets += [random_matrix(rng, ctx, elems, n, trace=ctx.zero()) for _ in range(3)]
    targets.append(random_matrix(rng, ctx, elems, n, trace=ctx.one()))
    for target in targets:
        assert (_run_search(ctx, n, target, DEFAULT_PAIR_BUDGET)
                == reference_search(ctx, n, target, DEFAULT_PAIR_BUDGET))
    total = ring_size(ctx) ** (2 * (n * n - 1))
    for search in (_run_search, reference_search):
        with pytest.raises(BudgetExceeded) as info:
            search(ctx, n, targets[0], total - 1)
        assert info.value.required == total


@pytest.mark.parametrize("order", list(itertools.permutations([(1, 0, 0), (0, 1, 0), (0, 0, 1)])))
def test_d0_certificate_agrees_with_reference_scan(order):
    from scan_reference import reference_search
    from tracezero.certificates import _certificate_matrix

    cert = build_noncommutator(3, 0, list(order), 2, F2)
    target = _certificate_matrix(RingCtx(F2, 3, 2), 2, list(order))
    got = exhaustive_noncommutator_check(cert, 2)
    assert isinstance(got, NoWitness)
    assert got == reference_search(target.ctx, 2, target, 2**34)


def graded_m2_solvable(target) -> bool:
    """Whether [B, C] = X has a 2x2 solution over F_p[x_1..x_m]/m^2, by
    the graded criterion in plain Python: write X = X0 + sum_k x_k X_k;
    a solution exists iff some constant pair has [B0, C0] = X0 and every
    X_k lies in im ad(B0) + im ad(C0). Constant pairs are normalized like
    the oracle's (last diagonal entries 0): a scalar shift changes neither
    the commutator nor the images."""
    ctx = target.ctx
    p, m = ctx.field.p, ctx.nvars

    def layer(mono):
        return [target.rows[i][j].terms.get(mono, 0) for i in range(2) for j in range(2)]

    def comm(b, c):  # flat row-major 2x2 matrices
        def prod(u, v):
            return [u[0] * v[0] + u[1] * v[2], u[0] * v[1] + u[1] * v[3],
                    u[2] * v[0] + u[3] * v[2], u[2] * v[1] + u[3] * v[3]]
        return [(s - t) % p for s, t in zip(prod(b, c), prod(c, b))]

    def rank(vectors):
        rows, r = [list(v) for v in vectors], 0
        for col in range(4):
            piv = next((i for i in range(r, len(rows)) if rows[i][col] % p), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = pow(rows[r][col], -1, p)
            rows[r] = [v * inv % p for v in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][col]:
                    f = rows[i][col]
                    rows[i] = [(v - f * w) % p for v, w in zip(rows[i], rows[r])]
            r += 1
        return r

    x0 = layer((0,) * m)
    xs = [layer(tuple(int(t == k) for t in range(m))) for k in range(m)]
    units = [[int(t == s) for t in range(4)] for s in range(4)]
    consts = [[a, b, c, 0] for a in range(p) for b in range(p) for c in range(p)]
    for b0 in consts:
        for c0 in consts:
            if comm(b0, c0) != x0:
                continue
            span = [comm(b0, u) for u in units] + [comm(c0, u) for u in units]
            r = rank(span)
            if all(rank(span + [xk]) == r for xk in xs):
                return True
    return False


@pytest.mark.parametrize("p, nvars", [(3, 2), (5, 1)])
def test_solver_past_the_scan_agrees_with_graded_criterion(p, nvars):
    # 2x2 over F_3[x1,x2]/m^2 (27^3 B matrices) and F_5[x1]/m^2 (25^3):
    # inside the default budget, but some 10 s a scan. Commutators of
    # random pairs and random trace-zero targets decompose (with fewer
    # than three variables every trace-zero 2x2 does); random targets of
    # nonzero trace do not, whether that trace is constant or nilpotent
    ctx = RingCtx(Field.prime(p), nvars, 2)
    elems = list(enumerate_ring(ctx))
    rng = random.Random(17 * p + nvars)
    targets = [commutator(random_matrix(rng, ctx, elems, 2), random_matrix(rng, ctx, elems, 2))
               for _ in range(3)]
    targets += [random_matrix(rng, ctx, elems, 2, trace=ctx.zero()) for _ in range(2)]
    targets += [random_matrix(rng, ctx, elems, 2, trace=rng.choice(elems[1:])) for _ in range(3)]
    verdicts = [graded_m2_solvable(t) for t in targets]
    assert verdicts == [True] * 5 + [False] * 3
    for target, solvable in zip(targets, verdicts):
        assert (exhaustive_commutator_search(target) is not None) == solvable
