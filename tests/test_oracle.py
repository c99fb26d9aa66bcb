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
    element_decode,
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
    # the number of pairs one chunk of the scan covers
    from tracezero import oracle

    targets = first_hit_targets()
    records = []
    for chunk in (2**10, 2**14, 2**20):
        monkeypatch.setattr(oracle, "_CHUNK_PAIRS", chunk)
        records.append([oracle._run_search(t.ctx, t.n, t, 2**40) for t in targets])
    assert records[0] == records[1] == records[2]


def test_invalid_certificate_rejected_before_search():
    cert = build_noncommutator(3, 0, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 2, F2)
    forged = cert.__class__(
        m=cert.m, d=cert.d, n=cert.n, field=cert.field,
        points=((1, 0, 0), (1, 0, 0), (0, 0, 1)), x=cert.x)
    with pytest.raises(ValidationFailed):
        exhaustive_noncommutator_check(forged, 2)


def test_sampled_no_witness_spot_check():
    # independently re-check a random sample of the pair space with plain
    # polynomial arithmetic: the d=0 target must differ from every sampled
    # commutator, consistent with the NoWitness verdict
    from tracezero.oracle import RingTable, _decode_matrix
    from tracezero.certificates import _certificate_matrix

    cert = build_noncommutator(3, 0, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 2, F2)
    ctx = RingCtx(F2, 3, 2)
    target = _certificate_matrix(ctx, 2, list(cert.points))
    table = RingTable(ctx)
    ntotal = table.q ** 3
    rng = random.Random(101)
    for _ in range(400):
        b = _decode_matrix(table, 2, rng.randrange(ntotal))
        c = _decode_matrix(table, 2, rng.randrange(ntotal))
        # normalization pins the bottom-right entries at zero
        assert b.entry(1, 1).is_zero() and c.entry(1, 1).is_zero()
        assert commutator(b, c) != target


def test_decode_pair_round_trip():
    # every entry decoded from a pair index encodes back to its digit, and
    # agrees with the block the scan reads
    from tracezero.oracle import RingTable, _decode_matrix, _matrices

    ctx = RingCtx(F2, 2, 2)
    table = RingTable(ctx)
    q = table.q
    ntotal = q ** 3
    positions = [(0, 0), (0, 1), (1, 0)]
    weights = [q ** 2, q, 1]
    block = _matrices(0, ntotal, q, 2)
    rng = random.Random(103)
    for _ in range(200):
        pair = divmod(rng.randrange(ntotal * ntotal), ntotal)
        for code in pair:
            m = _decode_matrix(table, 2, code)
            digits = [element_encode(ctx, table.basis, m.rows[i][j]) for (i, j) in positions]
            assert sum(d * w for d, w in zip(digits, weights)) == code
            assert [int(block[i][j][code]) for (i, j) in positions] == digits
            assert m.entry(1, 1).is_zero() and block[1][1][code] == 0


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
    # every table entry is the code of the exact sum, product or difference
    from tracezero.oracle import RingTable

    for ctx in (RingCtx(F3, 0, None), RingCtx(F2, 2, 3), RingCtx(F3, 1, 3)):
        table = RingTable(ctx)
        elems = list(enumerate_ring(ctx))
        assert len(elems) == table.q
        for t, e in enumerate(elems):
            assert element_encode(ctx, table.basis, e) == t
        for u, a in enumerate(elems):
            for v, b in enumerate(elems):
                assert element_decode(ctx, table.basis, int(table.add_t[u, v])) == a + b
                assert element_decode(ctx, table.basis, int(table.mul_t[u, v])) == a * b
                assert element_decode(ctx, table.basis, int(table.sub_t[u, v])) == a - b


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


def test_shuffled_sample_rerun_finds_nothing():
    # Soundness spot check: rescan about 1% of the normalized pair space
    # in shuffled order with independently decoded digit arrays; the
    # certificate target must stay undecomposable on the sample too.
    import numpy as np
    from tracezero.certificates import _certificate_matrix
    from tracezero.oracle import RingTable, _commutator_entry

    cert = build_noncommutator(3, 0, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 2, F2)
    ctx = RingCtx(F2, 3, 2)
    target = _certificate_matrix(ctx, 2, cert.points)
    table = RingTable(ctx)
    q = table.q
    ntotal = q ** 3
    rng = random.Random(77)
    nb = nc = 412  # 412^2 = 169744 pairs, about 1% of 4096^2
    bsel = np.array(rng.sample(range(ntotal), nb), dtype=np.int64)
    csel = np.array(rng.sample(range(ntotal), nc), dtype=np.int64)

    def digits(sel):
        # (0,0), (0,1), (1,0) from most to least significant; (1,1) pinned
        d = [(sel // w) % q for w in (q ** 2, q, 1)]
        return [[d[0], d[1]], [d[2], np.zeros_like(sel)]]

    bdig, cdig = digits(bsel), digits(csel)
    hits = np.ones((nb, nc), dtype=bool)
    for i in range(2):
        for j in range(2):
            got = _commutator_entry(table, bdig, cdig, np.s_[:, None], np.s_[None, :], i, j)
            hits &= got == element_encode(ctx, table.basis, target.rows[i][j])
    assert not hits.any()
