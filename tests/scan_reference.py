"""Reference pair scan for the oracle, and the tests of its internals.

``reference_search`` settles [B, C] = target by scanning every pair of
the normalized pair space in order, with q x q lookup tables of the
``Poly`` sums, products and differences of all ring elements. It shares
no arithmetic with the oracle's solver, which eliminates mod p per B, so
the two are compared on every ring where the scan finishes in seconds.

Matrices are ordered entry-row-major with the (1,1) digit most
significant and the last diagonal entry pinned at zero; pairs are
B-major. A block of matrices is an n x n nest of code arrays; C is
decoded whole once, and each chunk of B matrices meets all of it. The
(1,1) commutator entry is matched on the chunk-by-C grid first, and only
its survivors go through the other entries.
"""

from __future__ import annotations

import operator
import random

import numpy as np

from tracezero.certificates import _certificate_matrix, build_noncommutator
from tracezero.errors import BudgetExceeded
from tracezero.fields import Field
from tracezero.matrices import Matrix, commutator
from tracezero.oracle import FoundWitness, NoWitness, RingTable, _decode_matrix, _matrices
from tracezero.polynomials import (
    RingCtx,
    basis_monomials,
    element_decode,
    element_encode,
    enumerate_ring,
    ring_size,
)

CHUNK_PAIRS = 2**17
F2 = Field.prime(2)


class ScanTable:
    """The codes of the ``Poly`` sums, products and differences of every
    pair of elements of one finite ring context."""

    def __init__(self, ctx: RingCtx):
        self.ctx = ctx
        self.basis = basis_monomials(ctx)
        elems = list(enumerate_ring(ctx))
        self.q = len(elems)
        self.add_t, self.mul_t = (
            np.array([[element_encode(ctx, self.basis, op(u, v)) for v in elems]
                      for u in elems], dtype=np.int32)
            for op in (operator.add, operator.mul))
        neg = [element_encode(ctx, self.basis, -u) for u in elems]
        self.sub_t = self.add_t[:, neg]


def commutator_entry(table: ScanTable, b, c, bsel, csel, i: int, j: int):
    """Codes of [B, C]_(i,j) = sum_t B[i,t] C[t,j] - C[i,t] B[t,j], with
    every B entry array indexed by ``bsel`` and every C one by ``csel``;
    the results broadcast."""
    mul_t, add_t, sub_t = table.mul_t, table.add_t, table.sub_t
    n = len(b)
    acc = None
    for t in range(n):
        if i == j == t and n > 1:
            continue  # cancels identically; a 1 x 1 keeps it as its zero
        term = sub_t[mul_t[b[i][t][bsel], c[t][j][csel]],
                     mul_t[c[i][t][csel], b[t][j][bsel]]]
        acc = term if acc is None else add_t[acc, term]
    return acc


def scan_pairs(table: ScanTable, n: int, target: Matrix):
    """The first (b, c) index pair whose commutator is the target, or None.

    Each chunk of B matrices meets all of C; the nonzero positions and the
    filters keep row-major order, so the first survivor of a chunk is its
    first pair in enumeration order.
    """
    q = table.q
    ntotal = q ** (n * n - 1)
    want = [[element_encode(table.ctx, table.basis, e) for e in row]
            for row in target.rows]
    rest = [(i, j) for i in range(n) for j in range(n)][1:]
    c = _matrices(0, ntotal, q, n)
    step = max(1, CHUNK_PAIRS // ntotal)
    for lo in range(0, ntotal, step):
        b = _matrices(lo, min(lo + step, ntotal), q, n)
        grid = commutator_entry(table, b, c, np.s_[:, None], np.s_[None, :], 0, 0)
        sb, sc = np.nonzero(grid == want[0][0])
        for i, j in rest:
            if not sb.size:
                break
            keep = commutator_entry(table, b, c, sb, sc, i, j) == want[i][j]
            sb, sc = sb[keep], sc[keep]
        if sb.size:
            return lo + int(sb[0]), int(sc[0])
    return None


def reference_search(ctx: RingCtx, n: int, target: Matrix, budget: int):
    """The oracle's record for [B, C] = target, from the full pair scan:
    a FoundWitness for the first pair, a NoWitness after a complete scan,
    or BudgetExceeded with the pair count when it is over ``budget``."""
    q = ring_size(ctx)
    total = q ** (2 * (n * n - 1))
    if total > budget:
        raise BudgetExceeded(f"{total} pairs", required=total)
    table = ScanTable(ctx)
    found = scan_pairs(table, n, target)
    if found is None:
        return NoWitness(pairs_checked=total, ring_elements=q,
                         matrix_size=n, prime=ctx.field.p)
    elems = list(enumerate_ring(ctx))
    k = n * n - 1

    def decode(idx):
        flat = [elems[idx // q ** (k - 1 - t) % q] for t in range(k)] + [ctx.zero()]
        return Matrix.from_rows(ctx, [flat[i * n:(i + 1) * n] for i in range(n)])

    b, c = decode(found[0]), decode(found[1])
    pair_index = found[0] * q ** k + found[1]
    return FoundWitness(b=b, c=c, pair_index=pair_index, pairs_checked=pair_index + 1)


def d0_target():
    cert = build_noncommutator(3, 0, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 2, F2)
    return _certificate_matrix(RingCtx(F2, 3, 2), 2, list(cert.points))


def test_scan_tables_match_polynomial_arithmetic():
    # every table entry is the code of the exact sum, product or difference
    for ctx in (RingCtx(Field.prime(3), 0, None), RingCtx(F2, 2, 3),
                RingCtx(Field.prime(3), 1, 3)):
        table = ScanTable(ctx)
        elems = list(enumerate_ring(ctx))
        for t, e in enumerate(elems):
            assert element_encode(ctx, table.basis, e) == t
        for u, a in enumerate(elems):
            for v, b in enumerate(elems):
                assert element_decode(ctx, table.basis, int(table.add_t[u, v])) == a + b
                assert element_decode(ctx, table.basis, int(table.mul_t[u, v])) == a * b
                assert element_decode(ctx, table.basis, int(table.sub_t[u, v])) == a - b


def test_sampled_no_witness_spot_check():
    # independently re-check a random sample of the pair space with plain
    # polynomial arithmetic: the d=0 target must differ from every sampled
    # commutator, consistent with the NoWitness verdict
    target = d0_target()
    table = RingTable(target.ctx)
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
    # agrees with the block the oracle reads
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


def test_shuffled_sample_rerun_finds_nothing():
    # Soundness spot check: rescan about 1% of the normalized pair space
    # in shuffled order with independently decoded digit arrays; the
    # certificate target must stay undecomposable on the sample too.
    target = d0_target()
    ctx = target.ctx
    table = ScanTable(ctx)
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
            got = commutator_entry(table, bdig, cdig, np.s_[:, None], np.s_[None, :], i, j)
            hits &= got == element_encode(ctx, table.basis, target.rows[i][j])
    assert not hits.any()
