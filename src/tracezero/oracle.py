"""Independent brute-force checks: exhaustive commutator searches over
finite truncated rings, and the explicit rank-2 decomposition over the
quadric coordinate ring.

A finite context F_p[x_1..x_m]/(x_1..x_m)^N has q = p^B elements. Each is
encoded as the mixed-radix integer of its coefficient vector on the
graded-lex basis (constant digit least significant), turning ring
arithmetic into q x q table lookups that numpy applies to whole blocks of
candidate matrices at once.

The pair search enumerates matrices B, C with the last diagonal entries
pinned to zero. That normalization loses nothing: shifting B and C by
scalar matrices changes neither the commutator nor existence, so a
completed scan that finds nothing is a proof for the given ring. Matrices
are ordered entry-row-major with the (1,1) digit most significant, pairs
B-major; a reported witness is the first pair in that order.

The scan is one sequential pass in that order. Each chunk of B matrices
meets every C block, the (1,1) commutator entry is matched first, and
only its survivors go through the other entries. A hit ends the scan, is
decoded with the same tables, and is re-verified with exact polynomial
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import Certificate, _certificate_matrix, validate_certificate
from .errors import (
    BudgetExceeded,
    InfiniteRing,
    NoSquareRootOfMinusOne,
    ValidationFailed,
)
from .fields import Field
from .matrices import Matrix, commutator
from .polynomials import (
    RingCtx,
    basis_monomials,
    element_decode,
    element_encode,
    reduce_by_divisor,
    ring_size,
)

DEFAULT_PAIR_BUDGET = 2**34
_CHUNK_PAIRS = 2**20
_TABLE_CAP = 4096


class RingTable:
    """Lookup-table arithmetic for one finite ring context."""

    def __init__(self, ctx: RingCtx):
        if ctx.field.kind != "Fp" or (ctx.truncation is None and ctx.nvars > 0):
            raise InfiniteRing(f"{ctx} is not a finite ring")
        q = ring_size(ctx)
        if q > _TABLE_CAP:
            raise BudgetExceeded(
                f"ring has {q} elements; table search caps at {_TABLE_CAP}",
                required=q)
        self.ctx = ctx
        self.basis = basis_monomials(ctx)
        self.q = q
        p = ctx.field.p
        nb = len(self.basis)

        digits = np.zeros((q, nb), dtype=np.int64)
        tmp = np.arange(q, dtype=np.int64)
        for t in range(nb):
            digits[:, t] = tmp % p
            tmp //= p
        radix = p ** np.arange(nb, dtype=np.int64)

        pos = {mono: t for t, mono in enumerate(self.basis)}
        prod_pos = np.full((nb, nb), -1, dtype=np.int64)
        for a in range(nb):
            for b in range(nb):
                s = tuple(x + y for x, y in zip(self.basis[a], self.basis[b]))
                if ctx.truncation is None or sum(s) < ctx.truncation:
                    prod_pos[a, b] = pos[s]

        add_t = np.empty((q, q), dtype=np.int32)
        mul_t = np.empty((q, q), dtype=np.int32)
        for u in range(q):
            du = digits[u]
            add_t[u] = ((du + digits) % p) @ radix
            acc = np.zeros((q, nb), dtype=np.int64)
            for a in range(nb):
                if du[a] == 0:
                    continue
                for b in range(nb):
                    t = prod_pos[a, b]
                    if t >= 0:
                        acc[:, t] += du[a] * digits[:, b]
            mul_t[u] = (acc % p) @ radix
        neg_t = (((p - digits) % p) @ radix).astype(np.int32)

        self.add_t = add_t
        self.mul_t = mul_t
        self.sub_t = add_t[:, neg_t]


def pair_count(ctx: RingCtx, n: int) -> int:
    """Size of the normalized search space: (ring size)^(2(n^2 - 1))."""
    return ring_size(ctx) ** (2 * (n * n - 1))


@dataclass(frozen=True)
class NoWitness:
    """Proof record: the full normalized pair space was scanned."""
    pairs_checked: int
    ring_elements: int
    matrix_size: int
    prime: int


@dataclass(frozen=True)
class FoundWitness:
    """A decomposition [b, c] = target, re-verified exactly."""
    b: Matrix
    c: Matrix
    pair_index: int
    pairs_checked: int


class _Scan:
    """Shared geometry for one scan of the normalized pair space."""

    def __init__(self, table: RingTable, n: int, target: Matrix):
        self.table = table
        self.n = n
        self.q = table.q
        self.k = n * n - 1
        self.positions = [(i, j) for i in range(n) for j in range(n)
                          if (i, j) != (n - 1, n - 1)]
        self.pos_of = {ij: t for t, ij in enumerate(self.positions)}
        self.ntotal = self.q ** self.k
        self.weights = [self.q ** (self.k - 1 - t) for t in range(self.k)]
        self.target_idx = [[element_encode(table.ctx, table.basis, target.rows[i][j])
                            for j in range(n)] for i in range(n)]
        self.c_chunk = min(self.ntotal, 4096)
        self.b_chunk = min(self.ntotal, max(1, _CHUNK_PAIRS // self.ntotal))
        # Every B chunk meets the same C blocks, so decode C once; this holds
        # k * ntotal digits, and ntotal^2 is within the pair budget.
        c_digits = self.decode_block(0, self.ntotal)
        self.c_blocks = [(lo, min(lo + self.c_chunk, self.ntotal),
                          [d[lo:lo + self.c_chunk] for d in c_digits])
                         for lo in range(0, self.ntotal, self.c_chunk)]

    def decode_block(self, lo: int, hi: int) -> list[np.ndarray]:
        idx = np.arange(lo, hi, dtype=np.int64)
        return [(idx // w) % self.q for w in self.weights]

    def entry(self, decoded, i: int, j: int, sel=None):
        """Encoded values of matrix entry (i, j) for a decoded block; the
        pinned corner entry is the zero element."""
        if (i, j) == (self.n - 1, self.n - 1):
            return 0
        arr = decoded[self.pos_of[(i, j)]]
        return arr if sel is None else arr[sel]

    def commutator_entry(self, bvals, cvals, i: int, j: int, shape):
        """[B, C]_(i,j) over a block: sum_t B[i,t] C[t,j] - C[i,t] B[t,j].
        Index arrays broadcast, so bvals/cvals may be column/row shaped."""
        mul_t, add_t, sub_t = self.table.mul_t, self.table.add_t, self.table.sub_t
        acc = None
        for t in range(self.n):
            if i == j == t:
                continue  # the diagonal term cancels identically
            term = sub_t[mul_t[bvals(i, t), cvals(t, j)],
                         mul_t[cvals(i, t), bvals(t, j)]]
            acc = term if acc is None else add_t[acc, term]
        if acc is None:
            acc = np.zeros(shape, dtype=np.int32)
        return acc


def _scan_pairs(scan: _Scan):
    """Scan the normalized pair space in order, B-major.

    Returns (first (b, c) pair whose commutator is the target, or None;
    pairs scanned). The scan finishes the b-chunk containing a hit, so the
    reported pair is the first in enumeration order.
    """
    ntotal = scan.ntotal
    pairs = 0
    for b in range(0, ntotal, scan.b_chunk):
        b_end = min(b + scan.b_chunk, ntotal)
        bd = scan.decode_block(b, b_end)
        chunk_hits = []
        for c_lo, c_hi, cd in scan.c_blocks:

            def bgrid(i, j):
                v = scan.entry(bd, i, j)
                return v if isinstance(v, int) else v[:, None]

            def cgrid(i, j):
                v = scan.entry(cd, i, j)
                return v if isinstance(v, int) else v[None, :]

            grid = scan.commutator_entry(bgrid, cgrid, 0, 0,
                                         (b_end - b, c_hi - c_lo))
            sb, sc = np.nonzero(grid == scan.target_idx[0][0])
            if sb.size:
                hit = _full_check(scan, bd, cd, sb, sc)
                if hit is not None:
                    chunk_hits.append((b + hit[0], c_lo + hit[1]))
        pairs += (b_end - b) * ntotal
        if chunk_hits:
            return min(chunk_hits), pairs
    return None, pairs


def _full_check(scan: _Scan, bd, cd, sb, sc):
    """Exact check of the remaining commutator entries on the pairs whose
    (0,0) entry matches; returns the first surviving local (b, c) or None."""
    n = scan.n
    for i in range(n):
        for j in range(n):
            if i == 0 and j == 0:
                continue
            bvals = lambda a, t: scan.entry(bd, a, t, sb)
            cvals = lambda a, t: scan.entry(cd, a, t, sc)
            vals = scan.commutator_entry(bvals, cvals, i, j, sb.shape)
            keep = vals == scan.target_idx[i][j]
            if not keep.any():
                return None
            if not keep.all():
                sb, sc = sb[keep], sc[keep]
    return int(sb[0]), int(sc[0])


def _decode_pair(scan: _Scan, pair):
    b_idx, c_idx = pair
    n = scan.n
    table = scan.table

    def decode_matrix(idx):
        rows = [[table.ctx.zero() for _ in range(n)] for _ in range(n)]
        for t, (i, j) in enumerate(scan.positions):
            digit = (idx // scan.weights[t]) % scan.q
            rows[i][j] = element_decode(table.ctx, table.basis, digit)
        return Matrix(table.ctx, rows)

    return decode_matrix(b_idx), decode_matrix(c_idx)


def _run_search(ctx: RingCtx, n: int, target: Matrix, budget: int):
    """Scan the whole normalized pair space for [B, C] = target.

    Returns (FoundWitness or None, pairs scanned). A found pair is decoded
    and re-verified with exact polynomial arithmetic.
    """
    total = pair_count(ctx, n)  # raises InfiniteRing for infinite rings
    if total > budget:
        raise BudgetExceeded(
            f"search needs {total} pairs, budget is {budget}", required=total)
    scan = _Scan(RingTable(ctx), n, target)
    found, pairs = _scan_pairs(scan)
    if found is None:
        return None, pairs
    b, c = _decode_pair(scan, found)
    if commutator(b, c) != target:
        raise RuntimeError(f"oracle pair {found} does not decompose the target")
    return FoundWitness(b=b, c=c, pair_index=found[0] * scan.ntotal + found[1],
                        pairs_checked=pairs), pairs


def exhaustive_commutator_search(a: Matrix, budget: int = DEFAULT_PAIR_BUDGET):
    """First (B, C) in enumeration order with [B, C] = a, or None after a
    complete scan. Searches the normalized space (last diagonal entries
    zero), which preserves existence exactly.
    """
    found, _pairs = _run_search(a.ctx, a.n, a, budget)
    return None if found is None else (found.b, found.c)


def exhaustive_noncommutator_check(cert: Certificate, p: int,
                                   budget: int = DEFAULT_PAIR_BUDGET):
    """Check a certificate the hard way over F_p: scan every normalized
    pair in F_p[x_1..x_m]/(x_1..x_m)^(3d+2) for a decomposition of the
    certificate matrix.

    NoWitness is a proof that no decomposition exists in that quotient,
    which is what the certificate claims there; FoundWitness means the
    certificate is falsified for this p, and carries the re-verified pair.
    """
    report = validate_certificate(cert)
    if not report.ok:
        raise ValidationFailed(
            "; ".join(f"{c.name}: {c.detail}" for c in report.failures()))
    field = Field.prime(p)
    ctx = RingCtx(field, cert.m, 3 * cert.d + 2)
    target = _certificate_matrix(ctx, cert.n, cert.points)
    found, pairs = _run_search(ctx, cert.n, target, budget)
    if found is not None:
        return found
    return NoWitness(pairs_checked=pairs, ring_elements=ring_size(ctx),
                     matrix_size=cert.n, prime=p)


def quadric_decomposition_check(p: int, i: int | None = None) -> bool:
    """Verify the explicit 2x2 decomposition over F_p[x,y,z] modulo the
    quadric x^2 + y^2 + z^2 - 1, for a prime p where -1 is a square.

    ``i`` may pick the square root of -1 explicitly; by default the
    smallest one is used. Reduction is by the single quadric divisor in
    graded-lex order.
    """
    field = Field.prime(p)
    if i is None:
        i = next((v for v in range(1, p) if v * v % p == p - 1), None)
        if i is None:
            raise NoSquareRootOfMinusOne(f"-1 is not a square modulo {p}")
    else:
        i = i % p
        if i * i % p != p - 1:
            raise NoSquareRootOfMinusOne(f"{i}^2 != -1 modulo {p}")

    ctx = RingCtx(field, 3, None)
    x, y, z = ctx.gens()
    ii = ctx.constant(i)
    a = Matrix.from_rows(ctx, [[x, y], [z, -x]])
    b = Matrix.from_rows(ctx, [
        [ctx.one() + ii * x * (ii * x - y), -(x * z)],
        [x * (ii * x - y), ctx.zero()],
    ])
    c = Matrix.from_rows(ctx, [
        [-(ii * z), ii * x + y],
        [-z, ctx.zero()],
    ])
    quadric = x * x + y * y + z * z - ctx.one()
    diff = commutator(b, c) - a
    return all(
        reduce_by_divisor(diff.rows[r][s], quadric).is_zero()
        for r in range(2) for s in range(2)
    )
