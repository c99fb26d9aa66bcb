"""Independent brute-force checks: exhaustive commutator searches over
finite truncated rings, and the explicit rank-2 decomposition over the
quadric coordinate ring.

A finite context F_p[x_1..x_m]/(x_1..x_m)^N has q = p^B elements, coded
by ``element_encode``. ``RingTable`` holds the codes of the ``Poly`` sums,
products and differences of all pairs of them, for at most 256 elements
(the build takes about 2 s there), so the scan computes in the package's
own arithmetic, as q x q lookups numpy applies to whole matrix blocks.
The table cap and the pair budget are both limits on a power q^k = p^e,
and one rule decides them on e, before any power that large is formed.

The pair search enumerates matrices B, C with the last diagonal entries
pinned to zero. That normalization loses nothing: shifting B and C by
scalar matrices changes neither the commutator nor existence, so a
completed scan that finds nothing is a proof for the given ring. Matrices
are ordered entry-row-major with the (1,1) digit most significant, pairs
B-major; a reported witness is the first pair in that order.

The scan is one sequential pass in that order. A block of matrices is an
n x n nest of code arrays; C is decoded whole once, and each chunk of B
matrices meets all of it. The (1,1) commutator entry is matched on the
chunk-by-C grid first, and only its survivors go through the other
entries. A hit ends the scan, which reports its index plus one as pairs
checked; it is decoded with the same tables and re-verified with exact
polynomial arithmetic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .certificates import Certificate, _certificate_matrix, validate_certificate
from .errors import (
    BudgetExceeded,
    InfiniteRing,
    NoSquareRootOfMinusOne,
    ValidationFailed,
    int_text,
)
from .fields import Field
from .matrices import Matrix, commutator
from .polynomials import (
    RingCtx,
    basis_monomials,
    basis_size,
    element_decode,
    element_encode,
    enumerate_ring,
    reduce_by_divisor,
)

DEFAULT_PAIR_BUDGET = 2**34
_CHUNK_PAIRS = 2**17
_TABLE_CAP = 256


def _bounded_power(ctx: RingCtx, k: int, limit: int, noun: str) -> int:
    """(ring size)^k = p^e, or BudgetExceeded past ``limit``, with
    ``required`` the count, or None if it was never formed. For a b-bit p,
    2^(e(b-1)) <= p^e < 2^(eb): p^e is over the limit once e(b-1) reaches
    max(64, bits(limit)), and cheap to form before."""
    if ctx.field.kind != "Fp":
        raise InfiniteRing(f"{ctx} has an infinite coefficient field")
    p, e = ctx.field.p, basis_size(ctx) * k
    big = e * (p.bit_length() - 1) >= max(64, limit.bit_length())
    total = None if big else p ** e
    if total is None or total > limit:
        raise BudgetExceeded(f"search needs {p}^{int_text(e)} {noun}, "
                             f"budget is {int_text(limit)}", required=total)
    return total


class RingTable:
    """Lookup-table arithmetic for one finite ring context: the codes of
    the ``Poly`` sums, products and differences of every pair of elements."""

    def __init__(self, ctx: RingCtx):
        self.q = _bounded_power(ctx, 1, _TABLE_CAP, "table elements")
        self.ctx = ctx
        self.basis = basis_monomials(ctx)
        elems = list(enumerate_ring(ctx))
        self.add_t, self.mul_t = (
            np.array([[element_encode(ctx, self.basis, op(u, v)) for v in elems]
                      for u in elems], dtype=np.int32)
            for op in (operator.add, operator.mul))
        neg = [element_encode(ctx, self.basis, -u) for u in elems]
        self.sub_t = self.add_t[:, neg]


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


def _matrices(lo: int, hi: int, q: int, n: int) -> list[list[np.ndarray]]:
    """Matrices lo..hi-1 of the enumeration as an n x n nest of arrays of
    ring-element codes: the (1,1) digit most significant, the pinned
    corner zero."""
    idx = np.arange(lo, hi, dtype=np.int64)
    k = n * n - 1
    codes = [(idx // q ** (k - 1 - t)) % q for t in range(k)]
    codes.append(np.zeros_like(idx))
    return [codes[i * n:(i + 1) * n] for i in range(n)]


def _commutator_entry(table: RingTable, b, c, bsel, csel, i: int, j: int):
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


def _scan_pairs(table: RingTable, n: int, target: Matrix):
    """Scan the normalized pair space in order, B-major.

    Returns the first (b, c) index pair whose commutator is the target, or
    None. Each chunk of B matrices meets all of C; the nonzero positions
    and the filters keep row-major order, so the first survivor of a chunk
    is its first pair in enumeration order.
    """
    q = table.q
    ntotal = q ** (n * n - 1)
    want = [[element_encode(table.ctx, table.basis, e) for e in row]
            for row in target.rows]
    rest = [(i, j) for i in range(n) for j in range(n)][1:]
    c = _matrices(0, ntotal, q, n)
    step = max(1, _CHUNK_PAIRS // ntotal)
    for lo in range(0, ntotal, step):
        b = _matrices(lo, min(lo + step, ntotal), q, n)
        grid = _commutator_entry(table, b, c, np.s_[:, None], np.s_[None, :], 0, 0)
        sb, sc = np.nonzero(grid == want[0][0])
        for i, j in rest:
            if not sb.size:
                break
            keep = _commutator_entry(table, b, c, sb, sc, i, j) == want[i][j]
            sb, sc = sb[keep], sc[keep]
        if sb.size:
            return lo + int(sb[0]), int(sc[0])
    return None


def _decode_matrix(table: RingTable, n: int, idx: int) -> Matrix:
    """Matrix number ``idx`` of the enumeration, as ring elements."""
    ctx = table.ctx
    return Matrix(ctx, [[element_decode(ctx, table.basis, int(e[0])) for e in row]
                        for row in _matrices(idx, idx + 1, table.q, n)])


def _run_search(ctx: RingCtx, n: int, target: Matrix, budget: int):
    """Scan the whole normalized pair space for [B, C] = target.

    Returns a FoundWitness, decoded and re-verified with exact polynomial
    arithmetic, or a NoWitness after a complete scan. The pair count and
    the table size are checked against their limits before any work.
    """
    total = _bounded_power(ctx, 2 * (n * n - 1), budget, "pairs")
    table = RingTable(ctx)
    found = _scan_pairs(table, n, target)
    if found is None:
        return NoWitness(pairs_checked=total, ring_elements=table.q,
                         matrix_size=n, prime=ctx.field.p)
    b, c = (_decode_matrix(table, n, idx) for idx in found)
    if commutator(b, c) != target:
        raise RuntimeError(f"oracle pair {found} does not decompose the target")
    pair_index = found[0] * table.q ** (n * n - 1) + found[1]
    return FoundWitness(b=b, c=c, pair_index=pair_index, pairs_checked=pair_index + 1)


def exhaustive_commutator_search(a: Matrix, budget: int = DEFAULT_PAIR_BUDGET):
    """First (B, C) in enumeration order with [B, C] = a, or None after a
    complete scan. Searches the normalized space (last diagonal entries
    zero), which preserves existence exactly.
    """
    found = _run_search(a.ctx, a.n, a, budget)
    return (found.b, found.c) if isinstance(found, FoundWitness) else None


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
    return _run_search(ctx, cert.n, target, budget)


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
