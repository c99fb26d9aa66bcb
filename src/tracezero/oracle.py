"""Independent brute-force checks: exhaustive commutator searches over
finite truncated rings, and the explicit rank-2 decomposition over the
quadric coordinate ring.

A finite context F_p[x_1..x_m]/(x_1..x_m)^N has q = p^D elements, coded
by ``element_encode``: the coefficient on basis monomial r is base-p
digit r of the code, the constant digit least significant. ``RingTable``
holds, for at most 256 elements, the D x D matrix over F_p of
multiplication by each one, built from ``Poly`` products, so the search
computes in the package's own arithmetic. The table cap and the pair
budget are both limits on a power q^k = p^e, and one rule decides them on
e, before any power that large is formed.

The search space is every pair B, C with the last diagonal entries
pinned to zero. That normalization loses nothing: shifting B and C by
scalar matrices changes neither the commutator nor existence, so a
search that rules out every pair is a proof for the given ring. Matrices
are ordered entry-row-major with the (1,1) digit most significant, pairs
B-major; a reported witness is the first pair in that order.

C is solved for, not scanned. For fixed B, C -> [B, C] is F_p-linear, so
the C with [B, C] = target are the solutions of one F_p system whose
unknowns are the digits of the free C entries. B is walked in order, in
blocks that grow from a few matrices up to ``_CHUNK_MATRICES``; each
block's systems are built from the multiplication matrices and reduced
in one batched Gauss-Jordan elimination mod p in numpy. The first
consistent system gives the first B. Its columns are ordered least
significant digit first, so a pivot digit depends only on free digits
more significant than itself, and setting every free digit to 0 gives
the lex-least C, which is that B's first C in the enumeration. The hit is
reported with its pair index plus one as pairs checked, decoded, and
re-verified with exact polynomial arithmetic; no hit means all
q^(2(n^2-1)) pairs are ruled out. A pair scan kept with the tests is the
independent reference the solver is checked against.
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
_CHUNK_MATRICES = 2**9
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
    """Multiplication matrices of one finite ring context: ``mul[u]`` is
    the matrix over F_p of multiplication by the element with code u, on
    coefficient vectors in ``element_encode`` digit order, built from the
    ``Poly`` products of every element with every basis monomial."""

    def __init__(self, ctx: RingCtx):
        self.q = _bounded_power(ctx, 1, _TABLE_CAP, "table elements")
        self.ctx = ctx
        self.basis = basis_monomials(ctx)
        p, dim = ctx.field.p, len(self.basis)
        units = [element_decode(ctx, self.basis, p ** r) for r in range(dim)]
        codes = [[element_encode(ctx, self.basis, u * e) for e in units]
                 for u in enumerate_ring(ctx)]
        # row r, column s of mul[u]: digit r of the code of u * (basis monomial s)
        self.mul = _digits(codes, p, dim).transpose(0, 2, 1)


def _digits(codes, p: int, dim: int) -> np.ndarray:
    """The ``dim`` base-p digits of element codes, the constant digit
    first, along a new last axis."""
    return np.asarray(codes, dtype=np.int64)[..., None] // p ** np.arange(dim) % p


@dataclass(frozen=True)
class NoWitness:
    """Proof record: no pair of the full normalized pair space decomposes
    the target."""
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


def _systems(table: RingTable, b, rhs: np.ndarray) -> np.ndarray:
    """Augmented F_p systems ad_B(C) = target, one per B of the block
    ``b``, laid out as (column, system, row) with the right-hand side as
    the last column.

    Row block (i,j) is sum_t L[B[i,t]] c[t,j] - L[B[t,j]] c[i,t], with L
    the multiplication matrices. The unknowns are the digits of the free
    C entries, least significant first: the last free entry first, and
    within an entry the constant digit first. So column c carries weight
    p^c in the index of C.
    """
    p, n, size = table.ctx.field.p, len(b), len(b[0][0])
    dtype = np.min_scalar_type(-p * p)
    mul = table.mul.transpose(0, 2, 1).astype(dtype)  # [u, input digit, output digit]
    dim, k = mul.shape[1], n * n - 1
    aug = np.zeros((k * dim + 1, size, n * n * dim), dtype=dtype)
    blocks = aug[:-1].reshape(k, dim, size, n * n, dim)
    for i in range(n):
        for j in range(n):
            for t in range(n):
                # C entry (r, s) is column block k-1-(rn+s); the pinned corner has none
                if t * n + j < k:
                    blocks[k - 1 - (t * n + j), :, :, i * n + j] += mul[b[i][t]].transpose(1, 0, 2)
                if i * n + t < k:
                    blocks[k - 1 - (i * n + t), :, :, i * n + j] -= mul[b[t][j]].transpose(1, 0, 2)
    aug[-1] = rhs
    aug %= p
    return aug


def _solve(aug: np.ndarray, p: int):
    """Gauss-Jordan elimination mod p of a batch of augmented systems laid
    out as (column, system, row), pivoting column by column from the left.

    Returns (ok, x): ok[s] tells whether system s is consistent, and
    x[c, s] is unknown c of its solution with every free unknown 0. A
    pivot row has zeros left of its pivot and at every other pivot column,
    so each pivot unknown depends only on free unknowns right of it; with
    the columns ordered least significant first, setting the free unknowns
    to 0 from the most significant down gives the least solution in that
    digit order. The dtype of ``aug`` must hold -p^2.
    """
    inv = np.array([0] + [pow(v, -1, p) for v in range(1, p)], dtype=aug.dtype)
    low = (p - 1) ** 2  # a - f * row lies in [-low, p - 1]; residue[v + low] is v mod p
    residue = (np.arange(-low, p) % p).astype(aug.dtype)
    ncols, nsys, nrows = aug.shape[0] - 1, aug.shape[1], aug.shape[2]
    every = np.arange(nsys)
    open_row = np.ones((nsys, nrows), dtype=bool)
    pivot_row = np.full((ncols, nsys), -1)
    for c in range(ncols):
        cand = open_row & (aug[c] != 0)
        has = cand.any(axis=1)
        r = cand.argmax(axis=1)
        old = aug[c:, every, r]
        row = old * (inv[old[0]] * has) % p  # zero where no pivot: no change
        factor = aug[c].copy()
        factor[every, r] = 0
        rest = aug[c:]
        rest -= row[:, :, None] * factor
        rest += low
        np.take(residue, rest, out=rest)
        aug[c:, every, r] = np.where(has, row, old)
        open_row[every, r] &= ~has
        pivot_row[c] = np.where(has, r, -1)
    ok = ~(open_row & (aug[-1] != 0)).any(axis=1)
    x = np.take_along_axis(aug[-1], pivot_row.T.clip(0), axis=1).T
    return ok, np.where(pivot_row >= 0, x, 0)


def _first_pair(table: RingTable, n: int, target: Matrix):
    """The first (b, c) index pair of the normalized pair space whose
    commutator is the target, or None.

    B is walked in enumeration order, in blocks that grow from a few
    matrices up to ``_CHUNK_MATRICES``; each block's systems are solved in
    one batch. The first consistent system is the first B with a partner,
    and its least solution is that B's first C.
    """
    ctx, q, p = table.ctx, table.q, table.ctx.field.p
    ntotal = q ** (n * n - 1)
    rhs = _digits([element_encode(ctx, table.basis, e) for row in target.rows for e in row],
                  p, len(table.basis)).ravel()
    lo, step = 0, 16  # small first blocks keep an early hit cheap
    while lo < ntotal:
        hi = min(lo + min(step, _CHUNK_MATRICES), ntotal)
        ok, x = _solve(_systems(table, _matrices(lo, hi, q, n), rhs), p)
        if ok.any():
            s = int(ok.argmax())
            return lo + s, sum(int(v) * p ** c for c, v in enumerate(x[:, s]))
        lo, step = hi, 4 * step
    return None


def _decode_matrix(table: RingTable, n: int, idx: int) -> Matrix:
    """Matrix number ``idx`` of the enumeration, as ring elements."""
    ctx = table.ctx
    return Matrix(ctx, [[element_decode(ctx, table.basis, int(e[0])) for e in row]
                        for row in _matrices(idx, idx + 1, table.q, n)])


def _run_search(ctx: RingCtx, n: int, target: Matrix, budget: int):
    """Settle [B, C] = target over the whole normalized pair space.

    Returns a FoundWitness, decoded and re-verified with exact polynomial
    arithmetic, or a NoWitness once every B is ruled out. The pair count
    and the table size are checked against their limits before any work.
    """
    total = _bounded_power(ctx, 2 * (n * n - 1), budget, "pairs")
    table = RingTable(ctx)
    found = _first_pair(table, n, target)
    if found is None:
        return NoWitness(pairs_checked=total, ring_elements=table.q,
                         matrix_size=n, prime=ctx.field.p)
    b, c = (_decode_matrix(table, n, idx) for idx in found)
    if commutator(b, c) != target:
        raise RuntimeError(f"oracle pair {found} does not decompose the target")
    pair_index = found[0] * table.q ** (n * n - 1) + found[1]
    return FoundWitness(b=b, c=c, pair_index=pair_index, pairs_checked=pair_index + 1)


def exhaustive_commutator_search(a: Matrix, budget: int = DEFAULT_PAIR_BUDGET):
    """First (B, C) in enumeration order with [B, C] = a, or None once
    every pair is ruled out. Searches the normalized space (last diagonal
    entries zero), which preserves existence exactly.
    """
    found = _run_search(a.ctx, a.n, a, budget)
    return (found.b, found.c) if isinstance(found, FoundWitness) else None


def exhaustive_noncommutator_check(cert: Certificate, p: int,
                                   budget: int = DEFAULT_PAIR_BUDGET):
    """Check a certificate the hard way over F_p: search every normalized
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
