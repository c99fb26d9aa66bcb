"""Witness construction tests.

Every builder re-verifies [X,B] = A at construction time, so most tests
focus on reaching the builders with adversarial inputs and on frozen small
examples worked by hand.
"""

import random
import time
from fractions import Fraction

import pytest

from tracezero.errors import (
    CliqueTooSmall,
    DifferenceNotAUnit,
    DivisionByZero,
    NotAUnit,
    NotHollow,
    NotUpperTriangular,
    NonzeroTrace,
    ValidationFailed,
)
from tracezero.fields import Field
from tracezero.matrices import Matrix, commutator
from tracezero.polynomials import RingCtx
from tracezero.witnesses import (
    Clique,
    WitnessPair,
    hollow_witness,
    nilpotent_witness,
    triangular_witness,
    verify_clique,
    witness_from_json,
    witness_to_json,
)

Q = Field.rationals()
F2 = Field.prime(2)
F5 = Field.prime(5)
F101 = Field.prime(101)


def rand_upper_trace0(rng, ctx, n):
    rows = [[ctx.zero()] * n for _ in range(n)]
    diag = [ctx.field.random(rng) for _ in range(n - 1)]
    diag.append(ctx.field.neg(sum_field(ctx.field, diag)))
    for i in range(n):
        rows[i][i] = ctx.constant(diag[i])
        for j in range(i + 1, n):
            rows[i][j] = ctx.constant(ctx.field.random(rng))
    return Matrix.from_rows(ctx, rows)


def sum_field(field, vals):
    total = field.zero()
    for v in vals:
        total = field.add(total, v)
    return total


def test_triangular_hand_example():
    ctx = RingCtx(Q, 0, None)
    a = Matrix.from_rows(ctx, [[1, 5], [0, -1]])
    pair = triangular_witness(a)
    assert pair.x.rows == Matrix.from_rows(ctx, [[0, 1], [0, 0]]).rows
    assert pair.b.rows == Matrix.from_rows(ctx, [[0, 0], [1, 5]]).rows
    assert commutator(pair.x, pair.b) == a


def test_triangular_row_recurrence_3x3():
    # hand-checked: row i of B is row i-1 of A plus the shifted previous row
    ctx = RingCtx(Q, 0, None)
    a = Matrix.from_rows(ctx, [[1, 2, 3], [0, 4, 5], [0, 0, -5]])
    pair = triangular_witness(a)
    assert pair.b.rows[0] == [ctx.zero()] * 3
    got = [[pair.b.entry(i, j).constant_value() if not pair.b.entry(i, j).is_zero() else Fraction(0)
            for j in range(3)] for i in range(3)]
    assert got[1] == [Fraction(1), Fraction(2), Fraction(3)]
    assert got[2] == [Fraction(0), Fraction(5), Fraction(7)]


def test_triangular_rejects_bad_targets():
    ctx = RingCtx(Q, 0, None)
    with pytest.raises(NotUpperTriangular):
        triangular_witness(Matrix.from_rows(ctx, [[0, 0], [1, 0]]))
    with pytest.raises(NonzeroTrace):
        triangular_witness(Matrix.from_rows(ctx, [[1, 0], [0, 1]]))


def test_triangular_over_truncated_ring():
    ctx = RingCtx(F2, 2, 3)
    x, y = ctx.gens()
    a = Matrix.from_rows(ctx, [[x, x * y], [ctx.zero(), x]])
    # trace is 2x = 0 over F_2
    assert a.trace().is_zero()
    pair = triangular_witness(a)
    assert commutator(pair.x, pair.b) == a


def test_triangular_integer_entries_stay_integer():
    # B is built from sums of entries of A alone, no division
    rng = random.Random(67)
    ctx = RingCtx(Q, 0, None)
    for _ in range(50):
        n = rng.randint(2, 5)
        rows = [[ctx.zero()] * n for _ in range(n)]
        diag = [rng.randint(-9, 9) for _ in range(n - 1)]
        diag.append(-sum(diag))
        for i in range(n):
            rows[i][i] = ctx.constant(Fraction(diag[i]))
            for j in range(i + 1, n):
                rows[i][j] = ctx.constant(Fraction(rng.randint(-9, 9)))
        a = Matrix.from_rows(ctx, rows)
        pair = triangular_witness(a)
        for row in pair.b.rows:
            for e in row:
                if not e.is_zero():
                    assert e.constant_value().denominator == 1


def test_hollow_hand_example():
    ctx = RingCtx(F5, 0, None)
    a = Matrix.from_rows(ctx, [[0, 2], [3, 0]])
    clique = verify_clique([1], ctx)
    pair = hollow_witness(a, clique)
    # X = diag(0, 1); B off-diagonal entries a_ij / (r_i - r_j)
    assert pair.x.rows == Matrix.from_rows(ctx, [[0, 0], [0, 1]]).rows
    assert pair.b.rows == Matrix.from_rows(ctx, [[0, 3], [3, 0]]).rows
    assert commutator(pair.x, pair.b) == a


def test_hollow_symbolic_entries():
    # polynomial entries work because only the clique needs inverses
    ctx = RingCtx(Q, 5, None)
    a_, b_, c_, d_, e_ = ctx.gens()
    z = ctx.zero()
    target = Matrix.from_rows(ctx, [[z, a_, b_], [c_, z, d_], [e_, a_ + b_, z]])
    clique = verify_clique([Fraction(1), Fraction(2)], ctx)
    pair = hollow_witness(target, clique)
    assert commutator(pair.x, pair.b) == target


def test_hollow_requires_enough_clique():
    ctx = RingCtx(Q, 0, None)
    a = Matrix.from_rows(ctx, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    with pytest.raises(CliqueTooSmall):
        hollow_witness(a, verify_clique([1], ctx))


def test_hollow_rejects_nonhollow():
    ctx = RingCtx(Q, 0, None)
    a = Matrix.from_rows(ctx, [[1, 1], [1, -1]])
    with pytest.raises(NotHollow):
        hollow_witness(a, verify_clique([1], ctx))


def test_clique_validation():
    ctx2 = RingCtx(F2, 0, None)
    with pytest.raises(NotAUnit):
        verify_clique([0], ctx2)
    # over a field the only failing difference is zero, i.e. repeats
    with pytest.raises(DifferenceNotAUnit):
        verify_clique([1, 3], RingCtx(F2, 0, None))
    ctx5 = RingCtx(F5, 0, None)
    clique = verify_clique([1, 2, 4], ctx5)
    assert clique.elements == (1, 2, 4)
    # repeats are found in one pass: 20,000 elements take quadratic time
    # to compare pair by pair
    big = RingCtx(Field.prime(1000003), 0, None)
    start = time.perf_counter()
    assert len(verify_clique(range(1, 20001), big)) == 20000
    with pytest.raises(DifferenceNotAUnit, match="elements 7 and 20001 "):
        verify_clique([*range(1, 20001), 7], big)
    assert time.perf_counter() - start < 2.0
    # a Clique built by hand skips those checks; a repeat still fails cleanly
    a = Matrix.from_rows(ctx5, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    with pytest.raises(DivisionByZero):
        hollow_witness(a, Clique(F5, (1, 1)))


def test_nilpotent_pipeline():
    ctx = RingCtx(F101, 0, None)
    a = Matrix.from_rows(ctx, [[1, -1], [1, -1]])
    pair = nilpotent_witness(a)
    assert commutator(pair.x, pair.b) == a


def test_fuzz_triangular():
    rng = random.Random(71)
    for field in (Q, F101):
        ctx = RingCtx(field, 0, None)
        for _ in range(250):
            n = rng.randint(2, 8)
            a = rand_upper_trace0(rng, ctx, n)
            pair = triangular_witness(a)
            assert commutator(pair.x, pair.b) == a


def test_fuzz_hollow():
    rng = random.Random(73)
    for field, clique_pool in ((Q, [Fraction(k) for k in range(1, 9)]),
                               (F101, list(range(1, 9)))):
        ctx = RingCtx(field, 0, None)
        for _ in range(250):
            n = rng.randint(2, 8)
            rows = [[ctx.constant(field.random(rng)) if i != j else ctx.zero()
                     for j in range(n)] for i in range(n)]
            a = Matrix.from_rows(ctx, rows)
            clique = verify_clique(clique_pool[: n - 1], ctx)
            pair = hollow_witness(a, clique)
            assert commutator(pair.x, pair.b) == a


def test_witness_pair_rejects_wrong_product():
    ctx = RingCtx(Q, 0, None)
    a = Matrix.from_rows(ctx, [[1, 0], [0, -1]])
    x = Matrix.identity(ctx, 2)
    b = Matrix.identity(ctx, 2)
    with pytest.raises(ValidationFailed):
        WitnessPair(a, x, b)


def test_witness_json_round_trip():
    ctx = RingCtx(Q, 0, None)
    a = Matrix.from_rows(ctx, [[1, 5], [0, -1]])
    pair = triangular_witness(a)
    obj = witness_to_json(pair)
    back = witness_from_json(obj)
    assert back.target == pair.target
    assert back.x == pair.x
    assert back.b == pair.b
    # tampering must fail re-verification
    obj["B"]["entries"][1][1] = "7"
    with pytest.raises(ValidationFailed):
        witness_from_json(obj)


def test_clique_rejects_non_unit_element_in_char_2():
    # 2 is zero in F_2, and zero is not a unit.
    with pytest.raises(NotAUnit):
        verify_clique([1, 2], RingCtx(F2, 0, None))


def test_triangular_symbolic_three_by_three():
    # Fully symbolic trace-zero upper triangular target over Q[x1..x5]:
    # the construction is division-free, so it works with the entries
    # left as indeterminates.
    ctx = RingCtx(Q, 5, None)
    a, b, c, d, e = ctx.gens()
    target = Matrix.from_rows(ctx, [
        [a, b, c],
        [ctx.zero(), d, e],
        [ctx.zero(), ctx.zero(), ctx.zero() - a - d],
    ])
    pair = triangular_witness(target)
    assert commutator(pair.x, pair.b) == target
    assert target.trace().is_zero()
