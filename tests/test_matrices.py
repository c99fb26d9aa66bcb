"""Matrix layer tests.

Kernel and inversion cross-check against sympy over Q; structural laws are
fuzzed over Q and F_p contexts.
"""

import random
from fractions import Fraction

import pytest
import sympy

from tracezero.errors import MalformedInput, NotNilpotent, ShapeMismatch, SingularBasis
from tracezero.fields import Field
from tracezero.matrices import (
    FlagBasis,
    Matrix,
    commutator,
    conjugate,
    kernel_basis,
    nilpotent_flag,
)
from tracezero.polynomials import RingCtx, poly_to_text

Q = Field.rationals()
F101 = Field.prime(101)


def rand_matrix(rng, ctx, n, max_terms=2):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if ctx.nvars == 0:
                row.append(ctx.constant(ctx.field.random(rng)))
            else:
                p = ctx.zero()
                for _ in range(rng.randrange(max_terms + 1)):
                    exps = tuple(
                        rng.randrange(2) for _ in range(ctx.nvars)
                    )
                    if ctx.truncation is not None and sum(exps) >= ctx.truncation:
                        continue
                    p = p + ctx.monomial(exps).scale(ctx.field.random(rng))
                row.append(p)
        rows.append(row)
    return Matrix.from_rows(ctx, rows)


def test_from_rows_coercion():
    ctx = RingCtx(Q, 0, None)
    a = Matrix.from_rows(ctx, [[1, "5"], ["0", Fraction(-1)]])
    assert poly_to_text(a.entry(0, 1)) == "5"
    assert a.trace() == ctx.zero()
    ctx2 = RingCtx(Q, 2, None)
    b = Matrix.from_rows(ctx2, [["1*x1", 0], [0, "-1*x1"]])
    assert b.trace().is_zero()


def test_matmul_identity_and_associativity():
    rng = random.Random(37)
    for ctx in (RingCtx(Q, 0, None), RingCtx(F101, 2, 3)):
        eye = Matrix.identity(ctx, 3)
        for _ in range(60):
            a = rand_matrix(rng, ctx, 3)
            b = rand_matrix(rng, ctx, 3)
            c = rand_matrix(rng, ctx, 3)
            assert a * eye == a
            assert eye * a == a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_trace_identities_random():
    rng = random.Random(41)
    for ctx in (RingCtx(Q, 0, None), RingCtx(F101, 1, None), RingCtx(Field.prime(2), 2, 2)):
        for _ in range(200):
            n = rng.randint(1, 4)
            a = rand_matrix(rng, ctx, n)
            b = rand_matrix(rng, ctx, n)
            assert (a * b).trace() == (b * a).trace()
            assert commutator(a, b).trace().is_zero()
            assert (a * commutator(a, b)).trace().is_zero()


def test_kernel_against_sympy():
    rng = random.Random(43)
    ctx = RingCtx(Q, 0, None)
    for _ in range(80):
        n = rng.randint(1, 5)
        a = Matrix.from_rows(
            ctx,
            [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)],
        )
        ker = kernel_basis(a)
        sm = sympy.Matrix([[sympy.Rational(a.rows[i][j].constant_value())
                            for j in range(n)] for i in range(n)])
        assert len(ker) == n - sm.rank()
        for vec in ker:
            image = [
                sum(sm[i, j] * sympy.Rational(vec[j]) for j in range(n))
                for i in range(n)
            ]
            assert all(x == 0 for x in image)


def test_flag_basis_inverse():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[F101.random(rng) for _ in range(n)] for _ in range(n)]
        sm = sympy.Matrix(rows)
        if sm.det() % 101 == 0:
            with pytest.raises(SingularBasis):
                FlagBasis(F101, rows)
            continue
        g = FlagBasis(F101, rows)
        prod = g.as_matrix(RingCtx(F101, 0, None)) * g.inverse_matrix(RingCtx(F101, 0, None))
        assert prod == Matrix.identity(RingCtx(F101, 0, None), n)
        # inverse() swaps the rows and their cached inverse
        assert g.inverse().rows == g._inv_rows and g.inverse().inverse().rows == g.rows


def test_nilpotent_witness_inverts_the_flag_once(monkeypatch):
    # one Gauss-Jordan reduction of [g | I] serves the flag, its inverse,
    # and the conjugations back
    from tracezero import matrices
    from tracezero.witnesses import nilpotent_witness

    inversions = []
    real_rref = matrices._rref

    def counting_rref(field, rows, ncols):
        if rows and len(rows[0]) == 2 * ncols:
            inversions.append(ncols)
        return real_rref(field, rows, ncols)

    monkeypatch.setattr(matrices, "_rref", counting_rref)
    ctx = RingCtx(F101, 0, None)
    a = Matrix.from_rows(ctx, [[1, -1, 2], [1, -1, 3], [0, 0, 0]])
    pair = nilpotent_witness(a)
    assert commutator(pair.x, pair.b) == a
    assert inversions == [3]


def test_conjugation_preserves_commutators():
    rng = random.Random(53)
    ctx = RingCtx(F101, 0, None)
    for _ in range(40):
        n = rng.randint(2, 4)
        rows = [[F101.random(rng) for _ in range(n)] for _ in range(n)]
        try:
            g = FlagBasis(F101, rows)
        except SingularBasis:
            continue
        a = rand_matrix(rng, ctx, n)
        b = rand_matrix(rng, ctx, n)
        assert conjugate(g, commutator(a, b)) == commutator(conjugate(g, a), conjugate(g, b))
        assert conjugate(g, a).trace() == a.trace()


def test_nilpotent_flag_small_example():
    ctx = RingCtx(Q, 0, None)
    a = Matrix.from_rows(ctx, [[0, 0], [1, 0]])
    g = nilpotent_flag(a)
    t = conjugate(g, a)
    assert t.entry(1, 0).is_zero()
    assert t.entry(0, 1) == ctx.one()
    # the flag swaps the two basis vectors
    assert g.rows == [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]


def test_nilpotent_flag_rank_one_example():
    ctx = RingCtx(Q, 0, None)
    a = Matrix.from_rows(ctx, [[1, -1], [1, -1]])
    g = nilpotent_flag(a)
    t = conjugate(g, a)
    n = a.n
    for i in range(n):
        for j in range(i + 1):
            assert t.entry(i, j).is_zero()


def test_nilpotent_flag_random_conjugates():
    rng = random.Random(59)
    ctx = RingCtx(F101, 0, None)
    for _ in range(60):
        n = rng.randint(2, 5)
        strict = [[F101.random(rng) if j > i else 0 for j in range(n)]
                  for i in range(n)]
        a0 = Matrix.from_rows(ctx, strict)
        while True:
            rows = [[F101.random(rng) for _ in range(n)] for _ in range(n)]
            try:
                h = FlagBasis(F101, rows)
                break
            except SingularBasis:
                continue
        a = conjugate(h, a0)
        g = nilpotent_flag(a)
        t = conjugate(g, a)
        for i in range(n):
            for j in range(i + 1):
                assert t.entry(i, j).is_zero()


def greedy_flag_rows(a):
    """Reference flag: the g rows nilpotent_flag must return, or None when
    a is not nilpotent. Checks nilpotency by squaring past n, then keeps
    each kernel vector of a, a^2, ... that is independent of the ones kept
    before it, by its own incremental echelon form."""
    field, F, n = a.ctx.field, a.constant_rows(), a.n

    def matmul(x, y):
        return [[sum_field(field, [field.mul(x[i][k], y[k][j]) for k in range(n)])
                 for j in range(n)] for i in range(n)]

    S, e = F, 1
    while e < n:
        S, e = matmul(S, S), 2 * e
    if any(not field.is_zero(v) for r in S for v in r):
        return None

    def lead(row):
        return next(i for i, x in enumerate(row) if not field.is_zero(x))

    chosen, span_rows = [], []
    power = F
    while len(chosen) < n:
        for v in kernel_basis(Matrix.from_rows(RingCtx(field, 0, None), power)):
            if len(chosen) == n:
                break
            w = list(v)
            for row in span_rows:
                if not field.is_zero(w[lead(row)]):
                    f = field.div(w[lead(row)], row[lead(row)])
                    w = [field.sub(x, field.mul(f, y)) for x, y in zip(w, row)]
            if any(not field.is_zero(x) for x in w):
                span_rows.append(w)
                span_rows.sort(key=lead)
                chosen.append(list(v))
        power = matmul(power, F)
    # g inverts the matrix whose columns are the chosen vectors
    p = sympy.Matrix([[sympy.Rational(chosen[j][i]) for j in range(n)]
                      for i in range(n)])
    if field.kind == "Q":
        return [[Fraction(int(x.p), int(x.q)) for x in p.inv().tolist()[i]]
                for i in range(n)]
    return [[int(x) for x in p.inv_mod(field.p).tolist()[i]] for i in range(n)]


def sum_field(field, vals):
    total = field.zero()
    for v in vals:
        total = field.add(total, v)
    return total


def test_nilpotent_flag_matches_greedy_reference():
    rng = random.Random(67)
    nilpotent = 0
    for t in range(240):
        field = (Q, Field.prime(2), F101)[t % 3]
        ctx = RingCtx(field, 0, None)
        n = rng.randint(1, 5)
        strict = [[field.random(rng) if j > i and rng.random() < 0.7 else 0
                   for j in range(n)] for i in range(n)]
        if t % 4 == 3:  # usually not nilpotent
            strict[n - 1][0] = field.one()
        try:
            h = FlagBasis(field, [[field.random(rng) for _ in range(n)]
                                  for _ in range(n)])
        except SingularBasis:
            continue
        a = conjugate(h, Matrix.from_rows(ctx, strict))
        expected = greedy_flag_rows(a)
        if expected is None:
            with pytest.raises(NotNilpotent):
                nilpotent_flag(a)
        else:
            nilpotent += 1
            assert nilpotent_flag(a).rows == expected
    assert nilpotent > 100


def test_nilpotent_flag_rejects_non_nilpotent():
    ctx = RingCtx(Q, 0, None)
    with pytest.raises(NotNilpotent):
        nilpotent_flag(Matrix.identity(ctx, 2))
    with pytest.raises(NotNilpotent):
        nilpotent_flag(Matrix.from_rows(ctx, [[0, 1], [1, 0]]))


def test_shape_mismatch():
    ctx = RingCtx(Q, 0, None)
    a = Matrix.identity(ctx, 2)
    b = Matrix.identity(ctx, 3)
    with pytest.raises(ShapeMismatch):
        a * b
    with pytest.raises(ShapeMismatch):
        a + b


def test_matrix_json_round_trip():
    rng = random.Random(61)
    for ctx in (RingCtx(Q, 0, None), RingCtx(F101, 2, 3)):
        for _ in range(30):
            a = rand_matrix(rng, ctx, rng.randint(1, 3))
            assert Matrix.from_json(a.to_json()) == a


def test_from_json_rejects_non_list_terms():
    obj = {"ctx": {"field": {"kind": "Fp", "p": 2}, "nvars": 0},
           "entries": [[{"terms": 5, "nvars": 0}]], "n": 1}
    with pytest.raises(MalformedInput):
        Matrix.from_json(obj)


def test_commutator_elementary_matrices():
    # [E12, E21] = diag(1, -1), worked by hand.
    ctx = RingCtx(Q, 0, None)
    e12 = Matrix.from_rows(ctx, [[0, 1], [0, 0]])
    e21 = Matrix.from_rows(ctx, [[0, 0], [1, 0]])
    got = commutator(e12, e21)
    assert got == Matrix.from_rows(ctx, [[1, 0], [0, -1]])
    assert got.trace().is_zero()


def test_conjugate_by_swap_moves_the_one():
    # Swapping the two basis vectors turns E12 into E21.
    ctx = RingCtx(Q, 0, None)
    a = Matrix.from_rows(ctx, [[0, 1], [0, 0]])
    g = FlagBasis(Q, [[0, 1], [1, 0]])
    assert conjugate(g, a) == Matrix.from_rows(ctx, [[0, 0], [1, 0]])
