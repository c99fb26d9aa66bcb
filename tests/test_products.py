"""Exact products against a plain reference loop, and pinned witness outputs.

The reference multiplies term dicts the schoolbook way: one field
operation per term product, through ``Fraction`` over Q and ``%`` over
F_p, and it never calls the package's product helpers. ``Poly.__mul__``,
``Matrix.__mul__`` and ``commutator`` must agree with it on every ring
below, and every coefficient they return must be canonical: a residue in
``[0, p)`` or a nonzero rational in lowest terms, at a degree below the
truncation order.
"""

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from tracezero.fields import Field
from tracezero.matrices import FlagBasis, Matrix, commutator, conjugate
from tracezero.polynomials import Poly, RingCtx
from tracezero.witnesses import (
    hollow_witness,
    nilpotent_witness,
    triangular_witness,
    verify_clique,
    witness_to_json,
)

FIELDS = [None, 2, 3, 101]  # None is Q


def ring(p, nvars, trunc):
    return RingCtx(Field.rationals() if p is None else Field.prime(p), nvars, trunc)


def ref_add(p, acc, mono, c):
    s = acc.get(mono, 0) + c
    s = s if p is None else s % p
    if s:
        acc[mono] = s
    else:
        acc.pop(mono, None)


def ref_poly_mul(p, trunc, a: dict, b: dict) -> dict:
    out: dict = {}
    for (m1, c1), (m2, c2) in itertools.product(a.items(), b.items()):
        mono = tuple(x + y for x, y in zip(m1, m2))
        if trunc is None or sum(mono) < trunc:
            ref_add(p, out, mono, c1 * c2)
    return out


def ref_matmul(p, trunc, a, b, sign=1) -> list:
    """Rows of term dicts of sign * a b, for nests of term dicts."""
    n = len(a)
    out = [[{} for _ in range(n)] for _ in range(n)]
    for i, j, k in itertools.product(range(n), repeat=3):
        for mono, c in ref_poly_mul(p, trunc, a[i][k], b[k][j]).items():
            ref_add(p, out[i][j], mono, sign * c)
    return out


def terms(mat: Matrix) -> list:
    return [[dict(e.terms) for e in r] for r in mat.rows]


def assert_canonical(poly: Poly):
    ctx = poly.ctx
    for mono, c in poly.terms.items():
        assert len(mono) == ctx.nvars
        assert ctx.truncation is None or sum(mono) < ctx.truncation
        if ctx.field.kind == "Q":
            assert type(c) is Fraction and c != 0
            assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
        else:
            assert type(c) is int and 0 < c < ctx.field.p


def rand_coeff(rng, p):
    if p is None:
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    return rng.randrange(p)


def rand_terms(rng, p, nvars, trunc, nterms) -> dict:
    """Up to ``nterms`` terms of degree below ``trunc`` (or below 3), zeros
    dropped, as a term dict in canonical form."""
    top = 2 if trunc is None else trunc - 1
    out: dict = {}
    for _ in range(rng.randint(0, nterms)):
        deg = rng.randint(0, top) if nvars else 0
        cuts = sorted(rng.randint(0, deg) for _ in range(nvars - 1))
        mono = tuple(b - a for a, b in zip([0] + cuts, cuts + [deg])) if nvars else ()
        ref_add(p, out, mono, rand_coeff(rng, p))
    return out


def rand_matrix(rng, ctx, p, n, density):
    nvars, trunc = ctx.nvars, ctx.truncation
    return [[rand_terms(rng, p, nvars, trunc, 3) if rng.random() < density else {}
             for _ in range(n)] for _ in range(n)]


def as_matrix(ctx, rows) -> Matrix:
    return Matrix(ctx, [[Poly(ctx, dict(e)) for e in r] for r in rows])


RINGS = [(p, nvars, trunc) for p in FIELDS for nvars, trunc in
         [(0, None), (1, None), (1, 2), (2, 2), (2, 3), (2, None)]]


@pytest.mark.parametrize("p,nvars,trunc", RINGS)
def test_poly_product_matches_reference(p, nvars, trunc):
    ctx = ring(p, nvars, trunc)
    rng = random.Random(f"poly-{p}-{nvars}-{trunc}")
    for _ in range(40):
        a = rand_terms(rng, p, nvars, trunc, 6)
        b = rand_terms(rng, p, nvars, trunc, 6)
        got = Poly(ctx, a) * Poly(ctx, b)
        assert got.terms == ref_poly_mul(p, trunc, a, b)
        assert_canonical(got)


@pytest.mark.parametrize("p,nvars,trunc", RINGS)
def test_matrix_products_match_reference(p, nvars, trunc):
    ctx = ring(p, nvars, trunc)
    rng = random.Random(f"matrix-{p}-{nvars}-{trunc}")
    for density in (0.2, 0.6, 1.0):
        for n in (1, 2, 4):
            a = rand_matrix(rng, ctx, p, n, density)
            b = rand_matrix(rng, ctx, p, n, density)
            prod = as_matrix(ctx, a) * as_matrix(ctx, b)
            assert terms(prod) == ref_matmul(p, trunc, a, b)
            ba = ref_matmul(p, trunc, b, a, -1)
            want = [[dict(e) for e in r] for r in ref_matmul(p, trunc, a, b)]
            for i, j in itertools.product(range(n), repeat=2):
                for mono, c in ba[i][j].items():
                    ref_add(p, want[i][j], mono, c)
            comm = commutator(as_matrix(ctx, a), as_matrix(ctx, b))
            assert terms(comm) == want
            for e in itertools.chain(*prod.rows, *comm.rows):
                assert_canonical(e)


def test_products_cancel_and_truncate_to_zero():
    for p in FIELDS:
        ctx = ring(p, 2, 3)
        one = Fraction(1) if p is None else 1
        x1 = Poly(ctx, {(1, 0): one})
        x2 = Poly(ctx, {(0, 1): one})
        # (x1 + x2)(x1 - x2) = x1^2 - x2^2: the x1*x2 products cancel
        s, d = x1 + x2, x1 - x2
        assert (s * d).terms == ref_poly_mul(p, 3, s.terms, d.terms)
        assert (1, 1) not in (s * d).terms
        # every product of two degree-2 terms reaches m^3
        sq = s * s
        assert (sq * sq).terms == {}
        # a matrix commutes with its own powers; [a, a] and [a, a^2] are zero
        a = Matrix.from_rows(ctx, [[s, d], [sq, x1]])
        assert commutator(a, a).is_zero()
        assert commutator(a, a * a).is_zero()
    # negative rationals whose products sum to zero in one entry
    ctx = ring(None, 0, None)
    a = Matrix.from_rows(ctx, [[Fraction(-1, 3), Fraction(1, 6)], [0, 1]])
    b = Matrix.from_rows(ctx, [[Fraction(3, 4), 0], [Fraction(3, 2), 0]])
    assert (a * b).rows[0][0].is_zero()
    assert terms(a * b) == ref_matmul(None, None, terms(a), terms(b))


# -- pinned witness outputs -------------------------------------------------

# sha256 prefixes of witness_to_json, sorted keys, for the seeded builds of
# pinned_witnesses(); they fix every byte the witness builders write
PINNED_WITNESSES = {
    ("triangular", "Q"): "9045f64c05378178",
    ("hollow", "Q"): "66bd1300f6fe7c0a",
    ("nilpotent", "Q"): "17b3e6cb7ad07eec",
    ("triangular", "F101"): "e5caf633ab910d30",
    ("hollow", "F101"): "7fc299540b0af31e",
    ("nilpotent", "F101"): "eb5f9b9154d2115d",
    ("triangular", "F13x2"): "091bea92588d5b2e",
    ("hollow", "F13x2"): "4eee806867beda00",
    ("nilpotent", "F13x2"): "70e79b07e4b3e0de",
}

WITNESS_RINGS = {"Q": (None, 0, None), "F101": (101, 0, None), "F13x2": (13, 2, 3)}


def pinned_witnesses():
    """One triangular, hollow and nilpotent witness per ring of
    WITNESS_RINGS, from seeded random targets."""
    for label, (p, nvars, trunc) in WITNESS_RINGS.items():
        ctx = ring(p, nvars, trunc)
        field = ctx.field
        rng = random.Random(f"pinned-{label}")
        n = 5
        rows = rand_matrix(rng, ctx, p, n, 0.8)
        for i, j in itertools.product(range(n), repeat=2):
            if j < i:
                rows[i][j] = {}
        a = as_matrix(ctx, rows)
        rows[n - 1][n - 1] = dict((-(a.trace() - a.rows[n - 1][n - 1])).terms)
        yield ("triangular", label), triangular_witness(as_matrix(ctx, rows))

        rows = rand_matrix(rng, ctx, p, n, 0.8)
        for i in range(n):
            rows[i][i] = {}
        clique = verify_clique(range(1, n), ctx)
        yield ("hollow", label), hollow_witness(as_matrix(ctx, rows), clique)

        # N = g U g^-1 with U strictly upper and g unit lower triangular
        upper = [[ctx.constant(rand_coeff(rng, p)) if j > i else ctx.zero()
                  for j in range(n)] for i in range(n)]
        g = FlagBasis(field, [[1 if i == j else rand_coeff(rng, p) if j < i else 0
                               for j in range(n)] for i in range(n)])
        yield ("nilpotent", label), nilpotent_witness(conjugate(g, Matrix(ctx, upper)))


def witness_digest(w) -> str:
    text = json.dumps(witness_to_json(w), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_witness_outputs_are_pinned():
    got = {key: witness_digest(w) for key, w in pinned_witnesses()}
    assert got == PINNED_WITNESSES
