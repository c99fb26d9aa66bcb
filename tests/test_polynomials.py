"""Polynomial ring tests.

Cross-checks use sympy as an independent arithmetic route and plain
itertools counting as an independent enumeration route.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
import sympy

from tracezero.errors import (
    ContextMismatch,
    InfiniteRing,
    MalformedInput,
    PreconditionViolated,
    TruncationOverflow,
)
from tracezero.fields import Field
from tracezero.polynomials import (
    MAX_NVARS,
    Poly,
    RingCtx,
    basis_monomials,
    basis_size,
    element_decode,
    element_encode,
    enumerate_ring,
    grlex_key,
    poly_from_json,
    poly_from_text,
    poly_to_json,
    poly_to_text,
    project,
    ring_size,
)

Q = Field.rationals()
F2 = Field.prime(2)
F5 = Field.prime(5)


def to_sympy(p: Poly, symbols):
    expr = sympy.Integer(0)
    for exps, coeff in p.terms.items():
        term = sympy.Rational(coeff) if p.ctx.field.kind == "Q" else sympy.Integer(coeff)
        for s, e in zip(symbols, exps):
            term *= s ** e
        expr += term
    return sympy.expand(expr)


def random_poly(rng, ctx, max_terms=5):
    terms = {}
    n = ctx.truncation if ctx.truncation is not None else 6
    for _ in range(rng.randrange(max_terms + 1)):
        exps = [0] * ctx.nvars
        budget = rng.randrange(n)
        for _ in range(budget):
            exps[rng.randrange(ctx.nvars)] += 1
        terms[tuple(exps)] = ctx.field.random(rng)
    return ctx.make(terms)


def test_grlex_key_orders_by_degree_then_lex():
    assert grlex_key((2, 0)) < grlex_key((0, 3))
    assert grlex_key((0, 2)) < grlex_key((1, 1))
    assert grlex_key((1, 1)) < grlex_key((2, 0))
    monos = [(3, 0), (0, 1), (1, 0), (2, 1), (0, 0), (1, 2)]
    ordered = sorted(monos, key=grlex_key)
    assert ordered == [(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (3, 0)]


def test_ring_axioms_random():
    rng = random.Random(21)
    contexts = [
        RingCtx(Q, 2, None),
        RingCtx(Q, 3, 4),
        RingCtx(F5, 2, None),
        RingCtx(F5, 1, 5),
        RingCtx(F2, 3, 3),
    ]
    for ctx in contexts:
        one = ctx.one()
        zero = ctx.zero()
        for _ in range(250):
            a = random_poly(rng, ctx)
            b = random_poly(rng, ctx)
            c = random_poly(rng, ctx)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + zero == a
            assert a * one == a
            assert a - a == zero
            assert a * zero == zero


def test_multiplication_against_sympy():
    rng = random.Random(5)
    xs = sympy.symbols("t0 t1 t2")
    ctx = RingCtx(Q, 3, None)
    for _ in range(60):
        a = random_poly(rng, ctx)
        b = random_poly(rng, ctx)
        got = to_sympy(a * b, xs)
        want = sympy.expand(to_sympy(a, xs) * to_sympy(b, xs))
        assert sympy.simplify(got - want) == 0


def test_truncation_is_ring_homomorphism():
    rng = random.Random(9)
    full = RingCtx(F5, 2, None)
    trunc = RingCtx(F5, 2, 3)
    for _ in range(200):
        a = random_poly(rng, full)
        b = random_poly(rng, full)
        pa = project(a, trunc)
        pb = project(b, trunc)
        assert project(a + b, trunc) == pa + pb
        assert project(a * b, trunc) == pa * pb


def test_truncation_drops_high_degree():
    ctx = RingCtx(F2, 1, 3)
    (x,) = ctx.gens()
    # (1 + x)^2 = 1 + x^2 over F_2, degree < 3 so nothing truncated
    sq = (ctx.one() + x) ** 2
    assert poly_to_text(sq) == "1*x1^2 + 1"
    # (1 + x)^4 = 1 + x^4 = 1 after truncation at degree 3
    assert (ctx.one() + x) ** 4 == ctx.one()
    with pytest.raises(TruncationOverflow):
        ctx.monomial((3,))


def test_enumeration_counts():
    # independent route: count exponent tuples below the degree bound
    def count_monomials(m, n):
        return sum(
            1
            for exps in itertools.product(range(n), repeat=m)
            if sum(exps) < n
        )

    cases = [(3, 2), (1, 2), (3, 3), (2, 4), (4, 2)]
    for m, n in cases:
        ctx = RingCtx(F2, m, n)
        want = count_monomials(m, n)
        assert basis_size(ctx) == want
        assert want == math.comb(m + n - 1, m)
        assert len(basis_monomials(ctx)) == want
    # frozen sizes: 2^4 = 16, F_2 constants = 2, F_3 cubics in one var = 27
    assert ring_size(RingCtx(F2, 3, 2)) == 16
    assert ring_size(RingCtx(F2, 0, None)) == 2
    assert ring_size(RingCtx(Field.prime(3), 1, 3)) == 27


def test_enumerate_ring_order_and_membership():
    ctx = RingCtx(F2, 2, 2)
    elems = list(enumerate_ring(ctx))
    assert len(elems) == ring_size(ctx) == 8
    assert elems[0] == ctx.zero()
    assert elems[1] == ctx.one()
    # constant digit least significant; the lex-smallest variable follows it
    x, y = ctx.gens()
    assert elems[2] == y
    assert elems[3] == y + ctx.one()
    assert elems[4] == x
    basis = basis_monomials(ctx)
    for i, e in enumerate(elems):
        assert element_encode(ctx, basis, e) == i
        assert element_decode(ctx, basis, i) == e


def test_basis_monomials_are_grlex_sorted():
    monos = basis_monomials(RingCtx(F2, 3, 3))
    keys = [grlex_key(m) for m in monos]
    assert keys == sorted(keys)
    assert monos[0] == (0, 0, 0)
    assert monos[1:4] == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    # brute force: every exponent tuple of degree < N, sorted by grlex_key
    for nvars in range(1, 5):
        for trunc in range(1, 6):
            brute = sorted((e for e in itertools.product(range(trunc), repeat=nvars)
                            if sum(e) < trunc), key=grlex_key)
            assert basis_monomials(RingCtx(F2, nvars, trunc)) == brute


def test_infinite_ring_errors():
    with pytest.raises(InfiniteRing):
        ring_size(RingCtx(Q, 0, None))
    with pytest.raises(InfiniteRing):
        ring_size(RingCtx(F5, 2, None))


def test_variable_count_is_capped():
    # every term stores one exponent per variable, so the count is bounded
    assert poly_to_text(poly_from_text(RingCtx(F2, MAX_NVARS, 2), f"x{MAX_NVARS}")) \
        == f"1*x{MAX_NVARS}"
    with pytest.raises(PreconditionViolated):
        RingCtx(F2, MAX_NVARS + 1, 2)


def test_text_round_trip():
    rng = random.Random(3)
    for ctx in (RingCtx(Q, 3, None), RingCtx(F5, 2, 4)):
        for _ in range(100):
            p = random_poly(rng, ctx)
            text = poly_to_text(p)
            assert poly_from_text(ctx, text) == p


def test_text_format_frozen():
    ctx = RingCtx(Q, 2, None)
    x, y = ctx.gens()
    p = x * x - y.scale(Fraction(1, 2)) + ctx.one()
    assert poly_to_text(p) == "1*x1^2 + -1/2*x2 + 1"
    assert poly_to_text(ctx.zero()) == "0"
    q = poly_from_text(ctx, "1*x1^2 + -1/2*x2 + 1")
    assert q == p
    # "+-" composes, leading the text or following a term
    assert poly_from_text(ctx, "+-x1") == -x
    assert poly_from_text(ctx, "x1+-x2") == x - y
    assert poly_from_text(ctx, "-x1 - 2*x2 + x1") == y.scale(-2)


def test_text_rejects_malformed():
    ctx = RingCtx(Q, 2, None)
    # an exponent past Python's int-to-str limit, a Fraction-only exponent
    # form whose parse cost grows with the exponent, and numbers built from
    # in-limit tokens that a product of factors or a sum of like terms
    # takes past the limit
    top = "9" * 4300
    for bad in ("1*w1", "x0", "x3", "1**x1", "1*x1^", "++1",
                "-+x1", "--x1", "x1-+x2", "x1--x2", "x1++x2", "x1+", "x1+-", "-",
                "x1**x2", "*x1", "x1*",
                "x1^" + "9" * 5000, "1e1000000",
                f"x1^{top}*x1^{top}", f"{top}*{top}", f"{top} + {top}*x2^0"):
        with pytest.raises(MalformedInput):
            poly_from_text(ctx, bad)
    assert poly_to_text(poly_from_text(ctx, f"x1^{top}")) == f"1*x1^{top}"
    with pytest.raises(MalformedInput):  # sum of two like JSON terms
        poly_from_json(ctx, {"nvars": 2, "terms": [
            {"coeff": top, "exps": [0, 0]}, {"coeff": top, "exps": [0, 0]}]})
    with pytest.raises(PreconditionViolated):  # no list holds 2^63 exponents
        RingCtx(Q, 2 ** 63, None)
    with pytest.raises(MalformedInput):
        RingCtx.from_json({"field": {"kind": "Q"}, "nvars": 2 ** 63})
    small = RingCtx(F2, 1, 2)
    with pytest.raises(MalformedInput):
        poly_from_text(small, "1*x1^5")
    # a degree past the digit limit reaches the truncation order too
    with pytest.raises(MalformedInput):
        poly_from_text(small, f"x1^{top}*x1^{top}")
    with pytest.raises(MalformedInput):
        poly_from_json(RingCtx(F2, 2, 2), {"nvars": 2, "terms": [
            {"coeff": "1", "exps": [int(top), int(top)]}]})


def test_large_polynomial_parses_in_linear_time():
    # 64,000 terms: a reader that adds each term to a copy of the running
    # sum is quadratic and takes tens of seconds on these
    ctx = RingCtx(Q, 3, None)
    p = ctx.make({e: Fraction(i % 17 - 8 or 9, i % 5 + 1)
                  for i, e in enumerate(itertools.product(range(40), repeat=3))})
    assert len(p.terms) == 64000
    for parse, blob in ((poly_from_text, poly_to_text(p)), (poly_from_json, poly_to_json(p))):
        start = time.perf_counter()
        assert parse(ctx, blob) == p
        assert time.perf_counter() - start < 5.0


def test_json_round_trip():
    rng = random.Random(13)
    for ctx in (RingCtx(Q, 2, None), RingCtx(F2, 3, 3)):
        for _ in range(50):
            p = random_poly(rng, ctx)
            assert poly_from_json(ctx, poly_to_json(p)) == p


def test_context_mismatch_raises():
    a = RingCtx(Q, 2, None).one()
    b = RingCtx(Q, 3, None).one()
    with pytest.raises(ContextMismatch):
        a + b
    with pytest.raises(ContextMismatch):
        project(b, RingCtx(Q, 2, 2))


def test_degree_and_leading_term():
    ctx = RingCtx(Q, 2, None)
    x, y = ctx.gens()
    p = x * y + y * y * y
    assert p.degree() == 3
    assert p.leading_term() == ((0, 3), Fraction(1))
    assert ctx.zero().degree() == -1
    sorted_exps = [e for e, _ in p.sorted_terms()]
    assert sorted_exps == [(0, 3), (1, 1)]


def test_truncation_kills_low_degree_products():
    # In F_2[x1,x2,x3] truncated at total degree 2, any product of two
    # generators is already zero, while the generators themselves are not.
    ctx = RingCtx(F2, 3, 2)
    x, y, z = ctx.gens()
    assert (x * y).is_zero()
    assert (x * x).is_zero()
    assert (y * z).is_zero()
    assert not x.is_zero()
    assert not (x + y).is_zero()
