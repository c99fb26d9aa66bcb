"""Acceptance suite.

One test per shipped guarantee; each prints a single PASS/FAIL line so a
plain ``pytest tests/test_acceptance.py -v -s`` doubles as a checklist.
Every expectation here is exact; there are no tolerances to tune.
"""

import json
import random
import time
from fractions import Fraction

from tracezero.certificates import build_noncommutator, validate_certificate
from tracezero.cli import main as cli_main
from tracezero.fields import Field
from tracezero.matrices import FlagBasis, Matrix, commutator, conjugate
from tracezero.oracle import (
    NoWitness,
    exhaustive_commutator_search,
    exhaustive_noncommutator_check,
    quadric_decomposition_check,
)
from tracezero.packing import (
    best_separated_set,
    build_graph,
    constant_weight_bound,
    matrix_size_from_set,
    max_independent_set,
    quadratic_construction,
    upper_bounds,
)
from tracezero.polynomials import RingCtx, project, reduce_by_divisor
from tracezero.witnesses import (
    hollow_witness,
    nilpotent_witness,
    triangular_witness,
    verify_clique,
)

Q = Field.rationals()
F2 = Field.prime(2)
F101 = Field.prime(101)

CELL_BUDGET = 300.0

# every separated set and certificate produced while this module runs,
# for the closing bound sweep
PRODUCED_SETS = []
PRODUCED_CERTS = []


def note(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_01_pack_table_reproduction(capsys):
    expected = {
        (3, 1): 4, (3, 2): 4, (3, 3): 4,
        (4, 1): 5, (4, 2): 6, (4, 3): 6,
        (5, 1): 7, (5, 2): 10,
        (6, 1): 10, (7, 1): 14, (8, 1): 16,
    }
    # first cell through the real CLI to pin the output contract
    code = cli_main(["pack", "--m", "3", "--d", "1",
                     "--budget", str(CELL_BUDGET)])
    out = capsys.readouterr().out
    obj = json.loads(out)
    ok = code == 0 and obj["size"] == 4 and obj["optimal"] is True
    results = {(3, 1): (obj["size"], obj["optimal"])}

    for (m, d), size in expected.items():
        if (m, d) in results:
            continue
        t0 = time.monotonic()
        s, optimal = best_separated_set(m, d, CELL_BUDGET)
        elapsed = time.monotonic() - t0
        PRODUCED_SETS.append(s)
        results[(m, d)] = (s.size, optimal)
        ok = ok and s.size == size and optimal and elapsed <= CELL_BUDGET

    mismatches = {k: v for k, v in results.items()
                  if v != (expected[k], True)}
    with capsys.disabled():
        note(1, ok and not mismatches,
             f"11 table cells reproduced exactly, all optimal "
             f"(mismatches: {mismatches or 'none'})")


def test_criterion_02_constant_weight_consistency(capsys):
    got = {}
    for m in range(3, 10):
        g = build_graph(m, 1)
        idx, optimal = max_independent_set(g, CELL_BUDGET)
        got[m] = (len(idx), optimal)
    want = {m: (constant_weight_bound(m), True) for m in range(3, 10)}
    with capsys.disabled():
        note(2, got == want,
             f"MIS of G(m,1) equals the closed formula for m=3..9: "
             f"{[got[m][0] for m in range(3, 10)]}")


def test_criterion_03_quadratic_construction(capsys):
    ok = True
    worst = 0.0
    for m in range(3, 13):
        for d in (m - 1, m):
            t0 = time.monotonic()
            s = quadratic_construction(m, d)
            elapsed = time.monotonic() - t0
            worst = max(worst, elapsed)
            PRODUCED_SETS.append(s)
            want = m * (m + 2) // 4 if m % 2 == 0 else (m + 1) ** 2 // 4
            ok = ok and s.size == want and elapsed < 1.0
    with capsys.disabled():
        note(3, ok,
             f"explicit sets verified for m=3..12, d in {{m-1, m}}; "
             f"slowest case {worst * 1000:.1f} ms")


def test_criterion_04_matrix_size_table(capsys):
    # cells from criterion 1 that the size-to-n rule maps onto the n table,
    # plus the d=4 column where the bound is beaten
    expected_n = {(4, 2): 3, (4, 3): 3, (5, 2): 5, (4, 4): 4}
    ok = True
    got = {}
    for (m, d), n_want in expected_n.items():
        s, optimal = best_separated_set(m, d, CELL_BUDGET)
        PRODUCED_SETS.append(s)
        n = matrix_size_from_set(s)
        got[(m, d)] = n
        ok = ok and optimal and n == n_want
    # (4,4) must come from size exactly 7
    s44, _ = best_separated_set(4, 4, CELL_BUDGET)
    ok = ok and s44.size == 7
    with capsys.disabled():
        note(4, ok, f"derived matrix sizes match the table: {got}")


def test_criterion_05_witness_fuzz(capsys):
    rng = random.Random(20240816)
    t0 = time.monotonic()
    failures = 0

    def rand_scalar(field):
        if field.kind == "Q":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return rng.randrange(field.p)

    for field in (Q, F101):
        ctx = RingCtx(field, 0, None)
        for _ in range(500):
            n = rng.randint(2, 8)
            rows = [[ctx.zero()] * n for _ in range(n)]
            diag = [rand_scalar(field) for _ in range(n - 1)]
            total = field.zero()
            for v in diag:
                total = field.add(total, v)
            diag.append(field.neg(total))
            for i in range(n):
                rows[i][i] = ctx.constant(diag[i])
                for j in range(i + 1, n):
                    rows[i][j] = ctx.constant(rand_scalar(field))
            a = Matrix.from_rows(ctx, rows)
            pair = triangular_witness(a)
            if commutator(pair.x, pair.b) != a:
                failures += 1

    for field in (Q, F101):
        ctx = RingCtx(field, 0, None)
        pool = ([Fraction(k) for k in range(1, 9)] if field.kind == "Q"
                else list(range(1, 9)))
        for _ in range(500):
            n = rng.randint(2, 8)
            rows = [[ctx.constant(rand_scalar(field)) if i != j else ctx.zero()
                     for j in range(n)] for i in range(n)]
            a = Matrix.from_rows(ctx, rows)
            clique = verify_clique(pool[: n - 1], ctx)
            pair = hollow_witness(a, clique)
            if commutator(pair.x, pair.b) != a:
                failures += 1

    elapsed = time.monotonic() - t0
    with capsys.disabled():
        note(5, failures == 0 and elapsed < 30.0,
             f"1000 triangular + 1000 hollow witnesses verified, "
             f"{failures} failures, {elapsed:.1f}s")


def test_criterion_06_nilpotent_pipeline(capsys):
    rng = random.Random(424242)
    ctx = RingCtx(F101, 0, None)
    failures = 0
    for _ in range(500):
        n = rng.randint(2, 6)
        strict = [[rng.randrange(101) if j > i else 0 for j in range(n)]
                  for i in range(n)]
        while True:
            rows = [[rng.randrange(101) for _ in range(n)] for _ in range(n)]
            try:
                g = FlagBasis(F101, rows)
                break
            except Exception:
                continue
        a = conjugate(g, Matrix.from_rows(ctx, strict))
        pair = nilpotent_witness(a)
        if commutator(pair.x, pair.b) != a:
            failures += 1
    with capsys.disabled():
        note(6, failures == 0,
             f"500 conjugated nilpotent matrices decomposed, "
             f"{failures} failures")


def test_criterion_07_oracle_desk_scale(capsys):
    cert = build_noncommutator(
        3, 0, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 2, F2)
    PRODUCED_CERTS.append(cert)
    t0 = time.monotonic()
    res = exhaustive_noncommutator_check(cert, 2)
    elapsed = time.monotonic() - t0
    no_witness = isinstance(res, NoWitness) and res.pairs_checked == 16 ** 6

    ctx = RingCtx(F2, 3, 2)
    x, y, _ = ctx.gens()
    control = Matrix.from_rows(ctx, [[ctx.zero(), x], [y, ctx.zero()]])
    found = exhaustive_commutator_search(control)
    control_ok = found is not None and commutator(*found) == control

    with capsys.disabled():
        note(7, no_witness and elapsed < 60.0 and control_ok,
             f"all {res.pairs_checked} pairs excluded in {elapsed:.2f}s; "
             f"hollow control produced a verified witness")


def test_criterion_08_quadric_identity(capsys):
    results = {(5, 2): quadric_decomposition_check(5, 2),
               (5, 3): quadric_decomposition_check(5, 3),
               (13, 5): quadric_decomposition_check(13, 5)}
    with capsys.disabled():
        note(8, all(results.values()),
             f"sphere-relation decomposition holds: {results}")


def test_criterion_09_bound_invariants(capsys):
    # sweep everything the earlier criteria produced, then add a fresh grid
    for m in range(3, 9):
        for d in range(1, 4):
            s, _ = best_separated_set(m, d, 5.0)
            PRODUCED_SETS.append(s)
    for m in range(3, 9):
        s = quadratic_construction(m, m)
        PRODUCED_SETS.append(s)
        cert = build_noncommutator(
            m, m, list(s.points), matrix_size_from_set(s), F2)
        PRODUCED_CERTS.append(cert)

    set_ok = all(s.size <= 4 ** (s.m - 1) for s in PRODUCED_SETS)
    cert_ok = all(
        c.n <= 2 ** (2 * c.m - 3) and validate_certificate(c).ok
        for c in PRODUCED_CERTS)
    with capsys.disabled():
        note(9, set_ok and cert_ok,
             f"{len(PRODUCED_SETS)} sets within 4^(m-1); "
             f"{len(PRODUCED_CERTS)} certificates within 2^(2m-3)")


def test_criterion_10_algebra_property_suite(capsys):
    rng = random.Random(99)
    contexts = [
        RingCtx(Q, 0, None),
        RingCtx(F101, 0, None),
        RingCtx(Q, 2, None),
        RingCtx(F2, 3, 2),
        RingCtx(Field.prime(5), 1, 4),
    ]

    def rand_poly(ctx):
        if ctx.nvars == 0:
            return ctx.constant(ctx.field.random(rng))
        out = ctx.zero()
        for _ in range(rng.randrange(3)):
            exps = [0] * ctx.nvars
            cap = ctx.truncation if ctx.truncation is not None else 4
            for _ in range(rng.randrange(cap)):
                exps[rng.randrange(ctx.nvars)] += 1
            if ctx.truncation is not None and sum(exps) >= ctx.truncation:
                continue
            out = out + ctx.monomial(tuple(exps)).scale(ctx.field.random(rng))
        return out

    trace_ok = True
    for ctx in contexts:
        for _ in range(500):
            n = rng.randint(1, 3)
            b = Matrix.from_rows(
                ctx, [[rand_poly(ctx) for _ in range(n)] for _ in range(n)])
            c = Matrix.from_rows(
                ctx, [[rand_poly(ctx) for _ in range(n)] for _ in range(n)])
            lie = commutator(b, c)
            trace_ok = trace_ok and (b * c).trace() == (c * b).trace()
            trace_ok = trace_ok and lie.trace().is_zero()
            trace_ok = trace_ok and (b * lie).trace().is_zero()

    full = RingCtx(F101, 2, None)
    trunc = RingCtx(F101, 2, 3)
    hom_ok = True
    for _ in range(500):
        a = rand_poly(full)
        b = rand_poly(full)
        hom_ok = hom_ok and project(a * b, trunc) == project(a, trunc) * project(b, trunc)
        hom_ok = hom_ok and project(a + b, trunc) == project(a, trunc) + project(b, trunc)

    red_ctx = RingCtx(Q, 2, None)
    gx, gy = red_ctx.gens()
    divisor = gx * gx + gy - red_ctx.one()
    red_ok = True
    for _ in range(500):
        p = rand_poly(red_ctx)
        r = reduce_by_divisor(p, divisor)
        red_ok = red_ok and reduce_by_divisor(r, divisor) == r

    with capsys.disabled():
        note(10, trace_ok and hom_ok and red_ok,
             "trace identities (2500 samples), truncation homomorphism "
             "(500), reduction idempotence (500) all exact")


def test_upper_bounds_helper():
    # companion sanity for the bound sweep: the closed forms themselves
    assert upper_bounds(3) == (16, 8)
    assert upper_bounds(8) == (4 ** 7, 2 ** 13)


def test_public_names():
    # __all__ is computed from the package's imports; it must list the
    # same API, in the same order, as the hand-written list it replaced
    import tracezero

    assert tracezero.__all__ == [
        "Certificate", "ValidationReport", "build_noncommutator",
        "certificate_from_json", "certificate_to_json", "validate_certificate",
        "BudgetExceeded", "Error", "MalformedInput", "ValidationFailed",
        "Field", "Matrix", "commutator", "conjugate", "kernel_basis",
        "nilpotent_flag", "FoundWitness", "NoWitness",
        "exhaustive_commutator_search", "exhaustive_noncommutator_check",
        "quadric_decomposition_check", "SeparatedSet", "SepGraph",
        "best_separated_set", "build_graph", "constant_weight_bound",
        "corner_points", "interior_candidates", "is_d_separated",
        "matrix_size_from_set", "max_independent_set", "normalize_with_corners",
        "quadratic_construction", "simplex_points", "upper_bounds", "Poly",
        "RingCtx", "basis_monomials", "enumerate_ring", "poly_from_text",
        "poly_to_text", "project", "reduce_by_divisor", "ring_size", "Clique",
        "WitnessPair", "hollow_witness", "nilpotent_witness",
        "triangular_witness", "verify_clique", "witness_from_json",
        "witness_to_json",
    ]
