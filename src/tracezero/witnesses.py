"""Verified commutator decompositions A = [X, B] for three matrix shapes:
strictly-bounded upper triangular, hollow (zero diagonal), and nilpotent.

Every construction re-checks its output before returning: a WitnessPair
cannot exist without [X, B] actually equaling the target.

The triangular route uses no division at all, so it works over any ring
context, truncated quotients included. The hollow route divides only by
differences of clique scalars, which live in the coefficient field.
"""

from __future__ import annotations

from .errors import (
    CliqueTooSmall,
    DifferenceNotAUnit,
    FieldMismatch,
    MalformedInput,
    NotAUnit,
    NotHollow,
    NotUpperTriangular,
    NonzeroTrace,
    ValidationFailed,
)
from .fields import Field
from .matrices import FlagBasis, Matrix, commutator, conjugate, nilpotent_flag
from .polynomials import RingCtx


class Clique:
    """Pairwise-separated units of a coefficient field: every element and
    every pairwise difference is invertible. Build via verify_clique."""

    __slots__ = ("field", "elements")

    def __init__(self, field: Field, elements: tuple):
        self.field = field
        self.elements = elements

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"Clique({self.field}, {list(self.elements)!r})"


def verify_clique(elements, ctx: RingCtx) -> Clique:
    """Check the clique conditions in the coefficient field of ``ctx``.

    Over a field, "unit" means nonzero, so the conditions reduce to: all
    elements nonzero and pairwise distinct.
    """
    field = ctx.field
    coerced = [field.coerce(e) for e in elements]
    for i, e in enumerate(coerced):
        if field.is_zero(e):
            raise NotAUnit(f"clique element {i+1} is zero in {field}")
    # field elements are canonical values, so a zero difference is a repeat
    first: dict = {}
    for j, e in enumerate(coerced):
        i = first.setdefault(e, j)
        if i != j:
            raise DifferenceNotAUnit(f"elements {i+1} and {j+1} coincide in {field}")
    return Clique(field, tuple(coerced))


class WitnessPair:
    """A target A together with X, B such that [X, B] = A, re-verified at
    construction time."""

    __slots__ = ("target", "x", "b")

    def __init__(self, target: Matrix, x: Matrix, b: Matrix):
        if commutator(x, b) != target:
            raise ValidationFailed("[X, B] does not equal the target matrix")
        self.target = target
        self.x = x
        self.b = b

    def __repr__(self):
        return f"WitnessPair(n={self.target.n}, ctx={self.target.ctx})"


def triangular_witness(a: Matrix) -> WitnessPair:
    """Decompose a strictly-bounded upper triangular trace-zero matrix.

    X is the superdiagonal shift and B is filled row by row: the first row
    is zero, the second copies the target's first row, and each later row
    adds the previous target row to the previous B row shifted one column
    right. Only additions occur, so any ring context is fine.
    """
    ctx = a.ctx
    n = a.n
    for i in range(n):
        for j in range(i):
            if not a.rows[i][j].is_zero():
                raise NotUpperTriangular(
                    f"entry ({i+1},{j+1}) below the diagonal is nonzero")
    if not a.trace().is_zero():
        raise NonzeroTrace(f"trace is {a.trace()}, expected 0")

    zero = ctx.zero()
    b_rows = [[zero for _ in range(n)] for _ in range(n)]
    if n >= 2:
        b_rows[1] = list(a.rows[0])
    for i in range(2, n):
        for j in range(n):
            left = b_rows[i - 1][j - 1] if j >= 1 else zero
            b_rows[i][j] = a.rows[i - 1][j] + left
    shift = Matrix.from_rows(ctx, [[int(j == i + 1) for j in range(n)] for i in range(n)])
    return WitnessPair(a, shift, Matrix(ctx, b_rows))


def hollow_witness(a: Matrix, clique: Clique) -> WitnessPair:
    """Decompose a hollow matrix using a clique of size at least n for an
    (n+1) x (n+1) target.

    X is the diagonal (0, r_1, ..., r_n) of clique scalars; B carries
    (r_i - r_j)^{-1} a_ij off the diagonal. The inverses are taken in the
    coefficient field, never in the ring.
    """
    ctx = a.ctx
    n = a.n
    field = ctx.field
    if clique.field != field:
        raise FieldMismatch(f"clique over {clique.field}, matrix over {field}")
    if len(clique) < n - 1:
        raise CliqueTooSmall(
            f"need {n - 1} clique elements for a {n}x{n} target, have {len(clique)}")
    for i in range(n):
        if not a.rows[i][i].is_zero():
            raise NotHollow(f"diagonal entry ({i+1},{i+1}) is nonzero")

    r = [field.zero()] + list(clique.elements[: n - 1])
    x = Matrix.from_rows(
        ctx,
        [[ctx.constant(r[i]) if i == j else ctx.zero() for j in range(n)]
         for i in range(n)],
    )
    b_rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(ctx.zero())
                continue
            # verify_clique makes every difference a unit; a hand-built bad
            # Clique ends in DivisionByZero here
            row.append(a.rows[i][j].scale(field.inv(field.sub(r[i], r[j]))))
        b_rows.append(row)
    return WitnessPair(a, x, Matrix(ctx, b_rows))


def nilpotent_witness(a: Matrix) -> WitnessPair:
    """Decompose a nilpotent matrix over a field.

    Conjugate into strictly upper triangular form through the kernel-flag
    basis, decompose there (trace zero comes for free), and conjugate the
    pair back.
    """
    g = nilpotent_flag(a)  # raises NotNilpotent when a is not
    t = conjugate(g, a)
    if not t.trace().is_zero():
        raise RuntimeError(f"conjugated nilpotent matrix has trace {t.trace()}")
    inner = triangular_witness(t)
    h = g.inverse()
    x = conjugate(h, inner.x)
    b = conjugate(h, inner.b)
    return WitnessPair(a, x, b)


# -- serialization -----------------------------------------------------------


def witness_to_json(w: WitnessPair) -> dict:
    return {"target": w.target.to_json(), "X": w.x.to_json(), "B": w.b.to_json()}


def witness_from_json(obj) -> WitnessPair:
    """Rebuild and re-verify a serialized pair; verification cannot be
    skipped because WitnessPair re-checks the commutator."""
    if not isinstance(obj, dict):
        raise MalformedInput(f"bad witness object {obj!r}")
    try:
        target = Matrix.from_json(obj["target"])
        x = Matrix.from_json(obj["X"])
        b = Matrix.from_json(obj["B"])
    except KeyError as exc:
        raise MalformedInput(f"witness object lacks key {exc}") from None
    return WitnessPair(target, x, b)
