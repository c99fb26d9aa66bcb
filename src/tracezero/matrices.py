"""Dense square matrices over a ring context, plus the field-level linear
algebra needed by the witness constructions: exact kernels, inverses, and
the basis flag that triangularizes a nilpotent matrix. All three come from
one row reduction, :func:`_rref`; the flag keeps the pivot columns of the
stacked kernel bases of the matrix's powers.

Matrix entries are :class:`~tracezero.polynomials.Poly` values sharing one
context. Products and :func:`commutator` share one kernel,
:func:`_product_sum`: it walks only the nonzero entries of each row,
sums every term product of an output entry into one accumulator of the
polynomial product kernel, and normalises the entry once. The flag's
powers ``a^k`` are matrix products too. Division never happens at the
matrix level; operations that need it (kernels, inverses, flags) require
constant entries and work on the underlying field scalars.
"""

from __future__ import annotations

from .errors import (
    ContextMismatch,
    FieldMismatch,
    MalformedInput,
    NonConstantEntries,
    NotNilpotent,
    ShapeMismatch,
    SingularBasis,
    int_text,
)
from .fields import Field
from .polynomials import (
    Poly,
    RingCtx,
    _add_products,
    _normalise,
    _term_list,
    poly_from_json,
    poly_from_text,
    poly_to_text,
)


class Matrix:
    """Immutable-by-convention n x n matrix over a single ring context."""

    __slots__ = ("ctx", "n", "rows")

    def __init__(self, ctx: RingCtx, rows: list[list[Poly]]):
        self.ctx = ctx
        self.n = len(rows)
        self.rows = rows

    @staticmethod
    def from_rows(ctx: RingCtx, rows) -> Matrix:
        """Build from any square nest of entries; ints, field scalars and
        text forms coerce to polynomials in ``ctx``."""
        n = len(rows)
        if n == 0:
            raise ShapeMismatch("matrices must have at least one row")
        out = []
        for r in rows:
            r = list(r)
            if len(r) != n:
                raise ShapeMismatch(f"expected {n}x{n}, got a row of length {len(r)}")
            out.append([Matrix._coerce_entry(ctx, e) for e in r])
        return Matrix(ctx, out)

    @staticmethod
    def _coerce_entry(ctx: RingCtx, e) -> Poly:
        if isinstance(e, Poly):
            if e.ctx != ctx:
                raise ContextMismatch(f"entry context {e.ctx} differs from {ctx}")
            return e
        if isinstance(e, str):
            return poly_from_text(ctx, e)
        return ctx.constant(e)

    @staticmethod
    def zeros(ctx: RingCtx, n: int) -> Matrix:
        return Matrix(ctx, [[ctx.zero() for _ in range(n)] for _ in range(n)])

    @staticmethod
    def identity(ctx: RingCtx, n: int) -> Matrix:
        return Matrix(
            ctx,
            [[ctx.one() if i == j else ctx.zero() for j in range(n)] for i in range(n)],
        )

    def entry(self, i: int, j: int) -> Poly:
        return self.rows[i][j]

    def _check_compatible(self, other: Matrix):
        if not isinstance(other, Matrix):
            raise TypeError(f"expected a Matrix, got {type(other).__name__}")
        if self.ctx != other.ctx:
            raise ContextMismatch(f"{self.ctx} vs {other.ctx}")
        if self.n != other.n:
            raise ShapeMismatch(f"{self.n}x{self.n} vs {other.n}x{other.n}")

    def __add__(self, other):
        self._check_compatible(other)
        return Matrix(self.ctx, [
            [a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)
        ])

    def __sub__(self, other):
        self._check_compatible(other)
        return Matrix(self.ctx, [
            [a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)
        ])

    def __neg__(self):
        return Matrix(self.ctx, [[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        self._check_compatible(other)
        return _product_sum(self.ctx, [(False, _sparse_rows(self), _sparse_rows(other))])

    def scale(self, c) -> Matrix:
        return Matrix(self.ctx, [[e.scale(c) for e in r] for r in self.rows])

    def trace(self) -> Poly:
        acc = self.ctx.zero()
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(e.is_zero() for r in self.rows for e in r)

    def is_constant(self) -> bool:
        return all(e.is_constant() for r in self.rows for e in r)

    def constant_rows(self) -> list[list]:
        """Field scalars of a constant matrix; NonConstantEntries otherwise."""
        out = []
        for i, r in enumerate(self.rows):
            row = []
            for j, e in enumerate(r):
                if not e.is_constant():
                    raise NonConstantEntries(f"entry ({i+1},{j+1}) = {e} is not constant")
                row.append(e.constant_value())
            out.append(row)
        return out

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.ctx == other.ctx and self.n == other.n and self.rows == other.rows

    def __repr__(self):
        body = "; ".join(", ".join(poly_to_text(e) for e in r) for r in self.rows)
        return f"[{body}]"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "ctx": self.ctx.to_json(),
            "entries": [[poly_to_text(e) for e in r] for r in self.rows],
        }

    @staticmethod
    def from_json(obj) -> Matrix:
        if not isinstance(obj, dict) or "entries" not in obj:
            raise MalformedInput(f"bad matrix object {obj!r}")
        if "ctx" not in obj:
            raise MalformedInput("matrix object lacks a ring context")
        ctx = RingCtx.from_json(obj["ctx"])
        entries = obj["entries"]
        if not isinstance(entries, list):
            raise MalformedInput(f"matrix entries must be a list, got {entries!r}")
        n = obj.get("n", len(entries))
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise MalformedInput("matrix size n must be a positive int")
        if len(entries) != n:
            raise MalformedInput(f"matrix body does not match n={int_text(n)}")
        rows = []
        for r in entries:
            if not isinstance(r, list) or len(r) != n:
                raise MalformedInput(f"matrix body does not match n={n}")
            row = []
            for e in r:
                if isinstance(e, dict):
                    row.append(poly_from_json(ctx, e))
                elif isinstance(e, str):
                    row.append(poly_from_text(ctx, e))
                elif isinstance(e, int) and not isinstance(e, bool):
                    row.append(ctx.constant(e))
                else:
                    raise MalformedInput(f"bad matrix entry {e!r}")
            rows.append(row)
        return Matrix(ctx, rows)


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """[a, b] = a b - b a, in one pass: each entry sums the term products
    of both halves before it is normalised."""
    a._check_compatible(b)
    ra, rb = _sparse_rows(a), _sparse_rows(b)
    return _product_sum(a.ctx, [(False, ra, rb), (True, rb, ra)])


def _sparse_rows(a: Matrix) -> list[list]:
    """Per row, ``(column, term list)`` of each nonzero entry."""
    return [[(k, _term_list(e.terms)) for k, e in enumerate(r) if e.terms]
            for r in a.rows]


def _product_sum(ctx: RingCtx, products) -> Matrix:
    """The sum of the matrix products ``x y``, subtracted where ``negate``
    is set, over ``(negate, x, y)`` in ``products``; x and y come as
    :func:`_sparse_rows`. Entry (i, j) accumulates every term product
    of row i of x against column j of y in one dict, then normalises."""
    field, truncation = ctx.field, ctx.truncation
    n = len(products[0][1])
    accs = [[{} for _ in range(n)] for _ in range(n)]
    for negate, x, y in products:
        for acc_row, x_row in zip(accs, x):
            for k, tx in x_row:
                for j, ty in y[k]:
                    _add_products(acc_row[j], tx, ty, truncation, negate)
    return Matrix(ctx, [[Poly(ctx, _normalise(field, acc)) for acc in r] for r in accs])


# -- exact linear algebra over the coefficient field ------------------------


def _rref(field: Field, rows: list[list], ncols: int):
    """Reduced row echelon form in place on a copy; returns (rows, pivots).

    Pivots are chosen greedily in column order, which keeps every
    downstream basis choice deterministic.
    """
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if not field.is_zero(m[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(v, inv) for v in m[r]]
        for i in range(len(m)):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def _kernel(field: Field, rows: list[list], ncols: int) -> list[list]:
    """Basis of the right kernel, one vector per free column, ascending."""
    rref, pivots = _rref(field, rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [field.zero()] * ncols
        v[free] = field.one()
        for r, c in enumerate(pivots):
            v[c] = field.neg(rref[r][free])
        basis.append(v)
    return basis


def kernel_basis(a: Matrix) -> list[list]:
    """Kernel of a constant matrix as a list of field-scalar vectors."""
    return _kernel(a.ctx.field, a.constant_rows(), a.n)


class FlagBasis:
    """An invertible change of basis over a field, stored row-wise.

    ``conjugate(g, a)`` computes g a g^{-1}; invertibility is checked at
    construction and the inverse cached.
    """

    __slots__ = ("field", "n", "rows", "_inv_rows")

    def __init__(self, field: Field, rows: list[list]):
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise ShapeMismatch("flag basis must be square")
        rows = [[field.coerce(v) for v in r] for r in rows]
        # the inverse by Gauss-Jordan on [rows | I]
        aug = [r + [field.one() if i == j else field.zero() for j in range(n)]
               for i, r in enumerate(rows)]
        reduced, pivots = _rref(field, aug, n)
        if len(pivots) != n:
            raise SingularBasis("basis matrix is singular")
        self.field = field
        self.n = n
        self.rows = rows
        self._inv_rows = [r[n:] for r in reduced]

    def inverse(self) -> FlagBasis:
        """The basis of the cached inverse, whose inverse is these rows."""
        inv = object.__new__(FlagBasis)
        inv.field, inv.n = self.field, self.n
        inv.rows, inv._inv_rows = self._inv_rows, self.rows
        return inv

    def as_matrix(self, ctx: RingCtx) -> Matrix:
        if ctx.field != self.field:
            raise FieldMismatch(f"basis over {self.field}, context over {ctx.field}")
        return Matrix.from_rows(ctx, [[ctx.constant(v) for v in r] for r in self.rows])

    def inverse_matrix(self, ctx: RingCtx) -> Matrix:
        return self.inverse().as_matrix(ctx)

    def __repr__(self):
        return f"FlagBasis({self.rows!r})"


def conjugate(g: FlagBasis, a: Matrix) -> Matrix:
    """g a g^{-1}; the division lives entirely inside g's cached inverse."""
    if g.n != a.n:
        raise ShapeMismatch(f"basis is {g.n}x{g.n}, matrix is {a.n}x{a.n}")
    return g.as_matrix(a.ctx) * a * g.inverse_matrix(a.ctx)


def _is_strictly_upper(a: Matrix) -> bool:
    return all(
        a.rows[i][j].is_zero() for i in range(a.n) for j in range(a.n) if j <= i
    )


def nilpotent_flag(a: Matrix) -> FlagBasis:
    """A basis g with g a g^{-1} strictly upper triangular.

    Stacks the kernel bases of a, a^2, ... as columns, in the order
    :func:`_kernel` gives them, up to the first power whose kernel is
    everything; none by a^n means a is not nilpotent. The pivot columns
    of that stack are the vectors independent of those before them, a
    full basis refining the filtration ker a <= ker a^2 <= ... . Each
    layer lands inside the span of the earlier ones under a, which is
    exactly strict triangularity.
    """
    field = a.ctx.field
    n = a.n

    candidates: list[list] = []
    power = a
    for _ in range(n):
        kernel = _kernel(field, power.constant_rows(), n)
        candidates.extend(kernel)
        if len(kernel) == n:
            break
        power = power * a
    else:
        raise NotNilpotent(f"a^{n} != 0 for the {n}x{n} input")
    stacked = [[v[i] for v in candidates] for i in range(n)]
    _, pivots = _rref(field, stacked, len(candidates))

    # columns of p are the flag-adapted basis; g is its inverse
    g = FlagBasis(field, [[stacked[i][c] for c in pivots] for i in range(n)]).inverse()

    conj = conjugate(g, a)
    if not _is_strictly_upper(conj):
        raise NotNilpotent("flag conjugation did not triangularize the input")
    return g

