"""Sparse multivariate polynomials over an exact field, with optional
truncation by the ideal (x_1, ..., x_m)^N.

A polynomial is a dict from exponent tuples to nonzero coefficients; zero
coefficients are dropped as they arise, so equality is dict equality. The
canonical term order everywhere (serialization, leading terms, reduction,
ring enumeration) is graded lexicographic with x1 > x2 > ... > xm: compare
total degree first, then the exponent tuple itself. Python's tuple order
implements the lexicographic step directly.

In a truncated context every product discards terms of total degree >= N
as they are formed, never materializing them. With an F_p coefficient
field such a context is a finite ring with p^B elements, where B counts
the monomials of degree below N.

Exponent tuples of one total degree come from :func:`compositions`, the
package's one enumerator of integer compositions; the packing layer draws
its simplex points from it too.

Text form. Spaces are ignored; "" and "0" are the zero polynomial.
Otherwise the text is a run of terms, each led by one sign: none (first
term only), "+", "-" or "+-" (a "+" separator, then a negative
coefficient); any other sign run, or a trailing sign, is malformed. A
term is factors joined by "*": a variable ``x<i>`` with 1 <= i <= nvars,
optionally raised to ``^<digits>``, or a field scalar ``digits`` or
``digits/digits``. A term without a scalar has coefficient 1. Like terms
add up, and a term whose degree reaches the truncation order is
malformed, not silently dropped. :func:`poly_to_text` writes a subset of
this grammar.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from fractions import Fraction

from .errors import (
    ContextMismatch,
    FieldMismatch,
    InfiniteRing,
    MalformedInput,
    NonInvertibleLeadingCoefficient,
    PreconditionViolated,
    TruncationOverflow,
    int_text,
)
from .fields import Field

# every term stores one exponent per variable, about 32 KB at this cap
MAX_NVARS = 4096


def grlex_key(mono: tuple) -> tuple:
    return (sum(mono), mono)


class RingCtx:
    """Coefficient field, number of variables, optional truncation order.

    ``truncation=N`` means computation happens in k[x_1..x_m]/(x_1..x_m)^N;
    ``truncation=None`` is the full polynomial ring. ``nvars=0`` makes the
    context the field itself, which keeps matrix code uniform. At most
    ``MAX_NVARS`` variables.
    """

    __slots__ = ("field", "nvars", "truncation")

    def __init__(self, field: Field, nvars: int, truncation: int | None = None):
        if not isinstance(nvars, int) or isinstance(nvars, bool) or nvars < 0:
            raise ValueError(f"nvars must be a nonnegative int, got {nvars!r}")
        if nvars > MAX_NVARS:
            raise PreconditionViolated(
                f"{int_text(nvars)} variables; a ring has at most {MAX_NVARS}")
        if truncation is not None:
            if not isinstance(truncation, int) or isinstance(truncation, bool):
                raise ValueError("truncation must be an int or None")
            if truncation < 1:
                raise ValueError(f"truncation must be >= 1, got {truncation}")
        self.field = field
        self.nvars = nvars
        self.truncation = truncation

    # -- constructors for elements ---------------------------------------

    def zero(self) -> Poly:
        return Poly(self, {})

    def one(self) -> Poly:
        return self.constant(self.field.one())

    def constant(self, c) -> Poly:
        c = self.field.coerce(c)
        if self.field.is_zero(c):
            return Poly(self, {})
        return Poly(self, {(0,) * self.nvars: c})

    def gens(self) -> list[Poly]:
        return [self.monomial(tuple(int(i == j) for j in range(self.nvars)))
                for i in range(self.nvars)]

    def monomial(self, exps, coeff=1) -> Poly:
        """Single-term polynomial c * x^exps; explicit, so degrees at or
        beyond the truncation order are an error rather than a silent zero."""
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError(f"expected {self.nvars} exponents, got {len(exps)}")
        if any(not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in exps):
            raise ValueError(f"exponents must be nonnegative ints: {exps!r}")
        if self.truncation is not None and sum(exps) >= self.truncation:
            raise TruncationOverflow(
                f"monomial of degree {sum(exps)} in a ring truncated at {self.truncation}")
        c = self.field.coerce(coeff)
        if self.field.is_zero(c):
            return Poly(self, {})
        return Poly(self, {exps: c})

    def make(self, terms: dict) -> Poly:
        """Normalize a raw term dict: drop zeros and truncated-away terms."""
        N = self.truncation
        out = {}
        for mono, c in terms.items():
            if self.field.is_zero(c):
                continue
            if N is not None and sum(mono) >= N:
                continue
            out[mono] = c
        return Poly(self, out)

    # -- comparisons and serialization --------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, RingCtx)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.truncation == other.truncation
        )

    def __hash__(self):
        return hash((self.field, self.nvars, self.truncation))

    def __repr__(self):
        base = f"{self.field}[{', '.join(f'x{i+1}' for i in range(self.nvars))}]"
        if self.truncation is not None:
            base += f"/m^{self.truncation}"
        return base

    def to_json(self) -> dict:
        obj = {"field": self.field.to_json(), "nvars": self.nvars}
        if self.truncation is not None:
            obj["truncation"] = self.truncation
        return obj

    @staticmethod
    def from_json(obj) -> RingCtx:
        if not isinstance(obj, dict):
            raise MalformedInput(f"bad ring description {obj!r}")
        try:
            field = Field.from_json(obj["field"])
            return RingCtx(field, obj["nvars"], obj.get("truncation"))
        except (KeyError, ValueError) as exc:
            raise MalformedInput(f"bad ring description {obj!r}: {exc}") from None


class Poly:
    """Sparse polynomial bound to a :class:`RingCtx`.

    Instances are treated as immutable; all operations return new objects.
    Mixed-context arithmetic raises ContextMismatch, plain ints (and
    Fractions over Q) coerce to constants.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: RingCtx, terms: dict):
        self.ctx = ctx
        self.terms = terms

    # -- classification ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0,) * self.ctx.nvars}

    def constant_value(self):
        if not self.terms:
            return self.ctx.field.zero()
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def leading_term(self) -> tuple[tuple, object]:
        """(monomial, coefficient) of the graded-lex largest term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=grlex_key)
        return mono, self.terms[mono]

    def sorted_terms(self) -> list[tuple[tuple, object]]:
        """Terms in descending graded-lex order (leading term first)."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    # -- arithmetic ----------------------------------------------------------

    def _coerce_other(self, other):
        if isinstance(other, Poly):
            if other.ctx != self.ctx:
                raise ContextMismatch(f"{self.ctx} vs {other.ctx}")
            return other
        return self.ctx.constant(other)

    def __add__(self, other):
        other = self._coerce_other(other)
        field = self.ctx.field
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = field.add(out.get(mono, field.zero()), c)
            if field.is_zero(s):
                out.pop(mono, None)
            else:
                out[mono] = s
        return Poly(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        field = self.ctx.field
        return Poly(self.ctx, {m: field.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce_other(other)
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce_other(other) - self

    def __mul__(self, other):
        other = self._coerce_other(other)
        acc: dict = {}
        _add_products(acc, _term_list(self.terms), _term_list(other.terms),
                      self.ctx.truncation)
        return Poly(self.ctx, _normalise(self.ctx.field, acc))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent must be a nonnegative int, got {e!r}")
        result = self.ctx.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def scale(self, c) -> Poly:
        field = self.ctx.field
        c = field.coerce(c)
        if field.is_zero(c):
            return self.ctx.zero()
        return Poly(self.ctx, {m: field.mul(v, c) for m, v in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ctx == other.ctx and self.terms == other.terms
        if isinstance(other, (int,)) and not isinstance(other, bool):
            return self == self.ctx.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    def __repr__(self):
        return poly_to_text(self)


# -- the product kernel ------------------------------------------------------
#
# Every exact product, of polynomials here and of matrices in matrices.py,
# sums its term products into one accumulator dict whose values are
# unreduced [numerator, denominator] pairs of ints, and normalises each sum
# once at the end. Ints and Fractions both expose .numerator and
# .denominator, so the one loop serves Q and F_p alike; over F_p every
# denominator is 1.


def _term_list(terms: dict) -> list[tuple]:
    """``(monomial, degree, numerator, denominator)`` of each term."""
    return [(m, sum(m), c.numerator, c.denominator) for m, c in terms.items()]


def _add_products(acc: dict, a: list, b: list, truncation: int | None,
                  negate: bool = False):
    """Add (or, with ``negate``, subtract) every term product of the term
    lists ``a`` and ``b`` of degree below ``truncation`` into ``acc``."""
    top = math.inf if truncation is None else truncation
    for m1, d1, n1, q1 in a:
        if negate:
            n1 = -n1
        for m2, d2, n2, q2 in b:
            if d1 + d2 >= top:
                continue
            mono = tuple(map(operator.add, m1, m2))
            q = q1 * q2
            s = acc.get(mono)
            if s is None:
                acc[mono] = [n1 * n2, q]
            elif s[1] == q:
                s[0] += n1 * n2
            else:
                s[0] = s[0] * q + n1 * n2 * s[1]
                s[1] *= q


def _normalise(field: Field, acc: dict) -> dict:
    """The canonical term dict of an accumulator: each sum as a Fraction in
    lowest terms over Q, as a residue in [0, p) over F_p; zeros dropped."""
    if field.kind == "Q":
        return {m: Fraction(n, q) for m, (n, q) in acc.items() if n}
    p = field.p
    return {m: r for m, (n, _) in acc.items() if (r := n % p)}


def project(p: Poly, target: RingCtx) -> Poly:
    """Image of ``p`` in a context truncated at most as high.

    Dropping degrees is the quotient homomorphism; going the other way is
    not well defined, so the target truncation must not exceed the source's.
    """
    src = p.ctx
    if src.field != target.field:
        raise FieldMismatch(f"{src} vs {target}: coefficient fields differ")
    if src.nvars != target.nvars:
        raise ContextMismatch(f"{src} vs {target}: variable counts differ")
    if target.truncation is None and src.truncation is not None:
        raise ContextMismatch(f"cannot lift {src} into the untruncated {target}")
    if (
        target.truncation is not None
        and src.truncation is not None
        and target.truncation > src.truncation
    ):
        raise ContextMismatch(
            f"cannot lift truncation {src.truncation} up to {target.truncation}")
    return target.make(dict(p.terms))


def reduce_by_divisor(p: Poly, g: Poly) -> Poly:
    """Remainder of ``p`` on division by the single divisor ``g`` under
    graded-lex order: no term of the result is divisible by g's leading
    monomial. With one divisor and a fixed order the remainder is unique.
    """
    if not isinstance(g, Poly) or g.ctx != p.ctx:
        raise ContextMismatch("divisor must live in the same ring context")
    if g.is_zero():
        raise NonInvertibleLeadingCoefficient("cannot reduce by the zero polynomial")
    field = p.ctx.field
    lm, lc = g.leading_term()
    if field.is_zero(lc):
        raise NonInvertibleLeadingCoefficient("divisor has zero leading coefficient")
    lc_inv = field.inv(lc)

    remainder: dict = {}
    work = dict(p.terms)
    while work:
        mono = max(work, key=grlex_key)
        coeff = work.pop(mono)
        if all(a >= b for a, b in zip(mono, lm)):
            # cancel this term against (coeff/lc) * x^(mono-lm) * g; the
            # contribution at mono itself is exactly the popped term
            factor = field.mul(coeff, lc_inv)
            shift = tuple(a - b for a, b in zip(mono, lm))
            for gm, gc in g.terms.items():
                if gm == lm:
                    continue
                tm = tuple(a + b for a, b in zip(shift, gm))
                s = field.sub(work.get(tm, field.zero()), field.mul(factor, gc))
                if field.is_zero(s):
                    work.pop(tm, None)
                else:
                    work[tm] = s
        else:
            remainder[mono] = coeff
    return Poly(p.ctx, remainder)


# -- finite ring enumeration ---------------------------------------------


def compositions(total: int, parts: int, cap: int | None = None):
    """Tuples of ``parts`` nonnegative ints summing to ``total``, each at
    most ``cap``, in descending lexicographic order. A loop, so any number
    of parts works: each step takes one unit from the rightmost entry that
    can pass one right, and refills the entries after it greedily."""
    if cap is None:
        cap = total  # no entry can exceed the total anyway
    if total < 0 or total > cap * parts:
        return
    c = [0] * parts
    i, s = 0, total  # c[i:] gets the greatest composition of s
    while True:
        for j in range(i, parts):
            c[j] = min(s, cap)
            s -= c[j]
        yield tuple(c)
        i, s = parts - 1, 0
        while i >= 0 and (not c[i] or s >= cap * (parts - 1 - i)):
            s += c[i]
            i -= 1
        if i < 0:
            return
        c[i] -= 1
        i, s = i + 1, s + 1


def basis_monomials(ctx: RingCtx) -> list[tuple]:
    """Monomials spanning the ring over its field, ascending graded-lex.

    Requires a finite-dimensional context: truncated, or zero variables
    (in which case the ring is the field and the basis is the empty
    monomial alone).
    """
    if ctx.nvars == 0:
        return [()]
    if ctx.truncation is None:
        raise InfiniteRing(f"{ctx} is not finite dimensional over its field")
    out = []
    for deg in range(ctx.truncation):
        # ascending lex within a degree is the enumerator's order reversed
        out.extend(reversed(list(compositions(deg, ctx.nvars))))
    return out


def basis_size(ctx: RingCtx) -> int:
    if ctx.nvars == 0:
        return 1
    if ctx.truncation is None:
        raise InfiniteRing(f"{ctx} is not finite dimensional over its field")
    # monomials of degree < N in m variables
    return math.comb(ctx.nvars + ctx.truncation - 1, ctx.nvars)


def ring_size(ctx: RingCtx) -> int:
    if ctx.field.kind != "Fp":
        raise InfiniteRing(f"{ctx} has an infinite coefficient field")
    return ctx.field.p ** basis_size(ctx)


def enumerate_ring(ctx: RingCtx):
    """Deterministic stream of all elements of a finite context.

    Element number t has the base-p digits of t as its coefficient vector
    on the graded-lex basis, with the graded-lex-earliest basis monomial
    (the constant) as the least significant digit. Yields exactly p^B
    elements, zero first, no repeats.
    """
    size = ring_size(ctx)  # raises InfiniteRing for Q or untruncated nvars > 0
    basis = basis_monomials(ctx)
    for idx in range(size):
        yield element_decode(ctx, basis, idx)


def element_decode(ctx: RingCtx, basis: list[tuple], idx: int) -> Poly:
    p = ctx.field.p
    terms = {}
    for mono in basis:
        idx, digit = divmod(idx, p)
        if digit:
            terms[mono] = digit
    return Poly(ctx, terms)


def element_encode(ctx: RingCtx, basis: list[tuple], poly: Poly) -> int:
    if poly.ctx != ctx:
        raise ContextMismatch(f"{poly.ctx} vs {ctx}")
    pos = {mono: t for t, mono in enumerate(basis)}
    p = ctx.field.p
    idx = 0
    for mono, c in poly.terms.items():
        idx += c * p ** pos[mono]
    return idx


# -- text and JSON serialization -------------------------------------------


def poly_to_text(p: Poly) -> str:
    """Canonical text form: terms in descending graded-lex order, each as
    ``c*x1^e1*...`` with unit exponents elided; the zero polynomial is "0"."""
    if p.is_zero():
        return "0"
    field = p.ctx.field
    chunks = []
    for mono, c in p.sorted_terms():
        factors = [field.to_str(c)]
        for i, e in enumerate(mono):
            if e == 0:
                continue
            factors.append(f"x{i+1}" if e == 1 else f"x{i+1}^{e}")
        chunks.append("*".join(factors))
    return " + ".join(chunks)


_FACTOR_RE = re.compile(r"x([0-9]+)(?:\^([0-9]+))?")
# an optional sign ("+-" composes) and the term it applies to
_TERM_RE = re.compile(r"(\+-|[+-]|)([^+-]+)")


def poly_from_text(ctx: RingCtx, text: str) -> Poly:
    """Parse the text form described in the module docstring."""
    if not isinstance(text, str):
        raise MalformedInput(f"expected a string, got {type(text).__name__}")
    s = text.replace(" ", "")
    if s in ("", "0"):
        return ctx.zero()
    matches = _TERM_RE.findall(s)
    if "".join(sign + term for sign, term in matches) != s:
        raise MalformedInput(f"sign run or dangling sign in {text!r}")
    field = ctx.field
    pairs = []
    for sign, term in matches:
        coeff = field.one()
        exps = [0] * ctx.nvars
        for factor in term.split("*"):
            m = _FACTOR_RE.fullmatch(factor)
            if m:
                try:
                    var = int(m.group(1))
                    e = int(m.group(2)) if m.group(2) else 1
                except ValueError:  # past Python's int-to-str digit limit
                    raise MalformedInput(f"oversized factor in {text!r}") from None
                if not 1 <= var <= ctx.nvars:
                    raise MalformedInput(
                        f"variable x{var} outside x1..x{ctx.nvars} in {text!r}")
                exps[var - 1] += e
            else:
                try:
                    coeff = field.mul(coeff, field.from_str(factor))
                except MalformedInput:
                    raise MalformedInput(f"bad factor {factor!r} in {text!r}") from None
        pairs.append((tuple(exps), field.neg(coeff) if "-" in sign else coeff))
    return _from_terms(ctx, pairs)


def poly_to_json(p: Poly) -> dict:
    return {
        "nvars": p.ctx.nvars,
        "terms": [
            {"coeff": p.ctx.field.to_str(c), "exps": list(mono)}
            for mono, c in p.sorted_terms()
        ],
    }


def poly_from_json(ctx: RingCtx, obj) -> Poly:
    if not isinstance(obj, dict) or "terms" not in obj:
        raise MalformedInput(f"bad polynomial object {obj!r}")
    if obj.get("nvars") != ctx.nvars:
        raise MalformedInput(
            f"polynomial has {obj.get('nvars')} variables, context has {ctx.nvars}")
    if not isinstance(obj["terms"], list):
        raise MalformedInput(f"polynomial terms must be a list, got {obj['terms']!r}")
    pairs = []
    for t in obj["terms"]:
        try:
            pairs.append((tuple(t["exps"]), ctx.field.from_str(str(t["coeff"]))))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"bad term {t!r}: {exc}") from None
    return _from_terms(ctx, pairs)


def _from_terms(ctx: RingCtx, pairs) -> Poly:
    """Sum of the parsed ``(exponent tuple, coefficient)`` pairs, in one
    dict. Every exponent vector is checked, zero terms included."""
    field, N = ctx.field, ctx.truncation
    acc: dict = {}
    for exps, c in pairs:
        if len(exps) != ctx.nvars or any(
            not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in exps
        ):
            raise MalformedInput(f"bad exponent vector {exps!r}")
        if N is not None and sum(exps) >= N:
            raise MalformedInput(f"a term reaches the truncation order {N}")
        acc[exps] = field.add(acc[exps], c) if exps in acc else c
    return _printable(ctx.make(acc))


def _printable(p: Poly) -> Poly:
    """``p``, unless a product or sum of parsed tokens took an exponent or
    coefficient past the digits Python's int-to-str limit lets it write."""
    limit = sys.get_int_max_str_digits()
    for mono, c in p.terms.items():
        # 10^limit has over 3 * limit bits, so shorter ints always print
        if limit and any(k.bit_length() > 3 * limit and abs(k) >= 10 ** limit
                         for k in (*mono, c.numerator, c.denominator)):
            raise MalformedInput(f"a term has over {limit} digits in one number")
    return p
