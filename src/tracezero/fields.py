"""Exact scalar arithmetic: the rationals and small prime fields.

Elements are plain Python values so they can sit directly in polynomial
term dicts and matrix rows: `fractions.Fraction` over Q (always in lowest
terms with positive denominator, so equality is plain ``==``), and ``int``
residues in ``[0, p)`` over F_p. A :class:`Field` instance carries the
operations; the values themselves stay unwrapped.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DivisionByZero, MalformedInput, PreconditionViolated

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# residue products must stay exact in 64-bit intermediates used elsewhere
MAX_MODULUS = 2**31

# the only scalar text forms: an integer or a quotient of integers; ASCII
# digits only, so Fraction's decimal and exponent forms never reach it
_SCALAR_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every 64-bit input."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The rationals (kind ``"Q"``) or a prime field (kind ``"Fp"``).

    The modulus of an F_p field is verified prime at construction and must
    be below 2^31; any bad argument raises PreconditionViolated.
    """

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == "Q":
            if p is not None:
                raise PreconditionViolated("the rationals take no modulus")
        elif kind == "Fp":
            if not isinstance(p, int) or isinstance(p, bool):
                raise PreconditionViolated("prime field modulus must be an int")
            if p < 2 or p >= MAX_MODULUS:
                raise PreconditionViolated(
                    f"modulus must satisfy 2 <= p < 2^31, got {p}")
            if not is_prime(p):
                raise PreconditionViolated(f"modulus {p} is not prime")
        else:
            raise PreconditionViolated(f"unknown field kind {kind!r}")
        self.kind = kind
        self.p = p

    @staticmethod
    def rationals() -> Field:
        return Field("Q")

    @staticmethod
    def prime(p: int) -> Field:
        return Field("Fp", p)

    # -- element construction -------------------------------------------

    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def coerce(self, v):
        """Map an int, Fraction or string to a field element."""
        if isinstance(v, str):
            return self.from_str(v)
        if self.kind == "Q":
            if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
                return Fraction(v)
            raise ValueError(f"cannot coerce {v!r} into Q")
        if isinstance(v, Fraction):
            if v.denominator == 1:
                return v.numerator % self.p
            raise ValueError(f"cannot coerce non-integer rational {v} into F_{self.p}")
        if isinstance(v, int) and not isinstance(v, bool):
            return v % self.p
        raise ValueError(f"cannot coerce {v!r} into F_{self.p}")

    # -- arithmetic ------------------------------------------------------

    def add(self, a, b):
        return a + b if self.kind == "Q" else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.kind == "Q" else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.kind == "Q" else a * b % self.p

    def neg(self, a):
        return -a if self.kind == "Q" else -a % self.p

    def inv(self, a):
        if self.is_zero(a):
            raise DivisionByZero(f"inverse of zero in {self}")
        if self.kind == "Q":
            return Fraction(1) / a
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    def random(self, rng):
        if self.kind == "Q":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return rng.randrange(self.p)

    # -- presentation and serialization ----------------------------------

    def to_str(self, a) -> str:
        return str(a)

    def from_str(self, s: str):
        """Parse ``[+-]digits`` or ``[+-]digits/digits``; anything else,
        and any digit run past Python's int-to-str limit, is MalformedInput."""
        s = s.strip()
        if not _SCALAR_RE.fullmatch(s):
            raise MalformedInput(f"bad {self} element {s!r}")
        try:
            if self.kind == "Q":
                return Fraction(s)
            if "/" in s:
                num, den = s.split("/", 1)
                return self.div(int(num, 10) % self.p, int(den, 10) % self.p)
            return int(s, 10) % self.p
        except (ValueError, ZeroDivisionError, DivisionByZero) as exc:
            raise MalformedInput(f"bad {self} element {s!r}: {exc}") from None

    def to_json(self) -> dict:
        if self.kind == "Q":
            return {"kind": "Q"}
        return {"kind": "Fp", "p": self.p}

    @staticmethod
    def from_json(obj) -> Field:
        if not isinstance(obj, dict) or "kind" not in obj:
            raise MalformedInput(f"bad field description {obj!r}")
        kind = obj["kind"]
        try:
            if kind == "Q":
                extra = set(obj) - {"kind"}
                if extra:
                    raise ValueError(f"unexpected keys {sorted(extra)}")
                return Field.rationals()
            if kind == "Fp":
                return Field.prime(obj["p"])
        except (ValueError, KeyError) as exc:
            raise MalformedInput(f"bad field description {obj!r}: {exc}") from None
        raise MalformedInput(f"unknown field kind {kind!r}")

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "Q" if self.kind == "Q" else f"F_{self.p}"
