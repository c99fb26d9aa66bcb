"""Self-contained certificates of trace-zero matrices that are not
commutators over a polynomial ring.

A certificate pins a field k, dimensions (m, d, n), an ordered list S of
2n - 1 points with coordinate sum 2d + 1 that is 2d-separated, and the
n x n matrix X over k[x_1..x_m] built from S: the first row carries the
monomials of the first n points, the first column below the corner the
remaining n - 1, the last diagonal entry is minus the leading monomial,
and everything else is zero. The separation of S is what makes X fail to
be a commutator; the validator rechecks every hypothesis independently,
and serialization is canonical JSON so round trips are byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    BadDimensions,
    MalformedInput,
    TooFewPoints,
    ValidationFailed,
    int_text,
)
from .fields import Field
from .matrices import Matrix
from .packing import check_simplex_points, l1_distance, simplex_point_fault
from .polynomials import RingCtx


@dataclass(frozen=True)
class Certificate:
    m: int
    d: int
    n: int
    field: Field
    points: tuple
    x: Matrix

    @property
    def ctx(self) -> RingCtx:
        return self.x.ctx


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def _certificate_matrix(ctx: RingCtx, n: int, points) -> Matrix:
    rows = [[ctx.zero() for _ in range(n)] for _ in range(n)]
    for j in range(n):
        rows[0][j] = ctx.monomial(points[j])
    for i in range(1, n):
        rows[i][0] = ctx.monomial(points[n + i - 1])
    rows[n - 1][n - 1] = -ctx.monomial(points[0])
    return Matrix(ctx, rows)


def build_noncommutator(m: int, d: int, points, n: int, field: Field) -> Certificate:
    """Assemble and fully validate a certificate from an ordered point set.

    ``points`` may be longer than needed; the first 2n - 1 entries are
    used. Separation is checked on exactly those.
    """
    if m < 3:
        raise BadDimensions(f"need m >= 3 variables, got {m}")
    if n < 2:
        raise BadDimensions(f"need matrix size n >= 2, got {n}")
    if d < 0:
        raise BadDimensions(f"need d >= 0, got {d}")
    pts = [tuple(p) for p in points]
    if len(pts) < 2 * n - 1:
        raise TooFewPoints(f"need {2 * n - 1} points for n = {n}, have {len(pts)}")
    pts = pts[: 2 * n - 1]
    check_simplex_points(m, d, pts)

    ctx = RingCtx(field, m, None)
    x = _certificate_matrix(ctx, n, pts)
    if not x.trace().is_zero():
        raise RuntimeError(f"certificate matrix has trace {x.trace()}")
    cert = Certificate(m, d, n, field, tuple(pts), x)
    report = validate_certificate(cert)
    if not report.ok:
        raise ValidationFailed("; ".join(c.name for c in report.failures()))
    return cert


def validate_certificate(cert: Certificate) -> ValidationReport:
    """Recheck every certificate hypothesis; one result line each."""
    checks = []

    def check(name, passed, detail=""):
        checks.append(CheckResult(name, bool(passed), detail))

    # header ints come from untrusted JSON, so details go through int_text
    m, d, n = cert.m, cert.d, cert.n
    check("dimensions", m >= 3 and n >= 2 and d >= 0,
          f"m={int_text(m)}, d={int_text(d)}, n={int_text(n)}")
    check("point count", len(cert.points) == 2 * n - 1,
          f"{len(cert.points)} points for n={int_text(n)}")

    r = int_text(2 * d + 1)
    bad = [p for p in cert.points if simplex_point_fault(m, d, p)]
    check("simplex membership", not bad,
          f"{len(bad)} points outside the sum-{r} simplex" if bad else f"sum {r}")

    # the pairwise scan is quadratic, so it runs only on a point list of
    # the right length, never on an oversized untrusted one
    if not bad and n >= 2 and len(cert.points) == 2 * n - 1:
        mind = min(l1_distance(p, q)
                   for i, p in enumerate(cert.points)
                   for q in cert.points[i + 1:])
        sep = mind > 2 * d
        check("separation", sep,
              f"min pairwise distance {int_text(mind)} > {int_text(2 * d)}")
        # equal-sum points sit at even distances, so separation is
        # equivalently distance >= 2d + 2
        check("separation parity", mind >= 2 * d + 2 if sep else False,
              f"min distance {int_text(mind)} >= {int_text(2 * d + 2)}")
    else:
        check("separation", False, "not checkable")
        check("separation parity", False, "not checkable")

    ctx_ok = (cert.x.ctx.field == cert.field and cert.x.ctx.nvars == m
              and cert.x.ctx.truncation is None)
    check("matrix context", ctx_ok,
          f"{cert.x.ctx}" if ctx_ok else f"{cert.x.ctx} does not match the header")
    check("matrix size", cert.x.n == n, f"{cert.x.n}x{cert.x.n}")

    if ctx_ok and cert.x.n == n and not bad and len(cert.points) == 2 * n - 1:
        expected = _certificate_matrix(cert.x.ctx, n, cert.points)
        diff = [(i, j) for i in range(n) for j in range(n)
                if cert.x.rows[i][j] != expected.rows[i][j]]
        check("matrix shape", not diff,
              "entries follow the point list" if not diff
              else f"entries {[(i + 1, j + 1) for i, j in diff]} deviate")
        check("trace zero", cert.x.trace().is_zero(), str(cert.x.trace()))
    else:
        check("matrix shape", False, "not checkable")
        check("trace zero", False, "not checkable")

    # n <= 2^(2m-3) by bit length, so a huge m never builds the power
    check("size bound", m < 3 or n <= 1 or (n - 1).bit_length() <= 2 * m - 3,
          f"n={int_text(n)} <= 2^{int_text(2 * m - 3)}" if m >= 3
          else f"n={int_text(n)}, m={int_text(m)} < 3")
    return ValidationReport(tuple(checks))


# -- canonical JSON -----------------------------------------------------------


def certificate_to_json(cert: Certificate) -> str:
    obj = {
        "m": cert.m,
        "d": cert.d,
        "n": cert.n,
        "field": cert.field.to_json(),
        "S": [list(p) for p in cert.points],
        "X": cert.x.to_json(),
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def certificate_from_json(text: str, validate: bool = True) -> Certificate:
    """Parse a certificate; with ``validate`` (the default) the full
    hypothesis suite runs and failures raise ValidationFailed."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise MalformedInput(f"certificate is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise MalformedInput("certificate JSON must be an object")
    missing = {"m", "d", "n", "field", "S", "X"} - set(obj)
    if missing:
        raise MalformedInput(f"certificate lacks keys {sorted(missing)}")
    m, d, n = obj["m"], obj["d"], obj["n"]
    for name, v in (("m", m), ("d", d), ("n", n)):
        if not isinstance(v, int) or isinstance(v, bool):
            raise MalformedInput(f"certificate key {name} must be an int")
    field = Field.from_json(obj["field"])
    if not isinstance(obj["S"], list):
        raise MalformedInput("certificate key S must be a list of points")
    points = []
    for p in obj["S"]:
        if not isinstance(p, list) or any(
            not isinstance(c, int) or isinstance(c, bool) for c in p
        ):
            raise MalformedInput(f"bad point {p!r} in S")
        points.append(tuple(p))
    x = Matrix.from_json(obj["X"])
    cert = Certificate(m, d, n, field, tuple(points), x)
    if validate:
        report = validate_certificate(cert)
        if not report.ok:
            raise ValidationFailed(
                "; ".join(f"{c.name}: {c.detail}" for c in report.failures()))
    return cert
