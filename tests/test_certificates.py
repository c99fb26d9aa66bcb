"""Certificate construction, validation, and serialization tests."""

import json
import time

import pytest

from tracezero.certificates import (
    Certificate,
    build_noncommutator,
    certificate_from_json,
    certificate_to_json,
    validate_certificate,
)
from tracezero.errors import (
    BadDimensions,
    MalformedInput,
    NotSeparated,
    TooFewPoints,
    ValidationFailed,
    WrongSimplex,
)
from tracezero.fields import Field
from tracezero.packing import best_separated_set, quadratic_construction
from tracezero.polynomials import poly_to_text

F2 = Field.prime(2)
F3 = Field.prime(3)
Q = Field.rationals()

D0_POINTS = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_minimal_certificate():
    cert = build_noncommutator(3, 0, D0_POINTS, 2, F2)
    assert cert.m == 3 and cert.d == 0 and cert.n == 2
    report = validate_certificate(cert)
    assert report.ok
    assert len(report.checks) == 10
    names = [c.name for c in report.checks]
    assert "trace zero" in names and "separation parity" in names


def test_certificate_matrix_layout():
    cert = build_noncommutator(3, 0, D0_POINTS, 2, F2)
    x = cert.x
    assert poly_to_text(x.entry(0, 0)) == "1*x1"
    assert poly_to_text(x.entry(0, 1)) == "1*x2"
    assert poly_to_text(x.entry(1, 0)) == "1*x3"
    # bottom-right is minus the first monomial; over F_2 minus is plus
    assert poly_to_text(x.entry(1, 1)) == "1*x1"
    assert x.trace().is_zero()


def test_certificate_matrix_layout_signed():
    cert = build_noncommutator(3, 0, D0_POINTS, 2, Q)
    assert poly_to_text(cert.x.entry(1, 1)) == "-1*x1"
    assert cert.x.trace().is_zero()


def test_larger_certificate_from_packing():
    s, optimal = best_separated_set(4, 1, 60.0)
    assert optimal and s.size == 5
    cert = build_noncommutator(4, 1, list(s.points), 3, F2)
    assert validate_certificate(cert).ok
    # row 1 holds n monomials, column 1 the remaining n-1
    for j in range(3):
        assert not cert.x.entry(0, j).is_zero()


def test_quadratic_certificate():
    s = quadratic_construction(4, 3)
    cert = build_noncommutator(4, 3, list(s.points), 3, F3)
    assert validate_certificate(cert).ok


def test_build_rejects_bad_inputs():
    with pytest.raises(BadDimensions):
        build_noncommutator(2, 0, [(1, 0), (0, 1)], 2, F2)
    with pytest.raises(BadDimensions):
        build_noncommutator(3, 0, D0_POINTS, 1, F2)
    with pytest.raises(TooFewPoints):
        build_noncommutator(3, 0, D0_POINTS[:2], 2, F2)
    with pytest.raises(WrongSimplex):
        build_noncommutator(3, 0, [(1, 0, 0), (0, 1, 0), (0, 0, 2)], 2, F2)
    with pytest.raises(NotSeparated):
        build_noncommutator(3, 1, [(3, 0, 0), (2, 1, 0), (0, 0, 3)], 2, F2)
    with pytest.raises(NotSeparated):
        build_noncommutator(3, 0, [(1, 0, 0), (1, 0, 0), (0, 0, 1)], 2, F2)
    with pytest.raises(WrongSimplex):
        build_noncommutator(3, 0, [(True, 0, 0), (0, 1, 0), (0, 0, 1)], 2, F2)


def test_validation_catches_tampering():
    cert = build_noncommutator(3, 0, D0_POINTS, 2, Q)
    obj = json.loads(certificate_to_json(cert))

    # flip the bottom-right entry sign: trace is then 2*x1, nonzero
    bad = dict(obj)
    bad["X"] = json.loads(json.dumps(obj["X"]))
    bad["X"]["entries"][1][1] = "1*x1"
    with pytest.raises(ValidationFailed) as exc_info:
        certificate_from_json(json.dumps(bad))
    msg = str(exc_info.value)
    assert "trace" in msg or "shape" in msg

    cert_loose = certificate_from_json(json.dumps(bad), validate=False)
    report = validate_certificate(cert_loose)
    assert not report.ok
    failed = {c.name for c in report.failures()}
    assert "trace zero" in failed
    assert "matrix shape" in failed


def test_validation_catches_wrong_points():
    cert = build_noncommutator(3, 0, D0_POINTS, 2, Q)
    obj = json.loads(certificate_to_json(cert))
    bad = dict(obj)
    bad["S"] = [[1, 0, 0], [1, 0, 0], [0, 0, 1]]
    cert_loose = certificate_from_json(json.dumps(bad), validate=False)
    report = validate_certificate(cert_loose)
    assert not report.ok
    failed = {c.name for c in report.failures()}
    assert "separation" in failed
    # a hand-built certificate: a bool coordinate is no simplex point,
    # as in check_simplex_points
    flagged = Certificate(3, 0, 2, Q, ((True, 0, 0), (0, 1, 0), (0, 0, 1)), cert.x)
    failed = {c.name for c in validate_certificate(flagged).failures()}
    assert "simplex membership" in failed
    # an oversized point list is not scanned pair by pair: the wrong count
    # alone fails it, and 4,000 points for n = 2 take quadratic time to scan
    bad["S"] = [[1, 0, 0]] * 4000
    start = time.perf_counter()
    report = validate_certificate(certificate_from_json(json.dumps(bad), validate=False))
    assert time.perf_counter() - start < 2.0
    failed = {c.name: c.detail for c in report.failures()}
    assert "point count" in failed
    assert failed["separation"] == failed["separation parity"] == "not checkable"


def test_serialization_byte_stable():
    cert = build_noncommutator(3, 0, D0_POINTS, 2, F2)
    text = certificate_to_json(cert)
    again = certificate_to_json(certificate_from_json(text))
    assert again == text
    # key order is canonical: serializing twice gives identical bytes
    assert certificate_to_json(cert) == text


def test_deserialization_rejects_garbage():
    with pytest.raises(MalformedInput):
        certificate_from_json("not json")
    with pytest.raises(MalformedInput):
        certificate_from_json(json.dumps({"m": 3}))
    with pytest.raises(MalformedInput):
        certificate_from_json(json.dumps({
            "m": "three", "d": 0, "n": 2,
            "field": {"kind": "Fp", "p": 2},
            "S": [[1, 0, 0]], "X": {},
        }))


def test_size_bound_check():
    # n = 2 <= 2^(2*3-3) = 8 passes; a forged n cannot sneak past
    cert = build_noncommutator(3, 0, D0_POINTS, 2, F2)
    report = validate_certificate(cert)
    bound_checks = [c for c in report.checks if c.name == "size bound"]
    assert len(bound_checks) == 1 and bound_checks[0].passed


def test_certificate_d1_monomial_layout():
    # m=3, d=1, n=2 with S = ((3,0,0),(0,3,0),(1,1,1)): the matrix is
    # [[x1^3, x2^3], [x1*x2*x3, -x1^3]].
    points = [(3, 0, 0), (0, 3, 0), (1, 1, 1)]
    cert = build_noncommutator(3, 1, points, 2, Q)
    x = cert.x
    assert poly_to_text(x.entry(0, 0)) == "1*x1^3"
    assert poly_to_text(x.entry(0, 1)) == "1*x2^3"
    assert poly_to_text(x.entry(1, 0)) == "1*x1*x2*x3"
    assert poly_to_text(x.entry(1, 1)) == "-1*x1^3"
    assert validate_certificate(cert).ok


def test_certificate_three_by_three_shape():
    # m=5, d=0, n=3 on the five unit vectors: row 1 and column 1 carry the
    # monomials, (n,n) carries -x^{s_1}, and everything else is zero.
    points = [tuple(1 if j == i else 0 for j in range(5)) for i in range(5)]
    cert = build_noncommutator(5, 0, points, 3, Q)
    x = cert.x
    assert poly_to_text(x.entry(0, 0)) == "1*x1"
    assert poly_to_text(x.entry(0, 1)) == "1*x2"
    assert poly_to_text(x.entry(0, 2)) == "1*x3"
    assert poly_to_text(x.entry(1, 0)) == "1*x4"
    assert poly_to_text(x.entry(2, 0)) == "1*x5"
    assert poly_to_text(x.entry(2, 2)) == "-1*x1"
    for i, j in [(1, 1), (1, 2), (2, 1)]:
        assert x.entry(i, j).is_zero()
    assert x.trace().is_zero()
    assert validate_certificate(cert).ok


def test_maximal_buildable_size_matches_packing():
    # For a proven-optimal point set, n = floor((#S+1)/2) builds and
    # n + 1 does not (it needs two more points).
    from tracezero.packing import matrix_size_from_set
    sep, optimal = best_separated_set(4, 2, 60.0)
    assert optimal and sep.size == 6
    n = matrix_size_from_set(sep)
    assert n == 3
    cert = build_noncommutator(4, 2, list(sep.points)[: 2 * n - 1], n, F2)
    assert validate_certificate(cert).ok
    with pytest.raises(TooFewPoints):
        build_noncommutator(4, 2, list(sep.points), n + 1, F2)
