"""Property tests for the parsers of untrusted input.

Arbitrary JSON values and text go through every parser; the only
exceptions allowed out are the package's own ``Error`` classes. Values the
package serialized itself must parse back to the same bytes. Hypothesis
runs derandomized, with a fixed example count and no example database, so
the suite is deterministic.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tracezero.certificates import (
    build_noncommutator,
    certificate_from_json,
    certificate_to_json,
)
from tracezero.errors import Error
from tracezero.fields import Field
from tracezero.matrices import Matrix
from tracezero.packing import corner_points, quadratic_construction
from tracezero.polynomials import (
    RingCtx,
    poly_from_json,
    poly_from_text,
    poly_to_json,
    poly_to_text,
)
from tracezero.witnesses import triangular_witness, witness_from_json, witness_to_json

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150,
                    database=None, suppress_health_check=[HealthCheck.too_slow])

FIELDS = [Field.rationals(), Field.prime(2), Field.prime(3), Field.prime(101)]

# keys the parsers look up, so arbitrary dicts often get past the first check
KEYS = ["kind", "p", "field", "nvars", "truncation", "terms", "coeff", "exps",
        "n", "ctx", "entries", "m", "d", "S", "X", "target", "B"]

scalars = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=12) | st.sampled_from(["Q", "Fp", "1/2", "x1", "-3"]))
json_values = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4),
                                        children, max_size=6)),
    max_leaves=24,
)
# text over the polynomial grammar's own alphabet, plus anything at all
poly_texts = st.text(alphabet="x0123456789^*+-/ e.", max_size=24) | st.text(max_size=24)


@st.composite
def contexts(draw):
    field = draw(st.sampled_from(FIELDS))
    nvars = draw(st.integers(0, 3))
    truncation = draw(st.none() | st.integers(1, 4))
    return RingCtx(field, nvars, truncation)


@st.composite
def polys(draw, ctx):
    if ctx.field.kind == "Q":
        coeffs = st.fractions(max_denominator=50)
    else:
        coeffs = st.integers(-300, 300)
    high = ctx.truncation if ctx.truncation is not None else 5
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = tuple(draw(st.integers(0, high)) for _ in range(ctx.nvars))
        terms[exps] = ctx.field.coerce(draw(coeffs))
    return ctx.make(terms)


def _seeds():
    ctx = RingCtx(Field.prime(5), 2, 3)
    a = Matrix.from_rows(ctx, [["x1", "2*x2 + 1"], [0, "-1*x1"]])
    cert = build_noncommutator(4, 3, list(quadratic_construction(4, 3).points), 3,
                               Field.rationals())
    return {
        "poly": poly_to_json(a.rows[0][1]),
        "matrix": a.to_json(),
        "witness": witness_to_json(triangular_witness(a)),
        "certificate": json.loads(certificate_to_json(cert)),
    }


SEEDS = _seeds()


def _paths(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutants(draw, seed):
    """A valid serialized object with one node replaced by an arbitrary
    JSON value, or one dict key deleted, so parsing gets past the outer
    checks and fails deep inside."""
    obj = json.loads(json.dumps(seed))
    path = draw(st.sampled_from(list(_paths(obj))))
    if not path:
        return draw(json_values)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(scalars | json_values)
    return obj


def only_package_errors(parse, value):
    try:
        parse(value)
    except Error:
        pass


@PROPERTY
@given(json_values)
def test_json_parsers_raise_only_package_errors(obj):
    ctx = RingCtx(Field.prime(5), 2, None)
    only_package_errors(Field.from_json, obj)
    only_package_errors(RingCtx.from_json, obj)
    only_package_errors(lambda o: poly_from_json(ctx, o), obj)
    only_package_errors(lambda o: poly_from_json(ctx, {"nvars": 2, "terms": [o]}), obj)
    only_package_errors(Matrix.from_json, obj)
    only_package_errors(witness_from_json, obj)
    only_package_errors(lambda o: witness_from_json(
        {"target": o, "X": o, "B": o}), obj)
    only_package_errors(certificate_from_json, json.dumps(obj))


@settings(PROPERTY, max_examples=300)
@given(mutants(SEEDS["poly"]), mutants(SEEDS["matrix"]),
       mutants(SEEDS["witness"]), mutants(SEEDS["certificate"]))
def test_parsers_reject_mutated_objects_with_package_errors(poly, mat, wit, cert):
    ctx = RingCtx(Field.prime(5), 2, 3)
    only_package_errors(lambda o: poly_from_json(ctx, o), poly)
    only_package_errors(Matrix.from_json, mat)
    only_package_errors(witness_from_json, wit)
    only_package_errors(certificate_from_json, json.dumps(cert))
    only_package_errors(lambda t: certificate_from_json(t, validate=False),
                        json.dumps(cert))


@PROPERTY
@given(contexts(), poly_texts)
def test_text_parsers_raise_only_package_errors(ctx, text):
    only_package_errors(lambda t: poly_from_text(ctx, t), text)
    only_package_errors(ctx.field.from_str, text)
    only_package_errors(certificate_from_json, text)
    only_package_errors(Matrix.from_json,
                        {"ctx": ctx.to_json(), "entries": [[text]]})


@PROPERTY
@given(st.data())
def test_poly_round_trips_are_byte_stable(data):
    ctx = data.draw(contexts())
    p = data.draw(polys(ctx))
    text = poly_to_text(p)
    assert poly_from_text(ctx, text) == p
    assert poly_to_text(poly_from_text(ctx, text)) == text
    blob = json.dumps(poly_to_json(p), sort_keys=True)
    again = poly_from_json(ctx, json.loads(blob))
    assert json.dumps(poly_to_json(again), sort_keys=True) == blob
    ring = json.dumps(ctx.to_json(), sort_keys=True)
    assert json.dumps(RingCtx.from_json(json.loads(ring)).to_json(),
                      sort_keys=True) == ring
    assert Field.from_json(ctx.field.to_json()) == ctx.field


@PROPERTY
@given(st.data())
def test_matrix_and_witness_round_trips_are_byte_stable(data):
    ctx = data.draw(contexts())
    n = data.draw(st.integers(1, 3))
    rows = [[data.draw(polys(ctx)) if j > i else ctx.zero() for j in range(n)]
            for i in range(n)]
    a = Matrix(ctx, rows)
    blob = json.dumps(a.to_json(), sort_keys=True)
    assert json.dumps(Matrix.from_json(json.loads(blob)).to_json(),
                      sort_keys=True) == blob
    w = triangular_witness(a)
    blob = json.dumps(witness_to_json(w), sort_keys=True)
    again = witness_from_json(json.loads(blob))
    assert json.dumps(witness_to_json(again), sort_keys=True) == blob


@PROPERTY
@given(st.data())
def test_certificate_round_trips_are_byte_stable(data):
    m = data.draw(st.integers(3, 6))
    d = data.draw(st.sampled_from([0, m - 1, m]))
    points = (corner_points(m, 0) if d == 0
              else list(quadratic_construction(m, d).points))
    points = data.draw(st.permutations(points))
    n = data.draw(st.integers(2, (len(points) + 1) // 2))
    field = data.draw(st.sampled_from(FIELDS))
    text = certificate_to_json(build_noncommutator(m, d, points, n, field))
    assert certificate_to_json(certificate_from_json(text)) == text
