"""Tests of the benchmark itself: each check rejects a planted wrong
answer, the graded criterion agrees with the brute-force scan, and every
workload runs end to end at reduced size, traced.

    python3 -m pytest bench/selftest.py -q
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

import checks
import run
import workloads

tz = run.load_package()


def first_job(wl, prefix):
    return next(j for j in wl.jobs if j.name.startswith(prefix))


def test_tampered_witness_entry_is_rejected():
    wl = workloads.WitnessCert(tz, seed=3, small=True)
    for prefix in ("triangular.F13x2", "hollow.Q", "nilpotent.F101"):
        job = first_job(wl, prefix)
        w, text, again = job.run()
        assert job.check((w, text, again)) is None
        rows = workloads.to_dicts(w.b)
        i, j = w.b.n - 1, 0  # E_(n,1) never commutes with these X
        rows[i][j] = checks.poly_add(rows[i][j], {(0,) * w.b.ctx.nvars: 1},
                                     w.b.ctx.field.p)
        tampered = SimpleNamespace(target=w.target, x=w.x,
                                   b=workloads.to_matrix(tz, w.b.ctx, rows))
        assert "commutator entry" in job.check((tampered, text, again))
        assert "byte-stable" in job.check((w, text, again + " "))


def test_set_one_point_short_is_rejected():
    wl = workloads.PackProve(tz, seed=3, small=True)
    job = first_job(wl, "prove.m5d2")
    s, optimal = job.run()
    assert job.check((s, optimal)) is None
    short = SimpleNamespace(points=s.points[:-1], size=s.size - 1)
    assert "reference" in job.check((short, True))
    assert "optimal" in job.check((s, False))
    crowded = list(s.points)
    crowded[-1] = crowded[-2]  # a repeated point
    assert job.check((SimpleNamespace(points=crowded, size=s.size), True))


def test_wrong_commutator_label_is_rejected():
    rng = random.Random(5)
    b = workloads.rand_matrix(rng, 2, 2, 2, 2, 2)
    c = workloads.rand_matrix(rng, 2, 2, 2, 2, 2)
    target = checks.commutator(b, c, 2, 2)  # a commutator by construction
    ctx = workloads.ring(tz, 2, 2, 2)
    found = tz.oracle.exhaustive_commutator_search(workloads.to_matrix(tz, ctx, target))
    assert workloads.check_oracle_answer(found, target, 2, 2, 2, True) is None
    assert "labelled" in workloads.check_oracle_answer(found, target, 2, 2, 2, False)

    non = workloads.OracleSettle(tz, seed=5, small=True)._noncommutator(rng)
    assert workloads.check_oracle_answer(None, non, 2, 3, 2, False) is None
    assert "labelled" in workloads.check_oracle_answer(None, non, 2, 3, 2, True)

    moved = [[dict(e) for e in r] for r in target]
    moved[0][1] = checks.poly_add(moved[0][1], {(0, 0): 1}, 2)
    assert "found pair is wrong" in workloads.check_oracle_answer(found, moved, 2, 2, 2, True)


def test_graded_criterion_agrees_with_brute_force():
    rng = random.Random(11)
    ctx = workloads.ring(tz, 2, 2, 2)
    agree = 0
    for _ in range(24):
        target = [[{}, {}], [{}, {}]]
        for mono in [(0, 0), (1, 0), (0, 1)]:
            a, b, c = (rng.randrange(2) for _ in range(3))
            target[0][0][mono], target[0][1][mono], target[1][0][mono] = a, b, c
            target[1][1][mono] = a
        target = checks.mat_clean(target, 2)
        found = tz.oracle.exhaustive_commutator_search(workloads.to_matrix(tz, ctx, target))
        agree += checks.graded_solvable(target, 2, 2) == (found is not None)
    assert agree == 24


def test_inclusion_exclusion_counts():
    import itertools

    for m, d in [(3, 1), (4, 2), (5, 3), (6, 2)]:
        brute = sum(1 for p in itertools.product(range(d + 1), repeat=m)
                    if sum(p) == 2 * d + 1)
        assert checks.interior_count(m, d) == brute


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in run.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_traced(name):
    from tracing import Tracer

    wl = workloads.WORKLOADS[name](tz, seed=7, small=True)
    assert wl.warm.check(wl.warm.run()) is None
    tracer = Tracer()
    tracer.install()
    try:
        walls, cpus, attempted, failed, pairs = run.measure(wl, 0.0, tracer)
    finally:
        tracer.uninstall()
    assert failed == 0 and attempted == len(wl.jobs) and len(walls) == 1
    values = run.per_layer(tracer, len(walls), pairs)
    assert set(values) == {n for n, _ in run.PER_LAYER}
    busy = {"pack-prove": "packing.max_independent_set.calls",
            "oracle-settle": "oracle.exhaustive_noncommutator_check.calls",
            "witness-cert": "polynomials.Poly.mul.calls"}[name]
    assert values[busy] > 0
    assert tz.packing.build_graph.__name__ == "build_graph"
    assert not hasattr(tz.packing.build_graph, "__wrapped__")
