"""tracezero benchmark: one workload per run, single process, workers=1.

    python3 bench/run.py --workload pack-prove --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``. Set-up (imports, input generation from the seed, one untimed
warm-up job) is timed in this process and in four fresh interpreters
started with ``--setup-only``; ``setup_s`` is the median. The timed phase
then runs as many whole rounds of the workload's fixed job list as fit in
``--seconds`` (at least one); every output is checked after its round,
outside the timing. ``wall_s`` and ``cpu_s`` are medians over rounds.

With ``--trace 1`` one untraced round runs first, then spans are
installed (tracing.py) and the per-layer metrics are reported per
round; the spans of the last round are written to bench/out/. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402  (no tracezero import)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_CHILDREN = 4

# (name, unit); .s is self time per round, .calls calls per round
PER_LAYER = [
    ("packing.build_graph.s", "s"), ("packing.build_graph.calls", "count"),
    ("packing.max_independent_set.s", "s"), ("packing.max_independent_set.calls", "count"),
    ("packing.prove.m7d2.s", "s"), ("packing.prove.m6d2.s", "s"),
    ("packing.prove.m9d1.s", "s"), ("packing.prove.m4d4.s", "s"),
    ("packing.build_graph.m8d4.s", "s"),
    ("oracle.exhaustive_noncommutator_check.s", "s"),
    ("oracle.exhaustive_noncommutator_check.calls", "count"),
    ("oracle.pairs_checked", "count"), ("oracle.scan_pairs_per_s", "pairs/s"),
    ("oracle.exhaustive_commutator_search.s", "s"),
    ("oracle.exhaustive_commutator_search.calls", "count"),
    ("oracle.RingTable.s", "s"), ("oracle.RingTable.calls", "count"),
    ("oracle.quadric_decomposition_check.s", "s"),
    ("certificates.build_noncommutator.s", "s"), ("certificates.build_noncommutator.calls", "count"),
    ("certificates.validate_certificate.s", "s"),
    ("certificates.validate_certificate.calls", "count"),
    ("certificates.certificate_from_json.s", "s"), ("certificates.certificate_to_json.s", "s"),
    ("witnesses.triangular_witness.s", "s"), ("witnesses.triangular_witness.calls", "count"),
    ("witnesses.hollow_witness.s", "s"), ("witnesses.hollow_witness.calls", "count"),
    ("witnesses.nilpotent_witness.s", "s"), ("witnesses.nilpotent_witness.calls", "count"),
    ("witnesses.witness_from_json.s", "s"), ("witnesses.witness_from_json.calls", "count"),
    ("matrices.commutator.s", "s"), ("matrices.commutator.calls", "count"),
    ("matrices.nilpotent_flag.s", "s"), ("matrices.Matrix.from_json.s", "s"),
    ("polynomials.Poly.mul.calls", "count"), ("polynomials.Poly.mul.s", "s"),
    ("polynomials.poly_from_text.s", "s"),
]
# per-cell metrics: self time of the packing spans inside one job
CELL_METRICS = {
    "packing.prove.m7d2.s": "prove.m7d2", "packing.prove.m6d2.s": "prove.m6d2",
    "packing.prove.m9d1.s": "prove.m9d1", "packing.prove.m4d4.s": "prove.m4d4",
    "packing.build_graph.m8d4.s": "graph.m8d4",
}
SCAN_SPANS = ("oracle.exhaustive_noncommutator_check", "oracle.exhaustive_commutator_search")


def load_package():
    if not (SRC / "tracezero" / "__init__.py").is_file():
        raise SystemExit(f"no tracezero sources at {SRC}: run from a source checkout")
    sys.path.insert(0, str(SRC))
    import tracezero  # noqa: F401  (imports every submodule)
    return tracezero


def set_up(workload: str, seed: int, small: bool = False):
    """Import, generate inputs, run the warm-up job; seconds since start."""
    tz = load_package()
    wl = WORKLOADS[workload](tz, seed, small)
    problem = wl.warm.check(wl.warm.run())
    if problem:
        raise SystemExit(f"warm-up job failed its check: {problem}")
    return wl, time.perf_counter() - T0


def child_setups(args) -> list[float]:
    """Set-up times of fresh interpreters, one after another."""
    out = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run_round(wl, tracer=None):
    """All jobs once. Returns (wall, cpu, [(job, output, error)])."""
    results = []
    if tracer:
        tracer.round_start = len(tracer.start)
    c0, w0 = cpu_seconds(), time.perf_counter()
    for job in wl.jobs:
        with tracer.job_span(job.name) if tracer else nullcontext():
            try:
                results.append((job, job.run(), None))
            except Exception:  # a raising job is a failed job, not a crash
                results.append((job, None, traceback.format_exc()))
    return time.perf_counter() - w0, cpu_seconds() - c0, results


def check_round(results):
    """(failed jobs, oracle pairs scanned) for one round."""
    failed = pairs = 0
    for job, out, error in results:
        problem = error
        if problem is None:
            try:
                problem = job.check(out)
                pairs += job.pairs(out)
            except Exception:  # a check that cannot read the output rejects it
                problem = traceback.format_exc()
        if problem:
            failed += 1
            print(f"FAILED {job.name}: {problem}", file=sys.stderr)
    return failed, pairs


def measure(wl, seconds: float, tracer=None):
    """Whole rounds that fit in ``seconds``: a round starts only while the
    rounds so far plus one more of their median length fit, and the first
    always runs. Every round runs the same jobs, so ``pairs`` is the
    per-round count."""
    walls, cpus = [], []
    failed = attempted = pairs = 0
    while not walls or sum(walls) + statistics.median(walls) <= seconds:
        wall, cpu, results = run_round(wl, tracer)
        walls.append(wall)
        cpus.append(cpu)
        f, pairs = check_round(results)
        failed += f
        attempted += len(results)
        del results  # one round's outputs at a time, so peak RSS ignores the round count
    return walls, cpus, attempted, failed, pairs


def per_layer(tracer, rounds: int, pairs: int) -> dict:
    totals = tracer.totals()
    values = {}
    for name, _unit in PER_LAYER:
        if name in CELL_METRICS:
            continue
        base, _, kind = name.rpartition(".")
        if kind in ("s", "calls"):
            self_s, calls = totals.get(base, (0.0, 0))
            values[name] = self_s / rounds if kind == "s" else calls // rounds
    for name, job in CELL_METRICS.items():
        values[name] = tracer.totals_in_job(
            job, ("packing.build_graph", "packing.max_independent_set")) / rounds
    scan_s = sum(totals.get(n, (0.0, 0))[0] for n in SCAN_SPANS) / rounds
    values["oracle.pairs_checked"] = pairs
    values["oracle.scan_pairs_per_s"] = pairs / scan_s if scan_s > 0 else 0.0
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print {\"setup_s\": ...} and exit")
    args = ap.parse_args(argv)

    wl, own_setup = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    if args.trace:
        from tracing import Tracer

        untraced, _, results = run_round(wl)
        base_failed, _ = check_round(results)
        base_attempted = len(results)
        del results
        tracer = Tracer()
        tracer.install()
        walls, _, attempted, failed, pairs = measure(wl, args.seconds, tracer)
        tracer.uninstall()
        values = per_layer(tracer, len(walls), pairs)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(str(spans), first=tracer.round_start)
        traced = statistics.median(walls)
        print(f"tracing overhead: {traced - untraced:+.4f} s per round "
              f"(traced wall_s {traced:.4f} - untraced wall_s {untraced:.4f}); "
              f"last round's {len(tracer.start) - tracer.round_start} spans in "
              f"{spans.relative_to(HERE.parent)}")
        attempted += base_attempted
        failed += base_failed
    else:
        setups = [own_setup] + child_setups(args)
        walls, cpus, attempted, failed, _ = measure(wl, args.seconds)
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        print(f"{len(walls)} rounds of {len(wl.jobs)} jobs; round wall_s "
              + " ".join(f"{w:.4f}" for w in walls))

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
