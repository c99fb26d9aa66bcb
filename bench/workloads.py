"""The benchmark's three workloads.

A workload turns a seed into a fixed list of jobs. Each job calls into
tracezero (``run``) and then has its output checked by code in
``checks.py`` (``check``), which returns a problem string or None. Jobs
reach the package through module attributes at call time, so the spans
that ``tracing.Tracer`` installs see every call.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent

# Separated-set sizes from the paper's table, pinned by the acceptance suite.
PAPER_SIZES = {
    (3, 1): 4, (3, 2): 4, (3, 3): 4,
    (4, 1): 5, (4, 2): 6, (4, 3): 6,
    (5, 1): 7, (5, 2): 10,
    (6, 1): 10, (7, 1): 14, (8, 1): 16,
}

# Cells proven with budget=None: the default `tables` grid (m <= 8,
# d <= 4) minus the cells the solver cannot prove, plus (9, 1).
PROVEN_CELLS = [(m, d) for m in (3, 4, 5) for d in (1, 2, 3, 4)] + [
    (6, 1), (6, 2), (7, 1), (7, 2), (8, 1), (9, 1)]
# The rest of the default grid: only their conflict graphs are built.
GRAPH_CELLS = [(6, 3), (6, 4), (7, 3), (7, 4), (8, 2), (8, 3), (8, 4)]


def load_reference_sizes() -> dict:
    """Paper sizes where the paper gives them, otherwise the networkx
    sizes that ``references.py`` writes to references.json."""
    with open(HERE / "references.json", encoding="utf-8") as fh:
        computed = {tuple(map(int, k.split(","))): v
                    for k, v in json.load(fh)["sizes"].items()}
    return {**computed, **PAPER_SIZES}


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    pairs: Callable[[object], int] = lambda out: 0  # oracle pairs scanned


def basis_size(nvars: int, trunc: int) -> int:
    return math.comb(nvars + trunc - 1, nvars)


# -- conversions between checks' dict matrices and tracezero objects ------------


def to_matrix(tz, ctx, rows):
    return tz.Matrix(ctx, [[ctx.make(dict(e)) for e in r] for r in rows])


def to_dicts(mat):
    return [[dict(e.terms) for e in r] for r in mat.rows]


def ring(tz, p, nvars, trunc):
    field = tz.Field.rationals() if p is None else tz.Field.prime(p)
    return tz.RingCtx(field, nvars, trunc)


def monomials(nvars: int, trunc):
    """Exponent tuples of total degree < trunc (trunc None: degree <= 2)."""
    top = 2 if trunc is None else trunc - 1
    return [e for e in itertools.product(range(top + 1), repeat=nvars) if sum(e) <= top]


def rand_coeff(rng, p):
    if p is None:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return rng.randrange(p)


def rand_poly(rng, p, nvars, trunc, nterms):
    monos = monomials(nvars, trunc)
    return checks.poly_clean({rng.choice(monos): rand_coeff(rng, p) for _ in range(nterms)}, p)


def rand_matrix(rng, p, nvars, trunc, n, nterms):
    return [[rand_poly(rng, p, nvars, trunc, nterms) for _ in range(n)] for _ in range(n)]


def check_oracle_answer(found, target, p, nvars, trunc, is_commutator) -> str | None:
    """A found pair must reproduce the target exactly; for 2x2 over m^2 the
    graded criterion must agree; the answer must match the input's label."""
    if found is not None:
        b, c = found
        problem = checks.check_commutator(to_dicts(b), to_dicts(c), target, p, trunc)
        if problem:
            return f"found pair is wrong: {problem}"
    if len(target) == 2 and trunc == 2 and nvars > 0:
        if checks.graded_solvable(target, p, nvars) != (found is not None):
            return f"graded criterion disagrees with the oracle (found={found is not None})"
    if is_commutator != (found is not None):
        return f"target labelled commutator={is_commutator}, oracle found={found is not None}"
    return None


# -- pack-prove ----------------------------------------------------------------


class PackProve:
    """Prove separated-set table cells; build the graphs of unprovable ones.

    The inputs are fixed cells; the seed only orders the jobs and picks the
    adjacency rows that are spot-checked.
    """

    name = "pack-prove"

    def __init__(self, tz, seed: int, small: bool = False):
        self.tz = tz
        rng = random.Random(seed)
        proven = [(3, 1), (4, 2), (5, 2), (6, 1)] if small else PROVEN_CELLS
        graphs = [(6, 3)] if small else GRAPH_CELLS
        refs = load_reference_sizes()
        missing = [c for c in proven if c not in refs]
        if missing:
            raise SystemExit(f"references.json lacks cells {missing}; run references.py")
        self.jobs = [self._prove(m, d, refs[(m, d)]) for m, d in proven]
        self.jobs += [self._graph(m, d, rng.randrange(2**32)) for m, d in graphs]
        rng.shuffle(self.jobs)
        self.warm = self._prove(4, 3, refs[(4, 3)])

    def _prove(self, m, d, size):
        packing = self.tz.packing

        def run():
            return packing.best_separated_set(m, d, None)

        def check(out):
            s, optimal = out
            if not optimal:
                return "not proven optimal with budget=None"
            return checks.check_separated(list(s.points), m, d) or (
                None if s.size == size else f"size {s.size}, reference {size}")

        return Job(f"prove.m{m}d{d}", run, check)

    def _graph(self, m, d, seed):
        packing = self.tz.packing

        def run():
            return packing.build_graph(m, d)

        def check(g):
            want = checks.interior_count(m, d)
            if g.vertex_count != want:
                return f"{g.vertex_count} vertices, inclusion-exclusion gives {want}"
            verts = list(g.vertices)
            if any(len(v) != m or sum(v) != 2 * d + 1 or max(v) > d for v in verts):
                return "a vertex is not an interior candidate"
            if len(set(verts)) != len(verts):
                return "a vertex repeats"
            rng = random.Random(seed)
            for i in rng.sample(range(len(verts)), min(4, len(verts))):
                want_adj = sum(1 << j for j, w in enumerate(verts) if j != i
                               and sum(abs(x - y) for x, y in zip(verts[i], w)) <= 2 * d)
                if g.adjacency[i] != want_adj:
                    return f"adjacency row {i} differs from the l1 distances"
            return None

        return Job(f"graph.m{m}d{d}", run, check)


# -- oracle-settle ---------------------------------------------------------------


class OracleSettle:
    """Full scans that end in no witness: the m=3, d=0, n=2 certificate at
    p=2 in each ordering of its points, and seeded random trace-0 targets
    over F_2[x1,x2,x3]/m^2 that are not commutators. Each scan covers
    16^6 = 16,777,216 normalized pairs."""

    name = "oracle-settle"
    P, NVARS, TRUNC = 2, 3, 2

    def __init__(self, tz, seed: int, small: bool = False):
        self.tz = tz
        rng = random.Random(seed)
        points = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        orders = list(itertools.permutations(points))
        ntargets = 1 if small else 4
        self.jobs = [self._certificate(list(o)) for o in orders[: 1 if small else None]]
        self.jobs += [self._target(t, self._noncommutator(rng)) for t in range(ntargets)]
        rng.shuffle(self.jobs)
        self.warm = self._warm_up()

    def _noncommutator(self, rng):
        """Rejection-sample trace-0 targets until the graded criterion
        rejects one."""
        p, nv = self.P, self.NVARS
        monos = [(0,) * nv] + [tuple(int(t == k) for t in range(nv)) for k in range(nv)]
        while True:
            rows = [[{}, {}], [{}, {}]]
            for mono in monos:
                a, b, c = (rng.randrange(p) for _ in range(3))
                for (i, j), v in (((0, 0), a), ((0, 1), b), ((1, 0), c), ((1, 1), -a)):
                    rows[i][j][mono] = v
            rows = checks.mat_clean(rows, p)
            if not checks.graded_solvable(rows, p, nv):
                return rows

    def _pairs(self):
        q = self.P ** basis_size(self.NVARS, self.TRUNC)
        return q ** (2 * (2 * 2 - 1))

    def _certificate(self, points):
        tz, p = self.tz, self.P
        target = checks.mat_clean(checks.certificate_matrix(points, 2), p)

        def run():
            cert = tz.certificates.build_noncommutator(3, 0, points, 2, tz.Field.prime(p))
            text = tz.certificates.certificate_to_json(cert)
            parsed = tz.certificates.certificate_from_json(text)
            again = tz.certificates.certificate_to_json(parsed)
            return text, again, tz.oracle.exhaustive_noncommutator_check(parsed, p)

        def check(out):
            text, again, result = out
            if text != again:
                return "certificate JSON round trip is not byte-stable"
            if json.loads(text)["S"] != [list(pt) for pt in points]:
                return "certificate points differ from the input order"
            found = (result.b, result.c) if hasattr(result, "b") else None  # FoundWitness
            if found is None and result.pairs_checked != self._pairs():
                return f"pairs_checked {result.pairs_checked}, expected {self._pairs()}"
            return check_oracle_answer(found, target, p, self.NVARS, self.TRUNC, False)

        def pairs(out):
            return getattr(out[2], "pairs_checked", 0)

        return Job("certificate." + "-".join("".join(map(str, pt)) for pt in points),
                   run, check, pairs)

    def _target(self, index, target):
        tz, p = self.tz, self.P
        ctx = ring(tz, p, self.NVARS, self.TRUNC)
        mat = to_matrix(tz, ctx, target)

        def run():
            return tz.oracle.exhaustive_commutator_search(mat)

        def check(found):
            return check_oracle_answer(found, target, p, self.NVARS, self.TRUNC, False)

        return Job(f"target.{index}", run, check,
                   lambda found: self._pairs() if found is None else 0)

    def _warm_up(self):
        """A search over F_2[x1,x2]/m^2 for [[x1, x2], [0, x1]], which is
        [E12, x1 E21 + x2 E22] in characteristic 2."""
        tz = self.tz
        ctx = ring(tz, 2, 2, 2)
        target = [[{(1, 0): 1}, {(0, 1): 1}], [{}, {(1, 0): 1}]]
        mat = to_matrix(tz, ctx, target)
        return Job("warm-up", lambda: tz.oracle.exhaustive_commutator_search(mat),
                   lambda found: check_oracle_answer(found, target, 2, 2, 2, True))


# -- witness-cert ------------------------------------------------------------------


# (label, p, nvars, truncation): Q, a prime field, truncated rings over each
WITNESS_RINGS = [("Q", None, 0, None), ("F101", 101, 0, None),
                 ("F13x2", 13, 2, 3), ("Qx2", None, 2, 2)]
FIELDS = [("Q", None), ("F101", 101), ("F3", 3)]
# commutator searches: (label, p, nvars, truncation, n)
SEARCH_RINGS = [("F2x2", 2, 2, 2, 2), ("F3x1", 3, 1, 2, 2),
                ("F2x3", 2, 3, 2, 2), ("F3", 3, 0, None, 3)]
QUADRIC_PRIMES = [5, 13, 17, 29, 37, 41, 53, 61]


class WitnessCert:
    """Exact arithmetic: witnesses with JSON round trips, large certificates
    from the quadratic construction, the quadric identity, and oracle
    searches on commutator targets that stop at the first witness."""

    name = "witness-cert"

    def __init__(self, tz, seed: int, small: bool = False):
        self.tz = tz
        rng = random.Random(seed)
        n_tri, n_hol, n_nil = (4, 4, 3) if small else (14, 12, 9)
        reps = 1 if small else 3
        self.jobs = []
        for k, (label, p, nv, tr) in itertools.product(range(reps), WITNESS_RINGS):
            self.jobs.append(self._triangular(rng, f"{label}.{k}", p, nv, tr, n_tri))
            self.jobs.append(self._hollow(rng, f"{label}.{k}", p, nv, tr, n_hol))
        for k, (label, p) in itertools.product(range(reps), FIELDS):
            self.jobs.append(self._nilpotent(rng, f"{label}.{k}", p, n_nil))
        for m in ((6,) if small else range(8, 15)):
            self.jobs.append(self._certificate(rng, m))
        for p in rng.sample(QUADRIC_PRIMES, 1 if small else 3):
            self.jobs.append(Job(f"quadric.p{p}",
                                 lambda p=p: tz.oracle.quadric_decomposition_check(p),
                                 lambda ok: None if ok is True else "identity fails"))
        for label, p, nv, tr, n in SEARCH_RINGS:
            for k in range(1 if small else 4):
                corner = k if k < 2 else None
                self.jobs.append(self._search(rng, f"{label}.{k}", p, nv, tr, n, corner))
        rng.shuffle(self.jobs)
        self.warm = self._triangular(rng, "warm-up", None, 0, None, 3)

    def _witness_job(self, name, p, nvars, trunc, target, build):
        """Build a witness, round-trip it through JSON (which re-verifies),
        and check [X, B] = target independently on the first pair."""
        tz = self.tz
        ctx = ring(tz, p, nvars, trunc)
        mat = to_matrix(tz, ctx, target)

        def run():
            w = build(mat, ctx)
            text = json.dumps(tz.witnesses.witness_to_json(w), sort_keys=True)
            back = tz.witnesses.witness_from_json(json.loads(text))
            again = json.dumps(tz.witnesses.witness_to_json(back), sort_keys=True)
            return w, text, again

        def check(out):
            w, text, again = out
            if text != again:
                return "witness JSON round trip is not byte-stable"
            if to_dicts(w.target) != checks.mat_clean(target, p):
                return "witness target differs from the input"
            return checks.check_commutator(to_dicts(w.x), to_dicts(w.b), target, p, trunc)

        return Job(name, run, check)

    def _triangular(self, rng, label, p, nvars, trunc, n):
        rows = rand_matrix(rng, p, nvars, trunc, n, 3)
        for i in range(n):
            for j in range(i):
                rows[i][j] = {}
        rows[n - 1][n - 1] = {}
        trace = {}
        for i in range(n):
            trace = checks.poly_add(trace, rows[i][i], p)
        rows[n - 1][n - 1] = checks.poly_add({}, trace, p, -1)
        return self._witness_job(f"triangular.{label}", p, nvars, trunc, rows,
                                 lambda mat, ctx: self.tz.witnesses.triangular_witness(mat))

    def _hollow(self, rng, label, p, nvars, trunc, n):
        rows = rand_matrix(rng, p, nvars, trunc, n, 3)
        for i in range(n):
            rows[i][i] = {}
        pool = range(1, 4 * n) if p is None else range(1, p)
        clique = rng.sample(list(pool), n - 1)
        witnesses = self.tz.witnesses
        return self._witness_job(
            f"hollow.{label}", p, nvars, trunc, rows,
            lambda mat, ctx: witnesses.hollow_witness(mat, witnesses.verify_clique(clique, ctx)))

    def _nilpotent(self, rng, label, p, n):
        """N = P U P^-1 with U strictly upper triangular and P = L R a
        product of unit lower and unit upper triangular matrices."""
        def c():
            return rng.randint(-2, 2) if p is None else rng.randrange(p)

        def unit_tri(lower):
            return [[1 if i == j else (c() if (i > j) == lower and i != j else 0)
                     for j in range(n)] for i in range(n)]

        def inv_unit_tri(t, lower):
            # forward or back substitution against the identity, exact
            inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            order = range(n) if lower else range(n - 1, -1, -1)
            for col in range(n):
                for i in order:
                    ks = range(i) if lower else range(i + 1, n)
                    inv[i][col] = int(i == col) - sum(t[i][k] * inv[k][col] for k in ks)
            return inv

        def mul(a, b):
            return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                    for i in range(n)]

        low, up = unit_tri(True), unit_tri(False)
        u = [[c() if j > i else 0 for j in range(n)] for i in range(n)]
        pm = mul(low, up)
        pinv = mul(inv_unit_tri(up, False), inv_unit_tri(low, True))
        nil = mul(mul(pm, u), pinv)
        zero = ()
        rows = [[checks.poly_clean({zero: v}, p) for v in r] for r in nil]
        return self._witness_job(f"nilpotent.{label}", p, 0, None, rows,
                                 lambda mat, ctx: self.tz.witnesses.nilpotent_witness(mat))

    def _certificate(self, rng, m):
        """Certificate from the quadratic construction at d = m - 1, with its
        points in seeded order and a seeded field."""
        tz = self.tz
        d = m - 1
        size = m * (m + 2) // 4 if m % 2 == 0 else (m + 1) ** 2 // 4
        label, p = rng.choice(FIELDS)
        order = rng.sample(range(size), size)

        def run():
            s = tz.packing.quadratic_construction(m, d)
            pts = [s.points[i] for i in order]
            n = (len(pts) + 1) // 2
            field = tz.Field.rationals() if p is None else tz.Field.prime(p)
            cert = tz.certificates.build_noncommutator(m, d, pts, n, field)
            text = tz.certificates.certificate_to_json(cert)
            parsed = tz.certificates.certificate_from_json(text)
            return s, cert, text, tz.certificates.certificate_to_json(parsed)

        def check(out):
            s, cert, text, again = out
            if text != again:
                return "certificate JSON round trip is not byte-stable"
            if s.size != size:
                return f"construction has {s.size} points, m(m+2)/4 rule gives {size}"
            problem = checks.check_separated(list(s.points), m, d)
            if problem:
                return problem
            n = (size + 1) // 2
            pts = [tuple(pt) for pt in json.loads(text)["S"]]
            if pts != [tuple(s.points[i]) for i in order][: 2 * n - 1]:
                return "certificate points differ from the input order"
            if to_dicts(cert.x) != checks.mat_clean(checks.certificate_matrix(pts, n), p):
                return "certificate matrix does not follow its points"
            return None

        return Job(f"certificate.m{m}.{label}", run, check)

    def _search(self, rng, name, p, nvars, trunc, n, corner):
        """First-hit search on [B, C] of random B, C: a commutator by
        construction. The scan filters pairs on the (1,1) entry first, and
        how many pass depends on that entry's value; 0 and 1 let the most
        through. So with ``corner`` set, B and C are redrawn until the
        target's (1,1) entry is that constant, and every round holds both
        cases whatever the seed."""
        tz = self.tz
        want = None if corner is None else checks.poly_clean({(0,) * nvars: corner}, p)
        while True:
            b = rand_matrix(rng, p, nvars, trunc, n, 2)
            c = rand_matrix(rng, p, nvars, trunc, n, 2)
            target = checks.commutator(b, c, p, trunc)
            if want is None or target[0][0] == want:
                break
        mat = to_matrix(tz, ring(tz, p, nvars, trunc), target)

        def run():
            return tz.oracle.exhaustive_commutator_search(mat)

        return Job(f"search.{name}", run,
                   lambda found: check_oracle_answer(found, target, p, nvars, trunc, True))


WORKLOADS = {w.name: w for w in (PackProve, OracleSettle, WitnessCert)}
