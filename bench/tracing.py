"""In-memory spans around calls into tracezero, installed from outside.

``Tracer.install`` replaces each traced public function, and the traced
methods of ``RingTable``, ``Poly`` and ``Matrix``, with a wrapper that
records a span: name, start, end, parent span and the job it ran under.
Functions are replaced in every tracezero module that holds them, so
calls between modules are traced too. Self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager

# span name -> (module, attribute); "Class.method" entries wrap a method
TRACED = {
    "packing.build_graph": ("tracezero.packing", "build_graph"),
    "packing.max_independent_set": ("tracezero.packing", "max_independent_set"),
    "oracle.exhaustive_noncommutator_check": ("tracezero.oracle", "exhaustive_noncommutator_check"),
    "oracle.exhaustive_commutator_search": ("tracezero.oracle", "exhaustive_commutator_search"),
    "oracle.RingTable": ("tracezero.oracle", "RingTable.__init__"),
    "oracle.quadric_decomposition_check": ("tracezero.oracle", "quadric_decomposition_check"),
    "certificates.build_noncommutator": ("tracezero.certificates", "build_noncommutator"),
    "certificates.validate_certificate": ("tracezero.certificates", "validate_certificate"),
    "certificates.certificate_from_json": ("tracezero.certificates", "certificate_from_json"),
    "certificates.certificate_to_json": ("tracezero.certificates", "certificate_to_json"),
    "witnesses.triangular_witness": ("tracezero.witnesses", "triangular_witness"),
    "witnesses.hollow_witness": ("tracezero.witnesses", "hollow_witness"),
    "witnesses.nilpotent_witness": ("tracezero.witnesses", "nilpotent_witness"),
    "witnesses.witness_from_json": ("tracezero.witnesses", "witness_from_json"),
    "matrices.commutator": ("tracezero.matrices", "commutator"),
    "matrices.nilpotent_flag": ("tracezero.matrices", "nilpotent_flag"),
    "matrices.Matrix.from_json": ("tracezero.matrices", "Matrix.from_json"),
    "polynomials.Poly.mul": ("tracezero.polynomials", "Poly.__mul__"),
    "polynomials.poly_from_text": ("tracezero.polynomials", "poly_from_text"),
}


class Tracer:
    """Span store for one process. Spans live in typed arrays (name id,
    job id, parent index, start, end) so that hot spans stay cheap."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.job = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self._stack: list[list] = []  # [span index, child time]
        self._job = -1
        self._restore: list = []
        self.round_start = 0  # index of the first span of the latest round

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def _open(self, name_id: int) -> list:
        idx = len(self.start)
        self.name.append(name_id)
        self.job.append(self._job)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        now = time.perf_counter()
        self.start.append(now)
        self.end.append(now)
        self.self_time.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list):
        end = time.perf_counter()
        self._stack.pop()
        idx = frame[0]
        dur = end - self.start[idx]
        self.end[idx] = end
        self.self_time[idx] = dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur

    @contextmanager
    def job_span(self, name: str):
        """Root span of one benchmark job; spans opened inside carry its id."""
        outer = self._job
        self._job = self._id(name)
        frame = self._open(self._job)
        try:
            yield
        finally:
            self._close(frame)
            self._job = outer

    def wrap(self, name: str, fn):
        name_id = self._id(name)
        opened, closed = self._open, self._close

        def traced(*args, **kwargs):
            frame = opened(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(frame)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Wrap every entry of TRACED wherever tracezero holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "tracezero" or n.startswith("tracezero.")]
        for name, (modname, attr) in TRACED.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                traced = self.wrap(name, fn)
                new = staticmethod(traced) if isinstance(raw, staticmethod) else traced
                for key, val in list(cls.__dict__.items()):
                    if val is raw:  # aliases such as Poly.__rmul__
                        setattr(cls, key, new)
                        self._restore.append((cls, key, raw))
            else:
                fn = getattr(owner, attr)
                traced = self.wrap(name, fn)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, key, traced)
                            self._restore.append((mod, key, fn))

    def uninstall(self):
        for owner, key, val in reversed(self._restore):
            setattr(owner, key, val)
        self._restore.clear()

    # -- summaries ----------------------------------------------------------

    def totals(self) -> dict:
        """{span name: [self seconds, calls]} over every recorded span."""
        out = {n: [0.0, 0] for n in self.names}
        for i in range(len(self.start)):
            slot = out[self.names[self.name[i]]]
            slot[0] += self.self_time[i]
            slot[1] += 1
        return out

    def totals_in_job(self, job: str, names) -> float:
        """Self seconds of spans named in ``names`` under the job ``job``."""
        job_id = self._name_id.get(job)
        ids = {self._name_id[n] for n in names if n in self._name_id}
        return sum(self.self_time[i] for i in range(len(self.start))
                   if self.job[i] == job_id and self.name[i] in ids)

    def write(self, path: str, first: int = 0):
        """Spans from index ``first`` on as JSON: one [name, job, parent,
        start, end, self] row per span, names and jobs as indexes into
        "names", parent as a span index, times in seconds relative to the
        first span written."""
        t0 = self.start[first] if len(self.start) > first else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"columns":["name","job","parent","start_s","end_s","self_s"],')
            fh.write(f'"first_span":{first},"names":' + json.dumps(self.names) + ',"spans":[')
            for i in range(first, len(self.start)):
                if i > first:
                    fh.write(",")
                fh.write(f"[{self.name[i]},{self.job[i]},{self.parent[i]},"
                         f"{self.start[i] - t0:.7f},{self.end[i] - t0:.7f},"
                         f"{self.self_time[i]:.7f}]")
            fh.write("]}\n")
