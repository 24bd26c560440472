"""Span tracing of the package's layers, installed from outside.

``Tracer.install()`` rebinds each public function listed in ``TARGETS`` to
a wrapper, in its defining module and in every ``oscoh`` module that
imported it by name (methods are replaced on their class).  A wrapper
records one span (name, start, end, parent) and updates work counters.
Spans stay in memory; ``write`` stores them when the run ends.  Only the
traced run installs the wrappers, so the untraced run measures the package
as shipped.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

perf = time.perf_counter


def _dims_cells(rows) -> int:
    return len(rows) * (len(rows[0]) if rows else 0)


def _lattice_miss(args, kwargs):
    return "lattice" not in args[0]._cache


def _nbc_miss(args, kwargs):
    return ("nbc", args[1]) not in args[0]._cache


def _aomoto_miss(args, kwargs):
    return ("aomoto", args[1]) not in args[0]._cache


# (module, attribute path, span name, pre(args, kwargs) -> info,
#  post(tracer, args, kwargs, result, info))
TARGETS = [
    ("catalog", "get", "catalog.get", None, None),
    ("fileio", "read_arrangement", "fileio.read_arrangement", None, None),
    ("cli", "main", "cli.main", None, None),
    ("matroid", "vector_matroid", "matroid.vector_matroid", None, None),
    ("matroid", "Matroid.__init__", "matroid.Matroid", None, None),
    ("matroid", "Matroid.truncate", "matroid.truncate", None, None),
    ("matroid", "parallel_connection", "matroid.parallel_connection", None, None),
    ("arrangement", "build_arrangement", "arrangement.build", None, None),
    (
        "arrangement", "Arrangement.intersection_lattice", "arrangement.lattice",
        _lattice_miss,
        lambda t, a, k, res, miss: miss and t.count("arrangement.lattice.flats", len(res)),
    ),
    ("arrangement", "Arrangement.dense_edges", "arrangement.dense_edges", None, None),
    (
        "osalg", "nbc_basis", "osalg.nbc", _nbc_miss,
        lambda t, a, k, res, miss: miss and t.count("osalg.nbc.monomials", len(res)),
    ),
    (
        "osalg", "aomoto_matrix", "osalg.aomoto", _aomoto_miss,
        lambda t, a, k, res, miss: miss and t.count("osalg.aomoto.nnz", len(res.entries)),
    ),
    (
        "osalg", "AomotoMatrix.evaluate", "osalg.evaluate", None,
        lambda t, a, k, res, info: t.count("osalg.evaluate.cells", _dims_cells(res)),
    ),
    ("exactla", "field_rank", "exactla.field_rank", None, None),
    (
        "exactla", "rank_over_Q", "exactla.rank_over_Q", None,
        lambda t, a, k, res, info: t.count("exactla.rank_over_Q.cells", _dims_cells(a[0])),
    ),
    ("exactla", "bareiss_rank", "exactla.bareiss_rank", None, None),
    (
        "exactla", "rank_mod_p", "exactla.rank_mod_p", None,
        lambda t, a, k, res, info: t.count("exactla.rank_mod_p.cells", _dims_cells(a[0])),
    ),
    ("exactla", "smith_normal_form", "exactla.smith_normal_form", None, None),
    (
        "cohom", "os_cohomology_dims", "cohom.os_cohomology_dims", None,
        lambda t, a, k, res, info: t.count("cohom.boundary_ranks_requested", a[0].rank),
    ),
    ("cohom", "modN_cohomology_ranks", "cohom.modN_cohomology_ranks", None, None),
    (
        "resonance", "betti_bounds", "resonance.betti_bounds", None,
        lambda t, a, k, res, info: (
            t.count("resonance.degrees", len(res.exact)),
            t.count("resonance.exact_degrees", sum(res.exact)),
        ),
    ),
    ("resonance", "edge_weights", "resonance.edge_weights", None, None),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self.active = False

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self._id(name))

    def _open(self, nid: int) -> int:
        idx = len(self.span_end)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf()
        self._stack.pop()

    def wrap(self, fn, name: str, pre=None, post=None):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            info = pre(args, kwargs) if pre else None
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if post:
                post(tracer, args, kwargs, result, info)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Rebind every target, in its module and wherever it was imported."""
        mods = [m for k, m in list(sys.modules.items()) if k == "oscoh" or k.startswith("oscoh.")]
        for modname, path, name, pre, post in TARGETS:
            mod = importlib.import_module(f"oscoh.{modname}")
            owner = mod
            parts = path.split(".")
            for p in parts[:-1]:
                owner = getattr(owner, p)
            orig = getattr(owner, parts[-1])
            wrapped = self.wrap(orig, name, pre, post)
            setattr(owner, parts[-1], wrapped)
            if len(parts) == 1:
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, dict]:
        """Per span name: calls, total self time, and longest span."""
        n = len(self.span_end)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out: dict[str, dict] = {}
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            rec = out.setdefault(self.names[self.span_name[i]], {"calls": 0, "self_s": 0.0, "max_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += dur - child[i]
            rec["max_s"] = max(rec["max_s"], dur)
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        nid, aid = self._ids.get(name), self._ids.get(ancestor)
        if nid is None or aid is None:
            return 0
        total = 0
        for i, s in enumerate(self.span_name):
            if s != nid:
                continue
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != aid:
                p = self.span_parent[p]
            total += p >= 0
        return total

    def span_cost(self, samples: int = 20000) -> float:
        """Seconds one recorded span adds, measured on an empty function."""

        def noop():
            return None

        wrapped = self.wrap(noop, "trace.calibration")
        mark = len(self.span_end)
        was_active, self.active = self.active, True
        t0 = perf()
        for _ in range(samples):
            noop()
        bare = perf() - t0
        t0 = perf()
        for _ in range(samples):
            wrapped()
        traced = perf() - t0
        self.active = was_active
        for lst in (self.span_name, self.span_start, self.span_end, self.span_parent):
            del lst[mark:]
        return max(traced - bare, 0.0) / samples

    def write(self, path) -> None:
        rows = [
            [self.span_name[i], self.span_start[i], self.span_end[i], self.span_parent[i]]
            for i in range(len(self.span_end))
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": rows, "counters": self.counters}, fh)


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid) if self.tracer.active else None
        return self

    def __exit__(self, *exc):
        if self.idx is not None:
            self.tracer._close(self.idx)
        return False
