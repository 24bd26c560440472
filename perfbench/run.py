"""Benchmark for the oscoh package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N --seconds S --trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see ``workloads.py``): cold-cli, warm-rank-q, bounds-sweep.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the package's public functions
are wrapped (``layertrace.py``) and the last line carries the per-layer metrics.
Lines above it list every metric by name and unit, the tail percentile
with its sample count, every failed op by name, and the environment.
``--all`` runs each workload in a fresh process and prints all of that.

End-to-end times are CPU times scaled to a reference host speed (see
``Clock``); the notes repeat them unscaled, from CPU and from wall time.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here
T_START_CPU = time.process_time()

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

SETUP_REPEATS = 3  # setup_s is the median of these
DEADLINE_S = 30.0  # per op; an op still running then is stopped and failed
PROBE_ITERS = 5000  # of the speed probe's Python loop
PROBE_MATRIX = np.random.default_rng(0).integers(0, 2**30, size=(96, 96), dtype=np.int64)
PROBE_REF_S = 0.0014  # CPU time of one probe pass at the reference speed
PROBE_EVERY_S = 0.1  # wall seconds between clock ticks
SPEED_WINDOW_S = 0.25  # probes this close to an interval give its speed

perf = time.perf_counter


def cpu_time() -> float:
    """CPU seconds used so far by this process, its threads and its
    reaped child processes."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _probe_pass() -> None:
    """Fixed work of the two kinds the package does: a pure-Python loop,
    then numpy row reduction of a fixed int64 matrix modulo a prime."""
    s = 0
    d = {}
    for i in range(PROBE_ITERS):
        s += i * i % 7
        d[i & 255] = s
    m = PROBE_MATRIX.copy()
    for j in range(12):
        m[j + 1 :] = (m[j + 1 :] - 3 * m[j]) % 2147483629


@dataclass
class Timing:
    """CPU and wall seconds of one interval (an op or a set-up) that
    started at wall clock t0."""

    cpu_s: float
    wall_s: float
    t0: float


class Clock:
    """Times intervals, tracks the host's speed and stops ops at their
    deadline, all from one SIGALRM timer that ticks every ``PROBE_EVERY_S``.

    On a shared host the same work takes up to 30 % more or less CPU time
    from one second to the next.  So each tick runs a fixed probe and
    records its CPU time.  An interval's CPU time, less the probes inside
    it, is scaled by ``PROBE_REF_S`` over the median probe time within
    ``SPEED_WINDOW_S`` of the interval, giving its time at the reference
    speed.  The probe runs no package code, so a change to the
    package cannot move it.  With ``probing`` off the ticks only enforce
    deadlines.
    """

    def __init__(self, probing: bool = True):
        self.probing = probing
        self.deadline = None  # wall clock at which the running op is stopped
        self.at = []  # wall clock of each probe, increasing
        self.cost = []  # CPU seconds of one probe pass (median of three)
        self.spent_cpu = 0.0  # in probes, taken out of every interval
        self.spent_wall = 0.0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self.probing:
            self.probe()

    def _tick(self, signum, frame) -> None:
        if self.probing:
            self.probe()
        if self.deadline is not None and perf() >= self.deadline:
            self.deadline = None
            raise OpDeadline()

    def probe(self) -> None:
        t0, c0 = perf(), cpu_time()
        passes = []
        for _ in range(3):
            c = cpu_time()
            _probe_pass()
            passes.append(cpu_time() - c)
        self.at.append(t0)
        self.cost.append(statistics.median(passes))
        self.spent_cpu += cpu_time() - c0
        self.spent_wall += perf() - t0

    def begin(self) -> tuple:
        return perf(), perf() - self.spent_wall, cpu_time() - self.spent_cpu

    def end(self, begun: tuple) -> Timing:
        """The interval since ``begin``, less the probes inside it."""
        t0, wall0, cpu0 = begun
        return Timing(cpu_time() - self.spent_cpu - cpu0, perf() - self.spent_wall - wall0, t0)

    def ref_s(self, t: Timing) -> float:
        """The interval's time at the reference speed."""
        lo = bisect.bisect_left(self.at, t.t0 - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.at, t.t0 + t.wall_s + SPEED_WINDOW_S)
        near = self.cost[lo:hi] or self.cost[max(lo - 1, 0) : lo + 1]
        return t.cpu_s * PROBE_REF_S / statistics.median(near)


@dataclass
class OpRecord:
    name: str
    time: Timing
    status: str  # ok, wrong (the check failed), error (raised) or deadline
    detail: str


class OpDeadline(BaseException):
    """Raised by SIGALRM inside an op; BaseException so no handler in the
    package can swallow it."""


def load_package():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "oscoh", "__init__.py")):
        print(f"perfbench: no package at {os.path.join(src, 'oscoh')}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import oscoh
    import oscoh.cli

    return oscoh


def reset_package_caches() -> None:
    """Empty the catalog's memoized arrangements, so a repeated set-up
    rebuilds everything."""
    import oscoh.catalog

    for value in vars(oscoh.catalog).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


# ---------------------------------------------------------------------------
# running ops


def run_ops(ops, deadline, clock, tracer=None):
    """Run ops one at a time on a started clock.  Returns an OpRecord per op."""
    gc.freeze()  # set-up state is long-lived: keep it out of collections
    records = []
    for op in ops:
        status, detail, result = "ok", "", None
        gc.collect()  # one op's garbage is not charged to the next
        begun = clock.begin()
        try:
            clock.deadline = perf() + deadline
            try:
                if tracer is None:
                    result = op.fn()
                else:
                    with tracer.span("bench.op"):
                        result = op.fn()
            finally:
                clock.deadline = None
        except OpDeadline:
            status, detail = "deadline", f"stopped after {deadline:g} s"
        except Exception as e:  # an op that raises is a failed op, not a crash
            status, detail = "error", f"{type(e).__name__}: {e}"
        timing = clock.end(begun)
        if status == "ok":
            if tracer is not None:
                tracer.active = False
            try:
                problems = op.check(result)
            except Exception as e:
                problems = [f"check raised {type(e).__name__}: {e}"]
            if tracer is not None:
                tracer.active = True
            if problems:
                status, detail = "wrong", "; ".join(problems[:3])
        records.append(OpRecord(op.name, timing, status, detail))
    return records


def tail(durations):
    """Highest percentile with at least 10 samples beyond it: (value, pct).

    Below 21 samples that percentile would sit at or under the median, so
    the maximum is reported instead (percentile 100)."""
    d = sorted(durations)
    n = len(d)
    idx = n - 11 if n >= 21 else n - 1
    return d[idx], 100.0 * (idx + 1) / n


def _timing_metrics(durations, ok, setups):
    tail_s, tail_pct = tail(durations)
    return {
        "ops_per_s": (ok / sum(durations), "1/s"),
        "op_p50_ms": (statistics.median(durations) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }, tail_pct


def end_to_end(records, setups, clock):
    """Metrics from CPU times scaled to the reference speed; the notes give
    the same figures from unscaled CPU time and from wall time."""
    ok = sum(1 for r in records if r.status == "ok")
    timings = [r.time for r in records]
    scaled = clock.ref_s
    metrics, tail_pct = _timing_metrics([scaled(t) for t in timings], ok, [scaled(t) for t in setups])
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    notes = {
        "failed_frac": ((len(records) - ok) / len(records), "ratio"),
        "op_tail_percentile": (round(tail_pct, 1), "%"),
        "op_samples": (len(records), "count"),
        "setup_samples": ([round(scaled(t), 4) for t in setups], "s"),
        "probe_median_ms": (round(statistics.median(clock.cost) * 1e3, 4), "ms"),
        "probe_samples": (len(clock.cost), "count"),
    }
    for kind in ("cpu", "wall"):
        field = kind + "_s"
        raw, _ = _timing_metrics(
            [getattr(t, field) for t in timings], ok, [getattr(t, field) for t in setups]
        )
        for key, (value, unit) in raw.items():
            notes[f"{key}.{kind}"] = (round(value, 4), unit)
    return metrics, notes


def per_layer(tracer, traced_s):
    st = tracer.self_times()

    def self_s(name):
        return st.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return st.get(name, {}).get("calls", 0)

    c = tracer.counters
    requested = c.get("cohom.boundary_ranks_requested", 0)
    q_in_cohom = tracer.calls_under("exactla.rank_over_Q", "cohom.os_cohomology_dims")
    degrees = c.get("resonance.degrees", 0)
    spans = len(tracer.span_end)
    m = {}
    for layer in (
        "catalog.get", "fileio.read_arrangement", "cli.main",
        "matroid.vector_matroid", "matroid.Matroid", "matroid.truncate",
        "matroid.parallel_connection", "arrangement.build", "arrangement.lattice",
        "arrangement.dense_edges", "osalg.nbc", "osalg.aomoto", "osalg.evaluate",
        "exactla.field_rank", "exactla.rank_over_Q", "exactla.bareiss_rank",
        "exactla.rank_mod_p", "exactla.smith_normal_form",
        "cohom.os_cohomology_dims", "cohom.modN_cohomology_ranks",
        "resonance.betti_bounds", "resonance.edge_weights",
    ):
        m[f"{layer}.self_s"] = (self_s(layer), "s")
    for layer in (
        "exactla.field_rank", "exactla.rank_over_Q", "exactla.bareiss_rank",
        "exactla.rank_mod_p", "exactla.smith_normal_form",
    ):
        m[f"{layer}.calls"] = (calls(layer), "count")
    for key in (
        "arrangement.lattice.flats", "osalg.nbc.monomials", "osalg.aomoto.nnz",
        "osalg.evaluate.cells", "exactla.rank_over_Q.cells", "exactla.rank_mod_p.cells",
    ):
        m[key] = (c.get(key, 0), "count")
    m["exactla.smith_normal_form.max_s"] = (st.get("exactla.smith_normal_form", {}).get("max_s", 0.0), "s")
    m["cohom.rank_reuse_ratio"] = (1 - q_in_cohom / requested if requested else 0.0, "ratio")
    m["resonance.translates"] = (tracer.calls_under("cohom.os_cohomology_dims", "resonance.betti_bounds"), "count")
    m["resonance.exact_frac"] = (c.get("resonance.exact_degrees", 0) / degrees if degrees else 0.0, "ratio")
    m["trace.overhead_frac"] = (spans * tracer.span_cost() / traced_s, "ratio")
    return m


# ---------------------------------------------------------------------------
# environment


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy

    src = os.path.join(ROOT, "src", "oscoh")
    lines = 0
    for fn in sorted(os.listdir(src)):
        if fn.endswith(".py"):
            with open(os.path.join(src, fn), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):  # older numpy has no mode="dicts"
        blas = "unknown"
    threads = {
        k: os.environ.get(k, "unset")
        for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "git_commit": _git_commit(),
        "src_lines": lines,
    }


# ---------------------------------------------------------------------------
# one workload in this process


def run_workload(name, seed, seconds, traced):
    import workloads

    wl = workloads.WORKLOADS[name]
    oscoh = load_package()
    tracer = None
    if traced:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    clock = Clock(probing=not traced)
    clock.start()
    try:
        setups = []
        if tracer is not None:
            tracer.active = True
        for i in range(1 if traced else SETUP_REPEATS):
            if i:
                reset_package_caches()
            begun = (T_START, T_START, T_START_CPU) if i == 0 else clock.begin()
            state = wl.setup(seed, oscoh, workdir)
            setups.append(clock.end(begun))
        t_traced = perf()
        ops = wl.plan(state, seed, seconds)
        records = run_ops(ops, DEADLINE_S, clock, tracer)
        if tracer is not None:
            tracer.active = False
            traced_s = perf() - t_traced + setups[0].wall_s
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    if traced:
        metrics = per_layer(tracer, traced_s)
        tracer.write(os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json"))
        notes = {}
    else:
        metrics, notes = end_to_end(records, setups, clock)
    failed = [r for r in records if r.status != "ok"]
    for key, (value, unit) in metrics.items():
        print(f"metric {name} {key} {value:.6g} {unit}")
    for key, (value, unit) in notes.items():
        print(f"note {name} {key} {value} {unit}")
    for r in failed:
        print(f"failed {name} {r.name} {r.status} {r.time.wall_s:.3f}s {r.detail}")
    print("env " + json.dumps(environment(), sort_keys=True))
    wrong = sum(1 for r in records if r.status in ("wrong", "error"))
    result = {
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# all workloads, each in a fresh process


def run_all(seed, seconds, traced):
    import workloads

    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced)),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}: {proc.stderr.strip()}")
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        print(f"workload {name} correct={results[name]['correct']} "
              f"attempted={results[name]['attempted']} failed={results[name]['failed']}")
    print(json.dumps(results))
    return status


# ---------------------------------------------------------------------------
# self-test: the checks catch corrupted answers, the deadline stops ops


def self_test():
    import dataclasses
    from fractions import Fraction

    import workloads

    oscoh = load_package()
    from oscoh import catalog
    from oscoh.resonance import betti_bounds

    failures = []

    def expect(label, ok):
        print(f"self-test {label}: {'ok' if ok else 'FAILED'}")
        if not ok:
            failures.append(label)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="self-test-", dir=OUT_DIR)
    try:
        cold = workloads.ColdCli()
        state = cold.setup(1, oscoh, workdir)
        ops = [op for op in cold.plan(state, 1, 1) if op.name.endswith((":A3#0", ":ceva3#0"))]
        for op in ops:
            result = op.fn()
            expect(f"{op.name} passes its check", op.check(result) == [])
            code, out, ok_codes = result
            doc = json.loads(out)
            key = "betti" if "betti" in doc else "dims" if "dims" in doc else "edges"
            if key == "edges":
                doc["edges"][0]["weight"] = str(Fraction(doc["edges"][0]["weight"]) + 1)
            else:
                doc[key][1] += 1
            expect(f"{op.name} with corrupted {key} is caught", op.check((code, json.dumps(doc), ok_codes)) != [])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    warm = workloads.WarmRankQ()
    wstate = {
        "arrs": {"ceva3": catalog.get("ceva3")},
        "expected": {"ceva3": workloads.inputs.CEVA3_BETTI},
    }
    from oscoh.cohom import modN_cohomology_ranks, os_cohomology_dims

    lam = workloads.CEVA_WEIGHTS
    verify = warm._checker(wstate, "ceva3", catalog.get("ceva3"), lam, True, os_cohomology_dims, modN_cohomology_ranks)
    rep = os_cohomology_dims(catalog.get("ceva3"), lam)
    expect("warm ceva3 pencil passes its check", verify(rep) == [])
    d = list(rep.dims)
    d[1] += 1
    d[2] += 1  # keeps the Euler characteristic
    expect("warm ceva3 with corrupted dims is caught", verify(dataclasses.replace(rep, dims=tuple(d))) != [])

    bounds = workloads.BoundsSweep()
    api = (betti_bounds, os_cohomology_dims, modN_cohomology_ranks, None)
    arr = catalog.get("example-lstrict")
    op = bounds._bounds_op("bounds:example-lstrict", arr, "example-lstrict", workloads.LSTRICT_WEIGHTS, True, api)
    rep = op.fn()
    expect("stated lstrict bounds pass their check", op.check(rep) == [])
    bad = dataclasses.replace(rep, lower=tuple(u + (q == 2) for q, u in enumerate(rep.upper)))
    expect("lower above upper is caught", op.check(bad) != [])

    sec = catalog.get("ceva3-section")
    slow = workloads.Op("bounds:ceva3-section:slow", lambda: betti_bounds(sec, [Fraction(1, 7)] * 9, box=1), lambda r: [])
    boom = workloads.Op("raises", lambda: 1 // 0, lambda r: [])
    clock = Clock()
    clock.start()
    try:
        records = run_ops([slow, boom], 0.05, clock)
    finally:
        clock.stop()
    expect("an op over the deadline is stopped and listed", records[0].name == slow.name and records[0].status == "deadline" and records[0].time.wall_s < 1.0)
    expect("an op that raises is listed", records[1].name == "raises" and records[1].status == "error")
    print(f"self-test: {'passed' if not failures else 'FAILED: ' + ', '.join(failures)}")
    return 1 if failures else 0


def main(argv=None):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="every workload, each in a fresh process")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    if not args.workload:
        p.error("--workload, --all or --self-test is required")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
