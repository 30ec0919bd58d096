"""Shared pieces of the csrskit benchmark: run context, op records, statistics."""

from __future__ import annotations

import contextlib
import gc
import math
import os
import random
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Environment of every process the benchmark starts, and of the benchmark
#: itself (set before numpy is imported).  One BLAS/OpenMP thread keeps CPU
#: time equal to busy wall time; with the default pool numpy's BLAS threads
#: made CPU exceed wall on a 2-core machine.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

CONFIG = "configs/h2_914nm.yaml"


@dataclass
class Context:
    """Where the run happens and what set-up loaded."""

    root: Path
    out: Path
    config: object = None
    catalog: object = None

    def child_env(self) -> dict:
        env = dict(os.environ)
        env.update(THREAD_ENV)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env


def load(ctx: Context) -> None:
    """Load the shipped config and catalog into ctx (the "ready" step of set-up)."""
    from csrskit.config import load_config
    from csrskit.raman_screen import load_catalog

    ctx.config = load_config(ctx.root / CONFIG)
    ctx.catalog = load_catalog(ctx.config.catalog_path())
    # Everything alive now (interpreter, numpy, scipy, csrskit, the loaded
    # config) is moved out of the collector's reach.  Garbage the ops create is
    # still collected, but full collections no longer rescan this heap: left
    # in, their ~40 ms pauses set the tail of the millisecond-scale ops.
    gc.collect()
    gc.freeze()


@dataclass
class Record:
    """Outcome of one measured run of a workload.

    failed: ops that raised an error or exited non-zero when the benchmark
    predicted success (or raised another error than the predicted one).
    wrong: ops whose output failed its check.  known_defect: the subset of
    wrong ops that show a documented defect of the program (see README.md).
    """

    latencies: list = field(default_factory=list)  # s, one per attempted op
    cpu: list = field(default_factory=list)  # s, one per attempted op
    kinds: list = field(default_factory=list)
    failed: int = 0
    wrong: int = 0
    known_defect: int = 0
    peak_rss_mb: float | None = None

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def add(self, kind: str, wall_s: float, cpu_s: float, verdict: str) -> None:
        self.latencies.append(wall_s)
        self.cpu.append(cpu_s)
        self.kinds.append(kind)
        if verdict == "failed":
            self.failed += 1
        elif verdict in ("wrong", "known"):
            self.wrong += 1
            self.known_defect += verdict == "known"
        elif verdict != "ok":
            raise ValueError(f"unknown verdict {verdict!r}")


def lhs_rows(rng: random.Random, size: int, dims: int) -> list:
    """A block of stratified uniforms: each column hits each of `size` strata once.

    Drawing inputs block by block keeps the mix of cheap and expensive ops
    in every run close to its expectation, so seed-to-seed spread of the
    end-to-end metrics reflects the program, not the luck of the draw.
    """
    cols = [[(k + rng.random()) / size for k in rng.sample(range(size), size)] for _ in range(dims)]
    return [list(row) for row in zip(*cols)]


def log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(values_ms: list) -> tuple[float, float, int]:
    """Value at the highest percentile, up to p95, that still has >= 10 samples beyond it.

    Returns (value, percentile, samples beyond).  Runs of fewer than 200 ops
    get the value with 10 samples beyond it; longer runs get p95.  The cap
    keeps the tail off the few rarest ops of a run: in 30 s analysis-batch
    runs the 11th-slowest of ~4700 jobs is one of a handful of long bend fits
    or an op caught by a pause of the machine, and it spread 0.33 of its
    median over seeds where p95 spread 0.03.  With 10 or fewer samples the
    maximum is returned with the number of samples beyond it (0).
    """
    ordered = sorted(values_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    beyond = max(10, n // 20)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def end_to_end(record: Record, setup_s: float) -> tuple[dict, list]:
    """End-to-end metrics of a run plus human-readable detail lines."""
    lat_ms = [x * 1e3 for x in record.latencies]
    busy = sum(record.latencies)
    tail_ms, pct, beyond = tail(lat_ms)
    rss = record.peak_rss_mb if record.peak_rss_mb is not None else peak_rss_self_mb()
    metrics = {
        "setup_s": setup_s,
        "throughput_ops_per_s": record.attempted / busy,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail_ms,
        "cpu_ms_per_op": sum(record.cpu) * 1e3 / record.attempted,
        "peak_rss_mb": rss,
    }
    error_rate = (record.failed + record.wrong) / record.attempted
    lines = [
        f"latency_tail_ms is p{pct:.2f} of {len(lat_ms)} ops ({beyond} beyond it)",
        f"error_rate {error_rate:.6f} ratio: attempted {record.attempted}, failed {record.failed}, "
        f"wrong {record.wrong} (known defect {record.known_defect})",
    ]
    by_kind: dict[str, list] = {}
    for kind, x in zip(record.kinds, lat_ms):
        by_kind.setdefault(kind, []).append(x)
    for kind in sorted(by_kind):
        xs = by_kind[kind]
        lines.append(f"  op {kind:<22} n={len(xs):<6} p50={statistics.median(xs):9.3f} ms  max={max(xs):9.3f} ms")
    return metrics, lines


OP_TIMEOUT_S = 20.0


class OpTimeout(Exception):
    """An op ran longer than OP_TIMEOUT_S (raised by the alarm handler)."""


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")


def drive(ops, tracer=None, deadline: float = math.inf) -> Record:
    """Run (kind, call, check) ops in a closed loop until they or the time run out.

    Each call is timed and its outcome judged by check.  A call running
    longer than OP_TIMEOUT_S is stopped by an alarm and counts as failed.
    With a tracer, each op is a root span, and generating the next op and
    checking it run with tracing paused, so spans hold the ops' own calls.
    Garbage is collected between ops, untimed.
    """
    record = Record()
    pause = tracer.paused if tracer is not None else contextlib.nullcontext
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        while time.perf_counter() < deadline:
            with pause():
                item = next(ops, None)
            if item is None:
                break
            kind, call, check = item
            with tracer.span("op." + kind) if tracer is not None else contextlib.nullcontext():
                signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
                try:
                    out, wall, cpu = timed(call)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0.0)
            with pause():
                record.add(kind, wall, cpu, check(out))
                # Start every op with an empty young generation.  Otherwise
                # collections triggered by the benchmark's own garbage (inputs,
                # checks) land inside ops at random and their pauses, up to
                # ~10 ms, set the tail of the ~5 ms analysis jobs.
                gc.collect()
    finally:
        signal.signal(signal.SIGALRM, previous)
    return record


def untraced_then_traced(make_ops, tracer) -> tuple[dict, Record]:
    """Run the same fixed ops untraced, then traced; the gap between the two
    throughputs is the tracing overhead.  Returns both and the traced record."""
    plain = drive(make_ops())
    with tracer:
        record = drive(make_ops(), tracer)
    throughputs = {
        "trace.untraced_ops_per_s": plain.attempted / sum(plain.latencies),
        "trace.traced_ops_per_s": record.attempted / sum(record.latencies),
    }
    return throughputs, record


def timed(fn, *args, **kwargs):
    """Run fn, returning (outcome, wall_s, cpu_s); outcome is the result or the exception."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # the caller judges expected against unexpected errors
        out = exc
    t1 = time.perf_counter()
    c1 = time.process_time()
    return out, t1 - t0, c1 - c0


def rel_close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * abs(b)
