"""cli-cold: one op is one fresh ``python -m csrskit.cli`` process.

Ops cycle through blocks of the seven invocations users run on the shipped
config: phase-match, efficiency, bend, screen and fit with each of its three
kinds on the shipped data.  The seed picks the sweep ranges and counts inside
the shipped windows and the --loss-variant.  Every block runs twice: the
first pass is checked against an in-process recomputation (cli.main in this
process), the second must write byte-identical CSVs.

This process imports csrskit only after the timed loop.  A child's peak RSS
(ru_maxrss) also counts the parent memory it was forked from, so a parent
holding numpy and scipy would report its own size instead of the CLI's.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

from common import CONFIG, OP_TIMEOUT_S, Record, drive, lhs_rows
from tracing import Tracer

FIT_DATA = {
    "cutback": "data/cutback_synthetic.csv",
    "efficiency": "data/efficiency_synthetic.csv",
    "bend": "data/bend_synthetic.csv",
}
CSV_NAMES = {
    "phase-match": "phase_match.csv",
    "efficiency": "efficiency_vs_length.csv",
    "bend": "bend_accessibility.csv",
    "screen": "raman_screen.csv",
}
#: name -> (subcommand arguments, CSV file) for the canonical, unseeded runs
CANONICAL = {
    "phase-match": ["phase-match"],
    "efficiency": ["efficiency"],
    "bend": ["bend"],
    "screen": ["screen"],
    **{f"fit-{kind}": ["fit", "--kind", kind, "--data", path] for kind, path in FIT_DATA.items()},
}
LOSS_VARIANTS = ("lossless", "lumped-exponential", "amplitude-integral")  # the CLI's --loss-variant choices
REPEATS = 3


def csv_name(name: str) -> str:
    return CSV_NAMES.get(name, f"fit_{name[4:]}.csv")


def _range(lo: float, hi: float, count: int) -> str:
    return f"{lo:.6g}:{hi:.6g}:{count}"


def invocations(seed: int):
    """Yield blocks of (name, cli arguments without --out) for the seven invocations."""
    rng = random.Random(f"cli-cold:{seed}")
    names = list(CANONICAL)
    while True:
        block = []
        for name, u in zip(names, lhs_rows(rng, len(names), 4)):
            args = list(CANONICAL[name])
            if name == "phase-match":
                args += ["--pressures", _range(60.0 + 30.0 * u[0], 96.0 + 14.0 * u[1], 11 + int(91 * u[2]))]
            elif name == "efficiency":
                args += ["--lengths", _range(0.1 + 4.9 * u[0], 10.0 + 15.0 * u[1], 10 + int(91 * u[2]))]
            elif name == "bend":
                args += ["--radii", _range(0.05 + 0.15 * u[0], 0.3 + 0.3 * u[1], 5 + int(52 * u[2]))]
            variant = LOSS_VARIANTS[min(int(3 * u[3]), 2)]
            block.append((name, ["--config", CONFIG, "--loss-variant", variant] + args))
        rng.shuffle(block)
        yield block


def cold_run(ctx, argv: list, stderr_path: Path) -> tuple[int, float, float, float]:
    """Run one fresh interpreter; returns (exit code, wall s, cpu s, peak RSS MB).

    A child still running after OP_TIMEOUT_S is killed (and so counts as failed).
    """
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ctx.root, env=ctx.child_env(), stdout=subprocess.DEVNULL, stderr=err
        )
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def in_process(argv: list) -> int:
    import csrskit.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return csrskit.cli.main(argv)


def _data_rows(text: str) -> list:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def check_semantics(name: str, args: list, text: str) -> bool:
    rows = _data_rows(text)
    if name in ("phase-match", "efficiency", "bend"):
        count = int(args[-1].rsplit(":", 1)[1])
        extra = {"phase-match": 1, "bend": 0, "efficiency": 0 if "lossless" in args else 1}[name]
        if len(rows) != count + extra:
            return False
        if name == "phase-match":
            return abs(float(rows[-1][1])) <= 1e-6
        return True
    if name == "screen":
        return len(rows) == 2  # the two parasitic channels of the shipped setup
    return len(rows) == {"fit-cutback": 2, "fit-efficiency": 1, "fit-bend": 3}[name]


def run(ctx, seed: int, seconds: float) -> Record:
    base = ctx.out / "cli"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    deadline = time.perf_counter() + seconds
    done = []  # (name, args, wall s, cpu s, exit code, CSV written, CSV of the first pass)
    rss = 0.0
    for index, block in enumerate(invocations(seed)):
        for rerun in (False, True):
            for slot, (name, args) in enumerate(block):
                if time.perf_counter() >= deadline:
                    return _check(done, rss, base / "recompute")
                out = base / ("second" if rerun else "first") / f"{index}-{slot}"
                code, wall, cpu, child_rss = cold_run(ctx, ["-m", "csrskit.cli", "--out", str(out), *args], base / "stderr")
                rss = max(rss, child_rss)
                first = base / "first" / f"{index}-{slot}" / csv_name(name)
                done.append((name, args, wall, cpu, code, out / csv_name(name), first))


def _check(done: list, rss: float, recompute: Path) -> Record:
    """Judge the ops once the timed loop is over (this is where csrskit gets imported)."""
    record = Record(peak_rss_mb=rss)
    for name, args, wall, cpu, code, csv, first in done:
        if code != 0:
            record.add(name, wall, cpu, "failed")
            continue
        if csv != first:  # a repeat: byte-identical to the first pass, when that one succeeded
            ok = csv.is_file() and (not first.is_file() or csv.read_bytes() == first.read_bytes())
        else:
            mirror = recompute / csv.parent.name
            ok = csv.is_file() and in_process(["--out", str(mirror), *args]) == 0
            ok = ok and (mirror / csv_name(name)).read_bytes() == csv.read_bytes()
            ok = ok and check_semantics(name, args, csv.read_text(encoding="utf-8"))
        record.add(name, wall, cpu, "ok" if ok else "wrong")
    return record


# -- traced run: cold-start breakdown plus warm, traced cli.main -------------


def _median_wall(ctx, argv: list) -> float:
    return statistics.median(cold_run(ctx, argv, ctx.out / "cli" / "stderr")[1] for _ in range(REPEATS)) * 1e3


def import_shares(ctx) -> dict:
    """Median import cost (ms) of scipy, numpy and yaml inside ``import csrskit.cli``.

    Each import is charged, with everything it pulls in (cumulative -X
    importtime), to the first of these packages on its import chain, so the
    shares do not overlap: numpy is first imported from inside scipy, and
    that cost is scipy's until scipy is gone.
    """
    samples: dict[str, list] = {"scipy": [], "numpy": [], "yaml": []}
    for _ in range(REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import csrskit.cli"],
            cwd=ctx.root, env=ctx.child_env(), capture_output=True, text=True, check=True,
        )  # fmt: skip
        totals = dict.fromkeys(samples, 0.0)
        stack: list[tuple[int, str]] = []  # the enclosing imports: (depth, package)
        # children are printed before their parent, so walk the lines in reverse
        for line in reversed(proc.stderr.splitlines()):
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:") or "self" in parts[0]:
                continue
            name = parts[2].rstrip()
            depth = len(name) - len(name.lstrip())
            package = name.strip().split(".")[0]
            while stack and stack[-1][0] >= depth:
                stack.pop()
            if package in totals and not any(p in totals for _, p in stack):
                totals[package] += int(parts[1]) / 1e3
            stack.append((depth, package))
        for package, value in totals.items():
            samples[package].append(value)
    return {package: statistics.median(values) for package, values in samples.items()}


def traced(ctx, seed: int, tracer: Tracer) -> tuple[dict, Record]:
    (ctx.out / "cli").mkdir(parents=True, exist_ok=True)
    extra = {}
    floor = _median_wall(ctx, ["-c", "pass"])
    extra["cli.python_floor_ms"] = floor
    extra["cli.import_ms"] = _median_wall(ctx, ["-c", "import csrskit.cli"]) - floor
    for package, ms in import_shares(ctx).items():
        extra[f"cli.import_{package}_ms"] = ms
    base = ctx.out / "cli" / "canonical"
    argvs = {name: ["--config", CONFIG, *args] for name, args in CANONICAL.items()}
    for name, argv in argvs.items():
        extra[f"cli.{name}.wall_ms"] = _median_wall(ctx, ["-m", "csrskit.cli", "--out", str(base / "cold"), *argv])

    warm = {}
    for _ in range(REPEATS):
        for name, argv in argvs.items():
            t0 = time.perf_counter()
            in_process(["--out", str(base / "warm" / name), *argv])
            warm.setdefault(name, []).append(time.perf_counter() - t0)
    for name in argvs:
        extra[f"cli.{name}.main_ms"] = statistics.median(warm[name]) * 1e3
        extra[f"cli.{name}.csv_bytes"] = float((base / "warm" / name / csv_name(name)).stat().st_size)

    def traced_op(name, argv):
        def check(code):
            reference = (base / "warm" / name / csv_name(name)).read_bytes()
            same = code == 0 and (base / "traced" / name / csv_name(name)).read_bytes() == reference
            return "ok" if same else "wrong"

        return name, partial(in_process, ["--out", str(base / "traced" / name), *argv]), check

    with tracer:
        record = drive(iter([traced_op(name, argv) for name, argv in argvs.items()]), tracer)
    extra["trace.untraced_ops_per_s"] = len(argvs) / sum(statistics.median(v) for v in warm.values())
    extra["trace.traced_ops_per_s"] = record.attempted / sum(record.latencies)
    return extra, record
