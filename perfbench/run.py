"""csrskit benchmark: one command for every workload, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload design-sweep --seed 1 --seconds 30 --trace 0

--trace 0 measures the workload untraced and prints its end-to-end metrics;
--trace 1 runs a fixed, seed-determined share of the workload with span
tracing on and prints the per-layer metrics.  Human-readable detail comes
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import CONFIG, THREAD_ENV, Context, end_to_end, load

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Workload names; each is run by the module of the same name with "_" for "-".
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: End-to-end metrics (--trace 0) and per-layer metrics (--trace 1), with their units.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: Fresh interpreters timed per run for setup_s, half before the measured
#: window and half after it, so that a change of machine speed during the run
#: weighs on set-up as on the window.
SETUP_RUNS = 10
#: Most ops a run may blame on documented defects of the program, as a share
#: of attempted ops: about twice the largest share seen at the seed commit
#: (1.64 %).  Beyond it the run is not correct: a regression must not hide
#: behind a defect's name.
KNOWN_DEFECT_CAP = 0.03


def setup_times(ctx: Context, runs: int) -> list:
    """Wall times of fresh interpreters that import csrskit.cli and load the
    shipped config and catalog (start to ready)."""
    snippet = (
        "import csrskit.cli\n"
        "from csrskit.config import load_config\n"
        "from csrskit.raman_screen import load_catalog\n"
        f"load_catalog(load_config({CONFIG!r}).catalog_path())\n"
    )
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", snippet], cwd=ctx.root, env=ctx.child_env(), check=True)
        times.append(time.perf_counter() - t0)
    return times


def is_correct(record) -> bool:
    return record.wrong == record.known_defect and record.known_defect <= KNOWN_DEFECT_CAP * record.attempted


def _module(workload: str):
    return importlib.import_module(workload.replace("-", "_"))


def run_end_to_end(ctx: Context, workload: str, seed: int, seconds: float) -> dict:
    setup = setup_times(ctx, SETUP_RUNS // 2)
    record = _module(workload).run(ctx, seed, seconds)
    setup += setup_times(ctx, SETUP_RUNS - SETUP_RUNS // 2)
    metrics, lines = end_to_end(record, statistics.median(setup))
    for name, unit in END_TO_END.items():
        print(f"{name:<24} {metrics[name]:>14.6g} {unit}")
    for line in lines:
        print(line)
    return {
        "correct": is_correct(record),
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()},
    }


def traced_metrics(tracer, extra: dict) -> dict:
    """The tracer's layer metrics, the workload's own extras and the tracing overhead."""
    from tracing import layer_metrics

    values = {**layer_metrics(tracer), **extra}
    untraced, traced = values["trace.untraced_ops_per_s"], values["trace.traced_ops_per_s"]
    values["trace.overhead_pct"] = 100.0 * (untraced / traced - 1.0)
    unknown = sorted(set(values) - set(PER_LAYER))
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {', '.join(unknown)}")
    return values


def run_traced(ctx: Context, workload: str, seed: int, seconds: float) -> dict:
    import csrskit.cli  # noqa: F401  (every csrskit module is loaded before patching)
    from tracing import TARGETS, Tracer

    tracer = Tracer(TARGETS)
    with tracer:
        load(ctx)
    extra, record = _module(workload).traced(ctx, seed, tracer)
    measured = traced_metrics(tracer, extra)
    # a layer the workload does not reach reads 0
    values = {name: measured.get(name, 0.0) for name in PER_LAYER}
    spans = ctx.out / f"spans-{workload}-seed{seed}.csv"
    tracer.write_spans(spans)
    print(
        f"traced {record.attempted} ops (failed {record.failed}, wrong {record.wrong}, known defect "
        f"{record.known_defect}); {len(tracer.spans)} spans -> {spans}"
    )
    for name in sorted(values):
        print(f"{name:<62} {values[name]:>16.6g} {PER_LAYER[name]}")
    return {
        "correct": is_correct(record),
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {name: {"value": values[name], "unit": PER_LAYER[name]} for name in PER_LAYER},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/csrskit/cli.py", CONFIG) if not (root / p).is_file()]
    if missing:
        print(f"perfbench: run from the csrskit repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(root / "src"))
    ctx = Context(root=root, out=root / "perfbench" / "out")
    ctx.out.mkdir(parents=True, exist_ok=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    run = run_traced if args.trace else run_end_to_end
    result = run(ctx, args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
