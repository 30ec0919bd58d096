"""Tests of the benchmark itself: metric names, deterministic counts, checks."""

from __future__ import annotations

import sys
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest  # noqa: E402

from common import Context, Record, drive, tail  # noqa: E402


@pytest.fixture(scope="module")
def ctx() -> Context:
    from csrskit.config import load_config
    from csrskit.raman_screen import load_catalog

    config = load_config(ROOT / "configs" / "h2_914nm.yaml")
    return Context(root=ROOT, out=ROOT / "perfbench" / "out", config=config, catalog=load_catalog(config.catalog_path()))


def test_traced_runs_produce_every_per_layer_metric(ctx, monkeypatch):
    """The traced runs of all workloads together produce exactly the
    per-layer metrics named in BENCHMARK.json (cold processes faked)."""
    import analysis_batch
    import cli_cold
    import design_sweep
    import run
    from tracing import TARGETS, Tracer

    monkeypatch.setattr(design_sweep, "TRACED_DESIGNS", 2)
    monkeypatch.setattr(analysis_batch, "TRACED_JOBS", 3)
    monkeypatch.setattr(cli_cold, "REPEATS", 1)
    monkeypatch.setattr(cli_cold, "cold_run", lambda ctx, argv, stderr_path: (0, 0.5, 0.5, 50.0))
    names = set()
    for module in (cli_cold, design_sweep, analysis_batch):
        tracer = Tracer(TARGETS)
        extra, record = module.traced(ctx, 1, tracer)
        assert record.failed == 0 and record.wrong == record.known_defect
        names |= set(run.traced_metrics(tracer, extra))
    assert names == set(run.PER_LAYER)


def test_tail_keeps_ten_samples_beyond():
    values = list(range(100))
    value, percentile, beyond = tail(values)
    assert (value, percentile, beyond) == (89, 90.0, 10)
    assert tail([3.0, 1.0]) == (3.0, 100.0, 0)


def test_tail_is_p95_on_long_runs():
    values = list(range(1000))
    assert tail(values) == (949, 95.0, 50)
    assert tail(list(range(200))) == (189, 95.0, 10)


def _design_counts(ctx, seed: int) -> dict:
    import design_sweep
    from tracing import TARGETS, Tracer, layer_metrics

    tracer = Tracer(TARGETS)
    with tracer:
        record = drive(design_sweep.all_ops(design_sweep.Setup(ctx.config), seed, 6), tracer)
    metrics = layer_metrics(tracer)
    counts = {k: v for k, v in metrics.items() if not k.endswith(("_ms", "us_per_call", "ms_per_call"))}
    return {"record": (record.attempted, record.failed, record.wrong, record.kinds), **counts}


def test_design_sweep_counts_repeat_for_a_seed(ctx):
    first = _design_counts(ctx, 11)
    assert first == _design_counts(ctx, 11)
    assert first["phasematch.delta_beta.calls"] > 0
    assert first["phasematch.optimal_pressure.iterations_mean"] > 0


def test_analysis_batch_counts_repeat_for_a_seed(ctx):
    import analysis_batch
    from tracing import TARGETS, Tracer, layer_metrics

    def counts():
        tracer = Tracer(TARGETS)
        with tracer:
            drive(analysis_batch.all_ops(ctx, 5, 24), tracer)
        m = layer_metrics(tracer)
        return [m[k] for k in ("fitting.fit_bend_saturation.iterations_mean", "efficiency.predicted_efficiency.calls")]

    assert counts() == counts()


def test_reference_counts_stay_within_seed_values(ctx):
    import design_sweep

    counts = design_sweep.reference_counts(ctx)
    # the seed commit needs 8, 165, 838 and 231 delta_beta evaluations
    assert counts["phasematch.optimal_pressure.delta_beta_ref"] <= 8
    assert counts["phasematch.pressure_acceptance.delta_beta_ref_1.85m"] <= 165
    assert counts["phasematch.pressure_acceptance.delta_beta_ref_0.3m"] <= 838
    assert counts["phasematch.infer_wall_thickness.delta_beta_ref"] <= 231


def test_optimal_length_check_names_the_search_bound_defect():
    import analysis_batch as ab
    from csrskit.efficiency import LengthOptimum

    losses = (0.001, 0.001, 0.001, 0.001)
    assert ab.closed_form_length("lumped-exponential", losses) == pytest.approx(2171.47, rel=1e-5)
    job = next(ab.jobs(1))
    job.losses_db = losses
    # the returned search bound is the documented defect, the closed form is right
    assert ab.optimum_verdict(job, "lumped-exponential", LengthOptimum(1000.0, 0.0)) == "known"
    assert ab.optimum_verdict(job, "lumped-exponential", LengthOptimum(2171.472, 0.0)) == "ok"
    assert ab.optimum_verdict(job, "lumped-exponential", LengthOptimum(900.0, 0.0)) == "wrong"


def test_record_counts_verdicts():
    record = Record()
    for verdict in ("ok", "failed", "wrong", "known"):
        record.add("op", 0.001, 0.001, verdict)
    assert (record.attempted, record.failed, record.wrong, record.known_defect) == (4, 1, 2, 1)


def test_bend_fit_check_blames_the_defect_only_for_a_genuine_early_stop():
    import analysis_batch as ab
    from csrskit import fitting

    job = next(islice(ab.jobs(1), 263, None))  # the auto-start fit settles in a spurious minimum
    fit = fitting.fit_bend_saturation(job.series)
    assert ab._fit_verdict(job, fit) == "known"
    nan = dict.fromkeys(fit.parameters, float("nan"))
    assert ab._fit_verdict(job, fitting.FitResult(nan, None, float("nan"), True, 1)) == "wrong"
