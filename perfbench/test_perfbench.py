"""Tests of the benchmark itself: tracing is transparent, counts repeat
exactly, output checks fail loudly, and BENCHMARK.json matches the metrics.

    python3 -m pytest perfbench -q
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

import tracing
import workload

ex = workload.import_experiment()

COUNTS = ("simulate.steps", "models.lyapunov_bytes", "solver.iterations", "matrix_ops.svd_calls")


def traced_round(tmp_path, name, seed, parallel=1):
    cfg = workload.small_config(ex, name, seed, d=6, replicates=2)
    tracer = tracing.Tracer(pool_dir=tmp_path if parallel > 1 else None)
    with tracer:
        wall, rows, _ = workload.run_round(ex, tracer, cfg, parallel, tmp_path)
    tracer.collect_workers()
    tracer.certify()
    return tracer, rows


def test_every_wrapped_name_resolves(monkeypatch):
    assert callable(np.linalg.svd)
    for names in tracing.LAYER_FUNCTIONS.values():
        for name in names:
            assert callable(getattr(ex, name)), name
    before = {name: getattr(ex, name) for name in tracing.Tracer().layer_of if name != "svd"}
    svd = np.linalg.svd
    with tracing.Tracer():
        assert np.linalg.svd is not svd
    assert np.linalg.svd is svd
    assert all(getattr(ex, name) is fn for name, fn in before.items())

    monkeypatch.delattr(ex, "solve")
    with pytest.raises(AttributeError, match="solve"):
        tracing.Tracer().install()


@pytest.mark.parametrize("name", ["continuous-d20", "polymoment-d60"])
def test_tracing_leaves_rows_unchanged(name):
    cfg = workload.small_config(ex, name, 7, d=6)
    calib = ex.calibrate_tuning(cfg)
    t = cfg.t_sweep[0]
    plain = ex.run_single(cfg, calib, t, 0)
    tracer = tracing.Tracer()
    with tracer:
        traced = ex.run_single(cfg, calib, t, 0)
    assert any(s[0] == "simulate_path" for s in tracer.spans)
    assert any(s[0] == "svd" for s in tracer.spans)
    plain.pop("wall_time_s")
    traced.pop("wall_time_s")
    assert traced == plain


def test_counts_repeat_exactly(tmp_path):
    first, _ = traced_round(tmp_path / "a", "polymoment-d60", 3)
    second, _ = traced_round(tmp_path / "b", "polymoment-d60", 3)
    m1 = tracing.layer_metrics(first.spans, first.layer_of, 1)
    m2 = tracing.layer_metrics(second.spans, second.layer_of, 1)
    for scope in ("calibrate", "replicate"):
        for count in COUNTS:
            key = f"{scope}.{count}"
            assert m1[key] == m2[key], key
    assert m1["replicate.simulate.steps"] > 0
    assert m1["replicate.models.lyapunov_bytes"] == 8 * 6**4
    assert m1["calibrate.solver.iterations"] > 0
    assert m1["replicate.matrix_ops.svd_calls"] > 0


def test_pool_workers_report_replicate_spans(tmp_path):
    tracer, rows = traced_round(tmp_path, "continuous-d20-pool2", 5, parallel=2)
    sweep = tracing.sweep_metrics(tracer.spans, 1, len(rows))
    layers = tracing.layer_metrics(tracer.spans, tracer.layer_of, 1)
    assert len(rows) == 2
    assert layers["replicate.simulate.calls"] == 2
    assert layers["replicate.solver.calls"] == 2
    assert layers["replicate.solver.cert_pass_frac"] in (0.0, 0.5, 1.0)
    # The workers' certify time is taken out of the pool and sweep times.
    (pool,) = [s for s in tracer.spans if s[0] == "pool"]
    (sweep_span,) = [s for s in tracer.spans if s[0] == "run_experiment"]
    assert pool[4]["bench_s"] > 0
    assert math.isclose(sweep["sweep.experiment.pool_s"], pool[2] - pool[1] - pool[4]["bench_s"])
    assert math.isclose(sweep["sweep.rows_per_s"], 2 / (sweep_span[2] - sweep_span[1] - pool[4]["bench_s"]))


def test_certify_runs_outside_timed_spans(tmp_path):
    tracer, _ = traced_round(tmp_path, "continuous-d20", 11)
    bench = [s for s in tracer.spans if s[0] == tracing.BENCH_SPAN]
    assert len(bench) == 1 and bench[0][3] == -1
    (sweep_span,) = [s for s in tracer.spans if s[0] == "run_experiment"]
    assert bench[0][1] >= sweep_span[2]
    notes = [s[4] for s in tracer.spans if s[0] == "solve"]
    assert notes and all("cert_pass" in note for note in notes)


def test_raised_call_is_counted_without_its_note(monkeypatch):
    from oudrift.simulate import SimulationBlowupError

    def blow_up(*args, **kwargs):
        raise SimulationBlowupError("forced")

    cfg = workload.small_config(ex, "continuous-d20", 2, d=4)
    calib = ex.calibrate_tuning(cfg)
    monkeypatch.setattr(ex, "simulate_path", blow_up)
    tracer = tracing.Tracer()
    with tracer:
        row = ex.run_single(cfg, calib, cfg.t_sweep[0], 0)
    tracer.certify()
    assert row["failed"] == 1
    m = tracing.layer_metrics(tracer.spans, tracer.layer_of, 1)
    assert m["replicate.simulate.calls"] == 1
    assert m["replicate.simulate.steps"] == 0
    assert m["replicate.solver.calls"] == 0


def test_self_times_partition_stage_time(tmp_path):
    tracer, _ = traced_round(tmp_path, "continuous-d20", 11)
    m = tracing.layer_metrics(tracer.spans, tracer.layer_of, 1)
    parts = (
        "simulate.self_s", "contrast.self_s", "solver.self_s", "models.generate_s",
        "models.lyapunov_s", "analysis.self_s", "experiment.self_s",
    )
    for scope in ("calibrate", "replicate"):
        total = sum(m[f"{scope}.{part}"] for part in parts)
        assert math.isclose(total, m[f"{scope}.experiment.wall_s"], rel_tol=1e-9)


def tamper(results_path, edit):
    with open(results_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(results_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize(
    "check, edit",
    [
        ("csv_header", lambda rows: [rows[0][:-1]] + [r[:-1] for r in rows[1:]]),
        ("unique_keys", lambda rows: rows + [rows[1]]),
        ("frob_err_sq", lambda rows: [rows[0]] + [
            [("nan" if h == "frob_err_sq" else v) for h, v in zip(rows[0], r)] for r in rows[1:]
        ]),
        ("manifest", None),
    ],
)
def test_failed_check_names_workload_and_check(tmp_path, check, edit):
    cfg = workload.small_config(ex, "continuous-d20", 1, d=4)
    path = ex.run_experiment(cfg, out_dir=str(tmp_path))
    workload.check_outputs(ex, cfg, path)
    if edit is None:
        path.with_name(f"{cfg.name}_manifest.json").unlink()
    else:
        tamper(path, edit)
    with pytest.raises(workload.CheckError, match=f"continuous-d20.*{check}"):
        workload.check_outputs(ex, cfg, path)


def test_benchmark_json_lists_every_metric():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == [
        name for name, spec in workload.WORKLOADS.items() if spec["parallel"] == 1
    ]
    for key, specs in (("end_to_end", workload.END_TO_END), ("per_layer", workload.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in doc[key]] == list(specs)
