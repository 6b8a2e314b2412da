import csv
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import oudrift.cli as cli
import oudrift.experiment as experiment
from oudrift.experiment import (
    RESULT_COLUMNS,
    ExperimentConfig,
    LocalizationRule,
    config_from_dict,
    config_to_dict,
    regime_preset,
    run_experiment,
    summarize,
    total_noise_cov,
)
from oudrift.models import GenerationError, generate_drift, lyapunov_stationary_cov
from oudrift.simulate import LevyRegime, SimulationBlowupError, _sample_increments
from oudrift.solver import DivergenceError, SolverConfig, TuningConfig


def tiny_config(tmp_path, **overrides) -> ExperimentConfig:
    d = 4
    base = dict(
        regime=LevyRegime(tag="continuous", sigma=np.eye(d)),
        d=d,
        r=1,
        s=4,
        t_sweep=(20.0, 40.0),
        delta_n=0.1,
        substeps=2,
        replicates=2,
        seed_base=7,
        tuning=TuningConfig(explicit_lambdas=(0.02, 0.01)),
        solver=SolverConfig(max_iters=500),
        output_dir=str(tmp_path),
        name="tiny",
        calibrate=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_preset_contents():
    cont = regime_preset("continuous")
    assert cont.regime.tag == "continuous"
    assert cont.gamma_auto
    poly = regime_preset("polymoment")
    assert poly.regime.tag == "polymoment"
    assert poly.regime.p == 4.0
    from oudrift.solver import gamma_factor

    assert gamma_factor(poly.regime, poly.delta_n) == pytest.approx(
        poly.delta_n ** (-0.5)
    )
    with pytest.raises(ValueError):
        regime_preset("frobnicate")


def test_config_json_round_trip_identity():
    base = regime_preset("bounded")
    d = base.d
    # no sigma, explicit lambdas, other localization multipliers and both warm starts
    explicit = replace(
        base,
        regime=replace(base.regime, sigma=None),
        localization=replace(base.localization, radius_mult=11.0, eta_mult=2.5),
        tuning=replace(base.tuning, explicit_lambdas=(0.2, 0.05)),
        solver=replace(base.solver, l_init=np.eye(d) / 7.0, s_init=np.ones((d, d))),
    )
    names = ("continuous", "bounded", "subweibull", "polymoment")
    for cfg in [regime_preset(name) for name in names] + [explicit]:
        doc = config_to_dict(cfg)
        doc2 = config_to_dict(config_from_dict(json.loads(json.dumps(doc))))
        assert doc2 == doc


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(replicatez=3), "unknown config key 'replicatez'"),
        (lambda doc: doc["solver"].update(tol_=1e-9), "unknown config key 'solver.tol_'"),
        (lambda doc: doc.pop("d"), "missing config key 'd'"),
        (lambda doc: doc["regime"].pop("tag"), "missing config key 'regime.tag'"),
        (lambda doc: doc.update(d="ten"), "config key 'd': invalid literal"),
        (lambda doc: doc.update(solver=5), "config key 'solver' must be an object"),
        (lambda doc: doc.update(calibrate="false"), "config key 'calibrate': expected true or false"),
        (lambda doc: doc.update(replicates=2.9), "config key 'replicates': expected an integer"),
        (lambda doc: doc.update(calibration_quantile=1.5), "calibration_quantile must lie between 0 and 1"),
        (lambda doc: doc["solver"].update(acceleration=True), "unknown config key 'solver.acceleration'"),
        # JSON writes and reads NaN, which a `<= 0` check lets through
        (lambda doc: doc["solver"].update(tol=float("nan")), "tol must be finite and positive"),
    ],
    ids=[
        "unknown", "unknown-nested", "missing", "missing-nested", "bad-value", "not-object",
        "bool-string", "int-fraction", "quantile-range", "retired", "tol-nan",
    ],
)
def test_malformed_config_rejected(tmp_path, capsys, edit, message):
    doc = config_to_dict(regime_preset("bounded"))
    edit(doc)
    _assert_run_rejects(tmp_path, capsys, doc, message)


def _assert_run_rejects(tmp_path, capsys, doc, message):
    """Loading `doc` raises ValueError matching `message`; `oudrift run` exits 2."""
    with pytest.raises(ValueError, match=message):
        config_from_dict(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "tag, key",
    [("bounded", "jump_rate"), ("bounded", "jump_scale"), ("bounded", "z0"),
     ("subweibull", "alpha"), ("polymoment", "p"), ("bounded", "sigma")],
)
def test_levy_regime_rejects_nonfinite_settings(tmp_path, capsys, tag, key, value):
    doc = config_to_dict(regime_preset(tag))
    if key == "sigma":
        doc["regime"]["sigma"][0][0] = value
    else:
        doc["regime"][key] = value
    with pytest.raises(ValueError, match=key):
        LevyRegime(**doc["regime"])
    _assert_run_rejects(tmp_path, capsys, doc, key)


@pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("key", ["radius_mult", "eta_mult"])
def test_localization_rule_rejects_out_of_range(tmp_path, capsys, key, value):
    with pytest.raises(ValueError, match=key):
        LocalizationRule(**{key: value})
    doc = config_to_dict(regime_preset("bounded"))
    doc["localization"][key] = value
    _assert_run_rejects(tmp_path, capsys, doc, key)


def test_config_round_trip_keeps_solver_warm_start():
    base = regime_preset("bounded")
    l_init = np.arange(base.d * base.d, dtype=float).reshape(base.d, base.d) / 7.0
    cfg = replace(base, solver=replace(base.solver, l_init=l_init))
    doc = json.loads(json.dumps(config_to_dict(cfg)))
    assert doc["solver"]["s_init"] is None
    back = config_from_dict(doc)
    np.testing.assert_array_equal(back.solver.l_init, l_init)
    assert back.solver.s_init is None
    # a manifest written before the warm starts were stored reads as None
    del doc["solver"]["l_init"], doc["solver"]["s_init"]
    old = config_from_dict(doc)
    assert old.solver.l_init is None and old.solver.s_init is None


def test_total_noise_cov_matches_sampler():
    # after the first, pure-jump regimes: each jump law's second moment is
    # then the whole covariance; z0 < jump_scale clips some bounded radii
    regimes = [
        LevyRegime(tag="subweibull", sigma=0.5 * np.eye(3), jump_rate=1.0, jump_scale=0.5, alpha=1.0),
        LevyRegime(tag="bounded", jump_rate=1.0, jump_scale=0.5, z0=0.4),
        LevyRegime(tag="subweibull", jump_rate=1.0, jump_scale=0.5, alpha=1.0),
        LevyRegime(tag="polymoment", jump_rate=1.0, jump_scale=0.5, p=4.0),
    ]
    for k, regime in enumerate(regimes):
        cov = total_noise_cov(regime, 3)
        inc = _sample_increments(regime, 0.5, 300000, 3, np.random.default_rng(k))
        emp = inc.T @ inc / inc.shape[0] / 0.5
        assert np.max(np.abs(emp - cov)) <= 0.05 * np.max(np.abs(cov)), regime


def test_run_experiment_row_count_and_determinism(tmp_path):
    cfg = tiny_config(tmp_path)
    path = run_experiment(cfg)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(cfg.t_sweep) * cfg.replicates
    assert list(rows[0].keys()) == RESULT_COLUMNS
    assert all(r["failed"] == "0" for r in rows)

    path2 = run_experiment(cfg, out_dir=str(tmp_path / "again"))
    with open(path2) as fh:
        rows2 = list(csv.DictReader(fh))
    for a, b in zip(rows, rows2):
        for key in RESULT_COLUMNS:
            if key == "wall_time_s":
                continue
            assert a[key] == b[key], key


def test_run_experiment_parallel_matches_serial(tmp_path):
    cfg = tiny_config(tmp_path)
    p1 = run_experiment(cfg, parallel=1, out_dir=str(tmp_path / "serial"))
    p2 = run_experiment(cfg, parallel=2, out_dir=str(tmp_path / "par"))
    with open(p1) as fh:
        rows1 = list(csv.DictReader(fh))
    with open(p2) as fh:
        rows2 = list(csv.DictReader(fh))
    for a, b in zip(rows1, rows2):
        for key in RESULT_COLUMNS:
            if key == "wall_time_s":
                continue
            assert a[key] == b[key], key


def test_run_experiment_flags_blowups_and_continues(tmp_path):
    # enormous mesh with one Euler substep makes the dynamics explode
    cfg = tiny_config(
        tmp_path,
        delta_n=50.0,
        substeps=1,
        t_sweep=(500.0,),
        name="blowup",
    )
    path = run_experiment(cfg)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == cfg.replicates
    assert all(r["failed"] == "1" for r in rows)
    assert all("Blowup" in r["error"] for r in rows)


@pytest.mark.parametrize("calibrate", [False, True])
def test_run_experiment_flags_a_path_that_never_moves(tmp_path, calibrate):
    # no Brownian part and almost no jumps: the path sits at zero, so the
    # data-driven radius and truncation level are zero
    cfg = tiny_config(
        tmp_path, regime=LevyRegime(tag="bounded", sigma=None, jump_rate=0.001),
        t_sweep=(5.0,), calibrate=calibrate, calibration_reps=2,
    )
    path = run_experiment(cfg)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == cfg.replicates
    assert all(r["failed"] == "1" for r in rows)
    assert all(r["error"].startswith("DegenerateLocalizationError") for r in rows)
    manifest = json.loads((tmp_path / "tiny_manifest.json").read_text())
    failed = manifest["calibration_failed_pilots"]
    assert len(failed) == (cfg.calibration_reps if calibrate else 0)
    assert all(f["error"].startswith("DegenerateLocalizationError") for f in failed)


def _raise_on_first_call(monkeypatch, name, exc):
    real = getattr(experiment, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(experiment, name, patched)


@pytest.mark.parametrize(
    "name, exc",
    [
        ("generate_drift", GenerationError("no admissible draw")),
        ("solve", DivergenceError("objective non-finite at iteration 3")),
    ],
)
def test_run_experiment_flags_generation_and_divergence_errors(tmp_path, monkeypatch, name, exc):
    _raise_on_first_call(monkeypatch, name, exc)
    cfg = tiny_config(tmp_path)
    path = run_experiment(cfg)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(cfg.t_sweep) * cfg.replicates
    flagged = [r for r in rows if r["failed"] == "1"]
    assert len(flagged) == 1
    assert flagged[0]["error"].startswith(type(exc).__name__)
    assert all(r["frob_err_sq"] for r in rows if r["failed"] == "0")


def test_calibration_without_surviving_pilots_falls_back(tmp_path):
    # every pilot (and every replicate) blows up on this mesh
    cfg = tiny_config(
        tmp_path, delta_n=50.0, substeps=1, t_sweep=(500.0,), calibrate=True, calibration_reps=3
    )
    path = run_experiment(cfg)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == cfg.replicates
    assert all(r["failed"] == "1" for r in rows)
    manifest = json.loads((tmp_path / "tiny_manifest.json").read_text())
    failed = manifest["calibration_failed_pilots"]
    assert [f["pilot"] for f in failed] == [0, 1, 2]
    assert all(f["error"].startswith("SimulationBlowupError") for f in failed)
    assert manifest["risk_multiplier"] == 1.0
    assert manifest["tuning_used"]["c_op"] == cfg.tuning.c_op


def test_calibration_drops_a_failed_pilot(tmp_path, monkeypatch):
    _raise_on_first_call(monkeypatch, "simulate_path", SimulationBlowupError("pilot blew up"))
    cfg = tiny_config(tmp_path, t_sweep=(20.0,), calibrate=True, calibration_reps=3)
    path = run_experiment(cfg)
    with open(path) as fh:
        assert all(r["failed"] == "0" for r in csv.DictReader(fh))
    manifest = json.loads((tmp_path / "tiny_manifest.json").read_text())
    failed = manifest["calibration_failed_pilots"]
    assert len(failed) == 1 and failed[0]["pilot"] == 0


def test_calibration_scores_a_diverging_multiplier_as_inf(tmp_path, monkeypatch):
    # explicit lambdas make every multiplier's risk equal, so 1.0 would win the tie
    _raise_on_first_call(monkeypatch, "solve", DivergenceError("objective non-finite"))
    cfg = tiny_config(
        tmp_path, t_sweep=(20.0,), calibrate=True, calibration_reps=2, risk_multipliers=(1.0, 0.5)
    )
    calib = experiment.calibrate_tuning(cfg)
    assert calib.risk_multiplier == 0.5
    assert calib.failed_pilots == ()


def calibrated_config(tmp_path, **overrides) -> ExperimentConfig:
    """Three pilots along three multipliers, with the penalty rule in use."""
    base = dict(
        t_sweep=(20.0,), calibrate=True, calibration_reps=3, tuning=TuningConfig(),
        risk_multipliers=(1.0, 0.5, 0.25),
    )
    base.update(overrides)
    return tiny_config(tmp_path, **base)


def _record_solves(monkeypatch, fail_at=()):
    """Record (ctx, solver config, result) of each solve; the calls numbered
    in fail_at raise DivergenceError instead (result None)."""
    real = experiment.solve
    calls = []

    def recording(ctx, lambdas, cfg):
        if len(calls) in fail_at:
            calls.append((ctx, cfg, None))
            raise DivergenceError("forced")
        result = real(ctx, lambdas, cfg)
        calls.append((ctx, cfg, result))
        return result

    monkeypatch.setattr(experiment, "solve", recording)
    return calls


@pytest.mark.parametrize("l_init", [None, np.full((4, 4), 0.01)])
def test_calibration_warm_starts_each_pilot_from_its_last_solution(tmp_path, monkeypatch, l_init):
    cfg = calibrated_config(tmp_path, solver=SolverConfig(max_iters=500, l_init=l_init))
    calls = _record_solves(monkeypatch)
    calib = experiment.calibrate_tuning(cfg)
    pilots = cfg.calibration_reps
    assert len(calls) == pilots * len(cfg.risk_multipliers)
    for k in range(pilots):
        own = calls[k::pilots]  # multiplier-outer: pilot k's solves, largest multiplier first
        assert all(ctx is own[0][0] for ctx, _, _ in own)
        assert own[0][1] is cfg.solver
        for (_, _, prev), (_, start, _) in zip(own, own[1:]):
            assert start.l_init is prev.l_hat and start.s_init is prev.s_hat
            assert replace(start, l_init=l_init, s_init=None) == cfg.solver

    # replicates solve with the configured solver itself, never with a warm start
    del calls[:]
    experiment.run_single(cfg, calib, 20.0, 0)
    assert len(calls) == 1 and calls[0][1] is cfg.solver


def test_calibration_diverged_pilot_resumes_from_last_success(tmp_path, monkeypatch):
    # 3 pilots: the 5th solve is pilot 1 at multiplier 0.5, so pilot 2 is skipped there
    cfg = calibrated_config(tmp_path)
    calls = _record_solves(monkeypatch, fail_at=(4,))
    calib = experiment.calibrate_tuning(cfg)
    assert len(calls) == 3 + 2 + 3
    first, second, third = calls[:3], calls[3:5], calls[5:]
    assert third[0][1].l_init is second[0][2].l_hat  # pilot 0: from multiplier 0.5
    assert third[1][1].l_init is first[1][2].l_hat   # pilot 1 diverged at 0.5: from 1.0
    assert third[2][1].s_init is first[2][2].s_hat   # pilot 2 skipped at 0.5: from 1.0

    curve = calib.risk_curve
    assert [set(e) for e in curve] == [{"multiplier", "risk", "iterations"}] * 3
    assert [e["multiplier"] for e in curve] == list(cfg.risk_multipliers)
    assert curve[1]["risk"] is None
    assert [e["iterations"] for e in curve] == [
        sum(r.iterations for _, _, r in group if r is not None)
        for group in (first, second, third)
    ]
    scored = [e for e in curve if e["risk"] is not None]
    assert all(e["risk"] > 0 for e in scored)
    assert calib.risk_multiplier == min(scored, key=lambda e: e["risk"])["multiplier"]


def test_calibration_pilots_keep_no_path(tmp_path):
    # A pilot keeps its drift and its reduced context, never its path, so
    # eight pilots peak less than one path's bytes above two.
    t = 400.0
    cfg = calibrated_config(tmp_path, t_sweep=(t,), risk_multipliers=(1.0,))
    path_bytes = (int(round(t / cfg.delta_n)) + 1) * cfg.d * 8
    experiment.calibrate_tuning(replace(cfg, calibration_reps=1))  # one-time allocations
    peaks = []
    for reps in (2, 8):
        tracemalloc.start()
        try:
            experiment.calibrate_tuning(replace(cfg, calibration_reps=reps))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < path_bytes, (peaks, path_bytes)


def test_replicate_data_makes_each_path_array_once():
    # simulate -> reduce holds the scan buffer (the states), the drive's
    # normals, then the cached increments; every reader shares them
    cfg = experiment.regime_preset("continuous")
    t = 2000.0
    path_bytes = (int(round(t / cfg.delta_n)) + 1) * cfg.d * 8
    experiment._replicate_data(cfg, t, 1, trunc_moment=True)  # one-time allocations
    tracemalloc.start()
    try:
        experiment._replicate_data(cfg, t, 2, trunc_moment=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * path_bytes, peak / path_bytes


def test_manifest_records_risk_curve_with_null_for_divergence(tmp_path, monkeypatch):
    cfg = calibrated_config(tmp_path)
    calls = _record_solves(monkeypatch, fail_at=(0,))
    run_experiment(cfg)
    text = (tmp_path / "tiny_manifest.json").read_text()
    assert "Infinity" not in text
    manifest = json.loads(text)
    curve = manifest["calibration_risk_curve"]
    assert [e["multiplier"] for e in curve] == list(cfg.risk_multipliers)
    assert curve[0] == {"multiplier": 1.0, "risk": None, "iterations": 0}
    assert sum(e["iterations"] for e in curve) == sum(
        r.iterations for _, _, r in calls[: 1 + 3 * (len(curve) - 1)] if r is not None
    )
    # the warm starts stay out of the recorded configuration
    assert manifest["config"]["solver"]["l_init"] is None
    assert manifest["config"]["solver"]["s_init"] is None


def test_manifest_written_with_config(tmp_path):
    cfg = tiny_config(tmp_path)
    run_experiment(cfg)
    manifest = json.loads((tmp_path / "tiny_manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert config_to_dict(config_from_dict(manifest["config"])) == config_to_dict(cfg)
    assert manifest["risk_multiplier"] == 1.0
    assert manifest["calibration_failed_pilots"] == []
    assert manifest["calibration_risk_curve"] == []


def test_output_dir_env_override(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path, t_sweep=(20.0,), replicates=1)
    target = tmp_path / "env_target"
    monkeypatch.setenv("OUDRIFT_OUT", str(target))
    path = run_experiment(cfg)
    assert path.parent == target


def test_summarize_planted_rows(tmp_path):
    path = tmp_path / "planted_results.csv"
    fields = RESULT_COLUMNS
    rows = []
    for t, errs in ((100.0, [1.0, 3.0]), (200.0, [2.0])):
        for i, e in enumerate(errs):
            row = {c: "0" for c in fields}
            row.update(
                regime="continuous", d="4", r="1", s="4", t_horizon=str(t),
                replicate=str(i), failed="0", error="", frob_err_sq=str(e),
                in_cone="1", dual_op_pass="1", dual_inf_pass="0", rsc_pass="1",
            )
            rows.append(row)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)

    out = summarize(path, ["t_horizon"])
    groups = {g["t_horizon"]: g for g in out["groups"]}
    assert groups["100.0"]["frob_err_sq_mean"] == pytest.approx(2.0)
    assert groups["100.0"]["frob_err_sq_median"] == pytest.approx(2.0)
    assert groups["100.0"]["frob_err_sq_std"] == pytest.approx(1.0)
    assert groups["200.0"]["frob_err_sq_std"] == 0.0
    assert groups["100.0"]["dual_pass_rate"] == 0.0
    assert groups["100.0"]["cone_pass_rate"] == 1.0
    assert out["skipped"] == 0
    assert (tmp_path / "planted_results_summary.csv").exists()
    assert (tmp_path / "planted_results_plotdata.csv").exists()


def test_summarize_horizon_grouping_reports_rate_fit(tmp_path):
    # planted err^2 = 8/T: slope is exactly -1 and the rate-shape fit is exact
    cfg = tiny_config(tmp_path, t_sweep=(100.0, 200.0, 400.0), name="planted2")
    path = tmp_path / "planted2_results.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        for t in cfg.t_sweep:
            for rep in range(2):
                row = {c: "0" for c in RESULT_COLUMNS}
                row.update(
                    t_horizon=str(t), replicate=str(rep), failed="0", error="",
                    frob_err_sq=str(8.0 / t), in_cone="1", dual_op_pass="1",
                    dual_inf_pass="1", rsc_pass="1",
                )
                writer.writerow(row)
    manifest = {
        "schema_version": 1,
        "config": config_to_dict(cfg),
        "tuning_used": {"c_op": 1.0, "c_one": 1.0, "gamma_value": 1.0,
                        "explicit_lambdas": None},
    }
    (tmp_path / "planted2_manifest.json").write_text(json.dumps(manifest))

    out = summarize(path, ["t_horizon"])
    assert out["slope_log_t"] == pytest.approx(-1.0, abs=1e-9)
    fit = out["oracle_fit"]
    expected_c2 = 8.0 / ((cfg.r + cfg.s) * np.log(cfg.d))
    assert fit["c2"] == pytest.approx(expected_c2, rel=1e-9)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-9)


def test_summarize_skips_malformed_rows(tmp_path):
    path = tmp_path / "bad_results.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        good = {c: "0" for c in RESULT_COLUMNS}
        good.update(t_horizon="10.0", frob_err_sq="1.5", in_cone="1",
                    dual_op_pass="1", dual_inf_pass="1", rsc_pass="1", failed="0")
        writer.writerow(good)
        bad = dict(good)
        bad["frob_err_sq"] = "not-a-number"
        writer.writerow(bad)
    out = summarize(path, ["t_horizon"])
    assert out["skipped"] == 1
    assert out["groups"][0]["n"] == 1


def test_reference_covariance_solves_noise_balance():
    regime = LevyRegime(tag="continuous", sigma=np.eye(3))
    model = generate_drift(3, 1, 2, seed=0, spectral_floor=0.5)
    ref = lyapunov_stationary_cov(model.a0, total_noise_cov(regime, 3))
    resid = np.linalg.norm(model.a0 @ ref + ref @ model.a0.T - np.eye(3))
    assert resid <= 1e-10


def test_cli_preset_run_summarize(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    rc = cli.main(["preset", "--name", "continuous", "--emit", str(cfg_path)])
    assert rc == 0
    doc = json.loads(cfg_path.read_text())
    # shrink drastically for the smoke test
    doc.update(
        d=4, r=1, s=4, t_sweep=[20.0, 40.0], delta_n=0.1, substeps=2,
        replicates=2, calibrate=False, name="cli_smoke",
        output_dir=str(tmp_path),
    )
    doc["regime"]["sigma"] = np.eye(4).tolist()
    doc["tuning"]["explicit_lambdas"] = [0.02, 0.01]
    cfg_path.write_text(json.dumps(doc))

    rc = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 0
    results = capsys.readouterr().out.strip().splitlines()[-1]
    rc = cli.main(["summarize", "--results", results, "--group-by", "t_horizon"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["groups"]) == 2

    # a misspelt group key is named, not a traceback
    rc = cli.main(["summarize", "--results", results, "--group-by", "t_horizn,replicate"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: group key(s) 't_horizn' not among the columns")

    assert cli.main(["preset", "--name", "nope"]) == 2


def test_experiment_config_validation(tmp_path):
    with pytest.raises(ValueError):
        tiny_config(tmp_path, t_sweep=())
    with pytest.raises(ValueError):
        tiny_config(tmp_path, replicates=0)
    with pytest.raises(ValueError):
        tiny_config(tmp_path, delta_n=-0.1)
    bad = [
        ({"substeps": 0}, "substeps must be >= 1"),
        ({"regime": LevyRegime(tag="continuous", sigma=np.eye(3))}, r"regime.sigma has shape \(3, 3\)"),
        ({"calibration_quantile": 1.5}, "calibration_quantile must lie between 0 and 1"),
        ({"calibration_quantile": -0.1}, "calibration_quantile must lie between 0 and 1"),
        ({"calibration_reps": 0}, "calibration_reps must be >= 1"),
        ({"calibration_safety": -1.0}, "calibration_safety must be positive"),
        ({"calibration_safety": 0.0}, "calibration_safety must be positive"),
        ({"risk_multipliers": ()}, "risk_multipliers must be nonempty and positive"),
        ({"risk_multipliers": (1.0, -0.5)}, "risk_multipliers must be nonempty and positive"),
        ({"risk_multipliers": (1.0, 0.0)}, "risk_multipliers must be nonempty and positive"),
        # NaN compares false, so a `<= 0` check lets it through
        ({"calibration_safety": math.nan}, "calibration_safety must be positive"),
        ({"risk_multipliers": (1.0, math.nan)}, "risk_multipliers must be nonempty and positive"),
        ({"delta_n": math.nan}, "delta_n must be finite and positive"),
        ({"t_sweep": (20.0, math.inf)}, "t_sweep must be nonempty with finite positive horizons"),
    ]
    for overrides, message in bad:
        with pytest.raises(ValueError, match=message):
            tiny_config(tmp_path, **overrides)
