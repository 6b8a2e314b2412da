import csv
import json
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

import oudrift.cli as cli
import oudrift.experiment as experiment
from oudrift.contrast import ContrastContext
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


# penalty levels near (0.02, 0.01) at d = 4, T = 20
TINY_TUNING = TuningConfig(c_op=0.038, c_one=0.0134)


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
        fixed_tuning=TINY_TUNING,
        solver=SolverConfig(max_iters=500),
        output_dir=str(tmp_path),
        name="tiny",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_preset_contents():
    cont = regime_preset("continuous")
    assert cont.regime.tag == "continuous"
    assert cont.fixed_tuning is None
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
    # no sigma, fixed constants and other localization multipliers
    explicit = replace(
        base,
        regime=replace(base.regime, sigma=None),
        localization=replace(base.localization, radius_mult=11.0, eta_mult=2.5),
        fixed_tuning=TuningConfig(c_op=0.2, c_one=0.05, gamma_value=3.0),
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
        (lambda doc: doc.update(name=True), "config key 'name': expected a string, got True"),
        (lambda doc: doc.update(replicates=2.9), "config key 'replicates': expected an integer"),
        (lambda doc: doc["solver"].update(acceleration=True), "unknown config key 'solver.acceleration'"),
        # fixed constants now: a config or an older manifest that sets one is rejected
        (lambda doc: doc.update(calibration_quantile=0.975), "unknown config key 'calibration_quantile'"),
        (lambda doc: doc.update(calibration_safety=1.25), "unknown config key 'calibration_safety'"),
        (lambda doc: doc.update(sparse_magnitude=[0.3, 1.0]), "unknown config key 'sparse_magnitude'"),
        (lambda doc: doc.update(spectral_floor=0.5), "unknown config key 'spectral_floor'"),
        # one field decides the tuning, and solver starts are arguments of solve
        (lambda doc: doc.update(calibrate=False), "unknown config key 'calibrate'"),
        (lambda doc: doc.update(gamma_auto=True), "unknown config key 'gamma_auto'"),
        (lambda doc: doc.update(tuning={"c_op": 1.0}), "unknown config key 'tuning'"),
        (lambda doc: doc["solver"].update(l_init=None), "unknown config key 'solver.l_init'"),
        (lambda doc: doc["solver"].update(s_init=None), "unknown config key 'solver.s_init'"),
        (
            lambda doc: doc.update(fixed_tuning={"explicit_lambdas": [0.1, 0.1]}),
            "unknown config key 'fixed_tuning.explicit_lambdas'",
        ),
        # JSON true is 1 to Python; str() would take any value
        (lambda doc: doc.update(delta_n=True), "config key 'delta_n': expected a number, got True"),
        (lambda doc: doc["solver"].update(tol=True), "config key 'solver.tol': expected a number"),
        (lambda doc: doc.update(name=5), "config key 'name': expected a string, got 5"),
        (lambda doc: doc["regime"].update(tag=1), "config key 'regime.tag': expected a string"),
        # JSON writes and reads NaN, which a `<= 0` check lets through
        (lambda doc: doc["solver"].update(tol=float("nan")), "tol must be finite and positive"),
        # log d = 0 would divide by zero in calibration, after every pilot ran
        (lambda doc: doc.update(d=1), "d must be >= 2"),
        # log(1/delta_n) <= 0 would fail every pilot (or make gamma complex)
        (
            lambda doc: doc.update(delta_n=3.0) or doc["regime"].update(tag="subweibull"),
            "delta_n must be below 1 in the subweibull regime",
        ),
    ],
    ids=[
        "unknown", "unknown-nested", "missing", "missing-nested", "bad-value", "not-object",
        "bool-string", "int-fraction", "retired", "retired-calibration_quantile",
        "retired-calibration_safety", "retired-sparse_magnitude", "retired-spectral_floor",
        "retired-calibrate", "retired-gamma_auto", "retired-tuning", "retired-solver.l_init",
        "retired-solver.s_init", "retired-fixed_tuning.explicit_lambdas", "bool-float",
        "bool-float-nested", "int-string", "int-string-nested", "tol-nan", "d-below-2",
        "subweibull-delta-n",
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


@pytest.mark.parametrize(
    "key, value, message",
    [
        # tuple() would split a string into its characters: (2.0, 5.0)
        ("t_sweep", "25", "config key 't_sweep': invalid literal '25': expected a list"),
        ("risk_multipliers", "15", "config key 'risk_multipliers': invalid literal '15'"),
        # int() and float() would parse a string
        ("d", "10", "config key 'd': invalid literal '10': expected an integer"),
        ("delta_n", "0.1", "config key 'delta_n': invalid literal '0.1': expected a number"),
    ],
)
def test_string_for_non_string_field_rejected(tmp_path, capsys, key, value, message):
    doc = config_to_dict(regime_preset("bounded"))
    doc[key] = value
    _assert_run_rejects(tmp_path, capsys, doc, message)


@pytest.mark.parametrize("parallel", [0, -3])
def test_run_experiment_rejects_parallel_below_one(tmp_path, capsys, parallel):
    cfg = tiny_config(tmp_path)
    with pytest.raises(ValueError, match=f"parallel must be >= 1, got {parallel}"):
        run_experiment(cfg, parallel=parallel, out_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    argv = ["run", "--config", str(path), "--parallel", str(parallel), "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: parallel must be >= 1")


def test_config_round_trip_keeps_fixed_tuning_null():
    base = regime_preset("bounded")
    doc = json.loads(json.dumps(config_to_dict(base)))
    assert doc["fixed_tuning"] is None
    assert config_from_dict(doc).fixed_tuning is None
    del doc["fixed_tuning"]  # a missing key takes the default: calibrate
    assert config_from_dict(doc).fixed_tuning is None
    doc["fixed_tuning"] = {"c_op": 0.5}
    assert config_from_dict(doc).fixed_tuning == TuningConfig(c_op=0.5)


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
        t_sweep=(5.0,), fixed_tuning=None if calibrate else TINY_TUNING, calibration_reps=2,
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


def test_run_experiment_keeps_manifest_and_finished_rows_when_a_row_raises(
    tmp_path, monkeypatch
):
    # an error that is not a flagged replicate failure stops the sweep; the
    # manifest and the rows finished before it are already on disk
    real = experiment.run_single
    calls = []

    def patched(*args):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("planted")
        return real(*args)

    monkeypatch.setattr(experiment, "run_single", patched)
    cfg = tiny_config(tmp_path)
    with pytest.raises(RuntimeError, match="planted"):
        run_experiment(cfg)
    manifest = json.loads((tmp_path / "tiny_manifest.json").read_text())
    assert manifest["config"] == config_to_dict(cfg)
    with open(tmp_path / "tiny_results.csv") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == RESULT_COLUMNS
    assert [(r["t_horizon"], r["replicate"]) for r in rows] == [("20.0", "0"), ("20.0", "1")]


def test_calibration_without_surviving_pilots_falls_back(tmp_path):
    # every pilot (and every replicate) blows up on this mesh
    cfg = tiny_config(
        tmp_path, delta_n=50.0, substeps=1, t_sweep=(500.0,), fixed_tuning=None,
        calibration_reps=3,
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
    # the default constants, gamma from the regime and mesh
    assert manifest["risk_multiplier"] == 1.0
    assert manifest["tuning_used"] == {"c_op": 1.0, "c_one": 1.0, "gamma_value": 1.0}


def test_calibration_drops_a_failed_pilot(tmp_path, monkeypatch):
    _raise_on_first_call(monkeypatch, "simulate_path", SimulationBlowupError("pilot blew up"))
    cfg = tiny_config(tmp_path, t_sweep=(20.0,), fixed_tuning=None, calibration_reps=3)
    path = run_experiment(cfg)
    with open(path) as fh:
        assert all(r["failed"] == "0" for r in csv.DictReader(fh))
    manifest = json.loads((tmp_path / "tiny_manifest.json").read_text())
    failed = manifest["calibration_failed_pilots"]
    assert len(failed) == 1 and failed[0]["pilot"] == 0


def test_calibration_scores_a_diverging_multiplier_as_inf(tmp_path, monkeypatch):
    _raise_on_first_call(monkeypatch, "solve", DivergenceError("objective non-finite"))
    cfg = tiny_config(
        tmp_path, t_sweep=(20.0,), fixed_tuning=None, calibration_reps=2,
        risk_multipliers=(1.0, 0.5),
    )
    calib = experiment.calibrate_tuning(cfg)
    assert calib.risk_multiplier == 0.5
    assert calib.failed_pilots == ()


def test_calibration_keeps_the_first_multiplier_when_none_scores(tmp_path, monkeypatch, caplog):
    # 1.0 is not on this grid: every multiplier diverging must not report it
    def diverging(*args, **kwargs):
        raise DivergenceError("forced")

    monkeypatch.setattr(experiment, "solve", diverging)
    cfg = tiny_config(
        tmp_path, t_sweep=(20.0,), fixed_tuning=None, calibration_reps=2,
        risk_multipliers=(0.5, 0.25),
    )
    with caplog.at_level(logging.WARNING, logger="oudrift.experiment"):
        calib = experiment.calibrate_tuning(cfg)
    assert calib.risk_multiplier == 0.5
    assert [e["risk"] for e in calib.risk_curve] == [None, None]
    assert calib.solver_tuning.c_op == 0.5 * calib.cert_tuning.c_op
    assert "no risk multiplier scored a finite pilot risk; using 0.5" in caplog.text


def test_fixed_tuning_runs_no_pilot(tmp_path, monkeypatch):
    # the constants are used as given, gamma included (the regime's is 1.0)
    def no_calibration(cfg):
        raise AssertionError("calibrate_tuning called")

    monkeypatch.setattr(experiment, "calibrate_tuning", no_calibration)
    tuning = TuningConfig(c_op=0.03, c_one=0.01, gamma_value=2.0)
    cfg = tiny_config(tmp_path, fixed_tuning=tuning)
    path = run_experiment(cfg)
    manifest = json.loads((tmp_path / "tiny_manifest.json").read_text())
    assert manifest["tuning_used"] == {"c_op": 0.03, "c_one": 0.01, "gamma_value": 2.0}
    assert manifest["cert_tuning"] == {"c_op": 0.03, "c_one": 0.01}
    assert manifest["risk_multiplier"] == 1.0
    assert manifest["calibration_risk_curve"] == []
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["failed"] == "0" for r in rows)
    for r in rows:
        lam = experiment.tune_lambdas(cfg.d, float(r["t_horizon"]), tuning)
        assert float(r["gamma_value"]) == 2.0
        assert (float(r["lambda_star"]), float(r["lambda_one"])) == lam
        assert (float(r["cert_lambda_star"]), float(r["cert_lambda_one"])) == lam


def calibrated_config(tmp_path, **overrides) -> ExperimentConfig:
    """Three pilots along three multipliers, with the penalty rule in use."""
    base = dict(
        t_sweep=(20.0,), fixed_tuning=None, calibration_reps=3,
        risk_multipliers=(1.0, 0.5, 0.25),
    )
    base.update(overrides)
    return tiny_config(tmp_path, **base)


def _record_solves(monkeypatch, fail_at=()):
    """Record (ctx, start, result, solver config) of each solve; the calls
    numbered in fail_at raise DivergenceError instead (result None)."""
    real = experiment.solve
    calls = []

    def recording(ctx, lambdas, cfg, start=None):
        if len(calls) in fail_at:
            calls.append((ctx, start, None, cfg))
            raise DivergenceError("forced")
        result = real(ctx, lambdas, cfg, start=start)
        calls.append((ctx, start, result, cfg))
        return result

    monkeypatch.setattr(experiment, "solve", recording)
    return calls


def test_calibration_warm_starts_each_pilot_from_its_last_solution(tmp_path, monkeypatch):
    cfg = calibrated_config(tmp_path)
    calls = _record_solves(monkeypatch)
    calib = experiment.calibrate_tuning(cfg)
    pilots = cfg.calibration_reps
    assert len(calls) == pilots * len(cfg.risk_multipliers)
    for k in range(pilots):
        own = calls[k::pilots]  # multiplier-outer: pilot k's solves, largest multiplier first
        assert all(ctx is own[0][0] for ctx, *_ in own)
        assert own[0][1] is None
        for (_, _, prev, _), (_, start, _, _) in zip(own, own[1:]):
            assert start[0] is prev.l_hat and start[1] is prev.s_hat

    # replicates never start from a pilot's solution: they start from (0, A_LS)
    del calls[:]
    experiment.run_single(cfg, calib, 20.0, 0)
    assert len(calls) == 1
    ctx, start, _, _ = calls[0]
    assert np.array_equal(start[0], np.zeros((cfg.d, cfg.d)))
    a_ls = -ctx.m1 @ np.linalg.inv(ctx.c_n) / ctx.delta_n
    np.testing.assert_allclose(start[1], a_ls, rtol=1e-10, atol=0)


def test_calibration_solves_at_its_own_target_and_replicates_at_the_config(
    tmp_path, monkeypatch
):
    calls = _record_solves(monkeypatch)
    target = experiment._CALIBRATION_TOL
    # a tighter tol than the target and the default give way to it; a looser one is kept
    for tol, expected in ((1e-10, target), (1e-8, target), (1e-4, 1e-4)):
        cfg = calibrated_config(tmp_path, solver=SolverConfig(tol=tol))
        del calls[:]
        calib = experiment.calibrate_tuning(cfg)
        assert len(calls) == cfg.calibration_reps * len(cfg.risk_multipliers)
        assert all(solver_cfg == replace(cfg.solver, tol=expected) for *_, solver_cfg in calls)

        # replicates solve at the configured solver, the very object
        del calls[:]
        experiment.run_single(cfg, calib, 20.0, 0)
        assert len(calls) == 1 and calls[0][3] is cfg.solver


@pytest.mark.parametrize("preset", ["bounded", "polymoment"])
def test_calibration_target_keeps_the_pick(preset, monkeypatch):
    # the multiplier picked from solves at the calibration target is the
    # one picked from solves at the replicates' tol
    target = experiment._CALIBRATION_TOL
    for seed_base in range(3):
        cfg = replace(
            regime_preset(preset), seed_base=seed_base, calibration_reps=6, t_sweep=(250.0,)
        )
        picks = []
        for tol in (target, cfg.solver.tol):
            monkeypatch.setattr(experiment, "_CALIBRATION_TOL", tol)
            picks.append(experiment.calibrate_tuning(cfg).risk_multiplier)
        assert picks[0] == picks[1]


@pytest.mark.parametrize("preset", ["continuous", "polymoment"])
def test_least_squares_start_solves_the_normal_equations(preset):
    cfg = regime_preset(preset)
    _, _, _, ctx = experiment._replicate_data(cfg, 250.0, 3)
    l_init, s_init = experiment._least_squares_start(ctx)
    assert np.array_equal(l_init, np.zeros((cfg.d, cfg.d)))
    rhs = ctx.m1 / ctx.delta_n  # A_LS c_n = -rhs, to 1e-12 of rhs's largest entry
    assert np.max(np.abs(s_init @ ctx.c_n + rhs)) <= 1e-12 * np.max(np.abs(rhs))


@pytest.mark.parametrize(
    "c_n",
    [np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 1.0, 1e-310])],
    ids=["singular", "overflowing"],
)
def test_least_squares_start_falls_back_to_the_configured_solver(c_n):
    # the zero start (None), with which the configured solver still runs
    m1 = np.array([[0.0, 0.2, -0.5], [0.1, -0.3, 0.4], [0.0, 0.0, 2.0]])
    ctx = ContrastContext(d=3, delta_n=0.1, n=10, n_active=10, s0=1.0, m1=m1, c_n=c_n)
    assert experiment._least_squares_start(ctx) is None
    result = experiment.solve(ctx, (0.01, 0.01), SolverConfig(max_iters=200))
    assert result.iterations >= 1 and np.all(np.isfinite(result.a_hat))


def test_c_n_is_decomposed_once_per_context(monkeypatch):
    # the start's tests, every solve's step and the curvature floor read the
    # context's one cached spectrum
    cfg = regime_preset("bounded")
    _, _, _, ctx = experiment._replicate_data(cfg, 100.0, 3)
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(a)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    start = experiment._least_squares_start(ctx)
    assert start is not None
    for s in (start, None):
        experiment.solve(ctx, (0.01, 0.01), cfg.solver, start=s)
    rsc = experiment.verify_rsc(ctx)
    assert len(calls) == 1 and calls[0] is ctx.c_n
    assert rsc.min_eig_cn == eigvalsh(ctx.c_n)[0]
    with pytest.raises(ValueError):
        ctx.c_n_eigvals[0] = 0.0


@pytest.mark.parametrize("preset", ["continuous", "polymoment"])
def test_least_squares_and_zero_starts_reach_the_same_optimum(preset):
    # the start moves where the iteration begins, not the problem: solved to
    # tol=1e-14 from either start, objective and drift agree up to the stop's slack
    cfg = regime_preset(preset)
    t = 250.0
    lambdas = experiment.tune_lambdas(cfg.d, t, experiment.calibrate_tuning(cfg).solver_tuning)
    tight = SolverConfig(max_iters=100000, tol=1e-14)
    for seed in range(3):
        _, _, _, ctx = experiment._replicate_data(cfg, t, seed)
        start = experiment._least_squares_start(ctx)
        assert start is not None
        zero = experiment.solve(ctx, lambdas, tight)
        least_squares = experiment.solve(ctx, lambdas, tight, start=start)
        assert zero.converged and least_squares.converged
        f_zero, f_ls = zero.objective_trace[-1], least_squares.objective_trace[-1]
        assert abs(f_ls - f_zero) <= 1e-10 * abs(f_zero)
        gap = np.linalg.norm(least_squares.a_hat - zero.a_hat)
        assert gap <= 1e-4 * np.linalg.norm(zero.a_hat)


@pytest.mark.parametrize("t", [0.8, 3.0], ids=["rank-deficient", "ill-conditioned"])
def test_least_squares_start_is_not_taken_on_a_short_horizon(monkeypatch, t):
    # 8 observations at d=10 leave c_n rank-deficient; 30 leave it full rank
    # but A_LS mostly noise.  Either way the replicate runs from zero, as if
    # the least-squares start did not exist.
    cfg = replace(regime_preset("polymoment"), t_sweep=(t,))
    _, _, _, ctx = experiment._replicate_data(cfg, t, 3)
    assert (ctx.n_active < cfg.d) == (t < 1.0)
    assert experiment._least_squares_start(ctx) is None
    calib = experiment.calibrate_tuning(cfg)
    row = experiment.run_single(cfg, calib, t, 0)
    monkeypatch.setattr(experiment, "_least_squares_start", lambda ctx: None)
    zero_row = experiment.run_single(cfg, calib, t, 0)
    assert row["failed"] == 0 and row["converged"] == 1
    del row["wall_time_s"], zero_row["wall_time_s"]
    assert row == zero_row


def test_calibration_diverged_pilot_resumes_from_last_success(tmp_path, monkeypatch):
    # 3 pilots: the 5th solve is pilot 1 at multiplier 0.5, so pilot 2 is skipped there
    cfg = calibrated_config(tmp_path)
    calls = _record_solves(monkeypatch, fail_at=(4,))
    calib = experiment.calibrate_tuning(cfg)
    assert len(calls) == 3 + 2 + 3
    first, second, third = calls[:3], calls[3:5], calls[5:]
    assert third[0][1][0] is second[0][2].l_hat  # pilot 0: from multiplier 0.5
    assert third[1][1][0] is first[1][2].l_hat   # pilot 1 diverged at 0.5: from 1.0
    assert third[2][1][1] is first[2][2].s_hat   # pilot 2 skipped at 0.5: from 1.0

    curve = calib.risk_curve
    assert [set(e) for e in curve] == [{"multiplier", "risk", "iterations"}] * 3
    assert [e["multiplier"] for e in curve] == list(cfg.risk_multipliers)
    assert curve[1]["risk"] is None
    assert [e["iterations"] for e in curve] == [
        sum(r.iterations for _, _, r, _ in group if r is not None)
        for group in (first, second, third)
    ]
    scored = [e for e in curve if e["risk"] is not None]
    assert all(e["risk"] > 0 for e in scored)
    assert calib.risk_multiplier == min(scored, key=lambda e: e["risk"])["multiplier"]


def test_calibration_pilots_keep_no_path(tmp_path, peak_bytes):
    # A pilot keeps its drift and its reduced context, never its path, so
    # eight pilots peak less than one path's bytes above two.
    t = 400.0
    cfg = calibrated_config(tmp_path, t_sweep=(t,), risk_multipliers=(1.0,))
    path_bytes = (int(round(t / cfg.delta_n)) + 1) * cfg.d * 8
    experiment.calibrate_tuning(replace(cfg, calibration_reps=1))  # one-time allocations
    peaks = [
        peak_bytes(experiment.calibrate_tuning, replace(cfg, calibration_reps=reps))[0]
        for reps in (2, 8)
    ]
    assert peaks[1] - peaks[0] < path_bytes, (peaks, path_bytes)


def _replicate_data_peak(peak_bytes, cfg, t):
    """Peak of one replicate's `_replicate_data`, in (n+1, d) float64 path
    arrays, and its context."""
    path_bytes = (int(round(t / cfg.delta_n)) + 1) * cfg.d * 8
    experiment._replicate_data(cfg, t, 1)  # one-time allocations
    peak, data = peak_bytes(experiment._replicate_data, cfg, t, 2)
    return peak / path_bytes, data[-1]


def test_replicate_data_makes_each_path_array_once(peak_bytes):
    # simulate -> reduce holds the scan buffer (the states) and block-sized
    # scratch: the drive's normals, then the reduction's blocks
    peak, _ = _replicate_data_peak(peak_bytes, experiment.regime_preset("continuous"), 2000.0)
    assert peak < 1.5, peak


def test_replicate_data_peak_on_a_partly_active_polymoment_path(peak_bytes):
    # at d=60 a block of a fixed row count can hold the whole 2501-row path;
    # blocks sized in bytes, and inactive rows masked rather than dropped,
    # keep the reduction free of path copies.  The bound is the peak before
    # the block-wise drive and reduction (2.54 path arrays).
    base = experiment.regime_preset("polymoment")
    d = 60
    cfg = replace(
        base, regime=replace(base.regime, sigma=0.5 * np.eye(d)), d=d, r=2, s=d,
        localization=LocalizationRule(radius_mult=1.0, eta_mult=4.0),
    )
    peak, ctx = _replicate_data_peak(peak_bytes, cfg, 250.0)
    assert 0 < ctx.n_active < ctx.n
    assert peak < 2.54, peak


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
        r.iterations for _, _, r, _ in calls[: 1 + 3 * (len(curve) - 1)] if r is not None
    )
    # the warm starts stay out of the recorded configuration
    assert manifest["config"]["solver"] == config_to_dict(cfg)["solver"]
    assert manifest["config"]["fixed_tuning"] is None


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
    # an empty `failed` is a good row
    for t, errs, failed in ((100.0, [1.0, 3.0], "0"), (200.0, [2.0, 2.0], "")):
        for i, e in enumerate(errs):
            row = {c: "0" for c in fields}
            row.update(
                regime="continuous", d="4", r="1", s="4", t_horizon=str(t),
                replicate=str(i), failed=failed, error="", frob_err_sq=str(e),
                in_cone="1", dual_op_pass="1", dual_inf_pass="0", rsc_pass="1",
            )
            rows.append(row)
    # a failed row as run_single writes it: identity columns only
    rows.append({
        **dict.fromkeys(fields, ""), "regime": "continuous", "t_horizon": "100.0",
        "replicate": "2", "failed": "1", "error": "SimulationBlowupError: planted",
    })
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
    assert (groups["100.0"]["n"], groups["100.0"]["failures"]) == (2, 1)
    assert (groups["200.0"]["n"], groups["200.0"]["failures"]) == (2, 0)
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
        "tuning_used": {"c_op": 1.0, "c_one": 1.0, "gamma_value": 1.0},
    }
    (tmp_path / "planted2_manifest.json").write_text(json.dumps(manifest))

    out = summarize(path, ["t_horizon"])
    assert out["slope_log_t"] == pytest.approx(-1.0, abs=1e-9)
    fit = out["oracle_fit"]
    assert fit["slope_log_t"] == out["slope_log_t"]  # one log-log fit
    expected_c2 = 8.0 / ((cfg.r + cfg.s) * np.log(cfg.d))
    assert fit["c2"] == pytest.approx(expected_c2, rel=1e-9)
    assert fit["r_squared"] == pytest.approx(1.0, abs=1e-9)


def test_summarize_slope_is_finite_when_a_horizon_mean_is_zero(tmp_path):
    # a zero mean is floored before the log (no NaN slope, no warning under
    # the suite's RuntimeWarning filter); both reported slopes are that fit
    cfg = tiny_config(tmp_path, t_sweep=(100.0, 200.0, 400.0), name="zero")
    path = tmp_path / "zero_results.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        for t, err in zip(cfg.t_sweep, (0.0, 1.0, 0.5)):
            row = {c: "0" for c in RESULT_COLUMNS}
            row.update(t_horizon=str(t), failed="0", error="", frob_err_sq=str(err))
            writer.writerow(row)
    manifest = {"config": config_to_dict(cfg), "tuning_used": {"gamma_value": 1.0}}
    (tmp_path / "zero_manifest.json").write_text(json.dumps(manifest))

    out = summarize(path, ["t_horizon"])
    assert math.isfinite(out["slope_log_t"])
    assert out["oracle_fit"]["slope_log_t"] == out["slope_log_t"]


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
        replicates=2, name="cli_smoke", output_dir=str(tmp_path),
        fixed_tuning={"c_op": TINY_TUNING.c_op, "c_one": TINY_TUNING.c_one},
    )
    doc["regime"]["sigma"] = np.eye(4).tolist()
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
        ({"d": 1, "r": 0, "s": 0, "regime": LevyRegime(tag="continuous", sigma=np.eye(1))},
         r"d must be >= 2 \(the penalty rule needs log d > 0\), got 1"),
        ({"substeps": 0}, "substeps must be >= 1"),
        ({"regime": LevyRegime(tag="continuous", sigma=np.eye(3))}, r"regime.sigma has shape \(3, 3\)"),
        ({"calibration_reps": 0}, "calibration_reps must be >= 1"),
        ({"risk_multipliers": ()}, "risk_multipliers must be nonempty and positive"),
        ({"risk_multipliers": (1.0, -0.5)}, "risk_multipliers must be nonempty and positive"),
        ({"risk_multipliers": (1.0, 0.0)}, "risk_multipliers must be nonempty and positive"),
        # NaN compares false, so a `<= 0` check lets it through
        ({"risk_multipliers": (1.0, math.nan)}, "risk_multipliers must be nonempty and positive"),
        ({"delta_n": math.nan}, "delta_n must be finite and positive"),
        ({"t_sweep": (20.0, math.inf)}, "t_sweep must be nonempty with finite positive horizons"),
        # generate_drift would reject these only in the first pilot
        ({"r": 5}, "need 0 <= r <= d and s >= 0, got r=5, s=4"),
        ({"r": -1}, "need 0 <= r <= d and s >= 0, got r=-1, s=4"),
        ({"s": -1}, "need 0 <= r <= d and s >= 0, got r=1, s=-1"),
    ]
    # the subweibull rules need log(1/delta_n) > 0; other regimes take any mesh
    subweibull = LevyRegime(tag="subweibull", sigma=np.eye(4), jump_rate=1.0, jump_scale=0.5)
    for delta_n in (1.0, 1.5, 3.0):
        bad.append((
            {"regime": replace(subweibull, alpha=1.5), "delta_n": delta_n},
            f"delta_n must be below 1 in the subweibull regime .*got {delta_n:g}",
        ))
        tiny_config(tmp_path, delta_n=delta_n)
    tiny_config(tmp_path, regime=subweibull, delta_n=0.999)
    tiny_config(tmp_path, r=0, s=0)
    tiny_config(tmp_path, r=4, s=16)
    for overrides, message in bad:
        with pytest.raises(ValueError, match=message):
            tiny_config(tmp_path, **overrides)
    # s > d^2 is rejected when the sweep starts, before the first pilot
    with pytest.raises(ValueError, match=r"need s <= d\^2, got s=101, d=10"):
        run_experiment(replace(regime_preset("bounded"), s=101), out_dir=str(tmp_path))
