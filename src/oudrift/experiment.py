"""Seeded replicate experiments: sweep, persist, summarize.

A run sweeps horizons and replicates for one configuration.  Each replicate
draws its own ground-truth drift and path from hash-derived seeds (stable
under sweep extension), estimates the drift, and records error metrics plus
the cone/curvature/dual-bound certificates as one CSV row.  A JSON manifest
of the full configuration sits next to the results for reproducibility.

Penalty constants are calibrated from pilot replicates in two stages: a
quantile stage placing the certificate thresholds just above the observed
dual norms of the contrast gradient at the truth, and a risk stage rescaling
the solver's penalty levels to the pilot-risk-minimizing multiple of those.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, get_args, get_type_hints

import numpy as np

from .analysis import (
    cone_membership,
    compute_error_metrics,
    linear_fit,
    oracle_bound_compare,
    verify_dual_bounds,
    verify_rsc,
)
from .contrast import (
    DegenerateLocalizationError,
    build_context,
    gradient,
    localization_from_observations,
)
from .matrix_ops import linf_norm, operator_norm
from .models import GenerationError, generate_drift, lyapunov_stationary_cov
from .simulate import (
    REGIME_TAGS,
    LevyRegime,
    PathConfig,
    SimulationBlowupError,
    derive_seed,
    empirical_trunc_moment,
    simulate_path,
    total_noise_cov,
)
from .solver import DivergenceError, SolverConfig, TuningConfig, gamma_factor, solve, tune_lambdas

__all__ = [
    "Calibration",
    "CalibrationError",
    "LocalizationRule",
    "ExperimentConfig",
    "RESULTS_SCHEMA_VERSION",
    "RESULT_COLUMNS",
    "OUTPUT_DIR_ENV",
    "regime_preset",
    "calibrate_tuning",
    "run_experiment",
    "run_single",
    "summarize",
    "config_to_dict",
    "config_from_dict",
]

RESULTS_SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "OUDRIFT_OUT"

logger = logging.getLogger(__name__)

# Floor on the real parts of a generated drift's eigenvalues.
_SPECTRAL_FLOOR = 0.5
# Pilot quantile of the gradient dual norms, and the headroom over it, that
# place the certificate thresholds (`calibrate_tuning`, stage 1).
_CALIBRATION_QUANTILE = 0.975
_CALIBRATION_SAFETY = 1.25
# Stop target of the risk-stage solves (`calibrate_tuning`, stage 2): they
# only rank multipliers a factor 2 apart, which 1e-6 leaves unchanged.
_CALIBRATION_TOL = 1e-6

# Failures of one replicate (or calibration pilot): flagged, never fatal.
_REPLICATE_ERRORS = (
    GenerationError, SimulationBlowupError, DegenerateLocalizationError, DivergenceError
)

RESULT_COLUMNS = [
    "regime",
    "d",
    "r",
    "s",
    "delta_n",
    "substeps",
    "t_horizon",
    "replicate",
    "seed",
    "failed",
    "error",
    "n_obs",
    "n_active",
    "radius_b",
    "eta",
    "gamma_value",
    "lambda_star",
    "lambda_one",
    "cert_lambda_star",
    "cert_lambda_one",
    "frob_err_sq",
    "rank_l_hat",
    "support_precision",
    "support_recall",
    "lowrank_ratio",
    "sparse_ratio",
    "in_cone",
    "grad_op_norm",
    "grad_inf_norm",
    "dual_op_pass",
    "dual_inf_pass",
    "min_eig_cn",
    "c_b_proxy",
    "rsc_pass",
    "trunc_moment",
    "iterations",
    "converged",
    "wall_time_s",
]


@dataclass(frozen=True)
class LocalizationRule:
    """Multipliers for the data-driven ball radius and truncation level."""

    radius_mult: float = 3.0
    eta_mult: float = 4.0

    def __post_init__(self):
        if not 0 < self.radius_mult < math.inf:
            raise ValueError("radius_mult must be finite and positive")
        if not 0 < self.eta_mult < math.inf:
            raise ValueError("eta_mult must be finite and positive")


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: regime is the driving noise; d, r, s the drift's dimension,
    the rank of L0 and the support size of S0.  Each horizon of t_sweep is
    sampled at mesh delta_n with `substeps` Euler substeps per window, in
    `replicates` rows; seed_base roots every seed.  fixed_tuning=None
    calibrates the penalty constants on calibration_reps pilots at the
    longest horizon, with gamma = gamma_factor(regime, delta_n) and the
    multiplier chosen from risk_multipliers (`calibrate_tuning`); a
    TuningConfig is used exactly as given, gamma included, for the solver
    and the certificates alike, and no pilot runs.  solver is the stopping
    rule, localization the radius and truncation multipliers, lowrank_scale
    the scale of L0's spectrum; output_dir and name place the output files.
    """

    regime: LevyRegime
    d: int
    r: int
    s: int
    t_sweep: tuple
    delta_n: float
    substeps: int = 10
    replicates: int = 20
    seed_base: int = 0
    localization: LocalizationRule = field(default_factory=LocalizationRule)
    fixed_tuning: Optional[TuningConfig] = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    output_dir: str = "results"
    name: str = "experiment"
    lowrank_scale: float = 1.0
    calibration_reps: int = 30
    risk_multipliers: tuple = (1.0, 0.5, 0.25, 0.125, 0.0625)

    def __post_init__(self):
        object.__setattr__(self, "t_sweep", tuple(float(t) for t in self.t_sweep))
        object.__setattr__(
            self, "risk_multipliers", tuple(float(v) for v in self.risk_multipliers)
        )
        # `0 < x < inf` also rejects NaN, which passes every `<= 0` check
        if not self.t_sweep or not all(0 < t < math.inf for t in self.t_sweep):
            raise ValueError("t_sweep must be nonempty with finite positive horizons")
        if self.d < 2:
            raise ValueError(f"d must be >= 2 (the penalty rule needs log d > 0), got {self.d}")
        # s <= d^2 is run_experiment's check: a `replace` may set d before s
        if not (0 <= self.r <= self.d and self.s >= 0):
            raise ValueError(f"need 0 <= r <= d and s >= 0, got r={self.r}, s={self.s}")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not 0 < self.delta_n < math.inf:
            raise ValueError("delta_n must be finite and positive")
        if self.regime.tag == "subweibull" and self.delta_n >= 1:
            raise ValueError(
                "delta_n must be below 1 in the subweibull regime (its gamma and "
                f"truncation rules need log(1/delta_n) > 0), got {self.delta_n:g}"
            )
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")
        sigma = self.regime.sigma
        if sigma is not None and sigma.shape != (self.d, self.d):
            raise ValueError(f"regime.sigma has shape {sigma.shape}; expected ({self.d}, {self.d})")
        # the pilots would otherwise run before these fail (or are ignored)
        if self.calibration_reps < 1:
            raise ValueError("calibration_reps must be >= 1")
        if not self.risk_multipliers or not all(0 < v < math.inf for v in self.risk_multipliers):
            raise ValueError("risk_multipliers must be nonempty and positive (and finite)")


def _eta_scale(regime: LevyRegime, delta_n: float) -> float:
    """Regime-specific multiplier of the truncation level.  The subweibull
    rule needs delta_n < 1, which ExperimentConfig enforces."""
    if regime.tag == "subweibull":
        return math.log(1.0 / delta_n) ** (1.0 / regime.alpha)
    if regime.tag == "polymoment":
        return delta_n ** (1.0 / regime.p)
    return 1.0


def regime_preset(name: str) -> ExperimentConfig:
    """Documented default configuration per noise regime.

    Values are desk-scale calibration outputs, not theory-derived constants;
    everything is overridable via dataclasses.replace.
    """
    if name == "continuous":
        d = 20
        return ExperimentConfig(
            regime=LevyRegime(tag="continuous", sigma=np.eye(d)),
            d=d,
            r=2,
            s=20,
            t_sweep=(250.0, 500.0, 1000.0, 2000.0),
            delta_n=0.05,
            name="continuous",
        )
    if name not in REGIME_TAGS:
        raise ValueError(f"unknown preset {name!r}; expected one of {REGIME_TAGS}")
    d = 10
    return ExperimentConfig(
        regime=LevyRegime(tag=name, sigma=0.5 * np.eye(d), jump_rate=1.0, jump_scale=0.5),
        d=d,
        r=1,
        s=10,
        t_sweep=(250.0, 500.0, 1000.0),
        delta_n=0.1,
        name=name,
    )


def _replicate_data(cfg: ExperimentConfig, t: float, seed: int):
    """Drift, path, localization and contrast context of the replicate (or
    calibration pilot) with this seed at horizon t.

    Calls the other layers through this module's globals, so a tracer that
    wraps them sees every call.
    """
    pcfg = PathConfig(
        delta_n=cfg.delta_n,
        n_obs=max(int(round(t / cfg.delta_n)), 1),
        substeps=cfg.substeps,
        seed=derive_seed(seed, "path"),
    )
    model = generate_drift(
        cfg.d, cfg.r, cfg.s, seed=derive_seed(seed, "model"),
        spectral_floor=_SPECTRAL_FLOOR, lowrank_scale=cfg.lowrank_scale,
    )
    obs = simulate_path(model, cfg.regime, pcfg)
    loc = localization_from_observations(
        obs,
        radius_mult=cfg.localization.radius_mult,
        eta_mult=cfg.localization.eta_mult,
        eta_scale=_eta_scale(cfg.regime, cfg.delta_n),
    )
    return model, obs, loc, build_context(obs, loc)


@dataclass(frozen=True)
class Calibration:
    """Calibrated penalty constants.

    cert_tuning holds the quantile-calibrated constants: the half-penalty
    thresholds sit at the calibration quantile of the gradient dual norms at
    the truth over pilot replicates, which is what the certificate checks
    verify.  solver_tuning scales those constants by the pilot-risk-optimal
    risk_multiplier and drives the estimator; the quantile constants are
    known to oversmooth.  risk_curve holds one {"multiplier", "risk",
    "iterations"} per multiplier tried: the mean pilot squared error (None
    when a solve diverged) and the solver iterations its pilot solves took.
    A fixed tuning is both tunings at multiplier 1.0, with no curve.
    """

    cert_tuning: TuningConfig
    risk_multiplier: float = 1.0
    failed_pilots: tuple = ()  # ({"pilot", "seed", "error"}, ...) dropped pilots
    risk_curve: tuple = ()

    @property
    def solver_tuning(self) -> TuningConfig:
        tun, mult = self.cert_tuning, self.risk_multiplier
        return replace(tun, c_op=tun.c_op * mult, c_one=tun.c_one * mult)


class CalibrationError(RuntimeError):
    """Raised when every calibration pilot failed; carries the failures."""

    def __init__(self, failed_pilots: tuple):
        super().__init__(f"all {len(failed_pilots)} calibration pilots failed")
        self.failed_pilots = failed_pilots


def _error_message(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def calibrate_tuning(cfg: ExperimentConfig) -> Calibration:
    """Calibrate penalty constants on pilot replicates at the longest horizon.

    Stage 1 sets c_op (c_one) so the half-penalty threshold sits at the
    _CALIBRATION_QUANTILE quantile of the operator (entrywise max) norm of
    the contrast gradient at the true drift, times _CALIBRATION_SAFETY, the
    headroom that absorbs the quantile estimate's own sampling noise.
    Stage 2 rescales both constants by the multiplier of
    cfg.risk_multipliers minimizing the mean pilot squared error (the
    earlier multiplier wins a tie, and the first one is kept, with a
    logged warning, when none scores a finite risk).  gamma is
    gamma_factor(cfg.regime, cfg.delta_n); cfg.fixed_tuning is not read.

    Stage 2's solves stop at tol = max(cfg.solver.tol, _CALIBRATION_TOL),
    so a looser caller tol still wins: the solves only rank multipliers a
    factor 2 apart, and steps that take the relative objective decrease
    below 1e-6 do not change that ranking.  The risks and iterations of
    risk_curve come from these solves.  Replicates solve at cfg.solver
    unchanged (`run_single`).

    The multipliers, in their configured order (largest first by default),
    form a continuation path: each pilot's solve at a multiplier starts from
    that pilot's most recent solution (the first from zero), which cuts the
    solver iterations.  The warm starts stay inside calibration; replicates
    start from the least-squares drift instead (`run_single`).

    A pilot whose generation, simulation or localization fails is logged and
    dropped (`failed_pilots`); a multiplier whose solve diverges on some pilot
    scores infinite risk, skips the remaining pilots, and leaves every
    pilot's start at its last successful solution.  Raises CalibrationError
    when no pilot survives.
    """
    t = max(cfg.t_sweep)
    gamma = gamma_factor(cfg.regime, cfg.delta_n)
    op_norms = []
    inf_norms = []
    pilots = []
    failed = []
    for k in range(cfg.calibration_reps):
        seed = derive_seed(cfg.seed_base, "calibration", k)
        try:
            model, _, _, ctx = _replicate_data(cfg, t, seed)
        except _REPLICATE_ERRORS as exc:
            message = _error_message(exc)
            logger.warning("calibration pilot %d (seed %d) dropped: %s", k, seed, message)
            failed.append({"pilot": k, "seed": seed, "error": message})
            continue
        g = gradient(ctx, model.a0)
        op_norms.append(operator_norm(g))
        inf_norms.append(linf_norm(g))
        pilots.append((model, ctx))
    failed = tuple(failed)
    if not pilots:
        raise CalibrationError(failed)
    q_op = float(np.quantile(op_norms, _CALIBRATION_QUANTILE))
    q_inf = float(np.quantile(inf_norms, _CALIBRATION_QUANTILE))
    log_d = math.log(cfg.d)
    cert = TuningConfig(
        c_op=_CALIBRATION_SAFETY * q_op * math.sqrt(t / (gamma * log_d)),
        c_one=_CALIBRATION_SAFETY * q_inf * math.sqrt(t / (2.0 * gamma * log_d)),
        gamma_value=gamma,
    )

    best_mult = cfg.risk_multipliers[0]
    best_risk = math.inf
    risk_curve = []
    solver_cfg = replace(cfg.solver, tol=max(cfg.solver.tol, _CALIBRATION_TOL))
    starts = [None] * len(pilots)  # per pilot: its last (l_hat, s_hat), if any
    for mult in cfg.risk_multipliers:
        lambdas = tune_lambdas(cfg.d, t, Calibration(cert, mult).solver_tuning)
        risk = 0.0
        iterations = 0
        for k, (model, ctx) in enumerate(pilots):
            try:
                result = solve(ctx, lambdas, solver_cfg, start=starts[k])
            except DivergenceError as exc:
                logger.warning("calibration multiplier %g scored inf: %s", mult, exc)
                risk = math.inf
                break
            starts[k] = (result.l_hat, result.s_hat)
            iterations += result.iterations
            diff = result.a_hat - model.a0
            risk += float(np.sum(diff * diff))
        risk_curve.append({
            "multiplier": float(mult),
            "risk": None if math.isinf(risk) else risk / len(pilots),
            "iterations": iterations,
        })
        if risk < best_risk:
            best_risk = risk
            best_mult = float(mult)
    if math.isinf(best_risk):
        logger.warning("no risk multiplier scored a finite pilot risk; using %g", best_mult)
    return Calibration(
        cert_tuning=cert, risk_multiplier=best_mult,
        failed_pilots=failed, risk_curve=tuple(risk_curve),
    )


def _least_squares_start(ctx) -> Optional[tuple]:
    """The start (0, A_LS) of a replicate's solve, A_LS the contrast's
    unpenalized minimizer: it solves the normal equations
    a c_n = -m1 / delta_n.  FISTA's step count grows with the distance from
    the start to the solution, and A_LS is near it when its error is small.

    That error is estimated as s0 tr(c_n^{-1}) / (n delta_n^2): the noise
    part of A_LS is -(sum_k xi_k x_k^T) c_n^{-1} / (n delta_n), whose
    expected squared norm is tr(Sigma) tr(c_n^{-1}) / (n delta_n), and
    s0 ~ delta_n tr(Sigma).  A_LS is kept only when that estimate is below
    half of ||A_LS||_F^2, that is when A_LS is estimated nearer the true
    drift than zero is.  Short horizons and rank-deficient c_n (fewer
    active rows than d) fail this test.

    Returns None, the zero start, when c_n is numerically singular or when
    A_LS fails the test above (non-finite values included): a replicate
    never fails for its start.
    """
    dn = ctx.delta_n
    try:
        eigs = ctx.c_n_eigvals
        if not eigs[0] > ctx.d * np.finfo(float).eps * eigs[-1]:
            return None
        # c_n is symmetric, so a = -(c_n^{-1} m1^T)^T / delta_n
        a_ls = -np.linalg.solve(ctx.c_n, ctx.m1.T).T / dn
    except np.linalg.LinAlgError:
        return None
    error_sq = ctx.s0 * float(np.sum(1.0 / eigs)) / (ctx.n * dn * dn)
    if not error_sq < 0.5 * float(np.vdot(a_ls, a_ls)):
        return None
    return np.zeros_like(a_ls), a_ls


def run_single(cfg: ExperimentConfig, calib: Calibration, t: float, rep: int) -> dict:
    """One replicate: generate, simulate, estimate, certify; returns a row.

    The solve starts from the least-squares drift in the sparse block and
    zero in the low-rank block (`_least_squares_start`); it falls back to
    the zero start when c_n is numerically singular or that drift's
    estimated error is not below half its squared norm.
    """
    start = time.perf_counter()
    seed = derive_seed(cfg.seed_base, "row", t, rep)
    row = {  # the identity columns, which a failed row also fills
        "regime": cfg.regime.tag,
        "d": cfg.d,
        "r": cfg.r,
        "s": cfg.s,
        "delta_n": cfg.delta_n,
        "substeps": cfg.substeps,
        "t_horizon": t,
        "replicate": rep,
        "seed": seed,
    }
    lambdas = tune_lambdas(cfg.d, t, calib.solver_tuning)
    cert_lambdas = tune_lambdas(cfg.d, t, calib.cert_tuning)
    try:
        model, obs, loc, ctx = _replicate_data(cfg, t, seed)
        result = solve(ctx, lambdas, cfg.solver, start=_least_squares_start(ctx))
    except _REPLICATE_ERRORS as exc:
        message = _error_message(exc)
        return {**dict.fromkeys(RESULT_COLUMNS, ""), **row, "failed": 1, "error": message}

    metrics = compute_error_metrics(model, result)
    cone = cone_membership(
        model.tangent, result.l_hat - model.l0, result.s_hat - model.s0
    )
    dual = verify_dual_bounds(ctx, model, cert_lambdas)
    reference = lyapunov_stationary_cov(model.a0, total_noise_cov(cfg.regime, cfg.d))
    rsc = verify_rsc(ctx, reference_cov=reference)
    return {
        **row,
        "failed": 0,
        "error": "",
        "n_obs": obs.n_obs,
        "n_active": ctx.n_active,
        "radius_b": loc.radius_b,
        "eta": loc.eta,
        "gamma_value": calib.solver_tuning.gamma_value,
        "lambda_star": lambdas[0],
        "lambda_one": lambdas[1],
        "cert_lambda_star": cert_lambdas[0],
        "cert_lambda_one": cert_lambdas[1],
        "frob_err_sq": metrics.frob_err_sq,
        "rank_l_hat": metrics.rank_l_hat,
        "support_precision": metrics.support_precision,
        "support_recall": metrics.support_recall,
        "lowrank_ratio": cone.lowrank_ratio,
        "sparse_ratio": cone.sparse_ratio,
        "in_cone": int(cone.in_cone),
        "grad_op_norm": dual.grad_op_norm,
        "grad_inf_norm": dual.grad_inf_norm,
        "dual_op_pass": int(dual.op_pass),
        "dual_inf_pass": int(dual.inf_pass),
        "min_eig_cn": rsc.min_eig_cn,
        "c_b_proxy": rsc.c_b_proxy,
        "rsc_pass": int(rsc.passes),
        "trunc_moment": empirical_trunc_moment(obs, loc.eta),
        "iterations": result.iterations,
        "converged": int(result.converged),
        "wall_time_s": time.perf_counter() - start,
    }


def _row_job(args):
    return run_single(*args)


def run_experiment(
    cfg: ExperimentConfig,
    parallel: int = 1,
    out_dir: Optional[str] = None,
) -> Path:
    """Execute the sweep and write `<name>_results.csv` plus a manifest.

    The output directory resolves as: explicit `out_dir` argument, else the
    OUDRIFT_OUT environment variable, else cfg.output_dir.  Failed replicates
    are flagged rows, never dropped.  cfg.fixed_tuning, when set, is the
    tuning and no pilot runs; otherwise it is calibrated (`calibrate_tuning`).
    When every calibration pilot fails, the sweep runs with the default
    constants and gamma_factor(regime, delta_n); the manifest lists the
    failed pilots.  The manifest is written once the tuning is known, and
    each row as soon as it and the rows before it are done, so a sweep that
    stops early leaves its manifest and the rows it finished.  Returns the
    results path.  parallel is the number of worker processes (1 runs the
    rows in this process); below 1, or with cfg.s > cfg.d^2, it raises
    ValueError before any work.
    """
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    if cfg.s > cfg.d * cfg.d:
        raise ValueError(f"need s <= d^2, got s={cfg.s}, d={cfg.d}")
    target = Path(out_dir or os.environ.get(OUTPUT_DIR_ENV) or cfg.output_dir)
    target.mkdir(parents=True, exist_ok=True)

    if cfg.fixed_tuning is not None:
        calib = Calibration(cfg.fixed_tuning)
    else:
        try:
            calib = calibrate_tuning(cfg)
        except CalibrationError as exc:
            logger.warning("%s; sweeping with the default constants", exc)
            tun = TuningConfig(gamma_value=gamma_factor(cfg.regime, cfg.delta_n))
            calib = Calibration(tun, failed_pilots=exc.failed_pilots)

    manifest = {
        "schema_version": RESULTS_SCHEMA_VERSION,
        "config": config_to_dict(cfg),
        "tuning_used": _to_json(calib.solver_tuning),
        "cert_tuning": {
            "c_op": calib.cert_tuning.c_op,
            "c_one": calib.cert_tuning.c_one,
        },
        "risk_multiplier": calib.risk_multiplier,
        "calibration_failed_pilots": list(calib.failed_pilots),
        "calibration_risk_curve": list(calib.risk_curve),
    }
    with open(target / f"{cfg.name}_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)

    jobs = [(cfg, calib, t, rep) for t in cfg.t_sweep for rep in range(cfg.replicates)]
    results_path = target / f"{cfg.name}_results.csv"
    with open(results_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        if parallel > 1:  # both maps yield the rows in job order
            with ProcessPoolExecutor(max_workers=parallel) as pool:
                writer.writerows(pool.map(_row_job, jobs))
        else:
            writer.writerows(map(_row_job, jobs))
    return results_path


def summarize(results_path, group_keys: Sequence[str]) -> dict:
    """Group result rows and aggregate risk and certificate frequencies.

    Writes `<stem>_summary.csv` and `<stem>_plotdata.csv` (x, y, y_err with
    x the first group key, y the mean squared error) next to the results.
    A row whose `failed` is neither "0" nor empty (nor missing) counts in
    its group's `failures`; malformed rows are skipped and counted.  A group
    key that is not a column raises ValueError naming it.  When grouping by
    `t_horizon` with at least 3 horizons, a log-log rate fit and the
    risk-bound-shape regression (read from the manifest) of the group means
    are included.
    """
    results_path = Path(results_path)
    group_keys = list(group_keys)
    if not group_keys:
        raise ValueError("need at least one group key")
    columns = ("frob_err_sq", "in_cone", "dual_op_pass", "dual_inf_pass", "rsc_pass")
    groups = {}  # key -> [rows of the columns' values, failure count]
    skipped = 0
    with open(results_path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [k for k in group_keys if k not in (reader.fieldnames or ())]
        if missing:
            names = ", ".join(map(repr, missing))
            raise ValueError(f"group key(s) {names} not among the columns of {results_path}")
        for raw in reader:
            key = tuple(raw[k] for k in group_keys)
            if raw.get("failed") not in ("0", "", None):
                groups.setdefault(key, [[], 0])[1] += 1
                continue
            try:
                values = [float(raw[c]) for c in columns]
            except (KeyError, TypeError, ValueError):
                skipped += 1
                continue
            groups.setdefault(key, [[], 0])[0].append(values)

    def _sort_key(key):
        parts = []
        for x in key:
            try:
                parts.append((0, float(x)))
            except (TypeError, ValueError):
                parts.append((1, str(x)))
        return tuple(parts)

    summary_rows = []
    for key in sorted(groups, key=_sort_key):
        values, failures = groups[key]
        entry = {**dict(zip(group_keys, key)), "n": len(values), "failures": failures}
        if values:
            err, cone, dual_op, dual_inf, rsc = np.array(values).T
            entry.update(
                frob_err_sq_mean=float(np.mean(err)),
                frob_err_sq_median=float(np.median(err)),
                frob_err_sq_std=float(np.std(err)),
                cone_pass_rate=float(np.mean(cone)),
                dual_pass_rate=float(np.mean(dual_op * dual_inf)),
                rsc_pass_rate=float(np.mean(rsc)),
            )
        summary_rows.append(entry)

    out = {"groups": summary_rows, "skipped": skipped}

    complete = [e for e in summary_rows if "frob_err_sq_mean" in e]
    if group_keys == ["t_horizon"] and len(complete) >= 3:
        horizons = [float(e["t_horizon"]) for e in complete]
        means = [e["frob_err_sq_mean"] for e in complete]
        # the floor keeps a zero mean from turning the slope into NaN
        slope, _, r2 = linear_fit(np.log(horizons), np.log(np.maximum(means, 1e-300)))
        out["slope_log_t"] = slope
        out["slope_r_squared"] = r2
        manifest_path = results_path.with_name(
            results_path.name.replace("_results.csv", "_manifest.json")
        )
        if manifest_path.exists():
            with open(manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
            c = manifest["config"]
            fit = oracle_bound_compare(
                means, c["d"], c["r"], c["s"], horizons,
                manifest["tuning_used"]["gamma_value"], c["delta_n"],
            )
            out["oracle_fit"] = {
                "c1": fit.c1,
                "c2": fit.c2,
                "r_squared": fit.r_squared,
                "slope_log_t": slope,
            }

    stem = results_path.with_suffix("")
    summary_path = Path(f"{stem}_summary.csv")
    if summary_rows:
        fieldnames = sorted({k for e in summary_rows for k in e}, key=str)
        with open(summary_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(summary_rows)
    plot_path = Path(f"{stem}_plotdata.csv")
    with open(plot_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "y_err"])
        for e in complete:
            writer.writerow([e[group_keys[0]], e["frob_err_sq_mean"], e["frob_err_sq_std"]])
    out["summary_path"] = str(summary_path)
    out["plotdata_path"] = str(plot_path)
    return out


def _to_json(value):
    """A dataclass as a dict in field order, a tuple or ndarray as a nested
    list; anything else as it is."""
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, np.ndarray)):
        return np.asarray(value).tolist()
    return value


def _from_json(cls, doc, path: str = ""):
    """Dataclass `cls` from the dict `doc`, each value cast by its type hint.

    Raises ValueError naming the key path of an unknown key, of a missing
    key without a default, or of a value the hint cannot take.  A missing
    key with a default takes the default.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"config key {path.rstrip('.') or '<root>'!r} must be an object")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ValueError(f"unknown config key {path + unknown[0]!r}")
    hints = get_type_hints(cls)
    kwargs = {}
    for name, f in known.items():
        key = path + name
        if name in doc:
            kwargs[name] = _cast(hints[name], doc[name], key)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing config key {key!r}")
    return cls(**kwargs)


def _cast(hint, value, key: str):
    """`value` as type `hint`; a ValueError names the key path `key`."""
    args = get_args(hint)
    if type(None) in args:  # Optional[X]
        if value is None:
            return None
        hint = next(a for a in args if a is not type(None))
    if is_dataclass(hint):
        return _from_json(hint, value, key + ".")
    try:
        # a JSON true is an int to Python, so int() and float() would take
        # it as 1; int() would take 2.9 as 2, and str() would take anything;
        # int(), float() and np.array() would parse a string, tuple() split it
        if hint is str and not isinstance(value, str):
            raise ValueError(f"expected a string, got {value!r}")
        if hint is not str and isinstance(value, str):
            kind = {int: "an integer", float: "a number"}.get(hint, "a list")
            raise ValueError(f"invalid literal {value!r}: expected {kind}, not a string")
        if hint is np.ndarray:
            return np.array(value, dtype=float)
        if hint is float and isinstance(value, bool):
            raise ValueError(f"expected a number, got {value!r}")
        if hint is int and (
            isinstance(value, bool) or (isinstance(value, float) and not value.is_integer())
        ):
            raise ValueError(f"expected an integer, got {value!r}")
        return hint(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The JSON form of a config, as written to manifests and presets."""
    return _to_json(cfg)


def config_from_dict(doc: dict) -> ExperimentConfig:
    """The config of a JSON document written by `config_to_dict`.

    Raises ValueError naming the key path of an unknown key at any level or
    of a missing required field (a retired key is an unknown key); missing
    optional keys take their defaults.
    """
    return _from_json(ExperimentConfig, doc)
