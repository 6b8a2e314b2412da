"""In-memory span tracing around the layer functions the experiment harness calls.

A `Tracer` replaces, in the namespace of `oudrift.experiment`, each function
that module imports from another layer (plus `numpy.linalg.svd`) with a
wrapper that records a span: name, start, end and the index of the enclosing
span.  Nothing inside the package changes; every span sits on a call from the
experiment layer into another layer.  Spans stay in memory until the run ends.

`layer_metrics` turns spans into per-layer self times and counts, split by the
experiment stage that caused them: `calibrate` (under `calibrate_tuning`) and
`replicate` (under `run_single`).
"""

from __future__ import annotations

import functools
import json
import os
import statistics
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter

import numpy as np

# Every function oudrift.experiment imports from another layer, by layer, and
# the experiment layer's own stage functions, which it calls through module
# globals.  A rename in the package makes `Tracer.install` raise rather than
# report 0 s.
LAYER_FUNCTIONS = {
    "simulate": ("simulate_path", "empirical_trunc_moment", "derive_seed"),
    "contrast": ("localization_from_observations", "build_context", "gradient"),
    "solver": ("solve", "tune_lambdas", "gamma_factor"),
    "models": ("generate_drift", "lyapunov_stationary_cov"),
    "analysis": (
        "cone_membership", "compute_error_metrics", "verify_dual_bounds",
        "verify_rsc", "linear_fit", "oracle_bound_compare",
    ),
    "experiment": ("calibrate_tuning", "run_single"),
}
SCOPES = {"calibrate_tuning": "calibrate", "run_single": "replicate"}
# SVDs run inside other layers (solver, analysis, calibration).  Their spans
# break that time down and take nothing out of the caller's self time.
INNER_SPANS = {"svd"}
# Benchmark work in a traced run: the optimality certificate of every solve,
# run after the solves it checks, outside every timed span.
BENCH_SPAN = "bench.certify"


def _simulate_steps(args, kwargs) -> int:
    """Euler steps simulate_path computes: burn-in plus n_obs * substeps."""
    model = args[0] if args else kwargs["model"]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    dt = cfg.delta_n / cfg.substeps
    burn = cfg.burn_in_time if cfg.burn_in_time is not None else 10.0 / model.stability_margin
    return int(round(burn / dt)) + cfg.n_obs * cfg.substeps


def _kronecker_bytes(args, kwargs) -> int:
    """Bytes of the d^2 x d^2 float64 system lyapunov_stationary_cov solves."""
    a0 = args[0] if args else kwargs["a0"]
    return 8 * len(a0) ** 4


class Tracer:
    """Records spans from wrapped functions; install with `with tracer:`.

    `names` limits the wrapped experiment-module functions (all by default).
    A full trace keeps each solve's inputs and result until `certify` runs
    `check_optimality` on them, after the timed work.  With `pool_dir`, the
    experiment's process pool becomes a `pool` span; its workers trace
    themselves, certify their solves and write their spans there when they
    exit, and `collect_workers` charges that exit work to no span.
    """

    def __init__(self, names=None, pool_dir=None):
        layer_of = {fn: layer for layer, fns in LAYER_FUNCTIONS.items() for fn in fns}
        self.full = names is None
        if self.full:
            layer_of["svd"] = "matrix_ops"
        else:
            layer_of = {n: layer_of[n] for n in names}
        self.layer_of = layer_of
        self.pool_dir = pool_dir
        self.spans = []  # [name, start, end, parent, note]
        self._pending = []  # (note, ctx, result, lambdas) of uncertified solves
        self._pool_rec = None
        self._stack = []
        self._saved = []
        self._paused = False

    def _open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if note is not None:  # a call that raised keeps note None
                rec[4] = note(args, kwargs, out)
            return out

        wrapper.traced = fn
        return wrapper

    def _note_solve(self, args, kwargs, result):
        note = {"iterations": result.iterations, "converged": bool(result.converged)}
        ctx = args[0] if args else kwargs["ctx"]
        lambdas = args[1] if len(args) > 1 else kwargs["lambdas"]
        self._pending.append((note, ctx, result, lambdas))
        return note

    def certify(self):
        """Run `check_optimality` on every solve since the last call, inside a
        `bench.certify` span, and add its residual and verdict to the notes.
        Call it only outside timed work."""
        from oudrift.solver import check_optimality

        rec = self._open(BENCH_SPAN)
        self._paused = True
        try:
            for note, ctx, result, lambdas in self._pending:
                rep = check_optimality(ctx, result, lambdas)
                note["residual"] = max(rep.nuclear_residual, rep.l1_residual)
                note["cert_pass"] = bool(rep.passes)
            self._pending.clear()
        finally:
            self._paused = False
            self._close(rec)

    def _note(self, name):
        """What a full trace keeps from each call of `name`, as (args, kwargs, result) -> note."""
        if not self.full:
            return None
        return {
            "simulate_path": lambda a, k, out: {"steps": _simulate_steps(a, k)},
            "build_context": lambda a, k, out: {"n_active": out.n_active, "n": out.n},
            "solve": self._note_solve,
            "lyapunov_stationary_cov": lambda a, k, out: {"bytes": _kronecker_bytes(a, k)},
        }.get(name)

    def install(self):
        import oudrift.experiment as ex

        for name in self.layer_of:
            module = np.linalg if name == "svd" else ex
            current = getattr(module, name)  # AttributeError names a rename
            # Forked pool workers inherit the parent's wrappers.
            original = getattr(current, "traced", current)
            self._saved.append((module, name, current))
            setattr(module, name, self._wrap(name, original, self._note(name)))
        if self.pool_dir is not None:
            self._saved.append((ex, "ProcessPoolExecutor", ex.ProcessPoolExecutor))
            ex.ProcessPoolExecutor = self._pool_class()
        return self

    def uninstall(self):
        while self._saved:
            module, name, current = self._saved.pop()
            setattr(module, name, current)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None):
                self._rec = tracer._pool_rec = tracer._open("pool")
                super().__init__(
                    max_workers=max_workers, initializer=_trace_worker,
                    initargs=(str(tracer.pool_dir),),
                )

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._close(self._rec)

        return TracedPool

    def dump(self, path):
        """Write the spans, one JSON list per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def collect_workers(self):
        """Append the spans pool workers wrote, re-basing parent indices.

        Workers certify their solves when they exit, all at once after the
        last task, so that work lengthens the last pool span by the longest
        worker's certify time.  It is noted on the pool span as `bench_s`.
        """
        if self.pool_dir is None:
            return
        bench = [0.0]
        for path in sorted(Path(self.pool_dir).glob("worker-*.jsonl")):
            base = len(self.spans)
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    name, start, end, parent, note = json.loads(line)
                    self.spans.append([name, start, end, parent + base if parent >= 0 else -1, note])
                    if name == BENCH_SPAN:
                        bench.append(end - start)
            path.unlink()
        if self._pool_rec is not None:
            self._pool_rec[4] = {"bench_s": max(bench)}
            self._pool_rec = None

    def finish(self, path):
        """Pool-worker exit: certify the worker's solves, then write its spans."""
        self.certify()
        self.dump(path)


def _trace_worker(pool_dir):
    """Pool-worker initializer: trace this worker and dump its spans at exit.

    Forked workers inherit the parent's wrappers; `install` replaces them, so
    the worker records into its own tracer.
    """
    tracer = Tracer().install()
    path = Path(pool_dir) / f"worker-{os.getpid()}.jsonl"
    mp_util.Finalize(None, tracer.finish, args=(path,), exitpriority=10)


def _bench_time(spans):
    """Per span, the benchmark's own time inside it: the `bench_s` noted on
    each pool span, charged to the pool span and its ancestors."""
    out = [0.0] * len(spans)
    for i, (name, _, _, _, note) in enumerate(spans):
        if name == "pool" and note:
            while i >= 0:
                out[i] += note["bench_s"]
                i = spans[i][3]
    return out


def _child_time(spans):
    out = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0 and name not in INNER_SPANS:
            out[parent] += end - start
    return out


def _scope(spans, i):
    while i >= 0:
        scope = SCOPES.get(spans[i][0])
        if scope:
            return scope
        i = spans[i][3]
    return None


def layer_metrics(spans, layer_of, rounds):
    """Per-layer self times and counts, per scope.

    A span's self time is its duration minus that of its direct children.
    Times and counts are per round (totals over `rounds`); ratios are taken
    over all rounds.  A call that raised counts in its layer's time and
    calls, but adds no steps, iterations or other noted counts.  Call
    `Tracer.certify` first: solve notes need its verdicts.
    """
    child_time = _child_time(spans)
    acc = {}
    residuals = {"calibrate": [], "replicate": []}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    for i, (name, start, end, parent, note) in enumerate(spans):
        scope = _scope(spans, i)
        layer = layer_of.get(name)
        if scope is None or layer is None:
            continue
        p = f"{scope}."
        dur = end - start
        self_s = dur - child_time[i]
        add(f"{p}{layer}.self_s", self_s)
        add(f"{p}{layer}.calls", 1)
        if name == "simulate_path":
            add(p + "simulate.path_calls", 1)
            if note is not None:
                add(p + "simulate.steps", note["steps"])
                add(p + "simulate.path_self_s", self_s)
        elif note is None and name in ("build_context", "solve", "lyapunov_stationary_cov"):
            continue  # the call raised: its time and call count are kept above
        elif name == "build_context":
            add(p + "contrast.n_active", note["n_active"])
            add(p + "contrast.n", note["n"])
        elif name == "solve":
            add(p + "solver.solves", 1)
            add(p + "solver.iterations", note["iterations"])
            add(p + "solver.solve_s", dur)
            add(p + "solver.converged", note["converged"])
            add(p + "solver.cert_pass", note["cert_pass"])
            residuals[scope].append(note["residual"])
        elif name in SCOPES:
            add(p + "experiment.wall_s", dur)
        elif name == "svd":
            if parent >= 0 and spans[parent][0] == "solve":
                add(p + "matrix_ops.svd_in_solve", 1)
        elif name == "generate_drift":
            add(p + "models.generate_s", dur)
        elif name == "lyapunov_stationary_cov":
            add(p + "models.lyapunov_s", dur)
            key = p + "models.lyapunov_bytes"
            acc[key] = max(acc.get(key, 0), note["bytes"])

    def get(key):
        return acc.get(key, 0.0)

    def ratio(num, den, scale=1.0):
        return scale * get(num) / get(den) if get(den) else 0.0

    out = {}
    for scope in ("calibrate", "replicate"):
        p = f"{scope}."
        per_round = {
            "simulate.self_s": "simulate.self_s",
            "simulate.calls": "simulate.path_calls",
            "simulate.steps": "simulate.steps",
            "contrast.self_s": "contrast.self_s",
            "solver.self_s": "solver.self_s",
            "solver.calls": "solver.solves",
            "solver.iterations": "solver.iterations",
            "matrix_ops.svd_calls": "matrix_ops.calls",
            "matrix_ops.svd_s": "matrix_ops.self_s",
            "models.generate_s": "models.generate_s",
            "models.lyapunov_s": "models.lyapunov_s",
            "analysis.self_s": "analysis.self_s",
            "analysis.calls": "analysis.calls",
            "experiment.self_s": "experiment.self_s",
            "experiment.wall_s": "experiment.wall_s",
        }
        out.update({p + k: get(p + v) / rounds for k, v in per_round.items()})
        res = residuals[scope]
        out.update({
            p + "simulate.ns_per_step": ratio(p + "simulate.path_self_s", p + "simulate.steps", 1e9),
            p + "contrast.active_frac": ratio(p + "contrast.n_active", p + "contrast.n"),
            p + "solver.ms_per_iter": ratio(p + "solver.solve_s", p + "solver.iterations", 1e3),
            p + "solver.converged_frac": ratio(p + "solver.converged", p + "solver.solves"),
            p + "solver.cert_pass_frac": ratio(p + "solver.cert_pass", p + "solver.solves"),
            p + "solver.residual_p50": statistics.median(res) if res else 0.0,
            p + "matrix_ops.svd_per_iter": ratio(p + "matrix_ops.svd_in_solve", p + "solver.iterations"),
            p + "models.lyapunov_bytes": get(p + "models.lyapunov_bytes"),
        })
    return out


def sweep_metrics(spans, rounds, rows):
    """Run-level metrics: per round, `run_experiment` self time (orchestration
    and CSV/manifest I/O) and time outside and inside the process pool, and
    `rows` over the summed `run_experiment` time.  Pool workers' certify time
    is taken out of the times."""
    child_time = _child_time(spans)
    bench = _bench_time(spans)
    total = pool = self_s = 0.0
    for i, (name, start, end, _, _) in enumerate(spans):
        if name == "run_experiment":
            total += end - start - bench[i]
            self_s += end - start - child_time[i]
        elif name == "pool":
            pool += end - start - bench[i]
    return {
        "sweep.experiment.self_s": self_s / rounds,
        "sweep.experiment.serial_s": (total - pool) / rounds,
        "sweep.experiment.pool_s": pool / rounds,
        "sweep.rows_per_s": rows / total,
    }
