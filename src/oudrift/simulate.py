"""Background driving Levy process samplers and OU path simulation.

Four noise regimes are supported, distinguished by jump tails:

  continuous  - Brownian motion only (no jumps)
  bounded     - compound Poisson with jump norms capped at z0
  subweibull  - stretched-exponential jump tails with exponent alpha
  polymoment  - Pareto jump tails; only a p-th moment exists

Jumps are isotropic (uniform random direction), hence centered, so the
driving noise is a square-integrable martingale in every regime.  Paths follow
the Euler scheme x <- M x + dz, M = I - A0 dt, on a fine grid of `substeps`
steps per observation; the exact transition has no closed form once jumps are
present.  Only the observation mesh is recorded, so the m = substeps fine
steps between two observations are applied at once:

    x_{k+1} = M^m x_k + sum_j M^(m-1-j) dz_{k,j},

with the fine increments dz_{k,j} reduced by one matrix product per run of
blocks (burn-in, then the observed path).  This is the same scheme on the
same random draws as stepping every substep, so the law of the path is
unchanged and states differ from stepwise iteration only by floating-point
rounding.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import DriftModel

__all__ = [
    "REGIME_TAGS",
    "LevyRegime",
    "PathConfig",
    "ObservationSet",
    "SimulationBlowupError",
    "sample_levy_increment",
    "simulate_path",
    "empirical_trunc_moment",
    "derive_seed",
]

REGIME_TAGS = ("continuous", "bounded", "subweibull", "polymoment")

OVERFLOW_GUARD = 1e12


class SimulationBlowupError(RuntimeError):
    """Raised when a simulated state exceeds the overflow guard."""


@dataclass(frozen=True)
class LevyRegime:
    """Tagged description of the driving noise.

    sigma : (d, d) Brownian factor; the Gaussian part of an increment over dt
        is sigma @ g * sqrt(dt).  May be zero for pure-jump noise.
    jump_rate : compound-Poisson intensity per unit time (0 disables jumps).
    jump_scale : radial scale of the jump-size law.
    z0 : hard bound on jump norms (bounded regime only).
    alpha : stretched-exponential tail exponent (subweibull regime only).
    p : moment order, > 2 (polymoment regime only); jump radii are Pareto
        with tail index p + 0.5 so the p-th moment exists but is heavy.
    """

    tag: str
    sigma: Optional[np.ndarray] = None
    jump_rate: float = 0.0
    jump_scale: float = 1.0
    z0: float = 1.0
    alpha: float = 1.0
    p: float = 4.0

    def __post_init__(self):
        if self.tag not in REGIME_TAGS:
            raise ValueError(f"unknown regime tag {self.tag!r}; expected one of {REGIME_TAGS}")
        if self.sigma is not None:
            sigma = np.asarray(self.sigma, dtype=float)
            if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
                raise ValueError("sigma must be a square matrix")
            object.__setattr__(self, "sigma", sigma)
        if self.jump_rate < 0:
            raise ValueError("jump_rate must be nonnegative")
        if self.jump_scale <= 0:
            raise ValueError("jump_scale must be positive")
        if self.tag == "bounded" and self.z0 <= 0:
            raise ValueError("z0 must be positive")
        if self.tag == "subweibull" and self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.tag == "polymoment" and self.p <= 2:
            raise ValueError("p must exceed 2")
        if self.tag == "continuous" and self.jump_rate != 0.0:
            raise ValueError("continuous regime cannot carry jumps")

    def dimension(self) -> int:
        if self.sigma is None:
            raise ValueError("regime has no sigma; dimension is ambiguous")
        return self.sigma.shape[0]


@dataclass(frozen=True)
class PathConfig:
    """Observation grid: n_obs increments of size delta_n, Euler-substepped.

    burn_in_time None means 10 / stability_margin, long enough for the
    mean-reverting dynamics to forget the zero start.
    """

    delta_n: float
    n_obs: int
    substeps: int = 10
    burn_in_time: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.delta_n <= 0:
            raise ValueError("delta_n must be positive")
        if self.n_obs < 1:
            raise ValueError("n_obs must be >= 1")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")
        if self.burn_in_time is not None and self.burn_in_time < 0:
            raise ValueError("burn_in_time must be nonnegative")

    @property
    def horizon(self) -> float:
        return self.n_obs * self.delta_n


@dataclass(frozen=True)
class ObservationSet:
    """States X_{t_0..t_n} on the mesh delta_n plus their increments."""

    d: int
    delta_n: float
    states: np.ndarray
    increments: np.ndarray

    @classmethod
    def from_states(cls, states, delta_n: float) -> "ObservationSet":
        states = np.asarray(states, dtype=float)
        if states.ndim != 2 or states.shape[0] < 2:
            raise ValueError("states must be (n+1, d) with n >= 1")
        if not np.all(np.isfinite(states)):
            raise ValueError("states contain non-finite entries")
        return cls(
            d=states.shape[1],
            delta_n=float(delta_n),
            states=states,
            increments=np.diff(states, axis=0),
        )

    @property
    def n_obs(self) -> int:
        return self.increments.shape[0]

    def save_csv(self, path) -> None:
        """Header records d, n, delta_n; each row is t_k then the state."""
        n = self.n_obs
        t = np.arange(n + 1) * self.delta_n
        data = np.column_stack([t, self.states])
        header = f"d={self.d},n={n},delta_n={self.delta_n!r}"
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header)

    @classmethod
    def load_csv(cls, path) -> "ObservationSet":
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().lstrip("#").strip()
        fields = dict(part.split("=") for part in header.split(","))
        delta_n = float(fields["delta_n"])
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        states = data[:, 1:]
        if states.shape[1] != int(fields["d"]) or states.shape[0] != int(fields["n"]) + 1:
            raise ValueError(f"CSV shape {states.shape} does not match header {header!r}")
        return cls.from_states(states, delta_n)


def _jump_radii(regime: LevyRegime, size: int, rng: np.random.Generator) -> np.ndarray:
    if regime.tag == "bounded":
        return np.minimum(regime.jump_scale * rng.uniform(size=size), regime.z0)
    if regime.tag == "subweibull":
        w = rng.standard_exponential(size=size)
        return regime.jump_scale * w ** (1.0 / regime.alpha)
    if regime.tag == "polymoment":
        return regime.jump_scale * (1.0 + rng.pareto(regime.p + 0.5, size=size))
    raise ValueError(f"regime {regime.tag!r} has no jump law")


def _sample_increments(
    regime: LevyRegime, dt: float, n: int, d: int, rng: np.random.Generator
) -> np.ndarray:
    """n driving-noise increments over windows of length dt, shape (n, d)."""
    out = np.zeros((n, d))
    if regime.sigma is not None and np.any(regime.sigma):
        out += np.sqrt(dt) * rng.standard_normal((n, d)) @ regime.sigma.T
    if regime.tag != "continuous" and regime.jump_rate > 0:
        counts = rng.poisson(regime.jump_rate * dt, size=n)
        total = int(counts.sum())
        if total > 0:
            dirs = rng.standard_normal((total, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            jumps = dirs * _jump_radii(regime, total, rng)[:, None]
            np.add.at(out, np.repeat(np.arange(n), counts), jumps)
    return out


def sample_levy_increment(regime: LevyRegime, dt: float, rng: np.random.Generator, d: Optional[int] = None) -> np.ndarray:
    """One increment of the driving noise over a window of length dt."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if d is None:
        d = regime.dimension()
    return _sample_increments(regime, dt, 1, d, rng)[0]


def _aggregated_step(a0: np.ndarray, dt: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """M^m and the (m d, d) stack of (M^(m-1-j))^T for M = I - A0 dt.

    Row-vector form: a block of fine increments dz_{k,0..m-1}, concatenated
    into one row, times the stack is (sum_j M^(m-1-j) dz_{k,j})^T.
    """
    step = np.eye(a0.shape[0]) - a0 * dt
    powers = [np.eye(a0.shape[0])]
    for _ in range(m - 1):
        powers.append(step @ powers[-1])
    stack = np.concatenate([pw.T for pw in reversed(powers)])
    return step @ powers[-1], stack


def _euler_blocks(
    x: np.ndarray, dz: np.ndarray, power: np.ndarray, stack: np.ndarray
) -> np.ndarray:
    """States after every block of m Euler steps from x, m = len(stack) // d.

    dz holds the fine increments, (n_blocks * m, d), block-major.  Returns
    (n_blocks + 1, d) with x in row 0.  Overflow is left to the caller's
    guard: rows past a blow-up hold inf or nan.
    """
    drive = dz.reshape(-1, stack.shape[0])
    out = np.empty((drive.shape[0] + 1, x.shape[0]))
    out[0] = x
    np.matmul(drive, stack, out=out[1:])
    for k in range(drive.shape[0]):
        out[k + 1] += power @ out[k]
    return out


def simulate_path(
    model: DriftModel,
    regime: LevyRegime,
    cfg: PathConfig,
    x0: Optional[np.ndarray] = None,
) -> ObservationSet:
    """Euler path of dX = -A0 X dt + dZ, recorded on the observation mesh.

    dt = delta_n / substeps; the substeps between two observations are
    applied as one aggregated step (module docstring), on the same draws as
    stepping each substep, so only rounding differs.  The start is
    stationarized by running the same dynamics for the burn-in duration from
    zero (or from `x0` when given; pass burn_in_time=0 to force an exact
    injected start); its leading `n_burn mod substeps` steps are taken singly.
    Raises SimulationBlowupError when the state leaves the overflow guard by
    the end of burn-in or at an observation.  Deterministic given cfg.seed.
    """
    d = model.d
    if regime.sigma is not None and regime.sigma.shape[0] != d:
        raise ValueError(f"regime dimension {regime.sigma.shape[0]} != model dimension {d}")
    rng = np.random.default_rng(cfg.seed)
    m = cfg.substeps
    dt = cfg.delta_n / m
    a0 = model.a0

    burn_time = cfg.burn_in_time
    if burn_time is None:
        burn_time = 10.0 / model.stability_margin
    n_burn = int(round(burn_time / dt))

    x = np.zeros(d) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.shape != (d,):
        raise ValueError(f"x0 must have shape ({d},)")

    with np.errstate(over="ignore", invalid="ignore"):
        power, stack = _aggregated_step(a0, dt, m)
        if n_burn > 0:
            dz = _sample_increments(regime, dt, n_burn, d, rng)
            lead = n_burn % m
            for k in range(lead):
                x = x - (a0 @ x) * dt + dz[k]
            x = _euler_blocks(x, dz[lead:], power, stack)[-1]
            if not np.all(np.abs(x) < OVERFLOW_GUARD):
                raise SimulationBlowupError(
                    f"burn-in exceeded overflow guard (dt={dt:g}, "
                    f"stability_margin={model.stability_margin:g})"
                )

        dz = _sample_increments(regime, dt, cfg.n_obs * m, d, rng)
        states = _euler_blocks(x, dz, power, stack)
        bad = ~np.all(np.abs(states[1:]) < OVERFLOW_GUARD, axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise SimulationBlowupError(
            f"state exceeded overflow guard at t={(k + 1) * cfg.delta_n:g} "
            f"(dt={dt:g}, stability_margin={model.stability_margin:g})"
        )
    return ObservationSet.from_states(states, cfg.delta_n)


def empirical_trunc_moment(obs: ObservationSet, eta: float) -> float:
    """Mean of ||increment||^2 over increments with norm above eta."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    norms_sq = np.sum(obs.increments**2, axis=1)
    return float(np.mean(norms_sq * (np.sqrt(norms_sq) > eta)))


def derive_seed(base: int, *parts) -> int:
    """Stable 63-bit seed from a base seed and arbitrary labels.

    Hash-based so that extending a sweep never reshuffles existing draws.
    """
    text = "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return (int(base) ^ int.from_bytes(digest[:8], "big")) & (2**63 - 1)
