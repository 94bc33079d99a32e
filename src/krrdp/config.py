"""Flat key-value run configuration: parsing, validation, defaults, hashing.

Format: one ``dotted.key = value`` per line, ``#`` comments, blank lines
ignored. Lists are comma-separated. Stage t = 1..T-1 overrides use ``stage.<t>.<field>``.
"""

import hashlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .bellman import StageConfig
from .dynamics import GbmParams
from .kernels import KernelSpec
from .payoffs import PAYOFF_KINDS, PayoffSpec

# Candidate grid for cross-validated lengthscale selection (the {40, 80} grid
# read in the exp(-||x-y||^2 / l^2) normalization; our kernel uses
# exp(-||x-y||^2 / (2 l^2)), hence the 1/sqrt(2) factor). Used when a config
# supplies several stage.lengthscale values; the defaults below are fixed
# because regression-MSE selection does not track pricing bias reliably.
DEFAULT_LENGTHSCALE_GRID = (40.0 / math.sqrt(2.0), 80.0 / math.sqrt(2.0))
DEFAULT_LAMBDA = 1e-6

# Calibrated against the binomial-tree and least-squares Monte Carlo baselines:
# the state cloud widens slowly with dimension (put), while the unbounded
# max-call payoff needs a wider kernel to limit tail attenuation.
PUT_LENGTHSCALE_BASE = 40.0 / math.sqrt(2.0)
MAX_CALL_LENGTHSCALE = 20.0 * math.sqrt(10.0)

# Multiplier on the baseline inner-MC counts; the baseline M leaves an
# upward max-of-noisy-MC bias larger than the oracle agreement we target.
INNER_MC_MULTIPLIER = 16


class ConfigError(ValueError):
    pass


# Stage settings: (key suffix, StageConfig field, cast). Each is read as
# stage.<suffix> for every stage, then as stage.<t>.<suffix> for stage t >= 1.
_STAGE_FIELDS = (
    ("n", "n", int),
    ("M", "M", int),
    ("lambda", "lam", float),
    ("beta", "beta", float),
    ("nystrom_m", "nystrom_m", int),
    ("clip", "clip_override", float),
    ("lengthscale", "kernel", lambda v: KernelSpec(lengthscale=float(v))),
)


@dataclass(frozen=True)
class RunConfig:
    params: GbmParams
    payoff: PayoffSpec
    maturity: float
    steps: int
    stages: tuple
    seed: int
    repetitions: int
    eval_M: int
    oracle: bool = True
    lower_bound: bool = False
    lb_paths: int = 4000
    lengthscale_grid: tuple | None = None
    use_schedule: bool = False

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("steps must be at least 1")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be at least 1")
        if len(self.stages) != self.steps:
            raise ConfigError("need one StageConfig per step")
        if self.eval_M < 1:
            raise ConfigError("eval_M must be at least 1")
        if self.lb_paths < 1:
            raise ConfigError("lb_paths must be at least 1")

    def with_lengthscale(self, ls):
        spec = KernelSpec(lengthscale=float(ls))
        stages = tuple(replace(s, kernel=spec) for s in self.stages)
        return replace(self, stages=stages, lengthscale_grid=None)


def default_lengthscale(d, payoff_kind):
    """Fixed default kernel lengthscale per payoff kind and dimension."""
    if payoff_kind == "max_call":
        return MAX_CALL_LENGTHSCALE
    return PUT_LENGTHSCALE_BASE * (max(d, 2) / 2.0) ** 0.25


def default_sample_sizes(d):
    """Stage sizes interpolated linearly in d between (2, 200, 50) and (20, 800, 100).

    The inner-MC count is additionally scaled by INNER_MC_MULTIPLIER.
    """
    frac = (max(d, 2) - 2) / 18.0
    n = round(200 + 600 * frac)
    M = round(50 + 50 * frac) * INNER_MC_MULTIPLIER
    return int(n), int(M)


def config_hash(cfg):
    payload = {
        "d": cfg.params.d,
        "r": cfg.params.r,
        "sigma": cfg.params.sigma.tolist(),
        "rho": cfg.params.rho.tolist(),
        "x0": cfg.params.x0.tolist(),
        "dt": cfg.params.dt,
        "payoff": cfg.payoff.kind,
        "strike": cfg.payoff.strike,
        "maturity": cfg.maturity,
        "steps": cfg.steps,
        "stages": [
            [s.n, s.M, s.lam, s.kernel.lengthscale, s.beta, s.nystrom_m, s.clip_override]
            for s in cfg.stages
        ],
        "seed": cfg.seed,
        "repetitions": cfg.repetitions,
        "eval_M": cfg.eval_M,
        "lengthscale_grid": cfg.lengthscale_grid,
        "use_schedule": cfg.use_schedule,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _parse_file(path):
    entries = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key or not value:
                raise ConfigError(f"{path}:{lineno}: empty key or value")
            entries[key] = value
    return entries


def _floats(value):
    return [float(v) for v in value.split(",") if v.strip()]


def _bool(value):
    low = value.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def build_run_config(entries):
    """Assemble and validate a RunConfig from a flat key-value mapping."""
    entries = dict(entries)

    def take(key, default=..., cast=str):
        if key in entries:
            try:
                return cast(entries.pop(key))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"field '{key}': {exc}") from exc
        if default is ...:
            raise ConfigError(f"missing required field '{key}'")
        return default

    d = take("market.d", cast=int)
    if d < 1:
        raise ConfigError("field 'market.d': need at least one asset")
    r = take("market.r", 0.05, float)
    sigma = np.asarray(take("market.sigma", [0.2], _floats))
    if sigma.size == 1:
        sigma = np.full(d, sigma[0])
    rho_vals = take("market.rho", [0.2], _floats)
    if len(rho_vals) == 1:
        rho = np.full((d, d), rho_vals[0])
        np.fill_diagonal(rho, 1.0)
    elif len(rho_vals) == d * d:
        rho = np.asarray(rho_vals).reshape(d, d)
    else:
        raise ConfigError("field 'market.rho': give a scalar or d*d values")
    x0 = np.asarray(take("market.x0", [100.0], _floats))
    if x0.size == 1:
        x0 = np.full(d, x0[0])

    payoff_kind = take("contract.payoff")
    if payoff_kind not in PAYOFF_KINDS:
        raise ConfigError(f"field 'contract.payoff': unknown kind {payoff_kind!r}")
    strike = take("contract.strike", cast=float)
    maturity = take("contract.maturity", 1.0, float)
    steps = take("contract.steps", 9, int)
    if steps < 1:
        raise ConfigError("field 'contract.steps': steps must be at least 1")
    if not 0 < maturity < math.inf:
        raise ConfigError("field 'contract.maturity': maturity must be positive and finite")
    dt = maturity / steps

    try:
        params = GbmParams(d=d, r=r, sigma=sigma, rho=rho, x0=x0, dt=dt)
        payoff = PayoffSpec(kind=payoff_kind, strike=strike)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    n_default, m_default = default_sample_sizes(d)
    ls_vals = take("stage.lengthscale", [default_lengthscale(d, payoff_kind)], _floats)
    grid = tuple(ls_vals) if len(ls_vals) > 1 else None

    def stage_settings(prefix, defaults):
        return {fld: take(prefix + key, defaults[fld], cast) for key, fld, cast in _STAGE_FIELDS}

    # stage.lengthscale was taken above as the grid, so this pass keeps its first value.
    base = stage_settings("stage.", {"n": n_default, "M": m_default, "lam": DEFAULT_LAMBDA,
                                     "beta": 1.0, "nystrom_m": None, "clip_override": None,
                                     "kernel": KernelSpec(lengthscale=ls_vals[0])})
    stages = []
    for t in range(steps):
        # Stage 0 has no fit, so stage.0.<field> is left over as an unknown field.
        kw = stage_settings(f"stage.{t}.", base) if t else base
        try:
            stages.append(StageConfig(**kw))
        except ValueError as exc:
            raise ConfigError(f"stage {t}: {exc}") from exc

    cfg = RunConfig(
        params=params,
        payoff=payoff,
        maturity=maturity,
        steps=steps,
        stages=tuple(stages),
        seed=take("seed", 20260823, int),
        repetitions=take("repetitions", 10, int),
        eval_M=take("eval_M", 100_000, int),
        oracle=take("oracle", True, _bool),
        lower_bound=take("lower_bound", False, _bool),
        lb_paths=take("lb_paths", 4000, int),
        lengthscale_grid=grid,
        use_schedule=take("use_schedule", False, _bool),
    )
    if entries:
        raise ConfigError(f"unknown field '{next(iter(entries))}'")
    return cfg


def load_config(path):
    return build_run_config(_parse_file(path))
