"""Flat key-value run configuration: parsing, validation, defaults, hashing.

Format: one ``dotted.key = value`` per line, each key at most once, ``#``
comments, blank lines ignored. Lists are comma-separated. One ``stage.<field>`` setting applies to
every fitted date.
"""

import hashlib
import json
import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .bellman import StageConfig
from .dynamics import GbmParams
from .kernels import KernelSpec
from .payoffs import PAYOFF_KINDS, PayoffSpec
from .qmc import MAX_DIM

DEFAULT_LAMBDA = 1e-6

# Calibrated against the binomial-tree and least-squares Monte Carlo baselines:
# the state cloud widens slowly with dimension (put), while the unbounded
# max-call payoff needs a wider kernel to limit tail attenuation. The put base
# is 40 read in the exp(-||x-y||^2 / l^2) normalization; our kernel uses
# exp(-||x-y||^2 / (2 l^2)), hence the 1/sqrt(2) factor.
PUT_LENGTHSCALE_BASE = 40.0 / math.sqrt(2.0)
MAX_CALL_LENGTHSCALE = 20.0 * math.sqrt(10.0)

# Inner points of every stage target's continuation average: 32 antithetic
# pairs of shifted Sobol points, a power of two, on every row. On the seed-7
# acceptance configs, `krrdp mc-diag` (stage T-1's continuation standard
# error) read 0.028, 0.035 and 0.042 on the put at d = 2, 5 and 10 and 0.056
# on the call at d = 2, against 0.095, 0.071, 0.056 and 0.22 for the 100, 116,
# 144 and 100 pseudo-random draws this replaces. On repetition 0's stacks
# of seed 1, 64 shifted points read a nested RMS error of 0.028-0.034 at
# d = 10 at t = 1, 4 and 7. The seed-7 put prices moved by at most 0.009
# against the binomial oracle, each toward it or within 0.002.
DEFAULT_INNER_M = 64

# Shifted Sobol points of the x0 evaluation, a power of two. Over 30
# randomizations on repetition 0's stack of the benchmark rows (seed 1), the
# x0 continuation's sd read 3.5e-4, 2.9e-4 and 4.6e-4 on call_d2, put_d5 and
# put_d10, against 3.9e-3, 2.0e-3 and 1.6e-3 for the 100 000 pseudo-random
# draws it replaces, at a twelfth of their predicts; 2048 points read 1.6e-3
# on put_d10.
DEFAULT_EVAL_M = 2**13


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    params: GbmParams
    payoff: PayoffSpec
    steps: int
    stage: StageConfig  # the (n, M, lambda, kernel) of every fitted date t = 1..T-1
    seed: int
    repetitions: int
    eval_M: int
    lb_paths: int

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("steps must be at least 1")
        if self.repetitions < 2:
            raise ConfigError(
                "repetitions must be at least 2: a standard error needs two repetitions")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.eval_M < 1:
            raise ConfigError("eval_M must be at least 1")
        if self.lb_paths < 2:
            raise ConfigError("lb_paths must be at least 2: a standard error needs two paths")

    @property
    def maturity(self):
        """The last exercise date, steps * dt: the horizon the pricer steps, so the oracle's too."""
        return self.steps * self.params.dt

    @property
    def stages(self):
        """Read-only per-date view, ``(stage,) * steps``.

        Only ``layerbench/run.py`` reads it (``jobs_checks`` and the run
        record); ROADMAP item 1's benchmark change moves those reads to
        ``stage`` and deletes this view.
        """
        return (self.stage,) * self.steps


def default_lengthscale(d, payoff_kind):
    """Fixed default kernel lengthscale per payoff kind and dimension."""
    if payoff_kind == "max_call":
        return MAX_CALL_LENGTHSCALE
    return PUT_LENGTHSCALE_BASE * (max(d, 2) / 2.0) ** 0.25


def default_sample_sizes(d):
    """Stage sizes (n, M): n linear in d from 200 at d = 2 to 800 at d = 20, M = DEFAULT_INNER_M."""
    frac = (max(d, 2) - 2) / 18.0
    return int(round(200 + 600 * frac)), DEFAULT_INNER_M


def _plain(value):
    """``value`` as JSON data: dataclasses by their init fields, arrays as lists."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value) if f.init}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def config_hash(cfg):
    """First 16 hex digits of the SHA-256 of every setting of a RunConfig."""
    payload = json.dumps(_plain(cfg), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _parse_file(path):
    entries, first_line = {}, {}
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
            if key in entries:
                raise ConfigError(f"{path}:{lineno}: duplicate key '{key}', "
                                  f"first set on line {first_line[key]}")
            entries[key], first_line[key] = value, lineno
    return entries


def _floats(value):
    return [float(v) for v in value.split(",") if v.strip()]


def build_run_config(entries):
    """Assemble and validate a RunConfig from a flat key-value mapping.

    Each value is read as its ``str``, like a config file's text: 0.3 and
    "0.3" set the same field, and 40.7 for an integer field is an error.
    """
    entries = dict(entries)

    def take(key, default=..., cast=str):
        if key in entries:
            try:
                return cast(str(entries.pop(key)))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"field '{key}': {exc}") from exc
        if default is ...:
            raise ConfigError(f"missing required field '{key}'")
        return default

    d = take("market.d", cast=int)
    if d < 1:
        raise ConfigError("field 'market.d': need at least one asset")
    if d > MAX_DIM:
        raise ConfigError(f"field 'market.d': at most {MAX_DIM} assets, the dimensions "
                          f"of the Sobol points every continuation average uses")
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
    n = take("stage.n", n_default, int)
    M = take("stage.M", m_default, int)
    lam = take("stage.lambda", DEFAULT_LAMBDA, float)
    kernel = take("stage.lengthscale", KernelSpec(default_lengthscale(d, payoff_kind)),
                  lambda v: KernelSpec(lengthscale=float(v)))
    try:
        stage = StageConfig(n=n, M=M, lam=lam, kernel=kernel)
    except ValueError as exc:
        raise ConfigError(f"stage settings: {exc}") from exc

    cfg = RunConfig(
        params=params,
        payoff=payoff,
        steps=steps,
        stage=stage,
        seed=take("seed", 20260823, int),
        repetitions=take("repetitions", 10, int),
        eval_M=take("eval_M", DEFAULT_EVAL_M, int),
        lb_paths=take("lb_paths", 4000, int),
    )
    if entries:
        raise ConfigError(f"unknown field '{next(iter(entries))}'")
    return cfg


def load_config(path):
    return build_run_config(_parse_file(path))
