"""Exercise payoffs of the stopping problem."""

import math
from dataclasses import dataclass

import numpy as np

MAX_CALL = "max_call"
GEO_BASKET_PUT = "geo_basket_put"
PAYOFF_KINDS = (MAX_CALL, GEO_BASKET_PUT)


@dataclass(frozen=True)
class PayoffSpec:
    kind: str
    strike: float

    def __post_init__(self):
        if self.kind not in PAYOFF_KINDS:
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        if not 0 < self.strike < math.inf:
            raise ValueError("strike must be positive and finite")


def payoff_batch(spec, X):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"a batch of states must be an (n, d) matrix, got shape {X.shape}")
    if spec.kind == MAX_CALL:
        return np.maximum(X.max(axis=1) - spec.strike, 0.0)
    gmean = np.exp(np.mean(np.log(X), axis=1))
    return np.maximum(spec.strike - gmean, 0.0)

