"""The benchmark's workloads and the inputs each one generates from a seed.

Every workload is one standard acceptance row: the market and contract
below, with the package's default n, M, eval_M, lambda and lengthscale. The
market is written out here, not left to the package defaults, because the
reference prices are computed from these constants. The seed chooses only the
pricer's root seed, from which the per-repetition seeds, the x0 evaluation,
the lower bound's paths and the LSMC cross-check's paths all follow.
"""

from dataclasses import dataclass

import numpy as np

STRIKE = 100.0
X0 = 100.0
RATE = 0.05
SIGMA = 0.2
RHO = 0.2
MATURITY = 1.0
DATES = 9


@dataclass(frozen=True)
class Workload:
    name: str
    index: int
    d: int
    payoff: str
    jobs: int
    # Standard deviation of one repetition's price across seeds, measured on
    # this benchmark's own runs and rounded up. A run holds too few
    # repetitions (one on put_d10) to estimate it itself, so the standard
    # error of a run's mean price is price_sd / sqrt(repetitions).
    price_sd: float

    def root_seed(self, seed):
        """The pricer's root seed for benchmark seed ``seed``."""
        return int(np.random.SeedSequence([int(seed), self.index]).generate_state(1)[0])

    def entries(self, seed):
        """The flat config mapping handed to ``krrdp.config.build_run_config``."""
        return {
            "market.d": str(self.d),
            "contract.payoff": self.payoff,
            "contract.strike": repr(STRIKE),
            "contract.maturity": repr(MATURITY),
            "contract.steps": str(DATES),
            "market.x0": repr(X0),
            "market.r": repr(RATE),
            "market.sigma": repr(SIGMA),
            "market.rho": repr(RHO),
            "seed": str(self.root_seed(seed)),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("put_d10", 0, 10, "geo_basket_put", jobs=1, price_sd=0.03),
        Workload("call_d2", 1, 2, "max_call", jobs=1, price_sd=0.15),
        Workload("put_d5_jobs2", 2, 5, "geo_basket_put", jobs=2, price_sd=0.03),
    )
}
