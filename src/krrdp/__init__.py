"""Kernel ridge regression dynamic programming for Bermudan option pricing."""

from .bellman import (
    StageConfig,
    ValueFunctionStack,
    backward_pass,
    continuation,
    contraction_check,
    generate_stage_data,
    load_stack,
    policy_lower_bound,
    price_at_origin,
    save_stack,
    schedule_hyperparams,
)
from .config import (
    RunConfig,
    build_run_config,
    config_hash,
    default_lengthscale,
    default_sample_sizes,
    load_config,
)
from .dynamics import GbmParams, correlate, gbm_step, sample_mu_t, substream
from .experiments import (
    PricingResult,
    convergence_study,
    emit_results,
    mc_error_diagnostic,
    run_benchmark,
    select_lengthscale,
)
from .kernels import KernelSpec, KrrModel, gram_matrix, krr_fit, nystrom_fit
from .oracles import (
    Reduced1d,
    bs_price,
    crr_binomial_american,
    geometric_reduction,
    longstaff_schwartz,
)
from .payoffs import PayoffSpec

__version__ = "0.1.0"
