"""optstab: a desk-scale laboratory for the stability of first-order optimizers.

Measures uniform-stability gaps on coupled perturbed samples, evaluates the
matching closed-form stability/convergence/minimax bounds, verifies the
supporting two-point construction and matrix-product norm envelopes, and
reproduces the scaling experiments through a config-driven CLI.
"""

from .losses import (
    Dataset,
    LossConstants,
    LossSpec,
    ValidationError,
    empirical_risk,
    empirical_risk_grad,
    lecam_convex_spec,
    lecam_strongly_convex_spec,
    linear_worstcase_spec,
    logistic_spec,
    loss_constants,
    normalize_rows,
    quadratic_spec,
)
from .optimizers import (
    IterateTrace,
    OptimizerConfig,
    StepSchedule,
    fixed,
    power,
    run,
    step_size,
)

__version__ = "0.1.0"
