"""Simulation and verification lab for weighted time-dependent uniform
empirical processes on a time grid."""

__version__ = "0.1.0"

from .errors import ConfigError, DomainError, IndefiniteCovarianceError, WeplabError
from .weights import (IntegralEntry, WeightSpec, integral_condition, parse_weight,
                      validate_monotonicity)
from .models import (ProcessModel, TimeGrid, joint_cdf_matrix, level_kernel, map_path_blocks,
                     map_replications, parse_model, to_uniform)
from .limits import LimitModel, build_limit_model, limit_covariance, sample_limit_field
from .engine import evaluate_field_streaming
from .numerics import (bvn_cdf, ks_statistic_one_sample, ks_statistic_two_sample,
                       std_normal_cdf, std_normal_pdf, std_normal_quantile)
