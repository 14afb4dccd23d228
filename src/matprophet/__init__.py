"""Non-adaptive threshold rules for matroid prophet problems.

The centerpiece is a random-cut construction for graphic matroids that
guarantees a 1/32 fraction of the offline expectation with thresholds fixed
before any arrival; uniform and partition baselines with the classical 1/2
guarantee ride along, plus exact small-instance oracles and a Monte Carlo
engine for everything larger.
"""

from .baselines import (UniformThreshold, kuniform_opt_fraction_threshold,
                        kuniform_probabilistic_threshold, make_baseline,
                        partition_thresholds, samuel_cahn_threshold)
from .distributions import DiscreteDistribution
from .engine import (ArrivalOrder, FixedRuleAlgorithm, RatioSummary,
                     ThresholdRule, TrialReport, adversarial_order_search,
                     execute_online, expected_rule_value, expected_value_exact,
                     monte_carlo_ratio, safe_ratio)
from .errors import EnumerationCapError, VerificationError
from .graphic import (GraphicDerandomizedCut, GraphicRandomCut, Orientation,
                      blocking_probability, cut_bound_exact, cut_objective,
                      derandomize_cut, orient_low_indegree)
from .io import (LoadedInstance, bernoulli_to_dict, instance_to_dict,
                 load_instance, parse_instance, save_instance)
from .matroids import (GraphicMatroid, Matroid, PartitionMatroid,
                       UniformMatroid, scale)
from .reduction import (BernoulliInstance, ProphetInstance, ReductionResult,
                        ex_ante_reduce, prophet_value_exact, worst_case_order)

__version__ = "0.1.0"
