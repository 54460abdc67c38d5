"""ambigil: exact numerics for independent sequences under distributional ambiguity.

Finite lattice models with explicit measure families; exact upper/lower
expectations and path-event capacities by backward induction against an
adapted adversary; closed-form exponential tail bounds with automated
domination checks; variance-uncertain normal tails; and desk-scale
iterated-logarithm experiments.
"""

from .bounds import (BoundInputs, DominationGrid, DominationReport, RateTable,
                     converse_rate_check, domination_case, fuk_nagaev_bound,
                     kolmogorov_bound, pi_gamma, simplified_bound,
                     verify_domination)
from .capacity import (BCProductReport, CapacityPair, MCResult, OutcomeFlagEvent,
                       bc_product_check, capacity_pair, choquet_integral,
                       event_from_config, lower_capacity,
                       mc_capacity_lower_bound, upper_capacity,
                       window_max_event)
from .engine import (DEFAULT_STATE_CAP, Automaton, ExpectationPair,
                     FullVectorPayoff, StateSpaceError, TerminalSumPayoff,
                     WindowEvent, evaluate_lower, evaluate_pair, evaluate_upper)
from .gnormal import (CLTBridgeResult, GNormalParams, clt_capacity, erfc,
                      gnormal_density, gnormal_lower_tail, gnormal_upper_tail,
                      std_normal_cdf, std_normal_density, step_gnormal_params)
from .lil import (ClusterRow, ConditionReport, ContinuityProbeResult,
                  LILUpperResult, MomentSeries, NormalizerSeries,
                  check_conditions, cluster_probe, conjecture_probe,
                  continuity_probe, cumulative_upper_second_moments,
                  lil_lower_experiment, lil_upper_experiment, normalizers)
from .model import (LatticeSupport, SequenceModel, StepAmbiguity,
                    make_rademacher_interval)

__version__ = "0.1.0"
