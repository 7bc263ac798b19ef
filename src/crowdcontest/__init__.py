"""Numerical laboratory for timeliness-sensitive Tullock crowdsensing
contests: Nash and Bayesian-Nash equilibria, budget calibration, and
requester-efficiency optimization for closed (fixed-population) and open
(Poisson-arrival) systems.
"""

from .contest import (ContestConfig, EffortProfile, MechanismReport,
                      best_response, csf_reward, discrimination_gain_case2,
                      efficiency_identical, optimal_reward_vector, payoff,
                      report, solve_ne, symmetric_ne)
from .bayesian_closed import (BayesianConfig, ClosedPrior, EarliestN, LinearDecay,
                              Stage1Panel, StageOneReport, Termination, TypeGrid,
                              calibrate_b, calibrated_stage1, earliest_n_prob,
                              effort_upper_bound, participation_threshold,
                              solve_bne_earliest_n, solve_bne_linear,
                              solve_bne_termination, stage1_metrics_mc,
                              stage1_metrics_termination)
from .open_system import (PoissonPrior, calibrated_open_stage1, open_earliest_n_prob,
                          open_termination_conditional_eff,
                          open_termination_prob, solve_bne_open_earliest_n,
                          solve_bne_open_termination, stage1_open_earliest_n,
                          stage1_open_termination)
from .csf_analysis import (TwoPlayerResult, efficiency_vmax_beta_threshold,
                           exponent_discrim_ne, nature_efficiency,
                           nature_symmetric_ne, optimal_beta_gain,
                           reward_discrim_ne, weight_discrim_ne)
from .timing import (ConstantWeight, EmpiricalJoinTimes, ExponentialJoinTimes,
                     InversePowerWeight, JoinTimeModel, PoissonModel,
                     StepWeight, TableJoinTimes, TableWeight, UniformJoinTimes,
                     ingest_trace, ingest_trace_file, parse_trace_file,
                     poisson_pmf, sample_arrival_sequences)
from .numerics import bisect, golden_section_max, spawn_rng
from .experiments import sweep
from . import errors

__version__ = "0.1.0"
