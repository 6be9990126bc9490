"""Decentralized robust MPC for interval type-2 T-S fuzzy large-scale systems.

The toolkit covers the full loop: membership families and coupled fuzzy
plants, block feasibility conditions with certified margins, offline gain
synthesis with online set-size minimization, closed-loop simulation with
invariance/dissipation diagnostics, and a JSON/CSV/CLI surface with bundled
example configurations.
"""

from .configio import (ConfigError, SystemConfig, bundled_config_names,
                       load_bundled_config, load_certificate, load_config,
                       save_certificate, save_config)
from .lmis import DecisionVars, FixedParams
from .membership import IT2MembershipFamily, ResidualMF, SigmoidMF
from .plant import LargeScaleSystem, Rule, Subsystem, step_closed_loop
from .simulation import (DisturbanceModel, InitialInfeasible,
                         RecursiveFeasibilityViolation, SimulationTrace,
                         iss_check, rpi_monte_carlo, run_online_loop)
from .synthesis import (Infeasible, SynthesisConfig, SynthesisResult,
                        minimize_xi, solve_fixed_xi, verify_certificate)
from .tracefile import read_trace, write_trace

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DecisionVars", "DisturbanceModel", "FixedParams",
    "IT2MembershipFamily", "Infeasible", "InitialInfeasible",
    "LargeScaleSystem", "RecursiveFeasibilityViolation", "ResidualMF",
    "Rule", "SigmoidMF", "SimulationTrace", "Subsystem", "SynthesisConfig",
    "SynthesisResult", "SystemConfig", "bundled_config_names",
    "iss_check", "load_bundled_config", "load_certificate", "load_config",
    "minimize_xi", "read_trace", "rpi_monte_carlo", "run_online_loop",
    "save_certificate", "save_config", "solve_fixed_xi", "step_closed_loop",
    "verify_certificate", "write_trace",
]
