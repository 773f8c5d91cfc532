"""Greedy sparse approximation in finite-dimensional lp spaces.

Public surface: space geometry (lp_space with its power-type smoothness
constants, norms, norming functionals), dictionary construction and target
generation, greedy runs (exact, or approximate under an error schedule),
diagnostics over run reports, and the CLI entry point in
:mod:`lpgreedy.harness`.
"""

from .algorithms import (ALGORITHM_IDS, AWBGA_IDS, IterationRecord,
                         RunReport, WeaknessSchedule, run_greedy)
from .diagnostics import (BOUND_IDS, AuditReport, BoundSpec, audit_conditions,
                          bound_curve, error_reduction_margins, rate_bound,
                          verify_rates)
from .dictionary import (Dictionary, Target, TargetSpec, build_dictionary,
                         greedy_select, make_target)
from .perturbation import (ErrorSchedule, SequenceSpec, derived_eps_bound,
                           perturbed_functional, relaxed_minimize, run_awbga)
from .solvers import (ProjectionResult, bracket_minimum, chebyshev_project,
                      line_search, minimize_2d)
from .space import (Element, LpSpace, dict_dual_norm, lp_space, norm,
                    norming_functional)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHM_IDS", "AWBGA_IDS", "BOUND_IDS", "AuditReport", "BoundSpec",
    "Dictionary", "Element", "ErrorSchedule", "IterationRecord", "LpSpace",
    "ProjectionResult", "RunReport", "SequenceSpec", "Target",
    "TargetSpec", "WeaknessSchedule",
    "audit_conditions", "bound_curve",
    "bracket_minimum", "build_dictionary", "chebyshev_project",
    "derived_eps_bound", "dict_dual_norm",
    "error_reduction_margins", "greedy_select", "line_search", "lp_space",
    "make_target", "minimize_2d", "norm", "norming_functional",
    "perturbed_functional", "rate_bound", "relaxed_minimize", "run_awbga",
    "run_greedy", "verify_rates",
]
