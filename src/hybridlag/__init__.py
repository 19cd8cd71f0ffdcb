"""hybridlag: time-dependent hybrid Lagrangian systems.

Continuous dynamics generated by a time-dependent Lagrangian, executed
through guard-triggered resets into hybrid flows, with cyclic-coordinate
reduction, reconstruction, and momentum resequencing on top. Includes a
moving-wall billiard with a closed-form reference solution and a small
CLI for reproducible runs.
"""

from .billiard import (BilliardParams, PaperScenario, cartesian_hybrid,
                       cartesian_system, get_scenario, guard_cartesian,
                       guard_polar, paper_scenarios, polar_cyclic,
                       polar_hybrid, polar_system, polar_to_cartesian,
                       reference_flow, reset_cartesian, reset_polar,
                       routhian_closed)
from .errors import (ChartSingularity, HybridLagError, IntegrationFailure,
                     InvalidReset, InvalidStart, NoConvergence, NotInvariant,
                     ParseError, SingularHessian, WeightOverflow)
from .hybrid import (Arc, Event, Guard, HybridEquivalenceReport,
                     HybridFlow, HybridSystem, ResetMap,
                     check_flow_equivalence, check_hybrid_equivalence,
                     simulate)
from .lagrangian import CoState, LagrangianSystem, State
from .models import MODEL_IDS, SCENARIO_IDS, ModelBundle, build_model
from .reduction import (CyclicStructure, ReconstructedFlow,
                        ReducedHybridSystem, momentum_map, project,
                        reconstruct, reduce, routhian, simulate_resequenced)

__version__ = "0.1.0"

__all__ = [
    "Arc", "BilliardParams", "ChartSingularity", "CoState",
    "CyclicStructure", "Event", "Guard", "HybridEquivalenceReport",
    "HybridFlow", "HybridLagError", "HybridSystem", "IntegrationFailure",
    "InvalidReset", "InvalidStart", "LagrangianSystem", "MODEL_IDS",
    "ModelBundle", "NoConvergence", "NotInvariant", "PaperScenario",
    "ParseError", "ReconstructedFlow", "ReducedHybridSystem", "ResetMap",
    "SCENARIO_IDS", "SingularHessian", "State", "WeightOverflow",
    "build_model", "cartesian_hybrid", "cartesian_system",
    "check_flow_equivalence", "check_hybrid_equivalence", "get_scenario",
    "guard_cartesian", "guard_polar", "momentum_map", "paper_scenarios",
    "polar_cyclic", "polar_hybrid", "polar_system", "polar_to_cartesian",
    "project", "reconstruct", "reduce", "reference_flow", "reset_cartesian",
    "reset_polar", "routhian", "routhian_closed", "simulate",
    "simulate_resequenced",
]
