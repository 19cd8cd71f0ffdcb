"""Registry of built-in models and scenarios.

Models are constructed fresh on each lookup so callers can tweak
parameters without sharing state. Every bundle carries the bare
Lagrangian system plus a hybrid wrapper; models without a physical wall
get a never-triggering guard so the hybrid pipeline applies uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import billiard
from .hybrid import HybridSystem, _inert_hybrid
from .lagrangian import LagrangianSystem, State
from .reduction import CyclicStructure


@dataclass(frozen=True)
class ModelBundle:
    system: LagrangianSystem
    hybrid: HybridSystem
    cyclic: Optional[CyclicStructure] = None
    default_initial: Optional[State] = None


def free_particle() -> LagrangianSystem:
    """Planar free particle, L = |v|^2 / 2."""
    return LagrangianSystem(
        dim=2,
        lagrangian=lambda t, q, v: 0.5 * float(v @ v),
        dL_dq=lambda t, q, v: np.zeros(2),
        dL_dv=lambda t, q, v: v.copy(),
        acceleration=lambda t, q, v: [0.0, 0.0])


def harmonic_1d() -> LagrangianSystem:
    """Unit-frequency oscillator, L = v^2 / 2 - q^2 / 2."""
    return LagrangianSystem(
        dim=1,
        lagrangian=lambda t, q, v: 0.5 * float(v @ v) - 0.5 * float(q @ q),
        dL_dq=lambda t, q, v: -q.copy(),
        dL_dv=lambda t, q, v: v.copy(),
        acceleration=lambda t, q, v: [-x for x in q])


def _cartesian_billiard(p: billiard.BilliardParams):
    start = billiard.get_scenario("paper-c025").initial_cartesian
    return billiard.cartesian_hybrid(p), None, start


def _polar_billiard(p: billiard.BilliardParams):
    start = billiard.get_scenario("paper-c025").initial_polar
    return billiard.polar_hybrid(p), billiard.polar_cyclic(p), start


def _free_particle(p: billiard.BilliardParams):
    start = State(0.0, np.zeros(2), np.array([1.0, 0.0]))
    return _inert_hybrid(free_particle()), None, start


def _harmonic_1d(p: billiard.BilliardParams):
    start = State(0.0, np.array([1.0]), np.zeros(1))
    return _inert_hybrid(harmonic_1d()), None, start


# model id -> builder (params -> hybrid system, cyclic structure, default
# start); verify reports list the models in this order
_BUILDERS = {
    "billiard-cartesian": _cartesian_billiard,
    "billiard-polar": _polar_billiard,
    "free-particle": _free_particle,
    "harmonic-1d": _harmonic_1d,
}
MODEL_IDS = tuple(_BUILDERS)
SCENARIO_IDS = tuple(sc.scenario_id for sc in billiard.paper_scenarios())


def build_model(model_id: str,
                params: Optional[billiard.BilliardParams] = None) -> ModelBundle:
    """Instantiate a built-in model; `params` applies to the billiards."""
    if model_id not in _BUILDERS:
        raise KeyError(f"unknown model id {model_id!r}")
    hs, cyclic, start = _BUILDERS[model_id](params or billiard.BilliardParams())
    return ModelBundle(hs.system, hs, cyclic=cyclic, default_initial=start)
