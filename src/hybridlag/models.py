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

MODEL_IDS = ("billiard-cartesian", "billiard-polar", "free-particle",
             "harmonic-1d")
SCENARIO_IDS = ("paper-c025", "paper-c010")


@dataclass(frozen=True)
class ModelBundle:
    model_id: str
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
        acceleration=lambda t, q, v: np.zeros(2),
        coordinate_names=("x", "y"))


def harmonic_1d() -> LagrangianSystem:
    """Unit-frequency oscillator, L = v^2 / 2 - q^2 / 2."""
    return LagrangianSystem(
        dim=1,
        lagrangian=lambda t, q, v: 0.5 * float(v @ v) - 0.5 * float(q @ q),
        dL_dq=lambda t, q, v: -q.copy(),
        dL_dv=lambda t, q, v: v.copy(),
        acceleration=lambda t, q, v: -q.copy(),
        coordinate_names=("q",))


def build_model(model_id: str,
                params: Optional[billiard.BilliardParams] = None) -> ModelBundle:
    """Instantiate a built-in model; `params` applies to the billiards."""
    p = params or billiard.BilliardParams()
    if model_id == "billiard-cartesian":
        hs = billiard.cartesian_hybrid(p)
        start = billiard.get_scenario("paper-c025").initial_cartesian
        return ModelBundle(model_id, hs.system, hs, default_initial=start)
    if model_id == "billiard-polar":
        hs = billiard.polar_hybrid(p)
        cyc = billiard.polar_cyclic(p)
        start = billiard.get_scenario("paper-c025").initial_polar
        return ModelBundle(model_id, hs.system, hs, cyclic=cyc,
                           default_initial=start)
    if model_id == "free-particle":
        sys = free_particle()
        hs = _inert_hybrid(sys)
        return ModelBundle(model_id, sys, hs,
                           default_initial=State(0.0, np.zeros(2),
                                                 np.array([1.0, 0.0])))
    if model_id == "harmonic-1d":
        sys = harmonic_1d()
        hs = _inert_hybrid(sys)
        return ModelBundle(model_id, sys, hs,
                           default_initial=State(0.0, np.array([1.0]),
                                                 np.zeros(1)))
    raise KeyError(f"unknown model id {model_id!r}")
