import math

import numpy as np
import pytest

import hybridlag as hl
from hybridlag import hybrid

from conftest import sample_states
from oracles import grad_central

BILLIARD = hl.BilliardParams(c=0.25)


def mk_state(t, q, v):
    return hl.State(t, np.asarray(q, float), np.asarray(v, float))


def smooth_flow(sys, s0, t_end):
    """Hybrid run of `sys` under a guard that never triggers."""
    hs = hybrid._inert_hybrid(sys)
    flow = hl.simulate(hs, s0, t_end)
    assert not flow.events and flow.termination == "horizon_reached"
    return flow.arcs[0]


# ---------------------------------------------------------------------------
# evolution field
# ---------------------------------------------------------------------------

def test_evolution_field_billiard_drag():
    sys = hl.cartesian_system(BILLIARD)
    s = mk_state(0.0, [0.25, 0.5], [2.8, 1.8])
    dq, dv = sys.evolution_field(s)
    assert np.allclose(dq, [2.8, 1.8], atol=0)
    # hand EL: acceleration is -(c/m) v
    assert np.allclose(dv, [-0.7, -0.45], atol=1e-14)


def test_evolution_field_free_particle():
    sys = hl.build_model("free-particle").system
    _, dv = sys.evolution_field(mk_state(0.3, [5.0, -2.0], [1.0, 0.0]))
    assert np.allclose(dv, 0.0, atol=0)


def test_evolution_field_zero_dissipation():
    sys = hl.cartesian_system(hl.BilliardParams(c=0.0))
    _, dv = sys.evolution_field(mk_state(1.7, [0.1, 0.2], [2.8, 1.8]))
    assert np.allclose(dv, 0.0, atol=0)


def test_evolution_field_numeric_matches_closed_form(rng):
    # drop the closed-form acceleration: the finite-difference solve of
    # the Euler-Lagrange system must reproduce it
    import dataclasses
    closed = hl.cartesian_system(BILLIARD)
    numeric = dataclasses.replace(closed, acceleration=None)
    for s in sample_states(rng, "billiard-cartesian", 20):
        _, dv_c = closed.evolution_field(s)
        _, dv_n = numeric.evolution_field(s)
        assert np.allclose(dv_n, dv_c, atol=1e-7)


@pytest.mark.parametrize("model", ["polar", "cartesian", "routhian"])
def test_rhs_calls_closed_form_accelerations_bit_for_bit(model, rng):
    # rhs calls a closed-form acceleration directly, on lists of Python
    # floats, and the billiard's closed forms compute on those floats:
    # both must leave every bit of the field as it was on numpy scalars
    m, c, mu = BILLIARD.m, BILLIARD.c, 0.7
    sys = {"polar": hl.polar_system(BILLIARD),
           "cartesian": hl.cartesian_system(BILLIARD),
           "routhian": hl.routhian_closed(BILLIARD, mu)}[model]
    on_numpy_scalars = {
        "polar": lambda t, q, v: np.array(
            [q[0] * v[1]**2 - (c / m) * v[0],
             -2.0 * v[0] * v[1] / q[0] - (c / m) * v[1]]),
        "cartesian": lambda t, q, v: -(c / m) * v,
        "routhian": lambda t, q, v: np.array(
            [mu * mu * math.exp(-2.0 * c * t / m) / (m * m * q[0]**3)
             - (c / m) * v[0]]),
    }[model]
    model_id = "billiard-cartesian" if model == "cartesian" else \
        "billiard-polar"
    n = sys.dim
    for s in sample_states(rng, model_id, 200):
        q, v = s.q[:n], s.v[:n]
        y = np.concatenate([q, v])
        rhs = sys.rhs(s.t, y)
        # the step loop's call: a list in, a list of Python floats out
        from_list = sys.rhs(s.t, y.tolist())
        assert type(from_list) is list and len(from_list) == 2 * n
        assert all(type(x) is float for x in from_list)
        assert np.array_equal(from_list, rhs)
        acc = sys.acceleration(s.t, q.tolist(), v.tolist())
        assert type(acc) is list and len(acc) == n
        assert all(type(a) is float for a in acc)
        assert np.array_equal(acc, on_numpy_scalars(s.t, q, v))
        assert np.array_equal(
            rhs, np.concatenate([v, sys._accelerations(s.t, q, v)]))
        assert np.array_equal(rhs[n:], on_numpy_scalars(s.t, q, v))


def test_singular_hessian_detected():
    # L = v1^2/2 + v2^4/4: the velocity Hessian is diag(1, 3 v2^2),
    # whose pivot ratio blows past the bound as v2 -> 0
    sys = hl.LagrangianSystem(
        dim=2,
        lagrangian=lambda t, q, v: 0.5 * v[0]**2 + 0.25 * float(v[1]**4),
        dL_dq=lambda t, q, v: np.zeros(2),
        dL_dv=lambda t, q, v: np.array([v[0], v[1]**3]))
    with pytest.raises(hl.SingularHessian):
        sys.evolution_field(mk_state(0.0, [0.0, 0.0], [1.0, 0.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_hessian_is_singular(bad):
    # dL/dv_2 jumps to a non-finite value for v2 > 0, so the difference
    # column of the velocity Hessian is not finite: a typed SingularHessian,
    # not numpy's LinAlgError, from both solves of the Hessian
    sys = hl.LagrangianSystem(
        dim=2,
        lagrangian=lambda t, q, v: 0.5 * v[0]**2,
        dL_dq=lambda t, q, v: np.zeros(2),
        dL_dv=lambda t, q, v: np.array([v[0], bad if v[1] > 0 else 0.0]))
    with pytest.raises(hl.SingularHessian):
        sys.evolution_field(mk_state(0.0, [0.0, 0.0], [1.0, 0.0]))
    with pytest.raises(hl.SingularHessian):
        sys.inverse_legendre(hl.CoState(0.0, [0.0, 0.0], [1.0, 0.0]))


def test_hessian_solve_matches_scipy_lu_bit_for_bit():
    # the velocity-Hessian solve is numpy's gesv, scipy's reference is
    # getrf then getrs: the same partially pivoted LU, so a change of
    # either fails here instead of drifting the finite-difference runs
    from scipy.linalg import lu_factor, lu_solve

    rng = np.random.default_rng(20201)
    for _ in range(2000):
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((n, n))
        M = A + A.T  # symmetric, indefinite: the LU still pivots
        sys = hl.LagrangianSystem(
            dim=n, lagrangian=lambda t, q, v: 0.5 * v @ M @ v,
            dL_dq=lambda t, q, v: np.zeros(n), dL_dv=lambda t, q, v: M @ v)
        q, v, b = rng.standard_normal((3, n))
        ours = sys._solve_hessian(0.0, q, v, b)
        ref = lu_solve(lu_factor(sys.velocity_hessian(0.0, q, v)), b)
        assert ours.tobytes() == ref.tobytes(), (M, v, b)


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_billiard_initial():
    sys = hl.cartesian_system(BILLIARD)
    e = sys.energy(mk_state(0.0, [0.25, 0.5], [2.8, 1.8]))
    assert e == pytest.approx(5.54, abs=1e-12)


def test_energy_rest_state():
    sys = hl.build_model("free-particle").system
    assert sys.energy(mk_state(2.0, [3.0, 1.0], [0.0, 0.0])) == 0.0


def test_energy_mechanical_split():
    # L = v^2/2 - V(q) with V = 2 at the sample point: E = 1/2 + 2
    sys = hl.LagrangianSystem(
        dim=1,
        lagrangian=lambda t, q, v: 0.5 * v[0]**2 - (q[0]**2 + 1.0),
        dL_dq=lambda t, q, v: np.array([-2.0 * q[0]]),
        dL_dv=lambda t, q, v: np.array([v[0]]))
    e = sys.energy(mk_state(0.0, [1.0], [1.0]))
    assert e == pytest.approx(2.5, abs=1e-14)


# ---------------------------------------------------------------------------
# fiber derivative and its inverse
# ---------------------------------------------------------------------------

def test_legendre_initial_time_identity():
    sys = hl.cartesian_system(BILLIARD)
    cs = sys.legendre(mk_state(0.0, [0.25, 0.5], [2.8, 1.8]))
    assert np.allclose(cs.p, [2.8, 1.8], atol=0)


def test_legendre_exponential_weight():
    sys = hl.cartesian_system(BILLIARD)
    cs = sys.legendre(mk_state(4.0, [0.0, 0.0], [1.0, 0.0]))
    assert cs.p[0] == pytest.approx(math.e, rel=1e-15)
    assert cs.p[1] == 0.0


def test_legendre_zero_velocity():
    sys = hl.cartesian_system(BILLIARD)
    assert np.allclose(sys.legendre(mk_state(1.0, [1.0, 1.0], [0, 0])).p, 0.0)


def test_inverse_legendre_identity_mass():
    sys = hl.cartesian_system(hl.BilliardParams(c=0.0))
    s = sys.inverse_legendre(hl.CoState(0.0, np.zeros(2),
                                        np.array([2.8, 1.8])))
    assert np.allclose(s.v, [2.8, 1.8], atol=1e-13)


def test_inverse_legendre_exponential_weight():
    sys = hl.cartesian_system(BILLIARD)
    s = sys.inverse_legendre(hl.CoState(4.0, np.zeros(2),
                                        np.array([math.e, 0.0])))
    assert np.allclose(s.v, [1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("model_id", hl.MODEL_IDS)
def test_legendre_round_trip(model_id, rng):
    sys = hl.build_model(model_id).system
    for s in sample_states(rng, model_id, 100):
        back = sys.inverse_legendre(sys.legendre(s), v0=s.v + 0.05)
        assert np.max(np.abs(back.v - s.v)) <= 1e-10
        assert np.array_equal(back.q, s.q)


# ---------------------------------------------------------------------------
# momentum-side field
# ---------------------------------------------------------------------------

def test_hamiltonian_field_billiard():
    sys = hl.cartesian_system(BILLIARD)
    dq, dp = sys.hamiltonian_field(0.0, np.array([0.25, 0.5]),
                                   np.array([2.8, 1.8]))
    assert np.allclose(dq, [2.8, 1.8], atol=1e-12)
    assert np.allclose(dp, 0.0, atol=1e-15)


def test_hamiltonian_field_rest_point():
    sys = hl.build_model("free-particle").system
    dq, dp = sys.hamiltonian_field(0.0, np.zeros(2), np.zeros(2))
    assert np.allclose(dq, 0.0) and np.allclose(dp, 0.0)


def test_hamiltonian_field_harmonic():
    sys = hl.build_model("harmonic-1d").system
    dq, dp = sys.hamiltonian_field(0.0, np.array([1.0]), np.array([0.0]))
    assert dq[0] == pytest.approx(0.0, abs=1e-13)
    assert dp[0] == pytest.approx(-1.0, rel=1e-13)


# ---------------------------------------------------------------------------
# derivative consistency against plain finite differences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model_id", hl.MODEL_IDS)
def test_derivative_consistency(model_id, rng):
    sys = hl.build_model(model_id).system
    states = sample_states(rng, model_id, 100)
    assert sys.derivative_consistency(states) <= 1e-6
    # spot-check one state against an independently written gradient
    s = states[0]
    g_fd = grad_central(lambda v: sys.lagrangian(s.t, s.q, v), s.v)
    assert np.allclose(g_fd, sys.dL_dv(s.t, s.q, s.v), atol=1e-6)


# ---------------------------------------------------------------------------
# flow equivalence of the two evolution fields
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model_id", hl.MODEL_IDS)
def test_flow_equivalence_unit_horizon(model_id):
    bundle = hl.build_model(model_id)
    s0 = bundle.default_initial
    rep = hl.check_flow_equivalence(bundle.system, s0, s0.t + 1.0)
    assert rep.passed, str(rep)


def test_flow_equivalence_empty_horizon():
    bundle = hl.build_model("harmonic-1d")
    rep = hl.check_flow_equivalence(bundle.system, bundle.default_initial,
                                    bundle.default_initial.t)
    assert rep.passed and rep.max_discrepancy == 0.0


def test_flow_equivalence_harmonic_period():
    bundle = hl.build_model("harmonic-1d")
    rep = hl.check_flow_equivalence(bundle.system, bundle.default_initial,
                                    2.0 * math.pi)
    assert rep.passed, str(rep)


# ---------------------------------------------------------------------------
# residuals along integrated arcs
# ---------------------------------------------------------------------------

def test_euler_lagrange_residual_along_arc():
    sys = hl.cartesian_system(BILLIARD)
    s0 = mk_state(0.0, [0.25, 0.5], [2.8, 1.8])
    sol = smooth_flow(sys, s0, 1.0)
    h = 1e-5
    for t in np.linspace(0.05, 0.95, 19):
        def p_of(tt):
            y = sol(tt)
            return sys.dL_dv(tt, y[:2], y[2:])
        dp_dt = (p_of(t + h) - p_of(t - h)) / (2.0 * h)
        y = sol(t)
        resid = dp_dt - sys.dL_dq(t, y[:2], y[2:])
        assert np.max(np.abs(resid)) <= 1e-9


def test_energy_rate_matches_time_partial():
    # dE/dt along the flow equals -dL/dt at the moving state
    sys = hl.cartesian_system(BILLIARD)
    s0 = mk_state(0.0, [0.25, 0.5], [2.8, 1.8])
    sol = smooth_flow(sys, s0, 1.0)
    h = 1e-5
    for t in np.linspace(0.05, 0.95, 10):
        def e_of(tt):
            y = sol(tt)
            return sys.energy(hl.State(tt, y[:2], y[2:]))
        de = (e_of(t + h) - e_of(t - h)) / (2.0 * h)
        y = sol(t)
        dl_dt = (sys.lagrangian(t + h, y[:2], y[2:])
                 - sys.lagrangian(t - h, y[:2], y[2:])) / (2.0 * h)
        assert de == pytest.approx(-dl_dt, abs=1e-6)


def test_energy_conserved_time_independent():
    bundle = hl.build_model("harmonic-1d")
    sys = bundle.system
    s0 = bundle.default_initial
    sol = smooth_flow(sys, s0, 2.0 * math.pi)
    e0 = sys.energy(s0)
    for t in np.linspace(0.0, 2.0 * math.pi, 25):
        y = sol(t)
        assert sys.energy(hl.State(t, y[:1], y[1:])) == pytest.approx(
            e0, abs=1e-9)
