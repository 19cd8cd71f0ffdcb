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


def test_system_needs_a_coordinate():
    free = hl.build_model("free-particle").system
    with pytest.raises(ValueError, match="dim must be a positive integer"):
        hl.LagrangianSystem(dim=0, lagrangian=free.lagrangian,
                            dL_dq=free.dL_dq, dL_dv=free.dL_dv)


class _Subclass(np.ndarray):
    pass


@pytest.mark.parametrize("value", [
    [0.5, -1.0], (2, 3), 4, 1.5, np.array(2.5), np.array([1, 2]),
    np.array([0.1, 0.2], np.float32), np.array([[1.0, 2.0], [3.0, 4.0]]),
    np.array([0.5, 0.25]).view(_Subclass), np.array([0.5], ">f8"),
    np.array([0.5, 0.25])[::-1], np.zeros((0,)),
], ids=["list", "tuple", "int", "float", "0-d", "int array",
        "float32 array", "2-D", "subclass", "big-endian", "strided",
        "empty"])
def test_state_converts_as_asarray_and_atleast_1d(value):
    # the fast path of State.__post_init__ keeps only what asarray and
    # atleast_1d return unchanged; everything else converts as before
    want = np.atleast_1d(np.asarray(value, float))
    both = hl.State(0.0, value, value)
    for q in (both.q, both.v, hl.State(0.0, value, [7.0]).q,
              hl.State(0.0, [7.0], value).v):
        assert type(q) is np.ndarray
        assert q.dtype == np.float64 and q.dtype.isnative
        assert q.shape == want.shape and np.array_equal(q, want)
        assert (q is value) == (want is value)


def test_state_keeps_1d_float64_arrays():
    q, v = np.array([0.5, 1.0]), np.array([-2.0, 3.0])
    s = hl.State(1.0, q, v)
    assert s.q is q and s.v is v
    y = np.array([0.5, 1.0, -2.0, 3.0])
    s = hl.State(1.0, y[:2], y[2:])
    assert s.q.base is y and s.v.base is y


# ---------------------------------------------------------------------------
# evolution field: rhs(t, y) = (v, a) on the packed state y = (q, v)
# ---------------------------------------------------------------------------

def test_evolution_field_billiard_drag():
    sys = hl.cartesian_system(BILLIARD)
    dy = sys.rhs(0.0, [0.25, 0.5, 2.8, 1.8])
    assert np.allclose(dy[:2], [2.8, 1.8], atol=0)
    # hand EL: acceleration is -(c/m) v
    assert np.allclose(dy[2:], [-0.7, -0.45], atol=1e-14)


def test_evolution_field_free_particle():
    sys = hl.build_model("free-particle").system
    dy = sys.rhs(0.3, [5.0, -2.0, 1.0, 0.0])
    assert np.allclose(dy[2:], 0.0, atol=0)


def test_evolution_field_zero_dissipation():
    sys = hl.cartesian_system(hl.BilliardParams(c=0.0))
    dy = sys.rhs(1.7, [0.1, 0.2, 2.8, 1.8])
    assert np.allclose(dy[2:], 0.0, atol=0)


def test_evolution_field_numeric_matches_closed_form(rng):
    # drop the closed-form field: the finite-difference solve of the
    # Euler-Lagrange system must reproduce its accelerations
    import dataclasses
    closed = hl.cartesian_system(BILLIARD)
    numeric = dataclasses.replace(closed, field=None)
    assert numeric.rhs == numeric._solved_field
    for s in sample_states(rng, "billiard-cartesian", 20):
        y = np.concatenate([s.q, s.v]).tolist()
        dv_c = closed.rhs(s.t, y)[2:]
        dv_n = numeric.rhs(s.t, y)[2:]
        assert np.allclose(dv_n, dv_c, atol=1e-7)


@pytest.mark.parametrize("model", ["polar", "cartesian", "routhian"])
def test_rhs_calls_closed_form_accelerations_bit_for_bit(model, rng):
    # rhs is the closed-form field itself, called on lists of Python
    # floats, and the billiard's closed forms compute on those floats:
    # they must leave every bit of the field as it was on numpy scalars
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
    assert sys.rhs is sys.field
    for s in sample_states(rng, model_id, 200):
        q, v = s.q[:n], s.v[:n]
        y = np.concatenate([q, v]).tolist()
        # the step loop's call: a list in, a list of Python floats out,
        # and the argument left as it was
        rhs = sys.rhs(s.t, y)
        assert y == np.concatenate([q, v]).tolist()
        assert type(rhs) is list and len(rhs) == 2 * n
        assert all(type(x) is float for x in rhs)
        assert np.array_equal(rhs[:n], v)
        assert np.array_equal(rhs[n:], on_numpy_scalars(s.t, q, v))


def test_rhs_is_the_closed_form_field_of_every_model(rng):
    # every model with a closed form hands its field itself to the step
    # loop; without one, rhs solves the Euler-Lagrange equations, which
    # reproduce the closed form's accelerations
    import dataclasses
    cyc = hl.polar_cyclic(BILLIARD)
    systems = {model_id: hl.build_model(model_id).system
               for model_id in hl.MODEL_IDS}
    systems["routhian"] = hl.routhian_closed(BILLIARD, 0.7)
    systems["reduced"] = hl.reduce(cyc, 0.7).shape.system
    for name, sys in systems.items():
        assert sys.field is not None and sys.rhs is sys.field, name
        numeric = dataclasses.replace(sys, field=None)
        assert numeric.rhs == numeric._solved_field, name
        model_id = name if name in hl.MODEL_IDS else "billiard-polar"
        for s in sample_states(rng, model_id, 5):
            q, v = s.q[:sys.dim], s.v[:sys.dim]
            y = np.concatenate([q, v])
            solved = numeric.rhs(s.t, y.tolist())
            assert isinstance(solved, list)
            assert np.array_equal(solved[:sys.dim], v)
            assert np.allclose(solved, sys.rhs(s.t, y.tolist()), rtol=1e-6,
                               atol=1e-7), name


def test_singular_hessian_detected():
    # L = v1^2/2 + v2^4/4: the velocity Hessian is diag(1, 3 v2^2),
    # whose pivot ratio blows past the bound as v2 -> 0
    sys = hl.LagrangianSystem(
        dim=2,
        lagrangian=lambda t, q, v: 0.5 * v[0]**2 + 0.25 * float(v[1]**4),
        dL_dq=lambda t, q, v: np.zeros(2),
        dL_dv=lambda t, q, v: np.array([v[0], v[1]**3]))
    assert sys.rhs == sys._solved_field
    with pytest.raises(hl.SingularHessian):
        sys.rhs(0.0, [0.0, 0.0, 1.0, 0.0])


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
        sys.rhs(0.0, [0.0, 0.0, 1.0, 0.0])
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


def test_inverse_legendre_newton_cycle_raises_no_convergence(monkeypatch):
    # L = v^4/4 - v^2 gives p = v^3 - 2v; Newton for p = -2 from v = 0
    # falls into the 2-cycle 0 -> 1 -> 0 (the Hessian 3v^2 - 2 is -2 and
    # then 1) and gives up after NEWTON_MAXITER steps
    sys = hl.LagrangianSystem(
        dim=1, lagrangian=lambda t, q, v: float(v @ v) ** 2 / 4.0
        - float(v @ v),
        dL_dq=lambda t, q, v: np.zeros(1),
        dL_dv=lambda t, q, v: v ** 3 - 2.0 * v)
    iterates = []
    solve = hl.LagrangianSystem._solve_hessian

    def traced(self, t, q, v, r):
        iterates.append(float(v[0]))
        return solve(self, t, q, v, r)

    monkeypatch.setattr(hl.LagrangianSystem, "_solve_hessian", traced)
    with pytest.raises(hl.NoConvergence, match="did not converge at t=0"):
        sys.inverse_legendre(hl.CoState(0.0, [0.0], [-2.0]), v0=[0.0])
    from hybridlag.lagrangian import NEWTON_MAXITER
    assert len(iterates) == NEWTON_MAXITER
    assert iterates[:2] == [0.0, pytest.approx(1.0)]
    assert iterates[-2:] == [pytest.approx(0.0, abs=1e-6),
                             pytest.approx(1.0)]


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
    assert rep.passed and rep.max_state_discrepancy == 0.0


def test_flow_equivalence_report_text():
    bundle = hl.build_model("free-particle")
    rep = hl.check_flow_equivalence(bundle.system, bundle.default_initial,
                                    1.0)
    assert str(rep) == ("hybrid equivalence: pass (state 0.000e+00/1.0e-06, "
                        "events 0==0, event dt 0.000e+00/1.0e-08)")


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
