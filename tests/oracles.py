"""Independent reference computations for the tests.

Everything here is deliberately implemented from scratch (plain finite
differences, hand-written quadrature, closed-form flights) so the values
frozen into the tests do not share code with the package paths they
check.
"""

import math

import numpy as np

from hybridlag import State


def grad_central(fn, x, h=1e-6):
    """Gradient of scalar fn at vector x by central differences."""
    x = np.asarray(x, float)
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        g[i] = (fn(xp) - fn(xm)) / (2.0 * h)
    return g


def damped_flight(m, c, q0, v0, dt):
    """Closed-form flight for m*a = -c*v from (q0, v0) over dt."""
    q0 = np.asarray(q0, float)
    v0 = np.asarray(v0, float)
    if c == 0.0:
        return q0 + v0 * dt, v0.copy()
    decay = np.exp(-c * dt / m)
    return q0 + (m / c) * v0 * (1.0 - decay), v0 * decay


def static_wall(radius_sq=1.0):
    """(wall, wall_rate) of the constant wall |q|^2 = radius_sq."""
    return (lambda t: radius_sq), (lambda t: 0.0)


def cartesian_to_polar(s):
    """The State (x, y, xdot, ydot) in the polar chart: (r, theta, rdot,
    thetadot), for r > 0."""
    x, y = s.q
    xd, yd = s.v
    r = math.hypot(x, y)
    return State(s.t, np.array([r, math.atan2(y, x)]),
                 np.array([(x * xd + y * yd) / r,
                           (x * yd - y * xd) / (r * r)]))


def simpson(fn, a, b, n=200):
    """Composite Simpson with n panels (2n+1 evaluations)."""
    xs = np.linspace(a, b, 2 * n + 1)
    ys = np.array([fn(x) for x in xs])
    h = (b - a) / (2 * n)
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum()
                      + 2.0 * ys[2:-2:2].sum())


# Frozen reference values for the bundled scenarios, computed with an
# independently written closed-form marching oracle (flights plus scalar
# root refinement on |q(t)|^2 - f(t)); see the package-independent
# prototype used to pin them. Counts are exact; times to ~1e-11.
C025_FIRST_IMPACT = 0.14380535993411
C025_IMPACT_COUNT = 41
C010_IMPACT_COUNT = 99
WALL_COLLAPSE_TIME = 6.931471805599453  # 10 ln 2, where the default wall closes


# The damping clock. Under sigma = (m/c)(1 - exp(-c t/m)) (sigma = t at
# c = 0) the damped Lagrangian exp(ct/m) m|v|^2/2 becomes m|q_sigma|^2/2,
# with q_sigma = exp(ct/m) v, so a damped billiard in the wall f(t) is
# an undamped one in the wall f(sigma). Where f = a sigma^2 + b sigma
# + c0, with s = sqrt(f), s_sigma = f'(sigma) / 2s and
# kappa = b^2/4 - a c0,
#     I = |s q_sigma - s_sigma q|^2 - kappa |q|^2 / f
# is constant along every flight and across every impact (the reset
# flips the wall-normal part of s q_sigma - s_sigma q). In the polar
# chart, with mu = exp(ct/m) m r^2 thetadot the cyclic momentum,
#     I = (s r_sigma - s_sigma r)^2 + f mu^2 / (m^2 r^2) - kappa r^2 / f.
# Lewis & Riesenfeld, J. Math. Phys. 10 (1969); Berry & Klein (1984).

def damping_clock(m, c, t):
    """sigma(t) = (m/c)(1 - exp(-c t/m)), and sigma = t at c = 0. It is
    taken as -(m/c) expm1(-c t/m), which keeps full relative precision
    where c t/m is small (1 - exp cancels to 0 below c t/m ~ 1e-16)."""
    if c == 0.0:
        return t
    return -(m / c) * np.expm1(-c * t / m)


def clock_quadratic_wall(a, b, c0, m, c):
    """(wall, wall_rate) of the wall f = a sigma^2 + b sigma + c0 in the
    damping clock, as functions of t; the rate is
    (2 a sigma + b) exp(-c t/m)."""
    def wall(t):
        s = damping_clock(m, c, t)
        return a * s * s + b * s + c0

    def wall_rate(t):
        return (2.0 * a * damping_clock(m, c, t) + b) * math.exp(-c * t / m)

    return wall, wall_rate


def _clock_wall_terms(a, b, c0, m, c, t):
    """f, s, s_sigma, kappa and exp(ct/m) at times t."""
    sigma = damping_clock(m, c, t)
    f = a * sigma * sigma + b * sigma + c0
    s = np.sqrt(f)
    return f, s, (2.0 * a * sigma + b) / (2.0 * s), b * b / 4.0 - a * c0, \
        np.exp(c * t / m)


def clock_invariant_cartesian(a, b, c0, m, c, t, q, v):
    """I at times t (k,) of Cartesian positions and velocities q, v, each
    (2, k) columns."""
    f, s, s_sigma, kappa, grow = _clock_wall_terms(a, b, c0, m, c, t)
    w = s * grow * v - s_sigma * q
    return np.sum(w * w, axis=0) - kappa * np.sum(q * q, axis=0) / f


def clock_invariant_radial(a, b, c0, m, c, t, r, rdot, mu):
    """I at times t (k,) of radii r and radial rates rdot (k,) at the
    cyclic momentum mu, in the polar or the reduced chart."""
    f, s, s_sigma, kappa, grow = _clock_wall_terms(a, b, c0, m, c, t)
    w = s * grow * rdot - s_sigma * r
    return w * w + f * mu * mu / (m * m * r * r) - kappa * r * r / f
