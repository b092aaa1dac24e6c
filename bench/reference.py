"""Independent references the benchmark checks the program's outputs against.

Nothing here imports the package under test.  The propagator is a fixed
(non-adaptive) fourth-order Magnus integrator with the commutator term, which
is a different method from the package's adaptive commutator-free steps.  Its
mesh is graded so that every step spans a phase of at most ``eta`` radians,
and the step matrices are multiplied together as numpy arrays.  The window
extends to |alpha| >= REFERENCE_KAPPA * max(V, 1), twice the package's default
asymptotic condition, and the transition is read between the instantaneous
eigenstates at the window edges (the adiabatic basis), where the populations
are frozen to within (V / alpha)^3.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm
from scipy.special import loggamma

REFERENCE_KAPPA = 200.0
DEFAULT_ETA = 0.1
MAX_STEP = 0.05

_SQRT3_6 = math.sqrt(3.0) / 6.0


def ref_window(a: float, b: float, c: float, n: int) -> float:
    """Half-width where alpha = a t^(2n) - c reaches REFERENCE_KAPPA * max(b, 1)."""
    return ((REFERENCE_KAPPA * max(b, 1.0) + c) / a) ** (1.0 / (2 * n))


def _fields(t, a, b, c, n, sign):
    """Pauli components (hx, hy, hz) of H = V cos(phi) sx + V sin(phi) sy + alpha sz."""
    alpha = a * t ** (2 * n) - c
    hx = np.full_like(t, sign * b)
    return hx, np.zeros_like(t), alpha


def _mesh(t0, t1, a, b, c, n, eta):
    """Nodes on [t0, t1] with each step spanning phase <= eta and length <= MAX_STEP."""
    aux = np.linspace(t0, t1, 20001)
    _, _, alpha = _fields(aux, a, b, c, n, 1.0)
    rate = np.maximum(np.sqrt(alpha * alpha + b * b) / eta, 1.0 / MAX_STEP)
    clock = np.concatenate(([0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(aux))))
    # the trapezoid under-resolves curvature a little; a margin keeps steps under eta
    steps = max(1, int(math.ceil(1.05 * clock[-1])))
    return np.interp(np.linspace(0.0, clock[-1], steps + 1), clock, aux)


def _magnus_steps(nodes, a, b, c, n, sign):
    """Component arrays (u11, u12, u21, u22) of every step's fourth-order Magnus exponential."""
    t = nodes[:-1]
    h = np.diff(nodes)
    x1, y1, z1 = _fields(t + (0.5 - _SQRT3_6) * h, a, b, c, n, sign)
    x2, y2, z2 = _fields(t + (0.5 + _SQRT3_6) * h, a, b, c, n, sign)
    # g = h/2 (h1 + h2) + sqrt(3)/6 h^2 (h2 x h1); the step is exp(-i g . sigma)
    k = _SQRT3_6 * h * h
    gx = 0.5 * h * (x1 + x2) + k * (y2 * z1 - z2 * y1)
    gy = 0.5 * h * (y1 + y2) + k * (z2 * x1 - x2 * z1)
    gz = 0.5 * h * (z1 + z2) + k * (x2 * y1 - y2 * x1)
    norm = np.sqrt(gx * gx + gy * gy + gz * gz)
    cs = np.cos(norm)
    sn = np.where(norm > 0.0, np.sin(norm) / np.where(norm > 0.0, norm, 1.0), 1.0)
    return (
        cs - 1j * sn * gz,
        -1j * sn * (gx - 1j * gy),
        -1j * sn * (gx + 1j * gy),
        cs + 1j * sn * gz,
    )


def _ordered_product(m):
    """Time-ordered product (latest on the left) of the component arrays ``m``."""
    m11, m12, m21, m22 = m
    while m11.size > 1:
        if m11.size % 2:
            pad = lambda x, v: np.concatenate((x, [v]))
            m11, m12, m21, m22 = pad(m11, 1.0), pad(m12, 0.0), pad(m21, 0.0), pad(m22, 1.0)
        # later step (odd index) times earlier step (even index)
        l11, l12, l21, l22 = m11[1::2], m12[1::2], m21[1::2], m22[1::2]
        r11, r12, r21, r22 = m11[0::2], m12[0::2], m21[0::2], m22[0::2]
        m11, m12, m21, m22 = (
            l11 * r11 + l12 * r21,
            l11 * r12 + l12 * r22,
            l21 * r11 + l22 * r21,
            l21 * r12 + l22 * r22,
        )
    return np.array([[m11[0], m12[0]], [m21[0], m22[0]]])


def _eigenvectors(hx, hz):
    """Upper and lower eigenvectors of hx sx + hz sz."""
    theta = math.atan2(abs(hx), hz)
    s = math.copysign(1.0, hx) if hx != 0.0 else 1.0
    up = np.array([math.cos(0.5 * theta), s * math.sin(0.5 * theta)])
    low = np.array([-s * math.sin(0.5 * theta), math.cos(0.5 * theta)])
    return up, low


def drive_propagator(a, b, c, n, phase_jump, t_half, eta=DEFAULT_ETA):
    """Diabatic propagator U(t_half, -t_half) of alpha = a t^(2n) - c, V = b.

    With ``phase_jump`` the coupling phase is pi for t >= 0.  The interval is
    always split at t = 0, so both halves are integrated the same way.
    """
    left = _ordered_product(_magnus_steps(_mesh(-t_half, 0.0, a, b, c, n, eta), a, b, c, n, 1.0))
    sign = -1.0 if phase_jump else 1.0
    right = _ordered_product(_magnus_steps(_mesh(0.0, t_half, a, b, c, n, eta), a, b, c, n, sign))
    return right @ left


def drive_probability(a, b, c, n=1, phase_jump=False, eta=DEFAULT_ETA):
    """Transition probability between adiabatic states at the reference window edges."""
    t_half = ref_window(a, b, c, n)
    u = drive_propagator(a, b, c, n, phase_jump, t_half, eta)
    alpha_edge = a * t_half ** (2 * n) - c
    _, low_start = _eigenvectors(b, alpha_edge)
    up_end, _ = _eigenvectors(-b if phase_jump else b, alpha_edge)
    return float(abs(up_end.conj() @ u @ low_start) ** 2)


def pulse_probability(delta, amplitude, half_width, phase_jump=False):
    """Rectangular pulse at constant detuning: two exact matrix exponentials."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    first = expm(-1j * half_width * (amplitude * sx + delta * sz))
    second_amp = -amplitude if phase_jump else amplitude
    second = expm(-1j * half_width * (second_amp * sx + delta * sz))
    return float(abs((second @ first)[0, 1]) ** 2)


def dynamical_phase(a, b, c):
    """2 * integral_0^sqrt(c/a) sqrt((a s^2 - c)^2 + b^2) ds for arrays of b.

    Composite Gauss-Legendre on panels graded geometrically toward the upper
    limit, where the integrand bends on the scale b / (2 sqrt(a c)).
    """
    b = np.asarray(b, dtype=float)
    upper = math.sqrt(c / a)
    nodes, weights = np.polynomial.legendre.leggauss(40)
    edges = upper * (1.0 - np.concatenate((0.5 ** np.arange(0, 40), [0.0])))
    total = np.zeros_like(b)
    for lo, hi in zip(edges[:-1], edges[1:]):
        s = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        d = a * s * s - c
        f = np.sqrt(d[None, :] ** 2 + b[:, None] ** 2)
        total += 0.5 * (hi - lo) * (f @ weights)
    return 2.0 * total


def stokes_phase(lam):
    """pi/4 + (lam/2)(ln(lam/2) - 1) + arg Gamma(1 - i lam/2), with scipy's log-gamma."""
    lam = np.asarray(lam, dtype=float)
    safe = np.where(lam > 0.0, lam, 1.0)
    middle = np.where(lam > 0.0, 0.5 * lam * (np.log(0.5 * safe) - 1.0), 0.0)
    return 0.25 * math.pi + middle + loggamma(1.0 - 0.5j * lam).imag


def ica_reference_probability(a, b, c):
    """4 R^2 (1 - R^2) sin^2(phi_dyn + phi_S) with R = exp(-pi lam / 2)."""
    b = np.asarray(b, dtype=float)
    lam = b * b / (2.0 * math.sqrt(a * c))
    r2 = np.exp(-math.pi * lam)
    return 4.0 * r2 * (1.0 - r2) * np.sin(dynamical_phase(a, b, c) + stokes_phase(lam)) ** 2


def phase_jump_gap_bound(a, b, c):
    """Bound on |P_ica_phase_jump - P_universal| that vanishes with R = exp(-pi lam / 2).

    The phase-jump composition is S core S with S = diag(t, t*) + R offdiag(-1, 1),
    |t|^2 = 1 - R^2; at R = 0 its off-diagonal magnitude is exactly the universal
    amplitude.  Each S differs from a diagonal unitary by at most R + R^2 in norm,
    so the amplitude moves by at most 2e + e^2 + R^2 with e = R + R^2, and the
    population by at most twice that.
    """
    b = np.asarray(b, dtype=float)
    r = np.exp(-0.5 * math.pi * b * b / (2.0 * math.sqrt(a * c)))
    e = r + r * r
    return 2.0 * (2.0 * e + e * e + r * r)
