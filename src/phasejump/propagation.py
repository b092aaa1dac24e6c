"""Exact-per-step SU(2) propagation of the two-level Schrodinger equation.

Every integration step is a closed-form matrix exponential of a Hermitian
field combination, so each step is unitary to machine precision and the
composed propagator stays unitary structurally, not just to a tolerance.
The Hamiltonian is traceless, so every 2x2 the package composes is in SU(2),
[[a, b], [-b*, a*]], and is carried as its pair (a, b): the form itself is
exact, and only |a|^2 + |b|^2 = 1 can drift by rounding.  ``Unitary2``, with
its four entries, is built only where a matrix is returned.
Step size is controlled by step doubling against a local error tolerance,
and integration intervals are pre-split at model discontinuities so no
step ever samples across a phase jump.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .errors import ConvergenceError, InvalidArgumentError, WindowTooSmallError
from .models import DriveModel, FieldSample, _check_parity, sample

__all__ = [
    "Unitary2",
    "SimConfig",
    "su2_exp",
    "propagate",
    "transition_probability",
    "auto_window",
]

_IDENTITY = (1.0 + 0.0j, 0.0j)


@dataclass(frozen=True)
class Unitary2:
    """2x2 unitary, stored as its four entries (u11, u12, u21, u22).

    Every propagator the package returns is in SU(2), so its entries are
    (a, b, -b*, a*); a Unitary2 built from entries may be any unitary.
    """

    entries: tuple[complex, complex, complex, complex]

    def __post_init__(self):
        if len(self.entries) != 4:
            raise InvalidArgumentError("Unitary2 needs exactly four entries")
        if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in map(complex, self.entries)):
            raise InvalidArgumentError(f"non-finite entries {self.entries}")
        object.__setattr__(self, "entries", tuple(complex(z) for z in self.entries))

    @classmethod
    def identity(cls) -> "Unitary2":
        return _unitary(_IDENTITY)

    @classmethod
    def from_matrix(cls, m) -> "Unitary2":
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise InvalidArgumentError(f"expected a 2x2 matrix, got shape {m.shape}")
        return cls((m[0, 0], m[0, 1], m[1, 0], m[1, 1]))

    @property
    def matrix(self) -> np.ndarray:
        a, b, c, d = self.entries
        return np.array([[a, b], [c, d]], dtype=complex)

    def dagger(self) -> "Unitary2":
        a, b, c, d = self.entries
        return Unitary2((a.conjugate(), c.conjugate(), b.conjugate(), d.conjugate()))

    def __matmul__(self, other: "Unitary2") -> "Unitary2":
        if not isinstance(other, Unitary2):
            return NotImplemented
        return Unitary2.from_matrix(self.matrix @ other.matrix)

    def det(self) -> complex:
        a, b, c, d = self.entries
        return a * d - b * c

    def unitarity_defect(self) -> float:
        """Max-norm of U^dag U - I."""
        m = self.matrix
        return float(np.max(np.abs(m.conj().T @ m - np.eye(2))))


def _unitary(u) -> Unitary2:
    """The Unitary2 [[a, b], [-b*, a*]] of the pair u = (a, b)."""
    a, b = u
    # 0j - b* rather than -b*: a zero b gives 0j, not (-0+0j)
    return Unitary2((a, b, 0j - b.conjugate(), a.conjugate()))


@dataclass(frozen=True)
class SimConfig:
    """Integration window, local error tolerance and window scale factor.

    ``window_half_width`` of None means: choose the smallest half-width T with
    |alpha(+-T)| >= kappa * max(V(+-T), 1) and read the transition in the
    first superadiabatic basis at +-T, which for the parabolic family settles
    on the asymptotic value within about 3e-6 by kappa = 30.  An explicit ``window_half_width`` is read
    in the diabatic basis, whose populations still ripple by up to about 7e-3
    at kappa = 100, and must pass the same condition; WindowTooSmallError
    otherwise.  Models whose coupling is exactly zero at +-T (pulsed
    couplings) pass the condition regardless, since the populations are
    frozen there.

    ``window_scale_factor`` is kappa.  None means 30 for the automatic window
    and 100 for checking an explicit one; a value applies to both.
    """

    window_half_width: Optional[float] = None
    local_error_tol: float = 1e-10
    window_scale_factor: Optional[float] = None

    def __post_init__(self):
        if self.window_half_width is not None and not self.window_half_width > 0.0:
            raise InvalidArgumentError(f"window half-width must be positive, got {self.window_half_width}")
        if not self.local_error_tol > 0.0:
            raise InvalidArgumentError(f"local error tolerance must be positive, got {self.local_error_tol}")
        if self.window_scale_factor is not None and not self.window_scale_factor > 1.0:
            raise InvalidArgumentError(
                f"window scale factor must exceed 1, got {self.window_scale_factor}"
            )


# ---------------------------------------------------------------------------
# 2x2 kernel on SU(2) pairs
# ---------------------------------------------------------------------------

_sqrt = math.sqrt
_sin = math.sin
_cos = math.cos


def _mul(u, v):
    """Pair of the product U V of the pairs u and v (scalars or numpy arrays)."""
    a1, b1 = u
    a2, b2 = v
    return (a1 * a2 - b1 * b2.conjugate(), a1 * b2 + b1 * a2.conjugate())


def _exp_field(hx, hy, hz, dt):
    """Pair of exp(-i dt (hx sx + hy sy + hz sz)), in closed form."""
    om = _sqrt(hx * hx + hy * hy + hz * hz)
    if om == 0.0 or dt == 0.0:
        return _IDENTITY
    ph = om * dt
    s = _sin(ph) / om
    return complex(_cos(ph), -s * hz), complex(-s * hy, -s * hx)


def su2_exp(s: FieldSample, dt: float) -> Unitary2:
    """Closed-form exp(-i H dt) for the constant Hamiltonian defined by ``s``."""
    if not math.isfinite(dt):
        raise InvalidArgumentError(f"non-finite step {dt}")
    return _unitary(_exp_field(s.v * math.cos(s.phi), s.v * math.sin(s.phi), s.alpha, dt))


# fourth-order commutator-free coefficients (two Gauss nodes, two exponentials)
_SQRT3 = math.sqrt(3.0)
_CF4_NODE1 = 0.5 - _SQRT3 / 6.0
_CF4_NODE2 = 0.5 + _SQRT3 / 6.0
_CF4_W1 = 0.25 - _SQRT3 / 6.0
_CF4_W2 = 0.25 + _SQRT3 / 6.0
# global order, which sets the step-doubling error scale and the step growth
_CF4_ORDER = 4


def _make_trial_cf4(model, segment_phi):
    """Return trial(t, h) -> (fine_pair, raw_error, field_magnitude).

    The fine result composes two half steps; the raw error is the max entry
    difference between the single full step and the composed halves.  Only
    the pair's two differences are compared: the bottom row's equal them in
    magnitude exactly, since conj(x) conj(y) == conj(x y) in IEEE arithmetic.
    The field magnitude is the largest |H| seen at the full-step nodes, used
    by the controller to keep each step phase-resolved.

    The phase is constant on a discontinuity-free segment, so its cosine and
    sine are folded in once.
    """
    af, vf = model.alpha_fn, model.v_fn
    w1, w2, n1, n2 = _CF4_W1, _CF4_W2, _CF4_NODE1, _CF4_NODE2
    cp = _cos(segment_phi) if segment_phi != 0.0 else 1.0
    sp = _sin(segment_phi) if segment_phi != 0.0 else 0.0

    def one_step(t, h):
        # two Gauss-node fields combined into two exact exponentials
        t1 = t + n1 * h
        t2 = t + n2 * h
        v1 = vf(t1)
        v2 = vf(t2)
        z1 = af(t1)
        z2 = af(t2)
        va = w2 * v1 + w1 * v2
        vb = w1 * v1 + w2 * v2
        first = _exp_field(va * cp, va * sp, w2 * z1 + w1 * z2, h)
        second = _exp_field(vb * cp, vb * sp, w1 * z1 + w2 * z2, h)
        om = max(_sqrt(v1 * v1 + z1 * z1), _sqrt(v2 * v2 + z2 * z2))
        return _mul(second, first), om

    def trial(t, h):
        (ga, gb), om = one_step(t, h)
        half = 0.5 * h
        p, _ = one_step(t, half)
        q, _ = one_step(t + half, half)
        fine = _mul(q, p)
        return fine, max(abs(ga - fine[0]), abs(gb - fine[1])), om

    return trial


# Largest phase Omega*h a step may span.  The step-doubling error estimate is
# only trustworthy when the step resolves the oscillation; beyond a quarter
# period the full and halved steps can alias into accidental agreement.
_PHASE_CAP = 0.5 * math.pi

# Step-size bounds of the adaptive controller.
_MAX_STEP = 0.5
_MIN_STEP = 1e-12


def _integrate_segment(model, t0, t1, cfg, u0):
    """Adaptively integrate over (t0, t1) free of discontinuities; u0 composes on the right."""
    span = t1 - t0
    if span == 0.0:
        return u0
    # phi is piecewise constant with jumps only at discontinuities, and the
    # segment contains none, so one interior sample fixes it
    trial = _make_trial_cf4(model, model.phi_fn(t0 + 0.5 * span))
    direction = 1.0 if span > 0.0 else -1.0
    denom = float(2 ** _CF4_ORDER - 1)
    grow = 1.0 / (_CF4_ORDER + 1.0)
    tol = cfg.local_error_tol
    max_step, min_step = _MAX_STEP, _MIN_STEP
    u = u0
    t = t0
    h = direction * min(max_step, abs(span))
    try:
        while (t1 - t) * direction > 0.0:
            if (abs(h) >= abs(t1 - t)) or (abs(t1 - t) < min_step):
                h = t1 - t
            fine, err, om = trial(t, h)
            if om * abs(h) > _PHASE_CAP and abs(h) > min_step:
                if om * min_step > _PHASE_CAP:
                    raise ConvergenceError(
                        f"field magnitude {om:.3e} at t={t} needs steps below "
                        f"min_step={min_step} to stay phase-resolved"
                    )
                h = direction * max(min_step, 0.9 * _PHASE_CAP / om)
                continue
            err /= denom
            if err <= tol:
                u = _mul(fine, u)
                t = t + h
                if err > 0.0:
                    factor = 0.9 * (tol / err) ** grow
                    h_abs = abs(h) * min(5.0, max(0.2, factor))
                else:
                    h_abs = abs(h) * 5.0
                if om > 0.0:
                    # margin keeps the next step under the cap as the field grows
                    h_abs = min(h_abs, 0.95 * _PHASE_CAP / om)
                h = direction * min(max_step, h_abs)
            else:
                if not (math.isfinite(err) and math.isfinite(om)):
                    # shrinking cannot cure a field that is NaN or infinite here
                    raise ConvergenceError(
                        f"non-finite field or error estimate at t={t} "
                        f"(field magnitude {om!r}, local error estimate {err!r})",
                        achieved_error=err,
                    )
                shrink = 0.9 * (tol / err) ** grow
                h = h * min(0.9, max(0.1, shrink))
                if abs(h) < min_step:
                    raise ConvergenceError(
                        f"step underflow below min_step={min_step} at t={t} "
                        f"(local error estimate {err:.3e})",
                        achieved_error=err,
                    )
    except (OverflowError, ValueError) as exc:
        # a steep drive can leave the float range inside a trial: cos(inf) or t ** k
        raise ConvergenceError(f"field evaluation failed at t={t}: {exc}") from exc
    return u


def _integrate(model, t0, t1, cfg):
    """Pair of U(t1, t0), one adaptive run per discontinuity-free segment."""
    lo, hi = (t0, t1) if t0 <= t1 else (t1, t0)
    cuts = sorted(d for d in model.discontinuities if lo < d < hi)
    knots = [t0] + (cuts if t0 <= t1 else cuts[::-1]) + [t1]
    u = _IDENTITY
    for a, b in zip(knots[:-1], knots[1:]):
        u = _integrate_segment(model, a, b, cfg, u)
    return u


def _mirror(half, parity):
    """U(T, -T) = U+ S U+^T S of a drive with the given parity, from U+ = U(T, 0).

    S is 1 for parity +1 and sigma_z for parity -1; S U+^T S has the pair
    (a, -parity b*).
    """
    a, b = half
    return _mul(half, (a, -parity * b.conjugate()))


def propagate(
    model: DriveModel,
    t0: float,
    t1: float,
    cfg: SimConfig = SimConfig(),
) -> Unitary2:
    """Diabatic propagator U(t1, t0) by adaptive composition of exact SU(2) steps.

    Integration segments never straddle a model discontinuity: the interval is
    split at each listed discontinuity time first.  ``t1 < t0`` integrates
    backwards (negative steps), so propagate(m, a, b) @ propagate(m, b, a) is
    the identity up to the local tolerance.

    A symmetric window (t0 = -T, t1 = T > 0) of a model with declared parity
    is integrated over [0, T] only and mirrored: with U+ = U(T, 0) and S = 1
    for parity +1 or sigma_z for parity -1, U(T, -T) = U+ S U+^T S.  H is
    real, and the transpose of a CF4 step is the same step on the
    mirrored interval, so this is full-window integration with the mirrored
    step sequence, not an approximation.  A declared parity the fields do not
    show raises InvalidArgumentError; models with parity 0 are integrated over
    the whole window.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise InvalidArgumentError(f"non-finite interval ({t0}, {t1})")
    if model.parity and t0 == -t1 and t1 > 0.0:
        _check_parity(model)
        half = _integrate(model, 0.0, t1, cfg)
        return _unitary(_mirror(half, model.parity))
    return _unitary(_integrate(model, t0, t1, cfg))


# ---------------------------------------------------------------------------
# asymptotic window
# ---------------------------------------------------------------------------

# kappa when SimConfig.window_scale_factor is None.  The automatic window is
# read in the superadiabatic basis, which for the parabolic family is within
# about 3e-6 of its asymptotic value at kappa = 30; an explicit window is read
# in the diabatic basis and checked at kappa = 100.
_AUTO_KAPPA = 30.0
_CHECK_KAPPA = 100.0
# auto_window's search horizon and the probes per octave of its scan
_WINDOW_LIMIT = 1e6
_OCTAVE_PROBES = 96


def _alpha(model: DriveModel, t: float) -> float:
    """alpha(t), infinite where a steep drive leaves the float range."""
    try:
        return model.alpha_fn(t)
    except OverflowError:
        return math.inf


def _edge_ok(model: DriveModel, t: float, kappa: float) -> bool:
    for tt in (t, -t):
        v = model.v_fn(tt)
        if v == 0.0:
            continue
        if abs(_alpha(model, tt)) < kappa * (v if v > 1.0 else 1.0):
            return False
    return True


def _missed_minima(model: DriveModel, times, alphas, side: float, kappa: float):
    """Violating minima of |alpha(side * t)| that fall between probes.

    A minimum is bracketed where alpha changes sign between two probes (it is
    the root) or where |alpha| falls and rises again over three (it is found by
    a bounded search).  It is tested only when every probe of its bracket
    passes; otherwise a probe has already caught the violation.
    """
    def f(t):
        return _alpha(model, side * t)

    found = []
    for k, (a0, a1, a2) in enumerate(zip(alphas, alphas[1:], alphas[2:]), 1):
        crossing = (a1 < 0.0) != (a2 < 0.0)
        if crossing:
            i, j = k, k + 1
        elif (a0 < 0.0) == (a1 < 0.0) and abs(a0) > abs(a1) < abs(a2):
            i, j = k - 1, k + 1
        else:
            continue
        if not (math.isfinite(alphas[i]) and math.isfinite(alphas[j])):
            continue
        if not all(_edge_ok(model, t, kappa) for t in times[i:j + 1]):
            continue  # a probe has caught this violation already
        if crossing:
            t = brentq(f, times[i], times[j])
        else:
            t = minimize_scalar(lambda x: abs(f(x)), bounds=(times[i], times[j]),
                                method="bounded").x
        if not _edge_ok(model, t, kappa):
            found.append(t)
    return found


def _scan_octave(model: DriveModel, lo: float, hi: float, kappa: float):
    """Violating times in [lo, hi] and whether |alpha| is settled there.

    Settled means that no probe's |alpha| falls below the largest one before it
    in the octave; a decreasing |alpha| signals the approach to a well or
    crossing further out, so the scan must continue.  Comparing with the
    running maximum, not the neighbour, catches a deep well whose fall per
    probe is below the tolerance 1e-12 (1 + |alpha|) but whose fall across
    the octave is not.

    Besides the probes, a violation narrower than their spacing is found at the
    minimum of |alpha| it surrounds (``_missed_minima``).  Both checks watch
    alpha on both sides of t = 0, unless a declared parity makes it even.
    """
    dt = (hi - lo) / _OCTAVE_PROBES
    # one probe before lo, so that a minimum at lo is bracketed too
    times = [lo + k * dt for k in range(-1, _OCTAVE_PROBES + 1)]
    bad = [t for t in times[1:] if not _edge_ok(model, t, kappa)]
    settled = True
    for side in (1.0,) if model.parity else (1.0, -1.0):
        alphas = [_alpha(model, side * t) for t in times]
        if alphas[0] > 0.0 and alphas == sorted(alphas):
            continue  # positive and rising: settled, with no minimum of |alpha|
        mags = [abs(a) for a in alphas[1:]]
        peaks = itertools.accumulate(mags, max)
        if any(m1 < m0 - 1e-12 * (1.0 + m0) for m0, m1 in zip(peaks, mags[1:])):
            settled = False
        bad += _missed_minima(model, times, alphas, side, kappa)
    return bad, settled


def auto_window(model: DriveModel, kappa: float = _CHECK_KAPPA) -> float:
    """Smallest half-width T (>= 1) with |alpha(+-T)| >= kappa*max(V(+-T), 1).

    Scans outward octave by octave, tracking the last time the condition is
    violated, and stops only once the tail is clean, |alpha| has stopped
    decreasing, and the horizon is well past every recorded violation; a deep
    well (|alpha(0)| large) therefore cannot masquerade as an asymptotic edge,
    even when the crossings beyond it are narrower than the probe spacing.
    Raises WindowTooSmallError if no window exists below ``_WINDOW_LIMIT``.
    """
    last_bad = 0.0
    h = 1.0
    while h <= _WINDOW_LIMIT:
        bad, settled = _scan_octave(model, h, 2.0 * h, kappa)
        if bad:
            last_bad = max(bad)
        elif settled and h >= 4.0 * max(last_bad, 0.25):
            break
        h *= 2.0
    else:
        raise WindowTooSmallError(
            f"no asymptotic window below T={_WINDOW_LIMIT} for model {model.label!r}"
        )
    lo = max(last_bad, 1.0)
    hi = 2.0 * h
    if _edge_ok(model, lo, kappa):
        return lo
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if _edge_ok(model, mid, kappa):
            hi = mid
        else:
            lo = mid
    return hi


def _resolve_window(model: DriveModel, cfg: SimConfig = SimConfig()) -> float:
    """Half-width T of the window [-T, T] that ``transition_probability`` integrates.

    Uses cfg.window_half_width if set (validated against the asymptotic
    condition, WindowTooSmallError if it fails), otherwise the automatic window.
    kappa is cfg.window_scale_factor, or if that is None _AUTO_KAPPA for the
    automatic window and _CHECK_KAPPA for validating an explicit one.
    """
    kappa = cfg.window_scale_factor
    if cfg.window_half_width is None:
        return auto_window(model, _AUTO_KAPPA if kappa is None else kappa)
    if kappa is None:
        kappa = _CHECK_KAPPA
    t_half = cfg.window_half_width
    if not _edge_ok(model, t_half, kappa):
        required = auto_window(model, kappa)
        raise WindowTooSmallError(
            f"window half-width {t_half} does not reach the asymptotic regime; "
            f"need T >= {required:.6g}",
            required_half_width=required,
        )
    return t_half


def _rotation(theta: float, phi: float):
    """Pair of the rotation by theta whose first column is the +1 eigenstate
    of cos(theta) sz + sin(theta) (cos(phi) sx + sin(phi) sy)."""
    return _cos(0.5 * theta), -_sin(0.5 * theta) * cmath.exp(-1j * phi)


def _superadiabatic_basis(model: DriveModel, t: float):
    """Pair of the first superadiabatic basis at ``t``, excited state first.

    The adiabatic rotation R(theta0) turns H into E sz; in that frame the
    Hamiltonian R^dag H R - i R^dag dR/dt has gamma on the off-diagonal, with
    phase phi - pi/2, and a second rotation by atan(gamma/E) diagonalizes it.
    Each state is labelled by the diabatic state it tends to as |alpha| grows,
    so theta0 = atan(V/alpha) is near 0 on either side of a crossing.  Where
    V = 0 the basis is the diabatic one.  At a discontinuity time, where gamma
    is undefined, it is the adiabatic basis of the right-limit field.
    """
    if model.v_fn(t) == 0.0:
        return _IDENTITY
    from .adiabatic import adiabatic_sample, mixing_angle  # adiabatic imports this module

    if t in model.discontinuities:
        theta, beta = mixing_angle(sample(model, t)), 0.0
    else:
        s = adiabatic_sample(model, t)
        theta, beta = s.theta, math.atan(s.gamma / s.e_plus)
    if theta > 0.5 * math.pi:
        # alpha < 0: the excited-like state is the lower one, E = -e_plus
        theta, beta = theta - math.pi, -beta
    phi = model.phi_fn(t)
    return _mul(_rotation(theta, phi), _rotation(beta, phi - 0.5 * math.pi))


def _readout(u, model: DriveModel, t_half: float, superadiabatic: bool) -> float:
    """Transition probability from the ground state at -T to the excited state at T.

    ``u`` is the pair of U(T, -T).  With ``superadiabatic`` the states are
    those of ``_superadiabatic_basis`` at each edge, otherwise the diabatic
    ones.
    """
    if superadiabatic:
        a, b = _superadiabatic_basis(model, t_half)
        u = _mul((a.conjugate(), -b), _mul(u, _superadiabatic_basis(model, -t_half)))
    p = abs(u[1]) ** 2
    return min(max(p, 0.0), 1.0)


def transition_probability(model: DriveModel, cfg: SimConfig = SimConfig()) -> float:
    """Excited-state population after evolving the ground state across the window.

    The window is the one ``_resolve_window`` gives.  The automatic window is
    read in the first superadiabatic basis at its edges, which gives the
    asymptotic transition probability (for the parabolic family within about
    3e-6 at the default kappa = 30); an explicit ``cfg.window_half_width`` gives the diabatic
    population at +-T.
    """
    t_half = _resolve_window(model, cfg)
    u = propagate(model, -t_half, t_half, cfg)
    return _readout(u.entries[:2], model, t_half, cfg.window_half_width is None)
