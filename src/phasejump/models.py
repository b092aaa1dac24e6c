"""Drive-model catalog: time-dependent fields for a driven two-level system.

A drive model bundles the diabatic half-splitting alpha(t), the coupling
magnitude V(t) >= 0 and a piecewise-constant coupling phase phi(t), together
with the list of times where any of them jumps.  Models are immutable and
sampling is pure, so they can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from scipy.integrate import quad

from .errors import InvalidArgumentError, QuadratureError

__all__ = [
    "FieldSample",
    "DriveModel",
    "ParabolicParams",
    "parabolic",
    "superparabolic",
    "phase_jump",
    "constant_detuning_pulse",
    "sample",
    "pulse_area",
]


@dataclass(frozen=True)
class FieldSample:
    """Instantaneous field values: half-splitting, coupling magnitude, phase."""

    alpha: float
    v: float
    phi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.v) and math.isfinite(self.phi)):
            raise InvalidArgumentError(f"non-finite field sample {self}")
        if self.v < 0.0:
            raise InvalidArgumentError(f"coupling magnitude must be >= 0, got {self.v}")


@dataclass(frozen=True)
class DriveModel:
    """Time-dependent field specification.

    ``phi_fn`` must be piecewise constant, changing value only at times listed
    in ``discontinuities`` (as must any jump in ``v_fn``).  Sampling at a
    discontinuity returns the right-limit values.  ``alpha_dot_fn``/``v_dot_fn``
    are optional exact derivatives; when absent, consumers fall back to central
    finite differences.

    ``parity`` declares a time symmetry that lets a symmetric window be
    integrated over one half only: +1 means alpha and V are even and phi is
    identically 0; -1 means the same except that phi jumps from 0 to pi at
    t = 0; 0 (the default) claims nothing.  ``_check_parity`` tests a declared
    parity at probe times before a window is mirrored.
    """

    alpha_fn: Callable[[float], float]
    v_fn: Callable[[float], float]
    phi_fn: Callable[[float], float]
    discontinuities: tuple[float, ...] = ()
    label: str = ""
    alpha_dot_fn: Optional[Callable[[float], float]] = field(default=None, compare=False)
    v_dot_fn: Optional[Callable[[float], float]] = field(default=None, compare=False)
    parity: int = 0

    def __post_init__(self):
        if self.parity not in (-1, 0, 1):
            raise InvalidArgumentError(f"parity must be -1, 0 or 1, got {self.parity!r}")


# Positive probe times at which a declared parity is checked against -t.
_PARITY_PROBES = (0.1, 0.3, 0.5, 0.7, 1.0, 2.5, 10.0)


def _check_parity(model: DriveModel) -> None:
    """Raise InvalidArgumentError unless the fields show the declared parity.

    Probes fixed times t and -t, skipping discontinuities, where right-limit
    sampling breaks the symmetry.  Parity 0 claims nothing and always passes.
    """
    if not model.parity:
        return
    jump_phase = math.pi if model.parity < 0 else 0.0
    for t in _PARITY_PROBES:
        if t in model.discontinuities or -t in model.discontinuities:
            continue
        for fn in (model.alpha_fn, model.v_fn):
            try:
                x, y = fn(t), fn(-t)
            except OverflowError:
                # a steep power law leaves the float range: the probe shows nothing
                continue
            if abs(x - y) > 1e-12 * max(1.0, abs(x)):
                raise InvalidArgumentError(
                    f"parity {model.parity} declared, but a field is not even: "
                    f"{x!r} at t={t:g}, {y!r} at t={-t:g}"
                )
        if model.phi_fn(-t) != 0.0 or model.phi_fn(t) != jump_phase:
            raise InvalidArgumentError(
                f"parity {model.parity} declared, but phi is "
                f"{model.phi_fn(-t)!r} at t={-t:g} and {model.phi_fn(t)!r} at t={t:g}"
            )


def sample(model: DriveModel, t: float) -> FieldSample:
    """Evaluate the field at time ``t`` (right-limit at discontinuities)."""
    if not math.isfinite(t):
        raise InvalidArgumentError(f"non-finite sample time {t}")
    return FieldSample(model.alpha_fn(t), model.v_fn(t), model.phi_fn(t))


def _check_finite(**values: float) -> None:
    for name, x in values.items():
        if not math.isfinite(x):
            raise InvalidArgumentError(f"{name} must be finite, got {x}")


@dataclass(frozen=True)
class ParabolicParams:
    """Parameters of the parabolic family: alpha(t) = a t^(2n) - c, V(t) = b.

    ``n = 1`` is the parabolic model proper, where the curvature ``a`` is free;
    for n > 1 the curvature is fixed to 1.  ``c > 0`` gives a double crossing,
    ``c = 0`` level glancing, ``c < 0`` tunnelling.
    """

    b: float
    c: float
    a: float = 1.0
    n: int = 1

    def __post_init__(self):
        _check_finite(a=self.a, b=self.b, c=self.c)
        if self.a <= 0.0:
            raise InvalidArgumentError(f"curvature must be positive, got a={self.a}")
        if self.b < 0.0:
            raise InvalidArgumentError(f"coupling must be >= 0, got b={self.b}")
        if int(self.n) != self.n or self.n < 1:
            raise InvalidArgumentError(f"exponent index must be a positive integer, got n={self.n}")
        if self.n > 1 and self.a != 1.0:
            raise InvalidArgumentError("curvature is fixed to 1 for n > 1")


def parabolic(p: ParabolicParams) -> DriveModel:
    """Parabolic drive: alpha(t) = a t^2 - c, constant coupling b, phase 0."""
    if p.n != 1:
        raise InvalidArgumentError(f"parabolic() requires n=1, got n={p.n}")
    a, b, c = p.a, p.b, p.c
    return DriveModel(
        alpha_fn=lambda t: a * t * t - c,
        v_fn=lambda t: b,
        phi_fn=lambda t: 0.0,
        discontinuities=(),
        label=f"parabolic(a={a:g}, b={b:g}, c={c:g})",
        alpha_dot_fn=lambda t: 2.0 * a * t,
        v_dot_fn=lambda t: 0.0,
        parity=1,
    )


def superparabolic(p: ParabolicParams) -> DriveModel:
    """Superparabolic drive: alpha(t) = t^(2n) - c, constant coupling b."""
    if p.n == 1:
        return parabolic(p)
    b, c, n = p.b, p.c, p.n
    return DriveModel(
        alpha_fn=lambda t: t ** (2 * n) - c,
        v_fn=lambda t: b,
        phi_fn=lambda t: 0.0,
        discontinuities=(),
        label=f"superparabolic(n={n}, b={b:g}, c={c:g})",
        alpha_dot_fn=lambda t: 2 * n * t ** (2 * n - 1),
        v_dot_fn=lambda t: 0.0,
        parity=1,
    )


def constant_detuning_pulse(delta: float, amplitude: float, half_width: float) -> DriveModel:
    """Rectangular coupling pulse of the given amplitude at constant detuning.

    The coupling is on for -half_width <= t < half_width (half-open so that
    sampling at the trailing edge returns the right-limit value 0).
    """
    _check_finite(delta=delta, amplitude=amplitude, half_width=half_width)
    if amplitude < 0.0:
        raise InvalidArgumentError(f"amplitude must be >= 0, got {amplitude}")
    if half_width <= 0.0:
        raise InvalidArgumentError(f"half_width must be positive, got {half_width}")
    hw = float(half_width)
    return DriveModel(
        alpha_fn=lambda t: delta,
        v_fn=lambda t: amplitude if -hw <= t < hw else 0.0,
        phi_fn=lambda t: 0.0,
        discontinuities=(-hw, hw),
        label=f"const-detuning(delta={delta:g}, amplitude={amplitude:g}, half_width={hw:g})",
        alpha_dot_fn=lambda t: 0.0,
        parity=1,
    )


# Probe offsets used to verify a reference model has phase identically zero.
_PHASE_PROBES = (0.0, 0.5, -0.5, 1.0, -1.0, 2.5, -2.5, 10.0, -10.0)


def phase_jump(ref: DriveModel, t_jump: float = 0.0) -> DriveModel:
    """Zero-area variant of ``ref``: coupling phase jumps from 0 to pi at ``t_jump``.

    Keeps alpha and |V| pointwise; the sign flip of the signed coupling is
    represented as the phase step, so V stays >= 0.  A jump at t = 0 of an
    even (parity +1) reference has parity -1; any other variant has parity 0.
    """
    if not math.isfinite(t_jump):
        raise InvalidArgumentError(f"non-finite jump time {t_jump}")
    probes = [t_jump + dt for dt in _PHASE_PROBES]
    probes += [d + eps for d in ref.discontinuities for eps in (0.0, 1e-9)]
    if any(ref.phi_fn(t) != 0.0 for t in probes):
        raise InvalidArgumentError("phase_jump requires a reference model with phase identically 0")
    discs = tuple(sorted(set(ref.discontinuities) | {t_jump}))
    return replace(
        ref,
        phi_fn=lambda t: math.pi if t >= t_jump else 0.0,
        discontinuities=discs,
        label=f"{ref.label} + phase-jump(t={t_jump:g})",
        parity=-1 if ref.parity == 1 and t_jump == 0.0 else 0,
    )


def pulse_area(model: DriveModel, t0: float, t1: float) -> float:
    """Twice the time integral of the signed coupling V cos(phi) over [t0, t1]."""
    if t0 > t1:
        raise InvalidArgumentError(f"require t0 <= t1, got ({t0}, {t1})")
    if t0 == t1:
        return 0.0

    def signed_coupling(t):
        return model.v_fn(t) * math.cos(model.phi_fn(t))

    interior = sorted(d for d in model.discontinuities if t0 < d < t1)
    value, abserr = quad(
        signed_coupling,
        t0,
        t1,
        points=interior or None,
        epsabs=1e-12,
        epsrel=1e-10,
        limit=200,
    )
    if abserr > 1e-10 * max(1.0, abs(value)):
        raise QuadratureError(
            f"pulse area quadrature did not converge: value={value}, abserr={abserr}"
        )
    return 2.0 * value
