"""Instantaneous-eigenbasis machinery for the driven two-level system.

The mixing angle theta = atan2(V, alpha) (V >= 0, so theta in [0, pi])
parameterizes the rotation whose columns are the instantaneous eigenstates.
With eigenvector columns, the eigenbasis coefficients of a diabatic state are
psi_A = R^dag psi_D, so propagators connect as

    U_A(t, t0) = R^dag(t) U_D(t, t0) R(t0),

and the adiabatic-frame Hamiltonian has the energies +-sqrt(alpha^2 + V^2) on
the diagonal and the non-adiabatic coupling gamma = theta_dot / 2 off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateFieldError, InvalidArgumentError
from .models import DriveModel, FieldSample, sample
from .propagation import Unitary2, _rotation, _unitary

__all__ = [
    "AdiabaticSample",
    "mixing_angle",
    "rotation",
    "adiabatic_sample",
]


@dataclass(frozen=True)
class AdiabaticSample:
    """Instantaneous eigenvalues, non-adiabatic coupling and mixing angle."""

    e_plus: float
    e_minus: float
    gamma: float
    theta: float


def mixing_angle(s: FieldSample) -> float:
    """theta = atan2(V, alpha) in [0, pi]; continuous through crossings."""
    if s.alpha == 0.0 and s.v == 0.0:
        raise DegenerateFieldError("mixing angle undefined for a vanishing field")
    return math.atan2(s.v, s.alpha)


def rotation(s: FieldSample) -> Unitary2:
    """Basis-change matrix with the instantaneous eigenstates as its columns."""
    return _unitary(_rotation(mixing_angle(s), s.phi))


# Relative step for the finite-difference fallback in adiabatic_sample.
_FD_STEP = 1e-6


def adiabatic_sample(model: DriveModel, t: float) -> AdiabaticSample:
    """Eigenvalues, mixing angle and non-adiabatic coupling at time ``t``.

    Uses the model's exact derivative functions when present, otherwise
    central differences with step 1e-6 * max(1, |t|).  ``t`` must not be a
    discontinuity time and the field must be non-degenerate there.
    """
    if t in model.discontinuities:
        raise InvalidArgumentError(
            f"adiabatic quantities are undefined at discontinuity time t={t}"
        )
    s = sample(model, t)
    if s.alpha == 0.0 and s.v == 0.0:
        raise DegenerateFieldError(f"degenerate field at t={t}")
    h = _FD_STEP * max(1.0, abs(t))
    if model.alpha_dot_fn is not None:
        alpha_dot = model.alpha_dot_fn(t)
    else:
        alpha_dot = (model.alpha_fn(t + h) - model.alpha_fn(t - h)) / (2.0 * h)
    if model.v_dot_fn is not None:
        v_dot = model.v_dot_fn(t)
    else:
        v_dot = (model.v_fn(t + h) - model.v_fn(t - h)) / (2.0 * h)
    om2 = s.alpha * s.alpha + s.v * s.v
    gamma = (s.alpha * v_dot - alpha_dot * s.v) / (2.0 * om2)
    return AdiabaticSample(
        e_plus=math.sqrt(om2),
        e_minus=-math.sqrt(om2),
        gamma=gamma,
        theta=mixing_angle(s),
    )

