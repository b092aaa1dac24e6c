"""Closed-form layer: crossing scattering matrices and their compositions.

For the parabolic model with well-separated crossings, the full evolution is
approximated by two independent linearized-crossing events joined by the
dynamical phase accumulated between them.  The phase-jump variant differs
from the reference composition by a sign-flip matrix sandwiched between the
eigenbasis rotations at the jump time, which survives even in the strictly
adiabatic limit and yields a universal strong-coupling transition probability.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from scipy.integrate import quad
from scipy.special import loggamma

from .adiabatic import mixing_angle
from .errors import (
    DegenerateFieldError,
    InternalConsistencyError,
    InvalidArgumentError,
    NoCrossingError,
    QuadratureError,
)
from .models import FieldSample, ParabolicParams
from .propagation import Unitary2, _mul, _rotation

__all__ = [
    "LzParams",
    "IcaResult",
    "stokes_phase",
    "lz_parameter",
    "lz_scattering",
    "dynamical_phase",
    "ica_propagator_reference",
    "ica_propagator_phase_jump",
    "universal_probability",
]


def stokes_phase(lam: float) -> float:
    """Phase acquired across one linearized crossing.

    pi/4 + (lam/2) ln(lam/(2e)) + arg Gamma(1 - i lam/2); the middle term is
    taken as its limit 0 at lam = 0.
    """
    if lam < 0.0:
        raise InvalidArgumentError(f"crossing parameter must be >= 0, got {lam}")
    if lam == 0.0:
        return 0.25 * math.pi
    # log(lam) - 1 - log 2 rather than log(lam / 2e): the quotient underflows
    # to 0 for subnormal lam
    middle = 0.5 * lam * (math.log(lam) - 1.0 - math.log(2.0))
    return 0.25 * math.pi + middle + float(loggamma(1.0 - 0.5j * lam).imag)


@dataclass(frozen=True)
class LzParams:
    """Linearized-crossing parameters: adiabaticity, jump amplitude, phase."""

    lam: float
    r: float
    stokes: float

    def __post_init__(self):
        if self.lam < 0.0:
            raise InvalidArgumentError(f"crossing parameter must be >= 0, got {self.lam}")
        if abs(self.r - math.exp(-0.5 * math.pi * self.lam)) > 1e-14:
            raise InvalidArgumentError(
                f"inconsistent jump amplitude r={self.r} for lam={self.lam}"
            )

    @classmethod
    def from_lambda(cls, lam: float) -> "LzParams":
        return cls(lam=lam, r=math.exp(-0.5 * math.pi * lam), stokes=stokes_phase(lam))


def lz_parameter(p: ParabolicParams) -> float:
    """Adiabaticity parameter of one linearized crossing: b^2 / (2 sqrt(a c)).

    Coupling squared over the level slope 2*sqrt(a*c) at the crossing, so the
    jump amplitude exp(-pi lam / 2) squares to the classic exp(-pi b^2 / slope).
    """
    if p.n != 1:
        raise InvalidArgumentError("crossing linearization is defined for the n=1 model only")
    if p.c <= 0.0:
        raise NoCrossingError(f"no level crossing for c={p.c}")
    return p.b * p.b / (2.0 * math.sqrt(p.a * p.c))


def _crossing(lz: LzParams):
    """Entries of the single-crossing scattering matrix in the adiabatic basis."""
    tq = math.sqrt(max(0.0, 1.0 - lz.r * lz.r)) * cmath.exp(1j * lz.stokes)
    return (tq, -lz.r, lz.r, tq.conjugate())


def lz_scattering(lam: float) -> Unitary2:
    """Single-crossing scattering matrix in the adiabatic basis."""
    return Unitary2(_crossing(LzParams.from_lambda(lam)))


def dynamical_phase(p: ParabolicParams) -> float:
    """Adiabatic phase accumulated between the two crossings.

    2 * integral_0^sqrt(c/a) sqrt((a s^2 - c)^2 + b^2) ds, by adaptive
    quadrature to 1e-10 relative tolerance.
    """
    if p.n != 1:
        raise InvalidArgumentError("dynamical phase is defined for the n=1 model only")
    if p.c <= 0.0:
        raise NoCrossingError(f"no level crossing for c={p.c}")
    a, b, c = p.a, p.b, p.c
    upper = math.sqrt(c / a)

    def splitting(s):
        d = a * s * s - c
        return math.sqrt(d * d + b * b)

    value, abserr = quad(splitting, 0.0, upper, epsabs=1e-13, epsrel=1e-11, limit=200)
    if abserr > 1e-10 * max(1.0, abs(value)):
        raise QuadratureError(
            f"dynamical phase quadrature did not converge: value={value}, abserr={abserr}"
        )
    return 2.0 * value


@dataclass(frozen=True)
class IcaResult:
    """Composed independent-crossing propagator and derived probability."""

    p: float
    s_total: Unitary2
    phi_dyn: float
    lz: LzParams
    crossings: tuple[Unitary2, Unitary2]

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise InvalidArgumentError(f"probability out of range: {self.p}")


def _sz_conj(u):
    """Entries of sz U sz: the off-diagonal pair negated."""
    a, b, c, d = u
    return (a, -b, -c, d)


def _phase_evolution(phi: float) -> Unitary2:
    return Unitary2((cmath.exp(1j * phi), 0.0j, 0.0j, cmath.exp(-1j * phi)))


def ica_propagator_reference(p: ParabolicParams) -> IcaResult:
    """Two uncorrelated crossings joined by the dynamical phase (reference model).

    The second crossing is the sigma_z conjugate of the first because the
    non-adiabatic coupling is odd in time.  The off-diagonal magnitude squared
    reproduces 4 R^2 (1 - R^2) sin^2(phi_dyn + phi_S).
    """
    lz = LzParams.from_lambda(lz_parameter(p))
    phi_dyn = dynamical_phase(p)
    s1 = _crossing(lz)
    s2 = _sz_conj(s1)
    total = _mul(_mul(s2, _phase_evolution(phi_dyn).entries), s1)
    prob = min(max(abs(total[1]) ** 2, 0.0), 1.0)
    return IcaResult(p=prob, s_total=Unitary2(total), phi_dyn=phi_dyn, lz=lz,
                     crossings=(Unitary2(s1), Unitary2(s2)))


def ica_propagator_phase_jump(p: ParabolicParams) -> IcaResult:
    """Independent-crossing composition for the phase-jump variant.

    The reference composition is split at t = 0, transformed to the diabatic
    basis, and the positive-time half is sigma_z conjugated.  The sandwich of
    the eigenbasis rotation at t = 0 around sigma_z is the only surviving
    non-trivial factor in the adiabatic limit.  The resulting total
    off-diagonal element is real up to roundoff; that is asserted, not
    projected, so convention errors surface as failures.
    """
    lz = LzParams.from_lambda(lz_parameter(p))
    phi_dyn = dynamical_phase(p)
    s_a = _crossing(lz)
    r0 = _rotation(mixing_angle(FieldSample(alpha=-p.c, v=p.b, phi=0.0)), 0.0)
    r11, r12, r21, r22 = r0
    r0_dag = (r11.conjugate(), r21.conjugate(), r12.conjugate(), r22.conjugate())
    half = _phase_evolution(0.5 * phi_dyn).entries
    # S_A . sz U_+ R(0) sz R(0)^dag U_- . S_A
    core = _mul(_mul(_sz_conj(_mul(half, r0)), r0_dag), half)
    total = _mul(_mul(s_a, core), s_a)
    off = total[1]
    if abs(off.imag) > 1e-10:
        raise InternalConsistencyError(
            f"phase-jump off-diagonal element is not real: {off}"
        )
    prob = min(max(off.real ** 2, 0.0), 1.0)
    return IcaResult(p=prob, s_total=Unitary2(total), phi_dyn=phi_dyn, lz=lz,
                     crossings=(Unitary2(s_a), Unitary2(_sz_conj(s_a))))


def universal_probability(v0: float, alpha0: float) -> float:
    """Strong-coupling phase-jump limit: V(0)^2 / (V(0)^2 + alpha(0)^2).

    Depends only on the field at the jump time, not on any other model detail.
    """
    if v0 == 0.0 and alpha0 == 0.0:
        raise DegenerateFieldError("universal probability undefined for a vanishing field")
    v2 = v0 * v0
    a2 = alpha0 * alpha0
    total = v2 + a2
    if min(v2, a2) < sys.float_info.min or total == math.inf:
        # a square underflows to zero or to a subnormal with too few digits, or
        # the sum overflows; the scaled ratio does neither
        return (abs(v0) / math.hypot(v0, alpha0)) ** 2
    return v2 / total
