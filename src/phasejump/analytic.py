"""Closed-form layer: crossing scattering matrices and their compositions.

For the parabolic model with well-separated crossings, the full evolution is
approximated by two independent linearized-crossing events joined by the
dynamical phase accumulated between them.  The phase-jump variant differs
from the reference composition by a sign-flip matrix sandwiched between the
eigenbasis rotations at the jump time, which survives even in the strictly
adiabatic limit and yields a universal strong-coupling transition probability.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy.special import elliprd, elliprf, loggamma

from .errors import (
    DegenerateFieldError,
    InternalConsistencyError,
    InvalidArgumentError,
    NoCrossingError,
    PhasejumpError,
)
from .models import ParabolicParams
from .propagation import Unitary2, _mul, _unitary

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

# Each closed form is written once, on numpy arrays with one element per row
# (a sweep's grid points); the scalar functions evaluate a one-element column.


def _raised(fn, *args) -> Optional[PhasejumpError]:
    """The PhasejumpError that ``fn(*args)`` raises, or None if it returns."""
    try:
        fn(*args)
    except PhasejumpError as exc:
        return exc
    return None


def _record(errors: dict, rows, make) -> None:
    """Give each row of the boolean mask ``rows`` that has no error yet the error ``make(k)``."""
    for k in np.flatnonzero(rows).tolist():
        if k not in errors:
            errors[k] = make(k)


def _row(u, k: int) -> tuple:
    """Row ``k`` of a pair of arrays, as a pair of plain complex numbers."""
    return complex(u[0][k]), complex(u[1][k])


def _stokes(lam):
    """Stokes phase of an array of crossing parameters lam >= 0.

    pi/4 + (lam/2) ln(lam/(2e)) + arg Gamma(1 - i lam/2); the middle term is
    taken as its limit 0 at lam = 0.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # log(lam) - 1 - log 2 rather than log(lam / 2e): the quotient underflows
        # to 0 for subnormal lam
        middle = 0.5 * lam * (np.log(lam) - 1.0 - math.log(2.0))
    middle = np.where(lam == 0.0, 0.0, middle)
    return 0.25 * math.pi + middle + loggamma(1.0 - 0.5j * lam).imag


def stokes_phase(lam: float) -> float:
    """Phase acquired across one linearized crossing (see ``_stokes``)."""
    if not 0.0 <= lam < math.inf:
        raise InvalidArgumentError(f"crossing parameter must be finite and >= 0, got {lam}")
    return float(_stokes(np.array([lam], dtype=float))[0])


@dataclass(frozen=True)
class LzParams:
    """Linearized-crossing parameters: adiabaticity, jump amplitude, phase."""

    lam: float
    r: float
    stokes: float

    def __post_init__(self):
        if not 0.0 <= self.lam < math.inf:
            raise InvalidArgumentError(
                f"crossing parameter must be finite and >= 0, got {self.lam}"
            )
        if not (math.isfinite(self.r) and math.isfinite(self.stokes)):
            raise InvalidArgumentError(
                f"jump amplitude and Stokes phase must be finite, got r={self.r}, "
                f"stokes={self.stokes}"
            )
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
    return float(_lz_lambda(p.a, p.b, p.c))


def _lz_lambda(a, b, c):
    # sqrt(a) sqrt(c) rather than sqrt(a c): the product underflows to 0 for
    # tiny a and c
    return b * b / (2.0 * (np.sqrt(a) * np.sqrt(c)))


def _crossing(r, stokes):
    """Pair of the single-crossing scattering matrix in the adiabatic basis."""
    return np.sqrt(np.maximum(0.0, 1.0 - r * r)) * np.exp(1j * stokes), -r


def lz_scattering(lam: float) -> Unitary2:
    """Single-crossing scattering matrix in the adiabatic basis."""
    lz = LzParams.from_lambda(lam)
    return _unitary(_crossing(lz.r, lz.stokes))


def _phase_column(a, b, c):
    """Dynamical phases of rows (a, b, c) with c > 0.

    2 * integral_0^sqrt(c/a) sqrt((a s^2 - c)^2 + b^2) ds.  With u = a s^2 / c
    the integral runs over the cubic u ((u - 1)^2 + beta^2), beta = b / c, and
    u = A tan^2(theta/2), A = sqrt(1 + beta^2), reduces it to Legendre integrals
    of modulus k^2 = (A + 1) / (2 A) at cos(theta_1) = (A - 1) / (A + 1):
    phi = (2/3) sqrt(c/a) (b + c sqrt(A) ((A - 1) F + 2 E - 2 sn dn / (1 + cn))),
    with sn, cn, dn = sin(theta_1), cos(theta_1), sqrt(1 - k^2 sn^2).  F is
    sn R_F(cn^2, dn^2, 1) and E/sn is k'^2 R_F + (k^2/3) k'^2 sn^2 R_D(cn^2, 1, dn^2)
    + k^2 cn / dn (DLMF 19.25.9), in Carlson's real symmetric integrals R_F and
    R_D (B. C. Carlson, Numer. Algorithms 10, 13 (1995)); no term of E/sn is
    negative.  b and c enter divided by h = hypot(b, c), which keeps every
    argument within [0, 1].  Where b/c is so small (below about 1e-154) that
    R_F overflows, the bracket takes its b = 0 limit 2c.  phi is inf only
    where the phase itself overflows, as (4/3) c sqrt(c/a) does from
    c = 2.6e205 at a = 1.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        upper = np.sqrt(c / a)
        h = np.hypot(b, c)
    s, t = b / h, c / h
    # sn^2, cn, k'^2 = 1 - k^2 and dn^2 in s = b/h and t = c/h
    u = 1.0 + t
    sn2 = 4.0 * t / (u * u)
    cn = s * s / (u * u)
    kc2 = s * s / (2.0 * u)
    dn2 = cn * cn + kc2 * sn2
    with np.errstate(divide="ignore", invalid="ignore"):
        dn = np.sqrt(dn2)
        rf = elliprf(cn * cn, dn2, 1.0)
        rd = elliprd(cn * cn, 1.0, dn2)
        e_sn = kc2 * rf + (1.0 - kc2) / 3.0 * kc2 * sn2 * rd + (1.0 - kc2) * cn / dn
        g = s + 2.0 * cn * rf + 4.0 * t / u * (e_sn - dn / (1.0 + cn))
    g = np.where(np.isfinite(rf), g, 2.0)
    with np.errstate(over="ignore"):
        return (2.0 / 3.0) * upper * h * g


def dynamical_phase(p: ParabolicParams) -> float:
    """Adiabatic phase accumulated between the two crossings.

    2 * integral_0^sqrt(c/a) sqrt((a s^2 - c)^2 + b^2) ds, in closed form
    (``_phase_column``).
    """
    if p.n != 1:
        raise InvalidArgumentError("dynamical phase is defined for the n=1 model only")
    if p.c <= 0.0:
        raise NoCrossingError(f"no level crossing for c={p.c}")
    return float(_phase_column(np.array([p.a]), np.array([p.b]), np.array([p.c]))[0])


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
    """Pair of sz U sz: b negated."""
    a, b = u
    return a, -b


def _phase_entries(phi):
    """Pair of the phase evolution diag(exp(i phi), exp(-i phi))."""
    with np.errstate(invalid="ignore"):
        e = np.exp(1j * phi)
    return e, np.zeros_like(e)


def _phase_evolution(phi: float) -> Unitary2:
    return _unitary(_row(_phase_entries(np.array([phi], dtype=float)), 0))


class _IcaRows(NamedTuple):
    """Columns of the independent-crossing composition, its matrices as pairs of
    arrays; ``p`` is NaN on failed rows."""

    phi: np.ndarray
    crossing: tuple
    total: tuple
    p: np.ndarray
    errors: dict


def _ica_rows(a, b, c, phase_jump: bool) -> _IcaRows:
    """Independent-crossing compositions of rows (a, b, c) of valid parameters with c > 0.

    Reference: S2 E(phi) S1, with the second crossing S2 = sz S1 sz because
    the non-adiabatic coupling is odd in time, and E the dynamical phase
    evolution.  Phase jump: S1 sz E(phi/2) R0 sz R0^dag E(phi/2) S1, with R0
    the eigenbasis rotation at the jump time t = 0, where the mixing angle is
    theta = atan2(b, -c).  A row fails, as one scalar evaluation would, where
    its composed matrix has a non-finite entry (an overflowing phase or
    crossing parameter makes one) or, for the jump, where its off-diagonal
    element is not real.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        lam = _lz_lambda(a, b, c)
        r = np.exp(-0.5 * math.pi * lam)
        stokes = _stokes(lam)
        phi = _phase_column(a, b, c)
        s1 = _crossing(r, stokes)
        if phase_jump:
            half = _phase_entries(0.5 * phi)
            # cos(theta/2) and sin(theta/2) from psi = pi - theta = atan2(b, c), so
            # that cos(theta/2) is exactly 0 at b = 0
            psi = 0.5 * np.arctan2(b, c)
            cos_h, sin_h = np.sin(psi), np.cos(psi)
            r0, r0_dag = (cos_h, -sin_h), (cos_h, sin_h)
            core = _mul(_mul(_sz_conj(_mul(half, r0)), r0_dag), half)
            total = _mul(_mul(s1, core), s1)
            off = total[1]
            p = np.clip(off.real ** 2, 0.0, 1.0)
        else:
            total = _mul(_mul(_sz_conj(s1), _phase_entries(phi)), s1)
            p = np.clip(np.abs(total[1]) ** 2, 0.0, 1.0)
    errors = {}
    finite = np.logical_and.reduce([np.isfinite(e) for e in total])
    _record(errors, ~finite, lambda k: _raised(_unitary, _row(total, k)))
    if phase_jump:
        _record(errors, np.abs(off.imag) > 1e-10, lambda k: InternalConsistencyError(
            f"phase-jump off-diagonal element is not real: {complex(off[k])}"))
    p[list(errors)] = math.nan
    return _IcaRows(phi, s1, total, p, errors)


def _ica_result(p: ParabolicParams, phase_jump: bool) -> IcaResult:
    """The one-row column of ``_ica_rows`` as an IcaResult; raises the row's error."""
    lam = lz_parameter(p)
    rows = _ica_rows(np.array([p.a]), np.array([p.b]), np.array([p.c]), phase_jump)
    if rows.errors:
        raise rows.errors[0]
    lz = LzParams.from_lambda(lam)
    s1 = _row(rows.crossing, 0)
    return IcaResult(
        p=float(rows.p[0]),
        s_total=_unitary(_row(rows.total, 0)),
        phi_dyn=float(rows.phi[0]),
        lz=lz,
        crossings=(_unitary(s1), _unitary(_sz_conj(s1))),
    )


def ica_propagator_reference(p: ParabolicParams) -> IcaResult:
    """Two uncorrelated crossings joined by the dynamical phase (reference model).

    The off-diagonal magnitude squared reproduces
    4 R^2 (1 - R^2) sin^2(phi_dyn + phi_S).
    """
    return _ica_result(p, phase_jump=False)


def ica_propagator_phase_jump(p: ParabolicParams) -> IcaResult:
    """Independent-crossing composition for the phase-jump variant.

    The reference composition is split at t = 0, transformed to the diabatic
    basis, and the positive-time half is sigma_z conjugated.  The sandwich of
    the eigenbasis rotation at t = 0 around sigma_z is the only surviving
    non-trivial factor in the adiabatic limit.  The resulting total
    off-diagonal element is real up to roundoff; that is asserted, not
    projected, so convention errors surface as failures.
    """
    return _ica_result(p, phase_jump=True)


def _universal(v0, alpha0):
    """V(0)^2 / (V(0)^2 + alpha(0)^2) of arrays; NaN where both vanish."""
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        v2 = v0 * v0
        a2 = alpha0 * alpha0
        total = v2 + a2
        # where a square underflows to zero or to a subnormal with too few
        # digits, or the sum overflows, the scaled ratio does neither
        scaled = (np.minimum(v2, a2) < sys.float_info.min) | (total == math.inf)
        return np.where(scaled, (np.abs(v0) / np.hypot(v0, alpha0)) ** 2, v2 / total)


def universal_probability(v0: float, alpha0: float) -> float:
    """Strong-coupling phase-jump limit: V(0)^2 / (V(0)^2 + alpha(0)^2).

    Depends only on the field at the jump time, not on any other model detail.
    """
    if not (math.isfinite(v0) and math.isfinite(alpha0)):
        raise InvalidArgumentError(f"field components must be finite, got V(0)={v0}, "
                                   f"alpha(0)={alpha0}")
    if v0 == 0.0 and alpha0 == 0.0:
        raise DegenerateFieldError("universal probability undefined for a vanishing field")
    return float(_universal(np.array([v0], dtype=float), np.array([alpha0], dtype=float))[0])
