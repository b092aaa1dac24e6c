"""Eigenbasis machinery: mixing angle, rotations, non-adiabatic coupling."""

import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import central_difference

from phasejump.adiabatic import (
    adiabatic_sample,
    mixing_angle,
    rotation,
)
from phasejump.errors import (
    DegenerateFieldError,
    InvalidArgumentError,
)
from phasejump.models import (
    DriveModel,
    FieldSample,
    ParabolicParams,
    parabolic,
    phase_jump,
    sample,
)
from phasejump.propagation import SimConfig, propagate


def field_matrix(s: FieldSample) -> np.ndarray:
    return np.array([
        [s.alpha, s.v * np.exp(-1j * s.phi)],
        [s.v * np.exp(1j * s.phi), -s.alpha],
    ])


class TestMixingAngle:
    def test_detuning_dominated_limit(self):
        assert mixing_angle(FieldSample(alpha=1e9, v=1.0)) == pytest.approx(0.0, abs=1e-8)

    def test_resonance(self):
        assert mixing_angle(FieldSample(alpha=0.0, v=2.0)) == pytest.approx(math.pi / 2)

    def test_parabolic_midpoint_quadrant(self):
        # at t=0 with c > 0: sin positive, cos negative
        b, c = 1.0, 2.0
        th = mixing_angle(FieldSample(alpha=-c, v=b))
        assert math.sin(th) == pytest.approx(b / math.hypot(b, c), rel=1e-14)
        assert math.cos(th) == pytest.approx(-c / math.hypot(b, c), rel=1e-14)

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            th = mixing_angle(FieldSample(alpha=rng.normal(), v=abs(rng.normal())))
            assert 0.0 <= th <= math.pi

    def test_degenerate_field(self):
        with pytest.raises(DegenerateFieldError):
            mixing_angle(FieldSample(alpha=0.0, v=0.0))

    def test_continuity_through_crossing(self):
        # theta moves smoothly through pi/2 as alpha changes sign at V > 0
        m = parabolic(ParabolicParams(b=1.0, c=4.0))
        ts = np.arange(-3.0, 3.0, 1e-3)
        thetas = [mixing_angle(sample(m, t)) for t in ts]
        jumps = np.abs(np.diff(thetas))
        assert np.max(jumps) < math.pi / 2


class TestRotation:
    def test_theta_zero_identity(self):
        r = rotation(FieldSample(alpha=5.0, v=0.0))
        assert np.allclose(r.matrix, np.eye(2))

    def test_equator_columns(self):
        r = rotation(FieldSample(alpha=0.0, v=1.0, phi=0.0))
        expected = np.array([[1, -1], [1, 1]]) / math.sqrt(2)
        assert np.allclose(r.matrix, expected, atol=1e-15)

    def test_equator_columns_after_jump(self):
        r = rotation(FieldSample(alpha=0.0, v=1.0, phi=math.pi))
        c0 = r.matrix[:, 0]
        c1 = r.matrix[:, 1]
        assert np.allclose(c0, np.array([1, -1]) / math.sqrt(2), atol=1e-15)
        assert np.allclose(c1, np.array([1, 1]) / math.sqrt(2), atol=1e-15)

    def test_eigenstate_character_flip_at_equator(self):
        before = rotation(FieldSample(alpha=0.0, v=1.0, phi=0.0)).matrix
        after = rotation(FieldSample(alpha=0.0, v=1.0, phi=math.pi)).matrix
        assert np.allclose(after[:, 1], before[:, 0], atol=1e-15)

    def test_unitary(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            s = FieldSample(alpha=rng.normal(), v=abs(rng.normal()),
                            phi=rng.choice([0.0, math.pi]))
            if s.alpha == 0.0 and s.v == 0.0:
                continue
            assert rotation(s).unitarity_defect() < 1e-12

    def test_columns_are_eigenvectors(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            s = FieldSample(alpha=rng.normal() * 3, v=abs(rng.normal()) * 3,
                            phi=rng.choice([0.0, math.pi]))
            om = math.hypot(s.alpha, s.v)
            if om < 1e-6:
                continue
            h = field_matrix(s)
            r = rotation(s).matrix
            assert np.allclose(h @ r[:, 0], om * r[:, 0], atol=1e-10)
            assert np.allclose(h @ r[:, 1], -om * r[:, 1], atol=1e-10)


class TestAdiabaticSample:
    def test_constant_model_has_no_coupling(self):
        m = DriveModel(alpha_fn=lambda t: 0.7, v_fn=lambda t: 1.1,
                       phi_fn=lambda t: 0.0, label="const")
        s = adiabatic_sample(m, 0.3)
        assert s.gamma == pytest.approx(0.0, abs=1e-9)
        assert s.e_plus == pytest.approx(math.hypot(0.7, 1.1))
        assert s.e_minus == -s.e_plus

    def test_parabolic_closed_form(self):
        # a=1, b=1, c=0: gamma = -t / (t^4 + 1)
        m = parabolic(ParabolicParams(b=1.0, c=0.0))
        for t in (-2.0, -0.5, 0.3, 1.7):
            s = adiabatic_sample(m, t)
            assert s.gamma == pytest.approx(-t / (t ** 4 + 1), rel=1e-12)

    def test_matches_theta_derivative(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = ParabolicParams(b=rng.uniform(0.2, 3.0), c=rng.uniform(-3.0, 3.0))
            m = parabolic(p)
            t = rng.uniform(-2.0, 2.0)
            h = 1e-5

            def theta(x):
                return mixing_angle(sample(m, x))

            fd = central_difference(theta, t, h) / 2.0
            assert adiabatic_sample(m, t).gamma == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_finite_difference_fallback(self):
        m = parabolic(ParabolicParams(b=1.0, c=2.0))
        bare = replace(m, alpha_dot_fn=None, v_dot_fn=None)
        for t in (-1.3, 0.4, 2.2):
            assert adiabatic_sample(bare, t).gamma == pytest.approx(
                adiabatic_sample(m, t).gamma, rel=1e-8, abs=1e-12)

    def test_discontinuity_time_rejected(self):
        m = phase_jump(parabolic(ParabolicParams(b=1.0, c=1.0)))
        with pytest.raises(InvalidArgumentError):
            adiabatic_sample(m, 0.0)

    def test_degenerate_field_rejected(self):
        m = parabolic(ParabolicParams(b=0.0, c=1.0))
        with pytest.raises(DegenerateFieldError):
            adiabatic_sample(m, 1.0)  # alpha(1) = 0 and V = 0


def adiabatic_frame_model(model: DriveModel) -> DriveModel:
    """Drive whose Hamiltonian is the adiabatic-frame one of ``model``.

    Diagonal E+-, off-diagonal i*gamma*e^{-i phi} (upper), encoded as a
    coupling of magnitude |gamma| with phase phi - pi/2 (+pi when gamma < 0).
    """

    def gamma(t):
        return adiabatic_sample(model, t).gamma

    def phi(t):
        base = model.phi_fn(t) - 0.5 * math.pi
        return base + (math.pi if gamma(t) < 0.0 else 0.0)

    return DriveModel(
        alpha_fn=lambda t: adiabatic_sample(model, t).e_plus,
        v_fn=lambda t: abs(gamma(t)),
        phi_fn=phi,
        discontinuities=(0.0,) + model.discontinuities,
        label=f"adiabatic frame of {model.label}",
    )


class TestToAdiabatic:
    def test_connection_consistency(self):
        # direct integration of the adiabatic-frame Hamiltonian agrees with
        # the connected diabatic propagator R(t1)^dag U_D R(t0) on a
        # discontinuity-free interval
        m = parabolic(ParabolicParams(b=1.0, c=10.0))
        frame = adiabatic_frame_model(m)
        cfg = SimConfig(window_half_width=20.0, local_error_tol=1e-12)
        for t0, t1 in [(-3.0, -0.5), (0.4, 2.5)]:
            direct = propagate(frame, t0, t1, cfg)
            r1 = rotation(sample(m, t1)).matrix
            r0 = rotation(sample(m, t0)).matrix
            connected = r1.conj().T @ propagate(m, t0, t1, cfg).matrix @ r0
            assert np.max(np.abs(direct.matrix - connected)) < 1e-8
