"""Drive-model catalog: constructors, sampling, pulse areas, symmetries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasejump.errors import InvalidArgumentError, PhasejumpError
from phasejump.models import (
    DriveModel,
    ParabolicParams,
    _check_parity,
    constant_detuning_pulse,
    parabolic,
    phase_jump,
    pulse_area,
    sample,
    superparabolic,
)


def signed_coupling(model, t):
    return model.v_fn(t) * math.cos(model.phi_fn(t))


class TestParabolic:
    def test_basic_values(self):
        m = parabolic(ParabolicParams(b=1.0, c=0.0))
        assert m.alpha_fn(0.0) == 0.0
        assert m.v_fn(0.0) == 1.0
        assert m.phi_fn(12.3) == 0.0
        assert m.discontinuities == ()

    def test_crossings_at_sqrt_c(self):
        m = parabolic(ParabolicParams(b=2.0, c=4.0))
        assert m.alpha_fn(2.0) == 0.0
        assert m.alpha_fn(-2.0) == 0.0

    def test_tunnelling_geometry_never_crosses(self):
        m = parabolic(ParabolicParams(b=1.0, c=-1.0))
        for t in np.linspace(-10, 10, 101):
            assert m.alpha_fn(t) >= 1.0

    def test_exact_derivatives(self):
        m = parabolic(ParabolicParams(b=1.0, c=3.0, a=2.0))
        assert m.alpha_dot_fn(1.5) == pytest.approx(2 * 2.0 * 1.5)
        assert m.v_dot_fn(1.5) == 0.0

    @pytest.mark.parametrize("kwargs", [dict(a=0.0, b=1.0, c=0.0),
                                        dict(a=-1.0, b=1.0, c=0.0),
                                        dict(a=1.0, b=-0.5, c=0.0),
                                        dict(a=1.0, b=1.0, c=0.0, n=0),
                                        dict(a=math.nan, b=1.0, c=0.0),
                                        dict(a=math.inf, b=1.0, c=0.0),
                                        dict(a=1.0, b=math.nan, c=0.0),
                                        dict(a=1.0, b=math.inf, c=0.0),
                                        dict(a=1.0, b=1.0, c=math.nan),
                                        dict(a=1.0, b=1.0, c=-math.inf)])
    def test_invalid_params(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            ParabolicParams(**kwargs)

    def test_parabolic_rejects_higher_n(self):
        with pytest.raises(InvalidArgumentError):
            parabolic(ParabolicParams(b=1.0, c=0.0, n=2))


class TestSuperparabolic:
    def test_n1_reduces_to_parabolic(self):
        p = ParabolicParams(b=1.2, c=0.7)
        ms = superparabolic(p)
        mp = parabolic(p)
        for t in np.linspace(-3, 3, 31):
            assert ms.alpha_fn(t) == mp.alpha_fn(t)
            assert ms.v_fn(t) == mp.v_fn(t)

    def test_n2_values(self):
        m = superparabolic(ParabolicParams(b=1.0, c=0.0, n=2))
        assert m.alpha_fn(1.0) == pytest.approx(1.0)
        assert m.alpha_fn(2.0) == pytest.approx(16.0)
        assert m.alpha_dot_fn(1.0) == pytest.approx(4.0)

    def test_curvature_fixed_for_higher_n(self):
        with pytest.raises(InvalidArgumentError):
            ParabolicParams(b=1.0, c=0.0, a=2.0, n=2)


class TestPhaseJump:
    def test_signed_coupling_flips_at_zero(self):
        m = phase_jump(parabolic(ParabolicParams(b=1.5, c=2.0)))
        assert signed_coupling(m, -1.0) == pytest.approx(1.5)
        assert signed_coupling(m, 1.0) == pytest.approx(-1.5)

    def test_right_limit_convention_at_jump(self):
        m = phase_jump(parabolic(ParabolicParams(b=1.0, c=4.0)))
        s = sample(m, 0.0)
        assert (s.alpha, s.v, s.phi) == (-4.0, 1.0, math.pi)
        s_left = sample(m, -1e-9)
        assert s_left.phi == 0.0
        assert s_left.alpha == pytest.approx(-4.0)

    def test_jump_time_recorded(self):
        m = phase_jump(parabolic(ParabolicParams(b=1.0, c=1.0)), t_jump=0.5)
        assert 0.5 in m.discontinuities

    def test_preserves_alpha_and_magnitude(self):
        ref = parabolic(ParabolicParams(b=0.8, c=-2.0))
        m = phase_jump(ref)
        for t in np.linspace(-5, 5, 41):
            assert m.alpha_fn(t) == ref.alpha_fn(t)
            assert m.v_fn(t) == ref.v_fn(t)

    def test_rejects_nonzero_phase_reference(self):
        m = phase_jump(parabolic(ParabolicParams(b=1.0, c=1.0)))
        with pytest.raises(InvalidArgumentError):
            phase_jump(m)

    @given(st.floats(-20, 20))
    def test_involution_on_signed_coupling(self, t):
        # flipping the flipped coupling restores the reference away from t=0
        ref = parabolic(ParabolicParams(b=1.0, c=3.0))
        flipped = phase_jump(ref)
        sign = -1.0 if t >= 0.0 else 1.0
        assert signed_coupling(flipped, t) == pytest.approx(sign * ref.v_fn(t))


class TestConstantDetuningPulse:
    def test_fields(self):
        m = constant_detuning_pulse(delta=0.3, amplitude=2.0, half_width=1.5)
        assert m.alpha_fn(-100.0) == 0.3
        assert m.v_fn(0.0) == 2.0
        assert m.v_fn(1.6) == 0.0
        assert m.discontinuities == (-1.5, 1.5)

    def test_trailing_edge_is_right_continuous(self):
        m = constant_detuning_pulse(delta=0.0, amplitude=1.0, half_width=1.0)
        assert sample(m, 1.0).v == 0.0
        assert sample(m, -1.0).v == 1.0

    def test_negative_amplitude_rejected(self):
        with pytest.raises(InvalidArgumentError):
            constant_detuning_pulse(delta=0.0, amplitude=-1.0, half_width=1.0)

    @pytest.mark.parametrize("kwargs", [dict(delta=math.nan), dict(delta=-math.inf),
                                        dict(amplitude=math.nan), dict(amplitude=math.inf),
                                        dict(half_width=math.nan), dict(half_width=math.inf)])
    def test_non_finite_parameters_rejected(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            constant_detuning_pulse(**{"delta": 0.0, "amplitude": 1.0, "half_width": 1.0, **kwargs})


class TestSample:
    def test_direct_values(self):
        m = parabolic(ParabolicParams(b=1.0, c=4.0))
        s = sample(m, 0.0)
        assert (s.alpha, s.v, s.phi) == (-4.0, 1.0, 0.0)

    def test_non_finite_time_rejected(self):
        m = parabolic(ParabolicParams(b=1.0, c=0.0))
        with pytest.raises(InvalidArgumentError):
            sample(m, math.inf)


class TestPulseArea:
    def test_constant_coupling(self):
        m = parabolic(ParabolicParams(b=1.3, c=0.0))
        assert pulse_area(m, -2.0, 2.0) == pytest.approx(4 * 1.3 * 2.0, rel=1e-12)

    def test_half_coupling_over_fixed_window(self):
        # constant integrand: 2 * b * (t1 - t0) = 2 * 0.5 * 4
        m = parabolic(ParabolicParams(b=0.5, c=7.0))
        assert pulse_area(m, -2.0, 2.0) == pytest.approx(4.0, rel=1e-12)

    def test_phase_jump_zero_area(self):
        m = phase_jump(parabolic(ParabolicParams(b=1.7, c=1.0)))
        assert abs(pulse_area(m, -3.0, 3.0)) < 1e-12

    def test_rect_pulse_area(self):
        m = constant_detuning_pulse(delta=0.5, amplitude=2.0, half_width=1.0)
        assert pulse_area(m, -5.0, 5.0) == pytest.approx(8.0, rel=1e-10)

    def test_reversed_interval_rejected(self):
        m = parabolic(ParabolicParams(b=1.0, c=0.0))
        with pytest.raises(InvalidArgumentError):
            pulse_area(m, 1.0, -1.0)


@pytest.mark.parametrize("model", [
    parabolic(ParabolicParams(b=1.1, c=2.5)),
    parabolic(ParabolicParams(b=0.4, c=-3.0, a=1.7)),
    superparabolic(ParabolicParams(b=2.0, c=1.0, n=2)),
    superparabolic(ParabolicParams(b=0.5, c=-4.0, n=3)),
    constant_detuning_pulse(delta=1.0, amplitude=0.7, half_width=2.0),
])
def test_reference_models_are_even_in_time(model):
    rng = np.random.default_rng(42)
    for t in rng.uniform(-8.0, 8.0, size=1000):
        assert model.alpha_fn(-t) == pytest.approx(model.alpha_fn(t), abs=1e-12)
        assert model.v_fn(-t) == pytest.approx(model.v_fn(t), abs=1e-12)


class TestParity:
    def test_catalog_references_are_even(self):
        assert parabolic(ParabolicParams(b=1.0, c=2.0)).parity == 1
        assert superparabolic(ParabolicParams(b=1.0, c=2.0, n=3)).parity == 1
        assert constant_detuning_pulse(delta=0.5, amplitude=1.0, half_width=2.0).parity == 1

    def test_jump_at_zero_is_odd_elsewhere_undeclared(self):
        ref = parabolic(ParabolicParams(b=1.0, c=2.0))
        assert phase_jump(ref).parity == -1
        assert phase_jump(ref, 0.5).parity == 0

    def test_custom_drive_declares_nothing(self):
        m = DriveModel(alpha_fn=lambda t: t, v_fn=lambda t: 1.0, phi_fn=lambda t: 0.0)
        assert m.parity == 0
        assert phase_jump(m).parity == 0
        _check_parity(m)

    def test_catalog_declarations_hold(self):
        pulse = constant_detuning_pulse(delta=0.5, amplitude=1.0, half_width=1.0)
        # right-limit sampling makes the pulse edges uneven; they are not probed
        assert pulse.v_fn(-1.0) != pulse.v_fn(1.0)
        # t**400 overflows at the outer probes, which then show nothing
        steep = superparabolic(ParabolicParams(b=1.0, c=0.0, n=200))
        for ref in (parabolic(ParabolicParams(b=1.0, c=2.0, a=0.7)), steep, pulse):
            _check_parity(ref)
            _check_parity(phase_jump(ref))

    @pytest.mark.parametrize("fields, parity", [
        ((lambda t: t, lambda t: 1.0, lambda t: 0.0), 1),           # odd alpha
        ((lambda t: t * t, lambda t: 1.0 + 0.1 * t, lambda t: 0.0), 1),  # uneven V
        ((lambda t: t * t, lambda t: 1.0, lambda t: 0.0), -1),      # no jump at 0
        ((lambda t: t * t, lambda t: 1.0, lambda t: math.pi if t >= 0 else 0.0), 1),
    ])
    def test_wrong_declaration_rejected(self, fields, parity):
        alpha, v, phi = fields
        with pytest.raises(InvalidArgumentError):
            _check_parity(DriveModel(alpha_fn=alpha, v_fn=v, phi_fn=phi, parity=parity))

    def test_parity_value_validated(self):
        with pytest.raises(InvalidArgumentError):
            DriveModel(alpha_fn=lambda t: 0.0, v_fn=lambda t: 1.0,
                       phi_fn=lambda t: 0.0, parity=2)


@settings(max_examples=60)
@given(b=st.floats(0.0, 5.0), c=st.floats(-5.0, 5.0), t=st.floats(-10.0, 10.0))
def test_coupling_magnitude_never_negative(b, c, t):
    m = phase_jump(parabolic(ParabolicParams(b=b, c=c)))
    assert m.v_fn(t) >= 0.0
    assert m.phi_fn(t) in (0.0, math.pi)
