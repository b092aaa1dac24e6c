"""Closed-form layer: Stokes phase, crossing matrices, compositions."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import simpson_integral

from phasejump.analytic import (
    IcaResult,
    LzParams,
    dynamical_phase,
    ica_propagator_phase_jump,
    ica_propagator_reference,
    lz_parameter,
    lz_scattering,
    stokes_phase,
    universal_probability,
)
from phasejump.analytic import _ica_rows, _phase_column, _phase_evolution
from phasejump.adiabatic import rotation
from phasejump.errors import (
    DegenerateFieldError,
    InvalidArgumentError,
    NoCrossingError,
)
from phasejump.models import FieldSample, ParabolicParams

# multiprecision oracle values (mpmath.loggamma at 30 digits)
STOKES_LAM_2 = 0.0870384838649815075
STOKES_LAM_50 = 0.0033335111924786977
# composite Simpson, 1e6 panels, a=1 b=1 c=10
DYN_PHASE_1_1_10 = 42.929922867631617

SZ = np.diag([1.0, -1.0]).astype(complex)


class TestStokesPhase:
    def test_sudden_limit(self):
        assert stokes_phase(0.0) == pytest.approx(math.pi / 4, abs=1e-15)
        assert stokes_phase(1e-12) == pytest.approx(math.pi / 4, abs=1e-10)

    def test_frozen_values(self):
        assert stokes_phase(2.0) == pytest.approx(STOKES_LAM_2, abs=1e-12)
        assert stokes_phase(50.0) == pytest.approx(STOKES_LAM_50, abs=1e-11)

    def test_adiabatic_trend_to_zero(self):
        values = [stokes_phase(lam) for lam in (5.0, 10.0, 25.0, 50.0)]
        assert all(x > y for x, y in zip(values, values[1:]))
        assert values[-1] < 0.004

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgumentError):
            stokes_phase(-0.1)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_rejected(self, lam):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError):
                stokes_phase(lam)


class TestLzParams:
    def test_from_lambda(self):
        lz = LzParams.from_lambda(1.0)
        assert lz.r == pytest.approx(math.exp(-math.pi / 2), rel=1e-15)
        assert lz.stokes == pytest.approx(stokes_phase(1.0))

    def test_inconsistent_amplitude_rejected(self):
        with pytest.raises(InvalidArgumentError):
            LzParams(lam=1.0, r=0.5, stokes=0.0)

    @pytest.mark.parametrize("lam, r, stokes", [(math.nan, math.nan, 0.0),
                                                (math.inf, 0.0, math.nan),
                                                (1.0, math.exp(-0.5 * math.pi), math.inf)])
    def test_non_finite_rejected(self, lam, r, stokes):
        with pytest.raises(InvalidArgumentError):
            LzParams(lam=lam, r=r, stokes=stokes)


class TestLzParameter:
    def test_no_coupling(self):
        assert lz_parameter(ParabolicParams(b=0.0, c=1.0)) == 0.0

    def test_unit_value(self):
        assert lz_parameter(ParabolicParams(b=math.sqrt(2.0), c=1.0)) == pytest.approx(1.0)

    def test_slope_scaling(self):
        # coupling^2 over the level slope 2*sqrt(a*c) at the crossing
        p = ParabolicParams(b=2.0, c=4.0, a=4.0)
        assert lz_parameter(p) == pytest.approx(4.0 / (2.0 * 4.0))

    def test_requires_crossing(self):
        for c in (0.0, -1.0):
            with pytest.raises(NoCrossingError):
                lz_parameter(ParabolicParams(b=1.0, c=c))

    def test_tiny_curvature_and_offset(self):
        # a c underflows to 0 here, sqrt(a) sqrt(c) does not
        assert lz_parameter(ParabolicParams(b=1.0, c=1e-300, a=1e-300)) == pytest.approx(5e299)


class TestLzScattering:
    def test_sudden_limit_is_full_jump(self):
        s = lz_scattering(0.0)
        assert np.allclose(s.matrix, np.array([[0, -1], [1, 0]]), atol=1e-15)

    def test_adiabatic_limit_is_diagonal_phase(self):
        s = lz_scattering(50.0)
        assert abs(s.entries[1]) < 1e-30
        assert abs(s.entries[0]) == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=60)
    @given(lam=st.floats(0.0, 20.0))
    def test_special_unitary(self, lam):
        s = lz_scattering(lam)
        assert s.unitarity_defect() < 1e-14
        assert abs(s.det() - 1.0) < 1e-14

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgumentError):
            lz_scattering(-1.0)

    def test_subnormal_lambda(self):
        # lam / (2e) underflows to 0 here; the Stokes phase tends to pi/4
        assert stokes_phase(5e-324) == pytest.approx(0.25 * math.pi, abs=1e-15)
        assert lz_scattering(5e-324).unitarity_defect() < 1e-14


class TestDynamicalPhase:
    def test_uncoupled_closed_form(self):
        for a, c in [(1.0, 2.0), (2.0, 5.0), (0.5, 1.0)]:
            expected = (4.0 / 3.0) * c ** 1.5 / math.sqrt(a)
            assert dynamical_phase(ParabolicParams(b=0.0, c=c, a=a)) == pytest.approx(
                expected, rel=1e-10)

    def test_vanishes_with_crossing_separation(self):
        assert dynamical_phase(ParabolicParams(b=1.0, c=1e-8)) < 1e-3

    def test_simpson_oracle(self):
        value = dynamical_phase(ParabolicParams(b=1.0, c=10.0))
        assert value == pytest.approx(DYN_PHASE_1_1_10, rel=1e-9)

    def test_simpson_oracle_live(self):
        p = ParabolicParams(b=0.7, c=3.0, a=2.0)
        upper = math.sqrt(p.c / p.a)
        ref = 2.0 * simpson_integral(
            lambda s: math.hypot(p.a * s * s - p.c, p.b), 0.0, upper, panels=200_000)
        assert dynamical_phase(p) == pytest.approx(ref, rel=1e-9)

    def test_requires_crossing(self):
        with pytest.raises(NoCrossingError):
            dynamical_phase(ParabolicParams(b=1.0, c=-1.0))


def eq_reference_probability(p: ParabolicParams) -> float:
    lam = lz_parameter(p)
    r = math.exp(-0.5 * math.pi * lam)
    return 4 * r * r * (1 - r * r) * math.sin(dynamical_phase(p) + stokes_phase(lam)) ** 2


def eq_phase_jump_probability(p: ParabolicParams) -> float:
    lam = lz_parameter(p)
    r = math.exp(-0.5 * math.pi * lam)
    th0 = math.atan2(p.b, -p.c)
    osc = math.cos(dynamical_phase(p) + stokes_phase(lam))
    amp = (2 * r * r - 1) * math.sin(th0) + 2 * math.sqrt(1 - r * r) * r * math.cos(th0) * osc
    return amp * amp


class TestIcaReference:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            p = ParabolicParams(b=rng.uniform(0.0, 4.0), c=rng.uniform(0.05, 12.0))
            res = ica_propagator_reference(p)
            assert res.p == pytest.approx(eq_reference_probability(p), abs=1e-12)

    def test_total_matrix_unitary(self):
        res = ica_propagator_reference(ParabolicParams(b=1.0, c=10.0))
        assert res.s_total.unitarity_defect() < 1e-12
        assert res.phi_dyn == pytest.approx(DYN_PHASE_1_1_10, rel=1e-9)

    def test_envelope_bound(self):
        # 4 R^2 (1 - R^2) <= 1 with equality only at R^2 = 1/2
        for lam in np.linspace(0.0, 5.0, 51):
            r2 = math.exp(-math.pi * lam)
            assert 4 * r2 * (1 - r2) <= 1.0 + 1e-15
        lam_half = math.log(2.0) / math.pi  # R^2 = 1/2
        r2 = math.exp(-math.pi * lam_half)
        assert 4 * r2 * (1 - r2) == pytest.approx(1.0, abs=1e-14)

    def test_cpi_attainable_at_half_jump_probability(self):
        # with R^2 = 1/2 the probability reaches 1 when the oscillation peaks
        lam = math.log(2.0) / math.pi
        r = math.exp(-0.5 * math.pi * lam)
        assert 4 * r * r * (1 - r * r) * 1.0 == pytest.approx(1.0, abs=1e-14)

    def test_probability_in_unit_interval(self):
        for b in np.linspace(0.0, 5.0, 21):
            res = ica_propagator_reference(ParabolicParams(b=float(b), c=2.0))
            assert 0.0 <= res.p <= 1.0


class TestIcaPhaseJump:
    def test_matches_closed_form_on_grid(self):
        for b in np.linspace(0.05, 4.0, 20):
            for c in np.linspace(0.1, 12.0, 20):
                p = ParabolicParams(b=float(b), c=float(c))
                res = ica_propagator_phase_jump(p)
                assert res.p == pytest.approx(eq_phase_jump_probability(p), abs=1e-10)

    def test_strong_coupling_limit_is_universal(self):
        # R -> 0 leaves only sin^2(theta(0))
        p = ParabolicParams(b=6.0, c=1.0)
        res = ica_propagator_phase_jump(p)
        assert res.p == pytest.approx(p.b ** 2 / (p.b ** 2 + p.c ** 2), abs=1e-9)

    def test_deep_crossing_regime_shifts_oscillation(self):
        # |c| >> b: same envelope as the reference but cosine oscillation
        p = ParabolicParams(b=0.1, c=10.0)
        lam = lz_parameter(p)
        r = math.exp(-0.5 * math.pi * lam)
        shifted = 4 * r * r * (1 - r * r) * math.cos(
            dynamical_phase(p) + stokes_phase(lam)) ** 2
        assert ica_propagator_phase_jump(p).p == pytest.approx(shifted, abs=0.05)

    def test_off_diagonal_is_real(self):
        res = ica_propagator_phase_jump(ParabolicParams(b=1.3, c=4.0))
        assert abs(res.s_total.entries[1].imag) < 1e-12

    def test_requires_crossing(self):
        with pytest.raises(NoCrossingError):
            ica_propagator_phase_jump(ParabolicParams(b=1.0, c=0.0))

    @pytest.mark.parametrize("c", [1e-160, 3.0, 1e154])
    def test_no_coupling_is_exactly_zero(self, c):
        # the rotation at t = 0 is exact at b = 0, as in universal and fig6
        assert ica_propagator_phase_jump(ParabolicParams(b=0.0, c=c)).p == 0.0


@pytest.mark.parametrize("phase_jump", [False, True])
@pytest.mark.parametrize("b", [1.4e154, 1e200, 1.7e308])
def test_overflowing_coupling_raises_the_error_of_its_row(b, phase_jump):
    # lambda = b^2 / (2 sqrt(ac)) overflows; the scalar call raises what its row records
    want = _ica_rows(np.array([1.0]), np.array([b]), np.array([3.0]), phase_jump).errors[0]
    fn = ica_propagator_phase_jump if phase_jump else ica_propagator_reference
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(type(want)) as got:
            fn(ParabolicParams(b=b, c=3.0))
    assert str(got.value) == str(want)


def mp_dynamical_phase(a, b, c):
    """2 * integral_0^sqrt(c/a) sqrt((a s^2 - c)^2 + b^2) ds with mpmath at 30 digits."""
    with mpmath.workdps(30):
        a, b, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
        upper = mpmath.sqrt(c / a)
        return float(2 * mpmath.quad(lambda s: mpmath.sqrt((a * s * s - c) ** 2 + b * b),
                                     [0, upper]))


def column(x, like):
    return np.full(like.shape, x)


class TestColumns:
    # b = 0.375 at (a, c) = (0.7, 9.5) and b = 3.555 at (2, 10) are rows where a
    # per-row scipy quad was off by 6e-12 and 2e-12; 1e-160 and 1e100 put rows
    # of very different scale into one column
    B = np.array([0.0, 1e-160, 0.0025, 0.375, 1.0, 3.555, 5.0, 1e3, 1e100])

    @pytest.mark.parametrize("a, c", [(0.7, 9.5), (2.0, 10.0), (1.3, 1e-3)])
    def test_phase_column_against_mpmath(self, a, c):
        phi = _phase_column(column(a, self.B), self.B, column(c, self.B))
        assert np.isfinite(phi).all()
        for b, value in zip(self.B, phi):
            want = mp_dynamical_phase(a, b, c)
            assert abs(value - want) <= 1e-13 * want, (b, value, want)

    def test_c_column_against_mpmath(self):
        c = np.array([1e-8, 0.01, 0.5, 3.7, 10.0, 1e4])
        phi = _phase_column(column(0.7, c), column(1.0, c), c)
        assert np.isfinite(phi).all()
        for x, value in zip(c, phi):
            want = mp_dynamical_phase(0.7, 1.0, x)
            assert abs(value - want) <= 1e-13 * want, (x, value, want)

    def test_rows_across_the_small_coupling_guard(self):
        # b/c below about 1e-154 takes the b = 0 limit; the rows on either side
        # of it agree with the quadrature
        b = np.array([1e-150, 1e-154, 1e-155, 1e-160, 5e-324])
        phi = _phase_column(column(1.0, b), b, column(3.0, b))
        for x, value in zip(b, phi):
            want = mp_dynamical_phase(1.0, x, 3.0)
            assert abs(value - want) <= 1e-13 * want, (x, value, want)

    def test_tiny_offset_gives_the_leading_term(self):
        # for c << b the phase is 2 b sqrt(c/a) to double precision; mpmath's
        # quadrature is itself 3.7e-14 off there
        c = np.array([5e-324, 1e-160])
        phi = _phase_column(column(1.0, c), column(1.0, c), c)
        want = 2.0 * np.sqrt(c)
        assert np.all(np.abs(phi - want) <= 1e-15 * want), (phi, want)

    @pytest.mark.parametrize("a, c", [(1.0, 3.0), (0.7, 9.5), (2.0, 1e-3)])
    def test_no_coupling_is_the_parabola_area(self, a, c):
        want = (4.0 / 3.0) * c * math.sqrt(c / a)
        phi = _phase_column(np.array([a]), np.array([0.0]), np.array([c]))[0]
        assert abs(phi - want) <= math.ulp(want)

    def test_no_numpy_warnings(self):
        c = np.array([1e-8, 0.01, 0.5, 3.7, 10.0, 1e4])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _phase_column(column(0.7, self.B), self.B, column(9.5, self.B))
            _phase_column(column(0.7, c), column(1.0, c), c)

    @pytest.mark.parametrize("a, c, b", [(1.0, 3.7, np.linspace(0.0, 5.0, 2001)), (0.7, 9.5, B)])
    def test_rows_do_not_depend_on_their_column(self, a, c, b):
        phi = _phase_column(column(a, b), b, column(c, b))
        ref = _ica_rows(column(a, b), b, column(c, b), phase_jump=False)
        jump = _ica_rows(column(a, b), b, column(c, b), phase_jump=True)
        rows = [ParabolicParams(a=a, b=float(x), c=c) for x in b]
        assert [dynamical_phase(p) for p in rows] == phi.tolist()
        assert [ica_propagator_reference(p).p for p in rows] == ref.p.tolist()
        assert [ica_propagator_phase_jump(p).p for p in rows] == jump.p.tolist()

    @pytest.mark.parametrize("a, c", [(0.7, 9.5), (2.0, 10.0), (0.5, 0.5)])
    def test_reference_column_is_the_closed_form(self, a, c):
        b = np.linspace(0.0, 5.0, 201)
        rows = _ica_rows(column(a, b), b, column(c, b), phase_jump=False)
        assert rows.errors == {}
        lam = b * b / (2.0 * np.sqrt(a * c))
        r2 = np.exp(-math.pi * lam)
        stokes = np.array([stokes_phase(x) for x in lam])
        want = 4.0 * r2 * (1.0 - r2) * np.sin(rows.phi + stokes) ** 2
        assert np.max(np.abs(rows.p - want)) <= 1e-12

    @pytest.mark.parametrize("a, c", [(0.7, 9.5), (2.0, 10.0), (0.5, 0.5)])
    def test_phase_jump_column_is_the_matrix_product(self, a, c):
        b = np.linspace(0.0, 5.0, 201)
        rows = _ica_rows(column(a, b), b, column(c, b), phase_jump=True)
        assert rows.errors == {}
        for k, x in enumerate(b):
            lam = x * x / (2.0 * math.sqrt(a * c))
            r = math.exp(-0.5 * math.pi * lam)
            tq = math.sqrt(1.0 - r * r) * np.exp(1j * stokes_phase(lam))
            s = np.array([[tq, -r], [r, np.conj(tq)]])
            th = math.atan2(x, -c)
            rot = np.array([[math.cos(th / 2), -math.sin(th / 2)],
                            [math.sin(th / 2), math.cos(th / 2)]])
            half = np.diag([np.exp(0.5j * rows.phi[k]), np.exp(-0.5j * rows.phi[k])])
            total = s @ SZ @ half @ rot @ SZ @ rot.T @ half @ s
            assert abs(rows.p[k] - total[0, 1].real ** 2) <= 1e-12, x


class TestUniversalProbability:
    def test_equal_fields_give_half(self):
        assert universal_probability(2.0, 2.0) == pytest.approx(0.5)
        assert universal_probability(2.0, -2.0) == pytest.approx(0.5)

    def test_no_coupling_gives_zero(self):
        assert universal_probability(0.0, 1.0) == 0.0

    def test_parabolic_arithmetic(self):
        assert universal_probability(3.0, -1.0) == pytest.approx(0.9)

    @settings(max_examples=60)
    @given(v=st.floats(0.001, 10.0), dv=st.floats(0.001, 10.0),
           alpha=st.one_of(st.floats(-50.0, -0.1), st.floats(0.1, 50.0)))
    def test_monotone_in_coupling(self, v, dv, alpha):
        assert universal_probability(v + dv, alpha) > universal_probability(v, alpha)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateFieldError):
            universal_probability(0.0, 0.0)

    @pytest.mark.parametrize("v, alpha", [(math.inf, 1.0), (-math.inf, 1.0), (1.0, math.inf),
                                          (math.nan, 1.0), (1.0, math.nan)])
    def test_non_finite_rejected(self, v, alpha):
        with pytest.raises(InvalidArgumentError):
            universal_probability(v, alpha)

    def test_squares_underflow(self):
        assert universal_probability(1e-200, -1e-200) == pytest.approx(0.5)
        assert universal_probability(1e-200, 0.0) == 1.0
        # a subnormal sum of squares keeps too few digits for the plain ratio
        assert universal_probability(3e-162, 1e-162) == pytest.approx(0.9)

    def test_one_subnormal_square(self):
        # V(0)^2 = 1e-320 is subnormal, the sum 1e-300 is normal
        assert universal_probability(1e-160, -1e-150) == pytest.approx(1e-20, rel=1e-15)
        assert universal_probability(1e-150, -1e-160) == pytest.approx(1.0, rel=1e-15)

    def test_squares_overflow(self):
        assert universal_probability(5e199, 1.0) == 1.0
        assert universal_probability(1e200, -3e200) == pytest.approx(0.1)

    @settings(max_examples=200)
    @given(v=st.floats(allow_nan=False, allow_infinity=False),
           alpha=st.floats(allow_nan=False, allow_infinity=False))
    def test_float_extremes(self, v, alpha):
        try:
            p = universal_probability(v, alpha)
        except DegenerateFieldError:
            assert v == 0.0 and alpha == 0.0
        else:
            assert 0.0 <= p <= 1.0


class TestConventionIdentities:
    @settings(max_examples=40)
    @given(phi=st.floats(-10.0, 10.0))
    def test_phase_evolution_invariant_under_sz_conjugation(self, phi):
        u = _phase_evolution(phi).matrix
        assert np.array_equal(SZ @ u @ SZ, u)

    def test_jump_matrix_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            b = rng.uniform(0.0, 5.0)
            c = rng.uniform(-5.0, 5.0)
            if b == 0.0 and c == 0.0:
                continue
            th = math.atan2(b, c)
            r = rotation(FieldSample(alpha=c, v=b)).matrix
            expected = np.array([[math.cos(th), math.sin(th)],
                                 [math.sin(th), -math.cos(th)]])
            assert np.max(np.abs(r @ SZ @ r.conj().T - expected)) < 1e-12

    def test_ica_result_validates_probability(self):
        with pytest.raises(InvalidArgumentError):
            IcaResult(p=1.5, s_total=lz_scattering(1.0), phi_dyn=0.0,
                      lz=LzParams.from_lambda(1.0), crossings=(lz_scattering(1.0),) * 2)
