"""SU(2) propagation core: exact steps, adaptive composition, windows."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import fine_step_propagator

from phasejump import propagation
from phasejump.adiabatic import rotation
from phasejump.analytic import ica_propagator_phase_jump, ica_propagator_reference, lz_scattering
from phasejump.errors import (
    ConvergenceError,
    InvalidArgumentError,
    WindowTooSmallError,
)
from phasejump.models import (
    DriveModel,
    FieldSample,
    ParabolicParams,
    constant_detuning_pulse,
    parabolic,
    phase_jump,
    sample,
    superparabolic,
)
from phasejump.propagation import (
    SimConfig,
    Unitary2,
    auto_window,
    propagate,
    su2_exp,
    transition_probability,
)
from phasejump.sweeps import convergence_report

SZ = np.diag([1.0, -1.0]).astype(complex)


class TestUnitary2:
    def test_identity(self):
        u = Unitary2.identity()
        assert np.allclose(u.matrix, np.eye(2))

    def test_dagger_and_det(self):
        u = su2_exp(FieldSample(alpha=0.7, v=1.1, phi=0.3), 0.9)
        assert np.allclose(u.dagger().matrix, u.matrix.conj().T)
        assert abs(u.det() - 1.0) < 1e-14

    def test_from_matrix_shape_check(self):
        with pytest.raises(InvalidArgumentError):
            Unitary2.from_matrix(np.eye(3))

    def test_needs_four_entries(self):
        with pytest.raises(InvalidArgumentError):
            Unitary2((1, 0, 0))


class TestSu2Exp:
    def test_zero_hamiltonian_gives_identity(self):
        u = su2_exp(FieldSample(alpha=0.0, v=0.0), 1.0)
        assert np.allclose(u.matrix, np.eye(2))

    def test_diagonal_case(self):
        t = 0.37
        u = su2_exp(FieldSample(alpha=1.0, v=0.0), t)
        expected = np.diag([np.exp(-1j * t), np.exp(1j * t)])
        assert np.allclose(u.matrix, expected, atol=1e-15)

    def test_resonant_half_flip_is_minus_i_sigma_x(self):
        # pulse area 2 * (pi/4) * 2 = pi, so full population transfer
        u = su2_exp(FieldSample(alpha=0.0, v=math.pi / 4), 2.0)
        expected = -1j * np.array([[0, 1], [1, 0]])
        assert np.allclose(u.matrix, expected, atol=1e-15)
        assert abs(u.entries[1]) ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_unitary_to_1e12(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            s = FieldSample(alpha=rng.normal() * 10, v=abs(rng.normal()) * 10,
                            phi=rng.uniform(0, 2 * math.pi))
            u = su2_exp(s, rng.normal())
            assert u.unitarity_defect() < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            su2_exp(FieldSample(alpha=1.0, v=0.0), math.nan)
        with pytest.raises(InvalidArgumentError):
            FieldSample(alpha=math.inf, v=0.0)


class TestPropagate:
    def test_zero_model_identity(self):
        m = parabolic(ParabolicParams(b=0.0, c=0.0))
        u = propagate(m, -4.0, 7.0)
        # alpha = t^2 is nonzero, so use a genuinely zero Hamiltonian instead
        m0 = constant_detuning_pulse(delta=0.0, amplitude=0.0, half_width=1.0)
        u0 = propagate(m0, -4.0, 7.0)
        assert np.allclose(u0.matrix, np.eye(2), atol=1e-14)
        assert u.unitarity_defect() < 1e-12

    def test_area_theorem_on_resonance(self):
        # alpha == 0, constant coupling: P = sin^2(area / 2)
        rng = np.random.default_rng(3)
        for _ in range(10):
            v = rng.uniform(0.3, 2.0)
            area = rng.uniform(0.0, 4 * math.pi)
            t_half = area / (4.0 * v)
            m = constant_detuning_pulse(delta=0.0, amplitude=v, half_width=t_half)
            u = propagate(m, -t_half, t_half)
            assert abs(u.entries[1]) ** 2 == pytest.approx(
                math.sin(area / 2.0) ** 2, abs=1e-9)

    def test_matches_fine_step_oracle(self):
        # frozen contract: adaptive result within 1e-8 of the dt=1e-5 oracle
        m = parabolic(ParabolicParams(b=1.0, c=10.0))
        t_half = auto_window(m)
        ref = fine_step_propagator(m, -t_half, t_half, dt=1e-5)
        u = propagate(m, -t_half, t_half, SimConfig(window_half_width=t_half))
        assert np.max(np.abs(u.matrix - ref)) < 1e-8

    def test_composition_over_random_splits(self):
        rng = np.random.default_rng(11)
        cfg = SimConfig(window_half_width=50.0)
        for _ in range(25):
            b = rng.uniform(0.0, 3.0)
            c = rng.uniform(-5.0, 10.0)
            m = parabolic(ParabolicParams(b=b, c=c))
            if rng.random() < 0.5:
                m = phase_jump(m)
            t0, t1, t2 = np.sort(rng.uniform(-6.0, 6.0, size=3))
            whole = propagate(m, t0, t2, cfg)
            split = propagate(m, t1, t2, cfg) @ propagate(m, t0, t1, cfg)
            assert np.max(np.abs(whole.matrix - split.matrix)) < 1e-9

    def test_unitarity_after_full_evolution(self):
        m = phase_jump(parabolic(ParabolicParams(b=2.0, c=5.0)))
        u = propagate(m, -12.0, 12.0, SimConfig(window_half_width=12.0))
        assert u.unitarity_defect() < 1e-10
        assert abs(abs(u.det()) - 1.0) < 1e-10

    def test_tolerance_halving_stability(self):
        m = parabolic(ParabolicParams(b=1.0, c=10.0))
        t_half = auto_window(m)
        for tol in (1e-8, 1e-10):
            p1 = transition_probability(m, SimConfig(window_half_width=t_half,
                                                     local_error_tol=tol))
            p2 = transition_probability(m, SimConfig(window_half_width=t_half,
                                                     local_error_tol=tol / 2))
            assert abs(p1 - p2) <= tol

    def test_sigma_z_conjugation_identity(self):
        # propagator of the flipped model equals sz U sz for t >= 0
        rng = np.random.default_rng(5)
        cfg = SimConfig(window_half_width=50.0)
        for _ in range(8):
            p = ParabolicParams(b=rng.uniform(0.1, 3.0), c=rng.uniform(-4.0, 8.0))
            ref = parabolic(p)
            var = phase_jump(ref)
            for t in (1.0, 2.5):
                u_ref = propagate(ref, 0.0, t, cfg)
                u_var = propagate(var, 0.0, t, cfg)
                conj = SZ @ u_ref.matrix @ SZ
                assert np.max(np.abs(u_var.matrix - conj)) < 1e-9

    def test_time_reversal_roundtrip(self):
        m = phase_jump(parabolic(ParabolicParams(b=1.4, c=3.0)))
        cfg = SimConfig(window_half_width=50.0)
        fwd = propagate(m, -2.0, 4.0, cfg)
        bwd = propagate(m, 4.0, -2.0, cfg)
        assert np.max(np.abs((fwd @ bwd).matrix - np.eye(2))) < 1e-9

    @pytest.mark.parametrize("t0, t1", [(-2.0, 4.0), (-3.0, 3.0), (0.0, 2.5)])
    def test_backward_is_the_adjoint_of_forward(self, t0, t1):
        m = phase_jump(parabolic(ParabolicParams(b=1.4, c=3.0)))
        assert propagate(m, t1, t0).entries == propagate(m, t0, t1).dagger().entries

    def test_non_finite_interval_rejected(self):
        m = parabolic(ParabolicParams(b=1.0, c=1.0))
        with pytest.raises(InvalidArgumentError):
            propagate(m, 0.0, math.inf)

    def test_step_underflow_raises_convergence_error(self, monkeypatch):
        monkeypatch.setattr(propagation, "_MIN_STEP", 0.05)
        m = parabolic(ParabolicParams(b=1.0, c=0.0))
        cfg = SimConfig(window_half_width=10.0, local_error_tol=1e-16)
        with pytest.raises(ConvergenceError) as err:
            propagate(m, -5.0, 5.0, cfg)
        assert err.value.achieved_error is not None
        assert err.value.achieved_error > 0.0

    def test_field_too_strong_for_min_step_raises_at_once(self):
        # |H| = 1e13 needs steps near 1.4e-13 to stay phase-resolved, below
        # _MIN_STEP; stepping on would take about 1e12 trials
        m = parabolic(ParabolicParams(b=3.0, c=1e13))
        evals = []

        def alpha(t):
            evals.append(t)
            if len(evals) > 100000:
                raise RuntimeError("still integrating after 1e5 field evaluations")
            return m.alpha_fn(t)

        start = time.perf_counter()
        with pytest.raises(ConvergenceError):
            propagate(replace(m, alpha_fn=alpha), -1.0, 1.0)
        assert time.perf_counter() - start < 1.0

    def test_non_finite_field_fails_at_first_rejected_trial(self):
        nan_evals = []

        def alpha(t):
            if t <= 0.5:
                return t
            nan_evals.append(t)
            return math.nan

        m = DriveModel(alpha_fn=alpha, v_fn=lambda t: 1.0, phi_fn=lambda t: 0.0)
        with pytest.raises(ConvergenceError):
            propagate(m, 0.0, 1.0)
        # one trial samples alpha at six nodes; shrinking the step cannot cure NaN
        assert len(nan_evals) <= 6

    def test_field_leaving_float_range_raises_convergence_error(self):
        # an infinite field makes the step phase infinite, and cos(inf) a ValueError
        m = DriveModel(alpha_fn=lambda t: math.inf if t > 0.5 else t,
                       v_fn=lambda t: 1.0, phi_fn=lambda t: 0.0)
        with pytest.raises(ConvergenceError, match="field evaluation failed"):
            propagate(m, 0.0, 1.0)


CATALOG_REFERENCES = {
    "parabolic": parabolic(ParabolicParams(b=1.3, c=2.0, a=0.8)),
    "superparabolic": superparabolic(ParabolicParams(b=0.9, c=-1.5, n=2)),
    "const-detuning": constant_detuning_pulse(delta=0.7, amplitude=1.8, half_width=1.2),
}
CATALOG = [
    pytest.param(jumped, id=f"{name}{'-jump' if jumped is not ref else ''}")
    for name, ref in CATALOG_REFERENCES.items()
    for jumped in (ref, phase_jump(ref))
]


@pytest.mark.parametrize("jump_at", [None, 0.0, 0.3], ids=["plain", "jump", "jump-at-0.3"])
@pytest.mark.parametrize("family", list(CATALOG_REFERENCES))
def test_returned_unitaries_have_the_su2_form(family, jump_at):
    """Every Unitary2 the package returns is exactly [[a, b], [-b*, a*]]."""
    ref = CATALOG_REFERENCES[family]
    m = ref if jump_at is None else phase_jump(ref, jump_at)
    t_half = auto_window(m, 30.0)
    returned = [propagate(m, -t_half, t_half), propagate(m, -t_half, 0.4 * t_half),
                propagate(m, t_half, -0.7), Unitary2.identity()]
    for t in (-1.1, -0.2, 0.5, 2.0):
        s = sample(m, t)
        returned += [su2_exp(s, 0.37), su2_exp(s, -2.9), rotation(s)]
    if family == "parabolic":
        for lam in (0.0, 0.4, 7.0):
            returned.append(lz_scattering(lam))
        for ica in (ica_propagator_reference, ica_propagator_phase_jump):
            res = ica(ParabolicParams(b=1.3, c=2.0, a=0.8))
            returned += [res.s_total, *res.crossings]
    for u in returned:
        a, b, c, d = u.entries
        assert d == a.conjugate() and c == -b.conjugate(), u


def max_entry_gap(u, v):
    return float(np.max(np.abs(np.asarray(u) - np.asarray(v))))


class TestMirroredWindow:
    """Symmetric windows of drives with declared parity integrate one half only."""

    T = 2.5

    @pytest.mark.parametrize("model", CATALOG)
    def test_matches_split_composition(self, model):
        whole = propagate(model, -self.T, self.T)
        split = propagate(model, 0.0, self.T) @ propagate(model, -self.T, 0.0)
        assert max_entry_gap(whole.matrix, split.matrix) < 1e-9

    @pytest.mark.parametrize("model", CATALOG)
    def test_matches_full_window_integration(self, model):
        mirrored = propagate(model, -self.T, self.T)
        full = propagate(replace(model, parity=0), -self.T, self.T)
        assert max_entry_gap(mirrored.matrix, full.matrix) < 1e-9

    @pytest.mark.parametrize("model", CATALOG)
    def test_matches_fine_step_oracle(self, model):
        ref = fine_step_propagator(model, -self.T, self.T, dt=1e-5)
        assert max_entry_gap(propagate(model, -self.T, self.T).matrix, ref) < 1e-8

    def test_random_catalog_models_at_their_windows(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            p = ParabolicParams(b=rng.uniform(0.0, 3.0), c=rng.uniform(-5.0, 10.0))
            m = parabolic(p) if rng.random() < 0.5 else superparabolic(replace(p, n=2))
            if rng.random() < 0.5:
                m = phase_jump(m)
            t_half = min(auto_window(m), 12.0)
            mirrored = propagate(m, -t_half, t_half)
            full = propagate(replace(m, parity=0), -t_half, t_half)
            assert max_entry_gap(mirrored.matrix, full.matrix) < 1e-9

    def test_asymmetric_custom_drive_integrates_whole_window(self):
        m = DriveModel(alpha_fn=lambda t: t * t - 1.0 + 0.5 * t,
                       v_fn=lambda t: 1.0, phi_fn=lambda t: 0.0)
        whole = propagate(m, -self.T, self.T)
        split = propagate(m, 0.0, self.T) @ propagate(m, -self.T, 0.0)
        assert max_entry_gap(whole.matrix, split.matrix) < 1e-9
        # mirroring this drive's right half would be wrong
        half = propagate(m, 0.0, self.T).matrix
        assert max_entry_gap(whole.matrix, half @ half.T) > 1e-3

    def test_parity_declared_on_asymmetric_drive_rejected(self):
        m = DriveModel(alpha_fn=lambda t: t * t - 1.0 + 0.5 * t,
                       v_fn=lambda t: 1.0, phi_fn=lambda t: 0.0, parity=1)
        propagate(m, 0.0, self.T)  # no window to mirror
        with pytest.raises(InvalidArgumentError):
            propagate(m, -self.T, self.T)
        with pytest.raises(InvalidArgumentError):
            transition_probability(m)


class TestWindow:
    def test_auto_window_parabolic(self):
        m = parabolic(ParabolicParams(b=1.0, c=10.0))
        t = auto_window(m)
        assert t == pytest.approx(math.sqrt(110.0), rel=1e-4)

    def test_auto_window_respects_coupling_scale(self):
        m = parabolic(ParabolicParams(b=4.0, c=0.0))
        assert auto_window(m) == pytest.approx(math.sqrt(400.0), rel=1e-4)

    def test_auto_window_not_fooled_by_deep_well(self):
        # |alpha(1)| = 199 >= 100 but the crossings are far outside t = 1
        m = parabolic(ParabolicParams(b=1.0, c=200.0))
        assert auto_window(m) == pytest.approx(math.sqrt(300.0), rel=1e-3)

    @pytest.mark.parametrize("c", [5e4, 1e5, 1e6])
    def test_auto_window_finds_crossing_between_probes(self, c):
        # the violating band around each crossing, 30 * 3 / (2 sqrt(c)) wide on
        # either side, is narrower than the probe spacing of its octave
        m = parabolic(ParabolicParams(b=3.0, c=c))
        assert auto_window(m, 30.0) >= math.sqrt(c)

    @pytest.mark.parametrize("c", [5e10, 1e11, 1e12])
    def test_auto_window_not_fooled_by_deep_well_at_large_offset(self, c):
        # |alpha| falls by less than 1e-12 (1 + |alpha|) from probe to probe in
        # the first octave, but by much more across it; the crossings at
        # sqrt(c) need a window past the search horizon
        start = time.perf_counter()
        with pytest.raises(WindowTooSmallError):
            auto_window(parabolic(ParabolicParams(b=3.0, c=c)), 30.0)
        assert time.perf_counter() - start < 1.0

    def test_auto_window_finds_narrow_crossing_at_negative_time(self):
        # no declared parity, and only the t < 0 half crosses
        m = DriveModel(alpha_fn=lambda t: t * t + (1e5 if t > 0.0 else -1e5),
                       v_fn=lambda t: 3.0, phi_fn=lambda t: 0.0)
        assert auto_window(m, 30.0) >= math.sqrt(1e5)

    def test_auto_window_finds_narrow_dip_between_probes(self):
        # |alpha| has a minimum at t = 5.01 without changing sign; an offset of
        # 10 violates kappa = 30 only within 0.0045 of it, between the probes,
        # and an offset of 40 violates it nowhere
        def dip(offset):
            return DriveModel(alpha_fn=lambda t: 1e6 * (t - 5.01) ** 2 + offset,
                              v_fn=lambda t: 1.0, phi_fn=lambda t: 0.0)
        assert auto_window(dip(10.0), 30.0) > 5.01
        assert auto_window(dip(40.0), 30.0) == 1.0

    def test_pulsed_coupling_allows_any_window_beyond_support(self):
        m = constant_detuning_pulse(delta=0.5, amplitude=1.0, half_width=2.0)
        assert auto_window(m) == pytest.approx(2.0, rel=1e-3)

    def test_window_too_small_error_reports_requirement(self):
        m = parabolic(ParabolicParams(b=1.0, c=10.0))
        with pytest.raises(WindowTooSmallError) as err:
            transition_probability(m, SimConfig(window_half_width=3.0))
        assert err.value.required_half_width == pytest.approx(math.sqrt(110.0), rel=1e-3)

    def test_no_window_for_resonant_constant_coupling(self):
        m = parabolic(ParabolicParams(b=0.0, c=0.0))
        # b=0 means V == 0 everywhere, so any window is fine and P = 0
        assert transition_probability(m) == 0.0


class TestTransitionProbability:
    def test_no_coupling_gives_zero(self):
        for c in (-3.0, 0.0, 5.0):
            m = parabolic(ParabolicParams(b=0.0, c=c))
            assert transition_probability(m) == 0.0

    def test_in_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            m = parabolic(ParabolicParams(b=rng.uniform(0, 3), c=rng.uniform(-3, 6)))
            p = transition_probability(m)
            assert 0.0 <= p <= 1.0

    def test_rect_phase_jump_exact_product_formula(self):
        # the rectangular jump pulse is exactly solvable: two rotations about
        # (+-amp, 0, delta) give P = 4 (amp*delta/Om^2)^2 sin^4(Om*hw).
        # Sudden edges keep this far below the adiabatic strong-coupling value.
        for delta, amp, hw in [(0.4, 8.0, 3.0), (1.0, 1.0, 2.0), (0.7, 2.5, 1.3)]:
            m = phase_jump(constant_detuning_pulse(delta=delta, amplitude=amp,
                                                   half_width=hw))
            p = transition_probability(m, SimConfig(window_half_width=hw + 0.5))
            om = math.hypot(delta, amp)
            exact = 4 * (amp * delta / om ** 2) ** 2 * math.sin(om * hw) ** 4
            assert p == pytest.approx(exact, abs=1e-10)

    def test_phase_jump_resonant_returns_to_ground(self):
        m = phase_jump(constant_detuning_pulse(delta=0.0, amplitude=1.3, half_width=2.0))
        p = transition_probability(m, SimConfig(window_half_width=2.25))
        assert p < 1e-9


def landau_zener(v):
    """alpha = t, constant coupling v: P = 1 - exp(-pi v^2) between -inf and inf."""
    return DriveModel(alpha_fn=lambda t: t, v_fn=lambda t: v, phi_fn=lambda t: 0.0,
                      label=f"landau-zener(v={v:g})",
                      alpha_dot_fn=lambda t: 1.0, v_dot_fn=lambda t: 0.0)


# (b, c, phase jump): glancing, double crossing and tunnelling
READOUT_CASES = [(1.0, 0.0, False), (1.0, 0.0, True), (1.0, 10.0, False),
                 (1.0, 10.0, True), (10.0, -10.0, True), (1.0, -1.0, True)]


class TestReadout:
    def test_landau_zener_at_automatic_window(self):
        # alpha changes sign between the edges, so each edge state must be
        # labelled by the diabatic state it tends to; the adiabatic labels
        # would give exp(-pi/4) = 0.456 and the diabatic reading at T = 100 0.540
        p = transition_probability(landau_zener(0.5))
        assert p == pytest.approx(1.0 - math.exp(-math.pi * 0.25), abs=1e-6)

    @pytest.mark.parametrize("b, c, jump", READOUT_CASES)
    def test_default_window_matches_wide_window(self, b, c, jump):
        m = parabolic(ParabolicParams(b=b, c=c))
        if jump:
            m = phase_jump(m)
        wide = transition_probability(m, SimConfig(window_scale_factor=300.0))
        assert transition_probability(m) == pytest.approx(wide, abs=1e-5)

    def test_explicit_window_reads_diabatic_population(self):
        m = phase_jump(parabolic(ParabolicParams(b=1.3, c=2.0)))
        t_half = 25.0
        p = transition_probability(m, SimConfig(window_half_width=t_half))
        assert p == abs(propagate(m, -t_half, t_half).entries[1]) ** 2

    def test_edge_at_vanishing_detuning(self):
        # alpha(2) = 0 with V = 1: the edge basis is the adiabatic one rotated
        # by atan(gamma/V), and no division by alpha may happen
        report = convergence_report(parabolic(ParabolicParams(b=1.0, c=4.0)),
                                    SimConfig(window_half_width=2.0))
        assert report.window_rows[0][0] == 2.0
        assert all(0.0 <= p <= 1.0 for _, p in report.window_rows)

    def test_edge_at_pulse_discontinuity(self):
        # -T is the switch-on time: no derivatives there, so the edge state is
        # the adiabatic one of the right-limit field
        m = constant_detuning_pulse(delta=1.0, amplitude=1.0, half_width=2.0)
        report = convergence_report(m, SimConfig(window_half_width=2.0))
        assert report.converged
        # Rabi: P = (V / Omega)^2 sin^2(Omega * 2 hw) once the pulse is inside
        assert report.window_rows[-1][1] == pytest.approx(
            0.5 * math.sin(4.0 * math.sqrt(2.0)) ** 2, abs=1e-9)


class TestSimConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(window_half_width=-1.0),
        dict(local_error_tol=0.0),
        dict(window_half_width=0.0),
        dict(local_error_tol=float("nan")),
        dict(window_scale_factor=1.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            SimConfig(**kwargs)
