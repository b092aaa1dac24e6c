"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected constants marked ORACLE_* were pinned with the independent
fixed-step propagator in oracles.py (dt = 1e-5 unless noted) before the
adaptive integrator was trusted.
"""

import math
import time

import numpy as np
import pytest

from phasejump.models import (
    ParabolicParams,
    constant_detuning_pulse,
    parabolic,
    phase_jump,
    superparabolic,
)
from phasejump.analytic import (
    dynamical_phase,
    lz_parameter,
    stokes_phase,
    universal_probability,
)
from phasejump.propagation import (
    SimConfig,
    auto_window,
    propagate,
    transition_probability,
)
from phasejump.sweeps import SweepSpec, run_sweep

SZ = np.diag([1.0, -1.0]).astype(complex)

# oracle-pinned values (fine_step_propagator at dt=1e-5)
ORACLE_GLANCING_PEAK = 0.5437200        # reference c=0, peak near b=0.675 (auto window)
ORACLE_CPI_THRESHOLD = 2.1              # phase-jump c=0: P >= 0.99 for b >= this
ORACLE_TUNNEL_C10_B10 = 0.4962182928    # phase-jump c=-10, b=10 over [-45, 45]
ORACLE_DC_C10_B1 = 0.2097396042         # reference c=10, b=1 over [-10.5, 10.5]
POST_OSCILLATION_B = 3.0                # c=-4 phase-jump curves merge beyond this


def report(num: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] criterion {num:2d}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def random_model(rng):
    b = rng.uniform(0.0, 3.0)
    c = rng.uniform(-5.0, 10.0)
    if rng.random() < 0.25:
        m = superparabolic(ParabolicParams(b=b, c=c, n=int(rng.integers(2, 4))))
    else:
        m = parabolic(ParabolicParams(b=b, c=c, a=rng.uniform(0.5, 2.0)))
    if rng.random() < 0.5:
        m = phase_jump(m)
    return m


def test_criterion_01_unitarity_and_composition():
    rng = np.random.default_rng(2024)
    cfg = SimConfig(window_half_width=100.0)
    start = time.perf_counter()
    worst_unitarity = 0.0
    worst_split = 0.0
    for _ in range(500):
        m = random_model(rng)
        # intervals live inside (a bit beyond) the model's own asymptotic
        # window; far outside it the fields are astronomically stiff and
        # physically never integrated over
        spread = min(1.2 * auto_window(m), 5.0)
        t0, t1, t2 = np.sort(rng.uniform(-spread, spread, size=3))
        whole = propagate(m, t0, t2, cfg)
        split = propagate(m, t1, t2, cfg) @ propagate(m, t0, t1, cfg)
        worst_unitarity = max(worst_unitarity, whole.unitarity_defect(),
                              split.unitarity_defect())
        worst_split = max(worst_split,
                          float(np.max(np.abs(whole.matrix - split.matrix))))
    elapsed = time.perf_counter() - start
    report(1, "unitarity and split composition",
           worst_unitarity <= 1e-10 and worst_split <= 1e-9 and elapsed <= 30.0,
           f"unitarity {worst_unitarity:.2e}, split {worst_split:.2e}, {elapsed:.1f} s")


def test_criterion_02_area_theorem():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        v = rng.uniform(0.3, 2.0)
        area = rng.uniform(0.0, 4.0 * math.pi)
        hw = area / (4.0 * v)
        m = constant_detuning_pulse(delta=0.0, amplitude=v, half_width=hw)
        u = propagate(m, -hw, hw)
        p = abs(u.entries[1]) ** 2
        worst = max(worst, abs(p - math.sin(0.5 * area) ** 2))
    report(2, "resonant area theorem", worst <= 1e-8, f"worst |dP| {worst:.2e}")


def test_criterion_03_zero_area_return():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        v = rng.uniform(0.2, 4.0)
        hw = rng.uniform(0.5, 4.0)
        m = phase_jump(constant_detuning_pulse(delta=0.0, amplitude=v, half_width=hw))
        u = propagate(m, -hw, hw)
        worst = max(worst, abs(u.entries[1]) ** 2)
    report(3, "zero-area pulse returns the state", worst <= 1e-8,
           f"worst P {worst:.2e}")


def test_criterion_04_sign_flip_conjugation():
    rng = np.random.default_rng(13)
    cfg = SimConfig(window_half_width=100.0)
    worst = 0.0
    for _ in range(20):
        p = ParabolicParams(b=rng.uniform(0.1, 3.0), c=rng.uniform(-4.0, 8.0),
                            a=rng.uniform(0.5, 2.0))
        ref = parabolic(p)
        var = phase_jump(ref)
        t_half = auto_window(ref)
        for t in (1.0, 2.0, t_half):
            u_ref = propagate(ref, 0.0, t, cfg)
            u_var = propagate(var, 0.0, t, cfg)
            diff = np.max(np.abs(u_var.matrix - SZ @ u_ref.matrix @ SZ))
            worst = max(worst, float(diff))
    report(4, "sign flip acts as sigma_z conjugation", worst <= 1e-9,
           f"worst entry diff {worst:.2e}")


def test_criterion_05_glancing_maximum():
    grid = tuple(round(0.05 * k, 10) for k in range(101))
    spec = SweepSpec(grid=grid, c=0.0, param="b", methods=("numeric",))
    table = run_sweep(spec)
    peak = max(table.column("numeric"))
    ok = 0.50 <= peak <= 0.62 and abs(peak - ORACLE_GLANCING_PEAK) <= 0.01
    report(5, "glancing maximum slightly above one half", ok, f"peak {peak:.4f}")


def test_criterion_06_independent_crossing_agreement():
    worst = 0.0
    for b in np.arange(0.05, 2.0001, 0.05):
        p = ParabolicParams(b=float(b), c=10.0)
        lam = lz_parameter(p)
        r = math.exp(-0.5 * math.pi * lam)
        closed = 4 * r * r * (1 - r * r) * math.sin(
            dynamical_phase(p) + stokes_phase(lam)) ** 2
        numeric = transition_probability(parabolic(p))
        worst = max(worst, abs(numeric - closed))
    spot = transition_probability(parabolic(ParabolicParams(b=1.0, c=10.0)),
                                  SimConfig(window_half_width=10.5))
    pinned_ok = abs(spot - ORACLE_DC_C10_B1) <= 1e-6
    report(6, "independent-crossing formula tracks numerics",
           worst <= 0.05 and pinned_ok, f"worst |dP| {worst:.4f}")


def test_criterion_07_universal_formula_in_tunnelling():
    worst = 0.0
    for b in np.arange(5.0, 20.001, 1.0):
        m = phase_jump(parabolic(ParabolicParams(b=float(b), c=-10.0)))
        numeric = transition_probability(m)
        univ = b * b / (b * b + 100.0)
        worst = max(worst, abs(numeric - univ))
    spot = transition_probability(
        phase_jump(parabolic(ParabolicParams(b=10.0, c=-10.0))),
        SimConfig(window_half_width=45.0))
    spot_ok = abs(spot - ORACLE_TUNNEL_C10_B10) <= 1e-6
    report(7, "universal formula in the tunnelling regime",
           worst <= 0.02 and spot_ok, f"worst |dP| {worst:.4f}")


def test_criterion_08_phase_jump_inversion_at_glancing():
    grid = tuple(round(ORACLE_CPI_THRESHOLD + 0.1 * k, 10) for k in range(30))
    spec = SweepSpec(grid=grid, c=0.0, param="b", phase_jump=True,
                     methods=("numeric",))
    table = run_sweep(spec)
    lowest = min(table.column("numeric"))
    report(8, "complete inversion beyond pinned coupling threshold",
           lowest >= 0.99, f"min P {lowest:.4f} for b >= {ORACLE_CPI_THRESHOLD}")


def test_criterion_09_superparabolic_coincidence():
    worst = 0.0
    for b in np.arange(POST_OSCILLATION_B, 10.001, 1.0):
        p1 = transition_probability(
            phase_jump(parabolic(ParabolicParams(b=float(b), c=-4.0))))
        p2 = transition_probability(
            phase_jump(superparabolic(ParabolicParams(b=float(b), c=-4.0, n=2))))
        worst = max(worst, abs(p1 - p2))
    report(9, "tunnelling curves coincide across the model family",
           worst <= 0.02, f"worst |dP| {worst:.4f}")


def test_criterion_10_performance():
    m = parabolic(ParabolicParams(b=1.0, c=1.0))
    transition_probability(m)  # warm caches
    single = min(timed(lambda: transition_probability(m)) for _ in range(3))
    grid = tuple(round(5.0 * k / 299, 10) for k in range(300))
    spec = SweepSpec(grid=grid, c=0.0, param="b", methods=("numeric",))
    start = time.perf_counter()
    run_sweep(spec)
    sweep_time = time.perf_counter() - start
    report(10, "single evaluation and 300-point sweep within budget",
           single <= 0.100 and sweep_time <= 30.0,
           f"single {1e3 * single:.0f} ms, sweep {sweep_time:.1f} s")


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
