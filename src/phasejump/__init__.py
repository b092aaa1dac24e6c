"""Coherent two-level dynamics under parabolic-class drives with phase-jump couplings.

Simulation core (exact-per-step SU(2) propagation), drive-model catalog,
adiabatic-frame machinery, closed-form crossing approximations, and the sweep
and CLI layers that compare them.
"""

from .errors import (
    ConvergenceError,
    DegenerateFieldError,
    InternalConsistencyError,
    InvalidArgumentError,
    NoCrossingError,
    PhasejumpError,
    QuadratureError,
    WindowTooSmallError,
)
from .models import (
    DriveModel,
    FieldSample,
    ParabolicParams,
    constant_detuning_pulse,
    parabolic,
    phase_jump,
    pulse_area,
    sample,
    superparabolic,
)
from .propagation import (
    SimConfig,
    Unitary2,
    auto_window,
    propagate,
    su2_exp,
    transition_probability,
)
from .adiabatic import (
    AdiabaticSample,
    adiabatic_sample,
    mixing_angle,
    rotation,
)
from .analytic import (
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
from .sweeps import (
    ConvergenceReport,
    SweepSpec,
    SweepTable,
    convergence_report,
    reproduce_figure,
    run_sweep,
    write_csv,
)

__version__ = "0.1.0"
