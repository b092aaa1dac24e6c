"""Parameter sweeps, figure datasets, convergence reports, CSV output.

A sweep evaluates one model family over a grid of one parameter with a chosen
set of methods (direct numerics plus the closed-form approximations) and
collects the results into a rectangular table, one row per grid point in grid
order; identical inputs produce identical tables.  ``METHODS`` maps each
method name to the one function that evaluates its column over the grid,
which the CLI's ``simulate`` uses as well.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, PhasejumpError
from .models import (
    DriveModel,
    ParabolicParams,
    _check_parity,
    constant_detuning_pulse,
    parabolic,
    phase_jump,
    superparabolic,
)
from .analytic import _ica_rows, _raised, _sz_conj, _universal
from .propagation import (
    SimConfig,
    _mirror,
    _readout,
    _resolve_window,
    propagate,
    transition_probability,
)

__all__ = [
    "METHODS",
    "FAMILIES",
    "SweepSpec",
    "SweepTable",
    "run_sweep",
    "reproduce_figure",
    "ConvergenceReport",
    "convergence_report",
    "write_csv",
    "build_model",
]

FAMILIES = ("parabolic", "superparabolic", "const-detuning")

FIGURE_IDS = ("fig2", "fig3", "fig4", "fig5", "fig6")

# Default sweep grid: b from 0 to 5 in steps of 0.025.
DEFAULT_GRID_STEP = 0.025
DEFAULT_GRID_MAX = 5.0


def _linear_grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """start, start + step, ... up to stop (inclusive, to the nearest step), rounded to 12 places."""
    where = f"start={start}, stop={stop}, step={step}"
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise InvalidArgumentError(f"grid bounds and step must be finite, got {where}")
    if step <= 0.0 or stop < start:
        raise InvalidArgumentError(f"grid needs step > 0 and stop >= start, got {where}")
    count = (stop - start) / step
    if not math.isfinite(count):
        raise InvalidArgumentError(f"grid has too many points: {where}")
    return tuple(round(start + k * step, 12) for k in range(int(round(count)) + 1))


def default_grid(step: float = DEFAULT_GRID_STEP, stop: float = DEFAULT_GRID_MAX) -> tuple[float, ...]:
    return _linear_grid(0.0, stop, step)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: model family, fixed parameters, swept parameter and methods.

    For the const-detuning family the generic keys map as: c is the detuning,
    b the pulse amplitude and a the pulse half-width.
    """

    grid: tuple[float, ...]
    family: str = "parabolic"
    a: float = 1.0
    b: float = 0.0
    c: float = 0.0
    n: int = 1
    phase_jump: bool = False
    param: str = "b"
    methods: tuple[str, ...] = ("numeric",)
    config: SimConfig = field(default_factory=SimConfig)

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(float(g) for g in self.grid))
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.family not in FAMILIES:
            raise InvalidArgumentError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.param not in ("b", "c"):
            raise InvalidArgumentError(f"swept parameter must be 'b' or 'c', got {self.param!r}")
        if not self.grid:
            raise InvalidArgumentError("sweep grid must be non-empty")
        if any(y <= x for x, y in zip(self.grid, self.grid[1:])):
            raise InvalidArgumentError("sweep grid must be strictly increasing")
        if not self.methods:
            raise InvalidArgumentError("need at least one method")
        for m in self.methods:
            if m not in METHODS:
                raise InvalidArgumentError(f"unknown method {m!r}; choose from {tuple(METHODS)}")

    def params_at(self, value: float) -> dict:
        kw = {"a": self.a, "b": self.b, "c": self.c, "n": self.n}
        kw[self.param] = value
        return kw


def build_model(spec: SweepSpec, value: float) -> DriveModel:
    """Instantiate the drive model of ``spec`` with the swept parameter set to ``value``."""
    kw = spec.params_at(value)
    if spec.family == "const-detuning":
        m = constant_detuning_pulse(delta=kw["c"], amplitude=kw["b"], half_width=kw["a"])
    else:
        family = parabolic if spec.family == "parabolic" else superparabolic
        m = family(ParabolicParams(b=kw["b"], c=kw["c"], a=kw["a"], n=kw["n"]))
    if spec.phase_jump:
        m = phase_jump(m)
    return m


# ---------------------------------------------------------------------------
# methods: name -> f(spec), the method's column over spec.grid: for each grid
# point a probability (NaN where the method does not apply), or the
# PhasejumpError that the point raised
# ---------------------------------------------------------------------------

def _ica_inapplicable(family: str, n: int, c: Optional[float]) -> Optional[str]:
    """Why the independent-crossing methods do not apply, or None if they do.

    ``c`` of None skips the crossing check, for a sweep over c.
    """
    if family == "const-detuning":
        return "independent-crossing methods apply to the parabolic family only"
    if n != 1:
        return "independent-crossing methods are defined for n=1 only"
    if c is not None and not c > 0.0:
        return f"independent-crossing methods need a double crossing (c > 0), got c={c:g}"
    return None


def _swept(spec: SweepSpec):
    """Arrays of a, b and c with one element per grid point, and {row: error}
    for the grid points whose model does not build.

    Rows whose swept value fails the checks that depend on it (finite b and c,
    b >= 0) are built one by one.  For the others only spec-wide settings are
    left to fail, so one of them stands for all.
    """
    grid = np.array(spec.grid)
    a, b, c = (grid if spec.param == key else np.full(grid.shape, getattr(spec, key), dtype=float)
               for key in ("a", "b", "c"))
    with np.errstate(invalid="ignore"):
        ok = np.isfinite(b) & np.isfinite(c) & (b >= 0.0)
    build = functools.partial(build_model, spec)
    rows = np.flatnonzero(~ok)
    first = np.flatnonzero(ok)[:1]
    if first.size and _raised(build, spec.grid[first[0]]) is not None:
        rows = range(len(spec.grid))
    errors = {}
    for k in rows:
        exc = _raised(build, spec.grid[k])
        if exc is not None:
            errors[int(k)] = exc
    return a, b, c, errors


def _column(values, errors: dict) -> list:
    out = values.tolist()
    for k, exc in errors.items():
        out[k] = exc
    return out


def _numeric(spec):
    out = []
    for value in spec.grid:
        try:
            out.append(transition_probability(build_model(spec, value), spec.config))
        except PhasejumpError as exc:
            out.append(exc)
    return out


def _ica_column(spec: SweepSpec, phase_jump: bool) -> list:
    p = np.full(len(spec.grid), math.nan)
    if _ica_inapplicable(spec.family, spec.n, None) is not None:
        return p.tolist()
    a, b, c, errors = _swept(spec)
    # the per-point rule of _ica_inapplicable: no double crossing is NaN, not a failure
    applicable = c > 0.0
    errors = {k: exc for k, exc in errors.items() if applicable[k]}
    applicable[list(errors)] = False
    rows = np.flatnonzero(applicable)
    if rows.size:
        ica = _ica_rows(a[rows], b[rows], c[rows], phase_jump)
        p[rows] = ica.p
        errors.update((int(rows[k]), exc) for k, exc in ica.errors.items())
    return _column(p, errors)


def _universal_column(spec: SweepSpec) -> list:
    """V(0) = b and |alpha(0)| = |c| in every family, with or without the jump."""
    _, b, c, errors = _swept(spec)
    return _column(_universal(b, c), errors)


METHODS = {
    "numeric": _numeric,
    "ica-reference": functools.partial(_ica_column, phase_jump=False),
    "ica-phase-jump": functools.partial(_ica_column, phase_jump=True),
    "universal": _universal_column,
}


@dataclass(frozen=True)
class SweepTable:
    """Rectangular result set: named columns, numeric rows, metadata lines."""

    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    metadata: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise InvalidArgumentError(
                    f"row width {len(row)} does not match {len(self.columns)} columns"
                )
        for j, name in enumerate(self.columns):
            if name in METHODS or name.startswith("numeric"):
                for row in self.rows:
                    x = row[j]
                    if not math.isnan(x) and not 0.0 <= x <= 1.0:
                        raise InvalidArgumentError(
                            f"probability column {name!r} out of range: {x}"
                        )

    def column(self, name: str) -> tuple[float, ...]:
        j = self.columns.index(name)
        return tuple(row[j] for row in self.rows)

    def meta(self, key: str) -> Optional[str]:
        for k, v in self.metadata:
            if k == key:
                return v
        return None

    def with_metadata(self, *pairs: tuple[str, str]) -> "SweepTable":
        # a copy, not dataclasses.replace: the rows were checked when this table was built
        table = copy.copy(self)
        object.__setattr__(table, "metadata", self.metadata + tuple(pairs))
        return table


def _spec_digest(spec: SweepSpec) -> str:
    return hashlib.sha256(repr(spec).encode()).hexdigest()[:12]


def _first_label(spec: SweepSpec) -> Optional[str]:
    """Label of the model at the first grid point where one builds, None if none does."""
    for value in spec.grid:
        try:
            return build_model(spec, value).label
        except PhasejumpError:
            pass
    return None


def _metadata(spec: SweepSpec, notes) -> tuple[tuple[str, str], ...]:
    """The sweep's metadata lines, with one diagnostic per failed evaluation."""
    label = _first_label(spec)
    metadata = [] if label is None else [("label", label)]
    metadata += [
        ("family", spec.family),
        ("swept", spec.param),
        ("phase_jump", str(spec.phase_jump).lower()),
        ("config", repr(spec.config)),
        ("spec_hash", _spec_digest(spec)),
        ("timestamp", time.strftime("%Y-%m-%dT%H:%M:%S%z")),
    ]
    metadata += [("diagnostic", note) for note in notes]
    return tuple(metadata)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate each method's column and gather the rows in grid order.

    A point where a method raised gets NaN in that column, one more failure
    and a diagnostic; every row is kept.
    """
    columns = [METHODS[m](spec) for m in spec.methods]
    rows = []
    notes = []
    for k, value in enumerate(spec.grid):
        row = [value]
        failures = 0
        for method, column in zip(spec.methods, columns):
            x = column[k]
            if isinstance(x, PhasejumpError):
                notes.append(f"{spec.param}={value:g} {method}: {x}")
                failures += 1
                x = math.nan
            row.append(x)
        row.append(float(failures))
        rows.append(tuple(row))
    return SweepTable(columns=(spec.param, *spec.methods, "failures"), rows=tuple(rows),
                      metadata=_metadata(spec, notes))


def _fig6_row(spec: SweepSpec, b: float):
    """Reference and phase-jump probabilities at one b, from one half of the reference.

    With U+ = U(T, 0) of the even reference, its window propagator is
    ``_mirror(U+, 1)``.  The jump at t = 0 flips the coupling's sign for
    t > 0, so the jump variant's propagator is sz ``_mirror(U+, -1)`` sz.
    Both are read as ``transition_probability`` reads them.
    """
    cfg = spec.config
    try:
        model = build_model(spec, b)
        t_half = _resolve_window(model, cfg)
        _check_parity(model)
        half = propagate(model, 0.0, t_half, cfg).entries[:2]
        auto = cfg.window_half_width is None
        ref = _readout(_mirror(half, 1), model, t_half, auto)
        jump = _readout(_sz_conj(_mirror(half, -1)), phase_jump(model), t_half, auto)
    except PhasejumpError as exc:
        return (b, math.nan, math.nan), [f"b={b:g} numeric: {exc}"]
    return (b, ref, jump), []


# Figure datasets.  fig4's c values are not listed in the source material; the
# fig3 set is assumed by parallelism of presentation (flagged in metadata).
_FIG_SETS = {
    "fig2": {"cs": (0.0, -0.1, -0.5, -1.0), "phase_jump": False, "methods": ("numeric",)},
    "fig3": {"cs": (0.5, 1.0, 10.0), "phase_jump": False, "methods": ("numeric", "ica-reference")},
    "fig4": {"cs": (0.5, 1.0, 10.0), "phase_jump": True,
             "methods": ("numeric", "ica-phase-jump", "universal")},
    "fig5": {"cs": (-1.0, -4.0, -10.0), "phase_jump": True, "methods": ("numeric", "universal")},
}


def reproduce_figure(
    fig_id: str,
    b_grid: Optional[tuple[float, ...]] = None,
    config: Optional[SimConfig] = None,
) -> list[SweepTable]:
    """Produce the sweep tables behind one of the figure datasets (fig2..fig6)."""
    if fig_id not in FIGURE_IDS:
        raise InvalidArgumentError(f"unknown figure id {fig_id!r}; choose from {FIGURE_IDS}")
    grid = tuple(b_grid) if b_grid is not None else default_grid()
    cfg = config if config is not None else SimConfig()

    if fig_id == "fig6":
        spec = SweepSpec(grid=grid, c=0.0, param="b", methods=("numeric",), config=cfg)
        results = [_fig6_row(spec, b) for b in grid]
        return [SweepTable(
            columns=("b", "numeric-reference", "numeric-phase-jump"),
            rows=tuple(row for row, _ in results),
            metadata=(("figure", "fig6"), ("c", "0"))
            + _metadata(spec, [note for _, notes in results for note in notes]),
        )]

    fig = _FIG_SETS[fig_id]
    tables = []
    for c in fig["cs"]:
        spec = SweepSpec(grid=grid, c=c, param="b", phase_jump=fig["phase_jump"],
                         methods=fig["methods"], config=cfg)
        table = run_sweep(spec).with_metadata(("figure", fig_id), ("c", f"{c:g}"))
        if fig_id == "fig4":
            table = table.with_metadata(
                ("note", "c values assumed equal to the fig3 set")
            )
        tables.append(table)
    return tables


# ---------------------------------------------------------------------------
# convergence report
# ---------------------------------------------------------------------------

CONVERGENCE_DELTA = 1e-6


@dataclass(frozen=True)
class ConvergenceReport:
    """Probability versus doubled window and halved tolerance."""

    window_rows: tuple[tuple[float, float], ...]  # (half_width, probability)
    tolerance_rows: tuple[tuple[float, float], ...]  # (tolerance, probability)
    window_converged: bool
    tolerance_converged: bool

    @property
    def converged(self) -> bool:
        return self.window_converged and self.tolerance_converged

    def to_text(self) -> str:
        lines = []
        for name, fmt, rows in (("T", "14.6f", self.window_rows),
                                ("tol", "14.3e", self.tolerance_rows)):
            lines.append(f"{name:>14}  {'P':>18}  {'|delta|':>10}")
            prev = None
            for x, p in rows:
                d = "" if prev is None else f"{abs(p - prev):10.3e}"
                lines.append(f"{x:{fmt}}  {p:18.12f}  {d}")
                prev = p
        status = "converged" if self.converged else "NOT converged"
        lines.append(f"{status} (threshold {CONVERGENCE_DELTA:g})")
        return "\n".join(lines)


def convergence_report(model: DriveModel, cfg: SimConfig = SimConfig()) -> ConvergenceReport:
    """Tabulate P against doubled windows and halved tolerance.

    Windows double from the configured half-width, or from the automatic
    window of ``transition_probability``, at most three times, until two
    successive probabilities differ by less than ``CONVERGENCE_DELTA``; the
    tolerance check then halves the local error tolerance at the final
    window.  Every window is read in the first superadiabatic basis at its
    edges, the reading that settles as the window grows.
    """
    def probability(t_half, c):
        u = propagate(model, -t_half, t_half, c)
        return _readout(u.entries[:2], model, t_half, superadiabatic=True)

    t0 = cfg.window_half_width if cfg.window_half_width is not None else _resolve_window(model, cfg)
    window_rows = [(t0, probability(t0, cfg))]
    window_converged = False
    t = t0
    for _ in range(3):
        t *= 2.0
        window_rows.append((t, probability(t, cfg)))
        if abs(window_rows[-1][1] - window_rows[-2][1]) < CONVERGENCE_DELTA:
            window_converged = True
            break
    final_t = window_rows[-1][0]
    half_tol = replace(cfg, local_error_tol=cfg.local_error_tol / 2.0)
    tolerance_rows = (
        (cfg.local_error_tol, window_rows[-1][1]),
        (half_tol.local_error_tol, probability(final_t, half_tol)),
    )
    tolerance_converged = abs(tolerance_rows[1][1] - tolerance_rows[0][1]) < CONVERGENCE_DELTA
    return ConvergenceReport(
        window_rows=tuple(window_rows),
        tolerance_rows=tolerance_rows,
        window_converged=window_converged,
        tolerance_converged=tolerance_converged,
    )


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def write_csv(table: SweepTable, destination) -> None:
    """Write a sweep table as UTF-8 CSV.

    Metadata goes first as '#'-prefixed comment lines, then the header row,
    then one line per row with every number in round-trip precision scientific
    notation (missing values as the literal NaN).
    """
    head = "".join(f"# {k}: {v}\n" for k, v in table.metadata) + ",".join(table.columns) + "\n"
    # one format operation per row; it prints every NaN, -nan included, as
    # "nan", and no other value it prints holds those letters
    fmt = ",".join(["%.16e"] * len(table.columns)) + "\n"
    text = head + "".join([fmt % row for row in table.rows]).replace("nan", "NaN")
    if hasattr(destination, "write"):
        destination.write(text)
        return
    path = Path(destination)
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"failed to write sweep table to {path}: {exc}") from exc
