"""Traced mode: spans and counts around the calls into each layer of the package.

The tracer replaces the package's public layer functions with wrappers, in
every package module that holds a reference to them (so the names that
``sweeps`` and ``cli`` import are covered too), and wraps the field callables
of every model ``sweeps.build_model`` returns to count evaluations.  Nothing in
the package itself changes; untraced runs never install the tracer.

Spans (name, start, end, parent, operation id, field evaluations inside, one
extra value) are kept in memory as compact arrays and written out when the run
ends.  Self time of a span is its duration minus the durations of its child
spans; the per-layer metrics are sums of self times and counts divided by the
number of operations.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from dataclasses import replace

import numpy as np

# (module, attribute) of each public layer function that gets a span
SPANNED = (
    ("sweeps", "build_model"),
    ("propagation", "auto_window"),
    ("propagation", "propagate"),
    ("propagation", "transition_probability"),
    ("adiabatic", "to_adiabatic"),
    ("analytic", "dynamical_phase"),
    ("analytic", "stokes_phase"),
    ("analytic", "lz_scattering"),
    ("analytic", "ica_propagator_reference"),
    ("analytic", "ica_propagator_phase_jump"),
    ("analytic", "universal_probability"),
    ("sweeps", "run_sweep"),
    ("sweeps", "reproduce_figure"),
    ("sweeps", "convergence_report"),
    ("sweeps", "write_csv"),
    ("cli", "main"),
)
# functions whose calls are only counted: they are cheap and called from
# several layers, so their time stays in the caller's self time
COUNTED = (("adiabatic", "rotation"),)

_FIELD_ATTRS = ("alpha_fn", "v_fn", "phi_fn", "alpha_dot_fn", "v_dot_fn")

# (metric, unit) in the order they are reported
PER_LAYER = (
    ("models.field_evals_per_op", "count"),
    ("sweeps.build_model_us", "us"),
    ("propagation.propagate_ms", "ms"),
    ("propagation.propagate_field_evals", "count"),
    ("propagation.us_per_field_eval", "us"),
    ("propagation.field_evals_per_window_unit", "count"),
    ("propagation.auto_window_ms", "ms"),
    ("propagation.auto_window_field_evals", "count"),
    ("propagation.window_half_width", "model_time"),
    ("propagation.readout_us", "us"),
    ("adiabatic.to_adiabatic_us", "us"),
    ("adiabatic.to_adiabatic_calls", "count"),
    ("adiabatic.rotation_calls", "count"),
    ("analytic.dynamical_phase_us", "us"),
    ("analytic.lz_scattering_us", "us"),
    ("analytic.ica_compose_us", "us"),
    ("analytic.universal_us", "us"),
    ("sweeps.run_sweep_self_ms", "ms"),
    ("sweeps.write_csv_ms", "ms"),
    ("sweeps.csv_bytes", "count"),
    ("sweeps.convergence_self_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("traced.ops_per_s", "1/s"),
)


class Tracer:
    """In-memory span and count recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.evals = array("q")
        self.extra = array("d")
        self.counts: dict[str, int] = {}
        self.field_evals = 0
        self.op_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self, modules: dict) -> None:
        for mod_name, attr in SPANNED + COUNTED:
            original = getattr(modules[mod_name], attr, None)
            if original is None:
                continue
            label = f"{mod_name}.{attr}"
            if (mod_name, attr) in COUNTED:
                wrapper = self._counting(label, original)
            else:
                wrapper = self._spanning(label, original)
            for module in modules.values():
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def _counting(self, label, fn):
        counts = self.counts
        counts.setdefault(label, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanning(self, label, fn):
        name_id = self._name_ids[label] = len(self.names)
        self.names.append(label)
        clock = time.perf_counter
        stack = self._stack
        extra_of = _EXTRA.get(label)
        post = _POST.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.evals.append(0)
            self.extra.append(0.0)
            stack.append(idx)
            evals0 = self.field_evals
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
                self.evals[idx] = self.field_evals - evals0
            if extra_of is not None:
                self.extra[idx] = extra_of(args, kwargs, result)
            return post(self, result) if post is not None else result

        return wrapper

    def count_fields(self, model):
        """Copy of ``model`` whose field callables bump the evaluation counter."""
        wrapped = {}
        for attr in _FIELD_ATTRS:
            fn = getattr(model, attr, None)
            if fn is not None:
                wrapped[attr] = self._field_counter(fn)
        return replace(model, **wrapped)

    def _field_counter(self, fn):
        def counted(t):
            self.field_evals += 1
            return fn(t)

        return counted

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            field_evals=np.frombuffer(self.evals, dtype=np.int64),
            extra=np.frombuffer(self.extra, dtype=np.float64),
            count_names=np.array(list(self.counts)),
            count_values=np.array(list(self.counts.values()), dtype=np.int64),
        )

    def per_layer(self, ops: int, op_seconds: float) -> dict:
        """Every per-layer metric, normalised per operation; 0 where a layer did no work."""
        n = len(self.start)
        name = np.frombuffer(self.name, dtype=np.uint16)[:n]
        dur = np.frombuffer(self.end, dtype=np.float64)[:n] - np.frombuffer(self.start, dtype=np.float64)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        evals = np.frombuffer(self.evals, dtype=np.int64)[:n]
        extra = np.frombuffer(self.extra, dtype=np.float64)[:n]
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n) if n else dur
        self_time = dur - children

        def sel(label):
            return name == self._name_ids.get(label, -1)

        def total(values, *labels):
            return float(sum(values[sel(label)].sum() for label in labels))

        def calls(label):
            return int(sel(label).sum())

        prop_evals = total(evals, "propagation.propagate")
        prop_time = total(dur, "propagation.propagate")
        prop_span = total(extra, "propagation.propagate")
        windows = calls("propagation.auto_window")
        per_op = 1.0 / ops
        values = {
            "models.field_evals_per_op": self.field_evals * per_op,
            "sweeps.build_model_us": 1e6 * total(dur, "sweeps.build_model") * per_op,
            "propagation.propagate_ms": 1e3 * prop_time * per_op,
            "propagation.propagate_field_evals": prop_evals * per_op,
            "propagation.us_per_field_eval": 1e6 * prop_time / prop_evals if prop_evals else 0.0,
            "propagation.field_evals_per_window_unit": prop_evals / prop_span if prop_span else 0.0,
            "propagation.auto_window_ms": 1e3 * total(dur, "propagation.auto_window") * per_op,
            "propagation.auto_window_field_evals": total(evals, "propagation.auto_window") * per_op,
            "propagation.window_half_width": (
                total(extra, "propagation.auto_window") / windows if windows else 0.0
            ),
            "propagation.readout_us": 1e6 * total(self_time, "propagation.transition_probability") * per_op,
            "adiabatic.to_adiabatic_us": 1e6 * total(self_time, "adiabatic.to_adiabatic") * per_op,
            "adiabatic.to_adiabatic_calls": calls("adiabatic.to_adiabatic") * per_op,
            "adiabatic.rotation_calls": self.counts.get("adiabatic.rotation", 0) * per_op,
            "analytic.dynamical_phase_us": 1e6 * total(self_time, "analytic.dynamical_phase") * per_op,
            "analytic.lz_scattering_us": (
                1e6 * total(self_time, "analytic.lz_scattering", "analytic.stokes_phase") * per_op
            ),
            "analytic.ica_compose_us": 1e6 * total(
                self_time, "analytic.ica_propagator_reference", "analytic.ica_propagator_phase_jump"
            ) * per_op,
            "analytic.universal_us": 1e6 * total(self_time, "analytic.universal_probability") * per_op,
            "sweeps.run_sweep_self_ms": 1e3 * total(self_time, "sweeps.run_sweep") * per_op,
            "sweeps.write_csv_ms": 1e3 * total(self_time, "sweeps.write_csv") * per_op,
            "sweeps.csv_bytes": total(extra, "sweeps.write_csv") * per_op,
            "sweeps.convergence_self_ms": 1e3 * total(self_time, "sweeps.convergence_report") * per_op,
            "cli.self_ms": 1e3 * total(self_time, "cli.main") * per_op,
            "traced.ops_per_s": ops / op_seconds,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def _propagate_span(args, kwargs, result):
    t0 = args[1] if len(args) > 1 else kwargs["t0"]
    t1 = args[2] if len(args) > 2 else kwargs["t1"]
    return abs(t1 - t0)


def _csv_bytes(args, kwargs, result):
    destination = args[1] if len(args) > 1 else kwargs["destination"]
    try:
        return float(os.path.getsize(destination))
    except (OSError, TypeError):
        return 0.0


# extra value stored with a span: the interval length of a propagation, the
# half-width an automatic window chose, the size of a written CSV file
_EXTRA = {
    "propagation.propagate": _propagate_span,
    "propagation.auto_window": lambda args, kwargs, result: float(result),
    "sweeps.write_csv": _csv_bytes,
}
# applied to a span's result after the span closes
_POST = {"sweeps.build_model": lambda tracer, model: tracer.count_fields(model)}
