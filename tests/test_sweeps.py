"""Sweep engine, figure datasets, convergence reports, CSV round trips."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasejump.errors import InvalidArgumentError, PhasejumpError
from phasejump.models import (
    ParabolicParams,
    constant_detuning_pulse,
    parabolic,
    phase_jump,
    sample,
)
from phasejump.propagation import SimConfig, transition_probability
from phasejump.sweeps import (
    FAMILIES,
    METHODS,
    ConvergenceReport,
    SweepSpec,
    SweepTable,
    build_model,
    convergence_report,
    default_grid,
    reproduce_figure,
    run_sweep,
    write_csv,
)

FAST = SimConfig(local_error_tol=1e-8)


def strip_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("# timestamp")
    )


def render(table) -> str:
    buf = io.StringIO()
    write_csv(table, buf)
    return buf.getvalue()


class TestSweepSpec:
    def test_defaults(self):
        spec = SweepSpec(grid=(0.0, 1.0))
        assert spec.methods == ("numeric",)
        assert spec.param == "b"

    @pytest.mark.parametrize("kwargs", [
        dict(grid=()),
        dict(grid=(1.0, 1.0)),
        dict(grid=(2.0, 1.0)),
        dict(grid=(0.0,), methods=()),
        dict(grid=(0.0,), methods=("nope",)),
        dict(grid=(0.0,), param="x"),
        dict(grid=(0.0,), family="gaussian"),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            SweepSpec(**kwargs)

    def test_build_model_substitutes_param(self):
        spec = SweepSpec(grid=(0.5,), family="parabolic", c=2.0, param="b")
        m = build_model(spec, 0.5)
        assert m.v_fn(0.0) == 0.5
        assert m.alpha_fn(0.0) == -2.0

    def test_build_const_detuning_key_mapping(self):
        spec = SweepSpec(grid=(0.5,), family="const-detuning", a=2.0, c=0.3, param="b")
        m = build_model(spec, 1.5)
        assert m.alpha_fn(0.0) == 0.3
        assert m.v_fn(0.0) == 1.5
        assert m.discontinuities == (-2.0, 2.0)

    @pytest.mark.parametrize("family, a, n", [("parabolic", 1.0, 2), ("superparabolic", 2.0, 2)])
    def test_build_model_keeps_every_parameter(self, family, a, n):
        # parabolic() takes n = 1 only, and n > 1 fixes the curvature to 1
        spec = SweepSpec(grid=(1.0,), family=family, a=a, c=1.0, n=n)
        with pytest.raises(InvalidArgumentError):
            build_model(spec, 1.0)

    def test_build_superparabolic_n1_keeps_curvature(self):
        spec = SweepSpec(grid=(1.0,), family="superparabolic", a=2.0, c=1.0)
        assert build_model(spec, 1.0).alpha_fn(1.0) == 1.0


class TestRunSweep:
    def test_single_point_no_coupling(self):
        spec = SweepSpec(grid=(0.0,), c=1.0, methods=("numeric",), config=FAST)
        table = run_sweep(spec)
        assert table.columns == ("b", "numeric", "failures")
        assert table.rows[0][1] == 0.0
        assert table.rows[0][2] == 0.0

    def test_row_count_matches_grid(self):
        spec = SweepSpec(grid=(0.0, 0.5, 1.0), c=1.0, config=FAST)
        table = run_sweep(spec)
        assert len(table.rows) == 3
        assert [r[0] for r in table.rows] == [0.0, 0.5, 1.0]

    def test_inapplicable_methods_marked_missing(self):
        spec = SweepSpec(grid=(-1.0, 0.5), c=0.0, param="c", b=1.0,
                         methods=("numeric", "ica-reference", "universal"), config=FAST)
        table = run_sweep(spec)
        ica = table.column("ica-reference")
        assert math.isnan(ica[0])          # c = -1: no crossing
        assert not math.isnan(ica[1])      # c = 0.5: fine
        assert table.column("failures") == (0.0, 0.0)

    def test_universal_undefined_at_origin_is_missing(self):
        spec = SweepSpec(grid=(0.0,), c=0.0, b=0.0, methods=("universal",), config=FAST)
        table = run_sweep(spec)
        assert math.isnan(table.rows[0][1])

    def test_methods_against_direct_calls(self):
        from phasejump.analytic import ica_propagator_reference, universal_probability
        from phasejump.propagation import transition_probability
        spec = SweepSpec(grid=(0.8,), c=4.0,
                         methods=("numeric", "ica-reference", "universal"), config=FAST)
        row = run_sweep(spec).rows[0]
        p = ParabolicParams(b=0.8, c=4.0)
        assert row[1] == pytest.approx(transition_probability(parabolic(p), FAST))
        assert row[2] == pytest.approx(ica_propagator_reference(p).p)
        assert row[3] == pytest.approx(universal_probability(0.8, -4.0))

    def test_probabilities_in_unit_interval(self):
        spec = SweepSpec(grid=tuple(np.linspace(0.0, 3.0, 7)), c=1.0,
                         phase_jump=True, methods=("numeric", "universal"), config=FAST)
        table = run_sweep(spec)
        for name in ("numeric", "universal"):
            for x in table.column(name):
                assert math.isnan(x) or 0.0 <= x <= 1.0

    def test_subnormal_coupling_keeps_every_closed_form_row(self):
        spec = SweepSpec(grid=(0.0, 3e-162, 0.5), c=1.0, methods=("ica-reference",))
        table = run_sweep(spec)
        assert [r[0] for r in table.rows] == [0.0, 3e-162, 0.5]
        assert table.column("failures") == (0.0, 0.0, 0.0)
        assert not any(math.isnan(p) for p in table.column("ica-reference"))

    def test_unbuildable_points_are_failures(self):
        spec = SweepSpec(grid=(-1.0, -0.5, 0.0, 1.0), c=1.0, methods=("universal",))
        table = run_sweep(spec)
        assert math.isnan(table.rows[0][1]) and math.isnan(table.rows[1][1])
        assert table.column("universal")[2:] == (0.0, 0.5)
        assert table.column("failures") == (1.0, 1.0, 0.0, 0.0)
        assert table.meta("label") == "parabolic(a=1, b=0, c=1)"

    @pytest.mark.parametrize("kwargs, message", [
        (dict(n=2, methods=("universal",)), "parabolic() requires n=1, got n=2"),
        (dict(a=math.nan, methods=("universal", "ica-reference")), "a must be finite, got nan"),
        (dict(a=-1.0, methods=("ica-phase-jump",)), "curvature must be positive, got a=-1.0"),
    ])
    def test_spec_wide_rejection_fails_every_point(self, kwargs, message):
        table = run_sweep(SweepSpec(grid=(0.5, 1.0, 2.0), c=1.0, **kwargs))
        notes = [v for k, v in table.metadata if k == "diagnostic"]
        width = len(kwargs["methods"])
        assert len(notes) == 3 * width and all(n.endswith(message) for n in notes)
        assert table.column("failures") == (float(width),) * 3

    def test_no_buildable_point_omits_label(self):
        table = run_sweep(SweepSpec(grid=(-2.0, -1.0), c=1.0, methods=("universal",)))
        assert table.column("failures") == (1.0, 1.0)
        assert table.meta("label") is None

    def test_universal_at_overflowing_coupling(self):
        table = run_sweep(SweepSpec(grid=(5e199,), c=1.0, methods=("universal",)))
        assert table.rows[0][1:] == (1.0, 0.0)

    def test_deterministic_output(self):
        spec = SweepSpec(grid=(0.0, 1.0), c=3.0, methods=("numeric",), config=FAST)
        a = strip_timestamp(render(run_sweep(spec)))
        b = strip_timestamp(render(run_sweep(spec)))
        assert a == b

    @pytest.mark.parametrize("c", [1e-160, 3.0, 1e154])
    def test_phase_jump_without_coupling_is_exactly_zero(self, c):
        table = run_sweep(SweepSpec(grid=(0.0,), c=c, methods=("ica-phase-jump",)))
        assert table.rows[0][1:] == (0.0, 0.0)

    def test_c_sweep_without_crossing_is_missing_not_failed(self):
        grid = tuple(np.linspace(-2.0, 5.0, 29))
        table = run_sweep(SweepSpec(grid=grid, b=1.0, param="c",
                                    methods=("ica-reference", "ica-phase-jump")))
        assert table.column("failures") == (0.0,) * len(grid)
        for c, ref, jump, _ in table.rows:
            assert math.isnan(ref) == math.isnan(jump) == (c <= 0.0)


CLOSED_FORMS = ("ica-reference", "ica-phase-jump", "universal")


def diagnostics(table):
    return [v for k, v in table.metadata if k == "diagnostic"]


class TestExtremeRows:
    """A row the closed forms cannot evaluate fails alone; its neighbours keep their values."""

    def check_alone(self, full, plain, failing):
        rows = {row[0]: row for row in plain.rows}
        for row in full.rows:
            if row[0] in failing:
                assert math.isnan(row[1]) and math.isnan(row[2]) and row[4] == 2.0, row
            else:
                assert row[4] == 0.0 and 0.0 <= min(row[1:4]) <= max(row[1:4]) <= 1.0, row
                if row[0] in rows:
                    assert np.max(np.abs(np.subtract(row, rows[row[0]]))) <= 1e-13
        assert len(diagnostics(full)) == 2 * len(failing)

    def test_huge_couplings(self):
        ordinary = (0.0, 0.5, 1.0, 2.5, 4.0)
        failing = (1e154, 1e200, 1.7e308)
        grid = sorted(ordinary + (5e-324, 1e-160) + failing)
        full = run_sweep(SweepSpec(grid=grid, c=3.0, methods=CLOSED_FORMS))
        plain = run_sweep(SweepSpec(grid=ordinary, c=3.0, methods=CLOSED_FORMS))
        self.check_alone(full, plain, failing)
        assert all(d.startswith(("b=1e+154 ica-", "b=1e+200 ica-", "b=1.7e+308 ica-"))
                   for d in diagnostics(full))

    def test_huge_offset(self):
        ordinary = (0.5, 1.0, 3.0)
        # c^2 overflows in the phase integrand from c = 1.4e154 on
        failing = (1e200, 1e300)
        grid = sorted(ordinary + (5e-324, 1e-160, 1e154) + failing)
        full = run_sweep(SweepSpec(grid=grid, b=1.0, param="c", methods=CLOSED_FORMS))
        plain = run_sweep(SweepSpec(grid=ordinary, b=1.0, param="c", methods=CLOSED_FORMS))
        self.check_alone(full, plain, failing)

    def test_tiny_curvature_and_offset(self):
        table = run_sweep(SweepSpec(grid=(0.0, 1.0), a=1e-300, c=1e-300, methods=CLOSED_FORMS))
        assert table.column("failures") == (0.0, 0.0)
        assert all(0.0 <= x <= 1.0 for row in table.rows for x in row[1:4])

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=6, unique=True),
           other=st.floats(allow_nan=False, allow_infinity=False),
           a=st.floats(allow_nan=False, allow_infinity=False),
           param=st.sampled_from(("b", "c")))
    def test_float_extremes(self, values, other, a, param):
        spec = SweepSpec(grid=sorted(values), a=a, b=other, c=other, param=param,
                         methods=CLOSED_FORMS)
        for method in CLOSED_FORMS:
            for value, x in zip(spec.grid, METHODS[method](spec)):
                kw = spec.params_at(value)
                if isinstance(x, PhasejumpError):
                    continue
                if math.isnan(x):
                    # only the documented missing values: no crossing, or no field
                    assert (kw["b"] == kw["c"] == 0.0 if method == "universal"
                            else not kw["c"] > 0.0), (method, kw)
                else:
                    assert 0.0 <= x <= 1.0, (method, kw, x)
        run_sweep(spec)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("jump", [False, True])
def test_universal_column_reads_the_field_at_the_jump_from_the_spec(family, jump):
    # the universal column takes V(0) = b and |alpha(0)| = |c| without building
    # the model; a family for which this fails must not join FAMILIES silently
    shapes = [(1, 1.0), (1, 0.7)] + ([(2, 1.0), (3, 1.0)] if family == "superparabolic" else [])
    for n, a in shapes:
        for b, c in [(0.0, 0.0), (0.7, -3.0), (2.0, 1.5), (1e-160, 1e154), (3.0, 0.0)]:
            spec = SweepSpec(grid=(b,), family=family, a=a, c=c, n=n, phase_jump=jump)
            s = sample(build_model(spec, b), 0.0)
            assert s.v == b and abs(s.alpha) == abs(c), (n, a, b, c, s)


class TestSweepTable:
    def test_row_width_validation(self):
        with pytest.raises(InvalidArgumentError):
            SweepTable(columns=("b", "numeric"), rows=((0.0, 0.5, 1.0),))

    def test_probability_range_validation(self):
        with pytest.raises(InvalidArgumentError):
            SweepTable(columns=("b", "numeric"), rows=((0.0, 1.5),))

    def test_with_metadata_does_not_check_the_rows_again(self, monkeypatch):
        table = SweepTable(columns=("b", "numeric"), rows=((0.0, 0.5), (1.0, 0.25)),
                           metadata=(("k", "v"),))
        checked = []
        monkeypatch.setattr(SweepTable, "__post_init__", lambda self: checked.append(self))
        extended = table.with_metadata(("figure", "fig3"), ("c", "1"))
        assert checked == []
        assert extended.rows is table.rows and extended.columns == table.columns
        assert extended.metadata == (("k", "v"), ("figure", "fig3"), ("c", "1"))
        assert table.metadata == (("k", "v"),)

    def test_metadata_access(self):
        t = SweepTable(columns=("b",), rows=(), metadata=(("k", "v"),))
        assert t.meta("k") == "v"
        assert t.meta("missing") is None
        assert t.with_metadata(("x", "y")).meta("x") == "y"


class TestWriteCsv:
    def test_empty_table_is_header_and_comments_only(self):
        t = SweepTable(columns=("b", "numeric"), rows=(), metadata=(("label", "demo"),))
        text = render(t)
        assert text == "# label: demo\nb,numeric\n"

    def test_round_trip_floats(self):
        values = (0.1, 1.0 / 3.0, math.pi, 2.5e-17)
        t = SweepTable(columns=("b", "x", "y", "z"),
                       rows=(values,), metadata=())
        text = render(t)
        reader = csv.reader(io.StringIO(text.splitlines()[-1] + "\n"))
        parsed = tuple(float(tok) for tok in next(reader))
        assert parsed == values

    def test_nan_written_as_literal(self):
        t = SweepTable(columns=("b", "numeric"), rows=((0.0, math.nan),))
        assert "NaN" in render(t).splitlines()[-1]
        assert math.isnan(float("NaN"))

    @pytest.mark.parametrize("rows", [
        ((0.0, math.nan, -0.0, 5e-324, 1.7e308),
         (math.inf, -math.nan, 1.0, 0.0, -1.7e308),
         (-math.inf, 0.25, math.nan, 1.0 / 3.0, -5e-324)),
        (),
    ])
    def test_rows_as_each_value_alone(self, rows):
        t = SweepTable(columns=("b", "x", "y", "z", "w"), rows=rows, metadata=(("k", "nan"),))
        want = ["# k: nan", "b,x,y,z,w"]
        want += [",".join("NaN" if math.isnan(x) else f"{x:.16e}" for x in row) for row in rows]
        assert render(t) == "\n".join(want) + "\n"

    def test_file_destination(self, tmp_path):
        t = SweepTable(columns=("b",), rows=((1.0,),))
        path = tmp_path / "out" / "table.csv"
        path.parent.mkdir()
        write_csv(t, path)
        assert path.read_text().endswith("1.0000000000000000e+00\n")

    def test_io_error_has_path_context(self, tmp_path):
        t = SweepTable(columns=("b",), rows=())
        with pytest.raises(OSError, match="missing-dir"):
            write_csv(t, tmp_path / "missing-dir" / "t.csv")


COARSE = tuple(np.linspace(0.0, 5.0, 11))


class TestFigures:
    def test_unknown_figure_rejected(self):
        with pytest.raises(InvalidArgumentError):
            reproduce_figure("fig7")

    def test_fig3_structure(self):
        tables = reproduce_figure("fig3", b_grid=(0.5, 1.0), config=FAST)
        assert len(tables) == 3
        assert [t.meta("c") for t in tables] == ["0.5", "1", "10"]
        for t in tables:
            assert t.columns == ("b", "numeric", "ica-reference", "failures")
            assert t.meta("figure") == "fig3"

    def test_fig4_notes_assumed_c_values(self):
        tables = reproduce_figure("fig4", b_grid=(1.0,), config=FAST)
        assert all(t.meta("note") for t in tables)
        assert all(t.columns == ("b", "numeric", "ica-phase-jump", "universal", "failures")
                   for t in tables)

    def test_fig2_tunnelling_suppression(self):
        tables = reproduce_figure("fig2", b_grid=COARSE, config=FAST)
        assert [t.meta("c") for t in tables] == ["0", "-0.1", "-0.5", "-1"]
        glancing = tables[0].column("numeric")
        deep = tables[3].column("numeric")
        # pointwise suppression holds above the finite-window ripple floor
        assert all(d <= g + 2e-4 for g, d in zip(glancing, deep))
        assert max(deep) < 0.1 * max(glancing)

    def test_fig5_universal_column(self):
        tables = reproduce_figure("fig5", b_grid=(2.0, 4.0), config=FAST)
        assert [t.meta("c") for t in tables] == ["-1", "-4", "-10"]
        t10 = tables[2]
        universal = t10.column("universal")
        assert universal[0] == pytest.approx(4.0 / 104.0)

    def test_fig6_merged_columns(self):
        tables = reproduce_figure("fig6", b_grid=(0.5, 3.0), config=FAST)
        assert len(tables) == 1
        t = tables[0]
        assert t.columns == ("b", "numeric-reference", "numeric-phase-jump")
        # the zero-area variant beats the reference well before the glancing peak
        assert t.rows[1][2] > t.rows[1][1]

    def test_fig6_rows_match_direct_calls(self):
        (t,) = reproduce_figure("fig6", b_grid=(0.0, 0.4, 1.3, 2.6), config=FAST)
        for b, ref, jump in t.rows:
            m = parabolic(ParabolicParams(b=b, c=0.0))
            assert ref == pytest.approx(transition_probability(m, FAST), abs=1e-9)
            assert jump == pytest.approx(transition_probability(phase_jump(m), FAST), abs=1e-9)

    def test_fig6_inversion_between_coarse_samples(self):
        # complete inversion holds just above b = 2.1 too, where a diabatic
        # reading of the window ripples below 0.99
        grid = (2.102, 2.106, 2.11, 2.12, 2.14)
        (t,) = reproduce_figure("fig6", b_grid=grid)
        assert min(t.column("numeric-phase-jump")) >= 0.99
        for b in grid:
            m = phase_jump(parabolic(ParabolicParams(b=b, c=0.0)))
            assert transition_probability(m) >= 0.99

    def test_fig6_uncoupled_row_is_exactly_zero(self):
        (t,) = reproduce_figure("fig6", b_grid=(0.0, 1.0), config=FAST)
        assert t.rows[0] == (0.0, 0.0, 0.0)

    def test_fig6_window_too_small_gives_nan_and_diagnostic(self):
        (t,) = reproduce_figure("fig6", b_grid=(1.0, 3.0),
                                config=SimConfig(window_half_width=2.0))
        for b, ref, jump in t.rows:
            assert math.isnan(ref) and math.isnan(jump)
        notes = [v for k, v in t.metadata if k == "diagnostic"]
        assert len(notes) == 2
        assert notes[0].startswith("b=1 numeric:")
        assert "window half-width" in notes[0]

    def test_fig6_metadata(self):
        (t,) = reproduce_figure("fig6", b_grid=(0.5,), config=FAST)
        assert (t.meta("figure"), t.meta("c")) == ("fig6", "0")
        assert t.meta("phase_jump") == "false"
        assert t.meta("label").startswith("parabolic(")

    def test_default_grid(self):
        g = default_grid()
        assert g[0] == 0.0 and g[-1] == 5.0
        assert len(g) == 201
        assert g[1] == 0.025

    @pytest.mark.parametrize("step, stop", [(math.nan, 5.0), (0.1, math.inf), (0.0, 5.0),
                                            (-1.0, 5.0), (1e-320, 5.0), (0.1, -1.0)])
    def test_default_grid_rejects_bad_bounds(self, step, stop):
        with pytest.raises(InvalidArgumentError):
            default_grid(step, stop)


class TestConvergenceReport:
    def test_zero_coupling_trivially_converged(self):
        report = convergence_report(parabolic(ParabolicParams(b=0.0, c=1.0)), FAST)
        assert report.converged
        assert all(p == 0.0 for _, p in report.window_rows)

    def test_double_crossing_converges_from_auto_window(self):
        report = convergence_report(parabolic(ParabolicParams(b=1.0, c=10.0)))
        assert report.window_converged
        assert report.tolerance_converged
        assert report.converged

    def test_pulse_model_converges_immediately(self):
        m = constant_detuning_pulse(delta=1.0, amplitude=0.5, half_width=1.0)
        report = convergence_report(m, FAST)
        assert report.converged
        # populations frozen beyond the pulse: doubling T changes nothing
        assert report.window_rows[0][1] == pytest.approx(report.window_rows[1][1], abs=1e-12)

    def test_tunnelling_phase_jump_stable_under_doubling(self):
        from phasejump.models import ParabolicParams, phase_jump
        m = phase_jump(parabolic(ParabolicParams(b=10.0, c=-10.0)))
        report = convergence_report(m, SimConfig(window_half_width=45.0))
        assert report.converged
        probs = [p for _, p in report.window_rows]
        assert max(probs) - min(probs) < 1e-4

    def test_text_rendering(self):
        report = convergence_report(parabolic(ParabolicParams(b=0.0, c=1.0)), FAST)
        text = report.to_text()
        assert "converged" in text
        assert "tol" in text
