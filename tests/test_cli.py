"""Command-line interface: flags, exit codes, file outputs."""

import csv
import math

import pytest

from phasejump import sweeps
from phasejump.cli import main
from phasejump.propagation import SimConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_no_coupling_prints_zero(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--model", "parabolic",
                               "--b", "0", "--c", "1")
        assert code == 0
        assert out.startswith("numeric: 0")

    def test_universal_alongside_numeric(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--model", "parabolic",
                               "--b", "3", "--c", "-1", "--phase-jump",
                               "--with", "universal")
        assert code == 0
        lines = out.splitlines()
        numeric = float(lines[0].split(":")[1])
        universal = float(lines[1].split(":")[1])
        assert universal == pytest.approx(0.9)
        assert numeric == pytest.approx(0.9, abs=0.05)

    def test_ica_alias_resolves_by_phase_jump_flag(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--b", "1", "--c", "4",
                               "--phase-jump", "--with", "ica")
        assert code == 0
        assert "ica-phase-jump:" in out
        code, out, _ = run_cli(capsys, "simulate", "--b", "1", "--c", "4",
                               "--with", "ica")
        assert code == 0
        assert "ica-reference:" in out

    @pytest.mark.parametrize("value", ["ica, universal", "all,ica"])
    def test_with_prints_each_method_once(self, capsys, value):
        code, out, _ = run_cli(capsys, "simulate", "--b", "1", "--c", "4", "--with", value)
        assert code == 0
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "numeric", "ica-reference", "universal"]

    def test_ica_without_crossing_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--b", "1", "--c", "-1",
                               "--with", "ica")
        assert code == 1
        assert "usage error" in err

    def test_numeric_failure_exits_two(self, capsys):
        # explicit window far inside the asymptotic regime
        code, _, err = run_cli(capsys, "simulate", "--b", "1", "--c", "10", "--T", "2")
        assert code == 2
        assert "error" in err


    def test_subnormal_coupling_with_ica(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--b", "3e-162", "--c", "1",
                                 "--with", "ica")
        assert code == 0
        assert "Traceback" not in err
        assert "ica-reference:" in out

    @pytest.mark.parametrize("argv", [
        ("--model", "parabolic", "--n", "2", "--b", "1", "--c", "1"),
        ("--model", "superparabolic", "--n", "2", "--a", "2", "--b", "1"),
        ("--model", "const-detuning", "--b", "1", "--a", "nan"),
        ("--model", "const-detuning", "--b", "1", "--a", "inf"),
        ("--b", "1", "--c", "nan"),
    ])
    def test_rejected_model_parameters_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, "simulate", *argv)
        assert code == 2
        assert out == ""
        assert "Traceback" not in err

    @pytest.mark.parametrize("phase_jump", [False, True])
    def test_matches_one_point_sweep(self, capsys, monkeypatch, phase_jump):
        # simulate evaluates the sweep's method table: same values, bit for bit
        flags = ("--phase-jump",) if phase_jump else ()
        printed = {}
        for name, method in list(sweeps.METHODS.items()):
            def recorded(spec, name=name, method=method):
                column = method(spec)
                printed[name] = column[0]
                return column
            monkeypatch.setitem(sweeps.METHODS, name, recorded)
        code, out, _ = run_cli(capsys, "simulate", "--b", "0.8", "--c", "4", "--tol", "1e-8",
                               "--with", "all", *flags)
        monkeypatch.undo()
        assert code == 0
        # the two flag settings between them run every method in the table
        ica = "ica-phase-jump" if phase_jump else "ica-reference"
        assert list(printed) == ["numeric", ica, "universal"]
        assert {*printed, "ica-reference", "ica-phase-jump"} == set(sweeps.METHODS)
        spec = sweeps.SweepSpec(grid=(0.8,), c=4.0, phase_jump=phase_jump,
                                methods=tuple(printed), config=SimConfig(local_error_tol=1e-8))
        row = sweeps.run_sweep(spec).rows[0]
        assert dict(zip(spec.methods, row[1:])) == printed
        assert out.splitlines() == [f"{m}: {p:.12g}" for m, p in printed.items()]

    def test_steep_superparabolic_window_search(self, capsys):
        # t ** 1200 leaves the float range early in the window scan
        code, out, err = run_cli(capsys, "simulate", "--model", "superparabolic",
                                 "--n", "600", "--b", "1")
        assert code == 0
        assert "Traceback" not in err
        assert 0.0 <= float(out.split(":")[1]) <= 1.0

    @pytest.mark.parametrize("argv", [
        ("converge", "--model", "superparabolic", "--n", "600", "--b", "1"),
        ("simulate", "--model", "superparabolic", "--n", "600", "--b", "1", "--T", "2"),
    ])
    def test_steep_superparabolic_integration_exits_two(self, capsys, argv):
        # the field overflows inside a trial step, where cos(inf) is a domain error
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: field evaluation failed")
        assert "Traceback" not in err

    def test_universal_with_underflowing_squares(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--b", "1e-200", "--c=-1e-200",
                                 "--phase-jump", "--with", "universal")
        assert code == 0
        assert "Traceback" not in err
        assert out.splitlines()[1] == "universal: 0.5"


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_subcommand_help_exits_zero(self, capsys):
        for sub in ("simulate", "sweep", "figure", "converge"):
            assert run_cli(capsys, sub, "--help")[0] == 0

    def test_help_documents_every_flag(self, capsys):
        _, out, _ = run_cli(capsys, "simulate", "--help")
        for flag in ("--model", "--a", "--b", "--c", "--n", "--phase-jump",
                     "--T", "--tol", "--kappa", "--with"):
            assert flag in out
        _, out, _ = run_cli(capsys, "sweep", "--help")
        for flag in ("--param", "--min", "--max", "--step", "--methods",
                     "--out"):
            assert flag in out

    @pytest.mark.parametrize("value, token", [("foo", "'foo'"), ("ica,", "''")])
    def test_unknown_with_value_exits_one(self, capsys, value, token):
        code, out, err = run_cli(capsys, "simulate", "--b", "1", "--c", "4", "--with", value)
        assert code == 1
        assert f"unknown --with value {token}" in err
        assert out == ""

    def test_unknown_flag_exits_one(self, capsys):
        assert run_cli(capsys, "simulate", "--frequency", "3")[0] == 1

    def test_unknown_subcommand_exits_one(self, capsys):
        assert run_cli(capsys, "dance")[0] == 1

    def test_missing_subcommand_exits_one(self, capsys):
        assert run_cli(capsys)[0] == 1

    @pytest.mark.parametrize("methods", ["foo", "numeric,foo", ","])
    def test_bad_methods_exit_one(self, capsys, tmp_path, methods):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "sweep", "--c", "1", "--min", "0", "--max", "1",
                               "--step", "0.5", "--methods", methods, "--out", str(out))
        assert code == 1
        assert err.startswith("usage error:")
        assert not out.exists()

    def test_bad_sweep_grid_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--min", "1", "--max", "0",
                               "--step", "0.5")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("sweep", "--min", "0", "--max", "1", "--step", "nan"),
        ("sweep", "--min", "nan", "--max", "1", "--step", "0.5"),
        ("sweep", "--min", "0", "--max", "inf", "--step", "0.5"),
        ("sweep", "--min", "0", "--max", "1", "--step", "0"),
        ("sweep", "--min", "0", "--max", "1", "--step", "-0.5"),
        ("sweep", "--min", "0", "--max", "1", "--step", "1e-320"),
        ("figure", "fig6", "--grid-step", "nan"),
        ("figure", "fig6", "--grid-step", "0"),
        ("figure", "fig6", "--grid-step", "-1"),
        ("figure", "fig6", "--grid-max", "inf"),
    ])
    def test_bad_grid_is_usage_error(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith("usage error: grid")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("command", [
        ("simulate",),
        ("sweep", "--min", "0", "--max", "1", "--step", "0.5"),
        ("figure", "fig6"),
        ("converge",),
    ])
    @pytest.mark.parametrize("flag", [("--tol", "0"), ("--kappa", "1"), ("--T", "-1")])
    def test_rejected_sim_flags_exit_one(self, capsys, monkeypatch, tmp_path, command, flag):
        monkeypatch.setenv("PHASEJUMP_OUT_DIR", str(tmp_path / "out"))
        code, out, err = run_cli(capsys, *command, *flag)
        assert code == 1
        assert err.startswith("usage error:")
        assert "Traceback" not in err
        assert out == ""
        assert not (tmp_path / "out").exists()


class TestSweepCommand:
    def test_writes_csv_with_invocation(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run_cli(capsys, "sweep", "--model", "parabolic", "--c", "2",
                             "--param", "b", "--min", "0", "--max", "1",
                             "--step", "0.5", "--methods", "numeric,universal",
                             "--tol", "1e-8", "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert "# invocation: phasejump sweep" in text
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header == "b,numeric,universal,failures"
        rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 3

    def test_default_out_dir_from_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PHASEJUMP_OUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "sweep", "--c", "1", "--min", "0", "--max", "0.5",
                             "--step", "0.5", "--tol", "1e-8")
        assert code == 0
        assert (tmp_path / "sweep.csv").exists()

    def test_ica_on_tunnelling_family_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--c", "-10", "--min", "0",
                               "--max", "1", "--step", "0.5",
                               "--methods", "ica-reference",
                               "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "crossing" in err

    def test_sweeping_c_across_zero_allowed(self, capsys, tmp_path):
        out = tmp_path / "c.csv"
        code, _, _ = run_cli(capsys, "sweep", "--b", "1", "--param", "c",
                             "--min", "-1", "--max", "1", "--step", "1",
                             "--methods", "numeric,ica-reference",
                             "--tol", "1e-8", "--out", str(out))
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert rows[0].split(",")[2] == "NaN"
        assert rows[2].split(",")[2] != "NaN"

    def test_unbuildable_points_keep_the_sweep(self, capsys, tmp_path):
        out = tmp_path / "u.csv"
        code, _, err = run_cli(capsys, "sweep", "--c", "1", "--min", "-1", "--max", "1",
                               "--step", "0.5", "--methods", "universal", "--out", str(out))
        assert code == 0
        assert "Traceback" not in err
        lines = out.read_text().splitlines()
        assert "# label: parabolic(a=1, b=0, c=1)" in lines
        assert sum(l.startswith("# diagnostic: b=-") for l in lines) == 2
        rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert [r[1] == "NaN" for r in rows] == [True, True, False, False, False]


class TestFigureCommand:
    def test_fig5_writes_three_files(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "figure", "fig5", "--out", str(tmp_path),
                               "--grid-step", "2.5", "--tol", "1e-8")
        assert code == 0
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert names == ["fig5_-1.csv", "fig5_-10.csv", "fig5_-4.csv"]

    def test_fig6_single_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "figure", "fig6", "--out", str(tmp_path),
                             "--grid-step", "2.5", "--tol", "1e-8")
        assert code == 0
        assert (tmp_path / "fig6_0.csv").exists()

    def test_figure_csv_loads_as_series(self, capsys, tmp_path):
        run_cli(capsys, "figure", "fig5", "--out", str(tmp_path),
                "--grid-step", "2.5", "--tol", "1e-8")
        with open(tmp_path / "fig5_-10.csv") as fh:
            rows = [r for r in csv.reader(l for l in fh if not l.startswith("#"))]
        header, data = rows[0], rows[1:]
        assert header == ["b", "numeric", "universal", "failures"]
        series = {h: [float(r[i]) for r in data] for i, h in enumerate(header)}
        assert len(series["numeric"]) == 3
        assert all(not math.isnan(x) for x in series["universal"][1:])


class TestConvergeCommand:
    def test_converging_model_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "--b", "0", "--c", "1")
        assert code == 0
        assert "converged" in out
