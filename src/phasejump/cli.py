"""Command-line front end: single-shot simulation, sweeps, figures, convergence.

Exit codes: 0 on success, 1 on usage errors, 2 on failures during
computation.  Usage errors are those found before any computation: unknown
flags, a malformed grid or method list, crossing formulas where they do not
apply, and a --T, --tol or --kappa value that ``SimConfig`` rejects.  A model
parameter that the drive model rejects (such as ``--a nan``) is found while
building the model and exits 2.  The full invocation is echoed into CSV metadata so every output
file records how it was produced.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .errors import InvalidArgumentError, PhasejumpError
from .propagation import _AUTO_KAPPA, _CHECK_KAPPA, SimConfig
from .sweeps import (
    DEFAULT_GRID_MAX,
    DEFAULT_GRID_STEP,
    FIGURE_IDS,
    METHODS,
    SweepSpec,
    _ica_inapplicable,
    _linear_grid,
    build_model,
    convergence_report,
    reproduce_figure,
    run_sweep,
    write_csv,
)

OUTPUT_DIR_ENV = "PHASEJUMP_OUT_DIR"

_MODEL_HELP = (
    "model family; for const-detuning the keys map as: c = detuning, "
    "b = pulse amplitude, a = pulse half-width"
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _add_model_args(p):
    p.add_argument("--model", default="parabolic",
                   choices=("parabolic", "superparabolic", "const-detuning"),
                   help=_MODEL_HELP)
    p.add_argument("--a", type=float, default=1.0, help="curvature (or pulse half-width)")
    p.add_argument("--b", type=float, default=0.0, help="coupling strength")
    p.add_argument("--c", type=float, default=0.0, help="level offset (or detuning)")
    p.add_argument("--n", type=int, default=1, help="superparabolic exponent index (n=1 parabolic)")
    p.add_argument("--phase-jump", action="store_true",
                   help="flip the coupling phase from 0 to pi at t=0 (zero-area variant)")


def _add_sim_args(p):
    p.add_argument("--T", type=float, default=None,
                   help="integration half-width (default: automatic asymptotic window)")
    p.add_argument("--tol", type=float, default=SimConfig.local_error_tol,
                   help="local error tolerance")
    p.add_argument("--kappa", type=float, default=None,
                   help=f"asymptotic window scale factor (default: {_AUTO_KAPPA:g} for the "
                        f"automatic window, read in the superadiabatic basis; {_CHECK_KAPPA:g} "
                        "for checking --T, read in the diabatic basis)")


def _build_parser():
    parser = _Parser(prog="phasejump",
                     description="Two-level dynamics under parabolic-class drives "
                                 "with phase-jump couplings.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sim = sub.add_parser("simulate", help="single transition probability", parents=[])
    _add_model_args(p_sim)
    _add_sim_args(p_sim)
    p_sim.add_argument("--with", dest="with_methods", default="",
                       help="comma list of closed forms to print alongside: "
                            "ica, universal, all")

    p_sweep = sub.add_parser("sweep", help="sweep one parameter and write CSV")
    _add_model_args(p_sweep)
    _add_sim_args(p_sweep)
    p_sweep.add_argument("--param", default="b", choices=("b", "c"), help="swept parameter")
    p_sweep.add_argument("--min", type=float, required=True, help="grid start")
    p_sweep.add_argument("--max", type=float, required=True, help="grid end (inclusive)")
    p_sweep.add_argument("--step", type=float, required=True, help="grid spacing")
    p_sweep.add_argument("--methods", default="numeric",
                         help=f"comma list from {', '.join(METHODS)}")
    p_sweep.add_argument("--out", default=None, help="output CSV path")

    p_fig = sub.add_parser("figure", help="write the dataset behind one figure")
    p_fig.add_argument("figure", choices=FIGURE_IDS)
    p_fig.add_argument("--grid-step", type=float, default=None,
                       help=f"override the default b-grid step of {DEFAULT_GRID_STEP}")
    p_fig.add_argument("--grid-max", type=float, default=None,
                       help=f"override the default b-grid end of {DEFAULT_GRID_MAX}")
    p_fig.add_argument("--out", default=None, help="output directory")
    _add_sim_args(p_fig)

    p_conv = sub.add_parser("converge", help="window and tolerance convergence report")
    _add_model_args(p_conv)
    _add_sim_args(p_conv)

    return parser


def _sim_config(args) -> SimConfig:
    """The --T, --tol and --kappa flags; a value SimConfig rejects is a usage error."""
    try:
        return SimConfig(
            window_half_width=args.T,
            local_error_tol=args.tol,
            window_scale_factor=args.kappa,
        )
    except InvalidArgumentError as exc:
        raise _UsageError(str(exc)) from exc


def _parse_with(raw: str, phase_jump: bool) -> tuple[str, ...]:
    if not raw:
        return ()
    out = []
    for token in raw.split(","):
        token = token.strip()
        if token == "all":
            out += ["ica", "universal"]
        elif token in ("ica", "universal"):
            out.append(token)
        else:
            raise _UsageError(f"unknown --with value {token!r} (use ica, universal, all)")
    resolved = []
    for token in out:
        if token == "ica":
            resolved.append("ica-phase-jump" if phase_jump else "ica-reference")
        else:
            resolved.append(token)
    return tuple(dict.fromkeys(resolved))


def _grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    try:
        return _linear_grid(start, stop, step)
    except InvalidArgumentError as exc:
        raise _UsageError(str(exc)) from exc


def _spec_from_args(args, grid, methods, param) -> SweepSpec:
    """The spec of the model and simulation flags.

    A spec that ``SweepSpec`` rejects, or independent-crossing methods where
    they do not apply, is a usage error.  The crossing check is skipped when
    c is swept: the grid may cross zero.
    """
    config = _sim_config(args)
    try:
        spec = SweepSpec(grid=grid, family=args.model, a=args.a, b=args.b, c=args.c, n=args.n,
                         phase_jump=args.phase_jump, param=param, methods=methods, config=config)
    except InvalidArgumentError as exc:
        raise _UsageError(str(exc)) from exc
    if any(m.startswith("ica") for m in methods):
        reason = _ica_inapplicable(spec.family, spec.n, None if param == "c" else spec.c)
        if reason is not None:
            raise _UsageError(reason)
    return spec


def _default_out_dir() -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


def _cmd_simulate(args, invocation) -> int:
    extras = _parse_with(args.with_methods, args.phase_jump)
    spec = _spec_from_args(args, (args.b,), ("numeric", *extras), "b")
    for method in spec.methods:
        p = METHODS[method](spec)[0]
        if isinstance(p, PhasejumpError):
            raise p
        # only the universal formula can be undefined once the ICA rule has passed
        print(f"{method}: undefined (V(0) = alpha(0) = 0)" if math.isnan(p)
              else f"{method}: {p:.12g}")
    return 0


def _cmd_sweep(args, invocation) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    spec = _spec_from_args(args, _grid(args.min, args.max, args.step), methods, args.param)
    table = run_sweep(spec).with_metadata(("invocation", invocation))
    out = Path(args.out) if args.out else _default_out_dir() / "sweep.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(table, out)
    print(f"wrote {out} ({len(table.rows)} rows)")
    return 0


def _cmd_figure(args, invocation) -> int:
    grid = None
    if args.grid_step is not None or args.grid_max is not None:
        step = DEFAULT_GRID_STEP if args.grid_step is None else args.grid_step
        stop = DEFAULT_GRID_MAX if args.grid_max is None else args.grid_max
        grid = _grid(0.0, stop, step)
    cfg = _sim_config(args)
    out_dir = Path(args.out) if args.out else _default_out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = reproduce_figure(args.figure, b_grid=grid, config=cfg)
    for table in tables:
        c_text = table.meta("c") or "0"
        path = out_dir / f"{args.figure}_{c_text}.csv"
        write_csv(table.with_metadata(("invocation", invocation)), path)
        print(f"wrote {path} ({len(table.rows)} rows)")
    return 0


def _cmd_converge(args, invocation) -> int:
    spec = _spec_from_args(args, (args.b,), ("numeric",), "b")
    report = convergence_report(build_model(spec, args.b), spec.config)
    print(report.to_text())
    return 0 if report.converged else 2


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "converge": _cmd_converge,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    invocation = "phasejump " + " ".join(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits 0 for --help; normalize anything else to a usage error
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.subcommand](args, invocation)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except PhasejumpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
