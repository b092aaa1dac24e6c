"""Command-line front end: single-shot simulation, sweeps, figures, convergence.

Exit codes: 0 on success, 1 on usage errors (including unsatisfiable model
constraints detected before any computation), 2 on numeric failures during
computation.  The full invocation is echoed into CSV metadata so every output
file records how it was produced.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import PhasejumpError
from .models import ParabolicParams, sample
from .analytic import (
    ica_propagator_phase_jump,
    ica_propagator_reference,
    universal_probability,
)
from .propagation import SimConfig, transition_probability
from .sweeps import (
    FIGURE_IDS,
    METHODS,
    SweepSpec,
    build_model,
    convergence_report,
    default_grid,
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
    p.add_argument("--tol", type=float, default=1e-10, help="local error tolerance")
    p.add_argument("--kappa", type=float, default=None,
                   help="asymptotic window scale factor (default: 30 for the automatic "
                        "window, read in the superadiabatic basis; 100 for checking --T, "
                        "read in the diabatic basis)")


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
    p_sweep.add_argument("--workers", type=int, default=1, help="worker threads")
    p_sweep.add_argument("--out", default=None, help="output CSV path")

    p_fig = sub.add_parser("figure", help="write the dataset behind one figure")
    p_fig.add_argument("figure", choices=FIGURE_IDS)
    p_fig.add_argument("--grid-step", type=float, default=None,
                       help="override the default b-grid step of 0.025")
    p_fig.add_argument("--grid-max", type=float, default=None,
                       help="override the default b-grid end of 5.0")
    p_fig.add_argument("--workers", type=int, default=1, help="worker threads")
    p_fig.add_argument("--out", default=None, help="output directory")
    _add_sim_args(p_fig)

    p_conv = sub.add_parser("converge", help="window and tolerance convergence report")
    _add_model_args(p_conv)
    _add_sim_args(p_conv)

    return parser


def _sim_config(args) -> SimConfig:
    return SimConfig(
        window_half_width=args.T,
        local_error_tol=args.tol,
        window_scale_factor=args.kappa,
    )


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


def _check_ica_applicable(methods, family, n, c, swept_c=False):
    needs_crossing = [m for m in methods if m.startswith("ica")]
    if not needs_crossing:
        return
    if family == "const-detuning":
        raise _UsageError("independent-crossing methods apply to the parabolic family only")
    if n != 1:
        raise _UsageError("independent-crossing methods are defined for n=1 only")
    if not swept_c and c <= 0.0:
        raise _UsageError(
            f"independent-crossing methods need a double crossing (c > 0), got c={c:g}"
        )


def _spec_from_args(args, grid) -> SweepSpec:
    return SweepSpec(
        grid=grid,
        family=args.model,
        a=args.a,
        b=args.b,
        c=args.c,
        n=args.n,
        phase_jump=args.phase_jump,
        param=args.param,
        methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
        config=_sim_config(args),
    )


def _default_out_dir() -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


def _cmd_simulate(args, invocation) -> int:
    cfg = _sim_config(args)
    extras = _parse_with(args.with_methods, args.phase_jump)
    _check_ica_applicable(extras, args.model, args.n, args.c)
    spec = SweepSpec(grid=(args.b,), family=args.model, a=args.a, b=args.b, c=args.c,
                     n=args.n, phase_jump=args.phase_jump, config=cfg)
    model = build_model(spec, args.b)
    p = transition_probability(model, cfg)
    print(f"numeric: {p:.12g}")
    for method in extras:
        if method == "universal":
            s = sample(model, 0.0)
            if s.v == 0.0 and s.alpha == 0.0:
                print("universal: undefined (V(0) = alpha(0) = 0)")
            else:
                print(f"universal: {universal_probability(s.v, s.alpha):.12g}")
        else:
            pp = ParabolicParams(b=args.b, c=args.c, a=args.a)
            res = (ica_propagator_phase_jump(pp) if method == "ica-phase-jump"
                   else ica_propagator_reference(pp))
            print(f"{method}: {res.p:.12g}")
    return 0


def _cmd_sweep(args, invocation) -> int:
    if args.step <= 0.0 or args.max < args.min:
        raise _UsageError("need step > 0 and max >= min")
    npts = int(round((args.max - args.min) / args.step))
    grid = tuple(round(args.min + k * args.step, 12) for k in range(npts + 1))
    spec = _spec_from_args(args, grid)
    swept_c = args.param == "c"
    _check_ica_applicable(spec.methods, args.model, args.n, args.c, swept_c=swept_c)
    table = run_sweep(spec, workers=args.workers).with_metadata(("invocation", invocation))
    out = Path(args.out) if args.out else _default_out_dir() / "sweep.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(table, out)
    print(f"wrote {out} ({len(table.rows)} rows)")
    return 0


def _cmd_figure(args, invocation) -> int:
    grid = None
    if args.grid_step is not None or args.grid_max is not None:
        grid = default_grid(step=args.grid_step or 0.025, stop=args.grid_max or 5.0)
    cfg = _sim_config(args)
    out_dir = Path(args.out) if args.out else _default_out_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = reproduce_figure(args.figure, b_grid=grid, config=cfg, workers=args.workers)
    for table in tables:
        c_text = table.meta("c") or "0"
        path = out_dir / f"{args.figure}_{c_text}.csv"
        write_csv(table.with_metadata(("invocation", invocation)), path)
        print(f"wrote {path} ({len(table.rows)} rows)")
    return 0


def _cmd_converge(args, invocation) -> int:
    cfg = _sim_config(args)
    spec = SweepSpec(grid=(args.b,), family=args.model, a=args.a, b=args.b, c=args.c,
                     n=args.n, phase_jump=args.phase_jump, config=cfg)
    model = build_model(spec, args.b)
    report = convergence_report(model, cfg)
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
