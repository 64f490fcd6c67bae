"""Command-line front end.

Examples::

    duomech-sweep --figure fig3 --output fig3.csv
    duomech-sweep --config system.cfg --sweep r=0:3:301 --curves xi=0,0.1,0.2 \\
                  --output rsweep.csv
    duomech-sweep --figure fig4 --find-critical-xi 0:1
    duomech-sweep --figure fig3 --mc-validate --output fig3
    duomech-sweep --config system.cfg --dump-matrices --output point

At most one of ``--sweep``, ``--find-critical-xi`` and ``--mc-validate``
may be given; ``--dump-matrices`` combines with each of them.  Exit code 0
on success, 1 when a requested validation fails, 2 on any
:class:`~duomech.errors.DuomechError` or an unwritable output.  The
``--mc-*`` settings need ``--mc-validate``, and ``--find-critical-xi`` takes
``--output`` only as the stem of ``--dump-matrices``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config
from .dynamics import solve_lyapunov, system_matrices, write_matrix
from .errors import ConfigError, DuomechError
from .montecarlo import (
    SdeConfig,
    compare_to_lyapunov,
    integrate_steady_covariance,
    write_comparison_csv,
)
from .params import derive
from .sweep import SweepSpec, emit_csv, figure_preset, find_critical_xi, run_sweep

__all__ = ["main"]


def _parse_sweep_arg(text: str) -> tuple[str, float, float, int]:
    try:
        var, _, rng = text.partition("=")
        start_s, stop_s, num_s = rng.split(":")
        return var.strip(), float(start_s), float(stop_s), int(num_s)
    except ValueError:
        raise ConfigError(
            f"--sweep expects VAR=START:STOP:N, got {text!r}"
        ) from None


def _parse_curves_arg(text: str) -> tuple[str, tuple[float, ...]]:
    try:
        var, _, values = text.partition("=")
        return var.strip(), tuple(float(v) for v in values.split(","))
    except ValueError:
        raise ConfigError(f"--curves expects VAR=V1,V2,..., got {text!r}") from None


def _parse_bracket_arg(text: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = text.split(":")
        return float(lo_s), float(hi_s)
    except ValueError:
        raise ConfigError(f"--find-critical-xi expects LO:HI, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duomech-sweep",
        description="Steady-state mirror-mirror quantum correlation sweeps "
                    "for the hopping-coupled double-cavity system.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="FILE", help="flat key=value parameter file")
    source.add_argument("--figure", choices=("fig2", "fig3", "fig4"),
                        help="preset parameter sweep")
    parser.add_argument("--sweep", metavar="VAR=START:STOP:N",
                        help="sweep variable and linear grid (with --config)")
    parser.add_argument("--curves", metavar="VAR=V1,V2,...",
                        help="second variable with discrete values (with --config)")
    parser.add_argument("--output", metavar="PATH",
                        help="output CSV path (default: stdout); also the stem "
                             "for --dump-matrices / --mc-validate files")
    parser.add_argument("--dump-matrices", action="store_true",
                        help="write drift/noise/covariance matrices of the held "
                             "parameter point as text files")
    parser.add_argument("--find-critical-xi", metavar="LO:HI",
                        help="bisect the entanglement-death hopping strength inside "
                             "the bracket instead of sweeping")
    parser.add_argument("--mc-validate", action="store_true",
                        help="validate the Lyapunov covariance at the held point "
                             "against a stochastic-trajectory ensemble")
    parser.add_argument("--mc-dt", type=float, default=None,
                        help="integration step, units of 1/kappa")
    parser.add_argument("--mc-seed", type=int, default=None)
    parser.add_argument("--mc-trajectories", type=int, default=None)
    parser.add_argument("--mc-burn-in", type=float, default=None,
                        help="burn-in duration, units of 1/kappa")
    parser.add_argument("--mc-duration", type=float, default=None,
                        help="sampling duration, units of 1/kappa")
    return parser


# --mc-* option -> the SdeConfig field it sets
_MC_SETTINGS = {"mc_dt": "dt", "mc_seed": "seed", "mc_trajectories": "n_trajectories",
                "mc_burn_in": "burn_in", "mc_duration": "sample_duration"}


def _run(args: argparse.Namespace) -> int:
    actions = [flag for flag, given in (("--sweep", args.sweep),
                                        ("--find-critical-xi", args.find_critical_xi),
                                        ("--mc-validate", args.mc_validate)) if given]
    if len(actions) > 1:
        raise ConfigError(f"{' and '.join(actions)} cannot be combined")
    mc_given = [dest for dest in _MC_SETTINGS if getattr(args, dest) is not None]
    if mc_given and not args.mc_validate:
        flags = ", ".join("--" + dest.replace("_", "-") for dest in mc_given)
        raise ConfigError(f"{flags} given without --mc-validate")
    if args.find_critical_xi and args.output and not args.dump_matrices:
        raise ConfigError("--find-critical-xi writes no file: --output is only "
                          "the stem for --dump-matrices")
    if args.figure is not None:
        spec = figure_preset(args.figure)
        if args.sweep or args.curves:
            raise ConfigError("--sweep/--curves cannot be combined with --figure")
        held = spec.held
    else:
        held = load_config(args.config)
        spec = None
        if args.sweep:
            var, start, stop, num = _parse_sweep_arg(args.sweep)
            curve_var, curve_vals = (None, ())
            if args.curves:
                curve_var, curve_vals = _parse_curves_arg(args.curves)
            spec = SweepSpec(var, start, stop, num, held,
                             curve_variable=curve_var, curve_values=curve_vals)
        elif args.curves:
            raise ConfigError("--curves requires --sweep")

    if args.dump_matrices and not args.output:
        raise ConfigError("--dump-matrices requires --output as a file stem")
    if args.dump_matrices or args.mc_validate:
        matrices = system_matrices(derive(held))
        state = solve_lyapunov(matrices)

    if args.dump_matrices:
        stem = Path(args.output)
        write_matrix(matrices.drift, stem.with_suffix(".drift.txt"))
        write_matrix(matrices.noise, stem.with_suffix(".noise.txt"))
        write_matrix(state.full, stem.with_suffix(".covariance.txt"))
        print(f"wrote {stem.with_suffix('.drift.txt')}, .noise.txt, .covariance.txt")

    if args.find_critical_xi:
        bracket = _parse_bracket_arg(args.find_critical_xi)
        result = find_critical_xi(held, bracket)
        print(f"critical_xi = {result.xi_l:.8f}")
        print(f"bracket = [{result.bracket_lo:.8f}, {result.bracket_hi:.8f}]")
        print(f"log_negativity at bracket edges = {result.en_lo:.6e}, {result.en_hi:.6e}")
        return 0

    if args.mc_validate:
        config = SdeConfig(**{_MC_SETTINGS[dest]: getattr(args, dest) for dest in mc_given})
        estimate = integrate_steady_covariance(matrices, config)
        comparison = compare_to_lyapunov(estimate, state)
        if args.output:
            path = Path(args.output).with_suffix(".mc.csv")
            write_comparison_csv(comparison, estimate, state, path)
            print(f"wrote {path}")
        # per-entry relative deviations blow up on near-zero entries, so the
        # summary reports deviations against the covariance scale instead;
        # the pass/fail verdict itself is z-score based
        verdict = "PASS" if comparison.passed else "FAIL"
        print(
            f"mc-validate: {verdict} (max |z| = {comparison.max_abs_z:.2f}, "
            f"{comparison.n_unique_above_3se} unique entries above 3 SE, "
            f"max deviation = {comparison.max_dev_of_scale:.3%} of the covariance scale)"
        )
        return 0 if comparison.passed else 1

    if spec is None:
        if args.dump_matrices:
            return 0
        raise ConfigError("nothing to do: give --sweep, --find-critical-xi, "
                          "--mc-validate or --dump-matrices")

    rows = run_sweep(spec)
    metadata = {
        "sweep_variable": spec.variable,
        "curve_variable": spec.curve_variable or "",
        "curve_values": ",".join(f"{v:g}" for v in spec.curve_values),
        "drive_cooperativity": f"{held.cooperativity:g}" if held.cooperativity is not None
        else f"power_w={held.pump_power:g}",
        "points": f"{spec.num}",
    }
    if args.figure:
        metadata["preset"] = args.figure
    if args.output:
        emit_csv(rows, args.output, metadata)
        print(f"wrote {args.output} ({len(rows)} rows)")
    else:
        emit_csv(rows, sys.stdout, metadata)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (DuomechError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
