"""Command-line front end: group checks, schedule dumps, decay curves, oracle runs.

Configuration for the ``curve`` subcommand comes from flat ``key = value``
text files, with command-line flags overriding file values and built-in
defaults (the six-level reference scenario) filling the rest.  Output is
plain CSV with 17-significant-digit values, so a written file reparses to
bit-identical floats and identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
import typing
from dataclasses import dataclass

import numpy as np

from .kernel import BathSpec, ConvergenceError, sweep_curve
from .operators import ZERO_TOL, verify_decoupling
from .schedules import (
    Scheme,
    ScheduleSpec,
    fractions_text,
    parse_fractions_text,
    pulse_count,
)

# Reference-scenario time axis: with the default bath and schedule the
# periodic-scheme coherence falls to ~0.30 at T = 3.112; calibrated once
# against this package's own quadrature and fixed.
DEFAULT_T_MAX = 3.112
DEFAULT_T_POINTS = 60

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_IO = 4

_EPILOG = """\
exit codes:
  0  success
  1  a verification check did not pass (verify-group, oracle-check)
  2  invalid arguments, configuration or input files, or too large for memory
  3  quadrature or sub-step refinement did not converge
  4  file system failure while writing output
"""


# Schedule columns of each curve scheme, in CSV order.
_COLUMNS = {scheme.value: (scheme,) for scheme in Scheme} | {"both": (Scheme.PDD, Scheme.UDD)}


@dataclass(frozen=True)
class RunConfig:
    """Parameters of a curve run (defaults: six-level reference scenario), checked on
    construction; the atom and bath fields are checked by the specs they feed."""

    n: int = 6
    cycles: int = 50
    alpha: float = 0.25
    temperature: float = 150.0
    cutoff: float = 100.0
    scheme: str = "both"
    t_min: float | None = None
    t_max: float = DEFAULT_T_MAX
    t_points: int = DEFAULT_T_POINTS
    quad_tolerance: float = 1e-6
    output_path: str = "curve.csv"
    custom_fractions_path: str | None = None

    def __post_init__(self) -> None:
        pulse_count(self.n, self.cycles)
        self.bath()
        if self.scheme not in _COLUMNS:
            raise ValueError(f"scheme must be one of {'/'.join(_COLUMNS)}, got {self.scheme!r}")
        if self.t_points < 1:
            raise ValueError(f"t_points must be >= 1, got {self.t_points}")
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise ValueError(f"t_max must be finite and > 0, got {self.t_max}")
        t_min = self.resolved_t_min()
        if not (math.isfinite(t_min) and t_min >= 0):
            raise ValueError(f"t_min must be finite and >= 0, got {t_min}")
        if not (self.t_max > t_min or (self.t_points == 1 and self.t_max == t_min)):
            raise ValueError(f"t_max must be > t_min, got t_max={self.t_max}, t_min={t_min}")
        if not 0 < self.quad_tolerance <= 1e-2:
            raise ValueError(f"quad_tolerance must be in (0, 1e-2], got {self.quad_tolerance}")
        if Scheme.CUSTOM in _COLUMNS[self.scheme] and self.custom_fractions_path is None:
            raise ValueError(f"scheme {self.scheme!r} requires custom_fractions_path")

    def resolved_t_min(self) -> float:
        return self.t_max / self.t_points if self.t_min is None else self.t_min

    def bath(self) -> BathSpec:
        return BathSpec(alpha=self.alpha, cutoff=self.cutoff, temperature=self.temperature)


# What each config key parses to: its field's type, the non-None member if optional.
_KEY_TYPES = {
    name: next(t for t in (*typing.get_args(hint), hint) if t is not type(None))
    for name, hint in typing.get_type_hints(RunConfig).items()
}


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in _KEY_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            kind = _KEY_TYPES[key]
            try:
                values[key] = kind(text)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: value for {key!r} is not "
                    f"{'an integer' if kind is int else 'a number'}: {text!r}"
                ) from None
    return values


def parse_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Merge defaults, an optional config file and flag overrides; RunConfig validates."""
    values: dict = {}
    if path is not None:
        values.update(_parse_config_file(path))
    for key, value in (overrides or {}).items():
        if value is not None:
            if key not in _KEY_TYPES:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = value
    return RunConfig(**values)


def _scheme_template(config: RunConfig) -> list[tuple[str, ScheduleSpec]]:
    """Column label and schedule template per requested scheme."""
    schemes = _COLUMNS[config.scheme]
    custom = None
    if Scheme.CUSTOM in schemes:
        with open(config.custom_fractions_path, "r", encoding="utf-8") as handle:
            custom = parse_fractions_text(handle.read())
    out = []
    for scheme in schemes:
        template = ScheduleSpec(
            scheme=scheme,
            n=config.n,
            cycles=config.cycles,
            total_time=1.0,
            custom_fractions=custom if scheme is Scheme.CUSTOM else None,
        )
        out.append((f"P_{scheme.value}", template))
    return out


def _format_row(values: list[float]) -> str:
    return ",".join(f"{value:.17g}" for value in values)


def _curve_csv(config: RunConfig) -> str:
    bath = config.bath()
    grid = np.linspace(config.resolved_t_min(), config.t_max, config.t_points)
    zero_head = grid.size > 0 and grid[0] == 0.0
    positive = grid[1:] if zero_head else grid

    columns = _scheme_template(config)
    results = []
    for _, template in columns:
        if positive.size:
            values = sweep_curve(template, bath, positive, rel_tol=config.quad_tolerance).values
        else:
            values = np.empty(0)
        # T = 0 is the analytic no-evolution point: nothing decays
        results.append(np.concatenate(([1.0], values)) if zero_head else values)

    lines = ["T," + ",".join(label for label, _ in columns)]
    for idx, t in enumerate(grid):
        lines.append(_format_row([t] + [column[idx] for column in results]))
    return "\n".join(lines) + "\n"


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        # mkstemp creates 0600; give the file the mode open() would.  The umask
        # can only be read by setting it, which is safe: the CLI is single-threaded.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_path, 0o666 & ~umask)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def cmd_curve(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ValueError(f"workers must be >= 1, got {args.workers}")
    overrides = {key: getattr(args, key) for key in _KEY_TYPES}
    config = parse_config(args.config, overrides)
    _write_atomic(config.output_path, _curve_csv(config))
    print(f"wrote {config.t_points} rows to {config.output_path}")
    return EXIT_OK


def cmd_verify_group(args: argparse.Namespace) -> int:
    report = verify_decoupling(args.n)
    print(f"decoupling residuals for n={args.n} (tolerance {ZERO_TOL:g}):")
    print("transition  residual")
    for k, residual in enumerate(report.residuals):
        print(f"{k:<10d}  {residual:.3e}")
    print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_schedule(args: argparse.Namespace) -> int:
    # fractions do not depend on the total time
    text = fractions_text(ScheduleSpec(Scheme(args.scheme), args.n, args.cycles, 1.0).fractions)
    if args.out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(args.out, text)
        print(f"wrote {pulse_count(args.n, args.cycles)} fractions to {args.out}")
    return EXIT_OK


def cmd_oracle_check(args: argparse.Namespace) -> int:
    # imported here: no other subcommand needs the Fock-space oracle
    from .calibration import CALIBRATION_TOL, run_calibration_suite

    results = run_calibration_suite(wrong_sign=args.miswired)
    print(f"{'case':<34s} {'exponent obs':>13s} {'exponent pred':>13s} "
          f"{'ratio obs':>12s} {'rel.err':>9s} {'phase':>9s}  status")
    for res in results:
        print(
            f"{res.case.name:<34s} {res.observed_exponent:>13.4e} "
            f"{res.predicted_exponent:>13.4e} {res.observed_ratio:>12.9f} "
            # + 0.0 turns a phase that rounds to -0 into +0: the sign of noise is not shown
            f"{res.rel_error:>9.2e} {round(res.phase_shift, 5) + 0.0:>+9.5f}  "
            f"{'ok' if res.passed else 'FAIL'}"
        )
    worst = max(results, key=lambda r: r.rel_error)
    print(f"worst relative deviation: {worst.rel_error:.3e} ({worst.case.name}), "
          f"tolerance {CALIBRATION_TOL:g}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ladder-dd",
        description="Coherence decay of a pulsed ladder atom dephased by an Ohmic bath.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify-group",
        help=f"check the pulse-group average of every dephasing operator "
             f"(pass threshold {ZERO_TOL:g})",
    )
    p_verify.add_argument("--n", type=int, required=True, help="atom dimension (>= 2)")
    p_verify.set_defaults(func=cmd_verify_group)

    p_sched = sub.add_parser(
        "schedule", help="print or save pulse-time fractions, one per line"
    )
    p_sched.add_argument("--scheme", choices=[Scheme.PDD.value, Scheme.UDD.value],
                         required=True)
    p_sched.add_argument("--n", type=int, required=True, help="atom dimension (>= 2)")
    p_sched.add_argument("--cycles", type=int, required=True, help="cycle count (>= 1)")
    p_sched.add_argument("--out", help="output path (default: stdout)")
    p_sched.set_defaults(func=cmd_schedule)

    p_curve = sub.add_parser(
        "curve",
        help="write a CSV of P(T) over a time grid (defaults: six-level scenario)",
    )
    p_curve.add_argument("--config", help="flat 'key = value' configuration file")
    p_curve.add_argument("--n", type=int)
    p_curve.add_argument("--cycles", type=int)
    p_curve.add_argument("--alpha", type=float)
    p_curve.add_argument("--temperature", type=float)
    p_curve.add_argument("--cutoff", type=float)
    p_curve.add_argument("--scheme", choices=_COLUMNS)
    p_curve.add_argument("--t-min", type=float,
                         help="first grid time; 0 maps to the analytic P=1 point")
    p_curve.add_argument("--t-max", type=float)
    p_curve.add_argument("--t-points", type=int)
    p_curve.add_argument("--quad-tolerance", type=float)
    p_curve.add_argument("--out", dest="output_path", metavar="OUT", help="output CSV path")
    p_curve.add_argument("--custom-fractions", dest="custom_fractions_path",
                         metavar="CUSTOM_FRACTIONS",
                         help="fraction file for scheme=custom (one value per line)")
    p_curve.add_argument("--workers", type=int, default=1,
                         help="accepted (>= 1) but has no effect: the grid points of "
                              "a curve run in order on one shared filter table")
    p_curve.set_defaults(func=cmd_curve)

    p_oracle = sub.add_parser(
        "oracle-check",
        help="compare exact Fock-space evolution against the filter formulas",
    )
    p_oracle.add_argument("--miswired", action="store_true", help=argparse.SUPPRESS)
    p_oracle.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as err:
        print(f"ladder-dd: convergence failure: {err}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ValueError, IndexError, MemoryError) as err:
        print(f"ladder-dd: {str(err) or type(err).__name__}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as err:
        print(f"ladder-dd: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
