"""Command-line front end: group checks, schedule dumps, decay curves, oracle runs.

Configuration for the ``curve`` subcommand comes from flat ``key = value``
text files, with command-line flags overriding file values and built-in
defaults (the six-level reference scenario) filling the rest.  Output is
plain CSV with 17-significant-digit values, so a written file reparses to
bit-identical floats and identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import typing
from dataclasses import dataclass

import numpy as np

from .kernel import BathSpec, ConvergenceError, sweep_curve
from .operators import ZERO_TOL, verify_decoupling
from .schedules import (Scheme, ScheduleSpec, as_number, check_count, check_real,
                        fractions_text, parse_fractions_text, pulse_count)

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
  3  quadrature refinement did not converge
  4  file system failure reading an input file or writing output
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
        check_count("t_points", "t_points", self.t_points, 1)
        object.__setattr__(self, "t_max", check_real("t_max", "t_max", self.t_max, 0, True))
        if self.t_min is not None:
            object.__setattr__(self, "t_min", check_real("t_min", "t_min", self.t_min, 0, False))
        t_min = self.resolved_t_min()
        if not (self.t_max > t_min or (self.t_points == 1 and self.t_max == t_min)):
            raise ValueError(f"t_max must be > t_min, got t_max={self.t_max}, t_min={t_min}")
        # below 1e-14 successive estimates differ by round-off: no run could converge
        if not 1e-14 <= as_number(self.quad_tolerance, float) <= 1e-2:
            raise ValueError(f"quad_tolerance must be in [1e-14, 1e-2], got {self.quad_tolerance}")
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


def _read_lines(path: str) -> list[str]:
    """The lines of the UTF-8 input file ``path``, without a leading byte-order
    mark; bytes that do not decode raise a ValueError that names the file."""
    with open(path, "r", encoding="utf-8-sig") as handle:
        try:
            return handle.readlines()
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: {err}") from None


def _parse_config_file(path: str) -> dict:
    values, lines = {}, {}  # each key's value and the line that set it
    for lineno, raw in enumerate(_read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = (part.strip() for part in line.partition("="))
        if key not in _KEY_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if lines.setdefault(key, lineno) != lineno:
            raise ValueError(f"{path}:{lineno}: config key {key!r} is already set "
                             f"on line {lines[key]}")
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


def _curve_csv(config: RunConfig) -> str:
    """P(T) per requested scheme, one row per grid time at 17 significant digits.

    The fraction file is read and every schedule built before any sweep; an
    error in the file names it.  T = 0 is the analytic no-evolution point:
    nothing decays, so P = 1.
    """
    schemes = _COLUMNS[config.scheme]
    templates = [ScheduleSpec(scheme, config.n, config.cycles, 1.0)
                 for scheme in schemes if scheme is not Scheme.CUSTOM]
    if Scheme.CUSTOM in schemes:
        path = config.custom_fractions_path
        custom = parse_fractions_text("".join(_read_lines(path)), path)
        try:
            templates.append(ScheduleSpec(Scheme.CUSTOM, config.n, config.cycles, 1.0, custom))
        except ValueError as err:  # RunConfig checked n and cycles: the fractions are bad
            raise ValueError(f"{path}: {err}") from None
    grid = np.linspace(config.resolved_t_min(), config.t_max, config.t_points)
    first = int(grid[0] == 0.0)
    columns = [np.ones(grid.size) for _ in schemes]
    if first < grid.size:
        for column, template in zip(columns, templates):
            points = sweep_curve(template, config.bath(), grid[first:],
                                 rel_tol=config.quad_tolerance)
            column[first:] = [np.exp(-point.gamma.sum()) for point in points]
    header = ",".join(["T", *(f"P_{scheme.value}" for scheme in schemes)])
    rows = (",".join(f"{value:.17g}" for value in row) for row in zip(grid, *columns))
    return "\n".join([header, *rows]) + "\n"


def _write_atomic(path: str, text: str) -> None:
    """Write through a temporary file beside ``path``; failures name ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        # mkstemp creates 0600; give the file the mode open() would.  The umask
        # can only be read by setting it, which is safe: the CLI is single-threaded.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_path, 0o666 & ~umask)
        os.replace(tmp_path, path)
    except BaseException as err:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)
        if isinstance(err, OSError):
            raise OSError(err.errno, err.strerror, path) from err
        raise


def cmd_curve(args: argparse.Namespace) -> int:
    check_count("workers", "workers", args.workers, 1)
    overrides = {key: getattr(args, key) for key in _KEY_TYPES}
    config = parse_config(args.config, overrides)
    _write_atomic(config.output_path, _curve_csv(config))
    print(f"wrote {config.t_points} rows to {config.output_path}")
    return EXIT_OK


def cmd_verify_group(args: argparse.Namespace) -> int:
    residuals = verify_decoupling(args.n)
    print(f"decoupling residuals for n={args.n} (tolerance {ZERO_TOL:g}):")
    print("transition  residual")
    for k, residual in enumerate(residuals):
        print(f"{k:<10d}  {residual:.3e}")
    passed = all(residual <= ZERO_TOL for residual in residuals)  # a NaN fails
    print(f"overall: {'PASS' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_schedule(args: argparse.Namespace) -> int:
    # fractions do not depend on the total time
    fractions = ScheduleSpec(Scheme(args.scheme), args.n, args.cycles, 1.0).fractions
    if args.out is None:
        sys.stdout.write(fractions_text(fractions))
    else:
        _write_atomic(args.out, fractions_text(fractions))
        print(f"wrote {len(fractions)} fractions to {args.out}")
    return EXIT_OK


def cmd_oracle_check(args: argparse.Namespace) -> int:
    # imported here: no other subcommand needs the Fock-space oracle
    from .calibration import CALIBRATION_TOL, run_calibration_suite

    results = run_calibration_suite()
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


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ValueError, which ``main`` reports in one line."""

    def error(self, message: str) -> typing.NoReturn:
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_oracle.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ConvergenceError as err:
        print(f"ladder-dd: convergence failure: {err}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ValueError, MemoryError) as err:
        print(f"ladder-dd: {str(err) or type(err).__name__}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as err:
        print(f"ladder-dd: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
