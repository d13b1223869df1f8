import argparse
import contextlib
import dataclasses
import io
import os
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ladder_dd.calibration as calibration
import ladder_dd.cli as cli
from ladder_dd.cli import (
    DEFAULT_T_MAX,
    EXIT_CHECK_FAILED,
    EXIT_CONVERGENCE,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    RunConfig,
    main,
    parse_config,
)
from ladder_dd.kernel import BathSpec, ConvergenceError, sweep_curve
from ladder_dd.schedules import Scheme, ScheduleSpec


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


FAST_CURVE = [
    "--n", "2", "--cycles", "1", "--alpha", "0.2", "--temperature", "2.0",
    "--cutoff", "5.0", "--t-max", "2.0", "--t-points", "3",
]


class TestParseConfig:
    def test_empty_sources_give_reference_defaults(self, tmp_path):
        config = parse_config(write(tmp_path / "empty.cfg", ""))
        assert config == RunConfig()
        assert (config.n, config.cycles) == (6, 50)
        assert (config.alpha, config.temperature, config.cutoff) == (0.25, 150.0, 100.0)
        assert config.scheme == "both"
        assert config.t_max == DEFAULT_T_MAX
        assert config.resolved_t_min() == DEFAULT_T_MAX / 60

    def test_file_values_and_comments(self, tmp_path):
        path = write(
            tmp_path / "run.cfg",
            "# comment\nn = 3\nalpha = 0.5  # inline\n\nscheme = pdd\n",
        )
        config = parse_config(path)
        assert (config.n, config.alpha, config.scheme) == (3, 0.5, "pdd")

    def test_flags_override_file(self, tmp_path):
        path = write(tmp_path / "run.cfg", "alpha = 0.5\n")
        config = parse_config(path, {"alpha": 0.0})
        assert config.alpha == 0.0

    def test_unknown_key_named(self, tmp_path):
        path = write(tmp_path / "run.cfg", "alpah = 0.5\n")
        with pytest.raises(ValueError, match="'alpah'"):
            parse_config(path)

    def test_duplicate_key_names_both_lines(self, tmp_path, capsys):
        # the second line once silently replaced the first: n = 3 then n = 2 ran n = 2
        path = write(tmp_path / "run.cfg", "n = 3\nalpha = 0.5\n# n = 4\n n=2\n")
        with pytest.raises(ValueError) as excinfo:
            parse_config(path)
        assert str(excinfo.value) == f"{path}:4: config key 'n' is already set on line 1"
        out = tmp_path / "curve.csv"
        assert main(["curve", "--config", path, "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"ladder-dd: {excinfo.value}\n"
        assert not out.exists()

    def test_malformed_value_names_key(self, tmp_path):
        path = write(tmp_path / "run.cfg", "alpha = abc\n")
        with pytest.raises(ValueError, match="'alpha'"):
            parse_config(path)

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"n": 1}, "n"),
            ({"cycles": 0}, "cycles"),
            ({"alpha": -1.0}, "alpha"),
            ({"temperature": 0.0}, "temperature"),
            ({"cutoff": -2.0}, "cutoff"),
            ({"scheme": "rdd"}, "scheme"),
            ({"t_points": 0}, "t_points"),
            ({"t_max": 0.0}, "t_max"),
            ({"t_min": -1.0}, "t_min"),
            ({"t_min": 5.0, "t_max": 4.0}, "t_max"),
            ({"quad_tolerance": 0.0}, "quad_tolerance"),
            ({"alpha": float("nan")}, "alpha"),
            ({"alpha": float("inf")}, "alpha"),
            ({"temperature": float("inf")}, "temperature"),
            ({"cutoff": float("inf")}, "cutoff"),
            ({"t_max": float("inf"), "t_points": 1}, "t_max"),
            ({"t_min": float("nan"), "t_points": 1}, "t_min"),
            ({"t_min": 5.0, "t_max": 4.0, "t_points": 1}, "t_max"),
        ],
    )
    def test_bound_violations_name_field(self, overrides, field):
        with pytest.raises(ValueError, match=field):
            parse_config(None, overrides)

    @pytest.mark.parametrize("value", [5e-324, 1e-15, 9.99e-15])
    def test_quad_tolerance_below_round_off_rejected(self, value):
        with pytest.raises(ValueError, match=r"quad_tolerance must be in \[1e-14, 1e-2\], got "):
            parse_config(None, {"quad_tolerance": value})

    def test_quad_tolerance_range_is_closed(self):
        for value in (1e-14, 1e-2):
            assert parse_config(None, {"quad_tolerance": value}).quad_tolerance == value

    @pytest.mark.parametrize("field, value", [("t_points", 2.0), ("t_points", True),
                                              ("n", 6.0), ("cycles", True)])
    def test_integer_field_rejects_other_types(self, field, value):
        # t_points=2.0 once passed and failed later with a bare TypeError
        with pytest.raises(ValueError, match=f"must be an int >= ., got {field}={value!r}$"):
            parse_config(None, {field: value})

    def test_readme_example_is_the_defaults(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert parse_config(write(tmp_path / "readme.cfg", example)) == RunConfig()

    def test_custom_scheme_requires_fraction_path(self):
        with pytest.raises(ValueError, match="custom_fractions_path"):
            parse_config(None, {"scheme": "custom"})

    def test_curve_flags_are_the_config_fields(self):
        # cmd_curve reads every field from the parsed flags by its name
        parser = cli._build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        flags = {action.dest for action in subparsers.choices["curve"]._actions
                 if action.option_strings} - {"help", "config", "workers"}
        assert flags == {field.name for field in dataclasses.fields(RunConfig)}


class TestVerifyGroup:
    @pytest.mark.parametrize("n", [2, 6])
    def test_passes(self, n, capsys):
        assert main(["verify-group", "--n", str(n)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out
        assert out.count("\n") >= n + 1

    def test_invalid_dimension(self, capsys):
        assert main(["verify-group", "--n", "1"]) == EXIT_VALIDATION
        assert "n=1" in capsys.readouterr().err

    def test_index_error_is_a_bug_not_invalid_input(self, monkeypatch):
        # no input raises IndexError: one that escapes is not reported as exit 2
        def boom(n):
            raise IndexError("index 7 is out of bounds")

        monkeypatch.setattr(cli, "verify_decoupling", boom)
        with pytest.raises(IndexError, match="out of bounds"):
            main(["verify-group", "--n", "4"])

    @pytest.mark.parametrize("residuals", [(0.0, 2e-12, 0.0), (0.0, float("nan"), 0.0)],
                             ids=["above-tolerance", "nan"])
    def test_residual_off_the_floor_fails(self, residuals, monkeypatch, capsys):
        monkeypatch.setattr(cli, "verify_decoupling", lambda n: residuals)
        assert main(["verify-group", "--n", "4"]) == EXIT_CHECK_FAILED
        assert capsys.readouterr().out.splitlines()[-1] == "overall: FAIL"


class TestScheduleCommand:
    def test_stdout_listing(self, capsys):
        assert main(["schedule", "--scheme", "udd", "--n", "2", "--cycles", "2"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        expected = ScheduleSpec(Scheme.UDD, 2, 2, 1.0).fractions
        assert [float(line) for line in lines] == list(expected)

    def test_file_output_round_trips(self, tmp_path):
        out = tmp_path / "fractions.txt"
        assert main(["schedule", "--scheme", "pdd", "--n", "6", "--cycles", "50",
                     "--out", str(out)]) == EXIT_OK
        values = [float(line) for line in out.read_text().strip().splitlines()]
        np.testing.assert_array_equal(values, ScheduleSpec(Scheme.PDD, 6, 50, 10.0).fractions)

    def test_invalid_cycles(self, capsys):
        assert main(["schedule", "--scheme", "pdd", "--n", "2",
                     "--cycles", "0"]) == EXIT_VALIDATION


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
@pytest.mark.parametrize("argv", [
    ["curve", *FAST_CURVE],
    ["schedule", "--scheme", "pdd", "--n", "2", "--cycles", "1"],
], ids=["curve", "schedule"])
def test_output_file_mode_follows_umask(argv, umask, mode, tmp_path):
    # as open() would create it, though the file is written beside it and renamed
    out = tmp_path / "out.txt"
    previous = os.umask(umask)
    try:
        assert main([*argv, "--out", str(out)]) == EXIT_OK
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out.stat().st_mode) == mode


class TestCurveCommand:
    def test_both_schemes_header_and_rows(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["curve", *FAST_CURVE, "--out", str(out)]) == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "T,P_pdd,P_udd"
        assert len(lines) == 4
        for line in lines[1:]:
            t, p_pdd, p_udd = map(float, line.split(","))
            assert 0 < p_pdd <= 1 and 0 < p_udd <= 1

    def test_decoupled_bath_flat_curve(self, tmp_path):
        out = tmp_path / "flat.csv"
        args = [a if a != "0.2" else "0.0" for a in FAST_CURVE]
        assert main(["curve", *args, "--out", str(out)]) == EXIT_OK
        for line in out.read_text().splitlines()[1:]:
            assert line.split(",")[1] == "1" and line.split(",")[2] == "1"

    def test_single_point(self, tmp_path):
        out = tmp_path / "one.csv"
        args = FAST_CURVE[:-1] + ["1"]
        assert main(["curve", *args, "--scheme", "pdd", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "T,P_pdd"
        assert len(lines) == 2

    def test_zero_t_min_maps_to_unity(self, tmp_path):
        out = tmp_path / "zero.csv"
        assert main(["curve", *FAST_CURVE, "--t-min", "0", "--scheme", "udd",
                     "--out", str(out)]) == EXIT_OK
        first = out.read_text().splitlines()[1]
        assert first == "0,1"

    def test_zero_t_min_alone_is_not_swept(self, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("swept a grid that holds only T = 0")

        monkeypatch.setattr(cli, "sweep_curve", never)
        out = tmp_path / "zero.csv"
        assert main(["curve", "--scheme", "both", "--t-min", "0", "--t-max", "1",
                     "--t-points", "1", "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == b"T,P_pdd,P_udd\n0,1,1\n"

    def test_zero_t_min_head_then_swept_values(self, tmp_path):
        out = tmp_path / "zero.csv"
        args = FAST_CURVE[:-1] + ["5"]
        assert main(["curve", *args, "--t-min", "0", "--out", str(out)]) == EXIT_OK
        grid = np.linspace(0.0, 2.0, 5)
        bath = BathSpec(alpha=0.2, cutoff=5.0, temperature=2.0)
        swept = [sweep_curve(ScheduleSpec(scheme, 2, 1, 1.0), bath, grid[1:]).values
                 for scheme in (Scheme.PDD, Scheme.UDD)]
        lines = out.read_text().splitlines()
        assert lines[:2] == ["T,P_pdd,P_udd", "0,1,1"]
        rows = np.array([[float(value) for value in line.split(",")] for line in lines[2:]])
        np.testing.assert_array_equal(rows, np.column_stack([grid[1:], *swept]))

    def test_csv_values_reparse_bit_exact(self, tmp_path):
        out = tmp_path / "curve.csv"
        main(["curve", *FAST_CURVE, "--out", str(out)])
        text = out.read_text(encoding="utf-8")
        rebuilt = [text.splitlines()[0]]
        for line in text.splitlines()[1:]:
            rebuilt.append(",".join(f"{float(v):.17g}" for v in line.split(",")))
        assert "\n".join(rebuilt) + "\n" == text

    def test_reruns_and_worker_counts_byte_identical(self, tmp_path):
        a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
        main(["curve", *FAST_CURVE, "--out", str(a)])
        main(["curve", *FAST_CURVE, "--out", str(b), "--workers", "1"])
        main(["curve", *FAST_CURVE, "--out", str(c), "--workers", "3"])
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = write(
            tmp_path / "run.cfg",
            "n = 2\ncycles = 1\nalpha = 0.2\ntemperature = 2.0\ncutoff = 5.0\n"
            f"scheme = pdd\nt_max = 2.0\nt_points = 2\noutput_path = {tmp_path/'x.csv'}\n",
        )
        assert main(["curve", "--config", cfg, "--t-points", "3"]) == EXIT_OK
        assert len((tmp_path / "x.csv").read_text().splitlines()) == 4

    def test_custom_scheme_from_fraction_file(self, tmp_path):
        fractions = write(tmp_path / "frac.txt", "0.3\n")  # M = 2*1 - 1 = 1
        out = tmp_path / "custom.csv"
        assert main(["curve", *FAST_CURVE, "--scheme", "custom",
                     "--custom-fractions", fractions, "--out", str(out)]) == EXIT_OK
        assert out.read_text().splitlines()[0] == "T,P_custom"

    def test_schedule_output_feeds_custom_curve(self, tmp_path):
        # dumping UDD fractions and replaying them as a custom scheme must
        # reproduce the built-in UDD curve bit for bit
        fractions = tmp_path / "udd.txt"
        assert main(["schedule", "--scheme", "udd", "--n", "2", "--cycles", "1",
                     "--out", str(fractions)]) == EXIT_OK
        builtin, replay = tmp_path / "builtin.csv", tmp_path / "replay.csv"
        main(["curve", *FAST_CURVE, "--scheme", "udd", "--out", str(builtin)])
        main(["curve", *FAST_CURVE, "--scheme", "custom",
              "--custom-fractions", str(fractions), "--out", str(replay)])
        strip_header = lambda p: p.read_text().splitlines()[1:]
        assert strip_header(builtin) == strip_header(replay)

    def test_missing_config_is_io_error(self, capsys):
        assert main(["curve", "--config", "/nonexistent/run.cfg"]) == EXIT_IO

    def test_missing_fraction_file_is_io_error(self, tmp_path, capsys):
        assert main(["curve", *FAST_CURVE, "--scheme", "custom",
                     "--custom-fractions", str(tmp_path / "nope.txt")]) == EXIT_IO

    @pytest.mark.parametrize("flags, data, line", [
        (["--config"], b"n = 3\n\xe9t\n",
         "{path}: 'utf-8' codec can't decode byte 0xe9 in position 6: invalid continuation byte"),
        (["--scheme", "custom", "--custom-fractions"], b"0.25\n0.\xe9\n",
         "{path}: 'utf-8' codec can't decode byte 0xe9 in position 7: invalid continuation byte"),
        (["--scheme", "custom", "--custom-fractions"], b"# M = 1\n0.2 # x\n",
         "{path}:2: not a number: '0.2 # x'"),
        (["--scheme", "custom", "--custom-fractions"], b"0.3\n0.7\n",
         "{path}: custom fractions: expected 1 values (n*cycles - 1), got 2"),
    ], ids=["config-not-utf-8", "fractions-not-utf-8", "fractions-bad-line",
            "fractions-too-many"])
    def test_input_file_error_names_the_file(self, flags, data, line, tmp_path, capsys):
        # these once read "line 2: ..." or only the codec's message
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        out = tmp_path / "curve.csv"
        assert main(["curve", *FAST_CURVE, *flags, str(path), "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"ladder-dd: {line.format(path=path)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["curve", *FAST_CURVE],
        ["schedule", "--scheme", "pdd", "--n", "2", "--cycles", "1"],
    ], ids=["curve", "schedule"])
    @pytest.mark.parametrize("target", ["missing-dir/out.csv", "a-directory"])
    def test_write_failure_names_the_given_path(self, command, target, tmp_path, capsys):
        # the file is written beside its path and renamed: the error names the
        # path given, not the temporary file, and no temporary file is left
        (tmp_path / "a-directory").mkdir()
        out = str(tmp_path / target)
        assert main([*command, "--out", out]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("ladder-dd: ") and f"'{out}'" in err
        assert ".tmp" not in err
        assert [path.name for path in tmp_path.rglob("*")] == ["a-directory"]

    def test_invalid_flag_value(self, capsys):
        assert main(["curve", "--alpha", "-3"]) == EXIT_VALIDATION
        assert "alpha" in capsys.readouterr().err

    def test_non_finite_flag_value(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert main(["curve", "--cutoff", "inf", "--out", str(out)]) == EXIT_VALIDATION
        assert "cutoff" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_worker_count(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        for workers in ("-3", "0"):
            assert main(["curve", *FAST_CURVE, "--workers", workers, "--out", str(out)]) == (
                EXIT_VALIDATION
            )
            assert "workers" in capsys.readouterr().err
            assert not out.exists()

    def test_overflowing_bath_is_convergence_failure(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert main(["curve", "--alpha", "1e308", "--temperature", "1e308", "--cycles", "2",
                     "--t-max", "1.556", "--t-points", "1", "--scheme", "pdd",
                     "--out", str(out)]) == EXIT_CONVERGENCE
        assert capsys.readouterr().err.startswith("ladder-dd: convergence failure: ")
        assert not out.exists()

    def test_overflowing_default_curve_fails_at_first_estimate(self, tmp_path, capsys):
        # the default 60-point run stops at its first point's first estimate
        # instead of refining an overflowed integrand, and no numpy warning
        # precedes the named message
        out = tmp_path / "never.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["curve", "--alpha", "1e308", "--temperature", "1e308",
                         "--scheme", "pdd", "--out", str(out)]) == EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert "non-finite decay exponent estimate" in err
        assert f"T={DEFAULT_T_MAX / 60:.6g}" in err
        assert not out.exists()

    @pytest.mark.parametrize("t_max", ["1e10", "1"])
    def test_out_of_range_frequency_span_is_input_error(self, tmp_path, capsys, t_max):
        # cutoff*T overflows to inf at t_max 1e10 and is a finite 1e300 at 1:
        # both are rejected before any panel is tiled
        out = tmp_path / "never.csv"
        assert main(["curve", "--cutoff", "1e300", "--t-max", t_max, "--t-points", "1",
                     "--out", str(out)]) == EXIT_VALIDATION
        assert "cutoff * total time" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["pdd", "udd"])
    def test_tiny_frequency_span_is_input_error_without_numpy_warning(self, tmp_path,
                                                                      capsys, scheme):
        # from the smallest normal float up to about 1.8e-305, 1/w overflows at
        # the smallest quadrature nodes: the run stops with a named error before
        # any filter is evaluated, while a larger cutoff*T still runs
        out = tmp_path / "curve.csv"
        args = ["curve", "--cutoff", "1", "--t-points", "1", "--scheme", scheme,
                "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t_max in ("2.3e-308", "1e-306", "1e-305", "1.78e-305"):
                assert main([*args, "--t-max", t_max]) == EXIT_VALIDATION
                err = capsys.readouterr().err
                assert f"cutoff * total time = {t_max} is below 1.78951e-305" in err
                assert "RuntimeWarning" not in err
                assert not out.exists()
            for t_max in ("1.79e-305", "1e-300"):
                assert main([*args, "--t-max", t_max]) == EXIT_OK
                assert out.read_text().splitlines()[1] == f"{t_max},1"

    def test_convergence_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise ConvergenceError("no convergence (while evaluating T=1)",
                                   np.zeros(1), np.zeros(1))

        monkeypatch.setattr(cli, "sweep_curve", boom)
        out = tmp_path / "never.csv"
        assert main(["curve", *FAST_CURVE, "--out", str(out)]) == EXIT_CONVERGENCE
        assert not out.exists()
        assert "convergence" in capsys.readouterr().err


class TestOracleCheckCommand:
    def test_default_suite_passes(self, capsys):
        assert main(["oracle-check"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "worst relative deviation" in out
        assert out.splitlines()[-1].endswith(", tolerance 1e-06")
        assert "FAIL" not in out

    def test_phase_column_drops_the_sign_of_rounding_noise(self, monkeypatch, capsys):
        # a phase that rounds to zero prints +0.00000 whatever its sign
        def suite():
            return [SimpleNamespace(case=SimpleNamespace(name=name), observed_exponent=0.1,
                                    predicted_exponent=0.1, observed_ratio=0.9,
                                    rel_error=0.0, phase_shift=phase, passed=True)
                    for name, phase in (("noise", -3.6e-19), ("signal", -0.00236))]

        monkeypatch.setattr(calibration, "run_calibration_suite", suite)
        assert main(["oracle-check"]) == EXIT_OK
        noise, signal = capsys.readouterr().out.splitlines()[1:3]
        assert noise.split()[-2:] == ["+0.00000", "ok"]
        assert signal.split()[-2:] == ["-0.00236", "ok"]


class TestMemoryError:
    # a real allocation failure (verify-group --n 200000 asks numpy for
    # 596 GiB) is simulated: the test must not allocate
    @pytest.mark.parametrize("target, argv, error", [
        ("verify_decoupling", ["verify-group", "--n", "200000"], MemoryError()),
        ("sweep_curve", ["curve", *FAST_CURVE],
         MemoryError("Unable to allocate 1.70 GiB for an array")),
    ], ids=["verify-group", "curve"])
    def test_out_of_memory_is_input_error(self, target, argv, error, tmp_path,
                                          monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, target, boom)
        monkeypatch.chdir(tmp_path)  # where curve writes by default
        assert main(argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"ladder-dd: {str(error) or 'MemoryError'}\n"
        assert list(tmp_path.iterdir()) == []


# Small curve runs for the edge table: one cycle, two grid points up to T = 0.5.
EDGE_CURVE = ["curve", "--cycles", "1", "--t-points", "2", "--t-max", "0.5"]
EDGE_CUSTOM = ["--scheme", "custom", "--n", "2", "--custom-fractions", "{dir}/fractions.txt"]


class TestQuadTolerance:
    def test_subnormal_tolerance_exits_before_any_sweep(self, tmp_path, capsys, monkeypatch):
        # it once refined through every doubling (977850 nodes, 1.7 s) to exit 3
        def never(*args, **kwargs):
            raise AssertionError("swept with an unreachable tolerance")

        monkeypatch.setattr(cli, "sweep_curve", never)
        out = tmp_path / "curve.csv"
        argv = [*EDGE_CURVE, "--quad-tolerance=5e-324", "--out", str(out)]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "ladder-dd: quad_tolerance must be in [1e-14, 1e-2], got 5e-324\n")
        assert not out.exists()

    def test_tight_tolerance_still_writes_its_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main([*EDGE_CURVE, "--quad-tolerance", "1e-13", "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[0] == ["T", "P_pdd", "P_udd"]
        assert [float(row[0]) for row in rows[1:]] == [0.25, 0.5]
        assert all(0.0 < float(p) <= 1.0 for row in rows[1:] for p in row[1:])


class TestEdgeInputs:
    """Every edge input ends in a documented exit code, at most one named stderr
    line and no numpy warning; a run that exits 0 wrote the requested grid with
    finite P in [0, 1]."""

    @pytest.mark.parametrize("argv, files", [
        *(([*EDGE_CURVE, f"--{flag}={value}"], {}) for flag, value in [
            ("alpha", "0"), ("alpha", "-0"), ("alpha", "5e-324"), ("alpha", "1e300"),
            ("alpha", "nan"), ("temperature", "5e-324"), ("temperature", "1e300"),
            ("temperature", "-inf"), ("cutoff", "-0"), ("cutoff", "5e-324"),
            ("cutoff", "1e300"), ("t-min", "0"), ("t-min", "-1"), ("t-min", "nan"),
            ("t-max", "inf"), ("t-max", "5e-324"), ("quad-tolerance", "1e300"),
            ("quad-tolerance", "nan"), ("quad-tolerance", "-1"),
            ("n", "0"), ("cycles", "-1"), ("t-points", "0"), ("t-points", "-1"),
            ("workers", "0"),
            # argparse once printed its usage and raised SystemExit(2)
            ("cycles", "2.0"), ("scheme", "ppd"),
        ]),
        (["verify-group", "--n=0"], {}),
        (["schedule", "--scheme=udd", "--n=2", "--cycles=-1"], {}),
        ([*EDGE_CURVE, *EDGE_CUSTOM], {"fractions.txt": ""}),
        ([*EDGE_CURVE, *EDGE_CUSTOM], {"fractions.txt": "0.25\n"}),
        ([*EDGE_CURVE, *EDGE_CUSTOM], {"fractions.txt": "nan\n"}),
        ([*EDGE_CURVE, "--config", "{dir}/run.cfg"], {"run.cfg": "n = 3\nn = 2\n"}),
    ], ids=lambda value: (" ".join(value).replace(" ".join(EDGE_CURVE), "curve")
                          if isinstance(value, list)
                          else " ".join(f"{name}={text!r}" for name, text in value.items())))
    def test_edge_input(self, argv, files, tmp_path):
        for name, text in files.items():
            write(tmp_path / name, text)
        argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
        run_under_contract(argv, tmp_path / "curve.csv")


def run_under_contract(argv, out):
    """``main(argv)`` in-process with warnings as errors: it ends in a
    documented exit code with stderr empty or one named line, and a curve that
    exits 0 wrote the requested grid with finite P in [0, 1] to ``out``.
    Returns the exit code and stderr."""
    if argv[0] == "curve":
        argv = [*argv, "--out", str(out)]
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        code = main(argv)
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_CONVERGENCE, EXIT_IO), err
    assert err == "" or (err.startswith("ladder-dd: ") and err.count("\n") == 1), err
    if code == EXIT_OK and argv[0] == "curve":
        args = cli._build_parser().parse_args(argv)
        config = parse_config(args.config, {key: getattr(args, key) for key in cli._KEY_TYPES})
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        grid = np.linspace(config.resolved_t_min(), config.t_max, config.t_points)
        assert [float(row[0]) for row in rows] == grid.tolist()
        values = np.array([row[1:] for row in rows], dtype=float)
        assert np.all(np.isfinite(values)) and np.all((values >= 0) & (values <= 1))
    return code, err


# edge-heavy reals and counts that are not counts; a small grid otherwise,
# so that no draw takes more than a few MiB or about 0.2 s
EDGE_REALS = ["0", "-0", "inf", "-inf", "nan", "5e-324", "2.2e-308", "1e-300", "-1e-300",
              "1e300", "-1e300"]
BAD_COUNTS = ["0", "-1", "2.0"]
REAL_FLAGS = {"alpha": "0.2", "temperature": "2.0", "cutoff": "5.0", "t-min": None,
              "t-max": "0.5", "quad-tolerance": None}
COUNT_FLAGS = {"n": ["2", "3"], "cycles": ["1", "2"], "t-points": ["1", "2", "3"]}
CONFIG_KEYS = ["n", "cycles", "t_points", "alpha", "temperature", "t_max", "quad_tolerance",
               "scheme", "levels"]  # "levels" is no config key


@st.composite
def curve_runs(draw):
    """(argv, config file text or None) of one small ``curve`` run: up to two
    flags take an edge value, and the file may repeat keys or hold an unknown one."""
    edgy = draw(st.sets(st.sampled_from([*COUNT_FLAGS, *REAL_FLAGS]), max_size=2))
    argv = ["curve"]
    for flag, plain in COUNT_FLAGS.items():
        argv.append(f"--{flag}={draw(st.sampled_from(BAD_COUNTS if flag in edgy else plain))}")
    for flag, plain in REAL_FLAGS.items():
        value = draw(st.sampled_from(EDGE_REALS)) if flag in edgy else plain
        if value is not None:
            argv.append(f"--{flag}={value}")
    argv.append(f"--scheme={draw(st.sampled_from(['pdd', 'udd', 'both']))}")
    if not draw(st.booleans()):
        return argv, None
    lines = draw(st.lists(st.tuples(
        st.sampled_from(CONFIG_KEYS),
        st.sampled_from(["1", "2", "0.3", "pdd", *BAD_COUNTS, *EDGE_REALS])), max_size=4))
    return argv, "".join(f"{key} = {value}\n" for key, value in lines)


@settings(max_examples=60, deadline=None)
@given(curve_runs())
def test_curve_keeps_its_contract_on_drawn_inputs(run):
    argv, config = run
    with tempfile.TemporaryDirectory() as directory:
        if config is not None:
            argv = [*argv, "--config", write(Path(directory) / "run.cfg", config)]
        run_under_contract(argv, Path(directory) / "curve.csv")


# What a fraction line may hold besides an in-range fraction: the ends of
# (0, 1), values past them, non-finite and subnormal values, a blank or '#'
# line and text that is no number
EDGE_FRACTIONS = ["0", "1", "-0", "1.5", "nan", "inf", "-inf", "5e-324", "2.2e-308",
                  "0.9999999999999999", "", "# comment", "x"]


@st.composite
def custom_runs(draw):
    """(argv, fraction file bytes) of one small ``curve --scheme custom`` run at
    n in {2, 3}, N in {1, 2, 3}, 1 to 3 grid points and the default tolerance.
    The file starts as the n N - 1 sorted fractions the run needs and takes up
    to three edits: a line dropped, repeated, swapped with the next, given an
    inline comment or replaced by an EDGE_FRACTIONS line, or such a line
    inserted.  Then it may lose every line, or take a byte that is not UTF-8."""
    n, cycles = draw(st.sampled_from([2, 3])), draw(st.sampled_from([1, 2, 3]))
    argv = ["curve", "--scheme=custom", f"--n={n}", f"--cycles={cycles}",
            f"--t-points={draw(st.sampled_from([1, 2, 3]))}", "--alpha=0.2",
            "--temperature=2.0", "--cutoff=5.0", "--t-max=0.5"]
    count = n * cycles - 1
    permille = draw(st.sets(st.integers(1, 999), min_size=count, max_size=count))
    lines = [repr(value / 1000) for value in sorted(permille)]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["drop", "repeat", "swap", "comment", "replace", "insert"]))
        if edit == "insert":
            lines.insert(at, draw(st.sampled_from(EDGE_FRACTIONS)))
        elif at < len(lines):
            if edit == "replace":
                lines[at] = draw(st.sampled_from(EDGE_FRACTIONS))
            elif edit == "drop":
                del lines[at]
            elif edit == "repeat":
                lines.insert(at, lines[at])
            elif edit == "swap":
                lines[at : at + 2] = lines[at : at + 2][::-1]
            else:
                lines[at] += " # inline"
    data = "".join(f"{line}\n" for line in lines).encode()
    damage = draw(st.sampled_from(["none", "none", "empty", "not utf-8"]))
    if damage == "empty":
        data = b""
    elif damage == "not utf-8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xe9", b"\xff", b"\xc3"])) + data[at:]
    return argv, data


@settings(max_examples=60, deadline=None)
@given(custom_runs())
def test_custom_curve_keeps_its_contract_on_drawn_fraction_files(run):
    argv, data = run
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "fractions.txt"
        path.write_bytes(data)
        code, err = run_under_contract([*argv, f"--custom-fractions={path}"],
                                       Path(directory) / "curve.csv")
    if code == EXIT_VALIDATION:  # every flag is valid: the file is at fault
        assert err.startswith(f"ladder-dd: {path}:"), err


def test_runtime_needs_numpy_alone(tmp_path):
    # every subcommand that computes runs without importing scipy, which is
    # only the tests' independent reference, only oracle-check loads the
    # oracle, and the curve's Gauss-Legendre rule is literal, not numpy.polynomial
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from ladder_dd.cli import main\n"
        "assert main(['verify-group', '--n', '3']) == 0\n"
        f"assert main({['curve', *FAST_CURVE, '--out', str(tmp_path / 'c.csv')]!r}) == 0\n"
        "for name in ('ladder_dd.calibration', 'ladder_dd.fock_oracle', 'numpy.polynomial'):\n"
        "    assert name not in sys.modules, f'{name} was imported'\n"
        "assert main(['oracle-check']) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "c.csv").exists()


class TestHelp:
    def test_exit_codes_documented(self):
        help_text = cli._build_parser().format_help()
        assert "exit codes" in help_text
        for code in ("0 ", "1 ", "2 ", "3 ", "4 "):
            assert code in help_text
