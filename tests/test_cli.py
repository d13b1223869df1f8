import argparse
import dataclasses
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

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
from ladder_dd.kernel import ConvergenceError
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

    def test_miswired_negative_control(self, capsys):
        assert main(["oracle-check", "--miswired"]) == EXIT_CHECK_FAILED
        assert "FAIL" in capsys.readouterr().out

    def test_phase_column_drops_the_sign_of_rounding_noise(self, monkeypatch, capsys):
        # a phase that rounds to zero prints +0.00000 whatever its sign
        def suite(wrong_sign):
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


def test_runtime_needs_numpy_alone(tmp_path):
    # every subcommand that computes runs without importing scipy, which is
    # only the tests' independent reference, and only oracle-check loads the oracle
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from ladder_dd.cli import main\n"
        "assert main(['verify-group', '--n', '3']) == 0\n"
        f"assert main({['curve', *FAST_CURVE, '--out', str(tmp_path / 'c.csv')]!r}) == 0\n"
        "for name in ('ladder_dd.calibration', 'ladder_dd.fock_oracle'):\n"
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
