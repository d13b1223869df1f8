import warnings

import numpy as np
import pytest

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
from ladder_dd.schedules import make_schedule


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
        ],
    )
    def test_bound_violations_name_field(self, overrides, field):
        with pytest.raises(ValueError, match=field):
            parse_config(None, overrides)

    def test_custom_scheme_requires_fraction_path(self):
        with pytest.raises(ValueError, match="custom_fractions_path"):
            parse_config(None, {"scheme": "custom"})


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
        assert main(["schedule", "--scheme", "udd", "--n", "2", "--cycles", "2",
                     "--total-time", "1.0"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        expected = make_schedule("udd", 2, 2, 1.0).fractions
        assert [float(line) for line in lines] == list(expected)

    def test_file_output_round_trips(self, tmp_path):
        out = tmp_path / "fractions.txt"
        assert main(["schedule", "--scheme", "pdd", "--n", "6", "--cycles", "50",
                     "--total-time", "10.0", "--out", str(out)]) == EXIT_OK
        values = [float(line) for line in out.read_text().strip().splitlines()]
        np.testing.assert_array_equal(values, make_schedule("pdd", 6, 50, 10.0).fractions)

    def test_invalid_cycles(self, capsys):
        assert main(["schedule", "--scheme", "pdd", "--n", "2", "--cycles", "0",
                     "--total-time", "1.0"]) == EXIT_VALIDATION


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
                     "--total-time", "2.0", "--out", str(fractions)]) == EXIT_OK
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
        assert "convergence" in capsys.readouterr().err
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
        assert "FAIL" not in out

    def test_miswired_negative_control(self, capsys):
        assert main(["oracle-check", "--miswired"]) == EXIT_CHECK_FAILED
        assert "FAIL" in capsys.readouterr().out


class TestHelp:
    def test_exit_codes_documented(self):
        help_text = cli._build_parser().format_help()
        assert "exit codes" in help_text
        for code in ("0 ", "1 ", "2 ", "3 ", "4 "):
            assert code in help_text
