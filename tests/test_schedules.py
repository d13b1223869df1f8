import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from ladder_dd.schedules import (
    ScheduleSpec,
    Scheme,
    build_schedule,
    check_count,
    check_real,
    fractions_text,
    parse_fractions_text,
    pulse_count,
)

# sin^2(pi/8) and sin^2(3*pi/8), i.e. (1 -/+ sqrt(2)/2)/2
UDD3_LO = 0.14644660940672624
UDD3_HI = 0.85355339059327373


class TestCheckCount:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), 10**30])
    def test_integers_at_or_above_the_bound_pass(self, value):
        check_count("cycle count", "cycles", value, 3)

    @pytest.mark.parametrize("value", [2, np.int64(2), -1, 3.0, 3.5, "3", True, np.bool_(True),
                                       None, math.nan])
    def test_everything_else_is_named(self, value):
        with pytest.raises(ValueError) as excinfo:
            check_count("cycle count", "cycles", value, 3)
        assert str(excinfo.value) == f"cycle count must be an int >= 3, got cycles={value!r}"


class TestCheckReal:
    def test_returns_the_float(self):
        for value in (np.float32(0.5), np.int64(3), Fraction(1, 4), 7, 2.5):
            number = check_real("x", "x", value, 0, True)
            assert type(number) is float and number == float(value)

    def test_low_is_admitted_unless_strict(self):
        assert check_real("alpha", "alpha", 0, 0, False) == 0.0
        with pytest.raises(ValueError, match=r"^alpha must be finite and > 0, got alpha=0$"):
            check_real("alpha", "alpha", 0, 0, True)
        with pytest.raises(ValueError, match=r"^alpha must be finite and >= 0, got alpha=-1e-300$"):
            check_real("alpha", "alpha", -1e-300, 0, False)

    def test_int_too_large_for_a_float_is_named(self):
        with pytest.raises(ValueError, match=r"^t_max must be finite and > 0, got t_max=1000"):
            check_real("t_max", "t_max", 10**400, 0, True)
        with pytest.raises(ValueError, match=r"^t_max must be finite and > 0, got t_max=Fraction"):
            check_real("t_max", "t_max", Fraction(10**400, 3), 0, True)


class TestPulseCount:
    def test_reference_scenario(self):
        assert pulse_count(6, 50) == 299

    def test_smallest(self):
        assert pulse_count(2, 1) == 1

    def test_three_level_two_cycles(self):
        assert pulse_count(3, 2) == 5

    def test_errors(self):
        with pytest.raises(ValueError, match="n=1"):
            pulse_count(1, 5)
        with pytest.raises(ValueError, match="cycles=0"):
            pulse_count(3, 0)


def fractions(scheme, n, cycles):
    """The M = n*cycles - 1 interior fractions of ``scheme``."""
    return ScheduleSpec(scheme, n, cycles, 1.0).fractions


class TestFractions:
    def test_pdd_single(self):
        np.testing.assert_array_equal(fractions(Scheme.PDD, 2, 1), [0.5])

    def test_pdd_three(self):
        np.testing.assert_allclose(fractions(Scheme.PDD, 2, 2), [0.25, 0.5, 0.75], rtol=0, atol=0)

    def test_pdd_299_first(self):
        assert fractions(Scheme.PDD, 6, 50)[0] == 1.0 / 300.0

    def test_udd_single(self):
        np.testing.assert_allclose(fractions(Scheme.UDD, 2, 1), [0.5], atol=1e-16)

    def test_udd_two(self):
        np.testing.assert_allclose(fractions(Scheme.UDD, 3, 1), [0.25, 0.75], atol=1e-16)

    def test_udd_three_half_angle_values(self):
        np.testing.assert_allclose(fractions(Scheme.UDD, 2, 2), [UDD3_LO, 0.5, UDD3_HI],
                                   atol=1e-16)


class TestBuildSchedule:
    def test_pdd_two_level_single_cycle(self):
        schedule = ScheduleSpec(Scheme.PDD, 2, 1, 1.0)
        np.testing.assert_allclose(schedule.segments, [[0.5, 0.5]], atol=0)
        np.testing.assert_allclose(schedule.segments.sum(axis=1), [1.0], atol=0)

    def test_udd_two_level_two_cycles_derived(self):
        # fractions from the closed form, segments by differencing
        schedule = ScheduleSpec(Scheme.UDD, 2, 2, 1.0)
        np.testing.assert_allclose(schedule.fractions, [UDD3_LO, 0.5, UDD3_HI], atol=1e-16)
        np.testing.assert_allclose(
            schedule.segments,
            [[UDD3_LO, 0.5 - UDD3_LO], [UDD3_HI - 0.5, 1.0 - UDD3_HI]],
            atol=1e-15,
        )
        np.testing.assert_allclose(schedule.segments.sum(axis=1), [0.5, 0.5], atol=1e-15)

    def test_pdd_reference_uniform(self):
        schedule = ScheduleSpec(Scheme.PDD, 6, 50, 10.0)
        assert schedule.segments.shape == (50, 6)
        np.testing.assert_allclose(schedule.segments, 10.0 / 300.0, rtol=1e-12)

    def test_two_level_single_cycle_schemes_coincide(self):
        pdd = ScheduleSpec(Scheme.PDD, 2, 1, 3.0)
        udd = ScheduleSpec(Scheme.UDD, 2, 1, 3.0)
        np.testing.assert_allclose(pdd.fractions, udd.fractions, atol=1e-16)


@pytest.mark.parametrize("scheme", [Scheme.PDD, Scheme.UDD])
@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("cycles", [1, 2, 50])
class TestScheduleInvariants:
    def _schedule(self, scheme, n, cycles, total_time=2.5) -> ScheduleSpec:
        return ScheduleSpec(scheme, n, cycles, total_time)

    def test_segments_positive_and_sum_to_total(self, scheme, n, cycles):
        schedule = self._schedule(scheme, n, cycles)
        assert np.all(schedule.segments > 0)
        total = schedule.total_time
        assert abs(schedule.segments.sum() - total) <= 1e-12 * total

    def test_cycle_lengths_are_row_sums(self, scheme, n, cycles):
        # each row of segments spans one cycle: every n-th boundary
        schedule = self._schedule(scheme, n, cycles)
        np.testing.assert_allclose(
            schedule.segments.sum(axis=1),
            np.diff(schedule.boundaries[::n]),
            rtol=0,
            atol=1e-12 * schedule.total_time,
        )

    def test_flat_index_bijection(self, scheme, n, cycles):
        # segment (j, i) = (delta_m - delta_{m-1}) * T with m = (j-1)*n + i
        schedule = self._schedule(scheme, n, cycles)
        padded = np.concatenate(([0.0], schedule.fractions, [1.0]))
        for j in range(1, cycles + 1):
            for i in range(1, n + 1):
                m = (j - 1) * n + i
                expected = (padded[m] - padded[m - 1]) * schedule.total_time
                assert abs(schedule.segments[j - 1, i - 1] - expected) <= 1e-15

    def test_scheme_specific_shape(self, scheme, n, cycles):
        schedule = self._schedule(scheme, n, cycles)
        total = schedule.total_time
        if scheme is Scheme.PDD:
            spread = schedule.segments.max() - schedule.segments.min()
            assert spread <= 1e-12 * total
        else:
            fr = schedule.fractions
            m = fr.size
            for i in range(m):
                assert abs(fr[i] + fr[m - 1 - i] - 1.0) <= 1e-14
            flat = schedule.segments.ravel()
            np.testing.assert_allclose(flat, flat[::-1], rtol=0, atol=1e-12 * total)


class TestDerivedArrays:
    def test_read_arrays_leave_equality_and_hash(self):
        read = ScheduleSpec(Scheme.UDD, 3, 2, 1.5)
        assert read.segments.shape == (2, 3)  # derives the other arrays too
        fresh = ScheduleSpec(Scheme.UDD, 3, 2, 1.5)
        assert read == fresh
        assert hash(read) == hash(fresh)

    def test_replace_derives_its_own_arrays(self):
        spec = ScheduleSpec(Scheme.PDD, 2, 1, 1.5)
        assert spec.boundaries[-1] == 1.5
        assert dataclasses.replace(spec, total_time=3.0).boundaries[-1] == 3.0

    def test_arrays_cannot_be_assigned(self):
        spec = ScheduleSpec(Scheme.PDD, 2, 1, 1.0)
        for _ in range(2):  # before and after the first read
            with pytest.raises(dataclasses.FrozenInstanceError):
                spec.boundaries = np.zeros(3)
            assert spec.boundaries.tolist() == [0.0, 0.5, 1.0]

    def test_build_schedule_returns_its_argument(self):
        spec = ScheduleSpec(Scheme.UDD, 2, 2, 1.0)
        assert build_schedule(spec) is spec


class TestCustomScheme:
    def test_valid_custom(self):
        schedule = ScheduleSpec(Scheme.CUSTOM, 2, 1, 2.0, custom_fractions=(0.4,))
        np.testing.assert_allclose(schedule.segments, [[0.8, 1.2]], atol=1e-15)

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="expected 3"):
            ScheduleSpec(Scheme.CUSTOM, 2, 2, 1.0, custom_fractions=(0.2, 0.5))

    def test_out_of_range_names_index(self):
        with pytest.raises(ValueError, match="index 2"):
            ScheduleSpec(Scheme.CUSTOM, 2, 2, 1.0, custom_fractions=(0.2, 0.5, 1.5))

    @pytest.mark.parametrize("value", ["0.5", 0.5 + 0j, True, None])
    def test_non_real_names_index(self, value):
        # "0.5", 0.5+0j and None once failed with a bare TypeError
        with pytest.raises(ValueError) as excinfo:
            ScheduleSpec(Scheme.CUSTOM, 2, 2, 1.0, custom_fractions=(0.2, value, 0.7))
        assert str(excinfo.value) == (
            f"custom fractions: value {value!r} at index 1 outside (0, 1)")

    def test_real_values_give_the_bits_of_their_floats(self):
        values = (Fraction(1, 3), np.float32(0.5), 0.7)
        schedule = ScheduleSpec(Scheme.CUSTOM, 2, 2, 1.0, custom_fractions=values)
        floats = ScheduleSpec(Scheme.CUSTOM, 2, 2, 1.0, custom_fractions=tuple(map(float, values)))
        assert schedule.boundaries.tobytes() == floats.boundaries.tobytes()

    def test_non_monotonic_names_index(self):
        with pytest.raises(ValueError, match="index 1"):
            ScheduleSpec(Scheme.CUSTOM, 2, 2, 1.0, custom_fractions=(0.5, 0.2, 0.7))

    def test_custom_fractions_rejected_for_pdd(self):
        with pytest.raises(ValueError, match="does not take"):
            ScheduleSpec(scheme=Scheme.PDD, n=2, cycles=1, total_time=1.0,
                         custom_fractions=(0.5,))


class TestSpecValidation:
    def test_bad_total_time(self):
        for total_time in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="total time"):
                ScheduleSpec(scheme=Scheme.PDD, n=2, cycles=1, total_time=total_time)

    def test_bad_cycles(self):
        with pytest.raises(ValueError, match="cycles=0"):
            ScheduleSpec(scheme=Scheme.PDD, n=2, cycles=0, total_time=1.0)

    def test_bad_dimension(self):
        with pytest.raises(ValueError, match="n=1"):
            ScheduleSpec(scheme=Scheme.PDD, n=1, cycles=1, total_time=1.0)

    @pytest.mark.parametrize("field, value", [("n", 2.0), ("cycles", 1.0), ("cycles", True)])
    def test_non_integer_count_is_named(self, field, value):
        # each once passed and failed later with a bare TypeError
        counts = dict(n=2, cycles=1) | {field: value}
        with pytest.raises(ValueError, match=f"must be an int >= ., got {field}={value!r}$"):
            ScheduleSpec(scheme=Scheme.PDD, total_time=1.0, **counts)


class TestSerialization:
    def test_round_trip_is_exact(self):
        udd = fractions(Scheme.UDD, 6, 50)
        text = fractions_text(udd)
        parsed = np.array(parse_fractions_text(text))
        assert text.count("\n") == 299
        np.testing.assert_array_equal(parsed, udd)

    def test_parse_skips_comments_and_blanks(self):
        assert parse_fractions_text("# header\n\n0.25\n 0.75 \n") == (0.25, 0.75)

    def test_parse_error_reports_line(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_fractions_text("0.5\nnot-a-number\n")
