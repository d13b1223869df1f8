import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ladder_dd.kernel as kernel
from ladder_dd.kernel import (
    BathSpec,
    ConvergenceError,
    FilterTable,
    coherence_ratio,
    decay_exponents,
    decay_integrand,
    exponent_filters,
    exponent_for_transition,
    filter_positions_for_exponent,
    ohmic_density,
    position_filters,
    segment_kernel,
    sweep_curve,
    transition_for_exponent,
)
from ladder_dd.schedules import Scheme, ScheduleSpec, make_schedule


def eta_literal(l, omega, schedule):
    """Term-by-term transcription of the position filter: for each cycle, the
    segment window times the intra-cycle phase times the elapsed-cycles phase."""
    total = 0.0 + 0.0j
    for j in range(1, schedule.cycles + 1):
        seg = schedule.segments[j - 1]
        term = segment_kernel(omega, float(seg[l - 1]))
        term *= np.exp(1j * omega * seg[: l - 1].sum())
        term *= np.exp(1j * omega * schedule.cycle_lengths[: j - 1].sum())
        total += term
    return total


def chi_literal(m, omega, schedule):
    """Cyclic-neighbour second difference, coded independently of the package."""
    n = schedule.n
    eta = [eta_literal(l, omega, schedule) for l in range(1, n + 1)]
    if m == 1:
        return -2 * eta[0] + eta[1] + eta[n - 1]
    if m == 2:
        return -2 * eta[1] + eta[0] + eta[2]
    return -2 * eta[n - m + 1] + eta[n - m] + eta[n - m + 2]


class TestSegmentKernel:
    def test_zero_duration(self):
        assert segment_kernel(3.7, 0.0) == 0.0

    def test_zero_frequency_limit(self):
        assert segment_kernel(0.0, 1.25) == -1.25j

    def test_pi_phase(self):
        # 1 - exp(i*pi) = 2
        assert segment_kernel(2.0, math.pi / 2) == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="dt=-1"):
            segment_kernel(1.0, -1.0)

    def test_array_input(self):
        out = segment_kernel(np.array([0.0, 2.0]), math.pi / 2)
        np.testing.assert_allclose(out, [-1j * math.pi / 2, 1.0], atol=1e-15)


class TestPositionFilter:
    def test_single_cycle_first_slot_is_bare_kernel(self):
        schedule = make_schedule(Scheme.UDD, 3, 1, 2.0)
        omega = 1.3
        expected = segment_kernel(omega, float(schedule.segments[0, 0]))
        assert position_filters(omega, schedule)[0, 0] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("scheme", [Scheme.PDD, Scheme.UDD])
    def test_zero_frequency_limit(self, scheme):
        schedule = make_schedule(scheme, 3, 4, 2.0)
        for l in range(1, 4):
            expected = -1j * schedule.segments[:, l - 1].sum()
            assert position_filters(0.0, schedule)[0, l - 1] == pytest.approx(expected, rel=1e-13)

    def test_against_literal_transcription_pdd(self):
        schedule = make_schedule(Scheme.PDD, 2, 2, 1.0)
        value = position_filters(1.0, schedule)[0, 1]
        assert value == pytest.approx(eta_literal(2, 1.0, schedule), rel=1e-13)

    @pytest.mark.parametrize("scheme", [Scheme.PDD, Scheme.UDD])
    @pytest.mark.parametrize("n,cycles", [(2, 3), (4, 2), (6, 2)])
    def test_against_literal_transcription_grid(self, scheme, n, cycles):
        schedule = make_schedule(scheme, n, cycles, 1.7)
        for omega in (0.35, 1.0, 7.9):
            for l in range(1, n + 1):
                got = position_filters(omega, schedule)[0, l - 1]
                want = eta_literal(l, omega, schedule)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestExponentMapping:
    def test_six_level_tables(self):
        assert [transition_for_exponent(6, m) for m in range(1, 6)] == [0, 1, 4, 3, 2]
        assert [exponent_for_transition(6, k) for k in range(5)] == [1, 2, 5, 4, 3]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_mappings_are_inverse_bijections(self, n):
        transitions = [transition_for_exponent(n, m) for m in range(1, n)]
        assert sorted(transitions) == list(range(n - 1))
        for k in range(n - 1):
            assert transition_for_exponent(n, exponent_for_transition(n, k)) == k

    def test_out_of_range(self):
        with pytest.raises(IndexError, match="m=3"):
            transition_for_exponent(3, 3)
        with pytest.raises(IndexError, match="k=2"):
            exponent_for_transition(3, 2)

    def test_filter_positions_two_level(self):
        assert filter_positions_for_exponent(2, 1) == (2, 1, 2)


class TestExponentFilter:
    def test_two_level_reduction(self):
        schedule = make_schedule(Scheme.UDD, 2, 2, 1.5)
        omega = 2.1
        eta1 = position_filters(omega, schedule)[0, 0]
        eta2 = position_filters(omega, schedule)[0, 1]
        chi = exponent_filters(omega, schedule)[0, 0]
        assert chi == pytest.approx(-2 * eta1 + 2 * eta2, rel=1e-13)

    def test_pdd_low_frequency_cancellation(self):
        # equal segments make the omega->0 limits equal across slots, and the
        # (+1, -2, +1) coefficients sum to zero
        schedule = make_schedule(Scheme.PDD, 4, 3, 2.0)
        for m in range(1, 4):
            # segment sums agree across slots to round-off only
            assert abs(exponent_filters(0.0, schedule)[0, m - 1]) <= 1e-13

    def test_six_level_udd_against_transcription(self):
        schedule = make_schedule(Scheme.UDD, 6, 2, 1.0)
        omega = 0.7 * 100.0
        for m in range(1, 6):
            got = exponent_filters(omega, schedule)[0, m - 1]
            assert got == pytest.approx(chi_literal(m, omega, schedule), rel=1e-12)

    def test_four_level_matches_fixed_index_transcription(self):
        # at n=4 the published index pattern (second filter ending on eta_{n-1})
        # coincides with the cyclic-neighbour combination used here
        schedule = make_schedule(Scheme.UDD, 4, 2, 1.3)
        omega = 3.1
        eta = [eta_literal(l, omega, schedule) for l in range(1, 5)]
        fixed = {
            1: -2 * eta[0] + eta[1] + eta[3],
            2: -2 * eta[1] + eta[0] + eta[2],  # eta_{n-1} = eta_3 at n=4
            3: -2 * eta[2] + eta[1] + eta[3],
        }
        for m, want in fixed.items():
            assert exponent_filters(omega, schedule)[0, m - 1] == pytest.approx(want, rel=1e-12)

    def test_five_level_diverges_from_n_minus_1_variant(self):
        # the eta_{n-1} variant of the second filter is not the cyclic
        # combination once n > 4; the Fock-space oracle adjudicates in favour
        # of the cyclic one (see test_fock_oracle)
        schedule = make_schedule(Scheme.UDD, 5, 2, 1.3)
        omega = 2.7
        eta = [eta_literal(l, omega, schedule) for l in range(1, 6)]
        variant = -2 * eta[1] + eta[0] + eta[3]
        assert abs(exponent_filters(omega, schedule)[0, 1] - variant) > 1e-3

    def test_hahn_echo_closed_form(self):
        # two levels, single midpoint pulse
        total_time = 1.9
        schedule = make_schedule(Scheme.PDD, 2, 1, total_time)
        for omega in (0.5, 2.0, 9.3):
            phase = np.exp(1j * omega * total_time / 2)
            closed = 4 * abs((1 - phase) - phase * (1 - phase)) ** 2 / omega**2
            chi = exponent_filters(omega, schedule)[0, 0]
            assert abs(chi) ** 2 == pytest.approx(closed, rel=1e-12)


class TestFilterEvaluation:
    def test_consistency_invariant(self):
        schedule = make_schedule(Scheme.UDD, 6, 2, 1.1)
        position = position_filters(4.2, schedule)[0]
        exponent = exponent_filters(4.2, schedule)[0]
        assert position.shape == (6,)
        assert exponent.shape == (5,)
        for m in range(1, 6):
            lo, mid, hi = filter_positions_for_exponent(6, m)
            recombined = position[lo - 1] - 2 * position[mid - 1] + position[hi - 1]
            assert exponent[m - 1] == pytest.approx(recombined, rel=1e-13)

    def test_wrong_sign_flips_upper_neighbour(self):
        schedule = make_schedule(Scheme.UDD, 6, 2, 1.1)
        omegas = [0.0, 4.2, 95.0]
        position = position_filters(omegas, schedule)
        miswired = exponent_filters(omegas, schedule, wrong_sign=True)
        assert miswired.shape == (3, 5)
        for m in range(1, 6):
            lo, mid, hi = filter_positions_for_exponent(6, m)
            recombined = position[:, lo - 1] - 2 * position[:, mid - 1] - position[:, hi - 1]
            np.testing.assert_array_equal(miswired[:, m - 1], recombined)


class TestBath:
    def test_ohmic_zero(self):
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        assert ohmic_density(0.0, bath) == 0.0

    def test_ohmic_at_cutoff(self):
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        expected = 0.25 / 4 * 100.0 * math.exp(-1.0)
        assert ohmic_density(100.0, bath) == pytest.approx(expected, rel=1e-15)

    def test_ohmic_decoupled(self):
        bath = BathSpec(alpha=0.0, cutoff=10.0, temperature=1.0)
        assert np.all(ohmic_density(np.linspace(0, 10, 7), bath) == 0.0)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(alpha=-0.1, cutoff=1.0, temperature=1.0), "alpha"),
            (dict(alpha=0.1, cutoff=0.0, temperature=1.0), "cutoff"),
            (dict(alpha=0.1, cutoff=1.0, temperature=0.0), "temperature"),
            (dict(alpha=math.nan, cutoff=1.0, temperature=1.0), "alpha must be finite"),
            (dict(alpha=0.1, cutoff=math.inf, temperature=1.0), "cutoff must be finite"),
            (dict(alpha=0.1, cutoff=1.0, temperature=math.inf), "temperature must be finite"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            BathSpec(**kwargs)


class TestDecayIntegrand:
    def test_zero_frequency_finite_and_continuous(self):
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        schedule = make_schedule(Scheme.UDD, 6, 5, 1.2)
        rows = decay_integrand([0.0, 1e-9 * bath.cutoff], schedule, bath)
        assert np.all(np.isfinite(rows))
        assert np.all(rows[:, 0] > 0)
        np.testing.assert_allclose(rows[:, 0], rows[:, 1], rtol=1e-4)

    def test_rows_nonnegative(self):
        bath = BathSpec(alpha=0.4, cutoff=8.0, temperature=2.0)
        schedule = make_schedule(Scheme.PDD, 3, 2, 2.0)
        rows = decay_integrand(np.linspace(0, 8.0, 101), schedule, bath)
        assert rows.shape == (2, 101)
        assert np.all(rows >= 0)


class TestDecayExponents:
    def test_decoupled_bath_gives_zero(self):
        bath = BathSpec(alpha=0.0, cutoff=10.0, temperature=1.0)
        schedule = make_schedule(Scheme.PDD, 3, 2, 2.0)
        result = decay_exponents(schedule, bath)
        assert np.all(result.gamma == 0.0)
        assert coherence_ratio(schedule, bath) == 1.0

    def test_short_run_barely_decays(self):
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        schedule = make_schedule(Scheme.UDD, 6, 50, 1e-7)
        assert coherence_ratio(schedule, bath) == pytest.approx(1.0, abs=1e-9)

    def test_vanishing_run_hits_exponent_floor(self):
        # exponents of order 1e-20 are round-off, not signal; the convergence
        # floor must accept them instead of refining forever
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        for scheme in (Scheme.PDD, Scheme.UDD):
            schedule = make_schedule(scheme, 6, 50, 1e-9)
            assert coherence_ratio(schedule, bath) == 1.0

    def test_exponents_nonnegative(self):
        bath = BathSpec(alpha=0.3, cutoff=20.0, temperature=5.0)
        schedule = make_schedule(Scheme.UDD, 4, 3, 1.5)
        result = decay_exponents(schedule, bath)
        assert np.all(result.gamma >= 0)
        assert result.estimated_relative_error <= 1e-6

    def test_riemann_sum_oracle_small_case(self):
        bath = BathSpec(alpha=0.3, cutoff=5.0, temperature=2.0)
        schedule = make_schedule(Scheme.UDD, 3, 2, 3.0)
        result = decay_exponents(schedule, bath)
        panels = 200_000
        nodes = (np.arange(panels) + 0.5) * (bath.cutoff / panels)
        riemann = decay_integrand(nodes, schedule, bath).sum(axis=1) * (
            bath.cutoff / panels
        )
        np.testing.assert_allclose(result.gamma, riemann, rtol=1e-6)

    def test_riemann_sum_oracle_reference_long_run(self):
        # reference scenario deep in the decay regime (T = 10)
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        schedule = make_schedule(Scheme.PDD, 6, 50, 10.0)
        result = decay_exponents(schedule, bath)
        panels = 2**19
        width = bath.cutoff / panels
        riemann = np.zeros(5)
        for start in range(0, panels, 65536):
            nodes = (np.arange(start, min(start + 65536, panels)) + 0.5) * width
            riemann += decay_integrand(nodes, schedule, bath).sum(axis=1)
        riemann *= width
        np.testing.assert_allclose(result.gamma, riemann, rtol=1e-6)

    def test_refinement_stability(self):
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        schedule = make_schedule(Scheme.PDD, 6, 50, 2.5)
        base = decay_exponents(schedule, bath)
        deeper = decay_exponents(schedule, bath, extra_levels=1)
        np.testing.assert_allclose(base.gamma, deeper.gamma, rtol=1e-6)

    def test_coupling_scaling_is_exact(self):
        schedule = make_schedule(Scheme.UDD, 3, 2, 2.0)
        base = decay_exponents(schedule, BathSpec(alpha=0.2, cutoff=10.0, temperature=3.0))
        doubled = decay_exponents(schedule, BathSpec(alpha=0.4, cutoff=10.0, temperature=3.0))
        halved = decay_exponents(schedule, BathSpec(alpha=0.1, cutoff=10.0, temperature=3.0))
        np.testing.assert_array_equal(doubled.gamma, 2.0 * base.gamma)
        np.testing.assert_array_equal(halved.gamma, 0.5 * base.gamma)

    def test_power_law_in_coupling(self):
        schedule = make_schedule(Scheme.PDD, 3, 2, 2.0)
        p_base = coherence_ratio(schedule, BathSpec(alpha=0.2, cutoff=10.0, temperature=3.0))
        for c in (0.5, 2.0):
            p_scaled = coherence_ratio(
                schedule, BathSpec(alpha=0.2 * c, cutoff=10.0, temperature=3.0)
            )
            assert p_scaled == pytest.approx(p_base**c, rel=1e-9)

    def test_unconverged_quadrature_raises_with_estimates(self):
        bath = BathSpec(alpha=0.3, cutoff=4.0, temperature=1.0)
        schedule = make_schedule(Scheme.PDD, 2, 1, 1.0)
        with pytest.raises(ConvergenceError) as excinfo:
            decay_exponents(schedule, bath, max_doublings=0)
        assert excinfo.value.previous.shape == (1,)
        assert excinfo.value.current.shape == (1,)

    def test_non_finite_estimates_never_converge(self, monkeypatch):
        # finite but extreme inputs overflow the integrand; refinement cannot
        # repair that, so the first non-finite estimate raises
        calls = []

        def counting(*args):
            calls.append(args[0].size)
            return integrand(*args)

        integrand = kernel.decay_integrand
        monkeypatch.setattr(kernel, "decay_integrand", counting)
        bath = BathSpec(alpha=1e308, cutoff=100.0, temperature=1e308)
        schedule = make_schedule("pdd", 6, 2, 1.556)
        with pytest.raises(ConvergenceError, match="non-finite") as excinfo:
            decay_exponents(schedule, bath)
        assert not np.isfinite(excinfo.value.current).all()
        assert len(calls) <= 2  # one level reached

    @pytest.mark.parametrize("total_time", [0.3, 16 * math.pi / 100.0])
    def test_small_run_against_riemann_sum(self, total_time):
        # cutoff*T below _MIN_PANELS level-0 panels: the quadrature starts on a
        # finer level; a false convergence would show against the Riemann sum
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        schedule = make_schedule(Scheme.UDD, 6, 50, total_time)
        assert bath.cutoff * total_time < kernel._MIN_PANELS * 4 * math.pi
        result = decay_exponents(schedule, bath)
        panels = 2**16
        nodes = (np.arange(panels) + 0.5) * (bath.cutoff / panels)
        riemann = decay_integrand(nodes, schedule, bath).sum(axis=1) * (bath.cutoff / panels)
        np.testing.assert_allclose(result.gamma, riemann, rtol=1e-6)

    @pytest.mark.parametrize("total_time", [1e-3, 0.3, 16 * math.pi / 100.0, 2.5])
    def test_successive_estimates_differ(self, total_time):
        # a refinement that reused its predecessor's nodes would report a zero
        # change and converge falsely
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        schedule = make_schedule(Scheme.UDD, 6, 50, total_time)
        for doublings in (1, 3):
            with pytest.raises(ConvergenceError) as excinfo:
                decay_exponents(schedule, bath, rel_tol=1e-300, max_doublings=doublings)
            assert np.all(excinfo.value.previous != excinfo.value.current)

    def test_subnormal_frequency_range_rejected(self):
        # u = w*T panels cannot be formed once cutoff*T leaves the normal floats
        bath = BathSpec(alpha=0.25, cutoff=1e-10, temperature=1.0)
        with pytest.raises(ValueError, match="smallest normal float"):
            decay_exponents(make_schedule(Scheme.PDD, 2, 1, 1e-300), bath)

    def test_table_for_other_fractions_rejected(self):
        bath = BathSpec(alpha=0.25, cutoff=100.0, temperature=150.0)
        table = FilterTable(ScheduleSpec(scheme=Scheme.PDD, n=3, cycles=2, total_time=1.0))
        with pytest.raises(ValueError, match="other pulse fractions"):
            decay_exponents(make_schedule(Scheme.UDD, 3, 2, 1.0), bath, table=table)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 6),
    cycles=st.integers(1, 4),
    scheme=st.sampled_from([Scheme.PDD, Scheme.UDD]),
    total_time=st.floats(1e-3, 5.0),
    alpha=st.floats(0.0, 10.0),
    cutoff=st.floats(1.0, 200.0),
    temperature=st.floats(1e-2, 1e3),
)
def test_every_finite_spec_converges_or_names_its_error(
        n, cycles, scheme, total_time, alpha, cutoff, temperature):
    try:
        p = coherence_ratio(make_schedule(scheme, n, cycles, total_time),
                            BathSpec(alpha=alpha, cutoff=cutoff, temperature=temperature))
    except (ValueError, ConvergenceError):
        return
    assert math.isfinite(p) and 0.0 <= p <= 1.0


class TestSweepCurve:
    def _bath(self, alpha=0.25):
        return BathSpec(alpha=alpha, cutoff=100.0, temperature=150.0)

    def _template(self, scheme=Scheme.PDD):
        return ScheduleSpec(scheme=scheme, n=6, cycles=50, total_time=1.0)

    def test_single_point_grid(self):
        curve = sweep_curve(self._template(), self._bath(), [2.0])
        assert curve.times.shape == (1,)
        assert 0 < curve.values[0] <= 1

    def test_decoupled_curve_is_flat(self):
        curve = sweep_curve(self._template(), self._bath(alpha=0.0), [0.5, 1.0, 2.0])
        np.testing.assert_array_equal(curve.values, 1.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            sweep_curve(self._template(), self._bath(), [1.0, 1.0])
        with pytest.raises(ValueError, match="> 0"):
            sweep_curve(self._template(), self._bath(), [0.0, 1.0])
        with pytest.raises(ValueError, match="non-empty"):
            sweep_curve(self._template(), self._bath(), [])

    def test_points_report_their_quadrature(self):
        grid = [0.2, 1.0, 2.5]
        curve = sweep_curve(self._template(Scheme.UDD), self._bath(), grid, rel_tol=1e-7)
        assert curve.quadrature_points.shape == curve.estimated_relative_error.shape == (3,)
        assert np.all(curve.quadrature_points > 0)
        assert np.all(curve.estimated_relative_error <= 1e-7)

    def test_table_panels_evaluated_once(self, monkeypatch):
        # every table panel is evaluated by the first point that needs it only
        table_nodes = []

        def recording(omegas, schedule, wrong_sign=False):
            if schedule.total_time == 1.0:
                table_nodes.append(np.asarray(omegas))
            return filters(omegas, schedule, wrong_sign)

        filters = kernel.exponent_filters
        monkeypatch.setattr(kernel, "exponent_filters", recording)
        grid = np.linspace(0.1, 2.5, 12)
        assert 1.0 not in grid  # total time 1 marks the table's unit schedule
        sweep_curve(self._template(), self._bath(), grid)
        nodes = np.concatenate(table_nodes)
        assert len(table_nodes) > 12
        assert np.unique(nodes).size == nodes.size

    def test_convergence_error_names_failing_time(self):
        template = ScheduleSpec(scheme=Scheme.PDD, n=2, cycles=1, total_time=1.0)
        bath = BathSpec(alpha=0.3, cutoff=4.0, temperature=1.0)
        with pytest.raises(ConvergenceError, match="while evaluating T="):
            sweep_curve(template, bath, [1.0], max_doublings=0)


def _custom_fractions(n, cycles):
    rng = np.random.default_rng(7)
    return tuple(np.sort(rng.uniform(0.0, 1.0, n * cycles - 1)).tolist())


class TestSharedTable:
    """A sweep shares one filter table; every point must equal its own
    single-point evaluation on a private table."""

    # Non-uniform grid.  cutoff*T < _MIN_PANELS * 4*pi at T = 0.37, so that
    # point starts on a finer level; cutoff 4*pi makes cutoff*T an exact
    # multiple of the panel width at T = 2 (first level 2) and T = 16 (first
    # level 0), leaving zero-width remainder panels.
    BATH = BathSpec(alpha=0.25, cutoff=4 * math.pi, temperature=3.0)
    GRID = [0.37, 2.0, 2.3, 9.1, 16.0, 23.7]

    @pytest.mark.parametrize("n,cycles", [(3, 4), (6, 3)])
    @pytest.mark.parametrize("scheme", [Scheme.PDD, Scheme.UDD, Scheme.CUSTOM])
    def test_sweep_matches_single_points(self, scheme, n, cycles):
        custom = _custom_fractions(n, cycles) if scheme is Scheme.CUSTOM else None
        template = ScheduleSpec(scheme=scheme, n=n, cycles=cycles, total_time=1.0,
                                custom_fractions=custom)
        curve = sweep_curve(template, self.BATH, self.GRID)
        for t, value in zip(self.GRID, curve.values):
            schedule = make_schedule(scheme, n, cycles, t, custom_fractions=custom)
            single = coherence_ratio(schedule, self.BATH)
            assert value == pytest.approx(single, rel=1e-12, abs=0)
            (one,) = sweep_curve(template, self.BATH, [t]).values
            assert one == pytest.approx(single, rel=1e-12, abs=0)

    @pytest.mark.parametrize("total_time", [2.0, 16.0])
    def test_exact_multiple_skips_remainder_panel(self, total_time, monkeypatch):
        # a time just past the multiple keeps a sliver of a remainder panel
        nearby = decay_exponents(make_schedule(Scheme.UDD, 3, 4, total_time * (1 + 1e-12)),
                                 self.BATH)
        calls = []
        monkeypatch.setattr(kernel, "decay_integrand", lambda *args: calls.append(args))
        result = decay_exponents(make_schedule(Scheme.UDD, 3, 4, total_time), self.BATH)
        assert calls == []
        assert result.quadrature_points % (kernel._MIN_PANELS * kernel.GL_ORDER) == 0
        np.testing.assert_allclose(result.gamma, nearby.gamma, rtol=1e-9)
