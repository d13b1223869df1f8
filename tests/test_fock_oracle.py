import math

import numpy as np
import pytest

from ladder_dd.calibration import (
    CalibrationCase,
    default_calibration_cases,
    run_calibration_suite,
    run_case,
)
from ladder_dd.fock_oracle import (
    DIM_CAP,
    ModeSpec,
    NonMonomialPulseError,
    TruncationError,
    _monomial_split,
    discrete_decay_exponent,
    evolve_pulsed,
    free_decay_baseline,
    min_fock_dim,
    superposition_state,
    thermal_state,
)
from ladder_dd.kernel import ConvergenceError, segment_kernel
from ladder_dd.operators import DecouplingGroup, build_decoupling_group
from ladder_dd.schedules import Scheme, make_schedule

MODE_N2 = ModeSpec(transition=0, omega=1.0, coupling=0.1, fock_dim=25)

# (0,1) coherence of the dense joint-space evolution (atom x all modes, one
# n*prod(fock_dim) density matrix) that the product form replaced, for the
# five original calibration cases and the 13 cases of
# test_acceptance.py::test_reference_schedule_oracle.
DENSE_COHERENCE = {
    "n2-pdd-single-mode": complex(0.48203890500561625, -1.0235891464216658e-18),
    "n2-udd-two-modes": complex(0.49998757225708418, -1.0805870489846034e-19),
    "n3-pdd-mode-per-transition": complex(0.49706722605416098, 0.0011736693408005538),
    "n3-udd-mode-per-transition": complex(0.49999063274400485, 5.2056257822795364e-06),
    "n3-pdd-two-modes-per-transition": complex(0.49922341344984994, 0.00038239586632971662),
    "n6-pdd-T1.5-k0": complex(0.49991483663226172, -1.1041477759263901e-05),
    "n6-pdd-T1.5-k2": complex(0.49999910729826053, 3.624483992833816e-06),
    "n6-pdd-T1.5-k4": complex(0.49999910729826103, 3.6244839928283683e-06),
    "n6-pdd-T2.5-k0": complex(0.49980979287708688, -4.6171254014899002e-05),
    "n6-pdd-T2.5-k2": complex(0.499982872690864, 4.0277569886893827e-05),
    "n6-pdd-T2.5-k4": complex(0.49998287269086378, 4.0277569886897419e-05),
    "n6-udd-T1.5-k0": complex(0.49999999907697423, -1.3616107301186607e-09),
    "n6-udd-T1.5-k2": complex(0.49999999976104997, 4.0550168854780376e-10),
    "n6-udd-T1.5-k4": complex(0.49999999977729392, -1.1501582013484828e-09),
    "n6-udd-T2.5-k0": complex(0.48859180846534955, 0.018619678081099378),
    "n6-udd-T2.5-k2": complex(0.48858532867508953, 0.018613429159485835),
    "n6-udd-T2.5-k4": complex(0.48857824248671444, 0.018618520038959939),
    "n6-udd-T2.5-k2-k3": complex(0.48436785774518498, 0.025109251473094882),
}


def _pinned_cases():
    cases = {case.name: case for case in default_calibration_cases()[:5]}
    for scheme in (Scheme.PDD, Scheme.UDD):
        for total_time in (1.5, 2.5):
            for transition in (0, 2, 4):
                name = f"n6-{scheme.value}-T{total_time}-k{transition}"
                cases[name] = CalibrationCase(
                    name, 6, 50, scheme, total_time, 20.0,
                    (ModeSpec(transition, 95.0, 2.0, 12),))
    cases["n6-udd-T2.5-k2-k3"] = CalibrationCase(
        "n6-udd-T2.5-k2-k3", 6, 50, Scheme.UDD, 2.5, 20.0,
        (ModeSpec(2, 95.0, 2.0, 6), ModeSpec(3, 95.0, 1.2, 6)))
    return cases


def brute_min_dim(omega, temperature, tail=1e-10):
    q = math.exp(-omega / temperature)
    d = 2
    while q**d >= tail:
        d += 1
    return d


class TestThermalState:
    def test_cold_bath_is_ground_state(self):
        mode = ModeSpec(transition=0, omega=1.0, coupling=0.1, fock_dim=4)
        state = thermal_state(mode, temperature=1e-3)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(state, expected, atol=1e-300)

    def test_half_ratio_populations(self):
        # omega/T = ln 2 gives populations proportional to 1, 1/2, 1/4, ...
        mode = ModeSpec(transition=0, omega=math.log(2.0), coupling=0.1, fock_dim=40)
        state = thermal_state(mode, temperature=1.0)
        populations = np.real(np.diag(state))
        geometric = 0.5 ** np.arange(40)
        np.testing.assert_allclose(populations, geometric / geometric.sum(), rtol=1e-12)
        assert np.trace(state) == pytest.approx(1.0, abs=1e-14)

    def test_truncation_error_advises_dimension(self):
        mode = ModeSpec(transition=0, omega=100.0, coupling=0.1, fock_dim=5)
        with pytest.raises(TruncationError, match="fock_dim") as excinfo:
            thermal_state(mode, temperature=150.0)
        assert excinfo.value.required_dim == brute_min_dim(100.0, 150.0)

    @pytest.mark.parametrize(
        "omega,temperature", [(100.0, 150.0), (1.0, 1.0), (1.4, 0.5), (1.5, 0.25)]
    )
    def test_min_fock_dim_matches_brute_force(self, omega, temperature):
        assert min_fock_dim(omega, temperature) == brute_min_dim(omega, temperature)


class TestModeSpecValidation:
    def test_bad_frequency(self):
        with pytest.raises(ValueError, match="frequency"):
            ModeSpec(transition=0, omega=0.0, coupling=0.1, fock_dim=4)

    def test_bad_fock_dim(self):
        with pytest.raises(ValueError, match="fock_dim"):
            ModeSpec(transition=0, omega=1.0, coupling=0.1, fock_dim=1)

    def test_bad_transition(self):
        with pytest.raises(ValueError, match="transition"):
            ModeSpec(transition=-1, omega=1.0, coupling=0.1, fock_dim=4)


class TestEvolvePulsed:
    def _run(self, n, modes, scheme=Scheme.PDD, cycles=1, total_time=2.0,
             temperature=1.0, **kwargs):
        schedule = make_schedule(scheme, n, cycles, total_time)
        group = build_decoupling_group(n)
        atom = superposition_state(n)
        coherence = evolve_pulsed(n, modes, schedule, group, atom, temperature, **kwargs)
        return atom, coherence

    def test_zero_coupling_preserves_coherence(self):
        mode = ModeSpec(transition=0, omega=1.0, coupling=0.0, fock_dim=25)
        atom, coherence = self._run(2, (mode,))
        assert abs(coherence) == pytest.approx(abs(atom[0, 1]), abs=1e-12)

    def test_vanishing_duration_no_decay(self):
        atom, coherence = self._run(2, (MODE_N2,), total_time=1e-12)
        assert abs(coherence) == pytest.approx(abs(atom[0, 1]), abs=1e-10)

    def test_final_state_is_physical(self):
        atom, coherence = self._run(3, (
            ModeSpec(transition=0, omega=1.1, coupling=0.07, fock_dim=11),
            ModeSpec(transition=1, omega=1.4, coupling=0.06, fock_dim=9),
        ), temperature=0.5)
        assert isinstance(coherence, complex)
        assert abs(coherence) <= abs(atom[0, 1])

    def test_substeps_cross_validate_exact_generator(self):
        atom, exact = self._run(2, (MODE_N2,))
        _, stepped = self._run(2, (MODE_N2,), method="substeps", substeps=512)
        assert abs(stepped - exact) <= 1e-7

    def test_uncoupled_run_is_atom_conjugation(self):
        # with no coupling the bath stays inert and the run is U rho U^dag on
        # the atom; a first element that is not the identity leaves each cycle
        # a net permutation with phases, which the decoupling group never does
        rng = np.random.default_rng(5)
        n = 3
        elements = []
        for perm in ([1, 2, 0], [0, 2, 1], [2, 1, 0]):
            element = np.zeros((n, n), dtype=complex)
            element[perm, np.arange(n)] = np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))
            elements.append(element)
        group = DecouplingGroup(dim=n, elements=tuple(elements))
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        atom = raw @ raw.conj().T / np.trace(raw @ raw.conj().T)
        mode = ModeSpec(transition=1, omega=1.0, coupling=0.0, fock_dim=4)
        coherence = evolve_pulsed(n, (mode,), make_schedule(Scheme.UDD, n, 2, 1.0),
                                  group, atom, 0.1)
        u = np.linalg.matrix_power(elements[0].conj().T, 2)  # the two cycles
        assert coherence == pytest.approx((u @ atom @ u.conj().T)[0, 1], abs=1e-14)

    @pytest.mark.parametrize("name", list(DENSE_COHERENCE))
    def test_product_form_matches_frozen_dense_coherence(self, name):
        case = _pinned_cases()[name]
        schedule = make_schedule(case.scheme, case.n, case.cycles, case.total_time)
        coherence = evolve_pulsed(case.n, case.modes, schedule,
                                  build_decoupling_group(case.n),
                                  superposition_state(case.n), case.temperature)
        dense = DENSE_COHERENCE[name]
        assert abs(coherence - dense) <= 1e-12 * abs(dense)

    def test_substep_refinement_failure_raises(self):
        with pytest.raises(ConvergenceError, match="sub-step"):
            self._run(2, (MODE_N2,), method="substeps", substeps=1, substep_tol=1e-14)

    @pytest.mark.parametrize(
        "case_modes,case_kwargs,doubled",
        [
            (
                (MODE_N2,),
                dict(n=2, scheme=Scheme.PDD, cycles=1, total_time=2.0, temperature=1.0),
                (ModeSpec(transition=0, omega=1.0, coupling=0.1, fock_dim=50),),
            ),
            (
                (
                    ModeSpec(transition=0, omega=1.1, coupling=0.07, fock_dim=11),
                    ModeSpec(transition=1, omega=1.4, coupling=0.06, fock_dim=9),
                ),
                dict(n=3, scheme=Scheme.UDD, cycles=2, total_time=1.8, temperature=0.5),
                (
                    ModeSpec(transition=0, omega=1.1, coupling=0.07, fock_dim=22),
                    ModeSpec(transition=1, omega=1.4, coupling=0.06, fock_dim=18),
                ),
            ),
        ],
    )
    def test_fock_dimension_convergence(self, case_modes, case_kwargs, doubled):
        n = case_kwargs.pop("n")
        atom, base = self._run(n, case_modes, **case_kwargs)
        _, fine = self._run(n, doubled, **case_kwargs)
        base_decay = abs(base) / abs(atom[0, 1])
        fine_decay = abs(fine) / abs(atom[0, 1])
        assert abs(base_decay - fine_decay) <= 1e-8

    def test_validation_errors(self):
        schedule = make_schedule(Scheme.PDD, 2, 1, 1.0)
        group = build_decoupling_group(2)
        atom = superposition_state(2)
        with pytest.raises(ValueError, match="at least one"):
            evolve_pulsed(2, (), schedule, group, atom, 1.0)
        with pytest.raises(ValueError, match="transition 1"):
            evolve_pulsed(2, (ModeSpec(1, 1.0, 0.1, 4),), schedule, group, atom, 1.0)
        with pytest.raises(ValueError, match="coherence"):
            evolve_pulsed(2, (MODE_N2,), schedule, group,
                          np.diag([1.0, 0.0]).astype(complex), 1.0)
        with pytest.raises(ValueError, match="cap"):
            evolve_pulsed(2, (ModeSpec(0, 1.0, 0.1, DIM_CAP + 1),), schedule, group, atom, 1.0)
        with pytest.raises(ValueError, match="mismatch"):
            evolve_pulsed(3, (ModeSpec(0, 1.0, 0.1, 4),),
                          schedule, build_decoupling_group(3),
                          superposition_state(3), 1.0)
        with pytest.raises(ValueError, match="method"):
            evolve_pulsed(2, (MODE_N2,), schedule, group, atom, 1.0, method="magic")


class TestMonomialSplit:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_group_pulses_rebuild_exactly(self, n):
        elements = build_decoupling_group(n).elements
        pulses = [*elements, elements[n - 1].conj().T]
        pulses += [elements[l] @ elements[l - 1].conj().T for l in range(1, n)]
        for pulse in pulses:
            perm, phases = _monomial_split(pulse)
            assert sorted(perm) == list(range(n))
            rebuilt = np.zeros((n, n), dtype=complex)
            rebuilt[perm, np.arange(n)] = phases
            np.testing.assert_array_equal(rebuilt, pulse)

    @pytest.mark.parametrize("pulse", [
        np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0),  # Hadamard
        np.array([[1.0, 1.0], [0.0, 0.0]]),  # one per column, two in row 0
        np.array([[1.0, 0.0], [0.0, 0.0]]),  # empty column
    ])
    def test_non_monomial_pulse_is_rejected(self, pulse):
        with pytest.raises(NonMonomialPulseError, match="not monomial"):
            _monomial_split(pulse)
        group = DecouplingGroup(dim=2, elements=(np.eye(2, dtype=complex), pulse))
        with pytest.raises(NonMonomialPulseError):
            evolve_pulsed(2, (MODE_N2,), make_schedule(Scheme.PDD, 2, 1, 1.0), group,
                          superposition_state(2), 1.0)


class TestDecouplingSuppression:
    def test_pulsed_run_decays_far_less_than_free_run(self):
        # the entire point: cyclic pulsing at rate above the mode frequency
        # suppresses the coherence loss by an order of magnitude here
        total_time, temperature = 2.0, 1.0
        free = free_decay_baseline(total_time, (MODE_N2,), temperature, 2)
        schedule = make_schedule(Scheme.PDD, 2, 2, total_time)
        group = build_decoupling_group(2)
        atom = superposition_state(2)
        final = evolve_pulsed(2, (MODE_N2,), schedule, group, atom, temperature)
        pulsed = -math.log(abs(final) / abs(atom[0, 1]))
        assert pulsed < free / 10


class TestDiscreteDecayExponent:
    def test_zero_coupling(self):
        schedule = make_schedule(Scheme.PDD, 2, 1, 2.0)
        mode = ModeSpec(transition=0, omega=1.0, coupling=0.0, fock_dim=4)
        assert discrete_decay_exponent((mode,), 1.0, schedule, 2) == 0.0

    def test_coupling_square_scaling_exact(self):
        schedule = make_schedule(Scheme.UDD, 3, 2, 1.8)
        base = discrete_decay_exponent(
            (ModeSpec(0, 1.1, 0.07, 4),), 0.5, schedule, 3
        )
        doubled = discrete_decay_exponent(
            (ModeSpec(0, 1.1, 0.14, 4),), 0.5, schedule, 3
        )
        assert doubled == 4.0 * base


class TestFreeDecayBaseline:
    def test_zero_coupling(self):
        mode = ModeSpec(transition=0, omega=1.0, coupling=0.0, fock_dim=24)
        assert free_decay_baseline(2.0, (mode,), 1.0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_zero_duration(self):
        assert free_decay_baseline(0.0, (MODE_N2,), 1.0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_regression_fixture(self):
        # frozen output of this very computation (omega=1, j=0.1, T'=1, T=2, d=25)
        value = free_decay_baseline(2.0, (MODE_N2,), 1.0, 2)
        assert value == pytest.approx(0.12257903122938255, rel=1e-12)

    def test_matches_unpulsed_closed_form(self):
        # one segment, no pulses: chi = -2 j zeta, exponent 2|j zeta|^2 coth
        total_time, temperature = 2.0, 1.0
        value = free_decay_baseline(total_time, (MODE_N2,), temperature, 2)
        zeta = segment_kernel(MODE_N2.omega, total_time)
        closed = (
            2.0
            * abs(MODE_N2.coupling * zeta) ** 2
            / math.tanh(MODE_N2.omega / (2 * temperature))
        )
        assert value == pytest.approx(closed, rel=1e-9)

    def test_mode_beyond_first_two_levels_does_not_touch_01_coherence(self):
        # transition (2,3) has zero dephasing weight on levels 0 and 1
        mode = ModeSpec(transition=2, omega=1.2, coupling=0.1, fock_dim=10)
        value = free_decay_baseline(2.0, (mode,), 0.5, 4)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_middle_transition_mode_dephases_through_level_one(self):
        # transition (1,2) carries weight -1 on level 1: chi = j*zeta, so the
        # (0,1) coherence decays at a quarter of the transition-(0,1) rate
        total_time, temperature = 2.0, 0.5
        mode = ModeSpec(transition=1, omega=1.2, coupling=0.1, fock_dim=12)
        value = free_decay_baseline(total_time, (mode,), temperature, 3)
        zeta = segment_kernel(mode.omega, total_time)
        closed = 0.5 * abs(mode.coupling * zeta) ** 2 / math.tanh(
            mode.omega / (2 * temperature)
        )
        assert value == pytest.approx(closed, rel=1e-9)


class TestCalibration:
    def test_single_midpoint_pulse_case(self):
        result = run_case(default_calibration_cases()[0])
        assert result.passed
        assert result.rel_error <= 1e-6
        assert abs(result.phase_shift) <= 1e-6  # two-level run stays real

    def test_full_suite_passes(self):
        results = run_calibration_suite()
        names = [r.case.name for r in results]
        assert len(names) == len(set(names)) == 8
        for result in results:
            assert result.passed, (result.case.name, result.rel_error)
            assert result.rel_error <= 1e-6

    def test_miswired_filters_fail_everywhere(self):
        # negative control: a wrong sign convention must be caught
        results = run_calibration_suite(wrong_sign=True)
        assert all(not result.passed for result in results)

    def test_decoupled_case_passes_trivially(self):
        from ladder_dd.calibration import CalibrationCase

        case = CalibrationCase(
            name="n2-decoupled",
            n=2, cycles=1, scheme=Scheme.PDD, total_time=2.0, temperature=1.0,
            modes=(ModeSpec(transition=0, omega=1.0, coupling=0.0, fock_dim=25),),
        )
        result = run_case(case)
        assert result.passed
        assert result.observed_ratio == pytest.approx(1.0, abs=1e-12)
        assert result.predicted_ratio == 1.0
