import cmath
import dataclasses
import math
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ladder_dd import fock_oracle, kernel
from ladder_dd.calibration import (
    CALIBRATION_TOL,
    CalibrationCase,
    default_calibration_cases,
    discrete_decay_exponent,
    run_calibration_suite,
    run_case,
)
from ladder_dd.fock_oracle import (
    DIM_CAP,
    ModeSpec,
    _monomial_split,
    evolve_pulsed,
    thermal_populations,
)
from ladder_dd.operators import ZERO_TOL, build_decoupling_group, max_abs, sigma_z
from ladder_dd.schedules import Scheme, ScheduleSpec
from references import miswired_exponent

MODE_N2 = ModeSpec(transition=0, omega=1.0, coupling=0.1, fock_dim=25)

# rho_01(0) of the (0,1) superposition every run starts from: a coherence is
# START times evolve_pulsed's factor, exactly
START = 0.5

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


def window(omega, dt):
    """Window amplitude (1 - exp(i w dt))/w of one free segment, w > 0."""
    return (1 - np.exp(1j * omega * dt)) / omega


def free_decay(total_time, modes, temperature, n):
    """Unpulsed decay exponent -ln|rho01(T)/rho01(0)|: evolve_pulsed over one
    PDD cycle whose every group element is the identity, so no pulse acts."""
    schedule = ScheduleSpec(Scheme.PDD, n, 1, total_time)
    return -math.log(abs(evolve_pulsed(modes, schedule, (np.eye(n),) * n, temperature)))


def brute_min_dim(omega, temperature, tail=1e-10):
    q = math.exp(-omega / temperature)
    d = 2
    while q**d >= tail:
        d += 1
    return d


def _magnus(mode, t_start, dt):
    """(z, phi) of one mode over a free segment: at an atom level of dephasing
    weight w, the first Magnus term displaces by w z, z = j e^{i w t_start}
    (1 - e^{i w dt}) / w, and the second is the c-number phase w^2 phi,
    phi = |j|^2 (dt/w - sin(w dt)/w^2)."""
    omega, coupling = mode.omega, mode.coupling
    z = coupling * cmath.exp(1j * omega * t_start) * (1.0 - cmath.exp(1j * omega * dt)) / omega
    return z, abs(coupling) ** 2 * (dt / omega - math.sin(omega * dt) / omega**2)


def _segment_exact(mode, weight, t_start, dt):
    """Closed-form propagator of one mode over a free segment at weight
    ``weight``: the displacement and phase of ``_magnus``."""
    z, phi = _magnus(mode, t_start, dt)
    return cmath.exp(1j * weight**2 * phi) * fock_oracle.expm(mode.fock_dim, weight * z)


def _lowering(dim):
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def _random_displacements(dim):
    # z in all four quadrants, |z| from 1e-3 to 3
    rng = np.random.default_rng(dim)
    a = _lowering(dim)
    pairs = []
    for magnitude in np.geomspace(1e-3, 3.0, 5):
        for quadrant in range(4):
            z = magnitude * np.exp(1j * (np.pi / 2) * (quadrant + rng.uniform()))
            pairs.append((fock_oracle.expm(dim, z),
                          scipy.linalg.expm(z * a.conj().T - np.conj(z) * a)))
    return pairs


def _displacement_pairs():
    # w (z a^dag - z* a) + i phi I, the exact segment's generator: weight -1,
    # segment [0.7, 1.6], MODE_N2 (omega 1, coupling 0.1)
    a = _lowering(MODE_N2.fock_dim)
    z = 0.1 * np.exp(0.7j) * (1 - np.exp(0.9j))
    phi = 0.1**2 * (0.9 - math.sin(0.9))
    generator = -(z * a.conj().T - np.conj(z) * a) + 1j * phi * np.eye(MODE_N2.fock_dim)
    return [(_segment_exact(MODE_N2, -1.0, 0.7, 0.9),
             scipy.linalg.expm(generator))]


def _substep_pairs():
    # -i w h dt, one midpoint sub-step's generator at weight 1, t = 0.3 and
    # dt = 2/256, h = drive adag + conj(drive) a: the displacement by -i drive dt
    a = _lowering(MODE_N2.fock_dim)
    drive = 0.1 * np.exp(0.3j)
    step = 2.0 / 256
    generator = -1j * (drive * a.conj().T + np.conj(drive) * a) * step
    return [(fock_oracle.expm(MODE_N2.fock_dim, -1j * drive * step),
             scipy.linalg.expm(generator))]


def _bits(value):
    return np.asarray(value, dtype=complex).tobytes()


def uncached_expm(dim, z):
    """The displacement formula with a fresh eigh, arange and .flat diagonal."""
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)
    lam, vecs = np.linalg.eigh(1j * (a.T - a))
    rotated = np.exp(1j * cmath.phase(z) * np.arange(dim))[:, None] * vecs
    out = (rotated * np.expm1(-1j * abs(z) * lam)) @ rotated.conj().T
    out.flat[:: dim + 1] += 1.0
    return out


def _level_path(case):
    """(pulse factor, path) of a case, walked without the oracle's code: a
    per-step argsort of each pulse permutation and the start state normalised
    by its (0,1) entry give the start state's entry over the pulse phases, and
    the path holds (t_start, dt, row level, column level) per free segment."""
    n = case.n
    schedule = ScheduleSpec(case.scheme, n, case.cycles, case.total_time)
    elements = build_decoupling_group(n)
    pulses = [elements[l] @ elements[l - 1].conj().T for l in range(1, n)]
    splits = []
    for pulse in pulses + [elements[n - 1].conj().T]:
        perm = np.argmax(pulse != 0, axis=0)
        splits.append((perm, pulse[perm, np.arange(n)]))
    steps = [(float(schedule.boundaries[j * n + l]), float(schedule.segments[j, l]), splits[l])
             for j in range(case.cycles) for l in range(n)]
    a, b = 0, 1
    for *_, split in reversed(steps):
        inverse = np.argsort(split[0])
        a, b = inverse[a], inverse[b]
    start = np.zeros((n, n))
    start[:2, :2] = 1.0  # the (0,1) superposition over its (0,1) entry
    factor = complex(start[a, b])
    path = []
    for t_start, dt, (perm, phases) in steps:
        if dt > 0:
            path.append((t_start, dt, a, b))
        factor *= phases[a] * np.conj(phases[b])
        a, b = perm[a], perm[b]
    return factor, path


def identity_started_coherence(case, substeps=None):
    """The Fock-space chain product that evolve_pulsed composed in closed
    form: per mode and side, the time-ordered product of fock_dim x fock_dim
    segment propagators multiplied onto the identity, and the trace
    Tr[L diag(p) R^dag] as one elementwise sum.  ``substeps`` replaces each
    closed-form segment propagator by that many piecewise-constant midpoint
    exponentials, the cross-check of its Magnus phase."""

    def substep_segment(mode, weight, t_start, dt):
        step = dt / substeps
        block = np.eye(mode.fock_dim, dtype=complex)
        for s in range(substeps):
            drive = mode.coupling * cmath.exp(1j * mode.omega * (t_start + (s + 0.5) * step))
            block = fock_oracle.expm(mode.fock_dim, -1j * weight * drive * step) @ block
        return block

    segment = _segment_exact if substeps is None else substep_segment
    factor, path = _level_path(case)
    for mode in case.modes:
        p = thermal_populations(mode, case.temperature)
        weights = np.real(np.diag(sigma_z(case.n, mode.transition)))
        left = right = np.eye(mode.fock_dim, dtype=complex)
        for t_start, dt, row, col in path:
            if weights[row] != 0.0:
                left = segment(mode, weights[row], t_start, dt) @ left
            if weights[col] != 0.0:
                right = segment(mode, weights[col], t_start, dt) @ right
        factor *= np.sum(left * right.conj() * p)
    return complex(factor)


def closed_form_coherence(case):
    """The factor with no Fock space: each side's displacements compose by
    D(x) D(A) = e^{i Im(x conj(A))} D(A + x) one segment at a time, and the
    untruncated thermal overlap is Tr[D(d) rho] = exp(-|d|^2 coth(w/2T)/2)."""
    factor, path = _level_path(case)
    for mode in case.modes:
        weights = np.real(np.diag(sigma_z(case.n, mode.transition)))
        phase, left, right, d = 0.0, 0j, 0j, 0j
        for t_start, dt, row, col in path:
            z, phi = _magnus(mode, t_start, dt)
            w_row, w_col = float(weights[row]), float(weights[col])
            phase += w_row**2 * phi + (w_row * z * left.conjugate()).imag
            phase -= w_col**2 * phi + (w_col * z * right.conjugate()).imag
            left += w_row * z
            right += w_col * z
            d += (w_row - w_col) * z
        coth = 1.0 / math.tanh(mode.omega / (2.0 * case.temperature))
        factor *= cmath.exp(1j * (phase - (right * left.conjugate()).imag)
                            - abs(d) ** 2 * coth / 2.0)
    return factor


def evolve_case(case):
    """evolve_pulsed's factor for a calibration case."""
    schedule = ScheduleSpec(case.scheme, case.n, case.cycles, case.total_time)
    return evolve_pulsed(case.modes, schedule, build_decoupling_group(case.n), case.temperature)


def kept_tail(case):
    """Sum over the case's modes of the thermal tail weight q^fock_dim that
    the truncation drops."""
    return math.fsum(math.exp(-mode.omega / case.temperature) ** mode.fock_dim
                     for mode in case.modes)


class TestExpm:
    @pytest.mark.parametrize("pairs", [
        *(partial(_random_displacements, dim) for dim in (2, 3, 12, 25, 50)),
        _displacement_pairs,
        _substep_pairs,
    ], ids=["random2", "random3", "random12", "random25", "random50",
            "displacement", "substep"])
    def test_matches_scipy_and_is_unitary(self, pairs):
        for propagator, reference in pairs():
            assert np.max(np.abs(propagator - reference)) <= 1e-12
            assert max_abs(propagator.conj().T @ propagator - np.eye(len(propagator))) <= ZERO_TOL

    def test_cached_factors_keep_every_bit(self):
        # the level indices and diagonal positions cached with the basis give
        # the bits of the formula that rebuilt them at every call
        for dim in range(2, 26):
            for z in (0.0, 0.4, -0.4, 5.0, -5.0, 2.5j, -1e-9j, 1.7 - 3.2j, -3.0 + 3.9j, 1e-300):
                assert _bits(fock_oracle.expm(dim, z)) == _bits(uncached_expm(dim, z)), (dim, z)


class TestThermalState:
    def test_cold_bath_is_ground_state(self):
        mode = ModeSpec(transition=0, omega=1.0, coupling=0.1, fock_dim=4)
        populations = thermal_populations(mode, temperature=1e-3)
        np.testing.assert_allclose(populations, [1.0, 0.0, 0.0, 0.0], atol=1e-300)

    def test_half_ratio_populations(self):
        # omega/T = ln 2 gives populations proportional to 1, 1/2, 1/4, ...
        mode = ModeSpec(transition=0, omega=math.log(2.0), coupling=0.1, fock_dim=40)
        populations = thermal_populations(mode, temperature=1.0)
        geometric = 0.5 ** np.arange(40)
        np.testing.assert_allclose(populations, geometric / geometric.sum(), rtol=1e-12)
        assert math.fsum(populations) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("omega,temperature,fock_dim",
                             [(1.0, 1.0, 25), (1.4, 0.5, 9), (95.0, 20.0, 12), (100.0, 150.0, 40)])
    def test_populations_are_normalised_boltzmann_weights(self, omega, temperature, fock_dim):
        mode = ModeSpec(transition=0, omega=omega, coupling=0.1, fock_dim=fock_dim)
        populations = thermal_populations(mode, temperature)
        q = math.exp(-omega / temperature)
        geometric = [q**j for j in range(fock_dim)]
        np.testing.assert_allclose(populations, np.array(geometric) / math.fsum(geometric),
                                   rtol=1e-15)
        assert math.fsum(populations) == pytest.approx(1.0, abs=1e-15)

    def test_truncation_error_names_tail_weight(self):
        mode = ModeSpec(transition=0, omega=100.0, coupling=0.1, fock_dim=5)
        tail = math.exp(-100.0 / 150.0) ** 5
        message = re.escape(f"fock_dim=5 keeps thermal tail weight {tail:.3e} >= 1e-10 "
                            f"for omega=100.0, temperature=150.0")
        with pytest.raises(ValueError, match=f"^{message}$"):
            thermal_populations(mode, temperature=150.0)

    @pytest.mark.parametrize(
        "omega,temperature", [(100.0, 150.0), (1.0, 1.0), (1.4, 0.5), (1.5, 0.25)]
    )
    def test_min_fock_dim_matches_brute_force(self, omega, temperature):
        # the smallest fock_dim whose thermal tail thermal_populations accepts
        smallest = brute_min_dim(omega, temperature)
        thermal_populations(ModeSpec(0, omega, 0.1, smallest), temperature)
        tail = math.exp(-omega / temperature) ** (smallest - 1)
        message = re.escape(f"fock_dim={smallest - 1} keeps thermal tail weight {tail:.3e} "
                            f">= 1e-10 for omega={omega}, temperature={temperature}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            thermal_populations(ModeSpec(0, omega, 0.1, smallest - 1), temperature)

    def test_mode_beyond_the_cap_is_named(self):
        # no fock_dim up to DIM_CAP bounds this tail: the error once advised
        # fock_dim >= 23026, which ModeSpec rejects
        tail = math.exp(-1e-3) ** DIM_CAP
        message = re.escape(
            f"fock_dim={DIM_CAP} keeps thermal tail weight {tail:.3e} >= 1e-10 for "
            f"omega=0.001, temperature=1.0; no fock_dim up to the cap {DIM_CAP} bounds it")
        with pytest.raises(ValueError, match=f"^{message}$"):
            thermal_populations(ModeSpec(0, 1e-3, 0.1, DIM_CAP), 1.0)

    @pytest.mark.parametrize("omega,temperature", [(1e-17, 1.0), (1.0, 1e17)])
    def test_unresolvable_ratio_is_named(self, omega, temperature):
        # exp(-omega/temperature) rounds to 1.0 here: this once raised a bare
        # ZeroDivisionError
        message = re.escape(f"fock_dim=25 keeps thermal tail weight 1.000e+00 >= 1e-10 for "
                            f"omega={omega}, temperature={temperature}; no fock_dim up to "
                            f"the cap {DIM_CAP} bounds it")
        mode = ModeSpec(transition=0, omega=omega, coupling=0.1, fock_dim=25)
        with pytest.raises(ValueError, match=f"^{message}$"):
            thermal_populations(mode, temperature)
        with pytest.raises(ValueError, match=f"^{message}$"):
            evolve_pulsed((mode,), ScheduleSpec(Scheme.PDD, 2, 1, 2.0),
                          build_decoupling_group(2), temperature)


class TestModeSpecValidation:
    def test_bad_frequency(self):
        with pytest.raises(ValueError, match="frequency"):
            ModeSpec(transition=0, omega=0.0, coupling=0.1, fock_dim=4)

    def test_bad_fock_dim(self):
        with pytest.raises(ValueError, match="fock_dim"):
            ModeSpec(transition=0, omega=1.0, coupling=0.1, fock_dim=1)

    @pytest.mark.parametrize("fock_dim", [25.0, 24.5, "25"])
    def test_non_integer_fock_dim_is_named(self, fock_dim):
        # a float dimension once passed and failed inside expm as a bare IndexError
        with pytest.raises(ValueError, match="fock_dim must be an int"):
            ModeSpec(transition=0, omega=1.0, coupling=0.1, fock_dim=fock_dim)

    def test_numpy_integer_fock_dim(self):
        schedule = ScheduleSpec(Scheme.PDD, 2, 1, 2.0)
        group = build_decoupling_group(2)
        numpy_dim = ModeSpec(transition=0, omega=1.0, coupling=0.1, fock_dim=np.int64(25))
        assert _bits(evolve_pulsed((numpy_dim,), schedule, group, 1.0)) == _bits(
            evolve_pulsed((MODE_N2,), schedule, group, 1.0))

    def test_bad_transition(self):
        with pytest.raises(ValueError, match="transition"):
            ModeSpec(transition=-1, omega=1.0, coupling=0.1, fock_dim=4)

    @pytest.mark.parametrize("transition", [1.0, 0.5, "1", True])
    def test_non_integer_transition_is_named(self, transition):
        # 1.0 and 0.5 once failed inside evolve_pulsed with a bare IndexError, and
        # True evolved transition 1 while discrete_decay_exponent returned an array
        with pytest.raises(ValueError,
                           match="transition index must be an int >= 0, got transition="):
            ModeSpec(transition=transition, omega=1.0, coupling=0.1, fock_dim=30)

    def test_numpy_integer_transition(self):
        schedule = ScheduleSpec(Scheme.PDD, 3, 1, 2.0)
        group = build_decoupling_group(3)
        plain, numpy_index = (ModeSpec(transition=k, omega=1.0, coupling=0.1, fock_dim=30)
                              for k in (1, np.int64(1)))
        assert _bits(evolve_pulsed((numpy_index,), schedule, group, 1.0)) == _bits(
            evolve_pulsed((plain,), schedule, group, 1.0))
        assert _bits(discrete_decay_exponent((numpy_index,), 1.0, schedule)) == _bits(
            discrete_decay_exponent((plain,), 1.0, schedule))

    def test_fock_dim_cap(self):
        ModeSpec(transition=0, omega=1.0, coupling=0.1, fock_dim=DIM_CAP)  # at the cap
        with pytest.raises(ValueError, match="cap"):
            ModeSpec(transition=0, omega=1.0, coupling=0.1, fock_dim=DIM_CAP + 1)

    @pytest.mark.parametrize(
        "field,value",
        [("omega", math.inf), ("omega", math.nan), ("coupling", math.nan),
         ("coupling", math.inf), ("coupling", complex(0.1, -math.inf))],
    )
    def test_non_finite_value_is_named(self, field, value):
        fields = dict(transition=0, omega=1.0, coupling=0.1, fock_dim=4)
        fields[field] = value
        with pytest.raises(ValueError, match=f"mode {field}.* must be finite"):
            ModeSpec(**fields)

    @pytest.mark.parametrize("temperature", [math.inf, math.nan, 0.0, -1.0])
    def test_temperature_must_be_finite_and_positive(self, temperature):
        with pytest.raises(ValueError, match="temperature must be finite and > 0"):
            thermal_populations(MODE_N2, temperature)
        with pytest.raises(ValueError, match="temperature must be finite and > 0"):
            evolve_pulsed((MODE_N2,), ScheduleSpec(Scheme.PDD, 2, 1, 2.0),
                          build_decoupling_group(2), temperature)
        with pytest.raises(ValueError, match="temperature must be finite and > 0"):
            discrete_decay_exponent((MODE_N2,), temperature, ScheduleSpec(Scheme.PDD, 3, 1, 2.0))


class TestEvolvePulsed:
    def _run(self, n, modes, scheme=Scheme.PDD, cycles=1, total_time=2.0,
             temperature=1.0, **kwargs):
        schedule = ScheduleSpec(scheme, n, cycles, total_time)
        return evolve_pulsed(modes, schedule, build_decoupling_group(n), temperature, **kwargs)

    def test_zero_coupling_preserves_coherence(self):
        mode = ModeSpec(transition=0, omega=1.0, coupling=0.0, fock_dim=25)
        assert abs(START * self._run(2, (mode,))) == pytest.approx(START, abs=1e-12)

    def test_vanishing_duration_no_decay(self):
        factor = self._run(2, (MODE_N2,), total_time=1e-12)
        assert abs(START * factor) == pytest.approx(START, abs=1e-10)

    def test_final_state_is_physical(self):
        factor = self._run(3, (
            ModeSpec(transition=0, omega=1.1, coupling=0.07, fock_dim=11),
            ModeSpec(transition=1, omega=1.4, coupling=0.06, fock_dim=9),
        ), temperature=0.5)
        assert isinstance(factor, complex)
        assert abs(factor) <= 1.0

    def test_substeps_cross_validate_exact_generator(self):
        # the sub-stepped midpoint products converge onto the closed-form
        # Magnus propagator: halving the step moves the factor by <= 1e-8
        case = CalibrationCase("substeps", 2, 1, Scheme.PDD, 2.0, 1.0, (MODE_N2,))
        exact = self._run(2, (MODE_N2,))
        coarse, fine = (identity_started_coherence(case, substeps=count) for count in (512, 1024))
        assert abs(coarse - fine) <= 1e-8
        assert abs(START * fine - START * exact) <= 1e-7

    def test_one_eigendecomposition_per_fock_dim(self, monkeypatch):
        # every displacement rotates the one cached basis of its fock_dim, and
        # a mode's segments compose into one displacement: one expm per mode
        eighs, expms = [], []

        def counting_eigh(matrix):
            eighs.append(matrix.shape)
            return eigh(matrix)

        def counting_expm(dim, z):
            expms.append(dim)
            return expm(dim, z)

        eigh, expm = np.linalg.eigh, fock_oracle.expm
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(fock_oracle, "expm", counting_expm)
        fock_oracle._basis.cache_clear()
        self._run(3, (ModeSpec(0, 1.1, 0.07, 11), ModeSpec(1, 1.4, 0.06, 9),
                      ModeSpec(1, 1.2, 0.05, 11)), cycles=2, temperature=0.5)
        assert eighs == [(11, 11), (9, 9)]
        expms.clear()
        self._run(2, (MODE_N2,), cycles=3)
        assert expms == [25]
        assert eighs == [(11, 11), (9, 9), (25, 25)]

    def test_uncoupled_run_is_atom_conjugation(self):
        # with no coupling the bath stays inert and the run is U rho U^dag on
        # the atom; a first element that is not the identity leaves each cycle
        # a net permutation with phases, which the decoupling group never does.
        # Here it swaps levels 0 and 1, so over three cycles the (0,1)
        # superposition keeps its modulus and picks up a relative phase
        rng = np.random.default_rng(5)
        n = 3
        elements = []
        for perm in ([1, 0, 2], [0, 2, 1], [2, 1, 0]):
            element = np.zeros((n, n), dtype=complex)
            element[perm, np.arange(n)] = np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))
            elements.append(element)
        mode = ModeSpec(transition=1, omega=1.0, coupling=0.0, fock_dim=4)
        factor = evolve_pulsed((mode,), ScheduleSpec(Scheme.UDD, n, 3, 1.0),
                               tuple(elements), 0.1)
        atom = np.zeros((n, n))
        atom[:2, :2] = START
        u = np.linalg.matrix_power(elements[0].conj().T, 3)  # the three cycles
        expected = (u @ atom @ u.conj().T)[0, 1]
        assert abs(expected) == pytest.approx(START, abs=1e-15)
        assert abs(expected - START) > 1e-3  # a relative phase far above the tolerance
        assert START * factor == pytest.approx(expected, abs=1e-14)

    def test_group_carrying_another_block_into_01_gives_zero(self):
        # g_0 moves level 0 to level 2, so each cycle's net pulse g_0^dag
        # carries block (2, .) into (0, 1); the start state has no such entry
        # and the factor is exactly 0 however strongly the modes couple
        rng = np.random.default_rng(7)
        n = 3
        elements = []
        for perm in ([2, 0, 1], [1, 2, 0], [0, 1, 2]):
            element = np.zeros((n, n), dtype=complex)
            element[perm, np.arange(n)] = np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))
            elements.append(element)
        modes = (ModeSpec(0, 1.1, 0.4, 30), ModeSpec(1, 1.4, 0.3, 30))
        for cycles in (1, 2):
            schedule = ScheduleSpec(Scheme.PDD, n, cycles, 2.0)
            assert evolve_pulsed(modes, schedule, tuple(elements), 0.5) == 0.0, cycles

    @pytest.mark.parametrize("name", list(DENSE_COHERENCE))
    def test_product_form_matches_frozen_dense_coherence(self, name):
        # the Fock-space chain product at the frozen fock_dims; evolve_pulsed
        # is checked against it at a deeper truncation below, since a frozen
        # value carries its own truncation error (n6-udd-T2.5-k2-k3, fock_dim
        # 6, is 2.6e-10 from the chain product at fock_dim 12)
        dense = DENSE_COHERENCE[name]
        assert abs(START * identity_started_coherence(_pinned_cases()[name]) - dense) <= (
            1e-12 * abs(dense))

    def test_strong_decay_passes_at_a_deep_truncation(self):
        # PDD n = 2, N = 1, T = 2, omega 1, j = 2 at temperature 1: Gamma = 14.6.
        # One displacement per mode reads rel.err 5e-10 at fock_dim 48, where
        # the per-segment chains read 6.5e-6
        case = CalibrationCase("strong-decay", 2, 1, Scheme.PDD, 2.0, 1.0,
                               (ModeSpec(0, 1.0, 2.0, 48),))
        assert run_case(case).passed

    @pytest.mark.parametrize("name", [*DENSE_COHERENCE, *(
        case.name for case in default_calibration_cases()[5:])])
    def test_composition_matches_deeper_chain_products(self, name):
        # the chain product at twice each fock_dim has a negligible tail, so
        # what is left is evolve_pulsed's own: the dropped populations and
        # their renormalisation, each at most the kept tail weight, plus 1e-13
        # for the chains' rounding over 300 segments (2.3e-14 on n6-pdd-T1.5)
        cases = {**_pinned_cases(), **{case.name: case for case in default_calibration_cases()}}
        case = cases[name]
        deeper = dataclasses.replace(case, modes=tuple(
            dataclasses.replace(mode, fock_dim=2 * mode.fock_dim) for mode in case.modes))
        got = evolve_case(case)
        chains = identity_started_coherence(deeper)
        assert abs(got - chains) <= 2 * kept_tail(case) + 1e-13 * abs(chains)

    @pytest.mark.parametrize("case", default_calibration_cases(), ids=lambda case: case.name)
    def test_fock_overlap_matches_the_closed_form(self, case):
        # the closed form has no truncation, so the gap is evolve_pulsed's
        # kept tail (as above) plus rounding: 2e-16 to 5.1e-11 measured
        got = evolve_case(case)
        closed = closed_form_coherence(case)
        assert abs(got - closed) <= 2 * kept_tail(case) + 1e-15 * abs(closed)

    def test_one_expm_per_mode_on_the_frozen_suite(self, monkeypatch):
        calls = []

        def counting_expm(dim, z):
            calls.append(dim)
            return expm(dim, z)

        expm = fock_oracle.expm
        monkeypatch.setattr(fock_oracle, "expm", counting_expm)
        cases = default_calibration_cases()[:5]
        assert all(result.passed for result in run_calibration_suite(cases))
        assert calls == [mode.fock_dim for case in cases for mode in case.modes]
        assert len(calls) == 11

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
        base = self._run(n, case_modes, **case_kwargs)
        fine = self._run(n, doubled, **case_kwargs)
        assert abs(abs(base) - abs(fine)) <= 1e-8

    def test_validation_errors(self):
        schedule = ScheduleSpec(Scheme.PDD, 2, 1, 1.0)
        group = build_decoupling_group(2)
        with pytest.raises(ValueError, match="at least one"):
            evolve_pulsed((), schedule, group, 1.0)
        with pytest.raises(ValueError,
                           match=r"^transition k=1 out of range for n=2 \(need 0 <= k <= n-2\)$"):
            evolve_pulsed((ModeSpec(1, 1.0, 0.1, 4),), schedule, group, 1.0)
        with pytest.raises(ValueError, match="mismatch"):
            evolve_pulsed((ModeSpec(0, 1.0, 0.1, 4),), schedule, build_decoupling_group(3), 1.0)


def test_oracle_imports_nothing_of_the_kernel_it_checks():
    # the prediction lives in calibration, which alone imports both sides
    code = ("import sys\n"
            "import ladder_dd.fock_oracle\n"
            "assert 'ladder_dd.kernel' not in sys.modules, sorted(sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(fock_oracle.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


class TestMonomialSplit:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_group_pulses_rebuild_exactly(self, n):
        elements = build_decoupling_group(n)
        pulses = [*elements, elements[n - 1].conj().T]
        pulses += [elements[l] @ elements[l - 1].conj().T for l in range(1, n)]
        for pulse in pulses:
            perm, inverse, phases = _monomial_split(pulse)
            assert sorted(perm) == list(range(n))
            assert [inverse[level] for level in perm] == list(range(n))
            rebuilt = np.zeros((n, n), dtype=complex)
            rebuilt[perm, np.arange(n)] = phases
            np.testing.assert_array_equal(rebuilt, pulse)

    @pytest.mark.parametrize("pulse", [
        np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0),  # Hadamard
        np.array([[1.0, 1.0], [0.0, 0.0]]),  # one per column, two in row 0
        np.array([[1.0, 0.0], [0.0, 0.0]]),  # empty column
        np.array([[1.0, 0.0], [1.0, 0.0]]),  # one per row, two in column 0
    ])
    def test_non_monomial_pulse_is_rejected(self, pulse):
        nonzero = pulse != 0
        message = re.escape("pulse is not monomial: nonzero entries per column "
                            f"{nonzero.sum(axis=0)}, per row {nonzero.sum(axis=1)}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            _monomial_split(pulse)
        with pytest.raises(ValueError, match=f"^{message}$"):
            evolve_pulsed((MODE_N2,), ScheduleSpec(Scheme.PDD, 2, 1, 1.0),
                          (np.eye(2, dtype=complex), pulse), 1.0)


class TestDecouplingSuppression:
    def test_pulsed_run_decays_far_less_than_free_run(self):
        # the entire point: cyclic pulsing at rate above the mode frequency
        # suppresses the coherence loss by an order of magnitude here
        total_time, temperature = 2.0, 1.0
        free = free_decay(total_time, (MODE_N2,), temperature, 2)
        schedule = ScheduleSpec(Scheme.PDD, 2, 2, total_time)
        final = evolve_pulsed((MODE_N2,), schedule, build_decoupling_group(2), temperature)
        pulsed = -math.log(abs(final))
        assert pulsed < free / 10


class TestDiscreteDecayExponent:
    def test_zero_coupling(self):
        schedule = ScheduleSpec(Scheme.PDD, 2, 1, 2.0)
        mode = ModeSpec(transition=0, omega=1.0, coupling=0.0, fock_dim=4)
        assert discrete_decay_exponent((mode,), 1.0, schedule) == 0.0

    def test_coupling_square_scaling_exact(self):
        schedule = ScheduleSpec(Scheme.UDD, 3, 2, 1.8)
        base = discrete_decay_exponent((ModeSpec(0, 1.1, 0.07, 4),), 0.5, schedule)
        doubled = discrete_decay_exponent((ModeSpec(0, 1.1, 0.14, 4),), 0.5, schedule)
        assert doubled == 4.0 * base

    def test_transition_out_of_range(self):
        schedule = ScheduleSpec(Scheme.PDD, 3, 1, 2.0)
        mode = ModeSpec(transition=2, omega=1.0, coupling=0.1, fock_dim=4)
        with pytest.raises(ValueError,
                           match=r"^transition k=2 out of range for n=3 \(need 0 <= k <= n-2\)$"):
            discrete_decay_exponent((mode,), 1.0, schedule)


class TestFreeDecayBaseline:
    def test_zero_coupling(self):
        mode = ModeSpec(transition=0, omega=1.0, coupling=0.0, fock_dim=24)
        assert free_decay(2.0, (mode,), 1.0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_zero_duration(self):
        # a schedule needs T > 0: the shortest run stands for T = 0
        assert free_decay(1e-300, (MODE_N2,), 1.0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_regression_fixture(self):
        # frozen output of this very computation (omega=1, j=0.1, T'=1, T=2, d=25)
        value = free_decay(2.0, (MODE_N2,), 1.0, 2)
        assert value == pytest.approx(0.12257903122938255, rel=1e-12)

    def test_matches_unpulsed_closed_form(self):
        # one segment, no pulses: chi = -2 j zeta, exponent 2|j zeta|^2 coth
        total_time, temperature = 2.0, 1.0
        value = free_decay(total_time, (MODE_N2,), temperature, 2)
        zeta = window(MODE_N2.omega, total_time)
        closed = (
            2.0
            * abs(MODE_N2.coupling * zeta) ** 2
            / math.tanh(MODE_N2.omega / (2 * temperature))
        )
        assert value == pytest.approx(closed, rel=1e-9)

    def test_mode_beyond_first_two_levels_does_not_touch_01_coherence(self):
        # transition (2,3) has zero dephasing weight on levels 0 and 1
        mode = ModeSpec(transition=2, omega=1.2, coupling=0.1, fock_dim=10)
        value = free_decay(2.0, (mode,), 0.5, 4)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_middle_transition_mode_dephases_through_level_one(self):
        # transition (1,2) carries weight -1 on level 1: chi = j*zeta, so the
        # (0,1) coherence decays at a quarter of the transition-(0,1) rate
        total_time, temperature = 2.0, 0.5
        mode = ModeSpec(transition=1, omega=1.2, coupling=0.1, fock_dim=12)
        value = free_decay(total_time, (mode,), temperature, 3)
        zeta = window(mode.omega, total_time)
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
        # negative control: a wrong sign convention must be caught in every
        # case, those added later included
        for case in default_calibration_cases():
            schedule = ScheduleSpec(case.scheme, case.n, case.cycles, case.total_time)
            control = dataclasses.replace(run_case(case), predicted_exponent=miswired_exponent(
                case.modes, case.temperature, schedule))
            assert not control.passed, (case.name, control.rel_error)

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
        assert result.predicted_exponent == 0.0


def oracle_misses(schedule, temperature, modes):
    """Relative misses of the prediction and of the miswired control against
    evolve_pulsed's coherence ratio."""
    observed = abs(evolve_pulsed(modes, schedule, build_decoupling_group(schedule.n),
                                 temperature))
    return [abs(observed - ratio) / ratio for ratio in (
        math.exp(-discrete_decay_exponent(modes, temperature, schedule)),
        math.exp(-miswired_exponent(modes, temperature, schedule)))]


class TestOracleReachesFilterForms:
    """The oracle against filter forms that no default calibration case
    reaches: the UDD Bessel series, and PDD's Dirichlet kernel at and beside
    its poles."""

    def test_udd_bessel_series(self, monkeypatch):
        # curve-deep's schedule, 200 modes spread over the band and over the
        # transitions in turn: the prediction's one filter call takes the
        # series (with 40 modes it takes the boundary sum).  Measured: rel.err
        # 3.4e-15 at Gamma = 0.0197, miswired control 0.126
        forms, orders = [], kernel._udd_series_orders

        def recording(omegas, schedule):
            forms.append(orders(omegas, schedule))
            return forms[-1]

        monkeypatch.setattr(kernel, "_udd_series_orders", recording)
        omegas = np.linspace(20.0, 300.0, 200).tolist()
        modes = tuple(ModeSpec(m % 5, omega, 0.05 * math.sqrt(omega) * math.exp(-omega / 200),
                               24) for m, omega in enumerate(omegas))
        error, control = oracle_misses(ScheduleSpec(Scheme.UDD, 6, 400, 8.0), 20.0, modes)
        assert len(forms) == 1 and forms[0] is not None
        assert error <= CALIBRATION_TOL
        assert control > CALIBRATION_TOL

    @pytest.mark.parametrize("order,offset", [
        (1, 0.0), (2, 0.0), (1, 1e-12), (1, 1e-8), (1, 1e-4), (1, -1e-4)])
    def test_pdd_at_and_beside_dirichlet_poles(self, order, offset):
        # w = 2 pi m N/T puts every slot's Dirichlet kernel sin(N h)/sin(h) on
        # its pole h = m pi; one mode on each transition.  Measured: rel.err at
        # most 1.3e-15, miswired control 0.079 to 0.40
        schedule = ScheduleSpec(Scheme.PDD, 6, 50, 3.112)
        omega = 2 * math.pi * order * schedule.cycles / schedule.total_time * (1 + offset)
        modes = tuple(ModeSpec(k, omega, 0.3, 24) for k in range(schedule.n - 1))
        error, control = oracle_misses(schedule, 20.0, modes)
        assert error <= CALIBRATION_TOL
        assert control > CALIBRATION_TOL


@st.composite
def calibration_draws(draw):
    """A random pulsed run: its schedule (n, N, T and a scheme, custom
    fractions from random positive gaps included), temperature and 1-3 modes
    on random transitions, each truncated with a margin for its displacement."""
    n = draw(st.integers(2, 7))
    cycles = draw(st.sampled_from([1, 2, 3, 4, 50]))
    scheme = draw(st.sampled_from([Scheme.PDD, Scheme.UDD, Scheme.CUSTOM]))
    total_time = draw(st.floats(0.3, 3.0))
    fractions = None
    if scheme is Scheme.CUSTOM:
        ends = np.cumsum(draw(st.lists(st.floats(0.1, 1.0), min_size=n * cycles,
                                       max_size=n * cycles)))
        fractions = tuple((ends[:-1] / ends[-1]).tolist())
    schedule = ScheduleSpec(scheme, n, cycles, total_time, fractions)
    temperature = draw(st.floats(0.3, 2.0))
    modes = []
    for _ in range(draw(st.integers(1, 3))):
        omega = draw(st.floats(0.5, 3.0))
        coupling = draw(st.floats(0.01, 0.1))
        # every displacement along the run stays below 4 j T; the margin keeps
        # the truncation error far below CALIBRATION_TOL
        fock_dim = (brute_min_dim(omega, temperature)
                    + math.ceil(6 * (4 * coupling * total_time) ** 2) + 6)
        modes.append(ModeSpec(draw(st.integers(0, n - 2)), omega, coupling, fock_dim))
    return schedule, temperature, tuple(modes)


@settings(max_examples=12, deadline=None)
@given(calibration_draws())
def test_random_runs_match_prediction_and_catch_the_control(draw):
    schedule, temperature, modes = draw
    group = build_decoupling_group(schedule.n)
    observed = abs(evolve_pulsed(modes, schedule, group, temperature))
    predicted = math.exp(-discrete_decay_exponent(modes, temperature, schedule))
    control = math.exp(-miswired_exponent(modes, temperature, schedule))
    assert abs(observed - predicted) / predicted <= CALIBRATION_TOL
    if abs(control - predicted) / predicted > 10 * CALIBRATION_TOL:
        assert abs(observed - control) / control > CALIBRATION_TOL
