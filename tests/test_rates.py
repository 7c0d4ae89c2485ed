"""Transition-rate tests: occupation, filtering, detailed balance, assembly.

Frozen expected values come from a 50-digit mpmath evaluation of the same
closed forms (see the literals' comments).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutrit_heat import CircuitParams, SystemConfig, derive_spectrum
from qutrit_heat.rates import bose_factors, lorentz_prefactor, thermal_rates
from qutrit_heat.steady import edge_rates

# Resonant level-pair assignment of each channel.
RESONANT_PAIR = {"a": (0, 1), "b": (1, 2), "c": (0, 2)}
# Level pairs of the kernel's transitions (omega10, omega21, omega20).
TRANSITIONS = ((0, 1), (1, 2), (0, 2))

# mpmath, 50 digits: 1/(e - 1)
BOSE_1_1 = 0.5819767068693264
# mpmath: [1 + 100^2 (w/wl - wl/w)^2]^-1 at w=4.34713, wl=4.72213
LORENTZ_EXAMPLE = 3.6299076509729220e-3
# mpmath: (2*4.72213/100) * n_B(4.72213, 2)
EXCITATION_EXAMPLE = 9.8354791419771356e-3
# mpmath: (2*4.72213/100) * (1 + n_B(4.72213, 2))
RELAXATION_EXAMPLE = 0.10427807914197714
# mpmath: (2*4.34713/100) * lorentz * n_B(4.34713, 2)
OFFRES_EXCITATION_EXAMPLE = 4.0514930954475917e-5


def lorentz_filter(omega, omega_l, q):
    """The filter factor of lorentz_prefactor: the prefactor over 2 omega / Q."""
    return lorentz_prefactor(omega, omega_l, q, 1.0) / (2.0 * omega / q)


def rate_pair(omega, weight=1.0, omega_l=4.72213, q=100.0, temperature=2.0):
    """(up, down) rates of one transition through one channel, from thermal_rates."""
    pref = np.full((1, 3, 3), lorentz_prefactor(omega, omega_l, q, weight))
    up, down = thermal_rates(np.full((1, 3), omega), pref, np.full((1, 3), temperature))
    return float(up[0, 0, 0]), float(down[0, 0, 0])


CIRCUIT = CircuitParams(e_j=5.0, e_c=0.5, phi=math.pi / 2)


def config(**kw) -> SystemConfig:
    return SystemConfig(**{"circuit": CIRCUIT, **kw})


class TestBoseOccupation:
    def test_unit_point(self):
        assert bose_factors(np.float64(1.0), 1.0) == pytest.approx(BOSE_1_1, rel=1e-15)

    def test_log_two_is_exactly_one(self):
        assert bose_factors(np.float64(math.log(2.0)), 1.0) == 1.0

    def test_zero_temperature(self):
        assert bose_factors(np.float64(5.0), 0.0) == 0.0

    def test_deep_quantum_underflow_is_zero(self):
        assert bose_factors(np.float64(1.0), 1e-4) == 0.0

    def test_rejects_bad_arguments(self):
        # the checks live where the kernel inputs are made: SystemConfig.channels
        with pytest.raises(ValueError):
            config(circuit=CircuitParams(e_j=5.0, e_c=0.0)).channels(dict.fromkeys("abc", 1.0))
        with pytest.raises(ValueError):
            config().channels({"a": 1.0, "b": -0.5, "c": 1.0})
        for temperature in (math.nan, math.inf):
            with pytest.raises(ValueError):
                config().channels({"a": 1.0, "b": 1.0, "c": temperature})
        with pytest.raises(ValueError):
            CircuitParams(e_j=5.0, e_c=0.5, phi=math.nan)


class TestLorentzFilter:
    def test_on_resonance_is_exactly_one(self):
        for q in (1.0, 10.0, 1e4):
            assert lorentz_filter(3.7, 3.7, q) == 1.0

    def test_example_value(self):
        got = lorentz_filter(4.34713, 4.72213, 100.0)
        assert got == pytest.approx(LORENTZ_EXAMPLE, rel=1e-14)

    def test_symmetric_in_frequency_ratio(self):
        assert lorentz_filter(2.0, 5.0, 30.0) == lorentz_filter(5.0, 2.0, 30.0)

    def test_quadratic_q_suppression(self):
        lo = lorentz_filter(4.34713, 4.72213, 1000.0)
        hi = lorentz_filter(4.34713, 4.72213, 2000.0)
        assert lo / hi == pytest.approx(4.0, rel=1e-2)

    @given(
        omega=st.floats(0.2, 12.0),
        omega_l=st.floats(0.2, 12.0),
        q=st.floats(0.5, 1e5),
    )
    def test_bounded(self, omega, omega_l, q):
        f = lorentz_filter(omega, omega_l, q)
        assert 0.0 < f <= 1.0


class TestRatePair:
    def test_excitation_on_resonance(self):
        got, _ = rate_pair(4.72213)
        assert got == pytest.approx(EXCITATION_EXAMPLE, rel=1e-14)

    def test_excitation_through_filter(self):
        got, _ = rate_pair(4.34713)
        assert got == pytest.approx(OFFRES_EXCITATION_EXAMPLE, rel=1e-14)

    def test_zero_weight_decouples(self):
        assert rate_pair(4.0, weight=0.0) == (0.0, 0.0)

    def test_relaxation_stable_form(self):
        _, got = rate_pair(4.72213)
        assert got == pytest.approx(RELAXATION_EXAMPLE, rel=1e-14)

    def test_zero_temperature_spontaneous_emission(self):
        up, down = rate_pair(4.72213, temperature=0.0)
        assert up == 0.0
        assert down == pytest.approx(2.0 * 4.72213 / 100.0, rel=1e-15)

    def test_classical_limit(self):
        up, down = rate_pair(4.72213, temperature=1e8)
        assert down / up == pytest.approx(1.0, abs=1e-7)

    @settings(max_examples=300)
    @given(
        omega=st.floats(0.2, 12.0),
        omega_l=st.floats(0.2, 12.0),
        q=st.floats(1.0, 1e4),
        weight=st.floats(0.0, 3.0),
        temperature=st.floats(0.3, 5.0),
    )
    def test_local_detailed_balance(self, omega, omega_l, q, weight, temperature):
        up, down = rate_pair(omega, weight, omega_l=omega_l, q=q, temperature=temperature)
        assert up >= 0.0 and down >= 0.0
        expected = up * math.exp(omega / temperature)
        assert down == pytest.approx(expected, rel=1e-12)


class TestChannelValidation:
    def test_bath_defaults_to_id(self):
        assert config().bath_of("b") == "b"
        assert config(merged=("b", "c")).bath_of("b") == "bc"

    def test_field_validation(self):
        for kw in ({"resonators": (("a", 0.0),)}, {"q": -1.0}, {"lambda_res": -0.1},
                   {"q": math.inf}, {"lambda_off": math.nan}):
            with pytest.raises(ValueError):
                config(**kw)
        for temperature in (-1.0, math.nan):
            with pytest.raises(ValueError):
                config().channels({"a": temperature, "b": 1.0, "c": 1.0})

    def test_shared_bath_requires_shared_temperature(self):
        # a merged bath has one temperature, so its channels share it by construction
        _, _, temps = config(merged=("b", "c")).channels({"a": 1.0, "bc": 2.0})
        assert temps.tolist() == [[1.0, 2.0, 2.0]]


@pytest.fixture(scope="module")
def spectrum():
    return derive_spectrum(CircuitParams(e_j=5.0, e_c=0.5, phi=math.pi / 2))


def pinned_rates(spectrum, q=100.0, lambda_res=1.0, lambda_off=1.0,
                 temps=(2.0, 1.5, 1.0)):
    """(up, down) rates (1, channel, transition) of resonators pinned to the
    transitions of `spectrum`: thermal_rates of the kernel's N = 1 inputs."""
    freqs = (spectrum.omega10, spectrum.omega21, spectrum.omega20)
    cfg = config(q=q, lambda_res=lambda_res, lambda_off=lambda_off,
                 resonators=tuple(zip("abc", freqs)))
    return thermal_rates(*cfg.channels(dict(zip("abc", temps))))


class TestAssembly:
    def test_shape_and_sign_structure(self, spectrum):
        up, down = pinned_rates(spectrum)
        for rates in (up, down):
            assert rates.shape == (1, 3, 3)
            assert np.all(rates >= 0.0)
        # the total of each edge is the channel sum a + b + c, exactly
        total = edge_rates(up, down)
        for t, (k_up, k_down) in enumerate(zip(total[::2], total[1::2])):
            assert np.array_equal(k_up, up[:, 0, t] + up[:, 1, t] + up[:, 2, t])
            assert np.array_equal(k_down, down[:, 0, t] + down[:, 1, t] + down[:, 2, t])

    def test_perfect_filtering_sparsity(self, spectrum):
        up, down = pinned_rates(spectrum, lambda_off=0.0)
        for c, cid in enumerate("abc"):
            for rates in (up, down):
                nz = {TRANSITIONS[t] for t in np.flatnonzero(rates[0, c] > 0.0)}
                assert nz == {RESONANT_PAIR[cid]}
        # the total keeps exactly the three-link cycle, up and down
        assert all(k[0] > 0.0 for k in edge_rates(up, down))

    def test_equilibrium_satisfies_global_detailed_balance(self, spectrum):
        t = 1.7
        k01, k10, k12, k21, k02, k20 = (
            float(k[0]) for k in edge_rates(*pinned_rates(spectrum, temps=(t, t, t))))
        energies = spectrum.energies
        weights = [math.exp(-e / t) for e in energies]
        for (i, j), k_ij, k_ji in (((0, 1), k01, k10), ((1, 2), k12, k21), ((0, 2), k02, k20)):
            assert k_ij * weights[i] == pytest.approx(k_ji * weights[j], rel=1e-12)

    def test_offresonant_ratio_scales_inverse_q_squared(self, spectrum):
        qs = [1e3, 1e4, 1e5]
        ratios = []
        for q in qs:
            up, _ = pinned_rates(spectrum, q=q)
            # off-resonant 1->2 versus resonant 0->1 excitation within channel a
            ratios.append(up[0, 0, 1] / up[0, 0, 0])
        slope = np.polyfit(np.log10(qs), np.log10(ratios), 1)[0]
        assert slope == pytest.approx(-2.0, abs=1e-3)

    def test_assembly_deterministic(self, spectrum):
        up1, down1 = pinned_rates(spectrum)
        up2, down2 = pinned_rates(spectrum)
        assert np.array_equal(up1, up2)
        assert np.array_equal(down1, down2)
