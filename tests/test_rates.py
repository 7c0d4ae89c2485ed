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

from qutrit_heat import (
    BathChannel,
    BathSet,
    ChannelMismatch,
    CircuitParams,
    assemble_rate_matrix,
    bose_occupation,
    derive_spectrum,
)
from qutrit_heat.rates import RESONANT_PAIR, lorentz_prefactor, thermal_rates

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


def channel(**kw) -> BathChannel:
    base = dict(id="a", omega=4.72213, q=100.0, lambda_res=1.0,
                lambda_off=1.0, temperature=2.0)
    base.update(kw)
    return BathChannel(**base)


class TestBoseOccupation:
    def test_unit_point(self):
        assert bose_occupation(1.0, 1.0) == pytest.approx(BOSE_1_1, rel=1e-15)

    def test_log_two_is_exactly_one(self):
        assert bose_occupation(math.log(2.0), 1.0) == 1.0

    def test_zero_temperature(self):
        assert bose_occupation(5.0, 0.0) == 0.0

    def test_deep_quantum_underflow_is_zero(self):
        assert bose_occupation(1.0, 1e-4) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bose_occupation(0.0, 1.0)
        with pytest.raises(ValueError):
            bose_occupation(1.0, -0.5)
        for omega, temperature in ((1.0, math.nan), (1.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ValueError):
                bose_occupation(omega, temperature)


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
        assert channel(id="b", omega=4.3).bath == "b"
        assert channel(id="b", omega=4.3, bath="bc").bath == "bc"

    def test_field_validation(self):
        with pytest.raises(ChannelMismatch):
            channel(id="x")
        for kw in ({"omega": 0.0}, {"q": -1.0}, {"lambda_res": -0.1},
                   {"temperature": -1.0}, {"temperature": math.nan},
                   {"q": math.inf}, {"lambda_off": math.nan}):
            with pytest.raises(ValueError):
                channel(**kw)

    def test_bath_set_requires_abc(self):
        chs = [channel(id=c) for c in "abc"]
        BathSet.from_channels(chs)
        with pytest.raises(ChannelMismatch):
            BathSet.from_channels(chs[:2])
        with pytest.raises(ChannelMismatch):
            BathSet.from_channels([channel(id="a"), channel(id="a"), channel(id="b")])

    def test_shared_bath_requires_shared_temperature(self):
        chs = [
            channel(id="a"),
            channel(id="b", bath="bc", temperature=1.0),
            channel(id="c", bath="bc", temperature=2.0),
        ]
        with pytest.raises(ValueError, match="bath 'bc'"):
            BathSet.from_channels(chs)


@pytest.fixture(scope="module")
def spectrum():
    return derive_spectrum(CircuitParams(e_j=5.0, e_c=0.5, phi=math.pi / 2))


def pinned_channels(spectrum, q=100.0, lambda_res=1.0, lambda_off=1.0,
                    temps=(2.0, 1.5, 1.0)):
    freqs = {"a": spectrum.omega10, "b": spectrum.omega21, "c": spectrum.omega20}
    return [
        BathChannel(id=c, omega=freqs[c], q=q, lambda_res=lambda_res,
                    lambda_off=lambda_off, temperature=t)
        for c, t in zip("abc", temps)
    ]


class TestAssembly:
    def test_shape_and_sign_structure(self, spectrum):
        rm = assemble_rate_matrix(spectrum, pinned_channels(spectrum))
        for cid, g in rm.per_channel.items():
            assert g.shape == (3, 3)
            assert np.all(np.diag(g) == 0.0)
            assert np.all(g >= 0.0)
        assert np.allclose(
            rm.total, sum(rm.per_channel.values()), rtol=0.0, atol=0.0
        )

    def test_matrices_are_read_only(self, spectrum):
        rm = assemble_rate_matrix(spectrum, pinned_channels(spectrum))
        with pytest.raises(ValueError):
            rm.total[0, 1] = 5.0

    def test_perfect_filtering_sparsity(self, spectrum):
        rm = assemble_rate_matrix(
            spectrum, pinned_channels(spectrum, lambda_off=0.0)
        )
        for cid, g in rm.per_channel.items():
            nz = {tuple(idx) for idx in np.argwhere(g > 0.0)}
            (i, j) = RESONANT_PAIR[cid]
            assert nz == {(j, i), (i, j)}
        # the total keeps exactly the three-link cycle, up and down
        nz_total = {tuple(idx) for idx in np.argwhere(rm.total > 0.0)}
        assert nz_total == {(1, 0), (0, 1), (2, 1), (1, 2), (2, 0), (0, 2)}

    def test_equilibrium_satisfies_global_detailed_balance(self, spectrum):
        t = 1.7
        rm = assemble_rate_matrix(
            spectrum, pinned_channels(spectrum, temps=(t, t, t))
        )
        energies = spectrum.energies
        weights = [math.exp(-e / t) for e in energies]
        for i in range(3):
            for j in range(3):
                if i != j:
                    lhs = rm.total[j, i] * weights[i]
                    rhs = rm.total[i, j] * weights[j]
                    assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_offresonant_ratio_scales_inverse_q_squared(self, spectrum):
        qs = [1e3, 1e4, 1e5]
        ratios = []
        for q in qs:
            rm = assemble_rate_matrix(spectrum, pinned_channels(spectrum, q=q))
            g = rm.per_channel["a"]
            # off-resonant 1->2 versus resonant 0->1 excitation within channel a
            ratios.append(g[2, 1] / g[1, 0])
        slope = np.polyfit(np.log10(qs), np.log10(ratios), 1)[0]
        assert slope == pytest.approx(-2.0, abs=1e-3)

    def test_label_validation(self, spectrum):
        chs = pinned_channels(spectrum)
        with pytest.raises(ChannelMismatch):
            assemble_rate_matrix(spectrum, chs[:2])

    def test_assembly_deterministic(self, spectrum):
        chs = pinned_channels(spectrum)
        r1 = assemble_rate_matrix(spectrum, chs)
        r2 = assemble_rate_matrix(spectrum, chs)
        assert np.array_equal(r1.total, r2.total)
        for cid in "abc":
            assert np.array_equal(r1.per_channel[cid], r2.per_channel[cid])
