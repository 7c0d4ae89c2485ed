"""Spectrum derivation tests.

Expected values were computed with an independent high-precision evaluation
of the closed-form energy expressions (mpmath, 50 digits); the frozen
literals below are their nearest doubles. A few tests re-run that oracle
inline as a second guard.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from qutrit_heat import (
    CircuitParams,
    InvalidFlux,
    NonPositiveFrequency,
    QutritSpectrum,
    derive_spectrum,
    filter_width_advisories,
)

# mpmath oracle: omega0 = sqrt(8 * (3/2) e_j cos(phi/3) * e_c), levels shifted
# by -e_c (6n^2+6n+3)/16.
FLAT_FLUX = {
    "omega0": 5.477225575051661,
    "omega10": 5.102225575051661,
    "omega21": 4.727225575051661,
    "omega20": 9.829451150103322,
}
QUARTER_FLUX = {
    "omega0": 5.0971327345413675,
    "omega10": 4.7221327345413675,
    "omega21": 4.3471327345413675,
    "omega20": 9.069265469082735,
    "omega32": 3.9721327345413675,
}


def mp_spectrum(e_j, e_c, phi):
    mp.mp.dps = 50
    e_c = mp.mpf(e_c)
    ejt = mp.mpf(3) / 2 * mp.mpf(e_j) * mp.cos(mp.mpf(phi) / 3)
    omega0 = mp.sqrt(8 * ejt * e_c)
    return {
        "omega0": omega0,
        "omega10": omega0 - mp.mpf("0.75") * e_c,
        "omega21": omega0 - mp.mpf("1.5") * e_c,
        "omega20": 2 * omega0 - mp.mpf("2.25") * e_c,
        "omega32": omega0 - mp.mpf("2.25") * e_c,
    }


def test_spectrum_flat_flux_matches_oracle():
    s = derive_spectrum(CircuitParams(e_j=5.0, e_c=0.5, phi=0.0))
    assert s.omega0 == pytest.approx(FLAT_FLUX["omega0"], rel=1e-15)
    assert s.omega10 == pytest.approx(FLAT_FLUX["omega10"], rel=1e-15)
    assert s.omega21 == pytest.approx(FLAT_FLUX["omega21"], rel=1e-15)
    assert s.omega20 == pytest.approx(FLAT_FLUX["omega20"], rel=1e-15)
    oracle = mp_spectrum(5, "0.5", 0)
    for name, value in oracle.items():
        assert abs(getattr(s, name) - float(value)) <= 1e-14


def test_spectrum_quarter_flux_matches_oracle():
    s = derive_spectrum(CircuitParams(e_j=5.0, e_c=0.5, phi=math.pi / 2))
    for name, expected in QUARTER_FLUX.items():
        assert getattr(s, name) == pytest.approx(expected, rel=1e-14)
    oracle = mp_spectrum(5, "0.5", mp.pi / 2)
    for name, value in oracle.items():
        assert abs(getattr(s, name) - float(value)) <= 1e-13


def test_harmonic_limit_has_equal_spacings():
    s = derive_spectrum(CircuitParams(e_j=5.0, e_c=0.0, phi=0.0))
    assert s.omega10 == s.omega21 == s.omega32 == s.omega0


def test_additivity_exact_over_random_params():
    rng = np.random.default_rng(7)
    for _ in range(200):
        e_c = rng.uniform(0.1, 0.9)
        e_j = rng.uniform(5.0, 12.0) * e_c
        phi = rng.uniform(0.0, 3.5)
        s = derive_spectrum(CircuitParams(e_j=e_j, e_c=e_c, phi=phi))
        assert s.omega20 == s.omega10 + s.omega21
        assert s.omega10 > s.omega21 > s.omega32 > 0.0


def test_plasma_frequency_decreases_with_flux():
    # across the full flux domain via the closed form ...
    phis = np.linspace(1e-3, 3 * math.pi / 2 - 1e-3, 400)
    omegas = [math.sqrt(12.0 * 5.0 * 0.5 * math.cos(p / 3.0)) for p in phis]
    assert all(a > b for a, b in zip(omegas, omegas[1:]))
    # ... and through derive_spectrum where the full ladder stays positive
    phis = np.linspace(1e-3, 4.5, 200)
    omegas = [
        derive_spectrum(CircuitParams(e_j=5.0, e_c=0.5, phi=float(p))).omega0
        for p in phis
    ]
    assert all(a > b for a, b in zip(omegas, omegas[1:]))


def test_derivation_is_deterministic():
    p = CircuitParams(e_j=6.2, e_c=0.37, phi=1.1)
    assert derive_spectrum(p) == derive_spectrum(p)


def test_invalid_flux_rejected():
    with pytest.raises(InvalidFlux):
        CircuitParams(e_j=5.0, e_c=0.5, phi=3 * math.pi / 2 + 0.01)
    with pytest.raises(InvalidFlux):
        CircuitParams(e_j=5.0, e_c=0.5, phi=-3 * math.pi / 2 - 0.01)


def test_deep_anharmonic_spectrum_rejected():
    with pytest.warns(UserWarning):
        params = CircuitParams(e_j=0.3, e_c=1.0, phi=0.0)
    with pytest.raises(NonPositiveFrequency):
        derive_spectrum(params)


def test_parameter_validation():
    with pytest.raises(ValueError):
        CircuitParams(e_j=0.0, e_c=0.5)
    with pytest.raises(ValueError):
        CircuitParams(e_j=5.0, e_c=-0.1)
    with pytest.warns(UserWarning, match="e_j/e_c"):
        CircuitParams(e_j=2.0, e_c=0.5)


def test_spectrum_invariant_validation():
    with pytest.raises(ValueError):
        QutritSpectrum(omega0=1.0, omega10=1.0, omega21=0.9, omega20=2.0,
                       omega32=0.8)
    with pytest.raises(ValueError):
        QutritSpectrum(omega0=1.0, omega10=0.8, omega21=0.9, omega20=1.7,
                       omega32=0.7)


def test_filter_width_advisory_flags_low_q():
    s = derive_spectrum(CircuitParams(e_j=5.0, e_c=0.5, phi=math.pi / 2))
    notes = filter_width_advisories(s, {"b": (s.omega21, 10.0)})
    assert len(notes) == 1 and "channel b" in notes[0]
    assert filter_width_advisories(s, {"b": (s.omega21, 100.0)}) == []
