"""Jump-process estimator tests: determinism, equilibrium, solver agreement."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qutrit_heat import (
    CircuitParams,
    ReducibleChain,
    SystemConfig,
    assemble_rate_matrix,
    gillespie_estimate,
    solve_temperatures,
)

CIRCUIT = CircuitParams(e_j=5.0, e_c=0.5, phi=math.pi / 2)
SPECTRUM = SystemConfig(circuit=CIRCUIT).spectrum


def pinned_config(q=100.0) -> SystemConfig:
    """Resonators pinned to the transitions of SPECTRUM."""
    freqs = (SPECTRUM.omega10, SPECTRUM.omega21, SPECTRUM.omega20)
    return SystemConfig(circuit=CIRCUIT, q=q, resonators=tuple(zip("abc", freqs)))


def pinned_channels(temps, q=100.0):
    return pinned_config(q).channels(dict(zip("abc", temps)))


def z_max(est, p_exact, j_exact) -> float:
    zs = []
    for m, s, x in zip(
        list(est.p_hat) + list(est.j_hat),
        list(est.sigma_p) + list(est.sigma_j),
        list(p_exact) + list(j_exact),
    ):
        diff = m - x
        zs.append(0.0 if diff == 0.0 else abs(diff) / s if s > 0 else math.inf)
    return max(zs)


@pytest.fixture(scope="module")
def equilibrium_rates():
    return assemble_rate_matrix(SPECTRUM, pinned_channels((2.0, 2.0, 2.0)))


def test_deterministic_given_seed(equilibrium_rates):
    e1 = gillespie_estimate(equilibrium_rates, SPECTRUM, n_jumps=20_000, seed=42)
    e2 = gillespie_estimate(equilibrium_rates, SPECTRUM, n_jumps=20_000, seed=42)
    assert np.array_equal(e1.p_hat, e2.p_hat)
    assert np.array_equal(e1.j_hat, e2.j_hat)
    assert np.array_equal(e1.sigma_p, e2.sigma_p)


def test_equilibrium_agrees_with_gibbs(equilibrium_rates):
    est = gillespie_estimate(equilibrium_rates, SPECTRUM, n_jumps=200_000, seed=7)
    _, j = solve_temperatures(pinned_config(), dict.fromkeys("abc", 2.0))
    gibbs = np.exp(-np.array(SPECTRUM.energies) / 2.0)
    gibbs /= gibbs.sum()
    assert z_max(est, gibbs, (j.j_a, j.j_b, j.j_c)) <= 3.0
    assert abs(float(est.p_hat.sum()) - 1.0) <= 1e-9
    assert np.all(est.sigma_p > 0.0) and np.all(est.sigma_j > 0.0)


def test_two_seeds_compatible(equilibrium_rates):
    e1 = gillespie_estimate(equilibrium_rates, SPECTRUM, n_jumps=100_000, seed=1)
    e2 = gillespie_estimate(equilibrium_rates, SPECTRUM, n_jumps=100_000, seed=2)
    assert not np.array_equal(e1.p_hat, e2.p_hat)
    combined = np.sqrt(e1.sigma_p**2 + e2.sigma_p**2)
    assert np.all(np.abs(e1.p_hat - e2.p_hat) <= 3.0 * combined)


def test_nonequilibrium_agrees_with_solver():
    rm = assemble_rate_matrix(SPECTRUM, pinned_channels((3.0, 1.5, 2.0)))
    st, j = solve_temperatures(pinned_config(), {"a": 3.0, "b": 1.5, "c": 2.0})
    est = gillespie_estimate(rm, SPECTRUM, n_jumps=300_000, seed=12)
    assert z_max(est, st.p, (j.j_a, j.j_b, j.j_c)) <= 3.0


def test_minimum_jump_count_enforced():
    rm = assemble_rate_matrix(SPECTRUM, pinned_channels((2.0, 2.0, 2.0)))
    with pytest.raises(ValueError, match="10000"):
        gillespie_estimate(rm, SPECTRUM, n_jumps=10, seed=0)


def test_reducible_chain_rejected():
    rm = assemble_rate_matrix(SPECTRUM, pinned_channels((0.0, 0.0, 0.0)))
    with pytest.raises(ReducibleChain):
        gillespie_estimate(rm, SPECTRUM, n_jumps=20_000, seed=0)
