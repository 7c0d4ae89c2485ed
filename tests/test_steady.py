"""Stationary-solve tests: Gibbs limit, adjugate oracle, closed-form amplitude."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qutrit_heat import (
    CircuitParams,
    ReducibleChain,
    SteadyState,
    SystemConfig,
    gillespie_estimate,
    ideal_current_amplitude,
    solve_temperatures,
)
from qutrit_heat.rates import thermal_rates
from qutrit_heat.steady import edge_rates, solve_scenarios, stationary

CIRCUIT = CircuitParams(e_j=5.0, e_c=0.5, phi=math.pi / 2)
SPECTRUM = SystemConfig(circuit=CIRCUIT).spectrum


def random_rates(rng, low_exp=-2.0, high_exp=1.0) -> np.ndarray:
    """Random strictly positive rates [j, i] of the jumps i -> j, log-uniform
    over the given decades; the diagonal is zero."""
    g = 10.0 ** rng.uniform(low_exp, high_exp, size=(3, 3))
    np.fill_diagonal(g, 0.0)
    return g


def stationary_of(g: np.ndarray):
    """(p, residual, connected) of the one chain with rates g[j, i] of i -> j."""
    p, residual, connected, _ = stationary(
        *(np.array([k]) for k in (g[1, 0], g[0, 1], g[2, 1], g[1, 2], g[2, 0], g[0, 2])))
    return p[0], float(residual[0]), bool(connected[0])


def adjugate_null_vector(total: np.ndarray) -> np.ndarray:
    """Independent stationary vector via the 3x3 adjugate of the generator.

    The generator has rank 2 for an irreducible chain, so the columns of its
    adjugate all span the null space; cofactors are evaluated directly from
    2x2 determinants.
    """
    m = np.array(total, dtype=float)
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, -m.sum(axis=0))
    cof = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            sub = np.delete(np.delete(m, i, axis=0), j, axis=1)
            cof[i, j] = (-1) ** (i + j) * (sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0])
    adj = cof.T
    col = adj[:, np.argmax(np.abs(adj).sum(axis=0))]
    return col / col.sum()


def pinned_config(q=100.0, lambda_res=1.0, lambda_off=1.0) -> SystemConfig:
    """Resonators pinned to the transitions of SPECTRUM."""
    freqs = (SPECTRUM.omega10, SPECTRUM.omega21, SPECTRUM.omega20)
    return SystemConfig(circuit=CIRCUIT, q=q, lambda_res=lambda_res, lambda_off=lambda_off,
                        resonators=tuple(zip("abc", freqs)))


def ideal_cycle_currents(omegas, temps, kappa=1.0):
    """(j_a, j_b, j_c) of the same cycle: the kernel at kappa * eye(3) prefactors."""
    j = solve_scenarios(np.array([omegas]), kappa * np.eye(3)[None], np.array([temps]))[3]
    return j[0].tolist()


class TestSolveSteady:
    def test_gibbs_at_equilibrium(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            t = rng.uniform(0.5, 3.0)
            q = rng.uniform(20.0, 2000.0)
            lam_off = rng.uniform(0.0, 2.0)
            cfg = pinned_config(q=q, lambda_off=lam_off)
            p = solve_temperatures(cfg, dict.fromkeys("abc", t))[0].p
            w = np.exp(-np.array(SPECTRUM.energies) / t)
            w /= w.sum()
            assert np.abs(p - w).max() <= 1e-10

    def test_matches_adjugate_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            g = random_rates(rng)
            p = stationary_of(g)[0]
            q = adjugate_null_vector(g)
            assert np.abs(p - q).max() <= 1e-12

    def test_invariant_under_rate_rescaling(self):
        rng = np.random.default_rng(5)
        g = random_rates(rng)
        p1 = stationary_of(g)[0]
        for c in (2.0, 7.3, 1e-6, 1e6):
            p2 = stationary_of(c * g)[0]
            assert np.abs(p1 - p2).max() <= 1e-13

    def test_properties_of_solution(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p, residual, connected = stationary_of(random_rates(rng))
            assert connected
            assert abs(float(p.sum()) - 1.0) <= 1e-12
            assert np.all(p >= 0.0) and np.all(p <= 1.0)
            assert residual <= 1e-10

    @pytest.mark.parametrize("p, message", [
        ([0.5, 0.5], "shape"),
        ([0.5, 0.5, 0.5], "sum to 1"),
        ([1.5, -0.5, 0.0], r"lie in \[0, 1\]"),
    ])
    def test_steady_state_rejects_invalid_populations(self, p, message):
        with pytest.raises(ValueError, match=message):
            SteadyState(p=np.array(p), residual=0.0)

    def test_reducible_chain_rejected(self):
        # all-zero rates
        assert not stationary_of(np.zeros((3, 3)))[2]
        # zero temperature everywhere: no excitations, ground state absorbs
        cfg, temps = pinned_config(), dict.fromkeys("abc", 0.0)
        assert not stationary(*edge_rates(*thermal_rates(*cfg.channels(temps))))[2][0]
        with pytest.raises(ReducibleChain):
            solve_temperatures(cfg, temps)
        with pytest.raises(ReducibleChain):
            gillespie_estimate(*cfg.channels(temps), n_jumps=20_000, seed=0)
        # one state disconnected
        g = np.zeros((3, 3))
        g[1, 0] = g[0, 1] = 1.0
        assert not stationary_of(g)[2]

    def test_tight_coupling_flux_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            temps = dict(zip("abc", rng.uniform(0.5, 3.0, size=3)))
            cfg = pinned_config(lambda_off=0.0)
            p = solve_temperatures(cfg, temps)[0].p
            k01, k10, k12, k21, k02, k20 = (
                float(k[0]) for k in edge_rates(*thermal_rates(*cfg.channels(temps))))
            f01 = k01 * p[0] - k10 * p[1]
            f12 = k12 * p[1] - k21 * p[2]
            f20 = k20 * p[2] - k02 * p[0]
            scale = max(abs(f01), abs(f12), abs(f20))
            assert abs(f01 - f12) <= 1e-12 * max(scale, 1e-300)
            assert abs(f12 - f20) <= 1e-12 * max(scale, 1e-300)


class TestIdealAmplitude:
    def test_stall_zero_is_exact(self):
        for ta, tb in ((2.36, 2.9), (0.7, 1.3), (5.0, 0.2)):
            assert ideal_current_amplitude(ta, tb, ta + tb) == 0.0

    def test_equilibrium_is_zero(self):
        t = 1.7
        th_a = SPECTRUM.omega10 / t
        th_b = SPECTRUM.omega21 / t
        th_c = SPECTRUM.omega20 / t
        a = ideal_current_amplitude(th_a, th_b, th_c)
        assert abs(a) <= 1e-16

    def test_matches_linear_solve_over_grid(self):
        omegas = (1.0, 0.8, 1.8)
        for ta in (0.4, 0.9, 1.7, 3.0):
            for tb in (0.5, 1.1, 2.4):
                for tc in (0.3, 0.8, 2.0):
                    thetas = tuple(w / t for w, t in zip(omegas, (ta, tb, tc)))
                    if abs(thetas[2] - thetas[0] - thetas[1]) < 0.05:
                        continue
                    j_a, j_b, j_c = ideal_cycle_currents(omegas, (ta, tb, tc), kappa=0.7)
                    a = ideal_current_amplitude(*thetas, kappa=0.7)
                    assert omegas[0] * a == pytest.approx(j_a, rel=1e-9)
                    assert omegas[1] * a == pytest.approx(j_b, rel=1e-9)
                    assert -omegas[2] * a == pytest.approx(j_c, rel=1e-9)

    def test_spec_point_against_solver(self):
        # thetas for (T_a, T_b, T_c) = (2, 1.5, 2) at the quarter-flux spectrum
        omegas = (SPECTRUM.omega10, SPECTRUM.omega21, SPECTRUM.omega20)
        temps = (2.0, 1.5, 2.0)
        thetas = tuple(w / t for w, t in zip(omegas, temps))
        j_a = ideal_cycle_currents(omegas, temps)[0]
        a = ideal_current_amplitude(*thetas)
        assert a != 0.0
        assert omegas[0] * a == pytest.approx(j_a, rel=1e-9)

    def test_sign_agrees_with_solve_steady_at_reference_point(self):
        # the closed form carries no sign calibration: its sign is that of
        # the net cycle flux of the linear solve
        omegas, temps = (1.0, 0.8, 1.8), (1.0, 0.9, 0.5)
        # the perfectly filtered cycle with equal coupling 1 on every link
        up, down = thermal_rates(np.array([omegas]), np.eye(3)[None], np.array([temps]))
        p = stationary(*edge_rates(up, down))[0][0]
        flux = up[0, 0, 0] * p[0] - down[0, 0, 0] * p[1]
        a = ideal_current_amplitude(*(w / t for w, t in zip(omegas, temps)))
        assert flux != 0.0 and (flux > 0.0) == (a > 0.0)

    def test_rejects_nonpositive_thetas(self):
        with pytest.raises(ValueError):
            ideal_current_amplitude(-1.0, 2.0, 3.0)
        with pytest.raises(ValueError):
            ideal_current_amplitude(1.0, 0.0, 3.0)
