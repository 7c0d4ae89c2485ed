"""Stationary-solve tests: Gibbs limit, adjugate oracle, closed-form amplitude."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qutrit_heat import (
    CircuitParams,
    RateMatrix,
    ReducibleChain,
    SystemConfig,
    assemble_rate_matrix,
    ideal_current_amplitude,
    solve_steady,
)
from qutrit_heat.rates import bose_factors
from qutrit_heat.steady import solve_scenarios

CIRCUIT = CircuitParams(e_j=5.0, e_c=0.5, phi=math.pi / 2)
SPECTRUM = SystemConfig(circuit=CIRCUIT).spectrum


def random_rate_matrix(rng, low_exp=-2.0, high_exp=1.0) -> RateMatrix:
    """Random strictly positive rates, log-uniform over the given decades."""
    g = 10.0 ** rng.uniform(low_exp, high_exp, size=(3, 3))
    np.fill_diagonal(g, 0.0)
    return RateMatrix(per_channel={"a": g}, total=g)


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


def pinned_channels(temps, q=100.0, lambda_res=1.0, lambda_off=1.0):
    """Kernel inputs of resonators pinned to the transitions of SPECTRUM."""
    freqs = (SPECTRUM.omega10, SPECTRUM.omega21, SPECTRUM.omega20)
    cfg = SystemConfig(circuit=CIRCUIT, q=q, lambda_res=lambda_res, lambda_off=lambda_off,
                       resonators=tuple(zip("abc", freqs)))
    return cfg.channels(dict(zip("abc", temps)))


def symmetric_ideal_rates(omegas, temps, kappa=1.0) -> RateMatrix:
    """Perfectly filtered cycle with equal coupling kappa on every link."""
    per = {}
    for cid, (i, j), w, t in zip("abc", ((0, 1), (1, 2), (0, 2)), omegas, temps):
        g = np.zeros((3, 3))
        n = float(bose_factors(np.float64(w), t))
        g[j, i] = kappa * n
        g[i, j] = kappa * (1.0 + n)
        per[cid] = g
    return RateMatrix(per_channel=per, total=sum(per.values()))


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
            rm = assemble_rate_matrix(
                SPECTRUM, pinned_channels((t, t, t), q=q, lambda_off=lam_off)
            )
            p = solve_steady(rm).p
            w = np.exp(-np.array(SPECTRUM.energies) / t)
            w /= w.sum()
            assert np.abs(p - w).max() <= 1e-10

    def test_matches_adjugate_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            rm = random_rate_matrix(rng)
            p = solve_steady(rm).p
            q = adjugate_null_vector(rm.total)
            assert np.abs(p - q).max() <= 1e-12

    def test_invariant_under_rate_rescaling(self):
        rng = np.random.default_rng(5)
        rm = random_rate_matrix(rng)
        p1 = solve_steady(rm).p
        for c in (2.0, 7.3, 1e-6, 1e6):
            scaled = RateMatrix(per_channel={"a": c * rm.total}, total=c * rm.total)
            p2 = solve_steady(scaled).p
            assert np.abs(p1 - p2).max() <= 1e-13

    def test_properties_of_solution(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            st = solve_steady(random_rate_matrix(rng))
            assert abs(float(st.p.sum()) - 1.0) <= 1e-12
            assert np.all(st.p >= 0.0) and np.all(st.p <= 1.0)
            assert st.residual <= 1e-10

    def test_reducible_chain_rejected(self):
        # all-zero rates
        z = np.zeros((3, 3))
        with pytest.raises(ReducibleChain):
            solve_steady(RateMatrix(per_channel={"a": z}, total=z))
        # zero temperature everywhere: no excitations, ground state absorbs
        rm = assemble_rate_matrix(SPECTRUM, pinned_channels((0.0, 0.0, 0.0)))
        with pytest.raises(ReducibleChain):
            solve_steady(rm)
        # one state disconnected
        g = np.zeros((3, 3))
        g[1, 0] = g[0, 1] = 1.0
        with pytest.raises(ReducibleChain):
            solve_steady(RateMatrix(per_channel={"a": g}, total=g))

    def test_tight_coupling_flux_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            temps = rng.uniform(0.5, 3.0, size=3)
            rm = assemble_rate_matrix(
                SPECTRUM, pinned_channels(temps, lambda_off=0.0)
            )
            p = solve_steady(rm).p
            t = rm.total
            f01 = t[1, 0] * p[0] - t[0, 1] * p[1]
            f12 = t[2, 1] * p[1] - t[1, 2] * p[2]
            f20 = t[0, 2] * p[2] - t[2, 0] * p[0]
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
        rm = symmetric_ideal_rates(omegas, temps)
        p = solve_steady(rm).p
        g = rm.per_channel["a"]
        flux = g[1, 0] * p[0] - g[0, 1] * p[1]
        a = ideal_current_amplitude(*(w / t for w, t in zip(omegas, temps)))
        assert flux != 0.0 and (flux > 0.0) == (a > 0.0)

    def test_rejects_nonpositive_thetas(self):
        with pytest.raises(ValueError):
            ideal_current_amplitude(-1.0, 2.0, 3.0)
        with pytest.raises(ValueError):
            ideal_current_amplitude(1.0, 0.0, 3.0)
