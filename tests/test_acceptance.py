"""Acceptance suite: one test per criterion, one printed line per criterion.

Each test pins the tolerances stated in the project contract and prints a
PASS/FAIL line so the whole gate can be read off the log. Criterion 6 is
expected to fail: at base temperature 0.5 this model produces no temperature
window where the two diode currents take opposite signs (scans up to
k_B T_H = 60 and quality factors 20..150 find none; the same mechanism does
produce the window at base temperature 0.9). It is kept faithful to the
stated operating point rather than tuned until green; the companion test
that follows it demonstrates the working phenomenology.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.optimize import brentq

from qutrit_heat import (
    CircuitParams,
    SystemConfig,
    UndefinedCoefficient,
    circulation,
    derive_spectrum,
    gillespie_estimate,
    preset,
    rectification_3t,
    run_sweep,
    solve_temperatures,
    write_csv,
)
from qutrit_heat.rates import thermal_rates
from qutrit_heat.steady import stationary

QUARTER_FLUX = CircuitParams(e_j=5.0, e_c=0.5, phi=math.pi / 2)
SPECTRUM = derive_spectrum(QUARTER_FLUX)


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def config(**kw) -> SystemConfig:
    base = dict(circuit=QUARTER_FLUX, q=100.0, lambda_res=1.0, lambda_off=1.0)
    base.update(kw)
    return SystemConfig(**base)


def random_config(rng) -> SystemConfig:
    e_c = rng.uniform(0.2, 0.8)
    e_j = e_c * rng.uniform(5.0, 12.0)
    phi = rng.uniform(0.0, 3.5)
    merged = ("b", "c") if rng.random() < 0.2 else None
    circuit = CircuitParams(e_j=e_j, e_c=e_c, phi=phi)
    spec = derive_spectrum(circuit)
    resonators = ()
    if rng.random() < 0.5:
        # mildly detuned resonators still satisfy every invariant below
        resonators = tuple(
            (cid, w * rng.uniform(0.95, 1.05))
            for cid, w in zip("abc", (spec.omega10, spec.omega21, spec.omega20))
        )
    return SystemConfig(
        circuit=circuit,
        q=float(10.0 ** rng.uniform(1.5, 3.0)),
        lambda_res=rng.uniform(0.2, 2.0),
        lambda_off=rng.uniform(0.0, 2.0),
        merged=merged,
        resonators=resonators,
    )


def transporting_point(rng, cfg: SystemConfig):
    """Random bath temperatures at which the device genuinely transports.

    Draws temperatures on the scale of the level spacings and redraws while
    the currents sit more than three orders of magnitude below the gross
    one-way flows. Near the (leakage-shifted) collective stall surface all
    currents vanish together while the one-way flows stay finite, so a bound
    stated relative to max|J| drops below double-precision resolution there;
    conservation itself is exercised by every accepted draw.
    """
    spec = cfg.spectrum
    while True:
        temps = {
            b: rng.uniform(0.25, 0.85) * spec.omega21 for b in cfg.bath_ids()
        }
        vals = sorted(temps.values())
        if not all(b - a >= 0.05 * b for a, b in zip(vals, vals[1:])):
            continue
        _, cur = solve_temperatures(cfg, temps)
        jmax = max(abs(j) for j in cur.by_channel().values())
        if jmax >= 1e-3 * cur.scale:
            return cur, jmax


def scenario_bath_currents(cfg, base, hot_bath, hot):
    temps = {b: base for b in cfg.bath_ids()}
    temps[hot_bath] = hot
    _, cur = solve_temperatures(cfg, temps)
    return cur


def test_01_equilibrium_matches_gibbs():
    with criterion("01 equilibrium Gibbs weights and zero currents"):
        rng = np.random.default_rng(101)
        for _ in range(100):
            cfg = random_config(rng)
            t = rng.uniform(0.5, 3.0)
            temps = {b: t for b in cfg.bath_ids()}
            steady, cur = solve_temperatures(cfg, temps)
            energies = np.array(cfg.spectrum.energies)
            gibbs = np.exp(-energies / t)
            gibbs /= gibbs.sum()
            assert np.abs(steady.p - gibbs).max() <= 1e-10
            for j in cur.by_channel().values():
                assert abs(j) <= 1e-12 * cur.scale


def test_02_energy_conservation():
    with criterion("02 energy conservation over random nonequilibrium configs"):
        rng = np.random.default_rng(202)
        for _ in range(10_000):
            cfg = random_config(rng)
            cur, jmax = transporting_point(rng, cfg)
            assert abs(cur.total) <= 1e-12 * jmax


def test_03_local_detailed_balance_of_assembled_rates():
    with criterion("03 local detailed balance of all rate pairs"):
        rng = np.random.default_rng(303)
        transitions = ("omega10", "omega21", "omega20")
        for _ in range(200):
            cfg = random_config(rng)
            temps = {b: rng.uniform(0.3, 5.0) for b in cfg.bath_ids()}
            ups, downs = thermal_rates(*cfg.channels(temps))
            checked = 0
            for c, cid in enumerate("abc"):
                t_l = temps[cfg.bath_of(cid)]
                for t, name in enumerate(transitions):
                    up, down = ups[0, c, t], downs[0, c, t]
                    if up == 0.0:
                        continue
                    expected = up * math.exp(getattr(cfg.spectrum, name) / t_l)
                    assert abs(down - expected) <= 1e-12 * down
                    checked += 1
            assert checked == 9  # 18 rates tied pairwise


def test_04_tight_coupling_and_cyclic_identity():
    with criterion("04 ideal-filter tight coupling and cyclic identity"):
        rng = np.random.default_rng(404)
        cfg = config(lambda_off=0.0)
        w = (SPECTRUM.omega10, SPECTRUM.omega21, SPECTRUM.omega20)
        done = 0
        while done < 50:
            temps = {b: rng.uniform(0.4, 3.0) for b in "abc"}
            thetas = (w[0] / temps["a"], w[1] / temps["b"], w[2] / temps["c"])
            if abs(thetas[2] - thetas[0] - thetas[1]) < 0.05:
                continue
            _, cur = solve_temperatures(cfg, temps)
            a = cur.j_a / w[0]
            assert abs(cur.j_b / w[1] - a) <= 1e-10 * abs(a)
            assert abs(cur.j_c / w[2] + a) <= 1e-10 * abs(a)
            done += 1
        for _ in range(25):
            base = rng.uniform(0.4, 2.5)
            hot = base * rng.choice([rng.uniform(1.15, 3.0), rng.uniform(0.35, 0.87)])
            j = {m: scenario_bath_currents(cfg, base, m, hot).by_channel()
                 for m in "abc"}
            j_cw = j["b"]["a"] * j["c"]["b"] * j["a"]["c"]
            j_ccw = j["c"]["a"] * j["b"]["c"] * j["a"]["b"]
            assert abs(j_cw - j_ccw) <= 1e-10 * max(abs(j_cw), abs(j_ccw))


def test_05_stall_condition():
    with criterion("05 stall temperature kills all ideal-filter currents"):
        ta, tb = 2.0, 1.5
        tc = SPECTRUM.omega20 / (SPECTRUM.omega10 / ta + SPECTRUM.omega21 / tb)
        assert tc == pytest.approx(1.7245, abs=5e-5)
        cfg = config(lambda_off=0.0)
        _, cur = solve_temperatures(cfg, {"a": ta, "b": tb, "c": tc})
        for j in cur.by_channel().values():
            assert abs(j) <= 1e-10 * cur.scale


def diode_window(base: float, th_grid: np.ndarray, cfg: SystemConfig):
    """Forward/backward diode currents over a hot-temperature grid."""
    j_ab = np.array(
        [scenario_bath_currents(cfg, base, "b", th).j_a for th in th_grid]
    )
    j_ba = np.array(
        [scenario_bath_currents(cfg, base, "a", th).j_b for th in th_grid]
    )
    return j_ab, j_ba


def assert_diode_window(base: float, th_lo: float, th_hi: float, points: int):
    cfg = config()
    grid = np.linspace(th_lo, th_hi, points + 1)[1:]
    step = grid[1] - grid[0]
    j_ab, j_ba = diode_window(base, grid, cfg)
    inside = (j_ab < 0.0) & (j_ba > 0.0)
    assert inside.any(), (
        f"no simultaneous J_ab<0, J_ba>0 window for base temperature {base} "
        f"with T_H in ({th_lo}, {th_hi}]"
    )
    idx = np.where(inside)[0]
    assert np.all(np.diff(idx) == 1), "window is not contiguous"
    mid = float(grid[idx[len(idx) // 2]])
    assert rectification_3t(cfg, "a", "b", base=base, hot=mid) == 1.0
    # each window edge inside the scan must agree with a root of the current
    # that changes sign there, to grid resolution
    def root_near(values, k):
        f_ab = lambda th: scenario_bath_currents(cfg, base, "b", th).j_a
        f_ba = lambda th: scenario_bath_currents(cfg, base, "a", th).j_b
        fun = f_ab if values is j_ab else f_ba
        return brentq(fun, grid[k], grid[k + 1], xtol=1e-12)

    lo = idx[0]
    if lo > 0:
        flipped = j_ab if j_ab[lo - 1] * j_ab[lo] < 0 else j_ba
        root = root_near(flipped, lo - 1)
        assert abs(root - grid[lo]) <= step
    hi = idx[-1]
    if hi < len(grid) - 1:
        flipped = j_ab if j_ab[hi] * j_ab[hi + 1] < 0 else j_ba
        root = root_near(flipped, hi)
        assert abs(root - grid[hi]) <= step


def test_06_perfect_diode_window_at_stated_point():
    # Known failure: the stated base temperature has no such window in this
    # model (see the module docstring); kept faithful rather than retuned.
    with criterion("06 perfect diode window at base temperature 0.5"):
        assert_diode_window(base=0.5, th_lo=0.5, th_hi=4.0, points=500)


def test_06b_perfect_diode_window_phenomenology():
    with criterion("06b perfect diode window at base temperature 0.9"):
        assert_diode_window(base=0.9, th_lo=0.9, th_hi=8.0, points=500)


def test_07_current_reversal_window():
    with criterion("07 distinct current reversals between cooling and pumping"):
        cfg = config()

        def j_a(ta):
            _, cur = solve_temperatures(cfg, {"a": ta, "b": 1.5, "c": 2.0})
            return cur.j_a

        def j_b(ta):
            _, cur = solve_temperatures(cfg, {"a": ta, "b": 1.5, "c": 2.0})
            return cur.j_b

        root_a = brentq(j_a, 2.0, 4.0, xtol=1e-12)
        root_b = brentq(j_b, 2.0, 4.0, xtol=1e-12)
        assert abs(root_a - root_b) > 0.05
        mid = 0.5 * (root_a + root_b)
        assert j_a(mid) * j_b(mid) < 0.0


def test_08_circulator():
    with criterion("08 circulation: ideal zero, perfect window, flux reversal"):
        rng = np.random.default_rng(808)
        ideal = config(lambda_off=0.0)
        for _ in range(100):
            base = rng.uniform(0.4, 2.0)
            hot = base * rng.choice([rng.uniform(1.15, 3.0), rng.uniform(0.4, 0.85)])
            assert abs(circulation(ideal, base, hot)) <= 1e-10

        cfg = config()
        base = 0.9
        grid = np.linspace(base, 4.0, 312)[1:]
        c_vals, j_cw_vals, j_ccw_vals = [], [], []
        for th in grid:
            j = {m: scenario_bath_currents(cfg, base, m, float(th)).by_channel()
                 for m in "abc"}
            j_cw = j["b"]["a"] * j["c"]["b"] * j["a"]["c"]
            j_ccw = j["c"]["a"] * j["b"]["c"] * j["a"]["b"]
            j_cw_vals.append(j_cw)
            j_ccw_vals.append(j_ccw)
            try:
                c_vals.append(circulation(cfg, base, float(th)))
            except UndefinedCoefficient:
                c_vals.append(math.nan)
        c_vals = np.array(c_vals)
        assert np.any(c_vals == 1.0), "no perfect counterclockwise circulation"
        sign_flips = (np.diff(np.sign(j_cw_vals)) != 0).any() or (
            np.diff(np.sign(j_ccw_vals)) != 0
        ).any()
        assert sign_flips, "no transition where a cycle product vanishes"

        th_star = float(grid[np.argmax(c_vals == 1.0)])
        flux_grid = np.linspace(0.05, 4.5, 301)
        c_flux = []
        for phi in flux_grid:
            cfg_phi = config(circuit=CircuitParams(e_j=5.0, e_c=0.5, phi=float(phi)))
            try:
                c_flux.append(circulation(cfg_phi, base, th_star))
            except UndefinedCoefficient:
                continue
        c_flux = np.array(c_flux)
        assert (c_flux > 0.5).any() and (c_flux < -0.5).any(), "no flux reversal"


def test_09_off_resonant_leakage_scales_inverse_q_squared():
    with criterion("09 off-resonant/resonant rate ratio scales as 1/Q^2"):
        def ratio(q):
            cfg = config(q=q)
            up, _ = thermal_rates(*cfg.channels({"a": 2.0, "b": 2.0, "c": 2.0}))
            # channel a: off-resonant 1->2 over resonant 0->1 excitation
            return up[0, 0, 1] / up[0, 0, 0]

        factor = ratio(1e3) / ratio(2e3)
        assert abs(factor - 4.0) <= 0.01 * 4.0


def test_10_stochastic_oracle_agreement():
    with criterion("10 jump-process estimates match the solver within 3 sigma"):
        cfg = config()

        def estimates(temps, seed):
            steady, cur = solve_temperatures(cfg, temps)
            est = gillespie_estimate(*cfg.channels(temps), n_jumps=10**6, seed=seed)
            exact = list(steady.p) + [cur.j_a, cur.j_b, cur.j_c]
            approx = list(est.p_hat) + list(est.j_hat)
            sigma = list(est.sigma_p) + list(est.sigma_j)
            return est, exact, approx, sigma

        fig3c_point = {"a": 3.0, "b": 1.5, "c": 2.0}
        est1, exact, approx, sigma = estimates(fig3c_point, seed=11)
        for x, m, s in zip(exact, approx, sigma):
            assert abs(m - x) <= 3.0 * s
        est2, _, approx2, sigma2 = estimates(fig3c_point, seed=12)
        for m1, m2, s1, s2 in zip(approx, approx2, sigma, sigma2):
            assert abs(m1 - m2) <= 3.0 * math.hypot(s1, s2)
        _, exact, approx, sigma = estimates({"a": 2.0, "b": 2.0, "c": 2.0}, seed=7)
        for x, m, s in zip(exact, approx, sigma):
            assert abs(m - x) <= 3.0 * s


def test_11_adjugate_solver_equivalence():
    with criterion("11 linear solve matches adjugate null-space computation"):
        rng = np.random.default_rng(1111)
        for _ in range(10_000):
            g = 10.0 ** rng.uniform(-2.0, 1.0, size=(3, 3))
            np.fill_diagonal(g, 0.0)
            # k_ij = g[j, i], the rate i -> j
            p = stationary(*(np.array([k]) for k in (
                g[1, 0], g[0, 1], g[2, 1], g[1, 2], g[2, 0], g[0, 2])))[0][0]
            m = g.copy()
            np.fill_diagonal(m, -g.sum(axis=0))
            cof = np.empty((3, 3))
            for i in range(3):
                for j in range(3):
                    sub = np.delete(np.delete(m, i, axis=0), j, axis=1)
                    cof[i, j] = (-1) ** (i + j) * (
                        sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]
                    )
            adj = cof.T
            col = adj[:, np.argmax(np.abs(adj).sum(axis=0))]
            q = col / col.sum()
            assert np.abs(p - q).max() <= 1e-10


def test_12_preset_sweep_determinism(tmp_path):
    with criterion("12 preset sweep reruns and parallel runs byte-identical"):
        spec = preset("fig5")
        first = run_sweep(spec, workers=1)
        second = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        paths = [tmp_path / name for name in ("r1.csv", "r2.csv", "rp.csv")]
        for res, path in zip((first, second, parallel), paths):
            write_csv(res, path)
        b1, b2, bp = (p.read_bytes() for p in paths)
        assert b1 == b2
        assert b1 == bp
        assert len(first.rows) == 201 * 201
        # the map itself contains the exact perfect-diode cells
        r_ab = first.columns.index("R_ab")
        assert any(row[r_ab] == 1.0 for row in first.rows)