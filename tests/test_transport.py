"""Heat-current and metric tests: conservation, diode, circulator, regimes."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutrit_heat import (
    AmbiguousExtremum,
    CircuitParams,
    SystemConfig,
    TemperatureScenario,
    UndefinedCoefficient,
    circulation,
    classify_regime,
    rectification_2t,
    rectification_3t,
    solve_temperatures,
)
from qutrit_heat.transport import bath_currents, metric_scenarios, metric_values, regimes

QUARTER_FLUX = CircuitParams(e_j=5.0, e_c=0.5, phi=math.pi / 2)


def config(**kw) -> SystemConfig:
    base = dict(circuit=QUARTER_FLUX, q=100.0, lambda_res=1.0, lambda_off=1.0)
    base.update(kw)
    return SystemConfig(**base)


def value(name, *currents, scale=1.0):
    """metric_values at one point whose k-th scenario has channel currents
    currents[k] and gross scale `scale`; raises UndefinedCoefficient at 0/0."""
    v, undefined = metric_values(name, [(np.array([j]), np.array([scale])) for j in currents])
    if undefined[0]:
        raise UndefinedCoefficient(name)
    return float(v[0])


def scenario(hot=(), base=1.0, hot_temperature=1.0, overrides=()):
    return TemperatureScenario(
        hot=frozenset(hot), base=base, hot_temperature=hot_temperature,
        overrides=overrides,
    )


def probe_current(cfg: SystemConfig, scen: TemperatureScenario, probe: str) -> float:
    """Bath `probe`'s current under `scen`."""
    _, cur = solve_temperatures(cfg, scen.temperatures(cfg.bath_ids()))
    return bath_currents(cfg, cur)[probe]


class TestHeatCurrents:
    def test_equilibrium_currents_vanish(self):
        cfg = config()
        _, cur = solve_temperatures(cfg, {"a": 1.3, "b": 1.3, "c": 1.3})
        for j in cur.by_channel().values():
            assert abs(j) <= 1e-12 * cur.scale

    def test_conservation_out_of_equilibrium(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            lam_off = rng.uniform(0.0, 2.0)
            q = rng.uniform(30.0, 3000.0)
            temps = {c: rng.uniform(0.5, 3.5) for c in "abc"}
            cfg = config(q=q, lambda_off=lam_off)
            _, cur = solve_temperatures(cfg, temps)
            jmax = max(abs(j) for j in cur.by_channel().values())
            assert abs(cur.total) <= 1e-12 * max(jmax, 1e-300)

    def test_stall_condition_kills_all_currents(self):
        spec = config().spectrum
        ta, tb = 2.0, 1.5
        tc = spec.omega20 / (spec.omega10 / ta + spec.omega21 / tb)
        cfg = config(lambda_off=0.0)
        _, cur = solve_temperatures(cfg, {"a": ta, "b": tb, "c": tc})
        for j in cur.by_channel().values():
            assert abs(j) <= 1e-10 * cur.scale

    def test_tight_coupling_current_ratios(self):
        spec = config().spectrum
        cfg = config(lambda_off=0.0)
        rng = np.random.default_rng(5)
        for _ in range(30):
            temps = {c: rng.uniform(0.5, 3.0) for c in "abc"}
            thetas = (
                spec.omega10 / temps["a"],
                spec.omega21 / temps["b"],
                spec.omega20 / temps["c"],
            )
            if abs(thetas[2] - thetas[0] - thetas[1]) < 0.05:
                continue
            _, cur = solve_temperatures(cfg, temps)
            a = cur.j_a / spec.omega10
            assert abs(cur.j_b / spec.omega21 - a) <= 1e-10 * abs(a)
            assert abs(cur.j_c / spec.omega20 + a) <= 1e-10 * abs(a)


class TestScenarios:
    def test_probe_hot_itself_at_equilibrium(self):
        cfg = config()
        j = probe_current(cfg, scenario(hot={"a"}, base=1.5, hot_temperature=1.5), "a")
        _, cur = solve_temperatures(cfg, {"a": 1.5, "b": 1.5, "c": 1.5})
        assert abs(j) <= 1e-12 * cur.scale

    def test_single_cold_sink_receives_heat(self):
        cfg = config()
        j = probe_current(
            cfg, scenario(hot={"a", "b"}, base=1.0, hot_temperature=2.0), "c"
        )
        assert j < 0.0

    def test_merged_probe_sums_channels(self):
        cfg = config(merged=("b", "c"))
        scen = scenario(hot={"a"}, base=1.0, hot_temperature=2.5)
        j_bc = probe_current(cfg, scen, "bc")
        _, cur = solve_temperatures(cfg, scen.temperatures(cfg.bath_ids()))
        assert j_bc == cur.j_b + cur.j_c


class TestRectification3T:
    def test_formula_sign_structure(self):
        # R_ab: J_fwd is bath a's current with b hot, J_bwd bath b's with a hot
        assert value("R_ab", [-0.5, 0.0, 0.5], [0.0, 0.3, -0.3]) == 1.0
        assert value("R_ab", [0.4, 0.0, -0.4], [0.0, 0.4, -0.4]) == 0.0
        assert value("R_ab", [0.5, 0.0, -0.5], [0.0, -0.3, 0.3]) == -1.0
        with pytest.raises(UndefinedCoefficient):
            value("R_ab", [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])

    def test_equilibrium_is_undefined(self):
        with pytest.raises(UndefinedCoefficient):
            rectification_3t(config(), "a", "b", base=1.2, hot=1.2)

    def test_antisymmetry(self):
        cfg = config()
        r_ab = rectification_3t(cfg, "a", "b", base=0.9, hot=2.0)
        r_ba = rectification_3t(cfg, "b", "a", base=0.9, hot=2.0)
        assert r_ab == -r_ba

    def test_bounded(self):
        cfg = config()
        rng = np.random.default_rng(13)
        for _ in range(25):
            base = rng.uniform(0.4, 2.5)
            hot = base * rng.uniform(1.1, 3.0)
            pair = rng.choice(["ab", "ac", "bc"])
            r = rectification_3t(cfg, pair[0], pair[1], base=base, hot=hot)
            assert -1.0 <= r <= 1.0

    def test_perfect_diode_inside_window(self):
        # J_ab < 0 and J_ba > 0 simultaneously makes the coefficient exactly 1
        cfg = config()
        r = rectification_3t(cfg, "a", "b", base=0.9, hot=3.0)
        assert r == 1.0

    def test_mean_passive_stall_lines(self):
        # With ideal filtering and the passive bath at the mean temperature,
        # the forward current vanishes exactly on T = T_H * w10/w21 and the
        # backward one on T = T_H * w21/w10 (stall condition algebra).
        cfg = config(lambda_off=0.0)
        spec = cfg.spectrum
        th = 2.0
        t_fwd = th * spec.omega10 / spec.omega21
        scen = scenario(
            hot={"b"}, base=t_fwd, hot_temperature=th,
            overrides=(("c", 0.5 * (t_fwd + th)),),
        )
        j_ab = probe_current(cfg, scen, "a")
        _, cur = solve_temperatures(cfg, scen.temperatures(cfg.bath_ids()))
        assert abs(j_ab) <= 1e-10 * cur.scale
        t_bwd = th * spec.omega21 / spec.omega10
        scen = scenario(
            hot={"a"}, base=t_bwd, hot_temperature=th,
            overrides=(("c", 0.5 * (t_bwd + th)),),
        )
        j_ba = probe_current(cfg, scen, "b")
        _, cur = solve_temperatures(cfg, scen.temperatures(cfg.bath_ids()))
        assert abs(j_ba) <= 1e-10 * cur.scale

    def test_validation(self):
        with pytest.raises(ValueError):
            rectification_3t(config(), "a", "a", base=1.0, hot=2.0)
        with pytest.raises(ValueError):
            rectification_3t(config(merged=("b", "c")), "a", "b", base=1.0, hot=2.0)


class TestRectification2T:
    def test_formula_arithmetic(self):
        # merged bath bc draws +0.2 + 0.3 with a hot, bath a -0.5 with bc hot:
        # R = -(0.5 - (-0.5)) / (0.5 + 0.5)
        assert value("R2_bc_a", [-0.5, 0.2, 0.3], [-0.5, 0.25, 0.25]) == -1.0

    def test_equilibrium_is_undefined(self):
        with pytest.raises(UndefinedCoefficient):
            rectification_2t(config(), ("b", "c"), "a", base=1.0, hot=1.0)

    def test_large_bias_approaches_unity(self):
        r = rectification_2t(config(), ("b", "c"), "a", base=0.5, hot=4.0)
        assert abs(r) > 0.9

    def test_merged_pair_validation(self):
        with pytest.raises(ValueError):
            rectification_2t(config(), ("b", "b"), "a", base=0.5, hot=1.0)
        with pytest.raises(ValueError):
            rectification_2t(config(), ("b", "c"), "b", base=0.5, hot=1.0)
        for single in ("bc", "ab", "a ", "x"):  # not the remaining channel "a"
            with pytest.raises(ValueError, match="invalid merge"):
                rectification_2t(config(), ("b", "c"), single, base=0.5, hot=4.0)


class TestCirculation:
    def test_formula_arithmetic(self):
        # scenarios a, b, c hot: J_cw = J_ab J_bc J_ca = 2, J_ccw = J_ac J_cb J_ba = 1
        j_a_hot, j_b_hot, j_c_hot = [0.0, 1.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]
        assert value("C", j_a_hot, j_b_hot, j_c_hot) == pytest.approx(1.0 / 3.0)
        with pytest.raises(UndefinedCoefficient):
            value("C", [0.0] * 3, [0.0] * 3, [0.0] * 3)

    def test_ideal_filtering_gives_no_circulation(self):
        cfg = config(lambda_off=0.0)
        rng = np.random.default_rng(19)
        for _ in range(20):
            base = rng.uniform(0.4, 2.0)
            hot = base * rng.uniform(1.2, 3.0)
            assert abs(circulation(cfg, base, hot)) <= 1e-10

    def test_bounded_with_leakage(self):
        cfg = config()
        rng = np.random.default_rng(29)
        for _ in range(20):
            base = rng.uniform(0.4, 2.0)
            hot = base * rng.uniform(1.2, 3.5)
            assert abs(circulation(cfg, base, hot)) <= 1.0

    def test_perfect_circulation_point(self):
        assert circulation(config(), 0.9, 3.86) == 1.0

    def test_cycle_products_differ_with_leakage(self):
        # leakage at finite Q breaks the ideal cyclic product identity
        cfg = config()
        j = {}
        for m in "abc":
            temps = {b: 0.9 for b in "abc"}
            temps[m] = 2.0
            _, cur = solve_temperatures(cfg, temps)
            j[m] = cur.by_channel()
        cw = j["b"]["a"] * j["c"]["b"] * j["a"]["c"]
        ccw = j["c"]["a"] * j["b"]["c"] * j["a"]["b"]
        assert abs(cw - ccw) > 1e-6 * max(abs(cw), abs(ccw))

    def test_scale_product_beyond_the_float_range(self):
        # at Q = 1e-156 each scenario's scale is near 1e155, so their product
        # overflows: C is then the formula on each scenario's currents over
        # its own scale, with no floating-point warning
        cfg = config(q=1e-156)
        currents, scales = [], []
        for m in "abc":
            _, cur = solve_temperatures(cfg, {b: 3.86 if b == m else 0.9 for b in "abc"})
            currents.append([cur.j_a / cur.scale, cur.j_b / cur.scale, cur.j_c / cur.scale])
            scales.append(cur.scale)
        assert math.prod(scales) == math.inf
        assert circulation(cfg, 0.9, 3.86) == value("C", *currents)

    def test_scale_product_below_the_normal_range(self):
        # near absolute zero each scenario's scale is 1e-137 .. 1e-142, so
        # their product underflows to 0; C is then the formula on each
        # scenario's currents over its own scale, not a flagged 0/0
        cfg = SystemConfig(circuit=QUARTER_FLUX, q=100.0)
        currents, scales = [], []
        for m in "abc":
            _, cur = solve_temperatures(cfg, {b: 0.015 if b == m else 0.005 for b in "abc"})
            currents.append([cur.j_a / cur.scale, cur.j_b / cur.scale, cur.j_c / cur.scale])
            scales.append(cur.scale)
        assert all(s > 0 for s in scales) and math.prod(scales) < np.finfo(float).tiny
        c = circulation(cfg, 0.005, 0.015)
        assert c == value("C", *currents)
        assert abs(c) < 1e-12

    def test_zero_scale_stays_undefined(self):
        # a scenario with no current at all keeps the scale product 0, so C
        # is flagged 0/0, never an unflagged NaN
        j = np.array([[1e-200, -1e-200, 0.0]])
        for zero in range(3):
            parts = [(np.zeros((1, 3)) if k == zero else j, np.array([0.0 if k == zero else 1e-150]))
                     for k in range(3)]
            _, undefined = metric_values("C", parts)
            assert undefined.tolist() == [True]

    def test_merged_config_rejected(self):
        with pytest.raises(ValueError):
            circulation(config(merged=("a", "b")), 0.9, 2.0)


def test_three_bath_metrics_reject_merged_baths():
    for name in ("R_ab", "R_ca", "C"):
        with pytest.raises(ValueError, match="three distinct baths"):
            metric_scenarios(name, merged=("b", "c"))
    assert metric_scenarios("R2_bc_a", merged=("b", "c")) == metric_scenarios("R2_bc_a")


class TestRegimeClassifier:
    def test_equilibrium_is_none(self):
        assert classify_regime(
            {"a": 1e-18, "b": -2e-18, "c": 1e-18}, {"a": 1.0, "b": 1.0, "c": 1.0}
        ) == "none"

    def test_refrigerator_of_coldest(self):
        cfg = config()
        temps = {"a": 3.5, "b": 1.5, "c": 2.0}
        _, cur = solve_temperatures(cfg, temps)
        assert cur.j_b > 0.0
        assert classify_regime(cur.by_channel(), temps) == "R_b"

    def test_pump_into_hottest(self):
        cfg = config()
        temps = {"a": 2.5, "b": 1.5, "c": 2.0}
        _, cur = solve_temperatures(cfg, temps)
        assert cur.j_a < 0.0
        assert classify_regime(cur.by_channel(), temps) == "P_a"

    def test_between_reversal_points_is_none(self):
        cfg = config()
        temps = {"a": 2.9, "b": 1.5, "c": 2.0}
        _, cur = solve_temperatures(cfg, temps)
        assert classify_regime(cur.by_channel(), temps) == "none"

    def test_tie_with_competing_claims_is_ambiguous(self):
        with pytest.raises(AmbiguousExtremum):
            classify_regime(
                {"a": 1.0, "b": 0.5, "c": -1.5},
                {"a": 0.5, "b": 0.5, "c": 2.0},
            )
        with pytest.raises(AmbiguousExtremum):
            classify_regime(
                {"a": -0.6, "b": -0.6, "c": 1.2},
                {"a": 2.0, "b": 2.0, "c": 0.5},
            )

    def test_tie_with_single_claim_resolves(self):
        # the spec pattern T_a > T_c >= T_b: a tied passive bath that is not
        # itself cooled does not spoil the refrigerator label
        label = classify_regime(
            {"a": 0.2, "b": 1.0, "c": -1.2},
            {"a": 2.0, "b": 0.5, "c": 0.5},
        )
        assert label == "R_b"

    def test_irrelevant_tie_is_fine(self):
        # max tied but neither hot bath is being heated: no pump question
        label = classify_regime(
            {"a": 0.4, "b": 0.4, "c": -0.8},
            {"a": 2.0, "b": 2.0, "c": 0.5},
        )
        assert label == "none"

    def test_hybrid_reports_none_with_diagnostic(self):
        with pytest.warns(UserWarning, match="work source"):
            label = classify_regime(
                {"a": -0.3, "b": 0.2, "c": 0.1},
                {"a": 3.0, "b": 1.0, "c": 2.0},
            )
        assert label == "none"

    def test_key_mismatch_rejected(self):
        with pytest.raises(ValueError):
            classify_regime({"a": 1.0}, {"a": 1.0, "b": 1.0, "c": 1.0})


def reference_regime(names, temperatures, currents):
    """(label, warns) of one point, written from classify_regime's docstring:
    R_l for the coldest bath l with J_l > 0, P_l for the hottest with J_l < 0,
    None when two baths tie for that extremum and both claim it, and "none"
    otherwise, with a warning when a refrigerator and a pump label both apply."""
    lo, hi = min(temperatures), max(temperatures)
    if lo == hi:
        return "none", False
    cooled = [b for b, t, j in zip(names, temperatures, currents) if t == lo and j > 0]
    heated = [b for b, t, j in zip(names, temperatures, currents) if t == hi and j < 0]
    if len(cooled) > 1 or len(heated) > 1:
        return None, False
    if cooled and heated:
        return "none", True
    if cooled:
        return f"R_{cooled[0]}", False
    return (f"P_{heated[0]}" if heated else "none"), False


@st.composite
def regime_points(draw):
    """Bath names and (N, B) temperatures and currents drawn from a few values,
    so ties at the minimum and maximum, equal temperatures and zero currents
    are common."""
    names = draw(st.sampled_from([("a", "b", "c"), ("a", "bc"), ("ab", "c"), ("b", "a", "c")]))
    n = draw(st.integers(1, 12))
    cells = st.lists(st.lists(st.sampled_from([0.0, 0.5, 2.0, 3.5]), min_size=len(names),
                              max_size=len(names)), min_size=n, max_size=n)
    currents = st.lists(st.lists(st.sampled_from([-1.5, -1e-300, -0.0, 0.0, 1e-300, 0.7]),
                                 min_size=len(names), max_size=len(names)), min_size=n, max_size=n)
    return names, np.array(draw(cells)), np.array(draw(currents))


@settings(max_examples=300, deadline=None)
@given(regime_points())
def test_regimes_match_the_per_row_reference(point):
    names, temperatures, currents = point
    expected = [reference_regime(names, t, j) for t, j in zip(temperatures.tolist(), currents.tolist())]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        labels = regimes(names, temperatures, currents)[0]
    assert labels == [label for label, _ in expected]
    assert len(caught) == sum(warns for _, warns in expected)


class TestTransportReport:
    def test_regime_recomputable(self):
        cfg = config()
        scen = scenario(hot={"a"}, base=1.5, hot_temperature=3.5, overrides=(("c", 2.0),))
        temps = scen.temperatures(cfg.bath_ids())
        _, cur = solve_temperatures(cfg, temps)
        regime = classify_regime(bath_currents(cfg, cur), temps)  # as `steady` reports it
        assert regime == classify_regime(cur.by_channel(), temps)
        assert regime == "R_b"

    def test_scenario_temperature_resolution(self):
        scen = scenario(hot={"a"}, base=1.0, hot_temperature=2.0, overrides=(("c", 3.0),))
        assert scen.temperature("a") == 2.0
        assert scen.temperature("b") == 1.0
        assert scen.temperature("c") == 3.0
        with pytest.raises(ValueError):
            TemperatureScenario(hot=frozenset(), base=-1.0, hot_temperature=1.0)


@pytest.mark.parametrize("kw, message", [
    ({"merged": ("b", "b")}, "two distinct channels"),
    ({"resonators": (("d", 1.0),)}, "unknown resonator channel"),
])
def test_system_config_rejects_unknown_channels(kw, message):
    with pytest.raises(ValueError, match=message):
        config(**kw)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_rejected(bad):
    # NaN fails every comparison, so a check written as `t < 0` let it pass
    # and the kernel solved it as T = 0.
    with pytest.raises(ValueError):
        TemperatureScenario(base=bad)
    with pytest.raises(ValueError):
        TemperatureScenario(hot=frozenset({"a"}), hot_temperature=bad)
    with pytest.raises(ValueError):
        solve_temperatures(config(), {"a": bad, "b": 1.0, "c": 1.0})
    with pytest.raises(ValueError):
        rectification_3t(config(), "a", "b", bad, 2.0)
    with pytest.raises(ValueError):
        rectification_3t(config(), "a", "b", 1.0, 2.0, passive_temperature=bad)
    for kw in ({"e_j": bad}, {"e_c": bad}, {"phi": bad}):
        with pytest.raises(ValueError):
            CircuitParams(**{"e_j": 5.0, "e_c": 0.5, **kw})
    for kw in ({"q": bad}, {"lambda_res": bad}, {"lambda_off": bad},
               {"resonators": (("a", bad),)}):
        with pytest.raises(ValueError):
            config(**kw)
