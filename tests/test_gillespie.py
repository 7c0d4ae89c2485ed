"""Jump-process estimator tests: determinism, equilibrium, solver agreement,
the seed contract, its pick stream against a pure-Python SplitMix64,
bit-for-bit agreement with a jump-by-jump reference walk and across chunk
sizes, its interval lookup, bucket lookup and state-halving walk against
brute force, its stream calls, memory, and the calibration of its z-scores."""

from __future__ import annotations

import math
import tracemalloc
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutrit_heat import (
    CircuitParams,
    ReducibleChain,
    StochasticEstimate,
    SystemConfig,
    gillespie_estimate,
    solve_temperatures,
)
from qutrit_heat import steady as steady_module
from qutrit_heat.rates import thermal_rates
from qutrit_heat.steady import (
    CHUNK_JUMPS,
    MIN_JUMPS,
    _BUCKETS,
    _bucket_tables,
    _interval_tables,
    _intervals,
    _stream_key,
    _walk,
    _walk_tables,
    _words,
)

CIRCUIT = CircuitParams(e_j=5.0, e_c=0.5, phi=math.pi / 2)
SPECTRUM = SystemConfig(circuit=CIRCUIT).spectrum


def pinned_config(q=100.0) -> SystemConfig:
    """Resonators pinned to the transitions of SPECTRUM."""
    freqs = (SPECTRUM.omega10, SPECTRUM.omega21, SPECTRUM.omega20)
    return SystemConfig(circuit=CIRCUIT, q=q, resonators=tuple(zip("abc", freqs)))


def pinned_channels(temps, q=100.0):
    """The kernel's N = 1 inputs (freqs, prefactors, temperatures) of pinned_config."""
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
def equilibrium_channels():
    return pinned_channels((2.0, 2.0, 2.0))


def test_deterministic_given_seed(equilibrium_channels):
    e1 = gillespie_estimate(*equilibrium_channels, n_jumps=20_000, seed=42)
    e2 = gillespie_estimate(*equilibrium_channels, n_jumps=20_000, seed=42)
    assert np.array_equal(e1.p_hat, e2.p_hat)
    assert np.array_equal(e1.j_hat, e2.j_hat)
    assert np.array_equal(e1.sigma_p, e2.sigma_p)


def test_equilibrium_agrees_with_gibbs(equilibrium_channels):
    est = gillespie_estimate(*equilibrium_channels, n_jumps=200_000, seed=7)
    _, j = solve_temperatures(pinned_config(), dict.fromkeys("abc", 2.0))
    gibbs = np.exp(-np.array(SPECTRUM.energies) / 2.0)
    gibbs /= gibbs.sum()
    assert z_max(est, gibbs, (j.j_a, j.j_b, j.j_c)) <= 3.0
    assert abs(float(est.p_hat.sum()) - 1.0) <= 1e-9
    assert np.all(est.sigma_p > 0.0) and np.all(est.sigma_j > 0.0)


def test_two_seeds_compatible(equilibrium_channels):
    e1 = gillespie_estimate(*equilibrium_channels, n_jumps=100_000, seed=1)
    e2 = gillespie_estimate(*equilibrium_channels, n_jumps=100_000, seed=2)
    assert not np.array_equal(e1.p_hat, e2.p_hat)
    combined = np.sqrt(e1.sigma_p**2 + e2.sigma_p**2)
    assert np.all(np.abs(e1.p_hat - e2.p_hat) <= 3.0 * combined)


def test_nonequilibrium_agrees_with_solver():
    st, j = solve_temperatures(pinned_config(), {"a": 3.0, "b": 1.5, "c": 2.0})
    est = gillespie_estimate(*pinned_channels((3.0, 1.5, 2.0)), n_jumps=300_000, seed=12)
    assert z_max(est, st.p, (j.j_a, j.j_b, j.j_c)) <= 3.0


def test_minimum_jump_count_enforced():
    with pytest.raises(ValueError, match="10000"):
        gillespie_estimate(*pinned_channels((2.0, 2.0, 2.0)), n_jumps=10, seed=0)


def test_estimate_rejects_populations_that_do_not_sum_to_1():
    with pytest.raises(ValueError, match="sum to 1"):
        StochasticEstimate(p_hat=np.array([0.5, 0.5, 0.5]), sigma_p=np.zeros(3),
                           j_hat=np.zeros(3), sigma_j=np.zeros(3), n_jumps=MIN_JUMPS, seed=0)


def test_one_scenario_only():
    freqs, prefactors, temperatures = pinned_channels((2.0, 2.0, 2.0))
    with pytest.raises(ValueError, match="one scenario"):
        gillespie_estimate(np.repeat(freqs, 2, axis=0), np.repeat(prefactors, 2, axis=0),
                           np.repeat(temperatures, 2, axis=0), n_jumps=MIN_JUMPS, seed=0)


def test_reducible_chain_rejected():
    with pytest.raises(ReducibleChain):
        gillespie_estimate(*pinned_channels((0.0, 0.0, 0.0)), n_jumps=20_000, seed=0)


def test_seed_must_be_a_non_negative_integer(equilibrium_channels):
    def walk(seed):
        return gillespie_estimate(*equilibrium_channels, n_jumps=MIN_JUMPS, seed=seed)

    # checked before anything else: no rates are read, no jump is walked
    with pytest.raises(ValueError, match="seed"):
        gillespie_estimate(None, None, None, n_jumps=MIN_JUMPS, seed=-1)
    for seed in (1.5, "3"):
        with pytest.raises(TypeError):
            walk(seed)
    assert walk(2**70).seed == 2**70
    assert not np.array_equal(walk(2**64 + 5).p_hat, walk(5).p_hat)


def test_numpy_integers_are_integers(equilibrium_channels):
    def walk(n_jumps, seed):
        e = gillespie_estimate(*equilibrium_channels, n_jumps=n_jumps, seed=seed)
        return e.p_hat, e.sigma_p, e.j_hat, e.sigma_j

    reference = walk(20_000, 3)
    for n_jumps, seed in ((np.int64(20_000), 3), (np.uint32(20_000), 3), (20_000, np.int64(3))):
        assert all(np.array_equal(a, b) for a, b in zip(walk(n_jumps, seed), reference))
    # a float count is no jump count, checked before any rate is read
    for n_jumps in (1e5, 20000.0):
        with pytest.raises(TypeError):
            gillespie_estimate(None, None, None, n_jumps=n_jumps, seed=3)


GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(z: int) -> int:
    """SplitMix64's output of the state word z, in Python integers."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def reference_key(seed: int, n_jumps: int) -> int:
    """The pick stream's key: the seed's 64-bit words, low word first, then
    n_jumps, each folded in as key = splitmix64((key + GOLDEN) ^ word)."""
    words = [seed % 2**64]
    while seed >= 2**64:
        seed //= 2**64
        words.append(seed % 2**64)
    key = 0
    for word in [*words, n_jumps]:
        key = splitmix64(((key + GOLDEN) % 2**64) ^ word)
    return key


def reference_double(key: int, k: int) -> float:
    """Double k of the pick stream with this key, one integer at a time."""
    return (splitmix64((key + (k + 1) * GOLDEN) % 2**64) >> 11) / 2**53


def test_pick_stream_equals_a_pure_python_splitmix64():
    # the first output of SplitMix64 seeded with 0, as published
    assert splitmix64(GOLDEN) == 0xE220A8397B1DCDAF
    n_jumps = MIN_JUMPS + 7
    cases = [(5, n_jumps), (2**64 + 5, n_jumps), (5, n_jumps + 1), (0, n_jumps), (2**70, n_jumps)]
    keys = [_stream_key(seed, n) for seed, n in cases]
    assert keys == [reference_key(seed, n) for seed, n in cases]
    assert len(set(keys)) == len(cases)
    key, n_burn = keys[0], n_jumps // 100
    stop = n_burn + CHUNK_JUMPS + 3  # past the burn-in and one chunk after it

    def doubles(start, size):
        return ((_words(key, start, size) >> 11) * 2**-53).tolist()

    expected = [reference_double(key, k) for k in range(stop)]
    assert all(0.0 <= u < 1.0 for u in expected)
    assert doubles(0, stop) == expected
    pieces = [doubles(a, b - a) for a, b in pairwise((0, n_burn, n_burn + CHUNK_JUMPS, stop))]
    assert sum(pieces, []) == expected
    assert doubles(2**40, 3) == [reference_double(key, 2**40 + k) for k in range(3)]


def reference_estimate(freqs, prefactors, temperatures, n_jumps, seed):
    """The jump-by-jump walk gillespie_estimate must reproduce bit for bit:
    (p_hat, sigma_p, j_hat, sigma_j), one Python iteration per jump, each
    pick a reference_double. Its rates are thermal_rates of the same inputs;
    outcomes are listed channel by channel (a, b, c), then by target state.
    Each jump waits its mean time, 1 / exit rate, so a batch's time in a
    state is its visits there over the state's exit rate; its heat out of
    bath l is omega10 m_l1 + omega20 m_l2, m_ls its jumps into s through l
    less those out of s."""
    batches = 50
    up, down = thermal_rates(freqs, prefactors, temperatures)
    energies = (0.0, float(freqs[0, 0]), float(freqs[0, 2]))
    rate = {}  # (channel, i, j): the rate of the jump i -> j through channel
    for t, (lo, hi) in enumerate(((0, 1), (1, 2), (0, 2))):
        for ci in range(3):
            rate[ci, lo, hi], rate[ci, hi, lo] = float(up[0, ci, t]), float(down[0, ci, t])
    exit_rate = [0.0, 0.0, 0.0]
    largest_step = [0.0, 0.0, 0.0]  # per channel, the largest |energy| of its jumps
    outcomes = [[], [], []]
    for i in range(3):
        acc = 0.0
        table = []
        for ci in range(3):
            for j in range(3):
                if j != i and rate[ci, i, j] > 0.0:
                    acc += rate[ci, i, j]
                    table.append((acc, j, ci))
                    largest_step[ci] = max(largest_step[ci], abs(energies[j] - energies[i]))
        exit_rate[i] = acc
        outcomes[i] = [(c / acc, j, ci) for (c, j, ci) in table]

    n_burn = n_jumps // 100
    total_jumps = n_burn + n_jumps
    key = reference_key(seed, n_jumps)

    visits = np.zeros((batches, 3), dtype=np.int64)
    net = np.zeros((batches, 3, 3), dtype=np.int64)  # (batch, channel, level)

    state = 0
    for k in range(total_jumps):
        u = reference_double(key, k)
        target = state
        ci = 0
        for cum, j, c in outcomes[state]:
            if u <= cum:
                target, ci = j, c
                break
        if k >= n_burn:
            b = (k - n_burn) * batches // n_jumps
            visits[b, state] += 1
            net[b, ci, target] += 1
            net[b, ci, state] -= 1
        state = target

    occ = visits / np.array(exit_rate)
    heat = net[:, :, 1] * energies[1] + net[:, :, 2] * energies[2]
    time_in_batch = occ[:, 0] + occ[:, 1] + occ[:, 2]
    t_total = time_in_batch.sum()
    p_b = occ / time_in_batch[:, None]
    j_b = heat / time_in_batch[:, None]
    with np.errstate(over="ignore"):
        return (occ.sum(axis=0) / t_total,
                np.maximum(p_b.std(axis=0, ddof=1) / np.sqrt(batches),
                           1.0 / np.array(exit_rate) / t_total),
                heat.sum(axis=0) / t_total,
                np.maximum(j_b.std(axis=0, ddof=1) / np.sqrt(batches),
                           np.array(largest_step) / t_total))


TEMPERATURE = st.sampled_from([0.3, 4.0]) | st.floats(0.3, 4.0)


@settings(max_examples=25, deadline=None)
@given(merged=st.sampled_from([None, ("b", "c"), ("a", "b"), ("a", "c")]),
       lambda_off=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 2.0),
       q=st.sampled_from([10.0, 1000.0]) | st.floats(10.0, 1000.0),
       temps=st.tuples(TEMPERATURE, TEMPERATURE, TEMPERATURE),
       n_jumps=st.sampled_from([MIN_JUMPS, MIN_JUMPS + 7, 12_349]) | st.integers(MIN_JUMPS, 30_000),
       seed=st.integers(0, 2**64))
def test_estimate_equals_the_jump_by_jump_walk(merged, lambda_off, q, temps, n_jumps, seed):
    config = SystemConfig(circuit=CIRCUIT, q=q, lambda_off=lambda_off, merged=merged)
    channels = config.channels({config.bath_of(c): t for c, t in zip("abc", temps)})
    est = gillespie_estimate(*channels, n_jumps=n_jumps, seed=seed)
    reference = reference_estimate(*channels, n_jumps, seed)
    for name, expected in zip(("p_hat", "sigma_p", "j_hat", "sigma_j"), reference):
        assert np.array_equal(getattr(est, name), expected), name


def test_estimate_does_not_depend_on_the_chunk_size(monkeypatch):
    # batches of 9,000 jumps after a burn-in of 4,500: the default chunk is
    # neither a multiple nor a divisor of a batch, so chunks end inside
    # batches and batches end inside chunks
    channels = pinned_channels((3.0, 1.5, 2.0))
    n_jumps, n_burn, batch = 450_001, 4_500, 9_000
    reference = gillespie_estimate(*channels, n_jumps=n_jumps, seed=5)
    assert CHUNK_JUMPS % batch and batch % CHUNK_JUMPS
    for chunk in (64, 1000, 8191, n_burn, n_burn + 1, batch - 1, batch + 1, 10 * n_jumps):
        monkeypatch.setattr(steady_module, "CHUNK_JUMPS", chunk)
        est = gillespie_estimate(*channels, n_jumps=n_jumps, seed=5)
        for name in ("p_hat", "sigma_p", "j_hat", "sigma_j"):
            assert np.array_equal(getattr(est, name), getattr(reference, name)), (chunk, name)


@pytest.mark.parametrize("n_jumps", [20_000, 450_001])
def test_one_stream_call_per_chunk(monkeypatch, equilibrium_channels, n_jumps):
    # a cost guard without timing: the run, burn-in included, is walked in
    # full chunks that do not stop at the batch ends
    calls = []

    def counted(key, start, size):
        calls.append(size)
        return _words(key, start, size)

    monkeypatch.setattr(steady_module, "_words", counted)
    gillespie_estimate(*equilibrium_channels, n_jumps=n_jumps, seed=1)
    total = n_jumps // 100 + n_jumps
    assert len(calls) == math.ceil(total / CHUNK_JUMPS)
    assert sum(calls) == total


def apply_code(code: int, state: int) -> int:
    """The state a next-state map code sends state to: its base-3 digit."""
    return code // 3**state % 3


def pair_index(x: int, y: int) -> int:
    """The two uint8 letters x, y as one little-endian uint16, as _walk reads them."""
    return int(np.array([x, y], dtype=np.uint8).view("<u2")[0])


@settings(max_examples=20, deadline=None)
@given(code=st.lists(st.integers(0, 26), min_size=1, max_size=22))
def test_composition_table_composes_the_maps(code):
    # the tables of letters standing for maps, and of the 27 maps themselves
    for codes, (compose, split) in zip((code, range(27)), _walk_tables(np.array(code))):
        for x, a in enumerate(codes):
            for y, b in enumerate(codes):
                p = pair_index(x, y)
                composed = int(compose[p])
                assert 0 <= composed < 27
                for s in range(3):
                    assert apply_code(composed, s) == apply_code(b, apply_code(a, s))
                    before = np.array([split[3 * p + s]], dtype="<u2").view(np.uint8).tolist()
                    assert before == [s, apply_code(a, s)]


# lengths on both sides of the walk's Python base case (48 letters), odd and
# even at every level, and powers of two around a chunk
SCAN_LENGTHS = st.integers(1, 200) | st.builds(
    lambda k, off: max(1, 2**k + off), st.integers(1, 15), st.sampled_from([-1, 0, 1]))


@settings(max_examples=60, deadline=None)
@given(length=SCAN_LENGTHS, start=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_scan_equals_a_plain_loop(length, start, seed):
    rng = np.random.default_rng(seed)
    code = rng.integers(0, 27, rng.integers(1, 23))  # a map per letter, as per interval
    letters = rng.integers(0, len(code), length).astype(np.uint8)
    states, end = _walk(start, letters, *_walk_tables(code))
    expected, state = [], start
    for letter in letters.tolist():
        expected.append(state)
        state = apply_code(int(code[letter]), state)
    assert states.dtype == np.uint8
    assert states.tolist() == expected
    assert end == state


# cumulative tables drawn from a small pool of values, so that states share
# breakpoints; each ends at 1.0 and is padded with inf, as in the estimator
POOL = [0.0, 0.125, 0.3, 1 / 3, 0.5, math.nextafter(0.5, 1.0), 0.75, 0.999]


def outcome_rows(width=7):
    row = st.lists(st.sampled_from(POOL), max_size=width - 2, unique=True).map(
        lambda v: sorted(v) + [1.0] + [math.inf] * (width - 1 - len(v)))
    return st.tuples(row, row, row)


@settings(max_examples=60, deadline=None)
@given(rows=outcome_rows(), targets=st.lists(st.integers(0, 2), min_size=21, max_size=21))
def test_interval_tables_equal_a_brute_force_argmax(rows, targets):
    cum = np.array(rows)
    target = np.array(targets, dtype=np.intp).reshape(3, 7)
    breaks, code, outcome = _interval_tables(cum, target)
    probes = [0.0, math.nextafter(1.0, 0.0)]
    for b in breaks.tolist():
        probes += [b, math.nextafter(b, 0.0), math.nextafter(b, 1.0)]
    for lo, hi in zip(breaks[:-1].tolist(), breaks[1:].tolist()):
        probes.append(0.5 * (lo + hi))
    for u in (p for p in probes if 0.0 <= p < 1.0):
        k = int(breaks.searchsorted(u))
        for i in range(3):
            first = int((u <= cum[i]).argmax())
            assert outcome[k, i] == first, (u, i)
            assert apply_code(int(code[k]), i) == target[i, first], (u, i)


def near_bucket_edges(k):
    """The bucket edge k / _BUCKETS and the doubles on either side of it, in [0, 1]."""
    edge = k / _BUCKETS
    return [v for v in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)) if 0.0 <= v <= 1.0]


# breakpoints drawn from the bucket edges and their neighbours and a few
# other values, with repeats, sorted and closed by 1.0, as _interval_tables
# gives them for up to 3 x 7 outcomes
BREAK_VALUES = (st.integers(0, _BUCKETS).flatmap(lambda k: st.sampled_from(near_bucket_edges(k)))
                | st.sampled_from([0.0, 0.3, 1 / 3, 0.5, 0.999, 1.0]))
BREAKS = st.lists(BREAK_VALUES, max_size=20).map(lambda v: np.array(sorted(v) + [1.0]))


@settings(max_examples=200, deadline=None)
@given(breaks=BREAKS)
def test_bucket_lookup_equals_searchsorted(breaks):
    below, ambiguous = _bucket_tables(breaks)
    # a word's double is (word >> 11) * 2**-53, its bucket word >> 52
    words = [0, 2**64 - 1]
    for k in range(_BUCKETS):
        words += [k << 52, max((k << 52) - 1, 0), (k << 52) | 2**11 - 1]
    for b in breaks.tolist():
        m = math.floor(b * 2**53)  # the stream double at or below b, as a multiple of 2**-53
        words += [min(j, 2**53 - 1) << 11 for j in range(max(m - 1, 0), m + 3)]
    words = np.array(words, dtype=np.uint64)
    u = (words >> 11) * 2**-53
    assert _intervals(words, breaks, below, ambiguous).tolist() == breaks.searchsorted(u).tolist()
    # at most one bucket per breakpoint falls back to searchsorted
    assert int(ambiguous.sum()) <= len(breaks)


def test_estimate_memory_does_not_grow_with_the_jump_count(equilibrium_channels):
    # chunk-sized arrays only, so the peak is the same at both jump counts;
    # a first call does numpy's lazy imports outside the traced calls
    gillespie_estimate(*equilibrium_channels, n_jumps=MIN_JUMPS, seed=3)
    peaks = []
    for n_jumps in (1_000_000, 4_000_000):
        tracemalloc.start()
        try:
            gillespie_estimate(*equilibrium_channels, n_jumps=n_jumps, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 16 * 2**20
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks


def test_z_scores_are_calibrated():
    # 200 seeds at the README steady point: each quantity's signed z =
    # (estimate - exact) / sigma should be about standard normal
    config = SystemConfig(circuit=CircuitParams(e_j=5.0, e_c=0.5, phi=1.5708), q=100.0)
    temps = {"a": 3.5, "b": 1.5, "c": 2.0}
    solved, j = solve_temperatures(config, temps)
    exact = np.append(solved.p, (j.j_a, j.j_b, j.j_c))
    channels = config.channels(temps)
    z = []
    for seed in range(200):
        est = gillespie_estimate(*channels, n_jumps=20_000, seed=seed)
        z.append((np.append(est.p_hat, est.j_hat) - exact) / np.append(est.sigma_p, est.sigma_j))
    z = np.array(z)
    assert np.all(np.abs(z.mean(axis=0)) <= 0.3), z.mean(axis=0)
    assert np.all((z.std(axis=0) >= 0.75) & (z.std(axis=0) <= 1.3)), z.std(axis=0)
