"""Stationary state of the three-level rate equations.

Three independent routes to the same physics live here: the batched
tree-theorem solve with its heat currents (the source of truth and the
package's one solve path), the closed-form current amplitude of the
perfectly filtered limit (cross-check), and a jump-process Monte Carlo
estimator that takes the solve's inputs at N = 1.

The estimator (Gillespie, J. Phys. Chem. 81, 2340, 1977) walks the jump
chain in fixed-size chunks that ignore the batch ends, without a Python
loop per jump, and draws no waiting times: each jump counts for its
conditional mean wait, the inverse exit rate of the state it leaves
(Rao-Blackwellisation; Casella and Robert, Biometrika 83, 81, 1996). Its
uniforms are a SplitMix64 counter stream (Steele, Lea and Flood, OOPSLA
2014). A 4096-bucket table, indexed by the top 12 bits of each stream
word, names most jumps' outcome interval; a jump whose bucket holds a
breakpoint of the outcome tables is searched exactly. A state-halving walk
gives the trajectory: it composes adjacent pairs of next-state maps by
table lookup, walks the pairs, and reads the states within each pair from
one more table. Each batch keeps integer jump counts, from which its times
and heats follow.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import exp

import numpy as np

from .errors import ReducibleChain
from .rates import thermal_rates

#: Max-norm bound on the residual of the (time-normalized) rate equations.
RESIDUAL_TOL = 1e-10

MIN_JUMPS = 10_000
_BATCHES = 50
#: Jumps gillespie_estimate walks at once, which bounds its memory whatever
#: n_jumps is. No result depends on it.
CHUNK_JUMPS = 16384

#: A next-state map of the three states is a code in 0..26 whose base-3
#: digit s, code // 3**s % 3, is the state it sends state s to.
_DIGIT_WEIGHTS = (1, 3, 9)


@dataclass(frozen=True)
class SteadyState:
    """Stationary populations (p0, p1, p2) and the solve residual.

    residual is the max norm of the rate equations evaluated at p, with rates
    normalized by their largest entry (so it is invariant under a uniform
    rescaling of all rates).
    """

    p: np.ndarray
    residual: float

    def __post_init__(self) -> None:
        if self.p.shape != (3,):
            raise ValueError("p must have shape (3,)")
        p0, p1, p2 = (float(v) for v in self.p)
        if abs(p0 + p1 + p2 - 1.0) > 1e-12:
            raise ValueError("populations must sum to 1")
        if min(p0, p1, p2) < 0.0 or max(p0, p1, p2) > 1.0:
            raise ValueError("populations must lie in [0, 1]")
        if not self.residual <= RESIDUAL_TOL:
            raise ValueError(f"rate-equation residual {self.residual} too large")


def strongly_connected(k01, k10, k12, k21, k02, k20):
    """Strong connectivity of the digraph with an edge i -> j where the rate
    kij > 0, elementwise; on three nodes a two-hop closure decides."""
    e01, e10, e12, e21, e02, e20 = (k > 0.0 for k in (k01, k10, k12, k21, k02, k20))
    return ((e01 | (e02 & e21)) & (e02 | (e01 & e12)) & (e10 | (e12 & e20))
            & (e12 | (e10 & e02)) & (e20 | (e21 & e10)) & (e21 | (e20 & e01)))


def edge_rates(up, down) -> tuple:
    """(k01, k10, k12, k21, k02, k20), kij the total rate i -> j (N,), of
    thermal_rates' (N, channel, transition) up and down rates: the sum of
    channels a + b + c."""
    k_up, k_down = up[:, 0] + up[:, 1] + up[:, 2], down[:, 0] + down[:, 1] + down[:, 2]
    return k_up[:, 0], k_down[:, 0], k_up[:, 1], k_down[:, 1], k_up[:, 2], k_down[:, 2]


def _trees(k01, k10, k12, k21, k02, k20):
    """The largest rate s, the rates over s, and their tree sums w_i: the
    products of rates along the three spanning trees directed into state i
    (Schnakenberg, Rev. Mod. Phys. 48, 571, 1976), all non-negative."""
    s = np.maximum(np.maximum(np.maximum(k01, k10), np.maximum(k12, k21)), np.maximum(k02, k20))
    k01, k10, k12, k21, k02, k20 = (k / s for k in (k01, k10, k12, k21, k02, k20))
    w = (k10 * k20 + k12 * k20 + k21 * k10, k01 * k21 + k02 * k21 + k20 * k01,
         k02 * k12 + k01 * k12 + k10 * k02)
    return s, (k01, k10, k12, k21, k02, k20), w


def stationary(k01, k10, k12, k21, k02, k20):
    """Tree-theorem stationary state p_i = w_i / (w0 + w1 + w2) of N chains
    with (N,) total rates kij: no cancellation, no pivoting. Returns p
    (N, 3), the max norm of the normalised rate equations at p, and the
    strong-connectivity mask; where it is False (say, every bath at T = 0:
    state 0 absorbs, yet the tree sum is nonzero) p must not be used. Last
    come the _trees of the rates, which channel_currents takes."""
    connected = strongly_connected(k01, k10, k12, k21, k02, k20)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        trees = _trees(k01, k10, k12, k21, k02, k20)
        _, (k01, k10, k12, k21, k02, k20), (w0, w1, w2) = trees
        norm = w0 + w1 + w2
        p0, p1, p2 = w0 / norm, w1 / norm, w2 / norm
        residual = np.maximum(np.maximum(
            abs(-(k01 + k02) * p0 + k10 * p1 + k20 * p2),
            abs(k01 * p0 - (k10 + k12) * p1 + k21 * p2)),
            abs(k02 * p0 + k12 * p1 - (k20 + k21) * p2))
    return np.stack([p0, p1, p2], axis=-1), residual, connected, trees


def channel_currents(freqs, up, down, p, trees):
    """Stationary heat currents j (N, channel) and their scale (N,).

    freqs (N, 3) holds (omega10, omega21, omega20), up and down the
    (N, channel, transition) rates, p the (N, 3) populations and trees the
    _trees of the total rates, as stationary gives them. J_l is
    sum_t w_t f_lt, f_lt = u p_i - d p_j channel l's net flux up t = i -> j.
    With p_i = w_i / W and m the third state, f_lt W = (k_mi + k_mj)
    (u k_ji - d k_ij) + u k_jm k_mi - d k_im k_mj: the first term is exactly
    0 when one channel drives t alone, the second is the cycle affinity, so
    u p_i and d p_j never cancel. scale is the largest gross one-way flow
    sum_t w_t (u p_i + d p_j) of any channel. Both sum one transition at a
    time, so the kernel holds (N, channel) arrays, not (N, channel, transition).
    """
    s, (k01, k10, k12, k21, k02, k20), w = trees
    norm = (w[0] + w[1] + w[2]) / s
    for t, (i, j, kij, kji, kmi, kmj, kjm, kim) in enumerate((
        (0, 1, k01, k10, k20, k21, k12, k02),  # 0 -> 1
        (1, 2, k12, k21, k01, k02, k20, k10),  # 1 -> 2
        (0, 2, k02, k20, k10, k12, k21, k01),  # 0 -> 2
    )):
        u, d = up[:, :, t] / s[:, None], down[:, :, t] / s[:, None]
        f = ((kmi + kmj)[:, None] * (u * kji[:, None] - d * kij[:, None])
             + u * (kjm * kmi)[:, None] - d * (kim * kmj)[:, None])
        w_t = freqs[:, t, None]
        net = w_t * f / norm[:, None]
        gross = w_t * up[:, :, t] * p[:, i, None] + w_t * down[:, :, t] * p[:, j, None]
        if t:
            current += net
            g += gross
        else:
            current, g = net, gross
    return current, np.maximum(np.maximum(g[:, 0], g[:, 1]), g[:, 2])


def solve_scenarios(freqs, prefactors, temperatures) -> tuple:
    """The batched kernel: (p, residual, connected, j, scale) of N scenarios
    from freqs (N, 3), rates.channel_prefactors (N, 3, 3) and channel
    temperatures (N, 3). A row depends on its own inputs only, bit for bit,
    so any batching of a scenario gives the same numbers. It raises no
    floating-point warning: rates beyond the float range give a non-finite
    residual, which failure_codes flags."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        up, down = thermal_rates(freqs, prefactors, temperatures)
        p, residual, connected, trees = stationary(*edge_rates(up, down))
        return (p, residual, connected, *channel_currents(freqs, up, down, p, trees))


#: Why a scenario failed, by the code failure_codes gives it.
FAILURE_KINDS = ("", "ReducibleChain", "ValueError")


def failure_codes(residual, connected, j, scale) -> np.ndarray:
    """0 solved, 1 not strongly connected, 2 residual above RESIDUAL_TOL or
    a current or the scale not finite (rates near the float range can leave
    the populations fine and the currents NaN)."""
    solved = (residual <= RESIDUAL_TOL) & np.isfinite(j).all(axis=-1) & np.isfinite(scale)
    return np.where(connected, np.where(solved, 0, 2), 1)


# ---------------------------------------------------------------------------
# Closed-form current amplitude of the perfectly filtered limit.
# ---------------------------------------------------------------------------

def ideal_current_amplitude(
    theta_a: float,
    theta_b: float,
    theta_c: float,
    kappa: float = 1.0,
) -> float:
    """Cycle flux of the perfectly filtered qutrit with symmetric couplings.

    theta_l = omega_l / T_l. The heat currents of the ideal limit are
    J_a = omega_a * A, J_b = omega_b * A, J_c = -omega_c * A. The amplitude
    vanishes exactly at the stall condition theta_c = theta_a + theta_b. Its
    sign agrees with the net cycle flux of the stationary solve (a test pins
    this).
    """
    if not (theta_a > 0 and theta_b > 0 and theta_c > 0):
        raise ValueError("thetas must be positive and finite")
    # Rational function of the Boltzmann factors, written with negative
    # exponentials so it stays finite for arbitrarily large theta. The
    # numerator vanishes exactly on theta_c == theta_a + theta_b.
    s = theta_a + theta_b
    num = exp(-s) - exp(-theta_c)
    den = (
        2.0
        + exp(-theta_c)
        + 2.0 * exp(-theta_a)
        - 2.0 * exp(-(theta_a + theta_c))
        - exp(-s)
        - 2.0 * exp(-(s + theta_c))
    )
    return kappa * (num / den)


# ---------------------------------------------------------------------------
# Jump-process Monte Carlo oracle.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StochasticEstimate:
    """Time-averaged populations and per-channel heat currents with errors.

    The time averages take each jump's conditional mean wait in place of a
    sampled one. Standard errors come from 50 batch means over contiguous
    stretches of the one trajectory that gillespie_estimate walks, floored
    at one count's resolution. Positive currents mean heat flowing out of
    the bath, matching the deterministic pipeline. Every field is a function
    of gillespie_estimate's arguments alone, bit for bit.
    """

    p_hat: np.ndarray
    sigma_p: np.ndarray
    j_hat: np.ndarray
    sigma_j: np.ndarray
    n_jumps: int
    seed: int

    def __post_init__(self) -> None:
        if not abs(float(self.p_hat.sum()) - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError("estimated populations must sum to 1")


def _interval_tables(cum: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, ...]:
    """One lookup for all three states' outcome tables at once.

    The finite cumulative probabilities of cum (3, width), sorted, cut [0, 1)
    into intervals: a uniform u lies in interval breaks.searchsorted(u), the
    number of breakpoints below u (a repeated breakpoint leaves an empty
    interval). Every u of one interval compares alike with every entry of
    cum, so the breakpoint closing the interval (inf for the last) stands in
    for u, and outcome[k, i] is (u <= cum[i]).argmax() exactly, by
    comparisons alone. code[k] is the jump's next-state map of the three
    states, as a map code (see _DIGIT_WEIGHTS)."""
    breaks = np.sort(cum[np.isfinite(cum)])  # np.unique would import numpy.ma
    probe = np.append(breaks, np.inf)
    outcome = (probe[:, None, None] <= cum).argmax(axis=2)  # (interval, state)
    code = target[np.arange(3), outcome] @ _DIGIT_WEIGHTS
    return breaks, code, outcome


def _walk_tables(code: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """_walk's lookups, for letters that are a chunk's intervals, interval x
    standing for the map code[x], and for letters that are the 27 map codes
    themselves. Each is (compose, split), read at a pair of adjacent uint8
    letters (x, y) taken as one little-endian uint16 p = x + 256 y: compose[p]
    is the code of map x followed by map y (uint8), and split[3 * p + s] the
    states before x and before y, from s before x, as the little-endian uint8
    pair (s, x's image of s); at p = x, split >> 8 is x's image of s. They
    are built per estimate, not at import: numpy work at import raised the
    peak memory of every command."""
    digits = np.arange(27)[:, None] // _DIGIT_WEIGHTS % 3  # digits[a, s]: a's image of s
    composed = digits[:, digits] @ _DIGIT_WEIGHTS  # composed[b, a]: a, then b

    def tables(code):
        compose = np.zeros((len(code), 256), dtype=np.uint8)
        compose[:, :len(code)] = composed[code[:, None], code]
        split = np.zeros((len(code), 768), dtype="<u2")
        split[:, :3 * len(code)] = (np.arange(3) + 256 * digits[code]).ravel()
        return compose.ravel(), split.ravel()

    return tables(code), tables(np.arange(27))


def _walk(start: int, letters: np.ndarray, tables: tuple, lower: tuple) -> tuple[np.ndarray, int]:
    """The states before each of a chunk's jumps (uint8), and the state after
    them, from start and the jumps' letters (uint8), tables and lower being
    their _walk_tables. State halving: one compose lookup per adjacent pair
    of letters, read as one uint16 (an odd last letter is paired with
    itself), gives the pair's map as a letter of lower; the walk of those
    maps gives the state before each pair, and one split lookup by the pair
    and that state gives the states before its two jumps. Below 48 letters a
    Python loop costs less than the numpy calls."""
    compose, split = tables
    if len(letters) < 48:
        states = []
        for letter in letters.tolist():
            states.append(start)
            start = split.item(3 * letter + start) >> 8
        return np.array(states, dtype=np.uint8), start
    pairs = (np.append(letters, letters[-1]) if len(letters) % 2 else letters).view("<u2")
    index = pairs * 3  # letters are below 27, so index stays below 2**16
    index += _walk(start, compose.take(pairs), lower, lower)[0]
    states = split.take(index).view(np.uint8)[:len(letters)]
    return states, split.item(3 * int(letters[-1]) + int(states[-1])) >> 8


#: SplitMix64's counter step (the golden ratio times 2**64) and multipliers.
_GOLDEN, _M1, _M2, _MASK = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 2**64 - 1


def _mix(z: int) -> int:
    """SplitMix64's mixer of a 64-bit Python int."""
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def _stream_key(seed: int, n_jumps: int) -> int:
    """The stream key: the 64-bit words of seed >= 0, low first, then n_jumps,
    folded through _mix in Python ints (numpy scalar arithmetic warns on overflow)."""
    key = 0
    for word in (*(seed >> s for s in range(0, max(seed.bit_length(), 1), 64)), n_jumps):
        key = _mix(((key + _GOLDEN) & _MASK) ^ (word & _MASK))
    return key


def _words(key: int, start: int, size: int) -> np.ndarray:
    """Words start .. start + size - 1 of the stream, whatever the split: word
    k is _mix(key + (k + 1) * _GOLDEN) mod 2**64, and its double in [0, 1) is
    (word >> 11) * 2**-53. Mixed in place on one uint64 buffer, which wraps
    silently, with one scratch buffer for the shifts."""
    z = np.arange(start + 1, start + size + 1, dtype=np.uint64)
    z *= _GOLDEN
    z += key
    shifted = np.empty_like(z)
    z ^= np.right_shift(z, 30, out=shifted)
    z *= _M1
    z ^= np.right_shift(z, 27, out=shifted)
    z *= _M2
    z ^= np.right_shift(z, 31, out=shifted)
    return z


#: Buckets of the stream words' top bits: word >> 52 is 0 .. _BUCKETS - 1.
_BUCKET_BITS = 12
_BUCKETS = 1 << _BUCKET_BITS


def _bucket_tables(breaks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The interval lookup of the sorted breakpoints breaks, by the top bits
    of a stream word. Bucket k holds the doubles u in [k, k + 1) / _BUCKETS;
    below[k], breaks.searchsorted(k / _BUCKETS), counts the breakpoints under
    all of them, and ambiguous[k] marks a breakpoint in the bucket (one on
    its lower edge too: u may equal it), where u's own count can be larger.
    At most one bucket per breakpoint is ambiguous."""
    edges = breaks.searchsorted(np.arange(_BUCKETS + 1) * (1.0 / _BUCKETS))
    return edges[:-1].astype(np.uint8), edges[1:] != edges[:-1]


def _intervals(words: np.ndarray, breaks: np.ndarray, below: np.ndarray,
               ambiguous: np.ndarray) -> np.ndarray:
    """breaks.searchsorted(u) of each word's double u, exactly (uint8): read
    from the _bucket_tables of breaks by the word's top bits, and searched
    for the words of ambiguous buckets alone."""
    top = (words >> 64 - _BUCKET_BITS).view(np.intp)
    interval, exact = below.take(top), np.flatnonzero(ambiguous.take(top))
    interval[exact] = breaks.searchsorted((words[exact] >> 11) * 2.0**-53)
    return interval


def gillespie_estimate(freqs: np.ndarray, prefactors: np.ndarray, temperatures: np.ndarray,
                       n_jumps: int, seed: int) -> StochasticEstimate:
    """Simulate the continuous-time jump process and estimate steady values.

    The rates are thermal_rates of solve_scenarios' inputs at N = 1, as
    SystemConfig.channels gives them; a jump through channel l moves energy
    E_target - E_source out of bath l, the level energies being (0, omega10,
    omega20). The first n_jumps // 100 jumps are burn-in; the remaining
    n_jumps fall in 50 contiguous batches.

    No wait is drawn: a jump from state s counts for its mean wait 1/r_s,
    r_s the exit rate of s (Rao-Blackwellisation: Casella and Robert,
    Biometrika 83, 81, 1996). A batch's time in s is its visits to s over
    r_s, and its heat out of bath l is E_1 m_l1 + E_2 m_l2, m_ls its jumps
    into s through l less those out of s: integer counts, so each result is
    a function of the arguments alone, bit for bit.

    Jump k leaves s for the first outcome of s's table whose cumulative
    probability is at least u[k] = (w[k] >> 11) * 2**-53, w[k] word k of the
    SplitMix64 stream of seed and n_jumps (_stream_key, _words). The run,
    burn-in included, is walked in chunks of CHUNK_JUMPS jumps (the last
    may be shorter) that do not stop at the end of the burn-in or of a
    batch. In each, u[k]'s interval among the merged outcome tables
    (_interval_tables) names the jump's next-state map. The interval is read
    from a table of 4096 buckets by w[k]'s top 12 bits (_bucket_tables); in
    a bucket that holds a breakpoint, at most one per breakpoint, it is
    searched for exactly (_intervals). A state-halving walk of the intervals
    (_walk) gives the states the jumps leave, and the chunk's jump kinds are
    split at the batch ends only for the bincounts into each batch's counts.

    Each sigma is the spread of the 50 batch means, floored at one count
    over the total time T: (1/r_s)/T for p_s, and the largest |E_j - E_i|
    of channel l's jumps over T for j_l.
    """
    if operator.index(seed) < 0:  # TypeError for a non-integer
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    n_jumps = operator.index(n_jumps)  # likewise
    if n_jumps < MIN_JUMPS:
        raise ValueError(f"n_jumps must be at least {MIN_JUMPS}, got {n_jumps}")
    if len(freqs) != 1:
        raise ValueError(f"gillespie_estimate walks one scenario, got {len(freqs)}")
    up, down = thermal_rates(freqs, prefactors, temperatures)
    if not strongly_connected(*edge_rates(up, down))[0]:
        raise ReducibleChain("rate digraph is not strongly connected")

    energies = np.array([0.0, freqs[0, 0], freqs[0, 2]])
    # rate[l, i, j]: channel l's rate of the jump i -> j; transition t is
    # ((0, 1), (1, 2), (0, 2))[t], up at up[0, l, t] and down at down[0, l, t]
    rate = np.zeros((3, 3, 3))
    rate[:, (0, 1, 0), (1, 2, 2)] = up[0]
    rate[:, (1, 2, 2), (0, 1, 0)] = down[0]
    # Per state: exit rate and the outcome table (cumulative prob, target,
    # channel index) of its jumps of positive rate, channel by channel (cumsum
    # adds in order), padded to 7 with an outcome u never exceeds that stays put.
    cum = np.full((3, 7), np.inf)
    target = np.repeat(np.arange(3)[:, None], 7, axis=1)
    channel = np.zeros((3, 7), dtype=np.intp)
    exit_rate = np.zeros(3)
    for i in range(3):
        ci, j = np.nonzero(rate[:, i] > 0.0)
        acc = np.cumsum(rate[ci, i, j])
        exit_rate[i] = acc[-1]
        cum[i, :len(j)], target[i, :len(j)], channel[i, :len(j)] = acc / acc[-1], j, ci

    breaks, code, outcome = _interval_tables(cum, target)
    below, ambiguous = _bucket_tables(breaks)
    top, lower = _walk_tables(code)
    # flow[k, i, l, s]: 1 if the jump of interval k from state i goes into s
    # through channel l, -1 if it leaves s through l, else 0 (so 0 for a
    # padded outcome)
    k, i = np.indices(outcome.shape)
    level = np.eye(3, dtype=np.int64)
    flow = np.zeros(outcome.shape + (3, 3), dtype=np.int64)
    flow[k, i, channel[i, outcome]] = level[target[i, outcome]] - level[i]
    largest_step = np.where(rate > 0.0, abs(energies - energies[:, None]), 0.0).max(axis=(1, 2))

    n_burn = n_jumps // 100
    key = _stream_key(operator.index(seed), n_jumps)

    counts = np.zeros((_BATCHES, 3 * len(outcome)), dtype=np.int64)
    # jump k of the run, k >= n_burn, falls in batch (k - n_burn) * _BATCHES // n_jumps
    ends = [n_burn - (-b * n_jumps // _BATCHES) for b in range(_BATCHES + 1)]
    total, state = n_burn + n_jumps, 0
    for start in range(0, total, CHUNK_JUMPS):
        stop = min(start + CHUNK_JUMPS, total)
        interval = _intervals(_words(key, start, stop - start), breaks, below, ambiguous)
        states, state = _walk(state, interval, top, lower)
        jump = 3 * interval + states  # the kind of each jump, below 3 * 22 in uint8
        # the batches of jumps start .. stop - 1 (none in the burn-in)
        for b in range(max(start - n_burn, 0) * _BATCHES // n_jumps,
                       (stop - 1 - n_burn) * _BATCHES // n_jumps + 1):
            part = jump[max(ends[b], start) - start:min(ends[b + 1], stop) - start]
            counts[b] += np.bincount(part, minlength=counts.shape[1])

    with np.errstate(over="ignore", invalid="ignore"):  # exit rates near the float's least
        occ = counts.reshape(_BATCHES, -1, 3).sum(axis=1) / exit_rate
        time_in_batch = occ[:, 0] + occ[:, 1] + occ[:, 2]
        t_total = time_in_batch.sum()
        p_hat = occ.sum(axis=0) / t_total
    if not np.isfinite(p_hat).all():
        raise ValueError("occupation times beyond the float range: the exit rates are too small")
    net = (counts @ flow.reshape(-1, 9)).reshape(_BATCHES, 3, 3)
    heat = net[:, :, 1] * energies[1] + net[:, :, 2] * energies[2]
    j_hat = heat.sum(axis=0) / t_total
    p_b = occ / time_in_batch[:, None]
    j_b = heat / time_in_batch[:, None]
    with np.errstate(over="ignore"):  # a mean wait or batch currents beyond ~1e154: sigma is inf
        sigma_p = np.maximum(p_b.std(axis=0, ddof=1) / np.sqrt(_BATCHES), 1.0 / exit_rate / t_total)
        sigma_j = np.maximum(j_b.std(axis=0, ddof=1) / np.sqrt(_BATCHES), largest_step / t_total)
    for arr in (p_hat, sigma_p, j_hat, sigma_j):
        arr.setflags(write=False)
    return StochasticEstimate(p_hat, sigma_p, j_hat, sigma_j, n_jumps, seed)
