"""Stationary state of the three-level rate equations.

Three independent routes to the same physics live here: the batched
tree-theorem solve with its heat currents (the source of truth and the
package's one solve path), the closed-form current amplitude of the
perfectly filtered limit (cross-check), and a jump-process Monte Carlo
estimator that takes the solve's inputs at N = 1.

The estimator (Gillespie, J. Phys. Chem. 81, 2340, 1977) walks the jump
chain in chunks, without a Python loop per jump, and draws no waiting
times: each jump counts for its conditional mean wait, the inverse exit
rate of the state it leaves (Rao-Blackwellisation; Casella and Robert,
Biometrika 83, 81, 1996). An interval lookup names each jump's outcome, a
prefix scan of next-state maps gives the trajectory, and each batch keeps
integer jump counts, from which its times and heats follow.
"""

from __future__ import annotations

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
CHUNK_JUMPS = 8192

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
    sum_t w_t (u p_i + d p_j) of any channel.
    """
    s, (k01, k10, k12, k21, k02, k20), w = trees
    norm = (w[0] + w[1] + w[2]) / s
    net = []
    for t, (kij, kji, kmi, kmj, kjm, kim) in enumerate((
        (k01, k10, k20, k21, k12, k02),  # 0 -> 1
        (k12, k21, k01, k02, k20, k10),  # 1 -> 2
        (k02, k20, k10, k12, k21, k01),  # 0 -> 2
    )):
        u, d = up[:, :, t] / s[:, None], down[:, :, t] / s[:, None]
        f = ((kmi + kmj)[:, None] * (u * kji[:, None] - d * kij[:, None])
             + u * (kjm * kmi)[:, None] - d * (kim * kmj)[:, None])
        net.append(freqs[:, t, None] * f / norm[:, None])
    w_t = freqs[:, None, :]
    gross = w_t * up * p[:, None, [0, 1, 0]] + w_t * down * p[:, None, [1, 2, 2]]
    g = gross[..., 0] + gross[..., 1] + gross[..., 2]
    return net[0] + net[1] + net[2], np.maximum(np.maximum(g[:, 0], g[:, 1]), g[:, 2])


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


def _compose_table() -> np.ndarray:
    """The code of map a followed by map b, at 27 * a + b. It is built per
    estimate, not at import: numpy work at import raised the peak memory of
    every command."""
    digits = np.arange(27)[:, None] // _DIGIT_WEIGHTS % 3
    return (digits[np.arange(27)[None, :, None], digits[:, None, :]] @ _DIGIT_WEIGHTS).ravel()


def _prefixes(codes: np.ndarray, compose: np.ndarray) -> np.ndarray:
    """prefix[j], the composition of the maps codes[0] .. codes[j], by exact
    lookups in compose (_compose_table): the prefixes of the pairs (0, 1),
    (2, 3), ... are those at odd j, and one lookup each gives the even j
    (Ladner and Fischer, J. ACM 27, 831, 1980), about 2 L lookups in all."""
    if len(codes) == 1:
        return codes
    odd = _prefixes(compose.take(27 * codes[:-1:2] + codes[1::2]), compose)
    prefix = codes.copy()
    prefix[1::2] = odd
    prefix[2::2] = compose.take(27 * odd[:(len(codes) - 1) // 2] + codes[2::2])
    return prefix


def _scan(start: int, codes: np.ndarray, compose: np.ndarray) -> tuple[np.ndarray, int]:
    """The states before each jump of a chunk, and the state after it, from
    start and the chunk's next-state map codes, by way of their _prefixes."""
    after = (np.arange(27) // 3**start % 3).take(_prefixes(codes, compose))
    return np.concatenate(([start], after[:-1])), int(after[-1])


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
    probability is at least u[k], the k-th double of PCG64(seed) after its
    first n_burn + n_jumps. In chunks of at most CHUNK_JUMPS jumps, none
    spanning the end of the burn-in or of a batch, u[k]'s interval among
    the merged outcome tables (_interval_tables) names the jump's next-state
    map, a prefix scan of the maps (_scan) gives the states the jumps leave,
    and a bincount adds the jumps to their batch's counts.

    Each sigma is the spread of the 50 batch means, floored at one count
    over the total time T: (1/r_s)/T for p_s, and the largest |E_j - E_i|
    of channel l's jumps over T for j_l.
    """
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
    compose = _compose_table()
    # flow[k, i, l, s]: 1 if the jump of interval k from state i goes into s
    # through channel l, -1 if it leaves s through l, else 0 (so 0 for a
    # padded outcome)
    k, i = np.indices(outcome.shape)
    level = np.eye(3, dtype=np.int64)
    flow = np.zeros(outcome.shape + (3, 3), dtype=np.int64)
    flow[k, i, channel[i, outcome]] = level[target[i, outcome]] - level[i]
    largest_step = np.where(rate > 0.0, abs(energies - energies[:, None]), 0.0).max(axis=(1, 2))

    n_burn = n_jumps // 100
    picks = np.random.Generator(np.random.PCG64(seed).advance(n_burn + n_jumps))

    def chunk(state: int, size: int) -> tuple[np.ndarray, int]:
        """The next size jumps from state: their kind 3 * interval + the
        state they leave, and the state after them."""
        u = picks.random(size)
        interval = np.zeros(size, dtype=np.intp)
        for b in breaks:  # breaks.searchsorted(u), without its mispredicted branches
            interval += u > b
        states, state = _scan(state, code[interval], compose)
        return 3 * interval + states, state

    state = 0
    for start in range(0, n_burn, CHUNK_JUMPS):
        state = chunk(state, min(CHUNK_JUMPS, n_burn - start))[1]
    counts = np.zeros((_BATCHES, 3 * len(outcome)), dtype=np.int64)
    # jump k after the burn-in falls in batch k * _BATCHES // n_jumps
    ends = [-(-b * n_jumps // _BATCHES) for b in range(_BATCHES + 1)]
    for b in range(_BATCHES):
        for start in range(ends[b], ends[b + 1], CHUNK_JUMPS):
            jump, state = chunk(state, min(CHUNK_JUMPS, ends[b + 1] - start))
            counts[b] += np.bincount(jump, minlength=counts.shape[1])

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
