"""Stationary state of the three-level rate equations.

Three independent routes to the same physics live here: the batched
tree-theorem solve with its heat currents (the source of truth and the
package's one solve path; solve_steady applies it to one RateMatrix), the
closed-form current amplitude of the perfectly filtered limit (cross-check),
and a jump-process Monte Carlo estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log1p

import numpy as np

from .circuit import QutritSpectrum
from .errors import ReducibleChain
from .rates import RateMatrix, thermal_rates

#: Max-norm bound on the residual of the (time-normalized) rate equations.
RESIDUAL_TOL = 1e-10

MIN_JUMPS = 10_000
_BATCHES = 50


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


def edge_rates(total) -> tuple:
    """(k01, k10, k12, k21, k02, k20), kij the rate i -> j, of [..., j, i] matrices."""
    t = np.asarray(total, dtype=float)
    return t[..., 1, 0], t[..., 0, 1], t[..., 2, 1], t[..., 1, 2], t[..., 2, 0], t[..., 0, 2]


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
    state 0 absorbs, yet the tree sum is nonzero) p must not be used."""
    connected = strongly_connected(k01, k10, k12, k21, k02, k20)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _, (k01, k10, k12, k21, k02, k20), (w0, w1, w2) = _trees(k01, k10, k12, k21, k02, k20)
        norm = w0 + w1 + w2
        p0, p1, p2 = w0 / norm, w1 / norm, w2 / norm
        residual = np.maximum(np.maximum(
            abs(-(k01 + k02) * p0 + k10 * p1 + k20 * p2),
            abs(k01 * p0 - (k10 + k12) * p1 + k21 * p2)),
            abs(k02 * p0 + k12 * p1 - (k20 + k21) * p2))
    return np.stack([p0, p1, p2], axis=-1), residual, connected


def channel_currents(freqs, up, down, p):
    """Stationary heat currents j (N, channel) and their scale (N,).

    freqs (N, 3) holds (omega10, omega21, omega20), up and down the
    (N, channel, transition) rates, p the (N, 3) populations. J_l is
    sum_t w_t f_lt, f_lt = u p_i - d p_j channel l's net flux up t = i -> j.
    With p_i = w_i / W and m the third state, f_lt W = (k_mi + k_mj)
    (u k_ji - d k_ij) + u k_jm k_mi - d k_im k_mj: the first term is exactly
    0 when one channel drives t alone, the second is the cycle affinity, so
    u p_i and d p_j never cancel. scale is the largest gross one-way flow
    sum_t w_t (u p_i + d p_j) of any channel.
    """
    k_up, k_down = up[:, 0] + up[:, 1] + up[:, 2], down[:, 0] + down[:, 1] + down[:, 2]
    s, (k01, k10, k12, k21, k02, k20), w = _trees(
        k_up[:, 0], k_down[:, 0], k_up[:, 1], k_down[:, 1], k_up[:, 2], k_down[:, 2])
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
        k_up, k_down = up[:, 0] + up[:, 1] + up[:, 2], down[:, 0] + down[:, 1] + down[:, 2]
        p, residual, connected = stationary(
            k_up[:, 0], k_down[:, 0], k_up[:, 1], k_down[:, 1], k_up[:, 2], k_down[:, 2])
        return (p, residual, connected, *channel_currents(freqs, up, down, p))


#: Why a scenario failed, by the code failure_codes gives it.
FAILURE_KINDS = ("", "ReducibleChain", "ValueError")


def failure_codes(residual, connected) -> np.ndarray:
    """0 solved, 1 not strongly connected, 2 residual above RESIDUAL_TOL."""
    return np.where(connected, np.where(residual <= RESIDUAL_TOL, 0, 2), 1)


def steady_state(p: np.ndarray, residual, connected) -> SteadyState:
    """One kernel row as a SteadyState; raises as FAILURE_KINDS names."""
    if not connected:
        raise ReducibleChain("rate digraph is not strongly connected")
    p = p.copy()
    p.setflags(write=False)
    return SteadyState(p=p, residual=float(residual))


def solve_steady(rates: RateMatrix) -> SteadyState:
    """Unique stationary distribution of the total rate matrix (stationary
    at N = 1); raises ReducibleChain for a chain that is not strongly
    connected rather than return one of many stationary vectors."""
    p, residual, connected = stationary(*(k[None] for k in edge_rates(rates.total)))
    return steady_state(p[0], residual[0], connected[0])


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
    sign agrees with the net cycle flux of solve_steady (a test pins this).
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

    Standard errors come from batch means over contiguous stretches of the
    trajectory. Positive currents mean heat flowing out of the bath, matching
    the deterministic pipeline.
    """

    p_hat: np.ndarray
    sigma_p: np.ndarray
    j_hat: np.ndarray
    sigma_j: np.ndarray
    n_jumps: int
    seed: int

    def __post_init__(self) -> None:
        if abs(float(self.p_hat.sum()) - 1.0) > 1e-9:
            raise ValueError("estimated populations must sum to 1")


def gillespie_estimate(
    rates: RateMatrix,
    spectrum: QutritSpectrum,
    n_jumps: int,
    seed: int,
) -> StochasticEstimate:
    """Simulate the continuous-time jump process and estimate steady values.

    Waiting times are exponential in the total exit rate of the current
    state; the jump target and the responsible channel are drawn from the
    individual rates. Each jump through channel l moves energy
    E_target - E_source out of bath l. The first n_jumps // 100 jumps are
    discarded as burn-in; the remaining n_jumps are accumulated in
    occupation-time averages. Deterministic for a given seed.
    """
    if n_jumps < MIN_JUMPS:
        raise ValueError(f"n_jumps must be at least {MIN_JUMPS}, got {n_jumps}")
    if not strongly_connected(*edge_rates(rates.total)):
        raise ReducibleChain("rate digraph is not strongly connected")

    energies = spectrum.energies
    order = sorted(rates.per_channel)
    # Per state: exit rate and the outcome table (cumulative prob, target,
    # channel index, energy out of that channel's bath).
    exit_rate = [0.0, 0.0, 0.0]
    outcomes: list[list[tuple[float, int, int, float]]] = [[], [], []]
    for i in range(3):
        acc = 0.0
        table = []
        for ci, cid in enumerate(order):
            g = rates.per_channel[cid]
            for j in range(3):
                if j != i and g[j, i] > 0.0:
                    acc += float(g[j, i])
                    table.append((acc, j, ci, energies[j] - energies[i]))
        exit_rate[i] = acc
        outcomes[i] = [(c / acc, j, ci, de) for (c, j, ci, de) in table]

    n_burn = n_jumps // 100
    total_jumps = n_burn + n_jumps
    rng = np.random.Generator(np.random.PCG64(seed))
    u_wait = rng.random(total_jumps).tolist()
    u_pick = rng.random(total_jumps).tolist()

    occ = np.zeros((_BATCHES, 3))
    heat = np.zeros((_BATCHES, len(order)))
    time_in_batch = np.zeros(_BATCHES)

    state = 0
    for k in range(total_jumps):
        dt = -log1p(-u_wait[k]) / exit_rate[state]
        u = u_pick[k]
        target = state
        ci = 0
        de = 0.0
        for cum, j, c, d in outcomes[state]:
            if u <= cum:
                target, ci, de = j, c, d
                break
        if k >= n_burn:
            b = (k - n_burn) * _BATCHES // n_jumps
            time_in_batch[b] += dt
            occ[b, state] += dt
            heat[b, ci] += de
        state = target

    t_total = time_in_batch.sum()
    p_hat = occ.sum(axis=0) / t_total
    j_hat = heat.sum(axis=0) / t_total
    p_b = occ / time_in_batch[:, None]
    j_b = heat / time_in_batch[:, None]
    sigma_p = p_b.std(axis=0, ddof=1) / np.sqrt(_BATCHES)
    with np.errstate(over="ignore"):  # batch currents beyond ~1e154: sigma is inf
        sigma_j = j_b.std(axis=0, ddof=1) / np.sqrt(_BATCHES)
    for arr in (p_hat, sigma_p, j_hat, sigma_j):
        arr.setflags(write=False)
    return StochasticEstimate(
        p_hat=p_hat,
        sigma_p=sigma_p,
        j_hat=j_hat,
        sigma_j=sigma_j,
        n_jumps=n_jumps,
        seed=seed,
    )
