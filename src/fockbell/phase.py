"""Sequential measurement simulation and phase-emergence analysis.

Outcome sequences are drawn one measurement at a time from the chain-rule
conditionals, either under the full quantum law or in the classical-phase
regime; the posterior phase density sharpens as results accumulate, and
:func:`peak_statistics` quantifies how.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exact
from .model import ExperimentConfig, OutcomeSequence, PhaseDistribution

__all__ = [
    "ConditioningError",
    "phase_posterior",
    "next_outcome_probability",
    "sample_sequence",
    "sample_sequences",
    "peak_statistics",
    "PeakStats",
]

TWO_PI = 2.0 * math.pi
DEFAULT_RESOLUTION = 1024
_PEAK_THRESHOLD = 0.05
_FLATNESS_TOL = 1e-9


class ConditioningError(ValueError):
    """The conditioning history has probability zero."""


def _chain_generator(seed: int, chain: int) -> np.random.Generator:
    # counter-based keying: stream is a pure function of (seed, chain index)
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), chain]))


def phase_posterior(angles, outcomes, resolution: int = DEFAULT_RESOLUTION) -> PhaseDistribution:
    """Posterior phase density after a history of measurements.

    Multiplies one factor 1 + eta*cos(lambda - phi) per past measurement on a
    uniform grid, renormalizing after every factor so that hundreds of
    updates cannot underflow.  An empty history returns the uniform density.
    """
    angles = [float(a) for a in angles]
    etas = [int(e) for e in outcomes]
    if len(angles) != len(etas):
        raise ValueError("angles and outcomes must pair up")
    grid = PhaseDistribution.uniform_grid(resolution)
    values = np.full(resolution, 1.0 / TWO_PI)
    for phi, eta in zip(angles, etas):
        values = values * (1.0 + eta * np.cos(grid - phi))
        norm = values.mean() * TWO_PI
        if norm <= 0.0:
            raise ConditioningError("history has zero probability")
        values /= norm
    return PhaseDistribution(grid=grid, values=values)


def next_outcome_probability(config: ExperimentConfig, history, *,
                             mode: str = "exact") -> float:
    """Probability that the next measurement gives +1, given the history.

    The next angle is ``config.angles[len(history)]``.  This is the chain-rule
    conditional the samplers draw from, under the quantum (``"exact"``) or
    the classical-phase law, taken from the same renormalized history state.
    """
    if not isinstance(history, OutcomeSequence):
        history = OutcomeSequence(tuple(history))
    m = len(history)
    if m >= config.m:
        raise ValueError("history already covers every configured measurement")
    kernel = exact._Bracket.for_law(mode, config.n_plus, config.n_minus, config.m)
    g = np.ones((1,) + kernel.shape)
    for eta, phi in zip(history.etas, config.angles):
        g = _condition(kernel, g, np.array([eta]), phi)
    return float(_plus_probability(kernel, g, m, config.angles[m])[0])


# ---------------------------------------------------------------------------
# Batched sequential sampling.  Chains are independent; chain i consumes the
# Philox stream keyed by (seed, i) regardless of batching.
# ---------------------------------------------------------------------------

def _sample_exact_grouped(config: ExperimentConfig, u: np.ndarray) -> np.ndarray:
    """Exact-mode sampling deduplicated over same-angle outcome counts.

    The joint probability is invariant under permuting outcomes within one
    measurement angle, so a chain's conditional depends on its history only
    through the per-angle (+1, -1) counts.  All chains sharing a count
    vector reuse one quadrature evaluation, which removes the per-chain grid
    work entirely when only a few distinct angles occur.
    """
    m = config.m
    kernel = exact._Bracket.quantum(config.n_plus, config.n_minus, m)
    groups: list[float] = []
    group_of = []
    for phi in config.angles:
        if phi not in groups:
            groups.append(phi)
        group_of.append(groups.index(phi))
    ngroups = len(groups)
    # bracket powers per group and sign, up to that group's multiplicity
    counts_per_group = [group_of.count(g) for g in range(ngroups)]
    powers = []
    for g, phi in enumerate(groups):
        plus = kernel.bracket(1, phi)
        minus = kernel.bracket(-1, phi)
        pp, mp = [np.ones_like(plus)], [np.ones_like(plus)]
        for _ in range(counts_per_group[g]):
            pp.append(pp[-1] * plus)
            mp.append(mp[-1] * minus)
        powers.append((pp, mp))

    cache: dict[tuple, float] = {}

    def joint(state: tuple) -> float:
        # state = (plus_0, minus_0, plus_1, minus_1, ...)
        val = cache.get(state)
        if val is None:
            integ = kernel.weight(sum(state))
            for g in range(ngroups):
                pp, mp = powers[g]
                integ = integ * pp[state[2 * g]] * mp[state[2 * g + 1]]
            val = float(integ.mean())
            cache[state] = val
        return val

    count = u.shape[0]
    states = np.zeros((count, 2 * ngroups), dtype=np.int16)
    etas = np.empty((count, m), dtype=np.int8)
    for j in range(m):
        g = group_of[j]
        uniq, inverse = np.unique(states, axis=0, return_inverse=True)
        cond = np.empty(uniq.shape[0])
        for i, row in enumerate(uniq):
            here = tuple(int(x) for x in row)
            denom = joint(here)
            if denom <= 0.0:
                raise ConditioningError("conditioning probability vanished during sampling")
            plus_state = list(here)
            plus_state[2 * g] += 1
            cond[i] = joint(tuple(plus_state)) / (2.0 * denom)
        prob_plus = np.clip(cond[inverse], 0.0, 1.0)
        eta = np.where(u[:, j] < prob_plus, 1, -1).astype(np.int8)
        etas[:, j] = eta
        states[eta > 0, 2 * g] += 1
        states[eta < 0, 2 * g + 1] += 1
    return etas


def _plus_probability(kernel: exact._Bracket, g: np.ndarray, j: int,
                      phi: float) -> np.ndarray:
    """P(eta_j = +1 | history) per chain; ``g`` holds each history's bracket product."""
    plain = g.sum(axis=2)                        # sum over lambda
    weighted = (g * kernel.transverse(phi)).sum(axis=2)
    num_plus = ((plain * kernel.cos_big[:, 0] + weighted) * kernel.weight(j + 1)[:, 0]).sum(axis=1)
    total = 2.0 * (plain * kernel.weight(j)[:, 0]).sum(axis=1)
    if np.any(total <= 0.0):
        raise ConditioningError("conditioning history has zero probability")
    return np.clip(num_plus / total, 0.0, 1.0)


def _condition(kernel: exact._Bracket, g: np.ndarray, eta: np.ndarray,
               phi: float) -> np.ndarray:
    """Extend each chain's bracket product by its result, rescaled to unit mean modulus."""
    g = g * kernel.bracket(eta[:, None, None], phi)
    scale = np.abs(g).mean(axis=(1, 2))
    return g / np.maximum(scale, 1e-300)[:, None, None]


def _sample_batch(kernel: exact._Bracket, angles, u: np.ndarray) -> np.ndarray:
    """Chain-rule sampling under either law, one renormalized grid state per chain."""
    count, m = u.shape
    g = np.ones((count,) + kernel.shape)
    etas = np.empty((count, m), dtype=np.int8)
    for j, phi in enumerate(angles):
        eta = np.where(u[:, j] < _plus_probability(kernel, g, j, phi), 1, -1).astype(np.int8)
        etas[:, j] = eta
        g = _condition(kernel, g, eta, phi)
    return etas


def sample_sequences(config: ExperimentConfig, count: int, seed: int, *,
                     mode: str = "exact", batch_size: int | None = None) -> np.ndarray:
    """Draw ``count`` outcome sequences; returns an int8 array (count, M).

    Deterministic in ``seed``: chain i is a pure function of (seed, i), so
    neither ``count`` nor ``batch_size`` changes previously drawn chains.
    """
    kernel = exact._Bracket.for_law(mode, config.n_plus, config.n_minus, config.m)
    if count < 1:
        raise ValueError("need a positive sample count")
    m = config.m
    if m == 0:
        return np.empty((count, 0), dtype=np.int8)
    grouped = mode == "exact" and len(set(config.angles)) <= 6
    # batches hold about 4e6 grid cells: 2(M + 1)(M + 2) per chain, 2(M + 2) if classical
    if batch_size is None:
        batch_size = count if grouped else max(1, min(count, 4_000_000 // math.prod(kernel.shape)))
    out = np.empty((count, m), dtype=np.int8)
    for start in range(0, count, batch_size):
        stop = min(start + batch_size, count)
        u = np.empty((stop - start, m))
        for chain in range(start, stop):
            u[chain - start] = _chain_generator(seed, chain).random(m)
        if grouped:
            out[start:stop] = _sample_exact_grouped(config, u)
        else:
            out[start:stop] = _sample_batch(kernel, config.angles, u)
    return out


def sample_sequence(config: ExperimentConfig, seed: int, *, mode: str = "exact") -> OutcomeSequence:
    """Draw one outcome sequence (chain 0 of the given seed)."""
    etas = sample_sequences(config, 1, seed, mode=mode)[0]
    return OutcomeSequence(tuple(int(e) for e in etas))


@dataclass(frozen=True)
class PeakStats:
    """Peak census of a phase distribution."""

    count: int
    locations: tuple[float, ...]
    widths: tuple[float, ...]


def _halfway_crossing(grid: np.ndarray, values: np.ndarray, start: int,
                      half: float, step: int) -> float:
    """Arc distance from grid[start] to the half-maximum crossing, cyclic walk."""
    k = grid.size
    spacing = TWO_PI / k
    dist = 0.0
    i = start
    for _ in range(k):
        nxt = (i + step) % k
        if values[nxt] < half:
            # linear interpolation between node i and node nxt
            frac = (values[i] - half) / (values[i] - values[nxt])
            return dist + frac * spacing
        dist += spacing
        i = nxt
    return math.pi  # never crossed within half a turn per side


def peak_statistics(dist: PhaseDistribution) -> PeakStats:
    """Locate peaks and their widths.

    A peak is a strict cyclic local maximum whose height reaches 5% of the
    global maximum; a numerically flat density has none.  Width is the full
    width at half maximum, found by walking down both flanks with linear
    interpolation between grid nodes.
    """
    v = dist.values
    top = float(v.max())
    if top <= 0.0 or (top - float(v.min())) <= _FLATNESS_TOL * top:
        return PeakStats(0, (), ())
    left = np.roll(v, 1)
    right = np.roll(v, -1)
    is_peak = (v > left) & (v > right) & (v >= _PEAK_THRESHOLD * top)
    locations, widths = [], []
    for i in np.flatnonzero(is_peak):
        half = 0.5 * v[i]
        w = (_halfway_crossing(dist.grid, v, i, half, -1)
             + _halfway_crossing(dist.grid, v, i, half, +1))
        locations.append(float(dist.grid[i]))
        widths.append(float(min(w, TWO_PI)))
    return PeakStats(len(locations), tuple(locations), tuple(widths))
