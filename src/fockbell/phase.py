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
# Batched sequential sampling.  The law is symmetric in the results taken at
# one angle, so a chain's next conditional depends on its history only through
# its (+1, -1) counts per distinct angle: chains sharing those counts share one
# renormalized grid row.  Chain i consumes the Philox stream keyed by (seed, i)
# and depends only on the chains before it in its batch, so the count never
# changes it.
# ---------------------------------------------------------------------------

# grid cells per batch of chains, at one row per chain: 2(M + 1)(M + 2) per row,
# 2(M + 2) if classical; a batch never holds more rows than chains
_BATCH_CELLS = 4_000_000


def _plus_probability(kernel: exact._Bracket, g: np.ndarray, j: int,
                      phi: float) -> np.ndarray:
    """P(eta_j = +1 | history) per row of ``g``, each row one history's bracket product."""
    plain = g.sum(axis=2)                        # sum over lambda
    weighted = (g * kernel.transverse(phi)).sum(axis=2)
    num_plus = ((plain * kernel.cos_big[:, 0] + weighted) * kernel.weight(j + 1)[:, 0]).sum(axis=1)
    total = 2.0 * (plain * kernel.weight(j)[:, 0]).sum(axis=1)
    if np.any(total <= 0.0):
        raise ConditioningError("conditioning history has zero probability")
    return np.clip(num_plus / total, 0.0, 1.0)


def _condition(kernel: exact._Bracket, g: np.ndarray, eta: np.ndarray,
               phi: float) -> np.ndarray:
    """Extend each row's bracket product by its result, rescaled to unit mean modulus."""
    g = g * kernel.bracket(eta[:, None, None], phi)
    scale = np.abs(g).mean(axis=(1, 2))
    return g / np.maximum(scale, 1e-300)[:, None, None]


def _sample_batch(kernel: exact._Bracket, angles, u: np.ndarray) -> np.ndarray:
    """Chain-rule sampling under either law, one renormalized grid row per count state.

    A state is a chain's vector of +1 counts per distinct angle; the -1 counts
    follow from the step.  Each new state's row extends the parent row of the
    state's lowest-index chain.
    """
    count, m = u.shape
    column = np.unique(np.asarray(angles, dtype=float), return_inverse=True)[1].reshape(-1)
    plus = np.zeros((count, column.max() + 1), dtype=np.int32)
    state = np.zeros(count, dtype=np.intp)       # row of each chain
    g = np.ones((1,) + kernel.shape)
    etas = np.empty((count, m), dtype=np.int8)
    for j, phi in enumerate(angles):
        prob_plus = _plus_probability(kernel, g, j, phi)[state]
        eta = np.where(u[:, j] < prob_plus, 1, -1).astype(np.int8)
        etas[:, j] = eta
        plus[:, column[j]] += eta > 0
        _, first, inverse = np.unique(plus, axis=0, return_index=True, return_inverse=True)
        g = _condition(kernel, g[state[first]], eta[first], phi)
        state = inverse.reshape(-1)
    return etas


def sample_sequences(config: ExperimentConfig, count: int, seed: int, *,
                     mode: str = "exact") -> np.ndarray:
    """Draw ``count`` outcome sequences; returns an int8 array (count, M).

    Deterministic in ``seed``: chain i is a pure function of (seed, i), so
    ``count`` does not change previously drawn chains.  Chains run in batches
    of about 4e6 grid cells, one grid row per distinct count state, so memory
    does not grow with ``count``.
    """
    kernel = exact._Bracket.for_law(mode, config.n_plus, config.n_minus, config.m)
    if count < 1:
        raise ValueError("need a positive sample count")
    m = config.m
    if m == 0:
        return np.empty((count, 0), dtype=np.int8)
    batch = max(1, min(count, _BATCH_CELLS // math.prod(kernel.shape)))
    out = np.empty((count, m), dtype=np.int8)
    for start in range(0, count, batch):
        stop = min(start + batch, count)
        u = np.empty((stop - start, m))
        for chain in range(start, stop):
            u[chain - start] = _chain_generator(seed, chain).random(m)
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
