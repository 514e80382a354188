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


def phase_posterior(angles, outcomes, resolution: int = DEFAULT_RESOLUTION) -> PhaseDistribution:
    """Posterior phase density after a history of measurements.

    The density is proportional to the product of one factor
    1 + eta*cos(lambda - phi) per past measurement.  The product commutes, so
    it depends on the history only through how many +1 and -1 results each
    distinct angle got: each (angle, outcome) pair adds its count times
    log(1 + eta*cos(grid - phi)) to one row of logs on a uniform grid, whose
    maximum is subtracted before one exponentiation and one normalization, so
    no length of history can underflow.  An empty history returns the uniform
    density; one whose density vanishes at every node raises
    :class:`ConditioningError`.
    """
    angles = np.array([float(a) for a in angles])
    etas = np.array([int(e) for e in outcomes], dtype=np.intp)
    if angles.size != etas.size:
        raise ValueError("angles and outcomes must pair up")
    if not np.isfinite(angles).all():
        raise ValueError("angles must be finite")
    if np.any(np.abs(etas) != 1):
        raise ValueError("outcomes must be +-1")
    grid = PhaseDistribution.uniform_grid(resolution)
    distinct, column = np.unique(angles, return_inverse=True)
    plus = np.bincount(column[etas > 0], minlength=distinct.size)
    minus = np.bincount(column[etas < 0], minlength=distinct.size)
    logs = np.zeros(resolution)
    cos = np.empty(resolution)
    term = np.empty(resolution)
    with np.errstate(divide="ignore"):   # log(0) = -inf where a factor vanishes
        for phi, n_plus, n_minus in zip(distinct, plus, minus):
            np.cos(np.subtract(grid, phi, out=cos), out=cos)
            for n, factor in ((n_plus, np.add), (n_minus, np.subtract)):
                if n:
                    np.log(factor(1.0, cos, out=term), out=term)
                    term *= n
                    logs += term
    top = logs.max()
    if top == -np.inf:
        raise ConditioningError("history has zero probability")
    values = np.exp(logs - top)
    values /= values.mean() * TWO_PI
    return PhaseDistribution(grid=grid, values=values)


def next_outcome_probability(config: ExperimentConfig, history, *,
                             mode: str = "exact") -> float:
    """Probability that the next measurement gives +1, given the history.

    The next angle is ``config.angles[len(history)]``.  This is the chain-rule
    conditional the samplers draw from, under the quantum (``"exact"``) or
    the classical-phase law, taken from the same coefficient row of the history.
    """
    if not isinstance(history, OutcomeSequence):
        history = OutcomeSequence(tuple(history))
    m = len(history)
    if m >= config.m:
        raise ValueError("history already covers every configured measurement")
    law = exact._Law.for_law(mode, config.n_plus, config.n_minus, config.m)
    row, _ = law.follow(history.etas, config.angles)
    return float(_branches(law, row, config.angles[m])[0][0])


# ---------------------------------------------------------------------------
# Batched sequential sampling.  The law is symmetric in the results taken at
# one angle, so a chain's next conditional depends on its history only through
# its (+1, -1) counts per distinct angle: chains sharing those counts share one
# rescaled coefficient row.  Chain i consumes NumPy's Philox4x64-10 stream keyed
# by (seed mod 2**64, i), computed per batch for all its chains at once; it
# depends only on the chains before it in its batch, so the count never
# changes it.
# ---------------------------------------------------------------------------

# complex coefficients per batch of chains, up to M + 1 per chain: no more rows than chains
_BATCH_CELLS = 1 << 19

_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _mulhi(a: int, b: np.ndarray) -> np.ndarray:
    """High 64-bit words of the 128-bit products ``a * b``, from 32-bit halves."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    low = b & _LOW32
    high = b >> _SHIFT32
    carry = high * a_lo
    high *= a_hi
    high += carry >> _SHIFT32
    carry &= _LOW32
    product = low * a_lo
    product >>= _SHIFT32
    carry += product
    low *= a_hi
    high += low >> _SHIFT32
    low &= _LOW32
    carry += low
    carry >>= _SHIFT32
    high += carry
    return high


def _philox_uniforms(seed: int, start: int, stop: int, m: int) -> np.ndarray:
    """The first ``m`` doubles of each chain's stream, chains ``start``..``stop - 1``.

    Row i equals ``Generator(Philox(key=k)).random(m)`` for the uint64 key
    k = (seed mod 2**64, start + i): block b of a stream is Philox4x64-10 of the
    counter (b + 1, 0, 0, 0), since NumPy increments the counter before each
    block, and each double is the top 53 bits of one word.  The rounds work in
    place, so the words and one product's temporaries are all they hold.
    """
    blocks = -(-m // 4)
    words = np.zeros((stop - start, blocks, 4), dtype=np.uint64)
    # each round writes its new x0, x1, x2, x3 over the old x1, x2, x3, x0, so
    # ten rounds rotate the slots by two: start two slots back to end in order
    x0, x1, x2, x3 = (words[..., w] for w in (2, 3, 0, 1))
    x0[...] = np.arange(1, blocks + 1, dtype=np.uint64)
    k0 = seed % 2**64
    k1 = np.arange(start, stop, dtype=np.uint64)[:, None]
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_WEYL[0]) % 2**64
            k1 += np.uint64(_PHILOX_WEYL[1])
        x3 ^= _mulhi(_PHILOX_MULTIPLIERS[0], x0)
        x3 ^= k1
        x0 *= np.uint64(_PHILOX_MULTIPLIERS[0])
        x1 ^= _mulhi(_PHILOX_MULTIPLIERS[1], x2)
        x1 ^= np.uint64(k0)
        x2 *= np.uint64(_PHILOX_MULTIPLIERS[1])
        x0, x1, x2, x3 = x1, x2, x3, x0
    words >>= np.uint64(11)
    return words.reshape(stop - start, 4 * blocks)[:, :m] * 2.0**-53


def _branches(law: exact._Law, rows: np.ndarray, phi: float):
    """P(+1 | history) per history row, and the rows extended by -1 and by +1."""
    branches = np.stack([law.extend(rows, phi, eta) for eta in (-1, 1)])
    mass = law.mass(branches, law.logs(rows.shape[-1]))
    total = mass[0] + mass[1]
    if np.any(total <= 0.0):
        raise ConditioningError("conditioning history has zero probability")
    return mass[1] / total, branches


def _sample_batch(law: exact._Law, angles, u: np.ndarray) -> np.ndarray:
    """Chain-rule sampling under either law, one rescaled coefficient row per count state.

    A state is a chain's vector of +1 counts per distinct angle; the -1 counts
    follow from the step.  Each new state's row extends the parent row of the
    state's lowest-index chain.
    """
    count, m = u.shape
    column = np.unique(np.asarray(angles, dtype=float), return_inverse=True)[1].reshape(-1)
    plus = np.zeros((count, column.max() + 1), dtype=np.int32)
    state = np.zeros(count, dtype=np.intp)       # row of each chain
    rows = np.ones((1, 1), dtype=complex)
    etas = np.empty((count, m), dtype=np.int8)
    for j, phi in enumerate(angles):
        prob_plus, branches = _branches(law, rows, phi)
        eta = np.where(u[:, j] < prob_plus[state], 1, -1).astype(np.int8)
        etas[:, j] = eta
        plus[:, column[j]] += eta > 0
        first, inverse = _group_rows(plus)
        rows = branches[(eta[first] > 0).astype(np.intp), state[first]]
        law.rescale(rows)
        state = inverse
    return etas


def _group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_index=True, return_inverse=True)[1:]``.

    One stable lexicographic sort: the distinct rows come in ascending order,
    each represented by its lowest index.
    """
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.empty(len(order), dtype=bool)
    new[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def sample_sequences(config: ExperimentConfig, count: int, seed: int, *,
                     mode: str = "exact") -> np.ndarray:
    """Draw ``count`` outcome sequences; returns an int8 array (count, M).

    Deterministic in ``seed``, taken modulo 2**64: chain i is a pure function
    of (seed mod 2**64, i), so ``count`` does not change previously drawn
    chains.  Chains run in batches of about 5e5 complex coefficients, one row of
    M + 1 per distinct count state; each batch's Philox streams are computed
    together, so memory does not grow with ``count``.
    """
    law = exact._Law.for_law(mode, config.n_plus, config.n_minus, config.m)
    if count < 1:
        raise ValueError("need a positive sample count")
    m = config.m
    if m == 0:
        return np.empty((count, 0), dtype=np.int8)
    batch = max(1, min(count, _BATCH_CELLS // (m + 1)))
    out = np.empty((count, m), dtype=np.int8)
    for start in range(0, count, batch):
        stop = min(start + batch, count)
        u = _philox_uniforms(seed, start, stop, m)
        out[start:stop] = _sample_batch(law, config.angles, u)
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
