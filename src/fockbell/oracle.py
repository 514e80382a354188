"""Independent brute-force verification on explicit spin state vectors.

Builds the W state of N distinguishable spin-1/2 particles and evaluates every
measurement probability by rotating each spin of the 2**N amplitude vector
into its transverse measurement basis.  No integrals anywhere: this is the
oracle the quadrature formulas are checked against.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, sqrt

import numpy as np

from .model import _finite_angles

__all__ = [
    "SpinStateVector",
    "w_state",
    "oracle_all_probabilities",
]

_MAX_SPINS = 14


@dataclass(frozen=True)
class SpinStateVector:
    """Normalized state of ``n`` spins; amplitude index bit j set = spin j up."""

    amplitudes: np.ndarray
    n: int

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2 ** self.n,):
            raise ValueError(f"expected {2 ** self.n} amplitudes for {self.n} spins")
        norm = float(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm^2 = {norm!r}, not 1")
        object.__setattr__(self, "amplitudes", amps)


def w_state(n_plus: int, n_minus: int) -> SpinStateVector:
    """W state: equal amplitudes on every arrangement of n_plus up spins.

    The amplitude is 1/sqrt(binom(n, n_plus)) on each basis state whose
    up-spin count is exactly ``n_plus``, zero elsewhere.
    """
    if n_plus < 0 or n_minus < 0:
        raise ValueError("particle numbers must be non-negative")
    n = n_plus + n_minus
    if n < 1:
        raise ValueError("need at least one spin")
    if n > _MAX_SPINS:
        raise ValueError(f"state vector limited to {_MAX_SPINS} spins, got {n}")
    amps = np.zeros(2 ** n, dtype=complex)
    amp = 1.0 / sqrt(comb(n, n_plus))
    for up_bits in combinations(range(n), n_plus):
        mask = 0
        for b in up_bits:
            mask |= 1 << b
        amps[mask] = amp
    return SpinStateVector(amps, n)


def oracle_all_probabilities(state: SpinStateVector, angles) -> np.ndarray:
    """All 2**n outcome probabilities at once; for a (B, n) batch of angle rows, one
    table per row, shape (B, 2**n).

    Each projector is rank one, so the joint distribution is the squared
    amplitude vector after rotating every spin into its measurement basis;
    n butterfly passes of O(2**n) work replace 2**n separate projector
    chains, and a batch runs them once, with the rows on one more axis, each
    row getting the same floats as on its own.  Index bit j set means spin j
    gave +1.
    """
    rows = np.asarray(angles, dtype=float)
    _finite_angles(rows.ravel())
    if rows.ndim not in (1, 2) or rows.shape[-1] != state.n:
        raise ValueError("need exactly one angle per spin")
    batch = np.atleast_2d(rows)
    amps = np.repeat(state.amplitudes[None], len(batch), axis=0)
    inv_sqrt2 = 1.0 / sqrt(2.0)
    for spin, phi in enumerate(batch.T):
        pairs = amps.reshape(len(batch), 2 ** (state.n - 1 - spin), 2, 2 ** spin)
        up, down = pairs[:, :, 1], pairs[:, :, 0]
        rotated = np.exp(-1j * phi)[:, None, None] * down
        # rows of the basis change: <e_eta| = (<up| + eta e^{-i phi} <down|)/sqrt2
        np.multiply(np.subtract(up, rotated, out=down), inv_sqrt2, out=down)
        np.multiply(np.add(up, rotated, out=up), inv_sqrt2, out=up)
    return (np.abs(amps) ** 2).reshape(rows.shape[:-1] + amps.shape[-1:])
