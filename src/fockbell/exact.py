"""Exact evaluation of measurement statistics for a double Fock state.

Every probability here is a trigonometric-polynomial integral over one or two
compact angle variables, so an equispaced periodic trapezoid rule integrates
it exactly (to round-off) once the node count exceeds the trig degree.  The
closed-form combinatoric routes (factorial sum, correction factor, Gaussian
approximation) are kept alongside the quadrature routes; the test suite holds
the two against each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from math import lgamma

import numpy as np

from .model import ExperimentConfig, OutcomeSequence

__all__ = [
    "UnnormalizableConfigError",
    "normalization_cn",
    "sequence_probability",
    "all_sequence_probabilities",
    "correlation_e",
    "correlation_closed_form",
    "correlation_gaussian",
    "gaussian_product_correlation",
    "correction_factor_g",
    "classical_sequence_probability",
    "classical_all_probabilities",
    "classical_product_correlation",
]

# Memory ceiling for the vectorized outcome trees, in float64 elements.
_TREE_BUDGET = 2 * 10**7
_MAX_TREE_M = 20


class UnnormalizableConfigError(ValueError):
    """Raised when the configuration's normalization coefficient vanishes.

    C_N = binom(N, n_plus) / 2**N is positive, but it underflows to 0.0 once
    the populations are unequal enough at large N (n_plus = 0, n_minus = 1100).
    """


def _nodes(k: int) -> np.ndarray:
    """K equispaced periodic trapezoid nodes on [-pi, pi).

    Their mean integrates every trigonometric polynomial of degree < K
    exactly, under the d(angle)/2pi convention.
    """
    return -np.pi + 2.0 * np.pi * np.arange(k) / k


def normalization_cn(n_plus: int, n_minus: int) -> float:
    """Normalization coefficient of the outcome distribution.

    Equals the integral of cos((n_plus - n_minus)*L) * cos(L)**n over
    dL/2pi, which reduces to binom(n, n_plus) / 2**n; evaluated through
    log-gamma so that very large particle numbers stay finite.
    """
    if n_plus < 0 or n_minus < 0:
        raise ValueError("particle numbers must be non-negative")
    n = n_plus + n_minus
    if n == 0:
        return 1.0
    return math.exp(lgamma(n + 1) - lgamma(n_plus + 1) - lgamma(n_minus + 1) - n * math.log(2.0))


@dataclass(frozen=True)
class _Bracket:
    """The (Lambda, lambda) quadrature behind every statistic in this package.

    A statistic of M measurements is the grid mean of
    ``weight(M) * prod_j bracket(eta_j, phi_j)`` over ``denominator(M)``:
    the bracket is cos(Lambda) + eta cos(lambda - phi), the weight
    cos(d Lambda) cos(Lambda)**(N - M) with d = n_plus - n_minus, and the
    denominator 2**M C_N.  Lambda runs along axis 0, lambda along axis 1.

    The quantum law puts K = 2(N + 2) trapezoid nodes on each axis.  The
    classical-phase law is the same integral with one Lambda node, where
    cos(Lambda) = 1 and the weight is 1, C_N = 1 and 2(M + 2) lambda nodes.
    """

    cos_big: np.ndarray   # cos(Lambda), shape (K_Lambda, 1)
    phase: np.ndarray     # cos(d Lambda), shape (K_Lambda, 1)
    lam: np.ndarray       # lambda nodes, shape (1, K_lambda)
    n: int
    d: int
    cn: float

    def __post_init__(self) -> None:
        # instances are cached and shared, so their arrays must stay as built
        for a in (self.cos_big, self.phase, self.lam):
            a.flags.writeable = False

    @classmethod
    @lru_cache(maxsize=32)
    def quantum(cls, n_plus: int, n_minus: int) -> "_Bracket":
        n, d = n_plus + n_minus, n_plus - n_minus
        # the integrands have trig degree <= 2N per variable; 2(N + 2) nodes
        # leave round-off margin on top of exactness
        nodes = _nodes(2 * (n + 2))
        return cls(np.cos(nodes)[:, None], np.cos(d * nodes)[:, None], nodes[None, :],
                   n, d, normalization_cn(n_plus, n_minus))

    @classmethod
    @lru_cache(maxsize=32)
    def classical(cls, m: int) -> "_Bracket":
        one = np.ones((1, 1))
        return cls(one, one, _nodes(2 * (m + 2))[None, :], m, 0, 1.0)

    @classmethod
    def for_law(cls, law: str, n_plus: int, n_minus: int, m: int) -> "_Bracket":
        if law == "exact":
            return cls.quantum(n_plus, n_minus)
        if law == "classical":
            return cls.classical(m)
        raise ValueError(f"unknown probability law {law!r}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.cos_big.shape[0], self.lam.shape[1]

    def weight(self, m: int) -> np.ndarray:
        """cos(d Lambda) cos(Lambda)**(N - m) for m measurements."""
        return self.phase * self.cos_big ** (self.n - m)

    def transverse(self, phi: float) -> np.ndarray:
        """cos(lambda - phi)."""
        return np.cos(self.lam - phi)

    def bracket(self, eta, phi: float) -> np.ndarray:
        """cos(Lambda) + eta cos(lambda - phi) over the grid."""
        return self.cos_big + eta * self.transverse(phi)

    def denominator(self, m: int) -> float:
        """2**m C_N, which turns an m-bracket grid mean into a probability."""
        if self.cn <= 0.0:
            raise UnnormalizableConfigError("unnormalizable configuration")
        return 2 ** m * self.cn

    def columns(self, width: int):
        """The grid in slices of at most ``width`` lambda nodes; their cell sums add up
        to the whole grid's."""
        k_lam = self.lam.shape[1]
        if width >= k_lam:
            yield self
            return
        for start in range(0, k_lam, width):
            yield replace(self, lam=self.lam[:, start:start + width])

    def chunks(self, size: int):
        """The grid cells in flat runs of at most ``size``, each a rule of its own."""
        flat = [np.broadcast_to(a, self.shape).ravel()
                for a in (self.cos_big, self.phase, self.lam)]
        for start in range(0, flat[0].size, size):
            cos_big, phase, lam = (a[start:start + size] for a in flat)
            yield replace(self, cos_big=cos_big, phase=phase, lam=lam)


def _sequence(kernel: _Bracket, etas, angles) -> float:
    """Probability of one outcome sequence; tiny negative round-off is clamped to 0.

    The factor 2**-M of the denominator goes into each bracket, so long
    sequences neither overflow 2**M nor the bracket product.
    """
    integrand = kernel.weight(len(angles))
    for eta, phi in zip(etas, angles):
        integrand = integrand * (0.5 * kernel.bracket(eta, phi))
    value = float(integrand.mean()) / kernel.denominator(0)
    if value < -1e-12:
        raise FloatingPointError(f"probability fell to {value}, beyond round-off")
    return max(value, 0.0)


def _table(kernel: _Bracket, angles) -> np.ndarray:
    """All 2**M sequence probabilities, bit j of the index set when outcome j is +1.

    The bracket products are built over a binary tree in one buffer, so each
    sequence costs O(1) grid multiplications; the grid is chunked to bound
    the buffer.
    """
    m = len(angles)
    if m > _MAX_TREE_M:
        raise ValueError(f"full outcome table limited to M <= {_MAX_TREE_M}, got {m}")
    denominator = kernel.denominator(m)
    out = np.zeros(2 ** m)
    for part in kernel.chunks(max(1, _TREE_BUDGET // (2 ** m))):
        tree = np.empty((2 ** m, part.lam.size))
        tree[0] = part.weight(m)
        for j, phi in enumerate(angles):
            # rows [0, 2**j) hold the histories so far; outcome j sets bit j
            np.multiply(tree[:2 ** j], part.bracket(1, phi), out=tree[2 ** j:2 ** (j + 1)])
            tree[:2 ** j] *= part.bracket(-1, phi)
        out += tree.sum(axis=1)
    out /= kernel.shape[0] * kernel.shape[1] * denominator
    np.clip(out, 0.0, None, out=out)
    return out


def _product(kernel: _Bracket, rows) -> np.ndarray:
    """Product-of-results averages, one per angle row of the (R, M) array ``rows``.

    Summed over its outcome each bracket leaves 2 cos(lambda - phi), so the
    integrand separates: the Lambda mean of the weight times the lambda mean
    of the cosine product.  The average is exactly 0 for odd M, and when
    |d| > N - M leaves the weight no constant term; it is set to 0 there
    rather than left to round-off, which the division by C_N would amplify.
    """
    rows = np.asarray(rows, dtype=float)
    norm = kernel.denominator(0)
    m = rows.shape[1]
    if m % 2 or abs(kernel.d) > kernel.n - m:
        return np.zeros(rows.shape[0])
    lam_mean = np.cos(kernel.lam[None] - rows[:, :, None]).prod(axis=1).mean(axis=1)
    return float(kernel.weight(m).mean()) * lam_mean / norm


def sequence_probability(config: ExperimentConfig, outcomes: OutcomeSequence) -> float:
    """Probability of an ordered outcome sequence (any M <= N).

    Unperformed measurements are already summed out, so the result is the
    marginal over the first M measurements; the sum over all 2**M sequences
    is 1.  Tiny negative round-off is clamped to 0.
    """
    if len(outcomes) != config.m:
        raise ValueError("outcome sequence length must match the angle count")
    return _sequence(_Bracket.quantum(config.n_plus, config.n_minus), outcomes.etas,
                     config.angles)


def all_sequence_probabilities(config: ExperimentConfig) -> np.ndarray:
    """Probabilities of all 2**M outcome sequences in one pass.

    Index ``i`` holds the sequence whose j-th outcome is +1 exactly when bit
    j of ``i`` is set.
    """
    return _table(_Bracket.quantum(config.n_plus, config.n_minus), config.angles)


def correlation_e(config: ExperimentConfig) -> float:
    """Quantum average of the product of all M results, by direct quadrature."""
    return float(_product(_Bracket.quantum(config.n_plus, config.n_minus), [config.angles])[0])


def correlation_closed_form(n: int, p: int, chi: float) -> float:
    """Two-angle product correlation E(chi) for equal populations, M = N.

    Alice measures ``p`` spins at one angle and Bob the remaining ``n - p``
    at another, ``chi`` apart.  Evaluated as the finite factorial sum in
    log-gamma space with compensated summation, so it stays accurate for
    particle numbers far beyond what quadrature enumeration reaches.
    """
    if n % 2:
        raise ValueError("closed form requires an even total particle number")
    if not 1 <= p <= n - 1:
        raise ValueError("need 1 <= p <= n-1")
    s, c = math.sin(chi), math.cos(chi)
    terms = []
    for k in range(p // 2 + 1):
        lg = (
            lgamma(n / 2 + 1) - lgamma(n + 1)
            + lgamma(p + 1) + lgamma(n - 2 * k + 1)
            - lgamma(k + 1) - lgamma(p - 2 * k + 1) - lgamma(n / 2 - k + 1)
        )
        terms.append(math.exp(lg) * s ** (2 * k) * c ** (p - 2 * k))
    return math.fsum(terms)


def correlation_gaussian(n: int, p: int, chi: float) -> float:
    """Gaussian approximation exp(-p(n-p)chi^2 / 2n) to the two-angle correlation."""
    if p < 1 or n - p < 1:
        raise ValueError("both parties need at least one measurement")
    return math.exp(-p * (n - p) * chi * chi / (2.0 * n))


def gaussian_product_correlation(pairs) -> float:
    """Gaussian-approximation product correlation for any angle multiset.

    ``pairs`` is an iterable of (angle, multiplicity); the result is
    exp(-(n/2) * weighted variance of the angles), which reduces to
    :func:`correlation_gaussian` for two angles and is invariant under a
    common rotation.
    """
    pairs = [(float(a), int(mult)) for a, mult in pairs]
    n = sum(mult for _, mult in pairs)
    if n <= 0 or any(mult < 1 for _, mult in pairs):
        raise ValueError("multiplicities must be positive")
    s1 = math.fsum(mult * a for a, mult in pairs)
    s2 = math.fsum(mult * a * a for a, mult in pairs)
    return math.exp(-0.5 * (s2 - s1 * s1 / n))


def correction_factor_g(m: int, n_plus: int, n_minus: int) -> float:
    """Attenuation of the full product correlation when only M < N spins are read.

    Zero for odd M, and zero whenever either population cannot supply M/2
    coherent pairs.  Equals 1 at M = N with equal populations.
    """
    if m < 0 or n_plus < 0 or n_minus < 0:
        raise ValueError("counts must be non-negative")
    n = n_plus + n_minus
    if m > n:
        raise ValueError("cannot measure more spins than particles")
    if m % 2:
        return 0.0
    h = m // 2
    if n_plus < h or n_minus < h:
        return 0.0
    return math.exp(
        lgamma(n - m + 1) + lgamma(m + 1) + lgamma(n_plus + 1) + lgamma(n_minus + 1)
        - lgamma(n_plus - h + 1) - lgamma(n_minus - h + 1) - 2 * lgamma(h + 1) - lgamma(n + 1)
    )


# ---------------------------------------------------------------------------
# Classical-phase (separable) law: the large-N limit where the phase acts as
# a pre-existing uniformly distributed variable and the per-spin factors are
# genuine probabilities.  Useful both as an approximation and as the
# local-realist reference model.
# ---------------------------------------------------------------------------

def classical_sequence_probability(angles, etas) -> float:
    """Outcome probability under the classical-phase law.

    A single uniform phase integral over independent per-spin probabilities
    (1 + eta*cos(lambda - phi))/2; exact quadrature, no particle-number
    dependence.
    """
    angles = [float(a) for a in angles]
    etas = [int(e) for e in etas]
    if len(angles) != len(etas):
        raise ValueError("angles and outcomes must pair up")
    if any(e not in (-1, 1) for e in etas):
        raise ValueError("outcomes must be +-1")
    return _sequence(_Bracket.classical(len(angles)), etas, angles)


def classical_all_probabilities(angles) -> np.ndarray:
    """All 2**M outcome probabilities under the classical-phase law."""
    angles = [float(a) for a in angles]
    return _table(_Bracket.classical(len(angles)), angles)


def classical_product_correlation(angles) -> float:
    """Product-of-results average under the classical-phase law."""
    angles = [float(a) for a in angles]
    return float(_product(_Bracket.classical(len(angles)), [angles])[0])
