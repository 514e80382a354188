"""Exact evaluation of measurement statistics for a double Fock state.

A statistic that sums over outcome histories (a product average, a plus-count
party) is an integral over two angles (Lambda, lambda) of a polynomial in
cos(Lambda) and a trigonometric polynomial in lambda, so a Chebyshev rule on
cos(Lambda) and an equispaced trapezoid rule on lambda integrate it exactly (to
round-off) with a node count set by the number of measurements alone, whatever
the particle number.  The probability of a single history needs no grid: it is a
weighted sum over the M + 1 coefficients of one polynomial (:class:`_History`).
The closed-form combinatoric routes (factorial sum, correction factor, Gaussian
approximation) are kept alongside the quadrature routes; the test suite holds
the two against each other.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
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
    """Raised by the plus-count route when the Lambda rule's weights, of size up to
    2**M, overflow a float (very unequal populations and M > ~1000, e.g. n_plus = 0,
    n_minus = M = 1100).  Product averages take only the rule's exact zeroth moment
    and single histories no weights at all, so neither raises."""


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


def _population_logs(n_plus: int, n_minus: int, m: int):
    """(up, down, offset): the logs of :func:`_falling_ratio` over any j <= m results,
    log 2**j [n_plus]_s [n_minus]_(j - s) / [N]_j = up[s] + down[j - s] + offset_j,
    with offset = offset_m; up and down are -inf where a population runs out.

    Each factor is taken over N, so that the cumulative log sums stay small, and
    is a ratio of integers rounded once before its log, so that the ratio is exact
    to round-off at any N, also where a population is nearly used up.
    """
    n, steps = n_plus + n_minus, np.arange(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        up, down = (np.concatenate([[0.0], np.cumsum(np.log(
            np.maximum(2 * (pop - steps), 0) / n))]) for pop in (n_plus, n_minus))
        return up, down, -float(np.log((n - steps) / n).sum())


def _falling_ratio(n_plus: int, n_minus: int, m: int) -> np.ndarray:
    """2**m [n_plus]_s [n_minus]_(m - s) / [N]_m for s = 0..m, [a]_s the falling factorial;
    it is 0 where a population runs out."""
    up, down, offset = _population_logs(n_plus, n_minus, m)
    with np.errstate(over="ignore"):
        return np.exp(up + down[::-1] + offset)


def _others(factors: np.ndarray, axis: int) -> np.ndarray:
    """For each entry, the product of the other entries along ``axis``: prefix
    times suffix products, so that a zero factor is never divided out."""
    f = np.moveaxis(factors, axis, 0)
    ones = np.ones_like(f[:1])
    before = np.cumprod(np.concatenate([ones, f[:-1]]), axis=0)
    after = np.cumprod(np.concatenate([ones, f[:0:-1]]), axis=0)[::-1]
    return np.moveaxis(before * after, 0, axis)


@dataclass(frozen=True)
class _Bracket:
    """The (Lambda, lambda) quadrature behind the sums over histories: product
    averages and plus-count parties.

    A statistic of m <= M measurements is the grid mean of ``weight(m)`` times
    the brackets cos(Lambda) + eta_j cos(lambda - phi_j), over 2**m.  Lambda runs
    along axis 0, lambda along axis 1.  Each bracket, cosine or sine of lambda is
    of degree 1 in lambda, so every integrand is of degree at most M there, and
    M + 1 trapezoid nodes integrate it exactly; the quantum grid has (M + 1)**2
    cells.

    Quantum law: with x = cos(Lambda) and d = n_plus - n_minus the Lambda
    integrand is T_d(x) x**(N - M) p(x) / C_N, where p is x**(M - m) times the
    bracket product, a polynomial of degree M.  Its values at the M + 1
    Chebyshev points x_i fix it, and the integral of T_d x**(N - M) T_k / C_N
    is a ratio of binomials (the modified moment), so weights w_i make the
    rule exact; weight(m) = w_i x_i**(M - m).  The weights are one type-III
    DCT of the moments, built when ``weight`` first asks for them: only
    plus-count parties read them, product averages take the exact zeroth
    moment alone.  Nothing grows with N.
    The classical-phase law is the single node x = 1 with moment, so weight, 1.
    """

    cos_big: np.ndarray      # cos(Lambda) node x_i, shape (K_Lambda, 1)
    moments: np.ndarray      # modified moments of T_0..T_(K_Lambda - 1), shape (K_Lambda,)
    lam: np.ndarray          # lambda nodes, shape (1, K_lambda)
    m: int                   # measurements the rule is built for

    def __post_init__(self) -> None:
        # instances are cached and shared, so their arrays must stay as built
        for a in (self.cos_big, self.moments, self.lam):
            a.flags.writeable = False

    @classmethod
    @lru_cache(maxsize=32)
    def quantum(cls, n_plus: int, n_minus: int, m: int) -> "_Bracket":
        # ratio[s] = 2**m C(N - m, n_plus - s) / C(N, n_plus)
        ratio, k = _falling_ratio(n_plus, n_minus, m), np.arange(m + 1)
        theta = np.pi * (k + 0.5) / (m + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            # moment of T_k: [mu(N - m, d + k) + mu(N - m, d - k)] / 2 C_N, with
            # mu(j, q) = C(j, (j + q)/2) / 2**j the integral of cos(q L) cos(L)**j
            moments = np.where((m - k) % 2, 0.0,
                               0.5 * (ratio[(m - k) // 2] + ratio[(m + k) // 2]))
        return cls(np.cos(theta)[:, None], moments, _nodes(m + 1)[None, :], m)

    @classmethod
    @lru_cache(maxsize=32)
    def classical(cls, m: int) -> "_Bracket":
        return cls(np.ones((1, 1)), np.ones(1), _nodes(m + 1)[None, :], m)

    @classmethod
    def for_law(cls, law: str, n_plus: int, n_minus: int, m: int) -> "_Bracket":
        if law == "exact":
            return cls.quantum(n_plus, n_minus, m)
        if law == "classical":
            return cls.classical(m)
        raise ValueError(f"unknown probability law {law!r}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.cos_big.shape[0], self.lam.shape[1]

    @property
    def moment0(self) -> float:
        """Mean of weight(M), exactly (0 where it vanishes)."""
        return float(self.moments[0])

    @cached_property
    def weight_big(self) -> np.ndarray:
        """Lambda weight w_i, shape (K_Lambda, 1)."""
        # imported here, not at module level: SciPy takes most of a cold start
        from scipy.fft import dct

        # w_i = sum_k (2 - delta_k0) moments_k cos(k theta_i), a type-III DCT
        weights = dct(self.moments, type=3)[:, None]
        weights.flags.writeable = False
        return weights

    def weight(self, m: int) -> np.ndarray:
        """Lambda weight times cos(Lambda)**(M - m), for m measurements; raises
        UnnormalizableConfigError where the weights overflow."""
        if not np.isfinite(self.weight_big).all():
            raise UnnormalizableConfigError("Lambda rule weights overflow")
        return self.weight_big * self.cos_big ** (self.m - m)

    def transverse(self, phi: float) -> np.ndarray:
        """cos(lambda - phi)."""
        return np.cos(self.lam - phi)

    def cosine_products(self, rows: np.ndarray, mask=True, *, slopes: bool = False):
        """prod_j cos(lambda - phi_j) over the lambda nodes, phi_j the angles that
        ``mask`` keeps in each row of the (R, m) array ``rows``: shape (R, K_lambda).

        With ``slopes`` also returns the derivative of each product by each of its
        angles, sin(lambda - phi_j) times the other factors, shape (R, m, K_lambda);
        the entries that ``mask`` drops hold no derivative.
        """
        transverse = self.lam[None] - rows[:, :, None]
        cosines = np.where(np.asarray(mask)[..., None], np.cos(transverse), 1.0)
        products = cosines.prod(axis=1)
        if not slopes:
            return products
        return products, np.sin(transverse) * _others(cosines, axis=1)

    def columns(self, width: int):
        """The grid in slices of at most ``width`` lambda nodes; their cell sums add up
        to the whole grid's."""
        k_lam = self.lam.shape[1]
        if width >= k_lam:
            yield self
            return
        weights = self.weight_big
        for start in range(0, k_lam, width):
            part = replace(self, lam=self.lam[:, start:start + width])
            part.__dict__["weight_big"] = weights  # the slices share the Lambda rule
            yield part


@lru_cache(maxsize=1024)
def _log_modulus(phi: float) -> float:
    """log |zeta|**2 of the float zeta = exp(-i phi / 2), from |zeta|**2 - 1 taken exactly."""
    zeta = cmath.exp(-0.5j * phi)
    return math.log1p(float(Fraction(zeta.real) ** 2 + Fraction(zeta.imag) ** 2 - 1))


@dataclass(frozen=True)
class _History:
    """Single outcome histories of one law, each a row of j + 1 complex coefficients
    after j results.

    The bracket product of one history is rank one in (lambda, lambda'), so
    P(eta | phi) = sum_s r_s |e_(M - s)|**2 with every term >= 0, where e_k is the
    coefficient of w**k in prod_j (1 + z_j w) / 2, z_j = eta_j exp(-i phi_j).  The
    weights are r = _falling_ratio(n_plus, n_minus, M), the Dicke weights of the
    first M spins, for the quantum law and r = 1 for the classical one; they are
    kept as logs, so that 2**M is never formed.  A row holds the product of the
    factors conj(zeta_j) + eta_j zeta_j w = conj(zeta_j) (1 + z_j w), with
    zeta_j = exp(-i phi_j / 2), divided by a power of two.
    """

    up: np.ndarray
    down: np.ndarray
    offset: float        # log r_s = up[s] + down[M - s] + offset

    def __post_init__(self) -> None:
        # instances are cached and shared, so their arrays must stay as built
        for a in (self.up, self.down):
            a.flags.writeable = False

    @classmethod
    @lru_cache(maxsize=32)
    def for_law(cls, law: str, n_plus: int, n_minus: int, m: int) -> "_History":
        if law not in ("exact", "classical"):
            raise ValueError(f"unknown probability law {law!r}")
        return cls(*(_population_logs(n_plus, n_minus, m) if law == "exact"
                     else (np.zeros(m + 1), np.zeros(m + 1), 0.0)))

    def logs(self, j: int) -> np.ndarray:
        """log r_(j - k) over the coefficients k = 0..j of rows of j results, largest 0;
        -inf where a population runs out, as for every coefficient fed from there."""
        logs = self.up[j::-1] + self.down[:j + 1]
        return logs - logs.max()

    @staticmethod
    def mass(rows: np.ndarray, logs: np.ndarray) -> np.ndarray:
        """sum_k exp(logs[k]) |rows[..., k]|**2."""
        pairs = rows.view(np.float64)
        return (pairs * pairs) @ np.repeat(np.exp(logs), 2)

    @staticmethod
    def extend(rows: np.ndarray, phi: float, eta: int) -> np.ndarray:
        """Rows times the factor of the result ``eta`` at ``phi``: one coefficient more."""
        zeta = cmath.exp(-0.5j * phi)
        out = np.zeros(rows.shape[:-1] + (rows.shape[-1] + 1,), dtype=complex)
        out[..., :-1] = rows * zeta.conjugate()
        out[..., 1:] += (eta * zeta) * rows
        return out

    def rescale(self, rows: np.ndarray) -> np.ndarray:
        """In place, zero the weightless coefficients of the rows and divide each by a
        power of two near its largest modulus; returns the powers."""
        exponents = np.frexp(np.abs(rows.view(np.float64)).max(axis=-1))[1]
        rows *= np.isfinite(self.logs(rows.shape[-1] - 1)) * np.ldexp(1.0, -exponents)[..., None]
        return exponents

    def probability(self, rows: np.ndarray, exponents, angles) -> np.ndarray:
        """P of rows of all M results at ``angles``, each divided by 2**exponents.

        The float zeta_j is off the unit circle by round-off, which scales a whole
        row; over a long run at one angle that would add up, so its exact
        log |zeta_j|**2 comes out of the sum, and so does r's power of two.
        """
        logs = self.up[::-1] + self.down + self.offset - sum(map(_log_modulus, angles))
        top = math.floor(logs.max() / math.log(2.0))
        return np.ldexp(self.mass(rows, logs - top * math.log(2.0)),
                        2 * np.asarray(exponents) + top - 2 * len(angles))

    def follow(self, etas, angles) -> tuple[np.ndarray, int]:
        """The row of one history and the power of two it is divided by."""
        row, exponent = np.ones((1, 1), dtype=complex), 0
        for j, (eta, phi) in enumerate(zip(etas, angles)):
            row = self.extend(row, phi, eta)
            if j % 64 == 63:   # the largest modulus at most doubles per result
                exponent += int(self.rescale(row)[0])
        return row, exponent

    def table(self, angles) -> np.ndarray:
        """All 2**M sequence probabilities, bit j of the index set when outcome j is +1.

        Each is its row's share of the total mass, so neither r's scale nor the
        modulus of zeta_j enters.  The rows double once per outcome; products
        commute, so the last outcomes are fixed first, one slice each, and the
        first ``low`` outcomes run inside a slice, as many as the budget allows.
        """
        m = len(angles)
        if m > _MAX_TREE_M:
            raise ValueError(f"full outcome table limited to M <= {_MAX_TREE_M}, got {m}")
        low = min(m, max(0, (_TREE_BUDGET // (2 * (m + 1))).bit_length() - 1))

        def tree(rows, angles):
            for phi in angles:
                rows = np.concatenate([self.extend(rows, phi, eta) for eta in (-1, 1)])
            return rows

        mass = np.concatenate([self.mass(tree(row[None], angles[:low]), self.logs(m))
                               for row in tree(np.ones((1, 1), dtype=complex), angles[low:])])
        return mass / mass.sum()


def _product(kernel: _Bracket, rows) -> np.ndarray:
    """Product-of-results averages, one per angle row of the (R, M) array ``rows``.

    Summed over its outcome each bracket leaves 2 cos(lambda - phi), so the
    integrand separates: the Lambda mean of the weight times the lambda mean
    of the cosine product.  The first is the kernel's closed-form moment of
    T_0, exactly 0 for odd M and for |d| > N - M, where the node mean of the
    large weights would be round-off.
    """
    lam_mean = kernel.cosine_products(np.asarray(rows, dtype=float)).mean(axis=1)
    return kernel.moment0 * lam_mean + 0.0  # + 0.0 turns a vanishing -0.0 into 0.0


def sequence_probability(config: ExperimentConfig, outcomes: OutcomeSequence) -> float:
    """Probability of an ordered outcome sequence (any M <= N).

    Unperformed measurements are already summed out, so the result is the
    marginal over the first M measurements; the sum over all 2**M sequences
    is 1.
    """
    if len(outcomes) != config.m:
        raise ValueError("outcome sequence length must match the angle count")
    law = _History.for_law("exact", config.n_plus, config.n_minus, config.m)
    return float(law.probability(*law.follow(outcomes.etas, config.angles), config.angles)[0])


def all_sequence_probabilities(config: ExperimentConfig) -> np.ndarray:
    """Probabilities of all 2**M outcome sequences in one pass.

    Index ``i`` holds the sequence whose j-th outcome is +1 exactly when bit
    j of ``i`` is set.
    """
    return _History.for_law("exact", config.n_plus, config.n_minus, config.m).table(config.angles)


def correlation_e(config: ExperimentConfig) -> float:
    """Quantum average of the product of all M results, by direct quadrature."""
    kernel = _Bracket.quantum(config.n_plus, config.n_minus, config.m)
    return float(_product(kernel, [config.angles])[0])


@lru_cache(maxsize=64)
def _closed_form_log_coefficients(n: int, p: int) -> np.ndarray:
    """Log of the coefficient c_k of sin(chi)**(2k) cos(chi)**(p - 2k) in E(chi), k = 0..p//2.

    c_0 = 1 and c_(k+1) / c_k = (p - 2k)(p - 2k - 1) / 2(k + 1)(n - 2k - 1), so the
    logs are one cumulative sum of the ratios' logs, exact to round-off at any n.
    """
    k = np.arange(p // 2, dtype=float)
    out = np.concatenate([[0.0], np.cumsum(np.log(
        (p - 2 * k) * (p - 2 * k - 1) / (2 * (k + 1) * (n - 2 * k - 1))))])
    out.flags.writeable = False
    return out


def _closed_form_sum(n: int, p: int, chi) -> np.ndarray:
    """E(chi) of :func:`correlation_closed_form` at each of the angles ``chi``.

    Every term has the sign of cos(chi)**p, so a plain sum of their moduli is
    accurate; each modulus is one exponential of its logarithm, since the
    coefficient alone can leave the float range where the term does not.  The
    (terms x angles) matrix is built for slices of about 2**18 / p angles,
    so memory does not grow with p.
    """
    log_c, k = _closed_form_log_coefficients(n, p)[:, None], np.arange(p // 2 + 1)[:, None]
    x = np.atleast_1d(np.asarray(chi, dtype=float))
    width = max(1, 2**18 // k.size)

    # imported here, not at module level: SciPy takes most of a cold start
    from scipy.special import xlogy

    def part(s: np.ndarray) -> np.ndarray:
        sin, cos = np.abs(np.sin(s)), np.cos(s)
        terms = np.exp(log_c + xlogy(2 * k, sin) + xlogy(p - 2 * k, np.abs(cos)))
        return terms.sum(axis=0) * np.where(cos < 0.0, (-1.0) ** p, 1.0)

    return np.concatenate([part(s) for s in np.split(x, range(width, x.size, width))])


def correlation_closed_form(n: int, p: int, chi: float) -> float:
    """Two-angle product correlation E(chi) for equal populations, M = N.

    Alice measures ``p`` spins at one angle and Bob the remaining ``n - p``
    at another, ``chi`` apart.  Evaluated as the finite factorial sum with
    every term taken in log space, so it stays accurate and finite for
    particle numbers far beyond what quadrature enumeration reaches.
    """
    if n % 2:
        raise ValueError("closed form requires an even total particle number")
    if not 1 <= p <= n - 1:
        raise ValueError("need 1 <= p <= n-1")
    return float(_closed_form_sum(n, p, chi)[0])


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
    # C(M, h) [n_plus]_h [n_minus]_h / [N]_M, through the Lambda rule's own ratio
    return math.comb(m, h) / 2**m * float(_falling_ratio(n_plus, n_minus, m)[h])


# ---------------------------------------------------------------------------
# Classical-phase (separable) law: the large-N limit where the phase acts as
# a pre-existing uniformly distributed variable and the per-spin factors are
# genuine probabilities.  Useful both as an approximation and as the
# local-realist reference model.
# ---------------------------------------------------------------------------

def classical_sequence_probability(angles, etas) -> float:
    """Outcome probability under the classical-phase law.

    A single uniform phase integral over independent per-spin probabilities
    (1 + eta*cos(lambda - phi))/2, which is the sum of the squared moduli of
    the history's coefficients; no particle-number dependence.
    """
    angles = [float(a) for a in angles]
    etas = [int(e) for e in etas]
    if len(angles) != len(etas):
        raise ValueError("angles and outcomes must pair up")
    if any(e not in (-1, 1) for e in etas):
        raise ValueError("outcomes must be +-1")
    law = _History.for_law("classical", 0, 0, len(angles))
    return float(law.probability(*law.follow(etas, angles), angles)[0])


def classical_all_probabilities(angles) -> np.ndarray:
    """All 2**M outcome probabilities under the classical-phase law."""
    angles = [float(a) for a in angles]
    return _History.for_law("classical", 0, 0, len(angles)).table(angles)


def classical_product_correlation(angles) -> float:
    """Product-of-results average under the classical-phase law."""
    angles = [float(a) for a in angles]
    return float(_product(_Bracket.classical(len(angles)), [angles])[0])
