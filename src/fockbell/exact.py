"""Exact evaluation of measurement statistics for a double Fock state.

Every route reads one law object, :class:`_Law`, cached per (law, n_plus,
n_minus, M): the weights of the Dicke states of the M measured spins, which
the Lambda integral of the paper's double integral gives in closed form and
which are kept as logs, so nothing grows with N.  The probability of a single
history is a weighted sum over the M + 1 coefficients of one polynomial.  The
table of all 2**M histories grows those polynomials as one tree for a whole
batch of angle rows, over only the live band of coefficients that can still
reach a weighted one; each row gets the floats it gets on its own.  A
product average separates into the law's zeroth moment times a lambda mean of
a trigonometric polynomial of degree M, which M + 1 equispaced nodes integrate
exactly.  Plus-count parties in ``functional`` take the Dicke weights
themselves.  The closed forms (the two-angle factorial sum, the correction
factor) and the Gaussian approximation of a product correlation sit beside
them; the test suite holds the routes against each other.  Everything here
runs on numpy alone; the factorial sum takes its terms' logs with 0 log 0 = 0.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .model import ExperimentConfig, OutcomeSequence, _finite_angles

__all__ = [
    "sequence_probability",
    "all_sequence_probabilities",
    "correlation_e",
    "correlation_closed_form",
    "gaussian_product_correlation",
    "correction_factor_g",
    "classical_all_probabilities",
    "classical_product_correlation",
]

# Memory ceiling for the vectorized outcome trees, in float64 elements.
_TREE_BUDGET = 2 * 10**7
_MAX_TREE_M = 20


def _population_logs(n_plus: int, n_minus: int, m: int):
    """(up, down, offset): the logs of the Dicke weights over any j <= m results,
    log 2**j [n_plus]_s [n_minus]_(j - s) / [N]_j = up[s] + down[j - s] + offset_j,
    with offset = offset_m and [a]_s the falling factorial; up and down are -inf
    where a population runs out.

    Each factor is taken over N, so that the cumulative log sums stay small, and
    is a ratio of Python integers rounded once before its log, so that the ratio
    is exact to round-off at any N, also where a population is nearly used up
    and where N is past the range of a 64-bit integer.
    """
    n = n_plus + n_minus
    with np.errstate(divide="ignore"):
        up, down = (np.concatenate([[0.0], np.cumsum(np.log(
            [max(2 * (pop - s), 0) / n for s in range(m)]))]) for pop in (n_plus, n_minus))
        return up, down, -float(np.log([(n - s) / n for s in range(m)]).sum())


def _others(factors: np.ndarray) -> np.ndarray:
    """For each entry, the product of the other entries along axis 0: prefix
    times suffix products, so that a zero factor is never divided out."""
    before, after = np.ones_like(factors), np.ones_like(factors)
    np.cumprod(factors[:-1], axis=0, out=before[1:])
    np.cumprod(factors[:0:-1], axis=0, out=after[-2::-1])
    return before * after


def _binomials(n: int, count: int | None = None) -> list[int]:
    """C(n, k) for k = 0..count (default n) as exact integers, each entry from the one
    before."""
    row = [1]
    for k in range(n if count is None else count):
        row.append(row[-1] * (n - k) // (k + 1))
    return row


@lru_cache(maxsize=1024)
def _log_modulus(phi: float) -> float:
    """log |zeta|**2 of the float zeta = exp(-i phi / 2), from |zeta|**2 - 1 taken exactly."""
    zeta = cmath.exp(-0.5j * phi)
    return math.log1p(float(Fraction(zeta.real) ** 2 + Fraction(zeta.imag) ** 2 - 1))


@dataclass(frozen=True)
class _Law:
    """One probability law of the first M spins: the weights r_s of their Dicke
    states, s of them of the + mode, and every route that reads them.

    The Lambda integral of the double integral leaves the closed form
    r_s = 2**M [n_plus]_s [n_minus]_(M - s) / [N]_M for the quantum law, [a]_s the
    falling factorial, and r = 1 for the classical-phase law.  They are kept as
    logs, so that 2**M is never formed and nothing grows with N.

    A single history is a row of j + 1 complex coefficients after j results.  Its
    bracket product is rank one in (lambda, lambda'), so
    P(eta | phi) = sum_s r_s |e_(M - s)|**2 with every term >= 0, where e_k is the
    coefficient of w**k in prod_j (1 + z_j w) / 2, z_j = eta_j exp(-i phi_j).  A row
    holds the product of the factors conj(zeta_j) + eta_j zeta_j w =
    conj(zeta_j) (1 + z_j w), with zeta_j = exp(-i phi_j / 2), divided by a power
    of two.

    A product average takes the moment r_(M/2) (0 for odd M) times the lambda mean
    of a product of cosines (:meth:`cosine_products`), a trigonometric polynomial
    of degree at most M, which the M + 1 equispaced nodes ``lam`` on [-pi, pi)
    integrate exactly.  Plus-count parties take the weights ``dicke`` of the Dicke
    states themselves, from the ``populations`` as integers.
    """

    up: np.ndarray
    down: np.ndarray
    offset: float        # log r_s = up[s] + down[M - s] + offset
    moment0: float       # r_(M/2) for even M, 0 for odd M
    lam: np.ndarray      # the M + 1 lambda nodes
    populations: tuple[int, int] | None  # (n_plus, n_minus); None for the classical law

    def __post_init__(self) -> None:
        # instances are cached and shared, so their arrays must stay as built
        for a in (self.up, self.down, self.lam):
            a.flags.writeable = False

    @classmethod
    @lru_cache(maxsize=32)
    def for_law(cls, law: str, n_plus: int, n_minus: int, m: int) -> "_Law":
        if law not in ("exact", "classical"):
            raise ValueError(f"unknown probability law {law!r}")
        up, down, offset = (_population_logs(n_plus, n_minus, m) if law == "exact"
                            else (np.zeros(m + 1), np.zeros(m + 1), 0.0))
        # r_(M/2) = 2**M C(a, M/2) C(b, M/2) / (C(a + b, M) C(M, M/2)), one rounding
        h, (a, b), comb = m // 2, (int(n_plus), int(n_minus)), math.comb
        moment0 = (0.0 if m % 2 else 1.0 if law == "classical" else
                   (comb(a, h) * comb(b, h) << m) / (comb(a + b, m) * comb(m, h)))
        return cls(up, down, offset, moment0, -np.pi + 2.0 * np.pi * np.arange(m + 1) / (m + 1),
                   (a, b) if law == "exact" else None)

    @cached_property
    def dicke(self) -> np.ndarray:
        """p_a = C(M, a) r_a / 2**M, a = 0..M: the weights of the Dicke states, which are
        C(n_plus, a) C(n_minus, M - a) / C(N, M) for the quantum law and C(M, a) / 2**M
        for the classical one.  Each is one correctly rounded division of integers; the
        exponential of the logs would lose digits to their size, 2.8e-14 at
        (7, 500), M = 80."""
        m = self.lam.size - 1
        if self.populations is None:
            numerators, whole = _binomials(m), 1 << m
        else:
            n_plus, n_minus = self.populations
            plus, minus = _binomials(n_plus, m), _binomials(n_minus, m)
            numerators = [plus[a] * minus[m - a] for a in range(m + 1)]
            whole = math.comb(n_plus + n_minus, m)
        out = np.array([x / whole for x in numerators])
        out.flags.writeable = False
        return out

    def cosine_products(self, rows: np.ndarray, powers: np.ndarray, *, slopes: bool = False):
        """prod_j cos(lambda - phi_j)**c_j over the lambda nodes, phi_j and c_j >= 0 the
        entries of the (R, m) arrays ``rows`` and integer ``powers``: shape (R, K_lambda).

        The measurements are multiplied in slices of at most a quarter of the table
        budget, each slice's first factor carrying the product so far, so memory does
        not grow with m and the factors are multiplied in the same order.  With
        ``slopes`` each row is one setting, one angle phi (m = 1), and its derivative
        by phi, c cos(lambda - phi)**(c - 1) sin(lambda - phi), shape (R, K_lambda), is
        returned too; raises ValueError, before any work, where that array would
        exceed a quarter of the budget.
        """
        # the select is much faster than a power, and faster on a boolean condition
        raised = np.power if powers.max(initial=0) > 1 else lambda c, p: np.where(p > 0, c, 1.0)
        if slopes:
            if 4 * rows.size * self.lam.size > _TREE_BUDGET:
                raise ValueError(f"slopes of {rows.shape} angles exceed the table budget")
            transverse = self.lam - rows
            cosines = np.cos(transverse)
            return (raised(cosines, powers),
                    powers * raised(cosines, powers - 1) * np.sin(transverse))
        powers = powers[..., None]
        step = max(1, _TREE_BUDGET // (4 * rows.shape[0] * self.lam.size))
        for start in range(0, max(rows.shape[1], 1), step):  # m = 0: one empty product
            part = slice(start, start + step)
            factors = raised(np.cos(self.lam - rows[:, part, None]), powers[:, part])
            if start:
                factors[:, 0] *= products
            products = factors.prod(axis=1)
        return products

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
        """All 2**M sequence probabilities, bit j of the index set when outcome j is +1;
        for a (B, M) batch of angle rows, one table per row, shape (B, 2**M).

        Each is its row's share of the total mass, so neither r's scale nor the
        modulus of zeta_j enters.  The coefficients are stored coefficient-major,
        (M + 1, rows, outcomes), and one preallocated tree doubles in place once per
        outcome, the new outcome's -1 half over the old rows.  Only the live band is
        computed: after j of the M results, coefficient k can still reach a weighted
        one only for max(0, k_lo - (M - j)) <= k <= min(j, k_hi), where k_lo..k_hi are
        the finite entries of ``logs(M)``; at M = N that is k = n_minus alone.
        Products commute, so the last outcomes are fixed first, one slice each, and
        the first ``low`` outcomes run inside a slice, as many as the budget allows
        for one row; the batch goes in chunks of as many rows as fit beside them.
        Every row gets the same floats as on its own.
        """
        rows = np.asarray(angles, dtype=float)
        batch = np.atleast_2d(rows)
        m = batch.shape[1]
        if m > _MAX_TREE_M:
            raise ValueError(f"full outcome table limited to M <= {_MAX_TREE_M}, got {m}")
        logs = self.logs(m)
        k_lo, k_hi = np.flatnonzero(np.isfinite(logs))[[0, -1]]
        low = min(m, max(0, (_TREE_BUDGET // (2 * (m + 1))).bit_length() - 1))
        chunk = max(1, _TREE_BUDGET // (2 * (m + 1) << low))
        zetas = np.exp(-0.5j * batch.T)[:, None, :, None]  # (M, 1, B, 1), as the tree's axes

        def grow(tree, j, zetas):
            """Double the rows in ``tree``, after j results, by each factor in turn."""
            for step, zeta in enumerate(zetas):
                w, j = 1 << step, j + 1
                lo, hi = max(0, k_lo - (m - j)), min(j, k_hi) + 1  # live after j results
                old, new = tree[..., :w], tree[..., w:2 * w]
                kept = old[lo:min(hi, j)] * zeta.conjugate()  # k = lo..min(hi - 1, j - 1)
                shifted = zeta * old[max(lo, 1) - 1:hi - 1]   # k = max(lo, 1)..hi - 1
                both = slice(max(lo, 1), min(hi, j))
                np.add(kept[both.start - lo:], shifted[:both.stop - both.start], out=new[both])
                np.subtract(kept[both.start - lo:], shifted[:both.stop - both.start],
                            out=old[both])  # outcome -1, over the old rows
                if lo == 0:
                    new[0] = old[0] = kept[0]
                if hi > j:  # the new top coefficient comes from the shift alone
                    new[j], old[j] = shifted[-1], -shifted[-1]

        out = np.empty((len(batch), 1 << m))
        for start in range(0, len(batch), chunk):
            part = slice(start, start + chunk)
            b = len(batch[part])
            top = np.zeros((m + 1, b, 1 << (m - low)), dtype=complex)
            top[0] = 1.0
            grow(top, 0, zetas[low:, :, part])
            tree = np.empty((m + 1, b, 1 << low), dtype=complex)
            for h in range(top.shape[2]):
                tree[:, :, 0] = top[:, :, h]
                grow(tree, m - low, zetas[:low, :, part])
                if k_lo == k_hi:  # one weight, exp(0) = 1: the sum that mass takes
                    live = tree[k_lo]
                    mass = live.real ** 2 + live.imag ** 2
                else:  # the rows as mass takes them, for its order of summation
                    pairs = np.zeros((b, 1 << low, m + 1), dtype=complex)
                    pairs[..., k_lo:k_hi + 1] = tree[k_lo:k_hi + 1].transpose(1, 2, 0)
                    mass = self.mass(pairs, logs)
                out[part, h << low:(h + 1) << low] = mass
        out /= out.sum(axis=-1, keepdims=True)
        return out.reshape(rows.shape[:-1] + (1 << m,))


def _product(kernel: _Law, rows) -> np.ndarray:
    """Product-of-results averages, one per angle row of the (R, M) array ``rows``.

    The kernel's closed-form moment times the lambda mean of the cosine
    product; the moment is exactly 0 for odd M and for |n_plus - n_minus| > N - M.
    """
    rows = np.asarray(rows, dtype=float)
    lam_mean = kernel.cosine_products(rows, np.ones(rows.shape, dtype=int)).mean(axis=1)
    return kernel.moment0 * lam_mean + 0.0  # + 0.0 turns a vanishing -0.0 into 0.0


def sequence_probability(config: ExperimentConfig, outcomes: OutcomeSequence) -> float:
    """Probability of an ordered outcome sequence (any M <= N).

    Unperformed measurements are already summed out, so the result is the
    marginal over the first M measurements; the sum over all 2**M sequences
    is 1.
    """
    if len(outcomes) != config.m:
        raise ValueError("outcome sequence length must match the angle count")
    law = _Law.for_law("exact", config.n_plus, config.n_minus, config.m)
    return float(law.probability(*law.follow(outcomes.etas, config.angles), config.angles)[0])


def all_sequence_probabilities(config: ExperimentConfig) -> np.ndarray:
    """Probabilities of all 2**M outcome sequences in one pass.

    Index ``i`` holds the sequence whose j-th outcome is +1 exactly when bit
    j of ``i`` is set.
    """
    return _Law.for_law("exact", config.n_plus, config.n_minus, config.m).table(config.angles)


def correlation_e(config: ExperimentConfig) -> float:
    """Quantum average of the product of all M results, by direct quadrature."""
    kernel = _Law.for_law("exact", config.n_plus, config.n_minus, config.m)
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
    (angles x terms) matrix is built for slices of about 2**18 / p angles,
    so memory does not grow with p, and each angle's terms are summed along
    their own row, so an angle gets the same float in any batch.
    """
    log_c, k = _closed_form_log_coefficients(n, p), np.arange(p // 2 + 1)
    x = np.atleast_1d(np.asarray(chi, dtype=float))[:, None]
    width = max(1, 2**18 // k.size)

    def xlogy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a log b with 0 log 0 = 0: the k = 0 term has no sine, the k = p/2 term no cosine."""
        with np.errstate(divide="ignore"):  # log 0 = -inf, so a term with that factor is 0
            return np.multiply(a, np.log(b), out=np.zeros((b.size, a.size)), where=a > 0)

    def part(s: np.ndarray) -> np.ndarray:
        sin, cos = np.abs(np.sin(s)), np.cos(s)
        terms = np.exp(log_c + xlogy(2 * k, sin) + xlogy(p - 2 * k, np.abs(cos)))
        return terms.sum(axis=1) * np.where(cos[:, 0] < 0.0, (-1.0) ** p, 1.0)

    return np.concatenate([part(s) for s in np.split(x, range(width, len(x), width))])


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


def gaussian_product_correlation(pairs) -> float:
    """Gaussian-approximation product correlation for any angle multiset.

    ``pairs`` is an iterable of (angle, multiplicity); the result is
    exp(-(n/2) * weighted variance of the angles), which reduces to
    exp(-p(n-p)chi^2 / 2n) for p angles at chi and n - p at 0, and is invariant
    under a common rotation.
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
    # C(M, h) r_h / 2**M = C(M, h) [n_plus]_h [n_minus]_h / [N]_M with h = M/2; the
    # moment r_h is 0 for odd M and where a population runs out
    return math.comb(m, m // 2) / 2**m * _Law.for_law("exact", n_plus, n_minus, m).moment0


# ---------------------------------------------------------------------------
# Classical-phase (separable) law: the large-N limit where the phase acts as
# a pre-existing uniformly distributed variable and the per-spin factors are
# genuine probabilities.  Useful both as an approximation and as the
# local-realist reference model.
# ---------------------------------------------------------------------------

def classical_all_probabilities(angles) -> np.ndarray:
    """All 2**M outcome probabilities under the classical-phase law."""
    angles = _finite_angles(angles)
    return _Law.for_law("classical", 0, 0, len(angles)).table(angles)


def classical_product_correlation(angles) -> float:
    """Product-of-results average under the classical-phase law."""
    angles = _finite_angles(angles)
    return float(_product(_Law.for_law("classical", 0, 0, len(angles)), [angles])[0])
