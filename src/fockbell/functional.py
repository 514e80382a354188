"""Expectation values of Bell functionals.

A functional assigns each party a value in [-1, +1] computed from its local
outcomes; the expectation weights those values with the exact outcome
distribution (or, on request, the classical-phase law or the Gaussian
approximation).  Every party functional depends only on how many of the
party's results are +1, so two routes cover every layout:

* a pure-product fast path (one product-correlation integral),
* a plus-count route: on the quadrature grid of ``exact._Bracket``, which
  has (M + 1)**2 cells at any particle number (Chebyshev Lambda nodes whose
  weights are one type-III DCT of closed-form moments, and equispaced lambda
  nodes), each party's bracket product is expanded in powers of t, the power
  counting its +1 results, and the coefficients are weighted with the party's
  values.  Its cost is polynomial in the measurement count and independent
  of N.

:func:`bell_value` takes a Bell quantity, a signed sum of such averages with
one grid weight.  Where every party keeps the product of its results, each
setting's factor is a cosine product in lambda alone and the whole quantity is
one lambda mean of a product of blocks; a ``bchsh`` quantity with a plus-count
party is the signed sum of its four averages.  Every such quantity is a
trigonometric polynomial in the angles, and :func:`_bell_gradient` gives its
exact derivative by each of them, which the free-angle optimizer climbs; a
plus-count party's derivative reuses the expansions of its value.

The tests hold these against the full outcome table of
``exact.all_sequence_probabilities``, the state-vector oracle, the Bell
quantities' cross terms summed one at a time and, for the derivatives,
central differences.
"""
from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache, reduce
from math import comb

import numpy as np

from . import exact
from .model import BellFunctionalSpec, ExperimentConfig, PartyFunctional

__all__ = ["expectation", "bell_value", "semi_mesoscopic_value"]

# Sign of the setting pair (x_i, y_j) in one BCHSH block, at index 2i + j.
_CHSH = np.array([1.0, 1.0, 1.0, -1.0])
# Which pairs 2i + j contain the settings x, x', y, y' of a block.
_MEMBERS = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]])


def _check_layout(config: ExperimentConfig, layout):
    """Validated layout with zero-count parties folded into a constant factor."""
    layout = [(int(c), f) for c, f in layout]
    if any(c < 0 for c, _ in layout):
        raise ValueError("party counts must be non-negative")
    if sum(c for c, _ in layout) != config.m:
        raise ValueError("party counts must add up to the measurement count")
    constant = 1.0
    kept = []
    for count, func in layout:
        if count == 0:
            constant *= func.value_given_plus_count(0, 0)
        else:
            kept.append((count, func))
    return kept, constant


@lru_cache(maxsize=64)
def _expansion(r: int) -> np.ndarray:
    """Rows (log C(r, k), k, r - k) for k = 0..r."""
    k = np.arange(r + 1.0)
    return np.stack([[math.log(comb(r, j)) for j in range(r + 1)], k, r - k], axis=1)


def _run_terms(kernel: exact._Bracket, phi: float, r: int) -> np.ndarray:
    """Coefficients C(r, k) plus**k minus**(r - k) of t**k in (minus + t plus)**r,
    k = 0..r along axis 0, for r results at ``phi``.  Plus and minus are the
    halved brackets of the outcomes +1 and -1 over the grid.  The terms are
    taken in log space with their signs tracked, so no binomial overflows and
    no power underflows, whatever r."""
    rows = _expansion(r)
    etas = np.array([0.5, -0.5]).reshape(2, 1, 1)
    halves = (0.5 * kernel.cos_big + etas * kernel.transverse(phi)).reshape(2, -1)
    with np.errstate(divide="ignore"):
        # a finite stand-in for log 0 keeps 0**0 = 1 and still gives 0**k = 0
        logs = np.maximum(np.log(np.abs(halves)), -1e300)
    terms = np.exp(rows[:, :1] + rows[:, 1:] @ logs)
    # the sign is (sign(plus) sign(minus))**k sign(minus)**r
    negative = halves < 0
    terms[1::2] *= np.where(negative[0] != negative[1], -1.0, 1.0)
    if r % 2:
        terms *= np.where(negative[1], -1.0, 1.0)
    return terms.reshape((r + 1,) + kernel.shape)


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two polynomials in t, coefficients along axis 0, at every grid cell."""
    if len(a) < len(b):
        a, b = b, a
    out = np.zeros((len(a) + len(b) - 1,) + a.shape[1:])
    for i, row in enumerate(b):
        out[i:i + len(a)] += a * row
    return out


def _party(kernel: exact._Bracket, angles, func: PartyFunctional, *, slopes: bool = False):
    """The party's values f(k) weighted by its plus-count coefficients, over the grid.

    e_k, the coefficient of t**k in prod_j (minus_j + t plus_j), gathers the
    histories with k results +1; the halved brackets keep sum_k |e_k| <= 1.
    Equal angles share one binomial expansion.

    With ``slopes`` also returns the derivative by any one of the party's angles
    equal to u, over the grid, keyed by each distinct u.  With e'_j the
    coefficients after taking one result at u away, built from the value's other
    expansions, it is sin(lambda - u) / 2 times sum_j e'_j (f(j + 1) - f(j)).
    """
    counts = Counter(angles)
    runs = {phi: _run_terms(kernel, phi, total) for phi, total in counts.items()}
    coeffs = reduce(_convolve, runs.values())
    values = func.values_table(len(angles))
    value = (values @ coeffs.reshape(values.size, -1)).reshape(coeffs.shape[1:])
    if not slopes:
        return value
    steps = np.diff(values)
    by_angle = {}
    for phi, total in counts.items():
        coeffs = reduce(_convolve, (terms for other, terms in runs.items() if other != phi),
                        _run_terms(kernel, phi, total - 1))
        weighted = (steps @ coeffs.reshape(steps.size, -1)).reshape(coeffs.shape[1:])
        by_angle[phi] = 0.5 * np.sin(kernel.lam - phi) * weighted
    return value, by_angle


def _coefficient_columns(kernel: exact._Bracket, m: int):
    """The grid in lambda slices for plus-count parties of m measurements: their
    coefficients take about 4(m + 1) floats per grid cell, so the slices keep
    them near the table budget."""
    return kernel.columns(max(1, exact._TREE_BUDGET // (4 * (m + 1) * kernel.shape[0])))


def expectation(config: ExperimentConfig, layout, *, law: str = "exact") -> float:
    """Average of the product of party functional values.

    Parameters
    ----------
    config : ExperimentConfig
        Particle numbers and per-measurement angles.  Party measurements are
        the consecutive slices of ``config.angles`` in layout order.
    layout : sequence of (count, PartyFunctional)
        How many measurements each party makes and how it condenses them.
    law : {"exact", "classical"}
        Outcome distribution: the full quantum law or the classical-phase
        (separable) law.

    All-product layouts take one product-correlation integral; every other
    layout weights each party's values by its plus-count distribution on the
    quadrature grid.  Neither route limits the number of measurements.

    The result always lies in [-1, 1] because every party value does.
    """
    if law not in ("exact", "classical"):
        raise ValueError(f"unknown probability law {law!r}")
    layout, constant = _check_layout(config, layout)
    if not layout:
        # all parties empty: the expectation is the constant times sum(P) = 1
        return constant

    if all(f.kind == "product" for _, f in layout):
        if law == "exact":
            return constant * exact.correlation_e(config)
        return constant * exact.classical_product_correlation(config.angles)

    kernel = exact._Bracket.for_law(law, config.n_plus, config.n_minus, config.m)
    total = 0.0
    for part in _coefficient_columns(kernel, config.m):
        integrand = part.weight(config.m)
        start = 0
        for count, func in layout:
            integrand = integrand * _party(part, config.angles[start:start + count], func)
            start += count
        total += float(integrand.sum())
    return constant * total / math.prod(kernel.shape)


def _is_product(spec: BellFunctionalSpec) -> bool:
    return all(f.kind == "product" for _, f in spec.party_layout)


def _setting_rows(spec: BellFunctionalSpec, angles, n_plus: int, n_minus: int, law: str):
    """Validated setting rows of :func:`bell_value` and :func:`_bell_gradient`.

    Slots 2p and 2p + 1 set party p: one row each, zero-padded, with the mask
    of the party's measurements.
    """
    n, m, blocks, layout = n_plus + n_minus, spec.m, spec.block_count, spec.party_layout
    if not all(float(p).is_integer() and p >= 0 for p in (n_plus, n_minus)) or m > n:
        raise ValueError(f"populations ({n_plus}, {n_minus}) cannot supply {m} measurements")
    if len(angles) != 4 * blocks:
        raise ValueError(f"{spec.form} takes {4 * blocks} setting slots")
    counts = np.array([c for c, _ in layout for _ in range(2)])
    rows, mask = np.zeros((len(counts), max(counts))), np.arange(max(counts)) < counts[:, None]
    for row, value, count in zip(rows, angles, counts):
        row[:count] = value  # one angle for the setting, or one per measurement
    if not np.isfinite(rows).all():
        raise ValueError(f"setting angles must be finite, got {angles}")
    if law not in ("exact", "classical", "gaussian"):
        raise ValueError(f"unknown probability law {law!r}")
    if law == "gaussian" and (not _is_product(spec) or n_plus != n_minus or m != n):
        raise ValueError("gaussian law needs product functionals, equal populations and "
                         f"every particle measured, got ({n_plus}, {n_minus}), M = {m}")
    if spec.form != "bchsh" and m != n:
        raise ValueError(f"{spec.form} requires every particle measured (M = N = {n})")
    return rows, mask


def _blocks(f: np.ndarray) -> np.ndarray:
    """X (Y + Y') + X' (Y - Y') for each block of the setting factors f, slot 4b + k
    along axis 0 with k over (X, X', Y, Y')."""
    x, xp, y, yp = f[0::4], f[1::4], f[2::4], f[3::4]
    return x * (y + yp) + xp * (y - yp)


def _block_slopes(f: np.ndarray) -> np.ndarray:
    """Derivative of the product of the blocks by each setting factor, shaped as f."""
    x, xp, y, yp = f[0::4], f[1::4], f[2::4], f[3::4]
    own = np.stack([y + yp, y - yp, x + xp, x - xp], axis=1)
    return (own * exact._others(_blocks(f), axis=0)[:, None]).reshape(f.shape)


def _gaussian_terms(rows: np.ndarray, m: int, blocks: int):
    """The signed cross terms of the Gaussian law, (4,) * blocks, and their angle sums.

    The pair (x_i, y_j) of a block adds x_i + y_j to the sums of a cross term's
    angles (t1) and squares (t2), with the sign _CHSH[2i + j]; the term is
    exp(-(t2 - t1**2 / M) / 2).
    """
    s1, s2 = (v.sum(axis=1).reshape(blocks, 2, 2) for v in (rows, rows * rows))
    t1, t2 = (sum(np.ix_(*(s[:, 0, :, None] + s[:, 1, None, :]).reshape(blocks, 4)))
              for s in (s1, s2))
    sign = math.prod(np.ix_(*[_CHSH] * blocks))
    return sign * np.exp(-0.5 * (t2 - t1 * t1 / m)), t1


def bell_value(spec: BellFunctionalSpec, angles, n_plus: int, n_minus: int | None = None,
               *, law: str = "exact") -> float:
    """Quantum average of the Bell quantity for a full angle assignment.

    Parameters
    ----------
    spec : BellFunctionalSpec
        Inequality form and party layout.
    angles : sequence
        Four setting slots (x, x', y, y') per block: (a, a', b, b') for
        ``bchsh``, eight for ``double_bchsh``, twelve for ``triple_bchsh``;
        each a scalar or one angle per measurement of its party.
    n_plus, n_minus : int
        Populations; ``n_minus`` defaults to ``n_plus``.
    law : {"exact", "classical", "gaussian"}
        The Gaussian approximation needs product functionals, equal
        populations and every particle measured.

    With B blocks the value is 2**(1 - B) times the grid mean of the weight
    times prod_b [X_b (Y_b + Y'_b) + X'_b (Y_b - Y'_b)], each factor a party's
    value at one setting (B = 1: T(a,b) + T(a',b) + T(a,b') - T(a',b')).
    For product parties every factor depends on lambda alone and the Lambda
    mean is the kernel's exact moment, so identically vanishing products give
    0.0.  A ``bchsh`` layout with any other party takes its four averages T
    from :func:`expectation`.
    """
    if n_minus is None:
        n_minus = n_plus
    rows, mask = _setting_rows(spec, angles, n_plus, n_minus, law)
    prefactor = 2.0 ** (1 - spec.block_count)
    if law == "gaussian":
        return prefactor * float(_gaussian_terms(rows, spec.m, spec.block_count)[0].sum())
    if not _is_product(spec):
        # a plus-count party, so bchsh: the signed sum of the averages T(x_i, y_j)
        settings = [tuple(row[keep]) for row, keep in zip(rows, mask)]
        return math.fsum(
            s * expectation(ExperimentConfig(n_plus, n_minus, settings[i] + settings[2 + j]),
                            spec.party_layout, law=law)
            for (i, j), s in zip(np.ndindex(2, 2), _CHSH))
    kernel = exact._Bracket.for_law(law, n_plus, n_minus, spec.m)
    lam_mean = float(_blocks(kernel.cosine_products(rows, mask)).prod(axis=0).mean())
    return prefactor * kernel.moment0 * lam_mean + 0.0  # + 0.0: no -0.0


def _plus_count_slopes(spec, rows, mask, n_plus, n_minus, law) -> np.ndarray:
    """d bell_value / d phi for every measurement of a bchsh layout with a plus-count
    party, shaped as ``rows``: the one-block product of the four party values."""
    kernel = exact._Bracket.for_law(law, n_plus, n_minus, spec.m)
    settings = [(row[keep], spec.party_layout[s // 2][1])
                for s, (row, keep) in enumerate(zip(rows, mask))]
    out = np.zeros(rows.shape)
    for part in _coefficient_columns(kernel, spec.m):
        weight = part.weight(spec.m)  # raises on overflow before any party is expanded
        parties = [_party(part, a, func, slopes=True) for a, func in settings]
        by_value = weight * _block_slopes(np.array([f for f, _ in parties]))
        for s, ((a, _), (_, slopes)) in enumerate(zip(settings, parties)):
            totals = {phi: float((by_value[s] * slope).sum()) for phi, slope in slopes.items()}
            out[s, :len(a)] += [totals[phi] for phi in a]
    return out / math.prod(kernel.shape)


def _bell_gradient(spec: BellFunctionalSpec, angles, n_plus: int, n_minus: int | None = None,
                   *, law: str = "exact") -> np.ndarray:
    """Derivative of :func:`bell_value` by every angle, flattened in slot order: one
    entry for a slot given as one angle, one per measurement for a vector slot.

    Product layouts differentiate the block product through each setting's
    cosine product, the Gaussian law each cross term's exponent, and plus-count
    parties their coefficient expansion (see :func:`_party`).
    """
    if n_minus is None:
        n_minus = n_plus
    rows, mask = _setting_rows(spec, angles, n_plus, n_minus, law)
    m, blocks = spec.m, spec.block_count
    prefactor = 2.0 ** (1 - blocks)
    if law == "gaussian":
        # d term / d phi = term (t1 / M - phi) for every angle phi of the term
        terms, t1 = _gaussian_terms(rows, m, blocks)
        axes = [tuple(a for a in range(blocks) if a != b) for b in range(blocks)]
        by_pair = np.array([[(terms * t1).sum(axis=ax), terms.sum(axis=ax)] for ax in axes])
        # the setting pairs (x_i, y_j) at index 2i + j that contain x, x', y, y'
        sums = np.einsum("kp,bvp->bkv", _MEMBERS, by_pair).reshape(4 * blocks, 2)
        slopes = prefactor * (sums[:, :1] / m - sums[:, 1:] * rows)
    elif _is_product(spec):
        kernel = exact._Bracket.for_law(law, n_plus, n_minus, m)
        f, by_angle = kernel.cosine_products(rows, mask, slopes=True)
        by_value = _block_slopes(f) * (prefactor * kernel.moment0 / kernel.shape[1])
        slopes = np.einsum("rk,rjk->rj", by_value, by_angle)
    else:
        slopes = _plus_count_slopes(spec, rows, mask, n_plus, n_minus, law)
    slopes = np.where(mask, slopes, 0.0)
    return np.concatenate([[row.sum()] if np.size(value) == 1 else row[:np.size(value)]
                           for row, value in zip(slopes, angles)])


def semi_mesoscopic_value(n: int, angles, *, law: str = "exact") -> float:
    """BCHSH value with Alice binning n-1 outcomes and Bob keeping one product.

    Alice's count n-1 is odd, so the binned sign never ties and the zero
    policy is immaterial.  For n = 2 this degenerates to the plain two-spin
    BCHSH quantity.
    """
    if n < 2 or n % 2:
        raise ValueError("need an even particle number of at least 2")
    spec = BellFunctionalSpec.bchsh(
        n - 1, 1, alice_functional=PartyFunctional.binned_sign())
    return bell_value(spec, angles, n // 2, n // 2, law=law)
